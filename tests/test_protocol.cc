/**
 * @file
 * Tests for the protocol-pluggable coherence layer (sim/protocol.h):
 * the cross-protocol identity guarantee (MESI behind the interface must
 * reproduce the pre-refactor directory's HITM stream bit-for-bit),
 * outcome equivalence fuzzing against the retained CoherenceDirectory,
 * Dragon transition semantics, invariant property fuzzing over random
 * interleavings of both protocols, and cache-geometry behaviour
 * (line indexing, bounded-MESI eviction).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

#include "baselines/sheriff.h"
#include "core/experiment.h"
#include "pebs/monitor.h"
#include "sim/coherence.h"
#include "sim/machine.h"
#include "sim/protocol.h"
#include "sim/protocol_dragon.h"
#include "sim/protocol_mesi.h"
#include "util/line_table.h"
#include "workloads/workload.h"

namespace laser::sim {
namespace {

// ---------------------------------------------------------------------
// Cross-protocol identity: goldens captured from the pre-refactor
// CoherenceDirectory machine
// ---------------------------------------------------------------------

/** Order-sensitive FNV-1a over 64-bit words, low byte first. */
struct Fnv
{
    std::uint64_t hash = 1469598103934665603ULL;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 1099511628211ULL;
        }
    }
};

/**
 * Order-sensitive FNV-1a digest over every HITM event's full payload.
 * Field order and the (non-standard, historical) offset basis must not
 * change: the golden table below was captured with exactly this sink
 * running against the pre-refactor directory-MESI machine.
 */
struct HashingSink final : PmuSink, Fnv
{
    std::uint64_t count = 0;

    std::uint64_t
    onHitm(const HitmEvent &e) override
    {
        ++count;
        mix(static_cast<std::uint64_t>(e.core));
        mix(e.pcIndex);
        mix(e.vaddr);
        mix(e.accessSize);
        mix(e.isLoadUop ? 1 : 0);
        mix(e.isStore ? 1 : 0);
        mix(e.cycle);
        return 0;
    }
};

struct Golden
{
    const char *workload;
    std::uint64_t hitmCount;
    std::uint64_t streamHash;
};

/**
 * Per-workload HITM stream digests of the pre-refactor machine: default
 * BuildOptions, default MachineConfig. If MesiDirectory diverges from
 * the old CoherenceDirectory by even one event field, the digest moves.
 */
constexpr Golden kGoldenHitmStreams[] = {
    {"barnes", 2868ULL, 0x00f44b0d947a8154ULL},
    {"blackscholes", 6ULL, 0x80c81a489b85bfbdULL},
    {"bodytrack", 5837ULL, 0xa202de4ee3385583ULL},
    {"canneal", 0ULL, 0x14650fb0739d0383ULL},
    {"dedup", 5518ULL, 0xe9edd9f9a75b78f1ULL},
    {"facesim", 144ULL, 0x23bdd028195dd4a1ULL},
    {"ferret", 219ULL, 0xf257d75f385893dcULL},
    {"fft", 228ULL, 0xdf1961bfa5d52f9aULL},
    {"fluidanimate", 918ULL, 0x6e0f102c4bba7779ULL},
    {"fmm", 42ULL, 0x31eb9df2f4151874ULL},
    {"freqmine", 0ULL, 0x14650fb0739d0383ULL},
    {"histogram", 0ULL, 0x14650fb0739d0383ULL},
    {"histogram'", 35195ULL, 0x302a8cb5d1576048ULL},
    {"kmeans", 7295ULL, 0xb5c8b874ac240152ULL},
    {"linear_regression", 10582ULL, 0x2039289fe65bb0d8ULL},
    {"lu_cb", 84ULL, 0x545d83c1bccb9ccbULL},
    {"lu_ncb", 2835ULL, 0x8caa3de2e54b6c5fULL},
    {"matrix_multiply", 0ULL, 0x14650fb0739d0383ULL},
    {"ocean_cp", 54ULL, 0xc4b2555ff5b29589ULL},
    {"ocean_ncp", 54ULL, 0x62cf3aa521ba2df3ULL},
    {"pca", 6ULL, 0xecaadc39d151eec2ULL},
    {"radiosity", 435ULL, 0xceb1089875068fe1ULL},
    {"radix", 338ULL, 0xf94bdb99a05d184bULL},
    {"raytrace.parsec", 79ULL, 0x17eecffce0551431ULL},
    {"raytrace.splash2x", 2542ULL, 0x0fd508490387afabULL},
    {"reverse_index", 2999ULL, 0x84e89a04286e06f3ULL},
    {"streamcluster", 8350ULL, 0xac1f05a16569f45aULL},
    {"string_match", 0ULL, 0x14650fb0739d0383ULL},
    {"swaptions", 0ULL, 0x14650fb0739d0383ULL},
    {"vips", 0ULL, 0x14650fb0739d0383ULL},
    {"volrend", 7823ULL, 0x75fd3959bcb78816ULL},
    {"water_nsquared", 18499ULL, 0xf9b553fa4dd587b2ULL},
    {"water_spatial", 1851ULL, 0xfd132b5aeadb3c83ULL},
    {"word_count", 2199ULL, 0x45af516ad5eeace5ULL},
    {"x264", 25600ULL, 0x78e79e980c457c3dULL},
};

TEST(ProtocolIdentity, MesiReproducesPreRefactorHitmStreams)
{
    const auto &all = workloads::allWorkloads();
    ASSERT_EQ(all.size(),
              sizeof kGoldenHitmStreams / sizeof kGoldenHitmStreams[0]);

    for (const Golden &golden : kGoldenHitmStreams) {
        const workloads::WorkloadDef *def =
            workloads::findWorkload(golden.workload);
        ASSERT_NE(def, nullptr) << golden.workload;

        workloads::WorkloadBuild build = def->build({});
        Machine machine(std::move(build.program), {});
        build.applyTo(machine);
        HashingSink sink;
        machine.setPmuSink(&sink);
        const MachineStats stats = machine.run();

        EXPECT_EQ(sink.count, golden.hitmCount) << golden.workload;
        EXPECT_EQ(sink.hash, golden.streamHash) << golden.workload;
        EXPECT_EQ(stats.hitmTotal(), golden.hitmCount)
            << golden.workload;
    }
}

// ---------------------------------------------------------------------
// Schedule-sensitive goldens: every path whose costs feed back into the
// clocks (and so into the interleaving) — Dragon at a non-default line
// size, Sheriff execution with sync costs, a real PEBS monitor, and the
// full LASER scheme with its SSB-repaired re-run
// ---------------------------------------------------------------------

/**
 * Order-sensitive digest of every PMU callback the machine raises, in
 * the order it raises them. Cycle costs can be fed back: an inner sink
 * (e.g. a PebsMonitor) is forwarded every callback and its costs are
 * returned, and a Sheriff cost model charges each sync operation.
 */
struct ScheduleSink final : PmuSink, Fnv
{
    PmuSink *inner = nullptr;
    const baselines::SheriffConfig *sheriff = nullptr;

    std::uint64_t
    onHitm(const HitmEvent &e) override
    {
        mix(1);
        mix(static_cast<std::uint64_t>(e.core));
        mix(e.pcIndex);
        mix(e.vaddr);
        mix(e.accessSize);
        mix(e.isLoadUop ? 1 : 0);
        mix(e.isStore ? 1 : 0);
        mix(e.cycle);
        return inner ? inner->onHitm(e) : 0;
    }

    std::uint64_t
    onMemop(int core, std::uint32_t pc_index, bool is_write,
            std::uint64_t cycle) override
    {
        mix(2);
        mix(static_cast<std::uint64_t>(core));
        mix(pc_index);
        mix(is_write ? 1 : 0);
        mix(cycle);
        return inner ? inner->onMemop(core, pc_index, is_write, cycle) : 0;
    }

    std::uint64_t
    onSync(int core, isa::SyncKind kind, std::uint64_t dirty_pages,
           std::uint64_t cycle) override
    {
        mix(3);
        mix(static_cast<std::uint64_t>(core));
        mix(static_cast<std::uint64_t>(kind));
        mix(dirty_pages);
        mix(cycle);
        std::uint64_t cost =
            inner ? inner->onSync(core, kind, dirty_pages, cycle) : 0;
        if (sheriff)
            cost += baselines::sheriffSyncCost(*sheriff, dirty_pages);
        return cost;
    }
};

/** Fold every MachineStats field, per-thread vectors included. */
void
mixStats(Fnv &f, const MachineStats &s)
{
    for (const std::uint64_t v :
         {s.cycles, s.instructions, s.loads, s.stores, s.atomics,
          s.l1Hits, s.llcHits, s.memMisses, s.upgrades, s.rfos,
          s.hitmLoads, s.hitmStores, s.syncOps, s.ssbStores,
          s.ssbLoadHits, s.ssbFlushes, s.ssbFlushedEntries,
          s.ssbMaxEntriesSeen, s.aliasChecks, s.aliasMisspecs,
          static_cast<std::uint64_t>(s.truncated)})
        f.mix(v);
    for (const std::uint64_t v : s.threadCycles)
        f.mix(v);
    for (const std::uint64_t v : s.threadInstructions)
        f.mix(v);
}

enum class ScheduleConfig { Dragon128, Sheriff, Pebs };

/** Run @p workload under @p config; digest of callbacks + stats. */
std::uint64_t
scheduleDigest(const workloads::WorkloadDef &def, ScheduleConfig config)
{
    workloads::WorkloadBuild build = def.build({});
    MachineConfig mc;
    if (config == ScheduleConfig::Dragon128) {
        mc.protocol = ProtocolKind::Dragon;
        mc.geometry.lineBytes = 128;
    }
    if (config == ScheduleConfig::Sheriff) {
        mc.threadsAsProcesses = true;
        mc.trackDirtyPages = true;
    }
    Machine machine(std::move(build.program), mc);
    build.applyTo(machine);

    ScheduleSink sink;
    const baselines::SheriffConfig sheriff{};
    if (config == ScheduleConfig::Sheriff)
        sink.sheriff = &sheriff;
    std::optional<pebs::PebsMonitor> monitor;
    if (config == ScheduleConfig::Pebs) {
        monitor.emplace(machine.addressSpace(), machine.program().size(),
                        mc.timing);
        sink.inner = &*monitor;
    }
    machine.setPmuSink(&sink);
    const MachineStats stats = machine.run();
    mixStats(sink, stats);
    if (monitor) {
        monitor->finish();
        sink.mix(monitor->records().size());
        sink.mix(monitor->stats().interrupts);
        sink.mix(monitor->stats().appCycles);
    }
    return sink.hash;
}

struct ScheduleGolden
{
    const char *workload;
    std::uint64_t dragon128; ///< Dragon bus, 128-byte lines
    std::uint64_t sheriff;   ///< threads as processes + dirty pages
    std::uint64_t pebs;      ///< MESI under a charging PebsMonitor
};

/** Captured from the machine whose HITM streams kGoldenHitmStreams
 *  pins; any change to the order of shared operations moves them. */
constexpr ScheduleGolden kScheduleGoldens[] = {
    {"barnes", 0x782beb063493e2b5ULL, 0x1964bb4fd16e5a74ULL,
     0x7bd8b7127104e24bULL},
    {"blackscholes", 0xc79ab0182fa702e8ULL, 0x4f15c421b1336316ULL,
     0xe3c9d8577f09d21eULL},
    {"bodytrack", 0xfa06c3baa2b26c02ULL, 0x71fd05ff761deaf6ULL,
     0xe4edc18ab892e961ULL},
    {"canneal", 0x9c1405e92954fa14ULL, 0x58c2e93f296f2a5bULL,
     0xcc29a8e46d1c048eULL},
    {"dedup", 0x79af5e62b9bd3e50ULL, 0x20921dc9fdbb4e3aULL,
     0xfc5eb39230cb6945ULL},
    {"facesim", 0x6fe22c4a4a1610a8ULL, 0x7aee10eb41408ae4ULL,
     0x1d19dd6c29a9efeeULL},
    {"ferret", 0x72576820127c1dc1ULL, 0x5e21c1c71879c3d5ULL,
     0xb19daf35ffc945eaULL},
    {"fft", 0x985bae2fd3aec172ULL, 0x665922293eca31d8ULL,
     0xb9fd4d0a560fc30aULL},
    {"fluidanimate", 0xc11aa3b2feca9c40ULL, 0xac05183e0caa6b6dULL,
     0x0b3fb295af62b4feULL},
    {"fmm", 0xf7d8045f49d62a4bULL, 0x41ed6713b0d22132ULL,
     0xaa1399508e484fd7ULL},
    {"freqmine", 0xaa438275d1215774ULL, 0x88b023810e0fcadcULL,
     0x1e3f9733b5b095daULL},
    {"histogram", 0xad427bc62b3af6caULL, 0x8cee2fb2e3f1af6fULL,
     0x3f5c203867f16c55ULL},
    {"histogram'", 0xd99c6c712f7ae91fULL, 0x8cee2fb2e3f1af6fULL,
     0xa4563ad33a5479a9ULL},
    {"kmeans", 0xaf6e80aa160144efULL, 0x0f1bacd83c94497bULL,
     0xe4702ffdb5335f81ULL},
    {"linear_regression", 0xd5c898c6ab01ab27ULL, 0xd5518ddf68c53a96ULL,
     0x81724df0814a2dacULL},
    {"lu_cb", 0x70fd21c67083e557ULL, 0x450d2fdcc6b14587ULL,
     0x1b9725dfb58671bfULL},
    {"lu_ncb", 0xe5ff7a06b6765697ULL, 0x431e41a036f254b6ULL,
     0x2910470cecb455f8ULL},
    {"matrix_multiply", 0x6dcfa5639598034fULL, 0x0c18b501f4cf236fULL,
     0x50587d6619ddd7c3ULL},
    {"ocean_cp", 0x905539a0484c6999ULL, 0xc638ad19750c2418ULL,
     0x5c00113cc9c4b519ULL},
    {"ocean_ncp", 0xf61fbee4cef71128ULL, 0x0fea6cf5dbf6e36bULL,
     0x2612715c331b1405ULL},
    {"pca", 0x05815763b317733fULL, 0x0b1e7a40c7fbf7beULL,
     0x9f8f2837e7a36e9cULL},
    {"radiosity", 0x7ddcda9b7f68555dULL, 0xd9145f002d6c693fULL,
     0xc7d36436d6f9922eULL},
    {"radix", 0x9845d974fbc7825fULL, 0xd7cbc624251fd38fULL,
     0x1164d8af594ed5aeULL},
    {"raytrace.parsec", 0x3aa30a82a61c02abULL, 0x4e98edf15f3b2cd4ULL,
     0x2b1a79762eb13bfeULL},
    {"raytrace.splash2x", 0xf6816c3fe85c1699ULL, 0x1d0cd06323de0118ULL,
     0xa40b8ea7519b8f09ULL},
    {"reverse_index", 0xc485d2fd030c744dULL, 0x95901fd3c228aa5dULL,
     0xd9b1f16bac6ba16fULL},
    {"streamcluster", 0x7a8b1a0adf2f40b8ULL, 0xf69e22d905706082ULL,
     0xb9761eac62662052ULL},
    {"string_match", 0x563da90e52259978ULL, 0x1badff68e3e40db1ULL,
     0x8626cc0606e69544ULL},
    {"swaptions", 0xac28931c6ebb9752ULL, 0xc1098cdff5ebbf5dULL,
     0xe4e0a68c08074a12ULL},
    {"vips", 0x8935bef2f0cdc39cULL, 0x822cb67461388fd8ULL,
     0xa4578dea0e616a9eULL},
    {"volrend", 0xd6988512dbf9888fULL, 0xc8fd0d5130684028ULL,
     0x672d156a95907023ULL},
    {"water_nsquared", 0x0b120a046d91ef90ULL, 0x7c95b87833748994ULL,
     0x85c0c72829a8db65ULL},
    {"water_spatial", 0x4d1d9bf5e70aeac9ULL, 0x7c9933d0f43bbf7aULL,
     0x244ab7c731ed8188ULL},
    {"word_count", 0x0ce4cd7a6d0e1f85ULL, 0x93a77dd3079e1a2fULL,
     0x29d380ab6d5859dfULL},
    {"x264", 0xde04542e2f86ffa9ULL, 0xc371649a57a399c0ULL,
     0xc34e999ea6fde0f5ULL},
};

TEST(ScheduleIdentity, CostFeedbackPathsReproduceGoldens)
{
    const auto &all = workloads::allWorkloads();
    ASSERT_EQ(all.size(),
              sizeof kScheduleGoldens / sizeof kScheduleGoldens[0]);
    for (const ScheduleGolden &golden : kScheduleGoldens) {
        const workloads::WorkloadDef *def =
            workloads::findWorkload(golden.workload);
        ASSERT_NE(def, nullptr) << golden.workload;
        EXPECT_EQ(scheduleDigest(*def, ScheduleConfig::Dragon128),
                  golden.dragon128)
            << golden.workload;
        EXPECT_EQ(scheduleDigest(*def, ScheduleConfig::Sheriff),
                  golden.sheriff)
            << golden.workload;
        EXPECT_EQ(scheduleDigest(*def, ScheduleConfig::Pebs), golden.pebs)
            << golden.workload;
    }
}

struct LaserGolden
{
    const char *workload;
    std::uint64_t runtimeCycles;
    bool repairApplied;
    std::uint64_t digest; ///< runtimeCycles + monitored-run stats
};

/** ExperimentRunner's full LASER scheme over the known-bug workloads:
 *  runtimeCycles composes the monitored run with the repaired re-run. */
constexpr LaserGolden kLaserGoldens[] = {
    {"bodytrack", 492948ULL, false, 0xdc1992f51fe432c8ULL},
    {"dedup", 448923ULL, false, 0x08bd4eef1a83463eULL},
    {"histogram'", 1643830ULL, true, 0xf2301bdb06d02ee3ULL},
    {"kmeans", 518678ULL, false, 0x79ab849b96f81510ULL},
    {"linear_regression", 647815ULL, true, 0x8728c66e2fdf7f0cULL},
    {"lu_ncb", 473824ULL, false, 0x245186a2f0abd30bULL},
    {"reverse_index", 397352ULL, false, 0x75a46afded30252eULL},
    {"streamcluster", 369636ULL, true, 0x5d50878b13ebb5e3ULL},
    {"volrend", 527828ULL, false, 0x0fa90fec9ffe5319ULL},
};

TEST(ScheduleIdentity, LaserSchemeReproducesGoldens)
{
    const std::vector<const workloads::WorkloadDef *> buggy =
        workloads::buggyWorkloads();
    ASSERT_EQ(buggy.size(), sizeof kLaserGoldens / sizeof kLaserGoldens[0]);
    core::ExperimentRunner runner;
    for (const LaserGolden &golden : kLaserGoldens) {
        const workloads::WorkloadDef *def =
            workloads::findWorkload(golden.workload);
        ASSERT_NE(def, nullptr) << golden.workload;
        const core::RunResult r = runner.run(*def, core::Scheme::Laser);
        Fnv f;
        f.mix(r.runtimeCycles);
        mixStats(f, r.stats);
        EXPECT_EQ(r.runtimeCycles, golden.runtimeCycles) << golden.workload;
        EXPECT_EQ(r.repairApplied, golden.repairApplied) << golden.workload;
        EXPECT_EQ(f.hash, golden.digest) << golden.workload;
    }
}

// ---------------------------------------------------------------------
// Outcome-equivalence fuzz against the retained CoherenceDirectory
// ---------------------------------------------------------------------

TEST(ProtocolIdentity, MesiMatchesCoherenceDirectoryOnRandomStreams)
{
    for (std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
        std::mt19937_64 rng(seed);
        const int cores = 4;
        CoherenceDirectory reference(cores);
        MesiDirectory mesi(cores);

        for (int i = 0; i < 20000; ++i) {
            const int core = static_cast<int>(rng() % cores);
            // A small address pool concentrates contention so every
            // transition arm is exercised.
            const std::uint64_t addr = (rng() % 64) * 8;
            const bool is_write = (rng() & 1) != 0;
            const bool is_load_class = !is_write || (rng() & 1) != 0;

            const AccessOutcome expected =
                reference.access(core, addr, is_write, is_load_class);
            const AccessOutcome actual =
                mesi.access(core, addr, is_write, is_load_class);
            ASSERT_EQ(actual, expected)
                << "seed " << seed << " step " << i;
        }
        EXPECT_TRUE(reference.checkInvariants());
        EXPECT_TRUE(mesi.checkInvariants());
        EXPECT_EQ(mesi.linesTouched(), reference.linesTouched());
    }
}

// ---------------------------------------------------------------------
// Dragon transition semantics
// ---------------------------------------------------------------------

TEST(Dragon, DirtyInterventionIsHitmAndKeepsOwnership)
{
    DragonBus dragon(4);
    EXPECT_EQ(dragon.access(0, 0x1000, true, false),
              AccessOutcome::MemMiss); // first touch installs M
    // Remote read: the M holder supplies the line (HITM) and keeps it
    // dirty as Sm — no writeback, unlike MESI.
    EXPECT_EQ(dragon.access(1, 0x1000, false, true),
              AccessOutcome::HitmLoad);
    const DragonBus::LineInfo *li = dragon.probe(dragon.lineOf(0x1000));
    ASSERT_NE(li, nullptr);
    EXPECT_EQ(li->owner, 0);
    EXPECT_EQ(li->sharers, 0b11u);
    // A second reader is served by the Sm owner again: another HITM.
    EXPECT_EQ(dragon.access(2, 0x1000, false, true),
              AccessOutcome::HitmLoad);
}

TEST(Dragon, WritesUpdateInsteadOfInvalidating)
{
    DragonBus dragon(4);
    dragon.access(0, 0x1000, true, false); // M at core 0
    dragon.access(1, 0x1000, false, true); // core 1 joins (HITM)
    // Core 0 writes its shared-dirty copy: bus update, not invalidate.
    EXPECT_EQ(dragon.access(0, 0x1000, true, false),
              AccessOutcome::Upgrade);
    EXPECT_EQ(dragon.busUpdates(), 1u);
    // Core 1's copy stayed valid: its next read is a plain L1 hit.
    EXPECT_EQ(dragon.access(1, 0x1000, false, true),
              AccessOutcome::L1Hit);
}

TEST(Dragon, SilentCleanExclusiveUpgrade)
{
    DragonBus dragon(4);
    EXPECT_EQ(dragon.access(0, 0x1000, false, true),
              AccessOutcome::MemMiss); // E
    // E -> M without any bus traffic.
    EXPECT_EQ(dragon.access(0, 0x1000, true, false),
              AccessOutcome::L1Hit);
    EXPECT_EQ(dragon.busUpdates(), 0u);
    const DragonBus::LineInfo *li = dragon.probe(dragon.lineOf(0x1000));
    ASSERT_NE(li, nullptr);
    EXPECT_EQ(li->owner, 0);
    // The dirty copy now services a remote miss cache-to-cache.
    EXPECT_EQ(dragon.access(1, 0x1000, false, true),
              AccessOutcome::HitmLoad);
}

TEST(Dragon, FalseSharingPingPongHitmsOnlyOnFirstTouch)
{
    // The robustness observation the protocol sweep quantifies: under
    // MESI a false-sharing write ping-pong HITMs forever; under Dragon
    // only each core's first touch does — then writes become updates.
    DragonBus dragon(2);
    MesiDirectory mesi(2);
    int dragon_hitms = 0;
    int mesi_hitms = 0;
    for (int round = 0; round < 10; ++round) {
        for (int core = 0; core < 2; ++core) {
            const std::uint64_t addr = 0x1000 + 8 * core;
            dragon_hitms +=
                isHitm(dragon.access(core, addr, true, false)) ? 1 : 0;
            mesi_hitms +=
                isHitm(mesi.access(core, addr, true, false)) ? 1 : 0;
        }
    }
    EXPECT_EQ(dragon_hitms, 1); // core 1's first write only
    EXPECT_GT(mesi_hitms, 10);  // every post-first-round write
    EXPECT_GT(dragon.busUpdates(), 10u);
}

TEST(Dragon, WriteMissToDirtyLineIsHitmStore)
{
    DragonBus dragon(2);
    dragon.access(0, 0x1000, true, false);
    // Pure-store write miss to the dirty line: HitmStore (imprecise
    // PEBS flavour); an RMW (load-class) would be HitmLoad.
    EXPECT_EQ(dragon.access(1, 0x1000, true, false),
              AccessOutcome::HitmStore);
    const DragonBus::LineInfo *li = dragon.probe(dragon.lineOf(0x1000));
    ASSERT_NE(li, nullptr);
    EXPECT_EQ(li->owner, 1); // writer took ownership (Sm)
    EXPECT_EQ(li->sharers, 0b11u);
}

TEST(Dragon, WriteMissWithCleanCopiesIsRfoShared)
{
    DragonBus dragon(4);
    dragon.access(0, 0x1000, false, true);
    dragon.access(1, 0x1000, false, true); // two clean sharers
    EXPECT_EQ(dragon.access(2, 0x1000, true, false),
              AccessOutcome::RfoShared);
    // The clean copies stayed valid.
    EXPECT_EQ(dragon.access(0, 0x1000, false, true),
              AccessOutcome::L1Hit);
}

// ---------------------------------------------------------------------
// Invariant property fuzz over both protocols
// ---------------------------------------------------------------------

TEST(ProtocolInvariants, HoldUnderRandomInterleavings)
{
    for (const ProtocolKind kind :
         {ProtocolKind::Mesi, ProtocolKind::Dragon}) {
        for (std::uint64_t seed : {3u, 99u, 2016u}) {
            std::mt19937_64 rng(seed);
            const int cores = 4;
            const auto proto = makeProtocol(kind, cores);
            for (int i = 0; i < 30000; ++i) {
                const int core = static_cast<int>(rng() % cores);
                const std::uint64_t addr = (rng() % 128) * 4;
                const bool is_write = (rng() & 1) != 0;
                const bool is_load_class = !is_write || (rng() & 1) != 0;
                proto->access(core, addr, is_write, is_load_class);
                if (i % 512 == 0)
                    ASSERT_TRUE(proto->checkInvariants())
                        << protocolName(kind) << " seed " << seed
                        << " step " << i;
            }
            EXPECT_TRUE(proto->checkInvariants())
                << protocolName(kind) << " seed " << seed;
            EXPECT_GT(proto->linesTouched(), 0u);
        }
    }
}

TEST(ProtocolInvariants, BoundedMesiHoldsUnderRandomInterleavings)
{
    CacheGeometry geom;
    geom.sets = 2;
    geom.associativity = 2;
    std::mt19937_64 rng(7);
    MesiDirectory mesi(4, geom);
    for (int i = 0; i < 30000; ++i) {
        const int core = static_cast<int>(rng() % 4);
        const std::uint64_t addr = (rng() % 128) * 64;
        const bool is_write = (rng() & 1) != 0;
        mesi.access(core, addr, is_write, !is_write);
        if (i % 512 == 0)
            ASSERT_TRUE(mesi.checkInvariants()) << "step " << i;
    }
    EXPECT_TRUE(mesi.checkInvariants());
    EXPECT_GT(mesi.evictions(), 0u);
}

// ---------------------------------------------------------------------
// Geometry: line indexing and bounded-MESI eviction
// ---------------------------------------------------------------------

TEST(Geometry, ValidityBounds)
{
    CacheGeometry g;
    EXPECT_TRUE(g.valid());
    EXPECT_FALSE(g.bounded());
    g.lineBytes = 32;
    EXPECT_TRUE(g.valid());
    g.lineBytes = 128;
    EXPECT_TRUE(g.valid());
    g.lineBytes = 256; // would overflow HitmEvent::accessSize
    EXPECT_FALSE(g.valid());
    g.lineBytes = 48;
    EXPECT_FALSE(g.valid());
    g.lineBytes = 4;
    EXPECT_FALSE(g.valid());
}

TEST(Geometry, LineIndexingFollowsLineSize)
{
    CacheGeometry narrow;
    narrow.lineBytes = 32;
    const auto mesi = makeProtocol(ProtocolKind::Mesi, 4, narrow);
    EXPECT_EQ(mesi->lineBytes(), 32u);
    EXPECT_EQ(mesi->lineOf(0x1000), 0x1000u >> 5);
    EXPECT_NE(mesi->lineOf(0x1000), mesi->lineOf(0x1020));

    CacheGeometry wide;
    wide.lineBytes = 128;
    const auto dragon = makeProtocol(ProtocolKind::Dragon, 4, wide);
    EXPECT_EQ(dragon->lineBytes(), 128u);
    EXPECT_EQ(dragon->lineOf(0x1000), dragon->lineOf(0x1060));
    EXPECT_NE(dragon->lineOf(0x1000), dragon->lineOf(0x1080));
}

TEST(Geometry, InvalidGeometryFallsBackToDefault)
{
    CacheGeometry bad;
    bad.lineBytes = 48;
    const auto proto = makeProtocol(ProtocolKind::Mesi, 4, bad);
    EXPECT_EQ(proto->lineBytes(), 64u);
}

TEST(Geometry, BoundedMesiEvictsLeastRecentlyUsed)
{
    CacheGeometry geom;
    geom.sets = 1;
    geom.associativity = 2;
    MesiDirectory mesi(2, geom);

    EXPECT_EQ(mesi.access(0, 0x000, false, true),
              AccessOutcome::MemMiss);
    EXPECT_EQ(mesi.access(0, 0x040, false, true),
              AccessOutcome::MemMiss);
    EXPECT_EQ(mesi.access(0, 0x000, false, true),
              AccessOutcome::L1Hit); // 0x000 is now MRU
    // Third distinct line overflows the 2-way set, evicting LRU 0x040.
    EXPECT_EQ(mesi.access(0, 0x080, false, true),
              AccessOutcome::MemMiss);
    EXPECT_EQ(mesi.evictions(), 1u);
    // The evicted line is a miss again (re-fetch traffic).
    EXPECT_EQ(mesi.access(0, 0x040, false, true),
              AccessOutcome::MemMiss);
    EXPECT_TRUE(mesi.checkInvariants());
}

TEST(Geometry, BoundedMesiEvictsDirtyOwner)
{
    CacheGeometry geom;
    geom.sets = 1;
    geom.associativity = 1;
    MesiDirectory mesi(2, geom);

    EXPECT_EQ(mesi.access(0, 0x000, true, false),
              AccessOutcome::MemMiss); // M
    // Filling a second line evicts the modified line (writeback).
    EXPECT_EQ(mesi.access(0, 0x040, true, false),
              AccessOutcome::MemMiss);
    EXPECT_EQ(mesi.evictions(), 1u);
    // The written-back line is memory-resident again: no HITM on the
    // remote re-read, just a miss.
    EXPECT_EQ(mesi.access(1, 0x000, false, true),
              AccessOutcome::MemMiss);
    EXPECT_TRUE(mesi.checkInvariants());
}

TEST(Geometry, UnboundedMesiNeverEvicts)
{
    MesiDirectory mesi(2);
    for (std::uint64_t i = 0; i < 1000; ++i)
        mesi.access(0, i * 64, false, true);
    EXPECT_EQ(mesi.evictions(), 0u);
    EXPECT_EQ(mesi.linesTouched(), 1000u);
}

// ---------------------------------------------------------------------
// LineTable: the flat table behind both protocols' line directories
// and the memory page table
// ---------------------------------------------------------------------

using util::LineTable;

/** First @p n keys (from 1 up) whose probe starts at @p home. */
std::vector<std::uint64_t>
keysHomedAt(const LineTable<int> &table, std::size_t home, int n)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; static_cast<int>(keys.size()) < n; ++k) {
        if (table.homeSlot(k) == home)
            keys.push_back(k);
    }
    return keys;
}

TEST(LineTable, EraseAcrossWrappedProbeCluster)
{
    LineTable<int> table;
    const std::size_t last = table.capacity() - 1;
    const std::vector<std::uint64_t> tail = keysHomedAt(table, last, 3);
    const std::uint64_t head = keysHomedAt(table, 0, 1)[0];

    // One cluster wrapping the end of the slot array:
    // [last] tail[0] | [0] tail[1] | [1] head | [2] tail[2].
    table.findOrInsert(tail[0]) = 10;
    table.findOrInsert(tail[1]) = 11;
    table.findOrInsert(head) = 20;
    table.findOrInsert(tail[2]) = 12;
    ASSERT_EQ(table.capacity(), last + 1); // no growth: layout holds

    // Erasing the cluster's first entry shifts the wrapped ones back.
    table.erase(tail[0]);
    EXPECT_EQ(table.size(), 3u);
    EXPECT_EQ(table.find(tail[0]), nullptr);
    ASSERT_NE(table.find(tail[1]), nullptr);
    EXPECT_EQ(*table.find(tail[1]), 11);
    ASSERT_NE(table.find(head), nullptr);
    EXPECT_EQ(*table.find(head), 20);
    ASSERT_NE(table.find(tail[2]), nullptr);
    EXPECT_EQ(*table.find(tail[2]), 12);

    // Erasing from the wrapped middle keeps the rest reachable too.
    table.erase(head);
    table.erase(head); // absent: no-op
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(*table.find(tail[1]), 11);
    EXPECT_EQ(*table.find(tail[2]), 12);
    std::size_t seen = 0;
    EXPECT_TRUE(table.allOf([&](int) {
        ++seen;
        return true;
    }));
    EXPECT_EQ(seen, 2u);
}

TEST(LineTable, MatchesUnorderedMapUnderRandomInsertErase)
{
    std::mt19937_64 rng(2016);
    // A small pool of random line addresses: Fibonacci hashing spreads
    // them like random slots, so probe clusters form and erases hit them.
    std::vector<std::uint64_t> pool(512);
    for (std::uint64_t &key : pool)
        key = rng() >> 24;
    LineTable<int> table;
    std::unordered_map<std::uint64_t, int> reference;
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t key = pool[rng() % pool.size()];
        if (rng() % 3 == 0) {
            table.erase(key);
            reference.erase(key);
        } else {
            table.findOrInsert(key) = i;
            reference[key] = i;
        }
    }
    EXPECT_EQ(table.size(), reference.size());
    for (const std::uint64_t key : pool) {
        const auto it = reference.find(key);
        const int *got = table.find(key);
        if (it == reference.end()) {
            EXPECT_EQ(got, nullptr) << key;
        } else {
            ASSERT_NE(got, nullptr) << key;
            EXPECT_EQ(*got, it->second) << key;
        }
    }
}

// ---------------------------------------------------------------------
// Factory / naming
// ---------------------------------------------------------------------

TEST(ProtocolFactory, MakesRequestedKind)
{
    EXPECT_EQ(makeProtocol(ProtocolKind::Mesi, 4)->kind(),
              ProtocolKind::Mesi);
    EXPECT_EQ(makeProtocol(ProtocolKind::Dragon, 4)->kind(),
              ProtocolKind::Dragon);
}

TEST(ProtocolFactory, ParsesNames)
{
    ProtocolKind kind = ProtocolKind::Mesi;
    EXPECT_TRUE(parseProtocol("dragon", &kind));
    EXPECT_EQ(kind, ProtocolKind::Dragon);
    EXPECT_TRUE(parseProtocol("mesi", &kind));
    EXPECT_EQ(kind, ProtocolKind::Mesi);
    kind = ProtocolKind::Dragon;
    EXPECT_FALSE(parseProtocol("moesi", &kind));
    EXPECT_EQ(kind, ProtocolKind::Dragon); // left alone on failure
    EXPECT_STREQ(protocolName(ProtocolKind::Mesi), "mesi");
    EXPECT_STREQ(protocolName(ProtocolKind::Dragon), "dragon");
}

// ---------------------------------------------------------------------
// Machine integration: protocol selection changes the HITM population
// ---------------------------------------------------------------------

TEST(MachineProtocol, DragonStarvesTheHitmSignal)
{
    const workloads::WorkloadDef *def =
        workloads::findWorkload("histogram'");
    ASSERT_NE(def, nullptr);

    const auto runWith = [&](ProtocolKind kind) {
        workloads::WorkloadBuild build = def->build({});
        MachineConfig mc;
        mc.protocol = kind;
        Machine machine(std::move(build.program), mc);
        build.applyTo(machine);
        return machine.run();
    };

    const MachineStats mesi = runWith(ProtocolKind::Mesi);
    const MachineStats dragon = runWith(ProtocolKind::Dragon);
    EXPECT_GT(mesi.hitmTotal(), 0u);
    // The update fabric converts the write ping-pong into bus updates:
    // the HITM population collapses (the detection-robustness result).
    EXPECT_LT(dragon.hitmTotal() * 10, mesi.hitmTotal());
}

} // namespace
} // namespace laser::sim
