/**
 * @file
 * Tests for the trace capture/replay subsystem and the parallel sweep
 * runner: byte-exact round-trips, strict rejection of malformed files,
 * replay fidelity against the in-process pipeline, and cache-hit
 * behaviour (a repeated sweep performs zero machine runs).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/experiment.h"
#include "core/sweep_runner.h"
#include "obs/metrics.h"
#include "trace/cache.h"
#include "trace/capture.h"
#include "trace/replay.h"
#include "trace/trace.h"
#include "trace/trace_file.h"

namespace laser::trace {
namespace {

namespace fs = std::filesystem;

/** Synthetic trace exercising negative deltas and large values. */
Trace
syntheticTrace()
{
    Trace t;
    t.meta.workload = "kmeans";
    t.meta.scheme = "laser-detect";
    t.meta.build.heapPerturbation = 48;
    t.meta.pebs.sav = 19;
    t.meta.stats.cycles = 123456;
    t.meta.stats.hitmLoads = 77;
    t.meta.stats.threadCycles = {100, 200, 300, 400};
    t.meta.stats.threadInstructions = {10, 20, 30, 40};
    t.meta.runtimeCycles = 123456;
    t.meta.mapsText = "00400000-00410000 r-xp 00000000 00:00 1  /app/kmeans\n";

    pebs::PebsRecord r;
    r.pc = 0x400100;
    r.dataAddr = 0x1000040;
    r.core = 2;
    r.cycle = 5000;
    t.records.push_back(r);
    r.pc = 0x400080;                      // negative pc delta
    r.dataAddr = 0xffff'8000'0000'0100ULL; // huge positive addr delta
    r.core = 0;
    r.cycle = 5000;                       // equal cycles are allowed
    t.records.push_back(r);
    r.pc = 0x400084;
    r.dataAddr = 0x70000010;              // negative addr delta
    r.core = 3;
    r.cycle = 90000;
    t.records.push_back(r);
    return t;
}

std::vector<std::uint8_t>
encode(const Trace &t)
{
    TraceWriter writer(t.meta);
    writer.appendAll(t.records);
    return writer.finalize();
}

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.meta.workload, b.meta.workload);
    EXPECT_EQ(a.meta.scheme, b.meta.scheme);
    EXPECT_EQ(a.meta.build.heapPerturbation, b.meta.build.heapPerturbation);
    EXPECT_EQ(a.meta.build.numThreads, b.meta.build.numThreads);
    EXPECT_EQ(a.meta.build.inputSeed, b.meta.build.inputSeed);
    EXPECT_EQ(a.meta.build.scale, b.meta.build.scale);
    EXPECT_EQ(a.meta.machine.seed, b.meta.machine.seed);
    EXPECT_EQ(a.meta.pebs.sav, b.meta.pebs.sav);
    EXPECT_EQ(a.meta.stats.cycles, b.meta.stats.cycles);
    EXPECT_EQ(a.meta.stats.hitmLoads, b.meta.stats.hitmLoads);
    EXPECT_EQ(a.meta.stats.threadCycles, b.meta.stats.threadCycles);
    EXPECT_EQ(a.meta.stats.threadInstructions,
              b.meta.stats.threadInstructions);
    EXPECT_EQ(a.meta.runtimeCycles, b.meta.runtimeCycles);
    EXPECT_EQ(a.meta.mapsText, b.meta.mapsText);
    EXPECT_EQ(configHash(a.meta), configHash(b.meta));
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].pc, b.records[i].pc) << i;
        EXPECT_EQ(a.records[i].dataAddr, b.records[i].dataAddr) << i;
        EXPECT_EQ(a.records[i].core, b.records[i].core) << i;
        EXPECT_EQ(a.records[i].cycle, b.records[i].cycle) << i;
    }
}

TEST(TraceFormat, RoundTripByteExact)
{
    const Trace original = syntheticTrace();
    const std::vector<std::uint8_t> bytes = encode(original);

    TraceReader reader;
    ASSERT_EQ(reader.parse(bytes), TraceStatus::Ok) << reader.error();
    expectTracesEqual(original, reader.trace());

    // Re-encoding the parsed trace reproduces the identical file image.
    EXPECT_EQ(encode(reader.trace()), bytes);
}

TEST(TraceFormat, CapturedRunRoundTripsThroughFile)
{
    const auto *kmeans = workloads::findWorkload("kmeans");
    ASSERT_NE(kmeans, nullptr);
    const Trace captured = captureTrace(*kmeans);
    EXPECT_FALSE(captured.records.empty());
    EXPECT_GT(captured.meta.runtimeCycles, 0u);
    EXPECT_FALSE(captured.meta.mapsText.empty());

    const std::string path =
        (fs::temp_directory_path() / "laser_test_roundtrip.ltrace")
            .string();
    ASSERT_EQ(writeTraceFile(captured, path), TraceStatus::Ok);

    TraceReader reader;
    ASSERT_EQ(reader.readFile(path), TraceStatus::Ok) << reader.error();
    expectTracesEqual(captured, reader.trace());
    EXPECT_EQ(encode(reader.trace()), encode(captured));
    std::remove(path.c_str());
}

TEST(TraceFormat, RejectsBadMagic)
{
    std::vector<std::uint8_t> bytes = encode(syntheticTrace());
    bytes[0] = 'X';
    TraceReader reader;
    EXPECT_EQ(reader.parse(bytes), TraceStatus::BadMagic);
    EXPECT_FALSE(reader.error().empty());
}

TEST(TraceFormat, RejectsVersionMismatch)
{
    std::vector<std::uint8_t> bytes = encode(syntheticTrace());
    bytes[4] = static_cast<std::uint8_t>(kTraceVersion + 1);
    TraceReader reader;
    EXPECT_EQ(reader.parse(bytes), TraceStatus::BadVersion);
}

TEST(TraceFormat, RejectsForeignEndianness)
{
    std::vector<std::uint8_t> bytes = encode(syntheticTrace());
    std::swap(bytes[8], bytes[11]); // byte-swapped endianness marker
    TraceReader reader;
    EXPECT_EQ(reader.parse(bytes), TraceStatus::BadEndianness);
}

TEST(TraceFormat, RejectsEveryTruncation)
{
    const std::vector<std::uint8_t> bytes = encode(syntheticTrace());
    TraceReader reader;
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const TraceStatus status = reader.parse(bytes.data(), cut);
        EXPECT_EQ(status, TraceStatus::Truncated)
            << "prefix of " << cut << " bytes parsed as "
            << traceStatusName(status);
    }
}

TEST(TraceFormat, RejectsPayloadCorruption)
{
    const std::vector<std::uint8_t> pristine = encode(syntheticTrace());
    // Flip one bit in every payload byte in turn: the checksum (or, for
    // the header's stored hash, the hash crosscheck) must catch each.
    TraceReader reader;
    for (std::size_t i = 28; i + 8 < pristine.size(); i += 7) {
        std::vector<std::uint8_t> bytes = pristine;
        bytes[i] ^= 0x40;
        EXPECT_EQ(reader.parse(bytes), TraceStatus::Corrupt)
            << "flipped payload byte " << i;
    }
    // Corrupting the trailer checksum itself is also detected.
    std::vector<std::uint8_t> bytes = pristine;
    bytes.back() ^= 0x01;
    EXPECT_EQ(reader.parse(bytes), TraceStatus::Corrupt);
    // As is corrupting the stored config hash in the header.
    bytes = pristine;
    bytes[12] ^= 0x01;
    EXPECT_EQ(reader.parse(bytes), TraceStatus::Corrupt);
}

TEST(TraceFormat, RejectsNonMonotonicCycles)
{
    // Sharding splits streams into contiguous time windows, so the
    // canonical stream must be non-decreasing in cycle; a decreasing
    // step is a typed error, not a silently accepted stream.
    Trace t = syntheticTrace();
    t.records[2].cycle = t.records[1].cycle - 1;
    TraceReader reader;
    EXPECT_EQ(reader.parse(encode(t)), TraceStatus::NonMonotonic);
    EXPECT_NE(reader.error().find("precedes"), std::string::npos);

    // The writer refuses to persist such a stream in the first place
    // (finalize() still encodes it, so the reader path above is
    // testable).
    TraceWriter writer(t.meta);
    writer.appendAll(t.records);
    EXPECT_FALSE(writer.monotonic());
    EXPECT_EQ(writer.writeFile(
                  (fs::temp_directory_path() / "laser_nonmono.ltrace")
                      .string()),
              TraceStatus::NonMonotonic);

    // Equal adjacent cycles (records[0] and records[1]) stay accepted.
    EXPECT_EQ(reader.parse(encode(syntheticTrace())), TraceStatus::Ok);

    // A decrease inside one block whose first and last cycles still
    // bracket it ([10, 5, 20]): the index looks ordered, so the seekable
    // file opens, but its block decode must reject the stream rather
    // than serve records out of order (or drop them from a window).
    Trace inner = syntheticTrace();
    inner.records[0].cycle = 10;
    inner.records[1].cycle = 5;
    inner.records[2].cycle = 20;
    const std::vector<std::uint8_t> image = encode(inner);
    EXPECT_EQ(reader.parse(image), TraceStatus::NonMonotonic);
    EXPECT_NE(reader.error().find("precedes"), std::string::npos);

    TraceFile file;
    ASSERT_EQ(file.openBytes(image), TraceStatus::Ok) << file.error();
    for (const auto &cur :
         {file.cursor(), file.cursorForCycles(6, 100)}) {
        pebs::PebsRecord rec;
        std::size_t yielded = 0;
        while (cur->next(&rec))
            ++yielded;
        EXPECT_EQ(cur->status(), TraceStatus::NonMonotonic);
        EXPECT_EQ(yielded, 0u);
    }
}

TEST(TraceFormat, RejectsTrailingGarbage)
{
    std::vector<std::uint8_t> bytes = encode(syntheticTrace());
    bytes.push_back(0xAA);
    TraceReader reader;
    EXPECT_EQ(reader.parse(bytes), TraceStatus::Corrupt);
}

TEST(TraceFormat, ReportsIoErrorForMissingFile)
{
    TraceReader reader;
    EXPECT_EQ(reader.readFile("/nonexistent/laser.ltrace"),
              TraceStatus::IoError);
}

TEST(TraceFormat, ConfigHashDependsOnConfigOnly)
{
    Trace a = syntheticTrace();
    Trace b = syntheticTrace();
    b.meta.stats.cycles += 1;     // results do not affect the key
    b.meta.runtimeCycles += 1;
    EXPECT_EQ(configHash(a.meta), configHash(b.meta));
    b.meta.pebs.sav = 7;          // config does
    EXPECT_NE(configHash(a.meta), configHash(b.meta));
    Trace c = syntheticTrace();
    c.meta.machine.seed ^= 1;
    EXPECT_NE(configHash(a.meta), configHash(c.meta));
}

TEST(TraceFormat, RoundTripsProtocolAndGeometry)
{
    // Config tail: coherence protocol, cache geometry and the
    // Dragon-specific costs survive a write/parse cycle.
    Trace t = syntheticTrace();
    t.meta.machine.protocol = sim::ProtocolKind::Dragon;
    t.meta.machine.geometry.lineBytes = 128;
    t.meta.machine.geometry.sets = 64;
    t.meta.machine.geometry.associativity = 8;
    t.meta.machine.timing.dragonHitm = 123;
    t.meta.machine.timing.dragonUpdate = 45;

    TraceReader reader;
    ASSERT_EQ(reader.parse(encode(t)), TraceStatus::Ok) << reader.error();
    const sim::MachineConfig &mc = reader.trace().meta.machine;
    EXPECT_EQ(mc.protocol, sim::ProtocolKind::Dragon);
    EXPECT_EQ(mc.geometry.lineBytes, 128u);
    EXPECT_EQ(mc.geometry.sets, 64u);
    EXPECT_EQ(mc.geometry.associativity, 8u);
    EXPECT_EQ(mc.timing.dragonHitm, 123u);
    EXPECT_EQ(mc.timing.dragonUpdate, 45u);
}

TEST(TraceFormat, ConfigHashSeparatesProtocolsAndGeometries)
{
    // Different coherence fabrics and line sizes must never collide in
    // the trace cache: each axis has to move the config hash.
    const Trace base = syntheticTrace();
    Trace dragon = syntheticTrace();
    dragon.meta.machine.protocol = sim::ProtocolKind::Dragon;
    EXPECT_NE(configHash(base.meta), configHash(dragon.meta));

    Trace narrow = syntheticTrace();
    narrow.meta.machine.geometry.lineBytes = 32;
    EXPECT_NE(configHash(base.meta), configHash(narrow.meta));
    EXPECT_NE(configHash(dragon.meta), configHash(narrow.meta));

    Trace bounded = syntheticTrace();
    bounded.meta.machine.geometry.sets = 64;
    bounded.meta.machine.geometry.associativity = 8;
    EXPECT_NE(configHash(base.meta), configHash(bounded.meta));

    Trace costs = syntheticTrace();
    costs.meta.machine.timing.dragonUpdate += 1;
    EXPECT_NE(configHash(base.meta), configHash(costs.meta));
}

TEST(TraceFormat, RejectsUnknownProtocol)
{
    // A protocol byte beyond the known enum range is a semantic error,
    // caught after the checksum passes (the writer encodes it happily).
    Trace t = syntheticTrace();
    t.meta.machine.protocol = static_cast<sim::ProtocolKind>(9);
    TraceReader reader;
    EXPECT_EQ(reader.parse(encode(t)), TraceStatus::Corrupt);
    EXPECT_NE(reader.error().find("invalid coherence protocol"),
              std::string::npos)
        << reader.error();
}

TEST(TraceFormat, RejectsInvalidLineSize)
{
    Trace t = syntheticTrace();
    t.meta.machine.geometry.lineBytes = 48; // not a power of two
    TraceReader reader;
    EXPECT_EQ(reader.parse(encode(t)), TraceStatus::Corrupt);
    EXPECT_NE(reader.error().find("invalid cache line size"),
              std::string::npos)
        << reader.error();
}

// ---------------------------------------------------------------------
// Replay fidelity: record -> replay reproduces the in-process pipeline.
// ---------------------------------------------------------------------

TEST(TraceReplay, MatchesInProcessPipeline)
{
    core::ExperimentRunner runner;
    for (const char *name :
         {"kmeans", "linear_regression", "histogram'"}) {
        const auto *w = workloads::findWorkload(name);
        ASSERT_NE(w, nullptr) << name;
        const core::RunResult live =
            runner.run(*w, core::Scheme::LaserDetectOnly);

        // Capture with the harness defaults, push through the on-disk
        // format, and replay at the default detector configuration.
        const Trace captured = captureTrace(*w);
        TraceReader reader;
        ASSERT_EQ(reader.parse(encode(captured)), TraceStatus::Ok);
        const Trace loaded = reader.takeTrace();
        TraceReplayer replayer(loaded);
        ASSERT_TRUE(replayer.ok()) << replayer.error();
        const detect::DetectionReport replayed =
            replayer.replayAtThreshold(1000.0);

        const detect::DetectionReport &expected = live.detection;
        EXPECT_EQ(replayed.totalRecords, expected.totalRecords) << name;
        EXPECT_EQ(replayed.droppedPcFilter, expected.droppedPcFilter)
            << name;
        EXPECT_EQ(replayed.droppedStackData, expected.droppedStackData)
            << name;
        EXPECT_EQ(replayed.repairRequested, expected.repairRequested)
            << name;
        ASSERT_EQ(replayed.lines.size(), expected.lines.size()) << name;
        for (std::size_t i = 0; i < expected.lines.size(); ++i) {
            EXPECT_EQ(replayed.lines[i].location,
                      expected.lines[i].location)
                << name << " line " << i;
            EXPECT_EQ(replayed.lines[i].type, expected.lines[i].type)
                << name << " line " << i;
            EXPECT_EQ(replayed.lines[i].records,
                      expected.lines[i].records)
                << name << " line " << i;
            EXPECT_DOUBLE_EQ(replayed.lines[i].hitmRate,
                             expected.lines[i].hitmRate)
                << name << " line " << i;
            EXPECT_EQ(replayed.lines[i].tsEvents,
                      expected.lines[i].tsEvents)
                << name << " line " << i;
            EXPECT_EQ(replayed.lines[i].fsEvents,
                      expected.lines[i].fsEvents)
                << name << " line " << i;
        }
    }
}

TEST(TraceReplay, UnknownWorkloadFailsCleanly)
{
    Trace t = syntheticTrace();
    t.meta.workload = "no_such_workload";
    TraceReplayer replayer(t);
    EXPECT_FALSE(replayer.ok());
    EXPECT_NE(replayer.error().find("no_such_workload"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Sweep runner cache behaviour
// ---------------------------------------------------------------------

std::vector<const workloads::WorkloadDef *>
sweepDefs()
{
    return {workloads::findWorkload("kmeans"),
            workloads::findWorkload("linear_regression")};
}

TEST(SweepRunner, SecondSweepPerformsZeroMachineRuns)
{
    core::SweepRunner runner;
    const std::vector<double> thresholds = {500, 1000, 4000};

    const core::ThresholdSweepResult first =
        core::thresholdSweep(runner, sweepDefs(), thresholds);
    EXPECT_EQ(first.machineRuns, 2u);

    const core::ThresholdSweepResult second =
        core::thresholdSweep(runner, sweepDefs(), thresholds);
    EXPECT_EQ(second.machineRuns, 0u);
    EXPECT_GE(runner.stats().memoryCacheHits, 2u);

    ASSERT_EQ(first.rows.size(), second.rows.size());
    for (std::size_t i = 0; i < first.rows.size(); ++i) {
        EXPECT_EQ(first.rows[i].falseNegatives,
                  second.rows[i].falseNegatives);
        EXPECT_EQ(first.rows[i].falsePositives,
                  second.rows[i].falsePositives);
    }
}

TEST(SweepRunner, DiskCachePersistsAcrossRunners)
{
    const fs::path dir =
        fs::temp_directory_path() / "laser_sweep_cache_test";
    fs::remove_all(dir);
    const auto *kmeans = workloads::findWorkload("kmeans");
    CaptureOptions opt;

    {
        core::SweepRunner::Config cfg;
        cfg.cacheDir = dir.string();
        core::SweepRunner first(cfg);
        first.capture(*kmeans, opt);
        EXPECT_EQ(first.stats().machineRuns, 1u);
    }

    core::SweepRunner::Config cfg;
    cfg.cacheDir = dir.string();
    core::SweepRunner second(cfg);
    const auto trace = second.capture(*kmeans, opt);
    EXPECT_EQ(second.stats().machineRuns, 0u);
    EXPECT_EQ(second.stats().diskCacheHits, 1u);
    EXPECT_EQ(trace->meta.workload, "kmeans");
    EXPECT_FALSE(trace->records.empty());
    fs::remove_all(dir);
}

TEST(SweepRunner, ConcurrentRunnersShareOneDiskCache)
{
    const fs::path dir =
        fs::temp_directory_path() / "laser_sweep_concurrent_test";
    fs::remove_all(dir);
    const std::vector<const workloads::WorkloadDef *> defs = {
        workloads::findWorkload("kmeans"),
        workloads::findWorkload("linear_regression"),
        workloads::findWorkload("histogram'"),
    };
    const CaptureOptions opt;

    // Two independent runners race over one cache directory; atomic
    // temp-file + rename writes mean neither can observe a torn file.
    core::SweepRunner::Config cfg;
    cfg.cacheDir = dir.string();
    cfg.numWorkers = 2;
    core::SweepRunner a(cfg), b(cfg);
    std::vector<std::shared_ptr<const trace::Trace>> got_a(defs.size());
    std::vector<std::shared_ptr<const trace::Trace>> got_b(defs.size());
    std::thread ta([&] {
        for (std::size_t i = 0; i < defs.size(); ++i)
            got_a[i] = a.capture(*defs[i], opt);
    });
    std::thread tb([&] {
        for (std::size_t i = defs.size(); i-- > 0;)
            got_b[i] = b.capture(*defs[i], opt);
    });
    ta.join();
    tb.join();

    // Correct hit accounting: each runner resolved every key exactly
    // once, by simulating or by a disk hit (never a torn read).
    const core::SweepStats sa = a.stats(), sb = b.stats();
    EXPECT_EQ(sa.machineRuns + sa.diskCacheHits, defs.size());
    EXPECT_EQ(sb.machineRuns + sb.diskCacheHits, defs.size());
    EXPECT_EQ(sa.memoryCacheHits, 0u);
    EXPECT_EQ(sb.memoryCacheHits, 0u);

    for (std::size_t i = 0; i < defs.size(); ++i) {
        ASSERT_NE(got_a[i], nullptr);
        ASSERT_NE(got_b[i], nullptr);
        EXPECT_EQ(got_a[i]->meta.workload, defs[i]->info.name);
        EXPECT_EQ(got_b[i]->meta.workload, defs[i]->info.name);
        EXPECT_EQ(got_a[i]->records.size(), got_b[i]->records.size());
    }

    // Every cache file parses cleanly, and a third runner is served
    // entirely from disk.
    for (const trace::CacheEntry &entry :
         trace::listTraceCache(dir.string()))
        EXPECT_EQ(entry.status, TraceStatus::Ok) << entry.path;
    core::SweepRunner c(cfg);
    for (const auto *def : defs) {
        TraceReader reader;
        ASSERT_EQ(reader.readFile(c.cachePath(configHash(
                      makeCaptureMeta(*def, opt)))),
                  TraceStatus::Ok);
        c.capture(*def, opt);
    }
    EXPECT_EQ(c.stats().machineRuns, 0u);
    EXPECT_EQ(c.stats().diskCacheHits, defs.size());
    fs::remove_all(dir);
}

TEST(SweepRunner, UnwritableCacheDirSurfacesWriteFailures)
{
    // A cacheDir whose parent is a regular file can never be created —
    // the reliable way to force write failures when tests run as root
    // (chmod 000 is a no-op for root). The capture itself must still
    // succeed; the failure lands in trace.cache.write_failures, the
    // counter laser_trace's cache-hit summary surfaces with a warning.
    obs::setEnabled(true);
    const fs::path file =
        fs::temp_directory_path() / "laser_cache_notdir";
    fs::remove_all(file);
    std::ofstream(file) << "regular file, not a directory\n";

    obs::Counter &failures = obs::Registry::global().counter(
        "trace.cache.write_failures");
    const std::uint64_t before = failures.value();

    core::SweepRunner::Config cfg;
    cfg.cacheDir = (file / "sub").string();
    core::SweepRunner runner(cfg);
    const auto *kmeans = workloads::findWorkload("kmeans");
    const auto trace = runner.capture(*kmeans, CaptureOptions{});
    ASSERT_NE(trace, nullptr);
    EXPECT_FALSE(trace->records.empty());
    EXPECT_EQ(runner.stats().machineRuns, 1u);
    EXPECT_EQ(failures.value(), before + 1);

    // The file view of the same key is served from the slot capture()
    // filled: no second simulation, so no second write attempt.
    const auto tf = runner.captureFile(*kmeans, CaptureOptions{});
    ASSERT_NE(tf, nullptr);
    EXPECT_EQ(tf->recordCount(), trace->records.size());
    EXPECT_EQ(runner.stats().machineRuns, 1u);
    EXPECT_EQ(runner.stats().memoryCacheHits, 1u);
    EXPECT_EQ(failures.value(), before + 1);
    fs::remove_all(file);
}

void
expectRecordsEqual(const std::vector<pebs::PebsRecord> &a,
                   const std::vector<pebs::PebsRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc) << i;
        EXPECT_EQ(a[i].dataAddr, b[i].dataAddr) << i;
        EXPECT_EQ(a[i].core, b[i].core) << i;
        EXPECT_EQ(a[i].cycle, b[i].cycle) << i;
    }
}

TEST(SweepRunner, CaptureAndCaptureFileShareOneSlot)
{
    const auto *kmeans = workloads::findWorkload("kmeans");
    const CaptureOptions opt;
    const Trace direct = captureTrace(*kmeans, opt);

    // File view first, then the decoded view.
    {
        core::SweepRunner runner;
        const auto tf = runner.captureFile(*kmeans, opt);
        const auto trace = runner.capture(*kmeans, opt);
        EXPECT_EQ(runner.stats().machineRuns, 1u);
        EXPECT_EQ(runner.stats().memoryCacheHits, 1u);
        EXPECT_EQ(tf->recordCount(), direct.records.size());
        expectRecordsEqual(trace->records, direct.records);
    }
    // Decoded view first, then the file view.
    {
        core::SweepRunner runner;
        const auto trace = runner.capture(*kmeans, opt);
        const auto tf = runner.captureFile(*kmeans, opt);
        EXPECT_EQ(runner.stats().machineRuns, 1u);
        EXPECT_EQ(runner.stats().memoryCacheHits, 1u);
        expectRecordsEqual(trace->records, direct.records);
        Trace decoded;
        ASSERT_EQ(tf->readAll(&decoded), TraceStatus::Ok);
        expectRecordsEqual(decoded.records, direct.records);
    }
}

TEST(SweepRunner, CorruptRecordBlockInCacheFileThrows)
{
    const fs::path dir =
        fs::temp_directory_path() / "laser_sweep_block_corrupt_test";
    fs::remove_all(dir);
    const auto *kmeans = workloads::findWorkload("kmeans");
    const CaptureOptions opt;
    core::SweepRunner::Config cfg;
    cfg.cacheDir = dir.string();
    std::string path;
    {
        core::SweepRunner warm(cfg);
        warm.capture(*kmeans, opt);
        path = warm.cachePath(configHash(makeCaptureMeta(*kmeans, opt)));
    }

    // Flip one byte inside the first record block: the header, meta and
    // index (and their checksums) stay intact, so open() still succeeds.
    std::uint64_t offset = 0;
    {
        TraceFile probe;
        ASSERT_EQ(probe.open(path), TraceStatus::Ok);
        ASSERT_FALSE(probe.index().blocks.empty());
        const columnar::BlockInfo &block = probe.index().blocks[0];
        offset = kTraceHeaderSize + probe.index().blobOffset +
                 block.blobOffset + block.blobBytes() / 2;
    }
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekg(std::streamoff(offset));
        const char byte = static_cast<char>(f.get() ^ 0x40);
        f.seekp(std::streamoff(offset));
        f.put(byte);
    }

    // A fresh runner opens the file as a disk hit, and decoding it for
    // capture() fails loudly instead of serving corrupt records.
    core::SweepRunner runner(cfg);
    try {
        runner.capture(*kmeans, opt);
        ADD_FAILURE() << "capture() served a corrupt record block";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("corrupt"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(runner.stats().machineRuns, 0u);
    EXPECT_EQ(runner.stats().diskCacheHits, 1u);
    fs::remove_all(dir);
}

TEST(TraceCache, ListsOldestFirstWithHeaderStatus)
{
    const fs::path dir = fs::temp_directory_path() / "laser_cache_ls_test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // Three valid traces with controlled mtimes + one junk file.
    using clock = fs::file_time_type::clock;
    const auto now = clock::now();
    for (int i = 0; i < 3; ++i) {
        Trace t = syntheticTrace();
        t.meta.pebs.sav = 7 + i; // distinct config hashes
        const std::string path =
            (dir / ("t" + std::to_string(i) + kTraceExtension)).string();
        ASSERT_EQ(writeTraceFile(t, path), TraceStatus::Ok);
        fs::last_write_time(path, now - std::chrono::seconds(100 - i));
    }
    {
        std::ofstream junk(dir / ("bad" + std::string(kTraceExtension)),
                           std::ios::binary);
        junk << "not a trace";
    }
    std::ofstream(dir / "README.txt") << "ignored";

    const std::vector<CacheEntry> entries =
        listTraceCache(dir.string());
    ASSERT_EQ(entries.size(), 4u); // junk .ltrace listed, README not
    // Oldest first: t0, t1, t2, then the just-written junk file.
    EXPECT_NE(entries[0].path.find("t0"), std::string::npos);
    EXPECT_NE(entries[1].path.find("t1"), std::string::npos);
    EXPECT_NE(entries[2].path.find("t2"), std::string::npos);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(entries[i].status, TraceStatus::Ok);
        Trace t = syntheticTrace();
        t.meta.pebs.sav = 7 + i;
        EXPECT_EQ(entries[i].configHash, configHash(t.meta));
    }
    EXPECT_EQ(entries[3].status, TraceStatus::Truncated);
    fs::remove_all(dir);
}

TEST(TraceCache, GcEvictsLeastRecentlyUsedUntilBudgetHolds)
{
    const fs::path dir = fs::temp_directory_path() / "laser_cache_gc_test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    using clock = fs::file_time_type::clock;
    const auto now = clock::now();
    std::vector<std::string> paths;
    std::uint64_t total = 0;
    for (int i = 0; i < 4; ++i) {
        Trace t = syntheticTrace();
        t.meta.pebs.sav = 20 + i;
        const std::string path =
            (dir / ("g" + std::to_string(i) + kTraceExtension)).string();
        ASSERT_EQ(writeTraceFile(t, path), TraceStatus::Ok);
        fs::last_write_time(path, now - std::chrono::seconds(1000 - i));
        paths.push_back(path);
        total += fs::file_size(path);
    }

    // A budget covering everything evicts nothing.
    CacheGcResult gc = gcTraceCache(dir.string(), total);
    EXPECT_EQ(gc.scanned, 4u);
    EXPECT_EQ(gc.evicted, 0u);
    EXPECT_EQ(gc.bytesAfter, total);

    // Shrinking the budget to roughly half evicts the oldest files
    // first and leaves the directory within budget.
    gc = gcTraceCache(dir.string(), total / 2);
    EXPECT_GT(gc.evicted, 0u);
    EXPECT_LE(gc.bytesAfter, total / 2);
    EXPECT_FALSE(fs::exists(paths[0])); // oldest went first
    EXPECT_TRUE(fs::exists(paths[3]));  // newest survives

    // Budget zero empties the cache.
    gc = gcTraceCache(dir.string(), 0);
    EXPECT_EQ(gc.bytesAfter, 0u);
    EXPECT_TRUE(listTraceCache(dir.string()).empty());
    fs::remove_all(dir);
}

TEST(TraceCache, DiskHitRefreshesMtimeForLru)
{
    const fs::path dir =
        fs::temp_directory_path() / "laser_cache_touch_test";
    fs::remove_all(dir);
    const auto *kmeans = workloads::findWorkload("kmeans");
    const CaptureOptions opt;

    core::SweepRunner::Config cfg;
    cfg.cacheDir = dir.string();
    {
        core::SweepRunner warm(cfg);
        warm.capture(*kmeans, opt);
    }
    const std::string path =
        core::SweepRunner(cfg).cachePath(
            configHash(makeCaptureMeta(*kmeans, opt)));
    // Age the file far into the past, then hit it from a fresh runner:
    // the hit must refresh mtime so LRU eviction sees it as recent.
    const auto past = fs::file_time_type::clock::now() -
                      std::chrono::hours(24);
    fs::last_write_time(path, past);
    core::SweepRunner second(cfg);
    second.capture(*kmeans, opt);
    EXPECT_EQ(second.stats().diskCacheHits, 1u);
    EXPECT_GT(fs::last_write_time(path),
              past + std::chrono::hours(1));
    fs::remove_all(dir);
}

TEST(SweepRunner, CorruptCacheFileIsResimulatedAndRepaired)
{
    const fs::path dir =
        fs::temp_directory_path() / "laser_sweep_corrupt_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto *kmeans = workloads::findWorkload("kmeans");
    const CaptureOptions opt;
    const std::uint64_t key = configHash(makeCaptureMeta(*kmeans, opt));

    core::SweepRunner::Config cfg;
    cfg.cacheDir = dir.string();

    // Poisons: junk, and this very trace stamped with another format
    // version (a version mismatch is a cache miss, not an error).
    std::vector<std::uint8_t> wrong_version =
        encode(captureTrace(*kmeans, opt));
    wrong_version[4] = static_cast<std::uint8_t>(kTraceVersion - 1);
    const std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        poisons = {
            {"junk", {'n', 'o', 't', ' ', 'a', ' ', 't', 'r', 'a', 'c',
                      'e'}},
            {"wrong version", wrong_version},
        };
    for (const auto &[name, bytes] : poisons) {
        core::SweepRunner runner(cfg);
        {
            std::ofstream poison(runner.cachePath(key), std::ios::binary);
            poison.write(reinterpret_cast<const char *>(bytes.data()),
                         std::streamsize(bytes.size()));
        }
        runner.capture(*kmeans, opt);
        EXPECT_EQ(runner.stats().machineRuns, 1u) << name;
        EXPECT_EQ(runner.stats().diskCacheHits, 0u) << name;

        // The poisoned file was overwritten with a valid trace.
        TraceReader reader;
        EXPECT_EQ(reader.readFile(runner.cachePath(key)), TraceStatus::Ok)
            << name;
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace laser::trace
