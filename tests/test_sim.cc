/**
 * @file
 * Unit and property tests for the simulator: MESI outcomes and invariants,
 * interpreter semantics, HITM generation, SSB behaviour and TSO
 * visibility, and machine determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "isa/assembler.h"
#include "sim/coherence.h"
#include "sim/machine.h"
#include "sim/ssb.h"
#include "util/rng.h"

namespace laser::sim {
namespace {

using isa::Asm;
using isa::LibFn;
using isa::Op;
using namespace laser::isa; // register names

// ---------------------------------------------------------------------
// CoherenceDirectory
// ---------------------------------------------------------------------

TEST(Coherence, FirstTouchIsMemMiss)
{
    CoherenceDirectory dir(4);
    EXPECT_EQ(dir.access(0, 0x1000, false, true), AccessOutcome::MemMiss);
    EXPECT_EQ(dir.access(1, 0x2000, true, false), AccessOutcome::MemMiss);
}

TEST(Coherence, RepeatAccessHits)
{
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, false, true);
    EXPECT_EQ(dir.access(0, 0x1000, false, true), AccessOutcome::L1Hit);
    // E -> M silently on local write.
    EXPECT_EQ(dir.access(0, 0x1000, true, false), AccessOutcome::L1Hit);
    EXPECT_EQ(dir.access(0, 0x1000, true, false), AccessOutcome::L1Hit);
}

TEST(Coherence, RemoteReadOfModifiedIsHitmLoad)
{
    // Figure 1a: remote write then local read.
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, true, false);
    EXPECT_EQ(dir.access(1, 0x1000, false, true), AccessOutcome::HitmLoad);
    // After the HITM both cores share the line.
    EXPECT_EQ(dir.access(0, 0x1000, false, true), AccessOutcome::L1Hit);
    EXPECT_EQ(dir.access(1, 0x1000, false, true), AccessOutcome::L1Hit);
}

TEST(Coherence, RemoteWriteOfModifiedIsHitmStore)
{
    // Figure 1c: remote write then local write (pure store).
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, true, false);
    EXPECT_EQ(dir.access(1, 0x1000, true, false), AccessOutcome::HitmStore);
}

TEST(Coherence, RmwOfRemoteModifiedIsHitmLoad)
{
    // An RMW contains a load uop, so its HITM is load-class and PEBS
    // reports it precisely (Section 3.1).
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, true, false);
    EXPECT_EQ(dir.access(1, 0x1000, true, true), AccessOutcome::HitmLoad);
}

TEST(Coherence, ReadSharedThenWriteIsUpgrade)
{
    // Figure 1b: remote read then local write.
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, false, true);
    dir.access(1, 0x1000, false, true);
    EXPECT_EQ(dir.access(0, 0x1000, true, false), AccessOutcome::Upgrade);
    // The other core lost its copy; its next read is a HITM.
    EXPECT_EQ(dir.access(1, 0x1000, false, true), AccessOutcome::HitmLoad);
}

TEST(Coherence, WriteToRemoteCleanIsRfoNotHitm)
{
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, false, true); // E in core 0
    EXPECT_EQ(dir.access(1, 0x1000, true, false), AccessOutcome::RfoShared);
}

TEST(Coherence, ReadReadSharingNeverHitms)
{
    CoherenceDirectory dir(4);
    for (int c = 0; c < 4; ++c) {
        const auto out = dir.access(c, 0x4000, false, true);
        EXPECT_NE(out, AccessOutcome::HitmLoad);
        EXPECT_NE(out, AccessOutcome::HitmStore);
    }
}

TEST(Coherence, DistinctLinesAreIndependent)
{
    CoherenceDirectory dir(4);
    dir.access(0, 0x1000, true, false);
    EXPECT_EQ(dir.access(1, 0x1040, true, false), AccessOutcome::MemMiss);
    EXPECT_EQ(dir.lineOf(0x1000), dir.lineOf(0x103f));
    EXPECT_NE(dir.lineOf(0x1000), dir.lineOf(0x1040));
}

/** Property: MESI invariants hold under random access streams. */
class CoherenceProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CoherenceProperty, InvariantsUnderRandomTraffic)
{
    laser::Rng rng(GetParam());
    CoherenceDirectory dir(4);
    for (int i = 0; i < 20000; ++i) {
        const int core = static_cast<int>(rng.below(4));
        const std::uint64_t addr = 0x1000 + rng.below(32) * 8;
        const bool is_write = rng.chance(0.4);
        const bool load_class = !is_write || rng.chance(0.5);
        dir.access(core, addr, is_write, load_class);
        if (i % 512 == 0)
            ASSERT_TRUE(dir.checkInvariants()) << "iteration " << i;
    }
    EXPECT_TRUE(dir.checkInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------
// SoftwareStoreBuffer
// ---------------------------------------------------------------------

TEST(Ssb, PutThenGetFull)
{
    SoftwareStoreBuffer ssb;
    ssb.put(0x1000, 8, 0xdeadbeefcafef00dULL, 1);
    std::uint64_t v = 0;
    ASSERT_TRUE(ssb.getFull(0x1000, 8, &v));
    EXPECT_EQ(v, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(ssb.entryCount(), 1u);
}

TEST(Ssb, PartialOverlapIsNotFull)
{
    SoftwareStoreBuffer ssb;
    ssb.put(0x1000, 4, 0xaabbccdd, 1);
    std::uint64_t v = 0;
    EXPECT_FALSE(ssb.getFull(0x1000, 8, &v));
    EXPECT_TRUE(ssb.containsAny(0x1000, 8));
    EXPECT_TRUE(ssb.getFull(0x1000, 4, &v));
    EXPECT_EQ(v, 0xaabbccddu);
}

TEST(Ssb, MergeOverlaysBufferedBytes)
{
    SoftwareStoreBuffer ssb;
    ssb.put(0x1002, 2, 0xbeef, 1);
    const std::uint64_t merged =
        ssb.merge(0x1000, 8, 0x1111111111111111ULL);
    EXPECT_EQ(merged, 0x11111111beef1111ULL);
}

TEST(Ssb, UnalignedStoreSpansChunks)
{
    SoftwareStoreBuffer ssb;
    ssb.put(0x1006, 4, 0xaabbccdd, 1); // crosses the 8-byte boundary
    EXPECT_EQ(ssb.entryCount(), 2u);
    std::uint64_t v = 0;
    ASSERT_TRUE(ssb.getFull(0x1006, 4, &v));
    EXPECT_EQ(v, 0xaabbccddu);
}

TEST(Ssb, CoalescingKeepsLastValue)
{
    SoftwareStoreBuffer ssb;
    for (std::uint64_t i = 0; i < 1000; ++i)
        ssb.put(0x1000, 8, i, i + 1);
    EXPECT_EQ(ssb.entryCount(), 1u); // space efficiency (Section 5.5)
    EXPECT_EQ(ssb.totalPuts(), 1000u);
    std::uint64_t v = 0;
    ASSERT_TRUE(ssb.getFull(0x1000, 8, &v));
    EXPECT_EQ(v, 999u);
    std::vector<SsbEntry> drained;
    ssb.drain(&drained);
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].minSeq, 1u);
    EXPECT_EQ(drained[0].maxSeq, 1000u);
    EXPECT_TRUE(ssb.empty());
}

TEST(Ssb, FifoKeepsOneEntryPerStore)
{
    SoftwareStoreBuffer ssb(SsbMode::Fifo);
    for (std::uint64_t i = 0; i < 100; ++i)
        ssb.put(0x1000, 8, i, i + 1);
    EXPECT_EQ(ssb.entryCount(), 100u);
    std::vector<SsbEntry> drained;
    ssb.drain(&drained);
    EXPECT_EQ(drained.size(), 100u);
    // Drained in program order.
    EXPECT_EQ(drained.front().minSeq, 1u);
    EXPECT_EQ(drained.back().minSeq, 100u);
    EXPECT_TRUE(ssb.empty());
}

TEST(Ssb, DrainAppliesLatestBytes)
{
    SoftwareStoreBuffer ssb;
    ssb.put(0x1000, 8, 0x1111111111111111ULL, 1);
    ssb.put(0x1004, 4, 0x22222222u, 2);
    std::vector<SsbEntry> drained;
    ssb.drain(&drained);
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].data, 0x2222222211111111ULL);
    EXPECT_EQ(drained[0].validMask, 0xff);
}

TEST(Ssb, ByteMaskWidensEachLane)
{
    EXPECT_EQ(byteMask(0x00), 0u);
    EXPECT_EQ(byteMask(0xff), ~0ULL);
    EXPECT_EQ(byteMask(0x81), 0xff000000000000ffULL);
    for (int lane = 0; lane < 8; ++lane) {
        EXPECT_EQ(byteMask(std::uint8_t(1u << lane)),
                  0xffULL << (8 * lane));
    }
}

/**
 * Reference model for the differential test: the byte-granular design,
 * one map slot per chunk and one map lookup per byte, with a fifo queue
 * of whole stores beside it in fifo mode.
 */
class ByteMapSsb
{
  public:
    explicit ByteMapSsb(SsbMode mode) : mode_(mode) {}

    void
    put(std::uint64_t addr, int size, std::uint64_t value,
        std::uint64_t seq)
    {
        for (int i = 0; i < size; ++i) {
            const std::uint64_t a = addr + i;
            Slot &s = slots_[a & ~7ULL];
            if (s.valid == 0) {
                s.minSeq = seq;
                s.maxSeq = seq;
            }
            s.minSeq = std::min(s.minSeq, seq);
            s.maxSeq = std::max(s.maxSeq, seq);
            s.valid |= std::uint8_t(1u << (a & 7));
            s.bytes[a & 7] = std::uint8_t(value >> (8 * i));
        }
        if (mode_ == SsbMode::Fifo)
            fifo_.push_back({addr, size, value, seq});
    }

    /** Byte @p a if buffered. */
    const std::uint8_t *
    byte(std::uint64_t a) const
    {
        const auto it = slots_.find(a & ~7ULL);
        if (it == slots_.end() || !(it->second.valid & (1u << (a & 7))))
            return nullptr;
        return &it->second.bytes[a & 7];
    }

    bool
    getFull(std::uint64_t addr, int size, std::uint64_t *value) const
    {
        std::uint64_t out = 0;
        for (int i = 0; i < size; ++i) {
            const std::uint8_t *b = byte(addr + i);
            if (!b)
                return false;
            out |= std::uint64_t(*b) << (8 * i);
        }
        *value = out;
        return true;
    }

    bool
    containsAny(std::uint64_t addr, int size) const
    {
        for (int i = 0; i < size; ++i) {
            if (byte(addr + i))
                return true;
        }
        return false;
    }

    std::uint64_t
    merge(std::uint64_t addr, int size, std::uint64_t mem_value) const
    {
        for (int i = 0; i < size; ++i) {
            if (const std::uint8_t *b = byte(addr + i)) {
                mem_value &= ~(0xffULL << (8 * i));
                mem_value |= std::uint64_t(*b) << (8 * i);
            }
        }
        return mem_value;
    }

    std::vector<SsbEntry>
    drain()
    {
        std::vector<SsbEntry> out;
        if (mode_ == SsbMode::Fifo) {
            // Each store split at the chunk boundary, in store order.
            for (const Store &st : fifo_) {
                for (int i = 0; i < st.size; ++i) {
                    const std::uint64_t a = st.addr + i;
                    if (i == 0 || (a & 7) == 0)
                        out.push_back({a & ~7ULL, 0, 0, st.seq, st.seq});
                    out.back().validMask |= std::uint8_t(1u << (a & 7));
                    out.back().data |= ((st.value >> (8 * i)) & 0xff)
                                       << (8 * (a & 7));
                }
            }
        } else {
            for (const auto &[chunk, s] : slots_) {
                SsbEntry e{chunk, 0, s.valid, s.minSeq, s.maxSeq};
                for (int lane = 0; lane < 8; ++lane) {
                    if (s.valid & (1u << lane))
                        e.data |= std::uint64_t(s.bytes[lane])
                                  << (8 * lane);
                }
                out.push_back(e);
            }
        }
        slots_.clear();
        fifo_.clear();
        return out;
    }

    std::size_t
    entryCount() const
    {
        return mode_ == SsbMode::Fifo ? fifo_.size() : slots_.size();
    }

  private:
    struct Slot
    {
        std::uint8_t valid = 0;
        std::uint8_t bytes[8] = {};
        std::uint64_t minSeq = 0;
        std::uint64_t maxSeq = 0;
    };
    struct Store
    {
        std::uint64_t addr;
        int size;
        std::uint64_t value;
        std::uint64_t seq;
    };

    SsbMode mode_;
    std::map<std::uint64_t, Slot> slots_;
    std::vector<Store> fifo_;
};

void
expectSameEntries(const std::vector<SsbEntry> &got,
                  const std::vector<SsbEntry> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].addr, want[i].addr) << "entry " << i;
        EXPECT_EQ(got[i].data, want[i].data) << "entry " << i;
        EXPECT_EQ(got[i].validMask, want[i].validMask) << "entry " << i;
        EXPECT_EQ(got[i].minSeq, want[i].minSeq) << "entry " << i;
        EXPECT_EQ(got[i].maxSeq, want[i].maxSeq) << "entry " << i;
    }
}

/**
 * Differential property: the word-granular buffer answers every
 * operation exactly as the byte-map model does, over seeded random
 * traffic on a few adjacent chunks (so stores overlap, partially cover
 * each other and cross chunk boundaries), in both modes.
 */
TEST(Ssb, MatchesByteMapModelUnderRandomTraffic)
{
    constexpr int kSizes[] = {1, 2, 4, 8};
    std::set<std::pair<int, int>> put_shapes; // (size, lane) covered
    for (const SsbMode mode : {SsbMode::Coalescing, SsbMode::Fifo}) {
        for (const std::uint64_t seed : {1, 2, 3, 5, 8, 13}) {
            SCOPED_TRACE(testing::Message()
                         << "mode " << int(mode) << " seed " << seed);
            std::mt19937_64 rng(seed);
            SoftwareStoreBuffer ssb(mode);
            ByteMapSsb ref(mode);
            std::vector<SsbEntry> drained;
            for (int op = 0; op < 4000; ++op) {
                // Four chunks from 0x1000: every lane of each, and
                // accesses off the last one spill into a fifth.
                const std::uint64_t addr = 0x1000 + rng() % 32;
                const int size = kSizes[rng() % 4];
                const std::uint64_t value = rng();
                const unsigned kind = rng() % 100;
                if (kind < 45) {
                    // Unordered sequence numbers, so the slots' min and
                    // max both move.
                    const std::uint64_t seq = rng() % 1000;
                    ssb.put(addr, size, value, seq);
                    ref.put(addr, size, value, seq);
                    put_shapes.insert({size, int(addr & 7)});
                } else if (kind < 65) {
                    std::uint64_t got = 0;
                    std::uint64_t want = 0;
                    const bool full = ref.getFull(addr, size, &want);
                    ASSERT_EQ(ssb.getFull(addr, size, &got), full)
                        << "op " << op;
                    if (full) {
                        ASSERT_EQ(got, want) << "op " << op;
                    }
                } else if (kind < 80) {
                    ASSERT_EQ(ssb.containsAny(addr, size),
                              ref.containsAny(addr, size))
                        << "op " << op;
                } else if (kind < 97) {
                    ASSERT_EQ(ssb.merge(addr, size, value),
                              ref.merge(addr, size, value))
                        << "op " << op;
                } else {
                    ssb.drain(&drained);
                    expectSameEntries(drained, ref.drain());
                }
                ASSERT_EQ(ssb.entryCount(), ref.entryCount())
                    << "op " << op;
            }
            ssb.drain(&drained);
            expectSameEntries(drained, ref.drain());
            EXPECT_TRUE(ssb.empty());
        }
    }
    EXPECT_EQ(put_shapes.size(), 32u); // all 4 sizes at all 8 lanes
}

// ---------------------------------------------------------------------
// Machine execution
// ---------------------------------------------------------------------

/** Build a single-thread program where only thread 0 does work. */
isa::Program
tidGate(const std::function<void(Asm &)> &body)
{
    Asm a("t");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    body(a);
    a.bind(done);
    a.halt();
    return a.finalize();
}

TEST(Machine, ArithmeticSemantics)
{
    isa::Program p = tidGate([](Asm &a) {
        a.movi(R2, 6);
        a.movi(R3, 7);
        a.mul(R4, R2, R3);   // 42
        a.addi(R4, R4, 100); // 142
        a.subi(R4, R4, 2);   // 140
        a.shli(R5, R4, 1);   // 280
        a.shri(R5, R5, 2);   // 70
        a.xorr(R6, R4, R4);  // 0
    });
    Machine m(p);
    m.run();
    EXPECT_EQ(m.reg(0, R4), 140);
    EXPECT_EQ(m.reg(0, R5), 70);
    EXPECT_EQ(m.reg(0, R6), 0);
}

TEST(Machine, RegisterZeroIsHardwired)
{
    isa::Program p = tidGate([](Asm &a) {
        a.movi(R0, 999);
        a.mov(R2, R0);
    });
    Machine m(p);
    m.run();
    EXPECT_EQ(m.reg(0, R2), 0);
}

TEST(Machine, LoadStoreRoundTrip)
{
    isa::Program p = tidGate([](Asm &a) {
        a.movi(R2, 0x1000100);
        a.movi(R3, 0x1234);
        a.store(R2, 0, R3, 8);
        a.load(R4, R2, 0, 8);
    });
    Machine m(p);
    m.run();
    EXPECT_EQ(m.reg(0, R4), 0x1234);
    EXPECT_EQ(m.memory().read(0x1000100, 8), 0x1234u);
}

TEST(Machine, LoopsTerminate)
{
    isa::Program p = tidGate([](Asm &a) {
        a.movi(R2, 100);
        a.movi(R3, 0);
        Asm::Label loop = a.here();
        a.addi(R3, R3, 2);
        a.subi(R2, R2, 1);
        a.bne(R2, R0, loop);
    });
    Machine m(p);
    MachineStats s = m.run();
    EXPECT_EQ(m.reg(0, R3), 200);
    EXPECT_FALSE(s.truncated);
    EXPECT_GT(s.cycles, 0u);
}

TEST(Machine, CasSucceedsAndFails)
{
    isa::Program p = tidGate([](Asm &a) {
        a.movi(R2, 0x1000200);
        // CAS expecting 0: succeeds, writes 5.
        a.movi(R4, 5);
        a.cas(R4, R2, 0, R0);
        a.mov(R5, R4); // old value (0)
        // CAS expecting 0 again: fails (memory holds 5).
        a.movi(R4, 9);
        a.cas(R4, R2, 0, R0);
        a.mov(R6, R4); // old value (5)
    });
    Machine m(p);
    m.run();
    EXPECT_EQ(m.reg(0, R5), 0);
    EXPECT_EQ(m.reg(0, R6), 5);
    EXPECT_EQ(m.memory().read(0x1000200, 8), 5u);
}

TEST(Machine, FetchAddAccumulates)
{
    isa::Program p = tidGate([](Asm &a) {
        a.movi(R2, 0x1000300);
        a.movi(R3, 10);
        a.fetchadd(R4, R2, 0, R3); // old 0
        a.fetchadd(R5, R2, 0, R3); // old 10
    });
    Machine m(p);
    m.run();
    EXPECT_EQ(m.reg(0, R4), 0);
    EXPECT_EQ(m.reg(0, R5), 10);
    EXPECT_EQ(m.memory().read(0x1000300, 8), 20u);
}

TEST(Machine, TidDistinguishesThreads)
{
    Asm a("t");
    a.tid(R1);
    a.movi(R2, 0x1000400);
    a.muli(R3, R1, 8);
    a.add(R2, R2, R3);
    a.movi(R4, 1);
    a.store(R2, 0, R4, 8);
    a.halt();
    Machine m(a.finalize());
    m.run();
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(m.memory().read(0x1000400 + 8 * t, 8), 1u);
}

TEST(Machine, CallAndRetThroughLibrary)
{
    Asm a("t");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R12, 0x1000500);
    a.callLib(LibFn::SpinLock);
    a.movi(R2, 77);
    a.callLib(LibFn::Unlock);
    a.bind(done);
    a.halt();
    Machine m(a.finalize());
    m.run();
    EXPECT_EQ(m.reg(0, R2), 77);
    // Lock released.
    EXPECT_EQ(m.memory().read(0x1000500, 8), 0u);
}

TEST(Machine, BarrierReleasesAllThreads)
{
    Asm a("t");
    // Barrier object at globals base: counter, generation, nthreads.
    const std::uint64_t bar = 0x600000;
    a.movi(R12, static_cast<std::int64_t>(bar));
    a.callLib(LibFn::BarrierWait);
    // After the barrier every thread bumps its own flag.
    a.tid(R1);
    a.movi(R2, 0x1000600);
    a.muli(R3, R1, 8);
    a.add(R2, R2, R3);
    a.movi(R4, 1);
    a.store(R2, 0, R4, 8);
    a.halt();
    isa::Program p = a.finalize();
    Machine m(p);
    m.memory().write(bar + 16, 8, 4); // nthreads
    MachineStats s = m.run();
    EXPECT_FALSE(s.truncated);
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(m.memory().read(0x1000600 + 8 * t, 8), 1u);
    EXPECT_EQ(s.syncOps, 4u); // one barrier arrival per thread
}

// ---------------------------------------------------------------------
// HITM generation
// ---------------------------------------------------------------------

/** Sink that counts HITM events and remembers their flavour. */
struct CountingSink : PmuSink
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t
    onHitm(const HitmEvent &ev) override
    {
        if (ev.isLoadUop)
            ++loads;
        else
            ++stores;
        return 0;
    }
};

/** Two threads ping-pong writes to the same line: write-write sharing. */
isa::Program
writeWriteSharing(int iters, std::int64_t addr0, std::int64_t addr1)
{
    Asm a("ww");
    Asm::Label t1 = a.newLabel();
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.movi(R9, 1);
    a.bne(R1, R0, t1);
    // Thread 0 writes addr0.
    a.movi(R2, addr0);
    a.movi(R3, iters);
    Asm::Label l0 = a.here();
    a.store(R2, 0, R3, 8);
    a.subi(R3, R3, 1);
    a.bne(R3, R0, l0);
    a.jmp(done);
    // Thread 1 writes addr1.
    a.bind(t1);
    a.bne(R1, R9, done); // threads 2..3 idle
    a.movi(R2, addr1);
    a.movi(R3, iters);
    Asm::Label l1 = a.here();
    a.store(R2, 0, R3, 8);
    a.subi(R3, R3, 1);
    a.bne(R3, R0, l1);
    a.bind(done);
    a.halt();
    return a.finalize();
}

TEST(Machine, FalseSharingGeneratesStoreHitms)
{
    // Two variables in one line: false sharing, pure stores.
    CountingSink sink;
    Machine m(writeWriteSharing(2000, 0x1000800, 0x1000808));
    m.setPmuSink(&sink);
    MachineStats s = m.run();
    EXPECT_GT(s.hitmStores, 500u);
    EXPECT_EQ(s.hitmLoads, sink.loads);
    EXPECT_EQ(s.hitmStores, sink.stores);
    EXPECT_GT(sink.stores, sink.loads);
}

TEST(Machine, PaddedVariablesGenerateNoHitms)
{
    // Same program, variables on distinct lines: padding fixed it.
    CountingSink sink;
    Machine m(writeWriteSharing(2000, 0x1000800, 0x1000880));
    m.setPmuSink(&sink);
    MachineStats s = m.run();
    EXPECT_EQ(s.hitmTotal(), 0u);
    EXPECT_EQ(sink.loads + sink.stores, 0u);
}

TEST(Machine, ContendedRunIsSlowerThanPadded)
{
    Machine contended(writeWriteSharing(5000, 0x1000800, 0x1000808));
    Machine padded(writeWriteSharing(5000, 0x1000800, 0x1000880));
    const auto slow = contended.run().cycles;
    const auto fast = padded.run().cycles;
    EXPECT_GT(slow, fast * 3 / 2); // contention costs real time
}

// ---------------------------------------------------------------------
// Scheduler edge cases
// ---------------------------------------------------------------------

TEST(Scheduler, TruncatedRunExecutesExactlyMaxInstructions)
{
    Asm a("spin");
    Asm::Label self = a.here();
    a.jmp(self);
    MachineConfig cfg;
    cfg.maxInstructions = 1000;
    Machine m(a.finalize(), cfg);
    const MachineStats s = m.run();
    EXPECT_TRUE(s.truncated);
    EXPECT_EQ(s.instructions, 1000u);
    std::uint64_t per_thread = 0;
    for (const std::uint64_t n : s.threadInstructions)
        per_thread += n;
    EXPECT_EQ(per_thread, 1000u);
}

TEST(Scheduler, ProgramEndingInHaltStopsEveryThread)
{
    // Only thread-local ops: each thread runs to its Halt, the last
    // instruction, and its pc ends one past the end of the code.
    Asm a("halt");
    a.movi(R2, 5);
    a.addi(R2, R2, 1);
    a.halt();
    Machine m(a.finalize());
    const MachineStats s = m.run();
    EXPECT_FALSE(s.truncated);
    EXPECT_EQ(s.instructions, 12u);
    for (int t = 0; t < 4; ++t) {
        EXPECT_EQ(s.threadInstructions[t], 3u);
        EXPECT_EQ(s.threadCycles[t], 3u * TimingModel{}.base);
        EXPECT_EQ(m.reg(t, R2), 6);
    }
}

/** Sink that records the core of every HITM event, in order. */
struct HitmCoreSink : PmuSink
{
    std::vector<int> cores;
    std::uint64_t
    onHitm(const HitmEvent &ev) override
    {
        cores.push_back(ev.core);
        return 0;
    }
};

TEST(Scheduler, EqualClocksRunLowerTidFirst)
{
    // Every thread stores to one line after the same thread-local
    // prefix, so all four stores start at the same clock. Lowest tid
    // first means thread 0 misses and threads 1, 2, 3 each take the
    // line from the previous writer in turn.
    Asm a("tie");
    a.tid(R1);
    a.movi(R2, 0x1000900);
    a.store(R2, 0, R1, 8);
    a.halt();
    HitmCoreSink sink;
    Machine m(a.finalize());
    m.setPmuSink(&sink);
    const MachineStats s = m.run();
    EXPECT_EQ(sink.cores, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.hitmStores, 3u);
    EXPECT_EQ(s.memMisses, 1u);
    EXPECT_EQ(m.memory().read(0x1000900, 8), 3u);
}

TEST(Machine, DeterministicAcrossRuns)
{
    auto once = [] {
        Machine m(writeWriteSharing(3000, 0x1000800, 0x1000808));
        return m.run();
    };
    const MachineStats a = once();
    const MachineStats b = once();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.hitmStores, b.hitmStores);
    EXPECT_EQ(a.hitmLoads, b.hitmLoads);
}

// ---------------------------------------------------------------------
// SSB execution in the machine
// ---------------------------------------------------------------------

/** Mark all memory ops in [first, last] as SSB users. */
void
markSsb(isa::Program &p, std::uint32_t first, std::uint32_t last)
{
    for (std::uint32_t i = first; i <= last; ++i) {
        if (isa::opAccessesMemory(p.code[i].op))
            p.code[i].useSsb = true;
    }
}

TEST(Machine, SsbStoreInvisibleUntilFlush)
{
    Asm a("ssb");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000900);
    a.movi(R3, 42);
    const std::uint32_t st = a.store(R2, 0, R3, 8);
    const std::uint32_t ld = a.load(R4, R2, 0, 8); // must see 42 via SSB
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();
    markSsb(p, st, ld);

    Machine m(p);
    MachineStats s = m.run();
    EXPECT_EQ(m.reg(0, R4), 42);           // store-to-load forwarding
    EXPECT_EQ(s.ssbStores, 1u);
    EXPECT_EQ(s.ssbLoadHits, 1u);
    // run() drains buffers at exit, so memory is final.
    EXPECT_EQ(m.memory().read(0x1000900, 8), 42u);
}

TEST(Machine, SsbFlushedAtFence)
{
    Asm a("ssb");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000900);
    a.movi(R3, 7);
    const std::uint32_t st = a.store(R2, 0, R3, 8);
    a.fence();
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();
    markSsb(p, st, st);

    Machine m(p);
    MachineStats s = m.run();
    EXPECT_EQ(s.ssbFlushes, 1u);
    EXPECT_EQ(m.memory().read(0x1000900, 8), 7u);
}

TEST(Machine, SsbPreemptiveFlushAtCapacity)
{
    Asm a("ssb");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000900);
    a.movi(R3, 1);
    // 20 stores to distinct chunks: must pre-emptively flush at 8.
    std::uint32_t first = 0, last = 0;
    for (int i = 0; i < 20; ++i) {
        const std::uint32_t idx = a.store(R2, i * 8, R3, 8);
        if (i == 0)
            first = idx;
        last = idx;
    }
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();
    markSsb(p, first, last);

    Machine m(p);
    MachineStats s = m.run();
    EXPECT_GE(s.ssbFlushes, 2u);
    EXPECT_LE(s.ssbMaxEntriesSeen, 9u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(m.memory().read(0x1000900 + 8 * i, 8), 1u);
}

TEST(Machine, SsbProgramMatchesPlainExecution)
{
    // Property: instrumenting a (single-threaded) region with the SSB
    // must not change architectural results (Section 5.2).
    auto build = [](bool instrument) {
        Asm a("prop");
        Asm::Label done = a.newLabel();
        a.tid(R1);
        a.bne(R1, R0, done);
        a.movi(R2, 0x1000a00);
        a.movi(R3, 50);
        a.movi(R5, 0);
        Asm::Label loop = a.here();
        const std::uint32_t first = a.store(R2, 0, R5, 8);
        a.addmem(R2, 8, R3, 8);
        a.load(R4, R2, 8, 8);
        const std::uint32_t last = a.load(R6, R2, 0, 8);
        a.add(R5, R5, R4);
        a.subi(R3, R3, 1);
        a.bne(R3, R0, loop);
        a.bind(done);
        a.halt();
        isa::Program p = a.finalize();
        if (instrument)
            markSsb(p, first, last);
        return p;
    };

    Machine plain(build(false));
    Machine ssb(build(true));
    plain.run();
    ssb.run();
    EXPECT_EQ(plain.reg(0, R5), ssb.reg(0, R5));
    EXPECT_EQ(plain.reg(0, R6), ssb.reg(0, R6));
    EXPECT_EQ(plain.memory().read(0x1000a00, 8),
              ssb.memory().read(0x1000a00, 8));
    EXPECT_EQ(plain.memory().read(0x1000a08, 8),
              ssb.memory().read(0x1000a08, 8));
}

TEST(Machine, SsbFlushOfPartialChunkKeepsUnbufferedBytes)
{
    // Two buffered stores cover bytes 4-7 of one chunk and 0-1 of the
    // next; the flush must leave every other byte of both as it was.
    Asm a("partial");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000b00);
    a.movi(R3, 0xaabbccdd);
    a.movi(R4, 0x44556677);
    const std::uint32_t first = a.store(R2, 4, R3, 4);
    const std::uint32_t last = a.store(R2, 6, R4, 4);
    a.fence();
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();
    markSsb(p, first, last);
    for (const SsbMode mode : {SsbMode::Coalescing, SsbMode::Fifo}) {
        MachineConfig mc;
        mc.ssbMode = mode;
        Machine m(p, mc);
        m.memory().write(0x1000b00, 8, 0x1111111111111111ULL);
        m.memory().write(0x1000b08, 8, 0x3333333333333333ULL);
        const MachineStats s = m.run();
        EXPECT_EQ(s.ssbStores, 2u);
        EXPECT_EQ(m.memory().read(0x1000b00, 8), 0x6677ccdd11111111ULL);
        EXPECT_EQ(m.memory().read(0x1000b08, 8), 0x3333333333334455ULL);
    }
}

TEST(Machine, TsoTraceGroupsAreContiguousAndOrdered)
{
    Asm a("tso");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000b00);
    a.movi(R3, 5);
    std::uint32_t first = 0, last = 0;
    Asm::Label loop = a.newLabel();
    a.bind(loop);
    first = a.store(R2, 0, R3, 8);
    a.store(R2, 8, R3, 8);
    last = a.store(R2, 16, R3, 8);
    a.fence();
    a.subi(R3, R3, 1);
    a.bne(R3, R0, loop);
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();
    markSsb(p, first, last);

    MachineConfig cfg;
    cfg.recordTsoTrace = true;
    Machine m(p, cfg);
    m.run();

    // Per-thread visibility groups must cover contiguous, increasing
    // sequence ranges (TSO: stores become visible in program order, in
    // atomic groups).
    std::uint64_t prev_max[8] = {};
    for (const TsoEvent &ev : m.tsoTrace()) {
        ASSERT_LE(ev.minSeq, ev.maxSeq);
        ASSERT_EQ(ev.minSeq, prev_max[ev.tid] + 1)
            << "gap or reorder in thread " << ev.tid;
        prev_max[ev.tid] = ev.maxSeq;
    }
}

TEST(Machine, SheriffModeEliminatesHitms)
{
    MachineConfig cfg;
    cfg.threadsAsProcesses = true;
    Machine m(writeWriteSharing(2000, 0x1000800, 0x1000808), cfg);
    MachineStats s = m.run();
    EXPECT_EQ(s.hitmTotal(), 0u);
}

TEST(Machine, HeapPerturbationShiftsAllocations)
{
    isa::Program p = tidGate([](Asm &a) { a.nop(); });
    MachineConfig cfg;
    cfg.heapPerturbation = 48;
    Machine native(p);
    Machine shifted(p, cfg);
    EXPECT_EQ(native.heap().alloc(64) % 64, 16u);
    EXPECT_EQ(shifted.heap().alloc(64) % 64, 0u);
}

// ---------------------------------------------------------------------
// Slice interpreter edges: budgets, r0, costs, calls, halts, callbacks
// ---------------------------------------------------------------------

/** Sink that logs every memop and sync callback, in host order. */
struct LogSink : PmuSink
{
    std::vector<std::string> log;
    std::uint64_t
    onMemop(int core, std::uint32_t pc, bool is_write,
            std::uint64_t cycle) override
    {
        log.push_back("memop t" + std::to_string(core) + " pc" +
                      std::to_string(pc) + (is_write ? " w" : " r") +
                      " @" + std::to_string(cycle));
        return 0;
    }
    std::uint64_t
    onSync(int core, isa::SyncKind kind, std::uint64_t,
           std::uint64_t cycle) override
    {
        log.push_back("sync t" + std::to_string(core) + " kind" +
                      std::to_string(static_cast<int>(kind)) + " @" +
                      std::to_string(cycle));
        return 0;
    }
};

/**
 * Four threads that each loop tid + 2 times over a run of thread-local
 * ops around a store and a load to one shared line, so slices end at
 * shared ops, at the budget and at Halt.
 */
isa::Program
mixedLocalShared()
{
    Asm a("mixed");
    a.tid(R1);
    a.movi(R2, 0x1000c00);
    a.muli(R3, R1, 8);
    a.add(R2, R2, R3);
    a.addi(R4, R1, 2);
    Asm::Label loop = a.here();
    a.addi(R5, R5, 1);
    a.mul(R6, R5, R5);
    a.store(R2, 0, R6, 8);
    a.load(R7, R2, 0, 8);
    a.xorr(R8, R8, R7);
    a.pause();
    a.subi(R4, R4, 1);
    a.bne(R4, R0, loop);
    a.halt();
    return a.finalize();
}

TEST(Scheduler, EveryBudgetRunsExactlyThatManyInstructions)
{
    LogSink full_log;
    Machine full(mixedLocalShared());
    full.setPmuSink(&full_log);
    const MachineStats all = full.run();
    ASSERT_FALSE(all.truncated);
    ASSERT_GT(all.instructions, 50u);

    for (std::uint64_t max = 1; max <= all.instructions; ++max) {
        MachineConfig cfg;
        cfg.maxInstructions = max;
        LogSink sink;
        Machine m(mixedLocalShared(), cfg);
        m.setPmuSink(&sink);
        const MachineStats s = m.run();
        ASSERT_EQ(s.instructions, max);
        std::uint64_t per_thread = 0;
        for (const std::uint64_t n : s.threadInstructions)
            per_thread += n;
        ASSERT_EQ(per_thread, max);
        ASSERT_EQ(s.truncated, true) << max;
        // Truncation only stops the deterministic run early, so the
        // shared ops it ran are a prefix of the full run's.
        ASSERT_LE(sink.log.size(), full_log.log.size());
        ASSERT_TRUE(std::equal(sink.log.begin(), sink.log.end(),
                               full_log.log.begin()))
            << "budget " << max;
        if (max == all.instructions) {
            EXPECT_EQ(sink.log, full_log.log);
            EXPECT_EQ(s.cycles, all.cycles);
            EXPECT_EQ(s.threadCycles, all.threadCycles);
        }
    }
}

TEST(Machine, LocalOpsNeverWriteRegisterZero)
{
    // Every thread-local op that writes a register targets r0, and r9
    // sums r0 after each: it stays 0 while r0 does.
    Asm a("r0");
    a.movi(R2, 7);
    a.movi(R0, 5);
    a.add(R9, R9, R0);
    a.mov(R0, R2);
    a.add(R9, R9, R0);
    a.add(R0, R2, R2);
    a.add(R9, R9, R0);
    a.addi(R0, R2, 1);
    a.add(R9, R9, R0);
    a.sub(R0, R2, R9);
    a.add(R9, R9, R0);
    a.subi(R0, R2, 1);
    a.add(R9, R9, R0);
    a.mul(R0, R2, R2);
    a.add(R9, R9, R0);
    a.muli(R0, R2, 3);
    a.add(R9, R9, R0);
    a.andr(R0, R2, R2);
    a.add(R9, R9, R0);
    a.orr(R0, R2, R2);
    a.add(R9, R9, R0);
    a.xorr(R0, R2, R9);
    a.add(R9, R9, R0);
    a.shli(R0, R2, 2);
    a.add(R9, R9, R0);
    a.shri(R0, R2, 1);
    a.add(R9, R9, R0);
    a.tid(R0); // nonzero on threads 1-3
    a.add(R9, R9, R0);
    const std::uint32_t call = a.nop(); // becomes call r0, @call+1
    a.add(R9, R9, R0);
    a.halt();
    isa::Program p = a.finalize();
    p.code[call].op = Op::Call;
    p.code[call].dst = R0;
    p.code[call].target = static_cast<std::int32_t>(call + 1);

    Machine m(p);
    const MachineStats s = m.run();
    EXPECT_FALSE(s.truncated);
    for (int t = 0; t < 4; ++t) {
        EXPECT_EQ(m.reg(t, R0), 0) << "thread " << t;
        EXPECT_EQ(m.reg(t, R9), 0) << "thread " << t;
    }
}

TEST(Machine, MultiplyAndPauseCostsReachThreadCycles)
{
    isa::Program p = tidGate([](Asm &a) {
        a.mul(R4, R2, R3);
        a.muli(R5, R2, 3);
        a.pause();
    });
    Machine m(p);
    const MachineStats s = m.run();
    const TimingModel tm{};
    // tid, bne, mul, muli, pause, halt.
    EXPECT_EQ(s.threadCycles[0], 6 * tm.base + 2 * 2 + tm.pauseCost);
    EXPECT_EQ(s.threadInstructions[0], 6u);
    for (int t = 1; t < 4; ++t)
        EXPECT_EQ(s.threadCycles[t], 3 * tm.base); // tid, bne, halt
    EXPECT_EQ(s.cycles, s.threadCycles[0]);
}

TEST(Machine, CallRetAndJmpRegInsideALocalRun)
{
    Asm a("calls");
    const std::uint32_t call = a.nop();   // call r14, @sub
    a.addi(R2, R2, 100);
    const std::uint32_t mov = a.movi(R3, 0); // r3 <- index of `over`
    const std::uint32_t jmp = a.nop();    // jmpreg r3
    a.movi(R2, 999);                      // skipped
    const std::uint32_t over = a.addi(R2, R2, 1000);
    a.halt();
    const std::uint32_t sub = a.addi(R2, R2, 1);
    const std::uint32_t ret = a.nop();    // ret r14
    isa::Program p = a.finalize();
    p.code[call].op = Op::Call;
    p.code[call].dst = R14;
    p.code[call].target = static_cast<std::int32_t>(sub);
    p.code[mov].imm = over;
    p.code[jmp].op = Op::JmpReg;
    p.code[jmp].src1 = R3;
    p.code[ret].op = Op::Ret;
    p.code[ret].src1 = R14;

    Machine m(p);
    const MachineStats s = m.run();
    EXPECT_FALSE(s.truncated);
    for (int t = 0; t < 4; ++t) {
        EXPECT_EQ(m.reg(t, R2), 1101) << "thread " << t;
        EXPECT_EQ(m.reg(t, R14), static_cast<std::int64_t>(call + 1));
        // call, sub, ret, addi, movi, jmpreg, over, halt.
        EXPECT_EQ(s.threadInstructions[t], 8u);
        EXPECT_EQ(s.threadCycles[t], 8 * TimingModel{}.base);
    }
}

TEST(Scheduler, HaltMidSliceStopsOnlyItsThread)
{
    // Thread 0 halts in the middle of its first slice; the others keep
    // looping over a contended line to completion.
    Asm a("halt-mid");
    Asm::Label work = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, work);
    a.movi(R2, 1);
    a.halt();
    a.movi(R2, 2); // never reached
    a.bind(work);
    a.movi(R2, 0x1000d00);
    a.movi(R4, 20);
    Asm::Label loop = a.here();
    a.addmem(R2, 0, R1, 8);
    a.addi(R5, R5, 1);
    a.subi(R4, R4, 1);
    a.bne(R4, R0, loop);
    a.halt();
    Machine m(a.finalize());
    const MachineStats s = m.run();
    EXPECT_FALSE(s.truncated);
    EXPECT_EQ(s.threadInstructions[0], 4u);
    EXPECT_EQ(m.reg(0, R2), 1);
    for (int t = 1; t < 4; ++t) {
        EXPECT_EQ(m.reg(t, R5), 20) << "thread " << t;
        // tid, bne, movi, movi, 20 x 4 loop ops, halt.
        EXPECT_EQ(s.threadInstructions[t], 85u) << "thread " << t;
    }
    EXPECT_EQ(m.memory().read(0x1000d00, 8), 20u * (1 + 2 + 3));
}

TEST(Machine, LockReleaseStoreAndSsbLoadRaiseSinkCallbacks)
{
    Asm a("sink");
    Asm::Label done = a.newLabel();
    a.tid(R1);
    a.bne(R1, R0, done);
    a.movi(R2, 0x1000e00);
    a.movi(R3, 1);
    const std::uint32_t rel = a.store(R2, 0, R3, 8);
    a.markSync(rel, isa::SyncKind::LockRelease);
    const std::uint32_t miss = a.load(R4, R2, 8, 8); // SSB miss
    a.store(R2, 16, R3, 8);                          // buffered
    const std::uint32_t hit = a.load(R5, R2, 16, 8); // SSB hit
    const std::uint32_t fence = a.fence();           // flushes the store
    a.bind(done);
    a.halt();
    isa::Program p = a.finalize();
    markSsb(p, miss, hit);

    MachineConfig cfg;
    cfg.latencyJitter = false; // exact clocks
    LogSink sink;
    Machine m(p, cfg);
    m.setPmuSink(&sink);
    const MachineStats s = m.run();

    // Thread 0 reaches the release store after tid, bne and two movi.
    // The store misses; the load hits the line the store brought in;
    // the buffered store and the SSB-hit load raise no callback; the
    // fence's flush writes the buffered line back.
    const TimingModel tm{};
    const std::uint64_t rel_at = 4 * tm.base;
    const std::uint64_t miss_at = rel_at + tm.base + tm.memMiss;
    const std::uint64_t fence_at =
        miss_at + (tm.base + tm.ssbLoadCheck + tm.l1Hit) +
        (tm.base + tm.ssbStore) +
        (tm.base + tm.ssbLoadCheck + tm.ssbLoadHit);
    const auto memop = [](std::uint32_t pc, const char *rw,
                          std::uint64_t cycle) {
        return "memop t0 pc" + std::to_string(pc) + rw + " @" +
               std::to_string(cycle);
    };
    const std::vector<std::string> expect = {
        memop(rel, " w", rel_at),
        "sync t0 kind" +
            std::to_string(static_cast<int>(isa::SyncKind::LockRelease)) +
            " @" + std::to_string(rel_at),
        memop(miss, " r", miss_at),
        memop(fence, " w", fence_at),
    };
    EXPECT_EQ(sink.log, expect);
    EXPECT_EQ(s.syncOps, 1u);
    EXPECT_EQ(s.ssbStores, 1u);
    EXPECT_EQ(s.ssbLoadHits, 1u);
    EXPECT_EQ(s.ssbFlushes, 1u);
}

// ---------------------------------------------------------------------
// Fetch bounds: a fetch never leaves the code
// ---------------------------------------------------------------------

TEST(Machine, RejectsProgramsThatCanFallOffTheEnd)
{
    Asm a("falls");
    a.movi(R1, 1);
    a.addi(R1, R1, 1);
    EXPECT_THROW(Machine m(a.finalize()), std::invalid_argument);

    Asm b("cond");
    Asm::Label top = b.here();
    b.movi(R1, 1);
    b.bne(R1, R0, top); // falls through when not taken
    EXPECT_THROW(Machine m(b.finalize()), std::invalid_argument);

    for (const Op last : {Op::Halt, Op::Jmp, Op::JmpReg, Op::Ret}) {
        Asm c("ends");
        c.movi(R1, 0);
        const std::uint32_t end = c.halt();
        isa::Program p = c.finalize();
        p.code[end].op = last;
        p.code[end].target = 0;
        EXPECT_NO_THROW(Machine m(p)) << isa::opName(last);
    }
}

TEST(Machine, RejectsProgramsThatFailValidation)
{
    Asm a("bad");
    a.movi(R1, 1);
    const std::uint32_t jmp = a.halt();
    isa::Program p = a.finalize();
    p.code[jmp].op = Op::Jmp;
    p.code[jmp].target = 99; // past the end
    EXPECT_THROW(Machine m(p), std::invalid_argument);
    p.code[jmp].target = 0;
    p.code[0].dst = isa::kNumRegs; // illegal register
    EXPECT_THROW(Machine m(p), std::invalid_argument);
    EXPECT_THROW(Machine m(isa::Program{}), std::invalid_argument);
}

TEST(Machine, IndirectJumpPastTheEndThrows)
{
    for (const Op op : {Op::JmpReg, Op::Ret}) {
        Asm a("jump");
        Asm::Label done = a.newLabel();
        a.tid(R1);
        a.movi(R9, 2);
        a.bne(R1, R9, done); // only thread 2 jumps
        const std::uint32_t mov = a.movi(R3, 0);
        const std::uint32_t jump = a.nop();
        a.bind(done);
        a.halt();
        isa::Program p = a.finalize();
        p.code[jump].op = op;
        p.code[jump].src1 = R3;

        // The last index is in range; one past it is not, nor is an
        // index that only wraps into range as a 32-bit pc.
        p.code[mov].imm = static_cast<std::int64_t>(p.size() - 1);
        Machine ok(p);
        EXPECT_FALSE(ok.run().truncated) << isa::opName(op);
        for (const std::int64_t dest :
             {static_cast<std::int64_t>(p.size()), std::int64_t{-1},
              std::int64_t{1} << 32}) {
            p.code[mov].imm = dest;
            Machine m(p);
            try {
                m.run();
                ADD_FAILURE() << isa::opName(op) << " to " << dest
                              << " did not throw";
            } catch (const std::runtime_error &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("thread 2"), std::string::npos) << what;
                EXPECT_NE(what.find("pc " + std::to_string(jump)),
                          std::string::npos)
                    << what;
            }
        }
    }
}

} // namespace
} // namespace laser::sim
