/**
 * @file
 * Unit tests for LASERDETECT: maps parsing/filtering, the Figure 5
 * cache-line model, pipeline filtering, line aggregation, rate
 * thresholding, TS/FS typing and the online repair trigger.
 */

#include <gtest/gtest.h>

#include "detect/cacheline_model.h"
#include "detect/maps_filter.h"
#include "detect/pipeline.h"
#include "isa/assembler.h"
#include "mem/address_space.h"
#include "pebs/record.h"
#include "sim/timing.h"

namespace laser::detect {
namespace {

using namespace laser::isa;

// ---------------------------------------------------------------------
// MapsFilter
// ---------------------------------------------------------------------

isa::Program
progWithLib()
{
    Asm a("demo");
    a.at(10).store(R2, 0, R3, 8); // index 0, app store
    a.at(11).load(R4, R2, 0, 8);  // index 1, app load
    a.movi(R12, 0x600040);
    a.callLib(LibFn::Unlock);
    a.halt();
    return a.finalize();
}

TEST(MapsFilter, ParsesRenderedMaps)
{
    isa::Program p = progWithLib();
    mem::AddressSpace space(p, 2);
    MapsFilter filter(space.renderProcMaps());
    EXPECT_GE(filter.entries().size(), 5u);
}

TEST(MapsFilter, ClassifiesPcs)
{
    isa::Program p = progWithLib();
    mem::AddressSpace space(p, 2);
    MapsFilter filter(space.renderProcMaps());

    EXPECT_EQ(filter.classifyPc(space.indexToPc(0)),
              PcClass::Application);
    EXPECT_EQ(filter.classifyPc(space.indexToPc(p.segments[1].begin)),
              PcClass::Library);
    EXPECT_EQ(filter.classifyPc(0x30000000), PcClass::Other);
    EXPECT_EQ(filter.classifyPc(0xffff800000001000ULL), PcClass::Other);
    // Data regions are not executable: PCs there are "other".
    EXPECT_EQ(filter.classifyPc(mem::Layout::kHeapBase + 64),
              PcClass::Other);
}

TEST(MapsFilter, ClassifiesDataAddresses)
{
    isa::Program p = progWithLib();
    mem::AddressSpace space(p, 2);
    MapsFilter filter(space.renderProcMaps());

    EXPECT_EQ(filter.classifyData(mem::Layout::kHeapBase + 64),
              DataClass::Heap);
    EXPECT_EQ(filter.classifyData(space.stackTop(0)), DataClass::Stack);
    EXPECT_EQ(filter.classifyData(space.stackTop(1)), DataClass::Stack);
    EXPECT_EQ(filter.classifyData(mem::Layout::kGlobalsBase + 8),
              DataClass::Globals);
    EXPECT_EQ(filter.classifyData(0x30000000), DataClass::Unmapped);
    EXPECT_EQ(filter.classifyData(0xffff800000001000ULL),
              DataClass::Kernel);
}

// ---------------------------------------------------------------------
// CacheLineModel (Figure 5)
// ---------------------------------------------------------------------

TEST(CacheLineModel, FirstAccessIsNone)
{
    CacheLineModel model;
    EXPECT_EQ(model.access(0x1000, 4, true), SharingOutcome::None);
    EXPECT_EQ(model.linesTracked(), 1u);
}

TEST(CacheLineModel, Figure5Example)
{
    // Figure 5: previous 2B write at the line base, incoming 4B write at
    // base+4: disjoint bytes => false sharing.
    CacheLineModel model;
    model.access(0x1000, 2, true);
    EXPECT_EQ(model.access(0x1004, 4, true),
              SharingOutcome::FalseSharing);
}

TEST(CacheLineModel, OverlapWithWriteIsTrueSharing)
{
    CacheLineModel model;
    model.access(0x1000, 8, true);
    EXPECT_EQ(model.access(0x1004, 8, false),
              SharingOutcome::TrueSharing);
}

TEST(CacheLineModel, ReadReadIsNotContention)
{
    CacheLineModel model;
    model.access(0x1000, 8, false);
    EXPECT_EQ(model.access(0x1000, 8, false), SharingOutcome::None);
    EXPECT_EQ(model.access(0x1020, 8, false), SharingOutcome::None);
}

TEST(CacheLineModel, ReadThenWriteOverlapIsTrueSharing)
{
    CacheLineModel model;
    model.access(0x1000, 8, false);
    EXPECT_EQ(model.access(0x1000, 8, true), SharingOutcome::TrueSharing);
}

TEST(CacheLineModel, DistinctLinesIndependent)
{
    CacheLineModel model;
    model.access(0x1000, 8, true);
    EXPECT_EQ(model.access(0x1040, 8, true), SharingOutcome::None);
    EXPECT_EQ(model.linesTracked(), 2u);
}

TEST(CacheLineModel, TracksLatestAccessOnly)
{
    CacheLineModel model;
    model.access(0x1000, 4, true);  // bytes 0-3
    model.access(0x1008, 4, false); // bytes 8-11 -> FS, now last
    // Incoming write to bytes 8-11 overlaps the *previous* (read) access.
    EXPECT_EQ(model.access(0x1008, 4, true), SharingOutcome::TrueSharing);
}

TEST(CacheLineModel, AccessClippedAtLineBoundary)
{
    CacheLineModel model;
    // 8B access at offset 60 clips to 4 bytes in this line.
    model.access(0x103c, 8, true);
    EXPECT_EQ(model.access(0x1000, 4, true), SharingOutcome::FalseSharing);
}

TEST(CacheLineModel, ZeroSizeAccessIsNeverContention)
{
    // Regression: a size-0 access used to produce an empty byte mask
    // that classify() reported as FalseSharing whenever a write was
    // involved — phantom FS events from degenerate records.
    CacheLineModel model;
    model.access(0x1000, 0, true);
    EXPECT_EQ(model.linesTracked(), 0u); // empty footprint: no state
    EXPECT_EQ(model.access(0x1008, 4, false), SharingOutcome::None);

    model.clear();
    model.access(0x1000, 8, true);
    EXPECT_EQ(model.access(0x1008, 0, true), SharingOutcome::None);
    EXPECT_EQ(model.access(0x1010, 0, false), SharingOutcome::None);
}

TEST(CacheLineModel, NegativeSizeAccessIsNeverContention)
{
    CacheLineModel model;
    model.access(0x1000, 8, true);
    EXPECT_EQ(model.access(0x1008, -4, true), SharingOutcome::None);
    EXPECT_EQ(CacheLineModel::byteMask(0x1008, -4), 0u);
}

TEST(CacheLineModel, ClassifyEmptyMaskIsNone)
{
    EXPECT_EQ(CacheLineModel::classify(0, true, 0xff, true),
              SharingOutcome::None);
    EXPECT_EQ(CacheLineModel::classify(0xff, true, 0, true),
              SharingOutcome::None);
    EXPECT_EQ(CacheLineModel::classify(0xff, true, 0xff00, true),
              SharingOutcome::FalseSharing);
}

TEST(CacheLineModel, NarrowLinesSeparateNeighbours)
{
    // With 32-byte lines, offsets 32 bytes apart are different lines.
    CacheLineModel model(32);
    EXPECT_EQ(model.lineBytes(), 32);
    model.access(0x1000, 8, true);
    EXPECT_EQ(model.access(0x1020, 8, true), SharingOutcome::None);
    EXPECT_EQ(model.linesTracked(), 2u);
    // ... but offsets within the same 32-byte line still contend.
    EXPECT_EQ(model.access(0x1008, 8, true), SharingOutcome::FalseSharing);
}

TEST(CacheLineModel, WideLinesJoinNeighbours)
{
    // With 128-byte lines, offsets 0 and 96 share a line; the footprint
    // is tracked at 2-byte granules so disjointness is still seen.
    CacheLineModel model(128);
    EXPECT_EQ(model.lineBytes(), 128);
    model.access(0x1000, 8, true);
    EXPECT_EQ(model.access(0x1060, 8, true), SharingOutcome::FalseSharing);
    EXPECT_EQ(model.linesTracked(), 1u);
    EXPECT_EQ(model.access(0x1060, 8, false), SharingOutcome::TrueSharing);
}

TEST(CacheLineModel, WideLineMaskGranules)
{
    // 128-byte line: bit i covers bytes [2i, 2i+2).
    EXPECT_EQ(CacheLineModel::byteMask(0x1000, 2, 128), 0x1u);
    EXPECT_EQ(CacheLineModel::byteMask(0x1000, 4, 128), 0x3u);
    EXPECT_EQ(CacheLineModel::byteMask(0x1060, 2, 128), 1ull << 48);
    // A full-line access covers all 64 granule bits.
    EXPECT_EQ(CacheLineModel::byteMask(0x1000, 128, 128), ~0ull);
    // Odd offsets round outward to their covering granules.
    EXPECT_EQ(CacheLineModel::byteMask(0x1001, 2, 128), 0x3u);
}

TEST(CacheLineModel, InvalidLineBytesFallsBackToDefault)
{
    CacheLineModel model(48); // not a power of two
    EXPECT_EQ(model.lineBytes(), CacheLineModel::kDefaultLineBytes);
    CacheLineModel huge(4096); // out of the simulated geometry range
    EXPECT_EQ(huge.lineBytes(), CacheLineModel::kDefaultLineBytes);
}

// ---------------------------------------------------------------------
// Detector pipeline
// ---------------------------------------------------------------------

struct DetectorFixture
{
    isa::Program prog = progWithLib();
    mem::AddressSpace space{prog, 2};
    sim::TimingModel timing{};

    pebs::PebsRecord
    record(std::uint32_t index, std::uint64_t addr,
           std::uint64_t cycle = 1000) const
    {
        pebs::PebsRecord r;
        r.pc = space.indexToPc(index);
        r.dataAddr = addr;
        r.core = 0;
        r.cycle = cycle;
        return r;
    }

    DetectorContext ctx{prog, space, space.renderProcMaps(), timing};

    DetectorPipeline
    makeDetector(DetectorConfig cfg = {}) const
    {
        return DetectorPipeline(ctx, cfg);
    }
};

TEST(Detector, DropsSpuriousPcs)
{
    DetectorFixture f;
    DetectorPipeline d = f.makeDetector();
    pebs::PebsRecord junk;
    junk.pc = 0x30000000; // outside any mapping
    junk.dataAddr = 0x1000000;
    d.onRecord(junk);
    junk.pc = 0xffff800000001000ULL; // kernel
    d.onRecord(junk);
    DetectionReport rep = d.finish(1'133'333);
    EXPECT_EQ(rep.droppedPcFilter, 2u);
    EXPECT_TRUE(rep.lines.empty());
}

TEST(Detector, DropsStackDataAddresses)
{
    DetectorFixture f;
    DetectorPipeline d = f.makeDetector();
    d.onRecord(f.record(0, f.space.stackTop(0)));
    DetectionReport rep = d.finish(1'133'333);
    EXPECT_EQ(rep.droppedStackData, 1u);
    EXPECT_TRUE(rep.lines.empty());
}

TEST(Detector, ReportsHotLineAboveThreshold)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    DetectorPipeline d = f.makeDetector(cfg);
    // 1000 records at one PC over ~1ms represented time: far above 1K/s.
    for (int i = 0; i < 1000; ++i)
        d.onRecord(f.record(0, 0x1000000 + (i % 2) * 8));
    DetectionReport rep = d.finish(1'133'333);
    ASSERT_EQ(rep.lines.size(), 1u);
    EXPECT_EQ(rep.lines[0].location, "main.c:10");
    EXPECT_FALSE(rep.lines[0].library);
    EXPECT_EQ(rep.lines[0].records, 1000u);
    EXPECT_GE(rep.lines[0].hitmRate, cfg.rateThreshold);
}

TEST(Detector, RateThresholdFiltersColdLines)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    // 3.4e9 cycles = 1000 represented seconds at compression 1000; three
    // records => 0.003/s, far below any threshold.
    DetectorPipeline d = f.makeDetector(cfg);
    for (int i = 0; i < 3; ++i)
        d.onRecord(f.record(0, 0x1000000));
    DetectionReport rep = d.finish(1'133'333'333ULL);
    EXPECT_TRUE(rep.lines.empty());
}

TEST(Detector, ClassifiesFalseSharing)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    DetectorPipeline d = f.makeDetector(cfg);
    // Alternating disjoint 8-byte halves of one line, written via the
    // store at index 0.
    for (int i = 0; i < 2000; ++i)
        d.onRecord(f.record(0, 0x1000000 + (i % 2) * 32));
    DetectionReport rep = d.finish(1'133'333);
    ASSERT_FALSE(rep.lines.empty());
    EXPECT_EQ(rep.lines[0].type, ContentionType::FalseSharing);
    EXPECT_GT(rep.lines[0].fsEvents, rep.lines[0].tsEvents);
}

TEST(Detector, ClassifiesTrueSharing)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    DetectorPipeline d = f.makeDetector(cfg);
    for (int i = 0; i < 2000; ++i)
        d.onRecord(f.record(0, 0x1000000)); // same word every time
    DetectionReport rep = d.finish(1'133'333);
    ASSERT_FALSE(rep.lines.empty());
    EXPECT_EQ(rep.lines[0].type, ContentionType::TrueSharing);
}

TEST(Detector, NoisyAddressesYieldUnknownType)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    DetectorPipeline d = f.makeDetector(cfg);
    // Unique garbage addresses: no line ever sees two accesses, so
    // nothing classifies (the linear_regression -O3 situation).
    for (int i = 0; i < 2000; ++i)
        d.onRecord(f.record(0, 0x20000000 + i * 4096));
    DetectionReport rep = d.finish(1'133'333);
    ASSERT_FALSE(rep.lines.empty());
    EXPECT_EQ(rep.lines[0].type, ContentionType::Unknown);
}

TEST(Detector, AggregatesAdjacentPcsToSameLine)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    DetectorPipeline d = f.makeDetector(cfg);
    // Records at index 0 and (skidded) index 1 belong to lines 10/11.
    for (int i = 0; i < 2400; ++i) {
        d.onRecord(f.record(0, 0x1000000));
        d.onRecord(f.record(1, 0x1000000));
    }
    DetectionReport rep = d.finish(1'133'333);
    EXPECT_NE(rep.findLine("main.c:10"), nullptr);
    EXPECT_NE(rep.findLine("main.c:11"), nullptr);
}

TEST(Detector, RepairTriggersOnFalseSharingStorm)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 19;
    cfg.rateCheckInterval = 100'000;
    DetectorPipeline d = f.makeDetector(cfg);
    // Heavy FS: disjoint halves, cycles advancing so rates compute.
    for (int i = 0; i < 5000 && !d.repairRequested(); ++i)
        d.onRecord(f.record(0, 0x1000000 + (i % 2) * 32,
                            1000 + 400ull * i));
    DetectionReport rep = d.finish(1'700'000);
    EXPECT_TRUE(rep.repairRequested);
    ASSERT_FALSE(rep.repairPcs.empty());
    EXPECT_EQ(rep.repairPcs[0], 0u); // the store instruction
    EXPECT_GT(rep.repairTriggerCycle, 0u);
}

TEST(Detector, RepairNotTriggeredByTrueSharing)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 19;
    cfg.rateCheckInterval = 100'000;
    DetectorPipeline d = f.makeDetector(cfg);
    for (int i = 0; i < 5000; ++i)
        d.onRecord(f.record(0, 0x1000000, 1000 + 400ull * i));
    DetectionReport rep = d.finish(1'700'000);
    EXPECT_FALSE(rep.repairRequested);
}

TEST(Detector, RepairNotTriggeredBelowRate)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 19;
    cfg.rateCheckInterval = 100'000;
    DetectorPipeline d = f.makeDetector(cfg);
    // Sparse FS records: far apart in time.
    for (int i = 0; i < 200; ++i)
        d.onRecord(f.record(0, 0x1000000 + (i % 2) * 32,
                            1000 + 10'000'000ull * i));
    DetectionReport rep = d.finish(700'000'000ULL);
    EXPECT_FALSE(rep.repairRequested);
}

TEST(Detector, DetectorCyclesScaleWithRecords)
{
    DetectorFixture f;
    DetectorConfig cfg;
    DetectorPipeline d = f.makeDetector(cfg);
    for (int i = 0; i < 100; ++i)
        d.onRecord(f.record(0, 0x1000000));
    DetectionReport rep = d.finish(1'133'333);
    EXPECT_EQ(rep.detectorCycles, 100ull * f.timing.detectorPerRecord);
}

TEST(Detector, LibraryLinesFlagged)
{
    DetectorFixture f;
    DetectorConfig cfg;
    cfg.sav = 1;
    DetectorPipeline d = f.makeDetector(cfg);
    const std::uint32_t lib_index = f.prog.segments[1].begin;
    for (int i = 0; i < 1000; ++i)
        d.onRecord(f.record(lib_index, 0x1000000));
    DetectionReport rep = d.finish(1'133'333);
    ASSERT_FALSE(rep.lines.empty());
    EXPECT_TRUE(rep.lines[0].library);
    EXPECT_NE(rep.lines[0].location.find("libpthread.c"),
              std::string::npos);
}

} // namespace
} // namespace laser::detect
