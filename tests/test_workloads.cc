/**
 * @file
 * Tests for the workload suite: registry integrity, program validity,
 * determinism, and — most importantly — that each kernel reproduces the
 * sharing structure the paper describes (parameterized over all 35
 * workloads where applicable).
 */

#include <gtest/gtest.h>

#include "mem/address_space.h"
#include "mem/allocator.h"
#include "sim/machine.h"
#include "workloads/workload.h"

namespace laser::workloads {
namespace {

sim::MachineStats
runBuild(WorkloadBuild build, sim::MachineConfig mc = {})
{
    sim::Machine machine(std::move(build.program), mc);
    build.applyTo(machine);
    return machine.run();
}

TEST(Registry, HasThirtyFiveConfigurations)
{
    EXPECT_EQ(allWorkloads().size(), 35u); // Table 1 rows
}

TEST(Registry, NamesAreUniqueAndFindable)
{
    std::set<std::string> names;
    for (const auto &w : allWorkloads()) {
        EXPECT_TRUE(names.insert(w.info.name).second)
            << "duplicate " << w.info.name;
        EXPECT_EQ(findWorkload(w.info.name), &w);
    }
    EXPECT_EQ(findWorkload("no_such_benchmark"), nullptr);
}

TEST(Registry, NineBuggyWorkloads)
{
    EXPECT_EQ(buggyWorkloads().size(), 9u); // Table 2 rows
}

TEST(Registry, SuitesCovered)
{
    int phoenix = 0, parsec = 0, splash = 0;
    for (const auto &w : allWorkloads()) {
        phoenix += w.info.suite == Suite::Phoenix;
        parsec += w.info.suite == Suite::Parsec;
        splash += w.info.suite == Suite::Splash2x;
    }
    EXPECT_EQ(phoenix, 9);  // includes histogram twice
    EXPECT_EQ(parsec, 13);
    EXPECT_EQ(splash, 13);
}

/** Parameterized over every workload. */
class EveryWorkload : public ::testing::TestWithParam<std::size_t>
{
  protected:
    const WorkloadDef &def() const { return allWorkloads()[GetParam()]; }
};

TEST_P(EveryWorkload, ProgramValidates)
{
    WorkloadBuild build = def().build(BuildOptions{});
    EXPECT_EQ(build.program.validate(), "") << def().info.name;
    EXPECT_GT(build.program.size(), 10u);
}

TEST_P(EveryWorkload, RunsToCompletion)
{
    sim::MachineStats stats = runBuild(def().build(BuildOptions{}));
    EXPECT_FALSE(stats.truncated) << def().info.name;
    EXPECT_GT(stats.instructions, 1000u);
    // Compressed-kernel budget: every run finishes within 16M cycles.
    EXPECT_LT(stats.cycles, 16'000'000u) << def().info.name;
}

TEST_P(EveryWorkload, DeterministicAcrossRuns)
{
    sim::MachineStats a = runBuild(def().build(BuildOptions{}));
    sim::MachineStats b = runBuild(def().build(BuildOptions{}));
    EXPECT_EQ(a.cycles, b.cycles) << def().info.name;
    EXPECT_EQ(a.hitmTotal(), b.hitmTotal());
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST_P(EveryWorkload, BuggyWorkloadsGenerateContention)
{
    if (def().info.bugs.empty())
        GTEST_SKIP() << "no known bug";
    sim::MachineStats stats = runBuild(def().build(BuildOptions{}));
    EXPECT_GT(stats.hitmTotal(), 300u) << def().info.name;
}

TEST_P(EveryWorkload, ManualFixReducesHitms)
{
    if (!def().info.hasManualFix)
        GTEST_SKIP() << "no manual fix variant";
    BuildOptions fixed_opt;
    fixed_opt.manualFix = true;
    sim::MachineStats native = runBuild(def().build(BuildOptions{}));
    sim::MachineStats fixed = runBuild(def().build(fixed_opt));
    // Every fix reduces HITMs (padding fixes eliminate them; dedup's
    // lock-free queue trades lock HITMs for peek traffic but wins on
    // runtime, checked in Dedup.LockFreeFixReducesSyncAndHitms).
    EXPECT_LT(fixed.hitmTotal(), native.hitmTotal() * 4 / 5)
        << def().info.name;
}

INSTANTIATE_TEST_SUITE_P(
    All, EveryWorkload,
    ::testing::Range<std::size_t>(0, allWorkloads().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        std::string name = allWorkloads()[info.param].info.name;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Workload-specific structure checks
// ---------------------------------------------------------------------

TEST(LinearRegression, FigureTwoLayout)
{
    // The unaligned lreg_args array straddles lines (Figure 2): intense
    // false sharing natively, none when the fix aligns the array.
    const auto *w = findWorkload("linear_regression");
    sim::MachineStats native = runBuild(w->build(BuildOptions{}));
    BuildOptions fixed;
    fixed.manualFix = true;
    sim::MachineStats aligned = runBuild(w->build(fixed));
    EXPECT_GT(native.hitmTotal(), 3000u);
    EXPECT_EQ(aligned.hitmTotal(), 0u);
    // The paper's dramatic manual-fix speedup (Figure 11: 16.9x on the
    // contention phase; our whole-kernel speedup is several-fold).
    EXPECT_GT(double(native.cycles) / double(aligned.cycles), 2.0);
}

TEST(Histogram, FalseSharingIsInputDependent)
{
    // Same binary; only the input changes (Section 7.4.1).
    sim::MachineStats def_input =
        runBuild(findWorkload("histogram")->build(BuildOptions{}));
    sim::MachineStats alt_input =
        runBuild(findWorkload("histogram'")->build(BuildOptions{}));
    EXPECT_EQ(def_input.hitmTotal(), 0u);
    EXPECT_GT(alt_input.hitmTotal(), 5000u);
}

TEST(Histogram, PixelImageCoversEveryPixel)
{
    // 3 threads x 6500 pixels = 19500, not a multiple of the 8 pixels an
    // init64 word holds, so the byte-wise tail is exercised too.
    BuildOptions opt;
    opt.numThreads = 3;
    opt.scale = 0.25;
    WorkloadBuild build = findWorkload("histogram")->build(opt);
    sim::Machine machine(std::move(build.program));
    build.applyTo(machine);
    // The image is the kernel's first heap allocation.
    mem::BumpAllocator heap(mem::Layout::kHeapBase, mem::Layout::kHeapSize);
    const std::uint64_t image = heap.alloc(19500);
    for (std::uint64_t i = 0; i < 19500; ++i) {
        // The default input draws every pixel from [16, 240).
        const std::uint8_t pixel = machine.memory().readByte(image + i);
        ASSERT_GE(pixel, 16) << "pixel " << i;
        ASSERT_LT(pixel, 240) << "pixel " << i;
    }
}

TEST(LuNcb, LaserHeapShiftReducesFalseSharing)
{
    // The +48-byte attach shift realigns half the chunk boundaries
    // (Section 7.4.2's "coincidental change in memory layout").
    const auto *w = findWorkload("lu_ncb");
    sim::MachineStats native = runBuild(w->build(BuildOptions{}));
    BuildOptions shifted_opt;
    shifted_opt.heapPerturbation = 48;
    sim::MachineConfig mc;
    mc.heapPerturbation = 48;
    sim::MachineStats shifted = runBuild(w->build(shifted_opt), mc);
    // The +48 shift aligns half the chunk boundaries; the measurable
    // effect is a solid HITM reduction (and a faster run under LASER).
    EXPECT_LT(shifted.hitmTotal(), native.hitmTotal() * 9 / 10);
}

TEST(LuNcb, ManualFixBeatsLayoutLuck)
{
    // The residual HITMs of the fixed variant come from barriers and
    // pivot-row reads (genuine communication, not the bug).
    const auto *w = findWorkload("lu_ncb");
    sim::MachineStats native = runBuild(w->build(BuildOptions{}));
    BuildOptions fixed;
    fixed.manualFix = true;
    sim::MachineStats aligned = runBuild(w->build(fixed));
    EXPECT_LT(aligned.hitmTotal(), native.hitmTotal() / 2);
}

TEST(Dedup, PipelineProcessesAllItems)
{
    // The pipeline must terminate (sentinels propagate) and its queue
    // locks must contend (the Section 7.4.2 true-sharing find).
    sim::MachineStats stats =
        runBuild(findWorkload("dedup")->build(BuildOptions{}));
    EXPECT_FALSE(stats.truncated);
    EXPECT_GT(stats.syncOps, 500u);
    EXPECT_GT(stats.hitmTotal(), 1000u);
}

TEST(Dedup, LockFreeFixReducesSyncAndHitms)
{
    const auto *w = findWorkload("dedup");
    sim::MachineStats naive = runBuild(w->build(BuildOptions{}));
    BuildOptions fixed;
    fixed.manualFix = true;
    sim::MachineStats lockfree = runBuild(w->build(fixed));
    EXPECT_LT(lockfree.hitmTotal(), naive.hitmTotal());
    EXPECT_LT(lockfree.cycles, naive.cycles);
}

TEST(WaterNsquared, SyncHeavy)
{
    // The Sheriff comparison hinges on water_nsquared's sync density.
    sim::MachineStats stats =
        runBuild(findWorkload("water_nsquared")->build(BuildOptions{}));
    EXPECT_GT(stats.syncOps, 5000u);
}

TEST(Scale, SmallerInputsRunFaster)
{
    const auto *w = findWorkload("histogram");
    BuildOptions small;
    small.scale = 0.25;
    sim::MachineStats full = runBuild(w->build(BuildOptions{}));
    sim::MachineStats quarter = runBuild(w->build(small));
    EXPECT_LT(quarter.cycles, full.cycles / 2);
}

TEST(SheriffCompat, MatrixMatchesTable1)
{
    // Spot-check the compatibility matrix against Table 1.
    EXPECT_EQ(findWorkload("dedup")->info.sheriff,
              SheriffCompat::Incompatible);
    EXPECT_EQ(findWorkload("freqmine")->info.sheriff,
              SheriffCompat::Incompatible); // OpenMP
    EXPECT_EQ(findWorkload("kmeans")->info.sheriff,
              SheriffCompat::Crash);
    EXPECT_EQ(findWorkload("lu_cb")->info.sheriff,
              SheriffCompat::WorksSmallInput);
    EXPECT_EQ(findWorkload("linear_regression")->info.sheriff,
              SheriffCompat::Works);
    EXPECT_EQ(findWorkload("reverse_index")->info.sheriffDetectsBug,
              true);
    EXPECT_EQ(findWorkload("linear_regression")->info.sheriffDetectsBug,
              false);
}

} // namespace
} // namespace laser::workloads
