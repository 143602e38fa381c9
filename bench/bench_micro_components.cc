/**
 * @file
 * google-benchmark microbenchmarks for the reproduction's hot
 * components: the software store buffer, the Figure 5 cache-line model,
 * the detector pipeline, the MESI directory and the interpreter.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "detect/cacheline_model.h"
#include "detect/pipeline.h"
#include "obs/export.h"
#include "isa/assembler.h"
#include "pebs/monitor.h"
#include "sim/coherence.h"
#include "sim/machine.h"
#include "sim/ssb.h"
#include "util/rng.h"

using namespace laser;
using namespace laser::isa;

static void
BM_SsbPut(benchmark::State &state)
{
    sim::SoftwareStoreBuffer ssb;
    std::vector<sim::SsbEntry> drained;
    std::uint64_t addr = 0x1000;
    std::uint64_t seq = 0;
    for (auto _ : state) {
        ssb.put(addr, 8, seq, ++seq);
        addr = 0x1000 + (seq % 8) * 8; // stay within the flush cap
        if (ssb.entryCount() > 8) {
            ssb.drain(&drained);
            benchmark::DoNotOptimize(drained.data());
        }
    }
}
BENCHMARK(BM_SsbPut);

static void
BM_SsbLookup(benchmark::State &state)
{
    sim::SoftwareStoreBuffer ssb;
    for (int i = 0; i < 8; ++i)
        ssb.put(0x1000 + i * 8, 8, i, i + 1);
    std::uint64_t v = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ssb.getFull(0x1000 + (i++ % 16) * 8, 8, &v));
    }
}
BENCHMARK(BM_SsbLookup);

static void
BM_SsbFlushDrain(benchmark::State &state)
{
    const int entries = static_cast<int>(state.range(0));
    std::vector<sim::SsbEntry> drained;
    for (auto _ : state) {
        state.PauseTiming();
        sim::SoftwareStoreBuffer ssb;
        for (int i = 0; i < entries; ++i)
            ssb.put(0x1000 + i * 8, 8, i, i + 1);
        state.ResumeTiming();
        ssb.drain(&drained);
        benchmark::DoNotOptimize(drained.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_SsbFlushDrain)->Arg(8)->Arg(64)->Arg(512);

static void
BM_CacheLineModel(benchmark::State &state)
{
    detect::CacheLineModel model;
    Rng rng(42);
    for (auto _ : state) {
        const std::uint64_t addr = 0x1000000 + rng.below(64) * 8;
        benchmark::DoNotOptimize(model.access(addr, 8, rng.chance(0.5)));
    }
}
BENCHMARK(BM_CacheLineModel);

static void
BM_CoherenceAccess(benchmark::State &state)
{
    sim::CoherenceDirectory dir(4);
    Rng rng(43);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dir.access(static_cast<int>(rng.below(4)),
                       0x1000 + rng.below(128) * 8, rng.chance(0.4),
                       true));
    }
}
BENCHMARK(BM_CoherenceAccess);

namespace {

isa::Program
detectorProgram()
{
    Asm a("micro");
    a.store(R2, 0, R3, 8);
    a.load(R4, R2, 0, 8);
    a.halt();
    return a.finalize();
}

} // namespace

static void
BM_DetectorPipeline(benchmark::State &state)
{
    isa::Program prog = detectorProgram();
    mem::AddressSpace space(prog, 4);
    sim::TimingModel timing;
    const detect::DetectorContext ctx(prog, space, space.renderProcMaps(),
                                      timing);
    detect::DetectorPipeline det(ctx);
    Rng rng(44);
    pebs::PebsRecord rec;
    for (auto _ : state) {
        rec.pc = space.indexToPc(static_cast<std::uint32_t>(
            rng.below(prog.size())));
        rec.dataAddr = 0x1000000 + rng.below(16) * 8;
        rec.cycle = 1000;
        det.onRecord(rec);
    }
}
BENCHMARK(BM_DetectorPipeline);

static void
BM_InterpreterThroughput(benchmark::State &state)
{
    // Instructions-per-second of the simulator on a tight loop.
    for (auto _ : state) {
        Asm a("loop");
        a.movi(R2, 20000);
        Asm::Label l = a.here();
        a.addi(R3, R3, 1);
        a.subi(R2, R2, 1);
        a.bne(R2, R0, l);
        a.halt();
        sim::Machine m(a.finalize());
        sim::MachineStats s = m.run();
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(s.instructions));
    }
}
BENCHMARK(BM_InterpreterThroughput);

// Expanded BENCHMARK_MAIN so the run also emits BENCH_micro_components
// telemetry (per-benchmark wall times land in the registry snapshot via
// span histograms recorded by the instrumented components themselves).
int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    obs::BenchReport telemetry("micro_components");
    const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    telemetry.results().set("benchmarks_run",
                            obs::Json(std::uint64_t(ran)));
    telemetry.write();
    return 0;
}
