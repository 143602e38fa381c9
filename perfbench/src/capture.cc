/**
 * @file
 * The two capture workloads: monitored runs of the simulated machine,
 * each followed by online detection (and, under Scheme::Laser, repair
 * and the repaired re-run).
 *
 * Untraced passes call core::ExperimentRunner::run, the product's own
 * path. Traced passes run the same steps as ExperimentRunner, call by
 * call, from here, so a span can sit around each layer; the
 * verification pass runs both and fails the operation unless their
 * digests agree, which keeps the traced composition honest.
 */

#include <algorithm>
#include <stdexcept>

#include "bench.h"
#include "core/accuracy.h"
#include "core/experiment.h"
#include "detect/pipeline.h"
#include "digest.h"
#include "pebs/monitor.h"
#include "repair/repairer.h"
#include "trace/capture.h"
#include "trace/replay.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

using laser::core::Scheme;
namespace core = laser::core;
namespace sim = laser::sim;
namespace wl = laser::workloads;

/** One capture operation: a workload under one scheme and fabric. */
struct CaptureOp
{
    const wl::WorkloadDef *def;
    Scheme scheme;
    sim::ProtocolKind protocol;
    std::uint32_t lineBytes;
    double scale;
};

bool
isLaser(Scheme s)
{
    return s == Scheme::Laser || s == Scheme::LaserDetectOnly;
}

void
countStats(Counts &c, const sim::Machine &m, const sim::MachineStats &s)
{
    c["sim.instructions"] += double(s.instructions);
    c["sim.accesses"] += double(s.loads + s.stores + s.atomics);
    c["sim.l1_hits"] += double(s.l1Hits);
    c["sim.hitm"] += double(s.hitmTotal());
    c["sim.llc_hits"] += double(s.llcHits);
    c["sim.mem_misses"] += double(s.memMisses);
    c["sim.ssb_flushes"] += double(s.ssbFlushes);
    c["sim.lines_touched"] += double(m.protocol().linesTouched());
    c["mem.pages_touched"] += double(m.memory().pagesTouched());
}

void
countPebs(Counts &c, const laser::pebs::PebsStats &s)
{
    c["pebs.hitm_events"] += double(s.hitmEvents);
    c["pebs.samples"] += double(s.samples);
    c["pebs.interrupts"] += double(s.interrupts);
}

class CaptureWorkload final : public Workload
{
  public:
    CaptureWorkload(const Options &opt, std::vector<CaptureOp> ops)
        : opt_(opt), ops_(std::move(ops))
    {
        cfg_.inputSeed = 0x5eed + opt.seed * 0x9e3779b97f4a7c15ULL;
        cfg_.machineSeed = 0x1a5e2 + opt.seed * 0xbf58476d1ce4e5b9ULL;
    }

    /**
     * Set-up builds every operation's program and input image: the
     * inputs a user prepares before the capture runs.
     */
    void
    setUp() override
    {
        std::size_t insns = 0;
        for (const CaptureOp &op : ops_)
            insns += op.def->build(buildOptions(op.scale, 0))
                         .program.size();
        if (insns == 0)
            throw std::runtime_error("set-up built empty programs");
    }

    std::size_t ops() const override { return ops_.size(); }

    OpResult
    run(std::size_t i, bool verify, Tracer &tracer, Counts &counts,
        Quality &quality) override
    {
        const CaptureOp &op = ops_[i];
        OpResult out;
        if (!verify) {
            HashSink stream;
            const core::RunResult r =
                tracer.on() ? composed(op, tracer, counts, &stream)
                            : product(op, &stream);
            out.digest = hashRun(r, stream.value());
            counts["records"] += double(stream.count());
            return out;
        }

        VectorSink captured;
        const core::RunResult live = product(op, &captured);
        HashSink live_stream;
        laser::analysis::drain(captured.records, live_stream);
        out.digest = hashRun(live, live_stream.value());

        HashSink composed_stream;
        const double insns_before = counts["sim.instructions"];
        const core::RunResult again =
            composed(op, tracer, counts, &composed_stream);
        counts["records"] += double(composed_stream.count());
        quality.simInstructions += static_cast<std::uint64_t>(
            counts["sim.instructions"] - insns_before);
        if (hashRun(again, composed_stream.value()) != out.digest)
            out.failure = "traced composition differs from "
                          "ExperimentRunner";

        quality.modeledCycles += live.runtimeCycles;
        if (isLaser(op.scheme)) {
            const core::AccuracyResult acc = core::evaluateAccuracy(
                op.def->info, core::reportLocations(live.detection));
            quality.falseNegatives += acc.falseNegatives;
            quality.falsePositives += acc.falsePositives;
            if (out.failure.empty())
                out.failure = checkReplay(op, live, captured.records);
        }
        return out;
    }

  private:
    wl::BuildOptions
    buildOptions(double scale, std::uint64_t heap_shift) const
    {
        wl::BuildOptions b;
        b.heapPerturbation = heap_shift;
        b.numThreads = cfg_.numThreads;
        b.inputSeed = cfg_.inputSeed;
        b.scale = scale;
        return b;
    }

    core::ExperimentConfig
    config(const CaptureOp &op, laser::analysis::RecordSink *capture) const
    {
        core::ExperimentConfig cfg = cfg_;
        cfg.protocol = op.protocol;
        cfg.geometry.lineBytes = op.lineBytes;
        cfg.captureSink = capture;
        return cfg;
    }

    /** The product path. */
    core::RunResult
    product(const CaptureOp &op, laser::analysis::RecordSink *capture) const
    {
        core::ExperimentRunner runner(config(op, capture));
        return runner.run(*op.def, op.scheme, op.scale);
    }

    sim::MachineConfig
    machineConfig(const core::ExperimentConfig &cfg) const
    {
        sim::MachineConfig mc;
        mc.numCores = cfg.numThreads;
        mc.timing = cfg.timing;
        mc.protocol = cfg.protocol;
        mc.geometry = cfg.geometry;
        mc.seed = cfg.machineSeed;
        return mc;
    }

    /**
     * ExperimentRunner::run's steps, one layer call at a time, with a
     * span around each call and the PMU sink wrapped in a TimedSink.
     */
    core::RunResult
    composed(const CaptureOp &op, Tracer &tr, Counts &c,
             laser::analysis::RecordSink *capture) const
    {
        const core::ExperimentConfig cfg = config(op, capture);
        core::RunResult r;
        r.scheme = op.scheme;
        double scale = op.scale;
        if (op.scheme == Scheme::SheriffProtect) {
            switch (op.def->info.sheriff) {
              case wl::SheriffCompat::Crash:
                r.crashed = true;
                r.crashReason = "runtime error";
                return r;
              case wl::SheriffCompat::Incompatible:
                r.crashed = true;
                r.crashReason = "unsupported pthreads/OpenMP constructs";
                return r;
              case wl::SheriffCompat::WorksSmallInput:
                scale *= cfg.sheriffSmallScale;
                break;
              case wl::SheriffCompat::Works:
                break;
            }
        }
        const std::uint64_t shift =
            isLaser(op.scheme) ? cfg.laserHeapShift : 0;
        wl::WorkloadBuild build;
        {
            auto s = tr.span("workloads.build");
            build = op.def->build(buildOptions(scale, shift));
        }
        sim::MachineConfig mc = machineConfig(cfg);
        if (op.scheme == Scheme::SheriffProtect) {
            mc.threadsAsProcesses = true;
            mc.trackDirtyPages = true;
        }
        sim::Machine machine(std::move(build.program), mc);
        build.applyTo(machine);

        laser::analysis::TeeSink tee;
        if (capture)
            tee.add(capture);
        switch (op.scheme) {
          case Scheme::Native:
            {
                auto s = tr.span("sim.run");
                r.stats = machine.run();
            }
            countStats(c, machine, r.stats);
            r.runtimeCycles = r.stats.cycles;
            break;
          case Scheme::VTune: {
            laser::baselines::VTuneModel vtune(machine.program(),
                                               machine.addressSpace(),
                                               cfg.timing, cfg.vtune);
            TimedSink timed(vtune, TimedSink::kHitm | TimedSink::kMemop);
            machine.setPmuSink(&timed);
            {
                auto s = tr.span("sim.run");
                r.stats = machine.run();
                tr.aggregate("baselines.sink", timed.ns());
            }
            {
                auto s = tr.span("baselines.sink");
                r.vtune = vtune.finish(r.stats.cycles);
            }
            c["baselines.memops"] += double(timed.memops());
            countStats(c, machine, r.stats);
            r.runtimeCycles = r.stats.cycles;
            if (capture)
                laser::analysis::drainSorted(vtune.records(), tee);
            break;
          }
          case Scheme::SheriffProtect: {
            laser::baselines::SheriffConfig sc = cfg.sheriff;
            sc.detectMode = false;
            laser::baselines::SheriffModel sheriff(sc, capture != nullptr);
            TimedSink timed(sheriff, TimedSink::kSync);
            machine.setPmuSink(&timed);
            {
                auto s = tr.span("sim.run");
                r.stats = machine.run();
                tr.aggregate("baselines.sink", timed.ns());
            }
            r.sheriff = sheriff.finish();
            c["baselines.syncs"] += double(timed.syncs());
            countStats(c, machine, r.stats);
            r.runtimeCycles = r.stats.cycles;
            if (capture)
                laser::analysis::drainSorted(sheriff.records(), tee);
            break;
          }
          case Scheme::Laser:
          case Scheme::LaserDetectOnly:
            runLaser(op, cfg, mc, machine, tr, c, tee, &r);
            break;
          default:
            throw std::logic_error("scheme not in the benchmark");
        }
        return r;
    }

    void
    runLaser(const CaptureOp &op, const core::ExperimentConfig &cfg,
             const sim::MachineConfig &mc, sim::Machine &machine,
             Tracer &tr, Counts &c, laser::analysis::TeeSink &capture,
             core::RunResult *r) const
    {
        laser::pebs::PebsConfig pc;
        pc.sav = cfg.sav;
        laser::pebs::PebsMonitor monitor(machine.addressSpace(),
                                         machine.program().size(),
                                         cfg.timing, pc);
        TimedSink timed(monitor, TimedSink::kHitm);
        machine.setPmuSink(&timed);
        {
            auto s = tr.span("sim.run");
            r->stats = machine.run();
            tr.aggregate("pebs.sink", timed.ns());
        }
        {
            auto s = tr.span("pebs.sink");
            monitor.finish();
        }
        r->pebs = monitor.stats();
        countStats(c, machine, r->stats);
        countPebs(c, r->pebs);

        {
            auto s = tr.span("detect");
            laser::detect::DetectorConfig dcfg = cfg.detector;
            dcfg.sav = cfg.sav;
            const laser::detect::DetectorContext ctx(
                machine.program(), machine.addressSpace(),
                machine.addressSpace().renderProcMaps(), cfg.timing,
                static_cast<int>(cfg.geometry.lineBytes));
            laser::detect::DetectorPipeline pipeline(ctx, dcfg);
            laser::analysis::TeeSink tee;
            tee.add(&pipeline);
            tee.add(&capture);
            laser::analysis::drainSorted(monitor.records(), tee);
            r->detection = pipeline.finish(r->stats.cycles);
        }
        c["detect.records"] += double(r->detection.totalRecords);
        c["detect.dropped"] += double(r->detection.droppedPcFilter +
                                      r->detection.droppedStackData);
        r->runtimeCycles = r->stats.cycles;
        if (op.scheme != Scheme::Laser || !r->detection.repairRequested)
            return;

        c["repair.requests"] += 1;
        const laser::repair::Repairer repairer(machine.program(),
                                               cfg.repair);
        {
            auto s = tr.span("repair.analyze");
            r->plan = repairer.analyze(r->detection.repairPcs);
        }
        if (!r->plan.applied)
            return;
        c["repair.applied"] += 1;

        laser::isa::Program instrumented;
        {
            auto s = tr.span("repair.instrument");
            instrumented = repairer.instrument(r->plan);
        }
        auto rerun_span = tr.span("repair.rerun");
        sim::MachineConfig rmc = mc;
        rmc.timing.base += cfg.timing.pinBaseOverhead;
        wl::WorkloadBuild rebuild;
        {
            auto s = tr.span("workloads.build");
            rebuild = op.def->build(
                buildOptions(op.scale, cfg.laserHeapShift));
        }
        sim::Machine repaired(std::move(instrumented), rmc);
        rebuild.applyTo(repaired);
        laser::pebs::PebsMonitor rmonitor(repaired.addressSpace(),
                                          repaired.program().size(),
                                          cfg.timing, pc);
        TimedSink rtimed(rmonitor, TimedSink::kHitm);
        repaired.setPmuSink(&rtimed);
        sim::MachineStats rstats;
        {
            auto s = tr.span("sim.run");
            rstats = repaired.run();
            tr.aggregate("pebs.sink", rtimed.ns());
        }
        {
            auto s = tr.span("pebs.sink");
            rmonitor.finish();
        }
        countStats(c, repaired, rstats);
        countPebs(c, rmonitor.stats());

        r->repairApplied = true;
        const double f =
            r->stats.cycles == 0
                ? 1.0
                : std::min(1.0, double(r->detection.repairTriggerCycle) /
                                    double(r->stats.cycles));
        r->repairTriggerFraction = f;
        r->runtimeCycles = static_cast<std::uint64_t>(
            f * double(r->stats.cycles) + double(cfg.timing.pinAttachCost) +
            (1.0 - f) * double(rstats.cycles));
    }

    /**
     * The live detection report must equal a replay of the record
     * stream the run captured through ExperimentConfig::captureSink.
     */
    std::string
    checkReplay(const CaptureOp &op, const core::RunResult &live,
                const std::vector<laser::pebs::PebsRecord> &records) const
    {
        laser::trace::CaptureOptions co =
            laser::trace::CaptureOptions::forScheme("laser-detect");
        co.sav = cfg_.sav;
        co.machineSeed = cfg_.machineSeed;
        co.heapShift = cfg_.laserHeapShift;
        co.numThreads = cfg_.numThreads;
        co.inputSeed = cfg_.inputSeed;
        co.scale = op.scale;
        co.protocol = op.protocol;
        co.geometry.lineBytes = op.lineBytes;
        laser::trace::Trace t;
        t.meta = laser::trace::makeCaptureMeta(*op.def, co);
        t.meta.stats = live.stats;
        t.meta.runtimeCycles = live.stats.cycles;
        {
            const wl::WorkloadBuild b = op.def->build(t.meta.build);
            t.meta.mapsText =
                laser::mem::AddressSpace(b.program, co.numThreads)
                    .renderProcMaps();
        }
        t.records = records;
        const laser::trace::TraceReplayer env(t);
        if (!env.ok())
            return "replay environment: " + env.error();
        laser::detect::DetectorConfig dcfg = cfg_.detector;
        dcfg.sav = cfg_.sav;
        laser::detect::DetectionReport replayed = env.replay(dcfg);
        if (opt_.inject == "report")
            replayed.totalRecords += 1;
        if (!laser::detect::reportsIdentical(live.detection, replayed))
            return "live report differs from replay of its stream";
        return "";
    }

    Options opt_;
    std::vector<CaptureOp> ops_;
    core::ExperimentConfig cfg_;
};

} // namespace

std::unique_ptr<Workload>
makeCaptureSharing(const Options &opt)
{
    std::vector<CaptureOp> ops;
    for (const wl::WorkloadDef *def : wl::buggyWorkloads())
        ops.push_back({def, Scheme::Laser, sim::ProtocolKind::Mesi, 64,
                       4.0 * opt.scaleMult});
    return std::make_unique<CaptureWorkload>(opt, std::move(ops));
}

std::unique_ptr<Workload>
makeCaptureBreadth(const Options &opt)
{
    std::vector<CaptureOp> ops;
    const double scale = 1.0 * opt.scaleMult;
    for (const wl::WorkloadDef &def : wl::allWorkloads()) {
        for (Scheme s :
             {Scheme::Native, Scheme::VTune, Scheme::SheriffProtect})
            ops.push_back({&def, s, sim::ProtocolKind::Mesi, 64, scale});
        ops.push_back({&def, Scheme::LaserDetectOnly,
                       sim::ProtocolKind::Dragon, 128, scale});
    }
    return std::make_unique<CaptureWorkload>(opt, std::move(ops));
}

} // namespace perfbench
