#include "core/experiment.h"

#include <algorithm>

#include "detect/pipeline.h"

namespace laser::core {

namespace {

/**
 * Drive a scheme's analysis stream in canonical cycle order into the
 * live analyzer and, when configured, the capture tee — the same
 * analysis::RecordSink plumbing trace replay uses.
 */
void
driveAnalysis(const std::vector<pebs::PebsRecord> &records,
              analysis::RecordSink *live, analysis::RecordSink *capture)
{
    analysis::TeeSink tee;
    if (live)
        tee.add(live);
    if (capture)
        tee.add(capture);
    analysis::drainSorted(records, tee);
}

} // namespace

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Native:          return "native";
      case Scheme::Laser:           return "laser";
      case Scheme::LaserDetectOnly: return "laser-detect";
      case Scheme::VTune:           return "vtune";
      case Scheme::SheriffDetect:   return "sheriff-detect";
      case Scheme::SheriffProtect:  return "sheriff-protect";
      case Scheme::ManualFix:       return "manual-fix";
    }
    return "???";
}

ExperimentRunner::ExperimentRunner(ExperimentConfig cfg) : cfg_(cfg)
{
    cfg_.detector.sav = cfg_.sav;
}

workloads::BuildOptions
ExperimentRunner::makeOptions(double scale, bool manual_fix,
                              std::uint64_t heap_shift) const
{
    workloads::BuildOptions opt;
    opt.manualFix = manual_fix;
    opt.heapPerturbation = heap_shift;
    opt.numThreads = cfg_.numThreads;
    opt.inputSeed = cfg_.inputSeed;
    opt.scale = scale;
    return opt;
}

sim::MachineConfig
ExperimentRunner::machineConfig() const
{
    sim::MachineConfig mc;
    mc.numCores = cfg_.numThreads;
    mc.timing = cfg_.timing;
    mc.protocol = cfg_.protocol;
    mc.geometry = cfg_.geometry;
    mc.seed = cfg_.machineSeed;
    return mc;
}

RunResult
ExperimentRunner::run(const workloads::WorkloadDef &workload,
                      Scheme scheme, double scale)
{
    switch (scheme) {
      case Scheme::Native:
        return runNative(workload, scale, false);
      case Scheme::ManualFix:
        return runNative(workload, scale, true);
      case Scheme::Laser:
        return runLaser(workload, scale, true);
      case Scheme::LaserDetectOnly:
        return runLaser(workload, scale, false);
      case Scheme::VTune:
        return runVTune(workload, scale);
      case Scheme::SheriffDetect:
        return runSheriff(workload, scale, true);
      case Scheme::SheriffProtect:
        return runSheriff(workload, scale, false);
    }
    return {};
}

RunResult
ExperimentRunner::runNative(const workloads::WorkloadDef &w, double scale,
                            bool manual_fix)
{
    RunResult result;
    result.scheme = manual_fix ? Scheme::ManualFix : Scheme::Native;

    workloads::WorkloadBuild build =
        w.build(makeOptions(scale, manual_fix, 0));
    sim::Machine machine(std::move(build.program), machineConfig());
    build.applyTo(machine);
    result.stats = machine.run();
    result.runtimeCycles = result.stats.cycles;
    return result;
}

RunResult
ExperimentRunner::runLaser(const workloads::WorkloadDef &w, double scale,
                           bool with_repair)
{
    RunResult result;
    result.scheme = with_repair ? Scheme::Laser : Scheme::LaserDetectOnly;

    // Phase 1: monitored run. The detector forks the application, which
    // shifts the heap layout (Section 7.4.2).
    workloads::WorkloadBuild build =
        w.build(makeOptions(scale, false, cfg_.laserHeapShift));
    const sim::MachineConfig mc = machineConfig();
    sim::Machine machine(std::move(build.program), mc);
    build.applyTo(machine);

    pebs::PebsConfig pc;
    pc.sav = cfg_.sav;
    pebs::PebsMonitor monitor(machine.addressSpace(),
                              machine.program().size(), cfg_.timing, pc);
    machine.setPmuSink(&monitor);
    result.stats = machine.run();
    monitor.finish();
    result.pebs = monitor.stats();

    // LASERDETECT consumes the stream through the scheme-agnostic sink
    // interface — the identical pipeline a trace replay drives.
    detect::DetectorContext ctx(machine.program(),
                                machine.addressSpace(),
                                machine.addressSpace().renderProcMaps(),
                                cfg_.timing,
                                static_cast<int>(cfg_.geometry.lineBytes));
    detect::DetectorPipeline pipeline(ctx, cfg_.detector);
    driveAnalysis(monitor.records(), &pipeline, cfg_.captureSink);
    result.detection = pipeline.finish(result.stats.cycles);
    result.runtimeCycles = result.stats.cycles;

    if (!with_repair || !result.detection.repairRequested)
        return result;

    // Phase 2: repair attempt. LASERREPAIR analyzes the binary at the
    // contending PCs; if the plan is profitable, the remainder of the
    // execution runs Pin-instrumented.
    repair::Repairer repairer(machine.program(), cfg_.repair);
    result.plan = repairer.analyze(result.detection.repairPcs);
    if (!result.plan.applied)
        return result;

    isa::Program instrumented = repairer.instrument(result.plan);
    sim::MachineConfig rmc = mc;
    rmc.timing.base += cfg_.timing.pinBaseOverhead;
    // The re-run starts from the same initial memory image: phase 1's
    // build options are identical, so the image phase 1 synthesized
    // serves unchanged.
    sim::Machine repaired(std::move(instrumented), rmc);
    build.applyTo(repaired);
    pebs::PebsMonitor rmonitor(repaired.addressSpace(),
                               repaired.program().size(), cfg_.timing,
                               pc);
    repaired.setPmuSink(&rmonitor);
    const sim::MachineStats rstats = repaired.run();
    rmonitor.finish();

    result.repairApplied = true;
    const double f =
        result.stats.cycles == 0
            ? 1.0
            : std::min(1.0, double(result.detection.repairTriggerCycle) /
                                double(result.stats.cycles));
    result.repairTriggerFraction = f;
    result.runtimeCycles = static_cast<std::uint64_t>(
        f * double(result.stats.cycles) +
        double(cfg_.timing.pinAttachCost) +
        (1.0 - f) * double(rstats.cycles));
    return result;
}

RunResult
ExperimentRunner::runVTune(const workloads::WorkloadDef &w, double scale)
{
    RunResult result;
    result.scheme = Scheme::VTune;

    workloads::WorkloadBuild build = w.build(makeOptions(scale, false, 0));
    sim::Machine machine(std::move(build.program), machineConfig());
    build.applyTo(machine);

    baselines::VTuneModel vtune(machine.program(), machine.addressSpace(),
                                cfg_.timing, cfg_.vtune);
    machine.setPmuSink(&vtune);
    result.stats = machine.run();
    result.vtune = vtune.finish(result.stats.cycles);
    result.runtimeCycles = result.stats.cycles;
    if (cfg_.captureSink)
        driveAnalysis(vtune.records(), nullptr, cfg_.captureSink);
    return result;
}

RunResult
ExperimentRunner::runSheriff(const workloads::WorkloadDef &w,
                             double scale, bool detect_mode)
{
    RunResult result;
    result.scheme =
        detect_mode ? Scheme::SheriffDetect : Scheme::SheriffProtect;

    switch (w.info.sheriff) {
      case workloads::SheriffCompat::Crash:
        result.crashed = true;
        result.crashReason = "runtime error";
        return result;
      case workloads::SheriffCompat::Incompatible:
        result.crashed = true;
        result.crashReason = "unsupported pthreads/OpenMP constructs";
        return result;
      case workloads::SheriffCompat::WorksSmallInput:
        scale *= cfg_.sheriffSmallScale;
        break;
      case workloads::SheriffCompat::Works:
        break;
    }

    workloads::WorkloadBuild build = w.build(makeOptions(scale, false, 0));
    sim::MachineConfig mc = machineConfig();
    mc.threadsAsProcesses = true;
    mc.trackDirtyPages = true;
    sim::Machine machine(std::move(build.program), mc);
    build.applyTo(machine);

    baselines::SheriffConfig sc = cfg_.sheriff;
    sc.detectMode = detect_mode;
    // Buffer the sync stream only when something will consume it.
    baselines::SheriffModel sheriff(sc, cfg_.captureSink != nullptr);
    machine.setPmuSink(&sheriff);
    result.stats = machine.run();
    result.sheriff = sheriff.finish();
    result.runtimeCycles = result.stats.cycles;
    if (cfg_.captureSink)
        driveAnalysis(sheriff.records(), nullptr, cfg_.captureSink);

    // Sheriff-Detect's object-granularity findings are encoded from
    // Table 1/2 (see DESIGN.md): when it catches a bug it reports the
    // object's allocation site, not the contending code.
    if (detect_mode && w.info.sheriffDetectsBug)
        result.sheriff.reportedSites.push_back(
            w.info.sheriffReportLocation);
    return result;
}

} // namespace laser::core
