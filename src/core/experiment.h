/**
 * @file
 * Experiment harness: runs a workload under one of the evaluated schemes
 * and produces runtime + detection results (the machinery behind every
 * table and figure of Section 7).
 *
 * Schemes:
 *  - Native: no monitoring (the normalization baseline).
 *  - Laser: the full system (Figure 8). The detector process forks the
 *    application; the fork/attach shifts the initial heap break (the
 *    lu_ncb layout coincidence). PEBS monitoring runs with SAV=19; if
 *    the online rate check requests repair, the run is re-executed with
 *    the Pin-instrumented binary and the modeled runtime composes the
 *    pre-trigger monitored phase, the Pin attach cost and the repaired
 *    remainder.
 *  - LaserDetectOnly: monitoring without repair (overhead studies).
 *  - VTune: interrupt-per-event profiling baseline.
 *  - SheriffDetect / SheriffProtect: threads-as-processes baselines
 *    (subject to the Table 1 compatibility matrix).
 *  - ManualFix: the source-level fix guided by LASER's report.
 */

#ifndef LASER_CORE_EXPERIMENT_H
#define LASER_CORE_EXPERIMENT_H

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/sink.h"
#include "baselines/sheriff.h"
#include "baselines/vtune.h"
#include "detect/detector.h"
#include "pebs/monitor.h"
#include "repair/repairer.h"
#include "sim/machine.h"
#include "workloads/workload.h"

namespace laser::core {

/** Evaluated system configuration. */
enum class Scheme : std::uint8_t {
    Native,
    Laser,
    LaserDetectOnly,
    VTune,
    SheriffDetect,
    SheriffProtect,
    ManualFix,
};

const char *schemeName(Scheme scheme);

/** Harness configuration. */
struct ExperimentConfig
{
    std::uint32_t sav = 19;
    detect::DetectorConfig detector{};
    repair::RepairConfig repair{};
    sim::TimingModel timing{};
    /** Coherence backend the simulated machine runs (protocol sweeps). */
    sim::ProtocolKind protocol = sim::ProtocolKind::Mesi;
    /** Simulated cache geometry; lineBytes also drives the detector. */
    sim::CacheGeometry geometry{};
    baselines::VTuneConfig vtune{};
    baselines::SheriffConfig sheriff{};
    int numThreads = 4;
    /** Heap shift introduced by the LASER fork/attach (Section 7.4.2). */
    std::uint64_t laserHeapShift = 48;
    /** Input scale used when Sheriff needs simlarge (Figure 14 "*"). */
    double sheriffSmallScale = 0.4;
    std::uint64_t inputSeed = 0x5eed;
    /** Machine timing-jitter seed (vary to average across "runs"). */
    std::uint64_t machineSeed = 0x1a5e2;
    /**
     * Optional tee: each run's canonical analysis-record stream (the
     * LASER PEBS samples, the VTune interrupt-per-event stream, the
     * Sheriff sync commits — in cycle order) is also driven into this
     * sink. Point it at a trace::TraceWriter to capture any scheme's
     * run for offline replay. Not owned; must outlive the runner calls.
     */
    analysis::RecordSink *captureSink = nullptr;
};

/** Result of one run. */
struct RunResult
{
    Scheme scheme = Scheme::Native;
    /** Modeled wall-clock runtime in cycles. */
    std::uint64_t runtimeCycles = 0;
    /** True when the scheme cannot run this workload (Sheriff). */
    bool crashed = false;
    /** Why it crashed ("x") or is incompatible ("i"). */
    std::string crashReason;

    sim::MachineStats stats;
    pebs::PebsStats pebs;
    detect::DetectionReport detection;       ///< Laser schemes
    baselines::VTuneReport vtune;            ///< VTune scheme
    baselines::SheriffReport sheriff;        ///< Sheriff schemes
    repair::RepairPlan plan;                 ///< Laser (repair attempt)
    bool repairApplied = false;
    /** Fraction of the run before the repair trigger fired. */
    double repairTriggerFraction = 1.0;

    double seconds() const { return sim::representedSeconds(runtimeCycles); }
};

/** Runs workloads under schemes. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(ExperimentConfig cfg = {});

    /**
     * Run @p workload under @p scheme. @p scale overrides the input
     * scale (1.0 = native inputs).
     */
    RunResult run(const workloads::WorkloadDef &workload, Scheme scheme,
                  double scale = 1.0);

    const ExperimentConfig &config() const { return cfg_; }

  private:
    RunResult runNative(const workloads::WorkloadDef &w, double scale,
                        bool manual_fix);
    RunResult runLaser(const workloads::WorkloadDef &w, double scale,
                       bool with_repair);
    RunResult runVTune(const workloads::WorkloadDef &w, double scale);
    RunResult runSheriff(const workloads::WorkloadDef &w, double scale,
                         bool detect_mode);

    workloads::BuildOptions
    makeOptions(double scale, bool manual_fix,
                std::uint64_t heap_shift) const;

    /** The machine every scheme runs on: cores, timing, protocol,
     *  geometry and seed from the config. */
    sim::MachineConfig machineConfig() const;

    ExperimentConfig cfg_;
};

} // namespace laser::core

#endif // LASER_CORE_EXPERIMENT_H
