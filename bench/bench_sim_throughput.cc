/**
 * @file
 * Simulator throughput: simulated instructions per host second and host
 * nanoseconds per simulated instruction, for five fixed configurations
 * that between them drive every interpreter path:
 *
 *   native, VTune, Sheriff-Protect  MESI, 64 B lines, 35 workloads, scale 1
 *   laser-detect                    Dragon, 128 B lines, 35 workloads, scale 1
 *   laser                           MESI, 64 B lines, 9 known bugs, scale 4
 *
 * Only Machine::run is timed; building, detection and repair are not.
 * The laser configuration includes the repaired re-run whenever repair
 * applies. Each configuration runs twice, and the bench exits non-zero
 * unless both runs give identical MachineStats for every machine: the
 * simulator must be deterministic for a fixed seed.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/sheriff.h"
#include "baselines/vtune.h"
#include "bench_common.h"
#include "detect/pipeline.h"
#include "pebs/monitor.h"
#include "repair/repairer.h"
#include "sim/machine.h"

using namespace laser;

namespace {

using core::Scheme;

struct Config
{
    std::string name;
    Scheme scheme;
    sim::ProtocolKind protocol;
    std::uint32_t lineBytes;
    double scale;
    std::vector<const workloads::WorkloadDef *> defs;
};

/** Every machine run of one pass over a configuration. */
struct Pass
{
    std::vector<sim::MachineStats> stats;
    std::uint64_t instructions = 0;
    double runSeconds = 0;
};

class Runner
{
  public:
    explicit Runner(const Config &c) : c_(c)
    {
        mc_.protocol = c.protocol;
        mc_.geometry.lineBytes = c.lineBytes;
        mc_.timing = ec_.timing;
        mc_.numCores = ec_.numThreads;
        mc_.seed = ec_.machineSeed;
    }

    Pass
    pass()
    {
        Pass p;
        for (const workloads::WorkloadDef *def : c_.defs)
            runOne(*def, &p);
        return p;
    }

  private:
    workloads::BuildOptions
    options(double scale, std::uint64_t heap_shift) const
    {
        workloads::BuildOptions b;
        b.numThreads = ec_.numThreads;
        b.inputSeed = ec_.inputSeed;
        b.heapPerturbation = heap_shift;
        b.scale = scale;
        return b;
    }

    void
    timedRun(sim::Machine &m, Pass *p) const
    {
        const auto t0 = std::chrono::steady_clock::now();
        const sim::MachineStats s = m.run();
        p->runSeconds += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        p->instructions += s.instructions;
        p->stats.push_back(s);
    }

    void
    runOne(const workloads::WorkloadDef &def, Pass *p) const
    {
        double scale = c_.scale;
        sim::MachineConfig mc = mc_;
        if (c_.scheme == Scheme::SheriffProtect) {
            switch (def.info.sheriff) {
              case workloads::SheriffCompat::Crash:
              case workloads::SheriffCompat::Incompatible:
                return;
              case workloads::SheriffCompat::WorksSmallInput:
                scale *= ec_.sheriffSmallScale;
                break;
              case workloads::SheriffCompat::Works:
                break;
            }
            mc.threadsAsProcesses = true;
            mc.trackDirtyPages = true;
        }
        const bool laser = c_.scheme == Scheme::Laser ||
                           c_.scheme == Scheme::LaserDetectOnly;
        const std::uint64_t shift = laser ? ec_.laserHeapShift : 0;
        workloads::WorkloadBuild build = def.build(options(scale, shift));
        sim::Machine m(std::move(build.program), mc);
        build.applyTo(m);

        switch (c_.scheme) {
          case Scheme::VTune: {
            baselines::VTuneModel vtune(m.program(), m.addressSpace(),
                                        ec_.timing, ec_.vtune);
            m.setPmuSink(&vtune);
            timedRun(m, p);
            return;
          }
          case Scheme::SheriffProtect: {
            baselines::SheriffConfig sc = ec_.sheriff;
            sc.detectMode = false;
            baselines::SheriffModel sheriff(sc, false);
            m.setPmuSink(&sheriff);
            timedRun(m, p);
            return;
          }
          case Scheme::Laser:
          case Scheme::LaserDetectOnly:
            runLaser(m, build, mc, p);
            return;
          default:
            timedRun(m, p);
            return;
        }
    }

    /** The monitored run, detection and, under Scheme::Laser, the
     *  repaired re-run when repair applies. */
    void
    runLaser(sim::Machine &m, workloads::WorkloadBuild &build,
             const sim::MachineConfig &mc, Pass *p) const
    {
        pebs::PebsConfig pc;
        pc.sav = ec_.sav;
        pebs::PebsMonitor monitor(m.addressSpace(), m.program().size(),
                                  ec_.timing, pc);
        m.setPmuSink(&monitor);
        timedRun(m, p);
        monitor.finish();
        if (c_.scheme != Scheme::Laser)
            return;

        detect::DetectorConfig dcfg = ec_.detector;
        dcfg.sav = ec_.sav;
        const detect::DetectorContext ctx(
            m.program(), m.addressSpace(),
            m.addressSpace().renderProcMaps(), ec_.timing,
            static_cast<int>(c_.lineBytes));
        detect::DetectorPipeline pipeline(ctx, dcfg);
        analysis::drainSorted(monitor.records(), pipeline);
        const detect::DetectionReport report =
            pipeline.finish(p->stats.back().cycles);
        if (!report.repairRequested)
            return;
        const repair::Repairer repairer(m.program(), ec_.repair);
        const repair::RepairPlan plan = repairer.analyze(report.repairPcs);
        if (!plan.applied)
            return;

        sim::MachineConfig rmc = mc;
        rmc.timing.base += ec_.timing.pinBaseOverhead;
        sim::Machine repaired(repairer.instrument(plan), rmc);
        build.applyTo(repaired);
        pebs::PebsMonitor rmonitor(repaired.addressSpace(),
                                   repaired.program().size(), ec_.timing,
                                   pc);
        repaired.setPmuSink(&rmonitor);
        timedRun(repaired, p);
    }

    const Config &c_;
    core::ExperimentConfig ec_;
    sim::MachineConfig mc_;
};

} // namespace

int
main()
{
    bench::banner("Simulator throughput", "the simulated runs behind "
                                          "Table 1 and Figs. 9-14");
    obs::BenchReport telemetry("sim_throughput");

    std::vector<const workloads::WorkloadDef *> all;
    for (const workloads::WorkloadDef &def : workloads::allWorkloads())
        all.push_back(&def);
    const sim::ProtocolKind mesi = sim::ProtocolKind::Mesi;
    const std::vector<Config> configs = {
        {"native", Scheme::Native, mesi, 64, 1.0, all},
        {"vtune", Scheme::VTune, mesi, 64, 1.0, all},
        {"sheriff-protect", Scheme::SheriffProtect, mesi, 64, 1.0, all},
        {"laser-detect dragon/128", Scheme::LaserDetectOnly,
         sim::ProtocolKind::Dragon, 128, 1.0, all},
        {"laser (9 bugs, scale 4)", Scheme::Laser, mesi, 64, 4.0,
         workloads::buggyWorkloads()},
    };

    TablePrinter table({"configuration", "machines", "instructions",
                        "run s", "Minsn/s", "ns/insn", "identical"});
    obs::Json rows = obs::Json::array();
    bool all_identical = true;
    std::uint64_t total_insns = 0;
    double total_s = 0;
    for (const Config &c : configs) {
        Runner runner(c);
        const Pass first = runner.pass();
        const Pass second = runner.pass();
        const bool identical = first.stats == second.stats;
        all_identical = all_identical && identical;
        // Report the faster pass: both did identical work.
        const Pass &best =
            second.runSeconds < first.runSeconds ? second : first;
        const double minsn = best.runSeconds > 0
                                 ? double(best.instructions) /
                                       best.runSeconds / 1e6
                                 : 0.0;
        const double ns = best.instructions > 0
                              ? best.runSeconds * 1e9 /
                                    double(best.instructions)
                              : 0.0;
        total_insns += best.instructions;
        total_s += best.runSeconds;
        table.addRow({c.name, fmtCount(best.stats.size()),
                      fmtCount(best.instructions),
                      fmtDouble(best.runSeconds, 3), fmtDouble(minsn, 1),
                      fmtDouble(ns, 2), identical ? "yes" : "NO"});
        obs::Json j = obs::Json::object();
        j.set("configuration", obs::Json(c.name));
        j.set("machines", obs::Json(std::uint64_t(best.stats.size())));
        j.set("instructions", obs::Json(best.instructions));
        j.set("run_seconds", obs::Json(best.runSeconds));
        j.set("minsn_per_s", obs::Json(minsn));
        j.set("ns_per_insn", obs::Json(ns));
        j.set("identical", obs::Json(identical));
        rows.push(std::move(j));
    }
    std::printf("%s", table.render().c_str());
    const double total_minsn =
        total_s > 0 ? double(total_insns) / total_s / 1e6 : 0.0;
    std::printf("\noverall: %.1f Minsn/s (%.2f ns/insn) over %s "
                "instructions\n",
                total_minsn,
                total_insns > 0 ? total_s * 1e9 / double(total_insns) : 0.0,
                fmtCount(total_insns).c_str());

    telemetry.results().set("configurations", std::move(rows));
    telemetry.results().set("minsn_per_s", obs::Json(total_minsn));
    telemetry.results().set("identical", obs::Json(all_identical));
    bench::writeTelemetry(telemetry, nullptr);

    if (!all_identical) {
        std::printf("FAIL: two runs of one configuration gave different "
                    "MachineStats\n");
        return 1;
    }
    return 0;
}
