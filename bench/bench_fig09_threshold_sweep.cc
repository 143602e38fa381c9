/**
 * @file
 * Figure 9 reproduction: effect of the rate threshold on detection
 * accuracy. One monitored run per workload — captured once through the
 * sweep runner's trace cache — and every sweep point is an offline
 * detector replay over the stored record stream (the paper notes
 * thresholds can be adjusted offline without rerunning the program).
 *
 * Paper shape: false positives fall steeply as the threshold rises
 * (log-scale x axis); false negatives appear only at high thresholds;
 * the 1K HITMs/sec default sits in the wide flat valley between them.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/sweep_runner.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"

using namespace laser;

namespace {

/**
 * Shard-parallel replay demo on the suite's biggest captured trace:
 * serial full-pipeline replays vs one sharded digest + per-config
 * scans, with the identity invariant enforced.
 */
void
shardedReplayDemo(core::SweepRunner &runner,
                  const std::vector<const workloads::WorkloadDef *> &defs,
                  const std::vector<double> &thresholds)
{
    std::shared_ptr<const trace::Trace> biggest;
    for (const auto *def : defs) {
        // A memory hit on the sweep's captureFile() slot, decoded.
        auto t = runner.capture(*def, {});
        if (!biggest || t->records.size() > biggest->records.size())
            biggest = t;
    }
    if (!biggest || biggest->records.empty())
        return;
    trace::TraceReplayer env(*biggest);
    if (!env.ok())
        return;

    const trace::ShardedReplayCheck check =
        trace::checkShardedReplay(env, thresholds, 4);
    if (!check.identical) {
        std::fprintf(stderr,
                     "INVARIANT VIOLATION: sharded replay differs from "
                     "serial at threshold %.0f\n",
                     check.mismatchThreshold);
        std::exit(1);
    }
    std::printf("\nShard-parallel replay (%s, %zu records): %d shards, "
                "%zu configs from one digest, reports identical to "
                "serial; serial %.1fms vs sharded %.1fms -> %.2fx "
                "speedup.\n",
                biggest->meta.workload.c_str(), biggest->records.size(),
                check.shards, thresholds.size(),
                1e3 * check.serialSeconds, 1e3 * check.shardedSeconds,
                check.speedup());
}

} // namespace

int
main()
{
    bench::banner("Rate-threshold sensitivity", "Figure 9");
    obs::BenchReport telemetry("fig09_threshold_sweep");

    std::vector<const workloads::WorkloadDef *> defs;
    for (const auto &w : workloads::allWorkloads())
        defs.push_back(&w);

    const std::vector<double> thresholds = {32,   64,   128,  256,
                                            512,  1000, 2000, 4000,
                                            8000, 16000, 32000, 64000};

    core::SweepRunner runner(bench::sweepConfig());
    const core::ThresholdSweepResult sweep =
        core::thresholdSweep(runner, defs, thresholds);

    TablePrinter table(
        {"threshold (HITM/s)", "false negatives", "false positives"});
    for (const core::ThresholdSweepRow &row : sweep.rows) {
        std::string marker =
            row.threshold == 1000 ? "  <- LASER default" : "";
        table.addRow({fmtDouble(row.threshold, 0) + marker,
                      std::to_string(row.falseNegatives),
                      std::to_string(row.falsePositives)});
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf("\nTrace cache: %llu simulations for %zu workloads, "
                "%zu sweep points served by digest-once/report-many "
                "replay (%d-shard digests, %d workers).\n",
                (unsigned long long)sweep.machineRuns, defs.size(),
                sweep.replays, sweep.shardsPerDigest, runner.workers());
    std::printf("Timing: capture %.2fs (%.1fms/sim), digest %.2fs, "
                "replay %.2fs (%.2fms/pass) -> replay speedup %.1fx vs "
                "re-simulating each sweep point.\n",
                sweep.captureSeconds,
                1e3 * sweep.captureSeconds /
                    double(sweep.machineRuns ? sweep.machineRuns : 1),
                sweep.digestSeconds, sweep.replaySeconds,
                1e3 * sweep.replaySeconds /
                    double(sweep.replays ? sweep.replays : 1),
                sweep.replaySpeedup());

    shardedReplayDemo(runner, defs, thresholds);

    std::printf("\nShape check (paper Fig. 9): FPs fall as the threshold "
                "rises (log scale); FNs appear only at the high end; the "
                "1K default sits in the flat valley.\n");

    obs::Json rows = obs::Json::array();
    for (const core::ThresholdSweepRow &row : sweep.rows) {
        obs::Json r = obs::Json::object();
        r.set("threshold", obs::Json(row.threshold));
        r.set("false_negatives", obs::Json(row.falseNegatives));
        r.set("false_positives", obs::Json(row.falsePositives));
        rows.push(std::move(r));
    }
    telemetry.results()
        .set("workloads", obs::Json(std::uint64_t(defs.size())))
        .set("sweep_points", obs::Json(std::uint64_t(sweep.replays)))
        .set("shards_per_digest", obs::Json(sweep.shardsPerDigest))
        .set("capture_seconds", obs::Json(sweep.captureSeconds))
        .set("digest_seconds", obs::Json(sweep.digestSeconds))
        .set("replay_seconds", obs::Json(sweep.replaySeconds))
        .set("replay_speedup", obs::Json(sweep.replaySpeedup()))
        .set("rows", std::move(rows));
    const core::SweepStats stats = runner.stats();
    bench::writeTelemetry(telemetry, &stats);

    // The demo's capture() calls must be served from the sweep's cache:
    // each workload simulated or loaded from disk exactly once.
    if (stats.machineRuns + stats.diskCacheHits != defs.size()) {
        std::fprintf(stderr,
                     "CACHE VIOLATION: %llu simulations + %llu disk hits "
                     "for %zu workloads (expected each exactly once)\n",
                     (unsigned long long)stats.machineRuns,
                     (unsigned long long)stats.diskCacheHits, defs.size());
        return 1;
    }
    return 0;
}
