/**
 * @file
 * The replay_sweep workload: offline re-analysis of captured traces,
 * with no simulation in the timed passes.
 *
 * Set-up captures the laser-detect trace of all 35 workloads into a
 * fresh disk trace cache. Each operation then takes one trace through
 * the offline path a threshold study uses (paper Section 4, Fig. 9):
 * open it from the cache, rebuild its replay environment, digest it
 * sharded, build the 12-point threshold grid of reports scored against
 * the known-bug database, and decode and re-encode the file strictly.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "core/accuracy.h"
#include "core/sweep_runner.h"
#include "digest.h"
#include "obs/metrics.h"
#include "trace/capture.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

namespace core = laser::core;
namespace trace = laser::trace;
namespace wl = laser::workloads;

/** The Fig. 9 grid, HITM events per second. */
const std::vector<double> kThresholds = {32,   64,    128,   256,
                                         512,  1000,  2000,  4000,
                                         8000, 16000, 32000, 64000};
constexpr double kDefaultThreshold = 1000;

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

class ReplaySweep final : public Workload
{
  public:
    explicit ReplaySweep(const Options &opt) : opt_(opt)
    {
        capture_ = trace::CaptureOptions::forScheme("laser-detect");
        capture_.inputSeed = 0x5eed + opt.seed * 0x9e3779b97f4a7c15ULL;
        capture_.machineSeed = 0x1a5e2 + opt.seed * 0xbf58476d1ce4e5b9ULL;
        capture_.scale = 8.0 * opt.scaleMult;
        for (const wl::WorkloadDef &def : wl::allWorkloads())
            defs_.push_back(&def);
        cacheDir_ = opt.outDir + "/replay_cache";
        shards_ = std::min(4, opt.workers);
    }

    /**
     * Capture every trace into a fresh, empty disk cache, one at a time
     * on the calling thread like the capture workloads' operations.
     */
    void
    setUp() override
    {
        runner_.reset();
        std::filesystem::remove_all(cacheDir_);
        std::filesystem::create_directories(cacheDir_);
        core::SweepRunner runner(runnerConfig(1));
        for (const wl::WorkloadDef *def : defs_)
            (void)runner.captureFile(*def, capture_);
        if (runner.stats().machineRuns != defs_.size())
            throw std::runtime_error("set-up did not capture every trace");
    }

    bool simulatesInSetUp() const override { return true; }

    std::size_t ops() const override { return defs_.size(); }

    /** Every pass opens the cache through a fresh runner. */
    void
    beginPass() override
    {
        runner_.reset();
        runner_ =
            std::make_unique<core::SweepRunner>(runnerConfig(opt_.workers));
    }

    OpResult
    run(std::size_t i, bool verify, Tracer &tr, Counts &c,
        Quality &quality) override
    {
        const wl::WorkloadDef &def = *defs_[i];
        OpResult out;
        Fnv h;
        const core::SweepStats before = runner_->stats();
        std::shared_ptr<const trace::TraceFile> file;
        {
            auto s = tr.span("trace.open");
            file = runner_->captureFile(def, capture_);
        }
        const core::SweepStats after = runner_->stats();
        c["core.machine_runs"] +=
            double(after.machineRuns - before.machineRuns);
        c["core.disk_hits"] +=
            double(after.diskCacheHits - before.diskCacheHits);
        if (after.machineRuns != before.machineRuns)
            return fail(out, "trace re-simulated instead of a disk hit");

        std::unique_ptr<trace::TraceReplayer> env;
        {
            auto s = tr.span("replay.env");
            env = std::make_unique<trace::TraceReplayer>(file->meta(),
                                                         *file);
        }
        if (!env->ok())
            return fail(out, "replay environment: " + env->error());

        laser::obs::Histogram &wait =
            laser::obs::Registry::global().histogram(
                "pool.queue_wait_seconds");
        laser::obs::Counter &blocks =
            laser::obs::Registry::global().counter(
                "trace.file.blocks_decoded");
        const double wait_before = wait.data().sum;
        const std::uint64_t blocks_before = blocks.value();
        std::unique_ptr<trace::ParallelReplayer> sharded;
        {
            auto s = tr.span("replay.digest");
            trace::ParallelReplayer::Options po;
            po.shards = shards_;
            po.pool = &runner_->pool();
            sharded = std::make_unique<trace::ParallelReplayer>(*env, po);
        }
        c["replay.pool_wait_s"] += wait.data().sum - wait_before;

        laser::detect::DetectionReport at_default;
        {
            auto s = tr.span("replay.report");
            for (double t : kThresholds) {
                laser::detect::DetectorConfig cfg;
                cfg.rateThreshold = t;
                cfg.sav = capture_.sav;
                laser::detect::DetectionReport rep = sharded->replay(cfg);
                const core::AccuracyResult acc = core::evaluateAccuracy(
                    def.info, core::reportLocations(rep));
                hashReport(h, rep);
                h.u64(static_cast<std::uint64_t>(acc.falseNegatives));
                h.u64(static_cast<std::uint64_t>(acc.falsePositives));
                if (t == kDefaultThreshold) {
                    at_default = std::move(rep);
                    if (verify) {
                        quality.falseNegatives += acc.falseNegatives;
                        quality.falsePositives += acc.falsePositives;
                    }
                }
            }
        }

        // Every operation checks the sharded digest against a serial
        // detector replay at the default threshold.
        laser::detect::DetectionReport serial;
        {
            auto s = tr.span("detect");
            laser::detect::DetectorConfig cfg;
            cfg.rateThreshold = kDefaultThreshold;
            cfg.sav = capture_.sav;
            serial = env->replay(cfg);
        }
        c["detect.records"] += double(serial.totalRecords);
        c["detect.dropped"] +=
            double(serial.droppedPcFilter + serial.droppedStackData);
        c["trace.blocks_decoded"] += double(blocks.value() - blocks_before);
        if (opt_.inject == "report")
            serial.totalRecords += 1;
        if (!laser::detect::reportsIdentical(serial, at_default))
            return fail(out, "sharded replay differs from serial replay");

        std::vector<std::uint8_t> bytes;
        {
            auto s = tr.span("trace.read");
            bytes = readFile(runner_->cachePath(file->storedConfigHash()));
        }
        if (opt_.inject == "flip-byte" && !bytes.empty())
            bytes[bytes.size() / 2] ^= 0x40;
        trace::TraceReader reader;
        trace::TraceStatus status;
        {
            auto s = tr.span("trace.decode");
            status = reader.parse(bytes);
        }
        if (status != trace::TraceStatus::Ok)
            return fail(out, std::string("strict decode: ") +
                                 trace::traceStatusName(status));
        std::vector<std::uint8_t> encoded;
        {
            auto s = tr.span("trace.encode");
            trace::TraceWriter writer(reader.trace().meta);
            writer.appendAll(reader.trace().records);
            encoded = writer.finalize();
        }
        if (encoded != bytes)
            return fail(out, "re-encoded trace differs from the file");
        c["trace.bytes"] += double(bytes.size());
        c["records"] += double(reader.trace().records.size());
        for (const laser::pebs::PebsRecord &r : reader.trace().records)
            hashRecord(h, r);
        hashStats(h, reader.trace().meta.stats);
        out.digest = h.value();

        if (verify) {
            const laser::sim::MachineStats &s = file->meta().stats;
            quality.modeledCycles += file->meta().runtimeCycles;
            quality.simInstructions += s.instructions;
            const trace::ShardedReplayCheck check =
                trace::checkShardedReplay(*env, kThresholds, shards_,
                                          &runner_->pool());
            if (!check.identical)
                return fail(out, "sharded replay differs from serial at "
                                 "some threshold of the grid");
        }
        return out;
    }

    /** Rebuild each trace's workload alone (the part of replay.env). */
    void
    probe(Tracer &tr) override
    {
        for (const wl::WorkloadDef *def : defs_) {
            const trace::TraceMeta meta =
                trace::makeCaptureMeta(*def, capture_);
            auto s = tr.span("workloads.build");
            (void)def->build(meta.build);
        }
    }

  private:
    static OpResult
    fail(OpResult &out, std::string why)
    {
        out.failure = std::move(why);
        return out;
    }

    core::SweepRunner::Config
    runnerConfig(int workers) const
    {
        core::SweepRunner::Config cfg;
        cfg.numWorkers = workers;
        cfg.cacheDir = cacheDir_;
        return cfg;
    }

    Options opt_;
    trace::CaptureOptions capture_;
    std::vector<const wl::WorkloadDef *> defs_;
    std::string cacheDir_;
    int shards_ = 4;
    std::unique_ptr<core::SweepRunner> runner_;
};

} // namespace

std::unique_ptr<Workload>
makeReplaySweep(const Options &opt)
{
    return std::make_unique<ReplaySweep>(opt);
}

} // namespace perfbench
