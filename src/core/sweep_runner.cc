#include "core/sweep_runner.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <mutex> // std::call_once / std::once_flag only
#include <stdexcept>

#include "core/accuracy.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"

namespace laser::core {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

std::string
hexKey(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, key);
    return buf;
}

/** Registry handles for the sweep counters (resolved once). */
struct SweepMetrics
{
    obs::Counter &machineRuns;
    obs::Counter &memoryHits;
    obs::Counter &diskHits;
    obs::Counter &inflightDedup;
    obs::Counter &bytesWritten;
    obs::Histogram &captureSeconds;

    static SweepMetrics &
    get()
    {
        static SweepMetrics m{
            obs::Registry::global().counter("sweep.machine_runs"),
            obs::Registry::global().counter("sweep.cache_hits.memory"),
            obs::Registry::global().counter("sweep.cache_hits.disk"),
            obs::Registry::global().counter("sweep.inflight_dedup"),
            obs::Registry::global().counter("trace.cache.bytes_written"),
            obs::Registry::global().histogram("sweep.capture_seconds"),
        };
        return m;
    }
};

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

} // namespace

/**
 * One cache slot. The once-flag coalesces concurrent captures of the
 * same configuration: the first requester opens the disk file (or
 * simulates), everyone else blocks until the file is ready.
 */
struct SweepRunner::FileEntry
{
    std::once_flag once;
    /** Set after the once-callable finished (dedup accounting only). */
    std::atomic<bool> ready{false};
    std::shared_ptr<const trace::TraceFile> file;
};

SweepRunner::SweepRunner() : SweepRunner(Config{}) {}

SweepRunner::SweepRunner(Config cfg)
    : cfg_(std::move(cfg)), pool_(cfg_.numWorkers)
{
    if (!cfg_.cacheDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg_.cacheDir, ec);
        // An unwritable directory degrades to cache misses, not errors.
    }
}

std::string
SweepRunner::cachePath(std::uint64_t key) const
{
    if (cfg_.cacheDir.empty())
        return {};
    return cfg_.cacheDir + "/" + hexKey(key) + trace::kTraceExtension;
}

std::shared_ptr<const trace::TraceFile>
SweepRunner::loadOrRunFile(std::uint64_t key,
                           const workloads::WorkloadDef &workload,
                           const trace::CaptureOptions &opt)
{
    SweepMetrics &metrics = SweepMetrics::get();
    const std::string path = cachePath(key);
    if (!path.empty()) {
        LASER_SPAN("sweep.disk_open");
        auto file = std::make_shared<trace::TraceFile>();
        // Warm path: validates header + meta + index only; record
        // blocks stay on disk until a replay cursor decodes them (the
        // config-hash check is free — the hash sits in the header and
        // open() verifies it against the config section).
        if (file->open(path) == trace::TraceStatus::Ok &&
                file->storedConfigHash() == key) {
            // Touch the file so mtime-LRU eviction (laser_trace cache
            // gc) treats last-modified as last-used.
            std::error_code ec;
            std::filesystem::last_write_time(
                path, std::filesystem::file_time_type::clock::now(), ec);
            metrics.diskHits.inc();
            util::MutexLock lock(&mu_);
            ++stats_.diskCacheHits;
            return file;
        }
        // Missing, junk, truncated, stale or other-version cache file:
        // fall through and rerun (the fresh capture overwrites it).
    }

    trace::Trace captured;
    const auto start = std::chrono::steady_clock::now();
    {
        LASER_SPAN("sweep.simulate");
        captured = trace::captureTrace(workload, opt);
    }
    metrics.machineRuns.inc();
    metrics.captureSeconds.record(secondsSince(start));
    {
        util::MutexLock lock(&mu_);
        ++stats_.machineRuns;
    }
    auto file = std::make_shared<trace::TraceFile>();
    if (!path.empty()) {
        if (trace::writeTraceFile(captured, path) ==
                trace::TraceStatus::Ok) {
            metrics.bytesWritten.inc(fileBytes(path));
            if (file->open(path) == trace::TraceStatus::Ok)
                return file;
            // The file vanished or was clobbered between write and
            // open (e.g. a concurrent gc); serve the in-memory image
            // instead.
        } else {
            // Best-effort cache population; surfaced, never fatal.
            static obs::Counter &write_failures =
                obs::Registry::global().counter(
                    "trace.cache.write_failures");
            write_failures.inc();
        }
    }
    trace::TraceWriter writer(captured.meta);
    writer.appendAll(captured.records);
    if (file->openBytes(writer.finalize()) != trace::TraceStatus::Ok)
        throw std::runtime_error(
            "captureFile: freshly encoded trace failed to open: " +
            file->error());
    return file;
}

std::shared_ptr<const trace::TraceFile>
SweepRunner::captureFile(const workloads::WorkloadDef &workload,
                         const trace::CaptureOptions &opt)
{
    const std::uint64_t key =
        trace::configHash(trace::makeCaptureMeta(workload, opt));

    std::shared_ptr<FileEntry> entry;
    bool created = false;
    {
        util::MutexLock lock(&mu_);
        std::shared_ptr<FileEntry> &slot = fileCache_[key];
        if (!slot) {
            slot = std::make_shared<FileEntry>();
            created = true;
        }
        entry = slot;
    }
    if (!created) {
        SweepMetrics &metrics = SweepMetrics::get();
        metrics.memoryHits.inc();
        // A hit on an entry whose capture is still running means this
        // request was coalesced with an in-flight identical one.
        if (!entry->ready.load(std::memory_order_acquire))
            metrics.inflightDedup.inc();
        util::MutexLock lock(&mu_);
        ++stats_.memoryCacheHits;
    }

    std::call_once(entry->once, [&] {
        entry->file = loadOrRunFile(key, workload, opt);
        entry->ready.store(true, std::memory_order_release);
    });
    return entry->file;
}

std::shared_ptr<const trace::Trace>
SweepRunner::capture(const workloads::WorkloadDef &workload,
                     const trace::CaptureOptions &opt)
{
    const std::shared_ptr<const trace::TraceFile> file =
        captureFile(workload, opt);
    auto trace = std::make_shared<trace::Trace>();
    std::string detail;
    const trace::TraceStatus status = file->readAll(trace.get(), &detail);
    if (status != trace::TraceStatus::Ok)
        throw std::runtime_error(
            std::string("capture: cached trace failed to decode: ") +
            trace::traceStatusName(status) + ": " + detail);
    return trace;
}

SweepStats
SweepRunner::stats() const
{
    util::MutexLock lock(&mu_);
    return stats_;
}

// ---------------------------------------------------------------------
// Threshold sweep
// ---------------------------------------------------------------------

double
ThresholdSweepResult::replaySpeedup() const
{
    if (machineRuns == 0 || replays == 0)
        return 0.0;
    const double per_sim = captureSeconds / double(machineRuns);
    // A sweep point costs its rate scan + report build plus its share of
    // the one-time digest.
    const double per_replay =
        (digestSeconds + replaySeconds) / double(replays);
    return per_replay > 0.0 ? per_sim / per_replay : 0.0;
}

ThresholdSweepResult
thresholdSweep(SweepRunner &runner,
               const std::vector<const workloads::WorkloadDef *> &defs,
               const std::vector<double> &thresholds,
               const trace::CaptureOptions &opt, int shards)
{
    ThresholdSweepResult result;
    const std::size_t nw = defs.size();
    const std::size_t nt = thresholds.size();
    result.captures = nw;
    result.replays = nw * nt;
    if (nw == 0)
        return result;
    if (shards <= 0) {
        // Spread nw digests' shard jobs over the pool (+1: the calling
        // thread drains the queue too).
        shards = std::max<int>(
            1, (runner.workers() + 1 + static_cast<int>(nw) - 1) /
                   static_cast<int>(nw));
    }
    result.shardsPerDigest = shards;

    const SweepStats before = runner.stats();

    // Phase 1: one monitored simulation per workload (cache permitting),
    // fanned across the pool, plus one replay environment each. Traces
    // are served as seekable files, never materialized: the digest
    // phase streams them block-at-a-time through shard cursors.
    std::vector<std::shared_ptr<const trace::TraceFile>> traces(nw);
    std::vector<std::unique_ptr<trace::TraceReplayer>> replayers(nw);
    const auto capture_start = std::chrono::steady_clock::now();
    {
        LASER_SPAN("sweep.phase.capture");
        runner.parallelFor(nw, [&](std::size_t i) {
            traces[i] = runner.captureFile(*defs[i], opt);
            replayers[i] = std::make_unique<trace::TraceReplayer>(
                traces[i]->meta(), *traces[i]);
            if (!replayers[i]->ok())
                throw std::runtime_error("thresholdSweep: " +
                                         replayers[i]->error());
        });
    }
    result.captureSeconds = secondsSince(capture_start);
    result.machineRuns = runner.stats().machineRuns - before.machineRuns;

    // Phase 2: digest each trace once — sharded by time window across
    // the pool. The digest is config-independent, so this is the only
    // pass over the record streams the whole sweep makes.
    std::vector<std::unique_ptr<trace::ParallelReplayer>> digests(nw);
    const auto digest_start = std::chrono::steady_clock::now();
    {
        LASER_SPAN("sweep.phase.digest");
        runner.parallelFor(nw, [&](std::size_t i) {
            trace::ParallelReplayer::Options popt;
            popt.shards = shards;
            // Nested parallelFor: shard jobs queue on the shared pool
            // and this worker helps drain them, so digests overlap
            // freely.
            popt.pool = &runner.pool();
            digests[i] = std::make_unique<trace::ParallelReplayer>(
                *replayers[i], popt);
        });
    }
    result.digestSeconds = secondsSince(digest_start);

    // Phase 3: every sweep point is a rate scan + report build over the
    // merged digest (report-many).
    std::vector<std::vector<ThresholdSweepRow>> cells(
        nt, std::vector<ThresholdSweepRow>(nw));
    const auto replay_start = std::chrono::steady_clock::now();
    {
        LASER_SPAN("sweep.phase.replay");
        runner.parallelFor(nw * nt, [&](std::size_t job) {
            const std::size_t wi = job / nt;
            const std::size_t ti = job % nt;
            detect::DetectorConfig cfg;
            cfg.rateThreshold = thresholds[ti];
            cfg.sav = opt.sav;
            const detect::DetectionReport report =
                digests[wi]->replay(cfg);
            const AccuracyResult acc = evaluateAccuracy(
                defs[wi]->info, reportLocations(report));
            cells[ti][wi].falseNegatives = acc.falseNegatives;
            cells[ti][wi].falsePositives = acc.falsePositives;
        });
    }
    result.replaySeconds = secondsSince(replay_start);

    for (std::size_t ti = 0; ti < nt; ++ti) {
        ThresholdSweepRow row;
        row.threshold = thresholds[ti];
        for (const ThresholdSweepRow &cell : cells[ti]) {
            row.falseNegatives += cell.falseNegatives;
            row.falsePositives += cell.falsePositives;
        }
        result.rows.push_back(row);
    }
    return result;
}

} // namespace laser::core
