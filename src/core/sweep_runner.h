/**
 * @file
 * Parallel sweep runner: fans (workload x scheme x config) experiment
 * jobs across cores and serves monitored runs from a content-addressed
 * trace cache — simulate once, replay many.
 *
 * A capture request is keyed by trace::configHash() of its full
 * configuration. There is one cache with two views: every key holds
 * one open trace::TraceFile, which captureFile() returns as is and
 * capture() decodes into a fresh Trace. On a key hit the cached file
 * is served without touching the machine simulator; misses run the
 * simulation (at most once per key, even under concurrent requests,
 * whichever view asked first) and populate the cache. With a cache
 * directory configured, traces also persist across processes as
 * <hash>.ltrace files, so a second sweep over the same configuration
 * performs zero machine runs.
 *
 * Fault policy (both views): a cache file that fails open() — junk,
 * truncated, other format version, or a header/meta/index checksum
 * mismatch — is a cache miss; it is re-simulated and overwritten. A
 * file that opens but whose record block fails its checksum is an
 * error: capture() throws std::runtime_error naming the status, and a
 * captureFile() caller gets the same from its replay cursor.
 */

#ifndef LASER_CORE_SWEEP_RUNNER_H
#define LASER_CORE_SWEEP_RUNNER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/capture.h"
#include "trace/trace.h"
#include "trace/trace_file.h"
#include "util/mutex.h"
#include "util/thread_pool.h"
#include "workloads/workload.h"

namespace laser::core {

/**
 * Cache / execution counters (cumulative over the runner's lifetime).
 * Every increment is mirrored into the global obs registry
 * (sweep.machine_runs, sweep.cache_hits.memory, sweep.cache_hits.disk,
 * sweep.inflight_dedup, trace.cache.bytes_written), which is what
 * tools and benches export; the struct remains the per-runner view so
 * concurrent runners in one process stay separable.
 */
struct SweepStats
{
    std::uint64_t machineRuns = 0;     ///< actual simulations executed
    std::uint64_t memoryCacheHits = 0; ///< served from the in-memory cache
    std::uint64_t diskCacheHits = 0;   ///< loaded from the cache directory

    std::uint64_t
    captures() const
    {
        return machineRuns + memoryCacheHits + diskCacheHits;
    }

    /** Fraction of capture requests served without a simulation. */
    double
    cacheHitRate() const
    {
        const std::uint64_t total = captures();
        return total ? double(memoryCacheHits + diskCacheHits) /
                           double(total)
                     : 0.0;
    }
};

class SweepRunner
{
  public:
    struct Config
    {
        /** Worker threads; 0 selects the hardware concurrency. */
        int numWorkers = 0;
        /** Trace cache directory; empty keeps the cache in memory only. */
        std::string cacheDir;
    };

    SweepRunner();
    explicit SweepRunner(Config cfg);

    /**
     * The monitored run of @p workload under @p opt as an open seekable
     * trace::TraceFile, simulated on a miss. A disk cache hit validates
     * only the header, meta sections and block index — record blocks
     * stay encoded until replay cursors pull them — so serving a warm
     * sweep costs O(meta + index) reads and replay memory stays
     * O(block x shards). Without a cache directory the encoded image is
     * held in memory and cursored the same way. Concurrent requests for
     * the same configuration are coalesced into a single simulation.
     */
    std::shared_ptr<const trace::TraceFile>
    captureFile(const workloads::WorkloadDef &workload,
                const trace::CaptureOptions &opt);

    /**
     * captureFile() decoded into a fresh materialized Trace; shares
     * captureFile()'s cache slot, so neither view re-simulates a key the
     * other has served. Throws std::runtime_error when a record block
     * fails its checksum.
     */
    std::shared_ptr<const trace::Trace>
    capture(const workloads::WorkloadDef &workload,
            const trace::CaptureOptions &opt);

    /** Fan fn(0..n-1) across the worker pool (blocking). */
    void
    parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
    {
        pool_.parallelFor(n, fn);
    }

    /** The shared worker pool (nested parallelFor is deadlock-free). */
    util::ThreadPool &pool() { return pool_; }

    SweepStats stats() const;
    int workers() const { return pool_.workers(); }
    const Config &config() const { return cfg_; }

    /** Cache-file path for a key (empty when no cacheDir is set). */
    std::string cachePath(std::uint64_t key) const;

  private:
    struct FileEntry;

    std::shared_ptr<const trace::TraceFile>
    loadOrRunFile(std::uint64_t key,
                  const workloads::WorkloadDef &workload,
                  const trace::CaptureOptions &opt);

    Config cfg_;
    util::ThreadPool pool_;
    mutable util::Mutex mu_;
    /**
     * Key -> coalescing slot. The map is guarded; the *slots* escape
     * the lock deliberately — a slot's payload is published through its
     * std::once_flag, so concurrent captures of the same key block in
     * std::call_once instead of serializing the whole cache (see the
     * FileEntry definition in sweep_runner.cc).
     */
    std::unordered_map<std::uint64_t, std::shared_ptr<FileEntry>>
        fileCache_ GUARDED_BY(mu_);
    SweepStats stats_ GUARDED_BY(mu_);
};

/** One row of a threshold sweep: accuracy totals at one threshold. */
struct ThresholdSweepRow
{
    double threshold = 0.0;
    int falseNegatives = 0;
    int falsePositives = 0;
};

/** Outcome + timing of a capture-once/replay-many threshold sweep. */
struct ThresholdSweepResult
{
    std::vector<ThresholdSweepRow> rows;
    /** Simulations this sweep actually ran (0 when fully cached). */
    std::uint64_t machineRuns = 0;
    std::size_t captures = 0; ///< capture requests (runs + cache hits)
    std::size_t replays = 0;  ///< detector replays performed
    /** Time-window shards per trace digest (1 = serial pipelines). */
    int shardsPerDigest = 1;
    double captureSeconds = 0.0;
    /** Sharded, config-independent stream digests (one per workload). */
    double digestSeconds = 0.0;
    /** Per-configuration rate scans + report builds. */
    double replaySeconds = 0.0;

    /** Per-pass cost ratio: one simulation vs one sweep-point replay. */
    double replaySpeedup() const;
};

/**
 * Figure 9 workhorse: capture each workload's monitored run once (in
 * parallel, cache-served when possible), digest each trace once through
 * sharded parallel replay (the digest is config-independent), then
 * derive every threshold point from the merged digest and tally false
 * negatives/positives against the known-bug database.
 *
 * @p shards 0 picks a digest width that spreads the workloads' shard
 * jobs over the runner's workers.
 */
ThresholdSweepResult
thresholdSweep(SweepRunner &runner,
               const std::vector<const workloads::WorkloadDef *> &defs,
               const std::vector<double> &thresholds,
               const trace::CaptureOptions &opt = {}, int shards = 0);

} // namespace laser::core

#endif // LASER_CORE_SWEEP_RUNNER_H
