/**
 * @file
 * laser_perfbench: runs one benchmark workload and prints its metrics.
 *
 *   laser_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--out-dir DIR] [--scale-mult X] [--inject FAULT]
 *
 * A run sets the workload up several times (setup_s is the median),
 * runs one verification pass that performs every correctness check and
 * records each operation's output digest, then repeats timed passes over
 * the workload's fixed operation list for S seconds. Every timed
 * operation must reproduce its verification digest. A failed check
 * counts as a failed operation; it never aborts the run. End-to-end
 * times are scaled to a reference host speed (calibrate.h).
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates traced
 * and untraced passes, prints the median per-layer metrics of the traced
 * ones, and the tracing overhead (traced minus untraced pass wall
 * time). The last stdout line is the result JSON object.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "calibrate.h"
#include "digest.h"

namespace perfbench {

namespace {

/** The benchmark's workloads, by name; nullptr for an unknown name. */
std::unique_ptr<Workload>
makeWorkload(const Options &opt)
{
    if (opt.workload == "capture_sharing")
        return makeCaptureSharing(opt);
    if (opt.workload == "capture_breadth")
        return makeCaptureBreadth(opt);
    if (opt.workload == "replay_sweep")
        return makeReplaySweep(opt);
    return nullptr;
}

/** A run never goes past this, so it ends well within its time limit. */
constexpr double kHardLimitSeconds = 120.0;
constexpr std::size_t kMinSetUps = 5;
constexpr double kMinSetUpSeconds = 3.0;
/** p90 is reported from at least this many operation samples. */
constexpr std::size_t kMinOpSamples = 100;
/**
 * Host-speed samples before and after each set-up; the fastest of each
 * group counts.
 */
constexpr std::size_t kSetUpHostSamples = 3;
/** Timed passes sample the host's speed at most this often. */
constexpr double kHostSampleSeconds = 0.25;

double
seconds(std::int64_t ns)
{
    return double(ns) * 1e-9;
}

/** CPU time of the whole process (every thread), in seconds. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/**
 * Pins the calling thread to the k-th of the CPUs it may use, so that
 * successive set-ups and passes move from CPU to CPU. On a shared host
 * each CPU is slowed in its own phases (by whatever else runs on its
 * physical core), so without this one slow CPU can hold a whole run;
 * with it, every operation's fastest time has met every CPU.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof all_, &all_) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &all_))
                    cpus_.push_back(c);
    }

    void
    pin(std::size_t k)
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[k % cpus_.size()], &one);
        (void)sched_setaffinity(0, sizeof one, &one);
    }

    /**
     * Back to every allowed CPU. Threads inherit their creator's
     * affinity, so a pass that starts worker threads (a fresh
     * SweepRunner's pool) must create them released.
     */
    void
    release()
    {
        if (cpus_.size() >= 2)
            (void)sched_setaffinity(0, sizeof all_, &all_);
    }

  private:
    cpu_set_t all_;
    std::vector<int> cpus_;
};

/** Linear-interpolated quantile @p q of @p v (copied, then sorted). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Fastest wall and CPU time of each segment of a pass, over passes. */
struct Fastest
{
    explicit Fastest(std::size_t segments)
        : wall(segments, kUnset), cpu(segments, kUnset)
    {
    }

    void
    add(std::size_t k, double wall_s, double cpu_s)
    {
        wall[k] = std::min(wall[k], wall_s);
        cpu[k] = std::min(cpu[k], cpu_s);
    }

    double wallSum() const { return sum(wall); }
    double cpuSum() const { return sum(cpu); }

    static double
    sum(const std::vector<double> &v)
    {
        double s = 0.0;
        for (double x : v)
            s += x == kUnset ? 0.0 : x;
        return s;
    }

    static constexpr double kUnset = 1e300;
    std::vector<double> wall;
    std::vector<double> cpu;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
formatJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + num + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

/** Per-layer values of one traced pass. */
std::vector<Metric>
layerMetrics(const LayerTimes &t, Counts c)
{
    auto total = [&](const char *n) { return t.total.count(n) ? t.total.at(n) : 0.0; };
    auto self = [&](const char *n) { return t.self.count(n) ? t.self.at(n) : 0.0; };
    const double insns = c["sim.instructions"];
    const double records = c["detect.records"];
    return {
        {"sim.run_s", total("sim.run"), "s"},
        {"sim.self_s", self("sim.run"), "s"},
        {"sim.ns_per_insn", ratio(1e9 * self("sim.run"), insns), "ns"},
        {"sim.instructions", insns, "count"},
        {"sim.accesses", c["sim.accesses"], "count"},
        {"sim.l1_hit_ratio", ratio(c["sim.l1_hits"], c["sim.accesses"]),
         "ratio"},
        {"sim.hitm", c["sim.hitm"], "count"},
        {"sim.llc_hits", c["sim.llc_hits"], "count"},
        {"sim.mem_misses", c["sim.mem_misses"], "count"},
        {"sim.ssb_flushes", c["sim.ssb_flushes"], "count"},
        {"sim.lines_touched", c["sim.lines_touched"], "count"},
        {"mem.pages_touched", c["mem.pages_touched"], "count"},
        {"pebs.sink_s", total("pebs.sink"), "s"},
        {"pebs.hitm_events", c["pebs.hitm_events"], "count"},
        {"pebs.samples", c["pebs.samples"], "count"},
        {"pebs.interrupts", c["pebs.interrupts"], "count"},
        {"baselines.sink_s", total("baselines.sink"), "s"},
        {"baselines.memops", c["baselines.memops"], "count"},
        {"baselines.syncs", c["baselines.syncs"], "count"},
        {"detect.s", total("detect"), "s"},
        {"detect.records", records, "count"},
        {"detect.ns_per_record", ratio(1e9 * total("detect"), records),
         "ns"},
        {"detect.dropped_ratio", ratio(c["detect.dropped"], records),
         "ratio"},
        {"repair.analyze_s", total("repair.analyze"), "s"},
        {"repair.instrument_s", total("repair.instrument"), "s"},
        {"repair.rerun_s", total("repair.rerun"), "s"},
        {"repair.applied_ratio",
         ratio(c["repair.applied"], c["repair.requests"]), "ratio"},
        {"workloads.build_s", total("workloads.build"), "s"},
        {"replay.env_s", total("replay.env"), "s"},
        {"trace.open_s", total("trace.open"), "s"},
        {"trace.decode_s", total("trace.decode"), "s"},
        {"trace.encode_s", total("trace.encode"), "s"},
        {"trace.bytes_per_record", ratio(c["trace.bytes"], c["records"]),
         "B"},
        {"trace.blocks_decoded", c["trace.blocks_decoded"], "count"},
        {"replay.digest_s", total("replay.digest"), "s"},
        {"replay.report_s", total("replay.report"), "s"},
        {"replay.pool_wait_s", c["replay.pool_wait_s"], "s"},
        {"core.machine_runs", c["core.machine_runs"], "count"},
        {"core.disk_hits", c["core.disk_hits"], "count"},
    };
}

struct Args
{
    Options opt;
    bool ok = true;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    a.opt.outDir = ".bench_build/out";
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) {
            a.ok = false;
            break;
        }
        const std::string v = argv[++i];
        if (k == "--workload")
            a.opt.workload = v;
        else if (k == "--seed")
            a.opt.seed = std::stoull(v);
        else if (k == "--seconds")
            a.opt.seconds = std::stod(v);
        else if (k == "--trace")
            a.opt.trace = v == "1";
        else if (k == "--out-dir")
            a.opt.outDir = v;
        else if (k == "--scale-mult")
            a.opt.scaleMult = std::stod(v);
        else if (k == "--inject")
            a.opt.inject = v;
        else
            a.ok = false;
    }
    if (!a.opt.inject.empty() && a.opt.inject != "flip-byte" &&
            a.opt.inject != "report")
        a.ok = false;
    return a;
}

int
run(const Options &opt)
{
    std::unique_ptr<Workload> w = makeWorkload(opt);
    if (!w) {
        std::fprintf(stderr, "unknown workload \"%s\"\n",
                     opt.workload.c_str());
        return 2;
    }
    std::filesystem::create_directories(opt.outDir);
    const std::int64_t run_start = nowNs();

    // Set-up, several times; setup_s is the median. Host speed drifts
    // in phases of seconds, so short set-ups repeat for long enough to
    // span several, and each set-up is scaled to the reference speed by
    // the host speed measured just before and just after it on the same
    // CPU.
    CpuRotation rotation;
    HostSpeed host;
    std::vector<double> setup_s, setup_at_ref;
    while (setup_s.size() < kMinSetUps ||
           seconds(nowNs() - run_start) < kMinSetUpSeconds) {
        rotation.pin(setup_s.size());
        const double before_s = host.fastestOf(kSetUpHostSamples);
        const std::int64_t t0 = nowNs();
        w->setUp();
        setup_s.push_back(seconds(nowNs() - t0));
        const double after_s = host.fastestOf(kSetUpHostSamples);
        setup_at_ref.push_back(setup_s.back() * 2.0 *
                               HostSpeed::kReferenceSeconds /
                               (before_s + after_s));
    }
    rotation.release();

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    auto record_failure = [&](std::size_t op, const std::string &why) {
        if (failed < 5)
            std::fprintf(stderr, "op %zu failed: %s\n", op, why.c_str());
        ++failed;
    };

    // Verification pass: every check, and the reference digests.
    Quality quality;
    Counts verify_counts;
    std::vector<std::uint64_t> reference(w->ops());
    {
        Tracer off(false);
        w->beginPass();
        for (std::size_t i = 0; i < w->ops(); ++i) {
            ++attempted;
            try {
                const OpResult r =
                    w->run(i, true, off, verify_counts, quality);
                reference[i] = r.digest;
                if (!r.failure.empty())
                    record_failure(i, r.failure);
            } catch (const std::exception &e) {
                record_failure(i, e.what());
            }
        }
    }
    Fnv workload_digest;
    for (std::uint64_t d : reference)
        workload_digest.u64(d);

    // Timed passes. Each pass is timed segment by segment: segment 0 is
    // beginPass, segment i + 1 is operation i.
    Tracer tracer(opt.trace);
    Tracer off(false);
    Fastest untraced_min(w->ops() + 1), traced_min(w->ops() + 1);
    std::size_t untraced_passes = 0, traced_passes = 0, op_samples = 0;
    std::vector<double> records, pass_wall;
    std::vector<std::vector<Metric>> layer_passes;
    const std::int64_t timed_start = nowNs();
    for (int pass = 0;; ++pass) {
        const double elapsed = seconds(nowNs() - timed_start);
        const bool enough = elapsed >= opt.seconds &&
                            untraced_passes >= 2 &&
                            op_samples >= kMinOpSamples &&
                            (!opt.trace || traced_passes >= 2);
        if (enough || seconds(nowNs() - run_start) > kHardLimitSeconds)
            break;
        const bool traced = opt.trace && pass % 2 == 0;
        const std::int64_t pass_start = nowNs();
        Tracer &tr = traced ? tracer : off;
        Fastest &segments = traced ? traced_min : untraced_min;
        const std::size_t first_span = tracer.size();
        Counts counts;
        Quality unused;
        double cpu0 = cpuSeconds();
        std::int64_t t0 = nowNs();
        rotation.release();
        w->beginPass();
        segments.add(0, seconds(nowNs() - t0), cpuSeconds() - cpu0);
        // A traced pass and the untraced one after it share a CPU.
        rotation.pin(opt.trace ? pass / 2 : pass);
        host.sampleEvery(kHostSampleSeconds);
        for (std::size_t i = 0; i < w->ops(); ++i) {
            ++attempted;
            cpu0 = cpuSeconds();
            t0 = nowNs();
            try {
                OpResult r;
                {
                    auto s = tr.span("op");
                    r = w->run(i, false, tr, counts, unused);
                }
                segments.add(i + 1, seconds(nowNs() - t0),
                             cpuSeconds() - cpu0);
                if (!traced)
                    ++op_samples;
                if (!r.failure.empty())
                    record_failure(i, r.failure);
                else if (r.digest != reference[i])
                    record_failure(i, "output differs from the "
                                      "verification pass");
            } catch (const std::exception &e) {
                record_failure(i, e.what());
            }
        }
        if (traced) {
            ++traced_passes;
            layer_passes.push_back(
                layerMetrics(tracer.times(first_span), counts));
        } else {
            ++untraced_passes;
            records.push_back(counts["records"]);
            pass_wall.push_back(seconds(nowNs() - pass_start));
        }
    }

    // Timings are minima over the run's repetitions, not medians: the
    // work is deterministic, so host noise (other tenants, frequency
    // changes) only ever adds time. A pass's time is the sum of its
    // segments' fastest times, so a noisy moment costs only the
    // segment it hit, not the whole pass. An operation's latency is its
    // fastest time; the percentiles are taken over the operations.
    // (Pooled samples would put p90 on the edge between the slowest
    // operation's block of samples and the next one's, where it jumps
    // with the number of passes.)
    if (untraced_passes == 0 || (opt.trace && layer_passes.empty())) {
        std::fprintf(stderr, "laser_perfbench: no complete pass within "
                             "%.0f s\n", kHardLimitSeconds);
        return 1;
    }
    std::fprintf(stderr, "# untraced pass wall times (s):");
    for (double v : pass_wall)
        std::fprintf(stderr, " %.4f", v);
    std::fprintf(stderr, "\n# host reference times (s):");
    for (double v : host.times())
        std::fprintf(stderr, " %.5f", v);
    std::fprintf(stderr, "\n");
    // End-to-end times are reported at the reference host speed; the
    // host-speed values go on the comment line.
    const double to_ref = host.factor();
    std::vector<double> op_latency(untraced_min.wall.begin() + 1,
                                   untraced_min.wall.end());
    for (double &v : op_latency)
        v *= 1e3 * to_ref;
    const double host_wall = untraced_min.wallSum();
    const double pass = host_wall * to_ref;
    const double setup = median(setup_at_ref);
    const double sim_s = w->simulatesInSetUp() ? setup : pass;
    std::printf("# perfbench workload=%s seed=%llu digest=%016llx "
                "fail_ratio=%.6g detect_fn=%d detect_fp=%d "
                "modeled_cycles=%llu ops_per_pass=%zu set_ups=%zu "
                "passes=%zu op_samples=%zu sim_minsn_per_%s=%.3f "
                "records_per_pass=%.0f host_reference_s=%.6f "
                "host_setup_s=%.6f host_pass_wall_s=%.6f\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                (unsigned long long)workload_digest.value(),
                ratio(double(failed), double(attempted)),
                quality.falseNegatives, quality.falsePositives,
                (unsigned long long)quality.modeledCycles, w->ops(),
                setup_s.size(), untraced_passes + traced_passes,
                op_samples, w->simulatesInSetUp() ? "set_up" : "pass",
                1e-6 * double(quality.simInstructions), median(records),
                host.fastestSeconds(), median(setup_s), host_wall);

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", setup, "s"},
            {"pass_s", pass, "s"},
            {"pass_cpu_s", untraced_min.cpuSum() * to_ref, "s"},
            {"op_p50_ms", quantile(op_latency, 0.5), "ms"},
            {"op_p90_ms", quantile(op_latency, 0.9), "ms"},
            {"sim_minsn_per_s",
             ratio(1e-6 * double(quality.simInstructions), sim_s),
             "Minsn/s"},
            {"records_per_s", ratio(median(records), pass), "1/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"modeled_cycles", double(quality.modeledCycles), "cycles"},
        };
    } else {
        Tracer probe(true);
        w->probe(probe);
        const LayerTimes probed = probe.times(0);
        for (std::size_t m = 0; m < layer_passes.front().size(); ++m) {
            std::vector<double> v;
            for (const auto &pass : layer_passes)
                v.push_back(pass[m].value);
            Metric metric = layer_passes.front()[m];
            metric.value = median(v);
            if (metric.name == "workloads.build_s" && !probed.total.empty())
                metric.value = probed.total.at("workloads.build");
            metrics.push_back(metric);
        }
        const double traced = traced_min.wallSum();
        metrics.push_back(
            {"detect.fn", double(quality.falseNegatives), "count"});
        metrics.push_back(
            {"detect.fp", double(quality.falsePositives), "count"});
        metrics.push_back({"obs.traced_pass_wall_s", traced, "s"});
        metrics.push_back({"obs.untraced_pass_wall_s", host_wall, "s"});
        metrics.push_back(
            {"obs.trace_overhead_s", traced - host_wall, "s"});
        const std::string path = opt.outDir + "/trace_" + opt.workload +
                                 "_seed" + std::to_string(opt.seed) +
                                 ".json";
        if (tracer.writeChromeTrace(path))
            std::printf("# chrome trace: %s\n", path.c_str());
    }
    std::printf("%s\n",
                formatJson(failed == 0, attempted, failed, metrics).c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args a = perfbench::parseArgs(argc, argv);
    if (!a.ok || a.opt.workload.empty()) {
        std::fprintf(stderr,
                     "usage: laser_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--out-dir DIR] "
                     "[--scale-mult X] [--inject flip-byte|report]\n");
        return 2;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    a.opt.workers = static_cast<int>(std::clamp(hw, 1u, 4u));
    try {
        return perfbench::run(a.opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "laser_perfbench: %s\n", e.what());
        return 1;
    }
}
