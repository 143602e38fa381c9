/**
 * @file
 * The benchmark's workload interface. A workload is a fixed, seeded list
 * of operations; main.cc sets it up several times, runs a
 * verification pass, then repeats timed passes over the whole list.
 */

#ifndef LASER_PERFBENCH_BENCH_H
#define LASER_PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tracer.h"

namespace perfbench {

/** Command-line settings a workload needs. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Multiplies every input scale (the self-tests run tiny inputs). */
    double scaleMult = 1.0;
    /** Fault to inject ("", "flip-byte", "report"); self-tests only. */
    std::string inject;
    /** Scratch directory for trace caches and the Chrome trace. */
    std::string outDir;
    /** Worker threads for the parallel layers (<= nproc). */
    int workers = 4;
};

/** Per-pass layer counts, summed over the pass's operations. */
using Counts = std::map<std::string, double>;

/** Outcome of one operation. */
struct OpResult
{
    /** Digest of everything the operation produced. */
    std::uint64_t digest = 0;
    /** Empty when every check held; otherwise what failed. */
    std::string failure;
};

/** Accuracy and modelled-time results of one verification pass. */
struct Quality
{
    int falseNegatives = 0;
    int falsePositives = 0;
    std::uint64_t modeledCycles = 0;
    /**
     * Simulated instructions per pass (repaired re-runs included); for
     * a workload that simulates only in set-up, per set-up.
     */
    std::uint64_t simInstructions = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One set-up; called several times, the last one is kept. */
    virtual void setUp() = 0;

    /**
     * True when the workload simulates only in set-up, so simulation
     * throughput is per set-up rather than per pass.
     */
    virtual bool simulatesInSetUp() const { return false; }

    virtual std::size_t ops() const = 0;

    /** Called before each pass's first operation. */
    virtual void beginPass() {}

    /**
     * Run operation @p i. With @p verify, also run the correctness
     * checks and add the operation's accuracy to @p quality. Spans go
     * to @p tracer (a no-op when off); layer counts accumulate into
     * @p counts.
     */
    virtual OpResult run(std::size_t i, bool verify, Tracer &tracer,
                         Counts &counts, Quality &quality) = 0;

    /**
     * Traced runs only, after the timed passes: time layer calls that
     * the operations make only from inside another layer.
     */
    virtual void probe(Tracer &tracer) { (void)tracer; }
};

std::unique_ptr<Workload> makeCaptureSharing(const Options &opt);
std::unique_ptr<Workload> makeCaptureBreadth(const Options &opt);
std::unique_ptr<Workload> makeReplaySweep(const Options &opt);

} // namespace perfbench

#endif // LASER_PERFBENCH_BENCH_H
