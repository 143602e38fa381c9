/**
 * @file
 * LASERDETECT: the HITM record-processing pipeline (Section 4, Figure 4).
 *
 * Records stream in from the PEBS buffers; each passes through:
 *  1. PC filtering against the parsed /proc maps (application/library
 *     PCs kept, everything else dropped as spurious);
 *  2. stack-data filtering (thread stacks are not shared);
 *  3. aggregation by PC and source line (rate threshold applied at
 *     reporting time; adjustable offline without rerunning);
 *  4. load/store-set decoding of the record's PC;
 *  5. the cache-line model, yielding true-/false-sharing events
 *     attributed to the incoming record's source line;
 *  6. a periodic rate check that invokes LASERREPAIR when false sharing
 *     is significant (Section 4.4).
 *
 * The pipeline is deliberately robust to the record errors Section 3
 * characterizes: wrong data addresses never affect source-location
 * aggregation, and small PC skids usually stay within the same source
 * line. When data addresses are too noisy to classify (the write-write
 * pattern of linear_regression at -O3), a line's contention type is
 * reported as Unknown rather than guessed.
 *
 * DetectorContext holds everything a pipeline needs that is derived
 * from the program and its address space — the parsed /proc maps, the
 * load/store sets, the timing model. It is immutable after construction
 * and safe to share across concurrent shard pipelines, so a parallel
 * replay parses the maps and decodes the program exactly once.
 *
 * DetectorPipeline implements analysis::RecordSink over the mergeable
 * detect/detector_state.h: the live ExperimentRunner path and
 * trace::TraceReplayer both drive it through the same interface
 * (analysis::drainSorted() restores canonical cycle order for a raw
 * per-core-burst stream). In Streaming mode it runs the Section 4.4
 * rate check online; in Shard mode it collects RateEvents instead,
 * deferring repair semantics to the merge-time sequential scan.
 */

#ifndef LASER_DETECT_PIPELINE_H
#define LASER_DETECT_PIPELINE_H

#include <cstdint>
#include <string>

#include "analysis/sink.h"
#include "detect/cacheline_model.h"
#include "detect/detector_state.h"
#include "detect/maps_filter.h"
#include "detect/types.h"
#include "isa/decode.h"
#include "isa/program.h"
#include "mem/address_space.h"
#include "sim/timing.h"

namespace laser::detect {

/** Shared, immutable per-program replay environment. */
struct DetectorContext
{
    const isa::Program &prog;
    const mem::AddressSpace &space;
    MapsFilter maps;
    isa::LoadStoreSets sets;
    sim::TimingModel timing;
    /**
     * Cache line size the detector classifies against; must equal the
     * simulated machine's CacheGeometry::lineBytes or every line index
     * and byte footprint would silently disagree with the coherence
     * events being classified (invalid values fall back to the default).
     */
    int lineBytes;

    DetectorContext(const isa::Program &prog,
                    const mem::AddressSpace &space, std::string maps_text,
                    const sim::TimingModel &timing,
                    int line_bytes = CacheLineModel::kDefaultLineBytes);
};

/** One pass of stages 1-6 over (a shard of) a record stream. */
class DetectorPipeline final : public analysis::RecordSink
{
  public:
    enum class Mode : std::uint8_t {
        /** Online rate check per record; no RateEvents collected. */
        Streaming,
        /** Collect RateEvents; rate semantics applied at merge time. */
        Shard,
    };

    explicit DetectorPipeline(const DetectorContext &ctx,
                              DetectorConfig cfg = {},
                              Mode mode = Mode::Streaming);
    ~DetectorPipeline() override;

    /** Push one record through stages 1-5 (and 6 when streaming). */
    void onRecord(const pebs::PebsRecord &rec) override;

    /** True once the online rate check has requested repair. */
    bool repairRequested() const { return scan_.repairRequested; }

    const DetectorState &state() const { return state_; }

    DetectorState
    takeState()
    {
        publishMetrics();
        return std::move(state_);
    }

    /** Streaming-mode finalize: build the report from the inline scan. */
    DetectionReport finish(std::uint64_t total_cycles) const;

    const DetectorContext &context() const { return ctx_; }
    const DetectorConfig &config() const { return cfg_; }

  private:
    /**
     * Publish the delta since the last publish into the process
     * registry (detect.records_ingested and friends). The hot path
     * only bumps plain state_ fields; atomics are touched here, at
     * takeState()/finish()/destruction, so instrumentation cost on the
     * digest path is amortized to O(1) per pipeline instead of O(1)
     * per record.
     */
    void publishMetrics() const;

    const DetectorContext &ctx_;
    DetectorConfig cfg_;
    Mode mode_;
    DetectorState state_;
    RateScanState scan_;
    mutable std::uint64_t pubRecords_ = 0;
    mutable std::uint64_t pubTs_ = 0;
    mutable std::uint64_t pubFs_ = 0;
};

/**
 * Build the DetectionReport from a digested state and a completed rate
 * scan. Pure: serial and shard-merged paths call the same function, so
 * their reports can only differ if their states differ.
 */
DetectionReport buildReport(const DetectorContext &ctx,
                            const DetectorConfig &cfg,
                            const DetectorState &state,
                            const RateScanState &scan,
                            std::uint64_t total_cycles);

} // namespace laser::detect

#endif // LASER_DETECT_PIPELINE_H
