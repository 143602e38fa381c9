/**
 * @file
 * FNV-1a digests of everything a run produces that a simulator-speed
 * change must leave bit-identical: every MachineStats field, the
 * analysis-record stream, and the detection / baseline / repair
 * results. Doubles are hashed by their bit pattern.
 */

#ifndef LASER_PERFBENCH_DIGEST_H
#define LASER_PERFBENCH_DIGEST_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/sink.h"
#include "core/experiment.h"

namespace perfbench {

class Fnv
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    void
    f64(double d)
    {
        std::uint64_t v = 0;
        std::memcpy(&v, &d, sizeof v);
        u64(v);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    template <typename T>
    void
    u64s(const std::vector<T> &v)
    {
        u64(v.size());
        for (const T &x : v)
            u64(static_cast<std::uint64_t>(x));
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline void
hashRecord(Fnv &h, const laser::pebs::PebsRecord &r)
{
    h.u64(r.pc);
    h.u64(r.dataAddr);
    h.u64(static_cast<std::uint64_t>(r.core));
    h.u64(r.cycle);
}

/** RecordSink that hashes the stream it is fed (the capture tee). */
class HashSink final : public laser::analysis::RecordSink
{
  public:
    void
    onRecord(const laser::pebs::PebsRecord &rec) override
    {
        hashRecord(h_, rec);
        ++count_;
    }

    std::uint64_t value() const { return h_.value(); }
    std::uint64_t count() const { return count_; }

  private:
    Fnv h_;
    std::uint64_t count_ = 0;
};

/** RecordSink that keeps the stream (verification replays). */
class VectorSink final : public laser::analysis::RecordSink
{
  public:
    void
    onRecord(const laser::pebs::PebsRecord &rec) override
    {
        records.push_back(rec);
    }

    std::vector<laser::pebs::PebsRecord> records;
};

inline void
hashStats(Fnv &h, const laser::sim::MachineStats &s)
{
    for (std::uint64_t v :
         {s.cycles, s.instructions, s.loads, s.stores, s.atomics, s.l1Hits,
          s.llcHits, s.memMisses, s.upgrades, s.rfos, s.hitmLoads,
          s.hitmStores, s.syncOps, s.ssbStores, s.ssbLoadHits,
          s.ssbFlushes, s.ssbFlushedEntries, s.ssbMaxEntriesSeen,
          s.aliasChecks, s.aliasMisspecs})
        h.u64(v);
    h.u64(s.truncated);
    h.u64s(s.threadCycles);
    h.u64s(s.threadInstructions);
}

inline void
hashReport(Fnv &h, const laser::detect::DetectionReport &r)
{
    h.u64(r.lines.size());
    for (const laser::detect::LineReport &l : r.lines) {
        h.str(l.location);
        h.u64(l.library);
        h.u64(l.records);
        h.f64(l.hitmRate);
        h.u64(l.tsEvents);
        h.u64(l.fsEvents);
        h.u64(static_cast<std::uint64_t>(l.type));
    }
    h.u64(r.totalRecords);
    h.u64(r.droppedPcFilter);
    h.u64(r.droppedStackData);
    h.f64(r.seconds);
    h.u64(r.repairRequested);
    h.u64(r.repairTriggerCycle);
    h.u64s(r.repairPcs);
    h.u64(r.detectorCycles);
}

/** Digest of one experiment run, including its captured stream. */
inline std::uint64_t
hashRun(const laser::core::RunResult &r, std::uint64_t stream_hash)
{
    Fnv h;
    h.u64(static_cast<std::uint64_t>(r.scheme));
    h.u64(r.runtimeCycles);
    h.u64(r.crashed);
    h.str(r.crashReason);
    hashStats(h, r.stats);
    for (std::uint64_t v : {r.pebs.hitmEvents, r.pebs.samples,
                            r.pebs.interrupts, r.pebs.appCycles,
                            r.pebs.driverCycles})
        h.u64(v);
    hashReport(h, r.detection);
    h.u64(r.vtune.lines.size());
    for (const laser::baselines::VTuneLine &l : r.vtune.lines) {
        h.str(l.location);
        h.u64(l.records);
        h.f64(l.hitmRate);
    }
    h.u64(r.vtune.hitmEvents);
    h.u64(r.sheriff.reportedSites.size());
    for (const std::string &s : r.sheriff.reportedSites)
        h.str(s);
    h.u64(r.sheriff.syncOps);
    h.u64(r.sheriff.dirtyPagesCommitted);
    h.u64(r.sheriff.chargedCycles);
    h.u64(r.plan.applied);
    h.str(r.plan.reason);
    h.u64s(r.plan.regionBlocks);
    h.u64s(r.plan.instrumentedOps);
    h.u64s(r.plan.skippedLoads);
    h.u64(r.plan.flushInsertBefore);
    h.f64(r.plan.estStores);
    h.f64(r.plan.estFlushes);
    h.u64(r.repairApplied);
    h.f64(r.repairTriggerFraction);
    h.u64(stream_hash);
    return h.value();
}

} // namespace perfbench

#endif // LASER_PERFBENCH_DIGEST_H
