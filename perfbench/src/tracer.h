/**
 * @file
 * Benchmark-side tracing: spans recorded around the calls the benchmark
 * makes into each library layer, plus a timing decorator for the
 * machine's PMU sink.
 *
 * Spans live on the calling thread only (every layer call the benchmark
 * makes is on its main thread; the library's own pool threads are not
 * spanned here), so they nest strictly and a span's self time is its
 * duration minus the durations of its direct children.
 *
 * PMU callbacks fire millions of times per pass, so the decorator does
 * not emit a span per event: it accumulates callback time and the
 * tracer records it as one aggregated child span of the machine run,
 * placed at the run's start. That keeps sim.run's self time equal to
 * the run minus its sink callbacks.
 */

#ifndef LASER_PERFBENCH_TRACER_H
#define LASER_PERFBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/span.h"
#include "sim/hitm.h"

namespace perfbench {

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Per-pass span totals: name -> {seconds, self seconds}. */
struct LayerTimes
{
    std::map<std::string, double> total;
    std::map<std::string, double> self;
};

class Tracer
{
  public:
    struct Record
    {
        const char *name;
        int parent;
        std::int64_t beginNs;
        std::int64_t endNs;
        std::int64_t childNs;
    };

    class Scope
    {
      public:
        Scope(Tracer *t, int idx) : t_(t), idx_(idx) {}
        ~Scope()
        {
            if (t_)
                t_->close(idx_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        int idx_;
    };

    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Open a span named @p name (a string literal) until scope exit. */
    Scope
    span(const char *name)
    {
        if (!on_)
            return Scope(nullptr, -1);
        records_.push_back({name, current_, nowNs(), 0, 0});
        current_ = static_cast<int>(records_.size()) - 1;
        return Scope(this, current_);
    }

    /**
     * Record @p ns of aggregated time under @p name as a closed child of
     * the innermost open span.
     */
    void
    aggregate(const char *name, std::int64_t ns)
    {
        if (!on_ || current_ < 0)
            return;
        const std::int64_t begin = records_[current_].beginNs;
        records_.push_back({name, current_, begin, begin + ns, 0});
        records_[current_].childNs += ns;
    }

    /** Span totals and self times of records [from, end). */
    LayerTimes
    times(std::size_t from) const
    {
        LayerTimes out;
        for (std::size_t i = from; i < records_.size(); ++i) {
            const Record &r = records_[i];
            const double dur = double(r.endNs - r.beginNs) * 1e-9;
            out.total[r.name] += dur;
            out.self[r.name] += dur - double(r.childNs) * 1e-9;
        }
        return out;
    }

    std::size_t size() const { return records_.size(); }

    /**
     * Append every span to the process obs::SpanCollector (Chrome
     * trace-event format) and write it to @p path.
     */
    bool
    writeChromeTrace(const std::string &path) const
    {
        laser::obs::SpanCollector &c = laser::obs::SpanCollector::global();
        const std::int64_t origin =
            records_.empty() ? 0 : records_.front().beginNs;
        for (const Record &r : records_)
            c.append({r.name, 0, double(r.beginNs - origin) * 1e-3,
                      double(r.endNs - r.beginNs) * 1e-3});
        return c.writeFile(path);
    }

  private:
    void
    close(int idx)
    {
        Record &r = records_[idx];
        r.endNs = nowNs();
        current_ = r.parent;
        if (current_ >= 0)
            records_[current_].childNs += r.endNs - r.beginNs;
    }

    bool on_;
    int current_ = -1;
    std::vector<Record> records_;
};

/**
 * PmuSink decorator: forwards every callback to the wrapped model and
 * accumulates the time spent in the callbacks named by @p timed (the
 * ones the model implements; timing the others would only measure the
 * clock). Behaviour (returned costs, call order) is exactly the wrapped
 * sink's.
 */
class TimedSink final : public laser::sim::PmuSink
{
  public:
    enum Callback : unsigned { kHitm = 1, kMemop = 2, kSync = 4 };

    TimedSink(laser::sim::PmuSink &inner, unsigned timed)
        : inner_(inner), timed_(timed)
    {
    }

    std::uint64_t
    onHitm(const laser::sim::HitmEvent &event) override
    {
        if (!(timed_ & kHitm))
            return inner_.onHitm(event);
        const std::int64_t t0 = nowNs();
        const std::uint64_t cost = inner_.onHitm(event);
        ns_ += nowNs() - t0;
        return cost;
    }

    std::uint64_t
    onMemop(int core, std::uint32_t pc_index, bool is_write,
            std::uint64_t cycle) override
    {
        ++memops_;
        if (!(timed_ & kMemop))
            return inner_.onMemop(core, pc_index, is_write, cycle);
        const std::int64_t t0 = nowNs();
        const std::uint64_t cost =
            inner_.onMemop(core, pc_index, is_write, cycle);
        ns_ += nowNs() - t0;
        return cost;
    }

    std::uint64_t
    onSync(int core, laser::isa::SyncKind kind, std::uint64_t dirty_pages,
           std::uint64_t cycle) override
    {
        ++syncs_;
        if (!(timed_ & kSync))
            return inner_.onSync(core, kind, dirty_pages, cycle);
        const std::int64_t t0 = nowNs();
        const std::uint64_t cost =
            inner_.onSync(core, kind, dirty_pages, cycle);
        ns_ += nowNs() - t0;
        return cost;
    }

    std::int64_t ns() const { return ns_; }
    std::uint64_t memops() const { return memops_; }
    std::uint64_t syncs() const { return syncs_; }

  private:
    laser::sim::PmuSink &inner_;
    unsigned timed_;
    std::int64_t ns_ = 0;
    std::uint64_t memops_ = 0;
    std::uint64_t syncs_ = 0;
};

} // namespace perfbench

#endif // LASER_PERFBENCH_TRACER_H
