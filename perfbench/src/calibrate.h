/**
 * @file
 * A fixed reference computation that measures how fast the host runs
 * right now. It does the same kinds of work the simulator does (a
 * switch-dispatched interpreter over a small program, a hashed
 * per-line directory, paged memory and an ordered buffer) but none of
 * the library's code, so a change to the library never changes it.
 */

#ifndef LASER_PERFBENCH_CALIBRATE_H
#define LASER_PERFBENCH_CALIBRATE_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "tracer.h"

namespace perfbench {

/**
 * Runs the reference computation once; returns its checksum. Its
 * tables live for the whole process, so later calls reuse the memory
 * the first one touched.
 */
inline std::uint64_t
calibrationKernel()
{
    constexpr int kSteps = 400000;
    constexpr std::uint64_t kPageWords = 512;
    constexpr std::uint64_t kPages = 4;
    struct Line
    {
        std::uint32_t owner = 0;
        std::uint32_t sharers = 0;
    };
    static std::unordered_map<std::uint64_t, Line> lines;
    static std::vector<std::uint64_t> memory(kPages * kPageWords);
    static std::map<std::uint64_t, std::uint64_t> buffer;
    lines.clear();
    buffer.clear();
    std::fill(memory.begin(), memory.end(), 0);

    // A fixed program of 64 instructions: opcode, register, register.
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    struct Insn
    {
        std::uint8_t op, a, b;
    };
    std::vector<Insn> program(64);
    for (Insn &in : program)
        in = {std::uint8_t(next() % 6), std::uint8_t(next() % 8),
              std::uint8_t(next() % 8)};

    std::uint64_t reg[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    std::uint64_t sum = 0;
    std::size_t pc = 0;
    for (int step = 0; step < kSteps; ++step) {
        const Insn in = program[pc];
        const int core = step & 3;
        switch (in.op) {
          case 0:
            reg[in.a] += reg[in.b] * 0x9e3779b97f4a7c15ULL;
            break;
          case 1:
            reg[in.a] ^= reg[in.b] >> 7;
            break;
          case 2:
          case 3: {
            const std::uint64_t addr =
                (reg[in.b] ^ next()) % (kPages * kPageWords * 8);
            std::uint64_t &word = memory[addr / 8];
            Line &line = lines[addr / 64];
            if (in.op == 2) {
                reg[in.a] += word;
                line.sharers |= 1u << core;
            } else {
                word = reg[in.a];
                line.owner = std::uint32_t(core);
                line.sharers = 1u << core;
            }
            break;
          }
          case 4:
            buffer[reg[in.a] % 1024] += reg[in.b];
            break;
          default:
            if (!buffer.empty() && (step & 255) == 0) {
                sum += buffer.begin()->second;
                buffer.erase(buffer.begin());
            }
            break;
        }
        pc = (pc + 1 + (reg[in.a] & 1)) % program.size();
    }
    for (const std::uint64_t r : reg)
        sum += r;
    return sum + lines.size();
}

/**
 * The host's speed over a run: the fastest time of the reference
 * computation, sampled on the calling thread's CPU throughout the run.
 */
class HostSpeed
{
  public:
    /**
     * The reference computation's fastest time on the unloaded host the
     * benchmark was tuned on (4-vCPU Xeon VM). Timings are reported in
     * seconds at that speed.
     */
    static constexpr double kReferenceSeconds = 0.010;

    HostSpeed()
    {
        checksum_ = calibrationKernel(); // allocates the tables
    }

    /** Times one run of the reference computation; returns seconds. */
    double
    sample()
    {
        const std::int64_t t0 = nowNs();
        const std::uint64_t sum = calibrationKernel();
        last_ = nowNs();
        times_.push_back(1e-9 * double(last_ - t0));
        if (sum != checksum_)
            throw std::logic_error("reference computation not repeatable");
        return times_.back();
    }

    /** Takes @p n samples; returns the fastest, in seconds. */
    double
    fastestOf(std::size_t n)
    {
        double best = sample();
        for (std::size_t k = 1; k < n; ++k)
            best = std::min(best, sample());
        return best;
    }

    /** Samples when at least @p interval_s have passed since the last. */
    void
    sampleEvery(double interval_s)
    {
        if (times_.empty() || 1e-9 * double(nowNs() - last_) >= interval_s)
            (void)sample();
    }

    /**
     * Multiplier that turns host seconds measured in this run into
     * seconds at the reference speed.
     */
    double
    factor() const
    {
        return times_.empty() ? 1.0 : kReferenceSeconds / fastestSeconds();
    }

    double
    fastestSeconds() const
    {
        return *std::min_element(times_.begin(), times_.end());
    }

    const std::vector<double> &times() const { return times_; }

  private:
    std::uint64_t checksum_ = 0;
    std::int64_t last_ = 0;
    std::vector<double> times_;
};

} // namespace perfbench

#endif // LASER_PERFBENCH_CALIBRATE_H
