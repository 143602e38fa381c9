/**
 * @file
 * Software store buffer (SSB) — the core of LASERREPAIR (Section 5).
 *
 * Stores modified to use the SSB write into this thread-private structure
 * instead of shared memory; loads snoop it first; an explicit flush
 * publishes all buffered bytes. Two implementations are provided:
 *
 *  - Coalescing (the paper's choice, Section 5.5): one slot per 8-byte
 *    memory chunk with a per-byte valid bitmap. Space-efficient — millions
 *    of stores collapse into a handful of entries — but individual-entry
 *    flushing could reorder stores illegally under TSO, so the flush must
 *    be strongly atomic (one hardware transaction).
 *  - Fifo (the ablation baseline): a queue with one entry per store.
 *    Trivially TSO-correct to drain in order, but impractically large
 *    between flushes; bench_ablation_ssb quantifies the difference.
 *
 * A per-byte bitmap records which bytes are valid within an entry so
 * unaligned and partial-overlap accesses are handled correctly
 * (Section 5.1).
 *
 * Slot layout and lookup. Each slot (an SsbEntry) is one 8-byte-aligned
 * chunk: its address, the chunk's bytes as one little-endian 64-bit
 * word, an 8-bit valid mask (bit i set => byte i of the word is
 * buffered) and the lowest and highest store sequence merged into it.
 * The slots live in a small vector sorted by chunk address; in
 * coalescing mode the machine's pre-emptive flush keeps it at
 * ssbMaxEntries + 1 slots (9 at the default cap) or fewer, one more
 * when a store crossing a chunk boundary adds two slots at once. An
 * access of 1..8 bytes touches at most two adjacent chunks, and each
 * costs one binary search; bytes move in and out of a slot as whole
 * words under a mask, never byte by byte. Draining in coalescing mode
 * hands the sorted vector over as is. In fifo mode the slots are the
 * coalesced view loads snoop, and a separate queue keeps one record per
 * store for the drain.
 */

#ifndef LASER_SIM_SSB_H
#define LASER_SIM_SSB_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace laser::sim {

/** SSB implementation strategy. */
enum class SsbMode : std::uint8_t {
    Coalescing, ///< one slot per 8-byte chunk (paper design)
    Fifo,       ///< one entry per store (ablation baseline)
};

/**
 * One buffered chunk: a coalescing slot, and once drained, an entry
 * ready to apply to memory.
 */
struct SsbEntry
{
    std::uint64_t addr = 0;     ///< base byte address of the chunk
    std::uint64_t data = 0;     ///< byte i of the chunk in bits 8i..8i+7
    std::uint8_t validMask = 0; ///< bit i set => byte addr+i is valid
    std::uint64_t minSeq = 0;   ///< lowest store sequence merged in
    std::uint64_t maxSeq = 0;   ///< highest store sequence merged in
};

/** Widen a lane mask to a byte mask: bit i -> 0xff in byte i. */
constexpr std::uint64_t
byteMask(std::uint8_t lanes)
{
    std::uint64_t m = lanes;
    m = (m | (m << 28)) & 0x0000000f0000000fULL;
    m = (m | (m << 14)) & 0x0003000300030003ULL;
    m = (m | (m << 7)) & 0x0101010101010101ULL;
    return m * 0xff;
}

/** Thread-private software store buffer. */
class SoftwareStoreBuffer
{
  public:
    explicit SoftwareStoreBuffer(SsbMode mode = SsbMode::Coalescing)
        : mode_(mode)
    {
    }

    /** Buffer a store of @p size bytes of @p value at @p addr. */
    void put(std::uint64_t addr, int size, std::uint64_t value,
             std::uint64_t seq);

    /**
     * True if every byte of [addr, addr+size) is buffered; if so, @p value
     * receives the buffered data.
     */
    bool getFull(std::uint64_t addr, int size, std::uint64_t *value) const;

    /** True if any byte of [addr, addr+size) is buffered. */
    bool containsAny(std::uint64_t addr, int size) const;

    /**
     * Overlay buffered bytes onto @p mem_value (the value read from
     * memory), returning the TSO-correct merged load result.
     */
    std::uint64_t merge(std::uint64_t addr, int size,
                        std::uint64_t mem_value) const;

    /**
     * Move all entries into @p out (replacing its contents), ordered by
     * chunk address (coalescing) or store order (fifo), and empty the
     * buffer. Reusing @p out across drains avoids reallocating it.
     */
    void drain(std::vector<SsbEntry> *out);

    /** Number of occupied slots (chunks or queued stores). */
    std::size_t
    entryCount() const
    {
        return mode_ == SsbMode::Fifo ? fifo_.size() : slots_.size();
    }

    bool empty() const { return entryCount() == 0; }

    SsbMode mode() const { return mode_; }

    /** Total stores buffered since construction (for stats/ablation). */
    std::uint64_t totalPuts() const { return totalPuts_; }

  private:
    /** The slot for chunk address @p chunk, or nullptr. */
    const SsbEntry *find(std::uint64_t chunk) const;
    /** Merge bytes @p lanes of @p data into chunk @p chunk's slot. */
    void putChunk(std::uint64_t chunk, std::uint64_t data,
                  std::uint8_t lanes, std::uint64_t seq);

    SsbMode mode_;
    /** Sorted by addr, one per chunk holding a buffered byte. */
    std::vector<SsbEntry> slots_;

    struct FifoEntry
    {
        std::uint64_t addr;
        std::uint8_t size;
        std::uint64_t value;
        std::uint64_t seq;
    };
    std::vector<FifoEntry> fifo_;

    std::uint64_t totalPuts_ = 0;
};

} // namespace laser::sim

#endif // LASER_SIM_SSB_H
