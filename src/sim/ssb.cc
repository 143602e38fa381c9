#include "sim/ssb.h"

#include <algorithm>

namespace laser::sim {

namespace {

/**
 * Where an access of 1..8 bytes falls: lanes lo() of the chunk at
 * @c chunk and, when it crosses the chunk boundary, lanes hi() of the
 * next chunk. Byte i of the access value is lane @c lane + i, counted
 * on into the next chunk.
 */
struct Span
{
    std::uint64_t chunk;
    int lane;
    /** Lanes 0-7 of this chunk, then 8-15 for the next one's 0-7. */
    unsigned lanes;

    Span(std::uint64_t addr, int size)
        : chunk(addr & ~7ULL), lane(static_cast<int>(addr & 7)),
          lanes(((1u << size) - 1) << lane)
    {
    }

    std::uint8_t lo() const { return static_cast<std::uint8_t>(lanes); }
    std::uint8_t hi() const { return static_cast<std::uint8_t>(lanes >> 8); }

    /** Access value -> the low chunk's word, and back. */
    int loShift() const { return 8 * lane; }
    /** Access value -> the high chunk's word (only when hi() != 0). */
    int hiShift() const { return 8 * (8 - lane); }
};

/** Orders slots against a chunk address, for std::lower_bound. */
bool
chunkBefore(const SsbEntry &e, std::uint64_t chunk)
{
    return e.addr < chunk;
}

} // namespace

const SsbEntry *
SoftwareStoreBuffer::find(std::uint64_t chunk) const
{
    const auto it =
        std::lower_bound(slots_.begin(), slots_.end(), chunk, chunkBefore);
    return it != slots_.end() && it->addr == chunk ? &*it : nullptr;
}

void
SoftwareStoreBuffer::putChunk(std::uint64_t chunk, std::uint64_t data,
                              std::uint8_t lanes, std::uint64_t seq)
{
    auto it =
        std::lower_bound(slots_.begin(), slots_.end(), chunk, chunkBefore);
    if (it == slots_.end() || it->addr != chunk) {
        it = slots_.insert(it, SsbEntry{chunk, 0, 0, seq, seq});
    } else {
        it->minSeq = std::min(it->minSeq, seq);
        it->maxSeq = std::max(it->maxSeq, seq);
    }
    const std::uint64_t m = byteMask(lanes);
    it->data = (it->data & ~m) | (data & m);
    it->validMask |= lanes;
}

void
SoftwareStoreBuffer::put(std::uint64_t addr, int size, std::uint64_t value,
                         std::uint64_t seq)
{
    ++totalPuts_;
    const Span s(addr, size);
    putChunk(s.chunk, value << s.loShift(), s.lo(), seq);
    if (s.hi())
        putChunk(s.chunk + 8, value >> s.hiShift(), s.hi(), seq);
    if (mode_ == SsbMode::Fifo) {
        fifo_.push_back({addr, static_cast<std::uint8_t>(size), value,
                         seq});
    }
}

bool
SoftwareStoreBuffer::getFull(std::uint64_t addr, int size,
                             std::uint64_t *value) const
{
    const Span s(addr, size);
    const SsbEntry *lo = find(s.chunk);
    if (!lo || (lo->validMask & s.lo()) != s.lo())
        return false;
    std::uint64_t out = lo->data >> s.loShift();
    if (s.hi()) {
        const SsbEntry *hi = find(s.chunk + 8);
        if (!hi || (hi->validMask & s.hi()) != s.hi())
            return false;
        out |= hi->data << s.hiShift();
    }
    if (value) {
        *value =
            out & byteMask(static_cast<std::uint8_t>((1u << size) - 1));
    }
    return true;
}

bool
SoftwareStoreBuffer::containsAny(std::uint64_t addr, int size) const
{
    const Span s(addr, size);
    const SsbEntry *lo = find(s.chunk);
    if (lo && (lo->validMask & s.lo()))
        return true;
    if (!s.hi())
        return false;
    const SsbEntry *hi = find(s.chunk + 8);
    return hi && (hi->validMask & s.hi());
}

std::uint64_t
SoftwareStoreBuffer::merge(std::uint64_t addr, int size,
                           std::uint64_t mem_value) const
{
    const Span s(addr, size);
    std::uint64_t out = mem_value;
    if (const SsbEntry *lo = find(s.chunk)) {
        const std::uint64_t m =
            byteMask(lo->validMask & s.lo()) >> s.loShift();
        out = (out & ~m) | ((lo->data >> s.loShift()) & m);
    }
    if (s.hi()) {
        if (const SsbEntry *hi = find(s.chunk + 8)) {
            const std::uint64_t m =
                byteMask(hi->validMask & s.hi()) << s.hiShift();
            out = (out & ~m) | ((hi->data << s.hiShift()) & m);
        }
    }
    return out;
}

void
SoftwareStoreBuffer::drain(std::vector<SsbEntry> *out)
{
    out->clear();
    if (mode_ == SsbMode::Coalescing) {
        out->swap(slots_);
        return;
    }

    // One entry per buffered store, in program order, split into (at
    // most two) chunk-aligned pieces so the entry format stays uniform.
    for (const FifoEntry &fe : fifo_) {
        const Span s(fe.addr, fe.size);
        out->push_back({s.chunk,
                        (fe.value << s.loShift()) & byteMask(s.lo()), s.lo(),
                        fe.seq, fe.seq});
        if (s.hi()) {
            out->push_back({s.chunk + 8,
                            (fe.value >> s.hiShift()) & byteMask(s.hi()),
                            s.hi(), fe.seq, fe.seq});
        }
    }
    fifo_.clear();
    slots_.clear();
}

} // namespace laser::sim
