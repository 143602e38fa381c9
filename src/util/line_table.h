/**
 * @file
 * LineTable: the flat table both coherence backends keep their per-line
 * state in, and mem::Memory its page table.
 *
 * An open-addressed hash table keyed by a line or page number: linear
 * probing over a power-of-two slot array, Fibonacci hashing of the key,
 * growth by doubling at half load, and backward-shift deletion (no
 * tombstones), which bounded-MESI eviction needs. Keys are byte
 * addresses shifted right by at least 3, so the all-ones key never
 * occurs and marks an empty slot.
 *
 * References returned by find()/findOrInsert() stay valid only until the
 * next insertion or erase.
 */

#ifndef LASER_UTIL_LINE_TABLE_H
#define LASER_UTIL_LINE_TABLE_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace laser::util {

template <typename V>
class LineTable
{
  public:
    /** Reserved key marking an empty slot (never a line address). */
    static constexpr std::uint64_t kEmpty = ~0ULL;

    LineTable() { rehash(kMinCapacity); }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    /** Slot a key's probe sequence starts at (for tests). */
    std::size_t
    homeSlot(std::uint64_t key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                        shift_);
    }

    /** Entry for @p key, or nullptr. */
    const V *
    find(std::uint64_t key) const
    {
        for (std::size_t i = homeSlot(key);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == kEmpty)
                return nullptr;
        }
    }

    V *
    find(std::uint64_t key)
    {
        return const_cast<V *>(std::as_const(*this).find(key));
    }

    /** Entry for @p key, value-initialized on first use. */
    V &
    findOrInsert(std::uint64_t key)
    {
        assert(key != kEmpty);
        for (std::size_t i = homeSlot(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == key)
                return s.value;
            if (s.key == kEmpty) {
                if (2 * (size_ + 1) > slots_.size()) {
                    rehash(2 * slots_.size());
                    return findOrInsert(key);
                }
                s.key = key;
                s.value = V{};
                ++size_;
                return s.value;
            }
        }
    }

    /**
     * Remove @p key (no-op if absent). Backward-shift deletion: every
     * later entry of the probe cluster whose home slot does not lie
     * strictly between the hole and itself moves back into the hole, so
     * lookups never need tombstones.
     */
    void
    erase(std::uint64_t key)
    {
        std::size_t hole = homeSlot(key);
        while (slots_[hole].key != key) {
            if (slots_[hole].key == kEmpty)
                return;
            hole = (hole + 1) & mask_;
        }
        for (std::size_t j = (hole + 1) & mask_;
             slots_[j].key != kEmpty; j = (j + 1) & mask_) {
            const std::size_t home = homeSlot(slots_[j].key);
            if (((j - home) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].key = kEmpty;
        --size_;
    }

    /** True if @p pred(value) holds for every entry; stops at the
     *  first entry it fails on. */
    template <typename Pred>
    bool
    allOf(Pred &&pred) const
    {
        for (const Slot &s : slots_) {
            if (s.key != kEmpty && !pred(s.value))
                return false;
        }
        return true;
    }

  private:
    static constexpr std::size_t kMinCapacity = 16;

    struct Slot
    {
        std::uint64_t key = kEmpty;
        V value{};
    };

    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old(capacity);
        old.swap(slots_);
        mask_ = capacity - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
        for (const Slot &s : old) {
            if (s.key == kEmpty)
                continue;
            std::size_t i = homeSlot(s.key);
            while (slots_[i].key != kEmpty)
                i = (i + 1) & mask_;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace laser::util

#endif // LASER_UTIL_LINE_TABLE_H
