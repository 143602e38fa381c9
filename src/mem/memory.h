/**
 * @file
 * Sparse byte-addressable backing store for the simulated machine.
 *
 * Pages are allocated lazily on first write; reads of untouched memory
 * return zero (like fresh anonymous mappings) and allocate nothing.
 * Values are little-endian, matching the x86 systems the paper targets.
 *
 * The page table is a flat open-addressed util::LineTable from page
 * number to page, so an access costs one probe, not a node-based hash
 * lookup. Pages are owned separately and never move, so the table can
 * grow without invalidating them.
 */

#ifndef LASER_MEM_MEMORY_H
#define LASER_MEM_MEMORY_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/line_table.h"

namespace laser::mem {

/** Sparse simulated physical memory. */
class Memory
{
  public:
    static constexpr std::uint64_t kPageBytes = 4096;

    /** Read @p size bytes (1/2/4/8) at @p addr, little-endian. */
    std::uint64_t read(std::uint64_t addr, int size) const;

    /** Write the low @p size bytes of @p value at @p addr. */
    void write(std::uint64_t addr, int size, std::uint64_t value);

    /**
     * Write the bytes of @p value that @p byte_mask selects (0xff in
     * each selected byte) to the 8-byte-aligned word at @p addr,
     * keeping the others: one page lookup for the whole word.
     */
    void writeMasked(std::uint64_t addr, std::uint64_t value,
                     std::uint64_t byte_mask);

    /** Read a single byte. */
    std::uint8_t readByte(std::uint64_t addr) const;

    /** Write a single byte. */
    void writeByte(std::uint64_t addr, std::uint8_t value);

    /** Number of distinct pages touched so far. */
    std::size_t pagesTouched() const { return table_.size(); }

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;

    Page *pageFor(std::uint64_t addr);
    const Page *pageForConst(std::uint64_t addr) const;

    /** Page number -> page; never holds a null page. */
    util::LineTable<Page *> table_;
    /** Owns every page in the table. */
    std::vector<std::unique_ptr<Page>> pages_;
};

} // namespace laser::mem

#endif // LASER_MEM_MEMORY_H
