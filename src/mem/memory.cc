#include "mem/memory.h"

#include <cassert>
#include <cstring>

namespace laser::mem {

Memory::Page *
Memory::pageFor(std::uint64_t addr)
{
    Page *&page = table_.findOrInsert(addr / kPageBytes);
    if (!page) {
        pages_.push_back(std::make_unique<Page>()); // zero-filled
        page = pages_.back().get();
    }
    return page;
}

const Memory::Page *
Memory::pageForConst(std::uint64_t addr) const
{
    Page *const *page = table_.find(addr / kPageBytes);
    return page ? *page : nullptr;
}

std::uint64_t
Memory::read(std::uint64_t addr, int size) const
{
    // Fast path: access contained in one page.
    const std::uint64_t off = addr % kPageBytes;
    if (off + std::uint64_t(size) <= kPageBytes) {
        const Page *page = pageForConst(addr);
        if (!page)
            return 0;
        std::uint64_t value = 0;
        std::memcpy(&value, page->data() + off, size);
        return value;
    }
    std::uint64_t value = 0;
    for (int i = 0; i < size; ++i)
        value |= std::uint64_t(readByte(addr + i)) << (8 * i);
    return value;
}

void
Memory::write(std::uint64_t addr, int size, std::uint64_t value)
{
    const std::uint64_t off = addr % kPageBytes;
    if (off + std::uint64_t(size) <= kPageBytes) {
        Page *page = pageFor(addr);
        std::memcpy(page->data() + off, &value, size);
        return;
    }
    for (int i = 0; i < size; ++i)
        writeByte(addr + i, std::uint8_t(value >> (8 * i)));
}

void
Memory::writeMasked(std::uint64_t addr, std::uint64_t value,
                    std::uint64_t byte_mask)
{
    assert(addr % 8 == 0);
    std::uint8_t *word = pageFor(addr)->data() + addr % kPageBytes;
    std::uint64_t merged = value;
    if (byte_mask != ~0ULL) {
        std::memcpy(&merged, word, 8);
        merged = (merged & ~byte_mask) | (value & byte_mask);
    }
    std::memcpy(word, &merged, 8);
}

std::uint8_t
Memory::readByte(std::uint64_t addr) const
{
    const Page *page = pageForConst(addr);
    return page ? (*page)[addr % kPageBytes] : 0;
}

void
Memory::writeByte(std::uint64_t addr, std::uint8_t value)
{
    (*pageFor(addr))[addr % kPageBytes] = value;
}

} // namespace laser::mem
