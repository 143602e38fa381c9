#include "trace/columnar.h"

#include <algorithm>
#include <bit>

#include "trace/wire.h"

namespace laser::trace::columnar {

namespace {

using wire::ByteReader;
using wire::ByteWriter;

/** Bits needed to represent @p v (0 for 0). */
unsigned
bitsFor(std::uint64_t v)
{
    return static_cast<unsigned>(std::bit_width(v));
}

/** Length of @p v as a LEB128 varint. */
std::size_t
varBytes(std::uint64_t v)
{
    return 1 + (static_cast<std::size_t>(std::bit_width(v | 1)) - 1) / 7;
}

/** Strict LSB-first unpacker over a fixed byte range. */
struct BitReader
{
    const std::uint8_t *p;
    const std::uint8_t *end;
    unsigned n = 0;
    bool ok = true;

    BitReader(const std::uint8_t *data, std::size_t size)
        : p(data), end(data + size)
    {
    }

    std::uint64_t
    get(unsigned width)
    {
        std::uint64_t v = 0;
        unsigned done = 0;
        while (done < width) {
            if (p >= end) {
                ok = false;
                return 0;
            }
            const unsigned take = std::min(width - done, 8u - n);
            v |= static_cast<std::uint64_t>(
                     (*p >> n) & ((1u << take) - 1))
                 << done;
            n += take;
            done += take;
            if (n == 8) {
                ++p;
                n = 0;
            }
        }
        return v;
    }

    /** All bytes consumed, with zero padding bits in the last byte. */
    bool
    finished()
    {
        if (!ok)
            return false;
        if (n > 0) {
            if ((*p >> n) != 0)
                return false;
            ++p;
            n = 0;
        }
        return p == end;
    }
};

// -- DeltaVar ---------------------------------------------------------

/** DeltaVar size of @p vals; sets @p sorted to whether they never
 *  decrease. */
std::size_t
deltaVarBytes(const std::vector<std::uint64_t> &vals, bool *sorted)
{
    std::size_t bytes = 0;
    bool ascending = true;
    std::uint64_t prev = 0;
    for (std::uint64_t v : vals) {
        bytes += varBytes(
            wire::zigzagEncode(static_cast<std::int64_t>(v - prev)));
        ascending &= v >= prev;
        prev = v;
    }
    *sorted = ascending;
    return bytes;
}

void
encodeDeltaVar(const std::vector<std::uint64_t> &vals,
               std::vector<std::uint8_t> *out)
{
    ByteWriter w(*out);
    std::uint64_t prev = 0;
    for (std::uint64_t v : vals) {
        w.zig(static_cast<std::int64_t>(v - prev));
        prev = v;
    }
}

bool
decodeDeltaVar(const std::uint8_t *data, std::size_t size,
               std::size_t count, std::vector<std::uint64_t> *out)
{
    ByteReader r(data, size);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < count; ++i) {
        prev += static_cast<std::uint64_t>(r.zig());
        if (!r.ok)
            return false;
        out->push_back(prev);
    }
    return r.remaining() == 0;
}

// -- DictPack ---------------------------------------------------------

constexpr std::uint8_t kDictSubPacked = 0;
constexpr std::uint8_t kDictSubRle = 1;

bool
decodeDictPack(const std::uint8_t *data, std::size_t size,
               std::size_t count, std::vector<std::uint64_t> *out)
{
    if (count == 0)
        return size == 0;
    ByteReader r(data, size);
    const std::uint64_t dict_size = r.var();
    // Each dictionary entry takes >= 1 byte; bound the reserve.
    if (!r.ok || dict_size == 0 || dict_size > r.remaining() + 1)
        return false;
    std::vector<std::uint64_t> dict;
    dict.reserve(static_cast<std::size_t>(dict_size));
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < dict_size; ++i) {
        const std::uint64_t d = r.var();
        if (!r.ok)
            return false;
        // Entries are strictly increasing (delta >= 1 past the first);
        // equal entries would make the encoding non-canonical.
        if (i > 0 && d == 0)
            return false;
        prev = i == 0 ? d : prev + d;
        dict.push_back(prev);
    }
    const std::uint8_t sub = r.u8();
    if (!r.ok)
        return false;
    if (sub == kDictSubPacked) {
        const unsigned width = bitsFor(dict.size() - 1);
        BitReader bits(r.p, r.remaining());
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t idx = bits.get(width);
            if (!bits.ok || idx >= dict.size())
                return false;
            out->push_back(dict[static_cast<std::size_t>(idx)]);
        }
        return bits.finished();
    }
    if (sub == kDictSubRle) {
        std::size_t total = 0;
        std::uint64_t prev_idx = dict.size(); // sentinel: no previous
        while (total < count) {
            const std::uint64_t idx = r.var();
            const std::uint64_t run = r.var();
            if (!r.ok || idx >= dict.size() || run == 0 ||
                    run > count - total)
                return false;
            // Adjacent runs of the same index are non-canonical.
            if (idx == prev_idx)
                return false;
            prev_idx = idx;
            out->insert(out->end(), static_cast<std::size_t>(run),
                        dict[static_cast<std::size_t>(idx)]);
            total += static_cast<std::size_t>(run);
        }
        return r.remaining() == 0;
    }
    return false;
}

} // namespace

const char *
codecName(ColumnCodec codec)
{
    switch (codec) {
      case ColumnCodec::DeltaVar: return "delta-var";
      case ColumnCodec::DictPack: return "dict-pack";
    }
    return "???";
}

const char *
columnName(std::size_t column)
{
    switch (column) {
      case kColPc:    return "pc";
      case kColAddr:  return "data_addr";
      case kColCore:  return "core";
      case kColCycle: return "cycle";
    }
    return "???";
}

void
encodeColumn(ColumnCodec codec, const std::vector<std::uint64_t> &vals,
             std::vector<std::uint8_t> *out)
{
    ColumnEncoder().encode(codec, vals, out);
}

bool
decodeColumn(ColumnCodec codec, const std::uint8_t *data,
             std::size_t size, std::size_t count,
             std::vector<std::uint64_t> *out)
{
    out->clear();
    out->reserve(count);
    switch (codec) {
      case ColumnCodec::DeltaVar:
        return decodeDeltaVar(data, size, count, out);
      case ColumnCodec::DictPack:
        return decodeDictPack(data, size, count, out);
    }
    return false;
}

ColumnCodec
chooseCodec(const std::vector<std::uint64_t> &vals,
            std::vector<std::uint8_t> *out)
{
    return ColumnEncoder().choose(vals, out);
}

// ---------------------------------------------------------------------
// ColumnEncoder
// ---------------------------------------------------------------------

ColumnCodec
ColumnEncoder::choose(const std::vector<std::uint64_t> &vals,
                      std::vector<std::uint8_t> *out)
{
    bool sorted = false;
    const std::size_t delta = deltaVarBytes(vals, &sorted);
    // DictPack is worth sizing even at high cardinality: address
    // columns cluster in a few tight regions, so the sorted dictionary
    // deltas stay small while the record-order deltas jump across
    // regions.
    const std::size_t dict = planDictPack(vals, sorted);
    // Strictly smaller wins: a tie keeps DeltaVar (the lower codec id),
    // so the choice is deterministic and the file image reproducible.
    if (dict < delta) {
        writeDictPack(out);
        return ColumnCodec::DictPack;
    }
    encodeDeltaVar(vals, out);
    return ColumnCodec::DeltaVar;
}

void
ColumnEncoder::encode(ColumnCodec codec,
                      const std::vector<std::uint64_t> &vals,
                      std::vector<std::uint8_t> *out)
{
    switch (codec) {
      case ColumnCodec::DeltaVar:
        encodeDeltaVar(vals, out);
        return;
      case ColumnCodec::DictPack:
        planDictPack(vals, std::is_sorted(vals.begin(), vals.end()));
        writeDictPack(out);
        return;
    }
}

std::size_t
ColumnEncoder::planDictPack(const std::vector<std::uint64_t> &vals,
                            bool sorted)
{
    dict_.clear();
    const std::size_t n = vals.size();
    ranks_.resize(n);
    if (n == 0)
        return 0;
    if (sorted) {
        // Equal values are adjacent: the dictionary is the column with
        // repeats dropped, and an index steps at each new value.
        dict_.push_back(vals[0]);
        for (std::size_t i = 0; i < n; ++i) {
            if (vals[i] != dict_.back())
                dict_.push_back(vals[i]);
            ranks_[i] = static_cast<std::uint32_t>(dict_.size() - 1);
        }
    } else {
        rankUnsorted(vals);
    }

    std::size_t bytes = varBytes(dict_.size()) + 1; // + sub-encoding tag
    for (std::size_t r = 0; r < dict_.size(); ++r)
        bytes += varBytes(r == 0 ? dict_[0] : dict_[r] - dict_[r - 1]);

    // Sub-encoding: bit-packed indices vs RLE runs, whichever is
    // smaller (deterministic: packed wins ties). RLE sizing stops once
    // it has lost.
    width_ = bitsFor(dict_.size() - 1);
    const std::size_t packed = (n * width_ + 7) / 8;
    std::size_t rle = 0;
    for (std::size_t i = 0; i < n && rle <= packed;) {
        std::size_t j = i + 1;
        while (j < n && ranks_[j] == ranks_[i])
            ++j;
        rle += varBytes(ranks_[i]) + varBytes(j - i);
        i = j;
    }
    packed_ = packed <= rle;
    return bytes + (packed_ ? packed : rle);
}

void
ColumnEncoder::rankUnsorted(const std::vector<std::uint64_t> &vals)
{
    const std::size_t n = vals.size();
    std::size_t capacity = 16;
    while (capacity < 2 * n)
        capacity *= 2;
    const std::size_t mask = capacity - 1;
    const unsigned shift =
        64 - static_cast<unsigned>(std::countr_zero(capacity));
    slotKeys_.resize(capacity);
    slotRanks_.assign(capacity, kEmptySlot);
    auto slot_of = [&](std::uint64_t v) {
        std::size_t s = static_cast<std::size_t>(
            (v * 0x9e3779b97f4a7c15ULL) >> shift);
        while (slotRanks_[s] != kEmptySlot && slotKeys_[s] != v)
            s = (s + 1) & mask;
        return s;
    };

    // Pass 1: ranks_ holds each value's slot; dict_ collects the
    // distinct values.
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t v = vals[i];
        if (i > 0 && v == vals[i - 1]) {
            ranks_[i] = ranks_[i - 1];
            continue;
        }
        const std::size_t s = slot_of(v);
        if (slotRanks_[s] == kEmptySlot) {
            slotKeys_[s] = v;
            slotRanks_[s] = 0;
            dict_.push_back(v);
        }
        ranks_[i] = static_cast<std::uint32_t>(s);
    }
    // Sort the distinct values, store each one's index in its slot, and
    // turn every value's slot into that index.
    std::sort(dict_.begin(), dict_.end());
    for (std::size_t r = 0; r < dict_.size(); ++r)
        slotRanks_[slot_of(dict_[r])] = static_cast<std::uint32_t>(r);
    for (std::uint32_t &rank : ranks_)
        rank = slotRanks_[rank];
}

void
ColumnEncoder::writeDictPack(std::vector<std::uint8_t> *out) const
{
    if (dict_.empty())
        return;
    ByteWriter w(*out);
    w.var(dict_.size());
    for (std::size_t r = 0; r < dict_.size(); ++r)
        w.var(r == 0 ? dict_[0] : dict_[r] - dict_[r - 1]);
    if (packed_) {
        // LSB-first fixed-width indices; pad bits in the last byte are 0.
        w.u8(kDictSubPacked);
        std::uint64_t acc = 0;
        unsigned bits = 0;
        for (std::uint32_t rank : ranks_) {
            acc |= std::uint64_t(rank) << bits;
            for (bits += width_; bits >= 8; bits -= 8) {
                w.u8(static_cast<std::uint8_t>(acc));
                acc >>= 8;
            }
        }
        if (bits > 0)
            w.u8(static_cast<std::uint8_t>(acc));
    } else {
        w.u8(kDictSubRle);
        for (std::size_t i = 0; i < ranks_.size();) {
            std::size_t j = i + 1;
            while (j < ranks_.size() && ranks_[j] == ranks_[i])
                ++j;
            w.var(ranks_[i]);
            w.var(j - i);
            i = j;
        }
    }
}

// ---------------------------------------------------------------------
// BlockIndex
// ---------------------------------------------------------------------

std::uint64_t
BlockIndex::blobBytes() const
{
    std::uint64_t n = 0;
    for (const BlockInfo &b : blocks)
        n += b.blobBytes();
    return n;
}

void
BlockIndex::encode(std::vector<std::uint8_t> *out) const
{
    const std::size_t start = out->size();
    ByteWriter w(*out);
    w.var(records);
    w.var(blobOffset);
    w.u64(metaChecksum);
    w.var(blocks.size());
    std::uint64_t prev_first = 0;
    for (const BlockInfo &b : blocks) {
        w.var(b.records);
        // Cycle ranges are zigzag deltas: canonical streams never
        // regress, but finalize() must also encode the non-monotonic
        // streams the reader's rejection paths are tested with.
        w.zig(static_cast<std::int64_t>(b.firstCycle - prev_first));
        w.zig(static_cast<std::int64_t>(b.lastCycle - b.firstCycle));
        prev_first = b.firstCycle;
        for (std::size_t c = 0; c < kColumnCount; ++c) {
            w.u8(static_cast<std::uint8_t>(b.codec[c]));
            w.var(b.columnBytes[c]);
        }
        w.u64(b.checksum);
    }
    w.u64(wire::fnv1a(out->data() + start, out->size() - start));
}

bool
BlockIndex::decode(const std::uint8_t *data, std::size_t size,
                   std::string *err)
{
    *this = {};
    if (size < 8) {
        *err = "block index shorter than its checksum";
        return false;
    }
    ByteReader trailer(data + size - 8, 8);
    const std::uint64_t stored_sum = trailer.u64();
    if (wire::fnv1a(data, size - 8) != stored_sum) {
        *err = "block index checksum mismatch";
        return false;
    }

    ByteReader r(data, size - 8);
    records = r.var();
    blobOffset = r.var();
    metaChecksum = r.u64();
    const std::uint64_t block_count = r.var();
    // A block entry occupies >= 16 bytes (3 varints, 4 codec/size
    // pairs, a u64 checksum); bound the reserve against bomb counts.
    if (!r.ok || block_count > r.remaining() / 16 + 1) {
        *err = "block index ends mid-structure";
        return false;
    }
    blocks.reserve(static_cast<std::size_t>(block_count));
    std::uint64_t prev_first = 0;
    std::uint64_t first_record = 0;
    std::uint64_t blob_offset = 0;
    for (std::uint64_t i = 0; i < block_count; ++i) {
        BlockInfo b;
        b.firstRecord = first_record;
        b.blobOffset = blob_offset;
        b.records = r.var();
        b.firstCycle =
            prev_first + static_cast<std::uint64_t>(r.zig());
        b.lastCycle =
            b.firstCycle + static_cast<std::uint64_t>(r.zig());
        prev_first = b.firstCycle;
        for (std::size_t c = 0; c < kColumnCount; ++c) {
            const std::uint8_t codec = r.u8();
            if (r.ok && codec >= kCodecCount) {
                *err = "block " + std::to_string(i) +
                       " has unknown codec id " + std::to_string(codec);
                return false;
            }
            b.codec[c] = static_cast<ColumnCodec>(codec);
            b.columnBytes[c] = r.var();
        }
        b.checksum = r.u64();
        if (!r.ok) {
            *err = "block index ends mid-structure";
            return false;
        }
        if (b.records == 0) {
            *err = "block " + std::to_string(i) + " declares 0 records";
            return false;
        }
        if (b.records > kMaxBlockRecords) {
            *err = "block " + std::to_string(i) + " declares " +
                   std::to_string(b.records) +
                   " records (max " + std::to_string(kMaxBlockRecords) +
                   ")";
            return false;
        }
        first_record += b.records;
        blob_offset += b.blobBytes();
        blocks.push_back(b);
    }
    if (r.remaining() != 0) {
        *err = "trailing bytes after block index entries";
        return false;
    }
    if (first_record != records) {
        *err = "block record counts sum to " +
               std::to_string(first_record) + ", index declares " +
               std::to_string(records);
        return false;
    }
    return true;
}

void
BlockIndex::blocksForCycles(std::uint64_t begin, std::uint64_t end,
                            std::size_t *first_block,
                            std::size_t *end_block) const
{
    // First block whose lastCycle >= begin (earlier blocks end before
    // the window opens)...
    *first_block = static_cast<std::size_t>(
        std::lower_bound(blocks.begin(), blocks.end(), begin,
                         [](const BlockInfo &b, std::uint64_t c) {
                             return b.lastCycle < c;
                         }) -
        blocks.begin());
    // ...up to the first block whose firstCycle >= end (it and later
    // blocks start after the half-open window closes).
    *end_block = static_cast<std::size_t>(
        std::lower_bound(blocks.begin(), blocks.end(), end,
                         [](const BlockInfo &b, std::uint64_t c) {
                             return b.firstCycle < c;
                         }) -
        blocks.begin());
    if (*end_block < *first_block)
        *end_block = *first_block;
}

std::size_t
BlockIndex::blockForRecord(std::uint64_t record) const
{
    return static_cast<std::size_t>(
        std::upper_bound(blocks.begin(), blocks.end(), record,
                         [](std::uint64_t rec, const BlockInfo &b) {
                             return rec < b.firstRecord + b.records;
                         }) -
        blocks.begin());
}

} // namespace laser::trace::columnar
