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

/** LSB-first fixed-width bit packer; pad bits in the last byte are 0. */
struct BitWriter
{
    std::vector<std::uint8_t> &out;
    std::uint8_t acc = 0;
    unsigned n = 0;

    explicit BitWriter(std::vector<std::uint8_t> &o) : out(o) {}

    void
    put(std::uint64_t v, unsigned width)
    {
        unsigned done = 0;
        while (done < width) {
            const unsigned take = std::min(width - done, 8u - n);
            const std::uint64_t bits =
                (v >> done) & ((1ull << take) - 1);
            acc |= static_cast<std::uint8_t>(bits << n);
            n += take;
            done += take;
            if (n == 8) {
                out.push_back(acc);
                acc = 0;
                n = 0;
            }
        }
    }

    void
    flush()
    {
        if (n > 0) {
            out.push_back(acc);
            acc = 0;
            n = 0;
        }
    }
};

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

/** Distinct sorted values of @p vals. */
std::vector<std::uint64_t>
buildDict(const std::vector<std::uint64_t> &vals)
{
    std::vector<std::uint64_t> dict(vals);
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    return dict;
}

constexpr std::uint8_t kDictSubPacked = 0;
constexpr std::uint8_t kDictSubRle = 1;

void
encodeDictPack(const std::vector<std::uint64_t> &vals,
               std::vector<std::uint8_t> *out)
{
    ByteWriter w(*out);
    if (vals.empty())
        return;
    const std::vector<std::uint64_t> dict = buildDict(vals);
    w.var(dict.size());
    for (std::size_t i = 0; i < dict.size(); ++i)
        w.var(i == 0 ? dict[0] : dict[i] - dict[i - 1]);

    std::vector<std::uint64_t> indices;
    indices.reserve(vals.size());
    for (std::uint64_t v : vals)
        indices.push_back(static_cast<std::uint64_t>(
            std::lower_bound(dict.begin(), dict.end(), v) -
            dict.begin()));

    // Sub-encoding: bit-packed indices vs RLE runs, whichever is
    // smaller (deterministic: packed wins ties).
    std::vector<std::uint8_t> packed;
    {
        const unsigned width = bitsFor(dict.size() - 1);
        BitWriter bits(packed);
        for (std::uint64_t idx : indices)
            bits.put(idx, width);
        bits.flush();
    }
    std::vector<std::uint8_t> rle;
    {
        ByteWriter rw(rle);
        for (std::size_t i = 0; i < indices.size();) {
            std::size_t j = i;
            while (j < indices.size() && indices[j] == indices[i])
                ++j;
            rw.var(indices[i]);
            rw.var(j - i);
            i = j;
        }
    }
    if (packed.size() <= rle.size()) {
        w.u8(kDictSubPacked);
        out->insert(out->end(), packed.begin(), packed.end());
    } else {
        w.u8(kDictSubRle);
        out->insert(out->end(), rle.begin(), rle.end());
    }
}

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
    switch (codec) {
      case ColumnCodec::DeltaVar: encodeDeltaVar(vals, out); return;
      case ColumnCodec::DictPack: encodeDictPack(vals, out); return;
    }
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
    std::vector<std::uint8_t> delta;
    encodeDeltaVar(vals, &delta);
    // DictPack is worth trying even at high cardinality: address
    // columns cluster in a few tight regions, so the sorted dictionary
    // deltas stay small while the record-order deltas jump across
    // regions. The O(n log n) dictionary build is bounded by the block
    // size.
    std::vector<std::uint8_t> dict;
    encodeDictPack(vals, &dict);
    // Strictly smaller wins: a tie keeps DeltaVar (the lower codec id),
    // so the choice is deterministic and the file image reproducible.
    const bool use_dict = dict.size() < delta.size();
    const std::vector<std::uint8_t> &best = use_dict ? dict : delta;
    out->insert(out->end(), best.begin(), best.end());
    return use_dict ? ColumnCodec::DictPack : ColumnCodec::DeltaVar;
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
