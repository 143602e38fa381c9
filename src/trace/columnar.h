/**
 * @file
 * Columnar record encoding of the LSRT trace format: per-column block
 * codecs and the seekable footer block index.
 *
 * A trace stores its record stream as fixed-size blocks (the last one
 * ragged). Within a block each record field is a column — pc, data
 * address, core, cycle — and each column is encoded independently with
 * whichever of two codecs compresses it better *for that block*:
 *
 *   DeltaVar   zigzag delta + LEB128 varint — monotone cycle columns
 *              and strided streams
 *   DictPack   sorted dictionary (delta varints) + either bit-packed
 *              dictionary indices or RLE runs, whichever is smaller —
 *              low-cardinality pc/core columns, and address columns
 *              whose values cluster in a few tight regions
 *
 * Codec choice is deterministic (smaller encoding wins, ties break to
 * DeltaVar), so encoding a decoded trace reproduces the original bytes
 * — the byte-exact round-trip guarantee of the format.
 *
 * The BlockIndex is the file's seek structure: per block it records the
 * record count, the cycle range, each column's codec and encoded size
 * (offsets are cumulative) and an FNV-1a checksum of the block's bytes.
 * A reader binary-searches the index for a cycle window and decodes only
 * the overlapping blocks — no prefix decode, no whole-file checksum pass.
 * The index carries its own trailing checksum and a checksum of the
 * meta (config + results) section, so the seek path still verifies every
 * byte it actually reads.
 */

#ifndef LASER_TRACE_COLUMNAR_H
#define LASER_TRACE_COLUMNAR_H

#include <cstdint>
#include <string>
#include <vector>

namespace laser::trace::columnar {

/** Per-block, per-column codec identifier (stable wire values). */
enum class ColumnCodec : std::uint8_t {
    DeltaVar = 0,
    DictPack = 1,
};

constexpr std::uint8_t kCodecCount = 2;

/** Printable codec name ("delta-var", "dict-pack"). */
const char *codecName(ColumnCodec codec);

/** Column order within a block (stable wire order). */
enum Column : std::size_t {
    kColPc = 0,
    kColAddr = 1,
    kColCore = 2,
    kColCycle = 3,
};

constexpr std::size_t kColumnCount = 4;

/** Printable column name ("pc", "data_addr", "core", "cycle"). */
const char *columnName(std::size_t column);

/** Default records per block (overridable per TraceWriter for tests). */
constexpr std::size_t kDefaultBlockRecords = 4096;

/**
 * Hard upper bound on records per block, enforced on both sides:
 * TraceWriter clamps its block size to it and BlockIndex::decode rejects
 * entries beyond it. Bit-packed columns can be sub-byte per record, so
 * without this bound a tiny crafted index could declare counts that
 * decode "successfully" into allocations far beyond the file size.
 */
constexpr std::size_t kMaxBlockRecords = std::size_t{1} << 20;

/** Append @p vals encoded with @p codec to @p out. */
void encodeColumn(ColumnCodec codec,
                  const std::vector<std::uint64_t> &vals,
                  std::vector<std::uint8_t> *out);

/**
 * Strict decode of one column: exactly @p count values from exactly
 * [data, data+size). Any structural violation — short or trailing
 * bytes, non-canonical varints, out-of-range dictionary indices,
 * nonzero padding bits — returns false.
 */
bool decodeColumn(ColumnCodec codec, const std::uint8_t *data,
                  std::size_t size, std::size_t count,
                  std::vector<std::uint64_t> *out);

/**
 * Append @p vals with whichever codec encodes them smaller (a tie breaks
 * to DeltaVar, so the choice — and therefore the file image — is
 * deterministic) and return that codec. One-shot form of
 * ColumnEncoder::choose.
 */
ColumnCodec chooseCodec(const std::vector<std::uint64_t> &vals,
                        std::vector<std::uint8_t> *out);

/**
 * The column encoder behind encodeColumn and chooseCodec.
 *
 * It sizes both codecs exactly before writing a byte — varint lengths,
 * the packed index width, RLE run lengths — and then encodes only the
 * winner, straight onto the output. The DictPack dictionary comes from
 * an open-addressed set of the column's distinct values, so only those
 * are sorted; an already-sorted column (the cycle column) takes an O(n)
 * path. Scratch buffers persist across calls: a TraceWriter keeps one
 * encoder for all its blocks.
 */
class ColumnEncoder
{
  public:
    /** Append @p vals with the smaller codec; return it (see
     *  chooseCodec). */
    ColumnCodec choose(const std::vector<std::uint64_t> &vals,
                       std::vector<std::uint8_t> *out);

    /** Append @p vals encoded with @p codec. */
    void encode(ColumnCodec codec, const std::vector<std::uint64_t> &vals,
                std::vector<std::uint8_t> *out);

  private:
    /**
     * Build the sorted dictionary and every value's index into it, and
     * return the DictPack size in bytes (0 for an empty column).
     * @p sorted says the column never decreases.
     */
    std::size_t planDictPack(const std::vector<std::uint64_t> &vals,
                             bool sorted);
    /** Collect the distinct values through an open-addressed set,
     *  sort only those, and index every value through its slot. */
    void rankUnsorted(const std::vector<std::uint64_t> &vals);
    /** Append the planned DictPack encoding. */
    void writeDictPack(std::vector<std::uint8_t> *out) const;

    /** Sorted distinct values of the planned column. */
    std::vector<std::uint64_t> dict_;
    /** Per value of the planned column: its index into dict_. */
    std::vector<std::uint32_t> ranks_;
    /** Bit-packed (true) or RLE (false) indices: the planned winner. */
    bool packed_ = true;
    unsigned width_ = 0;
    /** Distinct-value set: keys, and each key's dictionary index once
     *  known (kEmptySlot marks an empty slot, so every 64-bit value can
     *  be a key). */
    static constexpr std::uint32_t kEmptySlot = ~0u;
    std::vector<std::uint64_t> slotKeys_;
    std::vector<std::uint32_t> slotRanks_;
};

/** One block's index entry. */
struct BlockInfo
{
    /** Derived at build/decode time (not serialized): global index of
     *  the block's first record, and the block's offset in the blob. */
    std::uint64_t firstRecord = 0;
    std::uint64_t blobOffset = 0;

    std::uint64_t records = 0;
    /** Cycle of the block's first / last record. */
    std::uint64_t firstCycle = 0;
    std::uint64_t lastCycle = 0;
    ColumnCodec codec[kColumnCount] = {};
    std::uint64_t columnBytes[kColumnCount] = {};
    /** FNV-1a over the block's encoded bytes (all columns). */
    std::uint64_t checksum = 0;

    std::uint64_t
    blobBytes() const
    {
        std::uint64_t n = 0;
        for (std::size_t c = 0; c < kColumnCount; ++c)
            n += columnBytes[c];
        return n;
    }

    /** Offset of @p column within the block's encoded bytes. */
    std::uint64_t
    columnOffset(std::size_t column) const
    {
        std::uint64_t off = 0;
        for (std::size_t c = 0; c < column; ++c)
            off += columnBytes[c];
        return off;
    }
};

/** The footer seek structure of a trace. */
struct BlockIndex
{
    /** Total records across all blocks. */
    std::uint64_t records = 0;
    /** Offset of the record blob within the payload (= size of the
     *  config + results sections it follows). */
    std::uint64_t blobOffset = 0;
    /** FNV-1a over payload[0, blobOffset): lets the seek path verify
     *  the meta sections without a whole-payload checksum pass. */
    std::uint64_t metaChecksum = 0;
    std::vector<BlockInfo> blocks;

    /** Total encoded record-blob bytes. */
    std::uint64_t blobBytes() const;

    /** Serialize (including the trailing self-checksum) onto @p out. */
    void encode(std::vector<std::uint8_t> *out) const;

    /**
     * Strict decode from exactly [data, data+size): structural
     * violations and self-checksum mismatches return false with a
     * detail message in @p err. Cycle ordering across blocks is *not*
     * checked here (TraceFile checks it on open) — a freshly decoded
     * index is structurally sound but not yet trusted for seeking.
     */
    bool decode(const std::uint8_t *data, std::size_t size,
                std::string *err);

    /**
     * Blocks overlapping the half-open cycle window [begin, end):
     * returns [firstBlock, endBlock). Requires ordered block cycle
     * ranges.
     */
    void blocksForCycles(std::uint64_t begin, std::uint64_t end,
                         std::size_t *first_block,
                         std::size_t *end_block) const;

    /** Block containing global record index @p record. */
    std::size_t blockForRecord(std::uint64_t record) const;
};

} // namespace laser::trace::columnar

#endif // LASER_TRACE_COLUMNAR_H
