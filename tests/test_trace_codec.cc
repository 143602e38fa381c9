/**
 * @file
 * Tests for the columnar trace layer: per-column codec round-trips and
 * strict rejection, the column encoder against the sort-based
 * encode-both reference it replaced, block-index bomb bounds,
 * seek-window decode equivalence, streaming-replay memory bounds,
 * header-version listings and the gc-vs-disk-hit race paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/sweep_runner.h"
#include "detect/types.h"
#include "trace/cache.h"
#include "trace/capture.h"
#include "trace/columnar.h"
#include "trace/parallel_replay.h"
#include "trace/replay.h"
#include "trace/source.h"
#include "trace/trace.h"
#include "trace/trace_file.h"
#include "workloads/workload.h"

namespace laser::trace {
namespace {

namespace fs = std::filesystem;
namespace col = columnar;

/** Deterministic pseudo-random values (xorshift; no global seed). */
std::uint64_t
nextRand(std::uint64_t *state)
{
    std::uint64_t x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return *state = x;
}

TraceMeta
syntheticMeta()
{
    TraceMeta meta;
    meta.workload = "kmeans";
    meta.scheme = "laser-detect";
    meta.pebs.sav = 19;
    meta.stats.cycles = 500000;
    meta.runtimeCycles = 500000;
    meta.mapsText = "00400000-00410000 r-xp 00000000 00:00 1  /app\n";
    return meta;
}

/** @p n records with clustered addresses and non-decreasing cycles. */
std::vector<pebs::PebsRecord>
syntheticRecords(std::size_t n)
{
    std::vector<pebs::PebsRecord> recs;
    recs.reserve(n);
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    std::uint64_t cycle = 1000;
    for (std::size_t i = 0; i < n; ++i) {
        pebs::PebsRecord r;
        r.pc = 0x400000 + (nextRand(&rng) % 64) * 4;
        // Two address clusters, like a heap region + a stack region.
        r.dataAddr = (i % 3 == 0)
                         ? 0xffff'8000'0000'0000ull + nextRand(&rng) % 4096
                         : 0x1000000 + (nextRand(&rng) % 512) * 8;
        r.core = static_cast<int>(nextRand(&rng) % 4);
        cycle += nextRand(&rng) % 97; // occasionally zero: equal cycles
        r.cycle = cycle;
        recs.push_back(r);
    }
    return recs;
}

// ---------------------------------------------------------------------
// Codec units
// ---------------------------------------------------------------------

std::vector<std::vector<std::uint64_t>>
codecCorpus()
{
    std::vector<std::vector<std::uint64_t>> corpus;
    corpus.push_back({});                      // empty
    corpus.push_back({42});                    // single value
    corpus.push_back(std::vector<std::uint64_t>(300, 7)); // constant
    std::vector<std::uint64_t> strided;        // constant stride
    for (std::uint64_t i = 0; i < 500; ++i)
        strided.push_back(1000 + i * 64);
    corpus.push_back(strided);
    std::vector<std::uint64_t> outlier = strided; // stride + one spike
    outlier[250] = 0xffff'ffff'ffff'0000ull;
    corpus.push_back(outlier);
    std::vector<std::uint64_t> random;         // high entropy
    std::uint64_t rng = 0xdeadbeefcafef00dull;
    for (int i = 0; i < 400; ++i)
        random.push_back(nextRand(&rng));
    corpus.push_back(random);
    std::vector<std::uint64_t> clustered;      // two tight clusters
    for (int i = 0; i < 300; ++i)
        clustered.push_back((i % 2 ? 0xffff'8000'0000'0000ull : 0x10000) +
                            nextRand(&rng) % 256);
    corpus.push_back(clustered);
    return corpus;
}

TEST(ColumnCodec, EveryCodecRoundTripsEveryShape)
{
    for (const auto &vals : codecCorpus()) {
        for (std::uint8_t k = 0; k < col::kCodecCount; ++k) {
            const auto codec = static_cast<col::ColumnCodec>(k);
            std::vector<std::uint8_t> bytes;
            col::encodeColumn(codec, vals, &bytes);
            std::vector<std::uint64_t> decoded;
            ASSERT_TRUE(col::decodeColumn(codec, bytes.data(),
                                          bytes.size(), vals.size(),
                                          &decoded))
                << col::codecName(codec) << " over " << vals.size()
                << " values";
            EXPECT_EQ(decoded, vals) << col::codecName(codec);
        }
    }
}

TEST(ColumnCodec, RejectsTruncationAndTrailingBytes)
{
    const auto corpus = codecCorpus();
    const std::vector<std::uint64_t> &vals = corpus.back();
    for (std::uint8_t k = 0; k < col::kCodecCount; ++k) {
        const auto codec = static_cast<col::ColumnCodec>(k);
        std::vector<std::uint8_t> bytes;
        col::encodeColumn(codec, vals, &bytes);
        std::vector<std::uint64_t> decoded;
        for (std::size_t cut = 0; cut < bytes.size(); ++cut)
            EXPECT_FALSE(col::decodeColumn(codec, bytes.data(), cut,
                                           vals.size(), &decoded))
                << col::codecName(codec) << " accepted a " << cut
                << "-byte prefix";
        std::vector<std::uint8_t> padded = bytes;
        padded.push_back(0x00);
        EXPECT_FALSE(col::decodeColumn(codec, padded.data(),
                                       padded.size(), vals.size(),
                                       &decoded))
            << col::codecName(codec) << " accepted a trailing byte";
    }
}

TEST(ColumnCodec, ChooserIsDeterministicAndMinimal)
{
    for (const auto &vals : codecCorpus()) {
        std::vector<std::uint8_t> a, b;
        const col::ColumnCodec ca = col::chooseCodec(vals, &a);
        const col::ColumnCodec cb = col::chooseCodec(vals, &b);
        EXPECT_EQ(ca, cb);
        EXPECT_EQ(a, b);
        for (std::uint8_t k = 0; k < col::kCodecCount; ++k) {
            std::vector<std::uint8_t> other;
            col::encodeColumn(static_cast<col::ColumnCodec>(k), vals,
                              &other);
            EXPECT_LE(a.size(), other.size())
                << "chooser picked " << col::codecName(ca)
                << " but " << col::codecName(col::ColumnCodec(k))
                << " is smaller";
        }
    }
}

// ---------------------------------------------------------------------
// Encoder differential test: the size-first chooser against the
// encode-both, sort-based chooser it replaced
// ---------------------------------------------------------------------

/** Reference model: the sort-based DictPack encoder and the chooser
 *  that materialized both codecs and kept the smaller. */
namespace reference {

void
putVar(std::vector<std::uint8_t> *out, std::uint64_t v)
{
    while (v >= 0x80) {
        out->push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out->push_back(static_cast<std::uint8_t>(v));
}

std::vector<std::uint8_t>
deltaVar(const std::vector<std::uint64_t> &vals)
{
    std::vector<std::uint8_t> out;
    std::uint64_t prev = 0;
    for (std::uint64_t v : vals) {
        const auto d = static_cast<std::int64_t>(v - prev);
        putVar(&out, (static_cast<std::uint64_t>(d) << 1) ^
                         static_cast<std::uint64_t>(d >> 63));
        prev = v;
    }
    return out;
}

/** Sort-based DictPack; sets the sub-encoding tag it chose. */
std::vector<std::uint8_t>
dictPack(const std::vector<std::uint64_t> &vals, std::uint8_t *sub = nullptr)
{
    std::vector<std::uint8_t> out;
    if (vals.empty())
        return out;
    std::vector<std::uint64_t> dict(vals);
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    putVar(&out, dict.size());
    for (std::size_t i = 0; i < dict.size(); ++i)
        putVar(&out, i == 0 ? dict[0] : dict[i] - dict[i - 1]);
    std::vector<std::uint64_t> indices;
    for (std::uint64_t v : vals)
        indices.push_back(static_cast<std::uint64_t>(
            std::lower_bound(dict.begin(), dict.end(), v) - dict.begin()));

    std::vector<std::uint8_t> packed;
    {
        const auto width =
            static_cast<unsigned>(std::bit_width(dict.size() - 1));
        std::uint8_t acc = 0;
        unsigned n = 0;
        for (std::uint64_t idx : indices) {
            for (unsigned b = 0; b < width; ++b) {
                acc |= static_cast<std::uint8_t>(((idx >> b) & 1) << n);
                if (++n == 8) {
                    packed.push_back(acc);
                    acc = 0;
                    n = 0;
                }
            }
        }
        if (n > 0)
            packed.push_back(acc);
    }
    std::vector<std::uint8_t> rle;
    for (std::size_t i = 0; i < indices.size();) {
        std::size_t j = i;
        while (j < indices.size() && indices[j] == indices[i])
            ++j;
        putVar(&rle, indices[i]);
        putVar(&rle, j - i);
        i = j;
    }
    const bool use_packed = packed.size() <= rle.size();
    if (sub)
        *sub = use_packed ? 0 : 1;
    out.push_back(use_packed ? 0 : 1);
    const std::vector<std::uint8_t> &body = use_packed ? packed : rle;
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

col::ColumnCodec
choose(const std::vector<std::uint64_t> &vals,
       std::vector<std::uint8_t> *out)
{
    const std::vector<std::uint8_t> delta = deltaVar(vals);
    const std::vector<std::uint8_t> dict = dictPack(vals);
    const bool use_dict = dict.size() < delta.size();
    const std::vector<std::uint8_t> &best = use_dict ? dict : delta;
    out->insert(out->end(), best.begin(), best.end());
    return use_dict ? col::ColumnCodec::DictPack
                    : col::ColumnCodec::DeltaVar;
}

} // namespace reference

/** What a differential run exercised (so a shrunken corpus fails). */
struct DiffCoverage
{
    int columns = 0;
    int dictWins = 0;
    int rleWins = 0;
    int codecTies = 0;
    int subTies = 0;
};

/** Assert @p encoder and the reference model agree on @p vals. */
void
expectSameAsReference(col::ColumnEncoder &encoder,
                      const std::vector<std::uint64_t> &vals,
                      const std::string &what, DiffCoverage *cov)
{
    std::vector<std::uint8_t> want, got = {0xab}; // got has a prefix
    const col::ColumnCodec want_codec = reference::choose(vals, &want);
    const col::ColumnCodec got_codec = encoder.choose(vals, &got);
    EXPECT_EQ(got_codec, want_codec) << what;
    ASSERT_EQ(got.front(), 0xab) << what;
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin() + 1,
                           got.end()))
        << what << ": " << want.size() << " reference bytes, "
        << got.size() - 1 << " encoded";

    // DictPack alone must match too: it is the encodeColumn contract.
    std::uint8_t sub = 0;
    const std::vector<std::uint8_t> want_dict =
        reference::dictPack(vals, &sub);
    std::vector<std::uint8_t> got_dict;
    encoder.encode(col::ColumnCodec::DictPack, vals, &got_dict);
    EXPECT_EQ(got_dict, want_dict) << what;
    std::vector<std::uint8_t> one_shot;
    col::encodeColumn(col::ColumnCodec::DictPack, vals, &one_shot);
    EXPECT_EQ(one_shot, want_dict) << what;

    ++cov->columns;
    cov->dictWins += want_codec == col::ColumnCodec::DictPack;
    cov->codecTies +=
        !vals.empty() && want_dict.size() == reference::deltaVar(vals).size();
    if (!vals.empty()) {
        cov->rleWins += sub == 1;
        // Recompute both sub-encoding sizes to spot a packed/RLE tie.
        std::vector<std::uint64_t> dict(vals);
        std::sort(dict.begin(), dict.end());
        dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
        const auto width =
            static_cast<std::size_t>(std::bit_width(dict.size() - 1));
        const std::size_t packed = (vals.size() * width + 7) / 8;
        std::size_t rle = 0;
        for (std::size_t i = 0; i < vals.size();) {
            std::size_t j = i;
            while (j < vals.size() && vals[j] == vals[i])
                ++j;
            const auto idx = static_cast<std::uint64_t>(
                std::lower_bound(dict.begin(), dict.end(), vals[i]) -
                dict.begin());
            std::vector<std::uint8_t> tmp;
            reference::putVar(&tmp, idx);
            reference::putVar(&tmp, j - i);
            rle += tmp.size();
            i = j;
        }
        cov->subTies += packed == rle;
    }
}

TEST(ColumnEncoder, MatchesSortBasedReferenceOnSeededColumns)
{
    col::ColumnEncoder encoder; // one encoder: scratch reused throughout
    DiffCoverage cov;
    for (const auto &vals : codecCorpus())
        expectSameAsReference(encoder, vals, "corpus", &cov);

    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        std::uint64_t rng = 0x9e3779b97f4a7c15ull * seed;
        const std::size_t n = 1 + nextRand(&rng) % 5000;
        const std::string tag = "seed " + std::to_string(seed);
        auto column = [&](auto gen) {
            std::vector<std::uint64_t> v(n);
            for (std::size_t i = 0; i < n; ++i)
                v[i] = gen(i);
            return v;
        };

        // Sorted with repeats (a cycle column), and strictly sorted.
        std::uint64_t c = nextRand(&rng) >> 20;
        expectSameAsReference(encoder, column([&](std::size_t) {
            return c += nextRand(&rng) % 4;
        }), tag + " sorted", &cov);
        expectSameAsReference(encoder, column([&](std::size_t) {
            return c += 1 + nextRand(&rng) % 200;
        }), tag + " ascending", &cov);
        // Constant, and 2-4 distinct values in runs and scattered.
        const std::uint64_t k = nextRand(&rng);
        expectSameAsReference(encoder, column([&](std::size_t) {
            return k;
        }), tag + " constant", &cov);
        const std::uint64_t distinct = 2 + seed % 3;
        expectSameAsReference(encoder, column([&](std::size_t) {
            return 0x400000 + 4 * (nextRand(&rng) % distinct);
        }), tag + " few scattered", &cov);
        expectSameAsReference(encoder, column([&](std::size_t i) {
            return std::uint64_t(i / (1 + seed * 37) % distinct);
        }), tag + " few in runs", &cov);
        // Clustered addresses: heap words and a stack region.
        expectSameAsReference(encoder, column([&](std::size_t) {
            return nextRand(&rng) % 3 == 0
                       ? 0x7ffd'0000'0000ull + nextRand(&rng) % 4096
                       : 0x1000000 + (nextRand(&rng) % 700) * 8;
        }), tag + " clustered", &cov);
        // Near 2^64, where deltas and dictionary gaps wrap.
        expectSameAsReference(encoder, column([&](std::size_t) {
            return nextRand(&rng) % 2 ? ~0ull - nextRand(&rng) % 64
                                      : nextRand(&rng) % 64;
        }), tag + " near 2^64", &cov);
        expectSameAsReference(encoder, column([&](std::size_t) {
            return ~0ull - nextRand(&rng) % 3;
        }), tag + " top three", &cov);
        // Short columns: where the codec sizes tie.
        for (int m = 0; m < 200; ++m) {
            const std::size_t len = 1 + nextRand(&rng) % 24;
            const std::uint64_t span = 1 + nextRand(&rng) % 300;
            std::vector<std::uint64_t> v(len);
            for (std::uint64_t &x : v)
                x = nextRand(&rng) % span;
            expectSameAsReference(encoder, v, tag + " short", &cov);
        }
        // Two runs of two values: packed and RLE sizes tie at 25-32
        // values (4 bytes each).
        for (int m = 0; m < 20; ++m) {
            const std::size_t len = 8 + nextRand(&rng) % 57;
            const std::size_t split = 1 + nextRand(&rng) % (len - 1);
            std::vector<std::uint64_t> v(len, nextRand(&rng) % 1000);
            std::fill(v.begin() + std::ptrdiff_t(split), v.end(),
                      v[0] + 1 + nextRand(&rng) % 1000);
            expectSameAsReference(encoder, v, tag + " two runs", &cov);
        }
    }
    // 4096 distinct values, the default block size.
    std::vector<std::uint64_t> wide;
    std::uint64_t rng = 0x1234567;
    for (std::uint64_t i = 0; i < col::kDefaultBlockRecords; ++i)
        wide.push_back(nextRand(&rng));
    expectSameAsReference(encoder, wide, "4096 distinct", &cov);
    std::sort(wide.begin(), wide.end());
    expectSameAsReference(encoder, wide, "4096 distinct sorted", &cov);

    EXPECT_GT(cov.columns, 5000);
    EXPECT_GT(cov.dictWins, 100);
    EXPECT_GT(cov.rleWins, 10);
    EXPECT_GT(cov.codecTies, 10) << "no DictPack/DeltaVar size ties";
    EXPECT_GT(cov.subTies, 10) << "no packed/RLE size ties";
}

TEST(ColumnEncoder, ReencodesCapturedCorpusByteForByte)
{
    col::ColumnEncoder encoder;
    DiffCoverage cov;
    int traces = 0;
    for (const workloads::WorkloadDef &def : workloads::allWorkloads()) {
        const Trace captured = captureTrace(def);
        TraceWriter writer(captured.meta);
        writer.appendAll(captured.records);
        const std::vector<std::uint8_t> file = writer.finalize();

        TraceReader reader;
        ASSERT_EQ(reader.parse(file), TraceStatus::Ok)
            << def.info.name << ": " << reader.error();
        TraceWriter again(reader.trace().meta);
        again.appendAll(reader.trace().records);
        EXPECT_EQ(again.finalize(), file) << def.info.name;
        traces += !captured.records.empty();

        // Every column of every block, at the writer's block size and a
        // small one, encodes as the reference model does.
        for (const std::size_t block : {col::kDefaultBlockRecords,
                                        std::size_t{256}}) {
            for (std::size_t i = 0; i < captured.records.size();
                 i += block) {
                std::vector<std::uint64_t> cols[col::kColumnCount];
                for (std::size_t r = i;
                     r < std::min(i + block, captured.records.size());
                     ++r) {
                    const pebs::PebsRecord &rec = captured.records[r];
                    cols[col::kColPc].push_back(rec.pc);
                    cols[col::kColAddr].push_back(rec.dataAddr);
                    cols[col::kColCore].push_back(static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(rec.core)));
                    cols[col::kColCycle].push_back(rec.cycle);
                }
                for (std::size_t c = 0; c < col::kColumnCount; ++c)
                    expectSameAsReference(
                        encoder, cols[c],
                        def.info.name + " " + col::columnName(c), &cov);
            }
        }
    }
    EXPECT_GT(traces, 20); // plain histogram and a few others: none
    EXPECT_GT(cov.dictWins, 100);
}

TEST(BlockIndex, RejectsRecordCountBombs)
{
    col::BlockIndex index;
    index.records = col::kMaxBlockRecords + 1;
    index.blobOffset = 100;
    index.metaChecksum = 7;
    col::BlockInfo b;
    b.records = col::kMaxBlockRecords + 1; // over the bound
    b.firstCycle = 10;
    b.lastCycle = 20;
    b.columnBytes[col::kColPc] = 4; // far smaller than records claims
    index.blocks.push_back(b);

    std::vector<std::uint8_t> bytes;
    index.encode(&bytes);
    col::BlockIndex decoded;
    std::string err;
    EXPECT_FALSE(decoded.decode(bytes.data(), bytes.size(), &err));
    EXPECT_NE(err.find("max"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// Seekable file: window decode, corruption, read volume
// ---------------------------------------------------------------------

/** A multi-block image (small blocks force many index entries). */
std::vector<std::uint8_t>
multiBlockImage(const std::vector<pebs::PebsRecord> &recs,
                std::size_t block_records = 256)
{
    TraceWriter writer(syntheticMeta(), block_records);
    writer.appendAll(recs);
    return writer.finalize();
}

std::vector<pebs::PebsRecord>
drainAll(std::unique_ptr<RecordCursor> cur)
{
    struct Collect : analysis::RecordSink
    {
        std::vector<pebs::PebsRecord> recs;
        void onRecord(const pebs::PebsRecord &r) override
        {
            recs.push_back(r);
        }
    } sink;
    cur->drain(sink);
    EXPECT_EQ(cur->status(), TraceStatus::Ok);
    return sink.recs;
}

bool
recordsEqual(const std::vector<pebs::PebsRecord> &a,
             const std::vector<pebs::PebsRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].pc != b[i].pc || a[i].dataAddr != b[i].dataAddr ||
            a[i].core != b[i].core || a[i].cycle != b[i].cycle)
            return false;
    return true;
}

TEST(TraceFileSeek, WindowDecodeMatchesFullDecodeSlice)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(5000);
    TraceFile file;
    ASSERT_EQ(file.openBytes(multiBlockImage(recs)), TraceStatus::Ok)
        << file.error();
    ASSERT_GT(file.index().blocks.size(), 10u);
    EXPECT_EQ(file.recordCount(), recs.size());

    const std::uint64_t lo = recs.front().cycle;
    const std::uint64_t hi = recs.back().cycle + 1;
    const std::uint64_t span = hi - lo;
    for (const auto &[begin, end] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {0, UINT64_MAX},                       // everything
             {lo + span / 4, lo + span / 2},        // interior window
             {lo, lo + 1},                          // first cycle only
             {hi - 1, hi},                          // last cycle only
             {hi + 100, hi + 200},                  // past the end
             {lo + span / 3, lo + span / 3},        // empty window
         }) {
        std::vector<pebs::PebsRecord> expected;
        for (const pebs::PebsRecord &r : recs)
            if (r.cycle >= begin && r.cycle < end)
                expected.push_back(r);
        const auto got = drainAll(file.cursorForCycles(begin, end));
        EXPECT_TRUE(recordsEqual(got, expected))
            << "window [" << begin << ", " << end << ") yielded "
            << got.size() << " records, expected " << expected.size();
    }

    // Record-range cursors are exact slices too.
    for (const auto &[first, end] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {0, recs.size()}, {100, 101}, {1000, 4000},
             {recs.size() - 1, recs.size()}, {5000, 9000}}) {
        const auto got = drainAll(file.cursorForRecords(first, end));
        const std::size_t b = std::min<std::size_t>(first, recs.size());
        const std::size_t e = std::min<std::size_t>(end, recs.size());
        EXPECT_TRUE(recordsEqual(
            got, {recs.begin() + b, recs.begin() + e}))
            << "records [" << first << ", " << end << ")";
    }
}

TEST(TraceFileSeek, ReadAllMatchesFullReader)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(2000);
    const std::vector<std::uint8_t> image = multiBlockImage(recs);

    TraceReader reader;
    ASSERT_EQ(reader.parse(image), TraceStatus::Ok) << reader.error();

    TraceFile file;
    ASSERT_EQ(file.openBytes(image), TraceStatus::Ok) << file.error();
    Trace via_seek;
    ASSERT_EQ(file.readAll(&via_seek), TraceStatus::Ok);
    EXPECT_TRUE(recordsEqual(via_seek.records, reader.trace().records));
    EXPECT_EQ(via_seek.meta.workload, reader.trace().meta.workload);
}

TEST(TraceFileSeek, CorruptBlockIsLatchedAsTypedCursorError)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(3000);
    std::vector<std::uint8_t> image = multiBlockImage(recs);

    // The last 8 payload bytes hold the index offset; the byte just
    // before the index is the last record-blob byte.
    std::uint64_t index_offset = 0;
    const std::size_t off_pos = image.size() - 16;
    for (int i = 0; i < 8; ++i)
        index_offset |= std::uint64_t(image[off_pos + i]) << (8 * i);
    image[kTraceHeaderSize + index_offset - 1] ^= 0x20;

    // Opening still succeeds: blocks are not decoded up front.
    TraceFile file;
    ASSERT_EQ(file.openBytes(image), TraceStatus::Ok) << file.error();

    auto cur = file.cursor();
    pebs::PebsRecord rec;
    while (cur->next(&rec)) {
    }
    EXPECT_EQ(cur->status(), TraceStatus::Corrupt);

    // The full reader rejects the same image outright.
    TraceReader reader;
    EXPECT_EQ(reader.parse(image), TraceStatus::Corrupt);
}

TEST(TraceFileSeek, CorruptIndexAndTruncationAreTypedAtOpen)
{
    const std::vector<pebs::PebsRecord> recs = syntheticRecords(1500);
    const std::vector<std::uint8_t> pristine = multiBlockImage(recs);

    // Flip a byte inside the serialized index: checksum mismatch.
    std::uint64_t index_offset = 0;
    const std::size_t off_pos = pristine.size() - 16;
    for (int i = 0; i < 8; ++i)
        index_offset |= std::uint64_t(pristine[off_pos + i]) << (8 * i);
    std::vector<std::uint8_t> bad_index = pristine;
    bad_index[kTraceHeaderSize + index_offset + 2] ^= 0x01;
    TraceFile file;
    EXPECT_EQ(file.openBytes(bad_index), TraceStatus::Corrupt);
    EXPECT_FALSE(file.error().empty());

    // An index offset pointing outside the payload is Corrupt, not UB.
    std::vector<std::uint8_t> bad_offset = pristine;
    for (int i = 0; i < 8; ++i)
        bad_offset[off_pos + i] = 0xff;
    EXPECT_EQ(file.openBytes(bad_offset), TraceStatus::Corrupt);

    // Truncations at every boundary remain typed.
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{12}, std::size_t{27},
          pristine.size() / 2, pristine.size() - 1}) {
        std::vector<std::uint8_t> short_image(
            pristine.begin(), pristine.begin() + cut);
        EXPECT_EQ(file.openBytes(std::move(short_image)),
                  TraceStatus::Truncated)
            << "prefix of " << cut << " bytes";
    }
}

// ---------------------------------------------------------------------
// Streaming replay memory: O(block x shards), not O(trace)
// ---------------------------------------------------------------------

TEST(StreamingReplay, PeakBufferedRecordsIsBlockBound)
{
    const auto *kmeans = workloads::findWorkload("kmeans");
    ASSERT_NE(kmeans, nullptr);
    const Trace captured = captureTrace(*kmeans);
    ASSERT_FALSE(captured.records.empty());

    // Tile the capture into a stream far larger than the block bound a
    // materializing replay would have to hold wholesale.
    constexpr std::size_t kBlock = 256;
    constexpr int kShards = 4;
    Trace big;
    big.meta = captured.meta;
    const std::uint64_t stride = captured.records.back().cycle + 1;
    while (big.records.size() < 50 * kBlock * kShards) {
        const std::uint64_t c =
            std::uint64_t(big.records.size() / captured.records.size());
        for (pebs::PebsRecord r : captured.records) {
            r.cycle += stride * c;
            big.records.push_back(r);
        }
    }

    const std::string path =
        (fs::temp_directory_path() / "laser_codec_memcap.ltrace")
            .string();
    {
        TraceWriter writer(big.meta, kBlock);
        writer.appendAll(big.records);
        ASSERT_EQ(writer.writeFile(path), TraceStatus::Ok);
    }
    TraceFile file;
    ASSERT_EQ(file.open(path), TraceStatus::Ok) << file.error();
    TraceReplayer env(file.meta(), file);
    ASSERT_TRUE(env.ok()) << env.error();

    resetBufferedRecordsPeak();
    ParallelReplayer::Options opt;
    opt.shards = kShards;
    ParallelReplayer parallel(env, opt);
    EXPECT_EQ(parallel.state().totalRecords, big.records.size());

    const std::size_t peak = bufferedRecordsPeak();
    EXPECT_GT(peak, 0u);
    // One decoded block per shard cursor, with 2x slack for block
    // handoff; a materializing path would hold all records at once.
    EXPECT_LE(peak, 2 * kBlock * kShards)
        << "streaming replay buffered " << peak << " of "
        << big.records.size() << " records";
    EXPECT_LT(peak, big.records.size() / 10);

    // The streamed digest still produces the serial in-memory report.
    detect::DetectorConfig cfg;
    cfg.sav = big.meta.pebs.sav;
    TraceReplayer mem_env(big);
    ASSERT_TRUE(mem_env.ok());
    EXPECT_TRUE(detect::reportsIdentical(mem_env.replay(cfg),
                                         parallel.replay(cfg)));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Cache gc vs concurrent use: spared and vanished entries
// ---------------------------------------------------------------------

fs::path
writeCacheTrace(const fs::path &dir, const std::string &stem,
                fs::file_time_type mtime)
{
    Trace t;
    t.meta = syntheticMeta();
    t.records = syntheticRecords(50);
    const fs::path path = dir / (stem + kTraceExtension);
    EXPECT_EQ(writeTraceFile(t, path.string()), TraceStatus::Ok);
    fs::last_write_time(path, mtime);
    return path;
}

TEST(TraceCacheGc, ToleratesFilesVanishingAfterListing)
{
    const fs::path dir = fs::temp_directory_path() / "laser_gc_vanish";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto now = fs::file_time_type::clock::now();
    const fs::path oldest =
        writeCacheTrace(dir, "a", now - std::chrono::hours(3));
    writeCacheTrace(dir, "b", now - std::chrono::hours(2));
    writeCacheTrace(dir, "c", now - std::chrono::hours(1));

    // A concurrent gc (or cache wipe) deletes the LRU victim between
    // this gc's listing and its deletion pass.
    const std::vector<CacheEntry> entries = listTraceCache(dir.string());
    ASSERT_EQ(entries.size(), 3u);
    fs::remove(oldest);

    const CacheGcResult gc = gcTraceCacheFrom(entries, 0);
    EXPECT_EQ(gc.vanished, 1u);
    EXPECT_EQ(gc.evicted, 2u);
    EXPECT_EQ(gc.bytesAfter, 0u);
    fs::remove_all(dir);
}

TEST(TraceCacheGc, SparesEntriesTouchedByConcurrentDiskHits)
{
    const fs::path dir = fs::temp_directory_path() / "laser_gc_spare";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto now = fs::file_time_type::clock::now();
    const fs::path oldest =
        writeCacheTrace(dir, "victim", now - std::chrono::hours(3));
    const fs::path newer =
        writeCacheTrace(dir, "keeper", now - std::chrono::hours(1));

    const std::vector<CacheEntry> entries = listTraceCache(dir.string());
    ASSERT_EQ(entries.size(), 2u);
    ASSERT_EQ(fs::path(entries[0].path).filename(), oldest.filename());

    // A sweep's disk hit refreshes the victim's mtime after the
    // listing: it is no longer the LRU victim and must be spared, even
    // though the stale listing nominates it first.
    fs::last_write_time(oldest, now);

    // Budget admits exactly one file: without the mtime re-check the
    // just-used victim would be deleted.
    const CacheGcResult gc =
        gcTraceCacheFrom(entries, entries[1].bytes);
    EXPECT_EQ(gc.spared, 1u);
    EXPECT_TRUE(fs::exists(oldest)) << "just-used entry was evicted";
    EXPECT_EQ(gc.evicted, 1u);
    EXPECT_FALSE(fs::exists(newer));
    fs::remove_all(dir);
}

TEST(TraceCacheGc, ListingsReportHeaderVersions)
{
    const fs::path dir = fs::temp_directory_path() / "laser_gc_ver";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto now = fs::file_time_type::clock::now();
    writeCacheTrace(dir, "current", now);

    // Foreign versions: a current image with the header's version
    // field (bytes 4..7, little-endian) patched to either neighbour.
    const std::vector<std::uint8_t> image =
        multiBlockImage(syntheticRecords(10));
    const std::uint32_t foreign[2] = {kTraceVersion - 1,
                                      kTraceVersion + 1};
    for (int k = 0; k < 2; ++k) {
        std::vector<std::uint8_t> bytes = image;
        for (int i = 0; i < 4; ++i)
            bytes[4 + i] = std::uint8_t(foreign[k] >> (8 * i));
        std::ofstream out(dir / ("foreign" + std::to_string(k) +
                                 kTraceExtension),
                          std::ios::binary);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  std::streamsize(bytes.size()));
    }

    std::size_t rows = 0;
    for (const CacheEntry &entry : listTraceCache(dir.string())) {
        ++rows;
        const std::string stem = fs::path(entry.path).stem().string();
        if (stem == "current") {
            EXPECT_EQ(entry.status, TraceStatus::Ok);
            EXPECT_EQ(entry.version, kTraceVersion);
            continue;
        }
        // The header version is still reported, so `cache ls` can show
        // which version a mismatched file carries.
        EXPECT_EQ(entry.status, TraceStatus::BadVersion) << entry.path;
        EXPECT_EQ(entry.version, foreign[stem == "foreign0" ? 0 : 1])
            << entry.path;
        EXPECT_EQ(entry.configHash, 0u) << entry.path;
    }
    EXPECT_EQ(rows, 3u);
    fs::remove_all(dir);
}

} // namespace
} // namespace laser::trace
