/**
 * @file
 * Seekable trace reader: verify-and-decode only the bytes a replay
 * actually touches. Also the one block decoder of the format: the full
 * TraceReader parse is this validation plus decodeBlock() over every
 * block.
 *
 * TraceFile::open() maps the file (openBytes() adopts an in-memory
 * image), validates the fixed header, reads the trailing index offset,
 * decodes and checksum-verifies the footer block index, parses the
 * config/results sections (verified against the index's meta checksum
 * and the header's config hash) — and stops. Record blocks are *not*
 * decoded and the whole-payload checksum is *not* recomputed; that is
 * the point. Cursors then decode blocks on demand:
 *
 *   - cursorForRecords(first, end) binary-searches the index for the
 *     blocks containing that global record range;
 *   - cursorForCycles(begin, end) binary-searches the blocks' cycle
 *     ranges for the window and skips boundary records outside it;
 *
 * each decoding blocks through decodeBlock(), which verifies a block's
 * FNV-1a checksum before trusting its bytes (so every byte actually
 * read is still integrity-checked) and rejects a cycle that decreases
 * within the block with NonMonotonic. A cursor holds one decoded block
 * at a time (O(block) memory, reported through the trace/source.h
 * buffered-records accounting) and latches a typed TraceStatus if a
 * block is corrupt mid-stream.
 *
 * Read volume is observable via the obs counters trace.file.bytes_read
 * (header + meta + index on open, plus each decoded block's encoded
 * bytes) and trace.file.blocks_decoded — the windowed-replay acceptance
 * checks are written against them. A full TraceReader parse goes
 * through the same code, so it is counted too.
 */

#ifndef LASER_TRACE_TRACE_FILE_H
#define LASER_TRACE_TRACE_FILE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/columnar.h"
#include "trace/source.h"
#include "trace/trace.h"

namespace laser::trace {

class TraceFile : public RecordSource
{
  public:
    TraceFile() = default;
    ~TraceFile() override;
    TraceFile(const TraceFile &) = delete;
    TraceFile &operator=(const TraceFile &) = delete;

    /** Map @p path read-only and validate header + index + meta. */
    [[nodiscard]] TraceStatus open(const std::string &path);

    /** Adopt a complete file image instead of mapping a file. */
    [[nodiscard]] TraceStatus openBytes(std::vector<std::uint8_t> bytes);

    bool isOpen() const { return open_; }
    /** Detail message for the last non-Ok open ("" after Ok). */
    const std::string &error() const { return error_; }

    const TraceMeta &meta() const { return meta_; }
    const columnar::BlockIndex &index() const { return index_; }
    /** Stored config hash (== configHash(meta()) after an Ok open). */
    std::uint64_t storedConfigHash() const { return configHash_; }
    /** Total payload bytes (compressed size of all sections). */
    std::uint64_t payloadBytes() const { return payloadSize_; }
    /** Bytes of the encoded record blob alone. */
    std::uint64_t recordBlobBytes() const { return index_.blobBytes(); }

    // RecordSource
    std::uint64_t recordCount() const override { return index_.records; }
    std::unique_ptr<RecordCursor>
    cursorForRecords(std::uint64_t first, std::uint64_t end) const override;
    std::unique_ptr<RecordCursor>
    cursorForCycles(std::uint64_t begin, std::uint64_t end) const override;

    /**
     * Decode the whole file into a materialized Trace (meta copy + all
     * records). Equivalent to a full TraceReader parse minus the
     * whole-payload checksum (block checksums cover the same bytes).
     * On failure, @p err (when non-null) receives the detail message.
     */
    [[nodiscard]] TraceStatus readAll(Trace *out,
                                      std::string *err = nullptr) const;

  private:
    friend class FileCursor;
    friend class TraceReader;

    /**
     * Borrow a complete file image the caller keeps alive, and validate
     * it with the whole-payload checksum on top of the seek path's
     * checks (TraceReader's strict parse).
     */
    [[nodiscard]] TraceStatus openView(const std::uint8_t *data,
                                       std::size_t size);

    [[nodiscard]] TraceStatus fail(TraceStatus status,
                                   std::string detail);
    [[nodiscard]] TraceStatus validate(bool whole_payload_checksum);
    void unmap();

    /**
     * Decode block @p block into its four columns: verify the block
     * checksum, decode each column, and check the records against the
     * index's cycle range and for a decreasing cycle. The only place
     * block payloads are decoded.
     */
    [[nodiscard]] TraceStatus decodeBlock(
        std::size_t block,
        std::vector<std::uint64_t> cols[columnar::kColumnCount],
        std::string *err) const;

    /** Start of the payload within the mapped image. */
    const std::uint8_t *payload() const { return data_ + kTraceHeaderSize; }
    /** Start of the encoded record blob. */
    const std::uint8_t *blob() const { return payload() + metaSize_; }

    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    void *map_ = nullptr; ///< non-null when data_ is an mmap
    std::vector<std::uint8_t> owned_;

    TraceMeta meta_;
    columnar::BlockIndex index_;
    std::uint64_t configHash_ = 0;
    std::size_t metaSize_ = 0;
    std::uint64_t payloadSize_ = 0;
    std::string error_;
    bool open_ = false;
};

} // namespace laser::trace

#endif // LASER_TRACE_TRACE_FILE_H
