// Persistent columnar feature store: the "nmarena" binary artefact
// (extending the nmkernel/nmlocator artefact taxonomy).
//
// The binary layout is built for mmap loading:
//
//   [  0,  16)  preamble: magic "NMARENA\0", u32 version, u32 endian tag
//   [ 16, 128)  fixed header: section offsets/sizes, row/col/aux counts,
//               positives, per-section checksums, header checksum
//   [128,  ..)  payload: n_cols x n_rows floats, column-major, stride
//               n_rows — 64-byte aligned so a page-aligned mmap yields
//               aligned column starts
//   labels      n_rows bytes (0/1)
//   aux         n_aux arrays of n_rows u32 each (row->line/week/note
//               mappings; always copied out on load, so no alignment
//               requirement on the file section)
//   meta        column metadata (name, categorical flag, per-column
//               payload checksum), aux names, and an opaque caller blob
//               (the features layer stores the encoder configuration
//               there)
//   bins        v2 only: [u64 size][u64 FNV-1a checksum][content] — the
//               histogram-path quantization (per-column bin metadata
//               plus one uint8 code per row), so training from a loaded
//               artefact can skip re-binning entirely. Writers emit v1
//               when no bins are attached (existing artefacts stay
//               byte-identical) and v2 otherwise; v1-only readers
//               reject v2 files with kBadVersion. Both versions are
//               strict about their end: a file longer than its declared
//               sections is kMalformedHeader, so v1 files cannot smuggle
//               an unverified bins section past an old reader.
//
// All integers and floats are little-endian; the build refuses exotic
// hosts at compile time and the reader refuses foreign files at run
// time (kBadEndian). Checksums are 64-bit FNV-1a, per section, with
// payload integrity tracked per column so the streaming writer can
// accumulate them chunk by chunk. Column checksums are computed four
// columns at a time as independent chains (detail::fnv1a_columns): each
// column's hash is still the byte-serial FNV-1a of its bytes, but the
// four multiply chains overlap instead of each byte waiting on the last.
//
// Three access paths, byte-identical by construction:
//   * ArenaStreamWriter — the encoder appends rows chunk-wise; only one
//     bounded chunk is in flight, never the full matrix;
//   * eager reader — materializes a heap FeatureArena, verifying every
//     checksum;
//   * mmap reader — maps the file MAP_PRIVATE/PROT_READ and wraps the
//     payload in a read-only file-backed FeatureArena; header, meta,
//     labels and aux are verified eagerly (they are small), payload
//     checksums only on demand (verify_payload) because verifying them
//     faults in every page and defeats lazy loading.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ml/binning.hpp"
#include "ml/dataset.hpp"

namespace nevermind::ml {

/// Corruption/IO taxonomy of the nmarena readers. Every failure mode is
/// a distinct code so callers (and the table-driven corruption tests)
/// can tell a stale-format file from a damaged one.
enum class StoreError : std::uint8_t {
  kOk = 0,
  kIoError,           // open/read/map/write syscall failure
  kTruncatedHeader,   // file shorter than the fixed 128-byte header
  kBadMagic,          // not an nmarena artefact
  kBadVersion,        // artefact version this build does not read
  kBadEndian,         // written by a foreign-endian host
  kShortFile,         // file shorter than its declared sections
  kChecksumMismatch,  // a section checksum does not match its bytes
  kMalformedHeader,   // header fields internally inconsistent
  kMalformedMeta,     // metadata section does not parse
  kRowCountMismatch,  // writer finished with a different row count
  kMalformedBins,     // v2 bin-code section does not parse / validate
};

[[nodiscard]] const char* store_error_name(StoreError e) noexcept;

struct StoreStatus {
  StoreError code = StoreError::kOk;
  std::string message;
  [[nodiscard]] bool ok() const noexcept { return code == StoreError::kOk; }
};

/// A loaded dataset artefact: the feature matrix plus the row-mapping
/// aux arrays and the opaque metadata blob the writer recorded.
struct StoredArena {
  FeatureArena arena;
  std::vector<std::string> aux_names;
  std::vector<std::vector<std::uint32_t>> aux;  // each n_rows() long
  std::string meta;
  /// v2 artefacts only: the stored histogram-path quantization (always
  /// materialized into aligned heap vectors, even under mmap loads).
  /// Null for v1 files.
  std::shared_ptr<const BinnedColumns> bins;
};

/// Streaming nmarena writer: rows are appended in encode order and
/// flushed in bounded chunks (chunk_rows x n_cols floats buffered, then
/// scattered to the column-major payload with one seek per column), so
/// peak memory is O(chunk + labels), never the full matrix. The exact
/// row count must be known up front — both encoders pre-count their
/// rows — and finish() fails with kRowCountMismatch otherwise.
class ArenaStreamWriter {
 public:
  ArenaStreamWriter(std::string path, std::vector<ColumnInfo> columns,
                    std::size_t n_rows, std::size_t chunk_rows = 4096);
  ~ArenaStreamWriter();
  ArenaStreamWriter(const ArenaStreamWriter&) = delete;
  ArenaStreamWriter& operator=(const ArenaStreamWriter&) = delete;

  /// Appends one example. Throws std::logic_error on misuse (wrong
  /// feature count, more rows than declared, append after finish); IO
  /// errors are deferred to finish().
  void append(std::span<const float> features, bool positive);

  /// Opaque caller blob stored in the meta section (the features layer
  /// records the dataset kind + encoder configuration).
  void set_meta(std::string meta);

  /// Named per-row u32 aux array (row->line/week/note mapping). Must be
  /// called after all rows are appended; `values.size()` must equal the
  /// declared row count.
  void add_aux(const std::string& name, std::span<const std::uint32_t> values);

  /// Attaches the histogram-path quantization: the artefact is written
  /// as nmarena v2 with a trailing bin-code section (without this call
  /// the writer emits v1, byte-identical to previous builds). The bins
  /// must cover exactly the declared matrix (n_rows x n_cols) and are
  /// serialized immediately, so the reference need not outlive the
  /// call. Throws std::logic_error on misuse.
  void set_bins(const BinnedColumns& bins);

  /// Flushes the tail chunk, writes labels/aux/meta and the final
  /// header, and closes the file. Returns the first error encountered.
  [[nodiscard]] StoreStatus finish();

 private:
  void flush_chunk();

  std::string path_;
  std::vector<ColumnInfo> columns_;
  std::size_t n_rows_ = 0;
  std::size_t chunk_rows_ = 0;
  std::size_t stride_ = 0;  // chunk column stride in floats (padded)
  std::size_t appended_ = 0;
  std::size_t flushed_ = 0;
  std::size_t chunk_fill_ = 0;
  bool finished_ = false;
  bool io_failed_ = false;
  std::vector<float> chunk_;            // column-major, stride stride_
  std::vector<std::uint8_t> labels_;    // buffered whole (1 byte/row)
  std::vector<std::uint64_t> col_hash_;  // running FNV-1a per column
  std::vector<std::string> aux_names_;
  std::vector<std::vector<std::uint32_t>> aux_;
  std::string meta_;
  std::string bins_section_;  // serialized by set_bins; empty = write v1
  bool has_bins_ = false;
  void* file_ = nullptr;  // std::FILE*, opaque to keep <cstdio> out
};

namespace detail {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// Byte-serial 64-bit FNV-1a of `n` bytes, continuing from `hash`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t n,
                                  std::uint64_t hash = kFnvOffset) noexcept;

/// Continues the FNV-1a hash of `hashes.size()` equal-length columns:
/// column j is the `len` bytes at `base + j * stride` and its running
/// hash is hashes[j]. The result equals fnv1a(column j, len, hashes[j])
/// for every j; columns are hashed four per pass as independent chains.
void fnv1a_columns(const void* base, std::size_t stride, std::size_t len,
                   std::span<std::uint64_t> hashes) noexcept;

}  // namespace detail

enum class ArenaLoadMode : std::uint8_t { kEager = 0, kMapped };

struct ArenaLoadOptions {
  ArenaLoadMode mode = ArenaLoadMode::kEager;
  /// Verify per-column payload checksums. Eager loads always verify
  /// (the payload is being read anyway). Mapped loads skip it unless
  /// set — verification touches every payload page.
  bool verify_payload = false;
};

/// Load an nmarena v1/v2 file. Returns nullopt with `status` filled on
/// any failure; never throws on malformed input.
[[nodiscard]] std::optional<StoredArena> load_arena(
    const std::string& path, const ArenaLoadOptions& options = {},
    StoreStatus* status = nullptr);

/// Convenience non-streaming save of an in-memory arena (tests/tools).
/// Passing `bins` writes a v2 artefact with the bin-code section.
[[nodiscard]] StoreStatus save_arena(
    const std::string& path, const FeatureArena& arena,
    std::span<const std::string> aux_names = {},
    std::span<const std::vector<std::uint32_t>> aux = {},
    const std::string& meta = {}, const BinnedColumns* bins = nullptr);

}  // namespace nevermind::ml
