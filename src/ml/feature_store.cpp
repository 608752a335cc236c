#include "ml/feature_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

// The payload is raw little-endian binary32/u32/u64; reading it back on
// a big-endian host would silently transpose every value, so the format
// is compiled out there rather than half-supported.
static_assert(std::endian::native == std::endian::little,
              "nmarena v1 is a little-endian format; port the byte-swapping "
              "before enabling it on this host");

namespace nevermind::ml {

namespace {

constexpr char kMagic[8] = {'N', 'M', 'A', 'R', 'E', 'N', 'A', '\0'};
/// v1: payload | labels | aux | meta. v2: v1 plus a trailing bin-code
/// section. A bin-less v2 write is forbidden by construction — writers
/// pick the version from whether set_bins was called, so files written
/// without bins stay byte-identical to pre-v2 builds.
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint32_t kVersionBins = 2;
constexpr std::uint32_t kEndianTag = 0x01020304;
constexpr std::uint64_t kPayloadOffset = 128;  // preamble 16 + header 112
constexpr std::uint64_t kHeaderChecksumSpan = 120;  // bytes hashed into it

using detail::fnv1a;
using detail::kFnvOffset;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Chunk column stride, in floats: chunk_rows rounded up to an odd
/// number of 64-byte cache lines. At a power-of-two stride (the default
/// 4096 floats is 16 KiB) one row's slots in every column map onto the
/// same few cache sets, and append()'s scatter across all columns
/// evicts itself row after row; an odd line count spreads them.
std::size_t padded_stride(std::size_t chunk_rows) {
  constexpr std::size_t kLineFloats = 64 / sizeof(float);
  std::size_t lines = (chunk_rows + kLineFloats - 1) / kLineFloats;
  if (lines % 2 == 0) ++lines;
  return lines * kLineFloats;
}

/// Fixed header fields (bytes [16, 128) of the file). Section order is
/// payload | labels | aux | meta, every offset recorded explicitly so a
/// reader never has to trust arithmetic it did not verify.
struct Header {
  std::uint64_t n_rows = 0;
  std::uint64_t n_cols = 0;
  std::uint64_t n_aux = 0;
  std::uint64_t payload_offset = kPayloadOffset;
  std::uint64_t payload_size = 0;
  std::uint64_t labels_offset = 0;
  std::uint64_t aux_offset = 0;
  std::uint64_t meta_offset = 0;
  std::uint64_t meta_size = 0;
  std::uint64_t positives = 0;
  std::uint64_t labels_checksum = 0;
  std::uint64_t aux_checksum = 0;
  std::uint64_t meta_checksum = 0;
  std::uint64_t header_checksum = 0;  // FNV-1a of file bytes [0, 120)
};
static_assert(sizeof(Header) == 112, "header layout is part of the format");

void encode_head_block(const Header& header, std::uint32_t version,
                       unsigned char out[128]) {
  std::memcpy(out, kMagic, 8);
  std::memcpy(out + 8, &version, 4);
  std::memcpy(out + 12, &kEndianTag, 4);
  std::memcpy(out + 16, &header, sizeof(Header));
  const std::uint64_t checksum = fnv1a(out, kHeaderChecksumSpan);
  std::memcpy(out + kHeaderChecksumSpan, &checksum, 8);
}

void append_u16(std::string& out, std::uint16_t v) {
  out.append(reinterpret_cast<const char*>(&v), 2);
}
void append_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), 4);
}
void append_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), 8);
}

/// Serialized meta section: per-column (name, categorical, payload
/// checksum), aux names, opaque caller blob.
std::string encode_meta_section(const std::vector<ColumnInfo>& columns,
                                std::span<const std::uint64_t> col_hash,
                                std::span<const std::string> aux_names,
                                const std::string& meta) {
  std::string out;
  for (std::size_t j = 0; j < columns.size(); ++j) {
    append_u16(out, static_cast<std::uint16_t>(columns[j].name.size()));
    out.append(columns[j].name);
    out.push_back(columns[j].categorical ? '\1' : '\0');
    append_u64(out, col_hash[j]);
  }
  for (const std::string& name : aux_names) {
    append_u16(out, static_cast<std::uint16_t>(name.size()));
    out.append(name);
  }
  append_u32(out, static_cast<std::uint32_t>(meta.size()));
  out.append(meta);
  return out;
}

/// Serialized v2 bin-code section content (checksummed separately from
/// the meta section): u32 max_bins, u32 n_cols, then per column a u8
/// flag byte (bit0 categorical, bit1 overflow), u16 n_finite, the
/// length-prefixed split/category float lists, and n_rows uint8 codes.
std::string encode_bins_section(const BinnedColumns& bins) {
  std::string out;
  append_u32(out, static_cast<std::uint32_t>(bins.max_bins()));
  append_u32(out, static_cast<std::uint32_t>(bins.n_cols()));
  for (std::size_t j = 0; j < bins.n_cols(); ++j) {
    const BinnedColumns::Column& col = bins.column(j);
    const std::uint8_t flags = static_cast<std::uint8_t>(
        (col.categorical ? 1U : 0U) | (col.overflow ? 2U : 0U));
    out.push_back(static_cast<char>(flags));
    append_u16(out, col.n_finite);
    append_u32(out, static_cast<std::uint32_t>(col.split_values.size()));
    out.append(reinterpret_cast<const char*>(col.split_values.data()),
               col.split_values.size() * sizeof(float));
    append_u32(out, static_cast<std::uint32_t>(col.category_values.size()));
    out.append(reinterpret_cast<const char*>(col.category_values.data()),
               col.category_values.size() * sizeof(float));
    out.append(reinterpret_cast<const char*>(col.codes.data()),
               col.codes.size());
  }
  return out;
}

/// Cursor-checked parse + validation of a v2 bin-code section. Nullopt
/// on overrun, trailing garbage, dimensions that disagree with the
/// header, or codes outside a column's bin range.
std::optional<BinnedColumns> parse_bins_section(std::span<const char> bytes,
                                                std::size_t n_rows,
                                                std::size_t n_cols_expected) {
  std::size_t pos = 0;
  const auto take = [&](void* dst, std::size_t n) {
    if (n == 0) return true;  // empty float lists have a null data()
    if (bytes.size() - pos < n) return false;
    std::memcpy(dst, bytes.data() + pos, n);
    pos += n;
    return true;
  };
  std::uint32_t max_bins = 0;
  std::uint32_t n_cols = 0;
  if (!take(&max_bins, 4) || !take(&n_cols, 4)) return std::nullopt;
  if (max_bins == 0 || max_bins > 256 || n_cols != n_cols_expected) {
    return std::nullopt;
  }
  std::vector<BinnedColumns::Column> columns(n_cols);
  for (std::uint32_t j = 0; j < n_cols; ++j) {
    BinnedColumns::Column& col = columns[j];
    std::uint8_t flags = 0;
    std::uint16_t n_finite = 0;
    std::uint32_t n_split = 0;
    std::uint32_t n_cat = 0;
    if (!take(&flags, 1) || (flags & ~std::uint8_t{3}) != 0 ||
        !take(&n_finite, 2) || n_finite > 255) {
      return std::nullopt;
    }
    col.categorical = (flags & 1) != 0;
    col.overflow = (flags & 2) != 0;
    col.n_finite = n_finite;
    if (!take(&n_split, 4)) return std::nullopt;
    const std::uint32_t want_split =
        col.categorical ? 0U : (n_finite > 0 ? n_finite - 1U : 0U);
    if (n_split != want_split) return std::nullopt;
    col.split_values.resize(n_split);
    if (!take(col.split_values.data(), n_split * sizeof(float))) {
      return std::nullopt;
    }
    if (!take(&n_cat, 4)) return std::nullopt;
    if (col.categorical ? n_cat > n_finite : n_cat != 0) return std::nullopt;
    col.category_values.resize(n_cat);
    if (!take(col.category_values.data(), n_cat * sizeof(float))) {
      return std::nullopt;
    }
    if (bytes.size() - pos < n_rows) return std::nullopt;
    col.codes.assign(bytes.data() + pos, bytes.data() + pos + n_rows);
    pos += n_rows;
    for (const std::uint8_t code : col.codes) {
      if (code > n_finite) return std::nullopt;  // past the missing bin
    }
  }
  if (pos != bytes.size()) return std::nullopt;  // trailing garbage
  return BinnedColumns(n_rows, max_bins, std::move(columns));
}

struct MetaSection {
  std::vector<ColumnInfo> columns;
  std::vector<std::uint64_t> col_hash;
  std::vector<std::string> aux_names;
  std::string meta;
};

/// Cursor-checked parse of the meta section; nullopt on any overrun or
/// trailing garbage.
std::optional<MetaSection> parse_meta_section(std::span<const char> bytes,
                                              std::size_t n_cols,
                                              std::size_t n_aux) {
  MetaSection out;
  std::size_t pos = 0;
  const auto take = [&](void* dst, std::size_t n) {
    if (bytes.size() - pos < n) return false;
    std::memcpy(dst, bytes.data() + pos, n);
    pos += n;
    return true;
  };
  const auto take_string = [&](std::string& dst, std::size_t n) {
    if (bytes.size() - pos < n) return false;
    dst.assign(bytes.data() + pos, n);
    pos += n;
    return true;
  };
  for (std::size_t j = 0; j < n_cols; ++j) {
    std::uint16_t len = 0;
    ColumnInfo info;
    std::uint8_t categorical = 0;
    std::uint64_t hash = 0;
    if (!take(&len, 2) || !take_string(info.name, len) ||
        !take(&categorical, 1) || !take(&hash, 8)) {
      return std::nullopt;
    }
    info.categorical = categorical != 0;
    out.columns.push_back(std::move(info));
    out.col_hash.push_back(hash);
  }
  for (std::size_t a = 0; a < n_aux; ++a) {
    std::uint16_t len = 0;
    std::string name;
    if (!take(&len, 2) || !take_string(name, len)) return std::nullopt;
    out.aux_names.push_back(std::move(name));
  }
  std::uint32_t meta_len = 0;
  if (!take(&meta_len, 4) || !take_string(out.meta, meta_len)) {
    return std::nullopt;
  }
  if (pos != bytes.size()) return std::nullopt;  // trailing garbage
  return out;
}

void fail(StoreStatus* status, StoreError code, std::string message) {
  if (status != nullptr) {
    status->code = code;
    status->message = std::move(message);
  }
}

/// Checks every column's payload checksum against the meta section;
/// on a mismatch fills `status` naming the first bad column.
bool payload_verifies(const float* payload, std::uint64_t n_rows,
                      const MetaSection& meta, const std::string& path,
                      StoreStatus* status) {
  std::vector<std::uint64_t> got(meta.col_hash.size(), kFnvOffset);
  detail::fnv1a_columns(payload, n_rows * sizeof(float),
                        n_rows * sizeof(float), got);
  const auto bad =
      std::mismatch(got.begin(), got.end(), meta.col_hash.begin()).first;
  if (bad == got.end()) return true;
  const auto j = static_cast<std::size_t>(bad - got.begin());
  fail(status, StoreError::kChecksumMismatch,
       "payload checksum mismatch in column " + std::to_string(j) + " ('" +
           meta.columns[j].name + "') of " + path);
  return false;
}

struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

/// RAII mapping; shared_ptr copies of this keep a file-backed arena's
/// pages alive after the StoredArena (and the fd) are gone.
struct MappedFile {
  void* base = MAP_FAILED;
  std::size_t size = 0;
  ~MappedFile() {
    if (base != MAP_FAILED) ::munmap(base, size);
  }
};

bool pread_all(int fd, void* dst, std::size_t n, std::uint64_t offset) {
  auto* out = static_cast<unsigned char*>(dst);
  while (n > 0) {
    const ::ssize_t got = ::pread(fd, out, n, static_cast<::off_t>(offset));
    if (got <= 0) return false;
    out += got;
    offset += static_cast<std::uint64_t>(got);
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

}  // namespace

namespace detail {

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t hash) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= p[i];
    hash *= kFnvPrime;
  }
  return hash;
}

void fnv1a_columns(const void* base, std::size_t stride, std::size_t len,
                   std::span<std::uint64_t> hashes) noexcept {
  const auto* p = static_cast<const unsigned char*>(base);
  const std::size_t n_cols = hashes.size();
  std::size_t j = 0;
  for (; j + 4 <= n_cols; j += 4) {
    const unsigned char* c0 = p + j * stride;
    const unsigned char* c1 = c0 + stride;
    const unsigned char* c2 = c1 + stride;
    const unsigned char* c3 = c2 + stride;
    std::uint64_t h0 = hashes[j];
    std::uint64_t h1 = hashes[j + 1];
    std::uint64_t h2 = hashes[j + 2];
    std::uint64_t h3 = hashes[j + 3];
    for (std::size_t i = 0; i < len; ++i) {
      h0 = (h0 ^ c0[i]) * kFnvPrime;
      h1 = (h1 ^ c1[i]) * kFnvPrime;
      h2 = (h2 ^ c2[i]) * kFnvPrime;
      h3 = (h3 ^ c3[i]) * kFnvPrime;
    }
    hashes[j] = h0;
    hashes[j + 1] = h1;
    hashes[j + 2] = h2;
    hashes[j + 3] = h3;
  }
  for (; j < n_cols; ++j) hashes[j] = fnv1a(p + j * stride, len, hashes[j]);
}

}  // namespace detail

const char* store_error_name(StoreError e) noexcept {
  switch (e) {
    case StoreError::kOk: return "ok";
    case StoreError::kIoError: return "io-error";
    case StoreError::kTruncatedHeader: return "truncated-header";
    case StoreError::kBadMagic: return "bad-magic";
    case StoreError::kBadVersion: return "bad-version";
    case StoreError::kBadEndian: return "bad-endian";
    case StoreError::kShortFile: return "short-file";
    case StoreError::kChecksumMismatch: return "checksum-mismatch";
    case StoreError::kMalformedHeader: return "malformed-header";
    case StoreError::kMalformedMeta: return "malformed-meta";
    case StoreError::kRowCountMismatch: return "row-count-mismatch";
    case StoreError::kMalformedBins: return "malformed-bins";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------------------

ArenaStreamWriter::ArenaStreamWriter(std::string path,
                                     std::vector<ColumnInfo> columns,
                                     std::size_t n_rows,
                                     std::size_t chunk_rows)
    : path_(std::move(path)),
      columns_(std::move(columns)),
      n_rows_(n_rows),
      chunk_rows_(std::max<std::size_t>(chunk_rows, 1)),
      stride_(padded_stride(chunk_rows_)) {
  if (n_rows_ > (std::uint64_t{1} << 40) ||
      columns_.size() > (std::uint64_t{1} << 24)) {
    throw std::invalid_argument("ArenaStreamWriter: implausible dimensions");
  }
  for (const ColumnInfo& col : columns_) {
    if (col.name.size() > std::numeric_limits<std::uint16_t>::max()) {
      throw std::invalid_argument("ArenaStreamWriter: column name too long");
    }
  }
  chunk_.resize(columns_.size() * stride_);
  labels_.reserve(n_rows_);
  col_hash_.assign(columns_.size(), kFnvOffset);
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  file_ = f;
  if (f == nullptr) {
    io_failed_ = true;
    return;
  }
  // Reserve the head block so the payload lands 64-byte aligned at 128;
  // the real header is rewritten over it by finish().
  const unsigned char zeros[kPayloadOffset] = {};
  io_failed_ = std::fwrite(zeros, 1, sizeof(zeros), f) != sizeof(zeros);
}

ArenaStreamWriter::~ArenaStreamWriter() {
  if (file_ != nullptr) std::fclose(static_cast<std::FILE*>(file_));
}

void ArenaStreamWriter::append(std::span<const float> features,
                               bool positive) {
  if (finished_) {
    throw std::logic_error("ArenaStreamWriter::append after finish");
  }
  if (features.size() != columns_.size()) {
    throw std::logic_error("ArenaStreamWriter::append: feature count mismatch");
  }
  if (appended_ == n_rows_) {
    throw std::logic_error(
        "ArenaStreamWriter::append: more rows than declared");
  }
  for (std::size_t j = 0; j < features.size(); ++j) {
    chunk_[j * stride_ + chunk_fill_] = features[j];
  }
  labels_.push_back(positive ? 1 : 0);
  ++appended_;
  if (++chunk_fill_ == chunk_rows_) flush_chunk();
}

void ArenaStreamWriter::flush_chunk() {
  if (chunk_fill_ == 0 || io_failed_) {
    chunk_fill_ = 0;
    return;
  }
  auto* f = static_cast<std::FILE*>(file_);
  for (std::size_t j = 0; j < columns_.size() && !io_failed_; ++j) {
    const std::uint64_t offset =
        kPayloadOffset +
        (static_cast<std::uint64_t>(j) * n_rows_ + flushed_) * sizeof(float);
    const float* src = chunk_.data() + j * stride_;
    io_failed_ = ::fseeko(f, static_cast<::off_t>(offset), SEEK_SET) != 0 ||
                 std::fwrite(src, sizeof(float), chunk_fill_, f) != chunk_fill_;
  }
  detail::fnv1a_columns(chunk_.data(), stride_ * sizeof(float),
                        chunk_fill_ * sizeof(float), col_hash_);
  flushed_ += chunk_fill_;
  chunk_fill_ = 0;
}

void ArenaStreamWriter::set_meta(std::string meta) { meta_ = std::move(meta); }

void ArenaStreamWriter::add_aux(const std::string& name,
                                std::span<const std::uint32_t> values) {
  if (finished_) {
    throw std::logic_error("ArenaStreamWriter::add_aux after finish");
  }
  if (values.size() != n_rows_ ||
      name.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::logic_error("ArenaStreamWriter::add_aux: bad aux array");
  }
  aux_names_.push_back(name);
  aux_.emplace_back(values.begin(), values.end());
}

void ArenaStreamWriter::set_bins(const BinnedColumns& bins) {
  if (finished_) {
    throw std::logic_error("ArenaStreamWriter::set_bins after finish");
  }
  if (bins.n_rows() != n_rows_ || bins.n_cols() != columns_.size()) {
    throw std::logic_error(
        "ArenaStreamWriter::set_bins: bins do not cover the declared matrix");
  }
  bins_section_ = encode_bins_section(bins);
  has_bins_ = true;
}

StoreStatus ArenaStreamWriter::finish() {
  if (finished_) {
    throw std::logic_error("ArenaStreamWriter::finish called twice");
  }
  finished_ = true;
  flush_chunk();
  auto* f = static_cast<std::FILE*>(file_);
  if (appended_ != n_rows_) {
    return {StoreError::kRowCountMismatch,
            "wrote " + std::to_string(appended_) + " rows, declared " +
                std::to_string(n_rows_)};
  }

  Header header;
  header.n_rows = n_rows_;
  header.n_cols = columns_.size();
  header.n_aux = aux_.size();
  header.payload_size =
      static_cast<std::uint64_t>(n_rows_) * columns_.size() * sizeof(float);
  header.labels_offset = kPayloadOffset + header.payload_size;
  header.aux_offset = header.labels_offset + n_rows_;
  header.meta_offset =
      header.aux_offset +
      static_cast<std::uint64_t>(aux_.size()) * n_rows_ * sizeof(std::uint32_t);
  for (const std::uint8_t l : labels_) header.positives += l != 0 ? 1 : 0;
  header.labels_checksum = fnv1a(labels_.data(), labels_.size());

  std::uint64_t aux_hash = kFnvOffset;
  const std::string meta_section =
      encode_meta_section(columns_, col_hash_, aux_names_, meta_);
  header.meta_size = meta_section.size();
  header.meta_checksum = fnv1a(meta_section.data(), meta_section.size());

  if (!io_failed_ && f != nullptr) {
    io_failed_ =
        ::fseeko(f, static_cast<::off_t>(header.labels_offset), SEEK_SET) != 0;
    if (!io_failed_ && !labels_.empty()) {
      io_failed_ =
          std::fwrite(labels_.data(), 1, labels_.size(), f) != labels_.size();
    }
    for (const auto& values : aux_) {
      if (io_failed_) break;
      aux_hash =
          fnv1a(values.data(), values.size() * sizeof(std::uint32_t), aux_hash);
      if (!values.empty()) {
        io_failed_ = std::fwrite(values.data(), sizeof(std::uint32_t),
                                 values.size(), f) != values.size();
      }
    }
    header.aux_checksum = aux_hash;
    if (!io_failed_ && !meta_section.empty()) {
      io_failed_ = std::fwrite(meta_section.data(), 1, meta_section.size(),
                               f) != meta_section.size();
    }
    if (!io_failed_ && has_bins_) {
      // v2 trailing section: [u64 size][u64 checksum][content], right
      // after the meta section (file position is already there).
      const std::uint64_t bins_size = bins_section_.size();
      const std::uint64_t bins_checksum =
          fnv1a(bins_section_.data(), bins_section_.size());
      io_failed_ = std::fwrite(&bins_size, 8, 1, f) != 1 ||
                   std::fwrite(&bins_checksum, 8, 1, f) != 1 ||
                   std::fwrite(bins_section_.data(), 1, bins_section_.size(),
                               f) != bins_section_.size();
    }
    unsigned char head[kPayloadOffset];
    encode_head_block(header, has_bins_ ? kVersionBins : kVersionV1, head);
    io_failed_ = io_failed_ || ::fseeko(f, 0, SEEK_SET) != 0 ||
                 std::fwrite(head, 1, sizeof(head), f) != sizeof(head) ||
                 std::fflush(f) != 0;
  }
  if (f != nullptr) {
    io_failed_ = (std::fclose(f) != 0) || io_failed_;
    file_ = nullptr;
  }
  if (io_failed_) {
    return {StoreError::kIoError, "write failed for " + path_ +
                                      (errno != 0 ? std::string(": ") +
                                                        std::strerror(errno)
                                                  : std::string())};
  }
  return {};
}

// ---------------------------------------------------------------------------
// Binary readers
// ---------------------------------------------------------------------------

std::optional<StoredArena> load_arena(const std::string& path,
                                      const ArenaLoadOptions& options,
                                      StoreStatus* status) {
  if (status != nullptr) *status = {};
  Fd file;
  file.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (file.fd < 0) {
    fail(status, StoreError::kIoError,
         "cannot open " + path + ": " + std::strerror(errno));
    return std::nullopt;
  }
  struct ::stat st{};
  if (::fstat(file.fd, &st) != 0) {
    fail(status, StoreError::kIoError,
         "cannot stat " + path + ": " + std::strerror(errno));
    return std::nullopt;
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  if (file_size < kPayloadOffset) {
    fail(status, StoreError::kTruncatedHeader,
         path + " is shorter than the nmarena header (" +
             std::to_string(file_size) + " bytes)");
    return std::nullopt;
  }

  unsigned char head[kPayloadOffset];
  if (!pread_all(file.fd, head, sizeof(head), 0)) {
    fail(status, StoreError::kIoError, "cannot read header of " + path);
    return std::nullopt;
  }
  if (std::memcmp(head, kMagic, sizeof(kMagic)) != 0) {
    fail(status, StoreError::kBadMagic,
         path + " is not an nmarena artefact (bad magic)");
    return std::nullopt;
  }
  std::uint32_t version = 0;
  std::uint32_t endian_tag = 0;
  std::memcpy(&version, head + 8, 4);
  std::memcpy(&endian_tag, head + 12, 4);
  if (version != kVersionV1 && version != kVersionBins) {
    fail(status, StoreError::kBadVersion,
         path + " is nmarena v" + std::to_string(version) +
             "; this build reads v1 and v2");
    return std::nullopt;
  }
  if (endian_tag != kEndianTag) {
    fail(status, StoreError::kBadEndian,
         path + " was written by a foreign-endian host");
    return std::nullopt;
  }
  Header header;
  std::memcpy(&header, head + 16, sizeof(Header));
  if (fnv1a(head, kHeaderChecksumSpan) != header.header_checksum) {
    fail(status, StoreError::kChecksumMismatch,
         "header checksum mismatch in " + path);
    return std::nullopt;
  }

  // Recompute every derived offset; a header that disagrees with its
  // own dimensions is malformed even with a valid checksum.
  const std::uint64_t n_rows = header.n_rows;
  const std::uint64_t n_cols = header.n_cols;
  const std::uint64_t n_aux = header.n_aux;
  if (n_rows > (std::uint64_t{1} << 40) || n_cols > (std::uint64_t{1} << 24) ||
      n_aux > (std::uint64_t{1} << 16) ||
      header.meta_size > (std::uint64_t{1} << 32)) {
    fail(status, StoreError::kMalformedHeader,
         "implausible dimensions in " + path);
    return std::nullopt;
  }
  const std::uint64_t payload_size = n_rows * n_cols * sizeof(float);
  if (header.payload_offset != kPayloadOffset ||
      header.payload_size != payload_size ||
      header.labels_offset != kPayloadOffset + payload_size ||
      header.aux_offset != header.labels_offset + n_rows ||
      header.meta_offset !=
          header.aux_offset + n_aux * n_rows * sizeof(std::uint32_t) ||
      header.positives > n_rows) {
    fail(status, StoreError::kMalformedHeader,
         "inconsistent section layout in " + path);
    return std::nullopt;
  }
  std::uint64_t expected_end = header.meta_offset + header.meta_size;
  std::uint64_t bins_offset = 0;
  std::uint64_t bins_size = 0;
  std::uint64_t bins_checksum = 0;
  if (version == kVersionBins) {
    // The v2 bins subheader sits right after the meta section.
    if (file_size < expected_end + 16) {
      fail(status, StoreError::kShortFile,
           path + " is " + std::to_string(file_size) +
               " bytes but declares a v2 bins subheader at " +
               std::to_string(expected_end));
      return std::nullopt;
    }
    unsigned char bins_head[16];
    if (!pread_all(file.fd, bins_head, sizeof(bins_head), expected_end)) {
      fail(status, StoreError::kIoError,
           "cannot read bins subheader of " + path);
      return std::nullopt;
    }
    std::memcpy(&bins_size, bins_head, 8);
    std::memcpy(&bins_checksum, bins_head + 8, 8);
    if (bins_size > (std::uint64_t{1} << 40)) {
      fail(status, StoreError::kMalformedBins,
           "implausible bins section size in " + path);
      return std::nullopt;
    }
    bins_offset = expected_end + 16;
    expected_end = bins_offset + bins_size;
  }
  if (file_size < expected_end) {
    fail(status, StoreError::kShortFile,
         path + " is " + std::to_string(file_size) + " bytes but declares " +
             std::to_string(expected_end));
    return std::nullopt;
  }
  if (file_size != expected_end) {
    // Strict end for every version: v1 files cannot carry trailing
    // (unverified) bytes — a would-be bins section on a v1 file is a
    // malformed artefact, not an ignorable extension.
    fail(status, StoreError::kMalformedHeader,
         path + " has " + std::to_string(file_size - expected_end) +
             " trailing bytes past its declared sections");
    return std::nullopt;
  }

  std::vector<char> meta_bytes(header.meta_size);
  if (!pread_all(file.fd, meta_bytes.data(), meta_bytes.size(),
                 header.meta_offset)) {
    fail(status, StoreError::kIoError, "cannot read meta section of " + path);
    return std::nullopt;
  }
  if (fnv1a(meta_bytes.data(), meta_bytes.size()) != header.meta_checksum) {
    fail(status, StoreError::kChecksumMismatch,
         "meta section checksum mismatch in " + path);
    return std::nullopt;
  }
  auto meta = parse_meta_section(meta_bytes, n_cols, n_aux);
  if (!meta.has_value()) {
    fail(status, StoreError::kMalformedMeta,
         "meta section of " + path + " does not parse");
    return std::nullopt;
  }

  // Aux arrays are always copied out (they are small and the file
  // section carries no alignment guarantee for in-place u32 reads).
  std::uint64_t aux_hash = kFnvOffset;
  std::vector<std::vector<std::uint32_t>> aux(n_aux);
  for (std::uint64_t a = 0; a < n_aux; ++a) {
    aux[a].resize(n_rows);
    const std::uint64_t offset =
        header.aux_offset + a * n_rows * sizeof(std::uint32_t);
    if (n_rows > 0 && !pread_all(file.fd, aux[a].data(),
                                 n_rows * sizeof(std::uint32_t), offset)) {
      fail(status, StoreError::kIoError, "cannot read aux section of " + path);
      return std::nullopt;
    }
    aux_hash =
        fnv1a(aux[a].data(), n_rows * sizeof(std::uint32_t), aux_hash);
  }
  if (aux_hash != header.aux_checksum) {
    fail(status, StoreError::kChecksumMismatch,
         "aux section checksum mismatch in " + path);
    return std::nullopt;
  }

  StoredArena out;
  out.aux_names = std::move(meta->aux_names);
  out.aux = std::move(aux);
  out.meta = std::move(meta->meta);

  if (version == kVersionBins) {
    // Bins are always copied out into aligned heap vectors (the kernel
    // arms want 64-byte-aligned code streams; the file section makes no
    // alignment promise), so eager and mapped loads share this path.
    std::vector<char> bins_bytes(bins_size);
    if (bins_size > 0 && !pread_all(file.fd, bins_bytes.data(),
                                    bins_bytes.size(), bins_offset)) {
      fail(status, StoreError::kIoError, "cannot read bins section of " + path);
      return std::nullopt;
    }
    if (fnv1a(bins_bytes.data(), bins_bytes.size()) != bins_checksum) {
      fail(status, StoreError::kChecksumMismatch,
           "bins section checksum mismatch in " + path);
      return std::nullopt;
    }
    auto bins = parse_bins_section(bins_bytes, n_rows, n_cols);
    if (!bins.has_value()) {
      fail(status, StoreError::kMalformedBins,
           "bins section of " + path + " does not parse");
      return std::nullopt;
    }
    out.bins = std::make_shared<const BinnedColumns>(std::move(*bins));
  }

  if (options.mode == ArenaLoadMode::kEager) {
    std::vector<std::uint8_t> labels(n_rows);
    if (n_rows > 0 && !pread_all(file.fd, labels.data(), labels.size(),
                                 header.labels_offset)) {
      fail(status, StoreError::kIoError, "cannot read labels of " + path);
      return std::nullopt;
    }
    if (fnv1a(labels.data(), labels.size()) != header.labels_checksum) {
      fail(status, StoreError::kChecksumMismatch,
           "label block checksum mismatch in " + path);
      return std::nullopt;
    }
    std::vector<float> payload(n_rows * n_cols);
    if (payload_size > 0 && !pread_all(file.fd, payload.data(), payload_size,
                                       kPayloadOffset)) {
      fail(status, StoreError::kIoError, "cannot read payload of " + path);
      return std::nullopt;
    }
    if (!payload_verifies(payload.data(), n_rows, *meta, path, status)) {
      return std::nullopt;
    }
    out.arena = FeatureArena(std::move(meta->columns), n_rows,
                             std::move(payload), std::move(labels));
  } else {
    auto mapping = std::make_shared<MappedFile>();
    mapping->size = file_size;
    mapping->base =
        ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, file.fd, 0);
    if (mapping->base == MAP_FAILED) {
      fail(status, StoreError::kIoError,
           "cannot mmap " + path + ": " + std::strerror(errno));
      return std::nullopt;
    }
    const auto* base = static_cast<const unsigned char*>(mapping->base);
    const auto* labels =
        reinterpret_cast<const std::uint8_t*>(base + header.labels_offset);
    if (fnv1a(labels, n_rows) != header.labels_checksum) {
      fail(status, StoreError::kChecksumMismatch,
           "label block checksum mismatch in " + path);
      return std::nullopt;
    }
    const auto* payload =
        reinterpret_cast<const float*>(base + kPayloadOffset);
    if (options.verify_payload &&
        !payload_verifies(payload, n_rows, *meta, path, status)) {
      return std::nullopt;
    }
    out.arena = FeatureArena::map_external(std::move(meta->columns), n_rows,
                                           payload, labels,
                                           std::move(mapping));
  }
  if (out.arena.positives() != header.positives) {
    fail(status, StoreError::kMalformedHeader,
         "positive-label count disagrees with the header in " + path);
    return std::nullopt;
  }
  return out;
}

StoreStatus save_arena(const std::string& path, const FeatureArena& arena,
                       std::span<const std::string> aux_names,
                       std::span<const std::vector<std::uint32_t>> aux,
                       const std::string& meta, const BinnedColumns* bins) {
  ArenaStreamWriter writer(path, arena.columns(), arena.n_rows());
  std::vector<float> row(arena.n_cols());
  for (std::size_t r = 0; r < arena.n_rows(); ++r) {
    for (std::size_t j = 0; j < arena.n_cols(); ++j) {
      row[j] = arena.value(r, j);
    }
    writer.append(row, arena.label(r));
  }
  for (std::size_t a = 0; a < aux_names.size() && a < aux.size(); ++a) {
    writer.add_aux(aux_names[a], aux[a]);
  }
  writer.set_meta(meta);
  if (bins != nullptr) writer.set_bins(*bins);
  return writer.finish();
}

}  // namespace nevermind::ml
