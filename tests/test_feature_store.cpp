// nmarena feature store: bit-exact round trips across the access paths
// (streaming writer -> eager reader, mmap reader), writer misuse, the
// read-only fence on file-backed arenas, and the table-driven
// corruption taxonomy — every damaged file must come back as its
// distinct typed error, never UB (this test runs in the ASan/UBSan job
// like the rest of the suite).
#include "ml/feature_store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

namespace nevermind::ml {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "nm_feature_store_" + name;
}

/// Arena with adversarial float content: NaN (missing), signed zero,
/// denormal, huge, and values that truncate badly at low precision.
FeatureArena tricky_arena() {
  FeatureArena arena(
      {{"alpha", false}, {"beta", true}, {"gamma", false}}, 5);
  const float rows[5][3] = {
      {1.0F, 2.0F, kMissing},
      {-0.0F, std::numeric_limits<float>::denorm_min(), 0.1F},
      {3.4e38F, -3.4e38F, 1.0F / 3.0F},
      {kMissing, 42.5F, -7.25F},
      {0.30000001F, 5.0F, 1e-30F},
  };
  const bool labels[5] = {true, false, false, true, false};
  for (std::size_t r = 0; r < 5; ++r) arena.add_row(rows[r], labels[r]);
  return arena;
}

std::vector<std::vector<std::uint32_t>> tricky_aux() {
  return {{10, 11, 12, 13, 14}, {0, 0, 1, 1, 2}};
}
const std::vector<std::string> kAuxNames = {"line", "week"};
constexpr const char* kMeta = "nmdataset predictor\nencoder v1 stub\n";

/// Bitwise float equality — NaN payloads and signed zeros must survive
/// every round trip, so EXPECT_EQ on the value is not enough.
void expect_bit_identical(const FeatureArena& a, const FeatureArena& b) {
  ASSERT_EQ(a.n_rows(), b.n_rows());
  ASSERT_EQ(a.n_cols(), b.n_cols());
  EXPECT_EQ(a.positives(), b.positives());
  for (std::size_t j = 0; j < a.n_cols(); ++j) {
    EXPECT_EQ(a.column_info(j).name, b.column_info(j).name);
    EXPECT_EQ(a.column_info(j).categorical, b.column_info(j).categorical);
    for (std::size_t r = 0; r < a.n_rows(); ++r) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(a.value(r, j)),
                std::bit_cast<std::uint32_t>(b.value(r, j)))
          << "row " << r << " col " << j;
    }
  }
  for (std::size_t r = 0; r < a.n_rows(); ++r) {
    EXPECT_EQ(a.label(r), b.label(r));
  }
}

void expect_sidecar_identical(const StoredArena& got) {
  EXPECT_EQ(got.aux_names, kAuxNames);
  EXPECT_EQ(got.aux, tricky_aux());
  EXPECT_EQ(got.meta, kMeta);
}

std::string write_tricky(const std::string& name) {
  const std::string path = temp_path(name);
  const StoreStatus st =
      save_arena(path, tricky_arena(), kAuxNames, tricky_aux(), kMeta);
  EXPECT_TRUE(st.ok()) << st.message;
  return path;
}

/// The histogram-path quantization of the tricky arena, as written into
/// v2 artefacts. Deterministic: same arena -> same bins.
BinnedColumns tricky_bins() { return BinnedColumns(tricky_arena(), {}); }

void expect_bins_identical(const BinnedColumns& a, const BinnedColumns& b) {
  ASSERT_EQ(a.n_rows(), b.n_rows());
  ASSERT_EQ(a.n_cols(), b.n_cols());
  EXPECT_EQ(a.max_bins(), b.max_bins());
  for (std::size_t j = 0; j < a.n_cols(); ++j) {
    const BinnedColumns::Column& x = a.column(j);
    const BinnedColumns::Column& y = b.column(j);
    EXPECT_EQ(x.categorical, y.categorical) << "col " << j;
    EXPECT_EQ(x.overflow, y.overflow) << "col " << j;
    EXPECT_EQ(x.n_finite, y.n_finite) << "col " << j;
    ASSERT_EQ(x.split_values.size(), y.split_values.size()) << "col " << j;
    for (std::size_t k = 0; k < x.split_values.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(x.split_values[k]),
                std::bit_cast<std::uint32_t>(y.split_values[k]))
          << "col " << j << " split " << k;
    }
    ASSERT_EQ(x.category_values.size(), y.category_values.size())
        << "col " << j;
    for (std::size_t k = 0; k < x.category_values.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(x.category_values[k]),
                std::bit_cast<std::uint32_t>(y.category_values[k]))
          << "col " << j << " category " << k;
    }
    ASSERT_EQ(x.codes.size(), y.codes.size()) << "col " << j;
    for (std::size_t r = 0; r < x.codes.size(); ++r) {
      EXPECT_EQ(x.codes[r], y.codes[r]) << "col " << j << " row " << r;
    }
  }
}

TEST(FeatureStore, EagerRoundTripIsBitExact) {
  const std::string path = write_tricky("eager.nmarena");
  StoreStatus st;
  auto got = load_arena(path, {.mode = ArenaLoadMode::kEager}, &st);
  ASSERT_TRUE(got.has_value()) << st.message;
  EXPECT_FALSE(got->arena.file_backed());
  expect_bit_identical(tricky_arena(), got->arena);
  expect_sidecar_identical(*got);
  std::remove(path.c_str());
}

TEST(FeatureStore, MmapRoundTripIsBitExactAndReadOnly) {
  const std::string path = write_tricky("mmap.nmarena");
  StoreStatus st;
  auto got = load_arena(
      path, {.mode = ArenaLoadMode::kMapped, .verify_payload = true}, &st);
  ASSERT_TRUE(got.has_value()) << st.message;
  EXPECT_TRUE(got->arena.file_backed());
  EXPECT_EQ(got->arena.backing(), FeatureArena::Backing::kMapped);
  expect_bit_identical(tricky_arena(), got->arena);
  expect_sidecar_identical(*got);
  // The mutation API is fenced off the file-backed path.
  const float row[3] = {1.0F, 2.0F, 3.0F};
  EXPECT_THROW(got->arena.add_row(row, false), std::logic_error);
  // Copies share the mapping keepalive; the original can go away.
  FeatureArena copy = got->arena;
  got.reset();
  EXPECT_EQ(copy.value(2, 2), 1.0F / 3.0F);
  std::remove(path.c_str());
}

TEST(FeatureStore, BinsRoundTripWritesV2AndIsBitExact) {
  const std::string path = temp_path("v2.nmarena");
  const BinnedColumns bins = tricky_bins();
  const StoreStatus wrote =
      save_arena(path, tricky_arena(), kAuxNames, tricky_aux(), kMeta, &bins);
  ASSERT_TRUE(wrote.ok()) << wrote.message;
  {
    std::ifstream is(path, std::ios::binary);
    char preamble[16] = {};
    is.read(preamble, sizeof(preamble));
    EXPECT_EQ(preamble[8], 2) << "bins-carrying artefacts are version 2";
  }
  for (const auto mode : {ArenaLoadMode::kEager, ArenaLoadMode::kMapped}) {
    StoreStatus st;
    auto got = load_arena(path, {.mode = mode, .verify_payload = true}, &st);
    ASSERT_TRUE(got.has_value()) << st.message;
    // The arena itself round-trips exactly as in v1...
    expect_bit_identical(tricky_arena(), got->arena);
    expect_sidecar_identical(*got);
    // ...and the quantization comes back bit for bit: codes, split
    // thresholds, category values, flags, max_bins.
    ASSERT_NE(got->bins, nullptr)
        << "v2 load must surface the stored bins (mode "
        << static_cast<int>(mode) << ")";
    expect_bins_identical(bins, *got->bins);
  }
  std::remove(path.c_str());
}

TEST(FeatureStore, NoBinsWriteStaysVersionOneByteIdentical) {
  // The v2 extension must not perturb bins-free artefacts at all:
  // writers without set_bins emit version 1, byte-identical to the
  // pre-extension format, and v1 loads report no bins.
  const std::string path = write_tricky("still_v1.nmarena");
  {
    std::ifstream is(path, std::ios::binary);
    char preamble[16] = {};
    is.read(preamble, sizeof(preamble));
    EXPECT_EQ(preamble[8], 1);
  }
  StoreStatus st;
  auto got = load_arena(path, {.mode = ArenaLoadMode::kEager}, &st);
  ASSERT_TRUE(got.has_value()) << st.message;
  EXPECT_EQ(got->bins, nullptr);
  std::remove(path.c_str());
}

TEST(FeatureStore, StreamingWriterMatchesBulkSaveByteForByte) {
  // Chunk size 3 does not divide 5 rows: the tail flush and the
  // per-column scatter seeks must still produce the identical file.
  const std::string bulk_path = write_tricky("bulk.nmarena");
  const std::string stream_path = temp_path("stream.nmarena");
  const FeatureArena arena = tricky_arena();
  ArenaStreamWriter writer(stream_path, arena.columns(), arena.n_rows(), 3);
  std::vector<float> row(arena.n_cols());
  for (std::size_t r = 0; r < arena.n_rows(); ++r) {
    for (std::size_t j = 0; j < arena.n_cols(); ++j) row[j] = arena.value(r, j);
    writer.append(row, arena.label(r));
  }
  const auto aux = tricky_aux();
  writer.add_aux(kAuxNames[0], aux[0]);
  writer.add_aux(kAuxNames[1], aux[1]);
  writer.set_meta(kMeta);
  const StoreStatus st = writer.finish();
  ASSERT_TRUE(st.ok()) << st.message;

  const auto slurp = [](const std::string& p) {
    std::ifstream is(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
  };
  EXPECT_EQ(slurp(bulk_path), slurp(stream_path));
  std::remove(bulk_path.c_str());
  std::remove(stream_path.c_str());
}

TEST(FeatureStore, WideArenaRoundTripsAtEveryChunkSize) {
  // Seven columns (one four-column checksum group plus a tail of three)
  // and chunk sizes below, at and above a 64-byte stride step: every
  // file is the same, and it loads back bit-exact and verified.
  std::vector<ColumnInfo> columns;
  for (int j = 0; j < 7; ++j) {
    columns.push_back({"w" + std::to_string(j), j == 5});
  }
  FeatureArena arena(columns, 37);
  std::vector<float> row(7);
  for (int r = 0; r < 37; ++r) {
    for (int j = 0; j < 7; ++j) {
      row[j] = (r + j) % 5 == 0 ? kMissing : static_cast<float>(r) / (j + 1);
    }
    arena.add_row(row, r % 3 == 0);
  }
  std::string reference;
  for (const std::size_t chunk_rows : {1U, 3U, 16U, 17U, 4096U}) {
    const std::string path = temp_path("wide.nmarena");
    ArenaStreamWriter writer(path, arena.columns(), arena.n_rows(),
                             chunk_rows);
    for (std::size_t r = 0; r < arena.n_rows(); ++r) {
      for (std::size_t j = 0; j < arena.n_cols(); ++j) {
        row[j] = arena.value(r, j);
      }
      writer.append(row, arena.label(r));
    }
    ASSERT_TRUE(writer.finish().ok());
    std::ifstream is(path, std::ios::binary);
    const std::string file(std::istreambuf_iterator<char>(is), {});
    if (reference.empty()) reference = file;
    EXPECT_EQ(file, reference) << "chunk_rows " << chunk_rows;
    for (const auto mode : {ArenaLoadMode::kEager, ArenaLoadMode::kMapped}) {
      StoreStatus st;
      auto got = load_arena(path, {.mode = mode, .verify_payload = true}, &st);
      ASSERT_TRUE(got.has_value()) << st.message;
      expect_bit_identical(got->arena, arena);
    }
    std::remove(path.c_str());
  }
}

TEST(FeatureStore, WriterMisuseThrowsAndShortfallIsTyped) {
  const std::string path = temp_path("misuse.nmarena");
  {
    ArenaStreamWriter writer(path, {{"a", false}, {"b", false}}, 3);
    const float narrow[1] = {1.0F};
    EXPECT_THROW(writer.append(narrow, false), std::logic_error);
    const float ok[2] = {1.0F, 2.0F};
    writer.append(ok, false);
    const std::vector<std::uint32_t> short_aux = {1, 2};
    EXPECT_THROW(writer.add_aux("x", short_aux), std::logic_error);
    // Fewer rows than declared: a typed error, not a corrupt file.
    const StoreStatus st = writer.finish();
    EXPECT_EQ(st.code, StoreError::kRowCountMismatch);
    EXPECT_THROW(writer.append(ok, false), std::logic_error);
  }
  {
    ArenaStreamWriter writer(path, {{"a", false}}, 1);
    const float one[1] = {1.0F};
    writer.append(one, true);
    EXPECT_THROW(writer.append(one, true), std::logic_error);  // over-append
    ASSERT_TRUE(writer.finish().ok());
  }
  std::remove(path.c_str());
}

TEST(FeatureStore, ZeroRowArtefactRoundTrips) {
  const std::string path = temp_path("empty.nmarena");
  const FeatureArena empty({{"only", false}}, 0);
  ASSERT_TRUE(save_arena(path, empty).ok());
  for (const auto mode : {ArenaLoadMode::kEager, ArenaLoadMode::kMapped}) {
    StoreStatus st;
    auto got = load_arena(path, {.mode = mode, .verify_payload = true}, &st);
    ASSERT_TRUE(got.has_value()) << st.message;
    EXPECT_EQ(got->arena.n_rows(), 0U);
    EXPECT_EQ(got->arena.n_cols(), 1U);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption taxonomy — table-driven over both readers
// ---------------------------------------------------------------------------

std::vector<unsigned char> slurp_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), {}};
}

void dump_bytes(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

/// FNV-1a mirror of the format constant, for forging header checksums
/// in the malformed-header case.
std::uint64_t fnv1a(const unsigned char* p, std::size_t n) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

// The multi-chain column hasher behind the writer's and both loaders'
// payload checksums equals byte-serial FNV-1a column by column: column
// counts around the four-chain width, lengths around a writer chunk,
// the format's offset basis and a non-zero seed hash.
TEST(FeatureStoreChecksum, MultiChainColumnsMatchByteSerial) {
  const unsigned char probe[] = {'n', 'm', 0, 255, 7};
  EXPECT_EQ(detail::fnv1a(probe, sizeof(probe)), fnv1a(probe, sizeof(probe)));
  for (const std::size_t n_cols : {1U, 3U, 4U, 5U, 541U}) {
    for (const std::size_t len : {0U, 1U, 7U, 4099U}) {
      // Columns are not adjacent: the stride leaves a gap after each.
      const std::size_t stride = len + 13;
      std::vector<unsigned char> bytes(n_cols * stride);
      std::uint64_t x = 0x243F6A8885A308D3ULL + n_cols * 31 + len;
      for (unsigned char& b : bytes) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        b = static_cast<unsigned char>(x >> 56);
      }
      for (const std::uint64_t seed :
           {detail::kFnvOffset, std::uint64_t{0x9E3779B97F4A7C15ULL}}) {
        std::vector<std::uint64_t> hashes(n_cols);
        for (std::size_t j = 0; j < n_cols; ++j) hashes[j] = seed + j;
        detail::fnv1a_columns(bytes.data(), stride, len, hashes);
        for (std::size_t j = 0; j < n_cols; ++j) {
          ASSERT_EQ(hashes[j],
                    detail::fnv1a(bytes.data() + j * stride, len, seed + j))
              << n_cols << " columns, length " << len << ", column " << j;
        }
      }
    }
  }
}

// A damaged column inside a four-column chain group is the one the
// error names, under both load modes.
TEST(FeatureStoreChecksum, PayloadMismatchNamesTheDamagedColumn) {
  std::vector<ColumnInfo> columns;
  for (int j = 0; j < 6; ++j) columns.push_back({"c" + std::to_string(j), false});
  FeatureArena arena(columns, 5);
  for (int r = 0; r < 5; ++r) {
    std::vector<float> row(6);
    for (int j = 0; j < 6; ++j) row[j] = static_cast<float>(r * 10 + j);
    arena.add_row(row, r % 2 == 0);
  }
  const std::string path = temp_path("damaged_column.nmarena");
  ASSERT_TRUE(save_arena(path, arena).ok());
  std::vector<unsigned char> bytes = slurp_bytes(path);
  bytes[128 + (2 * 5 + 3) * sizeof(float)] ^= 0x40;  // column 2, row 3
  dump_bytes(path, bytes);
  for (const auto mode : {ArenaLoadMode::kEager, ArenaLoadMode::kMapped}) {
    StoreStatus st;
    EXPECT_FALSE(
        load_arena(path, {.mode = mode, .verify_payload = true}, &st));
    EXPECT_EQ(st.code, StoreError::kChecksumMismatch);
    EXPECT_NE(st.message.find("column 2 ('c2')"), std::string::npos)
        << st.message;
  }
  std::remove(path.c_str());
}

struct CorruptionCase {
  const char* name;
  StoreError expected;
  void (*mutate)(std::vector<unsigned char>&);
};

const CorruptionCase kCorruptionCases[] = {
    {"truncated_header", StoreError::kTruncatedHeader,
     [](std::vector<unsigned char>& b) { b.resize(64); }},
    {"wrong_magic", StoreError::kBadMagic,
     [](std::vector<unsigned char>& b) { b[0] = 'X'; }},
    {"future_version", StoreError::kBadVersion,
     [](std::vector<unsigned char>& b) { b[8] = 99; }},
    {"foreign_endian", StoreError::kBadEndian,
     [](std::vector<unsigned char>& b) { std::swap(b[12], b[15]); }},
    {"header_bit_flip", StoreError::kChecksumMismatch,
     // Bytes [16,120) are header fields under the header checksum.
     [](std::vector<unsigned char>& b) { b[40] ^= 0x01; }},
    {"inconsistent_header", StoreError::kMalformedHeader,
     [](std::vector<unsigned char>& b) {
       // Forge n_rows (header offset 16) += 1 WITH a valid checksum:
       // the recomputed section layout no longer matches.
       std::uint64_t n_rows = 0;
       std::memcpy(&n_rows, b.data() + 16, 8);
       ++n_rows;
       std::memcpy(b.data() + 16, &n_rows, 8);
       const std::uint64_t sum = fnv1a(b.data(), 120);
       std::memcpy(b.data() + 120, &sum, 8);
     }},
    {"short_file", StoreError::kShortFile,
     // Drop the trailing meta section: declared extents exceed the file.
     [](std::vector<unsigned char>& b) { b.resize(b.size() - 8); }},
    {"payload_bit_flip", StoreError::kChecksumMismatch,
     [](std::vector<unsigned char>& b) { b[128 + 5] ^= 0x80; }},
    {"label_bit_flip", StoreError::kChecksumMismatch,
     // Labels sit immediately after the 5x3-float payload.
     [](std::vector<unsigned char>& b) { b[128 + 5 * 3 * 4 + 2] ^= 0x01; }},
    {"meta_bit_flip", StoreError::kChecksumMismatch,
     // The meta section is the file tail.
     [](std::vector<unsigned char>& b) { b[b.size() - 1] ^= 0x01; }},
    {"legacy_text_dump", StoreError::kBadMagic,
     // A dump in the retired portable text form (longer than the fixed
     // header, so only the magic can refuse it) is foreign bytes to
     // both readers.
     [](std::vector<unsigned char>& b) {
       const std::string text =
           "nmdataset" " v1\n"
           "meta 36\nnmdataset predictor\nencoder v1 stub\n\n"
           "columns 3\nalpha 0\nbeta 1\ngamma 0\n"
           "aux 2 line week\nrows 5 positives 2\n"
           "1 10 0 1 2 NA\n"
           "0 11 0 -0 1.40129846e-45 0.100000001\n"
           "0 12 1 3.40000005e+38 -3.40000005e+38 0.333333343\n"
           "1 13 1 NA 42.5 -7.25\n"
           "0 14 2 0.300000012 5 1.00000003e-30\n";
       b.assign(text.begin(), text.end());
     }},
};

TEST(FeatureStoreCorruption, EveryDamageModeYieldsItsTypedError) {
  const std::string good_path = write_tricky("corrupt_src.nmarena");
  const std::vector<unsigned char> good = slurp_bytes(good_path);
  ASSERT_GE(good.size(), 128U);
  std::remove(good_path.c_str());

  for (const auto& c : kCorruptionCases) {
    std::vector<unsigned char> bytes = good;
    c.mutate(bytes);
    const std::string path =
        temp_path(std::string("corrupt_") + c.name + ".nmarena");
    dump_bytes(path, bytes);
    for (const auto mode : {ArenaLoadMode::kEager, ArenaLoadMode::kMapped}) {
      StoreStatus st;
      // verify_payload on: the mapped reader must detect payload damage
      // when asked, exactly like the eager reader always does.
      auto got = load_arena(path, {.mode = mode, .verify_payload = true}, &st);
      EXPECT_FALSE(got.has_value())
          << c.name << " loaded successfully in mode "
          << static_cast<int>(mode);
      EXPECT_EQ(st.code, c.expected)
          << c.name << " mode " << static_cast<int>(mode) << ": got "
          << store_error_name(st.code) << " (" << st.message << ")";
      EXPECT_FALSE(st.message.empty()) << c.name;
    }
    std::remove(path.c_str());
  }
  for (const auto mode : {ArenaLoadMode::kEager, ArenaLoadMode::kMapped}) {
    StoreStatus st;
    const std::string missing = temp_path("does_not_exist");
    EXPECT_FALSE(load_arena(missing, {.mode = mode}, &st).has_value());
    EXPECT_EQ(st.code, StoreError::kIoError)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(FeatureStoreCorruption, V2BinsDamageModesYieldTypedErrors) {
  // Version-negotiation hardening around the v2 bin-code section. The
  // v1 and v2 artefacts of the same arena share their leading sections
  // byte for byte (only the version field and header checksum differ),
  // so the v1 file size IS the v2 bins-subheader offset.
  const std::string v1_path = write_tricky("v2src_v1.nmarena");
  const std::vector<unsigned char> v1 = slurp_bytes(v1_path);
  std::remove(v1_path.c_str());

  const std::string v2_path = temp_path("v2src_v2.nmarena");
  const BinnedColumns bins = tricky_bins();
  ASSERT_TRUE(
      save_arena(v2_path, tricky_arena(), kAuxNames, tricky_aux(), kMeta, &bins)
          .ok());
  const std::vector<unsigned char> v2 = slurp_bytes(v2_path);
  std::remove(v2_path.c_str());
  const std::size_t sub = v1.size();  // [u64 size][u64 checksum][content]
  ASSERT_GT(v2.size(), sub + 16);
  {
    // Sanity-check the shared-prefix assumption: the declared bins size
    // at that offset must match the actual tail length.
    std::uint64_t declared = 0;
    std::memcpy(&declared, v2.data() + sub, 8);
    ASSERT_EQ(declared, v2.size() - sub - 16);
  }

  struct Damage {
    const char* name;
    StoreError expected;
    std::vector<unsigned char> bytes;
  };
  std::vector<Damage> damages;

  // A v1 file with appended trailing bytes: the strict end check must
  // refuse it — old-format files cannot smuggle an unverified bins
  // section past the reader.
  {
    std::vector<unsigned char> b = v1;
    b.insert(b.end(), {'b', 'o', 'n', 'u', 's'});
    damages.push_back({"v1_trailing_garbage", StoreError::kMalformedHeader, b});
  }
  // Truncation inside the bins content, and truncation so deep the
  // declared subheader itself is gone.
  {
    std::vector<unsigned char> b = v2;
    b.resize(b.size() - 4);
    damages.push_back({"v2_truncated_in_bins", StoreError::kShortFile, b});
  }
  {
    std::vector<unsigned char> b = v2;
    b.resize(sub + 8);
    damages.push_back({"v2_missing_subheader", StoreError::kShortFile, b});
  }
  // A flipped bit in the bins content with the stored checksum left
  // alone: checksum mismatch, same as payload damage in v1.
  {
    std::vector<unsigned char> b = v2;
    b.back() ^= 0x01;
    damages.push_back({"v2_bins_bit_flip", StoreError::kChecksumMismatch, b});
  }
  // Content damage WITH a forged (valid) checksum: the parser itself
  // must reject it — the final byte is the last column's last bin code;
  // 0xFF is past every column's missing bin.
  {
    std::vector<unsigned char> b = v2;
    b.back() = 0xFF;
    const std::uint64_t sum = fnv1a(b.data() + sub + 16, b.size() - sub - 16);
    std::memcpy(b.data() + sub + 8, &sum, 8);
    damages.push_back({"v2_malformed_bins", StoreError::kMalformedBins, b});
  }
  // An implausibly huge declared bins size is malformed, not a short
  // file (no attempt to allocate or seek terabytes).
  {
    std::vector<unsigned char> b = v2;
    const std::uint64_t huge = std::uint64_t{1} << 41;
    std::memcpy(b.data() + sub, &huge, 8);
    damages.push_back({"v2_implausible_size", StoreError::kMalformedBins, b});
  }

  for (const auto& d : damages) {
    const std::string path =
        temp_path(std::string("corrupt_") + d.name + ".nmarena");
    dump_bytes(path, d.bytes);
    for (const auto mode : {ArenaLoadMode::kEager, ArenaLoadMode::kMapped}) {
      StoreStatus st;
      auto got = load_arena(path, {.mode = mode, .verify_payload = true}, &st);
      EXPECT_FALSE(got.has_value())
          << d.name << " loaded successfully in mode "
          << static_cast<int>(mode);
      EXPECT_EQ(st.code, d.expected)
          << d.name << " mode " << static_cast<int>(mode) << ": got "
          << store_error_name(st.code) << " (" << st.message << ")";
      EXPECT_FALSE(st.message.empty()) << d.name;
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace nevermind::ml
