// Hostile-input hardening of the columnar-store reader
// (store/columnar_store.h), mirroring serialization_fuzz_test.cc for the
// run-artifact loader: truncations at every boundary, bit-flipped headers,
// wrong majors, absurd declared counts and corrupted directory entries
// must all come back as a clean nullptr + reason -- no crash, no multi-GB
// allocation, no partially-initialised store. On the writing side, a NaN or
// infinity in any series fails the write and leaves no segment that opens.

#include "store/columnar_store.h"

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/time_series.h"
#include "store/store_format.h"
#include "store/store_writer.h"

namespace ips {
namespace {

std::string TempPath(const char* tag) {
  return "/tmp/ips_store_fuzz_" + std::to_string(::getpid()) + "_" + tag +
         ".ips";
}

struct ScopedPath {
  explicit ScopedPath(std::string p) : path(std::move(p)) {}
  ~ScopedPath() { ::unlink(path.c_str()); }
  std::string path;
};

/// A small but real multi-chunk segment, loaded back into bytes.
std::vector<uint8_t> IntactSegment() {
  static const std::vector<uint8_t>* bytes = [] {
    Dataset data;
    for (int i = 0; i < 9; ++i) {
      std::vector<double> values;
      for (int j = 0; j < 24 + i; ++j) {
        values.push_back(0.25 * j - 0.125 * i);
      }
      data.Add(TimeSeries(std::move(values), i % 3));
    }
    const std::string path = TempPath("intact");
    store::StoreWriter::Options options;
    options.chunk_target_bytes = 24 * sizeof(double) * 2;  // ~2 series/chunk
    EXPECT_TRUE(store::WriteDatasetToStore(data, path, options));

    std::ifstream in(path, std::ios::binary);
    auto* out = new std::vector<uint8_t>(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    ::unlink(path.c_str());
    return out;
  }();
  return *bytes;
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Opens `bytes` as a segment; returns nullptr + error like Open does.
std::unique_ptr<store::ColumnarStore> OpenBytes(
    const std::vector<uint8_t>& bytes, const char* tag,
    std::string* error = nullptr) {
  const ScopedPath path(TempPath(tag));
  WriteBytes(path.path, bytes);
  return store::ColumnarStore::Open(path.path, error);
}

TEST(StoreFuzzTest, IntactSegmentOpens) {
  std::string error = "sentinel";
  const auto segment = OpenBytes(IntactSegment(), "ok", &error);
  ASSERT_NE(segment, nullptr) << error;
  EXPECT_EQ(segment->size(), 9u);
  EXPECT_GE(segment->num_chunks(), 3u);
}

TEST(StoreFuzzTest, EveryTruncationFailsCleanly) {
  const std::vector<uint8_t> intact = IntactSegment();
  // Every prefix: the empty file, a partial header, partial chunk records,
  // a partial directory. Step 7 (coprime with all the 8-aligned section
  // sizes) still lands on every alignment class.
  for (size_t keep = 0; keep < intact.size(); keep += 7) {
    std::vector<uint8_t> bytes(intact.begin(),
                               intact.begin() + static_cast<ptrdiff_t>(keep));
    std::string error;
    EXPECT_EQ(OpenBytes(bytes, "trunc", &error), nullptr)
        << "prefix of " << keep << " bytes parsed";
    EXPECT_FALSE(error.empty());
  }
}

TEST(StoreFuzzTest, EveryHeaderBitFlipFailsCleanlyOrRoundTrips) {
  const std::vector<uint8_t> intact = IntactSegment();
  // Flip each bit of the 64-byte header. Most flips must be rejected;
  // flips in fields the reader legitimately ignores (reserved words, the
  // writer's chunk_target_bytes note, the minor version) may still parse
  // -- but then the data must be untouched.
  for (size_t bit = 0; bit < sizeof(store::SegmentHeader) * 8; ++bit) {
    std::vector<uint8_t> bytes = intact;
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    std::string error;
    const auto segment = OpenBytes(bytes, "hdrflip", &error);
    if (segment == nullptr) {
      EXPECT_FALSE(error.empty()) << "bit " << bit;
      continue;
    }
    ASSERT_EQ(segment->size(), 9u) << "bit " << bit;
    EXPECT_EQ(segment->At(0).length(), 24u) << "bit " << bit;
  }
}

TEST(StoreFuzzTest, WrongMagicAndMajorAreRejected) {
  std::vector<uint8_t> bytes = IntactSegment();
  store::SegmentHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));

  header.magic ^= 0xFF;
  std::memcpy(bytes.data(), &header, sizeof(header));
  std::string error;
  EXPECT_EQ(OpenBytes(bytes, "magic", &error), nullptr);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  header.magic = store::kStoreMagic;
  header.major = store::kStoreMajor + 1;
  std::memcpy(bytes.data(), &header, sizeof(header));
  EXPECT_EQ(OpenBytes(bytes, "major", &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(StoreFuzzTest, HostileCountsDoNotAllocate) {
  const std::vector<uint8_t> intact = IntactSegment();
  store::SegmentHeader header;
  std::memcpy(&header, intact.data(), sizeof(header));

  // Counts chosen so `count * sizeof(entry)` overflows or dwarfs the file:
  // a reader that sizes an allocation from them dies before validating.
  const uint64_t hostile[] = {
      uint64_t{1} << 62,
      uint64_t{0xFFFFFFFFFFFFFFFF},
      uint64_t{1} << 32,
      header.num_chunks + 1000000,
  };
  for (const uint64_t count : hostile) {
    for (const bool series_field : {true, false}) {
      std::vector<uint8_t> bytes = intact;
      store::SegmentHeader h = header;
      (series_field ? h.num_series : h.num_chunks) = count;
      std::memcpy(bytes.data(), &h, sizeof(h));
      std::string error;
      EXPECT_EQ(OpenBytes(bytes, "counts", &error), nullptr)
          << (series_field ? "num_series " : "num_chunks ") << count;
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(StoreFuzzTest, LyingFileBytesIsRejected) {
  std::vector<uint8_t> bytes = IntactSegment();
  store::SegmentHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (const uint64_t lie :
       {header.file_bytes - 1, header.file_bytes + 1, uint64_t{0},
        uint64_t{1} << 60}) {
    store::SegmentHeader h = header;
    h.file_bytes = lie;
    std::memcpy(bytes.data(), &h, sizeof(h));
    std::string error;
    EXPECT_EQ(OpenBytes(bytes, "filebytes", &error), nullptr) << lie;
    EXPECT_FALSE(error.empty());
  }
}

TEST(StoreFuzzTest, CorruptedDirectoryEntriesAreRejected) {
  const std::vector<uint8_t> intact = IntactSegment();
  store::SegmentHeader header;
  std::memcpy(&header, intact.data(), sizeof(header));
  ASSERT_GE(header.num_chunks, 2u);

  struct Mutation {
    const char* name;
    size_t field;  // u64 index within the 4-word entry
    uint64_t value;
  };
  const Mutation mutations[] = {
      {"offset_misaligned", 0, 65},
      {"offset_past_eof", 0, uint64_t{1} << 60},
      {"offset_overlaps_header", 0, 8},
      {"bytes_zero", 1, 0},
      {"bytes_huge", 1, uint64_t{1} << 60},
      {"first_series_wrong", 2, 7},
      {"num_series_zero", 3, 0},
      {"num_series_huge", 3, uint64_t{1} << 40},
  };
  for (const Mutation& m : mutations) {
    for (uint64_t chunk = 0; chunk < header.num_chunks; ++chunk) {
      std::vector<uint8_t> bytes = intact;
      const size_t entry =
          static_cast<size_t>(header.directory_offset) +
          static_cast<size_t>(chunk) * sizeof(store::ChunkDirEntry);
      std::memcpy(bytes.data() + entry + m.field * 8, &m.value, 8);
      std::string error;
      EXPECT_EQ(OpenBytes(bytes, "direntry", &error), nullptr)
          << m.name << " on chunk " << chunk;
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(StoreFuzzTest, CorruptedChunkColumnsAreRejected) {
  const std::vector<uint8_t> intact = IntactSegment();
  store::SegmentHeader header;
  std::memcpy(&header, intact.data(), sizeof(header));
  store::ChunkDirEntry first;
  std::memcpy(&first, intact.data() + header.directory_offset, sizeof(first));

  // The first chunk's two payload-size words and its first length, value
  // offset and sidecar offset entries (the sidecar offsets are the last
  // column, ending the column block), each set to values that cannot cover
  // the record.
  struct Mutation {
    const char* name;
    uint64_t offset;  // within the chunk record
    uint64_t value;
  };
  const uint64_t columns = store::ChunkColumnBytes(first.num_series);
  const uint64_t labels_bytes = (first.num_series * 4 + 7) / 8 * 8;
  const Mutation mutations[] = {
      {"values_doubles_zero", 0, 0},
      {"values_doubles_huge", 0, uint64_t{1} << 58},
      {"sidecar_doubles_zero", 8, 0},
      {"sidecar_doubles_huge", 8, uint64_t{1} << 58},
      {"length_zero", 16 + labels_bytes, 0},
      {"length_huge", 16 + labels_bytes, uint64_t{1} << 40},
      {"value_offset_nonzero", 16 + labels_bytes + 8 * first.num_series, 13},
      {"sidecar_offset_nonzero", columns - 8 * first.num_series, 13},
  };
  for (const Mutation& m : mutations) {
    std::vector<uint8_t> bytes = intact;
    std::memcpy(bytes.data() + first.offset + m.offset, &m.value, 8);
    std::string error;
    EXPECT_EQ(OpenBytes(bytes, "chunkcol", &error), nullptr) << m.name;
    EXPECT_FALSE(error.empty());
  }
}

TEST(StoreFuzzTest, NegativeLabelsBelowUnlabeledAreRejected) {
  const std::vector<uint8_t> intact = IntactSegment();
  store::SegmentHeader header;
  std::memcpy(&header, intact.data(), sizeof(header));
  store::ChunkDirEntry first;
  std::memcpy(&first, intact.data() + header.directory_offset, sizeof(first));

  std::vector<uint8_t> bytes = intact;
  const int32_t bad = -2;  // below kUnlabeledSeries
  std::memcpy(bytes.data() + first.offset + 16, &bad, sizeof(bad));
  std::string error;
  EXPECT_EQ(OpenBytes(bytes, "label", &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(StoreFuzzTest, NonFinitePayloadsFailTheWrite) {
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (double bad : bad_values) {
    // In the first chunk and after earlier chunks were flushed; at the
    // first, an interior and the last position of the series.
    for (int series : {0, 4, 8}) {
      const int length = 24 + series;
      for (int position : {0, length / 2, length - 1}) {
        SCOPED_TRACE(testing::Message() << "value " << bad << " series "
                                        << series << " position "
                                        << position);
        const ScopedPath path(TempPath("nonfinite"));
        store::StoreWriter::Options options;
        options.chunk_target_bytes = 24 * sizeof(double) * 2;
        store::StoreWriter writer(path.path, options);
        ASSERT_TRUE(writer.ok());
        for (int i = 0; i <= series; ++i) {
          std::vector<double> values(static_cast<size_t>(24 + i), 0.5 * i);
          if (i == series) values[static_cast<size_t>(position)] = bad;
          EXPECT_EQ(writer.Append(values, i % 3), i != series);
        }
        EXPECT_EQ(writer.error(), "series " + std::to_string(series) +
                                      ": non-finite value at position " +
                                      std::to_string(position));
        EXPECT_FALSE(writer.Finish());
        std::string error;
        EXPECT_EQ(store::ColumnarStore::Open(path.path, &error), nullptr);
        EXPECT_FALSE(error.empty());
      }
    }
  }
}

TEST(StoreFuzzTest, EmptyAndGarbageFilesFailCleanly) {
  std::string error;
  EXPECT_EQ(OpenBytes({}, "empty", &error), nullptr);
  EXPECT_FALSE(error.empty());

  std::vector<uint8_t> garbage(4096);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  EXPECT_EQ(OpenBytes(garbage, "garbage", &error), nullptr);
  EXPECT_FALSE(error.empty());

  EXPECT_EQ(store::ColumnarStore::Open("/nonexistent/nope.ips", &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace ips
