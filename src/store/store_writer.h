// Streaming writer of `ips-store v1` segments (store_format.h).
//
// Series are appended one at a time; the writer buffers at most one chunk
// (the configured value-payload budget) in RAM, so a corpus of any size
// can be converted with bounded memory -- the UCR importer streams files
// through this without ever materialising a Dataset. Statistics sidecars
// (grand mean + centred/raw prefix tables) are computed per series at
// append time with exactly the accumulation order of ComputeRollingStats /
// ComputeWindowEnergies (core/znorm.cc), so store-served statistics are
// bitwise identical to runtime-computed ones.

#ifndef IPS_STORE_STORE_WRITER_H_
#define IPS_STORE_STORE_WRITER_H_

#include <cstdint>

#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/time_series.h"
#include "store/store_format.h"

namespace ips::store {

/// Computes the write-time sidecar of one series into `out` (cleared
/// first): gm, csum, csq, esq per store_format.h. Exposed for tests, which
/// assert bitwise equality against the core/znorm.cc paths.
void ComputeSidecar(std::span<const double> values, std::vector<double>* out);

class StoreWriter {
 public:
  struct Options {
    /// Value-payload budget per chunk, in bytes. A single series longer
    /// than the budget still becomes one (oversized) chunk.
    uint64_t chunk_target_bytes = uint64_t{4} << 20;
  };

  /// Opens `path` for writing (truncates). Check ok() before appending.
  StoreWriter(const std::string& path, const Options& options);
  explicit StoreWriter(const std::string& path)
      : StoreWriter(path, Options()) {}

  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;
  ~StoreWriter();

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  /// Appends one labelled series (length >= 1, label >= -1, every value
  /// finite). Flushes a chunk record to disk whenever the buffered value
  /// payload reaches the chunk budget. Returns false (and records an error)
  /// on I/O failure or invalid input; a NaN or infinity is named by its
  /// series number (0-based, in append order) and position. After a
  /// failure every later Append and Finish fails too.
  bool Append(std::span<const double> values, int label);

  /// Flushes the trailing chunk, writes the directory and the final
  /// header. Must be called exactly once; no Append after. Returns false
  /// on I/O failure. Idempotent error reporting via error().
  bool Finish();

  uint64_t series_written() const { return num_series_; }
  uint64_t chunks_written() const {
    return static_cast<uint64_t>(directory_.size());
  }

 private:
  bool FlushChunk();
  bool WriteRaw(const void* data, size_t bytes);

  std::ofstream out_;
  Options options_;
  bool ok_ = false;
  bool finished_ = false;
  std::string error_;

  uint64_t num_series_ = 0;
  uint64_t file_offset_ = 0;

  // Current chunk buffers.
  uint64_t chunk_first_series_ = 0;
  std::vector<int32_t> labels_;
  std::vector<uint64_t> lengths_;
  std::vector<uint64_t> value_offsets_;
  std::vector<uint64_t> sidecar_offsets_;
  std::vector<double> values_;
  std::vector<double> sidecar_;
  std::vector<double> sidecar_scratch_;

  std::vector<ChunkDirEntry> directory_;
};

/// Streams every series of `data` into a new segment at `path` (chunk-wise
/// on the view side too, so an out-of-core source is re-chunked without
/// materialising). Returns false with `*error` set on failure.
bool WriteDatasetToStore(const ips::DatasetView& data, const std::string& path,
                         const StoreWriter::Options& options = {},
                         std::string* error = nullptr);

}  // namespace ips::store

#endif  // IPS_STORE_STORE_WRITER_H_
