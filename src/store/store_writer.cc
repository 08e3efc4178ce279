#include "store/store_writer.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace ips::store {

void ComputeSidecar(std::span<const double> values,
                    std::vector<double>* out) {
  const size_t n = values.size();
  out->clear();
  out->reserve(SidecarDoubles(n));

  // Grand mean, with Mean()'s exact accumulation order (core/znorm.cc).
  double sum = 0.0;
  for (double v : values) sum += v;
  const double gm = sum / static_cast<double>(n);
  out->push_back(gm);

  // Centred prefix sums and squares: ComputeRollingStats' tables.
  out->push_back(0.0);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double c = values[i] - gm;
    acc += c;
    out->push_back(acc);
  }
  out->push_back(0.0);
  acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double c = values[i] - gm;
    acc += c * c;
    out->push_back(acc);
  }

  // Raw prefix squares: ComputeWindowEnergies' table.
  out->push_back(0.0);
  acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += values[i] * values[i];
    out->push_back(acc);
  }
}

StoreWriter::StoreWriter(const std::string& path, const Options& options)
    : out_(path, std::ios::binary | std::ios::trunc), options_(options) {
  if (!out_) {
    error_ = "cannot open " + path + " for writing";
    return;
  }
  // Placeholder header; Finish() seeks back and writes the real one.
  SegmentHeader header;
  if (!WriteRaw(&header, sizeof(header))) return;
  ok_ = true;
}

StoreWriter::~StoreWriter() = default;

bool StoreWriter::WriteRaw(const void* data, size_t bytes) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
  if (!out_) {
    ok_ = false;
    if (error_.empty()) error_ = "write failure";
    return false;
  }
  file_offset_ += bytes;
  return true;
}

bool StoreWriter::Append(std::span<const double> values, int label) {
  if (!ok_ || finished_) return false;
  if (values.empty()) {
    ok_ = false;
    error_ = "empty series";
    return false;
  }
  if (label < -1) {
    ok_ = false;
    error_ = "label below kUnlabeledSeries";
    return false;
  }
  // A NaN or infinity would reach every fit and reload that reads the
  // segment, so the whole write fails instead. The sidecar starts with the
  // grand mean, which is finite whenever every value is, so only a series
  // whose mean is not finite is scanned for the culprit.
  ComputeSidecar(values, &sidecar_scratch_);
  if (!std::isfinite(sidecar_scratch_.front())) {
    for (size_t i = 0; i < values.size(); ++i) {
      if (!std::isfinite(values[i])) {
        char message[96];
        std::snprintf(message, sizeof(message),
                      "series %llu: non-finite value at position %zu",
                      static_cast<unsigned long long>(num_series_), i);
        ok_ = false;
        error_ = message;
        return false;
      }
    }
  }
  if (labels_.empty()) chunk_first_series_ = num_series_;

  labels_.push_back(static_cast<int32_t>(label));
  lengths_.push_back(values.size());
  value_offsets_.push_back(values_.size());
  sidecar_offsets_.push_back(sidecar_.size());
  values_.insert(values_.end(), values.begin(), values.end());
  sidecar_.insert(sidecar_.end(), sidecar_scratch_.begin(),
                  sidecar_scratch_.end());
  ++num_series_;

  if (values_.size() * sizeof(double) >= options_.chunk_target_bytes) {
    return FlushChunk();
  }
  return true;
}

bool StoreWriter::FlushChunk() {
  if (labels_.empty()) return true;
  const uint64_t count = labels_.size();

  ChunkDirEntry entry;
  entry.offset = file_offset_;
  entry.first_series = chunk_first_series_;
  entry.num_series = count;
  entry.bytes = ChunkColumnBytes(count) +
                8 * (values_.size() + sidecar_.size());

  const uint64_t payload_sizes[2] = {values_.size(), sidecar_.size()};
  if (!WriteRaw(payload_sizes, sizeof(payload_sizes))) return false;
  if (!WriteRaw(labels_.data(), count * sizeof(int32_t))) return false;
  // Pad the label column to 8 bytes so every later section stays aligned.
  const uint64_t label_pad = (count * 4 + 7) / 8 * 8 - count * 4;
  const char zeros[8] = {0};
  if (label_pad != 0 && !WriteRaw(zeros, label_pad)) return false;
  if (!WriteRaw(lengths_.data(), count * 8)) return false;
  if (!WriteRaw(value_offsets_.data(), count * 8)) return false;
  if (!WriteRaw(sidecar_offsets_.data(), count * 8)) return false;
  if (!WriteRaw(values_.data(), values_.size() * 8)) return false;
  if (!WriteRaw(sidecar_.data(), sidecar_.size() * 8)) return false;

  directory_.push_back(entry);
  labels_.clear();
  lengths_.clear();
  value_offsets_.clear();
  sidecar_offsets_.clear();
  values_.clear();
  sidecar_.clear();
  return true;
}

bool StoreWriter::Finish() {
  if (!ok_ || finished_) return false;
  if (num_series_ == 0) {
    ok_ = false;
    error_ = "no series appended";
    return false;
  }
  if (!FlushChunk()) return false;
  finished_ = true;

  SegmentHeader header;
  header.num_series = num_series_;
  header.num_chunks = directory_.size();
  header.directory_offset = file_offset_;
  header.chunk_target_bytes = options_.chunk_target_bytes;
  if (!WriteRaw(directory_.data(),
                directory_.size() * sizeof(ChunkDirEntry))) {
    return false;
  }
  header.file_bytes = file_offset_;

  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out_.flush();
  if (!out_) {
    ok_ = false;
    error_ = "header rewrite failure";
    return false;
  }
  return true;
}

bool WriteDatasetToStore(const ips::DatasetView& data, const std::string& path,
                         const StoreWriter::Options& options,
                         std::string* error) {
  StoreWriter writer(path, options);
  bool ok = writer.ok();
  if (ok) {
    data.ForEachChunk([&](size_t, std::span<const ips::SeriesView> chunk) {
      for (const ips::SeriesView& t : chunk) {
        if (!writer.Append(t.values, t.label)) ok = false;
      }
    });
  }
  ok = ok && writer.Finish();
  if (!ok && error != nullptr) *error = writer.error();
  return ok;
}

}  // namespace ips::store
