#include "store/ucr_import.h"

#include <map>

#include "data/ucr_loader.h"

namespace ips::store {

bool ImportUcrFileToStore(const std::string& ucr_path,
                          const std::string& store_path,
                          const StoreWriter::Options& options,
                          ImportResult* result, std::string* error) {
  // Labels must be dense before the first Append, so pass 1 reads only
  // them and pass 2 appends.
  std::map<double, int> label_map;
  if (!ips::ForEachUcrRow(ucr_path,
                          [&](double raw, std::span<const double>) {
                            label_map.emplace(raw, 0);
                            return true;
                          },
                          error)) {
    return false;
  }
  int next = 0;
  for (auto& [raw, dense] : label_map) dense = next++;

  StoreWriter writer(store_path, options);
  if (!writer.ok()) {
    if (error != nullptr) *error = writer.error();
    return false;
  }
  bool append_ok = true;
  std::string parse_error;
  if (!ips::ForEachUcrRow(ucr_path,
                          [&](double raw, std::span<const double> values) {
                            append_ok = writer.Append(values,
                                                      label_map.at(raw));
                            return append_ok;
                          },
                          &parse_error) ||
      !append_ok || !writer.Finish()) {
    if (error != nullptr) {
      *error = writer.error().empty() ? parse_error : writer.error();
    }
    return false;
  }
  if (result != nullptr) {
    result->series = writer.series_written();
    result->chunks = writer.chunks_written();
  }
  return true;
}

}  // namespace ips::store
