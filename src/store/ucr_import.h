// Streaming UCR -> ips-store conversion: two row-callback passes over the
// split file (data/ucr_loader.h), so peak memory is one chunk buffer plus
// one read block and one row no matter how large the input is. Pass 1
// collects raw labels and remaps them densely in sorted order (LoadUcrFile's
// convention, so a store import classifies identically to an in-RAM load);
// pass 2 appends each series to a StoreWriter.

#ifndef IPS_STORE_UCR_IMPORT_H_
#define IPS_STORE_UCR_IMPORT_H_

#include <string>

#include "store/store_writer.h"

namespace ips::store {

struct ImportResult {
  uint64_t series = 0;
  uint64_t chunks = 0;
};

/// Converts the UCR split file at `ucr_path` into a store segment at
/// `store_path`. Returns false with `*error` set on parse or I/O failure
/// (a partial output file may exist and should be discarded); a parse
/// error is ForEachUcrRow's, naming the file, line and field.
bool ImportUcrFileToStore(const std::string& ucr_path,
                          const std::string& store_path,
                          const StoreWriter::Options& options = {},
                          ImportResult* result = nullptr,
                          std::string* error = nullptr);

}  // namespace ips::store

#endif  // IPS_STORE_UCR_IMPORT_H_
