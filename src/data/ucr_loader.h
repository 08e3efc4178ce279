// Loader for the UCR Archive's 2018 tab-separated format, so every
// experiment can be re-run on the real archive when it is available:
// <dir>/<Name>/<Name>_TRAIN.tsv and <Name>_TEST.tsv, one series per line,
// class label first. Labels are remapped to dense ids in [0, C).

#ifndef IPS_DATA_UCR_LOADER_H_
#define IPS_DATA_UCR_LOADER_H_

#include <functional>
#include <optional>
#include <span>
#include <string>

#include "data/generator.h"

namespace ips {

/// Bytes ForEachUcrRow reads per block; a line longer than this grows the
/// block buffer to fit it.
inline constexpr size_t kUcrBlockBytes = 64 * 1024;

/// Row callback for ForEachUcrRow: the raw (file) class label and the
/// NaN-trimmed values of one series. The span aliases a buffer reused
/// between rows -- copy what must outlive the call. Return false to stop
/// the scan early (the scan still reports success).
using UcrRowFn =
    std::function<bool(double raw_label, std::span<const double> values)>;

/// Streams a split file row by row in one pass without materialising the
/// dataset: the file is read in kUcrBlockBytes blocks and each field is
/// converted in place, so memory use is one block plus one row regardless
/// of file size. This is the substrate both for LoadUcrFile (in-RAM
/// datasets) and the columnar-store importer (src/store/ucr_import.h,
/// bounded-memory conversion of files larger than RAM).
///
/// Fields are separated by any run of tabs, commas, spaces, '\r', '\v' or
/// '\f', and each is a strtod number in the C locale. Empty lines are
/// skipped and the last line needs no '\n'. NaN entries (variable-length
/// padding) are trimmed from the tail of each series. Returns false when
/// the file cannot be read or holds no rows, or when any row has an
/// unparsable field, an infinity, a value after NaN padding, a NaN label,
/// no values, or only padding; `*error` (when given) then names the file
/// and, for a bad row, the 1-based line and field (field 1 is the label):
/// "PATH: line 7, field 3: infinity".
bool ForEachUcrRow(const std::string& path, const UcrRowFn& fn,
                   std::string* error = nullptr);

/// Loads one archive dataset. Returns nullopt when either split file is
/// missing or unparsable.
std::optional<TrainTestSplit> LoadUcrDataset(const std::string& archive_dir,
                                             const std::string& name);

/// Loads a single split file (one labelled series per line) into an in-RAM
/// Dataset in one ForEachUcrRow pass, then remaps the raw labels densely in
/// sorted order: peak memory is the dataset plus one double per row. On
/// failure returns nullopt with `*error` set as ForEachUcrRow sets it.
std::optional<Dataset> LoadUcrFile(const std::string& path,
                                   std::string* error = nullptr);

/// Writes `data` as a single split file in the format LoadUcrFile reads:
/// one labelled series per line, tab-separated, label first, each double
/// in the shortest form that parses back to the same bits (std::to_chars).
/// Dense non-negative labels survive the loader's sorted remap unchanged,
/// so a saved dataset reloads identically -- the serving fixtures rely on
/// this. Accepts any DatasetView (in-RAM or store-backed). Returns false
/// on I/O failure.
bool SaveUcrFile(const DatasetView& data, const std::string& path);

}  // namespace ips

#endif  // IPS_DATA_UCR_LOADER_H_
