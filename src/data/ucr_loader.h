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

/// Row callback for ForEachUcrRow: the raw (file) class label and the
/// NaN-trimmed values of one series. The span aliases a buffer reused
/// between rows -- copy what must outlive the call. Return false to stop
/// the scan early (the scan still reports success).
using UcrRowFn =
    std::function<bool(double raw_label, std::span<const double> values)>;

/// Streams a split file row by row without materialising the dataset --
/// memory use is one row regardless of file size. This is the substrate
/// both for LoadUcrFile (in-RAM datasets) and the columnar-store importer
/// (src/store/ucr_import.h, bounded-memory conversion of files larger than
/// RAM). Values separated by tabs, commas or spaces are accepted; NaN
/// entries (variable-length padding) are trimmed from the tail of each
/// series. Returns false when the file is missing or any row is
/// unparsable, has no values, is all padding, or holds any other
/// non-finite value (an infinity, an interior NaN, a NaN label).
bool ForEachUcrRow(const std::string& path, const UcrRowFn& fn);

/// Loads one archive dataset. Returns nullopt when either split file is
/// missing or unparsable.
std::optional<TrainTestSplit> LoadUcrDataset(const std::string& archive_dir,
                                             const std::string& name);

/// Loads a single split file (one labelled series per line) into an in-RAM
/// Dataset. Two streaming passes (label scan, then build): peak memory is
/// the dataset itself plus one row, never a second copy of the file.
std::optional<Dataset> LoadUcrFile(const std::string& path);

/// Writes `data` as a single split file in the format LoadUcrFile reads:
/// one labelled series per line, tab-separated, label first, doubles at
/// max_digits10 so values round-trip bit-exactly. Dense non-negative
/// labels survive the loader's sorted remap unchanged, so a saved dataset
/// reloads identically -- the serving fixtures rely on this. Accepts any
/// DatasetView (in-RAM or store-backed). Returns false on I/O failure.
bool SaveUcrFile(const DatasetView& data, const std::string& path);

}  // namespace ips

#endif  // IPS_DATA_UCR_LOADER_H_
