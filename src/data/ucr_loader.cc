#include "data/ucr_loader.h"

#include <cmath>

#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

namespace ips {

namespace {

// Splits a line on tabs/commas/spaces into doubles; returns false on parse
// failure of a non-empty token, on an infinity, and on a NaN that a number
// follows. So the only NaNs it keeps are trailing padding, which the caller
// trims, and every other value -- the label included -- is finite.
bool ParseLine(const std::string& line, std::vector<double>& out) {
  out.clear();
  std::string token;
  std::string normalized = line;
  for (char& c : normalized) {
    if (c == '\t' || c == ',') c = ' ';
  }
  std::istringstream fields(normalized);
  bool padding = false;  // a NaN has been read
  while (fields >> token) {
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') return false;
    if (std::isnan(value)) {
      padding = true;
    } else if (padding || std::isinf(value)) {
      return false;
    }
    out.push_back(value);
  }
  return true;
}

}  // namespace

bool ForEachUcrRow(const std::string& path, const UcrRowFn& fn) {
  std::ifstream in(path);
  if (!in) return false;

  std::string line;
  std::vector<double> fields;
  bool any = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!ParseLine(line, fields) || fields.size() < 2) return false;
    // Trim trailing NaN padding (variable-length datasets) in place; the
    // callback sees [label | values...] of the reused buffer.
    size_t end = fields.size();
    while (end > 1 && std::isnan(fields[end - 1])) --end;
    if (end < 2) return false;
    any = true;
    if (!fn(fields.front(),
            std::span<const double>(fields.data() + 1, end - 1))) {
      return true;
    }
  }
  return any;
}

std::optional<Dataset> LoadUcrFile(const std::string& path) {
  // Pass 1: raw labels only, remapped densely in sorted order.
  std::map<double, int> label_map;
  if (!ForEachUcrRow(path, [&](double raw, std::span<const double>) {
        label_map.emplace(raw, 0);
        return true;
      })) {
    return std::nullopt;
  }
  int next = 0;
  for (auto& [raw, dense] : label_map) dense = next++;

  // Pass 2: build the dataset with final labels.
  Dataset out;
  if (!ForEachUcrRow(path, [&](double raw, std::span<const double> values) {
        out.Add(TimeSeries(std::vector<double>(values.begin(), values.end()),
                           label_map.at(raw)));
        return true;
      })) {
    return std::nullopt;
  }
  return out;
}

bool SaveUcrFile(const DatasetView& data, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(std::numeric_limits<double>::max_digits10);
  for (size_t i = 0; i < data.size(); ++i) {
    const SeriesView t = data.At(i);
    out << t.label;
    for (double v : t.values) out << '\t' << v;
    out << '\n';
  }
  return static_cast<bool>(out);
}

std::optional<TrainTestSplit> LoadUcrDataset(const std::string& archive_dir,
                                             const std::string& name) {
  const std::string base = archive_dir + "/" + name + "/" + name;
  auto train = LoadUcrFile(base + "_TRAIN.tsv");
  if (!train) return std::nullopt;
  auto test = LoadUcrFile(base + "_TEST.tsv");
  if (!test) return std::nullopt;
  TrainTestSplit split;
  split.train = std::move(*train);
  split.test = std::move(*test);
  return split;
}

}  // namespace ips
