#include "data/ucr_loader.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include <fstream>
#include <map>
#include <vector>

namespace ips {

namespace {

// Tab and comma, plus what `istream >>` skips in the classic locale (a line
// holds no '\n').
bool IsSeparator(char c) {
  return c == ' ' || c == '\t' || c == ',' || c == '\r' || c == '\v' ||
         c == '\f';
}

// Converts the field at `first` (not a separator) into `value` and returns
// one past its end, or nullptr when it is not a number. from_chars takes
// the common spellings; whatever it leaves (a leading '+', a hex float, an
// out-of-range exponent, a stray byte) goes to strtod, which decides, so
// the accepted language and every value are strtod's.
const char* ParseField(const char* first, const char* last, double& value) {
  const auto [stop, ec] = std::from_chars(first, last, value);
  if (ec == std::errc() && (stop == last || IsSeparator(*stop))) return stop;
  const char* end = first;
  while (end != last && !IsSeparator(*end)) ++end;
  const std::string token(first, end);
  char* parsed = nullptr;
  value = std::strtod(token.c_str(), &parsed);
  if (parsed == token.c_str() || *parsed != '\0') return nullptr;
  return end;
}

// Parses the line [first, last) into `fields` = [label | values...] with
// the trailing NaN padding trimmed. Returns nullptr, or why the line fails
// with `field` set to the 1-based field at fault. The only NaNs a line may
// hold are trailing padding, and every other value -- the label included --
// must be finite.
const char* ParseRow(const char* first, const char* last,
                     std::vector<double>& fields, size_t& field) {
  fields.clear();
  bool padding = false;  // a NaN has been read
  for (const char* p = first;;) {
    while (p != last && IsSeparator(*p)) ++p;
    if (p == last) break;
    field = fields.size() + 1;
    double value;
    p = ParseField(p, last, value);
    if (p == nullptr) return "unparsable token";
    if (std::isnan(value)) {
      if (field == 1) return "NaN label";
      padding = true;
    } else if (padding) {
      return "value after NaN padding";
    } else if (std::isinf(value)) {
      return "infinity";
    }
    fields.push_back(value);
  }
  if (fields.size() < 2) {
    field = fields.size() + 1;
    return "no values";
  }
  while (std::isnan(fields.back())) fields.pop_back();  // the label is finite
  if (fields.size() < 2) {
    field = 2;
    return "all padding";
  }
  return nullptr;
}

// Sets *error (when given) to "PATH: REASON", or for a bad row (line > 0)
// "PATH: line L, field F: REASON"; returns false.
bool Fail(std::string* error, const std::string& path, const char* reason,
          size_t line = 0, size_t field = 0) {
  if (error != nullptr) {
    *error = path + ": ";
    if (line > 0) {
      *error += "line " + std::to_string(line) + ", field " +
                std::to_string(field) + ": ";
    }
    *error += reason;
  }
  return false;
}

}  // namespace

bool ForEachUcrRow(const std::string& path, const UcrRowFn& fn,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail(error, path, "cannot open");

  // [begin, end) of `block` is read but not yet parsed: whole lines, then
  // the start of the next one, which moves to the front before the next
  // read. The block grows only when one line fills it.
  std::vector<char> block(kUcrBlockBytes);
  size_t begin = 0;
  size_t end = 0;
  size_t line = 0;
  std::vector<double> fields;
  bool any = false;
  for (bool eof = false; !eof;) {
    std::memmove(block.data(), block.data() + begin, end - begin);
    end -= begin;
    begin = 0;
    if (end == block.size()) block.resize(2 * block.size());
    in.read(block.data() + end,
            static_cast<std::streamsize>(block.size() - end));
    end += static_cast<size_t>(in.gcount());
    if (in.bad()) return Fail(error, path, "read error");
    eof = in.eof();
    while (begin < end) {
      const char* first = block.data() + begin;
      const char* newline =
          static_cast<const char*>(std::memchr(first, '\n', end - begin));
      if (newline == nullptr && !eof) break;
      const char* last = newline != nullptr ? newline : block.data() + end;
      begin = static_cast<size_t>(last - block.data()) + 1;
      ++line;
      if (first == last) continue;
      size_t field = 0;
      if (const char* reason = ParseRow(first, last, fields, field)) {
        return Fail(error, path, reason, line, field);
      }
      any = true;
      if (!fn(fields.front(),
              std::span<const double>(fields.data() + 1, fields.size() - 1))) {
        return true;
      }
    }
  }
  return any || Fail(error, path, "no rows");
}

std::optional<Dataset> LoadUcrFile(const std::string& path,
                                   std::string* error) {
  std::vector<TimeSeries> series;
  std::vector<double> raw_labels;
  if (!ForEachUcrRow(
          path,
          [&](double raw, std::span<const double> values) {
            series.emplace_back(std::vector<double>(values.begin(),
                                                    values.end()),
                                0);
            raw_labels.push_back(raw);
            return true;
          },
          error)) {
    return std::nullopt;
  }
  // Raw labels remapped densely in sorted order.
  std::map<double, int> label_map;
  for (const double raw : raw_labels) label_map.emplace(raw, 0);
  int next = 0;
  for (auto& [raw, dense] : label_map) dense = next++;
  for (size_t i = 0; i < series.size(); ++i) {
    series[i].label = label_map.at(raw_labels[i]);
  }
  return Dataset(std::move(series));
}

bool SaveUcrFile(const DatasetView& data, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  std::string rows;  // written to `out` a block at a time
  char number[32];   // holds any double's shortest form (at most 24 chars)
  const auto put = [&](auto value) {
    rows.append(number,
                std::to_chars(number, number + sizeof(number), value).ptr);
  };
  for (size_t i = 0; i < data.size(); ++i) {
    const SeriesView t = data.At(i);
    put(t.label);
    for (const double v : t.values) {
      rows.push_back('\t');
      put(v);
    }
    rows.push_back('\n');
    if (rows.size() >= kUcrBlockBytes) {
      out.write(rows.data(), static_cast<std::streamsize>(rows.size()));
      rows.clear();
    }
  }
  out.write(rows.data(), static_cast<std::streamsize>(rows.size()));
  out.close();
  return !out.fail();
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
