#include "ips/serialization.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <unistd.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "core/metric.h"
#include "obs/export.h"

namespace ips {

namespace {

constexpr const char* kMagic = "ips-shapelets v1";
constexpr const char* kRunMagicPrefix = "ips-run v";

// "ips-run v2.0" -> {2, 0}; nullopt on any deviation.
std::optional<FormatVersion> ParseRunHeader(const std::string& line) {
  const std::string prefix(kRunMagicPrefix);
  if (line.rfind(prefix, 0) != 0) return std::nullopt;
  FormatVersion v;
  char trailing = '\0';
  const int fields = std::sscanf(line.c_str() + prefix.size(), "%d.%d%c",
                                 &v.major, &v.minor, &trailing);
  if (fields != 2 || v.major < 0 || v.minor < 0) return std::nullopt;
  return v;
}

// One "<key> <json>" line, or nullopt when the line does not start with
// `key` + space or the remainder is not valid JSON.
std::optional<obs::JsonValue> ParseTaggedJsonLine(const std::string& line,
                                                  const std::string& key) {
  const std::string prefix = key + " ";
  if (line.rfind(prefix, 0) != 0) return std::nullopt;
  return obs::JsonValue::Parse(line.substr(prefix.size()));
}

std::optional<double> ReadDouble(const obs::JsonValue& json,
                                 const std::string& key) {
  const obs::JsonValue* v = json.Find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->AsDouble();
}

std::optional<size_t> ReadCount(const obs::JsonValue& json,
                                const std::string& key) {
  const obs::JsonValue* v = json.Find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  const double d = v->AsDouble();
  if (d < 0.0 || d != static_cast<double>(static_cast<uint64_t>(d))) {
    return std::nullopt;
  }
  return static_cast<size_t>(d);
}

}  // namespace

std::string SerializeShapelets(const std::vector<Subsequence>& shapelets) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << kMagic << '\n' << shapelets.size() << '\n';
  for (const Subsequence& s : shapelets) {
    out << s.label << ' ' << s.series_index << ' ' << s.start << ' '
        << s.length();
    for (double v : s.values) out << ' ' << v;
    out << '\n';
  }
  return out.str();
}

std::optional<std::vector<Subsequence>> DeserializeShapelets(
    const std::string& text) {
  std::istringstream in(text);
  std::string magic;
  std::getline(in, magic);
  if (magic != kMagic) return std::nullopt;

  size_t count = 0;
  if (!(in >> count)) return std::nullopt;
  // Declared sizes are bounded by the bytes actually present before any
  // allocation happens: every shapelet needs at least one line and every
  // value at least two characters, so a header declaring more than the
  // remaining text could ever hold is corrupt (a bit-flipped or hostile
  // count must fail cleanly, not drive a multi-gigabyte resize).
  if (count > text.size()) return std::nullopt;

  std::vector<Subsequence> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Subsequence s;
    size_t length = 0;
    if (!(in >> s.label >> s.series_index >> s.start >> length)) {
      return std::nullopt;
    }
    if (length > text.size() / 2) return std::nullopt;
    s.values.resize(length);
    for (size_t j = 0; j < length; ++j) {
      if (!(in >> s.values[j])) return std::nullopt;
    }
    out.push_back(std::move(s));
  }
  return out;
}

bool SaveShapelets(const std::vector<Subsequence>& shapelets,
                   const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << SerializeShapelets(shapelets);
  return static_cast<bool>(out);
}

std::optional<std::vector<Subsequence>> LoadShapelets(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return DeserializeShapelets(buffer.str());
}

obs::JsonValue RunStatsToJson(const IpsRunStats& stats) {
  obs::JsonValue json = obs::JsonValue::Object();
  json.Set("candidate_gen_seconds", stats.candidate_gen_seconds);
  json.Set("dabf_build_seconds", stats.dabf_build_seconds);
  json.Set("pruning_seconds", stats.pruning_seconds);
  json.Set("selection_seconds", stats.selection_seconds);
  json.Set("transform_seconds", stats.transform_seconds);
  json.Set("backend_fit_seconds", stats.backend_fit_seconds);
  json.Set("motifs_generated", stats.motifs_generated);
  json.Set("discords_generated", stats.discords_generated);
  json.Set("motifs_after_prune", stats.motifs_after_prune);
  json.Set("discords_after_prune", stats.discords_after_prune);
  json.Set("shapelets", stats.shapelets);
  json.Set("profiles_computed", stats.profiles_computed);
  json.Set("profile_seconds", stats.profile_seconds);
  json.Set("mp_joins_computed", stats.mp_joins_computed);
  json.Set("mp_qt_sweeps", stats.mp_qt_sweeps);
  json.Set("mp_joins_halved", stats.mp_joins_halved);
  json.Set("pool_regions", stats.pool_regions);
  json.Set("pool_inline_regions", stats.pool_inline_regions);
  json.Set("pool_tasks_run", stats.pool_tasks_run);
  json.Set("pool_steals", stats.pool_steals);
  return json;
}

std::optional<IpsRunStats> RunStatsFromJson(const obs::JsonValue& json) {
  if (!json.is_object()) return std::nullopt;
  IpsRunStats s;

  const auto read_double = [&](const char* key, double& dst) {
    const std::optional<double> v = ReadDouble(json, key);
    if (v) dst = *v;
    return v.has_value();
  };
  const auto read_count = [&](const char* key, size_t& dst) {
    const std::optional<size_t> v = ReadCount(json, key);
    if (v) dst = *v;
    return v.has_value();
  };

  const bool ok =
      read_double("candidate_gen_seconds", s.candidate_gen_seconds) &&
      read_double("dabf_build_seconds", s.dabf_build_seconds) &&
      read_double("pruning_seconds", s.pruning_seconds) &&
      read_double("selection_seconds", s.selection_seconds) &&
      read_double("transform_seconds", s.transform_seconds) &&
      read_double("backend_fit_seconds", s.backend_fit_seconds) &&
      read_count("motifs_generated", s.motifs_generated) &&
      read_count("discords_generated", s.discords_generated) &&
      read_count("motifs_after_prune", s.motifs_after_prune) &&
      read_count("discords_after_prune", s.discords_after_prune) &&
      read_count("shapelets", s.shapelets) &&
      read_count("profiles_computed", s.profiles_computed) &&
      read_double("profile_seconds", s.profile_seconds) &&
      read_count("mp_joins_computed", s.mp_joins_computed) &&
      read_count("mp_qt_sweeps", s.mp_qt_sweeps) &&
      read_count("mp_joins_halved", s.mp_joins_halved) &&
      read_count("pool_regions", s.pool_regions) &&
      read_count("pool_inline_regions", s.pool_inline_regions) &&
      read_count("pool_tasks_run", s.pool_tasks_run) &&
      read_count("pool_steals", s.pool_steals);
  if (!ok) return std::nullopt;
  return s;
}

std::string SerializeRunResult(const RunResult& result) {
  std::ostringstream out;
  out << kRunMagicPrefix << kRunFormatVersion.major << '.'
      << kRunFormatVersion.minor << '\n';
  out << "metric " << MetricName(result.metric) << '\n';
  out << "stats " << RunStatsToJson(result.stats).Dump() << '\n';
  out << "trace " << obs::TraceToJson(result.trace).Dump() << '\n';
  out << SerializeShapelets(result.shapelets);
  return out.str();
}

std::optional<RunResult> DeserializeRunResult(const std::string& text,
                                              std::string* error) {
  const auto fail = [&](std::string reason) -> std::optional<RunResult> {
    if (error != nullptr) *error = std::move(reason);
    return std::nullopt;
  };
  if (error != nullptr) error->clear();

  std::istringstream in(text);
  std::string line;

  if (!std::getline(in, line)) return fail("empty artifact");
  const std::optional<FormatVersion> version = ParseRunHeader(line);
  // Any minor within a known major parses (minors only add fields the
  // loaders below ignore); an unknown major is a different format.
  if (!version || version->major != kRunFormatVersion.major) {
    return fail("unrecognised run header: \"" + line + "\"");
  }

  // v2.1 added the metric line; a v2.0 artifact predates selectable
  // metrics and so was implicitly z-normalised Euclidean.
  MetricId metric = MetricId::kZNormEuclidean;
  if (version->minor >= 1) {
    if (!std::getline(in, line)) return fail("truncated after header");
    constexpr const char* kMetricPrefix = "metric ";
    if (line.rfind(kMetricPrefix, 0) != 0) {
      return fail("v2.1 artifact is missing the metric line");
    }
    const std::string name = line.substr(std::string(kMetricPrefix).size());
    const MetricPolicy* policy = FindMetricByName(name);
    if (policy == nullptr) {
      // A metric this build does not register: the shapelet distances in
      // the artifact are meaningless here, so refuse rather than guess.
      return fail("run artifact uses unknown metric \"" + name + "\"");
    }
    metric = policy->id;
  }

  if (!std::getline(in, line)) return fail("truncated before stats");
  const std::optional<obs::JsonValue> stats_json =
      ParseTaggedJsonLine(line, "stats");
  if (!stats_json) return fail("malformed stats line");
  std::optional<IpsRunStats> stats = RunStatsFromJson(*stats_json);
  if (!stats) return fail("stats JSON is missing fields");

  if (!std::getline(in, line)) return fail("truncated before trace");
  const std::optional<obs::JsonValue> trace_json =
      ParseTaggedJsonLine(line, "trace");
  if (!trace_json) return fail("malformed trace line");
  std::optional<obs::TraceReport> trace = obs::TraceFromJson(*trace_json);
  if (!trace) return fail("trace JSON does not match the trace schema");

  std::ostringstream rest;
  rest << in.rdbuf();
  std::optional<std::vector<Subsequence>> shapelets =
      DeserializeShapelets(rest.str());
  if (!shapelets) return fail("malformed shapelet block");

  RunResult result;
  result.shapelets = std::move(*shapelets);
  result.metric = metric;
  result.stats = *stats;
  result.trace = std::move(*trace);
  return result;
}

bool SaveRunResult(const RunResult& result, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << SerializeRunResult(result);
  return static_cast<bool>(out);
}

std::optional<RunResult> LoadRunResult(const std::string& path,
                                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open \"" + path + "\"";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return DeserializeRunResult(buffer.str(), error);
}

std::optional<RunResult> LoadRunResultFromFd(int fd, std::string* error) {
  if (fd < 0) {
    if (error != nullptr) *error = "invalid file descriptor";
    return std::nullopt;
  }
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) {
        *error = std::string("read failed: ") + std::strerror(errno);
      }
      return std::nullopt;
    }
    text.append(buf, static_cast<size_t>(n));
  }
  return DeserializeRunResult(text, error);
}

}  // namespace ips
