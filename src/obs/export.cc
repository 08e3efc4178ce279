#include "obs/export.h"

#include <fstream>

#include "util/table_printer.h"

namespace ips::obs {

JsonValue TraceToJson(const TraceReport& report) {
  JsonValue spans = JsonValue::Array();
  for (const TraceSpan& span : report.spans) {
    JsonValue entry = JsonValue::Object();
    entry.Set("path", span.path);
    entry.Set("count", span.count);
    entry.Set("seconds", span.seconds);
    spans.Append(std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Set("spans", std::move(spans));
  return out;
}

std::optional<TraceReport> TraceFromJson(const JsonValue& json) {
  const JsonValue* spans = json.Find("spans");
  if (spans == nullptr || !spans->is_array()) return std::nullopt;
  TraceReport report;
  for (size_t i = 0; i < spans->size(); ++i) {
    const JsonValue& entry = spans->At(i);
    const JsonValue* path = entry.Find("path");
    if (path == nullptr || !path->is_string()) return std::nullopt;
    TraceSpan span;
    span.path = path->AsString();
    span.count = entry.Get("count").AsUint64();
    span.seconds = entry.Get("seconds").AsDouble();
    report.spans.push_back(std::move(span));
  }
  return report;
}

JsonValue MetricsToJson(const MetricsSnapshot& snapshot) {
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.Set(name, value);
  }
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, h] : snapshot.histograms) {
    JsonValue buckets = JsonValue::Array();
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      JsonValue bucket = JsonValue::Object();
      bucket.Set("ge", Histogram::BucketLowerBound(b));
      bucket.Set("count", h.buckets[b]);
      buckets.Append(std::move(bucket));
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("count", h.count);
    entry.Set("sum", h.sum);
    entry.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Set("counters", std::move(counters));
  out.Set("histograms", std::move(histograms));
  return out;
}

JsonValue HistogramStatsToJson(const HistogramSnapshot& snapshot) {
  JsonValue out = JsonValue::Object();
  out.Set("count", snapshot.count);
  out.Set("sum", snapshot.sum);
  out.Set("max", snapshot.max);
  out.Set("mean", snapshot.count == 0
                      ? 0.0
                      : static_cast<double>(snapshot.sum) /
                            static_cast<double>(snapshot.count));
  out.Set("p50", snapshot.ValueAtQuantile(0.5));
  out.Set("p99", snapshot.ValueAtQuantile(0.99));
  return out;
}

JsonValue ReportToJson(const TraceReport& trace,
                       const MetricsSnapshot& metrics) {
  JsonValue out = JsonValue::Object();
  out.Set("trace", TraceToJson(trace));
  out.Set("metrics", MetricsToJson(metrics));
  return out;
}

bool WriteJsonFile(const JsonValue& json, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << json.Dump(2) << '\n';
  return static_cast<bool>(out);
}

std::string FormatTraceTree(const TraceReport& report) {
  TablePrinter table;
  table.SetHeader({"span", "count", "seconds", "% of parent"});
  double top_level_total = 0.0;
  for (const TraceSpan& span : report.spans) {
    if (span.Depth() == 0) top_level_total += span.seconds;
  }
  for (const TraceSpan& span : report.spans) {
    // Parent totals: the longest strict path prefix present in the report.
    // Spans are path-sorted, so Find is a scan over an already-small list.
    double parent_seconds = top_level_total;
    const size_t slash = span.path.rfind('/');
    if (slash != std::string::npos) {
      if (const TraceSpan* parent = report.Find(span.path.substr(0, slash))) {
        parent_seconds = parent->seconds;
      } else {
        parent_seconds = 0.0;
      }
    }
    const std::string share =
        parent_seconds > 0.0
            ? TablePrinter::Num(100.0 * span.seconds / parent_seconds, 1)
            : "-";
    table.AddRow({std::string(2 * span.Depth(), ' ') + span.Leaf(),
                  std::to_string(span.count), TablePrinter::Num(span.seconds, 4),
                  share});
  }
  return table.ToString();
}

}  // namespace ips::obs
