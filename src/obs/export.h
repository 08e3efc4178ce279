// Exporters for the observability layer: the machine-readable JSON schema
// shared by every BENCH_*.json artefact and saved run, and the
// human-readable span tree rendered through util/table_printer.
//
// JSON schema (docs/observability.md documents it in full):
//
//   trace:   {"spans": [{"path": "a/b", "count": N, "seconds": S}, ...]}
//   metrics: {"counters": {"name": N, ...},
//             "histograms": {"name": {"count": N, "sum": S,
//                            "buckets": [{"ge": LB, "count": N}, ...]}}}
//   report:  {"trace": <trace>, "metrics": <metrics>}
//
// Histogram buckets are emitted sparsely (zero buckets dropped); "ge" is
// the bucket's inclusive lower bound. TraceFromJson inverts TraceToJson so
// a saved run's trace block round-trips (ips/serialization).

#ifndef IPS_OBS_EXPORT_H_
#define IPS_OBS_EXPORT_H_

#include <optional>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ips::obs {

JsonValue TraceToJson(const TraceReport& report);
std::optional<TraceReport> TraceFromJson(const JsonValue& json);

JsonValue MetricsToJson(const MetricsSnapshot& snapshot);

/// One histogram as summary statistics rather than buckets:
///   {"count": N, "sum": S, "max": X, "mean": M, "p50": Q, "p99": Q}
/// (quantiles via HistogramSnapshot::ValueAtQuantile, so accurate to the
/// power-of-two bucket width). The per-model latency blocks of the serve
/// stats endpoint use this form; the full bucket form stays available
/// through MetricsToJson.
JsonValue HistogramStatsToJson(const HistogramSnapshot& snapshot);

/// {"trace": ..., "metrics": ...} -- the top-level run/benchmark schema.
JsonValue ReportToJson(const TraceReport& trace,
                       const MetricsSnapshot& metrics);

/// Writes `json.Dump(2)` plus a trailing newline. False on I/O failure.
bool WriteJsonFile(const JsonValue& json, const std::string& path);

/// Renders the report as an aligned tree table: one row per span path,
/// indented by nesting depth, with count, summed seconds, and each span's
/// share of its parent's time. Top-level spans show their share of the
/// summed top-level time instead.
std::string FormatTraceTree(const TraceReport& report);

}  // namespace ips::obs

#endif  // IPS_OBS_EXPORT_H_
