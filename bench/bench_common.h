// Shared infrastructure for the exp_* benchmark binaries, each of which
// regenerates one table or figure of the paper (see DESIGN.md §3).
//
// Every binary accepts:
//   --ucr_dir=<path>    load the real UCR Archive (2018 tsv layout) instead
//                       of the synthetic generator when the files exist
//   --full              run at the archive's real sizes (default: scaled
//                       down so the whole suite finishes in minutes)
//   --count_scale=<f>   override the train/test size factor
//   --length_scale=<f>  override the series length factor
//   --datasets=a,b,c    restrict to a comma-separated subset
//   --csv=<path>        also write the binary's main table as CSV
//   --json=<path>       also write the observability report (obs/export.h
//                       schema) where the binary supports it
//   --metric=<name>     run under a registered non-default distance metric
//                       (core/metric.h) where the binary supports it

#ifndef IPS_BENCH_BENCH_COMMON_H_
#define IPS_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <optional>
#include <string>
#include <vector>

#include "data/generator.h"
#include "data/ucr_catalog.h"
#include "data/ucr_loader.h"

namespace ips::bench {

/// Parsed command-line options.
struct BenchArgs {
  std::string ucr_dir;
  bool full = false;
  std::optional<double> count_scale;
  std::optional<double> length_scale;
  std::vector<std::string> datasets;
  /// When non-empty, the binary also writes its main table here as CSV.
  std::string csv_path;
  /// When non-empty, the binary also writes its observability report here
  /// (the obs/export.h JSON schema shared by every BENCH_*.json).
  std::string json_path;
  /// Registered metric name (core/metric.h) for binaries that support
  /// running under a non-default distance; empty means the default.
  std::string metric;
  /// --store_budget=BYTES routes the training set through an out-of-core
  /// columnar segment (store/columnar_store.h) with the given
  /// chunk-residency budget instead of discovering in-RAM. A storage
  /// choice only: no banner, must diff clean.
  std::optional<uint64_t> store_budget;
};

inline BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> std::optional<std::string> {
      const size_t len = std::strlen(prefix);
      if (arg.rfind(prefix, 0) == 0) return arg.substr(len);
      return std::nullopt;
    };
    if (arg == "--full") {
      args.full = true;
    } else if (auto v = value_of("--ucr_dir=")) {
      args.ucr_dir = *v;
    } else if (auto v = value_of("--count_scale=")) {
      args.count_scale = std::atof(v->c_str());
    } else if (auto v = value_of("--length_scale=")) {
      args.length_scale = std::atof(v->c_str());
    } else if (auto v = value_of("--csv=")) {
      args.csv_path = *v;
    } else if (auto v = value_of("--json=")) {
      args.json_path = *v;
    } else if (auto v = value_of("--metric=")) {
      args.metric = *v;
    } else if (auto v = value_of("--store_budget=")) {
      args.store_budget = static_cast<uint64_t>(std::atoll(v->c_str()));
    } else if (auto v = value_of("--datasets=")) {
      std::string rest = *v;
      size_t pos = 0;
      while (pos != std::string::npos) {
        const size_t comma = rest.find(',', pos);
        args.datasets.push_back(rest.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos));
        pos = comma == std::string::npos ? std::string::npos : comma + 1;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

/// The scale used for quick (default) runs: keeps the archive's relative
/// proportions while bounding every dataset to a tractable size.
inline CatalogScale QuickScale() {
  CatalogScale s;
  s.count_factor = 0.2;
  s.length_factor = 0.35;
  s.min_train = 12;
  s.max_train = 32;
  s.min_test = 20;
  s.max_test = 60;
  s.min_length = 64;
  s.max_length = 160;
  return s;
}

inline CatalogScale ScaleFor(const BenchArgs& args) {
  CatalogScale s = args.full ? CatalogScale{} : QuickScale();
  if (args.count_scale) s.count_factor = *args.count_scale;
  if (args.length_scale) s.length_factor = *args.length_scale;
  return s;
}

/// Loads `name` from the real archive when --ucr_dir is given and the files
/// exist; otherwise generates synthetic data from the (scaled) catalogue
/// entry. Exits when the name is not in the catalogue.
inline TrainTestSplit GetDataset(const std::string& name,
                                 const BenchArgs& args) {
  if (!args.ucr_dir.empty()) {
    if (auto real = LoadUcrDataset(args.ucr_dir, name)) {
      return std::move(*real);
    }
    std::fprintf(stderr,
                 "note: %s not found under %s; using synthetic data\n",
                 name.c_str(), args.ucr_dir.c_str());
  }
  const auto info = FindUcrDataset(name);
  if (!info) {
    std::fprintf(stderr, "unknown dataset: %s\n", name.c_str());
    std::exit(2);
  }
  const UcrDatasetInfo scaled = ScaleDataset(*info, ScaleFor(args));
  return GenerateDataset(SpecFromCatalog(scaled));
}

/// The datasets this run covers: --datasets if given, else `defaults`.
inline std::vector<std::string> SelectDatasets(
    const BenchArgs& args, const std::vector<std::string>& defaults) {
  return args.datasets.empty() ? defaults : args.datasets;
}

/// Names of all 46 paper-evaluated datasets (Tables IV/VI order).
inline std::vector<std::string> AllPaperDatasets() {
  std::vector<std::string> names;
  for (const auto& info : UcrCatalog()) {
    if (info.name == "MoteStrain") continue;  // Table II only
    names.push_back(info.name);
  }
  return names;
}

}  // namespace ips::bench

#endif  // IPS_BENCH_BENCH_COMMON_H_
