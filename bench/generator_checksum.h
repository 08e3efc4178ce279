// FNV-1a checksums of generated datasets (labels plus the exact bit
// pattern of every value), and the golden checksums of the
// benchmark-shaped generator specs. Two splits hash equal iff, barring a
// collision, they hold the same labels and bitwise-equal values in order.
// generator_test pins every golden value; bench_store times the specs and
// gates its exit status on them.

#ifndef IPS_BENCH_GENERATOR_CHECKSUM_H_
#define IPS_BENCH_GENERATOR_CHECKSUM_H_

#include <cstdint>
#include <cstring>

#include <span>
#include <vector>

#include "data/generator.h"
#include "multivariate/mv_generator.h"

namespace ips::bench {

/// FNV-1a, fed one 64-bit word at a time (low byte first).
class Fnv1a {
 public:
  void Mix(uint64_t v) {
    for (int b = 0; b < 64; b += 8) {
      h_ ^= (v >> b) & 0xFF;
      h_ *= 1099511628211ULL;
    }
  }
  void MixLabel(int label) { Mix(static_cast<uint64_t>(label)); }
  void MixValues(std::span<const double> values) {
    Mix(values.size());
    for (const double v : values) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      Mix(bits);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

inline uint64_t SplitChecksum(const TrainTestSplit& split) {
  Fnv1a h;
  for (const Dataset* part : {&split.train, &split.test}) {
    h.Mix(part->size());
    for (size_t i = 0; i < part->size(); ++i) {
      h.MixLabel((*part)[i].label);
      h.MixValues((*part)[i].values);
    }
  }
  return h.value();
}

inline uint64_t SplitChecksum(const MvTrainTestSplit& split) {
  Fnv1a h;
  for (const MultivariateDataset* part : {&split.train, &split.test}) {
    h.Mix(part->size());
    for (size_t i = 0; i < part->size(); ++i) {
      h.MixLabel((*part)[i].label);
      for (const std::vector<double>& channel : (*part)[i].channels) {
        h.MixValues(channel);
      }
    }
  }
  return h.value();
}

/// A generator spec with the checksum its data must hash to.
struct GoldenSpec {
  GeneratorSpec spec;
  uint64_t checksum;
};

/// Specs shaped like perfbench's two workloads (classes, split sizes and
/// length), at a fixed seed.
inline std::vector<GoldenSpec> PerfbenchShapedSpecs() {
  GeneratorSpec short_series;
  short_series.name = "short_series";
  short_series.num_classes = 4;
  short_series.train_size = 400;
  short_series.test_size = 20000;
  short_series.length = 128;
  short_series.seed = 301;
  GeneratorSpec store_reload;
  store_reload.name = "store_reload";
  store_reload.num_classes = 8;
  store_reload.train_size = 2000;
  store_reload.test_size = 2000;
  store_reload.length = 256;
  store_reload.seed = 301;
  return {{short_series, 0x24993eac26091decULL},
          {store_reload, 0x4eacb4f4de839687ULL}};
}

}  // namespace ips::bench

#endif  // IPS_BENCH_GENERATOR_CHECKSUM_H_
