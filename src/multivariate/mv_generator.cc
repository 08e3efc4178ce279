#include "multivariate/mv_generator.h"

#include <cmath>

#include <algorithm>
#include <numbers>
#include <vector>

#include "core/rng.h"
#include "util/check.h"

namespace ips {

namespace {

uint64_t HashName(const std::string& name) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// Class-characteristic waveform over t in [0, 1]: a frequency/phase-coded
// burst distinct per (class, slot).
double ClassShape(int cls, int slot, double t) {
  const double freq = 2.0 + static_cast<double>((cls * 3 + slot) % 5);
  const double phase = 0.37 * static_cast<double>(cls + slot);
  return std::sin(2.0 * std::numbers::pi * freq * t + phase) *
         std::sin(std::numbers::pi * t);
}

}  // namespace

MvTrainTestSplit GenerateMultivariateDataset(const MvGeneratorSpec& spec) {
  IPS_CHECK(spec.num_classes >= 2);
  IPS_CHECK(spec.num_channels >= 1);
  IPS_CHECK(spec.informative_channels >= 1);
  IPS_CHECK(spec.informative_channels <= spec.num_channels);
  IPS_CHECK(spec.length >= 16);
  const uint64_t seed = spec.seed != 0 ? spec.seed : HashName(spec.name);
  Rng rng(seed);

  // Per-class: which channels carry the pattern, at which anchor.
  struct ClassPlan {
    std::vector<size_t> channels;
    std::vector<double> anchors;  // fraction of the free range, per channel
  };
  std::vector<ClassPlan> plans(static_cast<size_t>(spec.num_classes));
  for (auto& plan : plans) {
    plan.channels =
        rng.SampleWithoutReplacement(spec.num_channels,
                                     spec.informative_channels);
    for (size_t i = 0; i < plan.channels.size(); ++i) {
      plan.anchors.push_back(rng.Uniform(0.1, 0.9));
    }
  }

  const size_t pattern_len = std::max<size_t>(8, spec.length / 5);

  auto make_series = [&](int label) {
    MultivariateTimeSeries out;
    out.label = label;
    out.channels.assign(spec.num_channels,
                        std::vector<double>(spec.length, 0.0));
    // Background noise on every channel.
    for (auto& channel : out.channels) {
      rng.FillGaussian(channel, 0.0, spec.noise);
    }
    // Class patterns on the class's informative channels.
    const ClassPlan& plan = plans[static_cast<size_t>(label)];
    for (size_t i = 0; i < plan.channels.size(); ++i) {
      const size_t c = plan.channels[i];
      const double free = static_cast<double>(spec.length - pattern_len);
      const double jitter = rng.Uniform(-0.04, 0.04) *
                            static_cast<double>(spec.length);
      const size_t offset = static_cast<size_t>(
          std::clamp(plan.anchors[i] * free + jitter, 0.0, free));
      const double amplitude = 1.5 * (1.0 + rng.Uniform(-0.2, 0.2));
      for (size_t j = 0; j < pattern_len; ++j) {
        const double t = static_cast<double>(j) /
                         static_cast<double>(pattern_len - 1);
        out.channels[c][offset + j] +=
            amplitude * ClassShape(label, static_cast<int>(i), t);
      }
    }
    return out;
  };

  MvTrainTestSplit split;
  for (size_t i = 0; i < spec.train_size; ++i) {
    split.train.Add(make_series(static_cast<int>(i) % spec.num_classes));
  }
  for (size_t i = 0; i < spec.test_size; ++i) {
    split.test.Add(make_series(static_cast<int>(i) % spec.num_classes));
  }
  return split;
}

}  // namespace ips
