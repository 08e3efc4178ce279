#include "data/generator.h"

#include <cmath>

#include <algorithm>
#include <map>
#include <numbers>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "util/check.h"

namespace ips {

namespace {

// ------------------------------------------------------------- shape bank

/// Parametric local waveforms; `t` runs over [0, 1].
enum class ShapeKind {
  kGaussianBump,
  kSineBurst,
  kSquarePulse,
  kChirp,
  kDampedSine,
  kTriangle,
  kDoubleBump,
  kSawtooth,
  kNumKinds,
};

constexpr int kNumShapeKinds = static_cast<int>(ShapeKind::kNumKinds);

double ShapeValue(ShapeKind kind, double t, double phase) {
  constexpr double kPi = std::numbers::pi;
  switch (kind) {
    case ShapeKind::kGaussianBump: {
      const double c = 0.35 + 0.3 * phase;
      return std::exp(-std::pow((t - c) / 0.12, 2.0));
    }
    case ShapeKind::kSineBurst:
      return std::sin(2.0 * kPi * (2.0 + 2.0 * phase) * t) *
             std::sin(kPi * t);
    case ShapeKind::kSquarePulse:
      return (t > 0.25 + 0.2 * phase && t < 0.75) ? 1.0 : -0.2;
    case ShapeKind::kChirp:
      return std::sin(2.0 * kPi * t * (1.0 + (3.0 + 2.0 * phase) * t)) *
             std::sin(kPi * t);
    case ShapeKind::kDampedSine:
      return std::exp(-3.0 * t) *
             std::sin(2.0 * kPi * (3.0 + phase) * t);
    case ShapeKind::kTriangle: {
      const double peak = 0.3 + 0.4 * phase;
      return t < peak ? t / peak : (1.0 - t) / (1.0 - peak);
    }
    case ShapeKind::kDoubleBump: {
      const double gap = 0.25 + 0.2 * phase;
      return std::exp(-std::pow((t - 0.3) / 0.08, 2.0)) +
             0.8 * std::exp(-std::pow((t - 0.3 - gap) / 0.08, 2.0));
    }
    case ShapeKind::kSawtooth: {
      const double cycles = 2.0 + 2.0 * phase;
      const double x = t * cycles;
      return 2.0 * (x - std::floor(x)) - 1.0;
    }
    case ShapeKind::kNumKinds:
      break;
  }
  return 0.0;
}

struct PatternTemplate {
  ShapeKind kind;
  double phase;      // shape parameter in [0, 1)
  double amplitude;  // base amplitude
  double anchor;     // nominal offset as a fraction of the free range
};

uint64_t HashName(const std::string& name) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// Draws the series of one GenerateDataset call from its Rng. It owns the
// call's pattern bank, the distractor, the unit waveforms rendered so far
// and a noise buffer.
class SeriesMaker {
 public:
  // Builds the bank; its draws come first in the stream.
  SeriesMaker(const GeneratorSpec& spec, Rng& rng);

  // One series: background + class patterns + optional distractor + noise.
  TimeSeries Make(int label);

 private:
  // Adds `tmpl` under duration warp, amplitude and offset jitter.
  void Embed(const PatternTemplate& tmpl, std::vector<double>& values);

  // The unit-amplitude waveform of `tmpl` over `len` samples, rendered on
  // first use: an embedded pattern is it times the jittered amplitude.
  const std::vector<double>& UnitWaveform(const PatternTemplate& tmpl,
                                          size_t len);

  const GeneratorSpec& spec_;
  Rng& rng_;
  // Class c's patterns are bank_[c * per_class_, (c + 1) * per_class_).
  int per_class_;
  std::vector<PatternTemplate> bank_;
  PatternTemplate distractor_;
  std::map<std::tuple<ShapeKind, double, size_t>, std::vector<double>>
      waveforms_;
  std::vector<double> noise_;
};

SeriesMaker::SeriesMaker(const GeneratorSpec& spec, Rng& rng)
    : spec_(spec),
      rng_(rng),
      per_class_(std::clamp(spec.patterns_per_class, 1, 2)),
      bank_(static_cast<size_t>(spec.num_classes * per_class_)) {
  // Distinct (kind, phase) pairs so no two classes share a characteristic
  // waveform.
  for (size_t i = 0; i < bank_.size(); ++i) {
    PatternTemplate& tmpl = bank_[i];
    tmpl.kind = static_cast<ShapeKind>(i % kNumShapeKinds);
    // Classes that wrap around the shape bank get a distinct phase.
    tmpl.phase = std::fmod(
        0.17 * static_cast<double>(i) + rng.Uniform(0, 0.1), 1.0);
    tmpl.amplitude = 1.6 + rng.Uniform(-0.2, 0.2);
    tmpl.anchor = rng.Uniform(0.0, 1.0);
  }
  distractor_.kind = ShapeKind::kSineBurst;
  distractor_.phase = 0.9;
  distractor_.amplitude = 1.0;
  distractor_.anchor = rng.Uniform(0.0, 1.0);
}

TimeSeries SeriesMaker::Make(int label) {
  const size_t n = spec_.length;
  TimeSeries series;
  series.label = label;
  series.values.assign(n, 0.0);

  // Smoothed random-walk background.
  if (spec_.background_drift > 0.0) {
    rng_.FillGaussian(series.values, 0.0, spec_.background_drift / 10.0);
    double level = 0.0;
    for (double& v : series.values) {
      level += v;
      level *= 0.98;  // mean-revert so the walk stays bounded
      v = level;
    }
  }

  for (int p = 0; p < per_class_; ++p) {
    Embed(bank_[static_cast<size_t>(label * per_class_ + p)], series.values);
  }
  if (spec_.add_distractor) Embed(distractor_, series.values);

  noise_.resize(n);
  rng_.FillGaussian(noise_, 0.0, spec_.noise);
  for (size_t i = 0; i < n; ++i) series.values[i] += noise_[i];
  return series;
}

void SeriesMaker::Embed(const PatternTemplate& tmpl,
                        std::vector<double>& values) {
  const size_t n = values.size();
  const size_t base_len = std::max<size_t>(
      6, static_cast<size_t>(spec_.pattern_fraction *
                             static_cast<double>(n)));
  const double warp =
      1.0 + rng_.Uniform(-spec_.duration_warp, spec_.duration_warp);
  const size_t len = std::clamp<size_t>(
      static_cast<size_t>(static_cast<double>(base_len) * warp), 4, n);
  const double amplitude =
      tmpl.amplitude *
      (1.0 + rng_.Uniform(-spec_.amplitude_jitter, spec_.amplitude_jitter));
  const std::vector<double>& unit = UnitWaveform(tmpl, len);
  // Anchor position +/- jitter, clamped to the valid range.
  const double free = static_cast<double>(n - len);
  const double jitter =
      rng_.Uniform(-spec_.offset_jitter, spec_.offset_jitter) *
      static_cast<double>(n);
  const double pos = std::clamp(tmpl.anchor * free + jitter, 0.0, free);
  const size_t offset = static_cast<size_t>(pos);
  for (size_t i = 0; i < len && offset + i < n; ++i) {
    values[offset + i] += amplitude * unit[i];
  }
}

const std::vector<double>& SeriesMaker::UnitWaveform(
    const PatternTemplate& tmpl, size_t len) {
  std::vector<double>& out = waveforms_[{tmpl.kind, tmpl.phase, len}];
  if (out.empty()) {
    out.resize(len);
    for (size_t i = 0; i < len; ++i) {
      const double t = len > 1
                           ? static_cast<double>(i) /
                                 static_cast<double>(len - 1)
                           : 0.5;
      out[i] = ShapeValue(tmpl.kind, t, tmpl.phase);
    }
  }
  return out;
}

}  // namespace

TrainTestSplit GenerateDataset(const GeneratorSpec& spec) {
  IPS_CHECK(spec.num_classes >= 2);
  IPS_CHECK(spec.length >= 16);
  IPS_CHECK(spec.train_size >= static_cast<size_t>(spec.num_classes));
  const uint64_t seed = spec.seed != 0 ? spec.seed : HashName(spec.name);
  Rng rng(seed);
  SeriesMaker maker(spec, rng);

  TrainTestSplit split;
  for (size_t i = 0; i < spec.train_size; ++i) {
    split.train.Add(maker.Make(static_cast<int>(i) % spec.num_classes));
  }
  for (size_t i = 0; i < spec.test_size; ++i) {
    split.test.Add(maker.Make(static_cast<int>(i) % spec.num_classes));
  }
  return split;
}

GeneratorSpec SpecFromCatalog(const UcrDatasetInfo& info) {
  GeneratorSpec spec;
  spec.name = info.name;
  spec.num_classes = info.num_classes;
  spec.train_size = info.train_size;
  spec.test_size = info.test_size;
  spec.length = std::max<size_t>(info.length, 16);
  // Many-class datasets get one pattern per class so the shape bank does
  // not alias badly.
  spec.patterns_per_class = info.num_classes > 8 ? 1 : 2;
  // Benchmark datasets are deliberately harder than the unit-test default:
  // archive-like noise, positional jitter and warp keep the methods'
  // accuracies in the paper's discriminative range instead of saturating.
  spec.noise = 0.5;
  spec.amplitude_jitter = 0.3;
  spec.duration_warp = 0.15;
  spec.offset_jitter = 0.06;
  return spec;
}

TrainTestSplit GenerateItalyPowerLike(size_t train_size, size_t test_size,
                                      uint64_t seed) {
  constexpr size_t kHours = 24;
  Rng rng(seed);

  auto make_day = [&](int label) {
    TimeSeries day;
    day.label = label;
    day.values.resize(kHours);
    for (size_t h = 0; h < kHours; ++h) {
      const double t = static_cast<double>(h);
      // Base load with a mid-day plateau and an evening peak for everyone.
      double v = 0.6 + 0.25 * std::exp(-std::pow((t - 19.0) / 2.5, 2.0)) +
                 0.15 * std::exp(-std::pow((t - 13.0) / 4.0, 2.0));
      if (label == 1) {
        // Winter: pronounced morning heating ramp (hours 6-10) -- the
        // dominant class difference, as in the real ItalyPowerDemand data.
        v += 0.65 * std::exp(-std::pow((t - 8.0) / 2.0, 2.0));
      } else {
        // Summer: subtle afternoon cooling demand.
        v += 0.1 * std::exp(-std::pow((t - 15.0) / 3.0, 2.0));
      }
      v *= 1.0 + rng.Uniform(-0.06, 0.06);
      v += rng.Gaussian(0.0, 0.04);
      day.values[h] = v;
    }
    return day;
  };

  TrainTestSplit split;
  for (size_t i = 0; i < train_size; ++i) {
    split.train.Add(make_day(static_cast<int>(i % 2)));
  }
  for (size_t i = 0; i < test_size; ++i) {
    split.test.Add(make_day(static_cast<int>(i % 2)));
  }
  return split;
}

}  // namespace ips
