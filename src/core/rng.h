// Seeded random-number utilities. All stochastic components of the library
// (instance sampling, LSH projections, dataset generation) draw from an
// explicitly-seeded Rng so that every experiment is reproducible.
//
// Stream contract. The engine emits std::mt19937_64's sequence for the same
// seed. Uniform, Gaussian and FillGaussian are libstdc++'s algorithms
// written out over that sequence: generate_canonical<double, 53> (one word,
// RN(u) * 2^-64, clamped below 1), uniform_real_distribution
// (canonical * (hi - lo) + lo) and normal_distribution's Marsaglia polar
// method with a fresh distribution per call (the second value of each
// accepted pair is dropped). Their draws, and so the datasets that
// GenerateDataset and GenerateItalyPowerLike build from them alone, are
// fixed by the seed on any standard library. UniformInt (and Index, the
// samplers and Shuffle on top of it) still goes through
// std::uniform_int_distribution, so those draws follow the standard
// library's integer algorithm.

#ifndef IPS_CORE_RNG_H_
#define IPS_CORE_RNG_H_

#include <cstddef>
#include <cstdint>

#include <array>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace ips {

/// MT19937-64 that emits std::mt19937_64's sequence. It twists the whole
/// 312-word state at once, branch-free, and tempers it into an output
/// block, so a draw is a load. A UniformRandomBitGenerator.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr size_t kStateWords = 312;

  explicit Mt19937_64(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (next_ == kStateWords) Refill();
    return block_[next_++];
  }

 private:
  friend class Rng;  // FillGaussian reads the block in place.

  /// Twists the state into a fresh block of outputs.
  void Refill();

  /// Outputs left in the current block before the next twist.
  size_t buffered() const { return kStateWords - next_; }
  /// The next `buffered()` outputs; consume them with `Skip`.
  const result_type* peek() const { return block_.data() + next_; }
  void Skip(size_t count) { next_ += count; }

  std::array<result_type, kStateWords> state_;
  std::array<result_type, kStateWords> block_{};
  size_t next_ = kStateWords;
};

/// Seeded random source with the sampling helpers the library needs.
/// Copyable; copies continue the same stream independently.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : gen_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform size_t in [0, n). Requires n > 0.
  size_t Index(size_t n);

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal draw scaled to N(mean, stddev^2).
  double Gaussian(double mean = 0.0, double stddev = 1.0);

  /// Fills `out` with exactly the values of out.size() successive
  /// Gaussian(mean, stddev) calls, leaving the stream where they would.
  void FillGaussian(std::span<double> out, double mean = 0.0,
                    double stddev = 1.0);

  /// k distinct indices drawn uniformly from [0, n). Requires k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// k indices drawn uniformly from [0, n), repeats allowed.
  std::vector<size_t> SampleWithReplacement(size_t n, size_t k);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[Index(i)]);
    }
  }

 private:
  Mt19937_64 gen_;
};

}  // namespace ips

#endif  // IPS_CORE_RNG_H_
