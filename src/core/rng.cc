#include "core/rng.h"

#include <cmath>

#include <algorithm>
#include <numeric>
#include <random>

#include "util/check.h"

namespace ips {

namespace {

constexpr size_t kShift = 156;  // MT19937-64's middle word distance m
constexpr uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

// One twist step: the upper bit of `word`, the lower 31 of `next`, folded
// into `middle`. The matrix is applied through a mask, not a branch.
uint64_t Twist(uint64_t word, uint64_t next, uint64_t middle) {
  const uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  return middle ^ (y >> 1) ^ ((uint64_t{0} - (y & 1)) & kMatrix);
}

uint64_t Temper(uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71d67fffeda60000ULL;
  z ^= (z << 37) & 0xfff7eee000000000ULL;
  return z ^ (z >> 43);
}

// generate_canonical<double, 53> over one 64-bit word: the correctly
// rounded double(u) -- exact as the sum of its two 32-bit halves, rounded
// once -- times 2^-64. A word that rounds up to 2^64 gives the largest
// double below 1, as libstdc++'s nextafter(1, 0) clamp does.
double Canonical(uint64_t u) {
  const double rounded =
      static_cast<double>(u >> 32) * 0x1p32 +
      static_cast<double>(static_cast<uint32_t>(u));
  return std::min(rounded * 0x1p-64, 0x1.fffffffffffffp-1);
}

// One rejection attempt of the polar method: x and y on [-1, 1) from two
// successive words, in that order, and r2 = x^2 + y^2. Only y is kept.
struct PolarAttempt {
  double y;
  double r2;
};

PolarAttempt Attempt(uint64_t first, uint64_t second) {
  const double x = 2.0 * Canonical(first) - 1.0;
  const double y = 2.0 * Canonical(second) - 1.0;
  return {y, x * x + y * y};
}

bool Accepted(double r2) { return r2 <= 1.0 && r2 != 0.0; }

double PolarScale(double r2) { return std::sqrt(-2 * std::log(r2) / r2); }

}  // namespace

Mt19937_64::Mt19937_64(uint64_t seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateWords; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Refill() {
  size_t i = 0;
  for (; i < kStateWords - kShift; ++i) {
    state_[i] = Twist(state_[i], state_[i + 1], state_[i + kShift]);
  }
  for (; i < kStateWords - 1; ++i) {
    state_[i] =
        Twist(state_[i], state_[i + 1], state_[i + kShift - kStateWords]);
  }
  state_[kStateWords - 1] =
      Twist(state_[kStateWords - 1], state_[0], state_[kShift - 1]);
  for (i = 0; i < kStateWords; ++i) block_[i] = Temper(state_[i]);
  next_ = 0;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  IPS_CHECK(lo <= hi);
  return std::uniform_int_distribution<int64_t>(lo, hi)(gen_);
}

size_t Rng::Index(size_t n) {
  IPS_CHECK(n > 0);
  return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
}

double Rng::Uniform(double lo, double hi) {
  return Canonical(gen_()) * (hi - lo) + lo;
}

double Rng::Gaussian(double mean, double stddev) {
  PolarAttempt attempt{};
  do {
    const uint64_t first = gen_();
    attempt = Attempt(first, gen_());
  } while (!Accepted(attempt.r2));
  return attempt.y * PolarScale(attempt.r2) * stddev + mean;
}

void Rng::FillGaussian(std::span<double> out, double mean, double stddev) {
  std::array<double, Mt19937_64::kStateWords / 2> r2s{};
  size_t k = 0;
  while (k < out.size()) {
    if (gen_.buffered() == 0) gen_.Refill();
    if (gen_.buffered() == 1) {  // the next pair straddles two blocks
      out[k++] = Gaussian(mean, stddev);
      continue;
    }
    // A rejection pass over the block's pairs, capped at the values still
    // missing so no pair after the last acceptance is drawn. Every pair is
    // written at slot `accepted`; only an accepted one advances it.
    const size_t pairs = std::min(gen_.buffered() / 2, out.size() - k);
    const uint64_t* words = gen_.peek();
    double* ys = out.data() + k;
    size_t accepted = 0;
    for (size_t p = 0; p < pairs; ++p) {
      const PolarAttempt attempt = Attempt(words[2 * p], words[2 * p + 1]);
      ys[accepted] = attempt.y;
      r2s[accepted] = attempt.r2;
      accepted += static_cast<size_t>(Accepted(attempt.r2));
    }
    gen_.Skip(2 * pairs);
    for (size_t i = 0; i < accepted; ++i) {
      ys[i] = ys[i] * PolarScale(r2s[i]) * stddev + mean;
    }
    k += accepted;
  }
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  IPS_CHECK(k <= n);
  // Partial Fisher-Yates over an index vector: O(n) setup, exact uniformity.
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), size_t{0});
  for (size_t i = 0; i < k; ++i) {
    std::swap(idx[i], idx[i + Index(n - i)]);
  }
  idx.resize(k);
  return idx;
}

std::vector<size_t> Rng::SampleWithReplacement(size_t n, size_t k) {
  IPS_CHECK(n > 0);
  std::vector<size_t> out(k);
  for (auto& v : out) v = Index(n);
  return out;
}

}  // namespace ips
