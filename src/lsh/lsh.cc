#include "lsh/lsh.h"

#include <cmath>

#include "core/rng.h"
#include "util/check.h"

namespace ips {

std::string LshSchemeName(LshScheme scheme) {
  switch (scheme) {
    case LshScheme::kL2PStable:
      return "L2";
    case LshScheme::kCosine:
      return "Cosine";
    case LshScheme::kHamming:
      return "Hamming";
  }
  return "Unknown";
}

namespace {

// Shared Gaussian projection matrix: rows are the a_i vectors.
std::vector<std::vector<double>> DrawGaussianDirections(size_t num_hashes,
                                                        size_t dim,
                                                        Rng& rng) {
  std::vector<std::vector<double>> dirs(num_hashes,
                                        std::vector<double>(dim));
  for (auto& row : dirs) rng.FillGaussian(row);
  return dirs;
}

double Dot(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

class PStableL2Lsh final : public LshFamily {
 public:
  PStableL2Lsh(size_t input_dim, size_t num_hashes, double bucket_width,
               uint64_t seed)
      : LshFamily(input_dim, num_hashes), width_(bucket_width) {
    IPS_CHECK(bucket_width > 0.0);
    Rng rng(seed);
    dirs_ = DrawGaussianDirections(num_hashes, input_dim, rng);
    offsets_.resize(num_hashes);
    for (auto& b : offsets_) b = rng.Uniform(0.0, bucket_width);
  }

  std::vector<double> Project(std::span<const double> x) const override {
    IPS_CHECK(x.size() == input_dim_);
    std::vector<double> out(num_hashes_);
    for (size_t i = 0; i < num_hashes_; ++i) out[i] = Dot(dirs_[i], x);
    return out;
  }

  std::vector<int64_t> HashKey(std::span<const double> x) const override {
    IPS_CHECK(x.size() == input_dim_);
    std::vector<int64_t> out(num_hashes_);
    for (size_t i = 0; i < num_hashes_; ++i) {
      out[i] = static_cast<int64_t>(
          std::floor((Dot(dirs_[i], x) + offsets_[i]) / width_));
    }
    return out;
  }

 private:
  double width_;
  std::vector<std::vector<double>> dirs_;
  std::vector<double> offsets_;
};

class CosineLsh final : public LshFamily {
 public:
  CosineLsh(size_t input_dim, size_t num_hashes, uint64_t seed)
      : LshFamily(input_dim, num_hashes) {
    Rng rng(seed);
    dirs_ = DrawGaussianDirections(num_hashes, input_dim, rng);
  }

  std::vector<double> Project(std::span<const double> x) const override {
    IPS_CHECK(x.size() == input_dim_);
    std::vector<double> out(num_hashes_);
    for (size_t i = 0; i < num_hashes_; ++i) out[i] = Dot(dirs_[i], x);
    return out;
  }

  std::vector<int64_t> HashKey(std::span<const double> x) const override {
    IPS_CHECK(x.size() == input_dim_);
    std::vector<int64_t> out(num_hashes_);
    for (size_t i = 0; i < num_hashes_; ++i) {
      out[i] = Dot(dirs_[i], x) >= 0.0 ? 1 : 0;
    }
    return out;
  }

 private:
  std::vector<std::vector<double>> dirs_;
};

class HammingLsh final : public LshFamily {
 public:
  HammingLsh(size_t input_dim, size_t num_hashes, uint64_t seed)
      : LshFamily(input_dim, num_hashes) {
    Rng rng(seed);
    positions_ = rng.SampleWithReplacement(input_dim, num_hashes);
  }

  std::vector<double> Project(std::span<const double> x) const override {
    IPS_CHECK(x.size() == input_dim_);
    // Binarised coordinates at the sampled positions; inputs are
    // z-normalised so 0 is the natural threshold.
    std::vector<double> out(num_hashes_);
    for (size_t i = 0; i < num_hashes_; ++i) {
      out[i] = x[positions_[i]] >= 0.0 ? 1.0 : 0.0;
    }
    return out;
  }

  std::vector<int64_t> HashKey(std::span<const double> x) const override {
    IPS_CHECK(x.size() == input_dim_);
    std::vector<int64_t> out(num_hashes_);
    for (size_t i = 0; i < num_hashes_; ++i) {
      out[i] = x[positions_[i]] >= 0.0 ? 1 : 0;
    }
    return out;
  }

 private:
  std::vector<size_t> positions_;
};

}  // namespace

std::unique_ptr<LshFamily> MakeLshFamily(const LshParams& params) {
  IPS_CHECK(params.input_dim >= 1);
  IPS_CHECK(params.num_hashes >= 1);
  switch (params.scheme) {
    case LshScheme::kL2PStable:
      return std::make_unique<PStableL2Lsh>(params.input_dim,
                                            params.num_hashes,
                                            params.bucket_width, params.seed);
    case LshScheme::kCosine:
      return std::make_unique<CosineLsh>(params.input_dim, params.num_hashes,
                                         params.seed);
    case LshScheme::kHamming:
      return std::make_unique<HammingLsh>(params.input_dim,
                                          params.num_hashes, params.seed);
  }
  return nullptr;
}

}  // namespace ips
