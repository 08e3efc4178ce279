// Bitwise-identity property tests for the SIMD kernel layer (core/simd.h).
//
// On every backend the CPU supports, each dispatched kernel must produce
// output bit-for-bit equal to its scalar reference (simd::scalar::*) --
// and, where one exists, to the historic scalar loop it replaced -- over
// shapes that exercise that backend's remainder handling: counts of 1,
// width - 1, width, width + 1 and a spread of primes, with inputs that
// include flat (zero-variance) windows so the masked/blended lanes are hit
// too. Comparisons go through std::bit_cast so -0.0 vs +0.0 or NaN-payload
// drift would fail, not pass.

#include "core/simd.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/metric.h"
#include "core/rng.h"
#include "core/znorm.h"
#include "gtest/gtest.h"
#include "matrix_profile/stomp_common.h"
#include "simd_backends.h"

namespace ips {
namespace {

// Counts around the active backend's vector width plus primes; filtered to
// >= 1 and deduped.
std::vector<size_t> TestCounts() {
  const size_t kW = simd::Lanes();
  std::vector<size_t> counts = {1, 2, 3, 5, 7, 13, 31, 97, 257};
  if (kW > 1) {
    counts.push_back(kW - 1);
    counts.push_back(kW);
    counts.push_back(kW + 1);
    counts.push_back(4 * kW + 3);
  }
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// Gaussian data with occasional constant stretches so flat-window branches
// (stds below kFlatStdEpsilon) are exercised, not just the main path.
std::vector<double> RandomSeries(Rng& rng, size_t n, bool with_flats) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.Gaussian(0.0, 1.0);
  if (with_flats && n >= 8) {
    const size_t start = rng.Index(n / 2);
    const size_t len = 4 + rng.Index(n / 4);
    const double c = rng.Gaussian(0.0, 1.0);
    for (size_t i = start; i < std::min(n, start + len); ++i) x[i] = c;
  }
  return x;
}

void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << what << " diverges at index " << i << ": " << got[i] << " vs "
        << want[i];
  }
}

TEST(SimdBackendTest, WidthAndNameAreConsistent) {
  ForEachSimdBackend([] {
    const std::string name = simd::BackendName();
    EXPECT_EQ(name, simd::BackendName(simd::ActiveBackend()));
    if (name == "scalar") {
      EXPECT_EQ(simd::Lanes(), 1u);
    } else if (name == "sse2" || name == "neon") {
      EXPECT_EQ(simd::Lanes(), 2u);
    } else if (name == "avx2") {
      EXPECT_EQ(simd::Lanes(), 4u);
    } else {
      EXPECT_EQ(name, "avx512");
      EXPECT_EQ(simd::Lanes(), 8u);
    }
  });
}

// The start-up backend is the widest one the CPU supports: on x86-64,
// AVX-512 exactly when the CPU reports AVX-512F, else AVX2 exactly when it
// reports that. The scalar reference is always there.
TEST(SimdBackendTest, DefaultIsWidestSupported) {
  const std::span<const simd::Backend> supported = simd::SupportedBackends();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), simd::Backend::kScalar);
  EXPECT_EQ(simd::ActiveBackend(), supported.back());
  for (size_t i = 1; i < supported.size(); ++i) {
    ASSERT_TRUE(simd::UseBackend(supported[i - 1]));
    const size_t narrower = simd::Lanes();
    ASSERT_TRUE(simd::UseBackend(supported[i]));
    EXPECT_LT(narrower, simd::Lanes());
  }
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_cpu_init();
  const simd::Backend widest =
      __builtin_cpu_supports("avx512f") ? simd::Backend::kAvx512
      : __builtin_cpu_supports("avx2")  ? simd::Backend::kAvx2
                                        : simd::Backend::kSse2;
  EXPECT_EQ(supported.back(), widest);
#elif defined(__aarch64__) && defined(__ARM_NEON)
  EXPECT_EQ(supported.back(), simd::Backend::kNeon);
#endif
  EXPECT_EQ(simd::ActiveBackend(), supported.back());
}

// A backend the CPU cannot run is refused and leaves the active one alone.
// Every CPU lacks at least one: x86 has no NEON, AArch64 no SSE2, AVX2 or
// AVX-512.
TEST(SimdBackendTest, UseBackendRejectsUnsupported) {
  const std::span<const simd::Backend> supported = simd::SupportedBackends();
  const simd::Backend before = simd::ActiveBackend();
  size_t rejected = 0;
  for (const simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kSse2, simd::Backend::kAvx2,
        simd::Backend::kAvx512, simd::Backend::kNeon}) {
    if (std::find(supported.begin(), supported.end(), backend) !=
        supported.end()) {
      continue;
    }
    EXPECT_FALSE(simd::UseBackend(backend)) << simd::BackendName(backend);
    EXPECT_EQ(simd::ActiveBackend(), before);
    ++rejected;
  }
  EXPECT_GE(rejected, 1u);
}

TEST(SimdKernelTest, SlidingDotsMatchesScalarAndHistoricLoop) {
  ForEachSimdBackend([] {
    Rng rng(7);
    // Besides the shared counts, reach every path of the register-blocked
    // loop (4 * width outputs per pass): one short of a block (the
    // one-vector and scalar loops), exactly one block, and then counts
    // that end on an overlapped last block -- one over one block (it
    // rewrites all but one output), one short of two, one over two, and
    // two blocks plus width + 1.
    const size_t kW = simd::Lanes();
    const size_t kBlock = 4 * kW;
    std::vector<size_t> counts = TestCounts();
    for (size_t c : {kBlock - 1, kBlock, kBlock + 1, 2 * kBlock - 1,
                     2 * kBlock + 1, 2 * kBlock + kW + 1}) {
      counts.push_back(c);
    }
    for (size_t count : counts) {
      for (size_t m : {size_t{1}, size_t{3}, size_t{16}, size_t{63}}) {
        const size_t n = count + m - 1;
        const std::vector<double> q = RandomSeries(rng, m, false);
        const std::vector<double> s = RandomSeries(rng, n, false);

        std::vector<double> got(count), ref(count), historic(count);
        simd::SlidingDots(q.data(), m, s.data(), n, got.data());
        simd::scalar::SlidingDots(q.data(), m, s.data(), n, ref.data());
        for (size_t i = 0; i < count; ++i) {
          double acc = 0.0;
          for (size_t j = 0; j < m; ++j) acc += q[j] * s[i + j];
          historic[i] = acc;
        }
        ExpectBitEqual(got, ref, "SlidingDots vs scalar");
        ExpectBitEqual(got, historic, "SlidingDots vs historic loop");
      }
    }
  });
}

TEST(SimdKernelTest, RawProfileAndMinMatchScalar) {
  ForEachSimdBackend([] {
    Rng rng(11);
    for (size_t count : TestCounts()) {
      const size_t m = 1 + rng.Index(8);
      const size_t n = count + m - 1;
      const std::vector<double> q = RandomSeries(rng, m, false);
      const std::vector<double> s = RandomSeries(rng, n, false);

      double qq = 0.0;
      for (double v : q) qq += v * v;
      std::vector<double> sq(n + 1, 0.0);
      for (size_t i = 0; i < n; ++i) sq[i + 1] = sq[i] + s[i] * s[i];
      std::vector<double> dots(count);
      simd::scalar::SlidingDots(q.data(), m, s.data(), n, dots.data());

      std::vector<double> got(count), ref(count), historic(count);
      simd::RawProfileFromDots(qq, sq.data(), m, dots.data(), count,
                               got.data());
      simd::scalar::RawProfileFromDots(qq, sq.data(), m, dots.data(), count,
                                       ref.data());
      const double md = static_cast<double>(m);
      for (size_t i = 0; i < count; ++i) {
        const double window_sq = sq[i + m] - sq[i];
        historic[i] = std::max(0.0, (qq - 2.0 * dots[i] + window_sq) / md);
      }
      ExpectBitEqual(got, ref, "RawProfileFromDots vs scalar");
      ExpectBitEqual(got, historic, "RawProfileFromDots vs historic loop");

      const double min_got = simd::RawMinFromDots(qq, sq.data(), m, dots.data(),
                                                  count);
      const double min_ref = simd::scalar::RawMinFromDots(qq, sq.data(), m,
                                                          dots.data(), count);
      const double min_hist =
          *std::min_element(historic.begin(), historic.end());
      EXPECT_EQ(std::bit_cast<uint64_t>(min_got),
                std::bit_cast<uint64_t>(min_ref));
      EXPECT_EQ(std::bit_cast<uint64_t>(min_got),
                std::bit_cast<uint64_t>(min_hist));
    }
  });
}

// RawMinFromDots divides once, after the minimum over numerators. Pinned on
// every backend to the per-entry form it replaced: the minimum of
// max(0, numerator / m) taken entry by entry. Numerators of both signs
// (dot products above the energy terms make them negative), counts below,
// at and around the vector width and 4 W, and NaN numerators, whose entries
// are max(0, NaN) = 0 under std::max.
TEST(SimdKernelTest, RawMinDividesOnceBitwiseThePerEntryMinimum) {
  ForEachSimdBackend([] {
    Rng rng(12);
    const size_t kW = simd::Lanes();
    std::vector<size_t> counts = {1, 2, 3, kW, 4 * kW - 1, 4 * kW + 1, 31};
    if (kW > 1) counts.push_back(kW - 1);
    for (size_t count : counts) {
      for (int variant = 0; variant < 3; ++variant) {
        SCOPED_TRACE("count=" + std::to_string(count) +
                     " variant=" + std::to_string(variant));
        const size_t m = 1 + rng.Index(7);
        const size_t n = count + m - 1;
        const std::vector<double> s = RandomSeries(rng, n, false);
        std::vector<double> sq(n + 1, 0.0);
        for (size_t i = 0; i < n; ++i) sq[i + 1] = sq[i] + s[i] * s[i];
        const double qq = 0.5 + std::abs(rng.Gaussian());
        std::vector<double> dots(count);
        for (double& d : dots) {
          // variant 0: mostly positive numerators; 1 and 2: about half of
          // them negative; 2 also has NaN numerators.
          const double scale = variant == 0 ? 0.2 : 4.0;
          d = rng.Gaussian(0.0, scale) * static_cast<double>(m);
          if (variant == 2 && rng.Index(3) == 0) {
            d = std::numeric_limits<double>::quiet_NaN();
          }
        }
        const double md = static_cast<double>(m);
        double per_entry = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < count; ++i) {
          const double window_sq = sq[i + m] - sq[i];
          per_entry = std::min(
              per_entry, std::max(0.0, (qq - 2.0 * dots[i] + window_sq) / md));
        }
        const double got =
            simd::RawMinFromDots(qq, sq.data(), m, dots.data(), count);
        const double ref =
            simd::scalar::RawMinFromDots(qq, sq.data(), m, dots.data(), count);
        EXPECT_EQ(std::bit_cast<uint64_t>(got),
                  std::bit_cast<uint64_t>(per_entry));
        EXPECT_EQ(std::bit_cast<uint64_t>(ref),
                  std::bit_cast<uint64_t>(per_entry));
      }
    }
  });
}

TEST(SimdKernelTest, ZNormProfileAndMinMatchScalarIncludingFlats) {
  ForEachSimdBackend([] {
    Rng rng(13);
    for (size_t count : TestCounts()) {
      for (bool query_flat : {false, true}) {
        const size_t m = 2 + rng.Index(6);
        const size_t n = count + m - 1;
        const std::vector<double> s = RandomSeries(rng, n, /*with_flats=*/true);
        const RollingStats stats = ComputeRollingStats(s, m);
        ASSERT_EQ(stats.stds.size(), count);
        std::vector<double> dots(count);
        for (double& v : dots) v = rng.Gaussian(0.0, static_cast<double>(m));

        std::vector<double> got(count), ref(count), historic(count);
        simd::ZNormProfileFromDots(dots.data(), stats.stds.data(), count, m,
                                   query_flat, got.data());
        simd::scalar::ZNormProfileFromDots(dots.data(), stats.stds.data(),
                                           count, m, query_flat, ref.data());
        const double md = static_cast<double>(m);
        for (size_t i = 0; i < count; ++i) {
          const double sig = stats.stds[i];
          const bool window_flat = sig < kFlatStdEpsilon;
          if (query_flat && window_flat) {
            historic[i] = 0.0;
          } else if (query_flat || window_flat) {
            historic[i] = std::sqrt(md);
          } else {
            historic[i] =
                std::sqrt(std::max(0.0, 2.0 * md - 2.0 * dots[i] / sig));
          }
        }
        ExpectBitEqual(got, ref, "ZNormProfileFromDots vs scalar");
        ExpectBitEqual(got, historic, "ZNormProfileFromDots vs historic loop");

        const double min_got = simd::ZNormMinFromDots(
            dots.data(), stats.stds.data(), count, m, query_flat);
        const double min_ref = simd::scalar::ZNormMinFromDots(
            dots.data(), stats.stds.data(), count, m, query_flat);
        const double min_hist =
            *std::min_element(historic.begin(), historic.end());
        EXPECT_EQ(std::bit_cast<uint64_t>(min_got),
                  std::bit_cast<uint64_t>(min_ref));
        EXPECT_EQ(std::bit_cast<uint64_t>(min_got),
                  std::bit_cast<uint64_t>(min_hist));
      }
    }
  });
}

TEST(SimdKernelTest, RollingMomentsMatchScalarIncludingFlats) {
  ForEachSimdBackend([] {
    Rng rng(17);
    for (size_t count : TestCounts()) {
      const size_t w = 2 + rng.Index(6);
      const size_t n = count + w - 1;
      const std::vector<double> x = RandomSeries(rng, n, /*with_flats=*/true);

      double gm = 0.0;
      for (double v : x) gm += v;
      gm /= static_cast<double>(n);
      std::vector<double> sum(n + 1, 0.0), sq(n + 1, 0.0);
      for (size_t i = 0; i < n; ++i) {
        const double c = x[i] - gm;
        sum[i + 1] = sum[i] + c;
        sq[i + 1] = sq[i] + c * c;
      }

      std::vector<double> means_got(count), stds_got(count);
      std::vector<double> means_ref(count), stds_ref(count);
      simd::RollingMomentsFromPrefix(sum.data(), sq.data(), count, w, gm,
                                     means_got.data(), stds_got.data());
      simd::scalar::RollingMomentsFromPrefix(sum.data(), sq.data(), count, w,
                                             gm, means_ref.data(),
                                             stds_ref.data());
      ExpectBitEqual(means_got, means_ref, "RollingMoments means vs scalar");
      ExpectBitEqual(stds_got, stds_ref, "RollingMoments stds vs scalar");

      // And against the public entry point that routes through the kernel.
      const RollingStats rs = ComputeRollingStats(x, w);
      ExpectBitEqual(means_got, rs.means,
                     "RollingMoments vs ComputeRollingStats");
      ExpectBitEqual(stds_got, rs.stds,
                     "RollingMoments vs ComputeRollingStats");
    }
  });
}

TEST(SimdKernelTest, QtRowAdvanceMatchesScalarAcrossChainedRows) {
  ForEachSimdBackend([] {
    Rng rng(19);
    for (size_t count : TestCounts()) {
      const size_t w = 3;
      const size_t rows = 5;
      const std::vector<double> a = RandomSeries(rng, rows + w - 1, false);
      const std::vector<double> b = RandomSeries(rng, count + w - 1, false);

      // Row 0 seed: dot products of a's first window against b's windows.
      std::vector<double> qt_got(count), qt_ref(count), qt_hist(count);
      simd::scalar::SlidingDots(a.data(), w, b.data(), b.size(), qt_got.data());
      qt_ref = qt_got;
      qt_hist = qt_got;

      const std::span<const double> av(a), bv(b);
      for (size_t i = 1; i < rows; ++i) {
        // Chained updates: errors would compound across rows if any lane
        // diverged, so the comparison after the loop is a strong check.
        simd::QtRowAdvance(qt_got.data(), count, b.data(), w, a[i - 1],
                           a[i + w - 1]);
        simd::scalar::QtRowAdvance(qt_ref.data(), count, b.data(), w, a[i - 1],
                                   a[i + w - 1]);
        for (size_t j = count; j-- > 1;) {
          qt_hist[j] = StompAdvance(qt_hist[j - 1], av, bv, i, j, w);
        }
        // The caller reseeds column 0 from cached products; replicate with the
        // true dot product so later rows keep chaining.
        double col0 = 0.0;
        for (size_t k = 0; k < w; ++k) col0 += a[i + k] * b[k];
        qt_got[0] = col0;
        qt_ref[0] = col0;
        qt_hist[0] = col0;
      }
      ExpectBitEqual(qt_got, qt_ref, "QtRowAdvance vs scalar");
      ExpectBitEqual(qt_got, qt_hist, "QtRowAdvance vs StompAdvance loop");
    }
  });
}

TEST(SimdKernelTest, StompRowDistancesMatchesScalarAndStompZNormDistance) {
  ForEachSimdBackend([] {
    Rng rng(23);
    for (size_t count : TestCounts()) {
      const size_t w = 4;
      const std::vector<double> b = RandomSeries(rng, count + w - 1,
                                                 /*with_flats=*/true);
      const RollingStats sb = ComputeRollingStats(b, w);
      ASSERT_EQ(sb.stds.size(), count);
      std::vector<double> qt(count);
      for (double& v : qt) v = rng.Gaussian(0.0, static_cast<double>(w));

      // Flat and non-flat row sides both matter: flat_a takes the early-out.
      const double mu_flat = 0.7;
      for (double sig_a : {1.3, 0.0}) {
        const double mu_a = sig_a == 0.0 ? mu_flat : -0.4;
        // The row kernel writes squares; their roots are the distances.
        std::vector<double> got(count), ref(count), squares(count),
            roots(count), distances(count);
        simd::StompRowDistances(qt.data(), sb.means.data(), sb.stds.data(),
                                count, w, mu_a, sig_a, got.data());
        simd::scalar::StompRowDistances(qt.data(), sb.means.data(),
                                        sb.stds.data(), count, w, mu_a, sig_a,
                                        ref.data());
        for (size_t j = 0; j < count; ++j) {
          squares[j] = StompZNormSquared(qt[j], w, mu_a, sig_a, sb.means[j],
                                         sb.stds[j]);
          roots[j] = std::sqrt(got[j]);
          distances[j] = StompZNormDistance(qt[j], w, mu_a, sig_a, sb.means[j],
                                            sb.stds[j]);
        }
        ExpectBitEqual(got, ref, "StompRowDistances vs scalar");
        ExpectBitEqual(got, squares, "StompRowDistances vs StompZNormSquared");
        ExpectBitEqual(roots, distances,
                       "sqrt of StompRowDistances vs StompZNormDistance");
      }
    }
  });
}

TEST(SimdKernelTest, SquaredEuclideanChainedMatchesHistoricLoop) {
  ForEachSimdBackend([] {
    Rng rng(29);
    for (size_t n : TestCounts()) {
      const std::vector<double> a = RandomSeries(rng, n, false);
      const std::vector<double> b = RandomSeries(rng, n, false);
      double s = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double d = a[i] - b[i];
        s += d * d;
      }
      const double got = simd::SquaredEuclideanChained(a.data(), b.data(), n);
      const double ref =
          simd::scalar::SquaredEuclideanChained(a.data(), b.data(), n);
      EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(s));
      EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(ref));
    }
  });
}

// ------------------------------------------------------- per-metric kernels

TEST(SimdKernelTest, L2ProfileAndMinMatchScalarAndHistoricLoop) {
  ForEachSimdBackend([] {
    Rng rng(31);
    for (size_t count : TestCounts()) {
      const size_t m = 1 + rng.Index(8);
      const size_t n = count + m - 1;
      const std::vector<double> q = RandomSeries(rng, m, false);
      const std::vector<double> s = RandomSeries(rng, n, false);

      double qq = 0.0;
      for (double v : q) qq += v * v;
      std::vector<double> sq(n + 1, 0.0);
      for (size_t i = 0; i < n; ++i) sq[i + 1] = sq[i] + s[i] * s[i];
      std::vector<double> dots(count);
      simd::scalar::SlidingDots(q.data(), m, s.data(), n, dots.data());

      std::vector<double> got(count), ref(count), historic(count);
      simd::L2ProfileFromDots(qq, sq.data(), m, dots.data(), count, got.data());
      simd::scalar::L2ProfileFromDots(qq, sq.data(), m, dots.data(), count,
                                      ref.data());
      for (size_t i = 0; i < count; ++i) {
        const double window_sq = sq[i + m] - sq[i];
        historic[i] = std::sqrt(std::max(0.0, qq - 2.0 * dots[i] + window_sq));
      }
      ExpectBitEqual(got, ref, "L2ProfileFromDots vs scalar");
      ExpectBitEqual(got, historic, "L2ProfileFromDots vs historic loop");

      const double min_got =
          simd::L2MinFromDots(qq, sq.data(), m, dots.data(), count);
      const double min_ref =
          simd::scalar::L2MinFromDots(qq, sq.data(), m, dots.data(), count);
      const double min_hist =
          *std::min_element(historic.begin(), historic.end());
      EXPECT_EQ(std::bit_cast<uint64_t>(min_got),
                std::bit_cast<uint64_t>(min_ref));
      EXPECT_EQ(std::bit_cast<uint64_t>(min_got),
                std::bit_cast<uint64_t>(min_hist));
    }
  });
}

// ZNormMinFromDots and L2MinFromDots take their minimum over squares and
// root it once; that must be bitwise the minimum of the rooted profile the
// *ProfileFromDots kernels write. Shapes: no entries, fewer entries than
// lanes, and rows long enough to run many vector blocks; flat query and
// flat windows for the z-normalised tail.
TEST(SimdKernelTest, MinFromDotsIsTheMinimumOfTheRootedProfile) {
  ForEachSimdBackend([] {
    Rng rng(43);
    const size_t lanes = simd::Lanes();
    std::vector<size_t> counts = {0, 1, 4099, 16 * lanes + 5};
    if (lanes > 1) counts.push_back(lanes - 1);
    for (size_t count : counts) {
      const size_t m = 3 + rng.Index(6);
      const size_t n = count + m - 1;
      const std::vector<double> s = RandomSeries(rng, n, /*with_flats=*/true);
      std::vector<double> dots(count);
      for (double& v : dots) v = rng.Gaussian(0.0, static_cast<double>(m));
      std::vector<double> profile(count);
      const auto min_of = [&] {
        double best = std::numeric_limits<double>::infinity();
        for (double d : profile) best = std::min(best, d);
        return best;
      };

      const RollingStats stats =
          count == 0 ? RollingStats{} : ComputeRollingStats(s, m);
      for (bool query_flat : {false, true}) {
        simd::ZNormProfileFromDots(dots.data(), stats.stds.data(), count, m,
                                   query_flat, profile.data());
        const double got = simd::ZNormMinFromDots(
            dots.data(), stats.stds.data(), count, m, query_flat);
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(min_of()))
            << "z-normalised, count " << count << ", query_flat " << query_flat;
      }

      double qq = 0.0;
      for (double v : RandomSeries(rng, m, false)) qq += v * v;
      std::vector<double> sq(n + 1, 0.0);
      for (size_t i = 0; i < n; ++i) sq[i + 1] = sq[i] + s[i] * s[i];
      simd::L2ProfileFromDots(qq, sq.data(), m, dots.data(), count,
                              profile.data());
      const double got =
          simd::L2MinFromDots(qq, sq.data(), m, dots.data(), count);
      EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(min_of()))
          << "L2, count " << count;
    }
  });
}


TEST(SimdKernelTest, CosineProfileAndMinMatchScalarIncludingFlats) {
  ForEachSimdBackend([] {
    Rng rng(37);
    for (size_t count : TestCounts()) {
      for (bool query_flat : {false, true}) {
        const size_t m = 2 + rng.Index(6);
        const size_t n = count + m - 1;
        // A zeroed stretch makes some window norms flat, so the blended
        // convention lanes (both -> 0, one -> 1) are exercised.
        std::vector<double> s = RandomSeries(rng, n, false);
        if (n >= 8) {
          const size_t start = rng.Index(n / 2);
          for (size_t i = start; i < std::min(n, start + m + 2); ++i) {
            s[i] = 0.0;
          }
        }
        const std::vector<double> q =
            query_flat ? std::vector<double>(m, 0.0) : RandomSeries(rng, m,
                                                                    false);

        double qq = 0.0;
        for (double v : q) qq += v * v;
        std::vector<double> sq(n + 1, 0.0);
        for (size_t i = 0; i < n; ++i) sq[i + 1] = sq[i] + s[i] * s[i];
        std::vector<double> dots(count);
        simd::scalar::SlidingDots(q.data(), m, s.data(), n, dots.data());

        std::vector<double> got(count), ref(count), historic(count);
        simd::CosineProfileFromDots(qq, sq.data(), m, dots.data(), count,
                                    got.data());
        simd::scalar::CosineProfileFromDots(qq, sq.data(), m, dots.data(),
                                            count, ref.data());
        const double qn = std::sqrt(qq);
        for (size_t i = 0; i < count; ++i) {
          const double wn = std::sqrt(sq[i + m] - sq[i]);
          const bool q_flat = qn < kFlatStdEpsilon;
          const bool w_flat = wn < kFlatStdEpsilon;
          if (q_flat && w_flat) {
            historic[i] = 0.0;
          } else if (q_flat || w_flat) {
            historic[i] = 1.0;
          } else {
            historic[i] = std::max(0.0, 1.0 - dots[i] / (qn * wn));
          }
        }
        ExpectBitEqual(got, ref, "CosineProfileFromDots vs scalar");
        ExpectBitEqual(got, historic, "CosineProfileFromDots vs historic loop");

        const double min_got =
            simd::CosineMinFromDots(qq, sq.data(), m, dots.data(), count);
        const double min_ref =
            simd::scalar::CosineMinFromDots(qq, sq.data(), m, dots.data(),
                                            count);
        const double min_hist =
            *std::min_element(historic.begin(), historic.end());
        EXPECT_EQ(std::bit_cast<uint64_t>(min_got),
                  std::bit_cast<uint64_t>(min_ref));
        EXPECT_EQ(std::bit_cast<uint64_t>(min_got),
                  std::bit_cast<uint64_t>(min_hist));
      }
    }
  });
}

TEST(SimdKernelTest, StompRowDistancesRawL2CosineMatchScalarAndHelpers) {
  ForEachSimdBackend([] {
    Rng rng(41);
    for (size_t count : TestCounts()) {
      const size_t w = 4;
      // Window energies of a series with a zeroed stretch: flat-norm lanes
      // for the cosine row alongside ordinary ones.
      std::vector<double> b = RandomSeries(rng, count + w - 1, false);
      if (b.size() >= 8) {
        const size_t start = rng.Index(b.size() / 2);
        for (size_t i = start; i < std::min(b.size(), start + w + 2); ++i) {
          b[i] = 0.0;
        }
      }
      const std::vector<double> energies = ComputeWindowEnergies(b, w);
      ASSERT_EQ(energies.size(), count);
      std::vector<double> qt(count);
      for (double& v : qt) v = rng.Gaussian(0.0, static_cast<double>(w));

      for (double ssq_a : {2.75, 0.0}) {
        std::vector<double> got(count), ref(count), historic(count);

        simd::StompRowDistancesRaw(qt.data(), energies.data(), count, w, ssq_a,
                                   got.data());
        simd::scalar::StompRowDistancesRaw(qt.data(), energies.data(), count, w,
                                           ssq_a, ref.data());
        for (size_t j = 0; j < count; ++j) {
          historic[j] = StompRawDistance(qt[j], w, ssq_a, energies[j]);
        }
        ExpectBitEqual(got, ref, "StompRowDistancesRaw vs scalar");
        ExpectBitEqual(got, historic,
                       "StompRowDistancesRaw vs StompRawDistance");

        // The L2 row writes squares; their roots are the distances.
        simd::StompRowDistancesL2(qt.data(), energies.data(), count, w, ssq_a,
                                  got.data());
        simd::scalar::StompRowDistancesL2(qt.data(), energies.data(), count, w,
                                          ssq_a, ref.data());
        std::vector<double> roots(count), distances(count);
        for (size_t j = 0; j < count; ++j) {
          historic[j] = StompL2Squared(qt[j], ssq_a, energies[j]);
          roots[j] = std::sqrt(got[j]);
          distances[j] = StompL2Distance(qt[j], ssq_a, energies[j]);
        }
        ExpectBitEqual(got, ref, "StompRowDistancesL2 vs scalar");
        ExpectBitEqual(got, historic, "StompRowDistancesL2 vs StompL2Squared");
        ExpectBitEqual(roots, distances,
                       "sqrt of StompRowDistancesL2 vs StompL2Distance");

        // The cosine row reads the column norms, rooted once by the caller.
        std::vector<double> norms(count);
        for (size_t j = 0; j < count; ++j) norms[j] = std::sqrt(energies[j]);
        simd::StompRowDistancesCosine(qt.data(), norms.data(), count, w, ssq_a,
                                      got.data());
        simd::scalar::StompRowDistancesCosine(qt.data(), norms.data(), count, w,
                                              ssq_a, ref.data());
        const double norm_a = std::sqrt(ssq_a);
        for (size_t j = 0; j < count; ++j) {
          historic[j] = StompCosineDistance(qt[j], norm_a,
                                            std::sqrt(energies[j]));
        }
        ExpectBitEqual(got, ref, "StompRowDistancesCosine vs scalar");
        ExpectBitEqual(got, historic,
                       "StompRowDistancesCosine vs StompCosineDistance");
      }
    }
  });
}

// ------------------------------------------------------ STOMP row min scan

constexpr size_t kNoIndex = static_cast<size_t>(-1);

struct HistoricRowMin {
  double value;
  size_t index;
};

// The serial two-sided scan RowSweep ran before StompRowMins, verbatim but
// for the offset: strict < on both sides, size_t indices.
HistoricRowMin HistoricRowMins(const std::vector<double>& dist,
                               size_t first_j, size_t row,
                               HistoricRowMin init,
                               std::vector<double>& col_val,
                               std::vector<size_t>& col_idx) {
  double best = init.value;
  size_t best_j = init.index;
  for (size_t k = 0; k < dist.size(); ++k) {
    const double d = dist[k];
    if (d < best) {
      best = d;
      best_j = first_j + k;
    }
    if (d < col_val[k]) {
      col_val[k] = d;
      col_idx[k] = row;
    }
  }
  return {best, best_j};
}

enum class RowMinCase {
  kRandom,       // distinct values, +inf / ties / finite values in col_val
  kTiedMinima,   // one minimum at several columns in different lanes
  kSignedZeros,  // -0.0 and +0.0 minima in a random order
  kNonFinite,    // NaN and +inf in dist, NaN in col_val
  kSeedKept,     // the self-join's finite seed, below every cell
  kSeedBeaten,   // the self-join's finite seed, inside the row's range
};

struct RowMinInput {
  std::vector<double> dist;
  std::vector<double> col_val;
  std::vector<size_t> col_idx;  // kNoIndex = no winner yet
  HistoricRowMin init{std::numeric_limits<double>::infinity(), kNoIndex};
};

// Columns count - 1, count - 1 - (lanes + 1), ...: every step moves one
// lane over, so equal values land in different lanes (and blocks), and the
// lowest column is placed last.
std::vector<size_t> SpreadColumns(size_t count, size_t lanes, size_t max) {
  std::vector<size_t> cols;
  for (size_t c = count; c > 0 && cols.size() < max;) {
    cols.push_back(c - 1);
    c = c > lanes + 1 ? c - (lanes + 1) : 0;
  }
  return cols;
}

RowMinInput MakeRowMinInput(Rng& rng, size_t count, size_t lanes,
                            RowMinCase kind) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  RowMinInput in;
  in.dist.resize(count);
  for (double& d : in.dist) d = 1.0 + std::abs(rng.Gaussian());
  in.col_val.resize(count);
  in.col_idx.assign(count, kNoIndex);
  for (size_t k = 0; k < count; ++k) {
    switch (rng.Index(3)) {
      case 0:
        in.col_val[k] = kInf;
        break;
      case 1:  // an equal value is never replaced
        in.col_val[k] = in.dist[k];
        in.col_idx[k] = rng.Index(50);
        break;
      default:
        in.col_val[k] = 1.0 + std::abs(rng.Gaussian());
        in.col_idx[k] = rng.Index(50);
        break;
    }
  }
  switch (kind) {
    case RowMinCase::kRandom:
      break;
    case RowMinCase::kTiedMinima:
      for (size_t c : SpreadColumns(count, lanes, 5)) in.dist[c] = 0.5;
      break;
    case RowMinCase::kSignedZeros:
      for (size_t c : SpreadColumns(count, lanes, 6)) {
        in.dist[c] = rng.Index(2) == 0 ? -0.0 : 0.0;
      }
      break;
    case RowMinCase::kNonFinite:
      for (size_t k = 0; k < count; ++k) {
        switch (rng.Index(4)) {
          case 0:
            in.dist[k] = kNaN;
            break;
          case 1:
            in.dist[k] = kInf;
            break;
          case 2:  // a small value a NaN column must still refuse
            in.dist[k] = 0.25;
            in.col_val[k] = kNaN;
            break;
          default:
            break;
        }
      }
      if (count > 0) in.dist[0] = kNaN;  // the first cell is never taken
      break;
    case RowMinCase::kSeedKept:  // nothing improves: index 7 is kept
      in.init = {0.5, 7};
      break;
    case RowMinCase::kSeedBeaten:
      in.init = {1.5, 7};
      break;
  }
  return in;
}

std::vector<size_t> RowMinCounts() {
  const size_t kW = simd::Lanes();
  std::vector<size_t> counts = {0,          1,          kW - 1,     kW,
                                kW + 1,     4 * kW - 1, 4 * kW + 1, 8 * kW + 3,
                                31,         97,         257};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

// Bitwise against the historic serial loop and the scalar reference: the
// row minimum's bits and column, every column value's bits and row.
TEST(SimdKernelTest, StompRowMinsMatchesScalarAndHistoricLoop) {
  ForEachSimdBackend([] {
    Rng rng(41);
    const auto to_index = [](double x) {
      return x < 0.0 ? kNoIndex : static_cast<size_t>(x);
    };
    const auto to_rows = [](const std::vector<size_t>& idx) {
      std::vector<double> rows(idx.size());
      for (size_t k = 0; k < idx.size(); ++k) {
        rows[k] = idx[k] == kNoIndex ? -1.0 : static_cast<double>(idx[k]);
      }
      return rows;
    };
    for (size_t count : RowMinCounts()) {
      for (RowMinCase kind :
           {RowMinCase::kRandom, RowMinCase::kTiedMinima,
            RowMinCase::kSignedZeros, RowMinCase::kNonFinite,
            RowMinCase::kSeedKept, RowMinCase::kSeedBeaten}) {
        SCOPED_TRACE("count=" + std::to_string(count) +
                     " case=" + std::to_string(static_cast<int>(kind)));
        const RowMinInput in =
            MakeRowMinInput(rng, count, simd::Lanes(), kind);
        const size_t first_j = rng.Index(100);
        const size_t row = rng.Index(1000);

        std::vector<double> hist_val = in.col_val;
        std::vector<size_t> hist_idx = in.col_idx;
        const HistoricRowMin hist =
            HistoricRowMins(in.dist, first_j, row, in.init, hist_val, hist_idx);

        const simd::RowMin init{in.init.value,
                                in.init.index == kNoIndex
                                    ? -1.0
                                    : static_cast<double>(in.init.index)};
        std::vector<double> got_val = in.col_val;
        std::vector<double> got_row = to_rows(in.col_idx);
        const simd::RowMin got = simd::StompRowMins(
            in.dist.data(), count, static_cast<double>(first_j),
            static_cast<double>(row), init, got_val.data(), got_row.data());
        std::vector<double> ref_val = in.col_val;
        std::vector<double> ref_row = to_rows(in.col_idx);
        const simd::RowMin ref = simd::scalar::StompRowMins(
            in.dist.data(), count, static_cast<double>(first_j),
            static_cast<double>(row), init, ref_val.data(), ref_row.data());

        EXPECT_EQ(std::bit_cast<uint64_t>(got.value),
                  std::bit_cast<uint64_t>(hist.value));
        EXPECT_EQ(to_index(got.index), hist.index);
        EXPECT_EQ(std::bit_cast<uint64_t>(got.value),
                  std::bit_cast<uint64_t>(ref.value));
        EXPECT_EQ(std::bit_cast<uint64_t>(got.index),
                  std::bit_cast<uint64_t>(ref.index));
        ExpectBitEqual(got_val, hist_val, "StompRowMins columns vs historic");
        ExpectBitEqual(got_val, ref_val, "StompRowMins columns vs scalar");
        ExpectBitEqual(got_row, ref_row, "StompRowMins rows vs scalar");
        for (size_t k = 0; k < count; ++k) {
          ASSERT_EQ(to_index(got_row[k]), hist_idx[k]) << "column " << k;
        }
      }
    }
  });
}

// ------------------------------------------------------ fused all-pairs row

// Counts below, at and above the width W and 4 W, plus longer rows.
std::vector<size_t> FusedCounts() {
  const size_t kW = simd::Lanes();
  std::vector<size_t> counts = {1,      2,      kW,         kW + 1,
                                4 * kW, 4 * kW + 1, 8 * kW + 3, 31,
                                97,     257};
  if (kW > 1) counts.push_back(kW - 1);
  if (kW > 1) counts.push_back(4 * kW - 1);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

enum class FusedCase {
  kRandom,     // ordinary rows
  kFlat,       // flat row window; columns at and just below the epsilon
  kEpsilon,    // the row window exactly at the epsilon (not flat)
  kNonFinite,  // huge values and non-finite QT / statistics / col_val
};

// The column side's statistics and one row window's, for every metric.
struct FusedStats {
  std::vector<double> means, stds, energies, norms;
  MetricCell row;
  MetricRowView View() const {
    return {means.data(), stds.data(), energies.data(), norms.data()};
  }
};

// The fused row pinned to the three passes it replaces: QtRowAdvance,
// qt[0] = seed, the metric's stomp_row and StompRowMins -- row minimum,
// column minima and the advanced QT row, bit for bit -- and to its scalar
// instantiation, for every metric on every backend. Row 0 (no advance) and
// later rows; flat rows and columns at kFlatStdEpsilon; QT rows and
// statistics holding +-inf and NaN (from huge but finite series values),
// whose cells every backend evaluates to the same bits; NaN and +inf in
// col_val, which a cell must never replace or must beat.
TEST(SimdKernelTest, StompRowFusedMatchesTheThreePassRowAndScalar) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double below = std::nextafter(kFlatStdEpsilon, 0.0);
  ForEachSimdBackend([&] {
    Rng rng(53);
    for (size_t count : FusedCounts()) {
      for (FusedCase kind : {FusedCase::kRandom, FusedCase::kFlat,
                             FusedCase::kEpsilon, FusedCase::kNonFinite}) {
        for (size_t row : {size_t{0}, size_t{1}, size_t{4}}) {
          const size_t w = 5;
          std::vector<double> b = RandomSeries(rng, count + w - 1, true);
          std::vector<double> a = RandomSeries(rng, row + w, false);
          if (kind == FusedCase::kNonFinite) {
            for (double& v : b) {
              if (rng.Index(4) == 0) v *= 1e200;
            }
            a[row + w - 1] = 3e200;
          }
          FusedStats st;
          const RollingStats rs = ComputeRollingStats(b, w);
          st.means = rs.means;
          st.stds = rs.stds;
          st.energies = ComputeWindowEnergies(b, w);
          st.norms.resize(count);
          for (size_t j = 0; j < count; ++j) {
            st.norms[j] = std::sqrt(st.energies[j]);
          }
          st.row = {rng.Gaussian(), 0.5 + std::abs(rng.Gaussian()),
                    1.0 + std::abs(rng.Gaussian())};
          std::vector<double> qt(count);
          for (double& v : qt) v = rng.Gaussian(0.0, static_cast<double>(w));
          std::vector<double> col_val(count);
          for (double& v : col_val) {
            v = rng.Index(3) == 0 ? kInf : std::abs(rng.Gaussian()) * 8.0;
          }
          switch (kind) {
            case FusedCase::kRandom:
              break;
            case FusedCase::kFlat:
            case FusedCase::kEpsilon:
              for (size_t j = 0; j < count; ++j) {
                if (rng.Index(3) != 0) continue;
                const double at = rng.Index(2) == 0 ? kFlatStdEpsilon : below;
                st.stds[j] = at;
                st.norms[j] = at;
              }
              st.row.std = kind == FusedCase::kFlat ? below : kFlatStdEpsilon;
              st.row.energy = kind == FusedCase::kFlat ? 0.0 : 1e-24;
              break;
            case FusedCase::kNonFinite:
              for (size_t j = 0; j < count; ++j) {
                switch (rng.Index(6)) {
                  case 0:
                    qt[j] = kInf;
                    break;
                  case 1:
                    qt[j] = -kInf;
                    break;
                  case 2:
                    qt[j] = kNaN;
                    break;
                  case 3:
                    st.energies[j] = kInf;
                    st.norms[j] = kInf;
                    st.stds[j] = kInf;
                    break;
                  case 4:
                    col_val[j] = kNaN;
                    break;
                  default:
                    break;
                }
              }
              st.row.energy = kInf;
              break;
          }
          simd::QtStep step;
          if (row > 0) {
            step = {true, b.data(), a[row - 1], a[row + w - 1],
                    rng.Gaussian()};
          }

          for (size_t m = 0; m < kMetricCount; ++m) {
            const MetricPolicy& policy = GetMetric(static_cast<MetricId>(m));
            SCOPED_TRACE(std::string(policy.name) +
                         " count=" + std::to_string(count) + " case=" +
                         std::to_string(static_cast<int>(kind)) +
                         " row=" + std::to_string(row));
            // The three-pass reference.
            std::vector<double> want_qt = qt;
            if (step.advance) {
              simd::QtRowAdvance(want_qt.data(), count, b.data(), w,
                                 step.a_head, step.a_tail);
              want_qt[0] = step.seed;
            }
            std::vector<double> dist(count);
            policy.kernels.stomp_row(want_qt.data(), st.View(), count, w,
                                     st.row, dist.data());
            std::vector<double> want_col = col_val;
            std::vector<double> col_row(count, -1.0);
            const simd::RowMin want = simd::StompRowMins(
                dist.data(), count, 0.0, static_cast<double>(row),
                {kInf, -1.0}, want_col.data(), col_row.data());

            std::vector<double> got_qt = qt;
            std::vector<double> got_col = col_val;
            const double got = policy.kernels.stomp_row_fused(
                got_qt.data(), count, w, step, st.View(), st.row,
                got_col.data());
            std::vector<double> ref_qt = qt;
            std::vector<double> ref_col = col_val;
            const double ref = policy.scalar_kernels.stomp_row_fused(
                ref_qt.data(), count, w, step, st.View(), st.row,
                ref_col.data());

            EXPECT_EQ(std::bit_cast<uint64_t>(got),
                      std::bit_cast<uint64_t>(want.value));
            EXPECT_EQ(std::bit_cast<uint64_t>(got),
                      std::bit_cast<uint64_t>(ref));
            ExpectBitEqual(got_qt, want_qt, "fused QT vs QtRowAdvance");
            ExpectBitEqual(got_qt, ref_qt, "fused QT vs scalar");
            ExpectBitEqual(got_col, want_col, "fused columns vs StompRowMins");
            ExpectBitEqual(got_col, ref_col, "fused columns vs scalar");
          }
        }
      }
    }
  });
}

// Every row kernel equals its scalar reference on huge but finite series
// values: QT, energies and statistics overflow to +-inf, and the cells'
// intermediates turn NaN, which Max(+0, NaN) maps to +0 in a vector lane
// and in the scalar tail alike (Ops::Max is the scalar selection on every
// backend).
TEST(SimdKernelTest, StompRowsMatchScalarOnOverflowingInput) {
  ForEachSimdBackend([] {
    Rng rng(59);
    for (size_t count : TestCounts()) {
      const size_t w = 4;
      std::vector<double> b = RandomSeries(rng, count + w - 1, false);
      for (double& v : b) v *= 1e200;
      const RollingStats rs = ComputeRollingStats(b, w);
      const std::vector<double> energies = ComputeWindowEnergies(b, w);
      std::vector<double> norms(count);
      for (size_t j = 0; j < count; ++j) norms[j] = std::sqrt(energies[j]);
      std::vector<double> qt(count);
      simd::scalar::SlidingDots(b.data(), w, b.data(), b.size(), qt.data());
      const MetricRowView view{rs.means.data(), rs.stds.data(),
                               energies.data(), norms.data()};
      const MetricCell cell{rs.means[0], rs.stds[0], energies[0]};
      for (size_t m = 0; m < kMetricCount; ++m) {
        const MetricPolicy& policy = GetMetric(static_cast<MetricId>(m));
        SCOPED_TRACE(std::string(policy.name) +
                     " count=" + std::to_string(count));
        std::vector<double> got(count), ref(count);
        policy.kernels.stomp_row(qt.data(), view, count, w, cell, got.data());
        policy.scalar_kernels.stomp_row(qt.data(), view, count, w, cell,
                                        ref.data());
        ExpectBitEqual(got, ref, "stomp_row vs scalar on overflow");
      }
    }
  });
}

// The per-query reference of one SlidingMinGroup query: the scalar sliding
// dot products, then the tail's scalar min kernel.
double PerQueryMin(simd::MinTail tail, const double* q, double qq, size_t m,
                   const std::vector<double>& s, const double* stds,
                   const double* sqp) {
  const size_t count = s.size() - m + 1;
  std::vector<double> dots(count);
  simd::scalar::SlidingDots(q, m, s.data(), s.size(), dots.data());
  switch (tail) {
    case simd::MinTail::kZNorm:
    case simd::MinTail::kZNormFlat:
      return simd::scalar::ZNormMinFromDots(dots.data(), stds, count, m,
                                            tail == simd::MinTail::kZNormFlat);
    case simd::MinTail::kRaw:
      return simd::scalar::RawMinFromDots(qq, sqp, m, dots.data(), count);
    case simd::MinTail::kL2:
      return simd::scalar::L2MinFromDots(qq, sqp, m, dots.data(), count);
    case simd::MinTail::kCosine:
    case simd::MinTail::kCosineFlat:
      return simd::scalar::CosineMinFromDots(qq, sqp, m, dots.data(), count);
  }
  return 0.0;
}

// SlidingMinGroup equals, query by query, the scalar sliding dot products
// followed by the tail's min kernel, on every backend and every tail: both z-normalised ones (a flat query's values are zeros) and
// the raw, L2 and both cosine ones. Counts run below, at and above one
// block of 4 * Lanes() outputs and one vector; the series holds flat
// stretches, and a second pass scales it to huge but finite values whose
// squares overflow, so stds, energies and dot products turn +-inf and the
// cells' intermediates NaN.
TEST(SimdKernelTest, SlidingMinGroupMatchesPerQueryMinimaOnEveryTail) {
  constexpr size_t G = simd::kGroupSize;
  const simd::MinTail kTails[] = {
      simd::MinTail::kZNorm,  simd::MinTail::kZNormFlat,
      simd::MinTail::kRaw,    simd::MinTail::kL2,
      simd::MinTail::kCosine, simd::MinTail::kCosineFlat};
  ForEachSimdBackend([&] {
    Rng rng(61);
    std::vector<size_t> counts = TestCounts();
    for (size_t extra : {4 * simd::Lanes() - 1, 4 * simd::Lanes(),
                         8 * simd::Lanes() + 5}) {
      counts.push_back(extra);
    }
    for (double scale : {1.0, 1e200}) {
      for (size_t count : counts) {
        for (size_t m : {size_t{1}, size_t{5}, size_t{23}}) {
          std::vector<double> s = RandomSeries(rng, count + m - 1, true);
          for (double& v : s) v *= scale;
          const RollingStats stats = ComputeRollingStats(s, m);
          std::vector<double> sqp(s.size() + 1, 0.0);
          for (size_t i = 0; i < s.size(); ++i) {
            sqp[i + 1] = sqp[i] + s[i] * s[i];
          }
          for (const simd::MinTail tail : kTails) {
            SCOPED_TRACE("tail " + std::to_string(static_cast<int>(tail)) +
                         " count " + std::to_string(count) + " m " +
                         std::to_string(m) + " scale " + std::to_string(scale));
            const bool flat = tail == simd::MinTail::kZNormFlat ||
                              tail == simd::MinTail::kCosineFlat;
            std::vector<std::vector<double>> queries(G);
            const double* q[G];
            double qq[G];
            for (size_t g = 0; g < G; ++g) {
              queries[g] = flat ? std::vector<double>(m, 0.0)
                                : RandomSeries(rng, m, false);
              for (double& v : queries[g]) v *= scale;
              qq[g] = 0.0;
              for (double v : queries[g]) qq[g] += v * v;
              q[g] = queries[g].data();
            }
            std::vector<double> got(G), ref(G), want(G);
            simd::SlidingMinGroup(tail, q, qq, m, s.data(), s.size(),
                                  stats.stds.data(), sqp.data(), got.data());
            simd::scalar::SlidingMinGroup(tail, q, qq, m, s.data(), s.size(),
                                          stats.stds.data(), sqp.data(),
                                          ref.data());
            for (size_t g = 0; g < G; ++g) {
              want[g] = PerQueryMin(tail, q[g], qq[g], m, s,
                                    stats.stds.data(), sqp.data());
            }
            ExpectBitEqual(got, want, "group vs per-query scalar minima");
            ExpectBitEqual(ref, want, "scalar group vs per-query minima");
          }
        }
      }
    }
  });
}

}  // namespace
}  // namespace ips
