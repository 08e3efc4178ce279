// Bitwise-identity suite for the MatrixProfileEngine: every engine entry
// point must reproduce the serial AbJoinProfile / SelfJoinProfile kernels
// EXACTLY (EXPECT_EQ on doubles, no tolerance) at every thread count --
// that is the contract that lets the instance-profile stage shard pairs
// over cores without perturbing discovery results.

#include "matrix_profile/mp_engine.h"

#include <cstddef>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <span>
#include <vector>

#include "core/fft.h"
#include "core/rng.h"
#include "core/time_series.h"
#include "core/znorm.h"
#include "data/generator.h"
#include "ips/candidate_gen.h"
#include "ips/config.h"
#include "ips/instance_profile.h"
#include "matrix_profile/matrix_profile.h"
#include "matrix_profile/stomp_common.h"
#include "gtest/gtest.h"
#include "simd_backends.h"

namespace ips {
namespace {

std::vector<double> RandomWalk(Rng& rng, size_t n) {
  std::vector<double> v(n);
  double level = 0.0;
  for (auto& x : v) {
    level = 0.95 * level + rng.Gaussian(0.0, 1.0);
    x = level;
  }
  return v;
}

void ExpectProfilesIdentical(const MatrixProfile& expected,
                             const MatrixProfile& actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected.values[i], actual.values[i]) << what << " value " << i;
    EXPECT_EQ(expected.indices[i], actual.indices[i]) << what << " index " << i;
  }
}

// The all-pairs join keeps minima only: its values against a profile's.
void ExpectValuesIdentical(const MatrixProfile& expected,
                           const std::vector<double>& actual,
                           const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected.values[i], actual[i]) << what << " value " << i;
  }
}

constexpr size_t kThreadCounts[] = {1, 2, 8};

TEST(MpEngineSelfJoinTest, BitwiseIdenticalToSerialKernel) {
  Rng rng(7);
  const std::vector<double> series = RandomWalk(rng, 240);
  for (size_t window : {5u, 16u, 48u}) {
    const MatrixProfile expected = SelfJoinProfile(series, window);
    for (size_t threads : kThreadCounts) {
      MatrixProfileEngine engine(threads);
      ExpectProfilesIdentical(expected, engine.SelfJoin(series, window),
                              "self join");
      // Force fine-grained diagonal sharding (a join this small would
      // otherwise stay single-chunk on the row-order fast path).
      MatrixProfileEngine sharded(threads);
      sharded.set_min_cells_per_chunk(1);
      ExpectProfilesIdentical(expected, sharded.SelfJoin(series, window),
                              "sharded self join");
    }
  }
}

TEST(MpEngineSelfJoinTest, CustomExclusionZone) {
  Rng rng(11);
  const std::vector<double> series = RandomWalk(rng, 150);
  const size_t window = 12;
  for (size_t exclusion : {1u, 6u, 30u}) {
    const MatrixProfile expected = SelfJoinProfile(series, window, exclusion);
    for (size_t threads : kThreadCounts) {
      MatrixProfileEngine engine(threads);
      engine.set_min_cells_per_chunk(1);
      ExpectProfilesIdentical(
          expected, engine.SelfJoin(series, window, exclusion), "exclusion");
    }
  }
}

TEST(MpEngineSelfJoinTest, FlatRegionsMatch) {
  // Constant stretches exercise the flat-std branches of the distance.
  Rng rng(13);
  std::vector<double> series = RandomWalk(rng, 180);
  for (size_t i = 40; i < 70; ++i) series[i] = 2.5;
  for (size_t i = 120; i < 150; ++i) series[i] = 2.5;
  const size_t window = 10;
  const MatrixProfile expected = SelfJoinProfile(series, window);
  for (size_t threads : kThreadCounts) {
    MatrixProfileEngine engine(threads);
    engine.set_min_cells_per_chunk(1);
    ExpectProfilesIdentical(expected, engine.SelfJoin(series, window), "flat");
  }
}

TEST(MpEngineAbJoinTest, BothDirectionsBitwiseIdentical) {
  Rng rng(17);
  const std::vector<double> a = RandomWalk(rng, 200);
  const std::vector<double> b = RandomWalk(rng, 130);
  for (size_t window : {4u, 21u}) {
    const MatrixProfile ab = AbJoinProfile(a, b, window);
    const MatrixProfile ba = AbJoinProfile(b, a, window);
    for (size_t threads : kThreadCounts) {
      MatrixProfileEngine engine(threads);
      ExpectProfilesIdentical(ab, engine.AbJoin(a, b, window), "a vs b");
      ExpectProfilesIdentical(ba, engine.AbJoin(b, a, window), "b vs a");

      // One sweep, both sides.
      const PairJoin both = engine.AbJoinBoth(a, b, window);
      ExpectProfilesIdentical(ab, both.a_vs_b, "pair a side");
      ExpectProfilesIdentical(ba, both.b_vs_a, "pair b side");

      // Same, forced onto the fine-grained sharded diagonal path.
      MatrixProfileEngine sharded(threads);
      sharded.set_min_cells_per_chunk(1);
      const PairJoin sharded_both = sharded.AbJoinBoth(a, b, window);
      ExpectProfilesIdentical(ab, sharded_both.a_vs_b, "sharded a side");
      ExpectProfilesIdentical(ba, sharded_both.b_vs_a, "sharded b side");
    }
  }
}

TEST(MpEngineAbJoinTest, FftSeedPathBitwiseIdentical) {
  // Window long enough that the seed sliding-dot-products dispatch to the
  // FFT kernel (window >= kFftCutoff and the cost model prefers FFT).
  Rng rng(19);
  const std::vector<double> a = RandomWalk(rng, 2048);
  const std::vector<double> b = RandomWalk(rng, 1500);
  const size_t window = 512;
  const MatrixProfile ab = AbJoinProfile(a, b, window);
  const MatrixProfile ba = AbJoinProfile(b, a, window);
  const MatrixProfile self = SelfJoinProfile(a, window);
  for (size_t threads : {1u, 8u}) {
    MatrixProfileEngine engine(threads);
    const PairJoin both = engine.AbJoinBoth(a, b, window);
    ExpectProfilesIdentical(ab, both.a_vs_b, "fft a side");
    ExpectProfilesIdentical(ba, both.b_vs_a, "fft b side");
    ExpectProfilesIdentical(self, engine.SelfJoin(a, window), "fft self");
  }
}

TEST(MpEngineAbJoinTest, SingleWindowSeries) {
  // b has exactly one window (size == window): la x 1 sweep, lb = 1.
  Rng rng(23);
  const std::vector<double> a = RandomWalk(rng, 60);
  const std::vector<double> b = RandomWalk(rng, 9);
  const size_t window = 9;
  const MatrixProfile ab = AbJoinProfile(a, b, window);
  const MatrixProfile ba = AbJoinProfile(b, a, window);
  for (size_t threads : kThreadCounts) {
    MatrixProfileEngine engine(threads);
    const PairJoin both = engine.AbJoinBoth(a, b, window);
    ExpectProfilesIdentical(ab, both.a_vs_b, "one-window a side");
    ExpectProfilesIdentical(ba, both.b_vs_a, "one-window b side");
  }
}

TEST(MpEngineJoinAllPairsTest, EveryPairBothDirections) {
  Rng rng(29);
  std::vector<std::vector<double>> series;
  for (size_t n : {90u, 120u, 75u, 104u}) {
    series.push_back(RandomWalk(rng, n));
  }
  std::vector<std::span<const double>> views(series.begin(), series.end());
  const size_t window = 14;

  for (size_t threads : kThreadCounts) {
    MatrixProfileEngine engine(threads);
    engine.set_min_cells_per_chunk(1);
    const std::vector<PairMinima> joins =
        engine.JoinAllPairs(engine.BuildTable(views, window));
    ASSERT_EQ(joins.size(), 6u);  // C(4, 2)
    size_t t = 0;
    for (size_t i = 0; i < views.size(); ++i) {
      for (size_t j = i + 1; j < views.size(); ++j, ++t) {
        ASSERT_EQ(joins[t].a, i);
        ASSERT_EQ(joins[t].b, j);
        ExpectValuesIdentical(AbJoinProfile(views[i], views[j], window),
                              joins[t].a_vs_b, "batch a side");
        ExpectValuesIdentical(AbJoinProfile(views[j], views[i], window),
                              joins[t].b_vs_a, "batch b side");
      }
    }
  }
}

TEST(MpEngineCountersTest, PairSymmetryHalvesJoins) {
  Rng rng(31);
  std::vector<std::vector<double>> series;
  for (size_t n : {80u, 80u, 80u}) series.push_back(RandomWalk(rng, n));
  std::vector<std::span<const double>> views(series.begin(), series.end());

  MatrixProfileEngine engine(2);
  const ArtifactTable table = engine.BuildTable(views, 10);
  engine.JoinAllPairs(table);
  const MpEngineCounters c = engine.counters();
  // 3 unordered pairs serve all 6 directed joins of the historic code.
  EXPECT_EQ(c.qt_sweeps, 3u);
  EXPECT_EQ(c.joins_computed, 6u);
  EXPECT_EQ(c.joins_halved, 3u);
  EXPECT_EQ(c.table_builds, 1u);

  // A second batch over the caller's table builds nothing new.
  engine.JoinAllPairs(table);
  const MpEngineCounters c2 = engine.counters();
  EXPECT_EQ(c2.qt_sweeps, 6u);
  EXPECT_EQ(c2.table_builds, 1u);

  engine.ResetCounters();
  const MpEngineCounters zero = engine.counters();
  EXPECT_EQ(zero.joins_computed, 0u);
  EXPECT_EQ(zero.table_builds, 0u);
}

// One engine reused over buffers refilled in place with new values of the
// same length: nothing may be served from an earlier pass's artefacts. An
// engine that keyed artefacts by data address returned the first pass's
// profiles here in every window.
TEST(MpEngineStaleBufferTest, RefilledBuffersGiveFreshProfiles) {
  Rng rng(41);
  const size_t window = 12;
  std::vector<std::vector<double>> buffers(3, std::vector<double>(140));
  const std::vector<const double*> addresses = {
      buffers[0].data(), buffers[1].data(), buffers[2].data()};
  const std::vector<std::span<const double>> views(buffers.begin(),
                                                   buffers.end());

  for (size_t threads : kThreadCounts) {
    MatrixProfileEngine engine(threads);
    for (int pass = 0; pass < 2; ++pass) {
      for (auto& buffer : buffers) {
        const std::vector<double> fresh = RandomWalk(rng, buffer.size());
        std::copy(fresh.begin(), fresh.end(), buffer.begin());
      }
      for (size_t k = 0; k < buffers.size(); ++k) {
        ASSERT_EQ(buffers[k].data(), addresses[k]);
      }

      ExpectProfilesIdentical(SelfJoinProfile(views[0], window),
                              engine.SelfJoin(views[0], window),
                              "refilled self join");
      const PairJoin both = engine.AbJoinBoth(views[0], views[1], window);
      ExpectProfilesIdentical(AbJoinProfile(views[0], views[1], window),
                              both.a_vs_b, "refilled pair a side");
      ExpectProfilesIdentical(AbJoinProfile(views[1], views[0], window),
                              both.b_vs_a, "refilled pair b side");
      const std::vector<PairMinima> joins =
          engine.JoinAllPairs(engine.BuildTable(views, window));
      ASSERT_EQ(joins.size(), 3u);
      for (const PairMinima& pj : joins) {
        ExpectValuesIdentical(AbJoinProfile(views[pj.a], views[pj.b], window),
                              pj.a_vs_b, "refilled batch a side");
        ExpectValuesIdentical(AbJoinProfile(views[pj.b], views[pj.a], window),
                              pj.b_vs_a, "refilled batch b side");
      }
    }
  }
}

TEST(MpEngineInstanceProfileTest, EngineMatchesSerialConstruction) {
  Rng rng(37);
  std::vector<TimeSeries> sample;
  for (size_t n : {70u, 95u, 4u, 82u}) {  // the length-4 instance is skipped
    TimeSeries t;
    t.values = RandomWalk(rng, n);
    sample.push_back(std::move(t));
  }
  const size_t window = 11;
  for (size_t neighbors : {1u, 2u}) {
    const InstanceProfile expected =
        ComputeInstanceProfile(sample, window, neighbors);
    for (size_t threads : kThreadCounts) {
      MatrixProfileEngine engine(threads);
      const InstanceProfile actual =
          ComputeInstanceProfile(sample, window, neighbors, &engine);
      ASSERT_EQ(expected.size(), actual.size());
      for (size_t e = 0; e < expected.size(); ++e) {
        EXPECT_EQ(expected.values[e], actual.values[e]) << "entry " << e;
        EXPECT_EQ(expected.instances[e], actual.instances[e]);
        EXPECT_EQ(expected.offsets[e], actual.offsets[e]);
      }
    }
  }
}

TEST(MpEngineCandidateGenTest, OutputIndependentOfThreadCount) {
  GeneratorSpec spec;
  spec.name = "mp-engine-candgen";
  spec.num_classes = 2;
  spec.train_size = 12;
  spec.test_size = 2;
  spec.length = 64;
  const Dataset train = GenerateDataset(spec).train;

  IpsOptions options;
  options.num_threads = 1;
  Rng rng_base(options.seed);
  const CandidatePool base = GenerateCandidates(train, options, rng_base);

  for (size_t threads : {2u, 5u, 8u}) {
    options.num_threads = threads;
    Rng rng(options.seed);
    const CandidatePool got = GenerateCandidates(train, options, rng);
    ASSERT_EQ(base.motifs.size(), got.motifs.size()) << threads;
    for (const auto& [label, pool] : base.motifs) {
      const auto& other = got.motifs.at(label);
      ASSERT_EQ(pool.size(), other.size()) << threads << " threads";
      for (size_t i = 0; i < pool.size(); ++i) {
        EXPECT_EQ(pool[i].values, other[i].values);
        EXPECT_EQ(pool[i].label, other[i].label);
      }
    }
    for (const auto& [label, pool] : base.discords) {
      const auto& other = got.discords.at(label);
      ASSERT_EQ(pool.size(), other.size()) << threads << " threads";
      for (size_t i = 0; i < pool.size(); ++i) {
        EXPECT_EQ(pool[i].values, other[i].values);
      }
    }
  }
}

// ------------------------------------------------------------ squared ties
//
// Every join scans squared distances and roots each profile entry once. Two
// different squares can share a root; the join then keeps the smaller
// square's neighbour, where a scan over roots kept the earlier one. The
// fixtures plant exact copies of one pattern several times, so the squares
// of their cells differ only by the rounding of their QT chains and window
// statistics, and the search below walks seeds until a row (and a column)
// shows the two rules apart.

// The squares every join evaluates: QT(i, j) chained along its diagonal
// from the row-0 / column-0 seed by StompAdvance, then StompZNormSquared.
std::vector<std::vector<double>> JoinSquares(std::span<const double> a,
                                             std::span<const double> b,
                                             size_t w) {
  const RollingStats sa = ComputeRollingStats(a, w);
  const RollingStats sb = ComputeRollingStats(b, w);
  const std::vector<double> row0 = SlidingDotProductsNaive(a.subspan(0, w), b);
  const std::vector<double> col0 = SlidingDotProductsNaive(b.subspan(0, w), a);
  const size_t la = a.size() - w + 1;
  const size_t lb = b.size() - w + 1;
  std::vector<std::vector<double>> qt(la, std::vector<double>(lb));
  std::vector<std::vector<double>> sq(la, std::vector<double>(lb));
  for (size_t i = 0; i < la; ++i) {
    for (size_t j = 0; j < lb; ++j) {
      qt[i][j] = i == 0   ? row0[j]
                 : j == 0 ? col0[i]
                          : StompAdvance(qt[i - 1][j - 1], a, b, i, j, w);
      sq[i][j] = StompZNormSquared(qt[i][j], w, sa.means[i], sa.stds[i],
                                   sb.means[j], sb.stds[j]);
    }
  }
  return sq;
}

// The neighbour each rule picks among the `allowed` entries of `squares`:
// the first smallest square, and the first smallest root.
struct Picks {
  size_t by_square = kNoNeighbor;
  size_t by_root = kNoNeighbor;
};

Picks PickNeighbour(const std::vector<double>& squares,
                    const std::vector<bool>& allowed) {
  Picks p;
  double best_square = std::numeric_limits<double>::infinity();
  double best_root = best_square;
  for (size_t k = 0; k < squares.size(); ++k) {
    if (!allowed[k]) continue;
    if (squares[k] < best_square) {
      best_square = squares[k];
      p.by_square = k;
    }
    if (std::sqrt(squares[k]) < best_root) {
      best_root = std::sqrt(squares[k]);
      p.by_root = k;
    }
  }
  return p;
}

// A pattern planted exactly at `exact` and with noise at `noisy`, on a
// random background.
std::vector<double> Planted(Rng& rng, size_t n, const std::vector<double>& p,
                            std::initializer_list<size_t> exact,
                            std::initializer_list<size_t> noisy,
                            double noise) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.Gaussian(0.0, 1.0);
  for (size_t at : exact) std::copy(p.begin(), p.end(), x.begin() + at);
  for (size_t at : noisy) {
    for (size_t k = 0; k < p.size(); ++k) {
      x[at + k] = p[k] + rng.Gaussian(0.0, noise);
    }
  }
  return x;
}

constexpr size_t kTieWindow = 24;
// Short enough that every join seeds with the naive sliding dots, as
// JoinSquares does.
static_assert(kTieWindow < kFftCutoff);
constexpr size_t kTieSeeds = 500;

TEST(MpEngineSquaredTieTest, AbJoinKeepsTheSmallerSquareOnBothSides) {
  // Search for a row tie and a column tie: a = noisy copies, b = exact
  // copies of one pattern (row side); the roles swap for the column side.
  std::vector<double> row_a, row_b, col_a, col_b;
  size_t row = kNoNeighbor, row_pick = 0, col = kNoNeighbor, col_pick = 0;
  for (size_t seed = 1; seed <= kTieSeeds && (row == kNoNeighbor ||
                                              col == kNoNeighbor);
       ++seed) {
    Rng rng(seed);
    std::vector<double> p(kTieWindow);
    for (double& v : p) v = rng.Gaussian(0.0, 1.0);
    const std::vector<double> noisy =
        Planted(rng, 160, p, {}, {10, 50, 90, 130}, 0.8);
    const std::vector<double> exact =
        Planted(rng, 200, p, {15, 60, 105, 150}, {}, 0.0);
    if (row == kNoNeighbor) {
      const auto sq = JoinSquares(noisy, exact, kTieWindow);
      const std::vector<bool> all(sq[0].size(), true);
      for (size_t i = 0; i < sq.size() && row == kNoNeighbor; ++i) {
        const Picks picks = PickNeighbour(sq[i], all);
        if (picks.by_square != picks.by_root) {
          row = i;
          row_pick = picks.by_square;
          row_a = noisy;
          row_b = exact;
        }
      }
    }
    if (col == kNoNeighbor) {
      const auto sq = JoinSquares(exact, noisy, kTieWindow);
      const std::vector<bool> all(sq.size(), true);
      for (size_t j = 0; j < sq[0].size() && col == kNoNeighbor; ++j) {
        std::vector<double> column(sq.size());
        for (size_t i = 0; i < sq.size(); ++i) column[i] = sq[i][j];
        const Picks picks = PickNeighbour(column, all);
        if (picks.by_square != picks.by_root) {
          col = j;
          col_pick = picks.by_square;
          col_a = exact;
          col_b = noisy;
        }
      }
    }
  }
  ASSERT_NE(row, kNoNeighbor) << "no row tie in " << kTieSeeds << " seeds";
  ASSERT_NE(col, kNoNeighbor) << "no column tie in " << kTieSeeds << " seeds";

  const MatrixProfile row_ab = AbJoinProfile(row_a, row_b, kTieWindow);
  EXPECT_EQ(row_ab.indices[row], row_pick);
  const MatrixProfile col_ab = AbJoinProfile(col_a, col_b, kTieWindow);
  const MatrixProfile col_ba = AbJoinProfile(col_b, col_a, kTieWindow);
  EXPECT_EQ(col_ba.indices[col], col_pick);

  ForEachSimdBackend([&] {
    for (size_t threads : {1u, 4u}) {
      for (bool sharded : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << threads << " threads, sharded " << sharded);
        MatrixProfileEngine engine(threads);
        if (sharded) engine.set_min_cells_per_chunk(1);
        ExpectProfilesIdentical(row_ab, engine.AbJoin(row_a, row_b, kTieWindow),
                                "row tie, AbJoin");
        const PairJoin both = engine.AbJoinBoth(col_a, col_b, kTieWindow);
        ExpectProfilesIdentical(col_ab, both.a_vs_b, "column tie, a side");
        ExpectProfilesIdentical(col_ba, both.b_vs_a, "column tie, b side");
        const ArtifactTable table =
            engine.BuildTable({col_a, col_b}, kTieWindow);
        const std::vector<PairMinima> all = engine.JoinAllPairs(table);
        ASSERT_EQ(all.size(), 1u);
        ExpectValuesIdentical(col_ab, all[0].a_vs_b, "column tie, all pairs");
        ExpectValuesIdentical(col_ba, all[0].b_vs_a, "column tie, all pairs");
      }
    }
  });
}

TEST(MpEngineSquaredTieTest, SelfJoinKeepsTheSmallerSquare) {
  const size_t exclusion = DefaultExclusionZone(kTieWindow);
  std::vector<double> series;
  size_t row = kNoNeighbor, pick = 0;
  for (size_t seed = 1; seed <= kTieSeeds && row == kNoNeighbor; ++seed) {
    Rng rng(seed);
    std::vector<double> p(kTieWindow);
    for (double& v : p) v = rng.Gaussian(0.0, 1.0);
    const std::vector<double> s =
        Planted(rng, 320, p, {40, 120, 200, 280}, {0, 80, 160, 240}, 0.8);
    const auto sq = JoinSquares(s, s, kTieWindow);
    for (size_t i = 0; i < sq.size() && row == kNoNeighbor; ++i) {
      // The serial kernel evaluates each pair once, from the upper
      // triangle, and feeds both of its windows.
      std::vector<double> squares(sq.size());
      std::vector<bool> allowed(sq.size());
      for (size_t j = 0; j < sq.size(); ++j) {
        squares[j] = i < j ? sq[i][j] : sq[j][i];
        allowed[j] = (i > j ? i - j : j - i) > exclusion;
      }
      const Picks picks = PickNeighbour(squares, allowed);
      if (picks.by_square != picks.by_root) {
        row = i;
        pick = picks.by_square;
        series = s;
      }
    }
  }
  ASSERT_NE(row, kNoNeighbor) << "no self-join tie in " << kTieSeeds
                              << " seeds";

  const MatrixProfile expected = SelfJoinProfile(series, kTieWindow);
  EXPECT_EQ(expected.indices[row], pick);
  ForEachSimdBackend([&] {
    for (size_t threads : {1u, 4u}) {
      for (bool sharded : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << threads << " threads, sharded " << sharded);
        MatrixProfileEngine engine(threads);
        if (sharded) engine.set_min_cells_per_chunk(1);
        ExpectProfilesIdentical(expected, engine.SelfJoin(series, kTieWindow),
                                "self-join tie");
      }
    }
  });
}

}  // namespace
}  // namespace ips
