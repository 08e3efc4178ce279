#include "ips/utility.h"

#include <cmath>

#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/generator.h"
#include "ips/candidate_gen.h"

namespace ips {
namespace {

struct Fixture {
  Dataset train;
  CandidatePool pool;
  std::unique_ptr<Dabf> dabf;
};

Fixture MakeFixture() {
  GeneratorSpec spec;
  spec.name = "utiltest";
  spec.num_classes = 2;
  spec.train_size = 10;
  spec.test_size = 2;
  spec.length = 64;
  Fixture f;
  f.train = GenerateDataset(spec).train;

  IpsOptions o;
  o.sample_count = 3;
  o.sample_size = 3;
  o.length_ratios = {0.2, 0.3};
  Rng rng(1);
  f.pool = GenerateCandidates(f.train, o, rng);

  std::map<int, std::vector<Subsequence>> by_class;
  for (const auto& [label, motifs] : f.pool.motifs) {
    by_class[label] = f.pool.AllOfClass(label);
  }
  DabfOptions d;
  d.projection_dim = 16;
  // Fine-grained buckets: the DT coordinate approximation sharpens as the
  // bucket width shrinks, which is what the correlation test measures.
  d.num_hashes = 8;
  d.bucket_width = 3.0;
  d.seed = 9;
  f.dabf = std::make_unique<Dabf>(by_class, d);
  return f;
}

TEST(SigmoidTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-100.0), 0.0, 1e-12);
  EXPECT_NEAR(Sigmoid(1.0) + Sigmoid(-1.0), 1.0, 1e-12);
  // Utility arguments are means of distances or bucket gaps, so x >= 0;
  // there the sign-split form must be the plain logistic expression bit
  // for bit, or discovery fingerprints would move.
  for (double x : {0.0, 1e-300, 1e-9, 0.125, 0.5, 1.0, 2.718281828459045,
                   7.5, 36.0, 709.0, 1e300}) {
    const double plain = 1.0 / (1.0 + std::exp(-x));
    EXPECT_EQ(Sigmoid(x), plain) << "x=" << x;
  }
}

TEST(CandidateScoreTest, CombinedFormula) {
  CandidateScore s;
  s.intra = 0.6;
  s.inter = 0.9;
  s.instance = 0.7;
  EXPECT_NEAR(s.Combined(), 0.4, 1e-12);
}

TEST(ScoreAllCandidatesTest, ExactNaiveMatchesExactCr) {
  // CR only reuses computation; the scores must be identical.
  const Fixture f = MakeFixture();
  const auto naive = ScoreAllCandidates(f.pool, f.train,
                                        UtilityMode::kExactNaive, nullptr);
  const auto reuse = ScoreAllCandidates(f.pool, f.train,
                                        UtilityMode::kExactWithCr, nullptr);
  ASSERT_EQ(naive.size(), reuse.size());
  for (const auto& [label, scores] : naive) {
    const auto& other = reuse.at(label);
    ASSERT_EQ(scores.size(), other.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      EXPECT_NEAR(scores[i].intra, other[i].intra, 1e-12);
      EXPECT_NEAR(scores[i].inter, other[i].inter, 1e-12);
      EXPECT_NEAR(scores[i].instance, other[i].instance, 1e-12);
    }
  }
}

TEST(ScoreAllCandidatesTest, OneScorePerMotif) {
  const Fixture f = MakeFixture();
  const auto scores =
      ScoreAllCandidates(f.pool, f.train, UtilityMode::kDtCr, f.dabf.get());
  for (const auto& [label, motifs] : f.pool.motifs) {
    ASSERT_TRUE(scores.count(label));
    EXPECT_EQ(scores.at(label).size(), motifs.size());
  }
}

TEST(ScoreAllCandidatesTest, UtilitiesInSigmoidRange) {
  const Fixture f = MakeFixture();
  for (UtilityMode mode : {UtilityMode::kExactNaive, UtilityMode::kDtCr}) {
    const auto scores =
        ScoreAllCandidates(f.pool, f.train, mode, f.dabf.get());
    for (const auto& [label, class_scores] : scores) {
      for (const CandidateScore& s : class_scores) {
        EXPECT_GE(s.intra, 0.5);  // sigmoid of a non-negative mean
        EXPECT_LT(s.intra, 1.0);
        EXPECT_GE(s.inter, 0.5);
        EXPECT_LT(s.inter, 1.0);
        EXPECT_GE(s.instance, 0.5);
        EXPECT_LT(s.instance, 1.0);
      }
    }
  }
}

TEST(ScoreAllCandidatesTest, DtRankingCorrelatesWithExact) {
  // DT is an approximation; the orderings should be positively correlated
  // (Spearman over combined scores).
  const Fixture f = MakeFixture();
  const auto exact = ScoreAllCandidates(f.pool, f.train,
                                        UtilityMode::kExactWithCr, nullptr);
  const auto dt =
      ScoreAllCandidates(f.pool, f.train, UtilityMode::kDtCr, f.dabf.get());

  double correlation_sum = 0.0;
  int classes = 0;
  for (const auto& [label, exact_scores] : exact) {
    const auto& dt_scores = dt.at(label);
    const size_t n = exact_scores.size();
    if (n < 3) continue;
    // Spearman via rank vectors.
    auto ranks = [](const std::vector<CandidateScore>& scores) {
      std::vector<size_t> order(scores.size());
      std::iota(order.begin(), order.end(), size_t{0});
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return scores[a].Combined() < scores[b].Combined();
      });
      std::vector<double> r(scores.size());
      for (size_t i = 0; i < order.size(); ++i) {
        r[order[i]] = static_cast<double>(i);
      }
      return r;
    };
    const auto ra = ranks(exact_scores);
    const auto rb = ranks(dt_scores);
    double d2 = 0.0;
    for (size_t i = 0; i < n; ++i) d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
    const double nd = static_cast<double>(n);
    correlation_sum += 1.0 - 6.0 * d2 / (nd * (nd * nd - 1.0));
    ++classes;
  }
  ASSERT_GT(classes, 0);
  EXPECT_GT(correlation_sum / classes, 0.0);
}

TEST(ScoreAllCandidatesTest, DuplicateCandidatesScoreEqually) {
  // Two identical motifs must receive identical utilities in every mode --
  // the DT bucket coordinates and the exact distances are both functions of
  // the candidate's values only.
  Fixture f = MakeFixture();
  auto& motifs = f.pool.motifs.begin()->second;
  ASSERT_GE(motifs.size(), 1u);
  motifs.push_back(motifs.front());  // duplicate
  const size_t a = 0;
  const size_t b = motifs.size() - 1;

  for (UtilityMode mode : {UtilityMode::kExactWithCr, UtilityMode::kDtCr}) {
    const auto scores =
        ScoreAllCandidates(f.pool, f.train, mode, f.dabf.get());
    const auto& class_scores = scores.at(f.pool.motifs.begin()->first);
    EXPECT_NEAR(class_scores[a].inter, class_scores[b].inter, 1e-12);
    EXPECT_NEAR(class_scores[a].instance, class_scores[b].instance, 1e-12);
    // intra differs only by the self-exclusion term, which is the distance
    // to the duplicate (zero), so it is also equal.
    EXPECT_NEAR(class_scores[a].intra, class_scores[b].intra, 1e-12);
  }
}

TEST(ScoreAllCandidatesTest, EmptyPoolGivesEmptyScores) {
  CandidatePool pool;
  Dataset train;
  train.Add(TimeSeries(std::vector<double>(32, 1.0), 0));
  const auto scores =
      ScoreAllCandidates(pool, train, UtilityMode::kExactNaive, nullptr);
  EXPECT_TRUE(scores.empty());
}

}  // namespace
}  // namespace ips
