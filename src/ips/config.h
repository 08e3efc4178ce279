// Configuration for the IPS shapelet-discovery pipeline (paper §IV-A
// parameter settings).

#ifndef IPS_IPS_CONFIG_H_
#define IPS_IPS_CONFIG_H_

#include <cstdint>

#include <vector>

#include "classify/svm.h"
#include "core/metric.h"
#include "dabf/dabf.h"
#include "transform/shapelet_transform.h"

namespace ips {

/// How candidate utilities (Defs. 11-13) are computed.
enum class UtilityMode {
  /// Exact Def. 4 distances, each pair computed on demand (no reuse).
  kExactNaive,
  /// Exact distances with computation reuse (CR): the symmetric pairwise
  /// distance matrix is computed once.
  kExactWithCr,
  /// Distribution transformation (DT) + CR: distances are replaced by
  /// ranked-bucket coordinate differences from the class DABF (Formula
  /// 15/16), computed in O(1) per pair. The paper's default.
  kDtCr,
};

/// Which classifier consumes the shapelet transform (§III-D adopts the
/// linear SVM; the paper's §I notes the transform also feeds Nearest
/// Neighbor and Naive Bayes).
enum class TransformBackend {
  kLinearSvm,
  kLogisticRegression,
  kNaiveBayes,
  kNearestNeighbor,
};

/// End-to-end IPS parameters.
struct IpsOptions {
  /// Number of instance samples per class (Q_N). Paper sweeps {10,20,50,100}.
  size_t sample_count = 10;
  /// Instances per sample (Q_S). Paper sweeps {2,3,4,5,10}.
  size_t sample_size = 3;
  /// Candidate lengths as fractions of the series length (paper:
  /// {0.1, 0.2, 0.3, 0.4, 0.5}).
  std::vector<double> length_ratios = {0.1, 0.2, 0.3, 0.4, 0.5};
  /// Motifs and discords extracted per (sample, length) pair. Algorithm 1
  /// takes the top-1 of each.
  size_t candidates_per_profile = 1;
  /// Profile neighbour order: 1 = the paper's instance profile (Def. 9's
  /// 1-NN); k > 1 annotates with the k-th smallest per-instance nearest
  /// distance -- the neighbor-profile variant of He et al. (ICDE 2020),
  /// more robust to a single chance match (see exp_ablation_profile).
  size_t profile_neighbors = 1;
  /// Final shapelets per class (top-k). Paper default 5.
  size_t shapelets_per_class = 5;

  /// Whether DABF pruning (Algorithm 3) runs; disabled for the Fig. 10(a)
  /// ablation, which falls back to the quadratic naive pruner.
  bool use_dabf_pruning = true;
  /// Utility computation mode; kDtCr is the paper's optimised path,
  /// kExactNaive the Fig. 10(b,c) ablation baseline.
  UtilityMode utility_mode = UtilityMode::kDtCr;

  /// DABF construction/query parameters.
  DabfOptions dabf;
  /// Classifier applied to the shapelet transform (paper default: SVM).
  TransformBackend backend = TransformBackend::kLinearSvm;
  /// SVM hyper-parameters (used when backend == kLinearSvm).
  SvmOptions svm;
  /// Distance metric (core/metric.h) the run is parameterised by: governs
  /// the instance-profile matrix-profile joins AND the shapelet-transform
  /// embedding (and prediction-time transforms). kZNormEuclidean is the
  /// matrix-profile / shapelet-transform literature's convention and the
  /// default; the recorded run artifact carries the metric (v2.1). Note
  /// candidate utility scoring, pruning and the DABF always use the
  /// paper's Def. 4 raw distance -- that is part of the IPS algorithm
  /// itself, not a profile choice.
  MetricId metric = MetricId::kZNormEuclidean;

  /// Has no effect: every min-alignment distance query takes one dense
  /// path. Kept only because the benchmark harness (perfbench/) sets it;
  /// it goes when the harness stops setting it.
  bool enable_early_abandon = true;

  /// Worker threads for candidate generation and the shapelet transform:
  /// 1 = sequential, 0 = auto (HardwareThreads()). Parallel regions run on
  /// the persistent process-wide pool (util/thread_pool.h). Results are
  /// bitwise identical for every thread count: all randomness is drawn
  /// before the parallel regions (see docs/threading.md).
  size_t num_threads = 1;

  uint64_t seed = 42;
};

}  // namespace ips

#endif  // IPS_IPS_CONFIG_H_
