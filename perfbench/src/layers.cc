#include "layers.h"

namespace perfbench {
namespace {

bool IsMatrixProfileLeaf(const std::string& leaf) {
  return leaf.rfind("mp_", 0) == 0;
}

/// Outermost matrix-profile spans nested (on the calling thread) under a
/// candidate_gen span: joins the candidate generator ran inline rather than
/// on pool workers, whose spans root their own paths.
double NestedMatrixProfileSeconds(const ips::obs::TraceReport& trace) {
  double seconds = 0.0;
  for (const ips::obs::TraceSpan& span : trace.spans) {
    if (!IsMatrixProfileLeaf(span.Leaf())) continue;
    if (span.path.find("/candidate_gen/") == std::string::npos) continue;
    const std::string parent = span.path.substr(0, span.path.rfind('/'));
    const std::string parent_leaf = parent.substr(parent.rfind('/') + 1);
    if (!IsMatrixProfileLeaf(parent_leaf)) seconds += span.seconds;
  }
  return seconds;
}

}  // namespace

std::map<std::string, double> StageSelfTimes(
    const ips::obs::TraceReport& trace) {
  const double mp_join = NestedMatrixProfileSeconds(trace);
  std::map<std::string, double> self_s;
  self_s["ips.candidate_gen_s"] = trace.LeafSeconds("candidate_gen") - mp_join;
  self_s["matrix_profile.join_s"] = mp_join;
  self_s["dabf.build_s"] = trace.LeafSeconds("dabf_build");
  self_s["ips.pruning_s"] = trace.LeafSeconds("pruning");
  self_s["ips.selection_s"] = trace.LeafSeconds("selection");
  self_s["transform.train_s"] = trace.LeafSeconds("transform");
  self_s["classify.svm_fit_s"] = trace.LeafSeconds("backend_fit");
  return self_s;
}

double SelfSum(const std::map<std::string, double>& self_s) {
  double sum = 0.0;
  for (const auto& [name, seconds] : self_s) sum += seconds;
  return sum;
}

}  // namespace perfbench
