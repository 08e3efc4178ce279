// The traced run's per-layer view of one IpsClassifier::Fit, read from the
// span trace Fit records itself (RunResult::trace: "fit/discover/
// candidate_gen", ".../dabf_build", ".../pruning", ".../selection",
// "fit/transform", "fit/backend_fit", with the matrix-profile spans nested
// under candidate_gen). No instrumentation is added to the library.

#ifndef IPS_PERFBENCH_LAYERS_H_
#define IPS_PERFBENCH_LAYERS_H_

#include <map>
#include <string>

#include "obs/trace.h"

namespace perfbench {

/// Self time per layer ("ips.candidate_gen_s", "matrix_profile.join_s",
/// "dabf.build_s", "ips.pruning_s", "ips.selection_s", "transform.train_s",
/// "classify.svm_fit_s"), counted on the calling thread. They partition the
/// fit: their sum falls short of Fit's wall time only by the glue between
/// stages (engine construction, registry snapshots).
std::map<std::string, double> StageSelfTimes(const ips::obs::TraceReport& trace);

double SelfSum(const std::map<std::string, double>& self_s);

}  // namespace perfbench

#endif  // IPS_PERFBENCH_LAYERS_H_
