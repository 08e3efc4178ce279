#include "ips/instance_profile.h"

#include <algorithm>

#include "matrix_profile/matrix_profile.h"
#include "matrix_profile/motif.h"
#include "matrix_profile/mp_engine.h"
#include "util/check.h"

namespace ips {

InstanceProfile ComputeInstanceProfile(std::span<const TimeSeries> sample,
                                       size_t window, size_t neighbors,
                                       MatrixProfileEngine* engine,
                                       MetricId metric) {
  std::vector<SeriesView> views(sample.begin(), sample.end());
  return ComputeInstanceProfile(std::span<const SeriesView>(views), window,
                                neighbors, engine, metric);
}

InstanceProfile ComputeInstanceProfile(std::span<const SeriesView> sample,
                                       size_t window, size_t neighbors,
                                       MatrixProfileEngine* engine,
                                       MetricId metric) {
  IPS_CHECK(!sample.empty());
  IPS_CHECK(window >= 2);
  IPS_CHECK(neighbors >= 1);

  // Indices of instances long enough to contribute windows.
  std::vector<size_t> usable;
  for (size_t m = 0; m < sample.size(); ++m) {
    if (sample[m].length() >= window) usable.push_back(m);
  }
  IPS_CHECK_MSG(!usable.empty(),
                "no instance in the sample is as long as the window");

  MatrixProfileEngine local_engine(1);
  MatrixProfileEngine& eng = engine != nullptr ? *engine : local_engine;

  InstanceProfile ip;

  if (usable.size() == 1) {
    // Degenerate sample: self-join with exclusion zone (the MP extreme).
    const size_t m = usable.front();
    const SeriesView t = sample[m];
    if (t.length() > window) {
      const MatrixProfile mp =
          eng.SelfJoin(t.view(), window, /*exclusion=*/0, metric);
      for (size_t i = 0; i < mp.size(); ++i) {
        ip.values.push_back(mp.values[i]);
        ip.instances.push_back(m);
        ip.offsets.push_back(i);
      }
    } else {
      // Exactly one window; it has no neighbour, annotate with 0.
      ip.values.push_back(0.0);
      ip.instances.push_back(m);
      ip.offsets.push_back(0);
    }
    return ip;
  }

  // Every unordered pair once; the sweep's far side serves the reverse
  // direction that the historic code recomputed from scratch.
  std::vector<std::span<const double>> views;
  views.reserve(usable.size());
  for (size_t m : usable) views.push_back(sample[m].view());
  // Parallel precompute pass: one immutable artifact table (statistics,
  // forward FFTs, QT seed rows) for the whole batch, built before the
  // O(|sample|^2) pair loop so its sweeps read artifacts lock-free by
  // index. The table lives for this call only.
  const std::vector<PairMinima> joins =
      eng.JoinAllPairs(eng.BuildTable(views, window, metric));

  // Flat num_windows x |others| scatter buffer per usable instance: row i
  // holds window i's nearest-window distance to each OTHER instance. One
  // allocation per instance instead of num_windows inner vectors.
  const size_t others = usable.size() - 1;
  std::vector<std::vector<double>> per_instance(usable.size());
  std::vector<size_t> num_windows(usable.size());
  for (size_t u = 0; u < usable.size(); ++u) {
    num_windows[u] = sample[usable[u]].length() - window + 1;
    per_instance[u].resize(num_windows[u] * others);
  }
  for (const PairMinima& pj : joins) {
    // Column of v in u's buffer: usable order with u itself skipped.
    const size_t col_b = pj.b > pj.a ? pj.b - 1 : pj.b;
    const size_t col_a = pj.a > pj.b ? pj.a - 1 : pj.a;
    std::vector<double>& buf_a = per_instance[pj.a];
    for (size_t i = 0; i < num_windows[pj.a]; ++i) {
      buf_a[i * others + col_b] = pj.a_vs_b[i];
    }
    std::vector<double>& buf_b = per_instance[pj.b];
    for (size_t j = 0; j < num_windows[pj.b]; ++j) {
      buf_b[j * others + col_a] = pj.b_vs_a[j];
    }
  }

  const size_t k = std::min(neighbors, others);
  for (size_t u = 0; u < usable.size(); ++u) {
    std::vector<double>& buf = per_instance[u];
    for (size_t i = 0; i < num_windows[u]; ++i) {
      auto row = buf.begin() + static_cast<ptrdiff_t>(i * others);
      // k-th smallest of the per-instance minima (k=1 is Def. 9's 1-NN).
      // The k-th order statistic is a pure function of the row's multiset,
      // so this matches the historic per-window vectors bitwise.
      std::nth_element(row, row + static_cast<ptrdiff_t>(k - 1),
                       row + static_cast<ptrdiff_t>(others));
      ip.values.push_back(row[static_cast<ptrdiff_t>(k - 1)]);
      ip.instances.push_back(usable[u]);
      ip.offsets.push_back(i);
    }
  }
  return ip;
}

namespace {

// Exclusion of half the window within one instance; entries of different
// instances never clash.
std::vector<size_t> SelectProfileEntries(const InstanceProfile& profile,
                                         size_t k, size_t window,
                                         bool smallest_first) {
  const size_t exclusion = (window + 1) / 2;
  return SelectWithExclusion(
      profile.values, k, smallest_first, [&](size_t s, size_t e) {
        const size_t a = profile.offsets[s];
        const size_t b = profile.offsets[e];
        return profile.instances[s] == profile.instances[e] &&
               (a > b ? a - b : b - a) <= exclusion;
      });
}

}  // namespace

std::vector<size_t> InstanceProfileMotifs(const InstanceProfile& profile,
                                          size_t k, size_t window) {
  return SelectProfileEntries(profile, k, window, /*smallest_first=*/true);
}

std::vector<size_t> InstanceProfileDiscords(const InstanceProfile& profile,
                                            size_t k, size_t window) {
  return SelectProfileEntries(profile, k, window, /*smallest_first=*/false);
}

}  // namespace ips
