#include "transform/shapelet_transform.h"

#include "core/distance.h"
#include "core/distance_engine.h"
#include "transform/shapelet_bank.h"
#include "util/check.h"

namespace ips {

std::vector<double> TransformSeries(SeriesView series,
                                    const std::vector<Subsequence>& shapelets,
                                    MetricId distance) {
  IPS_CHECK(!shapelets.empty());
  std::vector<double> row(shapelets.size());
  for (size_t s = 0; s < shapelets.size(); ++s) {
    row[s] = SubsequenceDistanceMetric(series.view(), shapelets[s].view(),
                                       distance);
  }
  return row;
}

TransformedData ShapeletTransform(const DatasetView& data,
                                  const std::vector<Subsequence>& shapelets,
                                  MetricId distance, size_t num_threads,
                                  const DistanceEngine* engine) {
  IPS_CHECK(!shapelets.empty());
  TransformedData out;
  out.features.resize(data.size());
  ShapeletBank(shapelets, distance, data)
      .Transform(data, engine != nullptr ? engine->num_threads() : num_threads,
                 [&](size_t i, std::span<const double> row) {
                   out.features[i].assign(row.begin(), row.end());
                 });
  out.labels = data.Labels();
  return out;
}

}  // namespace ips
