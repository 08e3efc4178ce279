#include "transform/shapelet_transform.h"

#include "core/distance.h"
#include "core/distance_engine.h"
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
                                  MetricId distance,
                                  size_t num_threads, DistanceEngine* engine) {
  TransformedData out;
  DistanceEngine local(num_threads);
  DistanceEngine& eng = engine != nullptr ? *engine : local;
  out.features = eng.TransformBatch(data, shapelets, distance);
  out.labels.resize(data.size());
  for (size_t i = 0; i < data.size(); ++i) out.labels[i] = data.At(i).label;
  return out;
}

}  // namespace ips
