#include "plc/capacity.h"

#include <algorithm>
#include <stdexcept>

namespace wolt::plc {

CapacitySampler::CapacitySampler(CapacitySamplerParams params)
    : params_(std::move(params)) {
  if (params_.source == CapacitySource::kMeasuredAnchors &&
      params_.measured_anchors.empty()) {
    throw std::invalid_argument("no measured anchors");
  }
  if (params_.min_capacity_mbps <= 0.0 ||
      params_.max_capacity_mbps < params_.min_capacity_mbps) {
    throw std::invalid_argument("bad capacity clamp range");
  }
}

double CapacitySampler::Sample(util::Rng& rng) const {
  double capacity = 0.0;
  switch (params_.source) {
    case CapacitySource::kMeasuredAnchors: {
      const std::size_t k = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<int>(params_.measured_anchors.size()) - 1));
      capacity = params_.measured_anchors[k] *
                 rng.LogNormal(0.0, params_.anchor_jitter_sigma);
      break;
    }
    case CapacitySource::kChannelModel: {
      PlcPath path;
      path.wire_length_m = rng.Uniform(params_.min_wire_m, params_.max_wire_m);
      path.branch_taps = rng.UniformInt(0, params_.max_branch_taps);
      path.shadowing_db = rng.Normal(0.0, params_.shadowing_sigma_db);
      capacity = channel_.CapacityMbps(path);
      break;
    }
  }
  return std::clamp(capacity, params_.min_capacity_mbps,
                    params_.max_capacity_mbps);
}

std::vector<double> CapacitySampler::SampleMany(std::size_t n,
                                                util::Rng& rng) const {
  std::vector<double> capacities(n);
  for (double& c : capacities) c = Sample(rng);
  return capacities;
}

CapacityEstimator::CapacityEstimator(CapacityEstimatorParams params)
    : params_(params) {
  if (params_.num_probes <= 0) {
    throw std::invalid_argument("need at least one probe");
  }
}

double CapacityEstimator::Estimate(double true_capacity_mbps,
                                   util::Rng& rng) const {
  if (true_capacity_mbps <= 0.0) {
    throw std::invalid_argument("non-positive capacity");
  }
  double sum = 0.0;
  for (int p = 0; p < params_.num_probes; ++p) {
    const double factor =
        std::max(0.01, 1.0 + rng.Normal(0.0, params_.probe_noise_sigma));
    sum += true_capacity_mbps * factor;
  }
  return sum / static_cast<double>(params_.num_probes);
}

}  // namespace wolt::plc
