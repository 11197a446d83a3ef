// PLC link capacity sources and the offline capacity estimator.
//
// Two ways to obtain the per-extender c_j that WOLT needs:
//  * CapacitySampler — draws capacities matching the paper's calibration
//    data: either from the measured anchors of Fig. 2b (60/90/120/160 Mbit/s
//    with lognormal spread, "calibrated with PLC link capacities measured
//    from different outlets in a university building", §V-A) or from the
//    physical ChannelModel with randomly drawn wire runs.
//  * CapacityEstimator — emulates the paper's offline estimation procedure
//    (§V-A): saturate the link iperf3-style k times and use the mean probe
//    throughput; models the measurement noise a real deployment would see.
#pragma once

#include <vector>

#include "plc/channel.h"
#include "util/rng.h"

namespace wolt::plc {

enum class CapacitySource {
  kMeasuredAnchors,  // resample the Fig. 2b anchor set with jitter
  kChannelModel,     // draw wire length/branch taps, run ChannelModel
};

struct CapacitySamplerParams {
  CapacitySource source = CapacitySource::kMeasuredAnchors;
  // Fig. 2b: isolation throughputs of the four measured outlets (Mbit/s).
  std::vector<double> measured_anchors = {60.0, 90.0, 120.0, 160.0};
  // Lognormal jitter applied to an anchor (sigma of log-scale).
  double anchor_jitter_sigma = 0.12;
  // ChannelModel draw ranges.
  double min_wire_m = 5.0;
  double max_wire_m = 60.0;
  int max_branch_taps = 3;
  double shadowing_sigma_db = 2.0;
  // Clamp for sampled capacities (keeps the simulator inside the regime the
  // paper measured).
  double min_capacity_mbps = 20.0;
  double max_capacity_mbps = 200.0;
};

class CapacitySampler {
 public:
  explicit CapacitySampler(CapacitySamplerParams params = {});

  // One PLC link capacity c_j in Mbit/s.
  double Sample(util::Rng& rng) const;

  // Capacities for a whole building (n extenders).
  std::vector<double> SampleMany(std::size_t n, util::Rng& rng) const;

  const CapacitySamplerParams& params() const { return params_; }

 private:
  CapacitySamplerParams params_;
  ChannelModel channel_;
};

struct CapacityEstimatorParams {
  int num_probes = 5;
  // Multiplicative noise per probe: probe = truth * (1 + Normal(0, sigma)).
  double probe_noise_sigma = 0.05;
};

class CapacityEstimator {
 public:
  explicit CapacityEstimator(CapacityEstimatorParams params = {});

  // Estimate a link's capacity from noisy saturation probes of the true
  // value. Always positive.
  double Estimate(double true_capacity_mbps, util::Rng& rng) const;

 private:
  CapacityEstimatorParams params_;
};

}  // namespace wolt::plc
