// WiFi channel assignment for co-located extenders.
//
// The paper assumes each extender operates on a non-overlapping channel and
// therefore interference-free (§V-A, citing [2]). That holds for a handful
// of extenders but not for 15 on one floor with three usable 2.4 GHz
// channels. This module provides the substrate to (a) assign channels so
// that nearby extenders avoid each other (greedy graph colouring on the
// interference graph) and (b) compute the resulting co-channel contention
// domains, which the evaluator can use to scale WiFi cell throughput
// (co-channel cells within carrier-sense range time-share the air).
#pragma once

#include <cstddef>
#include <vector>

#include "model/network.h"

namespace wolt::wifi {

struct ChannelPlanParams {
  // Orthogonal channels available (2.4 GHz: 1/6/11 -> 3; add 5 GHz for
  // more).
  int num_channels = 3;
  // Two extenders on the same channel interfere when closer than this
  // (carrier-sense range; larger than the useful data range).
  double interference_range_m = 60.0;
};

// Interference graph edges: pairs of extender indices within range.
std::vector<std::pair<std::size_t, std::size_t>> InterferenceEdges(
    const model::Network& net, double interference_range_m);

// Greedy colouring, highest-degree-first (Welsh-Powell, ties by id):
// returns channel index in [0, num_channels) per extender. Each vertex
// takes the lowest free channel; when its neighbourhood exhausts all
// channels it receives the least-used channel among its neighbours
// (graceful degradation rather than failure). This is
// AssignChannelsWeighted with unit weights.
std::vector<int> AssignChannels(const model::Network& net,
                                const ChannelPlanParams& params = {});

// Association-weighted recolouring for the joint solver: each extender
// carries a weight (e.g. its current WiFi cell demand or user load) and the
// colouring (a) orders vertices by descending weighted interference degree
// (sum of in-range neighbour weights; ties by id) and (b) gives each vertex
// the channel minimizing the summed weight of its same-channel neighbours
// (ties to the lowest channel index). Any equal positive weight picks
// exactly the plan AssignChannels picks. `weights` must have one
// non-negative entry per extender.
std::vector<int> AssignChannelsWeighted(const model::Network& net,
                                        const std::vector<double>& weights,
                                        const ChannelPlanParams& params = {});

// All extenders on one channel (worst case baseline).
std::vector<int> SameChannelPlan(const model::Network& net);

// Connected components of the co-channel interference graph. Component
// ids are returned per extender; extenders alone on their channel (or out
// of range of same-channel peers) form singleton components.
std::vector<int> ContentionDomains(const model::Network& net,
                                   const std::vector<int>& channels,
                                   double interference_range_m);

// Number of same-channel conflicts (interference edges whose endpoints
// share a channel) — the quantity colouring minimizes.
std::size_t CountConflicts(const model::Network& net,
                           const std::vector<int>& channels,
                           double interference_range_m);

}  // namespace wolt::wifi
