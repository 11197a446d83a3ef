#include "wifi/channels.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>

namespace wolt::wifi {

std::vector<std::pair<std::size_t, std::size_t>> InterferenceEdges(
    const model::Network& net, double interference_range_m) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t a = 0; a < net.NumExtenders(); ++a) {
    for (std::size_t b = a + 1; b < net.NumExtenders(); ++b) {
      const double d = model::Distance(net.ExtenderAt(a).position,
                                       net.ExtenderAt(b).position);
      if (d <= interference_range_m) edges.emplace_back(a, b);
    }
  }
  return edges;
}

std::vector<int> AssignChannels(const model::Network& net,
                                const ChannelPlanParams& params) {
  return AssignChannelsWeighted(
      net, std::vector<double>(net.NumExtenders(), 1.0), params);
}

std::vector<int> AssignChannelsWeighted(const model::Network& net,
                                        const std::vector<double>& weights,
                                        const ChannelPlanParams& params) {
  if (params.num_channels <= 0) {
    throw std::invalid_argument("need at least one channel");
  }
  const std::size_t n = net.NumExtenders();
  if (weights.size() != n) {
    throw std::invalid_argument("weight vector size mismatch");
  }
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("negative extender weight");
  }
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& [a, b] :
       InterferenceEdges(net, params.interference_range_m)) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }

  // Weighted interference degree: how much neighbour traffic a vertex would
  // contend with if it collided with everyone. Heaviest-conflict vertices
  // colour first, so they get first pick of clean channels.
  std::vector<double> wdeg(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t u : adj[v]) wdeg[v] += weights[u];
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (wdeg[a] != wdeg[b]) return wdeg[a] > wdeg[b];
    return a < b;
  });

  std::vector<int> channel(n, -1);
  std::vector<double> used_weight(static_cast<std::size_t>(params.num_channels),
                                  0.0);
  for (std::size_t v : order) {
    std::fill(used_weight.begin(), used_weight.end(), 0.0);
    for (std::size_t u : adj[v]) {
      if (channel[u] >= 0) {
        used_weight[static_cast<std::size_t>(channel[u])] += weights[u];
      }
    }
    // Channel with the least already-committed neighbour weight; strict <
    // keeps the lowest index on ties (deterministic).
    int best = 0;
    for (int c = 1; c < params.num_channels; ++c) {
      if (used_weight[static_cast<std::size_t>(c)] <
          used_weight[static_cast<std::size_t>(best)]) {
        best = c;
      }
    }
    channel[v] = best;
  }
  return channel;
}

std::vector<int> SameChannelPlan(const model::Network& net) {
  return std::vector<int>(net.NumExtenders(), 0);
}

std::vector<int> ContentionDomains(const model::Network& net,
                                   const std::vector<int>& channels,
                                   double interference_range_m) {
  if (channels.size() != net.NumExtenders()) {
    throw std::invalid_argument("channel vector size mismatch");
  }
  const std::size_t n = net.NumExtenders();
  // Union-find over same-channel interference edges.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<std::size_t(std::size_t)> find =
      [&](std::size_t x) -> std::size_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const auto& [a, b] : InterferenceEdges(net, interference_range_m)) {
    if (channels[a] == channels[b]) parent[find(a)] = find(b);
  }
  std::vector<int> domain(n, -1);
  int next_id = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t root = find(v);
    if (domain[root] < 0) domain[root] = next_id++;
    domain[v] = domain[root];
  }
  return domain;
}

std::size_t CountConflicts(const model::Network& net,
                           const std::vector<int>& channels,
                           double interference_range_m) {
  if (channels.size() != net.NumExtenders()) {
    throw std::invalid_argument("channel vector size mismatch");
  }
  std::size_t conflicts = 0;
  for (const auto& [a, b] : InterferenceEdges(net, interference_range_m)) {
    if (channels[a] == channels[b]) ++conflicts;
  }
  return conflicts;
}

}  // namespace wolt::wifi
