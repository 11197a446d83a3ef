#include "core/greedy.h"

#include <stdexcept>
#include <vector>

namespace wolt::core {

model::Assignment GreedyPolicy::Associate(const model::Network& net,
                                          const model::Assignment& previous) {
  if (previous.NumUsers() != net.NumUsers()) {
    throw std::invalid_argument("previous assignment size mismatch");
  }
  model::Assignment assign = previous;
  std::vector<int> load = assign.LoadVector(net.NumExtenders());
  // One scratch for every candidate: the SoA view is built once per call.
  model::EvalScratch scratch;

  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    // Anytime contract: each placed user leaves a valid partial assignment,
    // so stopping between users on deadline expiry is always safe.
    if (util::DeadlineExpired(deadline_)) break;
    if (assign.IsAssigned(i)) continue;
    int best = -1;
    double best_aggregate = -1.0;
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (net.WifiRate(i, j) <= 0.0) continue;
      const int cap = net.MaxUsers(j);
      if (cap > 0 && load[j] >= cap) continue;
      assign.Assign(i, j);
      const double aggregate =
          evaluator_.Evaluate(net, assign, scratch).aggregate_mbps;
      assign.Unassign(i);
      if (aggregate > best_aggregate) {
        best_aggregate = aggregate;
        best = static_cast<int>(j);
      }
    }
    if (best >= 0) {
      assign.Assign(i, static_cast<std::size_t>(best));
      ++load[static_cast<std::size_t>(best)];
    }
  }
  return assign;
}

}  // namespace wolt::core
