#include "assign/brute_force.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace wolt::assign {
namespace {

std::uint64_t CheckedPow(std::uint64_t base, std::uint64_t exp,
                         std::uint64_t limit) {
  std::uint64_t result = 1;
  for (std::uint64_t k = 0; k < exp; ++k) {
    if (result > limit / base) return limit + 1;
    result *= base;
  }
  return result;
}

}  // namespace

BruteForceResult SolveBruteForceObjective(
    const model::Network& net, const model::Assignment& pinned,
    const std::function<double(const model::Assignment&)>& objective,
    const BruteForceOptions& options) {
  const std::size_t num_users = net.NumUsers();
  const std::size_t num_ext = net.NumExtenders();
  if (num_ext == 0) throw std::invalid_argument("no extenders");
  if (pinned.NumUsers() != num_users) {
    throw std::invalid_argument("pinned assignment size mismatch");
  }

  std::vector<std::size_t> free_users;
  for (std::size_t i = 0; i < num_users; ++i) {
    if (!pinned.IsAssigned(i)) free_users.push_back(i);
  }

  const std::uint64_t choices =
      static_cast<std::uint64_t>(num_ext) + (options.allow_unassigned ? 1 : 0);
  if (CheckedPow(choices, free_users.size(), options.max_combinations) >
      options.max_combinations) {
    throw std::invalid_argument("brute-force search space too large");
  }

  BruteForceResult result;
  result.best = pinned;
  result.best_aggregate_mbps = 0.0;
  bool found = false;

  model::Assignment current = pinned;
  // Odometer over the free users' choices. Choice num_ext = unassigned.
  std::vector<std::size_t> digit(free_users.size(), 0);
  const std::size_t radix = static_cast<std::size_t>(choices);

  const auto evaluate_current = [&] {
    if (!current.IsValidFor(net)) return;
    if (!options.allow_unassigned && !current.IsCompleteFor(net)) return;
    const double value = objective(current);
    ++result.evaluated;
    if (!found || value > result.best_aggregate_mbps) {
      found = true;
      result.best_aggregate_mbps = value;
      result.best = current;
    }
  };

  while (true) {
    for (std::size_t k = 0; k < free_users.size(); ++k) {
      if (digit[k] < num_ext) {
        current.Assign(free_users[k], digit[k]);
      } else {
        current.Unassign(free_users[k]);
      }
    }
    evaluate_current();
    // Increment odometer.
    std::size_t k = 0;
    while (k < digit.size()) {
      if (++digit[k] < radix) break;
      digit[k] = 0;
      ++k;
    }
    if (k == digit.size()) break;
    if (digit.empty()) break;
  }
  // Degenerate case: no free users — evaluate the pinned assignment once.
  if (free_users.empty() && result.evaluated == 0) evaluate_current();

  if (!found) {
    throw std::runtime_error("no feasible assignment found");
  }
  return result;
}

BruteForceResult SolveBruteForce(const model::Network& net,
                                 const BruteForceOptions& options) {
  const model::Evaluator evaluator(options.eval);
  const model::Assignment none(net.NumUsers());
  model::EvalScratch scratch;
  return SolveBruteForceObjective(
      net, none,
      [&](const model::Assignment& a) {
        return evaluator.Evaluate(net, a, scratch).aggregate_mbps;
      },
      options);
}

}  // namespace wolt::assign
