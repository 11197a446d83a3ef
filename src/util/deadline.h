// Cooperative wall-clock budget token for anytime solves. The caller that
// wants a time bound on one solve sets it (AssociationPolicy::SetDeadline,
// JointOptions::deadline); the controller's degradation ladder does not,
// since it prices its rungs in clock-free TierCost units.
//
// A Deadline is threaded by pointer through the assign/ solvers (Hungarian,
// Phase-II local search, NLP); each solver polls Expired() at the boundary
// of one bounded unit of work (one Hungarian row augmentation, one user
// relocation scan, one NLP ascent iteration) and, on expiry, stops early
// returning its best-so-far *valid* state. A null pointer means no budget,
// and an unexpired deadline never changes a solver's behaviour — so the
// budgeted path with a generous budget is bit-identical to the unbudgeted
// one (tested by tests/deadline_test.cc).
//
// Expiry is sticky: once Expired() has observed the clock past the
// deadline, every later call returns true without consulting the clock
// again, so a solve that starts truncating keeps truncating even if the
// clock were to misbehave. The flag is mutable so solvers can hold the
// token as `const Deadline*`.
#pragma once

#include <chrono>

namespace wolt::util {

class Deadline {
 public:
  // Default: unlimited — Expired() is always false.
  Deadline() = default;

  // Budget of `seconds` starting now. Non-positive budgets are born
  // expired (deterministic, clock-free — what the adversarial tests use).
  static Deadline After(double seconds) {
    Deadline d;
    d.unlimited_ = false;
    if (seconds <= 0.0) {
      d.expired_ = true;
    } else {
      d.deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(seconds));
    }
    return d;
  }

  bool unlimited() const { return unlimited_; }

  // True once the budget is exhausted; sticky thereafter.
  bool Expired() const {
    if (unlimited_) return false;
    if (!expired_ && std::chrono::steady_clock::now() >= deadline_) {
      expired_ = true;
    }
    return expired_;
  }

 private:
  std::chrono::steady_clock::time_point deadline_{};
  bool unlimited_ = true;
  mutable bool expired_ = false;
};

// Poll helper for optional deadlines: null = no budget.
inline bool DeadlineExpired(const Deadline* d) {
  return d != nullptr && d->Expired();
}

}  // namespace wolt::util
