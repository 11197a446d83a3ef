// The user-association policy interface shared by WOLT and the paper's
// baselines. A policy maps a Network (rates r_ij, capacities c_j) plus the
// current association state to a new association. Online baselines (Greedy,
// RSSI) only place users that are unassigned in `previous` and never touch
// existing ones; WOLT recomputes globally (with stickiness to bound churn);
// Optimal recomputes globally by exhaustive search.
#pragma once

#include <memory>
#include <string>

#include "model/assignment.h"
#include "model/network.h"
#include "util/deadline.h"

namespace wolt::core {

class AssociationPolicy {
 public:
  virtual ~AssociationPolicy() = default;

  virtual std::string Name() const = 0;

  // Produce an association for `net`. `previous` must have the same user
  // count as `net`; users with kUnassigned entries are new arrivals.
  virtual model::Assignment Associate(const model::Network& net,
                                      const model::Assignment& previous) = 0;

  // Convenience: associate from scratch (everyone is a new arrival).
  model::Assignment AssociateFresh(const model::Network& net);

  // True when the policy is a fixed point of rate-only inputs: Associate
  // reads no user demand and no RSSI, and for every network and every
  // valid `p`, Associate(net, Associate(net, p)) == Associate(net, p).
  // The controller then skips re-solving a scan that changed neither the
  // rates nor anything else the solve read. The default, false, makes the
  // controller solve on every scan.
  virtual bool RatesOnlyFixedPoint() const { return false; }

  // Anytime solving (the caller's budget): while a deadline is set,
  // deadline-aware policies (WOLT) poll it inside their solvers and return
  // a best-so-far valid assignment on expiry; policies that are
  // intrinsically fast (Greedy, RSSI) may ignore it. Null (the default) or
  // an unexpired token leave behavior bit-identical to the unbudgeted path.
  // The pointer must stay valid across Associate calls. The controller's
  // ladder never sets one: it prices its rungs in TierCost units.
  void SetDeadline(const util::Deadline* deadline) { deadline_ = deadline; }
  const util::Deadline* deadline() const { return deadline_; }

 protected:
  const util::Deadline* deadline_ = nullptr;
};

using PolicyPtr = std::unique_ptr<AssociationPolicy>;

}  // namespace wolt::core
