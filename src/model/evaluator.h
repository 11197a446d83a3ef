// Flow-level throughput engine: given a Network and an Assignment, compute
// what every user and extender actually achieves end-to-end.
//
// Model (§III-A / §IV-A of the paper):
//  * WiFi cell of extender j is throughput-fair (802.11 performance-anomaly
//    behaviour, Eq. 1): every associated user gets the same WiFi throughput,
//    so the cell's aggregate is T_WiFi_j = |N_j| / sum_{i in N_j} 1/r_ij.
//  * The PLC backhaul is one time-fair contention domain shared by the
//    *active* extenders. Under the real (evaluation) model, airtime unused
//    by an extender whose WiFi demand is below its share is re-allocated
//    max-min fairly (Fig. 3c); under the planning model used inside the
//    optimization (Eq. 2), each active extender gets exactly 1/k of airtime.
//  * Extender j's end-to-end throughput is min(T_WiFi_j, t_j * c_j), split
//    equally among its users (saturated TCP fair sharing).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/assignment.h"
#include "model/network.h"
#include "model/soa.h"

namespace wolt::model {

enum class Bottleneck {
  kIdle,      // no users associated
  kWifi,      // WiFi cell throughput below the PLC share
  kPlc,       // PLC share below the WiFi cell throughput
  kBalanced,  // equal within tolerance
};

const char* ToString(Bottleneck b);

// How the single PLC contention domain divides airtime between extenders.
enum class PlcSharing {
  // Max-min fair airtime over the *active* extenders with demand caps —
  // what the measurement study's hardware actually does (Fig. 2c time
  // fairness + the Fig. 3c leftover re-allocation). The physical default.
  kMaxMinActive,
  // Strict 1/k shares over the active extenders, no leftover
  // redistribution (ablation Abl-1).
  kEqualActive,
  // The paper's Problem-1 planning model taken literally: T_PLC_j =
  // c_j / |A| with |A| = ALL extenders, idle or not (constraint (4)).
  // Under this model activating every extender is always worthwhile, which
  // is the regime in which the paper's simulation results (Fig. 6) arise.
  kEqualAll,
};

const char* ToString(PlcSharing s);

struct EvalOptions {
  PlcSharing plc_sharing = PlcSharing::kMaxMinActive;
  // Optional co-channel WiFi contention. Empty (default) models the paper's
  // assumption that every extender has its own channel. When set (one
  // domain id per extender, e.g. from wifi::ContentionDomains), active
  // cells sharing a domain time-share the air: each cell's WiFi throughput
  // is divided by the number of active cells in its domain.
  std::vector<int> wifi_contention_domain;
  // Channel-plan mode: one channel index per extender (>= 0). Contention
  // domains are *derived* — connected components of the "same channel AND
  // within carrier_sense_range_m" graph over extender positions — then fed
  // through the same co-channel airtime machinery as
  // wifi_contention_domain. A plan in which no two co-channel extenders are
  // in carrier-sense range (in particular, any all-distinct plan) yields
  // singleton domains and is bit-identical to the legacy evaluator.
  // Mutually exclusive with wifi_contention_domain.
  std::vector<int> wifi_channel;
  // Carrier-sense range for deriving co-channel contention from geometry.
  double carrier_sense_range_m = 60.0;
};

struct ExtenderReport {
  int num_users = 0;
  double wifi_throughput_mbps = 0.0;  // T_WiFi_j
  double plc_time_share = 0.0;        // t_j
  double plc_throughput_mbps = 0.0;   // t_j * c_j (capacity made available)
  double end_to_end_mbps = 0.0;       // min(T_WiFi_j, t_j * c_j)
  Bottleneck bottleneck = Bottleneck::kIdle;
};

struct EvalResult {
  std::vector<ExtenderReport> extenders;
  std::vector<double> user_throughput_mbps;  // 0 for unassigned users
  double aggregate_mbps = 0.0;               // objective (3) of Problem 1
  int active_extenders = 0;
};

// Reusable workspace for Evaluator::Evaluate. Holding one of these across
// calls makes the saturated (no per-user demands) path allocation-free in
// steady state: every buffer, including the result, keeps its capacity
// between evaluations. The contents are owned by the evaluator between
// calls; only `result` is meaningful to callers.
struct EvalScratch {
  EvalResult result;

  // Cached SoA view of the last evaluated network; rebuilt only when the
  // network's Version() changed (the saturated fast path reads rates,
  // domains and the PLC-domain CSR from here instead of the Network).
  NetworkSoA soa;

  // Per-extender accumulators.
  std::vector<double> inv_rate_sum;
  std::vector<int> load;
  std::vector<double> peers;
  std::vector<double> wifi_demand;
  std::vector<double> plc_rates;
  std::vector<double> time_share;
  std::vector<unsigned char> dead_backhaul;

  // Per-domain bookkeeping (CSR grouping of extenders by PLC domain).
  std::vector<int> domain_start;  // size = num_domains + 1
  std::vector<int> domain_items;  // size = num_extenders
  std::vector<int> domain_size;
  std::vector<int> domain_active;
  std::vector<int> active_in_wifi_domain;

  // Channel-plan mode: derived co-channel contention domains (one id per
  // extender) plus the cache key they were computed under. Deriving runs a
  // union-find over extender pairs, so it is cached on (network Version,
  // plan, carrier-sense range) and reused while none of those change.
  std::vector<int> channel_domains;
  std::vector<int> channel_parent;      // union-find scratch
  std::vector<int> chan_cache_plan;
  double chan_cache_range = 0.0;
  std::uint64_t chan_cache_version = 0;
  bool chan_cache_valid = false;

  // Max-min progressive-filling index buffer (two-pointer compaction).
  std::vector<std::size_t> mm_idx;

  // Demand-path buffers (allocate only when finite demands are present).
  std::vector<std::vector<std::size_t>> cell_users;
  std::vector<std::vector<double>> cell_caps;
  std::vector<double> tmp_rates;
  std::vector<double> tmp_demands;
};

class Evaluator {
 public:
  explicit Evaluator(EvalOptions options = {}) : options_(options) {}

  // Full per-user / per-extender report. Throws std::invalid_argument if an
  // assigned user has zero WiFi rate to its extender or the assignment
  // references an unknown extender. One-shot: runs EvaluateReference on a
  // call-local scratch (no SoA view is built for a single evaluation).
  EvalResult Evaluate(const Network& net, const Assignment& assign) const;

  // Hot-path variant: evaluates into `scratch` and returns scratch.result.
  // No heap allocation on the saturated path once the scratch has warmed up.
  // Uses the structure-of-arrays kernel on the saturated path (contiguous
  // reciprocal-rate rows, cached PLC-domain CSR); results are bit-identical
  // to EvaluateReference in every field.
  const EvalResult& Evaluate(const Network& net, const Assignment& assign,
                             EvalScratch& scratch) const;

  // The straight-line reference implementation (per-user Network accessor
  // walks, CSR rebuilt per call). Kept as the differential baseline for the
  // SoA kernel (tests/evaluator_soa_test.cc), as the path for
  // demand-carrying evaluations, and as the one-shot path behind the
  // scratch-less Evaluate and AggregateThroughput: for a single evaluation
  // its O(U + E) walk is cheaper than building the O(U x E) SoA view. Same
  // results, same exceptions.
  const EvalResult& EvaluateReference(const Network& net,
                                      const Assignment& assign,
                                      EvalScratch& scratch) const;

  // Aggregate end-to-end throughput only (same computation, convenience;
  // one-shot like the scratch-less Evaluate).
  double AggregateThroughput(const Network& net,
                             const Assignment& assign) const;

  const EvalOptions& options() const { return options_; }

  // Resolves the per-extender co-channel WiFi contention domains for this
  // evaluation, or nullptr when neither wifi_contention_domain nor
  // wifi_channel is set (the paper's orthogonal assumption). Explicit
  // domains are returned as-is; a channel plan is turned into domains by
  // union-find over co-channel extender pairs within carrier-sense range,
  // cached in `scratch` keyed on (Version, plan, range). Throws
  // std::invalid_argument on malformed options (both modes set, wrong
  // sizes, negative ids). Public so IncrementalEvaluator contends over
  // exactly the domains Evaluate uses.
  const std::vector<int>* ResolveWifiDomains(const Network& net,
                                             EvalScratch& scratch) const;

 private:
  EvalOptions options_;
};

namespace detail {

// Max-min fair airtime over the extenders listed in `members` (progressive
// filling with demand caps, §III-A / Fig. 3c). Same arithmetic as
// plc::MaxMinTimeShare but operating in place on per-extender arrays with a
// caller-provided index buffer (size >= count), so hot paths never
// allocate. Shared by Evaluator and IncrementalEvaluator so both engines
// produce bit-identical airtime shares.
void MaxMinSharesInPlace(const int* members, std::size_t count,
                         const double* rates, const double* demands,
                         double* time_share, std::size_t* idx);

// Strict 1/k shares over the domain's extenders. `denominator_all` selects
// the kEqualAll planning model (count idle extenders in the denominator).
void EqualSharesInPlace(const int* members, std::size_t count,
                        const double* demands, double* time_share,
                        bool denominator_all);

}  // namespace detail

// The aggregate WiFi cell throughput T_WiFi_j for one extender given the
// WiFi rates of its associated users (Eq. 1). Exposed for the Phase-II
// solver which works purely on the WiFi side. Rates must all be positive.
double WifiCellThroughput(const std::vector<double>& user_rates);

// Demand-aware generalisation of Eq. 1: 802.11's long-term behaviour is an
// equal-throughput level x across backlogged users, constrained by the
// cell's unit airtime (sum x/r_i <= 1); users whose offered load d_i is
// below the level are capped at d_i and release their airtime. demand 0
// means saturated. Reduces exactly to Eq. 1 when everyone is saturated.
struct CellAllocation {
  std::vector<double> user_throughput_mbps;
  double total_mbps = 0.0;
};
// `airtime` (fraction of the second the cell owns, 1.0 unless co-channel
// contention shrinks it) scales the airtime budget.
CellAllocation WifiCellAllocation(const std::vector<double>& user_rates,
                                  const std::vector<double>& demands_mbps,
                                  double airtime = 1.0);

// Max-min fair division of `total` among users with finite caps: the TCP
// re-sharing step when the PLC segment throttles a cell below its WiFi
// throughput. The result sums to min(total, sum of caps).
std::vector<double> MaxMinWithCaps(const std::vector<double>& caps,
                                   double total);

}  // namespace wolt::model
