#include "core/controller.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/greedy.h"
#include "core/wolt.h"
#include "obs/obs.h"
#include "util/codec.h"

namespace wolt::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// printf's %g: six significant digits, fixed or scientific, whichever the
// exponent calls for.
void AppendDouble(std::string* out, double x) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), x,
                               std::chars_format::general, 6);
  out->append(buf, r.ptr);
}

void AppendInt(std::string* out, std::int64_t x) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), x);
  out->append(buf, r.ptr);
}

void AppendDoubles(std::string* out, const std::vector<double>& xs) {
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (k) out->push_back(',');
    AppendDouble(out, xs[k]);
  }
}

// stod and stoll accept one leading '+', from_chars does not. Strip it
// unless a sign follows: "+-5" stays malformed.
std::string_view StripPlus(std::string_view s) {
  if (s.size() > 1 && s[0] == '+' && s[1] != '+' && s[1] != '-') {
    s.remove_prefix(1);
  }
  return s;
}

// Strict numeric parsers: the whole token must be consumed and the value
// must be finite and in range. They accept exactly what std::stod/stoll
// accept as a whole token.
std::optional<double> ParseDouble(std::string_view s) {
  // Whitelist plain decimal syntax first: strtod also accepts hex floats
  // ("0x10"), leading whitespace and nan/inf spellings, none of which are
  // legal on this wire.
  if (s.empty() ||
      s.find_first_not_of("0123456789.+-eE") != std::string_view::npos) {
    return std::nullopt;
  }
  s = StripPlus(s);
  double value = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || end != s.data() + s.size() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  // from_chars takes subnormal results, and values that round up to
  // DBL_MIN. glibc's strtod flags both with ERANGE, since it detects
  // tininess before rounding, and stod rejected them. Ask strtod on this
  // rare path so the accepted set stays the same.
  if (value != 0.0 && std::fabs(value) <= DBL_MIN) {
    const std::string copy(s);
    errno = 0;
    std::strtod(copy.c_str(), nullptr);
    if (errno == ERANGE) return std::nullopt;
  }
  return value;
}

std::optional<std::int64_t> ParseInt64(std::string_view s) {
  s = StripPlus(s);
  std::int64_t value = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || end != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<int> ParseInt(std::string_view s) {
  const auto wide = ParseInt64(s);
  if (!wide || *wide < std::numeric_limits<int>::min() ||
      *wide > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(*wide);
}

// Appends a comma-separated list of at least one ParseDouble value to
// `out`. An empty item (",," or a trailing comma) is malformed, and so is
// "rates=": it carries no measurement.
bool ParseDoubles(std::string_view csv, std::vector<double>* out) {
  if (csv.empty() || csv.back() == ',') return false;
  out->reserve(static_cast<std::size_t>(
                   std::count(csv.begin(), csv.end(), ',')) + 1);
  for (;;) {
    const std::size_t comma = csv.find(',');
    const auto value = ParseDouble(csv.substr(0, comma));
    if (!value) return false;
    out->push_back(*value);
    if (comma == std::string_view::npos) return true;
    csv.remove_prefix(comma + 1);
  }
}

// The whitespace set operator>> splits on in the C locale.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Pops the next whitespace-delimited token off the front of `rest`. An
// empty token means the line is used up.
std::string_view NextToken(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() && IsSpace(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !IsSpace(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

// The values of one message line's key=value tokens, indexed like the key
// list passed to ParseFields; a key the line does not carry has none.
template <std::size_t N>
using Fields = std::array<std::optional<std::string_view>, N>;

// Splits a message line after its type word, which must be `type`. Every
// other token must be key=value with a key from `keys`. Unknown keys are
// trailing garbage in disguise (a corrupted or spliced line), not
// forward-compatible extensions, and a duplicate key is a wire fault, not
// a last-writer-wins merge.
template <std::size_t N>
std::optional<Fields<N>> ParseFields(std::string_view line,
                                     std::string_view type,
                                     const std::string_view (&keys)[N]) {
  if (NextToken(line) != type) return std::nullopt;
  Fields<N> fields;
  for (std::string_view token = NextToken(line); !token.empty();
       token = NextToken(line)) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) return std::nullopt;
    std::size_t k = 0;
    while (k < N && keys[k] != token.substr(0, eq)) ++k;
    if (k == N || fields[k]) return std::nullopt;
    fields[k] = token.substr(eq + 1);
  }
  return fields;
}

bool AllNonNegative(const std::vector<double>& xs) {
  return std::all_of(xs.begin(), xs.end(), [](double x) { return x >= 0.0; });
}

// Counts the rung that served one reoptimization epoch (ctrl.reopt.tier.*).
void CountServedTier(ReoptTier tier) {
  obs::MetricsScope* s = obs::CurrentScope();
  if (s == nullptr) return;
  switch (tier) {
    case ReoptTier::kFull: s->ctrl.reopt_tier_full.Add(1); break;
    case ReoptTier::kHungarianOnly: s->ctrl.reopt_tier_hungarian.Add(1); break;
    case ReoptTier::kGreedy: s->ctrl.reopt_tier_greedy.Add(1); break;
    case ReoptTier::kHoldLastGood: s->ctrl.reopt_tier_hold.Add(1); break;
  }
}

// The kHungarianOnly rung: WOLT Phase I + sticky greedy Phase II without
// the local-search polish — the polynomial core of the paper's algorithm.
PolicyPtr MakeHungarianOnlyPolicy() {
  WoltOptions wopt;
  wopt.local_search = false;
  wopt.sticky = true;
  return std::make_unique<WoltPolicy>(wopt);
}

}  // namespace

const char* ToString(HandleStatus s) {
  switch (s) {
    case HandleStatus::kOk: return "ok";
    case HandleStatus::kMalformed: return "malformed";
    case HandleStatus::kDuplicateUser: return "duplicate-user";
    case HandleStatus::kUnknownUser: return "unknown-user";
    case HandleStatus::kUnknownExtender: return "unknown-extender";
    case HandleStatus::kIgnoredStale: return "ignored-stale";
  }
  return "?";
}

const char* ToString(ErrorCategory c) {
  switch (c) {
    case ErrorCategory::kNone: return "none";
    case ErrorCategory::kWireFault: return "wire-fault";
    case ErrorCategory::kStateConflict: return "state-conflict";
    case ErrorCategory::kProgrammingError: return "programming-error";
  }
  return "?";
}

ErrorCategory CategoryOf(HandleStatus s) {
  switch (s) {
    case HandleStatus::kOk:
      return ErrorCategory::kNone;
    case HandleStatus::kMalformed:
      return ErrorCategory::kWireFault;
    case HandleStatus::kDuplicateUser:
    case HandleStatus::kUnknownUser:
    case HandleStatus::kUnknownExtender:
    case HandleStatus::kIgnoredStale:
      return ErrorCategory::kStateConflict;
  }
  return ErrorCategory::kProgrammingError;
}

const char* ToString(ReoptTier t) {
  switch (t) {
    case ReoptTier::kFull: return "full";
    case ReoptTier::kHungarianOnly: return "hungarian-only";
    case ReoptTier::kGreedy: return "greedy";
    case ReoptTier::kHoldLastGood: return "hold-last-good";
  }
  return "?";
}

std::size_t TierCost(ReoptTier tier) {
  switch (tier) {
    case ReoptTier::kFull:
      return 4;
    case ReoptTier::kHungarianOnly:
      return 3;
    case ReoptTier::kGreedy:
      return 2;
    case ReoptTier::kHoldLastGood:
      return 1;
  }
  return 1;
}

ReoptTier TierForBudgetUnits(int units) {
  if (units <= 0) return ReoptTier::kFull;
  const auto u = static_cast<std::size_t>(units);
  if (u >= TierCost(ReoptTier::kFull)) return ReoptTier::kFull;
  if (u >= TierCost(ReoptTier::kHungarianOnly)) {
    return ReoptTier::kHungarianOnly;
  }
  if (u >= TierCost(ReoptTier::kGreedy)) return ReoptTier::kGreedy;
  return ReoptTier::kHoldLastGood;
}

std::string Encode(const ScanReport& msg) {
  std::string out = "SCAN user=";
  // Room for the longest fixed fields, and for every %g value (at most 13
  // characters) with its separator.
  out.reserve(96 + 14 * (msg.rates_mbps.size() + msg.rssi_dbm.size()));
  AppendInt(&out, msg.user_id);
  out += " rates=";
  AppendDoubles(&out, msg.rates_mbps);
  if (!msg.rssi_dbm.empty()) {
    out += " rssi=";
    AppendDoubles(&out, msg.rssi_dbm);
  }
  if (msg.associated_extender) {
    out += " assoc=";
    AppendInt(&out, *msg.associated_extender);
  }
  if (msg.demand_mbps) {
    out += " demand=";
    AppendDouble(&out, *msg.demand_mbps);
  }
  return out;
}

std::string Encode(const AssociationDirective& msg) {
  std::string out = "DIRECTIVE user=";
  AppendInt(&out, msg.user_id);
  out += " extender=";
  AppendInt(&out, msg.extender);
  return out;
}

std::string Encode(const DirectiveAck& msg) {
  std::string out = "ACK user=";
  AppendInt(&out, msg.user_id);
  out += " extender=";
  AppendInt(&out, msg.extender);
  return out;
}

std::string Encode(const DepartureNotice& msg) {
  std::string out = "DEPART user=";
  AppendInt(&out, msg.user_id);
  return out;
}

std::string Encode(const CapacityReport& msg) {
  std::string out = "CAPACITY extender=";
  AppendInt(&out, msg.extender);
  out += " mbps=";
  AppendDouble(&out, msg.capacity_mbps);
  return out;
}

std::optional<ScanReport> DecodeScanReport(const std::string& line) {
  const auto fields =
      ParseFields(line, "SCAN", {"user", "rates", "rssi", "assoc", "demand"});
  if (!fields) return std::nullopt;
  const auto& [user, rates, rssi, assoc, demand] = *fields;
  if (!user || !rates) return std::nullopt;
  ScanReport msg;
  const auto id = ParseInt64(*user);
  if (!id) return std::nullopt;
  msg.user_id = *id;
  if (!ParseDoubles(*rates, &msg.rates_mbps) ||
      !AllNonNegative(msg.rates_mbps)) {
    return std::nullopt;
  }
  if (rssi && (!ParseDoubles(*rssi, &msg.rssi_dbm) ||
               msg.rssi_dbm.size() != msg.rates_mbps.size())) {
    return std::nullopt;
  }
  if (assoc) {
    const auto extender = ParseInt(*assoc);
    if (!extender || *extender < -1) return std::nullopt;
    msg.associated_extender = *extender;
  }
  if (demand) {
    const auto mbps = ParseDouble(*demand);
    if (!mbps || *mbps < 0.0) return std::nullopt;
    msg.demand_mbps = *mbps;
  }
  return msg;
}

std::optional<AssociationDirective> DecodeAssociationDirective(
    const std::string& line) {
  const auto fields = ParseFields(line, "DIRECTIVE", {"user", "extender"});
  if (!fields) return std::nullopt;
  const auto& [user, extender] = *fields;
  if (!user || !extender) return std::nullopt;
  const auto id = ParseInt64(*user);
  const auto ext = ParseInt(*extender);
  if (!id || !ext || *ext < 0) return std::nullopt;
  return AssociationDirective{*id, *ext};
}

std::optional<DirectiveAck> DecodeDirectiveAck(const std::string& line) {
  const auto fields = ParseFields(line, "ACK", {"user", "extender"});
  if (!fields) return std::nullopt;
  const auto& [user, extender] = *fields;
  if (!user || !extender) return std::nullopt;
  const auto id = ParseInt64(*user);
  const auto ext = ParseInt(*extender);
  if (!id || !ext || *ext < 0) return std::nullopt;
  return DirectiveAck{*id, *ext};
}

std::optional<DepartureNotice> DecodeDepartureNotice(const std::string& line) {
  const auto fields = ParseFields(line, "DEPART", {"user"});
  if (!fields) return std::nullopt;
  const auto& [user] = *fields;
  if (!user) return std::nullopt;
  const auto id = ParseInt64(*user);
  if (!id) return std::nullopt;
  return DepartureNotice{*id};
}

std::optional<CapacityReport> DecodeCapacityReport(const std::string& line) {
  const auto fields = ParseFields(line, "CAPACITY", {"extender", "mbps"});
  if (!fields) return std::nullopt;
  const auto& [extender, mbps] = *fields;
  if (!extender || !mbps) return std::nullopt;
  const auto ext = ParseInt(*extender);
  const auto capacity = ParseDouble(*mbps);
  if (!ext || *ext < 0 || !capacity || *capacity < 0.0) return std::nullopt;
  return CapacityReport{*ext, *capacity};
}

CentralController::CentralController(std::size_t num_extenders,
                                     PolicyPtr policy, RetryParams retry,
                                     QuarantineParams quarantine)
    : net_(0, num_extenders),
      policy_(std::move(policy)),
      greedy_(std::make_unique<GreedyPolicy>()),
      hungarian_only_(MakeHungarianOnlyPolicy()),
      retry_(retry),
      quarantine_(quarantine),
      last_capacity_(num_extenders, -kInf),
      flap_(num_extenders) {
  if (num_extenders == 0) throw std::invalid_argument("no extenders");
  if (!policy_) throw std::invalid_argument("null policy");
}

void CentralController::AdvanceTime(double now) {
  if (std::isfinite(now)) now_ = std::max(now_, now);
  // Release quarantined backhauls that have been flap-free long enough;
  // their last reported capacity (tracked while quarantined) comes back.
  for (std::size_t j = 0; j < flap_.size(); ++j) {
    FlapState& f = flap_[j];
    if (!f.quarantined || now_ < f.release_at) continue;
    f.quarantined = false;
    f.flips.clear();
    net_.SetPlcRate(j, f.held_capacity);
    ++quarantine_releases_;
    if (obs::MetricsScope* s = obs::CurrentScope()) {
      s->ctrl.quarantine_releases.Add(1);
    }
  }
}

bool CentralController::IsQuarantined(int extender) const {
  if (extender < 0 ||
      static_cast<std::size_t>(extender) >= flap_.size()) {
    return false;
  }
  return flap_[static_cast<std::size_t>(extender)].quarantined;
}

HandleStatus CentralController::HandleCapacityReport(
    const CapacityReport& report) {
  if (report.extender < 0 ||
      static_cast<std::size_t>(report.extender) >= net_.NumExtenders()) {
    return HandleStatus::kUnknownExtender;
  }
  if (!std::isfinite(report.capacity_mbps) || report.capacity_mbps < 0.0) {
    return HandleStatus::kMalformed;
  }
  const std::size_t ext = static_cast<std::size_t>(report.extender);
  last_capacity_[ext] = now_;

  if (quarantine_.flap_threshold > 0) {
    FlapState& f = flap_[ext];
    const int up = report.capacity_mbps > 0.0 ? 1 : 0;
    if (f.last_up >= 0 && up != f.last_up) {
      f.flips.push_back(now_);
      // Drop transitions that fell out of the sliding window.
      const double cutoff = now_ - quarantine_.window;
      f.flips.erase(std::remove_if(f.flips.begin(), f.flips.end(),
                                   [&](double t) { return t < cutoff; }),
                    f.flips.end());
      if (f.quarantined) {
        // Hysteresis: flapping while quarantined restarts the hold clock.
        f.release_at = now_ + quarantine_.hold;
      } else if (static_cast<int>(f.flips.size()) >=
                 quarantine_.flap_threshold) {
        f.quarantined = true;
        f.release_at = now_ + quarantine_.hold;
        ++quarantine_trips_;
        if (obs::MetricsScope* s = obs::CurrentScope()) {
          s->ctrl.quarantine_trips.Add(1);
        }
      }
    }
    f.last_up = up;
    if (f.quarantined) {
      // Planning sees a dead link; remember what was reported so release
      // restores the freshest estimate.
      f.held_capacity = report.capacity_mbps;
      net_.SetPlcRate(ext, 0.0);
      return HandleStatus::kOk;
    }
  }

  net_.SetPlcRate(ext, report.capacity_mbps);
  return HandleStatus::kOk;
}

HandleStatus CentralController::ValidateScan(const ScanReport& report) const {
  if (report.rates_mbps.size() != net_.NumExtenders()) {
    return HandleStatus::kMalformed;
  }
  for (double r : report.rates_mbps) {
    if (!std::isfinite(r) || r < 0.0) return HandleStatus::kMalformed;
  }
  if (!report.rssi_dbm.empty()) {
    if (report.rssi_dbm.size() != net_.NumExtenders()) {
      return HandleStatus::kMalformed;
    }
    for (double s : report.rssi_dbm) {
      if (!std::isfinite(s)) return HandleStatus::kMalformed;
    }
  }
  if (report.associated_extender && *report.associated_extender < -1) {
    return HandleStatus::kMalformed;
  }
  if (report.demand_mbps &&
      (!std::isfinite(*report.demand_mbps) || *report.demand_mbps < 0.0)) {
    return HandleStatus::kMalformed;
  }
  return HandleStatus::kOk;
}

void CentralController::ApplyReport(std::size_t index,
                                    const ScanReport& report) {
  for (std::size_t j = 0; j < net_.NumExtenders(); ++j) {
    net_.SetWifiRate(index, j, report.rates_mbps[j]);
    if (!report.rssi_dbm.empty()) {
      net_.SetRssi(index, j, report.rssi_dbm[j]);
    }
  }
  if (report.demand_mbps) net_.SetUserDemand(index, *report.demand_mbps);
  last_scan_[index] = now_;
}

void CentralController::RegisterDirective(const AssociationDirective& d) {
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->ctrl.directives_sent.Add(1);
  }
  pending_[d.user_id] =
      PendingDirective{d.extender, 1, now_ + retry_.initial_backoff};
}

model::Assignment CentralController::EvacuationFallback() const {
  // Keep everyone in place, but unassign users whose extender backhaul is
  // dead (reported zero or quarantined — quarantine forces the rate to 0).
  model::Assignment fallback = assignment_;
  for (std::size_t i = 0; i < net_.NumUsers(); ++i) {
    const int j = fallback.ExtenderOf(i);
    if (j != model::Assignment::kUnassigned &&
        net_.PlcRate(static_cast<std::size_t>(j)) <= 0.0) {
      fallback.Unassign(i);
    }
  }
  return fallback;
}

std::vector<AssociationDirective> CentralController::DiffAndRegister(
    const model::Assignment& before, model::Assignment proposed) {
  assignment_ = std::move(proposed);
  solved_version_ = 0;
  std::vector<AssociationDirective> directives;
  for (std::size_t i = 0; i < net_.NumUsers(); ++i) {
    if (assignment_.IsAssigned(i) &&
        assignment_.ExtenderOf(i) != before.ExtenderOf(i)) {
      directives.push_back({id_of_index_[i], assignment_.ExtenderOf(i)});
    }
  }
  for (const auto& d : directives) RegisterDirective(d);
  return directives;
}

bool CentralController::GuardTrips(const model::Assignment& candidate,
                                   const model::Assignment& baseline) const {
  // Policies plan under their own sharing model, which can diverge from the
  // physical evaluator. Never deploy a reoptimization that scores below the
  // trivial fallback of keeping everyone in place and evacuating users
  // whose extender backhaul reports zero capacity.
  const model::Evaluator eval;
  const bool trips = eval.AggregateThroughput(net_, candidate) + 1e-9 <
                     eval.AggregateThroughput(net_, baseline);
  if (obs::MetricsScope* s = obs::CurrentScope(); s && trips) {
    s->ctrl.reopt_guard_trips.Add(1);
  }
  return trips;
}

std::vector<AssociationDirective> CentralController::RunPolicy() {
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->ctrl.policy_runs.Add(1);
  }
  // No do-no-harm guard here, unlike the reoptimization epochs: admitting a
  // weak user legitimately lowers a max-min aggregate, and vetoing that
  // would strand the user forever.
  const model::Assignment before = assignment_;
  std::vector<AssociationDirective> directives =
      DiffAndRegister(before, policy_->Associate(net_, before));
  solved_version_ = net_.Version();
  return directives;
}

HandleResult CentralController::HandleUserArrival(const ScanReport& report) {
  if (const HandleStatus v = ValidateScan(report); v != HandleStatus::kOk) {
    return {v, {}};
  }
  if (index_of_id_.count(report.user_id)) {
    return {HandleStatus::kDuplicateUser, {}};
  }
  const std::size_t index = net_.AddUser(model::User{}, report.rates_mbps);
  assignment_.AppendUser();
  id_of_index_.push_back(report.user_id);
  last_scan_.push_back(now_);
  index_of_id_[report.user_id] = index;
  ApplyReport(index, report);
  return {HandleStatus::kOk, RunPolicy()};
}

HandleResult CentralController::HandleScanUpdate(const ScanReport& report) {
  if (const HandleStatus v = ValidateScan(report); v != HandleStatus::kOk) {
    return {v, {}};
  }
  const auto it = index_of_id_.find(report.user_id);
  if (it == index_of_id_.end()) return {HandleStatus::kUnknownUser, {}};
  const std::size_t index = it->second;
  // Read before ApplyReport: SetWifiRate moves the stamp even when it
  // writes an equal value. memcmp, not ==, so -0.0 and 0.0 differ.
  const bool rates_unchanged =
      solved_version_ == net_.Version() && policy_->RatesOnlyFixedPoint() &&
      std::memcmp(net_.WifiRateRow(index), report.rates_mbps.data(),
                  net_.NumExtenders() * sizeof(double)) == 0;
  ApplyReport(index, report);
  // The refreshed rates may invalidate the current association.
  const int current = assignment_.ExtenderOf(index);
  bool unassigned = false;
  if (current != model::Assignment::kUnassigned &&
      net_.WifiRate(index, static_cast<std::size_t>(current)) <= 0.0) {
    assignment_.Unassign(index);
    unassigned = true;
  }
  HandleResult result{HandleStatus::kOk, {}};
  if (rates_unchanged && !unassigned) {
    // Only demand or RSSI changed, and the policy reads neither: its last
    // solve is its own fixed point, so re-running it would change nothing.
    solved_version_ = net_.Version();
    if (obs::MetricsScope* s = obs::CurrentScope()) {
      s->ctrl.scans_skipped.Add(1);
    }
  } else {
    result.directives = RunPolicy();
  }
  // Reconciliation: the client told us where it actually is. If that
  // disagrees with the believed association and nothing is in flight,
  // re-issue the believed directive (the original was lost / abandoned).
  if (report.associated_extender && assignment_.IsAssigned(index) &&
      *report.associated_extender != assignment_.ExtenderOf(index) &&
      !pending_.count(report.user_id)) {
    const AssociationDirective fix{report.user_id,
                                   assignment_.ExtenderOf(index)};
    const bool already =
        std::any_of(result.directives.begin(), result.directives.end(),
                    [&](const AssociationDirective& d) {
                      return d.user_id == fix.user_id;
                    });
    if (!already) {
      RegisterDirective(fix);
      result.directives.push_back(fix);
    }
  }
  return result;
}

HandleStatus CentralController::IngestScan(const ScanReport& report) {
  if (const HandleStatus v = ValidateScan(report); v != HandleStatus::kOk) {
    return v;
  }
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->workload.replay_events.Add(1);
  }
  const auto it = index_of_id_.find(report.user_id);
  if (it == index_of_id_.end()) {
    // New user, registered unassigned; the next Reoptimize*() places it.
    const std::size_t index = net_.AddUser(model::User{}, report.rates_mbps);
    assignment_.AppendUser();
    id_of_index_.push_back(report.user_id);
    last_scan_.push_back(now_);
    index_of_id_[report.user_id] = index;
    ApplyReport(index, report);
    return HandleStatus::kOk;
  }
  const std::size_t index = it->second;
  ApplyReport(index, report);
  const int current = assignment_.ExtenderOf(index);
  if (current != model::Assignment::kUnassigned &&
      net_.WifiRate(index, static_cast<std::size_t>(current)) <= 0.0) {
    assignment_.Unassign(index);
  }
  return HandleStatus::kOk;
}

void CentralController::RemoveUserAt(std::size_t index) {
  pending_.erase(id_of_index_[index]);
  net_.RemoveUser(index);
  assignment_.EraseUser(index);
  id_of_index_.erase(id_of_index_.begin() +
                     static_cast<std::ptrdiff_t>(index));
  last_scan_.erase(last_scan_.begin() + static_cast<std::ptrdiff_t>(index));
  index_of_id_.clear();
  for (std::size_t i = 0; i < id_of_index_.size(); ++i) {
    index_of_id_[id_of_index_[i]] = i;
  }
}

HandleStatus CentralController::HandleUserDeparture(std::int64_t user_id) {
  const auto it = index_of_id_.find(user_id);
  if (it == index_of_id_.end()) return HandleStatus::kUnknownUser;
  RemoveUserAt(it->second);
  return HandleStatus::kOk;
}

HandleStatus CentralController::HandleDirectiveAck(const DirectiveAck& ack) {
  obs::MetricsScope* s = obs::CurrentScope();
  if (!index_of_id_.count(ack.user_id)) return HandleStatus::kUnknownUser;
  const auto it = pending_.find(ack.user_id);
  if (it == pending_.end()) {
    if (s) s->ctrl.acks.Add(1);
    return HandleStatus::kOk;  // duplicate ack
  }
  if (it->second.extender != ack.extender) {
    if (s) s->ctrl.acks_stale.Add(1);
    return HandleStatus::kIgnoredStale;  // ack for a superseded directive
  }
  pending_.erase(it);
  if (s) s->ctrl.acks.Add(1);
  return HandleStatus::kOk;
}

std::vector<AssociationDirective> CentralController::Reoptimize() {
  return ReoptimizeAtTier(ReoptTier::kFull).directives;
}

model::Assignment CentralController::SolveTier(
    ReoptTier tier, const model::Assignment& before,
    const model::Assignment& evacuate) {
  AssociationPolicy* solver = nullptr;
  switch (tier) {
    case ReoptTier::kFull: solver = policy_.get(); break;
    case ReoptTier::kHungarianOnly: solver = hungarian_only_.get(); break;
    case ReoptTier::kGreedy: solver = greedy_.get(); break;
    case ReoptTier::kHoldLastGood: break;
  }
  if (solver == nullptr) return evacuate;
  // Greedy re-places only the evacuated users, everyone else holds; the
  // other rungs re-solve from the current assignment.
  return solver->Associate(net_,
                           tier == ReoptTier::kGreedy ? evacuate : before);
}

ReoptReport CentralController::ReoptimizeUpToTier(ReoptTier top) {
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->ctrl.policy_runs.Add(1);
  }
  ReoptReport report;
  const model::Assignment before = assignment_;
  const model::Assignment evacuate = EvacuationFallback();

  // Hold-last-good is the zero-cost floor of the candidate set; every
  // affordable rung competes against it and against each other on scored
  // throughput. Iterating cheapest-first with a strict improvement
  // threshold makes ties stick with the cheaper (less disruptive) rung.
  model::Assignment chosen = evacuate;
  report.tier = ReoptTier::kHoldLastGood;
  const model::Evaluator eval;
  double best = eval.AggregateThroughput(net_, evacuate);
  for (ReoptTier tier : {ReoptTier::kGreedy, ReoptTier::kHungarianOnly,
                         ReoptTier::kFull}) {
    if (TierCost(tier) > TierCost(top)) break;
    model::Assignment proposed = SolveTier(tier, before, evacuate);
    const double score = eval.AggregateThroughput(net_, proposed);
    if (score > best + 1e-9) {
      best = score;
      chosen = std::move(proposed);
      report.tier = tier;
    }
  }

  CountServedTier(report.tier);

  report.directives = DiffAndRegister(before, std::move(chosen));
  return report;
}

ReoptReport CentralController::ReoptimizeAtTier(ReoptTier tier) {
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->ctrl.policy_runs.Add(1);
  }
  ReoptReport report;
  report.tier = tier;
  const model::Assignment before = assignment_;
  const model::Assignment evacuate = EvacuationFallback();
  model::Assignment chosen = SolveTier(tier, before, evacuate);

  // Do no harm: never deploy below the hold-last-good baseline.
  if (GuardTrips(chosen, evacuate)) {
    chosen = evacuate;
    report.tier = ReoptTier::kHoldLastGood;
  }

  CountServedTier(report.tier);

  report.directives = DiffAndRegister(before, std::move(chosen));
  return report;
}

std::vector<AssociationDirective> CentralController::CollectRetries() {
  std::vector<AssociationDirective> due;
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingDirective& p = it->second;
    if (p.next_retry > now_) {
      ++it;
      continue;
    }
    if (p.attempts >= retry_.max_attempts) {
      ++given_up_;
      if (obs::MetricsScope* s = obs::CurrentScope()) {
        s->ctrl.directives_given_up.Add(1);
      }
      it = pending_.erase(it);
      continue;
    }
    due.push_back({it->first, p.extender});
    if (obs::MetricsScope* s = obs::CurrentScope()) {
      s->ctrl.directives_retried.Add(1);
    }
    double backoff = retry_.initial_backoff;
    for (int a = 1; a < p.attempts; ++a) backoff *= retry_.multiplier;
    backoff = std::min(backoff * retry_.multiplier, retry_.max_backoff);
    ++p.attempts;
    p.next_retry = now_ + backoff;
    ++it;
  }
  std::sort(due.begin(), due.end(),
            [](const AssociationDirective& a, const AssociationDirective& b) {
              return a.user_id < b.user_id;
            });
  return due;
}

std::vector<std::int64_t> CentralController::EvictStale(double max_age) {
  std::vector<std::int64_t> evicted;
  for (std::size_t i = 0; i < id_of_index_.size(); ++i) {
    if (now_ - last_scan_[i] > max_age) evicted.push_back(id_of_index_[i]);
  }
  for (std::int64_t id : evicted) HandleUserDeparture(id);
  if (!evicted.empty()) {
    if (obs::MetricsScope* s = obs::CurrentScope()) {
      s->ctrl.evictions.Add(evicted.size());
    }
  }
  return evicted;
}

std::optional<int> CentralController::ExtenderOf(std::int64_t user_id) const {
  const auto it = index_of_id_.find(user_id);
  if (it == index_of_id_.end()) return std::nullopt;
  if (!assignment_.IsAssigned(it->second)) return std::nullopt;
  return assignment_.ExtenderOf(it->second);
}

bool CentralController::KnowsUser(std::int64_t user_id) const {
  return index_of_id_.count(user_id) > 0;
}

std::vector<std::int64_t> CentralController::UserIds() const {
  return id_of_index_;
}

double CentralController::ScanAge(std::int64_t user_id) const {
  const auto it = index_of_id_.find(user_id);
  if (it == index_of_id_.end()) return kInf;
  return now_ - last_scan_[it->second];
}

double CentralController::CapacityAge(int extender) const {
  if (extender < 0 ||
      static_cast<std::size_t>(extender) >= last_capacity_.size()) {
    return kInf;
  }
  return now_ - last_capacity_[static_cast<std::size_t>(extender)];
}

double CentralController::CurrentAggregate() const {
  return model::Evaluator().AggregateThroughput(net_, assignment_);
}

void CentralController::SaveState(std::string* out) const {
  const std::size_t num_ext = net_.NumExtenders();
  const std::size_t num_users = net_.NumUsers();
  util::PutU64(out, num_ext);
  util::PutDouble(out, now_);
  util::PutU64(out, given_up_);
  util::PutU64(out, quarantine_trips_);
  util::PutU64(out, quarantine_releases_);
  util::PutU8(out, net_.HasRssi() ? 1 : 0);
  util::PutU64(out, num_users);
  for (std::size_t i = 0; i < num_users; ++i) {
    util::PutI64(out, id_of_index_[i]);
    util::PutDouble(out, last_scan_[i]);
    util::PutDouble(out, net_.UserAt(i).demand_mbps);
    util::PutU64(out, num_ext);
    for (std::size_t j = 0; j < num_ext; ++j) {
      util::PutDouble(out, net_.WifiRate(i, j));
    }
    if (net_.HasRssi()) {
      util::PutU64(out, num_ext);
      for (std::size_t j = 0; j < num_ext; ++j) {
        util::PutDouble(out, net_.Rssi(i, j));
      }
    }
    util::PutI32(out, assignment_.ExtenderOf(i));
  }
  for (std::size_t j = 0; j < num_ext; ++j) {
    util::PutDouble(out, net_.PlcRate(j));
    util::PutDouble(out, last_capacity_[j]);
    const FlapState& f = flap_[j];
    util::PutI32(out, f.last_up);
    util::PutDoubleVec(out, f.flips);
    util::PutU8(out, f.quarantined ? 1 : 0);
    util::PutDouble(out, f.release_at);
    util::PutDouble(out, f.held_capacity);
  }
  // Pending directives in user-id order: unordered_map iteration order is
  // not deterministic, and the snapshot bytes must be.
  std::vector<std::int64_t> pending_ids;
  pending_ids.reserve(pending_.size());
  for (const auto& [id, p] : pending_) pending_ids.push_back(id);
  std::sort(pending_ids.begin(), pending_ids.end());
  util::PutU64(out, pending_ids.size());
  for (std::int64_t id : pending_ids) {
    const PendingDirective& p = pending_.at(id);
    util::PutI64(out, id);
    util::PutI32(out, p.extender);
    util::PutI32(out, p.attempts);
    util::PutDouble(out, p.next_retry);
  }
  // A zero count closes the snapshot. It once counted a committed channel
  // plan; it stays so the layout of existing fleet journals is unchanged.
  util::PutU64(out, 0);
}

bool CentralController::RestoreState(util::ByteCursor* cur) {
  const std::uint64_t num_ext = cur->U64();
  if (!cur->ok() || num_ext != net_.NumExtenders()) return false;
  const double now = cur->Double();
  const std::uint64_t given_up = cur->U64();
  const std::uint64_t q_trips = cur->U64();
  const std::uint64_t q_releases = cur->U64();
  const bool has_rssi = cur->U8() != 0;
  const std::uint64_t num_users = cur->U64();
  if (!cur->ok() || num_users > (std::uint64_t{1} << 24)) return false;

  model::Network net(0, num_ext);
  model::Assignment assignment;
  std::vector<std::int64_t> ids;
  std::vector<double> last_scan;
  std::unordered_map<std::int64_t, std::size_t> index_of_id;
  ids.reserve(num_users);
  last_scan.reserve(num_users);
  std::vector<double> rates, rssi;
  for (std::uint64_t i = 0; i < num_users; ++i) {
    const std::int64_t id = cur->I64();
    const double scan_at = cur->Double();
    const double demand = cur->Double();
    if (!cur->ok() || !std::isfinite(demand) || demand < 0.0) return false;
    if (!cur->DoubleVec(&rates) || rates.size() != num_ext) return false;
    for (double r : rates) {
      if (!std::isfinite(r) || r < 0.0) return false;
    }
    if (has_rssi && (!cur->DoubleVec(&rssi) || rssi.size() != num_ext)) {
      return false;
    }
    const int extender = cur->I32();
    if (!cur->ok() || extender < model::Assignment::kUnassigned ||
        extender >= static_cast<int>(num_ext)) {
      return false;
    }
    if (index_of_id.count(id)) return false;
    const std::size_t index = net.AddUser(model::User{}, rates);
    net.SetUserDemand(index, demand);
    assignment.AppendUser();
    if (extender != model::Assignment::kUnassigned) {
      assignment.Assign(index, static_cast<std::size_t>(extender));
    }
    if (has_rssi) {
      // Exact matrix round trip: -inf marks never-set cells and SetRssi
      // stores it verbatim, so the restored Rssi() view is bit-identical.
      for (std::size_t j = 0; j < num_ext; ++j) {
        net.SetRssi(index, j, rssi[j]);
      }
    }
    ids.push_back(id);
    last_scan.push_back(scan_at);
    index_of_id[id] = index;
  }

  std::vector<double> last_capacity(num_ext, -kInf);
  std::vector<FlapState> flap(num_ext);
  for (std::uint64_t j = 0; j < num_ext; ++j) {
    const double plc = cur->Double();
    last_capacity[j] = cur->Double();
    FlapState& f = flap[j];
    f.last_up = cur->I32();
    if (!cur->DoubleVec(&f.flips)) return false;
    f.quarantined = cur->U8() != 0;
    f.release_at = cur->Double();
    f.held_capacity = cur->Double();
    if (!cur->ok() || !std::isfinite(plc) || plc < 0.0) return false;
    net.SetPlcRate(j, plc);
  }

  const std::uint64_t num_pending = cur->U64();
  if (!cur->ok() || num_pending > num_users) return false;
  std::unordered_map<std::int64_t, PendingDirective> pending;
  for (std::uint64_t k = 0; k < num_pending; ++k) {
    const std::int64_t id = cur->I64();
    PendingDirective p;
    p.extender = cur->I32();
    p.attempts = cur->I32();
    p.next_retry = cur->Double();
    if (!cur->ok() || !index_of_id.count(id)) return false;
    pending[id] = p;
  }

  // The closing count (see SaveState) is always zero.
  if (cur->U64() != 0 || !cur->ok()) return false;

  net_ = std::move(net);
  assignment_ = std::move(assignment);
  now_ = now;
  given_up_ = given_up;
  quarantine_trips_ = q_trips;
  quarantine_releases_ = q_releases;
  id_of_index_ = std::move(ids);
  last_scan_ = std::move(last_scan);
  last_capacity_ = std::move(last_capacity);
  flap_ = std::move(flap);
  index_of_id_ = std::move(index_of_id);
  pending_ = std::move(pending);
  solved_version_ = 0;
  return true;
}

}  // namespace wolt::core
