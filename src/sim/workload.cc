#include "sim/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/obs.h"
#include "sim/des.h"

namespace wolt::sim {
namespace {

constexpr int kTraceFormatVersion = 1;

// Substream layout under the trace seed: one stream per independent concern
// so adding draws to one process never perturbs another, plus one stream
// per user (mobility legs, placement, demand jitter, teleports).
constexpr std::uint64_t kChurnStream = 0;
constexpr std::uint64_t kLoadStream = 1;
constexpr std::uint64_t kBackgroundStream = 2;
constexpr std::uint64_t kHotspotStream = 3;
constexpr std::uint64_t kFirstUserStream = 16;

void EmitDouble(std::ostream& out, double v) {
  // %.17g round-trips doubles exactly.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

double Hypot(double dx, double dy) { return std::sqrt(dx * dx + dy * dy); }

constexpr double kTau = 6.283185307179586476925286766559;  // 2*pi

// kTeleport's move: land on a fresh uniform position with freshly drawn
// shadowing. The draw order (position, then one shadowing Normal per
// extender) is pinned by the teleport trace in tests/data/trace_corpus.
ScenarioGenerator::LinkSample Teleport(const ScenarioGenerator& gen,
                                       const model::Network& net,
                                       model::Position* pos, util::Rng& rng) {
  *pos = gen.SampleUserPosition(rng);
  return gen.LinksAt(net, *pos, rng);
}

}  // namespace

const char* ToString(MobilityModel m) {
  switch (m) {
    case MobilityModel::kStatic:
      return "static";
    case MobilityModel::kTeleport:
      return "teleport";
    case MobilityModel::kWaypoint:
      return "waypoint";
    case MobilityModel::kHotspot:
      return "hotspot";
  }
  return "?";
}

std::optional<MobilityModel> MobilityModelFromString(const std::string& s) {
  if (s == "static") return MobilityModel::kStatic;
  if (s == "teleport") return MobilityModel::kTeleport;
  if (s == "waypoint") return MobilityModel::kWaypoint;
  if (s == "hotspot") return MobilityModel::kHotspot;
  return std::nullopt;
}

const char* ToString(LoadCurve c) {
  switch (c) {
    case LoadCurve::kConstant:
      return "constant";
    case LoadCurve::kDiurnal:
      return "diurnal";
    case LoadCurve::kBursty:
      return "bursty";
  }
  return "?";
}

std::optional<LoadCurve> LoadCurveFromString(const std::string& s) {
  if (s == "constant") return LoadCurve::kConstant;
  if (s == "diurnal") return LoadCurve::kDiurnal;
  if (s == "bursty") return LoadCurve::kBursty;
  return std::nullopt;
}

const char* ToString(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kArrival:
      return "arrive";
    case TraceEventKind::kDeparture:
      return "depart";
    case TraceEventKind::kMove:
      return "move";
    case TraceEventKind::kLoad:
      return "load";
    case TraceEventKind::kBackground:
      return "bg";
  }
  return "?";
}

// --- Mobility kernel -----------------------------------------------------

MobilityKernel::MobilityKernel(const ScenarioGenerator& generator,
                               MobilityParams params)
    : generator_(&generator), params_(std::move(params)) {
  const bool walks = params_.model == MobilityModel::kWaypoint ||
                     params_.model == MobilityModel::kHotspot;
  if (walks && (params_.speed_min <= 0.0 ||
                params_.speed_max < params_.speed_min)) {
    throw std::invalid_argument("mobility needs 0 < speed_min <= speed_max");
  }
  if (params_.pause < 0.0) throw std::invalid_argument("negative pause");
  if (params_.model == MobilityModel::kHotspot &&
      (params_.num_hotspots == 0 || params_.hotspot_sigma_m < 0.0 ||
       params_.hotspot_bias < 0.0 || params_.hotspot_bias > 1.0)) {
    throw std::invalid_argument("bad hotspot parameters");
  }
}

void MobilityKernel::SampleHotspots(util::Rng& rng) {
  hotspots_.clear();
  if (params_.model != MobilityModel::kHotspot) return;
  hotspots_.reserve(params_.num_hotspots);
  for (std::size_t k = 0; k < params_.num_hotspots; ++k) {
    hotspots_.push_back(generator_->SampleUserPosition(rng));
  }
}

ScenarioGenerator::LinkSample MobilityKernel::LinksAt(
    const model::Network& net, model::Position pos,
    const std::vector<double>& shadow) const {
  const ScenarioParams& sp = generator_->params();
  ScenarioGenerator::LinkSample sample;
  sample.rates_mbps.assign(net.NumExtenders(), 0.0);
  sample.rssi_dbm.assign(net.NumExtenders(), 0.0);
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    const double d = model::Distance(pos, net.ExtenderAt(j).position);
    const double rssi = sp.path_loss.RssiDbm(d, shadow[j]);
    sample.rssi_dbm[j] = rssi;
    sample.rates_mbps[j] = sp.rate_table.RateAtRssi(rssi);
  }
  return sample;
}

MobilityState MobilityKernel::Spawn(const model::Network& net, double now,
                                    util::Rng& rng) const {
  const ScenarioParams& sp = generator_->params();
  MobilityState st;
  st.shadow_db.reserve(net.NumExtenders());
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    st.shadow_db.push_back(rng.Normal(0.0, sp.shadowing_sigma_db));
  }
  // Placement retries against the FROZEN shadowing row (the scenario
  // generator redraws shadowing per attempt; here the row is the user's
  // identity, so only the position is retried).
  st.pos = generator_->SampleUserPosition(rng);
  for (int attempt = 0; attempt < sp.max_placement_retries; ++attempt) {
    const auto links = LinksAt(net, st.pos, st.shadow_db);
    if (std::any_of(links.rates_mbps.begin(), links.rates_mbps.end(),
                    [](double r) { return r > 0.0; })) {
      break;
    }
    st.pos = generator_->SampleUserPosition(rng);
  }
  st.waypoint = st.pos;
  st.pause_until = now;
  if (params_.model == MobilityModel::kWaypoint ||
      params_.model == MobilityModel::kHotspot) {
    BeginLeg(&st, now, rng);
  }
  return st;
}

model::Position MobilityKernel::SampleWaypoint(util::Rng& rng) const {
  const ScenarioParams& sp = generator_->params();
  if (params_.model == MobilityModel::kHotspot && !hotspots_.empty() &&
      rng.NextDouble() < params_.hotspot_bias) {
    const auto& c = hotspots_[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(hotspots_.size()) - 1))];
    model::Position p{c.x + rng.Normal(0.0, params_.hotspot_sigma_m),
                      c.y + rng.Normal(0.0, params_.hotspot_sigma_m)};
    p.x = std::clamp(p.x, 0.0, sp.width_m);
    p.y = std::clamp(p.y, 0.0, sp.height_m);
    return p;
  }
  return generator_->SampleUserPosition(rng);
}

void MobilityKernel::BeginLeg(MobilityState* st, double /*now*/,
                              util::Rng& rng) const {
  st->waypoint = SampleWaypoint(rng);
  st->speed = rng.Uniform(params_.speed_min, params_.speed_max);
}

bool MobilityKernel::Step(MobilityState* st, double now, double dt,
                          util::Rng& rng) const {
  if (params_.model != MobilityModel::kWaypoint &&
      params_.model != MobilityModel::kHotspot) {
    return false;
  }
  bool moved = false;
  double remaining = dt;
  // Bounded iterations: each pass either consumes tick time or draws a new
  // leg; zero-length legs are measure-zero but must not spin forever.
  for (int guard = 0; guard < 64 && remaining > 1e-12; ++guard) {
    const double t = now - remaining;
    if (st->pause_until > t) {
      const double wait = std::min(st->pause_until - t, remaining);
      remaining -= wait;
      continue;
    }
    const double dx = st->waypoint.x - st->pos.x;
    const double dy = st->waypoint.y - st->pos.y;
    const double dist = Hypot(dx, dy);
    if (dist <= 1e-9) {
      st->pause_until = t + params_.pause;
      BeginLeg(st, t, rng);
      if (params_.pause <= 0.0 && guard == 63) break;
      continue;
    }
    const double reach = st->speed * remaining;
    if (reach >= dist) {
      st->pos = st->waypoint;
      remaining -= dist / st->speed;
      st->pause_until = (now - remaining) + params_.pause;
      BeginLeg(st, now - remaining, rng);
      moved = true;
    } else {
      st->pos.x += dx / dist * reach;
      st->pos.y += dy / dist * reach;
      remaining = 0.0;
      moved = true;
    }
  }
  return moved;
}

// --- Trace generation ----------------------------------------------------

WorkloadTrace GenerateTrace(const ScenarioGenerator& generator,
                            const model::Network& base,
                            const WorkloadParams& params, std::uint64_t seed) {
  if (base.NumExtenders() == 0) {
    throw std::invalid_argument("trace needs at least one extender");
  }
  if (base.NumUsers() != 0) {
    throw std::invalid_argument(
        "trace base network must be extenders-only (users come from the "
        "trace)");
  }
  if (params.horizon <= 0.0) throw std::invalid_argument("horizon must be > 0");
  if (params.move_tick <= 0.0) {
    throw std::invalid_argument("move_tick must be > 0");
  }
  if (params.arrival_rate < 0.0 || params.mean_session <= 0.0) {
    throw std::invalid_argument("bad churn parameters");
  }
  if (params.load == LoadCurve::kDiurnal &&
      (params.load_period <= 0.0 || params.load_floor < 0.0 ||
       params.load_floor > 1.0)) {
    throw std::invalid_argument("bad diurnal parameters");
  }
  if (params.load == LoadCurve::kBursty &&
      (params.burst_rate <= 0.0 || params.burst_high < 0.0 ||
       params.burst_low < 0.0)) {
    throw std::invalid_argument("bad burst parameters");
  }
  if (params.load != LoadCurve::kConstant && params.base_demand_mbps <= 0.0) {
    throw std::invalid_argument("load curves need base_demand_mbps > 0");
  }
  if (params.background_share < 0.0 || params.background_share > 1.0 ||
      (params.background_share > 0.0 && params.background_flip_rate <= 0.0)) {
    throw std::invalid_argument("bad background parameters");
  }

  WorkloadTrace trace;
  trace.num_extenders = base.NumExtenders();
  trace.horizon = params.horizon;

  MobilityKernel kernel(generator, params.mobility);
  util::Rng churn_rng = util::Rng::Substream(seed, kChurnStream);
  util::Rng load_rng = util::Rng::Substream(seed, kLoadStream);
  util::Rng bg_rng = util::Rng::Substream(seed, kBackgroundStream);
  util::Rng hotspot_rng = util::Rng::Substream(seed, kHotspotStream);
  kernel.SampleHotspots(hotspot_rng);

  struct UserSession {
    bool active = false;
    double demand_mbps = 0.0;
    MobilityState state;
    util::Rng rng{0};
  };
  std::vector<UserSession> sessions;
  EventQueue q;

  const auto emit = [&](TraceEvent ev) {
    ev.time = q.Now();
    trace.events.push_back(std::move(ev));
  };

  const bool moves = params.mobility.model != MobilityModel::kStatic;
  std::function<void(std::size_t)> move_tick = [&](std::size_t uid) {
    UserSession& s = sessions[uid];
    if (!s.active) return;
    TraceEvent ev;
    ev.kind = TraceEventKind::kMove;
    ev.user = static_cast<std::int64_t>(uid);
    if (params.mobility.model == MobilityModel::kTeleport) {
      const auto links = Teleport(generator, base, &s.state.pos, s.rng);
      ev.pos = s.state.pos;
      ev.rates_mbps = links.rates_mbps;
      ev.rssi_dbm = links.rssi_dbm;
      emit(std::move(ev));
    } else if (kernel.Step(&s.state, q.Now(), params.move_tick, s.rng)) {
      const auto links = kernel.LinksAt(base, s.state.pos, s.state.shadow_db);
      ev.pos = s.state.pos;
      ev.rates_mbps = links.rates_mbps;
      ev.rssi_dbm = links.rssi_dbm;
      emit(std::move(ev));
    }
    q.ScheduleAfter(params.move_tick, [&move_tick, uid] { move_tick(uid); });
  };

  const auto spawn_user = [&] {
    const std::size_t uid = sessions.size();
    sessions.emplace_back();
    UserSession& s = sessions[uid];
    s.active = true;
    s.rng = util::Rng::Substream(seed, kFirstUserStream + uid);
    s.state = kernel.Spawn(base, q.Now(), s.rng);
    if (params.load != LoadCurve::kConstant) {
      s.demand_mbps = params.base_demand_mbps * s.rng.Uniform(0.5, 1.5);
    }
    const auto links = kernel.LinksAt(base, s.state.pos, s.state.shadow_db);
    TraceEvent ev;
    ev.kind = TraceEventKind::kArrival;
    ev.user = static_cast<std::int64_t>(uid);
    ev.pos = s.state.pos;
    ev.rates_mbps = links.rates_mbps;
    ev.rssi_dbm = links.rssi_dbm;
    ev.demand_mbps = s.demand_mbps;
    emit(std::move(ev));
    const double session = churn_rng.Exponential(1.0 / params.mean_session);
    q.ScheduleAfter(session, [&, uid] {
      sessions[uid].active = false;
      TraceEvent dev;
      dev.kind = TraceEventKind::kDeparture;
      dev.user = static_cast<std::int64_t>(uid);
      emit(std::move(dev));
    });
    if (moves) {
      q.ScheduleAfter(params.move_tick, [&move_tick, uid] { move_tick(uid); });
    }
  };

  // Offered-load curve. Diurnal is sampled on the move-tick cadence (a pure
  // function of time, no draws); bursty is an exponential on/off flip
  // process. Either way the first kLoad lands at t = 0, before the initial
  // arrival batch, so replay always knows the scale. The self-rescheduling
  // std::functions live at function scope: their lambdas capture themselves
  // by reference, so they must outlive RunUntil.
  std::function<void()> load_tick;
  std::function<void()> burst_flip;
  std::function<void()> next_arrival;
  if (params.load == LoadCurve::kDiurnal) {
    load_tick = [&] {
      const double phase = q.Now() / params.load_period;
      const double scale =
          params.load_floor + (1.0 - params.load_floor) * 0.5 *
                                  (1.0 - std::cos(kTau * phase));
      TraceEvent ev;
      ev.kind = TraceEventKind::kLoad;
      ev.value = scale;
      emit(std::move(ev));
      q.ScheduleAfter(params.move_tick, load_tick);
    };
    q.ScheduleAt(0.0, load_tick);
  } else if (params.load == LoadCurve::kBursty) {
    auto high = std::make_shared<bool>(true);
    burst_flip = [&, high] {
      TraceEvent ev;
      ev.kind = TraceEventKind::kLoad;
      ev.value = *high ? params.burst_high : params.burst_low;
      emit(std::move(ev));
      *high = !*high;
      q.ScheduleAfter(load_rng.Exponential(params.burst_rate), burst_flip);
    };
    q.ScheduleAt(0.0, burst_flip);
  }

  // Background traffic: an independent on/off process per PLC contention
  // domain, toggling the domain's busy share between 0 and the peak.
  std::vector<std::function<void()>> bg_flips;
  if (params.background_share > 0.0) {
    std::set<int> domains;
    for (std::size_t j = 0; j < base.NumExtenders(); ++j) {
      domains.insert(base.PlcDomain(j));
    }
    bg_flips.reserve(domains.size());
    // First flip times are drawn up-front in sorted domain order so the
    // per-domain phases never depend on event interleaving.
    for (int domain : domains) {
      const std::size_t slot = bg_flips.size();
      auto busy = std::make_shared<bool>(false);
      bg_flips.push_back([&, domain, busy, slot] {
        *busy = !*busy;
        TraceEvent ev;
        ev.kind = TraceEventKind::kBackground;
        ev.domain = domain;
        ev.value = *busy ? params.background_share : 0.0;
        emit(std::move(ev));
        q.ScheduleAfter(bg_rng.Exponential(params.background_flip_rate),
                        [&bg_flips, slot] { bg_flips[slot](); });
      });
      q.ScheduleAfter(bg_rng.Exponential(params.background_flip_rate),
                      [&bg_flips, slot] { bg_flips[slot](); });
    }
  }

  // Initial batch at t = 0, then Poisson arrivals.
  q.ScheduleAt(0.0, [&] {
    for (std::size_t k = 0; k < params.initial_users; ++k) spawn_user();
  });
  if (params.arrival_rate > 0.0) {
    next_arrival = [&] {
      spawn_user();
      q.ScheduleAfter(churn_rng.Exponential(params.arrival_rate),
                      next_arrival);
    };
    q.ScheduleAfter(churn_rng.Exponential(params.arrival_rate), next_arrival);
  }

  q.RunUntil(params.horizon);

  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->workload.traces.Add(1);
    s->workload.events.Add(trace.events.size());
    for (const TraceEvent& ev : trace.events) {
      switch (ev.kind) {
        case TraceEventKind::kArrival:
          s->workload.arrivals.Add(1);
          break;
        case TraceEventKind::kDeparture:
          s->workload.departures.Add(1);
          break;
        case TraceEventKind::kMove:
          s->workload.moves.Add(1);
          break;
        case TraceEventKind::kLoad:
          s->workload.load_updates.Add(1);
          break;
        case TraceEventKind::kBackground:
          s->workload.background_updates.Add(1);
          break;
      }
    }
  }
  return trace;
}

// --- Serialization -------------------------------------------------------

std::string TraceToString(const WorkloadTrace& trace) {
  std::ostringstream out;
  out << "wolt-trace " << kTraceFormatVersion << "\n";
  out << "extenders " << trace.num_extenders << "\n";
  out << "horizon ";
  EmitDouble(out, trace.horizon);
  out << "\n";
  out << "events " << trace.events.size() << "\n";
  for (const TraceEvent& ev : trace.events) {
    out << ToString(ev.kind) << " t=";
    EmitDouble(out, ev.time);
    switch (ev.kind) {
      case TraceEventKind::kArrival:
      case TraceEventKind::kMove:
        out << " user=" << ev.user << " x=";
        EmitDouble(out, ev.pos.x);
        out << " y=";
        EmitDouble(out, ev.pos.y);
        if (ev.kind == TraceEventKind::kArrival) {
          out << " demand=";
          EmitDouble(out, ev.demand_mbps);
        }
        out << " rates=";
        for (std::size_t j = 0; j < ev.rates_mbps.size(); ++j) {
          if (j) out << ',';
          EmitDouble(out, ev.rates_mbps[j]);
        }
        out << " rssi=";
        for (std::size_t j = 0; j < ev.rssi_dbm.size(); ++j) {
          if (j) out << ',';
          EmitDouble(out, ev.rssi_dbm[j]);
        }
        break;
      case TraceEventKind::kDeparture:
        out << " user=" << ev.user;
        break;
      case TraceEventKind::kLoad:
        out << " scale=";
        EmitDouble(out, ev.value);
        break;
      case TraceEventKind::kBackground:
        out << " domain=" << ev.domain << " share=";
        EmitDouble(out, ev.value);
        break;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace wolt::sim
