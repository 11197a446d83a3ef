#include "assign/local_search.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "model/incremental.h"
#include "obs/obs.h"
#include "util/thread_pool.h"

namespace wolt::assign {
namespace {

// Candidate accounting, accumulated on the stack and flushed into the
// active MetricsScope once per search. Site contract: every candidate
// bumps `generated` together with exactly one of `pruned` (skipped without
// computing its delta) or `evaluated` — that is what makes the
// pruned + evaluated == generated invariant exact by construction, whatever
// the rescan/resume semantics of the surrounding loop. With WOLT_OBS=OFF
// the flush is compile-time dead and the increments fold away with it.
struct MoveTally {
  std::uint64_t generated = 0;
  std::uint64_t pruned = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t accepted = 0;

  void Prune(std::uint64_t n = 1) {
    generated += n;
    pruned += n;
  }
  void Evaluate(std::uint64_t n = 1) {
    generated += n;
    evaluated += n;
  }
};

// Static per-(user, extender) placement data, hoisted out of the move loops
// so the hot paths never call back into Network. Built once per search (the
// multi-start solve shares one read-only instance across all of its starts,
// including concurrent ones). When the caller supplies a matching
// NetworkSoA view, the reciprocal-rate matrix is borrowed from it and only
// the E-sized target mask is computed here — no O(U x E) work per call.
struct SearchContext {
  std::size_t num_users = 0;
  std::size_t num_extenders = 0;
  // 1 / r_ij, row-major; 0 when user i cannot reach extender j. Borrowed
  // from the SoA view when possible, otherwise points at `inv_storage`.
  const double* inv_rate = nullptr;
  const int* cap = nullptr;  // B_j, 0 = unconstrained
  // Placement target allowed: enabled by the activation mask AND live
  // power-line backhaul. A dead PLC link delivers nothing end-to-end even
  // though the WiFi-sum objective cannot see that. Per-user reachability is
  // tested against inv_rate at scan time (inv > 0), so no U x E mask exists.
  std::vector<std::uint8_t> target_ok;

  std::vector<double> inv_storage;
  std::vector<int> cap_storage;
  // Column-major copy of inv_rate (inv_t[e * U + u]): the pairwise swap
  // stage reads two full extender columns per candidate cell, and the
  // transposed layout turns those scattered row gathers into reads from
  // two cache-hot vectors. Rates never change during a search, so this is
  // built once and shared read-only across all starts.
  std::vector<double> inv_t;

  SearchContext(const model::Network& net, const LocalSearchOptions& options)
      : num_users(net.NumUsers()),
        num_extenders(net.NumExtenders()),
        target_ok(num_extenders, 0) {
    for (std::size_t j = 0; j < num_extenders; ++j) {
      const bool allowed =
          options.extender_mask.empty() || options.extender_mask[j] != 0;
      target_ok[j] = allowed && net.PlcRate(j) > 0.0;
    }
    if (options.soa != nullptr && options.soa->Matches(net)) {
      inv_rate = options.soa->inv_rate.data();
      cap = options.soa->cap.data();
      BuildTranspose();
      return;
    }
    inv_storage.assign(num_users * num_extenders, 0.0);
    cap_storage.assign(num_extenders, 0);
    for (std::size_t j = 0; j < num_extenders; ++j) {
      cap_storage[j] = net.MaxUsers(j);
    }
    for (std::size_t i = 0; i < num_users; ++i) {
      const double* row = net.WifiRateRow(i);
      double* inv = &inv_storage[i * num_extenders];
      for (std::size_t j = 0; j < num_extenders; ++j) {
        if (row[j] > 0.0) inv[j] = 1.0 / row[j];
      }
    }
    inv_rate = inv_storage.data();
    cap = cap_storage.data();
    BuildTranspose();
  }

  void BuildTranspose() {
    inv_t.assign(num_users * num_extenders, 0.0);
    for (std::size_t i = 0; i < num_users; ++i) {
      const double* row = inv_rate + i * num_extenders;
      for (std::size_t j = 0; j < num_extenders; ++j) {
        inv_t[j * num_users + i] = row[j];
      }
    }
  }

  const double* InvRow(std::size_t user) const {
    return inv_rate + user * num_extenders;
  }
  const double* InvCol(std::size_t ext) const {
    return inv_t.data() + ext * num_users;
  }
  bool Usable(std::size_t user, std::size_t ext) const {
    return inv_rate[user * num_extenders + ext] > 0.0 && target_ok[ext] != 0;
  }
  bool HasRoom(std::size_t ext, int load) const {
    return cap[ext] == 0 || load < cap[ext];
  }
};

// Incremental WiFi-side state: per-extender user count, harmonic sum, and
// cached cell throughput T_WiFi_j = n_j / inv_j. Single-user moves are O(1).
// `mutations` counts cell changes; the relocation stage uses it to prove a
// user's failed target scan needs no repeat (the deltas only read cell
// state, so an unchanged counter means an unchanged scan outcome).
struct WifiState {
  int* load = nullptr;
  double* inv_sum = nullptr;
  double* thr = nullptr;
  std::size_t num_ext = 0;
  std::uint64_t mutations = 0;

  WifiState(const SearchContext& ctx, const model::Assignment& assign,
            util::SolverArena& arena)
      : load(arena.AllocFill<int>(ctx.num_extenders, 0)),
        inv_sum(arena.AllocFill<double>(ctx.num_extenders, 0.0)),
        thr(arena.AllocFill<double>(ctx.num_extenders, 0.0)),
        num_ext(ctx.num_extenders) {
    for (std::size_t i = 0; i < assign.NumUsers(); ++i) {
      const int e = assign.ExtenderOf(i);
      if (e == model::Assignment::kUnassigned) continue;
      Add(ctx, i, static_cast<std::size_t>(e));
    }
  }

  void Add(const SearchContext& ctx, std::size_t user, std::size_t ext) {
    const double inv = ctx.InvRow(user)[ext];
    if (inv <= 0.0) {
      throw std::invalid_argument("insert at unreachable extender");
    }
    ++load[ext];
    inv_sum[ext] += inv;
    Refresh(ext);
  }

  void Remove(const SearchContext& ctx, std::size_t user, std::size_t ext) {
    --load[ext];
    inv_sum[ext] -= ctx.InvRow(user)[ext];
    if (load[ext] == 0) inv_sum[ext] = 0.0;  // kill accumulated error
    Refresh(ext);
  }

  void Refresh(std::size_t ext) {
    thr[ext] =
        load[ext] > 0 ? static_cast<double>(load[ext]) / inv_sum[ext] : 0.0;
    ++mutations;
  }

  double WifiSum() const {
    double total = 0.0;
    for (std::size_t j = 0; j < num_ext; ++j) total += thr[j];
    return total;
  }
};

void GreedyInsertWifi(const SearchContext& ctx, model::Assignment& assign,
                      const std::vector<std::size_t>& users,
                      const util::Deadline* deadline,
                      util::SolverArena& arena) {
  WifiState ws(ctx, assign, arena);
  const std::size_t num_ext = ctx.num_extenders;
  double* after = arena.Alloc<double>(num_ext);
  const std::uint8_t* ok = ctx.target_ok.data();
  std::uint64_t inserts = 0;
  for (std::size_t user : users) {
    // On expiry the remaining users simply stay unassigned — the partial
    // assignment built so far is valid as-is.
    if (util::DeadlineExpired(deadline)) break;
    if (assign.IsAssigned(user)) continue;
    const double* inv = ctx.InvRow(user);
    // Pass 1, branchless over the contiguous reciprocal-rate row: the cell
    // throughput each extender would have after adopting this user.
    // Ineligible targets produce junk values pass 2 never reads.
    for (std::size_t j = 0; j < num_ext; ++j) {
      after[j] =
          static_cast<double>(ws.load[j] + 1) / (ws.inv_sum[j] + inv[j]);
    }
    // Pass 2: the selection scan, division-free. Same branch structure and
    // comparisons as the single-pass original, so the same extender wins.
    int best_ext = -1;
    double best_value = 0.0;
    for (std::size_t j = 0; j < num_ext; ++j) {
      if (inv[j] == 0.0 || !ok[j] || !ctx.HasRoom(j, ws.load[j])) continue;
      const double candidate = after[j] - ws.thr[j];
      if (best_ext < 0 || candidate > best_value) {
        best_value = candidate;
        best_ext = static_cast<int>(j);
      }
    }
    if (best_ext < 0) continue;  // unreachable user stays unassigned
    assign.Assign(user, static_cast<std::size_t>(best_ext));
    ws.Add(ctx, user, static_cast<std::size_t>(best_ext));
    ++inserts;
  }
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->solver.ls_inserts.Add(inserts);
  }
}

// Division-free screens, multiply form: for x, y > 0,
//   a/x + b/y > T  <=>  a*y + b*x > T*x*y,
// so a necessary condition for a move can be checked with three
// multiplies instead of two divisions per target. Two safety margins —
// the threshold side is lowered by kAbsMargin times the magnitude of its
// inputs (with the per-target throughput term shrunk by kThrShrink), and
// the product side by kRelMargin — exceed the worst-case rounding of
// either comparison chain by a factor of ~2^20 while admitting at most a
// ~2^-30-relative band of extra survivors. Survivors then face the exact
// division test, so screens only ever add work, never change an outcome.
constexpr double kRelMargin = 1.0 - 0x1p-30;
constexpr double kThrShrink = 1.0 - 0x1p-30;
constexpr double kAbsMargin = 0x1p-30;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Swap-stage cell screen (see the refresh_u1 lambda in RelocateWifi for
// the derivation and the meaning of the operands). Writes s_diff[c] < 0
// for every ruled-out cell: screened by the multiply-form bound, unusable
// for the scanning user, empty, or clean under a restricted rescan. A
// non-positive denominator voids the multiply form, so the cell is
// force-kept (the exact tests still decide); NaN likewise compares
// not-less-than-zero downstream and survives conservatively. Kept out of
// line because GCC declines to if-convert — and therefore vectorize — the
// select chain once it is inlined into the capturing lambda.
// Only partners strictly after `pos` in the movable order survive the mask.
inline std::uint64_t ResumeMask(std::size_t pos) {
  return (pos % 64 == 63) ? 0 : ~std::uint64_t{0} << (pos % 64 + 1);
}

constexpr std::size_t kLanes = 8;
constexpr double kInelig = -std::numeric_limits<double>::infinity();

__attribute__((noinline)) void SwapCellScreen(
    double* s_diff, const double* min_at_x1, const double* cell_slack,
    const double* cell_loadd, const double* thr, const double* inv1,
    const double* okd, const double* cell_movabled,
    const double* cell_stampd, double base1, double load1, double h3,
    double seend, std::size_t num_ext) {
  for (std::size_t c = 0; c < num_ext; ++c) {
    const double da = base1 + min_at_x1[c];
    const double dc = cell_slack[c] + inv1[c];
    const double diff = (load1 * dc + cell_loadd[c] * da) -
                        (((h3 + thr[c] * kThrShrink) * da) * dc) * kRelMargin;
    const bool keep = (inv1[c] != 0.0) & (okd[c] != 0.0) &
                      (cell_movabled[c] != 0.0) & (cell_stampd[c] > seend);
    const bool valid = (da > 0.0) & (dc > 0.0);
    // Two flat selects (a nested conditional defeats if-conversion).
    double v = valid ? diff : 1.0;
    v = keep ? v : -1.0;
    s_diff[c] = v;
  }
}

// Phase A of the swap pair walk (see RelocateWifi): exact deltas for every
// member of the surviving cells strictly after `start`, batched kLanes at
// a time so the two divisions per pair vectorize. Partner rates come from
// the two relevant columns of the transposed rate matrix — two cache-hot
// vectors — instead of gathering one full row per partner. Returns the
// running max delta plus visited/ineligible totals, so the caller can
// bypass the consume walk outright when nothing can pass the accept test.
// A standalone function for the same reason as SwapCellScreen: routing
// these accumulators through by-reference lambda captures measurably
// spills the surrounding scan loops.
struct SwapDeltaResult {
  double best;
  std::uint64_t total;
  std::uint64_t inelig;
};
__attribute__((noinline)) SwapDeltaResult SwapDeltaPass(
    const int* cells_s, int n_cells, const int* load, const double* inv_sum,
    const double* thr, const double* inv1, const double* inv_t,
    std::size_t num_users, const std::uint64_t* cell_mask, std::size_t words,
    const std::size_t* movable, const double* col_x1, bool ok1, double base1,
    double load1, double thr1, std::size_t start, double* d_all) {
  SwapDeltaResult r{kInelig, 0, 0};
  std::size_t lidx[kLanes];
  double lp[kLanes];
  double lq[kLanes];
  std::size_t cnt = 0;
  const auto flush = [&](double l2, double s2, double i1c, double before) {
    if (cnt == 0) return;
    for (std::size_t t = cnt; t < kLanes; ++t) {  // benign pads
      lp[t] = 1.0;
      lq[t] = 0.0;
    }
    double d[kLanes];
    // Vector pass: expression-identical to the scalar exact test.
    for (std::size_t t = 0; t < kLanes; ++t) {
      const double after_x1 = load1 / (base1 + lp[t]);
      const double after_x2 = l2 / ((s2 - lq[t]) + i1c);
      d[t] = (after_x1 + after_x2) - before;
    }
    for (std::size_t t = 0; t < cnt; ++t) d_all[lidx[t]] = d[t];
    for (std::size_t t = 0; t < cnt; ++t) {
      r.best = d[t] > r.best ? d[t] : r.best;
    }
    cnt = 0;
  };
  for (int ci = 0; ci < n_cells; ++ci) {
    const std::size_t c = static_cast<std::size_t>(cells_s[ci]);
    const double l2 = static_cast<double>(load[c]);
    const double s2 = inv_sum[c];
    const double i1c = inv1[c];
    const double before = thr1 + thr[c];
    const double* col_c = inv_t + c * num_users;
    const std::uint64_t* mask = cell_mask + c * words;
    std::size_t w2 = start / 64;
    std::uint64_t bits = mask[w2] & ResumeMask(start);
    for (;;) {
      while (bits == 0) {
        if (++w2 >= words) break;
        bits = mask[w2];
      }
      if (w2 >= words) break;
      const std::size_t idx =
          w2 * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const std::size_t u2 = movable[idx];
      const double p = col_x1[u2];
      ++r.total;
      if (!ok1 || p <= 0.0) {  // partner can't take u1's slot
        d_all[idx] = kInelig;
        ++r.inelig;
        continue;
      }
      lidx[cnt] = idx;
      lp[cnt] = p;
      lq[cnt] = col_c[u2];
      if (++cnt == kLanes) flush(l2, s2, i1c, before);
    }
    flush(l2, s2, i1c, before);
  }
  return r;
}

LocalSearchStats RelocateWifi(const SearchContext& ctx,
                              model::Assignment& assign,
                              const std::vector<std::size_t>& movable,
                              const LocalSearchOptions& options,
                              util::SolverArena& arena) {
  WifiState ws(ctx, assign, arena);
  const std::size_t num_ext = ctx.num_extenders;
  const std::uint8_t* ok = ctx.target_ok.data();

  LocalSearchStats stats;
  stats.initial_value = ws.WifiSum();
  double value = stats.initial_value;
  const double tol = options.improvement_tolerance;

  MoveTally rel, swp;
  std::uint64_t memo_skips = 0;
  std::uint64_t passes_run = 0;

  // Local mirror of the association (bypasses bounds-checked accessors in
  // the O(|movable|^2) swap loop).
  int* ext_of = arena.Alloc<int>(ctx.num_users);
  for (std::size_t i = 0; i < ctx.num_users; ++i) {
    ext_of[i] = assign.ExtenderOf(i);
  }

  const std::size_t m = movable.size();
  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  // Relocation-scan memo: a user whose scan found no improving target needs
  // no rescan until some cell changes. `swap_scanned` is the same memo for
  // the pairwise stage. Both accept tests below compare a move's *delta*
  // against the tolerance, and a delta reads nothing beyond the two touched
  // cells' state (plus static rates), so a recorded fruitless scan stays
  // valid for exactly the targets whose cell is unchanged since — which is
  // what the per-cell stamps refine below.
  std::uint64_t* scanned = arena.AllocFill<std::uint64_t>(m, kNever);
  std::uint64_t* swap_scanned = arena.AllocFill<std::uint64_t>(m, kNever);
  // cell_stampd[c]: ws.mutations value when cell c last changed (stored as
  // a double — mutation counts stay far below 2^53, so the cast is exact —
  // which lets the screen passes below fold the stamp comparison into
  // their all-double vector form). Together with the memos this restricts
  // a rescan to the cells dirtied since the user's last fruitless scan;
  // clean cells are provably still fruitless.
  double* cell_stampd = arena.AllocFill<double>(num_ext, 0.0);
  // Static per-cell eligibility, folded to doubles for the same reason:
  // elig_cap[j] is the load bound below which cell j can take one more
  // user (+inf when B_j = 0 means uncapped, -1 when the policy target
  // check fails so no load qualifies); okd[j] mirrors target_ok.
  double* elig_cap = arena.Alloc<double>(num_ext);
  double* okd = arena.Alloc<double>(num_ext);
  for (std::size_t j = 0; j < num_ext; ++j) {
    okd[j] = ok[j] ? 1.0 : 0.0;
    elig_cap[j] = !ok[j] ? -1.0
                  : ctx.cap[j] == 0
                      ? std::numeric_limits<double>::infinity()
                      : static_cast<double>(ctx.cap[j]);
  }

  // Pruning aggregates over the *movable* users of each cell:
  // cell_min_inv[e * E + c] = min over movable users on cell c of 1/r at
  // extender e (the best imaginable member leaving c for e; extender-major
  // so the swap stage reads its x1 row with unit stride), and
  // cell_max_own[c] = max over movable users on cell c of 1/r at c itself
  // (the member whose exit frees the most airtime). From these, an upper
  // bound on the gain of ANY swap across cells x1 and c follows without
  // touching the members. Every bound input majorizes the exact test's
  // input through weakly monotone FP operations, so — with the margins
  // below covering rounding — a screened-out cell can never hide a pair
  // the exact test would have accepted.
  double* cell_min_inv = arena.AllocFill<double>(num_ext * num_ext, 0.0);
  double* cell_max_own = arena.AllocFill<double>(num_ext, 0.0);
  int* cell_movable = arena.AllocFill<int>(num_ext, 0);
  // Snapshots refreshed with the aggregates (cells only change at accepts,
  // which recompute them): inv_sum minus the slowest member's share, and
  // the load as a double — both so the swap screen's vector pass reads
  // ready-made operands.
  double* cell_slack = arena.AllocFill<double>(num_ext, 0.0);
  double* cell_loadd = arena.AllocFill<double>(num_ext, 0.0);
  double* cell_movabled = arena.AllocFill<double>(num_ext, 0.0);
  double* min_tmp = arena.Alloc<double>(num_ext);
  // Per-cell bitmask of movable-list indices currently on the cell; the
  // pair loop walks the OR of the surviving cells' masks in ascending
  // index order. Maintained incrementally at every accepted move.
  const std::size_t words = (m + 63) / 64;
  std::uint64_t* cell_mask =
      arena.AllocFill<std::uint64_t>(num_ext * words, 0);
  std::uint64_t* partner_mask = arena.AllocFill<std::uint64_t>(words, 0);
  // Rebuild one cell's aggregates from its membership mask.
  const auto recompute_cell = [&](std::size_t c) {
    for (std::size_t e = 0; e < num_ext; ++e) {
      min_tmp[e] = std::numeric_limits<double>::infinity();
    }
    cell_max_own[c] = 0.0;
    cell_movable[c] = 0;
    const std::uint64_t* mask = cell_mask + c * words;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = mask[w];
      while (bits != 0) {
        const std::size_t idx =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t u = movable[idx];
        ++cell_movable[c];
        const double* inv = ctx.InvRow(u);
        for (std::size_t e = 0; e < num_ext; ++e) {
          min_tmp[e] = std::min(min_tmp[e], inv[e]);
        }
        cell_max_own[c] = std::max(cell_max_own[c], inv[c]);
      }
    }
    for (std::size_t e = 0; e < num_ext; ++e) {
      cell_min_inv[e * num_ext + c] = min_tmp[e];
    }
    cell_slack[c] = ws.inv_sum[c] - cell_max_own[c];
    cell_loadd[c] = static_cast<double>(ws.load[c]);
    cell_movabled[c] = static_cast<double>(cell_movable[c]);
  };
  for (std::size_t idx = 0; idx < m; ++idx) {
    const int e = ext_of[movable[idx]];
    if (e == model::Assignment::kUnassigned) continue;
    cell_mask[static_cast<std::size_t>(e) * words + idx / 64] |=
        std::uint64_t{1} << (idx % 64);
  }
  for (std::size_t c = 0; c < num_ext; ++c) recompute_cell(c);
  // Movable users currently on any cell (moves preserve it). Feeds the
  // O(1) pruning tallies below.
  int total_movable = 0;
  for (std::size_t c = 0; c < num_ext; ++c) total_movable += cell_movable[c];

  // Scratch for the division-free screens and the two-phase pair walk.
  double* scr = arena.Alloc<double>(num_ext);
  double* s_diff = arena.Alloc<double>(num_ext);
  int* cells_s = arena.Alloc<int>(num_ext);
  double* d_all = arena.Alloc<double>(m);

  for (stats.passes = 0; stats.passes < options.max_passes; ++stats.passes) {
    ++passes_run;
    double pass_gain = 0.0;
    std::uint64_t pass_reloc_accepts = 0;
    for (std::size_t a = 0; a < m; ++a) {
      // One user's target scan is the bounded unit of work; committed moves
      // are already in `assign`, so stopping here is always valid.
      if (util::DeadlineExpired(options.deadline)) {
        stats.deadline_hit = true;
        break;
      }
      const std::size_t user = movable[a];
      const int from = ext_of[user];
      if (from == model::Assignment::kUnassigned) continue;
      if (scanned[a] == ws.mutations) {
        ++memo_skips;
        continue;
      }
      const std::uint64_t seen = scanned[a];
      const std::size_t from_ext = static_cast<std::size_t>(from);
      // Restricted rescan: if this user's own cell is unchanged since its
      // last fruitless scan, targets on equally-unchanged cells would
      // reproduce the exact same rejected deltas — only cells dirtied
      // since need another look.
      const bool restricted =
          seen != kNever &&
          cell_stampd[from_ext] <= static_cast<double>(seen);
      // Stamp threshold for the vector pass: a restricted rescan keeps only
      // cells dirtied after `seen`; -1 admits every cell otherwise.
      const double seend = restricted ? static_cast<double>(seen) : -1.0;
      const double* inv = ctx.InvRow(user);
      const double thr_from = ws.thr[from_ext];
      const int load_from = ws.load[from_ext];
      const double after_from =
          load_from > 1 ? static_cast<double>(load_from - 1) /
                              (ws.inv_sum[from_ext] - inv[from_ext])
                        : 0.0;
      // Screen pass, branchless over the contiguous reciprocal-rate row:
      // target j can only improve if its post-adoption throughput exceeds
      // tol - after_from + thr_from + thr_j, i.e. load_j + 1 >= scr[j] in
      // multiply form. Eligibility (usable rate, target policy, capacity
      // room) and the restricted-rescan stamp check fold into the same
      // all-double pass as blends to +inf — which the screen test below
      // then rejects — so the loop auto-vectorizes and the selection scan
      // is left with a single predictable branch.
      const double h2 =
          ((tol - after_from) + thr_from) -
          kAbsMargin * (after_from + thr_from + std::abs(tol) + 1.0);
      for (std::size_t j = 0; j < num_ext; ++j) {
        const double thresh =
            ((h2 + ws.thr[j] * kThrShrink) * (ws.inv_sum[j] + inv[j])) *
            kRelMargin;
        const bool elig = (inv[j] != 0.0) & (cell_loadd[j] < elig_cap[j]) &
                          (cell_stampd[j] > seend);
        scr[j] = elig ? thresh : kInf;
      }
      // Selection scan: try every alternative extender; apply the single
      // best move. Divisions run only for screen survivors.
      int best_ext = -1;
      double best_delta = tol;
      std::uint64_t evals = 0;
      for (std::size_t j = 0; j < num_ext; ++j) {
        if (j == from_ext) continue;  // self-move, not a candidate
        if (static_cast<double>(ws.load[j] + 1) < scr[j]) continue;
        ++evals;
        const double after_j =
            static_cast<double>(ws.load[j] + 1) / (ws.inv_sum[j] + inv[j]);
        const double delta = (after_from + after_j) - (thr_from + ws.thr[j]);
        if (delta > best_delta) {
          best_delta = delta;
          best_ext = static_cast<int>(j);
        }
      }
      // Bulk tallies (pruned for any reason — stamp, screen, eligibility —
      // counts the same): every non-self target was either screened out or
      // exactly evaluated.
      rel.Evaluate(evals);
      rel.Prune(static_cast<std::uint64_t>(num_ext - 1) - evals);
      if (best_ext >= 0) {
        const std::size_t to = static_cast<std::size_t>(best_ext);
        ws.Remove(ctx, user, from_ext);
        ws.Add(ctx, user, to);
        assign.Assign(user, to);
        ext_of[user] = best_ext;
        pass_gain += best_delta;
        value += best_delta;
        ++stats.moves;
        ++rel.accepted;
        ++pass_reloc_accepts;
        const std::uint64_t bit = std::uint64_t{1} << (a % 64);
        cell_mask[from_ext * words + a / 64] &= ~bit;
        cell_mask[to * words + a / 64] |= bit;
        recompute_cell(from_ext);
        recompute_cell(to);
        cell_stampd[from_ext] = static_cast<double>(ws.mutations);
        cell_stampd[to] = static_cast<double>(ws.mutations);
      } else {
        scanned[a] = ws.mutations;
      }
    }

    // Pairwise exchanges run only once the relocation neighborhood has
    // quiesced (variable-neighborhood-descent ordering): a pass that still
    // commits single-user moves would invalidate most pair scans right
    // away, so sweeping the O(|movable|^2) neighborhood then is pure
    // waste. Convergence is unchanged — the loop only exits after a pass
    // in which BOTH neighborhoods came up empty.
    if (options.swap_moves && !stats.deadline_hit && pass_reloc_accepts == 0) {
      // Pairwise exchange: two users on different extenders trade places
      // (loads are unchanged, so B_j caps stay satisfied). Cell aggregates
      // and stamps are maintained at every accept, so no resync is needed
      // here.
      for (std::size_t a = 0; a < m; ++a) {
        if (util::DeadlineExpired(options.deadline)) {
          stats.deadline_hit = true;
          break;
        }
        const std::size_t u1 = movable[a];
        const int e1 = ext_of[u1];
        if (e1 == model::Assignment::kUnassigned) continue;
        if (swap_scanned[a] == ws.mutations) {
          ++memo_skips;
          continue;
        }
        const std::uint64_t seen = swap_scanned[a];
        const std::uint64_t mut0 = ws.mutations;
        const double* inv1 = ctx.InvRow(u1);
        std::size_t x1 = static_cast<std::size_t>(e1);
        double base1 = 0.0, thr1 = 0.0, load1 = 0.0;
        int n_cells = 0;
        // Candidate-cell screen: cell c survives only if its best
        // imaginable trade with u1 — fastest-at-x1 member in, slowest-at-c
        // member out, possibly different users, hence an upper bound —
        // could beat the tolerance; multiply form, division-free. Cells
        // clean since this user's last fruitless scan are dropped first
        // (their members' deltas are provably unchanged). Everything here
        // goes stale only when a swap commits, so it is refreshed there
        // and nowhere else.
        const auto refresh_u1 = [&] {
          base1 = ws.inv_sum[x1] - inv1[x1];
          thr1 = ws.thr[x1];
          load1 = static_cast<double>(ws.load[x1]);
          const bool restricted =
              seen != kNever && cell_stampd[x1] <= static_cast<double>(seen);
          const double seend = restricted ? static_cast<double>(seen) : -1.0;
          const double h3 =
              (tol + thr1) - kAbsMargin * (thr1 + std::abs(tol) + 1.0);
          // All-double vector pass: s_diff[c] < 0 means cell c is ruled
          // out — screened, unusable for u1, empty, or clean under a
          // restricted rescan.
          SwapCellScreen(s_diff, cell_min_inv + x1 * num_ext, cell_slack,
                         cell_loadd, ws.thr, inv1, okd, cell_movabled,
                         cell_stampd, base1, load1, h3, seend, num_ext);
          s_diff[x1] = -1.0;                              // own cell
          s_diff[static_cast<std::size_t>(e1)] = -1.0;    // original cell
          std::fill(partner_mask, partner_mask + words, 0);
          int surviving = 0;
          n_cells = 0;
          for (std::size_t c = 0; c < num_ext; ++c) {
            if (s_diff[c] < 0.0) continue;
            cells_s[n_cells++] = static_cast<int>(c);
            surviving += cell_movable[c];
            const std::uint64_t* mask = cell_mask + c * words;
            for (std::size_t w2 = 0; w2 < words; ++w2) {
              partner_mask[w2] |= mask[w2];
            }
          }
          // Pruning tally: every movable user on a ruled-out cell counts as
          // one generated-and-pruned swap candidate for this scan (whether
          // the cell fell to the stamp check, the screen, unusability, or
          // being u1's own cell — mirroring the relocate stage, which
          // tallies unusable targets as pruned too). The count is an upper
          // bound on the pairs a full scan would actually have visited (the
          // b > a resume position is ignored); Prune() bumps generated and
          // pruned together, so pruned + evaluated == generated stays
          // exact.
          const int own = cell_movable[x1] +
                          (static_cast<std::size_t>(e1) != x1
                               ? cell_movable[static_cast<std::size_t>(e1)]
                               : 0);
          swp.Prune(
              static_cast<std::uint64_t>(total_movable - own - surviving));
        };
        // Phase A of the pair walk (SwapDeltaPass above): exact deltas for
        // every surviving member after `start`, plus the running max and
        // the visit totals. Sound because the search state only changes on
        // an accept, and an accept recomputes everything the consume walk
        // still reads.
        SwapDeltaResult pa{kInelig, 0, 0};
        const auto recompute_deltas = [&](std::size_t start) {
          pa = SwapDeltaResult{kInelig, 0, 0};
          if (n_cells == 0) return;
          pa = SwapDeltaPass(cells_s, n_cells, ws.load, ws.inv_sum, ws.thr,
                             inv1, ctx.inv_t.data(), ctx.num_users, cell_mask,
                             words, movable.data(), ctx.InvCol(x1),
                             ok[x1] != 0, base1, load1, thr1, start, d_all);
        };
        refresh_u1();
        recompute_deltas(a);
        if (pa.best <= tol) {
          // No partner can pass phase B's accept test, so its walk would
          // only re-derive these totals and the memo write; short-circuit
          // both (mutations are untouched since mut0 by construction).
          swp.Prune(pa.inelig);
          swp.Evaluate(pa.total - pa.inelig);
          swap_scanned[a] = mut0;
          continue;
        }
        // Phase B consumes the precomputed deltas in ascending movable-
        // index order with the same tallies, comparisons and state updates
        // as a one-at-a-time loop; an accept rebuilds the partner set and
        // resumes right after the accepted partner.
        std::size_t w = a / 64;
        std::uint64_t bits = partner_mask[w] & ResumeMask(a);
        std::uint64_t ph_vis = 0;  // partners visited (generated)
        std::uint64_t ph_elig = 0;  // of those, exactly tested (evaluated)
        bool exhausted = false;
        for (;;) {
          while (bits == 0) {
            if (++w >= words) {
              exhausted = true;
              break;
            }
            bits = partner_mask[w];
          }
          if (exhausted) break;
          const std::size_t b =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          const double d = d_all[b];
          ++ph_vis;
          ph_elig += static_cast<std::uint64_t>(d != kInelig);
          if (d > tol) {
            const std::size_t u2 = movable[b];
            const std::size_t x2 = static_cast<std::size_t>(ext_of[u2]);
            ws.Remove(ctx, u1, x1);
            ws.Remove(ctx, u2, x2);
            ws.Add(ctx, u1, x2);
            ws.Add(ctx, u2, x1);
            assign.Assign(u1, x2);
            assign.Assign(u2, x1);
            ext_of[u1] = static_cast<int>(x2);
            ext_of[u2] = static_cast<int>(x1);
            pass_gain += d;
            value += d;
            ++stats.moves;
            ++swp.accepted;
            const std::uint64_t bit1 = std::uint64_t{1} << (a % 64);
            cell_mask[x1 * words + a / 64] &= ~bit1;
            cell_mask[x2 * words + a / 64] |= bit1;
            const std::uint64_t bit2 = std::uint64_t{1} << (b % 64);
            cell_mask[x2 * words + b / 64] &= ~bit2;
            cell_mask[x1 * words + b / 64] |= bit2;
            recompute_cell(x1);
            recompute_cell(x2);
            cell_stampd[x1] = static_cast<double>(ws.mutations);
            cell_stampd[x2] = static_cast<double>(ws.mutations);
            x1 = static_cast<std::size_t>(ext_of[u1]);
            refresh_u1();
            recompute_deltas(b);
            w = b / 64;
            bits = partner_mask[w] & ResumeMask(b);
          }
        }
        // Bulk flush of the walk's tallies (same totals as per-partner
        // increments; pruned = partners whose delta carried the ineligible
        // sentinel).
        swp.Prune(ph_vis - ph_elig);
        swp.Evaluate(ph_elig);
        if (ws.mutations == mut0) swap_scanned[a] = mut0;
      }
    }
    if (stats.deadline_hit) break;
    if (pass_gain <= tol) break;
  }

  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->solver.relocate_generated.Add(rel.generated);
    s->solver.relocate_pruned.Add(rel.pruned);
    s->solver.relocate_evaluated.Add(rel.evaluated);
    s->solver.relocate_accepted.Add(rel.accepted);
    s->solver.swap_generated.Add(swp.generated);
    s->solver.swap_pruned.Add(swp.pruned);
    s->solver.swap_evaluated.Add(swp.evaluated);
    s->solver.swap_accepted.Add(swp.accepted);
    s->solver.ls_passes.Add(passes_run);
    s->solver.ls_memo_skips.Add(memo_skips);
  }

  stats.final_value = value;
  return stats;
}

// ---------------------------------------------------------------------------
// Evaluator-backed objectives (kEndToEnd / kProportionalFair): every
// candidate move delegates to model::IncrementalEvaluator (O(|PLC domain|)
// per move, allocation-free). No full Evaluator run happens per move.
//
// Under co-channel contention the end-to-end search peeks through
// PeekMoveAbove / PeekSwapAbove, which read the engine's demand bound, an
// exact upper bound on the peek's aggregate, and skip the peek when the
// bound cannot beat the acceptance threshold. The skipped candidate could
// not have been accepted, so the search visits, accepts and rejects the
// same moves; its tally counts the candidate as pruned.

// True when `inc` can bound `objective`'s peeks (see above).
bool ScreensPeeks(const model::IncrementalEvaluator& inc,
                  Phase2Objective objective) {
  return objective == Phase2Objective::kEndToEnd &&
         inc.regime() == model::IncrementalEvaluator::Regime::kExact;
}

double ValueOf(const model::IncrementalValues& v, Phase2Objective objective) {
  return objective == Phase2Objective::kEndToEnd ? v.aggregate_mbps
                                                 : v.log_utility;
}

double IncValue(const model::IncrementalEvaluator& inc,
                Phase2Objective objective) {
  return objective == Phase2Objective::kEndToEnd ? inc.aggregate_mbps()
                                                 : inc.log_utility();
}

void GreedyInsertInc(const SearchContext& ctx, const model::Network& net,
                     model::Assignment& assign,
                     const std::vector<std::size_t>& users,
                     const LocalSearchOptions& options) {
  model::IncrementalEvaluator inc(
      net, assign, options.eval, model::IncrementalEvaluator::kDefaultLogFloorMbps,
      /*track_log_utility=*/options.objective == Phase2Objective::kProportionalFair);
  const bool screen = ScreensPeeks(inc, options.objective);
  std::uint64_t inserts = 0;
  for (std::size_t user : users) {
    if (util::DeadlineExpired(options.deadline)) break;
    if (assign.IsAssigned(user)) continue;
    int best_ext = -1;
    double best_value = 0.0;
    for (std::size_t j = 0; j < ctx.num_extenders; ++j) {
      if (!ctx.Usable(user, j) || !ctx.HasRoom(j, inc.Load(j))) continue;
      const std::optional<model::IncrementalValues> peek =
          screen && best_ext >= 0
              ? inc.PeekMoveAbove(user, static_cast<int>(j), best_value)
              : inc.PeekMove(user, static_cast<int>(j));
      if (!peek) continue;
      const double candidate = ValueOf(*peek, options.objective);
      if (best_ext < 0 || candidate > best_value) {
        best_value = candidate;
        best_ext = static_cast<int>(j);
      }
    }
    if (best_ext < 0) continue;  // unreachable user stays unassigned
    assign.Assign(user, static_cast<std::size_t>(best_ext));
    inc.ApplyMove(user, best_ext);
    ++inserts;
  }
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->solver.ls_inserts.Add(inserts);
  }
}

LocalSearchStats RelocateInc(const SearchContext& ctx,
                             const model::Network& net,
                             model::Assignment& assign,
                             const std::vector<std::size_t>& movable,
                             const LocalSearchOptions& options) {
  model::IncrementalEvaluator inc(
      net, assign, options.eval, model::IncrementalEvaluator::kDefaultLogFloorMbps,
      /*track_log_utility=*/options.objective == Phase2Objective::kProportionalFair);

  const bool screen = ScreensPeeks(inc, options.objective);

  LocalSearchStats stats;
  stats.initial_value = IncValue(inc, options.objective);
  double value = stats.initial_value;

  MoveTally rel, swp;
  std::uint64_t passes_run = 0;

  for (stats.passes = 0; stats.passes < options.max_passes; ++stats.passes) {
    ++passes_run;
    double pass_gain = 0.0;
    for (std::size_t user : movable) {
      if (util::DeadlineExpired(options.deadline)) {
        stats.deadline_hit = true;
        break;
      }
      const int from = assign.ExtenderOf(user);
      if (from == model::Assignment::kUnassigned) continue;
      const std::size_t from_ext = static_cast<std::size_t>(from);

      int best_ext = -1;
      double best_value = value;
      for (std::size_t j = 0; j < ctx.num_extenders; ++j) {
        if (j == from_ext) continue;  // self-move, not a candidate
        if (!ctx.Usable(user, j) || !ctx.HasRoom(j, inc.Load(j))) {
          rel.Prune();
          continue;
        }
        const double threshold = best_value + options.improvement_tolerance;
        const std::optional<model::IncrementalValues> peek =
            screen ? inc.PeekMoveAbove(user, static_cast<int>(j), threshold)
                   : inc.PeekMove(user, static_cast<int>(j));
        if (!peek) {
          rel.Prune();
          continue;
        }
        rel.Evaluate();
        const double candidate = ValueOf(*peek, options.objective);
        if (candidate > threshold) {
          best_value = candidate;
          best_ext = static_cast<int>(j);
        }
      }
      if (best_ext >= 0) {
        inc.ApplyMove(user, best_ext);
        assign.Assign(user, static_cast<std::size_t>(best_ext));
        pass_gain += best_value - value;
        value = best_value;
        ++stats.moves;
        ++rel.accepted;
      }
    }

    if (options.swap_moves && !stats.deadline_hit) {
      for (std::size_t a = 0; a < movable.size(); ++a) {
        if (util::DeadlineExpired(options.deadline)) {
          stats.deadline_hit = true;
          break;
        }
        const std::size_t u1 = movable[a];
        const int e1 = assign.ExtenderOf(u1);
        if (e1 == model::Assignment::kUnassigned) continue;
        for (std::size_t b = a + 1; b < movable.size(); ++b) {
          const std::size_t u2 = movable[b];
          const int e2 = assign.ExtenderOf(u2);
          if (e2 == model::Assignment::kUnassigned || e1 == e2) continue;
          const std::size_t x1 = static_cast<std::size_t>(
              assign.ExtenderOf(u1));  // may have changed since e1 was read
          const std::size_t x2 = static_cast<std::size_t>(e2);
          if (x1 == x2) continue;
          if (!ctx.Usable(u1, x2) || !ctx.Usable(u2, x1)) {
            swp.Prune();
            continue;
          }
          const double threshold = value + options.improvement_tolerance;
          const std::optional<model::IncrementalValues> peek =
              screen ? inc.PeekSwapAbove(u1, u2, threshold)
                     : inc.PeekSwap(u1, u2);
          if (!peek) {
            swp.Prune();
            continue;
          }
          swp.Evaluate();
          const double candidate = ValueOf(*peek, options.objective);
          if (candidate > threshold) {
            inc.ApplyMove(u1, static_cast<int>(x2));
            inc.ApplyMove(u2, static_cast<int>(x1));
            assign.Assign(u1, x2);
            assign.Assign(u2, x1);
            pass_gain += candidate - value;
            value = candidate;
            ++stats.moves;
            ++swp.accepted;
          }
        }
      }
    }
    if (stats.deadline_hit) break;
    if (pass_gain <= options.improvement_tolerance) break;
  }

  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->solver.relocate_generated.Add(rel.generated);
    s->solver.relocate_pruned.Add(rel.pruned);
    s->solver.relocate_evaluated.Add(rel.evaluated);
    s->solver.relocate_accepted.Add(rel.accepted);
    s->solver.swap_generated.Add(swp.generated);
    s->solver.swap_pruned.Add(swp.pruned);
    s->solver.swap_evaluated.Add(swp.evaluated);
    s->solver.swap_accepted.Add(swp.accepted);
    s->solver.ls_passes.Add(passes_run);
  }

  stats.final_value = value;
  return stats;
}

}  // namespace

double Phase2Value(const model::Network& net, const model::Assignment& assign,
                   Phase2Objective objective, const model::EvalOptions& eval) {
  switch (objective) {
    case Phase2Objective::kWifiSum: {
      const std::size_t num_ext = net.NumExtenders();
      std::vector<int> load(num_ext, 0);
      std::vector<double> inv_sum(num_ext, 0.0);
      for (std::size_t i = 0; i < net.NumUsers(); ++i) {
        const int e = assign.ExtenderOf(i);
        if (e == model::Assignment::kUnassigned) continue;
        const double r = net.WifiRate(i, static_cast<std::size_t>(e));
        if (r <= 0.0) {
          throw std::invalid_argument("insert at unreachable extender");
        }
        ++load[static_cast<std::size_t>(e)];
        inv_sum[static_cast<std::size_t>(e)] += 1.0 / r;
      }
      double total = 0.0;
      for (std::size_t j = 0; j < num_ext; ++j) {
        if (load[j] > 0) total += static_cast<double>(load[j]) / inv_sum[j];
      }
      return total;
    }
    case Phase2Objective::kEndToEnd:
      return model::IncrementalEvaluator(net, assign, eval).aggregate_mbps();
    case Phase2Objective::kProportionalFair:
      return model::IncrementalEvaluator(net, assign, eval).log_utility();
  }
  return 0.0;
}

void GreedyInsert(const model::Network& net, model::Assignment& assign,
                  const std::vector<std::size_t>& users,
                  const LocalSearchOptions& options) {
  const SearchContext ctx(net, options);
  util::SolverArena local;
  util::SolverArena& arena = options.arena ? *options.arena : local;
  if (options.objective == Phase2Objective::kWifiSum) {
    GreedyInsertWifi(ctx, assign, users, options.deadline, arena);
  } else {
    GreedyInsertInc(ctx, net, assign, users, options);
  }
}

LocalSearchStats RelocateLocalSearch(const model::Network& net,
                                     model::Assignment& assign,
                                     const std::vector<std::size_t>& movable,
                                     const LocalSearchOptions& options) {
  const SearchContext ctx(net, options);
  util::SolverArena local;
  util::SolverArena& arena = options.arena ? *options.arena : local;
  if (options.objective == Phase2Objective::kWifiSum) {
    return RelocateWifi(ctx, assign, movable, options, arena);
  }
  return RelocateInc(ctx, net, assign, movable, options);
}

double SolvePhase2MultiStart(const model::Network& net,
                             model::Assignment& assign,
                             const std::vector<std::size_t>& movable,
                             const LocalSearchOptions& options) {
  const SearchContext ctx(net, options);
  util::SolverArena local;
  util::SolverArena& arena = options.arena ? *options.arena : local;

  // Candidate insertion orders: as given, best-rate descending (strong
  // users claim their extenders first), best-rate ascending (weak users get
  // first pick of uncontended cells). The per-user key is hoisted out of
  // the comparator (same max-over-extenders values, computed once per user
  // instead of O(E) per comparison, so the sort is unchanged).
  const auto best_rate = [&](std::size_t user) {
    double best = 0.0;
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (!options.extender_mask.empty() && !options.extender_mask[j]) {
        continue;
      }
      best = std::max(best, net.WifiRate(user, j));
    }
    return best;
  };
  std::vector<double> rate_key(net.NumUsers(), 0.0);
  for (std::size_t u : movable) rate_key[u] = best_rate(u);
  std::vector<std::vector<std::size_t>> orders;
  orders.push_back(movable);
  std::vector<std::size_t> desc = movable;
  std::sort(desc.begin(), desc.end(), [&](std::size_t a, std::size_t b) {
    return rate_key[a] > rate_key[b];
  });
  orders.push_back(desc);
  std::vector<std::size_t> asc(desc.rbegin(), desc.rend());
  orders.push_back(std::move(asc));

  const bool wifi = options.objective == Phase2Objective::kWifiSum;
  const model::Assignment base = assign;

  const bool parallel = options.pool != nullptr && options.pool->size() > 1;

  if (!parallel) {
    model::Assignment best_assignment = assign;
    double best_value = -1.0;
    bool first = true;
    std::uint64_t searched = 0;
    // Different insertion orders frequently greedy-insert into the same
    // assignment; the local search is deterministic, so a duplicate start
    // can only reproduce an earlier run's result and is skipped outright.
    std::vector<std::vector<int>> seen_starts;
    for (const auto& order : orders) {
      // Keep the first start even under an expired deadline (its insert and
      // search truncate internally, still yielding a complete, valid
      // assignment); skip the extra starts once a result exists.
      if (!first && util::DeadlineExpired(options.deadline)) break;
      model::Assignment candidate = base;
      if (wifi) {
        GreedyInsertWifi(ctx, candidate, order, options.deadline, arena);
      } else {
        GreedyInsertInc(ctx, net, candidate, order, options);
      }
      std::vector<int> snap(ctx.num_users);
      for (std::size_t i = 0; i < ctx.num_users; ++i) {
        snap[i] = candidate.ExtenderOf(i);
      }
      bool duplicate = false;
      for (const auto& prior : seen_starts) {
        if (prior == snap) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      seen_starts.push_back(std::move(snap));
      const LocalSearchStats stats =
          wifi ? RelocateWifi(ctx, candidate, movable, options, arena)
               : RelocateInc(ctx, net, candidate, movable, options);
      ++searched;
      if (first || stats.final_value > best_value) {
        first = false;
        best_value = stats.final_value;
        best_assignment = std::move(candidate);
      }
    }
    assign = std::move(best_assignment);
    if (obs::MetricsScope* s = obs::CurrentScope()) {
      s->solver.ls_starts.Add(searched);
    }
    return best_value;
  }

  // In-solve parallel path. The greedy inserts stay serial (they are cheap
  // next to the searches, and the dedup must observe starts in the serial
  // order); the local searches then run concurrently, one start per task,
  // and the merge walks results in ascending start index with the same
  // strict-improvement rule as the serial loop — so with an unexpired
  // deadline the outcome is byte-identical at any thread count.
  std::vector<model::Assignment> starts;
  std::vector<std::vector<int>> seen_starts;
  for (const auto& order : orders) {
    if (!starts.empty() && util::DeadlineExpired(options.deadline)) break;
    model::Assignment candidate = base;
    if (wifi) {
      GreedyInsertWifi(ctx, candidate, order, options.deadline, arena);
    } else {
      GreedyInsertInc(ctx, net, candidate, order, options);
    }
    std::vector<int> snap(ctx.num_users);
    for (std::size_t i = 0; i < ctx.num_users; ++i) {
      snap[i] = candidate.ExtenderOf(i);
    }
    bool duplicate = false;
    for (const auto& prior : seen_starts) {
      if (prior == snap) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    seen_starts.push_back(std::move(snap));
    starts.push_back(std::move(candidate));
  }

  const std::size_t n = starts.size();
  std::deque<util::SolverArena> local_arenas;
  std::deque<util::SolverArena>& arenas =
      options.start_arenas ? *options.start_arenas : local_arenas;
  while (arenas.size() < n) arenas.emplace_back();

  std::vector<double> values(n, 0.0);
  obs::MetricsRegistry* const registry = obs::CurrentRegistry();
  options.pool->ParallelFor(n, 1, [&](std::size_t k) {
    // Carry the caller's metrics registry onto the worker: the counters are
    // commutative relaxed adds, so the totals stay thread-count-independent.
    std::optional<obs::ScopedMetrics> scoped;
    if (registry != nullptr && obs::CurrentScope() == nullptr) {
      scoped.emplace(*registry);
    }
    util::SolverArena& start_arena = arenas[k];
    start_arena.Reset();
    const LocalSearchStats stats =
        wifi ? RelocateWifi(ctx, starts[k], movable, options, start_arena)
             : RelocateInc(ctx, net, starts[k], movable, options);
    values[k] = stats.final_value;
  });

  double best_value = -1.0;
  std::size_t best_k = 0;
  bool first = true;
  for (std::size_t k = 0; k < n; ++k) {
    if (first || values[k] > best_value) {
      first = false;
      best_value = values[k];
      best_k = k;
    }
  }
  if (!first) assign = std::move(starts[best_k]);
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->solver.ls_starts.Add(n);
    s->solver.ls_parallel_starts.Add(n);
  }
  return best_value;
}

}  // namespace wolt::assign
