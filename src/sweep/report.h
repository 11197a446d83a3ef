// CSV / JSON reporters for sweep results. All numeric fields are emitted
// with %.17g (exact double round-trip), and per-task wall-clock timings —
// the only thread-count-dependent values a sweep produces — are excluded
// unless explicitly requested, so the reports of a 1-thread and an N-thread
// run of the same grid are byte-identical. The CI determinism smoke diffs
// exactly these bytes.
#pragma once

#include <string>

#include "sweep/engine.h"

namespace wolt::sweep {

struct ReportOptions {
  bool include_timing = false;
};

// Per-task rows: one line per grid point with its raw scores.
std::string TaskCsvString(const SweepResult& result, ReportOptions = {});
// Per-configuration rows: merged statistics over the replicate axis.
std::string GroupCsvString(const SweepResult& result, ReportOptions = {});
// Both views in one JSON document.
std::string JsonString(const SweepResult& result, ReportOptions = {});

}  // namespace wolt::sweep
