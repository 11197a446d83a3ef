#!/usr/bin/env bash
# Before/after benchmark pairs: the working tree against a git ref.
#
#   scripts/perf_pairs.sh <ref> [--workload W] [--seed N[,N...]]
#                               [--pairs N] [--seconds S]
#
# Exports <ref> (a commit, branch or tag) with `git archive` into a fresh
# directory under ${TMPDIR:-/tmp}, builds it and the working tree each
# into its own CARGO_TARGET_DIR there (neither checkout's .bench_build is
# touched), then runs N pairs (default 10) of
#   python3 perfbench/run.py --workload W --seed N --seconds S --trace 0
# for one workload (default building) and each listed seed in turn
# (default 1; e.g. --seed 1,7919), 30 s per run by default, alternating
# which side runs first. Host noise comes in spells of minutes, so only
# pairs run back to back compare.
#
# For each seed and every end-to-end metric in BENCHMARK.json it prints the
# ref's and the working tree's medians, the ref's quartiles, the change of
# the medians, whether that change exceeds the ref's interquartile range,
# and in how many pairs the working tree was better (by the metric's
# "better" direction). It also prints the failed-operation counts. Nothing
# in the repository is written; the temporary directory is removed on
# exit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/perf_pairs.sh <ref> [--workload W] [--seed N[,N...]] [--pairs N] [--seconds S]"
ref="${1:?${usage}}"
shift
workload=building
seeds=1
pairs=10
seconds=30
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seeds="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    *) echo "${usage}" >&2; exit 2 ;;
  esac
done
IFS=, read -r -a seed_list <<<"${seeds}"

work="$(mktemp -d -t perf_pairs.XXXXXX)"
trap 'rm -rf "${work}"' EXIT
mkdir "${work}/base"
git archive --format=tar "${ref}" | tar -x -C "${work}/base"

# run <side> <checkout> <seed>: one benchmark run, its JSON line appended
# to ${work}/<side>-<seed>.jsonl.
run() {
  (cd "$2" && CARGO_TARGET_DIR="${work}/target-$1" python3 perfbench/run.py \
      --workload "${workload}" --seed "$3" --seconds "${seconds}" \
      --trace 0 2>/dev/null | tail -n 1) >>"${work}/$1-$3.jsonl"
}

echo "==> building ${ref} and the working tree"
for side in base head; do
  dir="${work}/base"
  [[ "${side}" == head ]] && dir="${PWD}"
  (cd "${dir}" && CARGO_TARGET_DIR="${work}/target-${side}" \
      python3 perfbench/run.py --selftest >/dev/null 2>&1) ||
    { echo "error: building ${side} failed" >&2; exit 1; }
done

for seed in "${seed_list[@]}"; do
  for ((k = 1; k <= pairs; ++k)); do
    echo "==> pair ${k}/${pairs}: ${workload}, seed ${seed}, ${seconds} s"
    if ((k % 2)); then
      run base "${work}/base" "${seed}"
      run head "${PWD}" "${seed}"
    else
      run head "${PWD}" "${seed}"
      run base "${work}/base" "${seed}"
    fi
  done
done

for seed in "${seed_list[@]}"; do
  echo
  echo "==> ${workload}, seed ${seed}"
  python3 - "${work}/base-${seed}.jsonl" "${work}/head-${seed}.jsonl" \
      "${ref}" <<'PY'
import json
import statistics
import sys

base_path, head_path, ref = sys.argv[1:4]
base = [json.loads(line) for line in open(base_path) if line.startswith("{")]
head = [json.loads(line) for line in open(head_path) if line.startswith("{")]
if not base or len(base) != len(head):
    sys.exit("error: %d %s runs and %d working-tree runs gave a result"
             % (len(base), ref, len(head)))
with open("BENCHMARK.json") as f:
    declared = json.load(f)["end_to_end"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


print("%d pairs; 'base' is %s, 'head' the working tree" % (len(base), ref))
print("%-18s %14s %14s %26s %8s %6s %6s" %
      ("metric", "base median", "head median", "base quartiles", "change",
       ">IQR", "wins"))
for m in declared:
    name = m["name"]
    b = [r["metrics"][name]["value"] for r in base]
    h = [r["metrics"][name]["value"] for r in head]
    mb, mh = statistics.median(b), statistics.median(h)
    q1, q3 = quartiles(b)
    lower = m["better"] == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
    change = (mh - mb) / mb if mb else float("nan")
    print("%-18s %14.6g %14.6g %12.6g..%-12.6g %+7.1f%% %6s %3d/%d" %
          (name, mb, mh, q1, q3, 100.0 * change,
           "yes" if abs(mh - mb) > q3 - q1 else "no", wins, len(b)))
for label, runs in (("base", base), ("head", head)):
    print("%s: failed operations per run %s, output checks failed in %d runs"
          % (label, [r["failed"] for r in runs],
             sum(not r["correct"] for r in runs)))
PY
done
