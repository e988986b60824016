#!/usr/bin/env bash
# Interleaved A/B of the perfbench benchmark between two git revisions.
#
#   scripts/ab.sh <rev-a> <rev-b> <workload> [runs]
#
# Each revision is checked out into its own git worktree under $AB_DIR and
# built there by perfbench/run.py with its own CARGO_TARGET_DIR, so the two
# builds share nothing. After one untimed warm-up run per revision (which
# also builds it), the runs alternate between the revisions (a b, b a, a b,
# ...) so slow drift of the host lands on both sides alike; pair i runs
# seed i on both. Then, per metric, it prints the median and IQR of each
# revision, the ratio of the medians (b / a) and in how many pairs b was
# better. The run length (run_seconds) and the metric directions come from
# rev-a's BENCHMARK.json; for text-report figures (AB_FIGURES) "better"
# means higher for the throughput figures (sim_tasks_per_s, max_load,
# admit_frac, inproc.qps, tcp.qps) and lower for the rest. A last parity
# line says whether every sim.fingerprint.* and max_load line of each run
# is identical between the two revisions (same seed, so a change that keeps
# schedules must keep them).
#
# Environment:
#   AB_TRACE    1 = traced runs, which add the per-layer metrics (default 0)
#   AB_FIGURES  space-separated text-report figures to tabulate as well,
#               e.g. "tcp.p50_ms tcp.qps" (default: none)
#   AB_DIR      directory for worktrees, builds and raw outputs (default: a
#               new temporary directory; it is kept, the worktrees are not)
#
# Example:
#   AB_FIGURES="tcp.p50_ms" scripts/ab.sh HEAD~1 HEAD serve-loopback 10
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
  echo "usage: $0 <rev-a> <rev-b> <workload> [runs]" >&2
  exit 2
fi
workload=$3
runs=${4:-10}
trace=${AB_TRACE:-0}
repo=$(git rev-parse --show-toplevel)
sha_a=$(git -C "$repo" rev-parse --verify "$1^{commit}")
sha_b=$(git -C "$repo" rev-parse --verify "$2^{commit}")
dir=${AB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/tg-ab.XXXXXX")}
mkdir -p "$dir/out"

cleanup() {
  for side in a b; do
    if [[ -d "$dir/$side" ]]; then
      git -C "$repo" worktree remove --force "$dir/$side" || true
    fi
  done
}
trap cleanup EXIT

for side in a b; do
  sha=$sha_a
  [[ $side == b ]] && sha=$sha_b
  git -C "$repo" worktree add --detach "$dir/$side" "$sha" >/dev/null
done
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$dir/a/BENCHMARK.json")

# run_one <side> <seed> <seconds> <output file>
run_one() {
  (cd "$dir/$1" &&
    CARGO_TARGET_DIR="$dir/$1-target" python3 perfbench/run.py \
      --workload "$workload" --seed "$2" --seconds "$3" --trace "$trace") \
    >"$4" 2>&1
}

for side in a b; do
  echo "building and warming up $side ..." >&2
  if ! run_one "$side" 0 1 "$dir/out/$side.warmup.txt"; then
    tail -20 "$dir/out/$side.warmup.txt" >&2
    exit 1
  fi
done

for ((i = 1; i <= runs; i++)); do
  order="a b"
  ((i % 2 == 0)) && order="b a"
  for side in $order; do
    echo "pair $i/$runs: $side" >&2
    run_one "$side" "$i" "$seconds" "$dir/out/$side.$i.txt" ||
      echo "  run failed (kept in $dir/out/$side.$i.txt)" >&2
  done
done

echo "a = $sha_a"
echo "b = $sha_b"
echo "workload=$workload runs=$runs seconds=$seconds trace=$trace raw=$dir/out"
python3 - "$dir" "$runs" "${AB_FIGURES:-}" <<'EOF'
import json, os, re, statistics, sys

out_dir, runs, figures = sys.argv[1], int(sys.argv[2]), sys.argv[3].split()
spec = json.load(open(os.path.join(out_dir, "a", "BENCHMARK.json")))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
# Text-report figures are not in BENCHMARK.json; these are higher-is-better,
# every other figure is lower-is-better.
for name in ("sim_tasks_per_s", "max_load", "admit_frac", "inproc.qps", "tcp.qps"):
    better.setdefault(name, "higher")
row = re.compile(r"^\s+(\S+)\s+([-+0-9.eE]+|nan|inf)\s+(\S+)")
parity_row = re.compile(r"^\s+(sim\.fingerprint\.\d+|max_load)\s")


def read_lines(path):
    try:
        return open(path).read().splitlines()
    except OSError:
        return []


def parse(path):
    """Returns (result JSON or None, {metric: (value, unit)})."""
    lines = read_lines(path)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, {}
    values = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    for line in lines:
        m = row.match(line)
        if m and m.group(1) in figures:
            values[m.group(1)] = (float(m.group(2)), m.group(3))
    return result, values


runs_of = {"a": [], "b": []}
for i in range(1, runs + 1):
    for side in "ab":
        runs_of[side].append(parse(os.path.join(out_dir, "out", f"{side}.{i}.txt")))

for side in "ab":
    results = [r for r, _ in runs_of[side] if r is not None]
    print(f"{side}: {len(results)}/{runs} runs finished, "
          f"{sum(r['correct'] for r in results)} correct, "
          f"failed ops {sum(r['failed'] for r in results)} of "
          f"{sum(r['attempted'] for r in results)}")


def med_iqr(xs):
    if len(xs) < 2:
        return (xs[0] if xs else float("nan")), 0.0
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q3 - q1


names = []
for _, values in runs_of["a"] + runs_of["b"]:
    names += [n for n in values if n not in names]
print(f"\n{'metric':<26} {'unit':<6} {'a median':>12} {'a IQR':>10} "
      f"{'b median':>12} {'b IQR':>10} {'b/a':>7} {'b better':>9}")
for name in names:
    got = {s: [v[name][0] for _, v in runs_of[s] if name in v] for s in "ab"}
    unit = next(v[name][1] for _, v in runs_of["a"] + runs_of["b"] if name in v)
    (ma, ia), (mb, ib) = med_iqr(got["a"]), med_iqr(got["b"])
    higher = better.get(name) == "higher"
    wins = total = 0
    for (_, va), (_, vb) in zip(runs_of["a"], runs_of["b"]):
        if name in va and name in vb:
            total += 1
            a, b = va[name][0], vb[name][0]
            wins += b > a if higher else b < a
    ratio = mb / ma if ma else float("nan")
    print(f"{name:<26} {unit:<6} {ma:>12.6g} {ia:>10.3g} {mb:>12.6g} "
          f"{ib:>10.3g} {ratio:>7.3f} {wins:>4}/{total:<4}")



# Schedule parity: the same seed must print the same fingerprints and max_load.
def parity_lines(side, i):
    path = os.path.join(out_dir, "out", f"{side}.{i}.txt")
    return [line.strip() for line in read_lines(path) if parity_row.match(line)]


pairs = [(parity_lines("a", i), parity_lines("b", i)) for i in range(1, runs + 1)]
compared = sum(len(a) for a, _ in pairs)
differ = [i for i, (a, b) in enumerate(pairs, 1) if a != b]
if compared == 0 and not differ:
    print("\nparity: no sim.fingerprint.* or max_load lines to compare")
elif differ:
    print(f"\nparity: sim.fingerprint.*/max_load DIFFER in pairs {differ}")
else:
    print(f"\nparity: sim.fingerprint.*/max_load identical in all {runs} pairs "
          f"({compared} lines per side)")
EOF
