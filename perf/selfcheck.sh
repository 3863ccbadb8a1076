#!/usr/bin/env bash
# Run the benchmark against itself: two sets of N untraced runs per
# workload (default 5; the driver uses 10), each run with its own seed,
# on the same code. Prints, per workload and end-to-end metric, the
# two medians, how much worse the second is than the first, each set's
# quartile spread as a share of its median, and the metric's bound;
# exits 1 if a difference or a spread exceeds its bound.
#
#   perf/selfcheck.sh [N] [results.json]
#
# Run it from the repository root. It reads BENCHMARK.json for the
# command, the workloads and the bounds, so it calibrates exactly what
# the driver will judge.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-5}" "${2:-}" <<'EOF'
import json, statistics, subprocess, sys

runs = int(sys.argv[1])
bench = json.load(open("BENCHMARK.json"))

def run(workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: checks failed\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items()}

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

ok = True
record = {}
print(f"{'workload':<14} {'metric':<14} {'median 1':>12} {'median 2':>12} {'worse':>7} {'iqr 1':>6} {'iqr 2':>6} {'bound':>6}")
for workload in (w["name"] for w in bench["workloads"]):
    sets = [[run(workload, 1000 * s + i) for i in range(runs)] for s in (1, 2)]
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r[name] for r in one] for one in sets]
        m1, m2 = (statistics.median(v) for v in values)
        worse = (m2 - m1) / m1 * (1 if metric["better"] == "lower" else -1)
        spreads = [spread(v) if runs >= 2 else 0.0 for v in values]
        bad = worse > bound or (name != "setup_s" and max(spreads) > bound)
        ok &= not bad
        record.setdefault(workload, {})[name] = {"sets": values, "medians": [m1, m2], "worse": worse, "spreads": spreads}
        print(f"{workload:<14} {name:<14} {m1:>12.4f} {m2:>12.4f} {worse:>+7.1%} {spreads[0]:>6.1%} {spreads[1]:>6.1%} {bound:>6.0%}{'  <-- exceeds' if bad else ''}", flush=True)
if sys.argv[2]:
    json.dump(record, open(sys.argv[2], "w"), indent=1)
sys.exit(0 if ok else 1)
EOF
