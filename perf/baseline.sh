#!/usr/bin/env bash
# Record a baseline: one untraced and one traced run of every workload
# on the default seed, written with the host's core count and the
# bounds of BENCHMARK.json to perf/baseline/<cores>-core.json. Run it
# from anywhere, on a quiet host, after a change to the benchmark or
# when a perf change has been accepted.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - <<'EOF'
import json, os, subprocess

bench = json.load(open("BENCHMARK.json"))
seed = 1988
cores = os.cpu_count()

def run(workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and not result["failed"], f"{workload}: checks failed"
    # Among the '#' lines are the simulated statistics and the dump
    # digests, which a later run of this seed must reproduce exactly.
    return {"checks": [l[2:] for l in lines if l.startswith("# ")],
            "attempted": result["attempted"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}

baseline = {
    "host_cores": cores,
    "seed": seed,
    "run_seconds": bench["run_seconds"],
    "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
    "units": {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]},
    "workloads": {},
}
for workload in (w["name"] for w in bench["workloads"]):
    print(workload, flush=True)
    baseline["workloads"][workload] = {"end_to_end": run(workload, 0), "per_layer": run(workload, 1)}
os.makedirs("perf/baseline", exist_ok=True)
path = f"perf/baseline/{cores}-core.json"
json.dump(baseline, open(path, "w"), indent=1)
print("wrote", path)
EOF
