#!/usr/bin/env python3
"""The benchmark's own steadiness test.

    python3 perfbench/test_steadiness.py [--seconds 1]

Run from the repository root.  Runs every workload of BENCHMARK.json twice
untraced and twice traced, with a short time budget and two seeds (which
only change the job order), and checks that

  * each run exits 0 with "correct": true and no failed job;
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    prints with the unit BENCHMARK.json declares;
  * the exact metrics, which depend only on the generated instances and the
    deterministic scheduler, are identical in both runs, whatever the order.

Exits 0 when every check passes, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Metrics that must repeat exactly between runs of the same code and seed.
EXACT_END_TO_END = ["energy_nj", "deadlines_met_frac", "jobs_ok_frac"]
EXACT_PER_LAYER = [
    "core.probe.issued", "core.probe.cache_hits", "core.probe.hit_rate",
    "core.repair.tried", "core.repair.accepted", "core.repair.accept_rate",
    "core.repair.rebuilds", "core.repair.suffix_reuse_rate", "core.budget_retries",
]


def run(workload, trace, seconds, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--setup-reps", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return out.returncode, result, out.stderr


def check(workload, trace, declared, exact, seconds):
    errors = []
    results = []
    for attempt in range(2):
        code, result, stderr = run(workload, trace, seconds, seed=7 + attempt)
        if code != 0 or result is None:
            errors.append(f"run {attempt} exited {code}: {stderr.strip()[-400:]}")
            continue
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            errors.append(f"run {attempt} not correct: {result['failed']} of "
                          f"{result['attempted']} jobs failed")
        metrics = result["metrics"]
        for name, unit in declared.items():
            if name not in metrics:
                errors.append(f"run {attempt} lacks {name}")
            elif metrics[name]["unit"] != unit:
                errors.append(f"run {attempt}: {name} in {metrics[name]['unit']}, not {unit}")
        extra = sorted(set(metrics) - set(declared))
        if extra:
            errors.append(f"run {attempt} prints undeclared metrics {extra}")
        results.append(metrics)
    if len(results) == 2:
        for name in exact:
            a, b = (r.get(name, {}).get("value") for r in results)
            if a != b:
                errors.append(f"{name} differs between runs: {a} vs {b}")
    return errors


def main(argv):
    seconds = float(argv[argv.index("--seconds") + 1]) if "--seconds" in argv[:-1] else 1.0
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared, exact in ((0, end_to_end, EXACT_END_TO_END),
                                       (1, per_layer, EXACT_PER_LAYER)):
            errors = check(workload, trace, declared, exact, seconds)
            print(f"{'FAIL' if errors else 'ok  '} {workload} trace={trace}")
            for e in errors:
                print(f"     {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
