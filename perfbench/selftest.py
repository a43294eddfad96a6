#!/usr/bin/env python3
"""The benchmark's own test, at reduced length.

    python3 perfbench/selftest.py [path/to/tas_perfbench]

Asserts, for every workload:
  - the same seed gives the same fingerprint of the modeled metrics, across
    processes;
  - the traced run gives the untraced run's fingerprint (the TracedStack
    decorator and latency/causal stage stamping are passive);
  - on proxy_churn and bulk_loss, a different seed changes the fingerprint
    (the seed reaches ProxyClientConfig::rng_seed and the link loss seeds);
  - the printed metric names and units are exactly BENCHMARK.json's;
and that tas_perfbench refuses to run while a program-altering env knob is set.
Without an argument tas_perfbench is built first, as run.py does.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LENGTH = "0.2"


def run(binary, workload, seed, trace, env=None):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0.01",
         "--trace", str(trace), "--length", LENGTH],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    return proc


def result(proc, what):
    if proc.returncode != 0:
        sys.exit(f"FAIL {what}: exit {proc.returncode}\n{proc.stdout[-3000:]}{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    fingerprint = re.search(r"^fingerprint (\w+)$", proc.stdout, re.M).group(1)
    return json.loads(lines[-1]), fingerprint


def main():
    if len(sys.argv) > 1:
        binary = sys.argv[1]
    else:
        sys.path.insert(0, HERE)
        sys.dont_write_bytecode = True
        import run as bench_run
        binary = bench_run.build(
            os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    for w in spec["workloads"]:
        name = w["name"]
        first, fp1 = result(run(binary, name, 7, 0), f"{name} seed 7")
        _, fp2 = result(run(binary, name, 7, 0), f"{name} seed 7 again")
        traced, fpt = result(run(binary, name, 7, 1), f"{name} seed 7 traced")
        print(f"{name}: seed 7 -> {fp1}, rerun -> {fp2}, traced -> {fpt}")
        if fp1 != fp2:
            failures.append(f"{name}: same seed, different fingerprints {fp1} {fp2}")
        if fp1 != fpt:
            failures.append(f"{name}: traced fingerprint {fpt} != untraced {fp1}")
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        if got != e2e_units:
            failures.append(f"{name}: end-to-end metrics {got} != BENCHMARK.json {e2e_units}")
        got = {k: v["unit"] for k, v in traced["metrics"].items()}
        if got != layer_units:
            missing = sorted(set(layer_units) ^ set(got))
            wrong = sorted(k for k in got if k in layer_units and got[k] != layer_units[k])
            failures.append(f"{name}: per-layer metrics differ from BENCHMARK.json: "
                            f"names {missing}, units {wrong}")
        if name in ("proxy_churn", "bulk_loss"):
            _, fp3 = result(run(binary, name, 8, 0), f"{name} seed 8")
            print(f"{name}: seed 8 -> {fp3}")
            if fp3 == fp1:
                failures.append(f"{name}: seeds 7 and 8 give the same fingerprint")

    env = dict(os.environ, TAS_SCALE="full")
    proc = run(binary, spec["workloads"][0]["name"], 7, 0, env=env)
    if proc.returncode == 0 or "TAS_SCALE" not in proc.stderr or proc.stdout.strip():
        failures.append("tas_perfbench ran with TAS_SCALE set")

    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
