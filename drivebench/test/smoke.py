#!/usr/bin/env python3
"""Smoke check of the benchmark at tiny scale.

    python3 smoke.py BENCH_EXE DRIVEPERF_EXE BENCHMARK_JSON

Runs every workload declared in BENCHMARK_JSON once untraced and once
traced, on a corpus a fortieth of the benchmark's size, and checks that
each prints exactly the declared metrics, finite and with their units,
with no failed op. Then runs report_seq and monitor_tick against a
deliberately wrong reference and checks that the output check fails
every op: the gate is shown to be able to fail.
"""

import json
import math
import os
import shutil
import subprocess
import sys

SCALE = "0.05"


def run(bench, cli, workload, trace, extra=()):
    cmd = [bench, "--workload", workload, "--seed", "7", "--seconds", "0.2",
           "--trace", str(trace), "--driveperf", cli, "--scale", SCALE]
    proc = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    assert isinstance(result["failed"], int), result
    return result


def check_metrics(where, metrics, declared):
    names = [m["name"] for m in declared]
    assert sorted(metrics) == sorted(names), (where, sorted(set(metrics) ^ set(names)))
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (where, m["name"], got)
        value = got["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (where, m["name"], got)


def main():
    bench, cli, spec_path = (os.path.abspath(p) for p in sys.argv[1:4])
    with open(spec_path) as f:
        spec = json.load(f)
    work = os.path.abspath("smoke-work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)
    try:
        for w in spec["workloads"]:
            name = w["name"]
            plain = run(bench, cli, name, 0)
            assert plain["correct"] and plain["failed"] == 0, (name, plain)
            check_metrics(name, plain["metrics"], spec["end_to_end"])
            for m in spec["end_to_end"]:
                assert plain["metrics"][m["name"]]["value"] > 0, (name, m["name"])
            traced = run(bench, cli, name, 1)
            assert traced["correct"] and traced["failed"] == 0, (name, traced)
            check_metrics(name + " traced", traced["metrics"], spec["per_layer"])
            assert traced["metrics"]["fail_ratio"]["value"] == 0, (name, traced)
            print("ok %s: %d + %d ops" % (name, plain["attempted"], traced["attempted"]))
        for name in ("report_seq", "monitor_tick"):
            wrong = run(bench, cli, name, 0, ["--corrupt-reference"])
            assert not wrong["correct"], (name, wrong)
            assert wrong["failed"] == wrong["attempted"], (name, wrong)
            print("ok %s: a wrong reference fails all %d ops" % (name, wrong["attempted"]))
    finally:
        os.chdir("..")
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
