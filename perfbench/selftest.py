#!/usr/bin/env python3
"""Self-test of the repo benchmark at a tiny input size (about two minutes).

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that:
  * BENCHMARK.json keeps the benchmark contract's limits;
  * every workload (BENCHMARK.json's and static-tools) prints exactly the
    metric names of BENCHMARK.json, each with its unit, in both the
    measured (--trace 0) and traced (--trace 1) runs, and passes its
    correctness gate;
  * the host-speed factors that scale the timings are in range;
  * the model metrics are identical across two invocations with one seed;
  * a deliberately wrong FuncSim reference count shows up as failed ops;
  * figure-grid's simulated results match `dmp-run --sweep` (the figure
    harness's BatchRunner path) for the same seed and input size;
  * without the simulator sources the benchmark exits non-zero and prints
    no result.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
TINY = ["--iters", "200", "--programs", "3"]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MODEL = ("dmp_speedup", "flush_ratio", "static_recovery")


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def ok(msg):
    print(f"ok: {msg}", flush=True)


def bench(workload, seed, trace, *extra):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *TINY, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}:\n"
             f"{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)}")
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(ROOT, ".bench_build", "results",
                           tag + ".json")) as f:
        detail = json.load(f)["detail"]
    return result, detail


def check_spec(spec):
    if sorted(spec) != ["command", "end_to_end", "paths", "per_layer",
                        "run_seconds", "workloads"]:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]] + \
        [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(set(names)) != len(names):
        fail("BENCHMARK.json reuses a name")
    for n in names:
        if not NAME_RE.fullmatch(n):
            fail(f"bad name {n!r}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT_RE.fullmatch(m["unit"]) or \
                m["better"] not in ("higher", "lower"):
            fail(f"bad unit or direction in {m}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail(f"bound out of range in {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or \
            setup[0]["better"] != "lower" or \
            setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must exist, in s, lower is better, largest bound")
    if not 2 <= len(spec["workloads"]) <= 8 or \
            not 1 <= spec["run_seconds"] <= 60:
        fail("workload count or run_seconds out of range")
    ok("BENCHMARK.json within the contract's limits")


def check_metrics(result, spec_metrics, what):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec_metrics}
    if set(got) != set(want):
        fail(f"{what}: metric names differ: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m["unit"] != want[name] or \
                not isinstance(m["value"], (int, float)):
            fail(f"{what}: {name} = {m}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{what}: correctness gate: {result}")


def sweep_rows(exe, program, iters, ref_seed):
    """(cycles, retired, flushes) per column from dmp-run --sweep."""
    rows = {}
    for mark, modes in (("profile", "base,dhp,dmp,dmp-enhanced,dual"),
                        ("static", "dmp-enhanced")):
        out = subprocess.run(
            [exe, f"--sweep={modes}", f"--mark={mark}", f"--iters={iters}",
             f"--seed={ref_seed}", "--jobs=2", program],
            capture_output=True, text=True, timeout=600, check=True).stdout
        for line in out.splitlines():
            f = line.split()
            if len(f) == 5 and f[0] in modes.split(","):
                col = {"dmp-enhanced": "enh"}.get(f[0], f[0])
                if mark == "static":
                    col = "static"
                rows[col] = [int(f[2]), int(f[3]), int(f[4])]
    return rows


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)

    models = {}
    # static-tools is not in BENCHMARK.json (README.md, "Host speed") but
    # stays runnable by hand, so it is checked too.
    workloads = [w["name"] for w in spec["workloads"]]
    if "static-tools" not in workloads:
        workloads.append("static-tools")
    for w in workloads:
        r0, d0 = bench(w, 5, 0)
        check_metrics(r0, spec["end_to_end"], f"{w} trace=0")
        if not all(0 < d0["host"][k] < 10 for k in ("setup", "window")):
            fail(f"{w}: host-speed factors out of range: {d0['host']}")
        r1, _ = bench(w, 5, 1)
        check_metrics(r1, spec["per_layer"], f"{w} trace=1")
        ok(f"{w}: metric names and units match; gate passes "
           f"({r0['attempted']} + {r1['attempted']} ops)")
        again, d2 = bench(w, 5, 0)
        for name in MODEL:
            a = r0["metrics"][name]["value"]
            b = again["metrics"][name]["value"]
            if a != b:
                fail(f"{w}: {name} {a!r} != {b!r} for the same seed")
        if d0["digest"] != d2["digest"]:
            fail(f"{w}: digest differs for the same seed")
        models[w] = {n: r0["metrics"][n]["value"] for n in MODEL}
        ok(f"{w}: model metrics bit-identical across invocations: "
           f"{models[w]}")

        skew, _ = bench(w, 5, 0, "--ref-skew", "1")
        if skew["correct"] or not skew["failed"] or \
                skew["metrics"]["ok_pct"]["value"] >= 100:
            fail(f"{w}: wrong reference count not detected: {skew}")
        ok(f"{w}: wrong reference count fails {skew['failed']} of "
           f"{skew['attempted']} ops")

    if len({json.dumps(m, sort_keys=True) for m in models.values()}) != 1:
        fail(f"model metrics differ between workloads at one input: "
             f"{models}")
    ok("all workloads agree on the model metrics at the same input")

    # Figure harness: seed 0 is dmp-run's default train/ref input pair.
    _, grid = bench("figure-grid", 0, 0)
    bdir = os.path.join(ROOT, ".bench_build", "perfbench")
    subprocess.run(["cmake", "--build", bdir, "--target", "dmp-run",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=subprocess.DEVNULL)
    exe = os.path.join(bdir, "dmp", "tools", "dmp-run")
    mine = {}
    for prog, col, *vals in grid["grid"]:
        mine.setdefault(prog, {})[col] = vals
    for prog, cols in mine.items():
        ref = sweep_rows(exe, prog, 200, 0x4ef)
        if ref != cols:
            fail(f"figure-grid {prog} differs from dmp-run --sweep:\n"
                 f"  bench   {cols}\n  dmp-run {ref}")
    ok(f"figure-grid matches dmp-run --sweep on {sorted(mine)}")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-single",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        fail("without the simulator sources the benchmark must exit "
             "non-zero and print nothing")
    ok("without the simulator sources: exit "
       f"{out.returncode}, no result printed")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
