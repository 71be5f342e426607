#!/usr/bin/env python3
"""Repo benchmark: build dmp-perfbench from this checkout and run one workload.

    python3 perfbench/run.py --workload figure-grid|cli-single|static-tools \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
perfbench/ (and the simulator sources it links) into .bench_build/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (spans are written to
.bench_build/traces/). The line before it carries run provenance and
host-disturbance figures; the full record goes to .bench_build/results/.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("figure-grid", "cli-single", "static-tools")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build dmp-perfbench; return its path."""
    bdir = os.path.join(BUILD, "perfbench")
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = re.search(r"^CMAKE_HOME_DIRECTORY:INTERNAL=(.*)$",
                             f.read(), re.M)
        if not home or os.path.realpath(home.group(1)) != \
                os.path.realpath(HERE):
            shutil.rmtree(bdir)  # configured for another checkout
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "dmp-perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "dmp-perfbench")


def cpu_times():
    """Aggregate /proc/stat cpu jiffies, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()[1:]
    except OSError:
        return None
    return [int(x) for x in fields]


def child_cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def git_sha():
    """HEAD of the checkout's own repository, or "unknown"."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    top_sha = out.stdout.split()
    if out.returncode != 0 or len(top_sha) != 2 or \
            os.path.realpath(top_sha[0]) != os.path.realpath(ROOT):
        return "unknown"
    return top_sha[1]


def source_digest():
    """sha256 over the simulator and benchmark sources (works without git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def disturbance(before, after, own_cpu_s):
    """Steal and other-process CPU over the run, as % of host capacity."""
    if not before or not after:
        return {}
    d = [a - b for a, b in zip(after, before)]
    total = sum(d[:8]) or 1
    idle = d[3] + d[4]
    steal = d[7] if len(d) > 7 else 0
    busy = total - idle - steal
    own = own_cpu_s * os.sysconf("SC_CLK_TCK")
    return {"steal_pct": 100.0 * steal / total,
            "other_cpu_pct": max(0.0, 100.0 * (busy - own) / total)}


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Input-size knobs for the self-test (selftest.py); defaults are the
    # benchmark's.
    ap.add_argument("--iters", type=int)
    ap.add_argument("--programs", type=int)
    ap.add_argument("--ref-skew", type=int)
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--spans", os.path.join(BUILD, "traces", tag + ".json")]
    for flag in ("iters", "programs", "ref_skew"):
        if getattr(args, flag) is not None:
            cmd += ["--" + flag.replace("_", "-"),
                    str(getattr(args, flag))]

    load_before = os.getloadavg()
    stat_before = cpu_times()
    cpu_before = child_cpu_seconds()
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    out = proc.stdout
    wall = time.monotonic() - t0
    own_cpu = child_cpu_seconds() - cpu_before
    stat_after = cpu_times()
    if proc.returncode != 0 or not out.strip():
        log(f"dmp-perfbench exited with {proc.returncode}")
        return 1
    res = json.loads(out.strip().splitlines()[-1])

    metrics = res["metrics"]
    want = expected_metrics(args.trace)
    problems = [f"op failures: {res['failures']}"] if res["failed"] else []
    if set(metrics) != want:
        problems.append("metric set differs from BENCHMARK.json: "
                        f"missing {sorted(want - set(metrics))}, "
                        f"extra {sorted(set(metrics) - want)}")
    for name, m in metrics.items():
        if not NAME_RE.fullmatch(name) or not m.get("unit") or \
                not isinstance(m.get("value"), (int, float)):
            problems.append(f"malformed metric {name}: {m}")
    for p in problems:
        log(p)

    provenance = {
        "git_sha": git_sha(), "source_digest": source_digest(),
        "compiler": res["build"]["compiler"], "flags": res["build"]["flags"],
        "build_type": res["build"]["type"], "nproc": os.cpu_count(),
        "jobs": res["jobs"], "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(), "wall_s": wall,
        **disturbance(stat_before, stat_after, own_cpu),
        "host_slowness": res["host"],
        "measured_ops": res["measured_ops"], "digest": res["digest"],
        "model": res["model"],
        "paper": {"dmp_speedup": 1.108, "flush_ratio": 0.69,
                  "static_recovery_experiments_md": 0.71},
    }
    result = {"correct": not problems, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", tag + ".json"), "w") as f:
        json.dump({"provenance": provenance, "detail": res,
                   "result": result}, f, indent=1)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
