#!/usr/bin/env python3
"""Benchmark of the persimmon simulator on paper-figure grids.

    python3 perfbench/run.py --workload bsp-lb --seed 1 --seconds 20 --trace 0

Builds perfbench_harness (Release, IPO) from the sources of this checkout
into .bench_build/, then runs the workload's grid (perfbench/workloads.json)
as one harness process per repeat, as many repeats (at least 3) as fit in
--seconds. With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced repeats with repeats under the SIGPROF
phase sampler and reports the per-layer metrics. Timings are medians over
the repeats. Every cell is checked (ok, completed, not deadlocked, no
ordering violations) and every repeat must produce byte-identical sweep
documents and identical counts.

Human-readable lines go to stdout first; the last stdout line is the JSON
result. A full record with provenance and every repeat's raw report is
written to .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "perfbench_harness"

# Repeats per run, whatever --seconds says: a median needs a few values.
MIN_REPEATS = 3
# One repeat may not take longer than this (seconds).
REPEAT_TIMEOUT_S = 120


class BenchError(Exception):
    """A failed build, check or extraction; reported without a result."""


def need(mapping, key, where):
    """mapping[key], or a BenchError naming the missing key."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise BenchError(f"{where}: expected field '{key}' is missing")
    return mapping[key]


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_config():
    """BENCHMARK.json and perfbench/workloads.json, cross-checked."""
    bench_file = ROOT / "BENCHMARK.json"
    wl_file = BENCH_DIR / "workloads.json"
    for f in (bench_file, wl_file):
        if not f.is_file():
            raise BenchError(f"{f.name} not found next to the benchmark")
    bench = load_json(bench_file)
    wls = load_json(wl_file)
    e2e = {m["name"]: m for m in need(bench, "end_to_end", "BENCHMARK.json")}
    layer = {m["name"]: m for m in need(bench, "per_layer", "BENCHMARK.json")}
    names = [w["name"] for w in need(bench, "workloads", "BENCHMARK.json")]
    defs = need(wls, "workloads", "workloads.json")
    if sorted(names) != sorted(defs):
        raise BenchError("BENCHMARK.json and workloads.json name different "
                         f"workloads: {sorted(names)} vs {sorted(defs)}")
    for name, wl in defs.items():
        for move in need(wl, "moves", name):
            for m in need(move, "metrics", name):
                if m not in layer:
                    raise BenchError(f"workloads.json {name}: '{m}' is not "
                                     "a per_layer metric")
            target = need(move, "end_to_end", name)
            if target not in e2e and not target.startswith("none"):
                raise BenchError(f"workloads.json {name}: '{target}' is not "
                                 "an end_to_end metric")
    return wls, e2e, layer


def cmake_build(target):
    """Configure (once) and build @p target; the log is in .bench_build."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"simulator sources not found under {ROOT} "
                         "(CMakeLists.txt and src/ are needed)")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "--parallel", "3"])
    with open(log_path, "a", encoding="utf-8") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text(encoding="utf-8").splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    cache = (BUILD / "CMakeCache.txt").read_text(encoding="utf-8")
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        raise BenchError(f"{BUILD} is not a Release build tree; remove it")


def run_harness(wl, seed, prof=False, cores=None, ops=None, env=None,
                extra=()):
    """One grid in one harness process; returns its parsed report."""
    out_dir = BUILD / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(HARNESS),
           "--figure", str(need(wl, "figure", "workload")),
           "--configs", ",".join(need(wl, "configs", "workload")),
           "--ops", str(ops if ops is not None else need(wl, "ops", "workload")),
           "--cores", str(cores if cores is not None else wl["cores"]),
           "--seed", str(seed),
           "--jobs", str(need(wl, "jobs", "workload")),
           "--doc-out", str(out_dir / "sweep.json")]
    if prof:
        cmd.append("--prof")
    cmd += list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=REPEAT_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"harness exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cell_failed(cell):
    """A cell counts as failed unless it ran clean to completion."""
    where = f"cell {need(cell, 'id', 'cell')}"
    return not (need(cell, "ok", where) and need(cell, "completed", where)
                and not need(cell, "deadlocked", where)
                and not need(cell, "timedOut", where)
                and need(cell, "violations", where) == 0)


def check_deterministic(reports):
    """Every repeat, traced or not, must give the same simulated output."""
    first = reports[0]
    for key in ("noStatsDocHash", "docHash", "simTicks", "counts",
                "attempts"):
        want = need(first, key, "report")
        for i, r in enumerate(reports[1:], 2):
            if need(r, key, "report") != want:
                raise BenchError(f"determinism: '{key}' of repeat {i} "
                                 "differs from repeat 1")


def phase_seconds(report, phases):
    """Self time per phase metric: the phase's share of the samples taken
    while cells ran or exported, times the spans' length. (The sampler
    period is a request; the kernel may deliver ticks less often.)"""
    samples = need(need(report, "prof", "traced report"), "samples", "prof")
    total = sum(samples.values())
    if total == 0:
        raise BenchError("the phase sampler took no samples")
    spans = need(report, "spans", "report")
    window = need(spans, "model.run_s", "spans") + need(spans, "exp.export_s",
                                                       "spans")
    return {metric: need(samples, phase, "prof samples") / total * window
            for metric, phase in phases.items()}


def setup_seconds(report):
    spans = need(report, "spans", "report")
    return sum(need(spans, k, "spans")
               for k in ("exp.setup_s", "model.build_s", "workload.build_s"))


def end_to_end_metrics(reports):
    return {
        "wall_s": statistics.median(need(r, "gridWall_s", "report")
                                    for r in reports),
        "setup_s": statistics.median(setup_seconds(r) for r in reports),
        "peak_rss_mb": statistics.median(need(r, "peakRss_kb", "report")
                                         for r in reports) / 1024.0,
        "sim_mcycles": need(reports[0], "simTicks", "report") / 1e6,
    }


def per_layer_metrics(plain, traced, phases):
    med = statistics.median
    out = {}
    for span in ("exp.setup_s", "model.build_s", "workload.build_s",
                 "model.run_s", "exp.export_s"):
        out[span] = med(need(r["spans"], span, "spans") for r in traced)
    per_phase = [phase_seconds(r, phases) for r in traced]
    for metric in phases:
        out[metric] = med(p[metric] for p in per_phase)
    out["exp.worker_idle_frac"] = med(
        1.0 - need(r["spans"], "cells_s", "spans") /
        (need(r, "workers", "report") * need(r, "gridWall_s", "report"))
        for r in traced)
    out["exp.attempts"] = need(traced[0], "attempts", "report")
    out.update(need(traced[0], "counts", "report"))

    def attributed(r):
        samples = r["prof"]["samples"]
        return 1.0 - samples["other"] / sum(samples.values())

    out["prof.attributed_frac"] = med(attributed(r) for r in traced)
    out["prof.overhead_pct"] = 100.0 * (
        med(r["gridWall_s"] for r in traced) /
        med(r["gridWall_s"] for r in plain) - 1.0)
    return out


def git_sha():
    """HEAD of the checkout, or None when it is not its own git tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def source_hash():
    """sha256 over the simulator and benchmark sources (no git needed)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / d).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def measure(name, seed, seconds, trace):
    wls, e2e, layer = load_config()
    if name not in wls["workloads"]:
        raise BenchError(f"unknown workload '{name}'; choose from "
                         f"{', '.join(wls['workloads'])}")
    wl = dict(wls["workloads"][name], cores=need(wls, "cores",
                                                 "workloads.json"))
    cmake_build("perfbench_harness")
    load_before = os.getloadavg()

    # Repeat while the next repeat, as long as the last one, still ends
    # within --seconds, so a run does not overshoot its time.
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_harness(wl, seed))
        if trace:
            traced.append(run_harness(wl, seed, prof=True))
        now = time.perf_counter()
        if (len(plain) >= MIN_REPEATS and
                now + (now - t0) - start > seconds):
            break
    load_after = os.getloadavg()

    reports = plain + traced
    for r in reports:
        if need(r, "buildType", "report") != "Release" or not r["ipo"]:
            raise BenchError("refusing to report from a non-Release build")
    check_deterministic(reports)
    attempted = sum(len(need(r, "cells", "report")) for r in reports)
    failed = sum(cell_failed(c) for r in reports for c in r["cells"])

    if trace:
        metrics = per_layer_metrics(plain, traced, wls["phases"])
        declared = layer
    else:
        metrics = end_to_end_metrics(plain)
        declared = e2e
    if set(metrics) != set(declared):
        raise BenchError("computed metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(declared) - set(metrics))}, "
                         f"extra {sorted(set(metrics) - set(declared))}")

    info = {"mevents_per_s": need(plain[0], "counts", "report")["sim.events"]
            / statistics.median(r["gridWall_s"] for r in plain) / 1e6}
    means = plain[0].get("figureMeans")
    if means is not None:
        paper = need(wls["paper"], "fig11_lbpp_gmean", "workloads.json")
        info["fig11_lbpp_gmean"] = need(means, "LB++", "figureMeans")
        info["fig11_lbpp_err_pct"] = (
            100.0 * abs(info["fig11_lbpp_gmean"] - paper) / paper)

    provenance = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "gitSha": git_sha(), "sourceSha256": source_hash(),
        "buildType": plain[0]["buildType"], "ipo": plain[0]["ipo"],
        "nproc": os.cpu_count(),
        "loadavgBefore": list(load_before), "loadavgAfter": list(load_after),
        "repeats": len(plain), "tracedRepeats": len(traced),
    }
    print(f"perfbench {name}: {wl['grid']}; ops={wl['ops']} "
          f"cores={wl['cores']} jobs={wl['jobs']} seed={seed} "
          f"repeats={len(plain)}+{len(traced)} traced")
    print(f"  provenance: git={provenance['gitSha']} "
          f"build={provenance['buildType']} ipo={provenance['ipo']} "
          f"nproc={provenance['nproc']} loadavg "
          f"{load_before[0]:.2f} -> {load_after[0]:.2f}")
    for m, v in metrics.items():
        print(f"  {m:32s} {v:.6g} {declared[m]['unit']}")
    print(f"  {'failed_frac':32s} {failed}/{attempted} cells")
    for m, v in info.items():
        print(f"  {m:32s} {v:.6g} (not a gated metric)")

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    record = {"provenance": provenance, "metrics": metrics, "info": info,
              "attempted": attempted, "failed": failed,
              "reports": {"plain": plain, "traced": traced}}
    with open(results / f"{name}-s{seed}-t{int(trace)}.json", "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": declared[m]["unit"]}
                    for m, v in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
