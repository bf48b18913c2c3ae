#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny grids (4 cores, 20 ops).

    python3 perfbench/selftest.py

For every workload of perfbench/workloads.json it checks that

  * the counts the harness extracts from the flat stat map equal sums
    computed here, independently, from the stat tree of the document it
    wrote;
  * the document and its --no-stats variant hash as reported, and are
    byte-identical to what `persim_sweep --out` writes for the same grid;
  * an injected fault (PERSIM_FAULT=throw:<idx>) fails exactly that cell,
    after both attempts, and the rest of the grid still runs;
  * a stat the harness expects but does not find is a named error, and
    so is a missing field on the reporting side.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py, next to this file)

CORES, OPS = 4, 20
INT_COUNTS = [
    "sim.events", "workload.transactions", "cpu.ops", "cpu.wb_stalls",
    "l1.accesses", "l1.mshr_defers", "llc.requests", "llc.evictions_dirty",
    "llc.victim_retries", "llc.pin_waits", "noc.flits", "noc.wait_cycles",
    "nvm.writes", "nvm.log_writes", "persist.epochs_persisted",
    "persist.flush_proactive", "persist.barrier_stalls", "persist.splits",
    "persist.protocol_messages",
]


def fnv1a(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def tree_counts(doc):
    """The harness's counts, recomputed from the document's stat tree."""
    s = {}

    def add(key, v):
        s[key] = s.get(key, 0) + v

    for job in doc["jobs"]:
        add("events", job["result"]["events"])
        add("transactions", job["result"]["transactions"])
        for group, body in job["groups"].items():
            kind = re.sub(r"\[\d+\]", "", group)
            sc = body["scalars"]
            ds = body["distributions"]
            if kind == "core":
                add("ops", sc["ops"])
                add("wbStalls", sc["wbStalls"])
                add("loadLat.sum", ds["loadLatency"]["sum"])
                add("loadLat.count", ds["loadLatency"]["count"])
            elif kind == "l1":
                add("l1.acc", sc["loads"] + sc["stores"])
                add("l1.miss", sc["misses"])
                add("l1.look", sc["hits"] + sc["misses"])
                add("l1.defer", sc["mshrDefers"])
            elif kind == "llc":
                for k in ("requests", "missesToMemory", "evictionsDirty",
                          "victimRetries", "pinWaits"):
                    add("llc." + k, sc[k])
            elif kind == "mesh":
                add("flits", sc["flits"])
                add("wait", sum(v for k, v in sc.items()
                                if k.endswith(".waitCycles")))
                add("lat.sum", ds["latency"]["sum"])
                add("lat.count", ds["latency"]["count"])
            elif kind == "mc":
                add("nvm.writes", sc["nvram.writes"])
                add("nvm.log", sc["logWrites"])
                add("wq.sum", ds["nvram.writeQueueing"]["sum"])
                add("wq.count", ds["nvram.writeQueueing"]["count"])
            elif kind == "persist.arbiter":
                for k in ("epochsPersisted", "epochsConflicted",
                          "flushProactive", "barrierStalls", "splits"):
                    add("arb." + k, sc[k])
            elif kind == "persist":
                add("msgs", sc["protocolMessages"])
                add("cw.sum", ds["conflictWait"]["sum"])
                add("cw.count", ds["conflictWait"]["count"])

    def ratio(a, b):
        return s[a] / s[b] if s[b] else 0.0

    return {
        "sim.events": s["events"], "workload.transactions": s["transactions"],
        "cpu.ops": s["ops"], "cpu.wb_stalls": s["wbStalls"],
        "cpu.load_latency_mean_cyc": ratio("loadLat.sum", "loadLat.count"),
        "l1.accesses": s["l1.acc"], "l1.miss_frac": ratio("l1.miss", "l1.look"),
        "l1.mshr_defers": s["l1.defer"], "llc.requests": s["llc.requests"],
        "llc.mem_miss_frac": ratio("llc.missesToMemory", "llc.requests"),
        "llc.evictions_dirty": s["llc.evictionsDirty"],
        "llc.victim_retries": s["llc.victimRetries"],
        "llc.pin_waits": s["llc.pinWaits"], "noc.flits": s["flits"],
        "noc.wait_cycles": s["wait"],
        "noc.latency_mean_cyc": ratio("lat.sum", "lat.count"),
        "nvm.writes": s["nvm.writes"], "nvm.log_writes": s["nvm.log"],
        "nvm.write_queueing_mean_cyc": ratio("wq.sum", "wq.count"),
        "persist.epochs_persisted": s["arb.epochsPersisted"],
        "persist.conflict_frac": ratio("arb.epochsConflicted",
                                       "arb.epochsPersisted"),
        "persist.flush_proactive": s["arb.flushProactive"],
        "persist.barrier_stalls": s["arb.barrierStalls"],
        "persist.splits": s["arb.splits"],
        "persist.conflict_wait_mean_cyc": ratio("cw.sum", "cw.count"),
        "persist.protocol_messages": s["msgs"],
    }


class Checker:
    def __init__(self):
        self.failures = 0

    def check(self, ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        self.failures += 0 if ok else 1


def persim_sweep_doc(wl, seed, no_stats, path):
    """The document persim_sweep writes for the same tiny grid."""
    cmd = [str(run.BUILD / "persim" / "tools" / "persim_sweep"),
           "--figure", str(wl["figure"]), "--ops", str(OPS),
           "--cores", str(CORES), "--seed", str(seed),
           "--jobs", str(wl["jobs"]), "--quiet", "--out", str(path)]
    if len(wl["configs"]) == 1:
        cmd += ["--only", f"/{wl['configs'][0]}/"]
    if no_stats:
        cmd.append("--no-stats")
    subprocess.run(cmd, check=True, capture_output=True, timeout=300)
    return path.read_bytes()


def main():
    wls, _, _ = run.load_config()
    run.cmake_build("perfbench_harness")
    run.cmake_build("persim_sweep")
    out = run.BUILD / "out"
    c = Checker()
    seed = wls["figure_seed"]
    for name, wl in wls["workloads"].items():
        wl = dict(wl, cores=CORES)
        print(f"{name}:")
        no_stats = out / "selftest.nostats.json"
        rep = run.run_harness(wl, seed, ops=OPS,
                              extra=["--no-stats-out", str(no_stats)])
        doc_bytes = (out / "sweep.json").read_bytes()
        ns_bytes = no_stats.read_bytes()
        doc = json.loads(doc_bytes)
        ncells = len(rep["cells"])
        c.check(ncells == len(doc["jobs"]) and ncells > 0,
                f"{ncells} cells, as in the document")
        c.check(not any(run.cell_failed(x) for x in rep["cells"]),
                "every cell ok, completed, no deadlock, no violations")

        want = tree_counts(doc)
        got = rep["counts"]

        def same(k):
            if k in INT_COUNTS:
                return got[k] == want[k]
            return abs(got[k] - want[k]) <= 1e-12 * max(1.0, abs(want[k]))

        bad = sorted(k for k in want if k in got and not same(k))
        c.check(set(got) == set(want) and not bad,
                f"extracted counts equal the stat-tree sums {bad or ''}")
        c.check(rep["simTicks"] == sum(j["result"]["execTicks"]
                                       for j in doc["jobs"]),
                "simTicks equals the sum of execTicks")
        c.check(rep["docHash"] == fnv1a(doc_bytes) and
                rep["noStatsDocHash"] == fnv1a(ns_bytes),
                "document hashes match the written bytes")
        c.check(doc_bytes == persim_sweep_doc(wl, seed, False,
                                              out / "selftest.tool.json"),
                "document byte-identical to persim_sweep --out")
        c.check(ns_bytes == persim_sweep_doc(wl, seed, True,
                                             out / "selftest.tool.json"),
                "--no-stats document byte-identical to persim_sweep")

        again = run.run_harness(wl, seed, ops=OPS, prof=True)
        try:
            run.check_deterministic([rep, again])
            c.check(True, "traced repeat identical to untraced")
        except run.BenchError as e:
            c.check(False, str(e))

        idx = ncells // 2
        env = dict(os.environ, PERSIM_FAULT=f"throw:{idx}")
        faulty = run.run_harness(wl, seed, ops=OPS, env=env)
        failed = [i for i, x in enumerate(faulty["cells"])
                  if run.cell_failed(x)]
        c.check(failed == [idx] and faulty["cells"][idx]["attempts"] == 2,
                f"PERSIM_FAULT=throw:{idx} gives failed_frac = "
                f"{len(failed)}/{len(faulty['cells'])}, after 2 attempts")

    print("fail-loud:")
    wl = dict(wls["workloads"]["bsp-np"], cores=CORES)
    try:
        run.run_harness(wl, seed, ops=OPS,
                        extra=["--require-stat", "l1[].noSuchStat"])
        c.check(False, "a missing stat is an error")
    except run.BenchError as e:
        c.check("l1[].noSuchStat" in str(e),
                f"a missing stat is an error that names it ({e})")
    broken = json.loads(json.dumps(rep))
    del broken["spans"]["model.build_s"]
    try:
        run.setup_seconds(broken)
        c.check(False, "a missing span is an error")
    except run.BenchError as e:
        c.check("model.build_s" in str(e),
                "a missing span is an error that names it")
    broken = json.loads(json.dumps(again))
    del broken["prof"]["samples"]["noc"]
    try:
        run.phase_seconds(broken, wls["phases"])
        c.check(False, "a missing phase is an error")
    except run.BenchError as e:
        c.check("noc" in str(e), "a missing phase is an error that names it")
    broken = json.loads(json.dumps(again))
    broken["noStatsDocHash"] = "0" * 16
    try:
        run.check_deterministic([again, broken])
        c.check(False, "a document mismatch is an error")
    except run.BenchError as e:
        c.check("noStatsDocHash" in str(e),
                "a document mismatch between repeats is an error")

    print(f"{'all checks passed' if c.failures == 0 else f'{c.failures} failed'}")
    return 0 if c.failures == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (run.BenchError, subprocess.SubprocessError, OSError) as e:
        print(f"selftest: error: {e}", file=sys.stderr)
        sys.exit(1)
