#!/usr/bin/env python3
"""The simulator benchmark.

One workload, one result line:

    python3 perfbench/run.py --workload fig6-stream --seed 42 --seconds 20 --trace 0

builds perfbench/perfbench.exe from source (dune, build directory
.bench_build), runs it, checks its simulated outputs, and prints as the
last line of standard output one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics
(host time measured with tracing off); --trace 1 reports the per-layer
metrics from a separate traced run.

Every workload, end to end and per layer, as tables:

    python3 perfbench/run.py --report [--seed 42] [--seconds 10]

Record the output oracle for a seed (after a deliberate model change):

    python3 perfbench/run.py --write-expected --seed 42
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["fig6-stream", "partition-chaos"]
DEADLINE_S = 170.0

# Per-layer metrics: how each is obtained and which end-to-end metric,
# on which workload, it should move.  "derived" rows are computed by
# subtraction, never measured directly.
LAYERS = {
    "workload.self_s": ("measured", "requests_per_s on fig6-stream"),
    "workload.ns_per_request": ("measured", "requests_per_s on fig6-stream"),
    "workload.share": ("measured", "requests_per_s on fig6-stream (up to ~1/3)"),
    "workload.drain_s": ("measured", "requests_per_s on fig6-stream"),
    "desim.events_per_request": ("exact", "requests_per_s on fig6-stream"),
    "desim.events_per_s": ("measured", "requests_per_s on fig6-stream"),
    "desim.peak_heap_events": ("exact", "peak_rss_mb"),
    "desim.null_cluster_s": ("measured", "requests_per_s on fig6-stream"),
    "sharedfs.request_path_s": ("derived", "requests_per_s on fig6-stream"),
    "sharedfs.collect_ms_p50": ("measured", "requests_per_s on partition-chaos"),
    "sharedfs.lock_wait_ratio": ("exact", "sim latency on fig6-stream, partition-chaos"),
    "sharedfs.moves_started": ("exact", "requests_per_s, sim latency on partition-chaos"),
    "sharedfs.moves_failed": ("exact", "sim latency on partition-chaos"),
    "sharedfs.requests_rebuffered": ("exact", "sim latency on partition-chaos"),
    "sharedfs.disk_blocks_written": ("exact", "requests_per_s on partition-chaos"),
    "sharedfs.disk_blocks_read": ("exact", "requests_per_s on partition-chaos"),
    "sharedfs.disk_rejected_writes": ("exact", "sim latency on partition-chaos"),
    "sharedfs.ledger_records": ("exact", "requests_per_s on partition-chaos"),
    "placement.tune_ms_p50": ("measured", "requests_per_s on partition-chaos"),
    "placement.tune_ms_max": ("measured", "requests_per_s on partition-chaos"),
    "placement.apply_ms_p50": ("measured", "requests_per_s on partition-chaos"),
    "placement.rounds": ("exact", "requests_per_s on partition-chaos"),
    "placement.locate_ns": ("measured", "host-speed canary: nothing"),
    "fault.check_ms_p50": ("measured", "requests_per_s on partition-chaos"),
    "fault.violations": ("exact", "sim.bad_round_frac, the oracle"),
    "fault.rounds_degraded": ("exact", "sim latency on partition-chaos"),
    "fault.rounds_fenced": ("exact", "sim latency on partition-chaos"),
    "fault.reelections": ("exact", "sim latency on partition-chaos"),
    "fault.reports_lost": ("exact", "sim latency on partition-chaos"),
    "fault.epoch_bumps": ("exact", "sim latency on partition-chaos"),
    "fault.torn_repaired": ("exact", "sim.bad_round_frac on partition-chaos"),
    "gc.minor_words_per_request": ("measured", "requests_per_s on fig6-stream"),
    "gc.promoted_words_per_request": ("measured", "peak_rss_mb"),
    "gc.major_collections": ("measured", "requests_per_s, peak_rss_mb"),
    "obs.traced_overhead": ("measured", "nothing untraced (tracing is off)"),
    "stream_par.speedup": ("measured", "requests_per_s of a sharded run (fig6-stream)"),
    "stream_par.serial_requests_per_s": ("measured", "base of stream_par.speedup"),
    "stream_par.requests_per_s": ("measured", "base of stream_par.speedup"),
    "sim.mean_latency_ms": ("exact", "simulated result"),
    "sim.p95_latency_ms": ("exact", "simulated result"),
    "sim.imbalance": ("exact", "simulated result"),
    "sim.moves": ("exact", "simulated result"),
    "sim.incomplete_frac": ("exact", "completed_frac"),
    "sim.bad_round_frac": ("exact", "the oracle's violation count"),
    "n10k.requests_per_s": ("measured", "reconfiguration cost at n = 10,000"),
    "n10k.setup_s": ("measured", "set-up cost at n = 10,000"),
    "n10k.tune_ms_p50": ("measured", "n10k.requests_per_s"),
    "n10k.tune_ms_max": ("measured", "n10k.requests_per_s"),
    "n10k.collect_ms_p50": ("measured", "n10k.requests_per_s"),
    "n10k.check_ms_p50": ("measured", "n10k.requests_per_s"),
    "n10k.violations": ("exact", "the oracle's violation count (open defect)"),
    "n10k.bad_round_frac": ("exact", "the oracle's violation count (open defect)"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    raise SystemExit("perfbench: dune not found on PATH")


def build(deadline):
    cmd = dune() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                    "./perfbench/perfbench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        log(proc.stdout + proc.stderr)
        raise SystemExit("perfbench: build failed")


def run_exe(workload, seed, seconds, trace, deadline):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s timed out" % workload)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("perfbench: %s failed (exit %d)" % (workload, proc.returncode))
    return json.loads(lines[-1])


def load_expected():
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED) as f:
        return json.load(f)


def exact_sets(out):
    """(name, exact values) for the workload and each probe it ran."""
    return [(out["workload"], out["exact"])] + sorted(out["probe_exact"].items())


def oracle_mismatches(out):
    """Exact simulated values that differ from the committed expectation
    for this seed, named by workload or probe (None when the seed is not
    recorded for the workload)."""
    expected = load_expected()
    if str(out["seed"]) not in expected.get(out["workload"], {}):
        return None
    bad = []
    for name, got in exact_sets(out):
        want = expected.get(name, {}).get(str(out["seed"]))
        if want is None:
            bad.append(("%s (no expectation)" % name, "recorded", "none"))
            continue
        bad += [("%s %s" % (name, k), want[k], got[k]) for k in sorted(want)
                if k in got and got[k] != want[k]]
    return bad


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def judge(out, trace):
    """The result line: correct only when every internal check holds, no
    request was lost, and the oracle (where recorded) matches."""
    ok = True
    for name, passed in sorted(out["checks"].items()):
        if not passed:
            log("perfbench: check failed: %s" % name)
            ok = False
    if out["failed"] != 0:
        log("perfbench: %d requests never completed" % out["failed"])
        ok = False
    mismatches = oracle_mismatches(out)
    if mismatches is None:
        log("perfbench: no recorded expectation for %s at seed %s; internal "
            "checks only" % (out["workload"], out["seed"]))
    else:
        for key, want, got in mismatches:
            log("perfbench: oracle mismatch %s: expected %s, got %s" % (key, want, got))
        ok = ok and not mismatches
    declared = declared_metrics(trace)
    if declared is not None and sorted(declared) != sorted(out["metrics"]):
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: %s"
                         % sorted(set(declared) ^ set(out["metrics"])))
    return {"correct": ok, "attempted": out["attempted"], "failed": out["failed"],
            "metrics": out["metrics"]}


def fmt(v):
    return "%.6g" % v


def report(seed, seconds, deadline_per_run):
    ends, layers = {}, {}
    for w in WORKLOADS:
        for trace, into in ((0, ends), (1, layers)):
            out = run_exe(w, seed, seconds, trace, time.monotonic() + deadline_per_run)
            res = judge(out, trace)
            into[w] = res
            log("perfbench: %s trace %d correct=%s" % (w, trace, res["correct"]))
    print("seed %d, %s s per measurement, GC: 8M-word minor heap, space_overhead 200"
          % (seed, seconds))
    print()
    print("End to end (host time with tracing off)")
    head = "%-22s %-6s" % ("metric", "unit") + "".join("%16s" % w for w in WORKLOADS)
    print(head)
    for name, m in ends[WORKLOADS[0]]["metrics"].items():
        print("%-22s %-6s" % (name, m["unit"])
              + "".join("%16s" % fmt(ends[w]["metrics"][name]["value"]) for w in WORKLOADS))
    print()
    print("Per layer (traced run; derived rows come from subtraction)")
    print("%-34s %-6s %-8s" % ("metric", "unit", "kind")
          + "".join("%16s" % w for w in WORKLOADS) + "  should move")
    for name, m in layers[WORKLOADS[0]]["metrics"].items():
        kind, moves = LAYERS.get(name, ("", ""))
        print("%-34s %-6s %-8s" % (name, m["unit"], kind)
              + "".join("%16s" % fmt(layers[w]["metrics"][name]["value"]) for w in WORKLOADS)
              + "  " + moves)
    correct = all(r["correct"] for r in list(ends.values()) + list(layers.values()))
    print()
    print("outputs correct: %s" % correct)
    return 0 if correct else 1


def write_expected(seed, deadline_per_run):
    expected = load_expected()
    merged = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            out = run_exe(w, seed, 1, trace, time.monotonic() + deadline_per_run)
            for name, exact in exact_sets(out):
                into = merged.setdefault(name, {})
                for k, v in exact.items():
                    if k in into and into[k] != v:
                        raise SystemExit("perfbench: %s disagrees between runs on %s"
                                         % (name, k))
                    into[k] = v
    for name, values in merged.items():
        expected.setdefault(name, {})[str(seed)] = values
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    log("perfbench: wrote %s for seed %d" % (os.path.relpath(EXPECTED, ROOT), seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()
    start = time.monotonic()
    build(start + 900.0)
    if args.report:
        return report(args.seed, args.seconds, DEADLINE_S)
    if args.write_expected:
        return write_expected(args.seed, DEADLINE_S)
    if args.workload is None:
        ap.error("--workload, --report or --write-expected is required")
    out = run_exe(args.workload, args.seed, args.seconds, args.trace,
                  time.monotonic() + DEADLINE_S)
    result = judge(out, args.trace)
    for name, m in result["metrics"].items():
        print("%-34s %16s %s" % (name, fmt(m["value"]), m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
