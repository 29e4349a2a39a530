#!/usr/bin/env python3
"""Repository benchmark for the AST-DME clock router.

    python3 perfbench/run.py --workload table2-r5 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Builds perfbench/perfbench.exe
with dune (release profile) into $CARGO_TARGET_DIR (default .bench_build),
then runs the workload in fresh worker processes:

  --trace 0  whole Router calls timed from outside, tracing off; prints
             the end-to-end metrics.
  --trace 1  the same route rebuilt from the public layer calls, each call
             in a span; prints the per-layer metrics and writes the spans
             to .bench_out/spans-<workload>-<seed>.json.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Any failed
check (audit, repair budget, determinism across jobs, layer-composition
identity) counts in "failed" and makes the exit code non-zero.
See perfbench/README.md for the workloads and the layer-to-metric map.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 1
# Claims made on the default seed must also hold on this one.
HELD_OUT_SEED = 20061

# The workloads, each with the number of fresh worker processes a
# --trace 0 run pools.  s30k-boxed runs by hand only: BENCHMARK.json
# leaves it out to keep the whole benchmark within its time budget (see
# README.md).
WORKERS = {"table2-r5": 8, "s100k-intermingled": 1, "s30k-boxed": 2}
# Parse time, too, differs between processes: set-up is timed in its own.
SETUP_PROCESSES = 5

# Each worker process must end well within the 180 s a run may take.
WORKER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root):
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    cmd = [
        "dune", "build", "--root", str(root), "--profile", "release",
        "--cache", "disabled", "--build-dir", str(build_dir),
        "./perfbench/perfbench.exe",
    ]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("build failed")
    return build_dir / "default" / "perfbench" / "perfbench.exe"


def run_worker(exe, args, root):
    # subprocess.run kills and reaps the worker on timeout and on any
    # exception, including the one on_signal raises.
    try:
        proc = subprocess.run([str(exe), *args], cwd=root,
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"worker timed out after {WORKER_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"worker exited with code {proc.returncode}", 1)
    return json.loads(lines[-1])


def on_signal(signum, _frame):
    raise SystemExit(f"perfbench: stopped by signal {signum}")


def summary(xs):
    if not xs:
        return "n=0"
    return f"n={len(xs)} min={min(xs):.6g} max={max(xs):.6g}"


def end_to_end(exe, root, args, jobs):
    # Route speed differs from one process to the next on this kind of
    # shared host, so a run pools the samples of several fresh processes.
    workers = WORKERS[args.workload]
    outs = [
        run_worker(exe, ["e2e", args.workload, str(args.seed),
                         str(args.seconds / workers), str(jobs)]
                   + (["baseline"] if k == 0 else []), root)
        for k in range(workers)
    ]
    setups = [run_worker(exe, ["setup", args.workload, str(args.seed)], root)
              for _ in range(SETUP_PROCESSES)]
    out = dict(outs[0])
    out["attempted"] = sum(o["attempted"] for o in outs)
    out["failures"] = [f for o in outs for f in o["failures"]]
    out["failed_routes"] = sum(o["failed_routes"] for o in outs)
    # Determinism across processes: every worker routed the same tree.
    for k, o in enumerate(outs[1:], 1):
        if o.get("wirelength") != out.get("wirelength"):
            out["failures"].append(f"worker {k}: wirelength differs")
            out["failed_routes"] += 1

    def pooled(name):
        return [x for o in outs for x in o[name]]

    samples = {
        "setup_s": [statistics.median(o["setup_s"]) for o in setups],
        "route_s": pooled("route_s"),
        "route_serial_s": pooled("route_serial_s"),
        "peak_heap_mb": [o["top_heap_words"] * o["word_bytes"] / 2**20
                         for o in outs],
    }
    for name, xs in samples.items():
        print(f"samples {name}: {summary(xs)}")
    # A route that failed leaves no sample; the run fails anyway.
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    # Parse time sits at one of two levels per process.  The mean of the
    # per-process medians moves little from run to run; a median over
    # processes would jump between the two levels.
    metrics["setup_s"] = statistics.fmean(samples["setup_s"])
    if "route_s" in metrics and "route_serial_s" in metrics:
        # Derived, not gated: a win on the serial part alone lowers it.
        print(f"route_speedup "
              f"{metrics['route_serial_s'] / metrics['route_s']:.4f} x "
              f"(route_serial_s / route_s)")
    # Deterministic for a seed but not gated: across seeds it spreads
    # further than any bound allows (see README.md).
    if "wirelength" in out:
        print(f"wirelength {out['wirelength']!r} lu")
    if "wl_reduction_pct" in out:
        print(f"wl_reduction_pct {out['wl_reduction_pct']:.6f} % (vs ext_bst)")
    return out, metrics


def per_layer(exe, root, args, jobs):
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-{args.seed}.json"
    out = run_worker(exe, ["layers", args.workload, str(args.seed), str(jobs),
                           str(spans)], root)
    print(f"spans written to {spans.relative_to(root)}")
    return out, out["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKERS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"instance seed (default {DEFAULT_SEED}; "
                         f"held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    if args.seconds < 1:
        die("--seconds must be at least 1")

    root = Path.cwd()
    if not ((root / "dune-project").is_file() and (root / "lib").is_dir()
            and (root / "BENCHMARK.json").is_file()):
        die("run from the root of an astskew source checkout")
    exe = build(root)

    # Closed loop, one client: one route at a time, jobs = nproc.
    jobs = len(os.sched_getaffinity(0))
    measure = per_layer if args.trace else end_to_end
    out, metrics = measure(exe, root, args, jobs)
    # BENCHMARK.json declares each metric's unit; the worker must report
    # exactly the declared set.
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    failed = out["failed_routes"]
    if not failed and set(units) != set(metrics):
        die(f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}", 1)

    for f in out["failures"]:
        print(f"FAILED: {f}")
    print(f"workload {args.workload} seed {args.seed} nproc {jobs} "
          f"domains {out['domains']} jobs {out['jobs']}")
    print(f"failed_routes {failed} of {out['attempted']} attempted")
    units = {k: u for k, u in units.items() if k in metrics}
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
