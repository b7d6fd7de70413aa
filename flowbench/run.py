#!/usr/bin/env python3
"""End-to-end placement benchmark.

    python3 flowbench/run.py --workload flow50k_t1 --seed 3 --seconds 15 --trace 0

Builds the benchmark binary from source (flowbench/CMakeLists.txt, into
.bench_build/flowbench), generates the workload's design from the seed,
runs closed-loop operations of the user's flow, one process per step, checks
their outputs, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced operations; --trace 1
runs one untraced and one traced operation and reports the per-layer metrics.
See flowbench/README.md for the metric table and the workloads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "flowbench")
WORK = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD, "flowbench")

# The workloads BENCHMARK.json lists. Other sizes and thread counts of the
# same two kinds (flow<N>k_t<T>, eco_peko<N>k_t<T>) run too; README.md uses
# them for the measurements behind the choice of these three.
WORKLOADS = ("flow50k_t1", "flow50k_t2", "eco_peko50k_t1")
# The first design is set up SETUP_BATCHES x SETUP_BATCH times (any other
# once); setup_s is the median over batches of the mean set-up time within a
# batch. One set-up of a 50k design takes ~0.5 s, short enough that the box's
# bursts of co-tenant load put single samples in a fast or a slow mode, and
# a plain median flips between the modes from one run to the next.
SETUP_BATCHES = 3
SETUP_BATCH = 3
# Flow runs place two designs, generated from --seed and --seed + 1000. GP
# work differs between designs: seeds that hit a spurious watchdog recovery
# take 34-36 iterations, the others 29, so a single design per run makes the
# spread across seeds twice as wide as the bimodal mix of two.
FLOW_DESIGNS = 2
DESIGN_SEED_STRIDE = 1000
STEP_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "flow_s": "s",
    "gp_s": "s",
    "legal_hpwl": "dbu",
    "hpwl_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "gen.generate_s": "s",
    "bookshelf.write_design_s": "s",
    "bookshelf.read_s": "s",
    "bookshelf.write_pl_s": "s",
    "core.calls": "count",
    "core.call_p50_s": "s",
    "core.call_tail_s": "s",
    "core.cells": "count",
    "core.iterations": "count",
    "core.recoveries": "count",
    "core.converged": "ratio",
    "core.gp_overflow": "%",
    "core.bootstrap_s": "s",
    "core.iteration_s": "s",
    "core.tail_s": "s",
    "qp.primal_step_s": "s",
    "linalg.cg_iterations_per_solve": "count",
    "linalg.replay_cg_iterations_per_solve": "count",
    "projection.project_s": "s",
    "projection.calls": "count",
    "legal.tetris_s": "s",
    "legal.failed_cells": "count",
    "legal.mean_displacement": "dbu",
    "dp.refine_s": "s",
    "dp.hpwl_gain": "ratio",
    "metric.eval_s": "s",
    "parallel.cpu_per_wall": "ratio",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "run.fail_rate": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; raises on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def step(args):
    """Runs one benchmark step in its own process; returns its JSON line."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=STEP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("step failed (%d): %s" % (proc.returncode,
                                                     " ".join(args)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven samples)."""
    v = sorted(values)
    return v[max(0, len(v) - 11)] if len(v) > 10 else v[-1]


def span_seconds(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def op_failures(op, eco):
    """Failed operations of one step: windows for ECO, the flow otherwise.
    A step-level check failing fails every operation of the step."""
    calls = op["calls"]
    step_ok = all(ok for name, ok in op["checks"].items()
                  if name not in ("gp_converged", "eco_frozen_unchanged"))
    if not eco:
        return 1, 0 if step_ok and all(op["checks"].values()) else 1
    bad = sum(1 for c in calls if not (c["converged"] and not c["failed"]
                                       and c["frozen_ok"]))
    return len(calls), bad if step_ok else len(calls)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one of %s" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Small versions of the workloads and injected faults, for the
    # benchmark's own tests (flowbench/test_flowbench.py).
    ap.add_argument("--cells", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--windows", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--inject", default="", help=argparse.SUPPRESS)
    args = ap.parse_args()

    build()
    eco = args.workload.startswith("eco_peko")
    work = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed,
                                            os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result = run(args, eco, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def run(args, eco, work):
    sizes = []
    if args.cells:
        sizes += ["--cells", str(args.cells)]
    if args.windows:
        sizes += ["--windows", str(args.windows)]
    designs = []  # per design: the arguments naming it
    for k in range(1 if eco else FLOW_DESIGNS):
        d = os.path.join(work, "d%d" % k)
        os.makedirs(d)
        designs.append(["--workload", args.workload, "--seed",
                        str(args.seed + DESIGN_SEED_STRIDE * k), "--dir", d]
                       + sizes)
    inject = ["--inject", args.inject] if args.inject else []

    setup = step(["setup", "--reps", str(SETUP_BATCHES * SETUP_BATCH)]
                 + designs[0])
    generate_s, write_design_s = setup["generate_s"], setup["write_design_s"]
    for design in designs[1:]:
        step(["setup", "--reps", "1"] + design)
    setups = [g + w for g, w in zip(generate_s, write_design_s)]
    setup_s = statistics.median(
        statistics.fmean(setups[i:i + SETUP_BATCH])
        for i in range(0, len(setups), SETUP_BATCH))

    checks_ok = True
    attempted = failed = 0

    def account(op):
        nonlocal checks_ok, attempted, failed
        n, bad = op_failures(op, eco)
        attempted += n
        failed += bad
        broken = sorted(k for k, v in op["checks"].items() if not v)
        if broken:
            log("failed checks: %s" % broken)
        # A GP that stops short fails its operation, but the placement it
        # hands on is still checked, and correct, on its own terms.
        if any(k != "gp_converged" for k in broken):
            checks_ok = False

    if args.trace == 0:
        # Closed loop, one caller: the next operation starts when the
        # previous one ends, cycling through the designs, until every design
        # has run once and the measuring time has passed.
        ops = []
        start = time.monotonic()
        while (len(ops) < len(designs)
               or time.monotonic() - start < args.seconds):
            out = os.path.join(work, "out%d.pl" % len(ops))
            ops.append(step(["op", "--out", out]
                            + designs[len(ops) % len(designs)] + inject))
            account(ops[-1])
        med = lambda k: statistics.median(op[k] for op in ops)
        values = {
            "setup_s": setup_s,
            "flow_s": med("flow_s"),
            "gp_s": med("gp_s"),
            "legal_hpwl": med("legal_hpwl"),
            "hpwl_ratio": med("hpwl_ratio"),
            "peak_rss_mb": med("peak_rss_mb"),
        }
        units = END_TO_END
    else:
        plain_pl = os.path.join(work, "plain.pl")
        traced_pl = os.path.join(work, "traced.pl")
        spans_path = os.path.join(work, "spans.json")
        plain = step(["op", "--out", plain_pl] + designs[0] + inject)
        traced = step(["op", "--trace", "--out", traced_pl, "--spans",
                       spans_path] + designs[0] + inject)
        with open(plain_pl, "rb") as a, open(traced_pl, "rb") as b:
            traced["checks"]["traced_equals_untraced"] = a.read() == b.read()
        account(plain)
        account(traced)
        with open(spans_path) as f:
            values = layer_metrics(generate_s, write_design_s, plain, traced,
                                   json.load(f))
        values["run.fail_rate"] = failed / max(1, attempted)
        units = PER_LAYER

    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return {"correct": checks_ok, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(generate_s, write_design_s, plain, traced, spans):
    calls = traced["calls"]
    layers = traced["layers"]
    one = lambda name: sum(span_seconds(spans, name))
    call_s = [c["s"] for c in calls]
    flow = next(s for s in spans if s["name"] == "flow")
    flow_id = spans.index(flow)
    children = sum(s["end"] - s["start"] for s in spans
                   if s["parent"] == flow_id)
    solves = sum(c["solves"] for c in calls)
    return {
        "gen.generate_s": statistics.median(generate_s),
        "bookshelf.write_design_s": statistics.median(write_design_s),
        "bookshelf.read_s": one("bookshelf.read"),
        "bookshelf.write_pl_s": one("bookshelf.write_pl"),
        "core.calls": len(calls),
        "core.call_p50_s": statistics.median(call_s),
        "core.call_tail_s": tail_percentile(call_s),
        "core.cells": statistics.median(c["cells"] for c in calls),
        "core.iterations": statistics.median(c["iterations"] for c in calls),
        "core.recoveries": sum(c["recoveries"] for c in calls),
        "core.converged": sum(c["converged"] for c in calls) / len(calls),
        "core.gp_overflow": 100.0 * statistics.median(
            c["overflow"] for c in calls),
        "core.bootstrap_s": layers["core.bootstrap_s"],
        "core.iteration_s": layers["core.iteration_s"],
        "core.tail_s": layers["core.tail_s"],
        "qp.primal_step_s": layers["qp.primal_step_s"],
        "linalg.cg_iterations_per_solve":
            sum(c["cg_iterations"] for c in calls) / max(1, solves),
        "linalg.replay_cg_iterations_per_solve":
            layers["linalg.replay_cg_iterations_per_solve"],
        "projection.project_s": layers["projection.project_s"],
        "projection.calls": sum(c["projections"] for c in calls),
        "legal.tetris_s": one("legal.tetris"),
        "legal.failed_cells": traced["legal_failed_cells"],
        "legal.mean_displacement": traced["legal_mean_displacement"],
        "dp.refine_s": one("dp.refine"),
        "dp.hpwl_gain": traced["dp_hpwl_gain"],
        "metric.eval_s": one("metric.eval"),
        "parallel.cpu_per_wall": plain["cpu_s"] / plain["flow_s"],
        "trace.overhead_s": traced["flow_s"] - plain["flow_s"],
        "trace.coverage": children / (flow["end"] - flow["start"]),
    }


if __name__ == "__main__":
    try:
        main()
    except Exception as e:  # no result line: the run failed
        log("flowbench: %s: %s" % (type(e).__name__, e))
        sys.exit(1)
