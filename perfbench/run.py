"""Benchmark of the solenoid solver.

    python3 perfbench/run.py --workload {solve,queries,cold-cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  One process, one thread (BLAS and OpenMP
pinned to 1); CLI processes are started one at a time.  The run sets up,
then repeats whole rounds of its workload's operations until S seconds have
passed (at least one round), checks every output against an independent
reference, writes a result file under perfbench/results/ and prints one
JSON line: the end-to-end metrics with --trace 0, the per-layer metrics
from wrapped calls with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# per-layer metric -> (layer or counter, statistic); values are per round,
# with the set-up's share added once.  cell_yield, cli.startup_s and
# trace.round_s are computed apart.
PER_LAYER = (
    ("approxcore.beta.calls", "approxcore.beta", "calls"),
    ("approxcore.beta.busy_s", "approxcore.beta", "busy"),
    ("polyfield.gamma0.busy_s", "polyfield.gamma0", "busy"),
    ("spectral.mollifier_mode_grid.calls", "spectral.mollifier_mode_grid",
     "calls"),
    ("spectral.mollifier_mode_grid.busy_s", "spectral.mollifier_mode_grid",
     "busy"),
    ("spectral.mollified_field_pair.calls", "spectral.mollified_field_pair",
     "calls"),
    ("spectral.mollified_field_pair.self_s", "spectral.mollified_field_pair",
     "self"),
    ("stokes.frac_power_apply.calls", "stokes.frac_power_apply", "calls"),
    ("stokes.frac_power_apply.busy_s", "stokes.frac_power_apply", "busy"),
    ("nse.compute_horizon.busy_s", "nse.compute_horizon", "busy"),
    ("nse.compute_horizon.self_s", "nse.compute_horizon", "self"),
    ("nse.solve.busy_s", "nse.solve", "busy"),
    ("nse.nonlinearity_pair.calls", "nse.nonlinearity_pair", "calls"),
    ("nse.nonlinearity_pair.self_s", "nse.nonlinearity_pair", "self"),
    ("nse.product.calls", "nse.product.calls", "count"),
    ("nse.product.terms", "nse.product.terms", "count"),
    ("helmholtz.project_pair.calls", "helmholtz.project_pair", "calls"),
    ("helmholtz.project_pair.busy_s", "helmholtz.project_pair", "busy"),
    ("helmholtz.project.busy_s", "helmholtz.project", "busy"),
    ("nse.smoothness_lift.busy_s", "nse.smoothness_lift", "busy"),
    ("nse.smoothness_lift.panels", "nse.smoothness_lift.panels", "count"),
    ("nse.smoothness_lift.doublings", "nse.smoothness_lift.doublings",
     "count"),
    ("stokes.semigroup_apply.calls", "stokes.semigroup_apply", "calls"),
    ("stokes.semigroup_apply.self_s", "stokes.semigroup_apply", "self"),
    ("stokes.tail_cutoff_l.busy_s", "stokes.tail_cutoff_l", "busy"),
    ("approxcore.gamma_tail.busy_s", "approxcore.gamma_tail", "busy"),
    ("stokes.contour_factors.busy_s", "stokes.contour_factors", "busy"),
    ("stokes.contour_factors.modes", "stokes.contour_factors.modes", "count"),
    ("nse.pressure_field.busy_s", "nse.pressure_field", "busy"),
    ("nse.pressure.self_s", "nse.pressure", "self"),
)
UNITS = {"calls": "count", "count": "count", "busy": "s", "self": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("solve", "queries", "cold-cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin():
    """One thread in BLAS/OpenMP, and this process with every process it
    starts on one CPU, so the calibration windows of clock.py measure the
    core the timed work ran on."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def machine_info() -> dict:
    """Machine, versions, and the git SHA when the checkout is a git
    repository (nothing outside the checkout is read)."""
    import mpmath
    import numpy
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "machine": platform.machine(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__}


def run_rounds(wl, clk, workload: str, seed: int, seconds: float,
               log: dict):
    """Whole rounds until ``seconds`` have passed (at least one).  Returns
    the (scaled, wall) times of each op slot, the round count, and the
    counts of attempted and failed operations.  A slot is the same
    operation on fresh inputs: the i-th op of every round, or the ops that
    share a ``slot`` name."""
    slots = {}
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        rng = random.Random("%s:%d:%d" % (workload, seed, index))
        for i, op in enumerate(wl.round_ops(rng, index)):
            value, error, wall, scaled = clk.timed(op.run, op.bursts)
            attempted += 1
            slot = op.slot or str(i)
            slots.setdefault(slot, []).append((scaled, wall))
            log["ops"].append([index, op.kind, wall, scaled, slot])
            if error is not None:
                failed += 1
                log["failures"].append({"round": index, "kind": op.kind,
                                        "error": repr(error)[:400]})
                continue
            try:
                op.check(value)
            except Exception as exc:  # a wrong output, or a broken check
                log["wrong"].append({"round": index, "kind": op.kind,
                                     "error": repr(exc)[:400]})
        index += 1
    return slots, index, attempted, failed


def layer_metrics(tracer, split: int, setup_counts: dict,
                  n_rounds: int) -> dict:
    """Per-layer values: the set-up's share (spans before ``split``) plus
    the mean per round."""
    parts = []
    round_counts = {k: v - setup_counts.get(k, 0.0)
                    for k, v in tracer.counts.items()}
    for (lo, hi), counts in (((0, split), setup_counts),
                             ((split, None), round_counts)):
        calls, busy, self_t = tracer.layer_totals(lo, hi)
        parts.append({"calls": calls, "busy": busy, "self": self_t,
                      "count": counts})
    out = {}
    for metric, layer, stat in PER_LAYER:
        val = parts[0][stat].get(layer, 0) + \
            parts[1][stat].get(layer, 0) / n_rounds
        out[metric] = (float(val), UNITS[stat])
    cells = sum(p["count"].get("nse.smoothness_lift.cells", 0) for p in parts)
    useful = sum(p["count"].get("nse.smoothness_lift.useful_cells", 0)
                 for p in parts)
    out["nse.smoothness_lift.cell_yield"] = (useful / cells if cells else 0.0,
                                             "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "solenoid", "cli.py")):
        print("perfbench: no solenoid sources under %s" % SRC, file=sys.stderr)
        return 2
    pin()
    sys.path.insert(0, SRC)
    import compileall
    compileall.compile_dir(os.path.join(SRC, "solenoid"), quiet=1)

    import workloads
    from clock import Clock
    from tracer import Tracer

    os.makedirs(RESULTS, exist_ok=True)
    stamp = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                      time.time_ns())
    scratch = os.path.join(RESULTS, "work-" + stamp)
    os.makedirs(scratch)
    log = {"ops": [], "failures": [], "wrong": []}
    try:
        wl = workloads.WORKLOADS[args.workload](scratch,
                                                traced=bool(args.trace))
        tracer = None
        if args.trace:
            import solenoid.cli  # noqa: F401  (load every module to wrap)
            tracer = Tracer()
            tracer.install()
        clk = Clock(sample=not args.trace)
        setup_wall_s, setup_s = wl.setup(clk)
        if tracer:
            split, setup_counts = len(tracer.spans), dict(tracer.counts)
        slots, rounds, attempted, failed = run_rounds(
            wl, clk, args.workload, args.seed, args.seconds, log)
        slot_medians = [statistics.median(s for s, _ in v)
                        for v in slots.values()]
        slot_medians_wall = [statistics.median(w for _, w in v)
                             for v in slots.values()]
        round_s = sum(slot_medians)
        if tracer:
            for path in getattr(wl, "span_files", []):
                if os.path.exists(path):
                    with open(path) as fh:
                        merge_dump(tracer, json.load(fh))
            values = layer_metrics(tracer, split, setup_counts, rounds)
            values["cli.startup_s"] = (
                workloads.fresh_import_seconds(clk, scratch)[0], "s")
            values["trace.round_s"] = (sum(slot_medians_wall), "s")
            spans = dict(tracer.dump(), setup_spans=split)
        else:
            rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            values = {
                "setup_s": (setup_s, "s"),
                "round_s": (round_s, "s"),
                "op_gmean_s": (statistics.geometric_mean(slot_medians), "s"),
                "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            }
            spans = None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    correct = not log["wrong"]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info(), "setup_wall_s": setup_wall_s,
              "rounds": rounds,
              "slot_medians_s": slot_medians,
              "slot_medians_wall_s": slot_medians_wall,
              "round_wall_s": sum(slot_medians_wall),
              "attempted": attempted,
              "failed": failed, "correct": correct, "metrics": metrics,
              **log}
    with open(os.path.join(RESULTS, stamp + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(os.path.join(RESULTS, stamp + "-spans.json"), "w") as fh:
            json.dump(spans, fh)
    for item in log["wrong"] + log["failures"]:
        print("perfbench: %s" % json.dumps(item), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def merge_dump(tracer, dump: dict):
    """Append a traced CLI process's spans and counters to ``tracer``."""
    base = len(tracer.spans)
    for name, t0, t1, parent in dump["spans"]:
        tracer.spans.append([name, t0, t1, parent + base if parent >= 0
                             else -1])
    for key, val in dump["counts"].items():
        tracer.counts[key] += val


if __name__ == "__main__":
    sys.exit(main())
