"""isomlab benchmark: one seeded, closed-loop workload through isomlab.cli.main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The workloads, their inputs and verdict checks are in ``workloads.py``.

One client, one process and one thread on one core; BLAS/OpenMP pools are
pinned to one thread.  Set-up is measured in SETUP_SAMPLES launches of the
workload process (the last one also runs the ops) and reported as their
median.  Times are reported at a fixed reference speed of the machine, see
REF_SECONDS.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see ``layertrace.py``),
each per op.  A result file with every op record and the environment is
written under ``perfbench/out/``.  The run is invalid (``"correct": false``)
when the fixed first op does not PASS with its residuals under the pinned
thresholds, or when any op's report disagrees with its own residuals, its
exit code, or its inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
# Median time of the reference kernel (worker.reference_seconds) on an
# unloaded 2-core Xeon VM.  A shared machine changes speed by tens of percent
# within seconds, so op times are reported at this speed: wall time times
# REF_SECONDS over the kernel time measured around the op.
REF_SECONDS = 2.0e-3
# Set-up time is scaled the same way, by the time of a reference launch that
# imports numpy and scipy.integrate (most of the set-up) just before each
# workload process starts; REF_LAUNCH_SECONDS is its time on the same VM.
REF_LAUNCH = [sys.executable, "-c", "import numpy, scipy.integrate"]
REF_LAUNCH_SECONDS = 0.6
TAIL_BEYOND = 10  # ops a tail percentile must have beyond it
PINNED = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "gate_headroom_decades": "decades",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {}
    for layer in layertrace.LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.calls": "count",
                      f"{layer}.errors": "count"})
    for layer in layertrace.SOLVER_LAYERS:
        units.update({f"{layer}.solver_s": "s", f"{layer}.solver_calls": "count",
                      f"{layer}.rhs_evals": "count", f"{layer}.solver_failures": "count"})
    units.update({
        "odeengine.transport_calls": "count",
        "odeengine.sectorial_builds": "count",
        "odeengine.sectorial_distinct_share": "1",
        "odeengine.wronskian_drift_max": "1",
        "odeengine.stokes_error_max": "1",
        "fuchsian.monodromy_calls": "count",
        "fuchsian.schlesinger_calls": "count",
        "isoflow.guard_s": "s",
        "formal.terms": "count",
        "unattributed_s": "s",
        "traced_op_s": "s",
        "trace_overhead_share": "1",
        "fail_share": "1",
        "accuracy_headroom_decades": "decades",
    })
    return units


PER_LAYER = per_layer_units()


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(args, workdir, out, extra, timeout):
    """Run one workload process, after a reference launch unless traced.

    Returns the seconds from launch to the first op, with the reference
    launch's time, and the process's result.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), "--out", str(out),
    ] + extra
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    ref = None
    if not args.trace:
        t0 = clock()
        subprocess.run(REF_LAUNCH, env=env, check=True, timeout=60)
        ref = clock() - t0
    t0 = clock()
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    result = json.loads(out.read_text())
    return {"wall_s": result["first_op"] - t0, "ref_s": ref}, result


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it.

    With fewer than TAIL_BEYOND + 1 ops no percentile qualifies and the
    maximum is reported; the percentile and op count go with the value.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return {"op_tail_s": xs[-1], "percentile": 100.0, "ops": n, "beyond": 0}
    return {"op_tail_s": xs[n - TAIL_BEYOND - 1], "percentile": 100.0 * (n - TAIL_BEYOND) / n,
            "ops": n, "beyond": TAIL_BEYOND}


def end_to_end(records, setups, result):
    """End-to-end metrics; times are scaled from the speed the machine ran at
    to the reference speed (REF_SECONDS, REF_LAUNCH_SECONDS)."""
    ops = [r["wall_s"] * REF_SECONDS / r["ref_s"] for r in records]
    metrics = {
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_s": statistics.median(ops),
        "gate_headroom_decades": records[0]["headroom"] or 0.0,
        "setup_s": statistics.median(
            s["wall_s"] * REF_LAUNCH_SECONDS / s["ref_s"] for s in setups
        ),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return metrics, ops


def per_layer(records):
    """Per-op means of every layer time and count; maxima as per-op medians."""
    n = len(records)
    total = {name: 0.0 for name in PER_LAYER}
    builds = distinct = 0.0
    for r in records:
        layers = r["layers"]
        for name, v in layers.items():
            if name in total:
                total[name] += v
        builds += layers.get("odeengine.sectorial_builds", 0.0)
        distinct += layers.get("odeengine.sectorial_distinct", 0.0)
    metrics = {name: v / n for name, v in total.items()}
    for name in ("odeengine.wronskian_drift_max", "odeengine.stokes_error_max"):
        metrics[name] = statistics.median(r["layers"].get(name, 0.0) for r in records)
    metrics["odeengine.sectorial_distinct_share"] = distinct / builds if builds else 0.0
    traced = [r["traced_s"] for r in records]
    attributed = sum(
        v for r in records for k, v in r["layers"].items()
        if k.endswith(".self_s") or k.endswith(".solver_s")
    )
    metrics["traced_op_s"] = sum(traced) / n
    metrics["unattributed_s"] = (sum(traced) - attributed) / n
    metrics["trace_overhead_share"] = sum(traced) / sum(r["wall_s"] for r in records) - 1.0
    metrics["fail_share"] = fail_share(records)
    metrics["accuracy_headroom_decades"] = accuracy_headroom(records)
    return metrics


def fail_share(records):
    """Ops with any exit code other than 0 (FAIL verdict or error) per op."""
    return sum(1 for r in records if any(c != 0 for c in r["codes"])) / len(records)


def accuracy_headroom(records):
    """Median over ops of log10(threshold / worst acceptance residual); ops
    that ended in an error have no residuals and are left out."""
    rooms = [r["headroom"] for r in records if r["headroom"] is not None]
    return statistics.median(rooms) if rooms else 0.0


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": PINNED,
        "setup_samples": SETUP_SAMPLES,
        "reference_kernel_s": REF_SECONDS,
        "reference_launch_s": REF_LAUNCH_SECONDS,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--max-ops", type=int, default=None,
                   help="stop after this many ops (smoke test)")
    args = p.parse_args()

    root = HERE.parent
    if not (root / "src" / "isomlab" / "cli.py").is_file():
        sys.exit(f"error: {root} is not an isomlab checkout (no src/isomlab/cli.py)")
    # one core for this process and the workload processes it starts, so an
    # op and the reference kernel timed next to it run on the same core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    outdir = HERE / "out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = outdir / f"{tag}-{os.getpid()}"
    extra = [] if args.max_ops is None else ["--max-ops", str(args.max_ops)]
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        # the traced run reports no set-up time, so it launches the workload once
        for i in range(0 if args.trace else SETUP_SAMPLES - 1):
            s, _ = launch(args, workdir / f"setup{i}", workdir / f"setup{i}.json",
                          ["--setup-only"], timeout=60)
            setups.append(s)
        spans = outdir / f"{tag}-spans.jsonl.gz"
        s, result = launch(args, workdir / "inputs", workdir / "result.json",
                           extra + (["--spans", str(spans)] if args.trace else []),
                           timeout=args.seconds + 150)
        setups.append(s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    failed = sum(1 for r in records if r["errors"] or r["problems"])
    correct = workloads.gate_ok(records[0]) and not any(r["problems"] for r in records)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": [[c.command, *c.flags] for c in workloads.WORKLOADS[args.workload](None, 0)],
        "environment": dict(environment(), **result["versions"]),
        "fail_share": fail_share(records),
        "accuracy_headroom_decades": accuracy_headroom(records),
    }
    if args.trace:
        metrics, units = per_layer(records), PER_LAYER
    else:
        metrics, ops = end_to_end(records, setups, result)
        units = END_TO_END
        report.update(
            op_tail=tail(ops),
            setup_samples_s=setups,
            machine_speed=statistics.median(REF_SECONDS / r["ref_s"] for r in records),
        )
    line = {
        "correct": bool(correct),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report.update(result=line, records=[
        {k: v for k, v in r.items() if k != "layers"} for r in records
    ])
    (outdir / f"{tag}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
