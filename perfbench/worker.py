"""Workload process: set up, then run ops closed-loop through isomlab.cli.main.

One client, one thread: each op starts when the previous one has finished.
Set-up is the interpreter start, ``import isomlab`` and writing the seeded
inputs as JSON system and path files; it ends when the first op starts.  The
process writes its per-op records as one JSON file, named by ``--out``.

With ``--trace 1`` every op runs twice, untraced and traced, in alternating
order, so that the tracing overhead is measured on the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.integrate import solve_ivp  # noqa: E402

import isomlab  # noqa: E402
import isomlab.cli  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

# distinct inputs written at set-up; a run that outlasts them starts over
POOL = 64

# Reference kernel: fixed work like the program's hot loop (DOP853 steps of a
# small complex linear ODE with a Python right-hand side), independent of
# isomlab.  Timed between ops, it tracks how fast the machine runs right then.
REF_MATRIX = np.array([[0.3 + 1j, 1.0], [0.7, -0.4 - 0.5j]])
REF_Y0 = np.array([1.0, 0.0], dtype=complex)


def reference_seconds():
    t0 = time.perf_counter()
    solve_ivp(lambda t, y: REF_MATRIX @ y, (0.0, 6.0), REF_Y0, method="DOP853",
              rtol=1e-11, atol=1e-11)
    return time.perf_counter() - t0


def clock():
    """CLOCK_MONOTONIC, shared with the parent process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def write_inputs(name, seed, workdir):
    """Draw POOL ops from the seed; returns per op a list of (Call, argv)."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for k in range(POOL):
        calls = []
        for c, call in enumerate(workloads.WORKLOADS[name](rng, k)):
            argv = [call.command]
            for kind, doc in (("system", call.system), ("path", call.path)):
                if doc is not None:
                    f = workdir / f"op{k}-{c}-{kind}.json"
                    f.write_text(json.dumps(doc))
                    argv += [f"--{kind}", str(f)]
            calls.append((call, argv + list(call.flags)))
        ops.append(calls)
    return ops


def run_call(argv):
    """One in-process CLI call: (exit code or None on exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = isomlab.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # recorded as a failed op, the run goes on
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def run_op(calls):
    t0 = time.perf_counter()
    results = [run_call(argv) for _, argv in calls]
    return time.perf_counter() - t0, results


def judge(calls, results):
    """Exit codes, verdicts, accuracy and problems of one op's outputs."""
    rec = {"codes": [], "verdicts": [], "headroom": None, "problems": [], "errors": []}
    rooms = []
    for (call, _), (code, out, err) in zip(calls, results):
        rec["codes"].append(code)
        if code not in (0, 2):
            rec["errors"].append(err.strip().splitlines()[-1] if err.strip() else f"exit {code}")
            continue
        try:
            report = json.loads(out)
            rec["verdicts"].append(report.get("verdict"))
            rec["problems"] += workloads.check_report(call, report, code)
            rooms.append(workloads.headroom(call.command, report))
        except (ValueError, KeyError, TypeError) as exc:
            rec["problems"].append(f"unreadable report: {exc!r}")
    if rooms and not rec["errors"]:
        rec["headroom"] = min(rooms)
    return rec


def run_traced(rec, op, calls):
    rec.start_op(op)
    restore = layertrace.instrument(rec)
    try:
        return run_op(calls)
    finally:
        restore()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--max-ops", type=int, default=None)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args()

    src = (ROOT / "src").resolve()
    if Path(isomlab.__file__).resolve().parent.parent != src:
        sys.exit(f"isomlab imported from {isomlab.__file__}, not from {src}")
    ops = write_inputs(args.workload, args.seed, Path(args.workdir))
    result = {"first_op": clock(), "records": []}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return
    ref = statistics.median(reference_seconds() for _ in range(3))

    rec = layertrace.Recorder() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k == 0 or (time.perf_counter() < deadline and (args.max_ops is None or k < args.max_ops)):
        calls = ops[k % POOL]
        if rec is None:
            wall, results = run_op(calls)
            record = judge(calls, results)
            after = reference_seconds()
            record["ref_s"], ref = 0.5 * (ref + after), after
        else:
            # alternate the order so that warm-up favours neither run
            first = run_traced(rec, k, calls) if k % 2 else run_op(calls)
            second = run_op(calls) if k % 2 else run_traced(rec, k, calls)
            (wall, results), traced = (second, first) if k % 2 else (first, second)
            record = judge(calls, results)
            record["traced_s"] = traced[0]
            record["layers"] = dict(rec.per_op[k])
            if [r[:2] for r in traced[1]] != [r[:2] for r in results]:
                record["problems"].append("traced and untraced outputs differ")
        record.update(op=k, input=k % POOL, wall_s=wall)
        result["records"].append(record)
        if k == 0 and not workloads.gate_ok(record):
            break
        k += 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    if rec is not None and args.spans:
        with gzip.open(args.spans, "wt") as fh:
            for span in rec.spans:
                fh.write(json.dumps(span) + "\n")
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
