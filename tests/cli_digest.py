"""Digest of the CLI output of the benchmark workloads' ops.

    PYTHONPATH=src python tests/cli_digest.py --seeds 3 11 13 [--workload NAME ...] [--ops 64]
        [--steps]

Draws the ops of each workload as ``perfbench/workloads.py`` draws them for
a seed (64 per seed, the benchmark's input pool), runs every call of every
op in-process through ``isomlab.cli.main`` and prints one line per op:

    <workload> <seed> <op> <exit codes> <sha256 of the exit codes, stdout and stderr>

then one line per workload with the digest of all its ops.  With
``--steps`` each op's line ends with the Taylor steps its calls took, the
distinct (ODE, leg) pairs they stepped (the summed step and leg-table row
counts of every ``odeengine._schedule`` layout), the backward arcs they ran
as the inverse of a stepped leg (the distinct leg-table rows that the
routes of every ``odeengine.transport_matrix`` batch run backward),
the collocation steps its flows took (the calls of ``isoflow._sweeps``,
rejected steps included), their Picard sweeps (the right-hand-side
evaluations of those calls), the calls of the formal recursion
(``formal.compute_formal_coefficients``), the formal series those calls
built and the series terms F_k whose 2-norm ``formal.optimal_truncations``
took by SVD, and the workload's line with the means of the eight over its
ops.
It exits 1 if an exception escaped ``cli.main`` in any call (exit code
``None``), after printing every line.  The inputs are
written to a temporary directory under the same relative names on every
run, so two checkouts give equal lines exactly when their output is equal:
run the script once against the ``src/`` of each and diff what it prints.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

from isomlab import cli, formal, isoflow, odeengine, verify  # noqa: E402

POOL = 64  # ops per seed, as in perfbench/worker.py


def _call(argv):
    """(exit code, stdout, stderr) of one in-process CLI call; an exception
    that escapes main is recorded as code None with its type and message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # recorded, and the digest goes on
            code = None
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def op_outputs(workload: str, seed: int, ops: int = POOL):
    """Per op of the seed's draw, the list of (exit code, stdout, stderr) of
    its calls.  Runs in a temporary working directory."""
    rng = np.random.default_rng(seed)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for k in range(ops):
                results = []
                for c, call in enumerate(workloads.WORKLOADS[workload](rng, k)):
                    argv = [call.command]
                    for kind, doc in (("system", call.system), ("path", call.path)):
                        if doc is not None:
                            name = f"op{k}-{c}-{kind}.json"
                            Path(name).write_text(json.dumps(doc))
                            argv += [f"--{kind}", name]
                    results.append(_call(argv + list(call.flags)))
                yield results
        finally:
            os.chdir(home)


@contextlib.contextmanager
def counted_steps():
    """A list that collects (steps, legs, 0, ...) of every
    `odeengine._schedule` layout, (0, 0, backward arcs, 0, ...) of every
    `odeengine.transport_matrix` batch, (0, 0, 0, 1, 0, ...) of every
    collocation step (`isoflow._sweeps` call), (0, 0, 0, 0, 1, 0, ...) of
    every Picard sweep (right-hand side of such a call), (0, ..., 1,
    series, 0) of every call of the formal recursion and (0, ..., terms) of
    every SVD that `formal.optimal_truncations` takes, of a stack of that
    many terms, made inside the block, each an 8-tuple."""
    counts = []
    schedule, transport, sweeps = odeengine._schedule, odeengine.transport_matrix, isoflow._sweeps
    recursion, callers = formal.compute_formal_coefficients, (cli, verify)
    svd, truncations = np.linalg.svd, formal.optimal_truncations.__code__

    def counted(odes, legs, names):
        layout = schedule(odes, legs, names)
        counts.append((len(layout[0]), len(legs), 0, 0, 0, 0, 0, 0))
        return layout

    def counted_transport(odes, legs, routes, backward, *rest):
        # the rows that some transport runs backward
        counts.append((0, 0, len(np.unique(routes[backward])), 0, 0, 0, 0, 0))
        return transport(odes, legs, routes, backward, *rest)

    def counted_sweeps(f, y, h, tol):
        counts.append((0, 0, 0, 1, 0, 0, 0, 0))
        return sweeps(lambda X: counts.append((0, 0, 0, 0, 1, 0, 0, 0)) or f(X), y, h, tol)

    def counted_recursion(systems, *rest, **kwargs):
        # one system gives one FormalSolution, a stack a list of them
        series = recursion(systems, *rest, **kwargs)
        built = 1 if isinstance(series, formal.FormalSolution) else len(series)
        counts.append((0, 0, 0, 0, 0, 1, built, 0))
        return series

    def counted_svd(a, *args, **kwargs):
        # numpy's own callers of svd, and the library's others, go uncounted
        if sys._getframe(1).f_code is truncations:
            counts.append((0, 0, 0, 0, 0, 0, 0, len(a)))
        return svd(a, *args, **kwargs)

    odeengine._schedule, odeengine.transport_matrix = counted, counted_transport
    isoflow._sweeps = counted_sweeps
    np.linalg.svd = counted_svd
    for mod in callers:
        mod.compute_formal_coefficients = counted_recursion
    try:
        yield counts
    finally:
        odeengine._schedule, odeengine.transport_matrix = schedule, transport
        isoflow._sweeps = sweeps
        np.linalg.svd = svd
        for mod in callers:
            mod.compute_formal_coefficients = recursion


def digest(results) -> str:
    h = hashlib.sha256()
    for code, out, err in results:
        h.update(f"{code}\0{out}\0{err}\0".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workload", nargs="+", choices=sorted(workloads.WORKLOADS),
                   default=sorted(workloads.WORKLOADS))
    p.add_argument("--ops", type=int, default=POOL)
    p.add_argument("--steps", action="store_true",
                   help="append each op's Taylor steps, stepped legs, backward arcs, "
                        "collocation steps, Picard sweeps, formal recursion calls, formal "
                        "series and series terms taken by SVD, and their means per op of "
                        "each workload")
    args = p.parse_args(argv)
    escaped = 0
    with counted_steps() as counts:
        for name in args.workload:
            total, steps = hashlib.sha256(), []
            for seed in args.seeds:
                for k, results in enumerate(op_outputs(name, seed, args.ops)):
                    line = digest(results)
                    total.update(line.encode())
                    codes = ",".join(str(code) for code, _, _ in results)
                    escaped += sum(code is None for code, _, _ in results)
                    steps.append([sum(c[i] for c in counts) for i in range(8)])
                    counts.clear()
                    tail = "".join(f" {x}" for x in steps[-1]) if args.steps else ""
                    print(f"{name} {seed} {k} {codes} {line}{tail}", flush=True)
            mean = np.mean(steps, axis=0) if args.steps and steps else ()
            tail = "".join(f" {x:.1f}" for x in mean)
            print(f"{name} all {total.hexdigest()}{tail}", flush=True)
    if escaped:
        print(f"{escaped} call(s) raised out of cli.main", file=sys.stderr)
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
