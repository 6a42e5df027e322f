"""Command-line front end.

Each subcommand maps onto one laboratory pipeline and prints a single JSON
report on stdout; `--csv DIR` (stokes-rays, cells, verify-coalescence)
additionally writes plot tables.  Exit codes: 0 for success / PASS, 2 for a
FAIL verdict or an argparse usage error, 1 for malformed input or a violated
precondition (the diagnostic is printed on stderr).

Tolerances are flags with documented defaults, each offered only by the
subcommands that read it: --tol 1e-10 (integration) and --mtol 1e-6 (matrix
comparisons), both finite and positive like --radius (stokes-matrix) and
--eps (verify-coalescence), and --order 10 (series truncation; 30 for
stokes-matrix and verify-*), at least 0.  --tau must be finite and
below 8192 in magnitude, where its ulp is still below the direction
tolerance geometry.DIRECTION_TOL, and so must the angle |tau| + (|r| + 2) pi
that the sectors of --r (stokes-matrix, verify-*) reach, which bounds |r|
near 2,600.  All of these are checked before any file is read.  Reports are
deterministic for equal input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import geometry, io
from .errors import IsomlabError
from .formal import check_resonances, compute_formal_coefficients
from .fuchsian import (
    fuchs_monodromy,
    integrate_schlesinger,
    kv_family,
    monodromy_plan,
    product_relation_residual,
    schlesinger_residual,
)
from .isoflow import integrate_flow
from .levelt import build_levelt_solution, compute_levelt_exponents, monodromy_exponential
from .odeengine import StokesConfig, run_plan, stokes_matrix
from .verify import (
    collect_data,
    data_drift,
    spectrum_spread,
    stokes_relation_check,
    verify_coalescence,
)

PASS, FAIL = "PASS", "FAIL"


def _emit(report: dict) -> None:
    """Print the report as strict JSON; a non-finite number is refused, so
    the few values that may be infinite go through `_finite` first."""
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError as exc:
        raise IsomlabError(f"report of {report.get('command')} holds a non-finite number") from exc
    sys.stdout.write(text + "\n")


def _finite(x: float) -> float | None:
    """x, or None (JSON null) where x is infinite: a fit slope under the
    zero-entry convention, or an error estimate or floor with no bound."""
    return None if math.isinf(x) else x


def _csv(args, report: dict, name: str, header, rows) -> None:
    """With --csv, write the table `name` into that directory and name it in
    the report."""
    if args.csv:
        os.makedirs(args.csv, exist_ok=True)
        report["csv"] = os.path.join(args.csv, name)
        io.write_csv(report["csv"], header, rows)


def _need_irregular(parts):
    if parts["irregular"] is None:
        raise IsomlabError("this subcommand needs an irregular system ('u' and 'A')")
    return parts["irregular"]


def _need_fuchsian(parts):
    if parts["fuchsian"] is None:
        raise IsomlabError("this subcommand needs a 'fuchsian' block")
    return parts["fuchsian"]


def cmd_formal(args) -> int:
    sys_ = _need_irregular(io.load_system(args.system))
    fs = compute_formal_coefficients(sys_, K=args.order)
    report = {
        "command": "formal",
        "order": args.order,
        "B": io.cvec_to_json(fs.b),
        "F": [io.cmat_to_json(F) for F in fs.F],
        "resonances": check_resonances(sys_.A, tol=args.mtol),
    }
    _emit(report)
    return 0


def cmd_stokes_rays(args) -> int:
    sys_ = _need_irregular(io.load_system(args.system))
    rays = geometry.stokes_ray_directions(sys_.u)
    report = {
        "command": "stokes-rays",
        "directions": [
            {"pair": [ray.i, ray.j], "theta": ray.theta} for ray in rays
        ],
    }
    _csv(args, report, "stokes_rays.csv", ["pair_i", "pair_j", "theta"],
         ((ray.i, ray.j, ray.theta) for ray in rays))
    _emit(report)
    return 0


def cmd_cells(args) -> int:
    sys_ = _need_irregular(io.load_system(args.system))
    points = [sys_.u]
    if args.path:
        points = list(io.load_upath(args.path).waypoints)
    if args.csv and len(points) != 2:
        raise IsomlabError(f"--csv needs a --path of two waypoints; got {len(points)} point(s)")
    reports = []
    for pt in points:
        rep = geometry.classify_point(pt, args.tau, tol=args.mtol)
        reports.append(
            {
                "u": io.cvec_to_json(rep.u),
                "in_delta": rep.in_delta,
                "in_crossing": rep.in_crossing,
                "min_pair_gap": rep.min_pair_gap,
                "delta_pairs": [list(p) for p in rep.delta_pairs],
                "crossing_pairs": [list(p) for p in rep.crossing_pairs],
            }
        )
    out = {"command": "cells", "tau": args.tau, "points": reports}
    if len(points) == 2:
        hits = geometry.wall_hits(points[0], points[1], args.tau, tol=args.mtol)
        out["same_cell"] = not hits
        _csv(args, out, "wall_hits.csv", ["sample_t", "wall_type"], hits)
    _emit(out)
    return 0


def cmd_levelt(args) -> int:
    sys_ = _need_irregular(io.load_system(args.system))
    ld = compute_levelt_exponents(sys_.A, tol=args.mtol)
    ld = build_levelt_solution(sys_.A, [sys_.Lambda], ld=ld, K=args.order)
    report = {
        "command": "levelt",
        "order": args.order,
        "D": [int(x) for x in ld.d],
        "Sigma": io.cvec_to_json(ld.sigma),
        "N": io.cmat_to_json(ld.N),
        "L": io.cmat_to_json(ld.L),
        "G": io.cmat_to_json(ld.G),
        "residual": ld.residual,
        "resonant_orders": list(ld.resonant_orders),
        "monodromy_exponential": io.cmat_to_json(monodromy_exponential(ld)),
    }
    _emit(report)
    return 0


def cmd_stokes_matrix(args) -> int:
    sys_ = _need_irregular(io.load_system(args.system))
    cfg = StokesConfig(tau=args.tau, radius=args.radius, tol=args.tol)
    res = stokes_matrix(sys_, args.r, cfg, compute_formal_coefficients(sys_, K=args.order))
    report = {
        "command": "stokes-matrix",
        "r": args.r,
        "tau": args.tau,
        "S": io.cmat_to_json(res.S),
        "zstar": [io.pair(res.zstar.z), res.zstar.arg],
        "diag_residual": res.diag_residual,
        "required_zero": [
            {"entry": list(pos), "magnitude": mag} for pos, mag in res.required_zero
        ],
        "error_estimate": _finite(res.error_estimate),
    }
    ok = res.diag_residual <= args.mtol and all(
        mag <= args.mtol for _, mag in res.required_zero
    )
    report["verdict"] = PASS if ok else FAIL
    _emit(report)
    return 0 if ok else 2


def cmd_flow(args) -> int:
    sys_ = _need_irregular(io.load_system(args.system))
    final, _ = integrate_flow(sys_, io.load_upath(args.path), tol=args.tol)
    diag_drift = float(np.max(np.abs(np.diag(final.A) - np.diag(sys_.A))))
    spec_drift = spectrum_spread([sys_.A, final.A])
    report = {
        "command": "flow",
        "A_final": io.cmat_to_json(final.A),
        "u_final": io.cvec_to_json(final.u),
        "diag_drift": diag_drift,
        "spectrum_drift": spec_drift,
    }
    ok = diag_drift <= args.mtol and spec_drift <= args.mtol
    report["verdict"] = PASS if ok else FAIL
    _emit(report)
    return 0 if ok else 2


def cmd_schlesinger(args) -> int:
    fsys = _need_fuchsian(io.load_system(args.system))
    path = io.load_upath(args.path)
    final, _ = integrate_schlesinger(fsys, path, tol=args.tol)
    spec_drift = max(spectrum_spread(pair) for pair in zip(fsys.residues, final.residues))
    report = {
        "command": "schlesinger",
        "poles_final": io.cvec_to_json(final.poles),
        "residues_final": [io.cmat_to_json(A) for A in final.residues],
        "spectrum_drift": spec_drift,
        "residue_sum": float(np.max(np.abs(sum(final.residues)))),
    }
    if args.monodromy:
        # both ends in one engine batch
        M0, M1 = run_plan(monodromy_plan([fsys, final]), args.tol)
        drift = max(float(np.max(np.abs(a - b))) for a, b in zip(M0, M1))
        report["monodromy_drift"] = drift
        # reported only: the loop basis is not yet ordered by angle, so the
        # basis-order product need not close
        report["product_relation_residual"] = [
            product_relation_residual(M0), product_relation_residual(M1)
        ]
        ok = spec_drift <= args.mtol and drift <= args.mtol
    else:
        ok = spec_drift <= args.mtol
    report["verdict"] = PASS if ok else FAIL
    _emit(report)
    return 0 if ok else 2


def cmd_kv_example(args) -> int:
    kv = kv_family(args.h, args.u)
    report = {
        "command": "kv-example",
        "u": io.pair(kv.u),
        "h_coeffs": io.cvec_to_json(np.array(kv.h_coeffs)),
        "poles": io.cvec_to_json(kv.system.poles),
        "residues": [io.cmat_to_json(A) for A in kv.system.residues],
        "C1": io.cmat_to_json(kv.C1),
    }
    ok = True
    if args.check:
        rng = np.random.default_rng(20180814)
        worst = 0.0
        count = 0
        while count < 20:
            z = complex(rng.uniform(-4, 6), rng.uniform(-4, 4))
            if min(abs(z - p) for p in kv.system.poles) < 0.3:
                continue
            count += 1
            h = 1e-6
            dY = (kv.Y(z + h) - kv.Y(z - h)) / (2 * h)
            worst = max(
                worst, float(np.max(np.abs(dY - kv.system.coefficient(z) @ kv.Y(z))))
            )
        mons = fuchs_monodromy(kv.system, tol=args.tol)
        mon_err = max(
            float(np.max(np.abs(M - np.eye(2)))) for M in mons
        )
        sch = schlesinger_residual(kv.residues_at, kv.system.poles)
        report["checks"] = {
            "ode_residual_fd": worst,
            "monodromy_identity_error": mon_err,
            "schlesinger_residual": sch,
            "schlesinger_residual_above_threshold": bool(sch > 1e-2),
        }
        ok = worst < 1e-4 and mon_err <= 1e-8 and sch > 1e-2
        report["verdict"] = PASS if ok else FAIL
    _emit(report)
    return 0 if ok else 2


def cmd_verify_strong(args) -> int:
    sys_ = _need_irregular(io.load_system(args.system))
    data = collect_data(
        sys_,
        list(io.load_upath(args.path).waypoints),
        r=args.r,
        tau=args.tau,
        tol=args.tol,
        order=args.order,
    )
    drift = data_drift(data)
    rel = stokes_relation_check(data[0])
    ok = (
        max(drift["S_r"], drift["S_r1"], drift["C_r"]) <= args.mtol
        and drift["B"] <= args.mtol
        and drift["L_spectrum"] <= args.mtol
        and drift["D"] == 0.0
        and max(rel.values()) <= args.mtol
    )
    report = {
        "command": "verify-strong",
        "r": args.r,
        "tau": args.tau,
        "samples": [io.cvec_to_json(d.u) for d in data],
        "drift": drift,
        "relations": rel,
        "S_r": io.cmat_to_json(data[0].S_r),
        "S_r1": io.cmat_to_json(data[0].S_r1),
        "C_r": io.cmat_to_json(data[0].C_r),
        "verdict": PASS if ok else FAIL,
    }
    _emit(report)
    return 0 if ok else 2


def cmd_verify_coalescence(args) -> int:
    sys_ = _need_irregular(io.load_system(args.system))
    rep = verify_coalescence(
        sys_.A,
        sys_.u,
        tau=args.tau,
        eps=args.eps,
        r=args.r,
        tol=args.tol,
        order=args.order,
    )
    report = {
        "command": "verify-coalescence",
        "uC": io.cvec_to_json(rep.uC),
        "direction": io.cvec_to_json(rep.direction),
        "gaps": [float(g) for g in rep.gaps],
        "pairs": [list(p) for p in rep.pairs],
        "S_frozen": io.cmat_to_json(rep.S_frozen),
        "limit_errors": [float(x) for x in rep.limit_errors],
        "entry_fits": {
            f"{i},{j}": {"slope": _finite(f.slope), "passed": f.passed}
            for (i, j), f in rep.entry_fits.items()
        },
        "driven_entry_slopes": {f"{i},{j}": _finite(f.slope)
                                for (i, j), f in rep.driven_fits.items()},
        "a_entry_slopes": {f"{i},{j}": _finite(f.slope) for (i, j), f in rep.a_fits.items()},
        "driven_limit_errors": [float(x) for x in rep.driven_limit_errors],
        "flow_vs_germ": rep.flow_vs_germ,
        "entry_floor": _finite(rep.entry_floor),
        "pattern_magnitude": rep.pattern_magnitude,
        "thresholds": rep.thresholds,
        "decay_ok": rep.decay_ok,
        "limit_ok": rep.limit_ok,
        "pattern_ok": rep.pattern_ok,
        "verdict": PASS if rep.verdict else FAIL,
    }
    _csv(args, report, "coalescence_entries.csv",
         ["pair_i", "pair_j", "seeding", "gap", "entry_magnitude"],
         ((i, j, seeding, g, m)
          for seeding, fits in (("self", rep.entry_fits), ("frozen", rep.driven_fits))
          for (i, j), fit in fits.items() for g, m in zip(rep.gaps, fit.magnitudes)))
    _emit(report)
    return 0 if rep.verdict else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isomlab",
        description="Numerical laboratory for isomonodromic deformations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    flags = {
        "tol": dict(type=float, default=1e-10, help="integration tolerance"),
        "mtol": dict(type=float, default=1e-6, help="matrix comparison tolerance"),
        "order": dict(type=int, default=10, help="series truncation order"),
        "tau": dict(type=float, required=True, help="admissible direction"),
        "csv": dict(default=None, help="directory for CSV tables"),
    }

    def common(sp, *names, system=True, path=False):
        """--system, --path and those of the flags above that sp reads."""
        if system:
            sp.add_argument("--system", required=True, help="system JSON file")
        if path:
            sp.add_argument("--path", required=True, help="u-path JSON file")
        for name in names:
            sp.add_argument(f"--{name}", **flags[name])

    sp = sub.add_parser("formal", help="formal solution coefficients")
    common(sp, "mtol", "order")
    sp.set_defaults(fn=cmd_formal)

    sp = sub.add_parser("stokes-rays", help="Stokes ray directions")
    common(sp, "csv")
    sp.set_defaults(fn=cmd_stokes_rays)

    sp = sub.add_parser("cells", help="wall membership / same-cell check")
    common(sp, "mtol", "csv", "tau")
    sp.add_argument("--path", default=None, help="optional u-path of points to classify")
    sp.set_defaults(fn=cmd_cells)

    sp = sub.add_parser("levelt", help="Levelt exponents and solution")
    common(sp, "mtol", "order")
    sp.set_defaults(fn=cmd_levelt)

    sp = sub.add_parser("stokes-matrix", help="Stokes matrix S_r")
    common(sp, "tol", "mtol", "order", "tau")
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--radius", type=float, default=20.0, help="seed radius")
    sp.set_defaults(fn=cmd_stokes_matrix, order=30)

    sp = sub.add_parser("flow", help="strong isomonodromy flow along a u-path")
    common(sp, "tol", "mtol", path=True)
    sp.set_defaults(fn=cmd_flow)

    sp = sub.add_parser("schlesinger", help="Schlesinger flow along a pole path")
    common(sp, "tol", "mtol", path=True)
    sp.add_argument("--monodromy", action="store_true", help="compare endpoint monodromy")
    sp.set_defaults(fn=cmd_schlesinger)

    sp = sub.add_parser("kv-example", help="the explicit non-Schlesinger family")
    common(sp, "tol", system=False)
    sp.add_argument("--h", type=float, nargs="+", default=[1.0],
                    help="polynomial coefficients of h (constant first)")
    sp.add_argument("--u", type=float, default=0.5)
    sp.add_argument("--check", action="store_true")
    sp.set_defaults(fn=cmd_kv_example)

    sp = sub.add_parser("verify-strong", help="essential-data constancy along a flow")
    common(sp, "tol", "mtol", "order", "tau", path=True)
    sp.add_argument("--r", type=int, default=0)
    sp.set_defaults(fn=cmd_verify_strong, order=30)

    sp = sub.add_parser("verify-coalescence", help="coalescence-limit pipeline")
    common(sp, "tol", "order", "csv", "tau")
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--eps", type=float, required=True)
    sp.set_defaults(fn=cmd_verify_coalescence, order=30)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call (parsing leaves it as
    it is, so every call can share it)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    for flag in ("tol", "mtol", "radius", "eps"):
        if not (math.isfinite(value := getattr(args, flag, 1.0)) and value > 0):
            print(f"error: --{flag} must be finite and positive, got {value}", file=sys.stderr)
            return 1
    if not math.isfinite(tau := getattr(args, "tau", 0.0)):
        print(f"error: --tau must be finite, got {tau}", file=sys.stderr)
        return 1
    if math.ulp(tau) > geometry.DIRECTION_TOL:
        print(f"error: --tau {tau} is too large: its ulp {math.ulp(tau):.3g} exceeds the "
              f"direction tolerance {geometry.DIRECTION_TOL:g}", file=sys.stderr)
        return 1
    if hasattr(args, "r"):
        # sectors r and r + 1 reach |tau| + (|r| + 2) pi; past 2**53 the
        # verdict is the same, and the product stays a float
        reach = abs(tau) + (min(abs(args.r), 2**53) + 2) * math.pi
        if math.ulp(reach) > geometry.DIRECTION_TOL:
            print(f"error: --r {args.r} is too large: the sector angles reach {reach:.6g}, "
                  f"whose ulp {math.ulp(reach):.3g} exceeds the direction tolerance "
                  f"{geometry.DIRECTION_TOL:g}", file=sys.stderr)
            return 1
    if getattr(args, "order", 0) < 0:
        print(f"error: --order must be at least 0, got {args.order}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except (IsomlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
