"""Seeded inputs, CLI flags and verdict checks of the benchmark workloads.

Numpy only: generating inputs must not depend on the code under test.  Every
workload's first op is a fixed acceptance case (the correctness gate); the
ops after it are drawn from ``numpy.random.default_rng(seed)`` at unit scale
and obey only the documented preconditions of their command.  Inputs are
never filtered on a verdict, so known defects show up as FAIL verdicts.

One op is one CLI verdict, except in ``flows``, where one op is a ``flow``
call followed by a ``schlesinger`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAU = 0.3
# the pinned acceptance thresholds every residual is judged against
DRIFT_THRESHOLD = 1e-6
# residuals are floored here before taking log10(threshold / residual)
RESIDUAL_FLOOR = 1e-16

# acceptance-suite inputs (tests/test_acceptance.py)
GENERIC_A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
U_START = np.array([0.0, 1.0], dtype=complex)
U_END = np.array([0.3 + 0.2j, 1.2], dtype=complex)
CRIT7_A0 = np.array(
    [[0.10, 0.00, 0.06], [0.00, 0.10, 0.09], [0.075, -0.05, 0.45]], dtype=complex
)
CRIT7_UC = np.array([0.0, 0.0, 1.0], dtype=complex)


def _crit4_system():
    rng = np.random.default_rng(104)
    poles = np.array([0.0, 1.0, 2.0], dtype=complex)
    residues = [
        rng.normal(size=(2, 2)) * 0.5 + 0.5j * rng.normal(size=(2, 2)) for _ in range(2)
    ]
    residues.append(-sum(residues))
    delta = np.array([0.2j, -0.2, 0.3])
    delta = 0.5 * delta / np.linalg.norm(delta)
    return poles, residues, [poles, poles + 0.5 * delta, poles + delta]


# ---------------------------------------------------------------- JSON docs


def _cvec(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def _cmat(M):
    return [_cvec(row) for row in np.asarray(M, dtype=complex)]


def irregular_doc(u, A):
    return {"n": len(u), "u": _cvec(u), "A": _cmat(A)}


def fuchsian_doc(poles, residues):
    return {"fuchsian": {"poles": _cvec(poles), "residues": [_cmat(R) for R in residues]}}


def path_doc(waypoints):
    return {"waypoints": [_cvec(w) for w in waypoints]}


# ------------------------------------------------------- geometry helpers


def _pair_diffs(u):
    i, j = np.triu_indices(len(u), 1)
    return u[i] - u[j]


def _segment_min_gap(a, b):
    """Exact minimum pair gap along the straight segment a -> b.

    Each difference is affine in t, so its minimum modulus is the distance
    from 0 to a segment of the complex plane.
    """
    d0, d1 = _pair_diffs(a), _pair_diffs(b)
    e = d1 - d0
    t = np.clip(-np.real(np.conj(e) * d0) / np.maximum(np.abs(e) ** 2, 1e-300), 0, 1)
    return float(np.min(np.abs(d0 + t * e)))


def _path_min_gap(waypoints):
    return min(_segment_min_gap(a, b) for a, b in zip(waypoints[:-1], waypoints[1:]))


def _wall_margin(u, tau):
    """Angular distance (mod pi) of every arg(u_i - u_j) from the X(tau) wall."""
    target = 1.5 * math.pi - tau
    d = np.mod(np.angle(_pair_diffs(u)) - target, math.pi)
    return float(np.min(np.minimum(d, math.pi - d)))


def _same_cell(a, b, tau):
    """Closed-form in-cell test for the straight segment a -> b.

    Im(e^{-i phi} d(t)) is affine in t, so a difference crosses the X(tau)
    wall (phi = 3 pi/2 - tau) iff that imaginary part changes sign between
    the endpoints.
    """
    rot = np.exp(-1j * (1.5 * math.pi - tau))
    s0 = np.imag(rot * _pair_diffs(a))
    s1 = np.imag(rot * _pair_diffs(b))
    return bool(np.all(s0 * s1 > 0))


def _unit_points(rng, count, min_gap, radius=1.0):
    """`count` points of the disc |u| < radius, pairwise at least min_gap apart.

    Candidates are drawn in batches so that set-up time hardly depends on
    how many are rejected.
    """
    i, j = np.triu_indices(count, 1)
    while True:
        r = radius * np.sqrt(rng.uniform(0, 1, (256, count)))
        u = r * np.exp(2j * np.pi * rng.uniform(0, 1, (256, count)))
        ok = np.min(np.abs(u[:, i] - u[:, j]), axis=1) >= min_gap
        if ok.any():
            return u[np.argmax(ok)]


def _cnormal(rng, shape, scale):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _walk(rng, start, steps, step, min_gap):
    """Random unit-scale path from `start` keeping every pair gap >= min_gap."""
    while True:
        pts = [start]
        for _ in range(steps):
            pts.append(pts[-1] + _cnormal(rng, len(start), step / math.sqrt(2)))
        if _path_min_gap(pts) >= min_gap:
            return pts


# ------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Call:
    """One CLI invocation of an op: its command, flags and input documents."""

    command: str
    flags: tuple[str, ...]
    system: dict
    path: dict | None = None


STRONG_FLAGS = ("--tau", str(TAU), "--tol", "1e-11", "--order", "30")
COALESCENCE_FLAGS = ("--tau", str(TAU), "--eps", "0.1", "--tol", "1e-11", "--order", "30")
MONODROMY_FLAGS = ("--monodromy", "--tol", "1e-12")


def strong_irregular(rng, k):
    """verify-strong: GENERIC_A first, then two n=2 draws per n=3 draw."""
    if k == 0:
        return [Call("verify-strong", STRONG_FLAGS, irregular_doc(U_START, GENERIC_A),
                     path_doc([U_START, U_END]))]
    n = 3 if k % 3 == 0 else 2
    while True:
        u0 = _unit_points(rng, n, 0.6, radius=0.6)
        u1 = u0 + _cnormal(rng, n, 0.1)
        if (
            _segment_min_gap(u0, u1) >= 0.5
            and _wall_margin(u0, TAU) >= 0.1
            and _wall_margin(u1, TAU) >= 0.1
            and _same_cell(u0, u1, TAU)
        ):
            break
    A = _cnormal(rng, (n, n), 0.2)
    return [Call("verify-strong", STRONG_FLAGS, irregular_doc(u0, A), path_doc([u0, u1]))]


def _sub_class_margin(uC, tau):
    """Admissibility margin of tau at uC over the non-coalescing pairs."""
    d = _pair_diffs(uC)
    d = d[np.abs(d) > 0]
    rays = np.mod(1.5 * math.pi - np.angle(d), math.pi)
    dist = np.mod(rays - tau, math.pi)
    return float(np.min(np.minimum(dist, math.pi - dist)))


def coalescence(rng, k):
    """verify-coalescence: criterion 7 first, then seeded 3x3 A0 keeping the
    (0, 1) vanishing pattern and a non-resonant pair diagonal."""
    if k == 0:
        return [Call("verify-coalescence", COALESCENCE_FLAGS, irregular_doc(CRIT7_UC, CRIT7_A0))]
    while True:
        scale = rng.uniform(0.8, 1.25)
        angle = rng.uniform(-0.6, 0.6)
        uC = np.array([0.0, 0.0, scale * np.exp(1j * angle)])
        phi = 1.5 * math.pi - TAU
        bound = abs((uC[2] * np.exp(-1j * phi)).imag)  # parallel-line bound
        if bound >= 0.3 and _sub_class_margin(uC, TAU) >= 0.2:
            break
    A0 = _cnormal(rng, (3, 3), 0.05)
    A0[0, 1] = A0[1, 0] = 0.0
    A0[0, 0] = 0.10 + _cnormal(rng, (), 0.03)
    A0[1, 1] = 0.10 + _cnormal(rng, (), 0.03)  # |a00 - a11| << 1: non-resonant
    A0[2, 2] = 0.45 + _cnormal(rng, (), 0.05)
    return [Call("verify-coalescence", COALESCENCE_FLAGS, irregular_doc(uC, A0))]


def _ordered_poles(poles):
    """Poles sorted by decreasing arg as seen from the CLI's default basepoint
    (below the configuration), the loop-basis order of criterion 4."""
    mean = poles.mean()
    dev = np.max(np.abs(poles - mean))
    z0 = complex(mean.real, poles.imag.min() - 2.0 * (abs(mean) + dev + 1.0))
    return poles[np.argsort(-np.angle(poles - z0))]


def _angular_order_kept(waypoints):
    """True when the end poles keep the index order seen from their basepoint."""
    end = waypoints[-1]
    return bool(np.all(_ordered_poles(end) == end))


def fuchsian_monodromy(rng, k):
    """schlesinger --monodromy: criterion 4 first, then N in {3, 4}, n = 2,
    a pole path of length 0.5, angularly ordered poles at both ends."""
    if k == 0:
        poles, residues, path = _crit4_system()
        return [Call("schlesinger", MONODROMY_FLAGS, fuchsian_doc(poles, residues),
                     path_doc(path))]
    N = 3 + k % 2
    while True:
        poles = _ordered_poles(_unit_points(rng, N, 0.7))
        delta = _cnormal(rng, N, 1.0)
        delta = 0.5 * delta / np.linalg.norm(delta)
        path = [poles, poles + 0.5 * delta, poles + delta]
        if _path_min_gap(path) >= 0.4 and _angular_order_kept(path):
            break
    residues = [_cnormal(rng, (2, 2), 0.5) for _ in range(N - 1)]
    residues.append(-sum(residues))
    return [Call("schlesinger", MONODROMY_FLAGS, fuchsian_doc(poles, residues),
                 path_doc(path))]


def flows(rng, k):
    """flow (n in {3, 4}, 8 waypoints) then schlesinger (N = 4, n = 3,
    8 waypoints); criterion 5's flow and criterion 4's pole path first."""
    if k == 0:
        poles, residues, path = _crit4_system()
        return [
            Call("flow", ("--tol", "1e-11"), irregular_doc(U_START, GENERIC_A),
                 path_doc([U_START, U_END])),
            Call("schlesinger", ("--tol", "1e-11"), fuchsian_doc(poles, residues),
                 path_doc(path)),
        ]
    n = 3 + k % 2
    u = _walk(rng, _unit_points(rng, n, 0.7), 7, 0.15, 0.4)
    A = _cnormal(rng, (n, n), 0.4)
    poles = _walk(rng, _unit_points(rng, 4, 0.7), 7, 0.15, 0.4)
    residues = [_cnormal(rng, (3, 3), 0.3) for _ in range(3)]
    residues.append(-sum(residues))
    return [
        Call("flow", ("--tol", "1e-11"), irregular_doc(u[0], A), path_doc(u)),
        Call("schlesinger", ("--tol", "1e-11"), fuchsian_doc(poles[0], residues),
             path_doc(poles)),
    ]


WORKLOADS = {
    "strong-irregular": strong_irregular,
    "coalescence": coalescence,
    "fuchsian-monodromy": fuchsian_monodromy,
    "flows": flows,
}


# -------------------------------------------------------- verdict checks


def residuals(command, report):
    """(residual, threshold) pairs of the acceptance checks in a report."""
    t = DRIFT_THRESHOLD
    if command == "verify-strong":
        d = report["drift"]
        vals = [d[k] for k in ("S_r", "S_r1", "C_r", "B", "L_spectrum")]
        return [(v, t) for v in vals + list(report["relations"].values())]
    if command == "verify-coalescence":
        thr = report["thresholds"]
        return [(report["limit_errors"][-1], thr["limit"]),
                (report["pattern_magnitude"], thr["pattern"])]
    if command == "flow":
        return [(report["diag_drift"], t), (report["spectrum_drift"], t)]
    if command == "schlesinger":
        out = [(report["spectrum_drift"], t)]
        if "monodromy_drift" in report:
            out.append((report["monodromy_drift"], t))
        return out
    raise ValueError(f"unknown command {command}")


def headroom(command, report):
    """Decades between the worst acceptance residual and its threshold."""
    return min(
        math.log10(thr / max(float(res), RESIDUAL_FLOOR))
        for res, thr in residuals(command, report)
    )


def expected_verdict(command, report):
    """The verdict the report's own numbers imply, recomputed independently."""
    if command == "verify-coalescence":
        thr = report["thresholds"]
        drv = report["driven_limit_errors"]
        monotone = all(
            b <= max(1.5 * a, 0.01 * thr["limit"]) for a, b in zip(drv[:-1], drv[1:])
        )
        return (
            all(f["passed"] for f in report["entry_fits"].values())
            and report["limit_errors"][-1] <= thr["limit"]
            and monotone
            and report["pattern_magnitude"] <= thr["pattern"]
        )
    ok = all(res <= thr for res, thr in residuals(command, report))
    if command == "verify-strong":
        ok = ok and report["drift"]["D"] == 0.0
    return ok


def check_report(call, report, exit_code):
    """Problems with one call's output; an empty list means it is consistent."""
    problems = []
    if report.get("command") != call.command:
        problems.append(f"report command {report.get('command')!r}")
    verdict = report.get("verdict")
    if verdict not in ("PASS", "FAIL"):
        return problems + [f"verdict {verdict!r}"]
    if (verdict == "PASS") != expected_verdict(call.command, report):
        problems.append(f"verdict {verdict} disagrees with the reported residuals")
    if exit_code != (0 if verdict == "PASS" else 2):
        problems.append(f"exit code {exit_code} for verdict {verdict}")
    if call.path is not None:
        end = {
            "verify-strong": lambda r: r["samples"][-1],
            "flow": lambda r: r["u_final"],
            "schlesinger": lambda r: r["poles_final"],
        }[call.command](report)
        if not np.allclose(end, call.path["waypoints"][-1], rtol=0, atol=1e-12):
            problems.append("final point differs from the last waypoint")
    return problems


def gate_ok(record):
    """The fixed first op must PASS every call with residuals under threshold."""
    return (
        all(c == 0 for c in record["codes"])
        and all(v == "PASS" for v in record["verdicts"])
        and not record["problems"]
        and record["headroom"] is not None
        and record["headroom"] > 0
    )
