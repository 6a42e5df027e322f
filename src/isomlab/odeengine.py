"""High-accuracy transport of fundamental solutions in the punctured z-plane.

Paths are sequences of `Leg`s (lines and arcs) on the universal cover: a
`PathPoint` carries z with a continuous argument, which `integrate_path`
moves by each leg's turn (an arc's sweep, a line's angle(b / a)), so no
implicit principal branch is used anywhere.

Every z-plane transport, irregular or Fuchsian, runs through one engine,
`transport_matrix`, for a linear ODE with polynomial coefficients

    P(z) Y' = Q(z) Y,        P scalar, Q an n x n matrix polynomial

(D-finite analytic continuation: van der Hoeven, TCS 210 (1999); Mezzarobba,
arXiv:1607.01967).  At every step P and Q are re-expanded about the current
point z0, and the Taylor coefficients of Y(z0 + h) = sum_k Y_k h^k follow
from the recurrence

    sum_i P_i (k + 1 - i) Y_{k+1-i} = sum_i Q_i Y_{k-i};

for dY/dz = (Lambda + A/z) Y, where P = z, it is the two-term recurrence
Y_{k+1} = ((z0 Lambda + A - k) Y_k + Lambda Y_{k-1}) / (z0 (k + 1)).

Step rule: steps are chords along the path's lines and arcs with
|h| <= STEP_RADIUS dist(z0, zeros of P), so the series converges at least
like STEP_RADIUS^k, and |h| ||Lambda|| <= STEP_GROWTH, so the exponential
part of a step stays O(1).  The steps depend on the geometry alone (z0, the
zeros of P and the growth of Q/P), so they are laid out before any series
is summed.  A path that runs into a zero of P drives the step below
STEP_FLOOR times max(|z0|, segment length); the engine then raises
IntegrationError naming the transport, the segment and the singular point.

Lockstep batches: `transport_matrix` takes one transport or a list of them.
The unit of work is the distinct leg: ODEs are keyed by their coefficients
and legs by value, and each distinct (ODE, leg) pair is stepped and summed
once, however many transports run it.  The steps of all distinct legs are
laid out together, one step index at a time, and summed at once: each step
is one member of a single term loop, its transfer matrix T_s (the value at
the end of the step of the solution that is I at its start), seeded with
c_0 = I.  Coefficients are padded to a common dimension and degree; the
local P, Q and the recurrence of all members are built at once, and every
term is one batched product over the window of the last terms, shared by
the n columns of a member.  The members are summed in chunks of STEP_CHUNK
steps, so that the arrays of the term loop do not grow with the number of
steps (only the transfer matrices do, 16 n^2 bytes a step).  The steps of
each leg are multiplied into its matrix, one step index at a time, and each
transport is carried through the matrices of its legs, Y <- L Y.

Stop rule: the loop over a chunk ends once every member has had two
consecutive terms with ||c_k||_F <= TAIL_FRACTION * tol, which bounds
|c_k y| <= TAIL_FRACTION * tol * |y| for every column y the step carries,
and every member sums every computed term, so a member that converged early
only gains accuracy.  The fraction keeps the error accumulated over the few
dozen steps of a path, and its amplification by the exponential regrading
of Stokes quotients, at or below what tol promises.  MAX_TERMS only bounds
a series that fails to converge; the term buffer holds 2m terms and moves
the window of the last m to its front when it is full.

Pipelines build `Plan`s, the (ode, Y0, legs) transports of a result and the
function that assembles it from their end values, and run all of them in
one batch: `sectorial_plan`, `stokes_plan` and `connection_plan` are the
plan steps of `actual_solution`, `stokes_matrix` and `connection_matrix`,
and `fuchsian.monodromy_plan` that of `fuchs_monodromy`.
The plans of one pipeline share a memo dict, so that sector frames, seed
directions, truncation orders, seed columns and column ODEs are computed
once each, and the engine finds the legs they have in common.

The Wronskian identity

    det Y(z) = det Y(z0) * exp((z - z0) tr Lambda) * (z/z0)^{tr A}

is monitored by integrate_path and its drift reported with the result.

Sectorial solutions Y_r are seeded with the optimally truncated formal
series on the mid-half-plane direction of S_r and carried to the requested
point; Stokes matrices are extracted in the F-gauge

    S_r = E(z*)^{-1} (Fhat_r^{-1} Fhat_{r+1}) E(z*),   E(z) = z^B e^{z Lambda},

so that no exponentially graded matrix is ever inverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from itertools import accumulate
from typing import Any, Callable

import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401  unused; perfbench/layertrace.py rebinds it

from .errors import IntegrationError, SectorError
from .formal import (
    FormalSolution,
    IrregularSystem,
    compute_formal_coefficients,
    optimal_truncation,
)
from .geometry import SectorFrame, sector_bounds
from .levelt import LeveltData, eval_levelt

DEFAULT_TOL = 1e-11
DEFAULT_SEED_RADIUS = 20.0
# step rule of the Taylor engine (see the module docstring)
STEP_RADIUS = 0.25
STEP_GROWTH = 2.0
STEP_FLOOR = 1e-9
TAIL_FRACTION = 1e-2
MAX_TERMS = 200
STEP_CHUNK = 512  # steps summed together (bounds the term loop's arrays)


def _polar(radius: float, arg: float) -> complex:
    return radius * complex(math.cos(arg), math.sin(arg))


@dataclass(frozen=True)
class PathPoint:
    """A point of the universal cover: z together with a continuous arg."""

    z: complex
    arg: float

    def __post_init__(self):
        z = complex(self.z)
        if z == 0:
            raise ValueError("path points must avoid the origin")
        expected = math.atan2(z.imag, z.real)
        if abs(math.remainder(self.arg - expected, 2 * math.pi)) > 1e-9:
            raise ValueError(
                f"arg {self.arg:.6g} is not a lift of arg({z:.6g}) = {expected:.6g}"
            )
        object.__setattr__(self, "z", z)

    @property
    def radius(self) -> float:
        return abs(self.z)

    @staticmethod
    def from_polar(radius: float, arg: float) -> "PathPoint":
        if radius <= 0:
            raise ValueError("radius must be positive")
        return PathPoint(z=_polar(radius, arg), arg=arg)


@dataclass(frozen=True)
class SolutionHandle:
    """A fundamental-matrix value anchored at a point of the cover."""

    system: IrregularSystem
    point: PathPoint
    value: np.ndarray
    seed_error: float = 0.0
    wronskian_drift: float = 0.0

    def __post_init__(self):
        V = np.asarray(self.value, dtype=complex)
        if V.shape != (self.system.n, self.system.n):
            raise ValueError("value shape does not match the system dimension")
        sign, logdet = np.linalg.slogdet(V)
        if sign == 0 or not np.isfinite(logdet):
            raise ValueError("fundamental matrix must be invertible")
        object.__setattr__(self, "value", V)


@dataclass(frozen=True)
class Leg:
    """The straight line from a to b or, with a `center`, the arc about it
    from a to b turning by `sweep` radians.  The engine steps along it by
    chords, so the region between a leg and its chords must be regular."""

    a: complex
    b: complex
    center: complex | None = None
    sweep: float = 0.0

    @property
    def length(self) -> float:
        if self.center is None:
            return abs(self.b - self.a)
        return abs(self.a - self.center) * abs(self.sweep)

    def __str__(self) -> str:
        if self.center is None:
            return f"line {self.a:.6g} -> {self.b:.6g}"
        return f"arc {self.a:.6g} -> {self.b:.6g} about {self.center:.6g}"


@dataclass(frozen=True)
class LinearODE:
    """P(z) Y' = Q(z) Y with scalar P and n x n matrix polynomial Q.

    `P` (d + 1,) and `Q` (d + 1, n, n) hold coefficients in ascending powers
    of z - center, padded to one degree d; `roots` are the zeros of P, the
    only singular points.  `growth` bounds ||Q/P|| at infinity.
    """

    center: complex
    P: np.ndarray
    Q: np.ndarray
    roots: np.ndarray

    @property
    def growth(self) -> float:
        top = abs(self.P[-1])
        return float(np.abs(self.Q[-1]).sum(axis=1).max()) / top if top else 0.0



@lru_cache(maxsize=None)
def _shift_tables(m: int):
    """binom[i, j] = C(j, i) for j >= i (else 0) and idx[i, j] = max(j - i, 0):
    the Taylor shift of degree m - 1 is T = binom * x0 ** idx."""
    i, j = np.indices((m, m))
    binom = np.array(
        [[math.comb(c, r) for c in range(m)] for r in range(m)], dtype=float
    )
    return binom, np.maximum(j - i, 0)


def irregular_ode(sys: IrregularSystem, shift_u: complex = 0.0,
                  shift_b: complex = 0.0) -> LinearODE:
    """z^p Y' = (z^p (Lambda - shift_u) + z^{p-1} (A - shift_b)
    + sum_m z^{p-m} A_m) Y, p = 1 + number of higher poles.

    The shifts give the scalar gauge y e^{-shift_u z} z^{-shift_b} of one
    column."""
    p = 1 + len(sys.higher)
    n = sys.n
    eye = np.eye(n, dtype=complex)
    Q = np.zeros((p + 1, n, n), dtype=complex)
    Q[p] = np.diag(sys.u) - shift_u * eye
    Q[p - 1] = sys.A - shift_b * eye
    for m, H in enumerate(sys.higher, start=2):
        Q[p - m] += H
    P = np.zeros(p + 1, dtype=complex)
    P[p] = 1.0
    return LinearODE(center=0j, P=P, Q=Q, roots=np.zeros(p, dtype=complex))


def fuchsian_ode(poles, residues) -> LinearODE:
    """prod_k (z - u_k) Y' = sum_i A_i prod_{k != i} (z - u_k) Y.

    The products are those of np.poly, bit for bit: multiplied out factor by
    factor in index order (the product without u_i continues that of the
    first i factors), and made real when their roots are closed under
    conjugation."""
    poles = np.asarray(poles, dtype=complex).reshape(-1)
    N = len(poles)
    n = residues[0].shape[0]
    center = complex(np.mean(poles))
    x = poles - center
    factors = np.stack([np.ones(N, dtype=complex), -x], axis=1)
    prefix = list(accumulate(factors, np.convolve, initial=np.ones(1, dtype=complex)))
    points = list(zip(x.real.tolist(), x.imag.tolist()))

    def real_if_closed(c, roots):
        closed = sorted(roots) == sorted((re, -im) for re, im in roots)
        return c.real.astype(complex) if closed else c

    Q = np.zeros((N + 1, n, n), dtype=complex)
    for i, Ai in enumerate(residues):
        c = reduce(np.convolve, factors[i + 1 :], prefix[i])
        Q[:N] += real_if_closed(c, points[:i] + points[i + 1 :])[::-1, None, None] * Ai
    return LinearODE(center=center, P=real_if_closed(prefix[N], points)[::-1], Q=Q,
                     roots=poles)


def transport_matrix(ode, Y0, legs, tol: float = DEFAULT_TOL):
    """Carry solutions of P Y' = Q Y along legs by Taylor steps.

    One transport: `ode` is a LinearODE, Y0 a full matrix or a single
    column and `legs` a sequence of Legs; the final value is returned.  A
    batch: `ode`, `Y0` and `legs` are equal-length sequences, one entry per
    transport (ODE, dimension, degree and path may differ between entries),
    and the list of final values is returned.  Either way each distinct
    (ODE, leg) pair is stepped and summed once, and the transports are
    chained through the matrices of their legs (module docstring).  `tol` is
    the relative accuracy asked of each transport.  Raises IntegrationError,
    naming the transport and its segment, when a leg runs into a singular
    point (before any series is summed) or a series fails to converge.
    """
    if isinstance(ode, LinearODE):
        return transport_matrix([ode], [Y0], [legs], tol)[0]
    if not ode:
        return []
    # the distinct ODEs, keyed by their coefficients, and the distinct
    # (ODE, leg) pairs, numbered in order of first use; `names` holds the
    # (transport, segment) of each pair's first use, `route` the pairs of
    # each transport in path order
    ode_index, odes = {}, []
    pair_index, pair_ode, pair_leg, names = {}, [], [], []
    route = np.full((len(ode), max(map(len, legs), default=0)), -1)
    for job, (o, path) in enumerate(zip(ode, legs)):
        k = ode_index.setdefault(
            (o.center, o.Q.shape, o.P.tobytes(), o.Q.tobytes(), o.roots.tobytes()), len(odes))
        if k == len(odes):
            odes.append(o)
        for seg, leg in enumerate(path):
            p = pair_index.setdefault((k, leg), len(names))
            if p == len(names):
                pair_ode.append(k)
                pair_leg.append(leg)
                names.append((job, seg))
            route[job, seg] = p
    z0, h, leg_of, starts = _schedule([odes[k] for k in pair_ode], pair_leg, names)
    ode_of = np.array(pair_ode, dtype=int)[leg_of]
    # coefficients of every ODE, padded to a common dimension and degree
    n = max(o.Q.shape[1] for o in odes)
    m = max(len(o.P) for o in odes)
    P = np.zeros((m, len(odes)), dtype=complex)
    Q = np.zeros((m, n, n, len(odes)), dtype=complex)
    for k, o in enumerate(odes):
        P[: len(o.P), k] = o.P
        Q[: len(o.P), : o.Q.shape[1], : o.Q.shape[1], k] = o.Q
    center = np.array([o.center for o in odes], dtype=complex)
    binom, idx = _shift_tables(m)
    powers = np.arange(m)[:, None]
    d = m - 1
    tol2 = (TAIL_FRACTION * tol) ** 2
    # transfer matrices of the steps, summed STEP_CHUNK steps at a time
    T = np.empty((len(z0), n, n), dtype=complex)
    for a in range(0, len(z0), STEP_CHUNK):
        sl = slice(a, a + STEP_CHUNK)
        members = ode_of[sl]
        B = len(members)
        M, slope = _step_matrix(P[:, members], Q[..., members], z0[sl] - center[members],
                                h[sl], binom, idx, powers)
        diag = _diagonal(M)
        diag0 = diag.copy()
        # the latest terms c_j, seeded with c_0 = I; when the buffer is full
        # the window of the last m terms moves to its front
        G = np.zeros((2 * m, n, n, B), dtype=complex)
        G[d] = np.eye(n)[..., None]
        total = G[d].copy()
        small = np.zeros(B, dtype=bool)  # the step's last term was small
        done = np.zeros(B, dtype=bool)  # two consecutive small terms seen
        j = 0  # buffer slot where the window starts
        for k in range(MAX_TERMS):
            if j + m == len(G):
                G[:m] = G[j:]
                j = 0
            np.add(diag0, k * slope[:, None], out=diag)
            c = G[j + m]
            np.einsum("iwb,wcb->icb", M, G[j : j + m].reshape(-1, n, B), out=c)
            c *= 1.0 / (k + 1)
            total += c
            j += 1
            tiny = _sum_squares(c) <= tol2
            done |= small & tiny
            small = tiny
            if np.count_nonzero(done) == B:
                break
        else:
            e = a + int(np.argmin(done))
            job, seg = names[leg_of[e]]
            raise IntegrationError(
                f"Taylor series of transport {job} did not converge on segment "
                f"{seg} ({pair_leg[leg_of[e]]}) at z = {z0[e]:.6g}"
            )
        T[sl] = total.transpose(2, 0, 1)
    # the matrix of each distinct leg, one step index at a time
    L = np.tile(np.eye(n, dtype=complex), (len(pair_leg), 1, 1))
    for a, b in zip(starts[:-1], starts[1:]):
        running = leg_of[a:b]
        L[running] = T[a:b] @ L[running]
    # the transports, one leg at a time
    values = [np.asarray(V, dtype=complex) for V in Y0]
    cols = [V.reshape(len(V), -1) for V in values]
    Y = np.zeros((len(ode), n, max(V.shape[1] for V in cols)), dtype=complex)
    for job, V in enumerate(cols):
        Y[job, : V.shape[0], : V.shape[1]] = V
    for seg in range(route.shape[1]):
        running = np.flatnonzero(route[:, seg] >= 0)
        Y[running] = L[route[running, seg]] @ Y[running]
    return [Y[job, : V.shape[0], : V.shape[1]].reshape(values[job].shape)
            for job, V in enumerate(cols)]


def _sum_squares(c):
    """|c|_F^2 of every member of c (n, n, B)."""
    v = c.reshape(-1, c.shape[-1])
    return (v.real**2 + v.imag**2).sum(axis=0)


def _schedule(ode, legs, job):
    """The Taylor steps of `legs` on `ode` (a LinearODE, or one per leg),
    laid out for all legs at once, one step index at a time.

    The steps depend on the geometry alone (step rule in the module
    docstring), so a leg into a singular point is refused up front;
    IntegrationError names it by `job`, its transport index, or by the
    (transport, segment) of each leg.  Returns the start points z0 and
    increments h of the steps, the leg index of each, ordered by step index
    and then by leg, and the offsets at which each step index begins.

    Every leg is z(t) = base + span e(t), 0 <= t <= 1, with e = t on a line
    and e = exp(i sweep t) on an arc.  The per-leg arrays hold the running
    legs only; they are compacted on the step indices where a leg ends or
    is refused.
    """
    if isinstance(ode, LinearODE):
        ode = [ode] * len(legs)
    if isinstance(job, int):
        job = [(job, seg) for seg in range(len(legs))]
    # the singular points and growth bound of each leg's ODE, padded with
    # points at infinity
    first = {}
    which = np.array([first.setdefault(id(o), len(first)) for o in ode], dtype=int)
    distinct = list({id(o): o for o in ode}.values())
    roots = np.full((len(distinct), max((len(o.roots) for o in distinct), default=0)),
                    np.inf, dtype=complex)
    for k, o in enumerate(distinct):
        roots[k, : len(o.roots)] = o.roots
    growth = np.array([o.growth for o in distinct])
    hgrow = np.full(len(distinct), np.inf)
    np.divide(STEP_GROWTH, growth, out=hgrow, where=growth > 0)
    roots, hgrow = roots[which], hgrow[which]
    a = np.array([leg.a for leg in legs], dtype=complex)
    b = np.array([leg.b for leg in legs], dtype=complex)
    arc = np.array([leg.center is not None for leg in legs], dtype=bool)
    base = np.where(arc, [0j if leg.center is None else leg.center for leg in legs], a)
    span = np.where(arc, a - base, b - a)
    isweep = 1j * np.array([leg.sweep for leg in legs], dtype=float)
    length = np.array([leg.length for leg in legs], dtype=float)
    live = np.arange(len(legs))
    t = np.zeros(len(legs))
    z = a
    refused = {}  # leg -> (singular point, its distance, z) where it stalls
    # steps by step index, after an empty first entry
    z0s, hs, legs_of = [np.zeros(0, dtype=complex)], [np.zeros(0, dtype=complex)], [live[:0]]
    while live.size:
        dist = np.abs(roots - z[:, None])
        gap = dist.min(axis=1)
        hmax = np.minimum(STEP_RADIUS * gap, hgrow)
        ok = hmax > STEP_FLOOR * np.maximum(np.abs(z), length)
        end = t * length + hmax >= length
        t = np.where(end, 1.0, t + hmax / np.where(end, 1.0, length))
        z1 = base + span * np.where(arc, np.exp(isweep * t), t)
        if not ok.all():  # refusals raise below, so this layout is never used
            for i in np.flatnonzero(~ok):
                refused[int(live[i])] = (roots[i, np.argmin(dist[i])], gap[i], z[i])
            end |= ~ok
        z1[end] = b[end]
        z0s.append(z)
        hs.append(z1 - z)
        legs_of.append(live)
        z = z1
        if end.any():
            keep = ~end
            live, roots, hgrow, length, b, arc, base, span, isweep, t, z = (
                x[keep] for x in (live, roots, hgrow, length, b, arc, base, span, isweep, t, z))
    if refused:
        k = min(refused)
        near, gap, z0 = refused[k]
        raise IntegrationError(
            f"transport {job[k][0]}, segment {job[k][1]} ({legs[k]}), runs into the "
            f"singular point {complex(near):.6g} (distance {gap:.3g} "
            f"at z = {complex(z0):.6g})"
        )
    starts = np.cumsum([len(s) for s in legs_of])
    return np.concatenate(z0s), np.concatenate(hs), np.concatenate(legs_of), starts


def _step_matrix(P, Q, x0, h, binom, idx, powers):
    """The recurrence of a chunk of steps, for all of them at once.

    P (m, B) and Q (m, n, n, B) hold the steps' coefficients about their
    centres, x0 (B,) the step starts relative to them and h (B,) the steps.
    With c_k = Y_k h^k and the local coefficients scaled to p_i h^i / p_0 and
    h q_i h^i / p_0, a term is

        (k + 1) c_{k+1} = sum_i q_i c_{k-i} - sum_{i>=1} p_i (k + 1 - i) c_{k+1-i},

    a sum over the window of the last m terms, in which slot s holds
    c_{k-d+s}.  Returns M (n, m n, B), with (k + 1) c_{k+1} = sum_w M[:, w]
    window[w] at k = 0, and the slope (m, B) by which the diagonal of each
    slot's block of M grows with k.
    """
    m, n, B = Q.shape[0], Q.shape[1], Q.shape[-1]
    shift = binom[..., None] * (x0 ** powers)[idx]  # Taylor shift to x0, (m, m, B)
    Pl = np.einsum("ijb,jb->ib", shift, P)
    Ql = np.einsum("ijb,jrcb->ircb", shift, Q)
    hp = h**powers / Pl[0]
    # slot s: q_{d-s} acts on c_{k-d+s}, and so does -p_{d+1-s} (k - d + s)
    # (p_{d+1} = 0)
    q = Ql[::-1] * (h * hp[::-1])[:, None, None]
    M = np.ascontiguousarray(q.transpose(1, 0, 2, 3)).reshape(n, m * n, B)
    slope = np.zeros((m, B), dtype=complex)
    slope[1:] = -(Pl * hp)[:0:-1]
    diag = _diagonal(M)
    diag += (slope * np.arange(1 - m, 1)[:, None])[:, None]
    return M, slope


def _diagonal(M):
    """The diagonals of the slot blocks of M (n, m n, B), a view (m, n, B)."""
    n, B = M.shape[0], M.shape[-1]
    return np.einsum("isib->sib", M.reshape(n, -1, n, B))


@dataclass(frozen=True)
class Plan:
    """Transports to run and what to make of their final values.

    `jobs` holds (ode, Y0, legs) triples for transport_matrix; `assemble`
    maps the list of their final values to the result.  Plans are built
    first and run together, so that a whole pipeline is one lockstep batch.
    """

    jobs: tuple
    assemble: Callable[[list], Any]


def join_plans(plans, combine: Callable[..., Any] = lambda *results: list(results)) -> Plan:
    """One plan running all of `plans`; its result is combine(*their results)."""
    plans = list(plans)

    def assemble(ends):
        results, b = [], 0
        for p in plans:
            results.append(p.assemble(ends[b : b + len(p.jobs)]))
            b += len(p.jobs)
        return combine(*results)

    return Plan(tuple(job for p in plans for job in p.jobs), assemble)


def run_plan(plan: Plan, tol: float = DEFAULT_TOL):
    """Run every transport of the plan in one transport_matrix batch."""
    return plan.assemble(transport_matrix(*zip(*plan.jobs), tol) if plan.jobs else [])


def integrate_path(
    sys: IrregularSystem, start: SolutionHandle, legs, tol: float = DEFAULT_TOL
) -> SolutionHandle:
    """Transport a solution handle along legs (lines, and arcs about 0) from
    its z, each leg starting where the previous one ends.

    The end point's arg is the handle's plus each leg's turn: an arc's
    sweep, a line's angle(b / a) (a chord that avoids 0 turns by less than
    pi).  The Wronskian drift |log det Y(end) - predicted| accumulates into
    the returned handle.
    """
    if not legs:
        return start
    s = start.point
    z, arg = s.z, s.arg
    for k, leg in enumerate(legs):
        if abs(leg.a - z) > 1e-9:
            raise ValueError("path does not start at the handle's basepoint" if k == 0
                             else f"leg {k} does not start where leg {k - 1} ends")
        if leg.center not in (None, 0):
            raise ValueError(f"leg {k} is an arc about {leg.center:.6g}, not about 0")
        arg += leg.sweep if leg.center is not None else float(np.angle(leg.b / leg.a))
        z = leg.b
    end = PathPoint(z, arg)
    Y = transport_matrix(irregular_ode(sys), start.value, legs, tol=tol)
    # Wronskian: d log det Y = (tr Lambda + tr A / z + sum_m tr A_m z^-m) dz
    trL = np.trace(sys.Lambda)
    trA = np.trace(sys.A)
    w0 = np.log(abs(s.z)) + 1j * s.arg
    w1 = np.log(abs(end.z)) + 1j * end.arg
    sg0, ld0 = np.linalg.slogdet(start.value)
    sg1, ld1 = np.linalg.slogdet(Y)
    predicted = ld0 + np.log(sg0) + trL * (end.z - s.z) + trA * (w1 - w0)
    for m, H in enumerate(sys.higher, start=2):
        predicted += np.trace(H) * (end.z ** (1 - m) - s.z ** (1 - m)) / (1 - m)
    actual = ld1 + np.log(sg1)
    drift = abs(np.exp(actual - predicted) - 1.0)
    return replace(
        start,
        point=end,
        value=Y,
        wronskian_drift=float(start.wronskian_drift + drift),
    )


@dataclass(frozen=True)
class StokesConfig:
    tau: float
    radius: float = DEFAULT_SEED_RADIUS
    tol: float = DEFAULT_TOL
    order: int = 30
    widened: bool = False
    uC: tuple | None = None


def _memoized(memo: dict, key: tuple, compute: Callable[[], Any]):
    """memo[key], computed by compute() the first time it is asked for."""
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _frame(memo: dict, sys, r, tau, widened, uC) -> SectorFrame:
    """The frame of sector r of sys with these settings, once per memo."""
    key = ("frame", sys.u.tobytes(), r, tau, widened,
           None if uC is None else np.asarray(uC, dtype=complex).tobytes())
    return _memoized(memo, key, lambda: sector_bounds(sys.u, tau, r, widened=widened, uC=uC))


def _seeds(memo: dict, sys, r, tau, radius, widened, uC):
    """The frame of sector r, the seed direction of every column in it and
    the Stokes leakage of seeds there at `radius`, once per memo."""
    frame = _frame(memo, sys, r, tau, widened, uC)

    def compute():
        angles, _ = _column_seed_directions(sys.u, frame)
        return angles, _leakage(sys.u, angles, radius)

    return (frame, *_memoized(memo, ("seeds", sys.u.tobytes(), frame, radius), compute))


def _column_seed_directions(u, frame: SectorFrame, grid: int = 720):
    """Per-column seed directions: the deepest recessive angle in the sector.

    For column j the contamination of the truncated-series seed by other
    solutions scales like exp(|z| Re(e^{i theta}(u_j - u_i))); picking theta
    where u_j is most recessive against every other exponential drives those
    admixtures below the truncation error.  Returns (angles, margins) where
    margin > 0 means genuinely recessive with that depth.
    """
    u = np.asarray(u, dtype=complex)
    pad = min(0.05, 0.1 * frame.opening)
    thetas = np.linspace(frame.lo + pad, frame.hi - pad, grid)
    diff = u[:, None] - u[None, :]  # u_j - u_i at [j, i]
    other = (diff != 0)[..., None]  # i != j and u_i != u_j
    d = -np.real(np.exp(1j * thetas) * diff[..., None])  # (n, n, grid)
    depth = np.where(other, d, np.inf).min(axis=1)
    depth[np.isinf(depth).all(axis=1)] = 0.0
    # tie-break flat plateaus (tightly coalescing pairs cap the min) in
    # favour of directions recessive against the remaining pairs too
    best = np.argmax(depth + 1e-3 * np.where(other, d, 0.0).sum(axis=1), axis=1)
    return thetas[best], depth[np.arange(len(u)), best]


def _leakage(u, angles, radius) -> float:
    """Largest admixture of another solution in the seeds at `angles`.

    A column seeded at recessive depth d against pair (i, j) can still pick
    up an admixture of that solution at the e^{-R d} level (the Stokes
    leakage of the sector boundary); with no recessive direction available
    (d <= 0) the admixture is order of the pair's Stokes activity, which
    near-coalescing pairs of vanishing-compatible families reduce with the
    separation.
    """
    diff = u[:, None] - u[None, :]  # u_j - u_i at [j, i]
    depth = -np.real(np.exp(1j * np.asarray(angles))[:, None] * diff)
    admixture = np.minimum(1.0, np.abs(diff)) * np.exp(-radius * np.maximum(depth, 0.0))
    return float(np.max(admixture[diff != 0], initial=0.0))


def sectorial_plan(
    sys: IrregularSystem,
    r: int,
    tau: float,
    radius: float = DEFAULT_SEED_RADIUS,
    zstar: PathPoint | None = None,
    fs: FormalSolution | None = None,
    order: int = 30,
    widened: bool = False,
    uC=None,
    coalesce_tol: float = 0.0,
    memo: dict | None = None,
) -> Plan:
    """The column transports of actual_solution, assembled into its handle.

    Each column runs a radial leg in from its seed, an argument sweep at
    moderate radius and a radial leg out to z*; `memo` as for stokes_plan.
    """
    memo = {} if memo is None else memo
    frame, angles, leakage = _seeds(memo, sys, r, tau, radius, widened, uC)
    if zstar is None:
        zstar = PathPoint.from_polar(radius, frame.midpoint)
    elif not frame.contains(zstar.arg):
        raise SectorError(
            f"zstar argument {zstar.arg:.6g} outside sector "
            f"({frame.lo:.6g}, {frame.hi:.6g})"
        )
    if fs is None:
        fs = compute_formal_coefficients(sys, K=order, coalesce_tol=coalesce_tol)
    F = np.asarray(fs.F, dtype=complex).reshape(-1, sys.n, sys.n)
    series = F.tobytes()
    k_opt, bound = _memoized(memo, ("truncation", series, radius),
                             lambda: optimal_truncation(fs, radius))
    powers = -np.arange(1.0, k_opt + 1)
    # argument sweeps at large |z| let the dominant exponential swamp the
    # recessive one inside the relative tail criterion; sweep at moderate radius
    rho_max = float(np.max(np.abs(sys.u[:, None] - sys.u[None, :])))
    rho_arc = min(zstar.radius, radius, max(0.5, 4.0 / max(rho_max, 1e-6)))
    out = _polar(rho_arc, zstar.arg)
    system = (sys.u.tobytes(), sys.A.tobytes(), tuple(H.tobytes() for H in sys.higher))
    jobs = []
    for j, theta in enumerate(angles):
        seed, turn = _polar(radius, theta), _polar(rho_arc, theta)
        legs = [Leg(seed, turn)] if rho_arc < radius else []
        legs.append(Leg(turn, out, center=0j, sweep=zstar.arg - theta))
        if abs(zstar.radius - rho_arc) > 1e-12:
            legs.append(Leg(out, zstar.z))
        # transport in the column's own scalar gauge y e^{-z u_j} z^{-b_j},
        # which stays O(1) along the whole path, so the relative tail
        # criterion is meaningful for exponentially small columns
        ode = _memoized(memo, ("ode", system, fs.u[j], fs.b[j]),
                        lambda: irregular_ode(sys, fs.u[j], fs.b[j]))
        # column j of the optimally truncated series I + sum_k F_k z^-k
        col = _memoized(memo, ("seed", series, seed, k_opt, j),
                        lambda: np.eye(sys.n)[j] + F[:k_opt, :, j].T @ seed**powers)
        jobs.append((ode, col, legs))
    w_star = np.log(zstar.radius) + 1j * zstar.arg
    gauge = np.exp(fs.u * zstar.z + fs.b * w_star)

    def assemble(cols):
        return SolutionHandle(
            system=sys,
            point=zstar,
            value=np.stack(cols, axis=1) * gauge,
            seed_error=float(bound + leakage),
        )

    return Plan(tuple(jobs), assemble)


def actual_solution(
    sys: IrregularSystem,
    r: int,
    tau: float,
    radius: float = DEFAULT_SEED_RADIUS,
    zstar: PathPoint | None = None,
    tol: float = DEFAULT_TOL,
    fs: FormalSolution | None = None,
    order: int = 30,
    widened: bool = False,
    uC=None,
    coalesce_tol: float = 0.0,
) -> SolutionHandle:
    """Sectorial solution Y_r assembled at `zstar` (default: sector midpoint
    at the seed radius).

    Each column is seeded with the optimally truncated formal series at
    |z| = radius on the direction inside S_r where its exponential is most
    recessive (there the seed's contamination by other solutions is below
    the truncation error) and transported to the common point.  The reported
    `seed_error` is the first-omitted-term bound, inflated by exp(R d) when
    some column is only recessive up to a defect d < 0.
    """
    return run_plan(
        sectorial_plan(sys, r, tau, radius=radius, zstar=zstar, fs=fs, order=order,
                       widened=widened, uC=uC, coalesce_tol=coalesce_tol),
        tol,
    )


@dataclass(frozen=True)
class StokesResult:
    """Stokes matrix S_r with its structure diagnostics.

    `required_zero` lists ((i, j), |entry|) for the positions forced to
    vanish by the triangular structure: Re(e^{i arg z*}(u_i - u_j)) > 0 in
    the sector overlap.  `error_estimate` combines seed bounds with the
    round-off amplification of the exponential regrading.
    """

    r: int
    S: np.ndarray
    zstar: PathPoint
    overlap: tuple[float, float]
    diag_residual: float
    required_zero: tuple[tuple[tuple[int, int], float], ...]
    error_estimate: float


def stokes_plan(sys: IrregularSystem, r: int, cfg: StokesConfig,
                fs: FormalSolution | None = None, memo: dict | None = None) -> Plan:
    """The transports of stokes_matrix, assembled into its StokesResult.

    `memo` holds what the plans of one pipeline share: sector frames, seed
    directions, truncation orders, seed columns and column ODEs, each keyed
    by what it depends on.  A plan takes what it needs from it and adds what
    it computes, so each is computed once per pipeline."""
    memo = {} if memo is None else memo
    frame_r, frame_r1 = (_frame(memo, sys, k, cfg.tau, cfg.widened, cfg.uC)
                         for k in (r, r + 1))
    lo, hi = frame_r1.lo, frame_r.hi
    if not hi - lo > 1e-9:
        raise SectorError(f"sectors {r} and {r + 1} do not overlap: ({lo}, {hi})")
    theta = 0.5 * (lo + hi)
    zstar = PathPoint.from_polar(cfg.radius / 2.0, theta)
    if fs is None:
        fs = compute_formal_coefficients(sys, K=cfg.order)
    sectorial = [
        sectorial_plan(sys, k, cfg.tau, radius=cfg.radius, zstar=zstar, fs=fs,
                       widened=cfg.widened, uC=cfg.uC, memo=memo)
        for k in (r, r + 1)
    ]

    def assemble(Yr, Yr1):
        n = sys.n
        w = np.log(zstar.radius) + 1j * zstar.arg
        grading = np.exp(fs.b * w + zstar.z * sys.u)  # E(z*) diagonal
        Fr = Yr.value / grading[None, :]
        Fr1 = Yr1.value / grading[None, :]
        try:
            W = np.linalg.solve(Fr, Fr1)
        except np.linalg.LinAlgError as exc:
            raise IntegrationError(
                f"conditioning failure at z* = {zstar.z:.6g}: {exc}"
            ) from exc
        ratio = grading[None, :] / grading[:, None]  # E_jj / E_ii
        S = W * ratio

        ed = complex(math.cos(theta), math.sin(theta))
        req = []
        for i in range(n):
            for j in range(n):
                if i != j and (ed * (sys.u[i] - sys.u[j])).real > 0:
                    req.append(((i, j), float(abs(S[i, j]))))
        diag_residual = float(np.max(np.abs(np.diag(S) - 1.0)))
        amp = float(np.max(np.abs(ratio)))
        # seed admixtures act as basis-coefficient perturbations, so they
        # enter the quotient scaled by the size of S itself; regrading only
        # amplifies round-off and integration noise
        s_scale = 1.0 + float(np.max(np.abs(S)))
        err = (Yr.seed_error + Yr1.seed_error) * s_scale + amp * (10 * cfg.tol + 1e-14)
        return StokesResult(
            r=r,
            S=S,
            zstar=zstar,
            overlap=(lo, hi),
            diag_residual=diag_residual,
            required_zero=tuple(req),
            error_estimate=float(err),
        )

    return join_plans(sectorial, assemble)


def stokes_matrix(sys: IrregularSystem, r: int, cfg: StokesConfig,
                  fs: FormalSolution | None = None) -> StokesResult:
    """S_r = Y_r(z*)^{-1} Y_{r+1}(z*) at the sector-overlap midpoint, |z*| = R/2.

    Both sectorial solutions are transported to the same point of the cover;
    the quotient is formed in the F-gauge and regraded entrywise, so required
    zeros are damped rather than amplified.
    """
    return run_plan(stokes_plan(sys, r, cfg, fs=fs), cfg.tol)


def levelt_handle(
    sys: IrregularSystem,
    ld: LeveltData,
    arg: float,
    radius: float | None = None,
) -> SolutionHandle:
    """Levelt solution evaluated near the origin on the requested branch.

    The Taylor factor converges on all of C for this system, but the
    truncated series is accurate only near 0; the default evaluation radius
    is 0.5 min |u_i| over nonzero entries, or 0.1 if Lambda has zero entries.
    """
    if radius is None:
        nz = np.abs(sys.u[np.abs(sys.u) > 0])
        radius = 0.1 if len(nz) < sys.n else 0.5 * float(nz.min())
    pt = PathPoint.from_polar(radius, arg)
    Y0 = eval_levelt(ld, pt.z, pt.arg)
    return SolutionHandle(system=sys, point=pt, value=Y0)


def connection_plan(
    sys: IrregularSystem,
    r: int,
    ld: LeveltData,
    tau: float,
    radius: float = DEFAULT_SEED_RADIUS,
    fs: FormalSolution | None = None,
    zstar: PathPoint | None = None,
    widened: bool = False,
    uC=None,
    memo: dict | None = None,
) -> Plan:
    """The transports of connection_matrix (the columns of Y_r and the
    radial Levelt leg), assembled into C_r; `memo` as for stokes_plan."""
    memo = {} if memo is None else memo
    frame = _frame(memo, sys, r, tau, widened, uC)
    if zstar is None:
        zstar = PathPoint.from_polar(radius / 2.0, frame.midpoint)
    elif not frame.contains(zstar.arg):
        raise SectorError("zstar outside the sector of Y_r")
    lev = levelt_handle(sys, ld, zstar.arg)
    return join_plans(
        [
            sectorial_plan(sys, r, tau, radius=radius, zstar=zstar, fs=fs,
                           widened=widened, uC=uC, memo=memo),
            Plan(((irregular_ode(sys), lev.value, [Leg(lev.point.z, zstar.z)]),),
                 lambda ends: ends[0]),
        ],
        lambda Yr, Ylev: np.linalg.solve(Ylev, Yr.value),
    )


def connection_matrix(
    sys: IrregularSystem,
    r: int,
    ld: LeveltData,
    tau: float,
    radius: float = DEFAULT_SEED_RADIUS,
    tol: float = DEFAULT_TOL,
    fs: FormalSolution | None = None,
    zstar: PathPoint | None = None,
    widened: bool = False,
    uC=None,
) -> np.ndarray:
    """C_r with Y_r = Y^{(0)} C_r, matched at a common point of the cover.

    The Levelt solution is evaluated at small radius on the branch of z* and
    transported outward radially; both factors therefore carry the same arg
    bookkeeping and the quotient is branch-consistent.
    """
    return run_plan(
        connection_plan(sys, r, ld, tau, radius=radius, fs=fs, zstar=zstar,
                        widened=widened, uC=uC),
        tol,
    )


def monodromy_loop(
    sys: IrregularSystem,
    start: SolutionHandle,
    winding: int = 1,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """M with Y(after loop) = Y(before) M for a loop of given winding around 0."""
    if winding == 0:
        return np.eye(sys.n, dtype=complex)
    z = start.point.z
    after = integrate_path(sys, start, [Leg(z, z, center=0j, sweep=2 * math.pi * winding)],
                           tol=tol)
    return np.linalg.solve(start.value, after.value)
