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

Lockstep batches: `transport_matrix` takes a batch of transports as
arrays: the ODEs, a leg table with one row per distinct (ODE, leg), the
route of each transport (its rows in path order, a row run backward
flagged) and the stack of start values; it returns the stack of end
values.  Each row is stepped and summed once, however many transports run
it, the rows in order of first use along the routes.  The steps of all rows
are laid out together, one step index at a time, and summed at once: each
step is one member of a single term loop, its transfer matrix T_s (the
value at the end of the step of the solution that is I at its start),
seeded with c_0 = I.  Coefficients are padded to a common dimension and
degree; the local P, Q and the recurrence of all members are built at once,
and every term is one batched product over the window of the last terms,
shared by the n columns of a member.  The oldest term of the window meets
Q's leading coefficient alone, which the Taylor shift keeps: zero for
`fuchsian_ode`, whose Q has degree N - 1 padded to N, and the diagonal
Lambda - c for `irregular_ode`.  When that coefficient has no off-diagonal
entry in any ODE of a batch, the product runs over the newer terms only and
a diagonal coefficient adds its share elementwise.  The members are summed
in chunks of STEP_CHUNK steps, so that the arrays of the term loop do not
grow with the number of steps (only the transfer matrices do, 16 n^2 bytes
a step).  The steps of each row are multiplied into its matrix L, one step
index at a time, and each transport is carried through the matrices of its
route, Y <- L Y; a row run backward chains L^{-1}, the transition matrix of
the reversed path, all such inverses of a batch from one np.linalg.inv.
Only the clockwise sweeps of sector plans run backward.

Stop rule: the loop over a chunk ends once every member has had two
consecutive terms with ||c_k||_F <= TAIL_FRACTION * tol, which bounds
|c_k y| <= TAIL_FRACTION * tol * |y| for every column y the step carries,
and every member sums every computed term, so a member that converged early
only gains accuracy.  The fraction keeps the error accumulated over the few
dozen steps of a path, and its amplification by the exponential regrading
of Stokes quotients, at or below what tol promises.  MAX_TERMS only bounds
a series that fails to converge; the term buffer holds 2m terms and moves
the window of the last m to its front when it is full.

Pipelines build `Plan`s, the engine's arrays for the transports of a result
and the function that assembles it from their end values, and run all of
them in one batch.  `sector_plan` plans a list of `SectorRequest`s (a
sectorial solution Y_r or a Stokes matrix S_r, with the connection matrix
C_r when the request carries Levelt data) under one `StokesConfig`;
`actual_solution` and `stokes_matrix` run it on one request, `collect_data`
and `verify_coalescence` on all of theirs, and `fuchsian.monodromy_plan` is
the plan of `fuchs_monodromy`.  The requests of one plan share one
`SectorTable`: sectors repeat with period 2 pi (Balser, Jurkat and Lutz,
SIAM J. Math. Anal. 12 (1981): Y_{r+2}(z) = Y_r(z e^{-2 pi i}) e^{2 pi i B}),
so all of it is found for sectors 0 and 1 of every system, each kind in one
array pass, and sector k is sector k mod 2 turned by 2 pi floor(k / 2), the
turn going into the args alone.  Every column of a system runs on the
system's one ODE, along a radial leg in to the circle of the argument
sweeps and the circle's arcs to z*; each arc is one row, stepped
counterclockwise, which a clockwise sweep runs backward.  Every z* lies on
that circle: S_r and C_r are the same at every z* of their overlap, and at
the small |z*| of the circle the regrading by E(z*) amplifies less.
The legs and seeds of a system depend on the system and the config alone,
bit for bit, whatever other requests a plan holds: angles stay on
math.atan2, and scalar complex arithmetic is not moved into arrays, whose
products round differently.

The Wronskian identity

    det Y(z) = det Y(z0) * exp((z - z0) tr Lambda) * (z/z0)^{tr A}

is monitored by integrate_path and its drift reported with the result.

Sectorial solutions Y_r are seeded with the optimally truncated formal
series, each column where it is most recessive in S_r, and carried to z*;
Stokes matrices are extracted in the F-gauge

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
from .formal import FormalSolution, IrregularSystem, optimal_truncations
from .geometry import TWO_PI, SectorFrame, mod_angle, sector_frames
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
CUT_TOL = 1e-12  # stops of a circle closer than this, mod 2 pi, are one stop


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
    def from_polar(radius: float, arg: float, turns: int = 0) -> "PathPoint":
        """The point at `radius` and `arg`, `turns` turns further on the
        cover; z is made from `arg` alone, so it is the same on every turn."""
        if radius <= 0:
            raise ValueError("radius must be positive")
        return PathPoint(z=_polar(radius, arg), arg=arg + TWO_PI * turns)


@dataclass(frozen=True)
class SolutionHandle:
    """A fundamental-matrix value of `system`, the one copy of it that its
    transports read, anchored at a point of the cover."""

    system: IrregularSystem
    point: PathPoint
    value: np.ndarray
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


# a row of a leg table: the leg from a to b, a line (center NaN) or the arc
# about center turning by sweep, on the ODE of index `ode`
LEG = np.dtype([("a", complex), ("b", complex), ("center", complex), ("sweep", float),
                ("ode", np.intp)])


def leg_table(paths, ode):
    """The leg table of transports that run legs of their own, path j (a
    list of Legs) on the ODE of index ode[j], and their routes (J, S): the
    rows of path j in order, padded with -1."""
    rows = [(leg.a, leg.b, np.nan if leg.center is None else leg.center, leg.sweep, k)
            for path, k in zip(paths, ode) for leg in path]
    lengths = np.array([len(path) for path in paths])
    routes = np.full((len(paths), lengths.max()), -1)
    routes[np.arange(routes.shape[1]) < lengths[:, None]] = np.arange(len(rows))
    return np.array(rows, dtype=LEG), routes


def _describe(row) -> str:
    """A leg table row as the engine's errors name it."""
    a, b, center = (complex(row[key]) for key in ("a", "b", "center"))
    return f"line {a:.6g} -> {b:.6g}" if math.isnan(center.real) else (
        f"arc {a:.6g} -> {b:.6g} about {center:.6g}")


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


def irregular_ode(sys: IrregularSystem, shift: complex = 0.0) -> LinearODE:
    """z Y' = (z (Lambda - shift) + A) Y: the system in the scalar gauge
    y e^{-shift z}."""
    Q = np.array([sys.A, np.diag(sys.u) - shift * np.eye(sys.n, dtype=complex)])
    return LinearODE(center=0j, P=np.array([0j, 1]), Q=Q, roots=np.zeros(1, dtype=complex))


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


def transport_matrix(odes, legs, routes, backward, starts, tol: float = DEFAULT_TOL):
    """Carry solutions of P Y' = Q Y along legs by Taylor steps, a batch of
    transports at once.

    `odes` are the LinearODEs of the batch (dimension and degree may
    differ) and `legs` its leg table (`LEG` rows), each row one (ODE, leg)
    pair.  Transport j runs the rows routes[j] (J, S) in path order, padded
    with -1; where backward[j] (J, S) is set it runs the row from b to a, as
    the inverse of the row's matrix.  `starts` (J, n, c) holds the start
    values, n the largest dimension of the ODEs and c the most columns of
    any transport, zero-padded; the end values are returned in the same
    stack.  Each row that a route runs is stepped and summed once, the rows
    in order of first use along the routes (module docstring).  `tol` is
    the relative accuracy asked of each transport.  Raises IntegrationError,
    naming the first transport and segment that run the row, when a leg
    runs into a singular point (before any series is summed) or a series
    fails to converge.
    """
    # the rows that the routes run, in order of first use; `names` holds the
    # (transport, segment) of each one's first use, `route` its number in
    # that order
    used = np.flatnonzero(routes >= 0)
    rows, first = np.unique(routes.ravel()[used], return_index=True)
    order = np.argsort(first)
    label = np.empty(len(legs), dtype=int)
    label[rows[order]] = np.arange(len(rows))
    route = np.where(routes >= 0, label[routes], -1)
    names = np.stack(np.divmod(used[first[order]], routes.shape[1]), axis=1)
    pair_leg = legs[rows[order]]
    pair_ode = pair_leg["ode"]
    z0, h, leg_of, starts_at = _schedule(odes, pair_leg, names)
    ode_of = pair_ode[leg_of]
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
    # slot 0 of a step matrix is Q's leading coefficient, scaled, and does
    # not change with k (`_step_matrix`); with no off-diagonal entry in it
    # the window product runs over slots 1..d, and a non-zero one adds its
    # diagonal elementwise
    lead = Q[-1]
    first = 0 if lead[~np.eye(n, dtype=bool)].any() else 1
    lead_diagonal = first == 1 and lead.any()
    # transfer matrices of the steps, summed STEP_CHUNK steps at a time
    T = np.empty((len(z0), n, n), dtype=complex)
    for a in range(0, len(z0), STEP_CHUNK):
        sl = slice(a, a + STEP_CHUNK)
        members = ode_of[sl]
        B = len(members)
        M, slope = _step_matrix(P[:, members], Q[..., members], z0[sl] - center[members],
                                h[sl], binom, idx, powers)
        if lead_diagonal:
            D0 = _diagonal(M)[0, :, None].copy()  # (n, 1, B)
            lead_term = np.empty((n, n, B), dtype=complex)
        M, slope = np.ascontiguousarray(M[:, first * n :]), slope[first:]
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
            np.einsum("iwb,wcb->icb", M, G[j + first : j + m].reshape(-1, n, B), out=c)
            if lead_diagonal:
                c += np.multiply(D0, G[j], out=lead_term)
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
                f"{seg} ({_describe(pair_leg[leg_of[e]])}) at z = {z0[e]:.6g}"
            )
        T[sl] = total.transpose(2, 0, 1)
    # the matrix of each row, one step index at a time
    L = np.tile(np.eye(n, dtype=complex), (len(pair_leg), 1, 1))
    for a, b in zip(starts_at[:-1], starts_at[1:]):
        running = leg_of[a:b]
        L[running] = T[a:b] @ L[running]
    # a backward run chains the inverse of its row's matrix; all of them are
    # inverted in one batch
    if backward.any():
        flipped, at = np.unique(route[backward], return_inverse=True)
        L = np.concatenate([L, np.linalg.inv(L[flipped])])
        route[backward] = len(pair_leg) + at
    # the transports, one leg at a time
    Y = np.array(starts, dtype=complex)
    for seg in range(route.shape[1]):
        running = np.flatnonzero(route[:, seg] >= 0)
        Y[running] = L[route[running, seg]] @ Y[running]
    return Y


def _sum_squares(c):
    """|c|_F^2 of every member of c (n, n, B)."""
    v = c.reshape(-1, c.shape[-1])
    return (v.real**2 + v.imag**2).sum(axis=0)


def _schedule(odes, legs, names):
    """The Taylor steps of the leg table `legs`, row k on the LinearODE
    odes[legs["ode"][k]], laid out for all rows at once, one step index at a
    time.

    The steps depend on the geometry alone (step rule in the module
    docstring), so a leg into a singular point is refused up front;
    IntegrationError names it by names[k], its (transport, segment).
    Returns the start points z0 and increments h of the steps, the leg index
    of each, ordered by step index and then by leg, and the offsets at which
    each step index begins.

    Every leg is z(t) = base + span e(t), 0 <= t <= 1, with e = t on a line
    and e = exp(i sweep t) on an arc.  The per-leg arrays hold the running
    legs only; they are compacted on the step indices where a leg ends or
    is refused.
    """
    # the singular points and growth bound of each leg's ODE, padded with
    # points at infinity
    roots = np.full((len(odes), max((len(o.roots) for o in odes), default=0)),
                    np.inf, dtype=complex)
    for k, o in enumerate(odes):
        roots[k, : len(o.roots)] = o.roots
    growth = np.array([o.growth for o in odes])
    hgrow = np.full(len(odes), np.inf)
    np.divide(STEP_GROWTH, growth, out=hgrow, where=growth > 0)
    roots, hgrow = roots[legs["ode"]], hgrow[legs["ode"]]
    a, b, sweep = legs["a"], legs["b"], legs["sweep"]
    arc = ~np.isnan(legs["center"])
    base = np.where(arc, legs["center"], a)
    span = np.where(arc, a - base, b - a)
    isweep = 1j * sweep
    # hypot, as Python's complex abs takes it (numpy's complex abs rounds
    # differently on SIMD loops)
    length = np.hypot(span.real, span.imag) * np.where(arc, np.abs(sweep), 1.0)
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
            f"transport {names[k][0]}, segment {names[k][1]} ({_describe(legs[k])}), runs into "
            f"the singular point {complex(near):.6g} (distance {gap:.3g} "
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
    slot's block of M grows with k.  Slot 0 is the leading coefficient of Q
    times h^(d+1) / p_0 (the shift keeps it) with slope -p_{d+1} = 0, so it
    does not change with k.
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

    `odes`, `legs`, `routes`, `backward` and `starts` are the arguments of
    transport_matrix; `assemble` maps the stack of end values to the
    result.  Plans are built first and run together, so that a whole
    pipeline is one lockstep batch.
    """

    odes: tuple
    legs: np.ndarray
    routes: np.ndarray
    backward: np.ndarray
    starts: np.ndarray
    assemble: Callable[[np.ndarray], Any]


def run_plan(plan: Plan, tol: float = DEFAULT_TOL):
    """Run every transport of the plan in one transport_matrix batch."""
    return plan.assemble(transport_matrix(plan.odes, plan.legs, plan.routes, plan.backward,
                                          plan.starts, tol))


def integrate_path(start: SolutionHandle, legs, tol: float = DEFAULT_TOL) -> SolutionHandle:
    """Transport a solution handle, under its own system, along legs (lines
    and arcs about 0) from its z, each leg starting where the previous ends.

    The end point's arg is the handle's plus each leg's turn: an arc's
    sweep, a line's angle(b / a) (a chord that avoids 0 turns by less than
    pi).  The Wronskian drift |log det Y(end) - predicted| accumulates into
    the returned handle.
    """
    sys, s = start.system, start.point
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
    table, routes = leg_table([legs], [0])
    Y, = transport_matrix([irregular_ode(sys)], table, routes, np.zeros(routes.shape, dtype=bool),
                          start.value[None], tol)
    # Wronskian: d log det Y = (tr Lambda + tr A / z) dz
    trL = np.trace(sys.Lambda)
    trA = np.trace(sys.A)
    w0 = np.log(abs(s.z)) + 1j * s.arg
    w1 = np.log(abs(end.z)) + 1j * end.arg
    sg0, ld0 = np.linalg.slogdet(start.value)
    sg1, ld1 = np.linalg.slogdet(Y)
    predicted = ld0 + np.log(sg0) + trL * (end.z - s.z) + trA * (w1 - w0)
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
    """Settings of the sector plans: the sector frames (tau, and the
    coalescence point uC, given for frames widened there), seed radius and
    transport tol; the series is the caller's.  uC is kept as a tuple of
    complex, so that configs hash and compare by value."""

    tau: float
    radius: float = DEFAULT_SEED_RADIUS
    tol: float = DEFAULT_TOL
    uC: tuple | None = None

    def __post_init__(self):
        for name in ("tol", "radius"):
            if not (math.isfinite(value := getattr(self, name)) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.uC is not None:
            uC = np.asarray(self.uC, dtype=complex).reshape(-1)
            object.__setattr__(self, "uC", tuple(complex(x) for x in uC))


@dataclass(frozen=True)
class SectorRequest:
    """One result of a sector plan, for `sys` seeded with the series `fs`:
    the Stokes matrix S_r (kind "stokes") or the sectorial solution Y_r
    ("sectorial"), each at the z* that `sector_plan` places on the system's
    circle of argument sweeps.  With the Levelt solution `ld` a Stokes
    request also gives the connection matrix C_r, with Y_r = Y^(0) C_r, at
    that z* from the Y_r it carries (C_r is the same at every z of sector
    r).  Y^(0) is evaluated by levelt_handle on the branch of z*, inside
    |z*| / 2, and carried radially out to z*, where the columns' sweeps end,
    so both factors share their arg bookkeeping."""

    sys: IrregularSystem
    r: int
    fs: FormalSolution
    kind: str = "stokes"
    ld: LeveltData | None = None

    def __post_init__(self):
        if self.kind not in ("stokes", "sectorial"):
            raise ValueError(f"unknown sector request kind {self.kind!r}")
        if self.kind == "sectorial" and self.ld is not None:
            raise ValueError("a sectorial request takes no Levelt data")

    @property
    def sectors(self) -> tuple[int, ...]:
        """The sectors whose solutions make up the result."""
        return (self.r, self.r + 1) if self.kind == "stokes" else (self.r,)


class SectorTable:
    """What the requests of one sector plan share, each computed once.

    `systems` are the distinct systems of the requests and `series` their
    distinct series (F_1..F_K as one (K, n, n) array), both in order of first
    use; requests share a series when they share its F tuple, as the
    frozen-seeded passes of verify_coalescence share the frozen one.

    Everything is found on the base sheet, for sectors 0 and 1 of every
    system (module docstring).  `frames` maps (system index, sector) to the
    sector frame, and `angles` and `leakage` map it to the seed direction of
    every column in the frame and the Stokes leakage of seeds there at the
    seed radius, for the sectors of the system's own requests;
    `truncations` holds the optimal truncation (k, bound) of each series at
    the seed radius.  Per system, `overlaps` holds the (lo, hi) of the
    overlaps of sectors 0 and 1 and of 1 and 2, and `circles` the `_Circle`
    on which its columns sweep and its z* lie, cut at the seed angles of
    sectors 0 and 1 and at its z* args (the midpoints of those overlaps, and
    of sectors 0 and 1 for a system asked for a sectorial solution).  `legs`
    holds the rows (`LEG` tuples) of the columns' leg table: per system the
    arcs of its circle, from row arcs[s], and the radial leg, in from its
    seed to the circle, of each stop that seeds a column, whose rows
    `radials` maps (system index, sector parity) to, a row per column.
    `layouts` maps each (system, sector, z*) to its column layout
    (`layout`), which every Y_k with that key runs on, whichever its
    series.  `seed_columns` (sets, n, n) holds
    the seed value of each column of each (system index, series index,
    sector parity), a row each, in the order of `seed_set`.  The rays,
    seed directions, truncations and seed columns are each one array pass
    over all systems or series, so all systems must share n.
    """

    def __init__(self, cfg: StokesConfig, requests):
        systems = {id(q.sys): q.sys for q in requests}
        series = {id(q.fs.F): q.fs.F for q in requests}
        self.system_index = {key: k for k, key in enumerate(systems)}
        self.series_index = {key: k for k, key in enumerate(series)}
        self.systems = list(systems.values())
        if len({s.n for s in self.systems}) > 1:
            raise ValueError("the systems of one sector table must share n")
        n = self.systems[0].n
        used = [set() for _ in self.systems]
        sectorial = [False] * len(self.systems)  # asked for a sectorial solution
        for q in requests:
            used[self.system_index[id(q.sys)]].update(q.sectors)
            sectorial[self.system_index[id(q.sys)]] |= q.kind == "sectorial"
        base = sector_frames([sys.u for sys in self.systems], cfg.tau, (0, 1), uC=cfg.uC)
        angles, leakage = _seed_directions(
            np.repeat([sys.u for sys in self.systems], 2, axis=0),
            np.array([frame.lo for row in base for frame in row]),
            np.array([frame.hi for row in base for frame in row]), cfg.radius)
        angles = angles.reshape(len(self.systems), 2, n)
        leakage = leakage.reshape(len(self.systems), 2).tolist()
        self.frames, self.angles, self.leakage = {}, {}, {}
        for s, ks in enumerate(used):
            for k in sorted(ks):
                turn = TWO_PI * (k // 2)
                frame = base[s][k % 2]
                self.frames[s, k] = SectorFrame(lo=frame.lo + turn, hi=frame.hi + turn)
                self.angles[s, k] = angles[s, k % 2] + turn
                self.leakage[s, k] = leakage[s][k % 2]
        self.overlaps = [((f1.lo, f0.hi), (f0.lo + TWO_PI, f1.hi)) for f0, f1 in base]
        # stops, in the order `layout` and `zstar` read their places: the
        # Stokes z* args of sectors 0 and 1, the seed angles of sectors 0 and
        # 1, and the sectorial z* args where asked
        self.circles = [
            _Circle(_arc_radius(cfg.radius, sys.u),
                    [*(0.5 * (lo + hi) for lo, hi in overlap), *a.ravel().tolist(),
                     *[f0.midpoint, f1.midpoint][: 2 * asked]])
            for sys, overlap, (f0, f1), a, asked in zip(
                self.systems, self.overlaps, base, angles, sectorial)]
        # the rows of the leg table: each system's arcs, on the system's ODE,
        # then the radial leg of each of its stops that seeds a column
        rows, self.arcs, self.radials = [], [], {}
        for s, ks in enumerate(used):
            circle, radial = self.circles[s], {}  # the row of each stop's radial leg
            self.arcs.append(len(rows))
            rows += [(circle.point[g], circle.point[(g + 1) % circle.turn], 0j, sweep, s)
                     for g, sweep in enumerate(circle.sweep)]
            for parity in sorted({k % 2 for k in ks}):
                stops = [p % circle.turn for p in circle.place[2 + n * parity :][:n]]
                for g in stops:
                    if g not in radial:
                        radial[g] = len(rows)
                        rows.append((_polar(cfg.radius, circle.angle[g]), circle.point[g],
                                     np.nan, 0.0, s))
                self.radials[s, parity] = [radial[g] for g in stops]
        self.legs = rows
        self.layouts, self.paths, self.clockwise = {}, [], []
        self.series = [np.asarray(F, dtype=complex).reshape(-1, n, n) for F in series.values()]
        self.truncations = optimal_truncations(self.series, cfg.radius)
        sets = list(dict.fromkeys(
            (self.system_index[id(q.sys)], self.series_index[id(q.fs.F)], k % 2)
            for q in requests for k in q.sectors))
        self.seed_set = {key: i for i, key in enumerate(sets)}
        self.seed_columns = _seed_columns(
            self.series, [k for k, _ in self.truncations], [f for _, f, _ in sets],
            [[rows[r][0] for r in self.radials[s, parity]] for s, _, parity in sets])

    def layout(self, s: int, k: int, end: int):
        """The columns of system s in sector k that end at the place `end` of
        z* on the system's circle: the index i of their routes, paths[i : i
        + n] (each its radial leg, in from its seed to the place of the
        seed's stop on the cover of the circle, and the circle's arcs from
        there to z*, clockwise ones backward, as flagged in `clockwise`),
        and the args of the seeds less that of z*.  Laid out once per
        (system, sector, z* place) and kept in `layouts`, so every Y_k with
        that key, whichever its series, runs on the same routes."""
        key = s, k, end
        if key not in self.layouts:
            circle, n = self.circles[s], self.systems[s].n
            places = [p + circle.turn * (k // 2) for p in circle.place[2 + n * (k % 2) :][:n]]
            self.layouts[key] = len(self.paths), [circle.turned(end, a) for a in places]
            for radial, a in zip(self.radials[s, k % 2], places):
                arcs, clockwise = circle.arcs(a, end)
                self.paths.append([radial, *(self.arcs[s] + g for g in arcs)])
                self.clockwise.append(clockwise)
        return self.layouts[key]

    def zstar(self, s: int, q: SectorRequest) -> tuple[PathPoint, int]:
        """z* of request q of system s, on the system's circle: its point
        and its place on the cover of the circle.  z* of sector r + 2 is that
        of sector r, a turn on."""
        circle = self.circles[s]
        place = circle.place[q.r % 2 + (2 + 2 * self.systems[s].n) * (q.kind == "sectorial")]
        place += circle.turn * (q.r // 2)
        return circle.at(place), place


def _seed_directions(u, lo, hi, radius: float):
    """Per-column seed directions in the frames (lo, hi), two (F,) arrays, of
    the systems with exponents u (F, n), one row per frame, and the Stokes
    leakage of seeds there, for all those frames in one array pass; its
    arrays grow with the number of frames F.

    For column j the contamination of the truncated-series seed by other
    solutions scales like exp(|z| Re(e^{i theta}(u_j - u_i))); picking theta
    where u_j is most recessive against every other exponential drives those
    admixtures below the truncation error: theta maximizes min_i d_i, tie-broken
    by 1e-3 sum_i d_i (tightly coalescing pairs cap the min), d_i =
    -Re(e^{i theta}(u_j - u_i)) over the i with u_i != u_j, on the frame less
    min(0.05, opening / 10) at each end.  That is a minimum of sinusoids, whose
    maximum lies at an end (the lower on ties), at a peak or where two cross.
    A column seeded at recessive depth d against pair (i, j) can still pick up
    an admixture of that solution at the e^{-R d} level, R = `radius` (the
    Stokes leakage of the sector boundary); with no recessive direction
    available (d <= 0) the admixture is order of the pair's Stokes activity,
    which near-coalescing pairs of vanishing-compatible families reduce with
    the separation.
    Returns the angles (F, n) and the largest admixture in each frame (F,).
    """
    F, n = u.shape
    pad = np.minimum(0.05, 0.1 * (hi - lo))
    a, b = (lo + pad)[:, None, None], (hi - pad)[:, None, None]
    diff = u[:, :, None] - u[:, None, :]  # u_j - u_i at [f, j, i]
    other = (diff != 0)[:, :, None]  # i != j and u_i != u_j
    # the peaks of column j's sinusoids, and where each two of them cross
    # (both crossings of a pair: arg(u_i - u_k) + theta = pi/2 or 3 pi/2)
    cross = 0.5 * np.pi - np.angle(diff).reshape(F, 1, n * n)
    base = np.concatenate([np.pi - np.angle(diff + 1e-3 * diff.sum(axis=2, keepdims=True)),
                           np.broadcast_to(cross, (F, n, n * n))], axis=2)
    # their images in [a, a + 4 pi), which hold every frame, and the ends
    first = a + np.mod(base - a, 2 * np.pi)
    ends = np.broadcast_to(np.concatenate([a, b], axis=2), (F, n, 2))
    thetas = np.concatenate([ends, first, first + 2 * np.pi], axis=2)  # (F, n, candidates)
    d = -np.real(np.exp(1j * thetas)[..., None] * diff[:, :, None])  # (F, n, candidates, n)
    depth = np.where(other, d, np.inf).min(axis=3)
    depth[np.isinf(depth)] = 0.0
    score = np.where(thetas <= b, depth + 1e-3 * np.where(other, d, 0.0).sum(axis=3), -np.inf)
    angles = np.take_along_axis(thetas, np.argmax(score, axis=2)[..., None], axis=2)[..., 0]
    depth = -np.real(np.exp(1j * angles)[..., None] * diff)
    admixture = np.minimum(1.0, np.abs(diff)) * np.exp(-radius * np.maximum(depth, 0.0))
    return angles, np.max(admixture, axis=(1, 2), where=diff != 0, initial=0.0)


def _arc_radius(radius: float, u) -> float:
    """The radius of the argument sweeps of a system with exponents u, for
    seeds at `radius`, and of its z*: at most half the seed radius."""
    # argument sweeps at large |z| let the dominant exponential swamp the
    # recessive one inside the relative tail criterion; sweep at moderate radius
    rho_max = float(np.abs(u[:, None] - u[None, :]).max())
    return min(radius / 2.0, max(0.5, 4.0 / max(rho_max, 1e-6)))


class _Circle:
    """The circle |z| = radius on which the columns of one system sweep, cut
    at `stops` (angles) into elementary arcs, each one counterclockwise Leg.

    Stops less than CUT_TOL apart mod 2 pi are one stop, made from the first
    of them in `stops`: `angle` holds that angle of each distinct stop and
    `point` its point.  The `turn` distinct stops are numbered in the order
    of their angles mod 2 pi, and place P on the cover is stop P mod turn,
    floor(P / turn) turns on; `place` holds the place of each of `stops`.
    Every sweep between two places runs over the same arcs, in either
    direction, whichever column, sector, sheet or z* it serves: arc g runs
    counterclockwise from stop g to stop g + 1 (mod turn) by sweep[g].
    """

    def __init__(self, radius: float, stops):
        key = [mod_angle(t) for t in stops]
        groups = []  # the stops of each distinct stop, in order of key
        for i in sorted(range(len(stops)), key=key.__getitem__):
            if groups and key[i] - key[groups[-1][-1]] < CUT_TOL:
                groups[-1].append(i)
            else:
                groups.append([i])
        if len(groups) > 1 and key[groups[0][0]] + TWO_PI - key[groups[-1][-1]] < CUT_TOL:
            groups[0] += groups.pop()
        groups.sort(key=lambda g: key[min(g)])
        first = [min(g) for g in groups]
        self.radius, self.turn = radius, len(groups)
        self.angle = [stops[i] for i in first]
        self.key = [key[i] for i in first]
        self.place = [0] * len(stops)
        for g, members in enumerate(groups):
            for i in members:
                self.place[i] = g + self.turn * round((stops[i] - self.key[g]) / TWO_PI)
        self.point = [_polar(radius, t) for t in self.angle]
        ends = self.key + [self.key[0] + TWO_PI]
        self.sweep = [b - a for a, b in zip(ends[:-1], ends[1:])]

    def at(self, place: int) -> PathPoint:
        """The point of `place` on the cover: the point of its stop, made
        from the stop's angle, with the arg of the place's turn."""
        g = place % self.turn
        turns = place // self.turn - round((self.angle[g] - self.key[g]) / TWO_PI)
        return PathPoint.from_polar(self.radius, self.angle[g], turns)

    def turned(self, a: int, b: int) -> float:
        """The arg of place b less that of place a, the same on every turn."""
        return (self.key[b % self.turn] - self.key[a % self.turn]
                + TWO_PI * (b // self.turn - a // self.turn))

    def arcs(self, a: int, b: int) -> tuple[list[int], bool]:
        """The arcs from place a to place b, by index, and whether they run
        clockwise, each backward: the engine steps each arc once,
        counterclockwise, whichever way its columns run."""
        if b < a:
            return [p % self.turn for p in range(a - 1, b - 1, -1)], True
        return [p % self.turn for p in range(a, b)], False


def _seed_columns(series, orders, which, points):
    """The seed columns of sets of columns, all in one stacked product: set
    i is seeded with the series series[which[i]] (F_1..F_K, (K, n, n)),
    truncated after its orders[which[i]] terms, at the seed points
    points[i] (n,), and its column j is column j of I + sum_k F_k z^-k at
    the seed point z of column j.  Returns one (n, n) array per set, whose
    row j is column j.

    The series are zero-padded to one length and the powers of every set
    are zero past its order.  The sum over k is one np.einsum, which sums
    the terms in index order from 0 and forms each product as Python's
    complex scalars do (see `formal`); a padded term adds an exact +0, which
    changes a sum only by the sign of a zero, and adding I rounds both signs
    alike, so a column does not depend on the sets it is evaluated with."""
    n = series[0].shape[-1]
    top = max(orders, default=0)
    padded = np.zeros((len(series), top, n, n), dtype=complex)
    for F, K, pad in zip(series, orders, padded):
        pad[:K] = F[:K]
    K = np.array(orders)[which][:, None, None]
    z = np.array(points, dtype=complex).reshape(len(which), n)[..., None]
    powers = np.zeros((len(which), n, top), dtype=complex)
    np.power(z, -np.arange(1.0, top + 1), out=powers, where=np.arange(top) < K)
    return np.eye(n) + np.einsum("ikrj,ijk->ijr", padded[which], powers)


def sector_plan(cfg: StokesConfig, requests) -> Plan:
    """The transports of `requests` (SectorRequests), assembled into their
    results in request order: a StokesResult or a SolutionHandle each.

    The requests share one SectorTable.  One rule places z*, on the
    system's circle of argument sweeps (`_arc_radius`): Y_r's on the
    midpoint of sector r, and S_r's on the midpoint of the overlap of
    sectors r and r + 1, where C_r reads the Y_r of S_r (S_r and C_r are
    the same at every z there).  Every column of a system runs on one ODE,
    in the gauge y e^{-c z} (c the mean of u), along the routes of its
    layout (`SectorTable.layout`), and is taken to its own gauge
    y e^{-u_j z} z^{-b_j} by an exact scalar at z*; the columns of each Y_k
    are n consecutive transports.  The Levelt solution of C_r runs radially
    from inside |z*| / 2 out to z*.  The solutions Y_k of all requests, and
    the Stokes matrices among the results, are each assembled in one
    stacked pass.
    """
    requests = list(requests)
    table = SectorTable(cfg, requests)
    R = cfg.radius
    n = table.systems[0].n
    centre = [complex(np.mean(sys.u)) for sys in table.systems]
    odes = [irregular_ode(sys, c) for sys, c in zip(table.systems, centre)]
    jobs, first, levelt, blocks, stokes = 0, [], {}, [], []  # stokes: the Stokes requests
    for p, q in enumerate(requests):
        s, f = table.system_index[id(q.sys)], table.series_index[id(q.fs.F)]
        if q.kind == "stokes":
            stokes.append(p)
            lo, hi = table.overlaps[s][q.r % 2]
            if not hi - lo > 1e-9:
                raise SectorError(f"sectors {q.r} and {q.r + 1} do not overlap: ({lo}, {hi})")
        zstar, end = table.zstar(s, q)
        first.append(len(blocks))
        for k in q.sectors:
            blocks.append((jobs, *table.layout(s, k, end), table.seed_set[s, f, k % 2], zstar,
                           np.log(zstar.radius) + 1j * zstar.arg, q.fs, s,
                           table.truncations[f][1] + table.leakage[s, k]))
            jobs += n
        if q.ld is not None:
            # Y^(0) radially out to z* on the circle; carried in the system's
            # gauge e^{-c z}, and taken back at z*
            lev = levelt_handle(q.sys, q.ld, zstar, cfg.tol)
            levelt[p] = (jobs, np.exp(centre[s] * (zstar.z - lev.point.z)),
                         (lev.point.z, zstar.z, np.nan, 0.0, s), lev.value)
            jobs += 1
    # per Y_k: the job of its first column, the index of its columns'
    # routes, their args less arg z*, its seed set, z*, log z*, series,
    # system and seed error
    columns, paths, turned, sets, points, logs, series, owner, seed_error = zip(*blocks)

    # the transports: the columns of each Y_k run the routes of its layout
    # from the seed columns of its set, each Levelt solution its leg
    lengths = np.array([len(path) for path in table.paths])
    segments = np.arange(lengths.max())
    filled = segments < lengths[:, None]
    laid = np.full(filled.shape, -1)
    laid[filled] = [row for path in table.paths for row in path]
    filled[:, 0] = False  # the radial legs run forward
    index = np.arange(n)
    column_jobs = (np.array(columns)[:, None] + index).ravel()
    paths = (np.array(paths)[:, None] + index).ravel()
    routes = np.full((jobs, len(segments)), -1)
    backward = np.zeros(routes.shape, dtype=bool)
    routes[column_jobs] = laid[paths]
    backward[column_jobs] = (filled & np.array(table.clockwise)[:, None])[paths]
    starts = np.zeros((jobs, n, n if levelt else 1), dtype=complex)
    starts[column_jobs, :, 0] = table.seed_columns[list(sets)].reshape(-1, n)
    legs = table.legs
    if levelt:
        lev_jobs, _, lev_legs, lev_starts = zip(*levelt.values())
        routes[list(lev_jobs), 0] = len(legs) + np.arange(len(lev_jobs))
        starts[list(lev_jobs)] = lev_starts
        legs = legs + list(lev_legs)
    legs = np.array(legs, dtype=LEG)

    # column j of Y_k, seeded at z_j with the series value of y_j e^{-u_j z}
    # z^{-b_j}, ends at z* as y_j e^{-c z*} / (e^{(u_j - c) z_j} z_j^{b_j}),
    # in the exponents u, b of its series and the centre c of its system.
    # Y_k = F_k E(z*), with E(z) = z^B e^{z u} in the system's u; F_k's
    # scalars hold z_j^{b_j} / z*^{b_j}, whose arg comes from the places of
    # z_j and z* on the circle, so it is the same on every sheet, and the
    # sheet of sector k enters through E(z*) alone
    zs = np.array([z.z for z in points])[:, None]
    c = np.array([centre[s] for s in owner])[:, None]
    u, b = np.array([fs.u for fs in series]), np.array([fs.b for fs in series])
    u_sys = np.array([table.systems[s].u for s in owner])
    grading = np.exp(b * np.array(logs)[:, None] + zs * u_sys)  # E(z*)
    log_ratio = (math.log(R) - np.log([z.radius for z in points]))[:, None] + 1j * np.array(turned)
    at = legs["a"][routes[column_jobs, 0]].reshape(-1, n)  # the seed points, radial legs' a
    gauge = np.exp((c - u_sys) * zs + (u - c) * at + b * log_ratio)
    seed_error = np.array(seed_error)
    blocks = np.array([first[p] for p in stokes], dtype=int)  # Y_r of each S_r

    def assemble(ends):
        cols = ends[column_jobs, :, 0].reshape(len(columns), n, n)
        F = np.ascontiguousarray(cols.transpose(0, 2, 1)) * gauge[:, None, :]
        Y = F * grading[:, None, :]
        sign, logdet = np.linalg.slogdet(Y)
        if np.any((sign == 0) | ~np.isfinite(logdet)):
            raise ValueError("fundamental matrix must be invertible")
        results = [SolutionHandle(system=q.sys, point=points[b], value=Y[b])
                   if q.kind == "sectorial" else None for q, b in zip(requests, first)]
        if stokes:
            C = {p: np.linalg.solve(ends[job] * scale, Y[first[p]])
                 for p, (job, scale, _, _) in levelt.items()}
            for p, res in zip(stokes, _stokes_results(
                    [requests[p] for p in stokes], [points[b] for b in blocks], grading[blocks],
                    F[blocks], F[blocks + 1], seed_error[blocks] + seed_error[blocks + 1],
                    [C.get(p) for p in stokes], cfg.tol)):
                results[p] = res
        return results

    return Plan(tuple(odes), legs, routes, backward, starts, assemble)


def _stokes_results(requests, zstars, grading, Fr, Fr1, seed_error, C, tol: float):
    """The StokesResults of `requests` from the F-gauge Y_r E(z*)^{-1} and
    Y_{r+1} E(z*)^{-1} at z*, two (P, n, n) stacks, in one stacked pass (see
    stokes_matrix); `grading` holds the diagonals of E(z*), `seed_error` the
    sum of the seed errors of each pair and `C` the connection matrix of
    each request (None without Levelt data)."""
    n = Fr.shape[-1]
    u = np.array([q.sys.u for q in requests])
    try:
        W = np.linalg.solve(Fr, Fr1)
    except np.linalg.LinAlgError:
        for z, a, b in zip(zstars, Fr, Fr1):
            try:
                np.linalg.solve(a, b)
            except np.linalg.LinAlgError as exc:
                raise IntegrationError(f"conditioning failure at z* = {z.z:.6g}: {exc}") from exc
        raise
    ratio = grading[:, None, :] / grading[:, :, None]  # E_jj / E_ii
    S = W * ratio
    # the entries forced to vanish, Re(e^{i arg z*}(u_i - u_j)) > 0 off the
    # diagonal, with the real part rounded as a scalar complex product rounds it
    e = np.array([complex(math.cos(z.arg), math.sin(z.arg)) for z in zstars])[:, None, None]
    d = u[:, :, None] - u[:, None, :]
    forced = (e.real * d.real - e.imag * d.imag > 0) & ~np.eye(n, dtype=bool)
    diag_residual = np.abs(np.diagonal(S, axis1=1, axis2=2) - 1.0).max(axis=1)
    amp = np.abs(ratio).max(axis=(1, 2))
    # seed admixtures act as basis-coefficient perturbations, so they
    # enter the quotient scaled by the size of S itself; regrading only
    # amplifies round-off and integration noise
    err = seed_error * (1.0 + np.abs(S).max(axis=(1, 2))) + amp * (10 * tol + 1e-14)
    return [
        StokesResult(
            S=S[p],
            zstar=zstars[p],
            diag_residual=float(diag_residual[p]),
            # scalar abs, which rounds differently from the array one
            required_zero=tuple(((i, j), float(abs(S[p, i, j])))
                                for i, j in np.argwhere(forced[p]).tolist()),
            error_estimate=float(err[p]),
            C=C[p],
        )
        for p in range(len(requests))
    ]


def actual_solution(sys: IrregularSystem, r: int, tau: float, fs: FormalSolution,
                    tol: float = DEFAULT_TOL) -> SolutionHandle:
    """Sectorial solution Y_r of `sys` seeded with the series `fs`, in the
    plain frames of tau, at z* on the midpoint of sector r, on the circle of
    the argument sweeps.

    Each column is seeded with the optimally truncated formal series at the
    seed radius on the direction inside S_r where its exponential is most
    recessive (there the seed's contamination by other solutions is below
    the truncation error) and transported to the common point: a radial leg
    in from its seed and an argument sweep at moderate radius to z*.
    Widened frames are planned by a `SectorRequest`.
    """
    cfg = StokesConfig(tau=tau, tol=tol)
    return run_plan(sector_plan(cfg, [SectorRequest(sys, r, fs, "sectorial")]), tol)[0]


@dataclass(frozen=True)
class StokesResult:
    """Stokes matrix S_r with its structure diagnostics.

    `required_zero` lists ((i, j), |entry|) for the positions forced to
    vanish by the triangular structure: Re(e^{i arg z*}(u_i - u_j)) > 0 in
    the sector overlap.  `error_estimate` combines seed bounds with the
    round-off amplification of the exponential regrading.  `C` is the
    connection matrix C_r, with Y_r = Y^(0) C_r at z*, of a request that
    carries Levelt data (`SectorRequest`), and None otherwise.
    """

    S: np.ndarray
    zstar: PathPoint
    diag_residual: float
    required_zero: tuple[tuple[tuple[int, int], float], ...]
    error_estimate: float
    C: np.ndarray | None


def stokes_matrix(sys: IrregularSystem, r: int, cfg: StokesConfig,
                  fs: FormalSolution) -> StokesResult:
    """S_r = Y_r(z*)^{-1} Y_{r+1}(z*) at the sector-overlap midpoint on the
    circle of the argument sweeps, of `sys` seeded with the series `fs`: the
    one-request sector plan.

    Both sectorial solutions are transported to the same point of the cover;
    the quotient is formed in the F-gauge and regraded entrywise, so required
    zeros are damped rather than amplified.  At a coalescence point (cfg.uC)
    `fs` is the coalescence-aware series of `compute_formal_coefficients`.
    """
    return run_plan(sector_plan(cfg, [SectorRequest(sys, r, fs)]), cfg.tol)[0]


def levelt_handle(sys: IrregularSystem, ld: LeveltData, zstar: PathPoint,
                  tol: float = DEFAULT_TOL) -> SolutionHandle:
    """Levelt solution evaluated near the origin on the branch of `zstar`,
    the point it is carried out to.

    The Taylor factor converges on all of C for this system, but the
    truncated series is accurate only near 0.  It is evaluated at the
    largest radius where its last two terms ||Psi_k||_F r^k are at most
    TAIL_FRACTION * tol, the engine's own stop rule, and at most |z*| / 2,
    so that the radial leg out to z*, on the circle of the sector plan's
    argument sweeps, keeps a positive length.
    """
    K, bound = ld.K, TAIL_FRACTION * tol
    if K < 2:
        raise ValueError(f"a Levelt series of order {K} has no two last terms to bound")
    radius = zstar.radius / 2.0
    k = np.arange(K - 1, K + 1)
    terms = np.linalg.norm(ld.Psi[-2:], axis=(1, 2)) * radius ** k
    radius /= float(np.max((terms / bound) ** (1.0 / k), initial=1.0))
    if not radius > 0:
        raise ValueError(f"the Levelt series of order {K} has no radius where its tail "
                         f"is below {bound:.1e}")
    # on the ray of z*'s own point, so that the start does not depend on
    # which turn of the cover z* lies on
    pt = PathPoint(zstar.z * (radius / zstar.radius), zstar.arg)
    Y0 = eval_levelt(ld, pt.z, pt.arg)
    return SolutionHandle(system=sys, point=pt, value=Y0)


def monodromy_loop(start: SolutionHandle, tol: float = DEFAULT_TOL) -> np.ndarray:
    """M with Y(after loop) = Y(before) M for one positive loop around 0,
    under the handle's own system."""
    z = start.point.z
    after = integrate_path(start, [Leg(z, z, center=0j, sweep=2 * math.pi)], tol=tol)
    return np.linalg.solve(start.value, after.value)
