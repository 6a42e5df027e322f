"""High-accuracy transport of fundamental solutions in the punctured z-plane.

Paths live on the universal cover: every waypoint carries both the complex
value z and a continuous argument, and no implicit principal branch is used
anywhere.

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
part of a step stays O(1).  Tail criterion: the sum stops when two
consecutive terms fall below TAIL_FRACTION * tol relative to the value at
the start of the step; the fraction keeps the error accumulated over the
few dozen steps of a path, and its amplification by the exponential
regrading of Stokes quotients, at or below what tol promises.  A path that
runs into a zero of P drives the step below STEP_FLOOR times max(|z0|,
segment length); the engine then raises IntegrationError naming the segment
and the singular point.

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

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401  unused; perfbench/layertrace.py rebinds it

from .errors import BranchMismatchError, IntegrationError, SectorError
from .formal import (
    FormalSolution,
    IrregularSystem,
    compute_formal_coefficients,
    eval_series_factor,
    eval_truncated_formal,
    optimal_truncation,
)
from .geometry import SectorFrame, sector_bounds
from .levelt import LeveltData, eval_levelt

DEFAULT_TOL = 1e-11
DEFAULT_SEED_RADIUS = 20.0
MAX_ARC_SWEEP = math.pi / 2
# step rule of the Taylor engine (see the module docstring)
STEP_RADIUS = 0.25
STEP_GROWTH = 2.0
STEP_FLOOR = 1e-9
TAIL_FRACTION = 1e-2
MAX_TERMS = 200


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
        return PathPoint(z=radius * complex(math.cos(arg), math.sin(arg)), arg=arg)


@dataclass(frozen=True)
class Segment:
    kind: str  # "line" | "arc"
    a: PathPoint
    b: PathPoint

    def __post_init__(self):
        if self.kind not in ("line", "arc"):
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.kind == "arc":
            if abs(self.a.radius - self.b.radius) > 1e-9 * max(self.a.radius, 1.0):
                raise ValueError("arc endpoints must share the same radius")
            if abs(self.b.arg - self.a.arg) > MAX_ARC_SWEEP + 1e-12:
                raise ValueError("arc sweep exceeds pi/2; split the arc")
        else:
            if abs(self.b.arg - self.a.arg) >= math.pi:
                raise ValueError("line segment with |Delta arg| >= pi; re-route")

    @property
    def leg(self) -> "Leg":
        if self.kind == "line":
            return Leg(self.a.z, self.b.z)
        return Leg(self.a.z, self.b.z, center=0j, sweep=self.b.arg - self.a.arg)


@dataclass(frozen=True)
class ZPath:
    """Piecewise path on the cover; consecutive points are joined by segments."""

    segments: tuple[Segment, ...]

    @property
    def start(self) -> PathPoint:
        return self.segments[0].a

    @property
    def end(self) -> PathPoint:
        return self.segments[-1].b

    @staticmethod
    def line(a: PathPoint, b: PathPoint) -> "ZPath":
        return ZPath(segments=(Segment("line", a, b),))

    @staticmethod
    def arc(a: PathPoint, arg_to: float) -> "ZPath":
        """Origin-centered arc from a to the given argument, split in <= pi/2 sweeps."""
        sweeps = []
        cur = a
        total = arg_to - a.arg
        nseg = max(1, math.ceil(abs(total) / MAX_ARC_SWEEP))
        for k in range(1, nseg + 1):
            nxt = PathPoint.from_polar(a.radius, a.arg + total * k / nseg)
            sweeps.append(Segment("arc", cur, nxt))
            cur = nxt
        return ZPath(segments=tuple(sweeps))

    @staticmethod
    def radial(a: PathPoint, radius_to: float) -> "ZPath":
        b = PathPoint.from_polar(radius_to, a.arg)
        return ZPath(segments=(Segment("line", a, b),))

    @staticmethod
    def loop(a: PathPoint, winding: int) -> "ZPath":
        """Circle |z| = |a| traversed `winding` times (sign = orientation)."""
        if winding == 0:
            return ZPath(segments=())
        return ZPath.arc(a, a.arg + 2 * math.pi * winding)

    def then(self, other: "ZPath") -> "ZPath":
        if self.segments and other.segments:
            ea, sb = self.end, other.start
            if abs(ea.z - sb.z) > 1e-9 or abs(ea.arg - sb.arg) > 1e-9:
                raise ValueError("paths do not join")
        return ZPath(segments=self.segments + other.segments)


@dataclass(frozen=True)
class SolutionHandle:
    """A fundamental-matrix value anchored at a point of the cover."""

    system: IrregularSystem
    point: PathPoint
    value: np.ndarray
    provenance: str = "identity"
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

    def point(self, t: float) -> complex:
        if t >= 1.0:
            return self.b
        if self.center is None:
            return self.a + t * (self.b - self.a)
        return self.center + (self.a - self.center) * cmath.exp(1j * self.sweep * t)

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

    def local(self, z0: complex):
        """Coefficients of P and Q in powers of h = z - z0."""
        binom, idx = _shift_tables(len(self.P))
        T = binom * (complex(z0 - self.center) ** np.arange(len(self.P)))[idx]
        return T @ self.P, (T @ self.Q.reshape(len(T), -1)).reshape(self.Q.shape)


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
    """prod_k (z - u_k) Y' = sum_i A_i prod_{k != i} (z - u_k) Y."""
    poles = np.asarray(poles, dtype=complex).reshape(-1)
    N = len(poles)
    n = residues[0].shape[0]
    center = complex(np.mean(poles))
    x = poles - center
    Q = np.zeros((N + 1, n, n), dtype=complex)
    for i, Ai in enumerate(residues):
        Q[:N] += np.atleast_1d(np.poly(np.delete(x, i)))[::-1, None, None] * Ai
    return LinearODE(center=center, P=np.poly(x)[::-1].astype(complex), Q=Q, roots=poles)


def transport_matrix(ode: LinearODE, Y0, legs, tol: float = DEFAULT_TOL):
    """Carry a solution of P Y' = Q Y along the legs by Taylor steps.

    Y0 may be a full matrix or a single column; `tol` is the relative
    accuracy asked of the whole transport (the step rule and tail criterion
    are in the module docstring).  Raises IntegrationError when a leg runs
    into a singular point or a series fails to converge.  Returns the final
    value.
    """
    Y = np.asarray(Y0, dtype=complex)
    shape = Y.shape
    Y = Y.reshape(shape[0], -1)
    growth = ode.growth
    for idx, leg in enumerate(legs):
        length = leg.length
        t, z0 = 0.0, leg.a
        while t < 1.0:
            dist = np.abs(ode.roots - z0)
            near = int(np.argmin(dist))
            hmax = STEP_RADIUS * float(dist[near])
            if growth:
                hmax = min(hmax, STEP_GROWTH / growth)
            if not hmax > STEP_FLOOR * max(abs(z0), length):
                raise IntegrationError(
                    f"transport on segment {idx} ({leg}) runs into the singular "
                    f"point {ode.roots[near]:.6g} (distance {dist[near]:.3g} "
                    f"at z = {z0:.6g})"
                )
            t = 1.0 if t * length + hmax >= length else t + hmax / length
            z1 = leg.point(t)
            Y = _taylor_step(ode, Y, z0, z1 - z0, tol, idx, leg)
            z0 = z1
    return Y.reshape(shape)


def _taylor_step(ode, Y, z0, h, tol, idx, leg):
    """Y(z0 + h) from Y(z0) by the scaled recurrence for c_k = Y_k h^k.

    With E_k = k c_k and the local coefficients scaled to p_i h^i / p_0 and
    h q_i h^i / p_0, a term is E_{k+1} = sum_i q_i c_{k-i}
    - sum_{i>=1} p_i E_{k+1-i}: one product of a fixed matrix with the
    window of the last d + 1 pairs (c_j, E_j), stored flat in G.
    """
    P, Q = ode.local(z0)
    d = len(P) - 1
    n, cols = Y.shape
    m = 2 * n
    hp = h ** np.arange(d + 1)
    p = P * hp / P[0]
    q = Q * (h * hp / P[0])[:, None, None]
    # block s of M acts on (c_j, E_j), j = k - d + s: [q_{d-s}, -p_{d+1-s} I]
    M = np.zeros((n, d + 1, 2, n), dtype=complex)
    M[:, :, 0, :] = q[::-1].transpose(1, 0, 2)
    M[:, 1:, 1, :] = -p[None, :0:-1, None] * np.eye(n)[:, None, :]
    M = np.tile(M.reshape(n, -1), (2, 1))  # rows of c_{k+1}, then of E_{k+1}
    scale = _term_scale(n)
    G = np.zeros(((MAX_TERMS + d + 1) * m, cols), dtype=complex)
    G[d * m : d * m + n] = Y
    tol2 = (TAIL_FRACTION * tol) ** 2 * np.vdot(Y, Y).real
    small = 0
    for k in range(MAX_TERMS):
        out = G[(k + d + 1) * m : (k + d + 2) * m]
        np.multiply(M @ G[k * m : (k + d + 1) * m], scale[k], out=out)
        if np.vdot(out[:n], out[:n]).real <= tol2:
            small += 1
            if small == 2:
                terms = G[d * m : (k + d + 2) * m].reshape(k + 2, m, cols)
                return terms[:, :n].sum(axis=0)
        else:
            small = 0
    raise IntegrationError(
        f"Taylor series did not converge on segment {idx} ({leg}) at z = {z0:.6g}"
    )


@lru_cache(maxsize=None)
def _term_scale(n: int) -> np.ndarray:
    """scale[k] turns E_{k+1} into (c_{k+1}, E_{k+1}) = (E_{k+1} / (k + 1), E_{k+1})."""
    scale = np.ones((MAX_TERMS, 2 * n, 1))
    scale[:, :n, 0] = 1.0 / np.arange(1, MAX_TERMS + 1)[:, None]
    return scale


def integrate_path(
    sys: IrregularSystem, start: SolutionHandle, path: ZPath, tol: float = DEFAULT_TOL
) -> SolutionHandle:
    """Transport a solution handle along a path of the cover.

    The path must begin at the handle's basepoint (same z and same branch of
    arg).  The Wronskian drift |log det Y(end) - predicted| accumulates into
    the returned handle.
    """
    if not path.segments:
        return start
    s = path.start
    if abs(s.z - start.point.z) > 1e-9:
        raise ValueError("path does not start at the handle's basepoint")
    if abs(s.arg - start.point.arg) > 1e-9:
        raise BranchMismatchError(
            f"path starts on branch arg = {s.arg:.6g} but the handle sits on "
            f"arg = {start.point.arg:.6g}"
        )
    Y = transport_matrix(
        irregular_ode(sys), start.value, [seg.leg for seg in path.segments], tol=tol
    )
    end = path.end
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


def _frame(sys, r, cfg: StokesConfig) -> SectorFrame:
    return sector_bounds(
        sys.u, cfg.tau, r, widened=cfg.widened, uC=cfg.uC
    )


def _column_seed_directions(u, frame: SectorFrame, grid: int = 720):
    """Per-column seed directions: the deepest recessive angle in the sector.

    For column j the contamination of the truncated-series seed by other
    solutions scales like exp(|z| Re(e^{i theta}(u_j - u_i))); picking theta
    where u_j is most recessive against every other exponential drives those
    admixtures below the truncation error.  Returns (angles, margins) where
    margin > 0 means genuinely recessive with that depth.
    """
    u = np.asarray(u, dtype=complex)
    n = len(u)
    pad = min(0.05, 0.1 * frame.opening)
    thetas = np.linspace(frame.lo + pad, frame.hi - pad, grid)
    e = np.exp(1j * thetas)  # (grid,)
    best_angles = np.empty(n)
    best_margins = np.empty(n)
    for j in range(n):
        depth = np.full(grid, np.inf)
        total = np.zeros(grid)
        for i in range(n):
            if i == j or u[i] == u[j]:
                continue
            d = -np.real(e * (u[j] - u[i]))
            depth = np.minimum(depth, d)
            total += d
        if not np.any(np.isfinite(depth)):
            depth = np.zeros(grid)
        # tie-break flat plateaus (tightly coalescing pairs cap the min) in
        # favour of directions recessive against the remaining pairs too
        k = int(np.argmax(depth + 1e-3 * total))
        best_angles[j] = thetas[k]
        best_margins[j] = depth[k]
    return best_angles, best_margins


def _column_path(seed_pt: PathPoint, zstar: PathPoint, rho_arc: float) -> ZPath:
    """Radial leg in, argument sweep at moderate radius, radial leg out."""
    path = ZPath.radial(seed_pt, rho_arc)
    path = path.then(ZPath.arc(PathPoint.from_polar(rho_arc, seed_pt.arg), zstar.arg))
    if abs(zstar.radius - rho_arc) > 1e-12:
        path = path.then(
            ZPath.radial(PathPoint.from_polar(rho_arc, zstar.arg), zstar.radius)
        )
    return path


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
    frame = sector_bounds(sys.u, tau, r, widened=widened, uC=uC)
    if zstar is None:
        zstar = PathPoint.from_polar(radius, frame.midpoint)
    elif not frame.contains(zstar.arg):
        raise SectorError(
            f"zstar argument {zstar.arg:.6g} outside sector "
            f"({frame.lo:.6g}, {frame.hi:.6g})"
        )
    if fs is None:
        fs = compute_formal_coefficients(sys, K=order, coalesce_tol=coalesce_tol)
    k_opt, bound = optimal_truncation(fs, radius)
    angles, margins = _column_seed_directions(sys.u, frame)
    # a column seeded at recessive depth d against pair (i, j) can still pick
    # up an admixture of that solution at the e^{-R d} level (the Stokes
    # leakage of the sector boundary); with no recessive direction available
    # (d <= 0) the admixture is order of the pair's Stokes activity, which
    # near-coalescing pairs of vanishing-compatible families reduce with the
    # separation
    leakage = 0.0
    for j in range(sys.n):
        ej = np.exp(1j * float(angles[j]))
        for i in range(sys.n):
            if i == j or sys.u[i] == sys.u[j]:
                continue
            depth = -float(np.real(ej * (sys.u[j] - sys.u[i])))
            weight = min(1.0, float(abs(sys.u[i] - sys.u[j])))
            leakage = max(leakage, weight * math.exp(-radius * max(depth, 0.0)))
    # argument sweeps at large |z| let the dominant exponential swamp the
    # recessive one inside the relative tail criterion; sweep at moderate radius
    rho_max = float(np.max(np.abs(sys.u[:, None] - sys.u[None, :])))
    rho_arc = min(zstar.radius, radius, max(0.5, 4.0 / max(rho_max, 1e-6)))
    n = sys.n
    w_star = np.log(zstar.radius) + 1j * zstar.arg
    Y = np.empty((n, n), dtype=complex)
    for j in range(n):
        seed_pt = PathPoint.from_polar(radius, float(angles[j]))
        # transport in the column's own scalar gauge y e^{-z u_j} z^{-b_j},
        # which stays O(1) along the whole path, so the relative tail
        # criterion is meaningful for exponentially small columns
        col = eval_series_factor(fs, seed_pt.z, K=k_opt)[:, j]
        uj, bj = fs.u[j], fs.b[j]
        legs = [seg.leg for seg in _column_path(seed_pt, zstar, rho_arc).segments]
        tilde = transport_matrix(irregular_ode(sys, uj, bj), col, legs, tol=tol)
        Y[:, j] = tilde * np.exp(uj * zstar.z + bj * w_star)
    return SolutionHandle(
        system=sys,
        point=zstar,
        value=Y,
        provenance=f"formal-seeded({r})",
        seed_error=float(bound + leakage),
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


def stokes_matrix(sys: IrregularSystem, r: int, cfg: StokesConfig,
                  fs: FormalSolution | None = None,
                  coalesce_tol: float = 0.0) -> StokesResult:
    """S_r = Y_r(z*)^{-1} Y_{r+1}(z*) at the sector-overlap midpoint, |z*| = R/2.

    Both sectorial solutions are transported to the same point of the cover;
    the quotient is formed in the F-gauge and regraded entrywise, so required
    zeros are damped rather than amplified.
    """
    frame_r = _frame(sys, r, cfg)
    frame_r1 = _frame(sys, r + 1, cfg)
    lo, hi = frame_r1.lo, frame_r.hi
    if not hi - lo > 1e-9:
        raise SectorError(f"sectors {r} and {r + 1} do not overlap: ({lo}, {hi})")
    theta = 0.5 * (lo + hi)
    zstar = PathPoint.from_polar(cfg.radius / 2.0, theta)
    if fs is None:
        fs = compute_formal_coefficients(sys, K=cfg.order, coalesce_tol=coalesce_tol)
    Yr = actual_solution(
        sys, r, cfg.tau, radius=cfg.radius, zstar=zstar, tol=cfg.tol, fs=fs,
        widened=cfg.widened, uC=cfg.uC,
    )
    Yr1 = actual_solution(
        sys, r + 1, cfg.tau, radius=cfg.radius, zstar=zstar, tol=cfg.tol, fs=fs,
        widened=cfg.widened, uC=cfg.uC,
    )
    n = sys.n
    w = np.log(zstar.radius) + 1j * zstar.arg
    grading = np.exp(fs.b * w + zstar.z * sys.u)  # E(z*) diagonal
    Fr = Yr.value / grading[None, :]
    Fr1 = Yr1.value / grading[None, :]
    try:
        W = np.linalg.solve(Fr, Fr1)
    except np.linalg.LinAlgError as exc:
        raise IntegrationError(f"conditioning failure at z* = {zstar.z:.6g}: {exc}") from exc
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
    # seed admixtures act as basis-coefficient perturbations, so they enter
    # the quotient scaled by the size of S itself; regrading only amplifies
    # round-off and integration noise
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
    return SolutionHandle(system=sys, point=pt, value=Y0, provenance="levelt")


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
    frame = sector_bounds(sys.u, tau, r, widened=widened, uC=uC)
    if zstar is None:
        zstar = PathPoint.from_polar(radius / 2.0, frame.midpoint)
    elif not frame.contains(zstar.arg):
        raise SectorError("zstar outside the sector of Y_r")
    Yr = actual_solution(
        sys, r, tau, radius=radius, zstar=zstar, tol=tol, fs=fs,
        widened=widened, uC=uC,
    )
    lev = levelt_handle(sys, ld, zstar.arg)
    lev = integrate_path(sys, lev, ZPath.radial(lev.point, zstar.radius), tol=tol)
    return np.linalg.solve(lev.value, Yr.value)


def monodromy_loop(
    sys: IrregularSystem,
    start: SolutionHandle,
    winding: int = 1,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """M with Y(after loop) = Y(before) M for a loop of given winding around 0."""
    if winding == 0:
        return np.eye(sys.n, dtype=complex)
    after = integrate_path(sys, start, ZPath.loop(start.point, winding), tol=tol)
    return np.linalg.solve(start.value, after.value)
