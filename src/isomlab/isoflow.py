"""The nonlinear isomonodromy flow dA/du_j = [omega_j(0,u), A], and the
driver it shares with the Schlesinger flow of `fuchsian`.

omega_j(0,u) = [F_1(u), E_j] + D_j(u), with entries
A_ab (delta_aj - delta_bj)/(u_a - u_b) plus an optional diagonal gauge D_j.
Strong flows have D = 0; weak flows carry a polynomial diagonal D(u) whose
partials D_j = dD/du_j are differentiated exactly, so the closedness of
sum_j D_j du_j is automatic.  Along a velocity du the flow needs only
Omega = sum_j du_j omega_j(0) = A o K + diag(sum_j du_j D_j), with the
difference quotients K_ab = (du_a - du_b)/(u_a - u_b): one O(n^2) build and
one commutator per right-hand side.  `omega_zero_part` is the per-direction
reference.

Both nonlinear flows run through one driver: an exact coalescence guard
(every pair gap u_i - u_j is affine along a straight segment), one DOP853
call per segment with a budget of MAX_RHS_EVALS right-hand side
evaluations, and a `FlowTrace` sampled at TRACE_SAMPLES points per segment.

Also here: the Frobenius-integrability residual probed by finite
differences, the vanishing-order fit A_ij = O(u_i - u_j) used near the
coalescence locus, and the Laurent reduction of Pfaffian coefficients with
poles in z (downward Sylvester chain, which forces all negative coefficients
to vanish for non-resonant A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError, ResonanceError, WallError
from .geometry import segment_min_abs
from .matrixcore import as_square, solve_sylvester
from .odeengine import PathPoint

TRACE_SAMPLES = 17  # trace points per path segment, both ends included
# work budget of one flow segment: a segment of the tier-1 tests uses at
# most ~200 evaluations and a benchmark op ~1k in all, while DOP853 creeping
# past a near-collision (guard=0.0) would run on without end
MAX_RHS_EVALS = 20_000


@dataclass(frozen=True)
class DiagonalGauge:
    """Diagonal matrix function D(u) with polynomial entries.

    Each monomial is (entry index a, coefficient, exponent tuple); the entry
    D_aa(u) is the sum of its monomials c * prod_j u_j^{alpha_j}.  Partials
    are differentiated term by term, so D_j = dD/du_j exactly.
    """

    n: int
    terms: tuple[tuple[int, complex, tuple[int, ...]], ...]

    def __post_init__(self):
        for a, _, alpha in self.terms:
            if not 0 <= a < self.n:
                raise ValueError(f"gauge entry index {a} out of range")
            if len(alpha) != self.n:
                raise ValueError("monomial exponent tuple has wrong length")

    @staticmethod
    def linear(C) -> "DiagonalGauge":
        """D_aa(u) = sum_j C[a, j] u_j."""
        M = np.asarray(C, dtype=complex)
        n = M.shape[0]
        terms = []
        for a in range(n):
            for j in range(n):
                if M[a, j] != 0:
                    alpha = tuple(1 if k == j else 0 for k in range(n))
                    terms.append((a, complex(M[a, j]), alpha))
        return DiagonalGauge(n=n, terms=tuple(terms))

    def value(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=complex)
        out = np.zeros(self.n, dtype=complex)
        for a, c, alpha in self.terms:
            out[a] += c * np.prod(u**np.array(alpha))
        return out

    def partial(self, u, j: int) -> np.ndarray:
        """Diagonal of D_j(u) = dD/du_j."""
        u = np.asarray(u, dtype=complex)
        out = np.zeros(self.n, dtype=complex)
        for a, c, alpha in self.terms:
            if alpha[j] == 0:
                continue
            dalpha = list(alpha)
            dalpha[j] -= 1
            out[a] += c * alpha[j] * np.prod(u**np.array(dalpha))
        return out


@dataclass(frozen=True)
class DeformationState:
    """A point (u, A) of the deformation space, plus the gauge selecting the mode.

    gauge=None runs the strong flow (D = 0); a DiagonalGauge runs the weak
    flow.  Along strong flows diag(A) and the spectrum of A are invariants;
    along weak flows only the spectrum is.
    """

    u: np.ndarray
    A: np.ndarray
    gauge: DiagonalGauge | None = None

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex).reshape(-1)
        A = as_square(self.A)
        if A.shape[0] != len(u):
            raise ValueError("A and u dimensions disagree")
        if self.gauge is not None and self.gauge.n != len(u):
            raise ValueError("gauge dimension disagrees with u")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "A", A)

    @property
    def n(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class UPath:
    """Piecewise-straight path in u-space."""

    waypoints: tuple[np.ndarray, ...]

    def __post_init__(self):
        pts = tuple(np.asarray(w, dtype=complex).reshape(-1) for w in self.waypoints)
        if len(pts) < 2:
            raise ValueError("a path needs at least two waypoints")
        n = len(pts[0])
        for w in pts:
            if len(w) != n or not (
                np.all(np.isfinite(w.real)) and np.all(np.isfinite(w.imag))
            ):
                raise ValueError("waypoints must be finite and of equal length")
        object.__setattr__(self, "waypoints", pts)

    @staticmethod
    def line(a, b) -> "UPath":
        return UPath(waypoints=(a, b))

    def min_gap(self) -> float:
        """Smallest pairwise |u_i - u_j| along the path, exactly."""
        return min(_pair_gaps(self).values(), default=math.inf)


def _pair_gaps(path: UPath) -> dict[tuple[int, int], float]:
    """Exact minimum of |u_i - u_j| along the path, for each pair i < j."""
    W = np.array(path.waypoints)
    i, j = np.triu_indices(W.shape[1], 1)
    d = W[:, i] - W[:, j]
    gaps = segment_min_abs(d[:-1], d[1:]).min(axis=0)
    return dict(zip(zip(i.tolist(), j.tolist()), gaps.tolist()))


def omega_zero_part(A, u, j: int, Dj=None) -> np.ndarray:
    """omega_j(0,u): entry (a,b) = A_ab (delta_aj - delta_bj)/(u_a - u_b), plus D_j.

    Satisfies [Lambda, omega_j(0)] = [E_j, A] exactly, and the gauge-free
    parts telescope to zero over j.
    """
    A = as_square(A)
    u = np.asarray(u, dtype=complex).reshape(-1)
    n = A.shape[0]
    if not 0 <= j < n:
        raise ValueError(f"index j = {j} out of range")
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, 1.0)
    if np.any(np.abs(diff) == 0):
        raise WallError("coincident u entries; omega_j(0) has a pole there")
    P = A / diff
    W = np.zeros((n, n), dtype=complex)
    W[j, :] = P[j, :]
    W[:, j] = -P[:, j]
    W[j, j] = 0.0
    if Dj is not None:
        W = W + np.diag(np.asarray(Dj, dtype=complex).reshape(-1))
    return W


def _difference_quotients(u, du) -> np.ndarray:
    """K_ab = (du_a - du_b)/(u_a - u_b): zero on the diagonal, symmetric."""
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, 1.0)
    return (du[:, None] - du[None, :]) / diff


def _omega_sum(A, u, du, gauge=None) -> np.ndarray:
    """sum_j du_j omega_j(0,u) = A o K + diag(sum_j du_j D_j)."""
    Om = A * _difference_quotients(u, du)
    if gauge is not None:
        Om += np.diag(sum(du[j] * gauge.partial(u, j) for j in range(len(u))))
    return Om


@dataclass
class FlowTrace:
    """Samples of a flow: A is (m, n, n), or (m, N, n, n) residues for the
    Schlesinger flow; G and Y are the carried gauge and frame, if any."""

    t: np.ndarray
    u: np.ndarray
    A: np.ndarray
    G: np.ndarray | None = None
    Y: np.ndarray | None = None


@dataclass
class FlowResult:
    state: DeformationState
    trace: FlowTrace
    gauge_matrix: np.ndarray | None = None
    frame_value: np.ndarray | None = None


def _integrate(flow: str, path: UPath, y, rhs, tol: float, guard: float | None):
    """Integrate dy = rhs(u, du, y) dt from the complex vector y along each
    segment u = a + t du of the path.

    Refuses the path if some pair gap |u_i - u_j| falls below `guard`
    (default 1e-6 times the u scale) anywhere on it; the gaps are exact, so
    a pair that dips below the guard between waypoints is caught.  A
    segment that needs more than MAX_RHS_EVALS right-hand side evaluations
    raises IntegrationError naming the flow and the segment.  Returns
    the trace (t, u, y) at TRACE_SAMPLES points per segment, t running from
    0 to the number of segments; y[-1] is the end value.
    """
    if guard is None:
        guard = 1e-6 * max(1.0, float(np.max(np.abs(path.waypoints))))
    gap = path.min_gap()
    if gap < guard:
        close = sorted(p for p, g in _pair_gaps(path).items() if g < guard)
        raise WallError(
            f"{flow} path approaches the coalescence locus (min gap {gap:.3e} < "
            f"guard {guard:.3e}) for pairs {close}"
        )
    t_eval = np.linspace(0.0, 1.0, TRACE_SAMPLES)
    ts, us, ys = [], [], []
    for seg, (a, b) in enumerate(zip(path.waypoints[:-1], path.waypoints[1:])):
        du = b - a
        evals = 0

        def f(t, yv):
            nonlocal evals
            evals += 1
            if evals > MAX_RHS_EVALS:
                raise IntegrationError(
                    f"{flow} used up its budget of {MAX_RHS_EVALS} right-hand side "
                    f"evaluations on segment {seg} at t = {t:.6g}"
                )
            return rhs(a + t * du, du, yv)

        sol = solve_ivp(
            f, (0.0, 1.0), y, method="DOP853", rtol=tol, atol=tol, t_eval=t_eval,
        )
        if not sol.success:
            raise IntegrationError(f"{flow} failed on segment {seg}: {sol.message}")
        ts.append(seg + sol.t)
        us.append(a + sol.t[:, None] * du)
        ys.append(sol.y.T)
        y = sol.y[:, -1]
    return np.concatenate(ts), np.concatenate(us), np.concatenate(ys)


def integrate_flow(
    state: DeformationState,
    path: UPath,
    tol: float = 1e-11,
    rhs_sign: float = 1.0,
    carry_gauge=None,
    carry_frame: tuple[PathPoint, np.ndarray] | None = None,
    guard: float | None = None,
) -> FlowResult:
    """Integrate dA = sum_j [omega_j(0,u), A] du_j along a piecewise-straight path.

    Optionally co-integrates a gauge matrix G with dG = (sum_j omega_j(0) du_j) G
    (`carry_gauge` = initial G) and a fundamental-matrix frame at a fixed
    z-point with dY = sum_j (z E_j + omega_j(0)) du_j Y (`carry_frame` =
    (PathPoint, Y0)).  `rhs_sign` scales the whole right-hand side; -1 is the
    corrupted flow used by sensitivity checks.

    Paths whose exact minimal pair gap falls below `guard` (default 1e-6
    times the u scale) are refused with a WallError naming the pairs.
    """
    if len(path.waypoints[0]) != state.n:
        raise ValueError("path dimension disagrees with the state")
    if np.linalg.norm(path.waypoints[0] - state.u) > 1e-12:
        raise ValueError("path must start at the state's u")
    n, gauge = state.n, state.gauge
    blocks = [state.A]  # A, then the carried G and Y
    if carry_gauge is not None:
        blocks.append(carry_gauge)
    z = None
    if carry_frame is not None:
        z = carry_frame[0].z
        blocks.append(carry_frame[1])

    def rhs(u, du, y):
        X = y.reshape(-1, n, n)
        Om = _omega_sum(X[0], u, du, gauge)
        dX = Om @ X
        dX[0] -= X[0] @ Om
        if z is not None:
            dX[-1] += (z * du)[:, None] * X[-1]
        return rhs_sign * dX.ravel()

    y0 = np.concatenate([np.asarray(B, dtype=complex).ravel() for B in blocks])
    t, u, ys = _integrate("isomonodromy flow", path, y0, rhs, tol, guard)
    X = ys.reshape(len(t), -1, n, n)
    G = X[:, 1] if carry_gauge is not None else None
    Y = X[:, -1] if carry_frame is not None else None
    trace = FlowTrace(t=t, u=u, A=X[:, 0], G=G, Y=Y)
    final = DeformationState(u=path.waypoints[-1], A=X[-1, 0], gauge=gauge)
    return FlowResult(
        state=final, trace=trace,
        gauge_matrix=None if G is None else G[-1],
        frame_value=None if Y is None else Y[-1],
    )


def integrability_residual(state: DeformationState, h: float = 1e-5,
                           rhs_sign: float = 1.0) -> float:
    """Max-norm Frobenius mismatch d_k omega_j(0) - d_j omega_k(0) + [omega_j, omega_k].

    Partial derivatives are centered finite differences taken along the flow
    itself: A(u +- h e_k) is obtained by integrating the deformation equations
    over the short displacement, so a corrupted flow (`rhs_sign` = -1) shows
    up as an O(1) residual while a faithful one converges at O(h^2).  For
    n = 2 the residual vanishes structurally (omega_1 = -omega_0 plus
    translation invariance), so sensitivity checks need n >= 3.
    """
    n = state.n
    u0 = state.u

    def omega_at(u_disp, A_disp, j):
        Dj = state.gauge.partial(u_disp, j) if state.gauge is not None else None
        return omega_zero_part(A_disp, u_disp, j, Dj=Dj)

    # displaced states along the flow
    disp = {}
    for k in range(n):
        for sgn in (+1, -1):
            target = u0.copy()
            target[k] += sgn * h
            res = integrate_flow(
                state, UPath.line(u0, target), tol=1e-12, rhs_sign=rhs_sign
            )
            disp[(k, sgn)] = res.state

    W0 = [omega_at(u0, state.A, j) for j in range(n)]
    worst = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            sp, sm = disp[(k, +1)], disp[(k, -1)]
            dWj_duk = (omega_at(sp.u, sp.A, j) - omega_at(sm.u, sm.A, j)) / (2 * h)
            sp, sm = disp[(j, +1)], disp[(j, -1)]
            dWk_duj = (omega_at(sp.u, sp.A, k) - omega_at(sm.u, sm.A, k)) / (2 * h)
            resid = dWj_duk - dWk_duj + W0[j] @ W0[k] - W0[k] @ W0[j]
            worst = max(worst, float(np.linalg.norm(resid, 2)))
    return worst


@dataclass(frozen=True)
class VanishingFit:
    slope: float
    intercept: float
    pair: tuple[int, int]
    passed: bool
    gaps: np.ndarray
    magnitudes: np.ndarray


def vanishing_order_check(gaps, magnitudes, pair=(0, 1), slope_threshold: float = 0.9,
                          floor: float = 1e-13) -> VanishingFit:
    """Fit log|A_ij| against log|u_i - u_j| and compare the slope to 0.9.

    Entries identically below `floor` pass with slope = +inf (the zero-entry
    convention).  Requires at least 5 samples.
    """
    g = np.asarray(gaps, dtype=float)
    m = np.asarray(magnitudes, dtype=float)
    if len(g) != len(m) or len(g) < 5:
        raise ValueError("need at least 5 (gap, magnitude) samples")
    if np.all(m <= floor):
        return VanishingFit(
            slope=math.inf, intercept=-math.inf, pair=tuple(pair), passed=True,
            gaps=g, magnitudes=m,
        )
    mask = m > floor
    x, yv = np.log(g[mask]), np.log(m[mask])
    slope, intercept = np.polyfit(x, yv, 1)
    return VanishingFit(
        slope=float(slope),
        intercept=float(intercept),
        pair=tuple(pair),
        passed=bool(slope >= slope_threshold),
        gaps=g,
        magnitudes=m,
    )


def vanishing_from_trace(trace: FlowTrace, pair: tuple[int, int],
                         slope_threshold: float = 0.9) -> VanishingFit:
    """Vanishing-order fit taken directly off a flow trace.

    Uses the sampled gaps |u_i - u_j| and entry magnitudes |A_ij| of the
    trace; the trace should approach the coalescence locus monotonically in
    the fitted pair.
    """
    i, j = pair
    gaps = np.abs(trace.u[:, i] - trace.u[:, j])
    mags = np.abs(trace.A[:, i, j])
    return vanishing_order_check(gaps, mags, pair=pair, slope_threshold=slope_threshold)


@dataclass(frozen=True)
class LaurentCoefficients:
    """Laurent data of one Pfaffian coefficient omega_j(z, u) at z = 0."""

    j: int
    negative: tuple[np.ndarray, ...]  # omega^(-p) .. omega^(-1)
    omega0: np.ndarray | None
    positive: tuple[np.ndarray, ...]  # omega^(1), omega^(2), ...


@dataclass(frozen=True)
class LaurentReport:
    forced_zero_norms: tuple[float, ...]
    diag_rule_residual: float
    truncated_positive: int


def laurent_reduce(
    A,
    u,
    raw: LaurentCoefficients,
    n_positive: int = 3,
    tol: float = 1e-8,
) -> tuple[LaurentCoefficients, LaurentReport]:
    """Reduce a Laurent Pfaffian coefficient against a non-resonant residue A.

    Downward chain ((A + m) X - X A = [previous, Lambda], m = p..1): for
    non-resonant A each operator is invertible, so every negative coefficient
    comes out zero.  The z^0 relation determines the off-diagonal of
    omega^(0) from omega^(1) and constrains diag(omega^(1)); the upward chain
    then propagates omega^(m+1) from omega^(m).  Resonant A raises
    ResonanceError naming the eigenvalue pair.
    """
    A = as_square(A)
    u = np.asarray(u, dtype=complex).reshape(-1)
    n = A.shape[0]
    j = raw.j
    if not 0 <= j < n:
        raise ValueError("coefficient index out of range")
    Lam = np.diag(u)
    eye = np.eye(n, dtype=complex)

    p = len(raw.negative)
    negative = []
    forced = []
    prev = np.zeros((n, n), dtype=complex)
    for m in range(p, 0, -1):
        rhs = prev @ Lam - Lam @ prev  # [prev, Lambda] with prev = omega^(-m-1)
        try:
            X = solve_sylvester(A + m * eye, A, rhs, tol=tol)
        except ResonanceError as exc:
            raise ResonanceError(
                f"Laurent reduction blocked at order -{m}: {exc}", pair=exc.pair,
                order=-m,
            ) from exc
        negative.append(X)
        forced.append(float(np.linalg.norm(X, 2)))
        prev = X
    negative.reverse()  # stored omega^(-p) .. omega^(-1)

    om1 = raw.positive[0] if raw.positive else _unit_diag(n, j)
    om1 = as_square(om1)
    # diagonal rule of the z^0 relation
    diag_expected = np.zeros(n, dtype=complex)
    for a in range(n):
        s = 1.0 if a == j else 0.0
        acc = sum(
            om1[a, b] * A[b, a] - A[a, b] * om1[b, a] for b in range(n) if b != a
        )
        diag_expected[a] = s - acc
    diag_resid = float(np.max(np.abs(np.diag(om1) - diag_expected)))

    # off-diagonal of omega^(0); the diagonal is the gauge freedom D_j
    comm = om1 @ A - A @ om1
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, 1.0)
    if np.any(diff == 0):
        raise WallError("coincident u entries in Laurent reduction")
    om0 = (comm + om1) / diff
    np.fill_diagonal(om0, 0.0)
    if raw.omega0 is not None:
        om0 += np.diag(np.diag(as_square(raw.omega0)))

    positive = [om1]
    prev = om1
    for m in range(1, n_positive):
        rhs = prev @ Lam - Lam @ prev
        X = solve_sylvester(A - (m + 1) * eye, A, rhs, tol=tol)
        positive.append(X)
        prev = X

    out = LaurentCoefficients(
        j=j, negative=tuple(negative), omega0=om0, positive=tuple(positive)
    )
    report = LaurentReport(
        forced_zero_norms=tuple(forced),
        diag_rule_residual=diag_resid,
        truncated_positive=n_positive,
    )
    return out, report


def _unit_diag(n, j):
    E = np.zeros((n, n), dtype=complex)
    E[j, j] = 1.0
    return E
