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

Both nonlinear flows run through one driver, `_integrate`: an exact
coalescence guard (every pair gap u_i - u_j is affine along a straight
segment), then Chebyshev-Picard collocation steps (Clenshaw & Norton,
Computer J. 6, 1963; Bai & Junkins, J. Astronaut. Sci. 58, 2011), each sweep
one right-hand side over all COLLOCATION_NODES nodes of the step.  The node
axis is the last axis of every stack, so that the many 2x2 to 4x4 products
of a right-hand side run as elementwise numpy loops along it.

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
from scipy.integrate import solve_ivp  # noqa: F401  unused; perfbench/layertrace.py rebinds it

from .errors import IntegrationError, ResonanceError, WallError
from .geometry import segment_min_abs
from .matrixcore import as_square, solve_sylvester
from .odeengine import TAIL_FRACTION

TRACE_SAMPLES = 17  # trace points per path segment, both ends included
COLLOCATION_NODES = 16  # Chebyshev-Lobatto nodes of a flow step
MAX_SWEEPS = 40  # Picard sweeps of one step before it is rejected
MAX_STEPS = 1000  # step budget of one flow segment, accepted and rejected steps
STEP_FLOOR = 0.25  # shortest step, in units of the default guard (see _integrate)


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
        """Diagonal of D_j(u) = dD/du_j; u may carry trailing axes."""
        u = np.asarray(u, dtype=complex)
        out = np.zeros(u.shape, dtype=complex)
        for a, c, alpha in self.terms:
            if alpha[j] == 0:
                continue
            dalpha = list(alpha)
            dalpha[j] -= 1
            out[a] += c * alpha[j] * np.prod(np.moveaxis(u, 0, -1) ** np.array(dalpha), axis=-1)
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
    """K_ab = (du_a - du_b)/(u_a - u_b): zero on the diagonal, symmetric.
    u may carry trailing axes (points of a step), and K then carries them."""
    n = len(u)
    diff = u[:, None] - u[None, :]
    diff[range(n), range(n)] = 1.0
    dd = du[:, None] - du[None, :]
    return dd.reshape(dd.shape + (1,) * (u.ndim - 1)) / diff


def _omega_sum(A, u, du, K, gauge=None) -> np.ndarray:
    """sum_j du_j omega_j(0,u) = A o K + diag(sum_j du_j D_j), for one (A, u)
    or for A (n, n, ...) and u (n, ...) with the same trailing axes; K is
    _difference_quotients(u, du), built once per step by the caller."""
    Om = A * K
    if gauge is not None:
        n = len(u)
        Om[range(n), range(n)] += sum(du[j] * gauge.partial(u, j) for j in range(n))
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


def _chebyshev_tables(p: int):
    """Chebyshev-Lobatto nodes of [0, 1], ascending, and two matrices acting
    on node values from the right (the node axis is the last): to the
    Chebyshev coefficients of their degree p - 1 interpolant, and, for the
    values of an integrand, to the values of its integral from 0."""
    theta = np.pi * np.arange(p - 1, -1, -1) / (p - 1)
    values = np.cos(np.outer(theta, np.arange(p + 1)))  # T_k at the nodes
    to_coeffs = np.linalg.inv(values[:, :p])
    # antiderivative of T_k on [-1, 1]: T_{k+1}/2(k+1) - T_{k-1}/2(k-1)
    # (T_1 for k = 0, T_2/4 for k = 1), made to vanish at -1
    anti = np.zeros((p + 1, p))
    anti[1, 0] = 1.0
    for k in range(1, p):
        anti[k + 1, k] = 1.0 / (2 * (k + 1))
        if k >= 2:
            anti[k - 1, k] = -1.0 / (2 * (k - 1))
    anti[0] = -((-1.0) ** np.arange(p + 1)) @ anti
    integrate = 0.5 * values @ anti @ to_coeffs  # dt = (h / 2) dtau
    return (1.0 + np.cos(theta)) / 2.0, to_coeffs.T, integrate.T


NODES, TO_COEFFS, INTEGRATE = _chebyshev_tables(COLLOCATION_NODES)


def _sweeps(f, y, h: float, tol: float):
    """Node values (len(y), p) of one collocation step from y over a time h,
    or None if the step is rejected.

    Picard sweeps X <- y + h f(X) S, S the integration matrix of the nodes,
    run from X = y.  The step is accepted when a sweep moves no component by
    more than TAIL_FRACTION * tol times its scale 1 + |y| and the last two
    Chebyshev coefficients of X are within tol times that scale.  A sweep
    that moves X no less than the one before has either reached the noise
    floor of the sweeps, which for a large state can lie above
    TAIL_FRACTION * tol of its small components, and ends the sweeps if it
    moved no component by more than tol (1 + max |y|); or else h is too
    long for the iteration to contract, and the step is abandoned there,
    long before anything could overflow.  So is a step that has not
    converged after MAX_SWEEPS sweeps.
    """
    y = y[:, None]
    scale = 1.0 + np.abs(y)
    noise = tol * float(scale.max())
    X = np.broadcast_to(y, (len(y), len(NODES)))
    last = np.inf
    for _ in range(MAX_SWEEPS):
        new = y + h * (f(X) @ INTEGRATE)
        diff = np.abs(new - X)
        moved = float((diff / scale).max())
        X = new
        if moved <= TAIL_FRACTION * tol:
            break
        if not moved < last:  # noise floor once within tol, else no contraction
            if diff.max() <= noise:
                break
            return None
        last = moved
    else:
        return None
    tail = (np.abs(X @ TO_COEFFS[:, -2:]) / scale).max()
    return X if tail <= tol else None


def _integrate(flow: str, path: UPath, y, field, tol: float, guard: float | None):
    """Integrate dy/dt = f(y) from the complex vector y along each segment
    u = a + t du of the path.  `field(u, du)` returns f at the nodes u of a
    step, (n, p): a function of the (len(y), p) stack of y at those nodes.

    Refuses the path if some pair gap |u_i - u_j| falls below `guard`
    (default 1e-6 times the u scale) anywhere on it; the gaps are exact, so
    a pair that dips below the guard between waypoints is caught.  Each
    step is a collocation step on COLLOCATION_NODES Chebyshev-Lobatto nodes
    (see `_sweeps`).  The collisions u_i = u_j of a segment lie at complex
    times c, where the solution may be singular; a step [t, t + h] keeps
    every c outside the Bernstein ellipse about it on which the Chebyshev
    coefficients of an analytic solution fall off like rho^-k, with
    rho = tol^(-1/(p - 2)) so that the tail test of `_sweeps` passes:
    h <= 2 (a |c - t| - Re(c - t)) / (a^2 - 1), a = (rho + 1/rho) / 2.
    h is also at most the rest of the segment and twice the last step (once
    the last step, if that one was halved); a rejected step is halved.
    Near a collision at a gap g this keeps h >= 2 g / (|du_i - du_j|
    sqrt(a^2 - 1)), 0.6 g / |du_i - du_j| at tol = 1e-11.  A step shorter
    than STEP_FLOOR times the default guard over max |du_i - du_j| raises
    IntegrationError naming the flow and the segment: the path passes a
    collision closer than the default guard admits (possible with
    guard=0.0), or the state grows so fast that the sweeps contract only on
    such steps.  So does a segment that needs more than MAX_STEPS steps,
    accepted and rejected, which bounds its work to MAX_STEPS * MAX_SWEEPS
    right-hand sides.
    Returns the trace (t, u, y) at TRACE_SAMPLES points per segment, read
    off the step interpolants, t running from 0 to the number of segments;
    y[-1] is the end value.
    """
    default = 1e-6 * max(1.0, float(np.max(np.abs(path.waypoints))))
    if guard is None:
        guard = default
    gap = path.min_gap()
    if gap < guard:
        close = sorted(p for p, g in _pair_gaps(path).items() if g < guard)
        raise WallError(
            f"{flow} path approaches the coalescence locus (min gap {gap:.3e} < "
            f"guard {guard:.3e}) for pairs {close}"
        )
    rho = tol ** (-1.0 / (COLLOCATION_NODES - 2))
    a2 = ((rho + 1.0 / rho) / 2.0) ** 2
    t_eval = np.linspace(0.0, 1.0, TRACE_SAMPLES)
    degrees = np.arange(COLLOCATION_NODES)
    i, j = np.triu_indices(len(path.waypoints[0]), 1)
    ts, us, ys = [], [], []
    for seg, (a, b) in enumerate(zip(path.waypoints[:-1], path.waypoints[1:])):
        du = b - a
        rate = np.abs(du[i] - du[j])
        moving = rate > 0
        collide = (a[j] - a[i])[moving] / (du[i] - du[j])[moving]  # complex t
        fastest = float(np.max(rate, initial=0.0))
        floor = STEP_FLOOR * default / fastest if fastest > 0 else 0.0
        samples = [y[None]]
        t, h, steps, k = 0.0, math.inf, 0, 1  # k: next trace sample
        while t < 1.0:
            c = collide - t
            reach = 2.0 * np.min(np.sqrt(a2) * np.abs(c) - c.real, initial=math.inf) / (a2 - 1.0)
            h = min(1.0 - t, float(reach), h)
            grow = 2.0
            while True:
                steps += 1
                if steps > MAX_STEPS:
                    raise IntegrationError(
                        f"{flow} used up its budget of {MAX_STEPS} steps on "
                        f"segment {seg} at t = {t:.6g}"
                    )
                if h < min(floor, 1.0 - t):
                    raise IntegrationError(
                        f"{flow} needs steps shorter than {floor:.3e} on segment "
                        f"{seg} at t = {t:.6g}, closer to a collision than the "
                        f"default guard admits or with a state growing that fast"
                    )
                X = _sweeps(field(a[:, None] + (t + h * NODES) * du[:, None], du), y, h, tol)
                if X is not None:
                    break
                h, grow = h / 2, 1.0
            t_end = 1.0 if h >= 1.0 - t else t + h
            end = k + int(np.searchsorted(t_eval[k:], t_end, side="right"))
            if end > k:
                tau = np.clip(2.0 * (t_eval[k:end] - t) / h - 1.0, -1.0, 1.0)
                T = np.cos(np.outer(degrees, np.arccos(tau)))  # T_k at the samples
                samples.append((X @ TO_COEFFS @ T).T)
                k = end
            y, t, h = X[:, -1], t_end, grow * h
        samples[-1][-1] = y  # the end value itself, not its interpolant
        ts.append(seg + t_eval)
        us.append(a + t_eval[:, None] * du)
        ys.append(np.concatenate(samples))
    return np.concatenate(ts), np.concatenate(us), np.concatenate(ys)


def integrate_flow(
    state: DeformationState,
    path: UPath,
    tol: float = 1e-11,
    rhs_sign: float = 1.0,
    carry_gauge=None,
    carry_frame: tuple[complex, np.ndarray] | None = None,
    guard: float | None = None,
) -> FlowResult:
    """Integrate dA = sum_j [omega_j(0,u), A] du_j along a piecewise-straight path.

    Optionally co-integrates a gauge matrix G with dG = (sum_j omega_j(0) du_j) G
    (`carry_gauge` = initial G) and a fundamental-matrix frame at a fixed
    z-point with dY = sum_j (z E_j + omega_j(0)) du_j Y (`carry_frame` =
    (z, Y0)).  `rhs_sign` scales the whole right-hand side; -1 is the
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
        z = complex(carry_frame[0])
        blocks.append(carry_frame[1])

    def field(u, du):
        K = _difference_quotients(u, du)

        def f(y):
            X = y.reshape(-1, n, n, y.shape[-1])
            Om = _omega_sum(X[0], u, du, K, gauge)
            dX = np.einsum("ab...,kbc...->kac...", Om, X)
            dX[0] -= np.einsum("ab...,bc...->ac...", X[0], Om)
            if z is not None:
                dX[-1] += (z * du)[:, None, None] * X[-1]
            return rhs_sign * dX.reshape(y.shape)

        return f

    y0 = np.concatenate([np.asarray(B, dtype=complex).ravel() for B in blocks])
    t, u, ys = _integrate("isomonodromy flow", path, y0, field, tol, guard)
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
