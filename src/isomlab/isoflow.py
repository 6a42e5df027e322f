"""The nonlinear isomonodromy flow dA/du_j = [omega_j(0,u), A], and the
driver it shares with the Schlesinger flow of `fuchsian`.  Both flows take
a system (here the point (u, A) of the deformation space, which is the
`IrregularSystem` dY/dz = (Lambda(u) + A/z) Y) and return it at the end of
their path, with the end values of the matrices they were asked to carry.

omega_j(0,u) = [F_1(u), E_j], with entries
A_ab (delta_aj - delta_bj)/(u_a - u_b): the strong flow, which keeps diag(A)
as well as the spectrum of A.  Along a velocity du the flow needs only
Omega = sum_j du_j omega_j(0) = A o K, with the difference quotients
K_ab = (du_a - du_b)/(u_a - u_b): one O(n^2) build and one commutator per
right-hand side.  `omega_zero_part` is the per-direction reference.

Both nonlinear flows run through one driver, `_integrate`: an exact
coalescence guard (every pair gap u_i - u_j is affine along a straight
segment), then Chebyshev-Picard collocation steps (Clenshaw & Norton,
Computer J. 6, 1963; Bai & Junkins, J. Astronaut. Sci. 58, 2011), each sweep
one right-hand side over all COLLOCATION_NODES nodes of the step.  The node
axis is the last axis of every stack, so that the many 2x2 to 4x4 products
of a right-hand side run as elementwise numpy loops along it.

Also here: the Frobenius-integrability residual, in closed form from the
flow's own right-hand side; the vanishing-order fit A_ij = O(u_i - u_j) used
near the coalescence locus; and the Laurent reduction of Pfaffian
coefficients with poles in z (downward Sylvester chain, which forces all
negative coefficients to vanish for non-resonant A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401  unused; perfbench/layertrace.py rebinds it

from .errors import IntegrationError, ResonanceError, WallError
from .formal import IrregularSystem
from .geometry import segment_min_abs
from .matrixcore import as_square, solve_sylvester
from .odeengine import TAIL_FRACTION

COLLOCATION_NODES = 16  # Chebyshev-Lobatto nodes of a flow step
MAX_SWEEPS = 40  # Picard sweeps of one step before it is rejected
MAX_STEPS = 1000  # step budget of one flow segment, accepted and rejected steps
STEP_FLOOR = 0.25  # shortest step, in units of a pair's gap scale (see _integrate)
# laurent_reduce: the relative spectral gap below which a chain operator is resonant
SYLVESTER_TOL = 1e-8
SLOPE_THRESHOLD = 0.9  # vanishing_order_check: the least slope of a passing fit


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


def omega_zero_part(A, u, j: int) -> np.ndarray:
    """omega_j(0,u): entry (a,b) = A_ab (delta_aj - delta_bj)/(u_a - u_b).

    Satisfies [Lambda, omega_j(0)] = [E_j, A] exactly, and telescopes to
    zero over j.
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
    return W


def _difference_quotients(u, du) -> np.ndarray:
    """K_ab = (du_a - du_b)/(u_a - u_b): zero on the diagonal, symmetric.
    u may carry trailing axes (points of a step), and K then carries them."""
    n = len(u)
    diff = u[:, None] - u[None, :]
    diff[range(n), range(n)] = 1.0
    dd = du[:, None] - du[None, :]
    return dd.reshape(dd.shape + (1,) * (u.ndim - 1)) / diff


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


def _integrate(flow: str, path: UPath, start, y, field, tol: float, guard: float | None):
    """Integrate dy/dt = f(y) from the complex vector y along each segment
    u = a + t du of the path.  `field(u, du)` returns f at the nodes u of a
    step, (n, p): a function of the (len(y), p) stack of y at those nodes.
    The path must start at `start`, the system's u or poles.

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
    sqrt(a^2 - 1)), 0.6 g / |du_i - du_j| at tol = 1e-11.  The gap scale
    of a pair is the default guard, or its gap at an end of the segment
    where that is smaller (as on the rays out of a coalescence point, whose
    gaps are all of that order).  A step shorter than STEP_FLOOR times the
    least, over the moving pairs, of gap scale over |du_i - du_j| raises
    IntegrationError naming the flow and the segment: the path passes a
    collision closer than its ends and the default guard admit (possible
    with guard=0.0), or the state grows so fast that the sweeps contract
    only on such steps.  So does a segment that needs more than MAX_STEPS
    steps, accepted and rejected, which bounds its work to
    MAX_STEPS * MAX_SWEEPS right-hand sides.
    Returns y at the path's end.
    """
    w0 = path.waypoints[0]
    if len(w0) != len(start):
        raise ValueError(f"{flow} path has dimension {len(w0)}, the system {len(start)}")
    if np.linalg.norm(w0 - start) > 1e-12:
        raise ValueError(f"{flow} path starts at {w0}, not at the system's {start}")
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
    i, j = np.triu_indices(len(path.waypoints[0]), 1)
    for seg, (a, b) in enumerate(zip(path.waypoints[:-1], path.waypoints[1:])):
        du = b - a
        rate = np.abs(du[i] - du[j])
        moving = rate > 0
        collide = (a[j] - a[i])[moving] / (du[i] - du[j])[moving]  # complex t
        scale = np.minimum(default, np.minimum(np.abs(a[i] - a[j]), np.abs(b[i] - b[j])))
        floor = float(np.min(STEP_FLOOR * scale[moving] / rate[moving])) if moving.any() else 0.0
        t, h, steps = 0.0, math.inf, 0
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
                        f"{seg} at t = {t:.6g}, closer to a collision than its ends "
                        f"and the default guard admit or with a state growing that fast"
                    )
                X = _sweeps(field(a[:, None] + (t + h * NODES) * du[:, None], du), y, h, tol)
                if X is not None:
                    break
                h, grow = h / 2, 1.0
            t_end = 1.0 if h >= 1.0 - t else t + h
            y, t, h = X[:, -1], t_end, grow * h
    return y


def integrate_flow(
    sys: IrregularSystem,
    path: UPath,
    tol: float = 1e-11,
    rhs_sign: float = 1.0,
    carry_gauge=None,
    guard: float | None = None,
) -> tuple[IrregularSystem, tuple[np.ndarray, ...]]:
    """Integrate dA = sum_j [omega_j(0,u), A] du_j along a piecewise-straight
    path from sys.u; returns the system at the path's end and a tuple of
    the end values of the matrices it was asked to carry: (G,) or ().

    Optionally co-integrates a gauge matrix G with dG = (sum_j omega_j(0) du_j) G
    (`carry_gauge` = initial G).  `rhs_sign` scales the whole right-hand
    side; -1 is the corrupted flow used by sensitivity checks.

    Paths whose exact minimal pair gap falls below `guard` (default 1e-6
    times the u scale) are refused with a WallError naming the pairs.
    """
    n = sys.n
    blocks = [sys.A]  # A, then the carried G
    if carry_gauge is not None:
        blocks.append(carry_gauge)

    def field(u, du):
        K = _difference_quotients(u, du)

        def f(y):
            X = y.reshape(-1, n, n, y.shape[-1])
            Om = X[0] * K  # sum_j du_j omega_j(0)
            dX = np.einsum("ab...,kbc...->kac...", Om, X)
            dX[0] -= np.einsum("ab...,bc...->ac...", X[0], Om)
            return rhs_sign * dX.reshape(y.shape)

        return f

    y0 = np.concatenate([np.asarray(B, dtype=complex).ravel() for B in blocks])
    y = _integrate("isomonodromy flow", path, sys.u, y0, field, tol, guard)
    A, *carried = y.reshape(-1, n, n)
    return IrregularSystem(u=path.waypoints[-1], A=A), tuple(carried)


def integrability_residual(sys: IrregularSystem, rhs_sign: float = 1.0) -> float:
    """Largest spectral norm, over j < k, of the Frobenius mismatch
    d_k omega_j(0) - d_j omega_k(0) + [omega_j, omega_k] along the flow.

    In closed form (Jimbo, Miwa & Ueno, Physica D 2, 1981): along the flow
    dA/du_k = rhs_sign [omega_k, A], and omega_j(0) is linear in A, so
    d_k omega_j = omega_zero_part(dA/du_k, u, j) + (explicit u-partial).
    The explicit u-partials
    -A_ab (delta_aj - delta_bj)(delta_ak - delta_bk)/(u_a - u_b)^2 are
    symmetric in j and k and cancel.  So a faithful flow reads round-off
    and a corrupted one (`rhs_sign` = -1) O(1).  For n = 2 the residual
    vanishes structurally (omega_1 = -omega_0 plus translation invariance),
    so sensitivity checks need n >= 3.
    """
    n, u, A = sys.n, sys.u, sys.A
    W = [omega_zero_part(A, u, j) for j in range(n)]
    dA = [rhs_sign * (Wk @ A - A @ Wk) for Wk in W]
    worst = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            resid = (omega_zero_part(dA[k], u, j) - omega_zero_part(dA[j], u, k)
                     + W[j] @ W[k] - W[k] @ W[j])
            worst = max(worst, float(np.linalg.norm(resid, 2)))
    return worst


@dataclass(frozen=True)
class VanishingFit:
    slope: float
    passed: bool
    magnitudes: np.ndarray


def vanishing_order_check(gaps, magnitudes, floor: float = 1e-13) -> VanishingFit:
    """Fit log|A_ij| against log|u_i - u_j| and compare the slope to
    SLOPE_THRESHOLD.

    Entries identically below `floor` pass with slope = +inf (the zero-entry
    convention).  One sample above `floor` fixes no line: it passes the same
    way if it is the sample at the largest gap, and otherwise fails with
    slope = -inf.  Requires at least 5 samples, at finite positive gaps.
    """
    g = np.asarray(gaps, dtype=float)
    m = np.asarray(magnitudes, dtype=float)
    if len(g) != len(m) or len(g) < 5:
        raise ValueError("need at least 5 (gap, magnitude) samples")
    if not np.all(np.isfinite(g) & (g > 0)):
        raise ValueError(f"gaps must be finite and positive, got {g}")
    mask = m > floor
    if np.count_nonzero(mask) > 1:
        slope = float(np.polyfit(np.log(g[mask]), np.log(m[mask]), 1)[0])
        passed = slope >= SLOPE_THRESHOLD
    else:
        passed = not mask.any() or bool(mask[np.argmax(g)])
        slope = math.inf if passed else -math.inf
    return VanishingFit(slope=slope, passed=passed, magnitudes=m)


@dataclass(frozen=True)
class LaurentCoefficients:
    """Laurent data of one Pfaffian coefficient omega_j(z, u) at z = 0."""

    j: int
    negative: tuple[np.ndarray, ...]  # omega^(-p) .. omega^(-1)
    omega0: np.ndarray | None
    positive: tuple[np.ndarray, ...]  # omega^(1), omega^(2), ...


def laurent_reduce(
    A,
    u,
    raw: LaurentCoefficients,
    n_positive: int = 3,
) -> tuple[LaurentCoefficients, float]:
    """Reduce a Laurent Pfaffian coefficient against a non-resonant residue A.

    Downward chain ((A + m) X - X A = [previous, Lambda], m = p..1): for
    non-resonant A each operator is invertible, so every negative coefficient
    comes out zero.  The z^0 relation determines the off-diagonal of
    omega^(0) from omega^(1) and constrains diag(omega^(1)); the upward chain
    then propagates omega^(m+1) from omega^(m).  The diagonal of the
    returned omega^(0), the gauge freedom D_j, is zero; `raw.omega0` is not
    read.  Resonant A raises ResonanceError naming the eigenvalue pair.
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
    prev = np.zeros((n, n), dtype=complex)
    for m in range(p, 0, -1):
        rhs = prev @ Lam - Lam @ prev  # [prev, Lambda] with prev = omega^(-m-1)
        try:
            X = solve_sylvester(A + m * eye, A, rhs, tol=SYLVESTER_TOL)
        except ResonanceError as exc:
            raise ResonanceError(
                f"Laurent reduction blocked at order -{m}: {exc}", pair=exc.pair,
                order=-m,
            ) from exc
        negative.append(X)
        prev = X
    negative.reverse()  # stored omega^(-p) .. omega^(-1)

    om1 = raw.positive[0] if raw.positive else np.diag(np.eye(n, dtype=complex)[j])
    om1 = as_square(om1)
    # the z^0 relation: its diagonal is the rule diag(omega^(1)) = e_j -
    # diag([omega^(1), A]), its off-diagonal gives omega^(0), whose diagonal
    # is the gauge freedom D_j
    comm = om1 @ A - A @ om1
    diag_resid = float(np.max(np.abs(np.diag(om1) - (eye[j] - np.diag(comm)))))
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, 1.0)
    if np.any(diff == 0):
        raise WallError("coincident u entries in Laurent reduction")
    om0 = (comm + om1) / diff
    np.fill_diagonal(om0, 0.0)

    positive = [om1]
    prev = om1
    for m in range(1, n_positive):
        rhs = prev @ Lam - Lam @ prev
        X = solve_sylvester(A - (m + 1) * eye, A, rhs, tol=SYLVESTER_TOL)
        positive.append(X)
        prev = X

    out = LaurentCoefficients(
        j=j, negative=tuple(negative), omega0=om0, positive=tuple(positive)
    )
    return out, diag_resid
