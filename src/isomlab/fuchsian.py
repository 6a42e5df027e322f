"""Fuchsian systems dY/dz = sum_i A_i/(z - u_i) Y with sum_i A_i = 0.

Schlesinger flow dA_i = sum_{j != i} [A_j, A_i] d(u_j - u_i)/(u_j - u_i),
integrated by the flow driver of `isoflow` (exact pole-collision guard, a
path that must start at the poles) with the right-hand side
dA_i = [sum_j K_ij A_j, A_i], K the difference quotients of the pole
velocities; it takes a system and returns it at the path's end, as
`isoflow.integrate_flow` does, with nothing carried.  `schlesinger_rhs` is
the per-direction reference.  Also numeric monodromy with a deterministic
loop basis from the one basepoint `default_basepoint` (`monodromy_plan`,
one engine batch for any number of systems), the finite-difference
Schlesinger residual separating strong (Schlesinger) from weak
(non-Schlesinger) families, and the explicit rational counterexample
family with trivial monodromy but u-dependent connection matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401  unused; perfbench/layertrace.py rebinds it

from .errors import WallError
from .matrixcore import as_square
from .isoflow import UPath, _difference_quotients, _integrate
from .odeengine import Leg, Plan, fuchsian_ode, leg_table, run_plan

LOOP_RADIUS = 0.25  # loop radius over the distance to the nearest other pole or basepoint
FRAME_REACH = 0.7  # the infinity frame needs |z0| >= max |u_i| / FRAME_REACH
FD_STEP = 1e-5  # the centered-difference step of schlesinger_residual


@dataclass(frozen=True)
class FuchsianSystem:
    """Pole positions and residues; the residues must sum to zero.

    With sum_i A_i = 0 the point z = infinity is regular, so the monodromy
    matrices compose to the identity in the loop basis below.
    """

    poles: np.ndarray
    residues: tuple[np.ndarray, ...]
    zero_sum_tol: float = 1e-12

    def __post_init__(self):
        poles = np.asarray(self.poles, dtype=complex).reshape(-1)
        res = tuple(as_square(A) for A in self.residues)
        if len(res) != len(poles):
            raise ValueError("need one residue per pole")
        n = res[0].shape[0]
        for A in res:
            if A.shape[0] != n:
                raise ValueError("residues must share one dimension")
        if len(set(map(complex, poles))) != len(poles):
            raise WallError("poles must be pairwise distinct")
        total = sum(res)
        if np.max(np.abs(total)) > self.zero_sum_tol * max(
            1.0, max(np.max(np.abs(A)) for A in res)
        ):
            raise ValueError(
                f"residues do not sum to zero (|sum| = {np.max(np.abs(total)):.3e})"
            )
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "residues", res)

    @property
    def N(self) -> int:
        return len(self.poles)

    @property
    def n(self) -> int:
        return self.residues[0].shape[0]

    def coefficient(self, z: complex) -> np.ndarray:
        W = np.zeros((self.n, self.n), dtype=complex)
        for ui, Ai in zip(self.poles, self.residues):
            W += Ai / (z - ui)
        return W

    def nearest_gap(self, i: int) -> float:
        d = np.abs(self.poles - self.poles[i])
        d[i] = np.inf
        return float(d.min())


def schlesinger_rhs(sys: FuchsianSystem) -> np.ndarray:
    """All partials: out[i, j] = dA_i/du_j.

    Off-diagonal: [A_j, A_i]/(u_j - u_i); diagonal: minus the row sum, so
    sum_j dA_i/du_j = 0 exactly and sum_i A_i = 0 is preserved.
    """
    N, n = sys.N, sys.n
    out = np.zeros((N, N, n, n), dtype=complex)
    for i in range(N):
        diag = np.zeros((n, n), dtype=complex)
        for j in range(N):
            if j == i:
                continue
            C = (sys.residues[j] @ sys.residues[i] - sys.residues[i] @ sys.residues[j]) / (
                sys.poles[j] - sys.poles[i]
            )
            out[i, j] = C
            diag -= C
        out[i, i] = diag
    return out


def _schlesinger_velocity(A, K) -> np.ndarray:
    """sum_j du_j dA_i/du_j = [B_i, A_i] with B_i = sum_j K_ij A_j, for the
    (N, n, n) residue stack A and K = _difference_quotients(u, du) at the
    poles u, or for A (N, n, n, ...) and K (N, N, ...) with the same
    trailing axes."""
    B = np.einsum("ij...,jab...->iab...", K, A)
    return np.einsum("iab...,ibc...->iac...", B, A) - np.einsum("iab...,ibc...->iac...", A, B)


def integrate_schlesinger(
    sys: FuchsianSystem, path: UPath, tol: float = 1e-11,
) -> tuple[FuchsianSystem, tuple[()]]:
    """Transport the residues along a pole-position path from sys.poles;
    returns the system at the path's end and, as the flow carries nothing,
    an empty tuple.

    The path lives in the space of pole tuples; paths on which two poles
    come closer than the guard band (1e-6 times the pole scale) are
    refused with a WallError naming the pairs.
    """
    N, n = sys.N, sys.n

    def field(u, du):
        K = _difference_quotients(u, du)
        return lambda y: _schlesinger_velocity(y.reshape(N, n, n, -1), K).reshape(y.shape)

    y = _integrate("Schlesinger flow", path, sys.poles, np.ravel(sys.residues), field, tol, None)
    final = FuchsianSystem(poles=path.waypoints[-1], residues=tuple(y.reshape(N, n, n)),
                           zero_sum_tol=1e-8)
    return final, ()


def _loop_legs(z0: complex, center: complex, radius: float) -> list[Leg]:
    """Spoke-circle-spoke loop around one pole, counterclockwise."""
    d = center - z0
    entry = center - radius * d / abs(d)  # circle point nearest the basepoint
    return [Leg(z0, entry), Leg(entry, entry, center=center, sweep=2 * math.pi), Leg(entry, z0)]


def default_basepoint(sys: FuchsianSystem) -> complex:
    """Deterministic basepoint below and outside the pole configuration:
    2 (|mean| + spread + 1) below the lowest pole, and moved down to twice
    max |u_i| / FRAME_REACH where that is short of the infinity frame's
    reach (poles far from 0)."""
    mean = complex(np.mean(sys.poles))
    dev = float(np.max(np.abs(sys.poles - mean)))
    offset = 2.0 * (abs(mean) + dev + 1.0)
    z0 = complex(mean.real, float(sys.poles.imag.min()) - offset)
    reach = float(np.max(np.abs(sys.poles))) / FRAME_REACH
    return z0 if abs(z0) >= reach else complex(z0.real, -2.0 * reach)


def _infinity_frame(sys: FuchsianSystem, z0: complex):
    """The transport that gives, at z0, the solution normalized to I at
    z = infinity, from I at w = 0: its ODE and its leg, or None when that
    solution is I.

    In w = 1/z the system reads dY/dw = -sum_i A_i u_i/(1 - u_i w) Y
    = sum_{u_i != 0} A_i/(w - 1/u_i) Y, which is regular at w = 0 because the
    residues sum to zero: a Fuchsian system with poles 1/u_i.  A straight
    w-segment from 0 to 1/z0 stays clear of them when the basepoint lies
    outside the pole configuration.
    """
    w0 = 1.0 / z0
    for ui in sys.poles:
        if ui == 0:
            continue
        if abs(w0) > FRAME_REACH / abs(ui):
            raise ValueError(
                "basepoint too close to the pole configuration for the "
                "infinity-normalized frame"
            )

    inner = [(1.0 / ui, Ai) for ui, Ai in zip(sys.poles, sys.residues) if ui != 0]
    if not inner:
        return None
    return fuchsian_ode([w for w, _ in inner], [Ai for _, Ai in inner]), Leg(0j, w0)


def monodromy_plan(systems) -> Plan:
    """The transports of fuchs_monodromy for each of `systems` (of one
    dimension n), in one batch, assembled into the list of their
    M_1..M_N: per system the N loops carry the identity at the basepoint
    z0 next to the infinity frame Y0, and by linearity M_i = Y0^{-1} T_i Y0
    for the loop transport T_i of I."""
    odes, paths, ode_of, blocks = [], [], [], []
    for sys in systems:
        z0 = default_basepoint(sys)
        blocks.append(len(paths))
        paths += [_loop_legs(z0, complex(ui), LOOP_RADIUS * min(sys.nearest_gap(i), abs(ui - z0)))
                  for i, ui in enumerate(sys.poles)]
        ode_of += [len(odes)] * sys.N
        odes.append(fuchsian_ode(sys.poles, sys.residues))
        frame = _infinity_frame(sys, z0)
        if frame is not None:
            ode_of.append(len(odes))
            odes.append(frame[0])
            paths.append([frame[1]])
    legs, routes = leg_table(paths, ode_of)
    eye = np.eye(systems[0].n, dtype=complex)

    def assemble(ends):
        out = []
        for sys, a, b in zip(systems, blocks, blocks[1:] + [len(paths)]):
            Y0 = ends[a + sys.N] if b > a + sys.N else eye  # the frame, if any
            out.append([np.linalg.solve(Y0, T @ Y0) for T in ends[a : a + sys.N]])
        return out

    return Plan(tuple(odes), legs, routes, np.zeros(routes.shape, dtype=bool),
                np.repeat(eye[None], len(paths), axis=0), assemble)


def fuchs_monodromy(sys: FuchsianSystem, tol: float = 1e-12) -> list[np.ndarray]:
    """Monodromy matrices M_1..M_N with Y(gamma_i z) = Y(z) M_i.

    Loops are circles of radius LOOP_RADIUS times the distance to the
    nearest other pole or the basepoint, joined to the basepoint
    (`default_basepoint`) by straight spokes; composition order is
    increasing pole index.  With the basepoint below the poles and a
    configuration angularly ordered by index, the basis-order product
    M_1 M_2 ... M_N = I up to tolerance (z = infinity is regular);
    `product_relation_residual` measures how far it is.

    The underlying solution is normalized to the identity at z = infinity,
    the frame in which Schlesinger flows keep the monodromy matrices
    constant entrywise.
    """
    return run_plan(monodromy_plan([sys]), tol)[0]


def product_relation_residual(mons) -> float:
    """max |M_1 M_2 ... M_N - I|: zero for a loop basis whose basis-order
    product is the loop around every pole, i.e. around z = infinity."""
    prod = np.linalg.multi_dot(mons) if len(mons) > 1 else mons[0]
    return float(np.max(np.abs(prod - np.eye(len(prod)))))


def schlesinger_residual(family, u, moving=None) -> float:
    """Finite-difference Schlesinger defect of a residue family A_i(u).

    `family(u)` returns the list of residues at pole configuration u.  The
    returned value is the max norm over (i, j) of the centered-difference
    dA_i/du_j (step FD_STEP) minus the Schlesinger right-hand side; small
    means the family is a (strong, isoprincipal) Schlesinger deformation,
    large means weak / non-Schlesinger.  `moving` restricts the scanned
    directions j for families defined along a sub-family of pole motions
    (e.g. a single moving pole).
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    N = len(u)
    if moving is None:
        moving = range(N)
    base = [as_square(A) for A in family(u)]
    sys = FuchsianSystem(poles=u, residues=tuple(base), zero_sum_tol=1e-6)
    rhs = schlesinger_rhs(sys)
    worst = 0.0
    for j in moving:
        up, um = u.copy(), u.copy()
        up[j] += FD_STEP
        um[j] -= FD_STEP
        Ap = [as_square(A) for A in family(up)]
        Am = [as_square(A) for A in family(um)]
        for i in range(N):
            fd = (Ap[i] - Am[i]) / (2 * FD_STEP)
            worst = max(worst, float(np.linalg.norm(fd - rhs[i, j], 2)))
    return worst


@dataclass(frozen=True)
class KVBundle:
    """Closed-form weak-isomonodromic family with trivial monodromy.

    Poles sit at (u, 1, 2, 3); the fundamental matrix is rational in z, so
    every monodromy matrix is the identity, yet the connection matrix C_1 at
    z = 1 depends on u: the family is weakly but not strongly isomonodromic,
    and its residues do not satisfy the Schlesinger equations.
    """

    u: complex
    h_coeffs: tuple[complex, ...]
    system: FuchsianSystem
    C1: np.ndarray

    def h(self, u: complex) -> complex:
        return _kv_h(self.h_coeffs, u)

    def Y(self, z: complex) -> np.ndarray:
        u, h = self.u, self.h(self.u)
        return np.array(
            [
                [
                    (z - u) / (z - 1),
                    -2 * u * (z - u) * h / ((z - 1) * (z - 3) * (u - 3)),
                ],
                [0.0, (z - 2) / (z - 3)],
            ],
            dtype=complex,
        )

    def residues_at(self, u) -> list[np.ndarray]:
        """Residues at the moving parameter; accepts the scalar u or the full
        pole vector (u, 1, 2, 3) as handed around by schlesinger_residual."""
        arr = np.asarray(u, dtype=complex).reshape(-1)
        return _kv_residues(self.h_coeffs, complex(arr[0]))


def _kv_h(coeffs, u: complex) -> complex:
    """h(u) from its polynomial coefficients, constant first."""
    return sum(c * u**k for k, c in enumerate(coeffs))


def _kv_residues(coeffs, u: complex) -> list[np.ndarray]:
    h = _kv_h(coeffs, u)
    g = u * h / (u - 3)
    return [
        np.array([[1, 0], [0, 0]], dtype=complex),
        np.array([[-1, (1 - u) * g], [0, 0]], dtype=complex),
        np.array([[0, 2 * (u - 2) * g], [0, 1]], dtype=complex),
        np.array([[0, -u * h], [0, -1]], dtype=complex),
    ]


def kv_family(h_coeffs, u: complex) -> KVBundle:
    """The explicit resonant family at poles (u, 1, 2, 3).

    `h_coeffs` are the polynomial coefficients of h (constant first); h only
    needs to be holomorphic at u = 0, and polynomials cover every test.  The
    parameter must avoid {1, 2, 3}.
    """
    u = complex(u)
    if min(abs(u - w) for w in (1.0, 2.0, 3.0)) < 1e-9:
        raise ValueError("u must avoid the fixed poles 1, 2, 3")
    coeffs = tuple(complex(c) for c in h_coeffs)
    h = _kv_h(coeffs, u)
    poles = np.array([u, 1.0, 2.0, 3.0], dtype=complex)
    system = FuchsianSystem(poles=poles, residues=tuple(_kv_residues(coeffs, u)))
    C1 = np.array(
        [[0.0, 0.5], [1.0 - u, u * (1.0 - u) * h / (u - 3.0)]], dtype=complex
    )
    return KVBundle(u=u, h_coeffs=coeffs, system=system, C1=C1)
