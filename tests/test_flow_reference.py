"""Both nonlinear flows against an independent reference: mpmath's Taylor
ODE solver, run at 20 digits on right-hand sides written out here entry by
entry, with none of the library's code."""

import mpmath as mp
import numpy as np

from isomlab.fuchsian import FuchsianSystem, integrate_schlesinger
from isomlab.formal import IrregularSystem
from isomlab.isoflow import UPath, integrate_flow


def mp_matrices(y, count, n):
    return [mp.matrix([[y[(i * n + a) * n + b] for b in range(n)] for a in range(n)])
            for i in range(count)]


def mp_flatten(mats, n):
    return [M[a, b] for M in mats for a in range(n) for b in range(n)]


def mp_solve(rhs, y0, dps=20):
    """End value at t = 1 of dy/dt = rhs(t, y), y(0) = y0 (complex)."""
    with mp.workdps(dps):
        f = mp.odefun(rhs, 0, [mp.mpc(complex(v)) for v in np.ravel(y0)])
        return np.array([complex(v) for v in f(1)])


def mp_line(a, b):
    a = [mp.mpc(complex(x)) for x in a]
    return a, [mp.mpc(complex(y)) - x for x, y in zip(a, b)]


def isomonodromy_reference(A0, a, b):
    """dA/dt = [Omega, A], Omega_pq = A_pq (du_p - du_q)/(u_p - u_q)."""
    n = len(a)

    def rhs(t, y):
        u0, du = mp_line(a, b)
        (A,) = mp_matrices(y, 1, n)
        Om = mp.matrix(n, n)
        for p in range(n):
            for q in range(n):
                if p != q:
                    Om[p, q] = A[p, q] * (du[p] - du[q]) / (u0[p] - u0[q] + t * (du[p] - du[q]))
        return mp_flatten([Om * A - A * Om], n)

    return mp_solve(rhs, A0).reshape(n, n)


def schlesinger_reference(residues, a, b):
    """dA_i/dt = sum_{j != i} [A_j, A_i] (du_j - du_i)/(u_j - u_i)."""
    N, n = len(a), residues[0].shape[0]

    def rhs(t, y):
        u0, du = mp_line(a, b)
        A = mp_matrices(y, N, n)
        out = []
        for i in range(N):
            D = mp.matrix(n, n)
            for j in range(N):
                if j != i:
                    rate = (du[j] - du[i]) / (u0[j] - u0[i] + t * (du[j] - du[i]))
                    D += (A[j] * A[i] - A[i] * A[j]) * rate
            out.append(D)
        return mp_flatten(out, n)

    return mp_solve(rhs, residues).reshape(N, n, n)


def test_isomonodromy_flow_matches_mpmath():
    # criterion 5's flow: GENERIC_A along U_START -> U_END
    A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
    a, b = np.array([0.0, 1.0], dtype=complex), np.array([0.3 + 0.2j, 1.2])
    end, _ = integrate_flow(IrregularSystem(u=a, A=A), UPath.line(a, b), tol=1e-13)
    assert np.max(np.abs(end.A - isomonodromy_reference(A, a, b))) <= 1e-11


def test_schlesinger_flow_matches_mpmath():
    # criterion 4's system over the first half of its pole path
    rng = np.random.default_rng(104)
    poles = np.array([0.0, 1.0, 2.0], dtype=complex)
    residues = [rng.normal(size=(2, 2)) * 0.5 + 0.5j * rng.normal(size=(2, 2)) for _ in range(2)]
    residues.append(-sum(residues))
    delta = np.array([0.2j, -0.2, 0.3])
    target = poles + 0.25 * delta / np.linalg.norm(delta)
    sys = FuchsianSystem(poles=poles, residues=tuple(residues))
    final, _ = integrate_schlesinger(sys, UPath.line(poles, target), tol=1e-13)
    ref = schlesinger_reference(residues, poles, target)
    assert np.max(np.abs(np.array(final.residues) - ref)) <= 1e-11
