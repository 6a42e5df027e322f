"""Dense complex linear algebra kernel for small matrices.

Everything here is sized for desk-scale experiments: single-linkage
chaining of indices and Sylvester solves through the Kronecker operator.
"""

from __future__ import annotations

import numpy as np

from .errors import ResonanceError


def as_square(A) -> np.ndarray:
    """Coerce to a square complex ndarray with finite entries."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise ValueError("matrix entries must be finite")
    return M


def _chain_groups(n: int, linked) -> list[list[int]]:
    """Indices 0..n-1 joined by chains of pairs i < j with linked(i, j).

    Union-find with path halving; each group lists its members ascending,
    and the groups come in the order of their smallest members.
    """
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if linked(i, j):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def sylvester_spectral_gap(P, Q):
    """Smallest |lambda_i(P) - mu_j(Q)| and the pair attaining it."""
    ep = np.linalg.eigvals(as_square(P))
    eq = np.linalg.eigvals(as_square(Q))
    diff = np.abs(ep[:, None] - eq[None, :])
    i, j = np.unravel_index(np.argmin(diff), diff.shape)
    return float(diff[i, j]), (complex(ep[i]), complex(eq[j]))


def solve_sylvester(P, Q, R, tol: float = 1e-10) -> np.ndarray:
    """Solve P X - X Q = R for X.

    The map X -> PX - XQ is inverted through its Kronecker matrix (fine for
    the small dimensions used here).  If the spectra of P and Q are closer
    than `tol`, the operator is numerically singular and a ResonanceError
    carrying the offending eigenvalue pair is raised.
    """
    Pm, Qm = as_square(P), as_square(Q)
    Rm = np.asarray(R, dtype=complex)
    p, q = Pm.shape[0], Qm.shape[0]
    if Rm.shape != (p, q):
        raise ValueError(f"right-hand side must be {p}x{q}, got {Rm.shape}")
    gap, pair = sylvester_spectral_gap(Pm, Qm)
    scale = max(np.linalg.norm(Pm, 2), np.linalg.norm(Qm, 2), 1.0)
    if gap <= tol * scale:
        raise ResonanceError(
            f"Sylvester operator singular: eigenvalues {pair[0]:.6g} of P and "
            f"{pair[1]:.6g} of Q coincide within tolerance",
            pair=pair,
        )
    # column-major vec: vec(PX) = (I (x) P) vec, vec(XQ) = (Q^T (x) I) vec
    op = np.kron(np.eye(q), Pm) - np.kron(Qm.T, np.eye(p))
    X = np.linalg.solve(op, Rm.reshape(-1, order="F")).reshape((p, q), order="F")
    return X

