"""Levelt normal form at a Fuchsian point: Y = G (I + sum Psi_k z^k) z^D z^L.

Exponent extraction groups the eigenvalues of the residue matrix into
integer-difference classes.  Per class q: sigma_q is the fractional
representative with 0 <= Re sigma_q < 1 and D_q collects the integer
offsets, sorted non-increasingly.  The basis is the (permuted) Jordan basis
of the residue, in which the nilpotent part N of L = Sigma + N connects only
positions with equal eigenvalue; consequently z^D L z^-D = L identically and
the limit condition reduces to D + L = J.

Taylor coefficients solve, order by order, the Sylvester equations

    (k I - J) Psi_k + Psi_k J = sum_{m=0}^{k-1} H_m Psi_{k-1-m},

where H_m are the Taylor coefficients of the gauge-transformed holomorphic
part of the coefficient matrix.  The order-k operator is singular exactly
when two eigenvalues of the residue differ by the integer k; those resonant
orders are solved in the least-squares sense with kernel components set to
zero, which makes the (non-unique) Levelt form deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ResonanceError
from .matrixcore import (
    JordanData,
    _chain_groups,
    as_square,
    matrix_power,
    similar_to_jordan,
)


@dataclass(frozen=True)
class LeveltData:
    """Exponents, gauge and Taylor data of a Levelt fundamental solution.

    d: integer diagonal of D.  sigma: diagonal of Sigma (class representative
    per position).  N: nilpotent part, same block pattern as Sigma.  G puts
    the residue in the (permuted) Jordan form J.  `blocks` records, per
    integer-difference class, (sigma_q, positions, offsets).  Psi holds
    Psi_1..Psi_K once built.
    """

    d: np.ndarray
    sigma: np.ndarray
    N: np.ndarray
    G: np.ndarray
    J: np.ndarray
    blocks: tuple[tuple[complex, tuple[int, ...], tuple[int, ...]], ...]
    residual: float
    Psi: tuple[np.ndarray, ...] = ()
    resonant_orders: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return len(self.d)

    @property
    def D(self) -> np.ndarray:
        return np.diag(self.d.astype(complex))

    @property
    def Sigma(self) -> np.ndarray:
        return np.diag(self.sigma)

    @property
    def L(self) -> np.ndarray:
        return self.Sigma + self.N

    @property
    def K(self) -> int:
        return len(self.Psi)

    @property
    def A(self) -> np.ndarray:
        return self.G @ self.J @ np.linalg.inv(self.G)


def _block_permutation(jd: JordanData, tol: float):
    """Order Jordan blocks into integer-difference classes, offsets descending.

    Returns (permuted column index list, class structure) where classes are
    lists of (eigenvalue, block size) entries.  Whole Jordan blocks are moved
    as units, so the permuted basis is still a Jordan basis.
    """
    # enumerate blocks with their column ranges
    blocks = []
    pos = 0
    for lam, sizes in jd.blocks:
        for s in sizes:
            blocks.append((lam, pos, s))
            pos += s

    def integer_apart(a, b):
        diff = blocks[a][0] - blocks[b][0]
        return abs(diff - round(diff.real)) <= tol

    # fractional representative with 0 <= Re sigma < 1, from the smallest member
    def frac(lam):
        return lam - np.floor(lam.real)

    cls = []
    # block eigenvalues grouped by integer differences (chained)
    for idxs in _chain_groups(len(blocks), integer_apart):
        lam0 = blocks[idxs[0]][0]
        sigma = frac(lam0)
        # sort member blocks by descending integer offset, then descending size
        def offset(b):
            return int(round((blocks[b][0] - sigma).real))

        idxs_sorted = sorted(idxs, key=lambda b: (-offset(b), -blocks[b][2]))
        cls.append((sigma, idxs_sorted))
    cls.sort(key=lambda c: (c[0].real, c[0].imag))
    return blocks, cls


def compute_levelt_exponents(A, tol: float = 1e-8) -> LeveltData:
    """Extract D, Sigma, N and the gauge G from the residue matrix A.

    Eigenvalues are classified modulo integer shifts; ambiguity of the
    classification (an eigenvalue within tol of two classes) surfaces as a
    JordanChainError/ResonanceError from the underlying machinery.
    """
    M = as_square(A)
    jd = similar_to_jordan(M, tol=tol)
    blocks, cls = _block_permutation(jd, tol)
    n = M.shape[0]

    perm = []
    d = np.zeros(n, dtype=int)
    sigma = np.zeros(n, dtype=complex)
    out_blocks = []
    pos = 0
    for sig, idxs in cls:
        positions = []
        offsets = []
        for b in idxs:
            lam, start, size = blocks[b]
            off = int(round((lam - sig).real))
            for c in range(start, start + size):
                perm.append(c)
                d[pos] = off
                sigma[pos] = sig
                positions.append(pos)
                offsets.append(off)
                pos += 1
        out_blocks.append((complex(sig), tuple(positions), tuple(offsets)))
    G = jd.G[:, perm]
    J = np.diag(sigma + d) + _superdiag_of(jd.J, perm)
    N = J - np.diag(np.diag(J))
    resid = float(np.linalg.norm(np.linalg.inv(G) @ M @ G - J, 2))
    return LeveltData(
        d=d, sigma=sigma, N=N, G=G, J=J, blocks=tuple(out_blocks), residual=resid
    )


def _superdiag_of(J, perm):
    """Nilpotent part of the permuted Jordan matrix (blocks move as units)."""
    n = J.shape[0]
    Nsrc = J - np.diag(np.diag(J))
    out = np.zeros_like(Nsrc)
    inv = {c: k for k, c in enumerate(perm)}
    for a in range(n):
        for b in range(n):
            if Nsrc[a, b] != 0:
                out[inv[a], inv[b]] = Nsrc[a, b]
    return out


def with_gauge(ld: LeveltData, G_new, A_new, tol: float = 1e-6) -> LeveltData:
    """Re-anchor fixed exponents to a transported gauge.

    Along an isomonodromy flow the gauge satisfies dG = (sum_j omega_j(0) du_j) G
    and keeps J constant; this swaps G while validating that the similarity
    still holds within `tol` (relative).
    """
    Gn = as_square(G_new)
    An = as_square(A_new)
    resid = np.linalg.norm(np.linalg.solve(Gn, An @ Gn) - ld.J, 2)
    scale = max(np.linalg.norm(An, 2), 1.0)
    if resid > tol * scale:
        raise ValueError(
            f"transported gauge no longer Jordanizes the residue: {resid:.3e}"
        )
    return replace(ld, G=Gn, residual=float(resid), Psi=())


def build_levelt_solution(
    A,
    hol_taylor,
    ld: LeveltData | None = None,
    K: int = 20,
    tol: float = 1e-8,
    lstsq_tol: float = 1e-6,
) -> LeveltData:
    """Solve the order-by-order matching equations for Psi_1..Psi_K.

    `hol_taylor(m)` must return the m-th Taylor coefficient (at the Fuchsian
    point) of the holomorphic part of the coefficient matrix; for the
    irregular system at z = 0 that is Lambda for m = 0 and zero above.

    Resonant orders (operator singular because two residue eigenvalues
    differ by k) are solved least-squares with zero kernel component; an
    inconsistent resonant order raises ResonanceError with the order.
    """
    M = as_square(A)
    if ld is None:
        ld = compute_levelt_exponents(M, tol=tol)
    n = ld.n
    Ginv = np.linalg.inv(ld.G)
    # the nonzero H_m only: the irregular system at z = 0 has H_0 alone
    H = {}
    for m in range(K):
        Hm = as_square(hol_taylor(m))
        if np.any(Hm):
            H[m] = Ginv @ Hm @ ld.G
    J = ld.J
    # J is upper triangular, so eig(k I - J) = k - diag(J) and the order-k
    # operator X -> (k I - J) X + X J, k I + F on column-major vec(X), is
    # singular exactly when k is a difference of two diagonal entries
    F = np.kron(J.T, np.eye(n)) - np.kron(np.eye(n), J)
    diffs = (np.diag(J)[:, None] - np.diag(J)[None, :]).ravel()
    singular = tol * max(np.linalg.norm(J, 2), 1.0)

    Phi = [np.eye(n, dtype=complex)]  # I, Psi_1, Psi_2, ...
    resonant = []
    for k in range(1, K + 1):
        rhs = np.zeros((n, n), dtype=complex)
        for m, Hm in H.items():
            if m < k:
                rhs += Hm @ Phi[k - 1 - m]
        op = F + k * np.eye(n * n)
        r = rhs.reshape(-1, order="F")
        if np.min(np.abs(k - diffs)) <= singular:
            x = np.linalg.lstsq(op, r, rcond=1e-12)[0]
            resid = float(np.linalg.norm(op @ x - r))
            if resid > lstsq_tol * max(np.linalg.norm(rhs), 1.0):
                raise ResonanceError(
                    f"resonant order {k} inconsistent (residual {resid:.3e})",
                    order=k,
                )
            resonant.append(k)
        else:
            x = np.linalg.solve(op, r)
        Phi.append(x.reshape((n, n), order="F"))
    return replace(ld, Psi=tuple(Phi[1:]), resonant_orders=tuple(resonant))


def eval_levelt(ld: LeveltData, z: complex, arg_branch: float, K: int | None = None) -> np.ndarray:
    """G (I + sum_k Psi_k z^k) z^D z^L on the universal cover."""
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    if K is None:
        K = ld.K
    n = ld.n
    Phi = np.eye(n, dtype=complex)
    zk = 1.0 + 0.0j
    for k in range(1, K + 1):
        zk *= z
        Phi = Phi + ld.Psi[k - 1] * zk
    w = np.log(abs(z)) + 1j * arg_branch
    zD = np.exp(ld.d * w)
    zL = matrix_power(ld.L, z, arg_branch)
    return ld.G @ Phi @ (zD[:, None] * zL)


def taylor_radius_check(ld: LeveltData, radius: float, threshold: float = 1e-12) -> bool:
    """Convergence heuristic: ||Psi_K|| radius^K below threshold."""
    if not ld.Psi:
        raise ValueError("no Taylor coefficients built")
    return float(np.linalg.norm(ld.Psi[-1], 2)) * radius ** ld.K < threshold


def monodromy_exponential(ld: LeveltData) -> np.ndarray:
    """e^{2 pi i L}; the full monodromy factor of z^D z^L since e^{2 pi i D} = I."""
    from scipy.linalg import expm

    return expm(2j * np.pi * ld.L)
