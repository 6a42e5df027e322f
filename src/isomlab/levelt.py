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

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ResonanceError
from .matrixcore import (
    JordanData,
    _chain_groups,
    as_square,
    matrix_power,
    similar_to_jordan,
)

RESONANCE_TOL = 1e-8  # an order this close to an eigenvalue gap, times ||J||, is resonant
LSTSQ_TOL = 1e-6  # residual of a resonant order, relative to its right-hand side
GAUGE_TOL = 1e-6  # with_gauge: residual of the similarity, relative to ||A||


@dataclass(frozen=True)
class LeveltData:
    """Exponents, gauge and Taylor data of a Levelt fundamental solution.

    d: integer diagonal of D.  sigma: diagonal of Sigma (class representative
    per position).  N: nilpotent part, same block pattern as Sigma.  G puts
    the residue in the (permuted) Jordan form J.  `blocks` records, per
    integer-difference class, (sigma_q, positions, offsets).  Psi holds
    Psi_1..Psi_K, a (K, n, n) array, once built.
    """

    d: np.ndarray
    sigma: np.ndarray
    N: np.ndarray
    G: np.ndarray
    J: np.ndarray
    blocks: tuple[tuple[complex, tuple[int, ...], tuple[int, ...]], ...]
    residual: float
    Psi: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0), dtype=complex))
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
    # the nilpotent part of the permuted Jordan matrix (blocks move as units)
    J = np.diag(sigma + d) + (jd.J - np.diag(np.diag(jd.J)))[np.ix_(perm, perm)]
    N = J - np.diag(np.diag(J))
    resid = float(np.linalg.norm(np.linalg.inv(G) @ M @ G - J, 2))
    return LeveltData(
        d=d, sigma=sigma, N=N, G=G, J=J, blocks=tuple(out_blocks), residual=resid
    )


def with_gauge(ld: LeveltData, G_new, A_new) -> LeveltData:
    """Re-anchor fixed exponents to a transported gauge.

    Along an isomonodromy flow the gauge satisfies dG = (sum_j omega_j(0) du_j) G
    and keeps J constant; this swaps G while validating that the similarity
    still holds within GAUGE_TOL (relative).
    """
    Gn = as_square(G_new)
    An = as_square(A_new)
    resid = np.linalg.norm(np.linalg.solve(Gn, An @ Gn) - ld.J, 2)
    scale = max(np.linalg.norm(An, 2), 1.0)
    if resid > GAUGE_TOL * scale:
        raise ValueError(
            f"transported gauge no longer Jordanizes the residue: {resid:.3e}"
        )
    return replace(ld, G=Gn, residual=float(resid), Psi=ld.Psi[:0])


def build_levelt_solution(A, hol, ld: LeveltData | None = None, K: int = 20) -> LeveltData:
    """Solve the order-by-order matching equations for Psi_1..Psi_K.

    `hol` lists the Taylor coefficients H_0, H_1, ... (at the Fuchsian
    point) of the holomorphic part of the coefficient matrix; coefficients
    past its end are zero, so for the irregular system at z = 0 it is
    [Lambda].  Coefficients past H_{K-1} are not read.

    The order-k operators of all orders are formed at once and the
    non-resonant ones inverted in one batched factorisation.  Resonant
    orders (operator singular because two residue eigenvalues differ by k)
    are solved least-squares with zero kernel component; an inconsistent
    resonant order raises ResonanceError with the order.
    """
    M = as_square(A)
    if ld is None:
        ld = compute_levelt_exponents(M)
    n = ld.n
    H = np.asarray(hol, dtype=complex)[:K]
    if H.ndim != 3 or H.shape[1:] != (n, n) or not np.isfinite(H).all():
        raise ValueError(f"hol must list finite {n} x {n} Taylor coefficients")
    H = np.linalg.inv(ld.G) @ H @ ld.G
    J = ld.J
    # J is upper triangular, so eig(k I - J) = k - diag(J) and the order-k
    # operator X -> (k I - J) X + X J, k I + F on column-major vec(X), is
    # singular exactly when k is a difference of two diagonal entries
    I = np.eye(n)
    F = np.kron(J.T, I) - np.kron(I, J)
    diffs = (np.diag(J)[:, None] - np.diag(J)[None, :]).ravel()
    orders = np.arange(1, K + 1)
    ops = F + orders[:, None, None] * np.eye(n * n)
    resonant = (np.abs(orders[:, None] - diffs).min(axis=1)
                <= RESONANCE_TOL * max(np.linalg.norm(J, 2), 1.0))
    inverse = np.zeros_like(ops)
    inverse[~resonant] = np.linalg.inv(ops[~resonant])

    Phi = np.zeros((K + 1, n, n), dtype=complex)  # I, Psi_1, Psi_2, ...
    Phi[0] = I
    for k in range(1, K + 1):
        m = min(k, len(H))
        # sum_{m < k} H_m Phi_{k-1-m}
        rhs = np.einsum("mab,mbc->ac", H[:m], Phi[k - 1 :: -1][:m])
        r = rhs.reshape(-1, order="F")
        if resonant[k - 1]:
            op = ops[k - 1]
            x = np.linalg.lstsq(op, r, rcond=1e-12)[0]
            resid = float(np.linalg.norm(op @ x - r))
            if resid > LSTSQ_TOL * max(np.linalg.norm(rhs), 1.0):
                raise ResonanceError(
                    f"resonant order {k} inconsistent (residual {resid:.3e})",
                    order=k,
                )
        else:
            x = inverse[k - 1] @ r
        Phi[k] = x.reshape((n, n), order="F")
    return replace(ld, Psi=Phi[1:], resonant_orders=tuple(orders[resonant].tolist()))


def eval_levelt(ld: LeveltData, z: complex, arg_branch: float, K: int | None = None) -> np.ndarray:
    """G (I + sum_{k<=K} Psi_k z^k) z^D z^L on the universal cover."""
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    if K is None:
        K = ld.K
    elif K > ld.K:
        raise ValueError(f"order {K} requested, but the Levelt series is built to order {ld.K}")
    zk = np.cumprod(np.full(K, z))  # z, z^2, ..., z^K
    Phi = np.eye(ld.n) + (zk @ ld.Psi[:K].reshape(K, ld.n**2)).reshape(ld.n, ld.n)
    w = np.log(abs(z)) + 1j * arg_branch
    zD = np.exp(ld.d * w)
    zL = matrix_power(ld.L, z, arg_branch)
    return ld.G @ Phi @ (zD[:, None] * zL)


def monodromy_exponential(ld: LeveltData) -> np.ndarray:
    """e^{2 pi i L}; the full monodromy factor of z^D z^L since e^{2 pi i D} = I."""
    from scipy.linalg import expm

    return expm(2j * np.pi * ld.L)
