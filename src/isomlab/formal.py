"""Formal fundamental solution Y_F(z,u) = F(z,u) z^B e^{z Lambda}.

Provides the formal monodromy exponent B = diag(A), the one coefficient
recursion for F_1..F_K (with a branch for coalesced pairs), run on a stack
of systems of one n, resonance detection on the diagonal of A, the one
check of the coalescence conditions on coalesced pairs, the optimal
truncation of the series and the residual of its defining identity.

The recursion comes from matching Laurent coefficients of
d/dz Y = (Lambda + A/z) Y order by order:

    (u_j - u_i)(F_k)_{ij} = (A_ii - A_jj + k - 1)(F_{k-1})_{ij}
                            + sum_{p != i} A_ip (F_{k-1})_{pj},
    k (F_k)_{ii} = -sum_{p != i} A_ip (F_k)_{pi}.

When u_i = u_j the left side degenerates; the entry (F_k)_{ij} is instead
determined by the order-(k+1) relation, which is solvable exactly when
A_ii - A_jj is not a negative integer.  That degenerate branch requires the
vanishing pattern A_ij = 0 on coalesced pairs.

The recursion runs over (S, n, n) arrays one order at a time, and every
product and every sum in it is an `np.einsum`.  numpy's complex einsum
forms each product as (a.re b.re - a.im b.im, a.re b.im + a.im b.re)
without a fused multiply-add and sums the terms in index order from 0,
exactly as Python's complex scalars do; complex `*` and `@` run loops
that numpy dispatches by CPU, and where those fuse a multiply and an add
the product rounds differently.  Divisions are numpy's array divisions,
which round as its scalar divisions.  So each series is bit for bit the one
that the same recursion on Python scalars gives, on every machine, and a
series does not depend on the stack it was built in.

Along the strong isomonodromy flow the same F meets the u-side relation
[F_{l+1}, E_i] = [F_1, E_i] F_l - d_i F_l of the Pfaffian system, so a
recursion built on that relation could only reproduce this one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPointsError, ResonanceError
from .geometry import coalescence_labels
from .matrixcore import as_square

PATTERN_TOL = 1e-10  # |A_ij| at a coalesced pair that counts as zero
# a truncation term is never the least when its lower bound exceeds its
# series' least upper bound by these: far above the relative error of the
# bounds and of an SVD's largest singular value at n <= 8, and far above
# the absolute error of any product that underflows
BRACKET_MARGIN = 1e-12
BRACKET_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


@dataclass(frozen=True)
class IrregularSystem:
    """The data (Lambda, A) of the linear system dY/dz = (Lambda + A/z) Y.

    `u` holds the eigenvalues of Lambda = diag(u_1..u_n).  All entries must
    be finite.  Distinctness of the u_i is *not* enforced here; operations
    that need it check at call time.
    """

    u: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex).reshape(-1)
        if not np.isfinite(u).all():
            raise ValueError(f"u entries must be finite, got {u}")
        A = as_square(self.A)
        if A.shape[0] != len(u):
            raise ValueError(f"A is {A.shape} but u has length {len(u)}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "A", A)

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def Lambda(self) -> np.ndarray:
        return np.diag(self.u)


@dataclass(frozen=True)
class FormalSolution:
    """Formal monodromy exponent and truncated series coefficients.

    F stores F_1..F_K (F_0 = I implicitly); `b` is the diagonal of A and
    `u` the exponents of e^{z Lambda} that the series is paired with.
    """

    b: np.ndarray
    u: np.ndarray
    F: tuple[np.ndarray, ...]

    @property
    def K(self) -> int:
        return len(self.F)


def check_resonances(A, tol: float = 1e-8) -> list[tuple[int, int, int]]:
    """Ordered pairs (i, j, k) with A_ii - A_jj within tol of an integer k != 0.

    An empty list certifies that the formal solution of the coalesced system
    is unique.  Indices are 0-based.
    """
    M = as_square(A)
    d = np.diag(M)
    out = []
    n = len(d)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            diff = d[i] - d[j]
            k = int(round(diff.real))
            if k != 0 and abs(diff - k) <= tol:
                out.append((i, j, k))
    return out


def coalesced_pairs(u, A, tol: float) -> np.ndarray:
    """The n x n mask of the ordered pairs i != j of u that coalesce at
    `tol` (one group of `coalescence_labels`), once the coalescence theorem's
    conditions on them hold: A vanishes on every such pair to PATTERN_TOL,
    else CoincidentPointsError, and no such pair has diagonal entries of A
    that differ by a non-zero integer (within check_resonances' tolerance),
    else ResonanceError, for then the formal solution of the coalesced
    system is not unique.
    """
    label = coalescence_labels(u, tol)
    co = (label[:, None] == label[None, :]) & ~np.eye(len(label), dtype=bool)
    bad = co & (np.abs(A) > PATTERN_TOL)
    if bad.any():
        i, j = np.argwhere(np.triu(bad | bad.T))[0]
        raise CoincidentPointsError(
            f"vanishing condition violated at u^C: A[{i},{j}] or A[{j},{i}] nonzero"
        )
    resonant = [(i, j, k) for i, j, k in check_resonances(A) if co[i, j]]
    if resonant:
        raise ResonanceError(
            "diagonal entries of coalescing pairs differ by non-zero integers "
            f"{resonant}; the frozen formal solution is not unique",
        )
    return co


def _coalesced_columns(A, K, coalesced):
    """The order-(k+1) relations that give the coalesced entries of F_1..F_K
    of a stack of systems, A and `coalesced` of shape (S, n, n).

    For each column j, the relation at order k+1 couples the unknown entries
    (F_k)_{ij} of the rows i coalesced with j linearly:

        (A_ii - A_jj + k)(F_k)_{ij} + sum_{p coalesced with j, p != i} A_ip (F_k)_{pj}
            = -sum_{other p != i} A_ip (F_k)_{pj}.

    Its matrix depends on k alone, so the K matrices of a column are inverted
    in one batched call.  They are invertible: `coalesced_pairs` refuses a
    group whose diagonal entries of A lie within 1e-8 of a non-zero integer
    apart, or whose couplings exceed PATTERN_TOL, so each matrix of a group
    of fewer than 100 indices is diagonally dominant.  Returns one tuple
    (rows, rest, couplings, inverses) per number r of coalesced rows, for
    the m columns (s, j) with r of them: the flat places in the stack of
    their rows (m, r) and of the p of the right-hand side (m, n - r), every
    p not coalesced with j (j among them), the A_ip of those p (m, r, n - r),
    and inverses[k - 1] (m, r, r) the inverses at order k.
    """
    S, n, _ = A.shape
    d = np.diagonal(A, axis1=1, axis2=2)
    groups = {}
    for s, j in zip(*np.nonzero(coalesced.any(axis=1))):
        rows, rest = np.flatnonzero(coalesced[s, :, j]), np.flatnonzero(~coalesced[s, :, j])
        M = np.repeat(A[s][np.ix_(rows, rows)][None], K, axis=0)
        diag = np.arange(len(rows))
        M[:, diag, diag] = (d[s, rows] - d[s, j])[None, :] + np.arange(1, K + 1)[:, None]
        groups.setdefault(len(rows), []).append(
            ((s * n + rows) * n + j, (s * n + rest) * n + j, A[s][np.ix_(rows, rest)], M))
    return [(np.array(rows), np.array(rest), np.array(couplings),
             np.linalg.inv(np.stack(M, axis=1)))
            for rows, rest, couplings, M in (zip(*g) for g in groups.values())]


def compute_formal_coefficients(
    systems: IrregularSystem | Sequence[IrregularSystem],
    K: int = 10,
    coalesce_tol: float | Sequence[float] = 0.0,
) -> FormalSolution | list[FormalSolution]:
    """Compute F_1..F_K of the formal solutions of a stack of systems of one
    n by the z-side Laurent recursion, all systems one order at a time.

    `systems` is one IrregularSystem, whose FormalSolution is returned, or a
    sequence of them, whose list of FormalSolutions is returned.
    `coalesce_tol` is one tolerance for every system or one per system.  A
    system requires pairwise distinct u_i unless its tolerance is > 0, in
    which case the pairs that `coalesced_pairs` finds at that tolerance are
    treated as coalesced, after it checked the vanishing and resonance
    conditions on them.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    stack = [systems] if isinstance(systems, IrregularSystem) else list(systems)
    if len({s.n for s in stack}) > 1:
        raise ValueError("the systems of one stack must share n")
    S, n = len(stack), stack[0].n
    A = np.array([s.A for s in stack]).reshape(S, n, n)
    u = np.array([s.u for s in stack]).reshape(S, n)
    d = np.diagonal(A, axis1=1, axis2=2)
    eye = np.eye(n, dtype=bool)
    tols = np.broadcast_to(coalesce_tol, S)
    if (u[tols <= 0, :, None] == u[tols <= 0, None, :])[:, ~eye].any():
        raise CoincidentPointsError("coincident u_i; recursion divides by u_j - u_i")
    coalesced = np.zeros((S, n, n), dtype=bool)
    for s in np.flatnonzero(tols > 0):
        coalesced[s] = coalesced_pairs(u[s], A[s], tols[s])
    pairs = ~coalesced & ~eye
    gap = np.where(pairs, u[:, None, :] - u[:, :, None], 1)  # u_j - u_i
    columns = _coalesced_columns(A, K, coalesced)

    # the numerator of (F_k)_ij sums A_ip (F_{k-1})_pj over p != i ascending,
    # then adds ((A_ii - A_jj + k) - 1)(F_{k-1})_ij: its term q is
    # W[k - 1, s, i, j, q] times F_{k-1} at the flat place take[s, i, j, q]
    q, col = np.arange(n - 1), np.arange(n)[:, None]
    order = np.concatenate([q + (q >= col), col], axis=1)
    take = (np.arange(S)[:, None, None, None] * n + order[:, None, :]) * n + col
    W = np.empty((K, S, n, n, n), dtype=complex)
    W[..., :-1] = A[:, col, order[:, :-1]][:, :, None, :]
    W[..., -1] = (d[:, :, None] - d[:, None, :]) + np.arange(1, K + 1)[:, None, None, None] - 1
    A_zero = np.where(eye, 0, A)  # the diagonal rule's terms with p = i read (F_k)_ii = 0
    ks = np.arange(1, K + 1, dtype=complex)[:, None]

    F = np.zeros((K, S, n, n), dtype=complex)
    flat = F.reshape(K, S * n * n)
    diag = np.einsum("ksii->ksi", F)
    prev = np.tile(np.eye(n, dtype=complex), (S, 1)).reshape(-1)  # F_{k-1}, flat
    # the late terms of a divergent series may overflow, to inf and then nan;
    # a non-finite F_k is never a truncation point (optimal_truncations)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            np.divide(np.einsum("sijq,sijq->sij", W[k], prev[take]), gap, out=F[k], where=pairs)
            for rows, rest, couplings, inverses in columns:
                rhs = np.negative(np.einsum("map,mp->ma", couplings, flat[k][rest]))
                flat[k][rows] = np.einsum("mab,mb->ma", inverses[k], rhs)
            acc = np.einsum("sip,spi->si", A_zero, F[k])
            np.divide(np.negative(acc, out=acc), ks[k], out=diag[k])
            prev = flat[k]

    out = [FormalSolution(b=d[s].copy(), u=u[s].copy(), F=tuple(F[:, s])) for s in range(S)]
    return out[0] if isinstance(systems, IrregularSystem) else out


def optimal_truncations(series, radius: float) -> list[tuple[int, float]]:
    """For each series, given as its F_1..F_K, the index k minimizing
    ||F_k|| R^-k and the value there (the seed error bound): the divergent
    series stops before its smallest term, and the bound is the magnitude of
    the first omitted term.

    Only a term that can be the least needs its 2-norm.  The Frobenius norms
    of all terms, one array pass, bracket it: ||F||_F / sqrt(n) <= ||F||_2 <=
    ||F||_F (Golub and Van Loan, Matrix Computations, 2.3).  A term whose
    lower bound exceeds the least upper bound of its series, by more than
    BRACKET_MARGIN relative and BRACKET_FLOOR absolute, rounds above the term
    that has that upper bound, so it is never the least and reads +inf, as a
    non-finite F_k (an overflowed late term) does.  The 2-norms of the other
    terms come from one stacked SVD, so the series must share n, and every
    (k, bound) is the one that the SVD of every term gives."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    stacks = [np.asarray(F) for F in series]
    powers = [float(radius) ** -np.arange(1, len(F) + 1) for F in stacks]  # R^-k
    lengths = [len(F) for F in stacks if len(F)]
    if not lengths:
        return [(0, np.inf)] * len(stacks)
    full = np.concatenate([F for F in stacks if len(F)])
    finite = np.isfinite(full).all(axis=(1, 2))
    # ||F_k||_F R^-k, over the largest entry first, so that no square overflows
    entries = np.where(finite[:, None, None], np.abs(full), 0.0)
    top = entries.max(axis=(1, 2))[:, None, None]
    scaled = np.divide(entries, top, out=np.zeros_like(entries), where=top > 0)
    ratio = np.sqrt(np.square(scaled).sum(axis=(1, 2)))
    with np.errstate(over="ignore", invalid="ignore"):  # 0 R^-k with R^-k = inf is nan
        size = top[:, 0, 0] * np.concatenate(powers)
        upper = np.where(finite, size * ratio, np.inf)
        lower = size * (ratio / math.sqrt(full.shape[-1]))
        least = np.repeat(np.minimum.reduceat(upper, np.cumsum([0, *lengths[:-1]])), lengths)
        # a nan bound compares false, so its term keeps its SVD
        never = lower * (1 - BRACKET_MARGIN) > least * (1 + BRACKET_MARGIN) + BRACKET_FLOOR
    wanted = finite & ~never
    norms = np.full(len(full), np.inf)
    norms[wanted] = np.linalg.svd(full[wanted], compute_uv=False)[:, 0]
    out, a = [], 0
    for F, power in zip(stacks, powers):
        if not len(F):
            out.append((0, np.inf))
            continue
        # a term may overflow, and inf times an underflowed R^-k is nan
        with np.errstate(over="ignore", invalid="ignore"):
            terms = norms[a : a + len(F)] * power
        a += len(F)
        k = int(np.argmin(np.where(np.isnan(terms), np.inf, terms)))
        out.append((k + 1, float(terms[k])) if terms[k] < np.inf else (0, np.inf))
    return out


def ode_laurent_residuals(sys: IrregularSystem, fs: FormalSolution) -> list[float]:
    """Norms of the Laurent coefficients of the defining-identity residual.

    Substituting the truncated series into dY/dz = (Lambda + A/z) Y and
    collecting powers z^-1..z^-K must give zero; entry k-1 of the returned
    list is the norm of the coefficient of z^-k, relative to ||A||.
    """
    n = sys.n
    A = sys.A
    B = np.diag(np.diag(A))
    Lam = sys.Lambda
    out = []
    Fm = [np.eye(n, dtype=complex)] + list(fs.F)
    for k in range(1, fs.K + 1):
        # [Lambda, F_k] + (k-1) F_{k-1} - F_{k-1} B + A F_{k-1} = 0
        terms = [
            Lam @ Fm[k] - Fm[k] @ Lam,
            (k - 1) * Fm[k - 1],
            -Fm[k - 1] @ B,
            A @ Fm[k - 1],
        ]
        resid = sum(terms)
        scale = max(max(np.linalg.norm(t, 2) for t in terms), 1.0)
        out.append(float(np.linalg.norm(resid, 2)) / scale)
    return out
