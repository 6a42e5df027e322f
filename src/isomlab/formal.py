"""Formal fundamental solution Y_F(z,u) = F(z,u) z^B e^{z Lambda}.

Provides the formal monodromy exponent B = diag(A), the one coefficient
recursion for F_1..F_K (with a branch for coalesced pairs), resonance
detection on the diagonal of A, the one check of the coalescence
conditions on coalesced pairs, the optimal truncation of the series and the
residual of its defining identity.

The recursion comes from matching Laurent coefficients of
d/dz Y = (Lambda + A/z) Y order by order:

    (u_j - u_i)(F_k)_{ij} = (A_ii - A_jj + k - 1)(F_{k-1})_{ij}
                            + sum_{p != i} A_ip (F_{k-1})_{pj},
    k (F_k)_{ii} = -sum_{p != i} A_ip (F_k)_{pi}.

When u_i = u_j the left side degenerates; the entry (F_k)_{ij} is instead
determined by the order-(k+1) relation, which is solvable exactly when
A_ii - A_jj is not a negative integer.  That degenerate branch requires the
vanishing pattern A_ij = 0 on coalesced pairs.

Along the strong isomonodromy flow the same F meets the u-side relation
[F_{l+1}, E_i] = [F_1, E_i] F_l - d_i F_l of the Pfaffian system, so a
recursion built on that relation could only reproduce this one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPointsError, ResonanceError
from .geometry import coalescence_labels
from .matrixcore import as_square

PATTERN_TOL = 1e-10  # |A_ij| at a coalesced pair that counts as zero


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
    if not co.any():
        return co
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
    """The order-(k+1) relations that give the coalesced entries of F_1..F_K.

    For each column j, the relation at order k+1 couples the unknown entries
    (F_k)_{ij} of the rows i coalesced with j linearly:

        (A_ii - A_jj + k)(F_k)_{ij} + sum_{p coalesced with j, p != i} A_ip (F_k)_{pj}
            = -sum_{other p != i} A_ip (F_k)_{pj}.

    Its matrix depends on k alone, so the K matrices of a column are inverted
    in one batched call.  They are invertible: `coalesced_pairs` refuses a
    group whose diagonal entries of A lie within 1e-8 of a non-zero integer
    apart, or whose couplings exceed PATTERN_TOL, so each matrix of a group
    of fewer than 100 indices is diagonally dominant.  Returns, per column j
    with coalesced rows, (j, rows, others, inverses): others[a] lists the p
    of the right-hand side of row rows[a], and inverses[k - 1] is the
    inverse at order k, as lists of Python scalars.
    """
    n = len(A)
    d = np.diag(A)
    out = []
    for j in range(n):
        rows = np.flatnonzero(coalesced[:, j])
        if not len(rows):
            continue
        M = np.repeat(A[np.ix_(rows, rows)][None], K, axis=0)
        diag = np.arange(len(rows))
        M[:, diag, diag] = (d[rows] - d[j])[None, :] + np.arange(1, K + 1)[:, None]
        others = [[p for p in range(n) if p != i and not coalesced[p, j]] for i in rows]
        out.append((j, rows.tolist(), others, np.linalg.inv(M).tolist()))
    return out


def compute_formal_coefficients(
    sys: IrregularSystem,
    K: int = 10,
    coalesce_tol: float = 0.0,
) -> FormalSolution:
    """Compute F_1..F_K of the formal solution by the z-side Laurent
    recursion.

    It requires pairwise distinct u_i unless `coalesce_tol` > 0, in which
    case the pairs that `coalesced_pairs` finds at coalesce_tol are treated
    as coalesced, after it checked the vanishing and resonance conditions
    on them.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")

    A = sys.A
    u = sys.u
    n = sys.n
    d = np.diag(A)

    if coalesce_tol <= 0 and len(np.unique(u)) < n:
        raise CoincidentPointsError("coincident u_i; recursion divides by u_j - u_i")
    coalesced = coalesced_pairs(u, A, coalesce_tol)
    columns = _coalesced_columns(A, K, coalesced)

    # Python complex scalars round +, - and * as numpy's scalars do, but not
    # /, so divisions stay numpy's; operands are complex, sums start from 0j.
    Al = A.tolist()
    dd = (d[:, None] - d[None, :]).tolist()
    gap = u[None, :] - u[:, None]  # u_j - u_i, numpy scalars
    off = np.argwhere(~coalesced & ~np.eye(n, dtype=bool)).tolist()
    pairs = [(i, j, gap[i, j]) for i, j in off]
    one = complex(1)

    def dot(M, i, j):  # sum_{p != i} A_ip M_pj
        acc = 0j
        for p in range(n):
            if p != i:
                acc = acc + Al[i][p] * M[p][j]
        return acc

    F_all: list[np.ndarray] = []
    P = np.eye(n, dtype=complex).tolist()  # F_{k-1}
    # the late terms of a divergent series may overflow, to inf and then nan;
    # a non-finite F_k is never a truncation point (optimal_truncations)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, K + 1):
            kc, kn = complex(k), np.complex128(k)
            Fk = np.zeros((n, n), dtype=complex).tolist()
            for i, j, g in pairs:
                Fk[i][j] = complex(((dd[i][j] + kc - one) * P[i][j] + dot(P, i, j)) / g)
            for j, rows, others, inverses in columns:
                rhs = [-sum((Al[i][p] * Fk[p][j] for p in ps), 0j) for i, ps in zip(rows, others)]
                for i, row in zip(rows, inverses[k - 1]):
                    Fk[i][j] = sum((a * b for a, b in zip(row, rhs)), 0j)
            for i in range(n):
                Fk[i][i] = complex(-dot(Fk, i, i) / kn)
            F_all.append(np.array(Fk))
            P = Fk

    return FormalSolution(b=d.copy(), u=u.copy(), F=tuple(F_all))


def optimal_truncations(series, radius: float) -> list[tuple[int, float]]:
    """For each series, given as its F_1..F_K, the index k minimizing
    ||F_k|| R^-k and the value there (the seed error bound): the divergent
    series stops before its smallest term, and the bound is the magnitude of
    the first omitted term.  The norms of all series come from one stacked
    SVD, so the series must share n; a non-finite F_k (an overflowed late
    term) has the norm +inf and stays out of the SVD."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    stacks = [np.asarray(F) for F in series]
    full = [F for F in stacks if len(F)]
    full = np.concatenate(full) if full else np.zeros((0, 1, 1))
    finite = np.isfinite(full).all(axis=(1, 2))
    norms = np.full(len(full), np.inf)
    norms[finite] = np.linalg.svd(full[finite], compute_uv=False)[:, 0]
    out, a = [], 0
    for F in stacks:
        if not len(F):
            out.append((0, np.inf))
            continue
        with np.errstate(invalid="ignore"):  # inf times an underflowed R^-k is nan
            terms = norms[a : a + len(F)] * float(radius) ** -np.arange(1, len(F) + 1)
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
