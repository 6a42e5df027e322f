"""Dense complex linear algebra kernel for small matrices.

Everything here is sized for desk-scale experiments (n <= 8): eigenvalue
clustering with single-linkage chaining, Jordan similarity via rank-revealing
kernels of (A - lambda I)^k, Sylvester solves through the Kronecker operator,
and matrix powers z^L on the universal cover of the punctured plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import EigenSolverError, JordanChainError, ResonanceError

MAX_JORDAN_DIM = 8


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


@dataclass(frozen=True)
class EigenClusters:
    """Eigenvalues of a matrix grouped by single-linkage chaining at `tol`.

    `values[c]` is the multiplicity-weighted mean of cluster c, `members[c]`
    the indices into `eigenvalues` it absorbed.  Representatives of distinct
    clusters are separated by more than `tol`.
    """

    eigenvalues: np.ndarray
    values: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    tol: float

    @property
    def count(self) -> int:
        return len(self.values)


def cluster_eigenvalues(A, tol: float = 1e-8) -> EigenClusters:
    """Group the eigenvalues of A into clusters chained by gaps <= tol.

    Two eigenvalues land in the same cluster iff they are connected by a
    chain of pairwise gaps <= tol (single linkage), which makes the result
    independent of eigenvalue ordering.
    """
    M = as_square(A)
    if not tol > 0:
        raise ValueError("tol must be positive")
    try:
        eigs = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue solver failed: {exc}") from exc

    reps, mults, members = [], [], []
    for idx in _chain_groups(len(eigs), lambda i, j: abs(eigs[i] - eigs[j]) <= tol):
        reps.append(complex(np.mean(eigs[idx])))
        mults.append(len(idx))
        members.append(tuple(idx))
    # deterministic ordering: by (Re, Im) of the representative
    order = sorted(range(len(reps)), key=lambda c: (reps[c].real, reps[c].imag))
    return EigenClusters(
        eigenvalues=eigs,
        values=tuple(reps[c] for c in order),
        multiplicities=tuple(mults[c] for c in order),
        members=tuple(members[c] for c in order),
        tol=tol,
    )


@dataclass(frozen=True)
class JordanData:
    """Similarity G and Jordan form J with G^-1 A G = J (up to `residual`).

    `blocks` lists, per eigenvalue cluster, the representative and the block
    sizes in non-increasing order; column groups of G follow the same layout,
    each chain stored bottom-up so J carries 1s on the superdiagonal.
    """

    G: np.ndarray
    J: np.ndarray
    blocks: tuple[tuple[complex, tuple[int, ...]], ...]
    residual: float

    @property
    def n(self) -> int:
        return self.J.shape[0]


def _kernel_basis(B, thresh):
    """Orthonormal kernel basis of B from SVD, singular values below `thresh`.

    The threshold is absolute; callers scale it by the natural magnitude of
    the matrix (for powers (A - lambda I)^k that is ||A - lambda I||^k, since
    the power itself may be numerically zero).
    """
    _, s, Vh = np.linalg.svd(B)
    null_mask = s <= thresh
    return Vh.conj().T[:, null_mask], s


def similar_to_jordan(A, tol: float = 1e-8) -> JordanData:
    """Extract a numerical Jordan form of A by rank-revealing kernel chains.

    Supported only for n <= MAX_JORDAN_DIM; eigenvalues are first clustered
    at `tol`, then for each cluster the kernels of (A - lambda I)^k determine
    the Weyr characteristic and Jordan chains.  The returned residual
    ||G^-1 A G - J|| lets callers reject doubtful extractions.
    """
    M = as_square(A)
    n = M.shape[0]
    if n > MAX_JORDAN_DIM:
        raise ValueError(f"Jordan extraction restricted to n <= {MAX_JORDAN_DIM}")
    clusters = cluster_eigenvalues(M, tol)
    scale = max(np.linalg.norm(M, 2), 1.0)

    cols = []
    blocks = []
    for lam, mult in zip(clusters.values, clusters.multiplicities):
        B = M - lam * np.eye(n)
        normB = max(np.linalg.norm(B, 2), tol * scale)
        # kernel dimensions of successive powers, thresholds scaled to ||B||^k
        kernels = []
        P = np.eye(n, dtype=complex)
        dims = [0]
        for k in range(1, mult + 1):
            P = P @ B
            thresh = tol * normB**k
            K, svals = _kernel_basis(P, thresh)
            # ambiguity guard: singular values sitting inside the tolerance band
            band = (svals > 0.02 * thresh) & (svals < 50 * thresh)
            if np.any(band):
                raise JordanChainError(
                    f"rank decision ambiguous near eigenvalue {lam:.6g}; "
                    "coarsen or refine tol"
                )
            kernels.append(K)
            dims.append(K.shape[1])
            if K.shape[1] >= mult:
                break
        if dims[-1] != mult:
            raise JordanChainError(
                f"kernel of (A - {lam:.6g} I)^k saturated at dimension "
                f"{dims[-1]} < multiplicity {mult}"
            )
        s = len(kernels)
        weyr = [dims[k + 1] - dims[k] for k in range(s)]  # blocks of size >= k+1
        weyr.append(0)

        # chain construction, longest chains first
        built = [[] for _ in range(s + 2)]  # built[h]: chain vectors at height h
        sizes = []
        for k in range(s, 0, -1):
            new_chains = weyr[k - 1] - weyr[k]
            if new_chains <= 0:
                continue
            Kk = kernels[k - 1]
            obstruction = []
            if k >= 2:
                obstruction.append(kernels[k - 2])
            if built[k]:
                obstruction.append(np.column_stack(built[k]))
            if obstruction:
                Obs = np.column_stack(obstruction)
                Q, _ = np.linalg.qr(Obs)
                T = Kk - Q @ (Q.conj().T @ Kk)
            else:
                T = Kk
            # coefficient vectors in the Kk basis whose images stay farthest
            # from the obstruction span
            _, sv, Vh = np.linalg.svd(T)
            if len(sv) < new_chains or sv[new_chains - 1] <= 10 * tol:
                raise JordanChainError(
                    f"chain top selection degenerate near eigenvalue {lam:.6g}"
                )
            for m in range(new_chains):
                v = Kk @ Vh.conj().T[:, m]
                v = v / np.linalg.norm(v)
                chain = [v]
                for _ in range(k - 1):
                    chain.append(B @ chain[-1])
                chain.reverse()  # chain[h-1] has height h; chain[0] is the eigenvector
                for h, w in enumerate(chain, start=1):
                    built[h].append(w)
                cols.extend(chain)
                sizes.append(k)
        blocks.append((lam, tuple(sorted(sizes, reverse=True))))
    # assemble G following blocks layout (chains were appended longest-first
    # per eigenvalue already, since k runs downward)
    G = np.column_stack(cols)
    J = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, sizes in blocks:
        for size in sizes:
            J[pos : pos + size, pos : pos + size] = lam * np.eye(size) + np.diag(
                np.ones(size - 1), 1
            )
            pos += size
    try:
        Ginv = np.linalg.inv(G)
    except np.linalg.LinAlgError as exc:
        raise JordanChainError(f"similarity matrix singular: {exc}") from exc
    residual = float(np.linalg.norm(Ginv @ M @ G - J, 2))
    if residual > 10 * tol * scale:
        raise JordanChainError(
            f"Jordan residual {residual:.3e} exceeds 10*tol*||A|| = {10 * tol * scale:.3e}"
        )
    return JordanData(G=G, J=J, blocks=tuple(blocks), residual=residual)


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


def matrix_power(L, z: complex, arg_branch: float) -> np.ndarray:
    """z^L = exp(L (ln|z| + i arg)) with the branch of arg z made explicit.

    `arg_branch` is the continuous argument of z on the universal cover; the
    caller is responsible for its bookkeeping.  For L = Sigma + N with
    commuting diagonal and nilpotent parts this reproduces
    z^Sigma sum_l N^l (log z)^l / l!.
    """
    M = as_square(L)
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    w = np.log(abs(z)) + 1j * arg_branch
    return expm(M * w)
