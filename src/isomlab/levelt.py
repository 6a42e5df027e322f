"""Levelt normal form at a Fuchsian point: Y = G (I + sum Psi_k z^k) z^D z^L.

Exponent extraction clusters the eigenvalues of the residue matrix and
groups the clusters into integer-difference classes.  Per class q: sigma_q
is the fractional representative with 0 <= Re sigma_q < 1 and D_q collects
the integer offsets, sorted non-increasingly.  The basis is a Jordan basis
of the residue, built from rank-revealing kernels of (A - lambda I)^k
directly in that order, in which the nilpotent part N of L = Sigma + N
connects only positions with equal eigenvalue; consequently z^D L z^-D = L
identically and the limit condition reduces to D + L = J.

Taylor coefficients solve, order by order, the Sylvester equations

    (k I - J) Psi_k + Psi_k J = sum_{m=0}^{k-1} H_m Psi_{k-1-m},

where H_m are the Taylor coefficients of the gauge-transformed holomorphic
part of the coefficient matrix.  The order-k operator is singular exactly
when two eigenvalues of the residue differ by the integer k; those resonant
orders are solved in the least-squares sense with kernel components set to
zero, which makes the (non-unique) Levelt form deterministic.  The gauges
of one residue along an isomonodromy flow share J, hence every order-k
operator, and one build solves them all.

Since N is nilpotent and commutes with D and Sigma, the exponential factor
has the closed form z^D z^L = diag(z^(d + sigma)) sum_{l<n} (N log z)^l / l!.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EigenSolverError, JordanChainError, ResonanceError
from .matrixcore import _chain_groups, as_square

MAX_JORDAN_DIM = 8  # residues are put in Jordan form up to this size
RESONANCE_TOL = 1e-8  # an order this close to an eigenvalue gap, times ||J||, is resonant
LSTSQ_TOL = 1e-6  # residual of a resonant order, relative to its right-hand side
GAUGE_TOL = 1e-6  # with_gauge: residual of the similarity, relative to ||A||


@dataclass(frozen=True)
class LeveltData:
    """Exponents, gauge and Taylor data of a Levelt fundamental solution.

    d: integer diagonal of D.  sigma: diagonal of Sigma (class representative
    per position).  N: nilpotent part, same block pattern as Sigma.  G puts
    the residue in the Jordan form J, its blocks in Levelt order.  Psi holds
    Psi_1..Psi_K, a (K, n, n) array, once built.
    """

    d: np.ndarray
    sigma: np.ndarray
    N: np.ndarray
    G: np.ndarray
    J: np.ndarray
    residual: float
    Psi: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0), dtype=complex))
    resonant_orders: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return len(self.d)

    @property
    def Sigma(self) -> np.ndarray:
        return np.diag(self.sigma)

    @property
    def L(self) -> np.ndarray:
        return self.Sigma + self.N

    @property
    def K(self) -> int:
        return len(self.Psi)


def _jordan_chains(M, lam: complex, mult: int, tol: float, scale: float):
    """Jordan chains of M at the eigenvalue cluster (lam, mult), longest first.

    The kernels of (M - lam I)^k, thresholds scaled to ||M - lam I||^k, give
    the Weyr characteristic; each chain is listed bottom-up, eigenvector
    first, so that J carries 1s on the superdiagonal.
    """
    n = M.shape[0]
    B = M - lam * np.eye(n)
    # one SVD of B gives ||B||_2 and the kernel of the first power
    P, (_, svals, Vh) = B, np.linalg.svd(B)
    normB = max(svals[0], tol * scale)
    # kernel dimensions of successive powers, thresholds scaled to ||B||^k
    # (the power itself may be numerically zero)
    kernels = []
    dims = [0]
    for k in range(1, mult + 1):
        if k > 1:
            P = P @ B
            _, svals, Vh = np.linalg.svd(P)
        thresh = tol * normB**k
        K = Vh.conj().T[:, svals <= thresh]
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

    built = [[] for _ in range(s + 2)]  # built[h]: chain vectors at height h
    chains = []
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
            Q, _ = np.linalg.qr(np.column_stack(obstruction))
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
            chain = [v / np.linalg.norm(v)]
            for _ in range(k - 1):
                chain.append(B @ chain[-1])
            chain.reverse()  # chain[h-1] has height h; chain[0] is the eigenvector
            for h, w in enumerate(chain, start=1):
                built[h].append(w)
            chains.append(chain)
    return chains


def compute_levelt_exponents(A, tol: float = 1e-8) -> LeveltData:
    """Extract D, Sigma, N and the gauge G from the residue matrix A.

    Supported only for n <= MAX_JORDAN_DIM.  The eigenvalues are clustered
    by single-linkage chaining of gaps <= tol, and the clusters, in (Re, Im)
    order, are chained into integer-difference classes; sigma_q comes from a
    class's first cluster.  The Jordan chains are then built once per
    cluster, classes by sigma and clusters by descending offset, so that G
    is the Levelt basis itself.  Doubtful extractions raise JordanChainError:
    an ambiguous rank decision, a saturated kernel, a degenerate chain top,
    a singular G or a Jordan residual above 10 tol ||A||.
    """
    M = as_square(A)
    n = M.shape[0]
    if n > MAX_JORDAN_DIM:
        raise ValueError(f"Jordan extraction restricted to n <= {MAX_JORDAN_DIM}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    try:
        eigs = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue solver failed: {exc}") from exc
    # (mean, multiplicity) of each cluster, in (Re, Im) order of the mean
    clusters = sorted(
        ((complex(np.mean(eigs[g])), len(g))
         for g in _chain_groups(n, lambda i, j: abs(eigs[i] - eigs[j]) <= tol)),
        key=lambda c: (c[0].real, c[0].imag),
    )

    def integer_apart(a, b):
        diff = clusters[a][0] - clusters[b][0]
        return abs(diff - round(diff.real)) <= tol

    classes = []
    for members in _chain_groups(len(clusters), integer_apart):
        lam0 = clusters[members[0]][0]
        sig = lam0 - np.floor(lam0.real)  # 0 <= Re sigma < 1
        offset = {c: int(round((clusters[c][0] - sig).real)) for c in members}
        classes.append((sig, sorted(members, key=lambda c: -offset[c]), offset))
    classes.sort(key=lambda q: (q[0].real, q[0].imag))

    scale = max(np.linalg.norm(M, 2), 1.0)
    cols, lams, d, sigma, superdiag = [], [], [], [], []
    for sig, members, offset in classes:
        for c in members:
            lam, mult = clusters[c]
            for chain in _jordan_chains(M, lam, mult, tol, scale):
                cols += chain
                superdiag += [1.0] * (len(chain) - 1) + [0.0]
            lams += [lam] * mult
            d += [offset[c]] * mult
            sigma += [sig] * mult
    G = np.array(cols).T  # the chain vectors as columns, stored column-major
    N = np.diag(np.array(superdiag[:-1], dtype=complex), 1)
    d = np.array(d, dtype=int)
    sigma = np.array(sigma, dtype=complex)
    J = np.diag(sigma + d) + N
    try:
        Ginv = np.linalg.inv(G)
    except np.linalg.LinAlgError as exc:
        raise JordanChainError(f"similarity matrix singular: {exc}") from exc
    GinvAG = Ginv @ M @ G
    # both 2-norms in one stacked SVD: the Jordan residual takes each
    # cluster's mean as its eigenvalue, the Levelt one J itself
    residual, resid = np.linalg.svd(np.stack([GinvAG - (np.diag(lams) + N), GinvAG - J]),
                                    compute_uv=False)[:, 0].tolist()
    if residual > 10 * tol * scale:
        raise JordanChainError(
            f"Jordan residual {residual:.3e} exceeds 10*tol*||A|| = {10 * tol * scale:.3e}"
        )
    return LeveltData(d=d, sigma=sigma, N=N, G=G, J=J, residual=resid)


def with_gauge(ld: LeveltData, gauges, residues) -> list[LeveltData]:
    """Re-anchor fixed exponents to transported gauges, one LeveltData each.

    Along an isomonodromy flow the gauge satisfies dG = (sum_j omega_j(0) du_j) G
    and keeps J constant; this swaps G for each of `gauges` while validating
    that the similarity with the residue of the same position in `residues`
    still holds within GAUGE_TOL (relative), for all of them in one stacked
    solve and one stacked SVD.
    """
    Gs, As = np.asarray(gauges, dtype=complex), np.asarray(residues, dtype=complex)
    if (Gs.shape != As.shape or Gs.shape[1:] != ld.J.shape
            or not (np.isfinite(Gs).all() and np.isfinite(As).all())):
        raise ValueError(f"need one finite {ld.n} x {ld.n} residue per finite gauge")
    norms = np.linalg.svd(np.concatenate([np.linalg.solve(Gs, As @ Gs) - ld.J, As]),
                          compute_uv=False)[:, 0]
    resid, scale = norms[: len(Gs)], np.maximum(norms[len(Gs) :], 1.0)
    bad = resid > GAUGE_TOL * scale
    if bad.any():
        raise ValueError("transported gauge no longer Jordanizes the residue: "
                         f"{resid[bad][0]:.3e}")
    return [replace(ld, G=G, residual=float(r), Psi=ld.Psi[:0]) for G, r in zip(Gs, resid)]


def build_levelt_solution(A, hol, ld: LeveltData | list[LeveltData] | None = None,
                          K: int = 20) -> LeveltData | list[LeveltData]:
    """Solve the order-by-order matching equations for Psi_1..Psi_K.

    `hol` lists the Taylor coefficients H_0, H_1, ... (at the Fuchsian
    point) of the holomorphic part of the coefficient matrix; coefficients
    past its end are zero, so for the irregular system at z = 0 it is
    [Lambda].  Coefficients past H_{K-1} are not read.  Without `ld` the
    exponents are extracted from the residue A, which is read for nothing
    else.  Given a list of Levelt data that share J (the gauges of one
    residue along a flow), `hol` holds one such list per gauge, all of one
    length, and one LeveltData per gauge is returned.

    The order-k operators are formed once for all gauges and orders, and the
    non-resonant ones inverted in one batched factorisation; each order of
    the recursion is then one batched product over the gauges.  Resonant
    orders (operator singular because two residue eigenvalues differ by k)
    are solved least-squares with zero kernel component; an inconsistent
    resonant order raises ResonanceError with the order.
    """
    single = not isinstance(ld, (list, tuple))
    if single:
        ld, hol = [compute_levelt_exponents(A) if ld is None else ld], [hol]
    J = ld[0].J
    if any(not np.array_equal(x.J, J) for x in ld):
        raise ValueError("the Levelt data of one build must share J")
    n, P = len(J), len(ld)
    H = np.asarray(hol, dtype=complex)[:, :K]
    if H.ndim != 4 or H.shape[0] != P or H.shape[2:] != (n, n) or not np.isfinite(H).all():
        raise ValueError(f"hol must list finite {n} x {n} Taylor coefficients per gauge")
    G = np.array([x.G for x in ld])[:, None]
    H = np.linalg.inv(G) @ H @ G
    # J is upper triangular, so eig(k I - J) = k - diag(J) and the order-k
    # operator X -> (k I - J) X + X J, k I + F on row-major vec(X), is
    # singular exactly when k is a difference of two diagonal entries
    I = np.eye(n)
    F = np.kron(I, J.T) - np.kron(J, I)
    diffs = (np.diag(J)[:, None] - np.diag(J)[None, :]).ravel()
    orders = np.arange(1, K + 1)
    ops = F + orders[:, None, None] * np.eye(n * n)
    resonant = (np.abs(orders[:, None] - diffs).min(axis=1)
                <= RESONANCE_TOL * max(np.linalg.norm(J, 2), 1.0))
    inverse = np.zeros_like(ops)
    inverse[~resonant] = np.linalg.inv(ops[~resonant])

    Phi = np.zeros((P, K + 1, n, n), dtype=complex)  # I, Psi_1, Psi_2, ... per gauge
    Phi[:, 0] = I
    for k in range(1, K + 1):
        m = min(k, H.shape[1])
        # sum_{m < k} H_m Phi_{k-1-m}, each row one gauge's row-major vec
        rhs = (H[:, :m] @ Phi[:, k - 1 :: -1][:, :m]).sum(axis=1).reshape(P, n * n)
        if resonant[k - 1]:
            op = ops[k - 1]
            x = np.linalg.lstsq(op, rhs.T, rcond=1e-12)[0].T
            resid = np.linalg.norm(x @ op.T - rhs, axis=1)
            bad = resid > LSTSQ_TOL * np.maximum(np.linalg.norm(rhs, axis=1), 1.0)
            if bad.any():
                raise ResonanceError(f"resonant order {k} inconsistent "
                                     f"(residual {resid[bad][0]:.3e})", order=k)
        else:
            x = rhs @ inverse[k - 1].T
        Phi[:, k] = x.reshape(P, n, n)
    found = tuple(orders[resonant].tolist())
    out = [replace(x, Psi=Phi[p, 1:], resonant_orders=found) for p, x in enumerate(ld)]
    return out[0] if single else out


def _exp_nilpotent(N, w) -> np.ndarray:
    """e^{w N} = sum_{l<n} (w N)^l / l! for a nilpotent n x n matrix N."""
    term = out = np.eye(len(N), dtype=complex)
    for l in range(1, len(N)):
        term = term @ N * (w / l)
        out = out + term
    return out


def eval_levelt(ld: LeveltData, z: complex, arg_branch: float) -> np.ndarray:
    """G (I + sum_{k<=K} Psi_k z^k) z^D z^L on the universal cover, K = ld.K.

    z^D z^L = diag(z^(d + sigma)) e^{N log z} in closed form, with
    log z = ln|z| + i arg_branch: N is nilpotent and, connecting only
    positions of one eigenvalue, commutes with D and Sigma.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    zk = np.cumprod(np.full(ld.K, z))  # z, z^2, ..., z^K
    Phi = np.eye(ld.n) + (zk @ ld.Psi.reshape(ld.K, ld.n**2)).reshape(ld.n, ld.n)
    w = np.log(abs(z)) + 1j * arg_branch
    return ld.G @ Phi @ (np.exp((ld.d + ld.sigma) * w)[:, None] * _exp_nilpotent(ld.N, w))


def monodromy_exponential(ld: LeveltData) -> np.ndarray:
    """e^{2 pi i L} = diag(e^{2 pi i sigma}) e^{2 pi i N}; the full monodromy
    factor of z^D z^L since e^{2 pi i D} = I."""
    return np.exp(2j * np.pi * ld.sigma)[:, None] * _exp_nilpotent(ld.N, 2j * np.pi)
