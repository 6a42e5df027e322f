"""Reference solvers the tests compare the library against, and inputs
that several test modules build."""

import numpy as np
from scipy.linalg import expm

from isomlab.levelt import compute_levelt_exponents
from isomlab.matrixcore import as_square, solve_sylvester, sylvester_spectral_gap


def solve_sylvester_lstsq(P, Q, R, rcond: float = 1e-12):
    """Least-squares/min-norm solve of P X - X Q = R for singular operators.

    Returns (X, consistency_residual).  The min-norm solution is the one with
    kernel components set to zero, which is the deterministic choice used for
    resonant Levelt orders.
    """
    Pm, Qm = as_square(P), as_square(Q)
    Rm = np.asarray(R, dtype=complex)
    p, q = Pm.shape[0], Qm.shape[0]
    op = np.kron(np.eye(q), Pm) - np.kron(Qm.T, np.eye(p))
    x, *_ = np.linalg.lstsq(op, Rm.reshape(-1, order="F"), rcond=rcond)
    X = x.reshape((p, q), order="F")
    resid = float(np.linalg.norm(Pm @ X - X @ Qm - Rm))
    return X, resid


def kronecker_psi(A, hol, K=20, tol=1e-8):
    """Psi_1..Psi_K by a general Sylvester solve at every order, with the
    resonant orders found from the eigenvalues of k I - J and -J; `hol`
    lists H_0, H_1, ..., zero past its end."""
    ld = compute_levelt_exponents(A, tol=tol)
    Ginv = np.linalg.inv(ld.G)
    H = [Ginv @ as_square(Hm) @ ld.G for Hm in hol[:K]]
    J = ld.J
    Phi = [np.eye(ld.n, dtype=complex)]
    for k in range(1, K + 1):
        rhs = sum(H[m] @ Phi[k - 1 - m] for m in range(min(k, len(H))))
        P = k * np.eye(ld.n) - J
        gap, _ = sylvester_spectral_gap(P, -J)
        if gap <= tol * max(np.linalg.norm(J, 2), 1.0):
            X, _ = solve_sylvester_lstsq(P, -J, rhs)
        else:
            X = solve_sylvester(P, -J, rhs, tol=tol)
        Phi.append(X)
    return Phi[1:]


def levelt_power_reference(ld, w):
    """z^D z^L = e^{w (D + L)} at log z = w, by scipy's expm: the oracle of
    the closed form in isomlab.levelt."""
    return expm(w * (np.diag(ld.d) + ld.L))


def poly_fuchsian_ode(poles, residues):
    """P and Q of prod_k (z - u_k) Y' = sum_i A_i prod_{k != i} (z - u_k) Y
    built with np.poly, about the mean of the poles."""
    x = np.asarray(poles, dtype=complex).reshape(-1)
    x = x - complex(np.mean(x))
    N, n = len(x), residues[0].shape[0]
    Q = np.zeros((N + 1, n, n), dtype=complex)
    for i, Ai in enumerate(residues):
        Q[:N] += np.atleast_1d(np.poly(np.delete(x, i)))[::-1, None, None] * Ai
    return np.poly(x)[::-1].astype(complex), Q


def schedule_reference(odes, which, legs, names):
    """The step layout of odeengine._schedule, one step index at a time,
    with every per-leg array indexed by the live legs on every step index."""
    from isomlab.errors import IntegrationError
    from isomlab.odeengine import STEP_FLOOR, STEP_GROWTH, STEP_RADIUS

    roots = np.full((len(odes), max((len(o.roots) for o in odes), default=0)),
                    np.inf, dtype=complex)
    for k, o in enumerate(odes):
        roots[k, : len(o.roots)] = o.roots
    growth = np.array([o.growth for o in odes])
    hgrow = np.full(len(odes), np.inf)
    np.divide(STEP_GROWTH, growth, out=hgrow, where=growth > 0)
    roots, hgrow = roots[which], hgrow[which]
    a = np.array([leg.a for leg in legs], dtype=complex)
    b = np.array([leg.b for leg in legs], dtype=complex)
    arc = np.array([leg.center is not None for leg in legs], dtype=bool)
    c = np.array([0j if leg.center is None else leg.center for leg in legs], dtype=complex)
    sweep = np.array([leg.sweep for leg in legs], dtype=float)
    length = np.array([leg.length for leg in legs], dtype=float)
    t = np.zeros(len(legs))
    z = a.copy()
    live = np.arange(len(legs))
    refused = {}
    z0s, hs, legs_of = [np.zeros(0, dtype=complex)], [np.zeros(0, dtype=complex)], [live[:0]]
    while live.size:
        z0 = z[live]
        dist = np.abs(roots[live] - z0[:, None])
        near = np.argmin(dist, axis=1)
        gap = dist[np.arange(len(live)), near]
        hmax = np.minimum(STEP_RADIUS * gap, hgrow[live])
        ok = hmax > STEP_FLOOR * np.maximum(np.abs(z0), length[live])
        if not ok.all():
            for i in np.flatnonzero(~ok):
                refused[int(live[i])] = (roots[live[i], near[i]], gap[i], z0[i])
            live, z0, hmax = live[ok], z0[ok], hmax[ok]
        tl, ll = t[live], length[live]
        end = tl * ll + hmax >= ll
        tn = np.where(end, 1.0, tl + hmax / np.where(end, 1.0, ll))
        al, cl = a[live], c[live]
        z1 = np.where(arc[live], cl + (al - cl) * np.exp(1j * sweep[live] * tn),
                      al + tn * (b[live] - al))
        z1[end] = b[live[end]]
        z0s.append(z0)
        hs.append(z1 - z0)
        legs_of.append(live)
        t[live], z[live] = tn, z1
        live = live[~end]
    if refused:
        k = min(refused)
        near, gap, z0 = refused[k]
        raise IntegrationError(
            f"transport {names[k][0]}, segment {names[k][1]} ({legs[k]}), runs into the "
            f"singular point {complex(near):.6g} (distance {gap:.3g} "
            f"at z = {complex(z0):.6g})"
        )
    starts = np.cumsum([len(s) for s in legs_of])
    return np.concatenate(z0s), np.concatenate(hs), np.concatenate(legs_of), starts


def subclass_rays(u, uC=None):
    """The Stokes ray directions of u, of the pairs that do not coalesce at
    uC when it is given (the sub-class), filtered here from all the rays."""
    from isomlab.geometry import coalescence_labels, stokes_ray_directions

    rays = stokes_ray_directions(u)
    if uC is None:
        return [ray.theta for ray in rays]
    label = coalescence_labels(uC)
    return [ray.theta for ray in rays if label[ray.i] != label[ray.j]]


def sector_bounds_reference(u, tau, r, uC=None):
    """geometry.sector_frames as one frame at a time: the rays of u found
    anew for every sector, widened at uC when it is given."""
    import math

    from isomlab.errors import AdmissibilityError
    from isomlab.geometry import (
        ADMISSIBILITY_TOL,
        DIRECTION_TOL,
        SectorFrame,
        _margin,
        _nearest_ray,
        coalescence_labels,
    )

    lo_hp = tau + (r - 2) * math.pi
    hi_hp = tau + (r - 1) * math.pi
    if uC is not None and not coalescence_labels(uC).any():
        return SectorFrame(lo=lo_hp - math.pi / 2, hi=hi_hp + math.pi / 2)
    thetas = subclass_rays(u, uC)
    margin = _margin(tau, thetas)
    if not margin > ADMISSIBILITY_TOL:
        raise AdmissibilityError(f"tau = {tau:.6g} is within {margin:.3e} of a Stokes ray")
    # the distinct ray directions mod pi, sorted; the last one goes when it
    # is the first one a turn later
    base = []
    for theta in sorted(math.fmod(theta, math.pi) for theta in thetas):
        if not base or theta - base[-1] > DIRECTION_TOL:
            base.append(theta)
    if len(base) > 1 and base[0] + math.pi - base[-1] <= DIRECTION_TOL:
        base.pop()
    return SectorFrame(lo=_nearest_ray(base, lo_hp, -1), hi=_nearest_ray(base, hi_hp, 1))


def column_seed_directions_reference(u, frame):
    """The seed direction of every column in one frame, from the candidates
    of odeengine._seed_directions (the ends of the padded frame, the peak of
    each sinusoid of the column's objective and where each two cross),
    computed for this frame alone."""
    u = np.asarray(u, dtype=complex)
    pad = min(0.05, 0.1 * (frame.hi - frame.lo))
    lo, hi = frame.lo + pad, frame.hi - pad
    diff = u[:, None] - u[None, :]  # u_j - u_i at [j, i]
    other = (diff != 0)[:, None]
    cross = 0.5 * np.pi - np.angle(diff).ravel()
    base = np.concatenate([np.pi - np.angle(diff + 1e-3 * diff.sum(axis=1, keepdims=True)),
                           np.broadcast_to(cross, (len(u), cross.size))], axis=1)
    first = lo + np.mod(base - lo, 2 * np.pi)
    thetas = np.concatenate([np.full((len(u), 1), lo), np.full((len(u), 1), hi),
                             first, first + 2 * np.pi], axis=1)  # (n, candidates)
    d = -np.real(np.exp(1j * thetas)[..., None] * diff[:, None])  # (n, candidates, n)
    depth = np.where(other, d, np.inf).min(axis=2)
    depth[np.isinf(depth)] = 0.0
    score = np.where(thetas <= hi, depth + 1e-3 * np.where(other, d, 0.0).sum(axis=2), -np.inf)
    return thetas[np.arange(len(u)), np.argmax(score, axis=1)]


def seed_objective(u, angles):
    """Column j's seed objective at angles[j]: its least recessive depth
    min_i -Re(e^{i theta}(u_j - u_i)) over the i with u_i != u_j (0 if there
    is none), plus 1e-3 times the sum of those depths."""
    u = np.asarray(u, dtype=complex)
    diff = u[:, None] - u[None, :]
    other = diff != 0
    d = -np.real(np.exp(1j * np.asarray(angles))[..., None] * diff)
    depth = np.where(other, d, np.inf).min(axis=-1)
    return np.where(np.isinf(depth), 0.0, depth) + 1e-3 * np.where(other, d, 0.0).sum(axis=-1)


def column_seed_directions_grid(u, frame, grid: int = 720):
    """The seed direction of every column in one frame, as the best of 720
    evenly spaced angles of the padded frame (the first on ties)."""
    pad = min(0.05, 0.1 * (frame.hi - frame.lo))
    thetas = np.linspace(frame.lo + pad, frame.hi - pad, grid)
    score = seed_objective(u, np.broadcast_to(thetas[:, None], (grid, len(u))))
    return thetas[np.argmax(score, axis=0)]


def column_ode(sys, shift_u, shift_b):
    """odeengine.irregular_ode in the scalar gauge y e^{-shift_u z} z^{-shift_b}
    of one column: A - shift_b in place of A."""
    from dataclasses import replace

    from isomlab.odeengine import irregular_ode

    ode = irregular_ode(sys, shift_u)
    Q = ode.Q.copy()
    Q[-2] -= shift_b * np.eye(sys.n, dtype=complex)
    return replace(ode, Q=Q)


def sector_results_reference(cfg, requests):
    """What odeengine.sector_plan makes of `requests`, with the seeds of its
    SectorTable, by the per-column plan: every column on its own ODE, in its
    own gauge y e^{-u_j z} z^{-b_j}, along a radial leg in from its seed and
    one uncut sweep, stepped in its own direction, to z*, and the Levelt
    solution of a Stokes request that carries Levelt data on the system's
    own ODE, radially out to z*.  z* is on the circle of the sweeps, at
    min(R / 2, max(0.5, 4 / max |u_i - u_j|)): on the midpoint of the
    overlap of sectors r and r + 1 for a Stokes request, on that of sector r
    for a sectorial one.  Returns (S, C_r) of a Stokes request (C_r None
    without Levelt data) and Y_r(z*) of a sectorial one."""
    import math

    from isomlab.odeengine import (
        Leg,
        PathPoint,
        SectorTable,
        _polar,
        irregular_ode,
        levelt_handle,
        transport_matrix,
    )

    table = SectorTable(cfg, requests)
    R = cfg.radius
    out = []
    for q in requests:
        s, f = table.system_index[id(q.sys)], table.series_index[id(q.fs.F)]
        rho = min(R / 2.0, max(0.5, 4.0 / max(
            np.abs(q.sys.u[:, None] - q.sys.u[None, :]).max(), 1e-6)))
        if q.kind == "stokes":
            lo, hi = table.frames[s, q.r + 1].lo, table.frames[s, q.r].hi
            zstar = PathPoint.from_polar(rho, 0.5 * (lo + hi))
        else:
            zstar = PathPoint.from_polar(rho, table.frames[s, q.r].midpoint)
        k_opt = table.truncations[f][0]
        F = table.series[f][:k_opt]
        E = np.exp(q.fs.u * zstar.z + q.fs.b * (math.log(zstar.radius) + 1j * zstar.arg))
        G = []  # the columns y_j e^{-u_j z} z^{-b_j} at z*
        for k in q.sectors:
            odes, seeds, paths = [], [], []
            for j, theta in enumerate(table.angles[s, k].tolist()):
                seed, turn = _polar(R, theta), _polar(rho, theta)
                legs = [Leg(seed, turn), Leg(turn, zstar.z, center=0j, sweep=zstar.arg - theta)]
                odes.append(column_ode(q.sys, q.fs.u[j], q.fs.b[j]))
                seeds.append(np.eye(q.sys.n)[j] + F[:, :, j].T @ seed ** -np.arange(1.0, k_opt + 1))
                paths.append(legs)
            G.append(np.array(transport_matrix(odes, seeds, paths, cfg.tol)).T)
        if q.kind == "sectorial":
            out.append(G[0] * E)
            continue
        C = None
        if q.ld is not None:
            lev = levelt_handle(q.sys, q.ld, zstar, cfg.tol)
            V = transport_matrix(irregular_ode(q.sys), lev.value, [Leg(lev.point.z, zstar.z)],
                                 cfg.tol)
            C = np.linalg.solve(V, G[0] * E)
        # the quotient in the F-gauge, regraded (see odeengine.stokes_matrix)
        out.append((np.linalg.solve(G[0], G[1]) * E[None, :] / E[:, None], C))
    return out


def leakage_reference(u, angles, radius) -> float:
    """Largest admixture of another solution in seeds at `angles` of one frame."""
    diff = u[:, None] - u[None, :]
    depth = -np.real(np.exp(1j * np.asarray(angles))[:, None] * diff)
    admixture = np.minimum(1.0, np.abs(diff)) * np.exp(-radius * np.maximum(depth, 0.0))
    return float(np.max(admixture[diff != 0], initial=0.0))


def optimal_truncation_reference(F, radius):
    """The optimal truncation (k, first omitted term) of one series F_1..F_K."""
    if len(F) == 0:
        return 0, np.inf
    norms = np.linalg.svd(np.asarray(F), compute_uv=False)[:, 0]
    terms = norms * float(radius) ** -np.arange(1, len(F) + 1)
    k = int(np.argmin(np.where(np.isnan(terms), np.inf, terms)))
    if not terms[k] < np.inf:
        return 0, np.inf
    return k + 1, float(terms[k])


def truncated_formal(fs, z, arg_branch, K):
    """(I + sum_{k<=K} F_k z^-k) z^B e^{z Lambda} at a point of the cover:
    the truncated formal solution, with z^B on the given continuous
    argument; B and Lambda are diagonal, so the exponential factors are
    entrywise."""
    n = len(fs.b)
    F = np.eye(n, dtype=complex) + sum(
        (fs.F[k - 1] * complex(z) ** -k for k in range(1, K + 1)), np.zeros((n, n)))
    w = np.log(abs(z)) + 1j * arg_branch
    return F * np.exp(fs.b * w + complex(z) * fs.u)[None, :]


def formal_coefficients_reference(sys, K: int, coalesce_tol: float = 0.0):
    """F_1..F_K of `compute_formal_coefficients` (its checks left out) by the
    recursion on numpy complex scalars, entry by entry, with the coalesced
    entries of each column from one np.linalg.solve of its order-(k+1)
    relation per order; the library runs the recursion on Python scalars and
    inverts the relations of all orders at once."""
    from isomlab.geometry import coalescence_labels

    A, u, n = sys.A, sys.u, sys.n
    d = np.diag(A)
    label = coalescence_labels(u, coalesce_tol)
    coalesced = (label[:, None] == label[None, :]) & ~np.eye(n, dtype=bool)
    F_all = []
    for k in range(1, K + 1):
        Fk = np.zeros((n, n), dtype=complex)
        Fprev = F_all[k - 2] if k >= 2 else np.eye(n, dtype=complex)
        for i in range(n):
            for j in range(n):
                if i == j or coalesced[i, j]:
                    continue
                num = (d[i] - d[j] + k - 1) * Fprev[i, j]
                num += sum(A[i, p] * Fprev[p, j] for p in range(n) if p != i)
                Fk[i, j] = num / (u[j] - u[i])
        for j in range(n):
            # (A_ii - A_jj + k)(F_k)_ij + sum_{p != i} A_ip (F_k)_pj = 0 for the
            # rows i coalesced with j, whose entries are the unknowns
            rows = [i for i in range(n) if coalesced[i, j]]
            if not rows:
                continue
            M = np.array([[d[i] - d[j] + k if p == i else A[i, p] for p in rows]
                          for i in rows])
            rhs = np.array([-sum((A[i, p] * Fk[p, j] for p in range(n)
                                  if p != i and not coalesced[p, j]), 0j) for i in rows])
            Fk[rows, j] = np.linalg.solve(M, rhs)
        for i in range(n):
            acc = sum((A[i, p] * Fk[p, i] for p in range(n) if p != i), 0j)
            Fk[i, i] = -acc / k
        F_all.append(Fk)
    return F_all


def ray_family_series_reference(A0, uC, v, order: int = 4):
    """[A_0, ..., A_order] of `verify.ray_family_series` (its checks left
    out) by probing: every order-m coefficient of sum_j v_j [W_j(s), A(s)] is
    re-evaluated with each coalescing entry of A_{m+1} set to 1 in turn, with
    per-entry geometric sums for the ratios A_ab / (u_a - u_b), and the small
    linear system of the coalescing entries is read off the differences."""
    from isomlab.geometry import coalescence_labels

    A0 = np.asarray(A0, dtype=complex)
    ref = np.asarray(uC, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = len(ref)
    label = coalescence_labels(ref, 1e-12)
    unknowns = [(a, b) for a in range(n) for b in range(n) if a != b and label[a] == label[b]]
    co = set(unknowns)
    dmat = ref[:, None] - ref[None, :]
    gmat = v[:, None] - v[None, :]

    def g_coeff(coeffs, m, x):
        """Order-m coefficient, with `x` the candidate (A_{m+1})_ab of the
        coalescing entries."""
        R = [np.zeros((n, n), dtype=complex) for _ in range(m + 1)]
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                if (a, b) in co:
                    for t in range(m + 1):
                        nxt = coeffs[t + 1][a, b] if t + 1 <= m else x.get((a, b), 0.0)
                        R[t][a, b] += nxt / gmat[a, b]
                else:
                    # 1/(d + s*g) = (1/d) sum_t (-g/d)^t s^t
                    d, g = dmat[a, b], gmat[a, b]
                    for t in range(m + 1):
                        acc = 0.0 + 0.0j
                        for q in range(t + 1):
                            acc += coeffs[t - q][a, b] * (-g / d) ** q / d
                        R[t][a, b] += acc
        out = np.zeros((n, n), dtype=complex)
        for t in range(m + 1):
            Wsum = R[t] * gmat
            out += Wsum @ coeffs[m - t] - coeffs[m - t] @ Wsum
        return out

    coeffs = [A0]
    for m in range(order):
        base = g_coeff(coeffs, m, {p: 0.0 for p in unknowns})
        cols = []
        for p in unknowns:
            probe = {q: (1.0 if q == p else 0.0) for q in unknowns}
            cols.append(g_coeff(coeffs, m, probe) - base)
        k = len(unknowns)
        Mmat = np.zeros((k, k), dtype=complex)
        rhs = np.zeros(k, dtype=complex)
        for a_idx, p in enumerate(unknowns):
            rhs[a_idx] = base[p]
            for b_idx in range(k):
                Mmat[a_idx, b_idx] = cols[b_idx][p]
        x = np.linalg.solve((m + 1) * np.eye(k) - Mmat, rhs)
        Anext = g_coeff(coeffs, m, {p: x[i] for i, p in enumerate(unknowns)}) / (m + 1)
        np.fill_diagonal(Anext, 0.0)
        for i, p in enumerate(unknowns):
            Anext[p] = x[i]
        coeffs.append(Anext)
    return coeffs


def levelt_exponents_reference(A, tol):
    """The Levelt exponents in two steps: a Jordan form with its chains laid
    out cluster by cluster in (Re, Im) order, then its blocks regrouped into
    integer-difference classes, offsets descending, by a permutation of G
    and J.  Returns a LeveltData, or raises what the two steps raise."""
    from isomlab.errors import EigenSolverError, JordanChainError
    from isomlab.levelt import LeveltData
    from isomlab.matrixcore import _chain_groups

    M = as_square(A)
    n = M.shape[0]
    if n > 8:
        raise ValueError("Jordan extraction restricted to n <= 8")
    try:
        eigs = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue solver failed: {exc}") from exc
    groups = _chain_groups(len(eigs), lambda i, j: abs(eigs[i] - eigs[j]) <= tol)
    clusters = sorted(((complex(np.mean(eigs[g])), len(g)) for g in groups),
                      key=lambda c: (c[0].real, c[0].imag))
    scale = max(np.linalg.norm(M, 2), 1.0)

    # step 1: Jordan chains per cluster, (Re, Im) order
    cols, jblocks = [], []
    for lam, mult in clusters:
        B = M - lam * np.eye(n)
        normB = max(np.linalg.norm(B, 2), tol * scale)
        kernels, P, dims = [], np.eye(n, dtype=complex), [0]
        for k in range(1, mult + 1):
            P = P @ B
            thresh = tol * normB**k
            _, svals, Vh = np.linalg.svd(P)
            K = Vh.conj().T[:, svals <= thresh]
            if np.any((svals > 0.02 * thresh) & (svals < 50 * thresh)):
                raise JordanChainError(
                    f"rank decision ambiguous near eigenvalue {lam:.6g}; coarsen or refine tol")
            kernels.append(K)
            dims.append(K.shape[1])
            if K.shape[1] >= mult:
                break
        if dims[-1] != mult:
            raise JordanChainError(
                f"kernel of (A - {lam:.6g} I)^k saturated at dimension "
                f"{dims[-1]} < multiplicity {mult}")
        s = len(kernels)
        weyr = [dims[k + 1] - dims[k] for k in range(s)] + [0]
        built, sizes = [[] for _ in range(s + 2)], []
        for k in range(s, 0, -1):
            new_chains = weyr[k - 1] - weyr[k]
            if new_chains <= 0:
                continue
            Kk = kernels[k - 1]
            obstruction = ([kernels[k - 2]] if k >= 2 else []) + (
                [np.column_stack(built[k])] if built[k] else [])
            if obstruction:
                Q, _ = np.linalg.qr(np.column_stack(obstruction))
                T = Kk - Q @ (Q.conj().T @ Kk)
            else:
                T = Kk
            _, sv, Vh = np.linalg.svd(T)
            if len(sv) < new_chains or sv[new_chains - 1] <= 10 * tol:
                raise JordanChainError(f"chain top selection degenerate near eigenvalue {lam:.6g}")
            for m in range(new_chains):
                v = Kk @ Vh.conj().T[:, m]
                chain = [v / np.linalg.norm(v)]
                for _ in range(k - 1):
                    chain.append(B @ chain[-1])
                chain.reverse()
                for h, w in enumerate(chain, start=1):
                    built[h].append(w)
                cols.extend(chain)
                sizes.append(k)
        jblocks.append((lam, tuple(sorted(sizes, reverse=True))))
    G0 = np.column_stack(cols)
    J0 = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, sizes in jblocks:
        for size in sizes:
            J0[pos : pos + size, pos : pos + size] = lam * np.eye(size) + np.diag(
                np.ones(size - 1), 1)
            pos += size
    try:
        Ginv = np.linalg.inv(G0)
    except np.linalg.LinAlgError as exc:
        raise JordanChainError(f"similarity matrix singular: {exc}") from exc
    residual = float(np.linalg.norm(Ginv @ M @ G0 - J0, 2))
    if residual > 10 * tol * scale:
        raise JordanChainError(
            f"Jordan residual {residual:.3e} exceeds 10*tol*||A|| = {10 * tol * scale:.3e}")

    # step 2: whole blocks regrouped into classes, offsets descending
    blocks, pos = [], 0
    for lam, sizes in jblocks:
        for size in sizes:
            blocks.append((lam, pos, size))
            pos += size

    def integer_apart(a, b):
        diff = blocks[a][0] - blocks[b][0]
        return abs(diff - round(diff.real)) <= tol

    cls = []
    for idxs in _chain_groups(len(blocks), integer_apart):
        lam0 = blocks[idxs[0]][0]
        sig = lam0 - np.floor(lam0.real)
        cls.append((sig, sorted(idxs, key=lambda b: (-int(round((blocks[b][0] - sig).real)),
                                                      -blocks[b][2]))))
    cls.sort(key=lambda c: (c[0].real, c[0].imag))
    perm, d, sigma = [], np.zeros(n, dtype=int), np.zeros(n, dtype=complex)
    for sig, idxs in cls:
        for b in idxs:
            lam, start, size = blocks[b]
            perm += range(start, start + size)
            d[len(perm) - size : len(perm)] = int(round((lam - sig).real))
            sigma[len(perm) - size : len(perm)] = sig
    G = G0[:, perm]
    J = np.diag(sigma + d) + (J0 - np.diag(np.diag(J0)))[np.ix_(perm, perm)]
    N = J - np.diag(np.diag(J))
    resid = float(np.linalg.norm(np.linalg.inv(G) @ M @ G - J, 2))
    return LeveltData(d=d, sigma=sigma, N=N, G=G, J=J, residual=resid)
