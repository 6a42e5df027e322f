"""Reference solvers the tests compare the library against."""

import numpy as np

from isomlab.matrixcore import as_square


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


def schedule_reference(ode, legs, job):
    """The step layout of odeengine._schedule, one step index at a time,
    with every per-leg array indexed by the live legs on every step index."""
    from isomlab.errors import IntegrationError
    from isomlab.odeengine import STEP_FLOOR, STEP_GROWTH, STEP_RADIUS, LinearODE

    if isinstance(ode, LinearODE):
        ode = [ode] * len(legs)
    if isinstance(job, int):
        job = [(job, seg) for seg in range(len(legs))]
    first = {}
    which = np.array([first.setdefault(id(o), len(first)) for o in ode], dtype=int)
    distinct = list({id(o): o for o in ode}.values())
    roots = np.full((len(distinct), max((len(o.roots) for o in distinct), default=0)),
                    np.inf, dtype=complex)
    for k, o in enumerate(distinct):
        roots[k, : len(o.roots)] = o.roots
    growth = np.array([o.growth for o in distinct])
    hgrow = np.full(len(distinct), np.inf)
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
            f"transport {job[k][0]}, segment {job[k][1]} ({legs[k]}), runs into the "
            f"singular point {complex(near):.6g} (distance {gap:.3g} "
            f"at z = {complex(z0):.6g})"
        )
    starts = np.cumsum([len(s) for s in legs_of])
    return np.concatenate(z0s), np.concatenate(hs), np.concatenate(legs_of), starts
