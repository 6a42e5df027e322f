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
