import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isomlab.errors import ResonanceError
from isomlab.levelt import LeveltData, compute_levelt_exponents, eval_levelt
from isomlab.matrixcore import solve_sylvester
from reference_solvers import solve_sylvester_lstsq


class TestClusterEigenvalues:
    """Eigenvalue clustering, seen through the diagonal of the Levelt J: one
    value per cluster, its multiplicity the number of positions."""

    def test_near_degenerate_pair(self):
        ld = compute_levelt_exponents(np.diag([1.0, 1.0 + 1e-12, 2.0]), tol=1e-8)
        # one class, sigma near 0: the cluster at 2 (offset 2), then the pair at 1
        assert list(ld.d) == [2, 1, 1]
        assert abs(ld.sigma[0]) < 1e-9
        assert abs(ld.J[1, 1] - 1.0) < 1e-9 and ld.J[1, 1] == ld.J[2, 2]
        assert abs(ld.J[0, 0] - 2.0) < 1e-12

    def test_identity(self):
        ld = compute_levelt_exponents(np.eye(3), tol=1e-3)
        assert list(ld.d) == [1, 1, 1]
        assert np.allclose(ld.sigma, 0.0) and np.allclose(ld.N, 0.0)

    def test_nilpotent(self):
        # characteristic polynomial lambda^2 = 0 by hand expansion
        ld = compute_levelt_exponents(np.array([[0, 1], [0, 0]]), tol=1e-8)
        assert ld.sigma[0] == ld.sigma[1]  # one class over both positions
        assert np.max(np.abs(np.diag(ld.J))) < 1e-7

    def test_count_nonincreasing_in_tol(self):
        # gaps 1e-9, 1e-5 and 0.5 + an integer: each coarser tol chains one more
        A = np.diag([0.0, 1e-9, 1e-5, 1.5])
        counts = [
            len(set(np.diag(compute_levelt_exponents(A, tol).J))) for tol in (1e-12, 1e-7, 1e-3)
        ]
        assert counts == [4, 3, 2]

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            compute_levelt_exponents(np.ones((2, 3)), 1e-8)


class TestSimilarToJordan:
    """The similarity G^-1 A G = J of the Levelt exponents, blocks in Levelt
    order: classes by sigma, offsets descending, longest chains first."""

    def test_already_diagonal(self):
        ld = compute_levelt_exponents(np.diag([2.0, 3.0]))
        assert np.allclose(ld.J, np.diag([3.0, 2.0]))
        assert ld.residual < 1e-12

    def test_already_jordan_nilpotent(self):
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        ld = compute_levelt_exponents(A)
        assert np.allclose(ld.J, A) and np.allclose(ld.N, A)

    def test_upper_triangular(self):
        A = np.array([[1, 1], [0, 2]], dtype=complex)
        ld = compute_levelt_exponents(A)
        assert np.allclose(ld.J, np.diag([2.0, 1.0]))
        # eigenvector directions (1,1) and (1,0), up to scale
        Ginv = np.linalg.inv(ld.G)
        assert np.linalg.norm(Ginv @ A @ ld.G - ld.J) < 1e-12
        v2, v1 = ld.G[:, 0], ld.G[:, 1]
        assert abs(v1[1] / v1[0]) < 1e-12
        assert abs(v2[1] / v2[0] - 1.0) < 1e-12

    def test_residual_bound_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            ld = compute_levelt_exponents(A, tol=1e-8)
            scale = max(np.linalg.norm(A, 2), 1.0)
            assert ld.residual <= 10 * 1e-8 * scale

    def test_jordan_block_sizes_nonincreasing(self):
        # two blocks of sizes 2 and 1 for the same eigenvalue
        J = np.zeros((3, 3), dtype=complex)
        J[0, 1] = 1.0
        rng = np.random.default_rng(3)
        G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        A = G @ J @ np.linalg.inv(G)
        ld = compute_levelt_exponents(A, tol=1e-6)
        assert np.array_equal(ld.N, J)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="n <= 8"):
            compute_levelt_exponents(np.eye(9))


class TestSolveSylvester:
    def test_scalar(self):
        X = solve_sylvester(np.array([[1.0]]), np.array([[0.0]]), np.array([[3.0]]))
        assert np.allclose(X, [[3.0]])

    def test_homogeneous_shifted(self):
        A = np.diag([0.0, 1.0 / 3.0])
        X = solve_sylvester(A + np.eye(2), A, np.zeros((2, 2)))
        assert np.allclose(X, 0.0)

    def test_entrywise_formula(self):
        # X_ab = R_ab / (P_aa - Q_bb)
        X = solve_sylvester(np.diag([1.0, 2.0]), np.diag([0.0, 0.0]), np.ones((2, 2)))
        assert np.allclose(X, [[1.0, 1.0], [0.5, 0.5]])

    def test_resonance_reported(self):
        with pytest.raises(ResonanceError) as err:
            solve_sylvester(np.diag([1.0, 2.0]), np.diag([2.0, 5.0]), np.ones((2, 2)))
        assert err.value.pair is not None

    def test_residual_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            P = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            Q = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 10.0 * np.eye(3)
            R = rng.normal(size=(3, 3))
            X = solve_sylvester(P, Q, R)
            lhs = np.linalg.norm(P @ X - X @ Q - R)
            bound = 1e-10 * (np.linalg.norm(P) + np.linalg.norm(Q)) * max(
                np.linalg.norm(X), 1.0
            )
            assert lhs <= bound

    def test_lstsq_minnorm_on_singular(self):
        # P and Q share an eigenvalue; consistent RHS
        P = np.diag([1.0, 2.0])
        Q = np.diag([1.0, 5.0])
        X, resid = solve_sylvester_lstsq(P, Q, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert resid < 1e-12
        assert abs(X[0, 0]) < 1e-12  # kernel component zeroed


def matrix_power(L, z, arg_branch):
    """z^L through the closed form of eval_levelt, for L = Sigma + N with N
    its strict upper triangle: Levelt data with G = I, D = 0 and no series."""
    L = np.asarray(L, dtype=complex)
    ld = LeveltData(d=np.zeros(len(L), dtype=int), sigma=np.diag(L).copy(), N=np.triu(L, 1),
                    G=np.eye(len(L)), J=L, residual=0.0)
    return eval_levelt(ld, z, arg_branch)


class TestMatrixPower:
    """z^L = diag(z^sigma) e^{N log z} on the universal cover (see also
    test_levelt.TestClosedFormPower, against scipy's expm)."""

    def test_zero_exponent(self):
        assert np.allclose(matrix_power(np.zeros((2, 2)), 2.7 + 1j, 0.354), np.eye(2))

    def test_half_exponent_loop(self):
        L = np.diag([0.5, 0.5])
        base = matrix_power(L, 1.0, 0.0)
        looped = matrix_power(L, 1.0, 2 * np.pi)
        assert np.allclose(looped, -base)

    def test_nilpotent_at_e(self):
        L = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(matrix_power(L, np.e, 0.0), np.eye(2) + L)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(0.2, 3.0),
        st.floats(-3.0, 3.0),
        st.floats(0.2, 3.0),
        st.floats(-3.0, 3.0),
    )
    def test_cocycle(self, a, b, r1, t1, r2, t2):
        # z^L w^L = (zw)^L when the branches add (commuting exponent)
        L = np.array([[a, b], [0.0, a]], dtype=complex)
        z = r1 * np.exp(1j * t1)
        w = r2 * np.exp(1j * t2)
        lhs = matrix_power(L, z, t1) @ matrix_power(L, w, t2)
        rhs = matrix_power(L, z * w, t1 + t2)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            matrix_power(np.eye(2), 0.0, 0.0)
