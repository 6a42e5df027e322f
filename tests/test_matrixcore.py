import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isomlab.errors import ResonanceError
from isomlab.matrixcore import (
    cluster_eigenvalues,
    matrix_power,
    similar_to_jordan,
    solve_sylvester,
)
from reference_solvers import solve_sylvester_lstsq


class TestClusterEigenvalues:
    def test_near_degenerate_pair(self):
        cl = cluster_eigenvalues(np.diag([1.0, 1.0 + 1e-12, 2.0]), tol=1e-8)
        assert cl.multiplicities == (2, 1)
        assert abs(cl.values[0] - 1.0) < 1e-9
        assert abs(cl.values[1] - 2.0) < 1e-12

    def test_identity(self):
        cl = cluster_eigenvalues(np.eye(3), tol=1e-3)
        assert cl.multiplicities == (3,)
        assert abs(cl.values[0] - 1.0) < 1e-12

    def test_nilpotent(self):
        # characteristic polynomial lambda^2 = 0 by hand expansion
        cl = cluster_eigenvalues(np.array([[0, 1], [0, 0]]), tol=1e-8)
        assert cl.multiplicities == (2,)
        assert abs(cl.values[0]) < 1e-7

    def test_count_nonincreasing_in_tol(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        counts = [
            cluster_eigenvalues(A, tol).count for tol in (1e-10, 1e-6, 1e-2, 1.0, 10.0)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            cluster_eigenvalues(np.ones((2, 3)), 1e-8)


class TestSimilarToJordan:
    def test_already_diagonal(self):
        jd = similar_to_jordan(np.diag([2.0, 3.0]))
        assert np.allclose(jd.J, np.diag([2.0, 3.0]))
        assert jd.residual < 1e-12

    def test_already_jordan_nilpotent(self):
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        jd = similar_to_jordan(A)
        assert np.allclose(jd.J, A)
        assert jd.blocks[0][1] == (2,)

    def test_upper_triangular(self):
        A = np.array([[1, 1], [0, 2]], dtype=complex)
        jd = similar_to_jordan(A)
        assert np.allclose(jd.J, np.diag([1.0, 2.0]))
        # eigenvector directions (1,0) and (1,1), up to scale
        Ginv = np.linalg.inv(jd.G)
        assert np.linalg.norm(Ginv @ A @ jd.G - jd.J) < 1e-12
        v1, v2 = jd.G[:, 0], jd.G[:, 1]
        assert abs(v1[1] / v1[0]) < 1e-12
        assert abs(v2[1] / v2[0] - 1.0) < 1e-12

    def test_residual_bound_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            jd = similar_to_jordan(A, tol=1e-8)
            scale = max(np.linalg.norm(A, 2), 1.0)
            assert jd.residual <= 10 * 1e-8 * scale

    def test_jordan_block_sizes_nonincreasing(self):
        # two blocks of sizes 2 and 1 for the same eigenvalue
        J = np.zeros((3, 3), dtype=complex)
        J[0, 1] = 1.0
        rng = np.random.default_rng(3)
        G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        A = G @ J @ np.linalg.inv(G)
        jd = similar_to_jordan(A, tol=1e-6)
        assert jd.blocks[0][1] == (2, 1)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            similar_to_jordan(np.eye(9))


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


class TestMatrixPower:
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
