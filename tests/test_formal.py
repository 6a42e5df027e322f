import numpy as np
import pytest

from isomlab.errors import CoincidentPointsError, ResonanceError
from isomlab.formal import (
    IrregularSystem,
    check_resonances,
    compute_formal_coefficients,
    eval_truncated_formal,
    flow_derivative_oracle,
    formal_monodromy,
    ode_laurent_residuals,
    optimal_truncation,
)


def random_system(rng, n, min_gap=0.6):
    while True:
        u = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        d = np.abs(u[:, None] - u[None, :]) + np.eye(n)
        if d.min() > min_gap:
            break
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return IrregularSystem(u=u, A=A)


class TestFormalMonodromy:
    def test_offdiagonal(self):
        sys = IrregularSystem(u=[0, 1], A=[[0, 1], [1, 0]])
        assert np.allclose(formal_monodromy(sys), np.zeros((2, 2)))

    def test_diagonal(self):
        sys = IrregularSystem(u=[0, 1], A=np.diag([1.5, 0.5]))
        assert np.allclose(formal_monodromy(sys), np.diag([1.5, 0.5]))

    def test_generic(self):
        sys = IrregularSystem(u=[0, 1], A=[[1, 2], [3, 4]])
        assert np.allclose(formal_monodromy(sys), np.diag([1.0, 4.0]))


class TestGenericRecursion:
    def test_first_coefficient_worked_example(self):
        sys = IrregularSystem(u=[0.0, 1.0], A=[[0, 1], [1, 0]])
        fs = compute_formal_coefficients(sys, K=2)
        assert np.allclose(fs.F[0], [[1, 1], [-1, -1]])
        assert np.allclose(fs.F[1], 0.0)

    def test_diagonal_system_vanishes(self):
        sys = IrregularSystem(u=[0.0, 1.0, 2.5], A=np.diag([0.3, -0.1, 0.8]))
        fs = compute_formal_coefficients(sys, K=6)
        for F in fs.F:
            assert np.allclose(F, 0.0)

    def test_closed_form_first_order(self):
        # (F_1)_{ij} = A_ij/(u_j - u_i), diagonal via the k = 1 rule
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = rng.choice([2, 3])
            sys = random_system(rng, int(n))
            fs = compute_formal_coefficients(sys, K=1)
            F1 = fs.F[0]
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    expect = sys.A[i, j] / (sys.u[j] - sys.u[i])
                    assert abs(F1[i, j] - expect) <= 1e-12
            for i in range(n):
                expect = -sum(
                    sys.A[i, j] * F1[j, i] for j in range(int(n)) if j != i
                )
                assert abs(F1[i, i] - expect) <= 1e-12

    def test_defining_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            sys = random_system(rng, 3)
            fs = compute_formal_coefficients(sys, K=8)
            assert max(ode_laurent_residuals(sys, fs)) < 1e-10

    def test_defining_identity_with_higher_poles(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            sys0 = random_system(rng, 3)
            higher = tuple(
                rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                for _ in range(2)
            )
            sys = IrregularSystem(u=sys0.u, A=sys0.A, higher=higher)
            fs = compute_formal_coefficients(sys, K=8)
            assert max(ode_laurent_residuals(sys, fs)) < 1e-10

    def test_coincident_u_rejected(self):
        sys = IrregularSystem(u=[0.0, 0.0], A=[[0, 1], [1, 0]])
        with pytest.raises(CoincidentPointsError):
            compute_formal_coefficients(sys, K=2)


class TestCoalescedRecursion:
    def test_pattern_required(self):
        sys = IrregularSystem(u=[0.0, 0.0, 1.0], A=np.ones((3, 3)))
        with pytest.raises(CoincidentPointsError):
            compute_formal_coefficients(sys, K=2, coalesce_tol=1e-9)

    def test_negative_integer_resonance_rejected(self):
        A = np.diag([0.0, 2.0, 0.3]).astype(complex)
        A[0, 2] = 0.5
        sys = IrregularSystem(u=[0.0, 0.0, 1.0], A=A)
        with pytest.raises(ResonanceError):
            compute_formal_coefficients(sys, K=2, coalesce_tol=1e-9)

    def test_defining_identity_at_coalescence(self):
        A = np.array(
            [[0.3, 0.0, 0.1], [0.0, -0.2, 0.15], [0.12, -0.08, 0.25]], dtype=complex
        )
        sys = IrregularSystem(u=[0.0, 0.0, 1.0], A=A)
        fs = compute_formal_coefficients(sys, K=8, coalesce_tol=1e-9)
        assert max(ode_laurent_residuals(sys, fs)) < 1e-10


class TestCheckResonances:
    def test_exact_difference(self):
        assert check_resonances(np.diag([1.5, 0.5])) == [(0, 1, 1), (1, 0, -1)]

    def test_clean(self):
        assert check_resonances(np.diag([0.0, 1.0 / 3.0])) == []

    def test_exhaustive_scan(self):
        found = check_resonances(np.diag([0.0, 2.0 + 1e-12, 5.0]), tol=1e-8)
        pos = {(i, j, k) for (i, j, k) in found if k > 0}
        assert pos == {(1, 0, 2), (2, 0, 5), (2, 1, 3)}
        # ordered pairs come with both signs
        assert (0, 1, -2) in found


class TestEvaluation:
    def test_truncation_zero_is_exponential_factor(self):
        sys = IrregularSystem(u=[0.0, 1.0], A=[[0.5, 1.0], [1.0, 0.25]])
        fs = compute_formal_coefficients(sys, K=4)
        z, arg = 2.0 + 1.0j, np.angle(2.0 + 1.0j)
        got = eval_truncated_formal(fs, z, arg, K=0)
        w = np.log(abs(z)) + 1j * arg
        expect = np.diag(np.exp(np.diag(sys.A) * w + z * sys.u))
        assert np.allclose(got, expect)

    def test_diagonal_system_exact_for_all_orders(self):
        sys = IrregularSystem(u=[0.0, 1.0], A=np.diag([0.5, 0.25]))
        fs = compute_formal_coefficients(sys, K=6)
        z, arg = -1.0 + 0.4j, np.angle(-1.0 + 0.4j)
        assert np.allclose(
            eval_truncated_formal(fs, z, arg, K=6),
            eval_truncated_formal(fs, z, arg, K=0),
        )

    def test_optimal_truncation_matches_term_scan(self):
        # reference: scan the terms ||F_k|| R^-k in order, keeping the first
        # strict minimum
        rng = np.random.default_rng(12)
        terminating = IrregularSystem(u=[0.0, 1.0], A=np.array([[0, 1], [1, 0]], dtype=complex))
        for sys in (random_system(rng, 3), terminating):
            fs = compute_formal_coefficients(sys, K=24)
            for radius in (0.5, 4.0, 20.0):
                best_k, best = 0, np.inf
                for k in range(1, fs.K + 1):
                    t = float(np.linalg.norm(fs.F[k - 1], 2)) * radius ** (-k)
                    if t < best:
                        best_k, best = k, t
                assert optimal_truncation(fs, radius) == (best_k, best)

    def test_matches_ode_solution_within_optimal_truncation(self):
        # cross-validation against transport seeded much farther out
        from isomlab.odeengine import Leg, PathPoint, SolutionHandle, integrate_path

        sys = IrregularSystem(
            u=[0.0, 1.0], A=np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
        )
        fs = compute_formal_coefficients(sys, K=40)
        theta = 0.3 - 1.5 * np.pi  # interior direction of S_0
        far = PathPoint.from_polar(34.0, theta)
        k_far, _ = optimal_truncation(fs, 34.0)
        handle = SolutionHandle(
            system=sys,
            point=far,
            value=eval_truncated_formal(fs, far.z, far.arg, K=k_far),
        )
        near = PathPoint.from_polar(10.0, theta)
        transported = integrate_path(sys, handle, [Leg(far.z, near.z)], tol=1e-12)
        k10, bound10 = optimal_truncation(fs, 10.0)
        direct = eval_truncated_formal(fs, near.z, near.arg, K=k10)
        scale = np.abs(transported.value).max()
        assert np.max(np.abs(direct - transported.value)) <= 5 * bound10 * scale

    def test_terminating_series_is_exact(self):
        # for this system F_k = 0 for k >= 2, so the truncated factor solves
        # the equation exactly; check against a transported solution
        from isomlab.odeengine import Leg, PathPoint, SolutionHandle, integrate_path

        sys = IrregularSystem(u=[0.0, 1.0], A=np.array([[0, 1], [1, 0]], dtype=complex))
        fs = compute_formal_coefficients(sys, K=6)
        assert all(np.allclose(F, 0.0) for F in fs.F[1:])
        theta = 0.3 - 1.5 * np.pi
        a = PathPoint.from_polar(10.0, theta)
        handle = SolutionHandle(
            system=sys,
            point=a,
            value=eval_truncated_formal(fs, a.z, a.arg, K=1),
        )
        got = integrate_path(sys, handle, [Leg(a.z, a.z / 2)], tol=1e-12)
        expect = eval_truncated_formal(fs, got.point.z, got.point.arg, K=1)
        scale = np.abs(expect).max()
        assert np.max(np.abs(got.value - expect)) < 1e-9 * scale

    def test_optimal_truncation_monotone_prefix(self):
        sys = IrregularSystem(
            u=[0.0, 1.0], A=np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
        )
        fs = compute_formal_coefficients(sys, K=40)
        k1, b1 = optimal_truncation(fs, 10.0)
        k2, b2 = optimal_truncation(fs, 20.0)
        assert k2 >= k1
        assert b2 < b1


class TestIsomonodromicMode:
    def test_requires_oracle(self):
        sys = IrregularSystem(u=[0.0, 1.0], A=[[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            compute_formal_coefficients(sys, K=2, mode="isomonodromic")

    def test_agrees_with_generic_along_strong_flow(self):
        from isomlab.isoflow import DeformationState, UPath, integrate_flow

        A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
        sys = IrregularSystem(u=[0.0, 1.0], A=A)

        def flow_step(j, delta):
            target = sys.u.copy()
            target[j] += delta
            res = integrate_flow(
                DeformationState(u=sys.u, A=A), UPath.line(sys.u, target), tol=1e-12
            )
            return res.state.A

        du = flow_derivative_oracle(sys, flow_step, h=1e-5, K=6)
        fs_iso = compute_formal_coefficients(sys, K=5, mode="isomonodromic", du=du)
        fs_gen = compute_formal_coefficients(sys, K=5)
        for Fi, Fg in zip(fs_iso.F, fs_gen.F):
            assert np.max(np.abs(Fi - Fg)) < 1e-6  # centered FD accuracy
