import numpy as np
import pytest

from isomlab.errors import CoincidentPointsError, ResonanceError
from isomlab.formal import (
    IrregularSystem,
    check_resonances,
    compute_formal_coefficients,
    ode_laurent_residuals,
    optimal_truncations,
)
from isomlab.isoflow import UPath, integrate_flow
from reference_solvers import formal_coefficients_reference, truncated_formal

# criterion 7's A0: its exact zeros make signed zeros in the recursion
CRIT7_A0 = np.array(
    [[0.10, 0.00, 0.06], [0.00, 0.10, 0.09], [0.075, -0.05, 0.45]], dtype=complex
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
    """The exponent B = diag(A) of the formal monodromy, as the series
    carries it."""

    def test_offdiagonal(self):
        sys = IrregularSystem(u=[0, 1], A=[[0, 1], [1, 0]])
        assert np.array_equal(compute_formal_coefficients(sys, K=1).b, [0.0, 0.0])

    def test_diagonal(self):
        sys = IrregularSystem(u=[0, 1], A=np.diag([1.5, 0.5]))
        assert np.array_equal(compute_formal_coefficients(sys, K=1).b, [1.5, 0.5])

    def test_generic(self):
        sys = IrregularSystem(u=[0, 1], A=[[1, 2], [3, 4]])
        assert np.array_equal(compute_formal_coefficients(sys, K=1).b, [1.0, 4.0])


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


class TestBitIdentity:
    """The recursion on Python scalars gives every F_k bit for bit as the
    numpy-scalar one does, so nothing built on the series moves.  With
    coalesced pairs the library multiplies by the inverse of each order's
    relation where the reference solves it, which rounds differently, so
    there every F_k agrees to 1e-14 relative to its largest entry."""

    @staticmethod
    def assert_same_bytes(sys, K, **kwargs):
        got = compute_formal_coefficients(sys, K=K, **kwargs).F
        want = formal_coefficients_reference(sys, K, **kwargs)
        assert len(got) == len(want) == K
        for k, (a, b) in enumerate(zip(got, want), start=1):
            assert a.tobytes() == b.tobytes(), f"F_{k} differs"

    @staticmethod
    def assert_close(sys, K, coalesce_tol):
        got = compute_formal_coefficients(sys, K=K, coalesce_tol=coalesce_tol).F
        want = formal_coefficients_reference(sys, K, coalesce_tol=coalesce_tol)
        assert len(got) == len(want) == K
        for k, (a, b) in enumerate(zip(got, want), start=1):
            assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), f"F_{k} differs"

    @pytest.mark.parametrize("n", range(2, 9))
    def test_seeded_systems(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(3):
            self.assert_same_bytes(random_system(rng, n), 30)

    def test_exact_zeros(self):
        for A in (CRIT7_A0, -CRIT7_A0):
            self.assert_same_bytes(IrregularSystem(u=[0.0, 0.5, 1.0], A=A), 30)

    @pytest.mark.parametrize("u, coalesce_tol", [([0.0, 0.0, 1.0], 1e-9),
                                                 ([0.0, 1e-3, 1.0], 1e-2)])
    def test_coalesced_system(self, u, coalesce_tol):
        self.assert_close(IrregularSystem(u=u, A=CRIT7_A0), 30, coalesce_tol)

    def test_coalesced_groups_of_two_and_three(self):
        # complex diagonals and couplings, groups {0, 1, 2} and {3, 4}
        rng = np.random.default_rng(33)
        u = np.array([0.0, 0.0, 0.0, 1.0, 1.0]) + 0.5j
        for _ in range(3):
            A = 0.4 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
            A[(u[:, None] == u[None, :]) & ~np.eye(5, dtype=bool)] = 0.0
            self.assert_close(IrregularSystem(u=u, A=A), 30, 1e-9)


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
    """The truncated formal solution, evaluated by the test oracle
    `truncated_formal`, against the series and the transport engine."""

    def test_truncation_zero_is_exponential_factor(self):
        sys = IrregularSystem(u=[0.0, 1.0], A=[[0.5, 1.0], [1.0, 0.25]])
        fs = compute_formal_coefficients(sys, K=4)
        z, arg = 2.0 + 1.0j, np.angle(2.0 + 1.0j)
        got = truncated_formal(fs, z, arg, K=0)
        w = np.log(abs(z)) + 1j * arg
        expect = np.diag(np.exp(np.diag(sys.A) * w + z * sys.u))
        assert np.allclose(got, expect)

    def test_diagonal_system_exact_for_all_orders(self):
        sys = IrregularSystem(u=[0.0, 1.0], A=np.diag([0.5, 0.25]))
        fs = compute_formal_coefficients(sys, K=6)
        z, arg = -1.0 + 0.4j, np.angle(-1.0 + 0.4j)
        assert np.allclose(
            truncated_formal(fs, z, arg, K=6),
            truncated_formal(fs, z, arg, K=0),
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
                assert optimal_truncations([fs.F], radius) == [(best_k, best)]

    def test_matches_ode_solution_within_optimal_truncation(self):
        # cross-validation against transport seeded much farther out
        from isomlab.odeengine import Leg, PathPoint, SolutionHandle, integrate_path

        sys = IrregularSystem(
            u=[0.0, 1.0], A=np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
        )
        fs = compute_formal_coefficients(sys, K=40)
        theta = 0.3 - 1.5 * np.pi  # interior direction of S_0
        far = PathPoint.from_polar(34.0, theta)
        (k_far, _), = optimal_truncations([fs.F], 34.0)
        handle = SolutionHandle(
            system=sys,
            point=far,
            value=truncated_formal(fs, far.z, far.arg, K=k_far),
        )
        near = PathPoint.from_polar(10.0, theta)
        transported = integrate_path(handle, [Leg(far.z, near.z)], tol=1e-12)
        (k10, bound10), = optimal_truncations([fs.F], 10.0)
        direct = truncated_formal(fs, near.z, near.arg, K=k10)
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
            value=truncated_formal(fs, a.z, a.arg, K=1),
        )
        got = integrate_path(handle, [Leg(a.z, a.z / 2)], tol=1e-12)
        expect = truncated_formal(fs, got.point.z, got.point.arg, K=1)
        scale = np.abs(expect).max()
        assert np.max(np.abs(got.value - expect)) < 1e-9 * scale

    def test_optimal_truncation_monotone_prefix(self):
        sys = IrregularSystem(
            u=[0.0, 1.0], A=np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
        )
        fs = compute_formal_coefficients(sys, K=40)
        (k1, b1), = optimal_truncations([fs.F], 10.0)
        (k2, b2), = optimal_truncations([fs.F], 20.0)
        assert k2 >= k1
        assert b2 < b1

    def test_overflowed_tail_truncates_as_its_finite_head(self):
        # the late terms of a divergent series can overflow, to inf first
        # and then to nan where infinities meet; a non-finite F_k is never
        # the truncation point, and it leaves the other series of the same
        # stacked pass as they are alone
        sys = IrregularSystem(u=[0.0, 1.0], A=[[0.2, 1.0], [0.7, -0.4]])
        head = compute_formal_coefficients(sys, K=30).F
        other = compute_formal_coefficients(sys, K=12).F
        tail = (np.array([[1.0, np.inf], [1.0, 1.0]]), np.full((2, 2), complex(np.nan, np.nan)))
        alone = optimal_truncations([head], 10.0) + optimal_truncations([other], 10.0)
        assert optimal_truncations([head + 3 * tail, other], 10.0) == alone
        assert alone[0][0] < len(head) and np.isfinite(alone[0][1])


class TestUSideRelation:
    """The series along the strong isomonodromy flow meets the
    u-side relation [F_{l+1}, E_i] = [F_1, E_i] F_l - d_i F_l of the Pfaffian
    system, with d_i F_l from central differences of the series at the ends
    of two short flows u -> u +- h e_i (an O(h^2) error)."""

    @staticmethod
    def commutator_with(X, i):
        # [X, E_i]: column i of X minus its row i
        W = np.zeros_like(X)
        W[:, i] = X[:, i]
        W[i, :] -= X[i, :]
        return W

    @pytest.mark.parametrize("sys", [
        IrregularSystem(u=[0.0, 1.0], A=[[0.2, 1.0], [0.7, -0.4]]),
        random_system(np.random.default_rng(3), 3),
    ], ids=["GENERIC_A", "seeded-n3"])
    def test_generic_series_meets_relation(self, sys):
        L, h = 4, 1e-4
        F = (np.eye(sys.n),) + compute_formal_coefficients(sys, K=L + 1).F
        for i in range(sys.n):
            step = h * np.eye(sys.n)[i]
            ends = [integrate_flow(sys, UPath.line(sys.u, sys.u + s * step), tol=1e-13)[0]
                    for s in (1, -1)]
            Fp, Fm = ((np.eye(sys.n),) + compute_formal_coefficients(e, K=L).F for e in ends)
            W = self.commutator_with(F[1], i)
            for l in range(1, L + 1):
                dF = (Fp[l] - Fm[l]) / (2 * h)
                lhs, rhs = self.commutator_with(F[l + 1], i), W @ F[l] - dF
                scale = max(np.linalg.norm(lhs), np.linalg.norm(W @ F[l]), np.linalg.norm(dF))
                assert np.linalg.norm(lhs - rhs) <= 1e-6 * scale, (i, l)
