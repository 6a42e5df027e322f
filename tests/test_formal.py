import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isomlab.errors import CoincidentPointsError, ResonanceError
from isomlab.formal import (
    IrregularSystem,
    check_resonances,
    compute_formal_coefficients,
    ode_laurent_residuals,
    optimal_truncations,
)
from isomlab.isoflow import UPath, integrate_flow
from reference_solvers import (
    formal_coefficients_reference,
    formal_coefficients_scalar,
    optimal_truncations_svd,
    truncated_formal,
)

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
    """The stacked einsum recursion gives every F_k of every series of a
    stack bit for bit as the recursion on Python scalars does
    (`formal_coefficients_scalar`, the byte oracle), coalesced entries
    included, so nothing built on the series moves.  Without coalesced pairs
    the recursion on numpy scalars (`formal_coefficients_reference`) gives
    the same bytes too; with them it solves each order's relation where the
    library multiplies by its inverse, which rounds differently, so there
    every F_k agrees with it to 1e-14 relative to its largest entry."""

    @staticmethod
    def assert_same_bytes(systems, K, coalesce_tol=0.0):
        got = compute_formal_coefficients(systems, K=K, coalesce_tol=coalesce_tol)
        assert len(got) == len(systems)
        for fs, sys, tol in zip(got, systems, np.broadcast_to(coalesce_tol, len(systems))):
            want = formal_coefficients_scalar(sys, K, tol)
            assert len(fs.F) == len(want) == K
            for k, (a, b) in enumerate(zip(fs.F, want), start=1):
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
        for size in (1, 2, 7):
            self.assert_same_bytes([random_system(rng, n) for _ in range(size)], 30)
        for _ in range(3):
            sys = random_system(rng, n)
            got = compute_formal_coefficients(sys, K=30).F
            want = formal_coefficients_reference(sys, 30)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_exact_zeros(self):
        self.assert_same_bytes([IrregularSystem(u=[0.0, 0.5, 1.0], A=A)
                                for A in (CRIT7_A0, -CRIT7_A0)], 30)

    @pytest.mark.parametrize("u, coalesce_tol", [([0.0, 0.0, 1.0], 1e-9),
                                                 ([0.0, 1e-3, 1.0], 1e-2)])
    def test_coalesced_system(self, u, coalesce_tol):
        sys = IrregularSystem(u=u, A=CRIT7_A0)
        self.assert_same_bytes([sys], 30, coalesce_tol)
        self.assert_close(sys, 30, coalesce_tol)

    def test_coalesced_groups_of_two_and_three(self):
        # complex diagonals and couplings, groups {0, 1, 2} and {3, 4}
        rng = np.random.default_rng(33)
        u = np.array([0.0, 0.0, 0.0, 1.0, 1.0]) + 0.5j
        systems = []
        for _ in range(3):
            A = 0.4 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
            A[(u[:, None] == u[None, :]) & ~np.eye(5, dtype=bool)] = 0.0
            systems.append(IrregularSystem(u=u, A=A))
            self.assert_close(systems[-1], 30, 1e-9)
        self.assert_same_bytes(systems, 30, 1e-9)

    def test_frozen_and_samples_in_one_stack(self):
        # verify_coalescence's stack: the frozen system coalesced at its
        # tolerance, each sample at 0, which leaves its near pair uncoalesced
        frozen = IrregularSystem(u=[0.0, 0.0, 1.0], A=CRIT7_A0)
        samples = [IrregularSystem(u=[0.0, g, 1.0], A=CRIT7_A0) for g in (0.05, 1e-3, 1e-10)]
        self.assert_same_bytes([frozen, *samples], 30, [1e-9, 0.0, 0.0, 0.0])

    def test_order_zero(self):
        frozen = IrregularSystem(u=[0.0, 0.0, 1.0], A=CRIT7_A0)
        assert compute_formal_coefficients(frozen, K=0, coalesce_tol=1e-9).F == ()
        fss = compute_formal_coefficients([frozen, frozen], K=0, coalesce_tol=1e-9)
        assert [fs.F for fs in fss] == [(), ()]
        self.assert_same_bytes([frozen], 0, 1e-9)

    def test_overflowed_tail(self):
        # the late terms at a 1.6e-3 gap overflow, to inf and then nan; each
        # sits where the oracle has it, the finite parts keep their bytes,
        # and no RuntimeWarning is raised
        sys = IrregularSystem(u=[0.0, 1.6e-3, 1.0], A=CRIT7_A0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array(compute_formal_coefficients(sys, K=80).F).view(float)
            want = np.array(formal_coefficients_scalar(sys, 80)).view(float)
        assert not np.isfinite(want).all() and np.isfinite(want[0]).all()
        assert (np.isnan(got) == np.isnan(want)).all()
        assert (np.isinf(got) == np.isinf(want)).all()
        finite = np.isfinite(want)
        assert got[finite].tobytes() == want[finite].tobytes()

    def test_stack_must_share_n(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="share n"):
            compute_formal_coefficients([random_system(rng, 2), random_system(rng, 3)], K=2)


@st.composite
def truncation_stacks(draw):
    """A stack of one to four series of one n = 2..8, of K = 0..40 terms
    each, and a radius: divergent series whose terms grow like k! rate^k,
    all-zero series, series whose least term recurs exactly (equal terms,
    exact ties at R = 1) or up to round-off (equal up to row order and
    phases), series of unitary and rank-one terms, whose 2-norms, all 1,
    lie at the two ends of the Frobenius bracket, and series whose late
    terms overflowed to inf and nan, at radii from below 1 to where R^-k
    underflows."""
    n = draw(st.integers(2, 8))
    radius = draw(st.sampled_from([0.5, 1.0, 2.0, 20.0, 1e10, 1e160, 1e300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = []
    for _ in range(draw(st.integers(1, 4))):
        K = draw(st.integers(0, 40))
        kind = draw(st.sampled_from(
            ["divergent", "zero", "tied", "near tie", "bracket ends", "overflowed"]))
        rate = draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
        M = rng.normal(size=(K, n, n)) + 1j * rng.normal(size=(K, n, n))
        F = M * np.cumprod(np.arange(1, K + 1) * rate)[:, None, None]
        if kind == "zero":
            F[:] = 0
        elif kind in ("tied", "near tie") and K:
            # the least term, at m and after, recurs over a window
            m, width = draw(st.integers(0, K - 1)), draw(st.integers(1, 4))
            scale = 1.0 + np.abs(np.arange(K) - m) * (np.arange(K) >= m + width)
            F = M[m] * scale[:, None, None]
            if kind == "near tie":
                phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(K, n, 1)))
                F = np.array([f[rng.permutation(n)] for f in F]) * phases
        elif kind == "bracket ends" and K:
            x, y = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in (M[:, 0], M[:, 1]))
            unitary = rng.integers(0, 2, size=K).astype(bool)[:, None, None]
            F = np.where(unitary, np.linalg.qr(M)[0], x[:, :, None] * y[:, None, :].conj())
        elif kind == "overflowed" and K > 2:
            F[draw(st.integers(1, K - 1)) :] = np.inf
            F[-1, 0, 0] = complex(np.nan, np.nan)
        series.append(F)
    return series, radius


class TestTruncationOracle:
    """The Frobenius bracket of `optimal_truncations` leaves out of the SVD
    only terms that cannot be the least, so it picks the (k, bound) of the
    full scan it replaced (`optimal_truncations_svd`), bit for bit, and
    warns of nothing."""

    @staticmethod
    def assert_same(series, radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = optimal_truncations(series, radius)
        with np.errstate(over="ignore"):  # the full scan overflows where R < 1
            want = optimal_truncations_svd(series, radius)
        assert [(k, float(b).hex()) for k, b in got] == [(k, float(b).hex()) for k, b in want]
        return got

    @settings(max_examples=300, deadline=None)
    @given(truncation_stacks())
    @example(([np.zeros((0, 3, 3)), np.zeros((5, 3, 3))], 20.0))
    @example(([np.ones((4, 2, 2)), np.array([np.eye(2)] * 2)], 1.0))
    def test_matches_the_full_scan(self, case):
        self.assert_same(*case)

    def test_exact_ties_keep_the_first(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        F = np.array([3 * M, M, M, 2 * M, M])
        assert self.assert_same([F], 1.0) == [(2, float(np.linalg.norm(M, 2)))]

    def test_ties_at_the_ends_of_the_bracket(self):
        # a unitary term, whose 2-norm is its lower bound ||F||_F / sqrt(n),
        # and a rank-one term, whose 2-norm is its upper bound ||F||_F, both
        # of 2-norm 1 at R = 1: their SVDs and bounds round a few ulps
        # apart, either way, which the margin covers
        for unitary, rank_one in self.bracket_ends(200):
            self.assert_same([np.array([unitary, rank_one]), np.array([rank_one, unitary])], 1.0)

    def test_ties_of_subnormal_terms(self):
        # the same two terms as the 37th and 38th of a series at R = 1e8,
        # scaled to tie at 1e-317: the terms and their bounds are subnormal
        # and round to a grid 5e-324 apart, far coarser than the margin,
        # which BRACKET_FLOOR covers
        for unitary, rank_one in self.bracket_ends(200):
            F = np.array([unitary] * 38)
            F[36:] = 1e-21 * unitary, 1e-13 * rank_one
            G = np.array([unitary] * 36 + [1e-21 * rank_one, 1e-13 * unitary])
            self.assert_same([F, G], 1e8)

    @staticmethod
    def bracket_ends(count):
        """Pairs of a random unitary and a random rank-one matrix of one
        n = 2..8, both of 2-norm 1."""
        rng = np.random.default_rng(21)
        for _ in range(count):
            n = int(rng.integers(2, 9))
            M = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
            x, y = M[1, 0] / np.linalg.norm(M[1, 0]), M[2, 0] / np.linalg.norm(M[2, 0])
            yield np.linalg.qr(M[0])[0], np.outer(x, y.conj())

    @pytest.mark.parametrize("radius", [20.0, 1e10, 1e300])
    def test_underflowed_powers(self, radius):
        # R^-k underflows to 0 for late k, where every finite term reads 0
        rng = np.random.default_rng(4)
        F = rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4))
        self.assert_same([F, np.zeros((40, 4, 4)), F[:3]], radius)

    @pytest.mark.parametrize("radius", [0.5, 10.0, 20.0, 1e300])
    def test_overflowed_series(self, radius):
        # the order-80 series of TestBitIdentity.test_overflowed_tail, whose
        # late terms are inf and then nan, in one stack with a finite series
        sys = IrregularSystem(u=[0.0, 1.6e-3, 1.0], A=CRIT7_A0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = np.array(compute_formal_coefficients(sys, K=80).F)
        other = compute_formal_coefficients(IrregularSystem(u=[0.0, 0.5, 1.0], A=CRIT7_A0), K=30).F
        assert np.isinf(F).any() and np.isnan(F).any()
        self.assert_same([F, other], radius)


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
