import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isomlab.errors import JordanChainError, ResonanceError
from isomlab.formal import IrregularSystem
from isomlab.levelt import (
    LeveltData,
    build_levelt_solution,
    compute_levelt_exponents,
    eval_levelt,
    monodromy_exponential,
    with_gauge,
)
from isomlab.odeengine import DEFAULT_TOL, TAIL_FRACTION, PathPoint, levelt_handle
from reference_solvers import kronecker_psi, levelt_exponents_reference, levelt_power_reference


def ode_residual(ld, sys, z0):
    """FD residual of the Levelt solution in d/dz Y = (Lambda + A/z) Y."""
    h = 1e-7
    args = [cmath.phase(z0 + d) for d in (-h, 0, h)]
    dY = (eval_levelt(ld, z0 + h, args[2]) - eval_levelt(ld, z0 - h, args[0])) / (2 * h)
    Y = eval_levelt(ld, z0, args[1])
    return np.max(np.abs(dY - (sys.Lambda + sys.A / z0) @ Y))


class TestExponents:
    def test_two_classes(self):
        ld = compute_levelt_exponents(np.diag([0.0, 0.5]))
        assert list(ld.d) == [0, 0]
        assert sorted(x.real for x in ld.sigma) == [0.0, 0.5]
        assert np.allclose(ld.N, 0.0)

    def test_integer_shifted_class(self):
        ld = compute_levelt_exponents(np.diag([1.5, 0.5]))
        assert list(ld.d) == [1, 0]
        assert np.allclose(ld.sigma, 0.5)
        assert np.allclose(ld.N, 0.0)
        assert np.allclose(np.diag(ld.d) + ld.L, ld.J)

    def test_nilpotent(self):
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        ld = compute_levelt_exponents(A)
        assert list(ld.d) == [0, 0]
        assert np.allclose(ld.L, A)
        assert np.allclose(ld.N, A)

    def test_block_invariants_random(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            ld = compute_levelt_exponents(A)
            # a class is the positions sharing one sigma: 0 <= Re sigma < 1,
            # the sigmas of two classes apart, each class contiguous
            sig = set(ld.sigma.tolist())
            assert all(0.0 <= s.real < 1.0 for s in sig)
            assert len({round(s.real, 9) + 1j * round(s.imag, 9) for s in sig}) == len(sig)
            for s in sig:
                pos = np.flatnonzero(ld.sigma == s)
                assert list(pos) == list(range(pos[0], pos[-1] + 1))
                # offsets non-increasing inside each class
                assert list(ld.d[pos]) == sorted(ld.d[pos], reverse=True)
            # spectrum reconstruction
            expect = np.sort_complex(np.linalg.eigvals(A))
            got = np.sort_complex(ld.sigma + ld.d)
            assert np.max(np.abs(expect - got)) < 1e-7
            # e^{2 pi i D} = I exactly
            assert np.allclose(np.exp(2j * np.pi * ld.d), 1.0)
            # the canonical choice satisfies D + L = J (limit condition)
            assert np.allclose(np.diag(ld.d) + ld.L, ld.J)


class TestJordanRefusals:
    def test_split_pair_saturates_the_kernel(self):
        # one cluster at tol 1e-8, but no power of A - lambda I has a 2-d kernel
        with pytest.raises(JordanChainError, match="saturated at dimension 0 < multiplicity 2"):
            compute_levelt_exponents(np.diag([0.0, 1e-9]))

    def test_rank_inside_the_tolerance_band(self):
        with pytest.raises(JordanChainError, match="rank decision ambiguous"):
            compute_levelt_exponents(np.diag([0.0, 1e-12]))


def _levelt_corpus():
    """1,000 random residues with n from 1 to 5 at tol 1e-8, then 200 of
    integer-shifted classes and Jordan blocks in a random basis at tol 1e-6."""
    rng = np.random.default_rng(20)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        yield rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1e-8
    for _ in range(200):
        n = int(rng.integers(2, 6))
        sigmas = rng.uniform(0, 1, 2) + 1j * rng.normal(size=2) * (rng.uniform() < 0.5)
        diag, superdiag = [], []
        while len(diag) < n:
            size = min(int(rng.integers(1, 4)), n - len(diag))
            diag += [sigmas[rng.integers(0, 2)] + int(rng.integers(-2, 3))] * size
            superdiag += [1.0] * (size - 1) + [0.0]
        G = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        yield G @ (np.diag(diag) + np.diag(superdiag[:-1], 1)) @ np.linalg.inv(G), 1e-6


def test_one_pass_matches_the_two_step_extraction():
    # wherever the Jordan form, then its regrouping into classes, returns,
    # the one-pass extraction returns the same bits
    returned = blocks = shifted = 0
    for A, tol in _levelt_corpus():
        try:
            want = levelt_exponents_reference(A, tol)
        except JordanChainError:
            continue
        got = compute_levelt_exponents(A, tol)
        for name in ("d", "sigma", "N", "G", "J"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.strides == b.strides and a.tobytes() == b.tobytes()
        # equal sigma and d bytes give equal classes and offsets
        assert got.residual == want.residual
        returned += 1
        blocks += bool(np.any(got.N))
        shifted += len(set(got.d)) > 1
    assert returned >= 1150 and blocks >= 100 and shifted >= 800


class TestMonodromyExponential:
    def test_zero(self):
        ld = compute_levelt_exponents(np.zeros((2, 2)))
        assert np.allclose(monodromy_exponential(ld), np.eye(2))

    def test_half_half(self):
        ld = compute_levelt_exponents(np.diag([0.5, 0.5]))
        assert np.allclose(monodromy_exponential(ld), -np.eye(2))

    def test_nilpotent(self):
        ld = compute_levelt_exponents(np.array([[0, 1], [0, 0]], dtype=complex))
        expect = np.array([[1.0, 2j * np.pi], [0.0, 1.0]])
        assert np.allclose(monodromy_exponential(ld), expect)


class TestBuildSolution:
    def test_zero_residue_reduces_to_entire_solution(self):
        A = np.zeros((2, 2), dtype=complex)
        sys = IrregularSystem(u=[0.0, 1.0], A=A)
        ld = build_levelt_solution(A, [sys.Lambda], K=25)
        assert np.allclose(ld.d, 0) and np.allclose(ld.L, 0.0)
        assert ode_residual(ld, sys, 0.08 + 0.03j) < 1e-8

    def test_diagonal_nonresonant(self):
        A = np.diag([0.3, -0.22]).astype(complex)
        sys = IrregularSystem(u=[0.0, 1.0], A=A)
        ld = build_levelt_solution(A, [sys.Lambda], K=25)
        assert ld.resonant_orders == ()
        assert ode_residual(ld, sys, 0.1) < 1e-8

    def test_generic_full_matrix(self):
        A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
        sys = IrregularSystem(u=[0.0, 1.0], A=A)
        ld = build_levelt_solution(A, [sys.Lambda], K=25)
        assert ode_residual(ld, sys, -0.06 + 0.08j) < 1e-8

    def test_resonant_order_least_squares(self):
        A = np.diag([1.5, 0.5]).astype(complex)
        sys = IrregularSystem(u=[0.0, 1.0], A=A)
        ld = build_levelt_solution(A, [sys.Lambda], K=25)
        assert 1 in ld.resonant_orders
        assert ode_residual(ld, sys, 0.09) < 1e-8

    def test_loop_monodromy_matches_exponential(self):
        from isomlab.odeengine import levelt_handle, monodromy_loop

        A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
        sys = IrregularSystem(u=[0.0, 1.0], A=A)
        ld = build_levelt_solution(A, [sys.Lambda], K=25)
        # the cap |z*| / 2 puts the loop at radius 0.1
        hnd = levelt_handle(sys, ld, PathPoint.from_polar(0.2, 0.2))
        assert hnd.point.radius == 0.1
        M = monodromy_loop(hnd, tol=1e-12)
        assert np.max(np.abs(M - monodromy_exponential(ld))) < 1e-9

    @pytest.mark.parametrize("u", [[5.0, 12.0], [2.0, 3.0]])
    def test_start_value_agrees_with_a_longer_series(self, u):
        # at the cap |z*| / 2 = 0.5 min |u_i| the K = 20 series is 109%
        # (u = [5, 12]) and 5e-11 (u = [2, 3]) off; the start radius is the
        # largest where its last two terms are below TAIL_FRACTION * tol
        A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
        sys = IrregularSystem(u=u, A=A)
        ld = build_levelt_solution(A, [sys.Lambda], K=20)
        hnd = levelt_handle(sys, ld, PathPoint.from_polar(min(u), 0.4))
        Y = eval_levelt(build_levelt_solution(A, [sys.Lambda], K=80), hnd.point.z, hnd.point.arg)
        assert np.max(np.abs(hnd.value - Y)) <= DEFAULT_TOL * np.max(np.abs(Y))
        r = hnd.point.radius
        terms = np.linalg.norm(ld.Psi[-2:], axis=(1, 2)) * r ** np.arange(19, 21)
        assert r < min(u) / 2 and np.max(terms) == pytest.approx(TAIL_FRACTION * DEFAULT_TOL)

    def test_start_radius_from_the_tail_not_from_u(self):
        # a u entry near 0 moves the start radius by no more than it moves Psi
        A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
        radii = []
        for u0 in (0.0, 1e-9):
            sys = IrregularSystem(u=[u0, 1.0], A=A)
            ld = build_levelt_solution(A, [sys.Lambda], K=20)
            radii.append(levelt_handle(sys, ld, PathPoint.from_polar(10.0, 0.4)).point.radius)
        assert 1.0 < radii[0] < 5.0 and radii[1] == pytest.approx(radii[0], rel=1e-6)

    def test_start_value_needs_two_terms(self):
        A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
        sys = IrregularSystem(u=[0.0, 1.0], A=A)
        with pytest.raises(ValueError, match="order 1"):
            levelt_handle(sys, build_levelt_solution(A, [sys.Lambda], K=1),
                          PathPoint.from_polar(1.0, 0.0))

    def test_gauge_transport_rejects_mismatch(self):
        A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
        ld = compute_levelt_exponents(A)
        # one stacked check: a good gauge first does not hide a bad one
        with pytest.raises(ValueError, match="no longer Jordanizes"):
            with_gauge(ld, [ld.G, np.eye(2)], [A, A + 1.0])
        (same,) = with_gauge(ld, [ld.G], [A])
        assert same.residual < 1e-14 and np.array_equal(same.G, ld.G)


class TestResonanceScan:
    """The closed-form scan of the resonant orders and the order-k operator
    k I + F give the coefficients of a general Sylvester solve."""

    CASES = [
        # diagonalizable, full holomorphic part at every order
        (np.array([[0.2, 1.0, 0.1], [0.7, -0.4, 0.3], [0.0, 0.5, 0.35j]]),
         lambda m: np.array([[0.5, 0.2, 0.0], [0.1, -0.3, 0.4], [0.2, 0.0, 0.1j]]) / (m + 1),
         ()),
        # one Jordan block, irregular caller's H_0 = Lambda only
        (np.array([[0.3, 1.0], [0.0, 0.3]]), lambda m: np.diag([0.0, 1.0]) * (m == 0), ()),
        # eigenvalues 1.5 and 0.5: resonant and consistent at order 1
        (np.diag([1.5, 0.5]), lambda m: np.diag([0.0, 1.0]) * (m == 0), (1,)),
    ]

    @pytest.mark.parametrize("A, hol, resonant", CASES)
    def test_matches_kronecker_solve(self, A, hol, resonant):
        # `hol(m)` is the m-th Taylor coefficient, H_m
        hol = [hol(m) for m in range(20)]
        ld = build_levelt_solution(A, hol, K=20)
        ref = kronecker_psi(A, hol, K=20)
        assert ld.resonant_orders == resonant
        scale = max(np.max(np.abs(X)) for X in ref)
        for got, want in zip(ld.Psi, ref):
            assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("A, hol, resonant", CASES)
    def test_batched_gauges_match_kronecker_solve(self, A, hol, resonant):
        # gauges T G of the residues T A T^-1, whose holomorphic parts
        # T (c H) T^-1 differ by a factor c; in the gauge frame each is the
        # system (A, c H) in gauge G, which kronecker_psi solves on its own
        rng = np.random.default_rng(24)
        ld = compute_levelt_exponents(A)
        hol = [hol(m) for m in range(20)]
        T = [np.eye(len(A))] + [np.eye(len(A)) + 0.3 * (rng.normal(size=A.shape)
                                                        + 1j * rng.normal(size=A.shape))
                                for _ in range(2)]
        c = [1.0, 0.7 - 0.2j, 1.3]
        gauges = with_gauge(ld, [t @ ld.G for t in T], [t @ A @ np.linalg.inv(t) for t in T])
        got = build_levelt_solution(None, [[ci * t @ H @ np.linalg.inv(t) for H in hol]
                                           for ci, t in zip(c, T)], ld=gauges, K=20)
        for ci, lp in zip(c, got):
            ref = kronecker_psi(A, [ci * H for H in hol], K=20)
            assert lp.resonant_orders == resonant
            scale = max(np.max(np.abs(X)) for X in ref)
            for have, want in zip(lp.Psi, ref):
                assert np.max(np.abs(have - want)) <= 1e-13 * scale

    def test_batch_needs_one_jordan_form(self):
        lds = [compute_levelt_exponents(np.diag([0.3, 0.1])),
               compute_levelt_exponents(np.diag([0.3, 0.2]))]
        with pytest.raises(ValueError, match="share J"):
            build_levelt_solution(None, [[np.eye(2)]] * 2, ld=lds, K=3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_irregular_system_matches_kronecker_solve(self, n):
        rng = np.random.default_rng(40 + n)
        A = 0.5 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        hol = [np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))]
        ld = build_levelt_solution(A, hol, K=20)
        ref = kronecker_psi(A, hol, K=20)
        scale = max(np.max(np.abs(X)) for X in ref)
        assert max(np.max(np.abs(got - want)) for got, want in zip(ld.Psi, ref)) <= 1e-12 * scale

    def test_inconsistent_resonance_names_its_order(self):
        # exponents 1 and 0 meet at order 1, where the coupling has no solution
        offdiag = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(ResonanceError, match="resonant order 1") as err:
            build_levelt_solution(np.diag([1.0, 0.0]), [offdiag], K=5)
        assert err.value.order == 1


@st.composite
def levelt_blocks(draw):
    """Levelt data with G = I and no series: Jordan blocks of sizes 1-3, each
    with its own sigma (0 <= Re < 1) and offset d."""
    d, sigma, superdiag = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 3))
        sig = complex(draw(st.floats(0.0, 0.999)), draw(st.floats(-1.0, 1.0)))
        d += [draw(st.integers(-2, 2))] * size
        sigma += [sig] * size
        superdiag += [1.0] * (size - 1) + [0.0]
    n = len(d)
    N = np.diag(np.array(superdiag[:-1], dtype=complex), 1)
    d, sigma = np.array(d), np.array(sigma)
    return LeveltData(d=d, sigma=sigma, N=N, G=np.eye(n, dtype=complex),
                      J=np.diag(sigma + d) + N, residual=0.0)


class TestClosedFormPower:
    """z^D z^L and e^{2 pi i L} in closed form against scipy's expm."""

    @settings(max_examples=60, deadline=None)
    @given(levelt_blocks(), st.floats(0.1, 3.0), st.floats(-7.0, 7.0))
    def test_power_matches_expm(self, ld, radius, arg):
        z = radius * cmath.exp(1j * arg)
        want = levelt_power_reference(ld, math.log(radius) + 1j * arg)
        got = eval_levelt(ld, z, arg)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(levelt_blocks())
    def test_monodromy_exponential_matches_expm(self, ld):
        want = levelt_power_reference(replace(ld, d=0 * ld.d), 2j * np.pi)
        got = monodromy_exponential(ld)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
