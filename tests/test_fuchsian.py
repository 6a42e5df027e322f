import math
import time
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from isomlab.errors import IntegrationError, WallError
from isomlab.fuchsian import (
    FuchsianSystem,
    _infinity_frame,
    _schlesinger_velocity,
    default_basepoint,
    fuchs_monodromy,
    integrate_schlesinger,
    kv_family,
    monodromy_plan,
    product_relation_residual,
    schlesinger_residual,
    schlesinger_rhs,
)
from isomlab.isoflow import UPath, _difference_quotients
from isomlab.levelt import build_levelt_solution, compute_levelt_exponents
from isomlab.odeengine import join_plans, run_plan


def pole_holomorphic_part(sys, i, K):
    """C_0..C_{K-1} of the holomorphic part at pole i in the local variable
    x = z - u_i: C_m = -sum_{j != i} A_j / (u_j - u_i)^(m + 1)."""
    return [-sum(sys.residues[j] / (sys.poles[j] - sys.poles[i]) ** (m + 1)
                 for j in range(sys.N) if j != i) for m in range(K)]


def integer_spread(A):
    """The widest spread of the Levelt offsets within one integer-difference
    class of the eigenvalues of A (the pole order m_i of the non-Schlesinger
    form of the isomonodromy 1-form).  A class is the set of positions that
    share the fractional representative sigma."""
    ld = compute_levelt_exponents(A)
    return max(int(np.ptp(ld.d[ld.sigma == s])) for s in set(ld.sigma.tolist()))


def random_fuchsian(rng, N=3, n=2):
    poles = np.array([0.0, 1.0, 2.0], dtype=complex)[:N]
    residues = [
        rng.normal(size=(n, n)) * 0.5 + 1j * rng.normal(size=(n, n)) * 0.5
        for _ in range(N - 1)
    ]
    residues.append(-sum(residues))
    return FuchsianSystem(poles=poles, residues=tuple(residues))


def kv_exact_derivative(kv, z):
    """Hand-derived dY/dz of the closed-form rational solution."""
    u, h = kv.u, kv.h(kv.u)
    c = -2 * u * h / (u - 3)
    d11 = (u - 1) / (z - 1) ** 2
    d22 = -1.0 / (z - 3) ** 2
    q = (z - 1) * (z - 3)
    d12 = c * (q - (z - u) * (2 * z - 4)) / q**2
    return np.array([[d11, d12], [0.0, d22]], dtype=complex)


class TestSchlesingerRhs:
    def test_commuting_pair(self):
        A1 = np.diag([0.3, -0.3]).astype(complex)
        sys = FuchsianSystem(poles=[0.0, 1.0], residues=(A1, -A1))
        assert np.max(np.abs(schlesinger_rhs(sys))) < 1e-15

    def test_hand_commutator(self):
        A1 = np.array([[0, 1], [0, 0]], dtype=complex)
        A2 = np.array([[0, 0], [1, 0]], dtype=complex)
        sys = FuchsianSystem(poles=[0.0, 1.0, 2.0], residues=(A1, A2, -A1 - A2))
        rhs = schlesinger_rhs(sys)
        # dA_1/du_2 = [A_2, A_1]/(u_2 - u_1) = diag(-1, 1)
        assert np.allclose(rhs[0, 1], np.diag([-1.0, 1.0]))

    def test_closed_form_velocity_matches_reference(self):
        # the flow's right-hand side: [sum_j K_ij A_j, A_i], K the difference
        # quotients of (u, du), equals sum_j du_j dA_i/du_j
        rng = np.random.default_rng(8)
        residues = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)]
        residues.append(-sum(residues))
        sys = FuchsianSystem(poles=[0.0, 1.0, 2.0 + 0.5j, -0.7 + 1.2j], residues=tuple(residues))
        du = rng.normal(size=4) + 1j * rng.normal(size=4)
        ref = np.einsum("j,ijab->iab", du, schlesinger_rhs(sys))
        fast = _schlesinger_velocity(np.array(sys.residues), _difference_quotients(sys.poles, du))
        assert np.max(np.abs(fast - ref)) < 1e-14 * np.max(np.abs(ref))

    def test_row_sums_and_total_zero(self):
        rng = np.random.default_rng(6)
        sys = random_fuchsian(rng)
        rhs = schlesinger_rhs(sys)
        assert np.max(np.abs(rhs.sum(axis=1))) < 1e-15
        assert np.max(np.abs(rhs.sum(axis=(0, 1)))) < 1e-13


class TestIntegrateSchlesinger:
    def test_commuting_constant(self):
        A1 = np.diag([0.3, -0.3]).astype(complex)
        sys = FuchsianSystem(poles=[0.0, 1.0], residues=(A1, -A1))
        path = UPath.line([0.0, 1.0], [0.2, 1.3])
        final, _ = integrate_schlesinger(sys, path)
        assert np.max(np.abs(final.residues[0] - A1)) < 1e-12

    def test_isospectral(self):
        rng = np.random.default_rng(17)
        sys = random_fuchsian(rng)
        path = UPath.line(sys.poles, sys.poles + np.array([0.2j, -0.1, 0.25]))
        final, _ = integrate_schlesinger(sys, path, tol=1e-12)
        for A0, A1 in zip(sys.residues, final.residues):
            s0 = np.sort_complex(np.linalg.eigvals(A0))
            s1 = np.sort_complex(np.linalg.eigvals(A1))
            assert np.max(np.abs(s0 - s1)) < 1e-8

    def test_monodromy_constant(self):
        # entrywise constancy holds in the infinity-normalized frame, whose
        # matrices do not depend on the basepoint: each end has its own
        rng = np.random.default_rng(17)
        sys = random_fuchsian(rng)
        path = UPath.line(sys.poles, sys.poles + np.array([0.2j, -0.1, 0.25]))
        final, _ = integrate_schlesinger(sys, path, tol=1e-12)
        assert default_basepoint(sys) != default_basepoint(final)
        M0 = fuchs_monodromy(sys)
        M1 = fuchs_monodromy(final)
        assert max(np.max(np.abs(a - b)) for a, b in zip(M0, M1)) < 1e-6

    def test_flowed_family_satisfies_schlesinger(self):
        rng = np.random.default_rng(23)
        sys = random_fuchsian(rng)

        def family(u):
            path = UPath.line(sys.poles, u)
            final, _ = integrate_schlesinger(sys, path, tol=1e-12)
            return final.residues

        target = sys.poles + np.array([0.05, -0.03, 0.04])
        assert schlesinger_residual(family, target) < 1e-6

    def test_collision_guard(self):
        rng = np.random.default_rng(17)
        sys = random_fuchsian(rng)
        with pytest.raises(WallError):
            integrate_schlesinger(sys, UPath.line(sys.poles, [1.0, 1.0, 2.0]))

    def test_guard_catches_collision_between_waypoints(self):
        # poles 0 and 1 pass within 1e-7 of each other at t = 1/2 only
        rng = np.random.default_rng(17)
        residues = random_fuchsian(rng).residues
        sys = FuchsianSystem(poles=[0.0, -1.0 + 1e-7j, 3.0], residues=residues)
        path = UPath.line(sys.poles, [0.0, 1.0 + 1e-7j, 3.0])
        with pytest.raises(WallError, match=r"Schlesinger flow .* pairs \[\(0, 1\)\]"):
            integrate_schlesinger(sys, path)

    @pytest.mark.parametrize("gap", [0.03, 0.01])
    def test_close_pass_admitted_by_guard_integrates(self, gap):
        # the poles of the guard test above pass at a gap the default guard
        # admits; the residues grow to 1e3-1e4 on the way and come back to ~150
        rng = np.random.default_rng(17)
        residues = random_fuchsian(rng).residues
        sys = FuchsianSystem(poles=[0.0, -1.0 + gap * 1j, 3.0], residues=residues)
        final, _ = integrate_schlesinger(sys, UPath.line(sys.poles, [0.0, 1.0 + gap * 1j, 3.0]))
        # the traces and the zero sum are conserved; the eigenvalues of these
        # far from normal residues move by sqrt(scale * error)
        scale = np.max(np.abs(final.residues))
        assert np.max(np.abs(sum(final.residues))) < 1e-9 * scale
        for A0, A1 in zip(residues, final.residues):
            assert abs(np.trace(A1) - np.trace(A0)) < 1e-9 * scale
            ev0, ev1 = np.linalg.eigvals(A0), np.linalg.eigvals(A1)
            assert np.max(np.min(np.abs(ev0[:, None] - ev1[None, :]), axis=1)) < 1e-5 * scale


class TestFuchsMonodromy:
    def test_zero_residues(self):
        sys = FuchsianSystem(
            poles=[0.0, 1.0], residues=(np.zeros((2, 2)), np.zeros((2, 2)))
        )
        for M in fuchs_monodromy(sys):
            assert np.allclose(M, np.eye(2))

    def test_product_identity(self):
        rng = np.random.default_rng(19)
        sys = random_fuchsian(rng)
        Ms = fuchs_monodromy(sys)
        prod = np.eye(2, dtype=complex)
        for M in Ms:
            prod = prod @ M  # basis order: M_1 M_2 ... M_N
        assert np.max(np.abs(prod - np.eye(2))) < 1e-6

    def test_product_relation_residual(self):
        # criterion-4 residues: the basis-order product closes on poles 0, 1,
        # 2, but not on 0.02, i, -0.02 + 2i, whose spokes from the basepoint
        # below meet the poles out of index order; M_2 M_1 M_3 closes there
        rng = np.random.default_rng(104)
        residues = [rng.normal(size=(2, 2)) * 0.5 + 0.5j * rng.normal(size=(2, 2))
                    for _ in range(2)]
        residues.append(-sum(residues))
        ordered = FuchsianSystem(poles=[0.0, 1.0, 2.0], residues=tuple(residues))
        assert product_relation_residual(fuchs_monodromy(ordered, tol=1e-12)) < 1e-8
        shuffled = FuchsianSystem(poles=[0.02, 1j, -0.02 + 2j], residues=tuple(residues))
        M = fuchs_monodromy(shuffled, tol=1e-12)
        assert product_relation_residual(M) > 1.0
        assert product_relation_residual([M[1], M[0], M[2]]) < 1e-6

    def test_joined_plans_match_separate_calls(self):
        # one batch for two systems (N = 3 and N = 4) sums more terms per
        # step than either alone, within the tolerance asked for
        rng = np.random.default_rng(23)
        residues = [0.5 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                    for _ in range(3)]
        residues.append(-sum(residues))
        systems = [random_fuchsian(rng),
                   FuchsianSystem(poles=[0.0, 1.0 + 0.3j, 2.0, 0.8 + 1.5j],
                                  residues=tuple(residues))]
        joined = run_plan(join_plans([monodromy_plan(s) for s in systems]), 1e-12)
        for sys, mons in zip(systems, joined):
            for got, ref in zip(mons, fuchs_monodromy(sys, tol=1e-12)):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_local_exponent_spectrum(self):
        A1 = np.diag([0.5, 0.0]).astype(complex)
        sys = FuchsianSystem(poles=[0.0, 10.0], residues=(A1, -A1))
        M1 = fuchs_monodromy(sys)[0]
        spectrum = np.sort_complex(np.linalg.eigvals(M1))
        assert np.max(np.abs(spectrum - np.array([-1.0, 1.0]))) < 1e-8


    def test_diagonal_residues_exact(self):
        # Y = prod_i (z - u_i)^{A_i} is diagonal, so each loop gives e^{2 pi i A_i}
        poles = np.array([0.0, 1.0 + 0.5j, -0.4 + 1.2j, 1.7 - 0.3j])
        diags = [np.array([0.3 + 0.1j, -0.2]), np.array([-0.45, 0.15 - 0.2j]),
                 np.array([0.05j, 0.4])]
        diags.append(-sum(diags))
        residues = tuple(np.diag(d) for d in diags)
        sys = FuchsianSystem(poles=poles, residues=residues)
        mons = fuchs_monodromy(sys, tol=1e-12)
        for M, A in zip(mons, residues):
            assert np.max(np.abs(M - expm(2j * np.pi * A))) < 1e-11

    def test_basepoint_inside_the_infinity_frame_is_refused(self):
        # the w = 1/z segment from 0 to 1/z0 must stay clear of 1/2, the
        # image of the pole at 2: |z0| = 2.5 is short of 2 / 0.7
        sys = random_fuchsian(np.random.default_rng(3))
        with pytest.raises(ValueError, match="too close to the pole configuration"):
            _infinity_frame(sys, 2.5j)
        _infinity_frame(sys, 3.0j)

    def test_default_basepoint_far_from_zero(self):
        # 2 (|mean| + spread + 1) below the lowest pole is -16.83i here, short
        # of max |u_i| / 0.7 = 17.2, so the basepoint moves further down; the
        # translate by -10i keeps the rule's basepoint, and in the frame
        # normalized at infinity its monodromy is the same
        rng = np.random.default_rng(5)
        residues = [0.4 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                    for _ in range(2)]
        residues = tuple(residues + [-sum(residues)])
        far = FuchsianSystem(poles=[10j, 1 + 11j, -1 + 12j], residues=residues)
        near = FuchsianSystem(poles=far.poles - 10j, residues=residues)
        assert abs(default_basepoint(far)) >= np.max(np.abs(far.poles)) / 0.7
        assert default_basepoint(near) == complex(0.0, -2.0 * (1.0 + math.sqrt(2.0) + 1.0))
        M_far, M_near = fuchs_monodromy(far), fuchs_monodromy(near)
        assert product_relation_residual(M_far) < 1e-10
        for a, b in zip(M_far, M_near):
            assert np.max(np.abs(a - b)) < 1e-10

    def test_one_pole(self):
        # the loop radius comes from the basepoint when no other pole exists
        sys = FuchsianSystem(poles=[0.5 + 0.2j], residues=(np.zeros((2, 2)),))
        (M,) = fuchs_monodromy(sys)
        assert np.max(np.abs(M - np.eye(2))) < 1e-14

    def test_spoke_through_pole_is_refused(self):
        # from the default basepoint below, the spokes to i and 2i run
        # through the pole at 0
        rng = np.random.default_rng(3)
        sys = random_fuchsian(rng)
        sys = FuchsianSystem(poles=[0.0, 1j, 2j], residues=sys.residues)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t0 = time.perf_counter()
            with pytest.raises(IntegrationError, match=r"segment 0 .* singular point 0"):
                fuchs_monodromy(sys)
            assert time.perf_counter() - t0 < 1.0


class TestKvFamily:
    def test_first_residue(self):
        kv = kv_family([1.0], 0.5)
        assert np.allclose(kv.system.residues[0], np.diag([1.0, 0.0]))

    def test_residues_sum_zero_exactly(self):
        kv = kv_family([1.0, -0.3], 0.47)
        assert np.max(np.abs(sum(kv.system.residues))) < 1e-15

    def test_closed_form_solves_system(self):
        kv = kv_family([1.0], 0.5)
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 20:
            z = complex(rng.uniform(-4, 6), rng.uniform(-4, 4))
            if min(abs(z - p) for p in kv.system.poles) < 0.3:
                continue
            checked += 1
            resid = np.max(
                np.abs(kv_exact_derivative(kv, z) - kv.system.coefficient(z) @ kv.Y(z))
            )
            assert resid < 1e-10

    def test_trivial_monodromy(self):
        kv = kv_family([1.0], 0.5)
        for M in fuchs_monodromy(kv.system):
            assert np.max(np.abs(M - np.eye(2))) <= 1e-8

    def test_non_schlesinger_witness(self):
        kv = kv_family([1.0], 0.5)
        resid = schlesinger_residual(kv.residues_at, kv.system.poles, moving=[0])
        assert resid > 1e-2

    def test_connection_matrix_drifts(self):
        C_a = kv_family([1.0], 0.4).C1
        C_b = kv_family([1.0], 0.6).C1
        assert np.linalg.norm(C_a - C_b) > 1e-3

    def test_levelt_at_first_pole(self):
        # local form (z - u)^{diag(1, 0)} with trivial N
        kv = kv_family([1.0], 0.5)
        ld = build_levelt_solution(kv.system.residues[0],
                                   pole_holomorphic_part(kv.system, 0, 12), K=12)
        assert sorted(ld.d) == [0, 1]
        assert np.allclose(ld.N, 0.0)
        assert np.allclose(ld.sigma, 0.0)

    def test_excluded_parameter(self):
        with pytest.raises(ValueError):
            kv_family([1.0], 2.0)


class TestMaxIntegerSpread:
    def test_nonresonant(self):
        assert integer_spread(np.diag([0.0, 1.0 / 3.0])) == 0

    def test_single_gap(self):
        assert integer_spread(np.diag([1.5, 0.5])) == 1

    def test_wide_class(self):
        assert integer_spread(np.diag([0.0, 2.0, 5.0])) == 5


class TestNonNormalized:
    def test_conjugated_schlesinger_has_bolibruch_form(self):
        # conjugating a Schlesinger family by Gamma(u) produces a
        # non-normalized deformation: the FD derivative deviates from the
        # Schlesinger right-hand side exactly by [gamma_j, A_i] with
        # gamma_j = d_j Gamma Gamma^{-1}
        rng = np.random.default_rng(29)
        sys = random_fuchsian(rng)
        G0 = np.array([[1.0, 0.3], [0.0, 1.0]], dtype=complex)

        def gamma_matrix(u):
            # Gamma(u) = expm(u_0 * G0_scaled) in closed form for nilpotent G0
            return np.eye(2) + (G0 - np.eye(2)) * u[0]

        def family(u):
            final, _ = integrate_schlesinger(sys, UPath.line(sys.poles, u), tol=1e-12)
            G = gamma_matrix(u)
            return [G @ A @ np.linalg.inv(G) for A in final.residues]

        u = sys.poles + np.array([0.05, -0.02, 0.03])
        h = 1e-5
        conj = family(u)
        fsys = FuchsianSystem(poles=u, residues=tuple(conj), zero_sum_tol=1e-6)
        rhs = schlesinger_rhs(fsys)
        G = gamma_matrix(u)
        for j in range(3):
            up, um = u.copy(), u.copy()
            up[j] += h
            um[j] -= h
            Gp, Gm = gamma_matrix(up), gamma_matrix(um)
            gamma_j = (Gp - Gm) / (2 * h) @ np.linalg.inv(G)
            for i in range(3):
                fd = (family(up)[i] - family(um)[i]) / (2 * h)
                expect = rhs[i, j] + gamma_j @ conj[i] - conj[i] @ gamma_j
                assert np.max(np.abs(fd - expect)) < 1e-6

    def test_kv_deformation_form_pole_orders(self):
        # Bolibruch shape: d_u Y Y^{-1} times prod_i (z - u_i)^{m_i} is a
        # polynomial in z whose degree matches the m_i = 1 resonances
        kv = kv_family([1.0], 0.5)
        for A in kv.system.residues:
            assert integer_spread(A) == 1
        h = 1e-6

        def W(z):
            Yp = kv_family([1.0], 0.5 + h).Y(z)
            Ym = kv_family([1.0], 0.5 - h).Y(z)
            return (Yp - Ym) / (2 * h) @ np.linalg.inv(kv.Y(z))

        rng = np.random.default_rng(33)
        zs, vals = [], []
        while len(zs) < 30:
            z = complex(rng.uniform(-5, 8), rng.uniform(-4, 4))
            if min(abs(z - p) for p in kv.system.poles) < 0.4:
                continue
            zs.append(z)
            q = np.prod([z - p for p in kv.system.poles])
            vals.append(W(z) * q)
        zs = np.array(zs)
        vals = np.array(vals)
        # each entry of q(z) W(z) must be a polynomial of degree <= 4
        V = np.vander(zs, 5, increasing=True)
        for a in range(2):
            for b in range(2):
                y = vals[:, a, b]
                coef, *_ = np.linalg.lstsq(V, y, rcond=None)
                resid = np.max(np.abs(V @ coef - y))
                assert resid < 1e-6 * max(1.0, np.max(np.abs(y)))


class TestPoleLevelt:
    def test_matches_kronecker_solve(self):
        from reference_solvers import kronecker_psi

        sys = random_fuchsian(np.random.default_rng(32))
        hol = pole_holomorphic_part(sys, 0, 20)
        ld = build_levelt_solution(sys.residues[0], hol, K=20)
        ref = kronecker_psi(sys.residues[0], hol, K=20)
        scale = max(np.max(np.abs(X)) for X in ref)
        assert max(np.max(np.abs(got - want)) for got, want in zip(ld.Psi, ref)) <= 1e-12 * scale

    def test_solution_solves_locally(self):
        # FD residual in the local variable at the first pole
        from isomlab.levelt import eval_levelt
        import cmath

        rng = np.random.default_rng(31)
        sys = random_fuchsian(rng)
        ld = build_levelt_solution(sys.residues[0], pole_holomorphic_part(sys, 0, 25), K=25)
        x0 = 0.04 + 0.03j  # local coordinate z - u_0
        h = 1e-7
        dY = (
            eval_levelt(ld, x0 + h, cmath.phase(x0 + h))
            - eval_levelt(ld, x0 - h, cmath.phase(x0 - h))
        ) / (2 * h)
        Y = eval_levelt(ld, x0, cmath.phase(x0))
        W = sys.coefficient(sys.poles[0] + x0)
        assert np.max(np.abs(dY - W @ Y)) < 1e-7
