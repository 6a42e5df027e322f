import time

import numpy as np
import pytest

from isomlab.errors import IntegrationError, ResonanceError, WallError
from isomlab.formal import IrregularSystem, compute_formal_coefficients
from isomlab.isoflow import (
    DeformationState,
    DiagonalGauge,
    LaurentCoefficients,
    TRACE_SAMPLES,
    UPath,
    _difference_quotients,
    _omega_sum,
    integrability_residual,
    integrate_flow,
    laurent_reduce,
    omega_zero_part,
    vanishing_from_trace,
    vanishing_order_check,
)

GENERIC_A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
U0 = np.array([0.0, 1.0], dtype=complex)


class TestOmegaZeroPart:
    def test_diagonal_residue_gives_gauge_only(self):
        A = np.diag([0.4, -0.2])
        Dj = np.array([1.0, 2.0])
        W = omega_zero_part(A, U0, 0, Dj=Dj)
        assert np.allclose(W, np.diag(Dj))

    def test_worked_example(self):
        W = omega_zero_part(np.array([[0, 1], [1, 0]]), U0, 0)
        assert np.allclose(W, [[0, -1], [-1, 0]])

    def test_equals_commutator_with_first_coefficient(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = np.array([0.0, 1.0, 0.4 + 1.1j])
        fs = compute_formal_coefficients(IrregularSystem(u=u, A=A), K=1)
        F1 = fs.F[0]
        for j in range(3):
            E = np.zeros((3, 3))
            E[j, j] = 1.0
            assert np.allclose(omega_zero_part(A, u, j), F1 @ E - E @ F1)

    def test_lambda_constraint_exact(self):
        # [Lambda, omega_j(0)] = [E_j, A]: an algebraic identity, so the only
        # deviation is the divide/multiply round trip (one ulp per entry)
        rng = np.random.default_rng(13)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = np.array([0.0, 1.0, -0.7 + 0.5j])
        Lam = np.diag(u)
        for j in range(3):
            W = omega_zero_part(A, u, j)
            E = np.zeros((3, 3))
            E[j, j] = 1.0
            assert np.max(np.abs((Lam @ W - W @ Lam) - (E @ A - A @ E))) < 1e-15

    def test_telescoping_sum_vanishes(self):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = np.array([0.0, 1.0, 2.3, -1.0 + 0.8j])
        total = sum(omega_zero_part(A, u, j) for j in range(4))
        assert np.max(np.abs(total)) < 1e-14

    def test_coincident_u_rejected(self):
        with pytest.raises(WallError):
            omega_zero_part(GENERIC_A, np.array([1.0, 1.0]), 0)

    def test_closed_form_sum_matches_reference(self):
        # the flow's right-hand side builds sum_j du_j omega_j(0) in one go as
        # A o K + diag(sum_j du_j D_j), K_ab = (du_a - du_b)/(u_a - u_b)
        rng = np.random.default_rng(15)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = np.array([0.0, 1.0, 2.3, -1.0 + 0.8j])
        du = rng.normal(size=4) + 1j * rng.normal(size=4)
        gauge = DiagonalGauge(n=4, terms=(
            (0, 0.7, (1, 0, 0, 0)), (1, -0.3 + 0.2j, (0, 2, 1, 0)), (3, 1.1, (1, 1, 0, 2)),
        ))
        ref = sum(du[j] * omega_zero_part(A, u, j, Dj=gauge.partial(u, j)) for j in range(4))
        K = _difference_quotients(u, du)
        assert np.max(np.abs(_omega_sum(A, u, du, K, gauge) - ref)) < 1e-14 * np.max(np.abs(ref))
        ref0 = sum(du[j] * omega_zero_part(A, u, j) for j in range(4))
        assert np.max(np.abs(_omega_sum(A, u, du, K) - ref0)) < 1e-14 * np.max(np.abs(ref0))


class TestIntegrateFlow:
    def test_diagonal_residue_constant(self):
        A = np.diag([0.4, -0.2]).astype(complex)
        res = integrate_flow(
            DeformationState(u=U0, A=A), UPath.line(U0, U0 + [0.2, -0.1])
        )
        assert np.max(np.abs(res.state.A - A)) < 1e-12

    def test_path_independence(self):
        state = DeformationState(u=U0, A=GENERIC_A)
        target = np.array([0.3 + 0.2j, 1.2])
        direct = integrate_flow(state, UPath.line(U0, target), tol=1e-12)
        detour = integrate_flow(
            state,
            UPath(waypoints=(U0, np.array([-0.2 - 0.3j, 1.4]), target)),
            tol=1e-12,
        )
        assert np.max(np.abs(direct.state.A - detour.state.A)) < 1e-10

    def test_isospectral_and_diagonal_invariants(self):
        state = DeformationState(u=U0, A=GENERIC_A)
        res = integrate_flow(state, UPath.line(U0, np.array([0.4, 1.3 + 0.2j])), tol=1e-12)
        s0 = np.sort_complex(np.linalg.eigvals(GENERIC_A))
        s1 = np.sort_complex(np.linalg.eigvals(res.state.A))
        assert np.max(np.abs(s0 - s1)) < 1e-8
        assert np.max(np.abs(np.diag(res.state.A) - np.diag(GENERIC_A))) < 1e-10

    def test_gauge_transport_preserves_jordan(self):
        from isomlab.levelt import compute_levelt_exponents

        ld = compute_levelt_exponents(GENERIC_A)
        state = DeformationState(u=U0, A=GENERIC_A)
        res = integrate_flow(
            state, UPath.line(U0, np.array([0.25, 1.15])), tol=1e-12, carry_gauge=ld.G
        )
        recon = np.linalg.solve(res.gauge_matrix, res.state.A @ res.gauge_matrix)
        assert np.max(np.abs(recon - ld.J)) < 1e-9

    def test_guard_band(self):
        state = DeformationState(u=U0, A=GENERIC_A)
        with pytest.raises(WallError):
            integrate_flow(state, UPath.line(U0, np.array([1.0, 1.0])))

    def test_guard_catches_gap_between_waypoints(self):
        # u_1 - u_0 runs from -1 to 1 at height 1e-7: the gap dips to 1e-7 at
        # t = 1/2 only, far below the default guard 1e-6
        u0 = np.array([0.0, -1.0 + 1e-7j])
        path = UPath.line(u0, np.array([0.0, 1.0 + 1e-7j]))
        assert abs(path.min_gap() - 1e-7) < 1e-15
        with pytest.raises(WallError, match=r"isomonodromy flow .* pairs \[\(0, 1\)\]"):
            integrate_flow(DeformationState(u=u0, A=GENERIC_A), path)

    @pytest.mark.parametrize("gap", [1e-4, 1e-5, 2e-6])
    def test_close_pass_admitted_by_guard_integrates(self, gap):
        # u_0 and u_1 pass at a gap the default guard admits (2e-6 is twice
        # the guard); A grows by two to three orders near the pass and comes
        # back; diag(A) and the spectrum are invariants of the strong flow
        u0 = np.array([0.0, -1.0 + gap * 1j])
        path = UPath.line(u0, np.array([0.0, 1.0 + gap * 1j]))
        A = integrate_flow(DeformationState(u=u0, A=GENERIC_A), path).state.A
        assert np.max(np.abs(np.diag(A) - np.diag(GENERIC_A))) < 1e-9
        ev0, ev1 = np.sort_complex(np.linalg.eigvals(GENERIC_A)), np.sort_complex(np.linalg.eigvals(A))
        assert np.max(np.abs(ev0 - ev1)) < 1e-9

    def test_work_budget_stops_unguarded_collision(self):
        # the same near-collision with the guard switched off: passing it
        # takes steps shorter than any the default guard's gap needs, and
        # the driver refuses them
        u0 = np.array([0.0, -1.0 + 1e-7j])
        path = UPath.line(u0, np.array([0.0, 1.0 + 1e-7j]))
        t0 = time.perf_counter()
        with pytest.raises(IntegrationError, match=r"isomonodromy flow .* segment 0"):
            integrate_flow(DeformationState(u=u0, A=GENERIC_A), path, guard=0.0)
        assert time.perf_counter() - t0 < 5.0

    def test_trace_matches_separate_integrations(self):
        # the trace is read off the step interpolants; each sample agrees
        # with an integration that ends there, on both segments of the path
        # (the second takes two steps)
        rng = np.random.default_rng(31)
        A = 0.4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        pts = (np.array([0.0, 1.0, 0.4 + 0.9j]), np.array([0.2, 1.3 - 0.1j, 0.3 + 1.2j]),
               np.array([-0.1 + 0.2j, 1.1, 0.7 + 1.0j]))
        state, tol = DeformationState(u=pts[0], A=A), 1e-11
        res = integrate_flow(state, UPath(waypoints=pts), tol=tol)
        m = TRACE_SAMPLES - 1
        for seg in range(2):
            for k in range(1, m):
                u = pts[seg] + k / m * (pts[seg + 1] - pts[seg])
                row = seg * TRACE_SAMPLES + k
                assert res.trace.t[row] == seg + k / m
                assert np.max(np.abs(res.trace.u[row] - u)) < 1e-15
                part = integrate_flow(state, UPath(waypoints=(*pts[:seg + 1], u)), tol=tol)
                assert np.max(np.abs(res.trace.A[row] - part.state.A)) <= 10 * tol


class TestIntegrabilityResidual:
    def test_diagonal_system_zero(self):
        A = np.diag([0.4, -0.2]).astype(complex)
        assert integrability_residual(DeformationState(u=U0, A=A)) < 1e-9

    def test_second_order_in_h(self):
        # n = 2 is structurally exact, so probe a 3x3 system
        rng = np.random.default_rng(21)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        state = DeformationState(u=np.array([0.0, 1.0, 0.5 + 1.0j]), A=A)
        r1 = integrability_residual(state, h=2e-4)
        r2 = integrability_residual(state, h=1e-4)
        # centered differences: residual ~ C h^2
        assert r1 < 1e-5
        assert r2 < r1 / 2.5

    def test_corrupted_flow_detected(self):
        # a wrong-sign RHS breaks the mixed-partial identity at O(1)
        rng = np.random.default_rng(21)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        state = DeformationState(u=np.array([0.0, 1.0, 0.5 + 1.0j]), A=A)
        assert integrability_residual(state, h=1e-4, rhs_sign=-1.0) > 0.1


class TestVanishingCheck:
    def test_zero_entries_convention(self):
        fit = vanishing_order_check(np.geomspace(1e-1, 1e-3, 6), np.zeros(6))
        assert fit.passed and fit.slope == np.inf

    def test_linear_family(self):
        gaps = np.geomspace(1e-1, 1e-3, 8)
        fit = vanishing_order_check(gaps, 0.37 * gaps)
        assert fit.passed
        assert abs(fit.slope - 1.0) < 1e-9

    def test_constant_family_fails(self):
        gaps = np.geomspace(1e-1, 1e-3, 8)
        fit = vanishing_order_check(gaps, np.full(8, 0.2))
        assert not fit.passed
        assert abs(fit.slope) < 1e-9

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            vanishing_order_check([1.0, 0.5], [1.0, 0.5])

    def test_from_trace(self):
        # synthetic family A_01 = 0.2 (u_0 - u_1) sampled along a ray
        import dataclasses

        from isomlab.isoflow import FlowTrace

        s = np.geomspace(0.1, 1e-3, 10)
        us = np.stack([np.zeros_like(s) + 0j, s.astype(complex)], axis=1)
        As = np.zeros((10, 2, 2), dtype=complex)
        As[:, 0, 1] = 0.2 * (us[:, 0] - us[:, 1])
        trace = FlowTrace(t=np.arange(10.0), u=us, A=As)
        fit = vanishing_from_trace(trace, (0, 1))
        assert fit.passed and abs(fit.slope - 1.0) < 1e-9


class TestWeakFlow:
    def test_diag_gauge_derivatives(self):
        g = DiagonalGauge.linear(np.array([[0.3, 0.0], [0.1, -0.2]]))
        u = np.array([0.4 + 0.1j, 1.2])
        assert np.allclose(g.value(u), [0.3 * u[0], 0.1 * u[0] - 0.2 * u[1]])
        assert np.allclose(g.partial(u, 0), [0.3, 0.1])
        assert np.allclose(g.partial(u, 1), [0.0, -0.2])

    def test_partial_broadcasts_over_trailing_axes(self):
        g = DiagonalGauge(n=3, terms=((0, 0.7, (1, 0, 0)), (1, -0.3 + 0.2j, (0, 2, 1)),
                                      (2, 1.1, (1, 1, 2))))
        rng = np.random.default_rng(4)
        u = rng.normal(size=(3, 2, 5)) + 1j * rng.normal(size=(3, 2, 5))
        for j in range(3):
            D = g.partial(u, j)
            assert D.shape == u.shape
            for p in range(2):
                for q in range(5):
                    assert np.allclose(D[:, p, q], g.partial(u[:, p, q], j), rtol=1e-15, atol=0)

    def test_monodromy_of_weak_family_constant(self):
        # the weak Pfaffian family Y(z, u) keeps its monodromy while flowing;
        # transport the frame in u and loop it at both endpoints
        from isomlab.geometry import sector_bounds
        from isomlab.odeengine import (
            PathPoint,
            SolutionHandle,
            actual_solution,
            monodromy_loop,
        )

        gauge = DiagonalGauge.linear(np.array([[0.3, 0.0], [0.1, -0.2]]))
        state = DeformationState(u=U0, A=GENERIC_A, gauge=gauge)
        target = np.array([0.25 + 0.1j, 1.15])
        sys0 = IrregularSystem(u=U0, A=GENERIC_A)
        theta = sector_bounds(U0, 0.3, 0).midpoint
        zs = PathPoint.from_polar(1.5, theta)
        Y0 = actual_solution(
            sys0, 0, 0.3, radius=20.0, zstar=zs, tol=1e-12,
            fs=compute_formal_coefficients(sys0, K=32),
        )
        res = integrate_flow(
            state, UPath.line(U0, target), tol=1e-12, carry_frame=(zs.z, Y0.value)
        )
        sys1 = IrregularSystem(u=target, A=res.state.A)
        M0 = monodromy_loop(sys0, Y0, winding=1, tol=1e-12)
        h1 = SolutionHandle(system=sys1, point=zs, value=res.frame_value)
        M1 = monodromy_loop(sys1, h1, winding=1, tol=1e-12)
        assert np.max(np.abs(M0 - M1)) < 1e-7

    def test_h_drift_matches_integrated_gauge(self):
        from isomlab.geometry import sector_bounds
        from isomlab.odeengine import PathPoint, actual_solution

        gauge = DiagonalGauge.linear(np.array([[0.3, 0.0], [0.1, -0.2]]))
        state = DeformationState(u=U0, A=GENERIC_A, gauge=gauge)
        target = np.array([0.25 + 0.1j, 1.15])
        sys0 = IrregularSystem(u=U0, A=GENERIC_A)
        theta = sector_bounds(U0, 0.3, 0).midpoint
        zs = PathPoint.from_polar(10.0, theta)
        Y0 = actual_solution(
            sys0, 0, 0.3, radius=20.0, zstar=zs, tol=1e-12,
            fs=compute_formal_coefficients(sys0, K=32),
        )
        res = integrate_flow(
            state, UPath.line(U0, target), tol=1e-12, carry_frame=(zs.z, Y0.value)
        )
        sys1 = IrregularSystem(u=target, A=res.state.A)
        Y1 = actual_solution(
            sys1, 0, 0.3, radius=20.0, zstar=zs, tol=1e-12,
            fs=compute_formal_coefficients(sys1, K=32),
        )
        H_end = np.linalg.solve(Y1.value, res.frame_value)
        predicted = np.diag(np.exp(gauge.value(target) - gauge.value(U0)))
        assert np.max(np.abs(H_end - predicted)) < 1e-6


class TestLaurentReduce:
    def test_nonresonant_chain_is_zero(self):
        raw = LaurentCoefficients(
            j=0, negative=(np.ones((2, 2)),) * 3, omega0=None, positive=()
        )
        out, report = laurent_reduce(np.diag([0.0, 1.0 / 3.0]), U0, raw)
        for X in out.negative:
            assert np.max(np.abs(X)) < 1e-14
        assert max(report.forced_zero_norms) < 1e-14

    def test_unit_coefficient_reproduces_linear_form(self):
        # omega^(1) = E_j: upward chain vanishes, omega^(0) = [F_1, E_j] off-diag,
        # and the diagonal rule holds with residual 0
        A = GENERIC_A
        raw = LaurentCoefficients(j=1, negative=(), omega0=None, positive=())
        out, report = laurent_reduce(A, U0, raw, n_positive=4)
        for X in out.positive[1:]:
            assert np.max(np.abs(X)) < 1e-14
        assert report.diag_rule_residual < 1e-14
        W = omega_zero_part(A, U0, 1)
        off = out.omega0 - np.diag(np.diag(out.omega0))
        assert np.allclose(off, W - np.diag(np.diag(W)))

    def test_resonant_rejected_with_pair(self):
        raw = LaurentCoefficients(
            j=0, negative=(np.ones((2, 2)),), omega0=None, positive=()
        )
        with pytest.raises(ResonanceError) as err:
            laurent_reduce(np.diag([1.5, 0.5]), U0, raw)
        assert err.value.pair is not None

    def test_flow_rhs_identity(self):
        # with omega^(-1) = 0, dA/du_j - [omega^(0), A] vanishes along the flow
        state = DeformationState(u=U0, A=GENERIC_A)
        h = 1e-6
        j = 1
        raw = LaurentCoefficients(j=j, negative=(), omega0=None, positive=())
        out, _ = laurent_reduce(GENERIC_A, U0, raw)
        tgt_p, tgt_m = U0.copy(), U0.copy()
        tgt_p[j] += h
        tgt_m[j] -= h
        Ap = integrate_flow(state, UPath.line(U0, tgt_p), tol=1e-13).state.A
        Am = integrate_flow(state, UPath.line(U0, tgt_m), tol=1e-13).state.A
        fd = (Ap - Am) / (2 * h)
        comm = out.omega0 @ GENERIC_A - GENERIC_A @ out.omega0
        assert np.max(np.abs(fd - comm)) < 1e-7
