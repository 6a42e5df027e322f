import time

import numpy as np
import pytest

from isomlab.errors import IntegrationError, ResonanceError, WallError
from isomlab.formal import IrregularSystem, compute_formal_coefficients
from isomlab.fuchsian import FuchsianSystem, integrate_schlesinger
from isomlab.isoflow import (
    LaurentCoefficients,
    UPath,
    _difference_quotients,
    integrability_residual,
    integrate_flow,
    laurent_reduce,
    omega_zero_part,
    vanishing_order_check,
)

GENERIC_A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
U0 = np.array([0.0, 1.0], dtype=complex)


class TestOmegaZeroPart:
    def test_diagonal_residue_gives_zero(self):
        W = omega_zero_part(np.diag([0.4, -0.2]), U0, 0)
        assert np.all(W == 0)

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
        # A o K, K_ab = (du_a - du_b)/(u_a - u_b)
        rng = np.random.default_rng(15)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = np.array([0.0, 1.0, 2.3, -1.0 + 0.8j])
        du = rng.normal(size=4) + 1j * rng.normal(size=4)
        K = _difference_quotients(u, du)
        ref = sum(du[j] * omega_zero_part(A, u, j) for j in range(4))
        assert np.max(np.abs(A * K - ref)) < 1e-14 * np.max(np.abs(ref))


class TestIntegrateFlow:
    def test_diagonal_residue_constant(self):
        A = np.diag([0.4, -0.2]).astype(complex)
        end, _ = integrate_flow(
            IrregularSystem(u=U0, A=A), UPath.line(U0, U0 + [0.2, -0.1])
        )
        assert np.max(np.abs(end.A - A)) < 1e-12

    def test_path_independence(self):
        sys0 = IrregularSystem(u=U0, A=GENERIC_A)
        target = np.array([0.3 + 0.2j, 1.2])
        direct, _ = integrate_flow(sys0, UPath.line(U0, target), tol=1e-12)
        detour, _ = integrate_flow(
            sys0,
            UPath(waypoints=(U0, np.array([-0.2 - 0.3j, 1.4]), target)),
            tol=1e-12,
        )
        assert np.max(np.abs(direct.A - detour.A)) < 1e-10

    def test_isospectral_and_diagonal_invariants(self):
        sys0 = IrregularSystem(u=U0, A=GENERIC_A)
        end, _ = integrate_flow(sys0, UPath.line(U0, np.array([0.4, 1.3 + 0.2j])), tol=1e-12)
        s0 = np.sort_complex(np.linalg.eigvals(GENERIC_A))
        s1 = np.sort_complex(np.linalg.eigvals(end.A))
        assert np.max(np.abs(s0 - s1)) < 1e-8
        assert np.max(np.abs(np.diag(end.A) - np.diag(GENERIC_A))) < 1e-10

    def test_gauge_transport_preserves_jordan(self):
        from isomlab.levelt import compute_levelt_exponents

        ld = compute_levelt_exponents(GENERIC_A)
        sys0 = IrregularSystem(u=U0, A=GENERIC_A)
        end, (G,) = integrate_flow(
            sys0, UPath.line(U0, np.array([0.25, 1.15])), tol=1e-12, carry_gauge=ld.G
        )
        recon = np.linalg.solve(G, end.A @ G)
        assert np.max(np.abs(recon - ld.J)) < 1e-9

    def test_guard_band(self):
        sys0 = IrregularSystem(u=U0, A=GENERIC_A)
        with pytest.raises(WallError):
            integrate_flow(sys0, UPath.line(U0, np.array([1.0, 1.0])))

    def test_guard_catches_gap_between_waypoints(self):
        # u_1 - u_0 runs from -1 to 1 at height 1e-7: the gap dips to 1e-7 at
        # t = 1/2 only, far below the default guard 1e-6
        u0 = np.array([0.0, -1.0 + 1e-7j])
        path = UPath.line(u0, np.array([0.0, 1.0 + 1e-7j]))
        assert abs(path.min_gap() - 1e-7) < 1e-15
        with pytest.raises(WallError, match=r"isomonodromy flow .* pairs \[\(0, 1\)\]"):
            integrate_flow(IrregularSystem(u=u0, A=GENERIC_A), path)

    @pytest.mark.parametrize("gap", [1e-4, 1e-5, 2e-6])
    def test_close_pass_admitted_by_guard_integrates(self, gap):
        # u_0 and u_1 pass at a gap the default guard admits (2e-6 is twice
        # the guard); A grows by two to three orders near the pass and comes
        # back; diag(A) and the spectrum are invariants of the strong flow
        u0 = np.array([0.0, -1.0 + gap * 1j])
        path = UPath.line(u0, np.array([0.0, 1.0 + gap * 1j]))
        A = integrate_flow(IrregularSystem(u=u0, A=GENERIC_A), path)[0].A
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
            integrate_flow(IrregularSystem(u=u0, A=GENERIC_A), path, guard=0.0)
        assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("flow", ["isomonodromy flow", "Schlesinger flow"])
def test_path_must_fit_the_system(flow):
    # both flows share one interface, and the driver checks the path for both
    if flow == "isomonodromy flow":
        sys0, start, run = IrregularSystem(u=U0, A=GENERIC_A), U0, integrate_flow
    else:
        start = np.array([0.0, 1.0, 2.0], dtype=complex)
        sys0 = FuchsianSystem(poles=start, residues=(GENERIC_A, -GENERIC_A, 0 * GENERIC_A))
        run = integrate_schlesinger
    longer = np.append(start, 5.0)
    with pytest.raises(ValueError, match=f"{flow} path has dimension {len(start) + 1}"):
        run(sys0, UPath.line(longer, longer + 0.1))
    with pytest.raises(ValueError, match=f"{flow} path starts at"):
        run(sys0, UPath.line(start + 0.5j, start + 0.1))


def test_carried_end_values_in_argument_order():
    # a flow returns the end values of what it was asked to carry: the
    # isomonodromy flow G, solving dG = Omega G with the flow's own Omega,
    # so that G^-1 A G stays G0^-1 A0 G0; the Schlesinger flow carries nothing
    sys0, path = IrregularSystem(u=U0, A=GENERIC_A), UPath.line(U0, np.array([0.25, 1.15]))
    G0 = np.array([[1.0, 0.5], [0.0, 2.0]])
    end, (G,) = integrate_flow(sys0, path, tol=1e-12, carry_gauge=G0)
    start = np.linalg.solve(G0, GENERIC_A @ G0)
    assert np.max(np.abs(np.linalg.solve(G, end.A @ G) - start)) < 1e-10
    assert integrate_flow(sys0, path)[1] == ()
    poles = np.array([0.0, 1.0, 2.0], dtype=complex)
    fsys = FuchsianSystem(poles=poles, residues=(GENERIC_A, -GENERIC_A, 0 * GENERIC_A))
    assert integrate_schlesinger(fsys, UPath.line(poles, poles + 0.1j))[1] == ()


class TestIntegrabilityResidual:
    def test_diagonal_system_zero(self):
        A = np.diag([0.4, -0.2]).astype(complex)
        assert integrability_residual(IrregularSystem(u=U0, A=A)) < 1e-9

    @staticmethod
    def seeded_system(n):
        rng = np.random.default_rng(n)
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return IrregularSystem(u=u, A=A)

    def test_exact_on_strong_states(self):
        # n = 2 is structurally exact, so probe n >= 3
        for n in (3, 4, 5):
            assert integrability_residual(self.seeded_system(n)) <= 1e-12

    def test_corrupted_flow_detected(self):
        # a wrong-sign RHS breaks the mixed-partial identity at O(1)
        rng = np.random.default_rng(21)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        sys0 = IrregularSystem(u=np.array([0.0, 1.0, 0.5 + 1.0j]), A=A)
        assert integrability_residual(sys0, rhs_sign=-1.0) > 0.1

    def test_matches_finite_differences_of_the_flow(self):
        # reference: d_k omega_j by centred differences of omega_j along short
        # flows; a corrupted flow makes the residual O(1), so the closed form
        # must reproduce it
        h = 5e-5
        sys0 = self.seeded_system(3)
        u0, n = sys0.u, sys0.n

        def omega(s, j):
            return omega_zero_part(s.A, s.u, j)

        for rhs_sign in (1.0, -1.0):
            ends = {}
            for k in range(n):
                for sgn in (1, -1):
                    target = u0.copy()
                    target[k] += sgn * h
                    ends[k, sgn], _ = integrate_flow(sys0, UPath.line(u0, target), tol=1e-13,
                                                     rhs_sign=rhs_sign)
            worst = 0.0
            for j in range(n):
                for k in range(j + 1, n):
                    dj = (omega(ends[k, 1], j) - omega(ends[k, -1], j)) / (2 * h)
                    dk = (omega(ends[j, 1], k) - omega(ends[j, -1], k)) / (2 * h)
                    Wj, Wk = omega(sys0, j), omega(sys0, k)
                    worst = max(worst, np.linalg.norm(dj - dk + Wj @ Wk - Wk @ Wj, 2))
            exact = integrability_residual(sys0, rhs_sign=rhs_sign)
            assert abs(exact - worst) <= 1e-6 * max(worst, 1.0)

    def test_runs_no_flow(self, monkeypatch):
        import isomlab.isoflow as isoflow

        def refuse(*args, **kwargs):
            raise AssertionError("integrability_residual ran a flow")

        monkeypatch.setattr(isoflow, "integrate_flow", refuse)
        monkeypatch.setattr(isoflow, "_integrate", refuse)
        sys0 = self.seeded_system(4)
        assert integrability_residual(sys0) <= 1e-12
        assert integrability_residual(sys0, rhs_sign=-1.0) > 0.1


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

    def test_single_point_above_floor_fits_no_line(self):
        # one magnitude above the floor: pass only if it sits at the largest gap
        gaps = 0.05 * 2.0 ** -np.arange(5)
        fit = vanishing_order_check(gaps, [1e-3] + [1e-14] * 4, floor=1e-13)
        assert fit.passed and fit.slope == np.inf
        fit = vanishing_order_check(gaps, [1e-14] * 4 + [1e-3], floor=1e-13)
        assert not fit.passed and fit.slope == -np.inf

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            vanishing_order_check([1.0, 0.5], [1.0, 0.5])

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
    def test_needs_finite_positive_gaps(self, bad):
        gaps = np.geomspace(1e-1, 1e-3, 6)
        gaps[-1] = bad
        with pytest.raises(ValueError, match="gaps"):
            vanishing_order_check(gaps, 0.37 * np.geomspace(1e-1, 1e-3, 6))


class TestLaurentReduce:
    def test_nonresonant_chain_is_zero(self):
        raw = LaurentCoefficients(
            j=0, negative=(np.ones((2, 2)),) * 3, omega0=None, positive=()
        )
        out, _ = laurent_reduce(np.diag([0.0, 1.0 / 3.0]), U0, raw)
        for X in out.negative:
            assert np.max(np.abs(X)) < 1e-14

    def test_unit_coefficient_reproduces_linear_form(self):
        # omega^(1) = E_j: upward chain vanishes, omega^(0) = [F_1, E_j] off-diag,
        # and the diagonal rule holds with residual 0
        A = GENERIC_A
        raw = LaurentCoefficients(j=1, negative=(), omega0=None, positive=())
        out, diag_rule_residual = laurent_reduce(A, U0, raw, n_positive=4)
        for X in out.positive[1:]:
            assert np.max(np.abs(X)) < 1e-14
        assert diag_rule_residual < 1e-14
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
        sys0 = IrregularSystem(u=U0, A=GENERIC_A)
        h = 1e-6
        j = 1
        raw = LaurentCoefficients(j=j, negative=(), omega0=None, positive=())
        out, _ = laurent_reduce(GENERIC_A, U0, raw)
        tgt_p, tgt_m = U0.copy(), U0.copy()
        tgt_p[j] += h
        tgt_m[j] -= h
        Ap = integrate_flow(sys0, UPath.line(U0, tgt_p), tol=1e-13)[0].A
        Am = integrate_flow(sys0, UPath.line(U0, tgt_m), tol=1e-13)[0].A
        fd = (Ap - Am) / (2 * h)
        comm = out.omega0 @ GENERIC_A - GENERIC_A @ out.omega0
        assert np.max(np.abs(fd - comm)) < 1e-7
