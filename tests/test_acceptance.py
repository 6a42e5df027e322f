"""Acceptance suite: one test per criterion, thresholds pinned.

Each test prints a single PASS/FAIL line with its runtime (visible with
pytest -s); the asserted tolerances are the contract, not calibration knobs.
Criteria 5, 6 and 9 share one strong-flow configuration through module-scope
fixtures.
"""

import time

import numpy as np
import pytest

from isomlab.formal import (
    IrregularSystem,
    compute_formal_coefficients,
    ode_laurent_residuals,
)
from isomlab.fuchsian import (
    FuchsianSystem,
    fuchs_monodromy,
    integrate_schlesinger,
    kv_family,
    schlesinger_residual,
)
from isomlab.isoflow import (
    LaurentCoefficients,
    UPath,
    integrability_residual,
    integrate_flow,
    laurent_reduce,
)
from isomlab.levelt import monodromy_exponential
from isomlab.odeengine import Leg, actual_solution, integrate_path, monodromy_loop
from isomlab.verify import collect_data, data_drift, stokes_relation_check, verify_coalescence

GENERIC_A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
U_START = np.array([0.0, 1.0], dtype=complex)
U_END = np.array([0.3 + 0.2j, 1.2], dtype=complex)
TAU = 0.3


class Stopwatch:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\n[acceptance] {self.label}: {verdict} ({elapsed:.2f} s)")
        assert elapsed < self.budget, f"{self.label} exceeded {self.budget} s"
        return False


def random_irregular(rng, n):
    while True:
        u = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        gaps = np.abs(u[:, None] - u[None, :]) + np.eye(n)
        if gaps.min() > 0.7:
            break
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return IrregularSystem(u=u, A=A)


def test_criterion_1_first_coefficient_closed_form():
    with Stopwatch("criterion 1 (F_1 closed form)", 1.0):
        rng = np.random.default_rng(101)
        for trial in range(50):
            n = 2 + trial % 2
            sys = random_irregular(rng, n)
            F1 = compute_formal_coefficients(sys, K=1).F[0]
            for i in range(n):
                for j in range(n):
                    if i != j:
                        expect = sys.A[i, j] / (sys.u[j] - sys.u[i])
                        assert abs(F1[i, j] - expect) <= 1e-12
            for i in range(n):
                expect = -sum(sys.A[i, j] * F1[j, i] for j in range(n) if j != i)
                assert abs(F1[i, i] - expect) <= 1e-12


def test_criterion_2_defining_identity():
    with Stopwatch("criterion 2 (formal-series defining identity)", 5.0):
        rng = np.random.default_rng(102)
        for trial in range(50):
            n = 2 + trial % 2
            sys = random_irregular(rng, n)
            fs = compute_formal_coefficients(sys, K=8)
            assert max(ode_laurent_residuals(sys, fs)) < 1e-10


def test_criterion_3_kv_counterexample():
    with Stopwatch("criterion 3 (KV counterexample)", 30.0):
        kv = kv_family([1.0], 0.5)

        def exact_derivative(z):
            u, h = kv.u, kv.h(kv.u)
            c = -2 * u * h / (u - 3)
            q = (z - 1) * (z - 3)
            return np.array(
                [
                    [(u - 1) / (z - 1) ** 2, c * (q - (z - u) * (2 * z - 4)) / q**2],
                    [0.0, -1.0 / (z - 3) ** 2],
                ],
                dtype=complex,
            )

        rng = np.random.default_rng(103)
        checked = 0
        while checked < 20:
            z = complex(rng.uniform(-4, 6), rng.uniform(-4, 4))
            if min(abs(z - p) for p in kv.system.poles) < 0.3:
                continue
            checked += 1
            resid = np.max(
                np.abs(exact_derivative(z) - kv.system.coefficient(z) @ kv.Y(z))
            )
            assert resid < 1e-10

        for M in fuchs_monodromy(kv.system, tol=1e-12):
            assert np.max(np.abs(M - np.eye(2))) <= 1e-8

        sch = schlesinger_residual(kv.residues_at, kv.system.poles, moving=[0])
        assert sch > 1e-2

        drift = np.linalg.norm(kv_family([1.0], 0.4).C1 - kv_family([1.0], 0.6).C1)
        assert drift > 1e-3


def test_criterion_4_schlesinger_flow():
    with Stopwatch("criterion 4 (Schlesinger flow)", 120.0):
        rng = np.random.default_rng(104)
        poles = np.array([0.0, 1.0, 2.0], dtype=complex)
        residues = [
            rng.normal(size=(2, 2)) * 0.5 + 0.5j * rng.normal(size=(2, 2))
            for _ in range(2)
        ]
        residues.append(-sum(residues))
        sys = FuchsianSystem(poles=poles, residues=tuple(residues))

        delta = np.array([0.2j, -0.2, 0.3])
        delta = 0.5 * delta / np.linalg.norm(delta)  # path length 0.5
        samples = [poles, poles + 0.5 * delta, poles + delta]

        systems = [sys]
        for target in samples[1:]:
            final, _ = integrate_schlesinger(
                sys, UPath.line(poles, target), tol=1e-12
            )
            systems.append(final)

        # isospectrality of each residue across the samples
        for i in range(3):
            specs = [
                np.sort_complex(np.linalg.eigvals(s.residues[i])) for s in systems
            ]
            for sp in specs[1:]:
                assert np.max(np.abs(sp - specs[0])) <= 1e-8

        # monodromy constancy and product identity
        mons = [fuchs_monodromy(s, tol=1e-12) for s in systems]
        for ms in mons[1:]:
            for a, b in zip(ms, mons[0]):
                assert np.max(np.abs(a - b)) <= 1e-6
        prod = np.eye(2, dtype=complex)
        for M in mons[0]:
            prod = prod @ M
        assert np.max(np.abs(prod - np.eye(2))) <= 1e-6


@pytest.fixture(scope="module")
def strong_run():
    sys0 = IrregularSystem(u=U_START, A=GENERIC_A)
    data = collect_data(sys0, [U_START, U_END], r=0, tau=TAU, tol=1e-11, order=32)
    return data


def test_criterion_5_strong_isomonodromy(strong_run):
    with Stopwatch("criterion 5 (strong isomonodromy, irregular)", 120.0):
        data = strong_run
        drift = data_drift(data)
        assert drift["S_r"] <= 1e-6
        assert drift["S_r1"] <= 1e-6
        assert drift["C_r"] <= 1e-6
        assert drift["B"] <= 1e-10  # diag(A) constant
        assert drift["D"] == 0.0

        # spectrum of A constant along the flow
        end, _ = integrate_flow(
            IrregularSystem(u=U_START, A=GENERIC_A),
            UPath.line(U_START, U_END),
            tol=1e-11,
        )
        s0 = np.sort_complex(np.linalg.eigvals(GENERIC_A))
        s1 = np.sort_complex(np.linalg.eigvals(end.A))
        assert np.max(np.abs(s0 - s1)) <= 1e-8

        # unit diagonal and required triangular zeros
        for d in data:
            assert max(d.diag_residuals) <= 1e-6
        sys0 = IrregularSystem(u=U_START, A=GENERIC_A)
        from isomlab.odeengine import StokesConfig, stokes_matrix

        fs0 = compute_formal_coefficients(sys0, K=32)
        for r in (0, 1):
            resr = stokes_matrix(sys0, r, StokesConfig(tau=TAU), fs0)
            for _, mag in resr.required_zero:
                assert mag <= 1e-6


def test_criterion_6_relation_suite(strong_run):
    with Stopwatch("criterion 6 (relation suite)", 60.0):
        data = strong_run[0]
        rel = stokes_relation_check(data)
        assert rel["stokes_period"] <= 1e-6  # S_2 = e^{-2 pi i B} S_0 e^{2 pi i B}
        assert rel["connection_chain"] <= 1e-6  # C_1 = C_0 S_0

        # loop monodromy conjugate to e^{2 pi i L}: compare spectra
        sys0 = IrregularSystem(u=U_START, A=GENERIC_A)
        fs = compute_formal_coefficients(sys0, K=32)
        h = actual_solution(sys0, 0, TAU, fs, tol=1e-12)
        h = integrate_path(h, [Leg(h.point.z, h.point.z / h.point.radius)], tol=1e-12)
        M = monodromy_loop(h, tol=1e-12)
        from isomlab.levelt import build_levelt_solution

        ld = build_levelt_solution(GENERIC_A, [sys0.Lambda], K=25)
        spec_loop = np.sort_complex(np.linalg.eigvals(M))
        spec_exp = np.sort_complex(np.linalg.eigvals(monodromy_exponential(ld)))
        assert np.max(np.abs(spec_loop - spec_exp)) <= 1e-6


def test_criterion_7_coalescence_theorem():
    with Stopwatch("criterion 7 (coalescence theorem)", 600.0):
        A0 = np.array(
            [[0.10, 0.00, 0.06], [0.00, 0.10, 0.09], [0.075, -0.05, 0.45]],
            dtype=complex,
        )
        uC = np.array([0.0, 0.0, 1.0], dtype=complex)
        rep = verify_coalescence(A0, uC, tau=TAU, eps=0.1, tol=1e-11, order=30)
        # fitted log-log slopes of the coalescing-pair entries (certified-zero
        # entries pass with the +inf convention; the frozen-seeded series must
        # show the genuine linear decay)
        for fit in rep.entry_fits.values():
            assert fit.passed, f"entry fit failed: {fit}"
        for fit in rep.driven_fits.values():
            assert fit.slope >= 0.9
        assert rep.limit_errors[-1] <= 1e-5
        assert rep.verdict


def test_criterion_8_laurent_reduction():
    with Stopwatch("criterion 8 (Laurent reduction)", 1.0):
        rng = np.random.default_rng(108)
        count = 0
        while count < 20:
            n = 2 + count % 2
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            from isomlab.formal import check_resonances

            if check_resonances(A, tol=1e-3):
                continue
            count += 1
            u = np.arange(1, n + 1).astype(complex) * (1.0 + 0.2j)
            j = count % n
            raw = LaurentCoefficients(
                j=j, negative=(np.ones((n, n)),) * 3, omega0=None, positive=()
            )
            out, diag_rule_residual = laurent_reduce(A, u, raw, n_positive=4)
            for X in out.negative:
                assert np.linalg.norm(X, 2) < 1e-12
            # omega^(1) = E_j reproduces the linear-in-z coefficient: the
            # upward chain vanishes and omega^(0) matches the deformation form
            from isomlab.isoflow import omega_zero_part

            for X in out.positive[1:]:
                assert np.linalg.norm(X, 2) < 1e-12
            W = omega_zero_part(A, u, j)
            off = out.omega0 - np.diag(np.diag(out.omega0))
            assert np.max(np.abs(off - (W - np.diag(np.diag(W))))) < 1e-12
            assert diag_rule_residual < 1e-12


def test_criterion_9_mutation_sensitivity(strong_run):
    with Stopwatch("criterion 9 (mutation sensitivity)", 120.0):
        # corrupted flow: wrong-sign right-hand side
        sys_bad, _ = integrate_flow(
            IrregularSystem(u=U_START, A=GENERIC_A),
            UPath.line(U_START, U_END),
            tol=1e-11,
            rhs_sign=-1.0,
        )
        from isomlab.odeengine import StokesConfig, stokes_matrix

        fs_bad = compute_formal_coefficients(sys_bad, K=32)
        S_bad = stokes_matrix(sys_bad, 0, StokesConfig(tau=TAU), fs_bad).S
        stokes_break = float(np.max(np.abs(S_bad - strong_run[0].S_r)))

        resid_break = integrability_residual(
            IrregularSystem(u=U_START, A=GENERIC_A), rhs_sign=-1.0
        )
        # for n = 2 the integrability residual is structurally blind, so the
        # Stokes constancy check must catch the corruption
        assert max(stokes_break, resid_break) > 1e-6
        assert stokes_break > 1e-3
