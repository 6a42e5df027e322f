import numpy as np
import pytest

from isomlab import geometry, isoflow, odeengine, verify
from isomlab.errors import CoincidentPointsError, ResonanceError, WallError
from isomlab.formal import IrregularSystem, compute_formal_coefficients
from isomlab.isoflow import UPath, integrate_flow
from isomlab.odeengine import (
    SectorRequest,
    StokesConfig,
    join_plans,
    run_plan,
    sector_plan,
    stokes_matrix,
)
from isomlab.verify import (
    COALESCENCE_TOL,
    GAP_COUNT,
    LEVELT_ORDER,
    MonodromyDataSet,
    coalescing_direction,
    collect_data,
    data_drift,
    eval_ray_family,
    ray_family_series,
    stokes_relation_check,
    verify_coalescence,
)

GENERIC_A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)
U0 = np.array([0.0, 1.0], dtype=complex)
U1 = np.array([0.3 + 0.2j, 1.2], dtype=complex)


@pytest.fixture
def engine_calls(monkeypatch):
    """A list that gets one entry per call of the transport engine."""
    calls = []
    engine = odeengine.transport_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(odeengine, "transport_matrix", counted)
    return calls


@pytest.fixture
def sector_work(monkeypatch):
    """What the sector tables of a pipeline compute: for every frame pass the
    number of systems, the sectors and the number of ray computations in it,
    the number of frames of every seed-direction pass and the distinct
    (u, lo, hi) of all of them, and the series of every truncation pass."""
    work = {"frames": [], "seeds": [], "frames_seeded": set(), "truncations": []}
    frames, rays = odeengine.sector_frames, geometry._rays
    seeds, truncations = odeengine._seed_directions, odeengine.optimal_truncations
    ray_calls = []

    def counted_frames(us, tau, rs, **kwargs):
        ray_calls.clear()
        out = frames(us, tau, rs, **kwargs)
        work["frames"].append((len(us), tuple(rs), len(ray_calls)))
        return out

    def counted_rays(*args):
        ray_calls.append(1)
        return rays(*args)

    def counted_seeds(u, lo, hi, radius):
        work["seeds"].append(len(lo))
        work["frames_seeded"].update((row.tobytes(), a, b) for row, a, b in zip(u, lo, hi))
        return seeds(u, lo, hi, radius)

    def counted_truncations(series, radius):
        work["truncations"].append({np.asarray(F).tobytes() for F in series})
        assert len(work["truncations"][-1]) == len(series)  # no series twice
        return truncations(series, radius)

    monkeypatch.setattr(odeengine, "sector_frames", counted_frames)
    monkeypatch.setattr(geometry, "_rays", counted_rays)
    monkeypatch.setattr(odeengine, "_seed_directions", counted_seeds)
    monkeypatch.setattr(odeengine, "optimal_truncations", counted_truncations)
    return work


def captured_plan(monkeypatch, pipeline):
    """The jobs `pipeline` hands the engine in its one batch, and the config
    and requests of its one sector plan."""
    batches, built = [], []
    engine, plan = odeengine.transport_matrix, verify.sector_plan
    monkeypatch.setattr(odeengine, "transport_matrix",
                        lambda *args: batches.append(args) or engine(*args))
    monkeypatch.setattr(verify, "sector_plan",
                        lambda cfg, requests: built.append((cfg, requests)) or plan(cfg, requests))
    pipeline()
    (odes, Y0s, legs, _), = batches
    (cfg, requests), = built
    return list(zip(odes, Y0s, legs)), cfg, requests


def engine_jobs(monkeypatch, pipeline):
    """The jobs `pipeline` hands the engine, and those of one sector plan per
    request of its sector plan, each built alone, joined in request order."""
    got, cfg, requests = captured_plan(monkeypatch, pipeline)
    return got, list(join_plans([sector_plan(cfg, [q]) for q in requests]).jobs)


def ode_key(o):
    return o.center, o.Q.shape, o.P.tobytes(), o.Q.tobytes(), o.roots.tobytes()


def assert_same_jobs(got, want):
    """Same order, ODEs and legs equal by value, seed columns bit for bit."""
    assert len(got) == len(want) > 0
    for (ode, Y0, legs), (ode1, Y01, legs1) in zip(got, want):
        assert ode_key(ode) == ode_key(ode1)
        assert np.asarray(Y0).tobytes() == np.asarray(Y01).tobytes()
        assert list(legs) == list(legs1)


class TestCollectData:
    def test_diagonal_family_trivial(self):
        A = np.diag([0.4, -0.2]).astype(complex)
        data = collect_data(
            IrregularSystem(u=U0, A=A), [U0, U1], r=0, tau=0.3, order=16
        )
        for d in data:
            assert np.max(np.abs(d.S_r - np.eye(2))) < 1e-7
            assert np.max(np.abs(d.S_r1 - np.eye(2))) < 1e-7
        drift = data_drift(data)
        assert drift["C_r"] < 1e-7

    def test_strong_flow_constancy(self):
        data = collect_data(
            IrregularSystem(u=U0, A=GENERIC_A), [U0, U1], r=0, tau=0.3, order=32,
        )
        drift = data_drift(data)
        assert drift["S_r"] <= 1e-6
        assert drift["S_r1"] <= 1e-6
        assert drift["C_r"] <= 1e-6
        assert drift["B"] <= 1e-10
        assert drift["L_spectrum"] <= 1e-8
        assert drift["D"] == 0.0

    def test_strong_flow_constancy_random_systems(self):
        rng = np.random.default_rng(303)
        for _ in range(3):
            A = rng.normal(size=(2, 2)) + 0.5j * rng.normal(size=(2, 2))
            data = collect_data(
                IrregularSystem(u=U0, A=A),
                [U0, U0 + np.array([0.12 - 0.1j, 0.15])],
                r=0, tau=0.3, order=32,
            )
            drift = data_drift(data)
            assert drift["S_r"] <= 1e-6
            assert drift["C_r"] <= 1e-6
            assert drift["B"] <= 1e-10

    def test_chain_catches_a_branch_error_in_the_next_connection(self, monkeypatch):
        # C_r and S_r read one Y_r at one z*, but C_{r+1} reads Y_{r+1} at
        # the z* of S_{r+1}: Y^(0) one turn off its branch there, for that
        # request alone, breaks C_{r+1} = C_r S_r, so the relation is no
        # tautology of the shared Y_r
        sys, r = IrregularSystem(u=U0, A=GENERIC_A), 0
        frames = geometry.sector_frames([U0], 0.3, (r + 1, r + 2))[0]
        arg = 0.5 * (frames[1].lo + frames[0].hi)  # z* of S_{r+1} and C_{r+1}
        handle, shifted = odeengine.levelt_handle, []

        def one_turn_off(sys_, ld, zstar, tol):
            if abs(zstar.arg - arg) < 1e-12:
                shifted.append(zstar)
                zstar = odeengine.PathPoint.from_polar(zstar.radius, zstar.arg - 2 * np.pi)
            return handle(sys_, ld, zstar, tol)

        chains = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(odeengine, "levelt_handle", one_turn_off)
            data = collect_data(sys, [U0, U1], r=r, tau=0.3, tol=1e-11, order=32)
            chains.append(stokes_relation_check(data[0])["connection_chain"])
        assert len(shifted) == 1
        assert chains[0] <= 1e-10 and chains[1] > 1e-6

    def test_one_transport_batch_whatever_the_sample_count(self, engine_calls):
        counts = []
        for samples in ([U0, U1], [U0, 0.5 * (U0 + U1), U1]):
            engine_calls.clear()
            collect_data(IrregularSystem(u=U0, A=GENERIC_A), samples, r=0, tau=0.3,
                         order=32)
            counts.append(len(engine_calls))
        assert counts[0] == counts[1] > 0

    def test_sector_data_computed_once(self, sector_work):
        samples = [U0, 0.5 * (U0 + U1), U1]
        collect_data(IrregularSystem(u=U0, A=GENERIC_A), samples, r=0, tau=0.3, order=32)
        # sectors r..r + 2 of every sample (S_r, S_{r+1}) and r + 3 of the
        # first (S_{r+2}) are sectors 0 and 1 turned, so one frame pass
        # finds the rays of each sample once, for sectors 0 and 1
        assert sector_work["frames"] == [(3, (0, 1), 3)]
        # seed directions in those two frames of each sample, one pass for
        # the table, each (sample, sector) frame once
        assert sector_work["seeds"] == [2 * 3]
        assert len(sector_work["frames_seeded"]) == 2 * 3
        # the series of each sample, in one stacked pass, each once
        assert [len(series) for series in sector_work["truncations"]] == [3]

    def test_levelt_operators_inverted_once(self, monkeypatch):
        # the samples share J, so the order-k operators (n^2 x n^2, one per
        # order) of all three are inverted in one batched call
        inverted = []
        inv = np.linalg.inv

        def counted(a):
            if np.ndim(a) == 3 and np.shape(a)[1:] == (4, 4):
                inverted.append(len(a))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        samples = [U0, 0.5 * (U0 + U1), U1]
        collect_data(IrregularSystem(u=U0, A=GENERIC_A), samples, r=0, tau=0.3, order=32)
        assert inverted == [LEVELT_ORDER]

    def test_engine_gets_the_jobs_of_one_plan_per_request(self, monkeypatch):
        got, want = engine_jobs(monkeypatch, lambda: collect_data(
            IrregularSystem(u=U0, A=GENERIC_A), [U0, U1], r=0, tau=0.3, order=32))
        assert_same_jobs(got, want)

    def test_wall_sample_rejected(self):
        with pytest.raises(WallError):
            collect_data(
                IrregularSystem(u=np.array([0.0, 0.0]), A=np.zeros((2, 2))),
                [np.array([0.0, 0.0])], r=0, tau=0.3,
            )


class TestStokesRelationCheck:
    def _dataset(self, b, S0, S2, C0=None, C1=None, S1=None):
        n = len(b)
        eye = np.eye(n, dtype=complex)
        return MonodromyDataSet(
            u=U0, S_r=S0, S_r1=S1 if S1 is not None else eye,
            b=np.asarray(b, dtype=complex), d=np.zeros(n, dtype=int), L=eye * 0,
            C_r=C0 if C0 is not None else eye,
            S_r2=S2, C_r1=C1 if C1 is not None else (C0 if C0 is not None else eye) @ S0,
        )

    def test_trivial_exponent(self):
        S0 = np.array([[1.0, 0.3], [0.0, 1.0]], dtype=complex)
        res = stokes_relation_check(self._dataset([0.0, 0.0], S0, S0))
        assert res["stokes_period"] < 1e-15
        assert res["connection_chain"] < 1e-15

    def test_half_integer_sign_flip(self):
        s = 0.37 - 0.8j
        S0 = np.array([[1.0, s], [0.0, 1.0]], dtype=complex)
        S2 = np.array([[1.0, -s], [0.0, 1.0]], dtype=complex)
        res = stokes_relation_check(self._dataset([0.0, 0.5], S0, S2))
        assert res["stokes_period"] < 1e-15
        wrong = stokes_relation_check(self._dataset([0.0, 0.5], S0, S0))
        assert wrong["stokes_period"] > 0.1

    def test_chain_residual(self):
        S0 = np.array([[1.0, 0.0], [0.6, 1.0]], dtype=complex)
        C0 = np.array([[1.0, 0.2], [-0.4, 0.9]], dtype=complex)
        ds = self._dataset([0.0, 0.0], S0, S0, C0=C0, C1=C0 @ S0)
        assert stokes_relation_check(ds)["connection_chain"] < 1e-15


UC3 = np.array([0.0, 0.0, 1.0], dtype=complex)
A3 = np.array(
    [[0.10, 0.00, 0.06], [0.00, 0.10, 0.09], [0.075, -0.05, 0.45]], dtype=complex
)



def vanishing_family(uC, seed):
    """A seeded residue matrix vanishing on the coalescing pairs of uC."""
    uC = np.asarray(uC, dtype=complex)
    rng = np.random.default_rng(seed)
    n = len(uC)
    A = 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    A[(uC[:, None] == uC[None, :]) & ~np.eye(n, dtype=bool)] = 0.0
    return A, uC


# criterion 7, seeded 3x3, the 2x2 full coalescence, a three-member group and
# two groups
GERM_CASES = (
    [(A3, UC3)]
    + [vanishing_family(UC3, seed) for seed in range(4)]
    + [(np.diag([0.2, -0.1]).astype(complex), np.zeros(2, dtype=complex))]
    + [vanishing_family([0, 0], seed) for seed in range(2)]
    + [vanishing_family([0, 0, 0, 1], seed) for seed in range(3)]
    + [vanishing_family([0, 0, 1, 1], seed) for seed in range(3)]
)


class TestRayFamilySeries:
    def test_matches_flow(self):
        v = coalescing_direction(UC3, 0.3)
        coeffs = ray_family_series(A3, UC3, v, order=5)
        s = 0.01
        sys0 = IrregularSystem(u=UC3 + s * v, A=eval_ray_family(coeffs, s))
        end, _ = integrate_flow(
            sys0, UPath.line(sys0.u, UC3 + 2 * s * v), tol=1e-13, guard=0.0
        )
        assert np.max(np.abs(end.A - eval_ray_family(coeffs, 2 * s))) < 1e-11

    def test_preserves_diagonal(self):
        v = coalescing_direction(UC3, 0.3)
        coeffs = ray_family_series(A3, UC3, v, order=4)
        for C in coeffs[1:]:
            assert np.max(np.abs(np.diag(C))) < 1e-12

    def test_diagonal_exact_along_family(self):
        # B = diag(A) is constant along a strong family: the coefficients
        # past A_0 have an exactly zero diagonal, so every sample keeps
        # diag(A_0) bit for bit (and its column ODEs equal the frozen ones)
        v = coalescing_direction(UC3, 0.3)
        coeffs = ray_family_series(A3, UC3, v, order=6)
        for C in coeffs[1:]:
            assert not np.diag(C).any()
        for g in 0.1 * 2.0 ** -np.arange(1, 11):
            assert np.array_equal(np.diag(eval_ray_family(coeffs, g)), np.diag(A3))

    def test_formal_coefficients_bounded_near_delta(self):
        # along the vanishing-compatible family the series coefficients stay
        # bounded as the gap shrinks
        from isomlab.formal import compute_formal_coefficients

        v = coalescing_direction(UC3, 0.3)
        coeffs = ray_family_series(A3, UC3, v, order=6)
        norms = []
        for g in (0.1, 0.03, 0.01, 0.003, 0.001):
            sysg = IrregularSystem(u=UC3 + g * v, A=eval_ray_family(coeffs, g))
            fs = compute_formal_coefficients(sysg, K=6)
            norms.append(max(np.linalg.norm(F, 2) for F in fs.F))
        assert max(norms) < 5 * min(norms)

    def test_vanishing_entries_linear(self):
        v = coalescing_direction(UC3, 0.3)
        coeffs = ray_family_series(A3, UC3, v, order=4)
        # A_{01}(s) = c s + O(s^2) with c != 0 for this generic family
        assert abs(coeffs[1][0, 1]) > 1e-4
        assert abs(coeffs[0][0, 1]) == 0.0

    @pytest.mark.parametrize("A0, uC", GERM_CASES)
    def test_matches_probe_reference(self, A0, uC):
        # the matrix recursion against the probe-based germ, order by order
        from reference_solvers import ray_family_series_reference

        v = coalescing_direction(uC, 0.3)
        got = ray_family_series(A0, uC, v, order=6)
        want = ray_family_series_reference(A0, uC, v, order=6)
        assert len(got) == len(want) == 7
        for G, W in zip(got, want):
            assert np.max(np.abs(G - W)) <= 1e-13 * max(np.max(np.abs(W)), 1e-300)

    def test_refuses_malformed_inputs(self):
        v = coalescing_direction(UC3, 0.3)
        with pytest.raises(ValueError, match="v has"):
            ray_family_series(A3, UC3, v[:2])
        with pytest.raises(ValueError, match="A0 has shape"):
            ray_family_series(A3[:2, :2], UC3, v)
        with pytest.raises(ValueError, match="no coalescing pair"):
            ray_family_series(A3, [0.0, 1.0, 2.0], v)

    def test_refuses_family_not_vanishing_at_the_pair(self):
        # the vanishing condition verify_coalescence imposes, at the germ too
        with pytest.raises(CoincidentPointsError, match="vanishing condition"):
            ray_family_series(np.ones((2, 2)), np.zeros(2), [-0.5, 0.5])

    def test_resonant_order_raises(self):
        # full 2x2 coalescence: L = diag(A_11 - A_00, A_00 - A_11), so
        # (m + 1) I - L would be singular at order m + 1 = A_11 - A_00 = 2;
        # the resonant pair is refused before the recursion starts
        with pytest.raises(ResonanceError, match=r"integers \[\(0, 1, -2\), \(1, 0, 2\)\]"):
            ray_family_series(np.diag([0.0, 2.0]), np.zeros(2), [-0.5, 0.5], order=4)


class TestCoalescingDirection:
    def test_needs_a_coalescing_pair(self):
        with pytest.raises(ValueError, match="no coalescing pair"):
            coalescing_direction([0.0, 1.0, 2.0], 0.3)


class TestVerifyCoalescence:
    def test_pipeline_passes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_coalescence built connection data")

        # no connection matrix is reported, so none is computed
        monkeypatch.setattr(odeengine, "levelt_handle", refuse)
        monkeypatch.setattr(verify, "build_levelt_solution", refuse)
        rep = verify_coalescence(A3, UC3, tau=0.3, eps=0.1, order=30)
        assert rep.decay_ok and rep.limit_ok and rep.pattern_ok
        assert rep.verdict
        assert rep.limit_errors[-1] <= 1e-5
        assert rep.pattern_magnitude <= 1e-6
        assert rep.flow_vs_germ < 1e-10
        # frozen system carries exact zeros at the coalescing positions, in
        # S_r and in S_{r+1}, here taken from the sector API on the frozen
        # system in the frame widened at u^C
        frozen = IrregularSystem(u=rep.uC, A=A3)
        fs0 = compute_formal_coefficients(frozen, K=30, coalesce_tol=COALESCENCE_TOL)
        cfg = StokesConfig(tau=0.3, uC=rep.uC)
        S1_frozen = run_plan(sector_plan(cfg, [SectorRequest(frozen, 1, fs0)]), cfg.tol)[0].S
        for i, j in rep.pairs:
            assert abs(rep.S_frozen[i, j]) < 1e-9
            assert abs(rep.S_frozen[j, i]) < 1e-9
            assert abs(S1_frozen[i, j]) < 1e-9
            assert abs(S1_frozen[j, i]) < 1e-9
        # frozen-seeded pass decays linearly in the gap
        for f in rep.driven_fits.values():
            assert f.slope >= 0.9
        for f in rep.a_fits.values():
            assert f.slope >= 0.9

    def test_two_by_two_full_coalescence(self):
        # diagonal residue: coalesced system solvable, all Stokes = I
        A = np.diag([0.2, -0.1]).astype(complex)
        rep = verify_coalescence(A, np.zeros(2, dtype=complex), tau=0.3, eps=0.1)
        assert rep.verdict
        assert np.max(np.abs(rep.S_frozen - np.eye(2))) < 1e-8
        assert rep.limit_errors[-1] < 1e-8

    def test_violating_family_rejected(self):
        bad = A3.copy()
        bad[0, 1] = 0.3
        with pytest.raises(CoincidentPointsError, match="vanishing condition"):
            verify_coalescence(bad, UC3, tau=0.3, eps=0.1)

    def test_diagonal_resonance_rejected(self):
        bad = A3.copy()
        bad[1, 1] = bad[0, 0] + 2.0
        with pytest.raises(ResonanceError):
            verify_coalescence(bad, UC3, tau=0.3, eps=0.1)

    def test_eps_bound_enforced(self):
        with pytest.raises(WallError):
            verify_coalescence(A3, UC3, tau=0.3, eps=5.0)

    def test_one_transport_batch_whatever_the_sample_count(self, engine_calls, monkeypatch):
        # the frozen data and both passes over every sample share one batch
        # of the engine; per-sample engine calls would make this grow (the
        # entry-decay fit needs at least five gaps)
        counts = []
        for gap_count in (5, 10):
            monkeypatch.setattr(verify, "GAP_COUNT", gap_count)
            engine_calls.clear()
            verify_coalescence(A3, UC3, tau=0.3, eps=0.1)
            counts.append(len(engine_calls))
        assert counts[0] == counts[1] > 0

    def test_each_sector_frame_computed_once(self, sector_work):
        verify_coalescence(A3, UC3, tau=0.3, eps=0.1)
        # sectors r, r + 1, r + 2 of the frozen system and of each sample,
        # sectors 0 and 1 turned, in one frame pass that finds the rays of
        # each system once
        assert sector_work["frames"] == [(1 + GAP_COUNT, (0, 1), 1 + GAP_COUNT)]

    def test_seed_data_computed_once(self, sector_work):
        verify_coalescence(A3, UC3, tau=0.3, eps=0.1)
        # seed directions in sectors 0 and 1 of the frozen system and of
        # each sample, whose turns are sectors r, r + 1 and r + 2, shared by
        # its self- and frozen-seeded passes: one pass for the table, each
        # (system, sector) frame once
        assert sector_work["seeds"] == [2 * (1 + GAP_COUNT)]
        assert len(sector_work["frames_seeded"]) == 2 * (1 + GAP_COUNT)
        # the frozen series (frozen system and frozen-seeded passes) and the
        # series of each sample, all at the one seed radius: one stacked
        # pass, each series once
        assert [len(series) for series in sector_work["truncations"]] == [1 + GAP_COUNT]

    def test_engine_gets_the_jobs_of_one_plan_per_request(self, monkeypatch):
        got, want = engine_jobs(
            monkeypatch, lambda: verify_coalescence(A3, UC3, tau=0.3, eps=0.1))
        assert_same_jobs(got, want)

    def test_frozen_data_do_not_depend_on_the_batch(self, monkeypatch):
        # the frozen system's S_r columns run on the same legs in the plan
        # of all requests as in stokes_matrix on the frozen system alone,
        # and the two S agree to the engine's batch round-off
        jobs, cfg, requests = captured_plan(
            monkeypatch, lambda: verify_coalescence(A3, UC3, tau=0.3, eps=0.1))
        frozen = requests[0]
        alone = sector_plan(cfg, [frozen])
        assert len(requests) == 2 + 4 * GAP_COUNT
        assert_same_jobs(jobs[: len(alone.jobs)], list(alone.jobs))
        batch = run_plan(sector_plan(cfg, requests), cfg.tol)[0].S
        S = stokes_matrix(frozen.sys, frozen.r, cfg, frozen.fs).S
        assert np.abs(batch - S).max() <= 1e-13 * np.abs(S).max()

    def test_one_ode_per_system_shared_by_both_passes(self, monkeypatch):
        # every column of a system runs on the system's one ODE, so the
        # frozen-seeded passes add no (ODE, leg) pair to the batch that the
        # frozen system and the self-seeded passes do not step already
        jobs, cfg, requests = captured_plan(
            monkeypatch, lambda: verify_coalescence(A3, UC3, tau=0.3, eps=0.1))

        def pairs(jobs):
            return {(o.P.tobytes(), o.Q.tobytes(), leg) for o, _, path in jobs for leg in path}

        assert len({(o.P.tobytes(), o.Q.tobytes()) for o, _, _ in jobs}) == 1 + GAP_COUNT
        # the frozen-seeded requests pair the frozen system's series, that of
        # the first request, with a sample system
        frozen = requests[0]
        self_seeded = [q for q in requests if q.fs.F is not frozen.fs.F or q.sys is frozen.sys]
        assert 0 < len(self_seeded) < len(requests)
        alone = sector_plan(cfg, self_seeded).jobs
        assert len(alone) < len(jobs) and pairs(jobs) == pairs(alone)

    def test_both_passes_share_one_layout_per_system_sector_and_zstar(self, monkeypatch):
        # the frozen-seeded Y_k of each sample run on the leg lists of its
        # self-seeded ones: Y_r and Y_{r+1} of S_r and Y_{r+1} and Y_{r+2} of
        # S_{r+1} of each system are laid out once, 28 layouts where laying
        # out every Y_k of the plan takes 52
        built = []
        column_legs = odeengine._column_legs
        monkeypatch.setattr(odeengine, "_column_legs",
                            lambda *args: built.append(1) or column_legs(*args))
        jobs, cfg, requests = captured_plan(
            monkeypatch, lambda: verify_coalescence(A3, UC3, tau=0.3, eps=0.1))
        assert len(built) == 4 * (1 + GAP_COUNT) == 28
        per = 2 * len(UC3)  # the columns of Y_r and Y_{r+1} of one S_r
        assert len(jobs) == per * len(requests) == per * (2 + 4 * GAP_COUNT)
        for i in range(GAP_COUNT):
            first = per * (2 + 4 * i)  # the self-seeded S_r, S_{r+1}, then the frozen-seeded
            self_seeded = jobs[first : first + 2 * per]
            driven = jobs[first + 2 * per : first + 4 * per]
            assert requests[2 + 4 * i + 2].fs.F is requests[0].fs.F
            assert all(a is b for (_, _, a), (_, _, b) in zip(self_seeded, driven))
        # laid out anew for every Y_k, the plan hands the engine equal jobs
        layout = odeengine.SectorTable.layout

        def fresh(table, *key):
            table.layouts.clear()
            return layout(table, *key)

        built.clear()
        monkeypatch.setattr(odeengine.SectorTable, "layout", fresh)
        unshared = list(sector_plan(cfg, requests).jobs)
        assert len(built) == 2 * len(requests) == 52
        assert_same_jobs(jobs, unshared)

    @pytest.mark.parametrize("A0", [A3, vanishing_family(UC3, 7)[0]], ids=["crit7", "seeded"])
    def test_one_ray_segment_matches_the_waypoints(self, A0):
        # the samples lie on one ray, so the flow from the innermost to the
        # outermost over the one segment ends where the flow through every
        # sample does
        v = coalescing_direction(UC3, 0.3)
        gaps = 0.1 * 2.0 ** -np.arange(1, GAP_COUNT + 1)
        samples = [UC3 + g * v for g in gaps]
        start = IrregularSystem(u=samples[-1],
                                A=eval_ray_family(ray_family_series(A0, UC3, v, 6), gaps[-1]))
        line, _ = integrate_flow(start, UPath.line(samples[-1], samples[0]), guard=0.0)
        waypoints, _ = integrate_flow(start, UPath(tuple(samples[::-1])), guard=0.0)
        assert np.max(np.abs(line.A)) > 0.1
        assert np.max(np.abs(line.A - waypoints.A)) <= 1e-14

    def test_validation_flow_takes_six_steps_at_most(self, monkeypatch):
        # the validation flow runs one segment, whose steps grow away from
        # the collision at s = 0 (a stop at every sample cuts them short, to
        # 10 steps)
        steps = []
        sweeps = isoflow._sweeps
        monkeypatch.setattr(isoflow, "_sweeps", lambda *args: steps.append(1) or sweeps(*args))
        rep = verify_coalescence(A3, UC3, tau=0.3, eps=0.1)
        assert rep.flow_vs_germ < 1e-13
        assert 0 < len(steps) <= 6

    @pytest.mark.parametrize("eps", [1e-5, 1e-6])
    def test_gaps_below_the_flow_guard(self, eps):
        # every sample gap lies below the flow's default guard of 1e-6; the
        # validation flow runs one segment along the ray, out from the
        # innermost sample, and its step floor and steps scale with the gaps
        # at its ends, so its steps are long in t although short next to
        # that guard
        rep = verify_coalescence(A3, UC3, tau=0.3, eps=eps)
        assert rep.gaps[0] == eps / 2 and rep.flow_vs_germ < 1e-15
        assert rep.verdict

    def test_entries_within_the_grouping_tolerance_coalesce(self):
        # u^C entries 1e-13 apart coalesce for every step (the eps bound and
        # the direction too): the report is that of the exact coalescence
        near = verify_coalescence(A3, [0.0, 1e-13, 1.0], tau=0.3, eps=0.1)
        exact = verify_coalescence(A3, UC3, tau=0.3, eps=0.1)
        assert near.verdict and exact.verdict and near.pairs == exact.pairs == ((0, 1),)
        assert np.array_equal(near.uC, UC3) and np.array_equal(near.direction, exact.direction)
        assert near.S_frozen.tobytes() == exact.S_frozen.tobytes()
        assert np.array_equal(near.limit_errors, exact.limit_errors)
