import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_solvers import (
    column_ode,
    column_seed_directions_grid,
    column_seed_directions_reference,
    leakage_reference,
    optimal_truncation_reference,
    poly_fuchsian_ode,
    schedule_reference,
    sector_bounds_reference,
    sector_results_reference,
    seed_objective,
    subclass_rays,
)
from scipy.integrate import solve_ivp

from isomlab import odeengine
from isomlab.errors import IntegrationError
from isomlab.formal import FormalSolution, IrregularSystem, compute_formal_coefficients
from isomlab.fuchsian import FuchsianSystem, monodromy_plan
from isomlab.geometry import SectorFrame, sector_frames
from isomlab.levelt import build_levelt_solution
from isomlab.odeengine import (
    Inverted,
    Leg,
    PathPoint,
    SectorRequest,
    SectorTable,
    SolutionHandle,
    StokesConfig,
    actual_solution,
    fuchsian_ode,
    integrate_path,
    irregular_ode,
    levelt_handle,
    monodromy_loop,
    run_plan,
    sector_plan,
    stokes_matrix,
    transport_matrix,
)

GENERIC_A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)


def generic_system():
    return IrregularSystem(u=[0.0, 1.0], A=GENERIC_A)


def seeded_system(seed, n):
    """u near a regular n-gon of radius 0.7, A at 0.4, both drawn from `seed`."""
    rng = np.random.default_rng(seed)
    u = 0.7 * np.exp(2j * np.pi * np.arange(n) / n + 0.3j * rng.normal(size=n))
    return IrregularSystem(u=u, A=0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))))


def connection(sys, r, ld, cfg, fs):
    """C_r, with Y_r = Y^(0) C_r, of one Stokes request that carries `ld`."""
    return run_plan(sector_plan(cfg, [SectorRequest(sys, r, fs, ld=ld)]), cfg.tol)[0].C


def connection_at(sys, r, ld, cfg, fs, zstar):
    """C_r at `zstar`, on the ray of the z* of Y_r, from the public pieces:
    Y_r carried radially to it from its z*, unless it is there, against
    Y^(0), carried radially out to it from where levelt_handle evaluates it."""
    Y = actual_solution(sys, r, cfg.tau, fs, tol=cfg.tol)
    if zstar.z != Y.point.z:
        Y = integrate_path(Y, [Leg(Y.point.z, zstar.z)], tol=cfg.tol)
    lev = levelt_handle(sys, ld, zstar, cfg.tol)
    Y0 = integrate_path(lev, [Leg(lev.point.z, zstar.z)], tol=cfg.tol)
    return np.linalg.solve(Y0.value, Y.value)


def step_count(ode, legs) -> int:
    """The Taylor steps of one transport of `ode` along `legs`."""
    return len(odeengine._schedule([ode], [0] * len(legs), legs,
                                   [(0, seg) for seg in range(len(legs))])[0])


def sector_frame(u, tau, r):
    """The frame of the one sector r of u."""
    return sector_frames([u], tau, (r,))[0][0]


# sector frames as (system, config, formal series): the plain frames of
# GENERIC_A, and the widened frames of the criterion-7 frozen system at its
# coalescence point, seeded with its coalescence-aware series
CRIT7_UC = np.array([0.0, 0.0, 1.0], dtype=complex)
CRIT7_A0 = np.array([[0.10, 0.00, 0.06], [0.00, 0.10, 0.09], [0.075, -0.05, 0.45]])
CRIT7_FROZEN = IrregularSystem(u=CRIT7_UC, A=CRIT7_A0)
FRAME_CASES = [
    (generic_system(), StokesConfig(tau=0.3), compute_formal_coefficients(generic_system(), K=32)),
    (CRIT7_FROZEN, StokesConfig(tau=0.3, uC=CRIT7_UC),
     compute_formal_coefficients(CRIT7_FROZEN, K=32, coalesce_tol=1e-9)),
]
FRAMES = pytest.mark.parametrize("sys, cfg, fs", FRAME_CASES, ids=["generic", "widened"])


class TestIntegratePath:
    def test_pure_exponential(self):
        sys = IrregularSystem(u=[0.0, 1.0], A=np.zeros((2, 2)))
        a = PathPoint(1.0 + 0.0j, 0.0)
        h = SolutionHandle(system=sys, point=a, value=np.eye(2))
        got = integrate_path(h, [Leg(1.0 + 0.0j, 2.0 + 0.0j)], tol=1e-12)
        # d/dz Y = (Lambda + 0/z) Y has solution scaled by e^{(z2-z1) Lambda};
        # the z^0 power from the zero residue is trivial
        expect = np.diag(np.exp((2.0 - 1.0) * sys.u))
        assert np.max(np.abs(got.value - expect)) < 1e-10
        assert got.wronskian_drift < 1e-9

    def test_contractible_loop(self):
        sys = generic_system()
        a = PathPoint(3.0 + 0.0j, 0.0)
        h = SolutionHandle(system=sys, point=a, value=np.eye(2))
        square = [3.0 + 0.0j, 3.0 + 1.0j, 4.0 + 1.0j, 4.0 + 0.0j, 3.0 + 0.0j]
        path = [Leg(p, q) for p, q in zip(square[:-1], square[1:])]
        got = integrate_path(h, path, tol=1e-12)
        assert np.max(np.abs(got.value - np.eye(2))) < 1e-10
        assert got.point.z == a.z and abs(got.point.arg) < 1e-15

    def test_power_solution_loop(self):
        sys = IrregularSystem(u=[0.0, 0.0], A=np.diag([0.5, 0.0]))
        a = PathPoint(1.0 + 0.0j, 0.0)
        h = SolutionHandle(system=sys, point=a, value=np.eye(2))
        M = monodromy_loop(h, tol=1e-12)
        assert np.max(np.abs(M - np.diag([-1.0, 1.0]))) < 1e-10

    def test_off_basepoint_rejected(self):
        sys = generic_system()
        h = SolutionHandle(system=sys, point=PathPoint(1.0 + 0.0j, 0.0), value=np.eye(2))
        with pytest.raises(ValueError, match="basepoint"):
            integrate_path(h, [Leg(1.0 + 0.1j, 2.0 + 0.0j)])

    def test_arc_about_nonzero_centre_rejected(self):
        sys = generic_system()
        h = SolutionHandle(system=sys, point=PathPoint(1.0 + 0.0j, 0.0), value=np.eye(2))
        with pytest.raises(ValueError, match="not about 0"):
            integrate_path(h, [Leg(1.0 + 0j, 1.0 + 0j, center=2.0 + 0j, sweep=math.pi)])

    def test_legs_that_do_not_join_rejected(self):
        sys = generic_system()
        h = SolutionHandle(system=sys, point=PathPoint(1.0 + 0.0j, 0.0), value=np.eye(2))
        with pytest.raises(ValueError, match="leg 1 does not start where leg 0 ends"):
            integrate_path(h, [Leg(1.0 + 0j, 2.0 + 0j), Leg(2.0 + 1e-6j, 3.0 + 0j)])

    def test_double_winding_is_the_square(self):
        sys = generic_system()
        h = SolutionHandle(system=sys, point=PathPoint(0.8 + 0.3j, math.atan2(0.3, 0.8)),
                           value=np.eye(2))
        M = monodromy_loop(h, tol=1e-12)
        # two turns in one arc
        twice = integrate_path(h, [Leg(h.point.z, h.point.z, center=0j, sweep=4 * math.pi)],
                               tol=1e-12)
        M2 = np.linalg.solve(h.value, twice.value)
        assert np.max(np.abs(M2 - M @ M)) < 1e-10

    def test_wronskian_drift_tracked(self):
        rng = np.random.default_rng(4)
        sys = IrregularSystem(
            u=rng.normal(size=3) + 1j * rng.normal(size=3) * 0.2,
            A=rng.normal(size=(3, 3)),
        )
        a = PathPoint(2.0 + 0.0j, 0.0)
        h = SolutionHandle(system=sys, point=a, value=np.eye(3))
        got = integrate_path(h, [Leg(2.0 + 0.0j, 2.0 * np.exp(1.1j), center=0j, sweep=1.1)],
                             tol=1e-12)
        assert got.wronskian_drift < 1e-9


class TestTaylorEngine:
    def test_scalar_power_exponential_beyond_one_turn(self):
        # y' = (u + a/z) y has y = z^a e^{uz}; the path winds 1.3 times, so
        # the answer depends on the arg carried along it
        u, a = 0.7 - 0.3j, 0.35 + 0.2j
        sys = IrregularSystem(u=[u], A=[[a]])
        p0 = PathPoint(2.0 + 0.0j, 0.0)
        turn = 2 * math.pi * 1.3
        e = np.exp(1j * turn)
        path = [Leg(2.0 + 0j, 1.0 + 0j), Leg(1.0 + 0j, e, center=0j, sweep=turn), Leg(e, 3.0 * e)]
        h = SolutionHandle(system=sys, point=p0, value=np.eye(1))
        got = integrate_path(h, path, tol=1e-12)
        end = got.point
        assert abs(end.arg - turn) < 1e-12 and abs(end.z - 3.0 * e) < 1e-15
        w1 = math.log(end.radius) + 1j * end.arg
        expect = np.exp(a * (w1 - math.log(2.0)) + u * (end.z - p0.z))
        assert abs(got.value[0, 0] / expect - 1.0) < 1e-11
        assert got.wronskian_drift < 1e-11

    def test_against_dop853(self):
        # the engine against an independent integrator on a non-diagonal
        # system, along a two-segment path away from the pole
        sys = generic_system()
        corners = [1.5 + 0.0j, 2.5 + 1.0j, 0.8 + 1.6j]
        ref = np.eye(2, dtype=complex)
        h = SolutionHandle(system=sys, point=PathPoint(corners[0], 0.0), value=ref)
        for za, zb in zip(corners[:-1], corners[1:]):

            def f(t, y, za=za, zb=zb):
                z = za + t * (zb - za)
                return ((zb - za) * ((sys.Lambda + sys.A / z) @ y.reshape(2, 2))).ravel()

            sol = solve_ivp(f, (0.0, 1.0), ref.ravel(), method="DOP853",
                            rtol=1e-13, atol=1e-13)
            ref = sol.y[:, -1].reshape(2, 2)
            h = integrate_path(h, [Leg(za, zb)], tol=1e-12)
        assert np.max(np.abs(h.value - ref)) < 1e-11 * np.max(np.abs(ref))
        assert h.wronskian_drift < 1e-11


class TestSlotStructure:
    """Slot 0 of a step matrix is Q's leading coefficient times h^(d+1) / p_0,
    constant in k; the term loop takes it out of the window product when no
    ODE of the batch has an off-diagonal entry there."""

    def test_leading_coefficient_zero_or_diagonal(self):
        # zero in every fuchsian_ode, the infinity frame's included, and
        # diagonal in every irregular_ode
        rng = np.random.default_rng(33)
        for N, n in [(1, 2), (2, 2), (3, 3), (4, 2), (5, 3)]:
            poles = rng.normal(size=N) + 1j * rng.normal(size=N)
            residues = [0.4 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                        for _ in range(N - 1)]
            residues.append(-sum(residues, np.zeros((n, n))))
            jobs = monodromy_plan(FuchsianSystem(poles=poles, residues=tuple(residues))).jobs
            assert len(jobs) == N + 1  # the loops and the infinity frame
            for ode, _, _ in jobs:
                assert len(ode.Q) == len(ode.P) and not ode.Q[-1].any()
        for n in range(2, 6):
            sys = seeded_system(40 + n, n)
            lead = irregular_ode(sys, complex(np.mean(sys.u))).Q[-1]
            assert np.array_equal(lead, np.diag(np.diag(lead))) and np.diag(lead).any()

    @pytest.mark.parametrize("kind", ["irregular", "fuchsian"])
    def test_slot_zero_is_the_scaled_leading_coefficient(self, kind):
        rng = np.random.default_rng(35)
        if kind == "irregular":
            ode = irregular_ode(seeded_system(7, 3), 0.2 - 0.1j)
        else:
            A1, A2 = 0.3 * (rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3)))
            ode = fuchsian_ode([0.0, 1.0, 0.5j], [A1, A2, -A1 - A2])
        m, n, B = len(ode.P), ode.Q.shape[1], 6
        x0 = 3.0 * np.exp(2j * np.pi * rng.random(B))
        h = 0.1 * (rng.normal(size=B) + 1j * rng.normal(size=B))
        binom, idx = odeengine._shift_tables(m)
        M, slope = odeengine._step_matrix(
            np.repeat(ode.P[:, None], B, axis=1), np.repeat(ode.Q[..., None], B, axis=3),
            x0, h, binom, idx, np.arange(m)[:, None])
        p0 = np.polyval(ode.P[::-1], x0)
        want = ode.Q[-1][..., None] * (h ** m / p0)
        # exact zeros stay exact: rtol alone, no atol
        assert np.allclose(M[:, :n], want, rtol=1e-13, atol=0.0)
        assert not slope[0].any()

    def test_offdiagonal_leading_coefficient_against_dop853(self):
        # (1 + 0.2 z) Y' = (Q_0 + Q_1 z) Y with a full Q_1 keeps slot 0 in the
        # product, alone and in a batch with an irregular and a Fuchsian ODE,
        # whose transports must not move
        rng = np.random.default_rng(36)
        Q = 0.3 * (rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
        assert Q[1, 0, 1] != 0 and Q[1, 1, 0] != 0
        ode = odeengine.LinearODE(center=0j, P=np.array([1.0, 0.2], dtype=complex), Q=Q,
                                  roots=np.array([-5.0 + 0j]))
        corners = [0.5 + 0j, 1.5 + 1.0j, -0.5 + 1.5j]
        legs = [Leg(za, zb) for za, zb in zip(corners[:-1], corners[1:])]
        ref = np.eye(2, dtype=complex)
        for za, zb in zip(corners[:-1], corners[1:]):

            def f(t, y, za=za, zb=zb):
                z = za + t * (zb - za)
                return ((zb - za) * ((Q[0] + Q[1] * z) / (1.0 + 0.2 * z)) @ y.reshape(2, 2)).ravel()

            ref = solve_ivp(f, (0.0, 1.0), ref.ravel(), method="DOP853",
                            rtol=1e-13, atol=1e-13).y[:, -1].reshape(2, 2)
        others = TestBatchedEngine.mixed_jobs()[3:5]
        batch = transport_matrix(*zip(*([(ode, np.eye(2, dtype=complex), legs)] + others)),
                                 tol=1e-12)
        for got in (transport_matrix(ode, np.eye(2, dtype=complex), legs, tol=1e-12), batch[0]):
            assert np.max(np.abs(got - ref)) < 1e-11 * np.max(np.abs(ref))
        for job, got in zip(others, batch[1:]):
            alone = transport_matrix(*job, tol=1e-12)
            assert np.max(np.abs(got - alone)) < 1e-12 * np.max(np.abs(alone))


class TestBatchedEngine:
    @staticmethod
    def mixed_jobs():
        """Gauged 3x3 irregular columns with different shifts, legs and step
        counts, a full-matrix irregular arc, and 2x2 Fuchsian loops."""
        rng = np.random.default_rng(8)
        sys = IrregularSystem(
            u=[0.0, 1.0, 0.4 + 0.8j],
            A=0.4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))),
        )
        cols = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = np.diag(sys.A)
        # the arc from arg 0.3 to 2.1 in two sweeps
        args = [0.3, 0.3 + 0.9, 0.3 + 1.8]
        ends = [PathPoint.from_polar(2.0, t).z for t in args]
        arc = [Leg(ends[k], ends[k + 1], center=0j, sweep=args[k + 1] - args[k])
               for k in range(2)]
        jobs = [
            (column_ode(sys, sys.u[0], b[0]), cols[0],
             [Leg(12.0 + 0j, 2.0 + 0j), Leg(2.0 + 0j, 2j, center=0j, sweep=math.pi / 2)]),
            (column_ode(sys, sys.u[1], b[1]), cols[1], [Leg(8.0 + 1j, 1.5 - 0.5j)]),
            (column_ode(sys, sys.u[2], b[2]), cols[2],
             [Leg(-6.0 + 2j, -1.0 + 0.5j), Leg(-1.0 + 0.5j, 1.0 + 1j)]),
            (irregular_ode(sys), np.eye(3, dtype=complex), arc),
        ]
        A1 = 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        A2 = 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        ode = fuchsian_ode([0.0, 1.0, 0.5j], [A1, A2, -A1 - A2])
        for pole in (0.0, 1.0):
            loop = [Leg(0.5 - 1j, pole - 0.25j),
                    Leg(pole - 0.25j, pole - 0.25j, center=pole, sweep=2 * math.pi),
                    Leg(pole - 0.25j, 0.5 - 1j)]
            jobs.append((ode, np.eye(2, dtype=complex), loop))
        return jobs

    def test_mixed_batch_matches_separate_transports(self):
        jobs = self.mixed_jobs()
        batch = transport_matrix(*zip(*jobs), tol=1e-12)
        for job, got in zip(jobs, batch):
            alone = transport_matrix(*job, tol=1e-12)
            ref = transport_matrix(*job, tol=1e-14)
            assert got.shape == np.shape(job[1])
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - alone)) < 1e-12 * scale
            assert np.max(np.abs(got - ref)) < 1e-12 * scale

    def test_member_into_a_pole_is_named(self):
        jobs = self.mixed_jobs()
        # transport 2 now crosses the origin on its second segment
        ode, col, _ = jobs[2]
        jobs[2] = (ode, col, [Leg(-6.0 + 2j, -1.0 + 0j), Leg(-1.0 + 0j, 1.0 + 0j)])
        t0 = time.perf_counter()
        with pytest.raises(
            IntegrationError, match=r"transport 2, segment 1 .* singular point 0\+0j"
        ):
            transport_matrix(*zip(*jobs))
        assert time.perf_counter() - t0 < 1.0

    @staticmethod
    def short_and_long_jobs():
        """A 1-step transport and one of about 400 steps (15 turns about the
        origin), next to a gauged column and a Fuchsian loop."""
        sys = generic_system()
        ode = irregular_ode(sys)
        # 15 turns of radius 0.5 as 60 quarter-turn arcs, each a distinct leg
        args = [2 * math.pi * 15 * k / 60 for k in range(61)]
        ends = [PathPoint.from_polar(0.5, t).z for t in args]
        turns = [Leg(ends[k], ends[k + 1], center=0j, sweep=args[k + 1] - args[k])
                 for k in range(60)]
        jobs = TestBatchedEngine.mixed_jobs()[1::4] + [
            (ode, np.eye(2, dtype=complex), [Leg(2.0 + 0j, 2.3 + 0.1j)]),
            (ode, np.eye(2, dtype=complex), turns),
        ]
        steps = [step_count(o, lg) for o, _, lg in jobs]
        assert steps[-2] == 1 and 400 <= steps[-1] <= 450
        return jobs

    def test_one_step_and_long_transports_in_one_batch(self):
        jobs = self.short_and_long_jobs()
        batch = transport_matrix(*zip(*jobs), tol=1e-12)
        for job, got in zip(jobs, batch):
            alone = transport_matrix(*job, tol=1e-12)
            ref = transport_matrix(*job, tol=1e-14)
            assert got.shape == np.shape(job[1])
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - alone)) < 1e-12 * scale
            assert np.max(np.abs(got - ref)) < 1e-12 * scale

    def test_chunks_split_a_step_index(self, monkeypatch):
        # chunks of 7 steps end inside the steps of one step index
        jobs = self.short_and_long_jobs()
        whole = transport_matrix(*zip(*jobs), tol=1e-12)
        monkeypatch.setattr(odeengine, "STEP_CHUNK", 7)
        for got, ref in zip(transport_matrix(*zip(*jobs), tol=1e-12), whole):
            assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_term_loop_passes_do_not_grow_with_steps(self, monkeypatch):
        passes, chunks = [], []
        sum_squares, step_matrix = odeengine._sum_squares, odeengine._step_matrix

        def counted_pass(c):
            passes.append(1)
            return sum_squares(c)

        def counted_chunk(*args):
            chunks.append(1)
            return step_matrix(*args)

        monkeypatch.setattr(odeengine, "_sum_squares", counted_pass)
        monkeypatch.setattr(odeengine, "_step_matrix", counted_chunk)
        jobs = self.short_and_long_jobs()
        counts = []
        for batch in (jobs[-2:-1], jobs):
            passes.clear()
            chunks.clear()
            transport_matrix(*zip(*batch), tol=1e-12)
            counts.append((len(passes), len(chunks)))
        (one_step, _), (all_steps, nchunks) = counts
        # one pass per series term: the ~470 steps of the batch take about
        # as many passes as its one-step transport alone, not ~20 per step
        assert nchunks == 1
        assert all_steps <= 2 * one_step

    def test_coalescence_batch_memory(self, monkeypatch):
        # the batch of one verify_coalescence call: ~160 transports, ~3000 steps
        from isomlab.verify import verify_coalescence

        batches = []

        def captured(*args):
            batches.append(args)
            return transport_matrix(*args)

        monkeypatch.setattr(odeengine, "transport_matrix", captured)
        A0 = np.array([[0.10, 0.00, 0.06], [0.00, 0.10, 0.09], [0.075, -0.05, 0.45]])
        verify_coalescence(A0, [0.0, 0.0, 1.0], tau=0.3, eps=0.1)
        (odes, Y0s, legs, tol), = batches
        steps = sum(step_count(o, lg) for o, lg in zip(odes, legs))
        assert len(odes) > 100 and steps > 2000
        tracemalloc.start()
        try:
            transport_matrix(odes, Y0s, legs, tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6


class TestDistinctLegs:
    @staticmethod
    def shared_jobs():
        """Gauged 3x3 columns with a common radial leg and different arcs
        (one ODE built twice, equal in value), next to Fuchsian loops, two of
        them around the same pole."""
        rng = np.random.default_rng(21)
        sys = IrregularSystem(
            u=[0.0, 1.0, 0.4 + 0.8j],
            A=0.4 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))),
        )
        b = np.diag(sys.A)
        col = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        radial = Leg(12.0 + 0j, 3.0 + 0j)

        def arc(turn):
            return Leg(3.0 + 0j, 3.0 * np.exp(1j * turn), center=0j, sweep=turn)

        out = Leg(3.0 * np.exp(0.8j), 7.0 * np.exp(0.8j))
        gauged = [column_ode(sys, sys.u[j], b[j]) for j in (0, 1, 0)]
        A1 = 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        A2 = 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        fuchs = fuchsian_ode([0.0, 1.0, 0.5j], [A1, A2, -A1 - A2])

        def loop(pole):
            return [Leg(0.5 - 1j, pole - 0.25j),
                    Leg(pole - 0.25j, pole - 0.25j, center=pole, sweep=2 * math.pi),
                    Leg(pole - 0.25j, 0.5 - 1j)]

        eye = np.eye(2, dtype=complex)
        return [
            (gauged[0], col[0], [radial, arc(0.8), out]),
            (gauged[0], col[1], [radial, arc(-0.6)]),
            (gauged[1], col[2], [radial, arc(0.8)]),
            (gauged[2], col[:, :2], [radial, arc(0.8)]),
            (fuchs, eye, loop(0.0)),
            (fuchs, 2 * eye, loop(1.0)),
            (fuchs, eye[:, 0], loop(0.0)),
        ]

    def test_matches_separate_transports(self):
        jobs = self.shared_jobs()
        batch = transport_matrix(*zip(*jobs), tol=1e-12)
        for job, got in zip(jobs, batch):
            alone = transport_matrix(*job, tol=1e-12)
            ref = transport_matrix(*job, tol=1e-14)
            assert got.shape == np.shape(job[1])
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(got - alone)) < 1e-12 * scale
            assert np.max(np.abs(got - ref)) < 1e-12 * scale

    def test_each_distinct_leg_summed_once(self, monkeypatch):
        jobs = self.shared_jobs()
        distinct = {(o.P.tobytes(), o.Q.tobytes(), leg): (o, leg)
                    for o, _, path in jobs for leg in path}
        # repeats: the radial leg of gauged[0] (built twice) twice, its
        # arc(0.8) once, and the three legs of the loop around pole 0
        assert len(distinct) == sum(len(path) for _, _, path in jobs) - 6
        expected = sum(step_count(o, [leg]) for o, leg in distinct.values())
        summed = []
        step_matrix = odeengine._step_matrix

        def counted(P, Q, x0, h, *args):
            summed.append(len(h))
            return step_matrix(P, Q, x0, h, *args)

        monkeypatch.setattr(odeengine, "_step_matrix", counted)
        transport_matrix(*zip(*jobs), tol=1e-12)
        assert sum(summed) == expected

    def test_refusal_on_a_shared_leg_is_named(self):
        jobs = self.shared_jobs()
        # transports 1 and 3 share a leg through the origin, transport 1
        # at its second segment
        through = Leg(-3.0 + 0j, 3.0 + 0j)
        ode, col, path = jobs[1]
        jobs[1] = (ode, col, [path[0], through])
        ode, col, path = jobs[3]
        jobs[3] = (ode, col, [through])
        with pytest.raises(
            IntegrationError, match=r"transport 1, segment 1 .* singular point 0\+0j"
        ):
            transport_matrix(*zip(*jobs))


class TestScheduleAndCoefficients:
    """The step layout and the Fuchsian coefficients, against the reference
    implementations they must reproduce bit for bit."""

    @pytest.mark.parametrize("kind", ["random", "real", "conjugate-closed"])
    def test_fuchsian_ode_matches_np_poly(self, kind):
        rng = np.random.default_rng(5)
        for N in range(1, 6):
            for _ in range(10):
                if kind == "random":
                    poles = rng.normal(size=N) + 1j * rng.normal(size=N)
                elif kind == "real":
                    poles = rng.normal(size=N)
                else:
                    half = rng.normal(size=N // 2) + 1j * rng.normal(size=N // 2)
                    poles = np.concatenate([half, half.conj(), rng.normal(size=N % 2)])
                    poles = poles[rng.permutation(N)]
                residues = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                            for _ in range(N)]
                ode = fuchsian_ode(poles, residues)
                P, Q = poly_fuchsian_ode(poles, residues)
                assert ode.P.tobytes() == P.tobytes()
                assert ode.Q.tobytes() == Q.tobytes()

    ODES = (
        irregular_ode(generic_system()),
        column_ode(IrregularSystem(u=[0.0, 1.0, 0.4 + 0.8j], A=np.diag([0.2, 0.1, -0.3])),
                   1.0, 0.1),
        fuchsian_ode([0.0, 1.0, 0.5j], [GENERIC_A, -2 * GENERIC_A, GENERIC_A]),
        fuchsian_ode([-1.0, 1.0 + 1j], [GENERIC_A, -GENERIC_A]),
    )
    coordinate = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 2))
    point = st.builds(complex, coordinate, coordinate)
    legs = st.one_of(
        st.builds(Leg, point, point),
        # arcs about the origin and about a pole, up to a full turn
        st.builds(lambda r, th, sw, centre: Leg(
            centre + r * np.exp(1j * th), centre + r * np.exp(1j * (th + sw)),
            center=centre, sweep=sw),
            st.floats(0.05, 3.0), st.floats(-math.pi, math.pi),
            st.floats(-2 * math.pi, 2 * math.pi), st.sampled_from([0j, 1.0 + 0j, 0.5j])),
        # lines through or into a singular point, which are refused
        st.builds(lambda p, q: Leg(p, q), st.sampled_from([-1.0 + 0j, 0.5 - 0.5j]),
                  st.sampled_from([1.0 + 0j, 0j, 1.5 + 1.5j])),
    )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(range(len(ODES))), legs),
                    min_size=1, max_size=8))
    def test_schedule_matches_reference(self, batch):
        args = (self.ODES, np.array([k for k, _ in batch]), [leg for _, leg in batch],
                [(i, 0) for i in range(len(batch))])
        try:
            expected = schedule_reference(*args)
        except IntegrationError as exc:
            with pytest.raises(IntegrationError) as got:
                odeengine._schedule(*args)
            assert str(got.value) == str(exc)
            return
        got = odeengine._schedule(*args)
        for x, y in zip(got, expected):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _random_series(rng, sys, K=12):
    """A FormalSolution of sys with random F_k of factorial growth."""
    F = tuple(math.factorial(k) * 0.4**k * (rng.normal(size=(sys.n, sys.n))
                                             + 1j * rng.normal(size=(sys.n, sys.n)))
              for k in range(1, K + 1))
    return FormalSolution(b=np.diag(sys.A).copy(), u=sys.u, F=F)


def _table_case(rng, n, kind, tau=0.3, count=4, scale=1.0, a_scale=1.0):
    """Systems of dimension n whose frames are plain, widened about a
    coalescing pair, or degenerate (all of u^C coalesced), with the config
    of those frames; tau is at least 1e-3 from every ray that bounds a frame
    drawn.  The entries of u (of u^C when widened) and of A are drawn at
    `scale` and `a_scale`."""
    from isomlab.geometry import _margin

    uC = None
    if kind == "widened":
        while True:
            uC = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
            uC[1] = uC[0]
            if len(set(uC)) == 1 or _margin(tau, subclass_rays(uC, uC)) > 1e-3:
                break
    elif kind == "degenerate":
        uC = np.zeros(n, dtype=complex)
    systems = []
    while len(systems) < count:
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        u = scale * u if uC is None else uC + 0.05 * u
        if _margin(tau, subclass_rays(u, uC if kind == "widened" else None)) > 1e-3:
            A = a_scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            systems.append(IrregularSystem(u=u, A=A))
    cfg = StokesConfig(tau=tau, uC=uC)
    return systems, cfg


class TestSectorTable:
    @pytest.mark.parametrize("kind", ["plain", "widened", "degenerate"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_the_per_frame_computation(self, n, kind):
        # frames, seed directions, leakage and truncations of the table are
        # bit for bit those of one frame, one set of seed candidates and one
        # series at a time on the base sheet, sectors 0 and 1; sector k is
        # sector k mod 2 turned by 2 pi floor(k / 2), which its own
        # computation gives to round-off; two systems share one series,
        # truncated once
        rng = np.random.default_rng(1400 + 10 * n + len(kind))
        systems, cfg = _table_case(rng, n, kind)
        series = [_random_series(rng, s) for s in systems]
        shared = FormalSolution(b=series[0].b, u=systems[1].u, F=series[0].F)
        requests = [SectorRequest(s, r, fs) for s, fs in zip(systems, series) for r in (0, 1)]
        requests += [SectorRequest(systems[1], 2, shared, "sectorial"),
                     SectorRequest(systems[2], -1, series[2], "sectorial")]
        table = SectorTable(cfg, requests)
        assert table.systems == systems
        assert len(table.frames) == len(table.angles) == len(table.leakage) == 3 * len(systems) + 1
        for (s, r), frame in table.frames.items():
            u = systems[s].u
            base = sector_bounds_reference(u, cfg.tau, r % 2, cfg.uC)
            turn = 2 * math.pi * (r // 2)
            assert frame == SectorFrame(lo=base.lo + turn, hi=base.hi + turn)
            want = sector_bounds_reference(u, cfg.tau, r, cfg.uC)
            assert frame.lo == pytest.approx(want.lo, abs=1e-13)
            assert frame.hi == pytest.approx(want.hi, abs=1e-13)
            # the degenerate policy's frame, the half-plane and a quarter turn
            # each side, comes when u^C is all one group: with n = 2 the
            # coalescing pair is all of u^C, degenerate too
            lo_hp, hi_hp = cfg.tau + (r - 2) * math.pi, cfg.tau + (r - 1) * math.pi
            half_plane = (abs(frame.lo - lo_hp + math.pi / 2) < 1e-13
                          and abs(frame.hi - hi_hp - math.pi / 2) < 1e-13)
            assert half_plane == (cfg.uC is not None and len(set(cfg.uC)) == 1)
            angles = column_seed_directions_reference(u, base)
            assert table.angles[s, r].tobytes() == (angles + turn).tobytes()
            assert table.leakage[s, r] == leakage_reference(u, angles, cfg.radius)
        assert len(table.series) == len(table.truncations) == len(systems)
        for fs, F, trunc in zip(series, table.series, table.truncations):
            assert F.tobytes() == np.asarray(fs.F).tobytes()
            assert trunc == optimal_truncation_reference(fs.F, cfg.radius)

    def test_uc_alone_widens_the_frames(self):
        # a config that gives the coalescence point and nothing else widens
        # its frames there: near CRIT7_UC only the rays of the pairs that do
        # not coalesce bound them, so they open wider than the plain frames
        u = CRIT7_UC + np.array([0.02j, -0.02j, 0.0])
        sys = IrregularSystem(u=u, A=CRIT7_A0)
        fs = _random_series(np.random.default_rng(5), sys)
        table = SectorTable(StokesConfig(tau=0.3, uC=CRIT7_UC),
                            [SectorRequest(sys, r, fs) for r in (0, 1)])
        for r in (0, 1, 2):
            frame = table.frames[0, r]
            assert frame == sector_bounds_reference(u, 0.3, r, CRIT7_UC)
            # bounded by rays, not the 2 pi opening of the degenerate policy
            assert abs(frame.hi - frame.lo - 2 * math.pi) > 1e-3
            plain = sector_bounds_reference(u, 0.3, r)
            assert frame.hi - frame.lo > plain.hi - plain.lo + 1.0

    def test_systems_must_share_n(self):
        rng = np.random.default_rng(3)
        two, cfg = _table_case(rng, 2, "plain", count=1)
        three, _ = _table_case(rng, 3, "plain", count=1)
        with pytest.raises(ValueError, match="share n"):
            SectorTable(cfg, [SectorRequest(s, 0, _random_series(rng, s)) for s in two + three])


class TestSeedDirections:
    # u of 2..8 entries, each new, equal to the one before or 1e-3 from it,
    # or all equal; frames of any opening below 4 pi
    coordinate = st.floats(-2.0, 2.0, allow_nan=False)
    entry = st.tuples(st.sampled_from(["new", "equal", "close"]), coordinate, coordinate)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(entry, min_size=2, max_size=8), st.booleans(),
           st.floats(-10.0, 10.0), st.floats(1e-6, 4 * math.pi, exclude_max=True))
    def test_at_least_as_recessive_as_the_grid(self, entries, all_equal, lo, opening):
        u = []
        for kind, x, y in entries:
            step = {"equal": 0.0, "close": 1e-3 * complex(math.cos(x), math.sin(x))}.get(kind)
            u.append(complex(x, y) if step is None or not u else u[-1] + step)
        u = np.array([u[0]] * len(u) if all_equal else u)
        frame = SectorFrame(lo=lo, hi=lo + opening)
        (angles,), _ = odeengine._seed_directions(u[None], np.array([frame.lo]),
                                                  np.array([frame.hi]), 20.0)
        pad = min(0.05, 0.1 * (frame.hi - frame.lo))
        assert np.all((frame.lo + pad <= angles) & (angles <= frame.hi - pad))
        # the closed form takes the best of the candidates, among them the
        # maximum, so it is below no grid point beyond rounding
        got, grid = (seed_objective(u, a) for a in (angles, column_seed_directions_grid(u, frame)))
        assert np.all(got >= grid - 1e-12 * (1.0 + np.abs(u).max()))


def stepped(leg):
    """The leg that the engine steps for `leg`: its forward leg if it is
    Inverted, else the leg itself."""
    return leg.forward if isinstance(leg, Inverted) else leg


def arc_intervals(legs):
    """The angles that each arc of `legs` covers, [start, end) mod 2 pi with
    start in [0, 2 pi); every arc must run counterclockwise."""
    out = []
    for leg in legs:
        if leg.center is not None:
            assert leg.sweep > 0, leg
            start = math.atan2(leg.a.imag, leg.a.real) % (2 * math.pi)
            out.append((start, start + leg.sweep))
    return out


def assert_covered_at_most_once(intervals):
    """No angle mod 2 pi lies in two of `intervals` (up to the merge of stops)."""
    intervals = sorted(intervals)
    if intervals:
        starts = [start for start, _ in intervals[1:]] + [intervals[0][0] + 2 * math.pi]
        for (_, end), start in zip(intervals, starts):
            assert end <= start + 1e-11


class TestColumnLegs:
    def test_sweeps_cut_at_the_seed_angles(self):
        # z* first, then seeds on both sides of arg z*, two at one angle, one
        # within CUT_TOL of another and one a turn below a third: each path
        # runs from its seed to z* on the circle by the sweep of its own
        # angle, and the arcs that the engine steps for all paths run
        # counterclockwise and cover each angle once
        zstar = PathPoint.from_polar(4.0, 0.7)
        angles = [0.1, 1.9, 0.5, 1.2, 0.5, -0.4, 1.2 + 1e-13, 0.1 - 2 * math.pi]
        circle = odeengine._Circle(4.0, [zstar.arg, *angles])
        assert circle.turn == 6  # 0.7, 0.1, 1.9, 0.5, 1.2 and -0.4
        end, places = circle.place[0], circle.place[1:]
        assert circle.point[end % circle.turn] == zstar.z
        seeds = [odeengine._polar(20.0, circle.angle[p % circle.turn]) for p in places]
        paths = odeengine._column_legs(seeds, places, end, circle)
        for theta, seed, path in zip(angles, seeds, paths):
            assert path[0].a == seed and abs(seed - odeengine._polar(20.0, theta)) < 1e-11
            assert all(a.b == b.a for a, b in zip(path[:-1], path[1:]))
            assert path[-1].b == zstar.z
            assert sum(leg.sweep for leg in path) == pytest.approx(0.7 - theta, abs=1e-12)
        # the full turn of the column a turn below 0.1 steps every arc; the
        # columns at 1.9 and 1.2 run back to 0.7 over two of them, inverted
        arcs = {stepped(leg) for path in paths for leg in path if leg.center is not None}
        assert len(arcs) == 6
        covered = arc_intervals(arcs)
        assert sum(b - a for a, b in covered) == pytest.approx(2 * math.pi, abs=1e-12)
        assert_covered_at_most_once(covered)
        inverted = {leg for path in paths for leg in path if isinstance(leg, Inverted)}
        assert sum(leg.sweep for leg in inverted) == pytest.approx(0.7 - 1.9, abs=1e-12)

    def test_stops_merge_across_the_turn(self):
        # a stop just below 2 pi mod 2 pi is the stop at 0, on its own turn:
        # two stops, and a full turn runs over two arcs of positive sweep
        circle = odeengine._Circle(4.0, [0.0, -1e-13, 3.0, 2 * math.pi - 1e-13])
        assert circle.turn == 2 and circle.place == [0, 0, 1, 2]
        arcs = circle.arcs(0, 2)
        assert [leg.b for leg in arcs] == [circle.point[1], circle.point[0]]
        assert all(leg.sweep > 0 for leg in arcs)
        assert sum(leg.sweep for leg in arcs) == pytest.approx(2 * math.pi, abs=1e-15)

    @FRAMES
    def test_one_circle_per_system(self, sys, cfg, fs):
        # across the requests of a plan, on several sheets and both sides of
        # the base sheet, with and without Levelt data, and two systems: each
        # column runs from its seed to z* by the sweep of its seed angle, and
        # the arcs that the engine steps for each system cover each angle of
        # its circle at most once, whichever way its columns run
        other = IrregularSystem(u=sys.u * 1.3, A=sys.A * 0.8)
        other_fs = compute_formal_coefficients(other, K=30, coalesce_tol=1e-9)
        ld = build_levelt_solution(sys.A, [sys.Lambda], K=20)
        requests = [SectorRequest(sys, r, fs) for r in (-1, 0, 1, 2, 3)]
        requests += [SectorRequest(sys, 0, fs, ld=ld), SectorRequest(sys, 1, fs, "sectorial"),
                     SectorRequest(other, 0, other_fs), SectorRequest(other, 2, other_fs)]
        plan = sector_plan(cfg, requests)
        table = SectorTable(cfg, requests)
        job = 0
        for q in requests:
            s = table.system_index[id(q.sys)]
            zstar, _ = table.zstar(s, q)
            for k in q.sectors:
                for theta in table.angles[s, k].tolist():
                    _, _, path = plan.jobs[job]
                    assert abs(path[0].a - odeengine._polar(cfg.radius, theta)) < 1e-11
                    assert all(a.b == b.a for a, b in zip(path[:-1], path[1:]))
                    assert path[-1].b == zstar.z
                    assert sum(leg.sweep for leg in path) == pytest.approx(
                        zstar.arg - theta, abs=1e-11)
                    job += 1
            job += q.ld is not None
        assert job == len(plan.jobs)
        for ode in {id(o): o for o, _, _ in plan.jobs}.values():
            arcs = {stepped(leg) for o, _, path in plan.jobs if o is ode for leg in path}
            assert_covered_at_most_once(arc_intervals(arcs))

    @FRAMES
    def test_no_stepped_arc_runs_clockwise(self, sys, cfg, fs):
        # a column that sweeps clockwise runs the arcs as Inverted legs, so
        # every (ODE, leg) pair that the engine steps for a plan of sectors
        # -1..2 runs counterclockwise, and some columns do run clockwise
        requests = [SectorRequest(sys, r, fs) for r in (-1, 0, 1, 2)]
        paths = [path for _, _, path in sector_plan(cfg, requests).jobs]
        legs = [leg for path in paths for leg in path]
        assert all(stepped(leg).sweep > 0 for leg in legs if leg.center is not None)
        assert all(isinstance(leg, Inverted) == (leg.sweep < 0) for leg in legs)
        assert any(isinstance(leg, Inverted) for leg in legs)

    @FRAMES
    def test_no_leg_shorter_than_the_stop_tolerance(self, sys, cfg, fs):
        # a seed angle at arg z* up to round-off (the frozen system seeds
        # columns on the ray of z*) makes no arc: stops closer than CUT_TOL
        # are one stop
        ld = build_levelt_solution(sys.A, [sys.Lambda], K=20)
        requests = [SectorRequest(sys, r, fs, ld=ld) for r in (0, 1)]
        requests += [SectorRequest(sys, 2, fs), SectorRequest(sys, 0, fs, "sectorial")]
        legs = {stepped(leg) for _, _, path in sector_plan(cfg, requests).jobs for leg in path}
        for leg in legs:
            assert (leg.length if leg.center is None else abs(leg.sweep)) >= 1e-12


class TestInvertedArcs:
    @pytest.mark.parametrize("case", ["generic", "widened", "seeded-plain", "seeded-widened"])
    def test_matches_the_clockwise_transport(self, case):
        # the columns of a plan that sweep clockwise over their circle's
        # arcs, which the engine runs as inverted counterclockwise arcs,
        # match the same columns stepped clockwise directly
        if case.startswith("seeded"):
            rng = np.random.default_rng(2300 + len(case))
            (sys,), cfg = _table_case(rng, 3, case[7:], count=1, scale=0.5, a_scale=0.4)
            fs = compute_formal_coefficients(sys, K=30)
        else:
            sys, cfg, fs = FRAME_CASES[case == "widened"]
        requests = [SectorRequest(sys, r, fs) for r in (-1, 0, 1, 2)]
        jobs = [job for job in sector_plan(cfg, requests).jobs
                if any(isinstance(leg, Inverted) for leg in job[2])]
        assert jobs
        odes, seeds, paths = zip(*jobs)
        direct = [[Leg(leg.a, leg.b, leg.center, leg.sweep) for leg in path] for path in paths]
        got = transport_matrix(odes, seeds, paths, cfg.tol)
        want = transport_matrix(odes, seeds, direct, cfg.tol)
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w) <= 1e-11 * np.linalg.norm(w)


class TestSectorPlanOracle:
    @pytest.mark.parametrize("kind", ["plain", "widened", "degenerate"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_per_column_plan(self, n, kind):
        # one ODE per system, cut sweeps and the scalars that take each
        # column to its own gauge give what each column on its own ODE and
        # uncut sweep gives from the same seeds; u spreads as far as unit
        # scale, where the e^{R |u_i - u_j|} gradings at R = 20 leave S, Y
        # and C conditioned well enough for a 1e-10 comparison
        rng = np.random.default_rng(1800 + 10 * n + len(kind))
        systems, cfg = _table_case(rng, n, kind, count=2, scale=0.3, a_scale=0.2)
        series = [_random_series(rng, s) for s in systems]
        ld = build_levelt_solution(systems[0].A, [systems[0].Lambda], K=25)
        requests = [SectorRequest(s, 0, fs) for s, fs in zip(systems, series)]
        requests += [SectorRequest(systems[1], 1, series[1], "sectorial"),
                     SectorRequest(systems[0], 0, series[0], ld=ld)]
        got = run_plan(sector_plan(cfg, requests), cfg.tol)
        for q, res, want in zip(requests, got, sector_results_reference(cfg, requests)):
            # S and C of a Stokes request (C None without Levelt data), Y_r
            # of a sectorial one
            pairs = zip([res.S, res.C], want) if q.kind == "stokes" else [(res.value, want)]
            for value, expected in pairs:
                assert (value is None) == (expected is None)
                if expected is not None:
                    assert np.linalg.norm(value - expected, 2) <= (
                        1e-10 * np.linalg.norm(expected, 2)), q.kind


class TestSectorRequest:
    def test_sectorial_request_refuses_levelt_data(self):
        sys = generic_system()
        fs = compute_formal_coefficients(sys, K=30)
        ld = build_levelt_solution(GENERIC_A, [sys.Lambda], K=20)
        with pytest.raises(ValueError, match="a sectorial request takes no Levelt data"):
            SectorRequest(sys, 0, fs, "sectorial", ld=ld)


class TestActualSolution:
    def test_diagonal_system_is_exact(self):
        sys = IrregularSystem(u=[0.0, 1.0], A=np.diag([0.5, -0.3]))
        fs = compute_formal_coefficients(sys, K=30)
        for r in (0, 1):
            got = actual_solution(sys, r, 0.3, fs)
            w = np.log(got.point.radius) + 1j * got.point.arg
            expect = np.diag(np.exp(np.diag(sys.A) * w + got.point.z * sys.u))
            assert np.max(np.abs(got.value - expect)) < 1e-10

    def test_two_seed_radii_agree(self):
        sys = generic_system()
        fs = compute_formal_coefficients(sys, K=40)

        def sectorial(radius):
            # Y_0 on the sweep circle, on the midpoint of sector 0
            cfg = StokesConfig(tau=0.3, radius=radius, tol=1e-12)
            return run_plan(sector_plan(cfg, [SectorRequest(sys, 0, fs, "sectorial")]),
                            cfg.tol)[0]

        # both at |z| = 4, the sweep circle of GENERIC_A for either radius
        y1, y2 = sectorial(12.0), sectorial(24.0)
        assert y1.point == y2.point and y1.point.radius == pytest.approx(4.0)

        def seed_error(radius):
            # the first omitted term at the seed radius plus the Stokes
            # leakage of the seeds, as the plan adds them up for S_r
            table = SectorTable(StokesConfig(tau=0.3, radius=radius),
                                [SectorRequest(sys, 0, fs, "sectorial")])
            return table.truncations[0][1] + table.leakage[0, 0]

        scale = np.abs(y1.value).max()
        assert np.max(np.abs(y1.value - y2.value)) <= (
            seed_error(12.0) + seed_error(24.0)
        ) * scale * 5

    # actual_solution plans the plain frames alone; widened frames are
    # planned by a SectorRequest
    @pytest.mark.parametrize("sys, cfg, fs", FRAME_CASES[:1], ids=["generic"])
    def test_runs_the_sectorial_plan(self, sys, cfg, fs):
        # actual_solution builds its config from its keywords
        got = actual_solution(sys, 0, cfg.tau, fs)
        want, = run_plan(sector_plan(cfg, [SectorRequest(sys, 0, fs, "sectorial")]), cfg.tol)
        assert got.point == want.point
        assert got.value.tobytes() == want.value.tobytes()


class TestStokesMatrix:
    def test_config_compares_by_value(self):
        uC = np.array([0.0, 0.0, 1.0])
        cfg = StokesConfig(tau=0.3, uC=uC)
        same = StokesConfig(tau=0.3, uC=list(uC))
        assert cfg == same and hash(cfg) == hash(same)
        assert cfg != StokesConfig(tau=0.3, uC=uC + 0.5)

    @pytest.mark.parametrize("field", ["tol", "radius"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_config_refuses_bad_tol_and_radius(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive, got"):
            StokesConfig(tau=0.3, **{field: value})

    @FRAMES
    def test_runs_the_stokes_plan(self, sys, cfg, fs):
        # stokes_matrix is the one-request plan, in widened frames too
        got = stokes_matrix(sys, 0, cfg, fs)
        want, = run_plan(sector_plan(cfg, [SectorRequest(sys, 0, fs)]), cfg.tol)
        assert got.S.tobytes() == want.S.tobytes()
        assert (got.zstar, got.diag_residual, got.required_zero, got.error_estimate, got.C) == (
            want.zstar, want.diag_residual, want.required_zero, want.error_estimate, None)

    def test_diagonal_system_identity(self):
        sys = IrregularSystem(u=[0.0, 1.0], A=np.diag([0.5, -0.3]))
        fs = compute_formal_coefficients(sys, K=30)
        for r in (0, 1):
            res = stokes_matrix(sys, r, StokesConfig(tau=0.3, radius=14.0), fs)
            assert np.max(np.abs(res.S - np.eye(2))) < 1e-9

    def test_structure_and_relation(self):
        sys = generic_system()
        cfg = StokesConfig(tau=0.3, radius=20.0, tol=1e-11)
        fs = compute_formal_coefficients(sys, K=32)
        res0, res1, res2 = (stokes_matrix(sys, r, cfg, fs) for r in (0, 1, 2))
        for res in (res0, res1, res2):
            assert res.diag_residual <= 1e-6
            for _, mag in res.required_zero:
                assert mag <= 1e-6
        # opposite triangular support for n = 2
        z0 = {pos for pos, _ in res0.required_zero}
        z1 = {pos for pos, _ in res1.required_zero}
        assert z0 | z1 == {(0, 1), (1, 0)} and z0 & z1 == set()
        # S_2 = e^{-2 pi i B} S_0 e^{2 pi i B}
        phase = np.exp(2j * np.pi * np.diag(sys.A))
        conj = res0.S * (phase[None, :] / phase[:, None])
        assert np.max(np.abs(res2.S - conj)) < 1e-6

    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("kind", ["plain", "widened"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_sector_r_plus_two_runs_on_the_transports_of_sector_r(self, monkeypatch, n, kind, r):
        # S_{r+2} next to S_r adds no (ODE, leg) pair and no Taylor step:
        # sector r + 2's seeds and legs are sector r's, and only the args
        # turn by 2 pi, so S_{r+2} = e^{-2 pi i B} S_r e^{2 pi i B} holds
        # to round-off
        rng = np.random.default_rng(2100 + 10 * n + len(kind))
        (sys,), cfg = _table_case(rng, n, kind, count=1, scale=0.5, a_scale=0.4)
        fs = compute_formal_coefficients(sys, K=30)
        steps, schedule = [], odeengine._schedule

        def counted(*args):
            layout = schedule(*args)
            steps.append(len(layout[0]))
            return layout

        monkeypatch.setattr(odeengine, "_schedule", counted)
        pairs, totals = [], []
        for requests in ([SectorRequest(sys, r, fs)],
                         [SectorRequest(sys, r, fs), SectorRequest(sys, r + 2, fs)]):
            plan = sector_plan(cfg, requests)
            pairs.append({(o.P.tobytes(), o.Q.tobytes(), leg) for o, _, path in plan.jobs
                          for leg in path})
            steps.clear()
            res, *res2 = run_plan(plan, cfg.tol)
            totals.append(sum(steps))
        assert pairs[0] == pairs[1] and totals[0] == totals[1] > 0
        phase = np.exp(2j * np.pi * fs.b)
        conj = res.S * (phase[None, :] / phase[:, None])
        assert np.abs(res2[0].S - conj).max() <= 1e-12 * max(1.0, np.abs(res.S).max())

    @staticmethod
    def duality_error(sys, r=0):
        """|S_r(-u, -A^T) - S_r(u, A)^{-T}| relative to |S_r(u, A)^{-T}|, both
        largest entries: Y^{-T} solves the dual system, which has the same
        Stokes rays and sectors."""
        cfg = StokesConfig(tau=0.3)
        dual = IrregularSystem(u=-sys.u, A=-sys.A.T)
        S, S_dual = (stokes_matrix(s, r, cfg, compute_formal_coefficients(s, K=30)).S
                     for s in (sys, dual))
        want = np.linalg.inv(S).T
        return np.abs(S_dual - want).max() / np.abs(want).max()

    @pytest.mark.parametrize("r", [0, 1])
    def test_duality_on_generic_a(self, r):
        assert self.duality_error(generic_system(), r) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           st.lists(st.floats(-0.4, 0.4), min_size=8, max_size=8))
    def test_duality_on_drawn_systems(self, coords, entries):
        # n = 2 at unit scale, as the benchmark draws them: |u_0 - u_1| >= 0.6
        # and tau at least 0.1 from every Stokes ray mod pi
        from isomlab.geometry import _margin

        u = np.array(coords[:2]) + 1j * np.array(coords[2:])
        assume(abs(u[0] - u[1]) >= 0.6 and _margin(0.3, subclass_rays(u)) >= 0.1)
        A = (np.array(entries[:4]) + 1j * np.array(entries[4:])).reshape(2, 2)
        assert self.duality_error(IrregularSystem(u=u, A=A)) <= 1e-10

    def test_seed_radius_independence(self):
        sys = generic_system()
        fs = compute_formal_coefficients(sys, K=36)
        r12 = stokes_matrix(sys, 0, StokesConfig(tau=0.3, radius=12.0), fs)
        r24 = stokes_matrix(sys, 0, StokesConfig(tau=0.3, radius=24.0), fs)
        assert np.max(np.abs(r12.S - r24.S)) <= r12.error_estimate + r24.error_estimate


class TestConnectionMatrix:
    def test_zero_residue_constant_in_zstar(self):
        A = np.zeros((2, 2), dtype=complex)
        sys = IrregularSystem(u=[0.0, 1.0], A=A)
        ld = build_levelt_solution(A, [sys.Lambda], K=25)
        frame_mid = sector_frame(sys.u, 0.3, 0).midpoint
        cfg = StokesConfig(tau=0.3, tol=1e-12)
        fs = compute_formal_coefficients(sys, K=30)
        vals = [connection_at(sys, 0, ld, cfg, fs, PathPoint.from_polar(rho, frame_mid))
                for rho in (5.0, 6.5, 8.0)]
        assert np.max(np.abs(vals[0] - vals[1])) < 1e-8
        assert np.max(np.abs(vals[1] - vals[2])) < 1e-8

    @pytest.mark.parametrize("sys, r", [
        (generic_system(), 0),
        (generic_system(), 1),
        (seeded_system(0, 3), 0),
    ])
    def test_default_zstar_equals_the_sector_midpoint(self, sys, r):
        # Y^(0)(z)^{-1} Y_r(z) is constant, so C_r at the default z* (that of
        # S_r, on the circle in the overlap of sectors r and r + 1) is C_r at
        # the midpoint of sector r at half the seed radius, where no Stokes
        # matrix reads Y_r; connection_at carries the Y_r of actual_solution
        # radially out to it from the circle
        cfg = StokesConfig(tau=0.3)
        fs = compute_formal_coefficients(sys, K=30)
        ld = build_levelt_solution(sys.A, [sys.Lambda], K=20)
        mid = PathPoint.from_polar(cfg.radius / 2.0, sector_frame(sys.u, cfg.tau, r).midpoint)
        got = connection(sys, r, ld, cfg, fs)
        want = connection_at(sys, r, ld, cfg, fs, mid)
        assert np.linalg.norm(got - want, 2) <= 1e-9 * np.linalg.norm(want, 2)

    @pytest.mark.parametrize("r", [0, 1])
    def test_shares_the_legs_of_its_stokes_matrix(self, monkeypatch, r):
        # next to S_r, C_r costs only its Levelt leg out to the circle: its
        # columns are those of Y_r that S_r carries, which end at z* on the
        # circle
        sys = generic_system()
        cfg = StokesConfig(tau=0.3)
        fs = compute_formal_coefficients(sys, K=30)
        ld = build_levelt_solution(GENERIC_A, [sys.Lambda], K=20)
        steps, schedule = [], odeengine._schedule

        def counted(*args):
            layout = schedule(*args)
            steps.append(len(layout[0]))
            return layout

        monkeypatch.setattr(odeengine, "_schedule", counted)
        totals = []
        for requests in ([SectorRequest(sys, r, fs)], [SectorRequest(sys, r, fs, ld=ld)]):
            plan = sector_plan(cfg, requests)
            steps.clear()
            run_plan(plan, cfg.tol)
            totals.append(sum(steps))
        ode, _, (leg,) = plan.jobs[-1]  # the Levelt leg, radially out to z*
        assert leg.b == plan.jobs[0][2][-1].b
        assert totals[1] - totals[0] == step_count(ode, [leg]) > 0

    @FRAMES
    def test_connection_chain(self, sys, cfg, fs):
        ld = build_levelt_solution(sys.A, [sys.Lambda], K=25)
        C0 = connection(sys, 0, ld, cfg, fs)
        C1 = connection(sys, 1, ld, cfg, fs)
        S0 = run_plan(sector_plan(cfg, [SectorRequest(sys, 0, fs)]), cfg.tol)[0].S
        assert np.max(np.abs(C1 - C0 @ S0)) < 1e-6

    def test_monodromy_consistency(self):
        # loop transport of Y_r equals Y_r (C_r^{-1} e^{2 pi i L} C_r)
        from isomlab.levelt import monodromy_exponential

        sys = generic_system()
        fs = compute_formal_coefficients(sys, K=32)
        ld = build_levelt_solution(GENERIC_A, [sys.Lambda], K=25)
        C0 = connection(sys, 0, ld, StokesConfig(tau=0.3), fs)
        frame_mid = sector_frame(sys.u, 0.3, 0).midpoint
        Y0 = actual_solution(sys, 0, 0.3, fs, tol=1e-12)
        Y0 = integrate_path(Y0, [Leg(Y0.point.z, PathPoint.from_polar(1.0, frame_mid).z)],
                            tol=1e-12)
        M = monodromy_loop(Y0, tol=1e-12)
        expect = np.linalg.solve(C0, monodromy_exponential(ld) @ C0)
        assert np.max(np.abs(M - expect)) < 1e-6
