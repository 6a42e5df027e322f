import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_solvers import poly_fuchsian_ode, schedule_reference
from scipy.integrate import solve_ivp

from isomlab import odeengine
from isomlab.errors import IntegrationError, SectorError
from isomlab.formal import IrregularSystem, compute_formal_coefficients
from isomlab.levelt import build_levelt_solution
from isomlab.odeengine import (
    Leg,
    PathPoint,
    SolutionHandle,
    StokesConfig,
    actual_solution,
    connection_matrix,
    fuchsian_ode,
    integrate_path,
    irregular_ode,
    levelt_handle,
    monodromy_loop,
    stokes_matrix,
    transport_matrix,
)

GENERIC_A = np.array([[0.2, 1.0], [0.7, -0.4]], dtype=complex)


def generic_system():
    return IrregularSystem(u=[0.0, 1.0], A=GENERIC_A)


def hol_const(sys):
    return lambda m: sys.Lambda if m == 0 else np.zeros((sys.n, sys.n), dtype=complex)


class TestIntegratePath:
    def test_pure_exponential(self):
        sys = IrregularSystem(u=[0.0, 1.0], A=np.zeros((2, 2)))
        a = PathPoint(1.0 + 0.0j, 0.0)
        h = SolutionHandle(system=sys, point=a, value=np.eye(2))
        got = integrate_path(sys, h, [Leg(1.0 + 0.0j, 2.0 + 0.0j)], tol=1e-12)
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
        got = integrate_path(sys, h, path, tol=1e-12)
        assert np.max(np.abs(got.value - np.eye(2))) < 1e-10
        assert got.point.z == a.z and abs(got.point.arg) < 1e-15

    def test_power_solution_loop(self):
        sys = IrregularSystem(u=[0.0, 0.0], A=np.diag([0.5, 0.0]))
        a = PathPoint(1.0 + 0.0j, 0.0)
        h = SolutionHandle(system=sys, point=a, value=np.eye(2))
        M = monodromy_loop(sys, h, winding=1, tol=1e-12)
        assert np.max(np.abs(M - np.diag([-1.0, 1.0]))) < 1e-10

    def test_winding_inverse(self):
        sys = generic_system()
        fs = compute_formal_coefficients(sys, K=20)
        h = actual_solution(sys, 0, 0.3, radius=16.0, zstar=None, fs=fs)
        # loop at small radius where the columns stay comparable
        h = integrate_path(sys, h, [Leg(h.point.z, h.point.z / h.point.radius)], tol=1e-12)
        Mp = monodromy_loop(sys, h, winding=1, tol=1e-12)
        Mm = monodromy_loop(sys, h, winding=-1, tol=1e-12)
        assert np.max(np.abs(Mp @ Mm - np.eye(2))) < 1e-8
        assert np.max(np.abs(monodromy_loop(sys, h, 0) - np.eye(2))) == 0.0

    def test_off_basepoint_rejected(self):
        sys = generic_system()
        h = SolutionHandle(system=sys, point=PathPoint(1.0 + 0.0j, 0.0), value=np.eye(2))
        with pytest.raises(ValueError, match="basepoint"):
            integrate_path(sys, h, [Leg(1.0 + 0.1j, 2.0 + 0.0j)])

    def test_arc_about_nonzero_centre_rejected(self):
        sys = generic_system()
        h = SolutionHandle(system=sys, point=PathPoint(1.0 + 0.0j, 0.0), value=np.eye(2))
        with pytest.raises(ValueError, match="not about 0"):
            integrate_path(sys, h, [Leg(1.0 + 0j, 1.0 + 0j, center=2.0 + 0j, sweep=math.pi)])

    def test_legs_that_do_not_join_rejected(self):
        sys = generic_system()
        h = SolutionHandle(system=sys, point=PathPoint(1.0 + 0.0j, 0.0), value=np.eye(2))
        with pytest.raises(ValueError, match="leg 1 does not start where leg 0 ends"):
            integrate_path(sys, h, [Leg(1.0 + 0j, 2.0 + 0j), Leg(2.0 + 1e-6j, 3.0 + 0j)])

    def test_double_winding_is_the_square(self):
        sys = generic_system()
        h = SolutionHandle(system=sys, point=PathPoint(0.8 + 0.3j, math.atan2(0.3, 0.8)),
                           value=np.eye(2))
        M = monodromy_loop(sys, h, winding=1, tol=1e-12)
        M2 = monodromy_loop(sys, h, winding=2, tol=1e-12)
        assert np.max(np.abs(M2 - M @ M)) < 1e-10

    def test_wronskian_drift_tracked(self):
        rng = np.random.default_rng(4)
        sys = IrregularSystem(
            u=rng.normal(size=3) + 1j * rng.normal(size=3) * 0.2,
            A=rng.normal(size=(3, 3)),
        )
        a = PathPoint(2.0 + 0.0j, 0.0)
        h = SolutionHandle(system=sys, point=a, value=np.eye(3))
        got = integrate_path(sys, h, [Leg(2.0 + 0.0j, 2.0 * np.exp(1.1j), center=0j, sweep=1.1)],
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
        got = integrate_path(sys, h, path, tol=1e-12)
        end = got.point
        assert abs(end.arg - turn) < 1e-12 and abs(end.z - 3.0 * e) < 1e-15
        w1 = math.log(end.radius) + 1j * end.arg
        expect = np.exp(a * (w1 - math.log(2.0)) + u * (end.z - p0.z))
        assert abs(got.value[0, 0] / expect - 1.0) < 1e-11
        assert got.wronskian_drift < 1e-11

    def test_higher_pole_against_dop853(self):
        rng = np.random.default_rng(55)
        A2 = 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        sys = IrregularSystem(u=[0.0, 1.0], A=GENERIC_A, higher=(A2,))
        corners = [1.5 + 0.0j, 2.5 + 1.0j, 0.8 + 1.6j]
        ref = np.eye(2, dtype=complex)
        h = SolutionHandle(system=sys, point=PathPoint(corners[0], 0.0), value=ref)
        for za, zb in zip(corners[:-1], corners[1:]):

            def f(t, y, za=za, zb=zb):
                W = sys.coefficient(za + t * (zb - za))
                return ((zb - za) * (W @ y.reshape(2, 2))).ravel()

            sol = solve_ivp(f, (0.0, 1.0), ref.ravel(), method="DOP853",
                            rtol=1e-13, atol=1e-13)
            ref = sol.y[:, -1].reshape(2, 2)
            h = integrate_path(sys, h, [Leg(za, zb)], tol=1e-12)
        assert np.max(np.abs(h.value - ref)) < 1e-11 * np.max(np.abs(ref))
        assert h.wronskian_drift < 1e-11


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
            (irregular_ode(sys, sys.u[0], b[0]), cols[0],
             [Leg(12.0 + 0j, 2.0 + 0j), Leg(2.0 + 0j, 2j, center=0j, sweep=math.pi / 2)]),
            (irregular_ode(sys, sys.u[1], b[1]), cols[1], [Leg(8.0 + 1j, 1.5 - 0.5j)]),
            (irregular_ode(sys, sys.u[2], b[2]), cols[2],
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
        steps = [len(odeengine._schedule(o, lg, 0)[0]) for o, _, lg in jobs]
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
        steps = sum(len(odeengine._schedule(o, lg, 0)[0]) for o, lg in zip(odes, legs))
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
        gauged = [irregular_ode(sys, sys.u[j], b[j]) for j in (0, 1, 0)]
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
        expected = sum(len(odeengine._schedule(o, [leg], 0)[0])
                       for o, leg in distinct.values())
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
        irregular_ode(IrregularSystem(u=[0.0, 1.0, 0.4 + 0.8j], A=np.diag([0.2, 0.1, -0.3]),
                                      higher=[0.1 * np.eye(3)]), 1.0, 0.1),
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
        ode = [self.ODES[k] for k, _ in batch]
        legs = [leg for _, leg in batch]
        job = [(i, 0) for i in range(len(legs))]
        try:
            expected = schedule_reference(ode, legs, job)
        except IntegrationError as exc:
            with pytest.raises(IntegrationError) as got:
                odeengine._schedule(ode, legs, job)
            assert str(got.value) == str(exc)
            return
        got = odeengine._schedule(ode, legs, job)
        for x, y in zip(got, expected):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestActualSolution:
    def test_diagonal_system_is_exact(self):
        sys = IrregularSystem(u=[0.0, 1.0], A=np.diag([0.5, -0.3]))
        for r in (0, 1):
            got = actual_solution(sys, r, tau=0.3, radius=14.0)
            w = np.log(got.point.radius) + 1j * got.point.arg
            expect = np.diag(np.exp(np.diag(sys.A) * w + got.point.z * sys.u))
            assert np.max(np.abs(got.value - expect)) < 1e-10

    def test_two_seed_radii_agree(self):
        sys = generic_system()
        fs = compute_formal_coefficients(sys, K=40)
        from isomlab.geometry import sector_bounds
        f0 = sector_bounds(sys.u, 0.3, 0)
        f1 = sector_bounds(sys.u, 0.3, 1)
        zs = PathPoint.from_polar(6.0, 0.5 * (f1.lo + f0.hi))
        y1 = actual_solution(sys, 0, 0.3, radius=12.0, zstar=zs, fs=fs, tol=1e-12)
        y2 = actual_solution(sys, 0, 0.3, radius=24.0, zstar=zs, fs=fs, tol=1e-12)
        scale = np.abs(y1.value).max()
        assert np.max(np.abs(y1.value - y2.value)) <= (
            y1.seed_error + y2.seed_error
        ) * scale * 5

    def test_zstar_outside_sector_rejected(self):
        sys = generic_system()
        with pytest.raises(SectorError):
            actual_solution(
                sys, 0, 0.3, radius=14.0, zstar=PathPoint.from_polar(7.0, 0.3 + 2.5)
            )


class TestStokesMatrix:
    def test_diagonal_system_identity(self):
        sys = IrregularSystem(u=[0.0, 1.0], A=np.diag([0.5, -0.3]))
        for r in (0, 1):
            res = stokes_matrix(sys, r, StokesConfig(tau=0.3, radius=14.0))
            assert np.max(np.abs(res.S - np.eye(2))) < 1e-9

    def test_structure_and_relation(self):
        sys = generic_system()
        cfg = StokesConfig(tau=0.3, radius=20.0, tol=1e-11, order=32)
        res0 = stokes_matrix(sys, 0, cfg)
        res1 = stokes_matrix(sys, 1, cfg)
        res2 = stokes_matrix(sys, 2, cfg)
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

    def test_seed_radius_independence(self):
        sys = generic_system()
        r12 = stokes_matrix(sys, 0, StokesConfig(tau=0.3, radius=12.0, order=36))
        r24 = stokes_matrix(sys, 0, StokesConfig(tau=0.3, radius=24.0, order=36))
        assert np.max(np.abs(r12.S - r24.S)) <= r12.error_estimate + r24.error_estimate

    def test_higher_pole_diagonal_decouples(self):
        sys = IrregularSystem(
            u=[0.0, 1.0],
            A=np.diag([0.5, -0.3]),
            higher=(np.diag([0.2, -0.1]).astype(complex),),
        )
        res = stokes_matrix(sys, 0, StokesConfig(tau=0.3, order=24))
        assert np.max(np.abs(res.S - np.eye(2))) < 1e-7

    def test_higher_pole_period_relation(self):
        # B = diag(A) keeps generating S_{r+2} from S_r for the wider class
        # with additional poles at the origin
        rng = np.random.default_rng(55)
        A2 = 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        sys = IrregularSystem(u=[0.0, 1.0], A=GENERIC_A, higher=(A2,))
        cfg = StokesConfig(tau=0.3, radius=20.0, order=32)
        S0 = stokes_matrix(sys, 0, cfg).S
        S2 = stokes_matrix(sys, 2, cfg).S
        phase = np.exp(2j * np.pi * np.diag(sys.A))
        conj = S0 * (phase[None, :] / phase[:, None])
        assert np.max(np.abs(S2 - conj)) < 1e-6


class TestConnectionMatrix:
    def test_zero_residue_constant_in_zstar(self):
        A = np.zeros((2, 2), dtype=complex)
        sys = IrregularSystem(u=[0.0, 1.0], A=A)
        ld = build_levelt_solution(A, hol_const(sys), K=25)
        from isomlab.geometry import sector_bounds
        frame_mid = sector_bounds(sys.u, 0.3, 0).midpoint
        vals = [
            connection_matrix(
                sys, 0, ld, 0.3, radius=16.0,
                zstar=PathPoint.from_polar(rho, frame_mid), tol=1e-12,
            )
            for rho in (5.0, 6.5, 8.0)
        ]
        assert np.max(np.abs(vals[0] - vals[1])) < 1e-8
        assert np.max(np.abs(vals[1] - vals[2])) < 1e-8

    def test_connection_chain(self):
        sys = generic_system()
        fs = compute_formal_coefficients(sys, K=32)
        ld = build_levelt_solution(GENERIC_A, hol_const(sys), K=25)
        C0 = connection_matrix(sys, 0, ld, 0.3, fs=fs)
        C1 = connection_matrix(sys, 1, ld, 0.3, fs=fs)
        S0 = stokes_matrix(sys, 0, StokesConfig(tau=0.3, order=32)).S
        assert np.max(np.abs(C1 - C0 @ S0)) < 1e-6

    def test_monodromy_consistency(self):
        # loop transport of Y_r equals Y_r (C_r^{-1} e^{2 pi i L} C_r)
        from isomlab.levelt import monodromy_exponential

        sys = generic_system()
        fs = compute_formal_coefficients(sys, K=32)
        ld = build_levelt_solution(GENERIC_A, hol_const(sys), K=25)
        C0 = connection_matrix(sys, 0, ld, 0.3, fs=fs)
        from isomlab.geometry import sector_bounds
        frame_mid = sector_bounds(sys.u, 0.3, 0).midpoint
        zs = PathPoint.from_polar(1.0, frame_mid)
        Y0 = actual_solution(sys, 0, 0.3, radius=20.0, zstar=zs, fs=fs, tol=1e-12)
        M = monodromy_loop(sys, Y0, winding=1, tol=1e-12)
        expect = np.linalg.solve(C0, monodromy_exponential(ld) @ C0)
        assert np.max(np.abs(M - expect)) < 1e-6
