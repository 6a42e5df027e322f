import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from isomlab import geometry
from isomlab.errors import AdmissibilityError, WallError
from isomlab.formal import IrregularSystem
from isomlab.geometry import (
    ADMISSIBILITY_TOL,
    classify_point,
    epsilon_bound,
    sector_frames,
    stokes_ray_directions,
    wall_hits,
)
from isomlab.isoflow import UPath
from isomlab.verify import collect_data


def admissible(tau, u, tol=ADMISSIBILITY_TOL, uC=None):
    """Whether `sector_frames`, the one admissibility test, accepts tau at u
    (in the sub-class sense when uC is given) with its tolerance set to tol."""
    with mock.patch.object(geometry, "ADMISSIBILITY_TOL", tol):
        try:
            sector_frames([u], tau, (0,), uC=uC)
        except AdmissibilityError:
            return False
    return True


class TestStokesRays:
    def test_real_pair(self):
        rays = stokes_ray_directions([0.0, 1.0])
        got = {(r.i, r.j): r.theta for r in rays}
        assert abs(got[(0, 1)] - math.pi / 2) < 1e-12
        assert abs(got[(1, 0)] - 3 * math.pi / 2) < 1e-12

    def test_rotated_pair(self):
        rays = stokes_ray_directions([0.0, 1.0j])
        got = {(r.i, r.j): r.theta for r in rays}
        assert abs(got[(0, 1)] - 0.0) < 1e-12
        assert abs(got[(1, 0)] - math.pi) < 1e-12

    def test_collinear_triple(self):
        rays = stokes_ray_directions([0.0, 1.0, 2.0])
        thetas = sorted({round(r.theta, 12) for r in rays})
        assert thetas == [round(math.pi / 2, 12), round(3 * math.pi / 2, 12)]

    def test_antipodal_pairs(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        rays = {(r.i, r.j): r.theta for r in stokes_ray_directions(u)}
        for (i, j), th in rays.items():
            partner = rays[(j, i)]
            assert abs((partner - th) % (2 * math.pi) - math.pi) < 1e-9

    def test_subclass_filter(self):
        # tau = 0 lies on the ray of the pair (0, 1) alone, which coalesces
        # at uC: the plain frames refuse it, the frames widened at uC do not
        uC = [0.0, 0.0, 1.0]
        u = [0.01j, -0.01j, 1.0]
        assert not admissible(0.0, u)
        assert admissible(0.0, u, uC=uC)

    def test_all_equal_rejected(self):
        with pytest.raises(WallError):
            stokes_ray_directions([1.0, 1.0])


class TestAdmissibility:
    def test_clear_direction(self):
        # the one ray direction mod pi is pi/2 away from tau = 0
        assert admissible(0.0, [0.0, 1.0])
        assert admissible(0.0, [0.0, 1.0], tol=math.pi / 2 - 1e-12)
        assert not admissible(0.0, [0.0, 1.0], tol=math.pi / 2 + 1e-12)

    def test_exact_ray_hit(self):
        assert not admissible(math.pi / 2, [0.0, 1.0])

    def test_within_tolerance(self):
        assert not admissible(math.pi / 2 + 1e-12, [0.0, 1.0], tol=1e-8)

    def test_pi_periodicity(self):
        rng = np.random.default_rng(8)
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        rays = [1.5 * math.pi - np.angle(u[i] - u[j]) for i in range(3) for j in range(3) if i != j]
        for tau in (0.1, 1.1, 2.3):
            # the distance mod pi from tau to the nearest ray brackets the tol
            # at which tau and tau + pi stop being admissible
            d = np.mod(np.array(rays) - tau, math.pi)
            margin = float(np.min(np.minimum(d, math.pi - d)))
            for t in (tau, tau + math.pi):
                assert admissible(t, u) == (margin > 1e-8)
                assert admissible(t, u, tol=margin - 1e-9)
                assert not admissible(t, u, tol=margin + 1e-9)


def sector_bounds(u, tau, r, uC=None):
    """The frame of the one sector r of u."""
    return sector_frames([u], tau, (r,), uC=uC)[0][0]


class TestSectorBounds:
    def test_worked_example(self):
        fr = sector_bounds([0.0, 1.0], 0.0, 1)
        assert abs(fr.lo - (-1.5 * math.pi)) < 1e-12
        assert abs(fr.hi - (math.pi / 2)) < 1e-12

    def test_opening_exceeds_pi(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            if not admissible(0.4, u):
                continue
            for r in (0, 1, 2):
                fr = sector_bounds(u, 0.4, r)
                assert fr.hi - fr.lo > math.pi

    def test_shift_by_pi(self):
        u = [0.0, 1.0, 0.5 + 1.2j]
        fr1 = sector_bounds(u, 0.2, 1)
        fr2 = sector_bounds(u, 0.2, 2)
        assert abs(fr2.lo - fr1.lo - math.pi) < 1e-9
        assert abs(fr2.hi - fr1.hi - math.pi) < 1e-9

    def test_plain_inside_widened(self):
        uC = [0.0, 0.0, 1.0]
        u = [0.02, -0.02, 1.0]
        plain = sector_bounds(u, 0.3, 1)
        widened = sector_bounds(u, 0.3, 1, uC=uC)
        assert widened.lo <= plain.lo + 1e-12
        assert widened.hi >= plain.hi - 1e-12

    def test_widened_degenerate_policy(self):
        fr = sector_bounds([0.01, -0.01], 0.3, 1, uC=[0.0, 0.0])
        assert abs(fr.hi - fr.lo - 2 * math.pi) < 1e-12  # pi/2 beyond the half-plane each side
        lo_hp, hi_hp = 0.3 - math.pi, 0.3  # the half-plane of r = 1
        assert abs(fr.lo - (lo_hp - math.pi / 2)) < 1e-12
        assert abs(fr.hi - (hi_hp + math.pi / 2)) < 1e-12

    def test_inadmissible_rejected(self):
        with pytest.raises(AdmissibilityError):
            sector_bounds([0.0, 1.0], math.pi / 2, 1)

    @pytest.mark.parametrize("uC", [[0.0, 0.0], [0.0, 0.5]])
    def test_uc_length_checked(self, uC):
        # also when all of u^C coalesces, where the frames need no rays
        with pytest.raises(ValueError, match="uC must have the same length as u"):
            sector_frames([[0.0, 1.0, 2.0]], 0.3, (0,), uC=uC)


class TestClassifyPoint:
    def test_delta_membership(self):
        rep = classify_point([0.0, 0.0, 1.0], tau=1.234)
        assert rep.in_delta
        assert rep.delta_pairs == ((0, 1),)

    def test_crossing_membership(self):
        rep = classify_point([0.0, 1.0], tau=math.pi / 2)
        assert rep.in_crossing and not rep.in_delta

    def test_clean_point(self):
        rep = classify_point([0.0, 1.0], tau=math.pi / 4)
        assert not rep.on_wall

    def test_translation_and_relabel_invariance(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        tau = 0.77
        base = classify_point(u, tau)
        shifted = classify_point(u + (0.3 - 0.9j), tau)
        perm = classify_point(u[[2, 0, 1]], tau)
        assert base.in_delta == shifted.in_delta == perm.in_delta
        assert base.in_crossing == shifted.in_crossing == perm.in_crossing
        assert abs(base.min_pair_gap - perm.min_pair_gap) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
        st.sampled_from([1e-8, 1e-4, 0.05]),
        st.floats(-3.0, 3.0),
    )
    def test_crossing_test_is_admissibility(self, xs, tol, offset):
        # tau is drawn near the ray of pair (0, 1) so that both verdicts occur
        u = np.array(xs[:3]) + 1j * np.array(xs[3:])
        i, j = np.triu_indices(3, 1)
        assume(np.abs(u[i] - u[j]).min() > tol)
        d = u[0] - u[1]
        tau = 1.5 * math.pi - math.atan2(d.imag, d.real) + offset * tol
        rep = classify_point(u, tau, tol)
        assert rep.in_crossing == (not admissible(tau, u, tol))

    def test_epsilon_bound_reported(self):
        # the lines of direction 3 pi/2 - tau through 0 and 1 lie cos(tau) apart
        assert abs(epsilon_bound([0.0, 0.0, 1.0], 0.3) - abs(math.cos(0.3))) < 1e-12


class TestSameCell:
    # a segment stays in one cell iff wall_hits finds no event on it
    def test_identical_points(self):
        assert wall_hits([0.0, 1.0], [0.0, 1.0], tau=0.4) == []

    def test_segment_through_delta(self):
        hits = wall_hits([0.0, 1.0], [0.0, -1.0], tau=math.pi / 4)
        assert [kind for _, kind in hits] == ["delta"]

    def test_clean_segment(self):
        assert wall_hits([0.0, 1.0], [0.1 + 0.05j, 1.1], tau=0.3) == []

    def test_endpoint_on_wall_rejected(self):
        # collect_data refuses a sample on a wall before it flows anywhere
        sys0 = IrregularSystem(u=[0.0, 0.0], A=np.diag([0.2, -0.1]))
        with pytest.raises(WallError, match="lies on W"):
            collect_data(sys0, [[0.0, 0.0], [0.0, 1.0]], 0, 0.3)

    def test_transversal_crossing_between_samples(self):
        # u_0 - u_1 = e^{i(phi -+ 0.3)} turns through the wall direction phi at
        # t = 1/2, between the samples of a sweep with an even sample count
        tau = 0.3
        phi = 1.5 * math.pi - tau
        for side in (1.0, -1.0):  # both rays of X(tau)
            u = [0.0, -side * cmath.exp(1j * (phi - 0.3))]
            v = [0.0, -side * cmath.exp(1j * (phi + 0.3))]
            assert wall_hits(u, v, tau)
            assert wall_hits(v, u, tau)

    def test_agrees_with_dense_sweep(self):
        rng = np.random.default_rng(8)
        tau = 0.3
        for _ in range(40):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = u + 0.4 * (rng.normal(size=3) + 1j * rng.normal(size=3))
            t = np.linspace(0.0, 1.0, 4001)[:, None]
            pts = u + t * (v - u)
            rot = np.exp(-1j * (1.5 * math.pi - tau))
            side = [np.sign(np.imag(rot * (p[:, None] - p[None, :]))) for p in pts]
            swept = all(np.array_equal(side[0], s) for s in side)
            assert (not wall_hits(u, v, tau)) == swept
            # the exact minimal pair gap lies below the sweep's, within the
            # distance the gaps can move between two sweep points
            i, j = np.triu_indices(3, 1)
            swept_gap = np.abs(pts[:, i] - pts[:, j]).min()
            speed = np.abs((v - u)[i] - (v - u)[j]).max()
            exact_gap = UPath.line(u, v).min_gap()
            assert swept_gap - speed / 4000 <= exact_gap <= swept_gap + 1e-15


class TestWallHits:
    def test_crossing_times_are_affine_roots(self):
        rng = np.random.default_rng(4)
        tau = 0.3
        rot = cmath.exp(-1j * (1.5 * math.pi - tau))
        count = 0
        for _ in range(40):
            u = rng.normal(size=4) + 1j * rng.normal(size=4)
            v = u + rng.normal(size=4) + 1j * rng.normal(size=4)
            expect = []
            for a in range(4):
                for b in range(a + 1, 4):
                    def y(t):
                        return (rot * ((u[a] - u[b]) + t * ((v - u)[a] - (v - u)[b]))).imag
                    if y(0.0) * y(1.0) < 0:
                        expect.append(brentq(y, 0.0, 1.0, xtol=1e-15))
            got = [t for t, kind in wall_hits(u, v, tau) if kind == "crossing"]
            assert len(got) == len(expect)
            assert np.allclose(got, sorted(expect), rtol=0.0, atol=1e-12)
            count += len(got)
        assert count > 20

    def test_coincidence_gives_delta_event(self):
        # u_0 - u_1 = 1.25 t - 0.5 passes through 0 at t = 0.4
        hits = wall_hits([0.0, 0.5, 3j], [1.0, 0.25, 3j], tau=0.3)
        deltas = [t for t, kind in hits if kind == "delta"]
        assert len(deltas) == 1 and abs(deltas[0] - 0.4) < 1e-15
        assert all(kind == "delta" for t, kind in hits if abs(t - deltas[0]) < 1e-9)

    def test_endpoint_events_agree_with_classify_point(self):
        # |d| lands on tol with np.abs but just above it with scalar abs; both
        # checks must take the same side of the Delta wall at t = 0
        d = 0.9034701816518086 + 0.09401229776087457j
        tol, tau = 0.9083483259544387, 0.3
        u, v = [0.0, d], [0.0, 2 * d]
        assert classify_point(u, tau, tol).in_delta
        assert not classify_point(v, tau, tol).on_wall
        assert wall_hits(u, v, tau, tol) == [(0.0, "delta")]

    def test_endpoint_on_wall_is_an_event(self):
        tau = 0.3
        on_wall = [0.0, cmath.exp(1j * (0.5 * math.pi - tau))]  # arg(u_0 - u_1) = 3 pi/2 - tau
        assert wall_hits(on_wall, [0.0, 1.0], tau)[0] == (0.0, "crossing")
        assert wall_hits([0.0, 1.0], [0.0, 0.0], tau)[-1] == (1.0, "delta")
