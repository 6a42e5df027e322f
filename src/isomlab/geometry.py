"""Stokes-ray geometry: admissible directions, sectors, walls and cells.

A Stokes ray of the pair (i, j) with u_i != u_j is the direction theta with
Re(e^{i theta}(u_i - u_j)) = 0 and Im(e^{i theta}(u_i - u_j)) < 0, i.e.
theta = 3 pi/2 - arg(u_i - u_j) mod 2 pi.  Ordered pairs give antipodal
directions, so the full ray set is pi-periodic on the universal cover.

Walls in u-space combine the coalescence locus Delta (some u_i = u_j) with
the crossing locus X(tau): some arg(u_i - u_j) = 3 pi/2 - tau mod pi, that
is, tau on a Stokes ray mod pi.  Everything here is closed-form algebra on
the pair differences u_i - u_j: `sector_frames` decides admissibility, in
the sub-class sense too, as it bounds the sectors, `classify_point` makes
the X(tau) test at a point, `coalescence_labels` groups coalescing indices
for every module, and along a straight segment, where each difference is
affine in t, `wall_hits` finds the wall events exactly (the roots of
Im(e^{-i phi}(u_i - u_j)) and the closest approaches that `segment_min_abs`
and `UPath.min_gap` share): a segment without events stays in one cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AdmissibilityError, WallError
from .matrixcore import _chain_groups

TWO_PI = 2.0 * math.pi
DIRECTION_TOL = 1e-12  # ray directions mod pi this close are one direction
ADMISSIBILITY_TOL = 1e-8  # least distance of tau from a ray that bounds a sector


@lru_cache(maxsize=None)
def _pairs(n: int):
    """The pairs i < j of n indices, np.triu_indices(n, 1), once per n."""
    return np.triu_indices(n, 1)


def _as_uvec(u) -> np.ndarray:
    v = np.asarray(u, dtype=complex).reshape(-1)
    if len(v) < 2:
        raise ValueError("need at least two deformation parameters")
    if not (np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag))):
        raise ValueError("u entries must be finite")
    return v


def mod_angle(theta: float, period: float = TWO_PI) -> float:
    """Reduce an angle to [0, period)."""
    t = math.fmod(theta, period)
    return t + period if t < 0 else t


def angular_distance(a: float, b: float, period: float = TWO_PI) -> float:
    """Distance between two angles modulo `period`."""
    d = mod_angle(a - b, period)
    return min(d, period - d)


@dataclass(frozen=True)
class StokesRay:
    theta: float  # representative direction in [0, 2 pi)
    i: int
    j: int


def _base_directions(thetas) -> np.ndarray:
    """Distinct directions mod pi of the rays at `thetas`, sorted; directions
    within DIRECTION_TOL of each other count as one."""
    vals = sorted(mod_angle(th, math.pi) for th in thetas)
    out = [vals[0]]
    for v in vals[1:]:
        if v - out[-1] > DIRECTION_TOL and (math.pi - v + out[0]) > DIRECTION_TOL:
            out.append(v)
    return np.array(out)


def coalescence_labels(u, tol: float = 0.0) -> np.ndarray:
    """Coalescence group of each index of u, as a label 0, 1, ...

    Indices i and j share a label iff a chain of pair gaps |u_k - u_l| <= tol
    joins them; labels number the groups in the order of their smallest
    index, so with tol = 0 the groups are the sets of equal entries.
    """
    uv = np.asarray(u, dtype=complex).reshape(-1).tolist()
    label = [0] * len(uv)
    groups = _chain_groups(len(uv), lambda i, j: abs(uv[i] - uv[j]) <= tol)
    for g, idxs in enumerate(groups):
        for i in idxs:
            label[i] = g
    return np.array(label)


def _ray_angle(d) -> float:
    """The Stokes ray 3 pi/2 - arg d mod 2 pi of a pair with u_i - u_j = d != 0."""
    return mod_angle(1.5 * math.pi - math.atan2(d.imag, d.real))


def _margin(tau: float, thetas) -> float:
    """Angular distance mod pi from tau to the nearest ray direction."""
    return min((angular_distance(tau, th, math.pi) for th in thetas), default=math.inf)


def _rays(uv: list, label) -> list[tuple[float, int, int]]:
    """(theta, i, j) of the ordered pairs with label[i] != label[j] and
    u_i != u_j, uv and label given as lists."""
    n = len(uv)
    rays = [
        (_ray_angle(uv[i] - uv[j]), i, j)
        for i in range(n) for j in range(n)
        if label[i] != label[j] and uv[i] != uv[j]
    ]
    if not rays:
        raise WallError("all selected u_i coincide; no Stokes rays exist")
    return rays


def stokes_ray_directions(u) -> tuple[StokesRay, ...]:
    """The Stokes rays of all ordered pairs, sorted: directions 3 pi/2 -
    arg(u_i - u_j) mod 2 pi, each with its pair.  Directions repeat with
    period 2 pi per ordered pair; the union over both orientations of each
    pair is pi-periodic."""
    uv = _as_uvec(u).tolist()
    return tuple(StokesRay(*ray) for ray in sorted(_rays(uv, range(len(uv)))))


@dataclass(frozen=True)
class SectorFrame:
    """Sector S_r(u), or its widened variant at a coalescence point u^C, on
    the universal cover.

    The half-plane (tau + (r-2) pi, tau + (r-1) pi) is extended on both sides
    to the nearest Stokes rays outside of it; `lo`/`hi` are arguments on the
    real line of the cover, with hi - lo > pi.
    """

    lo: float
    hi: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _nearest_ray(base: np.ndarray, a: float, side: int) -> float:
    """Nearest element of base + pi Z strictly above a (side = 1) or below
    it (side = -1)."""
    best = math.inf
    for b in base:
        # side * (the nearest image of b on that side of a, or at a)
        cand = side * (b + side * math.ceil(side * (a - b) / math.pi) * math.pi)
        best = min(best, cand + math.pi if cand <= side * a + 1e-14 else cand)
    return side * best


def sector_frames(us, tau: float, rs, uC=None) -> list[tuple[SectorFrame, ...]]:
    """Bounds of S_r(u), or of the widened sector when a coalescence point
    `uC` is given, for each r of `rs` and each u of `us`, from one
    computation of the rays of each u.

    Widened, only rays of pairs with u_i^C != u_j^C bound the sector (tau
    must then be admissible at u^C in the sub-class sense).  If that
    sub-class is empty the fallback policy returns the half-plane extended by
    pi/2 on each side, as no ray constrains tau.  tau within
    ADMISSIBILITY_TOL of a bounding ray raises AdmissibilityError: this is
    the admissibility test, pi-periodic in tau because the ray family is.
    """
    half_planes = [(tau + (r - 2) * math.pi, tau + (r - 1) * math.pi) for r in rs]
    uvs = [_as_uvec(u).tolist() for u in us]
    label = None
    if uC is not None:
        label = coalescence_labels(_as_uvec(uC)).tolist()
        if any(len(label) != len(uv) for uv in uvs):
            raise ValueError("uC must have the same length as u")
        if not any(label):
            return [tuple(SectorFrame(lo=lo - math.pi / 2, hi=hi + math.pi / 2)
                          for lo, hi in half_planes)] * len(us)
    out = []
    for uv in uvs:
        thetas = [theta for theta, _, _ in _rays(uv, range(len(uv)) if label is None else label)]
        margin = _margin(tau, thetas)
        if not margin > ADMISSIBILITY_TOL:
            raise AdmissibilityError(
                f"tau = {tau:.6g} is within {margin:.3e} of a "
                f"{'' if uC is None else 'sub-class '}Stokes ray"
            )
        base = _base_directions(thetas)
        out.append(tuple(
            SectorFrame(lo=_nearest_ray(base, lo, -1), hi=_nearest_ray(base, hi, 1))
            for lo, hi in half_planes
        ))
    return out


@dataclass(frozen=True)
class CellReport:
    """Wall membership of a point u for the direction tau."""

    u: np.ndarray
    in_delta: bool
    in_crossing: bool
    min_pair_gap: float
    delta_pairs: tuple[tuple[int, int], ...]
    crossing_pairs: tuple[tuple[int, int], ...]

    @property
    def on_wall(self) -> bool:
        return self.in_delta or self.in_crossing


def _across_wall(d, tau: float) -> np.ndarray:
    """Im(e^{-i phi} d) with phi = 3 pi/2 - tau: the signed distance of d from
    the line of direction phi through 0, which the X(tau) wall asks d to lie on."""
    phi = 1.5 * math.pi - tau
    return np.imag(complex(math.cos(phi), -math.sin(phi)) * np.asarray(d))


def epsilon_bound(uC, tau: float) -> float:
    """Footnote bound for the polydisc radius around u^C.

    Distance between parallel lines of direction 3 pi/2 - tau through
    u_i^C and u_j^C, |Im(e^{-i phi}(u_i^C - u_j^C))| with phi the line
    direction, minimized over pairs with u_i^C != u_j^C; polydiscs of radius
    below it keep the sub-class rays away from the admissible directions.
    """
    ref = _as_uvec(uC)
    i, j = _pairs(len(ref))
    d = ref[i] - ref[j]
    d = d[d != 0]
    if not len(d):
        raise WallError("all components of uC coincide; bound undefined")
    return float(np.min(np.abs(_across_wall(d, tau))))


def classify_point(u, tau: float, tol: float = 1e-8) -> CellReport:
    """Membership of u in Delta and in the crossing locus X(tau).

    Delta: some |u_i - u_j| <= tol.  X(tau): over the other pairs, tau is
    within tol of a Stokes ray mod pi, the admissibility test of
    `sector_frames`; that is, arg(u_i - u_j) lies within tol of
    3 pi/2 - tau mod pi.  Both tests depend on differences only, hence are
    invariant under common translation and under relabeling.
    """
    uv = _as_uvec(u)
    i, j = _pairs(len(uv))
    d = uv[i] - uv[j]  # the pair differences wall_hits starts from
    gap = np.abs(d)
    delta_pairs, crossing_pairs = [], []
    for pair, dp, gp in zip(zip(i.tolist(), j.tolist()), d.tolist(), gap.tolist()):
        if gp <= tol:
            delta_pairs.append(pair)
        elif _margin(tau, (_ray_angle(dp), _ray_angle(-dp))) <= tol:
            crossing_pairs.append(pair)
    return CellReport(
        u=uv,
        in_delta=bool(delta_pairs),
        in_crossing=bool(crossing_pairs),
        min_pair_gap=float(gap.min(initial=math.inf)),
        delta_pairs=tuple(delta_pairs),
        crossing_pairs=tuple(crossing_pairs),
    )


def wall_hits(u, v, tau: float, tol: float = 1e-8) -> list[tuple[float, str]]:
    """Wall events of the straight segment from u to v, sorted by t.

    Each event is (t, kind) with kind in {"delta", "crossing"}.  Along the
    segment every pair difference d_ij(t) = d_ij(0) + t (d_ij(1) - d_ij(0))
    is affine in t, so the events are exact: a pair meets X(tau) at the root
    of the affine Im(e^{-i phi} d_ij(t)), phi = 3 pi/2 - tau, where it is not
    in Delta, and meets Delta at its closest approach to 0 when that lies
    within tol.  Events at t = 0 or t = 1 come from `classify_point` alone,
    so that both say the same of an endpoint; the affine tests only add
    events with 0 < t < 1.
    """
    a, b = _as_uvec(u), _as_uvec(v)
    if len(a) != len(b):
        raise ValueError("endpoints must have the same length")
    hits = set()
    for t, pt in ((0.0, a), (1.0, b)):
        rep = classify_point(pt, tau, tol=tol)
        if rep.on_wall:
            hits.add((t, "delta" if rep.in_delta else "crossing"))
    i, j = _pairs(len(a))
    d0, d1 = a[i] - a[j], b[i] - b[j]
    t_near, gap = _closest_approach(d0, d1)
    hits.update((float(t), "delta") for t in t_near[(gap <= tol) & (t_near > 0) & (t_near < 1)])
    y0, y1 = _across_wall(d0, tau), _across_wall(d1, tau)
    root = (y0 * y1 <= 0) & (y0 != y1)
    t_root = y0[root] / (y0 - y1)[root]
    off_delta = np.abs(d0[root] + t_root * (d1 - d0)[root]) > tol
    hits.update((float(t), "crossing") for t in t_root[off_delta & (t_root > 0) & (t_root < 1)])
    return sorted(hits)


def _closest_approach(d0, d1):
    """(t, |d(t)|) at the t in [0, 1] where d(t) = d0 + t (d1 - d0) comes
    closest to 0, elementwise: the foot of the perpendicular, clipped."""
    d0, d1 = np.asarray(d0, dtype=complex), np.asarray(d1, dtype=complex)
    e = d1 - d0
    t = np.clip(-np.real(np.conj(e) * d0) / np.maximum(np.abs(e) ** 2, 1e-300), 0.0, 1.0)
    return t, np.abs(d0 + t * e)


def segment_min_abs(d0, d1) -> np.ndarray:
    """Elementwise min over t in [0, 1] of |d0 + t (d1 - d0)|.

    The distance from 0 to the complex segment [d0, d1], in closed form.
    Pair differences along a straight segment in u-space are affine in t, so
    this is the exact minimal gap of each pair.
    """
    return _closest_approach(d0, d1)[1]

