"""Stokes-ray geometry: admissible directions, sectors, walls and cells.

A Stokes ray of the pair (i, j) with u_i != u_j is the direction theta with
Re(e^{i theta}(u_i - u_j)) = 0 and Im(e^{i theta}(u_i - u_j)) < 0, i.e.
theta = 3 pi/2 - arg(u_i - u_j) mod 2 pi.  Ordered pairs give antipodal
directions, so the full ray set is pi-periodic on the universal cover.

Walls in u-space combine the coalescence locus Delta (some u_i = u_j) with
the crossing locus X(tau): some arg(u_i - u_j) = 3 pi/2 - tau mod pi.
`same_cell` decides exactly whether a straight segment stays in one cell,
with the closed-form pair gap `segment_min_abs` that `UPath.min_gap` shares;
`wall_hits` samples a segment for plotting.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, WallError

TWO_PI = 2.0 * math.pi


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


@dataclass(frozen=True)
class RaySet:
    """Stokes ray directions with their generating ordered pairs.

    Directions repeat with period 2 pi per ordered pair; the union over both
    orientations of each pair is pi-periodic (`pi_periodic` is always True
    for a full ordered-pair sweep and recorded for clarity).
    """

    rays: tuple[StokesRay, ...]
    pi_periodic: bool = True

    def directions(self) -> np.ndarray:
        return np.array([r.theta for r in self.rays])

    def base_directions(self, tol: float = 1e-12) -> np.ndarray:
        """Distinct directions mod pi, sorted, representing the ray family."""
        if not self.rays:
            return np.array([])
        vals = sorted(mod_angle(r.theta, math.pi) for r in self.rays)
        out = [vals[0]]
        for v in vals[1:]:
            if v - out[-1] > tol and (math.pi - v + out[0]) > tol:
                out.append(v)
        return np.array(out)


def stokes_ray_directions(u, subclass_at=None) -> RaySet:
    """Ray directions 3 pi/2 - arg(u_i - u_j) mod 2 pi for all ordered pairs.

    With `subclass_at` = u^C, only pairs whose labels satisfy
    u_i^C != u_j^C are considered (the sub-class used near a coalescence
    point); the differences themselves are still taken at `u`.
    """
    uv = _as_uvec(u)
    n = len(uv)
    ref = _as_uvec(subclass_at) if subclass_at is not None else None
    if ref is not None and len(ref) != n:
        raise ValueError("subclass_at must have the same length as u")
    rays = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if ref is not None and ref[i] == ref[j]:
                continue
            diff = uv[i] - uv[j]
            if diff == 0:
                continue
            theta = mod_angle(1.5 * math.pi - math.atan2(diff.imag, diff.real))
            rays.append(StokesRay(theta=theta, i=i, j=j))
    if not rays:
        raise WallError("all selected u_i coincide; no Stokes rays exist")
    rays.sort(key=lambda r: (r.theta, r.i, r.j))
    return RaySet(rays=tuple(rays))


@dataclass(frozen=True)
class Admissibility:
    admissible: bool
    margin: float  # angular distance mod pi to the nearest ray

    def __bool__(self) -> bool:
        return self.admissible


def is_admissible(tau: float, u, tol: float = 1e-8, subclass_at=None) -> Admissibility:
    """Check that no Stokes ray lies within `tol` of tau modulo pi.

    Admissibility is pi-periodic in tau because the ray family is; the
    returned margin is the minimal angular distance mod pi.  An empty ray
    family (fully coalesced sub-class) constrains nothing, so every
    direction is admissible with infinite margin.
    """
    try:
        rayset = stokes_ray_directions(u, subclass_at=subclass_at)
    except WallError:
        return Admissibility(admissible=True, margin=math.inf)
    margin = min(
        angular_distance(tau, th, period=math.pi) for th in rayset.base_directions()
    )
    return Admissibility(admissible=margin > tol, margin=float(margin))


@dataclass(frozen=True)
class SectorFrame:
    """Sector S_r(u) (or widened variant) on the universal cover.

    The half-plane (tau + (r-2) pi, tau + (r-1) pi) is extended on both sides
    to the nearest Stokes rays outside of it; `lo`/`hi` are arguments on the
    real line of the cover, with hi - lo > pi.  `degenerate` flags the
    widened case with an empty ray sub-class, where the fallback policy
    extends each side by a quarter turn.  `uC` records the coalescence
    reference of a widened frame.
    """

    tau: float
    r: int
    lo: float
    hi: float
    widened: bool = False
    degenerate: bool = False
    uC: tuple | None = None

    @property
    def half_plane(self) -> tuple[float, float]:
        return (self.tau + (self.r - 2) * math.pi, self.tau + (self.r - 1) * math.pi)

    @property
    def opening(self) -> float:
        return self.hi - self.lo

    def contains(self, arg: float, tol: float = 0.0) -> bool:
        return self.lo + tol < arg < self.hi - tol

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _nearest_ray_above(base: np.ndarray, a: float) -> float:
    """Smallest element of base + pi Z strictly above a."""
    best = math.inf
    for b in base:
        k = math.ceil((a - b) / math.pi)
        cand = b + k * math.pi
        if cand <= a + 1e-14:
            cand += math.pi
        best = min(best, cand)
    return best


def _nearest_ray_below(base: np.ndarray, a: float) -> float:
    best = -math.inf
    for b in base:
        k = math.floor((a - b) / math.pi)
        cand = b + k * math.pi
        if cand >= a - 1e-14:
            cand -= math.pi
        best = max(best, cand)
    return best


def sector_bounds(
    u,
    tau: float,
    r: int,
    widened: bool = False,
    uC=None,
    tol: float = 1e-8,
) -> SectorFrame:
    """Bounds of S_r(u), or of the widened sector when `widened` is set.

    In widened mode only rays of pairs with u_i^C != u_j^C bound the sector
    (tau must then be admissible at u^C in the sub-class sense).  If that
    sub-class is empty the fallback policy returns the half-plane extended by
    pi/2 on each side, flagged as degenerate.
    """
    lo_hp = tau + (r - 2) * math.pi
    hi_hp = tau + (r - 1) * math.pi
    if widened:
        if uC is None:
            raise ValueError("widened sectors need the coalescence point uC")
        ref = _as_uvec(uC)
        uC_key = tuple(complex(x) for x in ref)
        if np.all(ref[:, None] == ref[None, :]):
            return SectorFrame(
                tau=tau, r=r, lo=lo_hp - math.pi / 2, hi=hi_hp + math.pi / 2,
                widened=True, degenerate=True, uC=uC_key,
            )
        adm = is_admissible(tau, u, tol=tol, subclass_at=ref)
        if not adm:
            raise AdmissibilityError(
                f"tau = {tau:.6g} is within {adm.margin:.3e} of a sub-class Stokes ray"
            )
        base = stokes_ray_directions(u, subclass_at=ref).base_directions()
    else:
        uC_key = None
        adm = is_admissible(tau, u, tol=tol)
        if not adm:
            raise AdmissibilityError(
                f"tau = {tau:.6g} is within {adm.margin:.3e} of a Stokes ray"
            )
        base = stokes_ray_directions(u).base_directions()
    lo = _nearest_ray_below(base, lo_hp)
    hi = _nearest_ray_above(base, hi_hp)
    return SectorFrame(tau=tau, r=r, lo=lo, hi=hi, widened=widened, uC=uC_key)


@dataclass(frozen=True)
class CellReport:
    """Wall membership of a point u for the direction tau.

    `epsilon_bound`, present when a coalescence point is supplied, is the
    minimum over non-coalescing pairs of the distance between the parallel
    lines through u_i^C and u_j^C with direction 3 pi/2 - tau; polydiscs of
    radius below it keep the sub-class rays away from the admissible
    directions.
    """

    u: np.ndarray
    tau: float
    in_delta: bool
    in_crossing: bool
    min_pair_gap: float
    delta_pairs: tuple[tuple[int, int], ...]
    crossing_pairs: tuple[tuple[int, int], ...]
    epsilon_bound: float | None = None

    @property
    def on_wall(self) -> bool:
        return self.in_delta or self.in_crossing


def epsilon_bound(uC, tau: float) -> float:
    """Footnote bound for the polydisc radius around u^C.

    Distance between parallel lines of direction 3 pi/2 - tau through
    u_i^C and u_j^C is |Im(e^{-i phi}(u_i^C - u_j^C))| with phi the line
    direction; minimized over pairs with u_i^C != u_j^C.
    """
    ref = _as_uvec(uC)
    phi = 1.5 * math.pi - tau
    e = complex(math.cos(phi), math.sin(phi))
    best = math.inf
    n = len(ref)
    for i in range(n):
        for j in range(i + 1, n):
            d = ref[i] - ref[j]
            if d == 0:
                continue
            best = min(best, abs((d / e).imag))
    if not math.isfinite(best):
        raise WallError("all components of uC coincide; bound undefined")
    return float(best)


def classify_point(u, tau: float, tol: float = 1e-8, uC=None) -> CellReport:
    """Membership of u in Delta and in the crossing locus X(tau).

    Delta: some |u_i - u_j| <= tol.  X(tau): some arg(u_i - u_j) within tol
    of 3 pi/2 - tau mod pi (only for u_i != u_j).  Both tests depend on
    differences only, hence are invariant under common translation and under
    relabeling.
    """
    uv = _as_uvec(u)
    n = len(uv)
    target = 1.5 * math.pi - tau
    delta_pairs, crossing_pairs = [], []
    min_gap = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            d = uv[i] - uv[j]
            gap = abs(d)
            min_gap = min(min_gap, gap)
            if gap <= tol:
                delta_pairs.append((i, j))
                continue
            ang = math.atan2(d.imag, d.real)
            if angular_distance(ang, target, period=math.pi) <= tol:
                crossing_pairs.append((i, j))
    eps = None
    if uC is not None:
        eps = epsilon_bound(uC, tau)
    return CellReport(
        u=uv,
        tau=tau,
        in_delta=bool(delta_pairs),
        in_crossing=bool(crossing_pairs),
        min_pair_gap=float(min_gap),
        delta_pairs=tuple(delta_pairs),
        crossing_pairs=tuple(crossing_pairs),
        epsilon_bound=eps,
    )


def wall_hits(u, v, tau: float, samples: int = 10_000, tol: float = 1e-8):
    """Sampled wall crossings of the straight segment from u to v.

    Returns a list of (t, kind) with kind in {"delta", "crossing"}; purely a
    sampling check at the given resolution.
    """
    a, b = _as_uvec(u), _as_uvec(v)
    if len(a) != len(b):
        raise ValueError("endpoints must have the same length")
    hits = []
    for t in np.linspace(0.0, 1.0, samples):
        rep = classify_point(a + t * (b - a), tau, tol=tol)
        if rep.in_delta:
            hits.append((float(t), "delta"))
        elif rep.in_crossing:
            hits.append((float(t), "crossing"))
    return hits


def same_cell(u, v, tau: float, tol: float = 1e-8) -> bool:
    """True iff the straight segment between u and v avoids the walls.

    Endpoints on a wall are rejected.  Along the segment every difference
    d_ij(t) = d_ij(0) + t (d_ij(1) - d_ij(0)) is affine in t, so the check is
    exact: the segment crosses X(tau) iff Im(e^{-i phi} d_ij), phi =
    3 pi/2 - tau, changes sign between the endpoints, and it meets Delta iff
    some d_ij([0, 1]) passes within tol of 0.
    """
    for name, pt in (("u", u), ("u'", v)):
        rep = classify_point(pt, tau, tol=tol)
        if rep.on_wall:
            raise WallError(f"endpoint {name} lies on W(tau): {rep}")
    a, b = _as_uvec(u), _as_uvec(v)
    if len(a) != len(b):
        raise ValueError("endpoints must have the same length")
    i, j = np.triu_indices(len(a), 1)
    d0, d1 = a[i] - a[j], b[i] - b[j]
    rot = complex(math.cos(1.5 * math.pi - tau), -math.sin(1.5 * math.pi - tau))
    if np.any(np.imag(rot * d0) * np.imag(rot * d1) <= 0):
        return False
    return bool(np.all(segment_min_abs(d0, d1) > tol))


def segment_min_abs(d0, d1) -> np.ndarray:
    """Elementwise min over t in [0, 1] of |d0 + t (d1 - d0)|.

    The distance from 0 to the complex segment [d0, d1], in closed form: the
    foot of the perpendicular, clipped to the segment.  Pair differences
    along a straight segment in u-space are affine in t, so this is the exact
    minimal gap of each pair.
    """
    d0, d1 = np.asarray(d0, dtype=complex), np.asarray(d1, dtype=complex)
    e = d1 - d0
    t = np.clip(-np.real(np.conj(e) * d0) / np.maximum(np.abs(e) ** 2, 1e-300), 0.0, 1.0)
    return np.abs(d0 + t * e)


def rays_to_csv(rayset: RaySet, path) -> None:
    """Write ray directions as rows (pair_i, pair_j, theta)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pair_i", "pair_j", "theta"])
        for ray in rayset.rays:
            w.writerow([ray.i, ray.j, repr(ray.theta)])


def wall_hits_to_csv(hits, path) -> None:
    """Write sampled wall hits as rows (sample_t, wall_type)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_t", "wall_type"])
        for t, kind in hits:
            w.writerow([repr(t), kind])
