"""End-to-end verification suites.

Strong-isomonodromy runs flow a system from its own u through in-cell
sample points while transporting the Levelt gauge (dG = sum_j omega_j(0)
du_j G keeps the Jordan form constant), then extract the essential
monodromy data (S_r, S_{r+1}, B, D, L, C_r) per sample and compare.

Coalescence runs probe the limit u -> u^C for a residue matrix carrying the
required zero pattern on coalescing pairs.  For each gap in a geometric
schedule, the family's value on a ray out of u^C comes from its Taylor germ
there (the frozen matrix up to O(gap)), which the strong flow, integrated
outward along the ray from the innermost sample, checks, and Stokes data are
extracted in the widened sector frame anchored at u^C.  The coalescing-pair
entries then decay linearly in the gap, and the full matrices converge to
the data of the frozen system, which are computed directly from the
coalescence-aware recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import WallError
from .formal import (
    FormalSolution,
    IrregularSystem,
    coalesced_pairs,
    compute_formal_coefficients,
)
from .geometry import (
    classify_point,
    coalescence_labels,
    epsilon_bound,
    sector_frames,
    wall_hits,
)
from .isoflow import SLOPE_THRESHOLD, UPath, VanishingFit, integrate_flow, vanishing_order_check
from .levelt import build_levelt_solution, compute_levelt_exponents, with_gauge
from .odeengine import DEFAULT_TOL, SectorRequest, StokesConfig, run_plan, sector_plan

LEVELT_ORDER = 20  # Taylor terms of every Levelt solution the pipelines build
# verify_coalescence: sample gaps, germ order, and the thresholds of its
# limit and pattern verdicts (the slope verdict's is isoflow.SLOPE_THRESHOLD,
# and the |A0| entry at a coalescing pair that counts as zero is
# formal.PATTERN_TOL)
GAP_COUNT = 6
GERM_ORDER = 6
LIMIT_THRESHOLD = 1e-5
PATTERN_THRESHOLD = 1e-6
DIRECTION_TRIALS = 16  # angles coalescing_direction tries
# u^C entries joined by a chain of gaps this small coalesce, for the snap of
# u^C, the coalescing pairs and the frozen formal series alike
COALESCENCE_TOL = 1e-12


@dataclass(frozen=True)
class MonodromyDataSet:
    """Essential monodromy data extracted at one sample point."""

    u: np.ndarray
    S_r: np.ndarray
    S_r1: np.ndarray
    b: np.ndarray  # diagonal of A (formal monodromy exponent)
    d: np.ndarray  # Levelt integer exponents
    L: np.ndarray
    C_r: np.ndarray
    S_r2: np.ndarray | None = None  # the extras of stokes_relation_check
    C_r1: np.ndarray | None = None
    diag_residuals: tuple[float, float] = (0.0, 0.0)


def collect_data(
    sys: IrregularSystem,
    samples,
    r: int,
    tau: float,
    tol: float = DEFAULT_TOL,
    order: int = 30,
) -> list[MonodromyDataSet]:
    """Flow the system through the samples along the strong flow and
    extract data at each one: S_r, S_{r+1} and C_r, all at the default seed
    radius, and at the first sample also the extras S_{r+2} and C_{r+1} of
    stokes_relation_check (None at the others).

    The first sample must be sys.u.  The samples must lie in one tau-cell:
    each off the walls, and each segment between them free of the wall
    events of `wall_hits`.  The Levelt gauge is computed
    once at the first sample and transported along the flow, which is what
    makes C_r comparable across samples (per-sample re-diagonalization
    would scramble the eigenvector normalization).
    """
    sample_pts = [np.asarray(s, dtype=complex).reshape(-1) for s in samples]
    if np.linalg.norm(sample_pts[0] - sys.u) > 1e-12:
        raise ValueError(f"first sample {sample_pts[0]} is not the system's u {sys.u}")
    for s in sample_pts:
        # off the walls, tau is admissible at s: the X(tau) test is admissibility
        if classify_point(s, tau).on_wall:
            raise WallError(f"sample {s} lies on W(tau)")
    for a, b in zip(sample_pts[:-1], sample_pts[1:]):
        if wall_hits(a, b, tau):
            raise WallError(f"segment {a} -> {b} crosses W(tau); samples not in one cell")

    ld0 = compute_levelt_exponents(sys.A)
    systems, gauges = [sys], [ld0.G]
    for target in sample_pts[1:]:
        cur, (G,) = integrate_flow(systems[-1], UPath.line(systems[-1].u, target), tol=tol,
                                   carry_gauge=gauges[-1])
        systems.append(cur)
        gauges.append(G)
    cfg = StokesConfig(tau=tau, tol=tol)
    # every sample shares J, so one build solves the Levelt series of all
    levelt = build_levelt_solution(sys.A, [[cur.Lambda] for cur in systems],
                                   ld=with_gauge(ld0, gauges, [cur.A for cur in systems]),
                                   K=LEVELT_ORDER)
    # S_r with C_r and S_{r+1} of every sample; C_{r+1} of the first sample,
    # with S_{r+2} last, is what stokes_relation_check reads
    requests = []
    series = compute_formal_coefficients(systems, K=order)
    for p, (cur, ld, fs) in enumerate(zip(systems, levelt, series)):
        requests += [SectorRequest(cur, r, fs, ld=ld),
                     SectorRequest(cur, r + 1, fs, ld=ld if p == 0 else None)]
    *results, S_r2 = run_plan(sector_plan(cfg, requests + [
        SectorRequest(sys, r + 2, requests[0].fs)]), tol)
    return [
        MonodromyDataSet(
            u=cur.u.copy(),
            S_r=res_r.S,
            S_r1=res_r1.S,
            b=np.diag(cur.A).copy(),
            d=ld.d.copy(),
            L=ld.L,
            C_r=res_r.C,
            S_r2=S_r2.S if p == 0 else None,
            C_r1=res_r1.C,
            diag_residuals=(res_r.diag_residual, res_r1.diag_residual),
        )
        for p, (cur, ld, res_r, res_r1)
        in enumerate(zip(systems, levelt, results[::2], results[1::2]))
    ]


def _spread(arrays) -> float:
    """Max over the pairs a, b of `arrays` of max |a - b|; 0 for fewer than two."""
    return float(max((np.max(np.abs(a - b)) for i, a in enumerate(arrays)
                      for b in arrays[i + 1 :]), default=0.0))


def spectrum_spread(mats) -> float:
    """Max over the pairs of `mats` of the largest change of their sorted spectra."""
    return _spread([np.sort_complex(np.linalg.eigvals(M)) for M in mats])


def data_drift(datasets: list[MonodromyDataSet]) -> dict[str, float]:
    """Max pairwise deviation of each datum across the collected samples."""
    out = {key: _spread([getattr(d, attr) for d in datasets])
           for key, attr in (("S_r", "S_r"), ("S_r1", "S_r1"), ("C_r", "C_r"), ("B", "b"))}
    # L is compared through its spectrum (Levelt freedom); D entrywise
    out["L_spectrum"] = spectrum_spread([d.L for d in datasets])
    out["D"] = _spread([d.d for d in datasets])
    return out


def stokes_relation_check(data: MonodromyDataSet) -> dict[str, float]:
    """Residuals of S_{r+2} = e^{-2 pi i B} S_r e^{2 pi i B} and C_{r+1} = C_r S_r."""
    if data.S_r2 is None or data.C_r1 is None:
        raise ValueError("no S_{r+2} and C_{r+1}: collect_data takes them at the first sample only")
    phase = np.exp(2j * np.pi * data.b)
    conj = data.S_r * (phase[None, :] / phase[:, None])  # e^{-2pi i B} S e^{2pi i B}
    return {
        "stokes_period": float(np.max(np.abs(data.S_r2 - conj))),
        "connection_chain": float(np.max(np.abs(data.C_r1 - data.C_r @ data.S_r))),
    }


@dataclass
class CoalescenceReport:
    """Everything the coalescence pipeline measured, plus the verdicts.

    `S_frozen` is S_r of the frozen system at u^C, which with its S_{r+1}
    is the limit the samples are compared against.  Two extraction passes
    over the samples feed the report.  The self-seeded pass (each
    sample seeded with its own formal series) is the accurate one and gates
    the limit and zero-pattern thresholds.  The frozen-seeded pass (every
    sample seeded with the formal series of the frozen system, the only data
    available when the family is known at u^C alone) carries an O(gap) model
    defect, so its deviations and coalescing entries decay linearly in the
    gap; those series realize the monotone-limit and entry-decay fits with a
    measurable signal.  Self-seeded entries that stay below the certified
    floor (30x the extraction error estimate) pass the decay fit by the
    zero-entry convention, mirroring the A_ij = 0 convention of the
    vanishing-order check.
    """

    uC: np.ndarray
    direction: np.ndarray
    gaps: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    S_frozen: np.ndarray
    limit_errors: np.ndarray
    driven_limit_errors: np.ndarray
    entry_fits: dict[tuple[int, int], VanishingFit]  # self-seeded |S_ab|, both orders
    driven_fits: dict[tuple[int, int], VanishingFit]  # frozen-seeded |S_ab|, both orders
    a_fits: dict[tuple[int, int], VanishingFit]  # |A_ij| of the germ, i < j
    flow_vs_germ: float
    entry_floor: float
    pattern_magnitude: float
    decay_ok: bool = False
    limit_ok: bool = False
    pattern_ok: bool = False
    thresholds: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return self.decay_ok and self.limit_ok and self.pattern_ok


def _coalescing_mask(A0: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The n x n mask of the ordered pairs a != b that coalesce at u^C, from
    `coalesced_pairs`, which refuses an A0 that breaks the vanishing or the
    resonance condition of the coalescence theorem there.

    Refuses an A0 that is not n x n and a u^C with no coalescing pair
    (ValueError).
    """
    n = len(ref)
    if A0.shape != (n, n):
        raise ValueError(f"A0 has shape {A0.shape}, u^C has {n} entries")
    co = coalesced_pairs(ref, A0, COALESCENCE_TOL)
    if not co.any():
        raise ValueError("uC has no coalescing pair")
    return co


def ray_family_series(A0, uC, v, co, order: int = 4):
    """Taylor coefficients [A_0, ..., A_order] of the coalesced strong family
    along the ray u(s) = u^C + s v, with A(s) = sum_m A_m s^m, where `co` is
    the mask of the coalescing pairs of u^C that `_coalescing_mask` gave for
    A_0 (verify_coalescence decides it once for every step).

    Write D_ab = u^C_a - u^C_b and G_ab = v_a - v_b.  The flow is
    dA/ds = [Omega, A] with Omega = R o G (entrywise), where
    R = A / (D + s G) off the diagonal.  Off the coalescing pairs the ratio
    series follows from R_t = (A_t - G o R_{t-1}) / D.  On a coalescing pair
    D = 0 and A vanishes at s = 0, so there Omega_t = A_{t+1}.  Matching
    powers of s gives

        (m + 1) A_{m+1} = sum_{t <= m} [Omega_t, A_{m-t}] = base + [X, A_0],

    with base the sum at Omega_m = 0 on the coalescing pairs, and X the
    coalescing entries x of A_{m+1}.  On those pairs this reads
    ((m + 1) I - L) x = base, where L is the matrix of x -> [X, A_0] there,
    L[(c,d),(a,b)] = delta_ca (A_0)_bd - delta_bd (A_0)_ca.  That matrix is
    invertible: `_coalescing_mask` refused an A_0 whose coalescing pairs
    have diagonal entries within 1e-8 of a non-zero integer apart, so the
    diagonal entry m + 1 + (A_0)_cc - (A_0)_dd of row (c, d) is larger than
    1e-8 in modulus, and couplings within a group above PATTERN_TOL, so the
    2 (g - 2) other entries of the row, in a group of g indices, are each at
    most PATTERN_TOL = 1e-10; for groups of fewer than 50 indices the matrix
    is diagonally dominant.  B = diag(A) is constant along a strong family,
    so the diagonal of every A_{m+1} is set to exactly zero.
    """
    A0 = np.asarray(A0, dtype=complex)
    ref = np.asarray(uC, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != ref.shape:
        raise ValueError(f"v has {v.size} entries, u^C has {ref.size}")
    D = ref[:, None] - ref[None, :]
    G = v[:, None] - v[None, :]
    if np.any(G[co] == 0):
        raise ValueError("direction does not split a coalescing pair")
    off = ~co & ~np.eye(len(ref), dtype=bool)
    D = np.where(off, D, 1.0)
    a, b = np.nonzero(co)
    L = (a[:, None] == a) * A0[b, b[:, None]] - (b[:, None] == b) * A0[a[:, None], a]
    coeffs, R, omega = [A0], np.zeros_like(A0), []
    for m in range(order):
        R = off * (coeffs[m] - G * R) / D
        omega.append(R * G)
        base = sum(W @ coeffs[m - t] - coeffs[m - t] @ W for t, W in enumerate(omega))
        x = np.linalg.solve((m + 1) * np.eye(len(a)) - L, base[co])
        X = np.zeros_like(A0)
        X[co] = x
        nxt = (base + X @ A0 - A0 @ X) / (m + 1)
        np.fill_diagonal(nxt, 0.0)
        nxt[co] = x
        omega[m] += X  # Omega_m = A_{m+1} on the coalescing pairs
        coeffs.append(nxt)
    return coeffs


def eval_ray_family(coeffs, s: float) -> np.ndarray:
    return sum(C * (s**m) for m, C in enumerate(coeffs))


def coalescing_direction(uC, tau: float) -> np.ndarray:
    """A unit-gap direction splitting the coalescing group, off the walls.

    Spreads each coalescence group symmetrically along a common angle chosen
    so that the displaced points avoid the crossing locus X(tau) and keep tau
    admissible; the direction is normalized so that the smallest coalescing
    pair gap grows at unit rate.
    """
    ref = np.asarray(uC, dtype=complex).reshape(-1)
    n = len(ref)
    label = coalescence_labels(ref)
    if label.max() == n - 1:
        raise ValueError("uC has no coalescing pair")
    groups = [np.flatnonzero(label == g) for g in range(label.max() + 1)]
    for k in range(DIRECTION_TRIALS):
        phi = 0.35 + k * (math.pi / DIRECTION_TRIALS)
        e = complex(math.cos(phi), math.sin(phi))
        v = np.zeros(n, dtype=complex)
        for grp in groups:
            m = len(grp)
            if m == 1:
                continue
            for rank, idx in enumerate(grp):
                v[idx] = (rank - (m - 1) / 2.0) * e
        gap = min(
            abs(v[i] - v[j]) for grp in groups if len(grp) > 1
            for i in grp for j in grp if i < j
        )
        v = v / gap
        # off the walls, tau is admissible at the probe
        if not classify_point(ref + 0.01 * v, tau).on_wall:
            return v
    raise WallError("no wall-avoiding coalescing direction found")


def verify_coalescence(
    A0,
    uC,
    tau: float,
    eps: float,
    r: int = 0,
    tol: float = DEFAULT_TOL,
    order: int = 30,
) -> CoalescenceReport:
    """Run the coalescence-limit pipeline and assemble the report.

    Entries of u^C that coalesce (chains of gaps <= COALESCENCE_TOL) are set
    equal, so that every step sees one grouping.  Preconditions enforced: A0
    vanishes at every coalescing-pair position and its diagonal entries
    there do not differ by non-zero integers (otherwise the frozen formal
    solution is not unique), both checked by `coalesced_pairs`; tau is
    admissible at u^C in the sub-class sense, checked by `sector_frames`
    widened at u^C; and eps is finite, positive and within the
    parallel-line bound.  The samples lie at GAP_COUNT gaps eps 2^-k.

    The sampled family comes from the local Taylor germ of the coalesced
    strong family along the ray (ray_family_series); the strong flow is
    additionally integrated outward along the ray, one segment from the
    innermost sample to the outermost, and its end value compared against
    the germ's (`flow_vs_germ`), so the reported family is backed by two
    independent constructions.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    A0 = np.asarray(A0, dtype=complex)
    ref = np.asarray(uC, dtype=complex).reshape(-1)
    label = coalescence_labels(ref, COALESCENCE_TOL)
    ref = ref[np.unique(label, return_index=True)[1][label]]
    co = _coalescing_mask(A0, ref)
    pairs = tuple((int(i), int(j)) for i, j in np.argwhere(np.triu(co)))
    sector_frames([ref], tau, [r], uC=ref)  # refuses tau on a sub-class Stokes ray
    if np.any(ref != ref[0]):
        bound = epsilon_bound(ref, tau)
        if eps > bound:
            raise WallError(f"eps = {eps} exceeds the parallel-line bound {bound:.6g}")

    v = coalescing_direction(ref, tau)

    gaps = np.array([eps * 2.0 ** (-k) for k in range(1, GAP_COUNT + 1)])
    samples = np.array([ref + g * v for g in gaps])

    # sampled family: Taylor germ along the ray, flow-validated
    coeffs = ray_family_series(A0, ref, v, co, order=GERM_ORDER)
    A_k = [eval_ray_family(coeffs, g) for g in gaps]
    end, _ = integrate_flow(IrregularSystem(u=samples[-1], A=A_k[-1]),
                            UPath.line(samples[-1], samples[0]), tol=tol, guard=0.0)
    flow_vs_germ = float(np.max(np.abs(end.A - A_k[0])))

    # the frozen system's series is coalescence-aware, each sample's is not;
    # all of them are one stacked recursion
    frozen = IrregularSystem(u=ref, A=A0)
    sample_systems = [IrregularSystem(u=ref + g * v, A=Ak) for g, Ak in zip(gaps, A_k)]
    fs0, *sample_series = compute_formal_coefficients(
        [frozen, *sample_systems], K=order, coalesce_tol=[COALESCENCE_TOL] + [0.0] * GAP_COUNT)
    # frozen system data in the widened frame
    cfg = StokesConfig(tau=tau, tol=tol, uC=ref)
    requests = [SectorRequest(frozen, r, fs0), SectorRequest(frozen, r + 1, fs0)]

    # per sample r and r + 1, self-seeded (each sample's own formal series)
    # and frozen-seeded (only the frozen system's series, with the sample's
    # own exponentials), both in the sample's sector frames; all of it is one
    # sector table and one transport batch, in which the frozen-seeded passes
    # share the frozen series and its truncation
    for sysk, fsk in zip(sample_systems, sample_series):
        fs_driven = FormalSolution(b=fs0.b, u=sysk.u, F=fs0.F)
        requests += [SectorRequest(sysk, k, fs) for fs in (fsk, fs_driven) for k in (r, r + 1)]
    S0_frozen, S1_frozen, *sampled = run_plan(sector_plan(cfg, requests), tol)
    self_r, self_r1, driven_r, driven_r1 = (sampled[i::4] for i in range(4))
    S_samples = [res.S for res in self_r]
    S1_samples = [res.S for res in self_r1]
    floors = [max(a.error_estimate, b.error_estimate) for a, b in zip(self_r, self_r1)]
    S_driven = [res.S for res in driven_r]
    S1_driven = [res.S for res in driven_r1]

    limit_errors, driven_limit_errors = (
        np.array([max(float(np.max(np.abs(S - S0_frozen.S))),
                      float(np.max(np.abs(S1 - S1_frozen.S)))) for S, S1 in zip(Ss, S1s)])
        for Ss, S1s in ((S_samples, S1_samples), (S_driven, S1_driven))
    )

    def fits(mats, entries, **kw):
        """Vanishing fit of |M_ab| over the gaps for every (a, b) of entries;
        kw goes on to vanishing_order_check."""
        return {p: vanishing_order_check(gaps, [abs(M[p]) for M in mats], **kw)
                for p in entries}

    entry_floor = 30.0 * max(floors)
    both = [p for i, j in pairs for p in ((i, j), (j, i))]
    entry_fits = fits(S_samples, both, floor=entry_floor)

    pattern_magnitude = max(f.magnitudes[-1] for f in entry_fits.values())
    decay_ok = all(f.passed for f in entry_fits.values())
    # gate on the accurate pass at the tightest gap; the frozen-seeded pass
    # carries the monotone O(gap) convergence statement (steps already at the
    # noise scale, far below the threshold, are exempt)
    monotone = all(b <= max(1.5 * a, 0.01 * LIMIT_THRESHOLD)
                   for a, b in zip(driven_limit_errors[:-1], driven_limit_errors[1:]))
    limit_ok = bool(limit_errors[-1] <= LIMIT_THRESHOLD) and monotone
    pattern_ok = bool(pattern_magnitude <= PATTERN_THRESHOLD)

    return CoalescenceReport(
        uC=ref,
        direction=v,
        gaps=gaps,
        pairs=pairs,
        S_frozen=S0_frozen.S,
        limit_errors=limit_errors,
        driven_limit_errors=driven_limit_errors,
        entry_fits=entry_fits,
        driven_fits=fits(S_driven, both),
        a_fits=fits(A_k, pairs),
        flow_vs_germ=flow_vs_germ,
        entry_floor=float(entry_floor),
        pattern_magnitude=float(pattern_magnitude),
        decay_ok=decay_ok,
        limit_ok=limit_ok,
        pattern_ok=pattern_ok,
        thresholds={
            "limit": LIMIT_THRESHOLD,
            "pattern": PATTERN_THRESHOLD,
            "slope": SLOPE_THRESHOLD,
        },
    )
