"""End-to-end verification suites.

Strong-isomonodromy runs flow a system from its own u through in-cell
sample points while transporting the Levelt gauge (dG = sum_j omega_j(0)
du_j G keeps the Jordan form constant), then extract the essential
monodromy data (S_r, S_{r+1}, B, D, L, C_r) per sample and compare.

Coalescence runs probe the limit u -> u^C for a residue matrix carrying the
required zero pattern on coalescing pairs.  For each gap in a geometric
schedule, the strong flow is integrated outward from an initialization point
at a fraction of that gap (where the family's value is the frozen matrix up
to higher order), and Stokes data are extracted in the widened sector frame
anchored at u^C.  The coalescing-pair entries then decay linearly in the
gap, and the full matrices converge to the data of the frozen system, which
are computed directly from the coalescence-aware recursion.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AdmissibilityError, ResonanceError, WallError
from .formal import (
    FormalSolution,
    IrregularSystem,
    check_resonances,
    compute_formal_coefficients,
)
from .geometry import (
    classify_point,
    coalescence_labels,
    epsilon_bound,
    is_admissible,
    same_cell,
)
from .isoflow import (
    DiagonalGauge,
    UPath,
    VanishingFit,
    _check_flowable,
    integrate_flow,
    vanishing_order_check,
)
from .levelt import build_levelt_solution, compute_levelt_exponents, with_gauge
from .odeengine import DEFAULT_TOL, SectorRequest, StokesConfig, run_plan, sector_plan

LEVELT_ORDER = 20  # Taylor terms of every Levelt solution the pipelines build
# verify_coalescence: germ order, the |A0| entry at a coalescing pair that
# counts as zero, and the thresholds of its limit, pattern and slope verdicts
GERM_ORDER = 6
PATTERN_TOL = 1e-10
LIMIT_THRESHOLD = 1e-5
PATTERN_THRESHOLD = 1e-6
SLOPE_THRESHOLD = 0.9
DIRECTION_TRIALS = 16  # angles coalescing_direction tries


@dataclass(frozen=True)
class MonodromyDataSet:
    """Essential monodromy data extracted at one sample point."""

    u: np.ndarray
    r: int
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
    gauge: DiagonalGauge | None = None,
) -> list[MonodromyDataSet]:
    """Flow the system through the samples (weakly if `gauge` is given) and
    extract data at each one: S_r, S_{r+1} and C_r, all at the default seed
    radius, and at the first sample also the extras S_{r+2} and C_{r+1} of
    stokes_relation_check (None at the others).

    The first sample must be sys.u; nonzero higher poles, which the flow
    cannot carry, are refused.  The samples must lie in one tau-cell (checked
    pointwise for wall membership); the Levelt gauge is computed once at
    the first sample and transported along the flow, which is what makes
    C_r comparable across samples (per-sample re-diagonalization would
    scramble the eigenvector normalization).
    """
    _check_flowable(sys, gauge, "data collection along the flow")
    sample_pts = [np.asarray(s, dtype=complex).reshape(-1) for s in samples]
    if np.linalg.norm(sample_pts[0] - sys.u) > 1e-12:
        raise ValueError(f"first sample {sample_pts[0]} is not the system's u {sys.u}")
    for s in sample_pts:
        # off the walls, tau is admissible at s: the X(tau) test is admissibility
        if classify_point(s, tau).on_wall:
            raise WallError(f"sample {s} lies on W(tau)")
    for a, b in zip(sample_pts[:-1], sample_pts[1:]):
        if not same_cell(a, b, tau):
            raise WallError(f"segment {a} -> {b} crosses W(tau); samples not in one cell")

    ld0 = compute_levelt_exponents(sys.A)
    systems, gauges = [sys], [ld0.G]
    for target in sample_pts[1:]:
        cur, trace = integrate_flow(systems[-1], UPath.line(systems[-1].u, target), tol=tol,
                                    gauge=gauge, carry_gauge=gauges[-1])
        systems.append(cur)
        gauges.append(trace.G[-1])
    cfg = StokesConfig(tau=tau, tol=tol, order=order)
    requests, levelt = [], []
    for cur, G in zip(systems, gauges):
        fs = compute_formal_coefficients(cur, K=order)
        ld = build_levelt_solution(cur.A, [cur.Lambda], ld=with_gauge(ld0, G, cur.A),
                                   K=LEVELT_ORDER)
        levelt.append(ld)
        requests += [
            SectorRequest(cur, r, fs),
            SectorRequest(cur, r + 1, fs),
            SectorRequest(cur, r, fs, "connection", ld=ld),
        ]
    # S_{r+2} and C_{r+1} of the first sample, which stokes_relation_check reads
    extras = [SectorRequest(sys, r + 2, requests[0].fs),
              SectorRequest(sys, r + 1, requests[0].fs, "connection", ld=levelt[0])]
    *results, S_r2, C_r1 = run_plan(sector_plan(cfg, requests + extras), tol)
    return [
        MonodromyDataSet(
            u=cur.u.copy(),
            r=r,
            S_r=res_r.S,
            S_r1=res_r1.S,
            b=np.diag(cur.A).copy(),
            d=ld.d.copy(),
            L=ld.L,
            C_r=C_r,
            S_r2=S_r2.S if p == 0 else None,
            C_r1=C_r1 if p == 0 else None,
            diag_residuals=(res_r.diag_residual, res_r1.diag_residual),
        )
        for p, (cur, ld, (res_r, res_r1, C_r))
        in enumerate(zip(systems, levelt, zip(*[iter(results)] * 3)))
    ]


def data_drift(datasets: list[MonodromyDataSet]) -> dict[str, float]:
    """Max pairwise deviation of each datum across the collected samples."""

    def spread(key):
        mats = [getattr(d, key) for d in datasets]
        return float(
            max(
                np.max(np.abs(a - b))
                for i, a in enumerate(mats)
                for b in mats[i + 1 :]
            )
        ) if len(mats) > 1 else 0.0

    out = {
        "S_r": spread("S_r"),
        "S_r1": spread("S_r1"),
        "C_r": spread("C_r"),
        "B": spread("b"),
    }
    # L is compared through its spectrum (Levelt freedom); D entrywise
    specs = [np.sort_complex(np.linalg.eigvals(d.L)) for d in datasets]
    out["L_spectrum"] = float(
        max(
            (np.max(np.abs(a - b)) for i, a in enumerate(specs) for b in specs[i + 1 :]),
            default=0.0,
        )
    )
    out["D"] = float(
        max(
            (np.max(np.abs(a.d - b.d)) for i, a in enumerate(datasets) for b in datasets[i + 1 :]),
            default=0.0,
        )
    )
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

    `S_frozen` and `S1_frozen` are S_r and S_{r+1} of the frozen system at
    u^C, the limit the samples are compared against.  Two extraction passes
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
    samples: np.ndarray
    r: int
    tau: float
    pairs: tuple[tuple[int, int], ...]
    S_frozen: np.ndarray
    S1_frozen: np.ndarray
    S_samples: list[np.ndarray]
    S1_samples: list[np.ndarray]
    limit_errors: np.ndarray
    driven_limit_errors: np.ndarray
    entry_magnitudes: dict[tuple[int, int], np.ndarray]
    entry_fits: dict[tuple[int, int], "VanishingFit"]
    driven_entry_magnitudes: dict[tuple[int, int], np.ndarray]
    driven_entry_slopes: dict[tuple[int, int], float]
    a_entry_slopes: dict[tuple[int, int], float]
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

    def to_csv(self, path) -> None:
        """Write (gap, entry magnitude) rows for every fitted pair."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pair_i", "pair_j", "seeding", "gap", "entry_magnitude"])
            for (i, j), mags in self.entry_magnitudes.items():
                for g, m in zip(self.gaps, mags):
                    w.writerow([i, j, "self", repr(float(g)), repr(float(m))])
            for (i, j), mags in self.driven_entry_magnitudes.items():
                for g, m in zip(self.gaps, mags):
                    w.writerow([i, j, "frozen", repr(float(g)), repr(float(m))])


def ray_family_series(A0, uC, v, order: int = 4):
    """Taylor coefficients of the coalesced strong family along a ray.

    On u(s) = u^C + s v the flow dA/ds = sum_j v_j [omega_j(0), A] is 0/0 at
    s = 0 for coalescing pairs, but on the vanishing-compatible family the
    ratios A_ab/(u_a - u_b) extend analytically, with the order-m ratio
    coefficient involving the order-(m+1) entry of A.  Matching powers of s
    therefore determines A_{m+1} up to its coalescing-pair entries, which
    solve a small linear system (nonsingular when the diagonal entries of the
    pair do not differ by negative integers).  Returns [A_0, ..., A_order]
    with A(s) = sum_m A_m s^m.
    """
    A0 = np.asarray(A0, dtype=complex)
    ref = np.asarray(uC, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = len(ref)
    label = coalescence_labels(ref, 1e-12)
    unknowns = [(a, b) for a in range(n) for b in range(n) if a != b and label[a] == label[b]]
    if any(v[a] == v[b] for a, b in unknowns):
        raise ValueError("direction does not split a coalescing pair")
    co = set(unknowns)

    dmat = ref[:, None] - ref[None, :]
    gmat = v[:, None] - v[None, :]

    def g_coeff(coeffs, m, x):
        """Order-m coefficient of sum_j v_j [W_j(s), A(s)].

        `coeffs` holds A_0..A_m; `x` maps coalescing entries to the
        candidate (A_{m+1})_{ab} values they contribute to the ratio series.
        """
        # ratio series R(s) up to order m
        R = [np.zeros((n, n), dtype=complex) for _ in range(m + 1)]
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                if (a, b) in co:
                    for t in range(m + 1):
                        nxt = (
                            coeffs[t + 1][a, b]
                            if t + 1 <= m
                            else x.get((a, b), 0.0)
                        )
                        R[t][a, b] += nxt / gmat[a, b]
                else:
                    # 1/(d + s*g) = (1/d) sum_t (-g/d)^t s^t
                    d, g = dmat[a, b], gmat[a, b]
                    for t in range(m + 1):
                        acc = 0.0 + 0.0j
                        for q in range(t + 1):
                            acc += coeffs[t - q][a, b] * (-g / d) ** q / d
                        R[t][a, b] += acc
        out = np.zeros((n, n), dtype=complex)
        for t in range(m + 1):
            Wsum = R[t] * gmat  # sum_j v_j W_j: entry (a, b) is R_ab (v_a - v_b)
            out += Wsum @ coeffs[m - t] - coeffs[m - t] @ Wsum
        return out

    coeffs = [A0]
    for m in range(order):
        base = g_coeff(coeffs, m, {p: 0.0 for p in unknowns})
        cols = []
        for p in unknowns:
            probe = {q: (1.0 if q == p else 0.0) for q in unknowns}
            cols.append(g_coeff(coeffs, m, probe) - base)
        k = len(unknowns)
        Mmat = np.zeros((k, k), dtype=complex)
        rhs = np.zeros(k, dtype=complex)
        for a_idx, p in enumerate(unknowns):
            rhs[a_idx] = base[p]
            for b_idx in range(k):
                Mmat[a_idx, b_idx] = cols[b_idx][p]
        # (m+1) x = base + L x  =>  ((m+1) I - L) x = base
        try:
            x = np.linalg.solve((m + 1) * np.eye(k) - Mmat, rhs)
        except np.linalg.LinAlgError as exc:
            raise ResonanceError(
                f"ray-family recursion singular at order {m + 1}", order=m + 1
            ) from exc
        xmap = {p: x[i] for i, p in enumerate(unknowns)}
        Gm = g_coeff(coeffs, m, xmap)
        Anext = Gm / (m + 1)
        # diag [Omega, A] = 0 for symmetric K: B = diag(A) is constant along
        # a strong family, and is kept so exactly, not up to round-off
        np.fill_diagonal(Anext, 0.0)
        for i, p in enumerate(unknowns):
            Anext[p] = x[i]
        coeffs.append(Anext)
    return coeffs


def eval_ray_family(coeffs, s: float) -> np.ndarray:
    out = np.zeros_like(coeffs[0])
    for m, C in enumerate(coeffs):
        out = out + C * (s**m)
    return out


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
    n_gaps: int = 6,
    tol: float = DEFAULT_TOL,
    order: int = 30,
) -> CoalescenceReport:
    """Run the coalescence-limit pipeline and assemble the report.

    Preconditions enforced: A0 vanishes at every coalescing-pair position,
    its diagonal entries there do not differ by non-zero integers (otherwise
    the frozen formal solution is not unique), tau is admissible at u^C in
    the sub-class sense, and eps respects the parallel-line bound.

    The sampled family comes from the local Taylor germ of the coalesced
    strong family along the ray (ray_family_series); the strong flow is
    additionally integrated outward from the innermost sample through all of
    them and compared against the germ, so the reported family is backed by
    two independent constructions.
    """
    A0 = np.asarray(A0, dtype=complex)
    ref = np.asarray(uC, dtype=complex).reshape(-1)
    label = coalescence_labels(ref, 1e-12)
    pairs = tuple((i, j) for i in range(len(ref)) for j in range(i + 1, len(ref))
                  if label[i] == label[j])
    if not pairs:
        raise ValueError("uC has no coalescing pair")
    for i, j in pairs:
        if abs(A0[i, j]) > PATTERN_TOL or abs(A0[j, i]) > PATTERN_TOL:
            raise WallError(
                f"vanishing condition violated at u^C: A[{i},{j}] or A[{j},{i}] nonzero"
            )
    res_pairs = [
        (i, j, k) for (i, j, k) in check_resonances(A0) if (min(i, j), max(i, j)) in pairs
    ]
    if res_pairs:
        raise ResonanceError(
            "diagonal entries of coalescing pairs differ by non-zero integers "
            f"{res_pairs}; the frozen formal solution is not unique",
        )
    adm = is_admissible(tau, ref, subclass_at=ref)
    if not adm:
        raise AdmissibilityError("tau not admissible at u^C in the sub-class sense")
    if np.any(ref != ref[0]):
        bound = epsilon_bound(ref, tau)
        if eps > bound:
            raise WallError(f"eps = {eps} exceeds the parallel-line bound {bound:.6g}")

    v = coalescing_direction(ref, tau)

    gaps = np.array([eps * 2.0 ** (-k) for k in range(1, n_gaps + 1)])
    samples = np.array([ref + g * v for g in gaps])

    # frozen system data in the widened frame (coalescence-aware recursion)
    frozen = IrregularSystem(u=ref, A=A0)
    fs0 = compute_formal_coefficients(frozen, K=order, coalesce_tol=1e-9)
    cfg = StokesConfig(tau=tau, tol=tol, order=order, widened=True, uC=ref)
    requests = [SectorRequest(frozen, r, fs0), SectorRequest(frozen, r + 1, fs0)]

    # sampled family: Taylor germ along the ray, flow-validated
    coeffs = ray_family_series(A0, ref, v, order=GERM_ORDER)
    A_k = [eval_ray_family(coeffs, g) for g in gaps]
    end, _ = integrate_flow(IrregularSystem(u=samples[-1], A=A_k[-1]),
                            UPath(waypoints=tuple(samples[::-1])), tol=tol, guard=0.0)
    flow_vs_germ = float(np.max(np.abs(end.A - A_k[0])))

    # per sample r and r + 1, self-seeded (each sample's own formal series)
    # and frozen-seeded (only the frozen system's series, with the sample's
    # own exponentials), both in the sample's sector frames; all of it is one
    # sector table and one transport batch, in which the frozen-seeded passes
    # share the frozen series and its truncation
    for g, Ak in zip(gaps, A_k):
        sysk = IrregularSystem(u=ref + g * v, A=Ak)
        fsk = compute_formal_coefficients(sysk, K=order)
        fs_driven = FormalSolution(b=fs0.b, u=sysk.u, F=fs0.F, mode="frozen-seeded")
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

    entry_floor = 30.0 * max(floors)
    entry_magnitudes, entry_fits = {}, {}
    driven_entry_magnitudes, driven_entry_slopes = {}, {}
    for i, j in pairs:
        for a, b in ((i, j), (j, i)):
            mags = np.array([abs(S[a, b]) for S in S_samples])
            entry_magnitudes[(a, b)] = mags
            entry_fits[(a, b)] = vanishing_order_check(
                gaps, mags, pair=(a, b), slope_threshold=SLOPE_THRESHOLD,
                floor=entry_floor,
            )
            dmags = np.array([abs(S[a, b]) for S in S_driven])
            driven_entry_magnitudes[(a, b)] = dmags
            driven_entry_slopes[(a, b)] = vanishing_order_check(
                gaps, dmags, pair=(a, b), slope_threshold=SLOPE_THRESHOLD
            ).slope

    a_entry_slopes = {}
    for p in pairs:
        mags = np.array([abs(Ak[p]) for Ak in A_k])
        a_entry_slopes[p] = vanishing_order_check(
            gaps, mags, pair=p, slope_threshold=SLOPE_THRESHOLD
        ).slope

    pattern_magnitude = max(
        max(abs(S_samples[-1][i, j]), abs(S_samples[-1][j, i])) for i, j in pairs
    )
    decay_ok = all(f.passed for f in entry_fits.values())
    # gate on the accurate pass at the tightest gap; the frozen-seeded pass
    # carries the monotone O(gap) convergence statement (steps already at the
    # noise scale, far below the threshold, are exempt)
    monotone = all(
        driven_limit_errors[k + 1]
        <= max(1.5 * driven_limit_errors[k], 0.01 * LIMIT_THRESHOLD)
        for k in range(len(gaps) - 1)
    )
    limit_ok = bool(limit_errors[-1] <= LIMIT_THRESHOLD) and monotone
    pattern_ok = bool(pattern_magnitude <= PATTERN_THRESHOLD)

    return CoalescenceReport(
        uC=ref,
        direction=v,
        gaps=gaps,
        samples=samples,
        r=r,
        tau=tau,
        pairs=pairs,
        S_frozen=S0_frozen.S,
        S1_frozen=S1_frozen.S,
        S_samples=S_samples,
        S1_samples=S1_samples,
        limit_errors=limit_errors,
        driven_limit_errors=driven_limit_errors,
        entry_magnitudes=entry_magnitudes,
        entry_fits=entry_fits,
        driven_entry_magnitudes=driven_entry_magnitudes,
        driven_entry_slopes=driven_entry_slopes,
        a_entry_slopes=a_entry_slopes,
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
