"""Limit-theorem verifiers and the experiment suite runner.

One verifier per limit statement, each comparing exact finite-n laws (or
Monte Carlo ensembles, only where the functional involves order statistics
or point configurations) against the closed-form limits:

=====================  =====================================================
verifier               statement checked
=====================  =====================================================
dense_llt              count local limit law against the stable density
dense_extremes         largest-component laws (Frechet / vanishing maximum)
prefix_independence    total-variation decay of i.i.d. prefix approximation
convergent             count convergence, giant-component deficit law
mixture                split probability and both conditional behaviours
dilute                 count LLT and cdf, mixed-Poisson counts, point process
extended               prefactor regimes and product-structure symmetry
=====================  =====================================================

Verdicts are deterministic given (config, seed): Monte Carlo streams are
counter-based and keyed per replicate, report assembly follows declaration
order, and runtimes are written to a separate file so that verdicts.json is
byte-for-byte reproducible.

Tolerances are artifact choices (the limit statements carry no rates); every
default is overridable in the config and echoed in the reports.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chi2_contingency, chisquare, kstest

from . import exact, laws, sampling
from .exact import DiscreteLaw, tv_distance
from .phases import Phase, PhaseReport, classify
from .schemes import bundled_names, bundled_scheme
from .series import fsum
from .weights import SchemeSpec

__all__ = [
    "VerdictReport",
    "PhaseMismatchError",
    "SuiteConfigError",
    "verify_dense_llt",
    "verify_dense_extremes",
    "verify_prefix_independence",
    "verify_convergent",
    "verify_mixture",
    "verify_dilute",
    "verify_extended",
    "run_suite",
]


class PhaseMismatchError(ValueError):
    """The scheme's phase does not expose the statistic this verifier tests."""


class SuiteConfigError(ValueError):
    """The experiment configuration is malformed."""


@dataclass
class VerdictReport:
    """Outcome of one metric of one experiment.

    ``passed`` is True iff the final-n observation meets the tolerance;
    ``trend_nonincreasing`` records whether observations decay along the
    n-ladder (None for single-n metrics).
    """

    experiment: str
    scheme_fingerprint: str
    n_values: list[int]
    metric: str
    observed: list[float]
    tolerance: float
    passed: bool
    trend_nonincreasing: bool | None = None
    details: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0

    def to_json(self) -> dict:
        # runtime is deliberately excluded: verdicts must be byte-stable
        return _py(
            {
                "experiment": self.experiment,
                "scheme_fingerprint": self.scheme_fingerprint,
                "n_values": self.n_values,
                "metric": self.metric,
                "observed": self.observed,
                "tolerance": self.tolerance,
                "passed": self.passed,
                "trend_nonincreasing": self.trend_nonincreasing,
                "details": self.details,
            }
        )


def _py(obj):
    """Recursively convert numpy scalars/arrays to plain Python objects."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def _finish(report: VerdictReport, t0: float) -> VerdictReport:
    report.runtime_seconds = time.time() - t0
    return report


def _nonincreasing(values) -> bool:
    return all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def _require(report: PhaseReport, phases, verifier: str) -> None:
    if report.phase not in phases:
        raise PhaseMismatchError(
            f"{verifier} needs a scheme in {[p.value for p in phases]}, "
            f"got {report.phase.value}"
        )


# ---------------------------------------------------------------------------
# dense case


def _llt_discrepancy(
    law: DiscreteLaw, rep: PhaseReport, n: int, window: float
) -> tuple[float, np.ndarray]:
    """Sup over the central window of |scale * pmf - h(x)| plus the csv rows."""
    scale = rep.nn_scale(n)
    center = n / rep.mu
    stable = laws.StableParams(rep.alpha, rep.gamma, -1.0)
    lo = max(0, int(center - window * scale))
    hi = min(law.pmf.size - 1, int(math.ceil(center + window * scale)))
    ells = np.arange(lo, hi + 1)
    xs = (ells - center) / scale
    h = np.array([laws.stable_density_series(stable, x) for x in xs])
    scaled = scale * law.pmf[lo : hi + 1]
    rows = np.column_stack([ells, xs, scaled, h])
    return float(np.max(np.abs(scaled - h))), rows


def verify_dense_llt(
    scheme: SchemeSpec,
    n_ladder,
    tol: float = 0.05,
    window: float = 8.0,
    report: PhaseReport | None = None,
):
    """Exact count law against the stable local limit density.

    The sup runs over a window of +/- ``window`` fluctuation scales around
    n/mu (outside it both sides vanish); no Monte Carlo is involved.
    """
    t0 = time.time()
    rep = classify(scheme) if report is None else report
    _require(rep, (Phase.dense_critical, Phase.dense_supercritical, Phase.mixture), "dense_llt")
    if rep.scale_L is None:
        raise PhaseMismatchError("dense_llt needs expressible scale constants")
    observed = []
    csvs = {}
    conditional = rep.phase is Phase.mixture
    for n in n_ladder:
        law = exact.law_Nn(scheme, n)
        if conditional:
            thresh = int(math.ceil(n / (2.0 * rep.mu)))
            pmf = law.pmf.copy()
            pmf[:thresh] = 0.0
            law = DiscreteLaw(pmf / fsum(pmf), 1.0)
        disc, rows = _llt_discrepancy(law, rep, n, window)
        observed.append(disc)
        csvs[n] = (["ell", "x", "scaled_pmf", "limit_density"], rows)
    out = VerdictReport(
        experiment="dense_llt",
        scheme_fingerprint=scheme.fingerprint(),
        n_values=list(n_ladder),
        metric="sup-LLT-discrepancy",
        observed=observed,
        tolerance=tol,
        passed=observed[-1] <= tol and _nonincreasing(observed),
        trend_nonincreasing=_nonincreasing(observed),
        details={"window": window, "conditional_on_split_event": conditional},
    )
    return [_finish(out, t0)], csvs


def verify_dense_extremes(
    scheme: SchemeSpec,
    n,
    replicates: int = 10000,
    seed: int = 1,
    tol: float = 0.1,
    report: PhaseReport | None = None,
):
    """Largest-component laws by Monte Carlo.

    1 < alpha < 2: Kolmogorov-Smirnov of the rescaled maximum against the
    closed-form ranked-jump cdf at a single n.  alpha = 2: the rescaled
    maximum degenerates to 0; the 0.9-quantile must shrink along the ladder
    (tolerance = the first-n quantile).  Both variants also check that the
    count of components at a deliberately rare size stays zero.
    """
    t0 = time.time()
    rep = classify(scheme) if report is None else report
    _require(rep, (Phase.dense_critical, Phase.dense_supercritical), "dense_extremes")
    ladder = [n] if isinstance(n, int) else list(n)
    reports = []
    csvs = {}
    px = exact.law_X(scheme, exact.default_rho(scheme, max(ladder)), max(ladder)).pmf

    maxima_by_n = {}
    zero_hits = 0
    k_rare = None
    k_common = int(np.nonzero(px[1:])[0][0]) + 1  # smallest positive size
    common_counts = 0.0
    for ni in ladder:
        smp = sampling.ExactSampler(scheme, ni)
        scale = rep.nn_scale(ni)
        lam_target = 0.005
        if ni == ladder[-1]:
            expected = (ni / rep.mu) * px
            cand = np.nonzero(expected < lam_target)[0]
            cand = cand[px[cand] > 0] if cand.size else cand
            k_rare = int(cand[0]) if cand.size else None
        maxima = np.empty(replicates)
        for i in range(replicates):
            s = smp.sample(sampling.make_rng(seed, i))
            maxima[i] = s.sizes.max() / scale
            if ni == ladder[-1]:
                if k_rare is not None:
                    zero_hits += int(np.count_nonzero(s.sizes == k_rare) == 0)
                common_counts += int(np.count_nonzero(s.sizes == k_common))
        maxima_by_n[ni] = maxima
        csvs[ni] = (["normalized_max"], maxima.reshape(-1, 1))

    if 1.0 < rep.alpha < 2.0:
        law = laws.frechet_law(rep.mu, rep.alpha, 1)
        ks = float(kstest(maxima_by_n[ladder[-1]], lambda x: law.cdf(x)).statistic)
        reports.append(
            VerdictReport(
                "dense_extremes",
                scheme.fingerprint(),
                [ladder[-1]],
                "KS",
                [ks],
                tol,
                ks <= tol,
                None,
                {"replicates": replicates, "rank": 1},
            )
        )
    else:
        quantiles = [float(np.quantile(maxima_by_n[ni], 0.9)) for ni in ladder]
        dec = _nonincreasing(quantiles) and (len(ladder) == 1 or quantiles[-1] < quantiles[0])
        reports.append(
            VerdictReport(
                "dense_extremes",
                scheme.fingerprint(),
                ladder,
                "max-q90-shrinks",
                quantiles,
                quantiles[0],
                dec,
                _nonincreasing(quantiles),
                {"replicates": replicates, "note": "alpha=2: rescaled maximum degenerates"},
            )
        )
    if k_rare is not None:
        frac = zero_hits / replicates
        reports.append(
            VerdictReport(
                "dense_extremes_rare_size",
                scheme.fingerprint(),
                [ladder[-1]],
                "zero-count-fraction",
                [1.0 - frac],
                0.01,
                frac >= 0.99,
                None,
                {"size": k_rare, "poisson_rate_target": 0.005},
            )
        )
    # counts at an abundant size concentrate: #_k / ((n/mu) P(X=k)) -> 1
    n_fin = ladder[-1]
    target = (n_fin / rep.mu) * px[k_common]
    ratio = common_counts / replicates / target
    reports.append(
        VerdictReport(
            "dense_extremes_concentration",
            scheme.fingerprint(),
            [n_fin],
            "rel-error",
            [abs(ratio - 1.0)],
            0.05,
            abs(ratio - 1.0) <= 0.05,
            None,
            {"size": k_common, "mean_count_target": target},
        )
    )
    return [_finish(r, t0) for r in reports], csvs


def verify_prefix_independence(scheme: SchemeSpec, n_ladder, tol: float = 0.05):
    """Exact total variation of prefix laws against i.i.d. products.

    No phase gate: the verdict itself is the test (degenerate schemes must
    fail it, which prevents vacuous passes).
    """
    t0 = time.time()
    reports = []
    csvs = {}
    for m in (1, 2):
        tvs = []
        for n in n_ladder:
            pl = exact.prefix_law(scheme, n, m)
            tvs.append(pl.tv_to_iid)
            if m == 1:
                px = exact.law_X(scheme, exact.default_rho(scheme, n), n).pmf
                rows = np.column_stack([np.arange(n + 1), pl.joint, px])
                csvs[n] = (["k", "prefix_pmf", "iid_pmf"], rows)
        reports.append(
            VerdictReport(
                f"prefix_independence_m{m}",
                scheme.fingerprint(),
                list(n_ladder),
                "TV",
                tvs,
                tol,
                tvs[-1] <= tol and _nonincreasing(tvs),
                _nonincreasing(tvs),
                {"coordinates": m},
            )
        )
    return [_finish(r, t0) for r in reports], csvs


def verify_convergent(
    scheme: SchemeSpec,
    n: int,
    tol: float = 0.1,
    replicates: int = 4000,
    seed: int = 1,
    report: PhaseReport | None = None,
    skip_mc: bool = False,
):
    """Count convergence and giant-component deficit, exactly; plus a Monte
    Carlo chi-square spot check of (count, second-largest size) against the
    giant-replacement limit tuple."""
    t0 = time.time()
    rep = classify(scheme) if report is None else report
    if rep.phase is Phase.unclassified:
        raise PhaseMismatchError("convergent verifier needs a classified scheme")
    law = exact.law_Nn(scheme, n)
    nhat = exact.law_Nhat(scheme, law.pmf.size - 1)
    tv_counts = tv_distance(law, nhat)
    exact_d, limit_d = exact.giant_deficit_law(scheme, n)
    tv_deficit = tv_distance(exact_d, limit_d)
    fp = scheme.fingerprint()
    reports = [
        VerdictReport(
            "convergent_counts", fp, [n], "TV", [tv_counts], tol, tv_counts <= tol
        ),
        VerdictReport(
            "convergent_deficit", fp, [n], "TV", [tv_deficit], tol, tv_deficit <= tol
        ),
    ]
    csvs = {
        n: (
            ["d", "exact_deficit_pmf", "limit_deficit_pmf"],
            np.column_stack(
                [np.arange(exact_d.pmf.size), exact_d.pmf, limit_d.pmf]
            ),
        )
    }
    if not skip_mc:
        reports.append(_convergent_mc(scheme, n, replicates, seed, nhat, fp))
    return [_finish(r, t0) for r in reports], csvs


def _second_largest(sizes: np.ndarray) -> int:
    if sizes.size < 2:
        return 0
    return int(np.partition(sizes, -2)[-2])


def _convergent_mc(scheme, n, replicates, seed, nhat, fp) -> VerdictReport:
    """Two-sample chi-square on (count, clipped second-largest size)."""
    rho = exact.default_rho(scheme, n)
    px = exact.law_X(scheme, rho, n).pmf
    cdf_x = np.cumsum(px)
    cdf_nhat = np.cumsum(nhat.pmf)
    smp = sampling.ExactSampler(scheme, n)
    n_clip, s_clip = 6, 8

    def cell(count, second):
        return (min(count, n_clip), min(second, s_clip))

    obs: dict = {}
    lim: dict = {}
    for i in range(replicates):
        rng = sampling.make_rng(seed, i)
        s = smp.sample(rng)
        key = cell(s.n_components, _second_largest(s.sizes))
        obs[key] = obs.get(key, 0) + 1
        # limit tuple: N-hat - 1 i.i.d. sizes plus the giant remainder
        rng2 = sampling.make_rng(seed + 1, i)
        nh = int(np.searchsorted(cdf_nhat, rng2.random() * cdf_nhat[-1], side="left"))
        small = np.searchsorted(cdf_x, rng2.random(max(nh - 1, 0)) * cdf_x[-1], side="left")
        tup = np.concatenate([small, [n - small.sum()]])
        key = cell(tup.size, _second_largest(tup))
        lim[key] = lim.get(key, 0) + 1
    keys = sorted(set(obs) | set(lim))
    table = np.array([[obs.get(k, 0) for k in keys], [lim.get(k, 0) for k in keys]])
    keep = table.sum(axis=0) >= 10
    table = np.column_stack([table[:, keep], table[:, ~keep].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    p_value = float(chi2_contingency(table).pvalue) if table.shape[1] > 1 else 1.0
    return VerdictReport(
        "convergent_fragments",
        fp,
        [n],
        "chi2-pvalue",
        [p_value],
        1e-3,
        p_value > 1e-3,
        None,
        {"replicates": replicates, "cells": int(table.shape[1]),
         "note": "pass means p-value above tolerance"},
    )


def verify_mixture(
    scheme: SchemeSpec,
    n_ladder,
    tol: float = 0.05,
    cond_tol: float = 0.1,
    window: float = 8.0,
    report: PhaseReport | None = None,
):
    """Split probability against both candidate limits, conditional dense
    LLT on the split event, conditional count convergence off it.

    The two candidates are p and p/(1+p) (the stopped-sum decomposition
    supports the latter); the verdict records which one the exact
    probability approaches.
    """
    t0 = time.time()
    rep = classify(scheme) if report is None else report
    _require(rep, (Phase.mixture,), "mixture")
    fp = scheme.fingerprint()
    p, p_frac = rep.mixture_p, rep.mixture_p_frac
    dists, winners, pes, cond_discs, tvs_conv = [], [], [], [], []
    csvs = {}
    nhat = None
    for n in n_ladder:
        law = exact.law_Nn(scheme, n)
        thresh = int(math.ceil(n / (2.0 * rep.mu)))
        pe = fsum(law.pmf[thresh:])
        pes.append(pe)
        d_p, d_frac = abs(pe - p), abs(pe - p_frac)
        dists.append(min(d_p, d_frac))
        winners.append("p/(1+p)" if d_frac <= d_p else "p")
        # conditional LLT on the dense side
        pmf = law.pmf.copy()
        pmf[:thresh] = 0.0
        cond = DiscreteLaw(pmf / fsum(pmf), 1.0)
        disc, rows = _llt_discrepancy(cond, rep, n, window)
        cond_discs.append(disc)
        csvs[n] = (["ell", "x", "scaled_pmf", "limit_density"], rows)
        # conditional count law off the dense side
        pmf_c = law.pmf.copy()
        pmf_c[thresh:] = 0.0
        cond_c = DiscreteLaw(pmf_c / fsum(pmf_c), 1.0)
        if nhat is None or nhat.pmf.size < cond_c.pmf.size:
            nhat = exact.law_Nhat(scheme, cond_c.pmf.size - 1)
        tvs_conv.append(tv_distance(cond_c, nhat))
    reports = [
        VerdictReport(
            "mixture_split_probability",
            fp,
            list(n_ladder),
            "abs-error",
            dists,
            tol,
            dists[-1] <= tol,
            _nonincreasing(dists),
            {
                "p": p,
                "p_frac": p_frac,
                "observed_P": pes,
                "winner": winners[-1],
                "winners": winners,
            },
        ),
        VerdictReport(
            "mixture_conditional_llt",
            fp,
            list(n_ladder),
            "sup-LLT-discrepancy",
            cond_discs,
            cond_tol,
            cond_discs[-1] <= cond_tol and _nonincreasing(cond_discs),
            _nonincreasing(cond_discs),
            {"window": window},
        ),
        VerdictReport(
            "mixture_conditional_counts",
            fp,
            list(n_ladder),
            "TV",
            tvs_conv,
            cond_tol,
            tvs_conv[-1] <= cond_tol,
            _nonincreasing(tvs_conv),
            {"note": "count law conditioned off the dense event vs size-biased limit"},
        ),
    ]
    return [_finish(r, t0) for r in reports], csvs


def verify_dilute(
    scheme: SchemeSpec,
    n_ladder,
    replicates: int = 10000,
    seed: int = 1,
    tol: float = 0.1,
    delta: float = 0.2,
    ks_tol: float = 0.1,
    chi2_pmin: float = 1e-3,
    mean_rtol: float = 0.1,
    m2_rtol: float = 0.2,
    upsilon: float = 1.0,
    zero_tol: float = 0.03,
    count_replicates: int = 2000,
    point_lows=(0.2, 0.4),
    report: PhaseReport | None = None,
):
    """Dilute-phase battery.

    (i)   exact local limit law against the density of Z, sup over counts
          >= delta * n^alpha;
    (ii)  exact Kolmogorov-Smirnov distance of N_n / n^alpha from Z: the
          limit cdf at every atom, against both one-sided limits of the
          exact cdf at that atom;
    (iii) Monte Carlo counts at the critical size scale against the
          mixed-Poisson limit: an absolute zero-bucket check at
          ``zero_tol`` over all replicates, plus a chi-square over the
          first ``count_replicates`` draws.  The chi-square power is
          deliberately matched to the zero-bucket tolerance: the exact
          finite-n count law sits a few percent from its limit (the
          convergence is in n with no rate), so an overpowered chi-square
          would reject the true asymptotic statement at any fixed n;
    (iv)  Monte Carlo mean point counts on [x, 1] against the intensity
          integral;
    (v)   Monte Carlo second factorial moment against the two-point
          correlation integral.
    """
    t0 = time.time()
    rep = classify(scheme) if report is None else report
    _require(rep, (Phase.dilute,), "dilute")
    fp = scheme.fingerprint()
    dp = laws.DiluteParams(rep.alpha, rep.b, rep.dilute_lambda)
    alpha = rep.alpha
    csvs = {}

    discs = []
    final_law = None
    for n in n_ladder:
        law = exact.law_Nn(scheme, n)
        na = n**alpha
        lo = max(1, int(math.ceil(delta * na)))
        hi = law.pmf.size - 1
        # restrict to where either side is non-negligible
        hi = min(hi, int(20 * na))
        ells = np.arange(lo, hi + 1)
        tf = laws.dilute_Z_density(dp, ells / na)
        scaled = na * law.pmf[lo : hi + 1]
        discs.append(float(np.max(np.abs(scaled - tf))))
        csvs[n] = (
            ["ell", "x", "scaled_pmf", "limit_density"],
            np.column_stack([ells, ells / na, scaled, tf]),
        )
        final_law = law
    n_fin = n_ladder[-1]
    na = n_fin**alpha
    reports = [
        VerdictReport(
            "dilute_llt",
            fp,
            list(n_ladder),
            "sup-LLT-discrepancy",
            discs,
            tol,
            discs[-1] <= tol and _nonincreasing(discs),
            _nonincreasing(discs),
            {"delta": delta},
        )
    ]

    # (ii) exact KS: the limit cdf at the atoms ell / n^alpha in one vector
    # call; the sup beyond the last atom is the larger of the two tails
    pmf = final_law.pmf
    cdf_exact = np.cumsum(pmf)
    hi = min(pmf.size - 1, int(12 * na))
    fz = laws.dilute_Z_cdf(dp, np.arange(1, hi + 1) / na)
    right = cdf_exact[1 : hi + 1]
    left = right - pmf[1 : hi + 1]
    ks = max(
        1.0 - cdf_exact[hi],
        1.0 - fz[-1],
        float(np.max(np.abs(right - fz))),
        float(np.max(np.abs(left - fz))),
    )
    reports.append(
        VerdictReport("dilute_ks", fp, [n_fin], "KS", [float(ks)], ks_tol, ks <= ks_tol)
    )

    # Monte Carlo parts share one exact sampler at the final n
    w_val = rep.w_value
    c_w = rep.c_w
    k_n = int(round((c_w / (upsilon * w_val)) ** (1.0 / (1.0 + alpha)) * n_fin ** (alpha / (1.0 + alpha))))
    px = exact.law_X(scheme, exact.default_rho(scheme, n_fin), n_fin).pmf
    ups_n = float(na * px[k_n])  # realized n^alpha P(X = k_n) -> upsilon
    smp = sampling.ExactSampler(scheme, n_fin)
    counts_at_kn = np.empty(replicates, dtype=np.int64)
    point_counts = {x: np.empty(replicates, dtype=np.int64) for x in point_lows}
    m2_low = 0.4
    m2_counts = np.empty(replicates, dtype=np.int64)
    for i in range(replicates):
        s = smp.sample(sampling.make_rng(seed, i))
        counts_at_kn[i] = np.count_nonzero(s.sizes == k_n)
        for x in point_lows:
            point_counts[x][i] = np.count_nonzero(s.sizes >= x * n_fin)
        m2_counts[i] = np.count_nonzero(s.sizes >= m2_low * n_fin)

    # (iii) mixed-Poisson comparison at the realized upsilon
    m_chi = min(count_replicates, replicates)
    chi_sample = counts_at_kn[:m_chi]
    k_max = int(chi_sample.max())
    expected_pmf = laws.mixed_poisson_pmf(dp, ups_n, k_max)
    obs_counts = np.bincount(chi_sample, minlength=k_max + 2).astype(float)
    exp_counts = np.append(expected_pmf, max(1.0 - fsum(expected_pmf), 0.0)) * m_chi
    while exp_counts.size > 2 and exp_counts[-1] < 5.0:
        exp_counts[-2] += exp_counts[-1]
        obs_counts[-2] += obs_counts[-1]
        exp_counts, obs_counts = exp_counts[:-1], obs_counts[:-1]
    exp_counts *= fsum(obs_counts) / fsum(exp_counts)
    chi_p = float(chisquare(obs_counts, exp_counts).pvalue)
    zero_emp = float(np.mean(counts_at_kn == 0))
    zero_lim = float(expected_pmf[0])
    zero_err = abs(zero_emp - zero_lim)
    reports.append(
        VerdictReport(
            "dilute_mixed_poisson",
            fp,
            [n_fin],
            "chi2-pvalue",
            [chi_p],
            chi2_pmin,
            chi_p > chi2_pmin and zero_err <= zero_tol,
            None,
            {
                "k_n": k_n,
                "upsilon_realized": ups_n,
                "chi2_replicates": m_chi,
                "replicates": replicates,
                "zero_fraction_empirical": zero_emp,
                "zero_fraction_limit": zero_lim,
                "zero_abs_error": zero_err,
                "zero_tolerance": zero_tol,
                "note": "pass means p-value above tolerance and the "
                "zero bucket within its absolute tolerance",
            },
        )
    )

    # (iv) intensity integrals
    for x in point_lows:
        target = laws.pp_intensity_integral(alpha, rep.b, x, 1.0)
        got = float(point_counts[x].mean())
        err = abs(got - target) / target
        reports.append(
            VerdictReport(
                f"dilute_pp_mean_{x}",
                fp,
                [n_fin],
                "rel-error",
                [err],
                mean_rtol,
                err <= mean_rtol,
                None,
                {"observed_mean": got, "intensity_integral": target},
            )
        )

    # (v) second factorial moment on [m2_low, 1]
    m2_target = laws.pp_factorial_moment(alpha, rep.b, (m2_low, 1.0), 2)
    m2_obs = float(np.mean(m2_counts * (m2_counts - 1)))
    m2_err = abs(m2_obs - m2_target) / m2_target
    reports.append(
        VerdictReport(
            "dilute_pp_m2",
            fp,
            [n_fin],
            "rel-error",
            [m2_err],
            m2_rtol,
            m2_err <= m2_rtol,
            None,
            {"observed": m2_obs, "factorial_moment": m2_target, "interval": [m2_low, 1.0]},
        )
    )
    return [_finish(r, t0) for r in reports], csvs


# ---------------------------------------------------------------------------
# extended schemes and product structures


def _u_tail_class(scheme: SchemeSpec, rep: PhaseReport):
    """(rho, exponent, log_exp, coeff) of the partition function tail
    u_n ~ coeff * log(2+n)^log_exp * n^-exponent * rho^-n, by phase."""
    v, w = scheme.v, scheme.w
    if rep.phase in (Phase.dense_critical, Phase.dense_supercritical):
        return (rep.rho_u, v.e, v.L.log_exp, rep.mu ** (v.e - 1.0) * v.L.c)
    if rep.phase is Phase.mixture:
        coeff = rep.mu ** (v.e - 1.0) * v.L.c + rep.v_prime * w.L.c
        return (rep.rho_u, v.e, v.L.log_exp, coeff)
    if rep.phase is Phase.convergent:
        if w.is_explicit:
            return None
        return (w.rho, w.e, w.L.log_exp, rep.v_prime * w.L.c)
    if rep.phase is Phase.dilute:
        if not v.L.is_constant:
            return None
        alpha = rep.alpha
        m = laws.stable_moment(alpha, rep.dilute_lambda, alpha * (v.e - 1.0))
        return (w.rho, 1.0 + alpha * (v.e - 1.0), 0.0, alpha * m * v.L.c)
    return None


def verify_extended(
    scheme: SchemeSpec,
    n: int,
    tol: float = 0.1,
    replicates: int = 10000,
    seed: int = 1,
):
    """Extended-scheme regimes and product-structure checks.

    With a prefactor h: detects from the closed forms whether h_n / u_n
    tends to 0 (base behavior persists), infinity (Boltzmann limit), or a
    constant (a mixture with weights H(rho) : q U(rho) where
    q = lim h_n / u_n), and checks the exact count law against the matching
    reference within ``tol``.

    With product factors: exact coordinate marginals against the
    macroscopic-index decomposition, and a coordinate-symmetry frequency
    test for identical factors.
    """
    t0 = time.time()
    fp = scheme.fingerprint()
    reports = []
    csvs = {}
    if scheme.product_factors is not None:
        pl = exact.product_law(scheme.product_factors, n)
        p = pl.p
        # exact: small-coordinate marginal of coordinate j approaches
        # sum_{i != j} p_i * P(A_j = k) (it is freed whenever any other
        # coordinate is the macroscopic one)
        t = min(f.radius() for f in scheme.product_factors)
        k_hi = 8  # the free-coordinate approximation is a small-k statement
        rows = []
        worst = 0.0
        for j, marg in enumerate(pl.marginals):
            a_j = scheme.product_factors[j].tilt(t)
            arr = np.array([a_j.term(k) for k in range(n + 1)])
            boltz = arr / fsum(arr)
            free_weight = 1.0 - p[j] if p is not None else math.nan
            got = marg.pmf[1 : k_hi + 1]
            want = free_weight * boltz[1 : k_hi + 1]
            denom = np.maximum(want, 1e-300)
            worst = max(worst, float(np.max(np.abs(got - want) / denom)))
            rows.append(np.column_stack([np.full(k_hi, j), np.arange(1, k_hi + 1), got, want]))
        csvs[n] = (["coordinate", "k", "marginal_pmf", "mixture_prediction"], np.vstack(rows))
        reports.append(
            VerdictReport(
                "product_marginals",
                fp,
                [n],
                "max-rel-error",
                [worst],
                0.05,
                worst <= 0.05,
                None,
                {"p": list(p) if p is not None else None},
            )
        )
        # MC symmetry of the macroscopic coordinate for identical factors
        if p is not None and len(set(scheme.product_factors)) == 1:
            smp = sampling.ProductSampler(scheme.product_factors, n)
            ell = len(scheme.product_factors)
            hits = np.zeros(ell)
            for i in range(replicates):
                tup = smp.sample(sampling.make_rng(seed, i))
                hits[int(np.argmax(tup))] += 1
            freq = hits / replicates
            sigma = math.sqrt((1.0 / ell) * (1.0 - 1.0 / ell) / replicates)
            dev = float(np.max(np.abs(freq - 1.0 / ell)))
            reports.append(
                VerdictReport(
                    "product_symmetry",
                    fp,
                    [n],
                    "abs-error",
                    [dev],
                    2.0 * sigma,
                    dev <= 2.0 * sigma,
                    None,
                    {"frequencies": freq.tolist(), "replicates": replicates},
                )
            )
        return [_finish(r, t0) for r in reports], csvs

    if scheme.h is None:
        raise PhaseMismatchError("extended verifier needs a prefactor h or product factors")
    base = SchemeSpec(v=scheme.v, w=scheme.w)
    rep = classify(base)
    ucl = _u_tail_class(base, rep)
    if ucl is None or scheme.h.is_explicit:
        raise PhaseMismatchError("extended regime detection needs closed forms")
    h = scheme.h
    rho_u, s_u, lam_u, c_u = ucl
    if h.rho > rho_u * (1 + 1e-9):
        regime = "base"
    elif h.rho < rho_u * (1 - 1e-9):
        regime = "boltzmann"
    elif (h.e, -h.L.log_exp) > (s_u, -lam_u):
        regime = "base"
    elif (h.e, -h.L.log_exp) < (s_u, -lam_u):
        regime = "boltzmann"
    else:
        regime = "mixture"

    law_ext = exact.extended_law_Nn(scheme, n)
    ell_max = law_ext.pmf.size - 1
    if regime == "base":
        ref = exact.law_Nn(base, n)
        detail = {"regime": regime}
    elif regime == "boltzmann":
        ref = exact.law_N(base, h.rho, ell_max)
        detail = {"regime": regime}
    else:
        q = h.L.c / c_u
        u_rho = base.v.series_value(base.w.series_value(rho_u))
        h_rho = h.series_value(rho_u)
        w_boltz = q * u_rho / (q * u_rho + h_rho)
        base_law = exact.law_Nn(base, n)
        boltz_law = exact.law_N(base, h.rho, ell_max)
        mix = np.zeros(ell_max + 1)
        mix[: base_law.pmf.size] += (1.0 - w_boltz) * base_law.pmf
        mix[: boltz_law.pmf.size] += w_boltz * boltz_law.pmf
        ref = DiscreteLaw.from_pmf(mix)
        detail = {
            "regime": regime,
            "q": q,
            "weight_boltzmann": w_boltz,
            "weight_base": 1.0 - w_boltz,
            "note": "weights H(rho) : q U(rho); equal to 1/(1+q) : q/(1+q) when H(rho)=U(rho)",
        }
    tv = tv_distance(law_ext, ref)
    m = min(law_ext.pmf.size, ref.pmf.size)
    csvs[n] = (
        ["ell", "extended_pmf", "reference_pmf"],
        np.column_stack([np.arange(m), law_ext.pmf[:m], ref.pmf[:m]]),
    )
    reports.append(
        VerdictReport(
            "extended_counts", fp, [n], "TV", [float(tv)], tol, tv <= tol, None, detail
        )
    )
    return [_finish(r, t0) for r in reports], csvs


# ---------------------------------------------------------------------------
# the suite runner


_VERIFIERS = {
    "dense_llt": verify_dense_llt,
    "dense_extremes": verify_dense_extremes,
    "prefix_independence": verify_prefix_independence,
    "convergent": verify_convergent,
    "mixture": verify_mixture,
    "dilute": verify_dilute,
    "extended": verify_extended,
}

_LADDER_VERIFIERS = {"dense_llt", "prefix_independence", "mixture", "dilute"}


def _resolve_scheme(name: str, declared: dict) -> SchemeSpec:
    if name in declared:
        return declared[name]
    if name in bundled_names():
        return bundled_scheme(name)
    raise SuiteConfigError(f"unknown scheme {name!r}")


def _run_experiment(spec_entry: dict, declared: dict, default_seed: int):
    entry = dict(spec_entry)
    verifier = entry.pop("verifier", None)
    if verifier not in _VERIFIERS:
        raise SuiteConfigError(
            f"unknown verifier {verifier!r}; available: {sorted(_VERIFIERS)}"
        )
    scheme_name = entry.pop("scheme", None)
    if scheme_name is None:
        raise SuiteConfigError("experiment missing 'scheme'")
    scheme = _resolve_scheme(scheme_name, declared)
    exp_id = entry.pop("id", f"{verifier}:{scheme_name}")
    expect_fail = bool(entry.pop("expect_fail", False))
    fn = _VERIFIERS[verifier]
    kwargs = {}
    if verifier in _LADDER_VERIFIERS:
        if "n_ladder" not in entry:
            n = entry.pop("n")
            kwargs["n_ladder"] = [max(n // 4, 1), max(n // 2, 1), n]
        else:
            kwargs["n_ladder"] = entry.pop("n_ladder")
    else:
        kwargs["n"] = entry.pop("n")
    for key in ("tol", "window", "replicates", "delta", "ks_tol", "chi2_pmin",
                "mean_rtol", "m2_rtol", "upsilon", "cond_tol", "skip_mc",
                "zero_tol", "count_replicates"):
        if key in entry:
            kwargs[key] = entry.pop(key)
    if verifier in ("dense_extremes", "convergent", "dilute", "extended"):
        kwargs["seed"] = entry.pop("seed", default_seed)
    entry.pop("seed", None)
    if entry:
        raise SuiteConfigError(f"unknown experiment keys {sorted(entry)} in {exp_id!r}")
    reports, csvs = fn(scheme, **kwargs)
    for r in reports:
        r.experiment = f"{exp_id}.{r.experiment}" if r.experiment != exp_id else exp_id
        if expect_fail:
            r.details["expected_outcome"] = "fail"
    return exp_id, reports, csvs, expect_fail


def load_config(path_or_dict) -> dict:
    if isinstance(path_or_dict, dict):
        return path_or_dict
    try:
        with open(path_or_dict) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise SuiteConfigError(
            f"config parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    except OSError as err:
        raise SuiteConfigError(f"cannot read config: {err}") from None


def run_suite(config, out_dir, seed: int | None = None) -> int:
    """Execute the declared experiments; exit code 0 iff all verdicts pass.

    Writes ``verdicts.json`` (byte-stable given config and seed),
    ``runtimes.json``, and one CSV per (experiment, n).  Config errors and
    phase mismatches surface as exit code 2 with a structured message.
    """
    import pathlib

    cfg = load_config(config)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    default_seed = cfg.get("seed", 1) if seed is None else seed
    declared = {}
    for name, sc in cfg.get("schemes", {}).items():
        try:
            declared[name] = SchemeSpec.from_config(sc)
        except (KeyError, ValueError) as err:
            raise SuiteConfigError(f"bad scheme {name!r}: {err}") from None
    experiments = cfg.get("experiments", [])
    if not isinstance(experiments, list):
        raise SuiteConfigError("'experiments' must be a list")

    results = [_run_experiment(entry, declared, default_seed) for entry in experiments]

    verdicts = []
    runtimes = {}
    all_pass = True
    for exp_id, reports, csvs, expect_fail in results:
        exp_dir = out / exp_id.replace(":", "_")
        for n, (header, rows) in csvs.items():
            exp_dir.mkdir(parents=True, exist_ok=True)
            _write_csv(exp_dir / f"{n}.csv", header, rows)
        exp_pass = all(r.passed for r in reports)
        for r in reports:
            verdicts.append(r.to_json())
            runtimes[r.experiment] = round(r.runtime_seconds, 3)
        # a negative control satisfies the suite by failing its own verdict
        all_pass &= (not exp_pass) if expect_fail else exp_pass
    with open(out / "verdicts.json", "w") as fh:
        json.dump({"seed": default_seed, "verdicts": verdicts}, fh, indent=2)
        fh.write("\n")
    with open(out / "runtimes.json", "w") as fh:
        json.dump(runtimes, fh, indent=2)
        fh.write("\n")
    return 0 if all_pass else 1


def _write_csv(path, header, rows) -> None:
    rows = np.asarray(rows)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.atleast_2d(rows):
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")
