"""Limit-theorem verifiers and the experiment suite runner.

One verifier per limit statement, each comparing exact finite-n laws (or
Monte Carlo ensembles, only where the functional involves order statistics
or point configurations) against the closed-form limits:

===================  =================================================  =====================
verifier             statement checked                                  accepts
===================  =================================================  =====================
dense_llt            count local limit law against the stable density   plain; dense, mixture
dense_extremes       largest-component laws (Frechet / vanishing max)   plain; dense
prefix_independence  total-variation decay of i.i.d. prefix approx.     plain; unclassified
convergent           count convergence, giant-component deficit law     plain; classified
mixture              split probability and both conditional behaviours  plain; mixture
dilute               count LLT and cdf, mixed-Poisson counts, points    plain; dilute
extended             prefactor regimes of the count law                 extended; classified
product              coordinate marginals and symmetry                  product
===================  =================================================  =====================

A plain scheme is a ``SchemeSpec``, V(W(z)) alone; an extended one is an
``ExtendedSpec``, H(z) V(W(z)), whose phase is its base scheme's; a product
one is a ``ProductSpec``, prod_k W_k(z).  Neither of the last two has a V
or W of its own.
``_VERIFIERS`` alone says what each verifier accepts: the kinds and phases
above, plus what else it needs (scale constants, a finite E[N], closed
forms, at alpha = 2 two sizes and no ``tol``).  A ``verify_*`` call or a
suite experiment it refuses is a ``PhaseMismatchError`` before any law is
computed.

An experiment of the suite config names its ``verifier`` and ``scheme``,
and optionally an ``id`` and ``expect_fail``.  Its other keys are the
verifier's keyword parameters; any other key is a ``SuiteConfigError``,
and so is a value that does not fit its parameter's default: an integer
default takes a positive integer, a float default a finite number > 0.
Where the verifier takes ``n_ladder``, ``n`` stands for [n/4, n/2, n];
where it takes ``seed``, the config seed is the default, and elsewhere a
``seed`` key is dropped.  Seeds are non-negative integers.  An
experiment's CSVs go to the directory named by its id with ``:`` read as
``_``, and no two experiments may share one.

Verdicts are deterministic given (config, seed): Monte Carlo streams are
counter-based and keyed per replicate, and report assembly follows
declaration order.  ``runtimes.json``, a separate file so that
verdicts.json stays byte-for-byte reproducible, holds one entry per
experiment: the seconds its verifier took.

Tolerances are artifact choices (the limit statements carry no rates); the
verifiers' tolerance parameters are overridable in the config, and every
verdict echoes its tolerance.  Three choices are module constants:
``_WINDOW``, the half-width of the dense LLT window in fluctuation scales
(echoed as ``window``); ``_DELTA``, the dilute LLT's lower cut-off as a
fraction of n^alpha (echoed as ``delta``); and ``_UPSILON``, the limit of
n^alpha P(X = k_n) that picks the dilute critical size k_n.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from . import exact, laws, sampling
from .exact import DiscreteLaw, tv_distance
from .phases import Phase, PhaseReport, _heaviest, _tie_weights, _v_prime, classify
from .schemes import bundled_names, bundled_scheme
from .series import fsum
from .special import chdtrc
from .weights import ExtendedSpec, ProductSpec, SchemeSpec

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
    "verify_product",
    "run_suite",
    "load_config",
]

_WINDOW = 8.0  # dense LLT: half-width of the window around n / mu, in fluctuation scales
_DELTA = 0.2  # dilute LLT: counts from delta * n^alpha up
_UPSILON = 1.0  # dilute counts: the critical size k_n has n^alpha P(X = k_n) -> upsilon


class PhaseMismatchError(ValueError):
    """The scheme's phase does not expose the statistic this verifier tests."""


class SuiteConfigError(ValueError):
    """The experiment configuration is malformed."""


@dataclass
class VerdictReport:
    """Outcome of one metric of one experiment.

    ``trend_nonincreasing`` records whether the observations do not
    increase along the n-ladder (None for single-n metrics).  ``passed``
    is True iff the last observation meets the tolerance and, on a ladder,
    the trend holds, except for the five metrics with a rule of their own:
    the p-values, the alpha = 2 maximum quantile, the rare-size fraction,
    and the mixture's conditional counts.
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

    def to_json(self) -> dict:
        return _py({f.name: getattr(self, f.name) for f in fields(self)})


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


def _nonincreasing(values) -> bool:
    return all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def _verdict(
    experiment, scheme, n_values, metric, observed, tol, /, *, ladder=False, passed=None, **details
) -> VerdictReport:
    """The verdict of one metric, stamped with the scheme's fingerprint.

    On an n-ladder (``ladder``) the trend is recorded and the verdict
    passes when the last observation is <= ``tol`` and the observations do
    not increase; at a single n no trend is recorded and it passes when
    the observation is <= ``tol``.  ``passed`` overrides the rule for the
    metrics that have their own.
    """
    observed = list(observed)
    trend = _nonincreasing(observed) if ladder else None
    if passed is None:
        passed = observed[-1] <= tol and trend is not False
    return VerdictReport(
        experiment, scheme.fingerprint(), list(n_values), metric, observed, tol, passed, trend, details
    )


# ---------------------------------------------------------------------------
# goodness-of-fit tests
#
# The KS statistic and the two chi-square p-values repeat the arithmetic of
# scipy 1.17's kstest, chisquare and chi2_contingency step for step, numpy's
# pairwise ``.sum()`` included, so the verdict bytes stay those of
# scipy.stats without loading it.


def _ks_distance(f, f_below, g) -> float:
    """sup |F - G| of a step cdf F against a continuous G, from F, F- (F just
    below each atom) and G at the atoms: the larger of max(F - G) and
    max(G - F-), which is the largest |F - G| and |F- - G| as F- <= F."""
    d_plus = np.max(f - g)
    d_minus = np.max(g - f_below)
    return float(d_plus if d_plus > d_minus else d_minus)


def _ks_statistic(sample, cdf) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov statistic of ``sample``
    against ``cdf``, which takes the sorted sample as one array."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    return _ks_distance(np.arange(1.0, n + 1) / n, np.arange(0.0, n) / n, cdf(x))


def _chisquare_pvalue(observed, expected, ddof: int = 0) -> float:
    """p-value of Pearson's chi-square test with ``size - 1 - ddof``
    degrees of freedom; the two totals must agree to sqrt(eps) relative."""
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    obs_sum, exp_sum = obs.sum(), exp.sum()
    rel_diff = abs(obs_sum - exp_sum) / min(obs_sum, exp_sum)
    if rel_diff > np.finfo(float).eps ** 0.5:
        raise ValueError(
            f"observed and expected frequencies sum to {obs_sum} and {exp_sum}, "
            f"a relative difference of {rel_diff}"
        )
    stat = ((obs - exp) ** 2 / exp).sum()
    return float(chdtrc(obs.size - 1 - ddof, stat))


def _contingency_pvalue(table) -> float:
    """p-value of the chi-square test of independence on a contingency
    table of counts with at least two columns, with Yates' correction at
    one degree of freedom."""
    observed = np.asarray(table)
    counts = observed.astype(float)
    expected = counts.sum(axis=1, keepdims=True) * counts.sum(axis=0, keepdims=True)
    expected = expected / counts.sum()
    if np.any(expected == 0):
        zero_at = tuple(int(i) for i in np.argwhere(expected == 0)[0])
        raise ValueError(f"expected frequency table has a zero element at {zero_at}")
    dof = expected.size - sum(expected.shape) + expected.ndim - 1
    if dof == 1:
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    return _chisquare_pvalue(observed.ravel(), expected.ravel(), observed.size - 1 - dof)


# ---------------------------------------------------------------------------
# shared exact checks and the dense case


def _phase_llt(rep: PhaseReport, law: DiscreteLaw, n: int):
    """Sup of |scale * pmf - density((ell - center) / scale)| over the
    phase's window of counts, and its csv.  Dense: +/- ``_WINDOW``
    fluctuation scales around n/mu against the stable density; mixture:
    the same, on ``law`` conditioned on the split event; dilute: from
    ``_DELTA`` n^alpha to 20 n^alpha against the density of Z.  Past the
    window's upper end both sides are negligible."""
    if rep.phase is Phase.dilute:
        scale, center = n**rep.alpha, 0
        lo, hi = max(1, int(math.ceil(_DELTA * scale))), int(20 * scale)
        density = functools.partial(laws.dilute_Z_density, laws.DiluteParams(rep.alpha, rep.b, rep.dilute_lambda))
    else:
        if rep.phase is Phase.mixture:
            law = _restrict(law.pmf, _split(n, rep.mu), law.pmf.size)
        scale, center = rep.nn_scale(n), n / rep.mu
        lo, hi = max(0, int(center - _WINDOW * scale)), int(math.ceil(center + _WINDOW * scale))
        density = functools.partial(laws.stable_density_series, laws.StableParams(rep.alpha, rep.gamma, -1.0))
    hi = min(hi, law.pmf.size - 1)
    ells = np.arange(lo, hi + 1)
    xs = (ells - center) / scale
    h = density(xs)
    scaled = scale * law.pmf[lo : hi + 1]
    rows = np.column_stack([ells, xs, scaled, h])
    return float(np.max(np.abs(scaled - h))), (["ell", "x", "scaled_pmf", "limit_density"], rows)


def _restrict(pmf: np.ndarray, lo: int, hi: int) -> DiscreteLaw:
    """The law ``pmf`` conditioned on lo <= k < hi."""
    out = np.zeros_like(pmf)
    out[lo:hi] = pmf[lo:hi]
    return DiscreteLaw(out / fsum(out), 1.0)


def _split(n: int, mu: float) -> int:
    """The dense-event threshold ceil(n / (2 mu)) of the count."""
    return int(math.ceil(n / (2.0 * mu)))


def _nhat_tv(scheme: SchemeSpec, law: DiscreteLaw):
    """The TV distance from ``law`` to N-hat on its support, and N-hat."""
    nhat = exact.law_Nhat(scheme, law.pmf.size - 1)
    return tv_distance(law, nhat), nhat


def _dense_llt(rep: PhaseReport, scheme: SchemeSpec, n_ladder, tol: float = 0.05):
    """Exact count law against the stable local limit density, sup over
    the ``_WINDOW`` window; no Monte Carlo is involved."""
    observed = []
    csvs = {}
    for n in n_ladder:
        disc, csvs[n] = _phase_llt(rep, exact.law_Nn(scheme, n), n)
        observed.append(disc)
    return [_verdict(
        "dense_llt", scheme, n_ladder, "sup-LLT-discrepancy", observed, tol, ladder=True,
        window=_WINDOW, conditional_on_split_event=rep.phase is Phase.mixture,
    )], csvs


def _dense_extremes(
    rep: PhaseReport, scheme: SchemeSpec, n_ladder, replicates: int = 10000, seed: int = 1, tol: float = 0.1
):
    """Largest-component laws by Monte Carlo.

    1 < alpha < 2: Kolmogorov-Smirnov of the rescaled maximum against the
    closed-form ranked-jump cdf, sampled at the final n alone.  alpha = 2:
    the rescaled maximum degenerates to 0; its 0.9-quantile, sampled at
    every n of the ladder (two sizes or more), must shrink along it
    (tolerance = the first-n quantile).  Both variants also check, at the
    final n, that the count of components at a deliberately rare size
    stays zero.
    """
    ladder = list(n_ladder)
    n_fin = ladder[-1]
    stable = 1.0 < rep.alpha < 2.0
    maxima_by_n, csvs = {}, {}
    for ni in [n_fin] if stable else ladder:  # the counts kept are the final n's
        smp = sampling.ExactSampler(scheme, ni)
        scale, px = rep.nn_scale(ni), smp.pmf_x
        k_common = int(np.nonzero(px[1:])[0][0]) + 1  # smallest positive size
        cand = np.nonzero((ni / rep.mu) * px < 0.005)[0]
        cand = cand[px[cand] > 0]
        k_rare = int(cand[0]) if cand.size else None
        maxima = np.empty(replicates)
        zero_hits = common_counts = 0
        for j, s in enumerate(smp.sample_many(sampling.make_rngs(seed, replicates))):
            maxima[j] = s.sizes.max() / scale
            if k_rare is not None:
                zero_hits += int(np.count_nonzero(s.sizes == k_rare) == 0)
            common_counts += int(np.count_nonzero(s.sizes == k_common))
        maxima_by_n[ni] = maxima
        csvs[ni] = (["normalized_max"], maxima.reshape(-1, 1))

    if stable:
        ks = _ks_statistic(maxima_by_n[n_fin], laws.frechet_law(rep.mu, rep.alpha, 1).cdf)
        reports = [_verdict("dense_extremes", scheme, [n_fin], "KS", [ks], tol, replicates=replicates, rank=1)]
    else:
        quantiles = [float(np.quantile(maxima_by_n[ni], 0.9)) for ni in ladder]
        shrinks = _nonincreasing(quantiles) and quantiles[-1] < quantiles[0]
        reports = [_verdict(
            "dense_extremes", scheme, ladder, "max-q90-shrinks", quantiles, quantiles[0], ladder=True,
            passed=shrinks, replicates=replicates, note="alpha=2: rescaled maximum degenerates",
        )]
    if k_rare is not None:
        frac = zero_hits / replicates
        reports.append(_verdict(
            "dense_extremes_rare_size", scheme, [n_fin], "zero-count-fraction", [1.0 - frac], 0.01,
            passed=frac >= 0.99, size=k_rare, poisson_rate_target=0.005,
        ))
    # counts at an abundant size concentrate: #_k / ((n/mu) P(X=k)) -> 1
    target = (n_fin / rep.mu) * px[k_common]
    err = abs(common_counts / replicates / target - 1.0)
    reports.append(_verdict(
        "dense_extremes_concentration", scheme, [n_fin], "rel-error", [err], 0.05,
        size=k_common, mean_count_target=target,
    ))
    return reports, csvs


def _prefix_independence(rep: None, scheme: SchemeSpec, n_ladder, tol: float = 0.05):
    """Exact total variation of prefix laws against i.i.d. products.

    No phase gate: the verdict itself is the test (degenerate schemes must
    fail it, which prevents vacuous passes).  Both m come from one harvest
    per n.
    """
    tvs = {1: [], 2: []}
    csvs = {}
    for n in n_ladder:
        for m, pl in zip((1, 2), exact._prefix_laws(scheme, n, (1, 2))):
            tvs[m].append(pl.tv_to_iid)
            if m == 1:
                rows = np.column_stack([np.arange(n + 1), pl.joint, pl.iid])
                csvs[n] = (["k", "prefix_pmf", "iid_pmf"], rows)
    reports = [
        _verdict(f"prefix_independence_m{m}", scheme, n_ladder, "TV", tvs[m], tol, ladder=True, coordinates=m)
        for m in (1, 2)
    ]
    return reports, csvs


def _convergent(
    rep: PhaseReport, scheme: SchemeSpec, n: int, tol: float = 0.1, replicates: int = 4000, seed: int = 1
):
    """Count convergence and giant-component deficit, exactly; plus a Monte
    Carlo chi-square spot check of (count, second-largest size) against the
    giant-replacement limit tuple.  The spot check's sampler holds the
    exact count law."""
    # the deficit law from the sampler's own calibration and P(S_N = n)
    smp = sampling.ExactSampler(scheme, n)
    exact_d, limit_d = exact._giant_deficit(scheme, n, smp._cal, smp._z)
    tv, nhat = _nhat_tv(scheme, smp.count_law)
    reports = [
        _verdict("convergent_counts", scheme, [n], "TV", [tv], tol),
        _verdict("convergent_deficit", scheme, [n], "TV", [tv_distance(exact_d, limit_d)], tol),
        _convergent_mc(smp, replicates, seed, nhat),
    ]
    rows = np.column_stack([np.arange(exact_d.pmf.size), exact_d.pmf, limit_d.pmf])
    return reports, {n: (["d", "exact_deficit_pmf", "limit_deficit_pmf"], rows)}


def _second_largest(sizes: np.ndarray) -> int:
    if sizes.size < 2:
        return 0
    return int(np.partition(sizes, -2)[-2])


def _convergent_mc(smp, replicates, seed, nhat) -> VerdictReport:
    """Two-sample chi-square on (count, clipped second-largest size) of the
    sampler's draws against the limit tuple."""
    scheme, n = smp.scheme, smp.n
    cdf_x = np.cumsum(smp.pmf_x)
    cdf_nhat = np.cumsum(nhat.pmf)
    n_clip, s_clip = 6, 8

    def cell(count, second):
        return (min(count, n_clip), min(second, s_clip))

    obs: dict = {}
    lim: dict = {}
    draws = smp.sample_many(sampling.make_rngs(seed, replicates))
    for s, rng2 in zip(draws, sampling.make_rngs(seed + 1, replicates)):
        key = cell(s.n_components, _second_largest(s.sizes))
        obs[key] = obs.get(key, 0) + 1
        # limit tuple, on stream i of seed + 1: N-hat - 1 i.i.d. sizes plus
        # the giant remainder
        nh = int(sampling._inverse_cdf_draw(cdf_nhat, rng2.random()))
        small = sampling._inverse_cdf_draw(cdf_x, rng2.random(max(nh - 1, 0)))
        tup = np.concatenate([small, [n - small.sum()]])
        key = cell(tup.size, _second_largest(tup))
        lim[key] = lim.get(key, 0) + 1
    keys = sorted(set(obs) | set(lim))
    table = np.array([[obs.get(k, 0) for k in keys], [lim.get(k, 0) for k in keys]])
    keep = table.sum(axis=0) >= 10
    table = np.column_stack([table[:, keep], table[:, ~keep].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    p_value = _contingency_pvalue(table) if table.shape[1] > 1 else 1.0
    return _verdict(
        "convergent_fragments", scheme, [n], "chi2-pvalue", [p_value], 1e-3,
        passed=p_value > 1e-3, replicates=replicates, cells=int(table.shape[1]),
        note="pass means p-value above tolerance",
    )


def _mixture(rep: PhaseReport, scheme: SchemeSpec, n_ladder, tol: float = 0.05, cond_tol: float = 0.1):
    """Split probability against its limit p/(1+p), conditional dense LLT
    on the split event, conditional count convergence off it.

    The stopped-sum split gives lim P(E_n) = p/(1+p) (README).  The
    conditional count verdict passes on the last TV alone.
    """
    p, p_frac = rep.mixture_p, rep.mixture_p_frac
    dists, pes, cond_discs, tvs_conv = [], [], [], []
    csvs = {}
    for n in n_ladder:
        law = exact.law_Nn(scheme, n)
        thresh = _split(n, rep.mu)
        pe = fsum(law.pmf[thresh:])
        pes.append(pe)
        dists.append(abs(pe - p_frac))
        # conditional LLT on the dense side
        disc, csvs[n] = _phase_llt(rep, law, n)
        cond_discs.append(disc)
        # conditional count law off the dense side
        tvs_conv.append(_nhat_tv(scheme, _restrict(law.pmf, 0, thresh))[0])
    reports = [
        _verdict(
            "mixture_split_probability", scheme, n_ladder, "abs-error", dists, tol,
            ladder=True, p=p, p_frac=p_frac, observed_P=pes,
        ),
        _verdict(
            "mixture_conditional_llt", scheme, n_ladder, "sup-LLT-discrepancy", cond_discs, cond_tol,
            ladder=True, window=_WINDOW,
        ),
        _verdict(
            "mixture_conditional_counts", scheme, n_ladder, "TV", tvs_conv, cond_tol,
            ladder=True, passed=tvs_conv[-1] <= cond_tol,
            note="count law conditioned off the dense event vs size-biased limit",
        ),
    ]
    return reports, csvs


def _dilute(
    rep: PhaseReport, scheme: SchemeSpec, n_ladder, replicates: int = 10000, seed: int = 1,
    tol: float = 0.1, ks_tol: float = 0.1, chi2_pmin: float = 1e-3, mean_rtol: float = 0.1,
    m2_rtol: float = 0.2, zero_tol: float = 0.03, count_replicates: int = 2000,
):
    """Dilute-phase battery.

    (i)   exact local limit law against the density of Z, sup over counts
          >= ``_DELTA`` * n^alpha;
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

    The Monte Carlo parts share one exact sampler at the final n, and its
    count law is the exact law there.
    """
    dp = laws.DiluteParams(rep.alpha, rep.b, rep.dilute_lambda)
    alpha = rep.alpha
    csvs = {}

    n_fin = n_ladder[-1]
    smp = sampling.ExactSampler(scheme, n_fin)
    discs = []
    for n in n_ladder:
        law = smp.count_law if n == n_fin else exact.law_Nn(scheme, n)
        disc, csvs[n] = _phase_llt(rep, law, n)
        discs.append(disc)
    reports = [
        _verdict("dilute_llt", scheme, n_ladder, "sup-LLT-discrepancy", discs, tol, ladder=True, delta=_DELTA)
    ]

    # (ii) exact KS at the final n: the limit cdf at the atoms ell / n^alpha
    # in one vector call; the sup beyond the last atom is the larger of the
    # two tails
    na = n_fin**alpha
    pmf = law.pmf
    cdf_exact = np.cumsum(pmf)
    hi = min(pmf.size - 1, int(12 * na))
    fz = laws.dilute_Z_cdf(dp, np.arange(1, hi + 1) / na)
    right = cdf_exact[1 : hi + 1]
    ks = max(1.0 - cdf_exact[hi], 1.0 - fz[-1], _ks_distance(right, right - pmf[1 : hi + 1], fz))
    reports.append(_verdict("dilute_ks", scheme, [n_fin], "KS", [float(ks)], ks_tol))

    # Monte Carlo parts
    k_n = int(round((rep.c_w / (_UPSILON * rep.w_value)) ** (1.0 / (1.0 + alpha)) * n_fin ** (alpha / (1.0 + alpha))))
    ups_n = float(na * smp.pmf_x[k_n])  # realized n^alpha P(X = k_n) -> upsilon
    counts_at_kn = np.empty(replicates, dtype=np.int64)
    point_lows = (0.2, 0.4)  # mean point counts on [x, 1]
    point_counts = {x: np.empty(replicates, dtype=np.int64) for x in point_lows}
    m2_low = 0.4  # one of point_lows: the second factorial moment reads its counts
    draws = smp.sample_many(sampling.make_rngs(seed, replicates))
    for i, s in enumerate(draws):
        counts_at_kn[i] = np.count_nonzero(s.sizes == k_n)
        for x in point_lows:
            point_counts[x][i] = np.count_nonzero(s.sizes >= x * n_fin)

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
    chi_p = _chisquare_pvalue(obs_counts, exp_counts)
    zero_emp = float(np.mean(counts_at_kn == 0))
    zero_lim = float(expected_pmf[0])
    zero_err = abs(zero_emp - zero_lim)
    reports.append(_verdict(
        "dilute_mixed_poisson", scheme, [n_fin], "chi2-pvalue", [chi_p], chi2_pmin,
        passed=chi_p > chi2_pmin and zero_err <= zero_tol, k_n=k_n, upsilon_realized=ups_n,
        chi2_replicates=m_chi, replicates=replicates, zero_fraction_empirical=zero_emp,
        zero_fraction_limit=zero_lim, zero_abs_error=zero_err, zero_tolerance=zero_tol,
        note="pass means p-value above tolerance and the zero bucket within its absolute tolerance",
    ))

    # (iv) intensity integrals
    for x in point_lows:
        target = laws.pp_intensity_integral(alpha, rep.b, x, 1.0)
        got = float(point_counts[x].mean())
        err = abs(got - target) / target
        reports.append(_verdict(
            f"dilute_pp_mean_{x}", scheme, [n_fin], "rel-error", [err], mean_rtol,
            observed_mean=got, intensity_integral=target,
        ))

    # (v) second factorial moment on [m2_low, 1]
    m2_target = laws.pp_factorial_moment(alpha, rep.b, (m2_low, 1.0), 2)
    m2_counts = point_counts[m2_low]
    m2_obs = float(np.mean(m2_counts * (m2_counts - 1)))
    m2_err = abs(m2_obs - m2_target) / m2_target
    reports.append(_verdict(
        "dilute_pp_m2", scheme, [n_fin], "rel-error", [m2_err], m2_rtol,
        observed=m2_obs, factorial_moment=m2_target, interval=[m2_low, 1.0],
    ))
    return reports, csvs


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


def _extended(rep: PhaseReport, scheme: ExtendedSpec, n: int, tol: float = 0.1):
    """Extended-scheme regimes: reads from the closed forms, through
    ``phases``' tail order, whether h_n / u_n tends to 0 (base behavior
    persists), infinity (Boltzmann limit), or a constant (a mixture with
    weights H(rho_h) : q U(rho_u) where q = lim h_n / u_n, each series at
    its own radius), and checks the exact count law against the matching
    reference within ``tol``.  ``rep`` is the base scheme's."""
    base, h = scheme.base, scheme.h
    rho_u, s_u, lam_u, c_u = _u_tail_class(base, rep)
    heaviest = _heaviest([(h.rho, h.e, h.L.log_exp), (rho_u, s_u, lam_u)])
    regime = {(0,): "boltzmann", (1,): "base"}.get(tuple(heaviest), "mixture")

    law_ext = exact.extended_law_Nn(scheme, n)
    ell_max = law_ext.pmf.size - 1
    detail = {}
    if regime == "base":
        ref = exact.law_Nn(base, n)
    elif regime == "boltzmann":
        ref = exact.law_N(base, h.rho, ell_max)
    else:
        q = h.L.c / c_u
        u_rho = base.v.series_value(base.w.series_value(rho_u))
        w_boltz = _tie_weights([h.L.c, c_u], [h.series_value(h.rho), u_rho])[0]
        base_law = exact.law_Nn(base, n)
        boltz_law = exact.law_N(base, rho_u, ell_max)
        mix = np.zeros(ell_max + 1)
        mix[: base_law.pmf.size] += (1.0 - w_boltz) * base_law.pmf
        mix[: boltz_law.pmf.size] += w_boltz * boltz_law.pmf
        ref = DiscreteLaw.from_pmf(mix)
        detail = {
            "q": q,
            "weight_boltzmann": w_boltz,
            "weight_base": 1.0 - w_boltz,
            "note": "weights H(rho) : q U(rho); equal to 1/(1+q) : q/(1+q) when H(rho)=U(rho)",
        }
    tv = tv_distance(law_ext, ref)
    m = min(law_ext.pmf.size, ref.pmf.size)
    rows = np.column_stack([np.arange(m), law_ext.pmf[:m], ref.pmf[:m]])
    reports = [_verdict("extended_counts", scheme, [n], "TV", [float(tv)], tol, regime=regime, **detail)]
    return reports, {n: (["ell", "extended_pmf", "reference_pmf"], rows)}


def _product(rep: None, scheme: ProductSpec, n: int, replicates: int = 10000, seed: int = 1):
    """Exact coordinate marginals against the macroscopic-index
    decomposition, and a coordinate-symmetry frequency test for identical
    factors; both bounds are fixed (0.05 relative, 2 sigma)."""
    try:
        # the law from the sampler's own tables
        smp = sampling.ProductSampler(scheme, n)
        pl = exact._product_law(scheme, n, smp.arrays, smp.suffix)
    except ValueError as err:  # e.g. no configuration of size n
        raise PhaseMismatchError(f"product_marginals: {err}") from None
    p = pl.p  # the gate asked for closed-form tails on every factor
    # exact: small-coordinate marginal of coordinate j approaches
    # sum_{i != j} p_i * P(A_j = k) (it is freed whenever any other
    # coordinate is the macroscopic one)
    k_hi = min(8, n)  # the free-coordinate approximation is a small-k statement
    rows = []
    worst = 0.0
    for j, (marg, arr) in enumerate(zip(pl.marginals, pl.arrays)):
        boltz = arr / fsum(arr)
        free_weight = 1.0 - p[j]
        got = marg.pmf[1 : k_hi + 1]
        want = free_weight * boltz[1 : k_hi + 1]
        denom = np.maximum(want, 1e-300)
        worst = max(worst, float(np.max(np.abs(got - want) / denom)))
        rows.append(np.column_stack([np.full(k_hi, j), np.arange(1, k_hi + 1), got, want]))
    csvs = {n: (["coordinate", "k", "marginal_pmf", "mixture_prediction"], np.vstack(rows))}
    reports = [_verdict("product_marginals", scheme, [n], "max-rel-error", [worst], 0.05, p=list(p))]
    # MC symmetry of the macroscopic coordinate for identical factors
    if len(set(scheme.factors)) == 1:
        ell = len(scheme.factors)
        hits = np.zeros(ell)
        for tup in smp.sample_many(sampling.make_rngs(seed, replicates)):
            hits[int(np.argmax(tup))] += 1
        freq = hits / replicates
        sigma = math.sqrt((1.0 / ell) * (1.0 - 1.0 / ell) / replicates)
        dev = float(np.max(np.abs(freq - 1.0 / ell)))
        reports.append(_verdict(
            "product_symmetry", scheme, [n], "abs-error", [dev], 2.0 * sigma,
            frequencies=freq.tolist(), replicates=replicates,
        ))
    return reports, csvs


# ---------------------------------------------------------------------------
# what each verifier accepts


def _needs_scale(scheme, rep, params):
    if rep.scale_L is None:
        return "expressible scale constants"


def _needs_at_alpha_2(scheme, rep, params):
    if 1.0 < rep.alpha < 2.0:
        return None
    if len(params["n_ladder"]) < 2:
        return "an n_ladder of two sizes or more at alpha = 2, where the maximum's 0.9-quantile must shrink"
    if "tol" in params:
        return "no tol at alpha = 2, where the bound is the first size's 0.9-quantile"


def _needs_finite_mean(scheme, rep, params):
    if not math.isfinite(_v_prime(scheme, rep.w_value, rep.criticality)):
        return "a finite E[N] (the size-biased limit)"


def _needs_closed_forms(scheme, rep, params):
    if scheme.h.is_explicit or _u_tail_class(scheme.base, rep) is None:
        return "closed forms for regime detection"


def _needs_closed_tails(scheme, rep, params):
    if any(f.is_explicit for f in scheme.factors):
        return "closed-form tails on every product factor (the macroscopic-index law)"


@dataclass(frozen=True)
class _Verifier:
    """``body(rep, scheme, **params)`` runs the verifier on the report its
    gate made; ``kinds`` maps each scheme kind it takes to the phases it
    takes (None: the scheme is not classified and ``rep`` is None);
    ``refuse(scheme, rep, params)`` names what else it needs, or None."""

    body: Callable
    kinds: dict
    refuse: Callable | None = None

    @property
    def signature(self) -> inspect.Signature:
        """The verifier's parameters: the body's, less the report."""
        return inspect.signature(functools.partial(self.body, None))


_VERIFIERS = {
    "dense_llt": _Verifier(
        _dense_llt, {"plain": (Phase.dense_critical, Phase.dense_supercritical, Phase.mixture)}, _needs_scale
    ),
    "dense_extremes": _Verifier(
        _dense_extremes, {"plain": (Phase.dense_critical, Phase.dense_supercritical)}, _needs_at_alpha_2
    ),
    "prefix_independence": _Verifier(_prefix_independence, {"plain": None}),
    "convergent": _Verifier(
        _convergent, {"plain": tuple(p for p in Phase if p is not Phase.unclassified)}, _needs_finite_mean
    ),
    "mixture": _Verifier(_mixture, {"plain": (Phase.mixture,)}),
    "dilute": _Verifier(_dilute, {"plain": (Phase.dilute,)}),
    "extended": _Verifier(
        _extended, {"extended": tuple(p for p in Phase if p is not Phase.unclassified)}, _needs_closed_forms
    ),
    "product": _Verifier(_product, {"product": None}, _needs_closed_tails),
}


def _gate(name: str, scheme: SchemeSpec | ExtendedSpec | ProductSpec, params: dict) -> PhaseReport | None:
    """The report the body of verifier ``name`` reads, or the
    ``PhaseMismatchError`` naming what it does not take; the kind is
    checked before ``classify``, and no law is computed.  An extended
    scheme's report is its base scheme's."""
    entry = _VERIFIERS[name]
    kind, given = (
        ("product", "prod_k W_k(z)") if isinstance(scheme, ProductSpec)
        else ("extended", "prefactor h") if isinstance(scheme, ExtendedSpec)
        else ("plain", "V(W(z)) alone")
    )
    if kind not in entry.kinds:
        takers = [other for other, e in _VERIFIERS.items() if kind in e.kinds]
        raise PhaseMismatchError(f"{name} takes {' or '.join(entry.kinds)} schemes, not {kind} schemes ({given}); "
                                 f"{', '.join(takers)} take{'s' * (len(takers) == 1)} them")
    phases = entry.kinds[kind]
    rep = None if phases is None else classify(scheme.base if kind == "extended" else scheme)
    if rep is not None and rep.phase not in phases:
        raise PhaseMismatchError(f"{name} needs a scheme in {[p.value for p in phases]}, got {rep.phase.value}")
    why = entry.refuse and entry.refuse(scheme, rep, params)
    if why:
        raise PhaseMismatchError(f"{name} needs {why}")
    return rep


def _library_form(name: str):
    """``verify_<name>``: the gate of verifier ``name``, then its body."""
    entry = _VERIFIERS[name]

    def verify(scheme, *args, **kwargs):
        params = entry.signature.bind(scheme, *args, **kwargs).arguments
        return entry.body(_gate(name, scheme, params), **params)

    verify.__name__ = verify.__qualname__ = f"verify_{name}"
    verify.__doc__, verify.__signature__ = entry.body.__doc__, entry.signature
    return verify


verify_dense_llt = _library_form("dense_llt")
verify_dense_extremes = _library_form("dense_extremes")
verify_prefix_independence = _library_form("prefix_independence")
verify_convergent = _library_form("convergent")
verify_mixture = _library_form("mixture")
verify_dilute = _library_form("dilute")
verify_extended = _library_form("extended")
verify_product = _library_form("product")


# ---------------------------------------------------------------------------
# the suite runner


def _declared_schemes(cfg: dict) -> dict:
    schemes = cfg.get("schemes", {})
    if not isinstance(schemes, dict):
        raise SuiteConfigError("'schemes' must be an object of named schemes")
    declared = {}
    for name, sc in schemes.items():
        try:
            declared[name] = SchemeSpec.from_config(sc)
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise SuiteConfigError(f"bad scheme {name!r}: {err}") from None
    return declared


def _resolve_scheme(name: str, declared: dict) -> SchemeSpec | ExtendedSpec | ProductSpec:
    if name in declared:
        return declared[name]
    if name in bundled_names():
        return bundled_scheme(name)
    raise SuiteConfigError(f"unknown scheme {name!r}; bundled: {', '.join(bundled_names())}")


def _int_from(value, low: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _prepare_experiment(spec_entry, declared: dict, default_seed: int):
    """Check one experiment of the config, its gate included, without
    running it."""
    if not isinstance(spec_entry, dict):
        raise SuiteConfigError(f"an experiment must be an object, got {spec_entry!r}")
    kwargs = dict(spec_entry)
    verifier = kwargs.pop("verifier", None)
    if verifier not in _VERIFIERS:
        raise SuiteConfigError(
            f"unknown verifier {verifier!r}; available: {sorted(_VERIFIERS)}"
        )
    scheme_name = kwargs.pop("scheme", None)
    if scheme_name is None:
        raise SuiteConfigError("experiment missing 'scheme'")
    scheme = _resolve_scheme(scheme_name, declared)
    exp_id = kwargs.pop("id", f"{verifier}:{scheme_name}")
    if not isinstance(exp_id, str):
        raise SuiteConfigError(f"experiment id must be a string, got {exp_id!r}")
    expect_fail = kwargs.pop("expect_fail", False)
    if not isinstance(expect_fail, bool):
        raise SuiteConfigError(f"'expect_fail' must be true or false, got {expect_fail!r} in {exp_id!r}")
    if "n" in kwargs and not _int_from(kwargs["n"], 1):
        raise SuiteConfigError(f"'n' must be a positive integer, got {kwargs['n']!r} in {exp_id!r}")
    ladder = kwargs.get("n_ladder", [1])
    if not (isinstance(ladder, list) and ladder and all(_int_from(x, 1) for x in ladder)):
        raise SuiteConfigError(f"'n_ladder' must be a list of positive integers, got {ladder!r} in {exp_id!r}")
    if "seed" in kwargs and not _int_from(kwargs["seed"], 0):
        raise SuiteConfigError(f"'seed' must be a non-negative integer, got {kwargs['seed']!r} in {exp_id!r}")
    entry = _VERIFIERS[verifier]
    sig = entry.signature
    if "n_ladder" in sig.parameters and "n" in kwargs:
        if "n_ladder" in kwargs:
            raise SuiteConfigError(f"give 'n' or 'n_ladder', not both, in {exp_id!r}")
        n = kwargs.pop("n")
        kwargs["n_ladder"] = [max(n // 4, 1), max(n // 2, 1), n]
    if "seed" in sig.parameters:
        kwargs.setdefault("seed", default_seed)
    else:
        kwargs.pop("seed", None)
    try:
        sig.bind(scheme, **kwargs)
    except TypeError as err:
        raise SuiteConfigError(f"{err} in {exp_id!r} ({verifier})") from None
    for key, value in kwargs.items():
        default = sig.parameters[key].default
        if key == "seed" or default is inspect.Parameter.empty:
            continue  # the seed and the sizes are checked above
        if isinstance(default, int):
            ok, want = _int_from(value, 1), "a positive integer"
        else:  # a float default
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            ok, want = ok and 0 < value < math.inf, "a finite number > 0"
        if not ok:
            raise SuiteConfigError(f"{key!r} must be {want}, got {value!r} in {exp_id!r}")
    return exp_id, entry.body, _gate(verifier, scheme, kwargs), scheme, kwargs, expect_fail


def load_config(path_or_dict) -> dict:
    cfg = path_or_dict
    if isinstance(path_or_dict, (str, os.PathLike)):
        try:
            with open(path_or_dict) as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as err:
            raise SuiteConfigError(
                f"config parse error at line {err.lineno}, column {err.colno}: {err.msg}"
            ) from None
        except OSError as err:
            raise SuiteConfigError(f"cannot read config: {err}") from None
    if not isinstance(cfg, dict):
        raise SuiteConfigError(f"the config must be a JSON object, got {type(cfg).__name__}")
    return cfg


def run_suite(config, out_dir, seed: int | None = None) -> int:
    """Execute the declared experiments; exit code 0 iff all verdicts pass.

    Writes ``verdicts.json`` (byte-stable given config and seed),
    ``runtimes.json``, and one CSV per (experiment, n).  The config's
    shape and values, the output directories and each experiment's gate in
    ``_VERIFIERS`` (which classifies it, once) are checked before the
    first experiment runs and before ``out_dir`` is created.  Two refusals
    depend on n's exact law and come only when their experiment runs,
    leaving no file written: a product scheme with no configuration of
    size n (``PhaseMismatchError``, "vanishes at n=...") and the size
    guards (``exact.BudgetExceededError``: the m = 2 prefix joint above
    n = 3000, the exact sampler above its table budget).  The CLI exits 2 on each of these errors.
    """
    import pathlib

    cfg = load_config(config)
    out = pathlib.Path(out_dir)
    default_seed = cfg.get("seed", 1) if seed is None else seed
    if not _int_from(default_seed, 0):
        raise SuiteConfigError(f"'seed' must be a non-negative integer, got {default_seed!r}")
    declared = _declared_schemes(cfg)
    experiments = cfg.get("experiments", [])
    if not isinstance(experiments, list):
        raise SuiteConfigError("'experiments' must be a list")
    prepared = [_prepare_experiment(entry, declared, default_seed) for entry in experiments]
    dirs = {}  # output directory -> experiment id
    for exp_id, *_ in prepared:
        name = exp_id.replace(":", "_")
        if name in dirs:
            raise SuiteConfigError(
                f"experiments {dirs[name]!r} and {exp_id!r} both write to {name!r}; give each its own 'id'"
            )
        dirs[name] = exp_id
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for exp_id, body, rep, scheme, kwargs, expect_fail in prepared:
        t0 = time.perf_counter()
        reports, csvs = body(rep, scheme, **kwargs)
        results.append((exp_id, reports, csvs, expect_fail, time.perf_counter() - t0))

    verdicts = []
    runtimes = {}
    all_pass = True
    for exp_id, reports, csvs, expect_fail, seconds in results:
        for r in reports:
            r.experiment = f"{exp_id}.{r.experiment}" if r.experiment != exp_id else exp_id
            if expect_fail:
                r.details["expected_outcome"] = "fail"
        exp_dir = out / exp_id.replace(":", "_")
        for n, (header, rows) in csvs.items():
            exp_dir.mkdir(parents=True, exist_ok=True)
            _write_csv(header, rows, exp_dir / f"{n}.csv")
        exp_pass = all(r.passed for r in reports)
        verdicts += [r.to_json() for r in reports]
        runtimes[exp_id] = round(seconds, 3)
        # a negative control satisfies the suite by failing its own verdict
        all_pass &= (not exp_pass) if expect_fail else exp_pass
    with open(out / "verdicts.json", "w") as fh:
        json.dump({"seed": default_seed, "verdicts": verdicts}, fh, indent=2)
        fh.write("\n")
    with open(out / "runtimes.json", "w") as fh:
        json.dump(runtimes, fh, indent=2)
        fh.write("\n")
    return 0 if all_pass else 1


def _write_csv(header, rows, path=None) -> None:
    """CSV with a header line and floats to 17 significant digits; to
    standard output when ``path`` is None."""
    fh = open(path, "w") if path else sys.stdout
    fmt = "{:.17g}".format
    try:
        fh.write(",".join(header) + "\n")
        for row in np.asarray(rows, dtype=float).tolist():
            fh.write(",".join(map(fmt, row)) + "\n")
    finally:
        if path:
            fh.close()
