"""The verifiers' KS and chi-square helpers against scipy.stats, bit for bit.

``verify`` computes its KS statistic and chi-square p-values without
loading scipy.stats; these tests hold the helpers to scipy's own results,
so the verdict bytes cannot drift from what scipy.stats would give.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gibbs_partitions import laws
from gibbs_partitions.series import fsum
from gibbs_partitions.verify import _chisquare_pvalue, _contingency_pvalue, _ks_statistic

_FRECHET = laws.frechet_law(1.3, 1.5, 1)
_CDFS = {
    "norm": stats.norm.cdf,
    "expon": stats.expon.cdf,
    "frechet": _FRECHET.cdf,  # the law verify_dense_extremes tests against
}


def _same(a, b) -> bool:
    return float(a).hex() == float(b).hex()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 600),
    cdf=st.sampled_from(sorted(_CDFS)),
    ties=st.booleans(),
)
def test_ks_statistic_matches_kstest(seed, size, cdf, ties):
    rng = np.random.default_rng(seed)
    sample = rng.gamma(rng.uniform(0.5, 3.0), rng.uniform(0.3, 2.0), size)
    if ties:
        sample = np.round(sample, 1)
    want = stats.kstest(sample, lambda x: _CDFS[cdf](x)).statistic
    assert _same(_ks_statistic(sample, _CDFS[cdf]), want)


def _dilute_style_counts(rng, cells):
    """Observed counts and expected frequencies rescaled to the same total,
    as verify_dilute builds them."""
    obs = rng.poisson(rng.uniform(0.5, 60.0), cells).astype(float)
    obs[0] += 1.0
    exp = rng.dirichlet(np.full(cells, rng.uniform(0.5, 5.0))) * obs.sum()
    exp = np.maximum(exp, 1e-3)
    exp *= fsum(obs) / fsum(exp)
    return obs, exp


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cells=st.integers(2, 40))
def test_chisquare_pvalue_matches_chisquare(seed, cells):
    obs, exp = _dilute_style_counts(np.random.default_rng(seed), cells)
    assert _same(_chisquare_pvalue(obs, exp), stats.chisquare(obs, exp).pvalue)


@pytest.mark.parametrize("ddof", [1, 2])
def test_chisquare_pvalue_ddof_matches_chisquare(ddof):
    rng = np.random.default_rng(ddof)
    for _ in range(30):
        obs, exp = _dilute_style_counts(rng, 12)
        want = stats.chisquare(obs, exp, ddof=ddof).pvalue
        assert _same(_chisquare_pvalue(obs, exp, ddof), want)


def test_chisquare_pvalue_keeps_the_sum_check():
    obs, exp = np.array([10.0, 20.0, 30.0]), np.array([10.0, 20.0, 31.0])
    with pytest.raises(ValueError):
        stats.chisquare(obs, exp)
    with pytest.raises(ValueError):
        _chisquare_pvalue(obs, exp)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cols=st.integers(2, 14))
def test_contingency_pvalue_matches_chi2_contingency(seed, cols):
    rng = np.random.default_rng(seed)
    table = rng.poisson(rng.uniform(0.3, 40.0, (2, cols)))
    table[:, table.sum(axis=0) == 0] = 1  # a zero column has no expected frequency
    try:
        want = stats.chi2_contingency(table).pvalue
    except ValueError:  # a zero row (seed 488, 2 columns): both refuse the table
        with pytest.raises(ValueError, match="zero element"):
            _contingency_pvalue(table)
        return
    assert _same(_contingency_pvalue(table), want)


@pytest.mark.parametrize(
    "table, yates_capped",
    [
        ([[10, 10], [10, 11]], False),  # every |expected - observed| below 0.5
        ([[12, 9], [8, 13]], True),  # every |expected - observed| above 0.5
        ([[3, 0], [1, 5]], True),
        ([[200, 180], [190, 205]], True),
        ([[1, 1], [1, 2]], False),
    ],
)
def test_contingency_pvalue_yates_path(table, yates_capped):
    table = np.array(table)
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / table.sum()
    assert bool(np.all(np.abs(expected - table) > 0.5)) == yates_capped
    want = stats.chi2_contingency(table).pvalue
    assert _same(_contingency_pvalue(table), want)


def test_contingency_pvalue_keeps_the_zero_expected_check():
    zero_column = np.array([[0, 3], [0, 4]])
    with pytest.raises(ValueError):
        stats.chi2_contingency(zero_column)
    with pytest.raises(ValueError, match="zero element at \\(0, 0\\)"):
        _contingency_pvalue(zero_column)
