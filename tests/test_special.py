"""The special functions without scipy: bit for bit against scipy.special,
on both sides of every branch boundary of cephes' incomplete gamma; the
unregularized Gamma(a, x) and the point-process integrals' fixed rule
against 30-digit mpmath."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sc

from gibbs_partitions import laws, special
from gibbs_partitions.special import chdtrc, igam, igamc, lgam, upper_gamma


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _around(v: float, steps: int = 3) -> list:
    """v and its neighbours up to ``steps`` floats away on each side."""
    out = [v]
    lo = hi = v
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return [x for x in out if x > 0.0]


def _edges(a: float) -> list:
    """Points on both sides of each switch of cephes' igam and igamc at a:
    x = 0.5, 1, 1.1, a, a / 1.1, |x - a| = 0.4 a, -0.4 / log(x) = a, 40."""
    points = [0.5, 1.0, 1.1, a, a / 1.1, 0.6 * a, 1.4 * a, math.exp(-0.4 / a), 40.0]
    return [x for p in points for x in _around(p)]


@settings(max_examples=300, deadline=None)
@given(x=st.floats(0.0, 1e3, exclude_min=True))
def test_lgam_is_gammaln(x):
    assert lgam(x) == float(sc.gammaln(x))


_LGAM_EDGES = [5e-324, 1.0, 2.0, 3.0, 12.999999999999998, 13.0, 999.9999999999999, 1000.0,
               1e8, 1.0000000000000002e8, 2.556348e305, 2.5563480000000004e305, math.inf]


@pytest.mark.parametrize("x", _LGAM_EDGES)
def test_lgam_at_its_branch_points(x):
    assert lgam(x) == float(sc.gammaln(x))


@settings(max_examples=50, deadline=None)
@given(xs=st.lists(st.floats(0.0, 1e300, exclude_min=True), min_size=1, max_size=50))
def test_lgam_array_is_gammaln(xs):
    x = np.array(xs + _LGAM_EDGES).reshape(-1, 1)
    assert lgam(x).shape == x.shape
    assert np.array_equal(_bits(lgam(x)), _bits(sc.gammaln(x)))


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.0, 20.0, exclude_min=True),
    xs=st.lists(st.floats(0.0, 80.0), min_size=1, max_size=40),
    scale=st.sampled_from([1e-6, 0.01, 1.0]),
)
def test_igam_and_igamc_are_gammainc_and_gammaincc(a, xs, scale):
    x = np.array([v * scale for v in xs] + _edges(a))
    assert np.array_equal(_bits(igam(a, x)), _bits(sc.gammainc(a, x)))
    assert np.array_equal(_bits(igamc(a, x)), _bits(sc.gammaincc(a, x)))


def test_igam_keeps_shape_and_scalars():
    x = np.array([[0.0, 0.3], [2.0, math.inf]])
    assert igam(0.7, x).shape == (2, 2)
    assert np.array_equal(_bits(igam(0.7, x)), _bits(sc.gammainc(0.7, x)))
    assert isinstance(igamc(0.7, 2.0), float)
    assert math.isnan(igam(0.7, -1.0))
    with pytest.raises(ValueError):
        igam(0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(20.0, 400.0, exclude_min=True), rel=st.floats(-0.4, 0.4))
def test_temme_band_is_scipys(a, rel):
    # a > 20, |x - a| <= 0.4 a: the uniform expansion, taken from scipy
    x = np.array([a * (1.0 + rel)] + _around(0.6 * a) + _around(1.4 * a))
    assert np.array_equal(_bits(igam(a, x)), _bits(sc.gammainc(a, x)))
    assert np.array_equal(_bits(igamc(a, x)), _bits(sc.gammaincc(a, x)))


@settings(max_examples=100, deadline=None)
@given(a=st.floats(20.0, 150.0, exclude_min=True), rel=st.floats(0.41, 3.0), below=st.booleans())
def test_large_a_off_the_band_is_ported(a, rel, below):
    x = a * (1.0 - rel / 4.0) if below else a * (1.0 + rel)
    assert igam(a, x) == float(sc.gammainc(a, x))
    assert igamc(a, x) == float(sc.gammaincc(a, x))


@pytest.mark.parametrize("df", range(1, 40))
def test_chdtrc_matches_scipy(df):
    rng = np.random.default_rng(df)
    x = np.concatenate([rng.uniform(0.0, 4.0 * df + 10.0, 60), [0.0, float(df), 2.2, 0.999 * df]])
    assert np.array_equal(_bits(chdtrc(df, x)), _bits(sc.chdtrc(df, x)))
    assert chdtrc(df, float(df)) == float(sc.chdtrc(df, float(df)))
    assert math.isnan(chdtrc(df, -1.0)) and math.isnan(sc.chdtrc(df, -1.0))


def test_chdtrc_is_nan_at_every_negative_x():
    # -5e-324 / 2 rounds to -0.0, where Q is 1; scipy refuses x < 0 before
    # halving, and so does chdtrc (found by the point-contract fuzzer)
    x = np.array([-5e-324, -1e-320, -0.0, 0.0, 5e-324])
    assert np.array_equal(_bits(chdtrc(3.0, x)), _bits(sc.chdtrc(3.0, x)))
    assert math.isnan(chdtrc(3.0, -5e-324))


def test_zeta_table_is_scipys_hurwitz_zeta():
    assert special._ZETA == tuple(float(sc.zeta(n, 1.0)) for n in range(2, 42))


def test_dilute_cdf_grid_is_gammainc():
    # the whole matrix of one dilute cdf evaluation, a = 1 - q in (0, 1)
    p = laws.DiluteParams(0.5, 1.5, 1.356967215141875)
    q = (p.b - 1.0) * (1.0 - p.alpha)
    log_a, _ = laws._u_grid(p.alpha, p.b)
    a = np.exp(np.minimum(np.array(log_a), 700.0))
    ts = np.geomspace(1e-3, 1e4, 40) ** (1.0 / (1.0 - p.alpha))
    grid = np.multiply.outer(ts, a)
    assert np.array_equal(_bits(igam(1.0 - q, grid)), _bits(sc.gammainc(1.0 - q, grid)))


# ---------------------------------------------------------------------------
# Gamma(a, x) for real a, the tail integral of the certified series sums


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-4.0, 1.0, exclude_max=True), x=st.floats(1e-12, 60.0))
@example(a=-4.0, x=60.0)
@example(a=-3.0, x=1.0)
@example(a=-2.0, x=1e-12)
@example(a=-1.0, x=0.5)
@example(a=0.0, x=3.0)
@example(a=-3.9, x=60.0)  # the downward recurrence alone lost 3e-9 here
def test_upper_gamma_against_mpmath(a, x):
    with mp.workdps(30):
        want = mp.gammainc(mp.mpf(a), mp.mpf(x))
    assert upper_gamma(a, x) == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("a", [-1e-300, -1e-12, 1e-12, -0.25, -0.25000000000000006, 0.75, 0.7500000000000001, 2.5, 20.5])
@pytest.mark.parametrize("x", [1e-12, 0.5, 1.0, 1.0000000000000002, 1.5, 21.0])
def test_upper_gamma_across_its_branches(a, x):
    # each side of a = -1/4, 0, 3/4 and x = 1, and a > x > 1, where the
    # continued fraction alone converges too slowly
    with mp.workdps(30):
        want = mp.gammainc(mp.mpf(a), mp.mpf(x))
    assert upper_gamma(a, x) == pytest.approx(float(want), rel=1e-13)


# ---------------------------------------------------------------------------
# the point-process integrals against 30-digit mpmath


@mp.workdps(30)
def _mass_oracle(alpha, c, x0, x1):
    """c Int_x0^x1 y^(-alpha-1) (1-y)^(c-1) dy, an incomplete beta function."""
    return c * mp.betainc(-mp.mpf(alpha), mp.mpf(c), mp.mpf(x0), mp.mpf(x1))


@mp.workdps(30)
def _m2_oracle(alpha, b, x0, x1):
    """The double integral of ``pp_factorial_moment`` at m = 2, with the
    inner integral in closed form and the outer split at y1 = 1 - x1."""
    a, x0, x1 = mp.mpf(alpha), mp.mpf(x0), mp.mpf(x1)
    c2 = a * (3 - mp.mpf(b))
    hi = min(x1, 1 - x0)

    def outer(y1):
        top = min(x1, 1 - y1)
        inner = mp.betainc(-a, c2, x0 / (1 - y1), top / (1 - y1))
        return mp.re(y1 ** (-a - 1) * (1 - y1) ** (c2 - a - 1) * inner)

    cuts = [x0] + ([1 - x1] if x0 < 1 - x1 < hi else []) + [hi]
    pref = (a / mp.gamma(1 - a)) ** 2 * mp.gamma(1 + a * (1 - mp.mpf(b))) * mp.gamma(4 - mp.mpf(b))
    pref /= mp.gamma(1 + a * (3 - mp.mpf(b))) * mp.gamma(2 - mp.mpf(b))
    return pref * mp.quad(outer, cuts)


_INTERVALS = [(0.01, 1.0), (0.05, 1.0), (0.2, 1.0), (0.4, 1.0), (0.6, 1.0), (0.999, 1.0),
              (0.05, 0.3), (0.05, 0.06), (0.1, 0.9), (0.3, 0.99), (0.4, 0.6), (0.55, 0.6), (0.9, 0.91)]


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.3, 0.95), b=st.floats(1.05, 1.95), interval=st.sampled_from(_INTERVALS))
def test_pp_intensity_integral_against_mpmath(alpha, b, interval):
    x0, x1 = interval
    c = alpha * (2.0 - b)
    mass = laws._pp_mass(alpha, c, np.array([x0]), np.array([x1]))[0]
    assert mass == pytest.approx(float(_mass_oracle(alpha, c, x0, x1)), rel=1e-13)
    with mp.workdps(30):
        want = _mass_oracle(alpha, c, x0, x1) / c / mp.beta(1 - mp.mpf(alpha), mp.mpf(c))
    assert laws.pp_intensity_integral(alpha, b, x0, x1) == pytest.approx(float(want), rel=1e-13)


@settings(max_examples=12, deadline=None)
@given(
    alpha=st.floats(0.3, 0.95),
    b=st.floats(1.05, 1.95),
    interval=st.sampled_from([(0.05, 1.0), (0.2, 1.0), (0.4, 1.0), (0.1, 0.6), (0.05, 0.9), (0.3, 0.45)]),
)
def test_pp_second_factorial_moment_against_mpmath(alpha, b, interval):
    got = laws.pp_factorial_moment(alpha, b, interval, 2)
    assert got == pytest.approx(float(_m2_oracle(alpha, b, *interval)), rel=1e-13)


def test_pp_second_factorial_moment_of_the_builtin_suite():
    # dilute-all's dilute_pp_m2 target: alpha = 1/2, b = 3/2 on [0.4, 1]
    assert laws.pp_factorial_moment(0.5, 1.5, (0.4, 1.0), 2) == pytest.approx(
        float(_m2_oracle(0.5, 1.5, 0.4, 1.0)), rel=1e-14
    )
