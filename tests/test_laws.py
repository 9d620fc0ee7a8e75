"""Limit laws: stable densities (the dense law's inversion grid and the
one-sided law's Kanter route, each against quadrature, mpmath and closed
forms), fractional moments vs quadrature, the dilute limit variable,
extreme-value laws, and the point-process intensity and factorial moments.

Monte Carlo quadrature, scipy adaptive quadrature and mpmath serve as the
independent oracles throughout.
"""

import functools
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gammainc, gammaln, zeta

from gibbs_partitions import laws, special
from gibbs_partitions.series import dot
from gibbs_partitions.laws import (
    DiluteParams,
    StableParams,
    dilute_Z_cdf,
    dilute_Z_density,
    frechet_law,
    gumbel_cdf,
    mixed_poisson_pmf,
    pp_factorial_moment,
    pp_intensity,
    pp_intensity_integral,
    stable_density_series,
    stable_moment,
)

from oracle import dilute_Z_moment, one_sided_stable_density, stable_density_inversion

GAMMA_DENSE_15 = (-math.cos(math.pi * 0.75)) ** (1.0 / 1.5)
LAM_DILUTE = math.gamma(0.5) / (0.5 * float(zeta(1.5)))  # ~1.356967215141875


# ---------------------------------------------------------------------------
# densities


def test_gaussian_peak_value():
    p = StableParams(2.0, 1.0, -1.0)
    assert stable_density_series(p, 0.0) == 1.0 / (2.0 * math.sqrt(math.pi))
    assert stable_density_inversion(p, 0.0) == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-10
    )


def test_one_sided_support():
    p = StableParams(0.5, 1.0, 1.0)
    assert stable_density_series(p, -1.0) == 0.0
    assert stable_density_series(p, 0.0) == 0.0


def test_series_vs_inversion_dense():
    p = StableParams(1.5, GAMMA_DENSE_15, -1.0)
    for x in [-30.0, -10.0, -3.0, -1.0, -0.3, 0.0, 0.4, 1.0, 2.0, 3.0]:
        s = stable_density_series(p, x)
        i = stable_density_inversion(p, x)
        assert s == pytest.approx(i, rel=1e-6, abs=1e-9)


def test_series_vs_inversion_dilute():
    lam = LAM_DILUTE
    gamma = (lam * math.cos(math.pi * 0.25)) ** 2.0
    p = StableParams(0.5, gamma, 1.0)
    for x in [0.4, 0.8, 1.5, 3.0, 8.0, 25.0]:
        s = stable_density_series(p, x)
        i = stable_density_inversion(p, x)
        assert s == pytest.approx(i, rel=1e-6, abs=1e-9)


def test_levy_closed_form():
    # alpha = 1/2 spectrally positive with Laplace exp(-lam sqrt(s)) is the
    # Levy distribution lam/(2 sqrt(pi)) x^(-3/2) exp(-lam^2/(4x))
    lam = LAM_DILUTE
    gamma = (lam * math.cos(math.pi * 0.25)) ** 2.0
    p = StableParams(0.5, gamma, 1.0)
    for x in [0.3, 1.0, 5.0, 40.0]:
        want = lam / (2.0 * math.sqrt(math.pi)) * x ** -1.5 * math.exp(-(lam**2) / (4.0 * x))
        assert stable_density_series(p, x) == pytest.approx(want, rel=1e-12)


def test_inversion_normalization_and_symmetry():
    p = StableParams(1.5, 1.0, 0.0)
    total = 0.0
    for a, b in [(-4000.0, -50.0), (-50.0, 50.0), (50.0, 4000.0)]:
        val, _ = quad(lambda x: stable_density_inversion(p, x), a, b, limit=500)
        total += val
    # mass beyond |x| = 4000 for the symmetric 3/2-stable tail is ~2e-6/3
    assert total == pytest.approx(1.0, abs=2e-6)
    for x in (0.7, 2.3):
        assert stable_density_inversion(p, x) == pytest.approx(
            stable_density_inversion(p, -x), abs=1e-9
        )


def test_inversion_rejects_tiny_alpha():
    with pytest.raises(ValueError):
        stable_density_inversion(StableParams(0.25, 1.0, 1.0), 1.0)


def test_density_scaling_in_gamma():
    # X(c gamma) = c X(gamma): density scales accordingly
    p1 = StableParams(1.5, GAMMA_DENSE_15, -1.0)
    p2 = StableParams(1.5, 2.0 * GAMMA_DENSE_15, -1.0)
    for x in (0.5, 1.0, -2.0):
        assert stable_density_series(p2, x) == pytest.approx(
            0.5 * stable_density_series(p1, x / 2.0), rel=1e-10
        )


@pytest.mark.parametrize("alpha, beta", [(1.5, -1.0), (1.2, 1.0), (0.6, 1.0), (0.6, -1.0), (2.0, -1.0)])
def test_stable_density_vector_call_matches_scalar_calls(alpha, beta):
    p = StableParams(alpha, 0.8, beta, 0.3)
    xs = np.linspace(-10.0, 10.0, 60)
    vec = stable_density_series(p, xs.reshape(6, 10))
    assert vec.shape == (6, 10)
    scalars = [stable_density_series(p, float(x)) for x in xs]
    assert all(isinstance(v, float) for v in scalars)
    assert vec.tobytes() == np.array(scalars).tobytes()


@pytest.mark.parametrize("alpha, beta", [(1.5, -1.0), (1.2, 1.0), (0.6, 1.0), (0.6, -1.0), (2.0, -1.0)])
def test_stable_density_at_non_finite_points(alpha, beta):
    """NaN gives NaN and +/-inf the density's limit 0, without a call of
    the inversion grid (its node budget raised there); the finite points
    of the same call keep the bytes of scalar calls."""
    p = StableParams(alpha, 0.8, beta, 0.3)
    xs = np.array([math.nan, 2.0, math.inf, -0.5, -math.inf, 9.0])
    vec = stable_density_series(p, xs)
    assert math.isnan(vec[0]) and math.isnan(stable_density_series(p, math.nan))
    assert vec[[2, 4]].tolist() == [0.0, 0.0]
    assert stable_density_series(p, math.inf) == 0.0 and stable_density_series(p, -math.inf) == 0.0
    finite = [1, 3, 5]
    assert vec[finite].tobytes() == np.array([stable_density_series(p, float(x)) for x in xs[finite]]).tobytes()


@pytest.mark.parametrize("alpha, beta", [(1.5, -1.0), (0.6, 1.0)])
def test_stable_density_blocks_keep_the_bytes(alpha, beta):
    """Points go through the density _POINT_BLOCK at a time; across the
    block edge, with grid points (and z series points, one-sided) in both
    blocks, the call gives the bytes of calls on pieces that lie within one
    block, and of scalar calls at the edge."""
    p, block = StableParams(alpha, 1.0, beta), special._POINT_BLOCK
    xs = np.linspace(-12.0, 6.0, block + 3) if alpha > 1.0 else np.geomspace(0.02, 50.0, block + 3)
    vec = stable_density_series(p, xs)
    pieces = np.concatenate([stable_density_series(p, xs[:1000]), stable_density_series(p, xs[1000:])])
    assert vec.tobytes() == pieces.tobytes()
    edge = xs[block - 2 : block + 2]
    assert vec[block - 2 : block + 2].tolist() == [stable_density_series(p, float(x)) for x in edge]


def _tight_inversion(p, x):
    """``stable_density_inversion``'s two quadrature branches at epsabs
    1e-15 and epsrel 1e-14; the oracle's 1e-12 / 1e-10 leave 1.1e-13 at
    alpha = 1.203125, x = 0.875, beta = -1, this 7e-18 (30-digit mpmath).
    QUADPACK warns that round-off keeps it from the requested tolerance;
    on 300 random points of the test's range it stayed within 6.7e-16 of
    the grid all the same."""
    a, g = p.alpha, p.gamma
    tan_term, t_max = laws._inversion_setup(p)
    shift = p.delta - x
    tight = dict(epsabs=1e-15, epsrel=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if abs(shift) * t_max <= 60.0:
            val, _ = quad(
                lambda t: math.exp(-((g * t) ** a)) * math.cos(tan_term * t**a + shift * t),
                0.0, t_max, limit=2000, **tight,
            )
        else:
            vc, vs = (
                quad(lambda t, f=f: math.exp(-((g * t) ** a)) * f(tan_term * t**a), 0.0, t_max,
                     weight=w, wvar=shift, limit=800, maxp1=120, **tight)[0]
                for f, w in ((math.cos, "cos"), (math.sin, "sin"))
            )
            val = vc - vs
    return max(val / math.pi, 0.0)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(1.2, 1.95), x=st.floats(-8.0, 8.0), beta=st.sampled_from([-1.0, 1.0]))
@example(alpha=1.203125, x=0.875, beta=-1.0)
def test_inversion_grid_against_quadrature(alpha, x, beta):
    p = StableParams(alpha, (-math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha), beta)
    got = laws._inversion_grid(p, np.array([x]))[0]
    assert got == pytest.approx(_tight_inversion(p, x), abs=1e-13)


@pytest.mark.parametrize("alpha", [1.1, 1.2, 1.35, 1.5, 1.7, 1.9, 1.95])
def test_inversion_grid_at_the_phase_bound(alpha):
    # x where the phase of the integrand moves by exactly _INVERSION_PHASE;
    # 200 nodes leave 1e-7 to 4e-3 here.  At alpha = 1.05 the quadrature
    # itself is off by 4.5e-10 at the bound, so it is no oracle there.
    for beta in (-1.0, 1.0):
        p = StableParams(alpha, (-math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha), beta)
        tan_term, t_max = laws._inversion_setup(p)
        x_max = (laws._INVERSION_PHASE - abs(tan_term) * t_max**alpha) / t_max
        xs = np.array([-x_max, -0.5 * x_max, 0.5 * x_max, x_max])
        want = [stable_density_inversion(p, x) for x in xs.tolist()]
        assert laws._inversion_grid(p, xs) == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("alpha", [1.05, 1.1, 0.35, 0.5, 0.75, 0.9])
def test_untrusted_series_points_never_reach_the_quadrature(alpha, monkeypatch):
    # one route per law: every finite dense point goes to the grid, however
    # large its phase (past 800 at alpha = 1.05 and 1.1, up to 5 600 nodes),
    # and no one-sided point does: those take the dilute Z at b = 1, its u
    # grid below y = 1 and its z series above
    dense = alpha > 1.0
    xs = np.linspace(-24.0, 24.0, 97) if dense else np.geomspace(1e-4, 1e4, 60)
    p = StableParams(alpha, abs(math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha), -1.0 if dense else 1.0)
    grid, seen, dilute, asked = laws._inversion_grid, [], laws._dilute_eval, []

    def recorded(p, x):
        seen.extend(x.tolist())
        return grid(p, x)

    def recorded_dilute(alpha, b, lam, x, cdf):
        asked.append((b, lam, cdf, np.size(x)))
        return dilute(alpha, b, lam, x, cdf)

    # the quadrature is an oracle of the tests, out of the package's reach
    assert not hasattr(laws, "stable_density_inversion")
    monkeypatch.setattr(laws, "_inversion_grid", recorded)
    monkeypatch.setattr(laws, "_dilute_eval", recorded_dilute)
    got = stable_density_series(p, np.concatenate((xs, [math.nan, math.inf, -math.inf])))
    assert np.all(np.isfinite(got[:-3])) and np.all(got[:-3] >= 0.0)
    assert math.isnan(got[-3]) and got[-2:].tolist() == [0.0, 0.0]
    if dense:
        assert seen == xs.tolist() and asked == []
        tan_term, t_max = laws._inversion_setup(p)
        assert abs(tan_term) * t_max**alpha + 24.0 * t_max > laws._INVERSION_PHASE
    else:
        assert seen == [] and asked == [(1.0, 1.0, False, xs.size)]


def _stable_density_mpmath(p, x, dps=30):
    """The density of ``stable_density_inversion`` at x to dps digits, from
    the non-oscillatory integral of Nolan (Commun. Statist. Stochastic
    Models 13(4), 1997, Theorem 1) at y = (x - delta) / gamma; below y = 0
    the law of -X, with -beta, at -y.  The integral is split at its peak,
    where c V(theta) = 1."""
    with mp.workdps(dps + 10):
        a, b = mp.mpf(p.alpha), mp.mpf(p.beta)
        y = (mp.mpf(x) - p.delta) / p.gamma
        if y < 0:
            b, y = -b, -y
        zeta = b * mp.tan(mp.pi * a / 2)
        theta0 = mp.atan(zeta) / a
        if y == 0:
            return mp.gamma(1 + 1 / a) * mp.cos(theta0) / (mp.pi * (1 + zeta**2) ** (1 / (2 * a)) * p.gamma)

        def log_cv(th):  # log of c V(theta), c = y^(alpha / (alpha - 1))
            return (
                a / (a - 1) * mp.log(y)
                + mp.log(mp.cos(a * theta0)) / (a - 1)
                + a / (a - 1) * mp.log(abs(mp.cos(th) / mp.sin(a * (theta0 + th))))
                + mp.log(abs(mp.cos(a * theta0 + (a - 1) * th) / mp.cos(th)))
            )

        lo, hi = -theta0, mp.pi / 2
        left, right = lo + (hi - lo) * mp.mpf("1e-30"), hi - (hi - lo) * mp.mpf("1e-30")
        sign = log_cv(left) < 0
        cuts = [lo, hi]
        if (log_cv(right) < 0) != sign:  # log c V is monotone in theta
            for _ in range(120):
                mid = (left + right) / 2
                left, right = (mid, right) if (log_cv(mid) < 0) == sign else (left, mid)
            cuts = [lo, (left + right) / 2, hi]
        # c V e^(-c V) / c, integrated in theta
        val = mp.quad(lambda th: mp.exp(log_cv(th) - mp.exp(log_cv(th))), cuts)
        return a / (mp.pi * abs(a - 1)) * val / (y * p.gamma)


@pytest.mark.parametrize(
    "alpha, x, beta",
    [
        (1.05, 0.5, -1.0), (1.05, 0.5, 1.0), (1.1, 0.5, -1.0), (1.1, 0.5, 1.0),
        (1.05, -8.0, 1.0), (1.05, 8.0, 1.0), (1.1, -7.0, -1.0), (1.1, 6.5, 1.0),
        (1.25, -3.0, -1.0), (1.5, 2.0, 1.0), (1.7, -8.0, -1.0), (1.95, 0.125, 1.0),
    ],
)
def test_inversion_grid_against_mpmath(alpha, x, beta):
    # the adaptive quadrature is 1.7e-10 (alpha = 1.05) and 1.0e-10
    # (alpha = 1.1) off at x = 0.5, beta = -1; the grid 6e-16 and 3e-17
    p = StableParams(alpha, (-math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha), beta)
    want = float(_stable_density_mpmath(p, x))
    assert laws._inversion_grid(p, np.array([x]))[0] == pytest.approx(want, abs=1e-13)


def test_dense_density_against_mpmath_on_the_llt_window():
    """llt-stable's law on its window [-8, 8], every point on the inversion
    grid: within 1e-14 of 20-digit mpmath.  The power series that once took
    most of these points was 1.4e-10 off at x = -4.3411 (inside its 1e6
    cancellation allowance), and followed the CPU's libm there."""
    p = StableParams(1.5, GAMMA_DENSE_15, -1.0)
    xs = np.concatenate((np.linspace(-8.0, 8.0, 26), [-4.3411, 3.5, 3.75, 5.0]))
    want = np.array([float(_stable_density_mpmath(p, x, dps=20)) for x in xs.tolist()])
    assert np.max(np.abs(stable_density_series(p, xs) - want)) < 1e-14


def _one_sided(alpha):
    """The one-sided law with Laplace transform exp(-t^alpha): y = x."""
    return StableParams(alpha, math.cos(math.pi * alpha / 2.0) ** (1.0 / alpha), 1.0)


@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.9, 0.999])
def test_one_sided_density_against_the_oracle(alpha):
    """On y in [1e-3, 1e4], wherever f > 1e-50, the one-sided law is within
    1e-13 + 8 eps kappa relative of ``one_sided_stable_density``, kappa =
    |d log f / d log y| the relative change one rounding of y makes.  Up to
    alpha = 0.5 that is 1e-13 to 2e-13.  In the light tail next to alpha = 1
    the law is ill conditioned (kappa about 1e3 at alpha = 0.9, 1e6 at
    0.999), and the u grid's A(u) and the step through z = y^-alpha carry
    errors of that order: 1.6e-13 and 5e-11 off 50-digit mpmath at worst.
    At alpha = 0.5 the Levy closed form is a second oracle."""
    p, h = _one_sided(alpha), 1e-6
    ys = np.concatenate((np.geomspace(1e-3, 1e4, 41), [np.nextafter(1.0, 0.0), 1.0]))
    want = np.array([one_sided_stable_density(alpha, y) for y in ys.tolist()])
    live = want > 1e-50
    ys, want = ys[live], want[live]
    assert ys.size >= 15
    kappa = np.array([
        abs(math.log(one_sided_stable_density(alpha, y * (1.0 + h)) / one_sided_stable_density(alpha, y * (1.0 - h))))
        / (2.0 * h)
        for y in ys.tolist()
    ])
    bound = 1e-13 + 8.0 * np.finfo(float).eps * kappa
    got = stable_density_series(p, ys)
    assert np.all(np.abs(got / want - 1.0) <= bound)
    if alpha == 0.5:
        levy = ys**-1.5 * np.exp(-0.25 / ys) / (2.0 * math.sqrt(math.pi))
        assert np.all(np.abs(got / levy - 1.0) <= bound)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.9, 0.999])
def test_one_sided_density_at_subnormal_y(alpha):
    # y^(-alpha-1) is past the float range here (at alpha = 0.5 from
    # y = 1e-206), and so, at alpha = 0.999, is y^-alpha: the density is 0,
    # never NaN, on both mirrors
    ys = np.array([5e-324, 1e-320, 1e-310, 2.2250738585072014e-308])
    for beta, sign in ((1.0, 1.0), (-1.0, -1.0)):
        p = StableParams(alpha, _one_sided(alpha).gamma, beta)
        assert stable_density_series(p, sign * ys).tolist() == [0.0] * ys.size
        assert [stable_density_series(p, sign * y) for y in ys.tolist()] == [0.0] * ys.size


def test_gauss_legendre_integrates_monomials():
    # the counts the inversion grid asks for, up to its budget; summed with
    # fsum, so that the check measures the rule, not a dot's rounding
    for n in (laws._INVERSION_NODES, 800, 2000, laws._INVERSION_MAX_NODES):
        w, c = (np.array(v) for v in laws._gauss_legendre(n))
        assert w.size == n and np.all(np.diff(w) > 0.0) and 0.0 < w[0] and w[-1] < 1.0
        for k in (0, 1, 2, 10, 100, 500, n, 2 * n - 1):
            assert laws.fsum(c * w**k) == pytest.approx(1.0 / (k + 1), abs=1e-15)


def test_inversion_grid_refuses_past_its_budget():
    p = StableParams(1.05, (-math.cos(math.pi * 1.05 / 2.0)) ** (1.0 / 1.05), -1.0)
    assert laws._inversion_grid(p, np.array([24.0]))[0] > 0.0
    with pytest.raises(RuntimeError, match=f"budget of {laws._INVERSION_MAX_NODES} nodes"):
        laws._inversion_grid(p, np.array([0.0, 40.0]))
    # alpha <= 0.3, once refused where a power series could not be trusted
    # (y = 1e-4 here): the one-sided law takes no grid of this budget
    p = StableParams(0.25, math.cos(math.pi / 8.0) ** 4, 1.0)  # Laplace transform exp(-t^alpha)
    for y in (1e-4, 1e-3, 2.0):
        assert stable_density_series(p, y) == pytest.approx(one_sided_stable_density(0.25, y), rel=1e-13)


# ---------------------------------------------------------------------------
# fractional moments


def test_stable_moment_trivials():
    assert stable_moment(0.5, 1.3, 0.0) == 1.0
    # s = -1: lam^(-2) Gamma(3)/Gamma(2) = 2 lam^(-2)
    assert stable_moment(0.5, 1.0, -1.0) == pytest.approx(2.0)


def test_stable_moment_quadrature_oracle():
    lam = LAM_DILUTE
    gamma = (lam * math.cos(math.pi * 0.25)) ** 2.0
    p = StableParams(0.5, gamma, 1.0)
    want = stable_moment(0.5, lam, 0.25)
    got, _ = quad(
        lambda x: x**0.25 * stable_density_series(p, x), 0.0, np.inf, limit=400
    )
    assert got == pytest.approx(want, rel=1e-5)


def test_stable_moment_domain():
    with pytest.raises(ValueError):
        stable_moment(0.5, 1.0, 0.6)


# ---------------------------------------------------------------------------
# the dilute limit variable


@pytest.fixture(scope="module")
def dilute_params():
    return DiluteParams(0.5, 1.5, LAM_DILUTE)


def test_dilute_density_normalization(dilute_params):
    total, _ = quad(lambda x: dilute_Z_density(dilute_params, x), 0.0, 50.0, limit=400)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_dilute_density_boundary_behavior(dilute_params):
    # near 0 the density diverges like
    #   lam^(2-b) Gamma(1-alpha(b-1)) / (Gamma(2-b) Gamma(1-alpha)) x^(1-b)
    # (the transformed argument x^(-1/alpha) hits the polynomial tail of the
    # one-sided stable density; 1 - b = b - 2 at the bundled b = 3/2); at the
    # far end it decays superpolynomially.
    lam, alpha, b = dilute_params.lam, dilute_params.alpha, dilute_params.b
    c0 = (
        lam ** (2.0 - b)
        * math.gamma(1.0 - alpha * (b - 1.0))
        / (math.gamma(2.0 - b) * math.gamma(1.0 - alpha))
    )
    x = 1e-9
    assert dilute_Z_density(dilute_params, x) == pytest.approx(
        c0 * x ** (1.0 - b), rel=1e-3
    )
    assert dilute_Z_density(dilute_params, -1.0) == 0.0
    assert dilute_Z_density(dilute_params, 60.0) < 1e-8 * dilute_Z_density(dilute_params, 1.0)


def test_dilute_moment_formula_vs_quadrature(dilute_params):
    for r in (0.5, 1.0, 1.5):
        want = dilute_Z_moment(dilute_params, r)
        got, _ = quad(
            lambda x: x**r * dilute_Z_density(dilute_params, x), 0.0, 60.0, limit=400
        )
        assert got == pytest.approx(want, rel=1e-5)


def test_dilute_moment_edges(dilute_params):
    assert dilute_Z_moment(dilute_params, 0.0) == pytest.approx(1.0)
    # near the divergence boundary r = b - 2 the formula stays finite and
    # matches quadrature
    r = -0.45
    want = dilute_Z_moment(dilute_params, r)
    got, _ = quad(
        lambda x: x**r * dilute_Z_density(dilute_params, x), 0.0, 60.0, limit=500
    )
    assert got == pytest.approx(want, rel=1e-4)
    with pytest.raises(ValueError):
        dilute_Z_moment(dilute_params, -0.5)


def test_dilute_cdf_monotone(dilute_params):
    grid = np.linspace(0.05, 6.0, 30)
    vals = [dilute_Z_cdf(dilute_params, x) for x in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1.0


def test_mixed_poisson_pmf_total(dilute_params):
    pmf = mixed_poisson_pmf(dilute_params, 1.0, 30)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-6)
    assert pmf[0] == pytest.approx(
        quad(lambda z: dilute_Z_density(dilute_params, z) * math.exp(-z), 0, 60)[0],
        rel=1e-6,
    )


# The alpha = 1/2 closed forms: (lam Z)^2 / 4 ~ Gamma((2 - b) / 2).


def _levy_cdf(p, x):
    return gammainc((2.0 - p.b) / 2.0, (p.lam * x) ** 2 / 4.0)


def _levy_density(p, x):
    a, s = (2.0 - p.b) / 2.0, (p.lam * x) ** 2 / 4.0
    return math.exp((a - 1.0) * math.log(s) - s - math.lgamma(a)) * p.lam**2 * x / 2.0


@pytest.mark.parametrize("n", [600, 1200, 1250, 2500, 5000])
def test_dilute_cdf_levy_closed_form_on_atom_grid(dilute_params, n):
    # the atoms ell / n^alpha of the exact KS check in verify_dilute
    na = n**0.5
    xs = np.arange(1, int(12 * na) + 1) / na
    got = dilute_Z_cdf(dilute_params, xs)
    assert np.max(np.abs(got - _levy_cdf(dilute_params, xs))) < 1e-12
    if n == 5000:  # criterion 10's first-atom bound
        assert got[0] == pytest.approx(0.108068, abs=5e-7)


@pytest.mark.parametrize("b", [1.1, 1.5, 1.9])
def test_dilute_density_levy_closed_form(b):
    p = DiluteParams(0.5, b, LAM_DILUTE)
    # both sides of the series edge lam x = 1, and both tails
    xs = np.array([1e-150, 1e-82, 1e-9, 1e-4, 0.01, 0.3, 0.7, 0.737, 0.7371, 1.0, 2.0, 5.0, 10.0])
    got = dilute_Z_density(p, xs)
    want = np.array([_levy_density(p, x) for x in xs])
    assert np.max(np.abs(got / want - 1.0)) < 1e-12


@pytest.mark.parametrize(
    "alpha, b",
    [
        (0.05, 1.5), (0.35, 1.05), (0.35, 1.95), (0.5, 1.5), (0.95, 1.05), (0.95, 1.95),
        (0.5, 1.001), (0.5, 1.99), (0.5, 1.999), (0.95, 1.999), (0.99, 1.5),
        (0.995, 1.5), (0.999, 1.5),
    ],
)
def test_dilute_grid_meets_series_at_the_edge(alpha, b):
    # Just above lam x = 1 the u grid takes over from the series.  There its
    # integrands are steepest in u as alpha -> 1: _KANTER_NODES = 400 keeps
    # the two routes within 1e-12 (200 nodes left 3e-8 at (0.95, 1.95)).
    # Past b = 1.98 the smallest v = pi w^k underflows, and past b = 1.95 the
    # integrands sit in a sliver of w next to 1 that gets its own panel.
    p = DiluteParams(alpha, b, 1.0)
    above = np.nextafter(laws._SERIES_EDGE, 2.0)
    for fn in (dilute_Z_density, dilute_Z_cdf):
        assert fn(p, above) == pytest.approx(fn(p, laws._SERIES_EDGE), rel=1e-12)


def _dilute_density_oracle(p, x):
    """The one-sided stable density of ``one_sided_stable_density`` (no
    route of ``laws``), scaled to Laplace transform exp(-lam t^alpha) and
    transformed to Z: g(x^(-1/alpha)) / (alpha E[S^(alpha (b - 1))]
    x^(b + 1/alpha))."""
    a = p.alpha
    f = p.lam ** (-1.0 / a) * one_sided_stable_density(a, (p.lam * x) ** (-1.0 / a))
    return f / (a * stable_moment(a, p.lam, a * (p.b - 1.0)) * x ** (p.b + 1.0 / a))


def _from_zero(fn, x, b, **kw):
    """int_0^x fn(y) dy; s = y^(2-b) absorbs the y^(1-b) singularity at 0."""
    e = 2.0 - b
    val, _ = quad(
        lambda s: fn(s ** (1.0 / e)) * s ** ((1.0 - e) / e) / e,
        0.0, x**e, limit=400, epsabs=0.0, epsrel=1e-11, **kw,
    )
    return val


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(0.35, 0.95),
    b=st.floats(1.05, 1.95),
    lam=st.floats(0.5, 2.0),
    log_t=st.floats(math.log(1e-2), math.log(10.0)),
    r=st.floats(0.0, 2.0),
)
def test_dilute_laws_against_stable_oracles(alpha, b, lam, log_t, r):
    # t = (lam x)^(1/(1-alpha)) = E / A(U) spans the bulk of the law
    p = DiluteParams(alpha, b, lam)
    x = math.exp((1.0 - alpha) * log_t) / lam
    want = _dilute_density_oracle(p, x)
    assert dilute_Z_density(p, x) == pytest.approx(want, rel=1e-8)
    want = _from_zero(lambda y: _dilute_density_oracle(p, y), x, b)
    assert dilute_Z_cdf(p, x) == pytest.approx(want, rel=1e-8)
    # E[Z^r]; past t = 60 / min A the density is below e^-60
    a_min = alpha ** (alpha / (1.0 - alpha)) * (1.0 - alpha)
    x_hi = (60.0 / a_min) ** (1.0 - alpha) / lam
    got = _from_zero(
        lambda y: y**r * dilute_Z_density(p, y), x_hi, b, points=[lam ** (b - 2.0)]
    )
    assert got == pytest.approx(dilute_Z_moment(p, r), rel=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(0.35, 0.95),
    b=st.one_of(st.floats(1.001, 1.05), st.floats(1.95, 1.999)),
    log_t=st.floats(math.log(1e-2), math.log(10.0)),
)
def test_dilute_laws_at_the_b_edges(alpha, b, log_t):
    # next to b = 1 and b = 2 the substitution of the oracle test above is
    # singular: the cdf is checked through its upper tail instead
    p = DiluteParams(alpha, b, 1.0)
    x = math.exp((1.0 - alpha) * log_t)
    assert dilute_Z_density(p, x) == pytest.approx(_dilute_density_oracle(p, x), rel=1e-8)
    a_min = alpha ** (alpha / (1.0 - alpha)) * (1.0 - alpha)
    x_hi = (60.0 / a_min) ** (1.0 - alpha)
    tail, _ = quad(lambda y: _dilute_density_oracle(p, y), x, x_hi, epsabs=0.0, epsrel=1e-10, limit=400)
    assert 1.0 - dilute_Z_cdf(p, x) == pytest.approx(tail, rel=1e-8)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_dilute_laws_next_to_alpha_one():
    # alpha = 0.99: both routes hold, the series up to lam x = 1 (past
    # lam x = 1.01 the oracle's inversion no longer converges)
    p = DiluteParams(0.99, 1.5, 1.0)
    for x in (0.5, 0.9, 1.0, 1.005, 1.01):
        assert dilute_Z_density(p, x) == pytest.approx(_dilute_density_oracle(p, x), rel=1e-8)
    assert dilute_Z_cdf(p, 0.9) == pytest.approx(
        _from_zero(lambda y: _dilute_density_oracle(p, y), 0.9, p.b), rel=1e-8
    )
    # alpha = 0.993 and 0.995: at lam x = 1 the z series takes 700 to 1 100
    # terms, against the density of 30-digit mpmath's one-sided stable law
    for alpha in (0.993, 0.995):
        p = DiluteParams(alpha, 1.5, 1.0)
        with mp.workdps(40):
            a = mp.mpf(alpha)
            gamma = float(mp.cos(mp.pi * a / 2) ** (1 / a))
            g = _stable_density_mpmath(StableParams(alpha, gamma, 1.0), 1.0)  # Laplace transform exp(-t^alpha)
            want = float(g * mp.gamma(1 - a * (mp.mpf(p.b) - 1)) / (a * mp.gamma(2 - mp.mpf(p.b))))
        assert dilute_Z_density(p, 1.0) == pytest.approx(want, rel=1e-12)
    # alpha = 0.999: the series converges at lam x = 1 after about 4 000
    # terms, where it once raised past 600 (the cdf) and the stable density's
    # inversion grid ran out of nodes (the density)
    p = DiluteParams(0.999, 1.5, 1.0)
    assert dilute_Z_density(p, 0.5) == pytest.approx(_dilute_density_oracle(p, 0.5), rel=1e-8)
    assert dilute_Z_density(p, 1.0) == pytest.approx(_dilute_series_mpmath(p, 1.0)[0], rel=1e-13)
    want = [_dilute_series_mpmath(p, x)[1] for x in (0.5, 1.0)]
    assert dilute_Z_cdf(p, np.array([0.5, 1.0])) == pytest.approx(want, rel=1e-13)
    # far above lam x = 1, t = (lam x)^1000 leaves the float range
    assert dilute_Z_cdf(p, 3.0) == 1.0 and dilute_Z_density(p, 3.0) == 0.0


@functools.lru_cache(maxsize=None)
def _dilute_series_mpmath(p, z, dps=50):
    """(f, F) at lam x = z from the z series of ``laws._dilute_series``, at
    dps digits: f = lam K sum_k c_k z^(k-b), F = K sum_k c_k z^(k+1-b) /
    (k+1-b), c_k = (-1)^(k+1) Gamma(alpha k + 1) sin(pi alpha k) / k!, up to
    a term whose magnitude without the sine falls below 1e-25 of F (the
    magnitudes fall by a ratio below 0.99 there, so the rest is below 1e-23).
    sin(pi alpha k) comes from the rotation by pi alpha, one step a term."""
    with mp.workdps(dps + 10):
        a, b, z = mp.mpf(p.alpha), mp.mpf(p.b), mp.mpf(z)
        eps, f, F, inv_fact, z_pow = mp.mpf("1e-25"), mp.mpf(0), mp.mpf(0), mp.mpf(1), z ** (1 - b)
        sin1, cos1 = mp.sinpi(a), mp.cospi(a)
        sin_k, cos_k, k = sin1, cos1, 1
        while True:
            inv_fact /= k
            mag = mp.gamma(a * k + 1) * inv_fact * z_pow
            term = mag * sin_k if k % 2 else -mag * sin_k
            f, F = f + term, F + term * z / (k + 1 - b)
            if mag < eps * abs(F):
                break
            k, z_pow = k + 1, z_pow * z
            sin_k, cos_k = sin_k * cos1 + cos_k * sin1, cos_k * cos1 - sin_k * sin1
        scale = mp.gamma(1 - a * (b - 1)) / (a * mp.pi * mp.gamma(2 - b))
        return float(p.lam * scale * f), float(scale * F)


@pytest.mark.parametrize("b", [1.2, 1.5, 1.9])
@pytest.mark.parametrize("alpha", [0.993, 0.995, 0.998, 0.999])
def test_dilute_laws_at_lam_x_one_next_to_alpha_one_against_mpmath(alpha, b):
    # below lam x = 1 the series has no cancellation at any alpha: it runs
    # to convergence, here in 700 to 4 200 terms
    p = DiluteParams(alpha, b, 1.0)
    f, F = _dilute_series_mpmath(p, 1.0)
    assert dilute_Z_density(p, 1.0) == pytest.approx(f, rel=1e-13)
    assert dilute_Z_cdf(p, 1.0) == pytest.approx(F, rel=1e-13)


@pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-313, 1e-312, 4e-312, 1e-311])
@pytest.mark.parametrize("alpha, b, lam", [(0.5, 1.99, 1.0), (0.9, 1.999, 1.0), (0.1, 1.99, 3.0)])
def test_dilute_laws_at_subnormal_x_next_to_b_two(alpha, b, lam, x):
    # below about lam x = 4e-312 (b = 1.99) the first term Gamma(alpha + 1)
    # z^(1-b) is past the float range; the series then runs with z^(1-b)
    # or z^(2-b) factored out.  Terms near e^700 carry about 700 eps of
    # relative error from log z on either side of that switch
    p = DiluteParams(alpha, b, lam)
    f, F = _dilute_series_mpmath(p, lam * x)
    assert dilute_Z_cdf(p, x) == pytest.approx(F, rel=1e-13)
    if f == math.inf:
        assert dilute_Z_density(p, x) == math.inf
    else:
        assert dilute_Z_density(p, x) == pytest.approx(f, rel=1e-13)


@pytest.mark.parametrize("b", [1.01, 1.5, 1.99])
@pytest.mark.parametrize("lam, x", [(0.5, 5e-324), (0.1, 1e-323), (1e-3, 2e-321)])
def test_dilute_laws_where_lam_x_rounds_to_zero(lam, x, b):
    # x > 0 but lam x rounds to 0.0: log z is log lam + log x, and the sum
    # runs with z^(1-b) or z^(2-b) factored out (``math.log(0.0)`` raised
    # ValueError here), against the 50-digit sum at the exact z
    p = DiluteParams(0.5, b, lam)
    assert lam * x == 0.0
    with mp.workdps(60):
        z = mp.mpf(lam) * mp.mpf(x)
    f, F = _dilute_series_mpmath(p, z)
    assert dilute_Z_cdf(p, x) == pytest.approx(F, rel=1e-13)
    assert dilute_Z_density(p, x) == (math.inf if f == math.inf else pytest.approx(f, rel=1e-13))
    assert dilute_Z_density(p, np.array([0.0, x])).tolist() == [0.0, dilute_Z_density(p, x)]


@pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-310])
def test_dilute_cdf_at_subnormal_x_next_to_b_one(x):
    # z^(2-b) z^k underflows to 0 from k = 2 on, and so may 1e-17 of the
    # sum: a zero magnitude ends the series, where it ran out of terms.
    # F is subnormal: a few of its last places are off
    p = DiluteParams(0.1, 1.01, 1.0)
    F = _dilute_series_mpmath(p, x)[1]
    assert abs(dilute_Z_cdf(p, x) - F) <= 1e-13 * F + 4 * 5e-324


def _dilute_density_mpmath(p, x):
    """The dilute density at x from the 30-digit one-sided stable density
    of ``_stable_density_mpmath``, transformed to Z as in
    ``_dilute_density_oracle``: g(x^(-1/alpha)) / (alpha E[S^(alpha (b - 1))]
    x^(b + 1/alpha)), with E[S^s] the moment of ``stable_moment``."""
    with mp.workdps(40):
        a, b, lam, x = mp.mpf(p.alpha), mp.mpf(p.b), mp.mpf(p.lam), mp.mpf(x)
        gamma = float((lam * mp.cos(mp.pi * a / 2)) ** (1 / a))
        g = _stable_density_mpmath(StableParams(p.alpha, gamma, 1.0), x ** (-1 / a))
        moment = lam ** (b - 1) * mp.gamma(2 - b) / mp.gamma(1 - a * (b - 1))
        return float(g / (a * moment * x ** (b + 1 / a)))


@pytest.mark.parametrize(
    "alpha, b, lam, x",
    [
        (0.96, 1.2, 1.0, 1.3), (0.96, 1.9, 1.0, 1.1), (0.98, 1.5, 2.0, 0.55),
        (0.98, 1.2, 1.0, 1.02), (0.99, 1.2, 1.0, 1.02), (0.99, 1.9, 1.0, 1.02),
    ],
)
def test_kanter_grid_next_to_alpha_one_against_mpmath(alpha, b, lam, x):
    # above lam x = 1 the laws come from the u grid alone; at alpha > 0.95
    # its integrands are steepest.  The density is checked against 30-digit
    # mpmath, and the cdf through its upper tail up to the e^-60 point, as
    # at the b edges (at alpha = 0.99 that point is lam x = 1.10)
    p = DiluteParams(alpha, b, lam)
    assert lam * x > laws._SERIES_EDGE
    assert dilute_Z_density(p, x) == pytest.approx(_dilute_density_mpmath(p, x), rel=1e-10)
    a_min = alpha ** (alpha / (1.0 - alpha)) * (1.0 - alpha)
    x_hi = (60.0 / a_min) ** (1.0 - alpha) / lam
    tail, _ = quad(lambda y: _dilute_density_oracle(p, y), x, x_hi, epsabs=0.0, epsrel=1e-10, limit=400)
    assert 1.0 - dilute_Z_cdf(p, x) == pytest.approx(tail, rel=1e-8)


@pytest.mark.parametrize("alpha, b", [(0.99, 1.2), (0.96, 1.9)])
def test_dilute_cdf_stays_a_probability_above_lam_x_one(alpha, b):
    # the u grid's total rounded to 1 + 2.2e-16 or 1 + 4.4e-16 at most of
    # these points before it was clamped
    p = DiluteParams(alpha, b, 1.0)
    f = dilute_Z_cdf(p, np.linspace(1.0, 2.0, 201))
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert np.all(np.diff(f) >= 0.0)
    assert f[-1] == 1.0


def test_inversion_keeps_quadpack_round_off_warnings_to_itself():
    # both oscillatory quad calls warn of round-off here; the err > 1e-6
    # guard judges convergence, and the value is kept as it was
    p = StableParams(0.875, 0.15, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        assert stable_density_inversion(p, 0.4375) == pytest.approx(5.430358705900521e-05, rel=1e-6)


def test_dilute_vector_call_matches_scalar_calls():
    p = DiluteParams(0.7, 1.8, 1.3)
    xs = np.concatenate(([-1.0, 0.0], np.geomspace(1e-6, 20.0, 58)))
    for fn in (dilute_Z_density, dilute_Z_cdf):
        vec = fn(p, xs.reshape(6, 10))
        assert vec.shape == (6, 10)
        scalars = [fn(p, float(x)) for x in xs]
        assert all(isinstance(v, float) for v in scalars)
        assert vec.tobytes() == np.array(scalars).tobytes()


def _dilute_blocks_match_scalar_calls(fn, size, alpha, b, monkeypatch):
    p = DiluteParams(alpha, b, 0.8)
    edge = laws._SERIES_EDGE / p.lam
    xs = np.insert(np.geomspace(1.01, 400.0, size) * edge, [0, size // 2, size], [0.05 * edge, 0.5 * edge, edge])
    assert (p.lam * xs > laws._SERIES_EDGE).sum() == size
    vec = fn(p, xs)
    monkeypatch.setattr(laws, "fsum_rows", lambda x: np.array([math.fsum(row) for row in x.tolist()]))
    assert vec.tobytes() == np.array([fn(p, float(x)) for x in xs]).tobytes()


@pytest.mark.parametrize("size", [63, 64, 65, 129])
@pytest.mark.parametrize("alpha, b", [(0.3, 1.5), (0.7, 1.8), (0.5, 1.97)])
def test_dilute_density_blocks_match_scalar_calls(size, alpha, b, monkeypatch):
    """The density sums its u grid in blocks of _INVERSION_ROWS points;
    ``size`` points past _SERIES_EDGE, partial blocks included, and three
    below it give the bytes of scalar calls that sum each row by math.fsum."""
    _dilute_blocks_match_scalar_calls(dilute_Z_density, size, alpha, b, monkeypatch)


@pytest.mark.parametrize("size", [63, 64, 65, 129])
@pytest.mark.parametrize("alpha, b", [(0.3, 1.5), (0.7, 1.8), (0.5, 1.97)])
def test_dilute_cdf_blocks_match_scalar_calls(size, alpha, b, monkeypatch):
    """The cdf takes its igam grid in the density's blocks of
    _INVERSION_ROWS points, with the same bytes as scalar calls."""
    _dilute_blocks_match_scalar_calls(dilute_Z_cdf, size, alpha, b, monkeypatch)


def test_dilute_cdf_working_memory_does_not_grow_with_the_grid():
    """The cdf's igam grid is formed a block of points at a time: its
    traced peak stays under 8 MB at 1000 and 2000 points past the edge
    (27 MB and 54 MB when the whole grid went to igam at once)."""
    p = DiluteParams(0.5, 1.5, 1.3)
    edge = laws._SERIES_EDGE / p.lam
    dilute_Z_cdf(p, 2.0 * edge)  # the u grid and its nodes are cached
    peaks = []
    for size in (1000, 2000):
        xs = np.geomspace(1.01, 400.0, size) * edge
        tracemalloc.start()
        try:
            dilute_Z_cdf(p, xs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 8e6
    assert peaks[1] < 1.25 * peaks[0]


@pytest.mark.parametrize("fn", [dilute_Z_density, dilute_Z_cdf])
def test_dilute_laws_at_non_finite_points(fn):
    """NaN gives NaN, -inf 0 and +inf the limits f = 0 and F = 1 (the u
    grid's weights, which sum to 1 - 2^-52 here, gave 0.9999999999999998);
    finite points of the same call keep the bytes of scalar calls."""
    p = DiluteParams(0.5, 1.5, 1.3)
    xs = np.array([math.nan, 0.5, math.inf, 4.0, -math.inf, 1e308])
    vec = fn(p, xs)
    limit = 1.0 if fn is dilute_Z_cdf else 0.0
    assert math.isnan(vec[0]) and math.isnan(fn(p, math.nan))
    assert vec[2] == fn(p, math.inf) == limit
    assert vec[4] == fn(p, -math.inf) == 0.0
    finite = [1, 3, 5]
    assert vec[finite].tobytes() == np.array([fn(p, float(x)) for x in xs[finite]]).tobytes()


def test_dilute_cdf_is_one_where_every_node_is():
    """Where P(1-q, A t) is 1 at every u node, F is 1.0: it was the u grid's
    weight total, 0.9999999999999998 for these parameters, at x = 1e6,
    1e200 and 1e308 (t clamped at 1e300 there).  Points short of that keep
    their weighted sums, and the cdf stays nondecreasing across the step."""
    from gibbs_partitions.special import igam

    p = DiluteParams(0.5, 1.5, 1.3)
    log_a, log_w = (np.array(g) for g in laws._u_grid(p.alpha, p.b))
    a = special._libm(math.exp, np.minimum(log_a, 700.0))
    assert dot(np.ones(log_w.size), special._libm(math.exp, log_w)) < 1.0
    xs = [1e6, 1e200, 1e308]
    assert dilute_Z_cdf(p, np.array(xs)).tolist() == [dilute_Z_cdf(p, x) for x in xs] == [1.0, 1.0, 1.0]
    grid = np.geomspace(laws._SERIES_EDGE / p.lam, 1e3, 400)
    f = dilute_Z_cdf(p, grid)
    assert np.all(np.diff(f) >= 0.0) and f[-1] == 1.0
    q = (p.b - 1.0) * (1.0 - p.alpha)
    t = [(p.lam * x) ** (1.0 / (1.0 - p.alpha)) for x in grid.tolist()]
    saturated = np.array([igam(1.0 - q, ti * a).min() == 1.0 for ti in t])
    assert 0 < saturated.sum() < grid.size
    assert np.all(f[saturated] == 1.0) and np.all(f[~saturated] < 1.0)


def test_exp_underflows_to_zero_below_minus_800():
    """The density leaves e^arg at +0.0 for arg < -800 without calling exp:
    exactly what math.exp returns there."""
    for arg in (-800.0000000000001, -800.5, -1e4, -1e300, -math.inf):
        assert math.exp(arg) == 0.0 and math.copysign(1.0, math.exp(arg)) == 1.0
    assert math.exp(-745.0) > 0.0


def test_mixed_poisson_pmf_levy_closed_form(dilute_params):
    ups = 0.9
    got = mixed_poisson_pmf(dilute_params, ups, 8)
    for k in range(9):
        want = _from_zero(
            lambda x: _levy_density(dilute_params, x)
            * math.exp(k * math.log(ups * x) - ups * x - math.lgamma(k + 1.0)),
            40.0,
            dilute_params.b,
            points=[1.0],
        )
        assert got[k] == pytest.approx(want, rel=1e-11)
    assert mixed_poisson_pmf(dilute_params, 0.0, 3) == pytest.approx([1, 0, 0, 0], abs=1e-14)
    # past upsilon Z ~ 700 the terms exp(-upsilon Z) underflow: refuse, do
    # not lose the mass (at upsilon = 1000 a quarter of it went silently)
    assert mixed_poisson_pmf(dilute_params, 50.0, 400).sum() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match="out of range"):
        mixed_poisson_pmf(dilute_params, 1000.0, 10)


def test_mixed_poisson_pmf_general_alpha():
    p = DiluteParams(0.7, 1.8, 1.0)
    ups = 2.0
    got = mixed_poisson_pmf(p, ups, 6)
    for k in range(7):
        want = _from_zero(
            lambda x: dilute_Z_density(p, x)
            * math.exp(k * math.log(ups * x) - ups * x - math.lgamma(k + 1.0)),
            40.0,
            p.b,
            points=[1.0],
        )
        assert got[k] == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# extreme-value laws


def test_frechet_forced_point():
    # at x with mu^alpha x^(-alpha) / |Gamma(1-alpha)| = 1 the cdf is e^-1
    mu, alpha = 1.0, 1.5
    x = (-1.0 / math.gamma(1.0 - alpha)) ** (1.0 / alpha)
    law = frechet_law(mu, alpha, 1)
    assert law.cdf(x) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_frechet_cdf_limits():
    law = frechet_law(2.0, 1.5, 1)
    assert law.cdf(1e9) == pytest.approx(1.0, abs=1e-9)
    assert law.cdf(1e-9) == pytest.approx(0.0, abs=1e-12)


def test_frechet_cdf_at_non_finite_points():
    law = frechet_law(1.3, 1.5, 2)
    got = law.cdf(np.array([math.nan, -math.inf, math.inf, 0.7]))
    assert math.isnan(got[0]) and math.isnan(law.cdf(math.nan))
    assert got[1:3].tolist() == [0.0, 1.0] and law.cdf(-math.inf) == 0.0 and law.cdf(math.inf) == 1.0
    assert got[3] == law.cdf(0.7)


def test_frechet_cdf_blocks_keep_the_bytes():
    """The cdf takes its points _POINT_BLOCK at a time: across the block
    edge it gives the bytes of calls on pieces within one block, and of
    scalar calls at the edge."""
    law = frechet_law(1.3, 1.5, 2)
    xs = np.linspace(-1.0, 9.0, special._POINT_BLOCK + 3)
    got = law.cdf(xs.reshape(1, -1))
    assert got.shape == (1, xs.size)
    assert got.tobytes() == np.concatenate([law.cdf(xs[:1000]), law.cdf(xs[1000:])]).tobytes()
    edge = slice(special._POINT_BLOCK - 2, special._POINT_BLOCK + 2)
    assert got[0, edge].tolist() == [law.cdf(x) for x in xs[edge]]


def test_frechet_rank_j_cdf_is_a_poisson_count():
    # the j-th largest atom is <= x iff fewer than j atoms exceed x, a
    # Poisson count of mean Lambda = theta x^-alpha
    for mu, alpha, j in ((1.3, 1.5, 2), (1.0, 1.7, 3)):
        law = frechet_law(mu, alpha, j)
        for x in (0.4, 1.0, 2.5, 7.0):
            lam = law.theta * x**-alpha
            want = math.exp(-lam) * math.fsum(lam**i / math.factorial(i) for i in range(j))
            assert float(law.cdf(x)) == pytest.approx(want, rel=1e-12)


def test_frechet_rejects_alpha_two():
    with pytest.raises(ValueError):
        frechet_law(1.0, 2.0, 1)


def test_gumbel_points():
    assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0))
    assert gumbel_cdf(40.0) == pytest.approx(1.0)
    assert gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, rel=1e-12)


def test_gumbel_cdf_where_exp_overflows():
    # exp(-x) overflows below x = -709.78; the cdf is 0.0 from about -6.6 down
    assert gumbel_cdf(-700.0) == 0.0
    assert gumbel_cdf(-800.0) == 0.0
    assert gumbel_cdf(-1e300) == 0.0


# ---------------------------------------------------------------------------
# the point process of rescaled component sizes


def test_pp_intensity_direct_gamma_eval():
    # alpha = 1/2, b = 3/2: intensity(1/2) = 2^1.5 * 2^0.75 / B(1/2, 1/4)
    alpha, b = 0.5, 1.5
    B = math.gamma(0.5) * math.gamma(0.25) / math.gamma(0.75)
    want = (0.5 ** -1.5) * (0.5 ** -0.75) / B
    assert pp_intensity(alpha, b, 0.5) == pytest.approx(want, rel=1e-12)


def test_pp_intensity_domain():
    with pytest.raises(ValueError):
        pp_intensity(0.5, 1.5, 0.0)
    assert pp_intensity(0.5, 1.5, 1.0) == math.inf


def test_pp_mean_count_diverges_near_zero():
    vals = [pp_intensity_integral(0.5, 1.5, x) for x in (0.2, 0.05, 0.01)]
    assert vals[0] < vals[1] < vals[2]
    assert pp_intensity_integral(0.5, 1.5, 0.0) == math.inf
    assert pp_factorial_moment(0.5, 1.5, (0.0, 1.0), 1) == math.inf


def test_pp_m1_matches_intensity_integral():
    # definitional consistency: the first factorial moment equals the
    # intensity integral (two different gamma-prefactor routes), both
    # agreeing with a frozen 30-digit endpoint-substituted oracle
    oracle = {0.2: 1.216460678941, 0.4: 0.894577913337, 0.7: 0.629365666454}
    for x0, want in oracle.items():
        via_moment = pp_factorial_moment(0.5, 1.5, (x0, 1.0), 1)
        via_intensity = pp_intensity_integral(0.5, 1.5, x0)
        assert via_moment == pytest.approx(via_intensity, rel=1e-10)
        assert via_moment == pytest.approx(want, rel=1e-8)


def test_pp_m2_monte_carlo_quadrature_oracle():
    # MC integration of the 2-d kernel over the triangle corner
    alpha, b, x0 = 0.5, 1.5, 0.4
    rng = np.random.default_rng(42)
    m = 400_000
    ys = rng.uniform(x0, 1.0, size=(m, 2))
    s = ys.sum(axis=1)
    mask = s <= 1.0
    c2 = alpha * (3.0 - b)
    vals = np.zeros(m)
    vals[mask] = (1.0 - s[mask]) ** (c2 - 1.0) / (ys[mask, 0] * ys[mask, 1]) ** (alpha + 1.0)
    integral_mc = vals.mean() * (1.0 - x0) ** 2
    from scipy.special import gammaln

    pref = math.exp(
        2 * math.log(alpha)
        - 2 * gammaln(1.0 - alpha)
        + gammaln(1.0 + alpha * (1.0 - b))
        + gammaln(4.0 - b)
        - gammaln(1.0 + alpha * (3.0 - b))
        - gammaln(2.0 - b)
    )
    want = pp_factorial_moment(alpha, b, (x0, 1.0), 2)
    assert pref * integral_mc == pytest.approx(want, rel=1e-2)


def test_all_cdfs_monotone_densities_nonneg():
    p = StableParams(1.5, GAMMA_DENSE_15, -1.0)
    xs = np.linspace(-8, 4, 61)
    dens = [stable_density_series(p, x) for x in xs]
    assert all(d >= 0 for d in dens)
    law = frechet_law(1.1, 1.5, 1)
    cdfs = law.cdf(np.linspace(0.01, 20, 50))
    assert all(b >= a for a, b in zip(cdfs, cdfs[1:]))


def test_libm_maps_are_math_per_entry():
    """special._libm gives math.exp / math.cos / math.pow of each entry, in
    the input's shape (0-d arrays for scalars), on strided views too, and
    raises where math does."""
    rng = np.random.default_rng(2)
    for x in (rng.standard_normal(400) * 60.0, rng.standard_normal((3, 5, 2)), rng.standard_normal((4, 6))[:, ::2].T,
              np.float64(-0.7), 1.25, [0, 1, 2], np.zeros((0, 4))):
        want = np.asarray(x, dtype=float)
        for fn, scalars, ref in ((math.exp, (), math.exp), (math.cos, (), math.cos), (math.pow, (3.0,), lambda v: v**3.0)):
            got = special._libm(fn, x, *scalars)
            assert got.dtype == float and got.shape == want.shape
            assert got.tobytes() == np.array([ref(v) for v in want.ravel().tolist()]).tobytes()
    with pytest.raises(OverflowError):
        special._libm(math.exp, np.array([1.0, 800.0]))


def test_frechet_cdf_and_intensity_where_the_power_passes_the_float_range():
    # x^-alpha past the float range raised OverflowError (found by the
    # point-contract fuzzer below): the cdf is 0 and the intensity +inf there,
    # and Lambda = (mu / x)^alpha / |Gamma(1 - alpha)| where mu is as small
    law = frechet_law(1.3, 1.5, 2)
    assert law.cdf(5e-324) == 0.0 and law.cdf(1e-300) == 0.0
    want = math.exp(-(0.5**1.5) / -math.gamma(-0.5))
    assert frechet_law(1e-210, 1.5, 1).cdf(2e-210) == pytest.approx(want, rel=1e-14)
    assert pp_intensity(0.5, 1.5, 5e-324) == math.inf and pp_intensity(0.5, 1.5, 1e-300) == math.inf


# ---------------------------------------------------------------------------
# the point contract of every point-wise function of laws and special

_SPECIAL_POINTS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1e300, -1e300,
                   math.inf, -math.inf, math.nan]
_DILUTE = DiluteParams(0.5, 1.5, 1.3)
# name: (function, kind, the exception a point may raise)
_POINTWISE = {
    "stable-dense": (functools.partial(stable_density_series, StableParams(1.5, 1.0, -1.0)), "density", RuntimeError),
    "stable-one-sided": (functools.partial(stable_density_series, StableParams(0.6, 1.0, 1.0)), "density", None),
    "stable-gauss": (functools.partial(stable_density_series, StableParams(2.0)), "density", None),
    "dilute-density": (functools.partial(dilute_Z_density, _DILUTE), "density", ValueError),
    "dilute-cdf": (functools.partial(dilute_Z_cdf, _DILUTE), "cdf", ValueError),
    "frechet-cdf": (frechet_law(1.3, 1.5, 2).cdf, "cdf", None),
    "gumbel-cdf": (gumbel_cdf, "cdf", None),
    "pp-intensity": (functools.partial(pp_intensity, 0.5, 1.5), "density", ValueError),
    "lgam": (special.lgam, "lgam", ValueError),
    "igam": (functools.partial(special.igam, 2.5), "gamma-cdf", None),
    "igamc": (functools.partial(special.igamc, 0.7), "gamma-cdf", None),
    "chdtrc": (functools.partial(special.chdtrc, 3.0), "gamma-cdf", None),
}


def _assert_point_contract(fn, kind, refusal, x):
    """fn at the array x against the point contract: a Python float for a
    float, equal to the 1-element array's entry; x's shape and the bytes of
    the _POINT_BLOCK pieces for an array, every entry that of the scalar
    call; densities >= 0, cdfs in [0, 1], NaN exactly at NaN (and, for the
    incomplete gamma functions, at x < 0, as scipy's); or ``refusal``,
    raised by the array call exactly when a scalar call raises it."""
    flat = x.ravel()
    bits, where = np.unique(flat.view(np.uint64), return_inverse=True)
    points = bits.view(float).tolist()
    try:
        got = fn(x)
    except Exception as err:
        assert refusal is not None and isinstance(err, refusal), err
        refused = []
        for v in points:
            try:
                fn(v)
            except refusal:
                refused.append(v)
        assert refused, f"the array call raised {err!r}, but no scalar call raises"
        return
    assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == x.shape
    block = special._POINT_BLOCK
    pieces = np.concatenate([fn(flat[i : i + block]) for i in range(0, flat.size, block)])
    assert got.tobytes() == pieces.tobytes()
    scalars = [fn(v) for v in points]
    assert all(type(s) is float for s in scalars)
    assert all(np.array([s]).tobytes() == fn(np.array([v])).tobytes() for s, v in zip(scalars, points))
    assert got.ravel().tobytes() == np.array(scalars)[where].tobytes()
    nan = np.isnan(x) | (x < 0.0) if kind == "gamma-cdf" else np.isnan(x)
    assert np.array_equal(np.isnan(got), nan)
    values = got[~nan]
    if kind == "density":
        assert np.all(values >= 0.0)
    elif kind != "lgam":
        assert np.all((values >= 0.0) & (values <= 1.0))


_POINTS = st.one_of(st.sampled_from(_SPECIAL_POINTS), st.floats(-40.0, 40.0), st.floats())


@pytest.mark.parametrize("name", list(_POINTWISE))
@settings(max_examples=25, deadline=None)
@given(xs=st.lists(_POINTS, min_size=1, max_size=12), layout=st.sampled_from(["flat", "rows", "past-a-block"]))
@example(xs=_SPECIAL_POINTS, layout="past-a-block")
@example(xs=[0.3, 0.7, 1.0, 2.5, 7.0], layout="past-a-block")
def test_pointwise_functions_keep_the_point_contract(name, xs, layout):
    """Item 30's limit-law slice: every point-wise function of laws and
    special at arrays that mix +-0, subnormals, 1e+-300, +-inf and NaN,
    as one row, as rows, and repeated past one _POINT_BLOCK."""
    fn, kind, refusal = _POINTWISE[name]
    x = np.array(xs)
    if layout == "rows":
        x = x.reshape(-1, 1)
    elif layout == "past-a-block":
        x = np.resize(x, special._POINT_BLOCK + len(xs))
    _assert_point_contract(fn, kind, refusal, x)
