"""Limit laws: stable densities (series vs inversion dual route), fractional
moments vs quadrature, the dilute limit variable, extreme-value laws, and
the point-process intensity and factorial moments.

Monte Carlo quadrature and scipy adaptive quadrature serve as the
independent oracles throughout.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, zeta

from gibbs_partitions import laws
from gibbs_partitions.laws import (
    DiluteParams,
    StableParams,
    dilute_Z_cdf,
    dilute_Z_density,
    dilute_Z_moment,
    frechet_law,
    gumbel_cdf,
    mixed_poisson_pmf,
    pp_factorial_moment,
    pp_intensity,
    pp_intensity_integral,
    stable_cf,
    stable_density_inversion,
    stable_density_series,
    stable_moment,
)

GAMMA_DENSE_15 = (-math.cos(math.pi * 0.75)) ** (1.0 / 1.5)
LAM_DILUTE = math.gamma(0.5) / (0.5 * float(zeta(1.5)))  # ~1.356967215141875


# ---------------------------------------------------------------------------
# characteristic function


def test_cf_at_zero_is_one():
    assert stable_cf(StableParams(1.5, 1.0, -1.0), 0.0) == 1.0


def test_cf_gaussian_branch():
    p = StableParams(2.0, 1.2, 0.7, 0.3)
    t = 0.9
    want = complex(np.exp(-(1.2**2) * t**2 + 1j * 0.3 * t))  # tan(pi) = 0
    assert stable_cf(p, t) == pytest.approx(want, rel=1e-12)


def test_cf_alpha_one_branch():
    p = StableParams(1.0, 1.0, 1.0, 0.0)
    assert stable_cf(p, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)  # log|1| = 0


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
    xs = np.array([1e-9, 1e-4, 0.01, 0.3, 0.7, 0.737, 0.7371, 1.0, 2.0, 5.0, 10.0])
    got = dilute_Z_density(p, xs)
    want = np.array([_levy_density(p, x) for x in xs])
    assert np.max(np.abs(got / want - 1.0)) < 1e-12


@pytest.mark.parametrize(
    "alpha, b",
    [
        (0.05, 1.5), (0.35, 1.05), (0.35, 1.95), (0.5, 1.5), (0.95, 1.05), (0.95, 1.95),
        (0.5, 1.001), (0.5, 1.99), (0.5, 1.999), (0.95, 1.999), (0.99, 1.5),
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
    """The one-sided stable density (series, or inversion where the series
    cancels) transformed to Z."""
    a = p.alpha
    gamma = (p.lam * math.cos(math.pi * a / 2.0)) ** (1.0 / a)
    f = stable_density_series(StableParams(a, gamma, 1.0), x ** (-1.0 / a))
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
    # alpha = 0.999: at lam x = 1 the series has not converged after
    # _SERIES_MAX_TERMS terms, and the grid cannot stand in: refuse
    p = DiluteParams(0.999, 1.5, 1.0)
    assert dilute_Z_density(p, 0.5) == pytest.approx(_dilute_density_oracle(p, 0.5), rel=1e-8)
    with pytest.raises(ValueError, match="does not converge"):
        dilute_Z_cdf(p, np.array([0.5, 1.0]))
    with pytest.raises(RuntimeError):  # the inversion fallback fails too
        dilute_Z_density(p, 1.0)
    # far above lam x = 1, t = (lam x)^1000 leaves the float range
    assert dilute_Z_cdf(p, 3.0) == 1.0 and dilute_Z_density(p, 3.0) == 0.0


def test_dilute_vector_call_matches_scalar_calls():
    p = DiluteParams(0.7, 1.8, 1.3)
    xs = np.concatenate(([-1.0, 0.0], np.geomspace(1e-6, 20.0, 58)))
    for fn in (dilute_Z_density, dilute_Z_cdf):
        vec = fn(p, xs.reshape(6, 10))
        assert vec.shape == (6, 10)
        scalars = [fn(p, float(x)) for x in xs]
        assert all(isinstance(v, float) for v in scalars)
        assert vec.tobytes() == np.array(scalars).tobytes()


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


def test_frechet_rank2_density_normalizes():
    law = frechet_law(1.3, 1.5, 2)
    total, _ = quad(lambda x: float(law.pdf(x)), 0.0, np.inf, limit=400)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_frechet_pdf_matches_cdf_derivative():
    law = frechet_law(1.0, 1.7, 3)
    for x in (0.4, 1.0, 2.5):
        h = 1e-6
        num = (law.cdf(x + h) - law.cdf(x - h)) / (2 * h)
        assert float(law.pdf(x)) == pytest.approx(float(num), rel=1e-5)


def test_frechet_rejects_alpha_two():
    with pytest.raises(ValueError):
        frechet_law(1.0, 2.0, 1)


def test_gumbel_points():
    assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0))
    assert gumbel_cdf(40.0) == pytest.approx(1.0)
    assert gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, rel=1e-12)


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
