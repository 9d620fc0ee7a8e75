"""Weight sequences: terms, certified series values, tilting, moments.

Oracles: scipy.special.zeta (an independent high-precision summation) and
mpmath Euler-Maclaurin sums for log-power factors.
"""

import math
import pathlib
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from gibbs_partitions import ExtendedSpec, ProductSpec, SchemeSpec, WeightSequence, bundled_names, bundled_scheme
from gibbs_partitions.exact import law_Nn
from gibbs_partitions.phases import Phase, classify
from gibbs_partitions.schemes import zeta_scheme


def test_term_explicit_direct_read():
    seq = WeightSequence.explicit([0.0, 1.0, 0.5])
    assert seq.term(2) == 0.5
    assert seq.term(7) == 0.0


def test_term_closed_form_power():
    seq = WeightSequence.closed_form(c=1.0, e=4.0, rho=1.0)
    assert seq.term(2) == pytest.approx(0.0625, abs=0)


def test_term_override_precedence():
    seq = WeightSequence.closed_form(c=1.0, e=1.5, rho=1.0, overrides={1: 0.0})
    assert seq.term(1) == 0.0
    assert seq.term(2) == pytest.approx(2.0 ** -1.5)


def test_term0_default_zero():
    seq = WeightSequence.closed_form(c=1.0, e=2.0, rho=1.0)
    assert seq.term(0) == 0.0
    assert WeightSequence.closed_form(c=1.0, e=2.0, rho=1.0, term0=0.3).term(0) == 0.3


def test_series_value_zeta4():
    seq = WeightSequence.closed_form(c=1.0, e=4.0, rho=1.0)
    assert seq.series_value(1.0) == pytest.approx(float(zeta(4)), abs=1e-11)


def test_series_value_zeta_three_halves():
    seq = WeightSequence.closed_form(c=1.0, e=1.5, rho=1.0)
    assert seq.series_value(1.0) == pytest.approx(float(zeta(1.5)), abs=1e-11)


def test_series_value_at_zero_returns_term0():
    seq = WeightSequence.closed_form(c=2.0, e=3.0, rho=1.0, term0=0.25)
    assert seq.series_value(0.0) == 0.25


def test_series_divergence_flags():
    seq = WeightSequence.closed_form(c=1.0, e=1.5, rho=1.0)
    assert seq.series_value(1.2) == math.inf  # beyond the radius
    assert WeightSequence.closed_form(c=1.0, e=0.9, rho=1.0).series_value(1.0) == math.inf


def test_series_log_power_against_euler_maclaurin():
    seq = WeightSequence.closed_form(c=1.0, e=2.0, rho=1.0, log_exp=1.5)
    mpmath.mp.dps = 25
    oracle = float(
        mpmath.nsum(lambda n: mpmath.log(2 + n) ** 1.5 / n**2, [1, mpmath.inf], method="e")
    )
    assert seq.series_value(1.0) == pytest.approx(oracle, abs=1e-10)


def test_radius():
    assert WeightSequence.closed_form(c=1.0, e=2.0, rho=0.5).radius() == 0.5
    assert WeightSequence.explicit([1.0, 2.0, 3.0]).radius() == math.inf


def test_weighted_moment_zeta3():
    seq = WeightSequence.closed_form(c=1.0, e=4.0, rho=1.0)
    assert seq.weighted_moment(1.0, 1) == pytest.approx(float(zeta(3)), abs=1e-11)


def test_weighted_moment_divergence():
    seq = WeightSequence.closed_form(c=1.0, e=1.5, rho=1.0)
    assert seq.weighted_moment(1.0, 1) == math.inf


def test_explicit_weighted_moment_overflows_to_inf():
    # a term past the float range, and finite terms whose sum is past it
    assert WeightSequence.explicit([0.0, 1e300, 1e300]).weighted_moment(1e10, 0) == math.inf
    assert WeightSequence.explicit([1e308, 1e308]).series_value(1.0) == math.inf
    assert WeightSequence.explicit([0.0, 1e308, 1e308]).weighted_moment(1.0, 1) == math.inf


@pytest.mark.parametrize("name", ["dense-stable", "bell"])  # a closed form, an explicit sequence
def test_nan_evaluation_point_is_refused_at_once(name):
    # NaN passed "x < 0": a sum spun for about 10 s, then raised RuntimeError
    w = bundled_scheme(name).w
    for call in (lambda: w.series_value(math.nan), lambda: w.weighted_moment(math.nan, 1),
                 lambda: w.weighted_terms(math.nan, 10)):
        with pytest.raises(ValueError, match="evaluation point must be nonnegative"):
            call()


def test_weighted_moment_k0_is_series_value():
    seq = WeightSequence.closed_form(c=1.3, e=2.5, rho=1.0, log_exp=-1.0, term0=0.1)
    assert seq.weighted_moment(0.7, 0) == pytest.approx(seq.series_value(0.7), rel=1e-14)


def test_tilt_identity():
    seq = WeightSequence.closed_form(c=1.0, e=2.5, rho=1.0, overrides={3: 0.7})
    tilted = seq.tilt(1.0)
    for n in range(10):
        assert tilted.term(n) == pytest.approx(seq.term(n), rel=1e-15)


def test_tilt_explicit():
    seq = WeightSequence.explicit([0.0, 1.0, 1.0]).tilt(2.0)
    assert list(seq.coeffs) == [0.0, 2.0, 4.0]


def test_tilt_closed_form_radius():
    seq = WeightSequence.closed_form(c=1.0, e=2.0, rho=1.0).tilt(0.5)
    assert seq.rho == 2.0


@settings(max_examples=40, deadline=None)
@given(
    e=st.floats(min_value=-1.0, max_value=4.0),
    log_exp=st.floats(min_value=-1.5, max_value=1.5),
    t=st.floats(min_value=0.05, max_value=2.0),
    n=st.integers(min_value=0, max_value=1000),
)
def test_tilt_term_identity_property(e, log_exp, t, n):
    seq = WeightSequence.closed_form(c=0.8, e=e, rho=1.3, log_exp=log_exp, term0=0.2)
    got = seq.tilt(t).term(n)
    want = seq.term(n) * t**n
    assert got == pytest.approx(want, rel=1e-11, abs=1e-300)


@settings(max_examples=25, deadline=None)
@given(
    t=st.floats(min_value=0.1, max_value=1.8),
    x=st.floats(min_value=0.05, max_value=0.5),
)
def test_tilt_series_identity_property(t, x):
    seq = WeightSequence.closed_form(c=1.0, e=1.2, rho=1.0, log_exp=0.5)
    lhs = seq.tilt(t).series_value(x)
    rhs = seq.series_value(t * x)
    if math.isinf(lhs) or math.isinf(rhs):
        assert lhs == rhs
    else:
        assert lhs == pytest.approx(rhs, abs=2e-12, rel=1e-9)


def test_series_monotone_in_t():
    seq = WeightSequence.closed_form(c=1.0, e=2.2, rho=1.0, log_exp=0.3)
    vals = [seq.series_value(t) for t in np.linspace(0.0, 1.0, 21)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_weighted_terms_matches_term_products():
    seq = WeightSequence.closed_form(c=1.1, e=2.0, rho=1.25, log_exp=0.5,
                                     term0=0.3, overrides={2: 0.0, 5: 1.0})
    x = 0.9
    arr = seq.weighted_terms(x, 30)
    for n in range(31):
        assert arr[n] == pytest.approx(seq.term(n) * x**n, rel=1e-12, abs=1e-300)


def _scalar_terms(seq, x, n_max):
    """term(n) x^n, n = 0..n_max, one Python float at a time through libm
    in the order of the closed form's exponent: the oracle of
    ``weighted_terms``."""
    out = [seq.term0]
    if x == 0.0 or n_max == 0:
        return np.array(out + [0.0] * n_max)
    logc, lam, e = math.log(seq.L.c), seq.L.log_exp, seq.e
    logx = math.log(x)
    step = logx - math.log(seq.rho)
    overrides = dict(seq.overrides)
    for k in range(1, n_max + 1):
        if k in overrides:
            val = overrides[k]
            out.append(math.exp(math.log(val) + k * logx) if val > 0 else 0.0)
        elif k < seq.start_index:
            out.append(0.0)
        else:
            log_l = logc + lam * math.log(math.log(2.0 + k)) if lam else logc
            out.append(math.exp(log_l - e * math.log(k) + k * step))
    return np.array(out)


def _weighted_term_mismatches():
    """Every (sequence, x, n_max) of the grid whose ``weighted_terms``
    bytes differ from ``_scalar_terms``: log_exp 0, positive and negative;
    start_index 1 and 3; with and without overrides (0.0 among them);
    x on the radius and below it; n_max 0, 1, 2 and 4000."""
    bad = []
    for lam, e in ((0.0, 1.5), (0.7, 2.5), (-1.3, -0.5)):
        for start in (1, 3):
            for ov in ({}, {2: 0.0, 5: 1.5, 40: 0.0}):
                seq = WeightSequence.closed_form(c=1.7, e=e, rho=0.8, log_exp=lam,
                                                 start_index=start, term0=0.25, overrides=ov)
                for x in (0.8, 0.8 * 0.83):
                    for n_max in (0, 1, 2, 4000):
                        got = seq.weighted_terms(x, n_max)
                        if got.tobytes() != _scalar_terms(seq, x, n_max).tobytes():
                            bad.append((lam, e, start, ov, x, n_max))
    return bad


def test_weighted_terms_match_the_scalar_formula_bit_for_bit():
    assert _weighted_term_mismatches() == []


_TERMS_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
from test_weights import _weighted_term_mismatches
print(_weighted_term_mismatches())
"""


def test_weighted_terms_match_the_scalar_formula_on_baseline_cpu(baseline_cpu_env):
    """With numpy's SIMD dispatch and glibc's FMA variants off, the array
    arithmetic still gives the scalar formula's bits, term for term."""
    child = subprocess.run(
        [sys.executable, "-c", _TERMS_CHECK, str(pathlib.Path(__file__).parent)],
        env=baseline_cpu_env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert child.stdout.strip() == "[]"


def test_scheme_requires_v0_zero():
    w = WeightSequence.closed_form(c=1.0, e=2.0, rho=1.0)
    with pytest.raises(ValueError):
        SchemeSpec(v=WeightSequence.explicit([1.0, 1.0]), w=w)


def test_config_round_trip():
    base = SchemeSpec(
        v=WeightSequence.closed_form(c=1.0, e=3.0, rho=1.2, overrides={2: 0.5}),
        w=WeightSequence.explicit([0.0, 1.0, 0.25]),
    )
    scheme = ExtendedSpec(base, WeightSequence.closed_form(c=2.0, e=1.5, rho=1.0, term0=1.0))
    again = SchemeSpec.from_config(scheme.to_config())
    assert again == scheme
    assert again.fingerprint() == scheme.fingerprint()
    # an empty h is no prefactor: the plain scheme
    assert SchemeSpec.from_config({**base.to_config(), "h": {}}) == base
    # the bundled extended schemes keep the fingerprints of the golden verdicts
    fingerprints = {"extended-light": "daf97236bb23", "extended-heavy": "a7f74f28f7a2",
                    "extended-matched": "154f6fb6e64f"}
    for name, fingerprint in fingerprints.items():
        again = SchemeSpec.from_config(bundled_scheme(name).to_config())
        assert isinstance(again, ExtendedSpec) and again.fingerprint() == fingerprint


@pytest.mark.parametrize("name", bundled_names())
def test_bundled_config_round_trip(name):
    # the one config reader gives back each bundled spec, of its own type
    scheme = bundled_scheme(name)
    again = SchemeSpec.from_config(scheme.to_config())
    assert type(again) is type(scheme) and again == scheme
    assert again.fingerprint() == scheme.fingerprint()
    assert isinstance(again, ProductSpec) == (name == "product-symmetric")
    assert isinstance(again, ExtendedSpec) == name.startswith("extended-")


_ZETA3 = {"kind": "closed_form", "c": 1.0, "e": 3.0, "rho": 1.0}


@pytest.mark.parametrize(
    "cfg, key",
    [
        # a typo of product_factors once gave the plain scheme of v and w
        ({"v": {"kind": "explicit", "coeffs": [0.0, 1.0]}, "w": _ZETA3, "product_factor": [_ZETA3, _ZETA3]},
         "product_factor"),
        ({"product_factors": [_ZETA3, _ZETA3], "w": _ZETA3}, "w"),
        ({"product_factors": [_ZETA3, _ZETA3], "h": _ZETA3}, "h"),
        # a closed form once dropped a key it does not read
        ({"v": _ZETA3 | {"rho": 1.2}, "w": _ZETA3 | {"exponent": 2.0}}, "exponent"),
        ({"v": {"kind": "explicit", "coeffs": [0.0, 1.0], "e": 2.0}, "w": _ZETA3}, "e"),
    ],
    ids=["product_factor-typo", "product-with-w", "product-with-h", "closed-form-exponent", "explicit-e"],
)
def test_scheme_configs_refuse_keys_they_do_not_read(cfg, key):
    with pytest.raises(ValueError, match=f"does not take the key '{key}'"):
        SchemeSpec.from_config(cfg)


@pytest.mark.parametrize("factors", [[], [_ZETA3]], ids=["none", "one"])
def test_product_spec_needs_two_factors(factors):
    with pytest.raises(ValueError, match=f"at least two factors, got {len(factors)}"):
        SchemeSpec.from_config({"product_factors": factors})


def test_near_radius_band_is_within_the_certified_error():
    """Below the radius one band, rho - t <= max(_RADIUS_RTOL rho, tol), is
    summed on the radius, whatever the tail: a point 682 ulps below it,
    past _RADIUS_RTOL but within tol, reads the on-radius value, and a
    point 2 tol below it is summed there, within tol of mpmath's polylog
    (the on-radius value is 2.2e-12 higher)."""
    from gibbs_partitions import weights

    t = WeightSequence.closed_form(c=1.0, e=4.0, rho=1.0).series_value(1.0)
    rho = t + 682 * math.ulp(t)
    assert rho / t - 1.0 > weights._RADIUS_RTOL and rho - t <= weights._SERIES_TOL
    v = WeightSequence.closed_form(c=1.0, e=4.0, rho=rho)
    assert v.series_value(t) == v.series_value(rho)
    outside = rho - 2.0 * weights._SERIES_TOL
    with mpmath.workdps(40):
        want = float(mpmath.polylog(4, mpmath.mpf(outside) / mpmath.mpf(rho)))
    assert v.series_value(outside) == pytest.approx(want, abs=1e-12)
    assert v.series_value(rho) - want > 2e-12


@pytest.mark.parametrize("a", [1.6, 1.8])
def test_sum_just_below_the_radius_is_summed_on_it(a):
    """W(1) of w_n = n^-a sums 546 (a = 1.6) and 1081 (a = 1.8) ulps below
    zeta(a), farther than _RADIUS_RTOL: within the certified error of W(1),
    V(z) = sum n^-1.5 (z/zeta(a))^n is summed on its radius, where its
    first moment diverges."""
    from gibbs_partitions import weights

    t = WeightSequence.closed_form(c=1.0, e=a, rho=1.0).series_value(1.0)
    rho = float(zeta(a))
    assert 1.0 - t / rho > weights._RADIUS_RTOL and rho - t <= 1e-12
    v = WeightSequence.closed_form(c=1.0, e=1.5, rho=rho)
    assert v.series_value(t) == v.series_value(rho)
    assert v.weighted_moment(t, 1) == math.inf  # tail exponent 1/2 on the radius


@pytest.mark.parametrize(
    "s, gap", [(1.0, 5e-10), (1.5, 1e-8), (3.0, 1.05e-13), (1.5, 1e-6), (1.2, 1e-3), (40.0, 2e-12)]
)
def test_sum_near_the_radius_is_the_polylog(s, gap):
    """sum n^-s q^n at 1 - q = gap, within tol of mpmath's polylog in
    milliseconds.  Between 1e-12 and 1e-7 below the radius such sums once
    ran to the 10^9-term cap (8 to 11 s) and raised; 1e-6 and 1e-3 are
    controls.  At s = 40, Gamma(1 - s, N lambda) is past the float range
    and the tail integral is the radius's."""
    import time

    w, q = WeightSequence.closed_form(c=1.0, e=s, rho=1.0), 1.0 - gap
    start = time.perf_counter()
    got = w.series_value(q)
    assert time.perf_counter() - start < 0.1
    with mpmath.workdps(40):
        want = float(mpmath.polylog(s, mpmath.mpf(q)))
    assert got == pytest.approx(want, abs=1e-12)


def test_slow_tail_near_the_radius_is_summed():
    """s = 1/2 at 1 - q = 1e-8: about 4e7 terms before the tail certifies,
    under 2 s, within 1e-15 relative of the polylog (1.8e4)."""
    import time

    w, q = WeightSequence.closed_form(c=1.0, e=0.5, rho=1.0), 1.0 - 1e-8
    start = time.perf_counter()
    got = w.series_value(q)
    assert time.perf_counter() - start < 2.0
    with mpmath.workdps(40):
        want = float(mpmath.polylog(0.5, mpmath.mpf(q)))
    assert got == pytest.approx(want, rel=1e-15)


def test_tail_past_the_index_cap_raises_at_once():
    """sum n^2 n^-1.5 q^n at 1 - q = 1e-10 peaks near n = 5e9, past the
    10^9-term cap: it raises before summing a term, where it once ran to
    the cap for 8.6 s."""
    import time

    from gibbs_partitions import exact, weights

    assert exact.TailCertificationError is weights.TailCertificationError
    w = WeightSequence.closed_form(c=1.0, e=1.5, rho=1.0)
    start = time.perf_counter()
    with pytest.raises(weights.TailCertificationError, match="cannot be certified"):
        w.weighted_moment(1.0 - 1e-10, 2)
    assert time.perf_counter() - start < 0.1


def _item30_schemes():
    """The two log-factor schemes that once spun: w_n = n^-1.399
    log(2+n)^0.5 against v_n = n^-1.066 log(2+n)^0.5 W(1)^-n, and w_n =
    n^-3.051 log(2+n) (n >= 2) against v_n = n^-1.5 W(1)^-n."""
    w1 = WeightSequence.closed_form(c=1.0, e=1.399, rho=1.0, log_exp=0.5)
    v1 = WeightSequence.closed_form(c=1.0, e=1.066, rho=w1.series_value(1.0), log_exp=0.5)
    w2 = WeightSequence.closed_form(c=1.0, e=3.051, rho=1.0, log_exp=1.0, start_index=2)
    v2 = WeightSequence.closed_form(c=1.0, e=1.5, rho=w2.series_value(1.0))
    return SchemeSpec(v=v1, w=w1), SchemeSpec(v=v2, w=w2)


def test_log_factor_schemes_end_within_a_second_without_warnings():
    """``law_Nn(., 300)`` of the first scheme ran 55 s into a
    TailCertificationError, and ``classify`` of the second took 15 s, each
    with thousands of scipy IntegrationWarnings: adaptive quadrature was
    called again for every block whose error estimate missed the budget.
    The tail integral is now taken once on a fixed rule."""
    import time
    import warnings

    from gibbs_partitions import Phase, classify, exact

    budget = 1.0
    first, second = _item30_schemes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = time.perf_counter()
        law = exact.law_Nn(first, 300)
        assert time.perf_counter() - start < budget
        assert abs(float(np.sum(law.pmf)) - 1.0) < 1e-12
        start = time.perf_counter()
        report = classify(second)
        assert time.perf_counter() - start < budget
    assert report.phase == Phase.dense_critical


def _tail_oracle(log_exp, s, lam, n):
    """int_n^inf log(2+x)^log_exp x^-s e^(-lam x) dx by 30-digit mpmath, in
    x = n e^y on panels scaled to the decay (not the substitutions of the
    rule under test).  The integrand is divided by its value at x = n:
    mpmath's rule stops on an absolute error, and a tail of e^-459 would
    stop it before it resolves anything."""
    with mpmath.workdps(30):
        n, lam = mpmath.mpf(n), mpmath.mpf(lam)

        def log_f(y):
            x = n * mpmath.exp(y)
            return log_exp * mpmath.log(mpmath.log(2 + x)) + (1 - s) * mpmath.log(x) - lam * x

        head = log_f(0)
        if lam == 0:
            cuts = [mpmath.mpf(0)] + [k / (s - 1) for k in (0.5, 2, 8, 32, 128)] + [mpmath.inf]
        else:
            big = max(n, 1 / lam)
            ys = [mpmath.log(x / n) for x in (big, big + 2 / lam, big + 8 / lam, big + 32 / lam, big + 128 / lam)]
            cuts = sorted({mpmath.mpf(0), ys[0] / 4, ys[0] / 2, *ys})
        ratio = mpmath.fsum(mpmath.quad(lambda y: mpmath.exp(log_f(y) - head), [a, b]) for a, b in zip(cuts, cuts[1:]))
        return mpmath.exp(head) * ratio


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    lam=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.3]),
    s_below=st.floats(min_value=-1.0, max_value=4.0),
    s_on=st.floats(min_value=1.001, max_value=4.0),
    log_exp=st.floats(min_value=-2.0, max_value=2.0).filter(lambda v: v != 0.0),
    n=st.integers(min_value=16, max_value=10**6),
)
def test_log_factor_tail_states_a_bound_on_its_error(lam, s_below, s_on, log_exp, n):
    """The tail integral of a log-factor sum, on the radius for s in (1, 4]
    and below it for s in [-1, 4], is within its stated error of 30-digit
    mpmath.  The float rounding of the integrand values is no part of the
    rule's error and rides on top: each is an exp of a sum of terms up to
    ``size``, each term rounded to an ulp or so (lam n alone is 459 at
    e^-459)."""
    from gibbs_partitions.weights import SlowVarying, _log_factor_tail

    s = s_on if lam == 0.0 else s_below
    got, err = _log_factor_tail(SlowVarying(1.0, log_exp), s, lam, n)
    want = float(_tail_oracle(log_exp, s, lam, n))
    big = max(n, 1.0 / lam) if lam > 0.0 else n
    size = 1.0 + lam * big + (abs(math.log(lam)) if lam > 0.0 else 0.0) + (abs(s) + abs(log_exp)) * math.log(big)
    # below the smallest normal float (lam n past 708) a value has fewer bits
    assert abs(got - want) <= err + 4.0 * size * np.finfo(float).eps * abs(want) + np.finfo(float).tiny


@pytest.mark.parametrize("e", [0.5, 1.05, 1.3, 2.0, 3.5])
def test_every_log_factor_sum_certifies_or_raises_within_its_budget(e):
    """sum n^k L(n) n^-e q^n with L(n) = log(2+n)^log_exp, at k <= 2, on
    the radius and below it, each in under 2 s: a certified value (+inf
    where it diverges), or TailCertificationError.  Points within 1e-7 of
    the radius with s = e - k < 0.8 are left out: there the sum itself
    needs 10^7 to 6 10^8 terms, log factor or not."""
    import time

    from gibbs_partitions import weights

    for log_exp in (-1.5, 0.5, 2.0):
        w = WeightSequence.closed_form(c=1.0, e=e, rho=1.0, log_exp=log_exp)
        for gap in (0.0, 1e-12, 1e-6, 1e-3, 0.3):
            for k in (0, 1, 2):
                start = time.perf_counter()
                try:
                    value = w.weighted_moment(1.0 - gap, k)
                except weights.TailCertificationError:
                    value = None
                assert time.perf_counter() - start < 2.0, (log_exp, gap, k)
                assert value is None or value > 0.0
                assert (value == math.inf) == (gap <= 1e-12 and e - k <= 1.0)


@pytest.mark.parametrize(
    "start_index, term0, log_exp",
    [(1, 0.0, 0.0), (3, 0.0, 0.0), (4, 0.5, -1.0)],
)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_weighted_moment_override_adjustment(start_index, term0, log_exp, k):
    """Below the radius the certified moment with overrides (one below
    ``start_index``, one zeroing a term, one raising a term) is the direct
    sum of its terms: at t = 0.6 rho the terms past 400 are below 1e-88."""
    seq = WeightSequence.closed_form(
        c=1.3, e=2.5, rho=2.0, log_exp=log_exp, start_index=start_index, term0=term0,
        overrides={2: 0.7, 5: 0.0, 6: 0.25},
    )
    t = 1.2
    n = np.arange(401, dtype=float)
    direct = math.fsum((seq.weighted_terms(t, 400) * n**k).tolist())
    assert seq.weighted_moment(t, k) == pytest.approx(direct, rel=1e-12)


def _zeta_v_with_override(val):
    """zeta_scheme(1.5, 1.5) with v's index-1200 term set to val."""
    base = zeta_scheme(1.5, 1.5)
    v = base.v
    return base, SchemeSpec(WeightSequence.closed_form(c=v.L.c, e=v.e, rho=v.rho, overrides={1200: val}), base.w)


def test_override_where_t_to_the_j_passes_the_float_range():
    """At t = W(1) = zeta(1.5) = rho_v, t^1200 is past the float range but
    1e-300 t^1200 is not: the term, and the closed-form term it replaces,
    come from logs.  Both sums raised OverflowError from t**j and
    exp(k log t).  A term past the float range reads +inf, which
    ``_outer_value`` refuses."""
    base, scheme = _zeta_v_with_override(1e-300)
    t = base.w.series_value(1.0)
    assert 1200 * math.log(t) > 709.8
    want = math.exp(math.log(1e-300) + 1200 * math.log(t))  # 2.77e200
    assert scheme.v.weighted_terms(t, 1300)[1200] == pytest.approx(want, rel=1e-15)
    assert scheme.v.series_value(t) == pytest.approx(want, rel=1e-15)
    # below the radius, where the moments converge, each order alike
    s = 0.999 * t
    want = math.exp(math.log(1e-300) + 1200 * math.log(s))
    assert 1200 * math.log(s) > 709.8
    for k in (0, 1, 2):
        assert scheme.v.weighted_moment(s, k) == pytest.approx(want * 1200**k, rel=1e-12)
    _, past = _zeta_v_with_override(1e-100)
    assert past.v.weighted_terms(t, 1300)[1200] == math.inf and past.v.series_value(t) == math.inf
    with pytest.raises(ValueError, match="V\\(W\\(rho\\)\\) must be positive and finite"):
        law_Nn(past, 300)


def test_override_past_the_float_range_leaves_the_count_law_as_it_was():
    """The override at index 1200 classifies as dilute, and at n = 300 the
    count law reads no term past 300: it is the law without the override."""
    base, scheme = _zeta_v_with_override(1e-300)
    assert classify(scheme).phase is Phase.dilute
    got, want = law_Nn(scheme, 300), law_Nn(base, 300)
    assert 0.5 * np.abs(got.pmf - want.pmf).sum() < 1e-15
