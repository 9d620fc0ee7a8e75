"""Exact engine: component laws, stopped sums, conditioned counts, the
brute-force enumeration oracle, prefix laws, deficits, product structures."""

import importlib.util
import json
import math
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve
from scipy.special import zeta

from gibbs_partitions import (
    DiscreteLaw,
    ExtendedSpec,
    ProductSpec,
    SchemeSpec,
    WeightSequence,
    bundled_scheme,
    classify,
    extended_law_Nn,
    giant_deficit_law,
    law_N,
    law_Nhat,
    law_Nn,
    law_X,
    prefix_law,
    product_law,
    stopped_sum_law,
    tv_distance,
)
from gibbs_partitions import exact
from gibbs_partitions.exact import (
    _DIRECT_CONV_LIMIT,
    _calibrate,
    _harvest,
    _next_fast_len,
    _row_step,
    _unit,
    default_rho,
)
from gibbs_partitions.sampling import ExactSampler
from gibbs_partitions.schemes import bundled_names
from gibbs_partitions.series import compose, convolve, dot, fsum

from oracle import (
    LONGDOUBLE_OK,
    brute_force_partition_law,
    calibration_at,
    convolution_table,
    prefix_oracle,
)
from test_series import bell_u_n, enumerate_set_partitions


W0_SCHEMES = ["bell", "dense-gauss", "dense-stable", "dense-b3", "convergent",
              "mixture", "dilute", "single-component"]


def test_law_x_two_point():
    scheme = SchemeSpec(
        v=WeightSequence.explicit([0.0, 1.0]), w=WeightSequence.explicit([0.0, 1.0, 1.0])
    )
    law = law_X(scheme, 1.0, 5)
    assert law.pmf[1] == pytest.approx(0.5)
    assert law.pmf[2] == pytest.approx(0.5)
    assert law.mass_accounted == pytest.approx(1.0)


def test_law_x_zeta_tail(dense_gauss):
    law = law_X(dense_gauss, 1.0, 2000)
    z4 = float(zeta(4))
    for k in (1, 2, 7):
        assert law.pmf[k] == pytest.approx(k**-4.0 / z4, rel=1e-12)


def test_law_x_tilt_invariance(dense_gauss):
    base = law_X(dense_gauss, 1.0, 500)
    tilted = law_X(
        SchemeSpec(v=dense_gauss.v, w=dense_gauss.w.tilt(2.0)), 0.5, 500
    )
    assert np.allclose(base.pmf, tilted.pmf, rtol=1e-13)


def test_law_n_point_mass(single_component):
    law = law_N(single_component, 1.0, 6)
    assert law.pmf[1] == pytest.approx(1.0)
    assert law.pmf[2:].sum() == 0.0


def test_law_n_bell_direct_summation(bell):
    # P(N = l) proportional to (e-1)^l / l!, normalized by exp(e-1) - 1
    law = law_N(bell, 1.0, 60)
    w1 = math.e - 1.0
    norm = math.exp(w1) - 1.0
    for ell in (1, 2, 5):
        assert law.pmf[ell] == pytest.approx(w1**ell / math.factorial(ell) / norm, rel=1e-12)


def test_law_n_zeta_normalization(convergent):
    # v_l W(rho_w)^l = l^-3, so P(N = l) = l^-3 / zeta(3)
    law = law_N(convergent, 1.0, 3000)
    z3 = float(zeta(3))
    for ell in (1, 3, 10):
        assert law.pmf[ell] == pytest.approx(ell**-3.0 / z3, rel=1e-10)


def test_law_nhat_constructions(bell, single_component):
    # N = 1 surely: Nhat = 1
    nh = law_Nhat(single_component, 4)
    assert nh.pmf[1] == pytest.approx(1.0)
    # N uniform on {1, 2}: size-biasing gives {1: 1/3, 2: 2/3}
    scheme = SchemeSpec(
        v=WeightSequence.explicit([0.0, 1.0, 0.5]),  # v_l W^l equal for W = 2
        w=WeightSequence.explicit([0.0, 2.0]),
    )
    nh = law_Nhat(scheme, 4, rho=1.0)
    assert nh.pmf[1] == pytest.approx(1.0 / 3.0)
    assert nh.pmf[2] == pytest.approx(2.0 / 3.0)
    # moment identity E[Nhat] = E[N^2] / E[N] on a scheme with all moments
    ln = law_N(bell, 1.0, 80)
    nh = law_Nhat(bell, 80, rho=1.0)
    ells = np.arange(81.0)
    assert np.dot(ells, nh.pmf) == pytest.approx(
        np.dot(ells**2, ln.pmf) / np.dot(ells, ln.pmf), rel=1e-11
    )


def test_convolution_table_basics():
    delta1 = DiscreteLaw.from_pmf(np.array([0.0, 1.0]))
    table = convolution_table(delta1, 5, 5)
    for ell in range(6):
        assert table[ell, ell] == pytest.approx(1.0)
    uni = DiscreteLaw.from_pmf(np.array([0.0, 0.5, 0.5]))
    table = convolution_table(uni, 3, 4)
    assert table[2, 3] == pytest.approx(0.5)
    # probability conservation per row
    assert np.allclose(table.sum(axis=1)[:3], 1.0, atol=1e-12)


def _decaying(rng, size, lead=0):
    """Positive entries decaying over many orders of magnitude, so FFT
    round-off turns some tail entries negative and the clip matters."""
    out = rng.random(size) * np.exp(-np.arange(size) / 8.0)
    out[:lead] = 0.0
    return out / out.sum()


@pytest.mark.parametrize(
    "n, k_len, lead",
    [
        (300, 50, 0),  # kernel shorter than the row
        (300, 301, 0),  # kernel as long as the row
        (300, 1, 0),  # kernel of length 1
        (300, 50, 17),  # row with leading zeros
        (0, 5, 0),  # row of length 1
        # full-length kernels at the package's transform sizes 4050, 6075, 8100
        (2000, 2001, 0),
        (3000, 3001, 0),
        (4000, 4001, 0),
    ],
)
def test_row_step_fft_matches_fftconvolve(n, k_len, lead):
    rng = np.random.default_rng(n + k_len + lead)
    row = _decaying(rng, n + 1, lead)
    kernel = _decaying(rng, k_len)
    got = _row_step(kernel, n, "fft")(row)
    want = np.clip(fftconvolve(row, kernel)[: n + 1], 0.0, None)
    assert got.shape == (n + 1,)
    assert got.tobytes() == want.tobytes()


def test_next_fast_len_is_scipys_real_transform_size():
    from scipy.fft import next_fast_len

    targets = range(1, 200_001)
    assert [t for t in targets if _next_fast_len(t) != next_fast_len(t, True)] == []
    assert [_next_fast_len(2 * n + 1) for n in (2000, 3000, 4000)] == [4050, 6075, 8100]


@pytest.mark.parametrize("n, k_len", [(300, 50), (300, 301), (300, 1)])
def test_row_step_direct_matches_convolve(n, k_len):
    rng = np.random.default_rng(k_len)
    row = _decaying(rng, n + 1, 3)
    kernel = _decaying(rng, k_len)
    want = convolve(row, kernel, n + 1)
    for method in ("direct", "auto"):  # auto is direct at this size
        assert _row_step(kernel, n, method)(row).tobytes() == want.tobytes()


def _law_nn_fftconvolve_sweep(scheme, n):
    """law_Nn's sweep with one fftconvolve per row (w_0 = 0: l runs to n)."""
    rho = default_rho(scheme, n)
    lx = law_X(scheme, rho, n)
    ln = law_N(scheme, rho, n)
    kernel = lx.pmf[: np.flatnonzero(lx.pmf)[-1] + 1]
    assert lx.pmf[0] == 0.0 and (n + 1) * kernel.size > _DIRECT_CONV_LIMIT
    column = np.zeros(n + 1)
    row = np.zeros(n + 1)
    row[0] = 1.0
    for ell in range(n + 1):
        column[ell] = row[n]
        if ell < n:
            row = np.clip(fftconvolve(row, kernel)[: n + 1], 0.0, None)
    num = ln.pmf * column
    return num / fsum(num)


def test_law_nn_fft_sweep_matches_per_row_fftconvolve(convergent):
    # the baby-step giant-step harvest against the row-by-row sweep
    n = 2100
    got = law_Nn(convergent, n, method="auto").pmf
    assert np.max(np.abs(got - _law_nn_fftconvolve_sweep(convergent, n))) <= 1e-16


def _assert_close_normal(got, want, rel):
    """Entries in the normal range sit in the same places and agree to
    ``rel``; below it a zero may meet a subnormal."""
    tiny = np.finfo(float).tiny
    normal = np.abs(want) >= tiny
    assert np.array_equal(np.abs(got) >= tiny, normal)
    assert np.all(np.abs(got[normal] / want[normal] - 1.0) <= rel)


@pytest.mark.parametrize("name, n, fft", [("dense-gauss", 300, False), ("convergent", 2100, True)])
def test_table_sampler_and_law_nn_share_rows(name, n, fft):
    """convolution_table and the sampler's lazy rows come from one row
    writer, so they agree byte for byte; law_Nn's harvested column agrees
    with the table's column (direct) or with the direct law (FFT)."""
    scheme = bundled_scheme(name)
    rho = default_rho(scheme, n)
    lx = law_X(scheme, rho, n)
    kernel_size = np.flatnonzero(lx.pmf)[-1] + 1
    assert lx.pmf[0] == 0.0  # w_0 = 0: the rows l = 0..n are all there are
    assert ((n + 1) * kernel_size > _DIRECT_CONV_LIMIT) == fft
    table = convolution_table(lx, n, n)
    smp = ExactSampler(scheme, n)
    smp._ensure_rows(n)
    assert np.array(smp._rows).tobytes() == table.tobytes()
    got = law_Nn(scheme, n, rho=rho).pmf
    assert smp.count_law.pmf.tobytes() == got.tobytes()
    assert smp.pmf_x.tobytes() == lx.pmf.tobytes()
    if fft:
        assert np.max(np.abs(got - law_Nn(scheme, n, rho=rho, method="direct").pmf)) <= 1e-13
    else:
        cal = _calibrate(scheme, n)
        column, _ = _harvest(cal.law_x.pmf, n, cal.cap, "auto", start=_unit(n))
        _assert_close_normal(column, table[:, n], 1e-13)
        num = cal.pmf_n * table[:, n]
        _assert_close_normal(got, num / fsum(num), 1e-13)


@pytest.mark.parametrize("name, n, method", [("dense-gauss", 500, "direct"), ("dense-stable", 3000, "fft")])
def test_convolution_table_is_the_sampler_table(name, n, method):
    # rows 0..n (the count law's cap, w_0 = 0) have the same bytes built at
    # once or drawn lazily in calls that cut them anywhere
    smp = ExactSampler(bundled_scheme(name), n)
    assert smp.count_cdf.size == n + 1
    assert exact._conv_method(smp.pmf_x, n, "auto") == method
    table = convolution_table(DiscreteLaw(smp.pmf_x, 1.0), n, n)
    for top in (n // 3, n // 3 + 1, n):
        smp._ensure_rows(top)
    assert np.array(smp._rows).tobytes() == table.tobytes()


@pytest.mark.parametrize("name, n, ell", [("convergent", 2100, 300), ("dense-stable", 3000, 1850)])
def test_sampler_fft_rows_match_the_direct_table(name, n, ell):
    # products of two rows stay as close to the direct sweep as rows
    # stepped one by one: 1.11e-16 and 1.48e-16 here (stepped: 1.11e-16
    # and 1.61e-16)
    smp = ExactSampler(bundled_scheme(name), n)
    assert exact._conv_method(smp.pmf_x, n, "auto") == "fft"
    smp._ensure_rows(ell)
    direct = convolution_table(DiscreteLaw(smp.pmf_x, 1.0), ell, n, method="direct")
    assert np.max(np.abs(np.array(smp._rows) - direct)) <= 2e-16


def _sequential_harvest(kernel, n, cap, weights=(), start=None):
    """_harvest's quantities from the row-by-row direct table."""
    rows = convolution_table(DiscreteLaw(kernel, 1.0), cap, n, method="direct")
    column = None if start is None else np.array([dot(row, start[::-1]) for row in rows])
    sums = []
    for w in weights:
        acc = np.zeros(n + 1)
        for ell in range(min(w.size, cap + 1)):
            acc += w[ell] * rows[ell]
        sums.append(acc)
    return column, sums


def _check_harvest(kernel, n, cap, weights, start, method):
    """Direct: within 1e-12 relative on normal-range entries.  FFT: within
    1e-14 of each output's largest entry (round-off scales with it)."""
    got_column, got_sums = _harvest(kernel, n, cap, method, weights, start)
    want_column, want_sums = _sequential_harvest(kernel, n, cap, weights, start)
    pairs = list(zip(got_sums, want_sums))
    if start is None:
        assert got_column is None
    else:
        assert got_column.shape == (cap + 1,)
        pairs.append((got_column, want_column))
    assert len(got_sums) == len(weights)
    for got, want in pairs:
        assert got.shape == want.shape
        if method == "direct":
            _assert_close_normal(got, want, 1e-12)
        else:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 15, 16, 24, 25, 80])
@pytest.mark.parametrize("method", ["direct", "fft"])
def test_harvest_matches_sequential_table(cap, method):
    # B = isqrt(cap) + 1: caps 15 and 24 are B^2 - 1, 16 and 25 are B^2
    n = 40
    rng = np.random.default_rng(cap)
    kernel = _decaying(rng, n + 1, 1)
    weights = [rng.random(cap + 1), rng.random(cap + 5)]
    weights[0][::3] = 0.0  # skipped terms
    _check_harvest(kernel, n, cap, weights, _unit(n), method)


@pytest.mark.parametrize("method", ["direct", "fft"])
def test_harvest_edge_inputs(method):
    rng = np.random.default_rng(5)
    # w_0 > 0: the cap runs past n
    n, cap = 30, 130
    kernel = _decaying(rng, 12)
    kernel[0] = 0.3
    kernel /= kernel.sum()
    _check_harvest(kernel, n, cap, [rng.random(cap + 1)], _unit(n), method)
    # a weight vector shorter than cap, and one that is all zeros
    n, cap = 50, 50
    kernel = _decaying(rng, n + 1, 1)
    _check_harvest(kernel, n, cap, [rng.random(9), np.zeros(cap + 1)], None, method)
    # a start row: (start * S_l)[n]
    start = _decaying(rng, n + 1)
    _check_harvest(kernel, n, cap, [], start, method)
    # a kernel of length 1 (all mass at 0) and one of a single size
    _check_harvest(np.array([0.5]), n, 20, [rng.random(21)], _unit(n), method)
    one = np.zeros(n + 1)
    one[3] = 1.0
    _check_harvest(one, n, cap, [rng.random(cap + 1)], start, method)


def test_short_kernel_law_stays_direct():
    # sizes 1..60 only: (n + 1) * K is far below the limit, while the giant
    # step's kernel S_B fills the row; the giant step must not switch to FFT
    n = 2100
    scheme = SchemeSpec(v=bundled_scheme("convergent").v,
                        w=WeightSequence.explicit([0.0] + [1.0] * 60))
    lx = law_X(scheme, default_rho(scheme, n), n)
    assert np.flatnonzero(lx.pmf)[-1] == 60
    assert (n + 1) * 61 <= _DIRECT_CONV_LIMIT < (n + 1) ** 2
    got = law_Nn(scheme, n)
    assert got.pmf.tobytes() == law_Nn(scheme, n, method="direct").pmf.tobytes()
    # a direct column, down to its smallest entries: the row-by-row table's
    cal = _calibrate(scheme, n)
    column, _ = _harvest(cal.law_x.pmf, n, cal.cap, "auto", start=_unit(n))
    _assert_close_normal(column, convolution_table(lx, n, n, method="direct")[:, n], 1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 60), cap=st.integers(0, 150), seed=st.integers(0, 2**32 - 1),
       with_start=st.booleans())
def test_harvest_property(n, cap, seed, with_start):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, n + 2))
    kernel = _decaying(rng, size, int(rng.integers(0, 2)) if size > 1 else 0)
    weights = [rng.random(int(rng.integers(0, cap + 3)))]
    start = _decaying(rng, n + 1) if with_start else None
    _check_harvest(kernel, n, cap, weights, start, "direct")


def _stepwise_horner(kernel, n, cap, weights):
    """``_harvest``'s weighted sums by Horner one baby row at a time,
    acc += w[aB + b] S_b with zero weights skipped, on the same baby rows
    and giant step."""
    method = exact._conv_method(kernel, n, "auto")
    B = exact._giant_stride(cap)
    babies = np.empty((B + 1, n + 1))
    exact._write_rows(babies, 0, B, kernel, cap, method)
    giant = _row_step(babies[B], n, method)
    sums = []
    for w in weights:
        w = w[: cap + 1]
        nz = np.flatnonzero(w)
        top = nz[-1] // B if nz.size else -1
        acc = np.zeros(n + 1)
        for a in range(top, -1, -1):
            if a < top:
                acc = giant(acc)
            for b, wl in enumerate(w[a * B : a * B + B]):
                if wl != 0.0:
                    acc += wl * babies[b]
        sums.append(acc)
    return sums


def _horner_mismatches(name, n):
    """Weighted sums of ``_harvest`` whose bytes differ from the stepwise
    Horner's, for two vectors at once: P(N = l) itself, and a copy with
    zeros inside blocks that stops in a partial last block."""
    cal = _calibrate(bundled_scheme(name), n)
    B = exact._giant_stride(cal.cap)
    holes = cal.pmf_n[: 5 * B + 17].copy()
    holes[B + 3 : B + 9] = 0.0
    holes[::7] = 0.0
    weights = [cal.pmf_n, holes]
    _, got = _harvest(cal.law_x.pmf, n, cal.cap, "auto", weights)
    want = _stepwise_horner(cal.law_x.pmf, n, cal.cap, weights)
    return [i for i, (g, w) in enumerate(zip(got, want)) if g.tobytes() != w.tobytes()]


@pytest.mark.parametrize("name, n, method", [("dense-gauss", 1600, "direct"), ("dilute", 3000, "fft")])
def test_harvest_horner_matches_stepwise_bytes(name, n, method):
    """One einsum a giant step adds acc and the weighted baby rows in the
    stepwise order: the bytes of adding them one at a time."""
    cal = _calibrate(bundled_scheme(name), n)
    assert exact._conv_method(cal.law_x.pmf, n, "auto") == method
    assert (cal.cap + 1) % exact._giant_stride(cal.cap)  # a partial last block
    assert _horner_mismatches(name, n) == []


_HORNER_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
from test_exact import _horner_mismatches
print(_horner_mismatches("dense-gauss", 1600))
"""


def test_harvest_horner_bytes_do_not_follow_simd_level(baseline_cpu_env):
    child = subprocess.run(
        [sys.executable, "-c", _HORNER_CHECK, str(pathlib.Path(__file__).parent)],
        env=baseline_cpu_env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert child.stdout.strip() == "[]"


def test_stopped_sum_identity_outer(dense_gauss):
    scheme = SchemeSpec(v=WeightSequence.explicit([0.0, 1.0]), w=dense_gauss.w)
    ssl = stopped_sum_law(scheme, 1.0, 50)
    lx = law_X(scheme, 1.0, 50)
    assert np.allclose(ssl.s_n[1:], lx.pmf[1:], rtol=1e-12)


def test_dual_path_partition_function_bell(bell):
    ssl = stopped_sum_law(bell, 1.0, 60)
    direct = compose(bell.v, bell.w, 60)
    assert ssl.u[3] == pytest.approx(5.0 / 6.0, rel=1e-12)
    assert ssl.u[4] == pytest.approx(15.0 / 24.0, rel=1e-12)
    assert np.allclose(ssl.u, direct, rtol=1e-10)
    assert ssl.u[5] == pytest.approx(bell_u_n(5), rel=1e-10)


@pytest.mark.parametrize(
    "name", ["dense-gauss", "dense-stable", "convergent", "mixture", "dilute", "dense-super"]
)
def test_dual_path_partition_function_zeta(name):
    scheme = bundled_scheme(name)
    n = 120
    ssl = stopped_sum_law(scheme, default_rho(scheme), n)
    direct = compose(scheme.v, scheme.w, n)
    mask = direct > 0
    assert np.max(np.abs(ssl.u[mask] / direct[mask] - 1.0)) < 1e-10


@pytest.mark.parametrize("name, n", [("dilute", 3000), ("dense-gauss", 3000), ("dense-stable", 2500)])
def test_stopped_sum_at_a_callers_rho_in_the_fft_regime(name, n):
    # the FFT rows are harvested at the default rho and re-tilted exactly;
    # harvested at 0.9 x default they were wrong by up to 1e126 relative
    scheme = bundled_scheme(name)
    rho0 = default_rho(scheme, n)
    base = stopped_sum_law(scheme, n=n)
    assert base.rho == rho0
    same = stopped_sum_law(scheme, rho0, n)
    assert same.s_n.tobytes() == base.s_n.tobytes() and same.u.tobytes() == base.u.tobytes()
    for f in (0.99, 0.9):
        rho = f * rho0
        got = stopped_sum_law(scheme, rho, n)
        # the oracle: the direct sweep harvested at rho itself
        cal = calibration_at(scheme, n, rho)
        _, (want,) = _harvest(cal.law_x.pmf, n, cal.cap, "direct", [cal.pmf_n])
        assert got.rho == rho and got.vw == cal.VW
        assert got.u.tobytes() == base.u.tobytes()
        keep = want > 1e-250
        assert np.max(np.abs(got.s_n[keep] / want[keep] - 1.0)) <= 1e-9, f
        assert np.max(np.abs(got.s_n - want)) <= 1e-15  # FFT round-off where want is 0


@pytest.mark.parametrize("name", ["dense-stable", "convergent", "dilute"])
def test_law_nn_at_a_callers_rho_is_the_default_rho_law(name):
    # tilt invariance: the law is computed at the default rho whatever rho
    # is passed.  Harvested at 0.99 x default, the FFT law_Nn was 0.398,
    # 0.615 and 0.250 off
    scheme = bundled_scheme(name)
    n = 4000
    assert exact._conv_method(_calibrate(scheme, n).law_x.pmf, n, "auto") == "fft"
    direct = law_Nn(scheme, n, method="direct").pmf
    rho0 = default_rho(scheme, n)
    for f in (0.99, 0.9):
        assert np.max(np.abs(law_Nn(scheme, n, rho=f * rho0).pmf - direct)) <= 1e-12, f


@pytest.mark.parametrize("name, factor, match", [
    ("dense-stable", 1.01, r"W\(rho\) diverges"),
    ("convergent", 1.01, r"W\(rho\) diverges"),
    ("dense-super", 1.0, r"V\(W\(rho\)\) must be positive and finite"),
    ("dense-stable", 0.0, r"V\(W\(rho\)\) must be positive and finite"),
])
def test_law_nn_refuses_a_rho_outside_the_model(name, factor, match):
    # a caller's rho changes no bit of the law, but one where W(rho) or
    # V(W(rho)) diverges (or W(rho) = 0) is still refused
    scheme = bundled_scheme(name)
    with pytest.raises(ValueError, match=match):
        law_Nn(scheme, 50, rho=factor * scheme.w.radius())


def test_nan_rho_is_refused_at_once(convergent):
    # NaN passed the "x < 0" checks: each call spun for about 10 s in the
    # series truncation and raised RuntimeError
    for call in (lambda: law_X(convergent, math.nan, 10), lambda: law_Nhat(convergent, 10, rho=math.nan),
                 lambda: law_Nn(convergent, 10, rho=math.nan), lambda: law_N(convergent, math.nan, 10)):
        with pytest.raises(ValueError, match="evaluation point must be nonnegative"):
            call()


def test_benchmark_fft_tilt_dev_is_zero():
    """The benchmark's ``fft_tilt_dev`` still runs against ``law_Nn``'s
    ``rho=``, and tilt invariance makes it 0."""
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.fft_tilt_dev() == 0.0


def test_law_nn_stirling(bell):
    law = law_Nn(bell, 3, rho=1.0)
    assert np.allclose(law.pmf, [0.0, 0.2, 0.6, 0.2], atol=1e-14)


def test_law_nn_point_mass(single_component):
    law = law_Nn(single_component, 37)
    assert law.pmf[1] == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["dense-gauss", "dilute", "mixture", "dense-super"])
def test_law_nn_tilt_invariance(name):
    scheme = bundled_scheme(name)
    base = law_Nn(scheme, 500)
    for t in (0.5, 2.0):
        tilted = law_Nn(SchemeSpec(v=scheme.v, w=scheme.w.tilt(t)), 500)
        assert tv_distance(base, tilted) < 1e-12


def test_brute_force_bell_n4(bell):
    lawn, multiset, u4 = brute_force_partition_law(bell, 4)
    assert np.allclose(lawn.pmf * 15.0, [0, 1, 7, 6, 1], atol=1e-10)
    assert u4 == pytest.approx(15.0 / 24.0, rel=1e-12)
    assert multiset[(1, 1, 1, 1)] == pytest.approx(1.0 / 15.0, rel=1e-12)
    assert sum(multiset.values()) == pytest.approx(1.0, rel=1e-12)


def test_brute_force_n1(dense_gauss):
    lawn, multiset, u1 = brute_force_partition_law(dense_gauss, 1)
    assert lawn.pmf[1] == pytest.approx(1.0)
    assert list(multiset) == [(1,)]


def test_brute_force_against_independent_enumerator(dense_stable):
    # recompute the n = 5 law with the testfile's own enumerator
    n = 5
    lawn, _, u_n = brute_force_partition_law(dense_stable, n)
    weights = np.zeros(n + 1)
    total = 0.0
    for part in enumerate_set_partitions(n):
        k = len(part)
        w = math.factorial(k) * dense_stable.v.term(k)
        for block in part:
            w *= math.factorial(len(block)) * dense_stable.w.term(len(block))
        total += w
        weights[k] += w
    assert np.allclose(lawn.pmf, weights / total, atol=1e-14)
    assert u_n == pytest.approx(total / math.factorial(n), rel=1e-12)


def test_brute_force_refusals(bell):
    with pytest.raises(Exception):
        brute_force_partition_law(bell, 10)
    w0 = SchemeSpec(
        v=WeightSequence.explicit([0.0, 1.0]),
        w=WeightSequence.closed_form(c=1.0, e=2.0, rho=1.0, term0=0.5),
    )
    with pytest.raises(ValueError):
        brute_force_partition_law(w0, 3)


@pytest.mark.parametrize("name", W0_SCHEMES)
def test_kolchin_master_consistency(name):
    """law_Nn equals the brute-force law for every w_0 = 0 bundled scheme."""
    scheme = bundled_scheme(name)
    for n in range(1, 7):
        lawn_bf, _, _ = brute_force_partition_law(scheme, n)
        lawn = law_Nn(scheme, n)
        assert tv_distance(lawn, lawn_bf) < 1e-12, (name, n)


def test_prefix_point_mass(single_component):
    pl = prefix_law(single_component, 50, 1)
    assert pl.joint[50] == pytest.approx(1.0)
    assert pl.tv_to_iid > 0.9


def test_prefix_exchangeability(dense_gauss):
    pl2 = prefix_law(dense_gauss, 60, 2)
    marg1 = pl2.joint.sum(axis=1)
    marg2 = pl2.joint.sum(axis=0)
    assert np.allclose(marg1, marg2, atol=1e-13)
    # the m = 2 marginal is the m = 1 law restricted to two-plus components
    pl1 = prefix_law(dense_gauss, 60, 1)
    assert np.all(marg1 <= pl1.joint + 1e-13)
    assert pl1.mass_accounted >= pl2.mass_accounted


def test_prefix_tv_decreasing_and_marginalization(dense_gauss):
    tvs1, tvs2 = [], []
    for n in (100, 400):
        tvs1.append(prefix_law(dense_gauss, n, 1).tv_to_iid)
        tvs2.append(prefix_law(dense_gauss, n, 2).tv_to_iid)
    assert tvs1[1] < tvs1[0]
    # data processing: the two-coordinate TV dominates the marginal TV
    assert tvs2[0] >= tvs1[0]
    assert tvs2[1] >= tvs1[1]


def _prefix_m2_oracle(scheme, n, harvest=_harvest):
    """The m = 2 prefix law by the row-by-row formula, with the product law
    as a full (n+1)^2 array and Python-float sums; P(S_N = n) is read off
    G_2 as P(N = 0) [n = 0] + P(N = 1) P(X = n) + sum_k P(S_2 = k) G_2[n - k]."""
    cal = _calibrate(scheme, n)
    _, (green,) = harvest(cal.law_x.pmf, n, cal.cap, "auto", [cal.pmf_n[2:]])
    px2 = convolve(cal.law_x.pmf, cal.law_x.pmf, n + 1)
    head = [cal.pmf_n[0] * (n == 0), cal.pmf_n[1] * cal.law_x.pmf[n]]
    denom = math.fsum(head + (px2 * green[::-1]).tolist())
    px, d = cal.law_x.pmf, cal.law_x.deficit
    joint = np.zeros((n + 1, n + 1))
    for k1 in range(n + 1):
        if px[k1] == 0.0:
            continue
        lim = n - k1
        joint[k1, : lim + 1] = px[k1] * px[: lim + 1] * green[lim::-1] / denom
    mass = math.fsum(joint.ravel().tolist())
    tv = 0.5 * (math.fsum(np.abs(joint - np.outer(px, px)).ravel().tolist()) + d * (2.0 - d))
    return joint, mass, tv


@pytest.mark.parametrize("n", [1, 60, 61, 400, 401, 1599, 1600])
def test_prefix_m2_matches_row_formula(dense_gauss, n):
    joint, mass, tv = _prefix_m2_oracle(dense_gauss, n)
    pl = prefix_law(dense_gauss, n, 2)
    assert pl.joint.tobytes() == joint.tobytes()
    # symmetric by value, which the half sums of mass and TV rely on
    assert np.array_equal(pl.joint, pl.joint.T)
    assert pl.mass_accounted.hex() == mass.hex()
    assert pl.tv_to_iid.hex() == tv.hex()


def test_prefix_m2_rows_without_mass_stay_zero(dense_gauss, monkeypatch):
    """Rows with P(X = k1) = 0 are +0.0, as in the row formula, even where
    G has round-off below zero (0 * negative would be -0.0)."""
    def harvest(*args, **kwargs):
        column, (green,) = _harvest(*args, **kwargs)
        green = green.copy()
        green[::3] *= -1.0
        return column, (green,)

    monkeypatch.setattr(exact, "_harvest", harvest)
    joint, mass, tv = _prefix_m2_oracle(dense_gauss, 60, harvest)
    pl = prefix_law(dense_gauss, 60, 2)
    assert np.signbit(joint[0]).sum() == 0 and np.signbit(joint).any()
    assert pl.joint.tobytes() == joint.tobytes()
    assert (pl.mass_accounted.hex(), pl.tv_to_iid.hex()) == (mass.hex(), tv.hex())


def test_prefix_m2_memory_is_the_joint(dense_gauss):
    """Beside the joint itself, only blocks of rows: about 4 joints before."""
    n = 1600
    prefix_law(dense_gauss, n, 2)  # calibration cached, as in any repeat call
    tracemalloc.start()
    try:
        pl = prefix_law(dense_gauss, n, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pl.joint.nbytes + 8 * 2**20


def test_tv_distance_of_unequal_lengths():
    rng = np.random.default_rng(3)
    for size_a, size_b in ((5, 9), (9, 5), (7, 7), (20000, 40000), (1, 30000)):
        pa, pb = rng.random(size_a), rng.random(size_b)
        a = DiscreteLaw(pa / (2.0 * pa.sum()), 0.5)
        b = DiscreteLaw(pb / (4.0 * pb.sum()), 0.25)
        m = max(size_a, size_b)
        gaps = np.abs(np.pad(a.pmf, (0, m - size_a)) - np.pad(b.pmf, (0, m - size_b)))
        want = 0.5 * (math.fsum(gaps.tolist()) + a.deficit + b.deficit)
        assert tv_distance(a, b).hex() == want.hex()


def test_prefix_tilt_invariance(dense_gauss):
    base = prefix_law(dense_gauss, 300, 1)
    tilted = prefix_law(SchemeSpec(v=dense_gauss.v, w=dense_gauss.w.tilt(0.5)), 300, 1)
    assert np.max(np.abs(base.joint - tilted.joint)) < 1e-12


def test_prefix_laws_run_one_chain(dense_gauss, monkeypatch):
    """A prefix harvest runs the Horner chain alone: no start row, so no
    column chain; P(S_N = n) is read off each law's own G_m."""
    starts = []

    def spy(kernel, n, cap, method, weights=(), start=None, rows=None):
        starts.append(start)
        return _harvest(kernel, n, cap, method, weights, start, rows)

    monkeypatch.setattr(exact, "_harvest", spy)
    prefix_law(dense_gauss, 60, 1)
    exact._prefix_laws(dense_gauss, 60, (1, 2))
    assert starts == [None, None]


def _plain_schemes():
    names = [name for name in bundled_names() if isinstance(bundled_scheme(name), SchemeSpec)]
    return [(name, bundled_scheme(name)) for name in names] + [("w0-positive", _w0_positive())]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 60, 300])
def test_prefix_denominator_is_the_column_sum(n):
    """In the direct regime P(S_N = n) from G_1 and from G_2 (with the
    l < m terms) equals the column chain's dot(P(N = .), P(S_. = n))
    within 1e-13 relative; where the column sum vanishes, as at n = 0
    without zero-size components, the prefix law is refused."""
    for name, scheme in _plain_schemes():
        cal = _calibrate(scheme, n)
        assert exact._conv_method(cal.law_x.pmf, n, "auto") == "direct"
        column, greens = _harvest(cal.law_x.pmf, n, cal.cap, "auto", [cal.pmf_n[1:], cal.pmf_n[2:]], _unit(n))
        want = dot(cal.pmf_n, column)
        for m, green in zip((1, 2), greens):
            if want == 0.0:
                with pytest.raises(ValueError, match="partition function vanishes"):
                    exact._stopped_at_n(cal, green, n, m)
            else:
                got = exact._stopped_at_n(cal, green, n, m)
                assert abs(got - want) <= 1e-13 * want, (name, n, m)


@pytest.mark.parametrize("name", ["dense-gauss", "dense-stable", "convergent", "dilute"])
def test_prefix_m1_fft_matches_the_direct_sweep(name):
    # 1.6e-13 on dense-gauss (2.6e-12 with the column chain's denominator)
    scheme = bundled_scheme(name)
    n = 2500
    assert exact._conv_method(_calibrate(scheme, n).law_x.pmf, n, "auto") == "fft"
    fft = prefix_law(scheme, n, 1)
    assert np.max(np.abs(fft.joint - prefix_law(scheme, n, 1, method="direct").joint)) <= 1e-12
    assert abs(fft.mass_accounted - 1.0) <= 1.2e-16


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: at the default rho and n = 2500 the FFT "
                   "law_Nn is 7.1e-9 (dense-b3) and 2.9e-9 (mixture) off the direct sweep, "
                   "prefix_law m = 1 9.2e-11 and 5.8e-10")
@pytest.mark.parametrize("name", ["dense-b3", "mixture"])
def test_fft_laws_match_the_direct_sweep_on_steep_kernels(name):
    scheme = bundled_scheme(name)
    n = 2500
    assert exact._conv_method(_calibrate(scheme, n).law_x.pmf, n, "auto") == "fft"
    gaps = [np.max(np.abs(law_Nn(scheme, n).pmf - law_Nn(scheme, n, method="direct").pmf)),
            np.max(np.abs(prefix_law(scheme, n, 1).joint - prefix_law(scheme, n, 1, method="direct").joint))]
    assert max(gaps) <= 1e-12, gaps


@pytest.mark.skipif(not LONGDOUBLE_OK, reason="np.longdouble is no wider than a double here")
def test_golden_prefix_tvs_match_the_longdouble_oracle(dense_gauss):
    """The committed prefix-gauss TVs are within 1e-13 relative of the
    longdouble oracle (at most 3.0e-14; the column chain's floats read up
    to 2.2e-13), and so are G_1, G_2 and P(S_N = n) at their scale."""
    golden = json.loads((pathlib.Path(__file__).parent / "data" / "golden_verdicts.json").read_text())
    tvs = {v["experiment"]: v["observed"] for v in golden["verdicts"]
           if v["experiment"].startswith("prefix-gauss.")}
    for i, n in enumerate((100, 400)):
        ref = prefix_oracle(dense_gauss, n)
        assert abs(tvs["prefix-gauss.prefix_independence_m1"][i] - ref.tv1) <= 1e-13 * ref.tv1
        assert abs(tvs["prefix-gauss.prefix_independence_m2"][i] - ref.tv2) <= 1e-13 * ref.tv2
        cal = _calibrate(dense_gauss, n)
        _, greens = _harvest(cal.law_x.pmf, n, cal.cap, "auto", [cal.pmf_n[1:], cal.pmf_n[2:]])
        for m, green, want in zip((1, 2), greens, (ref.g1, ref.g2)):
            assert np.max(np.abs(green - want)) <= 1e-14 * np.max(want)
            got = exact._stopped_at_n(cal, green, n, m)
            assert abs(got - ref.stopped_at_n) <= 1e-14 * ref.stopped_at_n


def test_deficit_degenerate_cases(single_component):
    exact_d, limit_d = giant_deficit_law(single_component, 123)
    assert exact_d.pmf[0] == pytest.approx(1.0)
    assert limit_d.pmf[0] == pytest.approx(1.0)
    # N = 2 fixed, X uniform {1, 2}: at n = 3 the only split is 1 + 2
    scheme = SchemeSpec(
        v=WeightSequence.explicit([0.0, 0.0, 1.0]),
        w=WeightSequence.explicit([0.0, 1.0, 1.0]),
    )
    exact_d, _ = giant_deficit_law(scheme, 3)
    assert exact_d.pmf[1] == pytest.approx(1.0)


def test_deficit_against_brute_force(convergent):
    # P(n - M_n = d) from the enumeration oracle at n = 7
    n = 7
    _, multiset, _ = brute_force_partition_law(convergent, n)
    want = np.zeros(n + 1)
    for sizes, prob in multiset.items():
        want[n - max(sizes)] += prob
    exact_d, _ = giant_deficit_law(convergent, n)
    d_max = exact_d.pmf.size - 1
    assert np.allclose(exact_d.pmf, want[: d_max + 1], atol=1e-13)
    assert exact_d.deficit == pytest.approx(want[d_max + 1 :].sum(), abs=1e-13)


def test_deficit_tilt_invariance(convergent):
    base, _ = giant_deficit_law(convergent, 500)
    tilted, _ = giant_deficit_law(
        SchemeSpec(v=convergent.v, w=convergent.w.tilt(2.0)), 500
    )
    # identical truncation, identical values: compare the accounted parts
    assert np.max(np.abs(base.pmf - tilted.pmf)) < 1e-12
    assert abs(base.mass_accounted - tilted.mass_accounted) < 1e-12


def test_deficit_limit_law_convergence(convergent):
    exact_d, limit_d = giant_deficit_law(convergent, 2000)
    assert tv_distance(exact_d, limit_d) < 0.1


@pytest.mark.parametrize("name, n", [("convergent", 400), ("mixture", 300), ("dense-b3", 250)])
def test_deficit_limit_is_the_size_biased_stopped_sum(name, n):
    # the limit sum_l nhat_l P(S_(l-1) = d), from law_Nhat and the
    # convolution table of law_X instead of the exact law's weights
    scheme = bundled_scheme(name)
    _, limit_d = giant_deficit_law(scheme, n)
    d_max = limit_d.pmf.size - 1
    rho = default_rho(scheme, n)
    nhat = law_Nhat(scheme, d_max + 1, rho).pmf
    table = convolution_table(law_X(scheme, rho, d_max), d_max, d_max, method="direct")
    want = nhat[1:] @ table
    assert np.all(want > 0)
    assert np.max(np.abs(limit_d.pmf - want) / want) < 1e-12


@pytest.mark.parametrize("name", ["convergent", "dilute"])
@pytest.mark.parametrize("n", [2000, 3000, 4000, 5000])
def test_deficit_law_matches_the_direct_sweep(name, n):
    # the law runs FFT at these n; up to n = 4000 its Green vector's rows, of
    # length d_max + 1, would run direct on their own and take the law's FFT
    # branch instead. No size guard: n = 5000 takes about 0.1 s (FFT) and
    # 0.7 s (direct)
    scheme = bundled_scheme(name)
    fft = giant_deficit_law(scheme, n)
    direct = giant_deficit_law(scheme, n, method="direct")
    for a, b in zip(fft, direct):
        if b is None:  # no limit law where E[N] diverges
            assert a is None
            continue
        assert a.pmf.size == b.pmf.size == (n - 1) // 2 + 1
        assert np.max(np.abs(a.pmf - b.pmf)) <= 1e-12


@pytest.mark.parametrize("n, branch", [(800, "direct"), (4000, "fft")])
def test_deficit_sweeps_take_the_branch_of_the_law(convergent, monkeypatch, n, branch):
    # the count sweep and the Green vector's sweep take one branch, the
    # law's: at n = 4000 the Green rows alone would be exactly at
    # _DIRECT_CONV_LIMIT, (d_max + 1) K = 2000 * 2000, and run direct
    harvest, branches = exact._harvest, []

    def spy(kernel, top, cap, method, *args, **kwargs):
        branches.append(exact._conv_method(kernel, top, method))
        return harvest(kernel, top, cap, method, *args, **kwargs)

    monkeypatch.setattr(exact, "_harvest", spy)
    giant_deficit_law(convergent, n)
    assert branches == [branch, branch]
    px = law_X(convergent, default_rho(convergent, n), n).pmf
    d_max = (n - 1) // 2
    assert exact._conv_method(px[: d_max + 1], d_max, "auto") == "direct"


@pytest.mark.parametrize("n", [800, 2000, 3000])
def test_deficit_from_the_sampler_is_the_deficit_law(convergent, n):
    # the convergent verifier takes the deficit law from its sampler's
    # calibration and P(S_N = n): the bytes of giant_deficit_law's own
    smp = ExactSampler(convergent, n)
    got = exact._giant_deficit(convergent, n, smp._cal, smp._z)
    want = giant_deficit_law(convergent, n)
    for a, b in zip(got, want):
        assert a.pmf.tobytes() == b.pmf.tobytes()
        assert a.mass_accounted == b.mass_accounted


@pytest.mark.parametrize("n", [800, 2000])
def test_deficit_divides_by_the_count_laws_normalizer(convergent, n):
    """``giant_deficit_law`` and the sampler (whose route the test above
    checks) divide by the count law's P(S_N = n), the fsum of P(N = l)
    P(S_l = n) that normalizes law_Nn, bit for bit (a dot product of the
    same vectors is 1 to 5 ulps off)."""
    cal = _calibrate(convergent, n)
    column, _ = _harvest(cal.law_x.pmf, n, cal.cap, "auto", start=_unit(n))
    num = cal.pmf_n * column
    z = fsum(num)
    assert law_Nn(convergent, n).pmf.tobytes() == (num / z).tobytes()
    smp = ExactSampler(convergent, n)
    assert smp._z == z
    # the exact deficit pmf: the Green vector at d < n/2 times P(X = n - d), over z
    d_max = (n - 1) // 2
    weights = cal.pmf_n[1:] * np.arange(1, cal.pmf_n.size)
    method = exact._conv_method(cal.law_x.pmf, n, "auto")
    _, (green,) = _harvest(cal.law_x.pmf[: d_max + 1], d_max, min(weights.size - 1, d_max), method, [weights])
    want = green * cal.law_x.pmf[n - d_max : n + 1][::-1] / z
    assert giant_deficit_law(convergent, n)[0].pmf.tobytes() == want.tobytes()


def test_stopped_sum_asymptotic_ratio(dense_gauss):
    """P(S_N = n) ~ mu^-1 P(N = floor(n/mu)) in the dense phase."""
    rep = classify(dense_gauss)
    ratios = []
    for n in (500, 1000, 2000, 4000):
        ssl = stopped_sum_law(dense_gauss, 1.0, n)
        ln = law_N(dense_gauss, 1.0, n)
        ratios.append(ssl.s_n[n] / (ln.pmf[int(n / rep.mu)] / rep.mu))
    assert abs(ratios[-1] - 1.0) < 0.10
    deviations = [abs(r - 1.0) for r in ratios]
    assert deviations[-1] <= deviations[0]


def test_product_law_symmetry():
    scheme = bundled_scheme("product-symmetric")
    pl = product_law(scheme, 300)
    assert pl.p == pytest.approx((0.5, 0.5))
    assert np.allclose(pl.marginals[0].pmf, pl.marginals[1].pmf, atol=1e-12)


def test_product_law_lighter_tail_vanishes():
    heavy = WeightSequence.closed_form(c=1.0, e=2.0, rho=1.0)
    light = WeightSequence.closed_form(c=1.0, e=4.0, rho=1.0)
    pl = product_law(ProductSpec((heavy, light)), 100)
    assert pl.p[0] == pytest.approx(1.0)
    assert pl.p[1] == pytest.approx(0.0)


def _paper_product_p(factors):
    """The paper's macroscopic index of prod_k W_k(z), written out from
    (c, e, rho, log_exp, term0) factors: those with the smallest radius,
    among them the smallest exponent, among those the largest log power,
    share it in proportion to c_k / W_k(rho_k), with W_k(1) = term0 +
    c zeta(e) (every tied factor here has rho 1 and no log power)."""
    rho = min(f[2] for f in factors)
    e = min(f[1] for f in factors if f[2] == rho)
    log_exp = max(f[3] for f in factors if f[2] == rho and f[1] == e)
    share = [c / (t0 + c * float(zeta(fe))) if (fr, fe, fl) == (rho, e, log_exp) else 0.0
             for c, fe, fr, fl, t0 in factors]
    return tuple(x / sum(share) for x in share)


@pytest.mark.parametrize(
    "factors",
    [
        [(1.0, 3.0, 1.0, 0.0, 0.0), (2.0, 3.0, 1.0, 0.0, 1.0)],  # tied
        [(1.0, 4.0, 1.0, 0.0, 0.0), (1.0, 2.0, 2.0, 0.0, 0.0)],  # untied by radius
        [(1.0, 2.5, 1.0, 0.0, 0.0), (3.0, 3.0, 1.0, 0.0, 0.0)],  # untied by exponent
        [(1.0, 3.0, 1.0, 1.0, 0.0), (1.0, 3.0, 1.0, 0.0, 0.0)],  # untied by log power
        [(1.0, 3.0, 1.0, 0.0, 0.0), (3.0, 3.0, 1.0, 0.0, 0.0), (1.0, 2.5, 1.5, 0.0, 0.0)],
        [(1.0, 3.0, 1.0, 0.0, 0.0), (2.0, 3.0, 1.0, 0.0, 0.0), (1.0, 3.5, 1.0, 0.0, 0.0)],
    ],
)
def test_product_p_follows_the_tail_order(factors):
    spec = ProductSpec(tuple(
        WeightSequence.closed_form(c=c, e=e, rho=rho, log_exp=log_exp, term0=t0)
        for c, e, rho, log_exp, t0 in factors
    ))
    assert product_law(spec, 120).p == pytest.approx(_paper_product_p(factors), rel=1e-12, abs=0.0)


def test_product_factors_with_radii_inside_the_band_tie():
    """Radii 1 and 1 - 5e-10 lie inside the band ``phases`` ties radii in
    (1e-9 max(rho, 1), as for criticality and extended schemes), so equal
    factors share the macroscopic index."""
    f = WeightSequence.closed_form(c=1.0, e=3.0, rho=1.0)
    g = WeightSequence.closed_form(c=1.0, e=3.0, rho=1.0 - 5e-10)
    assert product_law(ProductSpec((f, g)), 200).p == pytest.approx((0.5, 0.5), abs=1e-6)


def test_product_law_small_coordinate_split():
    # identical cubic factors: P(P_2 = k) ~ (1/2) P(A_2 = k) for small k
    f = WeightSequence.closed_form(c=1.0, e=3.0, rho=1.0)
    pl = product_law(ProductSpec((f, f)), 500)
    norm = sum(f.term(k) for k in range(501))
    for k in (1, 2, 3, 5, 8):
        want = 0.5 * f.term(k) / norm
        assert pl.marginals[1].pmf[k] == pytest.approx(want, rel=0.05)


def test_product_law_refuses_pk_for_explicit():
    f = WeightSequence.closed_form(c=1.0, e=3.0, rho=1.0)
    g = WeightSequence.explicit([0.0, 1.0, 1.0])
    pl = product_law(ProductSpec((f, g)), 50)
    assert pl.p is None


def test_extended_trivial_prefactor(convergent):
    # H = 1 (only h_0 = 1): identical to the base scheme exactly
    ext = ExtendedSpec(convergent, WeightSequence.explicit([1.0]))
    base = law_Nn(convergent, 300)
    lifted = extended_law_Nn(ext, 300)
    assert tv_distance(base, lifted) < 1e-12


# ---------------------------------------------------------------------------
# each exact object of a (scheme, n) computed once


def _w0_positive():
    return SchemeSpec(v=bundled_scheme("dense-gauss").v,
                      w=WeightSequence.closed_form(e=2.5, term0=0.5))


@pytest.mark.parametrize(
    "name, n",
    [("dense-gauss", 300), ("dense-stable", 500), ("convergent", 400), ("dilute", 600),
     ("mixture", 300), ("dense-super", 200), ("bell", 8), ("single-component", 50),
     ("w0-positive", 200), ("extended-heavy", 200)],
)
def test_calibrate_matches_the_public_laws(name, n):
    """One calibration sums W(rho) once and V(W(rho)) once, and holds the
    bits of default_rho, law_X and law_N, at the default rho, and so does
    the tests' calibration at a caller's.  An extended scheme's laws are
    built on its base's calibration: its count law has the bits of the
    harvest from h_j rho^j."""
    scheme = _w0_positive() if name == "w0-positive" else bundled_scheme(name)
    if isinstance(scheme, ExtendedSpec):
        cal = _calibrate(scheme.base, n)
        column, _ = _harvest(cal.law_x.pmf, n, cal.cap, "auto", start=scheme.h.weighted_terms(cal.rho, n))
        num = cal.pmf_n * column
        assert extended_law_Nn(scheme, n).pmf.tobytes() == (num / fsum(num)).tobytes()
        scheme = scheme.base
    for rho in (None, 0.9 * default_rho(scheme, n)):
        cal = _calibrate(scheme, n) if rho is None else calibration_at(scheme, n, rho)
        assert cal.rho == (default_rho(scheme, n) if rho is None else rho)
        assert cal.W == scheme.w.series_value(cal.rho)
        assert cal.VW == scheme.v.series_value(cal.W)
        lx = law_X(scheme, cal.rho, n)
        assert cal.law_x.pmf.tobytes() == lx.pmf.tobytes()
        assert cal.law_x.mass_accounted == lx.mass_accounted
        assert cal.pmf_n.tobytes() == law_N(scheme, cal.rho, cal.cap).pmf.tobytes()


def test_default_rho_takes_the_saddle_when_w_diverges_at_its_radius_and_v_is_entire():
    # V = z + z^2 is entire and W(1) = sum 1/n diverges: criticality is
    # undefined, rho_w = 1 is no legal radius, and the saddle is
    scheme = SchemeSpec(v=WeightSequence.explicit([0, 1, 1]), w=WeightSequence.closed_form(c=1, e=1, rho=1))
    rho = default_rho(scheme, 100)
    assert rho == exact._saddle_rho(scheme, 100)
    assert 0.99 < rho < 1.0
    # P(N_100 = 1) = w_100 / (w_100 + sum_k w_k w_(100-k)) = 1 / (1 + 2 H_99)
    law = law_Nn(scheme, 100)
    h99 = math.fsum(1.0 / k for k in range(1, 100))
    assert law.pmf[1] == pytest.approx(1.0 / (1.0 + 2.0 * h99), rel=1e-12)
    assert law.pmf[2] == pytest.approx(2.0 * h99 / (1.0 + 2.0 * h99), rel=1e-12)


@pytest.mark.parametrize("name", ["convergent", "mixture", "bell"])
def test_law_nhat_is_the_size_biased_law_n(name):
    scheme = bundled_scheme(name)
    rho = default_rho(scheme)
    pmf = law_N(scheme, rho, 60).pmf
    W = scheme.w.series_value(rho)
    mean = scheme.v.weighted_moment(W, 1) / scheme.v.series_value(W)
    want = np.arange(61) * pmf / mean
    assert law_Nhat(scheme, 60).pmf.tobytes() == want.tobytes()
    assert law_Nhat(scheme, 60, 0.5 * rho).pmf.tobytes() != want.tobytes()


@pytest.mark.parametrize("name, n", [("dense-gauss", 100), ("dense-gauss", 400),
                                     ("single-component", 100), ("convergent", 700)])
def test_shared_prefix_harvest_matches_separate_prefix_laws(name, n):
    scheme = bundled_scheme(name)
    both = exact._prefix_laws(scheme, n, (1, 2))
    for m, got in zip((1, 2), both):
        want = prefix_law(scheme, n, m)
        assert got.joint.tobytes() == want.joint.tobytes()
        assert got.iid.tobytes() == want.iid.tobytes()
        assert (got.mass_accounted, got.tv_to_iid) == (want.mass_accounted, want.tv_to_iid)


@pytest.mark.parametrize("name", ["extended-light", "extended-heavy", "extended-matched"])
@pytest.mark.parametrize("n", [200, 600, 2500])
def test_law_nn_of_an_extended_scheme_is_the_extended_law(name, n):
    """extended_law_Nn harvests from the row h_j rho^j on the base
    scheme's calibration: the bits of that harvest, at n on both sides of
    the direct/FFT switch."""
    scheme = bundled_scheme(name)
    cal = _calibrate(scheme.base, n)
    start = scheme.h.weighted_terms(cal.rho, n)
    column, _ = _harvest(cal.law_x.pmf, n, cal.cap, "auto", start=start)
    num = cal.pmf_n * column
    assert extended_law_Nn(scheme, n).pmf.tobytes() == (num / fsum(num)).tobytes()


def test_extended_heavy_count_law_is_not_the_plain_one():
    # the plain model V(W(z)) has P(N_200 = 1) = 0.6375; the prefactor's
    # heavier tail takes the extended law 0.125 away from it in TV
    scheme = bundled_scheme("extended-heavy")
    law = extended_law_Nn(scheme, 200)
    plain = law_Nn(scheme.base, 200)
    assert plain.pmf[1] == pytest.approx(0.6375, abs=1e-4)
    assert law.pmf[1] == pytest.approx(0.7625, abs=1e-4)
    assert tv_distance(law, plain) == pytest.approx(0.125, abs=1e-3)
    # a plain scheme has no prefactor to start the harvest from
    with pytest.raises(AttributeError, match="'SchemeSpec' object has no attribute 'base'"):
        extended_law_Nn(scheme.base, 200)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: prefix_law(s, 100, 1),
        lambda s: prefix_law(s, 100, 2),
        lambda s: giant_deficit_law(s, 100),
        lambda s: stopped_sum_law(s, n=100),
    ],
    ids=["prefix_law-m1", "prefix_law-m2", "giant_deficit_law", "stopped_sum_law"],
)
@pytest.mark.parametrize(
    "name", ["extended-light", "extended-heavy", "extended-matched", "product-symmetric"]
)
def test_laws_of_the_plain_model_refuse_extended_schemes(call, name, no_sums):
    # neither an ExtendedSpec nor a ProductSpec has a V or W to read
    kind = type(bundled_scheme(name)).__name__
    with pytest.raises(AttributeError, match=f"'{kind}' object has no attribute 'w'"):
        call(bundled_scheme(name))


@pytest.mark.parametrize("method", ["bogus", "FFT", "Direct", "", "AUTO"])
@pytest.mark.parametrize(
    "call",
    [
        lambda m: law_Nn(bundled_scheme("convergent"), 10, method=m),
        lambda m: extended_law_Nn(bundled_scheme("extended-heavy"), 10, method=m),
        lambda m: stopped_sum_law(bundled_scheme("dilute"), n=10, method=m),
        lambda m: prefix_law(bundled_scheme("dense-gauss"), 10, 1, method=m),
        lambda m: giant_deficit_law(bundled_scheme("convergent"), 10, method=m),
        lambda m: convolution_table(DiscreteLaw.from_pmf([0.0, 0.5, 0.5]), 4, 6, method=m),
    ],
    ids=["law_Nn", "extended_law_Nn", "stopped_sum_law", "prefix_law", "giant_deficit_law",
         "convolution_table"],
)
def test_an_unknown_method_is_refused(call, method):
    # a misspelt branch is an error, never the "auto" rule in its stead
    with pytest.raises(ValueError, match="'auto', 'direct' or 'fft', not"):
        call(method)


@pytest.mark.parametrize(
    "call",
    [classify, default_rho, lambda s: law_X(s, 0.5, 6), lambda s: law_N(s, 0.5, 6),
     lambda s: law_Nhat(s, 6), lambda s: law_Nn(s, 50), lambda s: law_Nn(s, 50, rho=0.5)],
    ids=["classify", "default_rho", "law_X", "law_N", "law_Nhat", "law_Nn", "law_Nn-rho"],
)
@pytest.mark.parametrize("name", ["extended-light", "extended-heavy", "extended-matched"])
def test_an_extended_spec_has_no_v_or_w_to_read(call, name, no_sums):
    # H(z) V(W(z)) is no V(W(z)): nothing reads a phase or a plain law of
    # its base in its stead
    with pytest.raises(AttributeError, match="'ExtendedSpec' object has no attribute '[vw]'"):
        call(bundled_scheme(name))


def test_law_nn_refuses_a_product_scheme(no_sums):
    # a product structure has no V(W(z)), so no count law, at any rho
    for rho in (None, 0.5):
        with pytest.raises(AttributeError, match="'ProductSpec' object has no attribute 'w'"):
            law_Nn(bundled_scheme("product-symmetric"), 50, rho=rho)


def test_count_laws_refuse_a_product_scheme(no_sums):
    # a product structure has no V(W(z)), so no count law
    scheme = bundled_scheme("product-symmetric")
    with pytest.raises(AttributeError, match="'ProductSpec' object has no attribute 'w'"):
        law_N(scheme, 0.5, 50)
    with pytest.raises(AttributeError, match="'ProductSpec' object has no attribute 'w'"):
        law_Nhat(scheme, 50)


@pytest.mark.parametrize(
    "call",
    [classify, default_rho, lambda s: law_X(s, 0.5, 6)],
    ids=["classify", "default_rho", "law_X"],
)
def test_a_product_spec_has_no_v_or_w_to_read(call, no_sums):
    # the placeholder V = z and W = the first factor are gone: nothing
    # reads a phase or a law of them
    with pytest.raises(AttributeError, match="'ProductSpec' object has no attribute '[vw]'"):
        call(bundled_scheme("product-symmetric"))


@pytest.mark.parametrize("a", [1.6, 1.8])
def test_dilute_law_nn_just_below_the_radius(a):
    # with rho_v = scipy's zeta(a), W(1) lands 546 and 1081 ulps below it,
    # farther than _RADIUS_RTOL but within W(1)'s certified error: V(W(1))
    # lies in the band below the radius that is summed on it
    w = WeightSequence.closed_form(c=1.0, e=a, rho=1.0)
    scheme = SchemeSpec(v=WeightSequence.closed_form(c=1.0, e=1.5, rho=float(zeta(a))), w=w)
    assert classify(scheme).phase.value == "dilute"
    law = law_Nn(scheme, 1000)
    assert abs(fsum(law.pmf) - 1.0) <= 1e-12


@pytest.mark.parametrize("a", [1.25, 1.5, 1.6, 1.8, 2.5, 4.0])
@pytest.mark.parametrize("b", [1.5, 2.5, 4.0])
def test_law_nn_on_a_zeta_grid(a, b):
    """Wherever classify names a phase of zeta_scheme(a, b), the count law
    is computed and normalized."""
    from gibbs_partitions.schemes import zeta_scheme

    scheme = zeta_scheme(a, b)
    if classify(scheme).phase.value == "unclassified":
        pytest.skip("no phase on this line of the diagram")
    law = law_Nn(scheme, 300)
    assert abs(fsum(law.pmf) - 1.0) <= 1e-12
