"""Truncated series algebra against hand convolutions and a standalone
set-partition enumerator (the Bell-number oracle)."""

import contextlib
import hashlib
import itertools
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gibbs_partitions import WeightSequence, bundled_scheme, series
from gibbs_partitions.series import _FSUM_BLOCK, compose, convolve, fsum, fsum_rows


def enumerate_set_partitions(n):
    """All set partitions of {0..n-1} as lists of blocks (independent of the
    package's enumerator)."""
    if n == 0:
        yield []
        return
    for smaller in enumerate_set_partitions(n - 1):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + [n - 1]] + smaller[i + 1 :]
        yield smaller + [[n - 1]]


def bell_u_n(n):
    """Partition function of the uniform-block-weight scheme via enumeration:
    u(P) = |P|! v_|P| prod |Q|! w_|Q| with v_i = w_i = 1/i!."""
    total = 0.0
    for part in enumerate_set_partitions(n):
        k = len(part)
        weight = math.factorial(k) / math.factorial(k)  # k! * (1/k!)
        for block in part:
            weight *= math.factorial(len(block)) / math.factorial(len(block))
        total += weight
    return total / math.factorial(n)


def test_mul_binomial():
    assert list(convolve([1.0, 1.0], [1.0, 1.0], 3)) == [1.0, 2.0, 1.0]


def test_mul_identity():
    a = np.array([0.5, 1.5, -2.0, 3.0])
    assert np.array_equal(convolve(a, [1.0], 4), a)


def test_mul_hand_convolution():
    a = np.array([0.0, 1.0, 1.0])
    assert convolve(a, a, 4)[3] == 2.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=8),
       st.lists(st.floats(-2, 2), min_size=1, max_size=8))
def test_mul_commutative(xs, ys):
    assert np.allclose(convolve(xs, ys, 11), convolve(ys, xs, 11), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=1, max_size=6),
       st.lists(st.floats(-1, 1), min_size=1, max_size=6),
       st.lists(st.floats(-1, 1), min_size=1, max_size=6))
def test_mul_associative(xs, ys, zs):
    left = convolve(convolve(xs, ys, 13), zs, 13)
    right = convolve(xs, convolve(ys, zs, 13), 13)
    assert np.allclose(left, right, atol=1e-12)


def test_compose_bell_numbers(bell):
    # B_3 = 5 partitions, and the scheme weights make u_n = B_n / n!
    u = compose(bell.v, bell.w, 4)
    assert u[3] == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert u[4] == pytest.approx(15.0 / 24.0, rel=1e-14)
    # independent enumeration oracle
    assert u[3] == pytest.approx(bell_u_n(3), rel=1e-12)
    assert u[4] == pytest.approx(bell_u_n(4), rel=1e-12)


def test_compose_identity_outer():
    v = WeightSequence.explicit([0.0, 1.0])
    w = WeightSequence.closed_form(c=1.0, e=2.5, rho=1.0)
    u = compose(v, w, 12)
    for n in range(1, 13):
        assert u[n] == pytest.approx(w.term(n), rel=1e-14)


def test_compose_rejects_nonzero_w0():
    v = WeightSequence.explicit([0.0, 1.0])
    w = WeightSequence.closed_form(c=1.0, e=2.0, rho=1.0, term0=0.5)
    with pytest.raises(ValueError):
        compose(v, w, 5)


def test_compose_tilt_covariance():
    # composing with a tilted inner sequence scales coefficient n by t^n
    scheme = bundled_scheme("dense-gauss")
    t = 0.7
    base = compose(scheme.v, scheme.w, 100)
    tilted = compose(scheme.v, scheme.w.tilt(t), 100)
    scale = t ** np.arange(101)
    assert np.allclose(tilted, base * scale, rtol=1e-12, atol=1e-300)


def test_compose_reads_term_overrides():
    # with V(z) = z the composition is w's truncation, overrides included
    w = WeightSequence.closed_form(c=1.0, e=3.0, rho=2.0, overrides={4: 9.0})
    u = compose(WeightSequence.explicit([0.0, 1.0]), w, 6)
    assert u[4] == 9.0
    assert u[3] == pytest.approx(w.term(3))


def _leading_zero_operands(seed):
    rng = np.random.default_rng(seed)
    a = rng.random(int(rng.integers(1, 80)))
    b = rng.random(int(rng.integers(1, 80)))
    a[: int(rng.integers(0, a.size))] = 0.0
    b[: int(rng.integers(0, b.size))] = 0.0
    return a, b


def test_convolve_matches_numpy():
    for seed in range(300):
        a, b = _leading_zero_operands(seed)
        full = np.convolve(a, b)
        for size in (None, 1, full.size // 2 + 1, full.size + 3):
            ref = full if size is None else np.pad(full, (0, max(size - full.size, 0)))[:size]
            for x, y in ((a, b), (b, a)):
                np.testing.assert_allclose(convolve(x, y, size), ref, rtol=1e-13, atol=0.0)
    assert not convolve(np.zeros(4), np.ones(3)).any()
    assert convolve([0.0, 0.0, 1.0], [0.0, 1.0], 2).tolist() == [0.0, 0.0]


def _einsum_convolve(a, b, size):
    """``convolve`` as one einsum call over every full window: the order of
    the dot products that the banded calls must keep bit for bit."""
    full = a.size + b.size - 1
    size = full if size is None else size
    out = np.zeros(size)
    nz_a, nz_b = np.flatnonzero(a), np.flatnonzero(b)
    if nz_a.size == 0 or nz_b.size == 0 or nz_a[0] + nz_b[0] >= size:
        return out
    lo = int(nz_a[0] + nz_b[0])
    a = a[nz_a[0] : min(nz_a[-1], size - 1 - nz_b[0]) + 1]
    b = b[nz_b[0] : min(nz_b[-1], size - 1 - nz_a[0]) + 1]
    if a.size < b.size:
        a, b = b, a
    m = min(a.size + b.size - 1, size - lo)
    padded = np.zeros(b.size - 1 + m)
    k = min(a.size, m)
    padded[b.size - 1 : b.size - 1 + k] = a[:k]
    windows = np.lib.stride_tricks.sliding_window_view(padded, b.size)
    out[lo : lo + m] = np.einsum("ij,j->i", windows, np.ascontiguousarray(b[::-1]))
    return out


# lengths on both sides of multiples of the 64-entry block, and any below 1400
_LENGTHS = st.one_of(
    st.integers(1, 21).flatmap(lambda q: st.integers(64 * q - 2, 64 * q + 2)),
    st.integers(1, 1400),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), _LENGTHS, _LENGTHS, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.sampled_from(["full", "shorter", "longer", "longest", "block"]), st.floats(0.0, 1.0))
def test_convolve_is_one_einsum_call_bit_for_bit(seed, la, lb, head_a, head_b, kind, pick):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(la) * 2.0 ** rng.integers(-30, 30, la)
    b = rng.random(lb)
    a[: int(head_a * head_a * la)] = 0.0  # squared: mostly short heads
    b[: int(head_b * head_b * lb)] = 0.0
    b[rng.random(lb) < 0.05] = 0.0
    full = la + lb - 1
    size = {
        "full": None,
        "shorter": 1 + int(pick * (full - 1)),
        "longer": full + 1 + int(pick * 100),
        "longest": max(la, lb),  # a product truncated at its operands' length
        "block": max(1, 64 * int(pick * full / 64) + int(pick * 5) - 2),
    }[kind]
    for x, y in ((a, b), (b, a)):
        assert convolve(x, y, size).tobytes() == _einsum_convolve(x, y, size).tobytes()


_CONVOLVE_DIGEST = """
import hashlib, numpy as np
from gibbs_partitions.series import convolve
rng = np.random.default_rng(11)
a, b = rng.random(1500), rng.random(900)
a[:40] = 0.0
c, d = rng.random(2000), rng.random(2000)
out = np.concatenate([convolve(a, b), convolve(b, a, 1700), convolve(c, d, 2000)])
print(hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_convolve_bytes_do_not_follow_blas_kernel(baseline_cpu_env):
    """Same bytes in a child interpreter on another OpenBLAS kernel and with
    numpy's SIMD dispatch off, where np.convolve's last bits would move.
    The last product is truncated at its operands' length, so most of its
    outputs come from the banded calls past the zero triangle."""
    rng = np.random.default_rng(11)
    a, b = rng.random(1500), rng.random(900)
    a[:40] = 0.0
    c, d = rng.random(2000), rng.random(2000)
    out = np.concatenate([convolve(a, b), convolve(b, a, 1700), convolve(c, d, 2000)])
    child = subprocess.run(
        [sys.executable, "-c", _CONVOLVE_DIGEST],
        env=baseline_cpu_env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert child.stdout.strip() == hashlib.sha256(out.tobytes()).hexdigest()


def _wide_floats(seed, size, lo, hi):
    """size doubles with exponents in [lo, hi], mixed signs, signed zeros,
    subnormals and exactly cancelling pairs."""
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.random(size) + 0.5, rng.integers(lo, hi + 1, size))
    picks = rng.integers(0, size, (4, size // 8)) if size else np.zeros((4, 0), dtype=int)
    x[picks[0]] = rng.integers(0, 1 << 52, picks[0].size).view(float)  # subnormal
    x[rng.random(size) < 0.5] *= -1.0
    x[picks[1]] = 0.0
    x[picks[2]] = -0.0
    x[picks[3]] = -x[(picks[3] + 1) % size]
    assert np.isfinite(x).all()
    return x


def _fsum_outcome(fn, x):
    try:
        return fn(x).hex()
    except (ValueError, OverflowError) as exc:
        return repr(exc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3 * _FSUM_BLOCK),
       st.integers(-1074, 1000), st.integers(0, 2074), st.none())
@example(0, 20_000, 0, 0, [0.0])
@example(0, 20_000, 0, 0, [-0.0])
@example(0, 20_000, 0, 0, [-0.0, -0.0, 0.0])
def test_fsum_is_math_fsum(seed, size, lo, span, zeros):
    """Bit for bit math.fsum's float on both sides of the switch to the
    lanes, over every exponent from 2**-1074 to 2**1000.  Inputs of
    ``zeros`` alone, repeated to ``size`` entries, take their signed zero
    from the lanes: no entry reaches math.fsum."""
    if zeros is None:
        x = _wide_floats(seed, size, lo, min(lo + span, 1000))
        spy = contextlib.nullcontext()
    else:
        x = np.resize(zeros, size)
        spy = mock.patch.object(series, "_floats", side_effect=AssertionError("entries reach math.fsum"))
    want = math.fsum(x.tolist()).hex()
    with spy:
        assert fsum(x).hex() == want
        assert fsum(np.split(x, [size // 3])).hex() == want
        assert fsum(lambda: [x]).hex() == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3 * _FSUM_BLOCK),
       st.lists(st.floats(0.0, 1.0), max_size=6))
def test_fsum_of_blocks_is_fsum_of_concatenation(seed, size, cuts):
    x = _wide_floats(seed, size, -1074, 1000)
    edges = sorted(int(c * size) for c in cuts)
    blocks = np.split(x, edges)
    want = fsum(x).hex()
    assert fsum(blocks).hex() == want
    assert fsum(iter(blocks)).hex() == want
    assert fsum(b.reshape(1, -1) for b in blocks).hex() == want
    assert fsum(lambda: (b.reshape(1, -1) for b in blocks)).hex() == want


@pytest.mark.parametrize("size", [5, _FSUM_BLOCK + 1, 3 * _FSUM_BLOCK])
def test_fsum_non_finite_and_overflow_as_math_fsum(size):
    rng = np.random.default_rng(size)
    base = rng.standard_normal(size)
    cases = []
    for specials in ([math.nan], [math.inf], [-math.inf], [math.inf, -math.inf],
                     [math.nan, math.inf, -math.inf], [1e308, 1e308], [1e308, -1e308, 1e308],
                     [-1.7976931348623157e308, -1e292]):
        for at in (0, size // 2, size - 1):
            x = base.copy()
            x[at : at + len(specials)] = specials[: size - at]
            cases.append(x)
    cases.append(np.full(size, 1e308))
    cases.append(np.full(size, 1e308) * np.resize([1.0, -1.0], size))
    for x in cases:
        want = _fsum_outcome(lambda v: math.fsum(v.tolist()), x)
        assert _fsum_outcome(fsum, x) == want
        # the same entries as blocks, the special ones in a late block
        halves = [x[: size // 3], x[size // 3 :]]
        assert _fsum_outcome(fsum, halves) == want
        assert _fsum_outcome(lambda v: fsum(lambda: v), halves) == want


def test_fsum_blocks_past_the_float_range_fall_back_exactly():
    """A late block too large for the lanes sends every block to math.fsum,
    which lands on the same float."""
    rng = np.random.default_rng(5)
    head = _wide_floats(6, 2 * _FSUM_BLOCK, -1074, 900)
    # the large entries cancel, so the result is the sum of the blocks before
    for tail in ([1e308, -1e308], [1.5e308, -1e308, -0.5e308, 2.0**-1074],
                 [2.0**1023] * 2 + [-(2.0**1023)] * 2):
        tail = np.array(tail)
        blocks = [head, rng.standard_normal(_FSUM_BLOCK + 3), tail]
        want = _fsum_outcome(lambda v: math.fsum(np.concatenate(v).tolist()), blocks)
        assert _fsum_outcome(fsum, blocks) == want
    # the sum before the fallback, 1 + 2**-60, takes two floats to carry
    head = np.zeros(_FSUM_BLOCK + 10)
    head[[3, 7]] = 1.0, 2.0**-60
    assert fsum([head, np.array([1e308, -1e308, -1.0])]) == 2.0**-60


def test_fsum_scalars_and_lists():
    assert fsum(2.5) == 2.5
    assert fsum([]) == 0.0
    assert fsum([0.1] * 10) == 1.0
    assert fsum([[0.1, 0.2], [0.3]]) == math.fsum([0.1, 0.2, 0.3])
    big = np.full(_FSUM_BLOCK + 1, 0.1)
    assert fsum([np.zeros(0), big, np.zeros(0)]) == fsum(big) == math.fsum(big.tolist())
    assert fsum(np.full(4 * _FSUM_BLOCK, -0.0)).hex() == math.fsum([-0.0]).hex()
    assert fsum(np.arange(3 * _FSUM_BLOCK)) == math.fsum(range(3 * _FSUM_BLOCK))
    for size in (_FSUM_BLOCK, _FSUM_BLOCK + 1):
        x = _wide_floats(size, size, -1074, 1000)
        assert fsum(x).hex() == math.fsum(x.tolist()).hex()


_FSUM_DIGEST = """
import numpy as np
from gibbs_partitions.series import fsum
rng = np.random.default_rng(17)
x = np.ldexp(rng.standard_normal(100_000), rng.integers(-1074, 960, 100_000))
print(fsum(x).hex())
"""


def test_fsum_bits_do_not_follow_simd_level(baseline_cpu_env):
    """A certified float is the correctly rounded sum, so a child with
    numpy's SIMD dispatch off gives the same float, which is math.fsum's."""
    rng = np.random.default_rng(17)
    x = np.ldexp(rng.standard_normal(100_000), rng.integers(-1074, 960, 100_000))
    child = subprocess.run(
        [sys.executable, "-c", _FSUM_DIGEST],
        env=baseline_cpu_env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert child.stdout.strip() == fsum(x).hex() == math.fsum(x.tolist()).hex()


def test_fsum_runs_no_lanes_at_or_below_the_block(monkeypatch):
    """Inputs of at most _FSUM_BLOCK entries go straight to math.fsum."""
    def no_lanes(parts):
        raise AssertionError("no lanes below the block size")

    monkeypatch.setattr(series, "_lane_sum", no_lanes)
    x = _wide_floats(3, _FSUM_BLOCK, -1074, 1000)
    assert fsum(x).hex() == fsum(np.split(x, [7, 900])).hex() == math.fsum(x.tolist()).hex()
    assert fsum(lambda: np.split(x, [7, 900])).hex() == math.fsum(x.tolist()).hex()
    with pytest.raises(AssertionError, match="no lanes"):
        fsum(np.append(x, 1.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3 * _FSUM_BLOCK),
       st.sampled_from(["exp", "midpoint", "zeros", "subnormal", "cancel", "wide", "specials"]))
@example(0, 3 * _FSUM_BLOCK, "exp")
@example(1, _FSUM_BLOCK + 1, "midpoint")
def test_fsum_of_hard_streams_is_math_fsum(seed, size, kind):
    """fsum's certified lanes, or its math.fsum of the entries made again,
    give math.fsum's float on hard streams; where math.fsum raises, the
    same."""
    x = _hard_rows(seed, 1, size, kind).ravel()
    if kind == "midpoint":  # the three entries that decide, amid zeros
        x = np.concatenate([x[:1], np.zeros(size), x[1:]])
    blocks = np.split(x, [size // 3, size // 3 + 1])
    want = _fsum_outcome(lambda v: math.fsum(v.tolist()), x)
    assert _fsum_outcome(lambda v: fsum(lambda: v), blocks) == want


def test_fsum_makes_a_stream_again_only_when_uncertified():
    calls = []

    def make(x):
        calls.append(x.size)
        return iter(np.split(x, [5, 20000]))

    wide = _wide_floats(8, 3 * _FSUM_BLOCK, -1074, 900)
    exp = np.exp(np.random.default_rng(8).uniform(-700.0, 2.0, 3 * _FSUM_BLOCK))
    # zeros alone take their signed zero from the lanes
    for x in (wide, exp, -exp, np.zeros(3 * _FSUM_BLOCK)):
        calls.clear()
        assert fsum(lambda: make(x)).hex() == math.fsum(x.tolist()).hex()
        assert len(calls) == 1
    # 1 + 2**-53 is a midpoint; 2**-110 past it decides, below the bound
    mid = np.zeros(3 * _FSUM_BLOCK)
    mid[[7, 20000, 40000]] = 1.0, 2.0**-53, 2.0**-110
    for x in (mid, -mid, np.full(3 * _FSUM_BLOCK, 2.0**-1000)):
        calls.clear()
        assert fsum(lambda: make(x)).hex() == math.fsum(x.tolist()).hex()
        assert len(calls) == 2
    calls.clear()
    assert fsum(lambda: make(wide[:_FSUM_BLOCK])) == math.fsum(wide[:_FSUM_BLOCK].tolist())
    assert len(calls) == 1  # at most _FSUM_BLOCK entries: math.fsum at once


def _hard_rows(seed, rows, cols, kind):
    """Rows that are hard to sum: wide-range exp terms, sums next to a
    rounding midpoint, signed zeros, subnormals, cancellation, specials."""
    rng = np.random.default_rng(seed)
    if kind == "exp":  # the dilute-Z density's rows, e^-760 .. e^2
        return np.exp(rng.uniform(-760.0, 2.0, (rows, cols)))
    if kind == "midpoint":  # 1 + 2**-53 and 1 - 2**-54 sit on midpoints; the tail decides
        x = np.zeros((rows, max(cols, 3)))
        x[:, 0] = 1.0
        x[:, 1] = rng.choice([2.0**-53, -(2.0**-54)], rows)  # below 1 the gap halves
        x[:, 2] = rng.choice([2.0**-110, -(2.0**-110), 0.0, -0.0, 2.0**-1074, -(2.0**-1074)], rows)
        x[rng.random(rows) < 0.5] *= -1.0
        return x[:, rng.permutation(x.shape[1])]
    if kind == "zeros":
        return rng.choice([0.0, -0.0, 2.0**-1074, -(2.0**-1074)], (rows, cols), p=[0.45, 0.45, 0.05, 0.05])
    if kind == "subnormal":
        return rng.integers(-(1 << 52), 1 << 52, (rows, cols)) * 2.0**-1074
    if kind == "cancel":
        half = np.ldexp(rng.standard_normal((rows, cols // 2)), rng.integers(-1074, 1000, (rows, cols // 2)))
        x = np.hstack([half, -half, np.ldexp(rng.standard_normal((rows, cols % 2)), -1000)])
        return x[:, rng.permutation(x.shape[1])]
    if kind == "wide":
        return np.vstack([_wide_floats(seed + i, cols, -1074, 1000) for i in range(rows)]).reshape(rows, cols)
    # specials: the rows math.fsum returns nan or inf for, or raises on
    return rng.choice([1.0, -1.0, 1e308, -1e308, 2.0**1023, math.inf, -math.inf, math.nan], (rows, cols),
                      p=[0.3, 0.3, 0.1, 0.1, 0.1, 0.04, 0.04, 0.02])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 70), st.integers(0, 900),
       st.sampled_from(["exp", "midpoint", "zeros", "subnormal", "cancel", "wide", "specials"]))
@example(0, 64, 400, "exp")
@example(1, 64, 3, "midpoint")
def test_fsum_rows_is_math_fsum_row_by_row(seed, rows, cols, kind):
    """Each row sum is math.fsum's float, bit for bit; where math.fsum
    raises on a row, fsum_rows raises the same."""
    x = _hard_rows(seed, rows, cols, kind)
    want = [_fsum_outcome(lambda row: math.fsum(row.tolist()), row) for row in x]
    raised = [w for w in want if w.startswith(("ValueError", "OverflowError"))]
    if raised:
        with pytest.raises((ValueError, OverflowError)) as exc:
            fsum_rows(x)
        assert repr(exc.value) == raised[0]
    else:
        assert [v.hex() for v in fsum_rows(x)] == want


def test_fsum_rows_certifies_all_but_the_hard_rows(monkeypatch):
    """math.fsum sees only the rows the certificate cannot settle: zero sums
    and sums within the error bound of a rounding midpoint.  (Rows whose
    sum cancels to far below sum|x| / 2**100 are not certified either.)"""
    x = np.zeros((48, 400))
    x[:32] = _hard_rows(4, 32, 400, "exp")
    x[32:40] = _hard_rows(5, 8, 400, "zeros") * 0.0  # +-0.0 only
    x[40:43, :3] = [1.0, 2.0**-53, 2.0**-110], [1.0, 2.0**-53, 0.0], [-1.0, -(2.0**-53), -(2.0**-110)]
    half = np.random.default_rng(6).standard_normal((5, 200))
    x[43:] = np.hstack([half, -half])  # cancel exactly but for the last
    x[43:, -1] += 1e-3
    want = [math.fsum(row).hex() for row in x.tolist()]
    real, seen = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda row: seen.append(row) or real(row))
    assert [v.hex() for v in fsum_rows(x)] == want
    assert len(seen) == 8 + 3
