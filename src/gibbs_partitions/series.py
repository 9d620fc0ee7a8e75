"""Exact truncated power-series algebra.

Independent oracle for partition functions ``u_n = [z^n] V(W(z))`` and for
product / extended schemes.  Plain O(n^2) Cauchy products, summed in a fixed
order for reproducibility; desk-scale truncations (n <= 1e4) keep this fast
and auditable.

``convolve`` and ``dot`` are the fixed-order kernels every direct
convolution and inner product of the package goes through.  They use no
BLAS: ``np.convolve`` and ``np.dot`` both call ``cblas_ddot``, whose
rounding follows the BLAS kernel picked for the CPU, while ``np.einsum``'s
sum-of-products loop is compiled once, at numpy's baseline.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .weights import WeightSequence

__all__ = ["convolve", "dot", "fsum", "fsum_rows", "compose"]

_FSUM_BLOCK = 1 << 14  # math.fsum up to this many entries; chunk size above it
_FSUM_FOLD = 1 << 26  # fewer entries per bin keep the 27-bit half sums below 2**53
_EXP_MASK = 0x7FF << 52
_FRAC_MASK = (1 << 52) - 1
_HALF_MASK = (1 << 26) - 1
_ULP_INV = 1 << 1074  # every finite double is an integer multiple of 2**-1074
_EPS = 2.0**-52
# einsum sums a dot in blocks of 4 vectors from its first entry, at most 32
# doubles, so skipping whole blocks of leading +0.0 products keeps its bits
_ZERO_BLOCK = 64


def convolve(a, b, size: int | None = None) -> np.ndarray:
    """Direct convolution ``out[m] = sum_k a[k] b[m - k]``, m < ``size``.

    ``size`` defaults to the full length ``a.size + b.size - 1``; shorter
    outputs are truncated, longer ones zero-padded.  Both operands are
    trimmed to their nonzero supports first (a row of the count sweep
    starts at index l when w_0 = 0), and each output entry is one einsum
    dot product over a sliding window, in a fixed order.  The result does
    not depend on the CPU's SIMD level or on the BLAS kernel.

    The first windows start with the zero padding of the shorter operand
    (the zero triangle of a truncated product).  Those outputs go to
    einsum in bands of 256 outputs, each band past the whole
    ``_ZERO_BLOCK``-entry blocks of zeros all its windows share; dropping
    whole blocks of +0.0 products leaves every output's bits as a dot over
    the full window.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    size = a.size + b.size - 1 if size is None else size
    out = np.zeros(size)
    nz_a = np.flatnonzero(a)
    nz_b = np.flatnonzero(b)
    if nz_a.size == 0 or nz_b.size == 0:
        return out
    lo = int(nz_a[0] + nz_b[0])
    if lo >= size:
        return out
    # entries past size - 1 - (the other operand's first index) cannot reach
    # the kept outputs
    a = a[nz_a[0] : min(nz_a[-1], size - 1 - nz_b[0]) + 1]
    b = b[nz_b[0] : min(nz_b[-1], size - 1 - nz_a[0]) + 1]
    if a.size < b.size:
        a, b = b, a  # slide the shorter operand along the longer one
    width = b.size
    m = min(a.size + width - 1, size - lo)
    padded = np.zeros(width - 1 + m)
    k = min(a.size, m)
    padded[width - 1 : width - 1 + k] = a[:k]
    rev = np.ascontiguousarray(b[::-1])
    step = padded.strides[0]
    # window i holds a[i - width + 1 .. i]; against reversed b it is out[lo + i]
    windows = as_strided(padded, (m, width), (step, step), writeable=False)

    def dots(start, stop, skip):
        # windows start .. stop - 1 from entry skip on
        np.einsum("ij,j->i", windows[start:stop, skip:], rev[skip:], out=out[lo + start : lo + stop])

    # window i starts with width - 1 - i zeros, so the windows below top
    # share at least one whole block; a band's last window has the fewest,
    # width - stop, a multiple of _ZERO_BLOCK since stop steps down from top
    top = max(width - _ZERO_BLOCK, 0)
    band = 4 * _ZERO_BLOCK  # 128 and 256 timed fastest of 64 to 4096 outputs
    dots(top, m, 0)
    for stop in range(top, 0, -band):
        dots(max(stop - band, 0), stop, width - stop)
    return out


def dot(a, b) -> float:
    """Inner product in ``convolve``'s fixed order, without BLAS."""
    return float(np.einsum("i,i->", np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


def fsum(a) -> float:
    """Correctly rounded sum of all entries; equals ``math.fsum``.

    ``a`` is an array or an iterable of arrays (the sum runs over the
    entries of all of them).  Independent of numpy's pairwise-summation
    blocking and of the order of the entries; used for every total that
    feeds a verdict.  Inputs of at most ``_FSUM_BLOCK`` entries go to
    ``math.fsum``.  Larger ones are summed exactly in integers
    (``_ExactSum``) and rounded once; the correctly rounded sum is unique,
    so the float is ``math.fsum``'s.  An input with a non-finite entry, or
    whose magnitudes could take the sum out of the float range, goes to
    ``math.fsum`` too, so NaN, inf, ``ValueError`` and ``OverflowError``
    come from there.
    """
    items = (a,) if isinstance(a, np.ndarray) or np.isscalar(a) else a
    parts = (np.ravel(np.asarray(p, dtype=float)) for p in items)
    acc = None  # built at the first batch past _FSUM_BLOCK entries
    pending: list[np.ndarray] = []
    size = 0
    for flat in parts:
        pending.append(flat)
        size += flat.size
        if size > _FSUM_BLOCK:
            acc = acc or _ExactSum()
            if not acc.add(pending):
                break
            pending, size = [], 0
    else:
        if acc is None:
            return math.fsum(_floats(pending))
        if size == 0 or acc.add(pending):
            return acc.value()
    # math.fsum from the batch that failed on, after the exact sum before it
    return math.fsum(itertools.chain(acc.expansion(), _floats(pending), _floats(parts)))


def fsum_rows(x) -> np.ndarray:
    """``math.fsum`` of each row of a 2-d array, bit for bit.

    A pairwise TwoSum cascade over the columns, vectorized across the rows,
    leaves each row sum as s + e exactly; e, the error terms summed along the
    cascade in floats, is off by at most 2 L**2 u**2 sum|x| (L levels, unit
    roundoff u = eps / 2).  r = fl(s + e) is then the correctly rounded sum,
    so ``math.fsum``'s float, where its own error plus the bound
    (L + 2)**2 eps**2 sum|x| stays strictly inside the gap to r's neighbour
    on either side (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26(6), 2005).
    Rows this cannot certify (a zero, non-finite or near-midpoint sum, or
    sum|x| past 2**1022) go to ``math.fsum``, so NaN, inf, ``ValueError``
    and ``OverflowError`` come from there.
    """
    x = np.asarray(x, dtype=float)
    s = x if x.shape[1] else np.zeros((x.shape[0], 1))
    e, levels = np.zeros_like(s), 0
    with np.errstate(over="ignore", invalid="ignore"):  # such rows go to math.fsum
        while s.shape[1] > 1:
            h = s.shape[1] // 2
            a, b = s[:, :h], s[:, h : 2 * h]
            t = a + b
            z = t - a
            err = (a - (t - z)) + (b - z)  # a + b - t exactly (TwoSum)
            if levels:
                err += e[:, :h] + e[:, h : 2 * h]
            s, e = np.hstack((t, s[:, 2 * h :])), np.hstack((err, e[:, 2 * h :]))
            levels += 1
        s, e = s[:, 0], e[:, 0]
        r = s + e
        z = r - s
        rest = 2.0 * ((s - (r - z)) + (e - z))  # twice s + e - r, exactly
        size = np.abs(x).sum(axis=1)
        bound = (2.0 * (levels + 2) ** 2 * _EPS**2) * size
        ok = (r != 0.0) & (size <= 2.0**1022)
        ok &= (rest + bound < np.nextafter(r, math.inf) - r) & (rest - bound > np.nextafter(r, -math.inf) - r)
    for i in np.flatnonzero(~ok).tolist():
        r[i] = math.fsum(x[i].tolist())
    return r


def _floats(arrays):
    """The entries of 1-d arrays as Python floats, ``_FSUM_BLOCK`` at a time."""
    return itertools.chain.from_iterable(
        flat[i : i + _FSUM_BLOCK].tolist() for flat in arrays for i in range(0, flat.size, _FSUM_BLOCK)
    )


class _ExactSum:
    """Exact sum of finite doubles, as an integer count of 2**-1074.

    Every finite double is m 2**(e - 1075), with e its biased exponent
    field and m its 53-bit integer significand; subnormals and zeros take
    e = 1 and no implicit bit.  Entries go to one of 4096 bins by sign and
    exponent field, and two ``np.bincount`` calls sum the high 27 and the
    low 26 bits of their significands per bin.  Those float sums are
    integers below 2**53, so exact, while a bin holds fewer than
    ``_FSUM_FOLD`` entries; before that the bins fold into ``total``, a
    Python int.  Only integers are added, so no step depends on the order
    of the entries or on the SIMD level.
    """

    def __init__(self) -> None:
        self.total = 0  # folded sum, in units of 2**-1074
        self.bound = 0.0  # sum over the added arrays of size * largest magnitude
        self.bins = np.zeros((2, 4096))  # high-half and low-half sums
        self.held = 0  # entries in the bins since the last fold

    def add(self, arrays: list[np.ndarray]) -> bool:
        """Add the entries of 1-d float arrays.

        Adds nothing and returns False when an entry is not finite or the
        magnitudes added so far could reach 2**1022: past that, a running
        sum in ``math.fsum`` may overflow, and only it says how.
        """
        flat = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        self.bound += flat.size * max(float(flat.max()), -float(flat.min()))  # NaN stays NaN
        if not self.bound < 2.0**1022:
            return False
        bits = flat.view(np.int64)
        for i in range(0, bits.size, _FSUM_BLOCK):
            chunk = bits[i : i + _FSUM_BLOCK]
            if self.held + chunk.size > _FSUM_FOLD:
                self._fold()
            sig = chunk & _EXP_MASK
            np.minimum(sig, 1 << 52, out=sig)  # the implicit bit, 0 for subnormals
            sig |= chunk & _FRAC_MASK
            idx = chunk >> 52  # sign and exponent field: -2048 .. 2047
            idx += 2048  # negative entries in bins 0..2047, the rest above
            self.bins[0] += np.bincount(idx, sig >> 26, 4096)
            sig &= _HALF_MASK
            self.bins[1] += np.bincount(idx, sig, 4096)
            self.held += chunk.size
        return True

    def _fold(self) -> None:
        high, low = self.bins
        nz = np.flatnonzero(high + low)  # both sums are nonnegative
        for i, h, lo in zip(nz.tolist(), high[nz].tolist(), low[nz].tolist()):
            term = ((int(h) << 26) + int(lo)) << max((i & 2047) - 1, 0)
            self.total += term if i & 2048 else -term
        self.bins[:] = 0.0
        self.held = 0

    def value(self) -> float:
        """The sum, rounded once (CPython's int division rounds correctly)."""
        self._fold()
        return self.total / _ULP_INV

    def expansion(self) -> list[float]:
        """Floats whose exact sum is the sum so far, largest first."""
        self._fold()
        out, rest = [], self.total
        while rest:
            f = rest / _ULP_INV
            num, den = f.as_integer_ratio()
            rest -= num * (_ULP_INV // den)  # f is a multiple of 2**-1074
            out.append(f)
        return out


def compose(v: WeightSequence, w: WeightSequence, n_max: int) -> np.ndarray:
    """Coefficients of V(W(z)) up to degree n_max.

    Requires w_0 = 0, so that the composition is well defined on truncations
    and v contributes only through degrees <= n_max.  Evaluated by Horner
    over the reversed v-truncation:
    V(W) = v_0 + W (v_1 + W (v_2 + ...)).
    """
    if w.term(0) != 0.0:
        raise ValueError(
            "composition requires w_0 = 0; use the stopped-sum law for w_0 > 0"
        )
    ws = np.array([w.term(k) for k in range(n_max + 1)])
    acc = np.array([v.term(n_max)])
    for ell in range(n_max - 1, -1, -1):
        acc = convolve(acc, ws, n_max + 1)
        acc[0] += v.term(ell)
    return acc
