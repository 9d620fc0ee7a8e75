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

_FSUM_BLOCK = 1 << 14  # math.fsum up to this many entries; lanes fill rows of this many above it
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

    ``a`` is an array, an iterable of arrays (read into a list first), or a
    function that returns such an iterable afresh, the same arrays at every
    call, for entries made on the fly; ``fsum`` may call it twice.  The
    float does not depend on the order of the entries, on numpy's
    summation blocking or on the SIMD level; used for every total that
    feeds a verdict.  Inputs of at most ``_FSUM_BLOCK`` entries go to
    ``math.fsum``.  Larger ones run through 4096 float lanes a row at a
    time (Ogita, Rump & Oishi's Sum2): each lane keeps its running sum s
    and the float sum e of its TwoSum errors, and the lanes fold in halves
    the same way down to 64.  Their s and e sum exactly to the entries but
    for the rounding of e, at most (C + 1)**2 u**2 sum|x| with C additions
    into an e, one a row and two a fold (u = eps / 2; Higham's bound for
    recursive summation, of errors each below u times a partial sum).
    ``math.fsum`` rounds the lanes' total once to r.  Where the bound stays
    strictly inside r's rounding interval, r is the correctly rounded sum.
    Where every entry is a zero (sum|x| = 0), the sum is ``math.fsum``'s
    own zero: ``math.fsum([-0.0])`` if every entry is -0.0, else 0.0.
    Otherwise (a zero or tiny r, a sum near a rounding midpoint, a
    non-finite entry, sum|x| past 2**1000) ``math.fsum`` sums the entries
    themselves, so NaN, inf, ``ValueError`` and ``OverflowError`` come from
    there.
    """
    parts = None if callable(a) else list((a,) if isinstance(a, np.ndarray) or np.isscalar(a) else a)

    def flats():
        return (np.ravel(np.asarray(p, dtype=float)) for p in (a() if parts is None else parts))

    stream, head, size = flats(), [], 0
    for flat in stream:
        head.append(flat)
        size += flat.size
        if size > _FSUM_BLOCK:
            r = _lane_sum(itertools.chain(head, stream))
            if r is not None:
                return r
            head = flats()  # math.fsum of the entries, made again
            break
    return math.fsum(_floats(head))


def _lane_sum(parts) -> float | None:
    """``fsum``'s lane sum of the entries of ``parts``: the correctly
    rounded float, or None where its bound cannot certify one."""
    buf = np.empty((4, _FSUM_BLOCK // 4))  # 4096 lanes: 2048 to 16384 timed within 10% of the best
    s, e, t, z, w = np.zeros((5, buf.shape[1]))
    rows, size, negative = 0, 0.0, True
    with np.errstate(over="ignore", invalid="ignore"):  # such sums are not certified
        for k in _lane_rows(parts, buf):
            block = buf[:k]
            size += float(np.abs(block).sum())
            if size == 0.0:  # zeros alone so far; the padding is -0.0
                negative = negative and bool(np.signbit(block).all())
            for x in block:  # t, w = s + x, TwoSum's s + x - t
                np.add(s, x, out=t)
                np.subtract(t, s, out=z)
                np.subtract(t, z, out=w)
                np.subtract(s, w, out=w)
                np.subtract(x, z, out=z)
                np.add(w, z, out=w)
                np.add(e, w, out=e)
                s, t = t, s
            rows += k
        while s.size > 64:  # fold the lanes in halves, two more additions on each e
            s, s2, e = s[: s.size // 2], s[s.size // 2 :], e[: e.size // 2] + e[e.size // 2 :]
            t = s + s2
            z = t - s
            e += (s - (t - z)) + (s2 - z)
            s, rows = t, rows + 2
    if size == 0.0:
        return math.fsum([-0.0]) if negative else 0.0
    if not 2.0**-900 <= size < 2.0**1000:
        return None
    lanes = s.tolist() + e.tolist()
    r = math.fsum(lanes)
    if not 2.0**-1000 <= abs(r) < math.inf:
        return None
    rest = abs(math.fsum(lanes + [-r]))  # |lanes - r|, within u of itself
    bound = 2.0 * (rows + 1) ** 2 * (0.5 * _EPS) ** 2 * size  # twice the bound: size is rounded
    gap = min(math.nextafter(r, math.inf) - r, r - math.nextafter(r, -math.inf))
    return r if rest * (1.0 + 4.0 * _EPS) + bound < 0.5 * gap else None


def _lane_rows(parts, buf):
    """Copy the entries of the arrays ``parts`` into the rows of ``buf``,
    yielding the number of rows filled each time it is full, and at the end
    the rows the rest fills, padded with -0.0, which adds to any s as s."""
    flat, fill = buf.reshape(-1), 0
    for part in parts:
        at = 0
        while at < part.size:
            k = min(part.size - at, flat.size - fill)
            flat[fill : fill + k] = part[at : at + k]
            fill, at = fill + k, at + k
            if fill == flat.size:
                yield buf.shape[0]
                fill = 0
    if fill:
        flat[fill:] = -0.0
        yield -(-fill // buf.shape[1])


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
