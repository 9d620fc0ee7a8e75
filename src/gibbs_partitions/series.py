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
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .weights import WeightSequence

__all__ = [
    "TruncatedSeries",
    "convolve",
    "dot",
    "fsum",
    "mul",
    "compose",
    "series_of",
]

_FSUM_BLOCK = 1 << 14


def convolve(a, b, size: int | None = None) -> np.ndarray:
    """Direct convolution ``out[m] = sum_k a[k] b[m - k]``, m < ``size``.

    ``size`` defaults to the full length ``a.size + b.size - 1``; shorter
    outputs are truncated, longer ones zero-padded.  Both operands are
    trimmed to their nonzero supports first (a row of the count sweep
    starts at index l when w_0 = 0), and each output entry is one einsum
    dot product over a sliding window, in a fixed order.  The result does
    not depend on the CPU's SIMD level or on the BLAS kernel.
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
    # window i holds a[i - width + 1 .. i]; against reversed b it is out[lo + i]
    windows = sliding_window_view(padded, width)
    out[lo : lo + m] = np.einsum("ij,j->i", windows, np.ascontiguousarray(b[::-1]))
    return out


def dot(a, b) -> float:
    """Inner product in ``convolve``'s fixed order, without BLAS."""
    return float(np.einsum("i,i->", np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


def fsum(a) -> float:
    """Correctly rounded sum of all entries (``math.fsum``).

    Independent of numpy's pairwise-summation blocking and of the order of
    the entries; used for every total that feeds a verdict.  Entries become
    Python floats one block at a time, which bounds the memory this takes.
    """
    flat = np.ravel(a)
    blocks = (flat[i : i + _FSUM_BLOCK].tolist() for i in range(0, flat.size, _FSUM_BLOCK))
    return math.fsum(itertools.chain.from_iterable(blocks))


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients indexed 0..n_max."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def n_max(self) -> int:
        return self.coeffs.size - 1

    def __getitem__(self, n: int) -> float:
        return float(self.coeffs[n]) if n <= self.n_max else 0.0


def series_of(seq: WeightSequence, n_max: int) -> TruncatedSeries:
    """Truncation of a weight sequence to degree n_max."""
    return TruncatedSeries(np.array([seq.term(n) for n in range(n_max + 1)]))


def mul(a: TruncatedSeries, b: TruncatedSeries, n_max: int) -> TruncatedSeries:
    """Cauchy product truncated at degree n_max."""
    return TruncatedSeries(convolve(a.coeffs[: n_max + 1], b.coeffs[: n_max + 1], n_max + 1))


def compose(v: WeightSequence, w: WeightSequence, n_max: int) -> TruncatedSeries:
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
    ws = series_of(w, n_max)
    acc = TruncatedSeries(np.array([v.term(n_max)]))
    for ell in range(n_max - 1, 0, -1):
        acc = mul(acc, ws, n_max)
        coeffs = acc.coeffs.copy()
        coeffs[0] += v.term(ell)
        acc = TruncatedSeries(coeffs)
    acc = mul(acc, ws, n_max)
    coeffs = acc.coeffs.copy()
    coeffs[0] += v.term(0)
    return TruncatedSeries(coeffs)
