"""Exact finite-n laws for composition-scheme partition models.

Everything here is dynamic programming on probability vectors: the component
size law X, the component count laws N / N-hat, iterated convolutions
P(S_l = m), the stopped sum S_N, the conditioned count law N_n, prefix laws,
the giant-component deficit, and product-structure coordinate laws.  These
are the ground truth against which limit theorems are verified.

Conventions:

* ``DiscreteLaw`` carries a pmf on 0..n_max plus explicit mass bookkeeping;
  truncation deficits are reported, never silently renormalized, except
  where an operation is defined as a conditional law.
* With w_0 = 0 every stopped-sum truncation at l = n is exact, since
  P(S_l = n) = 0 for l > n.  With w_0 > 0 the truncation tail is certified
  by a Chernoff bound on the number of nonzero summands.
* The conditioned laws are invariant under tilting of the inner weights,
  so each (scheme, n) has one calibration, at ``default_rho(scheme, n)``,
  and one count law on it (``_count_law``); ``law_Nn`` only checks a
  caller's rho.  There the FFT sweep is
  within about 1e-12 of ``method="direct"`` on most bundled schemes but
  not on steep kernels: at n = 2000 / 3000 / 4000 the FFT ``law_Nn`` is
  2.9e-8 / 2.7e-8 / 3.6e-8 off on dense-b3 and 3.1e-9 / 2.4e-9 / 4.7e-9 on
  mixture, from entries P(S_l = n) of few components that lie under the
  FFT's absolute floor.  ``stopped_sum_law`` and ``law_Nhat`` take a rho
  because their outputs depend on it; the stopped sum is harvested at the
  default rho and re-tilted exactly, so any rho adds no error of its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.fft import irfft, rfft

from .phases import Criticality, _bisect, _criticality, _double, _heaviest, _tie_weights, _w_at_radius, _w_root
from .series import convolve, fsum
from .weights import _RADIUS_RTOL, ExtendedSpec, ProductSpec, SchemeSpec, TailCertificationError, WeightSequence

__all__ = [
    "BudgetExceededError",
    "TailCertificationError",
    "DiscreteLaw",
    "StoppedSumLaw",
    "PrefixLaw",
    "ProductLaw",
    "tv_distance",
    "default_rho",
    "law_X",
    "law_N",
    "law_Nhat",
    "stopped_sum_law",
    "law_Nn",
    "extended_law_Nn",
    "profile_law",
    "prefix_law",
    "giant_deficit_law",
    "product_law",
]

# Above this (row length * kernel length) product, row convolutions switch to
# FFT.  Direct convolution keeps exact zero patterns and ~1e-16 relative
# accuracy, which the 1e-12 invariance contracts rely on at n <= 1500, and
# gives the same bits on every x86-64 SIMD level and BLAS kernel; the FFT
# branch promises neither.  The branch is chosen once per law from the
# component-size kernel, and ``_harvest``'s giant step (a convolution with a
# row as long as n) takes the same one.  The FFT branch computes each step's
# kernel spectrum once and takes ``fftconvolve``'s transform size
# (``_next_fast_len``) and its library, pocketfft (numpy's since 2.0), so a
# stepped row has the bits of a per-row ``fftconvolve``.  ``_write_rows``
# steps the rows up to the harvest's B and makes each later FFT row one
# product of two earlier rows, inverse-transformed ``_ROW_BLOCK`` rows to a
# 2-d ``irfft`` with the bits of one transform a row; the harvested laws
# agree with a row-by-row sweep to round-off, not to the bit.
_DIRECT_CONV_LIMIT = 4_000_000

# entries per block of rows of the m = 2 prefix joint (512 KiB of doubles)
_JOINT_BLOCK = 1 << 16

# FFT-regime rows aB + b, one baby b and up to this many giants a, are
# inverse-transformed by one 2-d ``irfft`` call.  A 6075-point ``irfft``
# (n = 3000) took about 49 us as a call of its own and 29 to 32 us a row in
# calls of 4 to 32 rows, a plateau (best of 9, numpy 2.4.6, x86-64).  The
# block's product and output buffers (760 KiB at n = 3000) are allocated
# once per ``_write_rows`` call: made afresh per block, fresh pages were
# faulted in again, and the first call of a fresh sampler at n = 3000
# (rows 56 to 1672) took a median 96 ms against 83 ms.
_ROW_BLOCK = 8


class BudgetExceededError(RuntimeError):
    """A table or DP exceeded its configured size guard."""


@dataclass
class DiscreteLaw:
    """A (sub-)probability mass function on 0..n_max.

    ``mass_accounted`` is the total mass captured by the array; the deficit
    ``1 - mass_accounted`` is reported to callers rather than renormalized.
    """

    pmf: np.ndarray
    mass_accounted: float

    def __post_init__(self) -> None:
        self.pmf = np.asarray(self.pmf, dtype=float)
        if np.any(self.pmf < -1e-12):
            raise ValueError("pmf entries must be nonnegative")
        np.clip(self.pmf, 0.0, None, out=self.pmf)
        if self.mass_accounted > 1.0 + 1e-9:
            raise ValueError(f"mass accounted {self.mass_accounted} exceeds 1")

    @classmethod
    def from_pmf(cls, pmf: np.ndarray) -> "DiscreteLaw":
        pmf = np.asarray(pmf, dtype=float)
        return cls(pmf, fsum(pmf))

    @property
    def deficit(self) -> float:
        return max(0.0, 1.0 - self.mass_accounted)


def tv_distance(a: DiscreteLaw, b: DiscreteLaw) -> float:
    """Total variation distance; an upper bound when either law is deficient.

    Exact whenever both laws are fully accounted within their arrays.
    """
    k = min(a.pmf.size, b.pmf.size)
    gaps = (np.abs(a.pmf[:k] - b.pmf[:k]), a.pmf[k:], b.pmf[k:])  # a tail's gap is its pmf
    return 0.5 * (fsum(gaps) + a.deficit + b.deficit)


# ---------------------------------------------------------------------------
# building blocks


def _conv_method(kernel: np.ndarray, n: int, method: str) -> str:
    """The branch, "direct" or "fft", that a sweep of ``kernel`` over rows of
    length n + 1 takes: "auto" is direct while (n + 1) * K stays within
    ``_DIRECT_CONV_LIMIT``, K the kernel's length up to its last nonzero
    entry.  Any other method is a ValueError."""
    if method in ("direct", "fft"):
        return method
    if method != "auto":
        raise ValueError(f"method must be 'auto', 'direct' or 'fft', not {method!r}")
    nz = np.flatnonzero(kernel)
    size = nz[-1] + 1 if nz.size else 1
    return "direct" if (n + 1) * size <= _DIRECT_CONV_LIMIT else "fft"


def _row_step(kernel: np.ndarray, n: int, method: str):
    """The sweep step ``row -> (row * kernel)[0..n]`` on the branch of
    ``_conv_method``.  The kernel is cut after its last nonzero entry, and
    the choice is made once per sweep."""
    nz = np.flatnonzero(kernel)
    kernel = kernel[: nz[-1] + 1] if nz.size else kernel[:1]
    if _conv_method(kernel, n, method) == "direct":
        return lambda row: convolve(row, kernel, n + 1)
    if kernel.size == 1 or n == 0:  # fftconvolve does not transform a length-1 axis
        return lambda row: np.clip((row * kernel)[: n + 1], 0.0, None)
    size = _next_fast_len(n + kernel.size)
    spec = rfft(kernel, size)

    def fft_step(row: np.ndarray) -> np.ndarray:
        out = irfft(rfft(row, size) * spec, size)[: n + 1]
        np.clip(out, 0.0, None, out=out)
        return out

    return fft_step


def _write_rows(rows: np.ndarray, have: int, ell: int, kernel: np.ndarray, cap: int, method: str) -> None:
    """Write rows[have..ell] of the table P(S_l = .)[0..n] of sums of l
    draws from ``kernel`` (n + 1 = rows.shape[1], l <= ``cap``) from
    rows[0..have - 1]: the one writer of such rows.  Row 0 is the unit row.
    With B = ``_giant_stride(cap)``, rows up to B, and every row on the
    direct branch of ``_conv_method``, are stepped from the row before by
    ``_row_step``.  On the FFT branch each row past B is a product of two
    rows on ``_harvest``'s baby-step giant-step split: the giant row S_aB =
    S_(a-1)B * S_B and S_(aB+b) = S_aB * S_b, 0 < b < B, each the clipped
    n + 1 head of an inverse transform at ``_next_fast_len(2n + 1)`` of the
    product giant spectrum x baby spectrum.  The rows aB + b of one baby
    are transformed up to ``_ROW_BLOCK`` giants at a time, in one 2-d
    ``irfft`` along the rows, which gives each row the bits of its own
    transform.  So every row is a function of (kernel, n, cap, l) alone,
    however the calls cut 0..ell.  Each giant row the call spans and each
    baby row it needs is transformed once, the babies one at a time; the
    block's buffers are made once a call, and no spectrum outlives it."""
    n = rows.shape[1] - 1
    method = _conv_method(kernel, n, method)
    stride = _giant_stride(cap)
    if have == 0:
        rows[0] = _unit(n)
        have = 1
    stepped = ell if method == "direct" else min(ell, stride)
    if have <= stepped:
        advance = _row_step(kernel, n, method)
        for l in range(have, stepped + 1):
            rows[l] = advance(rows[l - 1])
        have = stepped + 1
    if have > ell:
        return
    size = _next_fast_len(2 * n + 1)
    first, last = (have - 1) // stride, ell // stride  # giant rows first*B..last*B
    giants = np.empty((last - first + 1, size // 2 + 1), complex)
    rfft(rows[first * stride], size, out=giants[0])
    if last > first:
        step = giants[0] if first == 1 else rfft(rows[stride], size)
        for a in range(first + 1, last + 1):
            np.clip(irfft(giants[a - first - 1] * step, size)[: n + 1], 0.0, None, out=rows[a * stride])
            rfft(rows[a * stride], size, out=giants[a - first])
        del step
    block = min(_ROW_BLOCK, last - first + 1)
    prod = np.empty((block, size // 2 + 1), complex)
    out = np.empty((block, size))
    for b in range(1, stride):
        # the giants a with have <= aB + b <= ell, up to ``block`` at a time
        lo, hi = max(first, -(-(have - b) // stride)), (ell - b) // stride + 1
        if lo >= hi:
            continue
        baby = rfft(rows[b], size)
        for s in range(lo, hi, block):
            k = min(block, hi - s)
            for i in range(k):  # a row at a time: a broadcast product is buffered
                np.multiply(giants[s - first + i], baby, out=prod[i])
            irfft(prod[:k], size, out=out[:k])
            np.clip(out[:k, : n + 1], 0.0, None, out=rows[s * stride + b :: stride][:k])


def _next_fast_len(target: int) -> int:
    """The smallest 2^a 3^b 5^c >= target: ``scipy.fft.next_fast_len``'s
    size for real transforms."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-target // p35) - 1).bit_length()  # least 2^a >= target / p35
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def _unit(n: int) -> np.ndarray:
    """The row P(S_0 = .)[0..n]: all mass at 0."""
    row = np.zeros(n + 1)
    row[0] = 1.0
    return row


def _saddle_rho(scheme: SchemeSpec, n: int) -> float:
    """Tilt radius putting the mean of S_N near n (Boltzmann calibration).

    For entire generating series (explicit sequences) any radius is legal,
    but conditioning on S_N = n is representable in double precision only
    near the saddle where E[N] E[X] = n.
    """
    def mean_sn(r: float) -> float:
        W = scheme.w.series_value(r)
        if not math.isfinite(W) or W <= 0:
            return math.inf
        VW = scheme.v.series_value(W)
        if not math.isfinite(VW) or VW <= 0:
            return math.inf
        en = scheme.v.weighted_moment(W, 1) / VW
        ex = scheme.w.weighted_moment(r, 1) / W
        return en * ex

    hi, short = _double(lambda r: mean_sn(r) < n, cap=1e9)
    if short:
        return hi  # bounded support: the closest reachable calibration
    lo, hi = _bisect(lambda r: mean_sn(r) < n, 1e-9, hi, 1e-12)
    return 0.5 * (lo + hi)


def default_rho(scheme: SchemeSpec, n: int | None = None) -> float:
    """An evaluation radius with both W(rho) and V(W(rho)) finite.

    All conditioned laws are tilt invariant, so the choice only affects
    numerical range.  Uses rho_w when W(rho_w) stays within the outer
    radius, else the point where W(t) = rho_v (the composition's own
    singularity, i.e. rho_u).  When both series are entire and a target
    size is given, the saddle calibration keeps the conditioning event
    representable.
    """
    return _default_radius(scheme, n)[0]


def _default_radius(scheme: SchemeSpec, n: int | None = None):
    """``default_rho`` and W(rho) when it has summed that value on the way
    (rho = rho_w of a closed form, W(rho_w) summed to place it), else None."""
    w = scheme.w
    w_at = _w_at_radius(w)
    W_rho_w = None if w.is_explicit else w_at  # an explicit w's w_at is not W(rho_w)
    try:
        crit = _criticality(scheme, w_at)
    except ValueError:  # W(rho_w) and rho_v both infinite: the saddle is finite
        if n is not None:
            return _saddle_rho(scheme, n), None
        if math.isinf(w.radius()):
            return 1.0, None
        crit = None
    # a critical W(rho_w) may lie inside the band but past V's radius: V
    # diverges there, and rho_u's bracket is taken as for supercritical
    past = crit is Criticality.critical and w_at / scheme.v.radius() - 1.0 > _RADIUS_RTOL
    if crit is not Criticality.supercritical and not past:
        return w.radius(), W_rho_w
    # the lower end: W(rho) within 1e-13 of rho_v sums V(W(rho)) on its radius
    return _w_root(scheme, 1e-14)[0], None


def _radius_and_W(scheme: SchemeSpec, n: int | None, rho: float | None):
    """rho (``default_rho``'s when None) and W(rho), summed once."""
    W = None
    if rho is None:
        rho, W = _default_radius(scheme, n)
    return rho, scheme.w.series_value(rho) if W is None else W


def law_X(scheme: SchemeSpec, rho: float, n_max: int) -> DiscreteLaw:
    """Law of a single component size: P(X=k) = w_k rho^k / W(rho)."""
    return _law_X(scheme, rho, scheme.w.series_value(rho), n_max)


def _law_X(scheme: SchemeSpec, rho: float, W: float, n_max: int) -> DiscreteLaw:
    """``law_X`` with W = W(rho) already summed."""
    if not math.isfinite(W) or W <= 0:
        raise ValueError(f"W({rho}) must be positive and finite, got {W}")
    terms = scheme.w.weighted_terms(rho, n_max)
    return DiscreteLaw(terms / W, fsum(terms) / W)


def law_N(scheme: SchemeSpec, rho: float, ell_max: int) -> DiscreteLaw:
    """Law of the unconditioned count: P(N=l) = v_l W(rho)^l / V(W(rho))."""
    W = scheme.w.series_value(rho)
    return _law_N(scheme, W, _outer_value(scheme, W), ell_max)


def _outer_value(scheme: SchemeSpec, W: float) -> float:
    """V(W) at W = W(rho), which both must be finite and V(W) positive."""
    if not math.isfinite(W):
        raise ValueError("W(rho) diverges")
    VW = scheme.v.series_value(W)
    if not math.isfinite(VW) or VW <= 0:
        raise ValueError(f"V(W(rho)) must be positive and finite, got {VW}")
    return VW


def _law_N(scheme: SchemeSpec, W: float, VW: float, ell_max: int) -> DiscreteLaw:
    """``law_N`` with W = W(rho) and VW = V(W) already summed."""
    terms = scheme.v.weighted_terms(W, ell_max)
    return DiscreteLaw(terms / VW, fsum(terms) / VW)


def law_Nhat(scheme: SchemeSpec, ell_max: int, rho: float | None = None) -> DiscreteLaw:
    """Size-biased count law: P(N-hat = l) = l P(N=l) / E[N]."""
    rho, W = _radius_and_W(scheme, None, rho)
    VW = _outer_value(scheme, W)
    pmf_n = _law_N(scheme, W, VW, ell_max).pmf
    EN = scheme.v.weighted_moment(W, 1) / VW
    if not math.isfinite(EN):
        raise ValueError("E[N] diverges; size-biased law undefined")
    return DiscreteLaw.from_pmf(np.arange(pmf_n.size) * pmf_n / EN)


def _ell_cap(n: int, law_x: DiscreteLaw) -> int:
    """Truncation point for sums over l with certified neglected mass.

    With P(X=0) = 0 the cap l = n is exact.  Otherwise the number of nonzero
    summands among l draws is Binomial(l, 1 - p0), and P(S_l = n) decays
    like exp(-(1-p0) l / 8) once l >= 4n/(1-p0); the cap is sized so the
    neglected mass is below 1e-16 absolutely.
    """
    p0 = float(law_x.pmf[0])
    if p0 == 0.0:
        return n
    if p0 >= 1.0 - 1e-9:
        raise TailCertificationError("component size is 0 almost surely")
    cap = int(math.ceil(max(4.0 * n, 8.0 * (n + 40 * math.log(10))) / (1.0 - p0)))
    if cap > 4 * n and cap > 100_000:
        raise TailCertificationError(
            "cannot certify stopped-sum tail within the 4n row budget"
        )
    return cap


def _giant_stride(cap: int) -> int:
    """B of ``_harvest``'s giant step S_B for rows l = 0..cap."""
    return math.isqrt(cap) + 1


def _harvest(kernel: np.ndarray, n: int, cap: int, method: str, weights=(), start=None, rows=None):
    """Harvest the rows S_l = P(S_l = .)[0..n], l = 0..cap, of sums of l
    draws from ``kernel`` by baby-step giant-step (Paterson & Stockmeyer,
    SIAM J. Comput. 2(1), 1973).  With B = ``_giant_stride(cap)`` the baby
    rows S_0..S_B come from ``_write_rows``, one giant step convolves with
    S_B, and S_{aB+b} = S_B^{*a} * S_b: about 2 sqrt(cap) steps instead of
    cap.  Both steps take the branch ``kernel`` gives (``_conv_method``).
    The baby rows go into the first B + 1 rows of ``rows`` when given (an
    array of rows of length n + 1, which the caller keeps), else into a new
    array after one spare leading row.

    Returns (column, sums).  With a ``start`` row, column[aB + b] =
    (start * S_{aB+b})[n] = dot(G_a, S_b reversed), G_a = start * S_B^{*a},
    a second chain of giant steps; without one, column is None and only
    the Horner chains run (prefix laws read P(S_N = n) off their own
    sums).  For each vector w in ``weights``, the sum
    of w[l] S_l over l <= cap, l < w.size, by Horner in the giant step:
    acc = 1 acc + sum_b w[aB+b] S_b, b increasing, one einsum over the
    stack (acc, S_0, S_1, ...) after acc = giant(acc).  einsum's loop adds
    each product in that order, so a zero weight adds +0.0.  Precondition:
    no caller passes both ``rows`` and ``weights``; only the stack of a
    harvest's own has the spare leading row acc goes into.
    """
    method = _conv_method(kernel, n, method)
    B = _giant_stride(cap)
    if rows is None:
        stack = np.empty((B + 2, n + 1))  # row 0: the Horner accumulator
        babies = stack[1:]
    else:
        babies = rows[: B + 1]
    _write_rows(babies, 0, B, kernel, cap, method)
    giant = _row_step(babies[B], n, method)
    column = None
    if start is not None:
        column = np.empty(cap + 1)
        g = start
        for lo in range(0, cap + 1, B):
            if lo:
                g = giant(g)
            hi = min(lo + B, cap + 1)
            column[lo:hi] = np.einsum("ij,j->i", babies[: hi - lo], np.ascontiguousarray(g[::-1]))
    sums = []
    coef = np.ones(B + 1)  # coef[0] = 1 scales acc
    for w in weights:
        w = w[: cap + 1]
        nz = np.flatnonzero(w)
        top = nz[-1] // B if nz.size else -1
        acc = np.zeros(n + 1)
        for a in range(top, -1, -1):
            if a < top:
                acc = giant(acc)
            k = min(B, w.size - a * B)
            coef[1 : k + 1] = w[a * B : a * B + k]
            stack[0] = acc
            acc = np.einsum("b,bm->m", coef[: k + 1], stack[: k + 1])
        sums.append(acc)
    return column, sums


@dataclass(frozen=True)
class _Calibration:
    """What every finite-n law of (scheme, n) is built on: rho, W(rho),
    V(W(rho)), P(X = .) on 0..n, the l cap of ``_ell_cap`` and P(N = l),
    l = 0..cap."""

    rho: float
    W: float
    VW: float
    law_x: DiscreteLaw
    cap: int
    pmf_n: np.ndarray


def _calibrate(scheme: SchemeSpec, n: int) -> _Calibration:
    """The calibration of (scheme, n) at ``default_rho(scheme, n)``; the
    conditioned laws are tilt invariant, so it is the only one.  Each
    series is summed once: W(rho) (``default_rho``'s own sum when rho =
    rho_w), then V(W(rho)); the laws are ``law_X``'s and ``law_N``'s."""
    rho, W = _radius_and_W(scheme, n, None)
    lx = _law_X(scheme, rho, W, n)
    cap = _ell_cap(n, lx)
    VW = _outer_value(scheme, W)
    return _Calibration(rho, W, VW, lx, cap, _law_N(scheme, W, VW, cap).pmf)


@dataclass
class StoppedSumLaw:
    """P(S_N = m) for m = 0..n, with partition-function reconstruction."""

    s_n: np.ndarray
    u: np.ndarray
    rho: float
    vw: float


def stopped_sum_law(
    scheme: SchemeSpec, rho: float | None = None, n: int = 0, method: str = "auto"
) -> StoppedSumLaw:
    """Law of the randomly stopped sum at rho plus u_m = [z^m] V(W(z)).

    The rows are harvested at the default rho, where the FFT sweep is
    right, and give u_m = V(W) rho^-m P(S_N = m) there.  A caller's rho
    (``default_rho``'s when None) enters only through the exact re-tilt
    P_rho(S_N = m) = u_m rho^m / V(W(rho)), in log space.
    """
    cal = _calibrate(scheme, n)
    _, (acc,) = _harvest(cal.law_x.pmf, n, cal.cap, method, [cal.pmf_n])
    m = np.arange(n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        log_s = np.where(acc > 0, np.log(np.where(acc > 0, acc, 1.0)), -np.inf)
    log_u = math.log(cal.VW) - m * math.log(cal.rho) + log_s
    u = np.exp(log_u)
    u[acc == 0] = 0.0
    if rho is None or rho == cal.rho:
        return StoppedSumLaw(acc, u, cal.rho, cal.VW)
    vw = _outer_value(scheme, scheme.w.series_value(rho))
    s_n = np.exp(log_u + m * math.log(rho) - math.log(vw))
    s_n[acc == 0] = 0.0
    return StoppedSumLaw(s_n, u, rho, vw)


def _count_law(cal: _Calibration, n: int, method: str = "auto", start=None, rows=None):
    """(law, Z): the count law of (scheme, n) on its calibration ``cal``,
    P(N = l) column[l] / Z, column the ``_harvest`` of (start * S_l)[n] from
    the unit row or an extended scheme's h_j rho^j (``rows`` as there), and
    Z = P(S_N = n), the ``fsum`` of those products.  The one route of
    ``law_Nn``, ``extended_law_Nn``, ``giant_deficit_law`` and the samplers."""
    start = _unit(n) if start is None else start
    column, _ = _harvest(cal.law_x.pmf, n, cal.cap, method, start=start, rows=rows)
    num = cal.pmf_n * column
    z = fsum(num)
    if z <= 0.0:
        raise ValueError(f"partition function vanishes at n={n}")
    return DiscreteLaw(num / z, 1.0), z


def law_Nn(
    scheme: SchemeSpec, n: int, rho: float | None = None, method: str = "auto"
) -> DiscreteLaw:
    """Exact conditioned count law P(N_n = l) = P(N = l | S_N = n) of the
    plain scheme V(W(z)).

    Normalized by construction (conditioning contract), and tilt invariant:
    it is computed at ``default_rho(scheme, n)``, and a caller's ``rho`` is
    only checked, W(rho) and V(W(rho)) finite and V(W(rho)) positive.  An
    extended scheme's count law is ``extended_law_Nn``'s.
    """
    if rho is not None:
        _outer_value(scheme, scheme.w.series_value(rho))
    return _count_law(_calibrate(scheme, n), n, method)[0]


def extended_law_Nn(spec: ExtendedSpec, n: int, method: str = "auto") -> DiscreteLaw:
    """Exact count law of the W-components of an extended scheme
    H(z) V(W(z)), proportional to P(N = l) * sum_j h_j rho^j P(S_l = n - j):
    ``law_Nn``'s harvest on the base scheme's calibration, started from the
    row h_j rho^j instead of the unit row."""
    cal = _calibrate(spec.base, n)
    return _count_law(cal, n, method, spec.h.weighted_terms(cal.rho, n))[0]


# ---------------------------------------------------------------------------
# size profiles


def _integer_partitions(n: int, max_part: int | None = None):
    """Yield the integer partitions of n as nonincreasing tuples."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in _integer_partitions(n - first, first):
            yield (first,) + rest


def profile_law(scheme: SchemeSpec, n: int) -> dict[tuple[int, ...], float]:
    """Law of the multiset of component sizes via the count-law formula.

    P(profile) = r! v_r / u_n * prod_i w_i^(n_i) / n_i!  over the integer
    partitions of n, with u_n from the series composition.  An independent
    route to the same object the set-partition enumeration produces.
    Requires w_0 = 0.
    """
    if scheme.w.term(0) != 0.0:
        raise ValueError("profile law requires w_0 = 0")
    if n > 40:
        raise BudgetExceededError("profile enumeration limited to n <= 40")
    from .series import compose

    u_n = float(compose(scheme.v, scheme.w, n)[n])
    if u_n <= 0:
        raise ValueError(f"partition function vanishes at n={n}")
    out: dict[tuple[int, ...], float] = {}
    for sizes in _integer_partitions(n):
        r = len(sizes)
        weight = math.factorial(r) * scheme.v.term(r) / u_n
        if weight == 0.0:
            continue
        mult: dict[int, int] = {}
        for s in sizes:
            mult[s] = mult.get(s, 0) + 1
        for s, cnt in mult.items():
            weight *= scheme.w.term(s) ** cnt / math.factorial(cnt)
            if weight == 0.0:
                break
        if weight > 0.0:
            out[sizes] = weight
    return out


# ---------------------------------------------------------------------------
# prefix laws


@dataclass
class PrefixLaw:
    """Joint law of the first m component sizes (m = 1 or 2).

    ``joint`` has shape (n+1,) or (n+1, n+1); its total mass is
    P(N_n >= m), with the remainder reported as deficit.
    ``iid`` is the single-component law P(X = .) on 0..n, and
    ``tv_to_iid`` is the total variation distance to the i.i.d. product of
    m copies of it.
    """

    joint: np.ndarray
    mass_accounted: float
    tv_to_iid: float
    iid: np.ndarray


def prefix_law(scheme: SchemeSpec, n: int, m: int, method: str = "auto") -> PrefixLaw:
    """Joint law P(K_1..K_m = k_1..k_m) of the first m components.

    Equals prod_i P(X=k_i) * sum_{l >= m} P(N=l) P(S_{l-m} = n - sum k_i)
    divided by P(S_N = n); exchangeable, so the coordinate order is
    immaterial.  The sum over l is the Green vector G_m[n - sum k_i] of one
    harvest, and P(S_N = n) is read off G_m too (``_stopped_at_n``).
    """
    return _prefix_laws(scheme, n, (m,), method)[0]


def _prefix_laws(scheme: SchemeSpec, n: int, ms, method: str = "auto") -> list[PrefixLaw]:
    """``prefix_law`` at each m of ``ms``, from one calibration and one
    harvest with one weight vector per m and no start row, so one chain of
    giant steps per m; each law takes its denominator from its own G_m and
    has the bits of its own ``prefix_law`` call."""
    for m in ms:
        if m not in (1, 2):
            raise ValueError("prefix laws implemented for m in {1, 2}")
        if m == 2 and n > 3000:
            raise BudgetExceededError("m=2 joint table limited to n <= 3000")
    # G[x] = sum_{l >= m} P(N=l) P(S_{l-m} = x): weight row j by P(N = j+m).
    cal = _calibrate(scheme, n)
    _, greens = _harvest(cal.law_x.pmf, n, cal.cap, method, [cal.pmf_n[m:] for m in ms])
    return [_prefix(cal.law_x, green, _stopped_at_n(cal, green, n, m), n, m) for m, green in zip(ms, greens)]


def _stopped_at_n(cal: _Calibration, green: np.ndarray, n: int, m: int) -> float:
    """P(S_N = n) read off the Green vector G_m of m components:
    sum_{l < m} P(N = l) P(S_l = n) + sum_k P(S_m = k) G_m[n - k], with
    P(S_2 = .) = P(X = .) * P(X = .) by ``convolve``, as ``fsum`` of the
    products, correctly rounded."""
    px, pmf_n = cal.law_x.pmf, cal.pmf_n
    head = np.array([float(n == 0), px[n]][: min(m, pmf_n.size)])  # P(S_l = n), l < m
    s_m = px if m == 1 else convolve(px, px, n + 1)
    denom = fsum([pmf_n[: head.size] * head, s_m * green[::-1]])
    if denom <= 0:
        raise ValueError(f"partition function vanishes at n={n}")
    return denom


def _prefix(law_x: DiscreteLaw, green: np.ndarray, denom: float, n: int, m: int) -> PrefixLaw:
    """The prefix law of m components from G (``green``) and P(S_N = n).

    At m = 2 the joint equals its transpose by value (a row with
    P(X = k1) = 0 is +0.0 where its mirror may be -0.0), so its mass and
    its TV to the product law are each fsum of the diagonal and twice the
    strict upper half, about half the entries of the full sums and the
    same floats, summed from blocks made on the fly (made a second time
    only for a sum ``fsum``'s lanes cannot certify)."""
    px = law_x.pmf
    d = law_x.deficit
    if m == 1:
        joint = px * green[::-1] / denom  # green[n-k]
        mass = fsum(joint)
        tv = 0.5 * (fsum(np.abs(joint - px)) + d)
    else:
        # joint[k1, k2] = P(X=k1) P(X=k2) G[n-k1-k2] / denom, filled and
        # compared with the product law a block of rows at a time, so no
        # other (n+1)^2 array exists beside it
        joint = np.empty((n + 1, n + 1))
        # hankel[k1, k2] = G[n-k1-k2], and 0 past the antidiagonal k1 + k2 = n
        padded = np.zeros(2 * n + 1)
        padded[: n + 1] = green[::-1]
        hankel = sliding_window_view(padded, n + 1)
        rows = max(1, _JOINT_BLOCK // (n + 1))
        blocks = [slice(k, k + rows) for k in range(0, n + 1, rows)]
        for blk in blocks:
            out = joint[blk]
            np.multiply(px[blk, None], px, out=out)
            out *= hankel[blk]
            out /= denom
            out[px[blk] == 0.0] = 0.0  # +0.0 even where G has round-off below 0
        # each sum: the diagonal plus twice the strict upper half, exactly
        half = n // 2
        mass = fsum(lambda: itertools.chain(
            [joint.diagonal()[: half + 1]],
            (2.0 * joint[k, k + 1 : n - k + 1] for k in range(half + 1)),  # the rest is +0.0
        ))
        # the product law misses 1 - (1 - d)^2 = d (2 - d) of its mass
        diag = np.abs(joint.diagonal() - px * px)
        tv = 0.5 * (fsum(lambda: itertools.chain([diag], _upper_gaps(joint, px, blocks))) + d * (2.0 - d))
    return PrefixLaw(joint, mass, tv, px)


def _upper_gaps(joint: np.ndarray, px: np.ndarray, blocks):
    """Twice |joint - px x px| on k1 < k2, one block of rows at a time:
    the block's rows from its first row's column on, computed in place in
    one new array, with the block's own square below and on the diagonal
    set to +0.0."""
    lower = np.tri(px[blocks[0]].size, dtype=bool)
    for blk in blocks:
        gap = np.multiply(px[blk, None], px[blk.start :])
        np.subtract(joint[blk, blk.start :], gap, out=gap)
        np.abs(gap, out=gap)
        gap *= 2.0
        k = gap.shape[0]
        gap[:, :k][lower[:k, :k]] = 0.0
        yield gap


# ---------------------------------------------------------------------------
# giant component deficit


def giant_deficit_law(scheme: SchemeSpec, n: int, method: str = "auto"):
    """Exact law of n - M_n (deficit of the largest component) and its limit.

    The exact pmf covers d < n/2, where the event {M_n = n - d} decomposes
    uniquely into one macroscopic part and l - 1 parts summing to d (the
    "sizes <= n/2 split"); the remaining mass P(n - M_n >= n/2) stays in the
    deficit bookkeeping.  The limit law is that of a sum of N-hat - 1
    independent component sizes; it is None when E[N] diverges.
    """
    cal = _calibrate(scheme, n)
    return _giant_deficit(scheme, n, cal, _count_law(cal, n, method)[1], method)


def _giant_deficit(scheme: SchemeSpec, n: int, cal: _Calibration, z: float, method: str = "auto"):
    """``giant_deficit_law`` from the calibration of (scheme, n) and its
    count law's Z = P(S_N = n) (``_count_law``), which an ``ExactSampler``
    keeps.

    The Green vector's sweep over rows of length d_max + 1 takes the branch
    of the law's own sweep, ``_conv_method`` of (P(X = .), n), chosen once.
    Deciding again at d_max would run it direct wherever (d_max + 1) K
    stays within ``_DIRECT_CONV_LIMIT`` and (n + 1) K does not, as for
    convergent at every n from 2000 to 4000, at about twice the FFT's
    cost.  A direct law keeps a direct Green sweep, since (d_max + 1)
    K_dmax <= (n + 1) K_n."""
    method = _conv_method(cal.law_x.pmf, n, method)
    d_max = (n - 1) // 2
    px, pmf_n = cal.law_x.pmf, cal.pmf_n
    weights_exact = pmf_n[1:] * np.arange(1, pmf_n.size)

    # G[d] = sum_l P(N=l) l P(S_{l-1} = d): rows only to column d_max needed.
    # Row j holds P(S_j = d), j = l - 1 small summands; with no zero-size
    # components rows past d_max vanish on the kept columns.
    cap = weights_exact.size - 1
    if float(px[0]) == 0.0:
        cap = min(cap, d_max)
    _, (g_exact,) = _harvest(px[: d_max + 1], d_max, cap, method, [weights_exact])

    big = px[n - d_max : n + 1][::-1]  # P(X = n - d), d = 0..d_max
    exact = DiscreteLaw.from_pmf(g_exact * big / z)
    # the limit sum_l nhat_l P(S_{l-1} = d), nhat_l = l P(N = l) / E[N], is G / E[N]
    EN = scheme.v.weighted_moment(cal.W, 1) / cal.VW
    limit = DiscreteLaw.from_pmf(g_exact / EN) if math.isfinite(EN) else None
    return exact, limit


# ---------------------------------------------------------------------------
# product structures


@dataclass
class ProductLaw:
    """Coordinate marginals of (P_1..P_l) and the macroscopic-index limits;
    ``arrays`` are the factors' coefficients on 0..n after the common tilt."""

    marginals: list[DiscreteLaw]
    p: tuple[float, ...] | None
    o_n: float
    arrays: list[np.ndarray]


def _product_tables(spec: ProductSpec, n: int):
    """Coefficient arrays of the factors on 0..n after a common tilt to the
    smallest finite radius (distributionally a no-op), and their suffix
    products suffix[j] = conv of arrays[j:] (suffix[ell] is the unit).

    Returns (arrays, suffix); suffix[0][n] is the partition function, and
    it must be positive.
    """
    finite = [r for r in (f.radius() for f in spec.factors) if math.isfinite(r)]
    t = min(finite) if finite else 1.0
    tilted = [f.tilt(t) for f in spec.factors]
    arrays = [np.array([f.term(k) for k in range(n + 1)]) for f in tilted]
    suffix = [_unit(n)]
    for a in reversed(arrays):
        suffix.insert(0, convolve(a, suffix[0], n + 1))
    if suffix[0][n] <= 0:
        raise ValueError(f"product partition function vanishes at n={n}")
    return arrays, suffix


def product_law(spec: ProductSpec, n: int) -> ProductLaw:
    """Exact coordinate marginals of the conditioned product structure.

    The laws are computed from truncated series after a common tilt to the
    smallest factor radius (distributionally a no-op); the macroscopic-index
    probabilities p_k are ``phases``' tie weights c_k / F_k(rho_k) over the
    heaviest tail class (``phases._heaviest``), 0 outside it, and satisfy
    sum p_k = 1 by construction, which is asserted rather than enforced.
    """
    return _product_law(spec, n, *_product_tables(spec, n))


def _product_law(spec: ProductSpec, n: int, arrays, suffix) -> ProductLaw:
    """``product_law`` from the ``_product_tables`` of (spec, n), which a
    ``ProductSampler`` keeps."""
    o_n = float(suffix[0][n])
    # prefix[j] = conv of arrays[:j]
    prefix = [suffix[-1]]
    for a in arrays[:-1]:
        prefix.append(convolve(prefix[-1], a, n + 1))
    marginals = []
    for j in range(len(arrays)):
        others = convolve(prefix[j], suffix[j + 1], n + 1)
        pmf = arrays[j] * others[::-1] / o_n
        marginals.append(DiscreteLaw.from_pmf(pmf))

    p = None
    if all(not f.is_explicit for f in spec.factors):
        tied = _heaviest([(f.rho, f.e, f.L.log_exp) for f in spec.factors])
        in_class = [spec.factors[k] for k in tied]
        values = [f.series_value(f.rho) for f in in_class]
        if not all(map(math.isfinite, values)):
            raise ValueError("factor series diverges at its radius")
        weights = dict(zip(tied, _tie_weights([f.L.c for f in in_class], values)))
        p = tuple(weights.get(k, 0.0) for k in range(len(spec.factors)))
        assert abs(sum(p) - 1.0) < 1e-12
    return ProductLaw(marginals, p, o_n, arrays)
