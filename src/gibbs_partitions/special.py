"""Gamma-function special functions without scipy: ports of scipy 1.17's
cephes routines, operation for operation, so that every value is scipy's
bit for bit.

* ``lgam``: log Gamma on (0, inf), the kernel of ``scipy.special.gammaln``
  (Stirling's series from 13 on, a rational function on [2, 3] below);
* ``igam`` and ``igamc``: the regularized incomplete gamma functions
  P(a, x) and Q(a, x) of ``gammainc`` and ``gammaincc``, element by element
  over x for one a;
* ``chdtrc``: the chi-square survival function, Q(df / 2, x / 2);
* ``upper_gamma``: the unregularized Gamma(a, x) for every real a, the
  tail integral of the certified series sums.  It is not one of scipy's
  functions and has no bits to match: it is tested against mpmath;
* ``_tanh_sinh``: the nodes and weights of the tanh-sinh rule on [0, 1]
  at a given step, the package's one integration rule: the point-process
  integrals take it at step 1/16, the tail integral of a series with a
  log factor at step 1/32.

P and Q follow cephes' choice among the power series of P (DLMF 8.11.4),
the series of Q that avoids cancellation (DLMF 8.7.3) and the continued
fraction of Q (DLMF 8.9.2); the prefactor x^a e^-x / Gamma(a) takes the
Lanczos sum near x = a (Gil, Segura & Temme, Numerical Methods for Special
Functions, SIAM 2007, ch. 6).  Only a > 20 with |x - a| <= 0.4 a is not
ported: there cephes may sum Temme's uniform expansion (DLMF 8.12.3-4), and
those points go to scipy, imported for them alone: the one scipy import
left in the package's runtime.

exp, log and pow are the C library's, one value at a time: numpy's vector
versions round differently on different SIMD levels.  Every other step is
IEEE arithmetic, which numpy rounds exactly as C does.  Loops over the
terms of a series run on whole arrays and let each point leave at the term
where the scalar loop would stop.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = ["lgam", "igam", "igamc", "chdtrc", "upper_gamma"]

_MACHEP = 1.11022302462515654042e-16  # 2^-53
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_MAXITER = 2000
_BIG = 2.0**512  # where ``_q_fraction`` scales its recurrence down, by
_BIGINV = 2.0**-512
_TEMME_A = 20.0  # a above which cephes may take the uniform expansion near x = a


def _libm(fn, x) -> np.ndarray:
    """fn of each entry of x, from the C library, in x's shape."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


# The tanh-sinh rule (Takahasi & Mori 1974, Publ. RIMS 9) on [0, 1]: nodes
# u = 1 / (1 + e^(-pi sinh t)) at t = k h, |t| <= _TS_REACH, where the
# weights fall below 1e-16.  The nodes at step 1/16 are every other node at
# step 1/32 (both reach t = 3.1875), so a caller can take the rule at both
# steps from one set of integrand values.
_TS_REACH = 3.2


@functools.lru_cache(maxsize=4)
def _tanh_sinh(step: float) -> tuple[tuple, tuple]:
    """The nodes and weights of the tanh-sinh rule of step ``step`` on [0, 1]."""
    reach = round(_TS_REACH / step)
    ts = [k * step for k in range(-reach, reach + 1)]
    nodes = [1.0 / (1.0 + math.exp(-math.pi * math.sinh(t))) for t in ts]
    # du/dt = pi cosh(t) u (1 - u), u (1 - u) = 1 / (2 + 2 cosh(pi sinh t))
    weights = [step * math.pi * math.cosh(t) / (2.0 + 2.0 * math.cosh(math.pi * math.sinh(t))) for t in ts]
    return tuple(nodes), tuple(weights)  # tuples: the cache is shared


def _pow(x: np.ndarray, a: float) -> np.ndarray:
    """x ** a entry by entry, the C library's pow."""
    return np.fromiter(map(math.pow, x.tolist(), itertools.repeat(a)), float, x.size)


def _polevl(x, coef):
    """sum coef[i] x^(N-i) by Horner's rule, on floats or arrays."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """``_polevl`` with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


# ---------------------------------------------------------------------------
# log Gamma (cephes gamma.c)

_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_NUM = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_DEN = (
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305


def _lgam_below_13(x: float) -> float:
    """log Gamma(x) for 0 < x < 13: shifted into [2, 3), the product of the
    shifts kept in z, and a rational function there."""
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    x = x + (p - 2.0)
    return math.log(z) + x * _polevl(x, _LGAM_NUM) / _p1evl(x, _LGAM_DEN)


def lgam(x):
    """log Gamma(x) for x > 0, ``scipy.special.gammaln``'s floats, element
    by element: a float for a scalar x, else an array of x's shape.  From
    13 on, Stirling's series runs on the whole array at once."""
    xs = np.asarray(x, dtype=float)
    flat = np.ravel(xs)
    if not (flat > 0.0).all():
        raise ValueError(f"lgam is ported for x > 0, got {flat[~(flat > 0.0)][0]}")
    out = np.empty(flat.size)
    small = flat < 13.0
    out[small] = [_lgam_below_13(v) for v in flat[small].tolist()]
    big = flat[~small]
    with np.errstate(over="ignore", invalid="ignore"):  # x past 1e8: the series is not added
        q = (big - 0.5) * _libm(math.log, big) - big + _LS2PI
        p = 1.0 / (big * big)
        wide = q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / big
        series = np.where(big >= 1000.0, wide, q + _polevl(p, _STIRLING) / big)
    out[~small] = np.where(big > _MAXLGM, math.inf, np.where(big > 1.0e8, q, series))
    return out.reshape(xs.shape) if xs.ndim else float(out[0])


# scipy.special.zeta(n, 1) for n = 2 .. 41, the Taylor coefficients of
# lgamma(1 + x); the Hurwitz floats, which differ from zeta(n) in the last bit
# at some n
_ZETA = (
    1.6449340668482266, 1.202056903159594, 1.0823232337111381, 1.0369277551433704,
    1.0173430619844488, 1.008349277381923, 1.0040773561979446, 1.0020083928260826,
    1.0009945751278182, 1.0004941886041194, 1.0002460865533078, 1.0001227133475785,
    1.0000612481350586, 1.0000305882363072, 1.0000152822594084, 1.0000076371976376,
    1.000003817293265, 1.0000019082127163, 1.0000009539620338, 1.0000004769329867,
    1.0000002384505027, 1.000000119219926, 1.000000059608189, 1.0000000298035034,
    1.0000000149015549, 1.0000000074507118, 1.000000003725334, 1.0000000018626598,
    1.0000000009313275, 1.0000000004656628, 1.000000000232831, 1.0000000001164155,
    1.0000000000582077, 1.0000000000291038, 1.000000000014552, 1.000000000007276,
    1.000000000003638, 1.000000000001819, 1.0000000000009095, 1.0000000000004547,
)
_EULER = 0.577215664901532860606512090082402431


def _lgam1p_taylor(x: float) -> float:
    if x == 0.0:
        return 0.0
    res, xfac = -_EULER * x, -x
    for zeta_n, n in zip(_ZETA, range(2, 42)):
        xfac *= -x
        coeff = zeta_n * xfac / n
        res += coeff
        if abs(coeff) < _MACHEP * abs(res):
            break
    return res


def _lgam1p(x: float) -> float:
    """log Gamma(1 + x) (cephes unity.c)."""
    if abs(x) <= 0.5:
        return _lgam1p_taylor(x)
    if abs(x - 1.0) < 0.5:
        return math.log(x) + _lgam1p_taylor(x - 1.0)
    return lgam(x + 1.0)


_EXPM1_P = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2, 9.9999999999999999991025e-1)
_EXPM1_Q = (
    3.0019850513866445504159e-6,
    2.5244834034968410419224e-3,
    2.2726554820815502876593e-1,
    2.0000000000000000000897e0,
)


def _expm1(x: np.ndarray) -> np.ndarray:
    """e^x - 1, cephes' rational form on [-0.5, 0.5]: the C library's expm1
    rounds differently there."""
    out = np.empty(x.size)
    wide = (x < -0.5) | (x > 0.5)
    out[wide] = _libm(math.exp, x[wide]) - 1.0
    v = x[~wide]
    xx = v * v
    r = v * _polevl(xx, _EXPM1_P)
    r = r / (_polevl(xx, _EXPM1_Q) - r)
    out[~wide] = r + r
    return out


# ---------------------------------------------------------------------------
# the incomplete gamma functions (cephes igam.c)

_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222,
    0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208,
    449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526,
    75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507,
    3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571,
    43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342,
    103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DEN = (
    1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0,
    45995730.0, 105258076.0, 150917976.0, 120543840.0, 39916800.0, 0.0,
)


def _lanczos_sum_expg_scaled(a: float) -> float:
    """cephes' ratevl of the Lanczos sum: in 1/a past |a| = 1 (numerator and
    denominator have the same degree, so no power of a is left over)."""
    if abs(a) > 1.0:
        y = 1.0 / a
        return _polevl(y, _LANCZOS_NUM[::-1]) / _polevl(y, _LANCZOS_DEN[::-1])
    return _polevl(a, _LANCZOS_NUM) / _polevl(a, _LANCZOS_DEN)


def _fac(a: float, x: np.ndarray) -> np.ndarray:
    """x^a e^-x / Gamma(a) at each x (cephes igam_fac): through log Gamma
    away from x = a, through the Lanczos sum near it.  There x <= 1.4 a <=
    28, inside cephes' pow branch (a < 200 and x < 200)."""
    out = np.zeros(x.size)
    far = np.abs(a - x) > 0.4 * abs(a)
    ax = a * _libm(math.log, x[far]) - x[far] - lgam(a)
    live = ~(ax < -_MAXLOG)  # e^ax underflows: 0
    out[np.flatnonzero(far)[live]] = _libm(math.exp, ax[live])
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.e) / _lanczos_sum_expg_scaled(a)
    near = x[~far]
    out[~far] = res * (_libm(math.exp, a - near) * _pow(near / fac, a))
    return out


def _p_series(a: float, x: np.ndarray) -> np.ndarray:
    """P(a, x) by its power series (cephes igam_series)."""
    ax = _fac(a, x)
    out = np.zeros(x.size)
    live = np.flatnonzero(ax != 0.0)
    xs, c, ans, r = x[live], np.ones(live.size), np.ones(live.size), a
    for _ in range(_MAXITER if live.size else 0):
        r += 1.0
        c = c * (xs / r)
        ans = ans + c
        done = c <= _MACHEP * ans
        if done.any():
            out[live[done]] = ans[done] * ax[live[done]] / a
            keep = ~done
            live, xs, c, ans = live[keep], xs[keep], c[keep], ans[keep]
            if live.size == 0:
                break
    out[live] = ans * ax[live] / a
    return out


def _q_series(a: float, x: np.ndarray) -> np.ndarray:
    """Q(a, x) by the series of DLMF 8.7.3 (cephes igamc_series)."""
    total = np.zeros(x.size)
    live = np.arange(x.size)
    xs, fac, sums = x, np.ones(x.size), np.zeros(x.size)
    for n in range(1, _MAXITER if x.size else 1):
        fac = fac * (-xs / n)
        term = fac / (a + n)
        sums = sums + term
        done = np.abs(term) <= _MACHEP * np.abs(sums)
        if done.any():
            total[live[done]] = sums[done]
            keep = ~done
            live, xs, fac, sums = live[keep], xs[keep], fac[keep], sums[keep]
            if live.size == 0:
                break
    total[live] = sums
    logx = _libm(math.log, x)
    term = -_expm1(a * logx - _lgam1p(a))
    return term - _libm(math.exp, a * logx - lgam(a)) * total


def _q_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """Q(a, x) by the continued fraction of DLMF 8.9.2 (cephes
    igamc_continued_fraction): ``_fraction`` times x^a e^-x / Gamma(a)."""
    ax = _fac(a, x)
    out = np.zeros(x.size)
    live = np.flatnonzero(ax != 0.0)
    out[live] = _fraction(a, x[live]) * ax[live]
    return out


def _fraction(a: float, xs: np.ndarray) -> np.ndarray:
    """Gamma(a, x) / (x^a e^-x) at each x > 0: the continued fraction of
    DLMF 8.9.2, valid for every real a, as cephes'
    igamc_continued_fraction runs it.  Points that have stopped ride along
    until half the live ones have: dropping them at every term costs more
    than their arithmetic.  cephes scales the four recurrence terms by
    2^-52 whenever |pk| > 2^52; here they are scaled by 2^-512 every 8
    terms once they pass 2^512.  Scaling by a power of two is exact while
    the terms stay normal, so every convergent pk / qk, and every bit of
    the result, is the same."""
    out = np.zeros(xs.size)
    live = np.arange(xs.size)
    y, c = 1.0 - a, 0.0
    z = xs + y + 1.0
    pkm2, qkm2, pkm1, qkm1 = np.ones(xs.size), xs.copy(), xs + 1.0, z * xs
    ans = pkm1 / qkm1
    pending = np.ones(xs.size, dtype=bool)
    with np.errstate(all="ignore"):  # r = 0 or qk = 0 as in C, and stopped points
        for k in range(_MAXITER if live.size else 0):
            c += 1.0
            y += 1.0
            z += 2.0
            yc = y * c
            pkm2 *= yc  # pk = pkm1 z - pkm2 yc, in place where no one else reads
            pk = pkm1 * z
            pk -= pkm2
            qkm2 *= yc
            qk = qkm1 * z
            qk -= qkm2
            r = pk / qk
            t = np.abs((ans - r) / r)
            if not qk.all():
                zero = qk == 0.0
                r[zero], t[zero] = ans[zero], 1.0
            ans = r
            pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
            if k % 8 == 7:  # 8 terms grow far less than from 2^512 to the float limit
                big = (np.abs(pk) > _BIG) | (np.abs(qk) > _BIG)
                if big.any():
                    for v in (pkm2, pkm1, qkm2, qkm1):
                        v[big] *= _BIGINV
            done = (t <= _MACHEP) & pending
            if done.any():
                out[live[done]] = ans[done]
                pending &= ~done
                left = np.count_nonzero(pending)
                if left == 0:
                    break
                if 2 * left <= pending.size:
                    live, z, ans, pkm2, pkm1, qkm2, qkm1 = (
                        v[pending] for v in (live, z, ans, pkm2, pkm1, qkm2, qkm1)
                    )
                    pending = np.ones(left, dtype=bool)
    out[live[pending]] = ans[pending]
    return out


def _temme(a: float, x: np.ndarray, upper: bool) -> np.ndarray:
    """scipy's value where cephes may take Temme's expansion, which is not
    ported; no verdict of the builtin suites reaches it."""
    from scipy.special import gammainc, gammaincc

    return (gammaincc if upper else gammainc)(a, x)


def _pq(a: float, x: np.ndarray, upper: bool) -> np.ndarray:
    """Q(a, x) if ``upper`` else P(a, x) at each entry of the 1-d x, by
    cephes' choice of method (igamc, igam)."""
    out = np.full(x.size, math.nan)  # x < 0 or NaN
    out[x == 0.0] = 1.0 if upper else 0.0
    out[x == math.inf] = 0.0 if upper else 1.0
    rest = np.flatnonzero((x > 0.0) & (x < math.inf))
    if a > _TEMME_A:
        temme = np.abs(x[rest] - a) <= 0.4 * a
        out[rest[temme]] = _temme(a, x[rest[temme]], upper)
        rest = rest[~temme]
    xs = x[rest]
    if upper:
        complement = np.where(xs > 1.1, xs < a, xs * 1.1 < a)
        low = xs <= 0.5
        complement[low] = -0.4 / _libm(math.log, xs[low]) < a
        fraction = ~complement & (xs > 1.1)
        out[rest[complement]] = 1.0 - _p_series(a, xs[complement])
        out[rest[fraction]] = _q_fraction(a, xs[fraction])
        series = ~complement & ~fraction
        out[rest[series]] = _q_series(a, xs[series])
    else:
        # for a <= 1 and x >= 40, Q(a, x) = Gamma(a, x) / Gamma(a) <= x^(a-1)
        # e^-x <= e^-40 < 2^-57, so cephes' 1 - Q rounds to 1
        one = (xs >= 40.0) & (a <= 1.0)
        complement = (xs > 1.0) & (xs > a) & ~one
        out[rest[one]] = 1.0
        out[rest[complement]] = 1.0 - _pq(a, xs[complement], upper=True)
        series = ~complement & ~one
        out[rest[series]] = _p_series(a, xs[series])
    return out


def _elementwise(a: float, x, upper: bool):
    if not 0.0 < a < math.inf:
        raise ValueError(f"the incomplete gamma functions are ported for 0 < a < inf, got {a}")
    xs = np.asarray(x, dtype=float)
    out = _pq(float(a), np.ravel(xs), upper)
    return out.reshape(xs.shape) if xs.ndim else float(out[0])


def igam(a: float, x):
    """P(a, x) = gamma(a, x) / Gamma(a), ``scipy.special.gammainc``'s floats;
    a float for a scalar x, else an array of x's shape."""
    return _elementwise(a, x, upper=False)


def igamc(a: float, x):
    """Q(a, x) = 1 - P(a, x), ``scipy.special.gammaincc``'s floats."""
    return _elementwise(a, x, upper=True)


def chdtrc(df: float, x):
    """P(chi-square with df degrees of freedom > x) = Q(df / 2, x / 2),
    ``scipy.special.chdtrc``'s floats (NaN for x < 0, as there)."""
    return igamc(df / 2.0, np.asarray(x, dtype=float) / 2.0)


def upper_gamma(a: float, x: float) -> float:
    """Gamma(a, x) = int_x^inf t^(a-1) e^-t dt for every real a and x > 0.

    * a > 3/4 where x <= 1 or x < a: Gamma(a) Q(a, x), where the continued
      fraction converges slowly;
    * elsewhere past x = 1: x^a e^-x times the continued fraction of
      DLMF 8.9.2, valid for every real a;
    * x <= 1 and a < -1/4: the recurrence Gamma(a, x) = (Gamma(a + 1, x) -
      x^a e^-x) / a (DLMF 8.8.2) from a + m in (-1/4, 3/4], where each
      division is by |a + j| >= 1/4 and x^a e^-x dominates the difference;
    * x <= 1 and -1/4 <= a <= 3/4: DLMF 8.7.3,

          Gamma(a, x) = (Gamma(1 + a) - x^a) / a - x^a sum_{n >= 1} (-x)^n / (n! (a + n)),

      its first term as -Gamma(1 + a) expm1(a log x - log Gamma(1 + a)) / a,
      which does not cancel near a = 0, and as -gamma - log x at
      |a| < 1e-15 (E1's series, DLMF 6.6.2), within about |a| (log x)^2 / 2
      of the true value there: 1.4e-14 relative at x = 1e-12.  log Gamma(1
      + a) is cephes' Taylor series up to a = 1/4 and ``lgam(1 + a)`` past
      it: the series stops at its 41st term, 1e-14 short of the sum near
      |a| = 1/2.

    +inf where x^a e^-x or Gamma(a) passes the float range: Gamma(a, x) is
    then past it, or within a factor x or 4 |a| of it.
    """
    if not (0.0 < x < math.inf and math.isfinite(a)):
        raise ValueError(f"upper_gamma needs a finite a and 0 < x < inf, got a = {a}, x = {x}")
    a, x = float(a), float(x)
    logx = math.log(x)
    if a > 0.75 and (x <= 1.0 or x < a):
        log_gamma = lgam(a)  # past _MAXLOG (a > 171), x < a and Q(a, x) is about 1/2 or more
        return math.exp(log_gamma) * igamc(a, x) if log_gamma <= _MAXLOG else math.inf
    if x > 1.0:
        power = a * logx - x
        return math.exp(power) * float(_fraction(a, np.array([x]))[0]) if power <= _MAXLOG else math.inf
    if a < -0.25:
        m = math.floor(0.75 - a)
        value = upper_gamma(a + m, x)
        for j in range(m - 1, -1, -1):
            aj = a + j  # exact: |a + j| <= |a|
            power = aj * logx - x
            if power > _MAXLOG:
                return math.inf
            value = (value - math.exp(power)) / aj
        return value
    term, total, n = 1.0, 0.0, 0
    while True:
        n += 1
        term *= -x / n
        add = term / (a + n)
        total += add
        if abs(add) <= _MACHEP * abs(total):
            break
    if abs(a) < 1e-15:
        head = -_EULER - logx
    else:
        lg1p = lgam(1.0 + a) if a > 0.25 else _lgam1p(a)
        head = -math.exp(lg1p) * math.expm1(a * logx - lg1p) / a
    return head - math.exp(a * logx) * total
