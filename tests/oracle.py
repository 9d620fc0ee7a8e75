"""Oracles of the tests: routes to exact quantities that the package itself
does not take, kept out of the runtime.

* ``brute_force_partition_law``: the laws of (N_n, size multiset) by
  summation over all set partitions of {0..n-1}, n <= 9.
* ``calibration_at``: the calibration of (scheme, n) at a caller's rho,
  from ``law_X``, ``law_N`` and ``_ell_cap``; the package calibrates only
  at the default rho.
* ``prefix_oracle``: P(S_N = n), the prefix Green vectors G_1 and G_2 and
  the prefix laws' TVs to the i.i.d. products, from the calibration's
  P(X = .) and P(N = .) in ``np.longdouble``.  Each row P(S_l = .) is
  stepped one by one with ``np.convolve`` and P(S_N = n) is the column sum
  over l, not a read of a Green vector.  Callers skip unless
  ``LONGDOUBLE_OK`` (80-bit or wider: x86-64 has it; on some platforms
  ``longdouble`` is a plain double).
* ``convolution_table``: the rows P(S_l = .) of ``exact._write_rows``, the
  writer of the harvest's and the samplers' rows, as one table.
* ``stable_density_inversion``: the stable density by QUADPACK on the
  inversion integral that ``laws._inversion_grid`` takes on a fixed grid.
* ``dilute_Z_moment``: E[Z^r] of the dilute limit variable in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from gibbs_partitions.exact import (
    BudgetExceededError,
    DiscreteLaw,
    _calibrate,
    _Calibration,
    _ell_cap,
    _write_rows,
    law_N,
    law_X,
)
from gibbs_partitions.laws import DiluteParams, StableParams, _inversion_setup
from gibbs_partitions.weights import SchemeSpec

LONGDOUBLE_OK = np.finfo(np.longdouble).nmant >= 63


def _set_partitions(n: int):
    """Yield block-size tuples of all set partitions of {0..n-1}.

    Enumerates restricted growth strings so every set partition appears
    exactly once (sizes repeat across different partitions, as they must).
    """
    sizes = [0] * n

    def rec(i: int, k: int):
        if i == n:
            yield tuple(sizes[:k])
            return
        for j in range(k):
            sizes[j] += 1
            yield from rec(i + 1, k)
            sizes[j] -= 1
        sizes[k] = 1
        yield from rec(i + 1, k + 1)
        sizes[k] = 0

    yield from rec(0, 0)


def brute_force_partition_law(scheme: SchemeSpec, n: int):
    """Exact laws of (N_n, size multiset) by summation over set partitions.

    Returns (law of N_n, dict mapping sorted size tuples to probabilities,
    partition function u_n).  Refuses n > 9 (enumeration cost) and w_0 > 0
    (set-partition components are nonempty; the conditioned-sum law is the
    model's semantics in that case).
    """
    if n > 9:
        raise BudgetExceededError("brute force enumeration limited to n <= 9")
    if n < 1:
        raise ValueError("n must be >= 1")
    if scheme.w.term(0) != 0.0:
        raise ValueError("brute force oracle requires w_0 = 0")
    v_cache = [scheme.v.term(k) for k in range(n + 1)]
    w_cache = [scheme.w.term(k) for k in range(n + 1)]
    fact = [math.factorial(k) for k in range(n + 1)]
    count_weight = np.zeros(n + 1)
    multiset_weight: dict[tuple[int, ...], float] = {}
    total = 0.0
    for sizes in _set_partitions(n):
        k = len(sizes)
        u = fact[k] * v_cache[k]
        if u == 0.0:
            continue
        for s in sizes:
            u *= fact[s] * w_cache[s]
            if u == 0.0:
                break
        if u == 0.0:
            continue
        total += u
        count_weight[k] += u
        key = tuple(sorted(sizes, reverse=True))
        multiset_weight[key] = multiset_weight.get(key, 0.0) + u
    if total <= 0.0:
        raise ValueError(f"partition function vanishes at n={n}")
    u_n = total / fact[n]
    law_n = DiscreteLaw(count_weight / total, 1.0)
    multiset_law = {key: val / total for key, val in sorted(multiset_weight.items())}
    return law_n, multiset_law, u_n


def calibration_at(scheme: SchemeSpec, n: int, rho: float) -> _Calibration:
    """``_calibrate(scheme, n)``'s fields at ``rho``: W(rho), V(W(rho)),
    ``law_X(scheme, rho, n)``, the l cap of ``_ell_cap`` and
    ``law_N(scheme, rho, cap)``'s pmf."""
    W = scheme.w.series_value(rho)
    lx = law_X(scheme, rho, n)
    cap = _ell_cap(n, lx)
    return _Calibration(rho, W, scheme.v.series_value(W), lx, cap, law_N(scheme, rho, cap).pmf)


@dataclass(frozen=True)
class PrefixOracle:
    """``prefix_oracle``'s quantities, all ``np.longdouble``."""

    stopped_at_n: np.longdouble  # P(S_N = n)
    g1: np.ndarray  # G_1[x] = sum_{l >= 1} P(N = l) P(S_(l-1) = x)
    g2: np.ndarray  # G_2[x] = sum_{l >= 2} P(N = l) P(S_(l-2) = x)
    tv1: np.longdouble  # prefix law m = 1 to P(X = .)
    tv2: np.longdouble  # prefix law m = 2 to P(X = .) x P(X = .)


def prefix_oracle(scheme: SchemeSpec, n: int) -> PrefixOracle:
    """The prefix quantities of (scheme, n) in ``np.longdouble`` from the
    calibration's P(X = .) and P(N = .), rows l = 0..cap stepped by
    ``np.convolve``.  The TVs carry the calibration's deficit of P(X = .)
    as the package's do: d for m = 1 and d (2 - d) for m = 2."""
    ld = np.longdouble
    cal = _calibrate(scheme, n)
    px = cal.law_x.pmf.astype(ld)
    pmf_n = cal.pmf_n.astype(ld)
    d = ld(cal.law_x.deficit)
    row = np.zeros(n + 1, dtype=ld)
    row[0] = 1
    column = np.zeros(cal.cap + 1, dtype=ld)
    g1 = np.zeros(n + 1, dtype=ld)
    g2 = np.zeros(n + 1, dtype=ld)
    for l in range(cal.cap + 1):
        if l:
            row = np.convolve(row, px)[: n + 1]
        column[l] = row[n]
        if l + 1 <= cal.cap:
            g1 += pmf_n[l + 1] * row
        if l + 2 <= cal.cap:
            g2 += pmf_n[l + 2] * row
    denom = np.sum(pmf_n * column)
    joint1 = px * g1[::-1] / denom
    tv1 = (np.sum(np.abs(joint1 - px)) + d) / 2
    k = np.arange(n + 1)
    padded = np.concatenate([g2[::-1], np.zeros(n, dtype=ld)])
    hankel = padded[k[:, None] + k[None, :]]  # G_2[n - k1 - k2], 0 past k1 + k2 = n
    product = px[:, None] * px[None, :]
    tv2 = (np.sum(np.abs(product * hankel / denom - product)) + d * (2 - d)) / 2
    return PrefixOracle(denom, g1, g2, tv1, tv2)


def convolution_table(
    law_x: DiscreteLaw, ell_max: int, n: int, method: str = "auto"
) -> np.ndarray:
    """Iterated convolution table of a component-size law: rows P(S_l = m)
    for l = 0..ell_max, m = 0..n."""
    if (ell_max + 1) * (n + 1) > 400_000_000:
        raise BudgetExceededError("convolution table too large")
    rows = np.empty((ell_max + 1, n + 1))
    _write_rows(rows, 0, ell_max, law_x.pmf[: n + 1], ell_max, method)
    return rows


def stable_density_inversion(p: StableParams, x: float) -> float:
    """Density by Fourier inversion of the characteristic function.

    f(x) = (1/pi) Int_0^inf exp(-(gamma t)^alpha)
           cos(gamma^alpha beta tan(pi alpha/2) t^alpha + (delta - x) t) dt.

    For large |delta - x| the linear phase is split off and handled by
    oscillatory-weight quadrature (the envelope and the t^alpha phase are
    slowly varying).  Requires alpha > 0.3: below that the envelope decays
    too slowly for reliable truncation.
    """
    from scipy.integrate import IntegrationWarning, quad

    a, g, d = p.alpha, p.gamma, p.delta
    if a <= 0.3:
        raise ValueError("inversion supported for alpha > 0.3")
    if a == 1.0:
        raise ValueError("alpha = 1 limit laws are out of scope")
    tan_term, t_max = _inversion_setup(p)
    shift = d - x

    # QUADPACK's round-off warning is not a failure here: convergence is
    # judged by the err > 1e-6 guard below, which raises
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if abs(shift) * t_max <= 60.0:
            val, err = quad(
                lambda t: math.exp(-((g * t) ** a)) * math.cos(tan_term * t**a + shift * t),
                0.0,
                t_max,
                limit=2000,
                epsabs=1e-12,
                epsrel=1e-10,
            )
        else:
            # cos(A t^a + B t) = cos(A t^a) cos(B t) - sin(A t^a) sin(B t)
            vc, ec = quad(
                lambda t: math.exp(-((g * t) ** a)) * math.cos(tan_term * t**a),
                0.0,
                t_max,
                weight="cos",
                wvar=shift,
                limit=800,
                maxp1=120,
                epsabs=1e-12,
                epsrel=1e-10,
            )
            vs, es = quad(
                lambda t: math.exp(-((g * t) ** a)) * math.sin(tan_term * t**a),
                0.0,
                t_max,
                weight="sin",
                wvar=shift,
                limit=800,
                maxp1=120,
                epsabs=1e-12,
                epsrel=1e-10,
            )
            val, err = vc - vs, ec + es
    if err > 1e-6:
        raise RuntimeError(f"inversion quadrature failed to converge (err={err})")
    return max(val / math.pi, 0.0)


def dilute_Z_moment(p: DiluteParams, r: float) -> float:
    """E[Z^r] = lambda^-r Gamma(2-b+r) Gamma(1-alpha(b-1)) /
    (Gamma(2-b) Gamma(1-alpha(b-r-1))); defined for r > b - 2."""
    a, b, lam = p.alpha, p.b, p.lam
    if r <= b - 2.0:
        raise ValueError(f"E[Z^r] diverges for r <= b - 2 (r={r})")
    for arg in (2.0 - b + r, 1.0 - a * (b - 1.0), 2.0 - b, 1.0 - a * (b - r - 1.0)):
        if arg <= 0 and abs(arg - round(arg)) < 1e-12:
            raise ValueError("moment formula hits a gamma pole")
    return (
        lam ** (-r)
        * math.gamma(2.0 - b + r)
        * math.gamma(1.0 - a * (b - 1.0))
        / (math.gamma(2.0 - b) * math.gamma(1.0 - a * (b - r - 1.0)))
    )
