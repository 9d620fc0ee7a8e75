"""Closed-form limit laws: stable densities, extreme-value laws, dilute
limit variables, and the component-size point process.

Stable densities come in two dual routes that cross-validate each other:

* convergent power series (exact but numerically unstable in known
  regimes: large arguments for the 1 < alpha < 2 series, small arguments
  for the 0 < alpha < 1 series), with a cancellation monitor;
* Fourier inversion by adaptive quadrature (stable exactly where the
  series cancels badly).

``stable_density_series`` switches to the inversion automatically when the
running maximum term exceeds 1e6 times the partial sum.

Scale conventions: the spectrally positive normalization used throughout
has Laplace transform exp(-lambda t^alpha) with lambda = gamma^alpha /
cos(pi alpha / 2) for 0 < alpha < 1, and exp(+t^alpha) at the scale
gamma = (-cos(pi alpha / 2))^(1/alpha) for 1 < alpha <= 2.  Gamma-function
values are evaluated through log-gamma with explicit sign tracking since
Gamma(1 - alpha) < 0 for 1 < alpha < 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc, gammaln

from .series import dot, fsum

__all__ = [
    "StableParams",
    "DiluteParams",
    "stable_cf",
    "stable_density_series",
    "stable_density_inversion",
    "stable_moment",
    "dilute_Z_density",
    "dilute_Z_cdf",
    "dilute_Z_moment",
    "FrechetJLaw",
    "frechet_law",
    "gumbel_cdf",
    "pp_intensity",
    "pp_factorial_moment",
]

_SERIES_MAX_TERMS = 600
_CANCELLATION_LIMIT = 1e6


@dataclass(frozen=True)
class StableParams:
    """Parameters of the stable family S_alpha(gamma, beta, delta)."""

    alpha: float
    gamma: float = 1.0
    beta: float = 0.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [-1, 1], got {self.beta}")


def stable_cf(p: StableParams, t: float) -> complex:
    """Characteristic function, both the generic and the alpha = 1 branch."""
    if t == 0.0:
        return 1.0 + 0.0j
    a, g, b, d = p.alpha, p.gamma, p.beta, p.delta
    if a != 1.0:
        expo = -(g**a) * abs(t) ** a * (
            1.0 - 1j * b * math.copysign(1.0, t) * math.tan(math.pi * a / 2.0)
        )
        return complex(np.exp(expo + 1j * d * t))
    expo = -g * abs(t) * (
        1.0 + 1j * b * math.copysign(1.0, t) * (2.0 / math.pi) * math.log(abs(t))
    )
    return complex(np.exp(expo + 1j * d * t))


# ---------------------------------------------------------------------------
# series representations (standardized scales)


def _dense_series_std(alpha: float, x: float) -> tuple[float, bool]:
    """Density of the spectrally negative stable law with Laplace-dual
    normalization (the gamma for which exp(t^alpha) holds), 1 < alpha < 2.

    Returns (value, trustworthy); the flag drops when cancellation exceeds
    the monitor threshold or a term overflows.
    """
    if x == 0.0:
        return math.gamma(1.0 + 1.0 / alpha) * math.sin(math.pi / alpha) / math.pi, True
    ax = abs(x)
    log_ax = math.log(ax)
    total = 0.0
    max_abs = 0.0
    small_streak = 0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        s = math.sin(-k * math.pi / alpha)
        if s == 0.0:
            continue
        log_mag = gammaln(k / alpha + 1.0) - gammaln(k + 1.0) + k * log_ax
        if log_mag > 700.0:
            return total / (math.pi * x), False
        mag = math.exp(log_mag)
        term = mag * s * ((-1.0) ** k if x > 0 else 1.0)
        mag = abs(term)
        total += term
        max_abs = max(max_abs, mag)
        if mag < 1e-15 * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
    value = total / (math.pi * x)
    ok = max_abs <= _CANCELLATION_LIMIT * max(abs(total), 1e-300) and small_streak >= 3
    return max(value, 0.0), ok


def _positive_series_std(alpha: float, x: float) -> tuple[float, bool]:
    """Density of the spectrally positive stable law normalized to Laplace
    transform exp(-t^alpha), 0 < alpha < 1; support (0, inf)."""
    if x <= 0.0:
        return 0.0, True
    log_x = math.log(x)
    total = 0.0
    max_abs = 0.0
    small_streak = 0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        s = math.sin(-alpha * k * math.pi)
        if s == 0.0:
            continue
        log_mag = gammaln(k * alpha + 1.0) - gammaln(k + 1.0) - alpha * k * log_x
        if log_mag > 700.0:
            return total / (math.pi * x), False
        mag = math.exp(log_mag)
        term = mag * s * ((-1.0) ** k)
        mag = abs(term)
        total += term
        max_abs = max(max_abs, mag)
        if mag < 1e-15 * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
    value = total / (math.pi * x)
    ok = max_abs <= _CANCELLATION_LIMIT * max(abs(total), 1e-300) and small_streak >= 3
    return max(value, 0.0), ok


def _gaussian_density(p: StableParams, x: float) -> float:
    # alpha = 2: S_2(gamma, ., delta) is Gaussian with variance 2 gamma^2.
    z = x - p.delta
    return math.exp(-(z * z) / (4.0 * p.gamma**2)) / (2.0 * p.gamma * math.sqrt(math.pi))


def stable_density_series(p: StableParams, x: float) -> float:
    """Stable density via the convergent series, inversion as fallback.

    Supports alpha = 2 (closed form), and beta = +/-1 for alpha in
    (0, 1) or (1, 2); densities vanish on the unsupported side of the
    one-sided laws.
    """
    a = p.alpha
    if a == 2.0:
        return _gaussian_density(p, x)
    if a == 1.0 or abs(p.beta) != 1.0:
        raise ValueError("series densities implemented for beta = +/-1, alpha != 1")
    z = x - p.delta
    if 1.0 < a < 2.0:
        gamma0 = (-math.cos(math.pi * a / 2.0)) ** (1.0 / a)
        s = gamma0 / p.gamma
        arg = s * z if p.beta == -1.0 else -s * z
        val, ok = _dense_series_std(a, arg)
        if not ok:
            return stable_density_inversion(p, x)
        return s * val
    # 0 < alpha < 1: one-sided
    lam = p.gamma**a / math.cos(math.pi * a / 2.0)
    s = lam ** (-1.0 / a)
    arg = s * z if p.beta == 1.0 else -s * z
    if arg <= 0.0:
        return 0.0
    val, ok = _positive_series_std(a, arg)
    if not ok:
        return stable_density_inversion(p, x)
    return s * val


def stable_density_inversion(p: StableParams, x: float) -> float:
    """Density by Fourier inversion of the characteristic function.

    f(x) = (1/pi) Int_0^inf exp(-(gamma t)^alpha)
           cos(gamma^alpha beta tan(pi alpha/2) t^alpha + (delta - x) t) dt.

    For large |delta - x| the linear phase is split off and handled by
    oscillatory-weight quadrature (the envelope and the t^alpha phase are
    slowly varying).  Requires alpha > 0.3: below that the envelope decays
    too slowly for reliable truncation.
    """
    a, g, b, d = p.alpha, p.gamma, p.beta, p.delta
    if a <= 0.3:
        raise ValueError("inversion supported for alpha > 0.3")
    if a == 1.0:
        raise ValueError("alpha = 1 limit laws are out of scope")
    tan_term = math.tan(math.pi * a / 2.0) * (g**a) * b
    shift = d - x
    t_max = 45.0 ** (1.0 / a) / g

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


def stable_moment(alpha: float, lam: float, s: float) -> float:
    """Fractional moment E[X^s] of the one-sided stable law with Laplace
    transform exp(-lambda t^alpha): lambda^(s/alpha) Gamma(1 - s/alpha) /
    Gamma(1 - s).  Real s < alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("moment formula applies for alpha in (0, 1)")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if s >= alpha:
        raise ValueError(f"moment E[X^s] diverges for s >= alpha (s={s})")
    for pole in (1.0 - s / alpha, 1.0 - s):
        if pole <= 0 and abs(pole - round(pole)) < 1e-12:
            raise ValueError("moment formula hits a gamma pole")
    return lam ** (s / alpha) * math.gamma(1.0 - s / alpha) / math.gamma(1.0 - s)


# ---------------------------------------------------------------------------
# dilute limit variable Z


@dataclass(frozen=True)
class DiluteParams:
    """Constants of the dilute limit: index alpha in (0,1), outer exponent
    b in (1,2), and rate lambda = c_w Gamma(1-alpha) / (W(rho_w) alpha)."""

    alpha: float
    b: float
    lam: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 1.0 < self.b < 2.0:
            raise ValueError(f"b must lie in (1, 2), got {self.b}")
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")


# Kanter (1975, Ann. Probab. 3(4)): the one-sided stable law is
# (A(U)/E)^((1-alpha)/alpha), U uniform on (0, pi), E ~ Exp(1), with
# A(u) = sin(alpha u)^(alpha/(1-alpha)) sin((1-alpha) u) / sin(u)^(1/(1-alpha)).
# Size-biased by X^(alpha(b-1)), Z = lam^-1 (E/A(U))^(1-alpha) with U of density
# proportional to A^q, q = (b-1)(1-alpha), and E ~ Gamma(1-q) independent of U:
# P(Z <= x | U) = P(1-q, A t), t = (lam x)^(1/(1-alpha)), P regularized.
_KANTER_NODES = 400  # Gauss-Legendre nodes in u; tests/test_laws.py bounds the error
_GAMMA_STEP = 0.125  # trapezoid step in tau for E ~ Gamma(1-q)
_SERIES_EDGE = 1.0  # lam x at or below which the convergent series is summed
# exp element by element from the C library: numpy's vector exp rounds
# differently on different SIMD levels
_exp = np.vectorize(math.exp, otypes=[float])


@functools.lru_cache(maxsize=16)
def _u_grid(alpha: float, b: float) -> tuple[tuple, tuple]:
    """log A at the u nodes and the log weights of U, which sum to 1.

    u = pi - v, v = pi w^k, k = 1/(2-b): A^q ~ v^(1-b) as v -> 0, so A^q du is
    regular in w.  Past b = 1.95 the mass of U crowds into v -> 0, where A t is
    astronomically large, and all the change in the integrands sits in
    w > e^(-20/k) (v > pi e^-20): that panel gets its own nodes.  The
    Gauss-Legendre nodes and weights come by Newton's method on the three-term
    recurrence (3 of the 8 steps reach round-off) with numpy arithmetic and
    libm only: no eigensolver, no BLAS.  sin(u) is evaluated as
    sin(min(u, v)), accurate at both ends, and as v once v underflows.
    """
    n, k, q = _KANTER_NODES, 1.0 / (2.0 - b), (b - 1.0) * (1.0 - alpha)
    x = np.array([math.cos(math.pi * (i + 0.75) / (n + 0.5)) for i in range(n)])
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
        x = x - p1 / dp
    cuts = (0.0, 1.0) if k <= 20.0 else (0.0, math.exp(-20.0 / k), 1.0)
    nodes = [
        (lo + (hi - lo) * w, (hi - lo) * c)
        for lo, hi in zip(cuts, cuts[1:])
        for w, c in zip(((1.0 - x) / 2.0).tolist(), (1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)).tolist())
    ]
    log_a, log_w = [], []
    for w, c in nodes:
        u, v = math.pi - math.pi * w**k, math.pi * w**k
        log_sin = math.log(math.sin(min(u, v))) if v > 1e-300 else math.log(math.pi) + k * math.log(w)
        log_a.append(
            alpha / (1.0 - alpha) * math.log(math.sin(alpha * u))
            + math.log(math.sin((1.0 - alpha) * u))
            - log_sin / (1.0 - alpha)
        )
        log_w.append(math.log(c * math.pi * k) + (k - 1.0) * math.log(w) + q * log_a[-1])
    top = max(log_w)
    norm = top + math.log(fsum(_exp(np.array(log_w) - top)))
    return tuple(log_a), tuple(lw - norm for lw in log_w)  # tuples: the cache is shared


def _dilute_density_series(p: DiluteParams, z: float) -> float:
    """f of Z at x = z / lam <= 1 / lam from the convergent series of the
    one-sided stable density g with Laplace transform exp(-t^alpha):
    f = lam K pi z^(-b-1/alpha) g(z^(-1/alpha)), K = Gamma(1 - alpha(b-1)) /
    (alpha pi Gamma(2-b)).  Near z = 1 the series has not converged from
    alpha = 0.99 on; g then falls back to inversion."""
    a, b = p.alpha, p.b
    scale = math.gamma(1.0 - a * (b - 1.0)) / (a * math.pi * math.gamma(2.0 - b))
    y = z ** (-1.0 / a)
    g, ok = _positive_series_std(a, y)
    if not ok:
        g = stable_density_inversion(StableParams(a, math.cos(math.pi * a / 2.0) ** (1.0 / a), 1.0), y)
    return p.lam * scale * math.pi * z ** (-b - 1.0 / a) * g


def _dilute_cdf_series(p: DiluteParams, z: float) -> float:
    """F of Z at x = z / lam <= 1 / lam, the density series integrated term by
    term: F = K sum_k c_k z^(k+1-b) / (k+1-b), c_k = (-1)^(k+1)
    Gamma(alpha k + 1) sin(pi alpha k) / k!.  Raises where the terms have not
    fallen below round-off (near z = 1 from alpha = 0.99 on).  The u grid is
    no fallback below z = 1: as alpha -> 1 its integrands turn into steps."""
    a, b = p.alpha, p.b
    scale = math.gamma(1.0 - a * (b - 1.0)) / (a * math.pi * math.gamma(2.0 - b))
    total = 0.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        mag = math.exp(math.lgamma(a * k + 1.0) - math.lgamma(k + 1.0) + (k - b) * math.log(z))
        mag = mag * z / (k + 1.0 - b)
        total += (-1.0) ** (k + 1) * math.sin(math.pi * a * k) * mag
        if mag < 1e-17 * abs(total):
            return scale * total
    raise ValueError(f"alpha = {a}: the series for P(Z <= x) at lam x = {z} does not converge")


def _dilute_eval(p: DiluteParams, x, cdf: bool):
    """The series up to lam x = _SERIES_EDGE, the u grid above it, where the
    integrands no longer crowd into u -> pi; every x is computed alone."""
    xs = np.asarray(x, dtype=float)
    flat = np.ravel(xs)
    z = p.lam * flat
    out = np.zeros(flat.size)
    high = z > _SERIES_EDGE
    low = (flat > 0.0) & ~high
    series = _dilute_cdf_series if cdf else _dilute_density_series
    out[low] = [series(p, zi) for zi in z[low].tolist()]
    if high.any():
        alpha, q = p.alpha, (p.b - 1.0) * (1.0 - p.alpha)
        log_a, log_w = (np.array(g) for g in _u_grid(alpha, p.b))
        a = _exp(np.minimum(log_a, 700.0))  # past e^700, A t only needs to be huge
        # t past 1e300 (alpha near 1) gives F = 1 and f = 0 in floats
        ts = [zi ** (1.0 / (1.0 - alpha)) if math.log(zi) < 690.0 * (1.0 - alpha) else 1e300 for zi in z[high].tolist()]
        with np.errstate(over="ignore"):  # A t = inf: P(1-q, A t) = 1, e^(-A t) = 0
            if cdf:  # F = sum_i omega_i P(1-q, A_i t)
                omega = _exp(log_w)
                out[high] = [dot(row, omega) for row in gammainc(1.0 - q, np.multiply.outer(ts, a))]
            else:  # f = t^(1-q) / ((1-alpha) x Gamma(1-q)) sum_i omega_i A_i^(1-q) e^(-A_i t)
                m = log_w + (1.0 - q) * log_a
                out[high] = [
                    t ** (1.0 - q) * fsum(_exp(m - a * t)) / ((1.0 - alpha) * xi * math.gamma(1.0 - q))
                    for t, xi in zip(ts, flat[high].tolist())
                ]
    return out.reshape(xs.shape) if xs.ndim else float(out[0])


def dilute_Z_density(p: DiluteParams, x):
    """Density of the rescaled-count limit Z, element by element over x: a
    float for a scalar x, and the bytes of scalar calls for an array."""
    return _dilute_eval(p, x, cdf=False)


def dilute_Z_cdf(p: DiluteParams, x):
    """P(Z <= x), element by element over x, like ``dilute_Z_density``."""
    return _dilute_eval(p, x, cdf=True)


def mixed_poisson_pmf(p: DiluteParams, upsilon: float, k_max: int) -> np.ndarray:
    """P(Poi(upsilon Z) = k) = E[(upsilon Z)^k exp(-upsilon Z) / k!], k <= k_max.

    The limit law of the count of components at the critical size scale
    n^(alpha/(1+alpha)).  Every k is one sum over the tensor grid of (U, E),
    on which upsilon Z = (upsilon / lam) (E / A(U))^(1-alpha).  E ~ Gamma(1-q)
    takes the trapezoid rule in tau, E = exp(tau - exp(-tau)), under which
    E^(1-q) (1 + e^-tau) e^-E decays double exponentially at both ends.
    """
    if upsilon < 0:
        raise ValueError("upsilon must be nonnegative")
    alpha, q = p.alpha, (p.b - 1.0) * (1.0 - p.alpha)
    log_a, log_w = (np.array(g) for g in _u_grid(alpha, p.b))
    taus = np.arange(-math.log(40.0 / (1.0 - q)), 4.0, _GAMMA_STEP)
    log_e = taus - _exp(-taus)
    e_weights = _exp((1.0 - q) * log_e - _exp(log_e)) * (1.0 + _exp(-taus))
    c = _exp(-(1.0 - alpha) * log_a) * (upsilon / p.lam)
    z = np.multiply.outer(c, _exp((1.0 - alpha) * log_e)).ravel()
    weights = np.multiply.outer(_exp(log_w), e_weights / fsum(e_weights)).ravel()
    if fsum(weights[z > 708.0]) > 1e-12:  # exp(-z) underflows there
        raise ValueError(f"upsilon = {upsilon} puts upsilon Z past 708: out of range")
    term = _exp(-z)
    out = np.empty(k_max + 1)
    for k in range(k_max + 1):
        out[k] = dot(term, weights)
        term = term * z / (k + 1)
    return out


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


# ---------------------------------------------------------------------------
# extreme-value laws


@dataclass(frozen=True)
class FrechetJLaw:
    """Law of the j-th largest rescaled jump in the dense case, 1 < alpha < 2.

    The ranked limits are the ranked atoms of a Poisson process whose tail
    intensity is Lambda(x) = theta x^-alpha with theta = mu^alpha /
    |Gamma(1 - alpha)| (note Gamma(1 - alpha) < 0 here, so the stated
    exponent mu^alpha x^-alpha / Gamma(1 - alpha) is negative, as a cdf
    exponent must be).  j = 1 is the Frechet law itself.
    """

    mu: float
    alpha: float
    j: int

    @property
    def theta(self) -> float:
        return -(self.mu**self.alpha) / math.gamma(1.0 - self.alpha)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        # the C library's pow, element by element: numpy's vector pow rounds
        # differently on different SIMD levels, and this cdf feeds a KS verdict
        powers = [v ** -self.alpha for v in x[pos].tolist()]
        lam = self.theta * np.array(powers, dtype=float)
        out[pos] = gammaincc(self.j, lam)
        return out

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        lam = self.theta * x[pos] ** (-self.alpha)
        log_pdf = (
            math.log(self.alpha * self.theta)
            - (self.alpha + 1.0) * np.log(x[pos])
            + (self.j - 1) * np.log(lam)
            - lam
            - gammaln(self.j)
        )
        out[pos] = np.exp(log_pdf)
        return out


def frechet_law(mu: float, alpha: float, j: int = 1) -> FrechetJLaw:
    if not 1.0 < alpha < 2.0:
        raise ValueError(
            f"ranked-jump laws require 1 < alpha < 2 (degenerate at alpha = 2), got {alpha}"
        )
    if j < 1:
        raise ValueError("rank j must be >= 1")
    if not mu > 0:
        raise ValueError("mu must be positive")
    return FrechetJLaw(mu, alpha, j)


def gumbel_cdf(x: float) -> float:
    """P(G <= x) = exp(-exp(-x))."""
    return math.exp(-math.exp(-x))


# ---------------------------------------------------------------------------
# the dilute point process of rescaled component sizes


def _log_beta(a: float, b: float) -> float:
    return gammaln(a) + gammaln(b) - gammaln(a + b)


def pp_intensity(alpha: float, b: float, x: float) -> float:
    """Intensity x^(-alpha-1) (1-x)^(alpha(2-b)-1) / B(1-alpha, alpha(2-b))
    of the limit point process on (0, 1]."""
    if not 0.0 < alpha < 1.0 or not 1.0 < b < 2.0:
        raise ValueError("intensity defined for alpha in (0,1), b in (1,2)")
    if x <= 0.0:
        raise ValueError("the point process lives on (0, 1]")
    if x > 1.0:
        return 0.0
    c = alpha * (2.0 - b)
    norm = math.exp(-_log_beta(1.0 - alpha, c))
    if x == 1.0:
        return math.inf  # integrable endpoint singularity for c < 1
    return norm * x ** (-alpha - 1.0) * (1.0 - x) ** (c - 1.0)


def pp_intensity_integral(alpha: float, b: float, x0: float, x1: float = 1.0) -> float:
    """Mean number of points in [x0, x1]; +inf when x0 <= 0."""
    if x0 <= 0.0:
        return math.inf
    x1 = min(x1, 1.0)
    if x0 >= x1:
        return 0.0
    c = alpha * (2.0 - b)
    norm = math.exp(-_log_beta(1.0 - alpha, c))

    # substitute s = (1-y)^c to absorb the endpoint singularity at y = 1
    def integrand(s: float) -> float:
        y = 1.0 - s ** (1.0 / c)
        return y ** (-alpha - 1.0)

    val, _ = quad(integrand, (1.0 - x1) ** c, (1.0 - x0) ** c, limit=500, epsabs=1e-11)
    return norm * val / c


def pp_factorial_moment(alpha: float, b: float, interval, m: int) -> float:
    """m-th factorial moment of the point count on ``interval``, m in {1, 2}.

    E[(count)_m] = (alpha/Gamma(1-alpha))^m
                   * Gamma(1+alpha(1-b)) Gamma(m+2-b)
                   / (Gamma(1+alpha(m+1-b)) Gamma(2-b))
                   * Int ... Int 1{sum y <= 1}
                     (1-sum y)^(alpha(m+1-b)-1) / prod y_i^(alpha+1) dy.
    """
    if m not in (1, 2):
        raise ValueError("factorial moments implemented for m in {1, 2}")
    x0, x1 = float(interval[0]), float(min(interval[1], 1.0))
    if x0 <= 0.0:
        return math.inf
    if x0 >= x1:
        return 0.0
    if not 0.0 < alpha < 1.0 or not 1.0 < b < 2.0:
        raise ValueError("factorial moments defined for alpha in (0,1), b in (1,2)")
    pref = (
        m * math.log(alpha)
        - m * gammaln(1.0 - alpha)
        + gammaln(1.0 + alpha * (1.0 - b))
        + gammaln(m + 2.0 - b)
        - gammaln(1.0 + alpha * (m + 1.0 - b))
        - gammaln(2.0 - b)
    )
    pref = math.exp(pref)
    if m == 1:
        c = alpha * (2.0 - b)

        def inner1(s: float) -> float:
            y = 1.0 - s ** (1.0 / c)
            return y ** (-alpha - 1.0)

        val, _ = quad(inner1, (1.0 - x1) ** c, (1.0 - x0) ** c, limit=500, epsabs=1e-11)
        return pref * val / c

    c2 = alpha * (3.0 - b)

    def inner2(y1: float) -> float:
        top = min(x1, 1.0 - y1 - 1e-300)
        if top <= x0:
            return 0.0
        lo = (1.0 - y1 - top) ** c2
        hi = (1.0 - y1 - x0) ** c2

        def kernel(s: float) -> float:
            y2 = 1.0 - y1 - s ** (1.0 / c2)
            return y2 ** (-alpha - 1.0)

        val, _ = quad(kernel, lo, hi, limit=200, epsabs=1e-10)
        return val / c2 * y1 ** (-alpha - 1.0)

    val, _ = quad(inner2, x0, x1, limit=400, epsabs=1e-9)
    return pref * val
