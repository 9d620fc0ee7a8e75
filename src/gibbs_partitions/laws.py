"""Closed-form limit laws: stable densities, extreme-value laws, dilute
limit variables, and the component-size point process.

Stable densities have one route per law, ``stable_density_series``:

* the alpha = 2 Gaussian in closed form;
* the dense law (1 < alpha < 2) by Fourier inversion on a Gauss-Legendre
  grid sized by each point's phase (``_inversion_grid``), at every point;
* the one-sided law (0 < alpha < 1) through the dilute machinery: if Y has
  Laplace transform exp(-t^alpha), Y^-alpha is the dilute Z at b = 1 and
  lambda = 1 (Kanter), whose u grid serves y < 1 and whose z series, free
  of cancellation there, serves y >= 1.

The tests check both against adaptive quadrature, mpmath and closed forms.

Scale conventions: the spectrally positive normalization used throughout
has Laplace transform exp(-lambda t^alpha) with lambda = gamma^alpha /
cos(pi alpha / 2) for 0 < alpha < 1, and exp(+t^alpha) at the scale
gamma = (-cos(pi alpha / 2))^(1/alpha) for 1 < alpha <= 2.  Gamma-function
values are evaluated through log-gamma with explicit sign tracking since
Gamma(1 - alpha) < 0 for 1 < alpha < 2.

Log-gamma and the incomplete gamma functions come from ``special`` (scipy's
floats bit for bit), and the point-process integrals take ``special``'s
tanh-sinh rule at a fixed step, so importing and running this module
loads no scipy.  Every point-wise law takes its points through
``special._pointwise``, and exp, cos and pow through ``special._libm``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .series import dot, fsum, fsum_rows
from .special import _POINT_BLOCK, _libm, _or_inf, _pointwise, _tanh_sinh, igam, igamc, lgam

__all__ = [
    "StableParams",
    "DiluteParams",
    "stable_density_series",
    "stable_moment",
    "dilute_Z_density",
    "dilute_Z_cdf",
    "FrechetJLaw",
    "frechet_law",
    "gumbel_cdf",
    "mixed_poisson_pmf",
    "pp_intensity",
    "pp_intensity_integral",
    "pp_factorial_moment",
]

# the C library's exp and pow, +inf past the float range
_exp_or_inf = functools.partial(_or_inf, math.exp)
_pow_or_inf = functools.partial(_or_inf, math.pow)


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n: int) -> tuple[tuple, tuple]:
    """n Gauss-Legendre nodes on [0, 1], in increasing order, and their weights.

    Newton's method on the three-term recurrence (3 of the 8 steps reach
    round-off) with numpy arithmetic and libm only: no eigensolver, no BLAS.
    A node whose step leaves it in place would stay there, so later steps
    take only the nodes still moving (a few dozen after the third).
    """
    x = _libm(math.cos, math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    dp = np.zeros(n)
    live = np.arange(n)
    for _ in range(8):
        y = x[live]
        p0, p1 = np.ones(y.size), y
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * y * p1 - (j - 1) * p0) / j
        dp[live] = n * (p0 - y * p1) / ((1.0 - y) * (1.0 + y))
        x[live] = y - p1 / dp[live]
        live = live[x[live] != y]
    # tuples: the cache is shared
    return tuple(((1.0 - x) / 2.0).tolist()), tuple((1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)).tolist())


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


def stable_density_series(p: StableParams, x):
    """Stable density at each x, by the one route of its law.

    Supports alpha = 2 (closed form), and beta = +/-1 for alpha in
    (0, 1) or (1, 2); densities vanish on the unsupported side of the
    one-sided laws, and at +/-inf; NaN gives NaN.  Element by element over
    x: a float for a scalar x, and the bytes of scalar calls for an array.
    The dense law (1 < alpha < 2) takes every finite point on
    ``_inversion_grid``, which raises RuntimeError past its node budget;
    the one-sided law (0 < alpha < 1) takes ``_one_sided``.  The name is
    kept from the power series that once served both laws.
    """
    if p.alpha != 2.0 and (p.alpha == 1.0 or abs(p.beta) != 1.0):
        raise ValueError("series densities implemented for beta = +/-1, alpha != 1")
    return _pointwise(functools.partial(_stable_density_block, p), x, _POINT_BLOCK)


def _stable_density_block(p: StableParams, flat: np.ndarray) -> np.ndarray:
    z, a = flat - p.delta, p.alpha
    if a == 2.0:  # S_2(gamma, ., delta) is Gaussian with variance 2 gamma^2
        with np.errstate(over="ignore"):  # z^2 past the float range: the density is 0
            return _libm(math.exp, -(z * z) / (4.0 * p.gamma**2)) / (2.0 * p.gamma * math.sqrt(math.pi))
    out = np.where(np.isnan(flat), math.nan, 0.0)
    if a > 1.0:
        finite = np.isfinite(flat)
        out[finite] = _inversion_grid(p, flat[finite])
        return out
    # y = s (x - delta), or its mirror, has Laplace transform exp(-t^alpha)
    s = (p.gamma**a / math.cos(math.pi * a / 2.0)) ** (-1.0 / a)
    y = s * z if p.beta == 1.0 else -s * z
    pos = (y > 0.0) & (y < math.inf)
    out[pos] = s * _one_sided(a, y[pos])
    return out


def _one_sided(alpha: float, y: np.ndarray) -> np.ndarray:
    """The density at each y > 0 of Y with Laplace transform exp(-t^alpha).

    Y = (A(U)/E)^((1-alpha)/alpha) (Kanter, below), so z = y^-alpha is the
    dilute Z at b = 1 and lam = 1 (q = 0: U uniform, E ~ Exp(1)), and the
    density is alpha y^(-alpha-1) f_Z(z) = alpha f_Z(z) z / y: the u grid
    at y < 1, the z series, which has no cancellation at z <= 1, at y >= 1.
    Where f_Z is 0, z past the float range included, so is the density."""
    z = np.full(y.size, math.inf)
    finite = -alpha * _libm(math.log, y) < 709.0
    z[finite] = _libm(math.pow, y[finite], -alpha)
    fz = _dilute_eval(alpha, 1.0, 1.0, z, cdf=False)
    out = np.zeros(y.size)
    live = fz > 0.0
    with np.errstate(over="ignore"):  # +inf only past the float range
        out[live] = alpha * fz[live] * z[live] / y[live]
    return out


# The inversion integral
#   f(x) = (1/pi) Int_0^inf exp(-(gamma t)^alpha)
#          cos(gamma^alpha beta tan(pi alpha/2) t^alpha + (delta - x) t) dt
# of the dense law (1 < alpha < 2), cut at t_max, on Gauss-Legendre grids in
# u: t = u^2 on [0, t_max] smooths t^alpha at t = 0.  Each point takes
# _INVERSION_NODES nodes per _INVERSION_PHASE of its cosine's phase over
# [0, t_max], |tan term| t_max^alpha + |delta - x| t_max: 400 nodes on a
# phase of 800 are within 2e-14 of 1600 nodes, and past a phase of 1100
# they leave 1e-11 and beyond.  ``_gauss_legendre`` costs O(n^2), so no
# grid passes _INVERSION_MAX_NODES (0.4 s to build): alpha = 1.05 at
# |x| = 24 fits, at |x| = 40 it does not.
_INVERSION_NODES = 400
_INVERSION_PHASE = 800.0
_INVERSION_MAX_NODES = 6400
_INVERSION_ROWS = 64  # points per block of the cosine matrix


def _inversion_setup(p: StableParams) -> tuple[float, float]:
    """The inversion integral's tan term, gamma^alpha beta tan(pi alpha/2),
    and its cut-off t_max, where exp(-(gamma t)^alpha) = e^-45."""
    a, g = p.alpha, p.gamma
    return math.tan(math.pi * a / 2.0) * (g**a) * p.beta, 45.0 ** (1.0 / a) / g


def _inversion_grid(p: StableParams, x: np.ndarray) -> np.ndarray:
    """The dense density at each x by Fourier inversion on the grid its
    phase sizes; exp, cos and pow from the C library, and one fixed-order
    dot per x.  Raises RuntimeError where a point would need more than
    _INVERSION_MAX_NODES nodes."""
    a, g = p.alpha, p.gamma
    tan_term, t_max = _inversion_setup(p)
    blocks = np.ceil((abs(tan_term) * t_max**a + np.abs(p.delta - x) * t_max) / _INVERSION_PHASE)
    if not np.all(blocks * _INVERSION_NODES <= _INVERSION_MAX_NODES):
        raise RuntimeError(f"alpha = {a}: the inversion grid needs more than its budget of {_INVERSION_MAX_NODES} nodes")
    nodes = _INVERSION_NODES * np.maximum(blocks, 1.0).astype(int)
    u_max = math.sqrt(t_max)
    out = np.zeros(x.size)
    for n in np.unique(nodes).tolist():
        w, c = (np.array(v) for v in _gauss_legendre(n))
        u = u_max * w
        t = u * u
        phase0 = tan_term * _libm(math.pow, t, a)
        # dt = 2 u du
        weights = 2.0 * u * (u_max * c) * _libm(math.exp, -_libm(math.pow, g * t, a))
        at = np.flatnonzero(nodes == n)
        for i in range(0, at.size, _INVERSION_ROWS):
            rows = at[i : i + _INVERSION_ROWS]
            shift = p.delta - x[rows]
            cosines = _libm(math.cos, phase0 + np.multiply.outer(shift, t))
            out[rows] = [max(dot(row, weights) / math.pi, 0.0) for row in cosines]
    return out


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
_DILUTE_MAX_TERMS = 10_000  # its term budget: alpha = 0.9995 converges within 7 700


@functools.lru_cache(maxsize=16)
def _u_grid(alpha: float, b: float) -> tuple[tuple, tuple]:
    """log A at the u nodes and the log weights of U, which sum to 1.

    u = pi - v, v = pi w^k, k = 1/(2-b): A^q ~ v^(1-b) as v -> 0, so A^q du is
    regular in w.  Past b = 1.95 the mass of U crowds into v -> 0, where A t is
    astronomically large, and all the change in the integrands sits in
    w > e^(-20/k) (v > pi e^-20): that panel gets its own nodes.  Each
    panel has _KANTER_NODES Gauss-Legendre nodes.  sin(u) is evaluated as
    sin(min(u, v)), accurate at both ends, and as v once v underflows.
    """
    k, q = 1.0 / (2.0 - b), (b - 1.0) * (1.0 - alpha)
    cuts = (0.0, 1.0) if k <= 20.0 else (0.0, math.exp(-20.0 / k), 1.0)
    nodes = [
        (lo + (hi - lo) * w, (hi - lo) * c)
        for lo, hi in zip(cuts, cuts[1:])
        for w, c in zip(*_gauss_legendre(_KANTER_NODES))
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
    norm = top + math.log(fsum(_libm(math.exp, np.array(log_w) - top)))
    return tuple(log_a), tuple(lw - norm for lw in log_w)  # tuples: the cache is shared


def _dilute_series(alpha: float, b: float, lam: float, x: float, cdf: bool) -> float:
    """F, or f, of Z at x <= 1 / lam from one convergent series in z = lam x:
    f = lam K sum_k c_k z^(k-b), F = K sum_k c_k z^(k+1-b) / (k+1-b),
    c_k = (-1)^(k+1) Gamma(alpha k + 1) sin(pi alpha k) / k!,
    K = Gamma(1 - alpha(b-1)) / (alpha pi Gamma(2-b)).  For z <= 1 the
    largest term stays within a few times the sum at every alpha, so the sum
    runs until a term falls below 1e-17 of it: a few dozen terms at small
    alpha, some 4 000 at alpha = 0.999 next to z = 1.  Past _DILUTE_MAX_TERMS
    it raises ValueError.  The u grid is no fallback below z = 1: as
    alpha -> 1 its integrands turn into steps.

    Where the first term overflows (z subnormal, b near 2), or z rounds to
    0 (log z is then log lam + log x), the sum runs with z^(1-b) (f) or
    z^(2-b) (F) factored out, and the factor comes back once, in log space:
    f is +inf only past the float range."""
    scale = math.gamma(1.0 - alpha * (b - 1.0)) / (alpha * math.pi * math.gamma(2.0 - b))
    scale = scale if cdf else lam * scale
    z = lam * x
    if z > 0.0:
        log_z = math.log(z)
        try:
            return scale * _dilute_terms(alpha, b, z, log_z, cdf, b)
        except OverflowError:
            pass
    else:
        log_z = math.log(lam) + math.log(x)
    log_out = math.log(scale * _dilute_terms(alpha, b, z, log_z, cdf, 1.0)) + (2.0 - b if cdf else 1.0 - b) * log_z
    try:
        return math.exp(log_out)
    except OverflowError:
        return math.inf


def _dilute_terms(a: float, b: float, z: float, log_z: float, cdf: bool, lead: float) -> float:
    """sum_k c_k z^(k-lead) of ``_dilute_series``, each term times
    z / (k+1-b) for F at lead = b, and 1 / (k+1-b) at lead = 1."""
    total = 0.0
    for k in range(1, _DILUTE_MAX_TERMS + 1):
        mag = math.exp(math.lgamma(a * k + 1.0) - math.lgamma(k + 1.0) + (k - lead) * log_z)
        if cdf:
            mag = mag * (z if lead == b else 1.0) / (k + 1.0 - b)
        total += (-1.0) ** (k + 1) * math.sin(math.pi * a * k) * mag
        if mag < 1e-17 * abs(total) or mag == 0.0:  # the magnitudes fall in k
            return total
    raise ValueError(f"alpha = {a}: the {'cdf' if cdf else 'density'} series at lam x = {z} does not converge")


def _dilute_eval(alpha: float, b: float, lam: float, x: np.ndarray, cdf: bool) -> np.ndarray:
    """The series up to lam x = _SERIES_EDGE, the u grid above it, where the
    integrands no longer crowd into u -> pi, at each entry of the 1-d x;
    every x is computed alone.  The grid takes its points _INVERSION_ROWS
    at a time, so its working arrays stay a few hundred kB however many
    points there are; igam, exp and each row's sum act point by point, so
    the blocks move no byte.  NaN gives NaN, and x = +inf the limits F = 1,
    f = 0."""
    z = lam * x
    out = np.where(np.isnan(x), math.nan, 0.0)
    out[x == math.inf] = 1.0 if cdf else 0.0
    high = (z > _SERIES_EDGE) & (x < math.inf)
    low = (x > 0.0) & (z <= _SERIES_EDGE)
    out[low] = [_dilute_series(alpha, b, lam, xi, cdf) for xi in x[low].tolist()]
    if high.any():
        q = (b - 1.0) * (1.0 - alpha)
        log_a, log_w = (np.array(g) for g in _u_grid(alpha, b))
        a = _libm(math.exp, np.minimum(log_a, 700.0))  # past e^700, A t only needs to be huge
        # t is clamped at 1e300 (alpha near 1): A t is then past every float
        # scale, P(1-q, A t) = 1 and e^(-A t) = 0 at every node
        ts = np.full(np.count_nonzero(high), 1e300)
        finite = _libm(math.log, z[high]) < 690.0 * (1.0 - alpha)
        ts[finite] = _libm(math.pow, z[high][finite], 1.0 / (1.0 - alpha))
        # F = sum_i omega_i P(1-q, A_i t), which round-off may put past 1, or an
        # ulp short of it where every P is 1 (the omega's float total): then 1;
        # f = t^(1-q) / ((1-alpha) x Gamma(1-q)) sum_i omega_i A_i^(1-q) e^(-A_i t)
        omega, m = _libm(math.exp, log_w), log_w + (1.0 - q) * log_a
        sums = []
        with np.errstate(over="ignore"):  # A t = inf: P(1-q, A t) = 1, e^(-A t) = 0
            for i in range(0, ts.size, _INVERSION_ROWS):
                at = np.multiply.outer(ts[i : i + _INVERSION_ROWS], a)
                if cdf:
                    sums += [1.0 if row.min() == 1.0 else min(dot(row, omega), 1.0) for row in igam(1.0 - q, at)]
                else:
                    arg = m - at
                    live = ~(arg < -800.0)  # math.exp is +0.0 below
                    terms = np.zeros(arg.shape)
                    terms[live] = _libm(math.exp, arg[live])
                    sums += fsum_rows(terms).tolist()
        out[high] = sums if cdf else (
            _libm(math.pow, ts, 1.0 - q) * sums / ((1.0 - alpha) * x[high] * math.gamma(1.0 - q)))
    return out


def dilute_Z_density(p: DiluteParams, x):
    """Density of the rescaled-count limit Z, element by element over x: a
    float for a scalar x, and the bytes of scalar calls for an array."""
    return _pointwise(functools.partial(_dilute_eval, p.alpha, p.b, p.lam, cdf=False), x, _POINT_BLOCK)


def dilute_Z_cdf(p: DiluteParams, x):
    """P(Z <= x), element by element over x, like ``dilute_Z_density``."""
    return _pointwise(functools.partial(_dilute_eval, p.alpha, p.b, p.lam, cdf=True), x, _POINT_BLOCK)


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
    log_e = taus - _libm(math.exp, -taus)
    e_weights = _libm(math.exp, (1.0 - q) * log_e - _libm(math.exp, log_e)) * (1.0 + _libm(math.exp, -taus))
    c = _libm(math.exp, -(1.0 - alpha) * log_a) * (upsilon / p.lam)
    z = np.multiply.outer(c, _libm(math.exp, (1.0 - alpha) * log_e)).ravel()
    weights = np.multiply.outer(_libm(math.exp, log_w), e_weights / fsum(e_weights)).ravel()
    if fsum(weights[z > 708.0]) > 1e-12:  # exp(-z) underflows there
        raise ValueError(f"upsilon = {upsilon} puts upsilon Z past 708: out of range")
    term = _libm(math.exp, -z)
    out = np.empty(k_max + 1)
    for k in range(k_max + 1):
        out[k] = dot(term, weights)
        term = term * z / (k + 1)
    return out


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

    def cdf(self, x):
        """P(J <= x) at each x: a float for a scalar x, else an array of x's
        shape; 0 for x <= 0, 1 at +inf, NaN at NaN."""
        return _pointwise(self._cdf_block, x, _POINT_BLOCK)

    def _cdf_block(self, x: np.ndarray) -> np.ndarray:
        out = np.where(np.isnan(x), math.nan, 0.0)
        pos = x > 0
        with np.errstate(over="ignore", invalid="ignore"):
            lam = self.theta * _libm(_pow_or_inf, x[pos], -self.alpha)
            # where x^-alpha passes the float range, Lambda = (mu / x)^alpha / |Gamma(1 - alpha)|
            far = ~np.isfinite(lam)
            lam[far] = _libm(_pow_or_inf, self.mu / x[pos][far], self.alpha) / -math.gamma(1.0 - self.alpha)
        out[pos] = igamc(self.j, lam)
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


def gumbel_cdf(x):
    """P(G <= x) = exp(-exp(-x)) at each x, like ``dilute_Z_cdf``: 0.0 where
    exp(-x) overflows (x below about -709.78), the value every x below about
    -6.6 already rounds to; NaN at NaN."""
    return _pointwise(lambda v: _libm(math.exp, -_libm(_exp_or_inf, -v)), x, _POINT_BLOCK)


# ---------------------------------------------------------------------------
# the dilute point process of rescaled component sizes


def _log_beta(a: float, b: float) -> float:
    return lgam(a) + lgam(b) - lgam(a + b)


def pp_intensity(alpha: float, b: float, x):
    """Intensity x^(-alpha-1) (1-x)^(alpha(2-b)-1) / B(1-alpha, alpha(2-b))
    of the limit point process on (0, 1], at each x, like ``dilute_Z_cdf``:
    0 past 1, +inf at 1 (an integrable singularity, c < 1), NaN at NaN.
    Any x <= 0 raises ValueError."""
    if not 0.0 < alpha < 1.0 or not 1.0 < b < 2.0:
        raise ValueError("intensity defined for alpha in (0,1), b in (1,2)")
    c = alpha * (2.0 - b)
    return _pointwise(functools.partial(_pp_intensity_block, alpha, c), x, _POINT_BLOCK)


def _pp_intensity_block(alpha: float, c: float, x: np.ndarray) -> np.ndarray:
    if (x <= 0.0).any():
        raise ValueError("the point process lives on (0, 1]")
    out = np.where(x == 1.0, math.inf, 0.0)
    inner = ~(x >= 1.0)  # NaN too
    norm, xs = math.exp(-_log_beta(1.0 - alpha, c)), x[inner]
    with np.errstate(over="ignore"):  # +inf only past the float range
        out[inner] = norm * _libm(_pow_or_inf, xs, -alpha - 1.0) * _libm(math.pow, 1.0 - xs, c - 1.0)
    return out


# The point-process integrals take ``special._tanh_sinh`` at this step: within
# 4e-15 relative of 30-digit mpmath (tests/test_special.py asserts 1e-13 over
# alpha in [0.3, 0.95] and b in [1.05, 1.95]).
_TS_STEP = 1.0 / 16.0


def _power_gap(base: np.ndarray, step: np.ndarray, p: float) -> np.ndarray:
    """(base + step)^p - base^p at each entry, without the cancellation of
    the plain difference; step may be negative."""
    pos, out = base > 0.0, np.empty(base.size)
    out[pos] = _libm(math.pow, base[pos], p) * _libm(math.expm1, p * _libm(math.log1p, step[pos] / base[pos]))
    out[~pos] = _libm(math.pow, step[~pos], p)
    return out


def _pp_mass(alpha: float, c: float, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """c Int_x0^x1 y^(-alpha-1) (1-y)^(c-1) dy for each pair of limits
    0 < x0, x1 <= 1 (0 where x0 >= x1), by the tanh-sinh rule in two pieces
    split at y = 1/2.  Below it the rule runs in t = y^-alpha, which absorbs
    the pole at 0; above it in s = (1-y)^c, which absorbs the singularity at
    1.  Each piece's width comes from ``_power_gap``, so narrow intervals
    keep their digits; pow from the C library, and correctly rounded sums."""
    u, w = (np.array(v) for v in _tanh_sinh(_TS_STEP))
    x0 = np.minimum(x0, x1)
    top = np.minimum(x1, 0.5)  # the lower piece is [x0, top] where x0 < top
    low = x0 < top
    t0 = _libm(math.pow, top[low], -alpha)
    t_gap = _power_gap(top[low], x0[low] - top[low], -alpha)
    t = (t0[:, None] + t_gap[:, None] * u).ravel()
    f_low = _libm(math.pow, 1.0 - _libm(math.pow, t, -1.0 / alpha), c - 1.0).reshape(t_gap.size, u.size)
    bottom = np.maximum(x0, 0.5)  # the upper piece is [bottom, x1] where bottom < x1
    high = bottom < x1
    s0 = _libm(math.pow, 1.0 - x1[high], c)
    s_gap = _power_gap(1.0 - x1[high], x1[high] - bottom[high], c)
    s = (s0[:, None] + s_gap[:, None] * u).ravel()
    f_high = _libm(math.pow, 1.0 - _libm(math.pow, s, 1.0 / c), -alpha - 1.0).reshape(s_gap.size, u.size)
    sums = fsum_rows(np.vstack((f_low * w, f_high * w)))
    out = np.zeros(x0.size)
    out[low] = c / alpha * t_gap * sums[: t_gap.size]
    out[high] += s_gap * sums[t_gap.size :]
    return out


def pp_intensity_integral(alpha: float, b: float, x0: float, x1: float = 1.0) -> float:
    """Mean number of points in [x0, x1]; +inf when x0 <= 0."""
    if x0 <= 0.0:
        return math.inf
    x1 = min(x1, 1.0)
    if x0 >= x1:
        return 0.0
    c = alpha * (2.0 - b)
    mass = float(_pp_mass(alpha, c, np.array([x0]), np.array([x1]))[0])
    return math.exp(-_log_beta(1.0 - alpha, c)) * mass / c


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
        - m * lgam(1.0 - alpha)
        + lgam(1.0 + alpha * (1.0 - b))
        + lgam(m + 2.0 - b)
        - lgam(1.0 + alpha * (m + 1.0 - b))
        - lgam(2.0 - b)
    )
    pref = math.exp(pref)
    if m == 1:
        c = alpha * (2.0 - b)
        return pref * float(_pp_mass(alpha, c, np.array([x0]), np.array([x1]))[0]) / c

    # y2 = (1 - y1) v turns the inner integral into a mass of exponent c2:
    # Int y2^(-alpha-1) (1-y1-y2)^(c2-1) dy2 = (1-y1)^(c2-alpha-1) Int v^(-alpha-1) (1-v)^(c2-1) dv
    # over x0 / (1-y1) <= v <= min(x1, 1-y1) / (1-y1); the outer integral runs
    # on [x0, min(x1, 1-x0)], split where the upper limit switches, y1 = 1-x1
    c2 = alpha * (3.0 - b)
    hi = min(x1, 1.0 - x0)
    if hi <= x0:
        return 0.0
    cuts = [x0, 1.0 - x1, hi] if x0 < 1.0 - x1 < hi else [x0, hi]
    u, w = (np.array(v) for v in _tanh_sinh(_TS_STEP))
    parts = []
    for lo, up in zip(cuts, cuts[1:]):
        y1 = lo + (up - lo) * u
        rest = 1.0 - y1
        inner = _pp_mass(alpha, c2, x0 / rest, np.minimum(x1, rest) / rest) / c2
        f = _libm(math.pow, y1, -alpha - 1.0) * _libm(math.pow, rest, c2 - alpha - 1.0) * inner
        parts.append((up - lo) * fsum(f * w))
    return pref * fsum(parts)
