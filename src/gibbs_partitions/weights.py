"""Weight sequences and composition schemes.

A composition scheme pairs an outer weight sequence ``v`` (which weights the
number of components) with an inner sequence ``w`` (which weights component
sizes); the partition function of the associated random partition model is
``u_n = [z^n] V(W(z))``.

Weight sequences come in two kinds:

* ``explicit`` -- a finite array of nonnegative coefficients (radius +inf);
* ``closed_form`` -- a regularly varying tail

      term(n) = L(n) * n**(-e) * rho**(-n),   L(n) = c * log(2 + n)**log_exp,

  for ``n >= max(start_index, 1)``, with finitely many per-index overrides
  taking precedence and an explicit value at index 0.  ``log(2 + n)`` keeps
  the slowly varying factor positive and finite at every index.

Series evaluation returns certified partial sums: the reported value differs
from the infinite sum by at most ``_SERIES_TOL``.  One rule controls the tail
at every point up to the radius: an Euler-Maclaurin integral comparison on
the tilted terms, whose tail integral is the incomplete gamma function for
a constant L and a fixed tanh-sinh rule with a stated error for a log
factor, so no sum calls adaptive quadrature or scipy.  Divergence
(``t > rho``, or ``t = rho`` with tail exponent <= 1) is signalled by
returning ``+inf``, never by a fabricated number; a tail that cannot be
certified raises ``TailCertificationError``.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .special import _libm, _tanh_sinh, upper_gamma

__all__ = ["SlowVarying", "WeightSequence", "SchemeSpec", "ExtendedSpec", "ProductSpec", "TailCertificationError"]

# Relative slack used to decide whether an evaluation point sits on the
# radius of convergence; configs build rho_v = W(rho_w) in floating point.
_RADIUS_RTOL = 1e-13

# The certified error of every series value: a reported sum is within this
# of the infinite one.
_SERIES_TOL = 1e-12


class TailCertificationError(RuntimeError):
    """A truncated tail, of a series sum or of a stopped sum, could not be
    certified."""


@dataclass(frozen=True)
class SlowVarying:
    """Slowly varying factor ``L(n) = c * log(2 + n)**log_exp``, c > 0."""

    c: float
    log_exp: float = 0.0

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ValueError(f"slowly varying constant must be positive, got {self.c}")

    def __call__(self, n):
        if self.log_exp == 0.0:
            return self.c * np.ones_like(np.asarray(n, dtype=float))
        return self.c * np.log(2.0 + np.asarray(n, dtype=float)) ** self.log_exp

    def log_value(self, n):
        """log L(n), vectorized."""
        base = math.log(self.c)
        if self.log_exp == 0.0:
            return base + np.zeros_like(np.asarray(n, dtype=float))
        return base + self.log_exp * np.log(np.log(2.0 + np.asarray(n, dtype=float)))

    @property
    def is_constant(self) -> bool:
        return self.log_exp == 0.0

    def to_config(self) -> dict:
        return {"c": self.c, "log_exp": self.log_exp}


@dataclass(frozen=True)
class WeightSequence:
    """A nonnegative coefficient sequence, explicit or regularly varying.

    Use the :meth:`explicit` / :meth:`closed_form` constructors rather than
    the raw dataclass fields.
    """

    kind: str
    coeffs: tuple[float, ...] | None = None
    L: SlowVarying | None = None
    e: float | None = None
    rho: float | None = None
    start_index: int = 1
    term0: float = 0.0
    overrides: tuple[tuple[int, float], ...] = ()

    # -- constructors -----------------------------------------------------

    @staticmethod
    def explicit(coeffs) -> "WeightSequence":
        arr = tuple(float(x) for x in coeffs)
        if not arr:
            raise ValueError("explicit sequences need at least one coefficient")
        if any(x < 0 or not math.isfinite(x) for x in arr):
            raise ValueError("explicit coefficients must be finite and nonnegative")
        return WeightSequence(kind="explicit", coeffs=arr)

    @staticmethod
    def closed_form(
        c: float = 1.0,
        e: float = 0.0,
        rho: float = 1.0,
        log_exp: float = 0.0,
        start_index: int = 1,
        term0: float = 0.0,
        overrides: dict[int, float] | None = None,
    ) -> "WeightSequence":
        if not rho > 0:
            raise ValueError(f"rho must be positive, got {rho}")
        if start_index < 0:
            raise ValueError("start_index must be nonnegative")
        if term0 < 0:
            raise ValueError("term(0) must be nonnegative")
        ov = tuple(sorted((int(k), float(val)) for k, val in (overrides or {}).items()))
        if any(k < 1 or val < 0 for k, val in ov):
            raise ValueError("overrides must map positive indices to nonnegative values")
        return WeightSequence(
            kind="closed_form",
            L=SlowVarying(float(c), float(log_exp)),
            e=float(e),
            rho=float(rho),
            start_index=int(start_index),
            term0=float(term0),
            overrides=ov,
        )

    # -- basic accessors ---------------------------------------------------

    @property
    def is_explicit(self) -> bool:
        return self.kind == "explicit"

    def radius(self) -> float:
        """Radius of convergence: +inf for explicit (polynomial) sequences."""
        return math.inf if self.is_explicit else self.rho

    def term(self, n: int) -> float:
        """The n-th coefficient."""
        if n < 0:
            raise ValueError("index must be nonnegative")
        if self.is_explicit:
            return self.coeffs[n] if n < len(self.coeffs) else 0.0
        if n == 0:
            return self.term0
        for k, val in self.overrides:
            if k == n:
                return val
        if n < max(self.start_index, 1):
            return 0.0
        return float(self.L(n)) * n ** (-self.e) * self.rho ** (-n)

    # -- transforms --------------------------------------------------------

    def tilt(self, t: float) -> "WeightSequence":
        """Sequence with coefficients ``term(n) * t**n``.

        Closed forms map rho to rho / t; the model built from a tilted inner
        sequence is distributionally unchanged.
        """
        if not t > 0:
            raise ValueError("tilt parameter must be positive")
        if self.is_explicit:
            # log-space product: c * t**n can overflow the intermediate
            # power even when the product is representable
            logt = math.log(t)
            return WeightSequence.explicit(
                [
                    math.exp(math.log(c) + n * logt) if c > 0 else 0.0
                    for n, c in enumerate(self.coeffs)
                ]
            )
        ov = tuple((k, val * t**k) for k, val in self.overrides)
        return replace(self, rho=self.rho / t, overrides=ov)

    # -- series evaluation ---------------------------------------------------

    def weighted_terms(self, x: float, n_max: int) -> np.ndarray:
        """Array of ``term(n) * x**n`` for n = 0..n_max, computed in log space.

        This is the backbone for probability vectors: for closed forms with
        x near rho the product ``n**(-e) * (x/rho)**n`` is formed without
        intermediate overflow.  Every log and exp goes through the C
        library (``math``, mapped over the entries): numpy's vectorized exp
        and log round differently on different SIMD levels, and these terms
        feed every exact law.  Only the products and sums of the exponent
        ``log L(k) - e log k + k log(x / rho)`` are numpy's, one correctly
        rounded operation each in that order, so each term has the bits of
        the same expression in Python floats.
        """
        if not x >= 0:  # NaN too
            raise ValueError("evaluation point must be nonnegative")
        out = np.zeros(n_max + 1)
        if self.is_explicit:
            m = min(len(self.coeffs), n_max + 1)
            if x == 0.0:
                out[0] = self.coeffs[0] if m > 0 else 0.0
                return out
            logx = math.log(x)
            out[:m] = [
                math.exp(math.log(c) + k * logx) if c > 0 else 0.0
                for k, c in enumerate(self.coeffs[:m])
            ]
            return out
        out[0] = self.term0
        if x == 0.0 or n_max == 0:
            return out
        logc, lam, e = math.log(self.L.c), self.L.log_exp, self.e
        logx = math.log(x)
        step = logx - math.log(self.rho)
        # libm's log of k and of log(2 + k) from the ints, its exp from a
        # memoryview: Python floats one at a time, no list of them
        log_k = np.fromiter(map(math.log, range(1, n_max + 1)), dtype=float, count=n_max)
        if lam:
            loglog = map(math.log, map(math.log, range(3, n_max + 3)))
            log_l = logc + lam * np.fromiter(loglog, dtype=float, count=n_max)
        else:
            log_l = logc
        args = log_l - e * log_k
        args += np.arange(1.0, n_max + 1.0) * step
        vals = np.fromiter(map(math.exp, memoryview(args)), dtype=float, count=n_max)
        if self.start_index > 1:
            vals[: min(self.start_index - 1, n_max)] = 0.0
        for k, val in self.overrides:
            if 1 <= k <= n_max:
                vals[k - 1] = val * math.exp(k * logx) if val > 0 else 0.0
        out[1:] = vals
        return out

    def weighted_moment(self, t: float, k: int = 0) -> float:
        """Certified value of ``sum_n n**k * term(n) * t**n``, or +inf.

        Diverges (returns +inf) for t above the radius, and on the radius
        when the effective tail exponent e - k is <= 1.
        """
        if not t >= 0:  # NaN too
            raise ValueError("evaluation point must be nonnegative")
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        if self.is_explicit:
            if t == 0.0:
                return float(self.coeffs[0]) if k == 0 else 0.0
            try:
                arr = self.weighted_terms(t, len(self.coeffs) - 1)
                return math.fsum(c * j**k for j, c in enumerate(arr.tolist()))
            except OverflowError:  # a term, or their sum, past the float range
                return math.inf
        base = _closed_moment_sum(self.L, self.e, self.rho, max(self.start_index, 1), t, k)
        if math.isinf(base):
            return math.inf
        total = base
        # Override adjustments replace finitely many closed-form terms.
        for j, val in self.overrides:
            if j >= max(self.start_index, 1):
                closed = float(self.L(j)) * j ** (-self.e) * self.rho ** (-j)
            else:
                closed = 0.0
            total += (val - closed) * j**k * t**j
        if k == 0:
            total += self.term0
        return max(total, 0.0)

    def series_value(self, t: float) -> float:
        """Certified value of ``sum_n term(n) * t**n``, or +inf on divergence."""
        return self.weighted_moment(t, 0)

    # -- config round trip -------------------------------------------------

    def to_config(self) -> dict:
        if self.is_explicit:
            return {"kind": "explicit", "coeffs": list(self.coeffs)}
        cfg = {
            "kind": "closed_form",
            "c": self.L.c,
            "log_exp": self.L.log_exp,
            "e": self.e,
            "rho": self.rho,
            "start_index": self.start_index,
            "term0": self.term0,
            "overrides": {str(k): v for k, v in self.overrides},
        }
        return cfg

    @staticmethod
    def from_config(cfg: dict) -> "WeightSequence":
        kind = cfg.get("kind")
        if kind == "explicit":
            _known_keys(cfg, ("kind", "coeffs"), "an explicit sequence")
            return WeightSequence.explicit(cfg["coeffs"])
        if kind == "closed_form":
            keys = ("kind", "c", "e", "rho", "log_exp", "start_index", "term0", "overrides")
            _known_keys(cfg, keys, "a closed_form sequence")
            return WeightSequence.closed_form(
                c=cfg.get("c", 1.0),
                e=cfg["e"],
                rho=cfg["rho"],
                log_exp=cfg.get("log_exp", 0.0),
                start_index=cfg.get("start_index", 1),
                term0=cfg.get("term0", 0.0),
                overrides={int(k): float(v) for k, v in cfg.get("overrides", {}).items()},
            )
        raise ValueError(f"unknown weight sequence kind: {kind!r}")


def _known_keys(cfg: dict, keys: tuple, what: str) -> None:
    """A config key that ``what`` does not read is a ValueError naming it."""
    for key in cfg:
        if key not in keys:
            raise ValueError(f"{what} does not take the key {key!r} (it takes {', '.join(keys)})")


def _closed_moment_sum(
    L: SlowVarying,
    e: float,
    rho: float,
    n0: int,
    t: float,
    k: int,
) -> float:
    """``sum_{n >= n0} n**k L(n) n**(-e) (t/rho)**n`` with tail error <= tol
    = ``_SERIES_TOL``.

    With s = e - k and lambda = -log(t/rho) >= 0 the n-th term is g(n),

        g(x) = L(x) x**(-s) e**(-lambda x),

    and past an index where g' is monotone the tail from N is replaced by
    the Euler-Maclaurin estimate

        sum_{m >= N} g(m) = integral_N^inf g + g(N)/2 - g'(N)/12 + R,
        |R| <= |g'(N)| / 12.

    For constant L the integral is c lambda**(s-1) Gamma(1 - s, N lambda),
    c N**(1-s) / (s-1) on the radius; otherwise it is taken once, at the
    first block end N where |g'(N)|/6 <= tol/2, on a fixed tanh-sinh rule
    (``_log_factor_tail``) whose stated error joins the budget, and a sum
    over budget there raises ``TailCertificationError``.  A sum whose
    remainder bound is still above tol at the index cap raises it before
    it sums a term.

    A point below the radius within tol of it (or within ``_RADIUS_RTOL``
    relative) is summed on it: evaluation points such as W(rho_w) are
    themselves certified sums, within their tol of the true point, which
    may lie on the radius, and a moment that diverges there reads +inf.
    """
    if t == 0.0:
        return 0.0
    tol = _SERIES_TOL
    q = t / rho
    s = e - k
    lam = L.log_exp
    lam_pos = max(lam, 0.0)
    max_index = 10**9
    at_radius = abs(q - 1.0) <= _RADIUS_RTOL or 0.0 < rho - t <= tol
    if q > 1.0 and not at_radius:
        return math.inf
    if at_radius and s <= 1.0:
        return math.inf
    logq = 0.0 if at_radius else math.log(q)

    def g(x):
        return np.exp(L.log_value(x) - s * np.log(x) + x * logq)

    def g_prime_abs(x: float) -> float:
        return float(g(x)) * (abs(lam) / ((2.0 + x) * math.log(2.0 + x)) + abs(s) / x - logq)

    # Index past which g is decreasing and g' monotone (crude but safe).
    # Below the radius the tilt places it too: with sigma = |s| + |log_exp|,
    # (log g)' <= sigma/x - lambda and |(log g)''| <= sigma/x^2 from x = 16
    # on, so past (sigma + sqrt(sigma)) / lambda, g'' = g ((log g)'' +
    # (log g)'^2) >= 0.
    mono = 0 if s > 0 else math.inf
    if lam_pos > 0 and s > 0:
        mono = int(math.exp(lam_pos / s)) + 2 if lam_pos / s < 40.0 else math.inf
    if logq < 0.0:
        sigma = abs(s) + abs(lam)
        mono = min(mono, (sigma + math.sqrt(sigma)) / -logq)
    n_dec = max(n0, 16, mono)
    if n_dec >= max_index or g_prime_abs(max_index) / 6.0 > tol / 2.0:
        raise TailCertificationError(f"the tail of sum n^{k - e:g} L(n) (t/rho)^n at 1 - t/rho = "
                                     f"{1.0 - q:.3g} cannot be certified within {max_index:.0e} terms")
    total = 0.0
    n = n0
    block = 64
    while n < max_index:
        hi = n + block
        idx = np.arange(n, hi, dtype=float)
        logs = L.log_value(idx) - s * np.log(idx) + idx * logq
        total += float(np.sum(np.exp(logs)))
        n = hi
        block = min(block * 2, 1 << 16)
        if n < n_dec:
            continue
        # -g'(N)/12 is folded into the remainder budget (|.| <= |g'|/6).
        rem_bound = g_prime_abs(n) / 6.0
        if rem_bound > tol / 2.0:
            continue
        if L.log_exp != 0.0:
            integral, int_err = _log_factor_tail(L, s, -logq, n)
            if int_err + rem_bound > tol:
                raise TailCertificationError(
                    f"the tail integral of sum n^{k - e:g} L(n) (t/rho)^n at 1 - t/rho = {1.0 - q:.3g} "
                    f"is known to {int_err:.1e}, not within {tol - rem_bound:.1e}")
        else:
            integral = math.inf if at_radius else L.c * (-logq) ** (s - 1.0) * upper_gamma(1.0 - s, -n * logq)
            if not math.isfinite(integral):  # on the radius, or Gamma past the float range
                integral = L.c * n ** (1.0 - s) / (s - 1.0)  # then within N lambda relative
        return total + integral + float(g(n)) / 2.0
    raise TailCertificationError("series truncation failed to certify the requested tolerance")


def _log_factor_tail(L: SlowVarying, s: float, lam: float, n: int) -> tuple[float, float]:
    """``int_n^inf L(x) x**(-s) e**(-lam x) dx`` and its stated error, on
    the tanh-sinh rule at step 1/32.  The error is the rule's difference
    from itself at step 1/16, which reads every other one of the same
    nodes, plus its two end terms, about twice the part of the integral
    past the rule's reach.  Float rounding of the integrand, an ulp or so
    of each term of its exponent, is not in it, as rounding is in no
    partial sum either.

    On the radius (lam = 0, s > 1) the rule runs in v = (x/n)**(1-s), under
    which x**(-s) dx is n**(1-s)/(s-1) dv and the log factor alone is
    singular, at v = 0.  Below it the range splits at X = max(n, 1/lam):
    [n, X] takes x = n e**y, and past X, x = X - log(u)/lam turns
    e**(-lam x) dx into e**(-lam X) du / lam.  Each piece is the exp of a
    log, every exp and log the C library's."""
    step = 1.0 / 32.0
    u, w = (np.array(v) for v in _tanh_sinh(step))
    w_coarse = np.array(_tanh_sinh(2.0 * step)[1])
    log_n = math.log(n)

    def log_l(log_x):
        # log L(x) from log x, with log(2 + x) = log x + log1p(2 / x): finite
        # where x itself is past the float range
        return math.log(L.c) + L.log_exp * _libm(math.log, log_x + _libm(math.log1p, 2.0 * _libm(math.exp, -log_x)))

    args = []  # the log of each piece's integrand, Jacobian included
    if lam == 0.0:
        log_x = log_n - _libm(math.log, u) / (s - 1.0)
        args.append((1.0 - s) * log_n - math.log(s - 1.0) + log_l(log_x))
    else:
        big_x = max(n, 1.0 / lam)
        if big_x > n:
            span = math.log(big_x / n)
            log_x = log_n + span * u
            args.append(math.log(span) + log_l(log_x) + (1.0 - s) * log_x - lam * _libm(math.exp, log_x))
        log_x = _libm(math.log, big_x - _libm(math.log, u) / lam)
        args.append(-lam * big_x - math.log(lam) + log_l(log_x) - s * log_x)
    fine = coarse = reach = 0.0  # reach: the end terms
    for arg in args:
        f = _libm(math.exp, arg)
        fine += math.fsum((f * w).tolist())
        coarse += math.fsum((f[::2] * w_coarse).tolist())
        reach += w[0] * f[0] + w[-1] * f[-1]
    return fine, abs(fine - coarse) + reach


@dataclass(frozen=True)
class SchemeSpec:
    """A composition scheme V(W(z)): outer weights v, inner weights w.

    The outer series starts at index 1, so v must have v_0 = 0.
    """

    v: WeightSequence
    w: WeightSequence

    def __post_init__(self) -> None:
        if self.v.term(0) != 0.0:
            raise ValueError("outer sequence must have v_0 = 0")

    def to_config(self) -> dict:
        return {"v": self.v.to_config(), "w": self.w.to_config()}

    @staticmethod
    def from_config(cfg: dict) -> "SchemeSpec | ExtendedSpec | ProductSpec":
        """A ``ProductSpec`` for a config with ``product_factors``, an
        ``ExtendedSpec`` for one with a non-empty ``h``, else a composition
        scheme."""
        if "product_factors" in cfg:
            _known_keys(cfg, ("product_factors",), "a product scheme")
            return ProductSpec(tuple(WeightSequence.from_config(f) for f in cfg["product_factors"]))
        _known_keys(cfg, ("v", "w", "h"), "a scheme")
        base = SchemeSpec(v=WeightSequence.from_config(cfg["v"]), w=WeightSequence.from_config(cfg["w"]))
        h = cfg.get("h")
        return ExtendedSpec(base, WeightSequence.from_config(h)) if h else base

    def fingerprint(self) -> str:
        import hashlib
        import json

        blob = json.dumps(self.to_config(), sort_keys=True)
        return hashlib.sha1(blob.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ExtendedSpec:
    """An extended composition scheme H(z) V(W(z)): the plain scheme
    ``base`` and the prefactor ``h``.  It has no ``v`` or ``w``, so a
    plain-model function fails on its first read of one.  Its count law is
    ``exact.extended_law_Nn``'s."""

    base: SchemeSpec
    h: WeightSequence

    def to_config(self) -> dict:
        return {**self.base.to_config(), "h": self.h.to_config()}

    fingerprint = SchemeSpec.fingerprint  # the sha1 of to_config()


@dataclass(frozen=True)
class ProductSpec:
    """A product structure prod_k W_k(z), its factors alone: no ``v`` or
    ``w``, so a plain-model function fails on its first read of one.  Its
    laws are ``exact.product_law``'s and its draws ``ProductSampler``'s."""

    factors: tuple[WeightSequence, ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise ValueError(f"product structures need at least two factors, got {len(self.factors)}")

    def to_config(self) -> dict:
        return {"product_factors": [f.to_config() for f in self.factors]}

    fingerprint = SchemeSpec.fingerprint  # the sha1 of to_config()
