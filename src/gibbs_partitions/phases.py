"""Phase classification of composition schemes.

Decides which asymptotic regime a scheme occupies (dense, convergent,
mixture, dilute, or unclassified) and computes every constant the limit
statements need: the stable index alpha, the mean component size mu, the
scale constant gamma, the evaluation radius rho_u, fluctuation scales, the
mixture weight p, and the dilute rate lambda.

Classification is syntactic on the closed forms (it reads the exponents
a, b, the radii, and the slowly varying factors); it never sniffs
asymptotics numerically, and it reports "unclassified" rather than guess.
Explicit (polynomial) sequences participate only through the special cases
they genuinely support: a polynomial outer series yields a convergent
scheme, a polynomial inner series an aperiodic supercritical dense one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum

from .weights import SchemeSpec, WeightSequence

__all__ = [
    "Phase",
    "Criticality",
    "Scale",
    "PhaseReport",
    "classify",
]

_CRIT_RTOL = 1e-9


class Phase(str, Enum):
    dense_critical = "dense_critical"
    dense_supercritical = "dense_supercritical"
    convergent = "convergent"
    mixture = "mixture"
    dilute = "dilute"
    unclassified = "unclassified"


class Criticality(str, Enum):
    subcritical = "subcritical"
    critical = "critical"
    supercritical = "supercritical"


@dataclass(frozen=True)
class Scale:
    """Shape of a fluctuation scale.

    ``total(n, alpha)`` evaluates the full scale including the n**(1/alpha)
    growth: a ``constant`` shape means a constant slowly varying part in
    front of n**(1/alpha); ``sqrt_n_log_n`` already embeds the growth
    (the infinite-variance alpha = 2 case).
    """

    shape: str  # "constant" | "sqrt_n_log_n"
    coeff: float

    def total(self, n: float, alpha: float) -> float:
        if self.shape == "constant":
            return self.coeff * n ** (1.0 / alpha)
        if self.shape == "sqrt_n_log_n":
            return self.coeff * math.sqrt(n * math.log(n))
        raise ValueError(f"unknown scale shape {self.shape!r}")


@dataclass(frozen=True)
class PhaseReport:
    """Classification outcome with every derived constant.

    Absent fields mean the quantity diverges or is not defined in the
    reported phase; they are never replaced by fabricated numbers.
    """

    phase: Phase
    criticality: Criticality
    a: float | None = None
    b: float | None = None
    alpha: float | None = None
    mu: float | None = None
    gamma: float | None = None
    rho_u: float | None = None
    w_value: float | None = None  # W(rho_u)
    c_w: float | None = None
    v_prime: float | None = None  # V'(W(rho_w))
    mixture_p: float | None = None
    mixture_p_frac: float | None = None
    dilute_lambda: float | None = None
    convergent_condition: str | None = None
    scale_g: Scale | None = None
    scale_L: Scale | None = None

    def nn_scale(self, n: float) -> float:
        """Fluctuation scale of the count N_n: L(n) * n**(1/alpha)."""
        if self.scale_L is None or self.alpha is None:
            raise ValueError("no count scale in this phase")
        return self.scale_L.total(n, self.alpha)

    def to_json(self) -> dict:
        """Every field in declaration order; enums as their values, and each
        scale as its ``_shape``, ``_coeff`` and ``_exponent`` (None when absent;
        no shape has an exponent, so ``_exponent`` is always None and stays
        only to keep the keys of the JSON report fixed)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("scale_"):
                for part in ("shape", "coeff", "exponent"):
                    out[f"{f.name}_{part}"] = getattr(value, part, None)
            else:
                out[f.name] = value.value if isinstance(value, Enum) else value
        return out


# ---------------------------------------------------------------------------
# elementary scheme quantities


def _w_at_radius(w: WeightSequence) -> float:
    """W evaluated at its radius; +inf for divergent or polynomial-with-tail."""
    if w.is_explicit:
        # A polynomial has infinite radius; W(t) -> inf iff any positive
        # coefficient sits at index >= 1.
        return math.inf if any(c > 0 for c in w.coeffs[1:]) else w.term(0)
    return w.series_value(w.rho)


def _criticality(scheme: SchemeSpec, w_val: float) -> Criticality:
    """W(rho_w) = ``w_val`` against rho_v, critical within
    1e-9 max(rho_v, 1); undefined (ValueError) when both are infinite."""
    rho_v = scheme.v.radius()
    if math.isinf(w_val) and math.isinf(rho_v):
        raise ValueError("criticality undefined: both W(rho_w) and rho_v are infinite")
    if math.isinf(rho_v):
        return Criticality.subcritical
    if math.isinf(w_val):
        return Criticality.supercritical
    if abs(w_val - rho_v) <= _CRIT_RTOL * max(rho_v, 1.0):
        return Criticality.critical
    return Criticality.subcritical if w_val < rho_v else Criticality.supercritical


def _bisect(pred, lo: float, hi: float, rtol: float) -> tuple[float, float]:
    """Shrink the bracket [lo, hi] of the point where ``pred`` turns false.

    ``pred(mid)`` moves ``lo`` up to the midpoint, otherwise ``hi`` comes
    down; stops once ``hi - lo <= rtol * max(hi, 1e-300)`` or after 200
    halvings.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * max(hi, 1e-300):
            break
    return lo, hi


def _double(pred, cap: float = math.inf) -> tuple[float, bool]:
    """The first of hi = 1, 2, 4, ... where ``pred`` fails or that passes
    ``cap``, and whether ``pred(hi)`` still holds there."""
    hi = 1.0
    while (holds := pred(hi)) and hi <= cap:
        hi *= 2.0
    return hi, holds


def _w_root(scheme: SchemeSpec, rtol: float) -> tuple[float, float]:
    """Bracket of rho_u, the root of W(rho_u) = rho_v in a supercritical
    scheme, to relative ``rtol``: W increases, so bisection from [0, rho_w],
    or for an entire W from [0, hi] with hi doubled from 1 until
    W(hi) >= rho_v.  A W divergent at rho_w needs no care: its midpoints
    above the root fail the test."""
    w, rho_v = scheme.w, scheme.v.radius()

    def below(t: float) -> bool:
        return w.series_value(t) < rho_v

    hi = w.radius()
    if math.isinf(hi):
        hi = _double(below)[0]
    return _bisect(below, 0.0, hi, rtol)


def _rho_u(scheme: SchemeSpec) -> tuple[float, float]:
    """rho_u, the radius of convergence of U = V(W(.)), and W(rho_u) for a
    supercritical scheme: the midpoint of ``_w_root``'s bracket of
    W(rho_u) = rho_v at relative 1e-12.  Critical and subcritical schemes
    keep rho_u = rho_w."""
    lo, hi = _w_root(scheme, 1e-12)
    rho_u = 0.5 * (lo + hi)
    return rho_u, scheme.w.series_value(rho_u)


def _mu(scheme: SchemeSpec, rho_u: float, W: float) -> float:
    """Mean component size mu = sum_n n w_n rho_u^n / W, with W = W(rho_u)
    already summed; +inf allowed."""
    if not math.isfinite(W) or W <= 0:
        raise ValueError(f"W(rho_u) must be positive finite, got {W}")
    m1 = scheme.w.weighted_moment(rho_u, 1)
    return m1 / W


def _v_prime(scheme: SchemeSpec, w_val: float, crit: Criticality) -> float:
    """V'(W(rho_w)) = sum_l l v_l W^(l-1); +inf when divergent.  At
    criticality it is read at min(W(rho_w), rho_v): the criticality band
    can put W(rho_w) just past rho_v, where V' diverges."""
    at = min(w_val, scheme.v.radius()) if crit is Criticality.critical else w_val
    m1 = scheme.v.weighted_moment(at, 1)
    return m1 / at if math.isfinite(m1) else math.inf


def _heaviest(tails) -> list[int]:
    """Indices of the heaviest coefficient tails among (rho, e, log_exp)
    triples, c log(2+n)^log_exp n^-e rho^-n: the smallest radius, radii
    within ``_criticality``'s band tied, then the smallest exponent, then
    the largest log power."""
    rho = min(t[0] for t in tails)
    tied = [k for k, t in enumerate(tails) if t[0] <= rho + _CRIT_RTOL * max(rho, 1.0)]
    e = min(tails[k][1] for k in tied)
    tied = [k for k in tied if tails[k][1] == e]
    log_exp = max(tails[k][2] for k in tied)
    return [k for k in tied if tails[k][2] == log_exp]


def _tie_weights(coeffs, values) -> list[float]:
    """Macroscopic-index weights of a tied class: c_k / F_k normalized over
    it, with F_k each factor's series at its own radius."""
    ratios = [c / f for c, f in zip(coeffs, values)]
    total = sum(ratios)
    return [r / total for r in ratios]


def _gcd_of_support(w: WeightSequence, count: int = 1000, scan: int = 100000) -> int:
    g = 0
    found = 0
    for n in range(1, scan + 1):
        if w.term(n) > 0:
            g = math.gcd(g, n)
            found += 1
            if g == 1 or found >= count:
                break
    return g


def _mixture_constants(scheme: SchemeSpec, mu: float, vp: float) -> tuple[float, float]:
    """The mixture constants (p, p / (1 + p)) from mu and vp = V'(W(rho_w)).

    p = mu^(a-1) / V'(W(rho_w)) * lim L_v(n) / L_w(n).  The stopped-sum
    asymptotics split P(S_N = n) into a dense and a convergent term whose
    ratio tends to p, so lim P(E_n) = p/(1+p) (README), the constant the
    mixture verifier measures.
    """
    p = mu ** (scheme.w.e - 1.0) / vp * (scheme.v.L.c / scheme.w.L.c)
    return p, p / (1.0 + p)


# ---------------------------------------------------------------------------
# dense-scale helpers


def _dense_scales(
    scheme: SchemeSpec, rho_u: float, W: float, alpha: float, mu: float
) -> tuple[Scale | None, Scale | None]:
    """(scale_g, scale_L) for a dense or mixture scheme, W = W(rho_u); None
    when the constants are not expressible (non-constant L_w in the infinite
    variance cases)."""
    w = scheme.w
    m2 = w.weighted_moment(rho_u, 2)
    if math.isfinite(m2):
        var = m2 / W - mu * mu
        g = Scale("constant", math.sqrt(var / 2.0))
    else:
        if w.is_explicit or not w.L.is_constant:
            return None, None
        c_w = w.L.c
        if alpha == 2.0:
            # K(x) ~ (c_w / W) log x; normalizing to the variance-2 limit
            # gives the combined scale (1/2) sqrt(c_w n log n / W).
            g = Scale("sqrt_n_log_n", 0.5 * math.sqrt(c_w / W))
        else:
            # P(X >= x) ~ c_w / (W alpha) x^-alpha; Levy-measure matching
            # gives g = (c_w |Gamma(1-alpha)| / (W alpha))^(1/alpha).
            g = Scale(
                "constant",
                (c_w * abs(math.gamma(1.0 - alpha)) / (W * alpha)) ** (1.0 / alpha),
            )
    factor = mu ** (-1.0 - 1.0 / alpha)
    L = Scale(g.shape, factor * g.coeff)
    return g, L


def _dense_report(
    phase: Phase, crit: Criticality, scheme: SchemeSpec, alpha: float, rho_u: float, W: float
) -> PhaseReport:
    """The report of a dense or mixture scheme at radius rho_u, W = W(rho_u):
    mu, the scales, and gamma = (-cos(pi alpha / 2))^(1/alpha)."""
    v, w = scheme.v, scheme.w
    mu = _mu(scheme, rho_u, W)
    scale_g, scale_L = _dense_scales(scheme, rho_u, W, alpha, mu)
    return PhaseReport(
        phase,
        crit,
        a=None if w.is_explicit else w.e,
        b=None if v.is_explicit else v.e,
        alpha=alpha,
        mu=mu,
        gamma=(-math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha),
        rho_u=rho_u,
        w_value=W,
        c_w=w.L.c if (not w.is_explicit and w.L.is_constant) else None,
        scale_g=scale_g,
        scale_L=scale_L,
    )


# ---------------------------------------------------------------------------
# the classifier


def _convergent_condition(scheme: SchemeSpec, crit: Criticality, heavier) -> str | None:
    """First matching sufficient condition (checked syntactically), or None;
    ``heavier`` is ``classify``'s critical tail order."""
    v, w = scheme.v, scheme.w
    # i) critical, regularly varying, b > 2 and W's tail strictly heavier
    if heavier == [1] and v.e > 2.0 and 1.0 < w.e:
        return "i"
    # ii) strictly subcritical with a subexponential inner sequence
    if crit is Criticality.subcritical and not w.is_explicit and w.e > 1.0:
        return "ii"
    # iv-b) constant c_w and 1 < a < 2.  The paper's iii and iv-a, c-e each
    # imply i, tested first, and so does iv-b with b > 2; iv-b becomes
    # reachable at b = 2 with log_exp < -1 once ``weights`` stops reporting
    # V'(W(rho_w)) there as divergent
    if (
        crit is Criticality.critical
        and not v.is_explicit
        and not w.is_explicit
        and w.L.is_constant
        and 1.0 < w.e < 2.0
    ):
        return "iv-b"
    return None


def classify(scheme: SchemeSpec) -> PhaseReport:
    """Phase decision tree with all derived constants.

    Order: dilute, dense (critical), dense (supercritical), mixture,
    convergent, unclassified.  Divergent prerequisite quantities appear as
    absent fields, never as fabricated numbers.
    """
    v, w = scheme.v, scheme.w
    try:
        w_val = _w_at_radius(w)  # summed once: every W(rho_w) below is this one
        crit = _criticality(scheme, w_val)
    except ValueError:
        return PhaseReport(Phase.unclassified, Criticality.subcritical)

    a = w.e if not w.is_explicit else None
    b = v.e if not v.is_explicit else None
    # at criticality, which tail of U's coefficients is heavier: [0] V's
    # alone (dense), [1] W's alone (convergent), [0, 1] a tie (mixture)
    heavier = None
    if crit is Criticality.critical and a is not None and b is not None:
        heavier = _heaviest([(w.rho, b, v.L.log_exp), (w.rho, a, w.L.log_exp)])

    # --- dilute: critical with both exponents in (1, 2), constant c_w
    if (
        crit is Criticality.critical
        and a is not None
        and b is not None
        and 1.0 < a < 2.0
        and 1.0 < b < 2.0
        and w.L.is_constant
    ):
        alpha = a - 1.0
        c_w = w.L.c
        lam = c_w * math.gamma(1.0 - alpha) / (w_val * alpha)
        gamma = (lam * math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha)
        return PhaseReport(
            Phase.dilute,
            crit,
            a=a,
            b=b,
            alpha=alpha,
            mu=None,  # E[X] diverges for a < 2
            gamma=gamma,
            rho_u=w.rho,
            w_value=w_val,
            c_w=c_w,
            dilute_lambda=lam,
        )

    # --- dense case i: critical with V's tail strictly heavier
    if heavier == [0] and a > 2.0 and b > 1.0:
        return _dense_report(Phase.dense_critical, crit, scheme, min(a - 1.0, 2.0), w.radius(), w_val)

    # --- dense case ii: supercritical and aperiodic
    if crit is Criticality.supercritical and b is not None and b > 1.0:
        if _gcd_of_support(w) == 1:
            rho_u, W = _rho_u(scheme)
            return _dense_report(Phase.dense_supercritical, crit, scheme, 2.0, rho_u, W)
        return PhaseReport(Phase.unclassified, crit, a=a, b=b)

    # --- mixture: critical, tied tails with exponents above 2
    if heavier == [0, 1] and a > 2.0:
        vp = _v_prime(scheme, w_val, crit)
        if math.isfinite(vp) and vp > 0:
            report = _dense_report(Phase.mixture, crit, scheme, min(a - 1.0, 2.0), w.radius(), w_val)
            p, p_frac = _mixture_constants(scheme, report.mu, vp)
            return replace(report, v_prime=vp, mixture_p=p, mixture_p_frac=p_frac)

    # --- convergent: finite positive V'(W(rho_w)) plus a sufficient condition
    if math.isfinite(w_val) and w_val > 0:
        vp = _v_prime(scheme, w_val, crit)
        if math.isfinite(vp) and vp > 0:
            cond = _convergent_condition(scheme, crit, heavier)
            if cond is not None:
                return PhaseReport(
                    Phase.convergent,
                    crit,
                    a=a,
                    b=b,
                    rho_u=w.radius(),
                    w_value=w_val,
                    c_w=w.L.c if (not w.is_explicit and w.L.is_constant) else None,
                    v_prime=vp,
                    convergent_condition=cond,
                )

    return PhaseReport(Phase.unclassified, crit, a=a, b=b)
