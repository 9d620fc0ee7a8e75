"""Bundled example schemes, one per phase, plus controls.

The zeta-weight family w_n = n^-a (rho_w = 1) paired with
v_n = n^-b W(1)^-n is critical by construction: W(1) = zeta(a) is a table
float at the bundled exponents and elsewhere the certified sum ``classify``
reads, so building any of them needs numpy alone.  The registry covers every
phase of the diagram at well-understood constants:

==================  ====  ====  =====================================
name                a     b     phase
==================  ====  ====  =====================================
dense-gauss         4     2     dense critical, alpha = 2 (finite var)
dense-stable        5/2   3/2   dense critical, alpha = 3/2
dense-b3            4     3     dense critical with finite E[N] (the
                                convergent verifier's negative control)
dense-super         3/2   2     dense supercritical (rho_v = 1.2)
convergent          3/2   3     convergent, giant component
mixture             3     3     mixture, p = zeta(2)/zeta(3)
dilute              3/2   3/2   dilute, alpha = 1/2
==================  ====  ====  =====================================

``single-component`` (V(z) = z) is the degenerate control: N_n = 1 always.
The three ``extended-*`` schemes are ``ExtendedSpec``s, H(z) V(W(z)) on the convergent base.
``product-symmetric`` is no composition scheme: a ``ProductSpec`` of two n^-3 factors.
"""

from __future__ import annotations

import math

from .weights import ExtendedSpec, ProductSpec, SchemeSpec, WeightSequence

__all__ = ["bundled_scheme", "bundled_names", "bell_scheme", "zeta_scheme"]

# float(scipy.special.zeta(a)) at the exponents of the bundled schemes:
# every golden byte of them follows scipy's floats, which are not the
# correctly rounded ones (at a = 2.5 scipy's is 1 ulp above).
_ZETA = {
    1.5: 2.612375348685488,
    2.5: 1.3414872572509173,
    3.0: 1.2020569031595942,
    4.0: 1.0823232337111381,
}


def zeta_scheme(a: float, b: float, c_v: float = 1.0) -> SchemeSpec:
    """Critical scheme with w_n = n^-a (rho_w = 1) and v_n = c_v n^-b rho_v^-n,
    rho_v = W(1) = zeta(a).

    Off ``_ZETA`` rho_v is the certified sum W(1) that ``classify`` compares
    it with, so the scheme is critical bit for bit.  a <= 1, where W(1)
    diverges, is a ``ValueError``.
    """
    w = WeightSequence.closed_form(c=1.0, e=a, rho=1.0)
    rho_v = _ZETA.get(a)
    if rho_v is None:
        rho_v = w.series_value(1.0)
        if not math.isfinite(rho_v):
            raise ValueError(f"zeta_scheme needs a > 1: W(1) = sum n^-{a} diverges")
    v = WeightSequence.closed_form(c=c_v, e=b, rho=rho_v)
    return SchemeSpec(v=v, w=w)


def bell_scheme(n_max: int = 260) -> SchemeSpec:
    """Set partitions with uniform block weights: v_i = w_i = 1/i!, w_0 = 0.

    Represented explicitly out to n_max; beyond index 170 the coefficients
    underflow double precision, so the truncation is exact for every
    desk-scale use.
    """
    coeffs_w = [0.0] + [math.exp(-math.lgamma(i + 1.0)) for i in range(1, n_max + 1)]
    return SchemeSpec(
        v=WeightSequence.explicit(coeffs_w),
        w=WeightSequence.explicit(coeffs_w),
    )


def _single_component(a: float = 4.0) -> SchemeSpec:
    return SchemeSpec(
        v=WeightSequence.explicit([0.0, 1.0]),
        w=WeightSequence.closed_form(c=1.0, e=a, rho=1.0),
    )


def _dense_super() -> SchemeSpec:
    # W(1) = zeta(3/2) ~ 2.612 > rho_v = 1.2: supercritical, gcd support 1.
    w = WeightSequence.closed_form(c=1.0, e=1.5, rho=1.0)
    v = WeightSequence.closed_form(c=1.0, e=2.0, rho=1.2)
    return SchemeSpec(v=v, w=w)


def _product_symmetric(a: float = 3.0) -> ProductSpec:
    f = WeightSequence.closed_form(c=1.0, e=a, rho=1.0)
    return ProductSpec((f, f))


_BUILDERS = {
    "bell": bell_scheme,
    "dense-gauss": lambda: zeta_scheme(4.0, 2.0),
    "dense-stable": lambda: zeta_scheme(2.5, 1.5),
    "dense-b3": lambda: zeta_scheme(4.0, 3.0),
    "dense-super": _dense_super,
    "convergent": lambda: zeta_scheme(1.5, 3.0),
    "mixture": lambda: zeta_scheme(3.0, 3.0),
    "dilute": lambda: zeta_scheme(1.5, 1.5),
    "single-component": _single_component,
    # extended-scheme regimes on top of the convergent base (u_n ~ C n^-3/2):
    # lighter prefactor tail -> base behavior survives
    "extended-light": lambda: ExtendedSpec(
        zeta_scheme(1.5, 3.0), WeightSequence.closed_form(c=1.0, e=3.0, rho=1.0, term0=1.0)
    ),
    # heavier prefactor tail -> Boltzmann limit
    "extended-heavy": lambda: ExtendedSpec(
        zeta_scheme(1.5, 3.0), WeightSequence.closed_form(c=1.0, e=1.25, rho=1.0, term0=1.0)
    ),
    # matched tails -> mixture of the two
    "extended-matched": lambda: ExtendedSpec(
        zeta_scheme(1.5, 3.0), WeightSequence.closed_form(c=1.0, e=1.5, rho=1.0, term0=1.0)
    ),
    "product-symmetric": _product_symmetric,
}


def bundled_names() -> list[str]:
    return sorted(_BUILDERS)


def bundled_scheme(name: str) -> SchemeSpec | ExtendedSpec | ProductSpec:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown bundled scheme {name!r}; available: {', '.join(bundled_names())}"
        ) from None
