"""Gibbs partition / composition scheme models: phase diagram, exact laws,
samplers, limit laws, and limit-theorem verifiers."""

from .weights import SlowVarying, WeightSequence, SchemeSpec, ExtendedSpec, ProductSpec
from .phases import Phase, Criticality, Scale, PhaseReport, classify
from .exact import (
    DiscreteLaw,
    tv_distance,
    law_X,
    law_N,
    law_Nhat,
    law_Nn,
    stopped_sum_law,
    profile_law,
    prefix_law,
    giant_deficit_law,
    product_law,
    extended_law_Nn,
)
from .schemes import bundled_scheme, bundled_names

__all__ = [
    "SlowVarying",
    "WeightSequence",
    "SchemeSpec",
    "ExtendedSpec",
    "ProductSpec",
    "Phase",
    "Criticality",
    "Scale",
    "PhaseReport",
    "classify",
    "DiscreteLaw",
    "tv_distance",
    "law_X",
    "law_N",
    "law_Nhat",
    "law_Nn",
    "stopped_sum_law",
    "profile_law",
    "prefix_law",
    "giant_deficit_law",
    "product_law",
    "extended_law_Nn",
    "bundled_scheme",
    "bundled_names",
]

__version__ = "0.1.0"
