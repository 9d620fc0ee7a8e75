"""Order statistics and the small checks the benchmark reports."""

from __future__ import annotations

import math


def percentile(values, q: float) -> tuple[float, int, int]:
    """Nearest-rank q-th percentile of ``values``.

    Returns (value, sample count, samples strictly above the rank), so a
    report can say how many observations lie beyond the figure it quotes.
    """
    if not 0.0 < q <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[rank - 1], len(xs), len(xs) - rank


def chi_square_bins(observed, expected, min_expected: float = 5.0):
    """Merge adjacent cells until each expects at least ``min_expected``.

    Cells are consecutive support points; a short remainder joins the last
    bin.  Returns (observed, expected) per bin.
    """
    obs_bins, exp_bins = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= min_expected:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0.0 or o_acc > 0.0:
        if obs_bins:
            obs_bins[-1] += o_acc
            exp_bins[-1] += e_acc
        else:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
    return obs_bins, exp_bins
