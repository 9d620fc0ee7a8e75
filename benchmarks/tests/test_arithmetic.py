"""The benchmark's own arithmetic: percentiles, self times, wrapper restore.

    PYTHONPATH=src:benchmarks python3 -m pytest benchmarks/tests -q
"""

import sys

import pytest

import clock
import tracing
from measure import chi_square_bins, percentile


def test_percentile_reports_rank_and_samples_beyond():
    values = list(range(1, 1001))  # 1..1000
    assert percentile(values, 99) == (990, 1000, 10)
    assert percentile(values, 50) == (500, 1000, 500)
    assert percentile([3.0, 1.0, 2.0], 100) == (3.0, 3, 0)
    # too few samples: p99 of twelve is the maximum, with none beyond
    assert percentile(range(12), 99) == (11, 12, 0)


def test_percentile_rejects_empty_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_self_time_without_children():
    assert tracing.self_time(1.0, 4.0, []) == 3.0


def test_self_time_nested_children_count_once():
    # (2, 3) lies inside (1, 5): only the outer child's cover counts
    assert tracing.self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0)]) == pytest.approx(6.0)


def test_self_time_overlapping_and_clipped_children():
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]  # overlap, and one past the end
    assert tracing.self_time(0.0, 10.0, children) == pytest.approx(10.0 - 5.0 - 2.0)
    assert tracing.self_time(0.0, 10.0, [(-5.0, -1.0)]) == 10.0


def test_summarize_counts_recursion_once():
    spans = [
        ("a", 0.0, 10.0, -1, "r", None),
        ("b", 1.0, 4.0, 0, "r", None),
        ("a", 2.0, 3.0, 1, "r", None),  # a reached again through b
        ("c", 5.0, 6.0, 0, "r", 7),
        ("c", 6.0, 8.0, 0, "r", 9),
    ]
    s = tracing.summarize(spans)
    assert s["a"]["calls"] == 2
    assert s["a"]["s"] == pytest.approx(10.0)
    assert s["a"]["self_s"] == pytest.approx(4.0 + 1.0)
    assert s["b"]["self_s"] == pytest.approx(2.0)
    assert s["c"]["s"] == pytest.approx(3.0)
    assert s["c@n9"] == {"calls": 1, "s": 2.0, "self_s": 2.0}


def test_covered_outside_uses_every_descendant():
    spans = [
        ("cli.main", 0.0, 10.0, -1, "r", None),
        ("verify.x", 0.0, 9.0, 0, "r", None),  # not a computing layer
        ("exact.law_Nn", 1.0, 3.0, 1, "r", None),
        ("weights.series_value", 2.0, 2.5, 2, "r", None),
        ("laws.dilute_Z_cdf", 5.0, 6.0, 1, "r", None),
    ]
    assert tracing.covered_outside(spans, "cli.main", ("exact", "laws")) == pytest.approx(7.0)


def test_chi_square_bins_merge_small_cells():
    obs, exp = chi_square_bins([1, 2, 10, 3, 1], [1.0, 3.0, 10.0, 4.0, 2.0])
    assert exp == [14.0, 6.0]
    assert obs == [13, 4]
    # a short remainder joins the last bin
    assert chi_square_bins([7, 1], [6.0, 2.0]) == ([8], [8.0])


def test_clock_removes_probe_time_and_scales_gaps(monkeypatch):
    monkeypatch.setattr(clock, "REFERENCE_PROBE_S", 1.0)
    c = clock.Clock()
    c.probes = [(0.0, 1.0), (11.0, 13.0), (23.0, 24.0)]  # durations 1, 2, 1
    c._index()
    # both gaps sit between probes of mean duration 1.5: scale 1 / 1.5
    assert c.seconds(1.0, 11.0) == pytest.approx(10.0 / 1.5)
    assert c.seconds(0.0, 24.0) == pytest.approx(20.0 / 1.5)  # probe time removed
    assert c.seconds(11.5, 12.5) == 0.0
    assert c.seconds(5.0, 17.0) == pytest.approx(10.0 / 1.5)
    # outside the probes, the nearest probe sets the scale
    assert c.seconds(24.0, 26.0) == pytest.approx(2.0)
    assert c.seconds(-2.0, 0.5) == pytest.approx(2.0)
    assert c.slowdown(1.0, 11.0) == pytest.approx(1.5)


def test_recorder_restores_every_wrapped_function():
    gp = pytest.importorskip("gibbs_partitions")
    from gibbs_partitions import exact, sampling
    from gibbs_partitions.weights import WeightSequence

    before = {
        "exact.law_Nn": exact.law_Nn,
        "sampling.law_Nn": sampling.law_Nn,
        "package.law_Nn": gp.law_Nn,
        "series_value": WeightSequence.__dict__["series_value"],
        "sample": sampling.ExactSampler.__dict__["sample"],
    }
    rec = tracing.Recorder("test")
    with rec:
        assert exact.law_Nn is not before["exact.law_Nn"]
        assert sampling.law_Nn is exact.law_Nn  # `from .exact import` sites share the wrapper
        law = exact.law_Nn(gp.bundled_scheme("convergent"), 50)
        smp = sampling.ExactSampler(gp.bundled_scheme("convergent"), 50)
        draw = smp.sample(sampling.make_rng(1, 0))
    assert tracing.still_wrapped() == []
    assert exact.law_Nn is before["exact.law_Nn"]
    assert sampling.law_Nn is before["sampling.law_Nn"]
    assert gp.law_Nn is before["package.law_Nn"]
    assert WeightSequence.__dict__["series_value"] is before["series_value"]
    assert sampling.ExactSampler.__dict__["sample"] is before["sample"]
    names = {sp[0] for sp in rec.spans}
    assert {"exact.law_Nn", "exact.default_rho", "weights.series_value",
            "sampling.ExactSampler.init", "sampling.sample"} <= names
    assert rec.counters["sampling.sample"] == draw.n_components
    assert abs(law.pmf.sum() - 1.0) < 1e-12
    outer = [sp for sp in rec.spans if sp[0] == "exact.law_Nn" and sp[3] == -1]
    assert outer[0][5] == 50  # the n argument is recorded
    assert all(sp[4] == "test" for sp in rec.spans)
    for i, sp in enumerate(rec.spans):  # parents precede their children
        assert sp[3] < i


def test_recorder_restores_after_an_exception():
    pytest.importorskip("gibbs_partitions")
    from gibbs_partitions import exact

    original = exact.law_Nn
    with pytest.raises(ZeroDivisionError):
        with tracing.Recorder("boom"):
            1 / 0
    assert exact.law_Nn is original
    assert tracing.still_wrapped() == []
