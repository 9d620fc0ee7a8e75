"""Verifier battery at desk scale plus suite-runner plumbing: negative
controls, structured config errors, CSV/verdict outputs, determinism."""

import dataclasses
import functools
import hashlib
import inspect
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from gibbs_partitions import bundled_names, bundled_scheme, exact, verify
from gibbs_partitions.phases import Phase, classify
from gibbs_partitions.verify import (
    PhaseMismatchError,
    SuiteConfigError,
    run_suite,
    verify_convergent,
    verify_dense_extremes,
    verify_dense_llt,
    verify_dilute,
    verify_extended,
    verify_mixture,
    verify_prefix_independence,
    verify_product,
)
from gibbs_partitions.weights import SchemeSpec, WeightSequence


def test_dense_llt_trend(dense_gauss):
    reports, csvs = verify_dense_llt(dense_gauss, [250, 500, 1000], tol=0.06)
    (r,) = reports
    assert r.passed and r.trend_nonincreasing
    assert r.observed[-1] < 0.05
    header, rows = csvs[500]
    assert header[0] == "ell"
    # central-bucket sanity: discrepancy near x = 0 is below the window sup
    central = rows[np.abs(rows[:, 1]) <= 0.1]
    assert np.max(np.abs(central[:, 2] - central[:, 3])) <= r.observed[1] + 1e-15


def test_dense_llt_phase_gate(dilute):
    with pytest.raises(PhaseMismatchError):
        verify_dense_llt(dilute, [100])


def test_prefix_negative_control(single_component):
    reports, _ = verify_prefix_independence(single_component, [100, 200])
    assert not reports[0].passed
    assert reports[0].observed[-1] > 0.9


def test_convergent_negative_control():
    # a dense scheme with finite E[N]: the count law does not converge to
    # the size-biased limit, so the verifier must fail
    reports, _ = verify_convergent(bundled_scheme("dense-b3"), 400, replicates=20)
    by_name = {r.experiment: r for r in reports}
    assert not by_name["convergent_counts"].passed


def test_convergent_positive(convergent):
    reports, _ = verify_convergent(convergent, 600, replicates=800, seed=3)
    by_name = {r.experiment: r for r in reports}
    assert by_name["convergent_counts"].passed
    assert by_name["convergent_deficit"].passed
    assert by_name["convergent_fragments"].passed


def test_mixture_verifier(mixture):
    reports, _ = verify_mixture(mixture, [400, 800])
    by_name = {r.experiment: r for r in reports}
    split = by_name["mixture_split_probability"]
    assert split.passed
    # one limit, p/(1+p); the observations are the distances to it
    p_frac = split.details["p_frac"]
    assert split.observed == [abs(pe - p_frac) for pe in split.details["observed_P"]]
    assert "winner" not in split.details
    assert 0.0 < split.details["observed_P"][-1] < 1.0
    assert by_name["mixture_conditional_llt"].trend_nonincreasing


def test_mixture_values_at_each_n_do_not_depend_on_the_ladder(mixture):
    """Each metric at a size reads the same whichever order the ladder
    takes: each size gets its own N-hat law."""
    up, _ = verify_mixture(mixture, [500, 1000])
    down, _ = verify_mixture(mixture, [1000, 500])
    for a, b in zip(up, down):
        assert a.observed == b.observed[::-1], a.experiment
    assert up[0].details["observed_P"] == down[0].details["observed_P"][::-1]


def test_dense_extremes_alpha2_quantile_trend(dense_gauss):
    reports, _ = verify_dense_extremes(
        dense_gauss, [300, 600, 1200], replicates=400, seed=5
    )
    by_name = {r.experiment: r for r in reports}
    trend = by_name["dense_extremes"]
    assert trend.metric == "max-q90-shrinks"
    assert trend.passed  # rescaled maximum degenerates for alpha = 2


def test_run_suite_dense_extremes_n_stands_for_a_ladder(tmp_path):
    # at alpha = 2 the maximum's quantile is sampled at each of the three sizes
    cfg = {"experiments": [{"id": "x", "verifier": "dense_extremes", "scheme": "dense-gauss",
                            "n": 300, "replicates": 100}]}
    run_suite(cfg, tmp_path / "out")
    verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())["verdicts"]
    (trend,) = [v for v in verdicts if v["experiment"] == "x.dense_extremes"]
    assert trend["metric"] == "max-q90-shrinks" and trend["n_values"] == [75, 150, 300]
    assert sorted(int(f.stem) for f in (tmp_path / "out" / "x").glob("*.csv")) == [75, 150, 300]


class _Reached(Exception):
    """A verifier got past its gate to its first law or sampler."""


@pytest.fixture
def no_laws(monkeypatch):
    """Every exact law and sampler a verifier body starts with raises ``_Reached``."""

    def reached(*args, **kwargs):
        raise _Reached

    for name in ("law_Nn", "_prefix_laws", "extended_law_Nn"):
        monkeypatch.setattr(exact, name, reached)
    for name in ("ExactSampler", "ProductSampler"):
        monkeypatch.setattr(verify.sampling, name, reached)


def test_dense_extremes_refuses_one_size_at_alpha_2(tmp_path, dense_gauss, dense_stable, no_laws):
    # one size would make the shrinking quantile pass against itself
    with pytest.raises(PhaseMismatchError, match="two sizes or more at alpha = 2"):
        verify_dense_extremes(dense_gauss, [300])
    entry = {"verifier": "dense_extremes", "scheme": "dense-gauss", "n_ladder": [300]}
    with pytest.raises(PhaseMismatchError, match="two sizes or more at alpha = 2"):
        run_suite({"experiments": [entry]}, tmp_path / "out")
    # 1 < alpha < 2 samples the final n alone
    with pytest.raises(_Reached):
        verify_dense_extremes(dense_stable, [300])


def test_dense_extremes_refuses_a_tol_at_alpha_2(tmp_path, dense_gauss, dense_stable, no_laws):
    # the bound at alpha = 2 is the first quantile, so a tolerance would go unread
    match = "no tol at alpha = 2, where the bound is the first size's 0.9-quantile"
    with pytest.raises(PhaseMismatchError, match=match):
        verify_dense_extremes(dense_gauss, [300, 600], tol=0.1)
    entry = {"verifier": "dense_extremes", "scheme": "dense-gauss", "n_ladder": [300, 600], "tol": 0.1}
    with pytest.raises(PhaseMismatchError, match=match):
        run_suite({"experiments": [entry]}, tmp_path / "out")
    # 1 < alpha < 2 reads it
    with pytest.raises(_Reached):
        verify_dense_extremes(dense_stable, [300], tol=0.1)


# the (verifier, bundled scheme) pairs that get past the gate: 28 of 104
_ACCEPTED = {
    "dense_llt": {"dense-b3", "dense-gauss", "dense-stable", "dense-super", "mixture"},
    "dense_extremes": {"dense-b3", "dense-gauss", "dense-stable", "dense-super"},
    "prefix_independence": {"bell", "convergent", "dense-b3", "dense-gauss", "dense-stable",
                            "dense-super", "dilute", "mixture", "single-component"},
    "convergent": {"convergent", "dense-b3", "mixture", "single-component"},
    "mixture": {"mixture"},
    "dilute": {"dilute"},
    "extended": {"extended-heavy", "extended-light", "extended-matched"},
    "product": {"product-symmetric"},
}


@pytest.mark.parametrize("name", sorted(_ACCEPTED))
def test_which_bundled_schemes_each_verifier_takes(tmp_path, no_laws, name):
    """A suite experiment and a direct call agree on the schemes a verifier
    takes; every other scheme is a ``PhaseMismatchError`` before any law."""
    call = getattr(verify, f"verify_{name}")
    size = [10, 20, 40] if "n_ladder" in inspect.signature(call).parameters else 40
    for route in ("suite", "call"):
        accepted = set()
        for scheme in bundled_names():
            try:
                if route == "suite":
                    entry = {"verifier": name, "scheme": scheme, "n": 40}
                    run_suite({"experiments": [entry]}, tmp_path / "out")
                else:
                    call(bundled_scheme(scheme), size)
            except _Reached:
                accepted.add(scheme)
            except PhaseMismatchError:
                pass
        assert accepted == _ACCEPTED[name], route


def test_convergent_gate_reads_v_prime_where_classify_does(no_laws):
    # rho_v just below W(1), inside the criticality band: classify reads V'
    # at rho_v and finds the mixture, and the gate's E[N] reads it there too
    w = WeightSequence.closed_form(c=1.0, e=3.0, rho=1.0)
    v = WeightSequence.closed_form(c=1.0, e=3.0, rho=w.series_value(1.0) * (1.0 - 5e-10))
    scheme = SchemeSpec(v=v, w=w)
    assert classify(scheme).phase is Phase.mixture
    with pytest.raises(_Reached):
        verify_convergent(scheme, 40)


def test_extended_regimes_and_product():
    for name, regime in (
        ("extended-light", "base"),
        ("extended-heavy", "boltzmann"),
        ("extended-matched", "mixture"),
    ):
        reports, _ = verify_extended(bundled_scheme(name), 600)
        (r,) = reports
        assert r.details["regime"] == regime
        assert r.passed, (name, r.observed)
    reports, _ = verify_product(bundled_scheme("product-symmetric"), 500,
                                replicates=4000, seed=2)
    by_name = {r.experiment: r for r in reports}
    assert by_name["product_marginals"].passed
    assert by_name["product_symmetry"].passed
    assert by_name["product_marginals"].details["p"] == [0.5, 0.5]


def test_run_suite_product_marginals_below_eight(tmp_path):
    # the marginal table stops at k = n when n < 8
    cfg = {"experiments": [{"verifier": "product", "scheme": "product-symmetric", "n": 4}]}
    assert run_suite(cfg, tmp_path / "out") == 1  # n = 4 is far from the limit
    verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())["verdicts"]
    assert [v["experiment"].split(".")[-1] for v in verdicts] == [
        "product_marginals", "product_symmetry"
    ]
    rows = (tmp_path / "out" / "product_product-symmetric" / "4.csv").read_text().splitlines()
    assert rows[0] == "coordinate,k,marginal_pmf,mixture_prediction"
    assert [r.split(",")[:2] for r in rows[1:]] == [[str(j), str(k)] for j in (0, 1) for k in (1, 2, 3, 4)]


def test_run_suite_empty(tmp_path):
    code = run_suite({"experiments": []}, tmp_path / "out")
    assert code == 0
    data = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    assert data["verdicts"] == []


def test_run_suite_unknown_verifier(tmp_path):
    with pytest.raises(SuiteConfigError):
        run_suite(
            {"experiments": [{"verifier": "nope", "scheme": "dilute", "n": 10}]},
            tmp_path / "out",
        )


@pytest.mark.parametrize(
    "entry",
    [
        # keys another verifier takes
        {"verifier": "dense_llt", "scheme": "dense-gauss", "n": 40, "replicates": 5},
        {"verifier": "prefix_independence", "scheme": "dense-gauss", "n": 40,
         "replicates": 5},
        {"verifier": "dilute", "scheme": "dilute", "n": 40, "window": 4.0},
        {"verifier": "extended", "scheme": "extended-light", "n": 40, "replicates": 3},
        {"verifier": "product", "scheme": "product-symmetric", "n": 40, "tol": 1e-9},
        # no size
        {"verifier": "dense_llt", "scheme": "dense-gauss"},
        {"verifier": "extended", "scheme": "extended-light"},
        # a size given twice
        {"verifier": "dense_llt", "scheme": "dense-gauss", "n": 40, "n_ladder": [40]},
        # parameters no config sets
        {"verifier": "dense_llt", "scheme": "dense-gauss", "n": 40, "report": None},
        {"verifier": "dilute", "scheme": "dilute", "n": 40, "point_lows": [0.3]},
    ],
)
def test_run_suite_rejects_keys_the_verifier_does_not_take(tmp_path, entry):
    with pytest.raises(SuiteConfigError) as err:
        run_suite({"experiments": [entry]}, tmp_path / "out")
    assert "unknown verifier" not in str(err.value)


@pytest.mark.parametrize(
    "key, value",
    [
        ("tol", "x"),
        ("tol", 0.0),
        ("tol", float("nan")),
        ("tol", True),
        ("replicates", 0),
        ("replicates", "5"),
        ("replicates", 2.0),
    ],
)
def test_run_suite_checks_config_values_before_running(tmp_path, key, value):
    entry = {"verifier": "convergent", "scheme": "convergent", "n": 40, key: value}
    with pytest.raises(SuiteConfigError, match=f"'{key}' must be"):
        run_suite({"experiments": [entry]}, tmp_path / "out")
    assert not (tmp_path / "out" / "verdicts.json").exists()


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
def test_expect_fail_must_be_a_json_boolean(tmp_path, value):
    # "false" is a string, which bool() would read as a negative control
    entry = {"verifier": "prefix_independence", "scheme": "dense-gauss", "n_ladder": [40],
             "expect_fail": value}
    with pytest.raises(SuiteConfigError, match="'expect_fail' must be true or false"):
        run_suite({"experiments": [entry]}, tmp_path / "out")
    assert not (tmp_path / "out" / "verdicts.json").exists()


def test_run_suite_takes_an_integer_tolerance(tmp_path):
    cfg = {"experiments": [{"verifier": "prefix_independence", "scheme": "dense-gauss",
                            "n_ladder": [40], "tol": 1}]}
    assert run_suite(cfg, tmp_path / "out") == 0
    data = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    assert [v["tolerance"] for v in data["verdicts"]] == [1, 1]


def test_verdict_rule(dense_gauss):
    one = verify._verdict("e", dense_gauss, [40], "TV", [0.01], 0.05, ladder=True)
    assert one.trend_nonincreasing is True and one.passed
    single = verify._verdict("e", dense_gauss, [40], "TV", [0.01], 0.05)
    assert single.trend_nonincreasing is None and single.passed
    assert single.scheme_fingerprint == dense_gauss.fingerprint()
    assert not verify._verdict("e", dense_gauss, [40], "TV", [0.06], 0.05).passed
    rising = verify._verdict("e", dense_gauss, [20, 40], "TV", [0.01, 0.02], 0.05, ladder=True)
    assert rising.trend_nonincreasing is False and not rising.passed
    kept = verify._verdict(
        "e", dense_gauss, [20, 40], "TV", [0.01, 0.02], 0.05, ladder=True, passed=True
    )
    assert kept.passed is True and kept.trend_nonincreasing is False
    assert verify._verdict("e", dense_gauss, [40], "TV", [0.01], 0.05, passed=False).passed is False
    # a detail may share a name with a parameter
    named = verify._verdict("e", dense_gauss, [40], "m", [1.0], 2.0, observed=3.0, tol=4.0)
    assert named.observed == [1.0] and named.tolerance == 2.0
    assert named.details == {"observed": 3.0, "tol": 4.0}


def test_run_suite_n_stands_for_a_ladder(tmp_path):
    # a seed key is dropped where the verifier takes none
    cfg = {"experiments": [{"id": "p", "verifier": "prefix_independence",
                            "scheme": "dense-gauss", "n": 80, "seed": 4}]}
    run_suite(cfg, tmp_path / "out")
    data = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    assert [v["n_values"] for v in data["verdicts"]] == [[20, 40, 80]] * 2


def test_runtimes_one_entry_per_experiment_in_config_order(tmp_path):
    cfg = {
        "experiments": [
            {"id": "z", "verifier": "prefix_independence", "scheme": "dense-gauss",
             "n_ladder": [40]},
            {"verifier": "extended", "scheme": "extended-light", "n": 100},
            {"id": "a", "verifier": "convergent", "scheme": "convergent", "n": 100,
             "replicates": 20},
        ]
    }
    run_suite(cfg, tmp_path / "out")
    runtimes = json.loads((tmp_path / "out" / "runtimes.json").read_text())
    assert list(runtimes) == ["z", "extended:extended-light", "a"]
    assert all(sec >= 0.0 for sec in runtimes.values())


@pytest.fixture
def extended_runs(monkeypatch):
    """The keyword arguments of every run of the extended verifier's body."""
    ran = []
    extended = verify._VERIFIERS["extended"]

    @functools.wraps(extended.body)
    def counted(*args, **kwargs):
        ran.append(kwargs)
        return extended.body(*args, **kwargs)

    monkeypatch.setitem(verify._VERIFIERS, "extended", dataclasses.replace(extended, body=counted))
    return ran


def test_run_suite_rejects_a_repeated_id_before_running(tmp_path, extended_runs):
    for ids, named in [
        (["first", None, None], "'extended:extended-light'"),
        # one output directory, a_b, for two different ids
        (["a:b", "a_b"], "'a:b' and 'a_b'"),
    ]:
        experiments = [{"verifier": "extended", "scheme": "extended-light", "n": 100 + i}
                       for i in range(len(ids))]
        for entry, exp_id in zip(experiments, ids):
            if exp_id is not None:
                entry["id"] = exp_id
        with pytest.raises(SuiteConfigError, match=named):
            run_suite({"experiments": experiments}, tmp_path / "out")
    assert extended_runs == []


@pytest.mark.parametrize(
    "config_seed, entry_seed, seed",
    [("abc", 2, None), (-1, 2, None), (1, 1.5, None), (1, True, None), (1, 2, -1)],
)
def test_run_suite_rejects_a_bad_seed_before_running(
    tmp_path, extended_runs, config_seed, entry_seed, seed
):
    cfg = {
        "seed": config_seed,
        "experiments": [
            {"verifier": "extended", "scheme": "extended-light", "n": 100},
            {"id": "b", "verifier": "extended", "scheme": "extended-light", "n": 100,
             "seed": entry_seed},
        ],
    }
    with pytest.raises(SuiteConfigError, match="'seed' must be a non-negative integer"):
        run_suite(cfg, tmp_path / "out", seed=seed)
    assert extended_runs == []


def test_convergent_limit_tuples_at_zero_uniforms(monkeypatch):
    """A uniform of exactly 0 draws the least N-hat and the least component
    size with positive mass, as the samplers do.  Here N = 2 always, so a
    limit tuple with one component or with a size 0 has probability 0."""
    scheme = SchemeSpec.from_config({
        "v": {"kind": "explicit", "coeffs": [0.0, 0.0, 1.0]},
        "w": {"kind": "closed_form", "c": 1.0, "e": 4.0, "rho": 1.0},
    })

    class Zeros:
        def random(self, size=None):
            return 0.0 if size is None else np.zeros(size)

    monkeypatch.setattr(
        verify.sampling, "make_rngs", lambda seed, count: (Zeros() for _ in range(count))
    )
    tuples = []
    second_largest = verify._second_largest

    def record(sizes):
        tuples.append(np.array(sizes))
        return second_largest(sizes)

    monkeypatch.setattr(verify, "_second_largest", record)
    n = 40
    verify._convergent_mc(verify.sampling.ExactSampler(scheme, n), 3, 1, exact.law_Nhat(scheme, n))
    assert len(tuples) == 6  # a sampler draw and a limit tuple per replicate
    for sizes in tuples:
        assert sizes.size == 2 and sizes.min() >= 1 and sizes.sum() == n


_ONE = {"kind": "explicit", "coeffs": [0.0, 1.0]}
_ZETA3 = {"kind": "closed_form", "c": 1.0, "e": 3.0, "rho": 1.0}
_POLY = {"kind": "explicit", "coeffs": [0.0] + [1.0] * 10}


@pytest.mark.parametrize(
    "experiment, schemes",
    [
        ({"verifier": "dilute", "scheme": "dense-gauss", "n_ladder": [50], "replicates": 10}, {}),
        # a factor without a closed-form tail has no macroscopic-index law p
        ({"verifier": "product", "scheme": "mixed", "n": 12},
         {"mixed": {"product_factors": [_POLY, _ZETA3]}}),
        ({"verifier": "product", "scheme": "explicit", "n": 12},
         {"explicit": {"product_factors": [_POLY, _POLY]}}),
    ],
    ids=["dilute-dense-gauss", "product-explicit-closed", "product-explicit"],
)
def test_run_suite_phase_mismatch_is_structured(tmp_path, experiment, schemes):
    with pytest.raises(PhaseMismatchError, match="needs"):
        run_suite({"schemes": schemes, "experiments": [experiment]}, tmp_path / "out")


@pytest.mark.parametrize(
    "scheme, match",
    [
        ({"product_factors": []}, "at least two factors, got 0"),
        ({"product_factors": [_ZETA3]}, "at least two factors, got 1"),
        ({"v": _ONE, "w": _ZETA3, "product_factors": []}, "does not take the key 'v'"),
        ({"v": _ONE, "w": _ZETA3, "product_factor": [_ZETA3, _ZETA3]}, "does not take the key 'product_factor'"),
    ],
    ids=["no-factor", "one-factor", "no-factor-with-v-and-w", "product_factor-typo"],
)
def test_run_suite_refuses_a_scheme_config_before_any_experiment(tmp_path, scheme, match):
    """A product of fewer than two factors, a product config with a V or W
    and a key that no config reads are refused at load, before the first
    experiment runs and before ``out_dir`` exists."""
    cfg = {"schemes": {"bad": scheme}, "experiments": [
        {"verifier": "mixture", "scheme": "mixture", "n_ladder": [50]},
        {"verifier": "extended", "scheme": "bad", "n": 12},
    ]}
    with pytest.raises(SuiteConfigError, match=f"bad scheme 'bad': .*{match}"):
        run_suite(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_suite_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiments": [,]}')
    with pytest.raises(SuiteConfigError) as err:
        run_suite(str(bad), tmp_path / "out")
    assert "line" in str(err.value)


def test_run_suite_outputs_and_determinism(tmp_path):
    cfg = {
        "seed": 77,
        "schemes": {
            "mine": {
                "v": {"kind": "explicit", "coeffs": [0.0, 1.0]},
                "w": {"kind": "closed_form", "c": 1.0, "e": 4.0, "rho": 1.0},
            }
        },
        "experiments": [
            {"id": "ctl", "verifier": "prefix_independence", "scheme": "mine",
             "n_ladder": [60, 120], "expect_fail": True},
            {"id": "llt", "verifier": "dense_llt", "scheme": "dense-gauss",
             "n_ladder": [200, 400], "tol": 0.06},
        ],
    }
    code = run_suite(cfg, tmp_path / "a")
    assert code == 0  # the expected failure counts as suite success
    assert (tmp_path / "a" / "llt" / "400.csv").exists()
    assert (tmp_path / "a" / "runtimes.json").exists()
    run_suite(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "verdicts.json").read_bytes() == (
        tmp_path / "b" / "verdicts.json"
    ).read_bytes()
    data = json.loads((tmp_path / "a" / "verdicts.json").read_text())
    ctl = [v for v in data["verdicts"] if v["experiment"].startswith("ctl")]
    assert ctl and not ctl[0]["passed"]
    assert ctl[0]["details"]["expected_outcome"] == "fail"


def test_csv_floats_have_full_precision(tmp_path):
    cfg = {
        "experiments": [
            {"id": "llt", "verifier": "dense_llt", "scheme": "dense-gauss",
             "n_ladder": [100], "tol": 0.2}
        ]
    }
    run_suite(cfg, tmp_path / "out")
    lines = (tmp_path / "out" / "llt" / "100.csv").read_text().splitlines()
    assert lines[0] == "ell,x,scaled_pmf,limit_density"
    # 17 significant digits round-trip
    val = lines[5].split(",")[2]
    assert float(val) == float(format(float(val), ".17g"))


def test_suite_csvs_are_numpy_scalar_formatting_byte_for_byte(tmp_path, monkeypatch):
    """Every CSV of a builtin suite run has the bytes of ``format(x,
    ".17g")`` on each numpy scalar of its rows; the edge values too."""
    from importlib.resources import files

    written = {}
    write = verify._write_csv

    def recorded(header, rows, path=None):
        written[path] = (header, rows)
        return write(header, rows, path)

    def numpy_scalar_csv(header, rows):
        lines = [",".join(header)]
        lines += [",".join(format(x, ".17g") for x in row) for row in np.atleast_2d(np.asarray(rows, dtype=float))]
        return "".join(line + "\n" for line in lines).encode()

    monkeypatch.setattr(verify, "_write_csv", recorded)
    run_suite(str(files("gibbs_partitions.data").joinpath("phases.json")), tmp_path / "out")
    assert len(written) == len(list((tmp_path / "out").glob("*/*.csv"))) >= 18
    for path, (header, rows) in written.items():
        assert pathlib.Path(path).read_bytes() == numpy_scalar_csv(header, rows)
    edges = [[math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0]]
    write(["x"] * 9, edges, tmp_path / "edges.csv")
    assert (tmp_path / "edges.csv").read_bytes() == numpy_scalar_csv(["x"] * 9, edges)


@pytest.fixture(scope="module")
def baseline_cpu_suite(tmp_path_factory, baseline_cpu_env):
    """The output directory of one bundled suite run with numpy's SIMD
    dispatch switched off, OpenBLAS on its oldest kernel and glibc on its
    non-FMA variants."""
    script = (
        "import sys\n"
        "from importlib.resources import files\n"
        "from gibbs_partitions.verify import run_suite\n"
        "cfg = str(files('gibbs_partitions.data').joinpath('phases.json'))\n"
        "sys.exit(run_suite(cfg, sys.argv[1]))\n"
    )
    out = tmp_path_factory.mktemp("baseline_cpu") / "out"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out)],
        env=baseline_cpu_env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return out


def test_builtin_suite_matches_golden_on_baseline_cpu_paths(baseline_cpu_suite):
    """The bundled suite reproduces the committed verdict bytes on the
    baseline CPU paths: verdict values must not depend on the CPU the suite
    runs on."""
    golden = pathlib.Path(__file__).parent / "data" / "golden_verdicts.json"
    assert (baseline_cpu_suite / "verdicts.json").read_bytes() == golden.read_bytes()


def test_builtin_suite_csvs_that_follow_the_cpu(baseline_cpu_suite):
    """On the baseline CPU paths 10 of the 18 CSVs keep their
    ``golden_csvs.json`` bytes; only the 8 of ``prefix-gauss``,
    ``prefix-control``, ``llt-stable`` and ``dilute-all`` may differ (a
    prefix or i.i.d. pmf by about an ulp, the limit densities where libm's
    variants differ)."""
    golden = json.loads((pathlib.Path(__file__).parent / "data" / "golden_csvs.json").read_text())
    csvs = {p.relative_to(baseline_cpu_suite).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in baseline_cpu_suite.rglob("*.csv")}
    assert sorted(csvs) == sorted(golden)
    may_differ = {"prefix-gauss", "prefix-control", "llt-stable", "dilute-all"}
    kept = {name: digest for name, digest in golden.items() if name.split("/")[0] not in may_differ}
    assert len(kept) == 10
    assert {name: csvs[name] for name in kept} == kept


def test_builtin_suite_computes_each_exact_object_once(tmp_path, monkeypatch):
    """One builtin suite run makes at most 19 calibrations and 20 harvests
    (20 and 21 when the convergent verifier calibrated and harvested its
    deficit law's column beside its sampler's, 26 and 27 when every
    verifier rebuilt its laws), at most 90 certified
    series sums (82; 108 when classify summed W twice or more, 208 before
    that), one set of product tables (two when the product law and its
    sampler each built theirs), and no calibration sums one series twice;
    the verdict bytes stay the golden ones, and so do the 18 CSVs'
    (``golden_csvs.json``)."""
    from importlib.resources import files

    from gibbs_partitions import sampling, weights

    calls = {"calibrate": 0, "harvest": 0, "sums": 0, "product_tables": 0}
    in_calibration = []  # the series sums of the calibration under way
    repeated = []
    calibrate, harvest, product_tables = exact._calibrate, exact._harvest, exact._product_tables
    moment = weights.WeightSequence.weighted_moment

    def counted_calibrate(*args, **kwargs):
        calls["calibrate"] += 1
        in_calibration.append([])
        try:
            return calibrate(*args, **kwargs)
        finally:
            sums = in_calibration.pop()
            repeated.extend(key for i, key in enumerate(sums) if key in sums[:i])

    def counted_harvest(*args, **kwargs):
        calls["harvest"] += 1
        return harvest(*args, **kwargs)

    def counted_product_tables(*args, **kwargs):
        calls["product_tables"] += 1
        return product_tables(*args, **kwargs)

    def counted_moment(self, t, k=0):
        calls["sums"] += 1
        if in_calibration:
            in_calibration[-1].append((self, t, k))
        return moment(self, t, k)

    for mod in (exact, sampling):
        monkeypatch.setattr(mod, "_calibrate", counted_calibrate)
        monkeypatch.setattr(mod, "_product_tables", counted_product_tables)
    monkeypatch.setattr(exact, "_harvest", counted_harvest)  # the samplers' harvests too
    monkeypatch.setattr(weights.WeightSequence, "weighted_moment", counted_moment)
    cfg = str(files("gibbs_partitions.data").joinpath("phases.json"))
    assert run_suite(cfg, tmp_path) == 0
    assert calls["calibrate"] <= 19
    assert calls["harvest"] <= 20
    assert calls["sums"] <= 90
    assert calls["product_tables"] == 1
    assert repeated == []
    golden = pathlib.Path(__file__).parent / "data"
    assert (tmp_path / "verdicts.json").read_bytes() == (golden / "golden_verdicts.json").read_bytes()
    csvs = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.rglob("*.csv")}
    assert csvs == json.loads((golden / "golden_csvs.json").read_text())


@pytest.mark.parametrize(
    "verifier, kwargs",
    [
        (verify_dense_llt, {"n_ladder": [100]}),
        (verify_dense_extremes, {"n_ladder": [100], "replicates": 10}),
        (verify_prefix_independence, {"n_ladder": [100]}),
        (verify_convergent, {"n": 100, "replicates": 10}),
        (verify_mixture, {"n_ladder": [100]}),
        (verify_dilute, {"n_ladder": [100], "replicates": 10}),
    ],
    ids=lambda v: getattr(v, "__name__", ""),
)
def test_verifiers_of_the_plain_model_refuse_extended_schemes(verifier, kwargs, monkeypatch):
    """Only the extended verifier reads the prefactor and only the product
    verifier the product factors; the others refuse an extended or a
    product scheme before any law is computed."""
    def no_law(*args, **kwargs):
        raise AssertionError("the prefactor is checked before any law")

    monkeypatch.setattr(verify, "classify", no_law)
    for name, match in (("extended-heavy", "prefactor h"), ("product-symmetric", "not product schemes")):
        with pytest.raises(PhaseMismatchError, match=match):
            verifier(bundled_scheme(name), **kwargs)


def test_extended_and_product_refuse_each_other(monkeypatch):
    """Each of the two reads one scheme kind; the refusal names the
    verifier that takes the other."""
    def no_law(*args, **kwargs):
        raise AssertionError("the kind is checked before any law")

    monkeypatch.setattr(verify, "classify", no_law)
    with pytest.raises(PhaseMismatchError, match=r"not product schemes \(prod_k W_k\(z\)\); product takes them$"):
        verify_extended(bundled_scheme("product-symmetric"), 500)
    with pytest.raises(PhaseMismatchError, match=r"not extended schemes \(prefactor h\); extended takes them$"):
        verify_product(bundled_scheme("extended-light"), 500)


def test_u_tail_class_of_dense_mixture_and_dilute_bases():
    """The partition-function tail (rho, exponent, log_exp, coeff) of each
    branch, from the closed forms: dense u_n ~ mu^(b-1) v_n at rho_u;
    mixture adds V'(W(rho_w)) w_n; convergent is V'(W(rho_w)) w_n alone
    (V'(W) = zeta(2) / zeta(3/2) on the bundled base); dilute has exponent
    1 + alpha (b - 1) and coefficient alpha E[Z^(alpha (b - 1))] of the
    stable Z with rate lambda = Gamma(1 - alpha) / (alpha zeta(a))."""
    from scipy.special import zeta

    from gibbs_partitions import classify

    z = {s: float(zeta(s)) for s in (1.5, 2.0, 3.0, 4.0)}
    lam = 2.0 * math.sqrt(math.pi) / z[1.5]
    expected = {
        "dense-gauss": (1.0, 2.0, 0.0, z[3.0] / z[4.0]),
        "mixture": (1.0, 3.0, 0.0, (z[2.0] / z[3.0]) ** 2 + z[2.0] / z[3.0]),
        # the base of every extended-* scheme
        "convergent": (1.0, 1.5, 0.0, z[2.0] / z[1.5]),
        "dilute": (1.0, 1.25, 0.0, 0.5 * math.sqrt(lam * math.pi) / math.gamma(0.75)),
    }
    for name, (rho, exponent, log_exp, coeff) in expected.items():
        scheme = bundled_scheme(name)
        got = verify._u_tail_class(scheme, classify(scheme))
        assert got[:3] == (rho, exponent, log_exp), name
        assert got[3] == pytest.approx(coeff, rel=1e-10), name


@pytest.mark.parametrize(
    "base, h_rho, regime",
    [("dense-gauss", 2.0, "base"), ("dense-gauss", 0.5, "boltzmann"),
     ("mixture", 0.5, "boltzmann"), ("dilute", 2.0, "base")],
)
def test_extended_regime_decided_by_radius(base, h_rho, regime):
    """A prefactor h with a radius off rho_u = 1 decides the regime alone:
    above it u_n dominates (the base law), below it h_n does (the
    Boltzmann count law at h's radius)."""
    from gibbs_partitions import ExtendedSpec, WeightSequence

    h = WeightSequence.closed_form(c=1.0, e=2.0, rho=h_rho, term0=1.0)
    (r,), _ = verify_extended(ExtendedSpec(bundled_scheme(base), h), 400)
    assert r.details["regime"] == regime
    assert r.passed, r.observed


def _paper_extended_regime(h, rho_u, s_u, lam_u):
    """The paper's regime of H(z) V(W(z)), written out: the smaller radius
    wins, then the smaller exponent, then the larger log power; h winning
    alone is the Boltzmann limit, u alone the base law, a tie the mixture."""
    if h.rho != rho_u:
        return "boltzmann" if h.rho < rho_u else "base"
    if (h.e, -h.L.log_exp) != (s_u, -lam_u):
        return "boltzmann" if (h.e, -h.L.log_exp) < (s_u, -lam_u) else "base"
    return "mixture"


@pytest.mark.parametrize(
    "e, rho, log_exp",
    [
        (3.0, 1.0, 0.0), (1.25, 1.0, 0.0), (1.5, 1.0, 0.0),  # exponent: lighter, heavier, matched
        (1.5, 1.0, -1.0), (1.5, 1.0, 1.0),  # matched exponent, lighter and heavier log power
        (1.25, 1.5, 0.0), (3.0, 0.8, 0.0),  # radius: lighter with a heavier exponent, heavier
    ],
)
def test_extended_regime_follows_the_tail_order(e, rho, log_exp):
    """Prefactors h_n = log(2+n)^log_exp n^-e rho^-n on the convergent base
    (u_n ~ C n^-3/2 at rho_u = 1) get the paper's regime; a matched one
    weighs the Boltzmann law by q U(rho_u) / (q U(rho_u) + H(rho_h))."""
    from gibbs_partitions import ExtendedSpec, WeightSequence, classify

    base = bundled_scheme("convergent")
    h = WeightSequence.closed_form(c=1.0, e=e, rho=rho, log_exp=log_exp, term0=1.0)
    rho_u, s_u, lam_u, c_u = verify._u_tail_class(base, classify(base))
    (r,), _ = verify_extended(ExtendedSpec(base, h), 400)
    assert r.details["regime"] == _paper_extended_regime(h, rho_u, s_u, lam_u)
    if r.details["regime"] == "mixture":
        q, u = 1.0 / c_u, base.v.series_value(base.w.series_value(rho_u))
        assert r.details["weight_boltzmann"] == pytest.approx(q * u / (q * u + h.series_value(h.rho)), rel=1e-12)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_extended_near_tie_is_the_mixture_in_each_series_own_radius(sign):
    """A prefactor whose radius lies 5e-10 off rho_u, inside the band in
    which ``phases`` ties radii, is the matched mixture: H is summed at its
    own radius and U at rho_u, so the weight is ``extended-matched``'s and
    no series is summed just off its radius."""
    import time

    from gibbs_partitions import ExtendedSpec, WeightSequence

    h = WeightSequence.closed_form(c=1.0, e=1.5, rho=1.0 + sign * 5e-10, term0=1.0)
    start = time.perf_counter()
    (r,), _ = verify_extended(ExtendedSpec(bundled_scheme("convergent"), h), 600)
    assert time.perf_counter() - start < 1.0
    assert r.details["regime"] == "mixture"
    assert r.details["weight_boltzmann"] == pytest.approx(0.34575040699794307, rel=1e-9)
    assert r.passed, r.observed


def test_extended_boltzmann_just_inside_the_radius_of_w():
    """A prefactor radius 2e-9 below rho_u = 1, outside the tie band, is the
    Boltzmann regime, whose count law sums W(h.rho) 2e-9 inside W's
    radius: that sum once ran to the 10^9-term cap for 13 s and raised.
    The verdict itself fails at n = 600 (TV 0.13): (rho_u / rho_h)^600 is
    1 + 1.2e-6, and the Boltzmann limit is far from reached."""
    import time

    from gibbs_partitions import ExtendedSpec, WeightSequence

    h = WeightSequence.closed_form(c=1.0, e=1.5, rho=1.0 - 2e-9, term0=1.0)
    start = time.perf_counter()
    (r,), _ = verify_extended(ExtendedSpec(bundled_scheme("convergent"), h), 600)
    assert time.perf_counter() - start < 1.0
    assert r.details["regime"] == "boltzmann"
