"""CLI surface: subcommands, CSV emission, config handling, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gibbs_partitions import ProductSpec, bundled_scheme, exact, sampling
from gibbs_partitions.cli import main
from gibbs_partitions.sampling import _LOCKSTEP_MIN
from gibbs_partitions.verify import _write_csv


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_classify_json(capsys):
    code, out = run_cli(["classify", "--scheme", "dense-gauss"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["phase"] == "dense_critical"
    assert data["alpha"] == 2.0


def test_classify_unknown_scheme():
    with pytest.raises(SystemExit):
        main(["classify", "--scheme", "not-a-scheme"])


def test_classify_malformed_scheme_is_one_error_line(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schemes": {"bad": {
        "v": {"kind": "closed_form", "c": 1.0, "e": 1.5, "rho": -1},
        "w": {"kind": "closed_form", "c": 1.0, "e": 3.0, "rho": 1.0},
    }}}))
    with pytest.raises(SystemExit) as err:
        main(["classify", "--scheme", "bad", "--config", str(cfg)])
    msg = str(err.value.code)
    assert msg.startswith("error: bad scheme 'bad'") and "\n" not in msg


def test_exact_csv(capsys, tmp_path):
    code, out = run_cli(["exact", "--scheme", "bell", "--n", "3", "--law", "Nn"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,pmf"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals == pytest.approx([0.0, 0.2, 0.6, 0.2], abs=1e-12)


def test_exact_bell_count_law_past_the_saddle_doubling(capsys):
    # the saddle search once doubled its radius into an overflowing term of
    # the explicit V and ended in a raw OverflowError traceback
    try:
        code, out = run_cli(["exact", "--scheme", "bell", "--n", "1500", "--law", "Nn"], capsys)
    except SystemExit as err:
        msg = str(err.code)
        assert msg.startswith("error: ") and "\n" not in msg
        return
    assert code == 0
    vals = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert len(vals) == 1501 and math.fsum(vals) == pytest.approx(1.0, abs=1e-12)


def test_exact_nhat_takes_rho(capsys):
    code, out = run_cli(["exact", "--scheme", "convergent", "--n", "10", "--law", "Nhat",
                         "--rho", "0.5"], capsys)
    assert code == 0
    vals = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    scheme = bundled_scheme("convergent")
    assert vals == exact.law_Nhat(scheme, 10, 0.5).pmf.tolist()
    assert vals != exact.law_Nhat(scheme, 10).pmf.tolist()


@pytest.mark.parametrize("law", ["Nn", "prefix1", "deficit"])
def test_exact_rho_refused_for_tilt_invariant_laws(capsys, law):
    with pytest.raises(SystemExit) as err:
        main(["exact", "--scheme", "convergent", "--n", "10", "--law", law, "--rho", "0.5"])
    msg = str(err.value.code)
    assert msg.startswith("error: --rho") and "\n" not in msg
    assert capsys.readouterr().out == ""


def test_exact_nhat_on_a_dense_scheme_is_one_error_line(capsys):
    # E[N] diverges at a dense scheme's default rho
    with pytest.raises(SystemExit) as err:
        main(["exact", "--scheme", "dense-gauss", "--n", "30", "--law", "Nhat"])
    msg = str(err.value.code)
    assert msg.startswith("error: E[N] diverges") and "\n" not in msg
    assert capsys.readouterr().out == ""


def test_exact_count_law_of_an_extended_scheme(capsys):
    # the count of W-components of H(z) V(W(z)), not the plain law (whose
    # P(N = 1) is 0.6375 at n = 200)
    code, out = run_cli(["exact", "--scheme", "extended-heavy", "--n", "200", "--law", "Nn"], capsys)
    assert code == 0
    vals = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert vals == exact.extended_law_Nn(bundled_scheme("extended-heavy"), 200).pmf.tolist()
    assert vals[1] == pytest.approx(0.7625, abs=1e-4)


@pytest.mark.parametrize("law", ["X", "N", "Nhat", "stopped_sum", "prefix1", "deficit"])
def test_exact_plain_model_laws_refuse_an_extended_scheme(capsys, law):
    # X, N and Nhat once printed the laws of the base scheme V(W(z)) and exited 0
    for name, pointer in (("extended-heavy", "extended_law_Nn"), ("product-symmetric", "product_law")):
        with pytest.raises(SystemExit) as err:
            main(["exact", "--scheme", name, "--n", "200", "--law", law])
        msg = str(err.value.code)
        assert msg.startswith("error: ") and pointer in msg and "\n" not in msg
        assert capsys.readouterr().out == ""


def test_exact_count_law_refuses_a_product_scheme(capsys):
    # a product structure has no V(W(z)), so no count law
    with pytest.raises(SystemExit) as err:
        main(["exact", "--scheme", "product-symmetric", "--n", "50", "--law", "Nn"])
    msg = str(err.value.code)
    assert msg.startswith("error: exact does not take product schemes") and "\n" not in msg
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("law", ["X", "N", "Nhat"])
def test_exact_count_laws_refuse_a_product_scheme(capsys, law):
    # a product structure has no V(W(z)): no component law X and no count law
    with pytest.raises(SystemExit) as err:
        main(["exact", "--scheme", "product-symmetric", "--n", "50", "--law", law])
    msg = str(err.value.code)
    assert msg.startswith("error: exact does not take product schemes") and "\n" not in msg
    assert capsys.readouterr().out == ""


def test_classify_refuses_an_extended_scheme(capsys):
    # H(z) V(W(z)) once got the phase of its base V(W(z)), convergent
    with pytest.raises(SystemExit) as err:
        main(["classify", "--scheme", "extended-light"])
    msg = str(err.value.code)
    assert msg.startswith("error: classify does not take extended schemes") and "\n" not in msg
    assert "extended_law_Nn" in msg
    assert capsys.readouterr().out == ""


def test_classify_refuses_a_product_scheme(capsys):
    # a product structure has no V(W(z)), so no phase of the diagram
    with pytest.raises(SystemExit) as err:
        main(["classify", "--scheme", "product-symmetric"])
    msg = str(err.value.code)
    assert msg.startswith("error: classify does not take product schemes") and "\n" not in msg
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--scheme", "dense-gauss"],
        ["exact", "--scheme", "dense-gauss", "--law", "Nn", "--n", "3000"],
        ["laws", "--law", "gumbel_cdf", "--grid", "-2", "2", "50"],
        ["sample", "--scheme", "dense-gauss", "--n", "30", "--replicates", "3"],
    ],
    ids=["classify", "exact", "laws", "sample"],
)
def test_closed_standard_output_is_no_traceback(args):
    # the reader closes the pipe before the command writes a byte, as
    # ``| head`` does once it has its lines: exit 1, and nothing on stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "gibbs_partitions.cli"] + args,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and err == ""


def test_exact_rho_must_be_finite_and_positive(capsys):
    for rho in ("0", "-1", "nan"):
        with pytest.raises(SystemExit) as err:
            main(["exact", "--scheme", "convergent", "--n", "10", "--law", "X", "--rho", rho])
        msg = str(err.value.code)
        assert msg.startswith("error: --rho must be") and "\n" not in msg, rho
        assert capsys.readouterr().out == "", rho


def test_exact_stopped_sum_to_file(tmp_path, capsys):
    out_file = tmp_path / "u.csv"
    code, _ = run_cli(
        ["exact", "--scheme", "bell", "--n", "4", "--law", "stopped_sum",
         "--rho", "1.0", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    assert rows[0] == "m,p_stopped_sum,u_m"
    assert float(rows[-1].split(",")[2]) == pytest.approx(15.0 / 24.0, rel=1e-10)


def test_laws_default_grid(capsys):
    code, out = run_cli(["laws", "--law", "gumbel_cdf"], capsys)
    assert code == 0
    xs = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert xs == np.linspace(-5.0, 5.0, 101).tolist()


def test_laws_grid(capsys):
    code, out = run_cli(
        ["laws", "--law", "gumbel_cdf", "--grid", "0", "0", "1"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(np.exp(-1.0))


@pytest.mark.parametrize("lo, hi", [("-1e2", "0"), ("-1E+2", "-.5e-0"), ("-100", "-0.0")])
def test_laws_grid_takes_negative_bounds_in_every_float_form(capsys, lo, hi):
    # argparse read only -100 and -1.5 as numbers: -1e2 was an option, and
    # the command exited 2 with "expected 3 arguments"
    code, out = run_cli(["laws", "--law", "gumbel_cdf", "--grid", lo, hi, "3"], capsys)
    assert code == 0
    xs = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
    assert xs == np.linspace(float(lo), float(hi), 3).tolist()


def test_laws_gumbel_cdf_far_below_zero(capsys):
    # exp(-x) overflows below x = -709.78: the cdf is 0 there, not a traceback
    code, out = run_cli(["laws", "--law", "gumbel_cdf", "--grid", "-800", "0", "2"], capsys)
    assert code == 0
    assert out.strip().splitlines() == ["x,value", "-800,0", f"0,{math.exp(-1.0)!r}"]


def test_laws_dilute_density_one_vector_call(capsys, monkeypatch):
    from gibbs_partitions import laws

    calls = []
    density = laws.dilute_Z_density

    def counted(p, x):
        calls.append(np.shape(x))
        return density(p, x)

    monkeypatch.setattr(laws, "dilute_Z_density", counted)
    code, out = run_cli(
        ["laws", "--law", "dilute_density", "--alpha", "0.5", "--b", "1.5",
         "--lam", "1.3", "--grid", "-1", "4", "11"],
        capsys,
    )
    assert code == 0
    assert calls == [(11,)]
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    xs, ys = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
    assert ys[:3].tolist() == [0.0, 0.0, 0.0]  # x = -1, -0.5, 0
    # alpha = 1/2: (lam Z)^2 / 4 ~ Gamma(1/4)
    s = (1.3 * xs[3:]) ** 2 / 4.0
    want = np.exp(-0.75 * np.log(s) - s) * 1.3**2 * xs[3:] / (2.0 * math.gamma(0.25))
    assert ys[3:] == pytest.approx(want, rel=1e-12)


def test_laws_stable_density_one_vector_call(capsys, monkeypatch):
    from gibbs_partitions import laws

    calls = []
    density = laws.stable_density_series

    def counted(p, x):
        calls.append(np.shape(x))
        return density(p, x)

    monkeypatch.setattr(laws, "stable_density_series", counted)
    code, out = run_cli(
        ["laws", "--law", "stable_density", "--alpha", "1.5", "--gamma", "0.8",
         "--grid", "-12", "12", "49"],
        capsys,
    )
    assert code == 0
    assert calls == [(49,)]
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    xs, ys = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
    # the series holds in the middle and the grid takes the tails; both
    # give the bytes of one call per x
    p = laws.StableParams(1.5, 0.8, -1.0)
    assert ys.tolist() == [density(p, x) for x in xs.tolist()]


def test_sample_deterministic(capsys):
    args = ["sample", "--scheme", "dense-gauss", "--n", "50",
            "--replicates", "4", "--seed", "9", "--stats", "count_1"]
    code, out1 = run_cli(args, capsys)
    assert code == 0
    _, out2 = run_cli(args, capsys)
    assert out1 == out2
    header = out1.splitlines()[0].split(",")
    assert header == ["replicate", "n_components", "largest", "second_largest", "count_1"]


def test_sample_product(capsys):
    code, out = run_cli(
        ["sample", "--scheme", "product-symmetric", "--n", "30", "--replicates", "3"],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for row in rows:
        assert float(row[0]) + float(row[1]) == 30.0


def _per_replicate_csv(name, n, replicates, seed, stat_sizes, path):
    """The sample command's CSV from one ``sample`` call per replicate."""
    scheme = bundled_scheme(name)
    make = [sampling.make_rng(seed, i) for i in range(replicates)]
    if isinstance(scheme, ProductSpec):
        smp = sampling.ProductSampler(scheme, n)
        header = [f"coordinate_{j}" for j in range(len(scheme.factors))]
        _write_csv(header, [smp.sample(rng) for rng in make], path)
        return
    smp = sampling.ExactSampler(scheme, n)
    rows = []
    for i, rng in enumerate(make):
        s = smp.sample(rng)
        srt = np.sort(s.sizes)[::-1]
        row = [i, s.n_components, srt[0], srt[1] if srt.size > 1 else 0]
        rows.append(row + [int(np.count_nonzero(s.sizes == k)) for k in stat_sizes])
    header = ["replicate", "n_components", "largest", "second_largest"]
    _write_csv(header + [f"count_{k}" for k in stat_sizes], rows, path)


@pytest.mark.parametrize(
    "name, n, replicates, stat_sizes",
    [
        ("dense-stable", 300, 40, [1, 2]),
        ("dilute", 400, 60, []),
        ("product-symmetric", 60, 30, []),
        ("dense-gauss", 50, 1, [3]),
        ("dense-stable", 150, _LOCKSTEP_MIN - 1, [1]),
        ("dense-stable", 150, _LOCKSTEP_MIN, [1]),
    ],
)
def test_sample_csv_bytes_match_per_replicate_draws(tmp_path, name, n, replicates, stat_sizes):
    # on either side of _LOCKSTEP_MIN, the file is the one that one draw per
    # replicate writes
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    stats = ",".join(f"count_{k}" for k in stat_sizes)
    code = main(["sample", "--scheme", name, "--n", str(n), "--replicates", str(replicates),
                 "--seed", "5", "--stats", stats, "--out", str(got)])
    assert code == 0
    _per_replicate_csv(name, n, replicates, 5, stat_sizes, want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "name, header",
    [
        ("dense-gauss", "replicate,n_components,largest,second_largest"),
        ("product-symmetric", "coordinate_0,coordinate_1"),
    ],
)
def test_sample_without_replicates_writes_the_header_alone(capsys, name, header):
    # no blank line after the header: an empty table has no rows
    code, out = run_cli(["sample", "--scheme", name, "--n", "30", "--replicates", "0"], capsys)
    assert code == 0
    assert out == header + "\n"


def test_verify_custom_config(tmp_path, capsys):
    cfg = {
        "seed": 3,
        "experiments": [
            {"id": "quick", "verifier": "dense_llt", "scheme": "dense-gauss",
             "n_ladder": [120, 240], "tol": 0.08}
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _ = run_cli(
        ["verify", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")],
        capsys,
    )
    assert code == 0
    verdicts = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    assert verdicts["seed"] == 3
    assert verdicts["verdicts"][0]["passed"]


def test_verify_bad_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope }")
    code = main(["verify", "--config", str(bad), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "SuiteConfigError" in err


@pytest.mark.parametrize(
    "entry",
    [
        {"verifier": "mixture", "scheme": "dense-gauss", "n_ladder": [60]},
        # E[N] diverges, so the size-biased count law does not exist
        {"verifier": "convergent", "scheme": "dense-stable", "n": 100},
        # at alpha = 2 the bound is the first size's quantile, not tol
        {"verifier": "dense_extremes", "scheme": "dense-gauss", "n_ladder": [100, 200], "tol": 0.1},
        {"verifier": "extended", "scheme": "product-symmetric", "n": 50},
    ],
    ids=["mixture-dense-gauss", "convergent-dense-stable", "dense_extremes-tol-alpha-2", "extended-product"],
)
def test_verify_phase_mismatch_exit_2(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [entry]}))
    code = main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["error"] == "PhaseMismatchError" and err.count("\n") == 1


def test_verify_phase_mismatch_anywhere_exits_2_before_any_experiment(tmp_path, capsys, monkeypatch):
    """The builtin dilute-all, then the dilute verifier on dense-gauss: the
    second experiment's phase is refused before the first runs and before
    the output directory exists."""
    from importlib.resources import files

    from gibbs_partitions import exact, sampling

    def no_law(*args, **kwargs):
        raise AssertionError("no experiment runs before every gate has passed")

    monkeypatch.setattr(exact, "law_Nn", no_law)
    monkeypatch.setattr(sampling, "ExactSampler", no_law)
    builtin = json.loads(files("gibbs_partitions.data").joinpath("phases.json").read_text())
    (first,) = [e for e in builtin["experiments"] if e["id"] == "dilute-all"]
    second = {"verifier": "dilute", "scheme": "dense-gauss", "n_ladder": [100, 200]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [first, second]}))
    out = tmp_path / "o"
    code = main(["verify", "--config", str(cfg), "--out-dir", str(out)])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err == {"error": "PhaseMismatchError",
                   "message": "dilute needs a scheme in ['dilute'], got dense_critical"}
    assert not out.exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"verifier": "prefix_independence", "scheme": "dense-gauss", "n_ladder": [3200]},
         "m=2 joint table limited to n <= 3000"),
        ({"verifier": "dilute", "scheme": "dilute", "n_ladder": [7000]},
         "exact sampler table budget"),
    ],
    ids=["prefix-joint", "sampler"],
)
def test_verify_over_a_size_guard_is_one_error_line_exit_2(tmp_path, capsys, entry, message):
    # exit code 1 would read as a failed verdict
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [entry]}))
    code = main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "BudgetExceededError" and err["message"].startswith(message)
    assert not (tmp_path / "o" / "verdicts.json").exists()


@pytest.mark.parametrize(
    "entry",
    [
        {"verifier": "dense_llt", "scheme": "dense-gauss", "n": 40, "replicates": 5},
        {"verifier": "prefix_independence", "scheme": "dense-gauss", "n": 40,
         "replicates": 5},
        {"verifier": "dilute", "scheme": "dilute", "n": 40, "window": 4.0},
        {"verifier": "extended", "scheme": "extended-light"},
        {"verifier": "extended", "scheme": "extended-light", "n": 40, "replicates": 3},
        {"verifier": "product", "scheme": "product-symmetric", "n": 40, "tol": 1e-9},
        {"verifier": "dense_llt", "scheme": "dense-gauss", "n": 40, "n_ladder": [40]},
    ],
)
def test_verify_key_the_verifier_does_not_take_exit_2(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [entry]}))
    code = main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "SuiteConfigError" in err and "unknown verifier" not in err


@pytest.mark.parametrize(
    "config",
    [
        [{"verifier": "dense_llt", "scheme": "dense-gauss", "n": 80}],
        {"schemes": [1]},
        {"experiments": [{"verifier": "dense_llt", "scheme": "dense-gauss", "n": "80"}]},
        {"experiments": [{"verifier": "dense_llt", "scheme": "dense-gauss", "n": True}]},
        {"experiments": [{"verifier": "dense_llt", "scheme": "dense-gauss", "n_ladder": [40, 0]}]},
        {"experiments": ["dense_llt"]},
    ],
)
def test_verify_malformed_config_is_one_error_line_exit_2(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["error"] == "SuiteConfigError"


@pytest.mark.parametrize(
    "stats, replicates",
    [("count_x", 1), ("bogus", 0), ("bogus", 3), ("count_1,count_-2", 2), ("count_1_2", 1)],
)
def test_sample_bad_stats_is_one_error_line_before_any_table(
    capsys, monkeypatch, stats, replicates
):
    from gibbs_partitions import sampling

    def no_table(*args, **kwargs):
        raise AssertionError("--stats is checked before any table is built")

    monkeypatch.setattr(sampling, "_calibrate", no_table)
    with pytest.raises(SystemExit) as err:
        main(["sample", "--scheme", "dense-gauss", "--n", "50",
              "--replicates", str(replicates), "--stats", stats])
    msg = str(err.value.code)
    assert msg.startswith("error: unknown stat") and "\n" not in msg
    assert capsys.readouterr().out == ""


def test_sample_refuses_a_negative_seed():
    with pytest.raises(SystemExit) as err:
        main(["sample", "--scheme", "dense-gauss", "--n", "10", "--seed", "-1"])
    assert str(err.value.code).startswith("error: --seed")


def test_sample_refuses_more_replicates_than_spawn_words(monkeypatch):
    from gibbs_partitions import sampling

    def no_table(*args, **kwargs):
        raise AssertionError("--replicates is checked before any table is built")

    monkeypatch.setattr(sampling, "_calibrate", no_table)
    with pytest.raises(SystemExit) as err:
        main(["sample", "--scheme", "dense-gauss", "--n", "10", "--replicates", str(2**32 + 1)])
    assert str(err.value.code) == f"error: --replicates must be at most 2**32, got {2**32 + 1}"


def test_sample_above_the_exact_budget_names_rejection(capsys, monkeypatch):
    from gibbs_partitions import sampling

    def no_table(*args, **kwargs):
        raise AssertionError("the budget is checked before any table is built")

    monkeypatch.setattr(sampling, "_calibrate", no_table)
    with pytest.raises(SystemExit) as err:
        main(["sample", "--scheme", "dense-gauss", "--n", "7000"])
    msg = str(err.value.code)
    assert msg.startswith("error: exact sampler table budget") and "\n" not in msg
    assert "--method rejection" in msg
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("method", ["exact", "rejection"])
def test_sample_refuses_an_extended_scheme(capsys, method):
    with pytest.raises(SystemExit) as err:
        main(["sample", "--scheme", "extended-heavy", "--n", "200", "--replicates", "3",
              "--method", method])
    msg = str(err.value.code)
    assert msg.startswith("error: ") and "extended_law_Nn" in msg and "\n" not in msg
    assert capsys.readouterr().out == ""


def test_verify_product_without_a_configuration_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [
        {"verifier": "product", "scheme": "product-symmetric", "n": 1}
    ]}))
    code = main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "PhaseMismatchError" and "vanishes at n=1" in err["message"]


def test_sample_product_without_a_configuration_is_one_error_line(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sample", "--scheme", "product-symmetric", "--n", "1"])
    msg = str(err.value.code)
    assert msg.startswith("error: product partition function vanishes") and "\n" not in msg
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--method", "rejection"], "--method rejection"),
        (["--stats", "count_1"], "--stats"),
        (["--method", "rejection", "--stats", "count_1"], "--method rejection"),
    ],
)
def test_sample_product_refuses_flags_it_cannot_honour(capsys, tmp_path, extra, flag):
    out = tmp_path / "draws.csv"
    with pytest.raises(SystemExit) as err:
        main(["sample", "--scheme", "product-symmetric", "--n", "20", "--out", str(out)] + extra)
    msg = str(err.value.code)
    assert msg == f"error: {flag} does not apply to product scheme 'product-symmetric'"
    assert capsys.readouterr().out == "" and not out.exists()


@pytest.mark.parametrize(
    "args, argument",
    [
        (["exact", "--scheme", "bell", "--n", "0"], "--n"),
        (["exact", "--scheme", "bell", "--n", "-3"], "--n"),
        (["sample", "--scheme", "bell", "--n", "0"], "--n"),
        (["sample", "--scheme", "bell", "--n", "-1"], "--n"),
        (["sample", "--scheme", "bell", "--n", "3", "--replicates", "-1"], "--replicates"),
        (["laws", "--law", "frechet_cdf", "--alpha", "1.5", "--rank", "0"], "--rank"),
        # the QUADPACK stable density is an oracle of the tests, not a law of the CLI
        (["laws", "--law", "stable_density_inversion"], "--law"),
    ],
)
def test_integer_arguments_out_of_range_exit_2(capsys, args, argument):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    why = "invalid choice: 'stable_density_inversion'" if argument == "--law" else "must be an integer >="
    assert out == "" and f"error: argument {argument}: {why}" in err_text


@pytest.mark.parametrize(
    "args, start",
    [
        (["--law", "frechet_cdf", "--grid", "1", "2", "2"], "error: ranked-jump laws require"),
        (["--law", "dilute_density", "--alpha", "1.5"], "error: alpha must lie in (0, 1)"),
        (["--law", "stable_density", "--alpha", "1.5", "--beta", "0"], "error: series densities"),
        (["--law", "pp_intensity", "--alpha", "1.5"], "error: intensity defined for"),
    ],
)
def test_laws_refused_parameters_are_one_error_line(capsys, args, start):
    # the last three use the default grid
    with pytest.raises(SystemExit) as err:
        main(["laws", *args])
    msg = str(err.value.code)
    assert msg.startswith(start) and "\n" not in msg
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("num", ["0", "2.5", "-1", "nan"])
def test_laws_grid_num_must_be_a_positive_integer(capsys, num):
    with pytest.raises(SystemExit) as err:
        main(["laws", "--law", "gumbel_cdf", "--grid", "0", "1", num])
    msg = str(err.value.code)
    assert msg.startswith("error: --grid NUM must be a positive integer") and "\n" not in msg
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "lo, hi",
    [("inf", "1"), ("0", "inf"), ("0", "1e400"), ("nan", "1"), ("0", "nan"), ("-inf", "0"), ("-1e400", "0")],
)
def test_laws_grid_bounds_must_be_finite(capsys, lo, hi):
    # argparse took "-inf" and "-1e400" for options and exited 2 before the command ran
    with pytest.raises(SystemExit) as err:
        main(["laws", "--law", "stable_density", "--alpha", "1.5", "--grid", lo, hi, "5"])
    msg = str(err.value.code)
    assert msg.startswith("error: --grid LO and HI must be finite") and "\n" not in msg
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "args, start",
    [
        # the re-tilt to a caller's rho sums V(W(rho)), which diverges past rho_u
        (["--scheme", "dense-super", "--law", "stopped_sum", "--n", "10", "--rho", "0.9"],
         "error: V(W(rho)) must be positive and finite"),
        (["--scheme", "dense-gauss", "--law", "N", "--n", "10", "--rho", "100"],
         "error: W(rho) diverges"),
    ],
)
def test_exact_law_errors_are_one_error_line(capsys, args, start):
    with pytest.raises(SystemExit) as err:
        main(["exact"] + args)
    msg = str(err.value.code)
    assert msg.startswith(start) and "\n" not in msg
    assert capsys.readouterr().out == ""


def test_entry_point_installed():
    out = subprocess.run(
        [sys.executable, "-m", "gibbs_partitions.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "classify" in out.stdout and "verify" in out.stdout


@pytest.mark.parametrize(
    "argv",
    [["classify", "--scheme", "dense-gauss"], ["sample", "--scheme", "dense-gauss", "--n", "50"]],
    ids=["classify", "sample"],
)
def test_an_uncertified_tail_is_one_error_line(capsys, monkeypatch, argv):
    # classify and sample once printed a traceback
    from gibbs_partitions import weights

    def uncertified(*args, **kwargs):
        raise weights.TailCertificationError("series truncation failed to certify the requested tolerance")

    monkeypatch.setattr(weights, "_closed_moment_sum", uncertified)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: series truncation failed to certify the requested tolerance\n"


def test_log_factor_schemes_from_a_config_exit_0_within_a_second(tmp_path, capsys):
    # exact --law Nn --n 300 on the first scheme ran 55 s to an error line
    # after 15 248 scipy IntegrationWarnings, and classify on the second
    # took 15 s with 3 014 of them
    import time
    import warnings

    from gibbs_partitions import SchemeSpec, WeightSequence

    w1 = WeightSequence.closed_form(c=1.0, e=1.399, rho=1.0, log_exp=0.5)
    w2 = WeightSequence.closed_form(c=1.0, e=3.051, rho=1.0, log_exp=1.0, start_index=2)
    schemes = {
        "log-both": SchemeSpec(
            v=WeightSequence.closed_form(c=1.0, e=1.066, rho=w1.series_value(1.0), log_exp=0.5), w=w1),
        "log-inner": SchemeSpec(v=WeightSequence.closed_form(c=1.0, e=1.5, rho=w2.series_value(1.0)), w=w2),
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schemes": {name: s.to_config() for name, s in schemes.items()}}))
    budget = 1.0
    for argv in (["exact", "--scheme", "log-both", "--law", "Nn", "--n", "300"],
                 ["classify", "--scheme", "log-inner"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            code = main(argv + ["--config", str(cfg)])
            elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 0 and elapsed < budget, argv
        assert captured.err == "" and caught == [], argv
        assert captured.out
    assert json.loads(captured.out)["phase"] == "dense_critical"


def test_global_flags_act_the_same_before_and_after_the_subcommand(tmp_path, capsys, monkeypatch):
    # each subcommand's copy of --seed, --config and --out-dir once put its
    # own default over the value given before the subcommand
    monkeypatch.chdir(tmp_path)  # where the default out/ would land
    sample = ["--scheme", "dense-gauss", "--n", "30", "--replicates", "2"]
    before = run_cli(["--seed", "3", "sample"] + sample, capsys)
    assert before == run_cli(["sample", "--seed", "3"] + sample, capsys)
    assert before != run_cli(["sample"] + sample, capsys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 3,
        "schemes": {"declared": bundled_scheme("dense-gauss").to_config()},
        "experiments": [{"id": "quick", "verifier": "dense_llt", "scheme": "declared",
                         "n_ladder": [120, 240], "tol": 0.08}],
    }))
    before = run_cli(["--config", str(cfg), "classify", "--scheme", "declared"], capsys)
    assert before == run_cli(["classify", "--scheme", "declared", "--config", str(cfg)], capsys)
    assert before[0] == 0 and json.loads(before[1])["phase"] == "dense_critical"
    outs = tmp_path / "before", tmp_path / "after"
    assert main(["--config", str(cfg), "--out-dir", str(outs[0]), "verify"]) == 0
    assert main(["verify", "--config", str(cfg), "--out-dir", str(outs[1])]) == 0
    assert not (tmp_path / "out").exists()
    assert (outs[0] / "verdicts.json").read_bytes() == (outs[1] / "verdicts.json").read_bytes()
