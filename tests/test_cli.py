"""CLI surface: subcommands, CSV emission, config handling, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gibbs_partitions.cli import main


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


def test_exact_csv(capsys, tmp_path):
    code, out = run_cli(["exact", "--scheme", "bell", "--n", "3", "--law", "Nn",
                         "--rho", "1.0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,pmf"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals == pytest.approx([0.0, 0.2, 0.6, 0.2], abs=1e-12)


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


def test_laws_grid(capsys):
    code, out = run_cli(
        ["laws", "--law", "gumbel_cdf", "--grid", "0", "0", "1"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(np.exp(-1.0))


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


def test_verify_phase_mismatch_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiments": [{"verifier": "mixture", "scheme": "dense-gauss",
                         "n_ladder": [60]}]
    }))
    code = main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "PhaseMismatch" in err


def test_entry_point_installed():
    out = subprocess.run(
        [sys.executable, "-m", "gibbs_partitions.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "classify" in out.stdout and "verify" in out.stdout
