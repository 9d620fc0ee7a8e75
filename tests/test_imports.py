"""Import hygiene: the package loads only the scipy submodules it runs."""

import os
import pathlib
import subprocess
import sys

import pytest

import gibbs_partitions


def _modules_after_import(module: str, then: str = "") -> set:
    """Names in sys.modules after a fresh interpreter imports ``module`` and
    runs the statement ``then``."""
    src = str(pathlib.Path(gibbs_partitions.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = f"import sys, {module}\n{then}\nprint('\\n'.join(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "module, absent",
    [
        ("gibbs_partitions", ["scipy.integrate", "scipy.stats"]),
        ("gibbs_partitions.cli", ["scipy.stats"]),
    ],
)
def test_import_leaves_unused_scipy_unloaded(module, absent):
    loaded = _modules_after_import(module)
    assert module in loaded
    assert [name for name in absent if name in loaded] == []


@pytest.mark.parametrize("module", ["gibbs_partitions", "gibbs_partitions.sampling"])
def test_exact_laws_and_samplers_load_no_scipy(module):
    # the exact laws, the samplers and every bundled scheme need only numpy
    build = "[gibbs_partitions.bundled_scheme(s) for s in gibbs_partitions.bundled_names()]"
    loaded = _modules_after_import(module, build)
    assert module in loaded
    assert sorted(name for name in loaded if name.startswith("scipy")) == []


def test_zeta_scheme_off_the_table_loads_no_scipy():
    # rho_v off the bundled exponents is the certified sum W(1), not scipy's zeta
    loaded = _modules_after_import("gibbs_partitions", "gibbs_partitions.schemes.zeta_scheme(1.75, 2.0)")
    assert sorted(name for name in loaded if name.startswith("scipy")) == []


def test_upper_gamma_and_near_radius_sums_load_no_scipy():
    # the tilted tail of a constant-L sum is c lambda^(s-1) Gamma(1 - s, N lambda),
    # and that of a log-factor sum the tanh-sinh rule's, on the radius and below it
    run = (
        "from gibbs_partitions.special import upper_gamma\n"
        "assert upper_gamma(-3.9, 60.0) > 0.0 and upper_gamma(0.0, 1e-12) > 0.0\n"
        "w = gibbs_partitions.WeightSequence.closed_form(c=1.0, e=1.5, rho=1.0)\n"
        "assert w.series_value(1.0 - 1e-8) > 0.0 and w.weighted_moment(1.0 - 5e-10, 1) > 0.0\n"
        "w = gibbs_partitions.WeightSequence.closed_form(c=1.0, e=2.5, rho=1.0, log_exp=1.5)\n"
        "assert w.series_value(1.0) > 0.0 and w.weighted_moment(1.0 - 1e-4, 1) > 0.0"
    )
    loaded = _modules_after_import("gibbs_partitions", run)
    assert sorted(name for name in loaded if name.startswith("scipy")) == []


def test_the_one_scipy_import_is_the_temme_band():
    # read by ast: every import of a scipy module in the package, and the
    # function it sits in; the log-factor tail once imported scipy.integrate
    import ast

    found = []
    for path in sorted(pathlib.Path(gibbs_partitions.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {id(node): top.name for top in ast.walk(tree)
                  if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) for node in ast.walk(top)}
        for node in ast.walk(tree):
            names = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names] if isinstance(node, ast.Import) else [])
            found += [(path.stem, owners.get(id(node)), name) for name in names if name.split(".")[0] == "scipy"]
    assert found == [("special", "_temme", "scipy.special")]


def test_cli_loads_no_scipy():
    loaded = _modules_after_import("gibbs_partitions.cli")
    assert "gibbs_partitions.cli" in loaded
    assert sorted(name for name in loaded if name.startswith("scipy")) == []


def test_builtin_suite_runs_without_scipy(tmp_path):
    # the verifiers' special functions and quadrature need only numpy
    run = (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = gibbs_partitions.cli.main(['verify', '--config', 'builtin:phases', '--out-dir', {str(tmp_path)!r}])\n"
        "assert code == 0, code"
    )
    loaded = _modules_after_import("gibbs_partitions.cli", run)
    assert (tmp_path / "verdicts.json").exists()
    assert sorted(name for name in loaded if name.startswith("scipy")) == []


def test_stable_and_dilute_densities_load_no_scipy():
    # points past the old quadrature's reach: an alpha = 1.1 window with
    # phases past 800, and the dilute density next to alpha = 1
    run = (
        "import math, numpy as np\n"
        "from gibbs_partitions import laws\n"
        "p = laws.StableParams(1.1, (-math.cos(math.pi * 0.55)) ** (1 / 1.1), -1.0)\n"
        "xs = np.linspace(-24.0, 24.0, 97)\n"
        "tan_term, t_max = laws._inversion_setup(p)\n"
        "assert abs(tan_term) * t_max**1.1 + 24.0 * t_max > 800.0\n"
        "assert np.all(laws.stable_density_series(p, xs) >= 0.0)\n"
        "assert laws.dilute_Z_density(laws.DiluteParams(0.993, 1.5, 1.0), 1.0) > 0.0"
    )
    loaded = _modules_after_import("gibbs_partitions", run)
    assert sorted(name for name in loaded if name.startswith("scipy")) == []


def _modules():
    import importlib
    import pkgutil

    return [
        importlib.import_module(f"gibbs_partitions.{info.name}")
        for info in pkgutil.iter_modules(gibbs_partitions.__path__)
    ]


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_all_lists_every_public_name(module):
    import inspect

    defined = sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    )
    assert [name for name in defined if name not in module.__all__] == []


# Results of the library that only the tests exercise: the size-profile law
# (criterion 1), the product-structure law (the product verifier takes its
# tables from the sampler instead) and the library forms of the verifiers.
# Any other public function without a caller in the runtime is an oracle of
# the tests, and belongs in tests/oracle.py.
TEST_ONLY_RESULTS = {
    "profile_law",
    "product_law",
    "verify_dense_llt",
    "verify_dense_extremes",
    "verify_prefix_independence",
    "verify_convergent",
    "verify_mixture",
    "verify_dilute",
    "verify_extended",
    "verify_product",
}


def test_every_public_function_has_a_caller_outside_the_tests():
    # read by ast, not text: docstrings and comments name functions too
    import ast
    import inspect

    repo = pathlib.Path(gibbs_partitions.__file__).resolve().parents[2]
    used = set()
    for path in [*(repo / "src" / "gibbs_partitions").glob("*.py"), *(repo / "benchmarks").glob("*.py")]:
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != own:  # a recursive call is no caller
                    used.add(name)
    public = sorted(
        f"{module.__name__}.{name}"
        for module in _modules()
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
        and name not in TEST_ONLY_RESULTS
    )
    assert [name for name in public if name.rpartition(".")[2] not in used] == []


@pytest.mark.parametrize("module", [gibbs_partitions, *_modules()], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # a deleted function or class must leave no stale name in an __all__
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"
