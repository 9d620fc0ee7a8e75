"""Import hygiene: the package loads only the scipy submodules it runs."""

import os
import pathlib
import subprocess
import sys

import pytest

import gibbs_partitions


def _modules_after_import(module: str) -> set:
    """Names in sys.modules after a fresh interpreter imports ``module``."""
    src = str(pathlib.Path(gibbs_partitions.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = f"import sys, {module}\nprint('\\n'.join(sorted(sys.modules)))\n"
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
