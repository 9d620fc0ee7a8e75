import os
import pathlib
import platform

import numpy as np
import pytest

import gibbs_partitions
from gibbs_partitions import bundled_scheme


@pytest.fixture(scope="session")
def baseline_cpu_env():
    """Environment for a child interpreter that keeps numpy, OpenBLAS and the
    C library off their CPU-specific code paths.

    Each variable does nothing where it does not apply: numpy is told to
    ignore the dispatchable features it reports as present (so no unknown
    name is ever passed), OpenBLAS gets its oldest x86-64 kernel, and glibc
    its variants without FMA, AVX2 and AVX-512.  The package under test
    leads PYTHONPATH.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    present = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    env = dict(os.environ)
    src = str(pathlib.Path(gibbs_partitions.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if present:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(present)
    if platform.machine().lower() in ("x86_64", "amd64"):
        env["OPENBLAS_CORETYPE"] = "Prescott"
    env["GLIBC_TUNABLES"] = "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"
    return env


@pytest.fixture
def no_sums(monkeypatch):
    """Every series sum and every sweep raises."""
    from gibbs_partitions import WeightSequence, exact

    def no_sum(*args, **kwargs):
        raise AssertionError("the type is refused before any series sum")

    for name in ("weighted_moment", "weighted_terms"):
        monkeypatch.setattr(WeightSequence, name, no_sum)
    monkeypatch.setattr(exact, "_harvest", no_sum)  # the samplers' sweeps too


@pytest.fixture(scope="session")
def bell():
    return bundled_scheme("bell")


@pytest.fixture(scope="session")
def dense_gauss():
    return bundled_scheme("dense-gauss")


@pytest.fixture(scope="session")
def dense_stable():
    return bundled_scheme("dense-stable")


@pytest.fixture(scope="session")
def convergent():
    return bundled_scheme("convergent")


@pytest.fixture(scope="session")
def mixture():
    return bundled_scheme("mixture")


@pytest.fixture(scope="session")
def dilute():
    return bundled_scheme("dilute")


@pytest.fixture(scope="session")
def single_component():
    return bundled_scheme("single-component")


@pytest.fixture(scope="session")
def fft_product_row():
    """Row l > B of an FFT-regime sampler table written out from the two
    rows it is the product of: the giant row aB = S_(a-1)B * S_B, and
    S_(aB+b) = S_aB * S_b for 0 < b < B, each the clipped n + 1 head of one
    inverse transform at the smallest 2^i 3^j 5^k >= 2n + 1."""
    from numpy.fft import irfft, rfft

    from gibbs_partitions.exact import _next_fast_len

    def product(rows, ell, stride):
        n = rows[0].size - 1
        size = _next_fast_len(2 * n + 1)
        a, b = divmod(ell, stride)
        left, right = ((a - 1) * stride, stride) if b == 0 else (a * stride, b)
        spec = rfft(rows[left], size) * rfft(rows[right], size)
        return np.clip(irfft(spec, size)[: n + 1], 0.0, None)

    return product


@pytest.fixture(scope="session")
def stepped_rows():
    """Rows 0..ell of P(S_l = .)[0..n] for the kernel, each stepped from
    the row before: by ``series.convolve`` (direct) or by scipy's
    ``fftconvolve`` clipped at 0 (FFT), the kernel cut after its last
    nonzero entry.  The oracle of the table's stepped rows."""
    from scipy.signal import fftconvolve

    from gibbs_partitions.series import convolve

    def stepped(kernel, n, ell, fft):
        kernel = kernel[: np.flatnonzero(kernel)[-1] + 1]
        rows = np.zeros((ell + 1, n + 1))
        rows[0, 0] = 1.0
        for l in range(1, ell + 1):
            if fft:
                rows[l] = np.clip(fftconvolve(rows[l - 1], kernel)[: n + 1], 0.0, None)
            else:
                rows[l] = convolve(rows[l - 1], kernel, n + 1)
        return rows

    return stepped
