"""Write references.npz: the exact-sweep laws computed with method="direct".

    PYTHONPATH=src python3 benchmarks/make_references.py

Direct convolution keeps ~1e-16 relative accuracy at every size, so these
arrays are what the FFT regime is checked against (TV <= 1e-9).  The m = 2
prefix joint is stored as its factors px and g (see workloads.joint_factors).
Takes about two minutes; rerun only when a law's definition changes.
"""

from __future__ import annotations

import numpy as np

from gibbs_partitions import bundled_scheme, exact
from workloads import (REFERENCES, SWEEP_SCHEMES, joint_factors, joint_from_factors, law_arrays,
                       sweep_ops, tv)


def main() -> None:
    schemes = {name: bundled_scheme(name) for name in SWEEP_SCHEMES}
    refs = {}
    for key, thunk in sweep_ops(exact, schemes, method="direct"):
        arrays, _ = law_arrays(key, thunk())
        for field, arr in arrays.items():
            if key.endswith("m2"):
                scheme, n = schemes["dense-gauss"], arr.shape[0] - 1
                px = exact.law_X(scheme, exact.default_rho(scheme, n), n).pmf
                g = joint_factors(arr, px)
                err = tv(arr, joint_from_factors(px, g))
                if err > 1e-14:
                    raise SystemExit(f"{key}: factor form is off by TV {err:.2e}")
                refs[f"{key}__{field}_px"], refs[f"{key}__{field}_g"] = px, g
            else:
                refs[f"{key}__{field}"] = arr
        print(key, flush=True)
    np.savez_compressed(REFERENCES, **refs)


if __name__ == "__main__":
    main()
