"""The four benchmark workloads: set-up, measured phase and output checks.

Each workload is a small class.  ``setup`` does everything a user pays
before the first measured operation (imports included), ``run`` is the
measured phase and records each operation in an ``Outcome``, and ``check``
tests the outputs without looking at any timing, after the measured phase
has ended.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import time

HERE = pathlib.Path(__file__).resolve().parent
REFERENCES = HERE / "references.npz"

# The builtin suite's verdicts are statistical; only its own config seed is
# pinned by tests/data/golden_verdicts.json, and at other seeds some Monte
# Carlo verdicts fail (seeds 1 and 3: extremes-stable KS 0.1098 > 0.1), which
# would make "exit code 0" a coin flip.  The suite therefore always runs at
# this seed and the benchmark seed leaves its inputs unchanged.
SUITE_SEED = 20240901

SUM_TOL = 1e-12  # conditioned laws sum to 1, deficits are >= -SUM_TOL
TV_TOL = 1e-9  # distance to the method="direct" references
CHI2_PMIN = 1e-3
FRECHET_KS_MAX = 0.1  # the criterion 6 statistic

DENSE_N = 3000
DENSE_DRAWS_PER_SECOND = 150  # about 16 ms per draw; 1500 draws keep the KS check off its 0.1 edge
DENSE_WARMUP = 20
SPARSE_SAMPLERS = (("convergent", 2000), ("convergent", 4000), ("dilute", 2000), ("dilute", 4000))
SPARSE_DRAWS_PER_SECOND = 1500  # per sampler
SPARSE_WARMUP = 200


class Outcome:
    """What a measured phase produced: operation times, failures and diagnostics.

    ``op_spans`` holds (start, end) perf_counter readings per operation;
    ``op_raw_s`` holds durations the program measured itself, for
    operations whose boundaries the benchmark cannot see.
    """

    def __init__(self):
        self.op_spans: list[tuple[float, float]] = []
        self.op_raw_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.diag: dict = {}

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.failures.append(why)


# ---------------------------------------------------------------------------


class VerifySuite:
    """`gibbs-partitions verify --config builtin:phases`, in process."""

    name = "verify-suite"

    def setup(self, seed: int, seconds: int, out_dir: pathlib.Path) -> None:
        from importlib.resources import files

        from gibbs_partitions import cli

        self.cli = cli
        cfg = json.loads(files("gibbs_partitions.data").joinpath("phases.json").read_text())
        self.experiments = [e["id"] for e in cfg["experiments"]]
        self.out = out_dir / "verify"

    def run(self, out: Outcome) -> None:
        n = len(self.experiments)
        out.attempted += n
        argv = ["verify", "--config", "builtin:phases", "--out-dir", str(self.out),
                "--seed", str(SUITE_SEED)]
        try:
            self.rc = self.cli.main(argv)
        except Exception as err:  # the whole suite is one call
            self.rc = None
            out.fail(n, f"verify raised {type(err).__name__}: {err}")
            return
        runtimes = json.loads((self.out / "runtimes.json").read_text())
        per_exp: dict[str, float] = {}
        for verdict_id, sec in runtimes.items():
            exp = verdict_id.split(".", 1)[0]
            per_exp[exp] = max(per_exp.get(exp, 0.0), sec)  # every verdict carries its experiment's total
        out.op_raw_s.extend(per_exp[e] for e in self.experiments if e in per_exp)
        out.diag["experiment_s"] = per_exp

    def check(self, out: Outcome, repo_root: pathlib.Path) -> None:
        if self.rc is None:
            return
        if self.rc != 0:
            out.fail(len(self.experiments), f"verify exited with code {self.rc}")
        data = (self.out / "verdicts.json").read_bytes()
        out.diag["verdicts_sha256"] = hashlib.sha256(data).hexdigest()
        golden = repo_root / "tests" / "data" / "golden_verdicts.json"
        # reported, never gated: ROADMAP open item 4 (verdict bits follow SIMD)
        if golden.is_file():
            ref = json.loads(golden.read_text())["verdicts"]
            got = json.loads(data)["verdicts"]
            differ = [
                f"{a['experiment']}:{a['metric']}"
                for a, b in zip(got, ref) if json.dumps(a) != json.dumps(b)
            ]
            out.diag["golden_match"] = data == golden.read_bytes()
            out.diag["golden_differs"] = differ + (["<verdict count>"] if len(got) != len(ref) else [])


# ---------------------------------------------------------------------------


def sweep_ops(exact, schemes, method: str = "auto"):
    """The exact-sweep law calls as (key, thunk); method="direct" makes the references."""
    ops = []
    for n in (1000, 4000):
        for name in ("dense-stable", "dilute", "convergent"):
            ops.append((f"law_Nn-{name}-{n}",
                        lambda name=name, n=n: exact.law_Nn(schemes[name], n, method=method)))
    ops += [
        ("giant_deficit_law-convergent-4000",
         lambda: exact.giant_deficit_law(schemes["convergent"], 4000, method=method)),
        ("prefix_law-dense-gauss-3000-m1",
         lambda: exact.prefix_law(schemes["dense-gauss"], 3000, 1, method=method)),
        ("prefix_law-dense-gauss-1600-m2",
         lambda: exact.prefix_law(schemes["dense-gauss"], 1600, 2, method=method)),
        ("stopped_sum_law-dilute-3000",
         lambda: exact.stopped_sum_law(schemes["dilute"], n=3000, method=method)),
        ("extended_law_Nn-extended-heavy-2000",
         lambda: exact.extended_law_Nn(schemes["extended-heavy"], 2000, method=method)),
    ]
    return ops


SWEEP_SCHEMES = ("dense-stable", "dilute", "convergent", "dense-gauss", "extended-heavy")


def law_arrays(key: str, res) -> tuple[dict, float | None]:
    """Arrays compared against the references, and the mass whose deficit
    must be non-negative (None for conditioned laws, which sum to 1)."""
    if key.startswith(("law_Nn", "extended_law_Nn")):
        return {"pmf": res.pmf}, None
    if key.startswith("giant_deficit_law"):
        exact_d, limit_d = res
        return {"exact": exact_d.pmf, "limit": limit_d.pmf}, exact_d.mass_accounted
    if key.startswith("prefix_law"):
        return {"joint": res.joint}, res.mass_accounted
    if key.startswith("stopped_sum_law"):
        return {"s_n": res.s_n}, float(res.s_n.sum())
    raise KeyError(key)


def joint_factors(joint, px):
    """Factors of an m = 2 prefix joint, joint[k1, k2] = px[k1] px[k2] g[k1 + k2].

    Storing px and g (2(n+1) numbers) replaces the (n+1)^2 joint table.
    """
    import numpy as np

    n = joint.shape[0] - 1
    g = np.zeros(n + 1)
    g[2:] = joint[1, 1:n] / (px[1] * px[1:n])  # joint[1, j] = px[1] px[j] g[1 + j]
    return g


def joint_from_factors(px, g):
    import numpy as np

    n = px.size - 1
    k = np.arange(n + 1)
    s = k[:, None] + k[None, :]
    out = np.outer(px, px) * g[np.minimum(s, n)]
    out[s > n] = 0.0
    return out


def tv(a, b) -> float:
    import numpy as np

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim == 1:
        m = max(a.size, b.size)
        a, b = np.pad(a, (0, m - a.size)), np.pad(b, (0, m - b.size))
    elif a.shape != b.shape:
        return float("inf")
    return 0.5 * float(np.abs(a - b).sum())


class ExactSweep:
    """Exact laws on both sides of the direct/FFT switch; no sampling."""

    name = "exact-sweep"

    def setup(self, seed: int, seconds: int, out_dir: pathlib.Path) -> None:
        from gibbs_partitions import bundled_scheme, exact

        schemes = {name: bundled_scheme(name) for name in SWEEP_SCHEMES}
        self.ops = sweep_ops(exact, schemes)
        random.Random(seed).shuffle(self.ops)  # the seed sets the call order
        self.results: dict = {}

    def run(self, out: Outcome) -> None:
        for key, thunk in self.ops:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                res = thunk()
            except Exception as err:
                out.fail(1, f"{key} raised {type(err).__name__}: {err}")
                continue
            out.op_spans.append((t0, time.perf_counter()))
            self.results[key] = res

    def check(self, out: Outcome, repo_root: pathlib.Path) -> None:
        import numpy as np

        refs = np.load(REFERENCES)
        worst_tv = 0.0
        for key, res in self.results.items():
            arrays, mass = law_arrays(key, res)
            problems = []
            if mass is None:
                total = float(arrays["pmf"].sum())
                if abs(total - 1.0) > SUM_TOL:
                    problems.append(f"sums to {total!r}")
            elif 1.0 - mass < -SUM_TOL:
                problems.append(f"negative deficit {1.0 - mass!r}")
            for field, arr in arrays.items():
                ref_key = f"{key}__{field}"
                if key.endswith("m2"):
                    ref = joint_from_factors(refs[f"{ref_key}_px"], refs[f"{ref_key}_g"])
                else:
                    ref = refs[ref_key]
                d = tv(arr, ref)
                worst_tv = max(worst_tv, d)
                if not d <= TV_TOL:
                    problems.append(f"{field} TV {d:.3e} from the direct reference")
            if problems:
                out.fail(1, f"{key}: " + "; ".join(problems))
        out.diag["max_tv_to_direct"] = worst_tv


def fft_tilt_dev() -> float:
    """max |pmf difference| of law_Nn(dense-stable, 2500) between default_rho
    and 0.99 default_rho; tilt invariance says 0, the FFT regime does not."""
    import numpy as np

    from gibbs_partitions import bundled_scheme, exact

    scheme = bundled_scheme("dense-stable")
    rho = exact.default_rho(scheme, 2500)
    a = exact.law_Nn(scheme, 2500, rho=rho).pmf
    b = exact.law_Nn(scheme, 2500, rho=0.99 * rho).pmf
    return float(np.max(np.abs(a - b)))


# ---------------------------------------------------------------------------


def count_chi_square(counts, law_pmf):
    """(statistic, degrees of freedom) of drawn counts against their law."""
    import numpy as np

    from measure import chi_square_bins

    observed = np.bincount(counts, minlength=law_pmf.size)[: law_pmf.size]
    if len(counts) != int(observed.sum()):
        return float("inf"), 1  # a count outside the law's support
    obs, exp = chi_square_bins(observed, len(counts) * law_pmf)
    stat = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    return float(stat), len(obs) - 1


class _Sampling:
    """Shared measured phase: draws on make_rng(seed, stream), one per op.

    Set-up ends with warm-up draws on streams the measured phase never uses,
    so the lazily built table rows land in set-up, where users pay them
    once per sampler, and not in the latency tail.
    """

    WARMUP_STREAM0 = 10**9

    def warm_up(self, sampler, draws: int) -> None:
        for i in range(draws):
            sampler.sample(self.make_rng(self.seed, self.WARMUP_STREAM0 + i))

    def draw_all(self, out: Outcome, sampler, streams) -> tuple[list, list]:
        make_rng = self.make_rng
        counts, maxima = [], []
        for stream in streams:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                s = sampler.sample(make_rng(self.seed, stream))
            except Exception as err:
                out.fail(1, f"draw {stream} raised {type(err).__name__}: {err}")
                continue
            out.op_spans.append((t0, time.perf_counter()))
            counts.append(s.n_components)
            maxima.append(int(s.sizes.max()))
        out.diag["draws"] = out.diag.get("draws", 0) + len(counts)
        return counts, maxima

    def pooled_chi_square(self, out: Outcome, parts) -> None:
        """One chi-square test over all samplers of the run (independent
        streams, so the statistics and degrees of freedom add)."""
        from scipy.stats import chi2

        stat = df = 0
        for counts, sampler in parts:
            s, d = count_chi_square(counts, sampler.count_law.pmf)
            stat += s
            df += d
        p = float(chi2.sf(stat, df)) if df > 0 else 1.0
        out.diag["count_chi2_p"] = p
        if not p > CHI2_PMIN:
            out.fail(sum(len(c) for c, _ in parts), f"N_n histogram chi-square p = {p:.2e}")


class SampleDense(_Sampling):
    """ExactSampler(dense-stable, 3000): about 1500 coordinates per draw."""

    name = "sample-dense"

    def setup(self, seed: int, seconds: int, out_dir: pathlib.Path) -> None:
        from gibbs_partitions import bundled_scheme
        from gibbs_partitions.sampling import ExactSampler, make_rng

        self.seed, self.make_rng = seed, make_rng
        self.scheme = bundled_scheme("dense-stable")
        self.draws = DENSE_DRAWS_PER_SECOND * seconds
        self.sampler = ExactSampler(self.scheme, DENSE_N)
        self.warm_up(self.sampler, DENSE_WARMUP)

    def run(self, out: Outcome) -> None:
        self.counts, self.maxima = self.draw_all(out, self.sampler, range(self.draws))

    def check(self, out: Outcome, repo_root: pathlib.Path) -> None:
        import numpy as np
        from scipy.stats import kstest

        from gibbs_partitions import classify
        from gibbs_partitions.laws import frechet_law

        self.pooled_chi_square(out, [(self.counts, self.sampler)])
        rep = classify(self.scheme)
        law = frechet_law(rep.mu, rep.alpha, 1)
        scaled = np.asarray(self.maxima, dtype=float) / rep.nn_scale(DENSE_N)
        ks = float(kstest(scaled, lambda x: law.cdf(x)).statistic)
        out.diag["frechet_ks"] = ks
        if not ks < FRECHET_KS_MAX:
            out.fail(len(self.maxima), f"Frechet KS {ks:.4f} >= {FRECHET_KS_MAX}")


class SampleSparse(_Sampling):
    """ExactSampler for convergent and dilute at n = 2000 and 4000: few
    components per draw, so the table build dominates."""

    name = "sample-sparse"

    def setup(self, seed: int, seconds: int, out_dir: pathlib.Path) -> None:
        from gibbs_partitions import bundled_scheme
        from gibbs_partitions.sampling import ExactSampler, make_rng

        self.seed, self.make_rng = seed, make_rng
        self.draws = SPARSE_DRAWS_PER_SECOND * seconds
        self.samplers = [ExactSampler(bundled_scheme(name), n) for name, n in SPARSE_SAMPLERS]
        for sampler in self.samplers:
            self.warm_up(sampler, SPARSE_WARMUP)

    def run(self, out: Outcome) -> None:
        self.parts = []
        for j, sampler in enumerate(self.samplers):
            streams = range(j * self.draws, (j + 1) * self.draws)  # disjoint per sampler
            counts, _ = self.draw_all(out, sampler, streams)
            self.parts.append((counts, sampler))

    def check(self, out: Outcome, repo_root: pathlib.Path) -> None:
        self.pooled_chi_square(out, self.parts)


WORKLOADS = {w.name: w for w in (VerifySuite, ExactSweep, SampleDense, SampleSparse)}
