"""Command line interface.

Subcommands: classify | exact | laws | sample | verify.
Global flags: --config, --out-dir, --seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import exact, laws as limit_laws, sampling
from .phases import classify
from .schemes import bundled_names, bundled_scheme
from .verify import PhaseMismatchError, SuiteConfigError, load_config, run_suite
from .weights import SchemeSpec


def _load_schemes(config_path) -> dict:
    if not config_path:
        return {}
    cfg = load_config(config_path)
    return {
        name: SchemeSpec.from_config(sc) for name, sc in cfg.get("schemes", {}).items()
    }


def _get_scheme(name: str, config_path) -> SchemeSpec:
    declared = _load_schemes(config_path)
    if name in declared:
        return declared[name]
    if name in bundled_names():
        return bundled_scheme(name)
    sys.exit(f"error: unknown scheme {name!r}; bundled: {', '.join(bundled_names())}")


def _emit_csv(header, rows, out=None) -> None:
    fh = open(out, "w") if out else sys.stdout
    try:
        fh.write(",".join(header) + "\n")
        for row in np.atleast_2d(np.asarray(rows, dtype=float)):
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")
    finally:
        if out:
            fh.close()


def _cmd_classify(args) -> int:
    scheme = _get_scheme(args.scheme, args.config)
    report = classify(scheme)
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _cmd_exact(args) -> int:
    scheme = _get_scheme(args.scheme, args.config)
    n = args.n
    rho = args.rho
    if args.law == "X":
        law = exact.law_X(scheme, rho if rho else exact.default_rho(scheme, n), n)
    elif args.law == "N":
        law = exact.law_N(scheme, rho if rho else exact.default_rho(scheme, n), n)
    elif args.law == "Nhat":
        law = exact.law_Nhat(scheme, n)
    elif args.law == "Nn":
        law = exact.law_Nn(scheme, n)
    elif args.law == "stopped_sum":
        ssl = exact.stopped_sum_law(scheme, rho, n)
        _emit_csv(
            ["m", "p_stopped_sum", "u_m"],
            np.column_stack([np.arange(n + 1), ssl.s_n, ssl.u]),
            args.out,
        )
        return 0
    elif args.law == "prefix1":
        pl = exact.prefix_law(scheme, n, 1)
        _emit_csv(
            ["k", "pmf"], np.column_stack([np.arange(pl.joint.size), pl.joint]), args.out
        )
        return 0
    elif args.law == "deficit":
        exact_d, limit_d = exact.giant_deficit_law(scheme, n)
        if limit_d is None:  # size-biased limit undefined (E[N] diverges)
            _emit_csv(
                ["d", "exact_pmf"],
                np.column_stack([np.arange(exact_d.pmf.size), exact_d.pmf]),
                args.out,
            )
        else:
            _emit_csv(
                ["d", "exact_pmf", "limit_pmf"],
                np.column_stack([np.arange(exact_d.pmf.size), exact_d.pmf, limit_d.pmf]),
                args.out,
            )
        return 0
    else:
        sys.exit(f"error: unknown law {args.law!r}")
    _emit_csv(
        ["k", "pmf"], np.column_stack([np.arange(law.pmf.size), law.pmf]), args.out
    )
    return 0


def _cmd_laws(args) -> int:
    lo, hi, num = args.grid
    xs = np.linspace(lo, hi, int(num))
    if args.law == "stable_density":
        p = limit_laws.StableParams(args.alpha, args.gamma, args.beta, args.delta)
        ys = [limit_laws.stable_density_series(p, x) for x in xs]
    elif args.law == "stable_density_inversion":
        p = limit_laws.StableParams(args.alpha, args.gamma, args.beta, args.delta)
        ys = [limit_laws.stable_density_inversion(p, x) for x in xs]
    elif args.law == "gumbel_cdf":
        ys = [limit_laws.gumbel_cdf(x) for x in xs]
    elif args.law == "frechet_cdf":
        law = limit_laws.frechet_law(args.mu, args.alpha, args.rank)
        ys = law.cdf(xs)
    elif args.law == "dilute_density":
        p = limit_laws.DiluteParams(args.alpha, args.b, args.lam)
        ys = limit_laws.dilute_Z_density(p, xs)
    elif args.law == "pp_intensity":
        ys = [limit_laws.pp_intensity(args.alpha, args.b, x) for x in xs]
    else:
        sys.exit(f"error: unknown law {args.law!r}")
    _emit_csv(["x", "value"], np.column_stack([xs, ys]), args.out)
    return 0


def _cmd_sample(args) -> int:
    scheme = _get_scheme(args.scheme, args.config)
    n = args.n
    seed = 1 if args.seed is None else args.seed
    if scheme.product_factors is not None:
        smp = sampling.ProductSampler(scheme.product_factors, n)
        rows = [
            smp.sample(sampling.make_rng(seed, i)) for i in range(args.replicates)
        ]
        _emit_csv(
            [f"coordinate_{j}" for j in range(len(scheme.product_factors))],
            np.array(rows, dtype=float),
            args.out,
        )
        return 0
    shared = (
        sampling.ExactSampler(scheme, n) if args.method == "exact" else
        sampling.RejectionSampler(scheme, n)
    )
    stats_fields = [s.strip() for s in args.stats.split(",") if s.strip()]
    header = ["replicate", "n_components", "largest", "second_largest"] + stats_fields
    rows = []
    for i in range(args.replicates):
        rng = sampling.make_rng(seed, i)
        s = shared.sample(rng)
        srt = np.sort(s.sizes)[::-1]
        row = [i, s.n_components, srt[0], srt[1] if srt.size > 1 else 0]
        for f in stats_fields:
            if f.startswith("count_"):
                k = int(f.split("_")[1])
                row.append(int(np.count_nonzero(s.sizes == k)))
            else:
                sys.exit(f"error: unknown stat {f!r} (use count_<k>)")
        rows.append(row)
    _emit_csv(header, np.array(rows, dtype=float), args.out)
    return 0


def _cmd_verify(args) -> int:
    config = args.config
    if not config:
        sys.exit("error: verify needs --config (a file or 'builtin:phases')")
    if isinstance(config, str) and config.startswith("builtin:"):
        from importlib.resources import files

        name = config.split(":", 1)[1]
        path = files("gibbs_partitions.data").joinpath(f"{name}.json")
        if not path.is_file():
            sys.exit(f"error: no builtin suite named {name!r}")
        config = str(path)
    try:
        return run_suite(config, args.out_dir, seed=args.seed)
    except (SuiteConfigError, PhaseMismatchError) as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)}), file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config with scheme declarations")
    common.add_argument("--out-dir", default="out", help="output directory for verify")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed (default: config value or 1)")
    top = argparse.ArgumentParser(
        prog="gibbs-partitions",
        description="Phase diagram, exact laws, samplers and verifiers for "
        "composition-scheme partition models",
        parents=[common],
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("classify", help="print the phase report of a scheme")
    p.add_argument("--scheme", required=True)
    p.set_defaults(fn=_cmd_classify)

    p = add("exact", help="emit an exact finite-n law as CSV")
    p.add_argument("--scheme", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--law",
        default="Nn",
        choices=["X", "N", "Nhat", "Nn", "stopped_sum", "prefix1", "deficit"],
    )
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_exact)

    p = add("laws", help="evaluate a limit law on a grid as CSV")
    p.add_argument(
        "--law",
        required=True,
        choices=[
            "stable_density",
            "stable_density_inversion",
            "gumbel_cdf",
            "frechet_cdf",
            "dilute_density",
            "pp_intensity",
        ],
    )
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=-1.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--b", type=float, default=1.5)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--grid", type=float, nargs=3, metavar=("LO", "HI", "NUM"),
                   default=(-5.0, 5.0, 101))
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_laws)

    p = add("sample", help="draw partition samples, one CSV row each")
    p.add_argument("--scheme", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicates", type=int, default=10)
    p.add_argument("--method", choices=["exact", "rejection"], default="exact")
    p.add_argument("--stats", default="", help="comma list, e.g. count_1,count_2")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sample)

    p = add("verify", help="run a verifier suite from a config")
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
