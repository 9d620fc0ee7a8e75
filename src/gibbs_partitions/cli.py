"""Command line interface.

Subcommands: classify | exact | laws | sample | verify.
Global flags: --config, --out-dir, --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import exact, laws as limit_laws, sampling
from .phases import classify
from .verify import (
    PhaseMismatchError,
    SuiteConfigError,
    _declared_schemes,
    _resolve_scheme,
    _write_csv,
    load_config,
    run_suite,
)
from .weights import ExtendedSpec, ProductSpec, SchemeSpec

__all__ = ["build_parser", "main"]


def _int_at_least(low: int):
    """The argparse type of an integer >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _get_scheme(args) -> SchemeSpec | ExtendedSpec | ProductSpec:
    try:
        declared = _declared_schemes(load_config(args.config)) if args.config else {}
        scheme = _resolve_scheme(args.scheme, declared)
    except SuiteConfigError as err:
        sys.exit(f"error: {err}")
    if isinstance(scheme, ProductSpec) and args.command != "sample":
        sys.exit(f"error: {args.command} does not take product schemes ({args.scheme!r}); their laws are product_law's")
    if isinstance(scheme, ExtendedSpec) and not (args.command == "exact" and args.law == "Nn"):
        what = f"exact --law {args.law}" if args.command == "exact" else args.command
        sys.exit(f"error: {what} does not take extended schemes ({args.scheme!r}); "
                 "their count law is extended_law_Nn's (exact --law Nn)")
    return scheme


def _cmd_classify(args) -> int:
    scheme = _get_scheme(args)
    try:
        report = classify(scheme)
    except exact.TailCertificationError as err:  # a series tail that cannot be certified
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _cmd_exact(args) -> int:
    scheme = _get_scheme(args)
    n, rho, law = args.n, args.rho, args.law
    if rho is not None and not (math.isfinite(rho) and rho > 0):
        sys.exit(f"error: --rho must be a finite number > 0, got {rho}")
    if rho is not None and law in ("Nn", "prefix1", "deficit"):
        # tilt invariant laws, computed at the default rho: a --rho would change nothing
        sys.exit(f"error: --rho does not apply to --law {law}, which is computed at the default rho")
    header = ["k", "pmf"]
    try:
        if law in ("X", "N"):
            rho = exact.default_rho(scheme, n) if rho is None else rho
            cols = [(exact.law_X if law == "X" else exact.law_N)(scheme, rho, n).pmf]
        elif law == "Nhat":
            cols = [exact.law_Nhat(scheme, n, rho).pmf]
        elif law == "Nn":
            cols = [(exact.extended_law_Nn if isinstance(scheme, ExtendedSpec) else exact.law_Nn)(scheme, n).pmf]
        elif law == "stopped_sum":
            ssl = exact.stopped_sum_law(scheme, rho, n)
            header, cols = ["m", "p_stopped_sum", "u_m"], [ssl.s_n, ssl.u]
        elif law == "prefix1":
            cols = [exact.prefix_law(scheme, n, 1).joint]
        elif law == "deficit":
            exact_d, limit_d = exact.giant_deficit_law(scheme, n)
            header, cols = ["d", "exact_pmf"], [exact_d.pmf]
            if limit_d is not None:  # None: size-biased limit undefined (E[N] diverges)
                header, cols = header + ["limit_pmf"], cols + [limit_d.pmf]
        else:
            sys.exit(f"error: unknown law {law!r}")
    except exact.TailCertificationError as err:  # a series tail that cannot be certified
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (exact.BudgetExceededError, ValueError) as err:  # a size guard, or a law undefined at this n or rho
        sys.exit(f"error: {err}")
    _write_csv(header, np.column_stack([np.arange(cols[0].size)] + cols), args.out)
    return 0


def _cmd_laws(args) -> int:
    lo, hi, num = args.grid
    if not (num.is_integer() and num >= 1):
        sys.exit(f"error: --grid NUM must be a positive integer, got {num:g}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        sys.exit(f"error: --grid LO and HI must be finite, got {lo:g} and {hi:g}")
    xs = np.linspace(lo, hi, int(num))
    try:
        if args.law == "stable_density":
            p = limit_laws.StableParams(args.alpha, args.gamma, args.beta, args.delta)
            ys = limit_laws.stable_density_series(p, xs)
        elif args.law == "gumbel_cdf":
            ys = limit_laws.gumbel_cdf(xs)
        elif args.law == "frechet_cdf":
            law = limit_laws.frechet_law(args.mu, args.alpha, args.rank)
            ys = law.cdf(xs)
        elif args.law == "dilute_density":
            p = limit_laws.DiluteParams(args.alpha, args.b, args.lam)
            ys = limit_laws.dilute_Z_density(p, xs)
        elif args.law == "pp_intensity":
            ys = limit_laws.pp_intensity(args.alpha, args.b, xs)
        else:
            sys.exit(f"error: unknown law {args.law!r}")
    except (ValueError, RuntimeError) as err:
        # parameters a law refuses, or an inversion grid past its node budget
        sys.exit(f"error: {err}")
    _write_csv(["x", "value"], np.column_stack([xs, ys]), args.out)
    return 0


def _cmd_sample(args) -> int:
    scheme = _get_scheme(args)
    n = args.n
    seed = 1 if args.seed is None else args.seed
    if seed < 0:
        sys.exit(f"error: --seed must be a non-negative integer, got {seed}")
    if args.replicates > 1 << 32:  # replicate i draws on spawn word i, 32 bits
        sys.exit(f"error: --replicates must be at most 2**32, got {args.replicates}")
    stats_fields = [s.strip() for s in args.stats.split(",") if s.strip()]
    if isinstance(scheme, ProductSpec):  # exact coordinate draws, written as they are
        if args.method == "rejection":
            sys.exit(f"error: --method rejection does not apply to product scheme {args.scheme!r}")
        if stats_fields:
            sys.exit(f"error: --stats does not apply to product scheme {args.scheme!r}")
    for f in stats_fields:
        if not (f.startswith("count_") and f[6:].isdecimal()):
            sys.exit(f"error: unknown stat {f!r} (use count_<k>, k a non-negative integer)")
    stat_sizes = [int(f[6:]) for f in stats_fields]
    try:
        if isinstance(scheme, ProductSpec):
            shared = sampling.ProductSampler(scheme, n)
        elif args.method == "rejection":
            shared = sampling.RejectionSampler(scheme, n)
        else:
            shared = sampling.ExactSampler(scheme, n)
    except exact.BudgetExceededError as err:  # the exact sampler's, before any table is built
        sys.exit(f"error: {err} (--method rejection)")
    except exact.TailCertificationError as err:  # a series tail that cannot be certified
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:  # e.g. no configuration of size n
        sys.exit(f"error: {err}")
    rngs = sampling.make_rngs(seed, args.replicates)
    if isinstance(scheme, ProductSpec):
        rows = list(shared.sample_many(rngs))
        _write_csv([f"coordinate_{j}" for j in range(len(scheme.factors))], rows, args.out)
        return 0
    header = ["replicate", "n_components", "largest", "second_largest"] + stats_fields
    if isinstance(shared, sampling.ExactSampler):
        draws = shared.sample_many(rngs)  # the same bytes as one sample call per stream
    else:  # rejection draws one stream at a time
        draws = map(shared.sample, rngs)
    rows = []
    for i, s in enumerate(draws):
        srt = np.sort(s.sizes)[::-1]
        row = [i, s.n_components, srt[0], srt[1] if srt.size > 1 else 0]
        rows.append(row + [int(np.count_nonzero(s.sizes == k)) for k in stat_sizes])
    _write_csv(header, rows, args.out)
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
    except (SuiteConfigError, PhaseMismatchError, exact.BudgetExceededError,
            exact.TailCertificationError) as err:  # exit code 1 is a failed verdict
        print(json.dumps({"error": type(err).__name__, "message": str(err)}), file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    # the subcommands' copies of the global flags have no default, so that
    # one given before the subcommand keeps its value
    common, unset = argparse.ArgumentParser(add_help=False), argparse.ArgumentParser(add_help=False)
    for parser, none, out in ((common, None, "out"), (unset, argparse.SUPPRESS, argparse.SUPPRESS)):
        parser.add_argument("--config", default=none, help="JSON config with scheme declarations")
        parser.add_argument("--out-dir", default=out, help="output directory for verify")
        parser.add_argument("--seed", type=int, default=none,
                            help="override the config seed (default: config value or 1)")
    top = argparse.ArgumentParser(
        prog="gibbs-partitions",
        description="Phase diagram, exact laws, samplers and verifiers for "
        "composition-scheme partition models",
        parents=[common],
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[unset], **kw)

    p = add("classify", help="print the phase report of a scheme")
    p.add_argument("--scheme", required=True)
    p.set_defaults(fn=_cmd_classify)

    p = add("exact", help="emit an exact finite-n law as CSV")
    p.add_argument("--scheme", required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
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
    p.add_argument("--rank", type=_int_at_least(1), default=1)
    p.add_argument("--grid", type=float, nargs=3, metavar=("LO", "HI", "NUM"),
                   default=(-5.0, 5.0, 101.0))
    # argparse reads only -1 and -1.5 as negative numbers, and -1e2 or -inf
    # as an option; this subcommand has no option that starts so
    p._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf$|infinity$|nan$)", re.IGNORECASE)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_laws)

    p = add("sample", help="draw partition samples, one CSV row each")
    p.add_argument("--scheme", required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--replicates", type=_int_at_least(0), default=10)
    p.add_argument("--method", choices=["exact", "rejection"], default="exact")
    p.add_argument("--stats", default="", help="comma list, e.g. count_1,count_2")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sample)

    p = add("verify", help="run a verifier suite from a config")
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output early (``| head``): point it at
        # devnull, so that the flush at exit cannot fail again, and exit 1
        # (the recipe of Python's ``signal`` documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
