"""One benchmark child: a fresh interpreter running one workload once.

Modes:
  setup   set the workload up and report the set-up time only;
  timed   set up, run the measured phase untraced, check the outputs;
  traced  the same with every layer entry point wrapped (see tracing.py).

The result goes to ``<out>/result.json``.  run.py starts the children with
``src`` on PYTHONPATH and one BLAS/OpenMP thread; run this file directly
only to debug a workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import resource
import sys
import time

import tracing
from clock import Clock
from workloads import WORKLOADS, Outcome, fft_tilt_dev

REPO = pathlib.Path(__file__).resolve().parent.parent

# per-layer metrics read from the traced run's spans: metric -> (span, field)
SPAN_METRICS = {
    "exact.law_Nn.s": ("exact.law_Nn", "s"),
    "exact.law_Nn.calls": ("exact.law_Nn", "calls"),
    "exact.prefix_law.s": ("exact.prefix_law", "s"),
    "exact.giant_deficit_law.s": ("exact.giant_deficit_law", "s"),
    "exact.stopped_sum_law.s": ("exact.stopped_sum_law", "s"),
    "exact.extended_law_Nn.s": ("exact.extended_law_Nn", "s"),
    "exact.default_rho.s": ("exact.default_rho", "s"),
    "exact.default_rho.calls": ("exact.default_rho", "calls"),
    "exact.law_X.calls": ("exact.law_X", "calls"),
    "sampling.ExactSampler.init_s": ("sampling.ExactSampler.init", "s"),
    "sampling.ExactSampler.init_calls": ("sampling.ExactSampler.init", "calls"),
    "sampling.sample.s": ("sampling.sample", "s"),
    "sampling.sample.calls": ("sampling.sample", "calls"),
    "laws.dilute_Z_density.s": ("laws.dilute_Z_density", "s"),
    "laws.dilute_Z_density.calls": ("laws.dilute_Z_density", "calls"),
    "laws.dilute_Z_cdf.s": ("laws.dilute_Z_cdf", "s"),
    "laws.mixed_poisson_pmf.s": ("laws.mixed_poisson_pmf", "s"),
    "laws.pp_factorial_moment.s": ("laws.pp_factorial_moment", "s"),
    "laws.pp_intensity_integral.s": ("laws.pp_intensity_integral", "s"),
    "laws.stable_density_series.s": ("laws.stable_density_series", "s"),
    "laws.stable_density_series.calls": ("laws.stable_density_series", "calls"),
    "laws.stable_density_inversion.calls": ("laws.stable_density_inversion", "calls"),
    "weights.series_value.s": ("weights.series_value", "s"),
    "weights.series_value.calls": ("weights.series_value", "calls"),
    "weights.weighted_terms.s": ("weights.weighted_terms", "s"),
    "weights.weighted_terms.calls": ("weights.weighted_terms", "calls"),
    "weights.weighted_moment.s": ("weights.weighted_moment", "s"),
    "weights.weighted_moment.calls": ("weights.weighted_moment", "calls"),
    "phases.classify.s": ("phases.classify", "s"),
    "phases.classify.calls": ("phases.classify", "calls"),
    "cli.main.s": ("cli.main", "s"),
}


def layer_metrics(spans, counters) -> tuple[dict, dict]:
    """The per-layer metrics of SPAN_METRICS and friends, and the full summary."""
    summary = tracing.summarize(spans)
    out = {m: summary.get(span, {}).get(field, 0) for m, (span, field) in SPAN_METRICS.items()}
    for n in (1000, 4000):
        out[f"exact.law_Nn.n{n}_s"] = summary.get(f"exact.law_Nn@n{n}", {}).get("s", 0.0)
    coords = counters.get("sampling.sample", 0)
    out["sampling.coords"] = coords
    out["sampling.coord_us"] = 1e6 * out["sampling.sample.s"] / coords if coords else 0.0
    # suite time that no span of the computing layers covers
    out["verify.self_s"] = tracing.covered_outside(
        spans, "cli.main", ("exact", "sampling", "laws", "phases")
    )
    return out, summary


def environment() -> dict:
    import io
    import platform

    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        np.show_runtime()  # SIMD features: verdict bits depend on them
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy_runtime": buf.getvalue(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "timed", "traced"])
    ap.add_argument("--out", required=True, type=pathlib.Path)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    clock = Clock()
    clock.start()
    spawned = time.perf_counter() - (time.monotonic() - args.spawned)

    t_import = time.perf_counter()
    import gibbs_partitions  # noqa: F401  the program's own import cost
    t_imported = time.perf_counter()

    recorder = None
    if args.mode == "traced":
        recorder = tracing.Recorder(run_id=f"{args.workload}-seed{args.seed}")
    out = Outcome()
    with recorder or contextlib.nullcontext():  # the wrappers go before the checks
        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed, args.seconds, args.out)
        first_op = time.perf_counter()
        if args.mode != "setup":
            workload.run(out)
        done = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    clock.stop()

    result = {
        "mode": args.mode,
        "setup_s": clock.seconds(spawned, first_op),
        "import_s": clock.seconds(t_import, t_imported),
        "raw_setup_s": first_op - spawned,
        "probes": len(clock.probes),
    }
    if args.mode == "setup":
        (args.out / "result.json").write_text(json.dumps(result))
        return 0

    wall_s = clock.seconds(first_op, done)
    if recorder is not None:
        left = tracing.still_wrapped()
        if left:
            out.fail(1, f"wrappers left in place: {left}")
        spans = [(name, clock.warp(a), clock.warp(b), parent, run, n)
                 for name, a, b, parent, run, n in recorder.spans]
        layers, summary = layer_metrics(spans, recorder.counters)
        result["layers"] = layers
        result["spans"] = len(spans)
        with open(args.out / "spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id", "n"],
                       "counters": recorder.counters, "spans": spans}, fh)
        (args.out / "layers.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
        (args.out / "env.json").write_text(json.dumps(environment(), indent=1))
        result["fft_tilt_dev"] = fft_tilt_dev()

    workload.check(out, REPO)
    slowdown = (done - first_op) / wall_s
    result.update(
        wall_s=wall_s,
        raw_wall_s=done - first_op,
        slowdown=slowdown,
        peak_rss_mb=peak_rss_mb,
        cpu_s=sum(u.ru_utime + u.ru_stime for u in usage) / clock.slowdown(spawned, done),
        # program-timed operations get the phase's mean speed
        op_s=[clock.seconds(a, b) for a, b in out.op_spans] + [d / slowdown for d in out.op_raw_s],
        attempted=out.attempted,
        failed=out.failed,
        failures=out.failures,
        diag=out.diag,
    )
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
