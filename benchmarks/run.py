"""Benchmark of the gibbs_partitions program: one workload, one result line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Each workload runs in fresh single-threaded interpreters (child.py):

  --trace 0  one untraced run gives the end-to-end metrics; two more
             children only set up, and setup_s is the median of three;
  --trace 1  one untraced and one traced run give the per-layer metrics and
             the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it are
diagnostics.  Everything a run writes goes under ``.bench_out/``.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from statistics import median

from measure import percentile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-suite", "exact-sweep", "sample-dense", "sample-sparse")
SETUP_SAMPLES = 3  # set-up times per --trace 0 run, the measured child's included
TIME_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"  # two shared cores: keep every child single-threaded
    return env


def spawn(args, mode: str, tag: str, out_root: pathlib.Path, deadline: float) -> dict:
    out = out_root / tag
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--out", str(out)]
    with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=child_env(),
                                  stdout=so, stderr=se, timeout=max(deadline - spawned, 1.0))
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{tag}: no result within the {TIME_LIMIT_S:.0f} s limit") from None
    if proc.returncode != 0:
        tail = (out / "stderr.txt").read_text()[-2000:]
        raise ChildFailed(f"{tag}: exit code {proc.returncode}\n{tail}")
    return json.loads((out / "result.json").read_text())


def end_to_end(timed: dict, setups: list) -> dict:
    return {
        "wall_s": timed["wall_s"],
        "setup_s": median([r["setup_s"] for r in setups]),
        "peak_rss_mb": timed["peak_rss_mb"],
        "ops_per_s": len(timed["op_s"]) / timed["wall_s"],
    }


def per_layer(untraced: dict, traced: dict, names) -> dict:
    m = dict(traced["layers"])
    m["exact.fft_tilt_dev"] = traced["fft_tilt_dev"]
    # program-reported per-experiment totals, from the untraced run
    exp_s = untraced["diag"].get("experiment_s", {})
    for name in names:
        if name.startswith("verify.") and name.endswith(".s"):
            m[name] = exp_s.get(name[len("verify."):-len(".s")], 0.0) / untraced["slowdown"]
    # latency percentiles vary by more than a tenth between seeds (see
    # README.md), so they are per-layer metrics, from the untraced child
    m["op_ms_p50"] = 1e3 * percentile(untraced["op_s"], 50)[0]
    m["op_ms_p99"] = 1e3 * percentile(untraced["op_s"], 99)[0]
    m["process.cpu_s"] = untraced["cpu_s"]
    m["process.import_s"] = untraced["import_s"]
    m["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    m["machine.slowdown"] = untraced["slowdown"]
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "gibbs_partitions" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    out_root = ROOT / ".bench_out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)

    try:
        timed = spawn(args, "timed", "timed", out_root, deadline)
        if args.trace:
            traced = spawn(args, "traced", "traced", out_root, deadline)
            checked = [timed, traced]
        else:
            setups = [timed] + [
                spawn(args, "setup", f"setup-{i}", out_root, deadline)
                for i in range(1, SETUP_SAMPLES)
            ]
            checked = [timed]
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    failures = [f for r in checked for f in r["failures"]]
    if args.workload == "verify-suite" and args.trace:
        # two suite runs of one seed, the traced one included: identical bytes
        digests = {r["diag"].get("verdicts_sha256") for r in checked}
        if len(digests) != 1:
            failed += checked[-1]["attempted"]
            failures.append(f"verdicts.json differs between two runs of one seed: {sorted(map(str, digests))}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if args.trace:
        metrics = per_layer(timed, traced, units)
        metrics["failed_ratio"] = failed / attempted  # 0 when healthy, so not end-to-end
    else:
        metrics = end_to_end(timed, setups)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    diag = {k: v for k, v in timed["diag"].items() if k != "experiment_s"}
    _, n_ops, beyond = percentile(timed["op_s"], 99)
    diag.update(raw_wall_s=timed["raw_wall_s"], slowdown=timed["slowdown"], op_samples=n_ops,
                op_p99_samples_beyond=beyond, failures=failures)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "diagnostics": diag,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (out_root / "results.json").write_text(json.dumps(summary, indent=1))
    for key, value in diag.items():
        print(f"# {key}: {value}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
