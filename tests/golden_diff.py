"""What a change moves in the builtin suite's golden outputs.

Runs ``gibbs-partitions verify --config builtin:phases`` on this checkout's
``src/`` and prints

* every verdict value that differs from ``tests/data/golden_verdicts.json``
  (old -> new, and the relative move);
* for every CSV whose sha256 differs from ``tests/data/golden_csvs.json``,
  the rows that changed and the largest relative move in each column.  The
  old rows come from the same suite run on the committed ``src/`` (HEAD),
  extracted with ``git archive``.

Only with ``--write`` does it rewrite the two golden files from the
checkout's run.  pytest does not collect this file.

    python tests/golden_diff.py [--write]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import zipfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def run_suite(src: pathlib.Path, out: pathlib.Path) -> None:
    """The builtin suite on the package under ``src``, into ``out``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "gibbs_partitions.cli", "verify", "--config", "builtin:phases", "--out-dir", str(out)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    # 1 is a failed verdict, with verdicts.json still written, or a traceback
    if proc.returncode not in (0, 1) or not (out / "verdicts.json").exists():
        sys.exit(f"verify on {src} exited {proc.returncode}:\n{proc.stderr}")


def csv_digests(out: pathlib.Path) -> dict[str, str]:
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))}


def relative_move(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old != 0.0 and math.isfinite(old) else math.inf


def leaves(value, path=""):
    """(path, value) for every number, string, bool or None in a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def verdict_moves(old: dict, new: dict) -> list[str]:
    """One line for each verdict leaf that differs, keyed by experiment."""
    def keyed(doc):
        out = {"seed": doc.get("seed")}
        for v in doc["verdicts"]:
            out.update({f"{v['experiment']}.{k}": x for k, x in leaves(v) if k != "experiment"})
        return out

    a, b = keyed(old), keyed(new)
    lines = []
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key, "<absent>"), b.get(key, "<absent>")
        if x == y and type(x) is type(y):
            continue
        line = f"  {key}: {x!r} -> {y!r}"
        if all(isinstance(v, float) for v in (x, y)):
            line += f"  (relative {relative_move(x, y):.2e})"
        lines.append(line)
    return lines


def csv_moves(old_text: str, new_text: str) -> list[str]:
    """The changed rows of one CSV and the largest relative move per column."""
    old_rows, new_rows = (list(csv.reader(io.StringIO(t))) for t in (old_text, new_text))
    if old_rows[:1] != new_rows[:1] or len(old_rows) != len(new_rows):
        return [f"  header or row count changed: {len(old_rows) - 1} -> {len(new_rows) - 1} rows"]
    header, worst, changed = old_rows[0], [0.0] * len(old_rows[0]), 0
    for r, s in zip(old_rows[1:], new_rows[1:]):
        if r == s:
            continue
        changed += 1
        worst = [max(w, relative_move(float(x), float(y))) for w, x, y in zip(worst, r, s)]
    lines = [f"  rows changed: {changed} of {len(old_rows) - 1}"]
    lines += [f"  {name}: largest relative move {w:.2e}" for name, w in zip(header, worst) if w > 0.0]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden files from this checkout's run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        run_suite(ROOT / "src", tmp / "new")
        old_verdicts = json.loads((DATA / "golden_verdicts.json").read_text())
        new_bytes = (tmp / "new" / "verdicts.json").read_bytes()
        old_csvs, new_csvs = json.loads((DATA / "golden_csvs.json").read_text()), csv_digests(tmp / "new")
        moves = verdict_moves(old_verdicts, json.loads(new_bytes))
        print(f"verdicts.json sha256 {hashlib.sha256(new_bytes).hexdigest()}")
        print(f"verdict values moved: {len(moves)}")
        print("\n".join(moves))
        moved = sorted(name for name in old_csvs.keys() | new_csvs.keys() if old_csvs.get(name) != new_csvs.get(name))
        print(f"CSVs moved: {len(moved)} of {len(new_csvs)}")
        if moved:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=zip", "HEAD", "src"],
                                     capture_output=True, check=True).stdout
            with zipfile.ZipFile(io.BytesIO(archive)) as zf:
                zf.extractall(tmp / "base")
            run_suite(tmp / "base" / "src", tmp / "old")
            for name in moved:
                print(name)
                old_path, new_path = tmp / "old" / name, tmp / "new" / name
                if not (old_path.exists() and new_path.exists()):
                    print("  present on one side only")
                    continue
                if hashlib.sha256(old_path.read_bytes()).hexdigest() != old_csvs.get(name):
                    print("  note: HEAD's CSV does not hash to the golden digest either")
                print("\n".join(csv_moves(old_path.read_text(), new_path.read_text())))
        if args.write:
            (DATA / "golden_verdicts.json").write_bytes(new_bytes)
            (DATA / "golden_csvs.json").write_text(json.dumps(new_csvs, indent=2, sort_keys=True) + "\n")
            print("golden files rewritten")
    return 0


if __name__ == "__main__":
    sys.exit(main())
