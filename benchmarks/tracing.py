"""Span recording for the benchmark's traced run.

The program has no tracing of its own yet, so the traced run wraps the
layer entry points from outside: module attributes and class methods of
``gibbs_partitions`` are replaced by timing wrappers and put back when the
run ends.  Spans stay in memory as (name, start, end, parent, run id, n)
rows; the caller writes them out once, after the measured phase.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Layers whose public module-level functions are wrapped, in span-name form
# "<layer>.<function>".  Only functions defined in the module itself count;
# names imported from elsewhere (scipy, sibling modules) are skipped.
LAYER_MODULES = ("exact", "sampling", "laws", "phases", "cli")

# Public methods wrapped on their classes: (module, class, method, span
# name).  ExactSampler.sample also counts the components it draws.
METHODS = (
    ("weights", "WeightSequence", "series_value", "weights.series_value"),
    ("weights", "WeightSequence", "weighted_terms", "weights.weighted_terms"),
    ("weights", "WeightSequence", "weighted_moment", "weights.weighted_moment"),
    ("sampling", "ExactSampler", "__init__", "sampling.ExactSampler.init"),
    ("sampling", "ExactSampler", "sample", "sampling.sample"),
)

PACKAGE = "gibbs_partitions"


def interval_union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of [start, end] its children cover.

    Children may nest inside one another or overlap; each instant counts
    once, and child time outside the parent's interval is ignored.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - interval_union([c for c in clipped if c[1] > c[0]])


def _n_position(fn):
    """Index of a parameter called ``n`` in fn's signature, or None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("n") if "n" in params else None


class Recorder:
    """Wraps layer entry points and records one span per call.

    Single-threaded by design: the benchmark children run the program with
    one thread, so a plain stack gives each span its parent.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list = []  # (owner, attribute, original)

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped so each call records a span named ``name``.

        ``count`` optionally maps the call's result to a number added to
        the counter of the same name.
        """
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter
        counters = self.counters
        n_pos = _n_position(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = None
            if n_pos is not None:
                n = args[n_pos] if n_pos < len(args) else kwargs.get("n")
            idx = len(spans)
            spans.append(None)  # reserve the slot so a parent precedes its children
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id, n)
            if count is not None:
                counters[name] = counters.get(name, 0) + count(result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def install(self) -> None:
        """Import the traced modules and wrap every target."""
        if self._patched:
            raise RuntimeError("recorder already installed")
        for layer in LAYER_MODULES + ("weights",):
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        replacements = {}  # id(original) -> wrapper
        for layer in LAYER_MODULES:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, val in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(val)
                    and val.__module__ == mod.__name__
                ):
                    replacements[id(val)] = (val, self.wrap(f"{layer}.{attr}", val))
        # rebind every module attribute that refers to a wrapped function,
        # so `from .exact import law_Nn` call sites are traced too
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = replacements.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))
        for modname, clsname, meth, span in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{modname}"], clsname)
            orig = cls.__dict__[meth]
            count = (lambda s: s.n_components) if span == "sampling.sample" else None
            setattr(cls, meth, self.wrap(span, orig, count=count))
            self._patched.append((cls, meth, orig))

    def uninstall(self) -> None:
        """Put back every original, in reverse order of patching."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def still_wrapped() -> list[str]:
    """Names in the package that still hold a benchmark wrapper."""
    left = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if hasattr(val, "__wrapped_original__"):
                left.append(f"{name}.{attr}")
            if inspect.isclass(val):
                for meth, fn in list(vars(val).items()):
                    if hasattr(fn, "__wrapped_original__"):
                        left.append(f"{name}.{attr}.{meth}")
    return left


def summarize(spans) -> dict:
    """Per span name: calls, total seconds and self seconds.

    ``s`` sums the outermost calls only, so a function that reaches itself
    again through other layers is not counted twice; ``self_s`` subtracts
    the time direct children cover.  Spans that recorded an ``n`` argument
    are also summed under "<name>@n<n>".
    """
    children: dict[int, list] = {}
    for sp in spans:
        if sp[3] >= 0:
            children.setdefault(sp[3], []).append((sp[1], sp[2]))
    out: dict[str, dict] = {}
    for idx, (name, start, end, parent, _run, n) in enumerate(spans):
        own = self_time(start, end, children.get(idx, ()))
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        for key in (name, f"{name}@n{n}") if n is not None else (name,):
            agg = out.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += own
            if p < 0:
                agg["s"] += end - start
    return out


def covered_outside(spans, root: str, layers) -> float:
    """Seconds of ``root`` spans not covered by any span of ``layers``.

    Every descendant counts, however deep, so nested and overlapping
    layer spans are each counted once.
    """
    prefixes = tuple(f"{layer}." for layer in layers)
    total = 0.0
    roots = [i for i, sp in enumerate(spans) if sp[0] == root]
    for r in roots:
        start, end = spans[r][1], spans[r][2]
        inner = [
            (sp[1], sp[2]) for sp in spans
            if sp[0].startswith(prefixes) and start <= sp[1] and sp[2] <= end
        ]
        total += self_time(start, end, inner)
    return total
