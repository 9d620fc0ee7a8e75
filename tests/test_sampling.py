"""Samplers: law agreement with the enumeration oracle, exact-vs-rejection
consistency, reproducibility, acceptance-rate accounting, statistics."""

import itertools
import math
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.stats import chi2_contingency, kstest

from gibbs_partitions import (
    ProductSpec,
    SchemeSpec,
    WeightSequence,
    bundled_scheme,
    exact,
    sampling,
    stopped_sum_law,
)
from gibbs_partitions.sampling import (
    _CHUNK,
    ExactSampler,
    ProductSampler,
    RejectionSampler,
    make_rng,
)


def test_exact_sampler_calibrates_once(monkeypatch):
    """The sampler's count law and P(X = .) come from one sweep, so the
    component-size law (``_law_X``, which ``law_X`` also calls) is built
    once, however the sampler reaches it."""
    calls = []
    law_x = exact._law_X

    def counted(*args):
        calls.append(args)
        return law_x(*args)

    for mod in (exact, sampling):
        if getattr(mod, "_law_X", None) is law_x:
            monkeypatch.setattr(mod, "_law_X", counted)
    ExactSampler(bundled_scheme("convergent"), 300)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "name, n, method",
    [
        ("dense-gauss", 500, "direct"),
        ("dense-stable", 3000, "fft"),
        ("dilute", 4000, "fft"),
        ("convergent", 2100, "fft"),
    ],
)
def test_table_starts_from_the_harvest_rows(name, n, method, fft_product_row, stepped_rows):
    """Rows 0..B of the table are the count law's harvest rows, each
    stepped from the row before.  In the direct regime the rest are
    stepped on from row B; in the FFT regime each is the product of two
    earlier rows, inverse-transformed ``_ROW_BLOCK`` giants of one baby at
    a time.  Either way calls that cut the rows anywhere, inside a block
    too, write the bytes of one call.  Each row is a zero-led view of the
    one table, and the count law is law_Nn's."""
    scheme = bundled_scheme(name)
    smp = ExactSampler(scheme, n)
    assert exact._conv_method(smp.pmf_x, n, "auto") == method
    babies = exact._giant_stride(smp.count_cdf.size - 1) + 1
    assert len(smp._rows) == babies
    # the rows span more than one block of giant rows and, in the FFT
    # regime, their products
    ell = (exact._ROW_BLOCK + 3) * babies
    smp._ensure_rows(ell)
    fft = method == "fft"
    stepped = stepped_rows(smp.pmf_x, n, babies - 1 if fft else ell, fft)
    for ell_, row in enumerate(smp._rows):
        want = fft_product_row(smp._rows, ell_, babies - 1) if ell_ >= babies and fft else stepped[ell_]
        assert row.tobytes() == want.tobytes()
        assert np.shares_memory(row, smp._table)
    assert len(smp._rows) == ell + 1
    assert not smp._table[: ell + 1, :_CHUNK].any()
    # calls that cut the rows anywhere, also at and just past a giant row
    # and inside a block of giants, write the bytes of the one call
    cut = ExactSampler(scheme, n)
    B = babies - 1
    for top in (B + 1, B + 3, 2 * B - 1, 2 * B, 2 * B + 5, 2 * B + 7, (exact._ROW_BLOCK + 1) * B + 2, ell - 1, ell):
        cut._ensure_rows(top)
    assert np.array(cut._rows).tobytes() == np.array(smp._rows).tobytes()
    # no array but the table holds rows
    held = [v for v in vars(smp).values() if isinstance(v, np.ndarray) and v.ndim == 2]
    assert len(held) == 1 and held[0] is smp._table
    assert smp.count_law.pmf.tobytes() == exact.law_Nn(scheme, n).pmf.tobytes()


_BLOCKED_ROWS_CHECK = """
import numpy as np
from numpy.fft import irfft, rfft
from gibbs_partitions import bundled_scheme, exact
from gibbs_partitions.sampling import ExactSampler
n = 2100
smp = ExactSampler(bundled_scheme("convergent"), n)
B = len(smp._rows) - 1
for top in (B + 3, 2 * B + 5, (exact._ROW_BLOCK + 3) * B + 7):
    smp._ensure_rows(top)
size = exact._next_fast_len(2 * n + 1)
same = []
for j in range(B + 1, len(smp._rows)):
    a, b = divmod(j, B)
    left, right = ((a - 1) * B, B) if b == 0 else (a * B, b)
    spec = rfft(smp._rows[left], size) * rfft(smp._rows[right], size)
    same.append(smp._rows[j].tobytes() == np.clip(irfft(spec, size)[: n + 1], 0.0, None).tobytes())
print(len(same), all(same))
"""


def test_blocked_rows_do_not_follow_simd_level(baseline_cpu_env):
    """With numpy's SIMD dispatch off, the blocked rows are still the
    per-row products computed in the same interpreter: blocking moves no
    bit on either path of the complex product and the transform."""
    child = subprocess.run(
        [sys.executable, "-c", _BLOCKED_ROWS_CHECK],
        env=baseline_cpu_env, capture_output=True, text=True, timeout=120, check=True,
    )
    B = 46
    assert child.stdout.split() == [str((exact._ROW_BLOCK + 2) * B + 7), "True"]


def test_sizes_always_sum_to_n(dense_gauss):
    smp = ExactSampler(dense_gauss, 200)
    for i in range(50):
        s = smp.sample(make_rng(3, i))
        assert int(s.sizes.sum()) == 200  # also enforced internally


def test_reproducible_byte_for_byte(dense_stable):
    # two separate samplers of each kind: no state shared between the draws
    a = ExactSampler(dense_stable, 300).sample(make_rng(11, 7))
    b = ExactSampler(dense_stable, 300).sample(make_rng(11, 7))
    assert np.array_equal(a.sizes, b.sizes)
    c = RejectionSampler(dense_stable, 40).sample(make_rng(11, 7))
    d = RejectionSampler(dense_stable, 40).sample(make_rng(11, 7))
    assert np.array_equal(c.sizes, d.sizes)
    assert not np.array_equal(
        a.sizes, ExactSampler(dense_stable, 300).sample(make_rng(11, 8)).sizes
    )


@pytest.mark.parametrize("extra", [-1, 0])
def test_sample_many_walks_in_lockstep_from_lockstep_min(extra, monkeypatch):
    """``sample_many`` draws fewer than ``_LOCKSTEP_MIN`` generators through
    ``sample`` and more in lockstep, with the bytes of one ``sample`` call
    per generator either way."""
    smp = ExactSampler(bundled_scheme("dense-stable"), 150)
    count = sampling._LOCKSTEP_MIN + extra
    want = [smp.sample(make_rng(5, i)).sizes.tobytes() for i in range(count)]
    walks = []
    lockstep = ExactSampler._lockstep
    monkeypatch.setattr(ExactSampler, "_lockstep", lambda *args: walks.append(1) or lockstep(*args))
    got = [s.sizes.tobytes() for s in smp.sample_many(make_rng(5, i) for i in range(count))]
    assert got == want
    assert bool(walks) == (extra >= 0)


def test_single_component_degenerate(single_component):
    s = ExactSampler(single_component, 77).sample(make_rng(1))
    assert s.n_components == 1 and s.sizes[0] == 77
    # X = 1 surely: all parts are 1
    ones = SchemeSpec(
        v=bundled_scheme("bell").v, w=WeightSequence.explicit([0.0, 1.0])
    )
    s = ExactSampler(ones, 40).sample(make_rng(2))
    assert s.n_components == 40
    assert np.all(s.sizes == 1)


def _chunked_walk_sample(smp, rng):
    """The exact sampler's draw as a numpy walk over every chunk, with one
    scalar uniform per coordinate: the reference for its stream bytes."""
    ell = smp.draw_count(rng)
    smp._ensure_rows(ell)
    sizes = np.empty(ell, dtype=np.int64)
    rem = smp.n
    for i in range(ell):
        j = ell - 1 - i
        if j == 0:
            sizes[i] = rem
            break
        row = smp._rows[j]
        target = rng.random() * smp._rows[j + 1][rem]
        acc = 0.0
        k = -1
        for lo in range(0, rem + 1, _CHUNK):
            hi = min(lo + _CHUNK, rem + 1)
            seg = smp.pmf_x[lo:hi] * row[rem - hi + 1 : rem - lo + 1][::-1]
            cs = np.cumsum(seg)
            if acc + cs[-1] >= target:
                at = int(np.searchsorted(cs, target - acc, side="left"))
                k = lo + at if at < cs.size else -1  # past the chunk: round-off
                break
            acc += cs[-1]
        # the two edges: sizes with positive conditional mass that leave
        # every later coordinate its smallest size
        top = rem - j * int(np.flatnonzero(smp.pmf_x)[0])
        feasible = np.flatnonzero(smp.pmf_x[: top + 1] * row[rem - top : rem + 1][::-1])
        if target == 0.0:  # a uniform of 0: the smallest feasible size
            k = int(feasible[0])
        elif k < 0:  # round-off: the largest feasible size
            k = int(feasible[-1])
        sizes[i] = k
        rem -= k
    return sizes


class _ScriptedRng:
    """Serves a fixed list of uniforms, to scalar and array calls alike."""

    def __init__(self, values):
        self.values = list(values)
        self.pos = 0

    def random(self, size=None):
        if size is None:
            self.pos += 1
            return self.values[self.pos - 1]
        self.pos += size
        return np.array(self.values[self.pos - size : self.pos])


def _batches_match(batch, want, fallbacks, make_rngs, monkeypatch):
    """``batch.sample_many`` against ``want``, the sizes bytes that
    ``sample`` gave per generator with ``fallbacks`` round-off fallbacks in
    all, each batch adding as many: the whole batch (one block at the
    default size), the batch cut into about four blocks, its first
    generator alone and an empty batch.  The batch is walked in lockstep
    however few its generators."""
    monkeypatch.setattr(sampling, "_LOCKSTEP_MIN", 1)
    # a block closes once a largest count might not fit: with this size it
    # holds about a quarter of the batch's coordinates
    quarter = sum(len(sizes) // 8 for sizes in want) // 4
    for block in (None, batch.count_cdf.size + quarter):
        if block is not None:
            monkeypatch.setattr(sampling, "_BATCH_COORDS", block)
        before = batch.roundoff_fallbacks
        # all draws kept before any is read: a later block must not reuse
        # the buffers of the views it has yielded
        got = list(batch.sample_many(make_rngs()))
        assert [s.sizes.tobytes() for s in got] == want
        assert batch.roundoff_fallbacks - before == fallbacks
    monkeypatch.undo()
    assert [s.sizes.tobytes() for s in batch.sample_many(make_rngs()[:1])] == want[:1]
    assert list(batch.sample_many([])) == []


def _dense_on(w):
    """A dense critical scheme on the weights w: v_l = l^-3/2 W(1)^-l."""
    return SchemeSpec(v=WeightSequence.closed_form(e=1.5, rho=w.series_value(1.0)), w=w)


# schemes whose smallest size with mass is not 1, where the walk starts
_WALK_SCHEMES = {
    "w0-positive": lambda: _dense_on(WeightSequence.closed_form(e=2.5, term0=0.5)),
    "w1-zero": lambda: _dense_on(WeightSequence.closed_form(e=2.5, start_index=2)),
}


@pytest.mark.parametrize(
    "name, n, rho, streams",
    [
        ("dense-stable", 600, None, 200),
        ("dense-stable", 3000, None, 20),  # the FFT regime, about 1500 coordinates a draw
        ("dense-gauss", 600, None, 200),
        ("convergent", 2000, None, 300),  # the giant crosses many chunks
        ("dilute", 1000, None, 300),
        ("dilute", 4000, None, 60),  # FFT rows, about 2.5 spills a draw
        ("bell", 3, 1.0, 300),
        ("single-component", 77, None, 200),
        ("dense-gauss", 100, None, 300),  # every remainder below _CHUNK
        ("w0-positive", 600, None, 100),  # k0 = 0: components of size 0
        ("w1-zero", 600, None, 200),  # k0 = 2, also for remainders below _CHUNK
    ],
)
def test_exact_sampler_matches_chunked_walk(name, n, rho, streams, monkeypatch):
    scheme = _WALK_SCHEMES[name]() if name in _WALK_SCHEMES else bundled_scheme(name)
    smp = ExactSampler(scheme, n)
    ref = ExactSampler(scheme, n)
    if rho is not None:
        # the sampler calibrates itself: by tilt invariance its count law is
        # law_Nn's at any other radius
        assert np.max(np.abs(smp.count_law.pmf - exact.law_Nn(scheme, n, rho=rho).pmf)) <= 1e-12
    spilled = 0
    drawn = []
    for i in range(streams):
        got = smp.sample(make_rng(17, i)).sizes
        want = _chunked_walk_sample(ref, make_rng(17, i))
        assert got.tobytes() == want.tobytes(), (name, i)
        spilled += int(np.any(want[:-1] >= _CHUNK))
        drawn.append(got.tobytes())
    if name in ("convergent", "dilute"):
        assert spilled > 0
    assert smp.roundoff_fallbacks == 0
    _batches_match(smp, drawn, 0, lambda: [make_rng(17, i) for i in range(streams)], monkeypatch)
    # coordinate uniforms on the cdf's edges: 0 ties the first partial sum
    # when P(X = 0) = 0, values just below 1 reach the last chunk (one
    # uniform per count at most, and with sizes of 0 the count can pass n).
    # Not below 1 on the FFT rows of dense-stable 3000 and dilute 4000:
    # there the cumulative can fall short of such a target, the round-off
    # fallback takes a size whose row entry is only round-off, and the draw
    # fails (a known defect of FFT rows, listed in ROADMAP.md)
    below_one = (name, n) not in (("dense-stable", 3000), ("dilute", 4000))
    scripts, drawn, before = [], [], smp.roundoff_fallbacks
    for i in range(20):
        values = make_rng(18, i).random(max(n + 1, smp.count_cdf.size))
        values[1::3] = 0.0
        if below_one:
            values[2::7] = np.nextafter(1.0, 0.0)
        scripts.append(values.tolist())
        got = smp.sample(_ScriptedRng(values.tolist())).sizes
        want = _chunked_walk_sample(ref, _ScriptedRng(values.tolist()))
        assert got.tobytes() == want.tobytes(), (name, i)
        # no component of probability 0, at either edge
        assert smp.pmf_x[got].min() > 0.0, (name, i)
        drawn.append(got.tobytes())
    _batches_match(
        smp, drawn, smp.roundoff_fallbacks - before,
        lambda: [_ScriptedRng(values) for values in scripts], monkeypatch,
    )


def _walk_chunks_loop(smp, j, rem, target, acc):
    """The chunk-by-chunk walk past the first chunk, one numpy cumsum per
    chunk and ``acc += cs[-1]`` between them: the reference for
    ``ExactSampler._walk_chunks``.  None where round-off leaves the target
    unreached (the sampler's fallback)."""
    row = smp._rows[j]
    for lo in range(_CHUNK, rem + 1, _CHUNK):
        hi = min(lo + _CHUNK, rem + 1)
        seg = smp.pmf_x[lo:hi] * row[rem - hi + 1 : rem - lo + 1][::-1]
        cs = np.cumsum(seg)
        if acc + cs[-1] >= target:
            i = int(np.searchsorted(cs, target - acc, side="left"))
            return lo + i if i < cs.size else None
        acc += cs[-1]
    return None


def _walk_agrees(smp, j, rem, target, acc):
    """Whether _walk_chunks gives the loop's size, or falls back (and counts
    it) where the loop does; returns the loop's answer."""
    before = smp.roundoff_fallbacks
    got = smp._walk_chunks(j, rem, target, acc)
    want = _walk_chunks_loop(smp, j, rem, target, acc)
    if want is None:
        assert smp.roundoff_fallbacks == before + 1, (j, rem, target, acc)
    else:
        assert (got, smp.roundoff_fallbacks) == (want, before), (j, rem, target, acc)
    return want


@pytest.mark.parametrize("name, n", [("convergent", 2000), ("dilute", 1000)])
def test_walk_chunks_matches_chunk_loop(name, n):
    smp = ExactSampler(bundled_scheme(name), n)
    # spill-heavy draws: every call the walk makes, replayed on the loop
    calls = []
    walk = smp._walk_chunks

    def spy(j, rem, target, acc):
        calls.append((j, rem, target, acc))
        return walk(j, rem, target, acc)

    smp._walk_chunks = spy
    for i in range(200):
        smp.sample(make_rng(23, i))
    del smp._walk_chunks
    assert len(calls) > 50
    for args in calls:
        _walk_agrees(smp, *args)
    # scripted targets around every carried total, up to the last chunk,
    # after a first-chunk total of 0 and of 0.4 (which rounds each carried
    # total to the spacing of 0.4); remainders whose last chunk is full
    # (128m - 1), holds one or two sizes, or ends at n, so that the chunks
    # read the zero-led row's lead and the padding of P(X = .)
    j = max(args[0] for args in calls)
    row = smp._rows[j]
    m = (n - 7) // _CHUNK
    past = 0
    for rem in (_CHUNK * m - 1, _CHUNK * m, _CHUNK * m + 1, n - 7, n):
        seg = smp.pmf_x[_CHUNK : rem + 1] * row[rem - _CHUNK :: -1]
        for acc in (0.0, 0.4):
            carried = [acc]
            for lo in range(0, seg.size, _CHUNK):
                carried.append(carried[-1] + np.cumsum(seg[lo : lo + _CHUNK])[-1])
            for total in carried[1:]:
                for target in (np.nextafter(total, 0.0), total, np.nextafter(total, 1.0)):
                    k = _walk_agrees(smp, j, rem, float(target), acc)
                    past += k is None and target <= carried[-1]
            for target in np.linspace(acc, carried[-1], 101)[1:]:
                _walk_agrees(smp, j, rem, float(target), acc)
    # some target ran past its chunk's total: fl(target - acc) > cs[-1]
    assert past > 0


def test_roundoff_fallback_is_counted(dense_gauss, monkeypatch):
    n = 60
    smp = ExactSampler(dense_gauss, n)
    for i in range(20):
        smp.sample(make_rng(19, i))
    assert smp.roundoff_fallbacks == 0
    # inflate every total P(S_j = n) so the first coordinate's cumulative
    # falls short of its target: the draw takes the largest feasible size,
    # which leaves one unit (the smallest size, P(X = 0) = 0) to every later
    # coordinate
    smp._ensure_rows(n)
    for row in smp._rows[1:]:
        row[n] *= 1e6
    hits = 0
    drawn = []
    for i in range(20):
        s = smp.sample(make_rng(19, i))
        assert np.all(s.sizes > 0)
        hits += s.n_components > 1 and s.sizes[0] == n - (s.n_components - 1)
        drawn.append(s.sizes.tobytes())
    assert hits > 0
    assert smp.roundoff_fallbacks == hits
    # the lockstep takes the same fallbacks, every remainder below _CHUNK
    monkeypatch.setattr(sampling, "_LOCKSTEP_MIN", 1)
    got = [s.sizes.tobytes() for s in smp.sample_many(make_rng(19, i) for i in range(20))]
    assert got == drawn
    assert smp.roundoff_fallbacks == 2 * hits


def test_fft_rows_own_their_memory(convergent, fft_product_row, stepped_rows, monkeypatch):
    # in the FFT regime rows 0..B come from the count law's harvest
    # (B = isqrt(2100) + 1 = 46), each an n + 1 view of a longer transform
    # buffer copied into the table; every later row is the product of two
    # table rows, written into its table row from the head of an inverse
    # transform, up to ``_ROW_BLOCK`` rows of one baby to a 2-d transform.
    # One inverse-transformed row per row, no spectrum or transform buffer
    # outlives the call that made it, and so no kept row shares memory with
    # one (a view would keep its buffer alive)
    n, ell = 2100, 300
    smp = ExactSampler(convergent, n)
    B = len(smp._rows) - 1
    assert B == 46
    made = []  # (name, rows, weak reference) of every transform's output
    for name in ("rfft", "irfft"):

        def recorded(*args, _fn=getattr(exact, name), _name=name, **kwargs):
            out = _fn(*args, **kwargs)
            made.append((_name, out.shape[0] if out.ndim == 2 else 1, weakref.ref(out)))
            return out

        monkeypatch.setattr(exact, name, recorded)
    spectrum = 16 * (exact._next_fast_len(2 * n + 1) // 2 + 1)
    tracemalloc.start(8)
    try:
        for top in (60, 61, 2 * B, 150, ell):
            have = len(smp._rows)
            first = (have - 1) // B
            giants = top // B - first + 1
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            smp._ensure_rows(top)
            _, peak = tracemalloc.get_traced_memory()
            # no transform output is referenced, and nothing allocated under
            # ``exact`` is alive: the rows' bookkeeping is the sampler's
            assert [ref() for *_, ref in made if ref() is not None] == []
            kept = tracemalloc.take_snapshot().filter_traces(
                [
                    tracemalloc.Filter(True, exact.__file__, all_frames=True),
                    tracemalloc.Filter(False, __file__, all_frames=True),  # ``made``
                ]
            )
            assert sum(stat.size for stat in kept.statistics("filename")) == 0
            inverse = sum(rows for name, rows, _ in made if name == "irfft")
            forward = sum(name == "rfft" for name, *_ in made)
            made.clear()
            assert inverse == top + 1 - have
            # the giant rows spanned, S_B and the babies needed, each once
            assert forward <= giants + B
            # at most, in spectra: the giant spectra the call spans; a
            # block of k = min(_ROW_BLOCK, giants) rows' products and
            # inverse transforms (an output row of the transform size's
            # doubles weighs a spectrum); numpy's iterator buffers for the
            # broadcast product or the strided clip into the table, at most
            # a spectrum a block row (3 at k >= 4, 2 at k = 2); and one
            # baby's spectrum, with one spectrum to spare: giants + 3k + 2.
            # The giant chain, before the block exists, holds giants + 3
            # (S_B's spectrum, a product and its inverse transform).  Never
            # all B babies' spectra: the bound stays below B spectra here
            block = min(exact._ROW_BLOCK, giants)
            assert giants + 3 * block + 2 < B
            assert peak - before < spectrum * (giants + 3 * block + 2)
    finally:
        tracemalloc.stop()
    stepped = stepped_rows(smp.pmf_x, n, B, True)
    for j, kept in enumerate(smp._rows):
        row = fft_product_row(smp._rows, j, B) if j > B else stepped[j]
        assert np.shares_memory(kept, smp._table)
        assert kept.tobytes() == row.tobytes()
    assert len(smp._rows) == ell + 1
    # the table is the one 2-d array the sampler holds, and it holds no spectrum
    arrays = [v for v in vars(smp).values() if isinstance(v, np.ndarray)]
    assert [v for v in arrays if v.ndim == 2] == [smp._table]
    assert all(v.dtype.kind != "c" for v in arrays)


@pytest.mark.parametrize(
    "name, n",
    [
        ("dense-gauss", 600),
        # P(X = 0) > 0: the count law has 33958 entries, and the table
        # reserves about 850 MB of which only the drawn rows may be written
        ("w0-positive", 3000),
    ],
)
def test_table_is_lazy_and_never_restacked(name, n, monkeypatch):
    """One sampler, its table read by interleaved ``sample_many`` and
    ``sample`` calls: the bytes of a fresh sampler's ``sample`` draws, rows
    written only up to the largest count drawn, each row zero-led and a
    view of the one table, and no copy of the rows made per block."""
    scheme = _WALK_SCHEMES[name]() if name in _WALK_SCHEMES else bundled_scheme(name)
    smp = ExactSampler(scheme, n)
    # blocks of a few draws, whose buffers weigh less than a copy of the rows,
    # walked in lockstep however few
    monkeypatch.setattr(sampling, "_BATCH_COORDS", 4 * smp.count_cdf.size)
    monkeypatch.setattr(sampling, "_LOCKSTEP_MIN", 1)
    got = [s.sizes.tobytes() for s in smp.sample_many(make_rng(29, i) for i in range(3))]
    got.append(smp.sample(make_rng(29, 3)).sizes.tobytes())
    got += [s.sizes.tobytes() for s in smp.sample_many(make_rng(29, i) for i in (4, 5))]
    got.append(smp.sample(make_rng(29, 6)).sizes.tobytes())
    tracemalloc.start()
    try:
        got += [s.sizes.tobytes() for s in smp.sample_many(make_rng(29, i) for i in range(7, 19))]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ref = ExactSampler(scheme, n)
    want = [ref.sample(make_rng(29, i)).sizes for i in range(19)]
    assert got == [sizes.tobytes() for sizes in want]
    assert len(smp._rows) == max(sizes.size for sizes in want) + 1
    assert len(smp._rows) < smp.count_cdf.size
    assert not smp._table[: len(smp._rows), :_CHUNK].any()
    assert all(np.shares_memory(row, smp._table) for row in smp._rows)
    assert peak < smp._table[: len(smp._rows)].nbytes / 2


_SEEDS = [0, 1, 20240901, 2**32 - 1, 2**32, 2**64 + 3, 2**127, 2**128, 2**200 + 11]


def _seed_sequence_rng(seed, stream):
    """The stream's generator built by numpy alone: the oracle of
    ``make_rng`` and ``make_rngs``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))


def _same_stream(rng, want):
    """The same Philox key, the same doubles, and children of ``spawn(3)``
    with the same doubles."""
    key = rng.bit_generator.state["state"]["key"]
    assert key.tobytes() == want.bit_generator.state["state"]["key"].tobytes()
    assert rng.random(8).tobytes() == want.random(8).tobytes()
    got = [child.random(4).tobytes() for child in rng.spawn(3)]
    assert got == [child.random(4).tobytes() for child in want.spawn(3)]


@pytest.mark.parametrize("seed", _SEEDS)
def test_make_rngs_matches_make_rng(seed):
    """``make_rng`` and ``make_rngs`` open numpy's SeedSequence streams:
    the same Philox key, doubles and spawned children, for seeds of one to
    seven 32-bit words; ``make_rng`` on the edges of its 32-bit stream
    words and past them (where it builds the SeedSequence)."""
    for stream in (0, 1, 4095, 4096, 2**31, 2**32 - 1, 2**32, 2**40):
        _same_stream(make_rng(seed, stream), _seed_sequence_rng(seed, stream))
    for count in (0, 1, 300):
        got = list(sampling.make_rngs(seed, count))
        assert len(got) == count
        for i, rng in enumerate(got):
            _same_stream(rng, _seed_sequence_rng(seed, i))
    # the last stream of the first key block and the first of the next
    for i, rng in enumerate(itertools.islice(sampling.make_rngs(seed, 2**32), 4095, 4097), 4095):
        _same_stream(rng, _seed_sequence_rng(seed, i))


def test_make_rng_follows_the_seed():
    """A new seed replaces the kept constants of the last one: alternating
    seeds, each call gives its own seed's stream."""
    for seed in (5, 6, 5, 2**64 + 3, 5, 6, 6):
        for stream in (0, 9):
            _same_stream(make_rng(seed, stream), _seed_sequence_rng(seed, stream))
    # a second spawn goes on from the first, as SeedSequence's does
    rng, want = make_rng(7, 3), _seed_sequence_rng(7, 3)
    rng.spawn(2), want.spawn(2)
    assert [c.random(4).tobytes() for c in rng.spawn(2)] == [
        c.random(4).tobytes() for c in want.spawn(2)
    ]


@pytest.mark.parametrize("seed", _SEEDS)
def test_spawn_keys_at_every_spawn_word(seed):
    # the last word of a key block, the first of the next, and words with
    # the top bit set, up to the largest one
    ids = np.array([4095, 4096, 2**31, 2**32 - 2, 2**32 - 1], dtype=np.uint32)
    keys = sampling._spawn_keys(sampling._spawn_mix(seed), ids)
    for i, key in zip(ids.tolist(), keys):
        ss = np.random.SeedSequence(seed, spawn_key=(i,))
        assert key.tobytes() == ss.generate_state(2, np.uint64).tobytes()


def test_make_rngs_across_key_blocks(monkeypatch):
    monkeypatch.setattr(sampling, "_KEY_BLOCK", 7)
    got = [rng.random(3).tobytes() for rng in sampling.make_rngs(11, 20)]
    assert got == [_seed_sequence_rng(11, i).random(3).tobytes() for i in range(20)]


def test_make_rngs_streams_are_independent():
    """Each yielded generator owns its state: drawing from one, before or
    after the next is made, leaves the next one's bytes alone."""
    want = [make_rng(5, i).random(8).tobytes() for i in range(3)]
    rngs = sampling.make_rngs(5, 3)
    first = next(rngs)
    first.random(1000)
    second = next(rngs)
    first.random(1000)
    assert second.random(8).tobytes() == want[1]
    third = next(rngs)
    second.random(1000)
    assert third.random(8).tobytes() == want[2]
    assert first.bit_generator.state["state"]["key"].tobytes() != (
        third.bit_generator.state["state"]["key"].tobytes()
    )


def _draw_state(rng):
    """10^4 + 1 doubles and one 32-bit word from ``rng``, then its whole
    bit-generator state (key, counter, buffer, buffer_pos, has_uint32 and
    the kept half word), as comparable lists."""
    rng.random(10**4 + 1)
    rng.integers(0, 2**32, dtype=np.uint32)
    state = rng.bit_generator.state
    state.update(state.pop("state"))
    return {k: np.asarray(v).tolist() for k, v in state.items()}


def test_streams_do_not_share_their_counter():
    """Every stream starts from ``_ZERO_COUNTER``, which ``Philox`` copies:
    after draws from a ``make_rng`` generator and from every generator of
    a full ``make_rngs`` key block, the array is still zero, and each
    stream's whole state is that of numpy's own SeedSequence stream."""
    want = _draw_state(_seed_sequence_rng(31, 7))
    assert want["has_uint32"] == 1 and want["buffer_pos"] not in (0, 4)
    assert _draw_state(make_rng(31, 7)) == want
    block = sampling.make_rngs(31, sampling._KEY_BLOCK)
    for i, rng in enumerate(block):
        assert _draw_state(rng) == _draw_state(_seed_sequence_rng(31, i)), i
    assert i == sampling._KEY_BLOCK - 1
    assert sampling._ZERO_COUNTER.tolist() == [0, 0, 0, 0]


def test_make_rngs_refuses_before_allocating():
    tracemalloc.start()
    try:
        for count in (-1, 2**32 + 1):
            with pytest.raises(ValueError, match="one 32-bit spawn word"):
                sampling.make_rngs(0, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024  # one key block alone would take 64 KiB
    # the largest count is accepted, and nothing is drawn until asked
    assert next(sampling.make_rngs(0, 2**32)).random() == make_rng(0, 0).random()
    # seeds and streams SeedSequence refuses raise as in SeedSequence, at
    # the call
    for seed, stream, error in ((-1, 0, ValueError), (1.5, 0, TypeError), (3, -1, ValueError)):
        with pytest.raises(error):
            np.random.SeedSequence(seed, spawn_key=(stream,))
        with pytest.raises(error):
            make_rng(seed, stream)
        if stream == 0:
            with pytest.raises(error):
                sampling.make_rngs(seed, 3)
    key = sampling._StreamSeed(0, 0, np.zeros(2, dtype=np.uint64))
    with pytest.raises(ValueError, match="generate_state"):
        key.generate_state(4, np.uint32)


def test_draw_count_uniform_zero(dense_gauss):
    # P(N_n = 0) = 0, so count_cdf[0] == 0 and a left search for a target of
    # 0 stops there; the count must be the first one with positive mass
    n = 100
    smp = ExactSampler(dense_gauss, n)
    assert smp.count_law.pmf[0] == 0.0 and smp.count_law.pmf[1] > 0.0
    s = smp.sample(_ScriptedRng([0.0] + [0.5] * n))
    assert s.sizes.tolist() == [n]
    # any other uniform picks the count a plain left search picks, also
    # when its target lands exactly on a cumulative entry: that count
    cdf, top = smp.count_cdf, smp.count_cdf[-1]
    on_entry = {}
    for k in np.flatnonzero(smp.count_law.pmf).tolist():
        u = cdf[k] / top
        for u in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)):
            if u < 1.0 and u * top == cdf[k]:
                on_entry[float(u)] = k
    assert len(on_entry) > 10
    assert [smp.draw_count(_ScriptedRng([u])) for u in on_entry] == list(on_entry.values())
    us = np.concatenate((make_rng(3).random(2000), list(on_entry)))
    want = np.searchsorted(cdf, us * top, side="left")
    assert [smp.draw_count(_ScriptedRng([u])) for u in us] == want.tolist()
    # a uniform just below 1 still reaches the last count with mass
    last = int(np.flatnonzero(smp.count_law.pmf)[-1])
    assert smp.draw_count(_ScriptedRng([np.nextafter(1.0, 0.0)])) == last


def test_exact_sampler_matches_enumeration(bell):
    # Bell n = 3: P(N_3) = (1/5, 3/5, 1/5)
    smp = ExactSampler(bell, 3)
    m = 40000
    counts = np.zeros(4)
    for i in range(m):
        counts[smp.sample(make_rng(5, i)).n_components] += 1
    freq = counts / m
    for ell, want in ((1, 0.2), (2, 0.6), (3, 0.2)):
        assert abs(freq[ell] - want) < 3.0 * math.sqrt(want * (1 - want) / m)


def test_rejection_matches_enumeration(bell):
    smp = RejectionSampler(bell, 3)
    m = 20000
    counts = np.zeros(4)
    rng = make_rng(6, 0)
    for _ in range(m):
        counts[smp.sample(rng).n_components] += 1
    freq = counts / m
    for ell, want in ((1, 0.2), (2, 0.6), (3, 0.2)):
        assert abs(freq[ell] - want) < 3.5 * math.sqrt(want * (1 - want) / m)


def test_exact_vs_rejection_two_sample(dense_gauss):
    """The two routes draw from the same law: chi-square on the count and
    KS on the largest size across paired ensembles."""
    n, m = 120, 3000
    es = ExactSampler(dense_gauss, n)
    rs = RejectionSampler(dense_gauss, n)
    rng = make_rng(9, 0)
    counts_e, counts_r = {}, {}
    max_e, max_r = [], []
    for i in range(m):
        a = es.sample(make_rng(9, i + 1))
        b = rs.sample(rng)
        counts_e[a.n_components] = counts_e.get(a.n_components, 0) + 1
        counts_r[b.n_components] = counts_r.get(b.n_components, 0) + 1
        max_e.append(a.sizes.max())
        max_r.append(b.sizes.max())
    keys = sorted(set(counts_e) | set(counts_r))
    table = np.array(
        [[counts_e.get(k, 0) for k in keys], [counts_r.get(k, 0) for k in keys]]
    )
    keep = table.sum(axis=0) >= 10
    table = np.column_stack([table[:, keep], table[:, ~keep].sum(axis=1)])
    p_count = chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue
    assert p_count > 1e-3
    p_max = kstest(max_e, max_r).pvalue
    assert p_max > 1e-3


def test_acceptance_rate_tracks_stopped_sum(dense_gauss):
    n = 300
    ssl = stopped_sum_law(dense_gauss, 1.0, n)
    rs = RejectionSampler(dense_gauss, n)
    rng = make_rng(21, 0)
    for _ in range(150):
        rs.sample(rng)
    rate = rs.acceptance_rate
    assert ssl.s_n[n] / 3.0 < rate < ssl.s_n[n] * 3.0


def test_rejection_cap_reports_rate(dense_gauss):
    from gibbs_partitions.sampling import RejectionCapError

    rs = RejectionSampler(dense_gauss, 2000, draw_cap=2000)
    with pytest.raises(RejectionCapError) as err:
        rng = make_rng(2, 0)
        for _ in range(50):
            rs.sample(rng)
    assert err.value.attempts >= 2000


@pytest.mark.parametrize("sampler", [ExactSampler, RejectionSampler])
@pytest.mark.parametrize(
    "name", ["extended-light", "extended-heavy", "extended-matched", "product-symmetric"]
)
def test_samplers_refuse_extended_schemes(sampler, name, no_sums):
    # neither an ExtendedSpec nor a ProductSpec has a V or W to draw from:
    # the type refuses it before any series sum or table
    kind = type(bundled_scheme(name)).__name__
    with pytest.raises(AttributeError, match=f"'{kind}' object has no attribute 'w'"):
        sampler(bundled_scheme(name), 200)


def test_product_sampler_symmetry_and_sum():
    scheme = bundled_scheme("product-symmetric")
    smp = ProductSampler(scheme, 300)
    first_giant = 0
    m = 3000
    for i in range(m):
        t = smp.sample(make_rng(4, i))
        assert t.sum() == 300
        first_giant += t[0] >= 150
    freq = first_giant / m
    assert abs(freq - 0.5) < 3.0 * math.sqrt(0.25 / m)


def test_product_sampler_uniform_zero():
    # w_0 = 0 in both factors: a uniform of exactly 0 must pick the first
    # size with positive conditional mass, not size 0
    smp = ProductSampler(bundled_scheme("product-symmetric"), 300)
    assert smp.arrays[0][0] == 0.0
    got = smp.sample(_ScriptedRng([0.0]))
    weights = smp.arrays[0][:301] * smp.suffix[1][300::-1]
    assert got[0] == np.flatnonzero(weights)[0] > 0
    assert got.sum() == 300


@pytest.mark.parametrize("extra", [0, 1])  # two factors, or three
def test_product_sampler_many_matches_sample(extra, monkeypatch):
    factors = bundled_scheme("product-symmetric").factors
    factors += factors[:extra]
    smp = ProductSampler(ProductSpec(factors), 300)
    scripts = [make_rng(22, i).random(len(factors) - 1) for i in range(60)]
    for values in scripts[::3]:
        values[0] = 0.0
    for values in scripts[1::3]:
        values[-1] = np.nextafter(1.0, 0.0)
    for make_rngs in (
        lambda: [make_rng(21, i) for i in range(400)],
        lambda: [_ScriptedRng(values.tolist()) for values in scripts],
    ):
        want = [smp.sample(rng).tobytes() for rng in make_rngs()]
        for block in (None, 7 * len(factors)):  # one block, or blocks of 7 draws
            if block is not None:
                monkeypatch.setattr(sampling, "_BATCH_COORDS", block)
            assert [t.tobytes() for t in list(smp.sample_many(make_rngs()))] == want
        monkeypatch.undo()
        assert [t.tobytes() for t in smp.sample_many(make_rngs()[:1])] == want[:1]
    assert list(smp.sample_many([])) == []
