"""Samplers for the partition model and its product-structure variant.

Two routes with identical laws (their agreement is itself a test):

* ``RejectionSampler`` draws (N, X_1..X_N) and accepts on the event
  ``sum X_i = n`` -- the defining conditional law;
* ``ExactSampler`` draws N_n from its exact conditioned law, then the
  coordinates sequentially through the convolution table, so every draw is
  rejection free.

The exact sampler's table rows P(S_l = .) come from ``exact._write_rows``,
the writer of the count-law harvest's rows too, so a sampler's rows 0..l
are the bytes of any ``_write_rows`` table of the same kernel at the same
cap; FFT-regime streams (n above about 2000) follow those rows' bits.

Reproducibility contract: streams use the counter-based Philox generator
keyed by (seed, stream) through SeedSequence; identical (scheme, n, seed,
method) yields byte-identical samples.  Every stream of a seed shares the
seed's one SeedSequence pool: ``make_rng(seed, stream)`` hashes the stream
word into the last seed's pool constants in Python ints (the SeedSequence
itself is built only for other seeds and streams, or when the generator
``spawn``s), and ``make_rngs(seed, count)`` opens streams 0..count-1 with
the same keys, a block of them in one numpy pass.  The count is drawn by a
left search of its cdf on a scalar target, a bisect over a memoryview of
the cdf.  Coordinate draws invert the conditional cdf by cumulative search
in fixed-size chunks of ``_CHUNK`` sizes, and the chunk size is part of
the stream semantics.  The first chunk is summed by scalar partial sums in
``np.cumsum``'s order (the same products, added left to right), which
stops at the same index as a cumsum followed by a left ``searchsorted``;
later chunks are summed by numpy, reading the zero-led table row in place,
and their totals are carried on top of the first chunk's in Python
floats, chunk by chunk, with the adds a cumsum of them makes.
The scalar sums start at the smallest size with mass: the sizes below it
contribute exact zeros, and adding +0.0 leaves a partial sum's bits
unchanged, so skipping them moves no byte of any stream.
``sample_many`` walks ``_LOCKSTEP_MIN`` or more draws in lockstep with
numpy: the same products, summed by row-wise cumsums in the same order, so
the same bytes again.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .exact import (
    BudgetExceededError,
    _calibrate,
    _count_law,
    _giant_stride,
    _product_tables,
    _write_rows,
)
from .series import fsum
from .weights import ProductSpec, SchemeSpec

__all__ = [
    "PartitionSample",
    "make_rng",
    "make_rngs",
    "ExactSampler",
    "RejectionSampler",
    "RejectionCapError",
    "ProductSampler",
]

_CHUNK = 128
# the first chunk's columns in a lockstep step: the peeled term, then these
# stops (most coordinates end within a few sizes of the smallest)
_LOCKSTEP_STOPS = (8, _CHUNK)
# ``sample_many`` draws fewer generators than this through ``sample``: the
# lockstep pays a few numpy calls a step and overtook ``sample`` at 200 draws
_LOCKSTEP_MIN = 200
# coordinates of one ``sample_many`` block: its flat buffer of uniforms,
# overwritten by sizes, holds this many 8-byte entries (8 MiB)
_BATCH_COORDS = 1 << 20
_EXACT_N_DEFAULT_CAP = 6000
# inverse-cdf targets are at least the smallest positive float, so a uniform
# of exactly 0 picks the first value with positive mass, not a leading zero
_LEAST = math.ulp(0.0)
# SeedSequence's hash constants (numpy's bit_generator.pyx): the pool hash
# (A), the output hash of generate_state (B) and the pool mix
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# streams whose keys ``make_rngs`` builds in one numpy pass (64 KiB of keys)
_KEY_BLOCK = 4096
# every stream's Philox counter starts at zero; ``Philox`` copies the array,
# where an int counter goes through its slower int-to-array conversion
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)


class RejectionCapError(RuntimeError):
    """Rejection sampling exhausted its draw budget."""

    def __init__(self, attempts: int, accepted: int):
        self.attempts = attempts
        self.accepted = accepted
        super().__init__(
            f"rejection cap hit after {attempts} variate draws "
            f"({accepted} accepted); observed acceptance rate "
            f"{accepted / max(attempts, 1):.3e}"
        )


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; distinct streams are independent.

    Streams are keyed through SeedSequence so that nearby (seed, stream)
    pairs get well-mixed Philox keys (arithmetic key strides correlate
    through Philox's weak key schedule).  The key is that of
    ``SeedSequence(entropy=seed, spawn_key=(stream,))``; for an int seed
    and a stream of one 32-bit word it is computed from the seed's
    ``_spawn_mix`` constants (kept for the last seed) in Python ints, and
    the SeedSequence is built only if the generator ``spawn``s.
    """
    if type(seed) is int and seed >= 0 and type(stream) is int and 0 <= stream < 1 << 32:
        key, ss = _stream_key(seed, stream), None
    else:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
        key = ss.generate_state(2, np.uint64)
    return np.random.Generator(
        np.random.Philox(_StreamSeed(seed, stream, key, ss), counter=_ZERO_COUNTER)
    )


class _StreamSeed(ISpawnableSeedSequence):
    """numpy's seed interface for stream ``stream`` of ``seed`` with its
    Philox key ready: it serves the one request ``Philox`` makes,
    ``generate_state(2, np.uint64)``, and ``spawn``s the children of
    ``SeedSequence(entropy=seed, spawn_key=(stream,))``, built at the first
    ``spawn``."""

    __slots__ = ("seed", "stream", "key", "_ss")

    def __init__(self, seed, stream: int, key: np.ndarray, ss=None):
        self.seed, self.stream, self.key, self._ss = seed, stream, key, ss

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key only serves generate_state(2, np.uint64)")
        return self.key

    def spawn(self, n_children: int) -> list[np.random.SeedSequence]:
        if self._ss is None:
            self._ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return self._ss.spawn(n_children)


def make_rngs(seed: int, count: int) -> Iterator[np.random.Generator]:
    """Yield ``make_rng(seed, i)`` for i < count, with the same bytes.

    SeedSequence mixes the spawn word i into its pool last, so every stream
    shares the pool of ``SeedSequence(seed)`` and the keys of a block of
    streams come from it in one numpy pass (``_spawn_keys``).  Each yielded
    generator is new, a Philox of its own key, and ``spawn``s the children
    of ``make_rng(seed, i)``.  ``count`` is at most 2**32, so that every i
    is one 32-bit word; a seed that SeedSequence refuses raises here as in
    ``make_rng``.
    """
    count = operator.index(count)
    if not 0 <= count <= 1 << 32:
        raise ValueError(f"count must be in [0, 2**32] (one 32-bit spawn word), got {count}")
    return _philox_streams(seed, _spawn_mix(seed), count)


def _spawn_mix(seed: int) -> np.ndarray:
    """The (5, 4) uint32 constants that take a spawn word i to the Philox
    key of ``make_rng(seed, i)``: the pool of ``SeedSequence(seed)`` times
    the mix's left multiplier, then the xor and multiplier of each pool
    word's hashmix of i (the hash constants after the seed's own words: 16
    steps for up to four words, four more for each further word), then the
    xor and multiplier of each word of ``generate_state``'s output hash."""
    pool = np.random.SeedSequence(seed).pool
    words = max(1, -(-operator.index(seed).bit_length() // 32))
    m32 = 1 << 32
    a = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), m32)
    hash_a = [a * pow(_MULT_A, d, m32) % m32 for d in range(5)]
    hash_b = [_INIT_B * pow(_MULT_B, d, m32) % m32 for d in range(5)]
    consts = [hash_a[:4], hash_a[1:], hash_b[:4], hash_b[1:]]
    return np.vstack([pool * np.uint32(_MIX_L), np.array(consts, dtype=np.uint32)])


def _spawn_keys(mix: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The Philox keys, shape (len(ids), 2), of the uint32 spawn words
    ``ids`` under ``_spawn_mix``'s constants: SeedSequence's last mixing
    round and ``generate_state(2, np.uint64)``, in uint32 arithmetic."""
    mixed_pool, xor_a, mult_a, xor_b, mult_b = mix
    # hashmix(i) with the four constants, one per pool word
    s = ids[:, None] ^ xor_a
    s *= mult_a
    s ^= s >> 16
    # mix(pool, hashed i) = L * pool - R * hashed i, xorshifted
    s *= np.uint32(_MIX_R)
    np.subtract(mixed_pool, s, out=s)
    s ^= s >> 16
    # the output hash, and the four words read little-endian as two uint64
    s ^= xor_b
    s *= mult_b
    s ^= s >> 16
    return s.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.lru_cache(maxsize=1)
def _spawn_words(seed: int) -> tuple[tuple[int, ...], ...]:
    """``_spawn_mix(seed)`` as Python ints, one (pool, xor_a, mult_a,
    xor_b, mult_b) tuple per key word; kept for the last seed asked."""
    return tuple(zip(*_spawn_mix(seed).tolist()))


def _stream_key(seed: int, stream: int) -> np.ndarray:
    """``_spawn_keys`` of the one spawn word ``stream``, each step masked to
    32 bits."""
    w = []
    for pool, xor_a, mult_a, xor_b, mult_b in _spawn_words(seed):
        s = (stream ^ xor_a) * mult_a & 0xFFFFFFFF
        s = (pool - (s ^ s >> 16) * _MIX_R) & 0xFFFFFFFF
        s = ((s ^ s >> 16) ^ xor_b) * mult_b & 0xFFFFFFFF
        w.append(s ^ s >> 16)
    return np.array((w[0] | w[1] << 32, w[2] | w[3] << 32), dtype=np.uint64)


def _philox_streams(seed: int, mix: np.ndarray, count: int) -> Iterator[np.random.Generator]:
    for start in range(0, count, _KEY_BLOCK):
        ids = np.arange(min(_KEY_BLOCK, count - start), dtype=np.uint32)
        ids += start
        for i, key in enumerate(_spawn_keys(mix, ids), start):
            yield np.random.Generator(
                np.random.Philox(_StreamSeed(seed, i, key), counter=_ZERO_COUNTER)
            )


@dataclass
class PartitionSample:
    """One realization: n, the component count, and the size tuple."""

    n: int
    sizes: np.ndarray

    def __post_init__(self) -> None:
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        if int(self.sizes.sum()) != self.n:
            raise AssertionError("component sizes must sum to n")

    @property
    def n_components(self) -> int:
        return int(self.sizes.size)


def _inverse_cdf_draw(cdf: np.ndarray, u):
    """The first index whose cumulative ``cdf`` reaches u * cdf[-1], for
    a uniform u or an array of them (then an array of indices)."""
    return np.searchsorted(cdf, np.maximum(u * cdf[-1], _LEAST), side="left")


class ExactSampler:
    """Rejection-free sampler sharing one convolution table per (scheme, n).

    The table is one array, read by ``sample``, its chunk walk and
    ``sample_many``: row l is ``_CHUNK`` zeros, then P(S_l = .)[0..n].
    ``__init__`` reserves (count law size) x (n + 129) x 8 bytes of address
    space.  Its count-law harvest writes rows 0..B (B = isqrt(cap) + 1, its
    baby rows); every later row is written when a draw first needs it,
    then only read.  ``exact._write_rows`` writes them all: stepped from
    the row before in the direct regime, in the FFT regime one product of
    two rows the table holds past B (one inverse-transformed row a row,
    ``exact._ROW_BLOCK`` of them to a transform call).
    No spectrum is kept between calls, and each row's bytes depend on
    (scheme, n, l) alone.
    The reservation is large only when P(X = 0) > 0 lets the count law run to
    max(4n, 10^5) (``_ell_cap``): 850 MB at n = 3000 and P(X = 0) = 0.27,
    where draws write about 2500 of its 33958 rows.  The sampler is
    single-threaded; parallelism belongs at the level of independent
    (scheme, n) jobs, each owning its sampler and its replicate streams.

    A draw takes its count from the exact law of N_n, then one uniform per
    coordinate but the last, all in one ``rng.random`` call (on Philox the
    same bits as one call per coordinate).  The walk zips the table's rows
    with them: a coordinate's target is its uniform times the entry the one
    before stopped on, and its cdf is summed in ``np.cumsum``'s order from
    the smallest size with mass, peeled, by scalars up to ``_CHUNK`` and by
    numpy chunks past it.  Round-off that leaves the sum short of its target
    takes the largest size keeping the rest feasible (``roundoff_fallbacks``
    counts these).  ``sample_many`` makes the same draws, in lockstep from
    ``_LOCKSTEP_MIN`` generators on.
    """

    def __init__(self, scheme: SchemeSpec, n: int):
        if n > _EXACT_N_DEFAULT_CAP:
            raise BudgetExceededError(
                f"exact sampler table budget ({_EXACT_N_DEFAULT_CAP}) exceeded at n={n}; "
                "use rejection sampling"
            )
        self.scheme = scheme
        self.n = n
        cal = _calibrate(scheme, n)
        # the harvest's baby rows are table rows 0..B; B > cap only for cap <= 1
        babies = _giant_stride(cal.cap) + 1
        self._table = np.empty((max(cal.cap + 1, babies), _CHUNK + n + 1))
        self._table[:babies, :_CHUNK] = 0.0
        self.count_law, self._z = _count_law(cal, n, rows=self._table[:, _CHUNK:])
        self.rho = cal.rho
        self._cal = cal  # with _z, ``giant_deficit_law``'s inputs too
        self.count_cdf = np.cumsum(self.count_law.pmf)
        self._count_view = memoryview(self.count_cdf)  # ``draw_count``'s bisect reads floats
        self._count_top = float(self.count_cdf[-1])
        # P(X = k) for k <= n, then _CHUNK zeros: a spill's last chunk reads
        # past n, and the first chunk's k are all below _CHUNK
        self._px_pad = np.zeros(n + 1 + _CHUNK)
        self._px_pad[: n + 1] = cal.law_x.pmf
        self.pmf_x = self._px_pad[: n + 1]
        self._px = self._px_pad[:_CHUNK].tolist()  # the scalar walk reads only k < _CHUNK
        # the smallest size with mass; the first chunk's walk starts there
        # (at the chunk's last size if it has none), with that term peeled
        self._k0 = int(np.flatnonzero(self.pmf_x)[0])
        self._peel = min(self._k0, _CHUNK - 1)
        self._rest = range(self._peel + 1, _CHUNK)
        self.roundoff_fallbacks = 0
        self._rows = list(self._table[:babies, _CHUNK:])  # the rows' P(S_l = .) parts
        self._views = [memoryview(row) for row in self._table[:babies]]  # scalar reads, zero-led

    def _ensure_rows(self, ell: int) -> None:
        """Write table rows len(_rows)..ell (``exact._write_rows``)."""
        have = len(self._rows)
        if ell < have:
            return
        zero_led = self._table[have : ell + 1]
        zero_led[:, :_CHUNK] = 0.0
        _write_rows(self._table[:, _CHUNK:], have, ell, self.pmf_x, self._cal.cap, "auto")
        self._rows.extend(zero_led[:, _CHUNK:])
        self._views.extend(map(memoryview, zero_led))

    def draw_count(self, rng: np.random.Generator) -> int:
        # ``_inverse_cdf_draw``'s left search, on a Python float target: a
        # bisect over the cdf's memoryview compares the same floats
        return bisect.bisect_left(self._count_view, max(rng.random() * self._count_top, _LEAST))

    def sample(self, rng: np.random.Generator) -> PartitionSample:
        ell = self.draw_count(rng)
        self._ensure_rows(ell)
        px, rest, peel, first = self._px, self._rest, self._peel, self._px[self._peel]
        sizes = []
        at = self.n + _CHUNK  # the remainder's index in a zero-led row
        mass = self._views[ell][at]  # P(S_{j+1} = rem), the target's scale
        # row = P(S_j = .), j = coordinates left after this draw
        for row, u in zip(self._views[ell - 1 : 0 : -1], memoryview(rng.random(max(ell - 1, 0)))):
            target = u * mass or _LEAST
            # P(K = k | rem) = P(X=k) P(S_j = rem-k) / P(S_{j+1} = rem):
            # the mass sits at small k, so the first chunk is walked in Python.
            # Sizes below the smallest with mass add exact zeros, which leave
            # the partial sums' bits alone, so the walk skips them; so do
            # sizes past rem, which read the row's zero lead.  The first
            # term is peeled, since most coordinates stop there
            mass = row[at - peel]
            c = first * mass
            if c >= target:
                sizes.append(peel)
                at -= peel
                continue
            for k in rest:
                c += px[k] * row[at - k]
                if c >= target:
                    break
            else:
                k = self._walk_chunks(ell - 1 - len(sizes), at - _CHUNK, target, c)
            sizes.append(k)
            at -= k
            mass = row[at]
        if ell:
            sizes.append(at - _CHUNK)
        return PartitionSample(self.n, np.fromiter(sizes, np.int64, len(sizes)))

    def sample_many(self, rngs: Iterable[np.random.Generator]) -> Iterator[PartitionSample]:
        """Yield ``sample(rng)`` for each generator of ``rngs``, in order and
        with the same bytes, walking a block of draws in lockstep.

        Fewer than ``_LOCKSTEP_MIN`` generators are drawn by ``sample``.
        Otherwise each makes the two calls ``sample`` makes, for its count
        and its coordinate uniforms; the uniforms go into the block's one
        flat buffer, where the walk writes each size over the uniform it
        used.  A block closes before its coordinates could pass
        ``_BATCH_COORDS`` (or the largest count, if that is more), so memory
        stays bounded however many generators come.  The yielded sizes are
        views into that buffer.  The walk reads the sampler's own table and
        allocates none.
        """
        rngs = iter(rngs)
        head = list(itertools.islice(rngs, _LOCKSTEP_MIN))
        if len(head) < _LOCKSTEP_MIN:
            yield from map(self.sample, head)
            return
        for ells, buf in self._blocks(itertools.chain(head, rngs)):
            self._ensure_rows(max(ells))
            yield from self._lockstep(np.array(ells), buf)

    def _blocks(self, rngs):
        """The counts of a block of generators, and a new flat buffer with
        their uniforms: draw i's from the sum of the earlier counts on."""
        top = self.count_cdf.size - 1
        size = max(_BATCH_COORDS, top)
        ells, used, buf = [], 0, np.empty(size)
        for rng in rngs:
            if ells and used + top > size:
                yield ells, buf
                ells, used, buf = [], 0, np.empty(size)
            ell = self.draw_count(rng)
            walked = max(ell - 1, 0)
            buf[used : used + walked] = rng.random(walked)
            ells.append(ell)
            used += ell
        if ells:
            yield ells, buf

    def _lockstep(self, ells: np.ndarray, buf: np.ndarray) -> Iterator[PartitionSample]:
        """Walk one block, every unfinished draw one coordinate per step.

        Draw i owns ``ells[i]`` entries of ``buf`` from the sum of the
        earlier counts on: its uniforms, each overwritten by its size (as
        int64) once used, and last the remainder.  The draws are sorted
        longest first, so the ones still walking form a prefix.  Each step
        gathers the entries of the zero-led table rows, peels the
        smallest size with mass for every draw, and carries the others'
        partial sums through ``_LOCKSTEP_STOPS`` as row-wise cumsums whose
        first column is the carried sum: numpy multiplies and adds
        separately (no FMA) and accumulates left to right, so these are the
        sums of ``sample``'s scalar walk.  A draw that passes the first
        chunk goes on alone in ``_walk_chunks``.
        """
        sizes = buf.view(np.int64)
        ends = np.cumsum(ells)
        starts = ends - ells
        order = np.argsort(-ells, kind="stable")
        steps = ells[order] - 1  # coordinates walked before the remainder
        pos = starts[order]  # each draw's current entry of buf
        rem = np.full(ells.size, self.n)
        flat, width = self._table.ravel(), self._table.shape[1]
        peel, px, negated = self._peel, self._px_pad, -steps  # negated ascends
        for s in range(int(steps[0])):
            m = int(np.searchsorted(negated, -s))  # the draws with steps > s
            r, at = rem[:m], pos[:m]
            # flat index of P(S_j = rem), j = coordinates left after this one
            base = (steps[:m] - s) * width + _CHUNK + r
            target = np.maximum(buf[at] * flat[base + width], _LEAST)
            c = px[peel] * flat[base - peel]
            k = np.full(m, peel)
            walking = np.flatnonzero(c < target)
            lo = peel + 1
            for stop in _LOCKSTEP_STOPS:
                # sizes past every remainder add zeros, which leave the sums alone
                hi = min(stop, int(r[walking].max(initial=-1)) + 1)
                if hi > lo:
                    sums = np.empty((walking.size, hi - lo + 1))
                    sums[:, 0] = c[walking]
                    terms = flat[base[walking, None] - np.arange(lo, hi)]
                    np.multiply(px[lo:hi], terms, out=sums[:, 1:])
                    np.cumsum(sums, axis=1, out=sums)
                    reached = sums >= target[walking, None]
                    first = reached.argmax(axis=1)
                    done = reached[np.arange(walking.size), first]
                    k[walking[done]] = lo - 1 + first[done]
                    c[walking] = sums[:, -1]
                    walking = walking[~done]
                lo = max(lo, stop)
            for i in walking.tolist():
                j = int(steps[i]) - s
                k[i] = self._walk_chunks(j, int(r[i]), float(target[i]), float(c[i]))
            sizes[at] = k
            r -= k
            at += 1
        last = steps >= 0
        sizes[pos[last]] = rem[last]
        for a, b in zip(starts.tolist(), ends.tolist()):
            yield PartitionSample(self.n, sizes[a:b])

    def _walk_chunks(self, j: int, rem: int, target: float, acc: float) -> int:
        """Continue the inverse-cdf walk past the first chunk, whose total is
        ``acc``, with ``j`` coordinates left after this one.  Stays in numpy:
        with ``acc > 0`` an element-wise early exit on ``fl(target - acc)``
        need not agree with ``acc + cs[-1] >= target``.  All later chunks
        are summed in one pass: the products once, each chunk's cumsum as a
        row of a (chunks, ``_CHUNK``) array.  Their totals are carried in
        Python floats, ``acc += cs[-1]`` chunk by chunk (the adds of a
        cumsum over them), up to the first chunk whose carried total
        reaches the target, which is searched for ``target - acc``.  The
        products read P(S_j = rem - k) from the zero-led table row, so sizes
        past rem in the last chunk multiply its zero lead (and P(X = k)
        past n its zero padding): exact zeros, which leave each chunk's
        cumsum where the sizes up to rem put it."""
        if rem >= _CHUNK:
            size = -(-(rem + 1 - _CHUNK) // _CHUNK) * _CHUNK
            seg = self._px_pad[_CHUNK : _CHUNK + size] * self._table[j, rem : rem - size : -1]
            cs = seg.reshape(-1, _CHUNK).cumsum(axis=1)
            for c, total in enumerate(cs[:, -1].tolist()):
                if acc + total >= target:
                    # the zero products past rem repeat the chunk's total, so
                    # a search that passes rem ends past the chunk
                    i = int(cs[c].searchsorted(target - acc))
                    if i < _CHUNK:
                        return _CHUNK * (c + 1) + i
                    break  # round-off: fl(target - acc) ran past the chunk's total
                acc += total
        # round-off left the target unreached: take the largest size with
        # mass that leaves every later coordinate its smallest size (FFT
        # rows hold round-off where zeros belong)
        self.roundoff_fallbacks += 1
        row = self._rows[j]
        top = rem - j * self._k0
        return int(np.flatnonzero(self.pmf_x[: top + 1] * row[rem - top : rem + 1][::-1])[-1])


@dataclass
class RejectionSampler:
    """Batched rejection from the unconditioned (N, X_1..X_N) pair.

    Proposal tables truncate N and X, but the draws are NOT renormalized:
    a uniform falling beyond the stored cdf maps to an out-of-range
    sentinel whose proposal is rejected.  (Renormalizing would tilt the
    accepted law by P(X <= n)^-N, a count-dependent bias.)  The count
    table extends far enough that the neglected acceptance mass is below
    1e-16 even when zero-size components are allowed.

    A proposal is accepted with probability P(S_N = n), the count law's
    normalizer (``exact._count_law``), and ``sample`` draws
    proposals in batches of ``batch`` = ceil(1 / P(S_N = n)), about one
    acceptance a batch.  The batch holds at most ``_BATCH_COORDS``
    coordinates at the count law's mean, and never more proposals than the
    ``draw_cap`` budget has left.
    """

    scheme: SchemeSpec
    n: int
    draw_cap: int = 10**9
    rho: float = field(init=False)
    attempts: int = field(default=0, init=False)  # elementary variate draws
    proposals: int = field(default=0, init=False)  # (N, X_1..X_N) proposals
    accepted: int = field(default=0, init=False)
    batch: int = field(init=False)  # proposals drawn per batch

    def __post_init__(self) -> None:
        cal = _calibrate(self.scheme, self.n)
        self.rho = cal.rho
        self.cdf_x = np.cumsum(cal.law_x.pmf)
        self.cdf_n = np.cumsum(cal.pmf_n)
        _, accept = _count_law(cal, self.n)  # P(S_N = n)
        mean = fsum(np.arange(cal.pmf_n.size) * cal.pmf_n)
        most = max(1, int(_BATCH_COORDS / max(mean, 1.0)))
        self.batch = most if accept * most <= 1.0 else math.ceil(1.0 / accept)

    @property
    def acceptance_rate(self) -> float:
        """Accepted fraction of proposals; estimates P(S_N = n)."""
        return self.accepted / self.proposals if self.proposals else math.nan

    def sample(self, rng: np.random.Generator) -> PartitionSample:
        n_sentinel = self.cdf_n.size
        while self.attempts < self.draw_cap:
            batch = min(self.batch, self.draw_cap - self.attempts)
            counts = np.searchsorted(self.cdf_n, rng.random(batch), side="left")
            valid = counts < n_sentinel
            counts_eff = np.where(valid, counts, 0)
            total = int(counts_eff.sum())
            # an X sentinel (index n + 1) forces the sum past n: auto-reject
            xs = np.searchsorted(self.cdf_x, rng.random(total), side="left")
            self.attempts += batch + total
            self.proposals += batch
            labels = np.repeat(np.arange(batch), counts_eff)
            sums = np.bincount(labels, weights=xs.astype(float), minlength=batch)
            hits = np.nonzero((sums == self.n) & valid & (counts_eff > 0))[0]
            offsets = np.concatenate(([0], np.cumsum(counts_eff)))
            if hits.size:
                i = int(hits[0])
                self.accepted += 1
                self.proposals -= batch - 1 - i  # later proposals unused
                return PartitionSample(self.n, xs[offsets[i] : offsets[i + 1]])
        raise RejectionCapError(self.attempts, self.accepted)


class ProductSampler:
    """Exact conditioned draw of (P_1..P_l) for product structures.

    Per-coordinate chain: P(P_j = k | rest) = w_j[k] * suffix_{j+1}[rem-k]
    / suffix_j[rem], with suffix products precomputed after a common tilt.
    """

    def __init__(self, spec: ProductSpec, n: int):
        self.n = n
        self.arrays, self.suffix = _product_tables(spec, n)

    def _cdf(self, j: int, rem: int) -> np.ndarray:
        """The cumulative weights of P_j = 0..rem given the remainder."""
        return np.cumsum(self.arrays[j][: rem + 1] * self.suffix[j + 1][rem::-1])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        ell = len(self.arrays)
        out = np.empty(ell, dtype=np.int64)
        rem = self.n
        for j in range(ell - 1):
            out[j] = _inverse_cdf_draw(self._cdf(j, rem), rng.random())
            rem -= int(out[j])
        out[ell - 1] = rem
        return out

    def sample_many(self, rngs: Iterable[np.random.Generator]) -> Iterator[np.ndarray]:
        """Yield ``sample(rng)`` for each generator of ``rngs``, in order and
        with the same bytes.

        Each generator draws one uniform per coordinate but the last, all
        in one ``rng.random`` call (on Philox the same bits as ``sample``'s
        call per coordinate).  A block of generators is then drawn
        together, one coordinate at a time: the draws that share a
        remainder share its cumulative weights, and one inverse-cdf search
        takes all their uniforms.  A block holds at most ``_BATCH_COORDS``
        coordinates; the yielded tuples are views into its array.
        """
        ell = len(self.arrays)
        rngs = iter(rngs)
        block = np.empty((max(1, _BATCH_COORDS // ell), ell - 1))
        while True:
            count = 0
            for count, rng in enumerate(itertools.islice(rngs, len(block)), 1):
                block[count - 1] = rng.random(ell - 1)
            if not count:
                return
            uniforms = block[:count]
            out = np.empty((count, ell), dtype=np.int64)
            rem = np.full(count, self.n)
            for j in range(ell - 1):
                order = np.argsort(rem, kind="stable")
                cuts = np.flatnonzero(np.diff(rem[order])) + 1
                for group in np.split(order, cuts):
                    cdf = self._cdf(j, int(rem[group[0]]))
                    out[group, j] = _inverse_cdf_draw(cdf, uniforms[group, j])
                rem -= out[:, j]
            out[:, -1] = rem
            yield from out
