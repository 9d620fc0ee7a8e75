"""Samplers for the partition model and its product-structure variant.

Two routes with identical laws (their agreement is itself a test):

* ``sample_rejection`` draws (N, X_1..X_N) and accepts on the event
  ``sum X_i = n`` -- the defining conditional law;
* ``ExactSampler`` draws N_n from its exact conditioned law, then the
  coordinates sequentially through the convolution table, so every draw is
  rejection free.

Reproducibility contract: streams use the counter-based Philox generator
keyed by (seed, stream); identical (scheme, n, seed, method) yields
byte-identical samples.  Coordinate draws invert the conditional cdf by
cumulative search in fixed-size chunks of ``_CHUNK`` sizes, and the chunk
size is part of the stream semantics.  The first chunk is summed by scalar
partial sums in ``np.cumsum``'s order (the same products, added left to
right), which stops at the same index as a cumsum followed by a left
``searchsorted``; later chunks are summed by numpy on top of the first
chunk's total.  The scalar sums start at the smallest size with mass: the
sizes below it contribute exact zeros, and adding +0.0 leaves a partial
sum's bits unchanged, so skipping them moves no byte of any stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exact import (
    BudgetExceededError,
    _calibrate,
    _conditioned,
    _harvest,
    _product_tables,
    _row_source,
    _unit,
)
from .weights import SchemeSpec

__all__ = [
    "PartitionSample",
    "SampleStats",
    "make_rng",
    "ExactSampler",
    "sample_exact",
    "sample_rejection",
    "RejectionSampler",
    "RejectionCapError",
    "ProductSampler",
    "stats",
]

_CHUNK = 128
_EXACT_N_DEFAULT_CAP = 6000
# inverse-cdf targets are at least the smallest positive float, so a uniform
# of exactly 0 picks the first value with positive mass, not a leading zero
_LEAST = math.ulp(0.0)


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
    through Philox's weak key schedule).
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


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

    Table rows are built lazily up to the largest count actually drawn and
    are read-only afterwards.  The sampler itself is single-threaded;
    parallelism belongs at the level of independent (scheme, n) jobs, each
    owning its sampler and its replicate streams.

    A draw takes its count from the exact law of N_n, then one uniform per
    coordinate but the last, all in one ``rng.random`` call (on Philox the
    same bits as one call per coordinate).  Each coordinate inverts its
    conditional cdf: the first ``_CHUNK`` sizes by scalar partial sums in
    ``np.cumsum``'s order, from the smallest size with mass (the skipped
    terms are exact zeros), the rest by numpy chunks of ``_CHUNK``.  When the
    cumulative falls short of its target by round-off the draw takes the
    largest size that keeps the rest feasible; ``roundoff_fallbacks`` counts
    those coordinates.
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
        column, _ = _harvest(cal.law_x.pmf, n, cal.cap, "auto", start=_unit(n))
        self.rho = cal.rho
        self.count_law = _conditioned(cal.pmf_n, column, n, "partition function")
        self.count_cdf = np.cumsum(self.count_law.pmf)
        self.pmf_x = cal.law_x.pmf
        self._px = self.pmf_x.tolist()
        # the smallest size with mass; the first chunk's walk starts there
        # (at the chunk's last size if it has none), with that term peeled
        self._k0 = int(np.flatnonzero(self.pmf_x)[0])
        self._peel = min(self._k0, _CHUNK - 1)
        self._rest = range(self._peel + 1, _CHUNK)
        self.roundoff_fallbacks = 0
        self._source = _row_source(self.pmf_x, n, "auto")
        self._rows: list[np.ndarray] = []
        self._views: list[memoryview] = []  # scalar reads of _rows
        self._ensure_rows(0)

    def _ensure_rows(self, ell: int) -> None:
        while len(self._rows) <= ell:
            # a copy: an FFT row is a view that would pin its whole transform buffer
            row = next(self._source).copy()
            self._rows.append(row)
            self._views.append(memoryview(row))

    def draw_count(self, rng: np.random.Generator) -> int:
        return int(_inverse_cdf_draw(self.count_cdf, rng.random()))

    def sample(self, rng: np.random.Generator) -> PartitionSample:
        ell = self.draw_count(rng)
        self._ensure_rows(ell)
        px, views, peel, rest = self._px, self._views, self._peel, self._rest
        last = _CHUNK - 1
        sizes = []
        rem = self.n
        above = views[ell]
        # j = coordinates left after this draw
        for j, u in zip(range(ell - 1, 0, -1), rng.random(max(ell - 1, 0)).tolist()):
            row = views[j]
            target = u * above[rem] or _LEAST
            above = row
            # P(K = k | rem) = P(X=k) P(S_j = rem-k) / P(S_{j+1} = rem):
            # the mass sits at small k, so the first chunk is walked in Python.
            # Sizes below the smallest with mass add exact zeros, which leave
            # the partial sums' bits alone, so the walk skips them; its first
            # term is peeled, since most coordinates stop there
            if rem >= last:
                c = px[peel] * row[rem - peel]
                if c >= target:
                    k = peel
                else:
                    for k in rest:
                        c += px[k] * row[rem - k]
                        if c >= target:
                            break
                    else:
                        k = self._walk_chunks(j, rem, target, c)
            else:
                c = 0.0
                for k in range(peel, rem + 1):
                    c += px[k] * row[rem - k]
                    if c >= target:
                        break
                else:
                    k = self._walk_chunks(j, rem, target, c)
            sizes.append(k)
            rem -= k
        if ell:
            sizes.append(rem)
        return PartitionSample(self.n, np.array(sizes, dtype=np.int64))

    def _walk_chunks(self, j: int, rem: int, target: float, acc: float) -> int:
        """Continue the inverse-cdf walk past the first chunk, whose total is
        ``acc``, with ``j`` coordinates left after this one.  Stays in numpy:
        with ``acc > 0`` an element-wise early exit on ``fl(target - acc)``
        need not agree with ``acc + cs[-1] >= target``.  All later chunks
        are summed in one pass: the products once, each chunk's cumsum as a
        row of a zero-padded (chunks, ``_CHUNK``) array, and the carried
        totals as one cumsum, the same adds as ``acc += cs[-1]`` chunk by
        chunk."""
        row = self._rows[j]
        if rem >= _CHUNK:
            seg = self.pmf_x[_CHUNK : rem + 1] * row[rem - _CHUNK :: -1]
            cs = np.zeros(-(-seg.size // _CHUNK) * _CHUNK)
            cs[: seg.size] = seg
            cs = cs.reshape(-1, _CHUNK).cumsum(axis=1)
            accs = np.concatenate(([acc], cs[:, -1])).cumsum()
            hit = np.flatnonzero(accs[1:] >= target)
            if hit.size:
                c = int(hit[0])
                real = min(_CHUNK, seg.size - c * _CHUNK)
                i = int(np.searchsorted(cs[c, :real], target - accs[c], side="left"))
                if i < real:
                    return _CHUNK * (c + 1) + i
                # round-off: fl(target - acc) ran past the chunk's total
        # round-off left the target unreached: take the largest size with
        # mass that leaves every later coordinate its smallest size (FFT
        # rows hold round-off where zeros belong)
        self.roundoff_fallbacks += 1
        top = rem - j * self._k0
        return int(np.flatnonzero(self.pmf_x[: top + 1] * row[rem - top : rem + 1][::-1])[-1])


def sample_exact(scheme: SchemeSpec, n: int, seed: int, stream: int = 0) -> PartitionSample:
    return ExactSampler(scheme, n).sample(make_rng(seed, stream))


@dataclass
class RejectionSampler:
    """Batched rejection from the unconditioned (N, X_1..X_N) pair.

    Proposal tables truncate N and X, but the draws are NOT renormalized:
    a uniform falling beyond the stored cdf maps to an out-of-range
    sentinel whose proposal is rejected.  (Renormalizing would tilt the
    accepted law by P(X <= n)^-N, a count-dependent bias.)  The count
    table extends far enough that the neglected acceptance mass is below
    1e-16 even when zero-size components are allowed.
    """

    scheme: SchemeSpec
    n: int
    draw_cap: int = 10**9
    rho: float = field(init=False)
    attempts: int = field(default=0, init=False)  # elementary variate draws
    proposals: int = field(default=0, init=False)  # (N, X_1..X_N) proposals
    accepted: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        cal = _calibrate(self.scheme, self.n)
        self.rho = cal.rho
        self.cdf_x = np.cumsum(cal.law_x.pmf)
        self.cdf_n = np.cumsum(cal.pmf_n)

    @property
    def acceptance_rate(self) -> float:
        """Accepted fraction of proposals; estimates P(S_N = n)."""
        return self.accepted / self.proposals if self.proposals else math.nan

    def sample(self, rng: np.random.Generator) -> PartitionSample:
        batch = 64
        n_sentinel = self.cdf_n.size
        while self.attempts < self.draw_cap:
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


def sample_rejection(scheme: SchemeSpec, n: int, seed: int, stream: int = 0) -> PartitionSample:
    return RejectionSampler(scheme, n).sample(make_rng(seed, stream))


class ProductSampler:
    """Exact conditioned draw of (P_1..P_l) for product structures.

    Per-coordinate chain: P(P_j = k | rest) = w_j[k] * suffix_{j+1}[rem-k]
    / suffix_j[rem], with suffix products precomputed after a common tilt.
    """

    def __init__(self, factors, n: int):
        self.n = n
        _, self.arrays, self.suffix = _product_tables(list(factors), n)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        ell = len(self.arrays)
        out = np.empty(ell, dtype=np.int64)
        rem = self.n
        for j in range(ell - 1):
            weights = self.arrays[j][: rem + 1] * self.suffix[j + 1][rem::-1]
            out[j] = _inverse_cdf_draw(np.cumsum(weights), rng.random())
            rem -= int(out[j])
        out[ell - 1] = rem
        return out


# ---------------------------------------------------------------------------
# statistics


@dataclass
class SampleStats:
    """Extracted statistics of one sample."""

    order_stats: np.ndarray
    counts: dict[int, int]
    path_grid: np.ndarray | None
    path_values: np.ndarray | None
    points: np.ndarray
    e_n: bool | None


def stats(
    sample: PartitionSample,
    count_sizes=(),
    mu: float | None = None,
    nn_scale: float | None = None,
    path_points: int = 0,
) -> SampleStats:
    """Order statistics, size counts, the centred partial-sum path, the
    normalized point multiset, and the half-dense-count indicator.

    The path s -> (sum_{i <= sN} K_i - N s mu) / (L(n) n^(1/alpha)) is
    evaluated on a uniform grid; pass ``mu`` and ``nn_scale`` =
    L(n) n^(1/alpha) from a phase report.  At s = 1 the path equals
    (n - N mu) / nn_scale exactly (the sizes telescope to n).
    """
    sizes = sample.sizes
    order = np.sort(sizes)[::-1]
    counts = {int(k): int(np.count_nonzero(sizes == k)) for k in count_sizes}
    points = sizes[sizes > 0] / sample.n
    path_grid = path_values = None
    e_n = None
    if mu is not None:
        e_n = bool(sample.n_components >= sample.n / (2.0 * mu))
    if path_points > 0:
        if mu is None or nn_scale is None:
            raise ValueError("path statistics need mu and nn_scale")
        ncomp = sample.n_components
        csum = np.concatenate(([0.0], np.cumsum(sizes)))
        path_grid = np.linspace(0.0, 1.0, path_points + 1)
        idx = np.floor(path_grid * ncomp).astype(int)
        path_values = (csum[idx] - ncomp * path_grid * mu) / nn_scale
    return SampleStats(order, counts, path_grid, path_values, points, e_n)
