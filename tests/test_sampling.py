"""Samplers: law agreement with the enumeration oracle, exact-vs-rejection
consistency, reproducibility, acceptance-rate accounting, statistics."""

import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency, kstest

from gibbs_partitions import bundled_scheme, classify, stopped_sum_law
from gibbs_partitions.exact import _row_source
from gibbs_partitions.sampling import (
    _CHUNK,
    ExactSampler,
    ProductSampler,
    RejectionSampler,
    make_rng,
    sample_exact,
    sample_rejection,
    stats,
)


def test_sizes_always_sum_to_n(dense_gauss):
    smp = ExactSampler(dense_gauss, 200)
    for i in range(50):
        s = smp.sample(make_rng(3, i))
        assert int(s.sizes.sum()) == 200  # also enforced internally


def test_reproducible_byte_for_byte(dense_stable):
    a = sample_exact(dense_stable, 300, seed=11, stream=7)
    b = sample_exact(dense_stable, 300, seed=11, stream=7)
    assert np.array_equal(a.sizes, b.sizes)
    c = sample_rejection(dense_stable, 40, seed=11, stream=7)
    d = sample_rejection(dense_stable, 40, seed=11, stream=7)
    assert np.array_equal(c.sizes, d.sizes)
    assert not np.array_equal(
        a.sizes, sample_exact(dense_stable, 300, seed=11, stream=8).sizes
    )


def test_single_component_degenerate(single_component):
    s = sample_exact(single_component, 77, seed=1)
    assert s.n_components == 1 and s.sizes[0] == 77
    # X = 1 surely: all parts are 1
    from gibbs_partitions import SchemeSpec, WeightSequence

    ones = SchemeSpec(
        v=bundled_scheme("bell").v, w=WeightSequence.explicit([0.0, 1.0])
    )
    s = sample_exact(ones, 40, seed=2)
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
                k = lo + int(np.searchsorted(cs, target - acc, side="left"))
                break
            acc += cs[-1]
        if k < 0:
            k = rem
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


@pytest.mark.parametrize(
    "name, n, rho, streams",
    [
        ("dense-stable", 600, None, 200),
        ("dense-gauss", 600, None, 200),
        ("convergent", 2000, None, 300),  # the giant crosses many chunks
        ("dilute", 1000, None, 300),
        ("bell", 3, 1.0, 300),
        ("single-component", 77, None, 200),
        ("dense-gauss", 100, None, 300),  # every remainder below _CHUNK
    ],
)
def test_exact_sampler_matches_chunked_walk(name, n, rho, streams):
    scheme = bundled_scheme(name)
    smp = ExactSampler(scheme, n, rho=rho)
    ref = ExactSampler(scheme, n, rho=rho)
    spilled = 0
    for i in range(streams):
        got = smp.sample(make_rng(17, i)).sizes
        want = _chunked_walk_sample(ref, make_rng(17, i))
        assert got.tobytes() == want.tobytes(), (name, i)
        spilled += int(np.any(want[:-1] >= _CHUNK))
    if name == "convergent":
        assert spilled > 0
    assert smp.roundoff_fallbacks == 0
    # coordinate uniforms on the cdf's edges: 0 ties the first partial sum
    # when P(X = 0) = 0, values just below 1 reach the last chunk
    for i in range(20):
        values = make_rng(18, i).random(n + 1)
        values[1::3] = 0.0
        values[2::7] = np.nextafter(1.0, 0.0)
        got = smp.sample(_ScriptedRng(values.tolist())).sizes
        want = _chunked_walk_sample(ref, _ScriptedRng(values.tolist()))
        assert got.tobytes() == want.tobytes(), (name, i)


def test_roundoff_fallback_is_counted(dense_gauss):
    n = 60
    smp = ExactSampler(dense_gauss, n)
    for i in range(20):
        smp.sample(make_rng(19, i))
    assert smp.roundoff_fallbacks == 0
    # inflate every total P(S_j = n) so the first coordinate's cumulative
    # falls short of its target: the draw takes the whole remainder
    smp._ensure_rows(n)
    for row in smp._rows[1:]:
        row[n] *= 1e6
    hits = 0
    for i in range(20):
        s = smp.sample(make_rng(19, i))
        hits += s.n_components > 1 and s.sizes[0] == n
    assert hits > 0
    assert smp.roundoff_fallbacks == hits


def test_fft_rows_own_their_memory(convergent):
    # in the FFT regime each row of the source is an n + 1 view of a longer
    # transform buffer; the sampler keeps a copy so the buffer can go
    n, ell = 2100, 40
    smp = ExactSampler(convergent, n)
    smp._ensure_rows(ell)
    source = _row_source(smp.pmf_x, n, "auto")
    for j, (row, kept) in enumerate(zip(source, smp._rows)):
        if j > 0:
            assert row.base is not None and row.base.size > n + 1
        assert kept.base is None or kept.flags.owndata
        assert kept.tobytes() == row.tobytes()
    assert len(smp._rows) == ell + 1


def test_draw_count_uniform_zero(dense_gauss):
    # P(N_n = 0) = 0, so count_cdf[0] == 0 and a left search for a target of
    # 0 stops there; the count must be the first one with positive mass
    n = 100
    smp = ExactSampler(dense_gauss, n)
    assert smp.count_law.pmf[0] == 0.0 and smp.count_law.pmf[1] > 0.0
    s = smp.sample(_ScriptedRng([0.0] + [0.5] * n))
    assert s.sizes.tolist() == [n]
    # any other uniform picks the count a plain left search picks
    us = make_rng(3).random(2000)
    want = np.searchsorted(smp.count_cdf, us * smp.count_cdf[-1], side="left")
    assert [smp.draw_count(_ScriptedRng([u])) for u in us] == want.tolist()


def test_exact_sampler_matches_enumeration(bell):
    # Bell n = 3: P(N_3) = (1/5, 3/5, 1/5)
    smp = ExactSampler(bell, 3, rho=1.0)
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


def test_product_sampler_symmetry_and_sum():
    scheme = bundled_scheme("product-symmetric")
    smp = ProductSampler(scheme.product_factors, 300)
    first_giant = 0
    m = 3000
    for i in range(m):
        t = smp.sample(make_rng(4, i))
        assert t.sum() == 300
        first_giant += t[0] >= 150
    freq = first_giant / m
    assert abs(freq - 0.5) < 3.0 * math.sqrt(0.25 / m)


def test_stats_fields(dense_gauss):
    rep = classify(dense_gauss)
    smp = ExactSampler(dense_gauss, 400)
    s = smp.sample(make_rng(8, 0))
    st = stats(
        s,
        count_sizes=(1, 2),
        mu=rep.mu,
        nn_scale=rep.nn_scale(400),
        path_points=16,
    )
    assert np.all(np.diff(st.order_stats) <= 0)
    assert st.counts[1] == int(np.count_nonzero(s.sizes == 1))
    assert st.e_n is True  # dense: N_n concentrates at n/mu > n/(2 mu)
    # path telescopes at s = 1 to (n - N mu) / scale
    want = (400 - s.n_components * rep.mu) / rep.nn_scale(400)
    assert st.path_values[-1] == pytest.approx(want, rel=1e-12)
    assert st.path_values[0] == 0.0
    assert st.points.min() > 0
    assert st.points.max() <= 1.0


def test_stats_filters_zero_sizes():
    from gibbs_partitions.sampling import PartitionSample

    s = PartitionSample(5, np.array([3, 0, 2]))
    st = stats(s)
    assert np.array_equal(np.sort(st.points), np.array([2 / 5, 3 / 5]))


def test_order_stats_example():
    from gibbs_partitions.sampling import PartitionSample

    st = stats(PartitionSample(6, np.array([3, 1, 2])), count_sizes=(2,))
    assert list(st.order_stats) == [3, 2, 1]
    assert st.counts[2] == 1
