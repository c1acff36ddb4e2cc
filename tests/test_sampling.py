import math
import random
import tracemalloc
from bisect import bisect_right
from collections import Counter
from itertools import repeat
from operator import eq

import numpy as np
import pytest
from scipy import stats

from young import sampling
from young.asymptotics import C, hardy_ramanujan_log
from young.counting import RestrictedCountTable, count_partitions
from young.partitions import _nash_williams, partitions
from young.sampling import (
    RngStream,
    boltzmann_expected_rate,
    exponential_sums,
    make_sampler,
    overflow_empirical,
    sample_boltzmann_batch,
    sample_surrogate,
    slanted_heights,
    surrogate_batch,
    surrogate_overflow_bounds,
    surrogate_tie_probability,
)


def test_rng_stream_replays_identically():
    a = RngStream(123, 5).generator().integers(0, 2**63, size=32)
    b = RngStream(123, 5).generator().integers(0, 2**63, size=32)
    assert np.array_equal(a, b)
    c = RngStream(123, 6).generator().integers(0, 2**63, size=32)
    assert not np.array_equal(a, c)


def test_exact_sampler_basics():
    assert make_sampler(1, RngStream(0))() == (1,)
    for i in range(50):
        p = make_sampler(30, RngStream(1, i))()
        assert type(p) is tuple
        assert sum(p) == 30
        assert all(a >= b >= 1 for a, b in zip(p, p[1:] + (1,)))


def test_exact_sampler_reproducible():
    draw = make_sampler(20, RngStream(9, 3))
    run1 = [draw() for _ in range(10)]
    draw = make_sampler(20, RngStream(9, 3))
    run2 = [draw() for _ in range(10)]
    assert run1 == run2
    assert len(set(run1)) > 1


def _unrank_by_full_rows(n, rows, rank):
    # reference: the unranking over whole cumulative rows that the half-row
    # `RestrictedCountTable.unrank` replaced
    parts = []
    v = n
    bound = n
    while v:
        row = rows[v]
        hi = bound if bound < v else v
        if rank >= row[hi - 1]:
            m = hi
        else:
            m = bisect_right(row, rank, 1, hi)
        if m == 1:
            parts.extend([1] * v)
            break
        rank -= row[m - 1]
        parts.append(m)
        v -= m
        bound = m
    return tuple(parts)


def test_unrank_is_a_bijection_onto_increasing_lex_order():
    # the full-row reference unranks in this order too, so for n < 60 the two
    # agree on every rank; descending ranks meet `partitions` one at a time
    table = RestrictedCountTable.build(910)
    for n in range(60):
        p = count_partitions(n)
        assert all(map(eq, map(table.unrank, repeat(n), range(p - 1, -1, -1)),
                       partitions(n))), n
    assert table.unrank(910, 0) == (1,) * 910
    assert table.unrank(910, count_partitions(910) - 1) == (910,)


def test_unrank_matches_full_row_reference():
    table = RestrictedCountTable.build(910)
    rows = [table.row(v) for v in range(911)]
    p = count_partitions(910)
    gen = random.Random(910)
    ranks = [0, 1, p - 2, p - 1] + [gen.randrange(p) for _ in range(20_000)]
    for rank in ranks:
        assert table.unrank(910, rank) == _unrank_by_full_rows(910, rows, rank), rank


def test_unrank_tail_matches_full_row_reference():
    # ranks below entry(910, 3) finish in the closed form for parts <= 3 at
    # once; around entry(910, 2) and entry(910, 3) its part count steps
    table = RestrictedCountTable.build(910)
    rows = [table.row(v) for v in range(911)]
    twos, threes = table.entry(910, 2), table.entry(910, 3)
    ranks = {*range(twos + 2000), *range(threes - 2000, threes + 2000)}
    for rank in sorted(ranks):
        assert table.unrank(910, rank) == _unrank_by_full_rows(910, rows, rank), rank


def test_unrank_refuses_ranks_and_weights_outside_the_table():
    table = RestrictedCountTable.build(10)
    p = count_partitions(10)
    assert table.unrank(10, p - 1) == (10,) and table.unrank(0, 0) == ()
    for n, rank in [(10, p), (10, 10**40), (10, -1), (0, 1), (11, 0), (-1, 0)]:
        with pytest.raises(ValueError):
            table.unrank(n, rank)
    for v in (11, -1):
        with pytest.raises(ValueError, match="weight beyond table range"):
            table.row(v)
    with pytest.raises(ValueError, match="weight beyond table range"):
        table.entry(11, 11)


def test_exact_sampler_uniform_chi_square():
    n, draws = 8, 50_000
    cells = count_partitions(n)
    draw = make_sampler(n, RngStream(77))
    counts = Counter(draw() for _ in range(draws))
    assert len(counts) == cells
    _, p_value = stats.chisquare(list(counts.values()))
    assert p_value > 0.001


def test_boltzmann_basics(monkeypatch):
    assert sample_boltzmann_batch(1, RngStream(4).generator(), 1)[0] == [(1,)]
    draws, bstats = sample_boltzmann_batch(12, RngStream(5).generator(), 200)
    assert all(type(p) is tuple and type(p[0]) is int for p in draws)
    assert all(sum(p) == 12 for p in draws)
    assert all(a >= b >= 1 for p in draws for a, b in zip(p, p[1:] + (1,)))
    assert bstats.accepted == 200
    assert 0.0 < bstats.acceptance_rate < 1.0
    monkeypatch.setattr(sampling, "BOLTZMANN_MAX_ATTEMPTS", 0)
    with pytest.raises(RuntimeError, match="attempts"):
        sample_boltzmann_batch(12, RngStream(5).generator(), 10**9)


@pytest.mark.parametrize("n", [8, 12, 20])
def test_boltzmann_uniform_chi_square(n):
    accepted, _ = sample_boltzmann_batch(n, RngStream(6).generator(), 50_000)
    counts = Counter(accepted)
    assert len(counts) == count_partitions(n)
    _, p_value = stats.chisquare(list(counts.values()))
    assert p_value > 0.001


def _point_masses(n: int, ks) -> np.ndarray:
    # Lambda_k = q^{2k} / (k (1 - q^k)), the expected number of points (j, k)
    x = C / math.sqrt(n)
    k = np.asarray(ks, dtype=float)
    return np.exp(-2.0 * x * k) / (k * -np.expm1(-x * k))


def _acceptance_closed_form(n: int) -> float:
    # p(n) q^n e^{-Lambda}, q = e^{-c/sqrt n}, Lambda summed over every
    # k <= n/2.  The sampler's k table stops earlier, which moves no digit
    q = math.exp(-C / math.sqrt(n))
    lam = math.fsum(_point_masses(n, range(1, n // 2 + 1)))
    return count_partitions(n) * q**n * math.exp(-lam)


@pytest.mark.parametrize("n", [1, 10, 400, 910])
def test_boltzmann_acceptance_rate_matches_closed_form(n):
    # the rate of `accepted` draws has relative sd about
    # sqrt((1 - rate) / accepted)
    exact = _acceptance_closed_form(n)
    _, bstats = sample_boltzmann_batch(n, RngStream(13, n).generator(), 200)
    sigma = exact * math.sqrt((1.0 - exact) / bstats.accepted)
    assert abs(bstats.acceptance_rate - exact) < 4.0 * sigma
    # the reported rate is the same formula with p(n) at leading order
    leading = math.exp(hardy_ramanujan_log(n)) / count_partitions(n)
    assert boltzmann_expected_rate(n) == pytest.approx(exact * leading, rel=1e-9)


def test_boltzmann_acceptance_power_law():
    # deciding the 1s last leaves a rate of order n^{-1/4}; the closed form
    # fits a slope of -0.255 on this grid
    ns = [100, 400, 1600, 6400]
    rates = [sample_boltzmann_batch(n, RngStream(7, i).generator(), 120)[1].acceptance_rate
             for i, n in enumerate(ns)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    slope = np.polyfit(np.log(ns), np.log(rates), 1)[0]
    expected = np.polyfit(np.log(ns), np.log([_acceptance_closed_form(n) for n in ns]), 1)[0]
    assert abs(slope - expected) < 0.15, (slope, expected)


def test_boltzmann_k_table_ends_at_its_cut():
    # the table holds Lambda_1..Lambda_K cumulated, K = min(n // 2, cut), and
    # the mass it drops up to n/2 is below 2^-53 Lambda; past n/2 a point
    # always overshoots n
    for n in [*range(1, 2001), 2500, 10**4, 10**5, 10**6]:
        x, cum, _ = sampling._boltzmann_setup(n)
        size = len(cum) - 1
        masses = _point_masses(n, range(1, n // 2 + 1))
        assert cum[0] == 0.0 and np.allclose(cum[1:], np.cumsum(masses[:size]), rtol=1e-12, atol=0)
        if size < n // 2:
            assert 2.0 * x * size >= max(53.0 * math.log(2.0) + math.log(x), 2.0), n
            assert math.fsum(masses[size:]) < 2.0**-53 * math.fsum(masses), n
    # about 12 sqrt(n) entries, never n/2
    assert len(sampling._boltzmann_setup(10**6)[1]) - 1 == 11726


def test_boltzmann_draws_reach_n_10_6():
    draws, _ = sample_boltzmann_batch(10**6, RngStream(8).generator(), 5)
    assert len(draws) == 5
    assert all(sum(p) == 10**6 and list(p) == sorted(p, reverse=True) for p in draws)


def test_boltzmann_chunk_memory_is_capped():
    # at n = 2e6 an attempt draws about 1800 points and 64 draws need about
    # 9000 attempts, 16M points, held a chunk of 2^20 at a time
    n = 2_000_000
    tracemalloc.start()
    try:
        draws, _ = sample_boltzmann_batch(n, RngStream(3).generator(), 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(draws) == 64 and all(sum(parts) == n for parts in draws)
    assert peak < 37_554_432, peak  # 8 * 2^22 + 4e6


def test_boltzmann_refuses_n_past_a_chunk_of_k_table():
    # from n = 11199296810 on the k table needs more than
    # BOLTZMANN_CHUNK_POINTS entries; such n is refused, naming it, before
    # any array is made, and so is an n past the float range
    assert boltzmann_expected_rate(11_199_296_809) > 0.0
    assert boltzmann_expected_rate(9_411_039_912) > 0.0
    for n in [11_199_296_810, 2 * 10**10, 10**30, 10**400]:
        with pytest.raises(ValueError, match=f"n={n} too large for Boltzmann draws"):
            boltzmann_expected_rate(n)
        with pytest.raises(ValueError, match=f"n={n} too large for Boltzmann draws"):
            sample_boltzmann_batch(n, RngStream(3).generator(), 1)


def test_boltzmann_wilf_fraction_at_910():
    # the graphical fraction over Boltzmann draws agrees with the value that
    # exact draws give at n=910 (criterion 04)
    n, draws, target = 910, 2000, 0.3264
    accepted, _ = sample_boltzmann_batch(n, RngStream(17).generator(), draws)
    value = sum(map(_nash_williams, accepted)) / draws
    sigma = math.sqrt(target * (1.0 - target) / draws)
    assert abs(value - target) < 3.0 * sigma, value


def test_slanted_transform_forced_points():
    n = 10_000
    scale = math.sqrt(n) / C
    assert slanted_heights(n, [scale])[0] == 0
    assert slanted_heights(n, [scale * math.exp(-C)])[0] == math.isqrt(n)
    # monotone nonincreasing in the sum
    grid = np.linspace(0.01, 5 * scale, 500)
    heights = slanted_heights(n, grid)
    assert (np.diff(heights) <= 0).all()


def test_surrogate_draw_shape_and_monotonicity():
    draw = sample_surrogate(2500, 6, RngStream(8).generator())
    assert len(draw.sums) == len(draw.col_heights) == 6
    assert all(a < b for a, b in zip(draw.sums, draw.sums[1:]))
    assert all(a >= b for a, b in zip(draw.col_heights, draw.col_heights[1:]))
    s, sd, h, w = surrogate_batch(2500, 5, RngStream(8, 1).generator(), 2000)
    assert (np.diff(s, axis=1) > 0).all()
    assert (np.diff(h, axis=1) <= 0).all()
    assert s.shape == h.shape == (2000, 5)


def test_surrogate_rejects_k_above_n_and_n_beyond_floats():
    gen = RngStream(9).generator()
    with pytest.raises(ValueError, match="k must be at most n=10"):
        sample_surrogate(10, 11, gen)
    with pytest.raises(ValueError, match="n too large"):
        sample_surrogate(10**400, 1, gen)


def test_exponential_sums_match_the_out_of_place_formula():
    # the in-place build draws, transforms and sums exactly as
    # cumsum(-log1p(-u)) does, the first matrix before the second
    s, s_dual = exponential_sums(RngStream(10, 3).generator(), 300, 7)
    gen = RngStream(10, 3).generator()
    for got in (s, s_dual):
        want = np.cumsum(-np.log1p(-gen.random((300, 7))), axis=1)
        assert np.array_equal(got, want)


def test_surrogate_batch_reproducible():
    a = surrogate_batch(100, 3, RngStream(10, 2).generator(), 50)
    b = surrogate_batch(100, 3, RngStream(10, 2).generator(), 50)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_exponential_marginals():
    e = -np.log1p(-RngStream(11).generator().random(1_000_000))
    assert abs(e.mean() - 1.0) < 0.01
    assert abs((e > 1.0).mean() - math.exp(-1.0)) < 0.005


def test_tie_probability_closed_form():
    x = C / 100.0
    assert math.isclose(surrogate_tie_probability(10_000, 2), -math.expm1(-x), rel_tol=1e-12)
    assert surrogate_tie_probability(10**12, 2) < 2e-6
    assert surrogate_tie_probability(10_000, 10) > surrogate_tie_probability(10_000, 5)
    with pytest.raises(ValueError):
        surrogate_tie_probability(100, 1)


def test_tie_probability_matches_expected_count():
    n, k, m = 10_000, 10, 200_000
    s, _, heights, _ = surrogate_batch(n, k, RngStream(12).generator(), m)
    ratio_cap = math.exp(C / math.sqrt(n))
    near = s[:, 1:] <= ratio_cap * s[:, :-1]
    per_draw = near.sum(axis=1)
    closed = surrogate_tie_probability(n, k)
    stderr = per_draw.std() / math.sqrt(m)
    assert abs(per_draw.mean() - closed) <= 3.0 * stderr
    # actual slant ties form a subset of the ratio events
    tie_freq = (np.diff(heights, axis=1) == 0).any(axis=1).mean()
    assert tie_freq <= closed + 3.0 * stderr


def test_overflow_bounds():
    b = surrogate_overflow_bounds(10_000, 10)
    assert math.isclose(b.top_bound, math.exp(-0.5 * 10 * math.log(10_000)), rel_tol=1e-12)
    assert math.isclose(b.bottom_threshold, 1.0, rel_tol=1e-12)
    assert b.bottom_bound == 1.0
    with pytest.raises(ValueError, match="1/4"):
        surrogate_overflow_bounds(10_000, 11)


def test_overflow_empirical_below_bounds():
    bounds = surrogate_overflow_bounds(10_000, 10)
    freq_top, freq_bottom = overflow_empirical(10_000, 10, 100_000, RngStream(13).generator())
    assert freq_top <= bounds.top_bound + 1e-12
    assert freq_bottom <= bounds.bottom_bound
    # the bottom bound is the exact inequality 1 - e^{-x} <= x
    assert abs(freq_bottom - -math.expm1(-bounds.bottom_threshold)) < 0.005


def test_exponential_sums_strictly_increasing():
    s, sd = exponential_sums(RngStream(14).generator(), 1000, 8)
    assert (np.diff(s, axis=1) > 0).all()
    assert (np.diff(sd, axis=1) > 0).all()
