import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from young.asymptotics import C
from young.counting import RestrictedCountTable, count_partitions
from young.partitions import Partition, partitions
from young.sampling import (
    RngStream,
    _unrank,
    boltzmann_acceptance_rate,
    exponential_sums,
    make_sampler,
    overflow_empirical,
    sample_boltzmann,
    sample_boltzmann_batch,
    sample_surrogate,
    sample_uniform_exact,
    slanted_heights,
    surrogate_batch,
    surrogate_overflow_bounds,
    surrogate_tie_probability,
)


@pytest.fixture(scope="module")
def table30():
    return RestrictedCountTable.build(30)


def test_rng_stream_replays_identically():
    a = RngStream(123, 5).generator().integers(0, 2**63, size=32)
    b = RngStream(123, 5).generator().integers(0, 2**63, size=32)
    assert np.array_equal(a, b)
    c = RngStream(123, 6).generator().integers(0, 2**63, size=32)
    assert not np.array_equal(a, c)


def test_exact_sampler_basics(table30):
    assert sample_uniform_exact(1, RngStream(0), table30) == Partition((1,))
    for i in range(50):
        p = sample_uniform_exact(30, RngStream(1, i), table30)
        assert p.n == 30
    with pytest.raises(ValueError, match="too small"):
        sample_uniform_exact(31, RngStream(0), table30)
    box = RestrictedCountTable.build(10, RestrictedCountTable.MODE_BOX)
    with pytest.raises(ValueError, match="mode"):
        sample_uniform_exact(5, RngStream(0), box)


def test_exact_sampler_reproducible(table30):
    run1 = [sample_uniform_exact(20, g, table30).parts
            for g in [RngStream(9, 3).generator()] for _ in range(10)]
    gen = RngStream(9, 3).generator()
    run2 = [sample_uniform_exact(20, gen, table30).parts for _ in range(10)]
    assert run1 == run2


def test_unrank_is_a_bijection_onto_increasing_lex_order():
    table = RestrictedCountTable.build(910)
    for n in range(41):
        ranked = [_unrank(n, table, r) for r in range(count_partitions(n))]
        assert ranked == list(partitions(n))[::-1], n
    assert _unrank(910, table, 0) == (1,) * 910
    assert _unrank(910, table, count_partitions(910) - 1) == (910,)


def test_exact_sampler_uniform_chi_square(table30):
    n, draws = 8, 50_000
    cells = count_partitions(n)
    draw = make_sampler(n, RngStream(77), table30)
    counts = Counter(draw() for _ in range(draws))
    assert len(counts) == cells
    _, p_value = stats.chisquare(list(counts.values()))
    assert p_value > 0.001


def test_boltzmann_basics():
    assert sample_boltzmann(1, RngStream(4)) == Partition((1,))
    draws, bstats = sample_boltzmann_batch(12, RngStream(5), 200)
    assert all(p.n == 12 for p in draws)
    assert bstats.accepted == 200
    assert 0.0 < bstats.acceptance_rate < 1.0
    with pytest.raises(RuntimeError, match="attempts"):
        sample_boltzmann_batch(12, RngStream(5), 10**9, max_attempts=0)


def test_boltzmann_uniform_chi_square():
    n, draws = 8, 50_000
    accepted, _ = sample_boltzmann_batch(n, RngStream(6), draws, chunk=8192)
    counts = Counter(p.parts for p in accepted)
    assert len(counts) == count_partitions(n)
    _, p_value = stats.chisquare(list(counts.values()))
    assert p_value > 0.001


def test_boltzmann_acceptance_power_law():
    ns = [100, 400, 1600, 6400]
    rates = [boltzmann_acceptance_rate(n, RngStream(7, i), accepted_target=120)
             for i, n in enumerate(ns)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    slope = np.polyfit(np.log(ns), np.log(rates), 1)[0]
    assert -0.9 < slope < -0.6


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
    draw = sample_surrogate(2500, 6, RngStream(8))
    assert len(draw.sums) == len(draw.col_heights) == 6
    assert all(a < b for a, b in zip(draw.sums, draw.sums[1:]))
    assert all(a >= b for a, b in zip(draw.col_heights, draw.col_heights[1:]))
    s, sd, h, w = surrogate_batch(2500, 5, RngStream(8, 1), 2000)
    assert (np.diff(s, axis=1) > 0).all()
    assert (np.diff(h, axis=1) <= 0).all()
    assert s.shape == h.shape == (2000, 5)


def test_surrogate_batch_reproducible():
    a = surrogate_batch(100, 3, RngStream(10, 2), 50)
    b = surrogate_batch(100, 3, RngStream(10, 2), 50)
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
    s, _, heights, _ = surrogate_batch(n, k, RngStream(12), m)
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
    freq_top, freq_bottom = overflow_empirical(10_000, 10, 100_000, RngStream(13))
    assert freq_top <= bounds.top_bound + 1e-12
    assert freq_bottom <= bounds.bottom_bound
    # the bottom bound is the exact inequality 1 - e^{-x} <= x
    assert abs(freq_bottom - -math.expm1(-bounds.bottom_threshold)) < 0.005


def test_exponential_sums_strictly_increasing():
    s, sd = exponential_sums(RngStream(14), 1000, 8)
    assert (np.diff(s, axis=1) > 0).all()
    assert (np.diff(sd, axis=1) > 0).all()
