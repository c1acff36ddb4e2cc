import math
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from young import experiments
from young.counting import RestrictedCountTable, count_partitions, count_restricted
from young.experiments import (
    Estimate,
    _box_pmf_sweep,
    box_sweep_work,
    chernoff_bounds,
    chernoff_validate,
    macdonald_comparable_exact,
    macdonald_comparable_mc,
    ratio_bound,
    ratio_bound_validate,
    surrogate_event_pk,
    surrogate_event_pk_curve,
    tv_distance_k1,
    tv_distance_mc,
    wilf_fraction_mc,
    wilf_graphical_counts,
)
from young.partitions import partitions
from young.sampling import RngStream


def test_estimate_invariant():
    Estimate(0.5, 0.0, 10, 0, 0, "exact-enumeration")
    Estimate(0.5, 0.01, 10, 0, 0, "monte-carlo")
    with pytest.raises(ValueError):
        Estimate(0.5, 0.01, 10, 0, 0, "exact-enumeration")
    with pytest.raises(ValueError):
        Estimate(0.5, 0.0, 10, 0, 0, "monte-carlo")


def test_wilf_exact_small_values():
    assert wilf_graphical_counts(2) == (1, 2)
    graphical, total = wilf_graphical_counts(4)
    assert graphical / total == pytest.approx(0.4)  # {(2,1,1), (1,1,1,1)}
    assert wilf_graphical_counts(6) == (5, 11)  # not monotone this early
    with pytest.raises(ValueError, match="even"):
        wilf_graphical_counts(9)
    with pytest.raises(ValueError, match="cap"):
        wilf_graphical_counts(82)


def test_wilf_exact_mc_agreement():
    graphical, total = wilf_graphical_counts(30)
    mc = wilf_fraction_mc(30, 20_000, RngStream(21))
    assert abs(mc.value - graphical / total) <= 3.0 * mc.stderr
    assert mc.seed == 21 and mc.method == "monte-carlo"


def test_wilf_mc_n2_converges():
    est = wilf_fraction_mc(2, 10_000, RngStream(22))
    assert est.value == pytest.approx(0.5, abs=3 * est.stderr)


@pytest.mark.parametrize("experiment", [
    wilf_fraction_mc,
    macdonald_comparable_mc,
    pytest.param(lambda n, samples, rng: tv_distance_mc(n, 1, samples, rng),
                 id="tv_distance_mc"),
])
def test_mc_experiments_check_samples_before_the_table(experiment, no_table_build):
    with pytest.raises(ValueError, match="samples"):
        experiment(10, 0, RngStream(1))


def test_wilf_mc_calls_the_draw_and_the_check_once_per_sample(monkeypatch):
    # the traced benchmark times exact draws and Nash-Williams checks by
    # wrapping these two names, so a faster path must still call each one
    # once per sample
    from young import sampling

    calls = Counter()

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(sampling, "draw_uniform_parts")
    counted(experiments, "_nash_williams")
    wilf_fraction_mc(20, 50, RngStream(1))
    assert calls == {"draw_uniform_parts": 50, "_nash_williams": 50}


def test_macdonald_exact_values():
    assert macdonald_comparable_exact(1).dominates.value == 1.0
    assert macdonald_comparable_exact(2).dominates.value == 0.75
    with pytest.raises(ValueError):
        macdonald_comparable_exact(26)


def test_macdonald_two_sided_exact_values():
    # (2c - p(n)) / p(n)^2 with c ordered pairs lam >= mu; one-sided c / p(n)^2
    # dominance is a total order on the partitions of n <= 5
    assert all(macdonald_comparable_exact(n).comparable.value == 1.0 for n in range(1, 6))
    ten = macdonald_comparable_exact(10)
    assert ten.comparable.value == 797 / 882
    assert ten.dominates.value == pytest.approx(0.4637, abs=1e-4)
    for n, two_sided, one_sided in ((20, 0.7822343, 0.3919), (25, 0.7453850, 0.3729)):
        result = macdonald_comparable_exact(n)
        assert result.comparable.value == pytest.approx(two_sided, abs=1e-7)
        assert result.dominates.value == pytest.approx(one_sided, abs=1e-4)
        assert result.comparable.samples == count_partitions(n) ** 2


def test_macdonald_exact_matches_brute_force():
    from young.partitions import dominates, partitions
    n = 7
    plist = list(partitions(n))
    direct = sum(dominates(lam, mu) for lam in plist for mu in plist)
    assert macdonald_comparable_exact(n).dominates.value == pytest.approx(direct / len(plist) ** 2)


def test_macdonald_two_sided_matches_brute_force():
    from young.partitions import dominates, partitions
    n = 7
    plist = list(partitions(n))
    direct = sum(dominates(lam, mu) or dominates(mu, lam) for lam in plist for mu in plist)
    assert macdonald_comparable_exact(n).comparable.value == pytest.approx(
        direct / len(plist) ** 2)


def test_macdonald_mc_agreement():
    exact = macdonald_comparable_exact(6)
    result = macdonald_comparable_mc(6, 20_000, RngStream(24))
    assert abs(result.dominates.value - exact.dominates.value) <= 3.0 * result.dominates.stderr
    assert 0.0 <= result.self_dual.value <= 1.0


@pytest.mark.parametrize("n", [2, 6, 10])
def test_macdonald_two_sided_mc_agreement(n):
    exact = macdonald_comparable_exact(n).comparable
    result = macdonald_comparable_mc(n, 20_000, RngStream(28, n))
    assert abs(result.comparable.value - exact.value) <= 3.0 * result.comparable.stderr
    assert result.comparable.value >= result.dominates.value


def test_macdonald_both_probabilities_drop_below_half():
    result = macdonald_comparable_mc(40, 20_000, RngStream(25))
    assert result.dominates.value < 0.5
    assert result.self_dual.value < 0.5


def test_pk_exact_value_at_k1():
    est = surrogate_event_pk(100, 1, 200_000, RngStream(26))
    assert abs(est.value - 2.0 / 3.0) <= 3.0 * est.stderr


def test_pk_curve_nested_monotone():
    curve = surrogate_event_pk_curve(10_000, [1, 10, 100], 100_000, RngStream(27))
    assert curve[1].value >= curve[10].value >= curve[100].value
    with pytest.raises(ValueError):
        surrogate_event_pk(100, 0, 10, RngStream(27))
    with pytest.raises(ValueError, match="at most n=10"):
        surrogate_event_pk_curve(10, [1, 11], 10, RngStream(27))
    with pytest.raises(ValueError, match="ks"):
        surrogate_event_pk_curve(10, [], 10, RngStream(27))


def test_pk_holds_one_chunk_at_a_time():
    # each chunk is worked in place in the two 1 MB sum matrices it draws and
    # dropped before the next one, so 200000 samples at k=16 peak near 2 MB
    RngStream(0).generator()  # numpy.random loads outside the trace
    tracemalloc.start()
    try:
        surrogate_event_pk(910, 16, 200_000, RngStream(33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def test_chernoff_bounds_and_validation():
    tight, loose = chernoff_bounds(100, 0.3)
    assert math.isclose(tight, math.exp(100 * (math.log(1.3) - 0.3)), rel_tol=1e-12)
    assert math.isclose(loose, math.exp(-100 * 0.09 / 2), rel_tol=1e-12)
    check = chernoff_validate(100, 0.3, 200_000, RngStream(28))
    assert check.dominated
    assert check.empirical <= check.bound
    assert check.empirical <= check.bound_loose  # holds empirically at these parameters
    with pytest.raises(ValueError):
        chernoff_bounds(100, 0.0)


def test_ratio_bound_and_validation():
    assert math.isclose(ratio_bound(1, 2.0), 8.0 / 9.0, rel_tol=1e-12)
    assert ratio_bound(1, 1.000001) > 0.999999
    check = ratio_bound_validate(1, 2.0, 200_000, RngStream(29))
    assert abs(check.empirical - 1.0 / 3.0) <= 3.0 * check.stderr
    assert check.dominated
    check50 = ratio_bound_validate(50, 1.5, 200_000, RngStream(30))
    assert check50.dominated
    with pytest.raises(ValueError):
        ratio_bound(5, 1.0)


def test_tv_k1_smoke_tiny():
    result = tv_distance_k1(4)
    assert 0.0 <= result.tv <= 1.0
    assert result.leak_true <= 1e-6 and result.leak_model <= 1e-6


def test_tv_k1_small_value_stable():
    result = tv_distance_k1(100)
    assert result.tv == pytest.approx(0.27028, abs=2e-3)
    assert result.window_hi >= 100
    assert result.nonpositive_mass < 2e-3


@pytest.mark.parametrize("n", [1, 2, 10, 25, 40])
def test_box_sweep_matches_enumeration(n):
    # joint counts of (largest part, part count), clipped to each window
    full = np.zeros((n + 2, n + 2))
    for part in partitions(n):
        full[part[0], len(part)] += 1
    for width in (2, 5, max(n - 1, 1), n + 3):
        want = np.zeros((width + 2, width + 2))
        keep = min(width + 2, n + 2)
        want[:keep, :keep] = full[:keep, :keep]
        assert np.array_equal(_box_pmf_sweep(n, width), want), (n, width)


def _box_pmf_sweep_full_rows(n, width):
    # reference: the row-by-row sweep over full rows of every (a, c) in the box
    length = n + 1
    b = np.zeros((width + 1, length))
    b[:, 0] = 1.0
    pmf = np.zeros((width + 2, width + 2))
    a_idx = np.arange(1, width + 1)
    for count_bound in range(1, width + 1):
        for a in range(1, width + 1):
            row = b[a - 1].copy()
            if a < length:
                row[a:] += b[a, :length - a]
            b[a] = row
        read = n - 1 - count_bound - a_idx
        valid = read >= 0
        pmf[a_idx[valid] + 1, count_bound + 1] = b[a_idx[valid], read[valid]]
    if n <= width + 1:
        pmf[n, 1] = 1.0
        pmf[1, n] = 1.0
    return pmf


def _box_pmf_sweep_rows(n, width):
    # reference: the row-by-row sweep over the half grid c <= a.  Row c runs
    # a = c..width and starts from the mirror B_c(c-1) = B_{c-1}(c), which b[c]
    # still holds from row c-1; each count goes to both pmf[a+1, c+1] and
    # pmf[c+1, a+1]
    length = n + 1
    b = np.zeros((width + 1, length))
    b[:, 0] = 1.0
    pmf = np.zeros((width + 2, width + 2))
    for c in range(1, width + 1):
        prev = b[c]
        for a in range(c, width + 1):
            row = prev.copy()
            if a < length:
                row[a:] += b[a, :length - a]
            b[a] = prev = row
            if n - 1 - a - c >= 0:
                pmf[a + 1, c + 1] = pmf[c + 1, a + 1] = row[n - 1 - a - c]
    if n <= width + 1:
        pmf[n, 1] = 1.0
        pmf[1, n] = 1.0
    return pmf


@pytest.mark.parametrize("n", [2, 3, 10, 25, 40, 100, 700])
def test_box_sweep_matches_row_sweep_bit_for_bit(n):
    production = tv_distance_k1(n).window_hi - 1
    widths = {1, 2, 3, 7, n // 2, production, n + 5}
    if n == 700:
        widths.discard(n + 5)  # 705^2 row updates; widths past n are covered at smaller n
    for width in sorted(widths):
        pmf = _box_pmf_sweep(n, width)
        assert np.array_equal(pmf, _box_pmf_sweep_rows(n, width)), (n, width)
        # conjugation swaps largest part and part count, and so does the pmf
        assert np.array_equal(pmf, pmf.T), (n, width)
    if n == 700:
        # the full grid sums the two halves in different orders: at n = 700
        # its counts pass 2^53 and it differs from the half grid in the last bits
        np.testing.assert_allclose(_box_pmf_sweep(n, production),
                                   _box_pmf_sweep_full_rows(n, production), rtol=1e-13, atol=0)


def test_box_sweep_work_counts_diagonals_and_updates():
    # n=10, width=3: diagonals 2..6 set 1, 1, 2, 1, 1 slots over 8, 7, 6, 5, 4 columns
    assert box_sweep_work(10, 3) == (5, 8 + 7 + 12 + 5 + 4)
    assert box_sweep_work(1, 5) == (0, 0)
    assert box_sweep_work(700, 443) == (698, 25_725_865)


def test_box_sweep_marginal_matches_table():
    n = 700
    result = tv_distance_k1(n)
    hi = result.window_hi
    p_n = count_partitions(n)
    sweep = _box_pmf_sweep(n, hi - 1)[1:, 1:].sum(axis=1) / float(p_n)
    row = RestrictedCountTable.build(n).row(n)
    exact = np.array([(row[t] - row[t - 1]) / p_n for t in range(1, n + 1)])
    # the window only removes mass: no largest part gains any
    assert np.all(sweep <= exact[:hi] * (1.0 + 1e-12))
    gap = exact.copy()
    gap[:hi] -= sweep
    assert np.abs(gap).sum() <= result.leak_true + 1e-12
    # and the mass it leaves out is the exact count of partitions outside the
    # window box, rounded once
    box_leak = Fraction(p_n - count_restricted(n, hi, hi), p_n)
    assert result.leak_true == float(box_leak)


def test_tv_k1_rejects_overflowing_n():
    with pytest.raises(ValueError, match="float64"):
        tv_distance_k1(10**6)


def test_tv_mc_matches_exact_at_k1():
    exact = tv_distance_k1(400).tv
    result = tv_distance_mc(400, 1, 200_000, RngStream(32))
    assert abs(result.estimate.value - exact) <= 3.0 * result.estimate.stderr
    assert result.cells > 10
    assert result.clip > 0


def test_tv_mc_frees_the_table_before_the_surrogate(monkeypatch):
    refs = []
    freed = []

    def build(cls, n_max):
        built = real_build(n_max)
        refs.append(weakref.ref(built))
        return built

    def surrogate_batch(*args):
        freed.append(refs[0]() is None)
        return real_batch(*args)

    real_build = RestrictedCountTable.build
    real_batch = experiments.surrogate_batch
    monkeypatch.setattr(RestrictedCountTable, "build", classmethod(build))
    monkeypatch.setattr(experiments, "surrogate_batch", surrogate_batch)
    tv_distance_mc(60, 2, 500, RngStream(34))
    assert freed == [True]
