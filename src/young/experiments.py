"""Quantitative experiments: graphical fractions, dominance comparability,
surrogate events with their Chernoff bounds, and total-variation comparisons
between the diagram law and the exponential-sums model.

Monte Carlo estimators carry full provenance (seed, stream, sample count) and
exact estimators carry stderr 0, so results serialize into comparable
records.

Every exact-law Monte Carlo experiment reads its partitions from `_draws`,
the module's one stream of exact uniform draws, and tallies its events over
that stream with `sum` or a `Counter`.  The sampler behind `_draws` gets its
own count table, so no experiment takes or holds one.  Every surrogate
experiment draws its sample in the chunks that `_surrogate_chunks` plans.

numpy is imported only inside the functions that use it, so the exact and
pure-Python experiments start without it.  Likewise the command line imports
this module only in the subcommands that run an experiment.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Literal, NamedTuple

from .asymptotics import C, _float_of, hardy_ramanujan_log
from .counting import count_partitions, count_restricted
from .partitions import _conjugate, _dominates, _nash_williams, partitions
from .sampling import (SURROGATE_CHUNK_VALUES, RngStream, _require_surrogate_args,
                       exponential_sums, make_sampler, surrogate_batch)

if TYPE_CHECKING:
    import numpy as np

Method = Literal["exact-enumeration", "exact-ratio", "monte-carlo"]


class _EstimateFields(NamedTuple):
    value: float
    stderr: float
    samples: int
    seed: int
    stream_id: int
    method: Method


class Estimate(_EstimateFields):
    """Point estimate with its sampling provenance."""

    __slots__ = ()

    def __new__(cls, value: float, stderr: float, samples: int, seed: int, stream_id: int,
                method: Method):
        exact = method != "monte-carlo"
        if exact != (stderr == 0.0):
            raise ValueError("stderr must be 0 exactly for exact methods")
        return super().__new__(cls, value, stderr, samples, seed, stream_id, method)


def _exact_estimate(value: float, samples: int) -> Estimate:
    return Estimate(value=value, stderr=0.0, samples=samples, seed=0, stream_id=0,
                    method="exact-enumeration")


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def _require_even(n: int) -> None:
    if n % 2:
        raise ValueError("n must be even")


def _bernoulli_estimate(hits: int, samples: int, rng: RngStream) -> Estimate:
    v = hits / samples
    # with no hits or all hits the plug-in stderr would be 0, which only exact
    # methods report; there it counts half a hit (or half a miss) instead
    half = 0.5 / samples
    c = min(max(v, half), 1.0 - half)
    return Estimate(value=v, stderr=math.sqrt(c * (1.0 - c) / samples), samples=samples,
                    seed=rng.seed, stream_id=rng.stream_id, method="monte-carlo")


def _require_stream(rng) -> RngStream:
    if not isinstance(rng, RngStream):
        raise TypeError("experiments require an RngStream for provenance")
    return rng


def _draws(n: int, count: int, rng: RngStream):
    """Iterator over `count` exact uniform partitions of n, drawn in turn
    from rng's stream; its count table is freed with the iterator."""
    draw = make_sampler(n, _require_stream(rng))
    return (draw() for _ in range(count))


WILF_EXACT_CAP = 80


def wilf_graphical_counts(n: int) -> tuple[int, int]:
    """(graphical, total) over every partition of even n <= WILF_EXACT_CAP,
    by exhaustive sweep."""
    _require_even(n)
    if n > WILF_EXACT_CAP:
        raise ValueError(f"n={n} beyond enumeration cap {WILF_EXACT_CAP}; use wilf_fraction_mc")
    tally = Counter(map(_nash_williams, partitions(n)))
    return tally[True], tally.total()


def wilf_fraction_mc(n: int, samples: int, rng) -> Estimate:
    """Monte Carlo fraction of graphical partitions via the exact sampler."""
    _require_even(n)
    _require_surrogate_args(n, 1)
    _require_samples(samples)
    hits = sum(map(_nash_williams, _draws(n, samples, rng)))
    return _bernoulli_estimate(hits, samples, rng)


# Dominance comparability of two independent uniform partitions.

MACDONALD_EXACT_CAP = 25


class Macdonald(NamedTuple):
    """P(lam dominates mu) and P(comparable) for independent uniform lam, mu;
    the Monte Carlo path also estimates P(conjugate of lam dominates lam)."""

    dominates: Estimate
    comparable: Estimate
    self_dual: Estimate | None = None


def macdonald_comparable_exact(n: int) -> Macdonald:
    """Exact P(lam dominates mu) and P(lam and mu are comparable) for two
    independent uniform partitions, over all p(n)^2 ordered pairs.

    Only equal partitions dominate each other both ways, so c dominating
    pairs give 2c - p(n) comparable ones.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MACDONALD_EXACT_CAP:
        raise ValueError(f"n={n} beyond pair-enumeration cap {MACDONALD_EXACT_CAP}")
    import numpy as np

    plist = list(partitions(n))
    count = len(plist)
    parts = np.zeros((count, n), dtype=np.int64)  # the longest partition has n parts
    for i, p in enumerate(plist):
        parts[i, :len(p)] = p
    prefix = np.cumsum(parts, axis=1)
    dominating = 0
    block = 512
    for lo in range(0, count, block):
        chunk = prefix[lo:lo + block]
        # pair (i, j) counted when prefix_i >= prefix_j everywhere
        dominating += int(np.all(chunk[:, None, :] >= prefix[None, :, :], axis=2).sum())
    return Macdonald(
        dominates=_exact_estimate(dominating / count**2, samples=count**2),
        comparable=_exact_estimate((2 * dominating - count) / count**2, samples=count**2),
    )


def macdonald_comparable_mc(n: int, samples: int, rng) -> Macdonald:
    """Monte Carlo P(lam dominates mu) and P(comparable) over independent
    pairs, plus P(conjugate of lam dominates lam) for a single draw."""
    _require_surrogate_args(n, 1)
    _require_samples(samples)
    # each pair takes two consecutive draws of one stream: lam, then mu
    draws = _draws(n, 2 * samples, rng)
    dominating = comparable = self_dual = 0
    for lam, mu in zip(draws, draws):
        forward = _dominates(lam, mu)
        dominating += forward
        comparable += forward or _dominates(mu, lam)
        self_dual += _dominates(_conjugate(lam), lam)
    return Macdonald(
        dominates=_bernoulli_estimate(dominating, samples, rng),
        comparable=_bernoulli_estimate(comparable, samples, rng),
        self_dual=_bernoulli_estimate(self_dual, samples, rng),
    )


# Surrogate product event and the Chernoff-type bounds of its analysis.

def _surrogate_chunks(samples: int, k: int) -> list[int]:
    """Row counts of the chunks that together draw `samples` rows of k values,
    each (rows, k) array at most SURROGATE_CHUNK_VALUES values (1 MB)."""
    rows = SURROGATE_CHUNK_VALUES // k
    return [min(rows, samples - done) for done in range(0, samples, rows)]


def surrogate_event_pk(n: int, k: int, samples: int, rng) -> Estimate:
    """P(min over i <= k of prod_{j<=i} S'_j/S_j >= 1/2), by Monte Carlo.

    Products run in log space; n is recorded for provenance but the event
    itself depends only on k.  This is surrogate_event_pk_curve at one k.
    """
    return surrogate_event_pk_curve(n, [k], samples, rng)[k]


def surrogate_event_pk_curve(n: int, ks, samples: int, rng) -> dict[int, Estimate]:
    """P_k estimates at several k from one shared sample, preserving nesting.

    Each chunk works in the two sum matrices it draws: logs, their difference,
    the running sum and the running minimum are taken in place, and the chunk
    is dropped before the next one is drawn, so a call holds about two
    chunk-sized arrays (2 MB) whatever the sample count.
    """
    import numpy as np

    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise ValueError("ks must name at least one k")
    for k in (ks[0], ks[-1]):
        _require_surrogate_args(n, k)
    _require_samples(samples)
    rng = _require_stream(rng)
    gen = rng.generator()
    kmax = ks[-1]
    hits = np.zeros(len(ks), dtype=np.int64)
    thresh = -math.log(2.0)
    idx = [k - 1 for k in ks]
    for m in _surrogate_chunks(samples, kmax):
        s, drift = exponential_sums(gen, m, kmax)
        np.log(drift, out=drift)
        np.subtract(drift, np.log(s, out=s), out=drift)
        del s
        np.cumsum(drift, axis=1, out=drift)
        np.minimum.accumulate(drift, axis=1, out=drift)
        hits += np.count_nonzero(drift[:, idx] >= thresh, axis=0)
        del drift
    return {k: _bernoulli_estimate(int(h), samples, rng) for k, h in zip(ks, hits)}


def chernoff_bounds(j: int, d: float) -> tuple[float, float]:
    """(tight, loose) bounds for P(|S_j/j - 1| >= d): exp(j(log(1+d)-d)) and exp(-j d^2/2)."""
    if j < 1:
        raise ValueError(f"j must be at least 1, got {j}")
    if not 0.0 < d < 1.0:
        raise ValueError("d must lie in (0, 1)")
    x = _float_of("j", j)
    return math.exp(x * (math.log1p(d) - d)), math.exp(-x * d * d / 2.0)


class BoundCheck(NamedTuple):
    """Empirical frequency of a tail event next to its analytic bound."""

    empirical: float
    bound: float
    bound_loose: float
    stderr: float
    samples: int

    @property
    def dominated(self) -> bool:
        """Bound holds up to Monte Carlo slack of five standard errors."""
        return self.empirical <= self.bound + 5.0 * self.stderr


def _gamma_tail_check(samples: int, rng, event, bound: float, loose: float) -> BoundCheck:
    """Frequency of event(gen), a boolean array over `samples` draws from the
    generator of rng's stream, next to its analytic bounds."""
    _require_samples(samples)
    gen = _require_stream(rng).generator()
    emp = float(event(gen).mean())
    stderr = math.sqrt(emp * (1.0 - emp) / samples)
    return BoundCheck(empirical=emp, bound=bound, bound_loose=loose,
                      stderr=stderr, samples=samples)


def chernoff_validate(j: int, d: float, samples: int, rng) -> BoundCheck:
    """Empirical P(|S_j/j - 1| >= d) against its Chernoff bounds.

    S_j is drawn as Gamma(j), equal in law to the partial sum of j unit
    exponentials.
    """
    bound, loose = chernoff_bounds(j, d)
    return _gamma_tail_check(
        samples, rng, lambda gen: abs(gen.gamma(j, size=samples) / j - 1.0) >= d, bound, loose)


def ratio_bound(j: int, beta: float) -> float:
    """(1 + (beta-1)^2 / (4 beta))^{-j}, bounding P(S'_j/S_j >= beta)."""
    if j < 1:
        raise ValueError(f"j must be at least 1, got {j}")
    if not 1.0 < beta < math.inf:
        raise ValueError("beta must exceed 1 and be finite")
    try:
        spread = (beta - 1.0) ** 2
    except OverflowError:
        raise ValueError(f"beta={beta!r} too large: (beta - 1)^2 overflows a double") from None
    return (1.0 + spread / (4.0 * beta)) ** -_float_of("j", j)


def ratio_bound_validate(j: int, beta: float, samples: int, rng) -> BoundCheck:
    """Empirical P(S'_j/S_j >= beta) against the moment bound."""
    bound = ratio_bound(j, beta)
    # S_j is drawn first, then S'_j
    return _gamma_tail_check(
        samples, rng,
        lambda gen: beta * gen.gamma(j, size=samples) <= gen.gamma(j, size=samples),
        bound, bound)


# Total variation distance between the joint law of the largest part and
# part count of a uniform partition and the k=1 surrogate law.

class TvExact(NamedTuple):
    """Exact-structure TV computation over a truncated support window."""

    n: int
    tv: float
    window_hi: int
    leak_true: float
    leak_model: float
    nonpositive_mass: float


def _sweep_diagonals(n: int, width: int):
    """Anti-diagonals d = a + c the box sweep updates, as (d, c_lo, c_hi, columns).

    Diagonal d sets slots c_lo..c_hi (c <= part bound a = d - c <= width)
    over columns 0..columns-1, where columns = n - d.
    """
    for d in range(2, min(n - 1, 2 * width) + 1):
        yield d, max(1, d - width), d // 2, n - d


def box_sweep_work(n: int, width: int) -> tuple[int, int]:
    """(diagonals, element updates) that _box_pmf_sweep(n, width) performs."""
    diagonals = updates = 0
    for _, lo, hi, columns in _sweep_diagonals(n, width):
        diagonals += 1
        updates += (hi - lo + 1) * columns
    return diagonals, updates


def _box_pmf_sweep(n: int, width: int) -> np.ndarray:
    """Joint counts of (largest part, part count) for partitions of n.

    Entry [l, m] is the number of partitions of n with largest part exactly
    l and exactly m parts, for 1 <= l, m <= width + 1.  Computed through the
    hook decomposition: that count equals B_{m-1}(l-1, n + 1 - l - m), where
    B_c(a, v) counts the partitions of v with parts <= a and at most c parts.
    The box counts satisfy

        B_c(a, v) = B_c(a-1, v) + B_{c-1}(a, v-a),

    evaluated here by anti-diagonals d = a + c over the half c <= a of the
    (a, c) grid: conjugation gives B_c(a, v) = B_a(c, v), so each count goes
    to both pmf[a+1, c+1] and pmf[c+1, a+1], and on an even diagonal the new
    top slot c = d/2 starts from its mirror B_{d/2}(d/2-1) = B_{d/2-1}(d/2).
    Diagonal d keeps slots lo..hi in rows 1..hi-lo+1 of one of two buffers
    of width // 2 + 2 rows and reads diagonal d - 1 from the other, so inputs
    and output never overlap; row 0 holds slot 0 while lo = 1.  Diagonal d
    is read at v = n - 1 - d and every dependency reads the same or a
    smaller v, so diagonal d updates only columns 0..n-d-1 and the sweep
    stops at d = n - 1.  Each row keeps width leading zeros, so a read
    shifted by a <= width below column 0 finds zero.  Each entry is the sum of the
    same two floats as in a row-by-row sweep of the half grid, so the result
    does not depend on the order of evaluation.

    Counts stay below p(n), well inside double range for n up to ~7e4, and
    additions of nonnegative terms keep the relative error near 1e-12.
    """
    import numpy as np

    zeros = width
    stride = n + zeros
    buffers = np.zeros((2, width // 2 + 2, stride))
    buffers[:, 0, zeros] = 1.0  # B_0(a, v) = [v == 0]
    pmf = np.zeros((width + 2, width + 2))
    for d, lo, hi, columns in _sweep_diagonals(n, width):
        new, old = buffers[d % 2], buffers[1 - d % 2]
        count = hi - lo + 1
        # slot c of diagonal d - 1 sits in row c - lo + 1 + skip of old
        skip = int(d > width + 1)
        span = slice(zeros, zeros + columns)
        if d % 2 == 0:
            old[count + skip, span] = old[count + skip - 1, span]
        # slot c reads slot c-1 shifted by a = d - c: one view whose rows
        # step by stride + 1, one more than the rows themselves
        start = skip * stride + zeros - (d - lo)
        shifted = old.reshape(-1)[start:start + count * (stride + 1)].reshape(count, stride + 1)
        np.add(old[1 + skip:count + 1 + skip, span], shifted[:, :columns],
               out=new[1:count + 1, span])
        c = np.arange(lo, hi + 1)
        counts = new[1:count + 1, zeros + n - 1 - d]
        pmf[d - c + 1, c + 1] = counts
        pmf[c + 1, d - c + 1] = counts
    if n <= width + 1:
        pmf[n, 1] = 1.0
        pmf[1, n] = 1.0
    return pmf


# Largest mass either law of tv_distance_k1 may leave outside its window.
TV_LEAK_BUDGET = 1e-6


def tv_distance_k1(n: int) -> TvExact:
    """TV distance between the exact law of (largest part, part count) and the
    independent-exponential surrogate at k=1.

    Both laws are evaluated cell by cell on a finite window; the model law
    has closed-form cell probabilities, and the exact law comes from the box
    count sweep normalized by p(n).  Mass outside the window is accounted
    through closed-form tails (model side) and the exact count of the
    partitions outside the window box (exact side); an error is raised when
    more than TV_LEAK_BUDGET is unaccounted in either law.
    """
    import numpy as np

    if n < 2:
        raise ValueError("n must be at least 2")
    if hardy_ramanujan_log(n) > 700.0:
        raise ValueError("n too large for float64 counts (log p(n) > 700)")
    scale = math.sqrt(n) / C
    tail_target = TV_LEAK_BUDGET / 100.0
    width = int(math.ceil(scale * math.log(scale / tail_target)))
    p_n = count_partitions(n)

    pmf_true = _box_pmf_sweep(n, width) / float(p_n)
    # a ratio of big integers, rounded once
    leak_true = (p_n - count_restricted(n, width + 1, width + 1)) / p_n

    # model marginal: P(height = t) = e^{-g(t)} - e^{-g(t-1)}, g(t) = scale e^{-t/scale}
    ts = np.arange(0, width + 2)
    surv = np.exp(-scale * np.exp(-ts / scale))  # P(height <= t)
    marg = np.diff(surv)  # index t-1 -> P(height = t), t = 1..width+1
    below = float(surv[0])  # P(height <= 0)
    in_range = float(marg.sum())
    pmf_model = np.outer(marg, marg)

    nonpositive = 1.0 - (1.0 - below) ** 2
    leak_model = (1.0 - below) ** 2 - in_range**2
    if leak_true > TV_LEAK_BUDGET or leak_model > TV_LEAK_BUDGET:
        raise ValueError(
            f"window leaves unaccounted mass beyond {TV_LEAK_BUDGET}: "
            f"true {leak_true:.3g}, model {leak_model:.3g}")

    core = float(np.abs(pmf_true[1:, 1:] - pmf_model).sum())
    tv = 0.5 * (core + nonpositive + leak_true + leak_model)
    return TvExact(n=n, tv=tv, window_hi=width + 1, leak_true=leak_true,
                   leak_model=leak_model, nonpositive_mass=nonpositive)


class TvMc(NamedTuple):
    estimate: Estimate
    cells: int
    clip: int


def tv_distance_mc(n: int, k: int, samples: int, rng) -> TvMc:
    """Plug-in TV lower bound between empirical joint laws of the k largest
    parts and k largest dual parts, sampled exactly and from the surrogate.

    Joint outcomes bin into integer cells clipped to [0, clip], with
    clip = ceil(3 sqrt(n)/c log n) and n >= 2 so that clip >= 1; coarsening
    can only lower the estimate, so the reported value is a lower bound on
    the true distance.  stderr is the conservative null scale
    sqrt(cells / (2 samples)) / sqrt(2).

    The exact draws' count table is freed once their cells are tallied,
    before numpy loads for the surrogate, so the call never holds both.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    _require_surrogate_args(n, k)
    _require_samples(samples)
    clip = int(math.ceil(3.0 * math.sqrt(n) / C * math.log(n)))

    def cell(parts: tuple[int, ...]) -> tuple[int, ...]:
        head = tuple(min(p, clip) for p in parts[:k]) + (0,) * max(0, k - len(parts))
        return head + tuple(min(q, clip) for q in _conjugate(parts, k))

    counts_true = Counter(map(cell, _draws(n, samples, rng)))
    import numpy as np

    counts_model = Counter()
    gen = rng.split(rng.stream_id + 1).generator()
    for m in _surrogate_chunks(samples, k):
        _, _, heights, widths = surrogate_batch(n, k, gen, m)
        cells = np.clip(np.hstack((heights, widths)), 0, clip)
        counts_model.update(map(tuple, cells.tolist()))

    keys = counts_true.keys() | counts_model.keys()
    tv = 0.5 * sum(abs(counts_true[key] - counts_model[key]) for key in keys) / samples
    stderr = 0.5 * math.sqrt(2.0 * len(keys) / samples)
    est = Estimate(value=tv, stderr=stderr, samples=samples, seed=rng.seed,
                   stream_id=rng.stream_id, method="monte-carlo")
    return TvMc(estimate=est, cells=len(keys), clip=clip)
