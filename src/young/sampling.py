"""Random generation: exact uniform partitions, Boltzmann rejection, and the
exponential-sums surrogate for the extremities of a random diagram.

An exact uniform partition of n is drawn by unranking: one uniform integer
below p(n) is mapped to a partition through the cumulative count rows of a
by-largest-part table (Nijenhuis and Wilf, Combinatorial Algorithms, ch. 10).
The map is a bijection, so each draw costs one big-integer uniform and is
exactly uniform with no rejection beyond that of the uniform itself.

All randomness flows through named (seed, stream_id) streams so that any
sample sequence replays byte-identically and distinct streams can run in
parallel without coordination.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .asymptotics import C
from .counting import RestrictedCountTable
from .partitions import Partition


@dataclass(frozen=True)
class RngStream:
    """Reproducible, splittable source of randomness."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator replaying this stream from its start."""
        return np.random.default_rng([self.seed & (2**64 - 1), self.stream_id & (2**64 - 1)])

    def split(self, stream_id: int) -> "RngStream":
        return RngStream(self.seed, stream_id)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or numpy Generator")


class _ByteUniform:
    """Buffered exact uniform integers below arbitrary big-integer bounds."""

    __slots__ = ("_gen", "_buf", "_pos")
    _CHUNK = 1 << 16

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._buf = b""
        self._pos = 0

    def below(self, bound: int) -> int:
        bits = bound.bit_length()
        nbytes = (bits + 7) >> 3
        excess = (nbytes << 3) - bits
        buf, pos = self._buf, self._pos
        while True:
            if pos + nbytes > len(buf):
                buf = self._gen.bytes(max(self._CHUNK, nbytes))
                pos = 0
            val = int.from_bytes(buf[pos:pos + nbytes], "little") >> excess
            pos += nbytes
            if val < bound:
                self._buf, self._pos = buf, pos
                return val


def _unrank(n: int, table: RestrictedCountTable, rank: int) -> tuple[int, ...]:
    """The partition of n at `rank` (0 <= rank < p(n)) in increasing lex order.

    Row v of the table holds, at index m, the number of partitions of v with
    largest part at most m.  The largest part is the m with
    row[m-1] <= rank < row[m]; the remainder rank - row[m-1] is then a rank
    below row[m] - row[m-1], the number of partitions of v - m with parts at
    most m, which is the next row's total.  Rank 0 is all ones and rank
    p(n) - 1 is (n,).
    """
    parts = []
    v = n
    bound = n
    rows = table._data
    while v:
        row = rows[v]
        hi = bound if bound < v else v
        # a repeated part takes the top interval of the row
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


def draw_uniform_parts(n: int, table: RestrictedCountTable, source: _ByteUniform) -> tuple[int, ...]:
    """One exact-uniform partition of n as a raw tuple of parts.

    Draws a single uniform rank below p(n) and unranks it, so each draw makes
    one big-integer uniform call however many parts the partition has.
    """
    return _unrank(n, table, source.below(table._data[n][n]))


def sample_uniform_exact(n: int, rng, table: RestrictedCountTable) -> Partition:
    """Exactly uniform partition of n, unranked from one uniform rank below p(n)."""
    if table.mode != RestrictedCountTable.MODE_LARGEST:
        raise ValueError("table must be built in by-largest-part mode")
    if table.n_max < n:
        raise ValueError(f"table too small: n_max={table.n_max} < n={n}")
    gen = _as_generator(rng)
    return Partition(draw_uniform_parts(n, table, _ByteUniform(gen)))


def make_sampler(n: int, rng, table: RestrictedCountTable):
    """Zero-argument callable yielding raw part tuples, for tight MC loops."""
    if table.mode != RestrictedCountTable.MODE_LARGEST or table.n_max < n:
        raise ValueError("table must be by-largest-part with n_max >= n")
    source = _ByteUniform(_as_generator(rng))

    def draw() -> tuple[int, ...]:
        return draw_uniform_parts(n, table, source)

    return draw


# Boltzmann sampling: independent geometric multiplicities at q = e^{-c/sqrt n},
# rejected unless the total weight is exactly n, which leaves the uniform law.

@dataclass(frozen=True)
class BoltzmannStats:
    attempts: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else 0.0


def _boltzmann_setup(n: int):
    q = math.exp(-C / math.sqrt(n))
    # parts with q^j below 2^-80 are dropped; their total probability is
    # smaller than the rejection loop can ever observe
    jmax = int(80.0 * math.log(2.0) * math.sqrt(n) / C) + 1
    j = np.arange(1, jmax + 1)
    probs = -np.expm1(j * math.log(q))  # 1 - q^j, accurate near 0
    return j, probs


def sample_boltzmann_batch(n: int, rng, count: int, chunk: int = 2048,
                           max_attempts: int | None = None):
    """Draw `count` uniform partitions of n by rejection; returns (list, stats)."""
    if n < 1:
        raise ValueError("n must be positive")
    gen = _as_generator(rng)
    weights, probs = _boltzmann_setup(n)
    cap = max_attempts if max_attempts is not None else 2_000_000_000
    out: list[Partition] = []
    attempts = 0
    while len(out) < count:
        if attempts >= cap:
            raise RuntimeError(f"no acceptance after {attempts} attempts")
        mult = gen.geometric(probs, size=(chunk, len(weights))).astype(np.int64) - 1
        totals = mult @ weights
        attempts += chunk
        for row in np.nonzero(totals == n)[0]:
            m = mult[row]
            sizes = np.nonzero(m)[0]
            parts = np.repeat(sizes[::-1] + 1, m[sizes][::-1])
            out.append(Partition(int(x) for x in parts))
            if len(out) == count:
                break
    return out, BoltzmannStats(attempts=attempts, accepted=len(out))


def sample_boltzmann(n: int, rng, max_attempts: int = 10_000_000) -> Partition:
    """Single uniform partition of n by Boltzmann rejection."""
    draws, _ = sample_boltzmann_batch(n, rng, 1, max_attempts=max_attempts)
    return draws[0]


def boltzmann_acceptance_rate(n: int, rng, accepted_target: int = 100) -> float:
    """Measured acceptance rate after collecting `accepted_target` draws."""
    _, stats = sample_boltzmann_batch(n, rng, accepted_target)
    return stats.acceptance_rate


# Exponential-sums surrogate for the k tallest columns and k longest rows.

@dataclass(frozen=True)
class SurrogateDraw:
    """One realization of the independent-exponential model of both extremities.

    sums and dual_sums are the increasing partial sums of unit-rate
    exponentials; col_heights and row_lengths are their slanted integer
    images.  Heights may be nonpositive when a partial sum exceeds
    sqrt(n)/c; they are retained so callers can filter explicitly.
    """

    n: int
    k: int
    sums: tuple[float, ...]
    dual_sums: tuple[float, ...]
    col_heights: tuple[int, ...]
    row_lengths: tuple[int, ...]

    @property
    def has_nonpositive(self) -> bool:
        return self.col_heights[-1] <= 0 or self.row_lengths[-1] <= 0


def slanted_heights(n: int, sums) -> np.ndarray:
    """Ceiling transform from exponential partial sums to integer heights.

    A 1e-9 downward nudge before the ceiling absorbs float roundoff at exact
    integers (a measure-zero event for random input).
    """
    scale = math.sqrt(n) / C
    x = scale * (math.log(scale) - np.log(np.asarray(sums, dtype=float)))
    return np.ceil(x - 1e-9).astype(np.int64)


def exponential_sums(rng, count: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(count, k) partial-sum matrices for the two independent sequences."""
    gen = _as_generator(rng)
    e = -np.log1p(-gen.random((count, k)))
    e_dual = -np.log1p(-gen.random((count, k)))
    return np.cumsum(e, axis=1), np.cumsum(e_dual, axis=1)


def sample_surrogate(n: int, k: int, rng) -> SurrogateDraw:
    """One surrogate draw: 2k exponentials via inverse CDF, then the slant."""
    if k < 1 or n < 1:
        raise ValueError("n and k must be positive")
    s, s_dual = exponential_sums(rng, 1, k)
    s, s_dual = s[0], s_dual[0]
    return SurrogateDraw(
        n=n, k=k,
        sums=tuple(float(x) for x in s),
        dual_sums=tuple(float(x) for x in s_dual),
        col_heights=tuple(int(x) for x in slanted_heights(n, s)),
        row_lengths=tuple(int(x) for x in slanted_heights(n, s_dual)),
    )


def surrogate_batch(n: int, k: int, rng, count: int):
    """Vectorized surrogate draws: (sums, dual_sums, heights, widths) arrays."""
    s, s_dual = exponential_sums(rng, count, k)
    return s, s_dual, slanted_heights(n, s), slanted_heights(n, s_dual)


def surrogate_tie_probability(n: int, k: int) -> float:
    """Union bound on the slanted height sequence failing to strictly decrease.

    Sums P(S_j / S_{j-1} <= e^{c/sqrt n}) = 1 - e^{-c (j-1)/sqrt n} over
    j = 2..k.  By linearity the same sum is exactly the expected number of
    adjacent near-tie ratio events, which is what Monte Carlo checks.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    x = C / math.sqrt(n)
    return float(sum(-math.expm1(-x * (j - 1)) for j in range(2, k + 1)))


@dataclass(frozen=True)
class OverflowBounds:
    """Explicit tail bounds for the extreme partial sums of the surrogate."""

    n: int
    k: int
    top_threshold: float      # S_k at k log n
    top_bound: float          # exp(-0.5 k log n)
    bottom_threshold: float   # S_1 at k^2 / sqrt(n)
    bottom_bound: float       # k^2 / sqrt(n), capped at 1


def surrogate_overflow_bounds(n: int, k: int) -> OverflowBounds:
    """Chernoff bound for S_k running high and the exact bound for S_1 tiny.

    Requires k = floor(n^gamma) with gamma <= 1/4, validated through
    log k / log n.
    """
    if k < 1 or n < 2:
        raise ValueError("need k >= 1 and n >= 2")
    gamma = math.log(k) / math.log(n)
    if gamma > 0.25 + 1e-12:
        raise ValueError(f"log k / log n = {gamma:.4f} exceeds 1/4")
    top_threshold = k * math.log(n)
    bottom_threshold = k * k / math.sqrt(n)
    return OverflowBounds(
        n=n, k=k,
        top_threshold=top_threshold,
        top_bound=math.exp(-0.5 * top_threshold),
        bottom_threshold=bottom_threshold,
        bottom_bound=min(1.0, bottom_threshold),
    )


def overflow_empirical(n: int, k: int, samples: int, rng) -> tuple[float, float]:
    """Empirical frequencies for the two overflow events.

    S_k is drawn as Gamma(k) and S_1 as a unit exponential; both equal the
    corresponding partial sums in distribution.
    """
    bounds = surrogate_overflow_bounds(n, k)
    gen = _as_generator(rng)
    top = gen.gamma(k, size=samples)
    bottom = gen.exponential(size=samples)
    freq_top = float(np.mean(top >= bounds.top_threshold))
    freq_bottom = float(np.mean(bottom <= bounds.bottom_threshold))
    return freq_top, freq_bottom
