"""Random generation: exact uniform partitions, Boltzmann draws by
probabilistic divide-and-conquer, and the exponential-sums surrogate for the
extremities of a random diagram.

An exact uniform partition of n is drawn by unranking: one uniform integer
below p(n) is mapped to a partition by `RestrictedCountTable.unrank`, which
walks the by-largest-part count rows (Nijenhuis and Wilf, Combinatorial
Algorithms, ch. 10).  The map is a bijection, so each draw costs one
big-integer uniform and is exactly uniform with no rejection beyond that of
the uniform itself.  The walk takes one Python step per part above 3 and one
for all the parts up to 3, which are closed form: on average 48 steps per
draw at n = 910 and 17 at n = 220.  `make_sampler` is the one entry point for
exact draws; it takes n and an `RngStream` and gets its own table from
`counting`, so no caller ever holds one.

Boltzmann draws come from `sample_boltzmann_batch`, whose memory does not grow
with n squared: a Poisson process of about c sqrt(n) points, each adding k
parts of size j >= 2, with the 1s decided last (Arratia and DeSalvo, Combin.
Probab. Comput. 25, 2016).  The law is uniform over every partition of n up
to a cut of the k table finer than a double resolves; an attempt succeeds
with probability about n^{-1/4}, which `boltzmann_expected_rate` gives.

All randomness flows through named (seed, stream_id) streams so that any
sample sequence replays byte-identically and distinct streams can run in
parallel without coordination.  A stream feeds two generators: exact draws
take their ranks from a Mersenne Twister `random.Random`, which needs nothing
beyond the standard library, and the array samplers (Boltzmann, surrogate,
overflow) take a numpy PCG64 `Generator` from `RngStream.generator()` as
their argument; calls handed one generator draw its stream in turn.  numpy
is imported only by the functions that build arrays, and the command line
imports this module only in the subcommands that draw.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, NamedTuple

from .asymptotics import C, _float_of, hardy_ramanujan_log

if TYPE_CHECKING:
    import numpy as np

    from .counting import RestrictedCountTable

_MASK64 = 2**64 - 1


class RngStream(NamedTuple):
    """Reproducible, splittable source of randomness.

    `source()` gives the Mersenne Twister `random.Random` that exact draws
    use; `generator()` gives the numpy PCG64 `Generator` that the array
    samplers use.  Both are fresh on each call and replay the stream from its
    start, and both are seeded from (seed, stream_id) alone, never through
    `hash()`, so they do not depend on PYTHONHASHSEED.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh numpy generator replaying this stream from its start."""
        import numpy as np

        return np.random.default_rng([self.seed & _MASK64, self.stream_id & _MASK64])

    def source(self) -> random.Random:
        """Fresh standard-library generator replaying this stream from its start."""
        return random.Random(((self.stream_id & _MASK64) << 64) | (self.seed & _MASK64))

    def split(self, stream_id: int) -> "RngStream":
        return RngStream(self.seed, stream_id)


def draw_uniform_parts(n: int, table: RestrictedCountTable, source: random.Random) -> tuple[int, ...]:
    """One exact-uniform partition of n as a raw tuple of parts.

    Draws a single uniform rank below p(n) = table.entry(n, n) and unranks it,
    so each draw makes one big-integer uniform call however many parts the
    partition has.  `randrange` takes the rank from `getrandbits` with
    rejection, so it is exactly uniform.
    """
    return table.unrank(n, source.randrange(table.entry(n, n)))


def make_sampler(n: int, rng: RngStream):
    """Zero-argument callable yielding exact uniform partitions of n as raw
    part tuples, for tight MC loops.

    Its count table comes from `counting.load_or_build`, looked up when called,
    and only the callable holds it.  n past `counting.TABLE_N_MAX` raises
    ValueError before anything is built.
    """
    from . import counting

    table = counting.load_or_build(n)
    source = rng.source()

    def draw() -> tuple[int, ...]:
        return draw_uniform_parts(n, table, source)

    return draw


# Boltzmann sampling by probabilistic divide-and-conquer: a Poisson process of
# points (j, k), each adding k parts of size j >= 2, then the 1s last.

class BoltzmannStats(NamedTuple):
    attempts: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else 0.0


# a batch that has made this many attempts without completing raises
BOLTZMANN_MAX_ATTEMPTS = 2_000_000_000

# a chunk's rows expect at most this many points, held in three int64 arrays
# (24 MiB); the k table may hold no more entries
BOLTZMANN_CHUNK_POINTS = 2**20


def _boltzmann_setup(n: int):
    """(x = c/sqrt n, the k table 0, Lambda_1, Lambda_1 + Lambda_2, ..., the
    expected acceptance rate) for draws of size n; Lambda_k = q^{2k} / (k (1 - q^k)).

    The table stops at min(n // 2, K), 2xK >= max(53 log 2 + log x, 2).  Then
    K + 1 > 1/x and q^K < 1/2, so the mass past K, at most
    q^{2K} Lambda_1 / ((1+q)(K+1)(1-q^{K+1})), is below 2^-53 Lambda.  A table
    past BOLTZMANN_CHUNK_POINTS, from n = 11,199,296,810 on, is refused.
    """
    if n < 1:
        raise ValueError("n must be positive")
    # log n takes any int, so an n past the float range meets the size check
    x = C * math.exp(-0.5 * math.log(n))
    size = min(n // 2, math.ceil(max(53.0 * math.log(2.0) + math.log(x), 2.0) / (2.0 * x)))
    if size > BOLTZMANN_CHUNK_POINTS:
        raise ValueError(f"n={n} too large for Boltzmann draws: its k table needs {size} "
                         f"entries, above the chunk limit {BOLTZMANN_CHUNK_POINTS}")
    import numpy as np

    k = np.arange(1.0, size + 1.0)
    cum = np.zeros(size + 1)
    cum[1:] = np.exp(-2.0 * x * k) / (k * -np.expm1(-x * k))
    np.cumsum(cum, out=cum)
    # p(n) q^n e^{-Lambda} in log space, p(n) at leading order
    return x, cum, math.exp(hardy_ramanujan_log(n) - n * x - cum[-1])


def boltzmann_expected_rate(n: int) -> float:
    """Expected acceptance rate of `sample_boltzmann_batch` at n.

    The exact rate is p(n) q^n e^{-Lambda}; here p(n) is its Hardy-Ramanujan
    leading term, which overstates it by 2.3% at n=400 and 0.4% at n=10^4,
    so no big integer is built at large n.
    """
    return _boltzmann_setup(n)[2]


def sample_boltzmann_batch(n: int, gen: np.random.Generator, count: int):
    """Draw `count` uniform partitions of n; returns (list of part tuples, stats).

    Probabilistic divide-and-conquer with the 1s decided last at q = e^{-x},
    x = c/sqrt n.  The multiplicity of parts j >= 2, geometric with
    P(Z_j >= m) = q^{jm}, is sum_k k Poisson(q^{jk}/k) (Arratia, Barbour and
    Tavare, Logarithmic Combinatorial Structures, 2003), so an attempt is
    Poisson(Lambda) points (j, k) adding k parts of size j: k from the k table
    of `_boltzmann_setup`, j = 2 + floor(E / (kx)), E a unit exponential.  It
    is accepted with probability q^R, R = n - sum j k >= 0, and completed by
    R ones, so every partition of n is accepted with probability
    q^n e^{-Lambda}: uniform over every partition of n up to the k-table cut.  Chunks
    of attempts are sized from the expected rate to the draws still missing,
    with at most BOLTZMANN_CHUNK_POINTS points expected.
    """
    import numpy as np

    x, cum, rate = _boltzmann_setup(n)
    lam, q = cum[-1], math.exp(-x)
    max_rows = BOLTZMANN_CHUNK_POINTS // math.ceil(lam + 1.0)
    out: list[tuple[int, ...]] = []
    attempts = 0
    while len(out) < count:
        if attempts >= BOLTZMANN_MAX_ATTEMPTS:
            raise RuntimeError(f"no acceptance after {attempts} attempts")
        rows = min(max_rows, math.ceil((count - len(out)) / rate))
        ends = np.cumsum(gen.poisson(lam, rows))
        e = gen.random(int(ends[-1]))
        e *= lam
        # the table starts at 0, so the index is k; its last entry is left
        # out, so a uniform that rounds up to lam still picks the last k
        k = np.searchsorted(cum[:-1], e, side="right")
        gen.standard_exponential(out=e)
        e /= k
        e /= x
        j = np.floor(e, out=e).astype(np.int64)
        del e
        j += 2
        # weight[p] is the weight of the first p points
        weight = np.zeros(len(j) + 1, dtype=np.int64)
        np.multiply(j, k, out=weight[1:])
        ones = n - np.diff(np.cumsum(weight, out=weight)[ends], prepend=0)
        keep = gen.random(rows) < q ** np.maximum(ones, 0)
        hits = np.nonzero(keep & (ones >= 0))[0][:count - len(out)]
        for row in hits:
            span = slice(ends[row - 1] if row else 0, ends[row])
            order = np.argsort(j[span])[::-1]
            parts = np.repeat(j[span][order], k[span][order]).tolist()
            out.append(tuple(parts + [1] * int(ones[row])))
        del j, k, weight  # before the next chunk's arrays are drawn
        # the rows after the one that completes the batch are not attempts
        attempts += rows if len(out) < count else int(hits[-1]) + 1
    return out, BoltzmannStats(attempts=attempts, accepted=len(out))


# Exponential-sums surrogate for the k tallest columns and k longest rows.

class SurrogateDraw(NamedTuple):
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


def slanted_heights(n: int, sums) -> np.ndarray:
    """Ceiling transform from exponential partial sums to integer heights.

    A 1e-9 downward nudge before the ceiling absorbs float roundoff at exact
    integers (a measure-zero event for random input).
    """
    import numpy as np

    scale = math.sqrt(n) / C
    x = scale * (math.log(scale) - np.log(np.asarray(sums, dtype=float)))
    return np.ceil(x - 1e-9).astype(np.int64)


def _partial_sums(gen: np.random.Generator, count: int, k: int) -> np.ndarray:
    """(count, k) partial sums of unit exponentials, built in the one array drawn."""
    import numpy as np

    x = gen.random((count, k))
    # -log1p(-u) by inverse CDF, then the running sum along each row
    np.negative(x, out=x)
    np.log1p(x, out=x)
    np.negative(x, out=x)
    return np.cumsum(x, axis=1, out=x)


def exponential_sums(gen: np.random.Generator, count: int,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
    """(count, k) partial-sum matrices for the two independent sequences.

    The first matrix is drawn and summed before the second is drawn, each in
    place, so a call holds only the two matrices it returns.
    """
    return _partial_sums(gen, count, k), _partial_sums(gen, count, k)


# A surrogate chunk holds at most this many values in each of its (rows, k)
# arrays, 1 MB of float64, so a row of k values fits one only for k up to it.
SURROGATE_CHUNK_VALUES = 1 << 17


def _require_surrogate_args(n: int, k: int) -> None:
    """Reject the (n, k) of a surrogate or Monte Carlo call before anything is
    built, drawn or written; the exact-draw experiments pass k = 1.  The slant
    needs sqrt(n) as a float, and one row of k values must fit a 1 MB chunk."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > n:
        raise ValueError(f"k must be at most n={n}, got {k}")
    if k > SURROGATE_CHUNK_VALUES:
        raise ValueError(f"k={k} is above {SURROGATE_CHUNK_VALUES}, the most values "
                         f"one 1 MB surrogate chunk row holds")
    _float_of("n", n)


def sample_surrogate(n: int, k: int, gen: np.random.Generator) -> SurrogateDraw:
    """One surrogate draw: 2k exponentials via inverse CDF, then the slant."""
    _require_surrogate_args(n, k)
    s, s_dual, heights, widths = surrogate_batch(n, k, gen, 1)
    return SurrogateDraw(
        n=n, k=k,
        sums=tuple(s[0].tolist()),
        dual_sums=tuple(s_dual[0].tolist()),
        col_heights=tuple(heights[0].tolist()),
        row_lengths=tuple(widths[0].tolist()),
    )


def surrogate_batch(n: int, k: int, gen: np.random.Generator, count: int):
    """Vectorized surrogate draws: (sums, dual_sums, heights, widths) arrays."""
    s, s_dual = exponential_sums(gen, count, k)
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


class OverflowBounds(NamedTuple):
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


def overflow_empirical(n: int, k: int, samples: int,
                       gen: np.random.Generator) -> tuple[float, float]:
    """Empirical frequencies for the two overflow events.

    S_k is drawn as Gamma(k) and S_1 as a unit exponential; both equal the
    corresponding partial sums in distribution.
    """
    import numpy as np

    bounds = surrogate_overflow_bounds(n, k)
    top = gen.gamma(k, size=samples)
    bottom = gen.exponential(size=samples)
    freq_top = float(np.mean(top >= bounds.top_threshold))
    freq_bottom = float(np.mean(bottom <= bounds.bottom_threshold))
    return freq_top, freq_bottom
