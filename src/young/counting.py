"""Exact arbitrary-precision counting of partitions and restricted partitions.

Counts are plain Python integers; nothing in this module rounds.  Three
families are covered: p(n) via the pentagonal-number recurrence, counts of
partitions with bounded largest part (`RestrictedCountTable`, cached on disk
only under $YOUNG_CACHE_DIR), and the doubly-restricted counts with bounded
largest part and bounded number of parts (`count_restricted`, a Gaussian
binomial taken by the q-binomial split: s divide passes plus J+1 dot
products), with the literal product formula as an independent oracle.

The table stores the lower third of each cumulative row plus p(0..n_max);
every entry above it is p(v) less one prefix sum of p plus a sum of every
other prefix sum.  That layout is known only here: other modules read it
through `entry`, `row` and `unrank`, the rank-to-partition map behind the
exact sampler.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import struct
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, repeat
from math import isqrt
from operator import add, getitem, mul, sub
from typing import TYPE_CHECKING, NamedTuple

from .asymptotics import slant_bounds

if TYPE_CHECKING:
    from fractions import Fraction

_pcache = [1]


def _pentagonal_offsets(n: int) -> tuple[list[int], list[int]]:
    """The generalized pentagonal numbers k(3k -+ 1)/2 <= n, by the sign that
    Euler's recurrence gives them: (+ for odd k, - for even k), each increasing."""
    plus: list[int] = []
    minus: list[int] = []
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        (plus if k % 2 else minus).extend((k * (3 * k - 1) // 2, k * (3 * k + 1) // 2))
        k += 1
    return plus, minus


def count_partitions(n: int) -> int:
    """Exact number of partitions of n; p(0) = 1.

    Euler's pentagonal recurrence p(m) = sum over the + offsets g of p(m - g)
    minus the same sum over the - offsets, each sum taken at C speed over the
    offsets up to m.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cache = _pcache
    if len(cache) <= n:
        plus, minus = _pentagonal_offsets(n)
        get = cache.__getitem__
        for m in range(len(cache), n + 1):
            a = bisect_right(plus, m)
            b = bisect_right(minus, m)
            cache.append(sum(map(get, map(sub, repeat(m, a), plus[:a])))
                         - sum(map(get, map(sub, repeat(m, b), minus[:b]))))
    return cache[n]


def _term_offsets(n: int, r: int, s: int) -> list[int]:
    """n - j(r+1) - j(j-1)/2 for j = 0, 1, ..., J: the q-binomial terms that reach q^n.

    J is the largest j <= s whose shift j(r+1) + j(j-1)/2 is at most n.
    """
    offsets = []
    shift = j = 0
    while j <= s and shift <= n:
        offsets.append(n - shift)
        shift += r + 1 + j
        j += 1
    return offsets


# A divide pass with stride t runs one accumulate per residue class mod t while
# t*t <= _RESIDUE_PASS_SPAN * n, and one map(add) per block of length t beyond,
# where residue slices get short.  Timed pass by pass (Python 3.11, 2-core x86
# VM), the block form first wins at t*t between 3n (n = 1e3) and 16n (n = 1e4).
_RESIDUE_PASS_SPAN = 9


def _gaussian_coeff(n: int, r: int, s: int) -> int:
    """Coefficient of q^n in the Gaussian binomial C(r+s, s)_q.

    By the q-binomial theorem,
    C(r+s, s)_q = sum_j (-1)^j q^{j(r+1) + j(j-1)/2} / ((q)_j (q)_{s-j}),
    so [q^n] is an alternating sum of J+1 dot products (`_term_offsets`), term
    j pairing P_j with P_{s-j}, where P_t counts the partitions into parts <= t.
    One run of s divide passes by (1 - q^t), t = 1..s, passes through every P_t;
    a factor that appears before its partner is kept, cut to the length its dot
    product reads, until the partner appears.  Both factors are exact integers.
    """
    offsets = _term_offsets(n, r, s)
    coeffs = [1] + [0] * n
    waiting: dict[int, list[int]] = {}
    total = 0
    for t in range(s + 1):  # t = 0 has no residue class: coeffs is P_0
        if t * t <= _RESIDUE_PASS_SPAN * n:
            for j in range(t):
                coeffs[j::t] = accumulate(coeffs[j::t])
        else:
            for b in range(t, n + 1, t):
                coeffs[b:b + t] = map(add, coeffs[b:b + t], coeffs[b - t:b])
        for j in {t, s - t}:
            if j >= len(offsets):
                continue
            m = offsets[j]
            if j in waiting:
                dot = sum(map(mul, waiting.pop(j), coeffs[m::-1]))
            elif 2 * j == s:
                dot = sum(map(mul, coeffs[:m + 1], coeffs[m::-1]))
            else:
                waiting[j] = coeffs[:m + 1]
                continue
            total += -dot if j & 1 else dot
    return total


def _kernel_bounds(n: int, r: int, s: int) -> tuple[int, int] | None:
    """The bounds that count_restricted hands to the kernel: (r, s) clamped to n, r >= s.

    None when no kernel runs: the count is 1 at n = 0 and 0 when n does not fit the box.
    """
    if n < 0 or r < 0 or s < 0:
        raise ValueError("arguments must be nonnegative")
    r = min(r, n)
    s = min(s, n)
    if n == 0 or r == 0 or s == 0 or n > r * s:
        return None
    return (r, s) if r >= s else (s, r)


def count_restricted(n: int, r: int, s: int) -> int:
    """Exact number of partitions of n with largest part <= r and at most s parts.

    This is the coefficient of q^n in the Gaussian binomial C(r+s, s)_q, taken
    by the q-binomial split with s = min(r, s, n): s divide passes over n+1
    integers plus J+1 dot products, J <= s the largest term index that reaches
    q^n (`count_restricted_plan`).
    """
    bounds = _kernel_bounds(n, r, s)
    if bounds is None:
        return int(n == 0)
    return _gaussian_coeff(n, *bounds)


def count_restricted_plan(n: int, r: int, s: int) -> tuple[int, int]:
    """(divide passes, q-binomial terms) that count_restricted(n, r, s) runs."""
    bounds = _kernel_bounds(n, r, s)
    if bounds is None:
        return 0, 0
    r, s = bounds
    return s, len(_term_offsets(n, r, s))


def coeff_from_product(n: int, r: int, s: int, limit: int = 200) -> int:
    """Independent oracle for count_restricted via the literal product formula.

    Multiplies out prod_{i<=r+s}(1-q^i) and divides by the two denominator
    groups, all truncated at degree n.  Guarded by an explicit truncation
    bound to keep oracle runs cheap; raise `limit` deliberately if needed.
    """
    if n > limit:
        raise ValueError(f"truncation bound exceeded: n={n} > limit={limit}")
    if n < 0 or r < 0 or s < 0:
        raise ValueError("arguments must be nonnegative")
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for i in range(1, r + s + 1):
        if i > n:
            break
        for v in range(n, i - 1, -1):
            coeffs[v] -= coeffs[v - i]
    for group in (r, s):
        for j in range(1, group + 1):
            if j > n:
                break
            for v in range(j, n + 1):
                coeffs[v] += coeffs[v - j]
    return coeffs[n]


class JointTail(NamedTuple):
    """Exact tail probability P(largest part <= r, parts <= s) at derived bounds."""

    n: int
    h: float
    w: float
    r: int
    s: int
    fraction: Fraction

    @property
    def value(self) -> float:
        return float(self.fraction)


def joint_tail(n: int, h: float, w: float) -> JointTail:
    """Exact probability that both diagram extremities exceed slanted levels.

    The levels (h, w) map to integer bounds (r, s) by the ceiling form of the
    slant transform; the result is the exact ratio of the doubly-restricted
    count to p(n).
    """
    r, s = slant_bounds(n, h, w, rounding="ceil")
    if r <= 0 or s <= 0:
        raise ValueError("degenerate bounds: r and s must be >= 1")
    from fractions import Fraction

    frac = Fraction(count_restricted(n, r, s), count_partitions(n))
    return JointTail(n=n, h=h, w=w, r=r, s=s, fraction=frac)


# The largest n a count table is built for.  The table holds about n^2/6 big
# integers and grows as n^2.18 (tracemalloc: 8.3 MB at n = 1000, 36.1 MB at
# 2000, 163 MB at 4000); extrapolated, n = 1e4 takes about 1.2 GB and 2e4
# about 5.4 GB.
TABLE_N_MAX = 10**4


def _require_table_fits(n_max: int) -> None:
    if n_max > TABLE_N_MAX:
        raise ValueError(f"n={n_max} is beyond the count-table limit n <= {TABLE_N_MAX}")


def _e3(w: int) -> int:
    """E3(w), the number of partitions of w >= 0 into parts <= 3: the integer
    nearest (w + 3)^2 / 12."""
    return ((w + 3) ** 2 + 6) // 12


class RestrictedCountTable:
    """Immutable table of partition counts by largest part, buildable and cacheable.

    entry(v, m) is the number of partitions of v with all parts <= m, for
    v <= n_max, as an exact big integer.  Only the lower third of each
    cumulative row is stored: stored row v lists entry(v, m) for m = 0..v//3,
    and the totals list p(0..n_max).  Above it one closed form gives every
    entry.  A largest part k > v/3 leaves v - k, of whose partitions
    cum[v - 2k] have a part above k (that part is then unique), so

        entry(v, m) = p(v) - cum[v - m] + cum2[v - 2m]   for m >= v//3,

    with cum[k] = p(0) + ... + p(k-1), cum2[j] = cum[j-2] + cum[j-4] + ...
    (0 for j < 2), and cum2 of a negative index 0; for m >= v/2 it is
    p(v) - cum[v - m].  cum and cum2 are derived from the totals once.
    `row(v)` rebuilds the whole cumulative row; `unrank` reads the stored
    rows, cum and cum2 directly.

    save/load keep one table per file, as a header and one record per row (see
    the comment above save); load raises ValueError on a file of another
    version, another layout or a damaged one.
    """

    _MAGIC = b"YPTB"
    _VERSION = 4
    _HEADER = struct.Struct("<4sHBBQ")
    _LENGTH = struct.Struct("<I")
    _MODE_CODE = 1

    def __init__(self, n_max: int, rows: list[list[int]], totals: list[int]):
        self.n_max = n_max
        self._rows = rows
        self._totals = totals
        self._cum = cum = list(accumulate(totals, initial=0))
        self._cum2 = cum2 = [0, 0]
        for c in cum[:-2]:
            cum2.append(c + cum2[-2])

    @classmethod
    def build(cls, n_max: int) -> "RestrictedCountTable":
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        _require_table_fits(n_max)
        # row v accumulates entry(v - m, m), the partitions of v with largest
        # part m, over m <= v//3: a stored entry while m <= (v - m)//3, that
        # is m <= v//4, and the closed form of row v - m beyond, with
        # index v - 3m >= 0 into cum2 (map stops at the totals slice, which
        # is empty when v//4 == v//3)
        rows = [[1]]
        totals = [1]
        cum = [0, 1]
        cum2 = [0, 0]
        for v in range(1, n_max + 1):
            a, b = v // 4, v // 3
            row = list(accumulate(chain(map(getitem, rows[v - 1:v - a - 1:-1], range(1, a + 1)),
                                        map(add, map(sub, totals[v - a - 1:v - b - 1:-1],
                                                     cum[v - 2 * a - 2::-2]),
                                            cum2[v - 3 * a - 3::-3])),
                                  initial=0))
            rows.append(row)
            total = row[b] + cum[v - b] - cum2[v - 2 * b]
            totals.append(total)
            cum.append(cum[v] + total)
            cum2.append(cum[v - 1] + cum2[v - 1])
        return cls(n_max, rows, totals)

    def entry(self, v: int, m: int) -> int:
        if v > self.n_max:
            raise ValueError("weight beyond table range")
        if m >= v >= 0:
            return self._totals[v]
        if v < 0 or m < 0:
            return 0
        if m <= v // 3:
            return self._rows[v][m]
        return self._totals[v] - self._cum[max(v - m, 0)] + self._cum2[max(v - 2 * m, 0)]

    def row(self, v: int) -> list[int]:
        """Cumulative counts over the largest part for weight v: entry(v, m), m = 0..v."""
        if not 0 <= v <= self.n_max:
            raise ValueError("weight beyond table range")
        stored = self._rows[v]
        b = v // 3
        total = self._totals[v]
        upper = [total - c for c in reversed(self._cum[:v - b])]
        # cum2[v - 2m] for m = b+1, b+2, ... while the index is at least 2
        extra = self._cum2[max(v - 2 * b - 2, 0):1:-2]
        upper[:len(extra)] = map(add, upper, extra)
        return stored + upper

    def unrank(self, n: int, rank: int) -> tuple[int, ...]:
        """The partition of n at `rank` (0 <= rank < p(n)) in increasing lex order.

        The cumulative row of weight v holds, at index m, entry(v, m), the number
        of partitions of v with largest part at most m.  The largest part is the m
        with entry(v, m-1) <= rank < entry(v, m); the remainder
        rank - entry(v, m-1) is then a rank below the number of partitions of
        v - m with parts at most m.  Rank 0 is all ones and rank p(n) - 1 is (n,).
        A rank outside [0, p(n)), or n outside [0, n_max], raises ValueError.

        Only the row up to m = v//3 is stored.  With x = p(v) - rank, a part
        m > v/2 is found by one bisection of cum, since there
        entry(v, m) = p(v) - cum[v - m]: the k with cum[k] < x <= cum[k+1]
        gives m = v - k and the new rank cum[k+1] - x.  The rarer part in
        (v/3, v/2] is found by bisecting the closed form over that range.

        Once the part is at most 3 the rest is closed form.  The partitions of w
        into parts <= 3 number E3(w) = ((w + 3)^2 + 6) // 12, and with
        x = E3(v) - rank each 3 taken leaves x unchanged, so the threes stop at
        the least w = v (mod 3) with E3(w) >= x: isqrt(12x - 7) - 2 raised to
        v's residue.  Rank E3(w) - x among the partitions of w into parts <= 2
        is that many twos, the rest ones.
        """
        if not 0 <= n <= self.n_max:
            raise ValueError("weight beyond table range")
        if not 0 <= rank < self._totals[n]:
            raise ValueError(f"rank must lie in [0, p({n})), got {rank}")
        parts = []
        v = n
        bound = n
        rows, totals, cum, cum2 = self._rows, self._totals, self._cum, self._cum2
        while v:
            row = rows[v]
            if 3 * bound <= v:
                # a repeated part takes the top interval of the row
                m = bound if rank >= row[bound - 1] else bisect_right(row, rank, 1, bound)
            else:
                a = v // 3
                if rank < row[a]:
                    m = bisect_right(row, rank, 1, a)
                else:
                    x = totals[v] - rank
                    h = v >> 1
                    if x <= cum[v - h]:
                        # a part above v/2, so the rest k < v - k has no bound
                        # below its weight, and bound = k acts as bound = v - k
                        k = bisect_left(cum, x, 1, v - h) - 1
                        rank = cum[k + 1] - x
                        parts.append(v - k)
                        v = bound = k
                        continue
                    # the least m in (v/3, min(bound, v/2)] with entry(v, m) > rank
                    lo = a + 1
                    m = bound if bound < h else h
                    while lo < m:
                        mid = (lo + m) >> 1
                        if cum[v - mid] - cum2[v - 2 * mid] < x:
                            m = mid
                        else:
                            lo = mid + 1
                    rank = cum[v - m + 1] - cum2[v - 2 * m + 2] - x
                    parts.append(m)
                    v -= m
                    bound = m
                    continue
            if m <= 3:
                # rank < entry(v, m) <= E3(v), so x >= 1, 12x - 7 >= 5 and w >= 0
                x = _e3(v) - rank
                w = isqrt(12 * x - 7) - 2
                w += (v - w) % 3
                twos = _e3(w) - x
                return (*parts, *(3,) * ((v - w) // 3), *(2,) * twos, *(1,) * (w - 2 * twos))
            rank -= row[m - 1]
            parts.append(m)
            v -= m
            bound = m
        return tuple(parts)

    # Cache file: a fixed header (magic, version, layout code 1, n_max), then
    # n_max + 2 records, each a 4-byte little-endian length and the
    # marshal.dumps of one list: the totals p(0..n_max) first, then stored
    # rows 0..n_max.  save and load go one record at a time, so neither holds
    # a second copy of the table.  marshal builds only data and never runs
    # code, and load() checks every length against the file, the shape and
    # the type of every entry, and p(v) against the closed form at the last
    # stored entry of row v, before use.

    def save(self, path: str | os.PathLike) -> None:
        """Write the table to path atomically, through a per-process temp file."""
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(self._HEADER.pack(self._MAGIC, self._VERSION, self._MODE_CODE, 0,
                                           self.n_max))
                for record in chain([self._totals], self._rows):
                    data = marshal.dumps(record)
                    fh.write(self._LENGTH.pack(len(data)))
                    fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RestrictedCountTable":
        """Read a table written by save; raise ValueError on any other content."""
        with open(path, "rb") as fh:
            header = fh.read(cls._HEADER.size)
            if len(header) != cls._HEADER.size:
                raise ValueError("cache file shorter than its header")
            magic, version, mode_code, _, n_max = cls._HEADER.unpack(header)
            if magic != cls._MAGIC:
                raise ValueError("not a count-table cache file")
            if version != cls._VERSION:
                raise ValueError(f"unsupported cache version {version}")
            if mode_code != cls._MODE_CODE:
                raise ValueError(f"unknown cache mode code {mode_code}")
            size = os.fstat(fh.fileno()).st_size
            totals = cls._read_record(fh, size)
            if len(totals) != n_max + 1:
                raise ValueError("cache file totals are damaged")
            table = cls(n_max, [], totals)
            cum, cum2 = table._cum, table._cum2
            for v in range(n_max + 1):
                row = cls._read_record(fh, size)
                b = v // 3
                if len(row) != b + 1 or row[b] + cum[v - b] - cum2[v - 2 * b] != totals[v]:
                    raise ValueError(f"cache file row {v} or its total is damaged")
                table._rows.append(row)
        return table

    @classmethod
    def _read_record(cls, fh, size: int) -> list[int]:
        """The next record of an open cache file of `size` bytes: a nonempty list of ints."""
        raw = fh.read(cls._LENGTH.size)
        if len(raw) != cls._LENGTH.size:
            raise ValueError("cache file ends before its last record")
        (length,) = cls._LENGTH.unpack(raw)
        if length > size - fh.tell():
            raise ValueError("cache record runs past the end of the file")
        try:
            record = marshal.loads(fh.read(length))
        except (EOFError, ValueError, TypeError) as exc:
            raise ValueError(f"damaged cache record: {exc}") from None
        if type(record) is not list or set(map(type, record)) != {int}:
            raise ValueError("cache record is not a list of integers")
        return record


def load_or_build(n_max: int) -> RestrictedCountTable:
    """Return the table for n_max, built, or read from the cache when one is set.

    The cache is opt-in: only when YOUNG_CACHE_DIR names a directory is a
    table read from it or written to it; otherwise it is built every time.
    A cache file that is stale (an older format version), damaged, or for
    another table counts as a miss: the table is rebuilt and the file is
    overwritten.  n_max beyond TABLE_N_MAX raises ValueError before any
    file is read or written.
    """
    _require_table_fits(n_max)
    directory = os.environ.get("YOUNG_CACHE_DIR")
    if not directory:
        return RestrictedCountTable.build(n_max)
    path = os.path.join(directory, f"counts-by-largest-part-{n_max}.ypt")
    if os.path.exists(path):
        try:
            table = RestrictedCountTable.load(path)
        except ValueError:
            pass
        else:
            if table.n_max == n_max:
                return table
    table = RestrictedCountTable.build(n_max)
    try:
        os.makedirs(directory, exist_ok=True)
        table.save(path)
    except OSError:
        pass  # cache is an optimization, never a requirement
    return table
