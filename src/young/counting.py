"""Exact arbitrary-precision counting of partitions and restricted partitions.

Counts are plain Python integers; nothing in this module rounds.  Three
families are covered: p(n) via the pentagonal-number recurrence, counts of
partitions with bounded largest part (the table that also drives the exact
sampler), and the doubly-restricted counts with bounded largest part and
bounded number of parts, with a Gaussian-binomial product as an independent
oracle.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .asymptotics import slant_bounds

if TYPE_CHECKING:
    import numpy as np

_pcache = [1]


def count_partitions(n: int) -> int:
    """Exact number of partitions of n; p(0) = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    cache = _pcache
    while len(cache) <= n:
        m = len(cache)
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * cache[m - g]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * cache[m - g2]
            k += 1
        cache.append(total)
    return cache[n]


def _height_width_cube(n_max: int) -> np.ndarray:
    """Dense table T[v, r, s] = partitions of v with parts <= r, count <= s."""
    import numpy as np

    if count_partitions(n_max) >= 2**62:
        raise ValueError("n_max too large for int64 table")
    t = np.zeros((n_max + 1, n_max + 1, n_max + 1), dtype=np.int64)
    t[0, :, :] = 1
    for r in range(1, n_max + 1):
        t[:, r, :] = t[:, r - 1, :]
        for s in range(1, n_max + 1):
            t[r:, r, s] += t[:-r, r, s - 1]
    return t


def _gaussian_coeff(n: int, r: int, s: int) -> int:
    """Coefficient of q^n in the Gaussian binomial C(r+s, s)_q.

    Built by s multiply/divide passes over a length-(n+1) integer array;
    every intermediate is itself a Gaussian binomial, so divisions are exact.
    """
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for i in range(1, s + 1):
        d = r + i
        if d <= n:
            for v in range(n, d - 1, -1):
                coeffs[v] -= coeffs[v - d]
        for v in range(i, n + 1):
            coeffs[v] += coeffs[v - i]
    return coeffs[n]


def count_restricted(n: int, r: int, s: int) -> int:
    """Exact number of partitions of n with largest part <= r and at most s parts.

    This is the coefficient of q^n in the Gaussian binomial C(r+s, s)_q, built
    with min(r, s, n) passes.
    """
    if n < 0 or r < 0 or s < 0:
        raise ValueError("arguments must be nonnegative")
    if n == 0:
        return 1
    r = min(r, n)
    s = min(s, n)
    if r == 0 or s == 0 or n > r * s:
        return 0
    if r < s:
        r, s = s, r
    return _gaussian_coeff(n, r, s)


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


@dataclass(frozen=True)
class JointTail:
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
    if h <= 0 or w <= 0:
        raise ValueError("h and w must be positive")
    r, s = slant_bounds(n, h, w, rounding="ceil")
    if r <= 0 or s <= 0:
        raise ValueError("degenerate bounds: r and s must be >= 1")
    frac = Fraction(count_restricted(n, r, s), count_partitions(n))
    return JointTail(n=n, h=h, w=w, r=r, s=s, fraction=frac)


class RestrictedCountTable:
    """Immutable table of restricted partition counts, buildable and cacheable.

    Two modes:
      * "by-largest-part": entry(v, m) = partitions of v with all parts <= m,
        stored as ragged cumulative rows (exact big integers).  Row v is the
        cumulative distribution over the largest part, which is what the
        exact sampler bisects.
      * "by-height-and-width": entry(n, r, s) = partitions with largest part
        <= r and at most s parts, stored as a dense int64 cube.

    save/load keep one table per file, as a header and one bulk payload (see
    the comment above save); load raises ValueError on a file of another
    version or a damaged one.
    """

    MODE_LARGEST = "by-largest-part"
    MODE_BOX = "by-height-and-width"

    _MAGIC = b"YPTB"
    _VERSION = 2
    _HEADER = struct.Struct("<4sHBBQ")

    def __init__(self, mode: str, n_max: int, data):
        self.mode = mode
        self.n_max = n_max
        self._data = data

    @classmethod
    def build(cls, n_max: int, mode: str = MODE_LARGEST) -> "RestrictedCountTable":
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if mode == cls.MODE_LARGEST:
            rows = [[1]]
            for v in range(1, n_max + 1):
                prev = rows
                row = [0] * (v + 1)
                for m in range(1, v + 1):
                    rest = v - m
                    row[m] = row[m - 1] + prev[rest][rest if rest < m else m]
                rows.append(row)
            return cls(mode, n_max, rows)
        if mode == cls.MODE_BOX:
            return cls(mode, n_max, _height_width_cube(n_max))
        raise ValueError(f"unknown mode: {mode}")

    def entry(self, *args) -> int:
        if self.mode == self.MODE_LARGEST:
            v, m = args
            if v > self.n_max:
                raise ValueError("weight beyond table range")
            if v < 0:
                return 0
            row = self._data[v]
            return row[m if m < v else v] if m >= 0 else 0
        n, r, s = args
        if n > self.n_max:
            raise ValueError("weight beyond table range")
        return int(self._data[n, min(r, n), min(s, n)])

    def row(self, v: int) -> list[int]:
        """Cumulative counts over the largest part for weight v (read-only)."""
        if self.mode != self.MODE_LARGEST:
            raise ValueError("rows exist only in by-largest-part mode")
        return self._data[v]

    # Cache file: a fixed header (magic, version, mode, n_max), then one bulk
    # payload.  By-largest-part rows are marshal.dumps(rows); marshal builds
    # only data and never runs code, and load() checks the shape and the type
    # of every entry before use.  The box cube is raw little-endian int64.

    def save(self, path: str | os.PathLike) -> None:
        """Write the table to path atomically, through a per-process temp file."""
        if self.mode == self.MODE_LARGEST:
            mode_code, payload = 1, marshal.dumps(self._data)
        else:
            mode_code, payload = 2, self._data.astype("<i8", copy=False).tobytes()
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(self._HEADER.pack(self._MAGIC, self._VERSION, mode_code, 0, self.n_max))
                fh.write(payload)
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
            payload = fh.read()
        if mode_code == 1:
            try:
                rows = marshal.loads(payload)
            except (EOFError, ValueError, TypeError) as exc:
                raise ValueError(f"damaged cache payload: {exc}") from None
            if type(rows) is not list or len(rows) != n_max + 1:
                raise ValueError("cache file has the wrong number of rows")
            for v, row in enumerate(rows):
                if type(row) is not list or len(row) != v + 1 or set(map(type, row)) != {int}:
                    raise ValueError(f"cache file row {v} is damaged")
            return cls(cls.MODE_LARGEST, n_max, rows)
        if mode_code == 2:
            import numpy as np

            n1 = n_max + 1
            if len(payload) != n1 ** 3 * 8:
                raise ValueError("cache file truncated or padded")
            cube = np.frombuffer(payload, dtype="<i8").reshape((n1, n1, n1))
            return cls(cls.MODE_BOX, n_max, cube)
        raise ValueError(f"unknown cache mode code {mode_code}")


def default_cache_dir() -> str:
    env = os.environ.get("YOUNG_CACHE_DIR")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(base, "young")


def load_or_build(n_max: int, mode: str = RestrictedCountTable.MODE_LARGEST,
                  cache_dir: str | None = None, write: bool = True) -> RestrictedCountTable:
    """Return a table from the on-disk cache, building and caching on miss.

    A cache file that is stale (an older format version), damaged, or for
    another table counts as a miss: the table is rebuilt and, with write,
    the file is overwritten.
    """
    directory = cache_dir if cache_dir is not None else default_cache_dir()
    path = os.path.join(directory, f"counts-{mode}-{n_max}.ypt")
    if os.path.exists(path):
        try:
            table = RestrictedCountTable.load(path)
        except ValueError:
            pass
        else:
            if table.mode == mode and table.n_max == n_max:
                return table
    table = RestrictedCountTable.build(n_max, mode)
    if write:
        try:
            os.makedirs(directory, exist_ok=True)
            table.save(path)
        except OSError:
            pass  # cache is an optimization, never a requirement
    return table
