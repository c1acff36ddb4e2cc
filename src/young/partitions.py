"""Partitions of an integer and their structural operations.

A partition of n is a weakly decreasing sequence of positive integers
summing to n, visualized as a Young diagram whose column heights are the
parts.  This module holds the value type, conjugation, the Durfee square,
the dominance order, three independent graphicality tests, the Gale-Ryser
bipartite criterion, and exhaustive generation in decreasing lexicographic
order with a constant-amortized-time successor rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


class Partition:
    """Immutable weakly decreasing sequence of positive integers."""

    __slots__ = ("parts", "n")

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        prev = None
        total = 0
        for p in parts:
            if p < 1:
                raise ValueError("parts must be positive integers")
            if prev is not None and p > prev:
                raise ValueError("parts must be weakly decreasing")
            prev = p
            total += p
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n", total)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def conjugate(self) -> "Partition":
        return conjugate(self)

    def durfee(self) -> int:
        return durfee(self)

    def to_json(self) -> list[int]:
        """Serialize as a plain list of parts, largest first."""
        return list(self.parts)


@dataclass(frozen=True)
class DegreePair:
    """Candidate degree sequences for the two sides of a bipartite graph."""

    alpha: Partition
    beta: Partition

    def is_bigraphical(self) -> bool:
        return gale_ryser_bipartite(self.alpha, self.beta)


def _parts_of(p) -> tuple[int, ...]:
    """Accept a Partition or any weakly decreasing iterable of parts."""
    if isinstance(p, Partition):
        return p.parts
    return Partition(p).parts


def conjugate(p) -> Partition:
    """Transpose the Young diagram: part i of the result counts parts >= i."""
    parts = _parts_of(p)
    if not parts:
        return Partition()
    out = []
    m = len(parts)
    for i in range(1, parts[0] + 1):
        while m > 0 and parts[m - 1] < i:
            m -= 1
        out.append(m)
    return Partition(out)


def durfee(p) -> int:
    """Side of the largest square fitting inside the diagram."""
    parts = _parts_of(p)
    d = 0
    for i, part in enumerate(parts, start=1):
        if part >= i:
            d = i
        else:
            break
    return d


def dominates(mu, lam) -> bool:
    """True when every prefix sum of mu is at least the prefix sum of lam.

    Both arguments must have equal weight; missing parts count as zero.
    """
    a = _parts_of(mu)
    b = _parts_of(lam)
    if sum(a) != sum(b):
        raise ValueError("incomparable weights")
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sb > sa:
            return False
    return True


def nash_williams_graphical(p) -> bool:
    """Graphicality via Durfee-limited comparison of a partition and its dual.

    Requires even weight and, for every i up to the Durfee side, that the
    first i dual parts total at least i more than the first i parts.
    Odd-weight input returns False rather than raising.
    """
    parts = _parts_of(p)
    return _nash_williams(parts)


def _nash_williams(parts: tuple[int, ...]) -> bool:
    if sum(parts) & 1:
        return False
    # one pass over i up to the Durfee side; j = number of parts >= i, the
    # i-th dual part, found by moving a pointer in from the end
    j = len(parts)
    acc = dual = 0
    for i, part in enumerate(parts, start=1):
        if part < i:
            break
        while parts[j - 1] < i:
            j -= 1
        acc += part
        dual += j
        if dual < acc + i:
            return False
    return True


def erdos_gallai_graphical(p) -> bool:
    """Graphicality via the classical prefix-sum inequalities.

    Checks, for each i, that the i largest degrees fit against i(i-1) plus
    the capped contributions of the remaining degrees.  Odd total returns
    False.
    """
    parts = _parts_of(p)
    total = sum(parts)
    if total % 2:
        return False
    m = len(parts)
    prefix = 0
    for i in range(1, m + 1):
        prefix += parts[i - 1]
        capped = 0
        for j in range(i, m):
            capped += parts[j] if parts[j] < i else i
        if prefix > i * (i - 1) + capped:
            return False
    return True


def havel_hakimi_realizable(p) -> bool:
    """Constructive graphicality test by repeated largest-degree reduction."""
    parts = _parts_of(p)
    if sum(parts) % 2:
        return False
    seq = sorted(parts, reverse=True)
    while seq:
        d = seq.pop(0)
        if d == 0:
            return True
        if d > len(seq):
            return False
        for i in range(d):
            seq[i] -= 1
            if seq[i] < 0:
                return False
        seq.sort(reverse=True)
    return True


def gale_ryser_bipartite(alpha, beta) -> bool:
    """Existence of a bipartite graph with the two given degree sequences.

    Holds when the sequences have equal sums and the conjugate of beta
    dominates alpha.
    """
    a = _parts_of(alpha)
    b = _parts_of(beta)
    if sum(a) != sum(b):
        return False
    if not a:
        return True
    return dominates(conjugate(b), a)


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield partitions of n in decreasing lexicographic order.

    Optionally restrict all parts to at most max_part.  Uses an in-place
    successor rule whose amortized cost per partition is constant: find the
    rightmost part above 1, decrement it, and refill the tail greedily.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    bound = n if max_part is None else min(max_part, n)
    if bound <= 0:
        return
    # greedy first partition: as many copies of bound as fit, then remainder
    state = [bound] * (n // bound)
    if n % bound:
        state.append(n % bound)
    while True:
        yield tuple(state)
        # rightmost entry > 1
        i = len(state) - 1
        while i >= 0 and state[i] == 1:
            i -= 1
        if i < 0:
            return
        state[i] -= 1
        cap = state[i]
        rest = len(state) - 1 - i  # number of trailing 1s plus the decrement
        del state[i + 1:]
        rest += 1
        while rest > 0:
            take = cap if cap < rest else rest
            state.append(take)
            rest -= take


def enumerate_partitions(n: int, visitor: Callable[[tuple[int, ...]], None] | None = None,
                         max_part: int | None = None) -> int:
    """Visit every partition of n once, in decreasing lex order; return the count."""
    count = 0
    if visitor is None:
        for _ in partitions(n, max_part):
            count += 1
    else:
        for part in partitions(n, max_part):
            visitor(part)
            count += 1
    return count


def partitions_with_largest(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n whose first part is exactly `largest`.

    Splitting an exhaustive sweep by largest part gives disjoint ranges that
    cover all of the partitions of n, so sweeps can run in parallel.
    """
    if largest > n or largest < 1:
        if n == 0 and largest == 0:
            yield ()
        return
    for rest in partitions(n - largest, max_part=largest):
        yield (largest,) + rest
