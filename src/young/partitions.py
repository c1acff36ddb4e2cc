"""Partitions of an integer and their structural operations.

A partition of n is a weakly decreasing tuple of positive integers summing
to n, visualized as a Young diagram whose column heights are the parts.
This module holds conjugation, the Durfee square, the dominance order, three
independent graphicality tests, the Gale-Ryser bipartite criterion, and
exhaustive generation in decreasing lexicographic order with a
constant-amortized-time successor rule (`partitions(n)`; count them with
`sum(1 for _ in partitions(n))`).

The public functions accept any weakly decreasing iterable of positive ints
and validate it with `_parts_of`; the underscore kernels (`_conjugate`,
`_dominates`, `_nash_williams`) take the tuples of the samplers and the
enumeration unchecked.
"""

from __future__ import annotations

from typing import Iterator


def _parts_of(p) -> tuple[int, ...]:
    """Validate outside input: any iterable of positive ints in weakly
    decreasing order, returned as a tuple."""
    parts = tuple(int(x) for x in p)
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("parts must be weakly decreasing")
    if parts and parts[-1] < 1:
        raise ValueError("parts must be positive integers")
    return parts


def conjugate(p) -> tuple[int, ...]:
    """Transpose the Young diagram: part i of the result counts parts >= i."""
    return _conjugate(_parts_of(p))


def _conjugate(parts: tuple[int, ...], k: int | None = None) -> tuple[int, ...]:
    """The first k dual parts of a weakly decreasing tuple, or all of them when
    k is None.  Dual part j counts the parts >= j, so past parts[0] it is 0."""
    top = parts[0] if parts else 0
    stop = top if k is None or k > top else k
    # m = number of parts >= j, moved in from the end
    m = len(parts)
    out = []
    for j in range(1, stop + 1):
        while parts[m - 1] < j:
            m -= 1
        out.append(m)
    if k is not None:
        out.extend([0] * (k - stop))
    return tuple(out)


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
    return _dominates(a, b)


def _dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Dominance of two weakly decreasing tuples of equal weight.

    The loop stops at the end of b: there b's prefix sum is the whole
    weight, so a's passes only if it is the whole weight too, and every
    later prefix compares equal.
    """
    sa = sb = 0
    la = len(a)
    for i in range(len(b)):
        sa += a[i] if i < la else 0
        sb += b[i]
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
    return _dominates(_conjugate(b), a)


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield partitions of n in decreasing lexicographic order.

    Uses an in-place successor rule whose amortized cost per partition is
    constant: find the rightmost part above 1, decrement it, and refill the
    tail greedily.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    state = [n]
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
