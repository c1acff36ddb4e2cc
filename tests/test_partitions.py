import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from young.counting import RestrictedCountTable, count_partitions
from young.partitions import (
    DegreePair,
    Partition,
    _nash_williams,
    conjugate,
    dominates,
    durfee,
    enumerate_partitions,
    erdos_gallai_graphical,
    gale_ryser_bipartite,
    havel_hakimi_realizable,
    nash_williams_graphical,
    partitions,
    partitions_with_largest,
)
from young.sampling import _unrank

PROPERTY_N_MAX = 910


def test_partition_validation():
    assert Partition((3, 2, 2)).n == 7
    assert Partition().parts == ()
    assert Partition().n == 0
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((1, -1))


def test_partition_immutable_and_hashable():
    p = Partition((4, 1))
    with pytest.raises(AttributeError):
        p.parts = (5,)
    assert p == Partition((4, 1))
    assert hash(p) == hash(Partition((4, 1)))
    assert list(p) == [4, 1]
    assert p[0] == 4
    assert len(p) == 2
    assert p.to_json() == [4, 1]


@pytest.mark.parametrize("given,expected", [
    ((3, 1), (2, 1, 1)),
    ((4,), (1, 1, 1, 1)),
    ((5, 3, 3, 1), (4, 3, 3, 1, 1)),
    ((), ()),
])
def test_conjugate_examples(given, expected):
    assert conjugate(given).parts == expected


def test_conjugate_involution_exhaustive():
    for n in range(31):
        for parts in partitions(n):
            dual = conjugate(parts)
            assert dual.n == n
            assert conjugate(dual).parts == parts


@pytest.mark.parametrize("given,expected", [
    ((3, 3, 1), 2),
    ((1, 1, 1), 1),
    ((6, 5, 5, 4, 2, 1), 4),
    ((), 0),
])
def test_durfee_examples(given, expected):
    assert durfee(given) == expected


def test_dominates_examples():
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert dominates((2, 1, 1), (2, 1, 1))
    with pytest.raises(ValueError, match="incomparable weights"):
        dominates((3, 1), (2, 2, 1))


def _dominance_matrix(n):
    plist = list(partitions(n))
    depth = max(len(p) for p in plist)
    prefix = np.zeros((len(plist), depth), dtype=np.int64)
    for i, p in enumerate(plist):
        prefix[i, :len(p)] = p
    prefix = np.cumsum(prefix, axis=1)
    return plist, np.all(prefix[:, None, :] >= prefix[None, :, :], axis=2)


@pytest.mark.parametrize("n", [6, 9, 12])
def test_dominance_is_a_partial_order(n):
    plist, rel = _dominance_matrix(n)
    count = len(plist)
    assert rel.diagonal().all()  # reflexive
    antisym = rel & rel.T
    assert np.array_equal(antisym, np.eye(count, dtype=bool))  # antisymmetric
    reach = (rel.astype(np.int64) @ rel.astype(np.int64)) > 0
    assert not (reach & ~rel).any()  # transitive


@pytest.mark.parametrize("n", [8, 12])
def test_conjugation_reverses_dominance(n):
    plist = list(partitions(n))
    duals = [conjugate(p).parts for p in plist]
    for i, a in enumerate(plist):
        for j, b in enumerate(plist):
            assert dominates(a, b) == dominates(duals[j], duals[i])


@pytest.mark.parametrize("parts,expected", [
    ((1, 1), True),
    ((2,), False),
    ((3, 3, 3, 3), True),
    ((3, 2, 1), False),  # odd weight
])
def test_nash_williams_examples(parts, expected):
    assert nash_williams_graphical(parts) is expected


@pytest.mark.parametrize("parts,expected", [
    ((1, 1), True),
    ((3, 1, 1, 1), True),
    ((4, 1, 1), False),
])
def test_erdos_gallai_examples(parts, expected):
    assert erdos_gallai_graphical(parts) is expected


@pytest.mark.parametrize("parts,expected", [
    ((2, 2, 2), True),
    ((2,), False),
    ((3, 3, 2, 2, 2), True),
])
def test_havel_hakimi_examples(parts, expected):
    assert havel_hakimi_realizable(parts) is expected


def test_graphicality_trio_agrees_exhaustively():
    for n in range(0, 27, 2):
        for parts in partitions(n):
            nw = nash_williams_graphical(parts)
            assert erdos_gallai_graphical(parts) == nw
            assert havel_hakimi_realizable(parts) == nw


@pytest.fixture(scope="module")
def table910():
    return RestrictedCountTable.build(PROPERTY_N_MAX)


def _ranked(data, table, count):
    """`count` partitions of one n in [0, PROPERTY_N_MAX], each unranked from a
    rank below p(n)."""
    n = data.draw(st.integers(0, PROPERTY_N_MAX), label="n")
    ranks = st.integers(0, count_partitions(n) - 1)
    return [_unrank(n, table, data.draw(ranks, label="rank")) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_graphicality_trio_agrees_on_ranked_partitions(table910, data):
    (parts,) = _ranked(data, table910, 1)
    nw = _nash_williams(parts)
    assert erdos_gallai_graphical(parts) == nw
    assert havel_hakimi_realizable(parts) == nw


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_conjugation_reverses_dominance_on_ranked_partitions(table910, data):
    a, b = _ranked(data, table910, 2)
    assert dominates(a, b) == dominates(conjugate(b), conjugate(a))


def test_empty_partition_is_graphical():
    assert nash_williams_graphical(())
    assert erdos_gallai_graphical(())
    assert havel_hakimi_realizable(())


def test_gale_ryser_examples():
    assert gale_ryser_bipartite((1, 1), (2,))
    assert not gale_ryser_bipartite((2, 2), (1, 1))  # unequal sums
    assert gale_ryser_bipartite((3, 3, 3), (3, 3, 3))
    assert DegreePair(Partition((1, 1)), Partition((2,))).is_bigraphical()


def test_gale_ryser_against_dominance_definition():
    # alpha realizable with beta iff conjugate(beta) dominates alpha
    for alpha in partitions(6):
        for beta in partitions(6):
            expected = dominates(conjugate(beta), alpha)
            assert gale_ryser_bipartite(alpha, beta) == expected


def test_enumeration_order_and_counts():
    assert list(partitions(5)) == [
        (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    assert enumerate_partitions(0) == 1
    assert list(partitions(0)) == [()]
    assert enumerate_partitions(10) == 42


def test_enumeration_is_decreasing_lex():
    seen = list(partitions(9))
    assert seen == sorted(seen, reverse=True)
    assert len(set(seen)) == len(seen)


def test_enumeration_count_matches_exact_count_to_60():
    for n in range(61):
        assert enumerate_partitions(n) == count_partitions(n)


def test_visitor_protocol():
    collected = []
    count = enumerate_partitions(6, collected.append)
    assert count == len(collected) == 11


def test_bounded_enumeration():
    bounded = list(partitions(6, max_part=3))
    full = [p for p in partitions(6) if p[0] <= 3]
    assert bounded == full


def test_largest_part_split_covers_everything():
    n = 12
    merged = []
    for m in range(n, 0, -1):
        merged.extend(partitions_with_largest(n, m))
    assert merged == list(partitions(n))
