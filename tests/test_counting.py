import math
import multiprocessing
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import young
from young.asymptotics import C
from young.counting import (
    RestrictedCountTable,
    _e3,
    _gaussian_coeff,
    coeff_from_product,
    count_partitions,
    count_restricted,
    count_restricted_plan,
    joint_tail,
    load_or_build,
)
from young.partitions import partitions


def test_count_partitions_values():
    assert count_partitions(0) == 1
    assert count_partitions(5) == 7
    assert count_partitions(100) == 190569292
    with pytest.raises(ValueError):
        count_partitions(-1)


def test_count_partitions_matches_enumeration():
    for n in range(26):
        assert count_partitions(n) == sum(1 for _ in partitions(n))


def _partition_counts_by_loop(n):
    # reference: the term-by-term pentagonal loop that count_partitions replaced
    cache = [1]
    for m in range(1, n + 1):
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
    return cache


def test_count_partitions_matches_pentagonal_loop():
    want = _partition_counts_by_loop(10_000)
    assert [count_partitions(n) for n in range(3001)] == want[:3001]
    assert count_partitions(10_000) == want[10_000]


def test_count_restricted_examples():
    assert count_restricted(4, 2, 2) == 1
    assert count_restricted(5, 3, 2) == 1
    assert count_restricted(20, 20, 20) == count_partitions(20)
    assert count_restricted(0, 0, 0) == 1
    assert count_restricted(3, 0, 3) == 0
    assert count_restricted(9, 2, 2) == 0  # exceeds box capacity


def test_count_restricted_matches_product_oracle():
    for n in range(17):
        for r in range(n + 1):
            for s in range(r, n + 1):
                want = coeff_from_product(n, r, s)
                assert count_restricted(n, r, s) == want
                assert count_restricted(n, s, r) == want


def test_product_oracle_case_30_5_7():
    assert coeff_from_product(30, 5, 7) == count_restricted(30, 5, 7)
    assert coeff_from_product(0, 4, 9) == 1


def test_product_oracle_truncation_guard():
    with pytest.raises(ValueError, match="truncation"):
        coeff_from_product(201, 5, 5)
    assert coeff_from_product(210, 3, 3, limit=210) == count_restricted(210, 3, 3)


def test_count_restricted_monotone():
    for r in range(13):
        assert count_restricted(12, r, 12) <= count_restricted(12, r + 1, 12)
        assert count_restricted(12, 12, r) <= count_restricted(12, 12, r + 1)


def test_count_restricted_matches_enumeration_filter():
    for n in range(1, 13):
        plist = list(partitions(n))
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                direct = sum(1 for p in plist if p[0] <= r and len(p) <= s)
                assert count_restricted(n, r, s) == direct


def test_large_query_uses_exact_polynomial_path():
    # every query takes the Gaussian-binomial path; it must agree with the oracle
    assert count_restricted(250, 30, 20) == coeff_from_product(250, 30, 20, limit=250)
    assert count_restricted(150, 40, 37) == _gaussian_coeff(150, 40, 37)


def _gaussian_coeffs_by_passes(n_max, r, s):
    # reference: the s multiply/divide passes that the q-binomial split replaced;
    # entry n is [q^n] C(r+s, s)_q, the count of partitions of n in an r x s box
    coeffs = [0] * (n_max + 1)
    coeffs[0] = 1
    for i in range(1, s + 1):
        d = r + i
        if d <= n_max:
            for v in range(n_max, d - 1, -1):
                coeffs[v] -= coeffs[v - d]
        for v in range(i, n_max + 1):
            coeffs[v] += coeffs[v - i]
    return coeffs


def test_count_restricted_matches_pass_loop_on_small_boxes():
    for r in range(31):
        for s in range(r + 1):
            want = _gaussian_coeffs_by_passes(80, r, s)
            for n in range(81):
                assert count_restricted(n, r, s) == want[n], (n, r, s)
                assert count_restricted(n, s, r) == want[n], (n, s, r)


@pytest.mark.parametrize("n, r, s", [(100, 10, 10), (98, 10, 10), (60, 12, 5), (55, 11, 5),
                                     (900, 30, 30), (880, 40, 22), (12, 4, 3)])
def test_count_restricted_with_more_terms_than_half_the_passes(n, r, s):
    # past s/2 terms the factor P_j appears after its partner P_{s-j}
    passes, terms = count_restricted_plan(n, r, s)
    assert passes == min(r, s) and terms - 1 > passes / 2
    assert count_restricted(n, r, s) == _gaussian_coeffs_by_passes(n, r, s)[n]
    assert count_restricted(n, s, r) == count_restricted(n, r, s)


def test_count_restricted_plan():
    assert count_restricted_plan(10000, 300, 400) == (300, 25)
    assert count_restricted_plan(150, 30, 20) == (20, 5)
    assert count_restricted_plan(0, 5, 5) == (0, 0)
    assert count_restricted_plan(9, 2, 2) == (0, 0)
    assert count_restricted_plan(5, 9, 9) == (5, 1)
    with pytest.raises(ValueError):
        count_restricted_plan(-1, 2, 2)


def test_count_restricted_long_strides_give_p_n():
    # at t*t > 9n the divide passes run block by block
    assert count_restricted(3000, 3000, 3000) == count_partitions(3000)


@pytest.mark.parametrize("n", [0, 1, 7, 500, 1234, 1499, 1500])
def test_count_restricted_box_complement(n):
    r, s = 60, 50
    assert count_restricted(n, r, s) == count_restricted(r * s - n, r, s)


@pytest.mark.parametrize("n, r, s", [(2500, 200, 150), (10000, 400, 300)])
def test_count_restricted_matches_pass_loop_at_scale(n, r, s):
    assert count_restricted(n, s, r) == _gaussian_coeffs_by_passes(n, r, s)[n]


def test_joint_tail_small_exact():
    jt = joint_tail(100, 0.5, 0.5)
    scale = math.sqrt(100) / C
    assert jt.r == math.ceil(scale * math.log(scale / 0.5))
    assert jt.s == jt.r
    expected = Fraction(coeff_from_product(100, jt.r, jt.s), count_partitions(100))
    assert jt.fraction == expected
    assert 0.0 < jt.value < 1.0


def test_joint_tail_degenerate_bounds():
    scale = math.sqrt(100) / C
    with pytest.raises(ValueError):
        joint_tail(100, scale, 1.0)  # log term hits zero
    with pytest.raises(ValueError):
        joint_tail(100, 0.5, -1.0)
    for h in (math.nan, math.inf):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            joint_tail(100, h, 1.0)


def _table_rows_by_loop(n_max):
    # reference: the row-by-row loop that RestrictedCountTable.build replaced,
    # row[m] = row[m-1] + entry(v - m, min(v - m, m))
    rows = [[1]]
    for v in range(1, n_max + 1):
        row = [0] * (v + 1)
        for m in range(1, v + 1):
            rest = v - m
            row[m] = row[m - 1] + rows[rest][rest if rest < m else m]
        rows.append(row)
    return rows


def test_table_build_matches_row_loop():
    want = _table_rows_by_loop(300)
    for n in range(301):
        table = RestrictedCountTable.build(n)
        assert [table.row(v) for v in range(n + 1)] == want[:n + 1], n
    table = RestrictedCountTable.build(910)
    assert [table.row(v) for v in range(911)] == _table_rows_by_loop(910)


def test_table_stores_half_rows():
    # entry(v, m) for m > v/3 comes from p(v) and two prefix sums of p, so a
    # stored row stops at v // 3 and the table of 910 holds about a third of
    # the 20 MB that the full rows took
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = RestrictedCountTable.build(910)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [len(table._rows[v]) for v in range(911)] == [v // 3 + 1 for v in range(911)]
    assert held < 8e6, held
    assert table._totals == [count_partitions(v) for v in range(911)]


def test_table_cache_file_size(tmp_path):
    path = tmp_path / "t.ypt"
    RestrictedCountTable.build(910).save(path)
    assert path.stat().st_size < 2.5e6


def test_table_save_and_load_hold_one_copy(tmp_path):
    # save and load go one record at a time, so at their peak they hold the
    # table and one row, not a second, serialized copy of the whole table
    path = tmp_path / "t.ypt"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = RestrictedCountTable.build(910)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        table.save(path)
        save_peak = tracemalloc.get_traced_memory()[1] - before
        del table
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded = RestrictedCountTable.load(path)
        load_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert save_peak - held < 1e6, (save_peak, held)
    assert load_peak - held < 1e6, (load_peak, held)
    assert loaded.row(910) == RestrictedCountTable.build(910).row(910)


def test_largest_part_table_entries():
    # v <= 60 puts several m in (v/3, v/2], where the closed form has three terms
    table = RestrictedCountTable.build(60)
    for v in range(61):
        want = [count_restricted(v, m, v) for m in range(v + 1)]
        assert [table.entry(v, m) for m in range(v + 1)] == want, v
        row = table.row(v)
        assert row == want, v
        assert all(row[i] <= row[i + 1] for i in range(len(row) - 1))
    assert table.entry(12, 40) == count_partitions(12)
    assert table.entry(0, 0) == 1 and table.entry(-1, 5) == 0
    with pytest.raises(ValueError):
        table.entry(61, 3)


def test_parts_at_most_three_closed_form():
    table = RestrictedCountTable.build(910)
    assert [_e3(w) for w in range(911)] == [table.entry(w, 3) for w in range(911)]


def test_table_cache_roundtrip(tmp_path):
    table = RestrictedCountTable.build(15)
    path = tmp_path / "t.ypt"
    table.save(path)
    loaded = RestrictedCountTable.load(path)
    assert loaded.n_max == 15
    assert loaded.entry(15, 4) == table.entry(15, 4)
    assert loaded.row(10) == table.row(10)


def test_table_cache_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ypt"
    path.write_bytes(b"not a table at all")
    with pytest.raises(ValueError):
        RestrictedCountTable.load(path)


def test_load_or_build_uses_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    first = load_or_build(12)
    assert (tmp_path / "counts-by-largest-part-12.ypt").exists()
    second = load_or_build(12)
    assert second.row(12) == first.row(12)


def test_table_cache_roundtrip_is_exact(tmp_path):
    n_max = 910
    table = RestrictedCountTable.build(n_max)
    path = tmp_path / "t.ypt"
    table.save(path)
    loaded = RestrictedCountTable.load(path)
    assert loaded.n_max == n_max
    assert [loaded.row(v) for v in range(n_max + 1)] == [table.row(v) for v in range(n_max + 1)]


def test_table_load_rejects_damaged_file(tmp_path, damaged_cache):
    path = tmp_path / "bad.ypt"
    path.write_bytes(damaged_cache(25))
    with pytest.raises(ValueError):
        RestrictedCountTable.load(path)


def test_load_or_build_rebuilds_damaged_file(tmp_path, monkeypatch, damaged_cache):
    path = tmp_path / "counts-by-largest-part-25.ypt"
    path.write_bytes(damaged_cache(25))
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    table = load_or_build(25)
    expected = [RestrictedCountTable.build(25).row(v) for v in range(26)]
    assert [table.row(v) for v in range(26)] == expected
    version = RestrictedCountTable._HEADER.unpack_from(path.read_bytes())[1]
    assert version == RestrictedCountTable._VERSION == 4
    assert [RestrictedCountTable.load(path).row(v) for v in range(26)] == expected


def test_failed_save_leaves_no_temp_file(tmp_path):
    target = tmp_path / "t.ypt"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        RestrictedCountTable.build(5).save(target)
    assert [p.name for p in tmp_path.iterdir()] == ["t.ypt"]


def _save_repeatedly(path: str, n_max: int, times: int) -> None:
    table = RestrictedCountTable.build(n_max)
    for _ in range(times):
        table.save(path)


def test_concurrent_saves_leave_one_whole_file(tmp_path):
    path = str(tmp_path / "counts.ypt")
    ctx = multiprocessing.get_context("spawn")
    workers = [ctx.Process(target=_save_repeatedly, args=(path, 300, 20)) for _ in range(3)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert not any(worker.is_alive() for worker in workers)
    assert [worker.exitcode for worker in workers] == [0, 0, 0]
    assert [p.name for p in tmp_path.iterdir()] == ["counts.ypt"]
    assert RestrictedCountTable.load(path).row(300) == RestrictedCountTable.build(300).row(300)


def test_only_counting_reads_the_table_layout():
    # the stored rows, totals and prefix sums are private to counting.py;
    # every other module goes through entry, row and unrank
    src = Path(young.__file__).parent
    readers = sorted(path.name for path in src.glob("*.py") if path.name != "counting.py"
                     and re.search(r"\._(rows|totals|cum2?)\b", path.read_text()))
    assert readers == []


def test_only_counting_and_sampling_name_the_table():
    # exact draws get their count table inside `make_sampler`, so no other
    # module builds, loads or passes one
    src = Path(young.__file__).parent
    namers = sorted(path.name for path in src.glob("*.py")
                    if re.search(r"\b(RestrictedCountTable|load_or_build)\b", path.read_text()))
    assert namers == ["counting.py", "sampling.py"]
