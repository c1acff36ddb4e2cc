"""Shared test set-up: an environment with no count-table cache, and cache
files that `RestrictedCountTable.load` must reject."""

import marshal
import struct

import pytest

from young.counting import RestrictedCountTable


@pytest.fixture(autouse=True)
def no_cache_dir(monkeypatch, tmp_path_factory):
    """Run each test without YOUNG_CACHE_DIR, with HOME and XDG_CACHE_HOME in a
    fresh directory, so that no test reads or writes a real cache."""
    home = tmp_path_factory.mktemp("home")
    monkeypatch.delenv("YOUNG_CACHE_DIR", raising=False)
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home / ".cache"))
    return home


@pytest.fixture
def no_table_build(monkeypatch):
    """Make every count-table build fail the test that asked for none."""
    def build(cls, n_max):
        raise AssertionError(f"table built for n_max={n_max}")

    monkeypatch.setattr(RestrictedCountTable, "build", classmethod(build))


def _cache_file(n_max: int, payload: bytes, version: int = RestrictedCountTable._VERSION,
                mode_code: int = 1) -> bytes:
    header = RestrictedCountTable._HEADER.pack(RestrictedCountTable._MAGIC, version, mode_code,
                                               0, n_max)
    return header + payload


def _rows(n_max: int) -> list[list[int]]:
    table = RestrictedCountTable.build(n_max)
    return [table.row(v) for v in range(n_max + 1)]


def _version_1(n_max: int) -> bytes:
    """A by-largest-part file in the version-1 format: one length-prefixed
    little-endian record per entry."""
    records = []
    for row in _rows(n_max):
        for value in row:
            raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "little")
            records.append(struct.pack("<I", len(raw)) + raw)
    return _cache_file(n_max, b"".join(records), version=1)


def _box_cube(n_max: int) -> bytes:
    """A file of the removed by-height-and-width layout: mode code 2 and an
    (n_max + 1)^3 little-endian int64 cube."""
    return _cache_file(n_max, bytes(8 * (n_max + 1) ** 3), mode_code=2)


def _version_2(n_max: int) -> bytes:
    """A by-largest-part file in the version-2 format: marshal.dumps of the full rows."""
    return _cache_file(n_max, marshal.dumps(_rows(n_max)), version=2)


def _version_3(n_max: int) -> bytes:
    """A by-largest-part file in the version-3 format: one marshal.dumps of the
    half rows (m <= v//2) and the totals."""
    rows = _rows(n_max)
    half = [row[:v // 2 + 1] for v, row in enumerate(rows)]
    totals = [row[-1] for row in rows]
    return _cache_file(n_max, marshal.dumps((half, totals)), version=3)


def _payload(n_max: int) -> tuple[list[list[int]], list[int]]:
    table = RestrictedCountTable.build(n_max)
    return table._rows, table._totals


def _records(n_max: int, rows: list, totals: list) -> bytes:
    """A version-4 file: one length-prefixed marshal record for the totals,
    then one per stored row."""
    records = []
    for record in [totals, *rows]:
        data = marshal.dumps(record)
        records.append(struct.pack("<I", len(data)) + data)
    return _cache_file(n_max, b"".join(records))


def _truncated(n_max: int) -> bytes:
    whole = _records(n_max, *_payload(n_max))
    return whole[:len(whole) // 2]


def _record_past_end(n_max: int) -> bytes:
    """Every record whole, but the last row's length prefix claims one byte
    more than the file holds."""
    rows, totals = _payload(n_max)
    whole = _records(n_max, rows, totals)
    last = len(marshal.dumps(rows[-1]))
    cut = len(whole) - last - 4
    return whole[:cut] + struct.pack("<I", last + 1) + whole[cut + 4:]


def _short_row(n_max: int) -> bytes:
    rows, totals = _payload(n_max)
    rows[7].pop()
    return _records(n_max, rows, totals)


def _non_int_entry(n_max: int) -> bytes:
    rows, totals = _payload(n_max)
    rows[7][2] = float(rows[7][2])
    return _records(n_max, rows, totals)


def _damaged_total(n_max: int) -> bytes:
    """Right shape and types, but p(7) off by one, so it disagrees with stored row 7."""
    rows, totals = _payload(n_max)
    totals[7] += 1
    return _records(n_max, rows, totals)


DAMAGED_CACHES = {
    "empty": lambda n_max: b"",
    "8-bytes": lambda n_max: _cache_file(n_max, b"")[:8],
    "truncated-payload": _truncated,
    "version-1": _version_1,
    "version-2": _version_2,
    "version-3": _version_3,
    "record-past-end": _record_past_end,
    "short-row": _short_row,
    "non-int-entry": _non_int_entry,
    "damaged-total": _damaged_total,
    "mode-code-2": _box_cube,
}


@pytest.fixture(params=sorted(DAMAGED_CACHES))
def damaged_cache(request):
    """A function n_max -> bytes of a count-table cache file that load rejects."""
    return DAMAGED_CACHES[request.param]
