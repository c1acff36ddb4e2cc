import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

import young
from young.cli import LEMMA1_GRID_MAX_TERMS, main
from young.counting import RestrictedCountTable
from young.sampling import boltzmann_expected_rate

SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "cli-schema.json").read_text())
SRC = str(Path(young.__file__).resolve().parents[1])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_json_lines(out: str):
    payloads = [json.loads(line) for line in out.strip().splitlines()]
    for payload in payloads:
        if isinstance(payload, dict):
            jsonschema.validate(payload, SCHEMA)
    return payloads


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "100")
    assert code == 0
    assert out.strip() == "190569292"
    code, out, _ = run_cli(capsys, "count", "--n", "100", "--format", "json")
    (payload,) = check_json_lines(out)
    assert payload["value"] == "190569292"


def test_count_restricted(capsys):
    code, out, _ = run_cli(capsys, "count-restricted", "--n", "4", "--r", "2", "--s", "2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "count-restricted", "--n", "30", "--r", "5", "--s", "7",
                           "--oracle", "--format", "json")
    (payload,) = check_json_lines(out)
    assert payload["oracle"] is True


def test_count_restricted_oracle_keeps_its_truncation_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count-restricted", "--n", "30", "--r", "5", "--s", "7", "--oracle",
              "--limit", "300"])
    assert exc.value.code == 2
    code, out, err = run_cli(capsys, "count-restricted", "--n", "201", "--r", "5", "--s", "7",
                             "--oracle")
    assert code == 2
    assert out == ""
    assert "truncation bound exceeded" in err


def test_asymptotic(capsys):
    code, out, _ = run_cli(capsys, "asymptotic", "--kind", "hardy", "--n", "100")
    (payload,) = check_json_lines(out)
    assert math.isclose(payload["value"], 1.99281e8, rel_tol=1e-4)
    code, out, _ = run_cli(capsys, "asymptotic", "--kind", "restricted", "--n", "2500",
                           "--h", "1.0", "--w", "1.0")
    (payload,) = check_json_lines(out)
    assert payload["r"] == 142
    code, out, _ = run_cli(capsys, "asymptotic", "--kind", "rousseau-ali", "--k", "2")
    (payload,) = check_json_lines(out)
    assert payload["value"] == pytest.approx(0.375)


def test_asymptotic_missing_levels_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "asymptotic", "--kind", "restricted", "--n", "100")
    assert code == 2
    assert "error" in err


def test_freiman_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "freiman-sweep")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    ratios = [float(row["remainder_over_u"]) for row in rows]
    assert all(abs(x - 1.0 / 24.0) < 1e-3 for x in ratios)


def test_freiman_sweep_off_the_real_axis(capsys):
    # remainder/u tends to 1/24 along any ray inside the wedge, not only the real one
    code, out, _ = run_cli(capsys, "freiman-sweep", "--imag-ratio", "0.1", "--re-values", "0.1")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert float(row["im_u"]) == pytest.approx(0.01, rel=1e-12)
    assert abs(float(row["remainder_over_u"]) - 1.0 / 24.0) < 1e-6


def test_lemma1_grid(capsys):
    code, out, _ = run_cli(capsys, "lemma1-grid", "--r-count", "5", "--theta-count", "5",
                           "--format", "json")
    (payload,) = check_json_lines(out)
    assert payload["all_hold"] is True
    assert payload["points"] == 25
    code, out, _ = run_cli(capsys, "lemma1-grid", "--r-count", "3", "--theta-count", "3")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    assert all(row["holds"] == "1" for row in rows)


def test_lemma1_grid_holds_at_its_equality_case(capsys):
    # at theta = 0 both sides are the same sum, so rounding must not break the 1e-12 check
    code, out, _ = run_cli(capsys, "lemma1-grid", "--r-min", "0.9990225", "--r-max", "0.9991125",
                           "--r-count", "2", "--theta-count", "2", "--format", "json")
    assert code == 0
    (payload,) = check_json_lines(out)
    assert payload == {"op": "lemma1-grid", "points": 4, "all_hold": True}


def test_lemma1_grid_json_holds_no_rows(capsys):
    # 8000 cheap points (r <= 0.3 needs at most 31 terms); a grid that kept
    # every row peaked at 3 MB
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "lemma1-grid", "--r-min", "0.05", "--r-max", "0.3",
                                 "--r-count", "200", "--theta-count", "40", "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert json.loads(out) == {"op": "lemma1-grid", "points": 8000, "all_hold": True}
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("counts", [("1000000000", "1"), ("2", "481")])
def test_lemma1_grid_refuses_a_grid_past_its_term_budget(capsys, counts):
    # a point at r = 0.999 sums 999 head and 42 tail terms, twice: 2 x 481
    # points pass the budget of 2 x 10^6 terms (2 x 480 do not), and 10^9
    # points would run for days
    r_count, theta_count = counts
    code, out, err = run_cli(capsys, "lemma1-grid", "--r-count", r_count,
                             "--theta-count", theta_count, "--format", "json")
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "--r-count" in line and "--theta-count" in line
    assert "x 2082 terms" in line and str(LEMMA1_GRID_MAX_TERMS) in line


def test_lemma1_grid_refuses_a_small_r_grid_past_its_term_budget(tmp_path):
    # a point at r <= 0.05 sums its 13 terms twice, so 4e6 points are 1.04e8
    # terms, past the budget of 2e6.  Charged its truncation once per point,
    # this grid ran for 83 s, hence the child process with a timeout
    argv = ["lemma1-grid", "--r-min", "0.04", "--r-max", "0.05", "--r-count", "2000",
            "--theta-count", "2000", "--format", "json"]
    result = run_python(f"import sys, young.cli; sys.exit(young.cli.main({argv!r}))", tmp_path)
    assert result.returncode == 2
    assert result.stdout == b""
    assert "4000000 points x 26 terms passes the budget" in result.stderr.decode()


def test_count_restricted_logs_its_plan(capsys):
    code, out, err = run_cli(capsys, "count-restricted", "--n", "150", "--r", "20", "--s", "30",
                             "--format", "json")
    assert code == 0
    assert out == ('{"n": 150, "op": "count-restricted", "oracle": false, "r": 20, "s": 30, '
                   '"value": "4086658895"}\n')
    assert re.fullmatch(r"count-restricted n=150 r=20 s=30 passes=20 terms=5 ready in "
                        r"\d+\.\d\ds\n", err)


# fmt None: a --format value the subcommand does not emit, rejected by argparse
@pytest.mark.parametrize("argv, fmt", [
    (("count", "--n", "10", "--format", "csv"), None),
    (("count-restricted", "--n", "4", "--r", "2", "--s", "2", "--format", "csv"), None),
    (("bound", "--n", "910", "--format", "csv"), None),
    (("asymptotic", "--n", "100", "--format", "csv"), None),
    (("lemma1-grid", "--r-count", "2", "--theta-count", "2", "--format", "text"), None),
    (("freiman-sweep", "--format", "csv"), None),
    (("sample", "--n", "4", "--format", "json"), None),
    (("sample-surrogate", "--n", "4", "--format", "json"), None),
    (("wilf", "--n", "4", "--exact", "--format", "json"), None),
    (("macdonald", "--n", "2", "--exact", "--format", "json"), None),
    (("pk", "--n", "4", "--k", "1", "--samples", "10", "--format", "json"), None),
    (("chernoff", "--j", "5", "--d", "0.3", "--samples", "10", "--format", "json"), None),
    (("tv", "--n", "64", "--format", "json"), None),
    (("count", "--n", "10"), "text"),
    (("count", "--n", "10", "--format", "json"), "json"),
    (("count-restricted", "--n", "4", "--r", "2", "--s", "2"), "text"),
    (("count-restricted", "--n", "4", "--r", "2", "--s", "2", "--format", "json"), "json"),
    (("bound", "--n", "910"), "text"),
    (("bound", "--n", "910", "--format", "json"), "json"),
    (("asymptotic", "--n", "100"), "json"),
    (("asymptotic", "--n", "100", "--format", "text"), "text"),
    (("lemma1-grid", "--r-count", "2", "--theta-count", "2"), "csv"),
    (("lemma1-grid", "--r-count", "2", "--theta-count", "2", "--format", "json"), "json"),
], ids=lambda v: v[0] if isinstance(v, tuple) else (v or "rejected"))
def test_format_choices_are_the_formats_emitted(capsys, argv, fmt):
    if fmt is None:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--format" in captured.err
        return
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if fmt == "json":
        (payload,) = check_json_lines(out)
        assert payload["op"] == argv[0]
    elif fmt == "text":
        (line,) = out.splitlines()
        float(line)
    else:
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4 and "holds" in rows[0]


def test_bound(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "910", "--constant", "0.11")
    assert code == 0
    assert math.isclose(float(out), 0.67667, rel_tol=1e-4)
    code, _, err = run_cli(capsys, "bound", "--n", "5")
    assert code == 2


def test_sample_deterministic(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    args = ["sample", "--n", "30", "--count", "5", "--seed", "9", "--stream", "1"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    header = json.loads(lines[0])
    jsonschema.validate(header, SCHEMA)
    draws = [json.loads(line) for line in lines[1:]]
    assert len(draws) == 5
    assert all(sum(d) == 30 for d in draws)
    assert all(d == sorted(d, reverse=True) for d in draws)


# stdout of `sample --n 220 --count 20 --seed 7 --stream 3`, recorded when the
# unranking moved from the sampler into the count table
SAMPLE_220_SHA256 = "2fa3d5a03170d306ba8429b6f552ffc2e5a4c6423367d649b0d9be4f214cd924"


def test_sample_seeded_draws_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "sample", "--n", "220", "--count", "20", "--seed", "7",
                           "--stream", "3")
    assert code == 0
    assert len(out.splitlines()) == 21
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_220_SHA256


# stdout of `sample --method boltzmann --n 400 --count 20 --seed 5 --stream 3`,
# recorded when Boltzmann attempts became a Poisson process of multiplicities
SAMPLE_BOLTZMANN_400_SHA256 = "13001c3b9f989b98e48b7605236751ad27256e27b4db36967d3ea23b70414d92"


def test_sample_boltzmann_draws_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "sample", "--method", "boltzmann", "--n", "400", "--count",
                           "20", "--seed", "5", "--stream", "3")
    assert code == 0
    assert len(out.splitlines()) == 21
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_BOLTZMANN_400_SHA256


def test_sample_boltzmann(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, "sample", "--n", "12", "--count", "3",
                             "--method", "boltzmann", "--seed", "4")
    assert code == 0
    draws = [json.loads(line) for line in out.strip().splitlines()[1:]]
    assert len(draws) == 3 and all(sum(d) == 12 for d in draws)
    # stderr reports the observed rate next to the expected one
    match = re.search(r"acceptance rate (\S+) \(expected (\S+)\) over (\d+) attempts", err)
    assert match, err
    observed, expected, attempts = match.groups()
    assert observed == f"{3 / int(attempts):.3g}"
    assert expected == f"{boltzmann_expected_rate(12):.3g}"


def test_sample_boltzmann_streams_in_blocks(capsys, tmp_path):
    # draws are written a block at a time, so peak RSS does not grow with
    # --count
    def peak_rss(count: int) -> int:
        argv = ["sample", "--method", "boltzmann", "--n", "30", "--count", str(count),
                "--seed", "2"]
        # the CLI runs as a child of a small interpreter: a process forked
        # from this test process would count the test process's RSS
        result = run_python("import resource, subprocess, sys; "
                            f"subprocess.run([sys.executable, '-m', 'young.cli', *{argv!r}], "
                            "check=True); "
                            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, "
                            "file=sys.stderr)", tmp_path)
        assert result.returncode == 0, result.stderr.decode()
        assert len(result.stdout.splitlines()) == count + 1
        return int(result.stderr.split()[-1])

    assert abs(peak_rss(100_000) - peak_rss(1000)) < 1024  # KiB on Linux
    # several blocks replay byte-identically from one stream
    args = ["sample", "--method", "boltzmann", "--n", "30", "--count", "2100", "--seed", "2"]
    code, first, _ = run_cli(capsys, *args)
    assert code == 0 and len(first.splitlines()) == 2101
    assert run_cli(capsys, *args)[1] == first


def test_sample_surrogate_deterministic(capsys):
    args = ["sample-surrogate", "--n", "2500", "--k", "3", "--count", "4", "--seed", "11"]
    code, out1, _ = run_cli(capsys, *args)
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    jsonschema.validate(json.loads(lines[0]), SCHEMA)
    for line in lines[1:]:
        record = json.loads(line)
        assert len(record["col_heights"]) == 3
        assert record["sums"] == sorted(record["sums"])


def test_wilf_exact_and_mc(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "wilf", "--n", "4", "--exact", "--threads", "1")
    (payload,) = check_json_lines(out)
    assert payload["estimate"]["value"] == pytest.approx(0.4)
    assert payload["graphical"] == "2"
    code, out, _ = run_cli(capsys, "wilf", "--n", "30", "--exact")
    (payload,) = check_json_lines(out)
    assert payload["estimate"]["stderr"] == 0.0
    assert payload["estimate"]["method"] == "exact-enumeration"
    code, out, _ = run_cli(capsys, "wilf", "--n", "10", "--samples", "2000", "--seed", "3")
    (payload,) = check_json_lines(out)
    assert payload["mode"] == "monte-carlo"
    assert payload["estimate"]["samples"] == 2000


def test_macdonald(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "macdonald", "--n", "2", "--exact")
    (payload,) = check_json_lines(out)
    assert payload["estimate"]["value"] == pytest.approx(0.75)
    code, out, _ = run_cli(capsys, "macdonald", "--n", "12", "--samples", "2000",
                           "--seed", "5")
    (payload,) = check_json_lines(out)
    assert "self_dual" in payload


def test_macdonald_reports_both_directions(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "macdonald", "--n", "10", "--exact")
    (payload,) = check_json_lines(out)
    assert payload["estimate"]["value"] == pytest.approx(818 / 1764)
    assert payload["comparable"]["value"] == 797 / 882
    # estimate and self_dual as recorded before the two-sided value was added
    code, out, _ = run_cli(capsys, "macdonald", "--n", "40", "--samples", "1000", "--seed", "12",
                           "--stream", "3")
    (payload,) = check_json_lines(out)
    provenance = {"method": "monte-carlo", "samples": 1000, "seed": 12, "stream_id": 3}
    assert payload["estimate"] == {**provenance, "value": 0.355,
                                   "stderr": 0.015131919904625453}
    assert payload["self_dual"] == {**provenance, "value": 0.454,
                                    "stderr": 0.015744332313566048}
    assert payload["comparable"]["value"] == 0.683


# stdout sha256 of seeded Monte Carlo calls, recorded before every experiment
# read its draws from one stream and tallied them in one place
@pytest.mark.parametrize("argv, digest", [
    ("wilf --n 60 --samples 2000 --seed 11 --stream 2",
     "402f3f51a350c52657f50daece548c476698cf47a14af1e9381870ea0a24f26c"),
    ("tv --mc --n 60 --k 2 --samples 2000 --seed 13 --stream 4",
     "e1f2f7b77663f1fb04f1d0770749e1b2f36c7368a42ff6e198821bb3af574104"),
    ("pk --n 910 --k 16 --samples 20000 --seed 14 --stream 1",
     "a10dfb25347a958dcf7e72a20b2a5d43ac690c46669b3c46e305bba96509e051"),
    ("chernoff --j 5 --d 0.3 --samples 20000 --seed 15",
     "c127a84501d93d579815db7169e8d6ba3155f1fc1e6458158fa043ce3d674c1c"),
    ("chernoff --j 5 --beta 2 --samples 20000 --seed 15",
     "cde697314e1f5918937d545365608dbf77157812b3c068783d702e6816f299bd"),
    ("sample-surrogate --n 910 --k 4 --count 50 --seed 16 --stream 1",
     "2a284338db265c632969b10ddda92309b29b1c17ae17418cc98a475d1c36f189"),
], ids=["wilf", "tv-mc", "pk", "chernoff-d", "chernoff-beta", "sample-surrogate"])
def test_seeded_monte_carlo_stdout_is_pinned(capsys, tmp_path, monkeypatch, argv, digest):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pk(capsys):
    code, out, _ = run_cli(capsys, "pk", "--n", "100", "--k", "1", "--samples", "50000",
                           "--seed", "6")
    (payload,) = check_json_lines(out)
    assert abs(payload["estimate"]["value"] - 2 / 3) < 0.02


def test_chernoff(capsys):
    code, out, _ = run_cli(capsys, "chernoff", "--j", "100", "--d", "0.3",
                           "--samples", "50000", "--seed", "7")
    (payload,) = check_json_lines(out)
    assert payload["dominated"] is True
    code, out, _ = run_cli(capsys, "chernoff", "--j", "1", "--beta", "2.0",
                           "--samples", "50000", "--seed", "8")
    (payload,) = check_json_lines(out)
    assert payload["kind"] == "ratio"
    code, _, _ = run_cli(capsys, "chernoff", "--j", "5", "--samples", "10")
    assert code == 2


def test_tv_exact_and_mc(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "tv", "--n", "64")
    (payload,) = check_json_lines(out)
    assert 0.0 < payload["tv"] < 1.0
    code, out, _ = run_cli(capsys, "tv", "--n", "40", "--k", "2", "--mc",
                           "--samples", "5000", "--seed", "9")
    (payload,) = check_json_lines(out)
    assert payload["mode"] == "monte-carlo"
    code, _, _ = run_cli(capsys, "tv", "--n", "40", "--k", "2")
    assert code == 2


# stdout of `tv --n 100` before the sweep went by anti-diagonals, and of
# `tv --n 700` since leak_true is the exact count outside the window box
TV_STDOUT = {
    100: ('{"k": 1, "leak_model": 1.6788340606588292e-08, "leak_true": 0.0, "mode": "exact", '
          '"n": 100, "nonpositive_mass": 0.00082178944736222, "op": "tv", '
          '"tv": 0.2702812496226122, "window_hi": 161}\n'),
    700: ('{"k": 1, "leak_model": 1.853824327380238e-08, "leak_true": 1.4892145314752623e-10, '
          '"mode": "exact", "n": 700, "nonpositive_mass": 2.1980588460479566e-09, "op": "tv", '
          '"tv": 0.13903484999887317, "window_hi": 444}\n'),
}
TV_LOG = {
    100: "tv n=100 W=160 diagonals=98 updates=",
    700: "tv n=700 W=443 diagonals=698 updates=25725865 ",
}


def test_tv_exact_stdout_is_unchanged_and_sweep_is_logged(capsys):
    for n, stdout in TV_STDOUT.items():
        code, out, err = run_cli(capsys, "tv", "--n", str(n))
        assert code == 0
        assert out == stdout
        (line,) = err.splitlines()
        assert line.startswith(TV_LOG[n])
        assert " ready in " in line


@pytest.mark.parametrize("argv, word", [
    (("wilf", "--n", "10", "--samples", "0"), "samples"),
    (("wilf", "--n", "10", "--samples", "-5"), "samples"),
    (("macdonald", "--n", "10", "--samples", "0"), "samples"),
    (("pk", "--n", "10", "--k", "1", "--samples", "0"), "samples"),
    (("chernoff", "--j", "5", "--d", "0.3", "--samples", "0"), "samples"),
    (("chernoff", "--j", "5", "--beta", "2", "--samples", "0"), "samples"),
    (("tv", "--mc", "--n", "10", "--samples", "0"), "samples"),
    (("tv", "--mc", "--n", "10", "--k", "0", "--samples", "10"), "k must be positive"),
    (("tv", "--mc", "--n", "10", "--k", "-1", "--samples", "10"), "k must be positive"),
    (("sample", "--n", "10", "--count", "-1"), "count"),
    (("sample", "--n", "10", "--count", "-1", "--method", "boltzmann"), "count"),
    (("sample-surrogate", "--n", "10", "--count", "-1"), "count"),
    (("sample", "--n", "-3"), "n must be"),
    (("sample-surrogate", "--n", "0"), "n must be"),
    (("sample-surrogate", "--n", "10", "--k", "0"), "k must be"),
    (("wilf", "--n", "82", "--exact"), "cap"),
    (("wilf", "--n", "41", "--exact"), "even"),
    (("lemma1-grid", "--r-count", "1"), "--r-count"),
    (("lemma1-grid", "--theta-count", "0"), "--theta-count"),
    (("lemma1-grid", "--r-max", "1.0"), "--r-max must lie in (0, 1)"),
    (("lemma1-grid", "--r-min", "0"), "--r-min must lie in (0, 1)"),
    (("lemma1-grid", "--r-min", "nan"), "--r-min must lie in (0, 1)"),
    (("chernoff", "--j", "0", "--d", "0.5", "--samples", "10"), "j must be"),
    (("chernoff", "--j", "0", "--beta", "2", "--samples", "10"), "j must be"),
    (("sample", "--n", "0"), "n must be"),
    (("pk", "--n", "0", "--k", "1", "--samples", "10"), "n must be"),
    (("wilf", "--n", "0", "--exact"), "n must be"),
    (("tv", "--mc", "--n", "1", "--k", "1", "--samples", "10"), "n must be"),
    (("bound", "--n", "20", "--constant", "-5", "--format", "json"), "constant"),
    (("bound", "--n", "20", "--constant", "nan", "--format", "json"), "constant"),
    (("bound", "--n", "20", "--constant", "inf", "--format", "json"), "constant"),
    (("bound", "--n", "20", "--constant", "1000", "--format", "json"), "constant"),
    (("chernoff", "--j", "5", "--beta", "nan", "--samples", "10"), "beta"),
    (("chernoff", "--j", "5", "--beta", "inf", "--samples", "10"), "beta"),
    (("chernoff", "--j", "5", "--beta", "1e200", "--samples", "10"), "beta"),
    (("asymptotic", "--n", str(10**400)), "n too large"),
    (("asymptotic", "--kind", "restricted", "--n", str(10**400), "--h", "1", "--w", "1"),
     "n too large"),
    (("tv", "--n", str(10**400)), "n too large"),
    (("asymptotic", "--kind", "rousseau-ali", "--k", str(10**400)), "k too large"),
    (("chernoff", "--j", str(10**400), "--beta", "2", "--samples", "10"), "j too large"),
    (("chernoff", "--j", str(10**400), "--d", "0.5", "--samples", "10"), "j too large"),
    (("tv", "--mc", "--n", "10", "--k", "11"), "k must be at most"),
    (("pk", "--n", "10", "--k", "11"), "k must be at most"),
    (("freiman-sweep", "--imag-ratio", "0.2"), "u outside the wedge"),
    (("freiman-sweep", "--re-values", "0.1,abc"), "--re-values: could not convert"),
    (("freiman-sweep", "--imag-ratio", "nan"), "--imag-ratio must be finite"),
    (("sample-surrogate", "--n", str(10**400)), "n too large"),
    (("sample-surrogate", "--n", "10", "--k", str(10**20)), "k must be at most"),
    (("lemma1-grid", "--r-count", str(10**400)), "--r-count too large"),
    (("lemma1-grid", "--theta-count", str(10**400)), "--theta-count too large"),
    (("sample", "--method", "boltzmann", "--n", str(10**30), "--count", "1"),
     f"n={10**30} too large for Boltzmann draws"),
    (("sample", "--method", "boltzmann", "--n", str(10**400), "--count", "1"),
     f"n={10**400} too large for Boltzmann draws"),
    (("asymptotic", "--kind", "restricted", "--n", "100", "--h", "1", "--w", "nan"),
     "w must be positive and finite"),
    # k past one 1 MB surrogate chunk row, refused before numpy sizes an array
    (("pk", "--n", str(10**16), "--k", str(10**15), "--samples", "1"), f"k={10**15} "),
    (("sample-surrogate", "--n", str(10**30), "--k", str(10**20)), f"k={10**20} "),
], ids=["wilf-samples-0", "wilf-samples-negative", "macdonald-samples-0", "pk-samples-0",
        "chernoff-d-samples-0", "chernoff-beta-samples-0", "tv-mc-samples-0", "tv-mc-k-0",
        "tv-mc-k-negative", "sample-count-negative", "sample-boltzmann-count-negative",
        "sample-surrogate-count-negative", "sample-n-negative", "sample-surrogate-n-0",
        "sample-surrogate-k-0", "wilf-exact-beyond-cap", "wilf-exact-odd-n",
        "lemma1-grid-r-count-1", "lemma1-grid-theta-count-0", "lemma1-grid-r-max-1",
        "lemma1-grid-r-min-0", "lemma1-grid-r-min-nan", "chernoff-d-j-0",
        "chernoff-beta-j-0", "sample-n-0", "pk-n-0", "wilf-exact-n-0", "tv-mc-n-1",
        "bound-constant-negative", "bound-constant-nan", "bound-constant-inf",
        "bound-constant-underflow", "chernoff-beta-nan", "chernoff-beta-inf",
        "chernoff-beta-overflow", "asymptotic-n-huge", "asymptotic-restricted-n-huge",
        "tv-n-huge", "rousseau-ali-k-huge", "chernoff-beta-j-huge", "chernoff-d-j-huge",
        "tv-mc-k-above-n", "pk-k-above-n", "freiman-sweep-outside-wedge",
        "freiman-sweep-re-values-not-float", "freiman-sweep-imag-ratio-nan",
        "sample-surrogate-n-huge", "sample-surrogate-k-above-n", "lemma1-grid-r-count-huge",
        "lemma1-grid-theta-count-huge", "sample-boltzmann-n-huge",
        "sample-boltzmann-n-past-float", "asymptotic-restricted-w-nan", "pk-k-huge",
        "sample-surrogate-k-huge"])
def test_out_of_range_counts_are_validation_errors(capsys, tmp_path, monkeypatch, argv, word):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ") and word in err


def test_cache_dir_is_populated(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    run_cli(capsys, "sample", "--n", "25", "--count", "1")
    assert (tmp_path / "counts-by-largest-part-25.ypt").exists()


# each call builds the count table for n = 20
TABLE_CALLS = [
    ("sample", "--n", "20", "--count", "2"),
    ("wilf", "--n", "20", "--samples", "50"),
    ("macdonald", "--n", "20", "--samples", "50"),
    ("tv", "--mc", "--n", "20", "--k", "2", "--samples", "50"),
]


def test_count_tables_are_cached_only_under_young_cache_dir(capsys, tmp_path, monkeypatch,
                                                            no_cache_dir):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for argv in TABLE_CALLS:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
    # without YOUNG_CACHE_DIR no file is written: not under HOME, not under
    # XDG_CACHE_HOME (inside HOME here), not in the working directory
    assert not list(no_cache_dir.rglob("*")) and not list(work.rglob("*"))
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path / "cache"))
    for argv in TABLE_CALLS:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["counts-by-largest-part-20.ypt"]
    assert not list(no_cache_dir.rglob("*")) and not list(work.rglob("*"))


def test_sample_count_0_builds_no_table(capsys, no_table_build):
    code, out, err = run_cli(capsys, "sample", "--n", "50", "--count", "0")
    assert code == 0, err
    (header,) = check_json_lines(out)
    assert header["count"] == 0


def test_damaged_cache_file_is_rebuilt(capsys, tmp_path, monkeypatch, damaged_cache):
    args = ("sample", "--n", "25", "--count", "3", "--seed", "7")
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path / "fresh"))
    code, expected, _ = run_cli(capsys, *args)
    assert code == 0
    damaged = tmp_path / "damaged"
    damaged.mkdir()
    path = damaged / "counts-by-largest-part-25.ypt"
    path.write_bytes(damaged_cache(25))
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(damaged))
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == expected
    assert RestrictedCountTable._HEADER.unpack_from(path.read_bytes())[1] == 4
    assert RestrictedCountTable.load(path).row(25) == RestrictedCountTable.build(25).row(25)


@pytest.mark.parametrize("argv", [
    ("wilf", "--n", "600", "--samples", "0"),
    ("macdonald", "--n", "600", "--samples", "0"),
    ("tv", "--mc", "--n", "600", "--samples", "0"),
    ("tv", "--mc", "--n", "600", "--k", "0", "--samples", "10"),
    ("wilf", "--n", "601", "--samples", "10"),
    ("wilf", "--n", "0", "--samples", "10"),
    ("macdonald", "--n", "0", "--samples", "10"),
], ids=["wilf", "macdonald", "tv-mc", "tv-mc-k-0", "wilf-odd-n", "wilf-n-0", "macdonald-n-0"])
def test_samples_0_is_rejected_before_the_table_is_built(capsys, tmp_path, monkeypatch, argv,
                                                        no_table_build):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert not list(tmp_path.glob("*.ypt"))


@pytest.mark.parametrize("argv, word", [
    (("sample", "--n", "10001"), "--method boltzmann"),
    (("wilf", "--n", "10002", "--samples", "10"), "10000"),
    (("macdonald", "--n", "10001", "--samples", "10"), "10000"),
    (("tv", "--mc", "--n", "10001", "--samples", "10"), "10000"),
], ids=["sample", "wilf", "macdonald", "tv-mc"])
def test_count_tables_past_the_limit_are_refused(capsys, tmp_path, monkeypatch, argv, word):
    # a table past n = 1e4 would hold gigabytes: refuse it before it is built
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "n <= 10000" in line and word in line
    assert not list(tmp_path.glob("*.ypt"))


def test_boltzmann_draws_pass_the_count_table_limit(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "sample", "--n", "10001", "--method", "boltzmann",
                           "--seed", "3")
    assert code == 0
    header, parts = check_json_lines(out)
    assert header["n"] == 10001 and sum(parts) == 10001
    assert not list(tmp_path.glob("*.ypt"))


@pytest.mark.parametrize("argv, estimates", [
    (("wilf", "--n", "2", "--samples", "1"), ("estimate",)),
    (("macdonald", "--n", "1", "--samples", "10"), ("estimate", "comparable", "self_dual")),
    (("pk", "--n", "910", "--k", "1", "--samples", "1"), ("estimate",)),
], ids=["wilf", "macdonald", "pk"])
def test_monte_carlo_with_all_hits_or_none_counts_half_a_hit(capsys, tmp_path, monkeypatch,
                                                            argv, estimates):
    monkeypatch.setenv("YOUNG_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, *argv, "--seed", "1")
    assert code == 0, err
    (payload,) = check_json_lines(out)
    for key in estimates:
        est = payload[key]
        samples = est["samples"]
        assert est["method"] == "monte-carlo" and est["value"] in (0.0, 1.0)
        half = 0.5 / samples
        assert est["stderr"] == pytest.approx(math.sqrt(half * (1.0 - half) / samples), rel=1e-12)


def run_python(code: str, cache_dir: Path, hash_seed: str = "0") -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this `young`, caching in cache_dir."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, YOUNG_CACHE_DIR=str(cache_dir))
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cache_dir,
                          capture_output=True, timeout=120)


# modules each call must not load besides numpy and multiprocessing: the CLI
# imports a module only in the subcommands that run it
_LIGHT = ("young.experiments", "dataclasses", "fractions")


@pytest.mark.parametrize("argv, unloaded", [
    (None, ("young.counting", "young.sampling", "young.experiments")),
    (("sample", "--n", "30"), (*_LIGHT, "young.partitions")),
    (("wilf", "--n", "30", "--samples", "100"), ()),
    (("macdonald", "--n", "20", "--samples", "50"), ()),
    (("count-restricted", "--n", "150", "--r", "20", "--s", "30"), _LIGHT),
    (("wilf", "--n", "20", "--exact", "--threads", "1"), ()),
    (("wilf", "--n", "20", "--exact"), ()),
    (("lemma1-grid", "--r-count", "3", "--theta-count", "3"), _LIGHT),
], ids=["import", "sample", "wilf", "macdonald", "count-restricted", "wilf-exact",
        "wilf-exact-default-threads", "lemma1-grid"])
def test_exact_calls_start_without_numpy(tmp_path, argv, unloaded):
    call = "" if argv is None else f"assert young.cli.main({list(argv)!r}) == 0; "
    forbidden = {"numpy", "multiprocessing", *unloaded}
    code = (f"import sys, young.cli; {call}"
            f"loaded = {forbidden!r} & set(sys.modules); "
            "assert not loaded, loaded")
    result = run_python(code, tmp_path)
    assert result.returncode == 0, result.stderr.decode()


@pytest.mark.parametrize("value, word", [
    ("1e-9", "Re u = 1e-09 needs 57564627326 terms"),
    ("1e-310", "Re u = 1e-310 needs inf terms"),
    ("inf", "finite"),
    ("nan", "finite"),
], ids=["tiny", "below-rounding", "inf", "nan"])
def test_freiman_sweep_rejects_what_the_truncation_cannot_serve(tmp_path, value, word):
    # in a child process with a timeout, so that a sweep summing 5.8e10 terms
    # fails the test instead of hanging it; at 1e-310 the count passes the
    # float range
    argv = ["freiman-sweep", "--re-values", value]
    result = run_python(f"import sys, young.cli; sys.exit(young.cli.main({argv!r}))", tmp_path)
    assert result.returncode == 2
    assert result.stdout == b""
    assert word in result.stderr.decode()


def test_lemma1_grid_rejects_a_truncation_past_the_term_cap(tmp_path):
    # r = 0.9999999 needs 5.3e8 terms, 53 times the cap, and is refused before
    # a row is written.  The child may map 2 GiB, so a grid that stored the
    # terms (5.3e8 floats, about 17 GB) fails this test with a MemoryError
    # instead of exhausting the machine
    argv = ["lemma1-grid", "--r-min", "0.999", "--r-max", "0.9999999", "--r-count", "2",
            "--theta-count", "2"]
    result = run_python("import resource, sys, young.cli; "
                        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                        f"sys.exit(young.cli.main({argv!r}))", tmp_path)
    assert result.returncode == 2
    assert result.stdout == b""
    assert "needs 529594546 terms" in result.stderr.decode()


def test_sample_streams_do_not_depend_on_the_hash_seed(tmp_path):
    def sample(stream: str, hash_seed: str) -> bytes:
        argv = ["sample", "--n", "60", "--count", "20", "--seed", "9", "--stream", stream]
        result = run_python(f"import young.cli; young.cli.main({argv!r})", tmp_path, hash_seed)
        assert result.returncode == 0, result.stderr.decode()
        return result.stdout

    first = sample("1", "0")
    assert len(first.splitlines()) == 21
    assert sample("1", "1") == first
    draws = first.splitlines()[1:]
    assert sample("2", "0").splitlines()[1:] != draws
