#!/usr/bin/env python3
"""Benchmark of the `young` command-line interface.

    python3 perfbench/run.py --workload {wilf-mc,tv-exact,cli-mix} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout.  One closed-loop client starts each CLI
call as its own `python -m young.cli` process and starts the next call only
when the previous one has exited, so at most one child runs at a time.  Every
round of calls, and every set-up call, gets its own empty YOUNG_CACHE_DIR.

The client, its children and a calibration process (perfbench/calibrator.py)
are pinned to one CPU.  Between calls the calibration process times its fixed
work, and each call's time is reported in seconds at the reference host
speed: wall time x CAL_REF_S / the mean of the calibrations just before and
just after the call.  The host's speed drifts by tens of percent over
minutes; the adjustment takes that drift out.  Raw wall times are kept in the
result file.

--trace 0 measures the end-to-end metrics: rounds of the workload for about S
seconds (at least two rounds), with a set-up call before each of the first
SETUP_REPEATS rounds.
--trace 1 runs one untraced round of the workload, then one traced round of
every workload through perfbench/traced_cli.py, and reports the per-layer
metrics.

Every output is checked.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a result file with provenance is
written under .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import NAMES, WILF_SAMPLES, Checker, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
# the calibration's median time on the reference machine (a quiet 2-core
# Intel Xeon VM at 2.0 GHz, Python 3.11, numpy 2.4)
CAL_REF_S = 0.085
# every call of a round repeats in the next, so stdout can be compared
MIN_ROUNDS = 2
CALL_TIMEOUT_S = 100
# the tail is the highest percentile with at least this many calls beyond it
TAIL_BEYOND = 10


@dataclass
class CallResult:
    argv: tuple[str, ...]
    wall_s: float          # at the reference host speed
    raw_wall_s: float
    maxrss_kb: int
    returncode: int
    stdout: bytes
    stderr_tail: str
    errors: list[str] = field(default_factory=list)


class _Timeout(Exception):
    pass


class HostClock:
    """Turns wall times into seconds at the reference host speed, from the
    calibrations (perfbench/calibrator.py) on either side of each call."""

    def __init__(self):
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})   # children inherit the mask
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrator.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.last = self.calibrate()
        self.samples = [self.last]

    def calibrate(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def adjust(self, wall: float) -> float:
        before, self.last = self.last, self.calibrate()
        self.samples.append(self.last)
        return wall * CAL_REF_S / ((before + self.last) / 2)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _on_alarm(signum, frame):
    raise _Timeout


def _on_term(signum, frame):
    sys.exit(128 + signum)


def child_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(YOUNG_CACHE_DIR=str(cache_dir), XDG_CACHE_HOME=str(cache_dir / "xdg"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_call(argv, workdir: Path, cache_dir: Path, clock: HostClock,
             spans: Path | None = None) -> CallResult:
    """One CLI call in a child process; wall time, peak RSS from wait4, stdout."""
    if spans is None:
        cmd = [sys.executable, "-m", "young.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *argv]
    cache_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    env = child_env(cache_dir)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        signal.setitimer(signal.ITIMER_REAL, CALL_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:
            # a timeout, or this client being stopped: end the child first
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, _Timeout):
                raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = CallResult(tuple(argv), clock.adjust(wall), wall, usage.ru_maxrss, proc.returncode,
                        out_path.read_bytes(), err_path.read_text(errors="replace")[-400:])
    if proc.returncode != 0:
        result.errors.append(f"exit code {proc.returncode}: {result.stderr_tail}")
    return result


def run_round(calls, workdir: Path, label: str, clock: HostClock, traced: bool = False):
    """Run calls in order with one fresh cache; return (seconds at the reference
    speed summed over the calls, results, span files)."""
    cache = workdir / f"cache-{label}"
    results, span_files = [], []
    for i, argv in enumerate(calls):
        spans = workdir / f"spans-{label}-{i}.json" if traced else None
        results.append(run_call(argv, workdir, cache, clock, spans))
        span_files.append(spans)
    shutil.rmtree(cache, ignore_errors=True)
    return sum(r.wall_s for r in results), results, span_files


def check_results(results: list[CallResult], checker) -> None:
    """Check every output, byte-identical stdout for identical flags, and the
    checks that span calls; errors are attached to the call they concern."""
    first: dict[tuple, CallResult] = {}
    for r in results:
        if r.returncode == 0:
            r.errors += checker.check(r.argv, r.stdout)
        if r.argv in first and r.stdout != first[r.argv].stdout:
            r.errors.append("stdout differs from an earlier call with the same flags")
        first.setdefault(r.argv, r)
    for argv, errors in checker.pooled().items():
        first[argv].errors += errors


def tail(values: list[float], fewest: int) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that has TAIL_BEYOND calls
    beyond it in a run of `fewest` calls, the fewest a run makes; the maximum
    when no percentile has that many."""
    ordered = sorted(values)
    if fewest <= TAIL_BEYOND:
        return ordered[-1], 100.0
    q = (fewest - TAIL_BEYOND) / fewest
    return ordered[math.ceil(q * len(ordered)) - 1], 100.0 * q


def end_to_end(workload, workdir: Path, seconds: float, checker, clock: HostClock):
    def setup():
        setups.append(run_call(workload.setup, workdir, workdir / f"cache-setup-{len(setups)}",
                               clock))

    # set-up calls are spread over the run, one before each of the first
    # rounds, so that their median sees the same machine as the rounds
    setups, rounds, timed = [], [], []
    start = time.perf_counter()

    def elapsed_at_next_midpoint() -> float:
        # stop at the round boundary nearest to `seconds`
        elapsed = time.perf_counter() - start
        return elapsed + elapsed / len(rounds) / 2 if rounds else 0.0

    while len(rounds) < MIN_ROUNDS or elapsed_at_next_midpoint() < seconds:
        if len(setups) < SETUP_REPEATS:
            setup()
        wall, results, _ = run_round(workload.round, workdir, f"round-{len(rounds)}", clock)
        rounds.append(wall)
        timed += results
    while len(setups) < SETUP_REPEATS:
        setup()
    checks = run_round(workload.checks, workdir, "checks", clock)[1]
    every = setups + timed + checks
    check_results(every, checker)

    call_times = [r.wall_s for r in timed]
    tail_s, tail_pct = tail(call_times, MIN_ROUNDS * len(workload.round))
    metrics = {
        "setup_s": (statistics.median(r.wall_s for r in setups), "s"),
        "wall_s": (statistics.median(rounds), "s"),
        "call_p50_s": (statistics.median(call_times), "s"),
        "call_tail_s": (tail_s, "s"),
        "peak_rss_mb": (max(r.maxrss_kb for r in every) / 1024.0, "MB"),
    }
    info = {"rounds": len(rounds), "round_walls_s": rounds, "timed_calls": len(timed),
            "call_tail_percentile": tail_pct, "setup_walls_s": [r.wall_s for r in setups],
            "raw_call_p50_s": statistics.median(r.raw_wall_s for r in timed)}
    if workload.name == "wilf-mc":
        info["samples_per_s"] = WILF_SAMPLES / statistics.median(call_times)
    return metrics, info, every


def traced(workload, workdir: Path, seed: int, checker, clock: HostClock):
    import layers

    base_wall, base_results, _ = run_round(workload.round, workdir, "untraced", clock)
    every = list(base_results)
    rounds = {}
    # the traced round of the selected workload runs right after its untraced
    # round, so the overhead ratio compares the two on the same machine state
    for name in sorted(NAMES, key=lambda n: n != workload.name):
        other = workload if name == workload.name else build(name, seed)
        rounds[name] = run_round(other.round, workdir, f"traced-{name}", clock, traced=True)
        every += rounds[name][1] + run_round(other.checks, workdir, f"checks-{name}", clock)[1]
    check_results(every, checker)
    if any(r.errors for r in every):
        return {}, {}, every
    runs = {name: layers.TracedRound(name, *r) for name, r in rounds.items()}
    metrics, info = layers.per_layer(runs, ROOT)
    metrics["trace.overhead_ratio"] = (runs[workload.name].wall / base_wall, "ratio")
    info["untraced_round_wall_s"] = base_wall
    return metrics, info, every


def provenance(seed: int) -> dict:
    import importlib.metadata
    import platform

    def read(path, key):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    # a checkout without .git is still identified by its sources
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": read("/proc/cpuinfo", "model name"),
        "last_level_cache": read("/proc/cpuinfo", "cache size"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "workload_seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/young/cli.py", "docs/cli-schema.json") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a young checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    workload = build(args.workload, args.seed)
    checker = Checker(ROOT)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    load_before = os.getloadavg()
    clock = HostClock()
    try:
        if args.trace:
            metrics, info, every = traced(workload, workdir, args.seed, checker, clock)
        else:
            metrics, info, every = end_to_end(workload, workdir, args.seconds, checker, clock)
    finally:
        clock.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in every if r.errors)
    info["fail_ratio"] = failed / len(every)
    info["cpu"] = clock.cpu
    info["calibration_s"] = clock.samples
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "provenance": {**provenance(args.seed), "loadavg_before": load_before,
                       "loadavg_after": os.getloadavg(),
                       "span_count_per_layer": info.pop("span_count_per_layer", {})},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
        "calls": [{"argv": list(r.argv), "wall_s": r.wall_s, "raw_wall_s": r.raw_wall_s,
                   "maxrss_kb": r.maxrss_kb,
                   "returncode": r.returncode, "stdout_bytes": len(r.stdout),
                   "errors": r.errors} for r in every],
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    path = OUT / "results" / name
    path.write_text(json.dumps(record, indent=1))

    for r in every:
        for e in r.errors:
            print(f"FAILED {' '.join(r.argv)}: {e}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    for name, value in info.items():
        if not isinstance(value, (list, dict)):
            print(f"  {name:38s} {value}")
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(every), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
