"""Per-layer metrics from the traced rounds of all three workloads.

Each metric is read on the workload whose calls exercise the layer (see
NOTES.md for the end-to-end metric each one should move).  Self time is a
span's duration minus the durations of its child spans.  Public partition
functions that the hot loops bypass are timed here, in this process, on the
draws the traced run recorded; those numbers are public-boundary times.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from traced_cli import TARGETS

# spans each workload's traced round must produce; a wrapper that misses its
# target would otherwise report zeros silently
REQUIRED = {
    "wilf-mc": ("cli.import", "cli.main", "counting.load_or_build", "counting.table_build",
                "sampling.make_sampler", "sampling.draw_uniform_parts",
                "partitions._nash_williams", "experiments.wilf_fraction_mc"),
    "tv-exact": ("cli.import", "cli.main", "experiments.tv_distance_k1",
                 "counting.count_partitions"),
    "cli-mix": ("cli.import", "cli.main", "counting.load_or_build", "counting.table_build",
                "counting.table_load", "counting.count_restricted",
                "sampling.draw_uniform_parts", "sampling.sample_boltzmann_batch",
                "sampling.sample_surrogate", "sampling.surrogate_batch", "sampling.make_sampler",
                "partitions._nash_williams", "experiments.wilf_graphical_counts",
                "experiments.macdonald_comparable_mc", "experiments.tv_distance_mc",
                "experiments.surrogate_event_pk", "asymptotics.lemma1_bound_check"),
}

BOUNDARY_REPEATS = 5


class CallTrace:
    """Spans of one traced call."""

    def __init__(self, argv, stdout: bytes, path: Path):
        data = json.loads(path.read_text())
        self.argv = argv
        self.head = json.loads(stdout.decode().splitlines()[0])
        self.name = np.array(data["names"])[np.array(data["name"], dtype=int)]
        self.dur = np.array(data["end"]) - np.array(data["start"])
        parent = np.array(data["parent"], dtype=int)
        inner = parent >= 0
        self.self_time = self.dur - np.bincount(parent[inner], weights=self.dur[inner],
                                                minlength=len(self.dur))
        self.tag = np.array(data["tag"])
        self.counters = data["counters"]
        self.draws = {int(n): [tuple(d) for d in ds] for n, ds in data["draws"].items()}


@dataclass
class TracedRound:
    workload: str
    wall: float
    results: list
    span_files: list
    calls: list[CallTrace] = field(init=False)

    def __post_init__(self):
        self.calls = [CallTrace(r.argv, r.stdout, p)
                      for r, p in zip(self.results, self.span_files)]

    def durations(self, span: str, tag: float | None = None, self_time: bool = False):
        out = []
        for c in self.calls:
            mask = c.name == span
            if tag is not None:
                mask &= np.isclose(c.tag, tag)
            out.extend((c.self_time if self_time else c.dur)[mask])
        return out

    def counter(self, key: str) -> int:
        return sum(c.counters.get(key, 0) for c in self.calls)

    def draws(self, n: int) -> list:
        return [d for c in self.calls for d in c.draws.get(n, [])]

    def heads(self, command: str) -> list:
        return [(c.head, c) for c in self.calls if c.argv[0] == command]


def _median(values, scale=1.0, what=""):
    if not values:
        raise RuntimeError(f"no spans for {what}")
    return statistics.median(values) * scale


def _boundary_us(fn, inputs) -> float:
    """Median over repeats of the mean time per call of fn on inputs, in us."""
    per_call = []
    for _ in range(BOUNDARY_REPEATS):
        t0 = time.perf_counter()
        for args in inputs:
            fn(*args)
        per_call.append((time.perf_counter() - t0) / len(inputs))
    return statistics.median(per_call) * 1e6


def self_check(runs: dict[str, TracedRound]) -> None:
    unchecked = {t[2] for t in TARGETS} - {s for spans in REQUIRED.values() for s in spans}
    if unchecked:
        raise RuntimeError(f"wrapped targets no workload is required to fire: {unchecked}")
    for name, spans in REQUIRED.items():
        fired = {s for c in runs[name].calls for s in c.name}
        missing = [s for s in spans if s not in fired]
        if missing:
            raise RuntimeError(f"traced {name} round never fired spans {missing}")


def per_layer(runs: dict[str, TracedRound], root: Path):
    self_check(runs)
    wilf, tv, mix = runs["wilf-mc"], runs["tv-exact"], runs["cli-mix"]
    every = list(runs.values())

    def all_durations(span, tag=None):
        return [d for r in every for d in r.durations(span, tag)]

    draws = wilf.counter("sampling.draws")
    attempts = mix.counter("sampling.boltzmann_attempts")
    accepted = mix.counter("sampling.boltzmann_accepted")
    tv_head, _ = tv.heads("tv")[0]
    width = tv_head["window_hi"] - 1
    enumerated = [int(head["total"]) / c.dur[c.name == "experiments.wilf_graphical_counts"].sum()
                  for head, c in mix.heads("wilf")]

    sys.path.insert(0, str(root / "src"))
    partitions = importlib.import_module("young.partitions")
    counting = importlib.import_module("young.counting")
    at910, at300 = wilf.draws(910), mix.draws(300)
    pairs = list(zip(at300[::2], at300[1::2]))
    table = counting.RestrictedCountTable.build(910)
    table_bytes = sum((v.bit_length() + 7) // 8 for m in range(911) for v in table.row(m))

    metrics = {
        "cli.import_s": (_median(all_durations("cli.import")), "s"),
        "cli.stdout_bytes": (sum(len(r.stdout) for r in mix.results), "bytes"),
        "counting.table_build_s.n910": (_median(all_durations("counting.table_build", 910),
                                                what="table build n=910"), "s"),
        "counting.table_build_s.n220": (_median(mix.durations("counting.table_build", 220),
                                                what="table build n=220"), "s"),
        "counting.load_or_build_s": (sum(mix.durations("counting.load_or_build")), "s"),
        "counting.cache_hits": (len(mix.durations("counting.table_load")), "count"),
        "counting.cache_misses": (len(mix.durations("counting.table_build")), "count"),
        "counting.table_bytes": (table_bytes, "bytes"),
        "counting.count_restricted_cube_s": (
            _median(mix.durations("counting.count_restricted", 150), what="n=150 query"), "s"),
        "counting.count_restricted_gauss_s": (
            _median(mix.durations("counting.count_restricted", 10000), what="n=1e4 query"), "s"),
        "counting.count_partitions_s.n2500": (
            _median(tv.durations("counting.count_partitions", 2500), what="p(2500)"), "s"),
        "sampling.exact_draw_us.n910": (
            _median(wilf.durations("sampling.draw_uniform_parts", 910), 1e6, "draws"), "us"),
        "sampling.exact_draw_us.n220": (
            _median(mix.durations("sampling.draw_uniform_parts", 220), 1e6, "draws"), "us"),
        "sampling.parts_per_draw": (wilf.counter("sampling.parts") / draws, "count"),
        "sampling.boltzmann_attempts": (attempts, "count"),
        "sampling.boltzmann_accept_ratio": (accepted / attempts, "ratio"),
        "sampling.boltzmann_ms_per_accept": (
            sum(mix.durations("sampling.sample_boltzmann_batch")) / accepted * 1e3, "ms"),
        "sampling.surrogate_batch_us": (
            _median(mix.durations("sampling.surrogate_batch"), 1e6), "us"),
        "partitions.nash_williams_us": (
            _boundary_us(partitions.nash_williams_graphical, [(d,) for d in at910]), "us"),
        "partitions.nash_williams_kernel_us": (
            _median(wilf.durations("partitions._nash_williams"), 1e6), "us"),
        "partitions.graphical_ratio": (
            wilf.counter("partitions.graphical") / wilf.counter("partitions.checks"), "ratio"),
        "partitions.conjugate_us": (
            _boundary_us(partitions.conjugate, [(d,) for d in at300]), "us"),
        "partitions.dominates_us": (_boundary_us(partitions.dominates, pairs), "us"),
        "partitions.enumerated_per_s": (_median(enumerated), "1/s"),
        "experiments.wilf_fraction_mc_self_s": (
            _median(wilf.durations("experiments.wilf_fraction_mc", self_time=True)), "s"),
        "experiments.tv_distance_k1_s": (
            _median(tv.durations("experiments.tv_distance_k1")), "s"),
        "experiments.tv_box_ops": (width * width * (tv_head["n"] + 1), "count"),
        "experiments.macdonald_mc_s": (
            _median(mix.durations("experiments.macdonald_comparable_mc")), "s"),
        "experiments.tv_distance_mc_s": (
            _median(mix.durations("experiments.tv_distance_mc")), "s"),
        "experiments.pk_s": (_median(mix.durations("experiments.surrogate_event_pk")), "s"),
        "asymptotics.lemma1_point_ms": (
            _median(mix.durations("asymptotics.lemma1_bound_check", 0.999), 1e3,
                    "lemma1 points at r=0.999"), "ms"),
    }
    spans = Counter()
    for r in every:
        for c in r.calls:
            spans.update(s.split(".")[0] for s in c.name)
    info = {"span_count_per_layer": dict(spans),
            "traced_round_wall_s": {r.workload: r.wall for r in every},
            "boundary_inputs": {"nash_williams n=910": len(at910), "conjugate n=300": len(at300),
                                "dominates pairs n=300": len(pairs)}}
    return metrics, info
