"""Run one `young` CLI call in this process, with spans around layer entry points.

    python perfbench/traced_cli.py SPANS.json ARGS...

ARGS are passed to `young.cli.main` unchanged.  Each span records a name, a
start, an end, the span that was open when it started, and a tag (the first
positional argument, usually n).  Spans stay in memory and are written to
SPANS.json when the call returns.

Spans wrap the module attributes that callers look up at call time, so a
function imported by name into another module is wrapped in that module.
Modules are reached through `importlib.import_module`: the package re-exports
functions under the names of its submodules (`young.partitions` is a
function), so attribute access on the package would patch the wrong object.
"""

import functools
import importlib
import inspect
import json
import sys
import time

T0 = time.perf_counter()

# (module, attribute looked up by the caller, span name, record first argument as tag)
TARGETS = (
    ("young.counting", "load_or_build", "counting.load_or_build", True),
    ("young.counting", "RestrictedCountTable.build", "counting.table_build", True),
    ("young.counting", "RestrictedCountTable.load", "counting.table_load", False),
    ("young.experiments", "count_partitions", "counting.count_partitions", True),
    ("young.counting", "count_restricted", "counting.count_restricted", True),
    ("young.sampling", "draw_uniform_parts", "sampling.draw_uniform_parts", True),
    ("young.sampling", "sample_boltzmann_batch", "sampling.sample_boltzmann_batch", True),
    ("young.sampling", "sample_surrogate", "sampling.sample_surrogate", True),
    ("young.experiments", "surrogate_batch", "sampling.surrogate_batch", True),
    ("young.experiments", "make_sampler", "sampling.make_sampler", True),
    ("young.experiments", "_nash_williams", "partitions._nash_williams", False),
    ("young.experiments", "wilf_fraction_mc", "experiments.wilf_fraction_mc", True),
    ("young.experiments", "wilf_graphical_counts", "experiments.wilf_graphical_counts", True),
    ("young.experiments", "macdonald_comparable_mc", "experiments.macdonald_comparable_mc", True),
    ("young.experiments", "tv_distance_mc", "experiments.tv_distance_mc", True),
    ("young.experiments", "tv_distance_k1", "experiments.tv_distance_k1", True),
    ("young.experiments", "surrogate_event_pk", "experiments.surrogate_event_pk", True),
    ("young.asymptotics", "lemma1_bound_check", "asymptotics.lemma1_bound_check", True),
)

# draws kept per n, for timing public partition functions on real inputs
DRAWS_KEPT = 500


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.tag: list[float] = []
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.draws: dict[int, list] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, with_tag, on_result=None):
        nid = self._name_id(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.tag.append(float(args[0]) if with_tag and args else 0.0)
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf()
                self.stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name, "start": self.start,
                       "end": self.end, "parent": self.parent, "tag": self.tag,
                       "counters": self.counters,
                       "draws": {str(n): d for n, d in self.draws.items()}}, fh)


def _hooks(tracer: Tracer) -> dict:
    def draw(args, parts):
        tracer.count("sampling.draws", 1)
        tracer.count("sampling.parts", len(parts))
        kept = tracer.draws.setdefault(int(args[0]), [])
        if len(kept) < DRAWS_KEPT:
            kept.append(parts)

    def graphical(args, ok):
        tracer.count("partitions.checks", 1)
        tracer.count("partitions.graphical", bool(ok))

    def boltzmann(args, result):
        stats = result[1]
        tracer.count("sampling.boltzmann_attempts", stats.attempts)
        tracer.count("sampling.boltzmann_accepted", stats.accepted)

    return {"sampling.draw_uniform_parts": draw, "partitions._nash_williams": graphical,
            "sampling.sample_boltzmann_batch": boltzmann}


def install(tracer: Tracer) -> None:
    """Replace every target with a span-recording wrapper; a missing target raises."""
    hooks = _hooks(tracer)
    for module_name, attr, span, with_tag in TARGETS:
        module = importlib.import_module(module_name)
        if not inspect.ismodule(module):
            raise RuntimeError(f"{module_name} did not resolve to a module")
        owner = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, leaf)
        if not callable(fn):
            raise RuntimeError(f"{module_name}.{attr} is not callable")
        wrapped = tracer.wrap(span, fn, with_tag, hooks.get(span))
        setattr(owner, leaf, staticmethod(wrapped) if inspect.isclass(owner) else wrapped)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = importlib.import_module("young.cli")
    imported = time.perf_counter()
    tracer.name.append(tracer._name_id("cli.import"))
    tracer.parent.append(-1)
    tracer.tag.append(0.0)
    tracer.start.append(T0)
    tracer.end.append(imported)
    install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main, False)(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
