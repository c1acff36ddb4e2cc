"""The three workloads: the CLI calls of one round, and the checks on their output.

A workload seed fixes every generated flag (--seed/--stream values and the
order of the cli-mix calls); the sizes are fixed and tied to the paper's
targets.  A run holds at least two rounds, so every call appears at least
twice with identical flags and its stdout is checked byte for byte.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import jsonschema

HERE = Path(__file__).resolve().parent

# samples per `wilf` call: about 2.3 s, 80% of it draws and checks at 210 us
# each; short enough for a dozen calls in a run, so that their median is steady
WILF_SAMPLES = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[str, ...]                    # set-up plus one unit of work
    round: tuple[tuple[str, ...], ...]
    checks: tuple[tuple[str, ...], ...] = ()  # untimed; the round is checked against them


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")

    def flags() -> tuple[str, ...]:
        return ("--seed", str(rng.randrange(1, 2**31)), "--stream", str(rng.randrange(1000)))

    if name == "wilf-mc":
        call = ("wilf", "--n", "910", "--samples", str(WILF_SAMPLES), *flags())
        return Workload(name, ("sample", "--n", "910", "--count", "1", *flags()), (call,))
    if name == "tv-exact":
        return Workload(name, ("count", "--n", "2500"), (("tv", "--n", "2500"),))
    if name == "cli-mix":
        specs = [
            ("sample", "--n", "220", "--count", "200", *flags()),
            ("sample", "--n", "910", "--count", "200", *flags()),
            ("sample", "--method", "boltzmann", "--n", "400", "--count", "20", *flags()),
            ("sample-surrogate", "--n", "910", "--k", "4", "--count", "500", *flags()),
            ("count-restricted", "--n", "150", "--r", "20", "--s", "30", "--format", "json"),
            ("count-restricted", "--n", "10000", "--r", "300", "--s", "400", "--format", "json"),
            ("macdonald", "--n", "300", "--samples", "2000", *flags()),
            ("pk", "--n", "910", "--k", "16", "--samples", "200000", *flags()),
            ("wilf", "--n", "40", "--exact", "--threads", "1"),
            ("lemma1-grid", "--r-min", "0.99", "--r-max", "0.999", "--r-count", "2",
             "--theta-count", "8", "--format", "json"),
            ("tv", "--mc", "--k", "2", "--n", "910", "--samples", "2000", *flags()),
            ("tv", "--n", "700"),
        ]
        calls = specs * 2
        rng.shuffle(calls)
        oracle = ("count-restricted", "--n", "150", "--r", "20", "--s", "30", "--oracle",
                  "--format", "json")
        return Workload(name, ("sample", "--n", "220", "--count", "1", *flags()),
                        tuple(calls), (oracle,))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("wilf-mc", "tv-exact", "cli-mix")


def opt(argv, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def erdos_gallai(parts) -> bool:
    """Graphicality by the Erdos-Gallai inequalities, independent of the program's tests."""
    if sum(parts) % 2:
        return False
    prefix = 0
    for i in range(1, len(parts) + 1):
        prefix += parts[i - 1]
        if prefix > i * (i - 1) + sum(min(x, i) for x in parts[i:]):
            return False
    return True


class Checker:
    """Checks each call's stdout; errors are returned as strings."""

    def __init__(self, root: Path):
        schema = json.loads((root / "docs" / "cli-schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.exact_draws: dict[int, dict[tuple, list]] = {}   # n -> argv -> draws
        self.restricted: dict[tuple, tuple] = {}            # (n, r, s, oracle) -> (value, argv)

    def check(self, argv, out: bytes) -> list[str]:
        try:
            lines = out.decode().splitlines()
            if not lines:
                return ["empty stdout"]
            if argv[0] == "count" and opt(argv, "--format", "text") == "text":
                return self._count(argv, {"value": lines[0].strip()})
            head = json.loads(lines[0])
            errors = [f"schema: {e.message}" for e in self.validator.iter_errors(head)]
            check = getattr(self, "_" + argv[0].replace("-", "_"))
            return errors + check(argv, head, lines[1:])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unparseable output: {exc!r}"]

    def _count(self, argv, head):
        want = self.expected["partition_counts"][opt(argv, "--n")]
        return [] if head["value"] == want else [f"p(n) = {head['value']}, recorded {want}"]

    def _count_restricted(self, argv, head, body):
        n, r, s = (int(opt(argv, f)) for f in ("--n", "--r", "--s"))
        self.restricted[(n, r, s, head["oracle"])] = (head["value"], tuple(argv))
        want = self.expected["count_restricted"].get(f"{n},{r},{s}")
        if want is not None and head["value"] != want:
            return [f"count_restricted{(n, r, s)} = {head['value']}, recorded {want}"]
        return []

    def _sample(self, argv, head, body):
        n, count = int(opt(argv, "--n")), int(opt(argv, "--count"))
        errors = []
        if (head["n"], head["count"], head["seed"], head["stream_id"]) != (
                n, count, int(opt(argv, "--seed", 0)), int(opt(argv, "--stream", 0))):
            errors.append("header does not echo the flags")
        draws = [tuple(json.loads(line)) for line in body]
        if len(draws) != count:
            errors.append(f"{len(draws)} draws, asked for {count}")
        for parts in draws:
            if (sum(parts) != n or any(p < 1 for p in parts)
                    or any(a < b for a, b in zip(parts, parts[1:]))):
                errors.append(f"not a partition of {n}: {parts[:8]}...")
                break
        if head["method"] == "exact":
            self.exact_draws.setdefault(n, {})[tuple(argv)] = draws
        return errors

    def _sample_surrogate(self, argv, head, body):
        k, count = int(opt(argv, "--k")), int(opt(argv, "--count"))
        rows = [json.loads(line) for line in body]
        if len(rows) != count:
            return [f"{len(rows)} surrogate draws, asked for {count}"]
        for row in rows:
            sums = row["sums"]
            if (any(len(row[key]) != k for key in
                    ("sums", "dual_sums", "col_heights", "row_lengths"))
                    or any(a >= b for a, b in zip(sums, sums[1:])) or sums[0] <= 0):
                return [f"malformed surrogate draw {row}"]
        return []

    def _near(self, label, est, value, stderr):
        sigma = math.sqrt(est["stderr"] ** 2 + stderr ** 2)
        if abs(est["value"] - value) > 4.0 * sigma:
            return [f"{label} {est['value']} is more than 4 sigma ({sigma:.3g}) from {value}"]
        return []

    def _reference(self, key, head, fields):
        ref = self.expected["monte_carlo_references"][key]
        return [e for f in fields
                for e in self._near(f"{key} {f}", head[f], ref[f]["value"], ref[f]["stderr"])]

    def _macdonald(self, argv, head, body):
        return self._reference(f"macdonald {head['n']}", head, ("estimate", "self_dual"))

    def _pk(self, argv, head, body):
        return self._reference(f"pk {head['n']} {head['k']}", head, ("estimate",))

    def _wilf(self, argv, head, body):
        if head["mode"] == "exact":
            want = self.expected["wilf_exact"][str(head["n"])]
            got = {"graphical": head["graphical"], "total": head["total"]}
            return [] if got == want else [f"wilf exact {got}, recorded {want}"]
        target = self.expected["wilf_targets"][str(head["n"])]
        return self._near(f"wilf n={head['n']}", head["estimate"], target, 0.0)

    def _lemma1_grid(self, argv, head, body):
        points = int(opt(argv, "--r-count")) * int(opt(argv, "--theta-count"))
        return [] if head["all_hold"] and head["points"] == points else [f"lemma1 grid {head}"]

    def _tv(self, argv, head, body):
        if head["mode"] == "monte-carlo":
            return [] if head["estimate"]["samples"] == int(opt(argv, "--samples")) else [
                "tv estimate sample count does not echo --samples"]
        want = self.expected["tv_exact"][str(head["n"])]
        if abs(head["tv"] - want) > 1e-9 * want:
            return [f"tv({head['n']}) = {head['tv']!r}, recorded {want!r}"]
        return []

    def pooled(self) -> dict[tuple, list[str]]:
        """Checks across calls: graphical fraction of sampled partitions, and the
        oracle agreement of small restricted counts.  Errors keyed by the argv
        they are charged to."""
        errors: dict[tuple, list[str]] = {}
        for n, by_call in self.exact_draws.items():
            target = self.expected["wilf_targets"].get(str(n))
            draws = [d for ds in by_call.values() for d in ds]
            if target is None or len(draws) < 100:
                continue
            frac = sum(map(erdos_gallai, draws)) / len(draws)
            sigma = math.sqrt(target * (1 - target) / len(draws))
            if abs(frac - target) > 4 * sigma:
                errors.setdefault(next(iter(by_call)), []).append(
                    f"graphical fraction {frac:.4f} of {len(draws)} draws at n={n} is more "
                    f"than 4 sigma from {target}")
        for (n, r, s, oracle), (value, argv) in self.restricted.items():
            if not oracle and n <= 200:
                want = self.restricted.get((n, r, s, True), (None,))[0]
                if want != value:
                    errors.setdefault(argv, []).append(
                        f"count_restricted{(n, r, s)} = {value}, oracle {want}")
        return errors
