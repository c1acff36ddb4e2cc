"""Command-line interface: one subcommand per operation, machine-readable
output, reproducible seeds.

stdout carries data only; logs and timing go to stderr.  With identical
flags and seed the emitted body is byte-identical run to run.  Exit codes:
0 success, 2 validation error (an input out of range, float range included),
3 cache or I/O error.

sample, wilf, macdonald and tv --mc draw exact uniform partitions, and the
sampler builds the count table it needs.  That table is cached on disk only
when the environment variable YOUNG_CACHE_DIR names a directory, and no flag
sets one; otherwise nothing is read or written.

Output formats, the default first; `--format` exists only where there are two:

- count, count-restricted, bound: text, json
- asymptotic: json, text
- lemma1-grid: csv, json
- freiman-sweep: csv
- sample, sample-surrogate, wilf, macdonald, pk, chernoff, tv: json

Every call is its own process, so each handler imports the modules that its
subcommand runs, inside the handler, as numpy is imported inside the library
functions that use it.  Only `asymptotics` is imported at the top; `experiments`
loads only for wilf, macdonald, pk, chernoff and tv.  Handlers look functions
up as module attributes at call time.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from collections import Counter

from . import asymptotics


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _emit_csv(header: list[str], rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _stream(args):
    from . import sampling

    return sampling.RngStream(seed=args.seed, stream_id=args.stream)


def cmd_count(args) -> int:
    from . import counting

    value = counting.count_partitions(args.n)
    if args.format == "json":
        _emit_json({"op": "count", "n": args.n, "value": str(value)})
    else:
        print(value)
    return 0


def cmd_count_restricted(args) -> int:
    from . import counting

    if args.oracle:
        value = counting.coeff_from_product(args.n, args.r, args.s)
    else:
        t0 = time.perf_counter()
        value = counting.count_restricted(args.n, args.r, args.s)
        elapsed = time.perf_counter() - t0
        passes, terms = counting.count_restricted_plan(args.n, args.r, args.s)
        _log(f"count-restricted n={args.n} r={args.r} s={args.s} passes={passes} "
             f"terms={terms} ready in {elapsed:.2f}s")
    if args.format == "json":
        _emit_json({"op": "count-restricted", "n": args.n, "r": args.r, "s": args.s,
                    "oracle": bool(args.oracle), "value": str(value)})
    else:
        print(value)
    return 0


def cmd_asymptotic(args) -> int:
    if args.kind == "hardy":
        log_value = asymptotics.hardy_ramanujan_log(args.n)
        payload = {"op": "asymptotic", "kind": "hardy", "n": args.n, "log_value": log_value,
                   "value": math.exp(log_value) if log_value < 700 else None}
    elif args.kind == "restricted":
        if args.h is None or args.w is None:
            raise ValueError("restricted asymptotic needs --h and --w")
        log_value = asymptotics.restricted_asymptotic_log(args.n, args.h, args.w)
        r, s = asymptotics.slant_bounds(args.n, args.h, args.w, rounding="floor")
        payload = {"op": "asymptotic", "kind": "restricted", "n": args.n,
                   "h": args.h, "w": args.w, "r": r, "s": s, "log_value": log_value,
                   "value": math.exp(log_value) if log_value < 700 else None}
    else:
        payload = {"op": "asymptotic", "kind": "rousseau-ali", "k": args.k,
                   "value": asymptotics.rousseau_ali_lower(args.k), "log_value": None}
    if args.format == "text":
        print(payload["value"] if payload["value"] is not None else payload["log_value"])
    else:
        _emit_json(payload)
    return 0


def cmd_freiman_sweep(args) -> int:
    try:
        values = [float(x) for x in args.re_values.split(",")]
    except ValueError as exc:
        raise ValueError(f"--re-values: {exc}") from None
    if not math.isfinite(args.imag_ratio):
        raise ValueError(f"--imag-ratio must be finite, got {args.imag_ratio!r}")
    rows = []
    for re_u in values:
        u = complex(re_u, args.imag_ratio * re_u)
        rem = asymptotics.freiman_remainder(u)
        rows.append([re_u, u.imag, abs(rem), abs(rem) / abs(u)])
    _emit_csv(["re_u", "im_u", "remainder_abs", "remainder_over_u"], rows)
    return 0


# the most Euler-product terms that one lemma1-grid call may sum.  Each point
# is charged `asymptotics.lemma1_point_terms` at the larger end of r: 2082 at
# r = 0.999, 26 at r = 0.05, so the default 20 x 20 grid is charged 832800.
# A call on a grid at the budget takes 0.4-1.7 s at any r from 0.05 to the
# cap (2-core x86 VM).
LEMMA1_GRID_MAX_TERMS = 2 * 10**6


def cmd_lemma1_grid(args) -> int:
    _require_at_least("--r-count", args.r_count, 2)
    _require_at_least("--theta-count", args.theta_count, 1)
    # the grid steps divide by both counts as floats
    asymptotics._float_of("--r-count", args.r_count)
    asymptotics._float_of("--theta-count", args.theta_count)
    for name, end in (("--r-min", args.r_min), ("--r-max", args.r_max)):
        if not 0.0 < end < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {end!r}")

    def radius(i: int) -> float:
        return args.r_min + (args.r_max - args.r_min) * i / (args.r_count - 1)

    # the charge grows with r, so the two ends refuse any grid that would
    # fail part way, or run past its budget, before a row is written
    terms = max(asymptotics.lemma1_point_terms(radius(i)) for i in (0, args.r_count - 1))
    if args.r_count * args.theta_count * terms > LEMMA1_GRID_MAX_TERMS:
        raise ValueError(f"--r-count x --theta-count = {args.r_count * args.theta_count} points "
                         f"x {terms} terms passes the budget of {LEMMA1_GRID_MAX_TERMS} terms")

    def points():
        for r in map(radius, range(args.r_count)):
            for j in range(args.theta_count):
                theta = -math.pi + 2.0 * math.pi * (j + 1) / args.theta_count
                lhs, rhs = asymptotics.lemma1_bound_check(r, theta)
                yield r, theta, lhs, rhs, lhs <= rhs + 1e-12

    # points are tallied or written as they are computed, never held
    if args.format == "json":
        holds = Counter(ok for *_, ok in points())
        _emit_json({"op": "lemma1-grid", "points": holds.total(), "all_hold": not holds[False]})
    else:
        _emit_csv(["r", "theta", "log_lhs", "log_rhs", "holds"],
                  ([f"{r:.6f}", f"{theta:.6f}", repr(lhs), repr(rhs), int(ok)]
                   for r, theta, lhs, rhs, ok in points()))
    return 0


def cmd_bound(args) -> int:
    value = asymptotics.headline_bound(args.n, args.constant)
    if args.format == "json":
        _emit_json({"op": "bound", "n": args.n, "constant": args.constant, "value": value})
    else:
        print(repr(value))
    return 0


def _require_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


# the most Boltzmann draws `sample` holds at once
BOLTZMANN_BLOCK = 1024


def cmd_sample(args) -> int:
    from . import counting, sampling

    _require_at_least("n", args.n, 1)
    _require_at_least("count", args.count, 0)
    if args.method == "exact" and args.n > counting.TABLE_N_MAX:
        raise ValueError(f"exact draws need a count table, limited to n <= "
                         f"{counting.TABLE_N_MAX}; use --method boltzmann")
    if args.method == "boltzmann":
        # also refuses an n too large for Boltzmann draws before the header
        expected_rate = sampling.boltzmann_expected_rate(args.n)
    stream = _stream(args)
    _emit_json({"op": "sample", "n": args.n, "method": args.method,
                "seed": args.seed, "stream_id": args.stream, "count": args.count})
    if args.method == "exact":
        # --count 0 builds no table; exact draws stream out one at a time
        if args.count:
            draw = sampling.make_sampler(args.n, stream)
            for _ in range(args.count):
                sys.stdout.write(json.dumps(draw()) + "\n")
        return 0
    # Boltzmann draws go out in blocks from one generator, so memory does not
    # grow with --count
    gen = stream.generator()
    attempts = 0
    for start in range(0, args.count, BOLTZMANN_BLOCK):
        draws, stats = sampling.sample_boltzmann_batch(
            args.n, gen, min(BOLTZMANN_BLOCK, args.count - start))
        attempts += stats.attempts
        for parts in draws:
            sys.stdout.write(json.dumps(parts) + "\n")
        del draws  # free this block before the next one is drawn
    rate = sampling.BoltzmannStats(attempts, args.count).acceptance_rate
    _log(f"acceptance rate {rate:.3g} (expected {expected_rate:.3g}) over {attempts} attempts")
    return 0


def cmd_sample_surrogate(args) -> int:
    from . import sampling

    sampling._require_surrogate_args(args.n, args.k)
    _require_at_least("count", args.count, 0)
    stream = _stream(args)
    _emit_json({"op": "sample-surrogate", "n": args.n, "k": args.k,
                "seed": args.seed, "stream_id": args.stream, "count": args.count})
    gen = stream.generator()
    for _ in range(args.count):
        draw = sampling.sample_surrogate(args.n, args.k, gen)
        sys.stdout.write(json.dumps({
            "sums": list(draw.sums), "dual_sums": list(draw.dual_sums),
            "col_heights": list(draw.col_heights), "row_lengths": list(draw.row_lengths),
        }, sort_keys=True) + "\n")
    return 0


def cmd_wilf(args) -> int:
    from . import experiments

    t0 = time.perf_counter()
    _require_at_least("n", args.n, 2)
    payload = {"op": "wilf", "n": args.n,
               "bound_011": asymptotics.headline_bound(args.n, 0.11) if args.n >= 16 else None}
    if args.exact:
        graphical, total = experiments.wilf_graphical_counts(args.n)
        payload.update({"mode": "exact", "graphical": str(graphical), "total": str(total),
                        "estimate": experiments._exact_estimate(graphical / total, total)._asdict()})
    else:
        est = experiments.wilf_fraction_mc(args.n, args.samples, _stream(args))
        payload.update({"mode": "monte-carlo", "estimate": est._asdict()})
    _emit_json(payload)
    _log(f"wilf n={args.n} done in {time.perf_counter() - t0:.1f}s")
    return 0


def cmd_macdonald(args) -> int:
    from . import experiments

    payload = {"op": "macdonald", "n": args.n,
               "bound_011": asymptotics.headline_bound(args.n, 0.11) if args.n >= 16 else None}
    if args.exact:
        result = experiments.macdonald_comparable_exact(args.n)
        payload["mode"] = "exact"
    else:
        result = experiments.macdonald_comparable_mc(args.n, args.samples, _stream(args))
        payload.update({"mode": "monte-carlo", "self_dual": result.self_dual._asdict()})
    # "estimate" stays the one-sided P(lam dominates mu) for existing JSON readers
    payload.update({"estimate": result.dominates._asdict(),
                    "comparable": result.comparable._asdict()})
    _emit_json(payload)
    return 0


def cmd_pk(args) -> int:
    from . import experiments

    est = experiments.surrogate_event_pk(args.n, args.k, args.samples, _stream(args))
    reference = None
    if args.k >= 16:
        reference = math.exp(-0.445 * math.log(args.k) / math.log(math.log(args.k)))
    _emit_json({"op": "pk", "n": args.n, "k": args.k, "estimate": est._asdict(),
                "reference_decay": reference})
    return 0


def cmd_chernoff(args) -> int:
    from . import experiments

    if (args.d is None) == (args.beta is None):
        raise ValueError("give exactly one of --d or --beta")
    if args.d is not None:
        check = experiments.chernoff_validate(args.j, args.d, args.samples, _stream(args))
        kind = "deviation"
    else:
        check = experiments.ratio_bound_validate(args.j, args.beta, args.samples, _stream(args))
        kind = "ratio"
    _emit_json({"op": "chernoff", "kind": kind, "j": args.j, "d": args.d, "beta": args.beta,
                "empirical": check.empirical, "bound": check.bound,
                "bound_loose": check.bound_loose, "stderr": check.stderr,
                "samples": check.samples, "dominated": check.dominated})
    return 0


def cmd_tv(args) -> int:
    from . import experiments

    if args.mc:
        result = experiments.tv_distance_mc(args.n, args.k, args.samples, _stream(args))
        _emit_json({"op": "tv", "mode": "monte-carlo", "n": args.n, "k": args.k,
                    "estimate": result.estimate._asdict(), "cells": result.cells,
                    "clip": result.clip})
    else:
        if args.k != 1:
            raise ValueError("exact TV is available at k=1 only; use --mc for larger k")
        t0 = time.perf_counter()
        result = experiments.tv_distance_k1(args.n)
        elapsed = time.perf_counter() - t0
        _emit_json({"op": "tv", "mode": "exact", "n": args.n, "k": 1, "tv": result.tv,
                    "window_hi": result.window_hi, "leak_true": result.leak_true,
                    "leak_model": result.leak_model,
                    "nonpositive_mass": result.nonpositive_mass})
        width = result.window_hi - 1
        diagonals, updates = experiments.box_sweep_work(args.n, width)
        _log(f"tv n={args.n} W={width} diagonals={diagonals} updates={updates} "
             f"ready in {elapsed:.2f}s")
    return 0


def _add_common(sub, *, seed=False, samples=None, formats=()):
    if seed:
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--stream", type=int, default=0)
    if samples is not None:
        sub.add_argument("--samples", type=int, default=samples)
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="young",
                                     description="integer partition counting, asymptotics, "
                                                 "sampling and experiments")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("count", help="exact p(n)")
    sub.add_argument("--n", type=int, required=True)
    _add_common(sub, formats=("text", "json"))
    sub.set_defaults(func=cmd_count)

    sub = subs.add_parser("count-restricted", help="exact count with bounded part and count")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--s", type=int, required=True)
    sub.add_argument("--oracle", action="store_true", help="use the product-formula oracle")
    _add_common(sub, formats=("text", "json"))
    sub.set_defaults(func=cmd_count_restricted)

    sub = subs.add_parser("asymptotic", help="closed-form evaluators")
    sub.add_argument("--kind", choices=["hardy", "restricted", "rousseau-ali"], default="hardy")
    sub.add_argument("--n", type=int, default=1)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--h", type=float, default=None)
    sub.add_argument("--w", type=float, default=None)
    _add_common(sub, formats=("json", "text"))
    sub.set_defaults(func=cmd_asymptotic)

    sub = subs.add_parser("freiman-sweep", help="remainder of the Euler-product expansion")
    sub.add_argument("--re-values", default="0.2,0.1,0.05,0.025")
    sub.add_argument("--imag-ratio", type=float, default=0.0)
    sub.set_defaults(func=cmd_freiman_sweep)

    sub = subs.add_parser("lemma1-grid", help="product magnitude bound over an (r, theta) grid")
    sub.add_argument("--r-min", type=float, default=0.5)
    sub.add_argument("--r-max", type=float, default=0.999)
    sub.add_argument("--r-count", type=int, default=20)
    sub.add_argument("--theta-count", type=int, default=20)
    _add_common(sub, formats=("csv", "json"))
    sub.set_defaults(func=cmd_lemma1_grid)

    sub = subs.add_parser("bound", help="slow-decay probability bound")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--constant", type=float, default=0.11)
    _add_common(sub, formats=("text", "json"))
    sub.set_defaults(func=cmd_bound)

    sub = subs.add_parser("sample", help="random partitions, one JSON array per line")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--count", type=int, default=1)
    sub.add_argument("--method", choices=["exact", "boltzmann"], default="exact")
    _add_common(sub, seed=True)
    sub.set_defaults(func=cmd_sample)

    sub = subs.add_parser("sample-surrogate", help="exponential-sums surrogate draws")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--count", type=int, default=1)
    _add_common(sub, seed=True)
    sub.set_defaults(func=cmd_sample_surrogate)

    sub = subs.add_parser("wilf", help="fraction of graphical partitions")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--exact", action="store_true")
    sub.add_argument("--threads", type=int, help="ignored: the exact sweep runs in one process")
    _add_common(sub, seed=True, samples=1_000_000)
    sub.set_defaults(func=cmd_wilf)

    sub = subs.add_parser("macdonald", help="dominance comparability probability")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--exact", action="store_true")
    _add_common(sub, seed=True, samples=100_000)
    sub.set_defaults(func=cmd_macdonald)

    sub = subs.add_parser("pk", help="surrogate product event probability")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    _add_common(sub, seed=True, samples=1_000_000)
    sub.set_defaults(func=cmd_pk)

    sub = subs.add_parser("chernoff", help="tail bounds against empirical frequencies")
    sub.add_argument("--j", type=int, required=True)
    sub.add_argument("--d", type=float, default=None)
    sub.add_argument("--beta", type=float, default=None)
    _add_common(sub, seed=True, samples=1_000_000)
    sub.set_defaults(func=cmd_chernoff)

    sub = subs.add_parser("tv", help="total variation against the surrogate law")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--mc", action="store_true")
    _add_common(sub, seed=True, samples=1_000_000)
    sub.set_defaults(func=cmd_tv)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OverflowError) as exc:
        _log(f"error: {exc}")
        return 2
    except OSError as exc:
        _log(f"io error: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
