"""Command-line interface: one subcommand per operation, machine-readable
output, reproducible seeds.

stdout carries data only; logs and timing go to stderr.  With identical
flags and seed the emitted body is byte-identical run to run.  Exit codes:
0 success, 2 validation error, 3 cache or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

from . import asymptotics, counting, experiments, sampling
from .partitions import Partition


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _emit_csv(header: list[str], rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _stream(args) -> sampling.RngStream:
    return sampling.RngStream(seed=args.seed, stream_id=args.stream)


def _load_table(n: int, args) -> counting.RestrictedCountTable:
    t0 = time.perf_counter()
    table = counting.load_or_build(n, counting.RestrictedCountTable.MODE_LARGEST,
                                   cache_dir=args.cache_dir)
    _log(f"table n_max={n} ready in {time.perf_counter() - t0:.2f}s")
    return table


def cmd_count(args) -> int:
    value = counting.count_partitions(args.n)
    if args.format == "json":
        _emit_json({"op": "count", "n": args.n, "value": str(value)})
    else:
        print(value)
    return 0


def cmd_count_restricted(args) -> int:
    if args.oracle:
        value = counting.coeff_from_product(args.n, args.r, args.s, limit=args.limit)
    else:
        value = counting.count_restricted(args.n, args.r, args.s)
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
    values = [float(x) for x in args.re_values.split(",")]
    rows = []
    for re_u in values:
        u = complex(re_u, args.imag_ratio * re_u)
        rem = asymptotics.freiman_remainder(u)
        rows.append([re_u, u.imag, abs(rem), abs(rem) / abs(u)])
    _emit_csv(["re_u", "im_u", "remainder_abs", "remainder_over_u"], rows)
    return 0


def cmd_lemma1_grid(args) -> int:
    rows = []
    all_hold = True
    for i in range(args.r_count):
        r = args.r_min + (args.r_max - args.r_min) * i / (args.r_count - 1)
        for j in range(args.theta_count):
            theta = -math.pi + 2.0 * math.pi * (j + 1) / args.theta_count
            lhs, rhs = asymptotics.lemma1_bound_check(r, theta)
            ok = lhs <= rhs + 1e-12
            all_hold = all_hold and ok
            rows.append([f"{r:.6f}", f"{theta:.6f}", repr(lhs), repr(rhs), int(ok)])
    if args.format == "json":
        _emit_json({"op": "lemma1-grid", "points": len(rows), "all_hold": all_hold})
    else:
        _emit_csv(["r", "theta", "log_lhs", "log_rhs", "holds"], rows)
    return 0


def cmd_bound(args) -> int:
    value = asymptotics.headline_bound(args.n, args.constant)
    if args.format == "json":
        _emit_json({"op": "bound", "n": args.n, "constant": args.constant, "value": value})
    else:
        print(repr(value))
    return 0


def cmd_sample(args) -> int:
    stream = _stream(args)
    _emit_json({"op": "sample", "n": args.n, "method": args.method,
                "seed": args.seed, "stream_id": args.stream, "count": args.count})
    if args.method == "exact":
        table = _load_table(args.n, args)
        draw = sampling.make_sampler(args.n, stream, table)
        for _ in range(args.count):
            p = Partition(draw())
            sys.stdout.write(json.dumps(p.to_json()) + "\n")
    else:
        draws, stats = sampling.sample_boltzmann_batch(args.n, stream, args.count)
        for p in draws:
            sys.stdout.write(json.dumps(p.to_json()) + "\n")
        _log(f"acceptance rate {stats.acceptance_rate:.3g} over {stats.attempts} attempts")
    return 0


def cmd_sample_surrogate(args) -> int:
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
    t0 = time.perf_counter()
    payload = {"op": "wilf", "n": args.n,
               "bound_011": asymptotics.headline_bound(args.n, 0.11) if args.n >= 16 else None}
    if args.exact:
        graphical, total = experiments.wilf_graphical_counts(args.n, processes=args.threads)
        payload.update({"mode": "exact", "graphical": str(graphical), "total": str(total),
                        "estimate": experiments._exact_estimate(graphical / total, total).to_dict()})
    else:
        table = _load_table(args.n, args)
        est = experiments.wilf_fraction_mc(args.n, args.samples, _stream(args), table)
        payload.update({"mode": "monte-carlo", "estimate": est.to_dict()})
    _emit_json(payload)
    _log(f"wilf n={args.n} done in {time.perf_counter() - t0:.1f}s")
    return 0


def cmd_macdonald(args) -> int:
    payload = {"op": "macdonald", "n": args.n,
               "bound_011": asymptotics.headline_bound(args.n, 0.11) if args.n >= 16 else None}
    if args.exact:
        est = experiments.macdonald_comparable_exact(args.n)
        payload.update({"mode": "exact", "estimate": est.to_dict()})
    else:
        table = _load_table(args.n, args)
        result = experiments.macdonald_comparable_mc(args.n, args.samples, _stream(args), table)
        payload.update({"mode": "monte-carlo",
                        "estimate": result.comparable.to_dict(),
                        "self_dual": result.self_dual.to_dict()})
    _emit_json(payload)
    return 0


def cmd_pk(args) -> int:
    est = experiments.surrogate_event_pk(args.n, args.k, args.samples, _stream(args))
    reference = None
    if args.k >= 16:
        reference = math.exp(-0.445 * math.log(args.k) / math.log(math.log(args.k)))
    _emit_json({"op": "pk", "n": args.n, "k": args.k, "estimate": est.to_dict(),
                "reference_decay": reference})
    return 0


def cmd_chernoff(args) -> int:
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
    if args.mc:
        table = _load_table(args.n, args)
        result = experiments.tv_distance_mc(args.n, args.k, args.samples, _stream(args), table)
        _emit_json({"op": "tv", "mode": "monte-carlo", "n": args.n, "k": args.k,
                    "estimate": result.estimate.to_dict(), "cells": result.cells,
                    "clip": result.clip})
    else:
        if args.k != 1:
            raise ValueError("exact TV is available at k=1 only; use --mc for larger k")
        result = experiments.tv_distance_k1(args.n)
        _emit_json({"op": "tv", "mode": "exact", "n": args.n, "k": 1, "tv": result.tv,
                    "window_hi": result.window_hi, "leak_true": result.leak_true,
                    "leak_model": result.leak_model,
                    "nonpositive_mass": result.nonpositive_mass})
    return 0


def _add_common(sub, *, seed=False, samples=None, cache=False, fmt="json"):
    if seed:
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--stream", type=int, default=0)
    if samples is not None:
        sub.add_argument("--samples", type=int, default=samples)
    if cache:
        sub.add_argument("--cache-dir", default=None,
                         help="count-table cache directory (default: $YOUNG_CACHE_DIR)")
    sub.add_argument("--format", choices=["json", "csv", "text"], default=fmt)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="young",
                                     description="integer partition counting, asymptotics, "
                                                 "sampling and experiments")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("count", help="exact p(n)")
    sub.add_argument("--n", type=int, required=True)
    _add_common(sub, fmt="text")
    sub.set_defaults(func=cmd_count)

    sub = subs.add_parser("count-restricted", help="exact count with bounded part and count")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.add_argument("--s", type=int, required=True)
    sub.add_argument("--oracle", action="store_true", help="use the product-formula oracle")
    sub.add_argument("--limit", type=int, default=200, help="oracle truncation bound")
    _add_common(sub, fmt="text")
    sub.set_defaults(func=cmd_count_restricted)

    sub = subs.add_parser("asymptotic", help="closed-form evaluators")
    sub.add_argument("--kind", choices=["hardy", "restricted", "rousseau-ali"], default="hardy")
    sub.add_argument("--n", type=int, default=1)
    sub.add_argument("--k", type=int, default=1)
    sub.add_argument("--h", type=float, default=None)
    sub.add_argument("--w", type=float, default=None)
    _add_common(sub)
    sub.set_defaults(func=cmd_asymptotic)

    sub = subs.add_parser("freiman-sweep", help="remainder of the Euler-product expansion")
    sub.add_argument("--re-values", default="0.2,0.1,0.05,0.025")
    sub.add_argument("--imag-ratio", type=float, default=0.0)
    _add_common(sub, fmt="csv")
    sub.set_defaults(func=cmd_freiman_sweep)

    sub = subs.add_parser("lemma1-grid", help="product magnitude bound over an (r, theta) grid")
    sub.add_argument("--r-min", type=float, default=0.5)
    sub.add_argument("--r-max", type=float, default=0.999)
    sub.add_argument("--r-count", type=int, default=20)
    sub.add_argument("--theta-count", type=int, default=20)
    _add_common(sub, fmt="csv")
    sub.set_defaults(func=cmd_lemma1_grid)

    sub = subs.add_parser("bound", help="slow-decay probability bound")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--constant", type=float, default=0.11)
    _add_common(sub, fmt="text")
    sub.set_defaults(func=cmd_bound)

    sub = subs.add_parser("sample", help="random partitions, one JSON array per line")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--count", type=int, default=1)
    sub.add_argument("--method", choices=["exact", "boltzmann"], default="exact")
    _add_common(sub, seed=True, cache=True)
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
    sub.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    _add_common(sub, seed=True, samples=1_000_000, cache=True)
    sub.set_defaults(func=cmd_wilf)

    sub = subs.add_parser("macdonald", help="dominance comparability probability")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--exact", action="store_true")
    _add_common(sub, seed=True, samples=100_000, cache=True)
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
    _add_common(sub, seed=True, samples=1_000_000, cache=True)
    sub.set_defaults(func=cmd_tv)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        _log(f"error: {exc}")
        return 2
    except OSError as exc:
        _log(f"io error: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
