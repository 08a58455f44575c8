"""Command-line front end: instance generation, interpolation, benchmark
sweeps, and a golden self-test with pinned randomness."""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
import warnings
from dataclasses import dataclass, fields
from typing import Optional, Sequence, TextIO

from .blackbox import (
    EvaluationOracle,
    format_instance,
    poly_equal,
    random_sparse_polynomial,
    read_instance,
    sparse_polynomial,
    write_instance,
)
from .field import FieldContext, baby_steps, bounded_dlog
from .interpolator import (
    FailReason,
    STAGES,
    interpolate,
    mc_pairs,
    probe_sequence,
)
from .solvers import (
    berlekamp_massey,
    find_distinct_roots,
    solve_transposed_vandermonde,
    vandermonde_master,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAIL_CODES = {
    FailReason.TOO_FEW_ROOTS: 2,
    # 3 stays unused, so that every other code keeps its meaning
    FailReason.DUPLICATE_COEFFICIENT: 4,
    FailReason.COEFFICIENT_MISMATCH: 5,
    FailReason.DLOG_OUT_OF_RANGE: 6,
}

# Golden values for the built-in self-test: a five-term trivariate polynomial
# over F_101 with pinned alpha, zeta and generator. The probe sequence was
# recomputed by direct black-box evaluation; each later value is what a stage
# of interpolate's path gives from it (run_selftest replays that path).
GOLDEN = {
    "p": 101,
    "n": 3,
    "T": 5,
    "D": 5,
    "alpha": (5, 59, 78),
    "zeta": (34, 29, 89),
    "omega": 34,
    "terms": ((1, (0, 0, 0)), (61, (0, 0, 5)), (61, (2, 2, 1)),
              (91, (2, 1, 1)), (91, (0, 1, 2))),
    "probe_seq": (80, 28, 68, 48, 77, 63, 37, 0, 78, 87),
    "lambda": (23, 35, 10, 72, 61, 1),
    "roots": (1, 2, 11, 43, 84),
    "pairs": ((1, 1), (33, 84), (43, 43), (50, 11), (54, 2)),
    "value_rows": {1: (1, 84, 16, 91, 2), 2: (1, 84, 16, 71, 68), 3: (1, 39, 48, 71, 90)},
    "exponent_rows": {1: (0, 0, 2, 2, 0), 2: (0, 0, 2, 1, 1), 3: (0, 5, 1, 1, 2)},
}


def run_selftest() -> list[tuple[str, bool, object, object]]:
    """Replay the pinned example along interpolate's path and return
    (name, ok, expected, actual) per check, one per stage, in order: the
    base run's probes, recurrence, roots and sorted pairs; per variable k,
    the known-coefficient kernel's values (one shared vandermonde_master)
    and the exponent row (one table for all n*t logs); then interpolate's
    outcome, recovered polynomial and probe count."""
    g = GOLDEN
    ctx = FieldContext.for_prime(g["p"])
    p, n, T, D, omega = ctx.p, g["n"], g["T"], g["D"], g["omega"]
    hidden = sparse_polynomial(n, list(g["terms"]), ctx)
    oracle = EvaluationOracle.from_polynomial(hidden, ctx)
    rng = random.Random(0)
    checks: list[tuple[str, bool, object, object]] = []

    def check(name, expected, actual):
        checks.append((name, expected == actual, expected, actual))

    seq = probe_sequence(oracle, g["alpha"], g["zeta"], T, ctx)
    check("probe sequence", g["probe_seq"], tuple(seq))

    rec = berlekamp_massey(seq, ctx)
    check("recurrence polynomial", g["lambda"], rec.lam)

    roots = find_distinct_roots(list(rec.lam), ctx, rng)
    check("roots", g["roots"], tuple(roots))

    pairs = sorted(zip(solve_transposed_vandermonde(roots, seq[: rec.t], ctx), roots))
    check("sorted pairs", g["pairs"], tuple(pairs))

    known = vandermonde_master([c for c, _ in pairs], ctx)
    baby = baby_steps(ctx, omega, D, n * len(pairs))
    for k in range(1, n + 1):
        shifted = mc_pairs(oracle, g["alpha"], g["zeta"], T, ctx, rng,
                           omega=omega, shift_var=k, known=known)
        check(f"values by coefficient k={k}", g["value_rows"][k], tuple(v for _, v in shifted))
        dlogs = tuple(
            bounded_dlog(ctx, omega, vk * pow(v, -1, p) % p, D, baby)
            for (_, vk), (_, v) in zip(shifted, pairs)
        )
        check(f"exponent row k={k}", g["exponent_rows"][k], dlogs)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = interpolate(
            EvaluationOracle.from_polynomial(hidden, ctx), n, T, D, ctx, random.Random(0),
            omega=omega, alpha=g["alpha"], zeta=g["zeta"], force=True,
        )
    check("interpolation outcome", True, report.succeeded)
    check("recovered polynomial", hidden, report.outcome)
    check("probe count", 2 * (n + 1) * T, report.probes)
    return checks


@dataclass
class BenchRecord:
    vary: str
    n: int
    T: int
    D: int
    q: int
    trial: int
    seed: int
    outcome: str
    probes: int
    us_probe: int
    us_bm: int
    us_roots: int
    us_vand: int
    us_dlog: int
    us_assembly: int
    us_total: int


CSV_COLUMNS = [f.name for f in fields(BenchRecord)]


def run_bench(
    vary: str,
    values: Sequence[int],
    *,
    n: int,
    T: int,
    D: int,
    p: int,
    trials: int,
    seed: int,
    t: Optional[int] = None,
) -> list[BenchRecord]:
    """One trial = generate a hidden instance, interpolate it, record outcome,
    probes and stage timings. The varied parameter takes each value in turn;
    per-trial seeds are derived deterministically from the base seed. The
    hidden term count is t (default T), capped at each point's T."""
    if vary not in ("n", "T", "D"):
        raise ValueError("vary must be one of n, T, D")
    ctx = FieldContext.for_prime(p)
    records = []
    for point_idx, val in enumerate(values):
        pn, pT, pD = n, T, D
        if vary == "n":
            pn = val
        elif vary == "T":
            pT = val
        else:
            pD = val
        pt = min(t if t is not None else pT, pT)
        for trial in range(trials):
            trial_seed = seed + 100003 * point_idx + trial
            rng = random.Random(trial_seed)
            hidden = random_sparse_polynomial(pn, pt, pD, ctx, rng)
            oracle = EvaluationOracle.from_polynomial(hidden, ctx)
            t0 = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = interpolate(oracle, pn, pT, pD, ctx, rng, force=True)
            total_us = int((time.perf_counter() - t0) * 1e6)
            if report.succeeded:
                outcome = "success" if poly_equal(report.outcome, hidden) else "wrong-answer"
            else:
                outcome = f"fail:{report.fail_reason.value}"
            records.append(BenchRecord(
                vary, pn, pT, pD, p, trial, trial_seed, outcome, report.probes, us_total=total_us,
                **{f"us_{stage}": us for stage, us in report.stage_timings.items()},
            ))
    return records


def write_bench_csv(records: Sequence[BenchRecord], out: TextIO) -> None:
    """Stable schema: header, one row per trial, then one summary row per
    sweep point (trial column 'mean') with mean timings and success fraction."""
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([getattr(r, name) for name in CSV_COLUMNS])
    groups: dict[tuple, list[BenchRecord]] = {}
    for r in records:
        groups.setdefault((r.vary, r.n, r.T, r.D, r.q), []).append(r)
    for key, rs in groups.items():
        frac = sum(1 for r in rs if r.outcome == "success") / len(rs)
        writer.writerow([
            *key, "mean", rs[0].seed, f"success={frac:.3f}",
            *(round(sum(getattr(r, name) for r in rs) / len(rs)) for name in CSV_COLUMNS[8:]),
        ])


def _parse_fixed_randomness(text: str, n: int) -> tuple[list[int], list[int], int]:
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError("expected 'a1,...,an;z1,...,zn;omega'")
    alpha = [int(x) for x in parts[0].split(",")]
    zeta = [int(x) for x in parts[1].split(",")]
    omega = int(parts[2])
    if len(alpha) != n or len(zeta) != n:
        raise ValueError(f"need {n} alpha and {n} zeta values")
    return alpha, zeta, omega


def cmd_generate(args: argparse.Namespace) -> int:
    ctx = FieldContext.for_prime(args.p)
    rng = random.Random(args.seed)
    f = random_sparse_polynomial(args.n, args.t, args.D, ctx, rng)
    if args.out:
        write_instance(f, args.p, args.D, args.out)
        print(args.out)
    else:
        sys.stdout.write(format_instance(f, args.p, args.D))
    print(f"t={f.term_count}", file=sys.stderr)
    return EXIT_OK


def cmd_interpolate(args: argparse.Namespace) -> int:
    hidden, p, file_D = read_instance(args.instance)
    ctx = FieldContext.for_prime(p)
    n = hidden.n
    T = args.T if args.T is not None else max(1, hidden.term_count)
    D = args.D if args.D is not None else file_D
    alpha = zeta = omega = None
    if args.fixed_randomness:
        alpha, zeta, omega = _parse_fixed_randomness(args.fixed_randomness, n)
    rng = random.Random(args.seed)
    oracle = EvaluationOracle.from_polynomial(hidden, ctx)
    report = interpolate(
        oracle, n, T, D, ctx, rng,
        omega=omega, alpha=alpha, zeta=zeta, force=args.force,
    )
    match = report.succeeded and poly_equal(report.outcome, hidden)
    if args.json:
        payload = {
            "outcome": "success" if report.succeeded else "fail",
            "fail_reason": report.fail_reason.value if report.fail_reason else None,
            "fail_detail": report.fail_detail,
            "match": match,
            "probes": report.probes,
            "stage_timings_us": report.stage_timings,
            "config": report.config,
            "polynomial": (
                [[c, list(e)] for c, e in report.outcome.terms]
                if report.succeeded else None
            ),
        }
        print(json.dumps(payload, indent=2))
    else:
        if report.succeeded:
            sys.stdout.write(format_instance(report.outcome, p, D))
        else:
            print(f"Fail: {report.fail_reason.value} ({report.fail_detail})")
        print(f"probes: {report.probes}")
        print("timing_us: " + " ".join(f"{k}={report.stage_timings[k]}" for k in STAGES))
        print(f"match: {'yes' if match else 'no'}")
    if report.succeeded:
        return EXIT_OK
    return EXIT_FAIL_CODES[report.fail_reason]


def cmd_bench(args: argparse.Namespace) -> int:
    values = [int(x) for x in args.values.split(",")]
    records = run_bench(
        args.vary, values,
        n=args.n, T=args.T, D=args.D, p=args.p,
        trials=args.trials, seed=args.seed, t=args.t,
    )
    if args.out:
        with open(args.out, "w", newline="", encoding="ascii") as fh:
            write_bench_csv(records, fh)
        print(args.out)
    else:
        write_bench_csv(records, sys.stdout)
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    checks = run_selftest()
    ok = True
    for name, passed, expected, actual in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
        if not passed:
            print(f"    expected: {expected}")
            print(f"    actual:   {actual}")
            ok = False
            break
    print("selftest:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseip",
        description="Sparse interpolation of black-box polynomials over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random instance file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--D", type=int, required=True)
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_generate)

    i = sub.add_parser("interpolate", help="interpolate a file-backed oracle")
    i.add_argument("instance")
    i.add_argument("--T", type=int, default=None, help="term bound (default: max(1, t) from file)")
    i.add_argument("--D", type=int, default=None, help="degree bound (default: from file)")
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--force", action="store_true",
                   help="run even when the field is below the guarantee bound")
    i.add_argument("--json", action="store_true")
    i.add_argument("--fixed-randomness", default=None,
                   metavar="a1,...,an;z1,...,zn;omega",
                   help="pin alpha, zeta and the generator (debug/golden runs)")
    i.set_defaults(func=cmd_interpolate)

    b = sub.add_parser("bench", help="run a parameter sweep, emit CSV")
    b.add_argument("--vary", choices=("n", "T", "D"), required=True)
    b.add_argument("--values", required=True, help="comma-separated values for the varied parameter")
    b.add_argument("--n", type=int, default=3)
    b.add_argument("--T", type=int, default=10)
    b.add_argument("--D", type=int, default=100)
    b.add_argument("--t", type=int, default=None,
                   help="hidden instance term count (default: equal to T; capped at T)")
    b.add_argument("--p", type=int, default=140122640051)
    b.add_argument("--trials", type=int, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)

    s = sub.add_parser("selftest", help="replay the pinned golden example")
    s.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
