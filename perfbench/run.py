"""Benchmark of sparseip's public interpolation pipeline, end to end and per layer.

One process, one thread, one client in a closed loop: each `interpolate` call
starts when the previous one has returned. Instances come from --seed before
timing starts; each call gets its own random.Random derived from the seed,
and interpolate receives only the oracle, n, T, D, the field and that rng.

    python3 perfbench/run.py --workload many-terms --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1 --out perfbench/BENCH_0.json

--trace 0 measures untraced for --seconds and reports the end-to-end metrics.
--trace 1 measures untraced for half of --seconds, then replays the same
calls with every layer boundary wrapped, and reports the per-layer metrics.
--workload all runs every workload in its own process and prints a table.
The last line of a single-workload run is the result as one JSON object; the
line before it is the full record. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import measure

ROOT = Path(__file__).resolve().parent.parent
P = 140122640051  # ROADMAP aim 1 fixes this prime for every workload.
POOL = 128  # hidden instances per workload; call i uses instance i % POOL
SETUP_REPEATS = 11
MIN_CALLS = 21  # so the tail rule (10 calls above) always lands at or above the median

# (n, T, D) with t = T terms. Each workload loads a different layer; see README.md.
WORKLOADS = {
    "many-terms": (3, 50, 100),  # roots-bound
    "high-degree": (3, 10, 10**8),  # dlog-bound, nearest the guarantee bound
    "many-vars": (40, 5, 1000),  # 41 short probing runs; the black box and probing loop weigh most
}

END_TO_END_UNITS = {
    "interp_per_s": "1/s",
    "interp_s_p50": "s",
    "interp_s_tail": "s",
    "success_rate": "ratio",
    "probes_per_interp": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Names sparseip.interpolator looks up at call time; the traced run wraps each.
TRACED = (
    "mc_pairs",
    "probe_sequence",
    "berlekamp_massey",
    "find_distinct_roots",
    "solve_transposed_vandermonde",
    "bounded_dlog",
    "find_primitive_root",
)

PER_LAYER_UNITS = {
    "blackbox.eval_calls": "count",
    "blackbox.eval_s": "s",
    "blackbox.eval_share": "ratio",
    "interpolator.runs": "count",
    "interpolator.probe_driver_s": "s",
    "interpolator.self_s": "s",
    "solvers.roots_calls": "count",
    "solvers.roots_s": "s",
    "solvers.roots_s_per_call": "s",
    "solvers.roots_share": "ratio",
    "solvers.split_attempts": "count",
    "solvers.split_yield": "ratio",
    "solvers.bm_calls": "count",
    "solvers.bm_s": "s",
    "solvers.recurrence_len": "count",
    "solvers.vand_s": "s",
    "field.dlog_calls": "count",
    "field.dlog_s": "s",
    "field.dlog_us_per_call": "us",
    "field.dlog_share": "ratio",
    "field.primroot_s": "s",
    "field.for_prime_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


class BenchError(Exception):
    """A wrong answer, a probe-count breach or a broken trace."""


def import_sparseip():
    """Import sparseip afresh from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sparseip" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sparseip sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "sparseip" or m.startswith("sparseip.")]:
        del sys.modules[name]
    return importlib.import_module("sparseip")


@dataclass
class Setup:
    sp: object
    ctx: object
    hidden: list
    funcs: list  # the black-box callables behind the oracles
    oracles: list


def black_box(evaluate, f, ctx):
    return lambda point: evaluate(f, point, ctx)


def set_up(name: str, seed: int) -> tuple[Setup, float, float]:
    """Import, field set-up, instance pool and oracles.
    Returns the set-up, its wall time and the FieldContext.for_prime time."""
    n, T, D = WORKLOADS[name]
    t0 = perf_counter()
    sp = import_sparseip()
    t1 = perf_counter()
    ctx = sp.FieldContext.for_prime(P)
    t2 = perf_counter()
    hidden = [
        sp.random_sparse_polynomial(n, T, D, ctx, random.Random(f"{seed}:{name}:instance:{j}"))
        for j in range(POOL)
    ]
    funcs = [black_box(sp.evaluate, f, ctx) for f in hidden]
    oracles = [sp.EvaluationOracle(fn) for fn in funcs]
    t3 = perf_counter()
    return Setup(sp, ctx, hidden, funcs, oracles), t3 - t0, t2 - t1


def call_seed(seed: int, name: str, i: int) -> str:
    return f"{seed}:{name}:call:{i}"


def run_pass(setup: Setup, name: str, seed: int, *, seconds=None, calls=None, tracer=None, interlude=None):
    """Closed loop: call i interpolates instance i % POOL with its own rng.
    Runs until `seconds` have passed and MIN_CALLS are done, or for exactly
    `calls` calls. interlude(elapsed), if given, runs before each call and
    its time is left out of the loop's clocks. Returns the reports, per-call
    wall times, loop wall time and loop CPU time."""
    n, T, D = WORKLOADS[name]
    ctx = setup.ctx
    interpolate, oracles, make_rng = setup.sp.interpolate, setup.oracles, random.Random
    if tracer is not None:
        interpolate = tracer.wrap("interpolate", interpolate)
        oracles = [setup.sp.EvaluationOracle(tracer.wrap("evaluate", fn)) for fn in setup.funcs]
        make_rng = measure.CountingRandom
    reports, times = [], []
    paused = paused_cpu = 0.0
    cpu0 = process_time()
    start = perf_counter()
    while (
        len(reports) < calls
        if calls is not None
        else len(reports) < MIN_CALLS or perf_counter() - start - paused < seconds
    ):
        if interlude is not None:
            t0, c0 = perf_counter(), process_time()
            interlude(t0 - start - paused)
            paused += perf_counter() - t0
            paused_cpu += process_time() - c0
        i = len(reports)
        rng = make_rng(call_seed(seed, name, i))
        oracle = oracles[i % POOL]
        t0 = perf_counter()
        report = interpolate(oracle, n, T, D, ctx, rng)
        times.append(perf_counter() - t0)
        reports.append(report)
    return reports, times, perf_counter() - start - paused, process_time() - cpu0 - paused_cpu


def check(setup: Setup, name: str, reports) -> Counter:
    """Every success must equal its hidden polynomial and use exactly
    2(n+1)T probes; a Fail may use no more. Returns Fail reasons tallied."""
    n, T, _ = WORKLOADS[name]
    budget = 2 * (n + 1) * T
    fails: Counter = Counter()
    for i, report in enumerate(reports):
        if report.succeeded:
            if not setup.sp.poly_equal(report.outcome, setup.hidden[i % POOL]):
                raise BenchError(f"{name} call {i}: wrong polynomial")
            if report.probes != budget:
                raise BenchError(f"{name} call {i}: {report.probes} probes, expected {budget}")
        else:
            if report.probes > budget:
                raise BenchError(f"{name} call {i}: Fail after {report.probes} > {budget} probes")
            fails[report.fail_reason.value] += 1
    return fails


def outcome(report):
    return (report.outcome.terms if report.succeeded else None, report.fail_reason, report.probes)


def count_recurrence(tracer: measure.Tracer, fn):
    def berlekamp_massey(sequence, ctx):
        rec = fn(sequence, ctx)
        tracer.counts["recurrence_len"] += rec.t
        return rec

    return berlekamp_massey


def count_splits(tracer: measure.Tracer, fn):
    """Counts rng draws inside find_distinct_roots (one per splitting
    attempt) and the deg - 1 proper splits each successful call needed."""

    def find_distinct_roots(lam, ctx, rng):
        before = rng.draws
        try:
            roots = fn(lam, ctx, rng)
        finally:
            tracer.counts["split_attempts"] += rng.draws - before
        tracer.counts["split_useful"] += max(len(roots) - 1, 0)
        return roots

    return find_distinct_roots


def traced_pass(setup: Setup, name: str, seed: int, calls: int):
    """Replays calls 0..calls-1 with every TRACED name, the oracle callable
    and interpolate itself wrapped; the originals are restored afterwards."""
    tracer = measure.Tracer()
    wrappers = {fn_name: (lambda fn, fn_name=fn_name: tracer.wrap(fn_name, fn)) for fn_name in TRACED}
    wrappers["berlekamp_massey"] = lambda fn: tracer.wrap("berlekamp_massey", count_recurrence(tracer, fn))
    wrappers["find_distinct_roots"] = lambda fn: tracer.wrap("find_distinct_roots", count_splits(tracer, fn))
    with measure.patched(setup.sp.interpolator, wrappers):
        reports, times, _, _ = run_pass(setup, name, seed, calls=calls, tracer=tracer)
    fired = Counter(span[0] for span in tracer.spans)
    silent = [fn_name for fn_name in (*TRACED, "evaluate", "interpolate") if not fired[fn_name]]
    if silent:
        raise BenchError(f"{name}: traced names never fired: {', '.join(silent)}")
    return reports, times, tracer


def layer_metrics(tracer: measure.Tracer, calls: int, untraced_p50: float, traced_p50: float, for_prime_s: float) -> dict:
    """Per-layer figures per interpolate call. Inclusive span time for the
    leaf layers, self time for probe_sequence and the interpolator."""
    total: Counter = Counter()
    own: Counter = Counter()
    count: Counter = Counter()
    for (fn_name, start, end, _), self_s in zip(tracer.spans, measure.self_times(tracer.spans)):
        total[fn_name] += end - start
        own[fn_name] += self_s
        count[fn_name] += 1
    interp = total["interpolate"]
    roots, bm, dlog = "find_distinct_roots", "berlekamp_massey", "bounded_dlog"
    interpolator_self = own["interpolate"] + own["mc_pairs"]
    attempts = tracer.counts["split_attempts"]
    accounted = (
        total["evaluate"] + own["probe_sequence"] + total[bm] + total[roots]
        + total["solve_transposed_vandermonde"] + total[dlog] + total["find_primitive_root"]
        + interpolator_self
    )
    return {
        "blackbox.eval_calls": count["evaluate"] / calls,
        "blackbox.eval_s": total["evaluate"] / calls,
        "blackbox.eval_share": total["evaluate"] / interp,
        "interpolator.runs": count["mc_pairs"] / calls,
        "interpolator.probe_driver_s": own["probe_sequence"] / calls,
        "interpolator.self_s": interpolator_self / calls,
        "solvers.roots_calls": count[roots] / calls,
        "solvers.roots_s": total[roots] / calls,
        "solvers.roots_s_per_call": total[roots] / count[roots],
        "solvers.roots_share": total[roots] / interp,
        "solvers.split_attempts": attempts / calls,
        "solvers.split_yield": tracer.counts["split_useful"] / attempts if attempts else 0.0,
        "solvers.bm_calls": count[bm] / calls,
        "solvers.bm_s": total[bm] / calls,
        "solvers.recurrence_len": tracer.counts["recurrence_len"] / count[bm],
        "solvers.vand_s": total["solve_transposed_vandermonde"] / calls,
        "field.dlog_calls": count[dlog] / calls,
        "field.dlog_s": total[dlog] / calls,
        "field.dlog_us_per_call": 1e6 * total[dlog] / count[dlog],
        "field.dlog_share": total[dlog] / interp,
        "field.primroot_s": total["find_primitive_root"] / calls,
        "field.for_prime_s": for_prime_s,
        "trace.overhead": traced_p50 / untraced_p50 - 1,
        "trace.coverage": accounted / interp,
    }


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: a machine-speed reference."""
    runs = []
    for _ in range(5):
        t0 = perf_counter()
        x = 1
        for _ in range(200_000):
            x = x * 48271 % 2147483647
        runs.append(perf_counter() - t0)
    return statistics.median(runs)


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def with_units(values: dict, units: dict) -> dict:
    return {key: {"value": values[key], "unit": units[key]} for key in units}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (record, result): the full record and the one-line result."""
    n, T, D = WORKLOADS[name]
    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "p": P,
        "loadavg_start": os.getloadavg(),
        "calibration_s_start": calibrate(),
    }
    setups = [set_up(name, seed)]
    setup = setups[0][0]
    setup.sp.interpolate(setup.oracles[0], n, T, D, setup.ctx, random.Random(f"{seed}:{name}:warmup"))

    # The other set-ups are spread evenly over the timed loop, outside its
    # clocks, so that setup_s samples the machine's speed across the whole
    # run rather than in one burst.
    untraced_s = seconds / 2 if trace else seconds

    def set_up_again(elapsed: float) -> None:
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * untraced_s / SETUP_REPEATS:
            setups.append(set_up(name, seed))

    reports, times, wall_s, cpu_s = run_pass(setup, name, seed, seconds=untraced_s, interlude=set_up_again)
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(name, seed))
    fails = check(setup, name, reports)
    calls = len(times)
    tail_pct, tail_s = measure.tail_percentile(times)
    p50 = statistics.median(times)
    end_to_end = {
        "interp_per_s": calls / wall_s,
        "interp_s_p50": p50,
        "interp_s_tail": tail_s,
        "success_rate": 1 - sum(fails.values()) / calls,
        "probes_per_interp": sum(r.probes for r in reports) / calls,
        "setup_s": statistics.median(s for _, s, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "workload": name,
        "shape": {"n": n, "T": T, "t": T, "D": D},
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "calls": calls,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "fail_rate": sum(fails.values()) / calls,
        "fail_reasons": dict(fails),
        "tail_percentile": tail_pct,
        "end_to_end": with_units(end_to_end, END_TO_END_UNITS),
    }
    attempted, failed = calls, sum(fails.values())
    metrics = record["end_to_end"]
    if trace:
        t_reports, t_times, tracer = traced_pass(setup, name, seed, calls)
        check(setup, name, t_reports)
        for i, (plain, traced) in enumerate(zip(reports, t_reports)):
            if outcome(plain) != outcome(traced):
                raise BenchError(f"{name} call {i}: traced outcome differs from untraced")
        for_prime_s = statistics.median(s for _, _, s in setups)
        per_layer = layer_metrics(tracer, calls, p50, statistics.median(t_times), for_prime_s)
        record["per_layer"] = metrics = with_units(per_layer, PER_LAYER_UNITS)
        attempted, failed = 2 * calls, 2 * failed
    env["loadavg_end"] = os.getloadavg()
    env["calibration_s_end"] = calibrate()
    record["environment"] = env
    return record, {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for key, m in metrics.items():
        print(f"  {key:30s} {m['value']:.6g} {m['unit']}")


def run_all(seed: int, seconds: float, trace: bool, out: str | None) -> int:
    """Each workload in its own process, untraced, and traced too if asked."""
    records: dict = {}
    for name in WORKLOADS:
        for traced in (False, True) if trace else (False,):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                print(f"perfbench: {name} failed", file=sys.stderr)
                return 1
            record = json.loads(proc.stdout.splitlines()[-2])
            records.setdefault(name, {})["traced" if traced else "untraced"] = record
    for name, runs in records.items():
        plain = runs["untraced"]
        n, T, D = WORKLOADS[name]
        print(f"{name} (n={n}, T=t={T}, D={D}): {plain['calls']} calls, "
              f"tail = p{plain['tail_percentile']:.1f}, fail_rate = {plain['fail_rate']:.4g}, "
              f"fails {plain['fail_reasons']}")
        print_metrics(" end to end (untraced)", plain["end_to_end"])
        if "traced" in runs:
            print_metrics(" per layer (traced)", runs["traced"]["per_layer"])
    if out:
        Path(out).write_text(json.dumps(records, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: write every record here as JSON")
    args = ap.parse_args(argv)
    import_sparseip()  # exits early when the sources are missing
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.out)
    try:
        record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}; no result recorded", file=sys.stderr)
        return 1
    print_metrics(f"{args.workload} ({record['calls']} calls, tail = p{record['tail_percentile']:.1f})",
                  record["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
