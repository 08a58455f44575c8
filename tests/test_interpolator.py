import importlib.util
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sparseip.blackbox import (
    EvaluationOracle,
    evaluate,
    poly_equal,
    random_sparse_polynomial,
    sparse_polynomial,
)
from sparseip import interpolator
from sparseip.field import FieldContext
from sparseip.interpolator import (
    InterpolationFailure,
    FailReason,
    FieldTooSmallError,
    interpolate,
    mc_pairs,
    min_field_size,
    probe_sequence,
    success_probability_bound,
)
from sparseip.solvers import vandermonde_master

P101 = FieldContext.for_prime(101)

EXAMPLE = sparse_polynomial(
    3,
    [(91, (0, 1, 2)), (91, (2, 1, 1)), (61, (2, 2, 1)), (61, (0, 0, 5)), (1, (0, 0, 0))],
    P101,
)
ALPHA = (5, 59, 78)
ZETA = (34, 29, 89)
OMEGA = 34


def _oracle():
    return EvaluationOracle.from_polynomial(EXAMPLE, P101)


def test_probe_sequence_base_run():
    seq = probe_sequence(_oracle(), ALPHA, ZETA, 5, P101)
    assert seq == [80, 28, 68, 48, 77, 63, 37, 0, 78, 87]


def test_probe_sequence_starts_at_zeta():
    oracle = _oracle()
    seq = probe_sequence(oracle, ALPHA, ZETA, 1, P101)
    assert seq[0] == evaluate(EXAMPLE, ZETA, P101)


def test_probe_sequence_shifted_matches_explicit_points():
    for k in (1, 2, 3):
        seq = probe_sequence(_oracle(), ALPHA, ZETA, 5, P101, omega=OMEGA, shift_var=k)
        mult = list(ALPHA)
        mult[k - 1] = mult[k - 1] * OMEGA % 101
        expected = [
            evaluate(EXAMPLE, [z * pow(m, i, 101) % 101 for z, m in zip(ZETA, mult)], P101)
            for i in range(10)
        ]
        assert seq == expected


def test_probe_sequence_probe_count():
    oracle = _oracle()
    probe_sequence(oracle, ALPHA, ZETA, 7, P101)
    assert oracle.probe_count == 14


def test_mc_pairs_golden():
    rng = random.Random(0)
    pairs = mc_pairs(_oracle(), ALPHA, ZETA, 5, P101, rng)
    assert pairs == [(1, 1), (33, 84), (43, 43), (50, 11), (54, 2)]


def test_mc_pairs_constant_polynomial():
    rng = random.Random(1)
    const = sparse_polynomial(2, [(42, (0, 0))], P101)
    oracle = EvaluationOracle.from_polynomial(const, P101)
    assert mc_pairs(oracle, (3, 7), (5, 9), 3, P101, rng) == [(42, 1)]


def test_mc_pairs_zero_polynomial():
    rng = random.Random(2)
    zero = sparse_polynomial(2, [], P101)
    oracle = EvaluationOracle.from_polynomial(zero, P101)
    assert mc_pairs(oracle, (3, 7), (5, 9), 3, P101, rng) == []


def test_mc_pairs_matches_direct_monomial_evaluation():
    rng = random.Random(3)
    ctx = FieldContext.for_prime(140122640051)
    for _ in range(20):
        n, t = 3, rng.randrange(1, 9)
        f = random_sparse_polynomial(n, t, 20, ctx, rng)
        alpha = [rng.randrange(1, ctx.p) for _ in range(n)]
        zeta = [rng.randrange(1, ctx.p) for _ in range(n)]
        oracle = EvaluationOracle.from_polynomial(f, ctx)
        pairs = mc_pairs(oracle, alpha, zeta, t, ctx, rng)
        expected = []
        for c, e in f.terms:
            v = 1
            ct = c
            for a, z, k in zip(alpha, zeta, e):
                v = v * pow(a, k, ctx.p) % ctx.p
                ct = ct * pow(z, k, ctx.p) % ctx.p
            expected.append((ct, v))
        assert pairs == sorted(expected)


def test_mc_pairs_reconstruction_identity():
    oracle = _oracle()
    seq = probe_sequence(oracle, ALPHA, ZETA, 5, P101)
    pairs = mc_pairs(_oracle(), ALPHA, ZETA, 5, P101, random.Random(4))
    for j in range(10):
        acc = sum(c * pow(v, j, 101) for c, v in pairs) % 101
        assert acc == seq[j]


def test_interpolate_golden_example():
    oracle = _oracle()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = interpolate(
            oracle, 3, 5, 5, P101, random.Random(0),
            omega=OMEGA, alpha=ALPHA, zeta=ZETA, force=True,
        )
    assert report.succeeded
    assert poly_equal(report.outcome, EXAMPLE)
    assert report.probes == 2 * (3 + 1) * 5 == 40


def test_interpolate_single_term():
    ctx = FieldContext.for_prime(140122640051)
    f = sparse_polynomial(1, [(123456, (17,))], ctx)
    oracle = EvaluationOracle.from_polynomial(f, ctx)
    report = interpolate(oracle, 1, 1, 20, ctx, random.Random(5))
    assert report.succeeded and poly_equal(report.outcome, f)
    assert report.probes == 4


def test_interpolate_term_bound_larger_than_t():
    ctx = FieldContext.for_prime(140122640051)
    rng = random.Random(6)
    f = random_sparse_polynomial(3, 5, 10, ctx, rng)
    oracle = EvaluationOracle.from_polynomial(f, ctx)
    T = 8
    report = interpolate(oracle, 3, T, 10, ctx, rng)
    assert report.succeeded and poly_equal(report.outcome, f)
    assert report.probes == 2 * 4 * T


def test_interpolate_rejects_small_field_without_force():
    oracle = _oracle()
    with pytest.raises(FieldTooSmallError):
        interpolate(oracle, 3, 5, 5, P101, random.Random(0))


def test_interpolate_warns_under_force():
    oracle = _oracle()
    with pytest.warns(UserWarning):
        interpolate(oracle, 3, 5, 5, P101, random.Random(0), force=True)


def test_interpolate_rejects_bad_omega():
    ctx = FieldContext.for_prime(140122640051)
    f = sparse_polynomial(1, [(5, (1,))], ctx)
    oracle = EvaluationOracle.from_polynomial(f, ctx)
    with pytest.raises(ValueError):
        interpolate(oracle, 1, 1, 5, ctx, random.Random(0), omega=1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: probe_sequence(_oracle(), ALPHA, ZETA, 1, P101, omega=OMEGA, shift_var=4),
         "shift_var out of range"),
        (lambda: probe_sequence(_oracle(), ALPHA, ZETA, 1, P101, shift_var=1),
         "shifted run requires omega"),
        (lambda: probe_sequence(_oracle(), (2, 3), (5,), 2, P101, omega=2, shift_var=2),
         "alpha and zeta must have equal length"),
        (lambda: mc_pairs(_oracle(), (2, 3), (5,), 2, P101, random.Random(0)),
         "alpha and zeta must have equal length"),
        (lambda: interpolate(_oracle(), 0, 5, 5, P101, random.Random(0)),
         "need n >= 1, T >= 1, D >= 0"),
        (lambda: interpolate(_oracle(), 3, 0, 5, P101, random.Random(0)),
         "need n >= 1, T >= 1, D >= 0"),
        (lambda: interpolate(_oracle(), 3, 5, -1, P101, random.Random(0)),
         "need n >= 1, T >= 1, D >= 0"),
        (lambda: interpolate(_oracle(), 3, 5, 100, P101, random.Random(0), force=True),
         "degree bound must be below p - 1"),
        (lambda: interpolate(_oracle(), 3, 5, 5, P101, random.Random(0), alpha=ALPHA[:2],
                             force=True),
         "alpha and zeta must be n nonzero field elements"),
        (lambda: interpolate(_oracle(), 3, 5, 5, P101, random.Random(0), zeta=(34, 29, 101),
                             force=True),
         "alpha and zeta must be n nonzero field elements"),
    ],
)
def test_interpolator_precondition_errors(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError) as exc:
            call()
    assert str(exc.value) == message


def test_interpolate_at_p_two():
    # F_2 has one nonzero element, so alpha = zeta = omega = 1 and D = 0
    ctx = FieldContext.for_prime(2)
    for terms in ([(1, (0, 0))], []):
        f = sparse_polynomial(2, terms, ctx)
        report = interpolate(EvaluationOracle.from_polynomial(f, ctx), 2, 1, 0, ctx, random.Random(0))
        assert report.succeeded and poly_equal(report.outcome, f)
        assert report.probes == 2 * 3 * 1


def test_interpolate_forced_monomial_collision_fails_or_wrong():
    # alpha = (1, 1): every monomial evaluates to 1, a hard Assumption-1
    # violation. Must be a clean Fail, never a crash.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = interpolate(
            _oracle(), 3, 5, 5, P101, random.Random(7),
            omega=OMEGA, alpha=(1, 1, 1), zeta=ZETA, force=True,
        )
    assert not report.succeeded
    assert report.fail_reason in set(FailReason)


def test_interpolate_duplicate_coefficients_fail():
    # zeta = (1,1,1) leaves the example's duplicate coefficients in place
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = interpolate(
            _oracle(), 3, 5, 5, P101, random.Random(8),
            omega=OMEGA, alpha=ALPHA, zeta=(1, 1, 1), force=True,
        )
    assert not report.succeeded
    assert report.fail_reason == FailReason.DUPLICATE_COEFFICIENT
    assert report.fail_detail.startswith("base run: ")


def test_interpolate_timings_and_config_echo():
    ctx = FieldContext.for_prime(140122640051)
    rng = random.Random(9)
    f = random_sparse_polynomial(2, 4, 10, ctx, rng)
    oracle = EvaluationOracle.from_polynomial(f, ctx)
    report = interpolate(oracle, 2, 4, 10, ctx, rng)
    assert set(report.stage_timings) == {"probe", "bm", "roots", "vand", "dlog", "assembly"}
    assert report.config["n"] == 2 and report.config["p"] == ctx.p
    assert len(report.config["alpha"]) == 2


def test_success_probability_bound():
    # at the guarantee threshold the bound is >= 3/4
    for n, T, D in [(1, 1, 1), (3, 5, 5), (3, 10, 20), (8, 30, 10)]:
        q = 2 * (n + 2) * T * T * D + 1
        assert success_probability_bound(n, T, D, q) >= Fraction(3, 4)
    assert success_probability_bound(5, 1, 100, 7) == 1
    # worked-example regime is below the guarantee: bound clamps to 0
    assert success_probability_bound(3, 5, 5, 101) == 0
    with pytest.raises(ValueError):
        success_probability_bound(1, 1, 1, 1)


def test_success_rate_is_not_below_the_bound():
    # At q = 641, n = 2, T = 4, D = 8 the bound is 0.7 (q is below the
    # guarantee threshold, so force=True). Over 300 seeded calls on random
    # instances every success must be exact, and a one-sided binomial test
    # (scipy, test-only) must not find the success count below the bound.
    from scipy.stats import binomtest

    n, T, D, q, calls = 2, 4, 8, 641, 300
    ctx = FieldContext.for_prime(q)
    bound = success_probability_bound(n, T, D, q)
    assert Fraction(1, 2) < bound < Fraction(19, 20)
    successes = 0
    for seed in range(calls):
        rng = random.Random(seed)
        f = random_sparse_polynomial(n, T, D, ctx, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = interpolate(EvaluationOracle.from_polynomial(f, ctx), n, T, D, ctx, rng, force=True)
        if report.succeeded:
            assert poly_equal(report.outcome, f), seed
            successes += 1
    assert binomtest(successes, calls, float(bound), alternative="less").pvalue > 1e-3


def test_min_field_size():
    assert min_field_size(3, 5, 5, Fraction(1, 4)) == 1001
    assert min_field_size(3, 1, 5, Fraction(1, 4)) == 2
    with pytest.raises(ValueError):
        min_field_size(3, 5, 5, 0)
    with pytest.raises(ValueError):
        min_field_size(3, 5, 5, 1)


def test_guard_is_stricter_than_min_field_size():
    # The guard 2(n+2)T^2D + 1 is a simpler sufficient bound than
    # min_field_size(n, T, D, 1/4): at (3, 10, 20) it is 20001 against 18001,
    # so p = 19997 has a bound of at least 3/4 and still needs force.
    n, T, D, p = 3, 10, 20, 19997
    assert min_field_size(n, T, D, Fraction(1, 4)) == 18001 < p < 2 * (n + 2) * T * T * D + 1
    assert success_probability_bound(n, T, D, p) == Fraction(3874, 4999) >= Fraction(3, 4)
    ctx = FieldContext.for_prime(p)
    rng = random.Random(0)
    f = random_sparse_polynomial(n, T, D, ctx, rng)
    with pytest.raises(FieldTooSmallError):
        interpolate(EvaluationOracle.from_polynomial(f, ctx), n, T, D, ctx, rng)
    with pytest.warns(UserWarning):
        report = interpolate(EvaluationOracle.from_polynomial(f, ctx), n, T, D, ctx, rng, force=True)
    assert report.succeeded and poly_equal(report.outcome, f)


def test_cross_run_coefficient_invariance():
    ctx = FieldContext.for_prime(140122640051)
    rng = random.Random(10)
    for _ in range(10):
        f = random_sparse_polynomial(3, 6, 15, ctx, rng)
        alpha = [rng.randrange(1, ctx.p) for _ in range(3)]
        zeta = [rng.randrange(1, ctx.p) for _ in range(3)]
        omega = 2
        oracle = EvaluationOracle.from_polynomial(f, ctx)
        base = mc_pairs(oracle, alpha, zeta, 6, ctx, rng)
        for k in (1, 2, 3):
            shifted = mc_pairs(oracle, alpha, zeta, 6, ctx, rng, omega=omega, shift_var=k)
            assert [c for c, _ in shifted] == [c for c, _ in base]


def test_mc_pairs_known_coefficients_give_the_same_pairs():
    base = mc_pairs(_oracle(), ALPHA, ZETA, 5, P101, random.Random(0))
    coeffs = [c for c, _ in base]
    known = vandermonde_master(coeffs, P101)
    wrong = vandermonde_master(coeffs[:-1] + [coeffs[-1] + 1], P101)
    for k in (1, 2, 3):
        plain_rng = random.Random(1)
        plain = mc_pairs(_oracle(), ALPHA, ZETA, 5, P101, plain_rng, omega=OMEGA, shift_var=k)
        assert plain_rng.getstate() != random.Random(1).getstate()  # root finding drew
        # known coefficients: values by power projection, nothing drawn from rng
        rng = random.Random(1)
        state = rng.getstate()
        oracle = _oracle()
        timings = {}
        assert mc_pairs(oracle, ALPHA, ZETA, 5, P101, rng, omega=OMEGA, shift_var=k,
                        timings=timings, known=known) == plain
        assert rng.getstate() == state and oracle.probe_count == 10
        assert "roots" in timings and "vand" not in timings
        # a list the run does not carry: the kernel names the Fail, and
        # nothing is drawn from rng
        oracle, timings = _oracle(), {}
        with pytest.raises(InterpolationFailure) as exc:
            mc_pairs(oracle, ALPHA, ZETA, 5, P101, rng, omega=OMEGA, shift_var=k,
                     timings=timings, known=wrong)
        assert exc.value.reason == FailReason.COEFFICIENT_MISMATCH
        assert str(exc.value) == f"variable {k}: {MISMATCH}"
        assert oracle.probe_count == 10 and "vand" not in timings
        assert rng.getstate() == state


MISMATCH = "shifted coefficient list disagrees with base run"


def _root_finding_verdict(f, ctx, T, config, k):
    """The Fail that root finding, the solve and a comparison of sorted
    coefficient lists give variable k's run, or None: an oracle for the
    known-coefficient kernel's verdict that does not call the kernel."""
    alpha, zeta, omega = config["alpha"], config["zeta"], config["omega"]
    base = mc_pairs(EvaluationOracle.from_polynomial(f, ctx), alpha, zeta, T, ctx, random.Random(0))
    try:
        shifted = mc_pairs(EvaluationOracle.from_polynomial(f, ctx), alpha, zeta, T, ctx,
                           random.Random(0), omega=omega, shift_var=k)
    except InterpolationFailure as exc:
        return exc.reason, str(exc)
    if [c for c, _ in shifted] != [c for c, _ in base]:
        return FailReason.COEFFICIENT_MISMATCH, f"variable {k}: {MISMATCH}"
    return None


def test_shifted_run_fails_agree_with_root_finding(monkeypatch):
    # Far below the guarantee bound, shifted runs Fail often. Each such Fail
    # must be the one root finding and the coefficient-list comparison give;
    # neither depends on rng, since found roots come out sorted. Only the
    # base run finds roots, also when a shifted run Fails.
    found = []
    real = interpolator.find_distinct_roots
    monkeypatch.setattr(interpolator, "find_distinct_roots",
                        lambda *args: found.append(args) or real(*args))
    seen = {FailReason.COEFFICIENT_MISMATCH: 0, FailReason.TOO_FEW_ROOTS: 0}
    fields = [FieldContext.for_prime(101), FieldContext.for_prime(1009)]
    for seed in range(300):
        rng = random.Random(seed)
        ctx = fields[seed % 2]
        n, t, D = rng.randint(1, 3), rng.randint(1, 8), rng.randint(1, 20)
        t = min(t, (D + 1) ** n)
        T = max(1, t - rng.randint(0, 2))
        f = random_sparse_polynomial(n, t, D, ctx, rng)
        found.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = interpolate(EvaluationOracle.from_polynomial(f, ctx), n, T, D, ctx, rng, force=True)
        assert len(found) == 1, seed
        run = (report.fail_detail or "").split(":")[0]
        if not run.startswith("variable ") or "," in run:  # not a shifted run's own Fail
            continue
        k = int(run.split()[1])
        expected = _root_finding_verdict(f, ctx, T, report.config, k)
        assert expected == (report.fail_reason, report.fail_detail), seed
        seen[report.fail_reason] += 1
    assert min(seen.values()) >= 5, seen


def test_perfbench_traced_names_fire_in_interpolate(monkeypatch):
    # perfbench/run.py wraps each TRACED name in sparseip.interpolator and
    # refuses a trace in which one never fires; a reroute shows here first.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    monkeypatch.syspath_prepend(str(path.parent))  # run.py imports its sibling measure
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses look it up
    spec.loader.exec_module(bench)
    fired = set()
    for name in bench.TRACED:
        assert hasattr(interpolator, name), name
        real = getattr(interpolator, name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            fired.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(interpolator, name, wrapper)
    ctx = FieldContext.for_prime(140122640051)
    rng = random.Random(5)
    f = random_sparse_polynomial(2, 3, 10, ctx, rng)
    report = interpolate(EvaluationOracle.from_polynomial(f, ctx), 2, 3, 10, ctx, rng)
    assert report.succeeded and poly_equal(report.outcome, f)
    assert [name for name in bench.TRACED if name not in fired] == []


def test_mc_pairs_fail_names_its_run():
    # T = 3 understates the example's five terms
    with pytest.raises(InterpolationFailure) as base:
        mc_pairs(_oracle(), ALPHA, ZETA, 3, P101, random.Random(0))
    assert base.value.reason == FailReason.TOO_FEW_ROOTS
    assert str(base.value) == "base run: only 0 distinct roots for degree 3"
    with pytest.raises(InterpolationFailure) as shifted:
        mc_pairs(_oracle(), ALPHA, ZETA, 3, P101, random.Random(0), omega=OMEGA, shift_var=3)
    assert str(shifted.value) == "variable 3: only 1 distinct roots for degree 3"
    # with known coefficients the kernel names the same Fail and draws nothing
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InterpolationFailure) as known:
        mc_pairs(_oracle(), ALPHA, ZETA, 3, P101, rng, omega=OMEGA, shift_var=3,
                 known=vandermonde_master([1, 2, 3], P101))
    assert known.value.reason == FailReason.TOO_FEW_ROOTS
    assert str(known.value) == str(shifted.value) and rng.getstate() == state


def _planted_oracle(lam, p):
    # n = 1, alpha = 2, zeta = 1: probe j is at 2^j (2 generates F_101^*)
    # and returns the j-th term of lam's impulse response, 0, .., 0, 1 and
    # then lam's recurrence, whose minimal generator is lam.
    t = len(lam) - 1
    seq = [0] * (t - 1) + [1]
    for i in range(t):
        seq.append(-sum(c * a for c, a in zip(lam, seq[i:])) % p)
    index = {pow(2, j, p): j for j in range(2 * t)}
    return EvaluationOracle(lambda point: seq[index[point[0]]])


@pytest.mark.parametrize(
    "lam, detail",
    [
        ([56, 39, 90, 1], "only 2 distinct roots for degree 3"),  # (z-3)^2 (z-5)
        ([97, 6, 0, 98, 1], "only 2 distinct roots for degree 4"),  # (z-1)(z-2)(z^2-2)
        ([99, 0, 1], "only 0 distinct roots for degree 2"),  # z^2 - 2, 2 a non-residue
    ],
)
def test_too_few_roots_detail_reaches_the_report(lam, detail):
    t = len(lam) - 1
    with pytest.raises(InterpolationFailure) as exc:
        mc_pairs(_planted_oracle(lam, 101), (2,), (1,), t, P101, random.Random(0))
    assert str(exc.value) == f"base run: {detail}"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = interpolate(
            _planted_oracle(lam, 101), 1, t, 5, P101, random.Random(0),
            omega=OMEGA, alpha=(2,), zeta=(1,), force=True,
        )
    assert report.fail_reason == FailReason.TOO_FEW_ROOTS
    assert report.fail_detail == f"base run: {detail}"
    assert report.probes == 2 * t


def _count_tables(monkeypatch):
    """Record every baby_steps table interpolate builds and the table each
    bounded_dlog call receives."""
    built, used = [], []
    real_baby_steps, real_bounded_dlog = interpolator.baby_steps, interpolator.bounded_dlog

    def baby_steps(*args):
        built.append(real_baby_steps(*args))
        return built[-1]

    def bounded_dlog(ctx, omega, target, bound, baby=None):
        used.append(baby)
        return real_bounded_dlog(ctx, omega, target, bound, baby)

    monkeypatch.setattr(interpolator, "baby_steps", baby_steps)
    monkeypatch.setattr(interpolator, "bounded_dlog", bounded_dlog)
    return built, used


def test_interpolate_builds_one_baby_step_table_per_call(monkeypatch):
    built, used = _count_tables(monkeypatch)
    counted, oracle, at = interpolator.baby_steps, None, []
    monkeypatch.setattr(interpolator, "baby_steps",
                        lambda *args: at.append(oracle.probe_count) or counted(*args))
    ctx = FieldContext.for_prime(140122640051)
    rng = random.Random(12)
    # p - 1 = 2 * 5^2 * q. The table serves L = n*t logs, so it has
    # m = isqrt(L (D//s + 1) / 2) + 1 baby steps here. At D = 10^6, L = 18,
    # the divisor 50 cuts the giant steps per log from 10^6 // 3001 = 333 to
    # 20000 // 425 = 47, so s = 50 and m = 425. At D = 15, L = 8, the divisor
    # 2 would leave 7 // 6 = 1 of 15 // 9 = 1, so s = 1 and m = 9. The zero
    # polynomial passes the duplicate check too: L = 0 gives m = isqrt(15)
    # + 1 = 4, and no log reads the table.
    for n, t, D, expected_s, expected_m in [(3, 6, 10**6, 50, 425), (2, 4, 15, 1, 9),
                                             (2, 0, 15, 1, 4)]:
        f = random_sparse_polynomial(n, t, D, ctx, rng) if t else sparse_polynomial(n, [], ctx)
        oracle = EvaluationOracle.from_polynomial(f, ctx)
        report = interpolate(oracle, n, max(t, 1), D, ctx, rng)
        assert report.succeeded and poly_equal(report.outcome, f)
        # built after the base run's 2T probes, before any shifted probe
        assert at == [2 * max(t, 1)]
        assert len(built) == 1 and len(used) == n * t
        assert all(baby is built[0] for baby in used)
        s, sub, steps, _, unshift = built[0]
        assert s == expected_s
        assert len(sub) == len(unshift) == s and len(steps) == expected_m
        built.clear()
        used.clear()
        at.clear()


def test_interpolate_builds_no_table_when_the_base_run_fails(monkeypatch):
    built, used = _count_tables(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for T, zeta, reason in [
            (3, ZETA, FailReason.TOO_FEW_ROOTS),
            (5, (1, 1, 1), FailReason.DUPLICATE_COEFFICIENT),
        ]:
            report = interpolate(
                _oracle(), 3, T, 5, P101, random.Random(0),
                omega=OMEGA, alpha=ALPHA, zeta=zeta, force=True,
            )
            assert report.fail_reason == reason
    assert built == [] and used == []


def _count_master(monkeypatch):
    """Record every (v, M, w) interpolate builds for the shifted runs'
    Vandermonde solves and the (v, M, w) each roots_by_coefficient call
    receives."""
    built, used = [], []
    real_master, real_kernel = interpolator.vandermonde_master, interpolator.roots_by_coefficient

    def vandermonde_master(*args):
        built.append(real_master(*args))
        return built[-1]

    def roots_by_coefficient(lam, seq, known, ctx):
        used.append(known)
        return real_kernel(lam, seq, known, ctx)

    monkeypatch.setattr(interpolator, "vandermonde_master", vandermonde_master)
    monkeypatch.setattr(interpolator, "roots_by_coefficient", roots_by_coefficient)
    return built, used


def test_interpolate_builds_vandermonde_master_once_per_call(monkeypatch):
    built, used = _count_master(monkeypatch)
    ctx = FieldContext.for_prime(140122640051)
    rng = random.Random(16)
    for n, t, D in [(3, 6, 10**6), (2, 4, 15)]:
        f = random_sparse_polynomial(n, t, D, ctx, rng)
        report = interpolate(EvaluationOracle.from_polynomial(f, ctx), n, t, D, ctx, rng)
        assert report.succeeded and poly_equal(report.outcome, f)
        assert len(built) == 1 and len(used) == n
        nodes, master, weights = built[0]
        assert len(nodes) == len(weights) == t and len(master) == t + 1  # 3t + 1 ints
        assert all(shared is built[0] for shared in used)
        built.clear()
        used.clear()


def test_interpolate_builds_no_master_when_the_base_run_fails(monkeypatch):
    built, used = _count_master(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for T, zeta, reason in [
            (3, ZETA, FailReason.TOO_FEW_ROOTS),
            (5, (1, 1, 1), FailReason.DUPLICATE_COEFFICIENT),
        ]:
            report = interpolate(
                _oracle(), 3, T, 5, P101, random.Random(0),
                omega=OMEGA, alpha=ALPHA, zeta=zeta, force=True,
            )
            assert report.fail_reason == reason
    assert built == [] and used == []


def test_dlog_consistency_on_success():
    ctx = FieldContext.for_prime(140122640051)
    rng = random.Random(11)
    f = random_sparse_polynomial(3, 6, 15, ctx, rng)
    oracle = EvaluationOracle.from_polynomial(f, ctx)
    report = interpolate(oracle, 3, 6, 15, ctx, rng, omega=2)
    assert report.succeeded
    assert all(0 <= e <= 15 for _, exps in report.outcome.terms for e in exps)
    assert poly_equal(report.outcome, f)


def test_interpolate_zero_monomial_value_fail_names_its_term():
    # 1 at zeta and 0 at every other probe point: the annihilator is z, and
    # its one root, the monomial value 0, has no discrete log.
    ctx = FieldContext.for_prime(140122640051)
    zeta = (3, 7)
    oracle = EvaluationOracle(lambda point: 1 if point == zeta else 0)
    report = interpolate(oracle, 2, 1, 5, ctx, random.Random(1), zeta=zeta)
    assert report.fail_reason == FailReason.DLOG_OUT_OF_RANGE
    assert report.fail_detail == "variable 1, term 0: zero monomial value"
    assert report.probes == 2 * 2


PROPERTY_FIELDS = [FieldContext.for_prime(p) for p in (101, 10007, 140122640051)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_interpolate_success_is_exact_and_fail_is_clean(data):
    # The paper's contract with force=True, also when T understates t and at
    # fields far below the guarantee bound: a success is the hidden
    # polynomial after exactly 2(n+1)T probes; a Fail has a reason and stops
    # after a whole number of 2T-probe runs.
    ctx = data.draw(st.sampled_from(PROPERTY_FIELDS))
    n = data.draw(st.integers(1, 3))
    D = data.draw(st.integers(0, 30))
    t = data.draw(st.integers(0, min(6, (D + 1) ** n)))
    T = data.draw(st.integers(max(1, t - 1), t + 1))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    f = random_sparse_polynomial(n, t, D, ctx, rng) if t else sparse_polynomial(n, [], ctx)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = interpolate(EvaluationOracle.from_polynomial(f, ctx), n, T, D, ctx, rng, force=True)
    if report.succeeded:
        assert poly_equal(report.outcome, f)
        assert report.probes == 2 * (n + 1) * T
    else:
        assert isinstance(report.fail_reason, FailReason)
        assert report.probes % (2 * T) == 0 and report.probes <= 2 * (n + 1) * T
