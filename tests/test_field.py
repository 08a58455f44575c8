import itertools
import math
import random

import pytest

from sparseip.field import (
    _MAX_BABY_STEPS,
    FieldContext,
    _power_table,
    baby_steps,
    bounded_dlog,
    factorize,
    find_primitive_root,
    is_primitive_root,
    is_probable_prime,
    sample_nonzero,
)

P101 = FieldContext.for_prime(101)


def test_context_rejects_composite():
    with pytest.raises(ValueError):
        FieldContext.for_prime(100)


def test_context_rejects_oversized():
    with pytest.raises(ValueError):
        FieldContext.for_prime(2**62 + 1)


def test_order_factorization_multiplies_back():
    for p in (101, 257, 140122640051):
        ctx = FieldContext.for_prime(p)
        prod = 1
        for q, m in ctx.order_factorization:
            assert is_probable_prime(q)
            prod *= q**m
        assert prod == p - 1


def test_factorize_known():
    assert factorize(100) == [(2, 2), (5, 2)]
    assert factorize(1) == []
    assert factorize(2**31 - 1) == [(2147483647, 1)]
    assert factorize(2) == [(2, 1)]
    assert factorize(2**61) == [(2, 61)]
    # 2^60 - 1 = 3^2 * 5^2 * 7 * 11 * 13 * 31 * 41 * 61 * 151 * 331 * 1321
    assert factorize(2**61 - 2) == [
        (2, 1), (3, 2), (5, 2), (7, 1), (11, 1), (13, 1), (31, 1), (41, 1),
        (61, 1), (151, 1), (331, 1), (1321, 1),
    ]
    assert factorize(3885055214616576000) == [
        (2, 30), (3, 5), (5, 3), (7, 2), (11, 1), (13, 1), (17, 1),
    ]


@pytest.mark.parametrize(
    "factors",
    [
        [(1000003, 1), (1000033, 1)],
        [(1000003, 2)],
        [(1000003, 3)],
        [(1000003, 1), (1000033, 1), (1000037, 1)],
        [(1000003, 2), (1000033, 1)],
        [(1000003, 1), (999999999989, 1)],
    ],
)
def test_factorize_splits_cofactors_above_trial_division(factors):
    # Every prime is above 10^6, and some repeat, so rho must split both
    # products of distinct primes and prime powers; sympy is the primality
    # oracle.
    import sympy

    n = math.prod(q**m for q, m in factors)
    got = factorize(n)
    assert got == factors
    assert math.prod(q**m for q, m in got) == n
    assert all(sympy.isprime(q) for q, _ in got)


def _trial_division(n):
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return sorted(factors.items())


def test_factorize_matches_trial_division_below_20000():
    for n in range(1, 20000):
        assert factorize(n) == _trial_division(n), n


def test_factorize_group_orders_of_62_bit_primes():
    # p - 1 for seeded random 62-bit primes, plus hard odd parts: two primes
    # of 30-31 bits, or the cube of a 20-bit prime. sympy is the primality
    # oracle; sympy.factorint is too slow on the hard values to serve here.
    import sympy

    rng = random.Random(26)

    def prime_in(lo, hi):
        while True:
            q = rng.randrange(lo, hi) | 1
            if sympy.isprime(q):
                return q

    for n in [prime_in(2**61, 2**62) - 1 for _ in range(24)]:
        got = factorize(n)
        primes = [q for q, _ in got]
        assert primes == sorted(set(primes)) and primes[0] == 2
        assert math.prod(q**m for q, m in got) == n
        assert all(sympy.isprime(q) for q in primes)
    for _ in range(6):
        q1, q2 = sorted((prime_in(2**29, 2**31), prime_in(2**29, 2**31)))
        assert factorize(2 * q1 * q2) == [(2, 1), (q1, 1), (q2, 1)]
    for _ in range(2):
        q = prime_in(2**19, 2**20)
        assert factorize(2 * q**3) == [(2, 1), (q, 3)]


def test_order_factorization_with_two_large_primes():
    # p - 1 = 2 * 608681357 * 840893653: once the 2 is out, rho must split
    # a product of two 30-bit primes.
    import sympy

    p = 1023672579601454243
    ctx = FieldContext.for_prime(p)
    assert ctx.order_factorization == ((2, 1), (608681357, 1), (840893653, 1))
    assert dict(ctx.order_factorization) == sympy.factorint(p - 1)


def test_is_probable_prime_rejects_pseudoprimes():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # bases 2, 3, 5 and 7, and 3825123056546413051 to every prime base up
    # to 23; sympy is the oracle.
    import sympy

    for n in (561, 3215031751, 3825123056546413051):
        assert not sympy.isprime(n)
        assert not is_probable_prime(n)
    # The 12 bases decide primality only below this composite, which
    # passes all of them; check_modulus caps p far below it, at 2^62.
    n = 399165290221 * 798330580441
    assert n == 318665857834031151167461 and not sympy.isprime(n)
    assert is_probable_prime(n)


def _brute_order(g, p):
    x = 1
    for k in range(1, p):
        x = x * g % p
        if x == 1:
            return k
    raise AssertionError


def test_primitive_root_golden():
    assert is_primitive_root(P101, 34)
    assert not is_primitive_root(P101, 1)
    # brute-force oracle: 10 has order 4 in F_101
    assert _brute_order(10, 101) < 100
    assert not is_primitive_root(P101, 10)


def test_primitive_root_agrees_with_brute_force():
    for g in range(1, 101):
        assert is_primitive_root(P101, g) == (_brute_order(g, 101) == 100)


def test_find_primitive_root():
    rng = random.Random(3)
    for p in (101, 257, 7681):
        ctx = FieldContext.for_prime(p)
        for _ in range(5):
            w = find_primitive_root(ctx, rng)
            assert all(pow(w, (p - 1) // r, p) != 1 for r, _ in ctx.order_factorization)


def test_bounded_dlog_golden():
    assert bounded_dlog(P101, 34, 45, 5) == 2
    assert bounded_dlog(P101, 34, 1, 5) == 0
    assert bounded_dlog(P101, 34, 34, 5) == 1


def test_bounded_dlog_exhaustive_small():
    ctx = FieldContext.for_prime(7681)
    w = 17
    assert is_primitive_root(ctx, w)
    D = 1000
    for e in range(D + 1):
        assert bounded_dlog(ctx, w, pow(w, e, ctx.p), D) == e


def test_bounded_dlog_not_found():
    # 34^50 is out of range for D = 5
    assert bounded_dlog(P101, 34, pow(34, 50, 101), 5) is None
    assert bounded_dlog(P101, 34, 0, 5) is None


def test_bounded_dlog_shared_table_agrees_with_own_table():
    # One baby_steps table serves every lookup for its (omega, bound), and
    # each answer equals the call that builds its own table.
    rng = random.Random(13)
    for p, omega, bounds in [(101, 34, (0, 1, 5, 50, 98)),
                             (140122640051, None, (0, 7, 10**4, 10**8))]:
        ctx = FieldContext.for_prime(p)
        if omega is None:
            omega = find_primitive_root(ctx, rng)
        for bound in bounds:
            baby = baby_steps(ctx, omega, bound)
            s, sub, steps, _, unshift = baby
            assert (p - 1) % s == 0 and s <= math.isqrt(bound) + 1
            assert len(sub) == s and len(steps) == math.isqrt(bound // s) + 1
            assert unshift == [pow(omega, -r, p) for r in range(s)]
            exps = [0, bound, bound + 1] + [rng.randrange(bound + 1) for _ in range(20)]
            targets = [pow(omega, e, p) for e in exps] + [0, p]
            targets += [rng.randrange(1, p) for _ in range(20)]
            shared = [bounded_dlog(ctx, omega, y, bound, baby) for y in targets]
            assert shared == [bounded_dlog(ctx, omega, y, bound) for y in targets]
            expected = [e if e <= bound else None for e in exps] + [None, None]
            assert shared[: len(expected)] == expected
            assert baby == baby_steps(ctx, omega, bound)  # lookups leave it as built


def _largest_divisor_up_to(n, cap):
    return max(d for d in range(1, cap + 1) if n % d == 0)


# Numbers of logs a table is sized for: one, a few, and so many that the
# table covers every candidate at small bounds and reaches the memory ceiling
# at large ones.
LOGS = (1, 2, 7, 10**6)


def _table_size(n, logs):
    # baby steps for logs logs over [0, n]: isqrt(logs (n+1) / 2) + 1, at
    # least isqrt(n) + 1, at most n + 1 and the ceiling unless isqrt(n) + 1
    # is more
    return max(math.isqrt(n) + 1,
               min(n + 1, math.isqrt(logs * (n + 1) // 2) + 1, _MAX_BABY_STEPS))


def _expected_s(p, bound, logs=1):
    # The largest divisor of p - 1 up to isqrt(bound) + 1, kept only when it
    # saves at least 2 bits(p) of the (bound // d) // m giant steps a log
    # takes with the table for divisor d.
    s = _largest_divisor_up_to(p - 1, math.isqrt(bound) + 1)

    def giant(d):
        return bound // d // _table_size(bound // d, logs)

    return s if giant(1) - giant(s) >= 2 * p.bit_length() else 1


def _tables_for_divisor(p, omega, bound, s, logs=1):
    # baby_steps' tables for a given divisor s of p - 1 up to isqrt(bound) + 1
    m = _table_size(bound // s, logs)
    return (s, _power_table(pow(omega, (p - 1) // s, p), s, p),
            _power_table(pow(omega, s, p), m, p), pow(omega, -s * m, p),
            [pow(omega, -r, p) for r in range(s)])


def test_bounded_dlog_brute_force_every_small_prime():
    # Every prime below 200, every bound in [0, p - 2], every table size in
    # LOGS and every target in [0, p], against the least e <= bound with
    # omega^e = target. Below 200 baby_steps always takes s = 1, so the
    # subgroup path is also checked with tables built for the largest
    # divisor under the cap.
    for p in (q for q in range(2, 200) if is_probable_prime(q)):
        ctx = FieldContext.for_prime(p)
        omega = next(g for g in range(1, p) if is_primitive_root(ctx, g))
        log = {pow(omega, e, p): e for e in range(p - 1)}
        for bound in range(p - 1):
            expected = [None] * (p + 1)
            for y, e in log.items():
                if e <= bound:
                    expected[y] = e
            s = _largest_divisor_up_to(p - 1, math.isqrt(bound) + 1)
            checked = []  # several logs often give the same tables
            for logs in LOGS:
                baby = baby_steps(ctx, omega, bound, logs)
                assert baby[0] == _expected_s(p, bound, logs)
                assert len(baby[2]) == _table_size(bound // baby[0], logs)
                tables = [baby] + ([_tables_for_divisor(p, omega, bound, s, logs)] if s > 1 else [])
                for tab in tables:
                    if tab not in checked:
                        checked.append(tab)
                        assert [bounded_dlog(ctx, omega, y, bound, tab) for y in range(p + 1)] == expected
            for e in (bound, bound + 1):  # with a table of the call's own
                y = pow(omega, e, p)
                assert bounded_dlog(ctx, omega, y, bound) == expected[y]


@pytest.mark.parametrize(
    "p", [1000000007, 3221225473, 140122640051, 4611686018427387847]
)
def test_bounded_dlog_large_primes(p):
    # p - 1 = 2q, 3 * 2^30, 2 * 5^2 * q and 2 * 3^2 * 1289 * q (q prime): s
    # is 1 or 2, 2^k or 3 * 2^k, a divisor of 50, a divisor of 23202. s > 1
    # at bound 10^4 for the middle two and at 10^8 for all four.
    ctx = FieldContext.for_prime(p)
    rng = random.Random(p)
    omega = find_primitive_root(ctx, rng)
    for bound, logs in itertools.product((0, 1, 10**4, 10**8), LOGS):
        baby = baby_steps(ctx, omega, bound, logs)
        s = baby[0]
        assert s == _expected_s(p, bound, logs)
        assert len(baby[2]) == _table_size(bound // s, logs)
        if logs == LOGS[-1]:  # every candidate, or the memory ceiling
            assert len(baby[2]) in (bound // s + 1, _MAX_BABY_STEPS)
        # exponents at and just past the bound, over several residues mod s
        near = [0, 1, s - 1] + [rng.randrange(s) for _ in range(3)]
        exps = [0, p - 2] + [bound + 1 + j for j in near]
        exps += [bound - j for j in near if j <= bound]
        exps += [rng.randrange(bound + 1) for _ in range(5)]
        exps += [rng.randrange(p - 1) for _ in range(3)]
        for e in exps:
            y = pow(omega, e, p)
            got = bounded_dlog(ctx, omega, y, bound, baby)
            assert got == (e if e <= bound else None)
            assert bounded_dlog(ctx, omega, y, bound) == got
        for y in [rng.randrange(1, p) for _ in range(3)]:
            got = bounded_dlog(ctx, omega, y, bound, baby)
            assert got is None or (got <= bound and pow(omega, got, p) == y)
            assert bounded_dlog(ctx, omega, y, bound) == got


def test_bounded_dlog_rejects_bad_bound():
    with pytest.raises(ValueError):
        bounded_dlog(P101, 34, 1, 100)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: factorize(0), "can only factor positive integers"),
        (lambda: bounded_dlog(P101, 34, 1, -1), "bound must be nonnegative"),
    ],
)
def test_field_precondition_errors(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_find_primitive_root_at_two():
    ctx = FieldContext.for_prime(2)
    assert find_primitive_root(ctx, random.Random(0)) == 1
    assert is_primitive_root(ctx, 1)


def test_sample_nonzero_range_and_determinism():
    rng = random.Random(7)
    draws = [sample_nonzero(P101, rng) for _ in range(1000)]
    assert all(1 <= d <= 100 for d in draws)
    rng2 = random.Random(7)
    assert draws == [sample_nonzero(P101, rng2) for _ in range(1000)]


def test_sample_nonzero_chi_square():
    # 10^4 draws over 100 bins; compare the statistic against the
    # chi-square 0.999 quantile for 99 degrees of freedom.
    from scipy.stats import chi2

    rng = random.Random(11)
    counts = [0] * 100
    N = 10**4
    for _ in range(N):
        counts[sample_nonzero(P101, rng) - 1] += 1
    expected = N / 100
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < chi2.ppf(0.999, 99)
