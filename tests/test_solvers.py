import itertools
import math
import random
from operator import mul

import pytest

from sparseip.field import FieldContext, is_primitive_root
from sparseip.solvers import (
    SplittingBudgetError,
    TooFewRootsError,
    _residues,
    _trim,
    _vandermonde_apply,
    berlekamp_massey,
    eval_dense,
    find_distinct_roots,
    roots_by_coefficient,
    solve_transposed_vandermonde,
    vandermonde_master,
)

P101 = FieldContext.for_prime(101)

# Annihilator of the worked example: z^5 + 61z^4 + 72z^3 + 10z^2 + 35z + 23,
# whose roots over F_101 are {1, 2, 11, 43, 84}.
LAMBDA_101 = [23, 35, 10, 72, 61, 1]

# Probe sequence consistent with coefficients (1,54,50,43,33) on those roots.
SEQ_101 = [80, 28, 68, 48, 77, 63, 37, 0, 78, 87]


def _prony_sequence(coeffs, ratios, length, p):
    return [sum(c * pow(v, j, p) for c, v in zip(coeffs, ratios)) % p for j in range(length)]


def test_bm_golden_example():
    rec = berlekamp_massey(SEQ_101, P101)
    assert rec.t == 5
    assert list(rec.lam) == LAMBDA_101


def test_bm_zero_sequence():
    rec = berlekamp_massey([0] * 10, P101)
    assert rec.t == 0
    assert rec.lam == (1,)


def test_bm_single_geometric():
    rec = berlekamp_massey([3, 6, 12, 24], P101)
    assert rec.t == 1
    assert rec.lam == (99, 1)  # z - 2


def test_bm_odd_length_rejected():
    with pytest.raises(ValueError):
        berlekamp_massey([1, 2, 3], P101)


def test_bm_recurrence_identity():
    rng = random.Random(5)
    for _ in range(50):
        T = rng.randrange(1, 9)
        seq = [rng.randrange(101) for _ in range(2 * T)]
        rec = berlekamp_massey(seq, P101)
        t, lam = rec.t, rec.lam
        assert len(lam) == t + 1 and lam[t] == 1
        for j in range(2 * T - t):
            acc = seq[j + t]
            for k in range(t):
                acc = (acc + lam[k] * seq[j + k]) % 101
            assert acc == 0


def test_bm_minimality_on_prony_sequences():
    rng = random.Random(6)
    for _ in range(100):
        t = rng.randrange(1, 9)
        ratios = rng.sample(range(1, 101), t)
        coeffs = [rng.randrange(1, 101) for _ in range(t)]
        T = t + rng.randrange(0, 4)
        seq = _prony_sequence(coeffs, ratios, 2 * T, 101)
        rec = berlekamp_massey(seq, P101)
        assert rec.t == t
        # the annihilator vanishes exactly on the ratios
        for v in ratios:
            assert eval_dense(list(rec.lam), v, P101) == 0


def test_roots_golden():
    rng = random.Random(7)
    assert find_distinct_roots(LAMBDA_101, P101, rng) == [1, 2, 11, 43, 84]


def test_roots_linear():
    rng = random.Random(8)
    assert find_distinct_roots([96, 1], P101, rng) == [5]  # z - 5
    # A degree-1 lam holds no reduced z; its root is -lam[0] at once, with
    # no draw.
    for p in (2, 3, 101, P37, P62):
        ctx = FieldContext.for_prime(p)
        for c in {0, 1, p - 1, p // 3}:
            rng = _RecordingRandom()
            state = rng.getstate()
            assert find_distinct_roots([c, 1], ctx, rng) == [(-c) % p]
            assert not rng.calls and rng.getstate() == state


def test_roots_constant():
    rng = random.Random(9)
    assert find_distinct_roots([1], P101, rng) == []


def test_roots_repeated_raises():
    rng = random.Random(10)
    # (z - 3)^2 = z^2 - 6z + 9
    with pytest.raises(TooFewRootsError):
        find_distinct_roots([9, 95, 1], P101, rng)


def test_roots_irreducible_raises():
    rng = random.Random(11)
    # z^2 + 1 has no roots mod 101? 10^2 = 100 = -1, so it does. Use z^2 - 2:
    # 2 is a QR mod 101 iff 2^50 = 1; pick a non-residue instead.
    p = 101
    nonresidue = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    with pytest.raises(TooFewRootsError):
        find_distinct_roots([(-nonresidue) % p, 0, 1], P101, rng)


def _product(factors, p):
    out = [1]
    for f in factors:
        out = _pmul(out, f, p)
    return out


NONRESIDUE_101 = 2  # 101 = 5 mod 8


@pytest.mark.parametrize(
    "factors, message",
    [
        ([[98, 1], [98, 1], [96, 1]], "only 2 distinct roots for degree 3"),  # (z-3)^2 (z-5)
        ([[100, 1], [99, 1], [101 - NONRESIDUE_101, 0, 1]], "only 2 distinct roots for degree 4"),
        ([[101 - NONRESIDUE_101, 0, 1]], "only 0 distinct roots for degree 2"),
    ],
)
def test_roots_fail_message_counts_distinct_roots(factors, message):
    # The message reaches InterpReport.fail_detail, so its text is pinned.
    rng = random.Random(16)
    state = rng.getstate()
    with pytest.raises(TooFewRootsError) as exc:
        find_distinct_roots(_product(factors, 101), P101, rng)
    assert str(exc.value) == message
    assert rng.getstate() == state


class _RecordingRandom(random.Random):
    """Records the arguments of every randrange call; returns scripted
    values first, then draws as usual."""

    def __init__(self, script=()):
        super().__init__(0)
        self.script, self.calls = list(script), []

    def randrange(self, *args):
        self.calls.append(args)
        return self.script.pop(0) if self.script else super().randrange(*args)


def test_roots_every_small_monic_against_brute_force():
    # Every monic lam of degree <= 4 over F_2, F_3 and F_5 (at p = 2,
    # (p - 1) / 2 = 0): the sorted roots when they are deg lam distinct ones,
    # else the distinct-root count in the message. Only randrange(p) draws,
    # once per splitting attempt, and nothing else touches the state.
    for p in (2, 3, 5):
        ctx = FieldContext.for_prime(p)
        for deg in range(1, 5):
            for low in itertools.product(range(p), repeat=deg):
                lam = [*low, 1]
                brute = [x for x in range(p) if eval_dense(lam, x, ctx) == 0]
                rng = _RecordingRandom()
                if len(brute) == deg:
                    assert find_distinct_roots(lam, ctx, rng) == brute
                else:
                    with pytest.raises(TooFewRootsError) as exc:
                        find_distinct_roots(lam, ctx, rng)
                    assert str(exc.value) == f"only {len(brute)} distinct roots for degree {deg}"
                    assert not rng.calls
                assert set(rng.calls) <= {(p,)}
                replay = random.Random(0)
                for _ in rng.calls:
                    replay.randrange(p)
                assert rng.getstate() == replay.getstate()


def test_roots_split_retries_when_gcd_is_h_or_1():
    # h = (z - 1)(z - 4) over F_101. A delta with 1 + delta and 4 + delta
    # both squares gives (z + delta)^50 - 1 = 0 mod h, so gcd = h; both
    # non-squares give the nonzero constant -2, so gcd = 1. Neither splits;
    # a mixed delta does, into two monic linear factors.
    p = 101

    def square(x):
        return pow(x, 50, p) == 1

    kinds = {}
    for delta in range(p):
        kinds.setdefault((square(1 + delta), square(4 + delta)), delta)
    script = [kinds[True, True], kinds[False, False], kinds[True, False]]
    rng = _RecordingRandom(script)
    assert find_distinct_roots([4, 96, 1], P101, rng) == [1, 4]
    assert rng.calls == [(p,)] * 3


def test_roots_match_brute_force_small_fields():
    rng = random.Random(12)
    for p in (101, 257):
        ctx = FieldContext.for_prime(p)
        for _ in range(60):
            t = rng.randrange(1, 5)
            roots = sorted(rng.sample(range(p), t))
            lam = [1]
            for r in roots:
                new = [0] * (len(lam) + 1)
                for i, c in enumerate(lam):
                    new[i + 1] = (new[i + 1] + c) % p
                    new[i] = (new[i] - r * c) % p
                lam = new
            brute = [x for x in range(p) if eval_dense(lam, x, ctx) == 0]
            assert find_distinct_roots(lam, ctx, rng) == brute == roots


def test_roots_and_primitive_root_at_p2():
    # p = 2 takes the general path: gcd(z^2 - z, lam) has degree <= 2, and the
    # factor z(z + 1) splits off its zero root without drawing from rng.
    ctx = FieldContext.for_prime(2)
    assert is_primitive_root(ctx, 1)
    assert not is_primitive_root(ctx, 0)
    for deg in range(1, 6):
        for low in itertools.product(range(2), repeat=deg):
            lam = [*low, 1]
            brute = [x for x in range(2) if eval_dense(lam, x, ctx) == 0]
            rng = random.Random(13)
            state = rng.getstate()
            if len(brute) == deg:
                assert find_distinct_roots(lam, ctx, rng) == brute
            else:
                with pytest.raises(TooFewRootsError):
                    find_distinct_roots(lam, ctx, rng)
            assert rng.getstate() == state


# The benchmark's prime and the largest prime below 2^62, whose products need
# the widest slots the packed kernel uses.
P37 = 140122640051
P62 = 4611686018427387847


def test_residues_power_matches_sympy_gf_pow_mod():
    # sympy (test-only oracle) lists coefficients highest first. Each base of
    # degree d + 1 is first reduced mod m by sympy, as power takes residues.
    # A slot one byte narrower than the ring's overflows here. d = 200 runs
    # once: sympy takes about 2 s on it.
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod, gf_rem

    rng = random.Random(18)
    cases = [(p, d) for p in (2, 3, 5, 101, P37, P62) for d in (1, 2, 3, 50)] + [(P62, 200)]
    for p, d in cases:
        m = [rng.randrange(p) for _ in range(d)] + [1]
        base = [rng.randrange(p) for _ in range(d + 1)] + [rng.randrange(1, p)]
        _, pack, _, _, unpack, power, _ = _residues(m, p)
        runs = [([0, 1], p), (base, (p - 1) // 2), (base, 0)] if d < 200 else [(base, (p - 1) // 2)]
        for f, e in runs:
            expected = gf_pow_mod(ZZ.map(f[::-1]), e, ZZ.map(m[::-1]), p, ZZ)
            b = [int(c) for c in reversed(gf_rem(ZZ.map(f[::-1]), ZZ.map(m[::-1]), p, ZZ))]
            assert unpack(power(pack(b), e)) == [int(c) for c in reversed(expected)], (p, d, e)


def _powmod_by_division(base, e, m, p):
    # Plain square-and-multiply on unpacked lists, for a base of degree < d.
    # Each schoolbook product is reduced as low + sum_k high_k (z^(d+k) mod m),
    # where z^(d+k) mod m is z times z^(d+k-1) mod m, less its top
    # coefficient times the monic m.
    d = len(m) - 1
    rows, row = [], [0] * (d - 1) + [1]
    for _ in range(d - 1):
        row = [0] + row
        row = [(x - row[d] * y) % p for x, y in zip(row[:d], m)]
        rows.append(row)
    cols = [[row[j] for row in rows] for j in range(d)]

    def mulmod(a, b):
        a, b = a + [0] * (d - len(a)), b + [0] * (d - len(b))
        prod = [sum(map(int.__mul__, a[max(0, k - d + 1) : k + 1], b[min(k, d - 1) :: -1]))
                for k in range(2 * d - 1)]
        high = prod[d:]
        return [(prod[j] + sum(map(int.__mul__, high, cols[j]))) % p for j in range(d)]

    r = [1]
    for bit in bin(e)[2:]:
        r = mulmod(r, r)
        if bit == "1":
            r = mulmod(r, base)
    return _trim(r)


def test_residues_power_worst_case_slots_match_plain_square_and_multiply():
    # Every coefficient of the base and of the modulus is p - 1, so the first
    # square fills the middle slot with d (p - 1)^2; the second modulus has
    # m(0) = 0 as well, and d = 1 has no quotient slots. The oracle takes
    # about 2 s per long exponent at d = 200 and a large p, so there e = 5,
    # two squares and one multiply by the base, stands in for p and
    # (p - 1) / 2.
    for p in (2, 3, P37, P62):
        for d in (1, 2, 3, 50, 200):
            exponents = (0, 1, p, (p - 1) // 2) if d < 200 or p < 5 else (0, 1, 5)
            for m in ([p - 1] * d + [1], [0] + [p - 1] * (d - 1) + [1]):
                _, pack, _, _, unpack, power, _ = _residues(m, p)
                for e in exponents:
                    base = [p - 1] * d
                    assert unpack(power(pack(base), e)) == _powmod_by_division(base, e, m, p), (p, d, e)


def _poly(rng, deg, p):
    # ascending coefficients, degree deg with a random nonzero leading one
    return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]


def test_residues_gcd_and_cofactor_match_sympy():
    # gcd(a) against gf_gcd and gf_quo (test-only oracles): a common factor
    # of every degree k = 0 .. d is planted in m and in a non-monic a of
    # degree < d, whose other factor may share more with m; k = d is a = 0.
    # A nonzero constant has gcd 1 and its inverse as cofactor. unpack reads
    # d slots, so the monic g is compared only for deg g < d.
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_gcd, gf_gcdex, gf_quo

    rng = random.Random(20)
    for p in (2, 3, 101, P37, P62):
        for d in (1, 2, 3, 6, 12):
            for k in range(d + 1):
                g = _poly(rng, k, p)
                m = _pmul(g, [rng.randrange(p) for _ in range(d - k)] + [1], p)
                m = [c * pow(m[-1], -1, p) % p for c in m]
                _, _, _, _, unpack, _, gcd = _residues(m, p)
                cases = [_pmul(g, _poly(rng, rng.randrange(d - k), p), p)] if k < d else []
                for a in cases + [[], [0] * d, [p], [rng.randrange(1, p)]]:
                    mm, aa = ZZ.map(m[::-1]), ZZ.map(_trim([x % p for x in a])[::-1])
                    expected = gf_gcd(aa, mm, p, ZZ)
                    found_k, found_g, u = gcd(a)
                    assert found_k == len(expected) - 1, (p, d, k, a)
                    if found_k == 0:
                        inverse = gf_gcdex(aa, mm, p, ZZ)[0]
                        assert found_g == 1 and unpack(u) == [int(c) for c in reversed(inverse)]
                        continue
                    quo = [int(c) for c in reversed(gf_quo(mm, expected, p, ZZ))]
                    assert unpack(u) == quo, (p, d, k, a)
                    if found_k < d:
                        assert unpack(found_g) == [int(c) for c in reversed(expected)]


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def test_residues_inverse_matches_sympy_gf_gcdex():
    # The packed extended Euclid against sympy's: a^-1 mod the monic m, or
    # None when a shares the factor z + g0 planted in m, or is 0 mod p.
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_gcdex

    rng = random.Random(21)
    for p in (2, 3, 101, P37, P62):
        for d in (1, 2, 5, 20, 50):
            g = [rng.randrange(p), 1]
            m = _pmul(g, [rng.randrange(p) for _ in range(d - 1)] + [1], p)
            _, _, _, _, unpack, _, gcd = _residues(m, p)
            shared = _pmul(g, _poly(rng, d - 2, p), p) if d > 1 else [0]
            for a in ([rng.randrange(p) for _ in range(d)], _poly(rng, d - 1, p),
                      [rng.randrange(1, p)], [0] * d, [p], shared):
                s, _, h = gf_gcdex(ZZ.map(_trim([x % p for x in a])[::-1]), ZZ.map(m[::-1]), p, ZZ)
                expected = [int(c) for c in reversed(s)] if h == [1] else None
                k, _, u = gcd(a)
                assert (unpack(u) if k == 0 else None) == expected, (p, d, a)


def _planted_roots(t, p):
    """t distinct roots drawn with seed t, and the monic lam they span."""
    planted = random.Random(t).sample(range(p), t)
    lam = [1]
    for r in planted:
        lam.insert(0, 0)
        for i in range(len(lam) - 1):
            lam[i] = (lam[i] - r * lam[i + 1]) % p
    return planted, lam


@pytest.mark.parametrize(
    "p, t, next_draw",
    [
        (P37, 30, 0.36985330980131836),
        (P37, 60, 0.6031251016145942),
        (P62, 30, 0.5237424868573443),
        (P62, 60, 0.28947755948235065),
    ],
)
def test_roots_of_large_degree_at_large_primes(p, t, next_draw):
    # next_draw is rng's next value after the call, pinned from the
    # schoolbook kernel that the packed one replaced: the kernel must not
    # change which values the splitting draws.
    planted, lam = _planted_roots(t, p)
    rng = random.Random(t)
    assert find_distinct_roots(lam, FieldContext.for_prime(p), rng) == sorted(planted)
    assert rng.random() == next_draw


class _CountingRandom(random.Random):
    draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


def test_roots_of_degree_600_within_the_guarantee_bound():
    # interpolate(n=1, T=600, D=1000) is inside the guarantee bound at P37.
    # Fully splitting its annihilator takes about 1.4 t draws, more than a
    # budget of 64 (1 + bits(t)) = 704 for the whole call would allow; each
    # factor's own budget of 64 is far from reached.
    t = 600
    planted, lam = _planted_roots(t, P37)
    rng = _CountingRandom(t)
    assert find_distinct_roots(lam, FieldContext.for_prime(P37), rng) == sorted(planted)
    assert rng.draws > 64 * (1 + t.bit_length())


class _ZeroRandom(random.Random):
    def randrange(self, *args, **kwargs):
        return 0


def test_roots_splitting_budget_escapes_on_stuck_rng():
    # (z - 1)(z - 4): both roots are squares mod 101, so delta = 0 never
    # splits the factor and the retry budget runs out.
    with pytest.raises(SplittingBudgetError):
        find_distinct_roots([4, 96, 1], P101, _ZeroRandom())


def test_roots_by_coefficient_golden():
    # the worked example's roots carry coefficients (1, 54, 50, 43, 33)
    coeffs = [1, 33, 43, 50, 54]
    known = vandermonde_master(coeffs, P101)
    assert roots_by_coefficient(LAMBDA_101, SEQ_101, known, P101) == [1, 84, 43, 11, 2]
    wrong = vandermonde_master([1, 33, 43, 50, 55], P101)
    assert roots_by_coefficient(LAMBDA_101, SEQ_101, wrong, P101) is None
    short = vandermonde_master(coeffs[:4], P101)
    assert roots_by_coefficient(LAMBDA_101, SEQ_101, short, P101) is None


def _outcome(call, *args):
    # the call's result, or the TooFewRootsError it raises, as text
    try:
        return call(*args)
    except TooFewRootsError as exc:
        return f"TooFewRootsError: {exc}"


def test_roots_by_coefficient_matches_root_finding_brute_force():
    # Every monic lam of degree t <= 3 over F_5 and every window of t probes.
    # The kernel must return roots exactly when root finding plus the solve
    # succeed and give back the same coefficient list, and then the same
    # roots. Where root finding raises TooFewRootsError, the kernel must
    # raise it with the same message; otherwise it returns None. Its verdict
    # depends only on the set of coefficients, so at t = 3 each set is tried
    # in sorted order, and every order of the sets it accepts is checked.
    p = 5
    ctx = FieldContext.for_prime(p)
    rng = random.Random(15)
    accepted, named = set(), 0
    for t in (1, 2, 3):
        pick = itertools.permutations if t < 3 else itertools.combinations
        coeff_lists = list(pick(range(1, p), t))
        known = {c: vandermonde_master(c, ctx) for c in itertools.permutations(range(1, p), t)}
        for low in itertools.product(range(p), repeat=t):
            lam = [*low, 1]
            roots = _outcome(find_distinct_roots, lam, ctx, rng)
            rejected = roots if isinstance(roots, str) else None
            for window in itertools.product(range(p), repeat=t):
                solved = {}
                if rejected is None:
                    d = solve_transposed_vandermonde(roots, list(window), ctx)
                    solved = dict(zip(d, roots))
                for coeffs in coeff_lists:
                    if sorted(solved) != sorted(coeffs):
                        found = _outcome(roots_by_coefficient, lam, window, known[coeffs], ctx)
                        assert found == rejected
                        named += rejected is not None
                        continue
                    accepted.add((tuple(lam), window))
                    for order in itertools.permutations(coeffs):
                        found = roots_by_coefficient(lam, window, known[order], ctx)
                        assert found == [solved[c] for c in order]
    # accepted: t distinct roots (C(5, t) choices) times the ordered lists of
    # t distinct nonzero coefficients (4!/(4-t)!) that the window encodes
    assert len(accepted) == sum(math.comb(5, t) * math.perm(4, t) for t in (1, 2, 3))
    # named: each lam of degree 2 or 3 without its full set of distinct
    # roots, with every window and every coefficient list
    unsplit = {t: p**t - math.comb(p, t) for t in (2, 3)}
    assert named == unsplit[2] * p**2 * math.perm(4, 2) + unsplit[3] * p**3 * math.comb(4, 3)


def _kernel_oracle(lam, seq, coeffs, ctx, rng):
    # What the kernel must give: root finding's TooFewRootsError, as text,
    # or root finding plus the solve, matched to coeffs, or None.
    t = len(lam) - 1
    roots = _outcome(find_distinct_roots, lam, ctx, rng)
    if isinstance(roots, str):
        return roots
    if len(coeffs) != t:
        return None
    solved = dict(zip(solve_transposed_vandermonde(roots, seq[:t], ctx), roots))
    if sorted(solved) != sorted(c % ctx.p for c in coeffs):
        return None
    return [solved[c % ctx.p] for c in coeffs]


def _monic_from_roots(roots, p):
    lam = [1]
    for r in roots:
        lam = [(a - r * b) % p for a, b in zip([0] + lam, lam + [0])]
    return lam


@pytest.mark.parametrize("p", [140122640051, 4611686018427387847])
def test_roots_by_coefficient_matches_root_finding_at_large_primes(p):
    # Planted instances, corrupted probes, shuffled, changed, short and long
    # coefficient lists, a zero coefficient, a squared factor and a random
    # (rarely split) annihilator, against find_distinct_roots plus the
    # transposed Vandermonde solve, its TooFewRootsError included. A
    # repeated coefficient list has no (v, M, w).
    ctx = FieldContext.for_prime(p)
    rng = random.Random(p % 1000)
    accepted = named = 0
    for t in (1, 2, 5, 10, 50):
        roots = rng.sample(range(p), t)
        coeffs = rng.sample(range(1, p), t)
        seq = _prony_sequence(coeffs, roots, 2 * t, p)
        lam = _monic_from_roots(roots, p)
        assert list(berlekamp_massey(seq, ctx).lam) == lam
        corrupted = list(seq)
        corrupted[rng.randrange(t)] += 1
        shuffled = rng.sample(coeffs, t)
        changed = list(coeffs)
        changed[rng.randrange(t)] += 1
        zero = [0] + coeffs[1:]
        cases = [
            (lam, seq, coeffs),
            (lam, seq, shuffled),
            (lam, corrupted, coeffs),
            (lam, seq, changed),
            (lam, seq, coeffs[:-1]),
            (lam, seq, coeffs + [rng.randrange(1, p)]),
            (lam, _prony_sequence(zero, roots, t, p), zero),
            (_monic_from_roots(roots[:-1] + roots[:1], p), seq, coeffs),
            ([rng.randrange(p) for _ in range(t)] + [1], seq, coeffs),
        ]
        for case_lam, case_seq, case_coeffs in cases:
            expected = _kernel_oracle(case_lam, case_seq, case_coeffs, ctx, rng)
            known = vandermonde_master(case_coeffs, ctx)
            assert _outcome(roots_by_coefficient, case_lam, case_seq, known, ctx) == expected
            accepted += isinstance(expected, list)
            named += isinstance(expected, str)
        if t > 1:
            with pytest.raises(ValueError):
                vandermonde_master([coeffs[0]] * t, ctx)
        assert roots_by_coefficient(lam, seq, vandermonde_master(shuffled, ctx), ctx) == [
            roots[coeffs.index(c)] for c in shuffled
        ]
    assert accepted >= 3 * 5 and named >= 4  # the squared factor at t > 1, at least


def test_eval_dense_matches_the_power_sum():
    # Every length mod 4 (the top is padded to whole groups of four), the
    # zero polynomial, and unreduced, negative and edge points.
    rng = random.Random(17)
    for p in (2, 101, 4611686018427387847):
        ctx = FieldContext.for_prime(p)
        for t in list(range(10)) + [50]:
            coeffs = [rng.randrange(-p, 2 * p) for _ in range(t)]
            for x in (0, 1, p - 1, -1, 2 * p + 3, rng.randrange(p)):
                expected = sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p
                assert eval_dense(coeffs, x, ctx) == eval_dense(tuple(coeffs), x, ctx) == expected


def test_vandermonde_golden():
    nodes = [1, 2, 11, 43, 84]
    rhs = SEQ_101[:5]
    assert solve_transposed_vandermonde(nodes, rhs, P101) == [1, 54, 50, 43, 33]


def test_vandermonde_1x1():
    assert solve_transposed_vandermonde([7], [33], P101) == [33]


def test_vandermonde_empty_system():
    # t = 0, as in a run on the zero polynomial: no nodes, no unknowns
    assert solve_transposed_vandermonde([], [], P101) == []
    assert vandermonde_master([], P101) == ([], [1], [])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: find_distinct_roots([0, 0], P101, random.Random(0)),
         "zero polynomial has no well-defined root set"),
        (lambda: find_distinct_roots([1, 2], P101, random.Random(0)), "polynomial must be monic"),
        (lambda: solve_transposed_vandermonde([1], [], P101), "nodes and rhs must have equal length"),
        (lambda: solve_transposed_vandermonde([], [1], P101), "nodes and rhs must have equal length"),
    ],
)
def test_solvers_precondition_errors(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_vandermonde_duplicate_nodes_rejected():
    with pytest.raises(ValueError):
        solve_transposed_vandermonde([3, 3], [1, 2], P101)


def test_vandermonde_round_trip():
    rng = random.Random(13)
    for _ in range(100):
        t = rng.randrange(1, 9)
        nodes = rng.sample(range(101), t)
        rhs = [rng.randrange(101) for _ in range(t)]
        c = solve_transposed_vandermonde(nodes, rhs, P101)
        for j in range(t):
            assert sum(ci * pow(v, j, 101) for ci, v in zip(c, nodes)) % 101 == rhs[j]


def _check_solves(c, nodes, rhs, p):
    assert all(0 <= x < p for x in c)
    powers = [1] * len(nodes)
    for b in rhs:
        assert sum(map(mul, c, powers)) % p == b % p
        powers = [x * v % p for x, v in zip(powers, nodes)]


def test_vandermonde_solve_agrees_with_shared_master_at_large_primes():
    # (v, M, w) holds the reduced nodes v_i, M = prod (z - v_i) and
    # w_i = 1/M'(v_i), as the known-coefficient kernel reads them: applying
    # it to rhs must give the solve's c_i, the one solution, also for
    # unreduced nodes and rhs.
    for p in (140122640051, 4611686018427387847):
        ctx = FieldContext.for_prime(p)
        rng = random.Random(p)
        for t in (1, 2, 5, 20):
            nodes = [v + rng.choice((0, p, -p)) for v in rng.sample(range(p), t)]
            rhs = [rng.randrange(-p, 2 * p) for _ in range(t)]
            c = solve_transposed_vandermonde(nodes, rhs, ctx)
            reduced, master, weights = shared = vandermonde_master(nodes, ctx)
            assert reduced == [v % p for v in nodes]
            assert len(master) == t + 1 and master[-1] == 1 and len(weights) == t
            deriv = [i * master[i] for i in range(1, t + 1)]
            for v, u in zip(nodes, weights):
                assert eval_dense(master, v, ctx) == 0
                assert eval_dense(deriv, v, ctx) * u % p == 1
            assert c == _vandermonde_apply(shared, rhs, ctx)
            _check_solves(c, nodes, rhs, p)


@pytest.mark.parametrize("t", [64, 300])
def test_vandermonde_solve_in_the_widest_slots(t):
    # At p just below 2^62 a slot of the packed numerator sums t products
    # near p^2, so its width t p^2 is the largest any call reaches; node 0
    # and unreduced nodes and rhs are included.
    p = 4611686018427387847
    ctx = FieldContext.for_prime(p)
    rng = random.Random(t)
    nodes = [0, p - 1, 2 * p - 2]  # 2p - 2 is p - 2, unreduced
    nodes += [v + rng.choice((0, p, -p)) for v in rng.sample(range(1, p - 2), t - 3)]
    rhs = [p - 1, -1, 2 * p - 1] + [rng.randrange(-p, 2 * p) for _ in range(t - 3)]
    c = solve_transposed_vandermonde(nodes, rhs, ctx)
    _check_solves(c, nodes, rhs, p)
    assert c == _vandermonde_apply(vandermonde_master(nodes, ctx), rhs, ctx)
    # M's low coefficients and rhs all at p - 1 (rhs unreduced as -1): slot
    # t - 1 of the packed product then sums t products (p - 1)^2, the most
    # a slot can hold, and a carry out of it would corrupt N's lowest slot.
    m = [p - 1] * t + [1]
    numer = [sum(m[i + j + 1] * (p - 1) for j in range(t - i)) % p for i in range(t)]
    expected = [sum(a * pow(v, i, p) for i, a in enumerate(numer)) % p for v in nodes]
    assert _vandermonde_apply(([v % p for v in nodes], m, [1] * t), [-1] * t, ctx) == expected


def test_roots_by_coefficient_accepts_in_the_widest_slots():
    # The kernel's own solve at t = 64 and p just below 2^62, with root 0,
    # root p - 1 and coefficient p - 1 among the terms.
    p, t = 4611686018427387847, 64
    ctx = FieldContext.for_prime(p)
    rng = random.Random(64)
    roots = [0, p - 1] + rng.sample(range(1, p - 1), t - 2)
    coeffs = [p - 1] + rng.sample(range(1, p - 1), t - 1)
    seq = _prony_sequence(coeffs, roots, 2 * t, p)
    lam = list(berlekamp_massey(seq, ctx).lam)
    assert lam == _monic_from_roots(roots, p)
    assert roots_by_coefficient(lam, seq, vandermonde_master(coeffs, ctx), ctx) == roots


def test_bm_roots_duality():
    # build a sequence from known (coefficient, ratio) pairs; the pipeline
    # must return exactly the ratio set
    rng = random.Random(14)
    for _ in range(40):
        p = rng.choice([101, 65537, 999999937])
        ctx = FieldContext.for_prime(p)
        t = rng.randrange(1, 9)
        ratios = rng.sample(range(1, p), t)
        coeffs = [rng.randrange(1, p) for _ in range(t)]
        seq = _prony_sequence(coeffs, ratios, 2 * t, p)
        rec = berlekamp_massey(seq, ctx)
        assert rec.t == t
        assert find_distinct_roots(list(rec.lam), ctx, rng) == sorted(ratios)


def test_split_annihilator_never_gets_a_zero_weight_small_fields():
    """Every sequence of length 2, 4 and 6 over F_3 and F_5: whenever the
    Berlekamp-Massey annihilator splits into distinct roots, the transposed
    Vandermonde solve gives no zero weight.

    Distinct roots r_1..r_t make the sequences generated by Lambda over the
    window exactly the sums of w_i r_i^j (with 0^0 = 1), and the first t
    values fix the weights. If some w_k were 0, Lambda/(z - r_k), of degree
    t - 1, would generate the whole window, and Lambda would not be the
    minimal generator that berlekamp_massey returns. This pins the argument
    in mc_pairs' docstring that no run returns a zero scaled coefficient."""
    rng = random.Random(15)
    split = 0
    for p in (3, 5):
        ctx = FieldContext.for_prime(p)
        for length in (2, 4, 6):
            for seq in itertools.product(range(p), repeat=length):
                rec = berlekamp_massey(list(seq), ctx)
                if rec.t == 0:
                    continue
                try:
                    roots = find_distinct_roots(list(rec.lam), ctx, rng)
                except TooFewRootsError:
                    continue
                split += 1
                weights = solve_transposed_vandermonde(roots, list(seq[: rec.t]), ctx)
                assert 0 not in weights, (p, seq, roots, weights)
    assert split > 1000


def test_eval_dense():
    assert eval_dense(LAMBDA_101, 1, P101) == 0
    assert eval_dense([], 42, P101) == 0
    x = 3
    naive = sum(c * pow(x, i, 101) for i, c in enumerate(LAMBDA_101)) % 101
    assert eval_dense(LAMBDA_101, x, P101) == naive
