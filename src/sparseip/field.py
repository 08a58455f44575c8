"""Prime-field arithmetic, primitive roots, and a bounded discrete logarithm.

Field elements are plain Python ints kept as canonical residues in [0, p-1].
A FieldContext bundles the modulus with the factored group order p-1, which
is what primitive-root validation needs. The discrete log over [0, D]
reads e mod s from the subgroup of order s | p-1 with one pow when that
pays (else s = 1), then walks baby-step/giant-step over the D//s + 1
candidates left. Its tables depend only on the generator, the bound and the
number L of logs they serve, and are sized so that L logs take
O(sqrt(L D/s)) steps in all, not O(L sqrt(D/s)) (Shanks; Bernstein & Lange,
"Computing small discrete logarithms faster"). A caller with many logs for
one (omega, D) builds them once with baby_steps and passes them to every
bounded_dlog call.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

MAX_MODULUS_BITS = 62

# Deterministic Miller-Rabin bases: they decide primality only below
# 318665857834031151167461 = 399165290221 * 798330580441, which passes all 12.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Return a proper factor of an odd composite n: Pollard's rho on
    x -> x^2 + c from x = 2 with Floyd's cycle finding, for c = 1, 2, ..."""
    for c in itertools.count(1):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n >= 1 into sorted (prime, multiplicity) pairs.

    The power of 2 is read off the lowest set bit. Each odd part left is
    recorded if Miller-Rabin calls it prime, else split by Pollard's rho.
    """
    if n < 1:
        raise ValueError("can only factor positive integers")
    twos = (n & -n).bit_length() - 1
    factors = {2: twos} if twos else {}
    stack = [n >> twos]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            stack += (d, m // d)
    return sorted(factors.items())


def check_modulus(p: int) -> None:
    """Raise ValueError unless p is a prime below 2^MAX_MODULUS_BITS. Does
    not factor p - 1."""
    if p.bit_length() > MAX_MODULUS_BITS:
        raise ValueError(f"modulus must be below 2^{MAX_MODULUS_BITS}")
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")


@dataclass(frozen=True)
class FieldContext:
    """A prime modulus p together with the factorization of p - 1.

    Immutable, so safe to share between threads.
    """

    p: int
    order_factorization: tuple[tuple[int, int], ...]

    @classmethod
    def for_prime(cls, p: int) -> "FieldContext":
        check_modulus(p)
        return cls(p, tuple(factorize(p - 1)))


def is_primitive_root(ctx: FieldContext, g: int) -> bool:
    """True iff g has multiplicative order exactly p - 1."""
    g %= ctx.p
    if g == 0:
        return False
    return all(pow(g, (ctx.p - 1) // r, ctx.p) != 1 for r, _ in ctx.order_factorization)


def find_primitive_root(ctx: FieldContext, rng: random.Random) -> int:
    """Pick random candidates until one generates the full group.

    Expected O(log p) candidates since a (phi(p-1)/(p-1)) fraction works.
    """
    if ctx.p == 2:
        return 1
    while True:
        g = rng.randrange(2, ctx.p)
        if is_primitive_root(ctx, g):
            return g


def sample_nonzero(ctx: FieldContext, rng: random.Random) -> int:
    """Uniform draw from [1, p-1]."""
    return rng.randrange(1, ctx.p)


# (s, sub, baby, giant, unshift), as baby_steps builds them
DlogTables = tuple[int, dict[int, int], dict[int, int], int, list[int]]

# The most baby steps a table gets for many logs, a memory ceiling: 2^18
# entries take about 26 MiB.
_MAX_BABY_STEPS = 1 << 18


def _power_table(g: int, count: int, p: int) -> dict[int, int]:
    """{g^j: j} for j < count."""
    table: dict[int, int] = {}
    cur = 1
    for j in range(count):
        table[cur] = j
        cur = cur * g % p
    return table


def baby_steps(ctx: FieldContext, omega: int, bound: int, logs: int = 1) -> DlogTables:
    """The tables bounded_dlog uses for this omega and bound, sized for logs
    logs: (s, sub, baby, giant, unshift).

    s is the largest divisor of p - 1 up to isqrt(bound) + 1 (from
    ctx.order_factorization), or 1 if it saves under 2 bits(p) giant steps
    per log, about what its pow costs. sub is {gamma^j: j} and unshift[j] is
    omega^-j for j < s, where gamma = omega^((p-1)/s) has order exactly s;
    baby is {(omega^s)^j: j} for j < m, so a log takes at most
    (bound // s) // m + 1 giant steps of giant = omega^(-s*m). With
    N = bound // s, m = isqrt(logs (N+1) / 2) + 1 balances building the
    table against the giant steps of all logs; m stays between isqrt(N) + 1
    and N + 1, and at most _MAX_BABY_STEPS unless isqrt(N) + 1 is more.
    """
    p = ctx.p
    cap = math.isqrt(bound) + 1
    divisors = [1]
    for q, mult in ctx.order_factorization:
        divisors = [d * q**i for d in divisors for i in range(mult + 1) if d * q**i <= cap]

    def size(n: int) -> int:
        balanced = math.isqrt(logs * (n + 1) // 2) + 1
        return max(math.isqrt(n) + 1, min(n + 1, balanced, _MAX_BABY_STEPS))

    s = max(divisors)
    if bound // size(bound) - bound // s // size(bound // s) < 2 * p.bit_length():
        s = 1
    m = size(bound // s)
    sub = _power_table(pow(omega, (p - 1) // s, p), s, p)
    unshift = list(_power_table(pow(omega, -1, p), s, p))  # keys omega^-j, j < s
    return s, sub, _power_table(pow(omega, s, p), m, p), pow(omega, -s * m, p), unshift


def bounded_dlog(
    ctx: FieldContext,
    omega: int,
    target: int,
    bound: int,
    baby: Optional[DlogTables] = None,
) -> Optional[int]:
    """Find the unique e in [0, bound] with omega^e = target, or None, for a
    generator omega of F_p^*.

    With (s, sub, baby, giant, unshift) = baby_steps(ctx, omega, bound,
    logs): if s > 1, one pow, target^((p-1)/s) = gamma^(e mod s), and one
    lookup in sub give r = e mod s (Pohlig-Hellman); else r = 0. Then
    e = r + s*k, and baby-step/giant-step finds k in [0, (bound - r) // s]
    from target * unshift[r] in at most (bound // s) // m + 1 giant steps.
    baby, if given, must be baby_steps(ctx, omega, bound, logs) for some
    logs; it is only read, so one table serves every log for that omega and
    bound. Without it the call builds its own for one log.
    """
    p = ctx.p
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound >= p - 1:
        raise ValueError("bound must be below the group order p - 1")
    target %= p
    if target == 0:
        return None
    if baby is None:
        baby = baby_steps(ctx, omega, bound)
    s, sub, steps, giant, unshift = baby
    # r < s <= isqrt(bound) + 1, so r <= bound
    r = sub[pow(target, (p - 1) // s, p)] if s > 1 else 0
    last = (bound - r) // s
    m = len(steps)
    get = steps.get
    y = target * unshift[r] % p
    for i in range(last // m + 1):
        j = get(y)
        if j is not None:
            # The first hit gives the least k, and j < m, so k = i*m + j can
            # pass last only at the final step, i = last // m
            k = i * m + j
            return r + s * k if k <= last else None
        y = y * giant % p
    return None
