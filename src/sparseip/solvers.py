"""Sequence and polynomial kernels over F_p.

Minimal linear recurrence (Berlekamp-Massey), distinct-root extraction of the
annihilator polynomial, recovery of its roots from known coefficients by
power projection, and the transposed Vandermonde solve. Dense polynomials
are plain lists of coefficients in ascending power order with no trailing
zeros; [] is the zero polynomial.

_residues packs each residue modulo a polynomial into one int (Kronecker
substitution) and runs only whole-int products, shifts and masks: an exact
polynomial Barrett quotient, an integer Barrett step that reduces every slot
mod p at once (SWAR, Fisher & Dietz 1998), powering, and one division-free
extended Euclid that gives inverses, monic gcds and exact quotients by the
gcd. Root finding and the known-coefficient kernel both run on it, one ring
per modulus (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 3 and
14).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from .field import FieldContext


class TooFewRootsError(Exception):
    """The annihilator does not split into distinct linear factors over F_p."""


class SplittingBudgetError(RuntimeError):
    """Randomized equal-degree splitting exceeded its retry budget."""


Master = tuple[list[int], list[int], list[int]]  # (v, M, w): see vandermonde_master

# Draws per factor before SplittingBudgetError. Each splits a factor with
# probability about 1/2 or better: an honest rng runs out once in ~2^64.
_SPLIT_ATTEMPTS = 64


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def eval_dense(coeffs: list[int], x: int, ctx: FieldContext) -> int:
    """Horner evaluation at x, reduced mod p once per four coefficients."""
    p, acc = ctx.p, 0
    top = iter([0] * (-len(coeffs) % 4) + list(reversed(coeffs)))
    for a, b, c, d in zip(top, top, top, top):
        acc = ((((acc * x + a) * x + b) * x + c) * x + d) % p
    return acc


@dataclass(frozen=True)
class RecurrenceResult:
    """Minimal generator of a sequence: t = recurrence length, lam monic of
    degree t (ascending coefficients) with
    a[j+t] + sum_{k<t} lam[k]*a[j+k] = 0 for all admissible j."""

    t: int
    lam: tuple[int, ...]


def berlekamp_massey(sequence: list[int], ctx: FieldContext) -> RecurrenceResult:
    """Minimal-length linear generator of a length-2T sequence over F_p.

    For a sum of t geometric progressions with distinct nonzero ratios and
    nonzero weights (t <= T), returns exactly that t and the monic annihilator
    whose roots are the ratios.
    """
    p = ctx.p
    if len(sequence) % 2:
        raise ValueError("sequence length must be even (2T probes)")
    seq = [s % p for s in sequence]
    conn = [1]  # connection polynomial, conn[0] == 1
    prev = [1]
    length = 0
    shift = 1
    last_d = 1
    for i, s in enumerate(seq):
        d = s
        for k in range(1, length + 1):
            d = (d + conn[k] * seq[i - k]) % p
        if d == 0:
            shift += 1
            continue
        coef = d * pow(last_d, -1, p) % p
        update = conn[:]
        if len(update) < len(prev) + shift:
            update += [0] * (len(prev) + shift - len(update))
        for k, pv in enumerate(prev):
            update[k + shift] = (update[k + shift] - coef * pv) % p
        if 2 * length <= i:
            prev = conn
            last_d = d
            length = i + 1 - length
            shift = 1
        else:
            shift += 1
        conn = update
    conn = conn[: length + 1] + [0] * (length + 1 - len(conn))
    lam = tuple(reversed(conn))
    return RecurrenceResult(length, lam)


def _residues(m: list[int], p: int):
    """Packed residues modulo the monic m of degree d >= 1: (w, pack, red,
    reduce, unpack, power, gcd). pack puts coefficient i in the w-bit slot i
    of one int, red reduces slots below 2^B (B below) to [0, v], reduce maps
    a product of two residues to a residue, unpack gives the trimmed list
    back, and power(b, e) is b^e for a residue b. gcd(a), for a list a of
    degree < d, is (k, g, u), g and u packed: g = gcd(a, m), monic of degree
    k, and u = a^-1 mod m if k = 0, else the exact quotient m/g. gcd(0, m)
    = m has k = d, and unpack, which reads d slots, drops its leading 1.

    A packed residue has degree < d and slots lazily reduced to [0, v],
    v = 3p - 1; only unpack reduces them fully. A product x = H z^d + L
    (deg H <= d - 2, deg L < d) has quotient q = quo(H mu, z^(d-1)) by m,
    for mu = quo(z^(2d-1), m) computed once here. This is exact: with
    z^(2d-1) = mu m + rho, deg rho < d,
    x z^(d-1) = H mu m + (H rho + L z^(d-1)) = q z^(d-1) m + r z^(d-1). The
    bracketed term and r z^(d-1) have degree <= 2d - 2, so their quotients
    by m have degree < d - 1 and drop out of quo(., z^(d-1)). Then
    x mod m = L + C - (q m_low mod z^d) for m_low = m - z^d, where C holds
    c = (d - 1) v p, a multiple of p above any slot of q m_low, in each
    slot, so no slot goes negative or borrows from the next.

    A slot of a product of two residues sums at most d products of values
    <= v, so red() only sees slots below 2^B, B = bits(d v^2 + c). With
    s = bits(p) - 1 and beta = floor(2^B / p), ((x >> s) beta) >> (B - s)
    is at most 2 short of floor(x / p) (Barrett 1986), which keeps slots in
    [0, v]. (x >> s) beta < 2^(2(B - s)), so slots w = 2(B - s) bits wide
    never carry, and w >= B as B >= 2 bits(p).
    """
    d = len(m) - 1
    v = 3 * p - 1
    c = (d - 1) * v * p
    bound = (d * v * v + c).bit_length()
    s = p.bit_length() - 1
    w = 2 * (bound - s)
    dw, hw = d * w, (d - 1) * w
    low, mask = (1 << dw) - 1, (1 << w) - 1
    ones = low // mask  # 1 in each of the d slots
    hmask, beta, offset = ((1 << bound - s) - 1) * ones, (1 << bound) // p, c * ones

    def pack(coeffs: list[int]) -> int:
        x = 0
        for a in reversed(coeffs):
            x = x << w | a % p
        return x

    def red(x: int) -> int:
        return x - ((x >> s & hmask) * beta >> bound - s & hmask) * p

    def reduce(x: int) -> int:
        q = red(red(x >> dw) * mu >> hw)
        return red((x & low) + offset - (q * m_low & low))

    def unpack(x: int) -> list[int]:
        return _trim([(x >> i & mask) % p for i in range(0, dw, w)])

    def power(b: int, e: int) -> int:
        r = b if e else 1
        for bit in bin(e)[3:]:
            r = reduce(r * r)
            if bit == "1":
                r = reduce(r * b)
        return r

    def gcd(a: list[int]) -> tuple[int, int, int]:
        # Extended Euclid without divisions: r0 <- l1 r0 - l0 z^k r1 (l0, l1
        # leading coefficients), and u_i a = r_i mod m for the cofactors.
        # big keeps slots nonnegative. Slots at and above deg r0, and at and
        # above d in z^k u1 (deg u < d), are 0 mod p and masked off; those
        # above deg u are 0 mod p, so (x >> i w) % p is slot i mod p. A
        # constant remainder means gcd 1. Once r1 = 0, u1 a = 0 mod m and
        # deg u1 = d - deg r0 make u1 a constant multiple of m/gcd.
        a = _trim([x % p for x in a])
        r0, d0, u0, r1, d1, u1 = pack(m), d, 0, pack(a), len(a) - 1, 1
        while d1 > 0:
            l1 = (r1 >> d1 * w) % p
            while d0 >= d1:
                l0, k = (r0 >> d0 * w) % p, (d0 - d1) * w
                r0 = red(l1 * r0 + big - (l0 * r1 << k)) & (1 << d0 * w) - 1
                u0 = red(l1 * u0 + big - (l0 * u1 << k & low)) & low
                d0 -= 1
                while d0 >= 0 and (r0 >> d0 * w) % p == 0:
                    r0 &= (1 << d0 * w) - 1
                    d0 -= 1
            r0, d0, u0, r1, d1, u1 = r1, d1, u1, r0, d0, u0
        if d1 == 0:
            return 0, 1, red(u1 * pow(r1 % p, -1, p))
        g = red(r0 * pow((r0 >> d0 * w) % p, -1, p))
        return d0, g, red(u1 * pow((u1 >> (d - d0) * w) % p, -1, p))

    rev_m = m[-2::-1]  # coefficients of z, z^2, ... in rev(m) = z^d m(1/z)
    inv = [1]  # rev(m)^-1 mod z^d, whose reversal is mu
    for _ in range(d - 1):
        inv.append(-sum(map(mul, rev_m, reversed(inv))) % p)
    mu, m_low = pack(inv[::-1]), pack(m[:d])
    big = 3 * p * p * (ones << w | 1)  # 3p^2 in each of d + 1 slots
    return w, pack, red, reduce, unpack, power, gcd


def _split_ring(lam: list[int], p: int):
    """_residues(lam, p) if the monic lam, of degree t >= 2, has t distinct
    roots in F_p, that is if z^p = z mod lam: one packed power decides.
    Else TooFewRootsError names deg gcd(z^p - z, lam), the distinct roots."""
    ring = w, pack, _, _, unpack, power, gcd = _residues(lam, p)
    zp_z = unpack(power(pack([0, 1]), p) + (p - 1 << w))  # z^p - z
    if zp_z:
        raise TooFewRootsError(f"only {gcd(zp_z)[0]} distinct roots for degree {len(lam) - 1}")
    return ring


def find_distinct_roots(lam: list[int], ctx: FieldContext, rng: random.Random) -> list[int]:
    """All roots of a monic polynomial with coefficients in [0, p), as
    berlekamp_massey gives them, required to be simple and to account for
    the full degree (_split_ring). Returns the roots sorted ascending.

    A split lam is factored by equal-degree splitting: a factor h of degree
    d > 1 with h(0) != 0 splits as g = gcd((z + delta)^((p-1)/2) - 1, h)
    and h/g whenever 0 < deg g < d, for delta = rng.randrange(p), one draw
    per attempt (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14).
    All arithmetic modulo h runs on one packed ring per factor. A factor of
    degree 1 gives its root -h(0) without a ring or a draw.
    """
    p = ctx.p
    lam = _trim(list(lam))
    if not lam:
        raise ValueError("zero polynomial has no well-defined root set")
    t = len(lam) - 1
    if t == 0:
        return []
    if lam[-1] != 1:
        raise ValueError("polynomial must be monic")
    if t == 1:
        return [(-lam[0]) % p]
    ring = _split_ring(lam, p)
    half = (p - 1) // 2
    roots: list[int] = []
    stack = [lam]
    while stack:
        h = stack.pop()
        d = len(h) - 1
        if d == 1:
            roots.append((-h[0]) % p)
            continue
        if h[0] == 0:
            roots.append(0)
            stack.append(h[1:])
            continue
        # lam's ring, built for the z^p test, serves lam's own splits
        _, pack, _, _, unpack, power, gcd = ring if h is lam else _residues(h, p)
        for _ in range(_SPLIT_ATTEMPTS):
            delta = rng.randrange(p)
            # (z + delta)^half - 1; at p = 2 no factor of degree > 1 with
            # h(0) != 0 has distinct roots, so half = 0 never gets here.
            k, g, u = gcd(unpack(power(pack([delta, 1]), half) + p - 1))
            if 0 < k < d:
                stack += [unpack(g), unpack(u)]
                break
        else:
            raise SplittingBudgetError(
                f"no proper split of a degree-{d} factor after {_SPLIT_ATTEMPTS} attempts"
            )
    return sorted(roots)


def roots_by_coefficient(
    lam: Sequence[int], seq: Sequence[int], known: Master, ctx: FieldContext
) -> Optional[list[int]]:
    """The root u_j of the monic lam (as from berlekamp_massey) that carries
    c_j, for every j, for known = (c, M, w) = vandermonde_master(coeffs).

    P is the polynomial part of lam(z) sum_i a_i z^(-i-1), a_i = seq[i],
    i < t = deg lam. If a_i = sum_j c_j u_j^i and lam = prod (z - u_j), then
    P = sum_j c_j lam/(z - u_j), and theta = P/lam' mod lam (one extended
    Euclid) has theta(u_j) = c_j. With a extended by lam's recurrence to
    a_0 .. a_(2t-1), l(h) = sum_m h_m a_m = sum_j c_j h(u_j) for deg h < 2t,
    so s_i = l(z theta^(i-1) mod lam) = sum_j u_j c_j^i for 0 < i < t, and
    s_0 = sum_j u_j = -lam[t-1]. These power projections (Shoup) take about
    2 sqrt(t) products mod lam, baby-step/giant-step: for i - 1 = gk + r,
    s_i is the dot product of theta^r with a window of a read off one
    product of theta^(gk) mod lam and the reversed a. Then u solves a
    transposed Vandermonde system in the known, distinct c_j (Kaltofen &
    Lakshman 1988) from known, which is only read: one serves every run.

    Accepts only if t = len(c), lam' is invertible mod lam (lam is
    squarefree), den = prod (z - u_j) is lam and num = sum_j c_j den/(z - u_j)
    is P: the u_j are distinct roots of lam with P(u_j) = c_j lam'(u_j).
    That is exactly when find_distinct_roots succeeds and
    solve_transposed_vandermonde on its roots and seq[:t] returns a
    permutation of c, and the u_j are then those roots. If
    lam = prod (z - r_l) with distinct r_l and the solve gives d, a
    permutation of c, then a_i = sum_l d_l r_l^i for i < 2t,
    theta(r_l) = d_l, and u_j = r_l where d_l = c_j is the system's one
    solution, which passes. Conversely, den = lam gives t distinct roots
    u_j; the solve on them gives d with P = sum_j d_j lam/(z - u_j), so
    num = P leaves sum_j (c_j - d_j) lam/(z - u_j) = 0, which at u_j reads
    (c_j - d_j) lam'(u_j) = 0 with lam'(u_j) != 0. Only these checks
    decide, whatever the computed u_j; no root finding, no randomness. A
    rejection gives None, unless lam, of degree >= 2 (degree 1 splits),
    fails _split_ring: then TooFewRootsError, as in find_distinct_roots.
    """
    p, t = ctx.p, len(lam) - 1
    lam = [x % p for x in lam]
    roots = _known_roots(lam, seq, known, ctx) if t == len(known[0]) else None
    if roots is None and t > 1:
        _split_ring(lam, p)
    return roots


def _known_roots(lam: list[int], seq: Sequence[int], known: Master, ctx: FieldContext):
    """roots_by_coefficient for lam reduced mod p and t = len(c): roots or None."""
    p, t = ctx.p, len(lam) - 1
    if not t:
        return []
    w, pack, red, reduce, unpack, _, gcd = _residues(lam, p)
    common, _, inv = gcd([i * lam[i] for i in range(1, t + 1)])
    if common:  # deg gcd(lam', lam) > 0
        return None
    a = [x % p for x in seq[:t]]
    for i in range(t):  # a_(i+t) by the recurrence
        a.append(-sum(map(mul, lam, a[i:])) % p)
    poly = red(pack(lam) * pack(a[t - 1 :: -1]) >> t * w)  # P
    theta = reduce(poly * inv)
    k = math.isqrt(t) + 1
    powers, x = [[1]], 1  # theta^r for r < k
    for _ in range(k - 1):
        x = reduce(x * theta)
        powers.append(unpack(x))
    giant, rev_a, mask = reduce(x * theta), pack(a[:0:-1]), (1 << w) - 1
    s, h, window = [-lam[t - 1] % p], 1, a[1 : t + 1]
    while True:
        s += [sum(map(mul, r, window)) % p for r in powers[: t - len(s)]]
        if len(s) == t:
            break
        h = reduce(h * giant)
        prod = h * rev_a  # slots t - 1 .. 2t - 2 hold the window, reversed
        window = [(prod >> i & mask) % p for i in range((2 * t - 2) * w, (t - 2) * w, -w)]
    roots = _vandermonde_apply(known, s, ctx)
    num, den = 0, 1
    for c, u in zip(known[0], roots):  # num/den += c/(z - u)
        lin = 1 << w | -u % p
        num, den = red(num * lin + c * den), red(den * lin)
    if unpack(den) != _trim(lam[:t]) or unpack(num) != unpack(poly):
        return None
    return roots


def vandermonde_master(nodes: Sequence[int], ctx: FieldContext) -> Master:
    """(v, M, w) for distinct nodes, reduced to v_i: M = prod (z - v_i),
    ascending, and w_i = 1/M'(v_i), which every solve in these nodes shares."""
    p = ctx.p
    nodes = [v % p for v in nodes]
    if len(set(nodes)) != len(nodes):
        raise ValueError("nodes must be pairwise distinct")
    master = [1]
    for v in nodes:  # master *= z - v
        master = [(a + (p - v) * b) % p for a, b in zip([0] + master, master)] + [1]
    deriv = [i * master[i] % p for i in range(1, len(master))]
    return nodes, master, [pow(eval_dense(deriv, v, ctx), -1, p) for v in nodes]


def _vandermonde_apply(known: Master, rhs: Sequence[int], ctx: FieldContext) -> list[int]:
    """The c_i with sum_i c_i v_i^j = rhs[j], j < t, for (v, M, w) =
    vandermonde_master(nodes, ctx): c_i = N(v_i) w_i, where N, the
    polynomial part of M(z) sum_j rhs_j z^(-j-1), is slots t .. 2t - 1 of
    one product of packed M and reversed rhs (Kaltofen & Lakshman 1988). A
    slot sums at most t products below p^2, so w-bit slots never carry."""
    nodes, m, weights = known
    p, t = ctx.p, len(nodes)
    w = (t * (p - 1) ** 2).bit_length()
    x, y = 1, 0  # M is monic
    for a, b in zip(m[-2::-1], rhs):  # M from the top, rhs reversed
        x, y = x << w | a, y << w | b % p
    prod, mask = x * y, (1 << w) - 1
    numer = [(prod >> i * w & mask) % p for i in range(t, 2 * t)]
    return [eval_dense(numer, v, ctx) * u % p for v, u in zip(nodes, weights)]


def solve_transposed_vandermonde(
    nodes: list[int], rhs: list[int], ctx: FieldContext
) -> list[int]:
    """Solve sum_i c_i * nodes[i]^j = rhs[j] for j = 0..t-1: build
    vandermonde_master(nodes), then apply it to rhs (at t = 0, [])."""
    if len(rhs) != len(nodes):
        raise ValueError("nodes and rhs must have equal length")
    return _vandermonde_apply(vandermonde_master(nodes, ctx), rhs, ctx)
