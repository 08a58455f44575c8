"""Sequence and polynomial kernels over F_p.

Minimal linear recurrence (Berlekamp-Massey), distinct-root extraction of the
annihilator polynomial, recovery of its roots from known coefficients by one
gcd each (deflating by every root found), and the transposed Vandermonde
solve. Dense polynomials are plain lists of coefficients in ascending power
order with no trailing zeros; [] is the zero polynomial.

Root finding spends nearly all its time in _ppowmod, powers modulo a
polynomial. It packs each residue into one int (Kronecker substitution), and
its powering loop runs only whole-int products, shifts and masks: an exact
polynomial Barrett quotient, and an integer Barrett step that reduces every
slot mod p at once (SWAR, Fisher & Dietz 1998). The gcds keep schoolbook
division, as their quotients are mostly linear. _pdivmod divides by any
nonzero divisor, so Euclid makes only its last remainder monic (von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .field import FieldContext


class TooFewRootsError(Exception):
    """The annihilator does not split into distinct linear factors over F_p."""


class SplittingBudgetError(RuntimeError):
    """Randomized equal-degree splitting exceeded its retry budget."""


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def eval_dense(coeffs: list[int], x: int, ctx: FieldContext) -> int:
    """Horner evaluation of a dense polynomial at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % ctx.p
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


def _pdivmod(a: list[int], m: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by any nonzero m without trailing zeros.
    The leading coefficient of m is inverted once: pow(0, -1, p) raises if m
    is not trimmed, and m = [] raises IndexError."""
    a = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    quot = [0] * max(0, len(a) - dm)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] * inv % p
        if c:
            quot[i - dm] = c
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _trim(quot), _trim(a[:dm])


def _pdiv_linear(a: list[int], u: int, p: int) -> list[int]:
    """Quotient of a by (z - u), synthetic division; the remainder a(u) is
    dropped."""
    q = [0] * (len(a) - 1)
    acc = 0
    for j in range(len(a) - 1, 0, -1):
        acc = (a[j] + acc * u) % p
        q[j - 1] = acc
    return q


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b, which need not be trimmed; gcd(0, 0) = [].

    Euclid divides by each remainder as it comes: a mod b is the same for
    every nonzero multiple of b, so only the last remainder is made monic.
    """
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    inv = pow(a[-1], -1, p) if a else 0
    return [c * inv % p for c in a]


def _ppowmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    """base^e mod the monic m of degree d >= 1.

    A residue of degree < d is one int with coefficient i in the w-bit slot
    i, lazily reduced to [0, v], v = 3p - 1, and fully reduced only when
    unpacked. A product x = H z^d + L (deg H <= d - 2, deg L < d) has
    quotient q = quo(H mu, z^(d-1)) by m, for mu = quo(z^(2d-1), m) computed
    once per call. This is exact: with z^(2d-1) = mu m + rho, deg rho < d,
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

    rev_m = m[-2::-1]  # coefficients of z, z^2, ... in rev(m) = z^d m(1/z)
    inv = [1]  # rev(m)^-1 mod z^d, whose reversal is mu
    for _ in range(d - 1):
        inv.append(-sum(map(int.__mul__, rev_m, reversed(inv))) % p)
    mu, m_low = pack(inv[::-1]), pack(m[:d])
    b = pack(_pdivmod(base, m, p)[1])
    r = b if e else 1
    for bit in bin(e)[3:]:
        r = reduce(r * r)
        if bit == "1":
            r = reduce(r * b)
    return _trim([(r >> i & mask) % p for i in range(0, dw, w)])


def find_distinct_roots(lam: list[int], ctx: FieldContext, rng: random.Random) -> list[int]:
    """All roots of a monic polynomial with coefficients in [0, p), as
    berlekamp_massey gives them, required to be simple and to account for
    the full degree.

    Computes g = gcd(z^p - z, lam); if deg g < deg lam the polynomial has
    repeated or non-linear factors and TooFewRootsError is raised. Otherwise
    g == lam, which is split into linear factors by random
    (z+delta)^((p-1)/2) splittings.
    Returns the roots sorted ascending.
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
    xp = _ppowmod([0, 1], p, lam, p) + [0, 0]
    xp[1] = (xp[1] - 1) % p
    g = _pgcd(xp, lam, p)
    if len(g) - 1 < t:
        raise TooFewRootsError(f"only {len(g) - 1} distinct roots for degree {t}")
    # Equal-degree splitting down to linear factors. Expected O(log t)
    # splittings per factor; the attempt cap guards against RNG pathology.
    attempt_limit = 64 * (1 + t.bit_length())
    attempts = 0
    half = (p - 1) // 2
    roots: list[int] = []
    stack = [lam]  # g is monic of degree t, so g == lam
    while stack:
        h = stack.pop()
        d = len(h) - 1  # >= 1: lam and every proper factor pushed below
        if d == 1:
            roots.append((-h[0]) % p)
            continue
        if h[0] == 0:
            roots.append(0)
            stack.append(h[1:])
            continue
        while True:
            attempts += 1
            if attempts > attempt_limit:
                raise SplittingBudgetError(
                    f"no proper split of a degree-{d} factor after {attempts} attempts"
                )
            delta = rng.randrange(p)
            # Never zero: h has distinct roots in F_p, not all -delta (half = 0 at p = 2).
            w = _ppowmod([delta, 1], half, h, p)
            w[0] = (w[0] - 1) % p
            g1 = _pgcd(w, h, p)
            if 0 < len(g1) - 1 < d:
                g2, rem = _pdivmod(h, g1, p)
                assert not rem
                stack.append(g1)
                stack.append(g2)
                break
    return sorted(roots)


def roots_by_coefficient(
    lam: Sequence[int], seq: Sequence[int], coeffs: Sequence[int], ctx: FieldContext
) -> Optional[list[int]]:
    """The root u_j of the monic lam (as from berlekamp_massey) that carries
    the known coefficient coeffs[j], for every j, or None.

    With t = deg lam, P is the polynomial part of lam(z) * sum_i a_i z^(-i-1)
    for a_i = seq[i], i < t (so P/lam is that sum when a satisfies lam's
    recurrence). If a_i = sum_j c_j u_j^i with lam = prod (z - u_j), then
    P = sum_j c_j lam/(z - u_j), hence c_j = P(u_j)/lam'(u_j), and u_j is the
    single root of gcd(lam, P - c_j lam') (Rothstein-Trager). One gcd per
    coefficient; no root finding, no randomness. After each root u is found
    for c, lam and P are deflated: lam becomes lam/(z - u) and P becomes
    (P - c lam/(z - u))/(z - u), so each later gcd runs one degree lower.

    Returns [u_j] in coeffs order only when deg lam == len(coeffs), every gcd
    is linear and the u_j are pairwise distinct. This happens exactly when
    find_distinct_roots(lam) succeeds and solve_transposed_vandermonde on
    its roots and seq[:t] returns a permutation of coeffs, and then the u_j
    are those roots:
    - If lam = prod (z - r_l) with distinct r_l and the solve gives d, then
      P = sum_l d_l lam/(z - r_l), so P - c lam' takes the value
      (d_l - c) lam'(r_l) at r_l, and lam'(r_l) != 0. Since lam is
      squarefree, the gcd is prod over {l : d_l = c} of (z - r_l): linear
      with root r_l when d is a permutation of distinct coeffs and
      c = d_l. Deflating that term leaves lam1 = lam/(z - r_l) and
      P1 = sum over l' != l of d_l' lam1/(z - r_l'), the same structure one
      degree lower, so every later gcd is linear too.
    - Conversely, t linear gcds peel t linear factors off the degree-t lam,
      so lam = prod (z - u_j), squarefree as the u_j are distinct. The solve
      on the u_j gives d with P = sum_j d_j lam/(z - u_j). Suppose that
      before step j, lam_j = prod over l >= j of (z - u_l) and
      P_j = sum over l >= j of d_l lam_j/(z - u_l), as at j = 1. The gcd's
      root says P_j(u_j) = c_j lam_j'(u_j), while the sum gives
      P_j(u_j) = d_j lam_j'(u_j) with lam_j'(u_j) != 0, so d_j = c_j, and
      deflating by u_j keeps the form for step j + 1.
    """
    p = ctx.p
    t = len(lam) - 1
    if t != len(coeffs):
        return None
    poly = [sum(lam[m + i + 1] * seq[i] for i in range(t - m)) % p for m in range(t)]
    roots = []
    for c in coeffs:
        deriv = [k * lam[k] % p for k in range(1, len(lam))]
        g = _pgcd(lam, [(a - c * b) % p for a, b in zip(poly, deriv)], p)
        if len(g) != 2:
            return None
        u = (-g[0]) % p
        roots.append(u)
        lam = _pdiv_linear(lam, u, p)
        poly = _pdiv_linear([(a - c * b) % p for a, b in zip(poly, lam)], u, p)
    if len(set(roots)) != t:
        return None
    return roots


def solve_transposed_vandermonde(
    nodes: list[int], rhs: list[int], ctx: FieldContext
) -> list[int]:
    """Solve sum_i c_i * nodes[i]^j = rhs[j] for j = 0..t-1.

    Master-polynomial method: with M(z) = prod(z - v_i) and Q_i = M/(z - v_i),
    c_i = (sum_j Q_i[j]*rhs[j]) / Q_i(v_i). Quadratic time, fine at desk scale.
    """
    p = ctx.p
    t = len(nodes)
    if t == 0 or len(rhs) != t:
        raise ValueError("nodes and rhs must be nonempty and of equal length")
    nodes = [v % p for v in nodes]
    if len(set(nodes)) != t:
        raise ValueError("nodes must be pairwise distinct")
    master = [1]
    for v in nodes:  # master *= z - v, in place
        master.insert(0, 0)
        for i in range(len(master) - 1):
            master[i] = (master[i] - v * master[i + 1]) % p
    out = []
    for v in nodes:
        q = _pdiv_linear(master, v, p)
        denom = eval_dense(q, v, ctx)
        num = sum(qj * aj for qj, aj in zip(q, rhs)) % p
        out.append(num * pow(denom, -1, p) % p)
    return out
