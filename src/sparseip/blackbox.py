"""Sparse polynomial model, instrumented evaluation oracle, and instance I/O.

A SparsePolynomial stores its terms in canonical form: nonzero coefficients,
pairwise-distinct exponent vectors, sorted lexicographically. Interpolation
code never touches the polynomial behind an oracle; it may only call it.
"""

from __future__ import annotations

import random
import threading
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import prod
from operator import itemgetter
from typing import Callable, Sequence

from .field import FieldContext, check_modulus, sample_nonzero

Term = tuple[int, tuple[int, ...]]

_END = 255  # ends each gap's rungs in a plan; no rung reaches it


@dataclass(frozen=True)
class SparsePolynomial:
    """n variables and terms (c, e) with e of length n.

    evaluate reads a private plan, built lazily on first use and then kept
    in the instance: per variable, the width of its squaring ladder (the
    bits of the largest gap between the column's sorted distinct exponents,
    0 included) and one bytes record of each gap's set-bit rungs, each gap
    closed by _END; then the t*n table slots. It is not a field, so ==,
    hash and repr see only n and terms. Per column, a probe costs
    bits(largest gap) - 1 squarings mod p, and per distinct nonzero
    exponent one product of ladder entries (one per set bit of the gap
    below it) times the previous power, reduced mod p once.
    """

    n: int
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        for c, e in self.terms:
            if len(e) != self.n:
                raise ValueError("exponent vector length does not match variable count")

    @property
    def term_count(self) -> int:
        return len(self.terms)

    @cached_property
    def _plan(self) -> tuple[array, list[bytes], array]:
        """(widths, columns, slots). Column j fills table entries x_j^0 = 1
        and then x_j to each of its distinct nonzero exponents in ascending
        order. columns[j] holds, per gap to the next exponent, the ladder
        indices k of its set bits and then _END; widths[j] is the ladder's
        length. slots[i*n + j] is the table entry of x_j^(e_ij). Depends on
        no prime and no point. Rungs are bytes, so exponents must be below
        2^254, far above any exponent below a modulus < 2^62."""
        widths, columns, where = array("B"), [], []
        start = 0
        for column in zip(*map(itemgetter(1), self.terms)):
            exps = sorted({0, *column})
            if exps[0] < 0:
                raise ValueError("exponents must be nonnegative")
            if exps[-1].bit_length() >= _END:
                raise ValueError(f"exponents must be below 2^{_END - 1}")
            gaps = [b - a for a, b in zip(exps, exps[1:])]
            widths.append(max(gaps, default=0).bit_length())
            rungs = bytearray()
            for gap in gaps:
                rungs.extend([*(k for k in range(gap.bit_length()) if gap >> k & 1), _END])
            columns.append(bytes(rungs))
            where.append({d: start + k for k, d in enumerate(exps)})
            start += len(exps)
        slots = array("I", [w[d] for _, e in self.terms for w, d in zip(where, e)])
        return widths, columns, slots


def sparse_polynomial(n: int, terms: Sequence[Term], ctx: FieldContext) -> SparsePolynomial:
    """Canonicalize terms: reduce coefficients mod p, merge duplicate
    monomials, drop zeros, sort lexicographically by exponent vector."""
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    merged: dict[tuple[int, ...], int] = {}
    for c, e in terms:
        e = tuple(int(x) for x in e)
        if len(e) != n:
            raise ValueError("exponent vector length does not match variable count")
        if any(x < 0 for x in e):
            raise ValueError("exponents must be nonnegative")
        merged[e] = (merged.get(e, 0) + c) % ctx.p
    canonical = tuple((c, e) for e, c in sorted(merged.items()) if c)
    return SparsePolynomial(n, canonical)


def evaluate(f: SparsePolynomial, point: Sequence[int], ctx: FieldContext) -> int:
    """f(point) mod p, in [0, p), for any integer point of length n.

    The terms share each coordinate's powers. x_j climbs one squaring
    ladder x_j, x_j^2, x_j^4, ... up to bits(largest gap in its column):
    bits - 1 squarings, shared by every power of x_j (the binary method,
    as in Brauer's 2^k-ary powering). One flat walk over the column's plan
    record then climbs x_j's sorted distinct exponents (an addition
    sequence, Yao 1976): a rung multiplies the running power by its ladder
    entry, and _END reduces it mod p and appends it to the table. Then come
    t*n table lookups and t products. Nothing is kept between points."""
    if len(point) != f.n:
        raise ValueError("point length does not match variable count")
    p = ctx.p
    widths, columns, slots = f._plan
    table: list[int] = []
    append = table.append
    ladder = [0] * (max(widths, default=0) + 1)
    for x, width, rungs in zip(point, widths, columns):
        v = ladder[0] = x % p
        for k in range(1, width):
            ladder[k] = v = v * v % p
        v = 1
        append(v)
        for k in rungs:
            if k == _END:
                v %= p
                append(v)
            else:
                v *= ladder[k]
    # One iterator repeated n times: zip reads each term's n slots in turn.
    powers = map(table.__getitem__, slots)
    return sum(map(prod, zip(map(itemgetter(0), f.terms), *repeat(powers, f.n)))) % p


def poly_equal(f: SparsePolynomial, g: SparsePolynomial) -> bool:
    """Structural equality of canonical forms."""
    if f.n != g.n:
        raise ValueError("polynomials have different variable counts")
    return f.terms == g.terms


def _decode_monomial(code: int, n: int, base: int) -> tuple[int, ...]:
    exps = []
    for _ in range(n):
        code, r = divmod(code, base)
        exps.append(r)
    return tuple(exps)


def random_sparse_polynomial(
    n: int, t: int, D: int, ctx: FieldContext, rng: random.Random
) -> SparsePolynomial:
    """Exactly t terms with distinct monomials, exponents uniform in [0, D],
    coefficients uniform nonzero. Deterministic under a fixed seed."""
    if n < 1 or t < 1 or D < 0:
        raise ValueError("need n >= 1, t >= 1, D >= 0")
    total = (D + 1) ** n
    if t > total:
        raise ValueError(f"cannot place {t} distinct monomials with D={D}, n={n}")
    if 3 * t >= total:
        monomials = [_decode_monomial(c, n, D + 1) for c in rng.sample(range(total), t)]
    else:
        seen: set[tuple[int, ...]] = set()
        while len(seen) < t:
            seen.add(tuple(rng.randrange(D + 1) for _ in range(n)))
        monomials = list(seen)
    terms = [(sample_nonzero(ctx, rng), e) for e in sorted(monomials)]
    return sparse_polynomial(n, terms, ctx)


class EvaluationOracle:
    """Black-box access to an n-variate polynomial with a monotone probe
    counter. Counter updates are atomic; evaluation itself is pure, so
    concurrent probes are safe."""

    def __init__(self, func: Callable[[tuple[int, ...]], int]):
        self._func = func
        self._probes = 0
        self._lock = threading.Lock()

    @classmethod
    def from_polynomial(cls, f: SparsePolynomial, ctx: FieldContext) -> "EvaluationOracle":
        return cls(lambda point: evaluate(f, point, ctx))

    @property
    def probe_count(self) -> int:
        return self._probes

    def __call__(self, point: Sequence[int]) -> int:
        with self._lock:
            self._probes += 1
        return self._func(tuple(point))


def format_instance(f: SparsePolynomial, p: int, D: int) -> str:
    """Instance file format: line 1 is 'p n t D', then one 'c e1 ... en'
    line per term, all decimal."""
    lines = [f"{p} {f.n} {f.term_count} {D}"]
    for c, e in f.terms:
        lines.append(" ".join(str(x) for x in (c, *e)))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> tuple[SparsePolynomial, int, int]:
    """Parse the instance format; returns (polynomial, p, D)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty instance file")
    header = lines[0].split()
    if len(header) != 4:
        raise ValueError("header must be 'p n t D'")
    p, n, t, D = (int(x) for x in header)
    if n < 1 or D < 0:
        raise ValueError(f"header {lines[0]!r} needs n >= 1 and D >= 0")
    if len(lines) - 1 != t:
        raise ValueError(f"expected {t} term lines, found {len(lines) - 1}")
    check_modulus(p)
    terms = []
    for ln in lines[1:]:
        parts = [int(x) for x in ln.split()]
        if len(parts) != n + 1:
            raise ValueError(f"term line needs {n + 1} values: {ln!r}")
        c, e = parts[0], tuple(parts[1:])
        if not 0 < c < p:
            raise ValueError(f"coefficient out of range: {c}")
        if any(x < 0 or x > D for x in e):
            raise ValueError(f"exponent out of range in line {ln!r}")
        terms.append((c, e))
    if len({e for _, e in terms}) != t:
        raise ValueError("two term lines share a monomial")
    return SparsePolynomial(n, tuple(sorted(terms, key=lambda term: term[1]))), p, D


def write_instance(f: SparsePolynomial, p: int, D: int, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_instance(f, p, D))


def read_instance(path: str) -> tuple[SparsePolynomial, int, int]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_instance(fh.read())
