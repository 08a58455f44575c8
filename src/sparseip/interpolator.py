"""Diversified Ben-Or/Tiwari interpolation over a prime field.

Two layers: mc_pairs recovers the sorted (scaled coefficient, monomial value)
pairs from one run of 2T probes; interpolate drives the base run plus one
per-variable shifted run, matches terms by their (diverse) coefficients, and
extracts exponents via bounded discrete logs. Only the base run finds the
roots of its annihilator, drawing from rng. A shifted run has the same
scaled coefficients c_j: one power projection and transposed Vandermonde
solve in them gives its values, or names the Fail of a run it rejects. One
(c_j, M, 1/M'(c_j)) serves all n shifted runs of a call, as one baby-step
table serves all its n*t logs.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .blackbox import EvaluationOracle, SparsePolynomial, sparse_polynomial
from .field import (
    FieldContext,
    baby_steps,
    bounded_dlog,
    find_primitive_root,
    is_primitive_root,
    sample_nonzero,
)
from .solvers import (
    Master,
    TooFewRootsError,
    berlekamp_massey,
    find_distinct_roots,
    roots_by_coefficient,
    solve_transposed_vandermonde,
    vandermonde_master,
)

STAGES = ("probe", "bm", "roots", "vand", "dlog", "assembly")


class FailReason(Enum):
    TOO_FEW_ROOTS = "too-few-roots"
    DUPLICATE_COEFFICIENT = "duplicate-coefficient"
    COEFFICIENT_MISMATCH = "coefficient-mismatch"
    DLOG_OUT_OF_RANGE = "dlog-out-of-range"


class InterpolationFailure(Exception):
    """A detectable violation of the distinctness assumptions. The driver
    converts this into a Fail report; it never escapes interpolate()."""

    def __init__(self, reason: FailReason, message: str = ""):
        super().__init__(message or reason.value)
        self.reason = reason


class FieldTooSmallError(ValueError):
    """Field size is below the success-probability guarantee bound."""


def probe_sequence(
    oracle: EvaluationOracle,
    alpha: Sequence[int],
    zeta: Sequence[int],
    T: int,
    ctx: FieldContext,
    omega: Optional[int] = None,
    shift_var: Optional[int] = None,
) -> list[int]:
    """a_i = oracle(zeta_1*alpha_1^i, ..., zeta_n*alpha_n^i) for i = 0..2T-1.

    With shift_var = k (1-based), alpha_k is replaced by alpha_k*omega.
    Points are advanced incrementally, n multiplications per step.
    """
    if len(alpha) != len(zeta):
        raise ValueError("alpha and zeta must have equal length")
    p = ctx.p
    mult = [a % p for a in alpha]
    if shift_var is not None:
        if not 1 <= shift_var <= len(alpha):
            raise ValueError("shift_var out of range")
        if omega is None:
            raise ValueError("shifted run requires omega")
        mult[shift_var - 1] = mult[shift_var - 1] * omega % p
    point = [z % p for z in zeta]
    seq = []
    for _ in range(2 * T):
        seq.append(oracle(tuple(point)) % p)
        point = [x * m % p for x, m in zip(point, mult)]
    return seq


@contextmanager
def _timed(timings: dict[str, int], stage: str) -> Iterator[None]:
    """Adds the wall time of the block to timings[stage] in microseconds,
    also when the block raises."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] = timings.get(stage, 0) + int((time.perf_counter() - t0) * 1e6)


def mc_pairs(
    oracle: EvaluationOracle,
    alpha: Sequence[int],
    zeta: Sequence[int],
    T: int,
    ctx: FieldContext,
    rng: random.Random,
    omega: Optional[int] = None,
    shift_var: Optional[int] = None,
    timings: Optional[dict[str, int]] = None,
    known: Optional[Master] = None,
) -> list[tuple[int, int]]:
    """One probing run: 2T probes, minimal recurrence, annihilator roots,
    transposed Vandermonde solve; returns [(c~, v)] sorted ascending by c~.

    With known = vandermonde_master(coeffs), the run's scaled coefficients
    must be coeffs (a shifted run knows them from the base run): the values
    v come from one solvers.roots_by_coefficient call, without rng, in
    coeffs order, or the kernel names the Fail: too few roots if it raises,
    else a coefficient mismatch.

    Raises InterpolationFailure on repeated or missing roots and on rejected
    coeffs; its message starts with the run's name, "base run" or "variable k".

    No returned coefficient is 0. berlekamp_massey gives lam, monic of the
    least degree t whose recurrence generates all 2T probes a_i. Let lam
    have t distinct roots u_j. Each sequence u_j^i, i >= 0, follows the
    recurrence of every multiple of z - u_j, also for u_j = 0, where it is
    1, 0, 0, ... (0^0 = 1). The solve gives c_j with a_i = sum_j c_j u_j^i
    for i < t; both sides follow lam's recurrence, so this holds for all
    i < 2T. If c_r were 0, the sum over j != r would follow the recurrence
    of lam/(z - u_r), of degree t - 1, and generate all 2T probes, against
    the minimality of t. This holds for any t, also t > T, where the least
    generator need not be unique. The known-coefficient kernel accepts
    coeffs only when root finding and the solve would give the same pairs,
    so it holds with known too.
    """
    run = "base run" if shift_var is None else f"variable {shift_var}"
    if timings is None:
        timings = {}
    with _timed(timings, "probe"):
        seq = probe_sequence(oracle, alpha, zeta, T, ctx, omega=omega, shift_var=shift_var)
    with _timed(timings, "bm"):
        rec = berlekamp_massey(seq, ctx)
    try:
        with _timed(timings, "roots"):
            if known is None:
                roots = find_distinct_roots(list(rec.lam), ctx, rng)
            else:
                roots = roots_by_coefficient(rec.lam, seq, known, ctx)
    except TooFewRootsError as exc:
        raise InterpolationFailure(FailReason.TOO_FEW_ROOTS, f"{run}: {exc}") from exc
    if known is not None:
        if roots is None:
            detail = f"{run}: shifted coefficient list disagrees with base run"
            raise InterpolationFailure(FailReason.COEFFICIENT_MISMATCH, detail)
        return list(zip(known[0], roots))
    with _timed(timings, "vand"):
        coeffs = solve_transposed_vandermonde(roots, seq[: rec.t], ctx)
    return sorted(zip(coeffs, roots))


@dataclass
class InterpReport:
    """Outcome of one interpolation run: the polynomial (or the failure
    reason and its message), exact probe count, per-stage wall time, and the
    configuration that produced it."""

    outcome: Optional[SparsePolynomial]
    fail_reason: Optional[FailReason]
    probes: int
    stage_timings: dict[str, int]
    config: dict
    fail_detail: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.outcome is not None


def interpolate(
    oracle: EvaluationOracle,
    n: int,
    T: int,
    D: int,
    ctx: FieldContext,
    rng: random.Random,
    omega: Optional[int] = None,
    alpha: Optional[Sequence[int]] = None,
    zeta: Optional[Sequence[int]] = None,
    force: bool = False,
) -> InterpReport:
    """Full Monte Carlo interpolation of the polynomial behind the oracle.

    Samples alpha, zeta (unless pinned), runs the base mc_pairs plus one
    shifted run per variable, matches terms positionally (a shifted run
    returns its pairs in the base run's coefficient order or Fails),
    recovers each exponent by a bounded discrete log and each coefficient by
    undoing the variable scaling. Once the base run passes its duplicate
    check, what the n shifted runs share is built once: (v, M, w) =
    solvers.vandermonde_master of its coefficients (vand stage), then its
    values' inverses and the baby-step table for (omega, D), sized for all
    n*t logs (dlog stage). None outlives the call.

    Raises FieldTooSmallError when p < 2(n+2)T^2D + 1 (a simpler sufficient
    bound, which can exceed min_field_size(n, T, D, 1/4)) unless force is
    set (then it warns and proceeds; the probability guarantee is void), and
    ValueError on malformed arguments. Detectable assumption violations
    yield a Fail report, never an exception. The one internal error that can
    escape is solvers.SplittingBudgetError, when 64 draws in a row from rng
    fail to split one factor of the base run's annihilator. Each draw splits
    a factor with probability about 1/2 or better: with an honest rng, about
    once in 2^64 factors, at any T.
    """
    if n < 1 or T < 1 or D < 0:
        raise ValueError("need n >= 1, T >= 1, D >= 0")
    if D >= ctx.p - 1:
        raise ValueError("degree bound must be below p - 1")
    required = 2 * (n + 2) * T * T * D + 1
    if ctx.p < required:
        if not force:
            raise FieldTooSmallError(
                f"field size {ctx.p} is below the guarantee bound {required}; "
                "pass force=True to run without the probability guarantee"
            )
        warnings.warn(
            f"field size {ctx.p} below guarantee bound {required}; "
            "success probability is not guaranteed",
            stacklevel=2,
        )
    if alpha is None:
        alpha = [sample_nonzero(ctx, rng) for _ in range(n)]
    if zeta is None:
        zeta = [sample_nonzero(ctx, rng) for _ in range(n)]
    alpha = [a % ctx.p for a in alpha]
    zeta = [z % ctx.p for z in zeta]
    if len(alpha) != n or len(zeta) != n or 0 in alpha or 0 in zeta:
        raise ValueError("alpha and zeta must be n nonzero field elements")
    if omega is None:
        omega = find_primitive_root(ctx, rng)
    elif not is_primitive_root(ctx, omega):
        raise ValueError(f"{omega} is not a generator of F_{ctx.p}^*")

    p = ctx.p
    timings = {stage: 0 for stage in STAGES}
    config = {
        "n": n,
        "T": T,
        "D": D,
        "p": p,
        "alpha": list(alpha),
        "zeta": list(zeta),
        "omega": omega,
    }
    probes_before = oracle.probe_count
    outcome: Optional[SparsePolynomial] = None
    reason: Optional[FailReason] = None
    detail: Optional[str] = None
    try:
        base = mc_pairs(oracle, alpha, zeta, T, ctx, rng, timings=timings)
        t = len(base)
        coeff_list = [c for c, _ in base]
        if len(set(coeff_list)) != t:
            raise InterpolationFailure(
                FailReason.DUPLICATE_COEFFICIENT,
                "base run: scaled coefficients are not pairwise distinct; matching is ambiguous",
            )
        exponents = [[0] * n for _ in range(t)]
        with _timed(timings, "vand"):
            known = vandermonde_master(coeff_list, ctx)
        with _timed(timings, "dlog"):
            # 0 stands in for the inverse of a zero value, which has none
            inverses = [pow(v, -1, p) if v else 0 for _, v in base]
            baby = baby_steps(ctx, omega, D, n * t)
        for k in range(1, n + 1):
            shifted = mc_pairs(oracle, alpha, zeta, T, ctx, rng, omega=omega, shift_var=k,
                               timings=timings, known=known)
            with _timed(timings, "dlog"):
                for i, ((_, vk), inverse) in enumerate(zip(shifted, inverses)):
                    if inverse == 0:
                        raise InterpolationFailure(
                            FailReason.DLOG_OUT_OF_RANGE,
                            f"variable {k}, term {i}: zero monomial value",
                        )
                    e = bounded_dlog(ctx, omega, vk * inverse % p, D, baby)
                    if e is None:
                        raise InterpolationFailure(
                            FailReason.DLOG_OUT_OF_RANGE,
                            f"variable {k}, term {i}: no exponent in [0, {D}]",
                        )
                    exponents[i][k - 1] = e
        with _timed(timings, "assembly"):
            terms = []
            for ctil, exps in zip(coeff_list, exponents):
                scale = 1
                for z, e in zip(zeta, exps):
                    if e:
                        scale = scale * pow(z, e, p) % p
                terms.append((ctil * pow(scale, -1, p) % p, tuple(exps)))
            outcome = sparse_polynomial(n, terms, ctx)
    except InterpolationFailure as exc:
        reason, detail = exc.reason, str(exc)
    probes = oracle.probe_count - probes_before
    return InterpReport(outcome, reason, probes, timings, config, detail)


def success_probability_bound(n: int, T: int, D: int, q: int) -> Fraction:
    """Lower bound on the probability that all distinctness assumptions hold:
    max(0, 1 - (n+2)T(T-1)D / (2(q-1)))."""
    if q <= 1:
        raise ValueError("field size must exceed 1")
    bound = 1 - Fraction((n + 2) * T * (T - 1) * D, 2 * (q - 1))
    return max(Fraction(0), bound)


def min_field_size(n: int, T: int, D: int, epsilon: Union[Fraction, float, str]) -> int:
    """Smallest field size guaranteeing failure probability <= epsilon:
    ceil((n+2)T(T-1)D / (2 epsilon)) + 1, floored at 2. interpolate's guard
    is a simpler sufficient bound and can exceed it at epsilon = 1/4."""
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must be in (0, 1)")
    need = Fraction((n + 2) * T * (T - 1) * D, 2) / eps
    return max(2, math.ceil(need) + 1)
