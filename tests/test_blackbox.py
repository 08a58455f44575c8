import random
import sys
import threading
from array import array
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from sparseip.blackbox import (
    _END,
    EvaluationOracle,
    SparsePolynomial,
    evaluate,
    format_instance,
    parse_instance,
    poly_equal,
    random_sparse_polynomial,
    sparse_polynomial,
)
from sparseip.field import FieldContext

P101 = FieldContext.for_prime(101)

# 91yz^2 + 91x^2yz + 61x^2y^2z + 61z^5 + 1, the self-test instance
EXAMPLE_TERMS = [
    (91, (0, 1, 2)),
    (91, (2, 1, 1)),
    (61, (2, 2, 1)),
    (61, (0, 0, 5)),
    (1, (0, 0, 0)),
]
EXAMPLE = sparse_polynomial(3, EXAMPLE_TERMS, P101)


def test_canonical_form():
    assert EXAMPLE.terms == tuple(
        (c, e) for e, c in sorted((e, c) for c, e in EXAMPLE_TERMS)
    )
    assert all(c for c, _ in EXAMPLE.terms)


def test_canonicalization_merges_and_drops():
    f = sparse_polynomial(2, [(50, (1, 0)), (51, (1, 0)), (3, (0, 1))], P101)
    assert f.terms == ((3, (0, 1)),)  # 50 + 51 = 0 mod 101


def test_evaluate_golden():
    # first probe of the worked example: f at the scaling point itself equals
    # the sum of the scaled coefficients, 1+33+43+50+54 = 80 mod 101
    assert evaluate(EXAMPLE, (34, 29, 89), P101) == 80


def test_evaluate_all_ones_is_coefficient_sum():
    assert evaluate(EXAMPLE, (1, 1, 1), P101) == sum(c for c, _ in EXAMPLE.terms) % 101


def test_evaluate_empty():
    zero = sparse_polynomial(3, [], P101)
    assert evaluate(zero, (5, 6, 7), P101) == 0


def test_evaluate_wrong_arity():
    with pytest.raises(ValueError):
        evaluate(EXAMPLE, (1, 2), P101)


def _evaluate_per_term(f, point, p):
    """The per-(term, variable) pow formula that evaluate replaced."""
    total = 0
    for c, e in f.terms:
        term = c
        for x, k in zip(point, e):
            if k:
                term = term * pow(x, k, p) % p
        total = (total + term) % p
    return total


ORACLE_FIELDS = [FieldContext.for_prime(p) for p in (101, 140122640051)]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_evaluate_matches_per_term_pow(data):
    # Small exponents repeat within a column and give all-zero vectors;
    # coefficients may be unreduced or negative, coordinates 0, negative or
    # >= p. The polynomial is built directly, as parse_instance builds one,
    # and canonically; both are evaluated at several points in turn.
    ctx = data.draw(st.sampled_from(ORACLE_FIELDS))
    p = ctx.p
    n = data.draw(st.integers(0, 4))
    exponent = st.one_of(st.integers(0, 3), st.sampled_from([p - 3, p - 2]), st.integers(0, p - 2))
    coefficient = st.one_of(st.integers(1, p - 1), st.integers(-3 * p, 3 * p))
    coordinate = st.one_of(st.sampled_from([0, 1, -1, p - 1, p, p + 1]), st.integers(-3 * p, 3 * p))
    terms = data.draw(st.lists(st.tuples(coefficient, st.tuples(*[exponent] * n)), max_size=8))
    points = data.draw(st.lists(st.tuples(*[coordinate] * n), min_size=1, max_size=4))
    direct = SparsePolynomial(n, tuple(terms))
    canonical = sparse_polynomial(n, terms, ctx)
    # One record per column (none without terms): per distinct nonzero
    # exponent, the set bits of the gap below it, then _END.
    _, columns, _ = direct._plan
    assert len(columns) == (n if terms else 0)
    for j, rungs in enumerate(columns):
        exps = sorted({0, *(e[j] for _, e in terms)})
        assert rungs.count(_END) == len(exps) - 1
        gaps = [b - a for a, b in zip(exps, exps[1:])]
        bits = [bytes(k for k, b in enumerate(reversed(bin(g)[2:])) if b == "1") for g in gaps]
        assert rungs.split(bytes([_END])) == [*bits, b""]
    for point in points:
        expected = _evaluate_per_term(direct, point, p)
        assert evaluate(direct, point, ctx) == expected
        assert evaluate(canonical, point, ctx) == expected == _evaluate_per_term(canonical, point, p)


def test_evaluate_zero_polynomial_in_every_arity():
    for n in range(5):
        for f in (SparsePolynomial(n, ()), sparse_polynomial(n, [(101, (0,) * n)], P101)):
            assert evaluate(f, (3,) * n, P101) == 0
    assert evaluate(SparsePolynomial(0, ((-5, ()),)), (), P101) == 96


def test_evaluate_rejects_negative_exponents():
    f = SparsePolynomial(2, ((1, (0, 3)), (2, (-1, 1))))
    with pytest.raises(ValueError, match="nonnegative"):
        evaluate(f, (4, 5), P101)


LADDER_FIELDS = [FieldContext.for_prime(p) for p in (101, 140122640051, 2**61 - 1)]
LADDER_POINTS = [(0,) * 3, (1, 2, 3), (-1, -1, -1), (2, -1, 7)]


def _check_against_per_term(f, ctx, points=LADDER_POINTS):
    p = ctx.p
    for point in points:
        point = point[: f.n]
        assert evaluate(f, point, ctx) == _evaluate_per_term(f, point, p), point
        big = tuple(x + 12345 * p for x in point)  # coordinates far above p
        assert evaluate(f, big, ctx) == _evaluate_per_term(f, big, p), big


@pytest.mark.parametrize("k", [1, 8, 36])
def test_evaluate_ladder_widths_at_and_below_a_power_of_two(k):
    # The largest gap in every column is 2^k (one rung past 2^k - 1) or
    # 2^k - 1 (every rung set): alone from 0, behind a gap of 1, and twice.
    for ctx in LADDER_FIELDS[1:]:
        points = [*LADDER_POINTS, (3, 5, ctx.p - 2), (ctx.p - 1, 17, 2)]
        for gap in (2**k, 2**k - 1):
            f = SparsePolynomial(3, ((1, (gap, 0, gap)), (2, (0, gap + 1, 2 * gap)), (3, (0, 1, 0))))
            assert list(f._plan[0]) == [gap.bit_length()] * 3
            _check_against_per_term(f, ctx, points)


@pytest.mark.parametrize("p", [140122640051, 2**61 - 1])
def test_evaluate_exponent_p_minus_2_in_every_column(p):
    # x^(p-2) is the inverse of x: the widest ladder a canonical exponent needs.
    ctx = FieldContext.for_prime(p)
    f = SparsePolynomial(3, ((5, (p - 2, p - 2, p - 2)), (7, (0, 1, p - 2)), (9, (p - 2, 0, 3))))
    assert list(f._plan[0]) == [(p - 2).bit_length()] * 3
    rng = random.Random(p)
    points = [*LADDER_POINTS, *(tuple(rng.randrange(-p, 2 * p) for _ in range(3)) for _ in range(6))]
    _check_against_per_term(f, ctx, points)
    x = (3, 5, 7)
    assert evaluate(SparsePolynomial(3, ((1, (p - 2, p - 2, p - 2)),)), x, ctx) * 105 % p == 1


def test_evaluate_zero_column_beside_nonzero_ones():
    # Column 1 holds only zeros: a ladder of width 0 and no rungs.
    f = SparsePolynomial(3, ((4, (3, 0, 9)), (6, (1, 0, 0)), (8, (0, 0, 5))))
    widths, columns, _ = f._plan
    assert widths[1] == 0 and columns[1] == b""
    assert sum(map(len, columns)) == sum(bin(g).count("1") + 1 for g in (1, 2, 5, 4))
    for ctx in LADDER_FIELDS:
        _check_against_per_term(f, ctx, [*LADDER_POINTS, (5, ctx.p - 1, 9), (0, 0, 2)])


def test_evaluate_repeated_gaps():
    # Exponents 0, 3, 6, 9 give three equal gaps of 3; terms repeat them too.
    f = SparsePolynomial(2, ((1, (0, 9)), (2, (3, 6)), (3, (6, 3)), (4, (9, 0)), (5, (3, 3))))
    widths, columns, _ = f._plan
    assert list(widths) == [2, 2]
    assert columns == [bytes([0, 1, 255] * 3)] * 2
    for ctx in LADDER_FIELDS:
        _check_against_per_term(f, ctx, [*LADDER_POINTS, (ctx.p - 1, 7)])


def test_evaluate_coordinates_zero_p_and_minus_one():
    for ctx in LADDER_FIELDS:
        p = ctx.p
        f = SparsePolynomial(3, ((2, (1, 2, 3)), (3, (4, 0, 7)), (5, (p - 2, p - 1, 1)), (7, (0, 0, 0))))
        for point in [(0, p, -1), (p, -1, 0), (-1, 0, p), (0, 0, 0), (p, p, p), (-1, -1, -1)]:
            expected = _evaluate_per_term(f, point, p)
            assert evaluate(f, point, ctx) == expected
        # 0 and p vanish under a nonzero exponent; -1 gives the sign of the
        # exponent sum's parity (p - 2 odd, p - 1 even for odd p).
        assert evaluate(f, (-1, -1, -1), ctx) == (2 - 3 + 5 + 7) % p
        assert evaluate(f, (0, p, 0), ctx) == 7


def test_evaluate_rejects_exponents_past_the_rung_marker():
    f = SparsePolynomial(2, ((1, (2**254, 0)),))
    with pytest.raises(ValueError, match=r"below 2\^254"):
        evaluate(f, (3, 4), P101)
    top = 2**254 - 1  # 254 rungs, the widest a plan holds
    assert evaluate(SparsePolynomial(1, ((1, (top,)),)), (3,), P101) == pow(3, top, 101)


def test_evaluation_plan_is_lazy_kept_and_invisible():
    f = random_sparse_polynomial(3, 20, 30, P101, random.Random(27))
    twin = SparsePolynomial(f.n, f.terms)
    parsed, _, _ = parse_instance(format_instance(f, 101, 30))
    assert all("_plan" not in vars(g) for g in (f, twin, parsed))  # built on first use only
    plan = None
    for k in range(50):
        point = (k, 2 * k + 1, 101 - k)
        assert evaluate(f, point, P101) == _evaluate_per_term(f, point, 101)
        if plan is None:
            plan = vars(f)["_plan"]
            widths, columns, slots = plan  # flat, no boxed ints
            assert isinstance(widths, array) and isinstance(slots, array)
            assert all(type(rungs) is bytes for rungs in columns)
        assert f._plan is plan
    assert f == twin == parsed and hash(f) == hash(twin) == hash(parsed)
    assert repr(f) == repr(twin) == repr(parsed) and "_plan" not in repr(f)
    assert poly_equal(f, twin) and poly_equal(parsed, f)
    for name, value in (("n", 4), ("terms", ()), ("_plan", None)):
        with pytest.raises(FrozenInstanceError):
            setattr(f, name, value)
    assert f._plan is plan


def test_evaluation_plan_first_use_from_many_threads():
    # Threads may race to build the plan; every one must still read f(point).
    polys = [random_sparse_polynomial(3, 12, 40, P101, random.Random(28 + k)) for k in range(20)]
    points = [(k, 3 * k + 2, 100 - k) for k in range(10)]
    expected = [[_evaluate_per_term(f, x, 101) for x in points] for f in polys]
    errors = []

    def worker():
        for f, want in zip(polys, expected):
            if [evaluate(f, x, P101) for x in points] != want:
                errors.append(f)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors


def test_poly_equal():
    assert poly_equal(EXAMPLE, EXAMPLE)
    tweaked = sparse_polynomial(3, [(92, (0, 1, 2))] + EXAMPLE_TERMS[1:], P101)
    assert not poly_equal(EXAMPLE, tweaked)
    with pytest.raises(ValueError):
        poly_equal(EXAMPLE, sparse_polynomial(2, [], P101))


def test_random_polynomial_contract():
    rng = random.Random(23)
    f = random_sparse_polynomial(3, 5, 5, P101, rng)
    assert f.term_count == 5
    assert len({e for _, e in f.terms}) == 5
    assert all(0 <= x <= 5 for _, e in f.terms for x in e)
    assert all(1 <= c <= 100 for c, _ in f.terms)


def test_random_polynomial_full_support():
    rng = random.Random(24)
    f = random_sparse_polynomial(2, 9, 2, P101, rng)
    assert {e for _, e in f.terms} == {(i, j) for i in range(3) for j in range(3)}


def test_random_polynomial_impossible_t():
    rng = random.Random(25)
    with pytest.raises(ValueError):
        random_sparse_polynomial(2, 10, 2, P101, rng)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SparsePolynomial(2, ((1, (0,)),)),
         "exponent vector length does not match variable count"),
        (lambda: sparse_polynomial(-1, [], P101), "variable count must be nonnegative"),
        (lambda: sparse_polynomial(2, [(1, (0,))], P101),
         "exponent vector length does not match variable count"),
        (lambda: sparse_polynomial(1, [(1, (-1,))], P101), "exponents must be nonnegative"),
        (lambda: random_sparse_polynomial(0, 1, 1, P101, random.Random(0)),
         "need n >= 1, t >= 1, D >= 0"),
        (lambda: random_sparse_polynomial(1, 0, 1, P101, random.Random(0)),
         "need n >= 1, t >= 1, D >= 0"),
        (lambda: random_sparse_polynomial(1, 1, -1, P101, random.Random(0)),
         "need n >= 1, t >= 1, D >= 0"),
    ],
)
def test_blackbox_precondition_errors(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_random_polynomial_deterministic():
    a = random_sparse_polynomial(3, 6, 10, P101, random.Random(42))
    b = random_sparse_polynomial(3, 6, 10, P101, random.Random(42))
    assert poly_equal(a, b)


def test_random_polynomial_exponent_distribution():
    # n=1, D=3: each exponent frequency within 5 sigma of uniform
    rng = random.Random(26)
    counts = [0] * 4
    N = 1000
    for _ in range(N):
        f = random_sparse_polynomial(1, 1, 3, P101, rng)
        counts[f.terms[0][1][0]] += 1
    mean = N / 4
    sigma = (N * 0.25 * 0.75) ** 0.5
    for c in counts:
        assert abs(c - mean) < 5 * sigma


def test_probe_counter_exact():
    oracle = EvaluationOracle.from_polynomial(EXAMPLE, P101)
    for k in range(1, 51):
        oracle((k % 101, 1, 2))
        assert oracle.probe_count == k


def test_probe_counter_concurrent():
    oracle = EvaluationOracle.from_polynomial(EXAMPLE, P101)

    def worker():
        for _ in range(500):
            oracle((3, 4, 5))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert oracle.probe_count == 4000


def test_instance_round_trip():
    text = format_instance(EXAMPLE, 101, 5)
    f, p, D = parse_instance(text)
    assert poly_equal(f, EXAMPLE) and p == 101 and D == 5
    assert format_instance(f, p, D) == text


def test_instance_header():
    text = format_instance(EXAMPLE, 101, 5)
    assert text.splitlines()[0] == "101 3 5 5"


def test_instance_parse_errors():
    with pytest.raises(ValueError):
        parse_instance("")
    with pytest.raises(ValueError):
        parse_instance("101 3 2 5\n1 0 0 0\n")  # missing term line
    with pytest.raises(ValueError):
        parse_instance("101 1 1 5\n0 3\n")  # zero coefficient
    with pytest.raises(ValueError):
        parse_instance("101 1 1 5\n7 9\n")  # exponent above D
    with pytest.raises(ValueError):
        parse_instance("101 1 2 5\n7 3\n8 3\n")  # repeated monomial
    with pytest.raises(ValueError):
        parse_instance("100 1 1 5\n7 3\n")  # modulus not prime
    with pytest.raises(ValueError):
        parse_instance(f"{2**89 - 1} 1 1 5\n7 3\n")  # prime above 2^62


def test_instance_parse_rejects_bad_header_bounds():
    with pytest.raises(ValueError, match="header '101 -1 0 5'"):
        parse_instance("101 -1 0 5\n")  # no variables
    with pytest.raises(ValueError, match="header '101 2 0 -3'"):
        parse_instance("101 2 0 -3\n")  # negative degree bound


MUTATION_FIELDS = [FieldContext.for_prime(p) for p in (2, 3, 101, 140122640051)]


def _parses_or_raises_value_error(text):
    try:
        f, _, D = parse_instance(text)
    except ValueError:
        return
    assert f.n >= 1 and D >= 0


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.text())
def test_instance_parse_arbitrary_text_raises_only_value_error(text):
    _parses_or_raises_value_error(text)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_instance_parse_mutated_instance_raises_only_value_error(data):
    # A valid instance file with one token replaced, or one line replaced,
    # deleted or repeated.
    ctx = data.draw(st.sampled_from(MUTATION_FIELDS))
    p = ctx.p
    n, D = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
    t = data.draw(st.integers(1, min(4, (D + 1) ** n, p - 1)))
    f = random_sparse_polynomial(n, t, D, ctx, random.Random(data.draw(st.integers(0, 99))))
    lines = [ln.split() for ln in format_instance(f, p, D).splitlines()]
    i = data.draw(st.integers(0, len(lines) - 1))
    junk = st.one_of(st.integers(-(10**20), 10**20).map(str), st.text(max_size=6))
    kind = data.draw(st.sampled_from(["token", "line", "delete", "repeat"]))
    if kind == "token":
        lines[i][data.draw(st.integers(0, len(lines[i]) - 1))] = data.draw(junk)
    elif kind == "line":
        lines[i] = [data.draw(junk)]
    elif kind == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    _parses_or_raises_value_error("\n".join(" ".join(ln) for ln in lines) + "\n")


def test_instance_parse_sorts_terms():
    f, _, _ = parse_instance("101 2 3 5\n9 2 0\n4 0 5\n6 1 1\n")
    assert f.terms == ((4, (0, 5)), (6, (1, 1)), (9, (2, 0)))
