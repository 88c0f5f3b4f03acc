import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import laurent_matrix_det, reference_polynomial_matrix_det
from sequiv import laurent
from sequiv.intlin import IntMatrix, InternalCheckError, det
from sequiv.laurent import (
    LaurentPoly,
    format_laurent,
    normalize_knot_polynomial,
    polynomial_matrix_det,
    signed_digits,
)


def test_canonical_trimming():
    p = LaurentPoly.of(-2, (0, 3, 0, -1, 0))
    assert p.lo == -1
    assert p.coeffs == (3, 0, -1)
    assert LaurentPoly.of(5, (0, 0)) == LaurentPoly()


def test_non_canonical_construction_rejected():
    with pytest.raises(ValueError):
        LaurentPoly(0, (0, 1))
    with pytest.raises(ValueError):
        LaurentPoly(3, ())


def test_arithmetic():
    one_plus_t = LaurentPoly.of(0, (1, 1))
    one_minus_t = LaurentPoly.of(0, (1, -1))
    assert one_plus_t * one_minus_t == LaurentPoly.of(0, (1, 0, -1))
    assert one_plus_t + one_minus_t == LaurentPoly.of(0, (2,))
    assert one_plus_t - one_plus_t == LaurentPoly()
    assert -one_minus_t == LaurentPoly.of(0, (-1, 1))
    assert 3 * LaurentPoly.of(-1, (1,)) == LaurentPoly.of(-1, (3,))


def test_shift_and_mirror():
    p = LaurentPoly.of(-1, (1, -1, 1))  # t^-1 - 1 + t
    assert p.shift(2).lo == 1
    assert p.is_palindromic()
    q = LaurentPoly.of(0, (2, 5))
    assert not q.is_palindromic()


def test_evaluate():
    p = LaurentPoly.of(-1, (1, -1, 1))
    assert p.evaluate(1) == 1
    assert p.evaluate(-1) == -3
    assert LaurentPoly.of(0, (1, 2, 1)).evaluate(3) == 16
    with pytest.raises(ValueError):
        p.evaluate(2)


def test_divexact_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        a = LaurentPoly.of(
            rng.randint(-3, 3), [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        )
        b = LaurentPoly.of(
            rng.randint(-3, 3), [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        )
        if b.is_zero():
            continue
        assert (a * b).divexact(b) == a


def test_divexact_rejects_inexact():
    with pytest.raises(ValueError):
        LaurentPoly.of(0, (1, 0, 1)).divexact(LaurentPoly.of(0, (1, 1)))


def test_format_parse_roundtrip():
    assert format_laurent(LaurentPoly()) == "lo=0; coeffs=0"
    assert format_laurent(LaurentPoly.of(-1, (1, -1, 1))) == "lo=-1; coeffs=1 -1 1"


def test_normalize_knot_polynomial():
    delta = LaurentPoly.of(-1, (1, -1, 1))
    for unit_shift in (-2, 0, 3):
        for sign in (1, -1):
            messy = delta.shift(unit_shift) * sign
            assert normalize_knot_polynomial(messy) == delta
    with pytest.raises(ValueError):
        normalize_knot_polynomial(LaurentPoly.of(0, (1, 1)))  # odd span
    with pytest.raises(ValueError):
        normalize_knot_polynomial(LaurentPoly())


def test_matrix_det_empty_and_scalars():
    assert polynomial_matrix_det([]) == (1,)
    assert polynomial_matrix_det([[(2, 1)]]) == (2, 1)
    assert polynomial_matrix_det([[()]]) == ()
    # A zero column leaves no pivot at the first step.
    assert polynomial_matrix_det([[(), (1, 1)], [(), (2,)]]) == ()


def test_matrix_det_against_integer_evaluation():
    # independent oracle: evaluating the polynomial determinant at integer
    # points must match the integer determinant of the evaluated matrix
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        entries = [
            [
                LaurentPoly.of(0, (rng.randint(-3, 3), rng.randint(-3, 3)))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        p = laurent_matrix_det(entries)
        for c in (-2, -1, 0, 1, 2, 3):
            evaluated = IntMatrix.from_rows(
                [[e.evaluate(c) for e in row] for row in entries]
            )
            assert p.evaluate(c) == det(evaluated)


def _terms(p: LaurentPoly) -> dict[int, int]:
    return {p.lo + m: c for m, c in enumerate(p.coeffs) if c}


def _reference_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e, c in a.items():
        for f, d in b.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return {e: c for e, c in out.items() if c}


def _reference_sum(a: dict[int, int], b: dict[int, int], sign: int) -> dict[int, int]:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


# The zero polynomial is drawn as often as all other operands together.
operands = st.one_of(
    st.just(LaurentPoly()),
    st.builds(
        LaurentPoly.of,
        st.integers(-6, 6),
        st.lists(st.integers(-5, 5), max_size=6),
    ),
)


@settings(deadline=None, max_examples=300)
@given(operands, operands, st.integers(-8, 8))
def test_arithmetic_matches_the_exponent_dict_reference(a, b, k):
    ta, tb = _terms(a), _terms(b)
    assert _terms(a + b) == _reference_sum(ta, tb, 1)
    assert _terms(a - b) == _reference_sum(ta, tb, -1)
    assert _terms(a * b) == _reference_product(ta, tb)
    assert _terms(a.shift(k)) == {e + k: c for e, c in ta.items()}
    assert a.is_palindromic() == (ta == {-e: c for e, c in ta.items()})
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.divexact(b)
    else:
        assert _terms((a * b).divexact(b)) == ta


def _random_tuple(rng: random.Random) -> tuple[int, ...]:
    """A coefficient tuple without trailing zeros; its constant term may be 0."""
    coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def test_matrix_det_with_a_unit_first_pivot_over_zero_rows():
    # First column (1, 0, ..., 0): the pivot equals the initial prev = 1 and
    # a_i0 = 0 for every later row, so each row update leaves the row as it is.
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(2, 5)
        rows = [[(1,)] + [_random_tuple(rng) for _ in range(n - 1)]]
        rows += [[()] + [_random_tuple(rng) for _ in range(n - 1)] for _ in range(n - 1)]
        p = LaurentPoly.of(0, polynomial_matrix_det(rows))
        for c in (-2, -1, 0, 1, 2, 3):
            evaluated = IntMatrix.from_rows(
                [[LaurentPoly.of(0, e).evaluate(c) for e in row] for row in rows]
            )
            assert p.evaluate(c) == det(evaluated)


def _coefficient_tuples(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


@st.composite
def _polynomial_matrices(draw):
    """Square matrices over Z[t] of size 0-6, degree <= 8, coefficients up to +-10**6.

    A zero entry is drawn as often as all others together; then a row
    and a column may be zeroed, a row may repeat another (a singular
    matrix), and entry (0, 0) may be zeroed with a nonzero entry below
    it, so the first pivot search must swap rows.
    """
    n = draw(st.integers(0, 6))
    entry = st.one_of(
        st.just(()),
        st.lists(st.integers(-(10**6), 10**6), max_size=9).map(_coefficient_tuples),
    )
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [()] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = ()
    if n > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, n - 1))] = list(rows[0])
    if n > 1 and draw(st.booleans()):
        rows[0][0] = ()
        rows[draw(st.integers(1, n - 1))][0] = (1, -2, 3)
    return rows


@settings(deadline=None, max_examples=300)
@given(_polynomial_matrices())
def test_packed_matrix_det_matches_the_tuple_reference(rows):
    assert polynomial_matrix_det(rows) == reference_polynomial_matrix_det(rows)


def test_matrix_det_at_the_slot_bound():
    # The order-8 Sylvester Hadamard matrix, entry (i, j) being +-t**(i + j):
    # every row has l1 norms 1, so the Hadamard bound is sqrt(8)**8 = 4096,
    # and the determinant is 4096 t**56, a coefficient equal to the bound.
    h = [[1]]
    while len(h) < 8:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    rows = [[(0,) * (i + j) + (x,) for j, x in enumerate(row)] for i, row in enumerate(h)]
    assert polynomial_matrix_det(rows) == (0,) * 56 + (4096,)
    assert polynomial_matrix_det(rows) == reference_polynomial_matrix_det(rows)


def test_inexact_bareiss_step_is_an_internal_error(monkeypatch):
    # Every division step of the packed elimination reports a remainder.
    monkeypatch.setattr(laurent, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(InternalCheckError):
        polynomial_matrix_det([[(1, 1), (2,)], [(3,), (0, 1)]])


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 70), st.data())
def test_signed_digits_read_back_the_value_at_a_power_of_two(b, data):
    half = 1 << (b - 1)
    coeffs = data.draw(st.lists(st.integers(1 - half, half - 1), max_size=12))
    value = sum(c << (b * k) for k, c in enumerate(coeffs))
    assert signed_digits(value, b) == list(_coefficient_tuples(coeffs))
    with pytest.raises(ValueError):
        signed_digits(value, 1)
