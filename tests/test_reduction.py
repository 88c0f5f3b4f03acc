"""Reduction to a nonsingular S-equivalent matrix, and the paper's corollary.

Every Seifert matrix is S-equivalent to a nonsingular one whose size is
the degree span of its Alexander polynomial (Trotter 1973, Levine 1970).
So a knot has Alexander polynomial 1 exactly when its Seifert matrix
reduces to the empty matrix, the algebraic half of the corollary that
doubled-delta moves undo exactly those knots.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import block_sum, pencil_det, random_unimodular, reference_reduce, widened
from sequiv import seifert
from sequiv.braidclosure import knot_corpus, seifert_matrix
from sequiv.cli import main
from sequiv.intlin import (
    IntMatrix,
    _kronecker_pencil,
    det,
    format_matrix,
    parse_matrix,
    transpose_pencil_det,
)
from sequiv.laurent import LaurentPoly
from sequiv.seifert import (
    NegateMove,
    ReduceMove,
    SeifertMatrix,
    alexander,
    alexander_raw,
    apply_moves,
    column_enlarge,
    reduce_fully,
    row_enlarge,
    validate,
)

TREFOIL = validate(IntMatrix.from_rows([[-1, 1], [0, -1]]))
COLUMN_ENLARGED = "4\n-1 1 1 0\n0 -1 0 0\n0 0 1 1\n0 0 0 0\n"  # column_enlarge(trefoil, [1, 0], 1)


def _check_reduction(sm):
    """Reduce sm, replay the witness, and return the reduced matrix."""
    reduced, witness = reduce_fully(sm)
    assert apply_moves(sm, witness).matrix == reduced.matrix
    assert det(reduced.matrix) != 0
    assert reduced.size == len(alexander(sm).coeffs) - 1  # the degree span
    return reduced


def test_delta_one_exactly_when_the_closure_reduces_to_the_empty_matrix():
    empty = 0
    for word in knot_corpus(4, 12, 7, 1000):
        sm = seifert_matrix(word)
        reduced = _check_reduction(sm)
        assert (reduced.size == 0) == (alexander(sm) == LaurentPoly.one)
        empty += reduced.size == 0
    assert empty == 521


def test_reduced_size_is_the_span_on_large_closures():
    sizes = []
    for word in knot_corpus(6, 40, 5, 40):
        sm = seifert_matrix(word)
        sizes.append((sm.size, _check_reduction(sm).size))
    assert max(n for n, _ in sizes) >= 36
    assert any(s < n for n, s in sizes)


def test_reduce_fully_examples():
    assert reduce_fully(TREFOIL) == (TREFOIL, ())
    empty = validate(IntMatrix())
    assert reduce_fully(empty) == (empty, ())
    # [[0, 1], [0, 0]] is the enlargement pattern itself.
    minimal = validate(IntMatrix.from_rows([[0, 1], [0, 0]]))
    assert reduce_fully(minimal) == (empty, (ReduceMove(0, 1, "column"),))
    # Row 1 is zero and entry (2, 1) is -1: negate b_1 first.
    assert reduce_fully(validate(IntMatrix.from_rows([[0, 0], [-1, 0]])))[1] == (
        NegateMove(0),
        ReduceMove(1, 0, "column"),
    )


# Genus-1 blocks [[a, b + 1], [b, d]] with D = ad - b(b + 1) = 0 have
# Alexander polynomial 1; the others have span 2 (see gens.block_sum).
_trivial_blocks = st.integers(-3, 3).flatmap(
    lambda b: st.sampled_from(((b, b + 1), (b + 1, b), (-b, -b - 1), (-b - 1, -b))).map(
        lambda ad: (ad[0], b, ad[1])
    )
)
_nontrivial_blocks = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda abd: abd[0] * abd[2] != abd[1] * (abd[1] + 1)
)


def _scrambled_enlarged(blocks, enlargements, seed):
    rng = random.Random(seed)
    sm = block_sum(blocks)
    for _ in range(enlargements):
        a = random_unimodular(rng, sm.size)
        sm = validate(a * sm.matrix * a.transpose())
        enlarge = rng.choice((column_enlarge, row_enlarge))
        sm = enlarge(sm, [rng.randint(-2, 2) for _ in range(sm.size)], rng.randint(-2, 2))
    a = random_unimodular(rng, sm.size)
    return validate(a * sm.matrix * a.transpose())


_block_sum_cases = (
    st.lists(st.one_of(_trivial_blocks, _nontrivial_blocks), max_size=4),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(*_block_sum_cases)
def test_scrambled_enlarged_block_sums_reduce_to_the_span(blocks, enlargements, seed):
    sm = _scrambled_enlarged(blocks, enlargements, seed)
    nontrivial = sum(1 for a, b, d in blocks if a * d != b * (b + 1))
    assert _check_reduction(sm).size == 2 * nontrivial
    m = sm.matrix
    assert alexander_raw(sm) == LaurentPoly.of(0, pencil_det(m, m.transpose()))


def _node_path(sm):
    """det(M - tM^T) by the reduction and the s/2 + 1 node determinants."""
    reduced, _, det_n = seifert._reduce(sm.matrix)
    return LaurentPoly.of((sm.size - reduced.size) // 2, seifert._transpose_pencil(reduced, det_n))


def _check_one_determinant_pencil(sm, budget):
    """The one-determinant pencil of sm under budget, checked against both other paths."""
    m = sm.matrix
    narrow = _kronecker_pencil(m, budget)
    if narrow is not None:
        node, coeffs = narrow
        assert node != 0
        assert coeffs == pencil_det(m, m.transpose()) == transpose_pencil_det(m)
        assert LaurentPoly.of(0, coeffs) == _node_path(sm) == alexander_raw(sm)
    return narrow


@settings(max_examples=60, deadline=None)
@given(*_block_sum_cases, st.sampled_from((seifert._NARROW_BUDGET, 10**4)))
def test_one_determinant_pencil_is_the_reference_and_the_node_path(blocks, enlargements, seed, budget):
    # Singular and Delta-trivial matrices included: a singular M only
    # gives zero low digits.  10**4 holds every matrix here.
    narrow = _check_one_determinant_pencil(_scrambled_enlarged(blocks, enlargements, seed), budget)
    assert narrow is not None or budget == seifert._NARROW_BUDGET


def _planted(sm, zero_rows, seed, wide):
    """sm column-enlarged zero_rows more times, unscrambled, then permuted, and widened if wide.

    Each enlargement leaves its last row zero, and a vector that is 0 at
    an earlier zero row keeps that one too.  Widening keeps every zero
    row but the last, and puts alexander_raw over the width budget.
    """
    rng = random.Random(seed)
    for _ in range(zero_rows):
        v = [rng.randint(-2, 2) if any(row) or rng.random() < 0.5 else 0 for row in sm.matrix.rows]
        sm = column_enlarge(sm, v, rng.randint(-2, 2))
    order = list(range(sm.size))
    rng.shuffle(order)
    m = IntMatrix(tuple(tuple(sm.matrix.rows[i][j] for j in order) for i in order))
    return validate(widened(m) if wide and m.size else m)


def _check_against_the_reference_reduction(sm):
    # The reduction, each eliminating or not, reduce_fully and alexander_raw
    # are those of the reduction that rebuilds the matrix at every step and
    # applies every move; an input with no step to take comes back as it is.
    m = sm.matrix
    for eliminate in (False, True):
        assert seifert._reduce(m, eliminate) == reference_reduce(m, eliminate)
    reduced, moves, _ = reference_reduce(m)
    assert reduce_fully(sm) == (SeifertMatrix(reduced), tuple(moves))
    if all(map(any, m.rows)):
        assert seifert._reduce(m, eliminate=False)[0] is m
    with mock.patch.object(seifert, "_reduce", reference_reduce):
        expected = alexander_raw(sm)
    assert alexander_raw(sm) == expected


@settings(max_examples=80, deadline=None)
@given(*_block_sum_cases, st.integers(0, 3), st.booleans())
def test_reduction_matches_the_reference_on_planted_zero_rows(blocks, enlargements, seed, zero_rows, wide):
    sm = _planted(_scrambled_enlarged(blocks, enlargements, seed), zero_rows, seed, wide)
    _check_against_the_reference_reduction(sm)


def test_reduction_matches_the_reference_on_closures():
    for word in knot_corpus(6, 40, 5, 40):
        _check_against_the_reference_reduction(seifert_matrix(word))


def test_one_determinant_pencil_examples():
    for rows in ([], [[0, 1], [0, 0]], [[-1, 1], [0, -1]]):
        assert _check_one_determinant_pencil(validate(IntMatrix.from_rows(rows)), seifert._NARROW_BUDGET)
    assert _kronecker_pencil(IntMatrix(), 0) == (1, [1])


def test_one_determinant_pencil_on_closures_up_to_the_budget():
    narrow = 0
    for word in knot_corpus(6, 40, 5, 40):
        narrow += _check_one_determinant_pencil(seifert_matrix(word), seifert._NARROW_BUDGET) is not None
    assert 10 <= narrow < 40


def test_negate_move():
    rows = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert NegateMove(1).apply_rows(rows) == ((1, -2, 3), (-4, 5, -6), (7, -8, 9))
    assert NegateMove(1).describe() == "negate basis vector 2"
    rng = random.Random(7)
    for genus in range(4):
        sm = block_sum([tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(genus)])
        a = random_unimodular(rng, sm.size)
        sm = validate(a * sm.matrix * a.transpose())
        for i in range(sm.size):
            move = NegateMove(i)
            assert move.apply_rows(move.apply_rows(sm.matrix.rows)) == sm.matrix.rows
            diag = IntMatrix.from_rows(
                [[(-1 if k == i else 1) if k == l else 0 for l in range(sm.size)] for k in range(sm.size)]
            )
            assert apply_moves(sm, (move,)).matrix == diag * sm.matrix * diag


@pytest.mark.parametrize(
    "kernel, message",
    [
        # e_1 is no kernel vector: row 1 of the widened enlarged trefoil is not zero.
        (lambda m: (0, (1,) + (0,) * (m.size - 1)), "row 1 is not zero"),
        (lambda m: (0, None), "reduced matrix of size 4 is singular"),
    ],
)
def test_kernel_pass_faults_make_mat_invariants_exit_3(tmp_path, capsys, monkeypatch, kernel, message):
    # Widened, the enlarged trefoil has no zero row and is over the width
    # budget, so its Alexander polynomial runs the kernel passes.
    path = tmp_path / "enlarged.mat"
    path.write_text(format_matrix(widened(parse_matrix(COLUMN_ENLARGED))))
    monkeypatch.setattr(seifert, "det_or_left_kernel", kernel)
    assert main(["mat", "invariants", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert message in captured.err
    assert len(captured.err.splitlines()) == 1
