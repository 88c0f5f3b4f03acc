"""Reduction to a nonsingular S-equivalent matrix, and the paper's corollary.

Every Seifert matrix is S-equivalent to a nonsingular one whose size is
the degree span of its Alexander polynomial (Trotter 1973, Levine 1970).
So a knot has Alexander polynomial 1 exactly when its Seifert matrix
reduces to the empty matrix, the algebraic half of the corollary that
doubled-delta moves undo exactly those knots.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import block_sum, pencil_det, random_unimodular
from sequiv import seifert
from sequiv.braidclosure import knot_corpus, seifert_matrix
from sequiv.cli import main
from sequiv.intlin import IntMatrix, det
from sequiv.laurent import LaurentPoly
from sequiv.seifert import (
    NegateMove,
    ReduceMove,
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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(_trivial_blocks, _nontrivial_blocks), max_size=4),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_scrambled_enlarged_block_sums_reduce_to_the_span(blocks, enlargements, seed):
    rng = random.Random(seed)
    sm = block_sum(blocks)
    nontrivial = sum(1 for a, b, d in blocks if a * d != b * (b + 1))
    for _ in range(enlargements):
        a = random_unimodular(rng, sm.size)
        sm = validate(a * sm.matrix * a.transpose())
        enlarge = rng.choice((column_enlarge, row_enlarge))
        sm = enlarge(sm, [rng.randint(-2, 2) for _ in range(sm.size)], rng.randint(-2, 2))
    a = random_unimodular(rng, sm.size)
    sm = validate(a * sm.matrix * a.transpose())
    assert _check_reduction(sm).size == 2 * nontrivial
    m = sm.matrix
    assert alexander_raw(sm) == LaurentPoly.of(0, pencil_det(m, m.transpose()))


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
        # e_1 is no kernel vector: row 1 of the enlarged trefoil is not zero.
        (lambda m: (0, (1,) + (0,) * (m.size - 1)), "row 1 is not zero"),
        (lambda m: (0, None), "reduced matrix of size 4 is singular"),
    ],
)
def test_kernel_pass_faults_make_mat_invariants_exit_3(tmp_path, capsys, monkeypatch, kernel, message):
    path = tmp_path / "enlarged.mat"
    path.write_text(COLUMN_ENLARGED)
    monkeypatch.setattr(seifert, "det_or_left_kernel", kernel)
    assert main(["mat", "invariants", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert message in captured.err
    assert len(captured.err.splitlines()) == 1
