"""Differential and property tests for the Alexander polynomial and the
Invariants record.

Three independent Alexander paths are compared: the interpolation path
of sequiv.seifert, a test-only Laurent-polynomial determinant of
M - t * M^T, and the reduced-Burau oracle of sequiv.braidclosure.
"""

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gens import (
    block_sum,
    block_sum_invariants,
    fraction_signature_and_det,
    laurent_matrix_det,
    random_scrambled_seifert,
    random_unimodular,
    widened,
)
from sequiv import intlin, seifert
from sequiv.braidclosure import (
    ArtinBraidWord,
    burau_alexander,
    is_knot_closure,
    knot_corpus,
    seifert_matrix,
)
from sequiv.cli import main
from sequiv.intlin import IntMatrix, det, format_matrix, signature_and_det
from sequiv.laurent import LaurentPoly
from sequiv.seifert import (
    alexander,
    bounded_sequiv_search,
    column_enlarge,
    invariants,
    row_enlarge,
    validate,
)

TREFOIL = validate(IntMatrix.from_rows([[-1, 1], [0, -1]]))
FIG8 = validate(IntMatrix.from_rows([[1, 1], [0, -1]]))
MIRROR_TREFOIL = validate(IntMatrix.from_rows([[1, 1], [0, 1]]))


def laurent_alexander(sm):
    """t**(-g) * det(M - t * M^T) by Bareiss over Laurent polynomials."""
    m = sm.matrix.rows
    n = sm.size
    entries = [
        [LaurentPoly.of(0, (m[i][j], -m[j][i])) for j in range(n)] for i in range(n)
    ]
    return laurent_matrix_det(entries).shift(-sm.genus)


@st.composite
def knot_words(draw):
    n = draw(st.integers(2, 5))
    letters = draw(
        st.lists(
            st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))),
            min_size=n - 1,
            max_size=14,
        )
    )
    word = ArtinBraidWord(n, tuple(letters))
    assume(is_knot_closure(word) and {abs(v) for v in word.letters} == set(range(1, word.strands)))
    return word


genus_one_blocks = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 1), st.integers(-2, 2)), max_size=5
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(knot_words())
def test_three_alexander_paths_agree_on_closures(word):
    sm = seifert_matrix(word)
    delta = alexander(sm)
    assert delta == laurent_alexander(sm)
    assert delta == burau_alexander(word)


@settings(max_examples=60, deadline=None)
@given(genus_one_blocks, st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_scrambled_block_sums_match_closed_form(blocks, seed, ops):
    sm = block_sum(blocks)
    a = random_unimodular(random.Random(seed), sm.size, ops)
    scrambled = validate(a * sm.matrix * a.transpose())
    expected = block_sum_invariants(blocks)
    assert invariants(scrambled) == expected
    assert laurent_alexander(scrambled) == expected.alexander


def test_record_equals_separate_functions():
    # Each field of invariants(sm) is checked against a value computed
    # apart from it: the closed form of block sums, and the fraction-field
    # signature and determinant of M + M^T, with Arf 0 exactly when that
    # determinant is +-1 mod 8 (Levine).
    rng = random.Random(301)
    cases = [TREFOIL, FIG8, MIRROR_TREFOIL, validate(IntMatrix())]
    cases += [random_scrambled_seifert(rng, g)[2] for g in range(5) for _ in range(6)]
    for sm in cases:
        sig, d = fraction_signature_and_det(sm.matrix + sm.matrix.transpose())
        expected = (sig, abs(d), 0 if abs(d) % 8 in (1, 7) else 1)
        record = invariants(sm)
        assert (record.signature, record.determinant, record.arf) == expected
    for _ in range(20):
        blocks = [
            (rng.randint(-2, 2), rng.randint(-2, 1), rng.randint(-2, 2))
            for _ in range(rng.randint(0, 4))
        ]
        sm, expected = block_sum(blocks), block_sum_invariants(blocks)
        assert invariants(sm) == expected


def test_gate_split_by_alexander_skips_signature(monkeypatch):
    calls = []

    def counting(q):
        calls.append(q)
        return signature_and_det(q)

    monkeypatch.setattr(seifert, "signature_and_det", counting)
    result = bounded_sequiv_search(TREFOIL, FIG8)
    assert (result.verdict, result.reason) == ("distinct", "alexander differs")
    assert calls == []
    result = bounded_sequiv_search(TREFOIL, MIRROR_TREFOIL)
    assert (result.verdict, result.reason) == ("distinct", "signature differs")
    assert len(calls) == 2


def test_signature_sign_of_delta_at_minus_one_on_large_closures():
    # delta(-1) = (-1)^g det(M + M^T), and det(M + M^T) has the sign of
    # (-1)^(number of negative eigenvalues), so sign delta(-1) = (-1)^(sigma/2).
    sizes = []
    for word in knot_corpus(6, 40, 5, 40):
        sm = seifert_matrix(word)
        inv = invariants(sm)
        assert inv.signature % 2 == 0
        assert (inv.alexander.evaluate(-1) > 0) == (inv.signature % 4 == 0)
        sizes.append(sm.size)
    assert max(sizes) >= 36


def _nonsingular_then_enlarged(seed, wide=False):
    """(matrix, s): a scrambled nonsingular matrix of size s, enlarged 0-2 times and scrambled again.

    With wide, each matrix of size 2 or more is widened past the width
    budget, so alexander_raw reduces it and interpolates.
    """
    rng = random.Random(seed)
    for genus in range(5):
        sm = random_scrambled_seifert(rng, genus)[2]
        while det(sm.matrix) == 0:
            sm = random_scrambled_seifert(rng, genus)[2]
        for enlargements in range(3):
            big = sm
            for _ in range(enlargements):
                enlarge = rng.choice((column_enlarge, row_enlarge))
                big = enlarge(big, [rng.randint(-2, 2) for _ in range(big.size)], rng.randint(-2, 2))
            m = None
            # Scrambled until no row is zero, so the width rule alone picks
            # the path (a zero row is reduced first; see the test below).
            while m is None or not all(map(any, m.rows)):
                a = random_unimodular(rng, big.size)
                m = a * big.matrix * a.transpose()
            if wide and m.size:
                m = widened(m)
                assert intlin._kronecker_pencil(m, seifert._NARROW_BUDGET) is None
                assert all(map(any, m.rows))
            yield validate(m), sm.size


def _count_calls(monkeypatch, *bindings):
    # Wraps each (module, name) binding, all into one list of matrix sizes per name.
    calls = {}
    for module, name in bindings:
        original = getattr(module, name)
        seen = calls.setdefault(name, [])

        def counting(m, original=original, seen=seen):
            seen.append(m.size)
            return original(m)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_invariants_runs_only_the_alexander_determinants(monkeypatch):
    # A narrow matrix with no zero row takes one determinant,
    # det(M + K(M + M^T)), and no kernel pass.  Over the width budget,
    # reduce_fully runs one kernel pass per reduction and a last one on
    # the nonsingular N of size s, whose det N is node 0 of the pencil;
    # nodes k = 1..s/2 are det(N + k(N + N^T)).  The signature and
    # det(M + M^T) come from one separate pass that calls neither.
    calls = _count_calls(monkeypatch, (intlin, "det"), (seifert, "det_or_left_kernel"))
    for wide in (False, True):
        for sm, s in _nonsingular_then_enlarged(302, wide):
            for seen in calls.values():
                seen.clear()
            invariants(sm)
            if wide and sm.size:
                assert calls == {"det": [s] * (s // 2), "det_or_left_kernel": list(range(sm.size, s - 1, -2))}
            else:
                assert calls == {"det": [sm.size], "det_or_left_kernel": []}


def test_mat_invariants_runs_one_plus_genus_plus_one_determinants(tmp_path, capsys, monkeypatch):
    # validate's det(M - M^T), then, over the width budget, the kernel
    # passes down to size s and the s/2 Alexander nodes after node 0;
    # under it, the one Kronecker node determinant.
    calls = _count_calls(
        monkeypatch, (intlin, "det"), (seifert, "det"), (seifert, "det_or_left_kernel")
    )
    for wide in (False, True):
        for k, (sm, s) in enumerate(_nonsingular_then_enlarged(303, wide)):
            path = tmp_path / f"case{k}.mat"
            path.write_text(format_matrix(sm.matrix))
            for seen in calls.values():
                seen.clear()
            assert main(["mat", "invariants", str(path)]) == 0
            if wide and sm.size:
                assert calls == {
                    "det": [sm.size] + [s] * (s // 2),
                    "det_or_left_kernel": list(range(sm.size, s - 1, -2)),
                }
            else:
                assert calls == {"det": [sm.size] * 2, "det_or_left_kernel": []}
    capsys.readouterr()


def test_a_zero_row_is_reduced_without_elimination_before_the_one_determinant(monkeypatch):
    # column_enlarge leaves row n + 2 zero: the kernel pass finds e_q there
    # without eliminating, the reduction strips it, and the narrow
    # trefoil left over takes one determinant.
    trefoil = validate(IntMatrix.from_rows([[-1, 1], [0, -1]]))
    enlarged = column_enlarge(trefoil, (1, 0), 1)
    assert not any(enlarged.matrix.rows[3])
    expected = invariants(trefoil)
    calls = _count_calls(monkeypatch, (intlin, "det"), (seifert, "det_or_left_kernel"))
    eliminations = []
    bareiss = intlin._bareiss
    monkeypatch.setattr(intlin, "_bareiss", lambda a: eliminations.append(len(a)) or bareiss(a))
    assert invariants(enlarged) == expected
    assert calls == {"det": [2], "det_or_left_kernel": [4]}
    assert eliminations == [2]
