"""Differential and property tests for the Alexander polynomial and the
Invariants record.

Three independent Alexander paths are compared: the interpolation path
of sequiv.seifert, a test-only Laurent-polynomial determinant of
M - t * M^T, and the reduced-Burau oracle of sequiv.braidclosure.
"""

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gens import block_sum, block_sum_invariants, random_scrambled_seifert, random_unimodular
from sequiv import intlin, seifert
from sequiv.braidclosure import (
    ArtinBraidWord,
    burau_alexander,
    is_knot_closure,
    knot_corpus,
    missing_generators,
    seifert_matrix,
)
from sequiv.cli import main
from sequiv.intlin import IntMatrix, det, format_matrix, signature_and_det
from sequiv.laurent import LaurentPoly, laurent_matrix_det
from sequiv.seifert import (
    Invariants,
    alexander,
    arf,
    bounded_sequiv_search,
    invariants,
    knot_determinant,
    knot_signature,
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
    assume(is_knot_closure(word) and not missing_generators(word))
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
    rng = random.Random(301)
    cases = [TREFOIL, FIG8, MIRROR_TREFOIL, validate(IntMatrix())]
    cases += [random_scrambled_seifert(rng, g)[2] for g in range(5) for _ in range(6)]
    for sm in cases:
        expected = Invariants(alexander(sm), knot_signature(sm), knot_determinant(sm), arf(sm))
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
        sigma = knot_signature(sm)
        assert sigma % 2 == 0
        assert (alexander(sm).evaluate(-1) > 0) == (sigma % 4 == 0)
        sizes.append(sm.size)
    assert max(sizes) >= 36


def test_invariants_runs_only_the_alexander_determinants(monkeypatch):
    # transpose_pencil_det evaluates det(M + k(M + M^T)) at k = 0..g; the
    # signature and det(M + M^T) come from one separate pass that calls no det.
    calls = []

    def counting(m):
        calls.append(m.size)
        return det(m)

    monkeypatch.setattr(intlin, "det", counting)
    rng = random.Random(302)
    for genus in range(5):
        sm = random_scrambled_seifert(rng, genus)[2]
        calls.clear()
        invariants(sm)
        assert calls == [sm.size] * (genus + 1)


def test_mat_invariants_runs_one_plus_genus_plus_one_determinants(tmp_path, capsys, monkeypatch):
    # validate's det(M - M^T), then the g + 1 Alexander nodes.
    calls = []

    def counting(m):
        calls.append(m.size)
        return det(m)

    monkeypatch.setattr(intlin, "det", counting)
    monkeypatch.setattr(seifert, "det", counting)
    rng = random.Random(303)
    for genus in range(5):
        sm = random_scrambled_seifert(rng, genus)[2]
        path = tmp_path / f"genus{genus}.mat"
        path.write_text(format_matrix(sm.matrix))
        calls.clear()
        assert main(["mat", "invariants", str(path)]) == 0
        assert calls == [sm.size] * (1 + genus + 1)
    capsys.readouterr()
