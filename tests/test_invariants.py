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
)
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
from sequiv.laurent import LaurentPoly
from sequiv.seifert import (
    alexander,
    arf,
    bounded_sequiv_search,
    column_enlarge,
    invariants,
    knot_determinant,
    knot_signature,
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
    # The three functions read fields of invariants(sm), so each is checked
    # against a value computed apart from it: the closed form of block
    # sums, and the fraction-field signature and determinant of M + M^T,
    # with Arf 0 exactly when that determinant is +-1 mod 8 (Levine).
    rng = random.Random(301)
    cases = [TREFOIL, FIG8, MIRROR_TREFOIL, validate(IntMatrix())]
    cases += [random_scrambled_seifert(rng, g)[2] for g in range(5) for _ in range(6)]
    for sm in cases:
        sig, d = fraction_signature_and_det(sm.matrix + sm.matrix.transpose())
        expected = (sig, abs(d), 0 if abs(d) % 8 in (1, 7) else 1)
        assert (knot_signature(sm), knot_determinant(sm), arf(sm)) == expected
        record = invariants(sm)
        assert (record.signature, record.determinant, record.arf) == expected
    for _ in range(20):
        blocks = [
            (rng.randint(-2, 2), rng.randint(-2, 1), rng.randint(-2, 2))
            for _ in range(rng.randint(0, 4))
        ]
        sm, expected = block_sum(blocks), block_sum_invariants(blocks)
        assert (knot_signature(sm), knot_determinant(sm), arf(sm)) == (
            expected.signature,
            expected.determinant,
            expected.arf,
        )


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


def _nonsingular_then_enlarged(seed):
    """(matrix, s): a scrambled nonsingular matrix of size s, enlarged 0-2 times and scrambled again."""
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
            a = random_unimodular(rng, big.size)
            yield validate(a * big.matrix * a.transpose()), sm.size


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
    # reduce_fully runs one kernel pass per reduction and a last one on the
    # nonsingular N of size s, whose det N is node 0 of the pencil; nodes
    # k = 1..s/2 are det(N + k(N + N^T)).  The signature and det(M + M^T)
    # come from one separate pass that calls neither.
    calls = _count_calls(monkeypatch, (intlin, "det"), (seifert, "det_or_left_kernel"))
    for sm, s in _nonsingular_then_enlarged(302):
        for seen in calls.values():
            seen.clear()
        invariants(sm)
        assert calls == {"det": [s] * (s // 2), "det_or_left_kernel": list(range(sm.size, s - 1, -2))}


def test_mat_invariants_runs_one_plus_genus_plus_one_determinants(tmp_path, capsys, monkeypatch):
    # validate's det(M - M^T), the kernel passes down to size s, then the
    # s/2 Alexander nodes after node 0.
    calls = _count_calls(
        monkeypatch, (intlin, "det"), (seifert, "det"), (seifert, "det_or_left_kernel")
    )
    for k, (sm, s) in enumerate(_nonsingular_then_enlarged(303)):
        path = tmp_path / f"case{k}.mat"
        path.write_text(format_matrix(sm.matrix))
        for seen in calls.values():
            seen.clear()
        assert main(["mat", "invariants", str(path)]) == 0
        assert calls == {
            "det": [sm.size] + [s] * (s // 2),
            "det_or_left_kernel": list(range(sm.size, s - 1, -2)),
        }
    capsys.readouterr()
