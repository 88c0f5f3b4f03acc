import hashlib
import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gens import (
    reference_burau_alexander,
    reference_burau_minus_identity,
    reference_components,
)
from sequiv import braidclosure
from sequiv.braidclosure import (
    ArtinBraidWord,
    burau_alexander,
    format_artin_word,
    is_knot_closure,
    knot_corpus,
    parse_artin_word,
    seifert_matrix,
    _burau_matrix,
)
from sequiv.intlin import format_matrix
from sequiv.laurent import LaurentPoly, polynomial_matrix_det, signed_digits
from sequiv.seifert import alexander, invariants, validate

TREFOIL_WORD = ArtinBraidWord(2, (1, 1, 1))
FIG8_WORD = ArtinBraidWord(3, (1, -2, 1, -2))


def test_is_knot_closure_examples():
    assert is_knot_closure(TREFOIL_WORD)
    assert not is_knot_closure(ArtinBraidWord(2))
    assert is_knot_closure(FIG8_WORD)


def test_word_validation():
    with pytest.raises(ValueError):
        ArtinBraidWord(1)
    with pytest.raises(ValueError):
        ArtinBraidWord(2, (2,))
    with pytest.raises(ValueError):
        ArtinBraidWord(3, (0,))


def test_seifert_matrix_examples():
    sm = seifert_matrix(TREFOIL_WORD)
    assert sm.size == 2
    assert alexander(sm) == LaurentPoly.of(-1, (1, -1, 1))
    assert invariants(sm).signature == -2

    unknot = seifert_matrix(ArtinBraidWord(2, (1,)))
    assert unknot.size == 0
    assert alexander(unknot) == LaurentPoly.one

    f8 = seifert_matrix(FIG8_WORD)
    assert f8.size == 2
    assert alexander(f8) == LaurentPoly.of(-1, (-1, 3, -1))
    assert (invariants(f8).determinant, invariants(f8).signature) == (5, 0)


def test_seifert_matrix_preconditions():
    with pytest.raises(ValueError, match="components"):
        seifert_matrix(ArtinBraidWord(2, (1, 1)))
    with pytest.raises(ValueError, match="components"):
        seifert_matrix(ArtinBraidWord(3, (1, 1)))


@st.composite
def _words_with_unused_and_cancelling_letters(draw):
    # 0-16 letters on 2-9 strands, drawn from a subset of the generators,
    # some followed at once by their inverse.
    n = draw(st.integers(2, 9))
    generators = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1)))
    letters = []
    for _ in range(draw(st.integers(0, 8))):
        v = draw(st.sampled_from(generators)) * draw(st.sampled_from((1, -1)))
        letters += [v, -v] if draw(st.booleans()) else [v]
    return ArtinBraidWord(n, tuple(letters))


@settings(max_examples=300, deadline=None)
@given(_words_with_unused_and_cancelling_letters())
def test_components_and_permutation_match_the_dense_walk(w):
    count = braidclosure._components(w)
    assert count == reference_components(w)
    assert is_knot_closure(w) == (count == 1)
    if count == 1:  # so seifert_matrix needs no separate generator check
        assert {abs(v) for v in w.letters} == set(range(1, w.strands))


def test_burau_examples():
    assert burau_alexander(TREFOIL_WORD) == LaurentPoly.of(-1, (1, -1, 1))
    assert burau_alexander(ArtinBraidWord(2, (1,))) == LaurentPoly.one
    assert burau_alexander(FIG8_WORD) == LaurentPoly.of(-1, (-1, 3, -1))
    with pytest.raises(ValueError):
        burau_alexander(ArtinBraidWord(2))


@pytest.mark.parametrize("front_end", [seifert_matrix, burau_alexander])
def test_both_closure_front_ends_reject_a_link_with_one_message(front_end):
    with pytest.raises(ValueError) as info:
        front_end(ArtinBraidWord(3, (1,)))
    assert str(info.value) == "closure has 2 components, not a knot"


T = LaurentPoly.of(1, (1,))
TINV = LaurentPoly.of(-1, (1,))
ONE = LaurentPoly.one
Z = LaurentPoly()


def _identity(m):
    return [[ONE if a == b else Z for b in range(m)] for a in range(m)]


def _product(a, b):
    m = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(m)), Z) for j in range(m)] for i in range(m)]


def _rho(n, *letters):
    """rho of the word as the oracle builds it, its packed entries decoded as LaurentPoly."""
    cols, b, neg = _burau_matrix(ArtinBraidWord(n, letters))
    return [[LaurentPoly.of(-neg, signed_digits(col[a], b)) for col in cols] for a in range(n - 1)]


def _literal_block(n, v):
    """The textbook reduced Burau image of one letter, written out block by block."""
    i = abs(v)
    rows = _identity(n - 1)
    if n == 2:
        block, at = [[-T if v > 0 else -TINV]], 0
    elif i == 1:
        block = [[-T, Z], [ONE, ONE]] if v > 0 else [[-TINV, Z], [TINV, ONE]]
        at = 0
    elif i == n - 1:
        block = [[ONE, T], [Z, -T]] if v > 0 else [[ONE, ONE], [Z, -TINV]]
        at = n - 3
    else:
        block = (
            [[ONE, T, Z], [Z, -T, Z], [Z, ONE, ONE]]
            if v > 0
            else [[ONE, ONE, Z], [Z, -TINV, Z], [Z, TINV, ONE]]
        )
        at = i - 2
    for a, row in enumerate(block):
        for b, e in enumerate(row):
            rows[at + a][at + b] = e
    return rows


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_burau_letter_images_are_the_literal_blocks(n):
    assert _rho(n) == _identity(n - 1)
    for i in range(1, n):
        for v in (i, -i):
            assert _rho(n, v) == _literal_block(n, v)


def test_burau_braid_relation():
    for n in range(2, 6):
        for i in range(1, n - 1):
            assert _rho(n, i, i + 1, i) == _rho(n, i + 1, i, i + 1)
        for i in range(1, n):
            assert _rho(n, i, -i) == _identity(n - 1)
            assert _rho(n, -i, i) == _identity(n - 1)


_word_pairs = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        *(st.lists(st.integers(1 - n, n - 1).filter(bool), max_size=6) for _ in range(2)),
    )
)


@settings(deadline=None)
@given(_word_pairs)
def test_burau_is_a_homomorphism(pair):
    n, u, v = pair
    assert _rho(n, *u, *v) == _product(_rho(n, *u), _rho(n, *v))


_burau_words = st.integers(2, 7).flatmap(
    lambda n: st.builds(
        ArtinBraidWord,
        st.just(n),
        st.lists(st.integers(1 - n, n - 1).filter(bool), max_size=40).map(tuple),
    )
)


@pytest.mark.parametrize(
    "w, b",
    [
        (ArtinBraidWord(2, (1, -1, 1)), 3),  # the one column bound stays 1
        (ArtinBraidWord(3, (1,) * 6), 5),  # bounds 7 and 1: 7 + 1 takes a fourth bit
        (ArtinBraidWord(3, (1,) * 7), 5),  # bound 8: 8 + 1 still fits in four bits
    ],
)
def test_burau_slot_width_is_one_bit_past_the_largest_column_bound_plus_one(w, b):
    assert _burau_matrix(w)[1] == b


@settings(max_examples=300, deadline=None)
@given(_burau_words)
@example(ArtinBraidWord(3, (1,) * 6))
@example(ArtinBraidWord(3, (1, 2, -1, 2)))  # a diagonal t^0 coefficient of rho(w) is -1
def test_rho_minus_identity_fits_its_slots_and_its_lowest_set_bit_marks_its_lowest_slot(w):
    cols, b, neg = _burau_matrix(w)
    for c, col in enumerate(cols):
        col[c] -= 1 << (b * neg)
    expected = reference_burau_minus_identity(w)
    half = 1 << (b - 1)
    for a, row in enumerate(expected):
        for c, e in enumerate(row):
            assert all(-half < x < half for x in e.coeffs)
            assert LaurentPoly.of(-neg, signed_digits(cols[c][a], b)) == e
    bits = reduce(or_, (e for col in cols for e in col))
    nonzero = [e for row in expected for e in row if not e.is_zero()]
    assert bool(bits) == bool(nonzero)
    if nonzero:  # every slot below that of the lowest set bit is zero in every entry, and that slot is not
        assert ((bits & -bits).bit_length() - 1) // b == min(e.lo for e in nonzero) + neg


def test_burau_oracle_drops_every_common_low_slot(monkeypatch):
    seen = []

    def record(rows):
        seen.append(rows)
        return polynomial_matrix_det(rows)

    monkeypatch.setattr(braidclosure, "polynomial_matrix_det", record)
    words = knot_corpus(12, 80, 5, 40)
    for w in words:
        burau_alexander(w)
    assert len(seen) == len(words)
    for rows in seen:
        assert any(e and e[0] for row in rows for e in row)


def test_burau_oracle_matches_the_reference_on_the_corpus():
    words = knot_corpus(4, 12, 7, 1000)
    assert len(words) == 1000
    for w in words:
        assert burau_alexander(w) == reference_burau_alexander(w)


def test_burau_oracle_matches_the_reference_on_long_words():
    # Up to 12 strands and 80 letters: 11 x 11 Burau matrices of high degree.
    words = knot_corpus(12, 80, 5, 40)
    for w in words:
        assert burau_alexander(w) == reference_burau_alexander(w)


@st.composite
def _mixed_knot_words(draw):
    # Random letters of both signs on up to 9 strands, then sigma_i^(+-1)
    # appended for each i whose two strands still lie in different cycles,
    # which merges them: the closure is a knot.
    n = draw(st.integers(2, 9))
    letters = draw(st.lists(st.integers(1 - n, n - 1).filter(bool), max_size=16))
    for i in range(1, n):
        joined = letters + [draw(st.sampled_from((i, -i)))]
        if _cycles(joined, n) < _cycles(letters, n):
            letters = joined
    word = ArtinBraidWord(n, tuple(letters))
    assert is_knot_closure(word)
    return word


def _cycles(letters, n):
    return braidclosure._components(ArtinBraidWord(n, tuple(letters)))


@settings(max_examples=150, deadline=None)
@given(_mixed_knot_words())
def test_burau_oracle_matches_the_reference_on_mixed_words(w):
    assert burau_alexander(w) == reference_burau_alexander(w)


def test_matrix_size_and_validity():
    for w in knot_corpus(4, 12, seed=52, count=150):
        sm = seifert_matrix(w)
        assert sm.size == len(w.letters) - w.strands + 1
        validate(sm.matrix)  # no error


def test_oracle_agreement_sample():
    for w in knot_corpus(4, 12, seed=53, count=250):
        assert alexander(seifert_matrix(w)) == burau_alexander(w)


def test_markov_stabilization():
    count = 0
    for w in knot_corpus(3, 9, seed=55, count=60):
        stabilized = ArtinBraidWord(w.strands + 1, w.letters + (w.strands,))
        assert is_knot_closure(stabilized)
        assert alexander(seifert_matrix(stabilized)) == alexander(seifert_matrix(w))
        assert burau_alexander(stabilized) == burau_alexander(w)
        count += 1
    assert count == 60


def test_mirror_invariance():
    for w in knot_corpus(4, 10, seed=56, count=80):
        m = w.mirror()
        assert alexander(seifert_matrix(m)) == alexander(seifert_matrix(w))
        assert burau_alexander(m) == burau_alexander(w)


def test_conjugation_invariance():
    # conjugate words close to the same knot
    rng = random.Random(60)
    for w in knot_corpus(4, 10, seed=61, count=60):
        g = rng.choice((1, -1)) * rng.randint(1, w.strands - 1)
        conj = ArtinBraidWord(w.strands, (g,) + w.letters + (-g,))
        assert is_knot_closure(conj)
        assert alexander(seifert_matrix(conj)) == alexander(seifert_matrix(w))
        assert burau_alexander(conj) == burau_alexander(w)


def test_closure_matrix_bytes_are_pinned():
    # The corpus TSV pins only invariants; these bytes pin the matrices themselves.
    text = "".join(format_matrix(seifert_matrix(w).matrix) for w in knot_corpus(6, 40, 5, 100))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ac969e4baddd7afd6fe62205b1ff045ef516a23d1174dd2a37c9d65d00a9b8d5"
    )


def test_corpus_deterministic():
    a = knot_corpus(4, 12, seed=57, count=40)
    b = knot_corpus(4, 12, seed=57, count=40)
    assert a == b
    c = knot_corpus(4, 12, seed=58, count=40)
    assert a != c
    for w in a:
        assert is_knot_closure(w) and {abs(v) for v in w.letters} == set(range(1, w.strands))


def test_corpus_skips_strand_counts_its_length_cannot_close():
    # A knot closure on n strands needs n - 1 letters, so with 5 strands and
    # 2 letters the draws of 4 and 5 strands are skipped; the 10 words are
    # every knot-closure word on 2 strands with 1 letter or 3 with 2.
    words = knot_corpus(5, 2, 7, 10)
    assert words == knot_corpus(5, 2, 7, 10)
    assert len(set(words)) == 10
    assert {(w.strands, len(w.letters)) for w in words} == {(2, 1), (3, 2)}


class _CountingRandom(random.Random):
    draws = 0

    def randint(self, a, b):
        _CountingRandom.draws += 1
        return super().randint(a, b)

    def choice(self, seq):
        _CountingRandom.draws += 1
        return super().choice(seq)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_corpus_stops_once_every_word_is_drawn(monkeypatch, seed):
    # Two strands and one letter admit only the words "1" and "-1".
    _CountingRandom.draws = 0
    monkeypatch.setattr(braidclosure.random, "Random", _CountingRandom)
    with pytest.raises(ValueError, match="failed to converge"):
        knot_corpus(2, 1, seed, 3)
    assert 0 < _CountingRandom.draws < 100


def test_format_parse_roundtrip():
    rng = random.Random(59)
    for _ in range(30):
        n = rng.randint(2, 5)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 10))
        )
        w = ArtinBraidWord(n, letters)
        assert parse_artin_word(format_artin_word(w)) == w
    assert parse_artin_word("n 2\n1 1 1\n") == TREFOIL_WORD
    with pytest.raises(ValueError):
        parse_artin_word("2\n1\n")


artin_words = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.integers(1 - n, n - 1).filter(bool), max_size=12).map(
        lambda letters: ArtinBraidWord(n, tuple(letters))
    )
)


@settings(deadline=None)
@given(artin_words)
def test_format_parse_roundtrip_property(w):
    assert parse_artin_word(format_artin_word(w)) == w
