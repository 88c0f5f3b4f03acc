import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import pure_braid_words, random_pure_braid, reference_linking_table
from sequiv.purebraid import (
    LinkingMatrix,
    PureBraidWord,
    delta_equivalent,
    delta_relator,
    format_braid,
    insert_relator,
    is_delta_trivial,
    _check_letter,
    linking_matrix,
    parse_braid,
)


def test_linking_matrix_examples():
    assert linking_matrix(PureBraidWord(3)).is_zero()
    w = PureBraidWord.generator(3, 1, 2)
    lm = linking_matrix(w)
    assert lm.entry(1, 2) == 1 and lm.entry(2, 1) == 1
    assert lm.entry(1, 3) == 0 and lm.entry(2, 3) == 0
    assert linking_matrix(delta_relator(1, 2, 3)).is_zero()


def test_letter_validation():
    with pytest.raises(ValueError):
        PureBraidWord(3, ((2, 1, 1),))
    with pytest.raises(ValueError):
        PureBraidWord(3, ((1, 4, 1),))
    with pytest.raises(ValueError):
        PureBraidWord(3, ((1, 2, 2),))


@settings(deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(-1, n + 1), st.integers(-1, n + 1), st.integers(-2, 2))),
        )
    )
)
def test_letter_checks_raise_check_letter_message(case):
    # The inline check in __post_init__ must reject exactly what _check_letter
    # rejects, with its message for the first bad letter.
    n, letters = case
    expected = None
    for letter in letters:
        try:
            _check_letter(n, letter)
        except ValueError as exc:
            expected = str(exc)
            break
    if expected is None:
        assert PureBraidWord(n, tuple(letters)).letters == tuple(letters)
    else:
        with pytest.raises(ValueError) as info:
            PureBraidWord(n, tuple(letters))
        assert str(info.value) == expected


def test_delta_relator():
    r = delta_relator(1, 2, 3)
    assert r.letters == ((1, 2, 1), (2, 3, 1), (1, 2, -1), (2, 3, -1))
    r = delta_relator(1, 2, 4, strands=4)
    assert r.letters == ((1, 2, 1), (2, 4, 1), (1, 2, -1), (2, 4, -1))
    with pytest.raises(ValueError):
        delta_relator(2, 1, 3)
    with pytest.raises(ValueError):
        delta_relator(1, 2, 5, strands=4)


def test_is_delta_trivial():
    assert is_delta_trivial(delta_relator(1, 2, 3))
    assert not is_delta_trivial(PureBraidWord.generator(2, 1, 2))
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randint(3, 5)
        word = PureBraidWord(n)
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(1, n - 2)
            j = rng.randint(i + 1, n - 1)
            k = rng.randint(j + 1, n)
            conj = random_pure_braid(rng, n, rng.randint(0, 5))
            word = word * conj * delta_relator(i, j, k, strands=n) * conj.inverse()
        assert is_delta_trivial(word)


def test_delta_equivalent():
    w = random_pure_braid(random.Random(22), 4, 10)
    assert delta_equivalent(w, w * delta_relator(1, 2, 4, strands=4))
    p12 = PureBraidWord.generator(3, 1, 2)
    p13 = PureBraidWord.generator(3, 1, 3)
    p23 = PureBraidWord.generator(3, 2, 3)
    assert not delta_equivalent(p12, p12 * p13)
    assert delta_equivalent(p12 * p23, p23 * p12)
    with pytest.raises(ValueError):
        delta_equivalent(PureBraidWord(2), PureBraidWord(3))


def test_linking_homomorphism():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 6)
        w1 = random_pure_braid(rng, n, rng.randint(0, 40))
        w2 = random_pure_braid(rng, n, rng.randint(0, 40))
        assert linking_matrix(w1 * w2) == linking_matrix(w1) + linking_matrix(w2)
        assert linking_matrix(w1.inverse()) == -linking_matrix(w1)


def test_insert_relator():
    rel = delta_relator(1, 2, 3)
    inserted = insert_relator(PureBraidWord(3), 0, rel)
    assert inserted.letters == rel.letters

    rng = random.Random(24)
    for _ in range(100):
        n = rng.randint(3, 5)
        w = random_pure_braid(rng, n, rng.randint(0, 20))
        conj = random_pure_braid(rng, n, rng.randint(0, 6))
        pos = rng.randint(0, len(w.letters))
        out = insert_relator(w, pos, delta_relator(1, 2, 3, strands=n), conj)
        assert linking_matrix(out) == linking_matrix(w)
        assert delta_equivalent(w, out)

    with pytest.raises(IndexError):
        insert_relator(PureBraidWord(3), 5, rel)


def test_insert_then_cancel_free_reduces():
    rng = random.Random(25)
    w = random_pure_braid(rng, 4, 8)
    rel = delta_relator(1, 2, 4, strands=4)
    conj = random_pure_braid(rng, 4, 3)
    pos = 4
    once = insert_relator(w, pos, rel, conj)
    twice = insert_relator(once, pos + len(conj.letters) * 2 + len(rel.letters), rel.inverse(), conj)
    assert twice.free_reduce().letters == w.free_reduce().letters


def test_free_reduce():
    w = PureBraidWord(3, ((1, 2, 1), (1, 2, -1), (2, 3, 1)))
    assert w.free_reduce().letters == ((2, 3, 1),)
    assert (w * w.inverse()).free_reduce().letters == ()


def test_linking_matrix_type():
    lm = LinkingMatrix.summed(3, [(3, 1, 2)])
    assert lm.entry(3, 1) == 2 and lm.entry(1, 3) == 2 and lm.entry(2, 2) == 0
    assert lm.entries == ((1, 3, 2),)
    assert LinkingMatrix.summed(3, [(2, 3, 1), (1, 2, 0), (3, 2, -1)]).is_zero()
    with pytest.raises(ValueError):
        LinkingMatrix.summed(3, [(2, 2, 1)])


@pytest.mark.parametrize(
    "entries",
    [
        ((2, 1, 1),),
        ((1, 4, 1),),
        ((0, 1, 1),),
        ((1, 2, 0),),
        ((1, 3, 1), (1, 2, 1)),
        ((1, 2, 1), (1, 2, 1)),
    ],
    ids=["lower", "past-n", "zero-index", "zero-value", "unsorted", "repeated"],
)
def test_linking_matrix_rejects_malformed_entries(entries):
    with pytest.raises(ValueError, match="linking entries must be sorted"):
        LinkingMatrix(3, entries)


@settings(deadline=None)
@given(st.integers(1, 8).flatmap(pure_braid_words))
def test_linking_matrix_is_the_nonzero_upper_triangle_of_the_reference(w):
    table = reference_linking_table(w)
    n = w.strands
    expected = tuple(
        (i + 1, j + 1, table[i][j]) for i in range(n) for j in range(i + 1, n) if table[i][j]
    )
    assert linking_matrix(w).entries == expected


def test_format_parse_roundtrip():
    rng = random.Random(26)
    for _ in range(30):
        w = random_pure_braid(rng, rng.randint(2, 6), rng.randint(0, 12))
        assert parse_braid(format_braid(w)) == w
    with pytest.raises(ValueError):
        parse_braid("3\n1 2 1\n")


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(pure_braid_words))
def test_format_parse_roundtrip_property(w):
    assert parse_braid(format_braid(w)) == w
