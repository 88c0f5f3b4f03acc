import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import (
    pure_braid_words,
    random_pure_braid,
    random_zero_linking_link,
    reference_linking_table,
    reference_normalize,
    reference_pairwise_linking,
    zero_linking_links,
)
from sequiv import stringlink
from sequiv.purebraid import PureBraidWord, delta_relator, is_delta_trivial, linking_matrix
from sequiv.stringlink import (
    DoubledStringLink,
    delta_equivalent_links,
    format_string_link,
    normalize_linking,
    pairwise_linking,
    parse_string_link,
    position_of,
    stabilizing_multiply,
    strand_label,
)


def test_position_of_figure_values():
    assert position_of((3, 2), 3, 2) == 4
    assert position_of((2, 2), 3, 2) == 5
    assert position_of((1, 1), 3, 4) == 1
    assert position_of((1, 1), 7, 1) == 1


def test_position_bijection():
    for n, k in itertools.product(range(1, 6), range(1, 6)):
        seen = set()
        for i in range(1, n + 1):
            for a in range(1, k + 1):
                pos = position_of((i, a), n, k)
                assert 1 <= pos <= n * k
                assert strand_label(pos, n, k) == (i, a)
                seen.add(pos)
        assert len(seen) == n * k
    with pytest.raises(ValueError):
        position_of((3, 1), 2, 2)
    with pytest.raises(ValueError):
        strand_label(5, 2, 2)


def _link(n, k, letters, framings=None):
    return DoubledStringLink(
        n, k, PureBraidWord(n * k, tuple(letters)), tuple(framings or [0] * n)
    )


def test_pairwise_linking_examples():
    assert pairwise_linking(_link(3, 2, [])).is_zero()

    # k = 1 reduces to the braid linking matrix
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 5)
        braid = random_pure_braid(rng, n, rng.randint(0, 15))
        link = DoubledStringLink(n, 1, braid, (0,) * n)
        assert pairwise_linking(link) == linking_matrix(braid)

    # single generator between (1,1) and (2,2): alternating sign gives -1
    p1 = position_of((1, 1), 2, 2)
    p2 = position_of((2, 2), 2, 2)
    link = _link(2, 2, [(min(p1, p2), max(p1, p2), 1)])
    assert pairwise_linking(link).entry(1, 2) == -1


@st.composite
def doubled_links_with_same_strand_letters(draw):
    """n 1-5, k 1-4; some letters join two passes of one strand when k > 1."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    strands = n * k
    letters = []
    if strands >= 2:
        pairs = st.lists(st.integers(1, strands), min_size=2, max_size=2, unique=True).map(sorted)
        letters = draw(st.lists(st.tuples(pairs, st.sampled_from((1, -1))), max_size=30))
        letters = [(p, q, e) for (p, q), e in letters]
    if k > 1:
        i = draw(st.integers(1, n))
        a, b = sorted(draw(st.lists(st.integers(1, k), min_size=2, max_size=2, unique=True)))
        p, q = sorted((position_of((i, a), n, k), position_of((i, b), n, k)))
        letters.insert(draw(st.integers(0, len(letters))), (p, q, draw(st.sampled_from((1, -1)))))
    return DoubledStringLink(n, k, PureBraidWord(strands, tuple(letters)), (0,) * n)


@settings(max_examples=200, deadline=None)
@given(doubled_links_with_same_strand_letters())
def test_pairwise_linking_matches_reference(link):
    assert pairwise_linking(link) == reference_pairwise_linking(link)


def test_pairwise_linking_matches_reference_on_zero_linking_links():
    rng = random.Random(35)
    for _ in range(60):
        link = random_zero_linking_link(rng, rng.randint(1, 5), rng.randint(1, 4), 40)
        assert pairwise_linking(link) == reference_pairwise_linking(link)
        assert pairwise_linking(link).is_zero()


def test_stabilizing_multiply_effects():
    rng = random.Random(32)
    for _ in range(80):
        n = rng.randint(1, 4)
        k = rng.randint(2, 4)
        link = _link(
            n, k, random_pure_braid(rng, n * k, rng.randint(0, 20)).letters if n * k >= 2 else []
        )
        i, j = rng.randint(1, n), rng.randint(1, n)
        a = rng.randint(1, k)
        b = rng.randint(1, k - 1)
        sign = rng.choice((1, -1))
        before_pairwise = pairwise_linking(link)
        before = reference_linking_table(link.braid)
        out = stabilizing_multiply(link, i, a, j, b, sign)
        after = reference_linking_table(out.braid)
        assert pairwise_linking(out) == before_pairwise
        assert out.framings == link.framings
        changed = {
            (p, q): after[p][q] - before[p][q]
            for p in range(n * k)
            for q in range(p + 1, n * k)
            if after[p][q] != before[p][q]
        }
        if i == j and a in (b, b + 1):
            key = tuple(
                sorted((position_of((i, b), n, k) - 1, position_of((i, b + 1), n, k) - 1))
            )
            assert changed == {key: sign}
        else:
            k1 = tuple(
                sorted((position_of((i, a), n, k) - 1, position_of((j, b), n, k) - 1))
            )
            k2 = tuple(
                sorted((position_of((i, a), n, k) - 1, position_of((j, b + 1), n, k) - 1))
            )
            assert changed == {k1: sign, k2: sign}


def test_stabilizing_multiply_round_trip():
    link = _link(2, 2, [(1, 2, 1), (3, 4, 1)])
    once = stabilizing_multiply(link, 1, 2, 2, 1, 1)
    back = stabilizing_multiply(once, 1, 2, 2, 1, -1)
    assert linking_matrix(back.braid) == linking_matrix(link.braid)


def test_stabilizing_multiply_prepend_append():
    link = _link(2, 3, [(1, 2, 1)])
    appended = stabilizing_multiply(link, 1, 1, 2, 1, 1)  # b odd: append
    assert appended.braid.letters[0] == (1, 2, 1)
    prepended = stabilizing_multiply(link, 1, 1, 2, 2, 1)  # b even: prepend
    assert prepended.braid.letters[-1] == (1, 2, 1)


def test_stabilizing_multiply_errors():
    link = _link(2, 2, [])
    with pytest.raises(ValueError):
        stabilizing_multiply(link, 1, 1, 2, 2, 1)  # b == k
    with pytest.raises(ValueError):
        stabilizing_multiply(link, 1, 1, 2, 1, 0)
    with pytest.raises(ValueError):
        stabilizing_multiply(link, 1, 5, 2, 1, 1)  # pass out of range


def test_pairwise_invariant_under_relator_insertion():
    rng = random.Random(38)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        strands = n * k
        if strands < 3:
            continue
        braid = random_pure_braid(rng, strands, rng.randint(0, 40))
        link = _link(n, k, braid.letters)
        i = rng.randint(1, strands - 2)
        j = rng.randint(i + 1, strands - 1)
        l = rng.randint(j + 1, strands)
        from sequiv.purebraid import insert_relator

        conj = random_pure_braid(rng, strands, rng.randint(0, 5))
        spliced = insert_relator(
            braid,
            rng.randint(0, len(braid.letters)),
            delta_relator(i, j, l, strands=strands),
            conj,
        )
        assert pairwise_linking(_link(n, k, spliced.letters)) == pairwise_linking(link)


def test_normalize_empty_braid():
    link = _link(3, 2, [])
    assert normalize_linking(link).braid.letters == ()


def test_normalize_relator_products():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        strands = n * k
        word = PureBraidWord(strands)
        if strands >= 3:
            for _ in range(rng.randint(1, 3)):
                i = rng.randint(1, strands - 2)
                j = rng.randint(i + 1, strands - 1)
                l = rng.randint(j + 1, strands)
                conj = random_pure_braid(rng, strands, rng.randint(0, 4))
                word = word * conj * delta_relator(i, j, l, strands=strands) * conj.inverse()
        link = DoubledStringLink(n, k, word, (0,) * n)
        out = normalize_linking(link)
        assert is_delta_trivial(out.braid)


def test_normalize_two_letter_zero_sum_instance():
    # brute force over exponents for a 2-letter braid with zero pairwise sum
    p11_21 = (position_of((1, 1), 2, 2), position_of((2, 1), 2, 2))
    p12_22 = tuple(sorted((position_of((1, 2), 2, 2), position_of((2, 2), 2, 2))))
    found = None
    for e1 in (1, -1):
        for e2 in (1, -1):
            letters = [
                (min(p11_21), max(p11_21), e1),
                (p12_22[0], p12_22[1], e2),
            ]
            link = _link(2, 2, letters)
            if pairwise_linking(link).is_zero():
                found = link
                break
        if found:
            break
    assert found is not None
    out = normalize_linking(found)
    assert linking_matrix(out.braid).is_zero()
    assert pairwise_linking(out).is_zero()


def test_normalize_random_zero_linking():
    rng = random.Random(34)
    for _ in range(40):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        link = random_zero_linking_link(rng, n, k, 40)
        out = normalize_linking(link)
        assert is_delta_trivial(out.braid)
        assert out.framings == link.framings
        assert delta_equivalent_links(link, out)


def test_normalize_output_is_pinned():
    # Braid-level entries of size 3, 4 and 7 on n = 2, k = 3, with every
    # string-link linking number zero.  The output text is pinned, so a
    # change to the clearing loop must keep it byte-identical.
    lines = (
        ["1.2 2.2 1"] * 3 + ["1.3 2.2 -1"] * 4 + ["1.1 1.3 1"] * 3
        + ["2.1 2.2 -1"] * 2 + ["1.1 2.1 -1"] * 7
    )
    link = parse_string_link("n 2 k 3\nframings 1 -2\n" + "\n".join(lines) + "\n")
    text = format_string_link(normalize_linking(link))
    assert len(text.splitlines()) == 68
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0c689fa4c76ae825b8f390673b2f691f1c5963efc984e18eb6ef6af3ab3a7aed"
    )


def test_normalize_visits_only_linked_strands(monkeypatch):
    # One linked strand pair among n strands: the fold's work must not grow with n.
    pair_letters = stringlink._pair_letters
    calls = []
    monkeypatch.setattr(
        stringlink, "_pair_letters", lambda *args: calls.append(args) or pair_letters(*args)
    )
    counts = []
    for n in (50, 400):
        calls.clear()
        link = parse_string_link(f"n {n} k 2\nframings{' 0' * n}\n1.1 2.1 1\n1.2 2.2 -1\n")
        assert is_delta_trivial(normalize_linking(link).braid)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_normalize_precondition_error():
    link = _link(2, 1, [(1, 2, 1)])
    with pytest.raises(ValueError, match=r"lk\(1,2\)"):
        normalize_linking(link)


def test_delta_equivalent_links():
    rng = random.Random(35)
    link = random_zero_linking_link(rng, 3, 2, 12)
    assert delta_equivalent_links(link, link)
    bumped = DoubledStringLink(
        link.n, link.k, link.braid, (link.framings[0] + 1,) + link.framings[1:]
    )
    assert not delta_equivalent_links(link, bumped)
    stabilized = stabilizing_multiply(link, 1, 1, 2, 1, 1)
    assert delta_equivalent_links(link, stabilized)
    with pytest.raises(ValueError):
        delta_equivalent_links(link, random_zero_linking_link(rng, 2, 2, 4))


def test_pass_one_composition_law():
    # k = 1: appending a braid adds its linking matrix to the pairwise numbers
    rng = random.Random(36)
    for _ in range(30):
        n = rng.randint(2, 5)
        w = random_pure_braid(rng, n, rng.randint(0, 12))
        q = random_pure_braid(rng, n, rng.randint(0, 12))
        l1 = DoubledStringLink(n, 1, w, (0,) * n)
        l2 = DoubledStringLink(n, 1, w * q, (0,) * n)
        assert pairwise_linking(l2) == pairwise_linking(l1) + linking_matrix(q)


def test_format_parse_roundtrip():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        strands = n * k
        letters = (
            random_pure_braid(rng, strands, rng.randint(0, 10)).letters
            if strands >= 2
            else ()
        )
        link = DoubledStringLink(
            n, k, PureBraidWord(strands, letters), tuple(rng.randint(-3, 3) for _ in range(n))
        )
        assert parse_string_link(format_string_link(link)) == link
    with pytest.raises(ValueError):
        parse_string_link("n 2 k\nframings 0 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 2 k 0\nframings 0 0\n", "pass count k must be at least 1, got 0"),
        ("n 2 k 0\nframings 0 0\n1.1 2.1 1\n", "pass count k must be at least 1, got 0"),
        ("n 0 k 1\nframings\n", "strand count n must be at least 1, got 0"),
        ("n -1 k -2\nframings\n", "strand count n must be at least 1, got -1"),
        ("n x k 2\nframings 0\n", "bad header line: 'n x k 2'"),
        ("n 2 k 1.5\nframings 0 0\n", "bad header line: 'n 2 k 1.5'"),
    ],
)
def test_parse_rejects_empty_header_counts(text, message):
    with pytest.raises(ValueError) as info:
        parse_string_link(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "n, k, braid, framings, message",
    [
        (0, 1, PureBraidWord(1), (), "strand count n must be at least 1, got 0"),
        (2, 0, PureBraidWord(1), (0, 0), "pass count k must be at least 1, got 0"),
        (-2, -1, PureBraidWord(2), (), "strand count n must be at least 1, got -2"),
    ],
)
def test_link_rejects_empty_counts(n, k, braid, framings, message):
    with pytest.raises(ValueError) as info:
        DoubledStringLink(n, k, braid, framings)
    assert str(info.value) == message


@st.composite
def string_links(draw):
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    framings = draw(st.lists(st.integers(), min_size=n, max_size=n))
    return DoubledStringLink(n, k, draw(pure_braid_words(n * k)), tuple(framings))


@settings(deadline=None)
@given(string_links())
def test_format_parse_roundtrip_property(link):
    assert parse_string_link(format_string_link(link)) == link


@settings(max_examples=200, deadline=None)
@given(zero_linking_links())
def test_normalize_matches_the_full_grid_reference(link):
    # The fold visits only the passes the entries reach; the literal full
    # k x k grid fold must give the same letters, in the same order.
    assert format_string_link(normalize_linking(link)) == format_string_link(
        reference_normalize(link)
    )


def test_normalize_work_does_not_grow_with_k(monkeypatch):
    # Two letters on passes 1 and 2: the fold's work must not grow with k.
    pair_letters = stringlink._pair_letters
    calls = []
    monkeypatch.setattr(
        stringlink, "_pair_letters", lambda *args: calls.append(args) or pair_letters(*args)
    )
    counts = []
    for k in (10, 1000):
        calls.clear()
        link = parse_string_link(f"n 2 k {k}\nframings 0 0\n1.1 2.1 1\n1.2 2.2 -1\n")
        assert is_delta_trivial(normalize_linking(link).braid)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
