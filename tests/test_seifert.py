import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import (
    block_sum,
    random_scrambled_seifert,
    random_standardized,
    random_unimodular,
    reference_children,
    reference_search,
)
from sequiv import intlin, seifert
from sequiv.cli import main
from sequiv.intlin import IntMatrix, congruent, det, format_matrix
from sequiv.laurent import LaurentPoly
from sequiv.seifert import (
    CongruenceMove,
    EnlargeMove,
    NegateMove,
    ReduceMove,
    SearchBudget,
    alexander,
    alexander_raw,
    apply_moves,
    bounded_sequiv_search,
    column_enlarge,
    invariants,
    row_enlarge,
    try_reduce,
    validate,
)

TREFOIL = validate(IntMatrix.from_rows([[-1, 1], [0, -1]]))
FIG8 = validate(IntMatrix.from_rows([[1, 1], [0, -1]]))
EMPTY = validate(IntMatrix())
MINIMAL = validate(IntMatrix.from_rows([[0, 1], [0, 0]]))


def test_validate_examples():
    assert TREFOIL.size == 2
    assert EMPTY.genus == 0
    with pytest.raises(ValueError):
        validate(IntMatrix.from_rows([[0, 2], [0, 0]]))  # det(M - M^T) = 4
    with pytest.raises(ValueError):
        validate(IntMatrix.from_rows([[1]]))  # odd size


def test_alexander_examples():
    assert alexander(EMPTY) == LaurentPoly.one
    assert alexander(TREFOIL) == LaurentPoly.of(-1, (1, -1, 1))
    assert alexander(MINIMAL) == LaurentPoly.one
    assert alexander(FIG8) == LaurentPoly.of(-1, (-1, 3, -1))


def test_alexander_trivial_examples():
    assert alexander(EMPTY) == LaurentPoly.one
    assert alexander(MINIMAL) == LaurentPoly.one
    assert alexander(TREFOIL) != LaurentPoly.one


def test_signature_examples():
    assert invariants(TREFOIL).signature == -2
    assert invariants(FIG8).signature == 0
    assert invariants(EMPTY).signature == 0


def test_determinant_examples():
    assert invariants(TREFOIL).determinant == 3
    assert invariants(FIG8).determinant == 5
    assert invariants(EMPTY).determinant == 1


def test_arf_examples():
    assert invariants(EMPTY).arf == 0
    assert invariants(TREFOIL).arf == 1
    assert invariants(FIG8).arf == 1


def test_column_enlarge_examples():
    assert column_enlarge(EMPTY, (), 0).matrix.rows == ((0, 1), (0, 0))
    bigger = column_enlarge(EMPTY, (), 3)
    assert bigger.matrix.rows == ((3, 1), (0, 0))
    assert alexander(bigger) == LaurentPoly.one
    enlarged = column_enlarge(TREFOIL, (1, 0), 2)
    assert enlarged.size == 4
    assert alexander(enlarged) == alexander(TREFOIL)
    assert alexander_raw(enlarged) == alexander_raw(TREFOIL).shift(1)


def test_row_enlarge_examples():
    assert row_enlarge(EMPTY, (), 0).matrix.rows == ((0, 0), (1, 0))
    assert row_enlarge(EMPTY, (), -1).matrix.rows == ((-1, 0), (1, 0))
    enlarged = row_enlarge(TREFOIL, (0, 1), 0)
    assert enlarged.size == 4
    assert alexander(enlarged) == alexander(TREFOIL)


def test_enlarge_length_mismatch():
    with pytest.raises(ValueError):
        column_enlarge(TREFOIL, (1,), 0)
    with pytest.raises(ValueError):
        row_enlarge(TREFOIL, (1, 0, 0), 0)


def test_try_reduce_examples():
    assert try_reduce(MINIMAL).matrix == IntMatrix()
    assert try_reduce(TREFOIL) is None
    assert try_reduce(column_enlarge(TREFOIL, (1, 0), 2)).matrix == TREFOIL.matrix
    # Column site (2, 3), then row site (4, 5): the later one is stripped
    # first.  Moving indices 2, 3 to the end makes the column site the
    # bottom-right one, so the row enlargement is what remains.
    once = column_enlarge(TREFOIL, (1, 0), 2)
    twice = row_enlarge(once, (1, -1, 1, 0), 1)
    assert try_reduce(twice).matrix == once.matrix
    order = (0, 1, 4, 5, 2, 3)
    permuted = validate(IntMatrix(tuple(tuple(twice.matrix.rows[a][b] for b in order) for a in order)))
    assert try_reduce(permuted).matrix == row_enlarge(TREFOIL, (1, -1), 1).matrix


def test_invariance_under_congruence():
    rng = random.Random(11)
    for _ in range(120):
        sm, _, scrambled = random_scrambled_seifert(rng, rng.randint(0, 4))
        assert alexander(sm) == alexander(scrambled)
        assert invariants(sm) == invariants(scrambled)


def test_alexander_postconditions_random():
    rng = random.Random(12)
    for _ in range(100):
        sm = random_standardized(rng, rng.randint(0, 4))
        delta = alexander(sm)
        assert delta.evaluate(1) == 1
        assert delta.is_palindromic()


def test_enlargements_preserve_invariants():
    rng = random.Random(13)
    for _ in range(80):
        sm = random_standardized(rng, rng.randint(0, 3))
        xi = [rng.randint(-3, 3) for _ in range(sm.size)]
        x = rng.randint(-3, 3)
        if rng.random() < 0.5:
            enlarged = column_enlarge(sm, xi, x)
        else:
            enlarged = row_enlarge(sm, xi, x)
        assert enlarged.size == sm.size + 2
        assert alexander(enlarged) == alexander(sm)
        assert invariants(enlarged) == invariants(sm)
        assert alexander_raw(enlarged) == alexander_raw(sm).shift(1)
        reduced = try_reduce(enlarged)
        assert reduced is not None and reduced.matrix == sm.matrix


def test_validate_characterizes_domain():
    rng = random.Random(10)
    for _ in range(300):
        n = rng.choice((0, 2, 4))
        m = IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        )
        from sequiv.intlin import det

        should_pass = det(m - m.transpose()) == 1
        try:
            validate(m)
            assert should_pass
        except ValueError:
            assert not should_pass


def test_search_distinct():
    result = bounded_sequiv_search(TREFOIL, FIG8)
    assert result.verdict == "distinct"
    assert "alexander" in result.reason
    across_sizes = bounded_sequiv_search(TREFOIL, EMPTY)
    assert across_sizes.verdict == "distinct"


def test_search_identity_and_reduction():
    same = bounded_sequiv_search(TREFOIL, TREFOIL)
    assert same.verdict == "equivalent" and same.witness == ()
    down = bounded_sequiv_search(MINIMAL, EMPTY)
    assert down.verdict == "equivalent" and len(down.witness) == 1
    up = bounded_sequiv_search(EMPTY, MINIMAL)
    assert up.verdict == "equivalent" and len(up.witness) == 1
    assert apply_moves(EMPTY, up.witness).matrix == MINIMAL.matrix


def test_search_congruent_witness():
    rng = random.Random(14)
    for _ in range(10):
        g = rng.randint(1, 2)
        sm = random_standardized(rng, g, bound=1)
        a = random_unimodular(rng, sm.size, ops=rng.randint(1, 2))
        target = validate(congruent(sm.matrix, a))
        result = bounded_sequiv_search(sm, target, SearchBudget(max_entry=12))
        assert result.verdict == "equivalent"
        assert apply_moves(sm, result.witness).matrix == target.matrix


def test_search_unknown_is_honest():
    rng = random.Random(15)
    sm = random_standardized(rng, 2, bound=1)
    a = random_unimodular(rng, sm.size, ops=6)
    target = validate(congruent(sm.matrix, a))
    if sm.matrix == target.matrix:
        return
    result = bounded_sequiv_search(sm, target, SearchBudget(max_nodes=3))
    assert result.verdict in ("equivalent", "unknown")
    if result.verdict == "unknown":
        assert result.witness is None


@pytest.mark.parametrize(
    "limits, message",
    [
        ({"max_nodes": 0}, "max_nodes must be at least 1, got 0"),
        ({"max_nodes": -3}, "max_nodes must be at least 1, got -3"),
        ({"max_entry": -1}, "max_entry must be non-negative, got -1"),
        ({"max_size": -1}, "max_size must be non-negative, got -1"),
    ],
)
def test_search_budget_rejects_impossible_limits(limits, message):
    with pytest.raises(ValueError) as info:
        SearchBudget(**limits)
    assert str(info.value) == message


def test_search_budget_accepts_the_smallest_limits():
    budget = SearchBudget(max_size=0, max_entry=0, max_nodes=1)
    assert bounded_sequiv_search(TREFOIL, TREFOIL, budget).verdict == "equivalent"


@pytest.mark.parametrize("max_nodes", [1, 2, 3, 5])
def test_search_holds_at_most_max_nodes_states(max_nodes):
    scrambled = validate(IntMatrix.from_rows([[-3, -1], [-2, -1]]))
    result = bounded_sequiv_search(TREFOIL, scrambled, SearchBudget(max_nodes=max_nodes))
    assert (result.verdict, result.reason) == (
        "unknown",
        f"budget exhausted after {max_nodes} states",
    )


def test_search_deterministic():
    rng = random.Random(16)
    sm = random_standardized(rng, 1, bound=1)
    a = random_unimodular(rng, 2, ops=2)
    target = validate(congruent(sm.matrix, a))
    r1 = bounded_sequiv_search(sm, target)
    r2 = bounded_sequiv_search(sm, target)
    assert r1 == r2


@st.composite
def enlargements(draw, max_genus=3):
    """A scrambled Seifert matrix with an enlargement vector and corner entry."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    _, _, sm = random_scrambled_seifert(rng, draw(st.integers(0, max_genus)))
    v = draw(st.lists(st.integers(-3, 3), min_size=sm.size, max_size=sm.size))
    return sm, tuple(v), draw(st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(enlargements())
def test_row_enlarge_is_transposed_column_enlarge(case):
    sm, v, x = case
    mirrored = column_enlarge(validate(sm.matrix.transpose()), v, x)
    assert row_enlarge(sm, v, x).matrix == mirrored.matrix.transpose()
    zeros = (0,) * sm.size
    for kind, enlarge in (("column", column_enlarge), ("row", row_enlarge)):
        assert EnlargeMove(kind, x).apply_rows(sm.matrix.rows) == enlarge(sm, zeros, x).matrix.rows


@settings(max_examples=60, deadline=None)
@given(enlargements())
def test_try_reduce_undoes_either_enlargement(case):
    sm, v, x = case
    for enlarge in (column_enlarge, row_enlarge):
        reduced = try_reduce(enlarge(sm, v, x))
        assert reduced is not None and reduced.matrix == sm.matrix


@settings(max_examples=60, deadline=None)
@given(enlargements())
def test_reduce_move_rejects_other_sites(case):
    sm, v, x = case
    n = sm.size
    for kind, other, enlarge in (("column", "row", column_enlarge), ("row", "column", row_enlarge)):
        rows = enlarge(sm, v, x).matrix.rows
        assert ReduceMove(n, n + 1, kind).apply_rows(rows) == sm.matrix.rows
        with pytest.raises(ValueError, match="does not match"):
            ReduceMove(n, n + 1, other).apply_rows(rows)
    if try_reduce(sm) is None:
        for p in range(n):
            for q in range(n):
                for kind in ("column", "row"):
                    with pytest.raises(ValueError, match="does not match"):
                        ReduceMove(p, q, kind).apply_rows(sm.matrix.rows)


@settings(max_examples=100, deadline=None)
@given(enlargements(max_genus=4), st.sampled_from(("column", "row")), st.integers(0, 2**32 - 1))
def test_enlargements_and_reductions_pass_validate(case, kind, seed):
    # column_enlarge, row_enlarge and try_reduce wrap their result without
    # a determinant; an explicit validate must accept every one of them.
    sm, v, x = case
    rng = random.Random(seed)
    for enlarge in (column_enlarge, row_enlarge):
        big = enlarge(sm, v, x)
        assert validate(big.matrix) == big
        # A second enlargement in a scrambled basis gives try_reduce other sites.
        bigger = (column_enlarge if kind == "column" else row_enlarge)(
            big, [rng.randint(-3, 3) for _ in range(big.size)], rng.randint(-3, 3)
        )
        a = random_unimodular(rng, bigger.size, ops=4)
        current = validate(congruent(bigger.matrix, a))
        while (current := try_reduce(current)) is not None:
            assert validate(current.matrix) == current


@pytest.mark.parametrize("kind", ["column", "row"])
def test_reduce_move_off_a_site_raises_in_apply_rows_and_apply_moves(kind):
    # The trefoil has no site at all; the enlarged trefoil has one, at (2, 3)
    # 0-indexed, of the kind it was enlarged by, and none at (3, 2).
    enlarged = (column_enlarge if kind == "column" else row_enlarge)(TREFOIL, (1, 0), 1)
    assert ReduceMove(2, 3, kind).apply_rows(enlarged.matrix.rows) == TREFOIL.matrix.rows
    cases = [(TREFOIL, ReduceMove(0, 1, kind)), (enlarged, ReduceMove(3, 2, kind))]
    for sm, move in cases:
        with pytest.raises(ValueError) as info:
            move.apply_rows(sm.matrix.rows)
        assert str(info.value) == "reduction pattern does not match"
        with pytest.raises(ValueError) as info:
            apply_moves(sm, [CongruenceMove(0, 1, 1), CongruenceMove(0, 1, -1), move])
        assert str(info.value) == "reduction pattern does not match"


@pytest.mark.parametrize(
    "move, text",
    [
        # printed as "congruence E[0,1;+1]", it used to act on the last row
        (CongruenceMove(-1, 0, 1), "CongruenceMove(i=-1, j=0, c=1)"),
        (CongruenceMove(0, 2, 1), "CongruenceMove(i=0, j=2, c=1)"),
        # printed as "E[1,1;-2]", it used to act as a negation
        (CongruenceMove(0, 0, -2), "CongruenceMove(i=0, j=0, c=-2)"),
        # printed as "negate basis vector -1", it used to negate row 0
        (NegateMove(-2), "NegateMove(i=-2)"),
        (NegateMove(2), "NegateMove(i=2)"),
        # used to raise IndexError
        (ReduceMove(3, 4, "column"), "ReduceMove(p=3, q=4, kind='column')"),
        # used to say only that the reduction pattern does not match
        (ReduceMove(1, 1, "row"), "ReduceMove(p=1, q=1, kind='row')"),
    ],
)
def test_apply_moves_rejects_moves_that_are_not_moves(move, text):
    message = f"{text} is not a move of a 2x2 matrix"
    with pytest.raises(ValueError) as info:
        apply_moves(TREFOIL, [move])
    assert str(info.value) == message


def test_apply_moves_checks_each_move_against_the_size_it_meets():
    # Index 2 fits once the enlargement has made the matrix 4x4, not before.
    grown = apply_moves(TREFOIL, [EnlargeMove("column"), CongruenceMove(2, 0, 1), NegateMove(3)])
    assert grown.size == 4
    with pytest.raises(ValueError, match=r"^CongruenceMove\(i=2, j=0, c=1\) is not a move of a 2x2"):
        apply_moves(TREFOIL, [CongruenceMove(2, 0, 1), EnlargeMove("column")])


@pytest.mark.parametrize(
    "start, move, text",
    [
        (
            TREFOIL,
            EnlargeMove("diagonal", 1),
            "EnlargeMove(kind='diagonal', x=1) has kind 'diagonal'",
        ),
        (
            row_enlarge(TREFOIL, [1, 0], 1),
            ReduceMove(2, 3, "sideways"),
            "ReduceMove(p=2, q=3, kind='sideways') has kind 'sideways'",
        ),
    ],
    ids=["enlarge", "reduce"],
)
def test_apply_moves_rejects_a_kind_other_than_column_or_row(start, move, text):
    # Replayed, any kind but "row" would act as "column" ("sideways" would
    # strip this row site), so a misspelt witness would print as one move
    # and replay as another.
    with pytest.raises(ValueError) as info:
        apply_moves(start, [move])
    assert str(info.value) == f"{text}, not column or row"


def _count_dets(monkeypatch) -> list:
    """Record the size of every determinant taken through intlin or seifert."""
    calls = []

    def counting(m):
        calls.append(m.size)
        return det(m)

    monkeypatch.setattr(intlin, "det", counting)
    monkeypatch.setattr(seifert, "det", counting)
    return calls


@pytest.mark.parametrize("kind", ["column", "row"])
def test_mat_enlarge_and_reduce_take_one_determinant_each(tmp_path, capsys, monkeypatch, kind):
    # Only the input's validate: adding or stripping the block keeps
    # det(M - M^T) = 1 without a determinant.
    calls = _count_dets(monkeypatch)
    rng = random.Random(50)
    for genus in range(5):
        sm = random_scrambled_seifert(rng, genus)[2]
        path = tmp_path / f"genus{genus}.mat"
        path.write_text(format_matrix(sm.matrix))
        vector = [str(rng.randint(-2, 2)) for _ in range(sm.size)]
        calls.clear()
        assert main(["mat", "enlarge", str(path), "--kind", kind, "--x", "1", "--vector", *vector]) == 0
        assert calls == [sm.size]
        enlarged = tmp_path / f"genus{genus}.{kind}.mat"
        enlarged.write_text(capsys.readouterr().out)
        calls.clear()
        assert main(["mat", "reduce", str(enlarged)]) == 0
        assert calls == [sm.size + 2]
        assert capsys.readouterr().out == format_matrix(sm.matrix)
        calls.clear()
        assert main(["mat", "reduce", str(path)]) == 0
        assert calls == [sm.size]
        capsys.readouterr()


def packed_search(start, target, max_size: int, max_entry: int, max_nodes: int):
    """(SearchResult, stored states) of seifert._breadth_first, in reference_search's terms.

    The states are packed as bounded_sequiv_search packs them, and the
    stored map is unpacked: each stored rows tuple, in the order stored,
    maps to None (the start) or to its parent's rows and the move from
    it.  A target of None is never found: no packed state is negative.
    """
    packed = seifert._PackedStates(max_entry, start, *([] if target is None else [target]))
    end = -1 if target is None else packed.pack(target)
    result, parents = seifert._breadth_first(packed, packed.pack(start), end, max_size, max_nodes)
    stored = {
        packed.unpack(state): None if link is None else (packed.unpack(link[0]), link[1])
        for state, link in parents.items()
    }
    return result, stored


def assert_search_matches_the_reference(start, target, max_size, max_entry, max_nodes):
    """The packed search stores reference_search's states, in order, with their parents and moves."""
    expected, stored = reference_search(start, target, max_size, max_entry, max_nodes)
    result, packed_stored = packed_search(start, target, max_size, max_entry, max_nodes)
    assert result == expected
    assert list(packed_stored.items()) == list(stored.items())
    return result, stored


def reference_sites(rows) -> list:
    """The (p, q, kind) of reference_children's reductions, in its order."""
    return [
        (move.p, move.q, move.kind)
        for move, _ in reference_children(rows, 0, 0)
        if isinstance(move, ReduceMove)
    ]


def packed_sites(rows, max_entry: int) -> list:
    packed = seifert._PackedStates(max_entry, rows)
    return packed.sites(packed.pack(rows), len(rows))


@pytest.mark.parametrize(
    "target, budget, verdict",
    [
        (validate(IntMatrix.from_rows([[-3, -1], [-2, -1]])), SearchBudget(max_nodes=400), "equivalent"),
        # At max_entry 1 a quarter of the congruence moves leave the bound.
        (column_enlarge(TREFOIL, (1, 0), 1), SearchBudget(max_entry=1, max_nodes=400), "unknown"),
    ],
    ids=["scrambled", "enlarged-max-entry-1"],
)
def test_search_builds_each_congruence_child_once(monkeypatch, target, budget, verdict):
    # Every stored state is expanded at most once, in the order stored, and
    # every expansion walks the congruence table of its size once, in
    # order, so it builds each congruence child once; the last expansion
    # may stop part-way, when the search decides or exhausts its budget.
    # The children stored, with their parents and moves, are those of
    # reference_search over reference_children.
    expanded, walks = [], []
    sites, layout = seifert._PackedStates.sites, seifert._PackedStates._layout

    class Walk(tuple):
        def __iter__(self):
            walks.append([])
            for entry in tuple.__iter__(self):
                walks[-1].append(entry[:2])
                yield entry

    def expanding(packed, state, n):
        expanded.append((state, n))
        return sites(packed, state, n)

    def recording(packed, n):
        moves, *rest = layout(packed, n)
        return (Walk(moves), *rest)

    monkeypatch.setattr(seifert._PackedStates, "sites", expanding)
    monkeypatch.setattr(seifert._PackedStates, "_layout", recording)
    max_size = max(TREFOIL.size, target.size) + 2
    result, stored = assert_search_matches_the_reference(
        TREFOIL.matrix.rows, target.matrix.rows, max_size, budget.max_entry, budget.max_nodes
    )
    monkeypatch.undo()
    assert result.verdict == verdict
    assert bounded_sequiv_search(TREFOIL, target, budget) == result
    states = [state for state, _ in expanded]
    assert len(set(states)) == len(states) > 1
    assert len(walks) == len(expanded)
    packed = seifert._PackedStates(budget.max_entry, TREFOIL.matrix.rows, target.matrix.rows)
    assert [packed.unpack(state) for state in states] == list(stored)[: len(states)]
    for (_, n), walk in zip(expanded[:-1], walks[:-1]):
        assert walk == list(seifert._congruence_moves(n))
    assert walks[-1] == list(seifert._congruence_moves(expanded[-1][1]))[: len(walks[-1])]
    assert any(link and isinstance(link[1], CongruenceMove) for link in stored.values())


def test_search_keeps_no_packed_states_alive(monkeypatch):
    # A cache on a _PackedStates method would keep each search's instance,
    # and every layout it built, alive for the life of the process.
    refs = []
    init = seifert._PackedStates.__init__

    def tracking(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(seifert._PackedStates, "__init__", tracking)
    searches = [
        (TREFOIL, validate(IntMatrix.from_rows([[-3, -1], [-2, -1]])), 400, "equivalent"),
        (TREFOIL, column_enlarge(TREFOIL, (1, 0), 1), 300, "unknown"),
        (row_enlarge(TREFOIL, (1, 0), 1), TREFOIL, 300, "equivalent"),
    ]
    for m1, m2, max_nodes, verdict in searches:
        assert bounded_sequiv_search(m1, m2, SearchBudget(max_nodes=max_nodes)).verdict == verdict
    gc.collect()
    assert len(refs) == len(searches)
    assert [ref() for ref in refs] == [None] * len(searches)


def test_search_decided_by_a_reduction_builds_no_layout(monkeypatch):
    # The first child of the row-enlarged trefoil, a reduction, is the
    # trefoil: the search stops there, before any congruence child is due.
    # The site test needs only the line masks of its size, so no congruence
    # layout is built.
    sizes, lines = [], []
    line_masks = seifert._PackedStates._line_masks

    def masks(packed, n):
        lines.append(n)
        return line_masks(packed, n)

    monkeypatch.setattr(seifert._PackedStates, "_layout", lambda self, n: sizes.append(n))
    monkeypatch.setattr(seifert._PackedStates, "_line_masks", masks)
    result = bounded_sequiv_search(row_enlarge(TREFOIL, (1, 0), 1), TREFOIL)
    assert result.verdict == "equivalent"
    assert result.witness == (ReduceMove(2, 3, "row"),)
    assert sizes == []
    assert lines == [4]


SHAPES = ("plain", "zero row", "zero column", "sites")


@st.composite
def search_states(draw, sizes=st.integers(0, 6), shapes=SHAPES):
    """(rows, max_size, max_entry) for a search from rows.

    Sizes 0-6 by default, with max_size n or n + 2, and a shape drawn
    from shapes, which may repeat one to weight it; entries mostly
    within max_entry, some states with one or two planted entries just
    above it, some with random entries well beyond it and some with
    entries up to +-10^6, which widen the packed fields; some states
    with a zero row or column, or with one or two planted column or row
    enlargement sites, which may share an index, and whose partner line
    (the column of a column site, the row of a row site) may then be
    spoilt: its unit turned into -1 or 2, or a +-1 or 2 added beside it.
    """
    n = draw(sizes)
    max_entry = draw(st.integers(0, 12))
    bound = st.integers(-max_entry, max_entry)
    wide = st.integers(-(10**6), 10**6)
    entry = draw(st.sampled_from((st.integers(-2, 2), bound, st.integers(-14, 14), wide)))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n:
        for _ in range(draw(st.integers(0, 2))):
            r, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[r][k] = draw(st.sampled_from((1, -1))) * (max_entry + draw(st.integers(0, 3)))
        shape = draw(st.sampled_from(shapes))
        if shape == "zero row":
            rows[draw(st.integers(0, n - 1))] = [0] * n
        elif shape == "zero column":
            k = draw(st.integers(0, n - 1))
            for row in rows:
                row[k] = 0
        elif shape == "sites" and n >= 2:
            for _ in range(draw(st.integers(1, 2))):
                p, q = draw(st.permutations(range(n)))[:2]
                column = draw(st.booleans())
                for l in range(n):
                    rows[q][l] = rows[l][q] = 0
                    if l != p:
                        if column:
                            rows[p][l] = 0
                        else:
                            rows[l][p] = 0
                r, k = (p, q) if column else (q, p)
                rows[r][k] = draw(st.sampled_from((1, 1, 1, 1, -1, 2)))
                if draw(st.integers(0, 3)) == 0:
                    l = draw(st.integers(0, n - 1))
                    if l not in (p, q):
                        extra = draw(st.sampled_from((1, -1, 2)))
                        if column:
                            rows[l][q] = extra
                        else:
                            rows[q][l] = extra
    rows = tuple(tuple(row) for row in rows)
    return rows, n + draw(st.sampled_from((0, 2))), max_entry


@settings(max_examples=500, deadline=None)
@given(search_states(sizes=st.integers(0, 8), shapes=SHAPES + ("sites",) * 4))
def test_packed_sites_match_the_reference_reductions(case):
    # The packed site rule finds exactly the ReduceMoves of
    # reference_children, which tries every (p, q, kind) through the
    # literal matcher _column_pattern, in the same order; the entries may
    # lie past max_entry, as on a start past the bound.
    rows, _, max_entry = case
    assert packed_sites(rows, max_entry) == reference_sites(rows)


@settings(max_examples=300, deadline=None)
@given(search_states(), st.integers(1, 40))
def test_children_match_the_literal_reference(case, max_nodes):
    # The search from a random state, with no target, stores exactly the
    # states of reference_search, whose expansions copy the matrix for
    # every move and check it whole: the same children, in the same order,
    # with the same parents and moves, up to a budget that mostly runs out
    # part-way through an expansion.
    rows, max_size, max_entry = case
    assert_search_matches_the_reference(rows, None, max_size, max_entry, max_nodes)


def test_children_match_the_reference_on_a_start_above_max_entry():
    # -3 lies above max_entry 2: only moves with i = 0 can change it, so
    # every congruence child of the start has i = 0.
    scrambled = ((-3, -1), (-2, -1))
    _, stored = assert_search_matches_the_reference(scrambled, None, 4, 2, 100)
    first = [link[1] for link in stored.values() if link and link[0] == scrambled]
    assert any(isinstance(move, CongruenceMove) for move in first)
    assert all(move.i == 0 for move in first if isinstance(move, CongruenceMove))
    assert packed_sites(scrambled, 2) == reference_sites(scrambled) == []


@pytest.mark.parametrize(
    "rows, max_entry, width",
    [
        # B = 1: fields of 5 bits, and only the zero matrix passes the bound.
        ((), 0, 5),
        (((0, 1), (0, 0)), 0, 5),
        (((0, 0, 0), (0, 0, 0), (0, 0, 0)), 0, 5),
        (((-1, 1), (0, -1)), 0, 5),
        # B = 10^9: fields of 34 bits; child entries reach 4 * 10^9 (first
        # case), and only 4 of their 40 congruence children stay within the bound.
        (((10**9, 10**9), (10**9, 10**9)), 10**9, 34),
        (((10**9, 10**9), (-(10**9), 10**9)), 10**9, 34),
        (((10**9, 1, -(10**9)), (0, 10**9 - 1, 2), (-(10**9), 5, 0)), 10**9, 34),
        ((), 10**9, 34),
    ],
    ids=[
        "0-empty", "0-minimal", "0-zero", "0-trefoil", "1e9-ones", "1e9-2x2", "1e9-3x3", "1e9-empty"
    ],
)
def test_children_match_the_reference_at_extreme_max_entry(rows, max_entry, width):
    assert seifert._PackedStates(max_entry, rows).width == width
    assert packed_sites(rows, max_entry) == reference_sites(rows)
    for max_size in (len(rows), len(rows) + 2):
        for max_nodes in (1, 5, 60):
            assert_search_matches_the_reference(rows, None, max_size, max_entry, max_nodes)


@pytest.mark.parametrize("max_entry", [0, 10**9])
def test_search_matches_the_reference_at_extreme_max_entry(max_entry):
    pairs = [
        (EMPTY, MINIMAL),
        (MINIMAL, EMPTY),
        (TREFOIL, validate(IntMatrix.from_rows([[-3, -1], [-2, -1]]))),
        (TREFOIL, column_enlarge(TREFOIL, (1, 0), 1)),
    ]
    for m1, m2 in pairs:
        budget = SearchBudget(max_entry=max_entry, max_nodes=300)
        expected, _ = reference_search(
            m1.matrix.rows, m2.matrix.rows, max(m1.size, m2.size) + 2, max_entry, budget.max_nodes
        )
        assert bounded_sequiv_search(m1, m2, budget) == expected


def square_matrices(sizes, entries):
    """Strategy: square rows tuples of a size drawn from sizes."""
    return sizes.flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n).map(tuple), min_size=n, max_size=n
        ).map(tuple)
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), square_matrices(st.integers(0, 8), st.integers(-(10**6), 10**6)))
def test_packed_states_round_trip(max_entry, rows):
    packed = seifert._PackedStates(max_entry, rows)
    state = packed.pack(rows)
    assert packed.unpack(state) == rows
    # Every field is nonzero, so sizes never collide: an n x n state has
    # between w (n^2 - 1) + 1 and w n^2 bits.
    n = len(rows)
    assert (state == 0) == (n == 0)
    assert packed.width * (n * n - 1) < state.bit_length() <= packed.width * n * n


@settings(max_examples=200, deadline=None)
@given(square_matrices(st.integers(2, 6), st.integers()), st.data(), st.integers())
def test_congruence_move_is_the_literal_product(rows, data, c):
    # Unbounded entries and any integer c: the replay path of apply_moves.
    n = len(rows)
    i, j = data.draw(st.permutations(range(n)))[:2]
    e = IntMatrix.from_rows(
        [[int(a == b) + (c if (a, b) == (i, j) else 0) for b in range(n)] for a in range(n)]
    )
    m = IntMatrix(rows)
    assert CongruenceMove(i, j, c).apply_rows(rows) == (e * m * e.transpose()).rows


@st.composite
def search_pairs(draw):
    """(m1, m2, budget): congruence walks, enlargements and scrambled block sums."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(("walk", "enlarge", "blocks")))
    if shape == "walk":
        m1 = random_standardized(rng, draw(st.integers(1, 2)), bound=draw(st.integers(1, 2)))
        a = random_unimodular(rng, m1.size, ops=draw(st.integers(1, 4)))
        m2 = validate(congruent(m1.matrix, a))
    elif shape == "enlarge":
        m1 = random_standardized(rng, draw(st.integers(0, 1)), bound=draw(st.integers(1, 2)))
        enlarge = draw(st.sampled_from((column_enlarge, row_enlarge)))
        m2 = enlarge(m1, [rng.randint(-1, 1) for _ in range(m1.size)], rng.randint(-1, 1))
        if draw(st.booleans()):
            m1, m2 = m2, m1
    else:
        block = st.tuples(st.integers(-2, 2), st.integers(-2, 1), st.integers(-2, 2))
        blocks = st.lists(block, min_size=1, max_size=2)
        first = draw(blocks)
        a = random_unimodular(rng, 2 * len(first), ops=3)
        m1 = validate(congruent(block_sum(first).matrix, a))
        # The same blocks reordered, or other blocks, whose invariants may still agree.
        m2 = block_sum(draw(st.permutations(first)) if draw(st.booleans()) else draw(blocks))
    budget = SearchBudget(max_entry=draw(st.integers(0, 12)), max_nodes=draw(st.integers(1, 300)))
    return m1, m2, budget


@settings(max_examples=100, deadline=None)
@given(search_pairs())
def test_search_matches_the_reference_search(case):
    m1, m2, budget = case
    result = bounded_sequiv_search(m1, m2, budget)
    if invariants(m1) != invariants(m2):
        assert result.verdict == "distinct"
        return
    max_size = max(m1.size, m2.size) + 2
    start, target = m1.matrix.rows, m2.matrix.rows
    expected, _ = reference_search(start, target, max_size, budget.max_entry, budget.max_nodes)
    assert result == expected
    if start != target:
        # The whole search, state by state: every stored state, in order,
        # with its parent and move.
        assert_search_matches_the_reference(
            start, target, max_size, budget.max_entry, budget.max_nodes
        )


@pytest.mark.parametrize(
    "m1, m2, max_nodes, verdict",
    [
        # Decided by a congruence child, part-way through an expansion.
        (TREFOIL, validate(IntMatrix.from_rows([[-3, -1], [-2, -1]])), 400, "equivalent"),
        # Decided by a reduction, the first child of the start.
        (row_enlarge(TREFOIL, (1, 0), 1), TREFOIL, 400, "equivalent"),
        # Budgets that run out part-way through an expansion.
        (TREFOIL, column_enlarge(TREFOIL, (1, 0), 1), 300, "unknown"),
        (TREFOIL, row_enlarge(TREFOIL, (1, 0), 1), 777, "unknown"),
        (TREFOIL, validate(IntMatrix.from_rows([[-3, -1], [-2, -1]])), 5, "unknown"),
    ],
    ids=["congruence", "reduction", "column-300", "row-777", "scrambled-5"],
)
def test_search_stores_the_reference_states(m1, m2, max_nodes, verdict):
    max_size = max(m1.size, m2.size) + 2
    start, target = m1.matrix.rows, m2.matrix.rows
    result, stored = assert_search_matches_the_reference(start, target, max_size, 8, max_nodes)
    assert result.verdict == verdict
    assert bounded_sequiv_search(m1, m2, SearchBudget(max_nodes=max_nodes)) == result
    if verdict == "unknown":
        # One more state would come from the same parent: the budget ran
        # out in the middle of that parent's expansion.
        _, more = reference_search(start, target, max_size, 8, max_nodes + 1)
        assert len(stored) == max_nodes and len(more) == max_nodes + 1
        assert list(more.values())[-1][0] == list(stored.values())[-1][0]


@pytest.mark.parametrize("enlarge", [column_enlarge, row_enlarge], ids=["column", "row"])
def test_children_match_the_reference_on_every_stored_search_state(enlarge):
    """Every state the 4000-state trefoil -> enlarged-trefoil search stores."""
    enlarged = enlarge(TREFOIL, (1, 0), 1)
    budget = SearchBudget(max_nodes=4000)
    max_size, max_entry = enlarged.size + 2, budget.max_entry
    start, target = TREFOIL.matrix.rows, enlarged.matrix.rows
    expected, stored = assert_search_matches_the_reference(
        start, target, max_size, max_entry, budget.max_nodes
    )
    assert len(stored) == 4000
    packed = seifert._PackedStates(max_entry, start, target)
    for rows in stored:
        assert packed.sites(packed.pack(rows), len(rows)) == reference_sites(rows)
    result = bounded_sequiv_search(TREFOIL, enlarged, budget)
    assert result == expected
    assert result.reason == "budget exhausted after 4000 states"
