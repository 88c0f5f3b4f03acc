import ast
import hashlib
import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import (
    descartes_signature_and_det,
    fraction_det,
    fraction_signature_and_det,
    pencil_det,
    random_scrambled_seifert,
    random_skew_unimodular,
    random_unimodular,
    reference_product,
    reference_reduce,
    reference_sum,
    reference_transpose,
    widened,
)
from sequiv import intlin, seifert
from sequiv.braidclosure import knot_corpus, seifert_matrix
from sequiv.cli import main
from sequiv.intlin import (
    IntMatrix,
    InternalCheckError,
    congruent,
    det,
    det_or_left_kernel,
    format_matrix,
    is_unimodular,
    parse_matrix,
    signature_and_det,
    skew_standardize,
    standard_symplectic,
    transpose_pencil_det,
)
from sequiv.laurent import LaurentPoly
from sequiv.seifert import ReduceMove, alexander_raw, column_enlarge, validate

X1 = IntMatrix.from_rows([[0, 1], [-1, 0]])


def test_det_examples():
    assert det(IntMatrix()) == 1
    assert det(X1) == 1
    assert det(IntMatrix.from_rows([[-2, 1], [1, -2]])) == 3


def test_det_multiplicative():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(0, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        )
        b = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        )
        assert det(a * b) == det(a) * det(b)


entries = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


@st.composite
def matrix_pairs(draw):
    """Two n x n row lists, n = 0..7, with small, negative and above-2^64 entries."""
    n = draw(st.integers(0, 7))
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(square), draw(square)


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
def test_matrix_arithmetic_matches_the_triple_loop(pair):
    a_rows, b_rows = pair
    a, b = IntMatrix.from_rows(a_rows), IntMatrix.from_rows(b_rows)

    def rows(lists):  # a tuple never equals a list, so this also pins the row types
        return tuple(map(tuple, lists))

    assert a.rows == rows(a_rows)
    assert IntMatrix.from_rows(iter(row) for row in a_rows) == a
    assert (a * b).rows == rows(reference_product(a_rows, b_rows))
    assert (a + b).rows == rows(reference_sum(a_rows, b_rows))
    assert (a - b).rows == rows(reference_sum(a_rows, b_rows, -1))
    assert a.transpose().rows == rows(reference_transpose(a_rows))


def test_from_rows_converts_entries_to_int():
    m = IntMatrix.from_rows([[True, False], [False, True]])
    assert m == IntMatrix.identity(2)
    assert all(type(x) is int for row in m.rows for x in row)


def test_is_unimodular_examples():
    assert is_unimodular(IntMatrix.identity(2))
    assert is_unimodular(IntMatrix.from_rows([[1, 1], [0, 1]]))
    assert not is_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))


def test_congruent_examples():
    m = IntMatrix.from_rows([[-1, 1], [0, -1]])
    a = IntMatrix.from_rows([[1, 1], [0, 1]])
    assert congruent(m, a).rows == ((-1, 0), (-1, -1))
    assert congruent(m, IntMatrix.identity(2)) == m
    assert congruent(IntMatrix(), IntMatrix()) == IntMatrix()


def test_congruent_errors():
    m = IntMatrix.from_rows([[-1, 1], [0, -1]])
    with pytest.raises(ValueError):
        congruent(m, IntMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        congruent(m, IntMatrix.identity(4))


def _unimodular_pair(rng, n, ops=8):
    """A product A of elementary row additions, and A^-1 from the same steps."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in a]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for l in range(n):
            a[i][l] += c * a[j][l]  # A <- E A, with E = I + c e_i e_j^T
            inv[l][j] -= c * inv[l][i]  # A^-1 <- A^-1 E^-1, with E^-1 = I - c e_i e_j^T
    return IntMatrix.from_rows(a), IntMatrix.from_rows(inv)


def test_congruence_inverts():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.choice((2, 4, 6))
        m = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        )
        a, inv = _unimodular_pair(rng, n)
        b = random_unimodular(rng, n)
        assert congruent(congruent(m, a), b) == congruent(m, b * a)
        assert inv * a == IntMatrix.identity(n)
        assert congruent(congruent(m, a), inv) == m


def test_standard_symplectic():
    assert standard_symplectic(0) == IntMatrix()
    assert standard_symplectic(1) == X1
    x2 = standard_symplectic(2)
    assert x2.rows == ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))
    with pytest.raises(ValueError):
        standard_symplectic(-1)


def test_skew_standardize_examples():
    a = skew_standardize(X1)
    assert congruent(X1, a) == X1
    s = IntMatrix.from_rows([[0, -1], [1, 0]])
    a = skew_standardize(s)
    assert a.rows == ((0, 1), (1, 0))
    assert congruent(s, a) == X1


def test_skew_standardize_random():
    rng = random.Random(4)
    for _ in range(120):
        g = rng.randint(0, 4)
        s = random_skew_unimodular(rng, g, ops=rng.randint(0, 12))
        a = skew_standardize(s)
        assert is_unimodular(a)
        assert (a * s * a.transpose()).rows == standard_symplectic(g).rows


def test_skew_standardize_deterministic():
    rng = random.Random(14)
    s = random_skew_unimodular(rng, 3)
    assert skew_standardize(s) == skew_standardize(s)


def test_skew_standardize_bytes_are_pinned():
    # The pivot rule fixes A; these bytes pin it on scrambled forms of genus 0-6.
    rng = random.Random(19)
    parts = []
    for genus in range(7):
        for _ in range(6):
            m = random_scrambled_seifert(rng, genus, 12)[2].matrix
            parts.append(format_matrix(skew_standardize(m - m.transpose())))
    assert hashlib.sha256("".join(parts).encode()).hexdigest() == (
        "9dc197e6e96de04d03f0f79762b7a2c4e1b38da9fde3bb52057f069577f28493"
    )


def test_skew_standardize_errors():
    with pytest.raises(ValueError):
        skew_standardize(IntMatrix.from_rows([[0, 1], [1, 0]]))  # not skew
    with pytest.raises(ValueError):
        skew_standardize(IntMatrix.from_rows([[0, 2], [-2, 0]]))  # det 4
    with pytest.raises(ValueError):
        skew_standardize(IntMatrix.from_rows([[0]]))  # odd size


def test_skew_standardize_rejects_determinant_other_than_1():
    # A pivot of 2 or 3 splits off a block of determinant 4 or 9; the zero
    # matrix leaves an all-zero block.  No determinant is taken.
    scramble = random_unimodular(random.Random(16), 4, 10)
    x_plus_3 = IntMatrix.from_rows(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]
    )
    for s in (
        IntMatrix.from_rows([[0, 2], [-2, 0]]),
        IntMatrix.from_rows([[0, 0], [0, 0]]),
        scramble * x_plus_3 * scramble.transpose(),
    ):
        with pytest.raises(ValueError) as info:
            skew_standardize(s)
        assert str(info.value) == "input must have determinant 1"


@st.composite
def skew_matrices(draw):
    n = 2 * draw(st.integers(0, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(-3, 3))
            rows[j][i] = -rows[i][j]
    return IntMatrix.from_rows(rows)


@settings(max_examples=300, deadline=None)
@given(skew_matrices())
def test_skew_standardize_decides_determinant_1(s):
    if det(s) == 1:
        a = skew_standardize(s)
        assert (a * s * a.transpose()).rows == standard_symplectic(s.size // 2).rows
    else:
        with pytest.raises(ValueError, match="^input must have determinant 1$"):
            skew_standardize(s)


def test_signature_examples():
    assert signature_and_det(IntMatrix.from_rows([[-2, 1], [1, -2]]))[0] == -2
    assert signature_and_det(IntMatrix.from_rows([[2, 1], [1, -2]]))[0] == 0
    assert signature_and_det(IntMatrix())[0] == 0
    assert signature_and_det(IntMatrix.from_rows([[0, 3], [3, 0]]))[0] == 0
    assert signature_and_det(IntMatrix.from_rows([[0, 0], [0, 0]]))[0] == 0
    with pytest.raises(ValueError):
        signature_and_det(IntMatrix.from_rows([[0, 1], [2, 0]]))


def test_signature_sylvester_invariance():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(0, 6)
        half = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        q = IntMatrix.from_rows(half) + IntMatrix.from_rows(half).transpose()
        a = random_unimodular(rng, n)
        assert signature_and_det(congruent(q, a))[0] == signature_and_det(q)[0]


def test_matrix_format_roundtrip():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(0, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-99, 99) for _ in range(n)] for _ in range(n)]
        )
        assert parse_matrix(format_matrix(m)) == m
    assert parse_matrix("0\n") == IntMatrix()
    assert format_matrix(IntMatrix()) == "0\n"


square_rows = st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(), min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(deadline=None)
@given(square_rows)
def test_matrix_format_roundtrip_property(rows):
    m = IntMatrix.from_rows(rows)
    assert parse_matrix(format_matrix(m)) == m


def test_parse_matrix_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2\n1 2\n")
    with pytest.raises(ValueError):
        parse_matrix("2\n1 2 3\n4 5 6\n")
    with pytest.raises(ValueError):
        parse_matrix("x\n")


def test_non_square_rejected():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def _unimodular(seed: int, n: int, flip: bool) -> IntMatrix:
    """A random unimodular matrix; determinant -1 when flip and n >= 1."""
    rows = [list(row) for row in random_unimodular(random.Random(seed), n, ops=3 * n).rows]
    if flip and n:
        rows[0] = [-x for x in rows[0]]
    return IntMatrix.from_rows(rows)


# Diagonal blocks of a symmetric form with a known signature: 1 x 1
# blocks [d] (sign d) and hyperbolic blocks [[0, b], [b, 0]] (signature 0
# for every b; singular when b = 0).
form_blocks = st.lists(
    st.one_of(
        st.tuples(st.integers(-6, 6)),
        st.tuples(st.just(0), st.integers(-4, 4)),
    ),
    max_size=7,
)


@settings(max_examples=80, deadline=None)
@given(form_blocks, st.integers(0, 2**32 - 1), st.booleans())
def test_signature_of_congruent_block_form(blocks, seed, flip):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    expected = i = 0
    for block in blocks:
        if len(block) == 1:
            rows[i][i] = block[0]
            expected += (block[0] > 0) - (block[0] < 0)
        else:
            rows[i][i + 1] = rows[i + 1][i] = block[1]
        i += len(block)
    a = _unimodular(seed, n, flip)
    assert signature_and_det(a * IntMatrix.from_rows(rows) * a.transpose())[0] == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_pencil_det_is_alexander_raw(seed, genus):
    _, _, sm = random_scrambled_seifert(random.Random(seed), genus)
    m = sm.matrix
    assert LaurentPoly.of(0, pencil_det(m, m.transpose())) == alexander_raw(sm)


@st.composite
def even_matrices(draw):
    n = 2 * draw(st.integers(0, 5))
    rows = st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n)
    return IntMatrix.from_rows(draw(rows))


@settings(max_examples=80, deadline=None)
@given(even_matrices())
def test_transpose_pencil_det_matches_reference(m):
    assert transpose_pencil_det(m) == pencil_det(m, m.transpose())


def test_transpose_pencil_det_matches_reference_on_closures():
    for word in knot_corpus(6, 40, 5, 40):
        m = seifert_matrix(word).matrix
        assert transpose_pencil_det(m) == pencil_det(m, m.transpose())


def test_transpose_pencil_det_rejects_odd_size():
    with pytest.raises(ValueError, match="even size, got 3"):
        transpose_pencil_det(IntMatrix.identity(3))


@settings(max_examples=60, deadline=None)
@given(even_matrices())
def test_pencil_det_off_the_nodes(m):
    # The nodes are t = -k / (k + 1), k = 0..g, so t = 1, -1 and n + 2 are
    # independent checks.
    p = transpose_pencil_det(m)
    assert len(p) == m.size + 1
    for t in (1, -1, m.size + 2):
        at_t = [[x - t * y for x, y in zip(r, c)] for r, c in zip(m.rows, zip(*m.rows))]
        assert sum(c * t**k for k, c in enumerate(p)) == det(IntMatrix.from_rows(at_t))


def _wrong_pencil(m):
    # 1 + t^n: never a valid Alexander polynomial, since p(1) = 2.
    return [1] + [0] * (m.size - 1) + [1]


def _run_invariants(path, capsys):
    code = main(["mat", "invariants", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wrong_pencil_makes_mat_invariants_exit_3(tmp_path, capsys, monkeypatch):
    # A widened trefoil is over the width budget, so the Alexander
    # polynomial reads the pencil body through seifert's binding.
    path = tmp_path / "trefoil.mat"
    path.write_text(format_matrix(widened(IntMatrix.from_rows([[-1, 1], [0, -1]]))))
    monkeypatch.setattr(seifert, "_transpose_pencil", lambda m, det_m: _wrong_pencil(m))
    code, out, err = _run_invariants(path, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("node", range(4))
def test_shifted_node_determinant_makes_mat_invariants_exit_3(tmp_path, capsys, monkeypatch, node):
    # One node value off by 1 moves D by the Lagrange basis polynomial of
    # that node, which is nonzero at mu = 1/4 (t = 1), so delta(1) != 1.
    # The widened matrix is nonsingular and over the width budget, so
    # node 0 is the det of the one kernel pass and nodes 1..3 are
    # intlin.det calls.
    _, _, sm = random_scrambled_seifert(random.Random(11), 3)
    path = tmp_path / "genus3.mat"
    path.write_text(format_matrix(widened(sm.matrix)))
    assert _run_invariants(path, capsys)[0] == 0
    kernel_calls, det_calls = [], []

    def shifted_kernel(m):
        kernel_calls.append(m.size)
        d, u = det_or_left_kernel(m)
        return d + (1 if node == 0 else 0), u

    def shifted(m):
        det_calls.append(m.size)
        return det(m) + (1 if len(det_calls) == node else 0)

    monkeypatch.setattr(seifert, "det_or_left_kernel", shifted_kernel)
    monkeypatch.setattr(intlin, "det", shifted)
    code, out, err = _run_invariants(path, capsys)
    assert kernel_calls == [6]
    assert det_calls == [6] * 3
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "fault, message",
    [
        # d_0 moves by 1, so delta(1) = sum_j d_j 2^(n - 2j) moves by 2^n.
        (lambda d: d + 1, "does not take value 1 at t=1"),
        # Far more than g + 1 digits can hold.
        (lambda d: d * 2**5000, "leaves a remainder"),
        (lambda d: 0, "Kronecker node determinant of a 6x6 matrix is 0"),
    ],
)
def test_kronecker_node_faults_make_mat_invariants_exit_3(tmp_path, capsys, monkeypatch, fault, message):
    # The scrambled genus-3 matrix is narrow and has no zero row, so its
    # Alexander polynomial is read off one intlin.det, and no kernel pass runs.
    _, _, sm = random_scrambled_seifert(random.Random(11), 3)
    path = tmp_path / "genus3.mat"
    path.write_text(format_matrix(sm.matrix))
    det_calls, kernel_calls = [], []

    def faulty(m):
        det_calls.append(m.size)
        return fault(det(m))

    monkeypatch.setattr(seifert, "det_or_left_kernel", lambda m: kernel_calls.append(m.size))
    monkeypatch.setattr(intlin, "det", faulty)
    code, out, err = _run_invariants(path, capsys)
    assert (det_calls, kernel_calls) == ([6], [])
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ")
    assert message in err
    assert len(err.splitlines()) == 1


@st.composite
def deficient_matrices(draw):
    # A product of n x r and r x n factors has rank at most r, so small r
    # gives singular matrices of every nullity; r = n gives mostly
    # nonsingular ones.
    n = draw(st.integers(0, 7))
    r = draw(st.integers(0, n))
    entry = st.integers(-3, 3)
    a = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    return IntMatrix.from_rows(
        [[sum(a[i][l] * b[l][j] for l in range(r)) for j in range(n)] for i in range(n)]
    )


@settings(max_examples=300, deadline=None)
@given(deficient_matrices())
def test_det_or_left_kernel(m):
    d, u = det_or_left_kernel(m)
    if det(m):
        assert (d, u) == (det(m), None)
    else:
        assert d == 0
        assert len(u) == m.size
        assert math.gcd(*u) == 1
        assert all(sum(u[i] * m.rows[i][j] for i in range(m.size)) == 0 for j in range(m.size))


def test_det_or_left_kernel_examples():
    assert det_or_left_kernel(IntMatrix()) == (1, None)
    assert det_or_left_kernel(X1) == (1, None)
    # Row 1 is zero, so u = e_1.
    assert det_or_left_kernel(IntMatrix.from_rows([[0, 0], [0, 5]])) == (0, (1, 0))
    # Row 2 is twice row 1: -2 * (2, 1) + (4, 2) = 0.
    assert det_or_left_kernel(IntMatrix.from_rows([[2, 1], [4, 2]])) == (0, (-2, 1))


@st.composite
def sparse_with_zero_rows(draw):
    # Mostly zero, unit entries elsewhere (the shape of closure Seifert
    # matrices), with up to three planted zero rows; symmetric forms get
    # the matching zero columns too.
    n = draw(st.integers(0, 8))
    symmetric = draw(st.booleans())
    entry = st.sampled_from((0, 0, 0, 1, -1))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if symmetric:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    zero = draw(st.sets(st.integers(0, n - 1), max_size=3)) if n else set()
    for q in zero:
        rows[q] = [0] * n
        if symmetric:
            for row in rows:
                row[q] = 0
    return IntMatrix.from_rows(rows)


@settings(max_examples=300, deadline=None)
@given(sparse_with_zero_rows())
def test_sparse_determinants_match_the_fraction_reference(m):
    expected = fraction_det(m)
    assert det(m) == expected
    d, u = det_or_left_kernel(m)
    assert d == expected
    if expected:
        assert u is None
    else:
        assert math.gcd(*u) == 1
        assert all(sum(u[i] * m.rows[i][j] for i in range(m.size)) == 0 for j in range(m.size))
    if not all(map(any, m.rows)):
        # The zero-row rule lives in seifert._reduce: it takes e_q for the
        # first zero row q without elimination, as the reference does, and
        # both reduce the same way or raise the same check.
        with mock.patch.object(intlin, "_bareiss", _no_elimination):
            assert _reduced_or_failed(seifert._reduce, m) == _reduced_or_failed(reference_reduce, m)
    if m.is_symmetric():
        assert signature_and_det(m) == fraction_signature_and_det(m)


def _no_elimination(a):
    raise AssertionError("_bareiss called")


def _reduced_or_failed(reduce, m):
    # The zero-row steps of the reduction, or the message of the check that stops them.
    try:
        return reduce(m, eliminate=False)
    except InternalCheckError as exc:
        return str(exc)


def test_zero_row_kernel_needs_no_elimination(monkeypatch):
    def forbidden(a, k, prev):
        raise AssertionError("_eliminate called")

    # The trefoil enlarged twice has zero rows 3 and 5; row 3 goes first.
    trefoil = validate(IntMatrix.from_rows([[-1, 1], [0, -1]]))
    enlarged = column_enlarge(column_enlarge(trefoil, (1, 0), 1), (0, 0, 0, 0), 0)
    monkeypatch.setattr(intlin, "_eliminate", forbidden)
    # Row 1 is twice row 0, but the first zero row, 2, decides q, and its
    # column is zero too.
    m = IntMatrix.from_rows([[1, 2, 0, 1], [2, 4, 0, 2], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(InternalCheckError, match="^column 3 does not reduce"):
        seifert._reduce(m)
    with pytest.raises(InternalCheckError, match="^column 1 does not reduce"):
        seifert._reduce(IntMatrix.from_rows([[0]]))
    assert seifert._reduce(enlarged.matrix, eliminate=False) == (
        trefoil.matrix,
        [ReduceMove(2, 3, "column")] * 2,
        None,
    )


def test_wrong_signature_makes_mat_invariants_exit_3(tmp_path, capsys, monkeypatch):
    path = tmp_path / "trefoil.mat"
    path.write_text("2\n-1 1\n0 -1\n")

    def shifted(q):
        sig, d = signature_and_det(q)
        return sig + 2, d

    monkeypatch.setattr(seifert, "signature_and_det", shifted)
    assert main(["mat", "invariants", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: signature cross-check failed")
    assert len(captured.err.splitlines()) == 1


# Random symmetric matrices that reach every branch of the pass: many
# zero diagonal entries (the b_i += b_j congruence), and a trailing block
# that is zero or singular (zero eigenvalues, det 0).
@st.composite
def symmetric_forms(draw):
    n = draw(st.integers(0, 8))
    zero_diagonal = draw(st.booleans())
    tail = draw(st.integers(0, n))
    entry = st.sampled_from((0, 0, 0, -3, -2, -1, 1, 2, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and zero_diagonal:
                continue
            if i >= n - tail and draw(st.booleans()):
                continue
            rows[i][j] = rows[j][i] = draw(entry)
    return IntMatrix.from_rows(rows)


@settings(max_examples=300, deadline=None)
@given(symmetric_forms())
def test_signature_and_det_match_descartes_reference(q):
    assert signature_and_det(q) == descartes_signature_and_det(q)
    assert signature_and_det(q)[1] == det(q)


def _imported(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module]
    return []


def test_no_fractions_import_in_package():
    package = Path(__file__).resolve().parents[1] / "src" / "sequiv"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if any(name.split(".")[0] == "fractions" for name in _imported(node))
    ]
    assert found == []
