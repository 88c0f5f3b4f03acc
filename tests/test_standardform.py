import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gens import (
    random_scrambled_seifert,
    random_standardized,
    random_symplectic,
    random_unimodular,
)
from sequiv.cli import main
from sequiv.intlin import (
    IntMatrix,
    congruent,
    det,
    format_matrix,
    is_unimodular,
    standard_symplectic,
)
from sequiv import intlin, seifert, standardform
from sequiv.purebraid import LinkingMatrix
from sequiv.seifert import alexander, validate
from sequiv.standardform import (
    DiskBandForm,
    format_disk_band,
    from_disk_band,
    is_standardized,
    parse_disk_band,
    standardization_witness,
    standardize,
    to_disk_band,
    to_string_link,
)
from sequiv.stringlink import pairwise_linking

TREFOIL = validate(IntMatrix.from_rows([[-1, 1], [0, -1]]))


def test_standardize_examples():
    a, n = standardize(TREFOIL)
    assert a == IntMatrix.identity(2)
    assert n.matrix == TREFOIL.matrix

    m = validate(IntMatrix.from_rows([[0, 0], [1, 0]]))
    a, n = standardize(m)
    assert a.rows == ((0, 1), (1, 0))
    assert n.matrix.rows == ((0, 1), (0, 0))

    a, n = standardize(validate(IntMatrix()))
    assert a == IntMatrix() and n.matrix == IntMatrix()


def test_standardize_random():
    rng = random.Random(41)
    for _ in range(100):
        sm, _, scrambled = random_scrambled_seifert(rng, rng.randint(0, 4))
        a, n = standardize(scrambled)
        assert is_unimodular(a)
        assert is_standardized(n)
        assert congruent(scrambled.matrix, a) == n.matrix
        assert alexander(n) == alexander(scrambled)


def _count_dets(monkeypatch) -> list:
    """Record the size of every determinant taken through intlin or seifert."""
    calls = []

    def counting(m):
        calls.append(m.size)
        return det(m)

    monkeypatch.setattr(intlin, "det", counting)
    monkeypatch.setattr(seifert, "det", counting)
    return calls


def test_mat_standardize_takes_one_determinant(tmp_path, capsys, monkeypatch):
    # Only the input's validate; is_standardized certifies N and A.
    calls = _count_dets(monkeypatch)
    rng = random.Random(48)
    for genus in range(5):
        sm = random_scrambled_seifert(rng, genus)[2]
        path = tmp_path / f"genus{genus}.mat"
        path.write_text(format_matrix(sm.matrix))
        calls.clear()
        assert main(["mat", "standardize", str(path)]) == 0
        assert calls == [sm.size]
    capsys.readouterr()


def test_std_witness_takes_one_determinant(tmp_path, capsys, monkeypatch):
    # Only the input's validate; is_standardized certifies N1, N2, A1 and A2.
    calls = _count_dets(monkeypatch)
    rng = random.Random(49)
    for genus in range(5):
        sm = random_scrambled_seifert(rng, genus)[2]
        path = tmp_path / f"genus{genus}.mat"
        path.write_text(format_matrix(sm.matrix))
        apath = tmp_path / f"genus{genus}.A"
        apath.write_text(format_matrix(standardize(sm)[0]))
        calls.clear()
        assert main(["std", "witness", str(path), str(apath), str(apath)]) == 0
        assert calls == [sm.size]
    capsys.readouterr()


def test_std_from_disk_band_takes_no_determinant(tmp_path, capsys, monkeypatch):
    # N - N^T = X holds by construction, so N is wrapped without validate.
    calls = _count_dets(monkeypatch)
    rng = random.Random(50)
    for genus in range(5):
        n = random_standardized(rng, genus)
        path = tmp_path / f"genus{genus}.dband"
        path.write_text(format_disk_band(to_disk_band(n)))
        calls.clear()
        assert main(["std", "from-disk-band", str(path)]) == 0
        assert calls == []
        assert capsys.readouterr().out == format_matrix(n.matrix)


def test_wrong_standardizing_transform_makes_mat_standardize_exit_3(tmp_path, capsys, monkeypatch):
    path = tmp_path / "trefoil.mat"
    path.write_text(format_matrix(TREFOIL.matrix))
    # Unimodular with det -1: A X A^T = -X, so it passes every determinant check.
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    monkeypatch.setattr(standardform, "skew_standardize", lambda s: swap)
    assert main(["mat", "standardize", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "trefoil.mat.A").exists()
    assert not (tmp_path / "trefoil.mat.N").exists()


def test_to_disk_band_examples():
    d = to_disk_band(validate(IntMatrix.from_rows([[0, 1], [0, 0]])))
    assert d.genus == 1 and d.framings == (0, 0) and d.linking == LinkingMatrix(2)

    d = to_disk_band(TREFOIL)
    assert d.framings == (-1, -1) and d.linking == LinkingMatrix(2)

    block = validate(
        IntMatrix.from_rows(
            [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]]
        )
    )
    d = to_disk_band(block)
    assert d.framings == (-1, -1, -1, -1)
    assert d.linking == LinkingMatrix(4)


def test_to_disk_band_requires_standard_form():
    with pytest.raises(ValueError):
        to_disk_band(validate(IntMatrix.from_rows([[0, 0], [1, 0]])))


def test_from_disk_band_examples():
    d = DiskBandForm(1, (0, 0), LinkingMatrix(2))
    assert from_disk_band(d).matrix.rows == ((0, 1), (0, 0))
    d = DiskBandForm(1, (-1, -1), LinkingMatrix(2))
    assert from_disk_band(d).matrix == TREFOIL.matrix


def test_disk_band_round_trip():
    rng = random.Random(42)
    for _ in range(100):
        n = random_standardized(rng, rng.randint(0, 4))
        assert from_disk_band(to_disk_band(n)).matrix == n.matrix
        d = to_disk_band(n)
        assert to_disk_band(from_disk_band(d)) == d


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_witness_transition_carries_a2_to_a1(seed, genus):
    # A1 and A2 standardize M in unrelated ways: A2 = standardize(A0 M A0^T) * A0.
    rng = random.Random(seed)
    _, _, sm = random_scrambled_seifert(rng, genus)
    a1, _ = standardize(sm)
    a0 = random_unimodular(rng, sm.size, 4)
    a2 = standardize(validate(congruent(sm.matrix, a0)))[0] * a0
    report = standardization_witness(sm, a1, a2)
    assert report.form_1 == to_disk_band(validate(congruent(sm.matrix, a1)))
    assert report.form_2 == to_disk_band(validate(congruent(sm.matrix, a2)))
    assert report.c * a2 == a1
    x = standard_symplectic(genus)
    assert (report.c * x * report.c.transpose()).rows == x.rows
    assert report.c_symplectic
    assert report.forms_match_after_transition


def test_witness_trivial():
    report = standardization_witness(
        TREFOIL, IntMatrix.identity(2), IntMatrix.identity(2)
    )
    assert report.c == IntMatrix.identity(2)
    assert report.forms_match_after_transition
    assert report.form_1 == report.form_2
    assert report.framings == (-1, -1)


def test_witness_random_symplectic():
    rng = random.Random(46)
    for _ in range(40):
        g = rng.randint(1, 3)
        sm = random_standardized(rng, g)
        a0, _ = standardize(sm)  # already standardized, so a0 is the identity
        s = random_symplectic(rng, g, rng.randint(1, 5))
        report = standardization_witness(sm, s * a0, a0)
        assert report.c_symplectic
        assert report.forms_match_after_transition
        n1 = congruent(sm.matrix, s * a0)
        assert report.framings == tuple(n1.rows[i][i] for i in range(2 * g))


SHEAR = IntMatrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
SINGULAR = IntMatrix.from_rows([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
WRONG_SIZE = IntMatrix.identity(2)
WITNESS_ERRORS = [
    # (bad transform, message, determinants taken with it as A1, as A2):
    # congruent's checks, A1 first, choose the message once a certificate fails.
    pytest.param(WRONG_SIZE, "size mismatch: matrix 4, transform 2", 0, 1, id="size"),
    pytest.param(SINGULAR, "congruence transform must be unimodular", 1, 2, id="singular"),
    # unimodular, but congruence by it does not keep N - N^T standard
    pytest.param(SHEAR, "both transforms must standardize the matrix", 2, 2, id="shear"),
]


@pytest.mark.parametrize("bad, message, dets_as_a1, dets_as_a2", WITNESS_ERRORS)
@pytest.mark.parametrize("side", [1, 2], ids=["a1", "a2"])
def test_witness_error_order(monkeypatch, bad, message, dets_as_a1, dets_as_a2, side):
    sm = random_standardized(random.Random(47), 2)
    identity = IntMatrix.identity(4)
    calls = _count_dets(monkeypatch)
    transforms = (bad, identity) if side == 1 else (identity, bad)
    with pytest.raises(ValueError) as info:
        standardization_witness(sm, *transforms)
    assert str(info.value) == message
    assert calls == [4] * (dets_as_a1 if side == 1 else dets_as_a2)


def test_witness_error_order_across_transforms():
    # A non-unimodular A1 wins over a wrong-sized A2, as in congruent(M, A1).
    sm = random_standardized(random.Random(47), 2)
    with pytest.raises(ValueError, match="^congruence transform must be unimodular$"):
        standardization_witness(sm, SINGULAR, WRONG_SIZE)
    with pytest.raises(ValueError, match="^size mismatch: matrix 4, transform 2$"):
        standardization_witness(sm, SHEAR, WRONG_SIZE)


def test_witness_fields_are_computed_from_the_transition(monkeypatch):
    # A unimodular stand-in for C that is neither A1 * A2^-1 nor symplectic.
    wrong = IntMatrix.from_rows([[1, 0], [0, -1]])
    monkeypatch.setattr(standardform, "_transition", lambda sm, a1, a2: wrong)
    identity = IntMatrix.identity(2)
    report = standardization_witness(TREFOIL, identity, identity)
    assert report.c == wrong
    assert not report.c_symplectic
    assert not report.forms_match_after_transition


def test_disk_band_rejects_negative_genus():
    with pytest.raises(ValueError, match="genus must be non-negative, got -1"):
        DiskBandForm(-1, (), LinkingMatrix(0))
    with pytest.raises(ValueError, match="genus must be non-negative, got -1"):
        parse_disk_band("g -1\nframings\n1 2 1\n")
    with pytest.raises(ValueError, match="genus must be non-negative"):
        parse_disk_band("g -1\nframings\n")


def test_disk_band_build_checks_framings_before_pairs():
    # Reading a document checks the framings count before any band pair.
    with pytest.raises(ValueError, match="expected 6 framings, got 1"):
        parse_disk_band("g 3\nframings 0\n2 1 1\n")
    with pytest.raises(ValueError, match="band-linking table must have 6 bands, got 4"):
        DiskBandForm(3, (0,) * 6, LinkingMatrix(4))


def test_to_string_link_carries_data():
    rng = random.Random(48)
    for _ in range(20):
        d = to_disk_band(random_standardized(rng, rng.randint(0, 3)))
        link = to_string_link(d)
        assert link.k == 1
        if d.genus:
            assert link.framings == d.framings
            assert pairwise_linking(link) == d.linking


def test_disk_band_format_roundtrip():
    rng = random.Random(49)
    for _ in range(30):
        d = to_disk_band(random_standardized(rng, rng.randint(0, 4)))
        assert parse_disk_band(format_disk_band(d)) == d
    with pytest.raises(ValueError):
        parse_disk_band("genus 1\nframings 0 0\n")


@st.composite
def disk_bands(draw):
    genus = draw(st.integers(0, 3))
    n = 2 * genus
    framings = draw(st.lists(st.integers(), min_size=n, max_size=n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    entries = draw(st.dictionaries(st.sampled_from(pairs), st.integers())) if pairs else {}
    linking = LinkingMatrix.summed(n, ((i, j, v) for (i, j), v in entries.items()))
    return DiskBandForm(genus, tuple(framings), linking)


@settings(deadline=None)
@given(disk_bands())
def test_disk_band_format_roundtrip_property(d):
    assert parse_disk_band(format_disk_band(d)) == d
