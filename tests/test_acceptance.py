"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact integer or polynomial arithmetic, so every tolerance
is exact equality; the invariance suite additionally has a 60 second
runtime ceiling.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time

from gens import (
    random_scrambled_seifert,
    random_skew_unimodular,
    random_standardized,
    random_symplectic,
    random_zero_linking_link,
)
from sequiv.braidclosure import burau_alexander, knot_corpus, seifert_matrix
from sequiv.cli import main
from sequiv.intlin import IntMatrix, congruent, is_unimodular, skew_standardize, standard_symplectic
from sequiv.purebraid import (
    PureBraidWord,
    delta_relator,
    insert_relator,
    linking_matrix,
)
from sequiv.seifert import (
    alexander,
    alexander_raw,
    arf,
    column_enlarge,
    is_alexander_trivial,
    knot_determinant,
    knot_signature,
    row_enlarge,
    try_reduce,
    validate,
)
from sequiv.standardform import from_disk_band, standardization_witness, standardize, to_disk_band
from sequiv.stringlink import normalize_linking, pairwise_linking, position_of

TREFOIL = validate(IntMatrix.from_rows([[-1, 1], [0, -1]]))


def _report(number: int, description: str, ok: bool) -> None:
    print(f"acceptance {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_invariance_suite():
    rng = random.Random(101)
    start = time.monotonic()
    ok = True
    for _ in range(500):
        sm, _, scrambled = random_scrambled_seifert(rng, rng.randint(0, 4))
        ok = ok and sm.size <= 8
        ok = ok and max((abs(x) for row in sm.matrix.rows for x in row), default=0) <= 3
        ok = ok and alexander(sm) == alexander(scrambled)
        ok = ok and knot_signature(sm) == knot_signature(scrambled)
        ok = ok and knot_determinant(sm) == knot_determinant(scrambled)
        ok = ok and arf(sm) == arf(scrambled)
        if not ok:
            break
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(1, f"500 random congruences leave all four invariants fixed ({elapsed:.1f}s)", ok)


def test_criterion_2_enlargement_suite():
    rng = random.Random(102)
    ok = True
    for trial in range(200):
        sm = random_standardized(rng, rng.randint(0, 3))
        xi = [rng.randint(-3, 3) for _ in range(sm.size)]
        x = rng.randint(-3, 3)
        enlarge = column_enlarge if trial % 2 == 0 else row_enlarge
        big = enlarge(sm, xi, x)
        ok = ok and alexander(big) == alexander(sm)
        ok = ok and knot_signature(big) == knot_signature(sm)
        ok = ok and knot_determinant(big) == knot_determinant(sm)
        ok = ok and arf(big) == arf(sm)
        ok = ok and alexander_raw(big) == alexander_raw(sm).shift(1)
        reduced = try_reduce(big)
        ok = ok and reduced is not None and reduced.matrix == sm.matrix
        if not ok:
            break
    _report(2, "200 enlargements preserve invariants, gain factor t, and reduce back", ok)


def test_criterion_3_skew_standardization():
    rng = random.Random(103)
    ok = True
    for _ in range(500):
        g = rng.randint(0, 4)
        s = random_skew_unimodular(rng, g, ops=rng.randint(0, 12))
        a = skew_standardize(s)
        ok = ok and is_unimodular(a)
        ok = ok and (a * s * a.transpose()).rows == standard_symplectic(g).rows
        if not ok:
            break
    _report(3, "500 random skew unimodular forms standardize exactly", ok)


def test_criterion_4_disk_band_round_trip():
    rng = random.Random(104)
    ok = True
    for _ in range(500):
        n = random_standardized(rng, rng.randint(0, 4))
        d = to_disk_band(n)
        ok = ok and from_disk_band(d).matrix == n.matrix
        ok = ok and to_disk_band(from_disk_band(d)) == d
        if not ok:
            break
    _report(4, "500 standardized matrices round-trip through disk-band form", ok)


def test_criterion_5_delta_move_suite():
    rng = random.Random(105)
    ok = True
    # linking homomorphism and relator-insertion invariance
    for _ in range(150):
        n = rng.randint(3, 6)
        w1 = _random_word(rng, n, rng.randint(0, 40))
        w2 = _random_word(rng, n, rng.randint(0, 40))
        ok = ok and linking_matrix(w1 * w2) == linking_matrix(w1) + linking_matrix(w2)
        ok = ok and linking_matrix(w1.inverse()) == -linking_matrix(w1)
        i = rng.randint(1, n - 2)
        j = rng.randint(i + 1, n - 1)
        k = rng.randint(j + 1, n)
        conj = _random_word(rng, n, rng.randint(0, 6))
        spliced = insert_relator(
            w1, rng.randint(0, len(w1.letters)), delta_relator(i, j, k, strands=n), conj
        )
        ok = ok and linking_matrix(spliced) == linking_matrix(w1)
        if not ok:
            break
    # normalization drives the whole braid linking matrix to zero
    count = 0
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        link = random_zero_linking_link(rng, n, k, 40)
        out = normalize_linking(link)
        lm = linking_matrix(out.braid)
        # condition on alternating sums is verified directly on the output
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                alt = sum(
                    (-1) ** (a + b)
                    * lm.entry(position_of((i, a), n, k), position_of((j, b), n, k))
                    for a in range(1, k + 1)
                    for b in range(1, k + 1)
                )
                ok = ok and alt == 0
        ok = ok and lm.is_zero()
        ok = ok and pairwise_linking(out).is_zero()
        count += 1
        if not ok:
            break
    ok = ok and count == 100
    _report(5, "linking homomorphism, relator invariance, 100 normalizations to zero", ok)


def _random_word(rng: random.Random, n: int, length: int) -> PureBraidWord:
    letters = []
    for _ in range(length):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        letters.append((i, j, rng.choice((1, -1))))
    return PureBraidWord(n, tuple(letters))


def test_criterion_6_standardization_witness():
    rng = random.Random(106)
    ok = True
    for _ in range(100):
        g = rng.randint(1, 3)
        sm = random_standardized(rng, g)
        a0, _ = standardize(sm)
        s = random_symplectic(rng, g, rng.randint(1, 6))
        a1 = s * a0
        report = standardization_witness(sm, a1, a0)
        ok = ok and report.c_symplectic
        ok = ok and report.forms_match_after_transition
        n1 = congruent(sm.matrix, a1)
        ok = ok and report.framings == tuple(n1.rows[i][i] for i in range(2 * g))
        if not ok:
            break
    _report(6, "100 symplectic witnesses verify with framings from the diagonal", ok)


def test_criterion_7_oracle_agreement():
    corpus = knot_corpus(4, 12, seed=107, count=1000)
    ok = len(corpus) >= 1000
    for w in corpus:
        if alexander(seifert_matrix(w)) != burau_alexander(w):
            ok = False
            break
    from sequiv.braidclosure import ArtinBraidWord

    tre = seifert_matrix(ArtinBraidWord(2, (1, 1, 1)))
    ok = ok and alexander(tre).evaluate(-1) == -3
    ok = ok and knot_signature(tre) == -2
    ok = ok and arf(tre) == 1
    f8 = seifert_matrix(ArtinBraidWord(3, (1, -2, 1, -2)))
    ok = ok and knot_determinant(f8) == 5
    ok = ok and knot_signature(f8) == 0
    _report(7, "1000-word corpus agrees with the Burau oracle; spot values hold", ok)


def test_criterion_8_trivial_polynomial_check(tmp_path, capsys):
    minimal = validate(IntMatrix.from_rows([[0, 1], [0, 0]]))
    ok = is_alexander_trivial(minimal)
    ok = ok and is_alexander_trivial(validate(IntMatrix()))
    ok = ok and not is_alexander_trivial(TREFOIL)

    p1 = tmp_path / "minimal.mat"
    p1.write_text("2\n0 1\n0 0\n")
    p2 = tmp_path / "empty.mat"
    p2.write_text("0\n")
    code = main(["mat", "sequiv", str(p1), str(p2)])
    out = capsys.readouterr().out
    ok = ok and code == 0
    ok = ok and "status=equivalent" in out
    ok = ok and "moves=1" in out
    ok = ok and "reduce" in out
    with capsys.disabled():
        _report(8, "trivial-polynomial checks and the one-step reduction witness", ok)
