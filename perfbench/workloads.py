"""The four workloads: each mix is a list of CLI ops with their checks.

A mix is built from a random stream derived from the workload and the
seed, so the same seed always gives the same inputs.  The shape of a mix
(how many ops of each size class) is fixed, so every run measures the
same blend of op sizes whatever the seed.  A run repeats its mix, so
every op runs many times; run.py times an op by its fastest run.

An op's check gets the exit code and the captured stdout and raises
CheckError on a wrong answer.  References come from gen.py, never from
the package under test; the one exception is the witness replay, which
goes through sequiv.seifert.apply_moves because a witness is defined as
a move list that apply_moves carries from source to target.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import gen

WORKLOADS = ("invariants", "closures", "search", "normal_form")


class CheckError(Exception):
    """An op returned a wrong or malformed answer."""


def fail(msg: str):
    raise CheckError(msg)


@dataclass
class Op:
    label: str  # the op's size class; latencies are reported per class
    argv: list
    check: Callable[[int, str], None]
    before: Optional[Callable[[], None]] = None  # runs inside the timed op
    after: Optional[Callable[[str], None]] = None  # untimed, receives stdout


def machine_lines(out: str) -> dict:
    """The key=value block from the status= line to the end."""
    lines = out.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("status=")), None)
    if start is None:
        fail("no status= line")
    return dict(line.split("=", 1) for line in lines[start:])


def expect_code(code: int, allowed) -> None:
    if code not in allowed:
        fail(f"exit code {code}, expected one of {sorted(allowed)}")


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def mix_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --------------------------------------------------------------------------
# invariants: mat invariants on scrambled block sums of genus 1..9.  The
# median falls on the middle one of the three genus-6 ops and the tail on
# the genus-9 op.  Genus 10 to 12 are left out: an op there costs from a
# quarter to most of a second, and so few runs of it fit in a run of the
# benchmark that its fastest one still carries the host's drift.

INVARIANTS_GENERA = (1, 2, 3, 4, 5, 6, 6, 6, 7, 7, 8, 8, 9)
INVARIANTS_GENERA_QUICK = (1, 2, 3)


def invariants_mix(rng: random.Random, work: Path, quick: bool) -> list:
    ops = []
    for n, g in enumerate(INVARIANTS_GENERA_QUICK if quick else INVARIANTS_GENERA):
        blocks = [gen.random_block(rng) for _ in range(g)]
        path = write(work / f"m{n}.mat", gen.format_matrix(gen.scrambled(rng, blocks)))
        ops.append(Op(f"invariants g{g}", ["mat", "invariants", path],
                      _check_invariants(g, gen.block_invariants(blocks))))
    return ops


def _check_invariants(g, reference):
    (lo, coeffs), sig, det, arf = reference

    def check(code, out):
        expect_code(code, {0})
        m = machine_lines(out)
        want = {
            "status": "ok",
            "alexander_lo": str(lo),
            "alexander_coeffs": " ".join(map(str, coeffs)),
            "signature": str(sig),
            "determinant": str(det),
            "arf": str(arf),
            "genus": str(g),
            "valid": "true",
        }
        for key, value in want.items():
            if m.get(key) != value:
                fail(f"{key}={m.get(key)!r}, reference {value!r}")

    return check


# --------------------------------------------------------------------------
# closures: closure alexander (both Alexander paths of a knot closure)
# on words of three shapes, 3 strands and 8 letters, 4 and 16, and a long
# shape, 6 and 24 (Seifert matrices of size 6, 13 and 19), plus corpus
# generate batches.  The words are built here with a fixed strand count
# and length, because the cost of a word grows steeply with its size and
# corpus generate draws both at random: a batch of the CLI's default
# shape varies by +-20 % from seed to seed and one of --n 6 --maxlen 40 by
# far more.  The corpus batches draw 60 words from --n 3 --maxlen 8,
# whose words stay small, so a batch costs within +-5 % of the next.  The
# median falls in the middle of the 4-strand words and the tail on the
# corpus batches.

CLOSURE_SHAPES = ((3, 8),) * 4 + ((4, 16),) * 10 + ((6, 24),) * 4
CLOSURE_SHAPES_QUICK = ((4, 8), (6, 12))
CORPUS_BATCHES = (("3", "8", 60),) * 2
CORPUS_BATCHES_QUICK = (("3", "8", 3),)


def closures_mix(rng: random.Random, work: Path, quick: bool) -> list:
    ops = []
    for k, (n, length) in enumerate(CLOSURE_SHAPES_QUICK if quick else CLOSURE_SHAPES):
        path = write(work / f"w{k}.braid", gen.format_artin_word(n, gen.knot_closure_word(rng, n, length)))
        ops.append(Op(f"closure alexander n{n} length{length}", ["closure", "alexander", path],
                      _check_closure_alexander))
    for n, maxlen, count in CORPUS_BATCHES_QUICK if quick else CORPUS_BATCHES:
        corpus_seed = str(rng.randrange(10**9))
        argv = ["corpus", "generate", "--n", n, "--maxlen", maxlen,
                "--seed", corpus_seed, "--count", str(count)]
        ops.append(Op(f"corpus n{n} maxlen{maxlen} count{count}", argv, _check_corpus(count)))
    return ops


def _check_alexander(delta, what: str) -> None:
    lo, coeffs = delta
    if gen.poly_eval(delta, 1) != 1:
        fail(f"delta(1) != 1 for {what}")
    if lo != -(lo + len(coeffs) - 1) or coeffs != coeffs[::-1]:
        fail(f"delta not palindromic for {what}")


def _check_closure_alexander(code, out):
    expect_code(code, {0})
    lines = out.splitlines()
    m = machine_lines(out)
    if m != {"status": "ok", "agree": "true"}:
        fail(f"closure alexander reported {m}")
    if len(lines) < 2 or not lines[0].startswith("surface: ") or not lines[1].startswith("burau: "):
        fail("missing surface or burau line")
    surface, burau = lines[0][len("surface: "):], lines[1][len("burau: "):]
    if surface != burau:
        fail("agree=true but the two polynomials differ")
    _check_alexander(gen.parse_poly(surface), "the closure")


def _check_corpus(count: int):
    header = "word\tn\tlength\talexander\tsignature\tdeterminant\tarf\tagree"

    def check(code, out):
        expect_code(code, {0})
        lines = out.splitlines()
        if not lines or lines[0] != header:
            fail("missing corpus header")
        if len(lines) != count + 1:
            fail(f"{len(lines) - 1} rows, expected {count}")
        for row in lines[1:]:
            cols = row.split("\t")
            if len(cols) != 8:
                fail(f"malformed row {row!r}")
            if cols[7] != "true":
                fail(f"agree={cols[7]} for word {cols[0]!r}")
            delta = gen.parse_poly(cols[3])
            _check_alexander(delta, f"word {cols[0]!r}")
            at_minus_one = gen.poly_eval(delta, -1)
            if int(cols[5]) != abs(at_minus_one):
                fail(f"determinant {cols[5]} != |delta(-1)| for word {cols[0]!r}")
            if int(cols[6]) != (0 if at_minus_one % 8 in (1, 7) else 1):
                fail(f"arf {cols[6]} disagrees with delta(-1) for word {cols[0]!r}")

    return check


# --------------------------------------------------------------------------
# search: mat sequiv on pairs with a known relation.  Congruent pairs are
# walks within the default entry bound, so a witness exists at the walk's
# depth; distinct pairs differ in one genus-1 block, either in its
# Alexander polynomial or only in its signature (the same D = det with the
# opposite definite sign).  Enlarged -> small pairs are decided by a
# pattern match.  Small -> enlarged pairs are the cases the search leaves
# unknown today, but whether a random one is decided depends on its block,
# and one such search costs as much as the rest of the mix; so the mix
# holds the same two, the trefoil enlarged by column_enlarge(., [1, 0], 1)
# and by its row twin, for every seed, and the count of exhausted
# searches is the same on every seed.  At the default budget of 20000
# states an exhausted search costs half a second, which carries the
# host's drift like genus 12 does in invariants, so every search gets a
# budget of SEARCH_BUDGET states.  The genus-1 congruent pairs are enough
# to hold the median.  A genus-2 depth-3 walk is left out: its search
# costs from 40 to 200 ms depending on the draw.

SEARCH_CONGRUENT = ((1, 1), (1, 1), (1, 2), (1, 2), (1, 3), (1, 3), (2, 1), (2, 2))
SEARCH_DISTINCT = ((2, "alexander"), (4, "signature"), (6, "alexander"), (8, "signature"))
SEARCH_CONGRUENT_QUICK = ((1, 1), (2, 2))
SEARCH_DISTINCT_QUICK = ((2, "alexander"), (3, "signature"))
MAX_ENTRY = 8  # the CLI's default --max-entry
TREFOIL = ((-1, 0, -1),)  # block sum [[-1, 1], [0, -1]]
SEARCH_BUDGET = "4000"  # --max-nodes; the CLI's default is 20000


def search_mix(rng: random.Random, work: Path, quick: bool) -> list:
    ops = []
    files = itertools.count()

    def pair(label, m1, m2, check):
        p1 = write(work / f"s{next(files)}.mat", gen.format_matrix(m1))
        p2 = write(work / f"s{next(files)}.mat", gen.format_matrix(m2))
        ops.append(Op(label, ["mat", "sequiv", p1, p2, "--max-nodes", SEARCH_BUDGET], check))

    for g, depth in SEARCH_CONGRUENT_QUICK if quick else SEARCH_CONGRUENT:
        target = None
        while target is None:
            start = gen.block_sum([gen.random_block(rng) for _ in range(g)])
            target = gen.congruence_walk(rng, start, depth, MAX_ENTRY)
        pair(f"congruent g{g} depth{depth}", start, target, _check_related(start, target))

    trefoil = gen.block_sum(TREFOIL)
    for kind, enlarge in (("column", gen.column_enlarged), ("row", gen.row_enlarged)):
        big = enlarge(trefoil, [1, 0], 1)
        pair(f"{kind} trefoil small->enlarged", trefoil, big, _check_related(trefoil, big))
        pair(f"{kind} trefoil enlarged->small", big, trefoil, _check_related(big, trefoil))
        small = gen.block_sum([gen.random_block(rng)])
        vector = [0, 0]
        while not any(vector):
            vector = [rng.randint(-1, 1) for _ in range(2)]
        big = enlarge(small, vector, rng.randint(-1, 1))
        pair(f"{kind} enlarged->small", big, small, _check_related(big, small))

    for g, invariant in SEARCH_DISTINCT_QUICK if quick else SEARCH_DISTINCT:
        blocks = [gen.random_block(rng) for _ in range(g)]
        other = list(blocks)
        if invariant == "signature":
            blocks[0], other[0] = (1, 0, 1), (-1, 0, -1)
        else:
            d0 = blocks[0][0] * blocks[0][2] - blocks[0][1] * (blocks[0][1] + 1)
            other[0] = (d0 + 1, 0, 1)  # D = d0 + 1
        pair(f"distinct g{g} {invariant}", gen.scrambled(rng, blocks),
             gen.scrambled(rng, other), _check_distinct(invariant))
    return ops


_MOVE = re.compile(
    r"congruence E\[(\d+),(\d+);([+-]\d+)\]$|reduce (column|row) \((\d+),(\d+)\)$"
    r"|enlarge (column|row) x=(-?\d+)$"
)


def parse_move(text: str):
    from sequiv.seifert import CongruenceMove, EnlargeMove, ReduceMove

    hit = _MOVE.match(text)
    if hit is None:
        fail(f"unparsable move {text!r}")
    i, j, c, rkind, p, q, ekind, x = hit.groups()
    if i is not None:
        return CongruenceMove(int(i) - 1, int(j) - 1, int(c))
    if rkind is not None:
        return ReduceMove(int(p) - 1, int(q) - 1, rkind)
    return EnlargeMove(ekind, int(x))


def _check_related(source, target):
    """Constructed S-equivalent pair: never distinct; a witness must replay."""

    def check(code, out):
        from sequiv.intlin import IntMatrix
        from sequiv.seifert import apply_moves, validate

        expect_code(code, {0, 2})
        m = machine_lines(out)
        status = m.get("status")
        if status == "unknown":
            return
        if status != "equivalent":
            fail(f"constructed-equivalent pair came back {status!r}")
        moves = [parse_move(m.get(f"move_{k}", "")) for k in range(1, int(m["moves"]) + 1)]
        try:
            end = apply_moves(validate(IntMatrix.from_rows(source)), moves)
        except ValueError as exc:
            fail(f"witness does not replay: {exc}")
        if [list(row) for row in end.matrix.rows] != target:
            fail("witness replay does not reach the target")

    return check


def _check_distinct(invariant: str):
    def check(code, out):
        expect_code(code, {0})
        m = machine_lines(out)
        if m.get("status") != "distinct":
            fail(f"constructed-distinct pair came back {m.get('status')!r}")
        if m.get("invariant") != invariant:
            fail(f"distinguished by {m.get('invariant')!r}, constructed to differ in {invariant!r}")

    return check


# --------------------------------------------------------------------------
# normal_form: per genus, standardize, the disk-band round trip and a
# standardization witness; per genus also one string-link normalization,
# two string-link delta comparisons and a pure-braid delta comparison
# after a relator insertion.  The witness ops (n^2 integer determinants
# in unimodular_inverse) are the slow tail; the rest are small ops.  The
# genus stops at 6: a witness there costs about 25 ms, within +-10 % from
# seed to seed, while at genus 8 it costs 75 to 120 ms depending on the
# draw, and at genus 10 a third of a second, which carries the host's
# drift like genus 12 does in invariants.

NORMAL_FORM_GENERA = (2, 3, 4, 5, 6)
NORMAL_FORM_GENERA_QUICK = (1, 2)
STRING_LINK_SHAPES = ((3, 2, 30), (4, 2, 40), (4, 3, 60), (5, 2, 50), (5, 3, 80))
PURE_BRAID_SHAPES = ((4, 20), (6, 40), (8, 60), (10, 80), (12, 100))


def normal_form_mix(rng: random.Random, work: Path, quick: bool) -> list:
    ops = []
    genera = NORMAL_FORM_GENERA_QUICK if quick else NORMAL_FORM_GENERA
    for n, g in enumerate(genera):
        ops += _standard_form_ops(rng, work / f"g{n}", g)
        ops += _string_link_ops(rng, work / f"l{n}", *STRING_LINK_SHAPES[n])
        ops += _pure_braid_ops(rng, work / f"b{n}", *PURE_BRAID_SHAPES[n])
    return ops


def _standard_form_ops(rng, base: Path, g: int) -> list:
    blocks = [gen.random_block(rng) for _ in range(g)]
    m = gen.scrambled(rng, blocks)
    s = gen.random_symplectic(rng, g)
    m_path = write(Path(f"{base}.mat"), gen.format_matrix(m))
    a_path, n_path = m_path + ".A", m_path + ".N"  # where mat standardize writes them
    a2_path, db_path = Path(f"{base}.A2"), Path(f"{base}.db")
    x = gen.symplectic_form(g)

    def check_standardize(code, out):
        expect_code(code, {0})
        if machine_lines(out) != {"status": "ok", "a_file": a_path, "n_file": n_path}:
            fail("unexpected standardize report")
        a = gen.parse_matrix(Path(a_path).read_text())
        n = gen.parse_matrix(Path(n_path).read_text())
        if gen.congruence(a, m) != n:
            fail("A * M * A^T != N")
        if [[p - q for p, q in zip(r, c)] for r, c in zip(n, zip(*n))] != x:
            fail("N - N^T is not the standard symplectic form")

    def write_a2(out):
        a = gen.parse_matrix(Path(a_path).read_text())
        a2_path.write_text(gen.format_matrix(gen.mat_mul(s, a)))

    def check_to_disk_band(code, out):
        expect_code(code, {0})
        lines = out.splitlines()
        n = gen.parse_matrix(Path(n_path).read_text())
        if lines[:2] != [f"g {g}", "framings " + " ".join(str(n[i][i]) for i in range(2 * g))]:
            fail("disk-band header or framings disagree with N")

    def check_from_disk_band(code, out):
        expect_code(code, {0})
        if out != Path(n_path).read_text():
            fail("disk-band round trip is not byte-identical to N")

    def check_witness(code, out):
        expect_code(code, {0})
        m_lines = machine_lines(out)
        lines = out.splitlines()
        n = gen.parse_matrix(Path(n_path).read_text())
        framings = " ".join(str(n[i][i]) for i in range(2 * g))
        if "transition symplectic: true" not in lines or "forms match after transition: true" not in lines:
            fail("witness lines do not read true")
        if (m_lines.get("symplectic"), m_lines.get("forms_match"), m_lines.get("framings")) != (
            "true", "true", framings
        ):
            fail("witness machine lines disagree")

    return [
        Op(f"standardize g{g}", ["mat", "standardize", m_path], check_standardize, after=write_a2),
        Op(f"to-disk-band g{g}", ["std", "to-disk-band", n_path], check_to_disk_band,
           after=db_path.write_text),
        Op(f"from-disk-band g{g}", ["std", "from-disk-band", str(db_path)], check_from_disk_band),
        Op(f"witness g{g}", ["std", "witness", m_path, a_path, str(a2_path)], check_witness),
    ]


def _string_link_ops(rng, base: Path, n: int, k: int, length: int) -> list:
    framings = [rng.randint(-2, 2) for _ in range(n)]
    letters = gen.zero_linking_string_link(rng, n, k, length)
    same = gen.zero_linking_string_link(rng, n, k + 1, length // 2)
    shifted = list(framings)
    shifted[rng.randrange(n)] += rng.choice((1, -1))
    link = write(Path(f"{base}.sl"), gen.format_string_link(n, k, framings, letters))
    link_same = write(Path(f"{base}.same.sl"), gen.format_string_link(n, k + 1, framings, same))
    link_other = write(Path(f"{base}.other.sl"), gen.format_string_link(n, k, shifted, letters))

    def check_normalize(code, out):
        expect_code(code, {0})
        n2, k2, framings2, letters2 = gen.parse_string_link(out)
        if (n2, k2, list(framings2)) != (n, k, framings):
            fail("normalize changed the header or the framings")
        if gen.braid_linking(letters2):
            fail("normalized braid is not delta-trivial")
        if gen.string_link_linking(n, letters2):
            fail("normalize changed the string-link linking numbers")

    return [
        Op(f"slink normalize n{n} k{k}", ["slink", "normalize", link], check_normalize),
        Op(f"slink delta-equiv n{n}", ["slink", "delta-equiv", link, link_same],
           _check_delta("equivalent")),
        Op(f"slink delta-equiv n{n}", ["slink", "delta-equiv", link, link_other],
           _check_delta("distinct")),
    ]


def _pure_braid_ops(rng, base: Path, strands: int, length: int) -> list:
    letters = gen.random_pure_braid(rng, strands, length)
    i, j, k = sorted(rng.sample(range(1, strands + 1), 3))
    relator = [(i, j, 1), (j, k, 1), (i, j, -1), (j, k, -1)]
    conjugator = gen.random_pure_braid(rng, strands, 3)
    position = rng.randint(0, length)
    inverse = [(p, q, -e) for p, q, e in reversed(conjugator)]
    spliced = letters[:position] + conjugator + relator + inverse + letters[position:]
    word = write(Path(f"{base}.pb"), gen.format_pure_braid(strands, letters))
    moved = Path(f"{base}.moved.pb")

    def insert():
        from sequiv import purebraid

        def braid(ls):
            return purebraid.PureBraidWord(strands, tuple(ls))

        result = purebraid.insert_relator(braid(letters), position, braid(relator), braid(conjugator))
        if list(result.letters) != spliced:
            fail("insert_relator did not splice conjugator * relator * conjugator^-1")
        moved.write_text(gen.format_pure_braid(strands, result.letters))

    return [Op(f"braid delta-equiv n{strands}", ["braid", "delta-equiv", word, str(moved)],
               _check_delta("equivalent"), before=insert)]


def _check_delta(expected: str):
    def check(code, out):
        expect_code(code, {0})
        m = machine_lines(out)
        want = "true" if expected == "equivalent" else "false"
        if (m.get("status"), m.get("delta_equivalent")) != (expected, want):
            fail(f"delta comparison came back {m.get('status')!r}, constructed {expected!r}")

    return check


MIXES = {
    "invariants": invariants_mix,
    "closures": closures_mix,
    "search": search_mix,
    "normal_form": normal_form_mix,
}
