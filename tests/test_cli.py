import argparse
import ast
import doctest
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sequiv import braidclosure, cli, laurent, standardform
from sequiv.braidclosure import parse_artin_word
from sequiv.cli import main
from sequiv.intlin import IntMatrix, InternalCheckError, format_matrix, parse_matrix
from sequiv.laurent import parse_laurent
from sequiv.purebraid import is_delta_trivial, parse_braid
from sequiv.seifert import column_enlarge, validate
from sequiv.standardform import parse_disk_band
from sequiv.stringlink import parse_string_link

TREFOIL = "2\n-1 1\n0 -1\n"
FIG8 = "2\n1 1\n0 -1\n"
EMPTY = "0\n"
MINIMAL = "2\n0 1\n0 0\n"
SCRAMBLED = "2\n-3 -1\n-2 -1\n"  # a congruent copy of the trefoil


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _src_env() -> dict:
    """The environment of a subprocess that imports sequiv from this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _machine(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if "=" in line and ": " not in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def test_mat_invariants(tmp_path, capsys):
    path = _write(tmp_path, "trefoil.mat", TREFOIL)
    assert main(["mat", "invariants", path]) == 0
    out = capsys.readouterr().out
    assert "alexander: lo=-1; coeffs=1 -1 1" in out
    assert "signature: -2" in out
    assert "determinant: 3" in out
    assert "arf: 1" in out
    machine = _machine(out)
    assert machine["status"] == "ok"
    assert machine["alexander_lo"] == "-1"
    assert machine["genus"] == "1"


def test_mat_invariants_empty(tmp_path, capsys):
    path = _write(tmp_path, "empty.mat", EMPTY)
    assert main(["mat", "invariants", path]) == 0
    out = capsys.readouterr().out
    assert "alexander: lo=0; coeffs=1" in out
    assert _machine(out)["determinant"] == "1"


@pytest.mark.parametrize("zeros", [2200, 5000], ids=["long-output", "long-input"])
def test_mat_invariants_reads_and_prints_integers_of_any_length(tmp_path, capsys, zeros):
    # Python refuses int <-> str conversions past 4300 digits by default:
    # entries of 2201 digits give coefficients of 4401, and entries of 5001
    # digits are past the limit themselves.  main lifts it for the call only.
    e = "1" + "0" * zeros
    path = _write(tmp_path, "big.mat", f"2\n{e} 1\n0 {e}\n")
    limit = sys.get_int_max_str_digits()
    assert main(["mat", "invariants", path]) == 0
    assert sys.get_int_max_str_digits() == limit
    # det(V - t V^T) = e^2 - (2 e^2 - 1) t + e^2 t^2, and 2 e^2 - 1 is 1 then 2 * zeros nines.
    square = "1" + "0" * (2 * zeros)
    machine = _machine(capsys.readouterr().out)
    assert machine["alexander_lo"] == "-1"
    assert machine["alexander_coeffs"] == f"{square} -1{'9' * (2 * zeros)} {square}"


def test_mat_invariants_invalid_input(tmp_path, capsys):
    path = _write(tmp_path, "bad.mat", "2\n0 2\n0 0\n")
    assert main(["mat", "invariants", path]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_mat_sequiv_distinct(tmp_path, capsys):
    p1 = _write(tmp_path, "t.mat", TREFOIL)
    p2 = _write(tmp_path, "f.mat", FIG8)
    assert main(["mat", "sequiv", p1, p2]) == 0
    out = capsys.readouterr().out
    assert "distinct (alexander differs)" in out
    assert _machine(out)["status"] == "distinct"


def test_mat_sequiv_one_step_reduction(tmp_path, capsys):
    p1 = _write(tmp_path, "m.mat", MINIMAL)
    p2 = _write(tmp_path, "e.mat", EMPTY)
    assert main(["mat", "sequiv", p1, p2]) == 0
    out = capsys.readouterr().out
    machine = _machine(out)
    assert machine["status"] == "equivalent"
    assert machine["moves"] == "1"
    assert "reduce" in machine["move_1"]


def test_mat_sequiv_unknown_exit_code(tmp_path, capsys):
    p1 = _write(tmp_path, "a.mat", TREFOIL)
    p2 = _write(tmp_path, "b.mat", SCRAMBLED)
    assert main(["mat", "sequiv", p1, p2, "--max-nodes", "2"]) == 2
    out = capsys.readouterr().out
    assert _machine(out)["status"] == "unknown"


def test_mat_standardize_and_witness(tmp_path, capsys):
    path = _write(tmp_path, "m.mat", "2\n0 0\n1 0\n")
    assert main(["mat", "standardize", path]) == 0
    capsys.readouterr()
    n = parse_matrix((tmp_path / "m.mat.N").read_text())
    a = parse_matrix((tmp_path / "m.mat.A").read_text())
    assert n.rows == ((0, 1), (0, 0))
    assert a.rows == ((0, 1), (1, 0))

    apath = str(tmp_path / "m.mat.A")
    assert main(["std", "witness", path, apath, apath]) == 0
    out = capsys.readouterr().out
    machine = _machine(out)
    assert machine["symplectic"] == "true"
    assert machine["forms_match"] == "true"

    bad = _write(tmp_path, "bad.A", "2\n1 1\n0 1\n")  # shears the pairing
    assert main(["std", "witness", path, bad, apath]) == 1
    assert "error:" in capsys.readouterr().err


GENUS_2 = "4\n-1 1 0 0\n0 -1 0 0\n0 0 -1 1\n0 0 0 -1\n"


@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param("2\n1 0\n0 1\n", "size mismatch: matrix 4, transform 2", id="size"),
        pytest.param(
            "4\n2 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
            "congruence transform must be unimodular",
            id="singular",
        ),
        pytest.param(
            "4\n1 0 1 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
            "both transforms must standardize the matrix",
            id="shear",
        ),
    ],
)
@pytest.mark.parametrize("side", [1, 2], ids=["a1", "a2"])
def test_std_witness_error_order(tmp_path, capsys, bad, message, side):
    path = _write(tmp_path, "m.mat", GENUS_2)
    identity = _write(tmp_path, "i.A", format_matrix(IntMatrix.identity(4)))
    bad = _write(tmp_path, "bad.A", bad)
    transforms = [bad, identity] if side == 1 else [identity, bad]
    assert main(["std", "witness", path, *transforms]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_mat_enlarge_reduce_pipe(tmp_path, capsys):
    path = _write(tmp_path, "t.mat", TREFOIL)
    assert main(["mat", "enlarge", path, "--kind", "column", "--x", "2", "--vector", "1", "0"]) == 0
    enlarged = capsys.readouterr().out
    assert parse_matrix(enlarged).size == 4
    path2 = _write(tmp_path, "t4.mat", enlarged)
    assert main(["mat", "reduce", path2]) == 0
    reduced = capsys.readouterr().out
    assert parse_matrix(reduced).rows == ((-1, 1), (0, -1))
    assert main(["mat", "reduce", path]) == 0
    assert capsys.readouterr().out.strip() == "irreducible"

    assert main(["mat", "enlarge", path, "--kind", "row"]) == 0
    row_enlarged = capsys.readouterr().out
    assert parse_matrix(row_enlarged).rows[3] == (0, 0, 1, 0)
    assert main(["mat", "enlarge", path, "--vector", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_braid_commands(tmp_path, capsys):
    rel = "n 3\n1 2 1\n2 3 1\n1 2 -1\n2 3 -1\n"
    path = _write(tmp_path, "rel.braid", rel)
    assert main(["braid", "lk", path]) == 0
    assert _machine(capsys.readouterr().out)["zero"] == "true"
    assert main(["braid", "delta-trivial", path]) == 0
    assert _machine(capsys.readouterr().out)["delta_trivial"] == "true"

    single = _write(tmp_path, "gen.braid", "n 3\n1 2 1\n")
    assert main(["braid", "delta-equiv", path, single]) == 0
    assert _machine(capsys.readouterr().out)["status"] == "distinct"
    assert main(["braid", "delta-equiv", single, single]) == 0
    assert _machine(capsys.readouterr().out)["status"] == "equivalent"


HUGE_BRAID = "n 4611686018427387904\n1 2 1\n"  # 2^62 strands, one letter


@pytest.mark.parametrize(
    "command, stdout",
    [
        ("lk", "n 4611686018427387904\n1 2 1\nstatus=ok\nn=4611686018427387904\nzero=false\n"),
        ("delta-trivial", "delta-trivial: false\nstatus=ok\ndelta_trivial=false\n"),
        ("delta-equiv", "equivalent\nstatus=equivalent\ndelta_equivalent=true\n"),
    ],
    ids=["lk", "delta-trivial", "delta-equiv"],
)
def test_braid_commands_take_a_huge_strand_count(tmp_path, capsys, command, stdout):
    # The linking table holds only linked pairs, so its size follows the letters.
    path = _write(tmp_path, "huge.braid", HUGE_BRAID)
    files = [path, path] if command == "delta-equiv" else [path]
    assert main(["braid", command, *files]) == 0
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("command", ["seifert", "alexander"])
def test_closure_commands_reject_a_huge_strand_count_in_one_line(tmp_path, capsys, command):
    # The knot test walks only the positions the letters move, so a header
    # naming 2^62 strands costs its one letter, not a list of 2^62 slots.
    path = _write(tmp_path, "huge.braid", "n 4611686018427387904\n1\n")
    assert main(["closure", command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: closure has 4611686018427387903 components, not a knot\n"


def test_slink_commands(tmp_path, capsys):
    sl = "n 2 k 2\nframings 0 0\n1.1 2.1 1\n1.2 2.2 -1\n"
    path = _write(tmp_path, "sl.txt", sl)
    assert main(["slink", "lk", path]) == 0
    assert _machine(capsys.readouterr().out)["zero"] == "true"

    assert main(["slink", "normalize", path]) == 0
    normalized = capsys.readouterr().out
    link = parse_string_link(normalized)
    assert is_delta_trivial(link.braid)

    path2 = _write(tmp_path, "sl2.txt", normalized)
    assert main(["slink", "delta-equiv", path, path2]) == 0
    assert _machine(capsys.readouterr().out)["status"] == "equivalent"


def test_slink_normalize_rejects_nonzero_linking(tmp_path, capsys):
    path = _write(tmp_path, "sl.txt", "n 2 k 1\nframings 0 0\n1.1 2.1 1\n")
    assert main(["slink", "normalize", path]) == 1
    assert "lk(1,2)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 2 k 0\nframings 0 0\n", "pass count k must be at least 1, got 0"),
        ("n 2 k 0\nframings 0 0\n1.1 2.1 1\n", "pass count k must be at least 1, got 0"),
        ("n -1 k -2\nframings\n", "strand count n must be at least 1, got -1"),
        ("n x k 2\nframings 0 0\n", "bad header line: 'n x k 2'"),
    ],
)
def test_slink_lk_names_the_bad_header_count(tmp_path, capsys, text, message):
    path = _write(tmp_path, "sl.txt", text)
    assert main(["slink", "lk", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_std_disk_band_roundtrip(tmp_path, capsys):
    path = _write(tmp_path, "t.mat", TREFOIL)
    assert main(["std", "to-disk-band", path]) == 0
    document = capsys.readouterr().out
    d = parse_disk_band(document)
    assert d.framings == (-1, -1)
    path2 = _write(tmp_path, "t.dband", document)
    assert main(["std", "from-disk-band", path2]) == 0
    assert parse_matrix(capsys.readouterr().out).rows == ((-1, 1), (0, -1))


def _random_link_text(rng, n, k, zero_linking):
    """A seeded string-link document; its string-link linking vanishes if asked."""
    lines = [f"n {n} k {k}", "framings " + " ".join(str(rng.randint(-2, 2)) for _ in range(n))]
    lk = {}
    for _ in range(rng.randint(0, 12) if n * k >= 2 else 0):
        (i, a), (j, b) = rng.sample([(i, a) for i in range(1, n + 1) for a in range(1, k + 1)], 2)
        e = rng.choice((1, -1))
        lines.append(f"{i}.{a} {j}.{b} {e}")
        if i != j:
            key = (min(i, j), max(i, j))
            lk[key] = lk.get(key, 0) + (-1) ** (a + b) * e
    if zero_linking:
        # a first-pass letter moves the string-link linking number by its exponent
        for (i, j), v in sorted(lk.items()):
            lines += [f"{i}.1 {j}.1 {-1 if v > 0 else 1}"] * abs(v)
    return "\n".join(lines) + "\n"


def _random_disk_band_text(rng, genus):
    """A seeded disk-band document: pairs in either order, shuffled, zeros allowed."""
    n = 2 * genus
    body = [
        f"{i} {j} {rng.randint(-3, 3)}" if rng.random() < 0.5 else f"{j} {i} {rng.randint(-3, 3)}"
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < 0.6
    ]
    rng.shuffle(body)
    framings = " ".join(str(rng.randint(-3, 3)) for _ in range(n))
    return "\n".join([f"g {genus}", f"framings {framings}", *body]) + "\n"


def _linking_outputs(tmp_path, capsys, seed):
    """Concatenated stdout of the five linking-table commands over a seeded input set."""
    rng = random.Random(seed)
    out = []

    def run(*argv):
        assert main(list(argv)) == 0
        out.append(capsys.readouterr().out)
        return out[-1]

    for t in range(40):
        n = rng.randint(1, 9)
        letters = [f"n {n}"]
        for _ in range(rng.randint(0, 15) if n >= 2 else 0):
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            letters.append(f"{i} {j} {rng.choice((1, -1))}")
        run("braid", "lk", _write(tmp_path, f"{t}.braid", "\n".join(letters) + "\n"))
    for t in range(40):
        text = _random_link_text(rng, rng.randint(1, 4), rng.randint(1, 4), False)
        run("slink", "lk", _write(tmp_path, f"{t}.slink", text))
    for t in range(40):
        text = _random_link_text(rng, rng.randint(1, 4), rng.randint(1, 4), True)
        run("slink", "normalize", _write(tmp_path, f"{t}.zlink", text))
    for t in range(30):
        band = _write(tmp_path, f"{t}.dband", _random_disk_band_text(rng, rng.randint(0, 4)))
        matrix = run("std", "from-disk-band", band)
        run("std", "to-disk-band", _write(tmp_path, f"{t}.mat", matrix))
    return "".join(out)


def test_linking_outputs_are_pinned(tmp_path, capsys):
    # braid lk, slink lk, slink normalize, std from-disk-band and
    # std to-disk-band over 190 seeded inputs, byte for byte
    out = _linking_outputs(tmp_path, capsys, 20)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c87bba5f15a90dfddc30b7b84845ffcf45f1abc50fd4f20de0cfca4e19866f99"
    )


def test_closure_commands(tmp_path, capsys):
    path = _write(tmp_path, "tre.braid", "n 2\n1 1 1\n")
    assert main(["closure", "seifert", path]) == 0
    assert parse_matrix(capsys.readouterr().out).size == 2
    assert main(["closure", "alexander", path]) == 0
    out = capsys.readouterr().out
    assert "agree: true" in out
    assert _machine(out)["agree"] == "true"


def test_closure_rejects_non_knot(tmp_path, capsys):
    path = _write(tmp_path, "bad.braid", "n 2\n1 1\n")
    assert main(["closure", "seifert", path]) == 1
    assert "components" in capsys.readouterr().err


def test_corpus_deterministic(capsys):
    assert main(["corpus", "generate", "--count", "12", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["corpus", "generate", "--count", "12", "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0].startswith("word\t")
    assert len(lines) == 13
    assert all(line.endswith("true") for line in lines[1:])


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sequiv", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sequiv" in proc.stdout


def test_mat_standardize_unwritable_output(tmp_path, capsys):
    path = _write(tmp_path, "trefoil.mat", TREFOIL)
    missing = str(tmp_path / "no-such-dir" / "x")
    assert main(["mat", "standardize", path, "--out-a", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("n", ["1", "0"])
def test_corpus_generate_rejects_too_few_strands(capsys, n):
    assert main(["corpus", "generate", "--n", n]) == 1
    err = capsys.readouterr().err
    assert err == f"error: maximum strand count must be at least 2, got {n}\n"


def test_mat_invariants_rejects_trailing_rows(tmp_path, capsys):
    path = _write(tmp_path, "extra.mat", TREFOIL + "5 5\n")
    assert main(["mat", "invariants", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expected 2 rows, found 3")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_matrix, "2\n-1 1\n0 -1\n5 5\n"),
        (parse_matrix, "2 7\n-1 1\n0 -1\n"),
        (parse_braid, "nonsense 3\n"),
        (parse_braid, "n 2 7\n"),
        (parse_artin_word, "nonsense 3\n1 1 1\n"),
        (parse_artin_word, "n 2 7\n1 1 1\n"),
        (parse_laurent, "foo=3; bar=1 2"),
        (parse_laurent, "lo=1=2; coeffs=1"),
    ],
)
def test_parsers_reject_trailing_junk(parse, text):
    with pytest.raises(ValueError) as info:
        parse(text)
    assert len(str(info.value).splitlines()) == 1


PARSERS = (
    parse_matrix, parse_braid, parse_artin_word, parse_laurent, parse_disk_band, parse_string_link
)
# Text near the file formats reaches deeper into the parsers than st.text().
format_text = st.lists(
    st.sampled_from(list("0123456789 -+\n.;=gnk") + ["framings", "lo", "coeffs"]), max_size=40
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), format_text.map("".join)))
def test_parsers_raise_only_value_error(text):
    for parse in PARSERS:
        try:
            parse(text)
        except ValueError as exc:
            assert len(str(exc).splitlines()) == 1


def test_corpus_generate_unreachable_count(capsys):
    # Two strands and length at most 2 admit only the words "1" and "-1".
    assert main(["corpus", "generate", "--n", "2", "--maxlen", "2", "--count", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: corpus generation failed")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            "--n 4 --maxlen 10 --seed 11 --count 60",
            "6c3a39a4fd29077d2caf5d5a0e00435b179f43f3a1854634d1424c9ada4d7391",
        ),
        # Every one of the 18 knot-closure words on <= 3 strands and <= 3 letters.
        (
            "--n 3 --maxlen 3 --seed 2 --count 18",
            "97932803cfa5d207baa60c5630a047b27e9ad36b7323ffb6aca4143a5bb6ce33",
        ),
        (
            "--n 6 --maxlen 40 --seed 5 --count 12",
            "9d3b9ebe9638d8c180f69dfe99902875ff5217ceedb527a320eb4ac37ff3afb6",
        ),
    ],
)
def test_corpus_generate_bytes_are_stable(capsys, args, digest):
    assert main(["corpus", "generate", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_BROKEN_ALEXANDER = """
import sys
from sequiv import cli, seifert
from sequiv.laurent import LaurentPoly
assert sys.flags.optimize
seifert.alexander_raw = lambda sm: LaurentPoly.of(0, {coeffs})
sys.exit(cli.main(["mat", "invariants", sys.argv[1]]))
"""


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ((2,), "does not take value 1 at t=1"),
        ((1, 1, -1), "is not palindromic"),
        ((0, 1), "determinant cross-check failed"),
    ],
)
def test_internal_checks_survive_optimize(tmp_path, coeffs, message):
    path = _write(tmp_path, "trefoil.mat", TREFOIL)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_ALEXANDER.format(coeffs=coeffs), path],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: ")
    assert message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


_BROKEN_KERNEL = """
import sys
from sequiv import cli, seifert
assert sys.flags.optimize
seifert.det_or_left_kernel = {kernel}
sys.exit(cli.main(["mat", "invariants", sys.argv[1]]))
"""


@pytest.mark.parametrize(
    "kernel, message",
    [
        # e_1 is no kernel vector: row 1 of the enlarged trefoil is not zero.
        ("lambda m: (0, (1,) + (0,) * (m.size - 1))", "row 1 is not zero"),
        ("lambda m: (0, None)", "reduced matrix of size 4 is singular"),
    ],
)
def test_reduction_checks_survive_optimize(tmp_path, kernel, message):
    path = _write(tmp_path, "enlarged.mat", COLUMN_ENLARGED)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_KERNEL.format(kernel=kernel), path],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: ")
    assert message in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


_WRONG_STANDARDIZER = """
import sys
from sequiv import cli, standardform
from sequiv.intlin import IntMatrix
assert sys.flags.optimize
standardform.skew_standardize = lambda s: IntMatrix.from_rows([[0, 1], [1, 0]])
sys.exit(cli.main(["mat", "standardize", sys.argv[1]]))
"""


def test_standardize_postcondition_survives_optimize(tmp_path):
    # The swap has det -1, so A M A^T - (A M A^T)^T = -X: only the
    # is_standardized check on the output can catch it.
    path = _write(tmp_path, "trefoil.mat", TREFOIL)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_STANDARDIZER, path],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "trefoil.mat.A").exists()
    assert not (tmp_path / "trefoil.mat.N").exists()


def test_no_assert_statements_in_package():
    package = Path(__file__).resolve().parents[1] / "src" / "sequiv"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_sources_parse_as_python_3_10():
    root = Path(__file__).resolve().parents[1]
    for path in sorted([*root.glob("src/**/*.py"), *root.glob("tests/**/*.py")]):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_readme_example_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False)
    assert (failed, attempted) == (0, 6)


def test_inexact_burau_division_is_internal_error(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "tre.braid", "n 2\n1 1 1\n")
    # 1 is not divisible by 1 + t, the quotient for two strands.
    monkeypatch.setattr(braidclosure, "polynomial_matrix_det", lambda rows: (1,))
    assert main(["closure", "alexander", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert len(captured.err.splitlines()) == 1


def test_inexact_burau_determinant_step_is_internal_error(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "fig8.braid", "n 3\n1 -2 1 -2\n")
    # Every division step of the Z[t] determinant reports a remainder.
    monkeypatch.setattr(laurent, "divmod", lambda a, b: (a // b, 1), raising=False)
    assert main(["closure", "alexander", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["closure", "alexander", "tre.braid"],
        ["corpus", "generate", "--n", "2", "--maxlen", "5", "--count", "3"],
    ],
    ids=["closure-alexander", "corpus-generate"],
)
def test_burau_quotient_that_does_not_normalize_is_internal_error(
    tmp_path, capsys, monkeypatch, argv
):
    # (2 + 3t + t^2) / (1 + t) = 2 + t divides exactly, but its exponent
    # span is odd, so no unit normalizes it: a bug in the oracle, not
    # invalid input.
    _write(tmp_path, "tre.braid", "n 2\n1 1 1\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(braidclosure, "polynomial_matrix_det", lambda rows: (2, 3, 1))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert len(captured.err.splitlines()) == 1


def test_library_index_error_is_not_reported_as_invalid_input(tmp_path, capsys, monkeypatch):
    # No input raises IndexError, so one from the library is a bug and propagates.
    path = _write(tmp_path, "t.mat", TREFOIL)

    def out_of_range(sm):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "invariants", out_of_range)
    with pytest.raises(IndexError):
        main(["mat", "invariants", path])
    assert capsys.readouterr().err == ""


def test_std_witness_reports_a_wrong_transition(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "t.mat", TREFOIL)
    identity = _write(tmp_path, "i.A", "2\n1 0\n0 1\n")
    # Unimodular but not I * I^-1, and not symplectic (det -1).
    wrong = IntMatrix.from_rows([[1, 0], [0, -1]])
    monkeypatch.setattr(standardform, "_transition", lambda sm, a1, a2: wrong)
    assert main(["std", "witness", path, identity, identity]) == 0
    out = capsys.readouterr().out
    assert "transition symplectic: false" in out
    assert "forms match after transition: false" in out
    machine = _machine(out)
    assert (machine["symplectic"], machine["forms_match"]) == ("false", "false")


def test_std_from_disk_band_rejects_negative_genus(tmp_path, capsys):
    path = _write(tmp_path, "neg.dband", "g -1\nframings\n")
    assert main(["std", "from-disk-band", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "genus" in err and "-1" in err
    assert len(err.splitlines()) == 1


def test_std_from_disk_band_names_a_bad_header(tmp_path, capsys):
    path = _write(tmp_path, "bad.dband", "g x\nframings\n")
    assert main(["std", "from-disk-band", path]) == 1
    assert capsys.readouterr().err == "error: bad header line: 'g x'\n"


def _one_of_each_group(tmp_path) -> list[list[str]]:
    """A fixed list of commands that covers all six command groups."""
    trefoil = _write(tmp_path, "trefoil.mat", TREFOIL)
    scrambled = _write(tmp_path, "scrambled.mat", SCRAMBLED)
    bad = _write(tmp_path, "bad.mat", "2\n0 2\n0 0\n")
    braid = _write(tmp_path, "rel.pb", "n 3\n1 2 1\n2 3 1\n1 2 -1\n2 3 -1\n")
    link = _write(tmp_path, "link.sl", "n 2 k 2\nframings 0 0\n1.1 2.1 1\n1.2 2.2 -1\n")
    band = _write(tmp_path, "t.dband", "g 1\nframings -1 -1\n")
    word = _write(tmp_path, "tre.bw", "n 2\n1 1 1\n")
    return [
        ["mat", "invariants", trefoil],
        ["mat", "invariants", bad],
        ["mat", "enlarge", trefoil, "--kind", "row", "--x", "2", "--vector", "1", "0"],
        ["mat", "sequiv", trefoil, scrambled],
        ["mat", "sequiv", trefoil, scrambled, "--max-nodes", "2"],
        ["braid", "lk", braid],
        ["braid", "delta-equiv", braid, braid],
        ["slink", "normalize", link],
        ["std", "to-disk-band", trefoil],
        ["std", "from-disk-band", band],
        ["closure", "alexander", word],
        ["corpus", "generate", "--count", "3", "--seed", "11"],
    ]


def _run_in_process(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    build_parser = cli.build_parser
    built = []

    def counting_build_parser():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    commands = _one_of_each_group(tmp_path)
    for i in range(20):
        _run_in_process(capsys, commands[i % len(commands)])
    assert len(built) == 1


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()


def _parser_table(parser, path="", help=None, table=None):
    """{command path: (help, handler, positionals, options)} for parser and its subcommands.

    An option is (flags, default, type, choices, nargs, help); the table
    depends on neither the terminal width nor the Python version.
    """
    table = {} if table is None else table
    positionals, options, subcommands = [], [], None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            subcommands = action
        elif isinstance(action, argparse._HelpAction):
            continue
        elif action.option_strings:
            kind = getattr(action.type, "__name__", action.type)
            options.append(
                (tuple(action.option_strings), action.default, kind, action.choices, action.nargs,
                 action.help)
            )
        else:
            positionals.append(action.dest)
    handler = getattr(parser.get_default("func"), "__name__", None)
    table[path] = (help, handler, tuple(positionals), tuple(options))
    if subcommands is not None:
        helps = {action.dest: action.help for action in subcommands._choices_actions}
        for name, sub in subcommands.choices.items():
            _parser_table(sub, f"{path} {name}".strip(), helps[name], table)
    return table


PARSER_TABLE = {
    "": (None, None, (), ((("--version",), argparse.SUPPRESS, None, None, 0,
                          "show program's version number and exit"),)),
    "mat": ("Seifert matrix operations", None, (), ()),
    "mat invariants": ("Alexander, signature, determinant, Arf", "_cmd_mat_invariants", ("file",), ()),
    "mat standardize": (
        "write A and N with N = A M A^T standardized", "_cmd_mat_standardize", ("file",),
        ((("--out-a",), None, None, None, None, None), (("--out-n",), None, None, None, None, None)),
    ),
    "mat enlarge": (
        "apply a column or row enlargement", "_cmd_mat_enlarge", ("file",),
        (
            (("--kind",), "column", None, ("column", "row"), None, None),
            (("--x",), 0, "int", None, None, None),
            (("--vector",), None, "int", None, "*", "enlargement column/row entries"),
        ),
    ),
    "mat reduce": ("strip one enlargement if a pattern matches", "_cmd_mat_reduce", ("file",), ()),
    "mat sequiv": (
        "bounded search for an S-equivalence witness", "_cmd_mat_sequiv", ("file1", "file2"),
        (
            (("--max-size",), None, "int", None, None, None),
            (("--max-entry",), 8, "int", None, None, None),
            (("--max-nodes",), 20000, "int", None, None, None),
        ),
    ),
    "braid": ("pure braid words", None, (), ()),
    "braid lk": ("pairwise linking numbers", "_cmd_braid_lk", ("file",), ()),
    "braid delta-trivial": (
        "can the word be undone by delta moves", "_cmd_braid_delta_trivial", ("file",), ()
    ),
    "braid delta-equiv": (
        "same pairwise linking numbers", "_cmd_braid_delta_equiv", ("file1", "file2"), ()
    ),
    "slink": ("doubled string links", None, (), ()),
    "slink lk": ("string-link pairwise linking numbers", "_cmd_slink_lk", ("file",), ()),
    "slink normalize": (
        "zero out every braid-level linking number", "_cmd_slink_normalize", ("file",), ()
    ),
    "slink delta-equiv": (
        "same linking numbers and framings", "_cmd_slink_delta_equiv", ("file1", "file2"), ()
    ),
    "std": ("standard form and disk-band data", None, (), ()),
    "std to-disk-band": (
        "framings and band linking of a standardized matrix", "_cmd_std_to_disk_band", ("file",), ()
    ),
    "std from-disk-band": (
        "rebuild the standardized matrix", "_cmd_std_from_disk_band", ("file",), ()
    ),
    "std witness": (
        "check two standardizations of one matrix", "_cmd_std_witness", ("matrix", "a1", "a2"), ()
    ),
    "closure": ("braid closures", None, (), ()),
    "closure seifert": ("Seifert matrix of a knot closure", "_cmd_closure_seifert", ("file",), ()),
    "closure alexander": (
        "both polynomial paths and agreement flag", "_cmd_closure_alexander", ("file",), ()
    ),
    "corpus": ("derived example corpus", None, (), ()),
    "corpus generate": (
        "deterministic knot-closure corpus with invariants", "_cmd_corpus_generate", (),
        (
            (("--n",), 4, "int", None, None, "maximum strand count"),
            (("--maxlen",), 12, "int", None, None, "maximum word length"),
            (("--seed",), 7, "int", None, None, None),
            (("--count",), 100, "int", None, None, None),
        ),
    ),
}


def test_parser_structure_is_pinned():
    # Every group, subcommand, handler and option, with its help, default and type.
    table = _parser_table(cli.build_parser())
    assert list(table) == list(PARSER_TABLE)
    for path, row in PARSER_TABLE.items():
        assert table[path] == row, path


def test_cli_output_is_the_same_in_process_and_in_a_fresh_process(tmp_path, capsys):
    for argv in _one_of_each_group(tmp_path):
        first = _run_in_process(capsys, argv)
        second = _run_in_process(capsys, argv)
        proc = subprocess.run(
            [sys.executable, "-m", "sequiv", *argv], capture_output=True, text=True, env=_src_env()
        )
        assert first == second == (proc.returncode, proc.stdout, proc.stderr), argv


def test_no_option_value_leaks_into_the_next_call(tmp_path, capsys):
    path = _write(tmp_path, "t.mat", TREFOIL)
    assert main(["mat", "enlarge", path, "--vector", "1", "0", "--x", "2"]) == 0
    capsys.readouterr()
    assert main(["mat", "enlarge", path]) == 0
    zero_enlarged = column_enlarge(validate(parse_matrix(TREFOIL)), [0, 0], 0)
    assert capsys.readouterr().out == format_matrix(zero_enlarged.matrix)

    scrambled = _write(tmp_path, "s.mat", SCRAMBLED)
    assert main(["mat", "sequiv", path, scrambled]) == 0
    default = capsys.readouterr().out
    assert _machine(default)["status"] == "equivalent"
    assert main(["mat", "sequiv", path, scrambled, "--max-nodes", "2"]) == 2
    capsys.readouterr()
    assert main(["mat", "sequiv", path, scrambled]) == 0
    assert capsys.readouterr().out == default


def test_main_works_after_argparse_exits(tmp_path, capsys):
    path = _write(tmp_path, "t.mat", TREFOIL)
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert main(["mat", "enlarge", path, "--x", "zz"]) == 1
    capsys.readouterr()
    assert main(["mat", "invariants", path]) == 0
    assert _machine(capsys.readouterr().out)["signature"] == "-2"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["mat", "sequiv", "{t}", "{t}", "--max-nodes", "x"],
            "argument --max-nodes: invalid int value: 'x'",
        ),
        (["mat", "invariants"], "the following arguments are required: file"),
        (["mat", "enlarge", "{t}", "--vector", "1", "x"], "argument --vector: invalid int value: 'x'"),
        (
            ["mat", "enlarge", "{t}", "--kind", "diagonal"],
            "argument --kind: invalid choice: 'diagonal' (choose from 'column', 'row')",
        ),
        (["mat", "invariants", "{t}", "--extra"], "unrecognized arguments: --extra"),
        (["corpus"], "the following arguments are required: command"),
        ([], "the following arguments are required: group"),
        (
            ["mat", "invariants", "{t}.missing"],
            "cannot read {t}.missing: [Errno 2] No such file or directory: '{t}.missing'",
        ),
        (["mat", "invariants", "{d}"], "cannot read {d}: [Errno 21] Is a directory: '{d}'"),
    ],
)
def test_usage_errors_exit_1_with_one_line(tmp_path, capsys, argv, message):
    path = _write(tmp_path, "t.mat", TREFOIL)
    assert main([arg.format(t=path, d=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(t=path, d=tmp_path)}\n"


def test_usage_error_exits_1_with_one_line_in_a_fresh_process(tmp_path):
    path = _write(tmp_path, "t.mat", TREFOIL)
    proc = subprocess.run(
        [sys.executable, "-m", "sequiv", "mat", "sequiv", path, path, "--max-nodes", "x"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: argument --max-nodes: invalid int value: 'x'\n"


def test_enlarge_vector_is_read_as_integers(tmp_path, capsys):
    path = _write(tmp_path, "t.mat", TREFOIL)
    assert main(["mat", "enlarge", path, "--vector", "+1", "-2", "--x", "3"]) == 0
    enlarged = column_enlarge(validate(parse_matrix(TREFOIL)), [1, -2], 3)
    assert capsys.readouterr().out == format_matrix(enlarged.matrix)


@pytest.mark.parametrize("kind", ["column", "row"])
def test_enlarge_with_an_empty_vector_exits_1(tmp_path, capsys, kind):
    # --vector with no values is a vector of length 0, not the zero vector.
    path = _write(tmp_path, "t.mat", TREFOIL)
    assert main(["mat", "enlarge", path, "--kind", kind, "--vector"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {kind} must have length 2, got 0\n"


@pytest.mark.parametrize("kind", ["column", "row"])
def test_enlarge_of_the_empty_matrix_takes_an_empty_vector(tmp_path, capsys, kind):
    path = _write(tmp_path, "e.mat", EMPTY)
    assert main(["mat", "enlarge", path, "--kind", kind, "--vector", "--x", "1"]) == 0
    with_vector = capsys.readouterr().out
    assert main(["mat", "enlarge", path, "--kind", kind, "--x", "1"]) == 0
    assert capsys.readouterr().out == with_vector
    assert parse_matrix(with_vector).size == 2


def test_main_reads_sys_argv_without_arguments(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "t.mat", TREFOIL)
    monkeypatch.setattr(sys, "argv", ["sequiv", "mat", "invariants", path])
    assert main() == 0
    assert _machine(capsys.readouterr().out)["determinant"] == "3"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-nodes", "-3"], "max_nodes must be at least 1, got -3"),
        (["--max-entry", "-1"], "max_entry must be non-negative, got -1"),
        (["--max-size", "-1"], "max_size must be non-negative, got -1"),
    ],
)
def test_mat_sequiv_rejects_impossible_budgets(tmp_path, capsys, flags, message):
    trefoil = _write(tmp_path, "t.mat", TREFOIL)
    enlarged = column_enlarge(validate(parse_matrix(TREFOIL)), [1, 0], 1)
    target = _write(tmp_path, "e.mat", format_matrix(enlarged.matrix))
    assert main(["mat", "sequiv", trefoil, target, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--count", "-1"], "word count must be non-negative, got -1"),
        (["--maxlen", "0"], "maximum word length must be at least 1, got 0"),
        (["--maxlen", "-4"], "maximum word length must be at least 1, got -4"),
    ],
)
def test_corpus_generate_rejects_impossible_limits(capsys, flags, message):
    assert main(["corpus", "generate", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_corpus_generate_zero_count_prints_the_header(capsys):
    assert main(["corpus", "generate", "--count", "0"]) == 0
    assert capsys.readouterr().out == "word\tn\tlength\talexander\tsignature\tdeterminant\tarf\tagree\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("mat invariants", "2\n-1 x\n0 -1\n", "bad row line: '-1 x'"),
        ("closure alexander", "n 2\n1 1\n1 x\n", "bad letter line: '1 x'"),
        ("braid lk", "n 3\n1 2 1\n1 3 x\n", "bad letter line: '1 3 x'"),
        ("slink lk", "n 2 k 1\nframings 0 z\n", "bad framings line: 'framings 0 z'"),
        ("slink lk", "n 2 k 1\nframings 0 0\n1.1 2.1 q\n", "bad letter line: '1.1 2.1 q'"),
        ("std from-disk-band", "g 1\nframings 1 x\n", "bad framings line: 'framings 1 x'"),
        ("std from-disk-band", "g 1\nframings 1 0\n1 2 y\n", "bad band line: '1 2 y'"),
        ("std from-disk-band", "g 1\nframings 0 0\n1 2 3\n2 1 5\n", "band pair (1, 2) given twice"),
    ],
)
def test_parsers_name_the_bad_body_line(tmp_path, capsys, command, text, message):
    path = _write(tmp_path, "bad.txt", text)
    assert main([*command.split(), path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


GENUS2 = "4\n-1 1 0 0\n0 -1 0 0\n0 0 1 1\n0 0 0 -1\n"
GENUS2_CONGRUENT = "4\n0 1 2 0\n0 -1 -1 1\n1 -1 0 2\n0 1 1 -2\n"  # three congruences away
COLUMN_ENLARGED = "4\n-1 1 1 0\n0 -1 0 0\n0 0 1 1\n0 0 0 0\n"  # column_enlarge(trefoil, [1, 0], 1)
ROW_ENLARGED = "4\n-1 1 0 0\n0 -1 0 0\n1 0 1 0\n0 0 1 0\n"  # row_enlarge(trefoil, [1, 0], 1)


@pytest.mark.parametrize(
    "start, target, flags, code, digest",
    [
        (TREFOIL, SCRAMBLED, [], 0,
         "5e94d4ab215ef2da028cccf5de82a330afd9fed77ff1dac197b2213bcbd52045"),
        (TREFOIL, COLUMN_ENLARGED, ["--max-nodes", "4000"], 2,
         "207ef4eaba93fa7ce8cdfe105e4ce0a4d9fa0dc6f8b63f84c5e68118d6f12c29"),
        (TREFOIL, ROW_ENLARGED, ["--max-nodes", "4000"], 2,
         "207ef4eaba93fa7ce8cdfe105e4ce0a4d9fa0dc6f8b63f84c5e68118d6f12c29"),
        # budget exhausted after 20000 states
        (TREFOIL, COLUMN_ENLARGED, [], 2,
         "3f231e8612ce82ccc301018616f3098ce6b90144f2e1d90333c33195fefd4f62"),
        (GENUS2, GENUS2_CONGRUENT, [], 0,
         "818703168b8d8a800631905248408dd1021e50947948a784cdf0831a382f2c4a"),
        # The start's entry -3 lies above the limit.
        (SCRAMBLED, TREFOIL, ["--max-entry", "2"], 0,
         "d2fbdd2554362c792726e2a003706c17055974bd6375dcf6644f7d949bd56419"),
        # Decided in 5 moves, the first `enlarge column x=0` (`enlarge row x=0`).
        (TREFOIL, COLUMN_ENLARGED, ["--max-size", "4", "--max-nodes", "100000"], 0,
         "9f3e08dc012f6424c1a1f9ad9b3fb2373273ea750bdf40dd5327c9a7a85dbee0"),
        (TREFOIL, ROW_ENLARGED, ["--max-size", "4", "--max-nodes", "100000"], 0,
         "27bbde24a0c90021c2df6a70f7c789eaf01ee67a17fb9831b8d137deef14fb7d"),
    ],
)
def test_mat_sequiv_output_is_pinned(tmp_path, capsys, start, target, flags, code, digest):
    p1 = _write(tmp_path, "a.mat", start)
    p2 = _write(tmp_path, "b.mat", target)
    assert main(["mat", "sequiv", p1, p2, *flags]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _one_of_each_command(tmp_path) -> list[list[str]]:
    """A valid command line for each of the 17 subcommands, mat reduce both ways."""
    trefoil = _write(tmp_path, "trefoil.mat", TREFOIL)
    scrambled = _write(tmp_path, "scrambled.mat", SCRAMBLED)
    enlarged = _write(tmp_path, "enlarged.mat", MINIMAL)
    identity = _write(tmp_path, "i.A", "2\n1 0\n0 1\n")
    braid = _write(tmp_path, "rel.pb", "n 3\n1 2 1\n2 3 1\n1 2 -1\n2 3 -1\n")
    link = _write(tmp_path, "link.sl", "n 2 k 2\nframings 0 0\n1.1 2.1 1\n1.2 2.2 -1\n")
    band = _write(tmp_path, "t.dband", "g 1\nframings -1 -1\n")
    word = _write(tmp_path, "tre.bw", "n 2\n1 1 1\n")
    return [
        ["mat", "invariants", trefoil],
        ["mat", "standardize", trefoil],
        ["mat", "enlarge", trefoil, "--vector", "1", "0"],
        ["mat", "reduce", enlarged],
        ["mat", "reduce", trefoil],
        ["mat", "sequiv", trefoil, scrambled],
        ["braid", "lk", braid],
        ["braid", "delta-trivial", braid],
        ["braid", "delta-equiv", braid, braid],
        ["slink", "lk", link],
        ["slink", "normalize", link],
        ["slink", "delta-equiv", link, link],
        ["std", "to-disk-band", trefoil],
        ["std", "from-disk-band", band],
        ["std", "witness", trefoil, identity, identity],
        ["closure", "seifert", word],
        ["closure", "alexander", word],
        ["corpus", "generate", "--count", "3"],
    ]


def test_handlers_return_their_output_and_main_alone_writes_it(tmp_path, capsys):
    # A decision handler returns a Verdict and a document handler its text;
    # neither writes stdout, and main prints exactly what was returned.
    parser = cli.build_parser()
    commands = _one_of_each_command(tmp_path)
    handlers = {row[1] for row in _parser_table(parser).values() if row[1]}
    assert {parser.parse_args(argv).func.__name__ for argv in commands} == handlers
    for argv in commands:
        args = parser.parse_args(argv)
        outcome = args.func(args)
        assert capsys.readouterr().out == "", argv
        assert isinstance(outcome, (str, cli.Verdict)), argv
        code, out, err = _run_in_process(capsys, argv)
        assert (code, err) == (0, ""), argv
        if isinstance(outcome, str):
            assert out == outcome and outcome.endswith("\n"), argv
        else:
            outcome.emit()
            assert capsys.readouterr().out == out, argv


def test_corpus_generate_prints_no_partial_rows_on_an_internal_error(capsys, monkeypatch):
    burau = cli.burau_alexander
    calls = []

    def fail_on_the_third_word(w):
        calls.append(w)
        if len(calls) == 3:
            raise InternalCheckError("injected")
        return burau(w)

    monkeypatch.setattr(cli, "burau_alexander", fail_on_the_third_word)
    assert _run_in_process(capsys, ["corpus", "generate", "--count", "5"]) == (
        3, "", "internal error: injected\n"
    )
    assert len(calls) == 3
