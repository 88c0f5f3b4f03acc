"""Pinned values and error messages of the five text-format parsers.

Every parser reads through the shared reading rule in sequiv.textformat.
These tables fix what each input parses to and the exact one-line
ValueError each rejected input raises, including which of several faults
in one input is reported first.
"""

import ast
import inspect
import sys

import pytest

from sequiv.braidclosure import ArtinBraidWord, parse_artin_word
from sequiv.intlin import IntMatrix, parse_matrix
from sequiv.purebraid import LinkingMatrix, PureBraidWord, parse_braid
from sequiv.standardform import DiskBandForm, parse_disk_band
from sequiv.stringlink import DoubledStringLink, parse_string_link

PARSERS = {
    "matrix": parse_matrix,
    "artin": parse_artin_word,
    "braid": parse_braid,
    "link": parse_string_link,
    "band": parse_disk_band,
}


@pytest.mark.parametrize(
    "fmt, text, message",
    [
        ("matrix", "", "empty matrix file"),
        ("matrix", "\n  \n", "empty matrix file"),
        ("matrix", "x\n", "bad size line: 'x'"),
        ("matrix", "2 3\n", "bad size line: '2 3'"),
        ("matrix", " x \n", "bad size line: ' x '"),
        ("matrix", "-1\n", "matrix size must be non-negative"),
        ("matrix", "2\n1 0\n", "expected 2 rows, found 1"),
        ("matrix", "1\n1\n2\n", "expected 1 rows, found 2"),
        ("matrix", "2\n1 0 0\n0 x\n", "expected 2 entries per row, got 3"),
        ("matrix", "2\n1 0\n -1 x \n", "bad row line: ' -1 x '"),
        ("matrix", "2\n1\n0 1\n", "expected 2 entries per row, got 1"),
        ("matrix", "1\n1.5\n", "bad row line: '1.5'"),
        ("artin", "", 'braid file must start with a header line "n <strands>"'),
        ("artin", "m 2\n", 'braid file must start with a header line "n <strands>"'),
        ("artin", "n 2 3\n", 'braid file must start with a header line "n <strands>"'),
        ("artin", "n\n", 'braid file must start with a header line "n <strands>"'),
        ("artin", "n x\n1\n", "bad header line: 'n x'"),
        ("artin", "  n x  \n", "bad header line: 'n x'"),
        ("artin", "n 2\n1 1\n1 x\n", "bad letter line: '1 x'"),
        ("artin", "n 2\n 1 y \n", "bad letter line: '1 y'"),
        ("artin", "n 2\n3\n", "generator index 3 out of range 1..1"),
        ("braid", "", 'pure-braid file must start with a header line "n <strands>"'),
        ("braid", "k 3\n", 'pure-braid file must start with a header line "n <strands>"'),
        ("braid", "n\n", 'pure-braid file must start with a header line "n <strands>"'),
        ("braid", "n 3 4\n", 'pure-braid file must start with a header line "n <strands>"'),
        ("braid", "n 3.0\n", "bad header line: 'n 3.0'"),
        ("braid", "n 3\n1 2\n", "letter lines must be 'i j e', got '1 2'"),
        ("braid", "n 3\n1 x\n", "letter lines must be 'i j e', got '1 x'"),
        ("braid", "n 3\n1 2 1 x\n", "letter lines must be 'i j e', got '1 2 1 x'"),
        ("braid", "n 3\n1 2 z\n", "bad letter line: '1 2 z'"),
        ("braid", "n 3\n 1 3 x \n", "bad letter line: '1 3 x'"),
        ("link", "", "string-link file needs a header and a framings line"),
        ("link", "n 2 k 1\n", "string-link file needs a header and a framings line"),
        ("link", "n 2 k\nframings 0 0\n", 'header must be "n <n> k <k>", got \'n 2 k\''),
        ("link", "m 2 k 1\nframings 0 0\n", 'header must be "n <n> k <k>", got \'m 2 k 1\''),
        ("link", "n 2 j 1\nframings 0 0\n", 'header must be "n <n> k <k>", got \'n 2 j 1\''),
        ("link", "n 2 k 1 x\nframings 0 0\n", 'header must be "n <n> k <k>", got \'n 2 k 1 x\''),
        ("link", "n x k 2\nframings 0 0\n", "bad header line: 'n x k 2'"),
        ("link", "n 2 k y\nframings 0 0\n", "bad header line: 'n 2 k y'"),
        ("link", "n 0 k 1\nframings\n", "strand count n must be at least 1, got 0"),
        ("link", "n 1 k 0\nframings 0\n", "pass count k must be at least 1, got 0"),
        ("link", "n 2 k 0\nframings z\n", "pass count k must be at least 1, got 0"),
        ("link", "n 2 k 1\nframing 0 0\n", 'second line must start with "framings", got \'framing 0 0\''),
        ("link", "n 2 k 1\nframings 0 z\n", "bad framings line: 'framings 0 z'"),
        ("link", "n 2 k 1\nframings 0\n", "expected 2 framings, got 1"),
        ("link", "n 2 k 1\nframings 0 0\n1.1 2.1\n", "letter lines must be 'i.a j.b e', got '1.1 2.1'"),
        ("link", "n 2 k 1\nframings 0 0\n1.1 2 1\n", "bad double index '2'; expected 'i.a'"),
        ("link", "n 2 k 1\nframings 0 0\n1.x 2.1 1\n", "bad double index '1.x'; expected 'i.a'"),
        ("link", "n 2 k 1\nframings 0 0\n1.x 2.1 q\n", "bad double index '1.x'; expected 'i.a'"),
        ("link", "n 2 k 1\nframings 0 0\n1.1 2.1 q\n", "bad letter line: '1.1 2.1 q'"),
        ("link", "n 2 k 1\nframings 0 0\n1.1 3.1 q\n", "bad letter line: '1.1 3.1 q'"),
        ("link", "n 2 k 1\nframings 0 0\n1.1 3.1 1\n", "double index (3, 1) out of range for n=2, k=1"),
        ("link", "n 2 k 1\nframings 0 0\n1.1 1.1 1\n", "letter joins a strand to itself: '1.1 1.1 1'"),
        ("link", "n 2 k 1\nframings 0 0\n1.1.1 2.1 1\n", "bad double index '1.1.1'; expected 'i.a'"),
        # a bad line that repeats a token read on an earlier line reports the same fault
        ("link", "n 2 k 2\nframings 0 0\n1.1 2.1 1\n1.1 2.1 x\n", "bad letter line: '1.1 2.1 x'"),
        ("link", "n 2 k 2\nframings 0 0\n1.1 2.1 1\n1.1 2.1 1 1\n", "letter lines must be 'i.a j.b e', got '1.1 2.1 1 1'"),
        ("link", "n 2 k 2\nframings 0 0\n1.1 2.1 1\n1.1 3.1 1\n", "double index (3, 1) out of range for n=2, k=2"),
        ("link", "n 2 k 2\nframings 0 0\n1.1 2.1 1\n1.1 3.1 q\n", "bad letter line: '1.1 3.1 q'"),
        ("link", "n 2 k 2\nframings 0 0\n1.1 2.1 1\n2.x 1.1 q\n", "bad double index '2.x'; expected 'i.a'"),
        ("link", "n 2 k 2\nframings 0 0\n1.1 2.1 1\n2.1 +2.01 1\n", "letter joins a strand to itself: '2.1 +2.01 1'"),
        ("link", "n 2 k 2\nframings 0 0\n1.1 2.1 1\n2.1 2.1 -1\n", "letter joins a strand to itself: '2.1 2.1 -1'"),
        ("link", "n 2 k 2\nframings 0 0\n1.1 2.1 1\n1.3 2.1 1\n1.3 2.1 1\n", "double index (1, 3) out of range for n=2, k=2"),
        ("link", "n 2 k 2\nframings 0 0\n1.1 2.1 1\n1.1 2.1 2\n", "letter exponent must be +-1, got 2"),
        ("band", "", "disk-band file needs a genus line and a framings line"),
        ("band", "g 1\n", "disk-band file needs a genus line and a framings line"),
        ("band", "g 1 2\nframings 0 0\n", 'first line must be "g <g>", got \'g 1 2\''),
        ("band", "h 1\nframings 0 0\n", 'first line must be "g <g>", got \'h 1\''),
        ("band", "g x\nframings 0 0\n", "bad header line: 'g x'"),
        ("band", "g x\nframing\n", "bad header line: 'g x'"),
        ("band", "g 1\nframing -1 -1\n", 'second line must start with "framings", got \'framing -1 -1\''),
        ("band", "g 1\nframings 1 x\n", "bad framings line: 'framings 1 x'"),
        ("band", "g 1\nframings 1 0\n1 2\n", "band-linking lines must be 'i j lk', got '1 2'"),
        ("band", "g 1\nframings 1 0\n1 y\n", "band-linking lines must be 'i j lk', got '1 y'"),
        ("band", "g 1\nframings 1 0\n1 2 y\n", "bad band line: '1 2 y'"),
        ("band", "g -1\nframings\n", "genus must be non-negative, got -1"),
        ("band", "g 1\nframings 0\n", "expected 2 framings, got 1"),
        ("band", "g 1\nframings 0 0\n1 2 3\n2 1 5\n", "band pair (1, 2) given twice"),
        ("braid", "n 2\n1 3 1\n", "letter indices must satisfy 1 <= i < j <= 2, got (1, 3)"),
        ("band", "g 1\nframings 0 0\n1 3 2\n", "band pair must satisfy 1 <= i < j <= 2, got (1, 3)"),
        ("band", "g 1\nframings 0 0\n1 1 5\n", "band pair must satisfy 1 <= i < j <= 2, got (1, 1)"),
        # the framings count is checked before any band pair
        ("band", "g 3\nframings 0\n2 1 1\n", "expected 6 framings, got 1"),
    ],
)
def test_parser_error_messages_are_pinned(fmt, text, message):
    with pytest.raises(ValueError) as info:
        PARSERS[fmt](text)
    assert str(info.value) == message
    assert "\n" not in message


@pytest.mark.parametrize(
    "fmt, text, value",
    [
        ("matrix", "0\n", IntMatrix(())),
        ("matrix", "\n 2 \r\n\t+1  1_0\n\n0\t-0\n   \n", IntMatrix(((1, 10), (0, 0)))),
        ("matrix", "1\n\u0663\n", IntMatrix(((3,),))),  # an Arabic-Indic three
        ("matrix", "\x1f1\x1f\n5\n", IntMatrix(((5,),))),  # str.split() whitespace
        ("artin", "  n   3 \n\n1 -2\t+1\n\n 2\n", ArtinBraidWord(3, (1, -2, 1, 2))),
        ("artin", "n 2\n", ArtinBraidWord(2, ())),
        ("braid", "n 3\r\n 1\t2 +1 \n\n2 3 -1\n", PureBraidWord(3, ((1, 2, 1), (2, 3, -1)))),
        (
            "link",
            "\n n 2  k 2 \nframings  0\t-1\n1.1 2.1 1\n\n 1.2 2.2 -1 \n",
            DoubledStringLink(2, 2, PureBraidWord(4, ((1, 2, 1), (3, 4, -1))), (0, -1)),
        ),
        ("band", "g 1\nframings -1 +1\n\n 2  1 3 \n", DiskBandForm(1, (-1, 1), LinkingMatrix(2, ((1, 2, 3),)))),
    ],
)
def test_parser_values_are_pinned(fmt, text, value):
    assert PARSERS[fmt](text) == value


@pytest.mark.parametrize("fmt", sorted(PARSERS))
def test_parser_reads_integers_only_through_textformat(fmt):
    tree = ast.parse(inspect.getsource(PARSERS[fmt]))
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Try)
        assert not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "int")


LONG = "1" + "0" * 5000  # 5001 digits, past the interpreter's default limit of 4300


@pytest.fixture
def default_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "fmt, text",
    [
        ("matrix", f"2\n{LONG} 1\n0 {LONG}\n"),
        ("matrix", f"{LONG}\n"),
        ("artin", f"n {LONG}\n"),
        ("braid", f"n 2\n1 2 {LONG}\n"),
        ("link", f"n 1 k 1\nframings 0\n1.1 1.2 {LONG}\n"),
        ("band", f"g 1\nframings {LONG} 0\n"),
        ("link", f"n 2 k 2\nframings 0 0\n1.1 2.{LONG} 1\n"),
        ("link", f"n 2 k 1\nframings 0 0\n1.1 2.1 1\n1.1 2.1 {LONG}\n"),
        ("artin", f"n 2\n1 {LONG}\n"),
        ("braid", f"n {LONG}\n"),
        ("link", f"n {LONG} k 1\nframings 0\n"),
        ("band", f"g 1\nframings 0 0\n1 2 {LONG}\n"),
    ],
    ids=[
        "matrix-row",
        "matrix-size",
        "artin-header",
        "braid-letter",
        "link-letter",
        "band-framings",
        "link-double-index",
        "link-letter-known-tokens",
        "artin-letter",
        "braid-header",
        "link-header",
        "band-pair",
    ],
)
def test_integers_past_the_digit_limit_raise_the_interpreters_error(fmt, text, default_digit_limit):
    # A valid integer is not a bad line: the one-line error names the limit and how to lift it.
    with pytest.raises(ValueError) as info:
        PARSERS[fmt](text)
    message = str(info.value)
    assert "set_int_max_str_digits" in message
    assert "\n" not in message and "bad" not in message


@pytest.mark.parametrize(
    "token", [f"x.{LONG}", f"{LONG}.x", f"1.{LONG}.1"], ids=["letter-long", "long-letter", "three-parts"]
)
def test_long_integers_in_a_malformed_double_index_stay_a_bad_double_index(token, default_digit_limit):
    with pytest.raises(ValueError) as info:
        parse_string_link(f"n 2 k 1\nframings 0 0\n{token} 2.1 1\n")
    assert str(info.value) == f"bad double index {token!r}; expected 'i.a'"


@pytest.mark.parametrize(
    "token",
    ["x" + LONG, LONG + "x", "+-" + LONG, LONG + "_"],
    ids=["leading-letter", "trailing-letter", "two-signs", "trailing-underscore"],
)
def test_long_tokens_that_are_not_integers_stay_bad_lines(token, default_digit_limit):
    with pytest.raises(ValueError) as info:
        parse_matrix(f"1\n{token}\n")
    assert str(info.value) == f"bad row line: {token!r}"
