"""The reading rule shared by the five line-based text formats.

Seifert matrices, Artin braid words, pure braids, doubled string links
and disk-band forms are read alike: blank lines are skipped, the first
line is a header, and a token that is not an integer raises one
ValueError line quoting the line that holds it.  Every parser reads its
integers through integer, ints or dotted_pair, so that rule lives here
only.  A well-formed integer past the interpreter's int <-> str digit
limit is not a bad line: it raises the interpreter's own one-line
error, which names sys.set_int_max_str_digits.
"""

from __future__ import annotations

import re

# What int accepts in base 10; it rejects such a token only past the digit limit.
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")


def nonblank_lines(text: str, strip: bool = True) -> list[str]:
    """The non-blank lines of text, stripped unless strip is false."""
    if strip:
        return [line for line in map(str.strip, text.splitlines()) if line]
    return [line for line in text.splitlines() if line.strip()]


def integer(token: str, line: str, what: str) -> int:
    """The token, taken from line, as an integer.

    A token that is not an integer raises "bad <what> line: '<line>'";
    one that int only rejects for its length re-raises int's error.
    For a single token this is several times cheaper than ints, which
    matters once per string-link letter.
    """
    try:
        return int(token)
    except ValueError as exc:
        if _INTEGER.fullmatch(token):
            raise
        raise ValueError(f"bad {what} line: {line!r}") from exc


def ints(tokens: list[str], line: str, what: str) -> tuple[int, ...]:
    """The tokens, taken from line, as integers; a bad token raises as in integer."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        return tuple(integer(token, line, what) for token in tokens)


def dotted_pair(token: str, message: str) -> tuple[int, int]:
    """The integers i and a of a token "i.a".

    Any other token raises ValueError(message), with the repr of the
    token in place of a "{!r}" in message; a well-formed integer that
    int only rejects for its length re-raises int's error, as in integer.
    """
    fields = token.split(".")
    if len(fields) == 2:
        try:
            return int(fields[0]), int(fields[1])
        except ValueError:
            if all(map(_INTEGER.fullmatch, fields)):
                raise
    raise ValueError(message.format(token))


def read_header(lines: list[str], keys: str, message: str) -> tuple[int, ...]:
    """The values of a first line "<key> <int> <key> <int> ..." with the given keys.

    A missing first line or any other shape raises ValueError(message),
    with the repr of the first line in place of a "{!r}" in message; a
    value that is not an integer raises "bad header line".
    """
    head = lines[0].split() if lines else []
    if len(head) % 2 or head[::2] != keys.split():
        raise ValueError(message.format(*lines[:1]))
    return ints(head[1::2], lines[0], "header")


def read_framings(lines: list[str]) -> tuple[int, ...]:
    """The integers of a second line "framings f1 f2 ..."."""
    tokens = lines[1].split()
    if tokens[0] != "framings":
        raise ValueError(f'second line must start with "framings", got {lines[1]!r}')
    return ints(tokens[1:], lines[1], "framings")
