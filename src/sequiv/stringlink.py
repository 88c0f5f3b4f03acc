"""Framed doubled string links presented as pure braids.

An n-strand string link drawn with k back-and-forth passes is encoded by
a pure braid on k*n strands plus one framing integer per strand.  Braid
strands carry a double index (i, a): the a-th pass of string-link strand
i.  Passes snake boustrophedon-style: odd passes run left to right,
even passes right to left, so pass orientation agrees with the
string-link orientation exactly when a is odd.

The string-link linking number of strands i and j is the alternating sum
over passes of the braid linking numbers; stabilizing multiplications
slide linking between consecutive passes without changing the underlying
string link, and normalize_linking uses them to push every braid-level
linking number to zero whenever the string-link linking numbers vanish.

Both tables are purebraid.LinkingMatrix, the braid-level one on k*n
strands and the string-link one on n, so each costs O(letters).  The
fold in normalize_linking visits only the strand pairs and the single
strands that a nonzero braid-level entry joins: clearing one pair adds
letters only between passes of its two strands.  Within a pair it
visits only the passes of the first strand that carry an entry, and the
passes of the second up to the highest one an entry reaches, so its
cost grows with the passes the entries reach, not with k^2.

The letter pipeline reads and labels each double index once.
parse_string_link reads each distinct "i.a" token once per file and
keeps its braid position: a line whose two tokens are both known reads
only its exponent, and a line with a new token runs every check in the
order that decides which fault a bad line reports.  format_string_link
and pairwise_linking label each braid position a letter uses once per
call.  Each keeps a dict sized by the distinct tokens or positions, so
time and memory stay O(letters) whatever n*k the header names.
"""

from __future__ import annotations

from dataclasses import dataclass
from . import InternalCheckError
from .purebraid import Letter, LinkingMatrix, PureBraidWord, linking_matrix
from .textformat import dotted_pair, integer, nonblank_lines, read_framings, read_header

__all__ = [
    "DoubleIndex",
    "DoubledStringLink",
    "position_of",
    "strand_label",
    "pairwise_linking",
    "stabilizing_multiply",
    "normalize_linking",
    "delta_equivalent_links",
    "parse_string_link",
    "format_string_link",
]

DoubleIndex = tuple[int, int]


def position_of(idx: DoubleIndex, n: int, k: int) -> int:
    """Braid strand position of the double index (i, a), boustrophedon order."""
    i, a = idx
    if not (1 <= i <= n and 1 <= a <= k):
        raise ValueError(f"double index ({i}, {a}) out of range for n={n}, k={k}")
    if a % 2:
        return (a - 1) * n + i
    return a * n - i + 1


def strand_label(position: int, n: int, k: int) -> DoubleIndex:
    """Inverse of position_of."""
    if not (1 <= position <= n * k):
        raise ValueError(f"position {position} out of range for n={n}, k={k}")
    a = (position - 1) // n + 1
    r = position - (a - 1) * n
    return (r, a) if a % 2 else (n - r + 1, a)


@dataclass(frozen=True)
class DoubledStringLink:
    """n strands, k passes, a pure braid on k*n strands, and framings."""

    n: int
    k: int
    braid: PureBraidWord
    framings: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_counts(self.n, self.k)
        if self.braid.strands != self.n * self.k:
            raise ValueError(
                f"braid must live on n*k = {self.n * self.k} strands, got {self.braid.strands}"
            )
        if len(self.framings) != self.n:
            raise ValueError(f"expected {self.n} framings, got {len(self.framings)}")


def _check_counts(n: int, k: int) -> None:
    """Reject a strand count n or a pass count k below 1, naming the value."""
    if n < 1:
        raise ValueError(f"strand count n must be at least 1, got {n}")
    if k < 1:
        raise ValueError(f"pass count k must be at least 1, got {k}")


def pairwise_linking(link: DoubledStringLink) -> LinkingMatrix:
    """String-link linking numbers: alternating pass sums of braid linking.

    One pass over the letters: a letter with exponent e between pass a of
    strand i and pass b of strand j != i adds (-1)^(a + b) * e to lk(i, j);
    a letter between two passes of one strand adds nothing.
    """
    letters = link.braid.letters
    label = _labels(letters, link.n, link.k)
    triples = []
    for p, q, e in letters:
        i, a = label[p]
        j, b = label[q]
        if i != j:
            triples.append((i, j, e if (a + b) % 2 == 0 else -e))
    return LinkingMatrix.summed(link.n, triples)


def _labels(letters: tuple[Letter, ...], n: int, k: int) -> dict[int, DoubleIndex]:
    """The double index of each position the letters use, each computed once."""
    label: dict[int, DoubleIndex] = {}
    for p, q, _ in letters:
        if p not in label:
            label[p] = strand_label(p, n, k)
        if q not in label:
            label[q] = strand_label(q, n, k)
    return label


def _pair_letters(
    n: int, k: int, i: int, a: int, j: int, b: int, sign: int
) -> tuple[Letter, ...]:
    """Letters of the stabilizing pair word for (i,a) against passes b, b+1 of j.

    A generator between coincident double indices is the identity and is
    dropped, so when i == j and a is b or b+1 the word is the single
    generator between passes b and b+1 of strand i.
    """
    pos_a = position_of((i, a), n, k)
    letters: list[Letter] = []
    for bb in (b, b + 1):
        pos_b = position_of((j, bb), n, k)
        if pos_a == pos_b:
            continue
        lo, hi = min(pos_a, pos_b), max(pos_a, pos_b)
        letters.append((lo, hi, 1))
    if sign == -1:
        letters = [(lo, hi, -1) for lo, hi, _ in reversed(letters)]
    return tuple(letters)


def stabilizing_multiply(
    link: DoubledStringLink, i: int, a: int, j: int, b: int, sign: int
) -> DoubledStringLink:
    """Multiply by the pass-pair word without changing the string link.

    The word pairs (i,a) with passes b and b+1 of strand j; it is
    prepended when b is even and appended when b is odd.  Both braid
    linking numbers lk((i,a),(j,b)) and lk((i,a),(j,b+1)) move by sign,
    except that when i == j and a is b or b+1 the single self entry
    lk((i,b),(i,b+1)) moves by sign.  String-link linking numbers and
    framings are unchanged.
    """
    n, k = link.n, link.k
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    if not (1 <= b < k):
        raise ValueError(f"pass index b must satisfy 1 <= b < k = {k}, got {b}")
    word = PureBraidWord(n * k, _pair_letters(n, k, i, a, j, b, sign))
    braid = word * link.braid if b % 2 == 0 else link.braid * word
    return DoubledStringLink(n, k, braid, link.framings)


def normalize_linking(link: DoubledStringLink) -> DoubledStringLink:
    """Drive every braid-level linking number to zero.

    Requires all string-link linking numbers of the input to vanish.
    Works pair by pair: linking between strands i and j is folded pass
    column by pass column onto the entry lk((i,1),(j,1)), which the
    alternating-sum condition then forces to zero; self linking between
    passes of one strand is folded the same way and the final entry is
    cleared by the single-generator move.  The result represents the
    same framed string link and its braid is delta-trivial.

    Folding a pair adds letters only between passes of its two strands,
    and folding a strand only between its own passes, so only the pairs
    and the strands that a nonzero braid-level entry joins are visited,
    in sorted order: the cost grows with the linked pairs, not with n^2.
    A clear moves lk((i,a),(j,c)) onto lk((i,a),(j,c-1)) and leaves pass
    a of i as it was, and a clear of a zero entry adds no letters, so
    each fold visits only the passes a that carry an entry, and c only
    up to the highest pass an entry reaches: the cost grows with those
    passes, not with k^2.
    """
    pairwise = pairwise_linking(link)
    for i, j, value in pairwise.entries:
        raise ValueError(f"string-link linking must vanish; lk({i},{j}) = {value}")

    n, k = link.n, link.k
    letters = list(link.braid.letters)
    lk = {(p, q): v for p, q, v in linking_matrix(link.braid).entries}
    # cells[i, j]: the pass pairs (a, b) of the entries lk((i,a),(j,b)),
    # with i <= j, and a < b when i == j
    cells: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for p, q in lk:
        (i, a), (j, b) = sorted((strand_label(p, n, k), strand_label(q, n, k)))
        cells.setdefault((i, j), set()).add((a, b))

    def entry(idx1: DoubleIndex, idx2: DoubleIndex) -> int:
        p1 = position_of(idx1, n, k)
        p2 = position_of(idx2, n, k)
        return lk.get((p1, p2) if p1 < p2 else (p2, p1), 0)

    def clear(mi: int, ma: int, mj: int, mb: int) -> None:
        # Each pair word moves lk((mi,ma),(mj,mb+1)) by its sign, so |v|
        # copies of the word with the cancelling sign clear the entry.
        v = entry((mi, ma), (mj, mb + 1))
        words = _pair_letters(n, k, mi, ma, mj, mb, -1 if v > 0 else 1) * abs(v)
        if mb % 2 == 0:
            letters[:0] = words
        else:
            letters.extend(words)
        for p, q, e in words:
            lk[p, q] = lk.get((p, q), 0) + e

    def fold(i: int, passes: list[int], j: int, top: int) -> None:
        # Move lk((i,a),(j,c)) onto lk((i,a),(j,c-1)) for c = top .. 2,
        # each a in passes (a < c when i == j); pass a of i is never changed.
        for c in range(top, 1, -1):
            for a in passes:
                if i != j or a < c:
                    clear(i, a, j, c - 1)

    # strand pairs first, then single strands, each in sorted order; for a
    # single strand the a == c-1 case is the single-generator move and
    # clears the entry outright
    for i, j in sorted(cells, key=lambda pair: (pair[0] == pair[1], pair)):
        passes = sorted({a for a, _ in cells[i, j]})
        fold(i, passes, j, max(b for _, b in cells[i, j]))
        if i != j:
            # pass 1 of j now meets only passes of i: fold them onto (i,1)
            fold(j, [1], i, passes[-1])
            leftover = entry((i, 1), (j, 1))
            if leftover:
                raise InternalCheckError(f"alternating-sum condition violated at ({i},{j})")

    braid = PureBraidWord(n * k, tuple(letters))
    result = DoubledStringLink(n, k, braid, link.framings)
    if not linking_matrix(braid).is_zero():
        raise InternalCheckError("normalization left a nonzero linking number")
    return result


def delta_equivalent_links(l1: DoubledStringLink, l2: DoubledStringLink) -> bool:
    """Same pairwise linking numbers and same framings; k may differ."""
    if l1.n != l2.n:
        raise ValueError("strand-count mismatch")
    return pairwise_linking(l1) == pairwise_linking(l2) and l1.framings == l2.framings


_BAD_DOUBLE = "bad double index {!r}; expected 'i.a'"


def parse_string_link(text: str) -> DoubledStringLink:
    """Parse: header "n <n> k <k>"; "framings f1 ... fn"; letters "i.a j.b e"."""
    lines = nonblank_lines(text)
    if len(lines) < 2:
        raise ValueError("string-link file needs a header and a framings line")
    n, k = read_header(lines, "n k", 'header must be "n <n> k <k>", got {!r}')
    _check_counts(n, k)
    framings = read_framings(lines)
    letters: list[Letter] = []
    # each token already read in this file, to its braid position
    positions: dict[str, int] = {}
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"letter lines must be 'i.a j.b e', got {line!r}")
        t1, t2, exponent = parts
        p1 = positions.get(t1)
        p2 = positions.get(t2)
        if p1 is None or p2 is None:
            idx1 = dotted_pair(t1, _BAD_DOUBLE)
            idx2 = dotted_pair(t2, _BAD_DOUBLE)
            e = integer(exponent, line, "letter")
            p1 = positions[t1] = position_of(idx1, n, k)
            p2 = positions[t2] = position_of(idx2, n, k)
        else:
            e = integer(exponent, line, "letter")
        if p1 == p2:
            raise ValueError(f"letter joins a strand to itself: {line!r}")
        letters.append((p1, p2, e) if p1 < p2 else (p2, p1, e))
    braid = PureBraidWord(n * k, tuple(letters))
    return DoubledStringLink(n, k, braid, framings)


def format_string_link(link: DoubledStringLink) -> str:
    lines = [f"n {link.n} k {link.k}"]
    lines.append("framings " + " ".join(str(f) for f in link.framings))
    letters = link.braid.letters
    tokens = {p: f"{i}.{a}" for p, (i, a) in _labels(letters, link.n, link.k).items()}
    for p, q, e in letters:
        lines.append(f"{tokens[p]} {tokens[q]} {e}")
    return "\n".join(lines) + "\n"
