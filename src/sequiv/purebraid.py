"""Pure braid words and the linking-number abelianization.

A word is a sequence of letters (i, j, e) with 1 <= i < j <= n and
e in {1, -1}, each standing for the e-th power of the standard generator
that links strands i and j.  The generator's own linking number is +1 by
convention; every other sign in the toolkit derives from that choice.

Summing exponents per strand pair is a homomorphism onto the
abelianization, and two words are delta-equivalent exactly when those
pairwise linking numbers agree.  Free reduction is a separate
normalizing pass: linking numbers never need it.

LinkingMatrix is the one linking table of the package: pure braids,
string links (stringlink.pairwise_linking) and disk-band forms
(standardform.DiskBandForm) all hold their pairwise linking numbers in
it.  It keeps only the sorted nonzero (i, j, v) above the diagonal, so
its cost grows with the letters of a word, not with n^2: a header that
names 2^62 strands is valid input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .textformat import ints, nonblank_lines, read_header

__all__ = [
    "Letter",
    "PureBraidWord",
    "LinkingMatrix",
    "linking_matrix",
    "delta_relator",
    "is_delta_trivial",
    "delta_equivalent",
    "insert_relator",
    "parse_braid",
    "format_braid",
]

Letter = tuple[int, int, int]


def _check_letter(n: int, letter: Letter) -> Letter:
    i, j, e = letter
    if not (1 <= i < j <= n):
        raise ValueError(f"letter indices must satisfy 1 <= i < j <= {n}, got ({i}, {j})")
    if e not in (1, -1):
        raise ValueError(f"letter exponent must be +-1, got {e}")
    return (i, j, e)


@dataclass(frozen=True)
class PureBraidWord:
    """A word in the standard generators of the pure braid group on n strands."""

    strands: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        n = self.strands
        if n < 1:
            raise ValueError("strand count must be positive")
        for letter in self.letters:
            i, j, e = letter
            if not (1 <= i < j <= n and e in (1, -1)):
                _check_letter(n, letter)

    @classmethod
    def identity(cls, n: int) -> "PureBraidWord":
        return cls(n)

    @classmethod
    def generator(cls, n: int, i: int, j: int, e: int = 1) -> "PureBraidWord":
        if i > j:
            i, j = j, i
        return cls(n, (_check_letter(n, (i, j, e)),))

    def __mul__(self, other: "PureBraidWord") -> "PureBraidWord":
        if self.strands != other.strands:
            raise ValueError("strand-count mismatch")
        return PureBraidWord(self.strands, self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "PureBraidWord":
        return PureBraidWord(
            self.strands, tuple((i, j, -e) for i, j, e in reversed(self.letters))
        )

    def free_reduce(self) -> "PureBraidWord":
        """Cancel adjacent x * x^-1 pairs until none remain."""
        stack: list[Letter] = []
        for letter in self.letters:
            if stack and stack[-1] == (letter[0], letter[1], -letter[2]):
                stack.pop()
            else:
                stack.append(letter)
        return PureBraidWord(self.strands, tuple(stack))


@dataclass(frozen=True)
class LinkingMatrix:
    """Pairwise linking numbers of n strands, stored sparsely.

    entries is the nonzero upper triangle of the symmetric table, whose
    diagonal is zero: the sorted tuple of (i, j, v) with 1 <= i < j <= n
    and v != 0.  Equal tables have equal entries, and the size of a
    table is its count of linked pairs, not n^2.
    """

    n: int
    entries: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        last = (0, 0)
        for i, j, v in self.entries:
            if not (last < (i, j) and 1 <= i < j <= self.n and v):
                raise ValueError(
                    f"linking entries must be sorted (i, j, v) with 1 <= i < j <= {self.n}"
                    f" and v != 0, got {(i, j, v)}"
                )
            last = (i, j)

    @classmethod
    def summed(cls, n: int, triples: Iterable[tuple[int, int, int]]) -> "LinkingMatrix":
        """The table whose (i, j) entry sums v over the triples (i, j, v) and (j, i, v)."""
        sums: dict[tuple[int, int], int] = {}
        for i, j, v in triples:
            if i == j:
                raise ValueError("diagonal entries must be zero")
            key = (i, j) if i < j else (j, i)
            sums[key] = sums.get(key, 0) + v
        return cls(n, tuple(sorted((i, j, v) for (i, j), v in sums.items() if v)))

    def entry(self, i: int, j: int) -> int:
        """Linking number of strands i and j, 1-indexed."""
        key = (i, j) if i < j else (j, i)
        return next((v for p, q, v in self.entries if (p, q) == key), 0)

    def __add__(self, other: "LinkingMatrix") -> "LinkingMatrix":
        if self.n != other.n:
            raise ValueError("strand-count mismatch")
        return LinkingMatrix.summed(self.n, self.entries + other.entries)

    def __neg__(self) -> "LinkingMatrix":
        return LinkingMatrix(self.n, tuple((i, j, -v) for i, j, v in self.entries))

    def is_zero(self) -> bool:
        return not self.entries


def linking_matrix(w: PureBraidWord) -> LinkingMatrix:
    """Sum of exponents per strand pair; a homomorphism to the abelianization."""
    return LinkingMatrix.summed(w.strands, w.letters)


def delta_relator(i: int, j: int, k: int, strands: Optional[int] = None) -> PureBraidWord:
    """The four-letter commutator of the generators on strands (i,j) and (j,k).

    Inserting or deleting a conjugate of this word is the algebraic form
    of one delta move; its linking numbers all vanish.
    """
    n = k if strands is None else strands
    if not (1 <= i < j < k <= n):
        raise ValueError(f"indices must satisfy 1 <= i < j < k <= {n}, got ({i}, {j}, {k})")
    return PureBraidWord(n, ((i, j, 1), (j, k, 1), (i, j, -1), (j, k, -1)))


def is_delta_trivial(w: PureBraidWord) -> bool:
    """True exactly when every pairwise linking number vanishes."""
    return linking_matrix(w).is_zero()


def delta_equivalent(w1: PureBraidWord, w2: PureBraidWord) -> bool:
    """True exactly when the two words have the same pairwise linking numbers."""
    if w1.strands != w2.strands:
        raise ValueError("strand-count mismatch")
    return linking_matrix(w1) == linking_matrix(w2)


def insert_relator(
    w: PureBraidWord,
    position: int,
    relator: PureBraidWord,
    conjugator: Optional[PureBraidWord] = None,
) -> PureBraidWord:
    """Splice conjugator * relator * conjugator^-1 into w at position."""
    if not (0 <= position <= len(w.letters)):
        raise IndexError(f"position must be in 0..{len(w.letters)}, got {position}")
    if conjugator is None:
        conjugator = PureBraidWord.identity(w.strands)
    if relator.strands != w.strands or conjugator.strands != w.strands:
        raise ValueError("strand-count mismatch")
    inserted = conjugator * relator * conjugator.inverse()
    letters = w.letters[:position] + inserted.letters + w.letters[position:]
    return PureBraidWord(w.strands, letters)


def parse_braid(text: str) -> PureBraidWord:
    """Parse the pure-braid format: header "n <strands>", then "i j e" lines."""
    lines = nonblank_lines(text)
    (n,) = read_header(lines, "n", 'pure-braid file must start with a header line "n <strands>"')
    letters = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"letter lines must be 'i j e', got {line!r}")
        letters.append(ints(parts, line, "letter"))
    return PureBraidWord(n, tuple(letters))


def format_braid(w: PureBraidWord) -> str:
    lines = [f"n {w.strands}"]
    for i, j, e in w.letters:
        lines.append(f"{i} {j} {e}")
    return "\n".join(lines) + "\n"
