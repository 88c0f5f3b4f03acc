"""Seifert matrices of knots presented as braid closures.

The closure of a braid word is a knot exactly when the underlying
permutation is a single cycle.  Only the positions some letter moves
are walked, so the test costs O(letters) whatever strand count the
header names; a knot closure uses every generator index.  Applying the
standard spanning-surface construction to the closed diagram gives one
disk per strand and one band per crossing; the homology basis consists
of the loops through consecutive same-index crossings, so the matrix
has size length(word) - strands + 1.

Crossing conventions are pinned operationally: the positive trefoil
braid on two strands must produce a matrix with signature -2, and the
polynomial of every generated knot closure must agree exactly with the
reduced-Burau evaluation, which is computed by an entirely independent
code path and serves as the oracle.  The oracle builds the reduced
Burau matrix by one column update per letter, with no matrix product,
on Kronecker-packed integers (each entry, times a power of t that
makes it a polynomial, held as its value at t = 2**b), finishes
rho(w) - I on those integers, decodes each entry once, and takes the
determinant with laurent's Z[t] Bareiss elimination, which packs its
entries the same way at a slot width of its own; it never calls intlin.
An inconsistency inside the oracle raises InternalCheckError, never
ValueError, so it is not reported as invalid input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .intlin import IntMatrix, InternalCheckError
from .laurent import LaurentPoly, normalize_knot_polynomial, polynomial_matrix_det, signed_digits
from .seifert import SeifertMatrix, validate
from .textformat import ints, nonblank_lines, read_header

__all__ = [
    "ArtinBraidWord",
    "is_knot_closure",
    "seifert_matrix",
    "burau_alexander",
    "knot_corpus",
    "parse_artin_word",
    "format_artin_word",
]


@dataclass(frozen=True)
class ArtinBraidWord:
    """A braid word: signed generator indices on a fixed strand count."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 2:
            raise ValueError("braid words need at least 2 strands")
        for v in self.letters:
            if v == 0 or abs(v) >= self.strands:
                raise ValueError(f"generator index {v} out of range 1..{self.strands - 1}")

    def mirror(self) -> "ArtinBraidWord":
        """Reverse the word and flip every crossing."""
        return ArtinBraidWord(self.strands, tuple(-v for v in reversed(self.letters)))


def _moved(w: ArtinBraidWord) -> dict[int, int]:
    """{p: s} over the positions p some letter moves: strand s ends at p.

    A strand no letter moves ends where it starts, so one walk over the
    letters, O(letters) whatever the strand count, gives the whole
    permutation; the values are a permutation of the keys.
    """
    at: dict[int, int] = {}
    for v in w.letters:
        i = abs(v)
        at[i], at[i + 1] = at.get(i + 1, i + 1), at.get(i, i)
    return at


def _components(w: ArtinBraidWord) -> int:
    """The number of components of the closure of w, in O(letters).

    Each cycle of _moved(w) is one component, and so is each of the
    strands - len(moved) strands no letter moves.
    """
    at = _moved(w)
    count = w.strands - len(at)
    while at:
        count += 1
        p, s = at.popitem()
        while s != p:
            s = at.pop(s)
    return count


def is_knot_closure(w: ArtinBraidWord) -> bool:
    """True when the closure has a single component."""
    return _components(w) == 1


def seifert_matrix(w: ArtinBraidWord) -> SeifertMatrix:
    """Seifert matrix of the knot closure of w.

    Requires a one-component closure, counted in O(letters), so a header
    naming 2^62 strands is rejected without a list of that length.  A
    knot closure uses every generator index: were i missing, no strand
    would cross between positions i and i + 1, so the closure would have
    two components at least.  The matrix passes validation and its
    normalized polynomial equals the reduced-Burau value.
    """
    _require_knot(w)

    columns: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, w.strands)}
    for pos, v in enumerate(w.letters):
        columns[abs(v)].append((pos, 1 if v > 0 else -1))

    # Loop j of a column runs from its crossing j to crossing j + 1; its index is first[col] + j.
    first = {}
    size = 0
    for col, occ in columns.items():
        first[col] = size
        size += len(occ) - 1

    v = [[0] * size for _ in range(size)]
    for col, occ in columns.items():
        count = len(occ) - 1
        for j in range(count):
            r = first[col] + j
            e1, e2 = occ[j][1], occ[j + 1][1]
            v[r][r] = -(e1 + e2) // 2
            if j + 1 < count:
                if e2 == 1:  # e2 is the crossing shared with the next loop, r + 1
                    v[r][r + 1] = 1
                else:
                    v[r + 1][r] = -1
    # Interleaved loops in adjacent columns contribute a single +-1 in the
    # (left loop, right loop) slot: +1 when the left-column loop opens
    # first, -1 when the right-column loop does.  The side and sign are
    # pinned by exact oracle agreement over generated corpora.
    for col in range(1, w.strands - 1):
        left, right = columns[col], columns[col + 1]
        for j in range(len(left) - 1):
            a = first[col] + j
            t1, t2 = left[j][0], left[j + 1][0]
            for m in range(len(right) - 1):
                b = first[col + 1] + m
                u1, u2 = right[m][0], right[m + 1][0]
                if t1 < u1 < t2 < u2:
                    v[a][b] = 1
                elif u1 < t1 < u2 < t2:
                    v[a][b] = -1
    return validate(IntMatrix.from_rows(v))


# ---------------------------------------------------------------------------
# Reduced Burau oracle.


def _burau_matrix(w: ArtinBraidWord) -> tuple[list[list[int]], int, int]:
    """(cols, b, neg): entry (a, c) of rho(w) is cols[c][a] at t = 2**b, over t**neg.

    neg is the number of negative letters: a prefix with q of them has
    exponents at least -q, so every entry of every prefix times t**neg
    is a polynomial.  Each such polynomial is held as one integer, its
    value at t = 2**b (Kronecker substitution), and built by one column
    update per letter (see burau_alexander): multiplying by t is << b,
    and dividing by t is >> b once the low b bits, the constant
    coefficient, are checked to be zero.  The l1 norm of an entry of
    column c is at most bound[c], carried through the same recurrence,
    and b = bit_length(max bound + 1) + 1, so every coefficient of every
    prefix, and of rho(w) - I, whose diagonal moves one coefficient by 1,
    lies strictly between -2**(b-1) and 2**(b-1).  Nothing is decoded.
    """
    m = w.strands - 1
    neg = 0
    # bound[m], like cols[m] below, stands for the zero columns -1 and m.
    bound = [1] * m + [0]
    for v in w.letters:
        neg += v < 0
        c = abs(v) - 1
        bound[c] = bound[c - 1] + bound[c] + bound[c + 1]
    b = (max(bound) + 1).bit_length() + 1
    low = (1 << b) - 1
    one = 1 << (b * neg)
    cols = [[one if a == c else 0 for a in range(m)] for c in range(m)] + [[0] * m]
    for v in w.letters:
        c = abs(v) - 1
        left, mid, right = cols[c - 1], cols[c], cols[c + 1]
        if v > 0:  # t (col[c-1] - col[c]) + col[c+1]
            cols[c] = [((l - x) << b) + r for l, x, r in zip(left, mid, right)]
        else:  # col[c-1] + t^-1 (col[c+1] - col[c])
            diffs = [r - x for x, r in zip(mid, right)]
            if reduce(or_, diffs) & low:  # some difference has a nonzero low slot
                raise InternalCheckError("Burau column update: a nonzero constant term divided by t")
            cols[c] = [l + (d >> b) for l, d in zip(left, diffs)]
    return cols[:m], b, neg


def _require_knot(w: ArtinBraidWord) -> None:
    """Raise ValueError unless the closure of w has one component."""
    count = _components(w)
    if count != 1:
        raise ValueError(f"closure has {count} components, not a knot")


def burau_alexander(w: ArtinBraidWord) -> LaurentPoly:
    """Alexander polynomial of the closure via the reduced Burau matrix.

    Right-multiplying rho by the image of sigma_i changes only column
    c = i - 1: sigma_i sets it to t (col[c-1] - col[c]) + col[c+1], and
    sigma_i^-1 to col[c-1] + t^-1 (col[c+1] - col[c]).  Reading columns
    outside 0..n-2 as zero gives the edge blocks of sigma_1, sigma_(n-1)
    and the 1x1 block [[-t^(+-1)]] for n = 2.  _burau_matrix runs
    these updates on packed integers, and rho(w) - I is finished there:
    I, times t**neg, is 2**(b * neg) off each diagonal entry.  The low
    slots common to every entry are then dropped by one right shift of
    b * k bits, k being the slot of the lowest set bit over all entries:
    a nonzero signed digit d has 0 < |d| < 2**(b-1), so it is nonzero
    mod 2**b, and the lowest set bit of an entry lies in its lowest
    nonzero slot.  On packed integers those slots would lengthen every
    product (without the drop knot_corpus(12, 80, 5, 40) takes 3.0
    times as long).  Each entry is decoded once, and the determinant of
    the transpose, det(rho(w) - I) times a power of t, is taken by
    polynomial_matrix_det; an inexact step there raises
    InternalCheckError.
    The exponent of the determinant is not tracked: the quotient is
    multiplied by whichever unit +-t**m centres it, and a shift by s
    moves the exponent span by 2s, so neither the answer nor the
    odd-span check depends on it.  The exact value of
    det(rho(w) - I) * (1 - t) / (1 - t**n), normalized to value 1 at
    t=1 and palindromic, is returned.  The division and the
    normalization, on LaurentPoly, sit under one error boundary: an
    inexact division, or a quotient that no unit normalizes, is a bug
    and raises InternalCheckError.
    """
    _require_knot(w)
    cols, b, neg = _burau_matrix(w)
    for c, col in enumerate(cols):
        col[c] -= 1 << (b * neg)
    # Not all zero: at t = 1, rho(w) is the reduced permutation matrix of an n-cycle.
    bits = reduce(or_, (e for col in cols for e in col))
    shift = ((bits & -bits).bit_length() - 1) // b * b
    rows = [[tuple(signed_digits(e >> shift, b)) for e in col] for col in cols]
    numerator = LaurentPoly.of(0, polynomial_matrix_det(rows))
    quotient = LaurentPoly.of(0, (1,) * w.strands)  # 1 + t + ... + t**(n-1)
    try:
        return normalize_knot_polynomial(numerator.divexact(quotient))
    except ValueError as exc:
        raise InternalCheckError(f"Burau determinant over 1 + t + ... + t^(n-1): {exc}") from exc


# ---------------------------------------------------------------------------
# Deterministic corpus of knot-closure words.


def knot_corpus(
    max_strands: int, max_length: int, seed: int, count: int
) -> list[ArtinBraidWord]:
    """Deterministic sample of distinct knot-closure words meeting all
    preconditions of seifert_matrix.

    Raises ValueError before drawing when max_strands < 2, since a knot
    closure needs two strands, when max_length < 1, since a knot closure
    on n >= 2 strands needs at least n - 1 letters, and when count < 0;
    and after drawing when 1000 * count draws do not yield count words,
    or as soon as every admissible word has been drawn.
    """
    if max_strands < 2:
        raise ValueError(f"maximum strand count must be at least 2, got {max_strands}")
    if max_length < 1:
        raise ValueError(f"maximum word length must be at least 1, got {max_length}")
    if count < 0:
        raise ValueError(f"word count must be non-negative, got {count}")
    rng = random.Random(seed)
    seen: set[tuple[int, tuple[int, ...]]] = set()
    out: list[ArtinBraidWord] = []
    attempts = 0
    limit = 1000 * count
    space = _word_space(max_strands, max_length, limit)
    while len(out) < count:
        attempts += 1
        if attempts > limit or len(seen) == space:
            raise ValueError("corpus generation failed to converge; widen the limits")
        n = rng.randint(2, max_strands)
        if max_length < n - 1:
            continue
        length = rng.randint(n - 1, max_length)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)
        )
        key = (n, letters)
        if key in seen:
            continue
        seen.add(key)
        word = ArtinBraidWord(n, letters)
        if is_knot_closure(word):
            out.append(word)
    return out


def _word_space(max_strands: int, max_length: int, cap: int) -> int:
    """The number of words knot_corpus can draw, or a number above cap.

    On n strands a word of length l has 2(n - 1) choices per letter, so
    the count is the sum over n = 2..max_strands and l = n - 1..max_length
    of (2(n - 1))^l.  Summing stops once it passes cap, so huge limits
    cost no huge powers.
    """
    total = 0
    for n in range(2, min(max_strands, max_length + 1) + 1):
        for length in range(n - 1, max_length + 1):
            total += (2 * (n - 1)) ** length
            if total > cap:
                return total
    return total


def parse_artin_word(text: str) -> ArtinBraidWord:
    """Parse: header "n <strands>"; then signed generator indices."""
    lines = nonblank_lines(text)
    (n,) = read_header(lines, "n", 'braid file must start with a header line "n <strands>"')
    letters = []
    for line in lines[1:]:
        letters.extend(ints(line.split(), line, "letter"))
    return ArtinBraidWord(n, tuple(letters))


def format_artin_word(w: ArtinBraidWord) -> str:
    body = " ".join(str(v) for v in w.letters)
    return f"n {w.strands}\n{body}\n" if body else f"n {w.strands}\n"
