"""Standardized Seifert matrices and the disk-band normal form.

A Seifert matrix N is standardized when N - N^T is the standard
symplectic form; any Seifert matrix reaches that shape by a unimodular
congruence.  A standardized matrix is the same data as a disk-band form:
one framing per band (the diagonal of N) plus the band-linking numbers
(the lower triangle), held as a purebraid.LinkingMatrix on the 2g bands,
which keeps only the nonzero pairs.  The symplectic correction on dual
band pairs is carried by the surface, not by the band string link, which
makes the correspondence a bijection.

The identity N - N^T = X, the standard symplectic form, is the only
certificate a standard form gets, and it costs O(n^2).  It needs no
determinant next to it: for N = A M A^T it gives
det(A)^2 det(M - M^T) = det X = 1, so A is unimodular and N is a Seifert
matrix.

Two standardizations of a common matrix differ by a transition matrix
that must preserve the symplectic form; the witness report checks that
and exhibits the identical disk-band data on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .intlin import (
    IntMatrix,
    InternalCheckError,
    congruent,
    skew_standardize,
    standard_symplectic,
)
from .purebraid import LinkingMatrix, PureBraidWord
from .seifert import SeifertMatrix
from .textformat import ints, nonblank_lines, read_framings, read_header

if TYPE_CHECKING:
    from .stringlink import DoubledStringLink

__all__ = [
    "DiskBandForm",
    "standardize",
    "is_standardized",
    "to_disk_band",
    "from_disk_band",
    "StandardizationReport",
    "standardization_witness",
    "to_string_link",
    "parse_disk_band",
    "format_disk_band",
]


@dataclass(frozen=True)
class DiskBandForm:
    """Genus, one framing per band, and the band-linking table of the 2g bands."""

    genus: int
    framings: tuple[int, ...]
    linking: LinkingMatrix

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError(f"genus must be non-negative, got {self.genus}")
        n = 2 * self.genus
        if len(self.framings) != n:
            raise ValueError(f"expected {n} framings, got {len(self.framings)}")
        if self.linking.n != n:
            raise ValueError(f"band-linking table must have {n} bands, got {self.linking.n}")


def is_standardized(sm: SeifertMatrix) -> bool:
    m = sm.matrix
    return (m - m.transpose()).rows == standard_symplectic(sm.genus).rows


def standardize(sm: SeifertMatrix) -> tuple[IntMatrix, SeifertMatrix]:
    """Unimodular A and N = A * M * A^T with N - N^T in standard form.

    N is checked by is_standardized, which certifies the result on its
    own: N - N^T = X gives det(A)^2 det(M - M^T) = 1, so A is unimodular
    and det(N - N^T) = 1 without a determinant.  A failed check is a bug
    in skew_standardize and raises InternalCheckError.
    """
    m = sm.matrix
    a = skew_standardize(m - m.transpose())
    n = _standardized_image(m, a)
    if n is None:
        raise InternalCheckError("standardize produced A with A * M * A^T not in standard form")
    return a, n


def to_disk_band(sm: SeifertMatrix) -> DiskBandForm:
    """Read framings off the diagonal and band linking off the lower triangle."""
    if not is_standardized(sm):
        raise ValueError("matrix is not standardized; apply standardize() first")
    return _disk_band(sm)


def _disk_band(sm: SeifertMatrix) -> DiskBandForm:
    """to_disk_band for a matrix already certified by is_standardized."""
    rows = sm.matrix.rows
    n = len(rows)
    framings = tuple(rows[i][i] for i in range(n))
    entries = tuple(
        (i + 1, j + 1, rows[j][i]) for i in range(n) for j in range(i + 1, n) if rows[j][i]
    )
    return DiskBandForm(sm.genus, framings, LinkingMatrix(n, entries))


def from_disk_band(d: DiskBandForm) -> SeifertMatrix:
    """Rebuild the standardized matrix; the upper triangle is forced.

    It takes no determinant: for i < j, entry (j, i) is lk(i, j) and
    entry (i, j) is lk(i, j) + X_ij, so N - N^T = X by construction and
    det(N - N^T) = det X = 1.
    """
    n = 2 * d.genus
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = d.framings[i]
    for i in range(0, n, 2):
        rows[i][i + 1] = 1  # X above the diagonal: +1 on each dual band pair
    for i, j, v in d.linking.entries:
        rows[j - 1][i - 1] = v
        rows[i - 1][j - 1] += v
    return SeifertMatrix(IntMatrix.from_rows(rows))


def _transition(sm: SeifertMatrix, a1: IntMatrix, a2: IntMatrix) -> IntMatrix:
    """C = A1 * A2^-1, with A2^-1 = (M - M^T) * A2^T * X^T.

    A2 standardizes M, so A2 * (M - M^T) * A2^T = X and X * X^T = I.
    X^T is a signed permutation and takes no product: in B * X^T,
    column 2b is column 2b + 1 of B and column 2b + 1 is minus column 2b.
    """
    m = sm.matrix
    b = a1 * (m - m.transpose()) * a2.transpose()
    rows = []
    for row in b.rows:
        out = list(row)
        out[0::2] = row[1::2]
        out[1::2] = [-v for v in row[0::2]]
        rows.append(tuple(out))
    return IntMatrix(tuple(rows))


def _standardized_image(m: IntMatrix, a: IntMatrix) -> Optional[SeifertMatrix]:
    """N = A * M * A^T if A has the size of M and N is standardized, else None."""
    if a.size != m.size:
        return None
    n = SeifertMatrix(a * m * a.transpose())
    return n if is_standardized(n) else None


@dataclass(frozen=True)
class StandardizationReport:
    """Two standardizations of one matrix, tied together symplectically."""

    c: IntMatrix
    c_symplectic: bool
    form_1: DiskBandForm
    form_2: DiskBandForm
    forms_match_after_transition: bool
    framings: tuple[int, ...]

    def lines(self) -> list[str]:
        out = [
            f"transition symplectic: {str(self.c_symplectic).lower()}",
            f"forms match after transition: {str(self.forms_match_after_transition).lower()}",
            "framings " + " ".join(str(f) for f in self.framings),
        ]
        return out


def standardization_witness(
    sm: SeifertMatrix, a1: IntMatrix, a2: IntMatrix
) -> StandardizationReport:
    """Check that two standardizations of sm carry identical disk-band data.

    Both A_i must be unimodular with N_i = A_i * M * A_i^T standardized.
    The report records whether the transition C = A1 * A2^-1 is
    symplectic and whether C * N2 * C^T is N1 on the nose, which, since a
    standardized matrix is its disk-band data, means both disk-band forms
    agree after that basis change, framings included.  For standardizing
    A_i both hold; a false field is a failed check, not bad input.

    One determinant is taken, the validate that made sm: det(M - M^T) = 1.
    is_standardized then certifies each A_i, which is outside input, with
    no determinant of its own: N_i - N_i^T = X gives
    det(A_i)^2 det(M - M^T) = det X = 1, so A_i is unimodular and N_i is
    a Seifert matrix.  Only when a certificate fails does congruent
    replay its checks on A1, then A2, so a wrong size or a non-unimodular
    A_i gets its own message, as it would from congruent.  Both fields
    come from P = C * N2 * C^T, a Seifert matrix because C is unimodular:
    P - P^T = C * X * C^T because N2 - N2^T = X, so C is symplectic
    exactly when P is standardized.
    """
    m = sm.matrix
    n1 = _standardized_image(m, a1)
    n2 = None if n1 is None else _standardized_image(m, a2)
    if n2 is None:
        for a in (a1, a2):
            congruent(m, a)
        raise ValueError("both transforms must standardize the matrix")
    c = _transition(sm, a1, a2)
    p = c * n2.matrix * c.transpose()
    d1 = _disk_band(n1)
    return StandardizationReport(
        c=c,
        c_symplectic=is_standardized(SeifertMatrix(p)),
        form_1=d1,
        form_2=_disk_band(n2),
        forms_match_after_transition=p.rows == n1.matrix.rows,
        framings=d1.framings,
    )


def to_string_link(d: DiskBandForm) -> DoubledStringLink:
    """Canonical single-pass string link carrying the disk-band data.

    Band i becomes strand i with its framing; the braid is the product of
    p(i, j)**lk(i, j) over band pairs in lexicographic order.  No
    command calls it, so stringlink is imported here, not with the module.
    """
    from .stringlink import DoubledStringLink

    n = 2 * d.genus
    strands = max(n, 1)
    letters = []
    for i, j, v in d.linking.entries:
        letters.extend([(i, j, 1 if v > 0 else -1)] * abs(v))
    braid = PureBraidWord(strands, tuple(letters))
    framings = d.framings if n else (0,)
    return DoubledStringLink(strands, 1, braid, framings)


def parse_disk_band(text: str) -> DiskBandForm:
    """Parse: "g <g>", "framings f1 ... f_2g", then "i j lk" lines, at most one per band pair."""
    lines = nonblank_lines(text)
    if len(lines) < 2:
        raise ValueError("disk-band file needs a genus line and a framings line")
    (genus,) = read_header(lines, "g", 'first line must be "g <g>", got {!r}')
    framings = read_framings(lines)
    entries: dict[tuple[int, int], int] = {}
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"band-linking lines must be 'i j lk', got {line!r}")
        i, j, v = ints(parts, line, "band")
        pair = (min(i, j), max(i, j))
        if pair in entries:
            raise ValueError(f"band pair {pair} given twice")
        entries[pair] = v
    n = 2 * genus
    DiskBandForm(genus, framings, LinkingMatrix(n))  # genus and framings come first
    for i, j in entries:
        if not (1 <= i < j <= n):
            raise ValueError(f"band pair must satisfy 1 <= i < j <= {n}, got ({i}, {j})")
    linking = LinkingMatrix.summed(n, ((i, j, v) for (i, j), v in entries.items()))
    return DiskBandForm(genus, framings, linking)


def format_disk_band(d: DiskBandForm) -> str:
    lines = [f"g {d.genus}"]
    lines.append("framings " + " ".join(str(f) for f in d.framings))
    lines.extend(f"{i} {j} {v}" for i, j, v in d.linking.entries)
    return "\n".join(lines) + "\n"
