"""Exact integer linear algebra on immutable square matrices.

There is one determinant path, Bareiss fraction-free elimination, and on
top of it one polynomial form of det(M - tM^T), sum_j d_j t^j
(1 + t)^(n - 2j), whose d_j are read two ways: transpose_pencil_det
interpolates them from g + 1 integer determinants det(M + k(M + M^T)),
k = 0..g, which sit at t = -k / (k + 1), and _kronecker_pencil reads them
off the balanced digits of one determinant det(M + K(M + M^T)) at a K
past a proven bound on them, t = -K / (K + 1), or declines when that
determinant would be wider than a budget.  t = 1 and t = -1 are never
nodes, so the checks the Alexander polynomial gets there stay
independent.  det and det_or_left_kernel share one elimination loop
with row swaps, which stops at the first column without a pivot.
det_or_left_kernel runs that loop on M^T and, when M is singular,
back-substitutes exactly to a primitive u with u^T M = 0; seifert
reduces a Seifert matrix with it, finding zero rows itself, and hands
its det, node k = 0, to the pencil.  The signature and determinant of
a symmetric matrix come together from one Bareiss pass with symmetric
pivoting, whose consecutive leading minors give the signs of an LDL^T
factorization; no rational number occurs anywhere.  Both loops share
one elimination step, which leaves a row untouched when its multiplier
is 0 and the pivot equals the previous one, since the update would not
change it.  Skew-symmetric unimodular forms are brought to the
standard symplectic shape by paired integer row/column operations,
whose pivots also decide that the determinant is 1.  The three
elementary congruences on list matrices (adding a multiple of one basis
vector to another, swapping two, negating one) are written once, in
_add_multiple, _swap and _negate; signature_and_det, skew_standardize
and seifert's reduction and move replay all run on them.  All values
are immutable and every public operation is a pure function, so
concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, isqrt
from operator import add, mul, sub
from typing import Iterable, Optional

from . import InternalCheckError
from .textformat import integer, ints, nonblank_lines

__all__ = [
    "InternalCheckError",
    "IntMatrix",
    "det",
    "det_or_left_kernel",
    "transpose_pencil_det",
    "is_unimodular",
    "congruent",
    "standard_symplectic",
    "skew_standardize",
    "signature_and_det",
    "parse_matrix",
    "format_matrix",
]


@dataclass(frozen=True)
class IntMatrix:
    """A square matrix of arbitrary-precision integers.

    The 0x0 matrix is legal; its determinant is 1 by the empty-product
    convention.
    """

    rows: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError("matrix must be square")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(tuple(map(int, row)) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def size(self) -> int:
        return len(self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_size(other)
        return IntMatrix(tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_size(other)
        return IntMatrix(tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        """The exact product, each entry sum(map(mul, row, column)).

        The columns of other are transposed once, and the inner loop runs
        in C with no generator per entry; entries stay Python ints.
        """
        self._check_size(other)
        cols = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in self.rows)
        )

    def _check_size(self, other: "IntMatrix") -> None:
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")

    def is_symmetric(self) -> bool:
        return self.rows == tuple(zip(*self.rows))

    def is_skew_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == -self.rows[j][i]
            for i in range(self.size)
            for j in range(i, self.size)
        )


def det(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    return _bareiss([list(row) for row in m.rows])[0]


def det_or_left_kernel(m: IntMatrix) -> tuple[int, Optional[tuple[int, ...]]]:
    """(det M, None) for nonsingular M; (0, u) with u primitive and u^T M = 0 otherwise.

    The elimination of det runs on M^T, whose row swaps keep the column
    indices of M; there is no zero-row shortcut, since seifert's
    reduction takes e_q for a zero row q itself and calls this only on
    a matrix with none.  At the first column k with no pivot left,
    column k of the reduced matrix lies in the span of the k pivot
    columns before it, and that dependency is a vector y of M^T's
    kernel with y_j = 0 for j > k.  Scaled by the last pivot D_k, the
    leading k x k minor, every y_j is an integer (Cramer's rule), so
    exact back-substitution through the triangular pivot rows finds it;
    a division with a remainder raises InternalCheckError.  u is y
    divided by its gcd.
    """
    a = [list(column) for column in zip(*m.rows)]
    d, k = _bareiss(a)
    return (d, None) if k == m.size else (0, _dependency(a, k))


def _bareiss(a: list[list[int]]) -> tuple[int, int]:
    """(det a, n) after eliminating a in place, or (0, k) at the first column k with no pivot.

    Rows are swapped to find each pivot, and each swap flips the sign;
    the last pivot is the determinant.  On a return at column k, rows
    0..k-1 of a are the pivot rows, upper triangular on columns 0..k.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0, k
        _eliminate(a, k, prev)
        prev = a[k][k]
    return sign * prev, n


def _dependency(a: list[list[int]], k: int) -> tuple[int, ...]:
    """The primitive y with y_k != 0, y_j = 0 for j > k, and sum_j a[i][j] y_j = 0 for i < k.

    Rows i < k of a are the Bareiss pivot rows, upper triangular on
    columns 0..k; y_k starts as the last of their pivots, D_k, or 1 when
    k = 0.
    """
    y = [0] * len(a)
    y[k] = a[k - 1][k - 1] if k else 1
    for i in range(k - 1, -1, -1):
        row = a[i]
        q, r = divmod(-sum(row[j] * y[j] for j in range(i + 1, k + 1)), row[i])
        if r:
            raise InternalCheckError(f"kernel back-substitution is not exact at index {i}")
        y[i] = q
    g = gcd(*y)
    return tuple(x // g for x in y)


def _eliminate(a: list[list[int]], k: int, prev: int) -> None:
    """One Bareiss step: eliminate column k below the pivot a[k][k], in place.

    Every later row becomes (row * pivot - a_ik * row_k) / prev on the
    columns after k; prev is the previous pivot, and each division is
    exact (Bareiss 1968).  A row with a_ik = 0 comes out as
    row * pivot / prev, so when pivot = prev it is left untouched.  Column
    k itself is left as it was.
    """
    n = len(a)
    row_k = a[k]
    pivot = row_k[k]
    same = pivot == prev
    for i in range(k + 1, n):
        row_i = a[i]
        aik = row_i[k]
        if same and not aik:
            continue
        for j in range(k + 1, n):
            row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev


def _add_multiple(w: list[list[int]], i: int, j: int, c: int) -> None:
    """E w E^T in place for E = I + c e(i, j), i != j: row i += c * row j, then column i += c * column j."""
    wi = w[i]
    for l, x in enumerate(w[j]):
        wi[l] += c * x
    for row in w:
        row[i] += c * row[j]


def _swap(w: list[list[int]], i: int, j: int) -> None:
    """P w P^T in place for the transposition P of i and j: rows i and j, then columns i and j."""
    w[i], w[j] = w[j], w[i]
    for row in w:
        row[i], row[j] = row[j], row[i]


def _negate(w: list[list[int]], i: int) -> None:
    """D w D in place for D = diag(1, ..., -1, ..., 1), the -1 at i: row i, then column i."""
    w[i] = [-x for x in w[i]]
    for row in w:
        row[i] = -row[i]


def is_unimodular(a: IntMatrix) -> bool:
    return det(a) in (1, -1)


def congruent(m: IntMatrix, a: IntMatrix) -> IntMatrix:
    """The congruence A * M * A^T for unimodular A."""
    if a.size != m.size:
        raise ValueError(f"size mismatch: matrix {m.size}, transform {a.size}")
    if not is_unimodular(a):
        raise ValueError("congruence transform must be unimodular")
    return a * m * a.transpose()


def standard_symplectic(g: int) -> IntMatrix:
    """The 2g x 2g block diagonal of [[0, 1], [-1, 0]] blocks."""
    if g < 0:
        raise ValueError("genus must be non-negative")
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for b in range(g):
        rows[2 * b][2 * b + 1] = 1
        rows[2 * b + 1][2 * b] = -1
    return IntMatrix.from_rows(rows)


def transpose_pencil_det(m: IntMatrix) -> list[int]:
    """Coefficients, constant first, of det(M - t * M^T) for M of even size n.

    P(x, y) = det(yM - xM^T) is a binary form of degree n = 2g, and
    transposing gives P(y, x) = (-1)^n P(x, y) = P(x, y).  So
    P = sum_j d_j (x + y)^(n - 2j) (xy)^j, j = 0..g, with integer d_j.  On
    the line x + y = 1, x = lambda, P is det(M - lambda Q) with
    Q = M + M^T, a polynomial D(mu) = sum_j d_j mu^j of degree g in
    mu = lambda (1 - lambda).  It is recovered from g + 1 integer Bareiss
    determinants det(M + kQ), k = 0..g, at the integer nodes
    mu = -k(k + 1), by Newton divided differences; each division is exact
    for an integer polynomial, and an inexact one raises
    InternalCheckError.  Then det(M - t M^T) = P(t, 1) =
    sum_j d_j t^j (1 + t)^(n - 2j).  The Alexander polynomial comes from
    here, through _transpose_pencil with node k = 0 already known.
    """
    return _transpose_pencil(m, det(m))


def _transpose_pencil(m: IntMatrix, det_m: int) -> list[int]:
    """transpose_pencil_det(m), given det M, the node k = 0."""
    n = m.size
    if n % 2:
        raise ValueError(f"transpose pencil requires even size, got {n}")
    g = n // 2
    pairs = list(zip(m.rows, zip(*m.rows)))
    newton = [det_m] + [det(_shifted(pairs, k)) for k in range(1, g + 1)]
    nodes = [-k * (k + 1) for k in range(g + 1)]
    for j in range(1, g + 1):
        for k in range(g, j - 1, -1):
            q, r = divmod(newton[k] - newton[k - 1], nodes[k] - nodes[k - j])
            if r:
                raise InternalCheckError(f"divided difference of order {j} at node {k} is not an integer")
            newton[k] = q
    # Horner in the Newton basis: D = c_0 + (mu - mu_0) * (c_1 + (mu - mu_1) * (...)).
    d: list[int] = []
    for k in range(g, -1, -1):
        shifted = [0] + d
        for i, c in enumerate(d):
            shifted[i] -= nodes[k] * c
        shifted[0] += newton[k]
        d = shifted
    return _expand(d, n)


def _kronecker_pencil(m: IntMatrix, budget: int) -> Optional[tuple[int, list[int]]]:
    """(det(M + KQ), coefficients of det(M - tM^T) from it), or None if n * bit_length(K) > budget.

    M has even size n = 2g.  With Q = M + M^T and D(mu) = det(M - lambda Q) = sum_j d_j mu^j,
    mu = lambda (1 - lambda), as in transpose_pencil_det, the node
    lambda = -K gives det(M + KQ) = D(-K(K + 1)).  When every
    |d_j| < K(K + 1) / 2, the d_j are the balanced digits of that one
    integer in base -K(K + 1), and det(M - tM^T) =
    sum_j d_j t^j (1 + t)^(n - 2j) as there.  A singular M needs no
    reduction: its D has zero low digits.

    The bound.  On |mu| = 1 the two roots of lambda^2 - lambda + mu = 0
    multiply to mu, so one has |lambda| <= 1, and for it every entry of
    M - lambda Q has |m_ij - lambda q_ij| <= |m_ij| + |q_ij|.  Hadamard's
    inequality then gives |D(mu)| <= H = sqrt(prod_i s_i), with
    s_i = sum_j (|m_ij| + |q_ij|)^2 <= (||m_i|| + ||q_i||)^2, and Cauchy's
    estimate on the unit circle gives |d_j| <= H for every j.
    K = isqrt(isqrt(4 prod_i s_i)) + 1 has K^2 > sqrt(4 prod_i s_i) = 2H,
    so K(K + 1) / 2 > H.  The node sits at t = -K / (K + 1), neither 1
    nor -1, so the checks the Alexander polynomial gets there stay
    independent.

    The width n * bit_length(K) sets the size of the one determinant.
    The running product of the s_i stops as soon as it is over the
    budget, so a wide input pays for no more than that.  After g + 1
    digits the remainder must be 0, else InternalCheckError.  The node
    determinant is 0 only when D is 0: by Cauchy's bound the roots of a
    nonzero D lie within 1 + H of 0, and K(K + 1) > 2H + 1.
    """
    n = m.size
    # bit_length(K) <= w = budget // n exactly when 4 * prod_i s_i < (2^w - 1)^4.
    cap = ((1 << (budget // max(n, 1))) - 1) ** 4
    hh = 4
    for row, col in zip(m.rows, zip(*m.rows)):
        hh *= sum((abs(x) + abs(x + y)) ** 2 for x, y in zip(row, col))
        if hh >= cap:
            return None
    k = isqrt(isqrt(hh)) + 1
    base = k * (k + 1)
    node = det(_shifted(zip(m.rows, zip(*m.rows)), k))
    value = node
    d = []
    for _ in range(n // 2 + 1):
        digit = value % base
        if 2 * digit >= base:
            digit -= base
        d.append(digit)
        value = (value - digit) // -base
    if value:
        raise InternalCheckError(
            f"node determinant {node} leaves a remainder after {n // 2 + 1} digits in base {-base}"
        )
    return node, _expand(d, n)


def _shifted(pairs: Iterable[tuple[tuple[int, ...], tuple[int, ...]]], k: int) -> IntMatrix:
    """M + k(M + M^T), from the pairs (row i, column i) of M."""
    return IntMatrix(tuple([tuple([x + k * (x + y) for x, y in zip(r, c)]) for r, c in pairs]))


def _expand(d: list[int], n: int) -> list[int]:
    """Coefficients, constant first, of sum_j d_j t^j (1 + t)^(n - 2j)."""
    coeffs = [0] * (n + 1)
    for j, dj in enumerate(d):
        for i in range(n - 2 * j + 1):
            coeffs[i + j] += dj * comb(n - 2 * j, i)
    return coeffs


def signature_and_det(q: IntMatrix) -> tuple[int, int]:
    """Signature and determinant of a symmetric integer matrix, in one pass.

    Bareiss elimination with symmetric (diagonal) pivoting keeps the
    working matrix symmetric, and its pivot after k steps is the leading
    principal minor D_(k+1) of a matrix congruent to Q.  The signs of
    D_(k+1) / D_k are the signs of the diagonal of an LDL^T factorization,
    so by Sylvester's law of inertia they add up to the signature.  When
    the remaining diagonal is all zero but some entry a_ij is not, the
    unimodular congruence b_i += b_j makes a_ii = 2 a_ij a pivot.  A zero
    trailing block holds zero eigenvalues only, and then det Q = 0;
    otherwise the last pivot is det Q.  Every division is exact
    (Bareiss 1968), so O(n^3) integer operations suffice.  The congruence
    and the symmetric swap run over the whole working matrix: rows and
    columns before k are never read again.
    """
    if not q.is_symmetric():
        raise ValueError("signature requires a symmetric matrix")
    n = q.size
    a = [list(row) for row in q.rows]
    sig = 0
    prev = 1
    for k in range(n):
        for p in range(k, n):
            if a[p][p]:
                break
        else:
            # No diagonal pivot: take the first nonzero a_pj, p < j, row by row.
            for p in range(k, n):
                row_p = a[p]
                for j in range(p + 1, n):
                    if row_p[j]:
                        break
                else:
                    continue
                break
            else:
                return sig, 0
            _add_multiple(a, p, j, 1)
        if p != k:
            _swap(a, k, p)
        pivot = a[k][k]
        sig += 1 if (pivot > 0) == (prev > 0) else -1
        _eliminate(a, k, prev)
        prev = pivot
    return sig, prev


def skew_standardize(s: IntMatrix) -> IntMatrix:
    """Unimodular A with A * S * A^T equal to the standard symplectic form.

    Requires S skew-symmetric of even size with determinant 1.  Pivots on
    a minimal-absolute-value nonzero entry above the diagonal (ties broken
    by lowest row, then column, index).  The operations are congruences,
    so the working matrix stays skew: its diagonal is 0 and each entry
    below it negates one above that comes first in row-major order.  So
    the pivot is the first minimal entry of the whole block.  Paired
    row/column operations then run until the leading 2x2 block is
    [[0, p], [-p, 0]] and splits off; then recurses on the rest.  The pivot rule makes the output deterministic.
    The pivots decide det S = 1 without a determinant: the operations are
    unimodular, so det S = p^2 * det(rest), where det(rest) is the square
    of a Pfaffian, and an all-zero block means det S = 0.  So det S = 1
    exactly when every pivot is 1, and the first zero block or pivot
    p > 1 rejects S.
    """
    n = s.size
    if n % 2:
        raise ValueError("skew standardization requires even size")
    if not s.is_skew_symmetric():
        raise ValueError("input must be skew-symmetric")
    w = [list(row) for row in s.rows]
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap(i: int, j: int) -> None:
        _swap(w, i, j)
        a[i], a[j] = a[j], a[i]

    def add_row(i: int, j: int, c: int) -> None:
        _add_multiple(w, i, j, c)
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]

    k = 0
    while k < n:
        best: tuple[int, int] | None = None
        for i in range(k, n):
            for j in range(i + 1, n):
                v = w[i][j]
                if v != 0 and (best is None or abs(v) < abs(w[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            raise ValueError("input must have determinant 1")
        i, j = best
        if i != k:
            swap(i, k)
        if j != k + 1:
            swap(j, k + 1)
        pivot = w[k][k + 1]
        if pivot < 0:
            swap(k, k + 1)
            pivot = -pivot
        clean = True
        for l in range(k + 2, n):
            # w[k][l] shifts by c * pivot under add_row(l, k+1, c).
            q, r = divmod(w[k][l], pivot)
            if q:
                add_row(l, k + 1, -q)
            if r:
                clean = False
            # w[k+1][l] shifts by -c * pivot under add_row(l, k, c).
            q, r = divmod(w[k + 1][l], pivot)
            if q:
                add_row(l, k, q)
            if r:
                clean = False
        if clean:
            if pivot != 1:
                raise ValueError("input must have determinant 1")
            k += 2
    return IntMatrix.from_rows(a)


def parse_matrix(text: str) -> IntMatrix:
    """Parse the matrix text format: first line the size m, then m rows.

    The empty matrix is the single line "0".
    """
    lines = nonblank_lines(text, strip=False)
    if not lines:
        raise ValueError("empty matrix file")
    # The whole stripped line is one token: "2 3" is not an integer either.
    n = integer(lines[0].strip(), lines[0], "size")
    if n < 0:
        raise ValueError("matrix size must be non-negative")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        entries = ints(line.split(), line, "row")
        if len(entries) != n:
            raise ValueError(f"expected {n} entries per row, got {len(entries)}")
        rows.append(entries)
    return IntMatrix(tuple(rows))


def format_matrix(m: IntMatrix) -> str:
    lines = [str(m.size)]
    for row in m.rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
