"""Exact integer Laurent polynomials in one variable t.

Coefficients are arbitrary-precision integers, stored constant-first from
the lowest exponent.  Canonical form keeps the first and last stored
coefficients nonzero; the zero polynomial is the empty tuple with lowest
exponent 0.  Determinants run one Bareiss elimination over Z[t],
polynomial_matrix_det, which takes plain coefficient tuples and packs
each into one integer, its value at t = 2**b (Kronecker substitution),
with b wide enough that the packing loses nothing; the reduced-Burau
oracle of braidclosure feeds it directly, and signed_digits reads a
packed value back.  Everything here is exact, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Sequence

from . import InternalCheckError

__all__ = [
    "LaurentPoly",
    "format_laurent",
    "normalize_knot_polynomial",
    "polynomial_matrix_det",
    "signed_digits",
]


def _canonical(lo: int, coeffs: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    first, last = 0, len(coeffs)
    while first < last and coeffs[first] == 0:
        first += 1
    while last > first and coeffs[last - 1] == 0:
        last -= 1
    if first == last:
        return 0, ()
    return lo + first, tuple(coeffs[first:last])


@dataclass(frozen=True)
class LaurentPoly:
    """An integer Laurent polynomial sum(coeffs[m] * t**(lo + m))."""

    lo: int = 0
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.coeffs:
            if self.coeffs[0] == 0 or self.coeffs[-1] == 0:
                raise ValueError("coefficients not in canonical form; use LaurentPoly.of")
        elif self.lo != 0:
            raise ValueError("zero polynomial must have lo == 0")

    @classmethod
    def of(cls, lo: int, coeffs: Sequence[int]) -> "LaurentPoly":
        return cls(*_canonical(lo, coeffs))

    @property
    def hi(self) -> int:
        """Highest exponent with nonzero coefficient (lo for the zero polynomial)."""
        return self.lo + max(len(self.coeffs) - 1, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.lo, tuple(-c for c in self.coeffs))

    # No library path adds, subtracts or multiplies LaurentPolys (the
    # determinants run on packed integers), but this arithmetic stays:
    # the reference Z[t] Bareiss and Burau builder of the tests are
    # written on it, and perfbench counts calls of __mul__.
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        out = [0] * (hi - lo + 1)
        for m, c in enumerate(self.coeffs):
            out[self.lo - lo + m] += c
        for m, c in enumerate(other.coeffs):
            out[other.lo - lo + m] += c
        return LaurentPoly.of(lo, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly.of(self.lo, tuple(c * other for c in self.coeffs))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly.of(self.lo + other.lo, _pmul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t**k; the coefficients, already canonical, are kept."""
        return LaurentPoly(self.lo + k, self.coeffs) if self.coeffs else self

    def is_palindromic(self) -> bool:
        """True when p(1/t) = p(t)."""
        return self.lo == -self.hi and self.coeffs == self.coeffs[::-1]

    def evaluate(self, c: int) -> int:
        """Evaluate at an integer; negative exponents require c in {1, -1}."""
        if self.lo < 0 and c not in (1, -1):
            raise ValueError("negative exponents only evaluate at units 1, -1")
        total = 0
        for m, co in enumerate(self.coeffs):
            e = self.lo + m
            total += co * (c ** e if e >= 0 else c ** (-e))
        return total

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ValueError if the quotient is not exact."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        q = _pdivexact(self.coeffs, other.coeffs)
        return LaurentPoly.of(self.lo - other.lo, q)

    def __str__(self) -> str:
        return format_laurent(self)


LaurentPoly.one = LaurentPoly(0, (1,))


def format_laurent(p: LaurentPoly) -> str:
    """Render as "lo=<lowest exponent>; coeffs=<space-separated integers>"."""
    if p.is_zero():
        return "lo=0; coeffs=0"
    return "lo=%d; coeffs=%s" % (p.lo, " ".join(str(c) for c in p.coeffs))


def normalize_knot_polynomial(p: LaurentPoly) -> LaurentPoly:
    """Multiply by the unit +-t**m that makes p palindromic with value 1 at t=1.

    Raises ValueError when no such unit exists (the input is not a knot
    Alexander polynomial up to units).
    """
    if p.is_zero():
        raise ValueError("zero polynomial cannot be normalized")
    span = p.lo + p.hi
    if span % 2:
        raise ValueError("odd exponent span cannot be centered")
    q = p.shift(-(span // 2))
    at_one = q.evaluate(1)
    if at_one == -1:
        q = -q
    elif at_one != 1:
        raise ValueError(f"value at t=1 is {at_one}, not a unit")
    if not q.is_palindromic():
        raise ValueError("not palindromic after centering")
    return q


# ---------------------------------------------------------------------------
# Polynomial arithmetic on coefficient tuples, and the determinant of a
# polynomial matrix on Kronecker-packed integers.


def _pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for m, x in enumerate(a):
        for p, y in enumerate(b):
            out[m + p] += x * y
    return tuple(out)


def _pdivexact(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a:
        return ()
    if len(a) < len(b):
        raise ValueError("inexact polynomial division")
    rem = list(a)
    lead = b[-1]
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(b) - 1]
        if c % lead:
            raise ValueError("inexact polynomial division")
        qk = c // lead
        q[k] = qk
        for m, bc in enumerate(b):
            rem[k + m] -= qk * bc
    if any(rem):
        raise ValueError("inexact polynomial division")
    return tuple(q)


def signed_digits(v: int, b: int) -> list[int]:
    """The coefficients, constant first, of the polynomial p with p(2**b) = v.

    Each coefficient must lie strictly between -2**(b-1) and 2**(b-1);
    then p is unique and its last coefficient is nonzero ([] for v = 0).
    Raises ValueError for b < 2, which leaves no room for a nonzero digit.
    """
    if b < 2:
        raise ValueError(f"slot width must be at least 2 bits, got {b}")
    out = []
    mask = (1 << b) - 1
    half = 1 << (b - 1)
    while v:
        d = v & mask
        v >>= b
        if d >= half:
            d -= mask + 1
            v += 1
        out.append(d)
    return out


def _pack(coeffs: Sequence[int], b: int) -> int:
    """The value at t = 2**b of the polynomial with these coefficients."""
    v = 0
    for c in reversed(coeffs):
        v = (v << b) + c
    return v


def polynomial_matrix_det(rows: Sequence[Sequence[tuple[int, ...]]]) -> tuple[int, ...]:
    """Exact determinant of a square matrix over Z[t], as a plain coefficient tuple.

    Entries and result are constant-first coefficient tuples without
    trailing zeros; the zero polynomial is ().  Every entry is packed
    into one integer, its value at t = 2**b (Kronecker substitution),
    and one fraction-free Bareiss elimination runs over those integers:
    each later row becomes (row * pivot - a_ik * row_k) / prev, and a
    nonzero remainder raises InternalCheckError.

    The slot width b comes from Hadamard's bound on the unit circle.
    For |t| = 1 an entry is at most its l1 norm in absolute value, so
    every minor M(t) on rows I is at most the product over I of
    sqrt(sum of the squared l1 norms of the row); clamping each row's
    factor at 1 makes one bound H, the product over all rows, cover every
    minor.  A coefficient of a polynomial is at most its maximum on the
    unit circle, so every coefficient of every Bareiss pivot and entry,
    each a minor of the row-permuted matrix, is at most H < 2**(b-1).
    Then a packed value is zero exactly when its polynomial is, the
    pivot search needs no decoding, and the determinant is read back
    from its signed base-2**b digits.
    """
    m = len(rows)
    square = 1  # H**2
    for row in rows:
        if len(row) != m:
            raise ValueError("matrix must be square")
        norms = 0
        for e in row:
            if e and not e[-1]:
                raise ValueError("coefficient tuple has trailing zeros")
            l1 = sum(map(abs, e))
            norms += l1 * l1
        square *= max(norms, 1)
    if m == 0:
        return (1,)
    b = isqrt(square).bit_length() + 1
    a = [[_pack(e, b) for e in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(m - 1):
        if not a[k][k]:
            for r in range(k + 1, m):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return ()
        row_k = a[k]
        pivot = row_k[k]
        for row_i in a[k + 1:]:
            aik = row_i[k]
            for j in range(k + 1, m):
                q, r = divmod(row_i[j] * pivot - aik * row_k[j], prev)
                if r:
                    raise InternalCheckError("inexact Bareiss step over Z[t]")
                row_i[j] = q
        prev = pivot
    return tuple(signed_digits(sign * a[m - 1][m - 1], b))

