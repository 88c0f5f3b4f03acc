"""Seifert matrices, their abelian invariants, and S-equivalence moves.

A Seifert matrix is a square integer matrix M of even size with
det(M - M^T) = 1.  Congruence by unimodular matrices and row/column
enlargements generate S-equivalence; the invariants computed here
(Alexander polynomial, signature, determinant, Arf) are constant on each
S-equivalence class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from functools import cache
from math import isqrt
from typing import Optional, Sequence

from .intlin import (
    IntMatrix,
    InternalCheckError,
    _add_multiple,
    _kronecker_pencil,
    _negate,
    _transpose_pencil,
    det,
    det_or_left_kernel,
    signature_and_det,
)
from .laurent import LaurentPoly

__all__ = [
    "SeifertMatrix",
    "validate",
    "alexander",
    "alexander_raw",
    "Invariants",
    "invariants",
    "column_enlarge",
    "row_enlarge",
    "try_reduce",
    "reduce_fully",
    "SearchBudget",
    "SearchResult",
    "Move",
    "CongruenceMove",
    "ReduceMove",
    "EnlargeMove",
    "NegateMove",
    "apply_moves",
    "bounded_sequiv_search",
]

# The widest one-determinant Alexander pencil, in bits: n * bit_length(K)
# for an n x n matrix (see alexander_raw).  Wider ones reduce and
# interpolate.  On scrambled block sums one determinant was measured
# faster up to about 1100 and slower from about 1300 (README design notes).
_NARROW_BUDGET = 900


@dataclass(frozen=True)
class SeifertMatrix:
    """A validated Seifert matrix; construct through validate().

    Results whose det(N - N^T) = 1 follows from a valid input are wrapped
    directly: enlargements and reductions (see _enlarge and try_reduce),
    reduce_fully's unimodular moves, standardform's from_disk_band, whose
    N - N^T = X holds by construction, and standardform's A * M * A^T,
    kept only once is_standardized certifies it: N - N^T = X makes A
    unimodular, and then det(N - N^T) = det(A)^2 * det(M - M^T) = 1.
    """

    matrix: IntMatrix

    @property
    def size(self) -> int:
        return self.matrix.size

    @property
    def genus(self) -> int:
        return self.matrix.size // 2


def validate(m: IntMatrix) -> SeifertMatrix:
    """Wrap m as a Seifert matrix, checking both defining invariants."""
    if m.size % 2:
        raise ValueError(f"Seifert matrix must have even size, got {m.size}")
    pairing = det(m - m.transpose())
    if pairing != 1:
        raise ValueError(f"det(M - M^T) must be 1, got {pairing}")
    return SeifertMatrix(m)


def alexander_raw(sm: SeifertMatrix) -> LaurentPoly:
    """The unnormalized polynomial det(M - t * M^T), from one determinant when that is narrow.

    Each reduction (see reduce_fully) multiplies det(M - tM^T) by
    exactly t.  While the matrix has a zero row, a reduction costs no
    elimination (_reduce finds the row itself and strips in place), so
    those go first, to an M' of size r; a matrix with no zero row is
    M' itself, uncopied.  Then:

    - If r * bit_length(K) <= _NARROW_BUDGET for M', intlin's
      _kronecker_pencil reads det(M' - tM'^T) off the balanced digits of
      the one determinant det(M' + K(M' + M'^T)), with K from a proven
      bound on the digits (its docstring has the proof).  A singular M'
      needs no further reduction: it only gives zero low digits.  The
      node determinant is 0 only for a zero pencil, and
      det(M' - M'^T) = 1 rules that out, so a 0 raises
      InternalCheckError, as does a remainder after the digits.
    - Otherwise the reduction goes on to a nonsingular N of size s, and
      the pencil of N is interpolated by intlin's transpose_pencil_det
      body, with the last kernel pass's det N as node k = 0.  Its
      constant and leading coefficients are det N, and a zero det N or
      any other value raises InternalCheckError.

    The result is t^((n - r) / 2) det(M' - tM'^T), or
    t^((n - s) / 2) det(N - tN^T).  No node is t = 1 or t = -1 (the
    Kronecker node is t = -K / (K + 1), the others t = -k / (k + 1),
    k = 0..s/2), so the check delta(1) = 1 and the cross-check against
    det(M + M^T) of the original M compare independent computations.
    """
    m, _, _ = _reduce(sm.matrix, eliminate=False)
    narrow = _kronecker_pencil(m, _NARROW_BUDGET)
    if narrow is not None:
        node, coeffs = narrow
        if node == 0:
            raise InternalCheckError(f"Kronecker node determinant of a {m.size}x{m.size} matrix is 0")
        return LaurentPoly.of((sm.size - m.size) // 2, coeffs)
    reduced, _, det_n = _reduce(m)
    if det_n == 0:
        raise InternalCheckError(f"reduced matrix of size {reduced.size} is singular")
    coeffs = _transpose_pencil(reduced, det_n)
    if coeffs[0] != det_n or coeffs[-1] != det_n:
        raise InternalCheckError(
            f"pencil of the reduced matrix ends in {coeffs[0]} and {coeffs[-1]}, not det N = {det_n}"
        )
    return LaurentPoly.of((sm.size - reduced.size) // 2, coeffs)


def alexander(sm: SeifertMatrix) -> LaurentPoly:
    """The Alexander polynomial t**(-g) * det(M - t * M^T).

    The result always satisfies delta(1) = 1 and delta(1/t) = delta(t);
    both are checked, and a failure raises InternalCheckError.
    """
    delta = alexander_raw(sm).shift(-sm.genus)
    if delta.evaluate(1) != 1:
        raise InternalCheckError(f"Alexander polynomial {delta} does not take value 1 at t=1")
    if not delta.is_palindromic():
        raise InternalCheckError(f"Alexander polynomial {delta} is not palindromic")
    return delta


@dataclass(frozen=True)
class Invariants:
    """The four S-equivalence invariants of one Seifert matrix."""

    alexander: LaurentPoly
    signature: int
    determinant: int
    arf: int


def _invariants(sm: SeifertMatrix, delta: LaurentPoly) -> Invariants:
    """The record of sm, whose Alexander polynomial is delta, with delta(-1) read once.

    The signature and |det(M + M^T)| come from one pass.  delta(-1) =
    (-1)^g det(M + M^T) and det(M + M^T) has the sign
    (-1)^((n - sigma) / 2), so |delta(-1)| = |det(M + M^T)| and
    sign delta(-1) = (-1)^(sigma / 2).  delta comes from alexander_raw,
    whose nodes leave out t = -1: independent code;
    a failure raises InternalCheckError.  The Arf invariant is 0 when
    delta(-1) is congruent to +-1 mod 8, else 1.
    """
    sig, d = signature_and_det(sm.matrix + sm.matrix.transpose())
    at_minus_one = delta.evaluate(-1)
    if abs(d) != abs(at_minus_one):
        raise InternalCheckError(
            f"determinant cross-check failed: |det(M + M^T)| = {abs(d)}, delta(-1) = {at_minus_one}"
        )
    if sig % 2 or (at_minus_one < 0) != (sig % 4 == 2):
        raise InternalCheckError(
            f"signature cross-check failed: signature {sig}, delta(-1) = {at_minus_one}"
        )
    return Invariants(delta, sig, abs(d), 0 if at_minus_one % 8 in (1, 7) else 1)


def invariants(sm: SeifertMatrix) -> Invariants:
    """All four invariants, with the Alexander polynomial computed once."""
    return _invariants(sm, alexander(sm))


def column_enlarge(sm: SeifertMatrix, xi: Sequence[int], x: int) -> SeifertMatrix:
    """Append the block [[M, xi, 0], [0, x, 1], [0, 0, 0]].

    Preserves the Alexander polynomial, signature, determinant and Arf
    invariant, and multiplies the unnormalized polynomial by exactly t.
    """
    return _enlarge(sm, "column", xi, x)


def row_enlarge(sm: SeifertMatrix, eta: Sequence[int], x: int) -> SeifertMatrix:
    """Append the block [[M, 0, 0], [eta, x, 0], [0, 1, 0]]: column_enlarge(M^T, eta, x)^T."""
    return _enlarge(sm, "row", eta, x)


def _enlarge(sm: SeifertMatrix, kind: str, v: Sequence[int], x: int) -> SeifertMatrix:
    """The enlargement of the given kind, wrapped without a determinant.

    The last row and column of M' - M'^T each hold a single +-1, at index
    n, so two cofactor expansions give det(M' - M'^T) = +-det(M - M^T);
    both are determinants of skew forms, hence squares, so the sign is +
    and det(M' - M'^T) = 1.
    """
    v = tuple(int(e) for e in v)
    if len(v) != sm.size:
        raise ValueError(f"{kind} must have length {sm.size}, got {len(v)}")
    return SeifertMatrix(IntMatrix(_enlarged_rows(sm.matrix.rows, kind, v, int(x))))


def _transpose(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*rows))


def _enlarged_rows(
    rows: tuple[tuple[int, ...], ...], kind: str, v: tuple[int, ...], x: int
) -> tuple[tuple[int, ...], ...]:
    """The rows of [[M, v, 0], [0, x, 1], [0, 0, 0]]; for kind "row", those of M^T, transposed."""
    if kind == "row":
        return _transpose(_enlarged_rows(_transpose(rows), "column", v, x))
    n = len(rows)
    body = tuple(row + (e, 0) for row, e in zip(rows, v))
    return body + ((0,) * n + (x, 1), (0,) * (n + 2))


def _column_pattern(rows: tuple[tuple[int, ...], ...], p: int, q: int) -> bool:
    """A column-enlargement site (p, q); a row site of M is a column site of M^T."""
    n = len(rows)
    if any(rows[q][l] for l in range(n)):
        return False
    if rows[p][q] != 1:
        return False
    if any(rows[l][q] for l in range(n) if l != p):
        return False
    return not any(rows[p][l] for l in range(n) if l not in (p, q))


def _strip(rows: tuple[tuple[int, ...], ...], p: int, q: int) -> tuple[tuple[int, ...], ...]:
    keep = [i for i in range(len(rows)) if i not in (p, q)]
    return tuple(tuple(rows[i][j] for j in keep) for i in keep)


def try_reduce(sm: SeifertMatrix) -> Optional[SeifertMatrix]:
    """Strip one enlargement if the matrix matches a block pattern.

    Only simultaneous permutation congruences are searched: a pair of
    indices (p, q) is moved to the last two positions and the column or
    row pattern is matched, by the search's site rule on the packed
    matrix (_PackedStates.sites).  The first site in the order of p,
    then q, descending is stripped, so reducing an enlarged matrix
    undoes the enlargement that produced it.  Returns None when no
    pattern matches.

    The result takes no determinant.  At a site, row q and column q of
    S = M - M^T each hold a single +-1, at index p, so two cofactor
    expansions give det S = +-det S', where S' = M' - M'^T strips p and
    q; det S' is the determinant of a skew form, a square, so
    det S' = det S = 1.
    """
    rows = sm.matrix.rows
    packed = _PackedStates(0, rows)
    for p, q, _kind in packed.sites(packed.pack(rows), len(rows)):
        return SeifertMatrix(IntMatrix(_strip(rows, p, q)))
    return None


def reduce_fully(sm: SeifertMatrix) -> tuple[SeifertMatrix, tuple[Move, ...]]:
    """A nonsingular matrix S-equivalent to sm, with the moves that reach it.

    While det M = 0 (Trotter 1973, Levine 1970), with u primitive and
    u^T M = 0, e_q for the first zero row q of M, found without
    elimination, or else from intlin.det_or_left_kernel:
      1. E[i,j;c] maps u_j to u_j - c u_i; Euclid steps reach u = +-e_q,
         and then row q of M is zero.
      2. Column q is now column q of the unimodular M - M^T, so it is
         primitive; E[l,p;c] with l, p != q keeps row q zero, and Euclid
         steps reach column q = +-e_p.
      3. NegateMove(q) turns entry (p, q) into 1 if it is -1.
      4. E[i,q;c] changes only entry (p, i); it clears row p outside
         (p, p) and (p, q), and ReduceMove(p, q, "column") strips the
         enlargement pattern left behind.
    Steps 3 and 4 change only column q and row p, which the strip
    removes, so they are recorded in the moves but not applied.
    A matrix with Alexander polynomial 1 reduces to the empty matrix, and
    the size of the result is the degree span of the polynomial.  The
    moves replay through apply_moves.  A row q that is not zero after
    step 1, or an entry (p, q) that is not +-1 after step 2, raises
    InternalCheckError.  Every move is unimodular, so det(N - N^T) = 1
    is known and the result is not validated again.
    """
    reduced, moves, _ = _reduce(sm.matrix)
    return SeifertMatrix(reduced), tuple(moves)


def _reduce(m: IntMatrix, eliminate: bool = True) -> tuple[IntMatrix, list[Move], Optional[int]]:
    """(reduced matrix, moves, its det); see reduce_fully.

    The zero-row rule lives here: the first zero row q is taken as
    u = e_q without elimination, and det_or_left_kernel runs only on a
    matrix with no zero row.  The matrix is held as one list of lists
    across steps, and rows and columns p and q are deleted in place.
    Steps 3 and 4 are recorded, not applied: row q is zero and column q
    is +-e_p, so they change only column q and row p, which the step
    strips.  An input that needs no step is returned as it is, with no
    copy.  With eliminate False it stops at the first matrix with no
    zero row, before det_or_left_kernel would eliminate, and returns
    det None.
    """
    moves: list[Move] = []
    w = m.rows  # the working list of lists from the first step on
    while True:
        q = next((k for k, row in enumerate(w) if not any(row)), None)
        if q is None:
            if moves:
                m = IntMatrix(tuple(map(tuple, w)))
            det_m, u = det_or_left_kernel(m) if eliminate else (None, None)
            if u is None:
                return m, moves, det_m
        w = w if moves else [list(row) for row in w]
        if q is None:
            u = list(u)
            # 1. Euclid on u, down to +-e_q.
            support = [k for k, x in enumerate(u) if x]
            while len(support) > 1:
                q = min(support, key=lambda k: abs(u[k]))
                for j in support:
                    if j != q:
                        c = u[j] // u[q]
                        moves.append(_congruence(w, q, j, c))
                        u[j] -= c * u[q]
                support = [k for k in support if u[k]]
            q = support[0]
            if any(w[q]):
                raise InternalCheckError(f"row {q + 1} is not zero after clearing the kernel vector")
        # 2. Euclid on column q, down to +-e_p.
        support = [l for l, row in enumerate(w) if row[q]]
        while len(support) > 1:
            p = min(support, key=lambda l: abs(w[l][q]))
            for l in support:
                if l != p:
                    moves.append(_congruence(w, l, p, -(w[l][q] // w[p][q])))
            support = [l for l in support if w[l][q]]
        if len(support) != 1 or abs(w[support[0]][q]) != 1:
            raise InternalCheckError(f"column {q + 1} does not reduce to a unit vector")
        p = support[0]
        # 3. Entry (p, q) to 1: NegateMove(q) changes column q only.
        if w[p][q] == -1:
            moves.append(NegateMove(q))
        # 4. E[i,q;c] changes only entry (p, i): clear row p outside (p, p)
        # and (p, q), then strip p and q.
        moves.extend(CongruenceMove(i, q, -x) for i, x in enumerate(w[p]) if x and i != p and i != q)
        moves.append(ReduceMove(p, q, "column"))
        lo, hi = sorted((p, q))
        del w[hi], w[lo]
        for row in w:
            del row[hi], row[lo]


def _congruence(w: list[list[int]], i: int, j: int, c: int) -> CongruenceMove:
    """E[i,j;c] M E^T in place, by intlin's _add_multiple, and the move that records it."""
    _add_multiple(w, i, j, c)
    return CongruenceMove(i, j, c)


# ---------------------------------------------------------------------------
# Bounded search for an explicit S-equivalence witness.


@dataclass(frozen=True)
class CongruenceMove:
    """Congruence by the elementary matrix I + c * e(i, j), 0-indexed.

    E M E^T adds c times row j to row i, then c times column j to
    column i, so it changes only row i and column i.  apply_rows runs
    intlin's _add_multiple, the list kernel that reduce_fully uses, with
    no bound on c or on the entries.  The search never calls it: it
    builds each congruence child on the packed int of its parent, and
    keeps it only within max_entry (see _breadth_first).
    """

    i: int
    j: int
    c: int

    def apply_rows(self, rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
        w = [list(row) for row in rows]
        _add_multiple(w, self.i, self.j, self.c)
        return tuple(map(tuple, w))

    def describe(self) -> str:
        return f"congruence E[{self.i + 1},{self.j + 1};{self.c:+d}]"


@dataclass(frozen=True)
class ReduceMove:
    p: int
    q: int
    kind: str

    def apply_rows(self, rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
        frame = rows if self.kind == "column" else _transpose(rows)
        if not _column_pattern(frame, self.p, self.q):
            raise ValueError("reduction pattern does not match")
        return _strip(rows, self.p, self.q)

    def describe(self) -> str:
        return f"reduce {self.kind} ({self.p + 1},{self.q + 1})"


@dataclass(frozen=True)
class EnlargeMove:
    kind: str
    x: int = 0

    def apply_rows(self, rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
        return _enlarged_rows(rows, self.kind, (0,) * len(rows), self.x)

    def describe(self) -> str:
        return f"enlarge {self.kind} x={self.x}"


@dataclass(frozen=True)
class NegateMove:
    """Congruence by diag(1, ..., -1, ..., 1), the -1 at index i.

    It negates row i and column i, leaving entry (i, i) as it was, has
    determinant -1 and is its own inverse.  reduce_fully uses it, through
    the same list kernel, intlin's _negate; the search never does.
    """

    i: int

    def apply_rows(self, rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
        w = [list(row) for row in rows]
        _negate(w, self.i)
        return tuple(map(tuple, w))

    def describe(self) -> str:
        return f"negate basis vector {self.i + 1}"


Move = CongruenceMove | ReduceMove | EnlargeMove | NegateMove


def apply_moves(sm: SeifertMatrix, moves: Sequence[Move]) -> SeifertMatrix:
    """Replay moves from sm, one after another, and validate the result.

    Each move is checked against the size n of the matrix it meets: an
    index outside 0..n-1, or two equal indices (i == j, p == q), raises
    ValueError naming the move, and so does a reduction or enlargement
    whose kind is not "column" or "row".  A reduction whose pattern does
    not match raises ValueError too.
    """
    rows = sm.matrix.rows
    for move in moves:
        n = len(rows)
        match move:
            case ReduceMove(kind=kind) | EnlargeMove(kind=kind) if kind not in ("column", "row"):
                raise ValueError(f"{move!r} has kind {kind!r}, not column or row")
            case CongruenceMove(i, j) | ReduceMove(i, j):
                bad = i == j or not (0 <= i < n and 0 <= j < n)
            case NegateMove(i):
                bad = not 0 <= i < n
            case _:
                bad = False
        if bad:
            raise ValueError(f"{move!r} is not a move of a {n}x{n} matrix")
        rows = move.apply_rows(rows)
    return validate(IntMatrix(rows))


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the breadth-first witness search.

    max_size None, the default, allows matrices two rows larger than the
    larger input.  Raises ValueError for a limit no search can work
    within: max_nodes below 1, or a negative max_entry or max_size.
    """

    max_size: Optional[int] = None
    max_entry: int = 8
    max_nodes: int = 20000

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be at least 1, got {self.max_nodes}")
        if self.max_entry < 0:
            raise ValueError(f"max_entry must be non-negative, got {self.max_entry}")
        if self.max_size is not None and self.max_size < 0:
            raise ValueError(f"max_size must be non-negative, got {self.max_size}")


@dataclass(frozen=True)
class SearchResult:
    verdict: str  # "equivalent" | "distinct" | "unknown"
    witness: Optional[tuple[Move, ...]] = None
    reason: str = ""


def bounded_sequiv_search(
    m1: SeifertMatrix, m2: SeifertMatrix, budget: SearchBudget = SearchBudget()
) -> SearchResult:
    """Decide S-equivalence within a search budget.

    Returns "distinct" only when a computed invariant differs, and
    "equivalent" only with an explicit move witness transforming m1 into
    m2.  Breadth-first search with moves enumerated in a fixed order
    yields the lexicographically least minimal-length witness;
    exhausting the budget gives the honest verdict "unknown".
    """
    d1, d2 = alexander(m1), alexander(m2)
    if d1 != d2:
        return SearchResult("distinct", reason="alexander differs")
    i1, i2 = _invariants(m1, d1), _invariants(m2, d2)
    for field in fields(Invariants):
        if getattr(i1, field.name) != getattr(i2, field.name):
            return SearchResult("distinct", reason=f"{field.name} differs")

    max_size = budget.max_size
    if max_size is None:
        max_size = max(m1.size, m2.size) + 2

    start = m1.matrix.rows
    target = m2.matrix.rows
    if start == target:
        return SearchResult("equivalent", witness=())

    packed = _PackedStates(budget.max_entry, start, target)
    start, target = packed.pack(start), packed.pack(target)
    return _breadth_first(packed, start, target, max_size, budget.max_nodes)[0]


def _breadth_first(
    packed: _PackedStates, start: int, target: int, max_size: int, max_nodes: int
) -> tuple[SearchResult, dict[int, Optional[tuple[int, Move]]]]:
    """The search of bounded_sequiv_search on packed states, and the states it stored.

    The loop builds each child on the int and looks it up among the
    stored states first: an int outside max_entry is never a stored
    state, and the children already stored (38 % of those a 4000-state
    trefoil search builds) skip the bound test.  A new child is stored
    only while fewer than max_nodes states are; one found at the limit
    exhausts the budget.  The moves, their order and the children are
    those of tests/gens.py's reference_children: reductions, from the
    sites of _PackedStates.sites, with the state unpacked only when it
    has one; congruences, two shifted adds each, kept within max_entry;
    and, when n + 2 <= max_size, the column and the row enlargement,
    re-strided.
    The congruence layout is fetched only after the reductions, so a
    search that stops at a reduction builds none.  The second value maps
    each stored state, in the order stored, to None (the start) or to
    its parent and the move from it.
    """
    parents: dict[int, Optional[tuple[int, Move]]] = {start: None}
    frontier: deque[int] = deque([start])
    append = frontier.append

    def store(child: int, parent: int, move: Move) -> Optional[SearchResult]:
        """Store a new child; the result if that ends the search."""
        if len(parents) >= max_nodes:
            return SearchResult("unknown", reason=f"budget exhausted after {len(parents)} states")
        parents[child] = parent, move
        if child == target:
            return SearchResult("equivalent", witness=_unwind(parents, child))
        append(child)
        return None

    # Most children are congruences, and their loop inlines store's common
    # case: it calls store only for a child that ends the search.
    while frontier:
        state = frontier.popleft()
        n = packed.size(state)
        sites = packed.sites(state, n)
        if sites:
            rows = packed.unpack(state)
            for p, q, kind in sites:
                child = packed.pack(_strip(rows, p, q))
                if child not in parents and (end := store(child, state, ReduceMove(p, q, kind))):
                    return end, parents
        moves, row_mask, row_h, column_mask, column_h, low, high, guards, strides, tails = (
            packed._layout(n)
        )
        for plus, minus, row_i, column_i, row_j, column_j in moves:
            step = (((state >> row_j) & row_mask) - row_h) << row_i
            half = state + step
            child = half + ((((half >> column_j) & column_mask) - column_h) << column_i)
            if child not in parents and ((child + low) ^ (child + high)) & guards == guards:
                if len(parents) >= max_nodes or child == target:
                    return store(child, state, plus), parents
                parents[child] = state, plus
                append(child)
            half = state - step
            child = half - ((((half >> column_j) & column_mask) - column_h) << column_i)
            if child not in parents and ((child + low) ^ (child + high)) & guards == guards:
                if len(parents) >= max_nodes or child == target:
                    return store(child, state, minus), parents
                parents[child] = state, minus
                append(child)
        if n + 2 <= max_size:
            wide = 0
            for old, new in strides:
                wide |= ((state >> old) & row_mask) << new
            for move, tail in tails:
                child = wide + tail
                if child not in parents and (end := store(child, state, move)):
                    return end, parents
    return SearchResult("unknown", reason=f"move space exhausted ({len(parents)} states)"), parents


@cache
def _congruence_moves(n: int) -> tuple[tuple[CongruenceMove, CongruenceMove], ...]:
    """The pairs (E[i,j;+1], E[i,j;-1]) on n x n states, in search order."""
    return tuple(
        (CongruenceMove(i, j, 1), CongruenceMove(i, j, -1))
        for i in range(n)
        for j in range(n)
        if j != i
    )


class _PackedStates:
    """Search states as Python ints, their reduction sites, and the layouts that build children.

    An n x n matrix is one int: entry (r, k) is the w-bit field at bit
    w * (r * n + k), holding x + H, with H = 4B + 1 and
    B = max(1, max_entry, the largest |entry| of the inputs).  The field
    width leaves one guard bit, of value G = 2^(w - 1) > 8B + 1, above
    every value a field takes:
      - a stored entry is at most B in absolute value: a congruence child
        is stored only within max_entry <= B, a reduction only drops
        entries, and an enlargement adds 0 and 1;
      - E[i,j;c] M E^T, c = +-1, adds up at most four stored entries, so
        before the check a child entry is at most 4B, and its field
        x + H lies in [1, 8B + 1], below G;
    so no field carries into its neighbour, and the whole-int sums below
    are the fieldwise sums.  Every field is nonzero, so an n x n state
    has between w (n^2 - 1) + 1 and w n^2 bits, and states of different
    sizes never collide (the empty matrix is 0).

    A congruence child is two shifted adds: c (row j - H ones) at row
    i, then c (column j - H ones) at column i, with column j read from
    the updated int through one mask.  A child is kept when every field
    lies in [H - max_entry, H + max_entry], the whole-matrix bound of
    tests/gens.py's reference_children, by one guard-bit test: with
    a = child + (G - lo) ones and b = child + (G - 1 - hi) ones, each
    field of a and b stays in [0, 2G), the guard bit of a is set exactly
    when the field is at least lo, that of b exactly when it is above
    hi, so a ^ b has every guard bit set exactly when every field is in
    range.

    An enlargement keeps M in its top left block, so its child is M's
    int with each of the n row blocks moved from stride w n to stride
    w (n + 2), plus a constant tail of its kind: H in every new field
    and 1 more at (n, n + 1), or at (n + 1, n) for a row enlargement.

    The reduction sites are found on the int too (see sites), from the
    row and column lines: a line's masked fields minus H ones is the
    balanced packed line, the sum of x_k 2^(s k) over its entries x_k,
    with s = w along a row and s = w n down a column.  Every |x_k| is at
    most B < G = 2^(w - 1) <= 2^(s - 1), so the balanced line is unique:
    it is 0 exactly when every entry is 0, and it is a power of two at
    a multiple of s, 2^(s p), exactly when entry p is 1 and the others
    are 0.  A power of two off those multiples would be an entry 2, 4,
    and so on.  Each search builds its own instance, and the per-size
    masks and layouts die with it.
    """

    def __init__(self, max_entry: int, *inputs: tuple[tuple[int, ...], ...]) -> None:
        bound = max(1, max_entry, *(abs(x) for rows in inputs for row in rows for x in row))
        self.offset = 4 * bound + 1
        self.width = (8 * bound + 1).bit_length() + 1
        self.max_entry = max_entry
        self._lines: dict[int, tuple] = {}
        self._sizes: dict[int, tuple] = {}

    def size(self, state: int) -> int:
        return isqrt(-(-state.bit_length() // self.width))

    def pack(self, rows: tuple[tuple[int, ...], ...]) -> int:
        """The state of rows, built a row at a time: n shifts of the rows so far, not n^2."""
        w, h = self.width, self.offset
        stride = w * len(rows)
        state = 0
        for row in reversed(rows):
            line = 0
            for x in reversed(row):
                line = (line << w) | (x + h)
            state = (state << stride) | line
        return state

    def unpack(self, state: int) -> tuple[tuple[int, ...], ...]:
        w, h = self.width, self.offset
        n = self.size(state)
        field = (1 << w) - 1
        entries = [((state >> shift) & field) - h for shift in range(0, w * n * n, w)]
        return tuple(tuple(entries[r * n : r * n + n]) for r in range(n))

    def _line_masks(self, n: int) -> tuple[int, int, int, int]:
        """Row mask, H ones of a row, column mask and H ones of a column, once per size."""
        masks = self._lines.get(n)
        if masks is None:
            w, h = self.width, self.offset
            field = (1 << w) - 1
            row_ones = sum(1 << (w * k) for k in range(n))
            column_ones = sum(1 << (w * n * r) for r in range(n))
            masks = (field * row_ones, h * row_ones, field * column_ones, h * column_ones)
            self._lines[n] = masks
        return masks

    def sites(self, state: int, n: int) -> list[tuple[int, int, str]]:
        """Every enlargement site (p, q, kind) of the n x n state, by p, then q, descending.

        A column site (p, q) needs row q's line to be 0; column q's line
        must then be one unit at a field boundary, 2^(w n p), which
        gives p; and row p's line, less its (p, p) and (p, q) fields,
        must be 0.  A row site is a column site of M^T: the same with
        rows and columns swapped.  A pair cannot be both, since a column
        site has row q zero and a row site has entry (q, p) = 1.  These
        are the sites _column_pattern matches, on M or on M^T.
        """
        w = self.width
        stride, field = w * n, (1 << w) - 1
        row_mask, row_h, column_mask, column_h = self._line_masks(n)
        sites = []
        for q in range(n):
            row = (state >> (stride * q)) & row_mask
            column = (state >> (w * q)) & column_mask
            # unit is the partner line of the zero line q; line p of the
            # frame, less its fields p and q, must be zero too.  A line
            # steps by along from one line to the next, a field by across.
            if row == row_h:
                unit, along, across, frame, frame_h, kind = (
                    column - column_h, stride, w, row_mask, row_h, "column"
                )
            elif column == column_h:
                unit, along, across, frame, frame_h, kind = (
                    row - row_h, w, stride, column_mask, column_h, "row"
                )
            else:
                continue
            if unit <= 0 or unit & (unit - 1):
                continue
            p, off = divmod(unit.bit_length() - 1, along)
            rest = frame ^ (field << (across * p)) ^ (field << (across * q))
            if not off and (state >> (along * p)) & rest == frame_h & rest:
                sites.append((p, q, kind))
        sites.sort(reverse=True)
        return sites

    def _layout(self, n: int) -> tuple:
        """Moves, shifts, masks, bound constants and enlargement tails of n x n states, once per size."""
        layout = self._sizes.get(n)
        if layout is None:
            w, h = self.width, self.offset
            guard = 1 << (w - 1)
            row_mask, row_h, column_mask, column_h = self._line_masks(n)
            row_ones = sum(1 << (w * k) for k in range(n))
            ones = row_ones * sum(1 << (w * n * r) for r in range(n))
            lo, hi = h - self.max_entry, h + self.max_entry
            shifts = [(w * n * i, w * i) for i in range(n)]
            # An enlargement moves row r from bit w n r to bit w (n + 2) r,
            # and adds a tail: H in each new field, plus 1 at (n, n + 1) for
            # a column enlargement or at (n + 1, n) for a row one.
            stride = w * (n + 2)
            kept_rows = sum(1 << (stride * r) for r in range(n))
            new_columns = (1 | 1 << w) << (w * n)
            new_rows = (1 | 1 << stride) << (stride * n)
            tail = h * ((row_ones | new_columns) * (kept_rows | new_rows) - row_ones * kept_rows)
            column_tail = tail + (1 << (stride * n + w * (n + 1)))
            row_tail = tail + (1 << (stride * (n + 1) + w * n))
            layout = self._sizes[n] = (
                tuple(
                    (plus, minus, *shifts[plus.i], *shifts[plus.j])
                    for plus, minus in _congruence_moves(n)
                ),
                row_mask,
                row_h,
                column_mask,
                column_h,
                (guard - lo) * ones,
                (guard - 1 - hi) * ones,
                guard * ones,
                tuple((w * n * r, stride * r) for r in range(n)),
                ((EnlargeMove("column"), column_tail), (EnlargeMove("row"), row_tail)),
            )
        return layout


def _unwind(parents, child) -> tuple[Move, ...]:
    moves = []
    while parents[child] is not None:
        child, move = parents[child]
        moves.append(move)
    return tuple(reversed(moves))
