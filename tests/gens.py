"""Seeded random generators and hypothesis strategies shared across the test modules."""

import random
from collections import deque
from fractions import Fraction
from typing import Sequence

from hypothesis import strategies as st

from sequiv.braidclosure import ArtinBraidWord
from sequiv.intlin import (
    IntMatrix,
    InternalCheckError,
    _add_multiple,
    _negate,
    det,
    det_or_left_kernel,
    standard_symplectic,
)
from sequiv.laurent import LaurentPoly, _pdivexact, _pmul, normalize_knot_polynomial
from sequiv.purebraid import Letter, LinkingMatrix, PureBraidWord, linking_matrix
from sequiv.seifert import (
    CongruenceMove,
    EnlargeMove,
    Invariants,
    NegateMove,
    ReduceMove,
    SearchResult,
    SeifertMatrix,
    validate,
)
from sequiv.standardform import DiskBandForm, from_disk_band
from sequiv.stringlink import (
    _BAD_DOUBLE,
    DoubleIndex,
    DoubledStringLink,
    _check_counts,
    _pair_letters,
    pairwise_linking,
    position_of,
    strand_label,
)
from sequiv.textformat import dotted_pair, integer, nonblank_lines, read_framings, read_header


def random_unimodular(rng: random.Random, n: int, ops: int = 8) -> IntMatrix:
    """Product of elementary row additions applied to the identity."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n >= 2:
        for _ in range(ops):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.choice((1, -1))
            for l in range(n):
                rows[i][l] += c * rows[j][l]
    return IntMatrix.from_rows(rows)


def random_standardized(rng: random.Random, genus: int, bound: int = 3) -> SeifertMatrix:
    """Random N with N - N^T in standard form and entries within the bound."""
    n = 2 * genus
    framings = tuple(rng.randint(-bound, bound) for _ in range(n))
    entries = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            # dual band pairs pick up +1 above the diagonal; keep within bound
            hi = bound - 1 if (j == i + 1 and i % 2 == 1) else bound
            v = rng.randint(-bound, hi)
            if v:
                entries.append((i, j, v))
    return from_disk_band(DiskBandForm(genus, framings, LinkingMatrix(n, tuple(entries))))


# The genus-1 block [[a, b + 1], [b, d]] has M - M^T = [[0, 1], [-1, 0]].
# With D = ad - b(b + 1) = det M its Alexander polynomial is
# D t^-1 + (1 - 2D) + D t and det(M + M^T) = 4D - 1, so M + M^T is
# definite (signature 2 sign(a)) exactly when D >= 1.  A block sum
# multiplies polynomials and adds signatures; its determinant is the
# product of the |4D - 1| and its Arf invariant is the parity of the number
# of odd D, since delta(-1) = product of (1 - 4D).


def block_sum(blocks) -> SeifertMatrix:
    """Block diagonal sum of genus-1 blocks [[a, b + 1], [b, d]]."""
    n = 2 * len(blocks)
    rows = [[0] * n for _ in range(n)]
    for k, (a, b, d) in enumerate(blocks):
        i = 2 * k
        rows[i][i], rows[i][i + 1], rows[i + 1][i], rows[i + 1][i + 1] = a, b + 1, b, d
    return validate(IntMatrix.from_rows(rows))


def block_sum_invariants(blocks) -> Invariants:
    """The invariants of block_sum(blocks), in closed form."""
    delta = LaurentPoly.one
    sig, det, odd = 0, 1, 0
    for a, b, d in blocks:
        dd = a * d - b * (b + 1)
        delta = delta * LaurentPoly.of(-1, (dd, 1 - 2 * dd, dd))
        if dd >= 1:
            sig += 2 if a > 0 else -2
        det *= abs(4 * dd - 1)
        odd += dd % 2
    return Invariants(delta, sig, det, odd % 2)


def random_scrambled_seifert(rng: random.Random, genus: int, ops: int = 6):
    """A valid Seifert matrix together with a random congruent copy."""
    sm = random_standardized(rng, genus)
    a = random_unimodular(rng, sm.size, ops)
    return sm, a, validate(a * sm.matrix * a.transpose())


def widened(m: IntMatrix, c: int = 2**1000) -> IntMatrix:
    """E M E^T for E = I + c e(n - 1, 0), n >= 2: congruent to M, with entries near c and c^2.

    Its one-determinant Alexander pencil is far over seifert's width
    budget, so alexander_raw reduces it and interpolates: the input for
    tests of that path.
    """
    n = m.size
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows[-1][0] = c
    e = IntMatrix.from_rows(rows)
    return e * m * e.transpose()


def pencil_det(a: IntMatrix, b: IntMatrix) -> list[int]:
    """Coefficients, constant first, of the polynomial det(A - t * B).

    Its degree is at most n = size, so it is recovered exactly from its
    values at t = 0, 1, ..., n, each an integer Bareiss determinant.
    The reference for intlin.transpose_pencil_det; for tests.
    """
    a._check_size(b)
    pairs = list(zip(a.rows, b.rows))

    def at(k: int) -> IntMatrix:
        return IntMatrix(tuple(tuple(x - k * y for x, y in zip(ra, rb)) for ra, rb in pairs))

    return _interpolate([det(at(k)) for k in range(a.size + 1)])


def _interpolate(values: Sequence[int]) -> list[int]:
    """Coefficients, constant first, of the polynomial p with p(k) = values[k].

    Newton forward differences: p(t) = sum_j (D^j p(0) / j!) * t(t-1)...(t-j+1).
    For an integer polynomial every division by j! is exact; an inexact
    one raises InternalCheckError.
    """
    diffs = list(values)
    n = len(diffs)
    for j in range(1, n):
        for k in range(n - 1, j - 1, -1):
            diffs[k] -= diffs[k - 1]
    newton = []
    factorial = 1
    for j, d in enumerate(diffs):
        factorial *= max(j, 1)
        q, r = divmod(d, factorial)
        if r:
            raise InternalCheckError(f"forward difference {d} of order {j} is not divisible by {j}!")
        newton.append(q)
    # Horner in the falling-factorial basis: p = c_0 + t * (c_1 + (t - 1) * (c_2 + ...)).
    coeffs: list[int] = []
    for j in range(n - 1, -1, -1):
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= j * c
        shifted[0] += newton[j]
        coeffs = shifted
    return coeffs


def descartes_signature_and_det(q: IntMatrix) -> tuple[int, int]:
    """Reference signature and determinant of a symmetric q, by Descartes' rule.

    The roots of p(t) = det(Q - tI) are the eigenvalues of Q, all real, so
    the sign changes in the coefficients of p(t) count the positive ones,
    those of p(-t) the negative ones, and p(0) = det Q.  O(n^4): for tests.
    """
    p = pencil_det(q, IntMatrix.identity(q.size))

    def sign_changes(coeffs):
        signs = [c > 0 for c in coeffs if c]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    pos = sign_changes(p)
    neg = sign_changes(-c if k % 2 else c for k, c in enumerate(p))
    zero = next((k for k, c in enumerate(p) if c), len(p))
    if pos + neg + zero != q.size:
        raise AssertionError(f"Descartes counts {pos} + {neg} + {zero} do not add up to {q.size}")
    return pos - neg, p[0]


def fraction_det(m: IntMatrix) -> int:
    """Determinant by Gaussian elimination over the rationals.

    The reference for intlin.det and det_or_left_kernel; for tests.
    """
    a = [[Fraction(x) for x in row] for row in m.rows]
    n = len(a)
    result = Fraction(1)
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            result = -result
        result *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return int(result)


def fraction_signature_and_det(q: IntMatrix) -> tuple[int, int]:
    """Signature and determinant of a symmetric q by rational Schur complements.

    A nonzero diagonal entry d splits off a 1 x 1 block (signature
    sign d, determinant d).  When the diagonal is all zero, a nonzero
    a_ij splits off the 2 x 2 block [[0, a_ij], [a_ij, 0]] (signature 0,
    determinant -a_ij^2).  Each step replaces the rest by its Schur
    complement C - B P^-1 B^T.  The reference for
    intlin.signature_and_det; for tests.
    """
    a = [[Fraction(x) for x in row] for row in q.rows]
    sig, total = 0, Fraction(1)
    while a:
        n = len(a)
        i = next((i for i in range(n) if a[i][i]), None)
        if i is not None:
            block = [i]
            inverse = [[1 / a[i][i]]]
            sig += 1 if a[i][i] > 0 else -1
            total *= a[i][i]
        else:
            pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if a[i][j]), None)
            if pair is None:
                return sig, 0
            block = list(pair)
            v = a[pair[0]][pair[1]]
            inverse = [[0, 1 / v], [1 / v, 0]]
            total *= -v * v
        rest = [r for r in range(n) if r not in block]
        pairs = [(x, y, inverse[s][t]) for s, x in enumerate(block) for t, y in enumerate(block)]
        a = [
            [a[r][c] - sum(a[r][x] * f * a[y][c] for x, y, f in pairs) for c in rest]
            for r in rest
        ]
    return sig, int(total)


def reference_children(rows, max_size: int, max_entry: int) -> list:
    """The (move, child) list of one search expansion, built literally.

    Every enlargement site is tried through ReduceMove, every congruence
    child is a full copy of rows with a whole-matrix bound check, in the
    search order: reductions bottom-right first, then E[i,j;c] for i, j
    and c = +1, -1, then the two enlargements.  For tests.
    """
    n = len(rows)
    out = []
    for p in range(n - 1, -1, -1):
        for q in range(n - 1, -1, -1):
            for kind in ("column", "row"):
                move = ReduceMove(p, q, kind)
                try:
                    out.append((move, move.apply_rows(rows)))
                except ValueError:
                    pass
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for c in (1, -1):
                work = [list(r) for r in rows]
                for l in range(n):
                    work[i][l] += c * work[j][l]
                for row in work:
                    row[i] += c * row[j]
                child = tuple(tuple(r) for r in work)
                if max((abs(x) for r in child for x in r), default=0) <= max_entry:
                    out.append((CongruenceMove(i, j, c), child))
    if n + 2 <= max_size:
        for kind in ("column", "row"):
            out.append((EnlargeMove(kind), EnlargeMove(kind).apply_rows(rows)))
    return out


def reference_search(start, target, max_size: int, max_entry: int, max_nodes: int):
    """(SearchResult, stored states) of a literal breadth-first search over reference_children.

    The search part of seifert.bounded_sequiv_search, with the same
    budget rule and reason strings: rows tuples as states, a plain
    membership test, and a state stored only while fewer than max_nodes
    are stored; a new state found at the limit exhausts the budget.
    stored maps each stored state to None (the start) or to its parent
    and the move from it, in the order of discovery.  For tests.
    """
    stored = {start: None}
    if start == target:
        return SearchResult("equivalent", witness=()), stored
    frontier = deque([start])
    while frontier:
        rows = frontier.popleft()
        for move, child in reference_children(rows, max_size, max_entry):
            if child in stored:
                continue
            if len(stored) >= max_nodes:
                reason = f"budget exhausted after {len(stored)} states"
                return SearchResult("unknown", reason=reason), stored
            stored[child] = (rows, move)
            if child == target:
                witness = []
                while stored[child] is not None:
                    child, move = stored[child]
                    witness.insert(0, move)
                return SearchResult("equivalent", witness=tuple(witness)), stored
            frontier.append(child)
    return SearchResult("unknown", reason=f"move space exhausted ({len(stored)} states)"), stored


def _psub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    out = [0] * n
    for m, x in enumerate(a):
        out[m] = x
    for m, y in enumerate(b):
        out[m] -= y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def reference_polynomial_matrix_det(rows: Sequence[Sequence[tuple[int, ...]]]) -> tuple[int, ...]:
    """Bareiss elimination over Z[t] on coefficient tuples, one coefficient at a time.

    Entries and result are constant-first tuples without trailing zeros.
    Each later row becomes (row * pivot - a_ik * row_k) / prev, with the
    tuple product _pmul and the exact tuple division _pdivexact of
    sequiv.laurent, which the packed-integer polynomial_matrix_det does
    not use.  The reference for laurent.polynomial_matrix_det; for tests.
    """
    m = len(rows)
    if m == 0:
        return (1,)
    a = [list(row) for row in rows]
    sign = 1
    prev: tuple[int, ...] = (1,)
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
        for i in range(k + 1, m):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, m):
                num = _psub(_pmul(row_i[j], pivot), _pmul(aik, row_k[j]))
                row_i[j] = _pdivexact(num, prev)
        prev = pivot
    final = a[m - 1][m - 1]
    return final if sign > 0 else tuple(-c for c in final)


def laurent_matrix_det(rows: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant of a square matrix of Laurent polynomials; for tests.

    Every entry is multiplied by the t**up that clears the lowest
    exponent, so det = t**(-up * m) * reference_polynomial_matrix_det(...).
    """
    up = max(0, -min((e.lo for row in rows for e in row if not e.is_zero()), default=0))
    plain = [[(0,) * (e.lo + up) + e.coeffs if e.coeffs else () for e in row] for row in rows]
    return LaurentPoly.of(-up * len(rows), reference_polynomial_matrix_det(plain))


def reference_closure_permutation(w: ArtinBraidWord) -> tuple[int, ...]:
    """The permutation by a dense walk over every position; entry s-1 holds the end of s.

    The reference for braidclosure.closure_permutation; for tests.
    """
    at = list(range(w.strands + 1))  # at[p] = strand currently at position p
    for v in w.letters:
        i = abs(v)
        at[i], at[i + 1] = at[i + 1], at[i]
    ends = [0] * w.strands
    for p in range(1, w.strands + 1):
        ends[at[p] - 1] = p
    return tuple(ends)


def reference_components(w: ArtinBraidWord) -> int:
    """The cycles of reference_closure_permutation(w), counted with one flag per strand.

    The reference for braidclosure._components; for tests.
    """
    perm = reference_closure_permutation(w)
    seen = [False] * len(perm)
    count = 0
    for s in range(1, len(perm) + 1):
        if not seen[s - 1]:
            count += 1
            t = s
            while not seen[t - 1]:
                seen[t - 1] = True
                t = perm[t - 1]
    return count


def reference_knot_corpus(max_strands: int, max_length: int, seed: int, count: int) -> list[ArtinBraidWord]:
    """knot_corpus drawn with random.randint and a reference component count, without its checks.

    The reference for braidclosure.knot_corpus on limits it accepts and
    that converge; for tests.
    """
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < count:
        n = rng.randint(2, max_strands)
        if max_length < n - 1:
            continue
        length = rng.randint(n - 1, max_length)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
        if (n, letters) in seen:
            continue
        seen.add((n, letters))
        word = ArtinBraidWord(n, letters)
        if reference_components(word) == 1:
            out.append(word)
    return out


def reference_reduce(m: IntMatrix, eliminate: bool = True):
    """(reduced matrix, moves, its det) by the steps of seifert.reduce_fully, each applied.

    The matrix is rebuilt as an IntMatrix after every step, the kernel
    vector of a matrix with a zero row is e_q for the first zero row q,
    and steps 3 and 4 (NegateMove(q) and the E[i,q;c] that clear row p)
    are applied before p and q are stripped.  With eliminate False it
    stops at the first matrix with no zero row, with det None.  The
    reference for seifert._reduce; for tests.
    """
    moves = []
    while True:
        zero = [q for q, row in enumerate(m.rows) if not any(row)]
        if zero:
            det_m, u = 0, tuple(int(j == zero[0]) for j in range(m.size))
        elif not eliminate:
            return m, moves, None
        else:
            det_m, u = det_or_left_kernel(m)
            if u is None:
                return m, moves, det_m
        w = [list(row) for row in m.rows]
        n = len(w)
        u = list(u)
        support = [k for k in range(n) if u[k]]
        while len(support) > 1:
            q = min(support, key=lambda k: abs(u[k]))
            for j in support:
                if j != q:
                    c = u[j] // u[q]
                    _add_multiple(w, q, j, c)
                    moves.append(CongruenceMove(q, j, c))
                    u[j] -= c * u[q]
            support = [k for k in support if u[k]]
        q = support[0]
        if any(w[q]):
            raise InternalCheckError(f"row {q + 1} is not zero after clearing the kernel vector")
        support = [l for l in range(n) if w[l][q]]
        while len(support) > 1:
            p = min(support, key=lambda l: abs(w[l][q]))
            for l in support:
                if l != p:
                    c = -(w[l][q] // w[p][q])
                    _add_multiple(w, l, p, c)
                    moves.append(CongruenceMove(l, p, c))
            support = [l for l in support if w[l][q]]
        if len(support) != 1 or abs(w[support[0]][q]) != 1:
            raise InternalCheckError(f"column {q + 1} does not reduce to a unit vector")
        p = support[0]
        if w[p][q] == -1:
            _negate(w, q)
            moves.append(NegateMove(q))
        for i in range(n):
            if i not in (p, q) and w[p][i]:
                c = -w[p][i]
                _add_multiple(w, i, q, c)
                moves.append(CongruenceMove(i, q, c))
        keep = [i for i in range(n) if i not in (p, q)]
        m = IntMatrix(tuple(tuple(w[i][j] for j in keep) for i in keep))
        moves.append(ReduceMove(p, q, "column"))


def reference_burau_minus_identity(w: ArtinBraidWord) -> list[list[LaurentPoly]]:
    """The rows of rho(w) - I, one LaurentPoly per entry.

    rho(w) is built by one column update per letter: sigma_i sets column
    c = i - 1 to t (col[c-1] - col[c]) + col[c+1], sigma_i^-1 to
    col[c-1] + t^-1 (col[c+1] - col[c]), columns outside the matrix read
    as zero.  The reference for the packed entries of
    braidclosure._burau_matrix; for tests.
    """
    m = w.strands - 1
    zero = LaurentPoly()
    cols = [[LaurentPoly.one if a == b else zero for a in range(m)] for b in range(m)] + [[zero] * m]
    for v in w.letters:
        c = abs(v) - 1
        left, mid, right = cols[c - 1], cols[c], cols[c + 1]
        if v > 0:
            cols[c] = [(l - x).shift(1) + r for l, x, r in zip(left, mid, right)]
        else:
            cols[c] = [l + (r - x).shift(-1) for l, x, r in zip(left, mid, right)]
    rho = [list(row) for row in zip(*cols[:m])]
    for d, row in enumerate(rho):
        row[d] -= LaurentPoly.one
    return rho


def reference_burau_alexander(w: ArtinBraidWord) -> LaurentPoly:
    """det(rho(w) - I) / (1 + t + ... + t^(n-1)) over LaurentPoly objects, normalized.

    The reference for braidclosure.burau_alexander on knot closures;
    for tests.
    """
    det = laurent_matrix_det(reference_burau_minus_identity(w))
    return normalize_knot_polynomial(det.divexact(LaurentPoly.of(0, (1,) * w.strands)))


def random_skew_unimodular(rng: random.Random, genus: int, ops: int = 12) -> IntMatrix:
    """B * X_g * B^T for a random unimodular B."""
    b = random_unimodular(rng, 2 * genus, ops)
    return b * standard_symplectic(genus) * b.transpose()


def reference_product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The matrix product by the literal triple loop; the reference for IntMatrix.__mul__."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] += a[i][k] * b[k][j]
    return out


def reference_sum(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], sign: int = 1) -> list[list[int]]:
    """Entrywise a + sign * b by a double loop; the reference for + and -."""
    n = len(a)
    return [[a[i][j] + sign * b[i][j] for j in range(n)] for i in range(n)]


def reference_transpose(a: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(a)
    return [[a[j][i] for j in range(n)] for i in range(n)]


def random_symplectic(rng: random.Random, genus: int, ops: int = 6) -> IntMatrix:
    """Product of integer symplectic transvections I + c * v * v^T * X."""
    n = 2 * genus
    x = standard_symplectic(genus)
    result = IntMatrix.identity(n)
    for _ in range(ops):
        v = [rng.randint(-1, 1) for _ in range(n)]
        if not any(v):
            continue
        c = rng.choice((1, -1))
        vx = [sum(v[a] * x.rows[a][b] for a in range(n)) for b in range(n)]
        t = IntMatrix.from_rows(
            [[(1 if i == j else 0) + c * v[i] * vx[j] for j in range(n)] for i in range(n)]
        )
        result = t * result
    if (result * x * result.transpose()).rows != x.rows:
        raise AssertionError("random_symplectic built a matrix that does not preserve X")
    return result


def random_pure_braid(rng: random.Random, n: int, length: int) -> PureBraidWord:
    letters = []
    for _ in range(length):
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        letters.append((i, j, rng.choice((1, -1))))
    return PureBraidWord(n, tuple(letters))


def pure_braid_words(n: int):
    """Strategy: pure braid words on n strands, letters i < j with e = +-1."""
    if n < 2:
        return st.just(PureBraidWord(n))
    pairs = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True).map(sorted)
    letters = st.builds(lambda ij, e: (*ij, e), pairs, st.sampled_from((1, -1)))
    return st.lists(letters, max_size=12).map(lambda ls: PureBraidWord(n, tuple(ls)))


def reference_linking_table(w: PureBraidWord) -> list[list[int]]:
    """The dense, symmetric n x n braid linking table, 0-indexed.

    Adds each letter's exponent to both of its cells.  The reference for
    purebraid.linking_matrix; for tests on small strand counts.
    """
    table = [[0] * w.strands for _ in range(w.strands)]
    for i, j, e in w.letters:
        table[i - 1][j - 1] += e
        table[j - 1][i - 1] += e
    return table


def reference_pairwise_linking(link: DoubledStringLink) -> LinkingMatrix:
    """String-link linking numbers: alternating pass sums of braid linking.

    Builds the whole dense braid linking table and sums it over all pass
    pairs.  The reference for stringlink.pairwise_linking; for tests.
    """
    n, k = link.n, link.k
    table = reference_linking_table(link.braid)
    entries = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            total = 0
            for a in range(1, k + 1):
                pa = position_of((i, a), n, k)
                for b in range(1, k + 1):
                    pb = position_of((j, b), n, k)
                    total += (-1) ** (a + b) * table[pa - 1][pb - 1]
            if total:
                entries.append((i, j, total))
    return LinkingMatrix(n, tuple(entries))


def per_letter_pairwise_linking(link: DoubledStringLink) -> LinkingMatrix:
    """stringlink.pairwise_linking with both ends of every letter labelled anew.

    The reference that pairwise_linking, which labels each position
    once, must match; for tests.
    """
    n, k = link.n, link.k
    triples = []
    for p, q, e in link.braid.letters:
        i, a = strand_label(p, n, k)
        j, b = strand_label(q, n, k)
        if i != j:
            triples.append((i, j, e if (a + b) % 2 == 0 else -e))
    return LinkingMatrix.summed(n, triples)


def per_letter_parse_string_link(text: str) -> DoubledStringLink:
    """stringlink.parse_string_link with both tokens of every line read anew.

    Every line splits and int-parses its two "i.a" tokens, reads its
    exponent, then range-checks both positions, in that order.  The
    reference whose values and ValueError texts parse_string_link, which
    reads each distinct token once, must match; for tests.
    """
    lines = nonblank_lines(text)
    if len(lines) < 2:
        raise ValueError("string-link file needs a header and a framings line")
    n, k = read_header(lines, "n k", 'header must be "n <n> k <k>", got {!r}')
    _check_counts(n, k)
    framings = read_framings(lines)
    letters: list[Letter] = []
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"letter lines must be 'i.a j.b e', got {line!r}")
        idx1 = dotted_pair(parts[0], _BAD_DOUBLE)
        idx2 = dotted_pair(parts[1], _BAD_DOUBLE)
        e = integer(parts[2], line, "letter")
        p1 = position_of(idx1, n, k)
        p2 = position_of(idx2, n, k)
        if p1 == p2:
            raise ValueError(f"letter joins a strand to itself: {line!r}")
        letters.append((p1, p2, e) if p1 < p2 else (p2, p1, e))
    braid = PureBraidWord(n * k, tuple(letters))
    return DoubledStringLink(n, k, braid, framings)


def per_letter_format_string_link(link: DoubledStringLink) -> str:
    """stringlink.format_string_link with both ends of every letter labelled anew."""
    lines = [f"n {link.n} k {link.k}"]
    lines.append("framings " + " ".join(str(f) for f in link.framings))
    for p, q, e in link.braid.letters:
        i1, a1 = strand_label(p, link.n, link.k)
        i2, a2 = strand_label(q, link.n, link.k)
        lines.append(f"{i1}.{a1} {i2}.{a2} {e}")
    return "\n".join(lines) + "\n"


@st.composite
def string_link_texts(draw) -> str:
    """Strategy: string-link file texts, most of them valid.

    A header on n <= 4 strands and k <= 4 passes, a framings line, and
    up to 24 letter lines drawn from a few tokens, so that tokens repeat.
    Each token is spelled "i.a", "+i.0a" or "0i.a" at random, so one
    double index appears under several spellings.  About one file in
    three has one bad line inserted: a malformed token, an index out of
    range, a self-join, a bad exponent or one other than +-1, or a wrong
    arity.  Most bad lines repeat a token of a good line, which may come
    before or after them.
    """
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    framings = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    spell = st.sampled_from(("{}.{}", "+{}.0{}", "0{}.{}"))
    exponents = ("1", "-1", "+1")

    def token(i: int, a: int) -> str:
        return draw(spell).format(i, a)

    indices = [(i, a) for i in range(1, n + 1) for a in range(1, k + 1)]
    pool = draw(st.lists(st.sampled_from(indices), min_size=2, max_size=5))
    lines = []
    for _ in range(draw(st.integers(0, 24))):
        idx1, idx2 = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if idx1 != idx2:
            lines.append(f"{token(*idx1)} {token(*idx2)} {draw(st.sampled_from(exponents))}")
    if lines and draw(st.integers(0, 2)) == 0:
        good, other, _ = lines[draw(st.integers(0, len(lines) - 1))].split()
        bad = draw(
            st.sampled_from(
                (
                    f"{good} x.1 1",  # malformed token
                    f"{good} 1.1.1 1",  # three fields
                    f"{good} {n + 1}.1 1",  # strand out of range
                    f"{good} 1.{k + 1} -1",  # pass out of range
                    f"{good} 0.1 1",  # strand zero
                    f"{good} {good} 1",  # self-join
                    f"{good} 1.1 q",  # bad exponent
                    f"{good} {other} q",  # bad exponent between two known tokens
                    f"{good} {other} 2",  # exponent other than +-1
                    f"x.1 {n + 1}.1 q",  # three faults: the token is reported
                    f"{good} 1.1",  # wrong arity
                    f"{good} 1.1 1 1",  # wrong arity
                )
            )
        )
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join([f"n {n} k {k}", "framings " + " ".join(map(str, framings)), *lines]) + "\n"


def cancel_string_linking(link: DoubledStringLink) -> DoubledStringLink:
    """link with each pairwise linking number cancelled by first-pass generators."""
    n, k = link.n, link.k
    extra = []
    for i, j, v in pairwise_linking(link).entries:
        p1 = position_of((i, 1), n, k)
        p2 = position_of((j, 1), n, k)
        lo, hi = min(p1, p2), max(p1, p2)
        # a first-pass generator shifts the pairwise number by its exponent
        extra.extend([(lo, hi, -1 if v > 0 else 1)] * abs(v))
    braid = link.braid * PureBraidWord(n * k, tuple(extra))
    result = DoubledStringLink(n, k, braid, link.framings)
    if not pairwise_linking(result).is_zero():
        raise AssertionError("corrected string link still has nonzero linking numbers")
    return result


def random_zero_linking_link(
    rng: random.Random, n: int, k: int, max_length: int
) -> DoubledStringLink:
    """A doubled string link whose string-link linking numbers all vanish.

    Starts from a random braid and cancels each pairwise linking number
    with first-pass generators, leaving the braid-level linking rich.
    Each base letter shifts at most one pairwise number by one, so the
    corrected word stays within max_length.
    """
    strands = n * k
    base_length = rng.randint(0, max_length // 2)
    braid = (
        random_pure_braid(rng, strands, base_length)
        if strands >= 2
        else PureBraidWord(strands)
    )
    link = DoubledStringLink(n, k, braid, tuple(rng.randint(-2, 2) for _ in range(n)))
    result = cancel_string_linking(link)
    if len(result.braid.letters) > max_length:
        raise AssertionError(
            f"corrected word has {len(result.braid.letters)} letters, over {max_length}"
        )
    return result


@st.composite
def zero_linking_links(draw) -> DoubledStringLink:
    """Strategy: doubled string links whose string-link linking numbers vanish.

    A pure braid word on n*k strands, n <= 4 and k <= 6, with each
    pairwise linking number cancelled by first-pass generators.  A
    letter between two passes of one strand gives a self entry.
    """
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    braid = draw(pure_braid_words(n * k))
    framings = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    return cancel_string_linking(DoubledStringLink(n, k, braid, framings))


def reference_normalize(link: DoubledStringLink) -> DoubledStringLink:
    """stringlink.normalize_linking with the full k x k pass-grid fold.

    Folds every pass cell of every linked strand pair and of every
    strand with self linking, including the cells that hold zero.  The
    reference that normalize_linking, which visits only the passes the
    entries reach, must match letter for letter; for tests on small k.
    """
    pairwise = pairwise_linking(link)
    for i, j, value in pairwise.entries:
        raise ValueError(f"string-link linking must vanish; lk({i},{j}) = {value}")

    n, k = link.n, link.k
    letters = list(link.braid.letters)
    lk = {(p, q): v for p, q, v in linking_matrix(link.braid).entries}
    joined = {tuple(sorted((strand_label(p, n, k)[0], strand_label(q, n, k)[0]))) for p, q in lk}

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

    for i, j in sorted(pair for pair in joined if pair[0] < pair[1]):
        # fold the pass grid of (i, j) onto lk((i,1),(j,1))
        for c in range(k, 1, -1):
            for a in range(1, k + 1):
                clear(i, a, j, c - 1)
        for c in range(k, 1, -1):
            clear(j, 1, i, c - 1)
        leftover = entry((i, 1), (j, 1))
        if leftover:
            raise InternalCheckError(f"alternating-sum condition violated at ({i},{j})")
    for i in sorted(i for i, j in joined if i == j):
        # self linking between passes of strand i; the a == c-1 case is
        # the single-generator move and clears the entry outright
        for c in range(k, 1, -1):
            for a in range(1, c):
                clear(i, a, i, c - 1)

    braid = PureBraidWord(n * k, tuple(letters))
    result = DoubledStringLink(n, k, braid, link.framings)
    if not linking_matrix(braid).is_zero():
        raise InternalCheckError("normalization left a nonzero linking number")
    return result
