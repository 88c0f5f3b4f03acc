"""Seeded input generators and the reference values that come with them.

Every input is built from pieces whose invariants are known in closed
form, and every reference value is derived from that construction with
the arithmetic in this file.  Nothing here imports the package under
test, so a defect in the package cannot leak into its own yardstick.

Matrices are lists of integer rows; a Laurent polynomial is a pair
(lo, coeffs) in the package's canonical form (first and last
coefficient nonzero, the zero polynomial is (0, ())).
"""

from __future__ import annotations

import random

# --------------------------------------------------------------------------
# integer matrices


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def congruence(a, m):
    """A * M * A^T."""
    return mat_mul(mat_mul(a, m), transpose(a))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def symplectic_form(g):
    """The block diagonal of [[0, 1], [-1, 0]] blocks."""
    x = [[0] * (2 * g) for _ in range(2 * g)]
    for b in range(g):
        x[2 * b][2 * b + 1] = 1
        x[2 * b + 1][2 * b] = -1
    return x


def format_matrix(m) -> str:
    return "\n".join([str(len(m))] + [" ".join(map(str, row)) for row in m]) + "\n"


def parse_matrix(text: str):
    lines = [line.split() for line in text.splitlines() if line.strip()]
    n = int(lines[0][0])
    rows = [[int(tok) for tok in line] for line in lines[1 : n + 1]]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError("malformed matrix document")
    return rows


def random_unimodular(rng: random.Random, n: int, density: float = 0.3):
    """L * U with random +-1 entries off the diagonal: dense, determinant 1.

    A dense transform keeps the cost of a scrambled matrix close to the
    dense worst case for its size, so op cost depends on the genus far
    more than on the draw.
    """
    def tri(lower):
        return [
            [
                1 if i == j
                else rng.choice((1, -1)) if (j < i) == lower and rng.random() < density
                else 0
                for j in range(n)
            ]
            for i in range(n)
        ]

    return mat_mul(tri(True), tri(False))


def random_symplectic(rng: random.Random, g: int, steps: int = 6):
    """Product of integer transvections I + c * v * v^T * X, X the standard form."""
    n = 2 * g
    x = symplectic_form(g)
    s = identity(n)
    for _ in range(steps):
        v = [rng.randint(-1, 1) for _ in range(n)]
        if not any(v):
            continue
        c = rng.choice((1, -1))
        vx = [sum(v[a] * x[a][b] for a in range(n)) for b in range(n)]
        t = [[int(i == j) + c * v[i] * vx[j] for j in range(n)] for i in range(n)]
        s = mat_mul(t, s)
    return s


# --------------------------------------------------------------------------
# Laurent polynomials as (lo, coeffs)


def poly_canonical(lo, coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        lo += 1
    return (lo, tuple(coeffs)) if coeffs else (0, ())


def poly_mul(p, q):
    (lp, cp), (lq, cq) = p, q
    if not cp or not cq:
        return (0, ())
    out = [0] * (len(cp) + len(cq) - 1)
    for i, a in enumerate(cp):
        for j, b in enumerate(cq):
            out[i + j] += a * b
    return poly_canonical(lp + lq, out)


def poly_eval(p, t):
    """Value at t = 1 or t = -1, where t^-k = t^k."""
    lo, coeffs = p
    return sum(c * t ** abs(lo + m) for m, c in enumerate(coeffs))


def parse_poly(text: str):
    """Read the package's "lo=<l>; coeffs=<c ...>" rendering."""
    lo_part, coeff_part = text.split(";")
    lo = int(lo_part.split("=")[1])
    return poly_canonical(lo, [int(tok) for tok in coeff_part.split("=")[1].split()])


# --------------------------------------------------------------------------
# Seifert matrices with closed-form invariants
#
# The genus-1 block [[a, b + 1], [b, d]] has M - M^T = [[0, 1], [-1, 0]].
# With D = ad - b(b + 1) = det M its Alexander polynomial is
# D t^-1 + (1 - 2D) + D t, and det(M + M^T) = 4D - 1.  M + M^T is
# definite exactly when D >= 1 (signature 2 sign(a)), indefinite
# otherwise.  A block sum multiplies polynomials and adds signatures; the
# determinant is the product of |1 - 4D| and Arf is the parity of the
# number of odd D.  Congruence by a unimodular matrix changes none of it.


def random_block(rng: random.Random):
    a, b, d = rng.randint(-2, 2), rng.randint(-2, 1), rng.randint(-2, 2)
    return (a, b, d)


def block_sum(blocks):
    n = 2 * len(blocks)
    m = [[0] * n for _ in range(n)]
    for k, (a, b, d) in enumerate(blocks):
        i = 2 * k
        m[i][i], m[i][i + 1], m[i + 1][i], m[i + 1][i + 1] = a, b + 1, b, d
    return m


def block_invariants(blocks):
    """(alexander, signature, determinant, arf) of a block sum, in closed form."""
    delta = (0, (1,))
    sig = 0
    det = 1
    odd = 0
    for a, b, d in blocks:
        dd = a * d - b * (b + 1)
        delta = poly_mul(delta, poly_canonical(-1, (dd, 1 - 2 * dd, dd)))
        if dd >= 1:
            sig += 2 if a > 0 else -2
        det *= abs(1 - 4 * dd)
        odd += dd % 2
    return delta, sig, det, odd % 2


def scrambled(rng: random.Random, blocks):
    """A random unimodular congruence of the block sum."""
    return congruence(random_unimodular(rng, 2 * len(blocks)), block_sum(blocks))


# --------------------------------------------------------------------------
# search pairs


def elementary_congruence(m, i, j, c):
    """Congruence by I + c * e(i, j): row i += c * row j, then column i += c * column j."""
    w = [list(row) for row in m]
    for col in range(len(w)):
        w[i][col] += c * w[j][col]
    for row in w:
        row[i] += c * row[j]
    return w


def congruence_walk(rng: random.Random, m, depth: int, max_entry: int):
    """A walk of `depth` elementary congruences that keeps every entry within
    max_entry and never revisits a matrix, so the end point is reachable
    by the search under that entry bound.  Returns None when stuck."""
    n = len(m)
    seen = {tuple(map(tuple, m))}
    for _ in range(depth):
        steps = [(i, j, c) for i in range(n) for j in range(n) if i != j for c in (1, -1)]
        rng.shuffle(steps)
        for i, j, c in steps:
            nxt = elementary_congruence(m, i, j, c)
            key = tuple(map(tuple, nxt))
            if key not in seen and max(abs(x) for row in nxt for x in row) <= max_entry:
                seen.add(key)
                m = nxt
                break
        else:
            return None
    return m


def column_enlarged(m, xi, x):
    """[[M, xi, 0], [0, x, 1], [0, 0, 0]]."""
    n = len(m)
    rows = [list(row) + [xi[i], 0] for i, row in enumerate(m)]
    rows.append([0] * n + [x, 1])
    rows.append([0] * (n + 2))
    return rows


def row_enlarged(m, eta, x):
    """[[M, 0, 0], [eta, x, 0], [0, 1, 0]]."""
    n = len(m)
    rows = [list(row) + [0, 0] for row in m]
    rows.append(list(eta) + [x, 0])
    rows.append([0] * n + [1, 0])
    return rows


# --------------------------------------------------------------------------
# Artin braid words with a knot closure
#
# A product of the generators s_1 .. s_(n-1), each once in any order and
# with any signs, permutes the strands as an n-cycle, so its closure is a
# knot and every generator is used.  Inserting s_i^2 or s_i^-2 anywhere
# leaves the permutation alone, so the word stays a knot closure while it
# grows to the wanted length; the Seifert matrix of the closure has size
# length - n + 1.


def knot_closure_word(rng: random.Random, n: int, length: int):
    letters = [g * rng.choice((1, -1)) for g in rng.sample(range(1, n), n - 1)]
    while len(letters) < length:
        i, e = rng.randint(1, n - 1), rng.choice((1, -1))
        pos = rng.randint(0, len(letters))
        letters[pos:pos] = [i * e, i * e]
    return letters


def format_artin_word(n: int, letters) -> str:
    return f"n {n}\n" + " ".join(map(str, letters)) + "\n"


# --------------------------------------------------------------------------
# pure braids and doubled string links, in double-index letters
#
# A string-link letter joins double indices (i, a) and (j, b): pass a of
# strand i and pass b of strand j.  The string-link linking number of
# strands i < j is the sum over letters joining them of
# (-1)^(a + b) * e, which is what the generator below cancels.


def random_pure_braid(rng: random.Random, strands: int, length: int):
    letters = []
    for _ in range(length):
        i = rng.randint(1, strands - 1)
        letters.append((i, rng.randint(i + 1, strands), rng.choice((1, -1))))
    return letters


def format_pure_braid(strands: int, letters) -> str:
    return "\n".join([f"n {strands}"] + [f"{i} {j} {e}" for i, j, e in letters]) + "\n"


def string_link_linking(n: int, letters):
    """{(i, j): lk} over strand pairs i < j with a nonzero alternating sum."""
    lk = {}
    for (i, a), (j, b), e in letters:
        if i != j:
            key = (min(i, j), max(i, j))
            lk[key] = lk.get(key, 0) + (-1) ** (a + b) * e
    return {key: v for key, v in lk.items() if v}


def braid_linking(letters):
    """{(p, q): lk} over pairs of double indices with a nonzero exponent sum."""
    lk = {}
    for p, q, e in letters:
        key = (min(p, q), max(p, q))
        lk[key] = lk.get(key, 0) + e
    return {key: v for key, v in lk.items() if v}


def zero_linking_string_link(rng: random.Random, n: int, k: int, length: int):
    """Letters of a doubled string link whose string-link linking all vanishes.

    Random letters between distinct double indices, then first-pass
    letters that cancel each strand pair's alternating sum; the
    braid-level linking stays rich, so normalization has work to do.
    """
    idx = [(i, a) for i in range(1, n + 1) for a in range(1, k + 1)]
    letters = []
    while len(letters) < length:
        p, q = rng.sample(idx, 2)
        letters.append((p, q, rng.choice((1, -1))))
    for (i, j), v in sorted(string_link_linking(n, letters).items()):
        letters.extend([((i, 1), (j, 1), -1 if v > 0 else 1)] * abs(v))
    return letters


def format_string_link(n: int, k: int, framings, letters) -> str:
    lines = [f"n {n} k {k}", "framings " + " ".join(map(str, framings))]
    lines += [f"{i}.{a} {j}.{b} {e}" for (i, a), (j, b), e in letters]
    return "\n".join(lines) + "\n"


def parse_string_link(text: str):
    """(n, k, framings, letters) from the string-link document."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    n, k = int(lines[0][1]), int(lines[0][3])
    framings = tuple(int(tok) for tok in lines[1][1:])

    def double(tok):
        i, a = tok.split(".")
        return (int(i), int(a))

    letters = [(double(p), double(q), int(e)) for p, q, e in lines[2:]]
    return n, k, framings, letters
