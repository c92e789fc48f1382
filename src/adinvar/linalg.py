"""Exact linear algebra over the rationals.

Matrices are lists of rows, vectors are flat lists, all entries
``fractions.Fraction``.  Everything here is deterministic: pivoting is
always leftmost-first, so echelon forms are canonical representatives.

Products (``mat_mul``, ``mat_vec`` and everything built on them:
``commutator``, ``charpoly``) sum over the nonzero entries only, so they
cost what the nonzero entries cost; zero products are never formed.

Elimination (``rref`` and everything built on it: ``rank``,
``nullspace``, ``solve``, ``inverse``) runs fraction-free on integer
rows; ``Fraction``s are formed only at the boundary, once per entry of
the result.
"""

from fractions import Fraction
from math import gcd, lcm

Q0 = Fraction(0)
Q1 = Fraction(1)


class LinAlgError(Exception):
    pass


def frac(x) -> Fraction:
    """Coerce an int, 'p/q' string or Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise LinAlgError("refusing to coerce a float to an exact rational")
    return Fraction(x)


def zeros(m, n):
    return [[Q0] * n for _ in range(m)]


def identity(n):
    return [[Q1 if i == j else Q0 for j in range(n)] for i in range(n)]


def zero_vector(n):
    return [Q0] * n


def copy_matrix(a):
    return [row[:] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    """a b, summed over the nonzero entries of a and of each row of b."""
    ncols = len(b[0]) if b else 0
    brows = [[(q, y) for q, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [Q0] * ncols
        for x, brow in zip(row, brows):
            if x:
                for q, y in brow:
                    acc[q] += x * y
        out.append(acc)
    return out


def mat_vec(a, v):
    """a v, summed over the nonzero products only.  As with ``zip``, a row
    shorter than v ignores the excess entries of v."""
    nz = [(q, y) for q, y in enumerate(v) if y]
    out = []
    for row in a:
        total = Q0
        n = len(row)
        for q, y in nz:
            if q >= n:
                break
            x = row[q]
            if x:
                total += x * y
        out.append(total)
    return out


def vec_add(u, v):
    return [x + y for x, y in zip(u, v)]


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def vec_scale(c, v):
    return [c * x for x in v]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def trace_product(a, b):
    """trace(a b) = sum a[p][q] b[q][p] over the nonzero entries, without
    forming the product."""
    total = Q0
    for p, row in enumerate(a):
        for q, x in enumerate(row):
            if x:
                y = b[q][p]
                if y:
                    total += x * y
    return total


def is_zero_vector(v):
    return all(x == 0 for x in v)


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(a):
    """Reduced row echelon form with leftmost pivots.

    Returns (rows, pivot_columns); zero rows are dropped, so the result
    is the canonical basis of the row space.

    Each row is scaled by the lcm of its denominators to an integer row.
    Gauss-Jordan elimination then replaces row_i by p*row_i - f*row_r for
    the pivot p of row_r and divides it by the gcd of its entries, which
    keeps the integers small as Bareiss's exact division does (E. H.
    Bareiss, Math. Comp. 22, 1968).  Each pivot row is divided by its
    pivot only at the end.
    """
    rows = []
    for row in a:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        if any(ints):
            rows.append(_primitive(ints))
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(m):
            f = rows[i][c]
            if f and i != r:
                rows[i] = _primitive([p * x - f * y
                                      for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    out = []
    for row, c in zip(rows, pivots):
        p = row[c]
        out.append([Fraction(x, p) if x else Q0 for x in row])
    return out, pivots


def rank(a):
    return len(rref(a)[0])


def nullspace(a):
    """Canonical basis (RREF rows) of {x : a x = 0}."""
    if not a:
        return []
    n = len(a[0])
    rows, pivots = rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = zero_vector(n)
        v[f] = Q1
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return rref(basis)[0] if basis else []


def solve(a, b):
    """One exact solution of a x = b, or None if inconsistent."""
    if not a:
        return [] if is_zero_vector(b) else None
    n = len(a[0])
    aug = [row[:] + [bi] for row, bi in zip(a, b)]
    rows, pivots = rref(aug)
    if n in pivots:
        return None
    x = zero_vector(n)
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return x


def inverse(a):
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise LinAlgError("matrix is singular")
    return [row[n:] for row in rows]


def charpoly(a):
    """Coefficients [1, c1, ..., cn] of det(tI - a), Faddeev-LeVerrier."""
    n = len(a)
    coeffs = [Q1]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        ck = -trace(am) / k
        coeffs.append(ck)
        m = am
        for i in range(n):
            m[i][i] += ck
    return coeffs


def congruence_diagonal(g):
    """Symmetric congruence diagonalization: returns (p, d) with p g p^T = d.

    d is a diagonal matrix (as a full matrix).  Uses symmetric row+column
    elimination; an isotropic pivot with a nonzero off-diagonal partner is
    repaired by adding the partner row (a hyperbolic-pair rotation).
    """
    n = len(g)
    work = copy_matrix(g)
    p = identity(n)

    def add_row(i, j, f):
        # row_i += f*row_j, col_i += f*col_j  (congruence by elementary E)
        work[i] = [x + f * y for x, y in zip(work[i], work[j])]
        for row in work:
            row[i] += f * row[j]
        p[i] = [x + f * y for x, y in zip(p[i], p[j])]

    def swap(i, j):
        work[i], work[j] = work[j], work[i]
        for row in work:
            row[i], row[j] = row[j], row[i]
        p[i], p[j] = p[j], p[i]

    for k in range(n):
        if work[k][k] == 0:
            j = next((i for i in range(k + 1, n) if work[i][i] != 0), None)
            if j is not None:
                swap(k, j)
            else:
                j = next((i for i in range(k + 1, n) if work[k][i] != 0), None)
                if j is None:
                    continue  # row is in the radical from here on
                add_row(k, j, Q1)
        piv = work[k][k]
        for i in range(k + 1, n):
            if work[i][k] != 0:
                add_row(i, k, -work[i][k] / piv)
    return p, work


def signature_of(g):
    """(n_minus, n_plus, n_zero) of a symmetric rational matrix."""
    _, d = congruence_diagonal(g)
    n_minus = sum(1 for i in range(len(g)) if d[i][i] < 0)
    n_plus = sum(1 for i in range(len(g)) if d[i][i] > 0)
    return (n_minus, n_plus, len(g) - n_minus - n_plus)
