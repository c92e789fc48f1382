"""Exact linear algebra over the rationals.

Matrices are lists of rows, vectors are flat lists, all entries
``fractions.Fraction``.  Everything here is deterministic: reduced
echelon forms are unique, so they are canonical representatives.

Products (``mat_mul`` and ``mat_vec``) sum over the nonzero entries
only, so they cost what the nonzero entries cost; zero products are never
formed.  ``charpoly`` runs on the matrix scaled to ints.

Elimination (``rref`` and everything built on it: ``nullspace``,
``solve``, ``coordinates``, ``inverse``) runs fraction-free on sparse
integer rows, read one at a time in input order: each row is reduced
against the reduced rows kept so far and kept if it is not then zero, and
reading stops once the rank reaches a bound (the width, or a smaller one
that the caller knows).  ``Fraction``s are formed only at the boundary,
once per entry of the result.  The integer core is ``_echelon``
(primitive int rows with positive pivots, and their pivots) and
``_kernel`` (an int basis of a nullspace, read off those rows); ``_rref``
divides the rows of ``_echelon`` by their pivots, and ``_nullspace``
forms its ``Fraction``s only there, in the reduced basis of the
``_kernel`` vectors.  A row of ints enters the core as it is.  The
signature is ``_signature``, a symmetric fraction-free elimination of
sparse int rows (a form's cached ``int_rows``, or ``signature_of``'s).
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


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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


def vec_scale(c, v):
    return [c * x for x in v]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


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
    """The sparse integer row {column: x} divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _integer_row(row):
    """The nonzero entries of a sparse rational row {column: x} as a
    primitive sparse integer row: scaled by the lcm of their denominators,
    then divided by the gcd.  A row of ints needs no scale."""
    nz = {c: x for c, x in row.items() if x}
    if all(type(x) is int for x in nz.values()):
        return _primitive(nz)
    den = lcm(*(x.denominator for x in nz.values()))
    return _primitive({c: x.numerator * (den // x.denominator) for c, x in nz.items()})


def _eliminate(row, prow, c):
    """The primitive part of p*row - f*prow, where p = prow[c] and f = row[c]:
    column c eliminated from row, summed over the union of the supports."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    p, f = p // g, f // g
    out = {q: p * x for q, x in row.items()} if p != 1 else dict(row)
    for q, y in prow.items():
        v = out.get(q, 0) - f * y
        if v:
            out[q] = v
        else:
            del out[q]
    return _primitive(out)


def rref(a):
    """Reduced row echelon form.

    Returns (rows, pivot_columns); zero rows are dropped, so the result
    is the canonical basis of the row space.
    """
    return _rref([dict(enumerate(row)) for row in a], len(a[0]) if a else 0)


def _rref(a, n, bound=None):
    """``rref`` of the sparse rows {column: x} of width n: ``_echelon``
    (which stops at the rank bound), then each primitive int row divided by
    its pivot, one ``Fraction`` per nonzero entry."""
    rows, pivots = _echelon(a, n, bound)
    out = []
    for row, c in zip(rows, pivots):
        dense, p = [Q0] * n, row[c]
        for q, x in row.items():
            dense[q] = Fraction(x, p)
        out.append(dense)
    return out, pivots


def _echelon(a, n, bound=None):
    """The integer core of ``rref``: the sparse rows {column: x} of width n
    reduced to (primitive int rows, pivot columns), in pivot order; row r
    is its reduced echelon row times the positive int at its pivot.

    The rows are read one at a time, in input order, and each is made a
    sparse integer row {column: x}: scaled by the lcm of its denominators,
    divided by the gcd of its entries.  The rows kept so far are in
    reduced echelon form, so a new row is reduced by eliminating, at each
    of their pivots it touches, p*row - f*basis_row over the union of the
    supports, divided by the gcd of its entries, which keeps the integers
    small as Bareiss's exact division does (E. H. Bareiss, Math. Comp. 22,
    1968).  A row that becomes zero is dropped; otherwise its leftmost
    column is a new pivot, its pivot entry is made positive, and that
    column is eliminated from the rows kept before it.  Reading stops once
    the rank reaches bound (n by default: no row adds to full column
    rank), so a caller that knows the rank of the span cannot exceed it
    has no further row formed or read.  The result does not depend on the
    order of the rows: a primitive row with a positive pivot is unique.
    """
    bound = n if bound is None else bound
    if not bound:
        return [], []
    basis = {}  # pivot column: primitive int row
    for row in map(_integer_row, a):
        for c in [c for c in row if c in basis]:
            row = _eliminate(row, basis[c], c)
        if not row:
            continue
        c = min(row)
        if row[c] < 0:
            row = {q: -x for q, x in row.items()}
        for k, prow in basis.items():
            if c in prow:
                basis[k] = _eliminate(prow, row, c)
        basis[c] = row
        if len(basis) == bound:
            break
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def nullspace(a):
    """Canonical basis (RREF rows) of {x : a x = 0}."""
    return _nullspace([dict(enumerate(row)) for row in a], len(a[0])) if a else []


def _nullspace(a, n):
    """``nullspace`` of the sparse rows {column: x} of width n, which the
    matrix solvers pass as they build them; zero rows are dropped, and no
    rows give the unit basis.  The ``_kernel`` vectors are reduced by
    ``_rref``, which forms the only ``Fraction``s."""
    return _rref(_kernel(a, n), n)[0]


def _kernel(a, n):
    """A basis of {x : a x = 0} as sparse int vectors {column: x}, one per
    free column f of ``_echelon(a, n)``, not reduced.  Row r reads
    h_r x_{c_r} + sum_f row_r[f] x_f = 0 at its pivot c_r, so the vector
    is m at f and -row_r[f] m / h_r at each c_r, for m the lcm of the
    h_r of the rows that have an entry at f."""
    rows, pivots = _echelon(a, n)
    pivot_set = set(pivots)
    touched = {f: [] for f in range(n) if f not in pivot_set}  # f: [(c_r, row_r)]
    for row, c in zip(rows, pivots):
        for f in row:
            if f != c:
                touched[f].append((c, row))
    out = []
    for f, hits in touched.items():
        m = lcm(*(row[c] for c, row in hits))
        v = {f: m}
        for c, row in hits:
            v[c] = -row[f] * (m // row[c])
        out.append(v)
    return out


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


def coordinates(basis, vectors):
    """The coordinates of each vector in basis, or None if one lies outside
    its span; ``LinAlgError`` if the basis is dependent.  One ``rref`` of
    the columns [basis | vectors]: the basis is independent iff its k
    columns carry pivots, the vectors lie in its span iff no other column
    does, and then the rows hold their (unique) coordinates."""
    k, cols = len(basis), [*basis, *vectors]
    rows, pivots = rref(transpose(cols))
    if pivots[:k] != list(range(k)):
        raise LinAlgError("basis is not linearly independent")
    if len(pivots) > k:
        return None
    return [[row[col] for row in rows] for col in range(k, len(cols))]


def inverse(a):
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise LinAlgError("matrix is singular")
    return [row[n:] for row in rows]


def charpoly(a):
    """Coefficients [1, c1, ..., cn] of det(tI - a), Faddeev-LeVerrier on
    the int matrix b = s a (s the lcm of the denominators): c_k(b) =
    -trace(b M_{k-1}) / k, M_k = b M_{k-1} + c_k I are ints, the division
    by k is exact, and c_k(a) = c_k(b) / s^k."""
    n = len(a)
    s = lcm(*(x.denominator for row in a for x in row))
    b = [[(q, x.numerator * (s // x.denominator)) for q, x in enumerate(row) if x] for row in a]
    coeffs, m = [Q1], [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        m = [[sum(x * m[q][j] for q, x in row) for j in range(n)] for row in b]
        c = -sum(m[i][i] for i in range(n)) // k
        coeffs.append(Fraction(c, s ** k))
        for i in range(n):
            m[i][i] += c
    return coeffs


def signature_of(g):
    """(n_minus, n_plus, n_zero) of a symmetric rational matrix: g scaled
    to integers once, then ``_signature``."""
    den = lcm(*(x.denominator for row in g for x in row))
    return _signature({i: {j: x.numerator * (den // x.denominator)
                           for j, x in enumerate(row) if x}
                       for i, row in enumerate(g)}, len(g))


def _signature(rows, n):
    """(n_minus, n_plus, n_zero) of the symmetric int matrix of width n
    given by its sparse rows {i: {j: x}}, which are read, not changed.

    A pivot on a nonzero diagonal entry p replaces every other entry w_ij
    by |p| w_ij - sign(p) w_ik w_kj, |p| times the Schur complement, so by
    Sylvester's law of inertia the signature is the signs of the pivots
    plus that of the rest, in any pivot order; the pivot row is the
    shortest (H. M. Markowitz, Management Sci. 3, 1957).  A zero diagonal
    first adds row and column j to row and column k for some w_kj != 0,
    so that w_kk = 2 w_kj.  Each block is divided by the gcd of all its
    entries (per row it would not be a congruence); zero is the radical."""
    w = {i: dict(row) for i, row in rows.items() if row}
    n_minus = n_plus = 0
    while d := gcd(*(gcd(*row.values()) for row in w.values())):
        for row in w.values() if d > 1 else ():
            for q, x in row.items():
                row[q] = x // d
        k = min((i for i, row in w.items() if i in row), key=lambda i: len(w[i]), default=None)
        if k is None:  # a hyperbolic pair; the pivot on k drops any zero it leaves
            k = min(w, key=lambda i: len(w[i]))
            wk, j = w[k], next(iter(w[k]))
            for q, x in w[j].items():
                wk[q] = wk.get(q, 0) + x
            for row in w.values():
                if x := row.get(j):
                    row[k] = row.get(k, 0) + x
        wk = w.pop(k)
        p = wk.pop(k)
        n_plus, n_minus = n_plus + (p > 0), n_minus + (p < 0)
        s, ap = (1 if p > 0 else -1), abs(p)
        for row in w.values():
            f = s * row.pop(k, 0)
            for q, x in row.items() if ap != 1 else ():
                row[q] = ap * x
            for q, y in wk.items() if f else ():
                if v := row.get(q, 0) - f * y:
                    row[q] = v
                else:
                    row.pop(q, None)
        w = {i: row for i, row in w.items() if row}
    return (n_minus, n_plus, n - n_minus - n_plus)
