import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from adinvar import BilinearForm, linalg
import oracles
from oracles import signature_dense, vec_add, vec_scale


def test_rref_is_canonical():
    rows, pivots = linalg.rref([[F(2), F(4)], [F(1), F(2)], [F(0), F(1)]])
    assert rows == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_rref_drops_zero_rows():
    rows, _ = linalg.rref([[F(1), F(1)], [F(2), F(2)]])
    assert rows == [[F(1), F(1)]]


def test_nullspace_solves():
    a = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = linalg.nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert linalg.is_zero_vector(linalg.mat_vec(a, v))


def test_solve_consistent_and_not():
    a = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    assert linalg.solve(a, [F(1), F(2), F(3)]) == [F(1), F(2)]
    assert linalg.solve(a, [F(1), F(2), F(4)]) is None


def test_inverse_roundtrip():
    a = [[F(2), F(1)], [F(1), F(1)]]
    inv = linalg.inverse(a)
    assert linalg.mat_mul(a, inv) == linalg.identity(2)
    with pytest.raises(linalg.LinAlgError):
        linalg.inverse([[F(1), F(2)], [F(2), F(4)]])


def test_charpoly_matches_det_and_trace():
    a = [[F(2), F(1)], [F(3), F(4)]]
    coeffs = linalg.charpoly(a)
    assert coeffs == [F(1), -F(6), F(5)]  # t^2 - tr t + det


def test_signature_basics():
    assert oracles.signature_of(linalg.identity(2)) == (0, 2, 0)
    d = [[F(-1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    assert oracles.signature_of(d) == (1, 2, 0)
    hyper = [[F(0), F(1)], [F(1), F(0)]]
    assert oracles.signature_of(hyper) == (1, 1, 0)
    degen = [[F(1), F(0)], [F(0), F(0)]]
    assert oracles.signature_of(degen) == (0, 1, 1)


def _random_unimodular(n, rng):
    m = linalg.identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = F(rng.randint(-3, 3))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def test_signature_congruence_invariant():
    rng = random.Random(20240811)
    g = [[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(2)]]
    sig = oracles.signature_of(g)
    for _ in range(10):
        p = _random_unimodular(3, rng)
        moved = linalg.mat_mul(p, linalg.mat_mul(g, linalg.transpose(p)))
        assert oracles.signature_of(moved) == sig


# -- sympy as an independent oracle for the elimination kernel ------------

ORACLE = settings(derandomize=True, max_examples=120, deadline=None)

ENTRIES = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
    st.sampled_from([F(2**70, 3**40), F(-(3**40), 2**70), F(2**70 + 1, 7)]),
)
NONZERO = ENTRIES.filter(bool)
SPARSE = st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)), NONZERO)  # 3 in 4 are zero


@st.composite
def rational_matrices(draw, square=False):
    """Rational matrices up to 8 x 9 with zero rows, rows that combine
    earlier rows, tall and wide shapes and the empty matrix; sparse tall
    ones from 8 x 1 up to 24 x 8; or n x n of full rank (triangular with
    a nonzero diagonal, rows and columns permuted, n from 1 to 6)
    followed by up to 8 rows, which are then all dependent, so that the
    elimination stops at the rank bound before it reads them.  Square
    ones are 1 x 1 to 6 x 6."""
    shape = "square" if square else draw(
        st.sampled_from(["small", "small", "tall", "full_rank"]))
    out = []
    if shape == "square":
        m = n = draw(st.integers(1, 6))
    elif shape == "tall":
        m, n = draw(st.integers(8, 24)), draw(st.integers(1, 8))
    elif shape == "full_rank":
        n = draw(st.integers(1, 6))
        cols = draw(st.permutations(range(n)))
        for i in draw(st.permutations(range(n))):
            row = [F(0)] * n
            row[cols[i]] = draw(NONZERO)
            for j in range(i + 1, n):
                row[cols[j]] = draw(ENTRIES)
            out.append(row)
        m = n + draw(st.integers(1, 8))
    else:
        m, n = draw(st.integers(0, 8)), draw(st.integers(0, 9))
    entry = SPARSE if shape == "tall" else ENTRIES
    while len(out) < m:
        kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "zero":
            out.append([F(0)] * n)
        elif kind == "combination" and out:
            u, v = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            a, b = draw(entry), draw(entry)
            out.append([a * x + b * y for x, y in zip(u, v)])
        else:
            out.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return out


def to_sympy(a):
    n = len(a[0]) if a else 0
    return sympy.Matrix(len(a), n, [sympy.Rational(x.numerator, x.denominator)
                                     for row in a for x in row])


def from_sympy(mat):
    return [[F(int(x.p), int(x.q)) for x in mat.row(i)] for i in range(mat.rows)]


def sympy_rref_rows(mat):
    reduced, pivots = mat.rref()
    return from_sympy(reduced)[:len(pivots)], list(pivots)


def all_fractions(rows):
    return all(type(x) is F for row in rows for x in row)


@ORACLE
@given(rational_matrices())
def test_rref_matches_sympy(a):
    rows, pivots = linalg.rref(a)
    assert (rows, pivots) == sympy_rref_rows(to_sympy(a))
    assert all_fractions(rows)


def _guarded(a, bound):
    """The rows of a as sparse rows, read one at a time; asking for a row
    once the rows already read have rank bound raises."""
    for k, row in enumerate(a):
        if to_sympy(a[:k]).rank() >= bound:
            raise AssertionError(f"row {k} read at rank {bound}")
        yield dict(enumerate(row))


@ORACLE
@given(rational_matrices())
def test_echelon_stops_at_the_rank_bound(a):
    """The int rows of ``_echelon`` are the RREF rows scaled to primitive
    ints with a positive pivot; a bound equal to the rank gives the same
    result; and no row is read once the rank reaches the bound (by
    default the width, which the full-rank draws reach early)."""
    n = len(a[0]) if a else 0
    rows, pivots = linalg._echelon([dict(enumerate(r)) for r in a], n)
    reduced, want = sympy_rref_rows(to_sympy(a))
    assert pivots == want
    for row, c, dense in zip(rows, pivots, reduced):
        assert all(type(x) is int and x for x in row.values())
        assert min(row) == c and row[c] > 0 and gcd(*row.values()) == 1
        assert {q: F(x, row[c]) for q, x in row.items()} == {
            q: x for q, x in enumerate(dense) if x}
    rank = len(pivots)
    assert linalg._echelon(_guarded(a, rank), n, rank) == (rows, pivots)
    if rank == n:
        assert linalg._echelon(_guarded(a, n), n) == (rows, pivots)


@ORACLE
@given(rational_matrices())
def test_nullspace_matches_sympy(a):
    basis = linalg.nullspace(a)
    kernel = to_sympy(a).nullspace()
    want = (sympy_rref_rows(sympy.Matrix.hstack(*kernel).T)[0]
            if kernel else [])
    assert basis == want
    assert all_fractions(basis)


@ORACLE
@given(rational_matrices(), st.data())
def test_solve_matches_sympy_consistency(a, data):
    n = len(a[0]) if a else 0
    if data.draw(st.booleans()):
        x = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
        b = linalg.mat_vec(a, x) if n else [F(0)] * len(a)
    else:
        b = data.draw(st.lists(ENTRIES, min_size=len(a), max_size=len(a)))
    mat = to_sympy(a)
    consistent = mat.rank() == mat.row_join(to_sympy([[y] for y in b])).rank()
    x = linalg.solve(a, b)
    assert (x is not None) == consistent
    if x is not None:
        assert len(x) == n and all(type(y) is F for y in x)
        assert linalg.mat_vec(a, x) == b


def in_basis(basis, vectors):
    """``linalg._in_basis`` on dense rational vectors, its int coordinates
    read back as rationals."""
    found = linalg._in_basis([dict(enumerate(b)) for b in basis],
                             [dict(enumerate(v)) for v in vectors])
    if found is None:
        return None
    coords, h = found
    return [[F(c.get(i, 0), h) for i in range(len(basis))] for c in coords]


@ORACLE
@given(rational_matrices(), st.data())
def test_coordinates_match_sympy(a, data):
    """linalg._in_basis in the rows of a drawn matrix, often dependent, or in an
    independent basis made from it (its RREF rows, each plus drawn
    multiples of the rows above it), of drawn vectors: combinations of the
    basis and free vectors, which mostly lie outside its span.  A
    dependent basis raises, a vector outside gives None, and otherwise
    each result is sympy's unique solution of B^T x = v."""
    n = len(a[0]) if a else data.draw(st.integers(0, 4))
    basis = a
    if a and data.draw(st.sampled_from([False, True, True])):
        basis = []
        for row in sympy_rref_rows(to_sympy(a))[0]:
            for prev in basis:
                row = vec_add(row, vec_scale(data.draw(ENTRIES), prev))
            basis.append(row)
    k = len(basis)
    vectors = []
    for _ in range(data.draw(st.integers(1, 3))):
        if k and data.draw(st.booleans()):
            x = data.draw(st.lists(ENTRIES, min_size=k, max_size=k))
            vectors.append(linalg.mat_vec(linalg.transpose(basis), x))
        else:
            vectors.append(data.draw(st.lists(ENTRIES, min_size=n, max_size=n)))
    if not k:
        want = None if any(map(any, vectors)) else [[] for _ in vectors]
        assert in_basis(basis, vectors) == want
        return
    bt = shaped_sympy(basis, k, n).T
    if bt.rank() < k:
        with pytest.raises(linalg.LinAlgError):
            in_basis(basis, vectors)
        return
    want = []
    for v in vectors:
        try:
            x, free = bt.gauss_jordan_solve(shaped_sympy([[y] for y in v], n, 1))
        except ValueError:
            want = None
            break
        assert free.rows == 0
        want.append([F(int(y.p), int(y.q)) for y in x])
    got = in_basis(basis, vectors)
    assert got == want
    assert got is None or all(type(y) is F for c in got for y in c)


def test_coordinates_of_each_kind():
    """One case of each outcome: unique coordinates, a vector outside the
    span, a dependent basis, and the empty basis with zero and nonzero
    vectors."""
    basis = [[F(1), F(1), F(0)], [F(0), F(2), F(1, 2)]]
    assert in_basis(basis, [[F(2), F(6), F(1)], [F(0)] * 3]) == [
        [F(2), F(2)], [F(0), F(0)]]
    assert in_basis(basis, [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]) is None
    with pytest.raises(linalg.LinAlgError):
        in_basis(basis + [[F(1), F(3), F(1, 2)]], [[F(0), F(0), F(1)]])
    assert in_basis([], [[F(0)] * 3, [F(0)] * 3]) == [[], []]
    assert in_basis([], [[F(0), F(1), F(0)]]) is None
    assert in_basis([], []) == []


@ORACLE
@given(rational_matrices(square=True))
def test_inverse_matches_sympy(a):
    mat = to_sympy(a)
    if mat.det() == 0:
        with pytest.raises(linalg.LinAlgError):
            linalg.inverse(a)
        return
    inv = linalg.inverse(a)
    assert inv == from_sympy(mat.inv())
    assert all_fractions(inv)


# -- sympy as the oracle for charpoly and the congruence kernels ----------

@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices up to 6 x 6 (8 x 8 for blocks): free
    entries; P^T diag(signs) P for an invertible integer P (unit upper
    triangular, rows permuted), degenerate when a sign is 0; or a direct
    sum of isotropic blocks [[0, a], [a, 0]], zero blocks and signed
    scalars, with rows and columns permuted and, one time in three, moved
    by such a P, so that the diagonal is often zero where the rest is
    not."""
    kind = draw(st.sampled_from(["free", "frame", "degenerate", "blocks", "blocks"]))
    if kind == "blocks":
        blocks = draw(st.lists(st.sampled_from(["hyperbolic", "zero", "scalar"]),
                               min_size=1, max_size=5))
        entries = []  # (i, j, value), i <= j
        n = 0
        for block in blocks:
            if block == "hyperbolic":
                entries.append((n, n + 1, draw(NONZERO)))
                n += 2
            else:
                entries.append((n, n, draw(NONZERO) if block == "scalar" else F(0)))
                n += 1
        n = min(n, 8)
        g = [[F(0)] * n for _ in range(n)]
        for i, j, x in entries:
            if j < n:
                g[i][j] = g[j][i] = x
        order = draw(st.permutations(range(n)))
        g = [[g[i][j] for j in order] for i in order]
        if draw(st.sampled_from([False, True, True])):
            return g
    else:
        n = draw(st.integers(1, 6))
    if kind == "free":
        g = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = draw(ENTRIES)
        return g
    p = [[F(1) if i == j else draw(st.integers(-2, 2).map(F)) if j > i else F(0)
          for j in range(n)] for i in range(n)]
    p = [p[i] for i in draw(st.permutations(range(n)))]
    if kind != "blocks":
        values = [1, -1] + ([0] if kind == "degenerate" else [])
        signs = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
        g = [[F(s) if i == j else F(0) for j, s in enumerate(signs)]
             for i in range(n)]
    return linalg.mat_mul(linalg.transpose(p), linalg.mat_mul(g, p))


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def descartes_signature(g):
    """(n_minus, n_plus, n_zero) from sympy's characteristic polynomial: its
    roots are real, so Descartes' rule counts them exactly."""
    coeffs = [F(int(c.p), int(c.q))
              for c in to_sympy(g).charpoly().all_coeffs()]
    n_zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c != 0)
    mirrored = [c if (len(coeffs) - 1 - i) % 2 == 0 else -c
                for i, c in enumerate(coeffs)]
    return sign_changes(mirrored), sign_changes(coeffs), n_zero


@st.composite
def charpoly_matrices(draw):
    """Square rational matrices: drawn by ``rational_matrices``, singular
    of rank at most one (u v^T), zero, or 1 x 1."""
    kind = draw(st.sampled_from(["drawn", "drawn", "rank_one", "zero", "one"]))
    if kind == "drawn":
        return draw(rational_matrices(square=True))
    if kind == "one":
        return [[draw(ENTRIES)]]
    n = draw(st.integers(1, 6))
    if kind == "zero":
        return [[F(0)] * n for _ in range(n)]
    u = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    v = draw(st.lists(NONZERO, min_size=n, max_size=n))
    return [[x * y for y in v] for x in u]


@ORACLE
@given(charpoly_matrices())
def test_det_and_charpoly_match_sympy(a):
    """Faddeev-LeVerrier on the int matrix s a, c_k = c_k(s a) / s^k,
    against sympy and against the same recursion in Fractions."""
    mat = to_sympy(a)
    coeffs = linalg.charpoly(a)
    assert coeffs == [F(int(c.p), int(c.q)) for c in mat.charpoly().all_coeffs()]
    assert coeffs == oracles.charpoly(a) and all(type(c) is F for c in coeffs)
    # the constant term of det(tI - a) is (-1)^n det(a)
    assert (-1) ** len(a) * coeffs[-1] == F(int(mat.det().p), int(mat.det().q))


@ORACLE
@given(symmetric_matrices())
def test_signature_matches_descartes(g):
    assert oracles.signature_of(g) == descartes_signature(g)


@ORACLE
@given(symmetric_matrices())
def test_int_inverse_matches_sympy(g):
    """``BilinearForm.int_inverse`` is the one int view of sympy's inverse,
    as ``View.of_rational`` makes it; a singular form raises ``LinAlgError``."""
    mat, form = to_sympy(g), BilinearForm(g)
    if mat.det() == 0:
        with pytest.raises(linalg.LinAlgError):
            form.int_inverse
        return
    assert form.int_inverse == oracles.view_of(from_sympy(mat.inv()))


# Zero-diagonal forms on which a hyperbolic step is followed by pivots
# that read what it wrote: the first has rows with different gcds (a gcd
# per row is not a congruence), the second needs the column update of the
# hyperbolic step.  Drawn matrices rarely reach either; a seeded search
# over small integer forms found them.
PINNED_SIGNATURES = (
    ([[0, 0, 2, 2, 3], [0, 0, -3, -3, 0], [2, -3, 0, 0, -3], [2, -3, 0, 0, 1],
      [3, 0, -3, 1, 0]], (2, 2, 1)),
    ([[0, 0, 1, -1, -1], [0, 0, -6, 6, 4], [1, -6, 0, 0, 2], [-1, 6, 0, 0, -1],
      [-1, 4, 2, -1, 0]], (2, 2, 1)),
)


@pytest.mark.parametrize("g, want", PINNED_SIGNATURES)
def test_signature_pins_the_block_gcd_and_the_hyperbolic_column_update(g, want):
    g = [[F(x) for x in row] for row in g]
    assert descartes_signature(g) == signature_dense(g) == want
    assert oracles.signature_of(g) == want


@st.composite
def repeated_rows(draw):
    """A drawn symmetric matrix read at a list of indices with repeats,
    g[idx[a]][idx[b]]: symmetric and degenerate, with repeated rows and
    columns, and a zero diagonal wherever g has one."""
    g = draw(symmetric_matrices())
    idx = draw(st.lists(st.integers(0, len(g) - 1), min_size=len(g) + 1,
                        max_size=len(g) + 3))
    return [[g[i][j] for j in idx] for i in idx]


@ORACLE
@given(st.one_of(symmetric_matrices(), repeated_rows()))
def test_sparse_signature_matches_the_dense_oracle_and_sympy(g):
    """``_signature`` on the sparse int rows (read, not changed) and
    ``signature_of`` on the rational matrix give the inertia of sympy's
    characteristic polynomial and of the dense elimination; so do the
    rows scaled by a positive int, which is a congruence."""
    want = descartes_signature(g)
    assert signature_dense(g) == want
    assert oracles.signature_of(g) == want
    den = lcm(*(x.denominator for row in g for x in row))
    rows = {i: {j: int(x * den) for j, x in enumerate(row) if x} for i, row in enumerate(g)}
    before = repr(rows)
    assert linalg._signature(rows, len(g)) == want
    assert repr(rows) == before
    scaled = {i: {j: 6 * x for j, x in row.items()} for i, row in rows.items()}
    assert linalg._signature(scaled, len(g)) == want


# -- the sparse products against their literal dense sums and sympy ---------

@st.composite
def sparse_or_dense(draw, m, n):
    """An m x n matrix: sparse (mostly zero), dense (no zero) or mixed
    entries, then some rows and columns zeroed."""
    kind = draw(st.sampled_from(["sparse", "dense", "mixed"]))
    entry = {"sparse": SPARSE, "dense": NONZERO, "mixed": ENTRIES}[kind]
    a = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m)) if m else ():
        a[i] = [F(0)] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else ():
        for row in a:
            row[j] = F(0)
    return a


SHAPES = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


def shaped_sympy(a, m, n):
    """to_sympy with the shape given, as an empty list carries none."""
    return sympy.Matrix(m, n, [sympy.Rational(x.numerator, x.denominator)
                               for row in a for x in row])


def dense_product(a, b):
    """sum_p a[i][p] b[p][j], every product formed."""
    return [[sum((a[i][p] * b[p][j] for p in range(len(b))), F(0))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


@ORACLE
@given(SHAPES.flatmap(lambda s: st.tuples(st.just(s), sparse_or_dense(s[0], s[1]),
                                          sparse_or_dense(s[1], s[2]))))
def test_mat_mul_matches_dense_sum_and_sympy(case):
    (m, k, n), a, b = case
    got = linalg.mat_mul(a, b)
    assert got == dense_product(a, b)
    assert all_fractions(got)
    if k:
        assert got == from_sympy(shaped_sympy(a, m, k) * shaped_sympy(b, k, n))
    else:
        # a 0 x n matrix carries no column count in the list-of-rows form
        assert got == [[] for _ in a]


@ORACLE
@given(st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda s: st.tuples(sparse_or_dense(s[0], s[1]),
                        st.lists(ENTRIES, min_size=max(s[1] - 1, 0),
                                 max_size=s[1] + 1))))
def test_mat_vec_matches_dense_sum_and_sympy(case):
    a, v = case
    got = linalg.mat_vec(a, v)
    # zip truncation on non-conforming lengths, as the dense sum has it
    assert got == [sum((x * y for x, y in zip(row, v)), F(0)) for row in a]
    assert all(type(x) is F for x in got)
    if a and len(v) == len(a[0]):
        col = shaped_sympy([[y] for y in v], len(v), 1)
        assert got == [row[0] for row in from_sympy(shaped_sympy(a, len(a), len(v)) * col)]


@ORACLE
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(sparse_or_dense(n, n),
                                                     sparse_or_dense(n, n))))
def test_commutator_matches_dense_sum_and_sympy(case):
    a, b = case
    got = oracles.commutator(a, b)
    ab, ba = dense_product(a, b), dense_product(b, a)
    assert got == [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]
    assert all_fractions(got)
    sa, sb = shaped_sympy(a, len(a), len(a)), shaped_sympy(b, len(b), len(b))
    assert got == from_sympy(sa * sb - sb * sa)
