"""Lie algebras, symmetric bilinear forms and subspaces over exact rationals.

Structure constants are stored sparsely for i < j only; the i > j values
follow by antisymmetry.  Subspaces are kept in reduced row echelon form so
equality of subspaces is plain data equality.

The sweeps (the skew test ``_skew``, the derivation action ``_leibniz``,
``check_jacobi`` and ``killing_form``, which scatter from the stored
entries, and the series), the subspaces and what they solve,
``_commutator_flat`` and the construction checks run on Python ints.  Symmetric
work is done once: a derivation action on an antisymmetric S forms the
tuples t_0 < t_1, a bracket span of a subspace with itself (by value) the
pairs a < b, [g, g] is bracketed once per algebra, ``check_jacobi`` reads
[e_a, e_b] for a < b, and ``killing_form`` computes the entries i <= j.

The int format is one type, ``View`` = (data, scale): sparse int data over
an int scale, reduced so that equal rational data have equal views.
Algebras, forms, tensors and subspaces hold one view each
(``LieAlgebra.int_bracket_data``, ``BilinearForm.int_rows``,
``geometry.Tensor.int_data``, ``Subspace.int_rows``), set in one place per
class: the constructions hand their int sums to ``from_ints`` (for a
subspace, its spanning rows to ``Subspace.of``), which reduces them once
(``View.of``), and the rational constructors are a ``View.of_rational`` in
front of the same place.  The rational readers (``table``,
``bracket_data``, ``matrix``, ``Tensor.data``, ``Subspace.rows``) are
rendered from the view on first read.  A route brings the views
it reads to one scale by ``View.common``: a term multiplying one entry of
each input is the product of their scales times its value, so a scale per
input keeps every verdict and span, and a term of d entries on one scale s
is s^d times its value.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product
from math import gcd, lcm
from typing import NamedTuple

from . import linalg
from .linalg import Q0, frac


class AlgebraError(Exception):
    pass


class View(NamedTuple):
    """Rational sparse data {key: {p: c}} as int data over an int scale,
    c = data[key][p] / scale.  A view is canonical: scale > 0 and the
    entries have no common factor with it, no entry is zero and no output
    empty, so equal rational data have equal views.  ``of`` reduces int
    data, ``of_rational`` scales rational data, ``common`` brings views to
    one scale and ``rational`` renders a view; no other code does."""

    data: dict
    scale: int

    @classmethod
    def of(cls, data, scale):
        """The view of data / scale, reduced once; when there is nothing
        to divide or drop, the dicts are kept as given, so a caller that
        writes to them later copies them first."""
        g = gcd(scale, *(x for comps in data.values() for x in comps.values()))
        if g == 1 and all(comps and all(comps.values()) for comps in data.values()):
            return cls(data, scale)
        return cls({key: out for key, comps in data.items()
                    if (out := {p: x // g for p, x in comps.items() if x})}, scale // g)

    @classmethod
    def of_rational(cls, data):
        """The view of rational data: each entry times the lcm of the
        denominators, which leaves no common factor to divide."""
        scale = lcm(*{c.denominator for comps in data.values() for c in comps.values()})
        return cls({key: out for key, comps in data.items()
                    if (out := {p: c.numerator * (scale // c.denominator)
                                for p, c in comps.items() if c})}, scale)

    @staticmethod
    def common(*views):
        """(*datas, scale): the views (data, s) brought to scale, the lcm of
        their scales, each data times scale // s.  A data whose factor is 1
        is returned as it is, not copied: a caller that writes to it
        copies it."""
        scale = lcm(*(s for _, s in views))
        return (*(data if s == scale else
                  {key: {p: x * (scale // s) for p, x in comps.items()}
                   for key, comps in data.items()} for data, s in views), scale)

    def rational(self):
        """The rational data, one ``Fraction`` per entry."""
        return {key: {p: Fraction(x, self.scale) for p, x in comps.items()}
                for key, comps in self.data.items()}


@dataclass(init=False)
class LieAlgebra:
    """Anticommutative algebra given by sparse structure constants.

    table[(i, j)][k] is the e_k coefficient of [e_i, e_j], for i < j.
    Antisymmetry is built in; the Jacobi identity is *not* implied and is
    checked by ``check_jacobi`` (builders call it, raw loaders may not).
    ``names`` None or empty names the basis e1, .., en.  The algebra holds
    one ``View``, ``int_bracket_data``, of the bracket on the ordered pairs
    with [e_i, e_j] != 0 (equality compares dim, names and view), set by
    ``_view`` alone; ``table`` and ``bracket_data`` are rendered from it
    on first read.
    """

    dim: int
    names: tuple
    int_bracket_data: tuple

    def __init__(self, dim, names, table):
        if bad := next((ij for ij in table if ij[0] >= ij[1]), None):
            raise AlgebraError(f"bracket key ({bad[0]},{bad[1]}) must have i < j")
        view = View.of_rational({ij: dict(zip(comps, map(frac, comps.values())))
                                for ij, comps in table.items()})
        for (i, j), comps in view.data.items():  # zeros dropped
            if not (0 <= i < j < dim):
                raise AlgebraError(f"bracket index ({i},{j}) out of range")
            if any(not 0 <= k < dim for k in comps):
                raise AlgebraError("bracket component index out of range")
        self._view(dim, names, view)

    @classmethod
    def from_ints(cls, dim, names, ints, scale):
        """The algebra of table ints / scale, for int data {(i, j): {k: x}}
        on pairs i < j and an int scale > 0."""
        return cls.__new__(cls)._view(dim, names, View.of(ints, scale))

    def _view(self, dim, names, half):
        """Set dim, names and the view, mirrored from the view of the pairs
        i < j."""
        self.dim, self.names = dim, tuple(names or (f"e{i + 1}" for i in range(dim)))
        if len(self.names) != dim:
            raise AlgebraError("names length does not match dim")
        out = {}
        for (i, j), comps in half.data.items():
            out[i, j], out[j, i] = comps, {k: -x for k, x in comps.items()}
        self.int_bracket_data = View(out, half.scale)
        return self

    @classmethod
    def abelian(cls, dim, names=None):
        return cls(dim, names, {})

    @cached_property
    def table(self):
        ints, scale = self.int_bracket_data
        return View({ij: comps for ij, comps in ints.items() if ij[0] < ij[1]}, scale).rational()

    @cached_property
    def bracket_data(self):
        """The bracket in the sparse tensor format: {(i, j): {k: coeff}} for
        every ordered pair with [e_i, e_j] != 0."""
        return self.int_bracket_data.rational()

    @cached_property
    def by_first(self):
        """The int bracket by first slot, {i: [(j, {k: x})]}, for ``_bracket``."""
        out = {}
        for (i, j), comps in self.int_bracket_data[0].items():
            out.setdefault(i, []).append((j, comps))
        return out

    @cached_property
    def derived_algebra(self):
        """[g, g], the first term of both the derived and the lower central
        series."""
        full = Subspace.full(self.dim)
        return _bracket_span(self, full, full)

    def basis_bracket(self, i, j):
        """[e_i, e_j] as a coefficient vector."""
        v = linalg.zero_vector(self.dim)
        for k, c in self.bracket_data.get((i, j), {}).items():
            v[k] = c
        return v

    def bracket(self, x, y):
        """Bilinear extension of the basis brackets."""
        if len(x) != self.dim or len(y) != self.dim:
            raise AlgebraError("vector length does not match algebra dimension")
        table = self.bracket_data
        out = linalg.zero_vector(self.dim)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0 or (i, j) not in table:
                    continue
                c = xi * yj
                for k, s in table[i, j].items():
                    out[k] += c * s
        return out

    def ad(self, i):
        """Matrix of ad(e_i): columns are [e_i, e_j]."""
        return linalg.transpose([self.basis_bracket(i, j) for j in range(self.dim)])

    def ad_vector(self, x):
        return linalg.transpose([self.bracket(x, v) for v in linalg.identity(self.dim)])


@dataclass(init=False)
class BilinearForm:
    """Symmetric bilinear form of dimension ``dim``; its signature is
    cached, read off a fraction-free elimination of its int rows
    (``linalg._signature``).  The form holds one ``View``, ``int_rows``, of
    its sparse rows {p: {q: x}}, in which a zero row has no key (equality
    compares dim and view), set by ``_view`` alone; ``matrix`` is rendered
    from it on first read."""

    dim: int
    int_rows: tuple

    def __init__(self, matrix):
        rows = tuple(tuple(map(frac, row)) for row in matrix)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise AlgebraError("form matrix is not square")
        if rows != tuple(zip(*rows)):  # entries compared by identity first
            i, j = next((i, j) for i in range(n) for j in range(i) if rows[i][j] != rows[j][i])
            raise AlgebraError(f"form is not symmetric at ({i},{j})")
        self._view(n, View.of_rational({p: dict(enumerate(row)) for p, row in enumerate(rows)}))

    @classmethod
    def from_ints(cls, dim, rows, scale):
        """The form rows / scale of dimension dim, for symmetric sparse int
        rows {p: {q: x}} and an int scale > 0."""
        return cls.__new__(cls)._view(dim, View.of(rows, scale))

    @classmethod
    def diagonal(cls, entries):
        rows = {i: {i: frac(e)} for i, e in enumerate(entries)}
        return cls.__new__(cls)._view(len(rows), View.of_rational(rows))

    def _view(self, dim, view):
        self.dim, self.int_rows = dim, view
        return self

    @cached_property
    def matrix(self):
        rows, n, empty = self.int_rows.rational(), self.dim, {}
        return tuple(tuple(rows.get(p, empty).get(q, Q0) for q in range(n)) for p in range(n))

    def rows(self):
        return [list(row) for row in self.matrix]

    def apply(self, x, y):
        """B(x, y), summed over the nonzero coordinates of x and y only."""
        total = Q0
        for xi, row in zip(x, self.matrix):
            if xi:
                for bij, yj in zip(row, y):
                    if bij and yj:
                        total += xi * bij * yj
        return total

    @cached_property
    def int_inverse(self):
        """The ``View`` of B^-1 = (b / s)^-1 (``linalg._inverse``), made once
        per form.  ``LinAlgError`` if B is singular."""
        (b, s), n = self.int_rows, self.dim
        return View.of(*linalg._inverse([b.get(i, {}) for i in range(n)], n, s))

    @cached_property
    def signature(self):
        return linalg._signature(self.int_rows[0], self.dim)

    @property
    def nondegenerate(self):
        return self.signature[2] == 0


@dataclass(frozen=True, repr=False)
class Subspace:
    """A row space held as one ``View``, ``int_rows``, of its reduced
    echelon rows (row r, in pivot order, holds the scale at its pivot), the
    one field that equality compares; ``of`` makes it, and ``rows``,
    ``basis()`` and the repr are rendered from it."""

    ambient_dim: int = field(compare=False)
    int_rows: View

    @classmethod
    def of(cls, ambient_dim, vectors, bound=None):
        """The span of the sparse int (or rational) rows {c: x}: the rows R_r
        of one ``linalg._echelon`` (to the rank bound), h_r at the pivot,
        are R_r L / h_r over the lcm L of the h_r."""
        rows, pivots = linalg._echelon(vectors, ambient_dim, bound)
        big = lcm(*(row[c] for row, c in zip(rows, pivots)))
        return cls(ambient_dim, View.of({r: {c: x * (big // row[p]) for c, x in row.items()}
                                         for r, (row, p) in enumerate(zip(rows, pivots))}, big))

    @classmethod
    def span(cls, vectors, ambient_dim):
        vectors = [list(map(frac, v)) for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise AlgebraError("spanning vector has wrong length")
        return cls.of(ambient_dim, map(dict, map(enumerate, vectors)))

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, View({i: {i: 1} for i in range(ambient_dim)}, 1))

    @property
    def dim(self):
        return len(self.int_rows.data)

    @cached_property
    def pivots(self):
        return [min(row) for row in self.int_rows.data.values()]

    @cached_property
    def rows(self):
        (data, s), n = self.int_rows, self.ambient_dim
        return tuple(tuple(Fraction(row[c], s) if c in row else Q0 for c in range(n))
                     for row in data.values())

    def basis(self):
        return [list(r) for r in self.rows]

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim!r}, rows={self.rows!r})"

    def _expand(self, w):
        """{r: w[p_r]}, the coordinates of the sparse int vector w in the
        reduced rows R_r / s, or None unless s w - sum_r w[p_r] R_r = 0."""
        rows, s = self.int_rows
        rest, coords = {c: s * x for c, x in w.items()}, {}
        for (r, row), p in zip(rows.items(), self.pivots):
            if x := w.get(p):
                coords[r] = x
                for c, y in row.items():
                    rest[c] = rest.get(c, 0) - x * y
        return None if any(rest.values()) else coords

    def contains(self, v):
        return self.contains_all([v])

    def contains_all(self, vectors):
        """True iff every vector, scaled to ints, expands on the rows."""
        ints, _ = View.of_rational(dict(enumerate(dict(enumerate(map(frac, v))) for v in vectors)))
        return all(self._expand(w) is not None for w in ints.values())

    def contains_subspace(self, other):
        return all(self._expand(w) is not None for w in other.int_rows.data.values())

    def add(self, other):
        return Subspace.of(self.ambient_dim, [*self.int_rows.data.values(),
                                              *other.int_rows.data.values()])


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _commutator_flat(a, b):
    """ab - ba for matrices of sparse int rows {p: {q: x}}, flattened
    row-major."""
    n = len(a)
    out = [0] * (n * n)
    for x_rows, y_rows, sign in ((a, b, 1), (b, a, -1)):
        for p, row in x_rows.items():
            for q, x in row.items():
                for r, y in y_rows[q].items():
                    out[p * n + r] += sign * x * y
    return out


class Check(NamedTuple):
    """The verdict on one identity: its name, whether it holds, and where
    it fails (or any detail worth showing), None when there is nothing to
    show.  A tuple is always true, so read ``.ok``."""

    name: str
    ok: bool
    witness: object = None


# ``all_pass`` of the result types that carry a tuple ``checks`` of Check
all_pass = property(lambda self: all(c.ok for c in self.checks))


def check_jacobi(alg):
    """All triples i<j<k whose cyclic bracket sum is nonzero, as a sorted
    list of (i, j, k, sum_vector); empty iff alg is a Lie algebra.

    The table scaled by L to integers is indexed once by first slot, and
    each stored c_ab^p, a < b, sends c_ab^p [e_p, e_c], L^2 times the true
    term, to the triple {a, b, c} for every stored [e_p, e_c], c not in
    {a, b}, signed as (a, b, c) is a cyclic order: -1 iff a < c < b."""
    (table, scale), by_first = alg.int_bracket_data, alg.by_first
    den = scale * scale
    sums = defaultdict(lambda: defaultdict(int))
    for (a, b), comps in table.items():
        if a < b:
            for p, x in comps.items():
                for c, br in by_first.get(p, ()):
                    if c != a and c != b:
                        acc = sums[(c, a, b) if c < a else (a, c, b) if c < b else (a, b, c)]
                        t = -x if a < c < b else x
                        for r, y in br.items():
                            acc[r] += t * y
    return [(*ijk, [Fraction(acc[r], den) if acc[r] else Q0 for r in range(alg.dim)])
            for ijk, acc in sorted(sums.items()) if any(acc.values())]


def ad_invariant(alg, form):
    """True iff B([x,y],z) + B(y,[x,z]) = 0 on all basis triples, that is,
    iff every ad(e_i) is skew for B."""
    if form.dim != alg.dim:
        raise AlgebraError("form and algebra dimensions differ")
    return next(_skew(alg.int_bracket_data[0], form.int_rows[0]), None) is None


# Identities on all basis tuples.  Operator fields and tensors are given as
# ``geometry.Tensor`` data, {(i, j, ..): {p: coeff}}, so that
# C_x e_q = sum_p op[(x, q)][p] e_p.  The kernels yield the failing index
# tuples in sorted order, operator by operator, so a verdict stops at the
# first failing operator.  Each kernel reads integer views, one per input.

def _lowered(v, rows):
    """{k: <v, e_k>} = sum_p v[p] rows[p], on ints: the sparse row v times
    the sparse matrix rows, in which a missing row is zero."""
    out, empty = {}, {}
    for p, c in v.items():
        for k, b in rows.get(p, empty).items():
            out[k] = out.get(k, 0) + c * b
    return out


def _pair(rows, u, v):
    """B(u, v) for the sparse int rows of B and sparse int vectors."""
    return sum(x * v.get(k, 0) for k, x in _lowered(u, rows).items())


def _gram(form, view):
    """The ``BilinearForm`` B(u_a, u_b) on the vectors u_a = data[a] / s of
    the view: int sums over t s^2, for the int rows of B over t."""
    (rows, t), (vecs, s) = form.int_rows, view
    vecs = list(vecs.values())
    return BilinearForm.from_ints(len(vecs), {a: {b: _pair(rows, u, v) for b, v in enumerate(vecs)}
                                              for a, u in enumerate(vecs)}, t * s * s)


def _skew(op, rows):
    """(x, j, k), in order, with <C_x e_j, e_k> + <e_j, C_x e_k> != 0 for
    the int operator field op and the int rows of the form: the row m_j =
    <C_x e_j, .> of each stored column, grouped by operator once; each
    m_j[k] is added to m_k[j]."""
    cols, empty = {}, {}
    for (x, j), col in op.items():
        cols.setdefault(x, {})[j] = col
    for x in sorted(cols):
        m = {j: _lowered(col, rows) for j, col in cols[x].items()}
        yield from sorted({(x, *jk) for j, row in m.items() for k, v in row.items()
                           if v + m.get(k, empty).get(j, 0) for jk in ((j, k), (k, j))})


def _antisymmetric(tensor):
    """True iff S(t_1, t_0, ..) = -S(t_0, t_1, ..) on every stored key, so
    that S(y, y, ..) = 0 too; zero entries are ignored."""
    empty = {}
    return all({p: c for p, c in comps.items() if c}
               == {p: -c for p, c in tensor.get((t[1], t[0]) + t[2:], empty).items() if c}
               for t, comps in tensor.items())


def _leibniz(op, tensor):
    """(x, *t), in sorted order, where the derivation action of the int
    operator field C on the int tensor S does not vanish:

      (C.S)(x; t) = C_x S(t) - sum_s S(t with C_x e_{t_s} in slot s),

    with S the bracket the Leibniz rule for C_x; the keys of S give its
    number of slots.  Scattered: each stored S(u) sends C_x S(u) to u and,
    for each slot s and (y, c) in into[x][u_s] (C_x e_y has entry c at
    e_{u_s}), -c S(u) to u with y in slot s; no other tuple is formed.
    When S is antisymmetric in its first two slots (read once off its
    entries), so is C.S, and (C.S)(x; y, y, ..) = 0: S is read by halves,
    u = (a, b, ..), a < b, and its mirror -S(u), and (x, z, y, ..) is
    yielded with a failing (x, y, z, ..)."""
    slots = len(next(iter(tensor), ()))  # 0 for an empty S: no witness
    half = slots >= 2 and _antisymmetric(tensor)
    cols, into, empty = {}, {}, {}
    for (x, y), col in op.items():
        cols.setdefault(x, {})[y] = col
        for q, c in col.items():
            into.setdefault(x, {}).setdefault(q, []).append((y, c))
    keys = [(u, comps) for u, comps in tensor.items() if not half or u[0] < u[1]]
    for x in sorted(cols):
        cx, ix, out = cols[x], into.get(x, empty), defaultdict(dict)
        for u, comps in keys:
            hits = []  # (t, k): k S(u) goes to the tuple t
            if half:  # e_a: slot 0 of u, slot 1 of its mirror -S(u); e_b: the reverse
                a, b, rest = u[0], u[1], u[2:]
                for q, o, k in ((a, b, -1), (b, a, 1)):
                    for y, c in ix.get(q, ()):
                        if y < o:
                            hits.append(((y, o) + rest, k * c))
                        elif y > o:
                            hits.append(((o, y) + rest, -k * c))
            for s in range(2 * half, slots):
                hits += [(u[:s] + (y,) + u[s + 1:], -c) for y, c in ix.get(u[s], ())]
            acc = out[u]
            for p, c in comps.items():
                for r, v in cx.get(p, empty).items():
                    acc[r] = acc.get(r, 0) + c * v
            for t, k in hits:
                acc = out[t]
                for r, v in comps.items():
                    acc[r] = acc.get(r, 0) + k * v
        bad = [t for t, acc in out.items() if any(acc.values())]
        bad += [(t[1], t[0]) + t[2:] for t in bad] if half else []
        yield from ((x,) + t for t in sorted(bad))


def kernel_of(matrix):
    n = len(matrix[0]) if matrix else 0
    return Subspace.of(n, linalg._kernel([dict(enumerate(map(frac, r))) for r in matrix], n))


def center(alg):
    """Solutions of [e_i, x] = sum_j c_ij^k x_j e_k = 0 for every basis e_i:
    one sparse row {j: c_ij^k} per (i, k), scaled to integers."""
    table, _ = alg.int_bracket_data
    rows = {}
    for (i, j), comps in table.items():
        for k, c in comps.items():
            rows.setdefault((i, k), {})[j] = c
    return Subspace.of(alg.dim, linalg._kernel(rows.values(), alg.dim))


def orthogonal_complement(sub, form):
    """{x : B(s, x) = 0 for all s in sub}, the kernel of the lowered rows."""
    rows = form.int_rows.data
    return Subspace.of(sub.ambient_dim, linalg._kernel(
        [_lowered(r, rows) for r in sub.int_rows.data.values()], sub.ambient_dim))


def is_subalgebra(alg, sub):
    rows = list(sub.int_rows.data.values())
    return all(sub._expand(_bracket(alg.by_first, u, v)) is not None
               for a, u in enumerate(rows) for v in rows[a + 1:])


def totally_isotropic(sub, form):
    rows, vecs = form.int_rows.data, list(sub.int_rows.data.values())
    return not any(_pair(rows, u, v) for a, u in enumerate(vecs) for v in vecs[a:])


@dataclass(frozen=True)
class SeriesResult:
    chain: tuple      # Subspaces, starting at the full algebra
    step: int | None  # k with term_k = 0 != term_{k-1}; None if not reached

    @property
    def dims(self):
        return tuple(s.dim for s in self.chain)


def _bracket(by_first, u, v):
    """[u, v] for sparse int vectors u and v, summed over the nonzero
    entries of u, v and the int table {i: [(j, {k: c_ij^k})]}."""
    w = Counter()
    for i, x in u.items():
        for j, comps in by_first.get(i, ()):
            y = v.get(j)
            if y:
                c = x * y
                for k, z in comps.items():
                    w[k] += c * z
    return w


def _bracket_span(alg, left, right):
    """[left, right] on the int bracket of alg, where [left, right] lies in
    right, as it does down both series ([C, C] in C, and [g, D] in D, by
    induction).  The int rows are bracketed one pair at a time and fed to
    ``Subspace.of`` with the rank bound dim right: once that many brackets
    are independent, the span is right and no further pair is bracketed."""
    lrows, rrows = list(left.int_rows.data.values()), list(right.int_rows.data.values())
    if left == right:  # [u, u] = 0 and [v, u] = -[u, v]
        pairs = combinations(range(len(lrows)), 2)
    else:
        pairs = product(range(len(lrows)), range(len(rrows)))
    brackets = (_bracket(alg.by_first, lrows[a], rrows[b]) for a, b in pairs)
    return Subspace.of(left.ambient_dim, brackets, right.dim)


def _series(alg, next_term):
    """g, [g, g] (computed once per algebra), then next_term of the last
    term, until a term is zero (step k) or equals the one before (step
    None)."""
    chain = [Subspace.full(alg.dim)]
    nxt = alg.derived_algebra
    while nxt != chain[-1]:
        chain.append(nxt)
        if nxt.dim == 0:
            return SeriesResult(tuple(chain), len(chain) - 1)
        nxt = next_term(nxt)
    return SeriesResult(tuple(chain), None)


def derived_series(alg):
    """C^0 = g, C^i = [C^{i-1}, C^{i-1}]; step k means k-step solvable."""
    return _series(alg, lambda s: _bracket_span(alg, s, s))


def lower_central_series(alg):
    """D^0 = g, D^i = [g, D^{i-1}]; step k means k-step nilpotent."""
    full = Subspace.full(alg.dim)
    return _series(alg, lambda s: _bracket_span(alg, full, s))


def invariant_forms(alg):
    """Basis of symmetric forms with B([x,y],z) + B(y,[x,z]) = 0: the
    reduced kernel of one int row per basis triple."""
    n, (table, _) = alg.dim, alg.int_bracket_data
    pairs = list(combinations_with_replacement(range(n), 2))
    index = {}
    for a, (p, q) in enumerate(pairs):
        index[p, q] = index[q, p] = a
    empty = {}
    rows = []
    for i in range(n):
        for j, k in pairs:
            row = Counter()
            for p, c in table.get((i, j), empty).items():
                row[index[p, k]] += c
            for p, c in table.get((i, k), empty).items():
                row[index[j, p]] += c
            rows.append(row)
    sols, s = Subspace.of(len(pairs), linalg._kernel(rows, len(pairs))).int_rows
    return [BilinearForm.from_ints(n, {p: {q: sol.get(index[p, q], 0) for q in range(n)}
                                       for p in range(n)}, s) for sol in sols.values()]


def restrict_to_subalgebra(alg, sub):
    """Lie algebra on sub's basis; raises if sub is not closed under brackets.
    For the rows R_a / s and the bracket over t, [R_a, R_b] is t s^2 times
    [b_a, b_b]; ``Subspace._expand`` gives its coordinates."""
    rows, s = sub.int_rows
    table = {}
    for a, b in combinations(range(sub.dim), 2):
        coords = sub._expand(_bracket(alg.by_first, rows[a], rows[b]))
        if coords is None:
            raise AlgebraError("subspace is not a subalgebra")
        table[a, b] = coords
    return LieAlgebra.from_ints(sub.dim, None, table, alg.int_bracket_data[1] * s * s)


def killing_form(alg):
    """B(e_i, e_j) = trace(ad(e_i) ad(e_j)) = sum c_iq^p c_jp^q, a sparse
    product (F. G. Gustavson, ACM TOMS 4, 1978): the table scaled by L to
    integers is indexed once by (p, q), listing each (j, c_jp^q), and each
    stored c_iq^p = x adds x y, L^2 times the true term, to B_ij for every
    (j, y) at (p, q) with j >= i; the symmetric B is then mirrored."""
    table, scale = alg.int_bracket_data
    n, den, at = alg.dim, scale * scale, {}
    for (j, p), comps in table.items():
        for q, y in comps.items():
            at.setdefault((p, q), []).append((j, y))
    m = [[0] * n for _ in range(n)]
    for (i, q), comps in table.items():
        row = m[i]
        for p, x in comps.items():
            for j, y in at.get((p, q), ()):
                if j >= i:
                    row[j] += x * y
    for i, j in combinations(range(n), 2):
        m[j][i] = m[i][j]
    return BilinearForm.from_ints(n, {i: dict(enumerate(row)) for i, row in enumerate(m)}, den)
