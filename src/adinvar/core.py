"""Lie algebras, symmetric bilinear forms and subspaces over exact rationals.

Structure constants are stored sparsely for i < j only; the i > j values
follow by antisymmetry.  Subspaces are kept in reduced row echelon form so
equality of subspaces is plain data equality.

The sweeps (``skew_witnesses``, the derivation action ``_leibniz``,
``check_jacobi`` and ``killing_form``, which scatter from the stored
entries, and the series), ``Subspace.contains_all``, ``_commutator_flat``
and the construction checks of ``extension`` run on Python ints.  Symmetric
work is done once: a derivation action on an antisymmetric S forms the
tuples t_0 < t_1, a bracket span of a subspace with itself (by value) the
pairs a < b, [g, g] is bracketed once per algebra, ``check_jacobi`` reads
[e_a, e_b] for a < b, and ``killing_form`` computes the entries i <= j.

The int format is one type, ``View`` = (data, scale): sparse int data over
an int scale, reduced so that equal rational data have equal views.
Algebras, forms and tensors hold one view each (``LieAlgebra.int_bracket_data``,
``BilinearForm.int_rows``, ``geometry.Tensor.int_data``), set in one
place per class: the constructions hand their int sums to ``from_ints``,
which reduces them once (``View.of``), and the rational constructors are a
``View.of_rational`` in front of the same place.  The rational readers
(``table``, ``bracket_data``, ``matrix``, ``Tensor.data``) are rendered
from the view (``View.rational``) on first read.  A route brings the views
it reads to one scale by ``View.common``: a term multiplying one entry of
each input is the product of their scales times its value, so a scale per
input keeps every verdict and span, and a term of d entries on one scale s
is s^d times its value.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass
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
    def derived_algebra(self):
        """[g, g], the first term of both the derived and the lower central
        series."""
        full = Subspace.full(self.dim)
        return _bracket_span(self.int_bracket_data[0], full, full)

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
        """(rows, scale) of B^-1, made once per form: for B = b / s, one
        ``linalg._echelon`` of [b | I] makes row i h_i [e_i | row i of b^-1],
        and B^-1 = s b^-1 over the lcm of the h_i.  ``LinAlgError`` if B is
        singular."""
        (b, s), n, empty = self.int_rows, self.dim, {}
        rows, pivots = linalg._echelon(({**b.get(i, empty), n + i: 1} for i in range(n)), 2 * n)
        if pivots[:n] != list(range(n)):
            raise linalg.LinAlgError("matrix is singular")
        h = lcm(*(row[i] for i, row in enumerate(rows)))
        return View.of({i: {q - n: x * s * (h // row[i]) for q, x in row.items() if q >= n}
                        for i, row in enumerate(rows)}, h)

    @cached_property
    def signature(self):
        return linalg._signature(self.int_rows[0], self.dim)

    @property
    def nondegenerate(self):
        return self.signature[2] == 0


@dataclass(frozen=True)
class Subspace:
    """Row space in reduced echelon form; equality is data equality."""

    ambient_dim: int
    rows: tuple

    @classmethod
    def span(cls, vectors, ambient_dim):
        vectors = [list(map(frac, v)) for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise AlgebraError("spanning vector has wrong length")
        reduced = linalg.rref(vectors)[0] if vectors else []
        return cls(ambient_dim, tuple(tuple(r) for r in reduced))

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, tuple(map(tuple, linalg.identity(ambient_dim))))

    @property
    def dim(self):
        return len(self.rows)

    def basis(self):
        return [list(r) for r in self.rows]

    @cached_property
    def int_rows(self):
        """The ``View`` of the rows, scaled to ints once per subspace."""
        return View.of_rational({r: dict(enumerate(row)) for r, row in enumerate(self.rows)})

    def contains(self, v):
        return self.contains_all([v])

    def contains_all(self, vectors):
        """True iff every vector lies in this subspace.  The rows are in
        reduced echelon form, so v lies in it iff v = sum_r v[pivot_r] row_r;
        both sides agree on the pivot columns, so the rest of v minus that
        combination must vanish, and nothing is eliminated.  On ints: the
        rows scaled by one s (``int_rows``), each v by its own t, and
        s (t v) - sum_r (t v)[pivot_r] (s row_r) is compared with zero."""
        rows, s = self.int_rows
        rows = [(next(iter(row)), row) for row in rows.values()]  # (pivot, row)
        for v in vectors:
            v = list(map(frac, v))
            t = lcm(*(x.denominator for x in v))
            w = [x.numerator * (t // x.denominator) for x in v]
            rest = [s * x for x in w]
            for p, row in rows:
                x = w[p]
                if x:
                    for c, y in row.items():
                        rest[c] -= x * y
            if any(rest):
                return False
        return True

    def contains_subspace(self, other):
        return self.contains_all(other.rows)

    def add(self, other):
        return Subspace.span(self.basis() + other.basis(), self.ambient_dim)


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
    table, scale = alg.int_bracket_data
    den, by_first = scale * scale, {}
    for (p, c), comps in table.items():
        by_first.setdefault(p, []).append((c, comps))
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

def operator_data(mats):
    """The operator field x -> mats[x] in the sparse tensor format."""
    return {(x, q): {p: m[p][q] for p in range(len(m)) if m[p][q]}
            for x, m in enumerate(mats) for q in range(len(m))
            if any(row[q] for row in m)}


def skew_witnesses(op, form):
    """(x, j, k), in order, with <C_x e_j, e_k> + <e_j, C_x e_k> != 0."""
    return _skew(View.of_rational(op).data, form.int_rows.data)


def _lowered(v, rows):
    """{k: <v, e_k>} = sum_p v[p] rows[p], on ints: the sparse row v times
    the sparse matrix rows, in which a missing row is zero."""
    out, empty = {}, {}
    for p, c in v.items():
        for k, b in rows.get(p, empty).items():
            out[k] = out.get(k, 0) + c * b
    return out


def _skew(op, rows):
    """``skew_witnesses`` on ints: the row m_j = <C_x e_j, .> of each stored
    column, grouped by operator once; each m_j[k] is added to m_k[j]."""
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
    rows = [list(map(frac, r)) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    return Subspace(ncols, tuple(map(tuple, linalg.nullspace(rows))))  # reduced


def center(alg):
    """Solutions of [e_i, x] = sum_j c_ij^k x_j e_k = 0 for every basis e_i:
    one sparse row {j: c_ij^k} per (i, k), scaled to integers."""
    table, _ = alg.int_bracket_data
    rows = {}
    for (i, j), comps in table.items():
        for k, c in comps.items():
            rows.setdefault((i, k), {})[j] = c
    basis = linalg._nullspace(rows.values(), alg.dim)  # in reduced echelon form
    return Subspace(alg.dim, tuple(map(tuple, basis)))


def orthogonal_complement(sub, form):
    """{x : B(s, x) = 0 for all s in sub}."""
    if sub.dim == 0:
        return Subspace.full(sub.ambient_dim)
    rows = [linalg.mat_vec(form.rows(), list(r)) for r in sub.rows]
    return Subspace(sub.ambient_dim, tuple(map(tuple, linalg.nullspace(rows))))


def is_subalgebra(alg, sub):
    base = sub.basis()
    return sub.contains_all([alg.bracket(u, v)
                             for a, u in enumerate(base) for v in base[a + 1:]])


def totally_isotropic(sub, form):
    base = sub.basis()
    return all(form.apply(u, v) == 0
               for a, u in enumerate(base) for v in base[a:])


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


def _bracket_span(table, left, right):
    """[left, right] for the bracket table scaled to integers, where
    [left, right] lies in right, as it does down both series ([C, C] in C,
    and [g, D] in D, by induction).  The two bases, each scaled to integers
    once per subspace (``int_rows``), are bracketed one pair at a time and fed to
    ``linalg._rref`` with the rank bound dim right: once that many
    brackets are independent, the span is right and no further pair is
    bracketed.  Scaling a spanning vector keeps the span; the reduced
    basis is unique."""
    n = left.ambient_dim
    by_first = {}
    for (i, j), comps in table.items():
        by_first.setdefault(i, []).append((j, comps))
    lrows, rrows = list(left.int_rows[0].values()), list(right.int_rows[0].values())
    if left == right:  # [u, u] = 0 and [v, u] = -[u, v]
        pairs = combinations(range(len(lrows)), 2)
    else:
        pairs = product(range(len(lrows)), range(len(rrows)))
    brackets = (_bracket(by_first, lrows[a], rrows[b]) for a, b in pairs)
    return Subspace(n, tuple(map(tuple, linalg._rref(brackets, n, right.dim)[0])))


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
    table, _ = alg.int_bracket_data
    return _series(alg, lambda s: _bracket_span(table, s, s))


def lower_central_series(alg):
    """D^0 = g, D^i = [g, D^{i-1}]; step k means k-step nilpotent."""
    table, _ = alg.int_bracket_data
    full = Subspace.full(alg.dim)
    return _series(alg, lambda s: _bracket_span(table, full, s))


def invariant_forms(alg):
    """Basis of symmetric forms with B([x,y],z) + B(y,[x,z]) = 0."""
    n = alg.dim
    pairs = list(combinations_with_replacement(range(n), 2))
    index = {}
    for a, (p, q) in enumerate(pairs):
        index[p, q] = index[q, p] = a
    empty = {}
    rows = []
    for i in range(n):
        for j, k in pairs:
            row = Counter()
            for p, c in alg.bracket_data.get((i, j), empty).items():
                row[index[p, k]] += c
            for p, c in alg.bracket_data.get((i, k), empty).items():
                row[index[j, p]] += c
            rows.append(row)
    return [BilinearForm(tuple(tuple(s[index[p, q]] for q in range(n))
                               for p in range(n)))
            for s in linalg._nullspace(rows, len(pairs))]


def restrict_to_subalgebra(alg, sub):
    """Lie algebra on sub's basis; raises if sub is not closed under brackets."""
    base = sub.basis()
    pairs = list(combinations(range(sub.dim), 2))
    coords = linalg.coordinates(base, [alg.bracket(base[a], base[b]) for a, b in pairs])
    if coords is None:
        raise AlgebraError("subspace is not a subalgebra")
    return LieAlgebra(sub.dim, None, {pair: dict(enumerate(cs))
                                      for pair, cs in zip(pairs, coords)})


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
