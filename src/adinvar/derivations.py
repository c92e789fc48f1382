"""Linear solvers for derivation algebras, intertwiners and the Lie algebra
of orthogonal automorphisms of the d + h* construction.

Nullspace bases are canonicalized by reduced echelon form over flattened
matrix coordinates, so dimensions and containments are deterministic.
The skew derivations are solved inside the derivation algebra
(``skew_part``), so a report that needs both solves the Leibniz rule once.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, product
from math import lcm

from . import linalg
from .core import (AlgebraError, LieAlgebra, Subspace, _commutator_flat, _integral,
                   _lowered, _rows, center, derived_series, killing_form, lower_central_series)


def _flatten(m):
    return [x for row in m for x in row]


def _unflatten(v, rows, cols):
    return [list(v[i * cols:(i + 1) * cols]) for i in range(rows)]


@dataclass(frozen=True)
class MatrixLieAlgebra:
    """A commutator-closed space of matrices with its abstract closure table."""

    n: int
    basis: tuple
    closure: LieAlgebra

    @classmethod
    def from_matrices(cls, mats, n):
        """The span of the n x n matrices, in its canonical basis (``_span``)."""
        return _span([dict(enumerate(_flatten(m))) for m in mats], n)

    @property
    def dim(self):
        return len(self.basis)

    @cached_property
    def flat_subspace(self):
        return Subspace(self.n * self.n, tuple(tuple(_flatten(m)) for m in self.basis))


# Each linear condition on a matrix unknown X (flattened row-major into the
# columns offset, offset + 1, ..) is one sparse row {column: coeff}.

def _leibniz_rows(alg, offset=0):
    """(X [e_i, e_j] - [X e_i, e_j] - [e_i, X e_j])_k = 0 for i < j, on the
    bracket table scaled to integers."""
    n, empty = alg.dim, {}
    table, _ = alg.int_bracket_data
    for i, j in combinations(range(n), 2):
        rows = [Counter({offset + k * n + q: c
                         for q, c in table.get((i, j), empty).items()})
                for k in range(n)]
        for p in range(n):
            for k, c in table.get((p, j), empty).items():
                rows[k][offset + p * n + i] -= c
            for k, c in table.get((i, p), empty).items():
                rows[k][offset + p * n + j] -= c
        yield from rows


def _skew_rows(form, offset=0):
    """(B X + X^T B)_ij = 0 for i <= j, on the form scaled to integers."""
    n = form.dim
    b, _ = form.int_rows
    for i in range(n):
        for j in range(i, n):
            row = Counter()
            for q, x in b[i].items():
                row[offset + q * n + j] += x
            for q, x in b[j].items():
                row[offset + q * n + i] += x
            yield row


def _commuting_rows(m, offset=0):
    """(X m - m X)_pq = 0 for every (p, q), in row-major order, for m given
    as sparse int rows {p: {q: x}}: X_ps has the coefficient m_sq and X_sq
    the coefficient -m_ps."""
    n, empty = len(m), {}
    cols = {}
    for s, row in m.items():
        for q, x in row.items():
            cols.setdefault(q, {})[s] = x
    for p, q in product(range(n), repeat=2):
        row = Counter({offset + p * n + s: x for s, x in cols.get(q, empty).items()})
        for s, x in m[p].items():
            row[offset + s * n + q] -= x
        yield row


def _span(vectors, n):
    """The matrix Lie algebra spanned by the n x n matrices, given flattened
    as sparse rows {column: x}, in its canonical basis M_r = R_r / h_r, for
    R_r the int rows of one ``linalg._echelon`` and h_r the entry of R_r at
    its pivot p_r.  The coordinates of a matrix in that basis are its
    entries at the pivots, so those of [M_i, M_j] are C[p_r] / (h_i h_j) for
    C = [R_i, R_j], and the span is closed iff every H C = sum_r C[p_r]
    (H / h_r) R_r on ints, for H the lcm of the h_r."""
    rows, pivots = linalg._echelon(vectors, n * n)
    h = [row[p] for row, p in zip(rows, pivots)]
    big = lcm(*h)
    mats, basis, scaled = [], [], []  # R_r as {p: {q: x}}, M_r, (p_r, H R_r / h_r)
    for row, p, hr in zip(rows, pivots, h):
        m, flat = {q: {} for q in range(n)}, [linalg.Q0] * (n * n)
        for c, x in row.items():
            m[c // n][c % n] = x
            flat[c] = Fraction(x, hr)
        mats.append(m)
        basis.append(tuple(map(tuple, _unflatten(flat, n, n))))
        scaled.append((p, {c: x * (big // hr) for c, x in row.items()}))
    table = {}
    for i, j in combinations(range(len(rows)), 2):
        comm = _commutator_flat(mats[i], mats[j])
        rest, den = [big * x for x in comm], h[i] * h[j]
        table[i, j] = comps = {}
        for r, (p, row) in enumerate(scaled):
            if y := comm[p]:
                comps[r] = Fraction(y, den)
                for c, x in row.items():
                    rest[c] -= y * x
        if any(rest):
            raise AlgebraError("matrix space is not closed under commutator")
    return MatrixLieAlgebra(n, tuple(basis), LieAlgebra(len(rows), None, table))


def _solutions(rows, n):
    """The matrix Lie algebra of the n x n matrices X satisfying the rows."""
    return _span(linalg._kernel(rows, n * n), n)


def derivation_algebra(alg):
    """All D with D[x,y] = [Dx,y] + [x,Dy]."""
    return _solutions(_leibniz_rows(alg), alg.dim)


def skew_derivations(alg, form):
    """Derivations that are skew for the given nondegenerate form."""
    return skew_part(derivation_algebra(alg), form)


def skew_part(der, form):
    """The members of the matrix algebra der (a derivation algebra) that
    are skew for form.  X = sum_t c_t D_t over the basis D_t of der,
    scaled to integer matrices s D_t by one ``core._integral`` call, is
    skew iff every skew row r gives sum_t c_t (r . s D_t) = 0: a system in
    dim der unknowns.  Its ``linalg._kernel`` vectors c give the int
    matrices sum_t c_t s D_t, which one ``rref`` reduces to the canonical
    basis."""
    n = der.n
    *ints, _ = _integral(*map(_rows, der.basis))
    flats = {t: {p * n + q: x for p, row in a.items() for q, x in row.items()}
             for t, a in enumerate(ints)}
    cols = {}  # flats transposed, {column: {t: x}}
    for t, flat in flats.items():
        for col, x in flat.items():
            cols.setdefault(col, {})[t] = x
    rows = [_lowered(row, cols) for row in _skew_rows(form)]
    return _span([_lowered(c, flats) for c in linalg._kernel(rows, der.dim)], n)


def inner_derivations(alg):
    """Canonical basis of span{ad(x)}."""
    return _span([dict(enumerate(_flatten(alg.ad(i)))) for i in range(alg.dim)], alg.dim)


@dataclass(frozen=True)
class SoAut:
    """Pairs (A, B), A skew on h*, B a skew derivation of d, [B,pi(h)] = pi(Ah)."""

    nh: int
    nd: int
    pairs: tuple  # ((A, B), ...)

    @property
    def dim(self):
        return len(self.pairs)

    @cached_property
    def flat_subspace(self):
        return Subspace(self.nh * self.nh + self.nd * self.nd,
                        tuple(tuple(_flatten(a) + _flatten(b)) for a, b in self.pairs))

    def contains(self, a, b):
        return self.flat_subspace.contains(_flatten(a) + _flatten(b))


def so_aut(gd):
    """Joint nullspace for the orthogonal-automorphism Lie algebra of d + h*:
    the unknown (A, B) is A flattened, then B."""
    nh, nd = gd.nh, gd.nd
    na = nh * nh
    rows = list(_skew_rows(gd.rep.h_form))
    rows += _leibniz_rows(gd.rep.d, na)
    rows += _skew_rows(gd.rep.d_form, na)
    # [B, pi(h_i)] = pi(A h_i): column i of A weights the pi generators.
    # Every term carries one pi entry, so the pi matrices are scaled to
    # integers by one s, which leaves the nullspace as it is.
    *mats, _ = _integral(*map(_rows, gd.rep.mats))
    for i, m in enumerate(mats):
        for (p, q), row in zip(product(range(nd), repeat=2), _commuting_rows(m, na)):
            for j, mj in enumerate(mats):
                if x := mj[p].get(q):
                    row[j * nh + i] -= x
            rows.append(row)
    pairs = []
    for s in linalg._nullspace(rows, na + nd * nd):
        a = _unflatten(s[:na], nh, nh)
        b = _unflatten(s[na:], nd, nd)
        pairs.append((tuple(tuple(r) for r in a), tuple(tuple(r) for r in b)))
    return SoAut(nh, nd, tuple(pairs))


def induced_so_aut_pair(gd, i):
    """The member of so_aut coming from the i-th h basis vector."""
    a = gd.rep.h.ad(i)
    b = gd.rep.mat(i)
    return a, b


def intertwiners_skew(mats, form):
    """Matrices commuting with every generator and skew for the form.  The
    commuting rows of each generator are linear in it, so all of them are
    scaled to integers by one s."""
    *ints, _ = _integral(*(_rows([list(map(linalg.frac, r)) for r in m]) for m in mats))
    rows = [row for m in ints for row in _commuting_rows(m)]
    return _solutions(chain(rows, _skew_rows(form)), form.dim)


def profile(mla):
    """Structural invariants of the abstract algebra behind a matrix algebra."""
    alg = mla.closure
    killing = killing_form(alg)
    return {
        "dim": alg.dim,
        "center_dim": center(alg).dim,
        "derived_dims": derived_series(alg).dims,
        "lower_central_dims": lower_central_series(alg).dims,
        "killing_signature": killing.signature,
    }


def equivalence_check(alg, a, b, lam, tvec, phi):
    """phi B phi^-1 = lam A + ad(T) for the extension-equivalence criterion."""
    phi = [list(map(linalg.frac, row)) for row in phi]
    try:
        phi_inv = linalg.inverse(phi)
    except linalg.LinAlgError:
        raise AlgebraError("phi is singular")
    lhs = linalg.mat_mul(phi, linalg.mat_mul(
        [list(map(linalg.frac, row)) for row in b], phi_inv))
    rhs = linalg.mat_add(
        linalg.mat_scale(linalg.frac(lam),
                         [list(map(linalg.frac, row)) for row in a]),
        alg.ad_vector(list(map(linalg.frac, tvec))))
    return lhs == rhs
