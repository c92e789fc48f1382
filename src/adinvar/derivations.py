"""Linear solvers for derivation algebras, intertwiners and the Lie algebra
of orthogonal automorphisms of the d + h* construction.

Nullspace bases are canonicalized by reduced echelon form over flattened
matrix coordinates, so dimensions and containments are deterministic.
"""

from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .core import (AlgebraError, BilinearForm, LieAlgebra, Subspace, center,
                   derived_series, killing_form, lower_central_series)
from .linalg import Q0


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
        mats = [[list(map(linalg.frac, row)) for row in m] for m in mats]
        k = len(mats)
        pairs = list(combinations(range(k), 2))
        # One elimination of [basis | every commutator], flattened as
        # columns: the basis is independent iff columns 0..k-1 all carry
        # pivots, closed iff no other column does, and then rows 0..k-1
        # hold the coordinates of each commutator in the basis.
        cols = [_flatten(m) for m in mats]
        cols += [_flatten(linalg.commutator(mats[i], mats[j])) for i, j in pairs]
        rows, pivots = linalg.rref(linalg.transpose(cols))
        if pivots[:k] != list(range(k)):
            raise AlgebraError("matrix basis is not linearly independent")
        if len(pivots) > k:
            raise AlgebraError("matrix space is not closed under commutator")
        table = {}
        for col, pair in enumerate(pairs, start=k):
            comps = {b: rows[b][col] for b in range(k) if rows[b][col] != 0}
            if comps:
                table[pair] = comps
        closure = LieAlgebra.from_brackets(len(mats), table, check=False)
        frozen = tuple(tuple(tuple(row) for row in m) for m in mats)
        return cls(n, frozen, closure)

    @property
    def dim(self):
        return len(self.basis)

    def matrices(self):
        return [[list(row) for row in m] for m in self.basis]

    def flat_subspace(self):
        return Subspace.span([_flatten(self.matrices()[i])
                              for i in range(self.dim)], self.n * self.n)

    def contains(self, mat):
        if self.dim == 0:
            return linalg.is_zero_matrix(mat)
        return self.flat_subspace().contains(_flatten(mat))


def _derivation_rows(alg):
    """Linear conditions on D (flattened row-major) for the Leibniz identity."""
    n = alg.dim
    rows = []
    for i, j in combinations(range(n), 2):
        bij = alg.basis_bracket(i, j)
        cpj = [alg.basis_bracket(p, j) for p in range(n)]
        cip = [alg.basis_bracket(i, p) for p in range(n)]
        for k in range(n):
            row = [Q0] * (n * n)
            for q in range(n):
                row[k * n + q] += bij[q]         # (D [e_i,e_j])_k
            for p in range(n):
                row[p * n + i] -= cpj[p][k]      # [D e_i, e_j]_k
                row[p * n + j] -= cip[p][k]      # [e_i, D e_j]_k
            if any(x != 0 for x in row):
                rows.append(row)
    return rows


def _skew_rows(form, n, offset=0, width=None):
    """Conditions (B D + D^T B)_{ij} = 0, i <= j, over a width-n^2 block."""
    width = width if width is not None else n * n
    b = form.rows()
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [Q0] * width
            for q in range(n):
                row[offset + q * n + j] += b[i][q]
                row[offset + q * n + i] += b[j][q]
            if any(x != 0 for x in row):
                rows.append(row)
    return rows


def _nullspace_matrices(rows, n, unknowns=None):
    unknowns = unknowns if unknowns is not None else n * n
    sols = linalg.nullspace(rows) if rows else linalg.identity(unknowns)
    return [_unflatten(s, n, n) for s in sols]


def derivation_algebra(alg):
    """All D with D[x,y] = [Dx,y] + [x,Dy]."""
    mats = _nullspace_matrices(_derivation_rows(alg), alg.dim)
    return MatrixLieAlgebra.from_matrices(mats, alg.dim)


def skew_derivations(alg, form):
    """Derivations that are skew for the given nondegenerate form."""
    rows = _derivation_rows(alg) + _skew_rows(form, alg.dim)
    mats = _nullspace_matrices(rows, alg.dim)
    return MatrixLieAlgebra.from_matrices(mats, alg.dim)


def inner_derivations(alg):
    """Canonical basis of span{ad(x)}."""
    flats = [_flatten(alg.ad(i)) for i in range(alg.dim)]
    reduced = linalg.rref(flats)[0] if flats else []
    mats = [_unflatten(v, alg.dim, alg.dim) for v in reduced]
    return MatrixLieAlgebra.from_matrices(mats, alg.dim)


@dataclass(frozen=True)
class SoAut:
    """Pairs (A, B), A skew on h*, B a skew derivation of d, [B,pi(h)] = pi(Ah)."""

    nh: int
    nd: int
    pairs: tuple  # ((A, B), ...)

    @property
    def dim(self):
        return len(self.pairs)

    def flat_subspace(self):
        vecs = [_flatten([list(r) for r in a]) + _flatten([list(r) for r in b])
                for a, b in self.pairs]
        return Subspace.span(vecs, self.nh * self.nh + self.nd * self.nd)

    def contains(self, a, b):
        target = _flatten(a) + _flatten(b)
        if self.dim == 0:
            return linalg.is_zero_vector(target)
        return self.flat_subspace().contains(target)


def so_aut(gd):
    """Joint nullspace for the orthogonal-automorphism Lie algebra of d + h*."""
    nh, nd = gd.nh, gd.nd
    na, width = nh * nh, nh * nh + nd * nd

    def pad(rows, offset):
        out = []
        for r in rows:
            row = [Q0] * width
            for idx, x in enumerate(r):
                row[offset + idx] = x
            out.append(row)
        return out

    w_form = BilinearForm(gd.ell)
    rows = pad(_skew_rows(w_form, nh), 0)
    rows += pad(_derivation_rows(gd.rep.d), na)
    rows += pad(_skew_rows(gd.rep.d_form, nd), na)
    # [B, pi(h_i)] = pi(A h_i): columns of A weight the pi generators
    for i in range(nh):
        pii = gd.rep.mat(i)
        for p in range(nd):
            for q in range(nd):
                row = [Q0] * width
                for s in range(nd):
                    row[na + p * nd + s] += pii[s][q]   # (B pi_i)_pq
                    row[na + s * nd + q] -= pii[p][s]   # (pi_i B)_pq
                for j in range(nh):
                    row[j * nh + i] -= gd.rep.mats[j][p][q]
                if any(x != 0 for x in row):
                    rows.append(row)
    sols = linalg.nullspace(rows) if rows else linalg.identity(width)
    pairs = []
    for s in sols:
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
    """Matrices commuting with every generator and skew for the form."""
    mats = [[list(map(linalg.frac, row)) for row in m] for m in mats]
    n = form.dim
    rows = []
    for m in mats:
        for p in range(n):
            for q in range(n):
                row = [Q0] * (n * n)
                for s in range(n):
                    row[p * n + s] += m[s][q]    # (U m)_pq
                    row[s * n + q] -= m[p][s]    # (m U)_pq
                if any(x != 0 for x in row):
                    rows.append(row)
    rows += _skew_rows(form, n)
    out = _nullspace_matrices(rows, n)
    return MatrixLieAlgebra.from_matrices(out, n)


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
