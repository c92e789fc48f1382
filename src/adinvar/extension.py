"""Double extensions h + d + h* and the metric Lie algebras on d + h*.

Basis conventions, fixed once:

* a double extension is ordered (h | d | h*), with h* carried in the dual
  basis of the h basis (works even when the form on h is degenerate);
* the algebra on d + h* is ordered (d | h*), with the h* basis taken as
  the images of the h basis under the musical map ell(h) = <h,.>_h, so
  the metric block on h* is literally the matrix of <,>_h.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from . import linalg
from .core import (BilinearForm, LieAlgebra, Subspace, ad_invariant,
                   check_jacobi, derivation_witnesses, is_ideal,
                   is_subalgebra, operator_data, orthogonal_complement,
                   skew_witnesses)
from .geometry import Tensor
from .linalg import Q0, Q1


class ExtensionError(Exception):
    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


@dataclass(frozen=True)
class Representation:
    """Action of h on a metric Lie algebra d by skew derivations.

    mats[i] is the operator of the i-th h basis vector on d.  The invariant
    bundle (homomorphism, derivation, skewness, ad-invariance of both
    forms) is verified by ``validate``.
    """

    h: LieAlgebra
    h_form: BilinearForm
    d: LieAlgebra
    d_form: BilinearForm
    mats: tuple

    def __post_init__(self):
        mats = tuple(tuple(tuple(linalg.frac(x) for x in row) for row in m)
                     for m in self.mats)
        object.__setattr__(self, "mats", mats)
        if len(mats) != self.h.dim:
            raise ExtensionError("need one operator per h basis vector")
        for m in mats:
            if len(m) != self.d.dim or any(len(r) != self.d.dim for r in m):
                raise ExtensionError("operator shape does not match dim d")

    def mat(self, i):
        return [list(row) for row in self.mats[i]]

    def pi_of(self, h_coeffs):
        """Operator of an arbitrary h vector, summed over its nonzero
        coefficients and the nonzero entries of their operators."""
        out = linalg.zeros(self.d.dim, self.d.dim)
        for c, m in zip(h_coeffs, self.mats):
            if c:
                for orow, mrow in zip(out, m):
                    for q, x in enumerate(mrow):
                        if x:
                            orow[q] += c * x
        return out

    def beta(self, x, y):
        """Cocycle value beta(x,y) as a covector on h (dual-basis coords)."""
        g = self.d_form.rows()
        return [linalg.dot(linalg.mat_vec(self.mat(k), x), linalg.mat_vec(g, y))
                for k in range(self.h.dim)]

    @cached_property
    def beta_table(self):
        """beta_table[a][b][k] = beta(e_a, e_b)[k] = (pi(h_k)^T g)[a][b],
        one matrix product per h basis vector, built once."""
        g = self.d_form.rows()
        prods = [linalg.mat_mul(linalg.transpose(m), g) for m in self.mats]
        nd = self.d.dim
        return tuple(tuple(tuple(p[a][b] for p in prods) for b in range(nd))
                     for a in range(nd))

    def validate(self):
        """Names of violated construction invariants (empty = good data)."""
        bad = []
        if check_jacobi(self.d):
            bad.append("d_not_lie_algebra")
        if check_jacobi(self.h):
            bad.append("h_not_lie_algebra")
        if not self.d_form.nondegenerate:
            bad.append("d_metric_degenerate")
        if not ad_invariant(self.d, self.d_form):
            bad.append("d_metric_not_ad_invariant")
        if not ad_invariant(self.h, self.h_form):
            bad.append("h_form_not_ad_invariant")
        for name, m in zip(self.h.names, self.mats):
            op = operator_data([m])
            if any(skew_witnesses(op, self.d_form, self.d.dim)):
                bad.append(f"pi({name})_not_skew")
            if any(derivation_witnesses(op, self.d.bracket_data, self.d.dim, 2)):
                bad.append(f"pi({name})_not_derivation")
        for i, j in combinations(range(self.h.dim), 2):
            lhs = self.pi_of(self.h.basis_bracket(i, j))
            rhs = linalg.commutator(self.mat(i), self.mat(j))
            if lhs != rhs:
                bad.append(f"pi_not_homomorphism({self.h.names[i]},{self.h.names[j]})")
        return bad


def _block_vector(parts):
    out = []
    for p in parts:
        out.extend(p)
    return out


@dataclass(frozen=True)
class DoubleExtension:
    """The Lie algebra h + d + h* with its two ad-invariant metrics."""

    rep: Representation
    g: LieAlgebra
    Q: BilinearForm
    Q_minus: BilinearForm
    h_sub: Subspace
    d_sub: Subspace
    hstar_sub: Subspace

    @property
    def nh(self):
        return self.rep.h.dim

    @property
    def nd(self):
        return self.rep.d.dim

    def embed_h(self, v):
        return _block_vector([list(v), [Q0] * self.nd, [Q0] * self.nh])

    def embed_d(self, v):
        return _block_vector([[Q0] * self.nh, list(v), [Q0] * self.nh])

    def embed_dual(self, v):
        """Embed a covector given in dual-basis coordinates."""
        return _block_vector([[Q0] * self.nh, [Q0] * self.nd, list(v)])

    def split(self, w):
        nh, nd = self.nh, self.nd
        return list(w[:nh]), list(w[nh:nh + nd]), list(w[nh + nd:])


def double_extend(rep):
    """Assemble the double extension; bad input data raises ExtensionError.

    The form on h may be degenerate here (unlike ``build_gd``).
    """
    bad = rep.validate()
    if bad:
        raise ExtensionError("invalid double extension data: " + ", ".join(bad), bad)
    return _assemble_double(rep)


def _assemble_double(rep):
    """h + d + h* and its checks, from data that ``validate`` accepted."""
    nh, nd = rep.h.dim, rep.d.dim
    n = 2 * nh + nd
    table = {}

    def put(i, j, vec):
        comps = {k: c for k, c in enumerate(vec) if c != 0}
        if comps:
            table[(i, j)] = comps

    hs = lambda k: nh + nd + k
    for i, j in combinations(range(nh), 2):
        put(i, j, _block_vector([rep.h.basis_bracket(i, j), [Q0] * (nd + nh)]))
    for i in range(nh):
        adh = rep.h.ad(i)
        for b in range(nd):
            col = [rep.mats[i][p][b] for p in range(nd)]
            put(i, nh + b, _block_vector([[Q0] * nh, col, [Q0] * nh]))
        # coadjoint: (ad*(h_i) delta_k)(h_m) = -delta_k([h_i, h_m])
        for k in range(nh):
            cov = [-adh[k][m] for m in range(nh)]
            put(i, hs(k), _block_vector([[Q0] * (nh + nd), cov]))
    for a, b in combinations(range(nd), 2):
        put(nh + a, nh + b,
            _block_vector([[Q0] * nh, rep.d.basis_bracket(a, b), rep.beta_table[a][b]]))

    names = (rep.h.names + rep.d.names
             + tuple(f"{s}*" for s in rep.h.names))
    g = LieAlgebra(n, names, table)
    if check_jacobi(g):
        raise ExtensionError("constructed bracket violates Jacobi")

    w = rep.h_form.rows()
    qm = linalg.zeros(n, n)
    for i in range(nh):
        for j in range(nh):
            qm[i][j] = w[i][j]
        qm[i][hs(i)] = Q1
        qm[hs(i)][i] = Q1
    for a in range(nd):
        for b in range(nd):
            qm[nh + a][nh + b] = rep.d_form.matrix[a][b]
    q = BilinearForm(tuple(tuple(r) for r in qm))
    diff = linalg.zeros(n, n)  # Q - Q_minus: 2<,>_h on the h x h block
    for i in range(nh):
        for j in range(nh):
            qm[i][j] = -w[i][j]
            diff[i][j] = 2 * w[i][j]
    q_minus = BilinearForm(tuple(tuple(r) for r in qm))
    # skewness is linear in the form: Q and Q_minus are ad-invariant iff Q
    # and their sparse difference are
    if not (ad_invariant(g, q) and ad_invariant(g, BilinearForm(diff))):
        raise ExtensionError("constructed metric is not ad-invariant")

    eye = linalg.identity(n)
    h_sub = Subspace.span(eye[:nh], n)
    d_sub = Subspace.span(eye[nh:nh + nd], n)
    hstar_sub = Subspace.span(eye[nh + nd:], n)
    ext = DoubleExtension(rep, g, q, q_minus, h_sub, d_sub, hstar_sub)
    if not is_subalgebra(g, h_sub):
        raise ExtensionError("h is not a subalgebra")
    if not is_ideal(g, d_sub.add(hstar_sub)):
        raise ExtensionError("d + h* is not an ideal")
    sd = rep.d_form.signature
    if q.signature != (sd[0] + nh, sd[1] + nh, sd[2]):
        raise ExtensionError("signature relation violated")
    return ext


@dataclass(frozen=True)
class GdAlgebra:
    """The metric Lie algebra on d + h*, h* central, metric block-diagonal."""

    rep: Representation
    L: LieAlgebra
    metric: BilinearForm
    beta_table: tuple  # beta_table[a][b][k] = <pi(h_k) e_a, e_b>_d
    ell: tuple         # matrix of ell: h -> h* in dual-basis coords (= <,>_h)
    mu_mats: tuple     # mu of each h basis vector, operators on d + h*
    double: DoubleExtension

    @property
    def nd(self):
        return self.rep.d.dim

    @property
    def nh(self):
        return self.rep.h.dim

    @cached_property
    def ell_inv(self):
        """The inverse of ell, computed once per algebra."""
        return linalg.inverse([list(r) for r in self.ell])

    def split(self, v):
        return list(v[:self.nd]), list(v[self.nd:])

    def embed_d(self, x):
        return list(x) + [Q0] * self.nh

    def embed_h(self, hc):
        """Embed an h vector through ell; f-coordinates equal h-coordinates."""
        return [Q0] * self.nd + list(hc)

    def mu(self, h_coeffs):
        """Operator mu(h): pi on d, coadjoint action on h*."""
        nd, nh = self.nd, self.nh
        out = linalg.zeros(nd + nh, nd + nh)
        pim = self.rep.pi_of(h_coeffs)
        for p in range(nd):
            for q in range(nd):
                out[p][q] = pim[p][q]
        adh = self.rep.h.ad_vector(list(h_coeffs))
        # mu(h) f_k = ell([h, h_k]); in the ell basis this is just ad_h(h)
        for p in range(nh):
            for q in range(nh):
                out[nd + p][nd + q] = adh[p][q]
        return out


def build_gd(rep):
    """The naturally reductive algebra on d + h*; needs <,>_h nondegenerate."""
    bad = rep.validate()
    if bad:
        raise ExtensionError("invalid construction data: " + ", ".join(bad), bad)
    if not rep.h_form.nondegenerate:
        raise ExtensionError("form on h is degenerate, ell is not invertible",
                             ["h_form_degenerate"])
    dbl = _assemble_double(rep)
    nh, nd = rep.h.dim, rep.d.dim
    w = rep.h_form.rows()
    winv = linalg.inverse(w)

    table = {}
    betas = rep.beta_table
    for a, b in combinations(range(nd), 2):
        vec = list(rep.d.basis_bracket(a, b)) + linalg.mat_vec(winv, betas[a][b])
        comps = {k: c for k, c in enumerate(vec) if c != 0}
        if comps:
            table[(a, b)] = comps
    names = rep.d.names + tuple(f"{s}*" for s in rep.h.names)
    alg = LieAlgebra(nd + nh, names, table)
    if check_jacobi(alg):
        raise ExtensionError("constructed bracket violates Jacobi")

    gm = linalg.zeros(nd + nh, nd + nh)
    for a in range(nd):
        for b in range(nd):
            gm[a][b] = rep.d_form.matrix[a][b]
    for i in range(nh):
        for j in range(nh):
            gm[nd + i][nd + j] = w[i][j]
    metric = BilinearForm(tuple(tuple(r) for r in gm))

    gd = GdAlgebra(rep, alg, metric, betas, tuple(tuple(r) for r in w), (), dbl)
    mu_mats = tuple(tuple(tuple(r) for r in gd.mu(hv))
                    for hv in linalg.identity(nh))
    gd = GdAlgebra(rep, alg, metric, gd.beta_table, gd.ell, mu_mats, dbl)
    _verify_gd(gd)
    return gd


def _verify_gd(gd):
    """Construction-time identities: (cm), mu properties, lambda isometry."""
    alg, metric = gd.L, gd.metric
    nd, nh = gd.nd, gd.nh
    basis = linalg.identity(nd + nh)
    for k in range(nh):
        fk = basis[nd + k]
        for a in range(nd):
            for b in range(nd):
                br = alg.basis_bracket(a, b)
                if metric.apply(fk, br) != gd.beta_table[a][b][k]:
                    raise ExtensionError("relation <h*,[x1,x2]> = <pi(h)x1,x2> fails")
    for m in gd.mu_mats:
        op = operator_data([m])
        if any(skew_witnesses(op, metric, nd + nh)):
            raise ExtensionError("mu(h) is not metric-skew")
        if any(derivation_witnesses(op, alg.bracket_data, nd + nh, 2)):
            raise ExtensionError("mu(h) is not a derivation")
    for i, j in combinations(range(nh), 2):
        lhs = gd.mu(gd.rep.h.basis_bracket(i, j))
        rhs = linalg.commutator([list(r) for r in gd.mu_mats[i]],
                                [list(r) for r in gd.mu_mats[j]])
        if lhs != rhs:
            raise ExtensionError("mu is not a homomorphism")
    lam_cols = linalg.transpose(lambda_matrix(gd))  # lam_cols[a] = lambda(e_a)
    qm = gd.double.Q_minus
    for a in range(nd + nh):
        for b in range(nd + nh):
            if qm.apply(lam_cols[a], lam_cols[b]) != metric.matrix[a][b]:
                raise ExtensionError("lambda is not a linear isometry")


def lambda_matrix(gd):
    """Matrix of lambda: d + h* -> m inside the double extension.

    lambda(x + h*) = (h, x, h*); columns are images of the (d | h*) basis.
    """
    nh, nd = gd.nh, gd.nd
    cols = []
    for a in range(nd):
        cols.append(gd.double.embed_d(linalg.identity(nd)[a]))
    w = [list(r) for r in gd.ell]
    for k in range(nh):
        col = gd.double.embed_h(linalg.identity(nh)[k])
        dual = gd.double.embed_dual(w[k])
        cols.append(linalg.vec_add(col, dual))
    return linalg.transpose(cols)


@dataclass(frozen=True)
class SplitResult:
    m: Subspace
    checks: tuple  # (name, passed, detail)

    @property
    def all_pass(self):
        return all(ok for _, ok, _ in self.checks)


def _decompose(h_sub, m_sub, v):
    """Coefficients of v in the stacked (h | m) basis, or None."""
    basis = h_sub.basis() + m_sub.basis()
    return linalg.solve(linalg.transpose(basis), list(v))


def reductive_split(g_alg, form, h_sub):
    """m = h-perp plus the naturally reductive condition report."""
    gram = [[form.apply(u, v) for v in h_sub.basis()] for u in h_sub.basis()]
    if linalg.signature_of(gram)[2] != 0:
        raise ExtensionError("form is degenerate on h")
    m = orthogonal_complement(h_sub, form)
    checks = []
    checks.append(("direct_sum",
                   h_sub.dim + m.dim == g_alg.dim
                   and h_sub.add(m).dim == g_alg.dim, None))
    ok = True
    witness = None
    for u in h_sub.basis():
        for v in m.basis():
            if not m.contains(g_alg.bracket(u, v)):
                ok, witness = False, "[h,m] escapes m"
                break
    checks.append(("bracket_h_m_in_m", ok, witness))
    mb = m.basis()

    def m_part(w):
        coeffs = _decompose(h_sub, m, w)
        return None if coeffs is None else _combine(mb, coeffs[h_sub.dim:], g_alg.dim)

    # the m-projection of [x, y], once per pair of m basis vectors
    proj = [[m_part(g_alg.bracket(x, y)) for y in mb] for x in mb]
    ok = True
    witness = None
    for a, b, c in product(range(len(mb)), repeat=3):
        if proj[a][b] is None or proj[a][c] is None:
            ok, witness = False, "bracket outside h + m"
            break
        if form.apply(proj[a][b], mb[c]) + form.apply(mb[b], proj[a][c]) != 0:
            ok, witness = False, "naturally reductive condition fails"
            break
    checks.append(("naturally_reductive", ok, witness))
    return SplitResult(m, tuple(checks))


def _combine(basis, coeffs, ambient_dim):
    out = linalg.zero_vector(ambient_dim)
    for c, b in zip(coeffs, basis):
        out = linalg.vec_add(out, linalg.vec_scale(c, b))
    return out


class KostantError(Exception):
    def __init__(self, message, uncovered=None):
        super().__init__(message)
        self.uncovered = uncovered


@dataclass(frozen=True)
class KostantResult:
    gbar: Subspace
    basis: tuple        # vectors of gbar: m rows first, then hbar rows
    form: BilinearForm  # the reconstructed invariant form on this basis
    hbar: Subspace
    m: Subspace
    checks: tuple

    @property
    def all_pass(self):
        return all(ok for _, ok, _ in self.checks)

    def pair(self, u, v):
        cu = linalg.solve(linalg.transpose([list(b) for b in self.basis]), list(u))
        cv = linalg.solve(linalg.transpose([list(b) for b in self.basis]), list(v))
        if cu is None or cv is None:
            raise KostantError("vector outside gbar")
        return self.form.apply(cu, cv)


def kostant_form(g_alg, h_sub, m_sub, inner):
    """Reconstruct the invariant form on gbar = m + [m,m] from <,> on m.

    inner is the Gram matrix of the metric on the rows of m_sub.  The
    extension to the h part is the unique solution of the bracket-transfer
    equations; an inconsistent system means the data was not naturally
    reductive, a spanning failure reports the uncovered part of h.
    """
    if h_sub.dim + m_sub.dim != g_alg.dim or h_sub.add(m_sub).dim != g_alg.dim:
        raise KostantError("g is not the direct sum of h and m")
    mb = m_sub.basis()
    for u in h_sub.basis():
        for v in mb:
            if not m_sub.contains(g_alg.bracket(u, v)):
                raise KostantError("[h, m] is not contained in m")

    pairs = list(combinations(range(m_sub.dim), 2))
    s_vectors = {}
    for a, b in pairs:
        w = g_alg.bracket(mb[a], mb[b])
        coeffs = _decompose(h_sub, m_sub, w)
        if coeffs is None:
            raise KostantError("bracket escapes h + m")
        s_vectors[(a, b)] = _combine(h_sub.basis(), coeffs[:h_sub.dim],
                                     g_alg.dim)
    hbar = Subspace.span(list(s_vectors.values()), g_alg.dim)
    gbar = m_sub.add(hbar)
    true_hbar = h_sub.intersect(gbar)
    if hbar != true_hbar:
        missing = [v for v in true_hbar.basis() if not hbar.contains(v)]
        raise KostantError("bracket projections do not span h within gbar",
                           uncovered=Subspace.span(missing, g_alg.dim))

    r = hbar.dim
    unknowns = [(p, q) for p in range(r) for q in range(p, r)]
    uindex = {pq: i for i, pq in enumerate(unknowns)}
    rows, rhs = [], []

    def add_equation(alpha, gamma, value):
        row = [Q0] * len(unknowns)
        for p in range(r):
            for q in range(r):
                c = alpha[p] * gamma[q]
                if c != 0:
                    row[uindex[(p, q) if p <= q else (q, p)]] += c
        rows.append(row)
        rhs.append(value)

    innerm = inner.rows()

    def inner_pair(coords, idx):
        return sum(coords[p] * innerm[p][idx] for p in range(m_sub.dim))

    for (a, b) in pairs:
        s_ab = s_vectors[(a, b)]
        alpha = hbar.coordinates(s_ab)
        for (c, d) in pairs:
            s_cd = s_vectors[(c, d)]
            gamma = hbar.coordinates(s_cd)
            # Q([y,y']_h, [z,z']_h) = -<[y, [z,z']_h], y'> and symmetrically
            w1 = g_alg.bracket(mb[a], s_cd)
            m1 = m_sub.coordinates(w1)
            if m1 is None:
                raise KostantError("[m, h] escapes m")
            add_equation(alpha, gamma, -inner_pair(m1, b))
            w2 = g_alg.bracket(mb[c], s_ab)
            m2 = m_sub.coordinates(w2)
            if m2 is None:
                raise KostantError("[m, h] escapes m")
            add_equation(alpha, gamma, -inner_pair(m2, d))

    if unknowns:
        sol = linalg.solve(rows, rhs) if rows else [Q0] * len(unknowns)
        if sol is None:
            raise KostantError("not naturally reductive data")
    else:
        sol = []

    qh = linalg.zeros(r, r)
    for (p, q), i in uindex.items():
        qh[p][q] = sol[i]
        qh[q][p] = sol[i]
    basis = [list(v) for v in mb] + hbar.basis()
    n = len(basis)
    qm = linalg.zeros(n, n)
    for p in range(m_sub.dim):
        for q in range(m_sub.dim):
            qm[p][q] = innerm[p][q]
    for p in range(r):
        for q in range(r):
            qm[m_sub.dim + p][m_sub.dim + q] = qh[p][q]
    form = BilinearForm(tuple(tuple(row) for row in qm))

    checks = []
    bt = linalg.transpose(basis)
    bracket_coords = [[linalg.solve(bt, g_alg.bracket(u, v)) for v in basis]
                      for u in basis]
    closed = all(c is not None for row in bracket_coords for c in row)
    checks.append(("gbar_closed", closed, None))
    ad_ok = closed and not any(skew_witnesses(
        {(iu, iv): {p: x for p, x in enumerate(c) if x}
         for iu, row in enumerate(bracket_coords) for iv, c in enumerate(row)},
        form, n))
    checks.append(("ad_invariant_on_gbar", ad_ok, None))
    checks.append(("nondegenerate_on_hbar",
                   linalg.signature_of(qh)[2] == 0 if r else True, None))
    checks.append(("nondegenerate", form.nondegenerate, None))
    return KostantResult(gbar, tuple(tuple(v) for v in basis), form, hbar,
                         m_sub, tuple(checks))


def canonical_connection(g_alg, h_sub, m_sub):
    """Torsion and curvature of the canonical connection, over the m basis.

    T(x,y) = -[x,y]_m and R(x,y)z = -[[x,y]_h, z], components taken in the
    decomposition g = h + m.
    """
    mb = m_sub.basis()
    k = len(mb)
    tor, cur = {}, {}
    for a in range(k):
        for b in range(k):
            w = g_alg.bracket(mb[a], mb[b])
            coeffs = _decompose(h_sub, m_sub, w)
            if coeffs is None:
                raise ExtensionError("bracket escapes h + m")
            h_part = _combine(h_sub.basis(), coeffs[:h_sub.dim], g_alg.dim)
            tor[a, b] = {p: -x for p, x in enumerate(coeffs[h_sub.dim:])}
            for c in range(k):
                z = g_alg.bracket(h_part, mb[c])
                zc = m_sub.coordinates(z)
                if zc is None:
                    raise ExtensionError("[h, m] escapes m")
                cur[a, b, c] = {p: -x for p, x in enumerate(zc)}
    return Tensor(k, 2, tor), Tensor(k, 3, cur)
