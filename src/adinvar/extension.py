"""Double extensions h + d + h* and the metric Lie algebras on d + h*.

Basis conventions, fixed once:

* a double extension is ordered (h | d | h*), with h* carried in the dual
  basis of the h basis (works even when the form on h is degenerate);
* the algebra on d + h* is ordered (d | h*), with the h* basis taken as
  the images of the h basis under the musical map ell(h) = <h,.>_h, so
  the metric block on h* is literally the matrix of <,>_h.

Both bracket tables are written from the sparse data of the
representation; the block checks, and every reader of beta* = ell^-1 beta
(the h* part of the bracket of d + h*), read those tables.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product

from . import linalg
from .core import (BilinearForm, Check, LieAlgebra, Subspace, _commutator_flat,
                   _integral, _leibniz, _lowered, _rows, _skew, ad_invariant, all_pass,
                   check_jacobi, operator_data, orthogonal_complement, skew_witnesses)
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
        """Operator of an arbitrary h vector."""
        return _combination(self.mats, h_coeffs, self.d.dim)

    def beta(self, x, y):
        """Cocycle value beta(x,y) as a covector on h (dual-basis coords)."""
        g = self.d_form.rows()
        return [linalg.dot(linalg.mat_vec(self.mat(k), x), linalg.mat_vec(g, y))
                for k in range(self.h.dim)]

    @cached_property
    def op_data(self):
        """The operator field of the mats: op_data[i, b] = pi(h_i) e_b."""
        return operator_data(self.mats)

    @cached_property
    def int_ops(self):
        """(op, scale): ``op_data`` scaled to ints once."""
        return _integral(self.op_data)

    @cached_property
    def int_beta(self):
        """The cocycle, ({(a, b): {k: x}}, scale) with beta(e_a, e_b)[k] =
        <pi(h_k) e_a, e_b>_d = x / scale."""
        (op, s), (rows, t) = self.int_ops, self.d_form.int_rows
        out = {}
        for (k, a), col in op.items():
            for b, x in _lowered(col, rows).items():
                out.setdefault((a, b), {})[k] = x
        return out, s * t

    def validate(self):
        """Names of violated construction invariants (empty = good data)."""
        bad = [name for name, fails in (
            ("d_not_lie_algebra", check_jacobi(self.d)),
            ("h_not_lie_algebra", check_jacobi(self.h)),
            ("d_metric_degenerate", not self.d_form.nondegenerate),
            ("d_metric_not_ad_invariant", not ad_invariant(self.d, self.d_form)),
            ("h_form_not_ad_invariant", not ad_invariant(self.h, self.h_form))) if fails]
        names = self.h.names
        for fault, *at in _action_faults(self.int_ops, self.h, self.d_form, self.d):
            if fault == "homomorphism":
                bad.append(f"pi_not_homomorphism({names[at[0]]},{names[at[1]]})")
            else:
                bad.append(f"pi({names[at[0]]})_not_{fault}")
        return bad


def _combination(mats, coeffs, n):
    """sum_i coeffs[i] mats[i] as an n x n matrix, summed over the nonzero
    coefficients and the nonzero entries of their operators."""
    out = linalg.zeros(n, n)
    for c, m in zip(coeffs, mats):
        if c:
            for orow, mrow in zip(out, m):
                for q, x in enumerate(mrow):
                    if x:
                        orow[q] += c * x
    return out


def _action_faults(ops, h, form, alg):
    """Where the operators M_i of the h basis vectors, the int operator
    field op of s M_i in ops = (op, s), fail to be an action of h by skew
    derivations of (alg, form), in order: ("skew", i) and ("derivation", i)
    for each i, then ("homomorphism", i, j) for each pair i < j.  Each
    sweep runs once over the whole family.  The columns of s M_i are the
    rows of s M_i^T, and with the bracket of h scaled by t, [M_i, M_j] =
    sum_k c_ij^k M_k iff t [sM_i^T, sM_j^T] + s sum_k (t c_ij^k)(s M_k^T) = 0."""
    (op, s), (bracket, t), n = ops, h.int_bracket_data, form.dim
    bad = {("skew", x) for x, *_ in _skew(op, form.int_rows[0])}
    bad |= {("derivation", x) for x, *_ in _leibniz(op, alg.int_bracket_data[0])}
    for i in range(h.dim):
        yield from (f for f in (("skew", i), ("derivation", i)) if f in bad)
    ints = [{q: op.get((i, q), {}) for q in range(n)} for i in range(h.dim)]
    for i, j in combinations(range(h.dim), 2):
        out = [t * x for x in _commutator_flat(ints[i], ints[j])]
        for k, c in bracket.get((i, j), {}).items():
            for p, row in ints[k].items():
                for q, x in row.items():
                    out[p * n + q] += s * c * x
        if any(out):
            yield "homomorphism", i, j


@dataclass(frozen=True)
class DoubleExtension:
    """The Lie algebra h + d + h* with its two ad-invariant metrics."""

    rep: Representation
    g: LieAlgebra
    Q: BilinearForm
    Q_minus: BilinearForm
    h_sub: Subspace
    # what ``_assemble_double`` verifies, raising on a failure
    checks = tuple(Check(name, True) for name in (
        "jacobi", "Q_ad_invariant", "Q_minus_ad_invariant", "h_subalgebra",
        "gd_ideal", "signature_relation"))

    @property
    def nh(self):
        return self.rep.h.dim

    @property
    def nd(self):
        return self.rep.d.dim


def double_extend(rep):
    """Assemble the double extension; bad input data raises ExtensionError.

    The form on h may be degenerate here (unlike ``build_gd``).
    """
    bad = rep.validate()
    if bad:
        raise ExtensionError("invalid double extension data: " + ", ".join(bad), bad)
    return _assemble_double(rep)


def _assemble_double(rep):
    """h + d + h* and its checks, from data that ``validate`` accepted: the
    bracket of h, [h_i, e_b] = pi(h_i) e_b, the coadjoint action
    [h_i, delta_k] = -sum_m c_im^k delta_m, and [e_a, e_b]_d + beta(e_a, e_b)."""
    nh, nd = rep.h.dim, rep.d.dim
    hs, n = nh + nd, 2 * nh + nd
    table = dict(rep.h.table)
    for (i, b), col in rep.op_data.items():
        table[i, nh + b] = {nh + p: x for p, x in col.items()}
    for (i, m), comps in rep.h.bracket_data.items():
        for k, c in comps.items():
            table.setdefault((i, hs + k), {})[hs + m] = -c
    table.update(_d_pairs(rep, nh, hs, {k: {k: 1} for k in range(nh)}, 1))
    g = LieAlgebra(n, _joined_names(rep.h.names + rep.d.names, rep.h.names), table)
    if check_jacobi(g):
        raise ExtensionError("constructed bracket violates Jacobi")

    forms = []  # Q and Q_minus: +-<,>_h + <,>_d + the pairing of h, h*
    for h_rows in (rep.h_form.matrix, [[-x for x in row] for row in rep.h_form.matrix]):
        m = [list(r) for r in _block_sum(_block_sum(h_rows, rep.d_form.matrix),
                                         linalg.zeros(nh, nh))]
        for i in range(nh):
            m[i][hs + i] = m[hs + i][i] = Q1
        forms.append(BilinearForm(m))
    q, q_minus = forms
    # once Q passes, Q_minus is ad-invariant iff Q - Q_minus = 2 <,>_h on h x h is
    if not ad_invariant(g, q) or any(_skew(g.int_bracket_data[0], rep.h_form.int_rows[0])):
        raise ExtensionError("constructed metric is not ad-invariant")

    _check_blocks(g.table, nh)
    sd = rep.d_form.signature
    if q.signature != (sd[0] + nh, sd[1] + nh, sd[2]):
        raise ExtensionError("signature relation violated")
    eye = tuple(map(tuple, linalg.identity(n)))  # unit rows are reduced
    return DoubleExtension(rep, g, q, q_minus, Subspace(n, eye[:nh]))


def _joined_names(plain, dual):
    """plain, then dual starred; None, so e1, .., en, if a name repeats
    (files refuse it)."""
    names = tuple(plain) + tuple(f"{s}*" for s in dual)
    return names if len(set(names)) == len(names) else None


def _check_blocks(table, nh):
    """Raise unless, in the bracket table of h + d + h*, h is a subalgebra
    and d + h* an ideal.  h is the first nh coordinates: a key (i, j),
    i < j, brackets two h vectors iff j < nh, and d + h* is an ideal iff no
    other key has an h component."""
    if any(k >= nh for (_, j), comps in table.items() if j < nh for k in comps):
        raise ExtensionError("h is not a subalgebra")
    if any(k < nh for (_, j), comps in table.items() if j >= nh for k in comps):
        raise ExtensionError("d + h* is not an ideal")


def _d_pairs(rep, d0, h0, mix, scale):
    """[e_a, e_b] for a < b in an algebra where d starts at d0 and h* at h0:
    the bracket of d plus the nonzero entries of M beta(e_a, e_b), for mix
    the int rows {j: {k: x}} of scale M, summed on ``int_beta``."""
    (beta, s), table = rep.int_beta, {}
    for a, b in combinations(range(rep.d.dim), 2):
        comps = {d0 + p: x for p, x in rep.d.table.get((a, b), {}).items()}
        if v := beta.get((a, b)):
            for j, row in mix.items():
                if x := sum(y * v.get(k, 0) for k, y in row.items()):
                    comps[h0 + j] = Fraction(x, s * scale)
        if comps:
            table[d0 + a, d0 + b] = comps
    return table


@dataclass(frozen=True)
class GdAlgebra:
    """The metric Lie algebra on d + h*, h* central, metric block-diagonal."""

    rep: Representation
    L: LieAlgebra
    metric: BilinearForm
    ell: tuple         # matrix of ell: h -> h* in dual-basis coords (= <,>_h)
    ell_inv: tuple     # its inverse, computed once per algebra
    mu_data: dict      # the operator field of mu on d + h*: (k, i) -> mu(h_k) e_i
    double: DoubleExtension
    # what ``build_gd`` and ``_verify_gd`` verify, raising on a failure
    checks = tuple(Check(name, True) for name in (
        "jacobi", "metric_blocks", "hstar_central", "cm_relation",
        "mu_skew_derivations", "lambda_isometry"))

    @property
    def nd(self):
        return self.rep.d.dim

    @property
    def nh(self):
        return self.rep.h.dim

    def split(self, v):
        return list(v[:self.nd]), list(v[self.nd:])

    def embed_d(self, x):
        return list(x) + [Q0] * self.nh

    def embed_h(self, hc):
        """Embed an h vector through ell; f-coordinates equal h-coordinates."""
        return [Q0] * self.nd + list(hc)

    @cached_property
    def lambda_columns(self):
        """lambda: d + h* -> m inside the double extension h + d + h*, as
        sparse columns {i: {p: x}}, the images of the (d | h*) basis:
        e_a -> e_a, and h_k* -> h_k + ell(h_k) in dual-basis coordinates."""
        nh, nd = self.nh, self.nd
        cols = {a: {nh + a: Q1} for a in range(nd)}
        for k, row in enumerate(self.ell):
            cols[nd + k] = {k: Q1} | {nh + nd + j: x for j, x in enumerate(row) if x}
        return cols


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
    table = _d_pairs(rep, 0, nd, *_integral(_rows(winv)))
    alg = LieAlgebra(nd + nh, _joined_names(rep.d.names, rep.h.names), table)
    if check_jacobi(alg):
        raise ExtensionError("constructed bracket violates Jacobi")

    metric = BilinearForm(_block_sum(rep.d_form.matrix, w))
    # mu(h_k) is pi(h_k) on d and, as mu(h) f_j = ell([h, h_j]), ad(h_k) on
    # h* in the ell basis: the columns of pi, then those of the bracket of h
    mu_data = rep.op_data | {(k, nd + j): {nd + m: c for m, c in col.items()}
                             for (k, j), col in rep.h.bracket_data.items()}
    gd = GdAlgebra(rep, alg, metric, tuple(map(tuple, w)),
                   tuple(map(tuple, winv)), mu_data, dbl)
    _verify_gd(gd)
    return gd


def _block_sum(a, b):
    """The block-diagonal matrix with blocks a and b, as a tuple of rows."""
    return (tuple(tuple(row) + (Q0,) * len(b) for row in a)
            + tuple((Q0,) * len(a) + tuple(row) for row in b))


def _verify_gd(gd):
    """Construction-time identities: the metric blocks, h* central, (cm),
    mu properties, lambda isometry."""
    alg, metric, nd = gd.L, gd.metric, gd.nd
    if metric.matrix != _block_sum(gd.rep.d_form.matrix, gd.rep.h_form.matrix):
        raise ExtensionError("metric is not <,>_d + <,>_h")
    if any(j >= nd for _, j in alg.table):
        raise ExtensionError("h* is not central")
    # <h_k*, [e_a, e_b]> = beta(e_a, e_b)[k]: on the int views, s t times it
    # on the left, v times it in int_beta
    (br, s), (rows, t), (beta, v) = alg.int_bracket_data, metric.int_rows, gd.rep.int_beta
    empty = {}
    for a, b in product(range(nd), repeat=2):
        low, want = _lowered(br.get((a, b), empty), rows), beta.get((a, b), empty)
        if any(low.get(nd + k, 0) * v != want.get(k, 0) * s * t for k in range(gd.nh)):
            raise ExtensionError("relation <h*,[x1,x2]> = <pi(h)x1,x2> fails")
    fault = next(_action_faults(_integral(gd.mu_data), gd.rep.h, metric, alg), None)
    if fault is not None:
        raise ExtensionError({"skew": "mu(h) is not metric-skew",
                              "derivation": "mu(h) is not a derivation",
                              "homomorphism": "mu is not a homomorphism"}[fault[0]])
    # lambda^T Q_minus lambda = metric: the columns of lambda scaled by u and
    # Q_minus by w make each entry u^2 w times its value, the metric t times
    cols, u = _integral(gd.lambda_columns)
    q_rows, w = gd.double.Q_minus.int_rows
    for i, ci in cols.items():
        low = _lowered(ci, q_rows)
        if any(sum(low.get(p, 0) * y for p, y in cj.items()) * t != rows[i].get(j, 0) * u * u * w
               for j, cj in cols.items()):
            raise ExtensionError("lambda is not a linear isometry")


@dataclass(frozen=True)
class SplitResult:
    m: Subspace
    gram: BilinearForm  # the form on the rows of m
    checks: tuple  # of Check
    all_pass = all_pass


def _split(g_alg, h_sub, m_sub, pairs):
    """(h coordinates, m coordinates) of the bracket [x, y] of each pair
    (x, y) in g = h + m, from one ``linalg.coordinates`` call over the
    stacked (h | m) basis.  Raises ``LinAlgError`` unless g is the direct
    sum of h and m."""
    nh = h_sub.dim
    if nh + m_sub.dim != h_sub.ambient_dim:
        raise linalg.LinAlgError("g is not the direct sum of h and m")
    coords = linalg.coordinates(h_sub.rows + m_sub.rows,
                                [g_alg.bracket(x, y) for x, y in pairs])
    return [(c[:nh], c[nh:]) for c in coords]


def _h_vector(h_sub, hc):
    """The vector of h with coordinates hc."""
    return [sum((c * row[p] for c, row in zip(hc, h_sub.rows) if c), Q0)
            for p in range(h_sub.ambient_dim)]


def reductive_split(g_alg, form, h_sub):
    """m = h-perp plus the naturally reductive condition report."""
    gram = [[form.apply(u, v) for v in h_sub.basis()] for u in h_sub.basis()]
    if linalg.signature_of(gram)[2] != 0:
        raise ExtensionError("form is degenerate on h")
    m = orthogonal_complement(h_sub, form)
    mb = m.basis()
    cross = list(product(h_sub.basis(), mb))
    # a form nondegenerate on h gives g = h + h-perp, so the split exists
    parts = _split(g_alg, h_sub, m, cross + list(product(mb, repeat=2)))
    checks = [Check("direct_sum", True)]
    escapes = any(any(hc) for hc, _ in parts[:len(cross)])
    checks.append(Check("bracket_h_m_in_m", not escapes,
                        "[h,m] escapes m" if escapes else None))
    # the m-projected bracket as an operator field on m, skew for the Gram
    # matrix of m exactly when the naturally reductive condition holds
    op = {}
    for ab, (_, mc) in zip(product(range(len(mb)), repeat=2), parts[len(cross):]):
        comps = {p: x for p, x in enumerate(mc) if x}
        if comps:
            op[ab] = comps
    gram_m = BilinearForm(tuple(tuple(form.apply(u, v) for v in mb) for u in mb))
    fails = any(skew_witnesses(op, gram_m))
    checks.append(Check("naturally_reductive", not fails,
                        "naturally reductive condition fails" if fails else None))
    return SplitResult(m, gram_m, tuple(checks))


class KostantError(Exception):
    pass


@dataclass(frozen=True)
class KostantResult:
    gbar: Subspace
    basis: tuple        # vectors of gbar: m rows first, then hbar rows
    form: BilinearForm  # the reconstructed invariant form on this basis
    hbar: Subspace
    checks: tuple  # of Check
    all_pass = all_pass

    def pair(self, u, v):
        coords = linalg.coordinates(self.basis, [u, v])
        if coords is None:
            raise KostantError("vector outside gbar")
        return self.form.apply(*coords)


def kostant_form(g_alg, h_sub, m_sub, inner):
    """Reconstruct the invariant form on gbar = m + [m,m] from <,> on m.

    inner is the Gram matrix of the metric on the rows of m_sub.  The
    extension to the h part is the unique solution of the bracket-transfer
    equations, read off a basis of hbar among the bracket projections; an
    inconsistent system means the data was not naturally reductive.
    """
    mb = m_sub.basis()
    cross = list(product(h_sub.basis(), mb))
    pairs = list(combinations(range(m_sub.dim), 2))
    try:
        parts = _split(g_alg, h_sub, m_sub, cross + [(mb[a], mb[b]) for a, b in pairs])
    except linalg.LinAlgError:
        raise KostantError("g is not the direct sum of h and m") from None
    if any(any(hc) for hc, _ in parts[:len(cross)]):
        raise KostantError("[h, m] is not contained in m")

    s_vectors = [_h_vector(h_sub, hc) for hc, _ in parts[len(cross):]]
    reduced, pivots = linalg.rref(s_vectors)
    hbar = Subspace(g_alg.dim, tuple(map(tuple, reduced)))
    gbar = m_sub.add(hbar)

    # Q([y,y']_h, [z,z']_h) = -<[y, [z,z']_h], y'> on all pairs of pairs,
    # V[ab][cd] = -<[m_a, s_cd], m_b>, where [m_a, s_cd] lies in [m, h] < m;
    # lifted[a * q + cd] holds its m coordinates
    q = len(pairs)
    lifted = [mc for _, mc in _split(g_alg, h_sub, m_sub, product(mb, s_vectors))]
    v_mat = [[-linalg.dot(mc, inner.matrix[b]) for mc in lifted[a * q:(a + 1) * q]]
             for a, b in pairs]
    # A, the hbar coordinates of the s vectors, is read at the pivots of
    # hbar; it has full column rank, so A Q A^T = V has one solution or
    # none, and the rows P of A that are a basis give it: A_P^-1 V_PP A_P^-T
    qh = []
    if pivots:
        a_mat = [[s[c] for c in pivots] for s in s_vectors]
        rows_p = linalg.rref(linalg.transpose(a_mat))[1]
        ap_inv = linalg.inverse([a_mat[i] for i in rows_p])
        qh = linalg.mat_mul(linalg.mat_mul(
            ap_inv, [[v_mat[i][j] for j in rows_p] for i in rows_p]),
            linalg.transpose(ap_inv))
        if v_mat != linalg.transpose(v_mat) or v_mat != linalg.mat_mul(
                linalg.mat_mul(a_mat, qh), linalg.transpose(a_mat)):
            raise KostantError("not naturally reductive data")

    basis = [list(v) for v in mb] + hbar.basis()
    n = len(basis)
    form = BilinearForm(_block_sum(inner.matrix, qh))

    # the basis is independent (m meets h, and so hbar, only in 0), so gbar
    # is closed iff every bracket [basis[iu], basis[iv]] has coordinates in it
    coords = linalg.coordinates(basis, [g_alg.bracket(u, v) for u in basis for v in basis])
    closed = coords is not None
    ad_ok = closed and not any(skew_witnesses(
        {uv: {p: x for p, x in enumerate(c) if x}
         for uv, c in zip(product(range(n), repeat=2), coords)},
        form))
    checks = (Check("gbar_closed", closed), Check("ad_invariant_on_gbar", ad_ok),
              Check("nondegenerate_on_hbar", linalg.signature_of(qh)[2] == 0),
              Check("nondegenerate", form.nondegenerate))
    return KostantResult(gbar, tuple(tuple(v) for v in basis), form, hbar, checks)


def canonical_connection(g_alg, h_sub, m_sub):
    """Torsion and curvature of the canonical connection, over the m basis.

    T(x,y) = -[x,y]_m and R(x,y)z = -[[x,y]_h, z], components taken in the
    decomposition g = h + m, which must be direct.
    """
    mb = m_sub.basis()
    k = len(mb)
    try:
        parts = _split(g_alg, h_sub, m_sub, product(mb, repeat=2))
    except linalg.LinAlgError:
        raise ExtensionError("g is not the direct sum of h and m") from None
    h_parts = [_h_vector(h_sub, hc) for hc, _ in parts]
    zs = _split(g_alg, h_sub, m_sub, product(h_parts, mb))
    if any(any(zh) for zh, _ in zs):
        raise ExtensionError("[h, m] escapes m")
    tor = {ab: {p: -x for p, x in enumerate(mc)}
           for ab, (_, mc) in zip(product(range(k), repeat=2), parts)}
    cur = {abc: {p: -x for p, x in enumerate(zm)}
           for abc, (_, zm) in zip(product(range(k), repeat=3), zs)}
    return Tensor(k, 2, tor), Tensor(k, 3, cur)
