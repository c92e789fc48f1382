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
from .core import (BilinearForm, Check, LieAlgebra, Subspace, View, _bracket,
                   _commutator_flat, _gram, _leibniz, _lowered, _pair, _skew, ad_invariant,
                   all_pass, check_jacobi, orthogonal_complement)
from .geometry import Tensor, _int_vectors
from .linalg import Q0


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
        """Operator of an arbitrary h vector, summed over its nonzero coefficients."""
        n, terms = self.d.dim, [(c, m) for c, m in zip(h_coeffs, self.mats) if c]
        return [[sum((c * m[p][q] for c, m in terms), Q0) for q in range(n)] for p in range(n)]

    def beta(self, x, y):
        """Cocycle value beta(x,y) as a covector on h (dual-basis coords)."""
        g = self.d_form.rows()
        return [linalg.dot(linalg.mat_vec(self.mat(k), x), linalg.mat_vec(g, y))
                for k in range(self.h.dim)]

    @cached_property
    def int_ops(self):
        """The ``View`` of the operator field (i, b) -> pi(h_i) e_b."""
        return View.of_rational({(i, b): {p: row[b] for p, row in enumerate(m)}
                                 for i, m in enumerate(self.mats) for b in range(len(m))})

    @cached_property
    def int_beta(self):
        """The ``View`` ({(a, b): {k: x}}, scale) of the cocycle,
        beta(e_a, e_b)[k] = <pi(h_k) e_a, e_b>_d = x / scale."""
        (op, s), (rows, t) = self.int_ops, self.d_form.int_rows
        out = {}
        for (k, a), col in op.items():
            for b, x in _lowered(col, rows).items():
                out.setdefault((a, b), {})[k] = x
        return View.of(out, s * t)

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
    [h_i, delta_k] = -sum_m c_im^k delta_m, and [e_a, e_b]_d + beta(e_a, e_b),
    written on one scale from the int views of h, of pi and of ``_d_pairs``."""
    nh, nd = rep.h.dim, rep.d.dim
    hs, n = nh + nd, 2 * nh + nd
    h_br, ops, pairs, s = View.common(rep.h.int_bracket_data, rep.int_ops,
                                      _d_pairs(rep, nh, hs, ({k: {k: 1} for k in range(nh)}, 1)))
    table = {ij: comps for ij, comps in h_br.items() if ij[0] < ij[1]}
    for (i, b), col in ops.items():
        table[i, nh + b] = {nh + p: x for p, x in col.items()}
    for (i, m), comps in h_br.items():
        for k, c in comps.items():
            table.setdefault((i, hs + k), {})[hs + m] = -c
    g = LieAlgebra.from_ints(n, _joined_names(rep.h.names + rep.d.names, rep.h.names),
                             table | pairs, s)
    if check_jacobi(g):
        raise ExtensionError("constructed bracket violates Jacobi")

    # Q and Q_minus: +-<,>_h + <,>_d + the pairing of h and h*, on one scale t
    h_rows, d_rows, t = View.common(rep.h_form.int_rows, rep.d_form.int_rows)
    rest = {nh + a: {nh + q: x for q, x in row.items()} for a, row in d_rows.items()}
    rest |= {hs + i: {i: t} for i in range(nh)}
    q, q_minus = (BilinearForm.from_ints(n, {i: {j: sign * x for j, x in h_rows.get(i, {}).items()}
                                             | {hs + i: t} for i in range(nh)} | rest, t)
                  for sign in (1, -1))
    # Q_minus is ad-invariant once Q is: on this table the defect
    # B([x,y],z) + B(y,[x,z]) of <,>_h is nonzero on all-h triples only,
    # where that of the rest of Q vanishes, so Q invariant makes <,>_h so
    if not ad_invariant(g, q):
        raise ExtensionError("constructed metric is not ad-invariant")

    _check_blocks(g.int_bracket_data[0], nh)
    sd = rep.d_form.signature
    if q.signature != (sd[0] + nh, sd[1] + nh, sd[2]):
        raise ExtensionError("signature relation violated")
    # the unit rows of h are already the reduced echelon view of h_sub
    return DoubleExtension(rep, g, q, q_minus, Subspace(n, View({i: {i: 1} for i in range(nh)}, 1)))


def _joined_names(plain, dual):
    """plain, then dual starred; None, so e1, .., en, if a name repeats
    (files refuse it)."""
    names = tuple(plain) + tuple(f"{s}*" for s in dual)
    return names if len(set(names)) == len(names) else None


def _check_blocks(bracket, nh):
    """Raise unless, in the int view of the bracket of h + d + h*, h is a
    subalgebra and d + h* an ideal.  h is the first nh coordinates: a key
    (i, j) brackets two h vectors iff max(i, j) < nh, and d + h* is an
    ideal iff no other key has an h component."""
    if any(k >= nh for ij, comps in bracket.items() if max(ij) < nh for k in comps):
        raise ExtensionError("h is not a subalgebra")
    if any(k < nh for ij, comps in bracket.items() if max(ij) >= nh for k in comps):
        raise ExtensionError("d + h* is not an ideal")


def _d_pairs(rep, d0, h0, mix):
    """The int view of [e_a, e_b], a < b, in an algebra where d starts at
    d0 and h* at h0: the bracket of d plus the nonzero entries of
    M beta(e_a, e_b), for the int view mix = (rows {j: {k: x}}, t) of M,
    summed on ``int_beta`` (scale v) as a view of scale v t."""
    (rows, t), (beta, v) = mix, rep.int_beta
    d_br, beta, s = View.common(rep.d.int_bracket_data, (beta, v * t))
    table = {}
    for a, b in combinations(range(rep.d.dim), 2):
        comps = {d0 + p: x for p, x in d_br.get((a, b), {}).items()}
        if w := beta.get((a, b)):
            for j, row in rows.items():
                if x := sum(y * w.get(k, 0) for k, y in row.items()):
                    comps[h0 + j] = x
        if comps:
            table[d0 + a, d0 + b] = comps
    return table, s


@dataclass(frozen=True)
class GdAlgebra:
    """The metric Lie algebra on d + h*, h* central, metric block-diagonal."""

    rep: Representation
    L: LieAlgebra
    metric: BilinearForm
    ell: View          # ell: h -> h* in dual-basis coords, the int rows of <,>_h
    ell_inv: View      # the int rows of its inverse, computed once per algebra
    mu_data: View      # the operator field of mu on d + h*: (k, i) -> mu(h_k) e_i
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
        the ``View`` of its sparse columns {i: {p: x}}, the images of the
        (d | h*) basis: e_a -> e_a, and h_k* -> h_k + ell(h_k) in
        dual-basis coordinates, on the scale s of ``ell``."""
        nh, nd, (rows, s) = self.nh, self.nd, self.ell
        return View.of({a: {nh + a: s} for a in range(nd)} | {
            nd + k: {k: s} | {nh + nd + j: x for j, x in rows.get(k, {}).items()}
            for k in range(nh)}, s)


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
    # ell^-1 once per call, cached on a copy: the loaded form outlives the call
    winv = BilinearForm.from_ints(nh, *rep.h_form.int_rows).int_inverse
    alg = LieAlgebra.from_ints(nd + nh, _joined_names(rep.d.names, rep.h.names),
                               *_d_pairs(rep, 0, nd, winv))
    if check_jacobi(alg):
        raise ExtensionError("constructed bracket violates Jacobi")

    metric = _block_form(rep.d_form, rep.h_form)
    # mu(h_k) is pi(h_k) on d and, as mu(h) f_j = ell([h, h_j]), ad(h_k) on
    # h* in the ell basis: the columns of pi, then those of the bracket of h
    ops, h_br, s = View.common(rep.int_ops, rep.h.int_bracket_data)
    mu_data = View.of(ops | {(k, nd + j): {nd + m: c for m, c in col.items()}
                             for (k, j), col in h_br.items()}, s)
    gd = GdAlgebra(rep, alg, metric, rep.h_form.int_rows, winv, mu_data, dbl)
    _verify_gd(gd)
    return gd


def _block_form(a, b):
    """The block-diagonal form with blocks the forms a and b, written from
    their int rows brought to one scale."""
    a_rows, b_rows, s = View.common(a.int_rows, b.int_rows)
    return BilinearForm.from_ints(a.dim + b.dim, a_rows | {
        a.dim + p: {a.dim + q: x for q, x in row.items()} for p, row in b_rows.items()}, s)


def _verify_gd(gd):
    """Construction-time identities: the metric blocks, h* central, (cm),
    mu properties, lambda isometry."""
    alg, metric, nd = gd.L, gd.metric, gd.nd
    if metric != _block_form(gd.rep.d_form, gd.rep.h_form):
        raise ExtensionError("metric is not <,>_d + <,>_h")
    if any(max(ij) >= nd for ij in alg.int_bracket_data[0]):
        raise ExtensionError("h* is not central")
    # <h_k*, [e_a, e_b]> = beta(e_a, e_b)[k]: on the int views, s t times it
    # on the left, v times it in int_beta
    (br, s), (rows, t), (beta, v) = alg.int_bracket_data, metric.int_rows, gd.rep.int_beta
    empty = {}
    for a, b in product(range(nd), repeat=2):
        low, want = _lowered(br.get((a, b), empty), rows), beta.get((a, b), empty)
        if any(low.get(nd + k, 0) * v != want.get(k, 0) * s * t for k in range(gd.nh)):
            raise ExtensionError("relation <h*,[x1,x2]> = <pi(h)x1,x2> fails")
    fault = next(_action_faults(gd.mu_data, gd.rep.h, metric, alg), None)
    if fault is not None:
        raise ExtensionError({"skew": "mu(h) is not metric-skew",
                              "derivation": "mu(h) is not a derivation",
                              "homomorphism": "mu is not a homomorphism"}[fault[0]])
    # lambda^T Q_minus lambda = metric: the columns of lambda scaled by u and
    # Q_minus by w make each entry u^2 w times its value, the metric t times
    cols, u = gd.lambda_columns
    q_rows, w = gd.double.Q_minus.int_rows
    for i, ci in cols.items():
        low, row = _lowered(ci, q_rows), rows.get(i, empty)
        if any(sum(low.get(p, 0) * y for p, y in cj.items()) * t != row.get(j, 0) * u * u * w
               for j, cj in cols.items()):
            raise ExtensionError("lambda is not a linear isometry")


@dataclass(frozen=True)
class SplitResult:
    m: Subspace
    gram: BilinearForm  # the form on the rows of m
    checks: tuple  # of Check
    all_pass = all_pass


def _split(g_alg, h_sub, m_sub, pairs):
    """(parts, h): the (h, m) parts of the coordinates c / h of the int
    bracket [x, y] of each pair in the int rows of h_sub then m_sub, from
    one ``linalg._in_basis``.  ``LinAlgError`` unless g = h + m directly."""
    nh = h_sub.dim
    if nh + m_sub.dim != h_sub.ambient_dim:
        raise linalg.LinAlgError("g is not the direct sum of h and m")
    coords, h = linalg._in_basis([*h_sub.int_rows.data.values(), *m_sub.int_rows.data.values()],
                                 [_bracket(g_alg.by_first, x, y) for x, y in pairs])
    return [({i: c for i, c in cs.items() if i < nh},
             {i - nh: c for i, c in cs.items() if i >= nh}) for cs in coords], h


def reductive_split(g_alg, form, h_sub):
    """m = h-perp plus the naturally reductive condition report."""
    if _gram(form, h_sub.int_rows).signature[2] != 0:
        raise ExtensionError("form is degenerate on h")
    m = orthogonal_complement(h_sub, form)
    mb = list(m.int_rows.data.values())
    cross = list(product(h_sub.int_rows.data.values(), mb))
    # a form nondegenerate on h gives g = h + h-perp, so the split exists
    parts, _ = _split(g_alg, h_sub, m, cross + list(product(mb, repeat=2)))
    escapes = any(hc for hc, _ in parts[:len(cross)])
    # the m-projected bracket as an operator field on m, on one scale, skew
    # for the Gram matrix of m exactly when the naturally reductive
    # condition holds
    op = dict(zip(product(range(len(mb)), repeat=2), (mc for _, mc in parts[len(cross):])))
    gram_m = _gram(form, m.int_rows)
    fails = next(_skew(op, gram_m.int_rows.data), None) is not None
    return SplitResult(m, gram_m, (
        Check("direct_sum", True),
        Check("bracket_h_m_in_m", not escapes, "[h,m] escapes m" if escapes else None),
        Check("naturally_reductive", not fails,
              "naturally reductive condition fails" if fails else None)))


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
        """Q(u, v) = c_u F c_v / (s h^2) for the coordinates c / h of u and
        v in the basis (``linalg._in_basis``, all scaled to ints by one t)
        and the int rows F / s of the form."""
        *basis, u, v, _ = _int_vectors(*self.basis, u, v)
        found = linalg._in_basis(basis, [u, v])
        if found is None:
            raise KostantError("vector outside gbar")
        (cu, cv), h = found
        rows, s = self.form.int_rows
        return Fraction(_pair(rows, cu, cv), s * h * h)


def kostant_form(g_alg, h_sub, m_sub, inner):
    """Reconstruct the invariant form on gbar = m + [m,m] from <,> on m.

    inner is the Gram matrix of the metric on the rows of m_sub.  The
    extension to the h part is the unique solution of the bracket-transfer
    equations, read off a basis of hbar among the bracket projections; an
    inconsistent system means the data was not naturally reductive.

    On ints, for the rows M_a / u of m, the bracket over t, the int rows
    F / w of inner and the scales h1, h2 of the two ``_split`` calls:
    s_ab = [m_a, m_b]_h is S_ab / sigma, sigma = h1 t u^2; [m_a, s_cd] has
    the m coordinates z / (h2 t sigma) for those z / h2 of [M_a, S_cd], so
    V = V' / (sigma nu), V'[ab][cd] = -sum_p z_p F_pb and nu = h2 t w; and
    A = A' / sigma, A' the entries of the S_ab at the pivots of hbar.
    """
    hb, mb = list(h_sub.int_rows.data.values()), list(m_sub.int_rows.data.values())
    pairs = list(combinations(range(m_sub.dim), 2))
    cross = len(hb) * len(mb)
    try:
        parts, h1 = _split(g_alg, h_sub, m_sub, [*product(hb, mb), *combinations(mb, 2)])
    except linalg.LinAlgError:
        raise KostantError("g is not the direct sum of h and m") from None
    if any(hc for hc, _ in parts[:cross]):
        raise KostantError("[h, m] is not contained in m")

    s_vectors = [_lowered(hc, h_sub.int_rows.data) for hc, _ in parts[cross:]]
    hbar = Subspace.of(g_alg.dim, s_vectors)
    gbar = m_sub.add(hbar)

    # Q([y,y']_h, [z,z']_h) = -<[y, [z,z']_h], y'> on all pairs of pairs,
    # V[ab][cd] = -<[m_a, s_cd], m_b>, where [m_a, s_cd] lies in [m, h] < m;
    # lifted[a * q + cd] holds its m coordinates
    q, (irows, w), empty = len(pairs), inner.int_rows, {}
    t, u = g_alg.int_bracket_data[1], m_sub.int_rows[1]
    lifted, h2 = _split(g_alg, h_sub, m_sub, product(mb, s_vectors))
    v_mat = [[-sum(x * irows.get(p, empty).get(b, 0) for p, x in mc.items())
              for _, mc in lifted[a * q:(a + 1) * q]] for a, b in pairs]
    # A has full column rank, so A Q A^T = V has one solution or none, and
    # the rows P of A that are a basis give it: for A'_P^-1 = X / e, Q =
    # sigma X V'_PP X^T / (nu e^2), and V = A Q A^T iff A' (X V'_PP X^T)
    # A'^T = e^2 V'
    sigma, nu, r = h1 * t * u * u, h2 * t * w, hbar.dim
    a_rows = [{i: x for i, c in enumerate(hbar.pivots) if (x := sv.get(c))} for sv in s_vectors]
    rows_p = linalg._echelon(({ab: row[i] for ab, row in enumerate(a_rows) if i in row}
                              for i in range(r)), q)[1]
    x, e = linalg._inverse([a_rows[i] for i in rows_p], r)
    vp = {i: dict(enumerate(v_mat[p][j] for j in rows_p)) for i, p in enumerate(rows_p)}
    qi = {i: {j: _pair(vp, x[i], x[j]) for j in range(r)} for i in range(r)}
    if v_mat != linalg.transpose(v_mat) or any(
            _pair(qi, a, b) != e * e * y for a, row in zip(a_rows, v_mat)
            for b, y in zip(a_rows, row)):
        raise KostantError("not naturally reductive data")
    qh = BilinearForm.from_ints(r, {i: {j: y * sigma for j, y in row.items()}
                                    for i, row in qi.items()}, nu * e * e)
    form = _block_form(inner, qh)

    # the basis is independent (m meets h, and so hbar, only in 0), so gbar
    # is closed iff every bracket [basis[iu], basis[iv]] has coordinates in
    # it; on one scale they are the ad-invariance operator up to a scale
    ms, hs, _ = View.common(m_sub.int_rows, hbar.int_rows)
    basis = [*ms.values(), *hs.values()]
    found = linalg._in_basis(basis, [_bracket(g_alg.by_first, u, v) for u in basis for v in basis])
    closed = found is not None
    ad_ok = closed and next(_skew(dict(zip(product(range(len(basis)), repeat=2), found[0])),
                                  form.int_rows.data), None) is None
    checks = (Check("gbar_closed", closed), Check("ad_invariant_on_gbar", ad_ok),
              Check("nondegenerate_on_hbar", qh.signature[2] == 0),
              Check("nondegenerate", form.nondegenerate))
    return KostantResult(gbar, m_sub.rows + hbar.rows, form, hbar, checks)


def canonical_connection(g_alg, h_sub, m_sub):
    """Torsion and curvature of the canonical connection, over the m basis.

    T(x,y) = -[x,y]_m and R(x,y)z = -[[x,y]_h, z], components taken in the
    decomposition g = h + m, which must be direct.  For the rows M_a / u of
    m, the bracket over t and the split scales h1, h2, [m_a, m_b] has the
    m coordinates z / (h1 t u) and the h part (int) / (h1 t u^2), and
    [[m_a, m_b]_h, m_c] the m coordinates z' / (h2 h1 t^2 u^2).
    """
    mb, k = list(m_sub.int_rows.data.values()), m_sub.dim
    t, u = g_alg.int_bracket_data[1], m_sub.int_rows[1]
    try:
        parts, h1 = _split(g_alg, h_sub, m_sub, product(mb, repeat=2))
    except linalg.LinAlgError:
        raise ExtensionError("g is not the direct sum of h and m") from None
    h_parts = [_lowered(hc, h_sub.int_rows.data) for hc, _ in parts]
    zs, h2 = _split(g_alg, h_sub, m_sub, product(h_parts, mb))
    if any(zh for zh, _ in zs):
        raise ExtensionError("[h, m] escapes m")
    tor = {ab: {p: -x for p, x in mc.items()}
           for ab, (_, mc) in zip(product(range(k), repeat=2), parts)}
    cur = {abc: {p: -x for p, x in zm.items()}
           for abc, (_, zm) in zip(product(range(k), repeat=3), zs)}
    return (Tensor.from_ints(k, 2, tor, h1 * t * u),
            Tensor.from_ints(k, 3, cur, h2 * h1 * t * t * u * u))
