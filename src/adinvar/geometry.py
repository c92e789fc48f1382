"""Left-invariant Levi-Civita geometry: connection, curvature, sectional
curvature, Ricci tensor and geodesic criteria.

Everything is computed twice where the construction admits a closed form:
once from the Koszul formula / curvature definition (ground truth) and once
from the block formulas of the d + h* algebras; tests pin exact equality.
Every route sums over the nonzero entries of the sparse data it reads
(bracket tables, operator columns, the form rows, the columns of B^-1 and
ell^-1); the curvature routes scatter each stored entry to the keys of
the terms it is a factor of.  The routes add Python ints: each reads the
``core.View``s of its inputs (a ``Tensor``'s ``int_data``, an algebra's
``int_bracket_data``, a form's ``int_rows`` and ``int_inverse``), brought
to one scale by ``View.common`` where it sums them, accumulates with
``add_scaled`` and hands the int sums and their scale to
``Tensor.from_ints``, so no route forms a ``Fraction``.  The readers of R
(Ricci, its operator, the sectional curvature) read its view and the
form's ``int_rows`` and form one ``Fraction`` per output entry; the closed
forms read the construction's views (``ricci_gd_closed`` hands an int
form to ``BilinearForm.from_ints``).
"""

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod

from . import linalg
from .core import BilinearForm, View, _lowered, _pair, is_subalgebra
from .linalg import Q0


class GeometryError(Exception):
    pass


class Tensor:
    """Sparse multilinear map with vector values on basis tuples.

    data[(i, j, ..)] = {p: c} says that the map sends (e_i, e_j, ..) to
    the sum of c e_p; a connection has two slots (G(e_i, e_j) = Op(e_i) e_j)
    and a curvature three (R(e_i, e_j) e_k).  The tensor holds one
    ``core.View``, ``int_data``, data = ints / scale, set by ``_view``
    alone, so equal tensors have equal views.  The routes hand their int
    sums to ``from_ints``; ``data`` is rendered from the view on first
    read.
    """

    def __init__(self, dim, slots, data):
        self._view(dim, slots, View.of_rational(data))

    @classmethod
    def from_ints(cls, dim, slots, ints, scale):
        """ints / scale for sparse int data and an int scale > 0."""
        return cls.__new__(cls)._view(dim, slots, View.of(ints, scale))

    def _view(self, dim, slots, view):
        self.dim, self.slots, self.int_data = dim, slots, view
        return self

    @cached_property
    def data(self):
        return self.int_data.rational()

    @classmethod
    def from_function(cls, dim, slots, fn):
        """The tensor whose value on (e_i, e_j, ..) is the vector fn(i, j, ..)."""
        return cls(dim, slots, {
            idx: dict(enumerate(fn(*idx)))
            for idx in product(range(dim), repeat=slots)})

    def __eq__(self, other):
        return (self.dim, self.slots, self.int_data) == (other.dim, other.slots, other.int_data)

    def entry(self, *idx):
        """The value on a basis tuple as a dense vector."""
        out = linalg.zero_vector(self.dim)
        for p, c in self.data.get(idx, {}).items():
            out[p] = c
        return out

    def apply(self, *vectors):
        """The multilinear extension, summed over nonzero coordinates."""
        out = linalg.zero_vector(self.dim)
        nonzero = [[(i, x) for i, x in enumerate(v) if x] for v in vectors]
        for terms in product(*nonzero):
            comps = self.data.get(tuple(i for i, _ in terms))
            if comps:
                c = prod(x for _, x in terms)
                for p, t in comps.items():
                    out[p] += c * t
        return out

    def __sub__(self, other):
        """self - other on the views: (a t - b s) / (s t) for a / s and b / t."""
        (a, s), (b, t) = self.int_data, other.int_data
        data = {idx: {p: x * t for p, x in comps.items()} for idx, comps in a.items()}
        for idx, comps in b.items():
            add_scaled(data.setdefault(idx, {}), -s, comps)
        return Tensor.from_ints(self.dim, self.slots, data, s * t)


def add_scaled(out, c, comps, offset=0):
    """out[p + offset] += c * x for each p: x of the sparse vector comps;
    the routes pass ints."""
    for p, x in comps.items():
        out[p + offset] = out.get(p + offset, 0) + c * x


def levi_civita(alg, form):
    """Koszul formula: 2<D_x y, z> = <[x,y],z> - <[y,z],x> + <[z,x],y>.

    Each bracket is lowered through the form once, as the covector
    <[e_a, e_b], .>; D_i e_j is then B^-1 applied to the right-hand side,
    summed over the nonzero columns of B^-1, which are its rows as B is
    symmetric.  It reads the int views of the bracket (scale sb), of the
    form (sf) and of B^-1 (si, ``BilinearForm.int_inverse``); each term
    multiplies one entry of each, so every sum is 2 sb sf si times the
    connection.
    """
    if not form.nondegenerate:
        raise GeometryError("metric is degenerate")
    n = alg.dim
    (br, sb), (rows, sf), (binv, si) = alg.int_bracket_data, form.int_rows, form.int_inverse
    low = {}  # low[a, b][k] = <[e_a, e_b], e_k>
    by_first = [[] for _ in range(n)]  # by_first[a] = [(b, low[a, b]), ..]
    for (a, b), comps in br.items():
        cov = low[a, b] = {}
        for q, c in comps.items():
            add_scaled(cov, c, rows.get(q, {}))
        by_first[a].append((b, cov))
    data = {}
    for i, j in product(range(n), repeat=2):
        rhs = dict(low.get((i, j), {}))  # <[e_i,e_j], e_k>
        for k, cov in by_first[j]:       # - <[e_j,e_k], e_i>
            rhs[k] = rhs.get(k, 0) - cov.get(i, 0)
        for k, cov in by_first[i]:       # + <[e_k,e_i], e_j>
            rhs[k] = rhs.get(k, 0) - cov.get(j, 0)
        out = data[i, j] = {}
        for k, t in rhs.items():
            if t:
                add_scaled(out, t, binv[k])
    return Tensor.from_ints(n, 2, data, 2 * sb * sf * si)


def gd_tensor(gd, dd, left, right, hstar):
    """A two-slot tensor on d + h* assembled by block, in halves: D[a, b]/2
    on a pair of d basis vectors, for the int view dd = (ints, t) of D
    (its other keys are dropped), left/2 pi(h_k) e_b on (h_k*, e_b),
    right/2 pi(h_k) e_a on (e_a, h_k*) and hstar/2 [h_p, h_q]* on
    (h_p*, h_q*), for ints left, right and hstar.  dd and the views of pi
    and of the bracket of h are brought to one s (``View.common``), so
    every entry is 2 s times the tensor."""
    nd, n = gd.nd, gd.L.dim
    ints, t = dd  # a new dict: View.common hands a data of factor 1 back as it is
    data, ops, h_br, s = View.common(({ab: c for ab, c in ints.items() if max(ab) < nd}, t),
                                     gd.rep.int_ops, gd.rep.h.int_bracket_data)
    for (k, b), col in ops.items():
        for key, c in (((nd + k, b), left), ((b, nd + k), right)):
            if c:
                data[key] = {p: c * x for p, x in col.items()}
    if hstar:
        for (p, q), comps in h_br.items():
            data[nd + p, nd + q] = {nd + r: hstar * x for r, x in comps.items()}
    return Tensor.from_ints(n, 2, data, 2 * s)


def beta_star(gd):
    """beta*(e_a, e_b) = ell^-1 beta(e_a, e_b) in h, as the int view
    ({(a, b): {k: x}}, scale) for the pairs of d indices where it is
    nonzero: the h* part of the view of the bracket of ``gd.L``, which
    cm_relation checks against ``rep.int_beta``."""
    nd, (br, s) = gd.nd, gd.L.int_bracket_data
    return {ab: v for ab, comps in br.items() if max(ab) < nd
            if (v := {k - nd: x for k, x in comps.items() if k >= nd})}, s


def levi_civita_gd(gd):
    """Closed form on d + h*: D_(x1+h1*)(x2+h2*) = ([x1,x2] - pi(h1)x2 - pi(h2)x1)/2.

    [x1,x2] is the full algebra bracket of the d parts (it carries the
    cocycle component), so the connection has an h* output as well.
    """
    return gd_tensor(gd, gd.L.int_bracket_data, -1, -1, 0)


def curvature(gamma, alg):
    """R(x,y)z = D_x D_y z - D_y D_x z - D_[x,y] z from a connection tensor,
    scattered from the stored entries: with the connection indexed once by
    each slot, the sum over p of c_p D_i e_p, for D_j e_k = sum c_p e_p and
    each i with a stored D_i e_p, goes to (i, j, k) and its negative to
    (j, i, k), and a stored c e_q in [e_i, e_j] adds -c D_q e_k to (i, j, k).

    On the views G / sg of the connection and B / sb of the bracket, a D D
    term is weighted by sb and a bracket term by sg: every sum is sg^2 sb
    times the curvature."""
    n, data = alg.dim, {}
    (g, sg), (br, sb) = gamma.int_data, alg.int_bracket_data
    by_p, by_q = [[] for _ in range(n)], [[] for _ in range(n)]
    for (i, p), comps in g.items():
        by_p[p].append((i, comps))
        by_q[i].append((p, comps))
    for (j, k), comps in g.items():  # D_i D_j e_k - D_j D_i e_k
        acc = {}  # acc[i] = D_i D_j e_k
        for p, c in comps.items():
            for i, v in by_p[p]:
                add_scaled(acc.setdefault(i, {}), c, v)
        for i, v in acc.items():
            add_scaled(data.setdefault((i, j, k), {}), sb, v)
            add_scaled(data.setdefault((j, i, k), {}), -sb, v)
    for (i, j), comps in br.items():  # - D_[e_i, e_j] e_k
        for q, c in comps.items():
            for k, v in by_q[q]:
                add_scaled(data.setdefault((i, j, k), {}), -c * sg, v)
    return Tensor.from_ints(n, 3, data, sg * sg * sb)


def curvature_gd(gd):
    """Block formulas for the curvature of the d + h* algebra.

    Reads only stored construction data: the operator columns
    ``gd.rep.int_ops`` and the bracket tables of d, h and ``gd.L``, whose h*
    part is beta* (``beta_star``).  It never builds or reads a connection, so it
    stays a check of ``curvature`` independent of the Koszul and definition
    routes.  With beta*(x,y) = ell^-1 beta(x,y) in h, x, y, z in d:

      R(x,y)z     = pi(beta*(x,y))z/2 - pi(beta*(y,z))x/4 - pi(beta*(z,x))y/4
                    - [[x,y]_d, z]/4
      R(x,y)h*    = -(beta*(x,pi(h)y) + beta*(pi(h)x,y))/4 + pi(h)[x,y]_d/4
      R(x,h*)y    = -[x,pi(h)y]/4 + pi(h)[x,y]_d/4
      R(x,h1*)h2* = -pi(h1)pi(h2)x/4
      R(h1*,h2*)x = pi([h1,h2])x/4

    with R(h*,x) = -R(x,h*) and R(h1*,h2*)h3* = 0.  Scattered: pi is
    indexed by operator and by column, L and beta* by first slot (both
    antisymmetric); each stored beta*(u,v) forms pi(beta*(u,v)) e_w once per
    w for (u,v,w), (w,u,v) and (v,w,u), and the rest reads stored entries.

    The int views of pi, of the brackets of d, L and h and of beta* are
    brought to one s (``View.common``).  Every term multiplies two of their
    entries, and the coefficients 1/2, 1/4 and -1/4 become 2, 1 and -1, so
    every sum is 4 s^2 times R.
    """
    nd, nh = gd.nd, gd.nh
    pi, d_br, l_br, h_br, bstar, s = View.common(
        gd.rep.int_ops, gd.rep.d.int_bracket_data, gd.L.int_bracket_data,
        gd.rep.h.int_bracket_data, beta_star(gd))
    by_k, by_q, l_by, b_by = ([[] for _ in range(m)] for m in (nh, nd, nd, nd))
    for (k, q), col in pi.items():
        by_k[k].append((q, col))
        by_q[q].append((k, col))
    for by, br in ((l_by, l_br), (b_by, bstar)):  # h* is central: d pairs only
        for (q, c), comps in br.items():
            by[q].append((c, comps))
    data, mixed = {}, {}  # mixed: R(x,h*), mirrored into R(h*,x) at the end
    for (u, v), hv in bstar.items():  # the pi(beta*) terms of R(x,y)z
        cols = {}  # cols[w] = pi(beta*(e_u, e_v)) e_w
        for k, x in hv.items():
            for w, col in by_k[k]:
                add_scaled(cols.setdefault(w, {}), x, col)
        for w, col in cols.items():
            add_scaled(data.setdefault((u, v, w), {}), 2, col)
            add_scaled(data.setdefault((w, u, v), {}), -1, col)
            add_scaled(data.setdefault((v, w, u), {}), -1, col)
    for (a, b), comps in d_br.items():
        for q, x in comps.items():
            for c, lc in l_by[q]:  # -[[x,y]_d, z] in R(x,y)z
                add_scaled(data.setdefault((a, b, c), {}), -x, lc)
            for k, col in by_q[q]:  # pi(h)[x,y]_d in R(x,y)h* and R(x,h*)y
                add_scaled(data.setdefault((a, b, nd + k), {}), x, col)
                add_scaled(mixed.setdefault((a, nd + k, b), {}), x, col)
    for (k, b), col in pi.items():
        for q, x in col.items():
            for a, hv in b_by[q]:  # -beta*(a, pi(h)b) and -beta*(pi(h)b, a)
                add_scaled(data.setdefault((a, b, nd + k), {}), x, hv, nd)
                add_scaled(data.setdefault((b, a, nd + k), {}), -x, hv, nd)
            for a, lc in l_by[q]:  # -[x, pi(h)y] in R(x,h*)y
                add_scaled(mixed.setdefault((a, nd + k, b), {}), x, lc)
            for j, jcol in by_q[q]:  # -pi(h1)pi(h2)x in R(x,h1*)h2*
                add_scaled(mixed.setdefault((b, nd + j, nd + k), {}), -x, jcol)
    for (i, j, k), out in mixed.items():  # R(h*,x) = -R(x,h*)
        data[i, j, k] = out
        data[j, i, k] = {p: -x for p, x in out.items()}
    for (p, q), comps in h_br.items():  # R(h1*,h2*)x
        for r, x in comps.items():
            for a, col in by_k[r]:
                add_scaled(data.setdefault((nd + p, nd + q, a), {}), x, col)
    return Tensor.from_ints(nd + nh, 3, data, 4 * s * s)


def _int_vectors(*vectors):
    """The rational vectors as sparse int vectors {i: x}, scaled by one t,
    followed by t."""
    ints, t = View.of_rational({a: dict(enumerate(v)) for a, v in enumerate(vectors)})
    return (*(ints.get(a, {}) for a in range(len(vectors))), t)


def plane_discriminant(form, x, y):
    """<x,x><y,y> - <x,y>^2, on the int rows of the form (scale s) and x, y
    scaled to ints by one t: the int sum over s^2 t^4."""
    u, v, t = _int_vectors(x, y)
    rows, s = form.int_rows
    return Fraction(_pair(rows, u, u) * _pair(rows, v, v) - _pair(rows, u, v) ** 2,
                    (s * t * t) ** 2)


def sectional(r_tensor, form, x, y):
    """K = <R(x,y)y, x> / (<x,x><y,y> - <x,y>^2) on a nondegenerate plane.

    The numerator is summed on the view of R (scale r), the int rows of
    the form (scale s) and x, y scaled to ints by one t: over r s t^4."""
    qp = plane_discriminant(form, x, y)
    if qp == 0:
        raise GeometryError("degenerate plane")
    u, v, t = _int_vectors(x, y)
    (ints, r), (rows, s) = r_tensor.int_data, form.int_rows
    w = {}  # R(u, v) v
    for (i, a), (j, b), (k, c) in product(u.items(), v.items(), v.items()):
        add_scaled(w, a * b * c, ints.get((i, j, k), {}))
    return Fraction(_pair(rows, w, u) * qp.denominator, r * s * t ** 4 * qp.numerator)


def sectional_gd_closed(gd, x, y):
    """Case form of the sectional curvature on d + h*.

    Needs an orthonormal pair with each vector purely in d or purely in h*:
      both in d:   e1 e2 (<[x,y],[x,y]>/4 - 3 <beta(x,y),beta(x,y)>/4)
      d and h*:    e1 e2 <pi(y*)x, pi(y*)x>/4
      both in h*:  0
    """
    xd, xh = gd.split(x)
    yd, yh = gd.split(y)
    if any(xd) and any(xh) or any(yd) and any(yh):
        raise GeometryError("closed form needs pure d or pure h* arguments")
    metric = gd.metric
    e1, e2 = metric.apply(x, x), metric.apply(y, y)
    if abs(e1) != 1 or abs(e2) != 1 or metric.apply(x, y) != 0:
        raise GeometryError("closed form needs an orthonormal pair")
    x_in_d, y_in_d = any(xd), any(yd)
    if x_in_d and y_in_d:
        bxy = gd.rep.d.bracket(xd, yd)
        beta, (winv, si) = gd.rep.beta(xd, yd), gd.ell_inv
        beta_norm = Fraction(sum(beta[a] * x * beta[b] for a, row in winv.items()
                                 for b, x in row.items()), si)
        inner = gd.rep.d_form.apply(bxy, bxy)
        return e1 * e2 * (inner / 4 - 3 * beta_norm / 4)
    if not x_in_d and not y_in_d:
        return linalg.Q0
    if not x_in_d:
        xd, yh = yd, xh
        e1, e2 = e2, e1
    pix = linalg.mat_vec(gd.rep.pi_of(yh), xd)
    return e1 * e2 * gd.rep.d_form.apply(pix, pix) / 4


def _ricci_ints(r_tensor, form):
    """(m, scale): Ric(e_i, e_j) = sum_a R(e_a, e_i) e_j at e_a, the int
    matrix m over the scale of the view of R."""
    if not form.nondegenerate:
        raise GeometryError("metric is degenerate")
    (ints, s), n = r_tensor.int_data, r_tensor.dim
    m = [[0] * n for _ in range(n)]
    for (a, i, j), comps in ints.items():
        m[i][j] += comps.get(a, 0)
    return m, s


def ricci(r_tensor, form):
    """Ric(x, y) = trace(z -> R(z, x) y); symmetric for a metric connection."""
    m, s = _ricci_ints(r_tensor, form)
    return BilinearForm(tuple(tuple(Fraction(x, s) if x else Q0 for x in row) for row in m))


def ricci_operator(r_tensor, form):
    """The metric-self-adjoint T = B^-1 Ric, with Ric(x,y) = <Tx, y>.  For
    B = b / s (the int rows of the form) and Ric = c / r, one fraction-free
    elimination of [b | c] (``linalg._echelon``) gives row i as
    h_i [e_i | (r / s) T_i] for an int h_i."""
    (c, r), (b, s), n = _ricci_ints(r_tensor, form), form.int_rows, form.dim
    aug = [{**b.get(i, {}), **{n + j: x for j, x in enumerate(c[i]) if x}} for i in range(n)]
    return [[Fraction(x * s, row[i] * r) if (x := row.get(n + j)) else Q0 for j in range(n)]
            for i, row in enumerate(linalg._echelon(aug, 2 * n)[0])]


def ricci_gd_closed(gd):
    """Closed form of the Ricci tensor on d + h*: -tr(AB)/4 over the
    operators ad e_1 .. ad e_nd, pi(h_1) .. pi(h_nh) of d, plus (gS)^T/2 on
    the d-d block.

    S is the signed sum of pi(f)^2 over an orthonormal h* basis f.  It is
    evaluated as the equal contraction sum_ab ell^-1[a][b] pi(h_a) pi(h_b)
    with the stored ``gd.ell_inv``, which needs no orthonormal frame over Q
    and so serves every form on h.

    The operators are read as columns X e_q off the views of the bracket
    of d and of pi, brought to one s; with ell^-1 on the scale e and
    <,>_d on g, every entry is 4 g e s^2 times Ric.
    """
    nd, n = gd.nd, gd.L.dim
    d_br, pi, s = View.common(gd.rep.d.int_bracket_data, gd.rep.int_ops)
    (einv, e), (g_rows, g) = gd.ell_inv, gd.rep.d_form.int_rows
    ops = [{} for _ in range(n)]  # ops[i][q] = X_i e_q: ad(e_a), then pi(h_k)
    for (i, q), col in [*d_br.items(), *(((nd + k, q), c) for (k, q), c in pi.items())]:
        ops[i][q] = col
    m = {i: {j: -g * e * sum(c * y.get(p, {}).get(q, 0) for q, col in x.items()
                             for p, c in col.items())  # -tr(X_i X_j)
             for j, y in enumerate(ops)} for i, x in enumerate(ops)}
    for a, row in einv.items():  # (gS)^T[q][r] = <S e_q, e_r>, pi(h_b) e_q read entry by entry
        for b, x in row.items():
            for q, col in ops[nd + b].items():
                for p, y in col.items():
                    add_scaled(m[q], 2 * x * y, _lowered(ops[nd + a].get(p, {}), g_rows))
    return BilinearForm.from_ints(n, m, 4 * g * e * s * s)


def geodesic_one_param(gd, xi):
    """exp(t xi) is a geodesic iff pi(h)x = 0 for xi = x + h*."""
    x, hc = gd.split(xi)
    return linalg.is_zero_vector(linalg.mat_vec(gd.rep.pi_of(hc), x))


def totally_geodesic(alg, form, sub):
    """True iff the subalgebra is closed under the Levi-Civita connection."""
    if not is_subalgebra(alg, sub):
        raise GeometryError("subspace is not a subalgebra")
    gamma = levi_civita(alg, form)
    return all(sub.contains(gamma.apply(u, v))
               for u in sub.basis() for v in sub.basis())


def check_pair_symmetry(r_tensor, form):
    """<R(x,y)z, w> = <R(z,w)x, y> on all basis tuples."""
    n, basis = r_tensor.dim, linalg.identity(r_tensor.dim)
    return all(form.apply(r_tensor.entry(i, j, k), basis[l])
               == form.apply(r_tensor.entry(k, l, i), basis[j])
               for i, j, k, l in product(range(n), repeat=4))


def bi_invariant_connection_check(alg, gamma):
    """For ad-invariant metrics the connection is half the bracket."""
    return gamma.data == {idx: {k: c / 2 for k, c in comps.items()}
                          for idx, comps in alg.bracket_data.items()}


def bi_invariant_curvature_check(alg, r_tensor):
    """R(x,y)z = -[[x,y],z]/4 on all basis triples."""
    basis = linalg.identity(alg.dim)

    def want(i, j, k):
        return [-x / 4 for x in alg.bracket(alg.basis_bracket(i, j), basis[k])]
    return r_tensor == Tensor.from_function(alg.dim, 3, want)

