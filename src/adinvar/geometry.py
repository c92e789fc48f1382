"""Left-invariant Levi-Civita geometry: connection, curvature, sectional
curvature, Ricci tensor and geodesic criteria.

Everything is computed twice where the construction admits a closed form:
once from the Koszul formula / curvature definition (ground truth) and once
from the block formulas of the d + h* algebras; tests pin exact equality.
Every route builds ``Tensor.data`` directly, summing over the nonzero
entries of the sparse data it reads (bracket tables, operator columns,
the form rows, the columns of B^-1 and ell^-1); the curvature routes
scatter each stored entry to the keys of the terms it is a factor of.
``Tensor.from_function`` remains for test oracles and for
``bi_invariant_curvature_check``.

The routes add Python ints.  Each passes all its inputs to one
``core._integral`` call, which scales them by one common s; it then
accumulates with ``add_scaled`` and divides once by k s^d with
``core._rational``, for d the number of input entries in each term and k
the denominator of the coefficients: one ``Fraction`` per stored entry,
and no weight per term.  Where an entry is a single product (the blocks of ``gd_tensor``)
it is formed as one ``Fraction`` by ``_product``.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

from . import linalg
from .core import BilinearForm, _integral, _rational, _rows, is_subalgebra
from .linalg import Q0, Q1


class GeometryError(Exception):
    pass


@dataclass(frozen=True)
class Tensor:
    """Sparse multilinear map with vector values on basis tuples.

    data[(i, j, ..)] = {p: c} says that the map sends (e_i, e_j, ..) to
    the sum of c e_p; a connection has two slots (G(e_i, e_j) = Op(e_i) e_j)
    and a curvature three (R(e_i, e_j) e_k).  Zero outputs and zero
    coefficients are never stored, so equal tensors have equal data.
    """

    dim: int
    slots: int
    data: dict

    def __post_init__(self):
        clean = {}
        for idx, comps in self.data.items():
            comps = {p: c for p, c in comps.items() if c}
            if comps:
                clean[idx] = comps
        object.__setattr__(self, "data", clean)

    @classmethod
    def from_function(cls, dim, slots, fn):
        """The tensor whose value on (e_i, e_j, ..) is the vector fn(i, j, ..)."""
        return cls(dim, slots, {
            idx: dict(enumerate(fn(*idx)))
            for idx in product(range(dim), repeat=slots)})

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
        data, b, s = _integral(self.data, other.data)
        for idx, comps in b.items():
            add_scaled(data.setdefault(idx, {}), -1, comps)
        return Tensor(self.dim, self.slots, _rational(data, s))


def add_scaled(out, c, comps, offset=0):
    """out[p + offset] += c * x for each p: x of the sparse vector comps;
    the routes pass ints."""
    for p, x in comps.items():
        out[p + offset] = out.get(p + offset, 0) + c * x


def _product(c, x):
    """c x as one Fraction, formed without Fraction arithmetic."""
    return Fraction(c.numerator * x.numerator, c.denominator * x.denominator)


def levi_civita(alg, form):
    """Koszul formula: 2<D_x y, z> = <[x,y],z> - <[y,z],x> + <[z,x],y>.

    Each bracket is lowered through the form once, as the covector
    <[e_a, e_b], .>; D_i e_j is then B^-1 applied to the right-hand side,
    summed over the nonzero columns of B^-1, which are its rows as B is
    symmetric.  The bracket, the form and B^-1 are scaled to integers by
    one s, so every sum is 2 s^3 times the connection.
    """
    if not form.nondegenerate:
        raise GeometryError("metric is degenerate")
    n = alg.dim
    br, rows, binv, s = _integral(alg.bracket_data, _rows(form.matrix),
                                  _rows(linalg.inverse(form.rows())))
    low = {}  # low[a, b][k] = <[e_a, e_b], e_k>
    by_first = [[] for _ in range(n)]  # by_first[a] = [(b, low[a, b]), ..]
    for (a, b), comps in br.items():
        cov = low[a, b] = {}
        for q, c in comps.items():
            add_scaled(cov, c, rows[q])
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
    return Tensor(n, 2, _rational(data, 2 * s ** 3))


def gd_tensor(gd, dd, left, right, hstar):
    """A two-slot tensor on d + h* assembled by block from construction data.

    dd[a, b] is the value on a pair of d basis vectors; the value on
    (h_k*, e_b) is left * pi(h_k) e_b, on (e_a, h_k*) it is right * pi(h_k) e_a,
    and on (h_p*, h_q*) it is hstar * [h_p, h_q]*.  The blocks use
    different keys, so every entry outside dd is one product.
    """
    nd, n = gd.nd, gd.L.dim
    data = dict(dd)  # the other blocks use other keys
    for (k, b), col in gd.rep.op_data.items():
        for key, c in (((nd + k, b), left), ((b, nd + k), right)):
            if c:
                data[key] = {p: _product(c, x) for p, x in col.items()}
    if hstar:
        for (p, q), comps in gd.rep.h.bracket_data.items():
            data[nd + p, nd + q] = {nd + r: _product(hstar, x)
                                    for r, x in comps.items()}
    return Tensor(n, 2, data)


def d_bracket_half(gd):
    """[e_a, e_b]/2 in d + h* for d basis vectors, with its h* component."""
    nd, half = gd.nd, Fraction(1, 2)
    return {(a, b): {p: _product(half, c) for p, c in comps.items()}
            for (a, b), comps in gd.L.bracket_data.items() if a < nd and b < nd}


def beta_star(gd):
    """beta*(e_a, e_b) = ell^-1 beta(e_a, e_b) in h, as {(a, b): {k: coeff}}
    for the pairs of d indices where it is nonzero: the h* part of the
    bracket of ``gd.L``, which cm_relation checks against ``rep.int_beta``."""
    nd = gd.nd
    return {ab: v for ab, comps in gd.L.bracket_data.items() if max(ab) < nd
            if (v := {k - nd: x for k, x in comps.items() if k >= nd})}


def levi_civita_gd(gd):
    """Closed form on d + h*: D_(x1+h1*)(x2+h2*) = ([x1,x2] - pi(h1)x2 - pi(h2)x1)/2.

    [x1,x2] is the full algebra bracket of the d parts (it carries the
    cocycle component), so the connection has an h* output as well.
    """
    half = Fraction(1, 2)
    return gd_tensor(gd, d_bracket_half(gd), -half, -half, 0)


def curvature(gamma, alg):
    """R(x,y)z = D_x D_y z - D_y D_x z - D_[x,y] z from a connection tensor,
    scattered from the stored entries: with the connection indexed once by
    each slot, the sum over p of c_p D_i e_p, for D_j e_k = sum c_p e_p and
    each i with a stored D_i e_p, goes to (i, j, k) and its negative to
    (j, i, k), and a stored c e_q in [e_i, e_j] adds -c D_q e_k to (i, j, k).

    The connection and the bracket are scaled to integers by one s, and
    every term is a product of two of their entries, so every sum is s^2
    times the curvature."""
    n, data = alg.dim, {}
    g, br, s = _integral(gamma.data, alg.bracket_data)
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
            add_scaled(data.setdefault((i, j, k), {}), 1, v)
            add_scaled(data.setdefault((j, i, k), {}), -1, v)
    for (i, j), comps in br.items():  # - D_[e_i, e_j] e_k
        for q, c in comps.items():
            for k, v in by_q[q]:
                add_scaled(data.setdefault((i, j, k), {}), -c, v)
    return Tensor(n, 3, _rational(data, s * s))


def curvature_gd(gd):
    """Block formulas for the curvature of the d + h* algebra.

    Reads only stored construction data: the operator columns
    ``gd.rep.op_data`` and the bracket tables of d, h and ``gd.L``, whose h*
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

    pi, the brackets of d, L and h and beta* are scaled to integers by one
    s.  Every term multiplies two of their entries, and the coefficients
    1/2, 1/4 and -1/4 become 2, 1 and -1, so every sum is 4 s^2 times R.
    """
    nd, nh = gd.nd, gd.nh
    pi, d_br, l_br, h_br, bstar, s = _integral(
        gd.rep.op_data, gd.rep.d.bracket_data, gd.L.bracket_data,
        gd.rep.h.bracket_data, beta_star(gd))
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
    return Tensor(nd + nh, 3, _rational(data, 4 * s * s))


def plane_discriminant(form, x, y):
    return form.apply(x, x) * form.apply(y, y) - form.apply(x, y) ** 2


def sectional(r_tensor, form, x, y):
    """K = <R(x,y)y, x> / (<x,x><y,y> - <x,y>^2) on a nondegenerate plane."""
    qp = plane_discriminant(form, x, y)
    if qp == 0:
        raise GeometryError("degenerate plane")
    return form.apply(r_tensor.apply(x, y, y), x) / qp


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
        beta = gd.rep.beta(xd, yd)
        winv = gd.ell_inv
        beta_norm = linalg.dot(beta, linalg.mat_vec(winv, beta))
        inner = gd.rep.d_form.apply(bxy, bxy)
        return e1 * e2 * (inner / 4 - 3 * beta_norm / 4)
    if not x_in_d and not y_in_d:
        return linalg.Q0
    if not x_in_d:
        xd, yh = yd, xh
        e1, e2 = e2, e1
    pix = linalg.mat_vec(gd.rep.pi_of(yh), xd)
    return e1 * e2 * gd.rep.d_form.apply(pix, pix) / 4


def ricci(r_tensor, form):
    """Ric(x, y) = trace(z -> R(z, x) y); symmetric for a metric connection."""
    if not form.nondegenerate:
        raise GeometryError("metric is degenerate")
    m = linalg.zeros(r_tensor.dim, r_tensor.dim)
    for (a, i, j), comps in r_tensor.data.items():
        m[i][j] += comps.get(a, Q0)
    return BilinearForm(tuple(tuple(row) for row in m))


def ricci_operator(r_tensor, form):
    """The metric-self-adjoint T with Ric(x,y) = <Tx, y>."""
    ric = ricci(r_tensor, form)
    return linalg.mat_mul(linalg.inverse(form.rows()), ric.rows())


def ricci_gd_closed(gd):
    """Closed form of the Ricci tensor on d + h*: -tr(AB)/4 over the
    operators ad e_1 .. ad e_nd, pi(h_1) .. pi(h_nh) of d, plus (gS)^T/2 on
    the d-d block.

    S is the signed sum of pi(f)^2 over an orthonormal h* basis f.  It is
    evaluated as the equal contraction sum_ab ell^-1[a][b] pi(h_a) pi(h_b)
    with the stored ``gd.ell_inv``, which needs no orthonormal frame over Q
    and so serves every form on h.
    """
    nd, pis = gd.nd, gd.rep.mats
    s = linalg.zeros(nd, nd)
    for pa, row in zip(pis, gd.ell_inv):
        s = linalg.mat_add(s, linalg.mat_mul(pa, gd.rep.pi_of(row)))
    gs = linalg.mat_mul(gd.rep.d_form.rows(), s)
    ops = [gd.rep.d.ad(a) for a in range(nd)] + list(pis)
    m = [[-linalg.trace_product(x, y) / 4 for y in ops] for x in ops]
    for a, b in product(range(nd), repeat=2):
        m[a][b] += gs[b][a] / 2
    return BilinearForm(tuple(tuple(row) for row in m))


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
        return linalg.vec_scale(-Q1 / 4, alg.bracket(alg.basis_bracket(i, j), basis[k]))
    return r_tensor == Tensor.from_function(alg.dim, 3, want)

