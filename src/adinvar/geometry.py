"""Left-invariant Levi-Civita geometry: connection, curvature, sectional
curvature, Ricci tensor and geodesic criteria.

Everything is computed twice where the construction admits a closed form:
once from the Koszul formula / curvature definition (ground truth) and once
from the block formulas of the d + h* algebras; tests pin exact equality.
"""

from dataclasses import dataclass
from itertools import product
from math import prod

from . import linalg
from .core import BilinearForm, is_subalgebra
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

    def apply_left(self, i, *vectors):
        """Op(e_i) applied to the remaining arguments."""
        unit = linalg.zero_vector(self.dim)
        unit[i] = Q1
        return self.apply(unit, *vectors)

    def __sub__(self, other):
        data = {idx: dict(comps) for idx, comps in self.data.items()}
        for idx, comps in other.data.items():
            out = data.setdefault(idx, {})
            for p, c in comps.items():
                out[p] = out.get(p, Q0) - c
        return Tensor(self.dim, self.slots, data)


def levi_civita(alg, form):
    """Koszul formula: 2<D_x y, z> = <[x,y],z> - <[y,z],x> + <[z,x],y>."""
    if not form.nondegenerate:
        raise GeometryError("metric is degenerate")
    n = alg.dim
    binv = linalg.inverse(form.rows())
    basis = linalg.identity(n)

    def nabla(i, j):
        rhs = []
        bij = alg.basis_bracket(i, j)
        for k in range(n):
            t = form.apply(bij, basis[k])
            t -= form.apply(alg.basis_bracket(j, k), basis[i])
            t += form.apply(alg.basis_bracket(k, i), basis[j])
            rhs.append(t / 2)
        return linalg.mat_vec(binv, rhs)

    return Tensor.from_function(n, 2, nabla)


def levi_civita_gd(gd):
    """Closed form on d + h*: D_(x1+h1*)(x2+h2*) = ([x1,x2] - pi(h1)x2 - pi(h2)x1)/2.

    [x1,x2] is the full algebra bracket of the d parts (it carries the
    cocycle component), so the connection has an h* output as well.
    """
    alg = gd.L
    n = alg.dim
    basis = linalg.identity(n)

    def nabla(i, j):
        x1, h1 = gd.split(basis[i])
        x2, h2 = gd.split(basis[j])
        out = alg.bracket(gd.embed_d(x1), gd.embed_d(x2))
        out = linalg.vec_sub(out, gd.embed_d(
            linalg.mat_vec(gd.rep.pi_of(h1), x2)))
        out = linalg.vec_sub(out, gd.embed_d(
            linalg.mat_vec(gd.rep.pi_of(h2), x1)))
        return linalg.vec_scale(Q1 / 2, out)

    return Tensor.from_function(n, 2, nabla)


def curvature(gamma, alg):
    """R(x,y)z = D_x D_y z - D_y D_x z - D_[x,y] z from a connection tensor."""
    n = alg.dim
    basis = linalg.identity(n)

    def r(i, j, k):
        out = gamma.apply_left(i, gamma.entry(j, k))
        out = linalg.vec_sub(out, gamma.apply_left(j, gamma.entry(i, k)))
        out = linalg.vec_sub(out, gamma.apply(alg.basis_bracket(i, j), basis[k]))
        return out

    return Tensor.from_function(n, 3, r)


def curvature_gd(gd):
    """Block formulas for the curvature of the d + h* algebra.

    Reads only stored construction data: ``gd.beta_table``, ``gd.ell``
    (inverted once), the operators ``gd.rep.mats`` and the bracket tables
    of d, h and ``gd.L``.  It never builds or reads a connection, so it
    stays a check of ``curvature`` independent of the Koszul and definition
    routes.  With beta*(x,y) = ell^-1 beta(x,y) in h, x, y, z in d:

      R(x,y)z     = pi(beta*(x,y))z/2 - pi(beta*(y,z))x/4 - pi(beta*(z,x))y/4
                    - [[x,y]_d, z]/4
      R(x,y)h*    = -(beta*(x,pi(h)y) + beta*(pi(h)x,y))/4 + pi(h)[x,y]_d/4
      R(x,h*)y    = -[x,pi(h)y]/4 + pi(h)[x,y]_d/4
      R(x,h1*)h2* = -pi(h1)pi(h2)x/4
      R(h1*,h2*)x = pi([h1,h2])x/4

    with R(h*,x) = -R(x,h*) and R(h1*,h2*)h3* = 0.
    """
    alg, rep = gd.L, gd.rep
    nd, nh = gd.nd, gd.nh
    n = nd + nh
    half, quarter = Q1 / 2, Q1 / 4
    ellinv = gd.ell_inv
    bstar = [[linalg.mat_vec(ellinv, gd.beta_table[a][b]) for b in range(nd)]
             for a in range(nd)]
    # operators stored by columns: cols[b] = M e_b
    pi_bstar = [[linalg.transpose(rep.pi_of(bstar[a][b])) for b in range(nd)]
                for a in range(nd)]
    pi_h = [linalg.transpose(m) for m in rep.mats]
    pi_hbr = [[linalg.transpose(rep.pi_of(rep.h.basis_bracket(p, q)))
               for q in range(nh)] for p in range(nh)]
    d_br = [[rep.d.basis_bracket(a, b) for b in range(nd)] for a in range(nd)]
    l_br = [[alg.basis_bracket(a, b) for b in range(nd)] for a in range(nd)]

    def comb(coeffs, vecs, size):
        """sum_q coeffs[q] vecs[q] over the nonzero coefficients."""
        out = linalg.zero_vector(size)
        for c, v in zip(coeffs, vecs):
            if c:
                out = [o + c * x for o, x in zip(out, v)]
        return out

    def r(i, j, k):
        di, dj, dk = i < nd, j < nd, k < nd
        if di and dj and dk:
            a, b, c = i, j, k
            out = gd.embed_d([half * x - quarter * (y + z) for x, y, z in zip(
                pi_bstar[a][b][c], pi_bstar[b][c][a], pi_bstar[c][a][b])])
            inner = comb(d_br[a][b], [l_br[q][c] for q in range(nd)], n)
            return linalg.vec_sub(out, linalg.vec_scale(quarter, inner))
        if di and dj:  # z in h*; ell-basis index k - nd names the h vector
            a, b, pih = i, j, pi_h[k - nd]
            hpart = linalg.vec_add(
                comb(pih[b], bstar[a], nh),
                comb(pih[a], [bstar[q][b] for q in range(nd)], nh))
            dpart = comb(d_br[a][b], pih, nd)
            # the d block followed by the h* block
            return (linalg.vec_scale(quarter, dpart)
                    + linalg.vec_scale(-quarter, hpart))
        if di and not dj and dk:  # R(x, h*) y
            a, b, pih = i, k, pi_h[j - nd]
            out = linalg.vec_scale(-quarter, comb(pih[b], l_br[a], n))
            return linalg.vec_add(out, gd.embed_d(
                linalg.vec_scale(quarter, comb(d_br[a][b], pih, nd))))
        if not di and dj and dk:  # R(h*, x) y = -R(x, h*) y
            return linalg.vec_scale(-Q1, r(j, i, k))
        if di and not dj and not dk:  # R(x, h1*) h2*
            out = comb(pi_h[k - nd][i], pi_h[j - nd], nd)
            return gd.embed_d(linalg.vec_scale(-quarter, out))
        if not di and dj and not dk:
            return linalg.vec_scale(-Q1, r(j, i, k))
        if not di and not dj and dk:  # R(h1*, h2*) x
            return gd.embed_d(linalg.vec_scale(
                quarter, pi_hbr[i - nd][j - nd][k]))
        return linalg.zero_vector(n)

    return Tensor.from_function(n, 3, r)


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
    if _mixed_block(xd, xh) or _mixed_block(yd, yh):
        raise GeometryError("closed form needs pure d or pure h* arguments")
    metric = gd.metric
    e1, e2 = metric.apply(x, x), metric.apply(y, y)
    if abs(e1) != 1 or abs(e2) != 1 or metric.apply(x, y) != 0:
        raise GeometryError("closed form needs an orthonormal pair")
    x_in_d = any(c != 0 for c in xd)
    y_in_d = any(c != 0 for c in yd)
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


def _mixed_block(d_part, h_part):
    return any(c != 0 for c in d_part) and any(c != 0 for c in h_part)


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
    """Block closed forms of the Ricci tensor on d + h*.

    The d-d block needs the signed sum over an orthonormal h* basis; it is
    evaluated through an exact epsilon-frame when ``linalg.epsilon_frame``
    finds one and through the equivalent inverse-Gram contraction otherwise.
    """
    nd, nh = gd.nd, gd.nh
    w = [list(r) for r in gd.ell]
    frame = linalg.epsilon_frame(w)
    if frame is not None:
        vecs, signs = frame
        s = linalg.zeros(nd, nd)
        for v, eps in zip(vecs, signs):
            p = gd.rep.pi_of(v)
            s = linalg.mat_add(s, linalg.mat_scale(eps, linalg.mat_mul(p, p)))
    else:
        winv = linalg.inverse(w)
        s = linalg.zeros(nd, nd)
        for a in range(nh):
            for b in range(nh):
                if winv[a][b] != 0:
                    pa = gd.rep.mat(a)
                    pb = gd.rep.mat(b)
                    s = linalg.mat_add(
                        s, linalg.mat_scale(winv[a][b], linalg.mat_mul(pa, pb)))
    ads = [gd.rep.d.ad(a) for a in range(nd)]
    gd_rows = gd.rep.d_form.rows()
    n = nd + nh
    m = linalg.zeros(n, n)
    unit = linalg.identity(nd)
    for a in range(nd):
        sa = linalg.mat_vec(s, unit[a])
        for b in range(nd):
            m[a][b] = (linalg.dot(linalg.mat_vec(gd_rows, sa), unit[b]) / 2
                       - linalg.trace_product(ads[a], ads[b]) / 4)
    for a in range(nd):
        for k in range(nh):
            val = -linalg.trace_product(gd.rep.mat(k), ads[a]) / 4
            m[a][nd + k] = val
            m[nd + k][a] = val
    for j in range(nh):
        for k in range(nh):
            m[nd + j][nd + k] = -linalg.trace_product(
                gd.rep.mat(j), gd.rep.mat(k)) / 4
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
    n = r_tensor.dim
    basis = linalg.identity(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rij = r_tensor.entry(i, j, k)
                for l in range(n):
                    lhs = form.apply(rij, basis[l])
                    rhs = form.apply(r_tensor.entry(k, l, i), basis[j])
                    if lhs != rhs:
                        return False
    return True


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


def curvature_relation_check(gd, r_tensor):
    """d-d-d curvature against the pi/beta expansion plus the inner curvature.

    R(x,y)z = pi(b*(x,y))z/2 - pi(b*(y,z))x/4 - pi(b*(z,x))y/4
              + beta(z, [x,y]_d)/4 + R^d(x,y)z with R^d = -ad([x,y]_d)/4.
    """
    nd = gd.nd
    ellinv = gd.ell_inv
    unit = linalg.identity(nd)
    for i in range(nd):
        for j in range(nd):
            for k in range(nd):
                x, y, z = unit[i], unit[j], unit[k]
                bxy = gd.rep.d.bracket(x, y)
                out = gd.embed_d(linalg.mat_vec(
                    gd.rep.pi_of(linalg.mat_vec(ellinv, gd.rep.beta(x, y))),
                    linalg.vec_scale(Q1 / 2, z)))
                out = linalg.vec_sub(out, gd.embed_d(linalg.mat_vec(
                    gd.rep.pi_of(linalg.mat_vec(ellinv, gd.rep.beta(y, z))),
                    linalg.vec_scale(Q1 / 4, x))))
                out = linalg.vec_sub(out, gd.embed_d(linalg.mat_vec(
                    gd.rep.pi_of(linalg.mat_vec(ellinv, gd.rep.beta(z, x))),
                    linalg.vec_scale(Q1 / 4, y))))
                out = linalg.vec_add(out, linalg.vec_scale(
                    Q1 / 4,
                    gd.embed_h(linalg.mat_vec(ellinv, gd.rep.beta(z, bxy)))))
                out = linalg.vec_sub(out, gd.embed_d(linalg.vec_scale(
                    Q1 / 4, gd.rep.d.bracket(bxy, z))))
                if r_tensor.entry(i, j, k) != out:
                    return False
    return True
