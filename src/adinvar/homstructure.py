"""The naturally reductive homogeneous structure tensor on d + h* and the
exact verification of the Ambrose-Singer conditions at the algebra level.

For left-invariant tensors the covariant statements reduce to sweeps of the
operator combination over basis tuples; all checks are exact.
"""

from dataclasses import dataclass
from itertools import product

from . import linalg
from .geometry import Tensor3, curvature_gd, levi_civita_gd
from .linalg import Q1


class HomStructureError(Exception):
    pass


def t_tensor(gd):
    """T_x y = ([x1,x2] + pi(h1)x2 - pi(h2)x1)/2 + [h1,h2]* on basis pairs.

    Computed both from this closed form and through lambda as half the
    m-projection of the bracket upstairs; the two must agree exactly.
    """
    alg = gd.L
    n = alg.dim
    basis = linalg.identity(n)

    def t_direct(i, j):
        x1, h1 = gd.split(basis[i])
        x2, h2 = gd.split(basis[j])
        out = alg.bracket(gd.embed_d(x1), gd.embed_d(x2))
        out = linalg.vec_add(out, gd.embed_d(
            linalg.mat_vec(gd.rep.pi_of(h1), x2)))
        out = linalg.vec_sub(out, gd.embed_d(
            linalg.mat_vec(gd.rep.pi_of(h2), x1)))
        out = linalg.vec_scale(Q1 / 2, out)
        return linalg.vec_add(out, gd.embed_h(gd.rep.h.bracket(h1, h2)))

    direct = Tensor3.from_function(n, t_direct)
    via_lambda = _t_via_lambda(gd)
    if direct != via_lambda:
        raise HomStructureError("the two homogeneous structure formulas disagree")
    return direct


def _t_via_lambda(gd):
    from .extension import lambda_matrix
    lam_cols = linalg.transpose(lambda_matrix(gd))  # lam_cols[i] = lambda(e_i)
    dbl = gd.double
    winv = gd.ell_inv()
    n = gd.L.dim

    def t(i, j):
        w = dbl.g.bracket(lam_cols[i], lam_cols[j])
        _, dvec, dual = dbl.split(w)
        # m-projection of (a, v, phi) is (ell^-1 phi, v, phi); pull back by
        # lambda^-1 to get v + (ell^-1 phi in ell-basis coordinates)
        hc = linalg.mat_vec(winv, dual)
        return linalg.vec_scale(Q1 / 2, list(dvec) + list(hc))

    return Tensor3.from_function(n, t)


def nabla_tilde_closed(gd):
    """Eq. form of T - nabla: x1+h1*, x2+h2* -> pi(h1)x2 + [h1,h2]*."""
    n = gd.L.dim
    basis = linalg.identity(n)

    def nt(i, j):
        x1, h1 = gd.split(basis[i])
        x2, h2 = gd.split(basis[j])
        out = gd.embed_d(linalg.mat_vec(gd.rep.pi_of(h1), x2))
        return linalg.vec_add(out, gd.embed_h(gd.rep.h.bracket(h1, h2)))

    return Tensor3.from_function(n, nt)


def nilmanifold_t_formula(gd):
    """The nilmanifold display of T; coincides with t_tensor iff d is abelian."""
    n = gd.L.dim
    basis = linalg.identity(n)
    winv = gd.ell_inv()

    def t(i, j):
        v1, k1 = gd.split(basis[i])
        v2, k2 = gd.split(basis[j])
        out = linalg.vec_scale(Q1 / 2, gd.embed_d(linalg.vec_sub(
            linalg.mat_vec(gd.rep.pi_of(k1), v2),
            linalg.mat_vec(gd.rep.pi_of(k2), v1))))
        out = linalg.vec_add(out, linalg.vec_scale(Q1 / 2, gd.embed_h(
            linalg.mat_vec(winv, gd.rep.beta(v1, v2)))))
        return linalg.vec_add(out, gd.embed_h(gd.rep.h.bracket(k1, k2)))

    return Tensor3.from_function(n, t)


@dataclass(frozen=True)
class HomStructure:
    gd: object
    T: Tensor3
    nabla: Tensor3
    nabla_tilde: Tensor3
    R: object
    t3_matches: bool  # nabla_tilde equals its displayed closed form


def build_hom_structure(gd):
    t = t_tensor(gd)
    nabla = levi_civita_gd(gd)
    nt = t - nabla
    return HomStructure(gd, t, nabla, nt, curvature_gd(gd),
                        nt == nabla_tilde_closed(gd))


@dataclass(frozen=True)
class AsReport:
    """Per-axiom verdicts with the violating index tuples."""

    axioms: dict

    @property
    def all_pass(self):
        return all(ok for ok, _ in self.axioms.values())

    def passed(self, name):
        return self.axioms[name][0]

    def witnesses(self, name):
        return self.axioms[name][1]


def _sparse(data, slots):
    """{index tuple: {p: coeff}} for the nonzero output vectors of a dense
    Tensor3 (slots=2) or Tensor4 (slots=3) data table."""
    out = {}
    for idx in product(range(len(data)), repeat=slots):
        vec = data
        for i in idx:
            vec = vec[i]
        comps = {p: c for p, c in enumerate(vec) if c}
        if comps:
            out[idx] = comps
    return out


def _skew_witnesses(op, form, n):
    """(x, j, k) with <C_x e_j, e_k> + <e_j, C_x e_k> != 0, in order."""
    rows = [{q: b for q, b in enumerate(row) if b} for row in form.matrix]
    bad = []
    for x in range(n):
        s = {}
        for j in range(n):
            for p, c in op.get((x, j), {}).items():
                for k, b in rows[p].items():
                    # c b is a term of <C_x e_j, e_k> and, as the form is
                    # symmetric, of <e_k, C_x e_j>
                    s[j, k] = s.get((j, k), 0) + c * b
                    s[k, j] = s.get((k, j), 0) + c * b
        bad.extend((x, j, k) for j, k in sorted(s) if s[j, k])
    return bad


def _act_witnesses(op, tensor, n, slots):
    """Index tuples (x, *t), in order, where the derivation action of an
    operator field C on a tensor S does not vanish:

      (C.S)(x; t) = C_x S(t) - sum_s S(t with C_x e_{t_s} in slot s).

    op and tensor are ``_sparse`` copies, op of a Tensor3 (C_x e_q)."""
    bad = []
    empty = {}
    for x in range(n):
        cx = [op.get((x, q), empty) for q in range(n)]
        if not any(cx):
            continue
        for t in product(range(n), repeat=slots):
            out = {}
            for p, c in tensor.get(t, empty).items():
                for r, v in cx[p].items():
                    out[r] = out.get(r, 0) + c * v
            for s in range(slots):
                for q, c in cx[t[s]].items():
                    for r, v in tensor.get(t[:s] + (q,) + t[s + 1:], empty).items():
                        out[r] = out.get(r, 0) - c * v
            if any(out.values()):
                bad.append((x,) + t)
    return bad


def verify_as(gd, hom=None):
    """Exact sweep of the Ambrose-Singer conditions (i)-(iv) and their
    primed forms over all basis tuples.

    (i)/(i') ask T_x and nabla~_x to be metric-skew.  The others use the
    derivation action of an operator field C on a tensor S,
    (C.S)(x; y, ..) = C_x S(y, ..) - S(C_x y, ..) - ... - S(y, .., C_x w):
    (ii) is nabla.R = T.R, i.e. (nabla - T).R = 0, (ii') is nabla~.R = 0,
    (iii) is (nabla - T).T = 0 and (iii') is nabla~.T = 0; (iv) asks
    T_x x = 0.  Witnesses are the failing index tuples in loop order.
    """
    hom = hom or build_hom_structure(gd)
    n = gd.L.dim
    t, r = _sparse(hom.T.data, 2), _sparse(hom.R.data, 3)
    nt = _sparse(hom.nabla_tilde.data, 2)
    gap = _sparse((hom.nabla - hom.T).data, 2)
    found = {
        "i": _skew_witnesses(t, gd.metric, n),
        "i_prime": _skew_witnesses(nt, gd.metric, n),
        "ii": _act_witnesses(gap, r, n, 3),
        "ii_prime": _act_witnesses(nt, r, n, 3),
        "iii": _act_witnesses(gap, t, n, 2),
        "iii_prime": _act_witnesses(nt, t, n, 2),
    }
    axioms = {name: (not bad, tuple(bad)) for name, bad in found.items()}

    bad = []
    for i in range(n):
        if not linalg.is_zero_vector(hom.T.entry(i, i)):
            bad.append((i, i))
        for j in range(i + 1, n):
            if not linalg.is_zero_vector(
                    linalg.vec_add(hom.T.entry(i, j), hom.T.entry(j, i))):
                bad.append((i, j))
    axioms["iv"] = (not bad, tuple(bad))
    return AsReport(axioms)
