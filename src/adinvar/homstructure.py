"""The naturally reductive homogeneous structure tensor on d + h* and the
exact verification of the Ambrose-Singer conditions at the algebra level.

For left-invariant tensors the covariant statements reduce to sweeps of the
operator combination over basis tuples; all checks are exact.
"""

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .core import derivation_witnesses, skew_witnesses
from .geometry import Tensor, curvature_gd, levi_civita_gd
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

    direct = Tensor.from_function(n, 2, t_direct)
    via_lambda = _t_via_lambda(gd)
    if direct != via_lambda:
        raise HomStructureError("the two homogeneous structure formulas disagree")
    return direct


def _t_via_lambda(gd):
    from .extension import lambda_matrix
    lam_cols = linalg.transpose(lambda_matrix(gd))  # lam_cols[i] = lambda(e_i)
    dbl = gd.double
    winv = gd.ell_inv
    n = gd.L.dim

    def t(i, j):
        w = dbl.g.bracket(lam_cols[i], lam_cols[j])
        _, dvec, dual = dbl.split(w)
        # m-projection of (a, v, phi) is (ell^-1 phi, v, phi); pull back by
        # lambda^-1 to get v + (ell^-1 phi in ell-basis coordinates)
        hc = linalg.mat_vec(winv, dual)
        return linalg.vec_scale(Q1 / 2, list(dvec) + list(hc))

    return Tensor.from_function(n, 2, t)


def nabla_tilde_closed(gd):
    """Eq. form of T - nabla: x1+h1*, x2+h2* -> pi(h1)x2 + [h1,h2]*."""
    n = gd.L.dim
    basis = linalg.identity(n)

    def nt(i, j):
        x1, h1 = gd.split(basis[i])
        x2, h2 = gd.split(basis[j])
        out = gd.embed_d(linalg.mat_vec(gd.rep.pi_of(h1), x2))
        return linalg.vec_add(out, gd.embed_h(gd.rep.h.bracket(h1, h2)))

    return Tensor.from_function(n, 2, nt)


def nilmanifold_t_formula(gd):
    """The nilmanifold display of T; coincides with t_tensor iff d is abelian."""
    n = gd.L.dim
    basis = linalg.identity(n)
    winv = gd.ell_inv

    def t(i, j):
        v1, k1 = gd.split(basis[i])
        v2, k2 = gd.split(basis[j])
        out = linalg.vec_scale(Q1 / 2, gd.embed_d(linalg.vec_sub(
            linalg.mat_vec(gd.rep.pi_of(k1), v2),
            linalg.mat_vec(gd.rep.pi_of(k2), v1))))
        out = linalg.vec_add(out, linalg.vec_scale(Q1 / 2, gd.embed_h(
            linalg.mat_vec(winv, gd.rep.beta(v1, v2)))))
        return linalg.vec_add(out, gd.embed_h(gd.rep.h.bracket(k1, k2)))

    return Tensor.from_function(n, 2, t)


@dataclass(frozen=True)
class HomStructure:
    gd: object
    T: Tensor
    nabla: Tensor
    R: Tensor
    t3_matches: bool  # nabla_tilde equals its displayed closed form

    @cached_property
    def nabla_tilde(self):
        """nabla~ = T - nabla, derived from the stored tensors."""
        return self.T - self.nabla


def build_hom_structure(gd):
    t = t_tensor(gd)
    nabla = levi_civita_gd(gd)
    return HomStructure(gd, t, nabla, curvature_gd(gd),
                        t - nabla == nabla_tilde_closed(gd))


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


def verify_as(gd, hom=None):
    """Exact sweep of the Ambrose-Singer conditions (i)-(iv) and their
    primed forms over all basis tuples.

    (i)/(i') ask T_x and nabla~_x to be metric-skew.  The others use the
    derivation action of an operator field C on a tensor S,
    (C.S)(x; y, ..) = C_x S(y, ..) - S(C_x y, ..) - ... - S(y, .., C_x w):
    (ii) is nabla.R = T.R, i.e. (nabla - T).R = 0, (ii') is nabla~.R = 0,
    (iii) is (nabla - T).T = 0 and (iii') is nabla~.T = 0; (iv) asks
    T_x x = 0.  As nabla~ = T - nabla, the actions in (ii) and (ii') are
    negatives of each other and vanish on the same tuples, and so are those
    in (iii) and (iii'); each pair is evaluated once.  Witnesses are the
    failing index tuples in loop order.
    """
    hom = hom or build_hom_structure(gd)
    n = gd.L.dim
    t, nt = hom.T.data, hom.nabla_tilde.data
    on_r = tuple(derivation_witnesses(nt, hom.R.data, n, 3))
    on_t = tuple(derivation_witnesses(nt, t, n, 2))
    found = {
        "i": tuple(skew_witnesses(t, gd.metric, n)),
        "i_prime": tuple(skew_witnesses(nt, gd.metric, n)),
        "ii": on_r, "ii_prime": on_r, "iii": on_t, "iii_prime": on_t,
    }
    # T_x x = 0 for all x iff T(e_i, e_j) + T(e_j, e_i) = 0 for i <= j
    found["iv"] = tuple((i, j) for i in range(n) for j in range(i, n)
                        if any(a + b for a, b in zip(hom.T.entry(i, j),
                                                     hom.T.entry(j, i))))
    return AsReport({name: (not bad, bad) for name, bad in found.items()})
