"""The naturally reductive homogeneous structure tensor on d + h* and the
exact verification of the Ambrose-Singer conditions at the algebra level.

For left-invariant tensors the covariant statements reduce to identities on
basis tuples, checked from the stored entries; all checks are exact.  The routes
to T and to nabla~ sum by block over the bracket tables, the operator
columns and ell^-1 beta (``gd_tensor``), or, through lambda, over the
bracket of the double extension and the nonzero entries of the lambda
columns.  As in ``geometry``, they add ints and hand them to
``Tensor.from_ints``, and ``verify_as`` reads the int views of T, nabla~
and R.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .core import Check, _integral, _leibniz, _rows, _skew, all_pass
from .geometry import (Tensor, add_scaled, beta_star, curvature_gd, gd_tensor,
                       levi_civita_gd)


class HomStructureError(Exception):
    pass


def t_tensor(gd):
    """T_x y = ([x1,x2] + pi(h1)x2 - pi(h2)x1)/2 + [h1,h2]* on basis pairs.

    Computed both from this closed form and through lambda as half the
    m-projection of the bracket upstairs; the two must agree exactly.
    """
    direct = gd_tensor(gd, gd.L.bracket_data, 1, -1, 2)
    if direct != _t_via_lambda(gd):
        raise HomStructureError("the two homogeneous structure formulas disagree")
    return direct


def _t_via_lambda(gd):
    nh, nd, n = gd.nh, gd.nd, gd.L.dim
    # lambda (lam[i] = lambda(e_i)), ell^-1 (symmetric, so its rows are its
    # columns) and the bracket upstairs are scaled to integers by one s; w
    # is s^3 times the bracket of the lambda images, and each part of it
    # gains one more factor s (ell^-1 on the h* part, s itself on the d
    # part), so every sum is 2 s^4 times T
    lam, ellinv, br, s = _integral(gd.lambda_columns, _rows(gd.ell_inv),
                                   gd.double.g.bracket_data)
    empty = {}
    data = {}
    for i, j in product(range(n), repeat=2):
        w = {}
        for p, x in lam[i].items():
            for q, y in lam[j].items():
                add_scaled(w, x * y, br.get((p, q), empty))
        # the m-projection of (a, v, phi) is (ell^-1 phi, v, phi); pulled
        # back by lambda^-1 it is v + (ell^-1 phi in ell-basis coordinates)
        out = {}
        for r, c in w.items():
            if nh <= r < nh + nd:
                out[r - nh] = out.get(r - nh, 0) + c * s
            elif r >= nh + nd:
                add_scaled(out, c, ellinv[r - nh - nd], nd)
        data[i, j] = out
    return Tensor.from_ints(n, 2, data, 2 * s ** 4)


def nabla_tilde_closed(gd):
    """Eq. form of T - nabla: x1+h1*, x2+h2* -> pi(h1)x2 + [h1,h2]*."""
    return gd_tensor(gd, {}, 2, 0, 2)


def nilmanifold_t_formula(gd):
    """The nilmanifold display of T; coincides with t_tensor iff d is abelian.

    T = (pi(k1)v2 - pi(k2)v1)/2 + ell^-1 beta(v1, v2)/2 + [k1,k2]*.
    """
    nd = gd.nd
    dd = {ab: {nd + k: x for k, x in v.items()} for ab, v in beta_star(gd).items()}
    return gd_tensor(gd, dd, 1, -1, 2)


@dataclass(frozen=True)
class HomStructure:
    T: Tensor
    nabla: Tensor
    R: Tensor

    @cached_property
    def nabla_tilde(self):
        """nabla~ = T - nabla, derived from the stored tensors."""
        return self.T - self.nabla


def build_hom_structure(gd):
    return HomStructure(t_tensor(gd), levi_civita_gd(gd), curvature_gd(gd))


@dataclass(frozen=True)
class AsReport:
    """One Check per axiom, witnessed by the tuple of its violating index
    tuples."""

    checks: tuple
    all_pass = all_pass


def verify_as(gd, hom=None):
    """Exact check of the Ambrose-Singer conditions (i)-(iv) and their
    primed forms on all basis tuples.

    (i)/(i') ask T_x and nabla~_x to be metric-skew.  The others use the
    derivation action of an operator field C on a tensor S,
    (C.S)(x; y, ..) = C_x S(y, ..) - S(C_x y, ..) - ... - S(y, .., C_x w):
    (ii) is nabla.R = T.R, i.e. (nabla - T).R = 0, (ii') is nabla~.R = 0,
    (iii) is (nabla - T).T = 0 and (iii') is nabla~.T = 0; (iv) asks
    T_x x = 0.  As nabla~ = T - nabla, the actions in (ii) and (ii') are
    negatives of each other and vanish on the same tuples, and so are those
    in (iii) and (iii'); each pair is evaluated once, scattered from the
    stored entries of R and T and, as both are antisymmetric, on t_0 < t_1.
    Witnesses are the failing index tuples in sorted order, 0-based.
    """
    hom = hom or build_hom_structure(gd)
    n, rows = gd.L.dim, gd.metric.int_rows[0]
    (t, _), (nt, _) = hom.T.int_data, hom.nabla_tilde.int_data
    on_r = tuple(_leibniz(nt, hom.R.int_data[0]))
    on_t = tuple(_leibniz(nt, t))
    found = {
        "i": tuple(_skew(t, rows)),
        "i_prime": tuple(_skew(nt, rows)),
        "ii": on_r, "ii_prime": on_r, "iii": on_t, "iii_prime": on_t,
    }
    # T_x x = 0 for all x iff T(e_i, e_j) = -T(e_j, e_i) for i <= j; the
    # view holds no zeros, so this is equality of the sparse values
    empty = {}
    found["iv"] = tuple((i, j) for i in range(n) for j in range(i, n)
                        if t.get((i, j), empty)
                        != {p: -c for p, c in t.get((j, i), empty).items()})
    return AsReport(tuple(Check(name, not bad, bad) for name, bad in found.items()))
