"""Dense oracles: the loops that the package's kernels replaced, kept
literal so that the tests can compare the kernels with them.

* ``signature_dense(g)`` -- the signature of a symmetric rational matrix
  by a symmetric fraction-free elimination on dense int rows, pivoting on
  the first nonzero diagonal entry (``linalg._signature`` pivots sparse
  rows on the shortest).
* ``check_jacobi_triples(alg)`` -- ``core.check_jacobi`` as a sweep over
  every basis triple i < j < k and its three cyclic terms (the kernel
  scatters from the stored brackets).
* ``derivation_witnesses(op, tensor)`` -- ``core._leibniz`` on rational
  data, each input scaled to ints by its own ``_integral`` call.
* ``ricci``, ``ricci_operator``, ``plane_discriminant``, ``sectional``
  and ``charpoly`` -- the geometry readers and Faddeev-LeVerrier in
  ``Fraction`` arithmetic on ``Tensor.data`` and the form's rational
  rows (the package reads the int views of R and of the form, and runs
  Faddeev-LeVerrier on the int matrix).
* ``assemble_double`` and ``assemble_gd`` -- g, Q and Q_minus of the
  double extension and L and the metric of d + h*, assembled in
  ``Fraction`` arithmetic from the rational tables and matrices and handed
  to the rational constructors (the package writes them from int views
  on one scale and hands them to ``from_ints``).
* ``rank``, ``trace``, ``commutator``, ``mat_sub``, ``vec_add`` and
  ``vec_sub`` -- dense helpers that only the tests read.

Pytest does not collect this file; the tests import it.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from adinvar import BilinearForm, LieAlgebra, core, linalg
from adinvar.extension import _joined_names
from adinvar.geometry import GeometryError


def derivation_witnesses(op, tensor):
    return core._leibniz(core._integral(op)[0], core._integral(tensor)[0])


def rank(a):
    return len(linalg.rref(a)[0])


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def commutator(a, b):
    return mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def vec_add(u, v):
    return [x + y for x, y in zip(u, v)]


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def signature_dense(g):
    """(n_minus, n_plus, n_zero) of a symmetric rational matrix.

    g is scaled to integers; a pivot on a nonzero diagonal entry p
    replaces the rest w of the block by |p| w_ij - sign(p) w_ik w_kj, a
    block with a zero diagonal first adds row and column j to row and
    column k for the first w_kj != 0 in row-major order, and each block
    is divided by the gcd of its entries; a zero block is the radical.
    """
    n = len(g)
    den = lcm(*(x.denominator for row in g for x in row))
    w = [[x.numerator * (den // x.denominator) for x in row] for row in g]
    n_minus = n_plus = 0
    while d := gcd(*(x for row in w for x in row)):
        w = [[x // d for x in row] for row in w]
        k = next((i for i, row in enumerate(w) if row[i]), None)
        if k is None:
            k, j = next((i, j) for i, row in enumerate(w) for j, x in enumerate(row) if x)
            w[k] = [x + y for x, y in zip(w[k], w[j])]
            for row in w:
                row[k] += row[j]
        wk = w.pop(k)
        p = wk.pop(k)
        n_plus, n_minus = n_plus + (p > 0), n_minus + (p < 0)
        s, ap = (1 if p > 0 else -1), abs(p)
        for i, row in enumerate(w):
            f = s * row.pop(k)
            w[i] = [ap * x - f * y for x, y in zip(row, wk)]
    return (n_minus, n_plus, n - n_minus - n_plus)


def check_jacobi_triples(alg):
    """Every (i, j, k, sum) with i < j < k and a nonzero cyclic sum
    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j], each term
    read off the table scaled by L to integers (sum_p c_ab^p [e_p, e_c]),
    and the sum divided by L^2."""
    table, scale = alg.int_bracket_data
    den = scale * scale
    empty = {}
    violations = []
    for i, j, k in combinations(range(alg.dim), 3):
        s = [0] * alg.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for p, x in table.get((a, b), empty).items():
                for r, y in table.get((p, c), empty).items():
                    s[r] += x * y
        if any(s):
            violations.append((i, j, k, [Fraction(x, den) for x in s]))
    return violations


def ricci(r_tensor, form):
    if not form.nondegenerate:
        raise GeometryError("metric is degenerate")
    m = linalg.zeros(r_tensor.dim, r_tensor.dim)
    for (a, i, j), comps in r_tensor.data.items():
        m[i][j] += comps.get(a, linalg.Q0)
    return BilinearForm(tuple(tuple(row) for row in m))


def ricci_operator(r_tensor, form):
    return linalg.mat_mul(linalg.inverse(form.rows()), ricci(r_tensor, form).rows())


def plane_discriminant(form, x, y):
    return form.apply(x, x) * form.apply(y, y) - form.apply(x, y) ** 2


def sectional(r_tensor, form, x, y):
    qp = plane_discriminant(form, x, y)
    if qp == 0:
        raise GeometryError("degenerate plane")
    return form.apply(r_tensor.apply(x, y, y), x) / qp


def charpoly(a):
    """Faddeev-LeVerrier on the rational matrix: c_k = -trace(a M_{k-1}) / k."""
    n = len(a)
    coeffs = [linalg.Q1]
    m = linalg.identity(n)
    for k in range(1, n + 1):
        am = linalg.mat_mul(a, m)
        ck = -trace(am) / k
        coeffs.append(ck)
        m = am
        for i in range(n):
            m[i][i] += ck
    return coeffs


def block_sum(a, b):
    """The block-diagonal matrix with blocks a and b, as a tuple of rows."""
    return (tuple(tuple(row) + (linalg.Q0,) * len(b) for row in a)
            + tuple((linalg.Q0,) * len(a) + tuple(row) for row in b))


def d_pairs(rep, d0, h0, mix, scale):
    """[e_a, e_b] for a < b in an algebra where d starts at d0 and h* at h0:
    the bracket of d plus the nonzero entries of M beta(e_a, e_b), for mix
    the int rows {j: {k: x}} of scale M, one ``Fraction`` per entry."""
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


def assemble_double(rep):
    """(g, Q, Q_minus) of h + d + h*: the table from the rational tables of
    h and d, pi and the coadjoint action, and +-<,>_h + <,>_d + the pairing
    as dense matrices."""
    nh, nd = rep.h.dim, rep.d.dim
    hs, n = nh + nd, 2 * nh + nd
    table = dict(rep.h.table)
    for (i, b), col in rep.op_data.items():
        table[i, nh + b] = {nh + p: x for p, x in col.items()}
    for (i, m), comps in rep.h.bracket_data.items():
        for k, c in comps.items():
            table.setdefault((i, hs + k), {})[hs + m] = -c
    table.update(d_pairs(rep, nh, hs, {k: {k: 1} for k in range(nh)}, 1))
    g = LieAlgebra(n, _joined_names(rep.h.names + rep.d.names, rep.h.names), table)
    forms = []
    for h_rows in (rep.h_form.matrix, [[-x for x in row] for row in rep.h_form.matrix]):
        m = [list(r) for r in block_sum(block_sum(h_rows, rep.d_form.matrix),
                                        linalg.zeros(nh, nh))]
        for i in range(nh):
            m[i][hs + i] = m[hs + i][i] = linalg.Q1
        forms.append(BilinearForm(m))
    return g, *forms


def assemble_gd(rep):
    """(L, metric) of d + h*: beta* through the rational inverse of <,>_h,
    and the block sum of the two rational matrices."""
    w = rep.h_form.rows()
    table = d_pairs(rep, 0, rep.d.dim, *core._integral(core._rows(linalg.inverse(w))))
    alg = LieAlgebra(rep.d.dim + rep.h.dim, _joined_names(rep.d.names, rep.h.names), table)
    return alg, BilinearForm(block_sum(rep.d_form.matrix, w))
