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
* ``rank``, ``trace``, ``commutator``, ``mat_sub``, ``vec_add`` and
  ``vec_sub`` -- dense helpers that only the tests read.

Pytest does not collect this file; the tests import it.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from adinvar import BilinearForm, core, linalg
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
