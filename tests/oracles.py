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
  data, each input scaled to ints by its own ``View.of_rational`` call.
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
* ``rank``, ``trace``, ``commutator``, ``mat_sub``, ``vec_add``,
  ``vec_sub``, ``zeros``, ``mat_add``, ``mat_scale`` and ``vec_scale`` --
  dense helpers that only the tests read.
* ``operator_data(mats)`` -- the operator field x -> mats[x] in the
  sparse tensor format, which ``Representation.int_ops`` writes as a view,
  and ``combination(mats, coeffs, n)``, sum_i coeffs[i] mats[i].
* ``skew_witnesses(op, form)``, ``coordinates(basis, vectors)`` and
  ``signature_of(g)`` -- the rational entries of ``core._skew``, of a
  rank-revealing ``linalg.rref`` of [basis | vectors] and of
  ``linalg._signature``, which the package stopped reading when its
  routes moved to int views (the split of ``g = h + m``, Kostant's form
  and the Gram matrices read ``linalg._in_basis`` and the int views).
* ``view_of(m)`` and ``dense(view, n)`` -- a dense rational matrix as the
  ``core.View`` of its rows, and back, for the tests that read
  ``GdAlgebra.ell``, ``ell_inv`` and the ``lambda`` columns as matrices.
* the loops that the kernels and routes replaced, one home for all of
  them: ``_skew_loop``, ``_derivation_loop``, ``_jacobi_loop``,
  ``_ad_invariant_loop``, ``_is_subalgebra_oracle``, ``_is_ideal_oracle``
  and ``_center_oracle`` (with ``_apply_dense`` and ``_dense``) for
  ``core``; ``_validate_loops``, ``_reductive_split_oracle``,
  ``_kostant_form_oracle`` and ``_canonical_connection_oracle`` (with
  ``_combine`` and ``_decompose``) for ``extension``; ``_verify_as_oracle``
  for ``homstructure``.

Pytest does not collect this file; the tests import it.
"""

from fractions import Fraction, Fraction as F
from itertools import combinations, product
from math import gcd, lcm

from adinvar import (BilinearForm, ExtensionError, KostantError, LieAlgebra, Subspace,
                     ad_invariant, check_jacobi, core, linalg, orthogonal_complement)
from adinvar.extension import KostantResult, SplitResult, _joined_names
from adinvar.geometry import GeometryError, Tensor


def combination(mats, coeffs, n):
    """sum_i coeffs[i] mats[i] as an n x n matrix."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for c, m in zip(coeffs, mats):
        for orow, mrow in zip(out, m):
            for q, x in enumerate(mrow):
                orow[q] += c * x
    return out


def operator_data(mats):
    """The operator field x -> mats[x] in the sparse tensor format."""
    return {(x, q): {p: m[p][q] for p in range(len(m)) if m[p][q]}
            for x, m in enumerate(mats) for q in range(len(m))
            if any(row[q] for row in m)}


def skew_witnesses(op, form):
    """(x, j, k), in order, with <C_x e_j, e_k> + <e_j, C_x e_k> != 0."""
    return core._skew(core.View.of_rational(op).data, form.int_rows.data)


def coordinates(basis, vectors):
    """The coordinates of each vector in basis, or None if one lies outside
    its span; ``LinAlgError`` if the basis is dependent.  One ``rref`` of
    the columns [basis | vectors]: the basis is independent iff its k
    columns carry pivots, the vectors lie in its span iff no other column
    does, and then the rows hold their (unique) coordinates."""
    k, cols = len(basis), [*basis, *vectors]
    rows, pivots = linalg.rref(linalg.transpose(cols))
    if pivots[:k] != list(range(k)):
        raise linalg.LinAlgError("basis is not linearly independent")
    if len(pivots) > k:
        return None
    return [[row[col] for row in rows] for col in range(k, len(cols))]


def signature_of(g):
    """(n_minus, n_plus, n_zero) of a symmetric rational matrix: g scaled
    to integers once, then ``linalg._signature``."""
    den = lcm(*(x.denominator for row in g for x in row))
    return linalg._signature({i: {j: x.numerator * (den // x.denominator)
                                  for j, x in enumerate(row) if x}
                              for i, row in enumerate(g)}, len(g))


def derivation_witnesses(op, tensor):
    return core._leibniz(core.View.of_rational(op).data, core.View.of_rational(tensor).data)


def view_of(m):
    """The ``core.View`` of the sparse rows {p: {q: x}} of a dense rational
    matrix."""
    return core.View.of_rational({p: dict(enumerate(row)) for p, row in enumerate(m)})


def dense(view, n):
    """The n x n rational matrix of a view of sparse rows {p: {q: x}}."""
    rows = view.rational()
    return [[rows.get(p, {}).get(q, Fraction(0)) for q in range(n)] for p in range(n)]


def zeros(m, n):
    return [[linalg.Q0] * n for _ in range(m)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def vec_scale(c, v):
    return [c * x for x in v]


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
    m = zeros(r_tensor.dim, r_tensor.dim)
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
    for (i, b), col in rep.int_ops.rational().items():
        table[i, nh + b] = {nh + p: x for p, x in col.items()}
    for (i, m), comps in rep.h.bracket_data.items():
        for k, c in comps.items():
            table.setdefault((i, hs + k), {})[hs + m] = -c
    table.update(d_pairs(rep, nh, hs, {k: {k: 1} for k in range(nh)}, 1))
    g = LieAlgebra(n, _joined_names(rep.h.names + rep.d.names, rep.h.names), table)
    forms = []
    for h_rows in (rep.h_form.matrix, [[-x for x in row] for row in rep.h_form.matrix]):
        m = [list(r) for r in block_sum(block_sum(h_rows, rep.d_form.matrix),
                                        zeros(nh, nh))]
        for i in range(nh):
            m[i][hs + i] = m[hs + i][i] = linalg.Q1
        forms.append(BilinearForm(m))
    return g, *forms


def assemble_gd(rep):
    """(L, metric) of d + h*: beta* through the rational inverse of <,>_h,
    and the block sum of the two rational matrices."""
    w = rep.h_form.rows()
    table = d_pairs(rep, 0, rep.d.dim, *view_of(linalg.inverse(w)))
    alg = LieAlgebra(rep.d.dim + rep.h.dim, _joined_names(rep.d.names, rep.h.names), table)
    return alg, BilinearForm(block_sum(rep.d_form.matrix, w))


# ---------------------------------------------------------------------------
# the loops and dense routes that the kernels and solvers of core,
# extension and homstructure replaced
# ---------------------------------------------------------------------------

def _is_subalgebra_oracle(alg, sub):
    """One Subspace.contains per bracket."""
    base = sub.basis()
    return all(sub.contains(alg.bracket(u, v))
               for a, u in enumerate(base) for v in base[a + 1:])


def _is_ideal_oracle(alg, sub):
    basis = linalg.identity(alg.dim)
    return all(sub.contains(alg.bracket(b, u)) for b in basis for u in sub.basis())


def _apply_dense(form, x, y):
    return linalg.dot(x, linalg.mat_vec(form.rows(), y))


def _ad_invariant_loop(alg, form):
    """B([e_i,e_j],e_k) + B(e_j,[e_i,e_k]) == 0 on every basis triple."""
    basis = linalg.identity(alg.dim)
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                lhs = _apply_dense(form, alg.basis_bracket(i, j), basis[k])
                rhs = _apply_dense(form, basis[j], alg.basis_bracket(i, k))
                if lhs + rhs != 0:
                    return False
    return True


def _dense(data, idx, n):
    """The value of sparse tensor data on a basis tuple, as a dense vector."""
    return [data.get(idx, {}).get(p, F(0)) for p in range(n)]


def _skew_loop(op, form, n, nx):
    """Every (x, j, k) with <C_x e_j, e_k> + <e_j, C_x e_k> != 0."""
    basis = linalg.identity(n)
    return [(x, j, k) for x in range(nx) for j in range(n) for k in range(n)
            if _apply_dense(form, _dense(op, (x, j), n), basis[k])
            + _apply_dense(form, basis[j], _dense(op, (x, k), n)) != 0]


def _derivation_loop(op, tensor, n, slots, nx):
    """Every (x, *t) with C_x S(t) - sum_s S(.., C_x e_{t_s}, ..) != 0, the
    operator applied as a dense matrix and S expanded slot by slot."""
    bad = []
    for x in range(nx):
        cx = linalg.transpose([_dense(op, (x, q), n) for q in range(n)])
        for t in product(range(n), repeat=slots):
            out = linalg.mat_vec(cx, _dense(tensor, t, n))
            for s in range(slots):
                moved = linalg.mat_vec(cx, linalg.identity(n)[t[s]])
                for q, c in enumerate(moved):
                    term = _dense(tensor, t[:s] + (q,) + t[s + 1:], n)
                    out = vec_sub(out, vec_scale(c, term))
            if not linalg.is_zero_vector(out):
                bad.append((x,) + t)
    return bad


def _jacobi_loop(alg):
    """Every (i, j, k, sum) with i < j < k, each cyclic term formed as
    bracket(basis_bracket(..), e_k) over all index pairs."""
    violations = []
    basis = linalg.identity(alg.dim)
    for i, j, k in combinations(range(alg.dim), 3):
        s = alg.bracket(alg.basis_bracket(i, j), basis[k])
        s = vec_add(s, alg.bracket(alg.basis_bracket(j, k), basis[i]))
        s = vec_add(s, alg.bracket(alg.basis_bracket(k, i), basis[j]))
        if not linalg.is_zero_vector(s):
            violations.append((i, j, k, s))
    return violations


def _center_oracle(alg):
    """The nullspace of the dense ad(e_i) matrices stacked."""
    rows = [row for i in range(alg.dim) for row in alg.ad(i)]
    if not rows:
        return Subspace.full(alg.dim)
    return Subspace.span(linalg.nullspace(rows), alg.dim)


def _validate_loops(rep):
    """validate with the metric-skew and Leibniz conditions on pi written as
    the literal matrix and bracket loops."""
    bad = []
    for name, check in (("d_not_lie_algebra", check_jacobi(rep.d)),
                        ("h_not_lie_algebra", check_jacobi(rep.h))):
        if check:
            bad.append(name)
    if not rep.d_form.nondegenerate:
        bad.append("d_metric_degenerate")
    if not ad_invariant(rep.d, rep.d_form):
        bad.append("d_metric_not_ad_invariant")
    if not ad_invariant(rep.h, rep.h_form):
        bad.append("h_form_not_ad_invariant")
    n = rep.d.dim
    g = rep.d_form.rows()
    basis = linalg.identity(n)
    for i in range(rep.h.dim):
        m = rep.mat(i)
        gm = linalg.mat_mul(g, m)
        if any(gm[p][q] + gm[q][p] != 0 for p in range(n) for q in range(p, n)):
            bad.append(f"pi({rep.h.names[i]})_not_skew")
        for a, b in combinations(range(n), 2):
            lhs = linalg.mat_vec(m, rep.d.basis_bracket(a, b))
            rhs = vec_add(
                rep.d.bracket(linalg.mat_vec(m, basis[a]), basis[b]),
                rep.d.bracket(basis[a], linalg.mat_vec(m, basis[b])))
            if lhs != rhs:
                bad.append(f"pi({rep.h.names[i]})_not_derivation")
                break
    for i, j in combinations(range(rep.h.dim), 2):
        if rep.pi_of(rep.h.basis_bracket(i, j)) != commutator(rep.mat(i), rep.mat(j)):
            bad.append(f"pi_not_homomorphism({rep.h.names[i]},{rep.h.names[j]})")
    return bad


def _decompose(h_sub, m_sub, v):
    """Coefficients of v in the stacked (h | m) basis, or None."""
    basis = h_sub.basis() + m_sub.basis()
    return linalg.solve(linalg.transpose(basis), list(v))


def _combine(basis, coeffs, ambient_dim):
    out = linalg.zero_vector(ambient_dim)
    for c, b in zip(coeffs, basis):
        out = vec_add(out, vec_scale(c, b))
    return out


def _reductive_split_oracle(g_alg, form, h_sub):
    """reductive_split with the naturally reductive condition written as the
    literal loop that decomposes [x, y] and [x, z] for every (x, y, z)."""
    gram = [[form.apply(u, v) for v in h_sub.basis()] for u in h_sub.basis()]
    if signature_of(gram)[2] != 0:
        raise ExtensionError("form is degenerate on h")
    m = orthogonal_complement(h_sub, form)
    checks = [("direct_sum", h_sub.dim + m.dim == g_alg.dim
               and h_sub.add(m).dim == g_alg.dim, None)]
    ok, witness = True, None
    for u in h_sub.basis():
        for v in m.basis():
            if not m.contains(g_alg.bracket(u, v)):
                ok, witness = False, "[h,m] escapes m"
                break
    checks.append(("bracket_h_m_in_m", ok, witness))
    mb = m.basis()
    ok, witness = True, None
    for x in mb:
        for y in mb:
            dxy = _decompose(h_sub, m, g_alg.bracket(x, y))
            proj_xy = None if dxy is None else _combine(
                mb, dxy[h_sub.dim:], g_alg.dim)
            for z in mb:
                dxz = _decompose(h_sub, m, g_alg.bracket(x, z))
                if dxy is None or dxz is None:
                    ok, witness = False, "bracket outside h + m"
                    break
                proj_xz = _combine(mb, dxz[h_sub.dim:], g_alg.dim)
                if form.apply(proj_xy, z) + form.apply(y, proj_xz) != 0:
                    ok, witness = False, "naturally reductive condition fails"
                    break
            if not ok:
                break
        if not ok:
            break
    checks.append(("naturally_reductive", ok, witness))
    gram_m = BilinearForm(tuple(tuple(form.apply(u, v) for v in mb) for u in mb))
    return SplitResult(m, gram_m, tuple(checks))


def _kostant_form_oracle(g_alg, h_sub, m_sub, inner):
    """kostant_form with each bracket decomposed by its own solve."""
    if h_sub.dim + m_sub.dim != g_alg.dim or h_sub.add(m_sub).dim != g_alg.dim:
        raise KostantError("g is not the direct sum of h and m")
    mb = m_sub.basis()
    for u in h_sub.basis():
        for v in mb:
            if not m_sub.contains(g_alg.bracket(u, v)):
                raise KostantError("[h, m] is not contained in m")

    pairs = list(combinations(range(m_sub.dim), 2))
    s_vectors = {}
    for a, b in pairs:
        w = g_alg.bracket(mb[a], mb[b])
        coeffs = _decompose(h_sub, m_sub, w)
        if coeffs is None:
            raise KostantError("bracket escapes h + m")
        s_vectors[(a, b)] = _combine(h_sub.basis(), coeffs[:h_sub.dim],
                                     g_alg.dim)
    hbar = Subspace.span(list(s_vectors.values()), g_alg.dim)
    gbar = m_sub.add(hbar)

    r = hbar.dim
    unknowns = [(p, q) for p in range(r) for q in range(p, r)]
    uindex = {pq: i for i, pq in enumerate(unknowns)}
    rows, rhs = [], []

    def add_equation(alpha, gamma, value):
        row = [F(0)] * len(unknowns)
        for p in range(r):
            for q in range(r):
                c = alpha[p] * gamma[q]
                if c != 0:
                    row[uindex[(p, q) if p <= q else (q, p)]] += c
        rows.append(row)
        rhs.append(value)

    innerm = inner.rows()

    def inner_pair(coords, idx):
        return sum(coords[p] * innerm[p][idx] for p in range(m_sub.dim))

    for (a, b) in pairs:
        s_ab = s_vectors[(a, b)]
        alpha, = coordinates(hbar.rows, [s_ab])
        for (c, d) in pairs:
            s_cd = s_vectors[(c, d)]
            gamma, = coordinates(hbar.rows, [s_cd])
            w1 = g_alg.bracket(mb[a], s_cd)
            m1 = coordinates(m_sub.rows, [w1])
            if m1 is None:
                raise KostantError("[m, h] escapes m")
            add_equation(alpha, gamma, -inner_pair(m1[0], b))
            w2 = g_alg.bracket(mb[c], s_ab)
            m2 = coordinates(m_sub.rows, [w2])
            if m2 is None:
                raise KostantError("[m, h] escapes m")
            add_equation(alpha, gamma, -inner_pair(m2[0], d))

    if unknowns:
        sol = linalg.solve(rows, rhs) if rows else [F(0)] * len(unknowns)
        if sol is None:
            raise KostantError("not naturally reductive data")
    else:
        sol = []

    qh = zeros(r, r)
    for (p, q), i in uindex.items():
        qh[p][q] = sol[i]
        qh[q][p] = sol[i]
    basis = [list(v) for v in mb] + hbar.basis()
    n = len(basis)
    qm = zeros(n, n)
    for p in range(m_sub.dim):
        for q in range(m_sub.dim):
            qm[p][q] = innerm[p][q]
    for p in range(r):
        for q in range(r):
            qm[m_sub.dim + p][m_sub.dim + q] = qh[p][q]
    form = BilinearForm(tuple(tuple(row) for row in qm))

    checks = []
    bt = linalg.transpose(basis)
    bracket_coords = [[linalg.solve(bt, g_alg.bracket(u, v)) for v in basis]
                      for u in basis]
    closed = all(c is not None for row in bracket_coords for c in row)
    checks.append(("gbar_closed", closed, None))
    ad_ok = closed and not any(skew_witnesses(
        {(iu, iv): {p: x for p, x in enumerate(c) if x}
         for iu, row in enumerate(bracket_coords) for iv, c in enumerate(row)},
        form))
    checks.append(("ad_invariant_on_gbar", ad_ok, None))
    checks.append(("nondegenerate_on_hbar",
                   signature_of(qh)[2] == 0 if r else True, None))
    checks.append(("nondegenerate", form.nondegenerate, None))
    return KostantResult(gbar, tuple(tuple(v) for v in basis), form, hbar,
                         tuple(checks))


def _canonical_connection_oracle(g_alg, h_sub, m_sub):
    """canonical_connection with each bracket decomposed by its own solve."""
    mb = m_sub.basis()
    k = len(mb)
    tor, cur = {}, {}
    for a in range(k):
        for b in range(k):
            w = g_alg.bracket(mb[a], mb[b])
            coeffs = _decompose(h_sub, m_sub, w)
            if coeffs is None:
                raise ExtensionError("bracket escapes h + m")
            h_part = _combine(h_sub.basis(), coeffs[:h_sub.dim], g_alg.dim)
            tor[a, b] = {p: -x for p, x in enumerate(coeffs[h_sub.dim:])}
            for c in range(k):
                z = g_alg.bracket(h_part, mb[c])
                zc = coordinates(m_sub.rows, [z])
                if zc is None:
                    raise ExtensionError("[h, m] escapes m")
                cur[a, b, c] = {p: -x for p, x in enumerate(zc[0])}
    return Tensor(k, 2, tor), Tensor(k, 3, cur)


def _verify_as_oracle(gd, hom):
    """The literal sweep: dense Tensor apply calls on every basis tuple."""
    form = gd.metric
    t, nabla, nt, r = hom.T, hom.nabla, hom.nabla_tilde, hom.R
    n = gd.L.dim
    basis = linalg.identity(n)
    axioms = {}
    for name, op in (("i", t), ("i_prime", nt)):
        bad = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if (form.apply(op.entry(i, j), basis[k])
                            + form.apply(basis[j], op.entry(i, k))) != 0:
                        bad.append((i, j, k))
        axioms[name] = (not bad, tuple(bad))

    def nabla_r(conn, x, y, z, w):
        out = conn.apply(basis[x], r.entry(y, z, w))
        out = vec_sub(out, r.apply(conn.entry(x, y), basis[z], basis[w]))
        out = vec_sub(out, r.apply(basis[y], conn.entry(x, z), basis[w]))
        return vec_sub(out, r.apply(basis[y], basis[z], conn.entry(x, w)))

    bad, bad_p = [], []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for w in range(n):
                    rhs = t.apply(basis[x], r.entry(y, z, w))
                    rhs = vec_sub(rhs, r.apply(basis[y], basis[z],
                                                      t.entry(x, w)))
                    rhs = vec_sub(rhs, r.apply(t.entry(x, y), basis[z],
                                                      basis[w]))
                    rhs = vec_sub(rhs, r.apply(basis[y], t.entry(x, z),
                                                      basis[w]))
                    if nabla_r(nabla, x, y, z, w) != rhs:
                        bad.append((x, y, z, w))
                    if not linalg.is_zero_vector(nabla_r(nt, x, y, z, w)):
                        bad_p.append((x, y, z, w))
    axioms["ii"] = (not bad, tuple(bad))
    axioms["ii_prime"] = (not bad_p, tuple(bad_p))

    def nabla_t(conn, x, y, w):
        out = conn.apply(basis[x], t.entry(y, w))
        out = vec_sub(out, t.apply(conn.entry(x, y), basis[w]))
        return vec_sub(out, t.apply(basis[y], conn.entry(x, w)))

    bad, bad_p = [], []
    for x in range(n):
        for y in range(n):
            for w in range(n):
                rhs = t.apply(basis[x], t.entry(y, w))
                rhs = vec_sub(rhs, t.apply(basis[y], t.entry(x, w)))
                rhs = vec_sub(rhs, t.apply(t.entry(x, y), basis[w]))
                if nabla_t(nabla, x, y, w) != rhs:
                    bad.append((x, y, w))
                if not linalg.is_zero_vector(nabla_t(nt, x, y, w)):
                    bad_p.append((x, y, w))
    axioms["iii"] = (not bad, tuple(bad))
    axioms["iii_prime"] = (not bad_p, tuple(bad_p))

    bad = []
    for i in range(n):
        if not linalg.is_zero_vector(t.entry(i, i)):
            bad.append((i, i))
        for j in range(i + 1, n):
            if not linalg.is_zero_vector(
                    vec_add(t.entry(i, j), t.entry(j, i))):
                bad.append((i, j))
    axioms["iv"] = (not bad, tuple(bad))
    return axioms
