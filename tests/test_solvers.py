"""The matrix solvers against the dense linear systems they were built from.

The oracles below are the former bodies of ``derivation_algebra``,
``skew_derivations``, ``so_aut``, ``intertwiners_skew`` and
``invariant_forms``: each writes every condition as a dense row over all
unknowns and takes one ``linalg.nullspace``.  A nullspace basis in reduced
echelon form is canonical, so the solvers must return equal data: the same
``MatrixLieAlgebra``, the same ``SoAut.pairs`` and the same list of forms,
on every algebra and builder of the corpus, plain and under a dense change
of basis of d, and on generated tori, indefinite abelian and nilpotent
representations.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinvar import (BilinearForm, LieAlgebra, build_gd, corpus_build,
                     corpus_list, derivation_algebra, intertwiners_skew,
                     invariant_forms, linalg, skew_derivations, so_aut)
from adinvar.derivations import MatrixLieAlgebra, SoAut
from adinvar.linalg import Q0
from conftest import (conjugated_rep, indefinite_abelian_reps, mu_mats,
                      nilpotent_reps, torus_reps)


# ---------------------------------------------------------------------------
# the dense oracles

def _unflatten(v, n):
    return [list(v[i * n:(i + 1) * n]) for i in range(n)]


def derivation_rows_oracle(alg):
    n = alg.dim
    rows = []
    for i, j in combinations(range(n), 2):
        bij = alg.basis_bracket(i, j)
        cpj = [alg.basis_bracket(p, j) for p in range(n)]
        cip = [alg.basis_bracket(i, p) for p in range(n)]
        for k in range(n):
            row = [Q0] * (n * n)
            for q in range(n):
                row[k * n + q] += bij[q]
            for p in range(n):
                row[p * n + i] -= cpj[p][k]
                row[p * n + j] -= cip[p][k]
            if any(x != 0 for x in row):
                rows.append(row)
    return rows


def skew_rows_oracle(form, n, offset=0, width=None):
    width = width if width is not None else n * n
    b = form.rows()
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [Q0] * width
            for q in range(n):
                row[offset + q * n + j] += b[i][q]
                row[offset + q * n + i] += b[j][q]
            if any(x != 0 for x in row):
                rows.append(row)
    return rows


def nullspace_matrices_oracle(rows, n):
    sols = linalg.nullspace(rows) if rows else linalg.identity(n * n)
    return [_unflatten(s, n) for s in sols]


def derivation_algebra_oracle(alg):
    mats = nullspace_matrices_oracle(derivation_rows_oracle(alg), alg.dim)
    return MatrixLieAlgebra.from_matrices(mats, alg.dim)


def skew_derivations_oracle(alg, form):
    rows = derivation_rows_oracle(alg) + skew_rows_oracle(form, alg.dim)
    mats = nullspace_matrices_oracle(rows, alg.dim)
    return MatrixLieAlgebra.from_matrices(mats, alg.dim)


def so_aut_oracle(gd):
    nh, nd = gd.nh, gd.nd
    na, width = nh * nh, nh * nh + nd * nd

    def pad(rows, offset):
        out = []
        for r in rows:
            row = [Q0] * width
            for idx, x in enumerate(r):
                row[offset + idx] = x
            out.append(row)
        return out

    rows = pad(skew_rows_oracle(BilinearForm(gd.ell), nh), 0)
    rows += pad(derivation_rows_oracle(gd.rep.d), na)
    rows += pad(skew_rows_oracle(gd.rep.d_form, nd), na)
    for i in range(nh):
        pii = gd.rep.mat(i)
        for p in range(nd):
            for q in range(nd):
                row = [Q0] * width
                for s in range(nd):
                    row[na + p * nd + s] += pii[s][q]
                    row[na + s * nd + q] -= pii[p][s]
                for j in range(nh):
                    row[j * nh + i] -= gd.rep.mats[j][p][q]
                if any(x != 0 for x in row):
                    rows.append(row)
    sols = linalg.nullspace(rows) if rows else linalg.identity(width)
    pairs = []
    for s in sols:
        a = [list(s[i * nh:(i + 1) * nh]) for i in range(nh)]
        b = _unflatten(s[na:], nd)
        pairs.append((tuple(tuple(r) for r in a), tuple(tuple(r) for r in b)))
    return SoAut(nh, nd, tuple(pairs))


def intertwiners_skew_oracle(mats, form):
    mats = [[list(map(linalg.frac, row)) for row in m] for m in mats]
    n = form.dim
    rows = []
    for m in mats:
        for p in range(n):
            for q in range(n):
                row = [Q0] * (n * n)
                for s in range(n):
                    row[p * n + s] += m[s][q]
                    row[s * n + q] -= m[p][s]
                if any(x != 0 for x in row):
                    rows.append(row)
    rows += skew_rows_oracle(form, n)
    return MatrixLieAlgebra.from_matrices(nullspace_matrices_oracle(rows, n), n)


def invariant_forms_oracle(alg):
    n = alg.dim
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    index = {pq: a for a, pq in enumerate(pairs)}

    def entry_coeff(row, p, q, c):
        row[index[(p, q) if p <= q else (q, p)]] += c

    rows = []
    for i in range(n):
        adi = alg.ad(i)
        for j in range(n):
            for k in range(j, n):
                row = [Q0] * len(pairs)
                for p in range(n):
                    if adi[p][j] != 0:
                        entry_coeff(row, p, k, adi[p][j])
                    if adi[p][k] != 0:
                        entry_coeff(row, j, p, adi[p][k])
                if any(x != 0 for x in row):
                    rows.append(row)
    sols = linalg.nullspace(rows) if rows else linalg.identity(len(pairs))
    forms = []
    for s in sols:
        m = linalg.zeros(n, n)
        for (p, q), a in index.items():
            m[p][q] = s[a]
            m[q][p] = s[a]
        forms.append(BilinearForm(tuple(tuple(r) for r in m)))
    return forms


# ---------------------------------------------------------------------------
# the comparisons

def _assert_solvers_match(rep):
    """Every solver on the builder rep: so_aut of d + h*, intertwiners of
    pi on d and of mu on d + h*, and the derivations, skew derivations and
    invariant forms of d, d + h* and the double extension."""
    gd = build_gd(rep)
    assert so_aut(gd) == so_aut_oracle(gd)
    for mats, form in ((rep.mats, rep.d_form), (mu_mats(gd), gd.metric)):
        assert intertwiners_skew(mats, form) == intertwiners_skew_oracle(mats, form)
    for alg, form in ((rep.d, rep.d_form), (gd.L, gd.metric),
                      (gd.double.g, gd.double.Q)):
        assert derivation_algebra(alg) == derivation_algebra_oracle(alg)
        assert skew_derivations(alg, form) == skew_derivations_oracle(alg, form)
        assert invariant_forms(alg) == invariant_forms_oracle(alg)


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("name", corpus_list())
def test_solvers_match_the_dense_systems_on_the_corpus(name, dense):
    rep = corpus_build(name).rep
    _assert_solvers_match(conjugated_rep(rep, corpus_list().index(name))
                          if dense else rep)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(rep=torus_reps())
def test_solvers_match_the_dense_systems_on_tori(rep):
    _assert_solvers_match(rep)


@pytest.mark.parametrize("reps", [indefinite_abelian_reps, nilpotent_reps])
@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
def test_solvers_match_the_dense_systems_on_generated_data(reps, data):
    """Forms of both signs on h and d, plain and under a dense change of
    basis of d."""
    _assert_solvers_match(data.draw(reps()))


def test_solvers_on_trivial_inputs():
    """No conditions at all: every matrix is a derivation of the abelian
    algebra and an intertwiner of no generators; the zero algebra of
    matrices contains only the zero matrix."""
    ab = LieAlgebra.abelian(2)
    assert derivation_algebra(ab) == derivation_algebra_oracle(ab)
    assert derivation_algebra(ab).dim == 4
    assert invariant_forms(ab) == invariant_forms_oracle(ab)
    form = BilinearForm.diagonal([1, -1])
    assert intertwiners_skew([], form) == intertwiners_skew_oracle([], form)
    zero = MatrixLieAlgebra.from_matrices([], 2)
    assert zero.flat_subspace.contains([Q0] * 4)
    assert not zero.flat_subspace.contains([Q0, Q0, Q0, linalg.Q1])
