from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from adinvar import (AlgebraError, BilinearForm, LieAlgebra, build_gd, center, check_jacobi,
                     corpus_build, corpus_list, derivation_algebra,
                     equivalence_check, inner_derivations, intertwiners_skew,
                     invariant_forms, profile, skew_derivations, so_aut,
                     induced_so_aut_pair)
from adinvar import linalg
from adinvar.derivations import MatrixLieAlgebra
from conftest import (T_MINUS, T_PLUS, a12_rep, conjugated_rep,
                      conjugated_table, dense_change, h3_rep, so3_block_reps,
                      two_torus_rep)
from corpus_help import lemma_rep
from oracles import commutator, rank, vec_add


def a12_algebra():
    return lemma_rep("H").d


def a12_lemma_form():
    return lemma_rep("H").d_form


def test_derivation_algebra_abelian():
    der = derivation_algebra(LieAlgebra.abelian(3))
    assert der.dim == 9


def test_derivation_algebra_h3(h3):
    der = derivation_algebra(h3)
    assert der.dim == 6
    basis = linalg.identity(3)
    for m in der.basis:
        for i in range(3):
            for j in range(3):
                lhs = linalg.mat_vec(m, h3.basis_bracket(i, j))
                rhs = vec_add(
                    h3.bracket(linalg.mat_vec(m, basis[i]), basis[j]),
                    h3.bracket(basis[i], linalg.mat_vec(m, basis[j])))
                assert lhs == rhs


def test_derivations_contain_lemma_matrices():
    rep = lemma_rep("H")
    der = derivation_algebra(rep.d)
    for key in "HEF":
        assert der.flat_subspace.contains([x for row in lemma_rep(key).mats[0] for x in row])


def test_skew_derivations_planes():
    flat = skew_derivations(LieAlgebra.abelian(2), BilinearForm.diagonal([1, 1]))
    assert flat.dim == 1
    assert flat.flat_subspace.contains([F(0), F(-1), F(1), F(0)])
    lorentz = skew_derivations(LieAlgebra.abelian(2),
                               BilinearForm.diagonal([-1, 1]))
    assert lorentz.dim == 1
    assert lorentz.flat_subspace.contains([F(0), F(1), F(1), F(0)])


def test_skew_derivations_lemma_family():
    alg = a12_algebra()
    forms = invariant_forms(alg)
    assert len(forms) == 4
    grid = [F(-1), F(0), F(1), F(2)]
    seen = 0
    for coeffs in product(grid, repeat=4):
        m = linalg.zeros(5, 5)
        for c, f in zip(coeffs, forms):
            if c:
                m = linalg.mat_add(m, linalg.mat_scale(c, f.rows()))
        form = BilinearForm(tuple(tuple(r) for r in m))
        if not form.nondegenerate:
            continue
        seen += 1
        sk = skew_derivations(alg, form)
        assert sk.dim == 6
        if seen >= 25:
            break
    assert seen >= 25


def test_inner_derivations():
    assert inner_derivations(LieAlgebra.abelian(4)).dim == 0
    h3 = LieAlgebra(3, None, {(0, 1): {2: 1}})
    assert inner_derivations(h3).dim == 2
    alg = a12_algebra()
    inner = inner_derivations(alg)
    assert inner.dim == 3 == alg.dim - center(alg).dim
    p = profile(inner)
    assert p["dim"] == 3
    assert p["lower_central_dims"] == (3, 1, 0)
    assert p["center_dim"] == 1


def test_inner_inside_skew_for_invariant_form():
    alg = a12_algebra()
    sk = skew_derivations(alg, a12_lemma_form())
    inner = inner_derivations(alg)
    assert sk.flat_subspace.contains_subspace(inner.flat_subspace)


def test_skew_derivation_profile_semidirect():
    sk = skew_derivations(a12_algebra(), a12_lemma_form())
    p = profile(sk)
    assert p["dim"] == 6
    assert p["derived_dims"] == (6,)          # perfect
    assert p["killing_signature"] == (1, 2, 3)
    assert p["center_dim"] == 1


def test_so_aut_isotropy_dims():
    for rep in (h3_rep([1, 1], T_PLUS, 1), h3_rep([-1, 1], T_MINUS, 1)):
        gd = build_gd(rep)
        sa = so_aut(gd)
        assert sa.dim == 1
        a, b = induced_so_aut_pair(gd, 0)
        assert sa.contains(a, b)
        assert sa.pairs[0][0] == ((F(0),),)  # A = 0 for abelian h


def test_so_aut_trivial_action_is_two_rotation_algebras():
    from adinvar import Representation
    rep = Representation(
        LieAlgebra.abelian(2), BilinearForm.diagonal([1, 1]),
        LieAlgebra.abelian(2), BilinearForm.diagonal([1, 1]),
        (((0, 0), (0, 0)),) * 2)
    sa = so_aut(build_gd(rep))
    assert sa.dim == 2  # so(2) + so(2)


def test_so_aut_two_torus():
    gd = build_gd(two_torus_rep())
    sa = so_aut(gd)
    for i in range(gd.nh):
        a, b = induced_so_aut_pair(gd, i)
        assert sa.contains(a, b)


def test_intertwiners():
    rot = intertwiners_skew([T_PLUS], BilinearForm.diagonal([1, 1]))
    assert rot.dim == 1
    assert rot.flat_subspace.contains([F(0), F(-1), F(1), F(0)])
    free = intertwiners_skew([], BilinearForm.diagonal([1, 1, 1, 1]))
    assert free.dim == 6  # all of so(4)
    rep = a12_rep()
    mixer = intertwiners_skew([rep.mats[0]], rep.d_form)
    assert mixer.dim == 1
    assert mixer.flat_subspace.contains([x for row in rep.mats[0] for x in row])


def test_profile_simple_cases():
    rot = intertwiners_skew([T_PLUS], BilinearForm.diagonal([1, 1]))
    assert profile(rot) == {
        "dim": 1, "center_dim": 1, "derived_dims": (1, 0),
        "lower_central_dims": (1, 0), "killing_signature": (0, 0, 1)}


def test_equivalence_check():
    alg = a12_algebra()
    h = [list(r) for r in lemma_rep("H").mats[0]]
    e = [list(r) for r in lemma_rep("E").mats[0]]
    eye = linalg.identity(5)
    zero = [F(0)] * 5
    assert equivalence_check(alg, h, h, 1, zero, eye)
    twice = linalg.mat_scale(F(2), h)
    assert equivalence_check(alg, h, twice, 2, zero, eye)
    assert not equivalence_check(alg, h, e, 1, zero, eye)
    # ad-shift: B = A + ad(x) is equivalent with lambda = 1, T = x
    x = [F(1), F(0), F(0), F(0), F(0)]
    shifted = linalg.mat_add(h, alg.ad_vector(x))
    assert equivalence_check(alg, h, shifted, 1, x, eye)
    with pytest.raises(AlgebraError):
        equivalence_check(alg, h, h, 1, zero, linalg.zeros(5, 5))


def test_so_aut_nonabelian_isotropy():
    from conftest import so3_rep
    gd = build_gd(so3_rep())
    sa = so_aut(gd)
    assert sa.dim == 3
    for i in range(3):
        a, b = induced_so_aut_pair(gd, i)
        assert sa.contains(a, b)
        # the h-part of the induced pair is genuinely nonzero here
        assert any(x for row in a for x in row)


def test_intertwiners_commute_elementwise():
    rep = a12_rep()
    u = intertwiners_skew([rep.mats[0]], rep.d_form)
    gen = [list(r) for r in rep.mats[0]]
    for m in u.basis:
        assert commutator(m, gen) == linalg.zeros(3, 3)


# -- MatrixLieAlgebra.from_matrices against the per-pair solve loop --------

def closure_by_pairs(mats):
    """The closure table found by one solve per commutator pair."""
    mats = [[list(map(linalg.frac, row)) for row in m] for m in mats]
    flat = [[x for row in m for x in row] for m in mats]
    if flat and rank(flat) != len(flat):
        raise AlgebraError("matrix basis is not linearly independent")
    ft = linalg.transpose(flat) if flat else []
    table = {}
    for i, j in combinations(range(len(mats)), 2):
        comm = [x for row in commutator(mats[i], mats[j]) for x in row]
        coords = linalg.solve(ft, comm) if flat else None
        if coords is None:
            raise AlgebraError("matrix space is not closed under commutator")
        comps = {k: c for k, c in enumerate(coords) if c != 0}
        if comps:
            table[(i, j)] = comps
    return table


def outcome(fn, mats):
    try:
        return fn(mats)
    except AlgebraError as exc:
        return str(exc)


def closure_table(mats):
    return MatrixLieAlgebra.from_matrices(mats, len(mats[0])).closure.table


def conjugated(alg, form, p):
    """alg and form rewritten in the basis of the columns of p."""
    table = conjugated_table(alg, p)
    g = linalg.mat_mul(linalg.transpose(p), linalg.mat_mul(form.rows(), p))
    moved = LieAlgebra(alg.dim, None, table)
    assert not check_jacobi(moved)
    return moved, BilinearForm(tuple(tuple(r) for r in g))


@pytest.fixture(scope="module")
def corpus_algebras():
    """d and d + h* of every corpus entry, each under a dense change of
    basis, with the basis of its derivation algebra."""
    out = []
    for seed, name in enumerate(corpus_list()):
        rep = corpus_build(name).rep
        gd = build_gd(rep)
        for alg, form in ((rep.d, rep.d_form), (gd.L, gd.metric)):
            alg, form = conjugated(alg, form, dense_change(alg.dim, seed))
            out.append((alg, form, derivation_algebra(alg)))
    return out


def test_from_matrices_matches_pair_solves_on_corpus(corpus_algebras):
    for alg, form, der in corpus_algebras:
        for mla in (der, skew_derivations(alg, form)):
            mats = mla.basis
            assert mla.closure.table == closure_by_pairs(mats)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_from_matrices_matches_pair_solves_on_subsets(corpus_algebras, data):
    """Generated subsets of a derivation algebra, some members shifted by a
    rational multiple of another: closed, unclosed and dependent sets all
    occur.  from_matrices spans them in the reduced echelon basis of the
    flattened list."""
    basis = data.draw(st.sampled_from(corpus_algebras))[2].basis
    picks = data.draw(st.lists(st.sampled_from(range(len(basis))),
                               min_size=1, max_size=6, unique=True))
    mats = [basis[i] for i in picks]
    for i in range(1, len(mats), 2):
        c = data.draw(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(3)]))
        mats[i] = linalg.mat_add(mats[i], linalg.mat_scale(c, mats[i - 1]))
    if data.draw(st.booleans()):
        mats.append(data.draw(st.sampled_from(mats)))
    n = len(mats[0])
    reduced = linalg.rref([[x for row in m for x in row] for m in mats])[0]
    basis = [[r[p * n:(p + 1) * n] for p in range(n)] for r in reduced]
    assert outcome(closure_table, mats) == outcome(closure_by_pairs, basis)


def test_from_matrices_spans_a_dependent_list():
    e12 = [[F(0), F(1)], [F(0), F(0)]]
    span = MatrixLieAlgebra.from_matrices([linalg.mat_scale(F(2), e12), e12], 2)
    assert span.basis == (tuple(map(tuple, e12)),)
    assert span.closure.table == {}


def test_from_matrices_rejects_unclosed_space():
    e12 = [[F(0), F(1)], [F(0), F(0)]]
    e21 = [[F(0), F(0)], [F(1), F(0)]]
    with pytest.raises(AlgebraError, match="not closed under commutator"):
        MatrixLieAlgebra.from_matrices([e12, e21], 2)
    diag = [[F(1), F(0)], [F(0), F(-1)]]
    sl2 = MatrixLieAlgebra.from_matrices([e12, e21, diag], 2)
    assert sl2.basis == tuple(tuple(map(tuple, m)) for m in (diag, e12, e21))
    assert sl2.closure.table == {(0, 1): {1: F(2)}, (0, 2): {2: F(-2)},
                                 (1, 2): {0: F(1)}}


@settings(derandomize=True, max_examples=5, deadline=None)
@given(so3_block_reps(), st.sampled_from([None, 7]))
def test_from_matrices_matches_pair_solves_on_so3_blocks(rep, seed):
    """Derivation algebras of d + h* and of the double extension for
    so(3) acting on generated blocks, plain and under a dense change of
    basis of d: non-abelian closures with mixed denominators."""
    if seed is not None:
        rep = conjugated_rep(rep, seed)
    gd = build_gd(rep)
    dbl = gd.double
    for mla in (derivation_algebra(gd.L), skew_derivations(gd.L, gd.metric),
                derivation_algebra(dbl.g), skew_derivations(dbl.g, dbl.Q_minus)):
        assert mla.closure.table == closure_by_pairs(mla.basis)
