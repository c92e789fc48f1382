import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from adinvar import (BilinearForm, GeometryError, LieAlgebra, Subspace,
                     bi_invariant_connection_check, bi_invariant_curvature_check,
                     build_gd, check_pair_symmetry, corpus_build, corpus_list,
                     curvature, curvature_gd, double_extend, geodesic_one_param,
                     levi_civita, levi_civita_gd, plane_discriminant, ricci,
                     ricci_gd_closed, ricci_operator, sectional,
                     totally_geodesic)
from adinvar.geometry import Tensor
from adinvar.homstructure import build_hom_structure, nabla_tilde_closed, verify_as
from adinvar import linalg
from conftest import (T_PLUS, T_MINUS, a12_rep, conjugated_rep, h3_rep,
                      indefinite_abelian_reps, nilpotent_reps, so3_rep, torus_rep,
                      torus_reps, two_torus_rep)
import oracles
from adinvar.core import _integral, _rational
from oracles import vec_sub

ALL_REPS = [h3_rep([1, 1], T_PLUS, 1), h3_rep([1, 1], T_PLUS, -1),
            h3_rep([-1, 1], T_MINUS, 1), h3_rep([-1, 1], T_MINUS, -1),
            so3_rep(), two_torus_rep()]


def test_levi_civita_torsion_free_and_metric():
    for rep in ALL_REPS:
        gd = build_gd(rep)
        alg, form = gd.L, gd.metric
        gamma = levi_civita(alg, form)
        basis = linalg.identity(alg.dim)
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert vec_sub(gamma.entry(i, j), gamma.entry(j, i)) == \
                    alg.basis_bracket(i, j)
                for k in range(alg.dim):
                    assert form.apply(gamma.entry(i, j), basis[k]) + \
                        form.apply(basis[j], gamma.entry(i, k)) == 0


def test_levi_civita_bi_invariant_half_bracket():
    dbl = double_extend(a12_rep())
    gamma = levi_civita(dbl.g, dbl.Q)
    assert bi_invariant_connection_check(dbl.g, gamma)


def test_levi_civita_abelian_zero():
    alg = LieAlgebra.abelian(3)
    gamma = levi_civita(alg, BilinearForm.diagonal([1, -1, 1]))
    assert all(gamma.entry(i, j) == [F(0)] * 3 for i in range(3) for j in range(3))


def test_levi_civita_degenerate_metric_rejected(h3):
    with pytest.raises(GeometryError):
        levi_civita(h3, BilinearForm.diagonal([1, 1, 0]))


def test_levi_civita_h3_flat_metric_values(h3):
    gamma = levi_civita(h3, BilinearForm.diagonal([1, 1, 1]))
    assert gamma.entry(0, 1) == [F(0), F(0), F(1, 2)]
    assert gamma.entry(0, 2) == [F(0), F(-1, 2), F(0)]
    assert gamma.entry(2, 0) == [F(0), F(-1, 2), F(0)]


def test_closed_forms_match_koszul_everywhere():
    for rep in ALL_REPS + [a12_rep()]:
        gd = build_gd(rep)
        gamma = levi_civita(gd.L, gd.metric)
        assert gamma == levi_civita_gd(gd)
        r = curvature(gamma, gd.L)
        assert r == curvature_gd(gd)
        assert check_pair_symmetry(r, gd.metric)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(torus_reps())
def test_curvature_gd_matches_definition_on_generated_tori(rep):
    gd = build_gd(rep)
    assert curvature_gd(gd) == curvature(levi_civita(gd.L, gd.metric), gd.L)


def _routes_agree(rep):
    """Each closed form equals the route it is checked against."""
    gd = build_gd(rep)
    gamma = levi_civita(gd.L, gd.metric)
    assert levi_civita_gd(gd) == gamma
    r = curvature_gd(gd)
    assert r == curvature(gamma, gd.L)
    assert build_hom_structure(gd).nabla_tilde == nabla_tilde_closed(gd)
    assert verify_as(gd).all_pass
    assert ricci(r, gd.metric) == ricci_gd_closed(gd)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(indefinite_abelian_reps())
def test_routes_agree_on_generated_indefinite_abelian_data(rep):
    """Lorentzian and neutral forms on d, plain and in a dense basis; 20
    examples draw all four signatures."""
    _routes_agree(rep)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(nilpotent_reps())
def test_routes_agree_on_generated_nilpotent_data(rep):
    """The 3-step nilpotent d, whose bracket reaches the [[x,y]_d, z]/4
    and beta* terms of the d-d-d block, plain and in a dense basis."""
    _routes_agree(rep)


# ---------------------------------------------------------------------------
# both curvature routes against the definition in dense loops
# ---------------------------------------------------------------------------

def _dense_curvature(alg, form):
    """R(x,y)z = D_x D_y z - D_y D_x z - D_[x,y] z on every basis triple,
    with D_x y = B^-1 of the Koszul right-hand side
    (<[x,y],.> - <[y,.],x> + <[.,x],y>)/2, all dense vectors."""
    n, basis = alg.dim, linalg.identity(alg.dim)
    binv = linalg.inverse(form.rows())

    def koszul(i, j):
        x, y = basis[i], basis[j]
        rhs = [(form.apply(alg.bracket(x, y), z) - form.apply(alg.bracket(y, z), x)
                + form.apply(alg.bracket(z, x), y)) / 2 for z in basis]
        return linalg.mat_vec(binv, rhs)
    gamma = Tensor.from_function(n, 2, koszul)

    def r(i, j, k):
        x, y, z = basis[i], basis[j], basis[k]
        return vec_sub(vec_sub(
            gamma.apply(x, gamma.apply(y, z)), gamma.apply(y, gamma.apply(x, z))),
            gamma.apply(alg.bracket(x, y), z))
    return Tensor.from_function(n, 3, r)


def _assert_routes_match_the_dense_curvature(rep):
    gd = build_gd(rep)
    want = _dense_curvature(gd.L, gd.metric)
    for r in (curvature(levi_civita(gd.L, gd.metric), gd.L), curvature_gd(gd)):
        assert r == want
        # the scatters create keys lazily: none may be left empty
        assert all(comps and all(comps.values()) for comps in r.data.values())


@settings(derandomize=True, max_examples=10, deadline=None)
@given(torus_reps())
def test_curvature_routes_match_the_dense_oracle_on_generated_tori(rep):
    _assert_routes_match_the_dense_curvature(rep)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(indefinite_abelian_reps())
def test_curvature_routes_match_the_dense_oracle_on_generated_indefinite_abelian_data(rep):
    _assert_routes_match_the_dense_curvature(rep)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(nilpotent_reps())
def test_curvature_routes_match_the_dense_oracle_on_generated_nilpotent_data(rep):
    _assert_routes_match_the_dense_curvature(rep)


def test_curvature_routes_match_the_dense_oracle_on_the_scaling_family():
    """Tori m = 2 and 3 under seeded signed permutations of d, and so(3)
    on R^3: sparse data, where most basis triples have R = 0."""
    rng = random.Random(71)
    reps = [so3_rep()]
    for m in (2, 3):
        order = list(range(2 * m))
        rng.shuffle(order)
        perm = [(j, rng.choice((1, -1))) for j in order]
        reps.append(torus_rep([rng.choice((1, 2, 3)) for _ in range(m)], perm))
    for rep in reps:
        _assert_routes_match_the_dense_curvature(rep)


def test_curvature_routes_match_the_dense_oracle_on_conjugated_registry_builders():
    for name in corpus_list():
        _assert_routes_match_the_dense_curvature(conjugated_rep(corpus_build(name).rep, 5))


def test_curvature_bi_invariant_identity():
    dbl = double_extend(a12_rep())
    r = curvature(levi_civita(dbl.g, dbl.Q), dbl.g)
    assert bi_invariant_curvature_check(dbl.g, r)
    assert check_pair_symmetry(r, dbl.Q)


def test_curvature_gd_case_values(oscillator_rep):
    gd = build_gd(oscillator_rep)
    r = curvature_gd(gd)
    # R(e1, z*) z* = -pi(z)^2 e1 / 4 = e1/4
    assert r.entry(0, 2, 2) == [F(1, 4), F(0), F(0)]
    # h*-h*-h* always vanishes
    assert r.entry(2, 2, 2) == [F(0)] * 3


def test_curvature_hstar_cases_nonabelian():
    gd = build_gd(so3_rep())
    r = curvature_gd(gd)
    n = gd.L.dim
    basis = linalg.identity(n)
    for i in range(3, 6):
        for j in range(3, 6):
            for k in range(3, 6):
                assert r.entry(i, j, k) == [F(0)] * 6
            # R(h1*, h2*) x = pi([h1,h2]) x / 4
            for a in range(3):
                h1 = [F(0)] * 3
                h1[i - 3] = F(1)
                h2 = [F(0)] * 3
                h2[j - 3] = F(1)
                hb = gd.rep.h.bracket(h1, h2)
                want = gd.embed_d(linalg.vec_scale(
                    F(1, 4), linalg.mat_vec(gd.rep.pi_of(hb), basis[a][:3])))
                assert r.entry(i, j, a) == want


def test_sectional_h3_riemannian():
    gd = build_gd(h3_rep([1, 1], T_PLUS, 1))
    # oracle: Koszul connection + curvature definition, no closed forms
    r = curvature(levi_civita(gd.L, gd.metric), gd.L)
    e = linalg.identity(3)
    assert sectional(r, gd.metric, e[0], e[1]) == F(-3, 4)
    assert sectional(r, gd.metric, e[0], e[2]) == F(1, 4)
    assert sectional(r, gd.metric, e[1], e[2]) == F(1, 4)


def test_sectional_lorentzian_signs():
    gd = build_gd(h3_rep([-1, 1], T_MINUS, 1))  # metric nr. 2
    r = curvature(levi_civita(gd.L, gd.metric), gd.L)
    e = linalg.identity(3)
    assert sectional(r, gd.metric, e[0], e[1]) > 0
    assert sectional(r, gd.metric, e[0], e[2]) < 0


def test_sectional_scale_invariance(oscillator_rep):
    gd = build_gd(oscillator_rep)
    r = curvature_gd(gd)
    x = [F(2), F(0), F(0)]
    y = [F(1), F(3), F(0)]
    e = linalg.identity(3)
    assert sectional(r, gd.metric, x, y) == sectional(r, gd.metric, e[0], e[1])


def test_sectional_hstar_planes_vanish():
    for rep in (so3_rep(), two_torus_rep()):
        gd = build_gd(rep)
        r = curvature_gd(gd)
        basis = linalg.identity(gd.L.dim)
        for i in range(gd.nd, gd.L.dim):
            for j in range(i + 1, gd.L.dim):
                if plane_discriminant(gd.metric, basis[i], basis[j]) == 0:
                    continue
                assert sectional(r, gd.metric, basis[i], basis[j]) == 0


def test_sectional_degenerate_plane_rejected():
    gd = build_gd(h3_rep([-1, 1], T_MINUS, 1))
    r = curvature_gd(gd)
    x = [F(1), F(1), F(0)]  # null vector: plane with e3 is degenerate
    with pytest.raises(GeometryError, match="degenerate plane"):
        sectional(r, gd.metric, x, [F(0), F(0), F(1)])


def test_ricci_h3_values():
    gd = build_gd(h3_rep([1, 1], T_PLUS, 1))
    r = curvature(levi_civita(gd.L, gd.metric), gd.L)
    op = ricci_operator(r, gd.metric)
    assert op == [[F(-1, 2), F(0), F(0)], [F(0), F(-1, 2), F(0)],
                  [F(0), F(0), F(1, 2)]]
    gd2 = build_gd(h3_rep([-1, 1], T_MINUS, 1))
    ric2 = ricci(curvature(levi_civita(gd2.L, gd2.metric), gd2.L), gd2.metric)
    assert [ric2.matrix[i][i] for i in range(3)] == [F(-1, 2), F(1, 2), F(-1, 2)]


def _so3_inner_rep():
    """h = R acting on d = so(3) by the inner derivation ad(L3): d is not
    nilpotent, so its Killing form and trace(pi(h) ad x) do not vanish."""
    from adinvar import Representation, LieAlgebra
    so3 = LieAlgebra(3, None, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    return Representation(
        LieAlgebra.abelian(1, names=("z",)), BilinearForm.diagonal([1]),
        so3, BilinearForm.diagonal([1, 1, 1]), (tuple(map(tuple, so3.ad(2))),))


def test_ricci_closed_forms_agree():
    for rep in ALL_REPS + [a12_rep(), _so3_inner_rep()]:
        gd = build_gd(rep)
        r = curvature(levi_civita(gd.L, gd.metric), gd.L)
        assert ricci(r, gd.metric) == ricci_gd_closed(gd)


def test_ricci_operator_self_adjoint():
    for rep in (so3_rep(), a12_rep()):
        gd = build_gd(rep)
        r = curvature_gd(gd)
        op = ricci_operator(r, gd.metric)
        g = gd.metric.rows()
        assert linalg.mat_mul(g, op) == linalg.transpose(linalg.mat_mul(g, op))


def test_ricci_block_split_for_abelian_d():
    for rep in (h3_rep([1, 1], T_PLUS, 1), two_torus_rep(), so3_rep()):
        gd = build_gd(rep)
        op = ricci_operator(curvature_gd(gd), gd.metric)
        nd = gd.nd
        for i in range(nd):
            for j in range(nd, gd.L.dim):
                assert op[j][i] == 0 and op[i][j] == 0


def test_geodesic_one_param(oscillator_rep):
    gd = build_gd(oscillator_rep)
    e = linalg.identity(3)
    assert geodesic_one_param(gd, e[2])          # h* vector
    assert geodesic_one_param(gd, e[0])          # d vector
    xi = [F(1), F(0), F(1)]                      # e1 + z*
    assert not geodesic_one_param(gd, xi)
    # agreement with the connection: D_xi xi = 0 iff geodesic
    gamma = levi_civita_gd(gd)
    for v in (e[0], e[2], xi, [F(1), F(2), F(-3)]):
        assert geodesic_one_param(gd, v) == \
            linalg.is_zero_vector(gamma.apply(v, v))


def test_totally_geodesic():
    gd = build_gd(h3_rep([1, 1], T_PLUS, 1))
    hstar = Subspace.span([[0, 0, 1]], 3)
    assert totally_geodesic(gd.L, gd.metric, hstar)
    assert totally_geodesic(gd.L, gd.metric, Subspace.full(3))
    assert totally_geodesic(gd.L, gd.metric, Subspace.span([[1, 0, 0]], 3))
    r = curvature_gd(gd)
    # h* is flat: every curvature value with h*-only arguments vanishes
    assert r.entry(2, 2, 2) == [F(0)] * 3


def test_totally_geodesic_needs_subalgebra():
    dbl = double_extend(a12_rep())
    not_closed = Subspace.span([linalg.identity(5)[0], linalg.identity(5)[1]], 5)
    with pytest.raises(GeometryError):
        totally_geodesic(dbl.g, dbl.Q, not_closed)


def test_hstar_totally_geodesic_bigger():
    gd = build_gd(two_torus_rep())
    rows = [linalg.identity(6)[4], linalg.identity(6)[5]]
    assert totally_geodesic(gd.L, gd.metric, Subspace.span(rows, 6))


def test_tensor4_antisymmetry_in_first_slots():
    for rep in (a12_rep(), so3_rep()):
        gd = build_gd(rep)
        r = curvature_gd(gd)
        n = gd.L.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert r.entry(i, j, k) == [-x for x in r.entry(j, i, k)]


def test_connection_vanishes_on_hstar_pairs():
    for rep in (so3_rep(), two_torus_rep()):
        gd = build_gd(rep)
        gamma = levi_civita_gd(gd)
        for i in range(gd.nd, gd.L.dim):
            for j in range(gd.nd, gd.L.dim):
                assert gamma.entry(i, j) == [F(0)] * gd.L.dim


def test_ricci_closed_forms_without_rational_frame():
    # h-metric 2 has no exact unit frame over Q; the contraction must still
    # match the trace definition
    from adinvar import Representation, LieAlgebra
    rep = Representation(
        LieAlgebra.abelian(1, names=("z",)), BilinearForm.diagonal([2]),
        LieAlgebra.abelian(2), BilinearForm.diagonal([1, 1]), (T_PLUS,))
    gd = build_gd(rep)
    r = curvature(levi_civita(gd.L, gd.metric), gd.L)
    assert ricci(r, gd.metric) == ricci_gd_closed(gd)


def test_ricci_closed_forms_lemma_extensions():
    from corpus_help import lemma_rep
    for key in "HEF":
        gd = build_gd(lemma_rep(key))
        r = curvature(levi_civita(gd.L, gd.metric), gd.L)
        assert ricci(r, gd.metric) == ricci_gd_closed(gd)


def test_sectional_closed_form_matches_quotient():
    from adinvar.geometry import sectional_gd_closed
    for rep in ALL_REPS:
        gd = build_gd(rep)
        r = curvature_gd(gd)
        basis = linalg.identity(gd.L.dim)
        for i in range(gd.L.dim):
            for j in range(gd.L.dim):
                if i == j:
                    continue
                if abs(gd.metric.apply(basis[i], basis[i])) != 1:
                    continue
                if abs(gd.metric.apply(basis[j], basis[j])) != 1:
                    continue
                if gd.metric.apply(basis[i], basis[j]) != 0:
                    continue
                want = sectional(r, gd.metric, basis[i], basis[j])
                assert sectional_gd_closed(gd, basis[i], basis[j]) == want


def test_sectional_closed_form_preconditions():
    from adinvar.geometry import sectional_gd_closed
    gd = build_gd(h3_rep([1, 1], T_PLUS, 1))
    with pytest.raises(GeometryError, match="pure"):
        sectional_gd_closed(gd, [F(1), F(0), F(1)], [F(0), F(1), F(0)])
    with pytest.raises(GeometryError, match="orthonormal"):
        sectional_gd_closed(gd, [F(2), F(0), F(0)], [F(0), F(1), F(0)])


# ---------------------------------------------------------------------------
# the sparse Tensor against dense sums over its entries
# ---------------------------------------------------------------------------

SMALL = st.fractions(-2, 2, max_denominator=3)


@st.composite
def tensors_and_vectors(draw):
    n, slots = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = {idx: draw(st.lists(st.one_of(st.just(F(0)), SMALL),
                                 min_size=n, max_size=n))
              for idx in product(range(n), repeat=slots)}
    vectors = [draw(st.lists(st.one_of(st.just(F(0)), SMALL), min_size=n,
                             max_size=n)) for _ in range(slots)]
    return n, slots, values, vectors


@settings(derandomize=True, max_examples=100, deadline=None)
@given(tensors_and_vectors())
def test_tensor_matches_dense_sums(case):
    n, slots, values, vectors = case
    t = Tensor.from_function(n, slots, lambda *idx: values[idx])
    for idx, vec in values.items():
        assert t.entry(*idx) == vec
        assert (idx in t.data) == any(vec)
    assert all(c for comps in t.data.values() for c in comps.values())
    want = [F(0)] * n
    for idx, vec in values.items():
        c = F(1)
        for i, v in zip(idx, vectors):
            c *= v[i]
        want = [w + c * x for w, x in zip(want, vec)]
    assert t.apply(*vectors) == want
    doubled = Tensor.from_function(n, slots, lambda *idx: [2 * x for x in values[idx]])
    assert (doubled - t) == t and (t - t).data == {}
    assert Tensor(n, slots, {idx: dict(enumerate(v)) for idx, v in values.items()}) == t


@settings(derandomize=True, max_examples=100, deadline=None)
@given(tensors_and_vectors(), tensors_and_vectors(), st.integers(2, 12))
def test_tensor_view_is_one_canonical_int_view(case, other, k):
    """A Fraction-built and an int-built tensor are equal, views whose
    scales differ by a factor are one view, a different scale is a
    different tensor, data is the rational view, and the difference of
    two views is weighted by both scales."""
    n, slots, values, _ = case
    t = Tensor.from_function(n, slots, lambda *idx: values[idx])
    ints, s = t.int_data
    assert (ints, s) == _integral(t.data)
    built = Tensor.from_ints(n, slots, ints, s)
    assert built == t and built.data == t.data == _rational(ints, s)
    padded = {idx: {p: k * x for p, x in comps.items()} for idx, comps in ints.items()}
    padded[(0,) * slots] = {**padded.get((0,) * slots, {}), n: 0}  # a zero is pruned
    scaled = Tensor.from_ints(n, slots, padded, k * s)
    assert scaled == t and scaled.int_data == (ints, s)
    assert (Tensor.from_ints(n, slots, ints, k * s) == t) == (not ints)
    m, slots_u, values_u, _ = other
    if (m, slots_u) == (n, slots):
        u = Tensor.from_function(n, slots, lambda *idx: values_u[idx])
        want = Tensor.from_function(n, slots, lambda *idx: vec_sub(values[idx], values_u[idx]))
        assert t - u == want and (t - u).data == want.data


def _plane_vectors(n):
    """The coordinate planes, and the pairs (e_i + e_j, e_j - 2 e_k / 3)
    with i < j < k, pairs that are often degenerate on an indefinite form."""
    basis = linalg.identity(n)
    planes = [(basis[i], basis[j]) for i in range(n) for j in range(i + 1, n)]
    for i, j, k in product(range(n), repeat=3):
        if i < j < k:
            planes.append(([a + b for a, b in zip(basis[i], basis[j])],
                           [a - F(2, 3) * b for a, b in zip(basis[j], basis[k])]))
    return planes


def _readers_match_the_fraction_oracles(r, form):
    """ricci, ricci_operator, its charpoly, plane_discriminant and
    sectional against their Fraction versions; both refuse the same
    degenerate planes.  Returns the number of degenerate planes."""
    ric, op = ricci(r, form), ricci_operator(r, form)
    assert ric == oracles.ricci(r, form)
    assert op == oracles.ricci_operator(r, form)
    assert linalg.charpoly(op) == oracles.charpoly(op)
    values = [x for row in ric.matrix for x in row] + [x for row in op for x in row]
    assert all(type(x) is F for x in values + linalg.charpoly(op))
    degenerate = 0
    for x, y in _plane_vectors(form.dim):
        assert plane_discriminant(form, x, y) == oracles.plane_discriminant(form, x, y)
        if oracles.plane_discriminant(form, x, y) == 0:
            degenerate += 1
            with pytest.raises(GeometryError):
                sectional(r, form, x, y)
            continue
        k = sectional(r, form, x, y)
        assert type(k) is F and k == oracles.sectional(r, form, x, y)
    return degenerate


def test_readers_match_the_fraction_oracles_on_the_corpus_and_dense_conjugates():
    degenerate = 0
    for name in corpus_list():
        rep = corpus_build(name).rep
        for gd in (build_gd(rep), build_gd(conjugated_rep(rep, 3))):
            r = curvature(levi_civita(gd.L, gd.metric), gd.L)
            degenerate += _readers_match_the_fraction_oracles(r, gd.metric)
    assert degenerate > 0


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.one_of(indefinite_abelian_reps(), nilpotent_reps()))
def test_readers_match_the_fraction_oracles_on_generated_data(rep):
    gd = build_gd(rep)
    _readers_match_the_fraction_oracles(curvature_gd(gd), gd.metric)
