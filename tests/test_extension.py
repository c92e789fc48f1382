import random
import re
from dataclasses import replace
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from adinvar import (BilinearForm, ExtensionError, KostantError, LieAlgebra,
                     Representation, Subspace, ad_invariant, build_gd,
                     canonical_connection, check_jacobi, corpus_build,
                     corpus_list, double_extend, kostant_form,
                     orthogonal_complement, reductive_split)
from adinvar import core, corpus, extension, linalg
from adinvar.core import skew_witnesses
from adinvar.extension import KostantResult, SplitResult, _verify_gd
from adinvar.geometry import Tensor
from conftest import (T_MINUS, T_PLUS, a12_rep, conjugated_rep, h3_rep,
                      indefinite_abelian_reps, mu_mats, nilpotent_reps, so3_block_rep,
                      so3_block_reps, so3_rep, torus_rep, torus_reps)
from corpus_help import lemma_rep
from oracles import commutator, vec_add
from test_corpus import _count_calls


def test_double_extend_a12_golden():
    dbl = double_extend(a12_rep())
    table = {k: dict(v) for k, v in dbl.g.table.items()}
    assert table == {
        (0, 1): {2: F(1)},
        (0, 2): {1: F(1), 3: F(-1)},
        (0, 3): {2: F(1)},
        (1, 2): {4: F(1)},
        (2, 3): {4: F(-1)},
    }
    assert dbl.Q.matrix == (
        (F(1), F(0), F(0), F(0), F(1)),
        (F(0), F(-1), F(0), F(0), F(0)),
        (F(0), F(0), F(1), F(0), F(0)),
        (F(0), F(0), F(0), F(1), F(0)),
        (F(1), F(0), F(0), F(0), F(0)))


def test_double_extend_oscillator_by_hand():
    dbl = double_extend(h3_rep([1, 1], T_PLUS, 1))
    table = {k: dict(v) for k, v in dbl.g.table.items()}
    assert table == {(0, 1): {2: F(1)}, (0, 2): {1: F(-1)}, (1, 2): {3: F(1)}}
    assert dbl.Q.signature == (1, 3, 0)


def test_double_extend_trivial_action():
    rep = Representation(
        LieAlgebra.abelian(2), BilinearForm.diagonal([0, 0]),
        LieAlgebra.abelian(2), BilinearForm.diagonal([1, 1]),
        (tuple(map(tuple, linalg.zeros(2, 2))),) * 2)
    dbl = double_extend(rep)
    assert not dbl.g.table  # abelian
    # hyperbolic pairing between h and h*
    eye = linalg.identity(6)  # (h | d | h*), two vectors each
    assert dbl.Q.apply(eye[0], eye[4]) == 1
    assert dbl.Q.signature == (2, 4, 0)


def test_double_extend_rejects_bad_pi():
    not_skew = ((1, 0), (0, 1))
    rep = Representation(
        LieAlgebra.abelian(1), BilinearForm.diagonal([1]),
        LieAlgebra.abelian(2), BilinearForm.diagonal([1, 1]), (not_skew,))
    with pytest.raises(ExtensionError) as exc:
        double_extend(rep)
    assert any("not_skew" in v for v in exc.value.violations)

    h3 = LieAlgebra(3, None, {(0, 1): {2: 1}})
    not_derivation = ((0, 0, 0), (0, 0, -1), (0, 1, 0))
    rep = Representation(
        LieAlgebra.abelian(1), BilinearForm.diagonal([1]),
        h3, BilinearForm.diagonal([1, 1, 1]), (not_derivation,))
    with pytest.raises(ExtensionError) as exc:
        double_extend(rep)
    assert any("not_derivation" in v or "not_ad_invariant" in v
               for v in exc.value.violations)

    # pi(h1), pi(h2) failing the homomorphism property on abelian h
    rep = Representation(
        LieAlgebra.abelian(2), BilinearForm.diagonal([1, 1]),
        LieAlgebra.abelian(3), BilinearForm.diagonal([1, 1, 1]),
        (((0, -1, 0), (1, 0, 0), (0, 0, 0)),
         ((0, 0, 0), (0, 0, -1), (0, 1, 0))))
    with pytest.raises(ExtensionError) as exc:
        double_extend(rep)
    assert any("homomorphism" in v for v in exc.value.violations)


def test_double_extend_allows_degenerate_h_form():
    rep = Representation(
        LieAlgebra.abelian(1), BilinearForm.diagonal([0]),
        LieAlgebra.abelian(2), BilinearForm.diagonal([1, 1]), (T_PLUS,))
    dbl = double_extend(rep)
    assert check_jacobi(dbl.g) == []
    with pytest.raises(ExtensionError):
        build_gd(rep)


def test_build_gd_heisenberg_both_signs():
    for sign in (1, -1):
        gd = build_gd(h3_rep([1, 1], T_PLUS, sign))
        assert gd.L.dim == 3
        assert {k: dict(v) for k, v in gd.L.table.items()} == \
            {(0, 1): {2: F(sign)}}
        assert gd.metric == BilinearForm.diagonal([1, 1, sign])
        gd2 = build_gd(h3_rep([-1, 1], T_MINUS, sign))
        assert gd2.metric == BilinearForm.diagonal([-1, 1, sign])


def test_mu_examples(oscillator_rep):
    gd = build_gd(oscillator_rep)
    mu = [list(r) for r in mu_mats(gd)[0]]
    assert mu == [[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(0)]]
    assert extension._combination(mu_mats(gd), [F(0)], 3) == linalg.zeros(3, 3)


@pytest.mark.parametrize("name", corpus.corpus_list())
def test_mu_data_holds_the_columns_of_the_block_sums(name):
    """The operator field mu_data, read off the pi columns and the bracket
    of h, holds the columns of pi(h_k) (+) ad(h_k), and no zero entry, also
    under a dense change of basis of d."""
    rep = corpus.corpus_build(name).rep
    for rep in (rep, conjugated_rep(rep, 2)):
        want = [extension._block_sum(rep.mats[k], rep.h.ad(k)) for k in range(rep.h.dim)]
        assert build_gd(rep).mu_data == core.operator_data(want)


def test_mu_coadjoint_nonabelian():
    gd = build_gd(so3_rep())
    mu = mu_mats(gd)[0]
    # lower-right block is ad(L1) acting through the ell identification
    adl1 = gd.rep.h.ad(0)
    for p in range(3):
        for q in range(3):
            assert mu[3 + p][3 + q] == adl1[p][q]


def _lambda_images(gd):
    """lambda(e_i) for each basis vector e_i of d + h*, as dense vectors of
    the double extension, read off the lambda columns."""
    n = gd.double.g.dim
    return [[col.get(p, F(0)) for p in range(n)] for col in gd.lambda_columns.values()]


def test_lambda_is_isometry(oscillator_rep):
    gd = build_gd(oscillator_rep)
    lam = _lambda_images(gd)
    for i, j in product(range(3), repeat=2):
        assert gd.double.Q_minus.apply(lam[i], lam[j]) == gd.metric.matrix[i][j]
    # the h* basis vector maps to (z, 0, z*) with Q_minus norm -1+1+1 = 1
    assert lam[2] == [F(1), F(0), F(0), F(1)]
    assert gd.double.Q_minus.apply(lam[2], lam[2]) == 1


def test_lambda_negative_z_sign():
    gd = build_gd(h3_rep([1, 1], T_PLUS, -1))
    image = _lambda_images(gd)[2]
    assert image == [F(1), F(0), F(0), F(-1)]
    assert gd.double.Q_minus.apply(image, image) == -1 == gd.metric.matrix[2][2]


def test_reductive_split_oscillator(oscillator_rep):
    dbl = build_gd(oscillator_rep).double
    res = reductive_split(dbl.g, dbl.Q_minus, dbl.h_sub)
    assert res.all_pass
    assert res.m.dim == 3
    for row in res.m.basis():
        assert row[3:] == row[:1]  # (h | d | h*): ell is the identity for <z,z> = 1


def test_reductive_split_trivial_h():
    dbl = double_extend(a12_rep())
    res = reductive_split(dbl.g, dbl.Q, Subspace(5, ()))
    assert res.all_pass  # reduces to ad-invariance of Q
    assert res.m.dim == 5


def test_reductive_split_rejects_degenerate_h():
    dbl = double_extend(a12_rep())
    # e1 is isotropic for Q restricted to span{e1}? <e1,e1> = -1, fine;
    # take the null vector e0* instead: Q(e0*, e0*) = 0
    null_line = Subspace.span([linalg.identity(5)[4]], 5)
    with pytest.raises(ExtensionError):
        reductive_split(dbl.g, dbl.Q, null_line)


def test_kostant_trivial_h():
    dbl = double_extend(a12_rep())
    m = Subspace.full(5)
    inner = dbl.Q
    res = kostant_form(dbl.g, Subspace(5, ()), m, inner)
    assert res.all_pass
    assert res.gbar.dim == 5
    assert res.form.matrix == dbl.Q.matrix


def test_kostant_oscillator_recovers_q_minus(oscillator_rep):
    dbl = build_gd(oscillator_rep).double
    split = reductive_split(dbl.g, dbl.Q_minus, dbl.h_sub)
    inner = BilinearForm(tuple(
        tuple(dbl.Q_minus.apply(u, v) for v in split.m.basis())
        for u in split.m.basis()))
    res = kostant_form(dbl.g, dbl.h_sub, split.m, inner)
    assert res.all_pass
    assert res.gbar.dim == 4
    assert res.hbar.dim == 1
    for u in res.basis:
        for v in res.basis:
            assert res.pair(list(u), list(v)) == dbl.Q_minus.apply(list(u), list(v))


def test_kostant_inconsistent_data_rejected():
    # needs several bracket representatives of the same h element, so use
    # the nonabelian isotropy example
    dbl = build_gd(so3_rep()).double
    split = reductive_split(dbl.g, dbl.Q_minus, dbl.h_sub)
    rows = [[dbl.Q_minus.apply(u, v) for v in split.m.basis()]
            for u in split.m.basis()]
    rows[1][1] += 7  # breaks the naturally reductive condition
    inner = BilinearForm(tuple(tuple(r) for r in rows))
    with pytest.raises(KostantError, match="not naturally reductive"):
        kostant_form(dbl.g, dbl.h_sub, split.m, inner)


def test_kostant_so3_reconstruction():
    dbl = build_gd(so3_rep()).double
    split = reductive_split(dbl.g, dbl.Q_minus, dbl.h_sub)
    inner = BilinearForm(tuple(
        tuple(dbl.Q_minus.apply(u, v) for v in split.m.basis())
        for u in split.m.basis()))
    res = kostant_form(dbl.g, dbl.h_sub, split.m, inner)
    assert res.all_pass
    assert res.gbar.dim == 9 and res.hbar.dim == 3
    for u in res.basis:
        for v in res.basis:
            assert res.pair(list(u), list(v)) == dbl.Q_minus.apply(list(u), list(v))


def test_canonical_connection_abelian():
    g = LieAlgebra.abelian(3)
    tor, cur = canonical_connection(g, Subspace(3, ()), Subspace.full(3))
    assert all(tor.entry(i, j) == [F(0)] * 3 for i in range(3) for j in range(3))
    assert all(cur.entry(i, j, k) == [F(0)] * 3
               for i in range(3) for j in range(3) for k in range(3))


def test_canonical_connection_oscillator(oscillator_rep):
    dbl = build_gd(oscillator_rep).double
    split = reductive_split(dbl.g, dbl.Q_minus, dbl.h_sub)
    tor, _ = canonical_connection(dbl.g, dbl.h_sub, split.m)
    mb = split.m.basis()
    for a in range(3):
        for b in range(3):
            w = dbl.g.bracket(mb[a], mb[b])
            # recombine: torsion entry should be minus the m part of w
            got = [F(0)] * 5
            for c, row in zip(tor.entry(a, b), mb):
                got = [x + c * y for x, y in zip(got, row)]
            h_rest = [x + y for x, y in zip(got, w)]
            assert split.m.contains(got)
            assert dbl.h_sub.contains(h_rest)


def test_canonical_connection_symmetric_pair():
    # so(3) with h = span{L3}: [m, m] lands in h, so the torsion vanishes
    so3 = LieAlgebra(3, None, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    h = Subspace.span([[0, 0, 1]], 3)
    m = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)
    tor, cur = canonical_connection(so3, h, m)
    assert all(tor.entry(a, b) == [F(0), F(0)] for a in range(2) for b in range(2))
    # R(L1, L2) L1 = -[[L1,L2], L1] = -L2
    assert cur.entry(0, 1, 0) == [F(0), F(-1)]


def test_cocycle_transfer_identity_nonabelian():
    # [h1, b*(x,y)]* = b(pi(h1)x, y) + b(x, pi(h1)y) as covectors on h
    rep = so3_rep()
    gd = build_gd(rep)
    ellinv = gd.ell_inv
    unit_d = linalg.identity(3)
    unit_h = linalg.identity(3)
    for t in range(3):
        pih = rep.mat(t)
        for a in range(3):
            for b in range(3):
                beta_star = linalg.mat_vec(ellinv, rep.beta(unit_d[a], unit_d[b]))
                lhs_h = rep.h.bracket(unit_h[t], beta_star)
                lhs = linalg.mat_vec([list(r) for r in gd.ell], lhs_h)
                rhs = vec_add(
                    rep.beta(linalg.mat_vec(pih, unit_d[a]), unit_d[b]),
                    rep.beta(unit_d[a], linalg.mat_vec(pih, unit_d[b])))
                assert lhs == rhs


def test_cm_relation_all_basis_tuples():
    for rep in (a12_rep(), so3_rep(), h3_rep([-1, 1], T_MINUS, -1)):
        gd = build_gd(rep)
        basis = linalg.identity(gd.L.dim)
        unit_d = linalg.identity(gd.nd)
        g = gd.rep.d_form.rows()
        for k in range(gd.nh):
            fk = basis[gd.nd + k]
            for a in range(gd.nd):
                for b in range(gd.nd):
                    br = gd.L.bracket(basis[a], basis[b])
                    want = linalg.dot(
                        linalg.mat_vec(gd.rep.mat(k), unit_d[a]),
                        linalg.mat_vec(g, unit_d[b]))
                    assert gd.metric.apply(fk, br) == want


def test_mu_is_homomorphism_of_nonabelian_h():
    gd = build_gd(so3_rep())
    for i in range(3):
        for j in range(3):
            lhs = extension._combination(mu_mats(gd), gd.rep.h.basis_bracket(i, j), 6)
            rhs = commutator([list(r) for r in mu_mats(gd)[i]],
                                    [list(r) for r in mu_mats(gd)[j]])
            assert lhs == rhs


def test_mu_block_for_lemma_extension():
    from corpus_help import lemma_rep
    rep = lemma_rep("H")
    gd = build_gd(rep)
    mu = mu_mats(gd)[0]
    h = rep.mat(0)
    for p in range(5):
        for q in range(5):
            assert mu[p][q] == h[p][q]
    assert mu[5][5] == 0  # trivial coadjoint part for abelian h


def test_reductive_split_a12_h_block():
    dbl = double_extend(a12_rep())
    res = reductive_split(dbl.g, dbl.Q_minus, dbl.h_sub)
    assert res.all_pass
    assert res.m.dim == 4


def test_kostant_a12_reconstruction():
    dbl = double_extend(a12_rep())
    split = reductive_split(dbl.g, dbl.Q_minus, dbl.h_sub)
    inner = BilinearForm(tuple(
        tuple(dbl.Q_minus.apply(u, v) for v in split.m.basis())
        for u in split.m.basis()))
    res = kostant_form(dbl.g, dbl.h_sub, split.m, inner)
    assert res.all_pass  # consistency with zero residual, ad-invariant output
    for u in res.basis:
        for v in res.basis:
            assert res.pair(list(u), list(v)) == dbl.Q_minus.apply(list(u), list(v))


# -- construction-time identities of d + h*, on corrupted data -------------

def _gd_inputs():
    return [build_gd(rep) for rep in
            (h3_rep([1, 1], T_PLUS, 1), a12_rep(), lemma_rep("H"))]


def _with_mu(gd, mat):
    """gd with mu(h_0) replaced by the dense matrix mat."""
    mats = (tuple(map(tuple, mat)),) + mu_mats(gd)[1:]
    return replace(gd, mu_data=core.operator_data(mats))


def _is_derivation(alg, m):
    basis = linalg.identity(alg.dim)
    return all(
        linalg.mat_vec(m, alg.basis_bracket(a, b)) == vec_add(
            alg.bracket(linalg.mat_vec(m, basis[a]), basis[b]),
            alg.bracket(basis[a], linalg.mat_vec(m, basis[b])))
        for a in range(alg.dim) for b in range(alg.dim))


def test_verify_gd_accepts_built_algebras():
    for gd in _gd_inputs():
        _verify_gd(gd)


def test_verify_gd_accepts_fractional_forms_under_a_dense_change_of_basis():
    """The cm relation and the lambda congruence compare int sums, each
    scaled by the denominators of its own inputs: so(3) on two blocks with
    fractional metrics, <,>_h = 5/3 diag(1, 1, 1) included, and gH, each
    under a dense change of basis of d, pass."""
    for rep in (so3_block_rep([F(1, 2), F(-3)], F(5, 3)), lemma_rep("H")):
        _verify_gd(build_gd(conjugated_rep(rep, 5)))


def test_verify_gd_rejects_mu_entry_that_breaks_skewness():
    for gd in _gd_inputs():
        n = gd.L.dim
        for p in range(n):
            for q in range(n):
                mat = [list(r) for r in mu_mats(gd)[0]]
                mat[p][q] += 1
                with pytest.raises(ExtensionError, match=r"mu\(h\) is not metric-skew"):
                    _verify_gd(_with_mu(gd, mat))


def test_verify_gd_rejects_skew_mu_that_is_not_a_derivation():
    """mu(h) + g^-1 S stays metric-skew for skew S; it is refused exactly
    when it stops being a derivation (h is one-dimensional here, so no
    later identity can fail)."""
    refused = 0
    for gd in _gd_inputs():
        n = gd.L.dim
        g_inv = linalg.inverse(gd.metric.rows())
        for p in range(n):
            for q in range(p + 1, n):
                s = linalg.zeros(n, n)
                s[p][q], s[q][p] = F(1), F(-1)
                mat = linalg.mat_add([list(r) for r in mu_mats(gd)[0]],
                                     linalg.mat_mul(g_inv, s))
                if _is_derivation(gd.L, mat):
                    _verify_gd(_with_mu(gd, mat))
                    continue
                refused += 1
                with pytest.raises(ExtensionError, match=r"mu\(h\) is not a derivation"):
                    _verify_gd(_with_mu(gd, mat))
    assert refused >= 10


def test_verify_gd_rejects_ell_that_breaks_the_isometry():
    for gd in _gd_inputs():
        for scale in (F(2), F(-1), F(1, 3)):
            ell = tuple(tuple(scale * x for x in row) for row in gd.ell)
            with pytest.raises(ExtensionError, match="lambda is not a linear isometry"):
                _verify_gd(replace(gd, ell=ell))
    # an off-diagonal entry of ell moves only off-diagonal lambda products
    gd = build_gd(torus_rep([1, 2]))
    ell = [list(r) for r in gd.ell]
    ell[0][1] = ell[1][0] = F(1)
    with pytest.raises(ExtensionError, match="lambda is not a linear isometry"):
        _verify_gd(replace(gd, ell=tuple(tuple(r) for r in ell)))


def test_verify_gd_rejects_a_metric_that_is_not_the_block_sum():
    """Any symmetric change of one entry of the metric, inside a block or
    between d and h*, is refused before any later identity is read."""
    for gd in _gd_inputs():
        n = gd.L.dim
        for p in range(n):
            for q in range(p, n):
                m = [list(r) for r in gd.metric.matrix]
                m[p][q] += 1
                m[q][p] = m[p][q]
                with pytest.raises(ExtensionError,
                                   match=r"metric is not <,>_d \+ <,>_h"):
                    _verify_gd(replace(gd, metric=BilinearForm(tuple(map(tuple, m)))))


def test_verify_gd_rejects_a_bracket_with_an_hstar_argument():
    """One added bracket [x, f_k] of d + h*, whatever its value, is refused
    as h* not central."""
    for gd in _gd_inputs():
        nd, n = gd.nd, gd.L.dim
        for i in range(n):
            for j in range(max(i + 1, nd), n):
                for k in (0, n - 1):
                    table = {key: dict(v) for key, v in gd.L.table.items()}
                    table.setdefault((i, j), {})[k] = F(1)
                    broken = LieAlgebra(n, gd.L.names, table)
                    with pytest.raises(ExtensionError, match=r"h\* is not central"):
                        _verify_gd(replace(gd, L=broken))


def _assert_cm_refuses_each_moved_beta_entry(gd):
    """Each h* component of each bracket [e_a, e_b] of d + h*, a < b,
    moved by one no longer matches beta(e_a, e_b) = rep.int_beta: the cm
    relation refuses it."""
    cm = re.escape("relation <h*,[x1,x2]> = <pi(h)x1,x2> fails")
    for ab, k in product(combinations(range(gd.nd), 2), range(gd.nh)):
        table = {key: dict(v) for key, v in gd.L.table.items()}
        comps = table.setdefault(ab, {})
        comps[gd.nd + k] = comps.get(gd.nd + k, 0) + 1
        with pytest.raises(ExtensionError, match=cm):
            _verify_gd(replace(gd, L=LieAlgebra(gd.L.dim, gd.L.names, table)))


def test_verify_gd_rejects_a_moved_beta_entry():
    """On the corpus inputs and so(3)."""
    for gd in _gd_inputs() + [build_gd(so3_rep())]:
        _assert_cm_refuses_each_moved_beta_entry(gd)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.one_of(indefinite_abelian_reps(), nilpotent_reps()))
def test_verify_gd_rejects_a_moved_beta_entry_on_generated_reps(rep):
    """On indefinite abelian and 3-step nilpotent d, plain and under a
    dense change of basis: the cocycle and the forms have denominators."""
    _assert_cm_refuses_each_moved_beta_entry(build_gd(rep))


def test_block_checks_refuse_a_component_in_the_wrong_block():
    """The block reads of _assemble_double pass the table it wrote.  They
    refuse a bracket of two h vectors with a component just past h (index
    nh), and a bracket of h with the first vector of d (index nh) with a
    component in h."""
    for rep in (so3_rep(), torus_rep([1, 2]), conjugated_rep(so3_rep(), 7)):
        dbl = double_extend(rep)
        nh, table = dbl.nh, dbl.g.table
        extension._check_blocks(table, nh)
        out_of_h = {**table, (0, nh - 1): {**table.get((0, nh - 1), {}), nh: F(1)}}
        with pytest.raises(ExtensionError, match="^h is not a subalgebra$"):
            extension._check_blocks(out_of_h, nh)
        into_h = {**table, (0, nh): {**table.get((0, nh), {}), nh - 1: F(1)}}
        with pytest.raises(ExtensionError, match=r"^d \+ h\* is not an ideal$"):
            extension._check_blocks(into_h, nh)


# -- validate: once per build, and equal to the loops it replaced ----------

def test_build_gd_validates_once(monkeypatch):
    calls = []
    real = Representation.validate

    def counted(rep):
        calls.append(rep)
        return real(rep)

    monkeypatch.setattr(Representation, "validate", counted)
    for rep in (so3_rep(), lemma_rep("H")):
        calls.clear()
        build_gd(rep)
        assert calls == [rep]
    calls.clear()
    double_extend(a12_rep())
    assert len(calls) == 1


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


VALIDATE_REPS = {"so3": so3_rep, "a12": a12_rep, "gH": lambda: lemma_rep("H"),
                 "torus": lambda: torus_rep([1, 2], [(2, 1), (0, -1), (3, 1), (1, 1)])}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(sorted(VALIDATE_REPS)), st.data(),
       st.fractions(-2, 2, max_denominator=3).filter(bool))
def test_validate_matches_the_loops_on_nudged_pi(name, data, delta):
    rep = VALIDATE_REPS[name]()
    n = rep.d.dim
    i, p, q = (data.draw(st.integers(0, k - 1)) for k in (rep.h.dim, n, n))
    mats = [[list(r) for r in m] for m in rep.mats]
    if p != q and data.draw(st.booleans()):
        # pi(h_i) + g^-1 S stays metric-skew for skew S
        s = linalg.zeros(n, n)
        s[p][q], s[q][p] = delta, -delta
        mats[i] = linalg.mat_add(mats[i], linalg.mat_mul(
            linalg.inverse(rep.d_form.rows()), s))
    else:
        mats[i][p][q] += delta
    broken = replace(rep, mats=tuple(tuple(map(tuple, m)) for m in mats))
    assert broken.validate() == _validate_loops(broken)


def _fresh(alg, form):
    """Copies of alg and form with no integer view cached yet."""
    return LieAlgebra(alg.dim, alg.names, alg.table), BilinearForm(form.matrix)


def _pi_family(rep):
    (d, d_form), (h, _) = _fresh(rep.d, rep.d_form), _fresh(rep.h, rep.h_form)
    return replace(rep, h=h, d=d, d_form=d_form).int_ops, h, d_form, d


def _mu_family(rep):
    gd = build_gd(rep)
    (alg, metric), (h, _) = _fresh(gd.L, gd.metric), _fresh(rep.h, rep.h_form)
    return core._integral(gd.mu_data), h, metric, alg


@pytest.mark.parametrize("family", [_pi_family, _mu_family])
@pytest.mark.parametrize("rep", [so3_rep, lambda: conjugated_rep(torus_rep([1, 2, 3]), 5)],
                         ids=["so3", "dense_torus3"])
def test_action_faults_scales_each_family_once(family, rep, monkeypatch):
    """The operators come scaled once for the whole family; each run makes
    one skew sweep and one Leibniz sweep over all of them, not a pair per
    operator; and the form, the bracket and the bracket of h are scaled
    once each, by the views cached on them, however many runs read them."""
    args = family(rep())
    integral = _count_calls(monkeypatch, core, "_integral")
    sweeps = [_count_calls(monkeypatch, core, name) for name in ("_skew", "_leibniz")]
    for _ in range(2):
        assert list(extension._action_faults(*args)) == []
    assert len(integral) == 3
    assert [len(calls) for calls in sweeps] == [2, 2]


def test_validate_reports_each_fault_of_a_family_in_order():
    """gH's d with a two-dimensional abelian h: pi(a) = g^-1 S is skew but
    not a derivation, pi(b) = diag(2, 1, 1, 1, 0), the grading, is a
    derivation but not skew, and the two do not commute."""
    d, g = corpus._a12_reference_basis(), corpus._a12_skew_metric()
    s = linalg.zeros(5, 5)
    s[0][1], s[1][0] = F(1), F(-1)
    skew = linalg.mat_mul(linalg.inverse(g.rows()), s)
    grading = [[F(w) if p == q else F(0) for q in range(5)]
               for p, w in enumerate((2, 1, 1, 1, 0))]
    rep = Representation(LieAlgebra.abelian(2, names=("a", "b")),
                         BilinearForm.diagonal([1, 1]), d, g,
                         (tuple(map(tuple, skew)), tuple(map(tuple, grading))))
    assert rep.validate() == ["pi(a)_not_derivation", "pi(b)_not_skew",
                              "pi_not_homomorphism(a,b)"]
    assert rep.validate() == _validate_loops(rep)


# -- reductive_split, kostant_form and canonical_connection against their
# former per-bracket bodies, which decompose each bracket by its own solve

def _decompose(h_sub, m_sub, v):
    """Coefficients of v in the stacked (h | m) basis, or None."""
    basis = h_sub.basis() + m_sub.basis()
    return linalg.solve(linalg.transpose(basis), list(v))


def _combine(basis, coeffs, ambient_dim):
    out = linalg.zero_vector(ambient_dim)
    for c, b in zip(coeffs, basis):
        out = vec_add(out, linalg.vec_scale(c, b))
    return out


def _reductive_split_oracle(g_alg, form, h_sub):
    """reductive_split with the naturally reductive condition written as the
    literal loop that decomposes [x, y] and [x, z] for every (x, y, z)."""
    gram = [[form.apply(u, v) for v in h_sub.basis()] for u in h_sub.basis()]
    if linalg.signature_of(gram)[2] != 0:
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


def _random_symmetric_form(n, rng):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j or rng.random() < 0.3:
                m[i][j] = m[j][i] = rng.randint(-2, 2)
    return BilinearForm(tuple(map(tuple, m)))


@pytest.mark.parametrize("name", corpus_list())
def test_reductive_split_matches_the_triple_loop(name):
    dbl = double_extend(corpus_build(name).rep)
    rng = random.Random(name)
    forms = [dbl.Q_minus, dbl.Q] + [_random_symmetric_form(dbl.g.dim, rng)
                                    for _ in range(4)]
    outcomes = set()
    for form in forms:
        try:
            want = _reductive_split_oracle(dbl.g, form, dbl.h_sub)
        except ExtensionError:
            with pytest.raises(ExtensionError):
                reductive_split(dbl.g, form, dbl.h_sub)
            continue
        assert reductive_split(dbl.g, form, dbl.h_sub) == want
        outcomes.add(want.checks[-1][2])
    assert outcomes == {None, "naturally reductive condition fails"}


# -- int_beta against the cocycle evaluated pair by pair -------------------

def _beta_reps():
    reps = {name: corpus_build(name).rep for name in corpus_list()}
    reps["so3"] = so3_rep()
    reps["torus"] = torus_rep([1, 2], [(2, 1), (0, -1), (3, 1), (1, 1)])
    for seed, name in enumerate(sorted(reps)):
        reps[f"{name}, dense"] = conjugated_rep(reps[name], seed)
    return reps


def test_int_beta_is_the_cocycle_on_basis_pairs():
    """int_beta divided by its scale is beta(e_a, e_b), evaluated densely,
    on the corpus, so(3), a permuted torus and each of them under a dense
    change of basis of d; its entries are ints."""
    for name, rep in _beta_reps().items():
        unit, (beta, s) = linalg.identity(rep.d.dim), rep.int_beta
        assert all(type(x) is int for v in beta.values() for x in v.values()), name
        for a, b in product(range(rep.d.dim), repeat=2):
            v = beta.get((a, b), {})
            assert [F(v.get(k, 0), s) for k in range(rep.h.dim)] == rep.beta(
                unit[a], unit[b]), name


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
        alpha, = linalg.coordinates(hbar.rows, [s_ab])
        for (c, d) in pairs:
            s_cd = s_vectors[(c, d)]
            gamma, = linalg.coordinates(hbar.rows, [s_cd])
            w1 = g_alg.bracket(mb[a], s_cd)
            m1 = linalg.coordinates(m_sub.rows, [w1])
            if m1 is None:
                raise KostantError("[m, h] escapes m")
            add_equation(alpha, gamma, -inner_pair(m1[0], b))
            w2 = g_alg.bracket(mb[c], s_ab)
            m2 = linalg.coordinates(m_sub.rows, [w2])
            if m2 is None:
                raise KostantError("[m, h] escapes m")
            add_equation(alpha, gamma, -inner_pair(m2[0], d))

    if unknowns:
        sol = linalg.solve(rows, rhs) if rows else [F(0)] * len(unknowns)
        if sol is None:
            raise KostantError("not naturally reductive data")
    else:
        sol = []

    qh = linalg.zeros(r, r)
    for (p, q), i in uindex.items():
        qh[p][q] = sol[i]
        qh[q][p] = sol[i]
    basis = [list(v) for v in mb] + hbar.basis()
    n = len(basis)
    qm = linalg.zeros(n, n)
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
                   linalg.signature_of(qh)[2] == 0 if r else True, None))
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
                zc = linalg.coordinates(m_sub.rows, [z])
                if zc is None:
                    raise ExtensionError("[h, m] escapes m")
                cur[a, b, c] = {p: -x for p, x in enumerate(zc[0])}
    return Tensor(k, 2, tor), Tensor(k, 3, cur)


@lru_cache(maxsize=1)
def _split_inputs():
    """(g, h, m, Gram matrix of the metric on m): the doubles of the corpus,
    so(3) on R^3 and a permuted torus, each also under a dense change of
    basis of d, split by Q_minus; and the symmetric pairs so(3) / so(2)
    and so(4) / so(3)."""
    out = {}
    for name, rep in _beta_reps().items():
        dbl = double_extend(rep)
        m = orthogonal_complement(dbl.h_sub, dbl.Q_minus)
        gram = tuple(tuple(dbl.Q_minus.apply(u, v) for v in m.basis())
                     for u in m.basis())
        out[name] = (dbl.g, dbl.h_sub, m, BilinearForm(gram))
    so3 = LieAlgebra(3, None, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    out["so3 / so2"] = (so3, Subspace.span([[0, 0, 1]], 3),
                        Subspace.span([[1, 0, 0], [0, 1, 0]], 3),
                        BilinearForm.diagonal([1, 1]))
    # so(4) on the basis E_ij - E_ji, i < j, in lexicographic order; h is
    # so(3) on the first three coordinates
    idx = list(combinations(range(4), 2))
    units = []
    for i, j in idx:
        u = linalg.zeros(4, 4)
        u[i][j], u[j][i] = F(1), F(-1)
        units.append(u)
    table = {}
    for a, b in combinations(range(6), 2):
        c = commutator(units[a], units[b])
        table[a, b] = {k: c[i][j] for k, (i, j) in enumerate(idx) if c[i][j]}
    eye, so4 = linalg.identity(6), LieAlgebra(6, None, table)
    assert not check_jacobi(so4)
    out["so4 / so3"] = (so4,
                        Subspace.span([eye[0], eye[1], eye[3]], 6),
                        Subspace.span([eye[2], eye[4], eye[5]], 6),
                        BilinearForm.diagonal([1, 1, 1]))
    return out


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ExtensionError, KostantError) as exc:
        return type(exc), str(exc)


def test_kostant_form_and_canonical_connection_match_the_oracles():
    kinds = set()
    for name, (g, h, m, inner) in _split_inputs().items():
        got = _outcome(kostant_form, g, h, m, inner)
        assert got == _outcome(_kostant_form_oracle, g, h, m, inner), name
        kinds.add(type(got))
        assert _outcome(canonical_connection, g, h, m) == \
            _outcome(_canonical_connection_oracle, g, h, m), name
    assert kinds == {KostantResult}


def test_kostant_form_reports_an_unclosed_gbar_as_the_oracle_does():
    """On a Lie algebra gbar = m + [m, m]_h is closed, by Jacobi.  This
    bracket breaks Jacobi at (e1, e2, e3): [m, m]_h spans hbar = <e0, e1>
    and [e0, e1] = e4 leaves gbar, which both routes report."""
    g = LieAlgebra(6, None, {(2, 3): {0: 1}, (2, 5): {1: F(2, 3)}, (0, 1): {4: 1}})
    eye = linalg.identity(6)
    h = Subspace.span([eye[0], eye[1], eye[4]], 6)
    m = Subspace.span([eye[2], eye[3], eye[5]], 6)
    inner = BilinearForm.diagonal([1, -1, F(1, 2)])
    got = kostant_form(g, h, m, inner)
    assert got == _kostant_form_oracle(g, h, m, inner)
    assert ("gbar_closed", False, None) in got.checks


NUDGES = st.sampled_from([F(1), F(-1), F(1, 2), F(-3, 5), F(7), F(2) ** 40])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_kostant_form_matches_the_oracle_on_perturbed_grams(data):
    """The Gram matrix of the metric on m plus drawn symmetric nudges, or a
    drawn multiple of it: kostant_form accepts and refuses exactly where
    the solve of the full bracket-transfer system did, and on acceptance
    returns the same result."""
    name = data.draw(st.sampled_from(sorted(_split_inputs())))
    g, h, m, inner = _split_inputs()[name]
    n = inner.dim
    gram = [list(r) for r in inner.matrix]
    if data.draw(st.booleans()):
        c = data.draw(NUDGES)
        gram = [[c * x for x in r] for r in gram]
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        c = data.draw(NUDGES)
        gram[i][j] += c
        if i != j:
            gram[j][i] += c
    inner = BilinearForm(tuple(map(tuple, gram)))
    assert _outcome(kostant_form, g, h, m, inner) == \
        _outcome(_kostant_form_oracle, g, h, m, inner), name


def test_split_refusals_match_the_oracles():
    """so(3) with h = span{L3}: a complement that [h, m] leaves, and a
    second subspace that meets h, are refused by kostant_form and
    canonical_connection with the messages of the oracles; so(4) / so(3)
    with a form on m that is not invariant is refused by kostant_form."""
    so3 = LieAlgebra(3, None, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    h = Subspace.span([[0, 0, 1]], 3)
    inner = BilinearForm.diagonal([1, 1])
    cases = [(Subspace.span([[1, 0, 0], [0, 1, 1]], 3),
              "[h, m] is not contained in m", "[h, m] escapes m"),
             (Subspace.span([[1, 0, 0], [0, 0, 1]], 3),
              "g is not the direct sum of h and m", None)]
    for m, kostant_msg, canonical_msg in cases:
        got = _outcome(kostant_form, so3, h, m, inner)
        assert got == (KostantError, kostant_msg)
        assert got == _outcome(_kostant_form_oracle, so3, h, m, inner)
        got = _outcome(canonical_connection, so3, h, m)
        if canonical_msg:
            assert got == (ExtensionError, canonical_msg)
            assert got == _outcome(_canonical_connection_oracle, so3, h, m)
        else:
            assert got == (ExtensionError, kostant_msg)
    # so(4) / so(3): the three bracket projections are a basis of h, so
    # the bracket-transfer system is consistent exactly when V = V^T
    g, h, m, _ = _split_inputs()["so4 / so3"]
    inner = BilinearForm(((1, 0, 1), (0, 1, 0), (1, 0, 2)))
    got = _outcome(kostant_form, g, h, m, inner)
    assert got == (KostantError, "not naturally reductive data")
    assert got == _outcome(_kostant_form_oracle, g, h, m, inner)


def test_kostant_pair_refuses_a_vector_outside_gbar():
    """R^2 with h = <e0> and m = <e1>: [m, m] = 0, so hbar = 0 and gbar = m;
    pair reads the form on m and refuses e0."""
    h, m = Subspace.span([[1, 0]], 2), Subspace.span([[0, 1]], 2)
    res = kostant_form(LieAlgebra.abelian(2), h, m, BilinearForm.diagonal([3]))
    assert res.all_pass and res.gbar == m
    assert res.pair([0, 2], [0, 1]) == 6
    with pytest.raises(KostantError, match="vector outside gbar"):
        res.pair([0, 1], [1, 0])


@pytest.mark.parametrize("name", ["so4 / so3", "gH"])
def test_split_routines_make_a_fixed_number_of_eliminations(name, monkeypatch):
    """reductive_split makes one linalg.coordinates call, kostant_form three
    (the split, the [m_a, s_cd] brackets and the closure of gbar) and
    canonical_connection two (the [m_a, m_b] and the [h part, m_c]),
    whatever dim m is: not one per pair of basis vectors."""
    if name == "gH":
        dbl = double_extend(corpus_build(name).rep)
        g, form, h = dbl.g, dbl.Q_minus, dbl.h_sub
    else:
        g, h, _, _ = _split_inputs()[name]
        form = BilinearForm.diagonal([1] * 6)
    calls = _count_calls(monkeypatch, linalg, "coordinates")
    split = reductive_split(g, form, h)
    counts = [len(calls)]
    res = kostant_form(g, h, split.m, split.gram)
    counts.append(len(calls))
    canonical_connection(g, h, split.m)
    counts.append(len(calls))
    assert split.all_pass and res.all_pass and split.m.dim >= 3
    assert counts == [1, 1 + 3, 1 + 3 + 2]


# -- _assemble_double: Q and the difference form against both sweeps ------

def _two_sweep_verdict(rep):
    """Q and Q_minus each swept by ad_invariant.  The bracket of the double
    does not read the form on h, so it is taken from the same data with the
    zero form there; Q and Q_minus then put +-<,>_h on the h x h block."""
    nh = rep.h.dim
    zero = BilinearForm(tuple(tuple(F(0) for _ in range(nh)) for _ in range(nh)))
    base = extension._assemble_double(replace(rep, h_form=zero))
    w = rep.h_form.rows()
    verdict = True
    for sign in (1, -1):
        m = [list(r) for r in base.Q.matrix]
        for i in range(nh):
            for j in range(nh):
                m[i][j] = sign * w[i][j]
        verdict = verdict and ad_invariant(base.g, BilinearForm(tuple(map(tuple, m))))
    return verdict


def _assemble_verdict(rep):
    try:
        extension._assemble_double(rep)
    except ExtensionError as exc:
        assert str(exc) == "constructed metric is not ad-invariant"
        return False
    return True


def test_assemble_double_matches_the_two_sweeps():
    """Every corpus builder, plain and under a dense change of basis of d,
    and so(3) with invariant and non-invariant forms on h, the latter
    passed to _assemble_double without validate."""
    reps = []
    for seed, name in enumerate(corpus_list()):
        rep = corpus_build(name).rep
        reps += [rep, conjugated_rep(rep, seed)]
    rejected = 0
    for diag in ((1, 1, 1), (-2, -2, -2), (1, 2, 3), (1, 1, -1)):
        for seed in (None, 7):
            rep = replace(so3_rep(), h_form=BilinearForm.diagonal(diag))
            rep = conjugated_rep(rep, seed) if seed else rep
            assert (not rep.validate()) == (len(set(diag)) == 1)
            reps.append(rep)
    for rep in reps:
        verdict = _assemble_verdict(rep)
        assert verdict == _two_sweep_verdict(rep)
        rejected += not verdict
    assert rejected == 4


# -- the sparse assembly against the dense block assembly it replaced -----

def _block_vector(parts):
    out = []
    for p in parts:
        out.extend(p)
    return out


def _dense_assembly(rep):
    """The table, Q, Q_minus and h block of the double extension, and the
    table of d + h*, from one dense block vector per basis pair."""
    nh, nd = rep.h.dim, rep.d.dim
    n, unit = 2 * nh + nd, linalg.identity(nd)
    table = {}

    def put(table, i, j, vec):
        comps = {k: c for k, c in enumerate(vec) if c != 0}
        if comps:
            table[(i, j)] = comps

    hs = lambda k: nh + nd + k
    for i, j in combinations(range(nh), 2):
        put(table, i, j, _block_vector([rep.h.basis_bracket(i, j), [F(0)] * (nd + nh)]))
    for i in range(nh):
        adh = rep.h.ad(i)
        for b in range(nd):
            col = [rep.mats[i][p][b] for p in range(nd)]
            put(table, i, nh + b, _block_vector([[F(0)] * nh, col, [F(0)] * nh]))
        # coadjoint: (ad*(h_i) delta_k)(h_m) = -delta_k([h_i, h_m])
        for k in range(nh):
            cov = [-adh[k][m] for m in range(nh)]
            put(table, i, hs(k), _block_vector([[F(0)] * (nh + nd), cov]))
    for a, b in combinations(range(nd), 2):
        put(table, nh + a, nh + b, _block_vector(
            [[F(0)] * nh, rep.d.basis_bracket(a, b), rep.beta(unit[a], unit[b])]))

    w = rep.h_form.rows()
    forms = []
    for sign in (1, -1):
        qm = linalg.zeros(n, n)
        for i in range(nh):
            for j in range(nh):
                qm[i][j] = sign * w[i][j]
            qm[i][hs(i)] = qm[hs(i)][i] = F(1)
        for a in range(nd):
            for b in range(nd):
                qm[nh + a][nh + b] = rep.d_form.matrix[a][b]
        forms.append(BilinearForm(tuple(tuple(r) for r in qm)))
    h_sub = Subspace.span(linalg.identity(n)[:nh], n)

    gd_table = {}
    winv = linalg.inverse(w)
    for a, b in combinations(range(nd), 2):
        put(gd_table, a, b, list(rep.d.basis_bracket(a, b))
            + linalg.mat_vec(winv, rep.beta(unit[a], unit[b])))
    return table, forms, h_sub, gd_table


def _assert_sparse_assembly_is_the_dense_one(rep):
    table, (q, q_minus), h_sub, gd_table = _dense_assembly(rep)
    dbl = double_extend(rep)
    assert dbl.g.table == table
    assert (dbl.Q, dbl.Q_minus) == (q, q_minus)
    assert dbl.h_sub == h_sub
    assert build_gd(rep).L.table == gd_table


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(torus_reps(), so3_block_reps()))
def test_sparse_assembly_matches_the_dense_one_on_generated_reps(rep):
    _assert_sparse_assembly_is_the_dense_one(rep)


def test_sparse_assembly_matches_the_dense_one_on_conjugated_builders():
    """Every corpus builder, plain and under dense changes of basis of d."""
    for seed, name in enumerate(corpus_list()):
        rep = corpus_build(name).rep
        for r in (rep, conjugated_rep(rep, seed), conjugated_rep(rep, seed + 50)):
            _assert_sparse_assembly_is_the_dense_one(r)
