import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from adinvar import (BilinearForm, LieAlgebra, Representation, Subspace,
                     build_gd, center, heisenberg_recognizer, kernel_of,
                     lower_central_series, predict_nilpotent_step,
                     predict_solvable_step, SeriesError)
from adinvar import linalg
from conftest import (T_MINUS, T_PLUS, a12_rep, h3_rep, indefinite_abelian_reps,
                      nilpotent_reps)
from corpus_help import lemma_rep
from oracles import dense, zeros


def test_solvable_prediction_heisenberg(oscillator_rep):
    rpt = predict_solvable_step(build_gd(oscillator_rep))
    assert rpt.kind == "solvable"
    assert rpt.step_d == 1
    assert rpt.step_gd_predicted == 2 == rpt.step_gd_computed
    assert rpt.witness.dim == 1


def test_solvable_prediction_trivial_action():
    rep = Representation(
        LieAlgebra.abelian(1), BilinearForm.diagonal([1]),
        LieAlgebra.abelian(2), BilinearForm.diagonal([1, 1]),
        (((0, 0), (0, 0)),))
    rpt = predict_solvable_step(build_gd(rep))
    assert rpt.step_gd_predicted == 1 == rpt.step_gd_computed
    assert rpt.witness.dim == 0


def test_solvable_prediction_four_step():
    rpt = predict_solvable_step(build_gd(lemma_rep("H")))
    assert rpt.step_d == 2
    assert rpt.step_gd_predicted == rpt.step_gd_computed == 2


def test_solvable_rejects_non_solvable():
    from conftest import so3_rep
    rep = so3_rep()
    with pytest.raises(SeriesError):
        predict_solvable_step(build_gd(
            Representation(rep.d, rep.d_form, rep.h, rep.h_form,
                           tuple(tuple(map(tuple, zeros(3, 3)))
                                 for _ in range(3)))))


def test_nilpotent_prediction_abelian_base(oscillator_rep):
    rpt = predict_nilpotent_step(build_gd(oscillator_rep))
    assert rpt.step_d == 1
    assert rpt.step_gd_predicted == 2 == rpt.step_gd_computed
    assert not rpt.corrected_index_test
    assert rpt.naive_index_test  # vacuous: D^1 of an abelian algebra is zero


def test_nilpotent_prediction_four_step_examples():
    for key in "HEF":
        rep = lemma_rep(key)
        rpt = predict_nilpotent_step(build_gd(rep))
        assert rpt.step_d == 3
        assert rpt.step_gd_predicted == 4 == rpt.step_gd_computed
        assert not rpt.corrected_index_test
        # the index-k containment is vacuously true, hence uninformative
        assert rpt.naive_index_test
        assert rpt.witness.dim == 1


def test_nilpotent_witness_vector():
    # D^2(d) contains e1 - e3 and H(e1-e3) = -(e1-e3) != 0
    rep = lemma_rep("H")
    dser = lower_central_series(rep.d)
    d2 = dser.chain[2]
    assert d2.contains([F(0), F(1), F(0), F(-1), F(0)])
    h = rep.mat(0)
    v = [F(0), F(1), F(0), F(-1), F(0)]
    assert linalg.mat_vec(h, v) == [F(0), F(-1), F(0), F(1), F(0)]


def test_step_is_k_or_k_plus_one():
    reps = [h3_rep([1, 1], T_PLUS, 1), h3_rep([-1, 1], T_MINUS, -1),
            a12_rep(), lemma_rep("H"), lemma_rep("E"), lemma_rep("F")]
    for rep in reps:
        rpt = predict_nilpotent_step(build_gd(rep))
        assert rpt.step_gd_computed in (rpt.step_d, rpt.step_d + 1)
        assert rpt.consistent


def test_recognizer_nonsingular():
    rpt = heisenberg_recognizer(build_gd(h3_rep([1, 1], T_PLUS, 1)))
    assert rpt.kind == "heisenberg"
    assert rpt.heisenberg_dim == 3
    assert rpt.center_matches
    a22 = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    rep = Representation(
        LieAlgebra.abelian(1), BilinearForm.diagonal([1]),
        LieAlgebra.abelian(4), BilinearForm.diagonal([-1, -1, 1, 1]), (a22,))
    rpt = heisenberg_recognizer(build_gd(rep))
    assert rpt.kind == "heisenberg" and rpt.heisenberg_dim == 5


def test_recognizer_central_extension():
    rpt = heisenberg_recognizer(build_gd(a12_rep()))
    assert rpt.kind == "central_extension"
    assert rpt.heisenberg_dim == 3
    assert rpt.indecomposable
    assert rpt.center_matches


def test_recognizer_zero_map():
    rep = Representation(
        LieAlgebra.abelian(1), BilinearForm.diagonal([1]),
        LieAlgebra.abelian(2), BilinearForm.diagonal([1, 1]),
        (((0, 0), (0, 0)),))
    rpt = heisenberg_recognizer(build_gd(rep))
    assert rpt.kind == "abelian"
    assert not rpt.indecomposable


def test_recognizer_requires_abelian_rank_one():
    with pytest.raises(SeriesError):
        heisenberg_recognizer(build_gd(lemma_rep("H")))


def test_center_is_z_plus_kernel_randomized():
    rng = random.Random(20240809)
    gmat = BilinearForm.diagonal([-1, -1, 1, 1])
    ginv = linalg.inverse(gmat.rows())
    produced = 0
    while produced < 10:
        s = zeros(4, 4)
        for i in range(4):
            for j in range(i + 1, 4):
                c = F(rng.randint(-3, 3))
                s[i][j] = c
                s[j][i] = -c
        a = linalg.mat_mul(ginv, s)  # skew for the (2,2) form by construction
        rep = Representation(
            LieAlgebra.abelian(1), BilinearForm.diagonal([1]),
            LieAlgebra.abelian(4), gmat, (tuple(map(tuple, a)),))
        gd = build_gd(rep)
        produced += 1
        expected = Subspace.span(
            [gd.embed_d(v) for v in kernel_of(a).basis()]
            + [gd.embed_h([F(1)])], 5)
        assert center(gd.L) == expected


def test_beta_obstruction_matches_the_cocycle():
    """The obstruction read off the h* parts of gd.L equals the span of
    ell^-1 beta(u, v) computed from pi and the metric of d."""
    from adinvar import corpus_build, corpus_list
    from adinvar.series import _beta_obstruction
    from conftest import so3_rep, torus_rep
    reps = [corpus_build(n).rep for n in corpus_list()]
    torus = torus_rep([1, 2], [(2, 1), (0, -1), (3, 1), (1, 1)])
    reps += [so3_rep(), torus, replace(torus, h_form=BilinearForm(((1, 1), (1, 3))))]
    for rep in reps:
        gd = build_gd(rep)
        full = Subspace.full(rep.d.dim)
        for left, right in ((full, full), (full, lower_central_series(rep.d).chain[1]),
                            (Subspace.span([full.basis()[-1]], rep.d.dim), full)):
            want = Subspace.span(
                [gd.embed_h(linalg.mat_vec(dense(gd.ell_inv, gd.nh), rep.beta(u, v)))
                 for u in left.basis() for v in right.basis()], gd.L.dim)
            assert _beta_obstruction(gd, left, right) == want


def test_nilpotent_prediction_reads_the_common_kernel_of_pi():
    """Two generators: the D^0 containment reads the kernel common to both
    pi(h_1) and pi(h_2), here span{e3, e4} when both rotate the (e1, e2)
    plane and all of d when both act trivially."""
    d, form = LieAlgebra.abelian(4), BilinearForm.diagonal([1, 1, 1, 1])
    rot = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    zero = ((0,) * 4,) * 4
    h = LieAlgebra.abelian(2)
    for mats, corrected in (((rot, rot), False), ((rot, zero), False),
                            ((zero, rot), False), ((zero, zero), True)):
        rep = Representation(h, BilinearForm.diagonal([1, 1]), d, form, mats)
        rpt = predict_nilpotent_step(build_gd(rep))
        assert rpt.corrected_index_test is corrected
        assert rpt.consistent
        assert rpt.step_gd_predicted == (1 if corrected else 2)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(indefinite_abelian_reps() | nilpotent_reps())
def test_predicted_steps_hold_on_generated_data(rep):
    gd = build_gd(rep)
    assert predict_nilpotent_step(gd).consistent
    assert predict_solvable_step(gd).consistent
