from fractions import Fraction as F
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from adinvar import (HomStructure, build_gd, build_hom_structure,
                     nilmanifold_t_formula, t_tensor, verify_as)
from adinvar import core
from adinvar.geometry import Tensor
from adinvar.homstructure import nabla_tilde_closed
from conftest import (T_MINUS, T_PLUS, a12_rep, conjugated_rep, h3_rep, so3_rep,
                      torus_rep, torus_reps, two_torus_rep)

from corpus_help import lemma_rep
from oracles import _verify_as_oracle
from test_corpus import _count_calls


def test_t_tensor_h3_values():
    gd = build_gd(h3_rep([1, 1], T_PLUS, 1))
    t = t_tensor(gd)
    # T_{z*} e1 = pi(z) e1 / 2 = e2/2
    assert t.entry(2, 0) == [F(0), F(1, 2), F(0)]
    # T_{e1} e2 = [e1,e2]/2 = e3/2
    assert t.entry(0, 1) == [F(0), F(0), F(1, 2)]


def test_t_tensor_antisymmetric_and_hstar_bracket():
    gd = build_gd(so3_rep())
    t = t_tensor(gd)
    n = gd.L.dim
    for i in range(n):
        assert t.entry(i, i) == [F(0)] * n
        for j in range(n):
            assert t.entry(i, j) == [-x for x in t.entry(j, i)]
    # T on two h* vectors is the h-bracket pushed through ell
    want = gd.embed_h(gd.rep.h.basis_bracket(0, 1))
    assert t.entry(3, 4) == want


def test_t_tensor_zero_for_trivial_action():
    from adinvar import Representation, LieAlgebra, BilinearForm
    rep = Representation(
        LieAlgebra.abelian(1), BilinearForm.diagonal([1]),
        LieAlgebra.abelian(2), BilinearForm.diagonal([1, 1]),
        (((0, 0), (0, 0)),))
    gd = build_gd(rep)
    t = t_tensor(gd)
    assert all(t.entry(i, j) == [F(0)] * 3 for i in range(3) for j in range(3))
    assert verify_as(gd).all_pass


def test_nabla_tilde_matches_closed_form():
    for rep in (h3_rep([1, 1], T_PLUS, 1), h3_rep([-1, 1], T_MINUS, -1),
                so3_rep(), two_torus_rep(), a12_rep(), lemma_rep("H")):
        gd = build_gd(rep)
        assert build_hom_structure(gd).nabla_tilde == nabla_tilde_closed(gd)


def test_verify_as_reads_the_int_views_of_a_built_structure(monkeypatch):
    """T, nabla~ and R are read through the int views that the routes hand
    to their Tensors, and nabla~ = T - nabla is formed on the views: on a
    built structure verify_as scales nothing to ints."""
    gd = build_gd(conjugated_rep(so3_rep(), 3))
    hom = build_hom_structure(gd)
    calls = _count_calls(monkeypatch, core.View, "of_rational")
    assert verify_as(gd, hom).all_pass
    assert calls == []


def test_verify_as_passes_everywhere():
    for rep in (h3_rep([1, 1], T_PLUS, 1), h3_rep([1, 1], T_PLUS, -1),
                h3_rep([-1, 1], T_MINUS, 1), h3_rep([-1, 1], T_MINUS, -1),
                so3_rep(), two_torus_rep(), a12_rep(),
                lemma_rep("H"), lemma_rep("E"), lemma_rep("F")):
        report = verify_as(build_gd(rep))
        assert report.all_pass, report.checks


def test_corrupted_t_located_by_axiom_iii():
    gd = build_gd(h3_rep([1, 1], T_PLUS, 1))
    hom = build_hom_structure(gd)
    bad_t = _nudged(hom.T, (2, 0, 1), F(1, 3))  # perturb T_{e3} e1
    broken = HomStructure(bad_t, hom.nabla, hom.R)
    report = verify_as(gd, broken)
    got = {c.name: (c.ok, c.witness) for c in report.checks}
    want = _verify_as_oracle(gd, broken)
    assert got == want and list(got) == list(want)
    ok, witnesses = got["iii"]
    assert not ok
    assert any(2 in w and 0 in w for w in witnesses)
    assert not report.all_pass


def test_nilmanifold_formula_matches_iff_d_abelian():
    gd = build_gd(h3_rep([1, 1], T_PLUS, 1))
    assert nilmanifold_t_formula(gd) == build_hom_structure(gd).T
    gd2 = build_gd(two_torus_rep())
    assert nilmanifold_t_formula(gd2) == build_hom_structure(gd2).T
    gd3 = build_gd(lemma_rep("H"))  # d nonabelian: the formulas differ
    assert nilmanifold_t_formula(gd3) != build_hom_structure(gd3).T


@settings(derandomize=True, max_examples=15, deadline=None)
@given(torus_reps())
def test_verify_as_passes_on_generated_tori(rep):
    assert verify_as(build_gd(rep)).all_pass


# ---------------------------------------------------------------------------
# verify_as against the basis-tuple sweep it replaced, on broken structures
# ---------------------------------------------------------------------------

BROKEN_REPS = {"h3": lambda: h3_rep([1, 1], T_PLUS, 1), "so3": so3_rep,
               "torus": lambda: torus_rep([1, 2], [(1, 1), (3, -1), (0, 1), (2, 1)])}


@lru_cache(maxsize=None)
def _hom(name):
    gd = build_gd(BROKEN_REPS[name]())
    return gd, build_hom_structure(gd)


def _nudged(tensor, index, delta):
    """A copy of a Tensor with one coefficient moved by delta; index is the
    basis tuple followed by the output coordinate."""
    data = {idx: dict(comps) for idx, comps in tensor.data.items()}
    comps = data.setdefault(index[:-1], {})
    comps[index[-1]] = comps.get(index[-1], F(0)) + delta
    return Tensor(tensor.dim, tensor.slots, data)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.sampled_from(sorted(BROKEN_REPS)), st.sampled_from(["T", "nabla", "R"]),
       st.data(), st.fractions(-3, 3, max_denominator=4).filter(bool))
def test_verify_as_witnesses_match_sweep_on_broken_structures(name, part, data,
                                                                delta):
    gd, hom = _hom(name)
    n = gd.L.dim
    slots = 4 if part == "R" else 3
    index = tuple(data.draw(st.integers(0, n - 1)) for _ in range(slots))
    if part == "T":
        broken = HomStructure(_nudged(hom.T, index, delta), hom.nabla, hom.R)
    elif part == "nabla":
        broken = HomStructure(hom.T, _nudged(hom.nabla, index, delta), hom.R)
    else:
        broken = HomStructure(hom.T, hom.nabla, _nudged(hom.R, index, delta))
    report = verify_as(gd, broken)
    assert ({c.name: (c.ok, c.witness) for c in report.checks}
            == _verify_as_oracle(gd, broken))
