"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
go by.  Every equality is exact rational arithmetic, no tolerances.
"""

from fractions import Fraction as F
from itertools import product

from adinvar import (BilinearForm, ad_invariant, bi_invariant_curvature_check,
                     build_gd, center, check_pair_symmetry, corpus_build,
                     corpus_list, curvature, curvature_gd, double_extend, heisenberg_recognizer, induced_so_aut_pair,
                     inner_derivations, invariant_forms, kernel_of,
                     killing_form, kostant_form, levi_civita, levi_civita_gd,
                     lower_central_series, plane_discriminant,
                     predict_nilpotent_step, profile, reductive_split,
                     restrict_to_subalgebra, ricci_operator, sectional,
                     skew_derivations, so_aut, verify_as)
from adinvar import linalg
from conftest import T_MINUS, T_PLUS, a12_rep, h3_rep, so3_rep, two_torus_rep
from oracles import mat_add, mat_scale, signature_of, zeros


def conclude(number, label, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} ({label}): {mark}"
    if detail and not ok:
        line += f"  [{detail}]"
    print(line)
    assert ok, detail or label


def test_criterion_01_heisenberg_reconstruction():
    cases = [
        (h3_rep([1, 1], T_PLUS, 1), [1, 1, 1]),
        (h3_rep([1, 1], T_PLUS, -1), [1, 1, -1]),
        (h3_rep([-1, 1], T_MINUS, 1), [-1, 1, 1]),
        (h3_rep([-1, 1], T_MINUS, -1), [-1, 1, -1]),
    ]
    ok = True
    detail = ""
    for rep, diag in cases:
        gd = build_gd(rep)
        rec = heisenberg_recognizer(gd)
        table = {k: dict(v) for k, v in gd.L.table.items()}
        sigma = F(diag[2])
        structure_ok = (gd.L.dim == 3
                        and table == {(0, 1): {2: sigma}}
                        and rec.kind == "heisenberg"
                        and rec.center_matches)
        metric_ok = gd.metric == BilinearForm.diagonal(diag)
        axioms = verify_as(gd)
        if not (structure_ok and metric_ok and axioms.all_pass):
            ok = False
            detail = f"case {diag}: structure={structure_ok} metric={metric_ok} " \
                     f"axioms={axioms.all_pass}"
            break
    conclude(1, "heisenberg reconstruction", ok, detail)


def test_criterion_02_a12_golden_match():
    dbl = double_extend(a12_rep())
    table = {k: dict(v) for k, v in dbl.g.table.items()}
    want = {
        (0, 1): {2: F(1)},
        (0, 2): {1: F(1), 3: F(-1)},
        (0, 3): {2: F(1)},
        (1, 2): {4: F(1)},
        (2, 3): {4: F(-1)},
    }
    q_want = ((F(1), F(0), F(0), F(0), F(1)),
              (F(0), F(-1), F(0), F(0), F(0)),
              (F(0), F(0), F(1), F(0), F(0)),
              (F(0), F(0), F(0), F(1), F(0)),
              (F(1), F(0), F(0), F(0), F(0)))
    ok = (table == want and dbl.Q.matrix == q_want
          and ad_invariant(dbl.g, dbl.Q)
          and dbl.Q.signature == (2, 3, 0)
          and lower_central_series(dbl.g).step == 3)
    conclude(2, "free 3-step golden match", ok,
             f"table={table == want} sig={dbl.Q.signature}")


def test_criterion_03_skew_derivation_family():
    alg = corpus_build("gH").rep.d
    family = invariant_forms(alg)
    grid = [F(-1), F(0), F(1)]
    ok = len(family) == 4
    detail = f"family dim {len(family)}"
    checked = 0
    for coeffs in product(grid, repeat=len(family)):
        mat = zeros(alg.dim, alg.dim)
        for c, f in zip(coeffs, family):
            if c:
                mat = mat_add(mat, mat_scale(c, f.rows()))
        form = BilinearForm(tuple(tuple(r) for r in mat))
        if not form.nondegenerate:
            continue
        checked += 1
        sk = skew_derivations(alg, form)
        inn = inner_derivations(alg)
        pin = profile(inn)
        psk = profile(sk)
        radical = kernel_of(killing_form(sk.closure).rows())
        rad_alg = restrict_to_subalgebra(sk.closure, radical)
        prad = {
            "dim": radical.dim,
            "step": lower_central_series(rad_alg).step,
            "center": center(rad_alg).dim,
        }
        good = (sk.dim == 6 and inn.dim == 3
                and pin["dim"] == 3 and pin["lower_central_dims"] == (3, 1, 0)
                and pin["center_dim"] == 1
                and psk["derived_dims"] == (6,)              # perfect
                and prad == {"dim": 3, "step": 2, "center": 1})
        if not good:
            ok = False
            detail = f"failure at coefficients {coeffs}: sk={sk.dim} inn={inn.dim}"
            break
    else:
        ok = ok and checked > 0
        detail += f", {checked} nondegenerate members checked"
    conclude(3, "skew derivations across the invariant family", ok, detail)


def test_criterion_04_four_step_extensions():
    ok = True
    detail = ""
    for name in ("gH", "gE", "gF"):
        entry = corpus_build(name)
        gd = build_gd(entry.rep)
        ser = lower_central_series(gd.L)
        rpt = predict_nilpotent_step(gd)
        good = (gd.L.dim == 6 and ser.step == 4
                and ser.chain[3].dim == 1 and ser.chain[4].dim == 0
                and rpt.step_gd_predicted == 4 == rpt.step_gd_computed)
        if not good:
            ok = False
            detail = f"{name}: dims={ser.dims} predicted={rpt.step_gd_predicted}"
            break
    conclude(4, "4-step nilpotent extensions", ok, detail)


def test_criterion_05_curvature_cross_validation():
    ok = True
    detail = ""
    for name in corpus_list():
        gd = build_gd(corpus_build(name).rep)
        gamma = levi_civita(gd.L, gd.metric)
        if gamma != levi_civita_gd(gd):
            ok, detail = False, f"{name}: connection closed form"
            break
        r = curvature(gamma, gd.L)
        if r != curvature_gd(gd):
            ok, detail = False, f"{name}: curvature closed form"
            break
        if not check_pair_symmetry(r, gd.metric):
            ok, detail = False, f"{name}: pair symmetry"
            break
    conclude(5, "curvature cross-validation", ok, detail)


def test_criterion_06_sectional_signs():
    ok = True
    detail = ""
    # timelike-center metric: claimed nonpositive on coordinate planes
    gd1 = build_gd(corpus_build("h3_metric_1").rep)
    r1 = curvature(levi_civita(gd1.L, gd1.metric), gd1.L)
    eye = linalg.identity(3)
    for i in range(3):
        for j in range(i + 1, 3):
            if plane_discriminant(gd1.metric, eye[i], eye[j]) == 0:
                continue
            k = sectional(r1, gd1.metric, eye[i], eye[j])
            if k > 0:
                ok = False
                detail = f"metric nr.1 has K(e{i+1},e{j+1}) = {k} > 0"
    # second Lorentzian metric: mixed signs at the stated planes
    gd2 = build_gd(corpus_build("h3_metric_2").rep)
    r2 = curvature(levi_civita(gd2.L, gd2.metric), gd2.L)
    if not (sectional(r2, gd2.metric, eye[0], eye[1]) > 0
            and sectional(r2, gd2.metric, eye[0], eye[2]) < 0):
        ok = False
        detail = "metric nr.2 sign pattern"
    # planes inside h* are flat (needs dim h > 1 to be non-vacuous)
    for rep in (two_torus_rep(), so3_rep()):
        gd = build_gd(rep)
        r = curvature_gd(gd)
        basis = linalg.identity(gd.L.dim)
        for i in range(gd.nd, gd.L.dim):
            for j in range(i + 1, gd.L.dim):
                if plane_discriminant(gd.metric, basis[i], basis[j]) == 0:
                    continue
                if sectional(r, gd.metric, basis[i], basis[j]) != 0:
                    ok = False
                    detail = "nonzero curvature on an h* plane"
    conclude(6, "sectional sign reproduction", ok, detail)


def test_criterion_07_bi_invariant_identity():
    dbl = double_extend(a12_rep())
    r = curvature(levi_civita(dbl.g, dbl.Q), dbl.g)
    ok = bi_invariant_curvature_check(dbl.g, r)
    conclude(7, "bi-invariant curvature identity", ok)


def test_criterion_08_ricci_split():
    ok = True
    detail = ""
    for name in corpus_list():
        entry = corpus_build(name)
        if entry.rep.d.table:
            continue  # only the abelian-d entries
        gd = build_gd(entry.rep)
        op = ricci_operator(curvature_gd(gd), gd.metric)
        nd = gd.nd
        for i in range(nd):
            for j in range(nd, gd.L.dim):
                if op[j][i] != 0 or op[i][j] != 0:
                    ok, detail = False, f"{name}: operator mixes the blocks"
    gd0 = build_gd(corpus_build("h3_metric_0").rep)
    op0 = ricci_operator(curvature_gd(gd0), gd0.metric)
    want = [[F(-1, 2), F(0), F(0)], [F(0), F(-1, 2), F(0)], [F(0), F(0), F(1, 2)]]
    if op0 != want:
        ok, detail = False, f"flat-metric operator {op0}"
    conclude(8, "Ricci block split", ok, detail)


def test_criterion_09_kostant_reconstruction():
    gd = build_gd(corpus_build("oscillator").rep)
    dbl = gd.double
    split = reductive_split(dbl.g, dbl.Q_minus, dbl.h_sub)
    inner = BilinearForm(tuple(
        tuple(dbl.Q_minus.apply(u, v) for v in split.m.basis())
        for u in split.m.basis()))
    res = kostant_form(dbl.g, dbl.h_sub, split.m, inner)
    agrees = all(
        res.pair(list(u), list(v)) == dbl.Q_minus.apply(list(u), list(v))
        for u in res.basis for v in res.basis)
    hbar_gram = [[res.pair(list(u), list(v)) for v in res.hbar.basis()]
                 for u in res.hbar.basis()]
    ok = (split.all_pass and res.all_pass and agrees
          and res.gbar.dim == dbl.g.dim
          and signature_of(hbar_gram)[2] == 0)
    conclude(9, "invariant form reconstruction", ok)


def test_criterion_10_so_aut_dimensions():
    ok = True
    detail = ""
    for rep, label in ((h3_rep([1, 1], T_PLUS, 1), "rotation isotropy"),
                       (h3_rep([-1, 1], T_MINUS, 1), "boost isotropy")):
        gd = build_gd(rep)
        sa = so_aut(gd)
        a, b = induced_so_aut_pair(gd, 0)
        if sa.dim != 1 or not sa.contains(a, b):
            ok = False
            detail = f"{label}: dim={sa.dim}"
    conclude(10, "orthogonal automorphism dimensions", ok, detail)
