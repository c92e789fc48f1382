"""Registry of worked examples used as the golden test surface.

Bracket tables and exact values below were regenerated from the builders.
Annotation strings record commonly quoted hand-display forms in rotated
bases; those are notes, not assertions, and do not all hold verbatim.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import linalg
from .core import (BilinearForm, Check, LieAlgebra, center,
                   kernel_of, lower_central_series, totally_isotropic)
from .extension import Representation, kostant_form, reductive_split
from .geometry import curvature, levi_civita, ricci_operator, sectional
from .homstructure import build_hom_structure, nilmanifold_t_formula, verify_as
from .derivations import intertwiners_skew, so_aut
from .series import heisenberg_recognizer, predict_nilpotent_step

F = Fraction

T_PLUS = ((0, -1), (1, 0))
T_MINUS = ((0, 1), (1, 0))
A22 = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))


def _rep(h_names, h_diag, d_dim, d_diag, mats, h_table=None, d_table=None,
         d_names=None):
    # Jacobi on h and d is checked once, by Representation.validate
    h = LieAlgebra(len(h_diag), h_names, h_table or {})
    d = LieAlgebra(d_dim, d_names, d_table or {})
    return Representation(h, BilinearForm.diagonal(h_diag),
                          d, BilinearForm.diagonal(d_diag), mats)


def _a12_reference_basis():
    """The free 3-step nilpotent algebra on two generators, basis e0..e4;
    Jacobi is checked by Representation.validate."""
    return LieAlgebra(5, ("e0", "e1", "e2", "e3", "e4"), {
        (1, 2): {0: 1},
        (2, 3): {0: -1},
        (1, 4): {2: -1},
        (2, 4): {1: -1, 3: 1},
        (3, 4): {2: -1},
    })


def _a12_skew_metric():
    """Ad-invariant form making the displayed skew derivations skew.

    In the 4-parameter invariant family this is the a = s = u = 0, t = 1
    member; it is the unique choice (up to scale) compatible with all six
    displayed derivations.
    """
    return BilinearForm(((0, 0, 0, 0, 1),
                         (0, 0, 0, 1, 0),
                         (0, 0, 1, 0, 0),
                         (0, 1, 0, 2, 0),
                         (1, 0, 0, 0, 0)))


# The six skew derivations of the derivation lemma in e0..e4 coords, by
# their nonzero entries {(row, column): value}: P M P^-1 for each M
# displayed in the ordered basis {e0, e1-e3, e2, e1, e4}, the columns of P.
_LEMMA = {
    "H": {(0, 0): 1, (1, 1): 1, (1, 3): 2, (3, 3): -1, (4, 4): -1},
    "E": {(0, 3): -1, (1, 4): 1},
    "F": {(1, 0): 1, (3, 0): -1, (4, 1): 1, (4, 3): 1},
    "X": {(0, 2): 1, (2, 4): -1},
    "Y": {(1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 2): -1},
    "Z": {(0, 1): 1, (0, 3): 1, (1, 4): 1, (3, 4): -1},
}


def _lemma_derivations(keys="HEFXYZ"):
    """The derivations of the derivation lemma named by keys, as matrices."""
    return {k: tuple(tuple(F(_LEMMA[k].get((r, q), 0)) for q in range(5)) for r in range(5))
            for k in keys}


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    description: str
    rep: Representation
    expected: dict
    annotations: tuple = ()

    @property
    def primary(self):
        """'double' when the headline algebra is h + d + h*, else 'gd'."""
        return self.expected.get("primary", "gd")

    def checks(self, gd):
        """Run every expectation on ``gd = build_gd(self.rep)``; one Check
        each.  The closed-form connection and curvature are read from one
        homogeneous structure."""
        out = []
        dbl = gd.double
        exp = self.expected
        hom = build_hom_structure(gd)
        lcs = lower_central_series(gd.L)

        # verified by the construction, which raises on a failure
        out += [c for c in dbl.checks
                if c.name in ("Q_ad_invariant", "Q_minus_ad_invariant")]
        rpt = verify_as(gd, hom)
        out.append(Check("ambrose_singer_all", rpt.all_pass, None if rpt.all_pass
                         else str({c.name: c.ok for c in rpt.checks})))
        lc = levi_civita(gd.L, gd.metric)
        out.append(Check("levi_civita_closed_form", lc == hom.nabla))
        out.append(Check("curvature_closed_form", curvature(lc, gd.L) == hom.R))

        if "gd_brackets" in exp:
            got = {k: dict(v) for k, v in gd.L.table.items()}
            out.append(Check("gd_bracket_table", got == exp["gd_brackets"],
                             None if got == exp["gd_brackets"] else str(got)))
        if "gd_metric_diag" in exp:
            want = [F(x) for x in exp["gd_metric_diag"]]
            got = [gd.metric.matrix[i][i] for i in range(gd.L.dim)]
            offdiag = all(gd.metric.matrix[i][j] == 0
                          for i in range(gd.L.dim) for j in range(gd.L.dim) if i != j)
            out.append(Check("gd_metric", got == want and offdiag, str(got)))
        if "double_brackets" in exp:
            got = {k: dict(v) for k, v in dbl.g.table.items()}
            out.append(Check("double_bracket_table", got == exp["double_brackets"],
                             None if got == exp["double_brackets"] else str(got)))
        if "Q_matrix" in exp:
            want = tuple(tuple(F(x) for x in row) for row in exp["Q_matrix"])
            out.append(Check("Q_matrix", dbl.Q.matrix == want))
        if "Q_signature" in exp:
            out.append(Check("Q_signature",
                             dbl.Q.signature == tuple(exp["Q_signature"]),
                             str(dbl.Q.signature)))
        if "double_step" in exp:
            ser = lower_central_series(dbl.g)
            out.append(Check("double_nilpotent_step", ser.step == exp["double_step"],
                             str(ser.step)))
        if "gd_step" in exp:
            out.append(Check("gd_nilpotent_step", lcs.step == exp["gd_step"],
                             str(lcs.step)))
        if "gd_lcs_dims" in exp:
            out.append(Check("gd_lcs_dims", lcs.dims == tuple(exp["gd_lcs_dims"]),
                             str(lcs.dims)))
        if "recognizer" in exp:
            rec = heisenberg_recognizer(gd)
            want = exp["recognizer"]
            ok = (rec.kind == want["kind"]
                  and rec.heisenberg_dim == want["heisenberg_dim"]
                  and rec.indecomposable == want["indecomposable"]
                  and rec.center_matches)
            out.append(Check("heisenberg_recognizer", ok, str(rec)))
        if "sectional" in exp:
            eye = linalg.identity(gd.L.dim)
            for (i, j), val in sorted(exp["sectional"].items()):
                got = sectional(hom.R, gd.metric, eye[i], eye[j])
                out.append(Check(f"sectional_{i+1}{j+1}", got == F(val), str(got)))
        if "ricci_operator_diag" in exp:
            op = ricci_operator(hom.R, gd.metric)
            got = [op[i][i] for i in range(gd.L.dim)]
            want = [F(x) for x in exp["ricci_operator_diag"]]
            offdiag = all(op[i][j] == 0 for i in range(gd.L.dim)
                          for j in range(gd.L.dim) if i != j)
            out.append(Check("ricci_operator", got == want and offdiag, str(got)))
        if "prediction" in exp:
            rpt2 = predict_nilpotent_step(gd)
            out.append(Check("nilpotent_step_prediction",
                             rpt2.consistent
                             and rpt2.step_gd_predicted == exp["gd_step"], str(rpt2)))
        if "so_aut_dim" in exp:
            sa = so_aut(gd)
            out.append(Check("so_aut_dim", sa.dim == exp["so_aut_dim"], str(sa.dim)))
        if "intertwiners_dim" in exp:
            u = intertwiners_skew([self.rep.mat(i) for i in range(self.rep.h.dim)],
                                  self.rep.d_form)
            out.append(Check("intertwiners_dim", u.dim == exp["intertwiners_dim"],
                             str(u.dim)))
        if exp.get("nilmanifold_T"):
            out.append(Check("nilmanifold_T_formula",
                             nilmanifold_t_formula(gd) == hom.T))
        if exp.get("center_is_hstar"):
            want = gd.L.dim - gd.nd
            z = center(gd.L)
            hstar = [gd.embed_h(v) for v in linalg.identity(gd.nh)]
            ok = z.dim == want and all(z.contains(v) for v in hstar)
            out.append(Check("center_equals_hstar", ok, str(z.dim)))
        if exp.get("kerA_isotropic"):
            ker = kernel_of(self.rep.mat(0))
            out.append(Check("kerA_totally_isotropic",
                             totally_isotropic(ker, self.rep.d_form)))
        if exp.get("kostant"):
            split = reductive_split(dbl.g, dbl.Q_minus, dbl.h_sub)
            res = kostant_form(dbl.g, dbl.h_sub, split.m, split.gram)
            # the coordinates of the basis vectors are the unit vectors, so
            # res.pair on them reads res.form.matrix
            agree = res.form.matrix == tuple(
                tuple(dbl.Q_minus.apply(u, v) for v in res.basis) for u in res.basis)
            out.append(Check("kostant_reconstruction",
                             res.all_pass and agree and split.all_pass))
        return out


def _h3_entry(i):
    reps = {
        0: ([1, 1], T_PLUS, 1), 1: ([1, 1], T_PLUS, -1),
        2: ([-1, 1], T_MINUS, 1), 3: ([-1, 1], T_MINUS, -1),
    }
    d_diag, mat, zsign = reps[i]
    rep = _rep(("z",), [zsign], 2, d_diag, (mat,))
    sigma = F(zsign)  # ell-basis flips the cocycle coefficient with the z sign
    sect = {
        0: {(0, 1): "-3/4", (0, 2): "1/4", (1, 2): "1/4"},
        1: {(0, 1): "3/4", (0, 2): "-1/4", (1, 2): "-1/4"},
        2: {(0, 1): "3/4", (0, 2): "-1/4", (1, 2): "-1/4"},
        3: {(0, 1): "-3/4", (0, 2): "1/4", (1, 2): "1/4"},
    }[i]
    ric = {
        0: ["-1/2", "-1/2", "1/2"], 1: ["1/2", "1/2", "-1/2"],
        2: ["1/2", "1/2", "-1/2"], 3: ["-1/2", "-1/2", "1/2"],
    }[i]
    return CorpusEntry(
        f"h3_metric_{i}",
        f"Heisenberg algebra with the metric nr. {i} of the low-dimensional example",
        rep,
        {
            "gd_brackets": {(0, 1): {2: sigma}},
            "gd_metric_diag": d_diag + [zsign],
            "gd_step": 2,
            "recognizer": {"kind": "heisenberg", "heisenberg_dim": 3,
                           "indecomposable": False},
            "sectional": sect,
            "ricci_operator_diag": ric,
            "so_aut_dim": 1,
            "prediction": True,
        })


def _rpq_entry(name, d_diag, mat, expect_kind, expect_dim):
    rep = _rep(("z",), [1], len(d_diag), d_diag, (mat,))
    return CorpusEntry(
        name, f"Central extension of the abelian R^{len(d_diag)} by a skew map",
        rep,
        {
            "gd_step": 2,
            "recognizer": {"kind": expect_kind, "heisenberg_dim": expect_dim,
                           "indecomposable": False},
            "prediction": True,
        })


def _oscillator_entry():
    rep = _rep(("z",), [1], 2, [1, 1], (T_PLUS,))
    return CorpusEntry(
        "oscillator", "Four-dimensional oscillator algebra as a double extension",
        rep,
        {
            "primary": "double",
            "double_brackets": {(0, 1): {2: F(1)}, (0, 2): {1: F(-1)},
                                (1, 2): {3: F(1)}},
            "Q_signature": (1, 3, 0),
            "kostant": True,
            "gd_step": 2,
        })


def _a12_entry():
    a_f3 = ((0, 1, 0), (1, 0, 1), (0, -1, 0))
    rep = _rep(("e4",), [1], 3, [-1, 1, 1], (a_f3,))
    q = [[1, 0, 0, 0, 1],
         [0, -1, 0, 0, 0],
         [0, 0, 1, 0, 0],
         [0, 0, 0, 1, 0],
         [1, 0, 0, 0, 0]]
    return CorpusEntry(
        "a12", "Free 3-step nilpotent algebra on two generators, metric included",
        rep,
        {
            "primary": "double",
            "double_brackets": {(0, 1): {2: F(1)}, (0, 2): {1: F(1), 3: F(-1)},
                                (0, 3): {2: F(1)}, (1, 2): {4: F(1)},
                                (2, 3): {4: F(-1)}},
            "Q_matrix": q,
            "Q_signature": (2, 3, 0),
            "double_step": 3,
            "gd_step": 2,
            "recognizer": {"kind": "central_extension", "heisenberg_dim": 3,
                           "indecomposable": True},
            "kerA_isotropic": True,
        })


def _four_step_entry(key):
    mats = _lemma_derivations(key)
    d = _a12_reference_basis()
    rep = Representation(
        LieAlgebra.abelian(1, names=("w",)), BilinearForm.diagonal([1]),
        d, _a12_skew_metric(), (mats[key],))
    displays = {
        "H": "-[e4,e0] = z = [e1,e1-e3]",
        "E": "[e4,e1-e3] = z",
        "F": "[e1,e1-e3] = z",
    }
    golden = {
        "H": {(0, 4): {5: F(1)}, (1, 2): {0: F(1)}, (1, 3): {5: F(1)},
              (1, 4): {2: F(-1)}, (2, 3): {0: F(-1)},
              (2, 4): {1: F(-1), 3: F(1)}, (3, 4): {2: F(-1)}},
        "E": {(1, 2): {0: F(1)}, (1, 4): {2: F(-1)}, (2, 3): {0: F(-1)},
              (2, 4): {1: F(-1), 3: F(1)}, (3, 4): {2: F(-1), 5: F(-1)}},
        "F": {(0, 1): {5: F(-1)}, (0, 3): {5: F(-1)}, (1, 2): {0: F(1)},
              (1, 4): {2: F(-1)}, (2, 3): {0: F(-1)},
              (2, 4): {1: F(-1), 3: F(1)}, (3, 4): {2: F(-1)}},
    }
    return CorpusEntry(
        f"g{key}", f"Extension of the 3-step algebra by the derivation {key}",
        rep,
        {
            "gd_brackets": golden[key],
            "gd_step": 4,
            "gd_lcs_dims": (6, 4, 3, 1, 0),
            "prediction": True,
        },
        annotations=(
            "hand display in the basis {z, e0, e1-e3, e2, e1, e4}, not asserted: "
            "[e4,e2]=e2, [e4,e2]=e1-e3, [e1,e2]=e0, plus " + displays[key],))


def _nilmanifold_entry():
    rep = _rep(("k1",), [1], 2, [1, 1], (T_PLUS,))
    return CorpusEntry(
        "nilmanifold_demo",
        "Riemannian nilmanifold data: compact k = so(2) acting on V = R^2",
        rep,
        {
            "gd_step": 2,
            "center_is_hstar": True,
            "nilmanifold_T": True,
            "intertwiners_dim": 1,
            "so_aut_dim": 1,
        })


# name -> constructor; an entry is built only when it is asked for
_CONSTRUCTORS = {
    **{f"h3_metric_{i}": partial(_h3_entry, i) for i in range(4)},
    "oscillator": _oscillator_entry,
    "a12": _a12_entry,
    **{f"g{key}": partial(_four_step_entry, key) for key in "HEF"},
    "nilmanifold_demo": _nilmanifold_entry,
    "rpq_2_0": partial(_rpq_entry, "rpq_2_0", (1, 1), T_PLUS, "heisenberg", 3),
    "rpq_1_1": partial(_rpq_entry, "rpq_1_1", (-1, 1), T_MINUS, "heisenberg", 3),
    "rpq_2_2": partial(_rpq_entry, "rpq_2_2", (-1, -1, 1, 1), A22, "heisenberg", 5),
}


def corpus_list():
    return sorted(_CONSTRUCTORS)


def corpus_build(name):
    if name not in _CONSTRUCTORS:
        raise KeyError(f"unknown corpus entry {name!r}; known: {', '.join(corpus_list())}")
    return _CONSTRUCTORS[name]()
