import json
import sys
from fractions import Fraction as F

import pytest

import adinvar
from adinvar import (LieAlgebra, Subspace, ad_invariant, build_gd,
                     build_hom_structure, cli, corpus_build, corpus_list,
                     derivation_algebra, derived_series, linalg, lower_central_series,
                     profile, verify_as)
from adinvar.io import dump_algebra_dict, dump_builder_dict, load_algebra_file
from conftest import conjugated_rep
from oracles import mat_sub


def test_listing_is_stable():
    names = corpus_list()
    assert names == sorted(names)
    for expected in ("a12", "gE", "gF", "gH", "h3_metric_0", "h3_metric_1",
                     "h3_metric_2", "h3_metric_3", "nilmanifold_demo",
                     "oscillator", "rpq_1_1", "rpq_2_0", "rpq_2_2"):
        assert expected in names


def test_unknown_name():
    with pytest.raises(KeyError):
        corpus_build("nope")


@pytest.mark.parametrize("name", corpus_list())
def test_entry_expectations(name):
    entry = corpus_build(name)
    failures = [(n, detail) for n, ok, detail in entry.checks(build_gd(entry.rep))
                if not ok]
    assert not failures, failures


@pytest.mark.parametrize("name", corpus_list())
def test_entry_invariants(name):
    entry = corpus_build(name)
    gd = build_gd(entry.rep)
    dbl = gd.double
    assert ad_invariant(dbl.g, dbl.Q)
    assert ad_invariant(dbl.g, dbl.Q_minus)
    assert verify_as(gd).all_pass


# -- each input is built once ----------------------------------------------

def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every adinvar binding of it."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in [m for k, m in sys.modules.items()
                if k == "adinvar" or k.startswith("adinvar.")]:
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("name", corpus_list())
def test_corpus_command_builds_once(name, monkeypatch, capsys):
    counted = {f"{mod.__name__}.{fn}": _count_calls(monkeypatch, mod, fn)
               for mod, fn in ((adinvar.extension, "build_gd"),
                               (adinvar.homstructure, "build_hom_structure"),
                               (adinvar.geometry, "curvature_gd"),
                               (adinvar.geometry, "levi_civita_gd"))}
    assert cli.main(["corpus", name, "--json"]) == 0
    capsys.readouterr()
    assert {k: len(v) for k, v in counted.items()} == dict.fromkeys(counted, 1)


def test_hom_structure_builds_t_and_nabla_only(monkeypatch):
    """build_hom_structure assembles two tensors by block, T and nabla;
    nabla~ is derived from them on demand, and its closed form is left to
    the tests."""
    gd = build_gd(corpus_build("gH").rep)
    blocks = _count_calls(monkeypatch, adinvar.geometry, "gd_tensor")
    closed = _count_calls(monkeypatch, adinvar.homstructure, "nabla_tilde_closed")
    build_hom_structure(gd)
    assert (len(blocks), len(closed)) == (2, 0)


@pytest.mark.parametrize("name", ["h3_metric_0", "gH"])
def test_build_sweeps_jacobi_once_per_algebra(name, monkeypatch):
    """corpus_build leaves Jacobi on h and d to Representation.validate, so
    one corpus_build and build_gd sweep it four times: on h, d, the double
    and d + h*."""
    calls = _count_calls(monkeypatch, adinvar.core, "check_jacobi")
    build_gd(corpus_build(name).rep)
    assert len(calls) == 4


def test_registry_builds_only_the_named_entry(monkeypatch):
    calls = _count_calls(monkeypatch, adinvar.corpus, "_lemma_derivations")
    corpus_list()
    corpus_build("h3_metric_0")
    assert calls == []
    corpus_build("gH")
    assert len(calls) == 1


def test_lemma_derivations_are_the_displays_conjugated_by_the_basis():
    """Each stored derivation is P M P^-1 of its displayed matrix M, with P
    the columns of the displayed basis {e0, e1-e3, e2, e1, e4}, multiplied
    and inverted densely; one key builds one derivation."""
    def eij(i, j):
        m = linalg.zeros(5, 5)
        m[i - 1][j - 1] = F(1)
        return m

    shown = {
        "H": mat_sub(linalg.mat_add(eij(1, 1), eij(4, 4)),
                     linalg.mat_add(eij(2, 2), eij(5, 5))),
        "E": linalg.mat_add(eij(1, 2), eij(4, 5)),
        "F": linalg.mat_add(eij(2, 1), eij(5, 4)),
        "X": mat_sub(eij(1, 3), eij(3, 5)),
        "Y": linalg.mat_add(eij(2, 3), eij(3, 4)),
        "Z": linalg.mat_add(eij(1, 4), eij(2, 5)),
    }
    p = linalg.transpose([[F(x) for x in col] for col in (
        [1, 0, 0, 0, 0], [0, 1, 0, -1, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1])])
    p_inv = linalg.inverse(p)
    want = {k: tuple(map(tuple, linalg.mat_mul(p, linalg.mat_mul(m, p_inv))))
            for k, m in shown.items()}
    got = adinvar.corpus._lemma_derivations()
    assert got == want
    assert all(type(x) is F for m in got.values() for row in m for x in row)
    assert adinvar.corpus._lemma_derivations("E") == {"E": want["E"]}


def test_series_command_builds_once(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "gH_builder.json"
    spec.write_text(json.dumps(dump_builder_dict(corpus_build("gH").rep)))
    calls = _count_calls(monkeypatch, adinvar.extension, "build_gd")
    assert cli.main(["series", str(spec), "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_derivations_command_sweeps_leibniz_once(tmp_path, monkeypatch, capsys):
    """The derivations report on a dense gH file solves the Leibniz rule
    once: the skew derivations are read inside the derivation algebra."""
    gd = build_gd(conjugated_rep(corpus_build("gH").rep, 3))
    path = tmp_path / "gH_gd.json"
    path.write_text(json.dumps(dump_algebra_dict(gd.L, gd.metric)))
    calls = _count_calls(monkeypatch, adinvar.derivations, "_leibniz_rows")
    assert cli.main(["derivations", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["skew_dim"] > 0
    assert len(calls) == 1


def test_derivation_algebra_eliminates_once_per_matrix_space(tmp_path, monkeypatch):
    """derivation_algebra on a dense gH file runs one ``_echelon`` for the
    Leibniz kernel and one for the span of its solutions, whose closure
    table is read at the pivots, not solved for; the flat subspace of the
    result is its reduced rows, with no elimination."""
    gd = build_gd(conjugated_rep(corpus_build("gH").rep, 3))
    path = tmp_path / "gH_gd.json"
    path.write_text(json.dumps(dump_algebra_dict(gd.L, gd.metric)))
    alg, _ = load_algebra_file(path)
    echelons = _count_calls(monkeypatch, adinvar.linalg, "_echelon")
    coordinates = _count_calls(monkeypatch, adinvar.linalg, "coordinates")
    der = derivation_algebra(alg)
    assert (len(echelons), len(coordinates)) == (2, 0)
    assert der.flat_subspace.dim == der.dim
    assert (len(echelons), len(coordinates)) == (2, 0)


def _count_pairs(monkeypatch):
    """Patch ``core._bracket_span`` and ``core._bracket`` so that each span
    records [dim left, dim right, pairs bracketed]."""
    spans = []
    real_span, real_bracket = adinvar.core._bracket_span, adinvar.core._bracket

    def span(table, left, right):
        spans.append([left.dim, right.dim, 0])
        return real_span(table, left, right)

    def bracket(*args):
        spans[-1][2] += 1
        return real_bracket(*args)

    monkeypatch.setattr(adinvar.core, "_bracket_span", span)
    monkeypatch.setattr(adinvar.core, "_bracket", bracket)
    return spans


@pytest.mark.parametrize("name", ["h3_metric_0", "gH"])
def test_lower_central_series_brackets_each_pair_of_g_once(name, monkeypatch):
    """The first term [g, g] brackets the n(n-1)/2 pairs i < j of basis
    vectors, not all n^2, also when it is given two equal but distinct
    subspaces; and a profile brackets them once for both series, which
    start with it."""
    alg = build_gd(corpus_build(name).rep).L
    n = alg.dim
    spans = _count_pairs(monkeypatch)
    lower_central_series(alg)
    assert spans[0] == [n, n, n * (n - 1) // 2]
    spans.clear()
    full = Subspace.full(n)
    adinvar.core._bracket_span(alg.int_bracket_data[0], full, Subspace.full(n))
    assert spans == [[n, n, n * (n - 1) // 2]]

    der = derivation_algebra(alg)
    alone = []
    for series in (derived_series, lower_central_series):
        spans.clear()
        series(LieAlgebra(der.dim, None, der.closure.table))  # nothing cached
        alone.append(sum(pairs for *_, pairs in spans))
    spans.clear()
    profile(der)
    m = der.dim
    assert sum(pairs for *_, pairs in spans) == sum(alone) - m * (m - 1) // 2
    assert sum(span[:2] == [m, m] for span in spans) == 1


@pytest.mark.parametrize("name", ["oscillator", "gH"])
def test_a_stalled_term_stops_at_the_rank_bound(name, monkeypatch):
    """The double h + d + h* of these entries is solvable, not nilpotent:
    [g, [g, g]] = [g, g], which is found after fewer pairs than
    |g| |[g, g]|."""
    alg = build_gd(corpus_build(name).rep).double.g
    spans = _count_pairs(monkeypatch)
    result = lower_central_series(alg)
    assert result.step is None
    left, right, pairs = spans[-1]
    assert right == result.chain[-1].dim
    assert pairs < left * right
