"""The names the benchmark harness wraps must exist in the package, every
exported name must have a reader, and every name README cites must exist.

``bench/layers.py`` wraps the functions listed in ``LAYERS`` by name, and
``bench/selftest.py`` requires ``ad_invariant`` to be one function bound
in ``core``, ``extension`` and the package.  A refactor that renames or
rebinds one of them fails here instead of in a benchmark run, and so
does a ``cli.main`` that dispatches around the module-level ``cmd_*``
functions the harness counts, also after it has run once untraced.

The sweeps over basis tuples, the construction path (the loader,
``validate``, ``double_extend`` and ``build_gd``), the geometry routes,
the matrix-algebra commutators, the commuting rows of ``so_aut`` and
``intertwiners_skew``, the Killing form, the signatures, the centre, the
readers of the curvature and the series run on integers, and so does
every command of the ``cli_dense`` workload between loading its file and
rendering its report; the harness's ``FractionCounter`` checks here that
no ``Fraction`` arithmetic comes back into them.  The stages read the int
views of the algebras and forms the construction writes, and a test here
fails if one of them forms its rational table or matrix.

A name that ``adinvar`` exports feeds a command, the corpus or the
benchmark: something in ``src/adinvar`` or ``bench/`` reads it, or it is
one of the few listed below that wait for a reader.
"""

import ast
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import re
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import adinvar
from adinvar import (LieAlgebra, ad_invariant, build_gd, build_hom_structure,
                     center, check_jacobi, corpus_build, curvature, curvature_gd,
                     derivation_algebra, double_extend, derived_series, inner_derivations,
                     intertwiners_skew, killing_form, levi_civita,
                     levi_civita_gd, lower_central_series, nilmanifold_t_formula,
                     skew_derivations, so_aut, t_tensor, verify_as)
from adinvar import cli
from adinvar.cli import main
from adinvar.homstructure import nabla_tilde_closed
from adinvar.io import dump_builder_dict, load_builder_dict, write_json
from adinvar.corpus import corpus_list
from conftest import conjugated_rep, torus_rep

ROOT = Path(__file__).resolve().parents[1]
LAYERS_PY = ROOT / "bench" / "layers.py"
MODULES = ("cli", "core", "corpus", "derivations", "extension", "geometry",
           "homstructure", "io", "linalg", "series")
# Exported names that nothing in src/adinvar or bench/ reads: the paper
# identities, which wait for a command that runs them, and the solvers
# that the acceptance criteria read.
UNREAD_EXPORTS = frozenset((
    "sectional_gd_closed", "ricci_gd_closed", "nabla_tilde_closed", "check_pair_symmetry",
    "bi_invariant_connection_check", "bi_invariant_curvature_check", "totally_geodesic",
    "geodesic_one_param", "equivalence_check", "canonical_connection",
    "invariant_forms", "restrict_to_subalgebra", "skew_derivations"))
IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    for layer, names in _bench_layers().LAYERS.items():
        home = importlib.import_module(f"adinvar.{layer}")
        for name in names:
            obj = home
            for part in name.split("."):
                obj = getattr(obj, part)
            assert callable(obj) and hasattr(obj, "__code__"), f"{layer}.{name}"


def _wrapped_command_runs(tmp_path):
    """argv of one call of each command the harness wraps, by its ``cmd_*``
    name, on the ``h3_metric_0`` files emitted into ``tmp_path``."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["corpus", "h3_metric_0", "--emit", "--dir", str(tmp_path)]) == 0
    alg = str(tmp_path / "h3_metric_0.json")
    spec = str(tmp_path / "h3_metric_0_builder.json")
    runs = {"cmd_check": ["check", alg], "cmd_gd": ["gd", spec],
            "cmd_geometry": ["geometry", alg], "cmd_verify_as": ["verify-as", spec],
            "cmd_derivations": ["derivations", alg], "cmd_series": ["series", spec],
            "cmd_corpus": ["corpus", "h3_metric_0"]}
    assert sorted(runs) == sorted(_bench_layers().LAYERS["cli"])
    return {name: argv + ["--json"] for name, argv in runs.items()}


def _traced_command_calls(runs):
    layers = _bench_layers()
    with layers.Tracer(adinvar) as tracer, contextlib.redirect_stdout(io.StringIO()):
        for argv in runs.values():
            assert main(argv) == 0, argv
    return {name: tracer.stats[f"cli.{name}"].calls for name in runs}


def test_each_wrapped_command_is_counted_once_per_call(tmp_path):
    """One ``main`` call of each command the harness wraps adds exactly one
    to that command's ``cli.cmd_*`` count."""
    runs = _wrapped_command_runs(tmp_path)
    assert _traced_command_calls(runs) == dict.fromkeys(runs, 1)


def test_commands_run_before_the_tracer_are_counted_under_it(tmp_path):
    """``main`` reaches the ``cmd_*`` functions through the module at each
    call, so the parser it keeps for the process holds no function that
    the tracer cannot patch."""
    runs = _wrapped_command_runs(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in runs.values():
            assert main(argv) == 0, argv
    assert _traced_command_calls(runs) == dict.fromkeys(runs, 1)


def test_ad_invariant_is_one_binding():
    assert adinvar.extension.ad_invariant is adinvar.core.ad_invariant
    assert adinvar.ad_invariant is adinvar.core.ad_invariant


def _names_in(paths, strings):
    """The names the Python files read: each loaded name and attribute,
    and, with strings, each part of a string constant that is a dotted
    identifier (``bench/layers.py`` wraps its functions by such names)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and IDENTIFIER.fullmatch(node.value)):
                names.update(node.value.split("."))
    return names


def test_every_exported_name_has_a_reader():
    """Each name in ``adinvar.__all__`` is read in src/adinvar, outside the
    package's ``__init__``, or in bench/, or waits on UNREAD_EXPORTS."""
    src = [p for p in sorted((ROOT / "src" / "adinvar").glob("*.py")) if p.name != "__init__.py"]
    read = _names_in(src, False) | _names_in(sorted((ROOT / "bench").glob("*.py")), True)
    assert sorted(set(adinvar.__all__) - read - UNREAD_EXPORTS) == []


def _resolves(dotted):
    """None unless the head of the dotted name is ``adinvar``, one of its
    modules or an exported name; else whether each part is an attribute
    of the one before, or a field of a dataclass."""
    parts = dotted.split(".")
    if parts[0] == "adinvar":
        obj, parts = adinvar, parts[1:]
    elif parts[0] in MODULES:
        obj, parts = importlib.import_module(f"adinvar.{parts[0]}"), parts[1:]
    elif parts[0] in adinvar.__all__:
        obj = adinvar
    else:
        return None
    for part in parts:
        if dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            return part == parts[-1]
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_name_readme_cites_exists():
    """Every backticked name README cites, outside its list of removed
    names, exists: a dotted name that starts at the package, a module or
    an exported name resolves attribute by attribute, and a bare private
    name (``_integral``) or snake_case name (``int_beta``) is a name the
    package's code reads or defines."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    text = text[:text.index("Removed public names:")] + text[text.index("Basis conventions:"):]
    src = sorted((ROOT / "src" / "adinvar").glob("*.py"))
    known = _names_in(src, True) | {
        node.name for path in src for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    missing = []
    for token in re.findall(r"`([^`\n]+)`", text):
        name = re.fullmatch(r"([A-Za-z_][\w.]*)(?:\(.*\))?", token)
        if not name:
            continue
        name = name.group(1)
        if "." in name:
            if _resolves(name) is False:
                missing.append(name)
        elif name.startswith("_") or (name.islower() and "_" in name and all(
                len(part) > 1 for part in name.split("_"))):
            if name not in known and not hasattr(adinvar, name):
                missing.append(name)
    assert missing == []


def test_sweeps_make_no_fraction_arithmetic():
    """check_jacobi, ad_invariant, verify_as and the two series on gH under
    a dense change of basis, passing and failing, add and multiply only
    ints: the Fractions they return are formed by the constructor, which
    the counter does not count."""
    counter = _bench_layers().FractionCounter
    gd = build_gd(conjugated_rep(corpus_build("gH").rep, 3))
    hom = build_hom_structure(gd)
    hom.nabla_tilde  # a cached tensor, built before counting
    (i, j), comps = min(gd.L.table.items())
    broken = LieAlgebra(gd.L.dim, gd.L.names,
                        {**gd.L.table, (i, j): {**comps, i: comps.get(i, 0) + F(1, 3)}})
    with counter() as count:
        assert not check_jacobi(gd.L) and not check_jacobi(gd.double.g)
        assert ad_invariant(gd.double.g, gd.double.Q)
        assert ad_invariant(gd.rep.d, gd.rep.d_form)
        assert not ad_invariant(gd.L, gd.metric)
        assert check_jacobi(broken)
        assert verify_as(gd, hom).all_pass
        for alg in (gd.L, gd.double.g, broken):
            derived_series(alg)
            lower_central_series(alg)
    assert count.count == 0
    with counter() as count:
        F(1, 2) + F(1, 3)
    assert count.count == 1


def test_construction_checks_and_so_aut_make_no_fraction_arithmetic():
    """Representation.validate (its skew, derivation and homomorphism
    tests of pi on an h with a pair), so_aut and intertwiners_skew on a
    two-torus under a dense change of basis add and multiply only ints."""
    counter = _bench_layers().FractionCounter
    rep = conjugated_rep(torus_rep([1, 2]), 3)
    gd = build_gd(rep)
    broken = replace(rep, mats=(rep.mats[0], tuple(
        tuple(x + (p == q == 0) for q, x in enumerate(row))
        for p, row in enumerate(rep.mats[1]))))
    with counter() as count:
        assert rep.validate() == []
        assert broken.validate() == ["pi(k2)_not_skew", "pi_not_homomorphism(k1,k2)"]
        assert so_aut(gd).dim > 0
        assert intertwiners_skew(rep.mats, rep.d_form).dim > 0
    assert count.count == 0


def test_construction_path_makes_no_fraction_arithmetic():
    """load_builder_dict, Representation.validate, double_extend and
    build_gd, each called whole on its own freshly loaded builder (no
    integer view cached), on gH and on a two-torus under a dense change of
    basis, add and multiply only ints: ell^-1, the beta table, Q, Q_minus,
    the cm relation and the lambda congruence included."""
    counter = _bench_layers().FractionCounter
    for rep in (conjugated_rep(corpus_build("gH").rep, 3),
                conjugated_rep(torus_rep([1, 2]), 3)):
        doc = dump_builder_dict(rep)
        reps = [load_builder_dict(doc) for _ in range(3)]
        with counter() as count:
            assert load_builder_dict(doc) == rep
        assert count.count == 0
        for run in (lambda: reps[0].validate() == [], lambda: double_extend(reps[1]),
                    lambda: build_gd(reps[2])):
            with counter() as count:
                assert run()
            assert count.count == 0, run


def test_routes_make_no_fraction_arithmetic():
    """The connection, curvature and T routes, build_hom_structure, the
    derivation solvers, the containments of their spans, killing_form,
    the signatures of the forms and the centres on gH under a dense
    change of basis add and multiply only ints, and so does forming the
    lambda columns of a copy of gd.  The two curvature routes run on a
    sparse input too, a torus m = 3 under a signed permutation of d.  ell^-1
    and int_beta are built by build_gd, before the count starts."""
    counter = _bench_layers().FractionCounter
    gd = build_gd(conjugated_rep(corpus_build("gH").rep, 3))
    dbl = gd.double
    pairs = ((gd.L, gd.metric), (dbl.g, dbl.Q), (dbl.g, dbl.Q_minus))
    torus = build_gd(torus_rep([2, 1, 3], [(3, -1), (0, 1), (5, 1), (2, -1), (4, -1), (1, 1)]))
    with counter() as count:
        assert curvature(levi_civita(torus.L, torus.metric), torus.L) == curvature_gd(torus)
        for _, form in pairs:
            assert form.signature[2] == 0
        center(gd.L)
        center(dbl.g)
        r = [curvature(levi_civita(alg, form), alg) for alg, form in pairs]
        assert r[0] == curvature_gd(gd)
        assert levi_civita_gd(gd) == levi_civita(gd.L, gd.metric)
        t_tensor(gd)
        nabla_tilde_closed(gd)
        nilmanifold_t_formula(gd)
        replace(gd).lambda_columns
        assert build_hom_structure(gd).nabla_tilde == nabla_tilde_closed(gd)
        der = derivation_algebra(gd.L)
        skew = skew_derivations(gd.L, gd.metric)
        inner = inner_derivations(gd.L)
        assert der.dim >= skew.dim and der.dim >= inner.dim > 0
        assert der.flat_subspace.contains_subspace(skew.flat_subspace)
        assert der.flat_subspace.contains_subspace(inner.flat_subspace)
        assert not skew.flat_subspace.contains_subspace(der.flat_subspace)
        killing_form(gd.L).signature
    assert count.count == 0


def _fractions_in(obj):
    """How many Fractions obj holds, walked through its fields, dicts,
    tuples (``View``s included) and lists."""
    if isinstance(obj, F):
        return 1
    if isinstance(obj, dict):
        return sum(_fractions_in(key) + _fractions_in(value) for key, value in obj.items())
    if isinstance(obj, (tuple, list)):
        return sum(map(_fractions_in, obj))
    return sum(map(_fractions_in, vars(obj).values())) if hasattr(obj, "__dict__") else 0


def test_stage_path_leaves_the_rational_views_unformed():
    """build_gd, both connections and curvatures, build_hom_structure,
    verify_as and so_aut on dense conjugates read only the int views of
    what the construction writes: none of gd.L, gd.double.g, gd.metric or
    gd.double.Q forms its table, bracket_data or matrix, so a reader that
    falls back to Fraction fails here instead of slowing the run.  And what
    the construction writes holds no Fraction: L, the metric, ell, ell^-1,
    the lambda columns, mu, g, Q, Q_minus and the tensors of the
    homogeneous structure."""
    for rep in (conjugated_rep(torus_rep([1, 2, 3]), 5), conjugated_rep(corpus_build("gH").rep, 5)):
        gd = build_gd(rep)
        assert curvature(levi_civita(gd.L, gd.metric), gd.L) == curvature_gd(gd)
        assert levi_civita_gd(gd) == levi_civita(gd.L, gd.metric)
        hom = build_hom_structure(gd)
        assert verify_as(gd, hom).all_pass
        assert so_aut(gd).dim > 0
        built = {"L": gd.L, "g": gd.double.g, "metric": gd.metric, "Q": gd.double.Q}
        assert {name: [key for key in ("table", "bracket_data", "matrix") if key in vars(obj)]
                for name, obj in built.items()} == dict.fromkeys(built, [])
        written = {"L": gd.L, "metric": gd.metric, "ell": gd.ell, "ell_inv": gd.ell_inv,
                   "lambda_columns": gd.lambda_columns, "mu_data": gd.mu_data,
                   "g": gd.double.g, "Q": gd.double.Q, "Q_minus": gd.double.Q_minus,
                   "T": hom.T, "nabla": hom.nabla, "R": hom.R, "nabla_tilde": hom.nabla_tilde}
        assert {name: _fractions_in(obj) for name, obj in written.items()} == dict.fromkeys(
            written, 0)


def test_cli_dense_commands_make_no_fraction_arithmetic(tmp_path, monkeypatch):
    """The seven commands of the benchmark's cli_dense workload, run
    through ``cli.main`` on every registry builder under a dense change of
    basis, add and multiply only ints between loading their input file and
    ``_finish``: the geometry readers (Ricci, its operator and charpoly,
    the sectional curvatures) and the series predictions included."""
    layers, counts, active = _bench_layers(), {}, []

    def counting(load):
        def loaded(path):
            out = load(path)
            active.append(layers.FractionCounter().__enter__())
            return out
        return loaded

    def finish(report, args, real=cli._finish):
        counter = active.pop()
        counter.__exit__(None, None, None)
        counts[report["command"], getattr(args, "spec", None) or getattr(args, "file", None)
               or args.so_aut] = counter.count
        return real(report, args)

    monkeypatch.setattr(cli, "load_builder_file", counting(cli.load_builder_file))
    monkeypatch.setattr(cli, "load_algebra_file", counting(cli.load_algebra_file))
    monkeypatch.setattr(cli, "_finish", finish)
    for name in corpus_list():
        spec, alg = str(tmp_path / f"{name}_builder.json"), str(tmp_path / f"{name}.json")
        write_json(spec, dump_builder_dict(conjugated_rep(corpus_build(name).rep, 3)))
        runs = (["gd", spec, "--emit", alg], ["check", alg], ["geometry", alg],
                ["derivations", alg], ["verify-as", spec], ["series", spec],
                ["derivations", "--so-aut", spec])
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in runs:
                try:
                    assert main(argv + ["--json"]) in (0, 1), (name, argv)
                finally:
                    while active:
                        active.pop().__exit__(None, None, None)
    assert len(counts) == 7 * len(corpus_list())
    assert {key: n for key, n in counts.items() if n} == {}
