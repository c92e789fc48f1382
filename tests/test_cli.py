import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from adinvar import cli, corpus_build, corpus_list, linalg
from adinvar.cli import main
from adinvar.geometry import Tensor
from adinvar.io import MAX_DIM, dump_builder_dict
from conftest import conjugated_rep, torus_rep
import report_matrix
from test_bench_contract import _bench_layers

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))
RECORDED = json.loads(report_matrix.DIGESTS.read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def one_shot(*argv):
    """Exit code, stdout and stderr of ``python -m adinvar.cli ARGV`` in a
    fresh interpreter, at the usage width of the in-process calls."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "adinvar.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path, "COLUMNS": "80"})
    return done.returncode, done.stdout, done.stderr


def emit_corpus(tmp_path, capsys, name):
    outdir = tmp_path / "corpus"
    code, _, _ = run(capsys, "corpus", name, "--emit", "--dir", str(outdir))
    assert code == 0
    return outdir


def test_corpus_listing(capsys):
    code, out, _ = run(capsys, "corpus", "--json")
    assert code == 0
    doc = json.loads(out)
    assert "a12" in doc["entries"]


def test_check_good_file(tmp_path, capsys):
    outdir = emit_corpus(tmp_path, capsys, "a12")
    code, out, _ = run(capsys, "check", str(outdir / "a12.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert doc["metric_signature"] == [2, 3, 0]
    assert doc["metric_ad_invariant"] is True


def test_check_broken_jacobi(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"dim": 3, "brackets": [[1, 2, 3, 1], [1, 3, 1, 1]]}))
    code, out, _ = run(capsys, "check", str(bad), "--json")
    assert code == 1
    doc = json.loads(out)
    jac = [c for c in doc["checks"] if c["name"] == "jacobi"][0]
    assert not jac["pass"]
    assert jac["witness"][0][:3] == [1, 2, 3]


def test_derivations_reports_a_jacobi_violation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"dim": 3, "brackets": [[1, 2, 3, 1], [1, 3, 1, 1]]}))
    _, out, _ = run(capsys, "check", str(bad), "--json")
    want = [c for c in json.loads(out)["checks"] if c["name"] == "jacobi"]
    code, out, err = run(capsys, "derivations", str(bad), "--json")
    assert code == 1 and not err
    doc = json.loads(out)
    assert doc == {"command": "derivations", "checks": want, "passed": False}
    assert want[0]["witness"][0][:3] == [1, 2, 3]


def test_check_malformed_input(tmp_path, capsys):
    f = tmp_path / "malformed.json"
    f.write_text('{"dim": "three"}')
    code, _, err = run(capsys, "check", str(f))
    assert code == 2
    assert "dim" in err
    code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2


def test_gd_and_extend_emit_loadable_files(tmp_path, capsys):
    """check accepts what gd --emit and extend --emit write: from a corpus
    builder, from one whose parts omit 'names' (its double would repeat
    e1, so it is named e1, .., e4), and from the largest builder the cap
    accepts, whose double has dimension MAX_DIM."""
    outdir = emit_corpus(tmp_path, capsys, "h3_metric_2")
    unnamed = tmp_path / "unnamed_builder.json"
    unnamed.write_text(json.dumps({
        "d": {"dim": 2, "metric": [[1, 1, 1], [2, 2, 1]]},
        "h": {"dim": 1, "metric": [[1, 1, 1]]},
        "pi": [[[0, -1], [1, 0]]]}))
    largest = tmp_path / "largest_builder.json"
    largest.write_text(json.dumps(dump_builder_dict(torus_rep([1, 2, 3, 4, 5, 6]))))
    for spec, gd_check, g_check in (
            (outdir / "h3_metric_2_builder.json", {"metric_signature": [1, 2, 0]},
             {"metric_ad_invariant": True}),
            (unnamed, {"names": ["e1", "e2", "e1*"]},
             {"names": ["e1", "e2", "e3", "e4"], "metric_ad_invariant": True}),
            (largest, {"dim": 18}, {"dim": MAX_DIM, "metric_ad_invariant": True})):
        for command, want in (("gd", gd_check), ("extend", g_check)):
            built = tmp_path / f"{command}.json"
            code, _, _ = run(capsys, command, str(spec), "--emit", str(built))
            assert code == 0
            code, out, _ = run(capsys, "check", str(built), "--json")
            assert code == 0
            doc = json.loads(out)
            assert {key: doc[key] for key in want} == want, (spec, command)


def test_gd_rejects_bad_pi(tmp_path, capsys):
    spec = tmp_path / "bad_builder.json"
    spec.write_text(json.dumps({
        "d": {"dim": 2, "metric": [[1, 1, 1], [2, 2, 1]]},
        "h": {"dim": 1, "metric": [[1, 1, 1]]},
        "pi": [[[1, 0], [0, 1]]],
    }))
    code, out, _ = run(capsys, "gd", str(spec), "--json")
    assert code == 1
    doc = json.loads(out)
    assert any("not_skew" in c["name"] for c in doc["checks"])


def test_verify_as_command(tmp_path, capsys):
    outdir = emit_corpus(tmp_path, capsys, "h3_metric_1")
    code, out, _ = run(capsys, "verify-as",
                       str(outdir / "h3_metric_1_builder.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    names = {c["name"] for c in doc["checks"]}
    assert names == {"axiom_i", "axiom_i_prime", "axiom_ii", "axiom_ii_prime",
                     "axiom_iii", "axiom_iii_prime", "axiom_iv"}


def test_series_command(tmp_path, capsys):
    outdir = emit_corpus(tmp_path, capsys, "gE")
    code, out, _ = run(capsys, "series", str(outdir / "gE_builder.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["nilpotent"]["predicted"] == 4 == doc["nilpotent"]["computed"]
    assert doc["nilpotent"]["corrected_index_test"] is False
    assert doc["nilpotent"]["naive_index_test"] is True


def test_series_refuses_invalid_data_on_non_solvable_d(tmp_path, capsys):
    # d = so(3) is neither nilpotent nor solvable; pi(z) is not skew
    spec = tmp_path / "so3_not_skew.json"
    spec.write_text(json.dumps({
        "d": {"dim": 3, "metric": [[1, 1, 1], [2, 2, 1], [3, 3, 1]],
              "brackets": [[1, 2, 3, 1], [2, 3, 1, 1], [1, 3, 2, -1]]},
        "h": {"dim": 1, "names": ["z"], "metric": [[1, 1, 1]]},
        "pi": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]]],
    }))
    code, gd_out, _ = run(capsys, "gd", str(spec), "--json")
    assert code == 1
    code, out, err = run(capsys, "series", str(spec), "--json")
    assert code == 1
    assert err == ""
    doc, gd_doc = json.loads(out), json.loads(gd_out)
    assert {"name": "pi(z)_not_skew", "pass": False} in doc["checks"]
    assert (doc["checks"], doc["error"]) == (gd_doc["checks"], gd_doc["error"])


def test_series_reports_a_d_that_is_neither_nilpotent_nor_solvable(tmp_path,
                                                                    capsys):
    # d = so(3) with the identity metric, pi(z) = ad(e1): valid data
    spec = tmp_path / "so3_ad.json"
    spec.write_text(json.dumps({
        "d": {"dim": 3, "metric": [[1, 1, 1], [2, 2, 1], [3, 3, 1]],
              "brackets": [[1, 2, 3, 1], [2, 3, 1, 1], [1, 3, 2, -1]]},
        "h": {"dim": 1, "names": ["z"], "metric": [[1, 1, 1]]},
        "pi": [[[0, 0, 0], [0, 0, -1], [0, 1, 0]]],
    }))
    code, out, err = run(capsys, "series", str(spec), "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["nilpotent"] == "d is not nilpotent"
    assert doc["solvable"] == "d is not solvable"
    assert doc["checks"] == [] and doc["passed"] is True


NOT_JACOBI = [[1, 2, 3, 1], [1, 3, 1, 1]]
UNIT_3 = [[1, 1, 1], [2, 2, 1], [3, 3, 1]]


@pytest.mark.parametrize("name, spec", [
    ("d_not_lie_algebra",
     {"d": {"dim": 3, "metric": UNIT_3, "brackets": NOT_JACOBI},
      "h": {"dim": 1, "metric": [[1, 1, 1]]}, "pi": [[[0] * 3] * 3]}),
    ("h_not_lie_algebra",
     {"d": {"dim": 1, "metric": [[1, 1, 1]]},
      "h": {"dim": 3, "metric": UNIT_3, "brackets": NOT_JACOBI},
      "pi": [[[0]]] * 3}),
    ("d_metric_degenerate",
     {"d": {"dim": 2, "metric": [[1, 1, 1]]},
      "h": {"dim": 1, "metric": [[1, 1, 1]]}, "pi": [[[0, 0], [0, 0]]]}),
])
def test_gd_and_extend_refuse_each_invalid_part(name, spec, tmp_path, capsys):
    """A d or h that is not a Lie algebra, or a degenerate metric on d, is
    refused by gd and extend: exit 1, with the violation among the failed
    checks and in the error."""
    path = tmp_path / "builder.json"
    path.write_text(json.dumps(spec))
    for command in ("gd", "extend"):
        code, out, err = run(capsys, command, str(path), "--json")
        assert (code, err) == (1, ""), command
        doc = json.loads(out)
        assert {"name": name, "pass": False} in doc["checks"]
        assert name in doc["error"]


def test_malformed_specs_exit_2_with_the_loader_message(tmp_path, capsys):
    """The refusals of the algebra and builder loaders, through check and
    through gd and extend: exit 2, nothing on standard output, and the
    message with its location: a builder file's own refusals start with
    its path, and those of a part it names start with that file's path.
    A part path with a null byte cannot be opened, and an integer of 5000
    digits is beyond Python's limit for converting text to int."""
    small = {"dim": 1, "metric": [[1, 1, 1]]}
    alg = tmp_path / "alg.json"
    huge = tmp_path / "huge.json"
    huge.write_text('{"dim": 1, "brackets": [[1, 1, 1, ' + "9" * 5000 + "]]}")
    code, out, err = run(capsys, "check", str(huge), "--json")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {huge}: invalid JSON: Exceeds the limit")
    nul = tmp_path / "a\u0000b.json"
    for doc, message in (
            ([], f"{alg}: algebra spec must be an object"),
            ({"dim": 2, "brakets": [[1, 2, 2, 1]]},
             f"{alg}: unknown key 'brakets'; the keys are dim, names, brackets, metric"),
            ({"dim": 2, "metric": [[1, 1]]},
             f"{alg}.metric[0]: metric entry must be [i, j, value]")):
        alg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(alg), "--json")
        assert (code, out, err) == (2, "", f"error: {message}\n")
    spec = tmp_path / "builder.json"
    for doc, message in (
            ([], f"{spec}: builder spec must be an object"),
            ({"h": small, "pi": [[[0]]]}, f"{spec}: builder spec is missing 'd'"),
            ({"d": small, "pi": [[[0]]]}, f"{spec}: builder spec is missing 'h'"),
            ({"d": {"dim": 1}, "h": small, "pi": [[[0]]]}, f"{spec}: 'd' needs a metric"),
            ({"d": small, "h": {"dim": 1}, "pi": [[[0]]]}, f"{spec}: 'h' needs a metric"),
            ({"d": small, "h": small, "pi": []}, f"{spec}: 'pi' must list 1 matrices"),
            ({"d": small, "h": small, "pi": [[[0]]], "Pi": [[[1]]]},
             f"{spec}: unknown key 'Pi'; the keys are d, h, pi"),
            ({"d": {**small, "Metric": []}, "h": small, "pi": [[[0]]]},
             f"{spec}.d: unknown key 'Metric'; the keys are dim, names, brackets, metric"),
            ({"d": small, "h": small, "pi": [[[0, 0]]]},
             f"{spec}.pi[0]: matrix must be 1x1"),
            ({"d": {**small, "metric": [[1, 1]]}, "h": small, "pi": [[[0]]]},
             f"{spec}.d.metric[0]: metric entry must be [i, j, value]"),
            ({"d": "alg.json", "h": small, "pi": [[[0]]]},
             f"{alg}.metric[0]: metric entry must be [i, j, value]"),
            ({"d": "a\u0000b.json", "h": small, "pi": [[[0]]]},
             f"{nul}: embedded null byte"),
            ({"d": {"dim": 13, "metric": []}, "h": {"dim": 6, "metric": []}},
             f"{spec}: the double h + d + h* has dimension 25, above the "
             f"largest supported dimension {MAX_DIM}")):
        spec.write_text(json.dumps(doc))
        for command in ("gd", "extend"):
            code, out, err = run(capsys, command, str(spec), "--json")
            assert (code, out, err) == (2, "", f"error: {message}\n"), doc


@pytest.fixture(scope="module")
def matrix_pass(tmp_path_factory):
    """One pass of the byte-identity matrix (``tests/report_matrix.py``):
    {argv key: (digest, Fraction operations of the run)}, counted by the
    benchmark harness's ``FractionCounter``."""
    layers = _bench_layers()

    def counted(argv):
        with layers.FractionCounter() as count:
            digest = report_matrix._run(argv)
        return digest, count.count
    return report_matrix.digests(tmp_path_factory.mktemp("matrix"), counted)


def test_reports_match_the_recorded_digests(matrix_pass):
    """Every argv of the byte-identity matrix gives the exit code, streams
    and files recorded in ``tests/report_digests.json``; the assertion
    names each argv that moved."""
    assert report_matrix.moved({key: digest for key, (digest, _) in matrix_pass.items()}) == []


def test_no_run_of_the_matrix_makes_fraction_arithmetic(matrix_pass):
    """No argv of the matrix adds, subtracts, multiplies or divides a
    Fraction, from parsing its argv to printing its report: the corpus
    checks, the reductive split and Kostant's form included."""
    assert {key: n for key, (_, n) in matrix_pass.items() if n} == {}


@pytest.mark.parametrize("name", ["gH", "h3_metric_0", "rpq_2_2"])
def test_series_and_so_aut_refuse_a_perturbed_pi(name, tmp_path, capsys):
    """A builder with one moved pi entry is refused by series and
    derivations --so-aut as by gd: exit 1 and the same failed checks and
    error in the report."""
    outdir = emit_corpus(tmp_path, capsys, name)
    spec = json.loads((outdir / f"{name}_builder.json").read_text())
    spec["pi"][0][0][0] = str(Fraction(spec["pi"][0][0][0]) + 1)
    bad = tmp_path / "bad_builder.json"
    bad.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "gd", str(bad), "--json")
    assert code == 1
    want = json.loads(out)
    assert any(c["name"].endswith("_not_skew") for c in want["checks"])
    for argv in (("series", str(bad)), ("derivations", "--so-aut", str(bad))):
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["passed"] is False
        assert (doc["checks"], doc["error"]) == (want["checks"], want["error"])


def test_geometry_command(tmp_path, capsys):
    outdir = emit_corpus(tmp_path, capsys, "h3_metric_0")
    code, out, _ = run(capsys, "geometry", str(outdir / "h3_metric_0.json"),
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sectional"] == {"1,2": "-3/4", "1,3": "1/4", "2,3": "1/4"}
    assert doc["ricci_operator"][0][0] == "-1/2"
    assert doc["ricci_charpoly"] == ["1", "1/2", "-1/4", "-1/8"]


def test_geometry_flags_degenerate_planes(tmp_path, capsys):
    # a12's double extension has null directions, e.g. the plane (e4, e4*)
    outdir = emit_corpus(tmp_path, capsys, "a12")
    code, out, _ = run(capsys, "geometry", str(outdir / "a12.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert "degenerate" in doc["sectional"].values()


def _add_e0_to_g00(data, ginv):
    """Gamma(e0, e0) + e0: torsion is unchanged, and Gamma_e0 is no longer
    metric-skew, as the metric is nondegenerate."""
    comps = data.setdefault((0, 0), {})
    comps[0] = comps.get(0, 0) + 1


def _add_skew_to_gamma_e0(data, ginv):
    """Gamma_e0 + g^-1 S for S = E_01 - E_10, which changes only
    Gamma(e0, e0) and Gamma(e0, e1): Gamma_e0 stays metric-skew, and
    Gamma(e0, e1) - Gamma(e1, e0) moves by g^-1 e0."""
    for p, row in enumerate(ginv):
        for x, c in ((0, -row[1]), (1, row[0])):
            comps = data.setdefault((0, x), {})
            comps[p] = comps.get(p, 0) + c


@pytest.mark.parametrize("change, broken", [(_add_e0_to_g00, "metric_compatible"),
                                            (_add_skew_to_gamma_e0, "torsion_free")])
def test_geometry_reports_a_connection_that_fails_a_self_check(
        change, broken, tmp_path, capsys, monkeypatch):
    real = cli.levi_civita

    def nudged(alg, form):
        data = {k: dict(v) for k, v in real(alg, form).data.items()}
        change(data, linalg.inverse(form.rows()))
        return Tensor(alg.dim, 2, data)

    monkeypatch.setattr(cli, "levi_civita", nudged)
    outdir = emit_corpus(tmp_path, capsys, "gH")
    code, out, _ = run(capsys, "geometry", str(outdir / "gH.json"), "--json")
    assert code == 1
    assert [c["name"] for c in json.loads(out)["checks"] if not c["pass"]] == [broken]


def test_derivations_command(tmp_path, capsys):
    outdir = emit_corpus(tmp_path, capsys, "gH")
    code, out, _ = run(capsys, "derivations", str(outdir / "gH.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"] and all(c["pass"] for c in doc["checks"])
    assert "skew_dim" in doc and "inner_dim" in doc
    code, out, _ = run(capsys, "derivations", "--so-aut",
                       str(outdir / "h3_metric_0_builder.json"), "--json")
    assert code == 2  # that builder was not emitted into this directory


def test_derivations_refuses_a_metric_of_another_dimension(tmp_path, capsys):
    """A --metric file of another dimension is malformed input in either
    direction: smaller (which ran on with a bogus skew_dim) and larger
    (which ended in a traceback)."""
    outdir = emit_corpus(tmp_path, capsys, "gH")
    run(capsys, "corpus", "h3_metric_1", "--emit", "--dir", str(outdir))
    big, small = str(outdir / "gH.json"), str(outdir / "h3_metric_1.json")
    for algebra, metric, dims in ((small, big, (6, 3)), (big, small, (3, 6))):
        code, out, err = run(capsys, "derivations", algebra, "--metric", metric,
                             "--json")
        assert code == 2, (algebra, metric)
        assert out == ""
        assert err == (f"error: {metric}: metric has dimension {dims[0]}, but the "
                       f"algebra in {algebra} has dimension {dims[1]}\n")


def test_derivations_so_aut(tmp_path, capsys):
    outdir = emit_corpus(tmp_path, capsys, "h3_metric_0")
    code, out, _ = run(capsys, "derivations", "--so-aut",
                       str(outdir / "h3_metric_0_builder.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["so_aut_dim"] == 1
    assert doc["so_aut_pairs"][0]["A"] == [["0"]]
    assert doc["so_aut_pairs"][0]["B"] in ([["0", "-1"], ["1", "0"]],
                                           [["0", "1"], ["-1", "0"]])


def test_reports_are_deterministic(tmp_path, capsys):
    outdir = emit_corpus(tmp_path, capsys, "oscillator")
    _, out1, _ = run(capsys, "corpus", "oscillator", "--json")
    _, out2, _ = run(capsys, "corpus", "oscillator", "--json")
    assert out1 == out2
    report = tmp_path / "r.json"
    code, _, _ = run(capsys, "check", str(outdir / "oscillator.json"),
                     "--report", str(report))
    assert code == 0
    assert json.loads(report.read_text())["passed"]


def test_corpus_all(capsys):
    code, out, _ = run(capsys, "corpus", "all", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert len(doc["checks"]) > 100


@pytest.mark.parametrize("name", corpus_list() + ["all"])
def test_corpus_report_matches_the_golden_digest(name, capsys):
    """The sha256 of each ``corpus NAME --json`` report and of ``corpus all
    --json`` equals the digest in bench/golden.json, so a change of a
    report byte fails here as well as in a benchmark run."""
    code, out, _ = run(capsys, "corpus", name, "--json")
    assert code == 0
    golden = GOLDEN["corpus"]
    want = golden["report_sha256"] if name == "all" else golden["entries"][name]
    assert hashlib.sha256(out.encode()).hexdigest() == want


@pytest.fixture(scope="module")
def emitted_corpus(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("emitted") / "corpus"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["corpus", "all", "--emit", "--dir", str(outdir)]) == 0
    return outdir


def _moved(matrix_pass, *prefixes):
    """The argv keys of the matrix that begin with one of the prefixes and
    whose digest moved; each prefix must begin some key."""
    keys = [key for key in matrix_pass if key.startswith(prefixes)]
    assert all(any(key.startswith(p) for key in keys) for p in prefixes), prefixes
    return [key for key in keys if matrix_pass[key][0] != RECORDED[key]]


@pytest.mark.parametrize("name", corpus_list())
def test_derivations_reports_match_the_digests(name, matrix_pass):
    """The derivation, skew-derivation (against the metric of the next
    entry of the same dimension too) and so_aut reports of every emitted
    corpus entry keep their bytes."""
    assert _moved(matrix_pass, f"derivations {name}.json ",
                  f"derivations --so-aut {name}_builder.json ") == []


@pytest.mark.parametrize("name", corpus_list())
def test_dense_derivations_reports_match_the_digests(name, matrix_pass):
    """The derivation and so_aut reports of every corpus entry under a dense
    change of basis keep their bytes, skew and so_aut bases included."""
    assert _moved(matrix_pass, f"cd dense; derivations {name}.json ",
                  f"cd dense; derivations --so-aut {name}_builder.json ") == []


@pytest.mark.parametrize("name", corpus_list())
def test_dense_construction_reports_match_the_digests(name, matrix_pass):
    """The gd, extend, series, verify-as, check and geometry reports on
    every corpus builder under a dense change of basis and on the d + h*
    that gd writes from it keep their bytes, and so does that file."""
    assert _moved(matrix_pass, *(f"cd dense; {cmd} {name}_builder.json "
                                 for cmd in ("gd", "extend", "series", "verify-as")),
                  *(f"cd dense; {cmd} {name}.json " for cmd in ("check", "geometry")),
                  f"gd {name}_conj_builder.json --emit ") == []


@pytest.mark.parametrize("name", corpus_list())
def test_route_reports_match_the_digests(name, matrix_pass):
    """The check, geometry and verify-as reports of every emitted corpus
    entry, which read the connection, curvature and T routes, keep their
    bytes."""
    assert _moved(matrix_pass, f"check {name}.json ", f"geometry {name}.json ",
                  f"verify-as {name}_builder.json ") == []


@pytest.mark.parametrize("name", corpus_list())
def test_construction_reports_match_the_digests(name, matrix_pass):
    """The gd, extend and series reports of every emitted corpus builder,
    which read the construction of d + h* and of the double extension, keep
    their bytes."""
    assert _moved(matrix_pass, *(f"{cmd} {name}_builder.json "
                                 for cmd in ("gd", "extend", "series"))) == []


def test_check_refuses_booleans_as_integers(tmp_path, capsys):
    cases = [
        ({"dim": True}, "dim"),
        ({"dim": 2, "brackets": [[True, 2, 1, 1]]}, "brackets[0]"),
        ({"dim": 2, "brackets": [[1, 2, False, 1]]}, "brackets[0]"),
        ({"dim": 2, "metric": [[1, 1, 1], [1, True, 1]]}, "metric[1]"),
    ]
    for doc, where in cases:
        f = tmp_path / "bool.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(f), "--json")
        assert code == 2, doc
        assert out == ""
        assert where in err


def test_check_refuses_repeated_metric_entry(tmp_path, capsys):
    f = tmp_path / "twice.json"
    f.write_text(json.dumps(
        {"dim": 2, "metric": [[1, 1, 1], [2, 2, 1], [1, 1, -1]]}))
    code, _, err = run(capsys, "check", str(f), "--json")
    assert code == 2
    assert "metric[2]" in err and "repeats metric[0]" in err


def test_series_reports_inconsistent_prediction(tmp_path, capsys, monkeypatch):
    from adinvar import series
    from adinvar.core import SeriesResult
    from adinvar.io import load_builder_file
    outdir = emit_corpus(tmp_path, capsys, "gH")
    spec = str(outdir / "gH_builder.json")
    d_dim = load_builder_file(spec).d.dim

    def off_by_one(real):
        """The series as computed, one step longer on d + h* only."""
        def computed(alg):
            res = real(alg)
            if alg.dim == d_dim:
                return res
            return SeriesResult(res.chain, res.step + 1)
        return computed

    monkeypatch.setattr(series, "lower_central_series",
                        off_by_one(series.lower_central_series))
    monkeypatch.setattr(series, "derived_series",
                        off_by_one(series.derived_series))
    code, out, _ = run(capsys, "series", spec, "--json")
    assert code == 1
    doc = json.loads(out)
    checks = {c["name"]: c["pass"] for c in doc["checks"]}
    assert checks == {"nilpotent_prediction": False,
                      "solvable_prediction": False}
    for kind in ("nilpotent", "solvable"):
        assert doc[kind]["computed"] == doc[kind]["predicted"] + 1


def test_check_refuses_decimal_rationals_and_repeated_names(tmp_path, capsys):
    cases = [
        ({"dim": 2, "metric": [[1, 1, "0.5"], [2, 2, 1]]}, "metric[0]"),
        ({"dim": 2, "brackets": [[1, 2, 1, "1e3"]]}, "brackets[0]"),
        ({"dim": 2, "names": ["a", "a"]}, "names[1]"),
    ]
    for doc, where in cases:
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(f), "--json")
        assert code == 2, doc
        assert out == ""
        assert where in err


def test_commands_refuse_a_dimension_above_the_cap(tmp_path, capsys):
    huge = {"dim": 100000000}
    small = {"dim": 1, "metric": [[1, 1, 1]]}
    alg = tmp_path / "huge.json"
    alg.write_text(json.dumps(huge))
    spec = tmp_path / "huge_builder.json"
    spec.write_text(json.dumps({"d": huge, "h": small, "pi": [[[0]]]}))
    for argv in (["check", str(alg)], ["geometry", str(alg)],
                 ["derivations", str(alg)], ["gd", str(spec)],
                 ["verify-as", str(spec)]):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 2, argv
        assert out == ""
        assert "'dim' 100000000 exceeds" in err


def test_commands_refuse_brackets_and_metric_that_are_not_lists(tmp_path, capsys):
    """'brackets': null, 'metric': null and 'metric': 5 in an emitted algebra
    file exit 2 with a located message from every command that reads it."""
    outdir = emit_corpus(tmp_path, capsys, "gH")
    good = str(outdir / "gH.json")
    doc = json.loads((outdir / "gH.json").read_text())
    for key, value in (("brackets", None), ("metric", None), ("metric", 5)):
        bad = tmp_path / "gH.json"
        bad.write_text(json.dumps({**doc, key: value}))
        for argv in (["check", str(bad)], ["geometry", str(bad)],
                     ["derivations", str(bad)],
                     ["derivations", good, "--metric", str(bad)]):
            code, out, err = run(capsys, *argv, "--json")
            assert code == 2, (key, value, argv)
            assert out == ""
            assert err == f"error: {bad}: '{key}' must be a list\n"
    spec = json.loads((outdir / "gH_builder.json").read_text())
    for part, key, value in (("d", "brackets", None), ("h", "metric", 5)):
        bad = tmp_path / "gH_builder.json"
        bad.write_text(json.dumps({**spec, part: {**spec[part], key: value}}))
        for argv in (["gd", str(bad)], ["extend", str(bad)], ["verify-as", str(bad)],
                     ["series", str(bad)], ["derivations", "--so-aut", str(bad)]):
            code, out, err = run(capsys, *argv, "--json")
            assert code == 2, (part, key, argv)
            assert out == ""
            assert err == f"error: {bad}.{part}: '{key}' must be a list\n"


def test_commands_refuse_files_that_are_not_utf8_or_nested_too_deeply(tmp_path,
                                                                       capsys):
    """A file that is not UTF-8, and JSON nested deeper than the parser's
    recursion limit, exit 2 with a message naming the file, read directly
    or as the 'd' part of a builder."""
    small = {"dim": 1, "metric": [[1, 1, 1]]}
    for name, data in (("latin.json", b'\xff\xfe{"dim": 1}'),
                       ("deep.json", b"[" * 100000 + b"]" * 100000)):
        bad = tmp_path / name
        bad.write_bytes(data)
        spec = tmp_path / f"builder_{name}"
        spec.write_text(json.dumps({"d": name, "h": small, "pi": [[[0]]]}))
        for argv in (["check", str(bad)], ["gd", str(spec)]):
            code, out, err = run(capsys, *argv, "--json")
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: {bad}: ") and "Traceback" not in err


def _failing_inputs(emitted, here):
    """Write into ``here`` the gH files of the matrix's failing reports
    (``report_matrix._failing_inputs``), made from the emitted gH files."""
    for name in ("gH.json", "gH_builder.json"):
        (here / name).write_bytes((emitted / name).read_bytes())
    with report_matrix._inside(here):
        report_matrix._failing_inputs()


# reports that fail a check or print the human form
FAILING = sorted((
    *((cmd, "gH_nudged.json", "--json") for cmd in ("check", "geometry", "derivations")),
    *(("geometry", f"gH_{kind}.json", "--json") for kind in ("no_metric", "degenerate")),
    *((*cmd, "gH_moved_builder.json", "--json")
      for cmd in (("gd",), ("extend",), ("verify-as",), ("series",), ("derivations", "--so-aut"))),
    ("check", "gH_nudged.json"), ("verify-as", "gH_builder.json"), ("corpus", "gH")))


@pytest.mark.parametrize("argv", FAILING)
def test_failing_and_human_reports_match_the_digests(argv, matrix_pass):
    """Reports with failed checks, and the human form (written with
    --report in the matrix) of three reports, keep their bytes."""
    form = "" if "--json" in argv else " --report out/report.json"
    assert _moved(matrix_pass, " ".join(argv) + form) == []


def test_geometry_and_check_report_the_same_jacobi_witness(emitted_corpus,
                                                           tmp_path, capsys,
                                                           monkeypatch):
    """geometry reports a failed Jacobi identity with the witness of check:
    each failing 1-based triple and its cyclic sum."""
    _failing_inputs(emitted_corpus, tmp_path)
    monkeypatch.chdir(tmp_path)
    jacobi = []
    for command in ("check", "geometry"):
        code, out, _ = run(capsys, command, "gH_nudged.json", "--json")
        assert code == 1
        jacobi.append([c for c in json.loads(out)["checks"] if c["name"] == "jacobi"])
    assert jacobi[0] == jacobi[1]
    assert jacobi[0][0]["pass"] is False and jacobi[0][0]["witness"]


@pytest.mark.parametrize("command", [("gd",), ("extend",), ("verify-as",),
                                     ("series",), ("derivations", "--so-aut")])
def test_refused_reports_are_written_as_printed(command, emitted_corpus,
                                                tmp_path, capsys, monkeypatch):
    """A report refused for its construction data goes to --report byte for
    byte as to stdout, with exit 1."""
    _failing_inputs(emitted_corpus, tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *command, "gH_moved_builder.json", "--json",
                         "--report", "r.json")
    assert (code, err) == (1, "")
    assert "error" in json.loads(out)
    assert (tmp_path / "r.json").read_text() == out


def test_output_paths_that_cannot_be_written_exit_2(tmp_path, capsys):
    """--report, --emit and corpus --emit --dir under a regular file end in
    exit 2 and a message that names the path, not in a traceback."""
    outdir = emit_corpus(tmp_path, capsys, "h3_metric_0")
    spec, alg = outdir / "h3_metric_0_builder.json", outdir / "h3_metric_0.json"
    blocker = tmp_path / "plain_file"
    blocker.write_text("")
    under = str(blocker / "out.json")
    for argv in (["check", str(alg), "--report", under],
                 ["gd", str(spec), "--emit", under],
                 ["extend", str(spec), "--emit", under],
                 ["verify-as", str(spec), "--json", "--report", under],
                 ["corpus", "h3_metric_0", "--emit", "--dir", under],
                 ["corpus", "h3_metric_0", "--emit", "--dir", str(blocker)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {argv[-1]}: ") and "Traceback" not in err


def test_written_reports_and_emitted_files_keep_their_layout(tmp_path, capsys):
    """A --report file holds the --json report byte for byte (sorted keys),
    also where the report holds the library's Fractions and tuples, as
    geometry and derivations --so-aut do on a dense conjugated builder;
    emitted algebra files keep the order in which they are built."""
    outdir = emit_corpus(tmp_path, capsys, "h3_metric_0")
    report, emitted = tmp_path / "r.json", tmp_path / "gd.json"
    code, out, _ = run(capsys, "gd", str(outdir / "h3_metric_0_builder.json"),
                       "--json", "--report", str(report), "--emit", str(emitted))
    assert code == 0
    assert report.read_text() == out
    doc = json.loads(emitted.read_text())
    assert doc == json.loads(out)["algebra"]
    assert list(doc) == ["dim", "names", "brackets", "metric"]
    assert emitted.read_text() == json.dumps(doc, indent=2) + "\n"
    dense = tmp_path / "dense_builder.json"
    dense.write_text(json.dumps(dump_builder_dict(conjugated_rep(corpus_build("gH").rep, 5))))
    assert run(capsys, "gd", str(dense), "--emit", str(emitted))[0] == 0
    for argv in (("geometry", str(emitted)), ("derivations", "--so-aut", str(dense))):
        code, out, _ = run(capsys, *argv, "--json", "--report", str(report))
        assert code == 0, argv
        assert report.read_text() == out, argv


def test_derivations_refuses_input_it_would_ignore(tmp_path, capsys):
    """An algebra file or --metric next to --so-aut, and a --metric file
    without a metric, exit 2 instead of being dropped."""
    outdir = emit_corpus(tmp_path, capsys, "gH")
    alg, spec = str(outdir / "gH.json"), str(outdir / "gH_builder.json")
    for argv in (["derivations", alg, "--so-aut", spec],
                 ["derivations", "--metric", alg, "--so-aut", spec]):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv, "--json")
        assert exc.value.code == 2, argv
        assert "--so-aut takes no algebra file" in capsys.readouterr().err
    doc = json.loads((outdir / "gH.json").read_text())
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({k: v for k, v in doc.items() if k != "metric"}))
    code, out, err = run(capsys, "derivations", alg, "--metric", str(bare), "--json")
    assert (code, out) == (2, "")
    assert err == f"error: {bare}: --metric needs a file with a 'metric'\n"


def test_corpus_refuses_input_it_would_ignore(tmp_path, capsys):
    """corpus --emit without an entry name, and --dir without --emit, exit 2
    and write nothing instead of being dropped."""
    outdir = tmp_path / "out"
    for argv, message in (
            (["corpus", "--emit"], "corpus --emit needs an entry name or 'all'"),
            (["corpus", "--emit", "--dir", str(outdir)],
             "corpus --emit needs an entry name or 'all'"),
            (["corpus", "--dir", str(outdir)], "corpus --dir takes effect only with --emit"),
            (["corpus", "gH", "--dir", str(outdir)],
             "corpus --dir takes effect only with --emit")):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv, "--json")
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.endswith(f"error: {message}\n"), argv
    assert not outdir.exists()


def test_corpus_refuses_an_unknown_entry(capsys):
    """An entry name that is not in the registry exits 2 and prints the
    message itself, not the repr of the KeyError that carries it."""
    known = ", ".join(corpus_list())
    for argv in (["corpus", "nosuch"], ["corpus", "nosuch", "--json"]):
        assert run(capsys, *argv) == (
            2, "", f"error: unknown corpus entry 'nosuch'; known: {known}\n"), argv


def test_derivations_omits_skew_fields_for_a_degenerate_metric_file(tmp_path,
                                                                     capsys):
    """A --metric file whose metric is degenerate is taken, and the skew
    fields are omitted as for a degenerate metric in the algebra file."""
    outdir = emit_corpus(tmp_path, capsys, "gH")
    alg = str(outdir / "gH.json")
    doc = json.loads((outdir / "gH.json").read_text())
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({**doc, "metric": [[1, 1, "1"]]}))
    code, out, _ = run(capsys, "derivations", alg, "--metric", str(flat), "--json")
    _, plain, _ = run(capsys, "derivations", str(flat), "--json")
    assert code == 0
    assert "skew_dim" not in json.loads(out)
    assert out == plain


def test_long_fields_end_in_a_marker_in_the_human_form(emitted_corpus, capsys):
    """The human form prints each field's JSON whole up to 2000 characters;
    a longer one is cut there and says how long it is and where to see it."""
    alg = str(emitted_corpus / "gH.json")
    code, out, _ = run(capsys, "geometry", alg, "--json")
    human_code, human, _ = run(capsys, "geometry", alg)
    assert code == human_code == 0
    lines = human.splitlines()
    cut = 0
    for key, value in json.loads(out).items():
        if key in ("command", "checks", "passed"):
            continue
        text = json.dumps(value, sort_keys=True)
        shown = lines[lines.index(f"{key}:") + 1]
        if len(text) > 2000:
            cut += 1
            text = f"{text[:2000]}... ({len(text)} characters in all; see --json)"
        assert shown == "  " + text, key
    assert cut


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    """Several ``main`` calls construct the ``adinvar`` parser at most once
    (none if an earlier call in the process built it), and no subparser
    twice."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["corpus"], ["corpus", "h3_metric_0", "--json"], ["corpus"]):
        assert run(capsys, *argv)[0] == 0
    assert built.count("adinvar") <= 1 and len(built) == len(set(built))


def test_calls_in_one_process_match_calls_on_their_own(emitted_corpus, tmp_path,
                                                       capsys, monkeypatch):
    """No option of one in-process call leaks into the next: after a usage
    error, a --metric whose metric is degenerate (no skew fields) and the
    same algebra without it, --so-aut still takes no algebra file, and each
    call prints what it prints in a fresh interpreter."""
    monkeypatch.setenv("COLUMNS", "80")
    alg = str(emitted_corpus / "h3_metric_0.json")
    doc = json.loads((emitted_corpus / "h3_metric_0.json").read_text())
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({**doc, "metric": [[1, 1, "1"]]}))
    spec = str(emitted_corpus / "h3_metric_0_builder.json")
    with pytest.raises(SystemExit) as exc:
        main(["derivations"])
    assert (exc.value.code, *capsys.readouterr()) == one_shot("derivations")
    outs = []
    for argv in (["derivations", alg, "--metric", str(flat), "--json"],
                 ["derivations", alg, "--json"],
                 ["derivations", "--so-aut", spec, "--json"]):
        outs.append(run(capsys, *argv))
        assert outs[-1] == one_shot(*argv), argv
    assert [code for code, _, _ in outs] == [0, 0, 0]
    assert "skew_dim" in json.loads(outs[1][1]) and "skew_dim" not in json.loads(outs[0][1])


def test_a_fresh_interpreter_prints_what_main_prints_in_process(capsys):
    for argv in (["corpus"], ["corpus", "gH"], ["corpus", "nope", "--json"]):
        run(capsys, *argv)
    argv = ["corpus", "h3_metric_0", "--json"]
    assert run(capsys, *argv) == one_shot(*argv)
