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

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))


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


def test_reports_match_the_recorded_digests(tmp_path):
    """Every argv of the byte-identity matrix (``tests/report_matrix.py``)
    gives the exit code, streams and files recorded in
    ``tests/report_digests.json``; the assertion names each argv that
    moved."""
    assert report_matrix.moved(report_matrix.digests(tmp_path)) == []


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


# sha256 of the reports of ``derivations NAME.json``, ``derivations NAME.json
# --metric PARTNER.json`` and ``derivations --so-aut NAME_builder.json`` (all
# with --json) over ``corpus all --emit``; PARTNER is the next entry, in
# registry order and cyclically, whose algebra has the same dimension
DERIVATIONS_SHA256 = {
    "a12": (
        "e256a4dc8b34fe29095035de6156f189c89e1e8a8580d7d54c9d99b8a75b8dac",
        "fabc09c4c5f4dd33482361080de6a14e770fb66cb72c5a9b6a1a7e1a4b346efa",
        "bc5d73fa23ed42ebb97842e584750b5413ff33b603bb7eda285151580a6410b8",
    ),
    "gE": (
        "034f0cdddd2e4418e98e460ef451d6af8ba616e59444afe0e920a82083fa0296",
        "034f0cdddd2e4418e98e460ef451d6af8ba616e59444afe0e920a82083fa0296",
        "62d1c72900f766a605271bc59fad420128186acb1b393bfb2846b944956510dc",
    ),
    "gF": (
        "c20818a5a09f6a3e6438c769cf9e5091a777c77246e9b1b3c8da276e317977dd",
        "c20818a5a09f6a3e6438c769cf9e5091a777c77246e9b1b3c8da276e317977dd",
        "5995dd83bdcd5f30622cd64147d5fb74a8239e8279a28d2e1beb7e0dfc7b9461",
    ),
    "gH": (
        "8443420b1ccdfef23712fde32e60702d7fc3629f294edce4f43eda5531714c5a",
        "8443420b1ccdfef23712fde32e60702d7fc3629f294edce4f43eda5531714c5a",
        "d9fd5909ce7430e778d25870cac7665ffbc6c5b5488ce38b1980f41df91bbfdf",
    ),
    "h3_metric_0": (
        "b669a99180636819682391d328839e02ae5ca012d217ebba5687769a66fbab7c",
        "b669a99180636819682391d328839e02ae5ca012d217ebba5687769a66fbab7c",
        "e62a34c6c2672dd5580d946feb61bd9b6b5e811abeab4bcd048f4c73d2cc3479",
    ),
    "h3_metric_1": (
        "b669a99180636819682391d328839e02ae5ca012d217ebba5687769a66fbab7c",
        "b893399342da4151d223c2b57f678ff337911b80c5031f402a297de00399aff6",
        "e62a34c6c2672dd5580d946feb61bd9b6b5e811abeab4bcd048f4c73d2cc3479",
    ),
    "h3_metric_2": (
        "b893399342da4151d223c2b57f678ff337911b80c5031f402a297de00399aff6",
        "b893399342da4151d223c2b57f678ff337911b80c5031f402a297de00399aff6",
        "31466d8b51892aa2178bb338a3848c88a10402fb262aa91bffb0c4267e3bdcf9",
    ),
    "h3_metric_3": (
        "b893399342da4151d223c2b57f678ff337911b80c5031f402a297de00399aff6",
        "b669a99180636819682391d328839e02ae5ca012d217ebba5687769a66fbab7c",
        "31466d8b51892aa2178bb338a3848c88a10402fb262aa91bffb0c4267e3bdcf9",
    ),
    "nilmanifold_demo": (
        "b669a99180636819682391d328839e02ae5ca012d217ebba5687769a66fbab7c",
        "b893399342da4151d223c2b57f678ff337911b80c5031f402a297de00399aff6",
        "e62a34c6c2672dd5580d946feb61bd9b6b5e811abeab4bcd048f4c73d2cc3479",
    ),
    "oscillator": (
        "06f52a8f9cddc8ac21cdf3f3c537e652102e354396a80455bc52bb0243fd5f89",
        "06f52a8f9cddc8ac21cdf3f3c537e652102e354396a80455bc52bb0243fd5f89",
        "e62a34c6c2672dd5580d946feb61bd9b6b5e811abeab4bcd048f4c73d2cc3479",
    ),
    "rpq_1_1": (
        "b893399342da4151d223c2b57f678ff337911b80c5031f402a297de00399aff6",
        "b669a99180636819682391d328839e02ae5ca012d217ebba5687769a66fbab7c",
        "31466d8b51892aa2178bb338a3848c88a10402fb262aa91bffb0c4267e3bdcf9",
    ),
    "rpq_2_0": (
        "b669a99180636819682391d328839e02ae5ca012d217ebba5687769a66fbab7c",
        "b669a99180636819682391d328839e02ae5ca012d217ebba5687769a66fbab7c",
        "e62a34c6c2672dd5580d946feb61bd9b6b5e811abeab4bcd048f4c73d2cc3479",
    ),
    "rpq_2_2": (
        "5ca2e73b5acf24647c615f681cc6e8f4860003d9808ecb73dd00d0db24bdd6dc",
        "5ed31ba4e299ff8e8195ed0df50fedd2149168a2bb1121cbef3360b1e0024b9b",
        "01ae96bcaf08fc6287b4d4f008b6db926d6ff4c9d069424da3b004bce2d090b8",
    ),
}


@pytest.fixture(scope="module")
def emitted_corpus(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("emitted") / "corpus"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["corpus", "all", "--emit", "--dir", str(outdir)]) == 0
    return outdir


@pytest.mark.parametrize("name", corpus_list())
def test_derivations_reports_match_the_digests(name, emitted_corpus, capsys):
    """The derivation, skew-derivation and so_aut reports of every emitted
    corpus entry keep their bytes."""
    dims = {n: json.loads((emitted_corpus / f"{n}.json").read_text())["dim"]
            for n in corpus_list()}
    same = [n for n in corpus_list() if dims[n] == dims[name]]
    partner = same[(same.index(name) + 1) % len(same)]
    algebra = str(emitted_corpus / f"{name}.json")
    calls = (("derivations", algebra, "--json"),
             ("derivations", algebra, "--metric",
              str(emitted_corpus / f"{partner}.json"), "--json"),
             ("derivations", "--so-aut",
              str(emitted_corpus / f"{name}_builder.json"), "--json"))
    for argv, want in zip(calls, DERIVATIONS_SHA256[name]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


# sha256 of ``derivations NAME.json --json``, of its human form
# ``derivations NAME.json`` and of ``derivations --so-aut NAME_builder.json
# --json``, where NAME_builder.json is the corpus builder under
# ``conjugated_rep(rep, 5)`` and NAME.json the d + h* that ``gd --emit``
# writes from it: dense rationals in ``skew_basis`` and ``so_aut_pairs``
DENSE_DERIVATIONS_SHA256 = {
    "a12": (
        "c32ac319af8e8a317504204ab1587d485cd829acb57f89bb42d2872e6f7abe3c",
        "9e8aa688025f9b757cb1b43fb678b717a525cf2581d9cb628c6d8012ba50265a",
        "56021dfa8ecebce051795f61c01ec0dfe956afceae8fb17bc46bf026fae20064",
    ),
    "gE": (
        "c7d1b4754790dfe198a7dcc4cd7fbf1ef6241b7483fb0c0304e5df2972675353",
        "b7e98dc280160ead870347e9b38d38c31e446669884695c437ae8a767af969c8",
        "d7412138157010bd4bba25145b7d0af7d1cd593a69edee69e086c357e6312429",
    ),
    "gF": (
        "a89e7a49e5033385a867c26f197bd15778d39bf09597dc80e17b1e774c01135f",
        "d8ab43d747881e73997f8e23c25fb0f3218f6b3359e316fc89e2f89b247efe68",
        "af8d636f965d6c905af18dc56a448c24e39e2ac7ec87582600d5e21575db177f",
    ),
    "gH": (
        "f0b31a2b9fe11da6c7c6f2f1fabc329a81da9d9424cc67a49dab63ec9e0cb6e8",
        "55f9eb9ab714363cc47f0a845e2e9baa6ac544c479a0315e9e1b5b371113477e",
        "04c9c4b50f79c8e1aed3477b147ac4ccbbb516399cbcc5b3ae775bd30bc9bcd1",
    ),
    "h3_metric_0": (
        "f2d77d91766f705388cf299e84e3ecfbef3960f58aab55731e288a2d16f7008d",
        "54d06aad3b658daf1e81528dd6b2f7856cd15648c52891562789c6831277733f",
        "09b2f2f5474cf85d4f0b3d286ea14894b38ed765ee83f0fdcfde30770a61a3b1",
    ),
    "h3_metric_1": (
        "f2d77d91766f705388cf299e84e3ecfbef3960f58aab55731e288a2d16f7008d",
        "54d06aad3b658daf1e81528dd6b2f7856cd15648c52891562789c6831277733f",
        "09b2f2f5474cf85d4f0b3d286ea14894b38ed765ee83f0fdcfde30770a61a3b1",
    ),
    "h3_metric_2": (
        "d2e5562c82ed9a718da409c9f0213de8c896b4aae27a5484ba4febd5bf7b2cd7",
        "67cc2bf3902afad82df64884d0be3ffa41598f2b1261388efcbdea13a0edd6ba",
        "460cec6685df440f016d4a93f2c3e0e9a1db101397851aa3fda47e89d728a187",
    ),
    "h3_metric_3": (
        "d2e5562c82ed9a718da409c9f0213de8c896b4aae27a5484ba4febd5bf7b2cd7",
        "67cc2bf3902afad82df64884d0be3ffa41598f2b1261388efcbdea13a0edd6ba",
        "460cec6685df440f016d4a93f2c3e0e9a1db101397851aa3fda47e89d728a187",
    ),
    "nilmanifold_demo": (
        "f2d77d91766f705388cf299e84e3ecfbef3960f58aab55731e288a2d16f7008d",
        "54d06aad3b658daf1e81528dd6b2f7856cd15648c52891562789c6831277733f",
        "09b2f2f5474cf85d4f0b3d286ea14894b38ed765ee83f0fdcfde30770a61a3b1",
    ),
    "oscillator": (
        "f2d77d91766f705388cf299e84e3ecfbef3960f58aab55731e288a2d16f7008d",
        "54d06aad3b658daf1e81528dd6b2f7856cd15648c52891562789c6831277733f",
        "09b2f2f5474cf85d4f0b3d286ea14894b38ed765ee83f0fdcfde30770a61a3b1",
    ),
    "rpq_1_1": (
        "d2e5562c82ed9a718da409c9f0213de8c896b4aae27a5484ba4febd5bf7b2cd7",
        "67cc2bf3902afad82df64884d0be3ffa41598f2b1261388efcbdea13a0edd6ba",
        "460cec6685df440f016d4a93f2c3e0e9a1db101397851aa3fda47e89d728a187",
    ),
    "rpq_2_0": (
        "f2d77d91766f705388cf299e84e3ecfbef3960f58aab55731e288a2d16f7008d",
        "54d06aad3b658daf1e81528dd6b2f7856cd15648c52891562789c6831277733f",
        "09b2f2f5474cf85d4f0b3d286ea14894b38ed765ee83f0fdcfde30770a61a3b1",
    ),
    "rpq_2_2": (
        "bed444c47ece9478afb13d1e17594ec311e1e7e9bcc413f97fb0a76fb46fd7c9",
        "952cd8d90879dafc84e8c0eeaf1d68a3e1c5cd5f48a946fd745ba0bd30ca25d8",
        "a49cd573f3470d3b7cd3ebcfba3d3322835f7e1b21a768801f573b3a8d316dfe",
    ),
}


@pytest.fixture(scope="module")
def dense_corpus(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("dense")
    with contextlib.redirect_stdout(io.StringIO()):
        for name in corpus_list():
            builder = outdir / f"{name}_builder.json"
            rep = conjugated_rep(corpus_build(name).rep, 5)
            builder.write_text(json.dumps(dump_builder_dict(rep)))
            assert main(["gd", str(builder), "--emit", str(outdir / f"{name}.json")]) == 0
    return outdir


@pytest.mark.parametrize("name", corpus_list())
def test_dense_derivations_reports_match_the_digests(name, dense_corpus, capsys):
    """The derivation and so_aut reports of every corpus entry under a dense
    change of basis keep their bytes, skew and so_aut bases included."""
    algebra = str(dense_corpus / f"{name}.json")
    calls = (("derivations", algebra, "--json"), ("derivations", algebra),
             ("derivations", "--so-aut",
              str(dense_corpus / f"{name}_builder.json"), "--json"))
    for argv, want in zip(calls, DENSE_DERIVATIONS_SHA256[name]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


# sha256 of the file NAME.json that `gd --emit` writes from the corpus
# builder under `conjugated_rep(rep, 5)`, then of `gd`, `extend`, `series` and
# `verify-as NAME_builder.json --json` and of `check` and `geometry NAME.json
# --json`, run in the directory of `dense_corpus` (the reports name the file
# they read): the construction of d + h* and of the double on dense rationals
DENSE_CONSTRUCTION_SHA256 = {
    "a12": (
        "b86d79a41106a5293fa3f03e503c466882a51898263568f1c66c7c268b3f5000",
        "a72ffce3da07aa7e353d73c8cf6b637629931ee4335c49513974c72d131d67e5",
        "074ecdc32f9df2f9cb446f9015c26553e06ca39c045d8815c11607f163cbecb6",
        "bb645ae782713c980d07392c1b0b4e3f978f7782af6dfb71335a3f74f9571554",
        "cef9844158410a6fd63532e35a67839b78545e35174e6396e2fd87ce4bc5680d",
        "038bfd7fb92e8b8cf52ead54a9eecea98c62dec6138b1ab5ee0dc4f264a40fc2",
        "7010e39059ae3dc613ba4396041a65e3ebe5e86ab97fb90599dd1bb6a4bb2dfe",
    ),
    "gE": (
        "7a46e84894a0d75dc5e8b612753a2c4cb1b54e3b322c2a511947089df0e12d29",
        "7fd21134ed0010f116677dc7ff1563dabdf9772340c64a19517a4f206593ee3f",
        "2bc882dfd2a74ac40eabbe1ce3dda26372410419b6f32450e368ad563b991796",
        "46056b2d000a58de7cd9cafe6f401916110c7fef482babc7a2fbff0ddec5d914",
        "a58fc5371038ae9b438e13a25dba07dd7b1f13cdedcc423c43699ffbff43e7e8",
        "bc9753a89dbe9213897c5e0c81a9ce7e13023c587bf03e51e336d27eac662603",
        "c9e17fa5f1ca0045b9e6a6256f7df1d339c623175a6df2ebd3a6b4566d501256",
    ),
    "gF": (
        "8ce55e2235c07fad6b80e0bc7854b39e02177d9b55ccd612058d58be536d6666",
        "7f4c02296d5b34930a2f8d484207509cb8577f4a6b1596c9d2931c038d780768",
        "2e159d3a3ef400624c978189537b08b2a7bfedfb8a116b3ac13b53ca30e33958",
        "bda97bf9ed8b1f59f11cc2cb205d23c32ab46c7081231c46d2cb58cb32fab07a",
        "980a6aa311993c08cf3a74695107147f6516a7d8fbc06b5bc1319405ee80bd5d",
        "e225557b4d527449d634fb252fcecab0cf9a1d13f5736354526973b41888825c",
        "2b41ed92a3a312c2ab3c0e690d3a5642072d5b28429f3ca3f6c9c048992b6b2e",
    ),
    "gH": (
        "7b870fb0aa44143b59f942dc8c79e3de699765a33f67af991420795f6f92da88",
        "f53c99b91f3a1846b87ea9a3bcb676b07f3057dc8e1705cab337558a4a87e681",
        "6760300aef2c344437c4fa3a7350a8d7398a2d07156ddf94a24543b700e2b42d",
        "96b31b746809f6a7f652f36294e42c254d6d5278e4090589271ec2aa73b8c523",
        "66b1943ec56b287c12d41acc66f22b111a9f9049649b517afddef1674e6472fa",
        "f0b985fcc3bd5fd2feb1a7e351176e775e4e9e8012ecf18f19e047e4c53c916e",
        "94c1d3e207c792bb24f56da81603fd64707d41c19bbcba89905edce461e2674f",
    ),
    "h3_metric_0": (
        "7249cb6b75f48cf1974e657a65935bea92abc8297d7fba486218b88c77d41e6c",
        "a9b8746a315a12d4d110702114802c0660abdadbf00d1b83643a4c88923d0a3d",
        "bfd3b552a53d7f8a07744ec9c456236ab2cd75639a30805eae860c901ee153d4",
        "5c2260331ebbc8898ae56c8f6d75a0f42cbdac053cd214c988b0dd85ccd27150",
        "a36f4437003ea55ffc16f5fff1d7ea1f656e80862676c3bfad0de73b0d5156d7",
        "4e0e84c3fc4f557aff8a4ce36c07e05b8330dd19e11f7ab19458aad89c006f3f",
        "8a781bf6686a055aecbaf8cfcb48e328b7dc4db4537ade2adc58ec29581358ce",
    ),
    "h3_metric_1": (
        "aa572a27e04bd80f1a086de8288aede406c79db21ee3efb642eabba7773fb74c",
        "2ed4536ae75faf1d23566983475fb38d232dd24a641386ca5b601e1a1fac1643",
        "6245479f5f9ee0b8f5ff4de33a7adf232189538da0824477c226f2d4aa503483",
        "7ba4887441ee4834d5ca7e554d65c3661be531f987792ab93ff1076625d4d981",
        "1d2183fde99e53e6e8a98917c5614755dcd1eeebcbf56ec20f84ba62d1a592b5",
        "c901679e3a5b611f4e1e35c5737efa60c2845c83d5769e9f292415ac67359cb7",
        "7b86da7d1204f1e474a15e686aa0cb504e7ef6d374f84c34f0a9db0eaf94cbab",
    ),
    "h3_metric_2": (
        "8a7e288bfaaf19f8abc756616b4d22714b42b38867ca82f6dfc97d721774d1ef",
        "4f1fd500b7503751d4b20ad5c302fe1c2e0bcffb35986b3df28350a6e85c64b7",
        "b6d280194fee6ec00687ba0edd6ade46f4eaa170fe7e1e64569941def2c2d3d9",
        "9834af0d079d823bdda9f66440219801ad8eae8278485718862b612e5dae96e0",
        "61882c6f17f652d6154ef80a71db0450836c896b34e05113dd8dcd173e0138e5",
        "e42d99ef471b463de826ad65a999d510390720d73afb1077f4842202437dcb3a",
        "41474e3d7f66502040282204d339fe507478955d60224b262460c1108f154d48",
    ),
    "h3_metric_3": (
        "a1d7fb20bba98b3d6aa2922ac591d0ccd9559e5f34d59620a1fbed4c91846e58",
        "2840286f435e17f0ecd376226f8b54f87ef9fa194b9d822908354ad1bcda4bd2",
        "7e6ad05dd6f8fcfdd96c06abd53efb9c82562103e9741e82f764e67c88709073",
        "4918e4444db27646c6a615be2b36499c445b47960af54c44b1441181bf85ceab",
        "5689d577c6ff8725a4f2be8e0375d006a349fb447f6003fc17166030b4c035a3",
        "61793872635a6d69f8e003206e0a022f56f94311e4594b157a130db211f8f8b9",
        "a25aaa6412c09754abe93cae59b8eccafa87bdf31d4be62dee8602a46af475b5",
    ),
    "nilmanifold_demo": (
        "d3eb65135f59cfefb2527e536348bb4450ba6cf1ca9210113b78e51857183b89",
        "41038500f6c939c1cc8997f406d7e8ba9b4e49030630804c7b13666742b6d50e",
        "db52b9eb7d0518273bc823ea3dfee4767ed06b5a0be93c23527bc0e33e703036",
        "fc47c3d9faedae4814ed58dc2f5e18160c9adfe3b4b5415834a467acd4bc3961",
        "53b951b07510b32884e0f103b8538ccac2dc652dabc7e78ba3379c3bbb245ffd",
        "b02881818478463ab225a1c4c88ca99297152f81eff350359a1ec2c06a7f61c6",
        "3a18d4f43245513f8987f38be70fb8fff5af31bfcea8a9487ba166c9c5645d11",
    ),
    "oscillator": (
        "7249cb6b75f48cf1974e657a65935bea92abc8297d7fba486218b88c77d41e6c",
        "6f67ffc0b79de4b780091572d6122ed578b35975deacb552b1542e9de998ea18",
        "ba2e10410a25cceedafd4d0c58074bd43c03934b41e72d0fb27dd55e2bf495c6",
        "6d14cae54cb82d9a9ff84add4c88a1d6ddfebdbb3023a605cafcf67198e1fcf1",
        "8ddbfcb50a896c3259f861aa88499f204961d11c588f5a08c340f2268b73f7e8",
        "c7f8ebfd5a7ca6e1a9e896d3561a669d41c85bb5e30fb0c199493e9c3f5cee70",
        "fc91baef406471b5b99e5bf2f96da3752be11b337ce59dd2f7c3f8decb6548a8",
    ),
    "rpq_1_1": (
        "8a7e288bfaaf19f8abc756616b4d22714b42b38867ca82f6dfc97d721774d1ef",
        "90c7b189da8c3fee9b17cac2bfc796a39a694fce94214b7d3ac19d17149b174b",
        "38d671892e5fb19793ed69fb46f3374e47db99ec9cceccd4a3e907cd27210645",
        "e8b24a668eaef04c9b4bb452b98949edf0da3bbc0106e6d5070066e9cfb43ffb",
        "0ae3b06a5fe2588de4a0a36e203afe491c57f48760a3b3f65f6f0acec3d31036",
        "ede03dcda0e4c5b7402653718c159ab7e719b92134996bda5fba21a546da9374",
        "f73f54bc7d315219ce2c9c9202b0857f76a8ee379d09ed25da5d96bf1277ceb6",
    ),
    "rpq_2_0": (
        "7249cb6b75f48cf1974e657a65935bea92abc8297d7fba486218b88c77d41e6c",
        "d43484e80e17617511566666f2bf5cbe9d3585d6d2bfa5c84e463b4d6ee3e240",
        "64fcc84dde5c2ed29b377d3449a225e9439bd5fe6c1514aa925effc0f4f0a15d",
        "2ad93ab51ac186f48d359c9c019c50bf1fb776a11b058b90b6a95308b57ededc",
        "ce71510a27b934bc9b49a3f73405de7ce6e6b9c920202ea8abe295f8a1307794",
        "7f9e429f83cb14a64fa229d5500788865711b805d79a8b0a6db53244767d2479",
        "efa5768284dbf82092883afe247f39cd8864249bd4356bd7387b9d939da48174",
    ),
    "rpq_2_2": (
        "9b4113fa89bd95578e1be4b2e10d6788a6f074859e23d5199b3f19f0166bba2b",
        "8333a8a76a34859b58ab6cf4c76a6e1f61490cb2d84fd836c6f212f8c503bab9",
        "917a3f467f1a63815de9ba42f1f20d8a5080338d12192848339f3ab752d88282",
        "e22dd4295dcd45f2c0d23c3f1c61c2fe1b713f1556dc85bfc8821f7665b0214a",
        "ad849d49fe40c0a6ca9affeb0e31f401a5889387fb001ce2ee5121ff18871d4c",
        "2308726d89fb1b2c879efcea52387972dc8b346d5e73ff4ca0c5f30e257c553c",
        "a1f3bdeca53dbb2825d6609d0006e1afa107f9aed79fd50cebf87c23bb4e6b08",
    ),
}


@pytest.mark.parametrize("name", corpus_list())
def test_dense_construction_reports_match_the_digests(name, dense_corpus, capsys,
                                                      monkeypatch):
    """The d + h* that gd writes from every corpus builder under a dense
    change of basis, and the gd, extend, series, verify-as, check and
    geometry reports on it and on its builder, keep their bytes."""
    monkeypatch.chdir(dense_corpus)
    emitted, *want = DENSE_CONSTRUCTION_SHA256[name]
    assert hashlib.sha256((dense_corpus / f"{name}.json").read_bytes()).hexdigest() == emitted
    calls = [(cmd, f"{name}_builder.json") for cmd in ("gd", "extend", "series", "verify-as")]
    calls += [(cmd, f"{name}.json") for cmd in ("check", "geometry")]
    for argv, digest in zip(calls, want, strict=True):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# sha256 of `check NAME.json --json`, `geometry NAME.json --json` and
# `verify-as NAME_builder.json --json`, run in the directory of the files
# of `corpus all --emit` (the reports name the file they read)
ROUTES_SHA256 = {
    "a12": (
        "33eb5b8d05a2cecf502cb23b72f0534f54a1aee9ca8e51baa9d1e0c25c00c9f8",
        "0fdf1eee64ca2683002fbad04072936596f167882356df49e8fd77fb3827acd1",
        "cef9844158410a6fd63532e35a67839b78545e35174e6396e2fd87ce4bc5680d",
    ),
    "gE": (
        "bc9753a89dbe9213897c5e0c81a9ce7e13023c587bf03e51e336d27eac662603",
        "1cfea23f08b356967c77741734abbe0d24fbcb50b5e471e9835029aeeee01c9e",
        "a58fc5371038ae9b438e13a25dba07dd7b1f13cdedcc423c43699ffbff43e7e8",
    ),
    "gF": (
        "e225557b4d527449d634fb252fcecab0cf9a1d13f5736354526973b41888825c",
        "75abfb09c91cd340e38a12af941bb164fd233dfac4e620665df38b50369581f2",
        "980a6aa311993c08cf3a74695107147f6516a7d8fbc06b5bc1319405ee80bd5d",
    ),
    "gH": (
        "f0b985fcc3bd5fd2feb1a7e351176e775e4e9e8012ecf18f19e047e4c53c916e",
        "9de7d832b6fa8e17ee8e04954fad175a114f5644792983f36a015184931fdfb9",
        "66b1943ec56b287c12d41acc66f22b111a9f9049649b517afddef1674e6472fa",
    ),
    "h3_metric_0": (
        "4e0e84c3fc4f557aff8a4ce36c07e05b8330dd19e11f7ab19458aad89c006f3f",
        "f81e2e14a4202c5cb017308798bf3a4e893d238ac9a636b5231420b6211b3040",
        "a36f4437003ea55ffc16f5fff1d7ea1f656e80862676c3bfad0de73b0d5156d7",
    ),
    "h3_metric_1": (
        "c901679e3a5b611f4e1e35c5737efa60c2845c83d5769e9f292415ac67359cb7",
        "8041d5fd6856bd130060673865ee1d96421f568472cd60e19040693dff0148de",
        "1d2183fde99e53e6e8a98917c5614755dcd1eeebcbf56ec20f84ba62d1a592b5",
    ),
    "h3_metric_2": (
        "e42d99ef471b463de826ad65a999d510390720d73afb1077f4842202437dcb3a",
        "be72fc30f78fb63171496ab917d374bcbea9d2e2ba195124d3daf55fe66d1ae5",
        "61882c6f17f652d6154ef80a71db0450836c896b34e05113dd8dcd173e0138e5",
    ),
    "h3_metric_3": (
        "61793872635a6d69f8e003206e0a022f56f94311e4594b157a130db211f8f8b9",
        "de828fa3343c234aeebc569cce0eaf389a36315978362d8259cf5e8192d43b40",
        "5689d577c6ff8725a4f2be8e0375d006a349fb447f6003fc17166030b4c035a3",
    ),
    "nilmanifold_demo": (
        "b02881818478463ab225a1c4c88ca99297152f81eff350359a1ec2c06a7f61c6",
        "68581de072c5cf333e4e639d327a34b44f8df80124766bb3e25802654abaaf56",
        "53b951b07510b32884e0f103b8538ccac2dc652dabc7e78ba3379c3bbb245ffd",
    ),
    "oscillator": (
        "ccc1df160e8f5b7d849278501b1e90621c87f3ddaa13c6a1ff02cab765864957",
        "5bfbc7cbee863b12372a0fcecaa869d24988482aa3074b35ac2a5cac8849bbe2",
        "8ddbfcb50a896c3259f861aa88499f204961d11c588f5a08c340f2268b73f7e8",
    ),
    "rpq_1_1": (
        "ede03dcda0e4c5b7402653718c159ab7e719b92134996bda5fba21a546da9374",
        "ea87a91a030eb8997d257146c01c0b852d70942026cf7c0112d906487a7f62ad",
        "0ae3b06a5fe2588de4a0a36e203afe491c57f48760a3b3f65f6f0acec3d31036",
    ),
    "rpq_2_0": (
        "7f9e429f83cb14a64fa229d5500788865711b805d79a8b0a6db53244767d2479",
        "d137206bebf988773d6dbfd5036df316c3ec0af0df6686da6bdb57db3dcaa819",
        "ce71510a27b934bc9b49a3f73405de7ce6e6b9c920202ea8abe295f8a1307794",
    ),
    "rpq_2_2": (
        "2308726d89fb1b2c879efcea52387972dc8b346d5e73ff4ca0c5f30e257c553c",
        "e5e2dccdb7295faaef34287354eec74825a3f22279a6e7d1f8a00f3deb3f85a5",
        "ad849d49fe40c0a6ca9affeb0e31f401a5889387fb001ce2ee5121ff18871d4c",
    ),
}


@pytest.mark.parametrize("name", corpus_list())
def test_route_reports_match_the_digests(name, emitted_corpus, capsys,
                                         monkeypatch):
    """The check, geometry and verify-as reports of every emitted corpus
    entry, which read the connection, curvature and T routes, keep their
    bytes."""
    monkeypatch.chdir(emitted_corpus)
    calls = (("check", f"{name}.json", "--json"),
             ("geometry", f"{name}.json", "--json"),
             ("verify-as", f"{name}_builder.json", "--json"))
    for argv, want in zip(calls, ROUTES_SHA256[name]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


# sha256 of `gd NAME_builder.json --json`, `extend NAME_builder.json --json`
# and `series NAME_builder.json --json`, run in the directory of the files of
# `corpus all --emit` (the reports name the spec they read)
CONSTRUCTION_SHA256 = {
    "a12": (
        "d428455c3c7e93601cacb0e18f4961445c3e3373754f5430332d1067bdef5d53",
        "d1214c704ddb92e5b18fb2ae6c6678d5bd5fb9bae24f3ac82eb380849fdcdff9",
        "bb645ae782713c980d07392c1b0b4e3f978f7782af6dfb71335a3f74f9571554",
    ),
    "gE": (
        "43ab8c8d12a7581795ecaf1cbbebdbfee7140b6fb03972b7b95a20e591c8623e",
        "e6dd00e853024480e2fdef44d217e826ede0e98b90a8873eb335e2440616cc35",
        "46056b2d000a58de7cd9cafe6f401916110c7fef482babc7a2fbff0ddec5d914",
    ),
    "gF": (
        "9be08576c3e4980f49ca4c462e93274e19619b754fe35681a800e887d6f9577f",
        "79ba769420fd7cd17953a7da04d2f7b0ec046c46fc2b5929f70ada70af80f996",
        "bda97bf9ed8b1f59f11cc2cb205d23c32ab46c7081231c46d2cb58cb32fab07a",
    ),
    "gH": (
        "c1b4eddedd8e7f209fb3e563af1f2eba9c7a0a4f1119ea4284cfce128f5d8956",
        "ed0a3bb055a449a61ddc3b87443bbb576bae8841f459a344ecab0c450edbdc53",
        "96b31b746809f6a7f652f36294e42c254d6d5278e4090589271ec2aa73b8c523",
    ),
    "h3_metric_0": (
        "263ecdf07359c1e86f382e36c0cb099627f9d50c334a79d6fc6b44de464204fe",
        "316ca23333d256fff711401e05abb2d128c14c82007dd0e9ada58a271221ab3a",
        "5c2260331ebbc8898ae56c8f6d75a0f42cbdac053cd214c988b0dd85ccd27150",
    ),
    "h3_metric_1": (
        "55acbab2a3c3394033c1dc6fe5c7e46ef3680eac71e1d6636c2e2f0b98ffc269",
        "f912d90cfd9045a7d10d9c28e627d38bbea01b5df8ab34783b3af96017c4d930",
        "7ba4887441ee4834d5ca7e554d65c3661be531f987792ab93ff1076625d4d981",
    ),
    "h3_metric_2": (
        "d1af6442f11ad637990f4ead1c7a906623c42b7ee94923a28bf55d19a124dd03",
        "f3d780e5d30beae5a0cf885ec5ca4ed899ae26a58e442a572c44249caaafbbb0",
        "9834af0d079d823bdda9f66440219801ad8eae8278485718862b612e5dae96e0",
    ),
    "h3_metric_3": (
        "743cbb6fe880247de079d3190628197685ebe885beef5b32c8c4a2d30893da52",
        "653abfd5d022bde92e40dd5b6278e70c59e5766568a3e7480a46934158d4234f",
        "4918e4444db27646c6a615be2b36499c445b47960af54c44b1441181bf85ceab",
    ),
    "nilmanifold_demo": (
        "4b751009cfee6800248ad67c5d8027fc319926aca35ec9c7518ef11f9b8ec9ef",
        "b22ea8d4bf0ab3246e719276f447e172e8d7f99b07d5d531e09ff05e5711ac8d",
        "fc47c3d9faedae4814ed58dc2f5e18160c9adfe3b4b5415834a467acd4bc3961",
    ),
    "oscillator": (
        "189dee3c523b7c2cf0f5f526cffa3b3617fa82ae234aee160427e51c7c86aca4",
        "819795e72d974c67b92d6d410ba9c7c7b438e868b534b4a1bd2b40317dfbc5ca",
        "6d14cae54cb82d9a9ff84add4c88a1d6ddfebdbb3023a605cafcf67198e1fcf1",
    ),
    "rpq_1_1": (
        "3f8471ed8054e0957b873e1c3928cacb0877bfa6df124ad8bc36e4c98763a63d",
        "bceffec6aaf2bae5d1dd959abec0ef19947a2e7842a07692341e1b5e6cd05755",
        "e8b24a668eaef04c9b4bb452b98949edf0da3bbc0106e6d5070066e9cfb43ffb",
    ),
    "rpq_2_0": (
        "3a1ff84eff85317a9a702c2ed502e2071eb163b71ca78f04b61fd37581087556",
        "88be922b49758fa06cbba4d9c64cb2600500eeab444494bfafbdf4a61164ca37",
        "2ad93ab51ac186f48d359c9c019c50bf1fb776a11b058b90b6a95308b57ededc",
    ),
    "rpq_2_2": (
        "8749f79b47f85cd330323618ff1aa9aac918663ea2b8b191c2a2ddfa9c3e069f",
        "f81e1ec0e6f54e804062f8909fd93264e2309593db353037092f70ad97a5b4c4",
        "e22dd4295dcd45f2c0d23c3f1c61c2fe1b713f1556dc85bfc8821f7665b0214a",
    ),
}


@pytest.mark.parametrize("name", corpus_list())
def test_construction_reports_match_the_digests(name, emitted_corpus, capsys,
                                                monkeypatch):
    """The gd, extend and series reports of every emitted corpus builder,
    which read the construction of d + h* and of the double extension, keep
    their bytes."""
    monkeypatch.chdir(emitted_corpus)
    spec = f"{name}_builder.json"
    for cmd, want in zip(("gd", "extend", "series"), CONSTRUCTION_SHA256[name]):
        code, out, _ = run(capsys, cmd, spec, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, cmd


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
    """Write into ``here`` the inputs of FAILING_SHA256, made from the emitted
    gH files: a bracket constant nudged (Jacobi fails), no metric, a
    degenerate metric, and a builder with one pi entry moved."""
    alg = json.loads((emitted / "gH.json").read_text())
    nudged = json.loads(json.dumps(alg))
    nudged["brackets"][1][3] = "2"  # [e1, e2] = 2 e0
    (here / "gH_nudged.json").write_text(json.dumps(nudged))
    (here / "gH_no_metric.json").write_text(
        json.dumps({k: v for k, v in alg.items() if k != "metric"}))
    (here / "gH_degenerate.json").write_text(
        json.dumps({**alg, "metric": [[1, 1, "1"]]}))
    spec = json.loads((emitted / "gH_builder.json").read_text())
    spec["pi"][0][0][0] = str(Fraction(spec["pi"][0][0][0]) + 1)
    (here / "gH_moved_builder.json").write_text(json.dumps(spec))
    (here / "gH_builder.json").write_text((emitted / "gH_builder.json").read_text())


# exit code and sha256 of the stdout of reports that fail a check or print
# the human form, run in the directory of the files of ``_failing_inputs``
FAILING_SHA256 = {
    ("check", "gH_nudged.json", "--json"):
        (1, "9c53597c86f49fc0d35c4fcf285fa26979da55a206e1b8eee17a9e8ce7a99ccb"),
    ("geometry", "gH_nudged.json", "--json"):
        (1, "f4ab1c0158fc3156abc9bd28bdf0fb6dbb3bc0123f674f6cee48524a83d0c450"),
    ("derivations", "gH_nudged.json", "--json"):
        (1, "9ed01801191a7d9d88f000b2b372e264eb4d6e65f65e4d17854f681b4019a3eb"),
    ("geometry", "gH_no_metric.json", "--json"):
        (1, "d6e093c600aab98ba3ed0121a595693aa3e5849fab9071634cb73135ad0e2a80"),
    ("geometry", "gH_degenerate.json", "--json"):
        (1, "7b4d99ecd917e1acd702a17f8fd98b18283ade107b1489e6119a69fd4d74355b"),
    ("gd", "gH_moved_builder.json", "--json"):
        (1, "c33b192e01df403a103b7dce3c7dc5cbe4a72dc7565b1e1cf78f6474552d9720"),
    ("extend", "gH_moved_builder.json", "--json"):
        (1, "2081ac7c81b3bb3e0c4a3dffd46a3c89f44be275a13393a199d669e8ccc57e18"),
    ("verify-as", "gH_moved_builder.json", "--json"):
        (1, "e8e37e1ac4cc6008b7978019cbdb2748adb17893d50c9213e48a4cb0420ade23"),
    ("series", "gH_moved_builder.json", "--json"):
        (1, "b04fe64bb258d4a5ecaac34c3432f6e62496fbb17f14a8fc62c2b3db565b3819"),
    ("derivations", "--so-aut", "gH_moved_builder.json", "--json"):
        (1, "cb5cf4103863cf5cd10ce4daf6ba0f902d08978731c9b5b6e90f0caa72e19c78"),
    ("check", "gH_nudged.json"):
        (1, "1ea2edc592b3a7da383a97305d7bfef4527e107448c5abcb8e1b673aa05cd7ca"),
    ("verify-as", "gH_builder.json"):
        (0, "c0f44bdc2fe9133ec8a10d2aae42688adb7b848146af3b2b03b1fdd42cd17e6a"),
    ("corpus", "gH"):
        (0, "e9ecfc999fec5f9c5a8b68ffbb853aa86d847883468f820d01490a8b7ac898c9"),
}


@pytest.mark.parametrize("argv", sorted(FAILING_SHA256))
def test_failing_and_human_reports_match_the_digests(argv, emitted_corpus,
                                                     tmp_path, capsys,
                                                     monkeypatch):
    """Reports with failed checks, and the human form of two reports, keep
    their bytes."""
    _failing_inputs(emitted_corpus, tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == FAILING_SHA256[argv]
    assert err == ""


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
