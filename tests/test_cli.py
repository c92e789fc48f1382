import hashlib
import json
from pathlib import Path

import pytest

from adinvar import corpus_list
from adinvar.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json")
                    .read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    outdir = emit_corpus(tmp_path, capsys, "h3_metric_2")
    spec = outdir / "h3_metric_2_builder.json"
    built = tmp_path / "gd.json"
    code, _, _ = run(capsys, "gd", str(spec), "--emit", str(built))
    assert code == 0
    code, out, _ = run(capsys, "check", str(built), "--json")
    assert code == 0
    assert json.loads(out)["metric_signature"] == [1, 2, 0]
    code, _, _ = run(capsys, "extend", str(spec), "--emit", str(tmp_path / "g.json"))
    assert code == 0
    code, out, _ = run(capsys, "check", str(tmp_path / "g.json"), "--json")
    assert code == 0
    assert json.loads(out)["metric_ad_invariant"] is True


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
    code, _, err = run(capsys, "gd", str(spec), "--json")
    assert code == 1
    code, out, err = run(capsys, "series", str(spec), "--json")
    assert code == 1
    assert out == ""
    assert "pi(z)_not_skew" in err


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
