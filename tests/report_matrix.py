"""The byte-identity matrix of the command line reports.

Every command runs through ``cli.main`` in process, in a temporary working
directory, on files named relative to it, so that no report depends on
where it ran:

* ``extend``, ``gd``, ``verify-as``, ``series`` and ``derivations
  --so-aut`` on the 13 registry builders and on their
  ``conjugated_rep(rep, 5)`` conjugates, and on a copy of each with one
  seeded ``pi`` entry moved (a reject);
* ``check``, ``geometry`` and ``derivations`` on the d + h* and double
  files that ``gd --emit`` and ``extend --emit`` write for each builder;
* ``corpus`` (the listing, each entry, ``all`` and ``all --emit``, and
  its refusals: an unknown entry, ``--emit`` without a name and ``--dir``
  without ``--emit``);
* ``check``, ``geometry`` and ``derivations`` (also with ``--metric`` of
  the next entry of the same dimension, cyclically in registry order) on
  the ``NAME.json`` files that ``corpus all --emit`` writes next to the
  builders, whose ``NAME_builder.json`` it rewrites with the same bytes;
* the gH files of a failing report: a bracket constant nudged (Jacobi
  fails), no metric, a degenerate metric, and the builder with one
  ``pi`` entry moved;
* in ``dense/``, the ``conjugated_rep(rep, 5)`` builders as
  ``NAME_builder.json`` and the ``NAME.json`` that ``gd --emit`` writes
  from each, through every command;
* in ``cli_dense/``, the 11 builders of the ``cli_dense`` benchmark
  workload at seed 71 (``bench/workloads.py``) through its seven
  commands, and its two rejects of each;
* the malformed algebra and builder files of
  ``test_malformed_specs_exit_2_with_the_loader_message``, through
  ``check``, ``gd`` and ``extend``, each builder keyed by its position
  in ``MALFORMED_BUILDERS``.

Each argv runs twice: with ``--json``, and in human form with
``--report``.  Its digest is the sha256 of the exit code, standard output,
standard error and every file the run writes (under ``out/``); the
digests are keyed by the argv joined with spaces, after ``cd DIR; `` for
a run in a subdirectory.  ``COLUMNS`` is 80 during the runs, so that a
usage message does not depend on the terminal.

    python tests/report_matrix.py            # list each argv whose digest moved
    python tests/report_matrix.py --update   # rewrite tests/report_digests.json

``tests/test_cli.py::test_reports_match_the_recorded_digests`` runs the
comparison.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "report_digests.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from adinvar import corpus_build, corpus_list  # noqa: E402
from adinvar.cli import main  # noqa: E402
from adinvar.io import MAX_DIM, dump_builder_dict  # noqa: E402
from conftest import conjugated_rep  # noqa: E402
from workloads import (CLI_DENSE_SKIP, Workload, conjugate_builder,  # noqa: E402
                       dense_basis_change, perturb_builder)

SPEC_COMMANDS = (["extend"], ["gd"], ["verify-as"], ["series"], ["derivations", "--so-aut"])
FILE_COMMANDS = (["check"], ["geometry"], ["derivations"])
SMALL = {"dim": 1, "metric": [[1, 1, 1]]}
# (algebra docs for check, builder docs for gd and extend), as the loader
# test writes them; "alg.json" holds the last algebra doc
MALFORMED_ALGEBRAS = ([], {"dim": 2, "metric": [[1, 1]]})
MALFORMED_BUILDERS = (
    [], {"h": SMALL, "pi": [[[0]]]}, {"d": SMALL, "pi": [[[0]]]},
    {"d": {"dim": 1}, "h": SMALL, "pi": [[[0]]]}, {"d": SMALL, "h": {"dim": 1}, "pi": [[[0]]]},
    {"d": SMALL, "h": SMALL, "pi": []}, {"d": SMALL, "h": SMALL, "pi": [[[0, 0]]]},
    {"d": {**SMALL, "metric": [[1, 1]]}, "h": SMALL, "pi": [[[0]]]},
    {"d": "alg.json", "h": SMALL, "pi": [[[0]]]},
    {"d": "a\u0000b.json", "h": SMALL, "pi": [[[0]]]},
    {"d": {"dim": 13, "metric": []}, "h": {"dim": 6, "metric": []}},
    {"d": SMALL, "h": SMALL, "pi": [[[0]]], "Pi": [[[1]]]},
    {"d": {**SMALL, "Metric": []}, "h": SMALL, "pi": [[[0]]]})
# an algebra file with a misspelt key, written to its own file
MISSPELT = {"dim": 2, "brakets": [[1, 2, 2, 1]]}
assert 13 + 2 * 6 > MAX_DIM


def _run(argv):
    """The digest of one ``main`` call: exit code, both streams and the
    files written under out/, which is emptied first."""
    shutil.rmtree("out", ignore_errors=True)
    os.mkdir("out")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    digest = hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode())
    for path in sorted(Path("out").rglob("*")):
        if path.is_file():
            digest.update(f"\0{path}\0".encode() + path.read_bytes())
    return digest.hexdigest()


def _write(name, doc):
    Path(name).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return name


def _perturbed(builder, rng):
    """The builder with one seeded pi entry moved by 1."""
    pi = [[list(row) for row in m] for m in builder["pi"]]
    k, p, q = rng.randrange(len(pi)), rng.randrange(len(pi[0])), rng.randrange(len(pi[0]))
    pi[k][p][q] = str(Fraction(pi[k][p][q]) + 1)
    return {**builder, "pi": pi}


def _matrix(run):
    """{argv key: run(argv)} for the whole matrix, run in the working
    directory."""
    digests, rng = {}, random.Random(71)

    def record(*argv, where=None):
        with _inside(where):
            for extra in (["--json"], ["--report", "out/report.json"]):
                key = " ".join((*argv, *extra))
                digests[f"cd {where}; {key}" if where else key] = run([*argv, *extra])

    builders = []
    for name in corpus_list():
        rep = corpus_build(name).rep
        for label, r in ((name, rep), (f"{name}_conj", conjugated_rep(rep, 5))):
            builders.append(_write(f"{label}_builder.json", dump_builder_dict(r)))
    for spec in builders:
        label = spec.removesuffix("_builder.json")
        for cmd in SPEC_COMMANDS:
            record(*cmd, spec)
        for cmd, kind in (("gd", "gd"), ("extend", "double")):
            record(cmd, spec, "--emit", "out/emitted.json")
            run([cmd, spec, "--emit", f"{label}_{kind}.json"])
            for fcmd in FILE_COMMANDS:
                record(*fcmd, f"{label}_{kind}.json")
        doc = json.loads(Path(spec).read_text(encoding="utf-8"))
        bad = _write(f"{label}_reject.json", _perturbed(doc, rng))
        for cmd in SPEC_COMMANDS:
            record(*cmd, bad)
    record("corpus")
    for name in (*corpus_list(), "all"):
        record("corpus", name)
    record("corpus", "all", "--emit", "--dir", "out/corpus")
    for argv in (["nosuch"], ["--emit"], ["--dir", "out/corpus"]):
        record("corpus", *argv)
    _emitted_corpus(record, run)
    _failing_inputs()
    for argv in (["check", "gH_nudged.json"], ["geometry", "gH_nudged.json"],
                 ["derivations", "gH_nudged.json"], ["geometry", "gH_no_metric.json"],
                 ["geometry", "gH_degenerate.json"],
                 *([*cmd, "gH_moved_builder.json"] for cmd in SPEC_COMMANDS)):
        record(*argv)
    _dense(record, run)
    _cli_dense(record, rng=random.Random(71))
    Path("huge.json").write_text('{"dim": 1, "brackets": [[1, 1, 1, ' + "9" * 5000 + "]]}")
    record("check", "huge.json")
    for pos, doc in enumerate(MALFORMED_ALGEBRAS):
        _write("alg.json", doc)
        digests[f"check alg.json [{pos}] --json"] = run(["check", "alg.json", "--json"])
    _write("misspelt.json", MISSPELT)
    record("check", "misspelt.json")
    for pos, doc in enumerate(MALFORMED_BUILDERS):
        _write("builder.json", doc)
        for cmd in ("gd", "extend"):
            digests[f"{cmd} builder.json [{pos}] --json"] = run([cmd, "builder.json", "--json"])
    return digests


@contextlib.contextmanager
def _inside(where):
    """Run in the subdirectory where of the working directory, if any."""
    if where is None:
        yield
        return
    here = os.getcwd()
    os.chdir(where)
    try:
        yield
    finally:
        os.chdir(here)


def _emitted_corpus(record, run):
    """The files of ``corpus all --emit``, written next to the builders:
    each NAME_builder.json is rewritten with the bytes it holds, and
    NAME.json is the d + h* (the double for a "double" entry).  PARTNER is
    the next entry, in registry order and cyclically, whose algebra has
    the dimension of NAME's."""
    names = corpus_list()
    before = {name: Path(f"{name}_builder.json").read_bytes() for name in names}
    run(["corpus", "all", "--emit", "--dir", "."])
    assert before == {name: Path(f"{name}_builder.json").read_bytes() for name in names}
    dims = {name: json.loads(Path(f"{name}.json").read_text(encoding="utf-8"))["dim"]
            for name in names}
    for name in names:
        same = [n for n in names if dims[n] == dims[name]]
        partner = same[(same.index(name) + 1) % len(same)]
        for cmd in FILE_COMMANDS:
            record(*cmd, f"{name}.json")
        record("derivations", f"{name}.json", "--metric", f"{partner}.json")


def _failing_inputs():
    """gH_nudged.json ([e1, e2] = 2 e0, so Jacobi fails), gH_no_metric.json,
    gH_degenerate.json and gH_moved_builder.json, made from the emitted gH
    files."""
    alg = json.loads(Path("gH.json").read_text(encoding="utf-8"))
    nudged = json.loads(json.dumps(alg))
    nudged["brackets"][1][3] = "2"
    Path("gH_nudged.json").write_text(json.dumps(nudged))
    Path("gH_no_metric.json").write_text(json.dumps({k: v for k, v in alg.items()
                                                     if k != "metric"}))
    Path("gH_degenerate.json").write_text(json.dumps({**alg, "metric": [[1, 1, "1"]]}))
    spec = json.loads(Path("gH_builder.json").read_text(encoding="utf-8"))
    spec["pi"][0][0][0] = str(Fraction(spec["pi"][0][0][0]) + 1)
    Path("gH_moved_builder.json").write_text(json.dumps(spec))


def _dense(record, run):
    """In dense/: each builder under ``conjugated_rep(rep, 5)`` as
    NAME_builder.json and the NAME.json that ``gd --emit`` writes from it."""
    os.mkdir("dense")
    for name in corpus_list():
        rep = conjugated_rep(corpus_build(name).rep, 5)
        Path("dense", f"{name}_builder.json").write_text(json.dumps(dump_builder_dict(rep)))
        with _inside("dense"):
            run(["gd", f"{name}_builder.json", "--emit", f"{name}.json"])
        for cmd in SPEC_COMMANDS:
            record(*cmd, f"{name}_builder.json", where="dense")
        for cmd in FILE_COMMANDS:
            record(*cmd, f"{name}.json", where="dense")


def _cli_dense(record, rng):
    """In cli_dense/: the builders, rejects and seven commands of one pass
    of the ``cli_dense`` workload at the seed of rng, in its order."""
    os.mkdir("cli_dense")
    names = sorted(name for name in corpus_list() if name not in CLI_DENSE_SKIP)
    rng.shuffle(names)
    for name in names:
        builder = dump_builder_dict(corpus_build(name).rep)
        conj = conjugate_builder(builder, dense_basis_change(builder["d"]["dim"], rng))
        spec = _write(f"cli_dense/{name}_builder.json", conj)
        bad = _write(f"cli_dense/{name}_reject.json", perturb_builder(conj, rng))
        spec, bad = Path(spec).name, Path(bad).name
        for _, argv in Workload.commands(spec, f"{name}_gd.json"):
            record(*argv[:-1], where="cli_dense")  # without its --json
        for cmd in ("gd", "verify-as"):
            record(cmd, bad, where="cli_dense")


def digests(workdir, run=_run):
    """The matrix, run in workdir (left holding its inputs): {argv key:
    run(argv)}, the digest of each by default."""
    here, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"
    try:
        return _matrix(run)
    finally:
        os.chdir(here)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def moved(got):
    """The argv keys whose digest differs from the recorded one, or that
    only one side has, sorted."""
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))


def run_main(argv):
    with tempfile.TemporaryDirectory() as workdir:
        got = digests(workdir)
    if "--update" in argv:
        DIGESTS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{len(got)} digests written to {DIGESTS.relative_to(ROOT)}")
        return 0
    bad = moved(got)
    for key in bad:
        print(f"moved: {key}")
    print(f"{len(got)} digests, {len(bad)} moved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run_main(sys.argv[1:]))
