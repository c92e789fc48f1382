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
* ``corpus`` (the listing, each entry, ``all`` and ``all --emit``);
* the malformed algebra and builder files of
  ``test_malformed_specs_exit_2_with_the_loader_message``, through
  ``check``, ``gd`` and ``extend``, each builder keyed by its position
  in ``MALFORMED_BUILDERS``.

Each argv runs twice: with ``--json``, and in human form with
``--report``.  Its digest is the sha256 of the exit code, standard output,
standard error and every file the run writes (under ``out/``); the
digests are keyed by the argv joined with spaces.

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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from adinvar import corpus_build, corpus_list  # noqa: E402
from adinvar.cli import main  # noqa: E402
from adinvar.io import MAX_DIM, dump_builder_dict  # noqa: E402
from conftest import conjugated_rep  # noqa: E402

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


def _matrix():
    """{argv key: digest} for the whole matrix, run in the working directory."""
    digests, rng = {}, random.Random(71)

    def record(*argv):
        for extra in (["--json"], ["--report", "out/report.json"]):
            digests[" ".join((*argv, *extra))] = _run([*argv, *extra])

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
            _run([cmd, spec, "--emit", f"{label}_{kind}.json"])
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
    Path("huge.json").write_text('{"dim": 1, "brackets": [[1, 1, 1, ' + "9" * 5000 + "]]}")
    record("check", "huge.json")
    for pos, doc in enumerate(MALFORMED_ALGEBRAS):
        _write("alg.json", doc)
        digests[f"check alg.json [{pos}] --json"] = _run(["check", "alg.json", "--json"])
    _write("misspelt.json", MISSPELT)
    record("check", "misspelt.json")
    for pos, doc in enumerate(MALFORMED_BUILDERS):
        _write("builder.json", doc)
        for cmd in ("gd", "extend"):
            digests[f"{cmd} builder.json [{pos}] --json"] = _run([cmd, "builder.json", "--json"])
    return digests


def digests(workdir):
    """The matrix, run in workdir (left holding its inputs)."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        return _matrix()
    finally:
        os.chdir(here)


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
