"""Regenerate bench/golden.json from the package as it is checked out.

Run from the repository root:  python3 bench/make_golden.py
It takes a few minutes; most of it is the 27 weight choices of torus m=3.
Regenerate only when a change is meant to alter the reports.
"""

import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import adinvar  # noqa: E402
import adinvar.cli  # noqa: E402
from workloads import (CLI_DENSE_SKIP, Workload, canonical_digest,  # noqa: E402
                       conjugate_builder, identity, invariant_fields, so3_builder,
                       torus_builder)


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def built(builder):
    """Digests of d + h* and of the double, and the so_aut dimension."""
    rep = adinvar.io.load_builder_dict(builder)
    n = rep.d.dim + rep.h.dim
    gd = adinvar.build_gd(rep)
    return {"gd": canonical_digest(adinvar, gd.L, gd.metric, identity(n)),
            "double": canonical_digest(adinvar, gd.double.g, gd.double.Q,
                                       identity(n + rep.h.dim)),
            "so_aut_dim": adinvar.so_aut(gd).dim}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        work = Workload(adinvar, {}, tmp)
        golden = {"corpus": {"report_sha256": sha(work.cli(["corpus", "all", "--json"])[1]),
                             "entries": {}},
                  "scaling": {"so3": built(so3_builder()), "torus": {}},
                  "cli_dense": {}}
        for name in adinvar.corpus_list():
            rc, out, _ = work.cli(["corpus", name, "--json"])
            assert rc == 0, name
            golden["corpus"]["entries"][name] = sha(out)
        for m in (2, 3):
            for weights in itertools.product((1, 2, 3), repeat=m):
                key = ",".join(map(str, weights))
                golden["scaling"]["torus"][key] = built(torus_builder(weights))
                print("torus", key, file=sys.stderr)
        for name, builder in work.registry_builders().items():
            if name in CLI_DENSE_SKIP:
                continue
            plain = conjugate_builder(builder, identity(builder["d"]["dim"]))
            spec = work.write(f"{name}_builder.json", plain)
            alg = str(Path(tmp) / f"{name}_gd.json")
            fields = {}
            for cmd, argv in work.commands(spec, alg):
                rc, out, _ = work.cli(argv)
                report = json.loads(out)
                assert rc == 0 and report["passed"], (name, cmd)
                fields[cmd] = invariant_fields(cmd, report)
            golden["cli_dense"][name] = fields
    golden["provenance"] = ("made by bench/make_golden.py from the unconjugated, "
                            "unpermuted inputs under Python "
                            + sys.version.split()[0])
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
