"""Command line front end.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 malformed
input or an output path that cannot be written.  ``main`` makes, refuses
and finishes every report: it starts ``{"command", "checks"}``, a command
only fills it in with its fields and ``core.Check``s, an ``ExtensionError``
from the construction data becomes one failed check per violation and the
``error`` text, and ``_finish`` alone renders the checks as the report's
deterministic entries, sorted by name and witness (no witness sorts as
""), and dumps every value of the library as it is: a Fraction as its exact
'p/q' string, a tuple as an array.  The parser is built once per process,
on the first ``main`` call; ``main`` looks up ``cmd_<name>`` by command name
at each call, so module-level patches such as the benchmark's tracer apply.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from . import linalg
from .core import Check, _skew, ad_invariant, center, check_jacobi
from .corpus import corpus_build, corpus_list
from .derivations import (derivation_algebra, induced_so_aut_pair,
                          inner_derivations, profile, skew_part, so_aut)
from .extension import ExtensionError, build_gd, double_extend
from .geometry import (GeometryError, Tensor, curvature, levi_civita,
                       ricci, ricci_operator, sectional)
from .homstructure import verify_as
from .io import (SpecFormatError, dump_algebra_dict, dump_builder_dict,
                 load_algebra_file, load_builder_file, write_json)
from .series import SeriesError, predict_nilpotent_step, predict_solvable_step


def _finish(report, args):
    """Render the report's Checks as entries, write and print it; exit 0 or 1."""
    entries = []
    for c in sorted(report["checks"],
                    key=lambda c: (c.name, "" if c.witness is None else str(c.witness))):
        entry = {"name": c.name, "pass": bool(c.ok)}
        if c.witness is not None:
            entry["witness"] = c.witness
        entries.append(entry)
    report["checks"] = entries
    report["passed"] = all(e["pass"] for e in entries)
    if getattr(args, "report", None):
        write_json(args.report, report, indent=2, sort_keys=True, default=str)
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        _print_human(report)
    return 0 if report["passed"] else 1


def _print_human(report):
    print(f"command: {report['command']}")
    for key, value in sorted(report.items()):
        if key in ("command", "checks", "passed"):
            continue
        print(f"{key}:")
        text = json.dumps(value, sort_keys=True, default=str)
        if len(text) > 2000:
            text = f"{text[:2000]}... ({len(text)} characters in all; see --json)"
        print("  " + text)
    width = max((len(c["name"]) for c in report["checks"]), default=4)
    for c in report["checks"]:
        mark = "PASS" if c["pass"] else "FAIL"
        extra = (f"  {json.dumps(c['witness'], default=str)}"
                 if "witness" in c and not c["pass"] else "")
        print(f"{c['name']:<{width}}  {mark}{extra}")
    print("result:", "PASS" if report["passed"] else "FAIL")


def _jacobi_check(violations):
    """The jacobi check, witnessed by each failing 1-based triple and its sum."""
    witness = [[i + 1, j + 1, k + 1, s] for i, j, k, s in violations]
    return Check("jacobi", not violations, witness or None)


def cmd_check(args, report):
    alg, form = load_algebra_file(args.file)
    report.update(file=str(args.file), dim=alg.dim, names=list(alg.names))
    violations = check_jacobi(alg)
    report["checks"].append(_jacobi_check(violations))
    if form is not None:
        report["metric_signature"] = list(form.signature)
        report["metric_nondegenerate"] = form.nondegenerate
        report["metric_ad_invariant"] = (not violations) and ad_invariant(alg, form)


def cmd_extend(args, report):
    report["spec"] = str(args.spec)
    dbl = double_extend(load_builder_file(args.spec))
    report["checks"] += dbl.checks
    report["algebra"] = doc = dump_algebra_dict(dbl.g, dbl.Q)
    report["Q_signature"] = list(dbl.Q.signature)
    if args.emit:
        write_json(args.emit, doc, indent=2)


def cmd_gd(args, report):
    report["spec"] = str(args.spec)
    gd = build_gd(load_builder_file(args.spec))
    report["checks"] += gd.checks
    report["algebra"] = doc = dump_algebra_dict(gd.L, gd.metric)
    if args.emit:
        write_json(args.emit, doc, indent=2)


def cmd_geometry(args, report):
    alg, form = load_algebra_file(args.file)
    report["file"] = str(args.file)
    bad = check_jacobi(alg)
    report["checks"].append(_jacobi_check(bad))
    if form is None or not form.nondegenerate:
        report["checks"].append(Check("metric_nondegenerate", False))
        return
    report["checks"].append(Check("metric_nondegenerate", True))
    if bad:
        return
    gamma = levi_civita(alg, form)
    ints, scale = gamma.int_data
    swapped = Tensor.from_ints(alg.dim, 2, {(j, i): c for (i, j), c in ints.items()}, scale)
    torsion_free = (gamma - swapped).int_data == alg.int_bracket_data
    metric_comp = not any(_skew(ints, form.int_rows[0]))
    report["checks"] += [Check("torsion_free", torsion_free),
                         Check("metric_compatible", metric_comp)]
    if not (torsion_free and metric_comp):
        return  # only the Levi-Civita connection makes the Ricci form symmetric
    r = curvature(gamma, alg)
    ric = ricci(r, form)
    op = ricci_operator(r, form)
    basis = linalg.identity(alg.dim)
    for key, tensor in (("connection", gamma), ("curvature", r)):
        report[key] = {",".join(str(i + 1) for i in idx):
                       tensor.entry(*idx) for idx in tensor.data}
    report["ricci"] = ric.rows()
    report["ricci_operator"] = op
    report["ricci_charpoly"] = linalg.charpoly(op)
    planes = {}
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            try:
                planes[f"{i+1},{j+1}"] = sectional(r, form, basis[i], basis[j])
            except GeometryError:  # sectional refuses a degenerate plane
                planes[f"{i+1},{j+1}"] = "degenerate"
    report["sectional"] = planes


def cmd_verify_as(args, report):
    report["spec"] = str(args.spec)
    for c in verify_as(build_gd(load_builder_file(args.spec))).checks:
        shown = [[x + 1 for x in tup] for tup in c.witness[:20]]
        report["checks"].append(Check(f"axiom_{c.name}", c.ok, shown or None))


def cmd_derivations(args, report):
    if args.so_aut:
        gd = build_gd(load_builder_file(args.so_aut))
        sa = so_aut(gd)
        report["so_aut_dim"] = sa.dim
        report["so_aut_pairs"] = [{"A": a, "B": b} for a, b in sa.pairs]
        induced_ok = all(sa.contains(*induced_so_aut_pair(gd, i)) for i in range(gd.nh))
        report["checks"].append(Check("contains_induced_pairs", induced_ok))
        return
    alg, form = load_algebra_file(args.file)
    if args.metric:
        partner, form = load_algebra_file(args.metric)
        if partner.dim != alg.dim:
            raise SpecFormatError(f"metric has dimension {partner.dim}, but the "
                                  f"algebra in {args.file} has dimension {alg.dim}",
                                  args.metric)
        if form is None:
            raise SpecFormatError("--metric needs a file with a 'metric'", args.metric)
    violations = check_jacobi(alg)
    if violations:
        report["checks"].append(_jacobi_check(violations))
        return
    der = derivation_algebra(alg)
    inner = inner_derivations(alg)
    report["derivations_dim"] = der.dim
    report["inner_dim"] = inner.dim
    report["derivations_profile"] = profile(der)
    report["inner_profile"] = profile(inner)
    report["checks"] += [
        Check("inner_dim_relation", inner.dim == alg.dim - center(alg).dim),
        Check("inner_inside_derivations",
              der.flat_subspace.contains_subspace(inner.flat_subspace))]
    if form is not None and form.nondegenerate:
        sk = skew_part(der, form)
        report["skew_dim"] = sk.dim
        report["skew_profile"] = profile(sk)
        report["skew_basis"] = sk.basis
        report["checks"].append(Check(
            "skew_inside_derivations",
            der.flat_subspace.contains_subspace(sk.flat_subspace)))


def cmd_series(args, report):
    report["spec"] = str(args.spec)
    gd = build_gd(load_builder_file(args.spec))
    try:
        nil = predict_nilpotent_step(gd)
        report["nilpotent"] = {
            "step_d": nil.step_d,
            "predicted": nil.step_gd_predicted,
            "computed": nil.step_gd_computed,
            "witness_dim": nil.witness.dim,
            "naive_index_test": nil.naive_index_test,
            "corrected_index_test": nil.corrected_index_test,
        }
        report["checks"].append(Check("nilpotent_prediction", nil.consistent))
    except SeriesError as exc:
        report["nilpotent"] = str(exc)
    try:
        sol = predict_solvable_step(gd)
        report["solvable"] = {
            "step_d": sol.step_d,
            "predicted": sol.step_gd_predicted,
            "computed": sol.step_gd_computed,
            "witness_dim": sol.witness.dim,
        }
        report["checks"].append(Check("solvable_prediction", sol.consistent))
    except SeriesError as exc:
        report["solvable"] = str(exc)


def cmd_corpus(args, report):
    if not args.name:
        report["entries"] = corpus_list()
        return
    names = corpus_list() if args.name == "all" else [args.name]
    try:
        entries = [corpus_build(n) for n in names]
    except KeyError as exc:
        raise SpecFormatError(exc.args[0])
    built = [(entry, build_gd(entry.rep)) for entry in entries]
    for entry, gd in built:
        report["checks"] += [c._replace(name=f"{entry.name}.{c.name}")
                             for c in entry.checks(gd)]
    if args.emit:
        where = args.dir or "corpus"
        outdir = Path(where)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SpecFormatError(str(exc), where)
        written = []
        for entry, gd in built:
            if entry.primary == "double":
                doc = dump_algebra_dict(gd.double.g, gd.double.Q)
            else:
                doc = dump_algebra_dict(gd.L, gd.metric)
            for path, out in ((outdir / f"{entry.name}.json", doc),
                              (outdir / f"{entry.name}_builder.json",
                               dump_builder_dict(entry.rep))):
                write_json(path, out, indent=2)
                written.append(str(path))
        report["written"] = written


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="adinvar",
        description="Exact workbench for metric Lie algebras and their "
                    "naturally reductive extensions")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--report", metavar="PATH",
                       help="also write the JSON report to PATH")

    p = sub.add_parser("check", help="validate an algebra file")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("extend", help="build the double extension h + d + h*")
    p.add_argument("spec")
    p.add_argument("--emit", metavar="PATH", help="write the built algebra")
    common(p)

    p = sub.add_parser("gd", help="build the metric algebra on d + h*")
    p.add_argument("spec")
    p.add_argument("--emit", metavar="PATH", help="write the built algebra")
    common(p)

    p = sub.add_parser("geometry", help="connection, curvature, Ricci, sectional")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("verify-as", help="check the homogeneous structure axioms")
    p.add_argument("spec")
    common(p)

    p = sub.add_parser("derivations", help="derivation and automorphism algebras")
    p.add_argument("file", nargs="?")
    p.add_argument("--metric", metavar="PATH",
                   help="algebra file whose metric to use for skewness")
    p.add_argument("--so-aut", metavar="SPEC", dest="so_aut",
                   help="builder spec: compute orthogonal automorphisms instead")
    common(p)

    p = sub.add_parser("series", help="predicted vs computed nilpotency/solvability")
    p.add_argument("spec")
    common(p)

    p = sub.add_parser("corpus", help="build and verify the example registry")
    p.add_argument("name", nargs="?",
                   help="entry name, 'all', or omit to list entries")
    p.add_argument("--emit", action="store_true",
                   help="write algebra and builder files")
    p.add_argument("--dir", help="output directory for --emit")
    common(p)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "derivations" and not args.so_aut and not args.file:
        parser.error("derivations needs an algebra file or --so-aut")
    if args.cmd == "derivations" and args.so_aut and (args.file or args.metric):
        parser.error("derivations --so-aut takes no algebra file and no --metric")
    if args.cmd == "corpus" and args.emit and not args.name:
        parser.error("corpus --emit needs an entry name or 'all'")
    if args.cmd == "corpus" and args.dir is not None and not args.emit:
        parser.error("corpus --dir takes effect only with --emit")
    report = {"command": args.cmd, "checks": []}
    try:
        try:
            globals()["cmd_" + args.cmd.replace("-", "_")](args, report)
        except ExtensionError as exc:
            report["checks"] += [Check(v, False)
                                 for v in exc.violations or ("construction_failed",)]
            report["error"] = str(exc)
        return _finish(report, args)
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, SeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
