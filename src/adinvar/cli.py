"""Command line front end.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 malformed
input.  Reports are deterministic: checks are emitted in lexicographic
order by name and witness, scalars as exact 'p/q' strings.
"""

import argparse
import json
import sys
from pathlib import Path

from . import linalg
from .core import ad_invariant, center, check_jacobi, skew_witnesses
from .corpus import corpus_build, corpus_list
from .derivations import (derivation_algebra, induced_so_aut_pair,
                          inner_derivations, profile, skew_derivations, so_aut)
from .extension import ExtensionError, build_gd, double_extend
from .geometry import (GeometryError, curvature, levi_civita,
                       plane_discriminant, ricci, ricci_operator, sectional)
from .homstructure import verify_as
from .io import (SpecFormatError, dump_algebra_dict, dump_builder_dict,
                 load_algebra_file, load_builder_file, rational_str)
from .series import SeriesError, predict_nilpotent_step, predict_solvable_step


def _check(name, passed, witness=None):
    entry = {"name": name, "pass": bool(passed)}
    if witness is not None:
        entry["witness"] = witness
    return entry


def _finish(report, args):
    report["checks"] = sorted(report.get("checks", []),
                              key=lambda c: (c["name"], str(c.get("witness", ""))))
    report["passed"] = all(c["pass"] for c in report["checks"])
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "report", None):
        Path(args.report).write_text(text + "\n", encoding="utf-8")
    if getattr(args, "json", False):
        print(text)
    else:
        _print_human(report)
    return 0 if report["passed"] else 1


def _print_human(report):
    print(f"command: {report['command']}")
    for key, value in sorted(report.items()):
        if key in ("command", "checks", "passed"):
            continue
        print(f"{key}:")
        print("  " + json.dumps(value, sort_keys=True, default=str)[:2000])
    width = max((len(c["name"]) for c in report["checks"]), default=4)
    for c in report["checks"]:
        mark = "PASS" if c["pass"] else "FAIL"
        extra = f"  {c['witness']}" if "witness" in c and not c["pass"] else ""
        print(f"{c['name']:<{width}}  {mark}{extra}")
    print("result:", "PASS" if report["passed"] else "FAIL")


def _vec_str(v):
    return [rational_str(x) for x in v]


def _mat_str(m):
    return [[rational_str(x) for x in row] for row in m]


def _jacobi_check(violations):
    """The jacobi check, witnessed by each failing 1-based triple and its
    cyclic sum."""
    witness = [[i + 1, j + 1, k + 1, _vec_str(s)] for i, j, k, s in violations]
    return _check("jacobi", not violations, witness or None)


def _refused(report, exc, args):
    """Finish a report whose construction raised an ExtensionError: one
    failed check per violation it names."""
    for v in exc.violations or ("construction_failed",):
        report["checks"].append(_check(v, False))
    report["error"] = str(exc)
    return _finish(report, args)


def _profile_json(alg):
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in profile(alg).items()}


def cmd_check(args):
    alg, form = load_algebra_file(args.file)
    report = {"command": "check", "file": str(args.file),
              "dim": alg.dim, "names": list(alg.names), "checks": []}
    violations = check_jacobi(alg)
    report["checks"].append(_jacobi_check(violations))
    if form is not None:
        report["metric_signature"] = list(form.signature)
        report["metric_nondegenerate"] = form.nondegenerate
        report["metric_ad_invariant"] = (not violations) and ad_invariant(alg, form)
    return _finish(report, args)


def cmd_extend(args):
    rep = load_builder_file(args.spec)
    report = {"command": "extend", "spec": str(args.spec), "checks": []}
    try:
        dbl = double_extend(rep)
    except ExtensionError as exc:
        return _refused(report, exc, args)
    for name in ("jacobi", "Q_ad_invariant", "Q_minus_ad_invariant",
                 "h_subalgebra", "gd_ideal", "signature_relation"):
        report["checks"].append(_check(name, True))
    report["algebra"] = dump_algebra_dict(dbl.g, dbl.Q)
    report["Q_signature"] = list(dbl.Q.signature)
    if args.emit:
        Path(args.emit).write_text(
            json.dumps(dump_algebra_dict(dbl.g, dbl.Q), indent=2) + "\n",
            encoding="utf-8")
    return _finish(report, args)


def cmd_gd(args):
    rep = load_builder_file(args.spec)
    report = {"command": "gd", "spec": str(args.spec), "checks": []}
    try:
        gd = build_gd(rep)
    except ExtensionError as exc:
        return _refused(report, exc, args)
    for name in ("jacobi", "metric_blocks", "hstar_central", "cm_relation",
                 "mu_skew_derivations", "lambda_isometry"):
        report["checks"].append(_check(name, True))
    report["algebra"] = dump_algebra_dict(gd.L, gd.metric)
    if args.emit:
        Path(args.emit).write_text(
            json.dumps(dump_algebra_dict(gd.L, gd.metric), indent=2) + "\n",
            encoding="utf-8")
    return _finish(report, args)


def cmd_geometry(args):
    alg, form = load_algebra_file(args.file)
    report = {"command": "geometry", "file": str(args.file), "checks": []}
    bad = check_jacobi(alg)
    report["checks"].append(_check("jacobi", not bad))
    if form is None or not form.nondegenerate:
        report["checks"].append(_check("metric_nondegenerate", False))
        return _finish(report, args)
    report["checks"].append(_check("metric_nondegenerate", True))
    if bad:
        return _finish(report, args)
    gamma = levi_civita(alg, form)
    r = curvature(gamma, alg)
    ric = ricci(r, form)
    op = ricci_operator(r, form)
    basis = linalg.identity(alg.dim)
    torsion_free = all(
        gamma.entry(i, j) == linalg.vec_add(gamma.entry(j, i),
                                            alg.basis_bracket(i, j))
        for i in range(alg.dim) for j in range(alg.dim))
    metric_comp = not any(skew_witnesses(gamma.data, form, alg.dim))
    report["checks"].append(_check("torsion_free", torsion_free))
    report["checks"].append(_check("metric_compatible", metric_comp))
    for key, tensor in (("connection", gamma), ("curvature", r)):
        report[key] = {",".join(str(i + 1) for i in idx):
                       _vec_str(tensor.entry(*idx)) for idx in tensor.data}
    report["ricci"] = _mat_str(ric.rows())
    report["ricci_operator"] = _mat_str(op)
    report["ricci_charpoly"] = _vec_str(linalg.charpoly(op))
    planes = {}
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            if plane_discriminant(form, basis[i], basis[j]) == 0:
                planes[f"{i+1},{j+1}"] = "degenerate"
            else:
                planes[f"{i+1},{j+1}"] = rational_str(
                    sectional(r, form, basis[i], basis[j]))
    report["sectional"] = planes
    return _finish(report, args)


def cmd_verify_as(args):
    rep = load_builder_file(args.spec)
    report = {"command": "verify-as", "spec": str(args.spec), "checks": []}
    try:
        gd = build_gd(rep)
    except ExtensionError as exc:
        return _refused(report, exc, args)
    rpt = verify_as(gd)
    for name, (ok, witnesses) in sorted(rpt.axioms.items()):
        shown = [[x + 1 for x in tup] for tup in witnesses[:20]]
        report["checks"].append(_check(f"axiom_{name}", ok, shown or None))
    return _finish(report, args)


def cmd_derivations(args):
    report = {"command": "derivations", "checks": []}
    if args.so_aut:
        rep = load_builder_file(args.so_aut)
        try:
            gd = build_gd(rep)
        except ExtensionError as exc:
            return _refused(report, exc, args)
        sa = so_aut(gd)
        report["so_aut_dim"] = sa.dim
        report["so_aut_pairs"] = [
            {"A": _mat_str([list(r) for r in a]), "B": _mat_str([list(r) for r in b])}
            for a, b in sa.pairs]
        induced_ok = all(
            sa.contains(*([list(r) for r in m] for m in induced_so_aut_pair(gd, i)))
            for i in range(gd.nh))
        report["checks"].append(_check("contains_induced_pairs", induced_ok))
        return _finish(report, args)
    alg, form = load_algebra_file(args.file)
    if args.metric:
        partner, form = load_algebra_file(args.metric)
        if partner.dim != alg.dim:
            raise SpecFormatError(f"metric has dimension {partner.dim}, but the "
                                  f"algebra in {args.file} has dimension {alg.dim}",
                                  args.metric)
    violations = check_jacobi(alg)
    if violations:
        report["checks"].append(_jacobi_check(violations))
        return _finish(report, args)
    der = derivation_algebra(alg)
    inner = inner_derivations(alg)
    report["derivations_dim"] = der.dim
    report["inner_dim"] = inner.dim
    report["derivations_profile"] = _profile_json(der)
    report["inner_profile"] = _profile_json(inner)
    report["checks"].append(_check(
        "inner_dim_relation", inner.dim == alg.dim - center(alg).dim))
    report["checks"].append(_check(
        "inner_inside_derivations",
        der.flat_subspace().contains_subspace(inner.flat_subspace())))
    if form is not None and form.nondegenerate:
        sk = skew_derivations(alg, form)
        report["skew_dim"] = sk.dim
        report["skew_profile"] = _profile_json(sk)
        report["skew_basis"] = [_mat_str(m) for m in sk.matrices()]
        report["checks"].append(_check(
            "skew_inside_derivations",
            der.flat_subspace().contains_subspace(sk.flat_subspace())))
    return _finish(report, args)


def cmd_series(args):
    rep = load_builder_file(args.spec)
    report = {"command": "series", "spec": str(args.spec), "checks": []}
    try:
        gd = build_gd(rep)
    except ExtensionError as exc:
        return _refused(report, exc, args)
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
        report["checks"].append(_check("nilpotent_prediction", nil.consistent))
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
        report["checks"].append(_check("solvable_prediction", sol.consistent))
    except SeriesError as exc:
        report["solvable"] = str(exc)
    return _finish(report, args)


def cmd_corpus(args):
    report = {"command": "corpus", "checks": []}
    if not args.name:
        report["entries"] = corpus_list()
        return _finish(report, args)
    names = corpus_list() if args.name == "all" else [args.name]
    try:
        entries = [corpus_build(n) for n in names]
    except KeyError as exc:
        raise SpecFormatError(str(exc))
    built = [(entry, build_gd(entry.rep)) for entry in entries]
    for entry, gd in built:
        for cname, ok, detail in entry.checks(gd):
            report["checks"].append(_check(f"{entry.name}.{cname}", ok, detail))
    if args.emit:
        outdir = Path(args.dir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        for entry, gd in built:
            if entry.primary == "double":
                doc = dump_algebra_dict(gd.double.g, gd.double.Q)
            else:
                doc = dump_algebra_dict(gd.L, gd.metric)
            path = outdir / f"{entry.name}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            written.append(str(path))
            bpath = outdir / f"{entry.name}_builder.json"
            bpath.write_text(json.dumps(dump_builder_dict(entry.rep), indent=2) + "\n",
                             encoding="utf-8")
            written.append(str(bpath))
        report["written"] = written
    return _finish(report, args)


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
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("extend", help="build the double extension h + d + h*")
    p.add_argument("spec")
    p.add_argument("--emit", metavar="PATH", help="write the built algebra")
    common(p)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("gd", help="build the metric algebra on d + h*")
    p.add_argument("spec")
    p.add_argument("--emit", metavar="PATH", help="write the built algebra")
    common(p)
    p.set_defaults(fn=cmd_gd)

    p = sub.add_parser("geometry", help="connection, curvature, Ricci, sectional")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_geometry)

    p = sub.add_parser("verify-as", help="check the homogeneous structure axioms")
    p.add_argument("spec")
    common(p)
    p.set_defaults(fn=cmd_verify_as)

    p = sub.add_parser("derivations", help="derivation and automorphism algebras")
    p.add_argument("file", nargs="?")
    p.add_argument("--metric", metavar="PATH",
                   help="algebra file whose metric to use for skewness")
    p.add_argument("--so-aut", metavar="SPEC", dest="so_aut",
                   help="builder spec: compute orthogonal automorphisms instead")
    common(p)
    p.set_defaults(fn=cmd_derivations)

    p = sub.add_parser("series", help="predicted vs computed nilpotency/solvability")
    p.add_argument("spec")
    common(p)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("corpus", help="build and verify the example registry")
    p.add_argument("name", nargs="?",
                   help="entry name, 'all', or omit to list entries")
    p.add_argument("--emit", action="store_true",
                   help="write algebra and builder files")
    p.add_argument("--dir", default="corpus", help="output directory for --emit")
    common(p)
    p.set_defaults(fn=cmd_corpus)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fn is cmd_derivations and not args.so_aut and not args.file:
        parser.error("derivations needs an algebra file or --so-aut")
    try:
        return args.fn(args)
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExtensionError, GeometryError, SeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
