"""Wall times of the stages, of the structure kernels, of the geometry
readers and of the cap.

The stages are those of construction and of Ambrose-Singer; the cap is
``derivations`` on large abelian files.

    python tools/layers_table.py [--repeat K] [--max-m M] [--seed S]
                                 [--tables stages,kernels,geometry,cap]
                                 [--cap-dims 12,16,20]

Run from any directory; the package is imported from the ``src/`` of the
checkout this file sits in, so a copy of the file in another checkout
times that checkout.  Inputs:

* the ``scaling`` inputs of the benchmark at the given seed (torus m=2
  and m=3 under a seeded signed permutation, and so(3) on R^3), built by
  ``bench/workloads.py`` and loaded with ``io.load_builder_dict``;
* the dense tori ``conjugated_rep(torus_rep([1, .., m]), 5)`` of
  ``tests/conftest.py``, for m = 2, 4, 6 (up to ``--max-m``);
* for the kernels, also the 11 builders of the benchmark's ``cli_dense``
  workload under its seeded dense change of basis, summed in one row;
* for the cap, the abelian algebra of each dimension in ``--cap-dims``
  with the identity metric, written as an algebra file.

``stages``: each stage is called K times on the same input and the
minimum wall time is printed in ms: ``validate``, ``build_gd``,
``build_hom_structure``, ``verify_as`` (given the built structure, so it
excludes ``build_hom_structure``), ``curvature`` (from the Levi-Civita
connection, which is not timed) and ``curvature_gd``.  Cached integer
views are not cleared between calls, as in one process of the benchmark.

``kernels``: the minimum of K calls, in ms, summed over the inputs of a
row: ``check_jacobi`` on d, h, the double and d + h* (the four calls of a
construction); the signature of the metric of d + h* and of Q, computed
past the cache of ``BilinearForm.signature`` as the construction does,
after ``ad_invariant`` has made the int rows; ``killing_form`` of d + h*
and of the closure of its derivation algebra (solved once, not timed);
and the signature of that Killing form from a new ``BilinearForm``, as
``derivations.profile`` reads it.

``geometry``: the minimum of K calls, in ms, on d + h* of each input
(the scaling inputs and the dense tori): ``levi_civita``, ``curvature``
(from that connection), ``ricci_operator`` and the ``charpoly`` of that
operator, ``sectional`` over every coordinate plane (a degenerate one
refused), and one in-process ``geometry FILE --json`` call, output
discarded, on the algebra file of d + h*, which loads the file anew.

``cap``: the wall s of one in-process ``derivations FILE --json`` call,
output captured, per abelian file.
"""

import argparse
import contextlib
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from adinvar import (BilinearForm, GeometryError, LieAlgebra, build_gd,  # noqa: E402
                     build_hom_structure, check_jacobi, cli, corpus_build, corpus_list,
                     curvature, curvature_gd, derivation_algebra, io, killing_form,
                     levi_civita, linalg, ricci_operator, sectional, verify_as)
from conftest import conjugated_rep, torus_rep  # noqa: E402
import workloads  # noqa: E402

STAGES = ("validate", "build_gd", "build_hom_structure", "verify_as", "curvature",
          "curvature_gd")


def inputs(seed, max_m):
    """(label, rep) pairs: the seeded scaling inputs, then the dense tori."""
    rng = random.Random(seed)
    out = []
    for m in (2, 3):
        weights = [rng.choice((1, 2, 3)) for _ in range(m)]
        perm = workloads.signed_permutation(2 * m, rng)
        builder = workloads.conjugate_builder(workloads.torus_builder(weights), perm)
        out.append((f"scaling torus m={m}", io.load_builder_dict(builder)))
    out.append(("scaling so3", io.load_builder_dict(workloads.so3_builder())))
    for m in range(2, max_m + 1, 2):
        out.append((f"dense torus m={m}",
                    conjugated_rep(torus_rep(list(range(1, m + 1))), 5)))
    return out


def best_ms(call, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def times(rep, repeat):
    gd = build_gd(rep)
    hom = build_hom_structure(gd)
    gamma = levi_civita(gd.L, gd.metric)
    calls = {
        "validate": rep.validate,
        "build_gd": lambda: build_gd(rep),
        "build_hom_structure": lambda: build_hom_structure(gd),
        "verify_as": lambda: verify_as(gd, hom),
        "curvature": lambda: curvature(gamma, gd.L),
        "curvature_gd": lambda: curvature_gd(gd),
    }
    return [best_ms(calls[name], repeat) for name in STAGES]


KERNELS = ("check_jacobi", "signature (metric, Q)", "killing_form (L)",
           "killing_form (Der L)", "signature (Killing of Der L)")


def cli_dense_reps(seed):
    """The builders of the benchmark's ``cli_dense`` workload under its
    seeded dense change of basis, in the workload's order."""
    rng = random.Random(seed)
    dump = io.dump_builder_dict
    builders = {name: dump(corpus_build(name).rep) for name in corpus_list()}
    names = sorted(n for n in builders if n not in workloads.CLI_DENSE_SKIP)
    rng.shuffle(names)
    out = []
    for name in names:
        b = builders[name]
        conj = workloads.conjugate_builder(b, workloads.dense_basis_change(b["d"]["dim"], rng))
        workloads.perturb_builder(conj, rng)  # keeps the workload's draws in step
        out.append(io.load_builder_dict(conj))
    return out


def kernel_times(reps, repeat):
    """The KERNELS columns in ms, each summed over reps."""
    signature = BilinearForm.signature.func  # past the cache
    total = [0.0] * len(KERNELS)
    for rep in reps:
        gd = build_gd(rep)
        dbl = gd.double
        forms = (gd.metric, dbl.Q)
        for form in forms:
            form.int_rows  # as ad_invariant leaves it
        closure = derivation_algebra(gd.L).closure
        killing = killing_form(closure)
        calls = (
            lambda: [check_jacobi(a) for a in (rep.d, rep.h, dbl.g, gd.L)],
            lambda: [signature(f) for f in forms],
            lambda: killing_form(gd.L),
            lambda: killing_form(closure),
            lambda: BilinearForm(killing.matrix).signature,
        )
        total = [t + best_ms(call, repeat) for t, call in zip(total, calls)]
    return total


GEOMETRY = ("levi_civita", "curvature", "ricci_operator", "charpoly", "sectional (all planes)",
            "geometry --json")


def geometry_times(rep, repeat):
    """The GEOMETRY columns in ms on d + h* of rep."""
    gd = build_gd(rep)
    alg, form = gd.L, gd.metric
    gamma = levi_civita(alg, form)
    r = curvature(gamma, alg)
    op = ricci_operator(r, form)
    basis = linalg.identity(alg.dim)
    planes = [(basis[i], basis[j]) for i in range(alg.dim) for j in range(i + 1, alg.dim)]

    def all_planes():
        for x, y in planes:
            try:
                sectional(r, form, x, y)
            except GeometryError:
                pass

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gd.json"
        path.write_text(json.dumps(io.dump_algebra_dict(alg, form)), encoding="utf-8")

        def command():
            with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
                if cli.main(["geometry", str(path), "--json"]) not in (0, 1):
                    raise SystemExit("geometry refused the algebra file of d + h*")

        calls = (lambda: levi_civita(alg, form), lambda: curvature(gamma, alg),
                 lambda: ricci_operator(r, form), lambda: linalg.charpoly(op), all_planes,
                 command)
        return [best_ms(call, repeat) for call in calls]


def cap_seconds(dim):
    """Wall s of one ``derivations --json`` call on the abelian file of dim
    with the identity metric."""
    doc = io.dump_algebra_dict(LieAlgebra.abelian(dim), BilinearForm.diagonal([1] * dim))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"abelian_{dim}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with open(Path(tmp) / "out.json", "w") as out, contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = cli.main(["derivations", str(path), "--json"])
            wall = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"derivations on the abelian file of dim {dim} exited {code}")
    return wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="calls per stage (min taken)")
    parser.add_argument("--max-m", type=int, default=6, help="largest dense torus m")
    parser.add_argument("--seed", type=int, default=71, help="seed of the scaling inputs")
    parser.add_argument("--tables", default="stages,kernels,geometry,cap",
                        help="comma-separated tables to print: stages, kernels, geometry, cap")
    parser.add_argument("--cap-dims", default="12,16,20",
                        help="comma-separated dims of the abelian files of the cap table")
    args = parser.parse_args(argv)
    tables = args.tables.split(",")
    if "stages" in tables:
        print("| input | dim d+h* | " + " | ".join(f"`{s}`" for s in STAGES) + " |")
        print("|---|---:|" + "---:|" * len(STAGES))
        for label, rep in inputs(args.seed, args.max_m):
            row = times(rep, args.repeat)
            dim = rep.d.dim + rep.h.dim
            print(f"| {label} | {dim} | " + " | ".join(f"{ms:.2f}" for ms in row) + " |",
                  flush=True)
    if "kernels" in tables:
        print("\n| input | " + " | ".join(f"`{k}` ms" for k in KERNELS) + " |")
        print("|---|" + "---:|" * len(KERNELS))
        rows = inputs(args.seed, args.max_m)
        groups = [("scaling (3 inputs)", [rep for label, rep in rows if "scaling" in label])]
        groups += [(label, [rep]) for label, rep in rows if label.startswith("dense")]
        groups.append(("cli_dense (11 builders)", cli_dense_reps(args.seed)))
        for label, reps in groups:
            row = kernel_times(reps, args.repeat)
            print(f"| {label} | " + " | ".join(f"{ms:.3f}" for ms in row) + " |", flush=True)
    if "geometry" in tables:
        print("\n| input | dim d+h* | " + " | ".join(f"`{g}` ms" for g in GEOMETRY) + " |")
        print("|---|---:|" + "---:|" * len(GEOMETRY))
        for label, rep in inputs(args.seed, args.max_m):
            row = geometry_times(rep, args.repeat)
            dim = rep.d.dim + rep.h.dim
            print(f"| {label} | {dim} | " + " | ".join(f"{ms:.3f}" for ms in row) + " |",
                  flush=True)
    if "cap" in tables:
        print("\n| abelian file | `derivations --json` wall s |")
        print("|---:|---:|")
        for dim in map(int, args.cap_dims.split(",")):
            print(f"| {dim} | {cap_seconds(dim):.2f} |", flush=True)


if __name__ == "__main__":
    main()
