"""Per-layer wall times of the construction and Ambrose-Singer stages.

    python tools/layers_table.py [--repeat K] [--max-m M] [--seed S]

Run from any directory; the package is imported from the ``src/`` of the
checkout this file sits in, so a copy of the file in another checkout
times that checkout.  Inputs:

* the ``scaling`` inputs of the benchmark at the given seed (torus m=2
  and m=3 under a seeded signed permutation, and so(3) on R^3), built by
  ``bench/workloads.py`` and loaded with ``io.load_builder_dict``;
* the dense tori ``conjugated_rep(torus_rep([1, .., m]), 5)`` of
  ``tests/conftest.py``, for m = 2, 4, 6 (up to ``--max-m``).

Each stage is called K times on the same input and the minimum wall time
is printed in ms: ``validate``, ``build_gd``, ``build_hom_structure``,
``verify_as`` (given the built structure, so it excludes
``build_hom_structure``), ``curvature`` (from the Levi-Civita connection,
which is not timed) and ``curvature_gd``.  Cached integer views are not
cleared between calls, as in one process of the benchmark.
"""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from adinvar import (build_gd, build_hom_structure, curvature,  # noqa: E402
                     curvature_gd, io, levi_civita, verify_as)
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="calls per stage (min taken)")
    parser.add_argument("--max-m", type=int, default=6, help="largest dense torus m")
    parser.add_argument("--seed", type=int, default=71, help="seed of the scaling inputs")
    args = parser.parse_args(argv)
    print("| input | dim d+h* | " + " | ".join(f"`{s}`" for s in STAGES) + " |")
    print("|---|---:|" + "---:|" * len(STAGES))
    for label, rep in inputs(args.seed, args.max_m):
        row = times(rep, args.repeat)
        dim = rep.d.dim + rep.h.dim
        print(f"| {label} | {dim} | " + " | ".join(f"{ms:.2f}" for ms in row) + " |",
              flush=True)


if __name__ == "__main__":
    main()
