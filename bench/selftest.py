"""Self-tests of the benchmark itself.  Run from the repository root:

    python3 bench/selftest.py        (about a minute)

They check that a wrong golden value is counted as a failed operation
instead of ending the run, that the layer wrappers reach every binding
(their counts equal cProfile's counts of the same code objects), that two
traced passes count the same, and that the benchmark refuses to run
without the package sources.
"""

import contextlib
import cProfile
import copy
import io
import json
import pstats
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from layers import LAYERS, FractionCounter, Tracer
from workloads import Workload

GOLDEN = json.loads((run.HERE / "golden.json").read_text())


def prepared(workload, golden=GOLDEN, seed=3, keep=None):
    """A workload prepared in a temporary directory, optionally cut down to
    the operations whose names start with one of ``keep``."""
    tmp = tempfile.mkdtemp()
    package = run.fresh_import()
    prep = Workload(package, golden, tmp).prepare(workload, seed)
    if keep:
        prep.ops = [op for op in prep.ops if op.name.startswith(keep)]
        prep.finish = None
    return package, prep, tmp


class GoldenMismatch(unittest.TestCase):

    def test_wrong_so_aut_dim_is_one_failed_op(self):
        golden = copy.deepcopy(GOLDEN)
        golden["scaling"]["so3"]["so_aut_dim"] += 1
        _, prep, tmp = prepared("scaling", golden, keep=("so3", "reject validate so3"))
        try:
            done = run.run_pass(prep)
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(done.attempted, 10)
        self.assertEqual(len(done.failures), 1, done.failures)
        self.assertTrue(done.failures[0].startswith("so3 so_aut:"))

    def test_wrong_corpus_digest_is_one_failed_op(self):
        golden = copy.deepcopy(GOLDEN)
        golden["corpus"]["entries"]["h3_metric_0"] = "0" * 64
        _, prep, tmp = prepared("corpus", golden,
                                keep=("corpus h3_metric_0", "reject gd h3_metric_0"))
        try:
            done = run.run_pass(prep)
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(done.attempted, 2)
        self.assertEqual(len(done.failures), 1, done.failures)

    def test_crashing_operation_is_one_failed_op(self):
        _, prep, tmp = prepared("scaling", keep=("so3 validate", "so3 levi_civita"))
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                done = run.run_pass(prep)   # levi_civita needs build_gd, which is cut
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(done.attempted, 3)
        self.assertEqual(len(done.failures), 2, done.failures)


class Wrappers(unittest.TestCase):

    def test_counts_equal_cprofile_on_corpus(self):
        package, prep, tmp = prepared("corpus", keep=("corpus ",))
        try:
            tracer = Tracer(package)
            with contextlib.redirect_stderr(io.StringIO()):
                done = run.run_pass(prep, around=lambda: tracer)
            profile = cProfile.Profile()
            profile.enable()
            run.run_pass(prep)
            profile.disable()
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(done.failures, [])
        counted = {(f, line, name): calls
                   for (f, line, name), (_, calls, *_) in pstats.Stats(profile).stats.items()}
        for layer, names in LAYERS.items():
            home = sys.modules[f"adinvar.{layer}"]
            for name in names:
                obj = home
                for part in name.split("."):
                    obj = getattr(obj, part)
                code = obj.__code__
                key = (code.co_filename, code.co_firstlineno, code.co_name)
                metric = f"{layer}.{name.rsplit('.', 1)[-1]}"
                self.assertEqual(tracer.stats[metric].calls, counted.get(key, 0), metric)
        # At the commit that introduced the benchmark these were 164 and 23.
        print("\ncorpus: core.ad_invariant.calls =",
              tracer.stats["core.ad_invariant"].calls,
              "extension.build_gd.calls =", tracer.stats["extension.build_gd"].calls,
              file=sys.stderr)

    def test_wrappers_are_removed(self):
        package = run.fresh_import()
        original = package.core.ad_invariant
        with Tracer(package):
            self.assertIsNot(package.extension.ad_invariant, original)
            self.assertIsNot(package.ad_invariant, original)
        self.assertIs(package.extension.ad_invariant, original)
        self.assertIs(package.ad_invariant, original)


class Determinism(unittest.TestCase):

    def test_two_traced_passes_count_the_same(self):
        package, prep, tmp = prepared("cli_dense", keep=("gd h3", "geometry h3",
                                                         "derivations h3", "reject"))
        try:
            counts = []
            for _ in range(2):
                tracer, counter = Tracer(package), FractionCounter()
                done = run.run_pass(
                    prep, around=lambda: run.tracing_and_counting(tracer, counter))
                self.assertEqual(done.failures, [])
                counts.append((tracer.calls(), counter.count))
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0][1], 0)


class Refusal(unittest.TestCase):

    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(run.HERE, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
