"""Benchmark of the adinvar workbench.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one thread, closed loop:
each operation starts when the previous one has finished.  The package
is imported from ``src/`` next to this directory; ``ADINVAR_THREADS`` is
removed from the environment first, so everything stays serial.

--trace 0  sets up the workload, runs whole passes over its operations
           until about ``--seconds`` have been measured, then sets it up
           again several times (their median is ``setup_s``).  Tracing is
           off.  Every output is checked; a mismatch is counted, never
           raised.
--trace 1  sets up once and runs three passes: untraced, traced (spans at
           each layer boundary), and traced while counting the Fraction
           kernel's operations.  Call counts of the last two passes must
           agree, and must agree with an earlier traced run of the same
           seed and sources; the spans go to ``bench/out/``.

Times are wall times rescaled to a reference host speed that is sampled
throughout the run (see ``speed.py``); the raw wall time of each pass is
in the provenance record.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the provenance record of the run.
"""

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REJECT_TRIES = 7     # tries per reject operation with tracing off
SETUPS = 5           # at least this many timed set-ups per run,
SETUP_SECONDS = 1.5  # and at least this long; setup_s is their median

sys.path.insert(0, str(SRC))

from layers import TIMED, FractionCounter, Tracer  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def fresh_import():
    """Import adinvar from ``src/`` as a new process would."""
    for name in [n for n in sys.modules if n == "adinvar" or n.startswith("adinvar.")]:
        del sys.modules[name]
    package = importlib.import_module("adinvar")
    for module in ("cli", "io"):
        importlib.import_module(f"adinvar.{module}")
    if Path(package.__file__).resolve().parent != SRC / "adinvar":
        raise SystemExit(f"error: imported adinvar from {package.__file__}")
    return package


def setup(workload, seed, golden, workdir, speed):
    """(reference seconds, package, prepared workload): the import plus the
    generation of the inputs."""
    token = speed.begin()
    package = fresh_import()
    prepared = Workload(package, golden, workdir).prepare(workload, seed)
    return speed.end(token)[1], package, prepared


@dataclass
class Pass:
    accepted_s: float = 0.0
    reject_s: float = 0.0
    slowest_op_s: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)

    @property
    def total_s(self):
        return self.accepted_s + self.reject_s


def run_pass(prepared, speed=None, around=contextlib.nullcontext, reject_tries=1):
    """One pass over the operations, timed in reference seconds when a
    speedometer runs.  ``around`` is entered around each call only, so that
    the checks stay outside tracing and counting.  A reject operation is
    tried ``reject_tries`` times and timed as the median: a refusal takes
    milliseconds, so a single pause of the host would decide its time."""
    done, state = Pass(), {}
    for op in prepared.ops:
        done.attempted += 1
        error, tries = None, []
        for _ in range(reject_tries if op.reject else 1):
            with around():
                token = speed.begin() if speed else time.perf_counter()
                try:
                    result = op.run(state)
                except Exception as exc:   # a crash fails this operation only
                    error = f"raised {type(exc).__name__}: {exc}"
                    traceback.print_exc(file=sys.stderr)
                if speed:
                    wall, ref = speed.end(token)
                else:
                    wall = ref = time.perf_counter() - token
            done.wall_s += wall
            tries.append(ref)
            if error:
                break
        took = statistics.median(tries)
        if op.reject:
            done.reject_s += took
        else:
            done.accepted_s += took
            done.slowest_op_s = max(done.slowest_op_s, took)
        if error is None:
            if op.keep:
                state[op.keep] = result
            try:
                error = op.check(result, state)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            done.failures.append(f"{op.name}: {error}")
    if prepared.finish is not None:
        done.attempted += 1
        error = prepared.finish(state)
        if error:
            done.failures.append(f"pass: {error}")
    return done


def measure(args, golden, workdir):
    setups, passes = [], []
    with Speedometer() as speed:
        _, _, prepared = setup(args.workload, args.seed, golden, workdir, speed)
        start = time.perf_counter()
        while True:
            passes.append(run_pass(prepared, speed, reject_tries=REJECT_TRIES))
            elapsed = time.perf_counter() - start
            # Start another pass only if at least half of it fits the run.
            if elapsed + elapsed / len(passes) / 2 > args.seconds:
                break
        # The timed set-ups come after the passes, so that the first one,
        # which reads cold files and compiles bytecode, is not among them.
        start = time.perf_counter()
        while len(setups) < SETUPS or time.perf_counter() - start < SETUP_SECONDS:
            setups.append(setup(args.workload, args.seed, golden, workdir, speed)[0])
    median = statistics.median
    metrics = {
        "setup_s": (median(setups), "s"),
        "pass_s": (median(p.accepted_s for p in passes), "s"),
        "slowest_op_s": (median(p.slowest_op_s for p in passes), "s"),
        "reject_s": (median(p.reject_s for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"pass_wall_s": [p.wall_s for p in passes], "setups": len(setups),
               "speed_samples": len(speed.samples)}
    return metrics, passes, prepared, details


@contextlib.contextmanager
def tracing_and_counting(tracer, counter):
    with tracer, counter:
        yield


def traced(args, golden, workdir):
    with Speedometer() as speed:
        _, package, prepared = setup(args.workload, args.seed, golden, workdir, speed)
        plain = run_pass(prepared, speed)
        tracer = Tracer(package, clock=speed.now)
        timed = run_pass(prepared, speed, lambda: tracer)
    stats, spans = tracer.stats, tracer.spans
    # The counting pass runs without the speedometer, whose samples are
    # Fraction arithmetic too.
    tracer, counter = Tracer(package), FractionCounter()
    counted = run_pass(prepared, around=lambda: tracing_and_counting(tracer, counter))
    calls = {name: st.calls for name, st in stats.items()}
    counted.attempted += 2
    if tracer.calls() != calls:
        counted.failures.append("determinism: call counts differ between two passes")
    record = {"source": source_digest(), "calls": calls, "fraction_ops": counter.count}
    counted.failures += compare_record(args, record)
    write_spans(args, spans)

    metrics = {f"{name}.calls": (st.calls, "count") for name, st in stats.items()}
    for name in TIMED:
        metrics[f"{name}.s"] = (stats[name].s, "s")
        metrics[f"{name}.self_s"] = (stats[name].self_s, "s")
    for name in ("extension.build_gd", "core.ad_invariant"):
        metrics[f"{name}.calls_per_input"] = (stats[name].calls / prepared.inputs, "ratio")
    metrics["linalg.fraction_ops"] = (counter.count, "count")
    metrics["trace.overhead_s"] = (timed.total_s - plain.total_s, "s")
    details = {"pass_wall_s": [plain.wall_s, timed.wall_s, counted.wall_s],
               "speed_samples": len(speed.samples),
               "layers": {name: {"calls": st.calls, "s": st.s, "self_s": st.self_s}
                          for name, st in stats.items() if st.calls}}
    return metrics, [plain, timed, counted], prepared, details


def compare_record(args, record):
    """Compare exact counts with the last traced run of the same workload,
    seed and sources, then keep this run's counts."""
    path = OUT / f"counts-{args.workload}-{args.seed}.json"
    failures = []
    if path.is_file():
        try:
            earlier = json.loads(path.read_text())
        except json.JSONDecodeError:
            earlier = {}
        if earlier.get("source") == record["source"]:
            for key in ("calls", "fraction_ops"):
                if earlier.get(key) != record[key]:
                    failures.append(f"determinism: {key} differ from an earlier traced run")
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    return failures


def write_spans(args, spans):
    with open(OUT / f"trace-{args.workload}-{args.seed}.jsonl", "w") as out:
        for span, parent, name, start, end in spans:
            out.write(json.dumps({"id": span, "parent": parent, "name": name,
                                  "start": start, "end": end}) + "\n")


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "adinvar").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, read without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adinvar" / "__init__.py").is_file():
        raise SystemExit(f"error: no adinvar sources under {SRC}")
    threads = os.environ.pop("ADINVAR_THREADS", None)
    golden = json.loads((HERE / "golden.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = traced if args.trace else measure
        metrics, passes, prepared, details = run(args, golden, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    for failure in failures:
        print("FAILED", failure, file=sys.stderr)
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "adinvar_threads_removed": threads, "passes": len(passes),
        "ops_per_pass": {"accepted": sum(not op.reject for op in prepared.ops),
                         "rejected": sum(op.reject for op in prepared.ops)},
        "inputs": prepared.dims, **details,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
