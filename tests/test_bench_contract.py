"""The names the benchmark harness wraps must exist in the package.

``bench/layers.py`` wraps the functions listed in ``LAYERS`` by name, and
``bench/selftest.py`` requires ``ad_invariant`` to be one function bound
in ``core``, ``extension`` and the package.  A refactor that renames or
rebinds one of them fails here instead of in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import adinvar

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_wrapped_name_resolves():
    for layer, names in _bench_layers().items():
        home = importlib.import_module(f"adinvar.{layer}")
        for name in names:
            obj = home
            for part in name.split("."):
                obj = getattr(obj, part)
            assert callable(obj) and hasattr(obj, "__code__"), f"{layer}.{name}"


def test_ad_invariant_is_one_binding():
    assert adinvar.extension.ad_invariant is adinvar.core.ad_invariant
    assert adinvar.ad_invariant is adinvar.core.ad_invariant
