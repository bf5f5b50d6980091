"""The benchmark's tracer names fedspike functions by ``module:qualname``;
``Tracer.install`` fails on a name that no longer resolves. Checking the
names here makes a rename fail the test suite, not only a benchmark run."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_in_fedspike():
    # run_path compiles the file from source and writes no bytecode cache.
    layers = runpy.run_path(str(TRACER))["LAYERS"]
    missing = []
    for layer, targets in layers.items():
        for target in targets:
            mod_name, qualname = target.split(":")
            owner = importlib.import_module(f"fedspike.{mod_name}")
            for part in qualname.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}: {target}")
    assert not missing, f"tracer names that do not resolve: {missing}"
