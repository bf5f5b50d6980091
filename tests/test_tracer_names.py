"""The benchmark's tracer names fedspike functions by ``module:qualname``;
``Tracer.install`` fails on a name that no longer resolves. Checking the
names here, by the tracer's own lookup, makes a rename fail the test suite,
not only a benchmark run."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _resolve(target: str):
    """The function ``Tracer.install`` wraps for ``target``, or None. A method
    must sit in its class's own ``__dict__``: the tracer reads it there, so an
    inherited method does not resolve."""
    mod_name, qualname = target.split(":")
    owner = importlib.import_module(f"fedspike.{mod_name}")
    *cls, name = qualname.split(".")
    if cls:
        klass = getattr(owner, cls[0], None)
        return vars(klass).get(name) if klass is not None else None
    return getattr(owner, name, None)


def test_every_traced_name_resolves_in_fedspike():
    # run_path compiles the file from source and writes no bytecode cache.
    layers = runpy.run_path(str(TRACER))["LAYERS"]
    missing = [
        f"{layer}: {target}"
        for layer, targets in layers.items()
        for target in targets
        if not callable(_resolve(target))
    ]
    assert not missing, f"tracer names that do not resolve: {missing}"


def test_an_inherited_method_does_not_resolve(monkeypatch):
    from fedspike import protocol

    class Derived(protocol.TcpTransport):
        pass

    monkeypatch.setattr(protocol, "Derived", Derived, raising=False)
    assert callable(_resolve("protocol:TcpTransport.open"))
    assert _resolve("protocol:Derived.open") is None
