"""Span tracing of the calls into each fedspike layer, from the benchmark's side.

``Tracer.install`` wraps each function named in ``LAYERS`` and rebinds the
wrapper under every name that holds the original in any loaded ``fedspike``
module (``experiments.sample`` as well as ``model.sample``); transport
methods are rebound on their classes. Each call records a span (layer,
start, end, parent) in a per-thread in-memory buffer. Spans are assigned to
the op whose interval holds their start, so the TCP reader threads' decode
spans land in the op that caused them; spans outside every op are dropped.

Self time is a span's duration minus the durations of its child spans
(children on one thread nest, so they never overlap). A layer's ``calls``
count entries into the layer from outside it, so a layer function calling
another function of the same layer counts once.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import hashlib
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict

import numpy as np

_TRANSPORTS = ("InProcessTransport", "FileTransport", "TcpTransport")


def _methods(*names: str) -> tuple:
    return tuple(f"protocol:{cls}.{name}" for cls in _TRANSPORTS for name in names)


# layer -> the functions ("module:qualname") whose calls are that layer.
LAYERS = {
    "experiments.run_scenario": ("experiments:run_scenario",),
    "experiments.digest": ("experiments:_digest",),
    "model.sample": ("model:sample",),
    "rng": ("rng:seed_sequence", "rng:rng_from", "rng:derive_seed"),
    "spectral.sample_covariance": ("spectral:sample_covariance",),
    "spectral.sym_eig": ("spectral:sym_eig",),
    "privacy.sample_symmetric_noise": ("privacy:sample_symmetric_noise",),
    "client.local_private_projector": ("client:local_private_projector",),
    "client.local_private_eigenvalues": ("client:local_private_eigenvalues",),
    "client.local_raw_noisy_projector": ("client:local_raw_noisy_projector",),
    "messages.encode": ("messages:encode",),
    "messages.decode": ("messages:decode",),
    "protocol.transport": _methods("send_from_client", "receive_at_client", "broadcast_from_server"),
    "protocol.collect": _methods("collect_at_server"),
    "protocol.open_close": _methods("open", "close"),
    "server.weights": (
        "server:weights_from_rate_inputs",
        "server:pca_weights",
        "server:cov_weights",
        "server:weights_from_messages",
    ),
    "server.aggregate_projectors": ("server:aggregate_projectors",),
    "server.aggregate_reference": ("server:aggregate_reference",),
    "server.assemble_covariance": ("server:assemble_covariance",),
    "oja.fed_dp_oja": ("oja:fed_dp_oja",),
    "kernels.oja_stream": ("kernels:oja_stream",),
}


def fingerprint(*values) -> bytes:
    """Identity of a call's inputs: shapes plus a strided sample of each array.

    Sixty-four sampled doubles of a random matrix tell distinct inputs apart
    without hashing megabytes inside the traced op.
    """
    h = hashlib.blake2b(digest_size=16)
    for v in values:
        for part in getattr(v, "__dict__", {}).values() or (v,):
            if isinstance(part, np.ndarray):
                flat = part.reshape(-1)
                h.update(repr(part.shape).encode())
                h.update(flat[:: max(1, flat.size // 64)].tobytes())
            else:
                h.update(repr(part).encode())
    return h.digest()


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# layer -> (args, kwargs, result) -> {key: value} recorded on the span.
PROBES = {
    "model.sample": lambda a, k, out: {
        "input": fingerprint(_arg(a, k, 0, "model"), _arg(a, k, 1, "n"), _arg(a, k, 2, "seed"))
    },
    "spectral.sample_covariance": lambda a, k, out: {
        "input": fingerprint(_arg(a, k, 0, "data").samples)
    },
    "messages.encode": lambda a, k, out: {"bytes": len(out)},
    "messages.decode": lambda a, k, out: {"bytes": len(_arg(a, k, 0, "blob"))},
    "kernels.oja_stream": lambda a, k, out: {"steps": int(np.shape(_arg(a, k, 0, "xs"))[0])},
    # Computed, not measured: the dense accumulate reads and writes m p x p doubles.
    "server.aggregate_projectors": lambda a, k, out: {
        "bytes_computed": 8 * len(a[0]) * a[0][0].u_hat.shape[0] ** 2
    },
}


class _Span:
    __slots__ = ("sid", "layer", "start", "end", "parent", "extra")

    def __init__(self, sid, layer, start, parent):
        self.sid, self.layer, self.start, self.parent = sid, layer, start, parent
        self.end, self.extra = None, None


class Tracer:
    """Per-thread span buffers plus the rebinding of fedspike's functions."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[tuple] = []  # (on the main thread?, spans); thread ids get reused
        self._lock = threading.Lock()
        self._rebound: list[tuple] = []  # (owner, name, original)
        self.ops: list[tuple] = []  # (index, start, end)

    def _thread_state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack, loc.spans = [], []
            on_main = threading.current_thread() is threading.main_thread()
            with self._lock:
                self._buffers.append((on_main, loc.spans))
        return loc

    def _wrap(self, layer: str, fn):
        probe = PROBES.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._thread_state()
            span = _Span(next(self._ids), layer, 0.0, state.stack[-1] if state.stack else 0)
            state.stack.append(span.sid)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                state.stack.pop()
                state.spans.append(span)
            if probe is not None:
                span.extra = probe(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        import fedspike

        modules = _fedspike_modules(fedspike)
        for layer, targets in LAYERS.items():
            for target in targets:
                mod_name, qualname = target.split(":")
                owner = modules[f"fedspike.{mod_name}"]
                *cls, name = qualname.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                    original = owner.__dict__[name]
                    self._rebind(owner, name, original, self._wrap(layer, original))
                    continue
                original = getattr(owner, name)
                wrapper = self._wrap(layer, original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, original, wrapper)

    def _rebind(self, owner, name, original, wrapper) -> None:
        self._rebound.append((owner, name, original))
        setattr(owner, name, wrapper)

    def unreached(self) -> list[str]:
        """Names in loaded fedspike modules that still hold an unwrapped original."""
        import fedspike

        originals = {id(orig): orig for _, _, orig in self._rebound}
        return sorted(
            f"{mod.__name__}.{attr}"
            for mod in _fedspike_modules(fedspike, load=False).values()
            for attr, value in vars(mod).items()
            if originals.get(id(value)) is value
        )

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._rebound):
            setattr(owner, name, original)
        self._rebound.clear()

    @contextlib.contextmanager
    def op(self, index: int):
        """The span of one op; every span that starts inside it belongs to it."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ops.append((index, start, time.perf_counter()))

    # -- reduction ---------------------------------------------------------

    def _spans_by_op(self):
        """Finished spans grouped by the op whose interval holds their start."""
        starts = [start for _, start, _ in self.ops]
        grouped = defaultdict(list)
        with self._lock:
            buffers = list(self._buffers)
        for on_main, spans in buffers:
            for s in list(spans):
                k = bisect.bisect_right(starts, s.start) - 1
                if k >= 0 and s.start <= self.ops[k][2]:
                    grouped[k].append((s, on_main))
        return grouped

    def layer_totals(self) -> dict:
        """Per-layer sums over all ops, divided by the op count (per-op means)."""
        grouped = self._spans_by_op()
        totals = defaultdict(lambda: defaultdict(float))
        for k, spans in grouped.items():
            child = defaultdict(float)
            layer_of = {s.sid: s.layer for s, _ in spans}
            for s, _ in spans:
                child[s.parent] += s.end - s.start
            seen = defaultdict(set)
            for s, on_main in spans:
                t = totals[s.layer]
                own = s.end - s.start - child[s.sid]
                t["self_s" if on_main else "reader_s"] += own
                if layer_of.get(s.parent) != s.layer:
                    t["calls"] += 1
                for key, value in (s.extra or {}).items():
                    if key == "input":
                        seen[s.layer].add(value)
                    else:
                        t[key] += value
            op_start, op_end = self.ops[k][1:]
            totals["op"]["self_s"] += (op_end - op_start) - sum(
                s.end - s.start for s, on_main in spans if on_main and s.parent == 0
            )
            for layer, inputs in seen.items():
                totals[layer]["distinct"] += len(inputs)
        n = max(len(self.ops), 1)
        return {layer: {k: v / n for k, v in t.items()} for layer, t in totals.items()}

    def dump(self, path) -> None:
        """Write every span of every op as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, start, end in self.ops:
                fh.write(json.dumps({"name": "op", "op": index, "start": start, "end": end}) + "\n")
            for k, spans in self._spans_by_op().items():
                for s, on_main in spans:
                    row = {
                        "name": s.layer, "op": self.ops[k][0], "start": s.start, "end": s.end,
                        "parent": s.parent, "id": s.sid, "thread": "main" if on_main else "other",
                    }
                    extra = {a: b for a, b in (s.extra or {}).items() if a != "input"}
                    fh.write(json.dumps({**row, **extra}) + "\n")


def _fedspike_modules(package, load: bool = True) -> dict:
    if load:
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{package.__name__}.{info.name}")
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if name == package.__name__ or name.startswith(package.__name__ + ".")
    }
