"""In-memory span tracer installed around ``bisiegel``'s public API.

``install`` wraps every public function (each module's ``__all__``), every
public method of each public class, the arithmetic operators, ``__call__``
and dataclass validation (``__post_init__``), plus each check of the verify
suite.  A wrapped function is rebound in every ``bisiegel`` module that holds
it, so nested library calls become child spans.

A span is ``(id, name, start_ns, end_ns, parent_id, op)``; self time is the
span's duration minus the time its children cover.  ``numkit`` operators run
for a few microseconds each and are called hundreds of times per operation,
so they are timed and counted but keep no span record.  At most
``MAX_SPANS`` records are kept, whole operations only: an operation that
would pass the cap is dropped and recording stops (one ``verify`` call makes
about 870k spans, so a traced ``verify_suite`` keeps none).
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("numkit", "domain", "group", "geometry", "hyperbolic", "verify", "cli")
ROOT = "bench.op"
MAX_SPANS = 250_000
_OPERATORS = {"__matmul__", "__add__", "__sub__", "__neg__", "__call__"}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.recording = True
        self.overflow = False
        self.op = -1
        self._ids = 0
        self.stack: list[list] = []
        #: name -> [calls, inclusive_ns, self_ns, raised, raised_out_of_layer]
        self.stats: dict[str, list[int]] = {}
        self.spans: list[tuple] = []

    def wrap(self, name: str, layer: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0, 0, 0])
        keep = layer != "numkit"
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._ids += 1
            frame = [tracer._ids, 0, layer]
            parent = tracer.stack[-1]
            tracer.stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                tracer.stack.pop()
                dur = end - start
                parent[1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if raised:
                    stats[3] += 1
                    if parent[2] != layer:
                        stats[4] += 1
                if keep and tracer.recording:
                    tracer.spans.append((frame[0], name, start, end, parent[0], tracer.op))
                    if len(tracer.spans) > MAX_SPANS:
                        tracer.recording = False
                        tracer.overflow = True

        return traced

    def run_op(self, op: int, fn, *args):
        """Call ``fn`` as the root span of operation ``op``."""
        stats = self.stats.setdefault(ROOT, [0, 0, 0, 0, 0])
        self.op = op
        self._ids += 1
        frame = [self._ids, 0, "bench"]
        self.stack = [[0, 0, "bench"], frame]
        self.active = True
        mark = len(self.spans)
        raised = True
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
            raised = False
            return result
        finally:
            end = time.perf_counter_ns()
            self.active = False
            dur = end - start
            stats[0] += 1
            stats[1] += dur
            stats[2] += dur - frame[1]
            stats[3] += raised
            if self.overflow:
                del self.spans[mark:]
                self.overflow = False
            elif self.recording:
                self.spans.append((frame[0], ROOT, start, end, 0, op))

    def snapshot(self) -> dict[str, list[int]]:
        return {name: list(v) for name, v in self.stats.items()}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bisiegel" or name.startswith("bisiegel."))]


def _rebind(original, replacement) -> None:
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    for attr, value in list(vars(cls).items()):
        public = not attr.startswith("_") or attr in _OPERATORS
        if not (public or (attr == "__post_init__" and layer != "numkit")):
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(value, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, layer, value.__func__)))
        elif isinstance(value, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, layer, value.__func__)))
        elif callable(value):
            setattr(cls, attr, tracer.wrap(name, layer, value))


def install(tracer: Tracer) -> None:
    """Wrap the public API of every layer of the imported ``bisiegel``."""
    import bisiegel.cli  # noqa: F401  (the cli layer is not imported by the package)

    for layer in LAYERS:
        module = sys.modules[f"bisiegel.{layer}"]
        for name in module.__all__:
            value = getattr(module, name)
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, type):
                _wrap_class(tracer, layer, value)
            elif callable(value):
                _rebind(value, tracer.wrap(f"{layer}.{name}", layer, value))
    suite = sys.modules["bisiegel.verify"].SUITE
    for check, (fn, tol, divisor) in list(suite.items()):
        suite[check] = (tracer.wrap(f"verify.{check}", "verify", fn), tol, divisor)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
