"""Layer tracer: wraps the public functions of every ``alttab`` module from outside.

A layer is one module of the package.  Every public function, every public
method (plus the arithmetic operators) of every public class, and every class
constructor is replaced by a counting wrapper, in every ``alttab`` namespace
that binds it, so calls made inside the package go through the wrappers too.

* ``<fn>.calls`` / ``.raised`` count every call of a function and the calls
  that ended in an exception; ``.busy_s`` is the inclusive time of the
  outermost active call (recursion is not counted twice); generator functions
  also count ``.yielded`` and are timed per resume; classes count ``.new``.
* A call *crosses a layer boundary* when the innermost crossing call still
  running belongs to another module (the benchmark itself is layer
  ``bench``).  ``<layer>.calls`` / ``.raised`` count crossing calls,
  ``.busy_s`` is their inclusive time (outermost only) and ``.self_s`` is
  busy time minus the time of nested crossing calls into other layers.
* Each crossing call is a span with its op id and parent span.  Only the first
  ``SPAN_CAP`` spans of each function per op are stored; the rest, such as the
  hundreds of thousands of ``free_stats`` calls of a count, are aggregated in
  the counters only.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

LAYERS = ("core", "decomposition", "trees", "permutations", "series", "enumeration", "checks", "cli")
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__neg__")
SPAN_CAP = 50


class _Stat:
    __slots__ = ("calls", "raised", "busy", "depth", "yielded", "spans_in_op", "is_gen")

    def __init__(self, is_gen: bool = False):
        self.calls = self.raised = self.depth = self.yielded = self.spans_in_op = 0
        self.busy = 0.0
        self.is_gen = is_gen


class _Layer:
    __slots__ = ("calls", "raised", "busy", "self_time", "depth")

    def __init__(self):
        self.calls = self.raised = self.depth = 0
        self.busy = self.self_time = 0.0


class _Frame:
    __slots__ = ("layer", "span", "parent", "child")

    def __init__(self, layer, span, parent):
        self.layer, self.span, self.parent = layer, span, parent
        self.child = 0.0  # time of nested crossing calls into other layers


class Tracer:
    """Counters and spans for one process; ``install`` patches the package."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.t0 = perf_counter()
        self.fns: dict[str, _Stat] = {}
        self.news: dict[str, list[int]] = {}
        self.layers = {name: _Layer() for name in LAYERS}
        self.stack = [_Frame("bench", None, None)]
        self.next_span = 0
        self.spans: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("alttab")
        modules = {name: importlib.import_module(f"alttab.{name}") for name in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, layer)
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, tuple)):
                    self._patch_class(obj, layer)
        for ns in [vars(package)] + [vars(m) for m in modules.values()]:
            for name, obj in list(ns.items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    ns[name] = wrapped[id(obj)]

    def _patch_class(self, cls: type, layer: str) -> None:
        done: dict[int, object] = {}
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_") or name in OPERATORS
            if name == "__init__":
                setattr(cls, name, self._count_new(attr, f"{layer}.{cls.__name__}"))
            elif public and isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer)))
            elif public and inspect.isfunction(attr):
                if id(attr) not in done:
                    done[id(attr)] = self._wrap(attr, layer)
                setattr(cls, name, done[id(attr)])

    def _count_new(self, init, name: str):
        counter = self.news.setdefault(name, [0])
        tracer = self

        def __init__(obj, *args, **kwargs):
            if tracer.active:
                counter[0] += 1
            return init(obj, *args, **kwargs)

        return __init__

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__qualname__}"
        stat = self.fns.setdefault(name, _Stat(inspect.isgeneratorfunction(fn)))
        tracer = self
        if stat.is_gen:

            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                stat.calls += 1
                if tracer.stack[-1].layer != layer:
                    tracer.layers[layer].calls += 1
                return tracer._drive(fn(*args, **kwargs), stat, layer, name)

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stat.calls += 1
            frame = tracer._enter(layer, count=True)
            stat.depth += 1
            t = perf_counter()
            failed = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                stat.raised += 1
                raise
            finally:
                tracer._leave(frame, stat, layer, name, t, failed)

        wrapper.__wrapped__ = fn
        wrapper.__name__, wrapper.__qualname__ = fn.__name__, fn.__qualname__
        return wrapper

    def _drive(self, gen, stat: _Stat, layer: str, name: str):
        """Run a traced generator, timing each resume as one call of its layer."""
        try:
            while True:
                frame = self._enter(layer, count=False)
                stat.depth += 1
                t = perf_counter()
                failed = False
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException:
                    failed = True
                    stat.raised += 1
                    raise
                finally:
                    self._leave(frame, stat, layer, name, t, failed)
                stat.yielded += 1
                yield item
        finally:
            gen.close()

    # -- accounting ---------------------------------------------------------

    def _enter(self, layer: str, count: bool):
        top = self.stack[-1]
        if top.layer == layer:
            return None
        lay = self.layers[layer]
        if count:
            lay.calls += 1
        lay.depth += 1
        frame = _Frame(layer, self.next_span, top.span)
        self.next_span += 1
        self.stack.append(frame)
        return frame

    def _leave(self, frame, stat: _Stat, layer: str, name: str, start: float, failed: bool) -> None:
        end = perf_counter()
        dt = end - start
        stat.depth -= 1
        if stat.depth == 0:
            stat.busy += dt
        if frame is None:
            return
        self.stack.pop()
        lay = self.layers[layer]
        lay.depth -= 1
        if lay.depth == 0:
            lay.busy += dt
        lay.self_time += dt - frame.child
        lay.raised += failed
        self.stack[-1].child += dt
        if stat.spans_in_op < SPAN_CAP:
            stat.spans_in_op += 1
            self.spans.append((self.op, frame.span, frame.parent, name, start - self.t0, end - self.t0))

    # -- ops and results ------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        for stat in self.fns.values():
            stat.spans_in_op = 0
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def counters(self) -> dict[str, float]:
        """Flat ``name -> value`` map of every counter, zeros included."""
        out: dict[str, float] = {}
        for name, lay in self.layers.items():
            out[f"{name}.calls"] = lay.calls
            out[f"{name}.raised"] = lay.raised
            out[f"{name}.busy_s"] = lay.busy
            out[f"{name}.self_s"] = lay.self_time
        for name, stat in self.fns.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.raised"] = stat.raised
            out[f"{name}.busy_s"] = stat.busy
            if stat.is_gen:
                out[f"{name}.yielded"] = stat.yielded
        for name, counter in self.news.items():
            out[f"{name}.new"] = counter[0]
        return out
