"""Outside-in layer tracer for the ``repro`` simulator.

The tracer wraps the public entry points of every layer of the
``repro`` package from the benchmark's side: no simulator file
changes.  A layer is a ``repro`` subpackage; ``repro.net.qdisc`` is its
own layer, and the always-on metric primitives (``repro.obs.metrics``,
used by the mesh telemetry, and ``repro.obs.windows``, used by the
admission gate) are split from the attachable ``obs`` planes as
``obsstore``.

What gets a span:

* a call into a public method (or ``__init__``/``__call__``) of a public
  class, or a public module-level function, of a layer module, when the
  caller is in another layer (a call within the same layer passes
  through and is counted, so spans mark layer boundaries);
* every callback handed to ``Simulator.call_later``/``call_at`` and
  every resume of a generator handed to ``Simulator.process``, charged
  to the layer of the module that defines the callback or generator.

A span records name, start, end, parent span and request id (the
end-to-end ``x-request-id`` of the first HTTP message among the call's
arguments, else the parent's).  Spans nest strictly (one thread), so a
layer's self time is computed online: span duration minus the time its
child spans cover.  Kernel code between dispatched callbacks is the
``sim`` layer's self time.

The wrappers cost time, and that time lands in the raw self time of
whichever span is open.  ``calibrate`` measures what a span costs
(inside it and in its caller), what a pass-through call costs and what
wrapping a ``call_later`` callback costs; ``layer_totals`` removes
those costs from the layer that hosts them and rescales the rest, shares
kept, to the untraced run's host time (see there).
"""

from __future__ import annotations

import contextlib
import enum
import functools
import statistics
import sys
import time
import types
from array import array

#: Module prefix -> layer, longest prefix wins.
LAYER_PREFIXES = {
    "repro.sim": "sim",
    "repro.net": "net",
    "repro.net.qdisc": "qdisc",
    "repro.transport": "transport",
    "repro.dataplane": "dataplane",
    "repro.mesh": "mesh",
    "repro.overload": "overload",
    "repro.apps": "apps",
    "repro.workload": "workload",
    "repro.obs": "obs",
    "repro.obs.metrics": "obsstore",
    "repro.obs.windows": "obsstore",
    "repro.cluster": "cluster",
}

#: Layers in report order.  ``other`` holds callbacks and generators
#: from ``repro`` subpackages that are not layers (core, http, chaos,
#: util, experiments); ``bench`` is the root span's residual: the
#: benchmark's glue plus non-layer code it calls directly.
LAYERS = (
    "sim", "net", "qdisc", "transport", "dataplane", "mesh", "overload",
    "apps", "workload", "obs", "obsstore", "cluster",
)
ALL_LAYERS = LAYERS + ("other", "bench")

#: Spans kept in memory for the span dump; accounting continues past it.
MAX_STORED_SPANS = 3_000_000

_ORIGINAL = "_layertrace_original"


def layer_of_module(module: str | None) -> str | None:
    """The layer owning ``module``: ``other`` for non-layer ``repro``
    modules, None for code outside ``repro``."""
    if not module or not (module == "repro" or module.startswith("repro.")):
        return None
    best = ""
    for prefix in LAYER_PREFIXES:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return LAYER_PREFIXES[best] if best else "other"


def _defining_module(fn) -> str | None:
    if isinstance(fn, functools.partial):
        fn = fn.func
    if isinstance(fn, types.MethodType):
        fn = fn.__func__
    if isinstance(fn, types.FunctionType):
        return fn.__module__
    return type(fn).__module__


class LayerTracer:
    """Wraps the ``repro`` layers; records spans and per-layer totals.

    ``calibrate()`` then ``install()`` after importing the simulator and
    before building a scenario, ``root()`` around the measured work, and
    ``uninstall()`` afterwards: every replaced class attribute and module
    global is restored.  ``track`` lists classes whose instances are
    kept, so counters that die with them can be read after the run.
    """

    def __init__(self, track=()):
        self.layer_index = {name: i for i, name in enumerate(ALL_LAYERS)}
        size = len(ALL_LAYERS)
        self.raw_self_s = [0.0] * size
        self.spans = [0] * size
        self.child_spans = [0] * size
        self.passthrough = [0] * size
        #: ``call_later`` calls per calling layer (each wraps a callback).
        self.hooked = [0] * size
        self.name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.span_names = array("q")
        self.parents = array("q")
        self.requests = array("q")
        self.spans_total = 0
        self.request_ids: dict[str, int] = {}
        self.track = tuple(track)
        self.instances: dict[type, list] = {cls: [] for cls in self.track}
        #: Relative wrapper costs from ``calibrate`` (seconds per event).
        self.weights = {"inside": 0.0, "outside": 0.0, "passthrough": 0.0, "hook": 0.0}
        self._stack: list = []
        self._patches: list = []
        self._callback_keys: dict = {}
        self._generator_keys: dict = {}
        self._message_types: tuple = ()

    # -- span bookkeeping ---------------------------------------------
    def _name_id(self, name: str) -> int:
        ident = self.name_ids.get(name)
        if ident is None:
            ident = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _request_of(self, args, inherited: int) -> int:
        message_types = self._message_types
        for arg in args:
            if type(arg) in message_types:
                value = arg.headers.get("x-request-id")
                if value is None:
                    return inherited
                ident = self.request_ids.get(value)
                if ident is None:
                    ident = self.request_ids[value] = len(self.request_ids)
                return ident
        return inherited

    def _enter(self, name_id: int, layer: int, args) -> list:
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent_index, request = parent[0], parent[4]
        else:
            parent_index, request = -1, -1
        if args:
            request = self._request_of(args, request)
        self.spans_total += 1
        index = len(self.starts)
        if index < MAX_STORED_SPANS:
            self.span_names.append(name_id)
            self.parents.append(parent_index)
            self.requests.append(request)
            self.ends.append(0.0)
            self.starts.append(0.0)
        else:
            index = -1
        frame = [index, 0.0, 0.0, layer, request]
        stack.append(frame)
        frame[1] = start = time.perf_counter()
        if index >= 0:
            self.starts[index] = start
        return frame

    def _leave(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        layer = frame[3]
        self.raw_self_s[layer] += duration - frame[2]
        self.spans[layer] += 1
        if frame[0] >= 0:
            self.ends[frame[0]] = end
        if stack:
            parent = stack[-1]
            parent[2] += duration
            self.child_spans[parent[3]] += 1

    @contextlib.contextmanager
    def root(self, name: str = "bench"):
        """The root span (layer ``bench``) around the measured work."""
        frame = self._enter(self._name_id(name), self.layer_index["bench"], ())
        try:
            yield self
        finally:
            self._leave(frame)

    # -- wrappers -------------------------------------------------------
    def _wrap_function(self, fn, name: str, layer: str, track=None):
        name_id = self._name_id(name)
        layer_id = self.layer_index[layer]
        enter, leave = self._enter, self._leave
        stack, passthrough = self._stack, self.passthrough
        instances = self.instances[track] if track is not None else None

        def traced(*args, **kwargs):
            if instances is not None and args and isinstance(args[0], track):
                instances.append(args[0])
            if stack and stack[-1][3] == layer_id:
                passthrough[layer_id] += 1
                return fn(*args, **kwargs)
            frame = enter(name_id, layer_id, args)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        functools.update_wrapper(traced, fn)
        setattr(traced, _ORIGINAL, fn)
        return traced

    def _traced_callback(self, callback):
        """``callback`` charged to its defining module's layer, or None
        when it already is a traced entry point."""
        target = callback.__func__ if isinstance(callback, types.MethodType) else callback
        if hasattr(target, _ORIGINAL):
            return None
        key = self._callback_keys.get(target)
        if key is None:
            layer = layer_of_module(_defining_module(callback)) or "bench"
            qualname = getattr(target, "__qualname__", type(target).__qualname__)
            key = self._callback_keys[target] = (
                self._name_id(f"callback:{qualname}"),
                self.layer_index[layer],
            )
        name_id, layer_id = key
        enter, leave = self._enter, self._leave

        def traced_callback(*args):
            frame = enter(name_id, layer_id, args)
            try:
                return callback(*args)
            finally:
                leave(frame)

        return traced_callback

    def _traced_generator(self, generator):
        """A generator driving ``generator``, one span per resume,
        charged to the layer of the module defining it."""
        code = generator.gi_code
        key = self._generator_keys.get(code)
        if key is None:
            module = generator.gi_frame.f_globals.get("__name__") if generator.gi_frame else None
            key = self._generator_keys[code] = (
                self._name_id(f"process:{generator.__qualname__}"),
                self.layer_index[layer_of_module(module) or "bench"],
            )
        name_id, layer_id = key
        enter, leave = self._enter, self._leave

        def drive():
            value, error = None, None
            while True:
                frame = enter(name_id, layer_id, ())
                try:
                    if error is not None:
                        target = generator.throw(error)
                    else:
                        target = generator.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    leave(frame)
                try:
                    value, error = (yield target), None
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # forwarded into the process
                    value, error = None, exc

        return drive()

    # -- install / uninstall -------------------------------------------
    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> "LayerTracer":
        """Wrap every layer of the already-imported ``repro`` package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.http.message import HttpRequest, HttpResponse
        from repro.sim.core import Simulator

        self._message_types = (HttpRequest, HttpResponse)
        loaded = sorted(
            (name, module) for name, module in list(sys.modules.items())
            if module is not None and layer_of_module(name) is not None
        )
        wrapped_functions: dict[int, object] = {}
        for module_name, module in loaded:
            layer = layer_of_module(module_name)
            if layer == "other":
                continue
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module_name:
                    continue
                if isinstance(value, type):
                    self._wrap_class(value, layer)
                elif isinstance(value, types.FunctionType):
                    wrapped_functions[id(value)] = self._wrap_function(
                        value, f"{module_name.rsplit('.', 1)[-1]}.{attr}", layer
                    )
        # Rebind wrapped functions wherever ``from x import f`` copied them.
        for _name, module in loaded:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped_functions:
                    self._patch(module, attr, wrapped_functions[id(value)])
        self._install_kernel_hooks(Simulator)
        return self

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, (BaseException, enum.Enum)):
            return
        track = next((t for t in self.track if t is cls), None)
        for attr, raw in sorted(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{cls.__qualname__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap_function(raw.__func__, name, layer))
            elif isinstance(raw, types.FunctionType):
                wrapped = self._wrap_function(
                    raw, name, layer, track=track if attr == "__init__" else None
                )
            else:
                continue
            self._patch(cls, attr, wrapped)

    def _install_kernel_hooks(self, simulator_cls) -> None:
        """``call_later`` and ``process`` also wrap what they are given."""
        call_later = vars(simulator_cls)["call_later"]
        process = vars(simulator_cls)["process"]
        traced_callback = self._traced_callback
        traced_generator = self._traced_generator
        stack, hooked = self._stack, self.hooked

        def hooked_call_later(sim, delay, callback, *args):
            if stack:
                hooked[stack[-1][3]] += 1
            wrapped = traced_callback(callback)
            return call_later(sim, delay, callback if wrapped is None else wrapped, *args)

        def hooked_process(sim, generator, name=None):
            return process(sim, traced_generator(generator), name=name or generator.__name__)

        for attr, fn, inner in (
            ("call_later", hooked_call_later, call_later),
            ("process", hooked_process, process),
        ):
            functools.update_wrapper(fn, inner)
            self._patch(simulator_cls, attr, fn)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- instrumentation cost ---------------------------------------------
    def calibrate(self, rounds: int = 7, calls: int = 20_000) -> "LayerTracer":
        """Time a traced no-op against the plain no-op: once opening a
        span under a root of another layer (split into the cost inside
        the span and the cost left in the caller), once passing through
        within its own layer; and time wrapping a ``call_later``
        callback.  Medians over ``rounds``; counters are reset
        afterwards."""
        if self.spans_total:
            raise RuntimeError("calibrate before tracing anything")

        class Probe:
            def noop(self, first, second):
                return None

        probe = Probe()
        noop = Probe.noop
        traced = self._wrap_function(noop, "calibration", "other")
        other = self.layer_index["other"]
        root_name = self._name_id("calibration.root")
        clock = time.perf_counter
        loop = range(calls)
        inside, outside, passthrough, hook = [], [], [], []
        for _ in range(rounds):
            start = clock()
            for _ in loop:
                noop(probe, 1, 2)
            plain = (clock() - start) / calls
            before = self.raw_self_s[other]
            frame = self._enter(root_name, self.layer_index["bench"], ())
            start = clock()
            for _ in loop:
                traced(probe, 1, 2)
            spanned = (clock() - start) / calls
            self._leave(frame)
            span = (self.raw_self_s[other] - before) / calls
            inside.append(span - plain)
            outside.append(spanned - span)
            frame = self._enter(root_name, other, ())
            start = clock()
            for _ in loop:
                traced(probe, 1, 2)
            passthrough.append((clock() - start) / calls - plain)
            self._leave(frame)
            callback = probe.noop
            start = clock()
            for _ in loop:
                self._traced_callback(callback)
            hook.append((clock() - start) / calls)
        self.weights = {
            "inside": statistics.median(inside),
            "outside": statistics.median(outside),
            "passthrough": max(statistics.median(passthrough), 0.0),
            "hook": statistics.median(hook),
        }
        self._reset()
        return self

    def _reset(self) -> None:
        for counts in (self.spans, self.child_spans, self.passthrough, self.hooked):
            counts[:] = [0] * len(counts)
        self.raw_self_s[:] = [0.0] * len(self.raw_self_s)
        for column in (self.starts, self.ends, self.span_names, self.parents, self.requests):
            del column[:]
        self.spans_total = 0
        self.request_ids.clear()

    # -- results --------------------------------------------------------
    def layer_totals(self, untraced_s: float | None = None) -> dict[str, dict]:
        """Per layer: spans (``calls``), raw self seconds, and self
        seconds net of instrumentation, plus ``instrumentation`` itself.

        Each layer's raw self time first loses the calibrated cost of
        the wrapper events it hosts.  The rest of the slowdown is a
        uniform drag on real work (cache pollution), so with
        ``untraced_s`` the corrected times are rescaled, shares kept, to
        add up to the untraced host time.
        """
        weights = self.weights
        corrected = []
        for i in range(len(ALL_LAYERS)):
            estimate = (
                self.spans[i] * weights["inside"]
                + self.child_spans[i] * weights["outside"]
                + self.passthrough[i] * weights["passthrough"]
                + self.hooked[i] * weights["hook"]
            )
            corrected.append(max(self.raw_self_s[i] - estimate, 0.0))
        traced_s = sum(self.raw_self_s)
        if untraced_s is not None and sum(corrected) > 0:
            scale = untraced_s / sum(corrected)
            corrected = [value * scale for value in corrected]
        totals = {
            layer: {
                "calls": self.spans[i],
                "raw_self_s": self.raw_self_s[i],
                "self_s": corrected[i],
            }
            for i, layer in enumerate(ALL_LAYERS)
        }
        totals["instrumentation"] = {
            "calls": self.spans_total,
            "raw_self_s": 0.0,
            "self_s": traced_s - sum(corrected),
        }
        return totals

    def dump(self, path) -> int:
        """Write the stored spans as ``.npz`` columns (start, end, name,
        parent, request) plus the name table; returns the span count."""
        import numpy as np

        np.savez(
            path,
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            name=np.frombuffer(self.span_names, dtype=np.int64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            request=np.frombuffer(self.requests, dtype=np.int64),
            names=np.array(self.names, dtype=str),
            spans_total=np.array(self.spans_total),
        )
        return len(self.starts)
