"""Span tracing around the public functions of each stablespec module.

The tracer wraps functions from outside the package: it replaces the name in
the defining module and in every module that imported it with
``from .x import f``, so both qualified and direct calls are seen. Each call
becomes a span (function, start, end, parent span). Spans are kept in memory
and written out at the end of the run; per-layer call counts, time and self
time are accumulated as calls return.
"""

from __future__ import annotations

import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np

MAX_SPANS = 1_000_000   # spans kept for writing; later calls are only counted


class Tracer:
    """Records a span per traced call while installed.

    ``layers`` maps a stablespec module name to the public functions traced
    in it; ``"Class.method"`` names a method. ``observers`` maps a span name
    (``"module.function"``) to a callable that receives the call's
    arguments, result and duration after each call.
    """

    def __init__(self, layers: dict[str, tuple[str, ...]],
                 observers: dict | None = None):
        self.layers = layers
        self.observers = observers or {}
        self.names: list[str] = []       # span name table, "layer.function"
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.layer_total: dict[str, float] = defaultdict(float)  # outermost
        self.layer_self: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)   # open calls per layer
        self._stack: list[list] = []     # [span index, child seconds]
        self._wrappers: dict[tuple[str, str], object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self):
        mods = [m for k, m in sys.modules.items()
                if k.startswith("stablespec.")]
        for layer, funcs in self.layers.items():
            home = sys.modules[f"stablespec.{layer}"]
            for func in funcs:
                owner, attr = home, func
                if "." in func:
                    cls_name, attr = func.split(".")
                    owner = getattr(home, cls_name)
                original = getattr(owner, attr)
                wrapper = self._wrappers.get((layer, func))
                if wrapper is None:
                    wrapper = self._wrap(f"{layer}.{func}", layer, original)
                    self._wrappers[layer, func] = wrapper
                self._set(owner, attr, wrapper)
                if owner is home:
                    for mod in mods:
                        self._rebind(mod, original, wrapper)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, mod, original, wrapper):
        """Point every reference ``mod`` holds to ``original`` at
        ``wrapper``: imported names, values of module-level dicts, and
        default arguments of its functions."""
        for key, value in list(vars(mod).items()):
            if value is original:
                self._set(mod, key, wrapper)
            elif isinstance(value, dict) and original in value.values():
                for k, v in value.items():
                    if v is original:
                        self._patched.append((value, k, v))
                        value[k] = wrapper
            elif isinstance(value, types.FunctionType) \
                    and value.__defaults__ \
                    and any(d is original for d in value.__defaults__):
                self._set(value, "__defaults__", tuple(
                    wrapper if d is original else d
                    for d in value.__defaults__))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            depth[layer] += 1
            idx = -1
            if len(starts) < MAX_SPANS:
                idx = len(starts)
                self.span_name.append(name_id)
                self.span_parent.append(parent)
                starts.append(0.0)
                ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span = end - start
                stack.pop()
                depth[layer] -= 1
                if idx >= 0:
                    starts[idx] = start
                    ends[idx] = end
                else:
                    self.dropped += 1
                if stack:
                    stack[-1][1] += span
                self.layer_calls[layer] += 1
                self.layer_self[layer] += span - frame[1]
                if depth[layer] == 0:
                    self.layer_total[layer] += span
            observe = self.observers.get(name)
            if observe is not None:
                observe(args, kwargs, result, span)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """Save the kept spans as arrays in one ``.npz`` file."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start),
                 end=np.frombuffer(self.span_end))
