"""Span tracing of the library's public functions, from the benchmark's side.

The tracer scans every loaded ``thermalwigner.*`` module for public
functions (no hand-kept list, so a renamed internal cannot break it) and, while
installed, rebinds each one at every namespace that holds it, so calls such as
``threshold -> evolve_fock_diagonal`` or ``cli -> sample_grid`` are caught as
well as the benchmark's own calls.  A layer is the module that defines a
function.  A call made from inside a span of the same layer opens no span of
its own: its time is that layer's self time.  Spans are kept in memory and
reduced only after the operation that produced them has finished.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# Span record fields (a list per span keeps the wrapper cheap).
_FID, _START, _END, _PARENT, _CALL, _EVAL_CALLS, _EVAL_POINTS = range(7)
# Stack marker for "inside a counted evaluator".
_OPAQUE = -1


@dataclass
class Target:
    """One public function and every (namespace, attribute) that binds it."""

    fid: str
    layer: str
    function: Callable
    bindings: list = field(default_factory=list)


def discover(package: str = "thermalwigner") -> dict[str, Target]:
    """Public functions defined in ``package``'s loaded modules, by ``layer.name``."""
    targets: dict[str, Target] = {}
    prefix = package + "."
    modules = [m for name, m in sorted(sys.modules.items()) if name == package or name.startswith(prefix)]
    for module in modules:
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__ or ""
            if not home.startswith(prefix):
                continue
            layer = home[len(prefix):]
            fid = f"{layer}.{obj.__name__}"
            target = targets.setdefault(fid, Target(fid, layer, obj))
            target.bindings.append((module, attr))
    return targets


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct child spans.

    ``spans`` are records with a start, an end and the index of the parent
    span (-1 for a root).  Children never overlap each other, so the sum of
    all self times equals the summed duration of the root spans.
    """
    own = [s[_END] - s[_START] for s in spans]
    for s in spans:
        if s[_PARENT] >= 0:
            own[s[_PARENT]] -= s[_END] - s[_START]
    return own


class Tracer:
    """Installs span-recording wrappers on the library's public functions.

    ``hooks`` maps a function id to ``hook(tracer, args, kwargs, result) ->
    dict`` of computed quantities (summed per function) and maxima (keys
    ending in ``_max``).  Hooks run after the traced operation ends, so their
    cost is not inside any span.
    """

    def __init__(self, hooks: dict | None = None, package: str = "thermalwigner"):
        self.targets = discover(package)
        self.fids = list(self.targets)
        self.layers = [self.targets[f].layer for f in self.fids]
        self.hooks = hooks or {}
        self.spans: list = []
        self._stack: list = []
        self._wrappers = [self._wrap(i, self.targets[f].function) for i, f in enumerate(self.fids)]
        self._installed = False

    def original(self, fid: str) -> Callable:
        return self.targets[fid].function

    def _wrap(self, index: int, function: Callable) -> Callable:
        layer = self.layers[index]
        layers = self.layers
        spans = self.spans
        stack = self._stack
        keep_call = self.fids[index] in self.hooks
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if stack and (stack[-1] == _OPAQUE or layers[spans[stack[-1]][_FID]] == layer):
                return function(*args, **kwargs)
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, None, 0, 0]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[_START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[_END] = clock()
                stack.pop()
            if keep_call:
                record[_CALL] = (args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for fid, wrapper in zip(self.fids, self._wrappers):
            for module, attr in self.targets[fid].bindings:
                setattr(module, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for target in self.targets.values():
            for module, attr in target.bindings:
                setattr(module, attr, target.function)
        self._installed = False

    def counted(self, evaluator: Callable) -> Callable:
        """Evaluator that charges its calls and points to the innermost open span.

        The evaluator is opaque: library calls made inside it open no spans,
        so its time is self time of the library function that called it.
        """
        spans = self.spans
        stack = self._stack

        def counting(q, p):
            if stack and stack[-1] != _OPAQUE:
                record = spans[stack[-1]]
                record[_EVAL_CALLS] += 1
                record[_EVAL_POINTS] += getattr(q, "size", 1)
            stack.append(_OPAQUE)
            try:
                return evaluator(q, p)
            finally:
                stack.pop()

        return counting

    def take(self) -> dict:
        """Reduce the recorded spans to per-function and per-layer totals, and clear them."""
        own = self_times(self.spans)
        functions: dict[str, dict] = {}
        layers: dict[str, float] = {}
        for record, self_s in zip(self.spans, own):
            fid = self.fids[record[_FID]]
            duration = record[_END] - record[_START]
            entry = functions.setdefault(
                fid, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [],
                      "eval_calls": 0, "eval_points": 0}
            )
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += self_s
            entry["durations"].append(duration)
            entry["eval_calls"] += record[_EVAL_CALLS]
            entry["eval_points"] += record[_EVAL_POINTS]
            layers[self.layers[record[_FID]]] = layers.get(self.layers[record[_FID]], 0.0) + self_s
            hook = self.hooks.get(fid)
            if hook is not None and record[_CALL] is not None:
                args, kwargs, result = record[_CALL]
                for key, value in hook(self, args, kwargs, result).items():
                    if key.endswith("_max"):
                        entry[key] = max(entry.get(key, value), value)
                    else:
                        entry[key] = entry.get(key, 0) + value
        self.spans.clear()
        return {"functions": functions, "layers": layers}
