"""In-memory span recorder that wraps entry points of the traced program.

A ``Tracer`` replaces functions and methods with wrappers that record one
span per call: the layer name, start and end (``perf_counter`` seconds),
the index of the enclosing span, and a run id shared by every span under
the same top-level span. Spans live in flat arrays until ``save`` writes
them out, so tracing a pass of a few hundred thousand calls stays small.

The program under trace is single-threaded (the benchmark pins
``--threads 1``), so a span's children never overlap and its self time is
its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Layer:
    """One traced entry point.

    ``target`` is ``module:attr`` or ``module:Class.method``; a module
    function is replaced in every module of the package that imported it
    by name, and in any dict of the module that holds it as a value.
    ``observe(counts, args, kwargs, result)`` may add computed counts.
    ``inclusive`` marks containers (commands, suites) whose metric is the
    whole duration rather than the self time.
    """

    name: str
    target: str
    observe: Callable | None = None
    inclusive: bool = False


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.counts: dict[str, float] = {}
        self.observe_s = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped so every call records a span named ``name``."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            idx = len(self.start)
            parent = stack[-1] if stack else -1
            self.name_id.append(nid)
            self.parent.append(parent)
            self.run.append(self.run[parent] if parent >= 0 else idx)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observe is not None:
                observe(self.counts, args, kwargs, result)
                self.observe_s += time.perf_counter() - t1
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self, layers) -> "Tracer":
        for layer in layers:
            mod_name, attr = layer.target.split(":")
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(layer.name, original, layer.observe))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(layer.name, original, layer.observe)
            for mod in list(sys.modules.values()):
                if mod is None or not (mod.__name__ == self.package
                                       or mod.__name__.startswith(self.package + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                self._patch(value, dkey, wrapped)
        return self

    def _patch(self, container, key, new):
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = new
        else:
            self._patches.append((container, key, vars(container)[key]))
            setattr(container, key, new)

    def uninstall(self):
        """Put every original back, newest patch first."""
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading -----------------------------------------------------------

    def arrays(self):
        return (np.array(self.name_id), np.array(self.start),
                np.array(self.end), np.array(self.parent))

    def summary(self, inclusive=frozenset()) -> dict[str, tuple[float, int]]:
        """``{layer: (seconds, calls)}``; self time unless listed inclusive."""
        name_id, start, end, parent = self.arrays()
        dur = end - start
        own = self_times(start, end, parent)
        out = {}
        for nid, name in enumerate(self.names):
            hit = name_id == nid
            secs = dur[hit].sum() if name in inclusive else own[hit].sum()
            out[name] = (float(secs), int(hit.sum()))
        return out

    def save(self, path: str):
        name_id, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start=start, end=end, parent=parent,
                            run=np.array(self.run))


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Median extra seconds one traced call costs over a plain call."""

    def noop():
        return None

    tracer = Tracer("")
    traced = tracer.wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
        del tracer.name_id[:], tracer.start[:], tracer.end[:]
        del tracer.parent[:], tracer.run[:]
    return float(np.median(costs))
