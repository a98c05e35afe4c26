"""In-memory span recorder installed around flightwatch's public functions.

A span is (name, start, end, parent, work): ``work`` is an integer the
wrapper reads off the call (records parsed, windows produced, batch size,
DTW cells) so rates are measured where the work happens.  Spans live in
flat ``array`` columns so a long stream run stays small in memory, and are
written out once, at the end of a run.

Wrappers are bound where callers look the functions up: every
``flightwatch.*`` module global that holds the original function object is
replaced, methods are replaced on their class, and single objects (the
autoencoder's layers) get a wrapper of their own.  ``uninstall`` puts every
original back, including on objects built while tracing was on.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Span store plus the install/uninstall of timing wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("q")
        self.failed: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._last_exc: BaseException | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._instances: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, args, kwargs, work=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.work.append(0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.end[idx] = perf_counter()
            self.start[idx] = t0
            self._stack.pop()
            # count an exception once, at the innermost span it escaped
            if exc is not self._last_exc:
                self._last_exc = exc
                layer = name.split(".", 1)[0]
                self.failed[layer] = self.failed.get(layer, 0) + 1
            raise
        self.end[idx] = perf_counter()
        self.start[idx] = t0
        self._stack.pop()
        if work is not None:
            self.work[idx] = work(args, kwargs, result)
        return result

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn, work=None, only_if=None):
        """Wrapper recording a span per call, or per call whose positional
        arguments satisfy ``only_if``."""
        if only_if is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs, work)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if only_if(args):
                    return self.call(name, fn, args, kwargs, work)
                return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, work=None) -> None:
        """Replace ``module.attr`` in every flightwatch module that binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, work)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "flightwatch"
                                   or mod_name.startswith("flightwatch.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, work=None) -> None:
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], work))

    def patch_raw(self, owner, attr: str, value) -> None:
        """Install a hand-written replacement (restored by ``uninstall``)."""
        self._set(owner, attr, value)

    def patch_instance(self, obj, attr: str, name: str, work=None, only_if=None) -> None:
        """Shadow a method on one object; remembered, so a later ``install``
        wraps it again and ``uninstall`` strips it."""
        self._instances.append((obj, attr, name, work, only_if))
        self._wrap_instance(obj, attr, name, work, only_if)

    def _wrap_instance(self, obj, attr, name, work, only_if) -> None:
        bound = getattr(type(obj), attr).__get__(obj)
        setattr(obj, attr, self.wrap(name, bound, work, only_if))

    def install(self, installer) -> None:
        """Run ``installer(self)`` to place wrappers, and re-wrap known objects."""
        installer(self)
        for patch in self._instances:
            self._wrap_instance(*patch)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for obj, attr, *_ in self._instances:
            obj.__dict__.pop(attr, None)

    # -- analysis ----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        n = dur.size
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "dur": dur,
            "self": dur - child[:n],
        }

    def save(self, path) -> None:
        cols = self.columns()
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name_id=cols["name_id"], start=cols["start"],
                            end=cols["end"], parent=cols["parent"], work=cols["work"])


def roots(parent: np.ndarray) -> np.ndarray:
    """Index of the outermost ancestor of each span (a span's own if top level)."""
    idx = np.arange(parent.size)
    root = np.where(parent >= 0, parent, idx)
    while True:
        up = np.where(parent[root] >= 0, parent[root], root)
        if np.array_equal(up, root):
            return root
        root = up
