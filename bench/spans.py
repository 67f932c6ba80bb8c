"""Spans recorded around the public entry points of each blfsig layer.

The wrappers are installed from outside the program: each entry of
``LAYERS`` names a span and the ``module.attribute`` bindings that callers
look up at call time.  A function imported by name into another module has
one binding per importer, and all of them are wrapped.  A rename in
``src/`` is followed by editing only this table.

Spans live in memory as parallel arrays (name, start, end, parent, item,
attr) until the pass ends.  ``attr`` carries one integer per span: for
``meyer.tau`` the genus plus one when the call missed the cache (0 on a
hit), for ``ratlin.kernel`` the kernel dimension.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

LAYERS = (
    ("fibration.validate", ("fibration.validate",)),
    ("fibration.localized", ("fibration.signature_breakdown",)),
    ("fibration.meyer_path", ("fibration.signature_meyer_path",)),
    ("fibration.hurwitz_word", ("fibration.hurwitz_word",)),
    ("meyer.phi", ("meyer.phi",)),
    ("meyer.tau", ("meyer._tau_cached",)),
    ("ratlin.kernel", ("ratlin.kernel_basis_int",)),
    ("ratlin.signature", ("ratlin._signature_int",)),
    ("surface.word_to_matrix", ("surface.word_to_matrix",)),
    ("words.concat", ("words.Word.__mul__",)),
    ("words.parse", ("words.parse_word", "fibration.parse_word", "cli.parse_word")),
    ("locsig.h", ("locsig.h_word",)),
    ("locsig.s", ("locsig.s_word",)),
    ("locsig.validate_word", ("locsig.validate_word",)),
    ("locsig.push_forward", ("locsig.push_forward",)),
)
ITEM = "item"


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self.attr = array("q")
        self._stack: list[int] = []
        self.current_item = -1
        self.wrapped: list[str] = []

    def intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.attr.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------

    def _plain(self, nid: int, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _tau(self, nid: int, fn):
        info = fn.cache_info  # an lru_cache: a miss shows in cache_info()

        def wrapper(At, Bt):
            before = info().misses
            idx = self.open(nid)
            try:
                return fn(At, Bt)
            finally:
                self.close(idx)
                if info().misses != before:
                    self.attr[idx] = len(At) // 2 + 1
        return wrapper

    def _kernel(self, nid: int, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.attr[idx] = len(result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every binding named in LAYERS; a missing one raises."""
        makers = {"meyer.tau": self._tau, "ratlin.kernel": self._kernel}
        for span, targets in LAYERS:
            nid = self.intern(span)
            make = makers.get(span, self._plain)
            wrappers = {}
            for target in targets:
                path, attr = target.rsplit(".", 1)
                owner = importlib.import_module(f"blfsig.{path.split('.')[0]}")
                for part in path.split(".")[1:]:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = make(nid, fn)
                setattr(owner, attr, wrappers[id(fn)])
                self.wrapped.append(target)

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self nanoseconds; tau misses with
        their inclusive time by genus; the largest kernel dimension."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        layers = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        tau = self.names.index("meyer.tau") if "meyer.tau" in self.names else -1
        kernel = self.names.index("ratlin.kernel") if "ratlin.kernel" in self.names else -1
        misses: dict[int, list[int]] = {}
        max_dim = 0
        for i in range(n):
            entry = layers[self.names[self.name[i]]]
            entry["calls"] += 1
            entry["total_ns"] += dur[i]
            entry["self_ns"] += dur[i] - child[i]
            nid = self.name[i]
            if nid == tau and self.attr[i]:
                m = misses.setdefault(self.attr[i] - 1, [0, 0])
                m[0] += 1
                m[1] += dur[i]
            elif nid == kernel:
                max_dim = max(max_dim, self.attr[i])
        return {"layers": layers,
                "tau_misses": {str(g): m for g, m in sorted(misses.items())},
                "kernel_max_dim": max_dim,
                "spans": n}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_ns", "end_ns", "parent", "item", "attr"],
                       "name": self.name.tolist(), "start_ns": self.start.tolist(),
                       "end_ns": self.end.tolist(), "parent": self.parent.tolist(),
                       "item": self.item.tolist(), "attr": self.attr.tolist()}, fh)
