"""Outside-in span tracer for the minflag benchmark.

The tracer wraps public functions of the package from the benchmark's
own code; nothing under ``src/`` is changed.  Each call becomes one span
(function, parent span, start, end), kept in memory in flat arrays and
written out once the traced pass is over.  Self time is derived from the
spans afterwards: a span's duration minus the durations of its direct
children.

A module that did ``from .weylorbit import length`` holds its own
binding of the function, so the wrapper replaces every binding of the
original object in every loaded ``minflag`` module.  Without that, the
oracle's calls to ``pair``, ``length`` and ``apply_word`` would go
uncounted.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._observers: dict[str, Callable] = {}

    def observe(self, name: str, callback: Callable) -> None:
        """Call ``callback(args, result)`` after each return of ``name``.

        Register before ``install``, which binds observers as it wraps.
        """
        self._observers[name] = callback

    def wrap(self, name: str, func: Callable) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        observer = self._observers.get(name)

        def traced(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observer is not None:
                observer(args, result)
            return result

        functools.update_wrapper(traced, func)
        # lru_cache objects expose their cache controls as methods, which
        # update_wrapper does not copy; keep them reachable on the wrapper.
        for attr in ("cache_clear", "cache_info"):
            if hasattr(func, attr):
                setattr(traced, attr, getattr(func, attr))
        return traced

    def install(self, package: str, targets: dict[str, list[str]]) -> None:
        """Wrap ``package.<module>.<function>`` for every listed target.

        Every loaded module of the package that binds the original
        function object under any name gets the wrapper instead.
        """
        modules = [
            mod for mod_name, mod in sorted(sys.modules.items())
            if mod is not None and (mod_name == package or mod_name.startswith(package + "."))
        ]
        for module_name, functions in targets.items():
            home = sys.modules[f"{package}.{module_name}"]
            for func_name in functions:
                original = getattr(home, func_name)
                wrapper = self.wrap(f"{module_name}.{func_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def summary(self) -> dict:
        """Per-function calls and self time, and the time covered by root spans."""
        n = len(self.fn)
        child_time = [0.0] * n
        covered = 0.0
        for idx in range(n):
            dur = self.end[idx] - self.start[idx]
            p = self.parent[idx]
            if p < 0:
                covered += dur
            else:
                child_time[p] += dur
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for idx in range(n):
            name = self.names[self.fn[idx]]
            calls[name] += 1
            self_s[name] += self.end[idx] - self.start[idx] - child_time[idx]
        return {"calls": dict(calls), "self_s": dict(self_s), "covered_s": covered}

    def child_calls(self, parent: str, child: str) -> int:
        """Calls of ``child`` made directly from inside a call of ``parent``."""
        fid = {name: i for i, name in enumerate(self.names)}
        pid, cid = fid[parent], fid[child]
        return sum(
            1 for idx in range(len(self.fn))
            if self.fn[idx] == cid and self.parent[idx] >= 0 and self.fn[self.parent[idx]] == pid
        )

    def write(self, path: str) -> None:
        """Write every span as [function, parent span, start, end], gzipped JSON."""
        spans = [
            [self.names[self.fn[i]], self.parent[i], self.start[i], self.end[i]]
            for i in range(len(self.fn))
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"clock": "perf_counter", "spans": spans}, fh)
