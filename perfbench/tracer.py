"""In-memory span recorder that wraps public ``tfqkd`` functions.

Each wrapped call records a span (name, start, end, parent span, command
id).  Wrappers are installed on every module attribute bound to the
original function, so callers that imported it by name see the wrapper
too, and are removed again by :meth:`Tracer.uninstall`.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, span_names, observers=None):
        self.span_names = list(span_names)
        self.observers = observers or {}
        self.names = array("H")
        self.parents = array("l")
        self.cmds = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self._cmd = [-1]
        self._patches = []      # (module, attribute, original, wrapper)
        self.absent: list[str] = []
        for nid, name in enumerate(self.span_names):
            self._bind(nid, name)

    def _bind(self, nid: int, name: str) -> None:
        mod_name, func_name = name.rsplit(".", 1)
        try:
            module = importlib.import_module(f"tfqkd.{mod_name}")
        except ImportError:
            self.absent.append(name)
            return
        original = getattr(module, func_name, None)
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._wrap(nid, original, self.observers.get(name))
        for mod in list(sys.modules.values()):
            mname = getattr(mod, "__name__", "")
            if mname != "tfqkd" and not mname.startswith("tfqkd."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, nid, fn, observe):
        names, parents, cmds = self.names, self.parents, self.cmds
        starts, ends = self.starts, self.ends
        stack, cmd, counts = self._stack, self._cmd, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            cmds.append(cmd[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(counts, result)
                except (AttributeError, TypeError, ValueError):
                    pass
            return result

        return wrapper

    def set_command(self, cmd_id: int) -> None:
        self._cmd[0] = cmd_id

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def summary(self, scales) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time (seconds).

        Span times are multiplied by ``scales[command id]``.
        """
        names = np.array(self.names)
        parents = np.array(self.parents)
        dur = ((np.array(self.ends) - np.array(self.starts))
               * np.asarray(scales)[np.array(self.cmds)])
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        k = len(self.span_names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {name: {"calls": float(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.span_names)}

    def save(self, path, scales) -> None:
        """Write every span (raw times relative to the first span) and the
        per-command time scales."""
        starts = np.array(self.starts)
        t0 = starts[0] if starts.size else 0.0
        np.savez(path, span_names=np.array(self.span_names),
                 name=np.array(self.names),
                 parent=np.array(self.parents, dtype=np.int32),
                 command=np.array(self.cmds, dtype=np.int32),
                 start=starts - t0, end=np.array(self.ends) - t0,
                 command_scale=np.asarray(scales))
