"""Spans around the public functions of commwb's layer modules.

``Tracer.install`` replaces every public function of the traced modules,
in every ``commwb`` module namespace that holds it, with a wrapper that
records one span: name, start, end, parent span and instance id.  Spans
stay in memory; ``layer_table`` turns them into per-name calls and self
times, and ``write`` stores them when the round is over.  Nothing in the
program changes: the wrappers live in the benchmark.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

import numpy as np

TRACED_MODULES = ("core", "sweeps", "commutators", "_kernel_search",
                  "conditions", "varieties")


def _strategy(args, kwargs) -> str:
    strategy = kwargs.get("strategy", args[4] if len(args) > 4
                          else "group-fast")
    return strategy.replace("-", "_")


# Span names that depend on the call; every other span is "<module>.<name>",
# with the leading underscore of _kernel_search dropped.
_NAMERS = {
    "core.power_closure": lambda args, kwargs, out: f"w{out.shape[1]}",
    "commutators.higgins_ternary":
        lambda args, kwargs, out: _strategy(args, kwargs),
}

# What a span keeps for counting after the round: a row count, or the
# kernel-word search's inputs and record buffer.
_PAYLOADS = {
    "core.power_closure": lambda args, kwargs, out: len(out),
    "sweeps.congruences": lambda args, kwargs, out: len(out),
    "sweeps.subgroups": lambda args, kwargs, out: len(out),
    "kernel_search.ternary_kernel_words":
        lambda args, kwargs, out: (args[0], args[1], out),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.instance: list = []
        self.payload: dict = {}
        self.instance_id = -1
        self._stack = [-1]
        self._installed: list = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.instance.append(self.instance_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        namer = _NAMERS.get(name)
        payload = _PAYLOADS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if namer is not None:
                self.names[i] = f"{name}.{namer(args, kwargs, out)}"
            if payload is not None:
                self.payload[i] = payload(args, kwargs, out)
            return out
        return traced

    def install(self) -> None:
        """Wrap the public functions of ``TRACED_MODULES``."""
        package = [m for k, m in sys.modules.items()
                   if k == "commwb" or k.startswith("commwb.")]
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"commwb.{short}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, type) or not callable(fn):
                    continue
                traced = self._wrap(f"{short.lstrip('_')}.{attr}", fn)
                for holder in package:
                    for key, value in vars(holder).items():
                        if value is fn:
                            self._installed.append((holder, key, fn))
                            setattr(holder, key, traced)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._installed):
            setattr(holder, key, fn)
        self._installed.clear()

    # -- results -------------------------------------------------------------
    def self_ns(self) -> np.ndarray:
        start = np.asarray(self.start, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has],
                            minlength=len(dur))
        return dur - child.astype(np.int64)

    def layer_table(self) -> dict:
        """Per span name: calls, self seconds and summed row counts."""
        table: dict = {}
        for name, own, i in zip(self.names, self.self_ns(),
                                range(len(self.names))):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "rows": 0})
            row["calls"] += 1
            row["self_s"] += own * 1e-9
            extra = self.payload.get(i)
            if isinstance(extra, int):
                row["rows"] += extra
        return table

    def kernel_word_calls(self) -> list:
        return [self.payload[i] for i, name in enumerate(self.names)
                if name == "kernel_search.ternary_kernel_words"]

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for row in zip(self.names, self.start, self.end, self.parent,
                           self.instance):
                fh.write(json.dumps(dict(zip(
                    ("name", "start_ns", "end_ns", "parent", "instance"),
                    row))) + "\n")
