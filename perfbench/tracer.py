"""Run the qboson CLI once with spans around every public package function.

Usage: python3 perfbench/tracer.py [--memory] SPANS.npz -- <qboson CLI arguments>

The package is imported unchanged from PYTHONPATH.  Every public
module-level function of the traced modules is replaced by a wrapper in
every package namespace that holds it, since the package imports names
with ``from .x import y``.  Each call records one span (name, parent
span, start, end) in buffers allocated up front, so the tracer's own
storage does not show in the measured allocation peaks.

With --memory, tracemalloc runs while a span of a PEAK_MODULES layer is
open and records the highest allocation above the level at its outermost
entry.  tracemalloc slows every allocation, so a round that measures
memory is not used for times.  The spans are written out when the CLI
returns, with the distinct-argument counts and the memory peaks.  The
CLI's exit code is passed through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

import numpy as np

MODULES = ("qscalars", "fockrep", "hopfops", "symalg", "rmatrix", "sl2bridge",
           "report", "cli")
#: layers whose outermost spans get a tracemalloc peak of their own
PEAK_MODULES = ("rmatrix", "hopfops")
#: enough for the largest workload round (about 3e5 spans) with room to spare;
#: np.empty leaves untouched pages unmapped, so the unused tail costs no memory
CAPACITY = 1 << 22


def _distinct_key(qualname: str, arguments: dict):
    """Value key of the arguments of the functions whose reuse is counted."""
    if qualname == "rmatrix.build_r":
        spec, reps = arguments["spec"], (arguments["rep1"], arguments["rep2"])
        return (spec, *((r.dim, r.c, r.params) for r in reps))
    D, c, p = arguments["D"], arguments["c"], arguments["p"]  # fockrep.build_rep
    return (D, complex(c), p)


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.names: list[str] = []  # a span's name is names[name_id]
        self.name_id = np.empty(CAPACITY, dtype=np.int32)
        self.parent = np.empty(CAPACITY, dtype=np.int32)
        self.start = np.empty(CAPACITY, dtype=np.float64)
        self.end = np.empty(CAPACITY, dtype=np.float64)
        self.count = 0
        self.stack = [-1]
        self.distinct: dict[str, set] = {"rmatrix.build_r": set(),
                                         "fockrep.build_rep": set()}
        self.peak_bytes = {m: 0 for m in PEAK_MODULES}
        self.depth = {m: 0 for m in PEAK_MODULES}
        self.open_peaks: list[list] = []  # [module, base bytes, highest bytes]

    # -- memory peaks -------------------------------------------------------
    def _fold_peak(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        for entry in self.open_peaks:
            entry[2] = max(entry[2], peak)
        return current

    def _enter_peak(self, module: str) -> None:
        if not self.open_peaks:
            tracemalloc.start()
        current = self._fold_peak()
        tracemalloc.reset_peak()
        self.open_peaks.append([module, current, current])

    def _exit_peak(self, module: str) -> None:
        self._fold_peak()
        _, base, highest = self.open_peaks.pop()
        self.peak_bytes[module] = max(self.peak_bytes[module], highest - base)
        if not self.open_peaks:
            tracemalloc.stop()

    # -- wrapping -----------------------------------------------------------
    def wrap(self, module: str, fn):
        qualname = f"{module}.{fn.__name__}"
        nid = len(self.names)
        self.names.append(qualname)
        signature = inspect.signature(fn) if qualname in self.distinct else None
        peak = self.memory and module in PEAK_MODULES
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.count
            if idx >= len(self.start):
                raise RuntimeError("span buffer full; raise tracer.CAPACITY")
            self.count = idx + 1
            self.name_id[idx] = nid
            self.parent[idx] = self.stack[-1]
            self.stack.append(idx)
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.distinct[qualname].add(_distinct_key(qualname, bound))
            outer = peak and self.depth[module] == 0
            if peak:
                self.depth[module] += 1
                if outer:
                    self._enter_peak(module)
            self.start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                if peak:
                    if outer:
                        self._exit_peak(module)
                    self.depth[module] -= 1
                self.stack.pop()

        return traced

    def install(self) -> None:
        pkg = importlib.import_module("qboson")
        mods = {name: importlib.import_module(f"qboson.{name}") for name in MODULES}
        namespaces = [pkg, *mods.values()]
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self.wrap(name, obj)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        setattr(ns, attr, wrapped)

    def save(self, path: str) -> None:
        n = self.count
        np.savez(path, names=np.array(self.names), name_id=self.name_id[:n],
                 parent=self.parent[:n], start=self.start[:n], end=self.end[:n],
                 distinct_keys=np.array(list(self.distinct)),
                 distinct_counts=np.array([len(s) for s in self.distinct.values()]),
                 peak_modules=np.array(list(self.peak_bytes)),
                 peak_bytes=np.array(list(self.peak_bytes.values()), dtype=np.int64))


def main(argv: list[str]) -> int:
    memory = argv[:1] == ["--memory"]
    argv = argv[1:] if memory else argv
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py [--memory] SPANS.npz -- <qboson arguments>",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer(memory)
    tracer.install()
    code = importlib.import_module("qboson.cli").main(cli_args)
    tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
