"""Spans around the package's public entry points, recorded from outside it.

``Tracer.install`` replaces each entry point below with a wrapper that records
a span (name, start, end, parent) and, for some, a size taken from the
result.  A function is replaced in every ``dimermirror`` module that holds it
by name, because ``from .x import f`` copies the binding; calls inside the
defining module, and function-level imports, go through that module's
globals and are covered too.  ``uninstall`` puts the originals back, so
untraced operations run the unmodified code.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc

# (module, function, span name, size taken from the result or None)
FUNCTIONS = [
    ("dimer", "is_zigzag_consistent", "dimer.consistency", None),
    ("dimer", "zigzag_cycles", "dimer.zigzag_cycles", None),
    ("dimer", "parallel_classes", "dimer.parallel_classes", None),
    ("dimer", "strips", "dimer.strips", None),
    ("dimer", "dual_dimer", "dimer.dual", None),
    ("matchings", "enumerate_perfect_matchings", "matchings.enumerate", len),
    ("matchings", "matching_polytope", "matchings.polytope", None),
    ("io", "parse_dimer", "io.parse", None),
    ("cli", "_emit", "cli.emit", None),
]

# (module, class, method, span name, size taken from the result or None)
METHODS = [
    ("jacobi", "Jacobi", "__init__", "jacobi.init", None),
    ("jacobi", "Jacobi", "canonical_form", "jacobi.canonical_form", None),
    ("hochschild", "KoszulComplex", "__init__", "hochschild.init", None),
    ("hochschild", "KoszulComplex", "d0", "hochschild.d0", lambda c: len(c.terms)),
    ("hochschild", "KoszulComplex", "d1", "hochschild.d1", lambda c: len(c.terms)),
    ("hochschild", "KoszulComplex", "d2", "hochschild.d2", lambda c: len(c.terms)),
    ("mirror_sh", "MirrorSH", "__init__", "mirror_sh.init", None),
    ("mirror_sh", "MirrorSH", "zigzag_paths_from", "mirror_sh.zigzag_paths", len),
    ("mirror_sh", "MirrorSH", "xi_for_strip", "mirror_sh.xi_for_strip", lambda p: int(p is not None)),
    ("ks", "KSVerifier", "__init__", "ks.init", None),
    ("ks", "KSVerifier", "verify_dimension_match", "ks.dimension", None),
    ("ks", "KSVerifier", "verify_chain_identities", "ks.chain", None),
    ("ks", "KSVerifier", "singularity_report", "ks.singularity", None),
]


class Tracer:
    """In-memory spans of the operations run while installed.

    A span is ``(op, id, parent, name, start, end, size)``; the root span of
    each operation is named ``op`` and has parent ``None``.  With
    ``track_memory`` the tracer also records, for each outermost call into
    the matchings module, the tracemalloc peak above the memory in use when
    the call began (``matchings_peaks``, bytes); tracemalloc must be running.
    """

    def __init__(self, track_memory: bool = False):
        self.spans: list = []
        self.matchings_peaks: list = []
        self.track_memory = track_memory
        self._stack: list = []
        self._next_id = 0
        self._op = None
        self._matchings_depth = 0
        self._saved: list = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod, fname, span, size in FUNCTIONS:
            original = getattr(importlib.import_module(f"dimermirror.{mod}"), fname)
            wrapper = self._wrap(original, span, size, mod == "matchings")
            for holder in [m for n, m in sys.modules.items() if n.startswith("dimermirror")]:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, attr, original))
                        setattr(holder, attr, wrapper)
        for mod, cname, meth, span, size in METHODS:
            cls = getattr(importlib.import_module(f"dimermirror.{mod}"), cname)
            original = vars(cls)[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, span, size, False))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float, size) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._op, sid, parent, name, start, end, size))

    def _wrap(self, fn, name: str, size, in_matchings: bool):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open()
            mem = tracer.track_memory and in_matchings and tracer._matchings_depth == 0
            if in_matchings:
                tracer._matchings_depth += 1
            if mem:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                n = size(result) if size is not None and result is not None else None
                tracer._close(sid, name, start, n)
                if in_matchings:
                    tracer._matchings_depth -= 1
                if mem:
                    tracer.matchings_peaks.append(tracemalloc.get_traced_memory()[1] - base)

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id, call):
        """Run ``call()`` as operation ``op_id`` under a root span named ``op``."""
        self._op = op_id
        sid = self._open()
        start = time.perf_counter()
        try:
            return call()
        finally:
            self._close(sid, "op", start, None)
            self._op = None


def span_stats(spans: list) -> dict:
    """Per span name: calls, total and self seconds, and the summed size.

    Self time is a span's duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.
    """
    child = {}
    for op, sid, parent, name, start, end, n in spans:
        if parent is not None:
            child[(op, parent)] = child.get((op, parent), 0.0) + (end - start)
    stats = {}
    for op, sid, parent, name, start, end, n in spans:
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += (end - start) - child.get((op, sid), 0.0)
        s["size"] += n or 0
    return stats


def module_self_shares(stats: dict) -> dict:
    """Share of all traced op time spent in each module's own code (and ``op``: outside every span)."""
    total = stats.get("op", {}).get("total_s", 0.0)
    out = {}
    for name, s in stats.items():
        mod = name.split(".")[0]
        out[mod] = out.get(mod, 0.0) + s["self_s"]
    return {m: (v / total if total else 0.0) for m, v in sorted(out.items())}
