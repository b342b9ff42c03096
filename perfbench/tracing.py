"""Per-layer tracing of the cxpoisson package, installed from outside it.

``Tracer.install(cx)`` replaces every public function of every package
module with a wrapper that records a span (name, start, end, parent, and the
operation it belongs to).  Names that other modules imported with
``from .x import f`` are separate bindings of the same function object, so
the wrapper is rebound on every module that holds the original: ``schouten``
in ``bivector`` and ``pointwise``, ``parse_poly`` in ``problem`` and ``cli``,
and so on.  A few methods are wrapped as well: ``Poly.__mul__`` (span
``poly.mul``), ``Report.render`` (span ``cli.render``) and
``GaussScalar.__post_init__``, which is only counted, since it runs for every
scalar the package creates.

Aggregates (calls, total and self time) are kept for every span name.  Self
time is a span's duration minus the time its child spans cover.  Span records
are kept in memory, up to ``MAX_SPANS``, and written out by ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

MODULES = (
    "scalars", "poly", "grammar", "fields", "bivector", "linalg",
    "lagrangian", "pointwise", "normal_form", "problem", "cli",
)


MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []  # (op, id, parent, name, start, end)
        self.dropped = 0
        self.calls: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.gauss_new = 0
        self.rref_pivots = 0
        self.mul_max_terms = 0
        self.op_id = 0
        self._stack: List[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._restore: List[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str):
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])

    def _exit(self):
        end = perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        else:
            parent = 0
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.op_id, sid, parent, name, start, end))
        else:
            self.dropped += 1

    def span(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call records a span named name."""
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def run_op(self, op_id: int, fn: Callable):
        """Run one operation under a root span that carries its id."""
        self.op_id = op_id
        self._enter("op")
        try:
            return fn()
        finally:
            self._exit()

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, cx) -> None:
        """Wrap the package reached through the module namespace cx."""
        modules = [getattr(cx, m) for m in MODULES] + [cx.package]
        wrappers: Dict[int, Callable] = {}
        for short in MODULES:
            mod = getattr(cx, short)
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                hook = self._on_rref if (short, name) == ("linalg", "rref") else None
                wrappers[id(obj)] = self.span(f"{short}.{name}", obj, hook)
        # rebind every module-level name that holds a wrapped function
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._set(mod, attr, w)
        Poly = cx.poly.Poly
        self._set(Poly, "__mul__", self.span("poly.mul", Poly.__mul__, self._on_mul))
        Report = cx.cli.Report
        self._set(Report, "render", self.span("cli.render", Report.render))
        G = cx.scalars.GaussScalar
        post_init = G.__post_init__

        def counted_post_init(obj):
            self.gauss_new += 1
            post_init(obj)

        self._set(G, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _on_rref(self, result):
        self.rref_pivots += len(result[1])

    def _on_mul(self, result):
        if len(result.terms) > self.mul_max_terms:
            self.mul_max_terms = len(result.terms)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the recorded spans, one JSON object per line, times in ms."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][4] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op, "id": sid, "parent": parent, "name": name,
                    "start_ms": round((start - t0) * 1e3, 4),
                    "end_ms": round((end - t0) * 1e3, 4),
                }) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
