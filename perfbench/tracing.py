"""Spans and counters for the traced benchmark run.

Spans are recorded around the benchmark's own calls into each layer
(cells, solver, imaging, dendrite). Inside the program nothing is edited:
the tracer replaces a few module attributes that the solver and the
stamps look up at call time, counts their calls and measures their self
time, and puts the originals back when it is closed.

Every timed region, span or wrapped call, pushes a frame that collects
the time of the timed regions nested in it, so each region's self time
is its duration minus its children's.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute, counter key)
WRAPPED = (
    ("dtlsim.devices", "stamp", "devices.stamp"),
    ("dtlsim.devices", "mosfet_ids_grad", "devices.model"),
    ("dtlsim.devices", "zener_ig", "devices.model"),
    ("dtlsim.devices", "memristance", "devices.model"),
    ("scipy.linalg", "lu_factor", "solver.lu_factor"),
    ("scipy.linalg", "lu_solve", "solver.lu_solve"),
)


class _NullSpan:
    def note(self, **values):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stands in for Tracer when tracing is off."""

    enabled = False
    _span = _NullSpan()

    def span(self, name, elements=0):
        return self._span


class _Span:
    __slots__ = ("tracer", "name", "elements", "values", "frame", "t0",
                 "stamps0", "id", "parent")

    def __init__(self, tracer, name, elements):
        self.tracer = tracer
        self.name = name
        self.elements = elements
        self.values = {}

    def note(self, **values):
        """Attach counts reported by the layer's own result objects."""
        self.values.update(values)

    def __enter__(self):
        tr = self.tracer
        self.id = len(tr.spans)
        self.parent = tr.open_ids[-1] if tr.open_ids else None
        tr.spans.append(None)  # keeps ids in start order
        tr.open_ids.append(self.id)
        self.frame = [0.0]
        tr.stack.append(self.frame)
        self.stamps0 = tr.calls["devices.stamp"]
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.open_ids.pop()
        dur = t1 - self.t0
        tr.stack[-1][0] += dur
        self_s = dur - self.frame[0]
        tr.self_s[self.name] += self_s
        if self.elements:
            stamps = tr.calls["devices.stamp"] - self.stamps0
            self.values["assemblies"] = stamps / self.elements
        for key, val in self.values.items():
            tr.totals[f"{self.name}.{key}"] += val
        tr.spans[self.id] = {
            "id": self.id, "parent": self.parent, "op": tr.op,
            "name": self.name, "start": self.t0 - tr.t_origin,
            "end": t1 - tr.t_origin, "self_s": self_s, **self.values}
        return False


class Tracer:
    """Records spans, wrapped-call counts and self times in memory.

    Use as a context manager: entering installs the wrappers, leaving
    removes them. ``snapshot()`` returns the counters so far, and the
    difference of two snapshots gives the work of the region between.
    """

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.open_ids: list[int] = []
        self.stack: list[list[float]] = [[0.0]]  # root frame
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.totals: defaultdict = defaultdict(float)
        self.op = None
        self.t_origin = time.perf_counter()
        self._saved: list = []
        self._last_fallback = None

    def span(self, name, elements=0):
        """Time a call into a layer; ``elements`` turns stamp calls made
        inside the span into assemblies of a circuit of that size."""
        return _Span(self, name, elements)

    def _wrap(self, key, fn):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                calls[key] += 1
                self_s[key] += dur - frame[0]
        return wrapper

    def _wrap_stamp(self, fn):
        inner = self._wrap("devices.stamp", fn)
        calls = self.calls

        def stamp(elem, x, ctx, out):
            # a point that left plain Newton stamps with gmin > 0 or scaled
            # sources; each point has its own context object
            if (ctx.gmin or ctx.srcscale != 1.0) and ctx is not self._last_fallback:
                self._last_fallback = ctx
                calls["solver.fallback_points"] += 1
            return inner(elem, x, ctx, out)
        return stamp

    def __enter__(self):
        for modname, attr, key in WRAPPED:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            wrapped = (self._wrap_stamp(orig) if key == "devices.stamp"
                       else self._wrap(key, orig))
            setattr(mod, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)
        self._last_fallback = None
        return False

    def snapshot(self) -> dict:
        out = {f"calls.{k}": float(v) for k, v in self.calls.items()}
        out.update({f"self_s.{k}": v for k, v in self.self_s.items()})
        out.update({f"total.{k}": v for k, v in self.totals.items()})
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}
