"""Span tracing of trotopt's pipeline functions, applied from outside.

:class:`Tracer` replaces each traced function in every ``trotopt.*`` module
namespace that holds a reference to it, so names that ``trotopt.cli``
imported are caught too, and restores the originals on :meth:`uninstall`.
Spans (name, start, end, parent, request id, thread) stay in memory until
the benchmark writes them out.  Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int
    info: dict = field(default_factory=dict)


def _len(key, attr):
    return lambda a, k, r: {key: len(getattr(r, attr))}


def _stats(a, k, r):
    s = r.stats
    return {"comparisons": s.comparisons, "merges": s.merges,
            "cancellations": s.cancellations, "t_out": s.t_after}


def _layer(a, k, r):
    layer, t = a[0], a[1]
    return {"t": t, "layer": [(p.pauli.n, p.pauli.x, p.pauli.z) for p in layer]}


# (module, attribute) -> (span name, info extractor(args, kwargs, result))
TRACED = {
    ("trotopt.circuit", "parse_qc"): ("circuit.parse", None),
    ("trotopt.circuit", "write_qc"): ("circuit.write", None),
    ("trotopt.circuit", "Circuit.expand"): ("circuit.expand", _len("gates", "gates")),
    ("trotopt.rotations", "to_rotation_form"): ("rotations.extract", _len("t_in", "rotations")),
    ("trotopt.rotations", "apply_edit_plan"): ("rotations.edit", None),
    ("trotopt.rotations", "from_rotation_form_resynth"): ("rotations.resynth", None),
    ("trotopt.optimizer", "optimize"): ("optimizer.fold", _stats),
    ("trotopt.tgraph", "build_tgraph"): ("tgraph.build", _len("edges", "edges")),
    ("trotopt.tgraph", "layerize"): ("tgraph.layerize", _len("layers", "layers")),
    ("trotopt.tgraph", "t_depth_bound"): ("tgraph.depth", None),
    ("trotopt.tgraph", "extend_with_ancillas"): ("tgraph.extend", _layer),
    ("trotopt.tgraph", "synthesize_layer"): ("tgraph.synth", None),
    ("trotopt.tableau", "synthesize"): ("tableau.synthesize", None),
    ("trotopt.tableau", "synthesize_gates"): ("tableau.synthesize", None),
    ("trotopt.verify", "unitary_of"): ("verify.unitary", lambda a, k, r: {"n": a[0].n}),
    ("trotopt.verify", "equivalent_up_to_phase"): ("verify.compare", None),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._root: int | None = None
        self._request: int | None = None

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, start, end, sid, parent, info) -> None:
        self.spans.append(Span(sid, name, start, end, parent, self._request,
                               threading.get_ident(), info or {}))

    @contextlib.contextmanager
    def request(self, name: str):
        """One benchmark operation, the root of its spans; yields its id.

        Spans opened by worker threads (``bench --jobs``) have an empty
        stack of their own, so their parent is this root.
        """
        sid = self._root = self._request = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(name, start, end, sid, None, None)
            self._root = None

    def _wrap(self, fn, name, extract):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = extract(args, kwargs, result) if extract else None
            tracer._record(name, start, end, sid, parent, info)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a trotopt module refers to it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "trotopt" or name.startswith("trotopt.")}
        by_fn = {}
        for (modname, attr), (name, extract) in TRACED.items():
            owner = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(vars(cls)[meth], name, extract))
            else:
                fn = getattr(owner, attr)
                by_fn[fn] = self._wrap(fn, name, extract)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and not isinstance(value, type) and value in by_fn:
                    self._patch(mod, attr, by_fn[value])

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


# ----------------------------------------------------------------------
# analysis


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total, reach = 0.0, None
    for s, e in sorted(intervals):
        if reach is None or s > reach:
            total += e - s
            reach = e
        elif e > reach:
            total += e - reach
            reach = e
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, [])) for s in spans}


def gf2_rank(vectors: list[int]) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)
