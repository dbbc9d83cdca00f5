"""Layer-boundary spans for a traced benchmark child.

``Tracer.install`` rebinds every public function of each package module in
the namespaces that import it (the other package modules, the package
itself and the workload module) and wraps the public ``Complex.index``,
``face_indices`` and ``front_back`` methods. A module's calls to its own
functions stay unwrapped, and a wrapped call made while a span of the same
layer is open opens no span, so each span is one call that crosses into a
layer. The few functions in ``NESTED`` are the exception: they are also
rebound in their own module and open a span on every call. Spans are kept
in memory and folded into per-name counts and self times by ``summary``
once the workload has finished.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
import types
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

PACKAGE = "becochains"
LAYERS = ("gf2", "perms", "complexes", "cochains", "algebras", "cycles", "obstruction", "cli")
COMPLEX_METHODS = ("index", "face_indices", "front_back")
CACHED_LAYERS = ("cochains", "algebras", "obstruction")
# Functions whose every call opens a span, also calls from their own module,
# so that their time is split from the same-layer function that calls them.
NESTED = ("obstruction.hochschild_matrix",)

# Per-function metrics beyond the per-layer totals, chosen for the
# optimisations each is expected to show: gf2 elimination moves betti,
# complex tables move tables, the cochain, algebra, class and obstruction
# stages move certify.
FUNCTION_METRICS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("gf2.rank", ("self_s",)),
    ("gf2.solve", ("self_s",)),
    ("gf2.rowspace_basis", ("self_s",)),
    ("complexes.index", ("self_s",)),
    ("complexes.face_indices", ("self_s",)),
    ("complexes.front_back", ("self_s",)),
    ("complexes.count_by_degree", ("self_s",)),
    ("cochains.coboundary", ("calls", "self_s")),
    ("cochains.cup", ("calls", "self_s")),
    ("cochains.pullback", ("self_s",)),
    ("cochains.coboundary_matrix", ("self_s",)),
    ("algebras.hochschild_d", ("calls", "self_s")),
    ("algebras.coproduct_component", ("calls",)),
    ("cycles.class_of_cocycle", ("calls", "self_s")),
    ("obstruction.alpha_hom", ("self_s",)),
    ("obstruction.hochschild_matrix", ("self_s",)),
    ("obstruction.gauge_shift", ("self_s",)),
    ("obstruction.is_coboundary", ("self_s",)),
    ("obstruction.triangle", ("self_s",)),
)

UNITS = {"calls": "count", "self_s": "s"}


def per_layer_metrics() -> List[Tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in report order."""
    out = [(f"{layer}.{field}", UNITS[field]) for layer in LAYERS for field in ("calls", "self_s")]
    out += [(f"{name}.{field}", UNITS[field]) for name, fields in FUNCTION_METRICS for field in fields]
    out += [("gf2.cells", "count"), ("complexes.simplices", "count")]
    for layer in CACHED_LAYERS:
        out += [(f"{layer}.cache_hit_ratio", "ratio"), (f"{layer}.cache_lookups", "count")]
    out += [
        ("workload.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.spans", "count"),
    ]
    return out


def _functions(module: types.ModuleType, public: bool) -> Iterator[Tuple[str, Callable]]:
    """Plain and lru-cached functions defined in module."""
    for name, obj in vars(module).items():
        if public and name.startswith("_"):
            continue
        if isinstance(obj, type) or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
            yield name, obj


class Tracer:
    """In-memory spans: (id, parent id, layer, name, start, end, self time)."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, str, float, float, float]] = []
        self._stack: List[List[Any]] = []  # open spans: [layer, id, child time]
        self._ids = itertools.count()
        self.cells = 0
        self._degrees: Dict[int, Tuple[Any, int]] = {}
        self._caches: Dict[str, List[Callable]] = {}
        self._index: Optional[Callable] = None

    def _wrap(self, layer: str, name: str, fn: Callable,
              count: Optional[Callable[[tuple], None]] = None) -> Callable:
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        nested = name in NESTED

        def traced(*args, **kwargs):
            if count is not None:
                count(args)
            if stack and stack[-1][0] == layer and not nested:
                return fn(*args, **kwargs)
            frame = [layer, next(ids), 0.0]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                spans.append((frame[1], parent, layer, name, start, end, end - start - frame[2]))

        return traced

    def _count_cells(self, args: tuple) -> None:
        m = args[0]
        self.cells += m.rows * m.cols

    def _degree_counter(self, method: str) -> Callable[[tuple], None]:
        def count(args: tuple) -> None:
            cx = args[0]
            deg = args[1] + args[2] if method == "front_back" else args[1]
            known = self._degrees.get(id(cx))
            if known is None or deg > known[1]:
                self._degrees[id(cx)] = (cx, deg)

        return count

    @classmethod
    def install(cls, namespaces: Iterable[types.ModuleType]) -> "Tracer":
        tracer = cls()
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        # id of each original function -> (its module, nested?, its wrapper)
        wrappers: Dict[int, Tuple[types.ModuleType, bool, Callable]] = {}
        for layer, module in modules.items():
            count = tracer._count_cells if layer == "gf2" else None
            for name, fn in _functions(module, public=True):
                qualified = f"{layer}.{name}"
                wrappers[id(fn)] = (module, qualified in NESTED,
                                    tracer._wrap(layer, qualified, fn, count))
            if layer in CACHED_LAYERS:
                tracer._caches[layer] = [fn for _, fn in _functions(module, public=False)
                                         if hasattr(fn, "cache_info")]
        targets = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for target in targets + list(namespaces):
            for attr, value in list(vars(target).items()):
                home, nested, wrapper = wrappers.get(id(value), (target, False, None))
                if home is not target or nested:
                    setattr(target, attr, wrapper)
        complex_cls = modules["complexes"].Complex
        tracer._index = complex_cls.index
        for name in COMPLEX_METHODS:
            method = getattr(complex_cls, name)
            setattr(complex_cls, name, tracer._wrap(
                "complexes", f"complexes.{name}", method, tracer._degree_counter(name)))
        return tracer

    def run(self, fn: Callable, *args):
        """Call fn inside the root span, whose self time is the workload's own."""
        return self._wrap("workload", "workload", fn)(*args)

    def summary(self) -> Dict[str, float]:
        """Calls and self time per span name and per layer, plus exact work counts."""
        out: Dict[str, float] = {}
        for _sid, _parent, layer, name, _start, _end, self_s in self.spans:
            keys = (name,) if name == layer else (name, layer)
            for key in keys:
                out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
                out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + self_s
        out["gf2.cells"] = self.cells
        out["complexes.simplices"] = sum(
            len(self._index(cx, d))
            for cx, deg in self._degrees.values()
            for d in range(min(deg, cx.top_degree) + 1)
        )
        for layer, fns in self._caches.items():
            infos = [fn.cache_info() for fn in fns]
            out[f"{layer}.cache_hits"] = sum(i.hits for i in infos)
            out[f"{layer}.cache_lookups"] = sum(i.hits + i.misses for i in infos)
        out["trace.spans"] = len(self.spans)
        return out
