"""Layer tracer that measures liecap from outside, without editing it.

``Tracer.install`` replaces each traced callable of every ``liecap``
module by a wrapper that records a span: the callable's name, start and
end time, the span that called it and the request it belongs to.  A
traced callable is a public function, a public method of a public class,
or a private function that another liecap module imports (such as
``linalg._quotient_from_builder``).  Names imported with ``from .x import
y`` are bound in several module namespaces; every binding is replaced.

Spans are kept in memory in flat arrays and written out when the run
ends.  ``summarize`` turns them into the per-layer metrics: the self time
of a span (its duration minus the durations of its direct children) is
credited to one bucket, so the buckets plus the request time outside
every span (``trace.unattributed_s``) add up to the request time.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
import types
import weakref
from array import array
from fractions import Fraction

LAYERS = ("linalg", "lie", "decompose", "exterior", "multiplier", "capability", "cli")

# Self-time bucket of each traced name; see REST for the other names.
BUCKETS = {
    "linalg.SpanBuilder.add": "linalg.elim_s",
    "linalg.SpanBuilder.add_int_row": "linalg.elim_s",
    "linalg.kernel_basis": "linalg.kernel_s",
    "linalg.SpanBuilder.rref_rows": "linalg.rref_s",
    "linalg.SpanBuilder.subspace": "linalg.rref_s",
    "linalg.rref": "linalg.rref_s",
    "linalg.Matrix.rank": "linalg.matrix_s",
    "linalg.Matrix.inverse": "linalg.matrix_s",
    "linalg.Matrix.mul_vec": "linalg.matrix_s",
    "linalg._quotient_from_builder": "linalg.quotient_s",
    "lie.LieAlgebra.validate": "lie.validate_s",
    "lie.LieAlgebra.require_valid": "lie.validate_s",
    "lie.LieAlgebra.center": "lie.center_s",
    "lie.LieAlgebra.lower_central_series": "lie.series_s",
    "lie.LieAlgebra.bracket_span": "lie.series_s",
    "lie.LieAlgebra.is_ideal": "lie.series_s",
    "lie.LieAlgebra.is_central_ideal": "lie.series_s",
    "lie.LieAlgebra.change_basis": "lie.change_basis_s",
    "lie.LieAlgebra.quotient": "lie.quotient_s",
    "exterior.exterior_square": "exterior.square_self_s",
    "exterior.exterior_center": "exterior.center_s",
    "exterior.quotient_exterior_dim": "exterior.collapse_s",
    "exterior.ideal_in_exterior_center": "exterior.collapse_s",
    "cli.load_input": "cli.load_s",
    "cli.load_algebra_file": "cli.load_s",
    "cli.parse_expression": "cli.load_s",
}
# Time in these layers outside their named buckets; the other layers
# have one bucket each, "<layer>.self_s".
REST = {"linalg": "linalg.other_s", "lie": "lie.other_s", "exterior": "exterior.other_s"}

# Per-scalar and per-vector helpers, called 10^5 times in one request:
# wrapping them would double the run time, so their time stays with the
# caller.
UNTRACED = {
    "linalg.frac",
    "linalg.vector",
    "linalg.zero_vector",
    "linalg.unit_vector",
    "linalg.vec_add",
    "linalg.vec_sub",
    "linalg.vec_scale",
    "linalg.dot",
    "linalg._normalize_int",
}

ELIMINATION = ("linalg.SpanBuilder.add", "linalg.SpanBuilder.add_int_row")
EXTERIOR_SQUARE = "exterior.exterior_square"
DECOMPOSE_CALLS = ("decompose.heisenberg_decompose", "decompose.induced_form", "decompose.symplectic_basis")


def bucket_of(name: str) -> str:
    if name in BUCKETS:
        return BUCKETS[name]
    layer = name.split(".")[0]
    return REST.get(layer, f"{layer}.self_s")


def time_buckets() -> list[str]:
    """Every self-time bucket, in a fixed order."""
    out = []
    for layer in LAYERS:
        out += sorted({b for b in BUCKETS.values() if b.startswith(layer + ".")})
        out.append(REST.get(layer, f"{layer}.self_s"))
    return out


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among Fractions."""
    best = 0
    for x in values:
        if isinstance(x, Fraction):
            best = max(best, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.raised: list[int] = []
        self.stack: list[int] = []
        self.current_request = -1
        self.counters = {
            "elim_rows": 0,
            "elim_useful": 0,
            "square_builds": 0,
            "square_hits": 0,
            "ambient_cols": 0,
            "relation_rank": 0,
            "max_bits": 0,
        }
        self._seen_squares: dict[int, weakref.ref] = {}
        self._new_squares: list[object] = []

    # -- installation ---------------------------------------------------------

    def install(self, package: types.ModuleType) -> None:
        """Wrap the traced callables of the ``LAYERS`` modules of ``package``
        and rebind them wherever a module of the package imported them."""
        present = {info.name for info in pkgutil.iter_modules(package.__path__)}
        layers = [importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS if name in present]
        prefix = package.__name__ + "."
        modules = [package] + [m for key, m in list(sys.modules.items()) if key.startswith(prefix)]
        imported_private = {
            name
            for module in modules
            for name, obj in vars(module).items()
            if name.startswith("_") and _is_function(obj) and obj.__module__ != module.__name__
        }
        replaced: dict[int, object] = {}
        for module in layers:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if not _is_function(obj) or obj.__module__ != module.__name__:
                    continue
                if name.startswith("_") and name not in imported_private:
                    continue
                if f"{layer}.{name}" not in UNTRACED:
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", obj)
            for cname, cls in list(vars(module).items()):
                if isinstance(cls, type) and cls.__module__ == module.__name__ and not cname.startswith("_"):
                    self._wrap_methods(f"{layer}.{cname}", cls)
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(f"{prefix}.{attr}", raw.__func__)))
            elif isinstance(raw, types.FunctionType):
                setattr(cls, attr, self._wrap(f"{prefix}.{attr}", raw))

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        on_return = {
            EXTERIOR_SQUARE: self._on_exterior_square,
            ELIMINATION[0]: self._on_elimination,
            ELIMINATION[1]: self._on_elimination,
        }.get(name)
        clock = time.perf_counter
        stack = self.stack
        span_name, start, end, parent, request = self.span_name, self.start, self.end, self.parent, self.request

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            request.append(self.current_request)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                stack.pop()
                self.raised.append(idx)
                raise
            end[idx] = clock()
            stack.pop()
            if on_return is not None:
                on_return(idx, result)
            return result

        return wrapper

    # -- counters at the layer boundaries ---------------------------------------

    def _on_elimination(self, idx: int, added: bool) -> None:
        # SpanBuilder.add feeds its row to add_int_row: count each row once
        up = self.parent[idx]
        if up >= 0 and self.names[self.span_name[up]] in ELIMINATION:
            return
        self.counters["elim_rows"] += 1
        self.counters["elim_useful"] += int(bool(added))

    def _on_exterior_square(self, idx: int, square) -> None:
        ref = self._seen_squares.get(id(square))
        if ref is not None and ref() is square:
            self.counters["square_hits"] += 1
            return
        self._seen_squares[id(square)] = weakref.ref(square)
        self.counters["square_builds"] += 1
        self._new_squares.append(square)

    # -- requests -----------------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        """Open the root span of one request."""
        self.current_request = request_id
        self._root = len(self.start)
        self.span_name.append(-1)
        self.parent.append(-1)
        self.request.append(request_id)
        self.end.append(0.0)
        self.stack.append(self._root)
        self.start.append(time.perf_counter())

    def end_request(self) -> None:
        """Close the root span, then read the sizes of the exterior squares
        built during the request (outside every span)."""
        self.end[self._root] = time.perf_counter()
        self.stack.clear()
        for square in self._new_squares:
            self.counters["ambient_cols"] += square.ambient_dim
            self.counters["relation_rank"] += square.relation_rank
            bits = max(max_bits(row) for row in square.projection.data) if square.projection.data else 0
            self.counters["max_bits"] = max(self.counters["max_bits"], bits)
        self._new_squares.clear()
        self.current_request = -1

    def write(self, path: str) -> None:
        doc = {
            "names": self.names,
            "spans": {
                "name": self.span_name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "request": self.request.tolist(),
            },
            "raised": self.raised,
            "counters": self.counters,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _is_function(obj: object) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def merge(docs: list[dict]) -> dict:
    """One trace from the traces of several processes."""
    names: list[str] = []
    spans: dict[str, list] = {key: [] for key in ("name", "start", "end", "parent", "request")}
    raised: list[int] = []
    counters: dict[str, int] = {}
    for doc in docs:
        for n in doc["names"]:
            if n not in names:
                names.append(n)
        index = [names.index(n) for n in doc["names"]]
        offset = len(spans["start"])
        part = doc["spans"]
        spans["name"] += [index[n] if n >= 0 else -1 for n in part["name"]]
        spans["parent"] += [p + offset if p >= 0 else -1 for p in part["parent"]]
        for key in ("start", "end", "request"):
            spans[key] += part[key]
        raised += [i + offset for i in doc["raised"]]
        for key, value in doc["counters"].items():
            counters[key] = max(counters.get(key, 0), value) if key == "max_bits" else counters.get(key, 0) + value
    return {"names": names, "spans": spans, "raised": raised, "counters": counters}


def summarize(doc: dict) -> dict[str, float]:
    """Per-layer metrics from a written trace.  Spans with name -1 are
    request roots."""
    names = doc["names"]
    spans = doc["spans"]
    name, start, end, parent = spans["name"], spans["start"], spans["end"], spans["parent"]
    child_time = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += end[i] - start[i]
    metrics: dict[str, float] = {b: 0.0 for b in time_buckets()}
    metrics["trace.unattributed_s"] = 0.0
    metrics["trace.request_s"] = 0.0
    for i, n in enumerate(name):
        own = end[i] - start[i] - child_time[i]
        if n < 0:
            metrics["trace.unattributed_s"] += own
            metrics["trace.request_s"] += end[i] - start[i]
        else:
            metrics[bucket_of(names[n])] += own
    errors = {layer: 0 for layer in LAYERS}
    for i in doc["raised"]:
        errors[names[name[i]].split(".")[0]] += 1
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = errors[layer]
    c = doc["counters"]
    metrics["linalg.elim_rows"] = c["elim_rows"]
    metrics["linalg.elim_useful_ratio"] = c["elim_useful"] / c["elim_rows"] if c["elim_rows"] else 0.0
    metrics["linalg.max_bits"] = c["max_bits"]
    metrics["exterior.square_builds"] = c["square_builds"]
    metrics["exterior.square_hits"] = c["square_hits"]
    metrics["exterior.ambient_cols"] = c["ambient_cols"]
    metrics["exterior.relation_rank"] = c["relation_rank"]
    decompose_ids = {names.index(n) for n in DECOMPOSE_CALLS if n in names}
    metrics["decompose.calls"] = sum(1 for n in name if n in decompose_ids)
    metrics["trace.spans"] = len(name)
    return metrics
