"""Span tracing for the benchmark's traced runs.

The tracer wraps public functions of the ``sl2lab`` modules from outside the
package: every call becomes a span (name, parent, start, end) held in flat
in-memory lists and written once, when the child process ends.  Modules
import functions by name, so a wrapper replaces the name in every ``sl2lab``
module that holds it (``spectral.generated_subgroup``, ``glue.dichotomy``,
...), not only in the defining module.

``layer_metrics`` turns the spans of one round into the per-layer metrics:
``<span>.s`` (wall time inside calls, nested calls of the same name counted
once), ``<span>.self_s`` (that time minus the time of wrapped children) and
``<span>.calls``, plus the work counters below.  Self times of all spans plus
``trace.unattributed_s`` sum to ``trace.wall_s`` by construction.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

SPAN_NAMES = (
    "packed.generated_subgroup",
    "packed.mul_const",
    "packed.index_sorted",
    "packed.isin_sorted",
    "packed.decode",
    "packed.encode",
    "packed.mul_codes",
    "spectral.CayleyOperator.build",
    "spectral.CayleyOperator.apply",
    "eigen.lanczos_extreme",
    "eigen.matvec",
    "eigen.tridiag_eigh",
    "eigen.tridiagonalize",
    "eigen.tridiag_eigvals",
    "growth.product_set",
    "approxhom.FiniteGroupTable.from_codes",
    "approxhom.dichotomy",
    "approxhom.closure_in_product",
    "commutator.amplify_exhaustive_check",
    "commutator.box_lift_codes",
    "commutator.connecting_map",
    "glue.glue_pipeline",
    "cli.main",
)

# metric name -> unit, for everything that is not a per-span time or call count
COUNTER_UNITS = {
    "packed.generated_subgroup.elements": "count",
    "packed.mul_const.elements": "count",
    "packed.mul_codes.products": "count",
    "spectral.CayleyOperator.apply.computed_gb_per_s": "GB/s",
    "eigen.lanczos_extreme.iterations": "count",
    "growth.product_set.work": "count",
    "growth.product_set.pigeonhole": "count",
    "growth.product_set.useful_ratio": "ratio",
    "commutator.amplify_exhaustive_check.product_elements": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# raw counters the wrappers accumulate; ratios are derived in layer_metrics
_APPLY_BYTES = "spectral.CayleyOperator.apply.computed_bytes"
_PRODUCT_OUT = "growth.product_set.output"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(COUNTER_UNITS)
    return units


class Tracer:
    """Records spans of wrapped calls; one tracer per process."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def span(self, name: str, fn, work=None):
        """``fn`` wrapped so each call records a span; ``work(args, out)``
        returns counter increments for a call that returned normally."""
        nid = self._ids[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                for key, value in work(args, out).items():
                    counters[key] += value
            return out

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
        }


def _apply_bytes(args, out):
    # computed, not measured: per generator the permutation is read, v is
    # gathered into a temporary that is written and read back, and out is
    # read and written (6 arrays of n float64/int64); plus zeroing out and
    # the final in-place division (3 arrays)
    op = args[0]
    n = op.n
    return {_APPLY_BYTES: 8 * n * (6 * op.degree + 3)}


def _product_set_work(args, out):
    a, b = args[0], args[1]
    if len(a) + len(b) > a.ctx.order:
        return {"growth.product_set.pigeonhole": 1}
    return {"growth.product_set.work": len(a) * len(b), _PRODUCT_OUT: len(out)}


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of every imported ``sl2lab`` module."""
    from sl2lab import approxhom, cli, commutator, eigen, glue, growth, packed, spectral

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sl2lab"]

    def rebind(orig, wrapped):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapped)

    def function(module, attr, name, work=None):
        orig = getattr(module, attr)
        rebind(orig, tracer.span(name, orig, work))

    def method(cls, attr, name, work=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.span(name, raw.__func__, work)))
        else:
            setattr(cls, attr, tracer.span(name, raw, work))

    function(packed, "generated_subgroup", "packed.generated_subgroup",
             lambda a, out: {"packed.generated_subgroup.elements": out.size})
    function(packed, "index_sorted", "packed.index_sorted")
    function(packed, "isin_sorted", "packed.isin_sorted")
    function(packed, "mul_codes", "packed.mul_codes",
             lambda a, out: {"packed.mul_codes.products": a[1].size * a[2].size})
    method(packed.PairContext, "mul_const", "packed.mul_const",
           lambda a, out: {"packed.mul_const.elements": out.size})
    method(packed.PairContext, "decode", "packed.decode")
    method(packed.PairContext, "encode", "packed.encode")

    method(spectral.CayleyOperator, "build", "spectral.CayleyOperator.build")
    method(spectral.CayleyOperator, "apply", "spectral.CayleyOperator.apply", _apply_bytes)

    lanczos = eigen.lanczos_extreme

    def lanczos_with_traced_matvec(matvec, n, *args, **kwargs):
        return lanczos(tracer.span("eigen.matvec", matvec), n, *args, **kwargs)

    rebind(lanczos, tracer.span(
        "eigen.lanczos_extreme", lanczos_with_traced_matvec,
        lambda a, out: {"eigen.lanczos_extreme.iterations": out[1]},
    ))
    function(eigen, "tridiag_eigh", "eigen.tridiag_eigh")
    function(eigen, "tridiagonalize", "eigen.tridiagonalize")
    function(eigen, "tridiag_eigvals", "eigen.tridiag_eigvals")

    function(growth, "product_set", "growth.product_set", _product_set_work)

    method(approxhom.FiniteGroupTable, "from_codes", "approxhom.FiniteGroupTable.from_codes")
    function(approxhom, "dichotomy", "approxhom.dichotomy")
    function(approxhom, "closure_in_product", "approxhom.closure_in_product")

    function(commutator, "amplify_exhaustive_check", "commutator.amplify_exhaustive_check")
    function(commutator, "box_lift_codes", "commutator.box_lift_codes")
    function(commutator, "connecting_map", "commutator.connecting_map")
    product_layer = commutator._product_layer

    def counted_product_layer(ctx, layer, box, *args, **kwargs):
        # counted, not a span: product layers are amplify_exhaustive_check's self time
        tracer.counters["commutator.amplify_exhaustive_check.product_elements"] += (
            layer.size * box.size
        )
        return product_layer(ctx, layer, box, *args, **kwargs)

    commutator._product_layer = counted_product_layer

    function(glue, "glue_pipeline", "glue.glue_pipeline")
    function(cli, "main", "cli.main")


def layer_metrics(
    spans: list[dict[str, np.ndarray]],
    counters: dict[str, float],
    walls: list[float],
) -> dict[str, float]:
    """Per-layer metrics of one round: the spans and wall times of its child
    processes, and the counters summed over them."""
    out = {f"{name}.{kind}": 0.0 for name in SPAN_NAMES for kind in ("s", "self_s", "calls")}
    attributed = 0.0
    n_spans = 0
    for sp in spans:
        name, parent = sp["name"], sp["parent"]
        dur = sp["end"] - sp["start"]
        n_spans += name.size
        children = np.zeros(name.size)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        self_time = dur - children
        attributed += float(dur[~has_parent].sum())
        # a span counts towards <name>.s only when no ancestor has its name
        outermost = np.ones(name.size, dtype=bool)
        for i in np.flatnonzero(has_parent):
            j = parent[i]
            while j >= 0:
                if name[j] == name[i]:
                    outermost[i] = False
                    break
                j = parent[j]
        for nid, label in enumerate(SPAN_NAMES):
            mine = name == nid
            if not mine.any():
                continue
            out[f"{label}.s"] += float(dur[mine & outermost].sum())
            out[f"{label}.self_s"] += float(self_time[mine].sum())
            out[f"{label}.calls"] += float(mine.sum())
    for key, unit in COUNTER_UNITS.items():
        if not key.startswith("trace."):
            out[key] = float(counters.get(key, 0.0))
    apply_s = out["spectral.CayleyOperator.apply.s"]
    out["spectral.CayleyOperator.apply.computed_gb_per_s"] = (
        counters.get(_APPLY_BYTES, 0.0) / apply_s / 1e9 if apply_s > 0 else 0.0
    )
    work = counters.get("growth.product_set.work", 0.0)
    out["growth.product_set.useful_ratio"] = (
        counters.get(_PRODUCT_OUT, 0.0) / work if work > 0 else 0.0
    )
    wall = float(sum(walls))
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - attributed
    out["trace.spans"] = float(n_spans)
    out["trace.overhead_s"] = 0.0  # set by the caller, which knows the untraced wall
    return out
