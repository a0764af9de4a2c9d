"""Per-layer spans recorded from outside the program.

``install`` rebinds the names that callers look up: every module global in
``ybekit`` that refers to a traced public function is replaced by a wrapper
that opens a span, and every entry of ``landscape.FUNCTIONS`` gets a kernel
wrapper.  Nothing inside ybekit changes.  The untraced run never calls it.

Spans are kept in memory as ``Span`` records and written out at the end of
the run.  Kernel calls are too many to keep one span each (160,000 for one
400x400 grid), so each kernel call is added to its parent span's
``kernel_calls`` and ``kernel_s``; ``tensor.kron`` calls are counted the
same way in ``kron_calls``.  Kernels are leaves: names looked up only from
inside kernel bodies (``ybekit.entanglement.fusion_form``) are not rebound.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
from time import perf_counter

# layer -> (module, public functions that callers enter the layer through)
LAYERS = {
    "landscape.sample": ("ybekit.landscape", ("sample_surface", "section", "sample_curve")),
    "landscape.extrema": ("ybekit.landscape",
                          ("find_critical_points_2d", "find_critical_points_1d")),
    "entanglement": ("ybekit.entanglement", ("classify_slocc", "entanglement_report")),
    "threebody": ("ybekit.threebody",
                  ("state_from_params", "product_form", "fusion_form", "angles_to_params")),
    "fusionbasis": ("ybekit.fusionbasis",
                    ("fusion_basis_type1", "fusion_basis_type2", "reduce_operator",
                     "embed_three_body", "verify_basis_reduction")),
    "rmatrix": ("ybekit.rmatrix", ("check_ybe",)),
    "braiding": ("ybekit.braiding", ("check_tl_relations", "check_braid_relations")),
}
COUNTED = ("ybekit.tensor", ("kron", "kron_all"))
NOT_REBOUND = {("ybekit.entanglement", "fusion_form")}
BASIS_BUILDERS = {"fusion_basis_type1", "fusion_basis_type2"}


@dataclasses.dataclass(slots=True)
class Span:
    layer: str
    func: str
    start: float
    parent: int | None
    job: int
    end: float = 0.0
    items: int = 0          # grid points sampled or critical points returned
    kernel_calls: int = 0
    kernel_s: float = 0.0
    kron_calls: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = -1

    def open(self, layer: str, func: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(layer, func, perf_counter(), parent, self.job)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()

    # -- wrappers ---------------------------------------------------------

    def span_wrapper(self, layer: str, fn):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.items = _item_count(layer, result)
            return result

        return traced

    def kernel_wrapper(self, fn):
        spans, stack = self.spans, self.stack

        def kernel(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                span = spans[stack[-1]]
                span.kernel_calls += 1
                span.kernel_s += perf_counter() - t0

        return kernel

    def count_wrapper(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            spans[stack[-1]].kron_calls += 1
            return fn(*args, **kwargs)

        return counted


def _item_count(layer: str, result) -> int:
    """Grid points a sampling call produced, or critical points returned."""
    if layer == "landscape.sample":
        return int(result.values.size) if hasattr(result, "eta_axis") else len(result)
    if layer == "landscape.extrema":
        return len(result)
    return 0


def install(tracer: Tracer) -> None:
    """Rebind every caller-visible name of a traced function to its wrapper,
    in every loaded ybekit module.  A traced function that a later version
    of ybekit no longer has is skipped; its layer then reads 0."""
    wrappers = {}
    for layer, (module, names) in LAYERS.items():
        mod = importlib.import_module(module)
        for fn in (getattr(mod, name, None) for name in names):
            if fn is not None:
                wrappers[fn] = tracer.span_wrapper(layer, fn)
    tensor = importlib.import_module(COUNTED[0])
    counters = {fn: tracer.count_wrapper(fn) for fn in (getattr(tensor, n) for n in COUNTED[1])}
    for module, mod in list(sys.modules.items()):
        if not module.startswith("ybekit."):
            continue
        # kron is counted where other modules call it, not inside tensor.
        table = wrappers if module == COUNTED[0] else {**wrappers, **counters}
        for name, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in table and (module, name) not in NOT_REBOUND:
                setattr(mod, name, table[value])
    landscape = importlib.import_module("ybekit.landscape")
    for tag, spec in list(landscape.FUNCTIONS.items()):
        landscape.FUNCTIONS[tag] = dataclasses.replace(spec, fn=tracer.kernel_wrapper(spec.fn))


# -- per-layer metrics ------------------------------------------------------

LAYER_METRICS = (
    "landscape.kernel.grid_calls", "landscape.kernel.refine_calls", "landscape.kernel.busy_s",
    "landscape.sample.calls", "landscape.sample.points", "landscape.sample.self_s",
    "landscape.extrema.calls", "landscape.extrema.self_s", "landscape.extrema.points",
    "landscape.extrema.evals_per_point",
    "cli.busy_s", "cli.self_s",
    "entanglement.calls", "entanglement.busy_s",
    "threebody.calls", "threebody.busy_s",
    "fusionbasis.calls", "fusionbasis.busy_s", "fusionbasis.basis_builds",
    "rmatrix.calls", "rmatrix.busy_s",
    "braiding.calls", "braiding.busy_s",
    "tensor.kron_calls",
)


def layer_totals(spans: list[Span], lo: int, hi: int) -> dict[str, float]:
    """Per-layer counts and times over spans[lo:hi] (one pass).

    ``busy_s`` sums the spans of a layer that are not nested in another
    span of the same layer; ``self_s`` is a span's duration minus the time
    its child spans and kernel calls cover.
    """
    out = dict.fromkeys(LAYER_METRICS, 0)
    child_s = [0.0] * (hi - lo)
    for s in spans[lo:hi]:
        if s.parent is not None and s.parent >= lo:
            child_s[s.parent - lo] += s.end - s.start
    for k in range(lo, hi):
        s = spans[k]
        duration = s.end - s.start
        nested = s.parent is not None and spans[s.parent].layer == s.layer
        out["tensor.kron_calls"] += s.kron_calls
        out["landscape.kernel.busy_s"] += s.kernel_s
        if s.layer == "landscape.sample":
            out["landscape.kernel.grid_calls"] += s.kernel_calls
            out["landscape.sample.points"] += s.items
        elif s.layer == "landscape.extrema":
            out["landscape.kernel.refine_calls"] += s.kernel_calls
            out["landscape.extrema.points"] += s.items
        if s.func in BASIS_BUILDERS:
            out["fusionbasis.basis_builds"] += 1
        for metric, value in ((".calls", 1), (".busy_s", 0.0 if nested else duration),
                              (".self_s", duration - child_s[k - lo] - s.kernel_s)):
            if s.layer + metric in out:
                out[s.layer + metric] += value
    points = out["landscape.extrema.points"]
    out["landscape.extrema.evals_per_point"] = (
        out["landscape.kernel.refine_calls"] / points if points else 0.0)
    return out
