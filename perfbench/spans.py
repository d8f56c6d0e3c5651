"""Span tracing of isoadams from outside the library.

`instrument(tracer)` replaces the public functions of each layer with
wrappers that record one span per call: name, start, end, parent span
and job identifier, plus the matrix shape for GF(2) eliminations.
Spans stay in flat arrays until the job ends; `layer_metrics` then
derives the per-layer figures.  A layer's time is the summed duration
of its outermost spans (a call nested directly in another call of the
same layer is counted once); self time is a span's duration minus the
time its child spans cover.

Tracing never touches arguments or results beyond reading their sizes,
so a traced job produces the same bytes as an untraced one.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# span name -> layer group; the group decides nesting and aggregation
GROUPS = {
    "gf2.rref_ints": "gf2.elim",
    "gf2.left_kernel_ints": "gf2.elim",
    "gf2.rank_ints": "gf2.elim",
    "gf2.kernel_ints": "gf2.elim",
    "gf2.solve_ints": "gf2.elim",
    "gf2.SpanBuilder.add": "gf2.span",
    "gf2.SpanBuilder.reduce": "gf2.span",
    "homological.WindowedAlgebra.multiply": "homological.product",
    "homological.monomial_product": "homological.product.miss",
    "milnor.multiply": "milnor.multiply",
    "milnor.multiply_via_duality": "milnor.oracle",
    "adem.reduce_word": "adem.reduce",
    "homological.resolve": "homological.resolve",
    "homological.ext_chart_coefficients": "homological.hom_chart",
    "homological.yoneda_product": "homological.yoneda",
    "homological.FreeResolution.solve_in_cell": "homological.solve_in_cell",
    "homological.massey_triple": "homological.massey",
    "isotropic.solve_action_table": "isotropic.action_table",
    "charts.compare_doubling": "charts.compare",
    "charts.compare_equality": "charts.compare",
    "charts.vanishing_check": "charts.compare",
    "charts.to_csv": "charts.emit",
    "charts.to_json": "charts.emit",
    "charts.to_svg": "charts.emit",
    "charts.to_ascii": "charts.emit",
    "cli.main": "cli",
}

# per-layer metric name -> unit, in report order
LAYER_METRICS = {
    "gf2.elim_s": "s",
    "gf2.elim.calls": "count",
    "gf2.matrix_cells": "count",
    "gf2.span_s": "s",
    "gf2.span.calls": "count",
    "homological.product.calls": "count",
    "homological.product.miss_s": "s",
    "homological.product.hit_ratio": "ratio",
    "homological.product.entries": "count",
    "milnor.multiply_mono.calls": "count",
    "milnor.multiply_mono.hit_ratio": "ratio",
    "milnor.multiply_s": "s",
    "milnor.oracle_s": "s",
    "milnor.terms_out": "count",
    "adem.reduce_word.calls": "count",
    "adem.reduce_s": "s",
    "homological.resolve_s": "s",
    "homological.resolve.generators": "count",
    "homological.resolve.max_cell_dim": "count",
    "homological.hom_chart_s": "s",
    "homological.hom_chart.cells": "count",
    "homological.hom_chart.truncated": "count",
    "homological.yoneda_s": "s",
    "homological.yoneda.calls": "count",
    "homological.solve_in_cell_s": "s",
    "homological.solve_in_cell.calls": "count",
    "homological.massey_s": "s",
    "homological.massey.calls": "count",
    "homological.massey.defined_ratio": "ratio",
    "isotropic.action_table_s": "s",
    "charts.compare_s": "s",
    "charts.emit_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Flat in-memory span store; one instance per traced job."""

    def __init__(self, job: int = 0):
        self.job = job
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.job_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.cols = array("q")
        self.stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, shape=None, on_result=None):
        """Wrapper recording a span around every call of fn.

        `shape(args)` gives (rows, cols) of the matrix a call works on;
        `on_result(result)` updates counters from the returned value."""
        nid = self._intern(name)
        job = self.job
        stack = self.stack
        clock = time.perf_counter
        name_id, parent, job_id = self.name_id, self.parent, self.job_id
        start, end, rows, cols = self.start, self.end, self.rows, self.cols

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            job_id.append(job)
            if shape is None:
                rows.append(0)
                cols.append(0)
            else:
                r, c = shape(args)
                rows.append(r)
                cols.append(c)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)


def _replace_everywhere(original, replacement) -> None:
    """Rebind every isoadams module global that refers to `original`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "isoadams" or mod_name.startswith("isoadams.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _matrix_shape(args):
    rows = args[0]
    return (len(rows) if hasattr(rows, "__len__") else 0), args[1]


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer, in place."""
    from isoadams import adem, charts, cli, gf2, homological as H, isotropic, milnor

    def on_multiply(result):
        tracer.counters["milnor.terms_out"] += len(result.terms)

    def on_resolve(res):
        tracer.counters["homological.resolve.generators"] += sum(len(g) for g in res.gens)

    def on_massey(result):
        tracer.counters["homological.massey.defined"] += 1

    def on_hom_chart(chart):
        tracer.counters["homological.hom_chart.cells"] += len(chart.cells)
        tracer.counters["homological.hom_chart.truncated"] += len(chart.truncated)

    functions = [
        (gf2, "rref_ints", _matrix_shape, None),
        (gf2, "left_kernel_ints", _matrix_shape, None),
        (gf2, "rank_ints", _matrix_shape, None),
        (gf2, "kernel_ints", _matrix_shape, None),
        (gf2, "solve_ints", _matrix_shape, None),
        (milnor, "multiply", None, on_multiply),
        (milnor, "multiply_via_duality", None, None),
        (adem, "reduce_word", None, None),
        (H, "resolve", None, on_resolve),
        (H, "ext_chart_coefficients", None, on_hom_chart),
        (H, "yoneda_product", None, None),
        (H, "massey_triple", None, on_massey),
        (isotropic, "solve_action_table", None, None),
        (charts, "compare_doubling", None, None),
        (charts, "compare_equality", None, None),
        (charts, "vanishing_check", None, None),
        (charts, "to_csv", None, None),
        (charts, "to_json", None, None),
        (charts, "to_svg", None, None),
        (charts, "to_ascii", None, None),
        (cli, "main", None, None),
    ]
    for module, attr, shape, hook in functions:
        original = getattr(module, attr)
        name = f"{module.__name__.split('.')[-1]}.{attr}"
        _replace_everywhere(original, tracer.wrap(original, name, shape, hook))

    methods = [
        (gf2.SpanBuilder, "add", "gf2.SpanBuilder.add"),
        (gf2.SpanBuilder, "reduce", "gf2.SpanBuilder.reduce"),
        (H.WindowedAlgebra, "multiply", "homological.WindowedAlgebra.multiply"),
        (H.FreeResolution, "solve_in_cell", "homological.FreeResolution.solve_in_cell"),
    ]
    for algebra in H.WindowedAlgebra.__subclasses__():
        if "monomial_product" in vars(algebra):
            methods.append((algebra, "monomial_product", "homological.monomial_product"))
    for cls, attr, name in methods:
        setattr(cls, attr, tracer.wrap(vars(cls)[attr], name))


def layer_metrics(tracer: Tracer, multiply_mono_info) -> dict[str, float]:
    """Per-layer figures of one traced job (no trace.overhead_ratio)."""
    names, name_id, parent = tracer.names, tracer.name_id, tracer.parent
    start, end, rows, cols = tracer.start, tracer.end, tracer.rows, tracer.cols
    group_of_name = [GROUPS[n] for n in names]
    n = len(start)
    group = [group_of_name[k] for k in name_id]
    child_time = [0.0] * n
    time_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    cells = 0
    max_cell_dim = 0
    resolve_spans = set()
    for i in range(n):
        dur = end[i] - start[i]
        g = group[i]
        p = parent[i]
        if p >= 0:
            child_time[p] += dur
        if g == "homological.resolve":
            resolve_spans.add(i)
        if p >= 0 and group[p] == g:
            continue  # nested inside a call of the same layer
        time_s[g] += dur
        calls[g] += 1
        if g == "gf2.elim":
            cells += rows[i] * cols[i]
            if rows[i] > max_cell_dim and names[name_id[i]] == "gf2.left_kernel_ints":
                a = p
                while a >= 0 and a not in resolve_spans:
                    a = parent[a]
                if a >= 0:
                    max_cell_dim = rows[i]
    cli_self_s = sum(end[i] - start[i] - child_time[i] for i in range(n) if group[i] == "cli")

    def ratio(num, den):
        return num / den if den else 0.0

    counters = tracer.counters
    product_calls = calls["homological.product"]
    misses = calls["homological.product.miss"]
    mono_calls = multiply_mono_info.hits + multiply_mono_info.misses
    massey_calls = calls["homological.massey"]
    return {
        "gf2.elim_s": time_s["gf2.elim"],
        "gf2.elim.calls": calls["gf2.elim"],
        "gf2.matrix_cells": cells,
        "gf2.span_s": time_s["gf2.span"],
        "gf2.span.calls": calls["gf2.span"],
        "homological.product.calls": product_calls,
        "homological.product.miss_s": time_s["homological.product.miss"],
        "homological.product.hit_ratio": ratio(product_calls - misses, product_calls),
        "homological.product.entries": misses,
        "milnor.multiply_mono.calls": mono_calls,
        "milnor.multiply_mono.hit_ratio": ratio(multiply_mono_info.hits, mono_calls),
        "milnor.multiply_s": time_s["milnor.multiply"],
        "milnor.oracle_s": time_s["milnor.oracle"],
        "milnor.terms_out": counters["milnor.terms_out"],
        "adem.reduce_word.calls": calls["adem.reduce"],
        "adem.reduce_s": time_s["adem.reduce"],
        "homological.resolve_s": time_s["homological.resolve"],
        "homological.resolve.generators": counters["homological.resolve.generators"],
        "homological.resolve.max_cell_dim": max_cell_dim,
        "homological.hom_chart_s": time_s["homological.hom_chart"],
        "homological.hom_chart.cells": counters["homological.hom_chart.cells"],
        "homological.hom_chart.truncated": counters["homological.hom_chart.truncated"],
        "homological.yoneda_s": time_s["homological.yoneda"],
        "homological.yoneda.calls": calls["homological.yoneda"],
        "homological.solve_in_cell_s": time_s["homological.solve_in_cell"],
        "homological.solve_in_cell.calls": calls["homological.solve_in_cell"],
        "homological.massey_s": time_s["homological.massey"],
        "homological.massey.calls": massey_calls,
        "homological.massey.defined_ratio": ratio(counters["homological.massey.defined"], massey_calls),
        "isotropic.action_table_s": time_s["isotropic.action_table"],
        "charts.compare_s": time_s["charts.compare"],
        "charts.emit_s": time_s["charts.emit"],
        "cli.self_s": cli_self_s,
    }
