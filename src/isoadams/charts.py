"""Ext charts: the trigraded (s, t, u) dimension tables produced by the
resolution and cobar engines, their comparisons, and their emitters.

Cells are keyed (s, deg) with deg a 1-tuple (t,) for the singly graded
classical algebra or a 2-tuple (t, u) otherwise.  CSV is the
interchange authority (`s,t,u,dim`, u blank when bigraded charts are
not available, dim blank on a truncated cell); JSON carries named
classes, products and brackets; SVG and ascii renderings are derived
views.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

Deg = tuple[int, ...]
Cell = tuple[int, Deg]


@dataclass
class ExtChart:
    flavor: str
    grading: int
    smax: int
    tmax: int
    cells: dict[Cell, int] = field(default_factory=dict)
    truncated: set[Cell] = field(default_factory=set)
    classes: dict[str, tuple[int, Deg, int]] = field(default_factory=dict)
    products: dict = field(default_factory=dict)
    brackets: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    # False for a chart read from CSV, whose smax and tmax are only the
    # extent of its rows
    window_stated: bool = True

    def dim(self, s: int, deg: Deg) -> int:
        return self.cells.get((s, tuple(deg)), 0)

    def sorted_cells(self) -> list[tuple[Cell, int]]:
        return sorted(self.cells.items())

    def nonzero_cells(self) -> list[tuple[Cell, int]]:
        return [(c, d) for c, d in self.sorted_cells() if d]

    def class_name_at(self, s: int, deg: Deg, index: int) -> Optional[str]:
        for name, ref in self.classes.items():
            if ref == (s, tuple(deg), index):
                return name
        return None


def name_h_classes(chart: ExtChart) -> None:
    """Attach the standard h_i names to the one-dimensional filtration-1
    cells at (doubled) two-power internal degree."""
    for i in range(0, 16):
        if chart.grading == 1:
            deg: Deg = (2**i,)
        else:
            deg = (2 ** (i + 1), 2**i)
        if chart.dim(1, deg) == 1:
            chart.classes[f"h{i}"] = (1, deg, 0)
    if chart.grading == 2 and chart.dim(1, (1, 0)) == 1:
        chart.classes["v0"] = (1, (1, 0), 0)


# ---------------------------------------------------------------------------
# comparisons


@dataclass
class CompareReport:
    mode: str
    checked: int = 0
    mismatches: list = field(default_factory=list)
    skipped_truncated: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def lines(self) -> list[str]:
        out = [f"compare mode={self.mode}: checked {self.checked} cells"]
        for cell, da, db in self.mismatches:
            out.append(f"  MISMATCH at {cell}: {da} vs {db}")
        if self.skipped_truncated:
            out.append(f"  skipped {len(self.skipped_truncated)} truncated cells")
        out.append("verdict: " + ("MATCH" if self.ok else "MISMATCH"))
        return out


def compare_equality(a: ExtChart, b: ExtChart) -> CompareReport:
    # a chart with no cells, such as a header-only CSV, has no grading
    if a.grading != b.grading and (a.cells or a.truncated) and (b.cells or b.truncated):
        raise ValueError(f"equality compares charts of one grading, got gradings {a.grading} and {b.grading}")
    report = CompareReport("equality")
    cells = set(a.cells) | set(b.cells) | a.truncated | b.truncated
    for cell in sorted(cells):
        if cell in a.truncated or cell in b.truncated:
            report.skipped_truncated.append(cell)
            continue
        da, db = a.cells.get(cell, 0), b.cells.get(cell, 0)
        report.checked += 1
        if da != db:
            report.mismatches.append((cell, da, db))
    return report


def compare_doubling(classical: ExtChart, target: ExtChart) -> CompareReport:
    """dim Ext_cl^{s,t} must equal the target dimension at (s, 2t, t),
    and the target must vanish off the t = 2u line."""
    if classical.grading != 1 or target.grading != 2:
        raise ValueError("doubling compares a singly graded chart against a bigraded one")
    report = CompareReport("doubling")
    # a chart read from CSV states no window, so it never narrows the
    # comparison: the smaller of the stated windows, or else the larger
    # of the two extents
    stated = [(c.smax, c.tmax // c.grading) for c in (classical, target) if c.window_stated]
    if stated:
        smax, tmax = min(s for s, _ in stated), min(t for _, t in stated)
    else:
        smax, tmax = max(classical.smax, target.smax), max(classical.tmax, target.tmax // 2)
    for s in range(smax + 1):
        for t in range(tmax + 1):
            cl_cell = (s, (t,))
            tg_cell = (s, (2 * t, t))
            if cl_cell in classical.truncated or tg_cell in target.truncated:
                report.skipped_truncated.append(tg_cell)
                continue
            da = classical.cells.get(cl_cell, 0)
            db = target.cells.get(tg_cell, 0)
            report.checked += 1
            if da != db:
                report.mismatches.append((tg_cell, da, db))
    # off the line every truncated cell is skipped, every other nonzero
    # cell is a mismatch
    for cell in sorted(set(target.cells) | target.truncated):
        s, deg = cell
        if deg[0] == 2 * deg[1]:
            continue
        if cell in target.truncated:
            report.skipped_truncated.append(cell)
        elif target.cells[cell]:
            report.checked += 1
            report.mismatches.append((cell, 0, target.cells[cell]))
    return report


@dataclass
class VanishingReport:
    violations: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def vanishing_check(chart: ExtChart) -> VanishingReport:
    """Translate (s, t, u) to homotopy bidegree (p, q) = (t - s, u) and
    require support inside q <= p <= 2q, q >= 0."""
    report = VanishingReport()
    for (s, deg), dimension in chart.sorted_cells():
        if not dimension or len(deg) != 2:
            continue
        t, u = deg
        p, q = t - s, u
        report.checked += 1
        if not (q >= 0 and q <= p <= 2 * q):
            report.violations.append(((s, deg), (p, q), dimension))
    return report


# ---------------------------------------------------------------------------
# serialization


def to_csv(chart: ExtChart) -> str:
    """A row per nonzero cell and a row with an empty dim per truncated
    cell, in cell order."""
    dims = {cell: str(d) for cell, d in chart.cells.items() if d}
    dims.update(dict.fromkeys(chart.truncated, ""))
    lines = ["s,t,u,dim"]
    for (s, deg), dimension in sorted(dims.items()):
        u = str(deg[1]) if len(deg) > 1 else ""
        lines.append(f"{s},{deg[0]},{u},{dimension}")
    return "\n".join(lines) + "\n"


def cell_fields(s: int, deg: Deg) -> dict:
    """The JSON fields of a cell: s, t and, on a bigraded chart, u; read
    back by `_parse_cell`."""
    return {"s": s, "t": deg[0], **({"u": deg[1]} if len(deg) > 1 else {})}


def to_json(chart: ExtChart) -> str:
    payload = {
        "schema": "isoadams-chart/1",
        "flavor": chart.flavor,
        "grading": chart.grading,
        "smax": chart.smax,
        "tmax": chart.tmax,
        "cells": [{**cell_fields(s, deg), "dim": d} for (s, deg), d in chart.sorted_cells() if d],
        "truncated": [cell_fields(s, deg) for s, deg in sorted(chart.truncated)],
        "classes": [
            {"name": n, **cell_fields(s, deg), "index": i}
            for n, (s, deg, i) in sorted(chart.classes.items())
        ],
        "products": [
            {"left": l, "right": r, "value": v} for (l, r), v in sorted(chart.products.items())
        ],
        "brackets": chart.brackets,
        "meta": chart.meta,
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _field(obj, key: str, kind: type, where: str):
    """obj[key], checked to be a `kind`; ValueError otherwise (a bool is
    not an int here)."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"chart JSON: {where} needs {kind.__name__} field {key!r}")
    return value


def _entries(payload: dict, key: str) -> list:
    """An optional list field of the chart, [] when absent."""
    return _field(payload, key, list, "the chart") if key in payload else []


def _parse_cell(obj: dict, grading: int, where: str) -> Cell:
    """The cell (s, deg) of the fields `cell_fields` writes."""
    s, t = _field(obj, "s", int, where), _field(obj, "t", int, where)
    return s, (t,) if grading == 1 else (t, _field(obj, "u", int, where))


def from_json(text: str) -> ExtChart:
    """Parse a chart; a missing or ill-typed field raises ValueError."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("schema") != "isoadams-chart/1":
        raise ValueError("not an isoadams chart")
    grading = _field(payload, "grading", int, "the chart")
    if grading not in (1, 2):
        raise ValueError(f"chart JSON: grading must be 1 or 2, got {grading}")
    chart = ExtChart(
        _field(payload, "flavor", str, "the chart"),
        grading,
        _field(payload, "smax", int, "the chart"),
        _field(payload, "tmax", int, "the chart"),
    )
    for n, obj in enumerate(_field(payload, "cells", list, "the chart")):
        where = f"cell {n}"
        cell = _parse_cell(obj, grading, where)
        if cell in chart.cells:
            raise ValueError(f"chart JSON: {where} repeats an earlier cell")
        chart.cells[cell] = _field(obj, "dim", int, where)
    for n, obj in enumerate(_entries(payload, "truncated")):
        where = f"truncated cell {n}"
        chart.truncated.add(_parse_cell(obj, grading, where))
    for n, obj in enumerate(_entries(payload, "classes")):
        where = f"class {n}"
        s, deg = _parse_cell(obj, grading, where)
        chart.classes[_field(obj, "name", str, where)] = (s, deg, _field(obj, "index", int, where))
    for n, obj in enumerate(_entries(payload, "products")):
        where = f"product {n}"
        if not isinstance(obj, dict) or "value" not in obj:
            raise ValueError(f"chart JSON: {where} needs field 'value'")
        chart.products[(_field(obj, "left", str, where), _field(obj, "right", str, where))] = obj["value"]
    chart.brackets = payload.get("brackets", [])
    chart.meta = payload.get("meta", {})
    return chart


def from_csv(text: str, flavor: str = "chart") -> ExtChart:
    """Parse the rows `to_csv` writes; a row with an empty dim is a
    truncated cell.  smax and tmax are the largest s and t of any row;
    a CSV states no window, so the chart is not `window_stated`."""
    lines = [l for l in text.strip().splitlines() if l]
    if not lines:
        raise ValueError("empty CSV chart")
    if lines[0].strip() != "s,t,u,dim":
        raise ValueError("bad CSV header; expected s,t,u,dim")
    cells: dict[Cell, int] = {}
    truncated: set[Cell] = set()
    grading = 0  # set by the first row: 1 without u, 2 with it
    for n, line in enumerate(lines[1:], start=2):
        fields = [x.strip() for x in line.split(",")]
        if len(fields) != 4:
            raise ValueError(f"CSV row {n} has {len(fields)} fields; expected s,t,u,dim")
        s_, t_, u_, d_ = fields
        deg: Deg = (int(t_),) if u_ == "" else (int(t_), int(u_))
        if grading and len(deg) != grading:
            raise ValueError(f"CSV row {n} {'has' if u_ else 'lacks'} u, unlike the rows before it")
        grading = len(deg)
        cell = (int(s_), deg)
        if cell in cells or cell in truncated:
            raise ValueError(f"CSV row {n} repeats the cell of an earlier row")
        if d_ == "":
            truncated.add(cell)
        else:
            cells[cell] = int(d_)
    rows = [*cells, *truncated]
    smax = max((s for s, _ in rows), default=0)
    tmax = max((d[0] for _, d in rows), default=0)
    return ExtChart(flavor, grading or 1, smax, tmax, cells, truncated, window_stated=False)


# ---------------------------------------------------------------------------
# renderings


def _stem(chart: ExtChart, s: int, deg: Deg) -> int:
    """Adams x coordinate: t - s, or u - s on the doubled line t = 2u."""
    if chart.grading == 2 and deg[0] == 2 * deg[1]:
        return deg[1] - s
    return deg[0] - s


def to_ascii(chart: ExtChart) -> str:
    """Adams-convention grid: columns are stems, rows are filtrations."""
    by_pos: dict[tuple[int, int], int] = {}
    for (s, deg), dimension in chart.cells.items():
        if not dimension:
            continue
        stem = _stem(chart, s, deg)
        by_pos[(stem, s)] = by_pos.get((stem, s), 0) + dimension
    if not by_pos:
        return "(empty chart)\n"
    max_stem = max(x for x, _ in by_pos)
    max_s = max(s for _, s in by_pos)
    lines = []
    for s in range(max_s, -1, -1):
        row = [f"{s:2d} |"]
        for x in range(0, max_stem + 1):
            n = by_pos.get((x, s), 0)
            row.append(" ." if n == 0 else (f" {n}" if n < 10 else " *"))
        lines.append("".join(row))
    lines.append("    " + "".join(f"--" for _ in range(max_stem + 1)))
    lines.append("    " + "".join(f"{x % 10} " for x in range(0, max_stem + 1)))
    return "\n".join(lines) + "\n"


def to_svg(chart: ExtChart) -> str:
    """Deterministic hand-rolled SVG, Adams convention: x = stem,
    y = filtration, one dot per basis class, weight as color when the
    chart is trigraded."""
    unit = 24
    pad = 30
    dots = []
    max_stem = 0
    max_s = chart.smax
    for (s, deg), dimension in chart.sorted_cells():
        if not dimension:
            continue
        stem = _stem(chart, s, deg)
        max_stem = max(max_stem, stem)
        for k in range(dimension):
            dots.append((stem, s, k, deg))
    width = pad * 2 + unit * (max_stem + 1)
    height = pad * 2 + unit * (max_s + 1)

    def xy(stem, s, k):
        x = pad + stem * unit + (k % 3) * 5
        y = height - pad - s * unit - (k // 3) * 5
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for x in range(0, max_stem + 1):
        px = pad + x * unit
        parts.append(
            f'<text x="{px}" y="{height - 8}" font-size="9" text-anchor="middle" fill="#555">{x}</text>'
        )
    for s in range(0, max_s + 1):
        py = height - pad - s * unit
        parts.append(f'<text x="8" y="{py + 3}" font-size="9" fill="#555">{s}</text>')
    for stem, s, k, deg in dots:
        x, y = xy(stem, s, k)
        if chart.grading == 2:
            hue = (deg[1] * 47) % 360
            fill = f"hsl({hue},60%,40%)"
        else:
            fill = "#222"
        parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="{fill}"/>')
    for name, (s, deg, index) in sorted(chart.classes.items()):
        x, y = xy(_stem(chart, s, deg), s, index)
        parts.append(f'<text x="{x + 4}" y="{y - 4}" font-size="8" fill="#333">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
