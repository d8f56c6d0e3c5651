"""Command-line surface: element arithmetic, resolutions, chart
emission/comparison, Massey products, and the isotropic-vs-classical
chart identification.  `isotropic` is the one command that builds the
isotropic chart; `resolve` and `massey` work over classical, G and A0.

Exit codes: 0 success/match, 1 mismatch, 2 usage error, 3 window
truncation under `isotropic --strict`.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from . import adem, charts, homological as H, isotropic as iso, milnor
from .charts import ExtChart

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3


def _job_meta(args) -> dict:
    """Reproducibility record stamped into emitted charts: the command
    and every flag that shapes the chart, so identical records yield
    byte-identical outputs."""
    meta = {"command": args.command, "flavor": getattr(args, "flavor", "isotropic")}
    for flag in ("tmax", "smax", "qmin", "qmax", "pmin", "format", "strict"):
        value = getattr(args, flag, None)
        if value is not None:
            meta["fmt" if flag == "format" else flag] = value
    return meta


def _write_out(path: str, text: str) -> bool:
    """Write an --out file; False, after one `error:` line, when the
    path cannot be written (a usage error)."""
    try:
        Path(path).write_text(text)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return False
    return True


def _emit(chart: ExtChart, fmt: str, out: Optional[str]) -> bool:
    """Write the chart to --out or stdout; False as `_write_out`."""
    if fmt == "csv":
        text = charts.to_csv(chart)
    elif fmt == "json":
        text = charts.to_json(chart)
    elif fmt == "svg":
        text = charts.to_svg(chart)
    elif fmt == "ascii":
        text = charts.to_ascii(chart)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out:
        return _write_out(out, text)
    sys.stdout.write(text)
    return True


def _filter_weights(chart: ExtChart, qmin: Optional[int], qmax: Optional[int]) -> ExtChart:
    """The chart with only the cells of weight in [qmin, qmax]; a display
    filter, never applied before a comparison."""
    if qmin is None and qmax is None:
        return chart
    keep = {}
    for (s, deg), dim in chart.cells.items():
        if qmin is not None and deg[1] < qmin:
            continue
        if qmax is not None and deg[1] > qmax:
            continue
        keep[(s, deg)] = dim
    return replace(chart, cells=keep)


def _load_chart(path: str) -> ExtChart:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return charts.from_json(text)
    return charts.from_csv(text, flavor=Path(path).stem)


# ---------------------------------------------------------------------------
# commands


def cmd_mul(args) -> int:
    flavor = args.flavor
    if flavor != "A0" and args.basis is not None:
        print("error: --basis selects a Milnor-basis order, which only the A0 flavor prints", file=sys.stderr)
        return EXIT_USAGE
    try:
        if flavor == "A0":
            lhs = milnor.parse_element(args.lhs)
            rhs = milnor.parse_element(args.rhs)
            product = milnor.multiply(lhs, rhs)
            if args.basis == "qepr":
                print(milnor.format_element(product))
            else:
                print(milnor.format_prqe(milnor.qepr_to_prqe(product)))
        else:
            u = adem.parse_word(args.lhs)
            v = adem.parse_word(args.rhs)
            # admissible forms are unique, so the word uv reduces to the product
            print(adem.adem_reduce(u + v, adem.CLASSICAL if flavor == "classical" else adem.EVEN))
    except (milnor.ParseError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _field_chart(flavor: str, smax: int, tmax: int) -> tuple[ExtChart, H.FreeResolution, dict]:
    alg = H.algebra_for(flavor, tmax)
    res = H.resolve(alg, smax=smax, pmax=tmax)
    chart = H.ext_chart_field(res)
    factors = _fill_product_table(chart, res)
    return chart, res, factors


def _fill_product_table(chart: ExtChart, res: H.FreeResolution) -> dict:
    """Pairwise Yoneda products of the named classes, recorded by name
    where the result cell carries a name and by cell otherwise.  Returns
    {(s, deg, bits): (n1, n2)}, the first pair in sorted name order whose
    product is that nonzero class."""
    names = sorted(chart.classes)
    factors: dict = {}
    for n1 in names:
        for n2 in names:
            s1, d1, i1 = chart.classes[n1]
            s2, d2, i2 = chart.classes[n2]
            s, deg = s1 + s2, H.add_deg(d1, d2)
            if s > chart.smax or deg[0] > chart.tmax:
                continue
            prod = H.yoneda_product(
                res, H.class_of_generator(res, s1, d1, i1), H.class_of_generator(res, s2, d2, i2)
            )
            if prod.bits == 0:
                chart.products[(n1, n2)] = "0"
                continue
            factors.setdefault((s, deg, prod.bits), (n1, n2))
            named = None
            for k in range(res.gen_count(s, deg)):
                if prod.bits == 1 << k:
                    named = chart.class_name_at(s, deg, k)
            chart.products[(n1, n2)] = named or {
                **charts.cell_fields(s, deg),
                "indices": [k for k in range(res.gen_count(s, deg)) if (prod.bits >> k) & 1],
            }
    return factors


def cmd_resolve(args) -> int:
    if args.flavor == "classical" and (args.qmin is not None or args.qmax is not None):
        print("error: --qmin/--qmax select by the weight u, which the classical chart does not carry", file=sys.stderr)
        return EXIT_USAGE
    chart, _, _ = _field_chart(args.flavor, args.smax, args.tmax)
    chart = _filter_weights(chart, args.qmin, args.qmax)
    chart.meta["job"] = _job_meta(args)
    return EXIT_OK if _emit(chart, args.format, args.out) else EXIT_USAGE


def cmd_compare(args) -> int:
    try:
        a = _load_chart(args.chart_a)
        b = _load_chart(args.chart_b)
        if args.mode == "doubling":
            report = charts.compare_doubling(a, b)
        else:
            report = charts.compare_equality(a, b)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        import json

        if not _write_out(
            args.out,
            json.dumps(
                {
                    "mode": report.mode,
                    "checked": report.checked,
                    "match": report.ok,
                    "mismatches": [
                        {"s": c[0], "deg": list(c[1]), "left": da, "right": db}
                        for c, da, db in report.mismatches
                    ],
                },
                indent=1,
                sort_keys=True,
            )
            + "\n",
        ):
            return EXIT_USAGE
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _named_class(res: H.FreeResolution, chart: ExtChart, name: str) -> H.ChartClass:
    if name not in chart.classes:
        raise KeyError(f"unknown class {name!r}; known: {sorted(chart.classes)}")
    s, deg, index = chart.classes[name]
    return H.class_of_generator(res, s, deg, index)


def _describe_class(factors: dict, s: int, deg, bits: int) -> str:
    """The class as a product of two named classes where one is, read
    from the products `_fill_product_table` formed."""
    if bits == 0:
        return "0"
    pair = factors.get((s, tuple(deg), bits))
    if pair:
        n1, n2 = pair
        return f"{n1}^2" if n1 == n2 else f"{n1}*{n2}"
    return f"class at (s={s}, deg={deg}) with coordinates {bits:#b}"


def cmd_massey(args) -> int:
    chart, res, factors = _field_chart(args.flavor, args.smax, args.tmax)
    try:
        a = _named_class(res, chart, args.a)
        b = _named_class(res, chart, args.b)
        c = _named_class(res, chart, args.c)
    except KeyError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = H.massey_triple(res, a, b, c)
    except (H.MasseyPreconditionError, H.WindowExceededError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    desc = _describe_class(factors, result.s, result.deg, result.bits)
    if args.out:
        chart.brackets.append(
            {
                "args": [args.a, args.b, args.c],
                **charts.cell_fields(result.s, result.deg),
                "value": desc,
                "indeterminacy_rank": len(result.indeterminacy),
            }
        )
        chart.meta["job"] = _job_meta(args)
        if not _emit(chart, args.format, args.out):
            return EXIT_USAGE
    print(f"<{args.a},{args.b},{args.c}> = {desc}")
    if result.indeterminacy:
        print(f"indeterminacy rank {len(result.indeterminacy)}: {[f'{v:#b}' for v in result.indeterminacy]}")
    else:
        print("indeterminacy 0")
    return EXIT_OK


def cmd_isotropic(args) -> int:
    pmax = args.tmax
    tmax_classical = pmax // 2
    try:
        # by default deep enough for the resolved range
        window = iso.IsotropicWindow(-pmax if args.pmin is None else args.pmin)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        ichart = iso.isotropic_chart(window, args.smax, pmax)
    except iso.ActionTableNotUnique as err:
        print(err, file=sys.stderr)
        return EXIT_MISMATCH
    cres = H.resolve(H.algebra_for("classical", tmax_classical), smax=args.smax, pmax=tmax_classical)
    cchart = H.ext_chart_field(cres)
    ichart.meta["job"] = _job_meta(args)
    if args.out and not _emit(_filter_weights(ichart, args.qmin, args.qmax), args.format, args.out):
        return EXIT_USAGE
    rep = charts.compare_doubling(cchart, ichart)
    van = charts.vanishing_check(ichart)
    for line in rep.lines():
        print(line)
    print(f"vanishing regions: {'ok' if van.ok else van.violations}")
    if args.strict and ichart.truncated:
        print(f"window-truncated cells: {sorted(ichart.truncated)[:10]}", file=sys.stderr)
        return EXIT_TRUNCATED
    if not (rep.ok and van.ok):
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoadams",
        description="Mod-2 generalized/isotropic Steenrod algebra calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output_flags(p, tmax_default=12):
        p.add_argument("--tmax", type=_non_negative, default=tmax_default)
        p.add_argument("--smax", type=_non_negative, default=8)
        p.add_argument("--format", choices=["csv", "json", "svg", "ascii"], default="csv")
        p.add_argument("--out", type=str, default=None)

    def weight_flags(p):
        p.add_argument("--qmin", type=int, default=None)
        p.add_argument("--qmax", type=int, default=None)

    p_mul = sub.add_parser("mul", help="multiply two elements")
    p_mul.add_argument("lhs")
    p_mul.add_argument("rhs")
    p_mul.add_argument("--flavor", choices=["classical", "G", "A0"], default="A0")
    # absent: prqe for A0
    p_mul.add_argument("--basis", choices=["qepr", "prqe"], default=None)
    p_mul.set_defaults(func=cmd_mul)

    p_res = sub.add_parser("resolve", help="minimal resolution and Ext chart")
    p_res.add_argument("--flavor", choices=["classical", "G", "A0"], default="classical")
    output_flags(p_res)
    weight_flags(p_res)
    p_res.set_defaults(func=cmd_resolve)

    p_cmp = sub.add_parser("compare", help="compare two chart files")
    p_cmp.add_argument("chart_a")
    p_cmp.add_argument("chart_b")
    p_cmp.add_argument("--mode", choices=["doubling", "equality"], default="equality")
    p_cmp.add_argument("--out", type=str, default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_mas = sub.add_parser("massey", help="triple Massey product of named classes")
    p_mas.add_argument("a")
    p_mas.add_argument("b")
    p_mas.add_argument("c")
    p_mas.add_argument("--flavor", choices=["classical", "G", "A0"], default="classical")
    output_flags(p_mas)
    p_mas.set_defaults(func=cmd_massey)

    p_iso = sub.add_parser(
        "isotropic", help="isotropic chart and comparison against the classical chart"
    )
    output_flags(p_iso, tmax_default=44)
    weight_flags(p_iso)
    p_iso.add_argument("--pmin", type=int, default=None)
    p_iso.add_argument("--strict", action="store_true")
    p_iso.set_defaults(func=cmd_isotropic)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    qmin, qmax = getattr(args, "qmin", None), getattr(args, "qmax", None)
    if qmin is not None and qmax is not None and qmin > qmax:
        parser.error(f"argument --qmin: must be <= --qmax, got {qmin} > {qmax}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
