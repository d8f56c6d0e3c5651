"""Regenerate reference.json, the pinned correct outputs the workload
checks compare against.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted (the pinned values
were taken from the isoadams engine as first imported); a program
change must never be "fixed" by regenerating the reference.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def iso_reference(params: dict) -> dict:
    inputs = workloads.iso_prepare(params, 0, BENCH / "results" / "work", {})
    inputs["out"].parent.mkdir(parents=True, exist_ok=True)
    output = workloads.iso_solve(inputs)
    lines = output["stdout"].splitlines()
    if output["rc"] != 0 or "verdict: MATCH" not in lines or "vanishing regions: ok" not in lines:
        raise SystemExit(f"iso-identify does not pass at {params}:\n{output['stdout']}")
    return {"csv_sha256": hashlib.sha256(output["csv"]).hexdigest()}


def pt_reference(params: dict) -> dict:
    output = workloads.pt_solve({"tmax": params["tmax"], "smax": params["smax"], "triples": []})
    dims = {f"{s},{t}": n for (s, t), n in sorted(Counter(output["gens"]).items())}
    by_cell: dict[str, list[int]] = {}
    values = {}
    for x, y, bits in output["products"]:
        by_cell.setdefault(f"{x[0] + y[0]},{x[1] + y[1]}", []).append(bits)
        values[(x, y)] = bits
    ranks = {cell: len(workloads._echelon(vs)) for cell, vs in by_cell.items()}
    h = [i for i in range(16) if dims.get(f"1,{2**i}") == 1]
    h_products = {
        f"{i},{j}": int(values[((1, 2**i, 0), (1, 2**j, 0))] != 0)
        for i in h
        for j in h
        if ((1, 2**i, 0), (1, 2**j, 0)) in values
    }
    return {
        "ext_dims": dims,
        "image_ranks": {c: r for c, r in sorted(ranks.items()) if r},
        "h_products": h_products,
    }


def main() -> None:
    by_workload = {"iso-identify": iso_reference, "product-table": pt_reference, "milnor-arith": lambda p: {}}
    reference = {
        name: {size: by_workload[name](params) for size, params in sizes.items()}
        for name, sizes in workloads.SIZES.items()
    }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
