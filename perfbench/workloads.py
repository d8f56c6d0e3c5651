"""The three benchmark workloads: seeded input generation, the timed
entry function, and the correctness check of its output.

Each workload is four module-level functions:

- `prepare(params, seed, workdir, reference)` builds the inputs from the seed; it
  belongs to set-up and uses no isoadams code beyond what it must hand
  to the program;
- `solve(inputs)` is the timed entry function;
- `check(inputs, output, reference)` returns (attempted, failed,
  problems) and is independent of the code under test wherever it can
  be: ranks and span membership use the small GF(2) helpers below,
  not `isoadams.gf2`;
- `digest(output)` fingerprints the output, so jobs on the same inputs
  (traced or not) can be required to agree byte for byte.

Checks are basis-invariant on purpose (Ext dimensions, ranks of
product images, zero/nonzero of products of the canonical h_i, bracket
coset membership), so a change that picks other generators inside a
cell is not counted as a failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from collections import Counter
from pathlib import Path

from isoadams import cli, homological as H, milnor

SIZES = {
    "iso-identify": {
        "full": {"tmax": 64, "smax": 12},
        "smoke": {"tmax": 16, "smax": 4},
    },
    "product-table": {
        "full": {"tmax": 48, "smax": 14, "brackets": 120},
        "smoke": {"tmax": 16, "smax": 4, "brackets": 12},
    },
    "milnor-arith": {
        "full": {"pair_degree": 48, "pairs": 500, "triple_degree": 96, "triples": 4000},
        "smoke": {"pair_degree": 16, "pairs": 20, "triple_degree": 24, "triples": 20},
    },
}


# ---------------------------------------------------------------------------
# GF(2) helpers for the checks, on int bitsets


def _echelon(vectors) -> dict[int, int]:
    """Pivot (lowest set bit) -> row, for the span of the vectors."""
    rows: dict[int, int] = {}
    for v in vectors:
        while v:
            low = v & -v
            if low not in rows:
                rows[low] = v
                break
            v ^= rows[low]
    return rows


def _in_span(rows: dict[int, int], v: int) -> bool:
    while v:
        low = v & -v
        if low not in rows:
            return False
        v ^= rows[low]
    return True


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# iso-identify: the headline identification through the CLI


def iso_prepare(params: dict, seed: int, workdir: Path, reference: dict) -> dict:
    # the statement checked is fixed by the window; the seed has no input to vary
    out = workdir / f"iso-identify-{os.getpid()}.csv"
    argv = ["isotropic", "--tmax", str(params["tmax"]), "--smax", str(params["smax"]), "--out", str(out)]
    return {"argv": argv, "out": out}


def iso_solve(inputs: dict) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(inputs["argv"])
    csv = inputs["out"].read_bytes()
    inputs["out"].unlink()
    return {"rc": rc, "stdout": buf.getvalue(), "csv": csv}


def iso_check(inputs: dict, output: dict, reference: dict) -> tuple[int, int, list[str]]:
    problems = []
    if output["rc"] != 0:
        problems.append(f"exit code {output['rc']}")
    if hashlib.sha256(output["csv"]).hexdigest() != reference["csv_sha256"]:
        problems.append("chart CSV differs from the reference")
    if "verdict: MATCH" not in output["stdout"].splitlines():
        problems.append("doubling comparison did not report MATCH")
    if "vanishing regions: ok" not in output["stdout"].splitlines():
        problems.append("vanishing check failed")
    return 1, int(bool(problems)), problems


def iso_digest(output: dict) -> str:
    return _sha((output["rc"], output["stdout"], output["csv"]))


# ---------------------------------------------------------------------------
# product-table: classical resolution, all Yoneda products, Massey brackets


def _classes_from_dims(dims: dict, smax: int) -> list[tuple[int, int, int]]:
    """(s, t, index) of every generator class with 1 <= s <= smax."""
    out = []
    for key in sorted(dims, key=lambda k: tuple(map(int, k.split(",")))):
        s, t = map(int, key.split(","))
        if 1 <= s <= smax:
            out.extend((s, t, k) for k in range(dims[key]))
    return out


def pt_prepare(params: dict, seed: int, workdir: Path, reference: dict) -> dict:
    """Draw the bracket triples uniformly among in-window triples of
    generator classes (by rejection), each with its own homotopy seed."""
    tmax, smax = params["tmax"], params["smax"]
    classes = _classes_from_dims(reference["ext_dims"], smax)
    rng = random.Random(seed)
    triples = []
    while len(triples) < params["brackets"]:
        a, b, c = rng.choice(classes), rng.choice(classes), rng.choice(classes)
        if a[0] + b[0] + c[0] - 1 <= smax and a[1] + b[1] + c[1] <= tmax:
            triples.append((a, b, c, rng.getrandbits(32)))
    return {"tmax": tmax, "smax": smax, "triples": triples}


def pt_solve(inputs: dict) -> dict:
    tmax, smax = inputs["tmax"], inputs["smax"]
    res = H.resolve(H.algebra_for("classical", tmax + 2), smax=smax, pmax=tmax)
    classes = []
    for s in range(1, smax + 1):
        seen: Counter = Counter()
        for deg in res.gens[s]:
            classes.append((s, deg[0], seen[deg]))
            seen[deg] += 1
    products = []
    for x in classes:
        cx = H.class_of_generator(res, x[0], (x[1],), x[2])
        for y in classes:
            if x[0] + y[0] > smax or x[1] + y[1] > tmax:
                continue
            cy = H.class_of_generator(res, y[0], (y[1],), y[2])
            try:
                products.append((x, y, H.yoneda_product(res, cx, cy).bits))
            except Exception as err:  # a failed operation is counted, not fatal
                products.append((x, y, f"error: {type(err).__name__}: {err}"))
    brackets = []
    for a, b, c, hseed in inputs["triples"]:
        results = []
        for rng in (None, random.Random(hseed)):
            try:
                ca, cb, cc = (H.class_of_generator(res, k[0], (k[1],), k[2]) for k in (a, b, c))
                r = H.massey_triple(res, ca, cb, cc, rng=rng)
                results.append(("defined", r.s, r.deg, r.bits, tuple(r.indeterminacy)))
            except H.MasseyPreconditionError:
                results.append(("undefined",))
            except Exception as err:
                results.append(("error", f"{type(err).__name__}: {err}"))
        brackets.append(tuple(results))
    gens = [(s, deg[0]) for s in range(smax + 1) for deg in res.gens[s]]
    return {"gens": gens, "products": products, "brackets": brackets}


def pt_check(inputs: dict, output: dict, reference: dict) -> tuple[int, int, list[str]]:
    problems: list[str] = []
    attempted = failed = 0

    def op(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            if len(problems) < 20:
                problems.append(what)

    dims = {f"{s},{t}": n for (s, t), n in sorted(Counter(output["gens"]).items())}
    op(dims == reference["ext_dims"], "Ext dimensions differ from the reference")

    by_cell: dict[str, list[int]] = {}
    values = {}
    for x, y, bits in output["products"]:
        ok = isinstance(bits, int)
        op(ok, f"product {x} * {y}: {bits}")
        if ok:
            by_cell.setdefault(f"{x[0] + y[0]},{x[1] + y[1]}", []).append(bits)
            values[(x, y)] = bits
    ranks = {cell: len(_echelon(vs)) for cell, vs in by_cell.items()}
    ranks = {cell: r for cell, r in ranks.items() if r}
    for cell in sorted(set(ranks) | set(reference["image_ranks"])):
        got, want = ranks.get(cell, 0), reference["image_ranks"].get(cell, 0)
        op(got == want, f"product image rank at {cell}: {got}, reference {want}")
    for key, want in sorted(reference["h_products"].items()):
        i, j = map(int, key.split(","))
        x, y = (1, 2**i, 0), (1, 2**j, 0)
        got = values.get((x, y))
        op(got is not None and int(got != 0) == want, f"h{i}*h{j}: {got}, reference nonzero={want}")

    for (a, b, c, _), (plain, perturbed) in zip(inputs["triples"], output["brackets"]):
        what = f"<{a},{b},{c}>: {plain} / {perturbed}"
        if plain[0] == "undefined" or perturbed[0] == "undefined":
            op(plain == perturbed, what)
        elif plain[0] == "defined" and perturbed[0] == "defined":
            _, s1, d1, bits1, ind1 = plain
            _, s2, d2, bits2, ind2 = perturbed
            span = _echelon(ind1)
            same_span = len(span) == len(_echelon(ind2)) and all(_in_span(span, v) for v in ind2)
            op((s1, d1) == (s2, d2) and same_span and _in_span(span, bits1 ^ bits2), what)
        else:
            op(False, what)
    return attempted, failed, problems


def pt_digest(output: dict) -> str:
    return _sha((output["gens"], output["products"], output["brackets"]))


# ---------------------------------------------------------------------------
# milnor-arith: cold Milnor products against the duality oracle


def monomials(max_p: int) -> dict[int, list]:
    """Milnor basis monomials (E, R) by topological degree p <= max_p,
    enumerated here rather than by the library."""
    by_degree: dict[int, list] = {}

    def r_parts(j: int, budget: int):
        # exponent tuples (r_j, r_{j+1}, ...) of degree <= budget, untrimmed
        step = 2 ** (j + 1) - 2
        if step > budget:
            yield (), 0
            return
        for k in range(budget // step + 1):
            for rest, p in r_parts(j + 1, budget - k * step):
                yield (k,) + rest, p + k * step

    def e_parts(i: int, budget: int):
        step = 2 ** (i + 1) - 1
        if step > budget:
            yield (), 0
            return
        for rest, p in e_parts(i + 1, budget):
            yield rest, p
        for rest, p in e_parts(i + 1, budget - step):
            yield (i,) + rest, p + step

    for e, pe in e_parts(0, max_p):
        for r, pr in r_parts(1, max_p - pe):
            while r and r[-1] == 0:
                r = r[:-1]
            by_degree.setdefault(pe + pr, []).append((e, r))
    return {p: sorted(ms) for p, ms in sorted(by_degree.items())}


def _stratified(by_degree: dict[int, list], arity: int, max_p: int, count: int, rng: random.Random):
    """`count` tuples of monomials with total degree <= max_p.

    The number of tuples at each total degree is fixed by the share of
    all such tuples at that degree (largest remainder), and only the
    tuples themselves are drawn; the work per run then depends little
    on the seed, because product cost is set mostly by total degree."""
    sizes = {p: len(ms) for p, ms in by_degree.items()}
    # ways[k][d]: number of k-tuples of total degree d
    ways = [{0: 1}]
    for _ in range(arity):
        nxt: dict[int, int] = {}
        for d, w in ways[-1].items():
            for p, n in sizes.items():
                if d + p <= max_p:
                    nxt[d + p] = nxt.get(d + p, 0) + w * n
        ways.append(nxt)
    total = sum(ways[arity].values())
    quota = {d: count * w / total for d, w in ways[arity].items()}
    alloc = {d: int(q) for d, q in quota.items()}
    for d in sorted(quota, key=lambda d: (alloc[d] - quota[d], d))[: count - sum(alloc.values())]:
        alloc[d] += 1
    out = []
    for d in sorted(alloc):
        for _ in range(alloc[d]):
            left, degs = d, []
            for k in range(arity, 0, -1):
                # choose this slot's degree with weight (#monomials) x (#ways to fill the rest)
                options = [(p, n * ways[k - 1].get(left - p, 0)) for p, n in sizes.items() if p <= left]
                pick = rng.choices([p for p, _ in options], weights=[w for _, w in options])[0]
                degs.append(pick)
                left -= pick
            out.append(tuple(rng.choice(by_degree[p]) for p in degs))
    rng.shuffle(out)
    return out


def ma_prepare(params: dict, seed: int, workdir: Path, reference: dict) -> dict:
    rng = random.Random(seed)
    by_degree = monomials(max(params["pair_degree"], params["triple_degree"]))
    pairs = _stratified(by_degree, 2, params["pair_degree"], params["pairs"], rng)
    triples = _stratified(by_degree, 3, params["triple_degree"], params["triples"], rng)
    return {"pairs": pairs, "triples": triples}


def ma_solve(inputs: dict) -> dict:
    E = milnor.Element
    pairs = []
    for a, b in inputs["pairs"]:
        x, y = E([a]), E([b])
        pairs.append((milnor.multiply(x, y).terms, milnor.multiply_via_duality(x, y).terms))
    triples = []
    for a, b, c in inputs["triples"]:
        x, y, z = E([a]), E([b]), E([c])
        left = milnor.multiply(milnor.multiply(x, y), z).terms
        right = milnor.multiply(x, milnor.multiply(y, z)).terms
        triples.append((left, right))
    return {"pairs": pairs, "triples": triples}


def _degree(m) -> tuple[int, int]:
    e, r = m
    p = sum(2 ** (i + 1) - 1 for i in e) + sum(x * (2 ** (j + 1) - 2) for j, x in enumerate(r, start=1))
    q = sum(2**i - 1 for i in e) + sum(x * (2**j - 1) for j, x in enumerate(r, start=1))
    return p, q


def ma_check(inputs: dict, output: dict, reference: dict) -> tuple[int, int, list[str]]:
    problems: list[str] = []
    failed = 0
    cases = list(zip(inputs["pairs"], output["pairs"])) + list(zip(inputs["triples"], output["triples"]))
    for monos, (first, second) in cases:
        want = tuple(map(sum, zip(*(_degree(m) for m in monos))))
        ok = first == second and all(_degree(m) == want for m in first)
        if not ok:
            failed += 1
            if len(problems) < 20:
                problems.append(f"{monos}: routes disagree or leave degree {want}")
    return len(cases), failed, problems


def ma_digest(output: dict) -> str:
    return _sha([[sorted(t) for t in case] for case in output["pairs"] + output["triples"]])


WORKLOADS = {
    "iso-identify": (iso_prepare, iso_solve, iso_check, iso_digest),
    "product-table": (pt_prepare, pt_solve, pt_check, pt_digest),
    "milnor-arith": (ma_prepare, ma_solve, ma_check, ma_digest),
}
