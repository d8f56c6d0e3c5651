"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured scope so a `-s` run reads as a checklist.

Run:  pytest tests/test_acceptance.py -v -s
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from isoadams import adem, charts, cobar, gf2, homological as H, isotropic as iso, milnor
from isoadams.homological import ChartClass
from isoadams.milnor import Bidegree, Element


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def triples_by_degree(max_p, count, rng, floor=20):
    """At least `count` triples of Milnor monomials of total degree <= max_p,
    drawn degree by degree: each total degree d gets its share of all
    such triples, and at least `floor` of them (or all it has), each
    drawn uniformly among the triples of total degree d."""
    by_degree = {p: [m for q in range(p + 1) for m in milnor.basis(p, q)] for p in range(max_p + 1)}
    # ways[k][d]: number of k-tuples of monomials of total degree d
    ways = [{0: 1}]
    for _ in range(3):
        ways.append({})
        for d, w in ways[-2].items():
            for p, ms in by_degree.items():
                if d + p <= max_p:
                    ways[-1][d + p] = ways[-1].get(d + p, 0) + w * len(ms)
    total = sum(ways[3].values())
    out = []
    for d, w in sorted(ways[3].items()):
        for _ in range(max(-(-count * w // total), min(floor, w))):
            left, triple = d, []
            for k in (2, 1, 0):
                # this slot's degree, weighted by how many triples it extends to
                options = [p for p in by_degree if p <= left and ways[k].get(left - p)]
                weights = [len(by_degree[p]) * ways[k][left - p] for p in options]
                p = rng.choices(options, weights)[0]
                triple.append(rng.choice(by_degree[p]))
                left -= p
            out.append(tuple(triple))
    return out


def products_via_duality(p, q):
    """Every product of monomials landing in bidegree (q)[p], as
    {(a, b): set of w}: one pass over the dual basis there, since
    <ab, w> = <a (x) b, psi(w)> (the batched form of
    `milnor.multiply_via_duality`)."""
    table = {}
    for w in milnor.dual_basis(p, q):
        for pair in milnor.dual_coproduct(w):
            table.setdefault(pair, set()).symmetric_difference_update({w})
    return table


def test_criterion_1_product_oracle_and_associativity():
    t0 = time.time()
    max_p = 32
    pairs = 0
    for p in range(max_p + 1):
        for q in range(p + 1):
            expected = products_via_duality(p, q)
            for pa in range(p + 1):
                for qa in range(pa + 1):
                    for a in milnor.basis(pa, qa):
                        for b in milnor.basis(p - pa, q - qa):
                            got = milnor.multiply(Element([a]), Element([b]))
                            assert got.terms == frozenset(expected.get((a, b), ())), (a, b)
                            pairs += 1
    assert pairs == 22_500
    triples = 0
    for a, b, c in triples_by_degree(40, 10_000, random.Random(2024)):
        ea, eb, ec = Element([a]), Element([b]), Element([c])
        assert milnor.multiply(milnor.multiply(ea, eb), ec) == milnor.multiply(
            ea, milnor.multiply(eb, ec)
        )
        triples += 1
    assert triples >= 10_000
    elapsed = time.time() - t0
    assert elapsed < 60, f"runtime target exceeded: {elapsed:.1f}s"
    report(1, f"{pairs} exhaustive oracle pairs (p<={max_p}), {triples} associativity triples (p<=40) in {elapsed:.1f}s")


def test_criterion_2_commutator_formula():
    checked = 0
    for k in range(6):
        for w in range(0, 21):
            for r in milnor.p_exponents_of_weight(w):
                lhs = milnor.multiply(milnor.Q(k), milnor.P(*r)) + milnor.multiply(
                    milnor.P(*r), milnor.Q(k)
                )
                rhs = milnor.ZERO
                for j in range(1, len(r) + 1):
                    if r[j - 1] >= 2**k:
                        lowered = list(r)
                        lowered[j - 1] -= 2**k
                        rhs = rhs + Element([((k + j,), milnor.trim(lowered))])
                assert lhs == rhs, (k, r)
                checked += 1
    report(2, f"commutator rule exact for k<=5 on {checked} P-exponents of degree <= 40")


def test_criterion_3_basis_theorem():
    monomials = 0
    for p in range(0, 41):
        for q in range(0, p + 1):
            basis = set(milnor.basis(p, q))
            image = set()
            for m in basis:
                e = Element([m])
                pr = milnor.qepr_to_prqe(e)
                assert milnor.prqe_to_qepr(pr) == e, m
                image |= set(pr.pairs)
            # the PRQE pairs occurring in a bidegree are exactly the
            # (E, R) shapes of that bidegree: equal counts, square
            # conversion matrices
            assert image == basis, (p, q)
            monomials += len(basis)
    report(3, f"round-trip identity and equal counts on {monomials} monomials through degree 40")


def test_criterion_4_doubling_isomorphism():
    relations = 0
    for s in range(1, 20):
        for r in range(1, 2 * s):
            if r + s > 20:
                continue
            lhs = milnor.multiply(milnor.P(r), milnor.P(s))
            rhs = milnor.ZERO
            for t in range(0, r // 2 + 1):
                if adem.binom2(s - t - 1, r - 2 * t):
                    rhs = rhs + milnor.multiply(milnor.P(r + s - t), milnor.P(t) if t else milnor.ONE)
            assert lhs == rhs, (r, s)
            relations += 1
    lucas = 0
    for r in range(0, 21):
        for s in range(0, 21 - r):
            for t in range(0, r // 2 + 1):
                left, right = adem.verify_lucas(r, s, t)
                assert left == right
                lucas += 1
    report(4, f"{relations} doubled Adem relations hold through Milnor multiplication; {lucas} Lucas identities")


def test_criterion_5_recursive_milnor_operations():
    for i in range(5):
        assert adem.q_from_squares(i) == milnor.Q(i), i
    report(5, "Q_i from the square recursion equals the basis monomial for i <= 4")


def test_criterion_6_action_tables():
    table = iso.solve_action_table(n_max=4, w_max=9)
    for j in range(5):
        for i in range(5):
            assert iso.q_action(j, (i,)) == (iso.H_ONE if i == j else iso.H_ZERO)
    for j in range(1, 5):
        for i in range(5):
            expected = frozenset([(i - 1,)]) if i == j else iso.H_ZERO
            assert iso.sq_action(j, (i,), table) == expected, (j, i)
    assert iso.sq_action(0, (0,), table) == iso.H_ONE
    for i in range(1, 5):
        assert iso.sq_action(0, (i,), table) == iso.H_ZERO
    report(6, "Milnor-operation and square generator tables reproduced cell-by-cell for i, j <= 4")


def test_criterion_7_ext_engine_vs_cobar():
    t0 = time.time()
    cres = H.resolve(H.algebra_for("classical", 14), smax=8, pmax=12)
    cchart = H.ext_chart_field(cres)
    coracle = cobar.cobar_ext(cobar.dual_coalgebra("classical"), smax=8, pmax=12)
    for s in range(9):
        for t in range(13):
            assert cchart.dim(s, (t,)) == coracle.dim(s, (t,)), (s, t)
    ares = H.resolve(H.algebra_for("A0", 14), smax=8, pmax=12)
    achart = H.ext_chart_field(ares)
    aoracle = cobar.cobar_ext(cobar.dual_coalgebra("A0"), smax=8, pmax=12)
    cells = {c for c in set(achart.cells) | set(aoracle.cells) if c[1][0] <= 12}
    for c in cells:
        assert achart.cells.get(c, 0) == aoracle.cells.get(c, 0), c
    elapsed = time.time() - t0
    assert elapsed < 600, f"runtime target exceeded: {elapsed:.1f}s"
    report(7, f"resolution dims equal cobar dims (classical s<=8 t<=12; generalized p<=12) in {elapsed:.1f}s")


def test_criterion_8_main_theorem_desk_scale():
    t0 = time.time()
    smax, tmax_cl = 8, 22  # covers classical stems <= 14 in every computed filtration
    # the window `isoadams isotropic --tmax 44` uses; isotropic_chart
    # raises unless the action table is unique
    window = iso.IsotropicWindow(-(2 * tmax_cl + 2))
    ichart = iso.isotropic_chart(window, smax, 2 * tmax_cl)
    for (s, deg), dim in ichart.nonzero_cells():
        assert deg[0] == 2 * deg[1], f"support off the t = 2u line at {(s, deg)}"
    cchart = H.ext_chart_field(H.resolve(H.algebra_for("classical", tmax_cl + 2), smax=smax, pmax=tmax_cl))
    rep = charts.compare_doubling(cchart, ichart)
    assert rep.ok, rep.mismatches
    # every cell with classical stem <= 14 is non-truncated
    for s in range(smax + 1):
        for stem in range(15):
            t = stem + s
            if t <= tmax_cl:
                assert (s, (2 * t, t)) not in ichart.truncated, (s, t)
    van = charts.vanishing_check(ichart)
    assert van.ok, van.violations
    elapsed = time.time() - t0
    report(
        8,
        f"isotropic chart = doubled classical chart on {rep.checked} cells "
        f"(stems <= 14, s <= {smax}), vanishing regions clean, unique action table, {elapsed:.1f}s",
    )


def test_criterion_9_injectivity_and_hom_lemmas():
    for n in (0, 1, 2):
        rep = iso.baer_injectivity_check(n, ideal_samples=1, seed=5)
        assert rep.ok, rep.failures
    rep3 = iso.baer_injectivity_check(3, ideal_samples=200, seed=5)
    assert rep3.ok and rep3.ideals_checked >= 200
    window = iso.IsotropicWindow(-20)
    table = iso.solve_action_table(3, 8)
    rng = random.Random(99)
    pool = [Bidegree(2 * q, q) for q in range(4)] + [Bidegree(2 * q + 1, q) for q in range(3)]
    from conftest import random_trivial_module

    checked = 0
    for _ in range(100):
        N = random_trivial_module(rng, 3, pool, unit=milnor.UNIT_MONO)
        Np = random_trivial_module(rng, 3, pool, unit=milnor.UNIT_MONO)
        hc = iso.hom_comparison_check(N, Np, table, window)
        assert hc.ok, (N.degrees(), Np.degrees())
        checked += 1
    report(9, f"Baer extension exhaustive (n<=2) + {rep3.ideals_checked} sampled ideals (n=3); {checked} Hom comparisons")


def test_criterion_10_higher_products():
    res = H.resolve(H.algebra_for("classical", 14), smax=8, pmax=12)
    cx = cobar.CobarComplex(cobar.dual_coalgebra("classical"), 8, 12)
    hs = {i: ChartClass(1, (2**i,), 1) for i in range(4)}

    def cobar_h(i):
        basis = cx.tensor_basis(1, (2**i,))
        return 1 << basis.index((((), (2**i,)),))

    products = 0
    for i in range(4):
        for j in range(4):
            if 2**i + 2**j > 12:
                continue
            ours = H.yoneda_product(res, hs[i], hs[j])
            w = cobar.concat(cx, 1, (2**i,), cobar_h(i), 1, (2**j,), cobar_h(j))
            oracle = cx.class_vector(2, (2**i + 2**j,), w)
            assert bool(ours.bits) == bool(oracle), (i, j)
            products += 1
    got = H.massey_triple(res, hs[0], hs[1], hs[0])
    assert got.indeterminacy == []
    h1sq = H.yoneda_product(res, hs[1], hs[1])
    assert got.bits == h1sq.bits and got.bits != 0
    oracle_bracket = cobar.massey_in_cobar(
        cx, (1, (1,), cobar_h(0)), (1, (2,), cobar_h(1)), (1, (1,), cobar_h(0))
    )
    h1sq_cobar = cx.class_vector(2, (4,), cobar.concat(cx, 1, (2,), cobar_h(1), 1, (2,), cobar_h(1)))
    assert oracle_bracket.class_bits == h1sq_cobar and oracle_bracket.indeterminacy_rank == 0
    report(10, f"{products} h-family Yoneda products match the cobar oracle; <h0,h1,h0> = h1^2 with zero indeterminacy in both engines")


def test_criterion_10_bracket_with_indeterminacy():
    # <h0, h1^2, h0> in Ext^{3,6}: both products vanish and the
    # indeterminacy h0 Ext^{2,5} + Ext^{2,5} h0 is nonzero, so the cobar
    # oracle has to handle nonempty indeterminacy cells
    res = H.resolve(H.algebra_for("classical", 14), smax=8, pmax=12)
    cx = cobar.CobarComplex(cobar.dual_coalgebra("classical"), 8, 12)
    h0, h1 = ChartClass(1, (1,), 1), ChartClass(1, (2,), 1)
    h1sq = H.yoneda_product(res, h1, h1)
    assert h1sq.bits

    def cobar_h(i):
        basis = cx.tensor_basis(1, (2**i,))
        return 1 << basis.index((((), (2**i,)),))

    h1sq_cocycle = cobar.concat(cx, 1, (2,), cobar_h(1), 1, (2,), cobar_h(1))
    oracle = cobar.massey_in_cobar(cx, (1, (1,), cobar_h(0)), (2, (4,), h1sq_cocycle), (1, (1,), cobar_h(0)))
    assert (oracle.s, oracle.deg) == (3, (6,))
    assert oracle.class_bits == 0 and oracle.indeterminacy_rank == 1
    # Ext^{3,6} is one-dimensional in both engines, so zero and nonzero
    # identify the classes across their bases
    dim = cx.cohomology_dim(3, (6,))
    assert dim == res.gen_count(3, (6,)) == 1
    oracle_coset = {0, 1} if oracle.indeterminacy_rank else {oracle.class_bits}
    for rng in (None, random.Random(7)):
        got = H.massey_triple(res, h0, h1sq, h0, rng=rng)
        assert (got.s, got.deg) == (3, (6,))
        assert len(got.indeterminacy) == oracle.indeterminacy_rank
        assert got.coset() == oracle_coset
    report(10, "<h0,h1^2,h0> in Ext^{3,6}: engine (canonical and perturbed homotopy) and cobar oracle agree, indeterminacy rank 1")


@pytest.mark.parametrize("flavor", ["G", "A0"])
def test_criterion_10_doubled_bracket_with_indeterminacy(flavor):
    # the doubled <h0, h1^2, h0> at (s, t, u) = (3, 12, 6) over G and A0:
    # the null-homotopy path, canonical and perturbed, against the cobar
    # oracle of the same dual coalgebra, with nonzero indeterminacy
    res = H.resolve(H.algebra_for(flavor, 14), smax=4, pmax=12)
    cx = cobar.CobarComplex(cobar.dual_coalgebra(flavor), 3, 12)
    h0, h1 = ChartClass(1, (2, 1), 1), ChartClass(1, (4, 2), 1)
    h1sq = H.yoneda_product(res, h1, h1)
    assert h1sq.bits

    def cobar_h(i):
        basis = cx.tensor_basis(1, (2 ** (i + 1), 2**i))
        return 1 << basis.index((((), (2**i,)),))

    h1sq_cocycle = cobar.concat(cx, 1, (4, 2), cobar_h(1), 1, (4, 2), cobar_h(1))
    assert cx.class_vector(2, (8, 4), h1sq_cocycle)
    oracle = cobar.massey_in_cobar(cx, (1, (2, 1), cobar_h(0)), (2, (8, 4), h1sq_cocycle), (1, (2, 1), cobar_h(0)))
    assert (oracle.s, oracle.deg) == (3, (12, 6))
    assert oracle.indeterminacy_rank == 1
    # one-dimensional in both engines, so zero and nonzero identify the
    # classes across their bases
    assert cx.cohomology_dim(3, (12, 6)) == res.gen_count(3, (12, 6)) == 1
    oracle_coset = {0, 1} if oracle.indeterminacy_rank else {oracle.class_bits}
    for rng in (None, random.Random(7)):
        got = H.massey_triple(res, h0, h1sq, h0, rng=rng)
        assert (got.s, got.deg) == (3, (12, 6))
        assert len(got.indeterminacy) == oracle.indeterminacy_rank
        assert got.coset() == oracle_coset
    report(10, f"doubled <h0,h1^2,h0> over {flavor}: engine (canonical and perturbed homotopy) and cobar oracle agree, indeterminacy rank 1")


# The peak resident memory of a run alone, printed as its last line.
# Linux carries the peak of the process that spawned it over exec into
# ru_maxrss, so the high-water mark of its own address space (VmHWM) is
# read where there is one.
PEAK_RSS_TAIL = (
    "try:\n"
    "    with open('/proc/self/status') as f:\n"
    "        kb = next(int(l.split()[1]) for l in f if l.startswith('VmHWM:'))\n"
    "except (OSError, StopIteration):\n"
    "    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "print('peak_rss_kb', kb)\n"
)

ISOTROPIC_SCRIPT = (
    "import resource, sys\n"
    "from isoadams import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    + PEAK_RSS_TAIL
    + "sys.exit(code)\n"
)

# Every Yoneda product xy of generator classes x, y of a classical
# resolution to t <= tmax, s <= smax, with s and t of xy in the window:
# prints their number, how many are nonzero, the products phase's time
# and the first pair with xy != yx, if any.
PRODUCTS_SCRIPT = (
    "import resource, sys, time\n"
    "from isoadams import homological as H\n"
    "tmax, smax = map(int, sys.argv[1:])\n"
    "res = H.resolve(H.algebra_for('classical', tmax + 2), smax=smax, pmax=tmax)\n"
    "classes = [H.class_of_generator(res, s, deg, n) for s in range(1, smax + 1)\n"
    "           for deg in sorted(set(res.gens[s])) for n in range(res.gen_count(s, deg))]\n"
    "t0 = time.process_time()\n"
    "products = {(x, y): H.yoneda_product(res, x, y) for x in classes for y in classes\n"
    "            if x.s + y.s <= smax and x.deg[0] + y.deg[0] <= tmax}\n"
    "print('products', len(products), sum(not p.is_zero() for p in products.values()), time.process_time() - t0)\n"
    "print('noncommuting', next(((x, y) for (x, y), xy in products.items() if xy != products[(y, x)]), None))\n"
    + PEAK_RSS_TAIL
)

# The Lambda-algebra oracle (tests/lambda_algebra.py, whose directory is
# the first argument) against the classical resolve chart to t <= tmax,
# s <= smax: prints the number of nonzero cells and those that differ.
LAMBDA_SCRIPT = (
    "import resource, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import lambda_algebra as L\n"
    "from isoadams import homological as H\n"
    "tmax, smax = map(int, sys.argv[2:])\n"
    "res = H.resolve(H.algebra_for('classical', tmax), smax=smax, pmax=tmax)\n"
    "chart = {(s, deg[0]): d for (s, deg), d in H.ext_chart_field(res).cells.items() if d}\n"
    "dims = L.ext_dims(smax, tmax)\n"
    "print('cells', sum(1 for s, _ in dims if s >= 1))\n"
    "print('differ', sorted(set(dims.items()) ^ set(chart.items())))\n"
    + PEAK_RSS_TAIL
)


def run_alone(script, *args):
    """Run a script in its own process with `src` on the path, so that
    its peak resident memory is its own: (completed process, elapsed s,
    peak RSS MB)."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    t0 = time.time()
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env)
    elapsed = time.time() - t0
    out = proc.stdout.splitlines()
    assert out and out[-1].startswith("peak_rss_kb"), proc.stderr
    return proc, elapsed, int(out[-1].split()[1]) / 1024


def run_isotropic_alone(*args):
    """`isoadams isotropic ARGS` in its own process: (stdout lines,
    elapsed s, peak RSS MB)."""
    proc, elapsed, peak_mb = run_alone(ISOTROPIC_SCRIPT, "isotropic", *args)
    out = proc.stdout.splitlines()
    assert "verdict: MATCH" in out, proc.stderr
    assert "vanishing regions: ok" in out
    assert proc.returncode == 0
    return out, elapsed, peak_mb


def check_products_commute(tmax, smax):
    """Ext over a cocommutative Hopf algebra is commutative: xy = yx for
    every ordered pair of generator classes of the classical chart to t
    <= tmax, s <= smax, run alone.  (products, nonzero products, products
    phase s, elapsed s, peak RSS MB)."""
    proc, elapsed, peak_mb = run_alone(PRODUCTS_SCRIPT, str(tmax), str(smax))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    _, count, nonzero, products_s = lines[0].split()
    assert lines[1] == "noncommuting None", lines[1]
    return int(count), int(nonzero), float(products_s), elapsed, peak_mb


def test_products_commute_to_classical_t40():
    count, nonzero, products_s, elapsed, peak_mb = check_products_commute(40, 12)
    assert (count, nonzero) == (3934, 702)
    report("10 (t <= 40)", f"xy = yx for all {count} products ({nonzero} nonzero) of generator classes to classical t <= 40, s <= 12; products {products_s:.2f}s of {elapsed:.1f}s, peak RSS {peak_mb:.0f} MB")


@pytest.mark.slow
def test_identification_to_classical_t40(hom_route_chart, tmp_path):
    # the t <= 40 rung, `isoadams isotropic --tmax 80 --smax 14`, and the
    # Hom route at the same window, cell for cell
    out_file = tmp_path / "iso.json"
    _, elapsed, peak_mb = run_isotropic_alone(
        "--tmax", "80", "--smax", "14", "--format", "json", "--out", str(out_file))
    assert peak_mb < 300, f"peak RSS {peak_mb:.0f} MB"
    dual = charts.from_json(out_file.read_text())
    hom = hom_route_chart(iso.IsotropicWindow(-82), 14, 80)
    assert dual.cells == {c: d for c, d in hom.cells.items() if d}
    assert not dual.truncated and not hom.truncated
    report("8 (t <= 40)", f"isotropic chart = doubled classical chart to classical t <= 40, s <= 14, in {elapsed:.1f}s, peak RSS {peak_mb:.0f} MB; the dual and Hom routes agree on every cell")


@pytest.mark.slow
def test_identification_to_classical_t48():
    # the t <= 48 rung: `isoadams isotropic --tmax 96 --smax 16`
    _, elapsed, peak_mb = run_isotropic_alone("--tmax", "96", "--smax", "16")
    assert peak_mb < 100, f"peak RSS {peak_mb:.0f} MB"
    report("8 (t <= 48)", f"isotropic chart = doubled classical chart to classical t <= 48, s <= 16, in {elapsed:.1f}s, peak RSS {peak_mb:.0f} MB")


@pytest.mark.slow
def test_identification_to_classical_t64():
    # the t <= 64 rung: `isoadams isotropic --tmax 128 --smax 20`
    _, elapsed, peak_mb = run_isotropic_alone("--tmax", "128", "--smax", "20")
    assert peak_mb < 300, f"peak RSS {peak_mb:.0f} MB"
    report("8 (t <= 64)", f"isotropic chart = doubled classical chart to classical t <= 64, s <= 20, in {elapsed:.1f}s, peak RSS {peak_mb:.0f} MB")


@pytest.mark.slow
def test_identification_to_classical_t72():
    # the t <= 72 rung: `isoadams isotropic --tmax 144 --smax 22`
    _, elapsed, peak_mb = run_isotropic_alone("--tmax", "144", "--smax", "22")
    assert peak_mb < 600, f"peak RSS {peak_mb:.0f} MB"
    report("8 (t <= 72)", f"isotropic chart = doubled classical chart to classical t <= 72, s <= 22, in {elapsed:.1f}s, peak RSS {peak_mb:.0f} MB")


@pytest.mark.slow
def test_products_commute_to_classical_t64():
    count, nonzero, products_s, elapsed, peak_mb = check_products_commute(64, 16)
    assert (count, nonzero) == (20992, 2255)
    assert peak_mb < 200, f"peak RSS {peak_mb:.0f} MB"
    report("10 (t <= 64)", f"xy = yx for all {count} products ({nonzero} nonzero) of generator classes to classical t <= 64, s <= 16; products {products_s:.2f}s of {elapsed:.1f}s, peak RSS {peak_mb:.0f} MB")


@pytest.mark.slow
def test_lambda_oracle_to_classical_t28():
    # the Lambda algebra's homology equals the classical resolve chart in
    # every cell with s <= 12 and t <= 28
    proc, elapsed, peak_mb = run_alone(LAMBDA_SCRIPT, str(Path(__file__).resolve().parent), "28", "12")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["cells 69", "differ []"], lines
    assert peak_mb < 800, f"peak RSS {peak_mb:.0f} MB"
    report("7 (Lambda, t <= 28)", f"Lambda-algebra homology = classical resolve chart in all cells to t <= 28, s <= 12 (69 nonzero with s >= 1), in {elapsed:.1f}s, peak RSS {peak_mb:.0f} MB")
