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


def all_monos(max_p):
    out = []
    for p in range(max_p + 1):
        for q in range(p + 1):
            out.extend(milnor.basis(p, q))
    return out


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


def test_criterion_1_product_oracle_and_associativity():
    t0 = time.time()
    monos24 = all_monos(24)
    degs = {m: milnor.mono_degree(m).p for m in monos24}
    pairs = 0
    for a in monos24:
        for b in monos24:
            if degs[a] + degs[b] > 24:
                continue
            ea, eb = Element([a]), Element([b])
            assert milnor.multiply(ea, eb) == milnor.multiply_via_duality(ea, eb), (a, b)
            pairs += 1
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
    report(1, f"{pairs} exhaustive oracle pairs (p<=24), {triples} associativity triples (p<=40) in {elapsed:.1f}s")


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
    window = iso.window_for_depth(-(2 * tmax_cl + 2))
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
    rep3 = iso.baer_injectivity_check(3, ideal_samples=200, seed=5, exhaustive=False)
    assert rep3.ok and rep3.ideals_checked >= 200
    window = iso.IsotropicWindow(3, -20)
    table = iso.solve_action_table(3, 8)
    rng = random.Random(99)
    pool = [Bidegree(2 * q, q) for q in range(4)] + [Bidegree(2 * q + 1, q) for q in range(3)]
    from isoadams.modules import random_trivial_module

    checked = 0
    for _ in range(100):
        N = random_trivial_module(rng, 3, pool)
        Np = random_trivial_module(rng, 3, pool)
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


PEAK_RSS_SCRIPT = (
    "import resource, sys\n"
    "from isoadams import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print('peak_rss_kb', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    "sys.exit(code)\n"
)


@pytest.mark.slow
def test_identification_to_classical_t40():
    # the t <= 40 rung: `isoadams isotropic --tmax 80 --smax 14`, in its
    # own process so that its peak resident memory is its own
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, "isotropic", "--tmax", "80", "--smax", "14"],
        capture_output=True, text=True, env=env,
    )
    elapsed = time.time() - t0
    out = proc.stdout.splitlines()
    assert "verdict: MATCH" in out, proc.stderr
    assert "vanishing regions: ok" in out
    assert proc.returncode == 0
    peak_mb = int(out[-1].split()[1]) / 1024
    assert peak_mb < 300, f"peak RSS {peak_mb:.0f} MB"
    report("8 (t <= 40)", f"isotropic chart = doubled classical chart to classical t <= 40, s <= 14, in {elapsed:.1f}s, peak RSS {peak_mb:.0f} MB")
