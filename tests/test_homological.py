import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from isoadams import adem, charts, cobar, gf2, homological as H, isotropic as iso, milnor
from isoadams.homological import ChartClass
from isoadams.milnor import Bidegree
from isoadams.modules import dual_module, trivial_module

from conftest import (
    ExteriorDualCoalgebra,
    ExteriorMilnorAlgebra,
    cell_basis,
    decode,
    diff_rows,
    differential,
    random_trivial_module,
    reference_cell,
    reference_runs,
)


@pytest.fixture(scope="module")
def classical_res():
    return H.resolve(H.algebra_for("classical", 16), smax=8, pmax=14)


@pytest.fixture(scope="module")
def classical_chart(classical_res):
    return H.ext_chart_field(classical_res)


@pytest.fixture(scope="module")
def classical_cobar():
    return cobar.cobar_ext(cobar.dual_coalgebra("classical"), smax=8, pmax=12)


# ---------------------------------------------------------------------------
# resolution basics


def koszul_exterior_oracle(smax):
    """Independent check for Lambda(Q_0): the (commutative, local) ring
    F2[x]/x^2 has the periodic resolution ... -> R -> R -> R with d = x,
    so one generator per homological degree at degree s * deg(Q_0)."""
    return [[(s, 0)] for s in range(smax + 1)]


def test_exterior_koszul_pattern():
    res = H.resolve(ExteriorMilnorAlgebra(0, 12), smax=6, pmax=12)
    assert [res.gens[s] for s in range(7)] == koszul_exterior_oracle(6)
    # each differential is multiplication by Q_0
    for s in range(1, 6):
        assert differential(res, s, 0) == {0: frozenset([(0,)])}


def test_resolution_of_nontrivial_module():
    # two shifted copies of the ground field over the exterior algebra:
    # the resolution splits as two Koszul strands
    from isoadams.milnor import Bidegree
    from isoadams.modules import trivial_module

    algebra = ExteriorMilnorAlgebra(0, 10)
    module = trivial_module([Bidegree(0, 0), Bidegree(1, 0)], unit=algebra.unit)
    res = H.resolve(algebra, smax=4, pmax=8, target=module)
    for s in range(5):
        assert sorted(res.gens[s]) == [(s, 0), (s + 1, 0)]
    # the exterior unit acts, so d_0 is onto each copy of the field
    for deg in ((0, 0), (1, 0)):
        rows, cod = diff_rows(res, 0, deg)
        assert gf2.rank_ints(rows, len(cod)) == len(cod) == 1


TWO_DEGREE_TARGETS = {
    # algebra, two degrees where a trivial module sits
    "classical": (lambda: H.algebra_for("classical", 10), [(0,), (3,)]),
    "G": (lambda: H.algebra_for("G", 10), [(0, 0), (4, 2)]),
    "A0": (lambda: H.algebra_for("A0", 10), [(0, 0), (3, 1)]),
    "exterior": (lambda: ExteriorMilnorAlgebra(1, 10), [(0, 0), (1, 0)]),
}


@pytest.mark.parametrize("flavor", sorted(TWO_DEGREE_TARGETS))
def test_trivial_target_d0_full_rank(flavor):
    # each algebra's own unit acts as the identity on a trivial module,
    # so d_0 maps onto the target in each of its degrees
    from isoadams.modules import trivial_module

    make, degs = TWO_DEGREE_TARGETS[flavor]
    algebra = make()
    target = trivial_module(degs, unit=algebra.unit)
    res = H.resolve(algebra, smax=2, pmax=8, target=target)
    for deg in degs:
        rows, cod = diff_rows(res, 0, deg)
        assert len(cod) == len(target.basis_at(deg)) == 1
        assert gf2.rank_ints(rows, len(cod)) == len(cod), deg


@pytest.mark.parametrize("flavor", ["classical", "G", "A0"])
def test_default_target_is_the_ground_field(flavor):
    # one FiniteModule key at the algebra's zero degree, fixed by the unit
    res = H.resolve(H.algebra_for(flavor, 4), smax=1, pmax=2)
    zero = (0,) * res.algebra.grading
    (key,) = res.target.keys
    assert res.target.basis_at(zero) == (key,)
    assert res.target.act_mono(res.algebra.unit, key) == frozenset([key])
    rows, cod = diff_rows(res, 0, zero)
    assert rows == [1] and cod == (key,)
    assert res.gens[0] == [zero]


def test_top_level_entry_points_match_internals():
    import isoadams

    assert isoadams.resolve is H.resolve
    assert isoadams.ext_chart_field is H.ext_chart_field
    assert isoadams.ext_chart_coefficients is H.ext_chart_coefficients
    assert isoadams.solve_action_table is iso.solve_action_table
    assert isoadams.isotropic_chart is iso.isotropic_chart
    assert iso.WindowExceededError is H.WindowExceededError


def test_d_squared_zero(classical_res):
    res = classical_res
    for s in range(2, res.smax + 1):
        for i in range(len(res.gens[s])):
            out: dict = {}
            for j, coeffs in differential(res, s, i).items():
                for jj, coeffs2 in differential(res, s - 1, j).items():
                    acc = out.setdefault(jj, set())
                    for m in coeffs:
                        for n in coeffs2:
                            acc ^= res.algebra.multiply(m, n)
            assert all(not v for v in out.values()), (s, i)


def test_minimality_no_unit_coefficients(classical_res):
    unit = classical_res.algebra.unit
    for s in range(1, classical_res.smax + 1):
        for i in range(len(classical_res.gens[s])):
            for coeffs in differential(classical_res, s, i).values():
                assert unit not in coeffs


def test_exactness_spot_check(classical_res):
    # rank(d_s) + rank(d_{s+1}) accounts for the whole cell between two
    # stages: ker d_s = im d_{s+1} within the window
    res = classical_res
    for s in range(1, 6):
        for t in range(0, 13):
            rows, cod = diff_rows(res, s, (t,))
            dom = cell_basis(res, s, (t,))
            kernel = len(dom) - gf2.rank_ints(rows, max(len(cod), 1))
            rows_up, _ = diff_rows(res, s + 1, (t,))
            image = gf2.rank_ints(rows_up, max(len(dom), 1))
            assert kernel == image, (s, t)


RESOLUTIONS = {
    "classical": lambda: H.resolve(H.algebra_for("classical", 16), smax=6, pmax=14),
    "A0": lambda: H.resolve(H.algebra_for("A0", 12), smax=5, pmax=10),
}


@pytest.fixture(scope="module", params=sorted(RESOLUTIONS))
def small_res(request):
    return RESOLUTIONS[request.param]()


def _all_cells(res):
    return [deg for p in range(res.pmax + 1) for deg in res.algebra.cells_at(p)]


def _combine(rows, x):
    """x M: the xor of the rows selected by the bits of x."""
    acc = 0
    for n, row in enumerate(rows):
        if (x >> n) & 1:
            acc ^= row
    return acc


def test_cell_d_squared_zero_and_exact(small_res):
    # per cell: d_s d_{s+1} = 0, d_0 onto the target, and
    # dim ker d_s = rank d_{s+1} (exactness at F_s), s <= smax
    res = small_res
    for deg in _all_cells(res):
        rows0, target = diff_rows(res, 0, deg)
        assert gf2.rank_ints(rows0, max(len(target), 1)) == len(target), deg
        for s in range(res.smax + 1):
            rows, cod = diff_rows(res, s, deg)
            rows_up, _ = diff_rows(res, s + 1, deg)
            dom = cell_basis(res, s, deg)
            assert not any(_combine(rows, r) for r in rows_up), (s, deg)
            kernel = len(dom) - gf2.rank_ints(rows, max(len(cod), 1))
            assert kernel == gf2.rank_ints(rows_up, max(len(dom), 1)), (s, deg)
            cell_kernel = res.cell_kernel(s, deg)
            assert len(cell_kernel) == kernel, (s, deg)
            assert not any(_combine(rows, z) for z in cell_kernel), (s, deg)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_in_cell_maps_to_rhs(small_res, data):
    res = small_res
    cells = [(s, deg) for deg in _all_cells(res) for s in range(1, res.smax + 2) if cell_basis(res, s, deg)]
    s, deg = data.draw(st.sampled_from(cells))
    rows, cod = diff_rows(res, s, deg)
    rhs = _combine(rows, data.draw(st.integers(0, (1 << len(rows)) - 1)))
    y = res.solve_in_cell(s, deg, rhs)
    assert y is not None and _combine(rows, y) == rhs
    other = data.draw(st.integers(0, (1 << len(cod)) - 1)) if cod else 0
    solvable = gf2.rank_ints(rows + [other], max(len(cod), 1)) == gf2.rank_ints(rows, max(len(cod), 1))
    assert (res.solve_in_cell(s, deg, other) is not None) == solvable
    # the block decode agrees with the flat cell basis
    x = data.draw(st.integers(0, (1 << len(rows)) - 1))
    flat: dict = {}
    for n, (j, m) in enumerate(cell_basis(res, s, deg)):
        if (x >> n) & 1:
            flat.setdefault(j, set()).add(m)
    assert decode(res, s, deg, x) == {j: frozenset(v) for j, v in flat.items()}


# ---------------------------------------------------------------------------
# charts vs the cobar oracle


def test_classical_ext_low_filtration(classical_chart):
    ones = sorted(deg[0] for (s, deg), v in classical_chart.cells.items() if s == 1 for _ in range(v))
    assert [t for t in ones if t <= 12] == [1, 2, 4, 8]
    assert classical_chart.dim(0, (0,)) == 1


def test_resolution_matches_cobar_classical(classical_chart, classical_cobar):
    for s in range(9):
        for t in range(13):
            assert classical_chart.dim(s, (t,)) == classical_cobar.dim(s, (t,)), (s, t)


def test_resolution_matches_cobar_generalized():
    res = H.resolve(H.algebra_for("A0", 13), smax=8, pmax=12)
    rchart = H.ext_chart_field(res)
    cchart = cobar.cobar_ext(cobar.dual_coalgebra("A0"), smax=8, pmax=12)
    cells = {c for c in set(rchart.cells) | set(cchart.cells) if c[1][0] <= 12}
    for c in cells:
        assert rchart.cells.get(c, 0) == cchart.cells.get(c, 0), c


def test_exterior_cobar_diagonal():
    chart = cobar.cobar_ext(ExteriorDualCoalgebra(0), smax=5, pmax=6)
    for s in range(6):
        assert chart.dim(s, (s, 0)) == 1
    assert sum(chart.cells.values()) == 6


def test_cobar_smax_zero():
    chart = cobar.cobar_ext(cobar.dual_coalgebra("classical"), smax=0, pmax=4)
    assert chart.cells == {(0, (0,)): 1}


def bar_complex_tor_dims(tmax, smax):
    """Brute-force Tor via the (non-reduced is unnecessary) bar complex
    of the classical algebra: B_s = (positive part)^{tensor s} with the
    multiplication-collapse differential."""
    monos = {t: list(adem_words(t)) for t in range(1, tmax + 1)}

    def tensors(s, t):
        if s == 0:
            return [()] if t == 0 else []
        out = []
        for d in range(1, t - s + 2):
            for m in monos.get(d, []):
                for tail in tensors(s - 1, t - d):
                    out.append(((d, m),) + tail)
        return out

    from isoadams import adem as A

    dims = {}
    for t in range(0, tmax + 1):
        spaces = {s: tensors(s, t) for s in range(smax + 2)}
        ranks = {}
        for s in range(1, smax + 2):
            dom = spaces[s]
            cod = spaces[s - 1]
            cod_index = {x: n for n, x in enumerate(cod)}
            rows = []
            for tensor in dom:
                row = 0
                for i in range(len(tensor) - 1):
                    (d1, m1), (d2, m2) = tensor[i], tensor[i + 1]
                    for prod in A.reduce_word(m1 + m2, A.CLASSICAL):
                        t2 = tensor[:i] + ((d1 + d2, prod),) + tensor[i + 2 :]
                        row ^= 1 << cod_index[t2]
                rows.append(row)
            ranks[s] = gf2.rank_ints(rows, max(len(cod), 1))
        for s in range(0, smax + 1):
            dim = len(spaces[s]) - ranks.get(s, 0) - ranks.get(s + 1, 0)
            dims[(s, t)] = dim
    return dims


def adem_words(t):
    from isoadams import adem as A

    return A.admissible_words(A.CLASSICAL, t)


def test_euler_characteristic_vs_bar_complex(classical_chart):
    # alternating sums per degree match the brute-force Tor computation
    tor = bar_complex_tor_dims(tmax=8, smax=8)
    for t in range(0, 9):
        res_sum = sum((-1) ** s * classical_chart.dim(s, (t,)) for s in range(9))
        tor_sum = sum((-1) ** s * tor[(s, t)] for s in range(9))
        assert res_sum == tor_sum, t
        # minimal resolutions actually realize Tor dimension by dimension
        for s in range(9):
            assert classical_chart.dim(s, (t,)) == tor[(s, t)], (s, t)


# ---------------------------------------------------------------------------
# products


def test_yoneda_unit_acts_trivially(classical_res, classical_chart):
    one = ChartClass(0, (0,), 1)
    h2 = ChartClass(1, (4,), 1)
    assert H.yoneda_product(classical_res, one, h2) == h2
    assert H.yoneda_product(classical_res, h2, one) == h2


def test_yoneda_h_products_match_cobar(classical_res):
    cx = cobar.CobarComplex(cobar.dual_coalgebra("classical"), 8, 12)
    hs = {i: ChartClass(1, (2**i,), 1) for i in range(4)}
    for i in range(4):
        for j in range(4):
            ti, tj = 2**i, 2**j
            if ti + tj > 12:
                continue
            prod = H.yoneda_product(classical_res, hs[i], hs[j])
            bi = _cobar_h(cx, i)
            bj = _cobar_h(cx, j)
            w = cobar.concat(cx, 1, (ti,), bi, 1, (tj,), bj)
            cls = cx.class_vector(2, (ti + tj,), w)
            assert bool(prod.bits) == bool(cls), (i, j)
            assert (prod.bits != 0) == (cls != 0)


def _cobar_h(cx, i):
    # h_i is represented by the 1-tensor on xi_1^{2^i}
    basis = cx.tensor_basis(1, (2**i,))
    return 1 << basis.index((((), (2**i,)),))


def test_yoneda_commutative_and_associative(classical_res):
    rng = random.Random(3)
    classes = []
    for s in range(1, 4):
        for t in range(1, 10):
            for n in range(classical_res.gen_count(s, (t,))):
                classes.append(ChartClass(s, (t,), 1 << n))
    for _ in range(60):
        x, y = rng.choice(classes), rng.choice(classes)
        if x.s + y.s > 8 or x.deg[0] + y.deg[0] > 14:
            continue
        assert H.yoneda_product(classical_res, x, y) == H.yoneda_product(classical_res, y, x)
    for _ in range(40):
        x, y, z = rng.choice(classes), rng.choice(classes), rng.choice(classes)
        if x.s + y.s + z.s > 8 or x.deg[0] + y.deg[0] + z.deg[0] > 14:
            continue
        xy = H.yoneda_product(classical_res, x, y)
        yz = H.yoneda_product(classical_res, y, z)
        assert H.yoneda_product(classical_res, xy, z) == H.yoneda_product(classical_res, x, yz)


# ---------------------------------------------------------------------------
# Massey products


def test_massey_h0_h1_h0(classical_res):
    h0 = ChartClass(1, (1,), 1)
    h1 = ChartClass(1, (2,), 1)
    got = H.massey_triple(classical_res, h0, h1, h0)
    h1sq = H.yoneda_product(classical_res, h1, h1)
    assert got.bits == h1sq.bits and got.bits
    assert got.indeterminacy == []


def test_massey_h1_h0_h1(classical_res):
    h0 = ChartClass(1, (1,), 1)
    h1 = ChartClass(1, (2,), 1)
    got = H.massey_triple(classical_res, h1, h0, h1)
    # cross-check against the cobar oracle
    cx = cobar.CobarComplex(cobar.dual_coalgebra("classical"), 8, 12)
    mr = cobar.massey_in_cobar(cx, (1, (2,), 1), (1, (1,), 1), (1, (2,), 1))
    assert bool(got.bits) == bool(mr.class_bits)
    assert len(got.indeterminacy) == mr.indeterminacy_rank


def test_massey_degenerate_middle_zero(classical_res):
    h0 = ChartClass(1, (1,), 1)
    zero = ChartClass(1, (2,), 0)
    got = H.massey_triple(classical_res, h0, zero, h0)
    assert got.bits == 0
    # indeterminacy is h0 Ext^{1,3} + Ext^{1,2} h0
    vecs = []
    for n in range(classical_res.gen_count(1, (3,))):
        vecs.append(H.yoneda_product(classical_res, h0, ChartClass(1, (3,), 1 << n)).bits)
    for n in range(classical_res.gen_count(1, (2,))):
        vecs.append(H.yoneda_product(classical_res, ChartClass(1, (2,), 1 << n), h0).bits)
    expected, _ = gf2.rref_ints([v for v in vecs if v], max(classical_res.gen_count(2, (4,)), 1))
    assert sorted(got.indeterminacy) == sorted(v for v in expected if v)


def test_massey_precondition_guard(classical_res):
    h0 = ChartClass(1, (1,), 1)
    h1 = ChartClass(1, (2,), 1)
    with pytest.raises(H.MasseyPreconditionError):
        H.massey_triple(classical_res, h0, h0, h1)


def test_massey_alternate_homotopies_stay_in_coset(classical_res):
    # re-derive brackets with randomly perturbed null-homotopies: every
    # representative obtained differs from the canonical one by an
    # indeterminacy vector
    h0 = ChartClass(1, (1,), 1)
    h1 = ChartClass(1, (2,), 1)
    h2 = ChartClass(1, (4,), 1)
    for (a, b, c) in [(h0, h1, h0), (h1, h0, h1), (h0, h2, h0), (h1, h2, h1)]:
        try:
            canonical = H.massey_triple(classical_res, a, b, c)
        except H.MasseyPreconditionError:
            continue
        coset = canonical.coset()
        for seed in range(5):
            alt = H.massey_triple(classical_res, a, b, c, rng=random.Random(seed))
            assert alt.bits in coset, (a, b, c, seed)
            assert sorted(alt.indeterminacy) == sorted(canonical.indeterminacy)


def test_massey_coset_spans_every_sum_of_indeterminacy():
    # the coset is the representative plus every sum of indeterminacy
    # vectors, sums of two or more included
    result = H.MasseyResult(3, (6,), 0b0001, [0b0010, 0b0100, 0b1000])
    assert result.coset() == set(range(1, 16, 2))
    assert H.MasseyResult(3, (6,), 0b11, []).coset() == {0b11}


def test_cobar_differential_squares_to_zero():
    for kind, smax, pmax in [("classical", 5, 8), ("A0", 4, 7)]:
        cx = cobar.CobarComplex(cobar.dual_coalgebra(kind), smax, pmax)
        degs = [(t,) for t in range(pmax + 1)] if cx.grading == 1 else [
            (p, q) for p in range(pmax + 1) for q in range(p + 1)
        ]
        for s in range(smax):
            for deg in degs:
                rows = cx.differential_rows(s, deg)
                nxt = cx.differential_rows(s + 1, deg)
                for row in rows:
                    acc = 0
                    bits = row
                    while bits:
                        low = bits & -bits
                        acc ^= nxt[low.bit_length() - 1]
                        bits ^= low
                    assert acc == 0, (kind, s, deg)


# ---------------------------------------------------------------------------
# doubling and vanishing at chart level


def test_chart_compare_doubling_small():
    cres = H.resolve(H.algebra_for("classical", 14), smax=8, pmax=12)
    cchart = H.ext_chart_field(cres)
    gres = H.resolve(H.algebra_for("G", 26), smax=8, pmax=24)
    gchart = H.ext_chart_field(gres)
    rep = charts.compare_doubling(cchart, gchart)
    assert rep.ok and rep.checked > 50


def test_chart_compare_detects_defects():
    cres = H.resolve(H.algebra_for("classical", 10), smax=4, pmax=8)
    a = H.ext_chart_field(cres)
    b = H.ext_chart_field(cres)
    rep = charts.compare_equality(a, b)
    assert rep.ok
    b.cells[(2, (5,))] = 7
    rep2 = charts.compare_equality(a, b)
    assert not rep2.ok and rep2.mismatches[0][0] == (2, (5,))
    # a truncated cell is skipped and reported even where neither chart
    # has a nonzero dimension
    b.truncated.add((3, (7,)))
    assert (3, (7,)) in charts.compare_equality(a, b).skipped_truncated


def test_vanishing_regions():
    gres = H.resolve(H.algebra_for("G", 22), smax=6, pmax=20)
    gchart = H.ext_chart_field(gres)
    rep = charts.vanishing_check(gchart)
    assert rep.ok and rep.checked > 10
    assert gchart.dim(0, (0, 0)) == 1
    bad = charts.ExtChart("bad", 2, 2, 4, cells={(2, (2, -1)): 1})
    assert not charts.vanishing_check(bad).ok


# ---------------------------------------------------------------------------
# isotropic coefficients: the E2 identification at a small window


def test_exterior_decoders_agree_with_enumeration():
    # every exterior monomial Q_E, E within {0..6}, by its bidegree; any E
    # with an index of 7 or more lies beyond the box (p >= 255)
    table = {}
    for size in range(8):
        for E in itertools.combinations(range(7), size):
            d = milnor.mono_degree((E, ()))
            assert (d.p, d.q) not in table
            table[(d.p, d.q)] = E
    pmax = max(p for p, _ in table)
    qmax = max(q for _, q in table)
    algebras = [ExteriorMilnorAlgebra(n, pmax) for n in range(7)]
    duals = [ExteriorDualCoalgebra(n) for n in range(7)]
    for p in range(-2, pmax + 1):
        for q in range(-2, qmax + 2):
            E = table.get((p, q))
            assert milnor.exterior_from_degree(p, q) == E, (p, q)
            assert iso.ext_from_degree(milnor.Bidegree(-p, -q)) == E, (p, q)
            for n in range(7):
                inside = E is not None and all(i <= n for i in E)
                assert algebras[n].basis((p, q)) == ((E,) if inside else ()), (n, p, q)
                assert duals[n].basis((p, q)) == (((E, ()),) if inside else ()), (n, p, q)


def test_isotropic_chart_matches_doubled_classical_small():
    ichart = iso.isotropic_chart(iso.IsotropicWindow(-14), smax=8, pmax=12)
    for (s, deg), dim in ichart.nonzero_cells():
        assert deg[0] == 2 * deg[1]
    cres = H.resolve(H.algebra_for("classical", 8), smax=8, pmax=6)
    cchart = H.ext_chart_field(cres)
    rep = charts.compare_doubling(cchart, ichart)
    assert rep.ok, rep.mismatches


# ---------------------------------------------------------------------------
# packed row builder, Hom chart and chain maps against test-local references


def _reference_diff_rows(res, s, deg):
    """(rows, width) of d_s at deg, built monomial by monomial through
    `algebra.multiply`, scanning every generator of F_s and F_{s-1}."""

    def basis_of(level):
        if level >= len(res.gens):
            return []
        return [
            (i, m)
            for i, gdeg in enumerate(res.gens[level])
            for m in res.algebra.basis(H.sub_deg(deg, gdeg))
        ]

    dom = basis_of(s)
    cod = res.target.basis_at(deg) if s == 0 else basis_of(s - 1)
    index = {c: n for n, c in enumerate(cod)}
    rows = []
    for i, m in dom:
        row = 0
        if s == 0:
            for key in differential(res, 0, i)["target"]:
                for out in res.target.act_mono(m, key):
                    row ^= 1 << index[out]
        else:
            for j, coeffs in differential(res, s, i).items():
                for n in coeffs:
                    for t in res.algebra.multiply(m, n):
                        row ^= 1 << index[(j, t)]
        rows.append(row)
    return dom, rows, len(cod)


@pytest.mark.parametrize("flavor", ["A0", "G"])
def test_resolve_and_lifts_keep_no_milnor_product_cache(flavor, monkeypatch):
    # right_rows is the only store of the products the resolution and
    # its chain maps use; no pairwise Milnor product is formed
    def forbidden(*args):
        raise AssertionError("the resolve reached the pairwise Milnor product")

    monkeypatch.setattr(milnor, "multiply_mono", forbidden)
    monkeypatch.setattr(milnor, "p_product", forbidden)
    res = H.resolve(H.algebra_for(flavor, 12), smax=4, pmax=10)
    x = H.class_of_generator(res, 1, res.gens[1][0])
    H.yoneda_product(res, x, x)
    assert res.algebra._right_rows


def test_classical_resolve_and_lifts_keep_no_word_cache():
    # the classical rows come from packed Sq^a tables: a resolve, a
    # Yoneda product and a Massey bracket reduce no Adem word
    adem.reduce_word.cache_clear()
    res = H.resolve(H.algebra_for("classical", 16), smax=6, pmax=14)
    h0 = ChartClass(1, (1,), 1)
    h1 = ChartClass(1, (2,), 1)
    assert H.yoneda_product(res, h1, h1).bits
    assert H.massey_triple(res, h0, h1, h0).bits
    assert adem.reduce_word.cache_info().currsize == 0
    assert res.algebra._right_rows


def _assert_rows_match_multiply(algebra, keys, degree_of):
    """The packed rows `algebra.right_rows` gives for each (n, deg) key
    equal the rows formed monomial by monomial through its multiply."""
    for n, deg in keys:
        out_deg = H.add_deg(deg, degree_of(n))
        index = algebra.index(out_deg)
        expected = []
        for m in algebra.basis(deg):
            row = 0
            for t in algebra.multiply(m, n):
                row ^= 1 << index[t]
            expected.append(row)
        assert algebra.right_rows(n, deg, out_deg) == tuple(expected), (n, deg)


def test_classical_right_rows_match_adem_reduction():
    # the Sq^a tables reduce Sq^b v in full before the letter to the left
    # of Sq^b acts, where reduce_word rewrites the leftmost inadmissible
    # pair first, so agreement on every row a deep resolve, its products
    # and brackets build also checks the confluence of Adem rewriting
    algebra = H.algebra_for("classical", 32)
    res = H.resolve(algebra, smax=8, pmax=28)
    h = [ChartClass(1, (2**i,), 1) for i in range(4)]
    for x, y in itertools.product(h, repeat=2):
        H.yoneda_product(res, x, y)
    assert H.massey_triple(res, h[1], h[0], h[1]).bits
    H.massey_triple(res, h[2], h[1], h[2], rng=random.Random(0))
    _assert_rows_match_multiply(algebra, list(algebra._right_rows), lambda n: (sum(n),))
    assert len(algebra._right_rows) > 1000
    for d in range(32):
        for a in range(1, 33 - d):
            index = algebra.index((d + a,))
            expected = []
            for w in algebra.basis((d,)):
                row = 0
                for t in adem.reduce_word((a,) + w):
                    row ^= 1 << index[t]
                expected.append(row)
            assert algebra.sq_rows(a, d) == tuple(expected), (a, d)


def _rows_against_multiply(algebra, keys, left):
    """Check the packed rows of each (n, deg) key against the rows formed
    monomial by monomial through the algebra's multiply.  Returns how
    many rows reach a term Q^G P^{R1} of P^R Q^F whose G meets E, and a
    multi-term P-product P^{R1} P^S, for the A0 product (Q^E P^R)(Q^F
    P^S): m n for right rows, n m for the left rows of the opposite
    algebra."""
    _assert_rows_match_multiply(algebra, keys, milnor.mono_degree)
    meets = multi_term = 0
    for n, deg in keys:
        for m in algebra.basis(deg):
            (e, r), (f, s) = (n, m) if left else (m, n)
            terms = milnor._p_past_qs(r, f)
            meets += any(set(e) & set(g) for g, _ in terms)
            multi_term += any(len(milnor.p_product(r1, s)) > 1 for _, r1 in terms)
    return meets, multi_term


def test_a0_right_rows_match_multiply():
    # every packed row an A0 resolve builds equals the row formed
    # monomial by monomial through WindowedAlgebra.multiply
    res = H.resolve(H.algebra_for("A0", 20), smax=8, pmax=20)
    meets, multi_term = _rows_against_multiply(res.algebra, list(res.algebra._right_rows), left=False)
    # the window reaches terms with G meeting E and multi-term P-products
    assert meets and multi_term


def test_a0op_left_rows_match_multiply(monkeypatch):
    # the rows a resolve over the opposite algebra XORs from the P-tables,
    # m *op n = n m, equal the rows formed through its multiply, in every
    # cell.  The differentials of the dual window module have P-part
    # coefficients only, so F2 is resolved over the same algebra too: its
    # Q-part coefficients reach the terms where G meets E
    read = set()
    left_rows = milnor.left_rows

    def recording(terms, deg, p_rows):
        read.update((n, deg) for n, _, _ in terms)
        return left_rows(terms, deg, p_rows)

    monkeypatch.setattr(milnor, "left_rows", recording)
    pmax = 20
    window = iso.IsotropicWindow(-(pmax + 2))
    table = iso.solve_action_table(n_max=window.n_max, w_max=pmax // 2)
    algebra = H.OppositeGeneralizedAlgebra(pmax + 2)
    target = dual_module(iso.isotropic_coefficients(table, window))
    for res in (H.resolve(algebra, smax=6, pmax=pmax, target=target), H.resolve(algebra, smax=8, pmax=pmax)):
        for deg in _all_cells(res):
            for s in range(res.smax + 2):
                _, rows, width = _reference_diff_rows(res, s, deg)
                got, cod = diff_rows(res, s, deg)
                assert (got, len(cod)) == (rows, width), (s, deg)
    # the (n, sub) keys the resolves read, whole rows through right_rows
    meets, multi_term = _rows_against_multiply(algebra, sorted(read), left=True)
    assert meets and multi_term


def test_dual_resolve_keeps_no_rows(monkeypatch):
    # over A0^op the P-tables are XORed straight into each generator's
    # rows: an ext_chart_coefficients run leaves its algebra holding the
    # tables and no row
    made = []
    init = H.OppositeGeneralizedAlgebra.__init__

    def recording(self, max_p):
        init(self, max_p)
        made.append(self)

    monkeypatch.setattr(H.OppositeGeneralizedAlgebra, "__init__", recording)
    window = iso.IsotropicWindow(-26)
    table = iso.solve_action_table(n_max=window.n_max, w_max=12)
    chart = H.ext_chart_coefficients(iso.isotropic_coefficients(table, window), 6, 24)
    assert chart.cells
    [algebra] = made
    assert algebra._p_rows
    assert not algebra._right_rows


def _product_image_ranks(res):
    """(number of generator classes with s >= 1, {cell: rank of the span
    of the Yoneda products of two such classes landing there})."""
    gens = [
        H.class_of_generator(res, s, deg, n)
        for s in range(1, res.smax + 1)
        for deg in sorted(set(res.gens[s]))
        for n in range(res.gen_count(s, deg))
    ]
    images = {}
    for x, y in itertools.product(gens, repeat=2):
        if x.s + y.s <= res.smax and x.deg[0] + y.deg[0] <= res.pmax:
            z = H.yoneda_product(res, x, y)
            images.setdefault((z.s, z.deg), []).append(z.bits)
    return len(gens), {cell: gf2.rank_ints(v, res.gen_count(*cell)) for cell, v in images.items()}


def test_chain_maps_over_a0op_match_a0(monkeypatch):
    # the antipode is an algebra isomorphism A0 = A0^op, so the Yoneda
    # products over both have images of the same rank in every cell.
    # Over A0^op the chain lifts read rows m *op n built by
    # milnor.left_rows; no pairwise Milnor product is formed on either path
    def forbidden(*args):
        raise AssertionError("a chain map reached the pairwise Milnor product")

    monkeypatch.setattr(milnor, "multiply_mono", forbidden)
    monkeypatch.setattr(milnor, "p_product", forbidden)
    a0, a0op = (
        _product_image_ranks(H.resolve(algebra, smax=8, pmax=32))
        for algebra in (H.algebra_for("A0", 32), H.OppositeGeneralizedAlgebra(32))
    )
    assert a0 == a0op
    classes, ranks = a0
    assert classes == 116 and sum(1 for r in ranks.values() if r) == 92


@pytest.mark.parametrize(
    "make",
    [
        lambda: H.algebra_for("classical", 16),
        lambda: H.algebra_for("A0", 16),
        lambda: H.algebra_for("G", 16),
        lambda: H.OppositeGeneralizedAlgebra(16),
        lambda: ExteriorMilnorAlgebra(3, 16),
    ],
    ids=["classical", "A0", "G", "A0op", "exterior"],
)
def test_rows_of_no_terms_are_zero(make):
    # a generator whose differential has no term in the codomain cell
    # gets one zero row per algebra basis element
    algebra = make()
    for p in range(17):
        for deg in algebra.cells_at(p):
            assert algebra.rows([], deg) == [0] * len(algebra.basis(deg)), deg


def _two_point_target(algebra):
    from isoadams.milnor import Bidegree
    from isoadams.modules import trivial_module

    return trivial_module([Bidegree(0, 0), Bidegree(3, 1)], unit=algebra.unit)


def _resolve_two_point_target(algebra, smax, pmax):
    return H.resolve(algebra, smax=smax, pmax=pmax, target=_two_point_target(algebra))


ROW_CASES = {
    "classical": lambda: H.resolve(H.algebra_for("classical", 14), smax=5, pmax=12),
    "G": lambda: H.resolve(H.algebra_for("G", 18), smax=4, pmax=16),
    "A0": lambda: H.resolve(H.algebra_for("A0", 14), smax=5, pmax=13),
    "A0-finite-target": lambda: _resolve_two_point_target(H.algebra_for("A0", 9), smax=3, pmax=8),
    "exterior-finite-target": lambda: _resolve_two_point_target(ExteriorMilnorAlgebra(1, 10), smax=4, pmax=9),
    "A0op": lambda: H.resolve(H.OppositeGeneralizedAlgebra(14), smax=5, pmax=13),
    "A0op-dual-window": lambda: _dual_window_resolution(14, 5),
}


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_diff_rows_match_monomial_products(case):
    res = ROW_CASES[case]()
    checked = 0
    for deg in _all_cells(res):
        for s in range(res.smax + 2):
            dom, rows, width = _reference_diff_rows(res, s, deg)
            got, cod = diff_rows(res, s, deg)
            assert list(cell_basis(res, s, deg)) == dom, (s, deg)
            assert (got, len(cod)) == (rows, width), (s, deg)
            checked += len(rows)
    assert checked


def _dual_window_resolution(pmax, smax):
    window = iso.IsotropicWindow(-(pmax + 2))
    table = iso.solve_action_table(n_max=window.n_max, w_max=pmax // 2)
    target = dual_module(iso.isotropic_coefficients(table, window))
    return H.resolve(H.OppositeGeneralizedAlgebra(pmax + 2), smax=smax, pmax=pmax, target=target)


LAYOUT_CASES = {
    "classical": lambda: H.resolve(H.algebra_for("classical", 22), smax=7, pmax=20),
    "A0": lambda: H.resolve(H.algebra_for("A0", 14), smax=5, pmax=12),
    "G": lambda: H.resolve(H.algebra_for("G", 30), smax=6, pmax=28),
    "A0op-dual-window": lambda: _dual_window_resolution(24, 6),
}


def _ordered(layout):
    """A (size, place) layout with place as a list, so that comparing
    two layouts compares the order of their generators too."""
    size, place = layout
    return size, list(place.items())


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_runs_are_recorded_by_resolve(case):
    # resolve appends generators in increasing degree, so gens[s] is
    # sorted, and gens_at finds each run of equal degrees in it; every
    # other visited degree, and every level past the last, has none
    res = LAYOUT_CASES[case]()
    assert len(res.gens) == res.smax + 2
    empty = 0
    for s, gens in enumerate(res.gens):
        assert gens == sorted(gens), s
        for deg, first, stop in reference_runs(gens):
            assert res.gens_at(s, deg) == range(first, stop), (s, deg)
        for deg in _all_cells(res):
            if deg not in gens:
                assert res.gens_at(s, deg) == range(0), (s, deg)
                empty += 1
    assert empty
    for past in (len(res.gens), len(res.gens) + 3):
        for deg in _all_cells(res):
            assert res.gens_at(past, deg) == range(0), (past, deg)


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_cell_layouts_match_single_cell_walk(monkeypatch, case):
    # the layouts of one walk per (s, p) against the walk of each single
    # cell, generator order included: every layout read during the
    # resolve, the places added there for new generators included, and
    # afterwards every (s, deg) with p <= pmax, off the visited cells too
    per_degree = H.FreeResolution._cell
    grown = []

    def checked(res, s, deg):
        got = per_degree(res, s, deg)
        assert _ordered(got) == _ordered(reference_cell(res, s, deg)), (s, deg)
        # generators at deg itself exist during the loop only through
        # the places that resolve added
        if any(sub == (0,) * res.algebra.grading for _, sub, _ in got[1].values()):
            grown.append((s, deg))
        return got

    monkeypatch.setattr(H.FreeResolution, "_cell", checked)
    res = LAYOUT_CASES[case]()
    monkeypatch.undo()
    assert grown
    for s in range(res.smax + 2):
        for p in range(res.pmax + 1):
            degs = [(p,)] if res.algebra.grading == 1 else [(p, q) for q in range(-1, p + 2)]
            for deg in degs:
                assert _ordered(res._cell(s, deg)) == _ordered(reference_cell(res, s, deg)), (s, deg)


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_differentials_are_packed_bits(case):
    # each differential is the kernel vector resolve found for its
    # generator, a nonzero int over the cell basis of F_{s-1} (the target
    # basis for s = 0); the decode tables they are read through were
    # built during the resolve and match the single-cell walk, and no
    # cell layout outlives the resolve
    res = LAYOUT_CASES[case]()
    assert not res._cells
    for s, diffs in enumerate(res.diff):
        assert len(diffs) == len(res.gens[s])
        assert all(type(z) is int and z for z in diffs), s
        if s:
            assert all((s - 1, gdeg) in res._decode_cache for gdeg in res.gens[s]), s
    for (s, deg), (gens, monos) in res._decode_cache.items():
        place = reference_cell(res, s, deg)[1]
        expected = [(j, m) for j, (_, _, basis) in place.items() for m in basis]
        assert list(zip(gens, monos)) == expected, (s, deg)


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_resolve_builds_rows_only_for_nonempty_cells(monkeypatch, case):
    # a stage where F_s has no basis at the cell builds no rows: each
    # carried kernel vector becomes a generator, and ker d_s = 0
    sizes = []
    rows = H.FreeResolution._rows

    def recorded(res, s, deg):
        sizes.append(res._cell(s, deg)[0])
        return rows(res, s, deg)

    monkeypatch.setattr(H.FreeResolution, "_rows", recorded)
    LAYOUT_CASES[case]()
    assert sizes and all(sizes)


def _pool_at_most_zero(pmin):
    """The bidegrees (p, q) with pmin <= p <= 0 whose negatives resolve
    visits: p/2 <= q <= 0."""
    return [Bidegree(p, q) for p in range(pmin, 1) for q in range(-(-p // 2), 1)]


def _smash_case(p_min):
    window = iso.IsotropicWindow(p_min)
    table = iso.solve_action_table(n_max=window.n_max, w_max=8)
    two_points = trivial_module([Bidegree(0, 0), Bidegree(-3, -1)], unit=milnor.UNIT_MONO)
    return iso.smash_module(two_points, table, window)


COEFFICIENT_CASES = {
    "two-keys-one-bidegree": lambda: trivial_module([(0, 0), (-3, -1), (-3, -1)], unit=milnor.UNIT_MONO),
    **{
        f"random-{seed}": lambda seed=seed: random_trivial_module(
            random.Random(seed), 3, _pool_at_most_zero(-8), unit=milnor.UNIT_MONO)
        for seed in range(3)
    },
    "smash-5": lambda: _smash_case(-5),
    "smash-10": lambda: _smash_case(-10),
}


@pytest.mark.parametrize("case", sorted(COEFFICIENT_CASES))
def test_ext_chart_coefficients_matches_hom_route(hom_chart, case):
    # the dual-module resolution against the Hom route's full generator
    # scan, on modules the isotropic window never is: several keys in one
    # bidegree, and (the smash modules) a nontrivial action with
    # multiplicity 2
    M = COEFFICIENT_CASES[case]()
    dual = H.ext_chart_coefficients(M, 4, 16)
    hom = hom_chart(M, 4, 16)
    assert dual.cells == hom.cells and dual.cells
    assert not dual.truncated and not hom.truncated
    if case.startswith("smash"):
        assert max(len(M.basis_at(d)) for d in M.degrees()) == 2
        assert any(len(M.act_mono(((0,), ()), k)) for k in M.keys)


def test_ext_chart_coefficients_algebra_window_is_the_resolve_window(monkeypatch):
    # no slack beyond pmax: a product read past the resolved degrees
    # raises WindowExceededError instead of passing unseen
    windows = []
    resolve = H.resolve

    def recorded(algebra, smax, pmax, target=None):
        windows.append((algebra.max_p, pmax))
        return resolve(algebra, smax=smax, pmax=pmax, target=target)

    monkeypatch.setattr(H, "resolve", recorded)
    M = trivial_module([Bidegree(0, 0), Bidegree(-3, -1)], unit=milnor.UNIT_MONO)
    assert H.ext_chart_coefficients(M, 3, 11).cells
    assert windows == [(11, 11)]


@pytest.mark.parametrize("deg", [Bidegree(2, 1), Bidegree(0, -1), Bidegree(-2, -2)])
def test_ext_chart_coefficients_refuses_keys_resolve_skips(deg):
    # resolve visits the cells 0 <= q <= p/2 only, so the dual of a key
    # outside them would be dropped from the chart without a trace
    M = trivial_module([Bidegree(0, 0), deg], unit=milnor.UNIT_MONO)
    with pytest.raises(ValueError, match="Ext needs"):
        H.ext_chart_coefficients(M, 2, 8)


def _apply(res, images, elt):
    """sum over j of coeffs_j * images(j): the Lambda-linear extension of
    a generator map, through algebra.multiply."""
    out = {}
    for j, coeffs in elt.items():
        for jj, coeffs2 in images(j).items():
            acc = out.setdefault(jj, set())
            for m in coeffs:
                for n in coeffs2:
                    acc ^= res.algebra.multiply(m, n)
    return {j: frozenset(v) for j, v in out.items() if v}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_chain_lift_commutes_with_d(small_res, data):
    # d Y_k = Y_{k-1} d on every generator of F_{s0+k}
    res = small_res
    cells = [
        (s, deg)
        for deg in _all_cells(res)
        for s in range(1, res.smax + 1)
        if res.gen_count(s, deg)
    ]
    s0, deg0 = data.draw(st.sampled_from(cells))
    bits = data.draw(st.integers(1, (1 << res.gen_count(s0, deg0)) - 1))
    lift = H.ChainMap.lift(res, ChartClass(s0, deg0, bits))
    k = data.draw(st.integers(1, res.smax + 1 - s0))
    for i in range(len(res.gens[s0 + k])):
        left = _apply(res, lambda j: differential(res, k, j), _value(lift, k, i))
        right = _apply(res, lambda j: _value(lift, k - 1, j), differential(res, s0 + k, i))
        assert left == right, (s0, deg0, bits, k, i)


def _value(v, k, i):
    """V_k(g_{src+k, i}) decoded to {gen index: algebra monomials}."""
    res = v.res
    return decode(res, k, H.sub_deg(res.gens[v.src + k][i], v.shift), v.value(k, i))


def _generator_classes(res):
    """Every nonzero class spanned by the generators of one cell, 1 <= s <= smax."""
    out = []
    for s in range(1, res.smax + 1):
        for deg in sorted(set(res.gens[s])):
            out.extend(ChartClass(s, deg, bits) for bits in range(1, 1 << res.gen_count(s, deg)))
    return out


def _xor(a, b):
    out = {j: a.get(j, frozenset()) ^ b.get(j, frozenset()) for j in set(a) | set(b)}
    return {j: v for j, v in out.items() if v}


@pytest.fixture(scope="module")
def vanishing_pairs(small_res):
    """Pairs (b, c) of in-window classes with bc = 0."""
    res = small_res
    classes = _generator_classes(res)
    pairs = []
    for b in classes:
        for c in classes:
            if b.s + c.s <= res.smax and b.deg[0] + c.deg[0] <= res.pmax:
                if H.yoneda_product(res, b, c).is_zero():
                    pairs.append((b, c))
    return pairs


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_null_homotopy_identity(small_res, vanishing_pairs, data):
    # d V_k(g) + V_{k-1}(d g) = B_{k-1}(C(g)) on every generator of
    # F_{S-1+k} at every level k >= 1, products through algebra.multiply
    res = small_res
    b, c = data.draw(st.sampled_from(vanishing_pairs))
    seed = data.draw(st.none() | st.integers(0, 2**32 - 1))
    rng = None if seed is None else random.Random(seed)
    hom = H.ChainMap.homotopy(res, b, c, rng=rng)
    blift, clift = H.ChainMap.lift(res, b), H.ChainMap.lift(res, c)
    src = b.s + c.s - 1
    for k in range(1, res.smax + 2 - src):
        for i in range(len(res.gens[src + k])):
            left = _xor(
                _apply(res, lambda j: differential(res, k, j), _value(hom, k, i)),
                _apply(res, lambda j: _value(hom, k - 1, j), differential(res, src + k, i)),
            )
            right = _apply(res, lambda j: _value(blift, k - 1, j), _value(clift, b.s + k - 1, i))
            assert left == right, (b, c, seed, k, i)


def test_chain_map_values_are_packed_bits(monkeypatch):
    # a product table and a seeded bracket keep every chain-map value as
    # the bits its solve returned, never as a decoded element
    homotopies = []
    homotopy = H.ChainMap.homotopy

    def recorded(res, b, c, rng=None):
        homotopies.append(homotopy(res, b, c, rng=rng))
        return homotopies[-1]

    monkeypatch.setattr(H.ChainMap, "homotopy", recorded)
    res = H.resolve(H.algebra_for("classical", 22), smax=6, pmax=20)
    classes = _generator_classes(res)
    for x, y in itertools.product(classes, repeat=2):
        if x.s + y.s <= res.smax and x.deg[0] + y.deg[0] <= res.pmax:
            H.yoneda_product(res, x, y)
    h0, h1 = ChartClass(1, (1,), 1), ChartClass(1, (2,), 1)
    assert H.massey_triple(res, h0, h1, h0, rng=random.Random(5)).bits
    maps = list(res._lift_cache.values()) + homotopies
    assert len(homotopies) == 1 and all(v._memo for v in maps)
    assert all(type(x) is int for v in maps for x in v._memo.values())


def test_cocycle_mask_matches_dict_pairing(small_res):
    # the cocycle of x as a mask and a parity over the packed values of
    # the lift of y equals its pairing with the decoded values: unit
    # coefficients at the dual'd generators, for every ordered pair
    res = small_res
    unit = res.algebra.unit
    classes = _generator_classes(res)
    nonzero = 0
    for x, y in itertools.product(classes, repeat=2):
        s, deg = x.s + y.s, H.add_deg(x.deg, y.deg)
        if s > res.smax or deg[0] > res.pmax:
            continue
        lift = H.ChainMap.lift(res, y)
        dual = [j for n, j in enumerate(res.gens_at(x.s, x.deg)) if (x.bits >> n) & 1]
        expected = 0
        for n, gi in enumerate(res.gens_at(s, deg)):
            elt = decode(res, x.s, x.deg, lift.value(x.s, gi))
            expected |= (sum(unit in elt.get(j, ()) for j in dual) & 1) << n
        assert H._evaluate_cocycle(res, x, lift, s, deg) == expected, (x, y)
        nonzero += expected != 0
    assert nonzero


@pytest.fixture(scope="module")
def window_triples(small_res):
    """(all, chained): the triples of generator classes whose product
    lies in the window, and those among them with xy and yz both
    nonzero, where (xy)z can be nonzero."""
    res = small_res
    classes = _generator_classes(res)
    triples = [
        (x, y, z)
        for x, y, z in itertools.product(classes, repeat=3)
        if x.s + y.s + z.s <= res.smax and x.deg[0] + y.deg[0] + z.deg[0] <= res.pmax
    ]
    chained = [
        (x, y, z)
        for x, y, z in triples
        if not H.yoneda_product(res, x, y).is_zero() and not H.yoneda_product(res, y, z).is_zero()
    ]
    return triples, chained


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_yoneda_product_is_associative(small_res, window_triples, data):
    # (x y) z = x (y z) on generator classes whose product is in window
    res = small_res
    triples, chained = window_triples
    x, y, z = data.draw(st.sampled_from(chained) | st.sampled_from(triples))
    left = H.yoneda_product(res, H.yoneda_product(res, x, y), z)
    right = H.yoneda_product(res, x, H.yoneda_product(res, y, z))
    assert left == right, (x, y, z)
