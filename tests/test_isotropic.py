import random

import pytest

from isoadams import isotropic as iso
from isoadams import milnor
from isoadams.milnor import Bidegree
from isoadams.modules import trivial_module

from conftest import differential, random_trivial_module


@pytest.fixture(scope="module")
def table():
    return iso.solve_action_table(n_max=4, w_max=12)


@pytest.fixture(scope="module")
def window():
    return iso.IsotropicWindow(-40)


def test_generator_degrees():
    assert iso.r_degree(0) == Bidegree(-1, 0)
    assert iso.r_degree(1) == Bidegree(-3, -1)
    assert iso.ext_degree((0, 1)) == Bidegree(-4, -1)


def test_offset_is_minus_size():
    for I in iso.IsotropicWindow(-62).basis():
        assert iso.ext_degree(I).offset == -len(I)


def test_bidegrees_are_multiplicity_free():
    window = iso.IsotropicWindow(-126)
    degs = [iso.ext_degree(I) for I in window.basis()]
    assert len(degs) == len(set(degs))
    for I in window.basis():
        assert iso.ext_from_degree(iso.ext_degree(I)) == I


def test_window_basis_matches_brute_force():
    # the window is its depth: n_max is derived, and the basis is every
    # exterior monomial on r_0..r_7 down to p_min (r_7 sits at p = -255)
    subsets = [tuple(i for i in range(8) if (bits >> i) & 1) for bits in range(2**8)]
    for p_min in range(-130, 1):
        window = iso.IsotropicWindow(p_min)
        expected = sorted(I for I in subsets if iso.ext_degree(I).p >= p_min)
        assert list(window.basis()) == expected, p_min
        assert iso.r_degree(window.n_max + 1).p < p_min, p_min
    assert iso.IsotropicWindow(-40).n_max == 4
    with pytest.raises(ValueError, match="window empty"):
        iso.IsotropicWindow(1)


def test_solved_action_stays_in_window(table):
    # the coefficient module applies the table without a window filter:
    # every A0 monomial of weight q <= w_max sends each window key into
    # the window basis (Q^E adds |E| to p - 2q, and |E| <= 4 here)
    monos = [m for q in range(table.w_max + 1) for p in range(2 * q, 2 * q + 5) for m in milnor.basis(p, q)]
    for p_min in (-40, -20, -9, -2, 0):
        keys = set(iso.IsotropicWindow(p_min).basis())
        for m in monos:
            for I in keys:
                assert table.act_mono(m, I) <= keys, (p_min, m, I)
    assert any(table.act_mono(m, (2, 3)) - {(2, 3)} for m in monos)


def test_q_action_examples():
    assert iso.q_action(1, (1,)) == iso.H_ONE
    assert iso.q_action(0, (1,)) == iso.H_ZERO
    assert iso.q_action(0, (0, 1)) == frozenset([(1,)])


def test_q_action_derivation_law(window):
    rng = random.Random(1)
    basis = window.basis()
    for _ in range(300):
        x, y = rng.choice(basis), rng.choice(basis)
        j = rng.randint(0, 4)
        lhs = set()
        for m in iso.ext_product(x, y):
            lhs ^= iso.q_action(j, m)
        rhs = iso.h_product(iso.q_action(j, x), frozenset([y])) ^ iso.h_product(
            frozenset([x]), iso.q_action(j, y)
        )
        assert frozenset(lhs) == rhs


def test_q_action_squares_to_zero_and_commutes(window):
    rng = random.Random(2)
    basis = window.basis()
    for _ in range(200):
        x = frozenset([rng.choice(basis)])
        i, j = rng.randint(0, 4), rng.randint(0, 4)
        assert iso.q_action(i, iso.q_action(i, x)) == iso.H_ZERO
        assert iso.q_action(i, iso.q_action(j, x)) == iso.q_action(j, iso.q_action(i, x))


def test_sq_action_generator_table(table):
    for j in range(1, 5):
        for i in range(5):
            got = iso.sq_action(j, (i,), table)
            assert got == (frozenset([(i - 1,)]) if i == j else iso.H_ZERO)
    # Sq^1 = Q_0: the i = j = 0 cell of the table degenerates to the unit
    assert iso.sq_action(0, (0,), table) == iso.H_ONE
    for i in range(1, 5):
        assert iso.sq_action(0, (i,), table) == iso.H_ZERO


def test_sq_action_cartan_example(table):
    # Sq^2 (r_0 r_1) = 0: the only surviving Cartan term is r_0 Sq^2 r_1 = r_0 r_0
    assert iso.sq_action(1, frozenset([(0, 1)]), table) == iso.H_ZERO


def test_solver_unique_and_consistent(table):
    assert table.report.unique
    assert table.report.inconsistent == []
    assert table.report.underdetermined == []


def test_solver_nmax1():
    t = iso.solve_action_table(1, 4)
    assert t.report.unique
    assert sorted(t.entries) == [((1,), 1)]  # Sq^2 r_1 = r_0 and nothing else


def test_solver_degenerate_window():
    t = iso.solve_action_table(0, 2)
    assert t.report.unique
    assert t.entries == frozenset()
    assert t.act_p((), ()) == frozenset([()])


def test_solved_weight3_constants(table):
    # derived by hand from Sq2 Sq4 factorizations
    assert table.act_p((3,), (2,)) == frozenset([(0,)])
    assert table.act_p((0, 1), (2,)) == frozenset([(0,)])
    assert table.act_p((3,), (1,)) == iso.H_ZERO


def test_offset_law(table, window):
    rng = random.Random(4)
    basis = window.basis()
    monos = [m for p in range(13) for q in range(p + 1) for m in milnor.basis(p, q)]
    for _ in range(300):
        m = rng.choice(monos)
        I = rng.choice(basis)
        out = table.act_mono(m, I)
        for J in out:
            assert len(J) == len(I) - len(m[0])


def test_action_associativity_audit(table, window):
    rng = random.Random(5)
    basis = window.basis()
    monos = [m for p in range(13) for q in range(p + 1) for m in milnor.basis(p, q)]
    for _ in range(500):
        a, b = rng.choice(monos), rng.choice(monos)
        x = rng.choice(basis)
        lhs = set()
        for m in milnor.multiply_mono(a, b):
            lhs ^= table.act_mono(m, x)
        rhs = set()
        for J in table.act_mono(b, x):
            rhs ^= table.act_mono(a, J)
        assert frozenset(lhs) == frozenset(rhs)


def _act_p_by_cartan_splits(table, r, I):
    """P^R r_I expanded over every componentwise split S + T = R (the
    coproduct of P^R), with P^S r_i read off the entries: the reference
    for ActionTable.act_p."""
    if not r:
        return frozenset([I])
    if not I:
        return iso.H_ZERO
    head, rest = I[0], I[1:]
    splits = [((), ())]
    for rj in r:
        splits = [(s + (x,), t + (rj - x,)) for s, t in splits for x in range(rj + 1)]
    out = set()
    for s, t in splits:
        s, t = milnor.trim(s), milnor.trim(t)
        if not s:
            left = (head,)
        elif (s, head) in table.entries:
            left = (iso._p_target(milnor.p_weight(s), head),)
        else:
            continue
        right = _act_p_by_cartan_splits(table, t, rest) if rest else (iso.H_ZERO if t else iso.H_ONE)
        for b in right:
            out ^= iso.ext_product(left, b)
    return frozenset(out)


def test_act_p_matches_cartan_splits(table, window):
    checked = 0
    for w in range(table.w_max + 1):
        for r in milnor.p_exponents_of_weight(w):
            for I in window.basis():
                assert table.act_p(r, I) == _act_p_by_cartan_splits(table, r, I), (r, I)
                checked += bool(table.act_p(r, I))
    assert checked > 50  # nonzero actions among the 968 pairs


def test_window_exceeded(table):
    with pytest.raises(iso.WindowExceededError):
        table.act_p((13,), (4,))  # weight beyond w_max
    with pytest.raises(iso.WindowExceededError):
        table.act_p((1,), (2, 5))  # generator beyond n_max


def test_smash_trivial_is_coefficients(table, window):
    N = trivial_module(unit=milnor.UNIT_MONO)
    sm = iso.smash_module(N, table, window)
    assert len(sm.keys) == len(window.basis())
    n0 = N.keys[0]
    assert sm.act_mono(((0,), ()), ((0,), n0)) == frozenset([((), n0)])


def test_smash_underlying_space(table, window):
    N = trivial_module([Bidegree(0, 0), Bidegree(2, 1)], unit=milnor.UNIT_MONO)
    sm = iso.smash_module(N, table, window)
    assert len(sm.keys) == 2 * len(window.basis())
    for (J, n) in sm.keys:
        assert sm.degree_of((J, n)) == iso.ext_degree(J) + N.degree_of(n)


def test_baer_trivial_and_smallest():
    rep = iso.baer_injectivity_check(0, ideal_samples=4, seed=1)
    assert rep.ok and rep.ideals_checked >= 2


def test_baer_exhaustive_small():
    for n in (1, 2):
        rep = iso.baer_injectivity_check(n, ideal_samples=10, seed=2)
        assert rep.ok, rep.failures


def test_baer_sampled_n3():
    rep = iso.baer_injectivity_check(3, ideal_samples=200, seed=3)
    assert rep.ok and rep.ideals_checked >= 200


def test_hom_comparison_examples(table):
    w = iso.IsotropicWindow(-20)
    t = iso.solve_action_table(3, 8)
    ground = trivial_module(unit=milnor.UNIT_MONO)
    hc = iso.hom_comparison_check(ground, ground, t, w)
    assert hc.ok and hc.dim_linear == 1
    shifted = trivial_module([Bidegree(2, 1)], unit=milnor.UNIT_MONO)
    hc2 = iso.hom_comparison_check(ground, shifted, t, w)
    assert hc2.ok and hc2.dim_linear == 0


def test_hom_comparison_random_modules():
    w = iso.IsotropicWindow(-20)
    t = iso.solve_action_table(3, 8)
    rng = random.Random(7)
    pool = [Bidegree(2 * q, q) for q in range(4)] + [Bidegree(2 * q + 1, q) for q in range(3)]
    for _ in range(40):
        N = random_trivial_module(rng, 3, pool, unit=milnor.UNIT_MONO)
        Np = random_trivial_module(rng, 3, pool, unit=milnor.UNIT_MONO)
        hc = iso.hom_comparison_check(N, Np, t, w)
        assert hc.ok


@pytest.mark.parametrize("pmax, smax", [(32, 6), (16, 4)])
@pytest.mark.parametrize("p_min", [None, 0, -2, -5, -9, -14, -20])
def test_dual_route_matches_hom_route(hom_route_chart, pmax, smax, p_min):
    # the chart from the dual window module against the Hom chart: the
    # truncation bound contains every cell the Hom chart flags, and the
    # two agree on every cell neither flags
    window = iso.IsotropicWindow(-(pmax + 2) if p_min is None else p_min)
    dual = iso.isotropic_chart(window, smax, pmax)
    hom = hom_route_chart(window, smax, pmax)
    assert hom.truncated <= dual.truncated
    unflagged = {c: d for c, d in hom.cells.items() if d and c not in dual.truncated}
    assert {c: d for c, d in dual.cells.items() if d} == unflagged
    if p_min is None:
        assert dual.cells == hom.cells and not dual.truncated and not hom.truncated


def test_isotropic_chart_keeps_no_milnor_product_cache(monkeypatch):
    # the action table and the resolution over the opposite algebra form
    # their P-products packed; no product is formed as a monomial set
    def forbidden(*args):
        raise AssertionError("the isotropic chart reached the pairwise Milnor product")

    monkeypatch.setattr(milnor, "multiply_mono", forbidden)
    monkeypatch.setattr(milnor, "p_product", forbidden)
    chart = iso.isotropic_chart(iso.IsotropicWindow(-18), 4, 16)
    assert chart.cells


def test_dual_route_is_even_algebra_resolution():
    # Shapiro's lemma at work: over A0^op the dual window module is
    # induced from F2 over G, so its minimal resolution has pure P^S
    # coefficients, generators on p = 2q, and G's generators exactly
    from isoadams import homological as H
    from isoadams.modules import dual_module

    pmax, smax = 32, 8
    window = iso.IsotropicWindow(-(pmax + 2))
    coefficients = iso.isotropic_coefficients(iso.solve_action_table(window.n_max, pmax // 2), window)
    res = H.resolve(H.OppositeGeneralizedAlgebra(pmax + 2), smax=smax, pmax=pmax, target=dual_module(coefficients))
    coefficient_count = 0
    for s in range(1, smax + 2):
        for i in range(len(res.gens[s])):
            for coeffs in differential(res, s, i).values():
                assert all(not e for e, _ in coeffs), coeffs
                coefficient_count += len(coeffs)
    assert coefficient_count
    assert all(p == 2 * q for gens in res.gens for p, q in gens)
    assert res.gens == H.resolve(H.algebra_for("G", pmax + 2), smax=smax, pmax=pmax).gens


def test_dual_window_module_is_induced_from_iota():
    # iota, the dual of r_(), generates the dual window module over the
    # Q^E: at every bidegree of the default window of `isoadams
    # isotropic` (--tmax 44), the one class is the dual of r_E and equals
    # Q^E iota, while every P^R with R nonempty kills iota
    from isoadams.modules import dual_module

    pmax = 44
    window = iso.IsotropicWindow(-(pmax + 2))
    dual = dual_module(iso.isotropic_coefficients(iso.solve_action_table(window.n_max, pmax // 2), window))
    for E in window.basis():
        assert dual.basis_at(dual.degree_of(E)) == (E,)
        assert dual.act_mono((E, ()), ()) == frozenset([E]), E
    assert (window.n_max, len(window.basis())) == (4, 25)
    for w in range(1, pmax // 2 + 1):
        for r in milnor.p_exponents_of_weight(w):
            assert dual.act_mono(((), r), ()) == frozenset(), r
