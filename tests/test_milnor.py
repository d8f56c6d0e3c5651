import itertools
import math
import random
from array import array
from collections import Counter

import pytest

from isoadams import milnor as M
from isoadams.milnor import Bidegree, Element, P, Q

from conftest import MilnorMatrix, b_mod2, coproduct, dual_product, enumerate_matrices


def mono(e, r):
    return (tuple(sorted(e)), M.trim(r))


def all_monos(max_p):
    out = []
    for p in range(max_p + 1):
        for q in range(p + 1):
            out.extend(M.basis(p, q))
    return out


# ---------------------------------------------------------------------------
# bidegrees


def test_bidegree_examples():
    assert M.mono_degree(mono([2], [])) == Bidegree(7, 3)
    assert M.mono_degree(mono([], [1])) == Bidegree(2, 1)
    assert M.mono_degree(M.UNIT_MONO) == Bidegree(0, 0)


def test_offset_counts_exterior_part():
    for m in all_monos(20):
        assert M.mono_degree(m).offset == len(m[0])


def test_degree_additivity():
    rng = random.Random(11)
    monos = all_monos(20)
    for _ in range(300):
        a, b = rng.choice(monos), rng.choice(monos)
        prod = M.multiply(Element([a]), Element([b]))
        if prod:
            assert prod.degree() == M.mono_degree(a) + M.mono_degree(b)


# ---------------------------------------------------------------------------
# matrix enumeration; oracle = exhaustive search over bounded entry grids


def brute_matrices(r, s):
    """Independent enumeration: try every entry assignment on the index
    grid with entries bounded by the largest condition value."""
    r, s = M.trim(r), M.trim(s)
    ni, nj = len(r), len(s)
    bound = max(list(r) + list(s) + [0])
    cells = [(i, j) for i in range(ni + 1) for j in range(nj + 1) if (i, j) != (0, 0)]
    found = set()
    for values in itertools.product(range(bound + 1), repeat=len(cells)):
        x = dict(zip(cells, values))
        if any(sum(x.get((i, j), 0) << j for j in range(nj + 1)) != r[i - 1] for i in range(1, ni + 1)):
            continue
        if any(sum(x.get((i, j), 0) for i in range(ni + 1)) != s[j - 1] for j in range(1, nj + 1)):
            continue
        # rows beyond len(r) and columns beyond len(s) are zero by the grid
        found.add(tuple(sorted((i, j, v) for (i, j), v in x.items() if v)))
    return found


@pytest.mark.parametrize(
    "r,s,expected_count",
    [((1,), (1,), 1), ((), (), 1), ((2,), (1,), 2)],
)
def test_enumerate_matrices_examples(r, s, expected_count):
    got = enumerate_matrices(r, s)
    assert len(got) == expected_count
    assert len({m.entries for m in got}) == expected_count
    assert {m.entries for m in got} == brute_matrices(r, s)


def test_enumerate_matrices_specific():
    one = enumerate_matrices((1,), (1,))[0]
    assert one.entries == ((0, 1, 1), (1, 0, 1))
    two = {m.entries for m in enumerate_matrices((2,), (1,))}
    assert two == {((0, 1, 1), (1, 0, 2)), ((1, 1, 1),)}


def test_enumerate_matrices_vs_brute():
    cases = [((3,), (2,)), ((1, 1), (2,)), ((4,), (1, 1)), ((2, 1), (1, 1)), ((5,), (3,))]
    for r, s in cases:
        got = {m.entries for m in enumerate_matrices(r, s)}
        assert got == brute_matrices(r, s)
        for x in enumerate_matrices(r, s):
            assert x.row_condition() == M.trim(r)
            assert x.column_condition() == M.trim(s)


# ---------------------------------------------------------------------------
# b(X) mod 2; oracle = direct factorial computation


def b_factorial(x):
    diag = {}
    for i, j, v in x.entries:
        diag.setdefault(i + j, []).append(v)
    val = 1
    for vals in diag.values():
        t = sum(vals)
        num = math.factorial(t)
        for v in vals:
            num //= math.factorial(v)
        val *= num
    return val % 2


def test_b_mod2_examples():
    x = MilnorMatrix(((0, 1, 1), (1, 0, 1)))  # t_1 = 2
    assert b_factorial(x) == 0
    assert b_mod2(x) == 0
    assert b_mod2(MilnorMatrix(())) == 1
    y = MilnorMatrix(((0, 2, 1), (1, 0, 1)))  # t_1 = 1, t_2 = 1
    assert b_factorial(y) == 1
    assert b_mod2(y) == 1


def test_b_mod2_vs_factorial():
    for r, s in [((3,), (2,)), ((4, 1), (2,)), ((2, 1), (1, 1)), ((6,), (3,)), ((7,), (7,))]:
        for x in enumerate_matrices(r, s):
            assert b_mod2(x) == b_factorial(x)


def test_pruned_matrix_terms_match_enumeration():
    # the product formula enumerates only matrices with odd b(X); it must
    # list T(X) exactly as often as the full enumeration filtered by b_mod2
    exps = [r for w in range(25) for r in M.p_exponents_of_weight(w)]
    pairs = 0
    for r in exps:
        for s in exps:
            if M.p_weight(r) + M.p_weight(s) > 24:
                continue
            want = Counter(x.diagonal() for x in enumerate_matrices(r, s) if b_mod2(x))
            assert Counter(M._matrix_product_terms(r, s)) == want, (r, s)
            pairs += 1
    assert pairs == 5_894


def test_pairwise_kernel_matches_every_matrix():
    # every matrix with R(X) = r and S(X) = s, its coefficient's parity
    # from the multinomials and nothing pruned: the kernel must list T(X)
    # exactly as often as X with odd b(X) occur, which guards each
    # shortcut of its enumeration, closing a spent row included
    exps = [r for w in range(9) for r in M.p_exponents_of_weight(w)]
    for r in exps:
        for s in exps:
            inner = [(i, j) for i in range(1, len(r) + 1) for j in range(1, len(s) + 1)]
            want = Counter()
            for values in itertools.product(*(range(min(r[i - 1] >> j, s[j - 1]) + 1) for i, j in inner)):
                x = dict(zip(inner, values))
                for i in range(1, len(r) + 1):
                    x[i, 0] = r[i - 1] - sum(x[i, j] << j for j in range(1, len(s) + 1))
                for j in range(1, len(s) + 1):
                    x[0, j] = s[j - 1] - sum(x[i, j] for i in range(1, len(r) + 1))
                if min(x.values(), default=0) < 0:
                    continue
                if b_factorial(MilnorMatrix(tuple((i, j, v) for (i, j), v in x.items() if v))):
                    t = [0] * (len(r) + len(s))
                    for (i, j), v in x.items():
                        t[i + j - 1] += v
                    want[M.trim(t)] += 1
            assert Counter(M._matrix_product_terms(r, s)) == want, (r, s)


def test_p_product_tables_match_p_product():
    # each table entry, on either side, is the packed p_product of its pair
    for total in range(25):
        position = {t: n for n, t in enumerate(M.p_exponents_of_weight(total))}
        for w in range(total + 1):
            for factor in M.p_exponents_of_weight(total - w):
                for left in (True, False):
                    want = []
                    for r in M.p_exponents_of_weight(w):
                        bits = 0
                        for t in M.p_product(factor, r) if left else M.p_product(r, factor):
                            bits |= 1 << position[t]
                        want.append(bits)
                    assert M.p_product_table(factor, w, left) == tuple(want), (factor, w, left)


def test_pairwise_product_keeps_no_memo(monkeypatch):
    # a repeated product is formed again: both calls enumerate matrices,
    # and multiply_mono's wrapper stores nothing
    calls = []
    enumerate_terms = M._matrix_product_terms

    def counted(r, s):
        calls.append((r, s))
        return enumerate_terms(r, s)

    monkeypatch.setattr(M, "_matrix_product_terms", counted)
    a, b = Element([mono([0], [1])]), Element([mono([], [2, 1])])
    first = M.multiply(a, b)
    once = len(calls)
    assert once and M.multiply(a, b) == first
    assert calls == 2 * calls[:once]
    assert M.multiply_mono.cache_info().currsize == 0


def test_isotropic_chart_forms_no_pairwise_p_product(monkeypatch):
    # the action table and the dual resolve take every P-product from the
    # per-weight tables, never from the pairwise product formula
    from isoadams import isotropic as iso

    def forbidden(*args):
        raise AssertionError("the isotropic chart reached the pairwise product formula")

    monkeypatch.setattr(M, "_matrix_product_terms", forbidden)
    chart = iso.isotropic_chart(iso.IsotropicWindow(-22), 6, 20)
    assert chart.cells


# ---------------------------------------------------------------------------
# products


def test_multiply_examples():
    assert M.multiply(Q(0), Q(0)).is_zero()
    assert M.multiply(Q(0), P(1)) == Element([mono([0], [1])])
    # same element in the other presentation: P(1) Q0 + Q1
    assert M.qepr_to_prqe(M.multiply(Q(0), P(1))) == M.PrqeElement([mono([0], [1]), mono([1], [])])
    assert M.multiply(P(1), P(1)).is_zero()
    assert M.multiply(P(1), P(2)) == P(3)


def test_multiply_unit():
    rng = random.Random(3)
    monos = all_monos(15)
    for _ in range(50):
        a = Element([rng.choice(monos)])
        assert M.multiply(M.ONE, a) == a == M.multiply(a, M.ONE)


def test_exteriority():
    for i in range(7):
        assert M.multiply(Q(i), Q(i)).is_zero()
    for i in range(7):
        for j in range(7):
            assert M.multiply(Q(i), Q(j)) == M.multiply(Q(j), Q(i))


def test_commutator_formula():
    # Q_k P^R + P^R Q_k = sum_j Q_{k+j} P^{R - 2^k e_j}
    for k in range(6):
        for w in range(0, 21):
            for r in M.p_exponents_of_weight(w):
                if M.mono_degree(mono([], r)).p > 40:
                    continue
                lhs = M.multiply(Q(k), P(*r)) + M.multiply(P(*r), Q(k))
                rhs = M.ZERO
                for j in range(1, len(r) + 1):
                    if r[j - 1] >= 2**k:
                        lowered = list(r)
                        lowered[j - 1] -= 2**k
                        rhs = rhs + Element([mono([k + j], lowered)])
                assert lhs == rhs, (k, r)


def test_oracle_equivalence_small():
    monos = all_monos(14)
    degs = {m: M.mono_degree(m).p for m in monos}
    for a in monos:
        for b in monos:
            if degs[a] + degs[b] > 14:
                continue
            ea, eb = Element([a]), Element([b])
            assert M.multiply(ea, eb) == M.multiply_via_duality(ea, eb)


def test_duality_oracle_guards_packed_queries():
    # psi(xi_1^3 tau_0) at p = 7 is packed with n = 1 and 2-bit fields; a
    # factor with a tau or xi index above 1, or an exponent of 4 or more,
    # fits no term of that layout and packs to no key on either side
    w = mono([0], [3])
    _, n, width = M._packed_coproduct(w)
    assert (n, width) == (1, 2)
    for m in (mono([2], []), mono([1, 2], []), mono([], [0, 1]), mono([0], [1, 1]), mono([], [4]), mono([1], [5])):
        for right in (False, True):
            assert M._pack(m, right, n, width) is None, (m, right)
    assert M._pack(mono([0, 1], [3]), True, n, width) == 0b1100 | 3 << M._xi_field(1, True, n, width)
    # the oracle agrees with multiply on every pair of total degree <= 16
    # whose target degree holds a w that cannot pack one of its factors,
    # tau_2 (x) 1 against psi(xi_1^3 tau_0) among them
    monos = all_monos(16)
    guarded = []
    for a in monos:
        for b in monos:
            d = M.mono_degree(a) + M.mono_degree(b)
            if d.p > 16:
                continue
            layouts = {M._packed_coproduct(w)[1:] for w in M.dual_basis(d.p, d.q)}
            if any(M._pack(a, False, *lay) is None or M._pack(b, True, *lay) is None for lay in layouts):
                guarded.append((a, b))
                ea, eb = Element([a]), Element([b])
                assert M.multiply_via_duality(ea, eb) == M.multiply(ea, eb), (a, b)
    assert (mono([2], []), M.UNIT_MONO) in guarded and len(guarded) > 500


def test_dual_coproducts_are_sorted_words_to_p24():
    # every psi(w) with p <= 24 fits one 64-bit word per term and is kept
    # as a sorted array of 8-byte words
    for p in range(25):
        for q in range(p + 1):
            for w in M.dual_basis(p, q):
                terms, n, width = M._packed_coproduct(w)
                assert 2 * (n + 1) + 2 * n * width <= 64, w
                assert isinstance(terms, array) and terms.typecode == "Q" and terms.itemsize == 8, w
                assert list(terms) == sorted(set(terms)), w


def test_duality_oracle_wide_layout():
    # P(0,0,0,0,1) P(1) lands in (32)[64], where xi_1 xi_5 has the layout
    # n = 5 with 6-bit fields, 72 bits, and a term of 67 bits: its psi is
    # a sorted tuple, and the oracle still agrees with `multiply`
    w = mono([], [1, 0, 0, 0, 1])
    terms, n, width = M._packed_coproduct(w)
    assert (n, width) == (5, 6) and 2 * (n + 1) + 2 * n * width == 72
    assert isinstance(terms, tuple) and list(terms) == sorted(set(terms))
    assert max(terms).bit_length() == 67
    a, b = P(0, 0, 0, 0, 1), P(1)
    assert M.multiply_via_duality(a, b) == M.multiply(a, b) == Element([w])


def test_duality_oracle_is_independent(monkeypatch):
    # the oracle must use nothing of the product formula, and the product
    # formula nothing of the dual coproduct
    def forbidden(*args):
        raise AssertionError("the duality oracle reached the product formula")

    samples = [(mono([0], [1]), mono([1], [2])), (mono([], [3, 1]), mono([0, 2], [])), (mono([1], [0, 1]), mono([], [5]))]
    formula = (M.multiply_mono, M._p_past_qs)
    for cached in formula:
        cached.cache_clear()
    M._packed_coproduct.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(M, "_matrix_product_terms", forbidden)
        oracle = [M.multiply_via_duality(Element([a]), Element([b])) for a, b in samples]
    for cached in formula:
        info = cached.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0), cached
    # the oracle reads psi(w) from the packed coproduct cache
    assert M._packed_coproduct.cache_info().currsize > 0
    M._packed_coproduct.cache_clear()
    products = [M.multiply(Element([a]), Element([b])) for a, b in samples]
    info = M._packed_coproduct.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
    assert products == oracle and all(products)


def test_associativity_sample():
    rng = random.Random(23)
    monos = all_monos(24)
    degs = {m: M.mono_degree(m).p for m in monos}
    done = 0
    while done < 400:
        a, b, c = rng.choice(monos), rng.choice(monos), rng.choice(monos)
        if degs[a] + degs[b] + degs[c] > 30:
            continue
        ea, eb, ec = Element([a]), Element([b]), Element([c])
        assert M.multiply(M.multiply(ea, eb), ec) == M.multiply(ea, M.multiply(eb, ec))
        done += 1


# ---------------------------------------------------------------------------
# dual Hopf algebra


def test_dual_product_examples():
    tau0 = mono([0], [])
    xi1 = mono([], [1])
    assert dual_product(tau0, tau0) == frozenset()
    assert dual_product(tau0, xi1) == frozenset([mono([0], [1])])
    assert dual_product(xi1, xi1) == frozenset([mono([], [2])])


def test_dual_coproduct_examples():
    xi1 = mono([], [1])
    tau0 = mono([0], [])
    unit = M.UNIT_MONO
    assert M.dual_coproduct(xi1) == frozenset([(xi1, unit), (unit, xi1)])
    assert M.dual_coproduct(tau0) == frozenset([(tau0, unit), (unit, tau0)])
    xi2 = mono([], [0, 1])
    assert M.dual_coproduct(xi2) == frozenset(
        [(xi2, unit), (mono([], [2]), xi1), (unit, xi2)]
    )


def reference_dual_coproduct(w):
    """psi(w) multiplied out from psi(xi_k) = sum_i xi_{k-i}^{2^i} (x) xi_i
    and psi(tau_k) = tau_k (x) 1 + sum_i xi_{k-i}^{2^i} (x) tau_i with
    `dual_product` on each side; psi(xi_k^{2^c}) by repeated squaring."""

    def xi(j, e):
        return mono([], [0] * (j - 1) + [e]) if j else M.UNIT_MONO

    def times(a, b):
        out = set()
        for l1, r1 in a:
            for l2, r2 in b:
                for left in dual_product(l1, l2):
                    for right in dual_product(r1, r2):
                        out ^= {(left, right)}
        return out

    e, r = w
    out = {(M.UNIT_MONO, M.UNIT_MONO)}
    for k in e:
        tau = {(mono([k], []), M.UNIT_MONO)} | {(xi(k - i, 2**i), mono([i], [])) for i in range(k + 1)}
        out = times(out, tau)
    for k, rk in enumerate(r, start=1):
        power = {(xi(k - i, 2**i), xi(i, 1)) for i in range(k + 1)}
        while rk:
            if rk & 1:
                out = times(out, power)
            power = times(power, power)
            rk >>= 1
    return frozenset(out)


def test_dual_coproduct_matches_reference():
    for w in all_monos(24):
        assert M.dual_coproduct(w) == reference_dual_coproduct(w), w


@pytest.mark.parametrize(
    "w",
    [mono([0, 3], [300, 257]), mono([], [256]), mono([1], [0, 0, 257]), mono([2, 4], [1, 300])],
)
def test_dual_coproduct_wide_exponents(w):
    # exponents past 255 need fields wider than a byte: the width follows
    # the degree of w, and no exponent field carries into the next
    got = M.dual_coproduct(w)
    assert got == reference_dual_coproduct(w)
    for left, right in got:
        assert M.mono_degree(left) + M.mono_degree(right) == M.mono_degree(w)


def test_dual_coproduct_degree_balance():
    for m in all_monos(16):
        d = M.mono_degree(m)
        for left, right in M.dual_coproduct(m):
            assert M.mono_degree(left) + M.mono_degree(right) == d


def test_dual_coassociativity():
    def expand_left(m):
        out = set()
        for a, b in M.dual_coproduct(m):
            for a1, a2 in M.dual_coproduct(a):
                out ^= {(a1, a2, b)}
        return out

    def expand_right(m):
        out = set()
        for a, b in M.dual_coproduct(m):
            for b1, b2 in M.dual_coproduct(b):
                out ^= {(a, b1, b2)}
        return out

    for m in all_monos(12):
        assert expand_left(m) == expand_right(m)


def test_bialgebra_pairing_consistency():
    # <ab, xy> computed either by multiplying the algebra side or the
    # dual side must agree on sampled quadruples
    rng = random.Random(5)
    monos = all_monos(10)
    for _ in range(120):
        a, b = rng.choice(monos), rng.choice(monos)
        x, y = rng.choice(monos), rng.choice(monos)
        if M.mono_degree(a) + M.mono_degree(b) != M.mono_degree(x) + M.mono_degree(y):
            continue
        ab = M.multiply(Element([a]), Element([b]))
        lhs = 0
        for w in dual_product(x, y):
            if w in ab.terms:
                lhs ^= 1
        rhs = 0
        for w in dual_product(x, y):
            for left, right in M.dual_coproduct(w):
                if left == a and right == b:
                    rhs ^= 1
        assert lhs == rhs


# ---------------------------------------------------------------------------
# coproduct on the algebra side (dualization oracle)


def coproduct_by_dualization(m):
    """Coefficient of m1 (x) m2 is the pairing <m, dual(m1) dual(m2)>."""
    d = M.mono_degree(m)
    out = set()
    for p1 in range(d.p + 1):
        for q1 in range(d.q + 1):
            for m1 in M.basis(p1, q1):
                for m2 in M.basis(d.p - p1, d.q - q1):
                    c = 0
                    for w in dual_product(m1, m2):
                        if w == m:
                            c ^= 1
                    if c:
                        out.add((m1, m2))
    return frozenset(out)


def test_coproduct_examples():
    unit = M.UNIT_MONO
    q0 = mono([0], [])
    p1 = mono([], [1])
    assert coproduct(q0) == frozenset([(q0, unit), (unit, q0)])
    assert coproduct(p1) == frozenset([(p1, unit), (unit, p1)])
    assert coproduct(unit) == frozenset([(unit, unit)])


def test_coproduct_matches_dualization():
    for m in all_monos(9):
        assert coproduct(m) == coproduct_by_dualization(m)


# ---------------------------------------------------------------------------
# basis conversions


def test_conversion_examples():
    q0p1 = Element([mono([0], [1])])
    assert M.qepr_to_prqe(q0p1) == M.PrqeElement([mono([0], [1]), mono([1], [])])
    assert M.qepr_to_prqe(P(1)) == M.PrqeElement([mono([], [1])])
    assert M.prqe_to_qepr(M.PrqeElement([mono([0], [1])])) == Element(
        [mono([0], [1]), mono([1], [])]
    )
    assert M.prqe_to_qepr(M.PrqeElement([mono([1], [])])) == Q(1)
    assert M.prqe_to_qepr(M.PrqeElement([mono([], [2])])) == P(2)


def test_conversion_iterated_shuffles():
    # Q0 Q1 P(1): convert and verify by converting back
    e = Element([mono([0, 1], [1])])
    pr = M.qepr_to_prqe(e)
    assert M.prqe_to_qepr(pr) == e


def test_basis_roundtrip_and_counts():
    for p in range(0, 41):
        for q in range(0, p + 1):
            monos = M.basis(p, q)
            image = set()
            for m in monos:
                e = Element([m])
                pr = M.qepr_to_prqe(e)
                assert M.prqe_to_qepr(pr) == e
                image ^= pr.pairs
            # the conversion is a bijection on each bidegree: PRQE pairs
            # are indexed by the same (E, R) shapes
            assert len({pair for m in monos for pair in M.qepr_to_prqe(Element([m])).pairs}) == len(monos) or not monos


def test_conversion_matches_duality_oracle():
    # both conversions read `_p_past_qs`, so the round trip cannot catch
    # a fault there; the oracle shares no code with it: multiplying out
    # each pair P^R Q^E of qepr_to_prqe(m) by duality must give m back;
    # the conversion rung of test_acceptance.py runs it to p <= 64
    for m in all_monos(40):
        back = M.ZERO
        for e, r in M.qepr_to_prqe(Element([m])).pairs:
            back = back + M.multiply_via_duality(P(*r), Element([(e, ())]))
        assert back == Element([m]), m


# ---------------------------------------------------------------------------
# enumeration / dimensions


def test_basis_small_counts():
    # degree 7 column: Q2, Q0 P(3), Q0 P(0,1), Q1 P(2)
    monos = [m for q in range(8) for m in M.basis(7, q)]
    assert len(monos) == 4
    assert mono([2], []) in monos and mono([0], [0, 1]) in monos


def test_basis_is_blocks_of_p_exponents():
    # the packed right-multiplication rows rely on this layout: one block
    # per exterior part E in sorted E order, each {E} x the P-exponents
    # of the weight left to the P-part
    nonempty = 0
    for p in range(0, 81):
        for q in range(0, p + 1):
            monos = M.basis(p, q)
            if not monos:
                assert M.basis_blocks(p, q) == {}
                continue
            nonempty += 1
            exteriors = sorted({e for e, _ in monos})
            weights = [q - M.mono_degree((e, ())).q for e in exteriors]
            expected = [(e, r) for e, w in zip(exteriors, weights) for r in M.p_exponents_of_weight(w)]
            assert list(monos) == expected, (p, q)
            offsets = [sum(len(M.p_exponents_of_weight(w)) for w in weights[:k]) for k in range(len(weights))]
            assert M.basis_blocks(p, q) == dict(zip(exteriors, zip(offsets, weights))), (p, q)
    assert nonempty == 195


def test_basis_and_blocks_match_brute_force():
    # every Q^E P^R of degree p <= 40 has E in {0..5} and r_j <= 40 / |xi_j|
    # on slots 1..5; sorted per bidegree they are the basis, and the
    # first position of each E with the weight left to P^R is its block
    p_max = 40
    xi_p = [2 ** (j + 1) - 2 for j in range(1, 6)]
    rs = [M.trim(r) for r in itertools.product(*(range(p_max // d + 1) for d in xi_p))]
    es = [e for k in range(7) for e in itertools.combinations(range(6), k)]
    by_degree: dict = {}
    for e in es:
        for r in rs:
            deg = M.mono_degree((e, r))
            if deg.p <= p_max:
                by_degree.setdefault(deg, []).append((e, r))
    for p in range(p_max + 1):
        for q in range(-2, p + 2):
            expected = sorted(by_degree.get((p, q), []))
            assert list(M.basis(p, q)) == expected, (p, q)
            blocks = {}
            for offset, (e, _) in enumerate(expected):
                blocks.setdefault(e, (offset, q - M.mono_degree((e, ())).q))
            assert M.basis_blocks(p, q) == blocks, (p, q)
            assert list(M.basis_blocks(p, q)) == list(blocks), (p, q)
    assert sum(map(len, by_degree.values())) == sum(len(M.basis(p, q)) for p in range(p_max + 1) for q in range(p + 1))


def test_p_exponents_match_brute_force():
    # slots 1..4 carry every weight <= 30 (xi_5 weighs 31); content and order
    for w in range(31):
        units = [2**j - 1 for j in range(1, 5)]
        expected = sorted(
            M.trim(r)
            for r in itertools.product(*(range(w // u + 1) for u in units))
            if sum(rj * u for rj, u in zip(r, units)) == w
        )
        assert list(M.p_exponents_of_weight(w)) == expected, w


def test_p_exponents_partition_counts():
    # weights of xi_j are 2^j - 1; counts match partitions into such parts
    def _count(w, parts):
        if w == 0:
            return 1
        if not parts or w < 0:
            return 0
        head, *rest = parts
        total = 0
        k = 0
        while k * head <= w:
            total += _count(w - k * head, rest)
            k += 1
        return total

    for w in range(0, 22):
        parts = [2**j - 1 for j in range(1, 6) if 2**j - 1 <= max(w, 1)]
        assert len(M.p_exponents_of_weight(w)) == _count(w, sorted(parts, reverse=True))


# ---------------------------------------------------------------------------
# parser / printer


def test_parse_print_roundtrip():
    rng = random.Random(9)
    monos = all_monos(18)
    for _ in range(100):
        terms = set()
        for _ in range(rng.randint(0, 3)):
            terms.add(rng.choice(monos))
        e = Element(terms)
        assert M.parse_element(str(e)) == e


def test_parse_examples():
    assert M.parse_element("Q0 Q2 P(1,0,3)") == Element([mono([0, 2], [1, 0, 3])])
    assert M.parse_element("1") == M.ONE
    assert M.parse_element("0") == M.ZERO
    assert M.parse_element("P(1) Q0") == Element([mono([0], [1]), mono([1], [])])
    assert M.parse_element("Q0 P(1) + Q1") == Element([mono([0], [1]), mono([1], [])])
    assert M.parse_element("P()") == M.parse_element("P( )") == M.ONE
    assert M.parse_element("P( 1 , 0 )") == P(1)


def test_parse_errors_carry_position():
    with pytest.raises(M.ParseError):
        M.parse_element("Q0 banana")
    with pytest.raises(M.ParseError):
        M.parse_element("Q0 + ")
    try:
        M.parse_element("Q0 wat")
    except M.ParseError as err:
        assert err.position > 0
    # an empty exponent slot names no element: the error points at it
    for text, position in [("P(1,,2)", 4), ("P(,1)", 2), ("P(1,)", 4), ("P(,)", 2), ("Q0 + P(2,,1)", 9)]:
        with pytest.raises(M.ParseError, match="empty P exponent slot") as err:
            M.parse_element(text)
        assert err.value.position == position, text


def test_printing_canonical_order():
    e = Element([mono([1], []), mono([0], [1])])
    # both terms have bidegree (1)[3]; ties broken by E then R
    assert str(e) == "Q0 P(1) + Q1"
