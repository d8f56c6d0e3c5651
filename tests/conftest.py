from functools import lru_cache
from typing import Iterable, NamedTuple

import pytest

from isoadams import adem, cobar, gf2, homological as H, isotropic as iso, milnor
from isoadams.charts import ExtChart
from isoadams.milnor import Bidegree
from isoadams.modules import trivial_module


def dual_product(x, y):
    """The free graded-commutative product of two dual monomials tau^E
    xi^R: zero on overlapping taus."""
    ex, rx = x
    ey, ry = y
    if set(ex) & set(ey):
        return frozenset()
    n = max(len(rx), len(ry))
    r = tuple((rx[j] if j < len(rx) else 0) + (ry[j] if j < len(ry) else 0) for j in range(n))
    return frozenset([(tuple(sorted(ex + ey)), milnor.trim(r))])


@lru_cache(maxsize=None)
def coproduct(m):
    """psi(Q^E P^R) = sum over E splits and componentwise R splits.

    Dual to the free graded-commutative product of the dual Hopf algebra:
    the coefficient at (m1, m2) is the pairing of m against the product
    of the corresponding dual monomials.
    """
    e, r = m
    e_splits = [((), ())]
    for i in e:
        e_splits = [(a + (i,), b) for a, b in e_splits] + [(a, b + (i,)) for a, b in e_splits]
    r_splits = [((), ())]
    for rj in r:
        r_splits = [(s1 + (x,), s2 + (rj - x,)) for s1, s2 in r_splits for x in range(rj + 1)]
    out = set()
    for e1, e2 in e_splits:
        for r1, r2 in r_splits:
            out.add(((e1, milnor.trim(r1)), (e2, milnor.trim(r2))))
    return frozenset(out)


def transpose(rows, ncols):
    """The ncols rows of the transpose of a matrix of bit-packed rows."""
    out = [0] * ncols
    for c, row in enumerate(rows):
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= 1 << c
            row ^= low
    return out


def word_degree(word, flavor):
    """Each letter Sq^a sits in bidegree (floor(a/2))[a]; the classical
    flavor only sees the topological part."""
    p = sum(word)
    q = sum(a // 2 for a in word)
    return Bidegree(p, q if flavor != adem.CLASSICAL else 0)


def is_admissible(word, flavor):
    if flavor in (adem.CLASSICAL, adem.EVEN):
        return all(word[i] >= 2 * word[i + 1] for i in range(len(word) - 1))
    # generalized flavor: merge each Bockstein into the following even
    # square; the odd-primary-style condition on consecutive letters
    return all(
        word[i] // 2 >= 2 * (word[i + 1] // 2) + (word[i + 1] & 1)
        for i in range(len(word) - 1)
    )


def reduce_with_strategy(word, flavor, choose):
    """Adem reduction of a word with the inadmissible pair to rewrite
    picked by `choose` from their positions: the normal form must not
    depend on the choice (confluence)."""
    positions = [i for i in range(len(word) - 1) if word[i] < 2 * word[i + 1]]
    if not positions:
        return frozenset([word])
    i = choose(positions)
    out = set()
    for rep in adem._adem_pair(word[i], word[i + 1], flavor):
        out ^= reduce_with_strategy(word[:i] + rep + word[i + 2 :], flavor, choose)
    return frozenset(out)


def word_to_milnor(word):
    """An Sq word evaluated in the Milnor basis of the generalized
    algebra: the product of the `sq_to_milnor` of its letters."""
    out = milnor.ONE
    for a in word:
        out = milnor.multiply(out, adem.sq_to_milnor(a))
    return out


# the Milnor matrices of the product formula made explicit: the
# brute-force reference for `milnor._matrix_product_terms`


class MilnorMatrix(NamedTuple):
    """A finitely supported matrix (x_ij), (i,j) != (0,0), driving the
    product formula; entries stored sparsely as (i, j, x) with x > 0."""

    entries: tuple[tuple[int, int, int], ...]

    def row_condition(self) -> tuple[int, ...]:
        """R(X): r_i = sum_j 2^j x_ij."""
        n = max((i for i, _, _ in self.entries), default=0)
        return milnor.trim(sum(x << j for a, j, x in self.entries if a == i) for i in range(1, n + 1))

    def column_condition(self) -> tuple[int, ...]:
        """S(X): s_j = sum_i x_ij."""
        n = max((j for _, j, _ in self.entries), default=0)
        return milnor.trim(sum(x for i, b, x in self.entries if b == j) for j in range(1, n + 1))

    def diagonal(self) -> tuple[int, ...]:
        """T(X): t_n = sum_{i+j=n} x_ij."""
        n = max((i + j for i, j, _ in self.entries), default=0)
        return milnor.trim(sum(x for i, j, x in self.entries if i + j == d) for d in range(1, n + 1))


def _matrices(r: tuple[int, ...], s: tuple[int, ...]) -> tuple[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]], ...]:
    """All matrices X with row condition R(X) = r and column condition
    S(X) = s, as (inner rows, derived first column); the derived first
    row is reconstructed from the column deficits.

    inner[i-1][j-1] = x_ij for i, j >= 1; first_col[i-1] = x_i0.
    """
    nr, nc = len(r), len(s)
    results = []
    inner_rows: list[tuple[int, ...]] = []
    first_col: list[int] = []

    def rec_row(i: int, col_used: list[int]):
        if i > nr:
            results.append((tuple(inner_rows), tuple(first_col)))
            return
        budget = r[i - 1]

        def rec_entry(j: int, left: int, row_acc: list[int]):
            if j > nc:
                inner_rows.append(tuple(row_acc))
                first_col.append(left)
                rec_row(i + 1, col_used)
                first_col.pop()
                inner_rows.pop()
                return
            cap = min(left >> j, s[j - 1] - col_used[j - 1])
            for x in range(cap + 1):
                col_used[j - 1] += x
                row_acc.append(x)
                rec_entry(j + 1, left - (x << j), row_acc)
                row_acc.pop()
                col_used[j - 1] -= x

        rec_entry(1, budget, [])

    rec_row(1, [0] * nc)
    return tuple(results)


def enumerate_matrices(r: Iterable[int], s: Iterable[int]) -> list[MilnorMatrix]:
    """Exactly the matrices X with R(X)=r and S(X)=s, each once."""
    rt, st = milnor.trim(r), milnor.trim(s)
    out = []
    for inner, first_col in _matrices(rt, st):
        entries = []
        nc = len(st)
        col_sums = [sum(row[j] for row in inner) for j in range(nc)]
        for j in range(1, nc + 1):
            x = st[j - 1] - col_sums[j - 1]
            if x:
                entries.append((0, j, x))
        for i, row in enumerate(inner, start=1):
            if first_col[i - 1]:
                entries.append((i, 0, first_col[i - 1]))
            for j, x in enumerate(row, start=1):
                if x:
                    entries.append((i, j, x))
        out.append(MilnorMatrix(tuple(sorted(entries))))
    return sorted(out, key=lambda m: m.entries)


def b_mod2(x: MilnorMatrix) -> int:
    """prod t_n! / prod x_ij! reduced mod 2, via Lucas: odd iff on each
    antidiagonal the binary digits of the entries are disjoint."""
    diagonals: dict[int, list[int]] = {}
    for i, j, v in x.entries:
        diagonals.setdefault(i + j, []).append(v)
    for vals in diagonals.values():
        acc = 0
        for v in vals:
            if acc & v:
                return 0
            acc |= v
    return 1


class ExteriorMilnorAlgebra(H.WindowedAlgebra):
    """The exterior subalgebra on Milnor operations Q_0..Q_n; bidegrees
    are multiplicity-free.  Its rows are formed monomial by monomial
    through `multiply`."""

    flavor = "exterior"
    grading = 2
    unit: tuple = ()

    def __init__(self, n_max: int, max_p: int):
        super().__init__(max_p)
        self.n_max = n_max

    def basis(self, deg):
        self.check_window(deg)
        mono = milnor.exterior_from_degree(*deg)
        if mono is None or (mono and mono[-1] > self.n_max):
            return ()
        return (mono,)

    def multiply(self, m1, m2):
        if set(m1) & set(m2):
            return frozenset()
        return frozenset([tuple(sorted(m1 + m2))])

    def _build_right_rows(self, n, deg, out_deg):
        index = self.index(out_deg)
        rows = []
        for m in self.basis(deg):
            row = 0
            for t in self.multiply(m, n):
                row ^= 1 << index[t]
            rows.append(row)
        return tuple(rows)


class ExteriorDualCoalgebra(cobar.DualCoalgebra):
    """The dual of `ExteriorMilnorAlgebra`: the quotient coalgebra of the
    dual with the xi's killed, primitive exterior taus on indices up to
    n_max, at most one monomial per bidegree."""

    def __init__(self, n_max: int):
        super().__init__("A0")
        self.kind = "exterior"
        self.n_max = n_max

    def basis(self, deg):
        e = milnor.exterior_from_degree(*deg)
        if e is None or (e and e[-1] > self.n_max):
            return ()
        return ((e, ()),)

    def reduced_coproduct(self, m):
        return _exterior_reduced(m)


@lru_cache(maxsize=None)
def _exterior_reduced(m):
    """The reduced coproduct of tau_E: every split of E into two
    nonempty parts, the taus being primitive."""
    e, _ = m
    pairs = [((), ())]
    for i in e:
        pairs = [(a + (i,), b) for a, b in pairs] + [(a, b + (i,)) for a, b in pairs]
    return frozenset(((a, ()), (b, ())) for a, b in pairs if a and b)


def random_trivial_module(rng, size, degree_pool, *, unit):
    """A trivial module on `size` keys, each at a degree drawn from
    degree_pool."""
    return trivial_module([rng.choice(degree_pool) for _ in range(size)], unit=unit)


def corrupt_p_product_table(monkeypatch, bit=0):
    """Flip one bit of the first entry of the table P^(1) P^R over the R
    of weight 1, the square equations' rows for Sq^2 P^R.  Bit 0 is a
    wrong structure constant; bit len(p_exponents_of_weight(2)) = 1 is a
    term past the last P^R of weight 2, which the parity of the row
    against a solution never reads.  Either way the action table solved
    from it is inconsistent at (weight, generator) = (2, 2), (3, 2),
    (6, 3) and (7, 3)."""
    table = milnor.p_product_table

    def flipped(factor, w, left):
        got = table(factor, w, left)
        if (factor, w, left) == ((1,), 1, True):
            got = (got[0] ^ 1 << bit,) + got[1:]
        return got

    monkeypatch.setattr(milnor, "p_product_table", flipped)


def reference_runs(gens):
    """Runs (degree, first, stop) of consecutive equal degrees in a list
    of generator degrees: the reference for the runs
    `FreeResolution.gens_at` finds by bisection."""
    runs = []
    for i, deg in enumerate(gens):
        if runs and runs[-1][0] == deg:
            runs[-1] = (deg, runs[-1][1], i + 1)
        else:
            runs.append((deg, i, i + 1))
    return runs


def reference_cell(res, s, deg):
    """(size, place) of (F_s)_deg from a walk over the runs of F_s for
    that one cell: the reference for the per-degree layouts of
    `FreeResolution._cell`."""
    place, size = {}, 0
    for gdeg, first, stop in reference_runs(res.gens[s]):
        if gdeg[0] > deg[0]:
            break
        sub = H.sub_deg(deg, gdeg)
        basis = res.algebra.basis(sub)
        if basis:
            for j in range(first, stop):
                place[j] = (size, sub, basis)
                size += len(basis)
    return size, place


def cell_basis(res, s, deg):
    """Ordered basis (gen index, algebra monomial) of (F_s)_deg, as the
    library's cell layout places it."""
    return tuple((j, m) for j, (_, _, basis) in res._cell(s, deg)[1].items() for m in basis)


def decode(res, s, deg, bits):
    """Bits over cell_basis(res, s, deg) as {gen index: frozenset of
    algebra monomials}, read over the blocks of `reference_cell`: the
    reference for the library's reading of bits (`_terms`)."""
    out = {}
    for j, (offset, _, basis) in reference_cell(res, s, deg)[1].items():
        monos = frozenset(m for k, m in enumerate(basis) if bits >> (offset + k) & 1)
        if monos:
            out[j] = monos
    return out


def differential(res, s, i):
    """d of generator i of F_s, decoded: {gen index of F_{s-1}: algebra
    monomials}, or {"target": keys} over the target module for s = 0."""
    gdeg = res.gens[s][i]
    if s == 0:
        keys = res.target.basis_at(gdeg)
        return {"target": frozenset(key for b, key in enumerate(keys) if res.diff[0][i] >> b & 1)}
    return decode(res, s - 1, gdeg, res.diff[s][i])


def diff_rows(res, s, deg):
    """(rows, codomain basis): a row per element of cell_basis(res, s, deg),
    bits over the codomain (F_{s-1} at deg, or the target for s = 0)."""
    rows, _ = res._rows(s, deg)
    cod = res.target.basis_at(deg) if s == 0 else cell_basis(res, s - 1, deg)
    return rows, cod


def reference_hom_chart(res, coefficients, covers):
    """(cells, truncated) of Hom(resolution, coefficients), scanning
    every generator for each (s, cell) and ranking with rank_ints.
    `covers(bidegree)` says whether the coefficients hold that bidegree
    in full; cells whose Hom terms need one they do not are flagged."""

    decoded = {}

    def differentials(s):
        if s not in decoded:
            decoded[s] = [differential(res, s, i) for i in range(len(res.gens[s]))]
        return decoded[s]

    def hom_basis(s, cell):
        out, truncated = [], False
        for i, gdeg in enumerate(res.gens[s]):
            hdeg = Bidegree(gdeg[0] - cell[0], gdeg[1] - cell[1])
            truncated = truncated or not covers(hdeg)
            out.extend((i, h) for h in coefficients.basis_at(hdeg))
        return out, truncated

    def delta_rank(s, cell):
        dom, _ = hom_basis(s, cell)
        cod, _ = hom_basis(s + 1, cell)
        index = {c: n for n, c in enumerate(cod)}
        rows = []
        for j, h in dom:
            row = 0
            for i, entry in enumerate(differentials(s + 1)):
                for m in entry.get(j, ()):
                    for hh in coefficients.act_mono(m, h):
                        row ^= 1 << index[(i, hh)]
            rows.append(row)
        return gf2.rank_ints(rows, max(len(cod), 1))

    candidates = {
        (gdeg[0] - hdeg[0], gdeg[1] - hdeg[1])
        for s in range(res.smax + 1)
        for gdeg in res.gens[s]
        for hdeg in coefficients.degrees()
        if gdeg[0] - hdeg[0] <= res.pmax
    }
    cells, truncated = {}, set()
    for cell in sorted(candidates):
        for s in range(res.smax + 1):
            dom, here = hom_basis(s, cell)
            if not dom:
                continue
            if here or hom_basis(s + 1, cell)[1] or (s > 0 and hom_basis(s - 1, cell)[1]):
                truncated.add((s, cell))
                continue
            dim = len(dom) - delta_rank(s, cell) - (delta_rank(s - 1, cell) if s else 0)
            if dim:
                cells[(s, cell)] = dim
    return cells, truncated


@pytest.fixture(scope="session")
def hom_chart():
    """The Hom route to Ext over A0 with coefficients: resolve F2 over A0
    and take the cohomology of Hom into the module, as a cross-check of
    `ext_chart_coefficients`.  One resolution per (smax, pmax) serves
    every module."""
    resolutions = {}

    def build(coefficients, smax, pmax, covers=lambda deg: True):
        res = resolutions.get((smax, pmax))
        if res is None:
            res = resolutions[(smax, pmax)] = H.resolve(H.algebra_for("A0", pmax + 2), smax=smax, pmax=pmax)
        chart = ExtChart("isotropic", 2, smax, pmax)
        chart.cells, chart.truncated = reference_hom_chart(res, coefficients, covers)
        return chart

    return build


@pytest.fixture(scope="session")
def hom_route_chart(hom_chart):
    """The Hom route to the isotropic chart of a window: cells whose Hom
    terms need a bidegree the window does not hold in full, one where a
    monomial outside the window sits, are flagged truncated."""

    def build(window, smax, pmax):
        table = iso.solve_action_table(n_max=window.n_max, w_max=pmax // 2)
        coeffs = iso.isotropic_coefficients(table, window)
        return hom_chart(coeffs, smax, pmax, lambda deg: deg.p >= window.p_min or iso.ext_from_degree(deg) is None)

    return build
