"""Minimal free resolutions over windowed graded GF(2) algebras, Ext
charts read off their generators (coefficients in a finite module M
through a resolution of its dual over the opposite algebra), and one
chain-map class (`ChainMap`) serving both Yoneda products (chain lifts)
and triple Massey products (null-homotopies).

One row path: `FreeResolution._terms` decodes an element of F_s into
its terms n g_j, each placed at the block of g_j in a cell.  A
generator's rows are `WindowedAlgebra.rows` of the terms of its
differential; `ChainMap.apply` reads the rows m*n of each term of a
chain-map value from `WindowedAlgebra.right_rows`.  Which rows are kept
is the algebra's decision: the classical algebra, A0 and G sum the rows
of the store `right_rows`, the only cache of algebra products on that
path besides the tables they are built from; over A0^op, the dual route
to Ext with coefficients, `rows` is `milnor.left_rows`, which XORs the
P-product tables straight into a generator's rows, so a resolve keeps no
row.

`resolve` appends the generators of F_s in increasing degree, so
`FreeResolution.gens[s]` is sorted, and its runs of equal degrees are
found by bisection (`gens_at`).  Each cell (F_s)_deg has one layout
record (`FreeResolution._cell`), its size and the block of each
generator, from which its basis is read and its bits are decoded; one
walk over the runs of F_s records the layouts of every nonempty cell at
a topological degree p, and a cell with no record is empty.  An element
of F_s is always bits over the basis of its cell: the differentials
`resolve` stores are the kernel vectors it finds, and chain-map values
are the bits their solve returns; both are read block by block over
their cell's layout (`_terms`).

Over the classical algebra the rows come from packed Sq^a tables
(`ClassicalAlgebra.sq_rows`), one per letter and source degree, so no
Adem word is reduced (`adem.reduce_word`) on the resolve path.  Over
A0, G and A0^op they come from P-product tables
(`milnor.p_product_table`), one per fixed P-part and weight of the other
factor, shifted into the block layout of the Milnor basis
(`milnor.packed_rows` for the right rows of A0 and G; G is A0's slope-2
part, and its rows are A0's on that line).  No product is formed as a
set of monomials on these paths, and `WindowedAlgebra.multiply` stays as
the reference the rows are tested against.

Degrees are tuples: (t,) for the singly graded classical algebra,
(p, q) for the bigraded ones.  Resolutions are built cell by cell in
increasing topological degree; within a cell, homological stages run
bottom-up, so every generator found with t <= tmax is exact and the
resolution is minimal by construction (a unit coefficient in a new
differential would contradict the independence of the kernel classes
the earlier stage killed).  A stage where F_s is empty at the cell
builds no rows: the classes it carries all become generators.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional

from . import adem, gf2, milnor
from .charts import ExtChart, name_h_classes
from .modules import FiniteModule, dual_module, trivial_module

Deg = tuple[int, ...]


class WindowExceededError(Exception):
    """A computation needs degrees outside the window it was given; the
    isotropic action table raises the same class."""


def sub_deg(a: Deg, b: Deg) -> Deg:
    return tuple(map(operator.sub, a, b))


def add_deg(a: Deg, b: Deg) -> Deg:
    return tuple(map(operator.add, a, b))


# ---------------------------------------------------------------------------
# windowed algebras


class WindowedAlgebra:
    """Basis-per-bidegree view of a connected graded algebra, with
    packed right-multiplication rows; `max_p` is the window bound."""

    flavor: str
    grading: int
    unit = None

    def __init__(self, max_p: int):
        self.max_p = max_p
        # (n, deg) -> rows m*n for m in basis(deg), packed over the
        # basis of the product degree; a resolve over A0^op adds none
        self._right_rows: dict = {}
        self._index_cache: dict = {}

    def basis(self, deg: Deg) -> tuple:
        raise NotImplementedError

    def multiply(self, m1, m2) -> frozenset:
        """The product of two basis monomials, which never reads the
        packed rows: an independent reference for them.  The A0 product
        is formed afresh on each call; the classical product, and each
        step of its Adem recursion, reads the run-long memo of
        `adem.reduce_word`."""
        raise NotImplementedError

    def index(self, deg: Deg) -> dict:
        """Position of each monomial in basis(deg)."""
        got = self._index_cache.get(deg)
        if got is None:
            got = self._index_cache[deg] = {t: k for k, t in enumerate(self.basis(deg))}
        return got

    def right_rows(self, n, deg: Deg, out_deg: Deg) -> tuple[int, ...]:
        """Rows m*n for m in basis(deg), each packed as bits over
        basis(out_deg), where out_deg = deg + |n|."""
        key = (n, deg)
        got = self._right_rows.get(key)
        if got is None:
            got = self._right_rows[key] = self._build_right_rows(n, deg, out_deg)
        return got

    def _build_right_rows(self, n, deg: Deg, out_deg: Deg) -> tuple[int, ...]:
        raise NotImplementedError

    def rows(self, terms: list[tuple], deg: Deg) -> list[int]:
        """Rows, one per m in basis(deg): the XOR over the terms (n,
        out_deg, shift) of the rows m*n packed over basis(out_deg), each
        placed `shift` bits up.  The rows of a generator of a free module
        whose differential has those terms, each shifted to its block."""
        acc = None
        for n, out_deg, shift in terms:
            got = self.right_rows(n, deg, out_deg)
            if acc is None:
                acc = [r << shift for r in got]
            else:
                acc = [a ^ (r << shift) for a, r in zip(acc, got)]
        return acc or [0] * len(self.basis(deg))

    def cells_at(self, p: int) -> list[Deg]:
        """The degrees at topological degree p that `resolve` visits;
        the algebra's basis is empty at every other degree of p."""
        if self.grading == 1:
            return [(p,)]
        return [(p, q) for q in range(p // 2 + 1)]

    def check_window(self, deg: Deg) -> None:
        if deg[0] > self.max_p:
            raise WindowExceededError(f"degree {deg} beyond window p <= {self.max_p}")


class ClassicalAlgebra(WindowedAlgebra):
    """The classical mod-2 Steenrod algebra on admissible words.

    Its rows come from packed Sq^a tables (`sq_rows`): a product m*n
    applies the letters of m, right to left, to the unit vector of n.
    `multiply` (Adem reduction of the concatenated word) is the
    reference the rows are tested against, and is off the resolve path."""

    flavor = "classical"
    grading = 1
    unit: tuple = ()

    def __init__(self, max_p: int):
        super().__init__(max_p)
        # (a, d) -> Sq^a w for w in basis((d,)), packed over basis((d + a,))
        self._sq_rows: dict = {}

    def basis(self, deg: Deg) -> tuple:
        self.check_window(deg)
        return adem.admissible_words(adem.CLASSICAL, deg[0]) if deg[0] >= 0 else ()

    def multiply(self, m1, m2) -> frozenset:
        return adem.reduce_word(m1 + m2, adem.CLASSICAL)

    def sq_rows(self, a: int, d: int) -> tuple[int, ...]:
        """Sq^a w for each w in basis((d,)), packed over basis((d + a,)).

        Sq^a w is the admissible word (a,) + w when a >= 2 w[0];
        otherwise the Adem relation rewrites Sq^a Sq^{w[0]}, and each
        word of it is applied letter by letter to w[1:], a word of lower
        degree, so the recursion ends."""
        key = (a, d)
        got = self._sq_rows.get(key)
        if got is None:
            index = self.index((d + a,))
            rows = []
            for w in self.basis((d,)):
                if not w or a >= 2 * w[0]:
                    rows.append(1 << index[(a,) + w])
                    continue
                tail_deg = d - w[0]
                tail = 1 << self.index((tail_deg,))[w[1:]]
                row = 0
                for rep in adem._adem_pair(a, w[0], adem.CLASSICAL):
                    row ^= self._apply_word(rep, tail, tail_deg)
                rows.append(row)
            got = self._sq_rows[key] = tuple(rows)
        return got

    def _apply_word(self, word, vec: int, d: int) -> int:
        """word * vec for vec packed over basis((d,)): the letters act
        right to left, each through its Sq^a table."""
        for a in reversed(word):
            rows = self.sq_rows(a, d)
            out = 0
            while vec:
                low = vec & -vec
                out ^= rows[low.bit_length() - 1]
                vec ^= low
            vec = out
            d += a
        return vec

    def _build_right_rows(self, n, deg: Deg, out_deg: Deg) -> tuple[int, ...]:
        """The rows from packed Sq^a tables (sq_rows)."""
        self.check_window(out_deg)
        n_deg = out_deg[0] - deg[0]
        unit = 1 << self.index((n_deg,))[n]
        return tuple(self._apply_word(m, unit, n_deg) for m in self.basis(deg))


class GeneralizedAlgebra(WindowedAlgebra):
    """The generalized Steenrod algebra in the Milnor basis."""

    flavor = "A0"
    grading = 2
    unit = milnor.UNIT_MONO

    def __init__(self, max_p: int):
        super().__init__(max_p)
        # (left, w) -> {factor: milnor.p_product_table(factor, w, left)}:
        # P^factor P^R (left) or P^R P^factor for every R of weight w,
        # each packed over milnor.p_exponents_of_weight(p_weight(factor) + w)
        self._p_rows: dict = {}

    def basis(self, deg: Deg) -> tuple:
        self.check_window(deg)
        p, q = deg
        return milnor.basis(p, q) if p >= 0 else ()

    def multiply(self, m1, m2) -> frozenset:
        return milnor.multiply_mono(m1, m2)

    def _build_right_rows(self, n, deg: Deg, out_deg: Deg) -> tuple[int, ...]:
        """The rows from P-product tables (milnor.packed_rows)."""
        self.check_window(deg)
        self.check_window(out_deg)
        return milnor.packed_rows(n, deg, out_deg, self._p_rows)


class EvenAlgebra(GeneralizedAlgebra):
    """The even subalgebra G, the slope-2 part of A0: the P^R, which sit
    on the line p = 2q and span a subalgebra.  Its basis is A0's on that
    line and empty off it, so its rows are A0's packed rows there."""

    flavor = "G"

    def basis(self, deg: Deg) -> tuple:
        p, q = deg
        return super().basis(deg) if p == 2 * q else ()

    def cells_at(self, p: int) -> list[Deg]:
        return [(p, p // 2)] if p % 2 == 0 else []


class OppositeGeneralizedAlgebra(GeneralizedAlgebra):
    """The opposite algebra A0^op, with product m1 *op m2 = m2 m1.  A
    right A0-module, such as the dual of a finite module, is a left
    A0^op-module, and resolves over it; its rows m *op n are the left
    rows n m of A0.  `rows` is `milnor.left_rows`, so a resolve keeps
    no row; `right_rows`, which the chain maps read, stores the rows of
    one term, built by `rows`."""

    flavor = "A0op"

    def multiply(self, m1, m2) -> frozenset:
        return super().multiply(m2, m1)

    def rows(self, terms: list[tuple], deg: Deg) -> list[int]:
        return milnor.left_rows(terms, deg, self._p_rows)

    def _build_right_rows(self, n, deg: Deg, out_deg: Deg) -> tuple[int, ...]:
        return tuple(self.rows([(n, out_deg, 0)], deg))


def algebra_for(flavor: str, max_p: int) -> WindowedAlgebra:
    table = {
        "classical": ClassicalAlgebra,
        "G": EvenAlgebra,
        "A0": GeneralizedAlgebra,
    }
    if flavor not in table:
        raise ValueError(f"unknown flavor {flavor!r}")
    return table[flavor](max_p)


# ---------------------------------------------------------------------------
# the resolution

# the layout of an empty cell; never extended (see _add_block)
_EMPTY_CELL: tuple[int, dict] = (0, {})


def _add_block(layouts: dict, deg: Deg, first: int, stop: int, sub: Deg, basis: tuple) -> None:
    """Place the blocks of generators first..stop-1 at deg - sub, with
    algebra basis `basis` at sub, after the blocks of the cell deg."""
    size, place = layouts.get(deg) or (0, {})
    for j in range(first, stop):
        place[j] = (size, sub, basis)
        size += len(basis)
    layouts[deg] = (size, place)


@dataclass
class FreeResolution:
    algebra: WindowedAlgebra
    smax: int
    pmax: int
    # the module resolved
    target: FiniteModule
    # gens[s] lists generator degrees of F_s, sorted, as resolve appends
    # them in increasing degree; diff[s][i] is d g_i, the kernel vector
    # resolve found for g_i: bits over the cell basis of
    # (F_{s-1})_{|g_i|}, or over target.basis_at(|g_i|) for s = 0
    gens: list[list[Deg]] = field(default_factory=list)
    diff: list[list[int]] = field(default_factory=list)
    # (s, p) -> {deg: (size, place)} for every nonempty cell of F_s at
    # topological degree p (see _cell)
    _cells: dict = field(default_factory=dict, repr=False)
    # p -> (sub, algebra basis) for each nonempty basis at p (cells_at)
    _bases: dict = field(default_factory=dict, repr=False)
    # (s, deg) -> quasi-inverse of d_s at deg, built on first solve
    _inverse_cache: dict = field(default_factory=dict, repr=False)
    # (s, deg) -> place of (F_s)_deg, kept by resolve for each cell
    # that differentials are bits over (see _terms)
    _kept: dict = field(default_factory=dict, repr=False)
    # (s, deg, bits) -> chain lift of that class (see ChainMap.lift)
    _lift_cache: dict = field(default_factory=dict, repr=False)

    def gens_at(self, s: int, deg: Deg) -> range:
        """Indices of the generators of F_s in degree deg."""
        gens = self.gens[s] if s < len(self.gens) else ()
        return range(bisect_left(gens, deg), bisect_right(gens, deg))

    def gen_count(self, s: int, deg: Deg) -> int:
        return len(self.gens_at(s, deg))

    def _cell(self, s: int, deg: Deg) -> tuple[int, dict]:
        """(size, place) of (F_s)_deg.  place maps each generator j with
        a nonempty block to (bit offset, deg - |g_j|, algebra basis
        there), in generator order, which is also offset order; a
        generator with an empty block is absent, as any product landing
        there is zero.  The cell basis is (j, m) for j in place order
        and m in basis order.

        The first call at topological degree p walks the runs of
        equal-degree generators of F_s (gens[s] is sorted) up to p once
        and records every nonempty cell of F_s at p; a degree with no
        record is empty.  `resolve` places the generators it adds at the
        end of their cell's record and drops the records of p when it
        leaves p, keeping the place of each cell that differentials are
        bits over (see `_terms`)."""
        p = deg[0]
        layouts = self._cells.get((s, p))
        if layouts is None:
            layouts = self._cells[(s, p)] = {}
            algebra, gens, first = self.algebra, self.gens[s], 0
            while first < len(gens) and gens[first][0] <= p:
                gdeg = gens[first]
                stop = bisect_right(gens, gdeg, first)
                bases = self._bases.get(p - gdeg[0])
                if bases is None:
                    subs = algebra.cells_at(p - gdeg[0])
                    bases = self._bases[p - gdeg[0]] = [(sub, b) for sub in subs if (b := algebra.basis(sub))]
                for sub, basis in bases:
                    _add_block(layouts, add_deg(gdeg, sub), first, stop, sub, basis)
                first = stop
        return layouts.get(deg, _EMPTY_CELL)

    def _terms(self, s: int, bits: int, deg: Deg, place: dict) -> list[tuple]:
        """The terms (n, degree, bit offset of g_j's block in `place`, a
        cell layout of F_s) of an element of (F_s)_deg, bits over its cell
        basis, read over the blocks of the cell's layout: the one `resolve`
        kept, or else `_cell`'s.  A term whose g_j has no block in `place`
        lands on zero and is dropped."""
        src = self._kept.get((s, deg))
        if src is None:
            src = self._cell(s, deg)[1]
        terms = []
        for j, (offset, _, basis) in src.items():
            rest = bits >> offset
            if not rest:
                break
            chunk = rest & ((1 << len(basis)) - 1)
            if chunk and j in place:
                out_offset, out_deg, _ = place[j]
                while chunk:
                    q = chunk.bit_length() - 1
                    chunk ^= 1 << q
                    terms.append((basis[q], out_deg, out_offset))
        return terms

    def _rows(self, s: int, deg: Deg) -> tuple[list[int], int]:
        """(rows, width): a row per element of the cell basis of
        (F_s)_deg, bits over the codomain (F_{s-1} at deg, or the target
        for s = 0).

        For s >= 1 all rows of one generator come from one
        `algebra.rows` call on the terms of its differential (`_terms`),
        each placed at its block of the codomain cell."""
        place = self._cell(s, deg)[1]
        diff = self.diff[s]
        rows = []
        if s == 0:
            cod = self.target.basis_at(deg)
            cod_index = {c: n for n, c in enumerate(cod)}
            for i, (_, sub, basis) in place.items():
                keys = self.target.basis_at(sub_deg(deg, sub))
                hit = [key for b, key in enumerate(keys) if diff[i] >> b & 1]
                for m in basis:
                    row = 0
                    for key in hit:
                        for out in self.target.act_mono(m, key):
                            row ^= 1 << cod_index[out]
                    rows.append(row)
            return rows, len(cod)
        width, cod_place = self._cell(s - 1, deg)
        for i, (_, sub, _) in place.items():
            rows.extend(self.algebra.rows(self._terms(s - 1, diff[i], self.gens[s][i], cod_place), sub))
        return rows, width

    def _span(self, s: int, deg: Deg) -> gf2.SpanBuilder:
        """A fresh SpanBuilder, the quasi-inverse of d_s at deg, fed its
        rows in cell-basis order; the rows themselves are not kept."""
        rows, width = self._rows(s, deg)
        span = gf2.SpanBuilder(width)
        for row in rows:
            span.add(row)
        return span

    def _quasi_inverse(self, s: int, deg: Deg) -> gf2.SpanBuilder:
        key = (s, deg)
        got = self._inverse_cache.get(key)
        if got is None:
            got = self._inverse_cache[key] = self._span(s, deg)
        return got

    def solve_in_cell(self, s: int, deg: Deg, rhs_bits: int) -> Optional[int]:
        """Some x in (F_s)_deg with d_s(x) = rhs, coordinates over the
        cell basis."""
        return self._quasi_inverse(s, deg).preimage(rhs_bits)

    def cell_kernel(self, s: int, deg: Deg) -> list[int]:
        """Basis of {x in (F_s)_deg : d_s x = 0} over the cell basis."""
        return self._quasi_inverse(s, deg).kernel


def resolve(
    algebra: WindowedAlgebra,
    smax: int,
    pmax: int,
    target: Optional[FiniteModule] = None,
) -> FreeResolution:
    """Minimal resolution of the target module out to homological
    degree smax+1 and topological degree pmax.  The default target is
    the ground field: one key at the algebra's zero degree, on which
    only `algebra.unit` acts.

    At each cell, stage s eliminates the rows of d_s once, with pivots
    at each row's highest set bit.  The carried basis of ker d_{s-1}
    (for s = 0: the target basis vectors) has distinct top bits, since
    each kernel vector tops out at the input that vanished; the image
    of d_s lies in its span, so the image pivots are some of those top
    bits.  Each kernel vector whose top bit is not an image pivot gets
    a new generator of F_s: together with the image they span ker
    d_{s-1}, and no reduction is needed to find them; that kernel vector
    is its differential, bits over (F_{s-1})_deg, whose place is kept
    for reading it (`FreeResolution._terms`).  The tracked input
    combinations give ker d_s, carried to stage s+1.  New
    generators leave ker d_s unchanged: their images are independent of
    the old rows, and they sit at the end of the cell basis, where they
    are placed in the cell's layout.  A stage where F_s is empty at the
    cell builds no rows: every carried kernel vector becomes a generator,
    and ker d_s = 0.  The layouts of a topological degree p (see
    `FreeResolution._cell`) are dropped once every cell at p is done."""
    if pmax > algebra.max_p:
        raise WindowExceededError("algebra window too small for the requested resolution")
    if target is None:
        target = trivial_module([(0,) * algebra.grading], unit=algebra.unit)
    res = FreeResolution(algebra, smax, pmax, target)
    levels = smax + 2
    res.gens = [[] for _ in range(levels)]
    res.diff = [[] for _ in range(levels)]

    zero = (0,) * algebra.grading
    unit_basis = algebra.basis(zero)
    for p in range(pmax + 1):
        for deg in algebra.cells_at(p):
            kernel = [1 << k for k in range(len(res.target.basis_at(deg)))]
            for s in range(levels):
                if res._cell(s, deg)[0]:
                    span = res._span(s, deg)
                    new = [z for z in kernel if z.bit_length() not in span.rows]
                    next_kernel = span.kernel
                else:  # F_s is empty here: no rows, and ker d_s = 0
                    new, next_kernel = kernel, []
                if new:
                    res.gens[s].extend([deg] * len(new))
                    res.diff[s].extend(new)
                    if s:  # keep the layout their differentials are read through
                        res._kept[(s - 1, deg)] = res._cell(s - 1, deg)[1]
                    first, stop = len(res.gens[s]) - len(new), len(res.gens[s])
                    _add_block(res._cells[(s, p)], deg, first, stop, zero, unit_basis)
                kernel = next_kernel
        # keep no cells from the loop; later solves rebuild theirs
        for s in range(levels):
            res._cells.pop((s, p), None)
    return res


# ---------------------------------------------------------------------------
# Ext charts


def _generator_chart(res: FreeResolution, flavor: str) -> ExtChart:
    """Generator counts of a minimal resolution of M: with ground-field
    coefficients the Hom differential vanishes, so they are Ext(M, F2)."""
    chart = ExtChart(flavor, res.algebra.grading, res.smax, res.pmax)
    for s in range(res.smax + 1):
        for deg in res.gens[s]:
            chart.cells[(s, deg)] = chart.cells.get((s, deg), 0) + 1
    return chart


def ext_chart_field(res: FreeResolution) -> ExtChart:
    """Ext(target, F2) of a minimal resolution, with the h-classes named."""
    chart = _generator_chart(res, res.algebra.flavor)
    name_h_classes(chart)
    return chart


def ext_chart_coefficients(coefficients: FiniteModule, smax: int, pmax: int) -> ExtChart:
    """Ext over the generalized algebra A0 from F2 into a finite module M,
    for s <= smax and topological degree p <= pmax.

    By duality for finite modules, Ext_{A0}(F2, M) = Ext_{A0^op}(D M,
    F2), so the chart counts the generators of a minimal resolution of
    the dual module D M over the opposite algebra.  `resolve` visits only
    the cells 0 <= q <= p/2, so a key of M whose negated bidegree lies
    outside them (any key with p > 0) raises ValueError rather than
    dropping out of the chart."""
    algebra = OppositeGeneralizedAlgebra(pmax)
    for key in coefficients.keys:
        p, q = coefficients.degree_of(key)
        if (-p, -q) not in algebra.cells_at(-p):
            raise ValueError(f"coefficient key {key!r} at {(p, q)}: Ext needs p <= 0 and p/2 <= q <= 0")
    res = resolve(algebra, smax=smax, pmax=pmax, target=dual_module(coefficients))
    return _generator_chart(res, "isotropic")


# ---------------------------------------------------------------------------
# Yoneda products and Massey brackets (ground-field coefficients)


@dataclass(frozen=True)
class ChartClass:
    s: int
    deg: Deg
    bits: int

    def is_zero(self) -> bool:
        return self.bits == 0


def class_of_generator(res: FreeResolution, s: int, deg: Deg, index: int = 0) -> ChartClass:
    count = res.gen_count(s, deg)
    if index >= count:
        raise ValueError(f"no generator {index} at {(s, deg)}")
    return ChartClass(s, deg, 1 << index)


class ChainMap:
    """A Lambda-linear map V_k: F_{src+k} -> F_k lowering degree by
    `shift`, defined one generator at a time by solving d V_k(g) = rhs in
    its cell; each value is kept as the solve returns it, bits over the
    cell basis of (F_k)_{|g| - shift}, the format of the differentials
    too.

    A chain lift of a class (`ChainMap.lift`) sends the class's dual'd
    generators to the unit in F_0 and solves with rhs = V_{k-1}(d g).  A
    null-homotopy of B composed with C (`ChainMap.homotopy`, for chain
    lifts B, C whose product class vanishes) has V_0 = 0 and adds
    B_{k-1}(C(g)) to the rhs, so dV + Vd = BC.  An optional rng perturbs
    each solve by kernel elements of the cell differential; any such
    choice is another valid homotopy, so brackets built from it may only
    move within their indeterminacy.

    Each rhs is built straight into bits over the target cell basis from
    the algebra's packed right-multiplication rows, each shifted to its
    generator's block (the placement of `FreeResolution._cell`); the
    terms of a value are read over its cell's layout, as those of a
    differential are (`FreeResolution._terms`).
    """

    def __init__(self, res: FreeResolution, src: int, shift: Deg, base=frozenset(), composite=None, rng=None):
        self.res = res
        self.src = src
        self.shift = shift
        self.base = base  # generators of F_src that V_0 sends to the unit
        self.composite = composite  # (B, C), or None for a chain lift
        self.rng = rng
        self._memo: dict = {}

    @classmethod
    def lift(cls, res: FreeResolution, c: ChartClass) -> "ChainMap":
        """The chain lift of a class (ground-field coefficients, single
        F_0 generator), kept per resolution."""
        key = (c.s, c.deg, c.bits)
        got = res._lift_cache.get(key)
        if got is None:
            if len(res.gens[0]) != 1:
                raise ValueError("chain lifting expects a single generator in filtration 0")
            base = frozenset(gi for n, gi in enumerate(res.gens_at(c.s, c.deg)) if (c.bits >> n) & 1)
            got = res._lift_cache[key] = cls(res, c.s, c.deg, base=base)
        return got

    @classmethod
    def homotopy(cls, res: FreeResolution, b: ChartClass, c: ChartClass, rng=None) -> "ChainMap":
        """V: F_{s_b+s_c-1+k} -> F_k with dV + Vd = (lift b)(lift c)."""
        composite = (cls.lift(res, b), cls.lift(res, c))
        return cls(res, b.s + c.s - 1, add_deg(b.deg, c.deg), composite=composite, rng=rng)

    def value(self, k: int, i: int) -> int:
        """V_k(g_{src+k, i}) as bits over the cell basis of
        (F_k)_{|g| - shift}."""
        key = (k, i)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._solve(k, i)
        return got

    def _solve(self, k: int, i: int) -> int:
        res = self.res
        gdeg = res.gens[self.src + k][i]
        cell = sub_deg(gdeg, self.shift)
        if min(cell) < 0:
            return 0
        if k == 0:  # the unit on F_0's one generator: bit 0 of its cell
            return int(i in self.base)
        rhs = 0
        if self.composite is not None:
            outer, inner = self.composite
            rhs = outer.apply(k - 1, inner.value(outer.src + k - 1, i), sub_deg(gdeg, inner.shift))
        rhs ^= self.apply(k - 1, res.diff[self.src + k][i], gdeg)
        x = res.solve_in_cell(k, cell, rhs)
        if x is None:
            kind = "chain lift" if self.composite is None else "null homotopy"
            raise WindowExceededError(f"{kind} failed at {(k, cell)}")
        if self.rng is not None:
            for z in res.cell_kernel(k, cell):
                if self.rng.getrandbits(1):
                    x ^= z
        return x

    def apply(self, k: int, bits: int, deg: Deg) -> int:
        """V_k of an element of F_{src+k}, given as bits over the cell
        basis of (F_{src+k})_deg, as bits over the cell basis of
        (F_k)_{deg - shift}.  The block of generator g_j in the input
        picks monomials m of the algebra basis at deg - |g_j|, and each
        term n g of V_k(g_j) (`FreeResolution._terms`) contributes the
        picked rows m*n of `right_rows`, shifted to the block of g."""
        res = self.res
        right_rows = res.algebra.right_rows
        gens = res.gens[self.src + k]
        place = res._cell(k, sub_deg(deg, self.shift))[1]
        out = 0
        for j, (offset, sub, basis) in res._cell(self.src + k, deg)[1].items():
            rest = bits >> offset
            if not rest:
                break
            chunk = rest & ((1 << len(basis)) - 1)
            image = self.value(k, j) if chunk else 0
            if not image:
                continue
            picked = []
            while chunk:
                q = chunk.bit_length() - 1
                chunk ^= 1 << q
                picked.append(q)
            for n, out_deg, image_offset in res._terms(k, image, sub_deg(gens[j], self.shift), place):
                rows = right_rows(n, sub, out_deg)
                for q in picked:
                    out ^= rows[q] << image_offset
        return out


def _evaluate_cocycle(res: FreeResolution, cls: ChartClass, v: ChainMap, s: int, deg: Deg) -> int:
    """Pair the generator-dual cocycle of cls with V_{cls.s}(g) for each
    generator g of F_s at deg, as bits over those generators.  Over the
    cell basis of (F_{cls.s})_{cls.deg} the cocycle is a mask, the unit
    bit of each dual'd generator, and pairs as the parity of the shared
    bits."""
    place = res._cell(cls.s, cls.deg)[1]
    mask = sum(1 << place[j][0] for n, j in enumerate(res.gens_at(cls.s, cls.deg)) if (cls.bits >> n) & 1)
    return sum(((v.value(cls.s, gi) & mask).bit_count() & 1) << n for n, gi in enumerate(res.gens_at(s, deg)))


def yoneda_product(res: FreeResolution, x: ChartClass, y: ChartClass) -> ChartClass:
    """Compose the cocycle of x with the chain maps lifting y."""
    s = x.s + y.s
    deg = add_deg(x.deg, y.deg)
    if s > res.smax or deg[0] > res.pmax:
        raise WindowExceededError("product lands outside the computed window")
    if x.is_zero() or y.is_zero():
        return ChartClass(s, deg, 0)
    return ChartClass(s, deg, _evaluate_cocycle(res, x, ChainMap.lift(res, y), s, deg))


class MasseyPreconditionError(ValueError):
    pass


@dataclass
class MasseyResult:
    s: int
    deg: Deg
    bits: int
    indeterminacy: list[int]

    def coset(self) -> set[int]:
        out = {self.bits}
        for b in self.indeterminacy:
            out |= {v ^ b for v in out}
        return out


def massey_triple(
    res: FreeResolution, a: ChartClass, b: ChartClass, c: ChartClass, rng=None
) -> MasseyResult:
    """<a, b, c> for ab = 0 = bc: representative a . V with V a
    null-homotopy of the bc composite (the ab-homotopy is chosen zero in
    filtration 0, killing its term); indeterminacy a Ext + Ext c."""
    ab = yoneda_product(res, a, b)
    if not ab.is_zero():
        raise MasseyPreconditionError("left product is nonzero")
    bc = yoneda_product(res, b, c)
    if not bc.is_zero():
        raise MasseyPreconditionError("right product is nonzero")
    s = a.s + b.s + c.s - 1
    deg = add_deg(a.deg, add_deg(b.deg, c.deg))
    if s > res.smax or deg[0] > res.pmax:
        raise WindowExceededError("bracket lands outside the computed window")
    bits = _evaluate_cocycle(res, a, ChainMap.homotopy(res, b, c, rng=rng), s, deg)
    # indeterminacy: a . Ext^{s_b+s_c-1} + Ext^{s_a+s_b-1} . c
    vectors = []
    left_cell = (b.s + c.s - 1, add_deg(b.deg, c.deg))
    for n in range(res.gen_count(*left_cell)):
        e = ChartClass(left_cell[0], left_cell[1], 1 << n)
        vectors.append(yoneda_product(res, a, e).bits)
    right_cell = (a.s + b.s - 1, add_deg(a.deg, b.deg))
    for n in range(res.gen_count(*right_cell)):
        e = ChartClass(right_cell[0], right_cell[1], 1 << n)
        vectors.append(yoneda_product(res, e, c).bits)
    ncols = max(res.gen_count(s, deg), 1)
    basis, _ = gf2.rref_ints([v for v in vectors if v], ncols)
    return MasseyResult(s, deg, bits, [v for v in basis if v])

