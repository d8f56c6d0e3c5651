"""Minimal free resolutions over windowed graded GF(2) algebras, Ext
charts, Yoneda products via chain-map lifting, and triple Massey
products via null-homotopies.

Degrees are tuples: (t,) for the singly graded classical algebra,
(p, q) for the bigraded ones.  Resolutions are built cell by cell in
increasing topological degree; within a cell, homological stages run
bottom-up, so every generator found with t <= tmax is exact and the
resolution is minimal by construction (a unit coefficient in a new
differential would contradict the independence of the kernel classes
the earlier stage killed).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional

from . import adem, gf2, milnor
from .charts import ExtChart, name_h_classes
from .milnor import Bidegree
from .modules import FiniteModule

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
    memoized monomial products; `max_p` is the window bound."""

    flavor: str
    grading: int
    unit = None

    def __init__(self, max_p: int):
        self.max_p = max_p
        self._product_cache: dict = {}

    def basis(self, deg: Deg) -> tuple:
        raise NotImplementedError

    def monomial_product(self, m1, m2) -> frozenset:
        raise NotImplementedError

    def multiply(self, m1, m2) -> frozenset:
        key = (m1, m2)
        out = self._product_cache.get(key)
        if out is None:
            out = self.monomial_product(m1, m2)
            self._product_cache[key] = out
        return out

    def cells_at(self, p: int) -> list[Deg]:
        if self.grading == 1:
            return [(p,)]
        return [(p, q) for q in range(p // 2 + 1)]

    def check_window(self, deg: Deg) -> None:
        if deg[0] > self.max_p:
            raise WindowExceededError(f"degree {deg} beyond window p <= {self.max_p}")


class ClassicalAlgebra(WindowedAlgebra):
    """The classical mod-2 Steenrod algebra on admissible words."""

    flavor = "classical"
    grading = 1
    unit: tuple = ()

    def basis(self, deg: Deg) -> tuple:
        self.check_window(deg)
        return adem.admissible_words(adem.CLASSICAL, deg[0]) if deg[0] >= 0 else ()

    def monomial_product(self, m1, m2) -> frozenset:
        return adem.reduce_word(m1 + m2, adem.CLASSICAL)


class EvenAlgebra(WindowedAlgebra):
    """The even subalgebra on the Milnor P-basis; concentrated on the
    slope-2 line p = 2q."""

    flavor = "G"
    grading = 2
    unit: tuple = ()

    def basis(self, deg: Deg) -> tuple:
        self.check_window(deg)
        p, q = deg
        if p != 2 * q or q < 0:
            return ()
        return milnor.p_exponents_of_weight(q)

    def monomial_product(self, m1, m2) -> frozenset:
        return milnor.p_product(m1, m2)

    def cells_at(self, p: int) -> list[Deg]:
        return [(p, p // 2)] if p % 2 == 0 else []


class GeneralizedAlgebra(WindowedAlgebra):
    """The generalized Steenrod algebra in the Milnor basis."""

    flavor = "A0"
    grading = 2
    unit = milnor.UNIT_MONO

    def basis(self, deg: Deg) -> tuple:
        self.check_window(deg)
        p, q = deg
        return milnor.basis(p, q) if p >= 0 else ()

    def monomial_product(self, m1, m2) -> frozenset:
        return milnor.multiply_mono(m1, m2)


class ExteriorMilnorAlgebra(WindowedAlgebra):
    """The exterior subalgebra on Milnor operations Q_0..Q_n; bidegrees
    are multiplicity-free."""

    flavor = "exterior"
    grading = 2
    unit: tuple = ()

    def __init__(self, n_max: int, max_p: int):
        super().__init__(max_p)
        self.n_max = n_max

    def basis(self, deg: Deg) -> tuple:
        self.check_window(deg)
        mono = milnor.exterior_from_degree(*deg)
        if mono is None or (mono and mono[-1] > self.n_max):
            return ()
        return (mono,)

    def monomial_product(self, m1, m2) -> frozenset:
        if set(m1) & set(m2):
            return frozenset()
        return frozenset([tuple(sorted(m1 + m2))])


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
# resolution targets (the module being resolved)


class TrivialTarget:
    """The ground field as a module: one basis key at degree zero."""

    def basis_at(self, deg: Deg) -> tuple:
        return ((),) if all(x == 0 for x in deg) else ()

    def act(self, algebra: WindowedAlgebra, mon, key) -> frozenset:
        return frozenset([key]) if mon == algebra.unit else frozenset()


class FiniteTarget:
    """Adapter resolving a FiniteModule (bigraded algebras only)."""

    def __init__(self, module: FiniteModule):
        self.module = module

    def basis_at(self, deg: Deg) -> tuple:
        return self.module.basis_at(Bidegree(*deg))

    def act(self, algebra: WindowedAlgebra, mon, key) -> frozenset:
        return self.module.act_mono(mon, key)


# ---------------------------------------------------------------------------
# the resolution


@dataclass
class FreeResolution:
    algebra: WindowedAlgebra
    smax: int
    pmax: int
    # gens[s] lists generator degrees of F_s; diff[s][i] maps generator
    # indices of F_{s-1} to algebra coefficients, diff[0][i] maps into
    # the target module
    gens: list[list[Deg]] = field(default_factory=list)
    diff: list[list[dict]] = field(default_factory=list)
    target: object = field(default_factory=TrivialTarget)
    _basis_cache: dict = field(default_factory=dict, repr=False)
    # (s, deg) -> quasi-inverse of d_s at deg, built on first solve
    _cell_cache: dict = field(default_factory=dict, repr=False)
    # (s, deg, bits) -> ChainLift of that class
    _lift_cache: dict = field(default_factory=dict, repr=False)

    def gen_count(self, s: int, deg: Deg) -> int:
        return sum(1 for d in self.gens[s] if d == deg) if s < len(self.gens) else 0

    def cell_basis(self, s: int, deg: Deg) -> tuple:
        """Ordered basis (gen index, algebra monomial) of (F_s) at deg."""
        key = (s, deg)
        got = self._basis_cache.get(key)
        if got is None:
            got = tuple(
                (i, m)
                for i, gdeg in enumerate(self.gens[s])
                for m in self.algebra.basis(sub_deg(deg, gdeg))
            ) if s < len(self.gens) else ()
            self._basis_cache[key] = got
        return got

    def _image_row(self, s: int, i: int, m, cod_index: dict) -> int:
        """Image of m * g_{s,i} under d_s, as bits over the codomain."""
        row = 0
        if s == 0:
            for key in self.diff[0][i]["target"]:
                for out in self.target.act(self.algebra, m, key):
                    row ^= 1 << cod_index[out]
            return row
        for j, coeffs in self.diff[s][i].items():
            for n in coeffs:
                for t in self.algebra.multiply(m, n):
                    row ^= 1 << cod_index[(j, t)]
        return row

    def diff_rows(self, s: int, deg: Deg) -> tuple[list[int], tuple]:
        """(rows, codomain basis): row per domain element of F_s at deg,
        bits over the codomain (F_{s-1} at deg, or the target for s=0)."""
        cod = self.target.basis_at(deg) if s == 0 else self.cell_basis(s - 1, deg)
        cod_index = {c: n for n, c in enumerate(cod)}
        return [self._image_row(s, i, m, cod_index) for i, m in self.cell_basis(s, deg)], cod

    def _span(self, s: int, deg: Deg, track: bool) -> gf2.SpanBuilder:
        """A fresh SpanBuilder fed the rows of d_s at deg in cell-basis
        order; the rows themselves are not kept."""
        rows, cod = self.diff_rows(s, deg)
        span = gf2.SpanBuilder(len(cod) if track else None)
        for row in rows:
            span.add(row)
        return span

    def _quasi_inverse(self, s: int, deg: Deg) -> gf2.SpanBuilder:
        key = (s, deg)
        got = self._cell_cache.get(key)
        if got is None:
            got = self._cell_cache[key] = self._span(s, deg, track=True)
        return got

    def solve_in_cell(self, s: int, deg: Deg, rhs_bits: int) -> Optional[int]:
        """Some x in (F_s)_deg with d_s(x) = rhs, coordinates over
        cell_basis(s, deg)."""
        return self._quasi_inverse(s, deg).preimage(rhs_bits)

    def cell_kernel(self, s: int, deg: Deg) -> list[int]:
        """Basis of {x in (F_s)_deg : d_s x = 0} over the cell basis."""
        return self._quasi_inverse(s, deg).kernel

    def element_to_bits(self, s: int, deg: Deg, elt: dict) -> int:
        index = {c: n for n, c in enumerate(self.cell_basis(s, deg))}
        bits = 0
        for j, coeffs in elt.items():
            for m in coeffs:
                bits ^= 1 << index[(j, m)]
        return bits

    def bits_to_element(self, s: int, deg: Deg, bits: int) -> dict:
        basis = self.cell_basis(s, deg)
        out: dict = {}
        while bits:
            low = bits & -bits
            j, m = basis[low.bit_length() - 1]
            out.setdefault(j, set()).add(m)
            bits ^= low
        return {j: frozenset(v) for j, v in out.items()}


def resolve(
    algebra: WindowedAlgebra,
    smax: int,
    pmax: int,
    target: Optional[object] = None,
) -> FreeResolution:
    """Minimal resolution of the target module (the ground field by
    default) out to homological degree smax+1 and topological degree
    pmax.

    At each cell, stage s eliminates the rows of d_s once.  The image
    pivots decide which classes of ker d_{s-1} (for s = 0: which target
    basis vectors) need new generators of F_s; the tracked input
    combinations give ker d_s, carried to stage s+1.  New generators
    leave ker d_s unchanged: their images are independent of the old
    rows, and they sit at the end of the cell basis."""
    if pmax > algebra.max_p:
        raise WindowExceededError("algebra window too small for the requested resolution")
    res = FreeResolution(algebra, smax, pmax, target=target or TrivialTarget())
    levels = smax + 2
    res.gens = [[] for _ in range(levels)]
    res.diff = [[] for _ in range(levels)]

    for p in range(pmax + 1):
        for deg in algebra.cells_at(p):
            mkeys = res.target.basis_at(deg)
            kernel = [1 << k for k in range(len(mkeys))]
            for s in range(levels):
                span = res._span(s, deg, track=s < levels - 1)
                first = len(res.gens[s])
                for z in kernel:
                    if not span.reduce(z):
                        continue
                    span.add(z)
                    res.gens[s].append(deg)
                    if s == 0:
                        res.diff[0].append({"target": frozenset([mkeys[z.bit_length() - 1]])})
                    else:
                        res.diff[s].append(res.bits_to_element(s - 1, deg, z))
                if len(res.gens[s]) > first:
                    del res._basis_cache[(s, deg)]  # rebuilt with the new generators
                kernel = span.kernel
            # keep no cell bases from the loop; later solves rebuild theirs
            for s in range(levels):
                res._basis_cache.pop((s, deg), None)
    return res


# ---------------------------------------------------------------------------
# Ext charts


def ext_chart_field(res: FreeResolution, flavor: Optional[str] = None, name_classes: bool = True) -> ExtChart:
    """With ground-field coefficients and a minimal resolution, Ext
    dimensions are generator counts and the Hom differential vanishes."""
    chart = ExtChart(flavor or res.algebra.flavor, res.algebra.grading, res.smax, res.pmax)
    for s in range(res.smax + 1):
        for deg in res.gens[s]:
            chart.cells[(s, deg)] = chart.cells.get((s, deg), 0) + 1
    if name_classes:
        name_h_classes(chart)
    return chart


def ext_chart_coefficients(
    res: FreeResolution, coefficients: FiniteModule, flavor: str = "isotropic",
    covers=None,
) -> ExtChart:
    """Cohomology of Hom(resolution, coefficients).

    `covers(bidegree)` reports whether the coefficient module faithfully
    represents that bidegree of the infinite coefficient algebra; cells
    needing unrepresented bidegrees are flagged window-truncated, as are
    cells above the resolved topological range.
    """
    if res.algebra.grading != 2:
        raise ValueError("coefficient charts need a bigraded algebra")
    covers = covers or (lambda deg: True)
    chart = ExtChart(flavor, 2, res.smax, res.pmax)

    hom_basis_cache: dict = {}

    def hom_basis(s: int, cell: Deg):
        key = (s, cell)
        got = hom_basis_cache.get(key)
        if got is None:
            out = []
            truncated = False
            for i, gdeg in enumerate(res.gens[s]):
                hdeg = Bidegree(gdeg[0] - cell[0], gdeg[1] - cell[1])
                if not covers(hdeg):
                    truncated = True
                for hkey in coefficients.basis_at(hdeg):
                    out.append((i, hkey))
            got = (tuple(out), truncated)
            hom_basis_cache[key] = got
        return got

    # incoming[s][j]: (i, coefficients) of every generator i of F_s whose
    # differential has a term on generator j of F_{s-1}
    incoming: list[list[list]] = [[]]
    for s in range(1, len(res.diff)):
        by_source: list[list] = [[] for _ in res.gens[s - 1]]
        for i, entry in enumerate(res.diff[s]):
            for j, coeffs in entry.items():
                by_source[j].append((i, coeffs))
        incoming.append(by_source)

    rank_cache: dict = {}

    def delta_rank(s: int, cell: Deg) -> int:
        """Rank of Hom(F_s) -> Hom(F_{s+1}) at the cell."""
        key = (s, cell)
        got = rank_cache.get(key)
        if got is None:
            cod, _ = hom_basis(s + 1, cell)
            cod_index = {c: n for n, c in enumerate(cod)}
            span = gf2.SpanBuilder()
            for (j, h) in hom_basis(s, cell)[0]:
                row = 0
                for i, coeffs in incoming[s + 1][j]:
                    for m in coeffs:
                        for hh in coefficients.act_mono(m, h):
                            row ^= 1 << cod_index[(i, hh)]
                span.add(row)
            got = rank_cache[key] = span.rank
        return got

    cells: set[Deg] = set()
    for s in range(res.smax + 1):
        for gdeg in res.gens[s]:
            for hdeg in coefficients.degrees():
                cells.add((gdeg[0] - hdeg.p, gdeg[1] - hdeg.q))

    for cell in sorted(cells):
        for s in range(res.smax + 1):
            dom, trunc_here = hom_basis(s, cell)
            if not dom:
                continue
            _, trunc_up = hom_basis(s + 1, cell)
            truncated = trunc_here or trunc_up or cell[0] > res.pmax
            if s > 0:
                _, trunc_down = hom_basis(s - 1, cell)
                truncated = truncated or trunc_down
            if truncated:
                chart.truncated.add((s, cell))
                continue
            dim = len(dom) - delta_rank(s, cell) - (delta_rank(s - 1, cell) if s > 0 else 0)
            if dim:
                chart.cells[(s, cell)] = dim
    return chart


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


def _gen_positions(res: FreeResolution, s: int, deg: Deg) -> list[int]:
    return [i for i, d in enumerate(res.gens[s]) if d == deg]


class ChainLift:
    """Chain maps Y_k: F_{s0+k} -> F_k lifting a cocycle given by its
    values on the generators at one cell (ground-field coefficients,
    single F_0 generator)."""

    def __init__(self, res: FreeResolution, cls: ChartClass):
        if len(res.gens[0]) != 1:
            raise ValueError("chain lifting expects a single generator in filtration 0")
        self.res = res
        self.cls = cls
        self._memo: dict = {}
        positions = _gen_positions(res, cls.s, cls.deg)
        self.gen_bit = {gi: (cls.bits >> n) & 1 for n, gi in enumerate(positions)}

    def value(self, k: int, i: int) -> dict:
        """Y_k(g_{s0+k, i}) as {gen index of F_k: algebra coefficients}."""
        key = (k, i)
        got = self._memo.get(key)
        if got is not None:
            return got
        res = self.res
        s0 = self.cls.s
        gdeg = res.gens[s0 + k][i]
        cell = sub_deg(gdeg, self.cls.deg)
        if any(x < 0 for x in cell):
            out: dict = {}
        elif k == 0:
            if all(x == 0 for x in cell) and self.gen_bit.get(i):
                out = {0: frozenset([res.algebra.unit])}
            else:
                out = {}
        else:
            rhs = apply_values(res, self.value, k - 1, res.diff[s0 + k][i])
            rhs_bits = res.element_to_bits(k - 1, cell, rhs)
            x = res.solve_in_cell(k, cell, rhs_bits)
            if x is None:
                raise WindowExceededError(f"chain lift failed at {(k, cell)}")
            out = res.bits_to_element(k, cell, x)
        self._memo[key] = out
        return out


def apply_values(res: FreeResolution, valuefn, level: int, elt: dict) -> dict:
    """Apply a generator-valued map to an element {j: coefficients},
    using Lambda-linearity: f(m g_j) = m f(g_j)."""
    out: dict = {}
    for j, coeffs in elt.items():
        target = valuefn(level, j)
        for jj, coeffs2 in target.items():
            acc = out.setdefault(jj, set())
            for m in coeffs:
                for n in coeffs2:
                    acc ^= res.algebra.multiply(m, n)
            out[jj] = acc
    return {j: frozenset(v) for j, v in out.items() if v}


def _evaluate_cocycle(res: FreeResolution, cls: ChartClass, level_s: int, elt: dict) -> int:
    """Pair the generator-dual cocycle against an element of F_{level_s}:
    picks unit coefficients at the dual'd generators."""
    positions = {gi: n for n, gi in enumerate(_gen_positions(res, cls.s, cls.deg))}
    out = 0
    for j, coeffs in elt.items():
        n = positions.get(j)
        if n is None or not ((cls.bits >> n) & 1):
            continue
        if res.algebra.unit in coeffs:
            out ^= 1
    return out


def yoneda_product(res: FreeResolution, x: ChartClass, y: ChartClass) -> ChartClass:
    """Compose the cocycle of x with the chain maps lifting y."""
    s = x.s + y.s
    deg = add_deg(x.deg, y.deg)
    if s > res.smax or deg[0] > res.pmax:
        raise WindowExceededError("product lands outside the computed window")
    if x.is_zero() or y.is_zero():
        return ChartClass(s, deg, 0)
    lift = _lift_for(res, y)
    bits = 0
    for n, gi in enumerate(_gen_positions(res, s, deg)):
        if _evaluate_cocycle(res, x, x.s, lift.value(x.s, gi)):
            bits |= 1 << n
    return ChartClass(s, deg, bits)


def _lift_for(res: FreeResolution, cls: ChartClass) -> ChainLift:
    key = (cls.s, cls.deg, cls.bits)
    lift = res._lift_cache.get(key)
    if lift is None:
        lift = res._lift_cache[key] = ChainLift(res, cls)
    return lift


class NullHomotopy:
    """V_k: F_{S-1+k} -> F_k with dV + Vd = (B composed with C), where
    B, C are chain lifts and S = s_b + s_c; exists when the product
    class vanishes, with V_0 = 0.

    An optional rng perturbs each solve step by kernel elements of the
    cell differential; any such choice is another valid homotopy, so
    brackets built from it may only move within their indeterminacy.
    """

    def __init__(self, res: FreeResolution, b: ChartClass, c: ChartClass, rng=None):
        self.res = res
        self.b = b
        self.c = c
        self.blift = _lift_for(res, b)
        self.clift = _lift_for(res, c)
        self.S = b.s + c.s
        self.shift = add_deg(b.deg, c.deg)
        self.rng = rng
        self._memo: dict = {}

    def value(self, k: int, i: int) -> dict:
        key = (k, i)
        got = self._memo.get(key)
        if got is not None:
            return got
        res = self.res
        if k == 0:
            out: dict = {}
        else:
            gdeg = res.gens[self.S - 1 + k][i]
            cell = sub_deg(gdeg, self.shift)
            if any(x < 0 for x in cell):
                out = {}
            else:
                # rhs = Psi_{k-1}(g_i) + V_{k-1}(d g_i)
                cval = self.clift.value(self.b.s + k - 1, i)
                psi = apply_values(res, self.blift.value, k - 1, cval)
                vd = apply_values(res, self.value, k - 1, res.diff[self.S - 1 + k][i])
                rhs: dict = {}
                for part in (psi, vd):
                    for j, coeffs in part.items():
                        cur = rhs.get(j, frozenset())
                        rhs[j] = cur ^ coeffs
                rhs = {j: v for j, v in rhs.items() if v}
                rhs_bits = res.element_to_bits(k - 1, cell, rhs)
                x = res.solve_in_cell(k, cell, rhs_bits)
                if x is None:
                    raise WindowExceededError(f"null homotopy failed at {(k, cell)}")
                if self.rng is not None:
                    for z in res.cell_kernel(k, cell):
                        if self.rng.getrandbits(1):
                            x ^= z
                out = res.bits_to_element(k, cell, x)
        self._memo[key] = out
        return out


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
        for _ in range(len(self.indeterminacy)):
            new = set()
            for v in out:
                for b in self.indeterminacy:
                    new.add(v ^ b)
            out |= new
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
    hom = NullHomotopy(res, b, c, rng=rng)
    bits = 0
    for n, gi in enumerate(_gen_positions(res, s, deg)):
        if _evaluate_cocycle(res, a, a.s, hom.value(a.s, gi)):
            bits |= 1 << n
    # indeterminacy: a . Ext^{s_b+s_c-1} + Ext^{s_a+s_b-1} . c
    vectors = []
    left_cell = (b.s + c.s - 1, add_deg(b.deg, c.deg))
    for n, _ in enumerate(_gen_positions(res, *left_cell)):
        e = ChartClass(left_cell[0], left_cell[1], 1 << n)
        vectors.append(yoneda_product(res, a, e).bits)
    right_cell = (a.s + b.s - 1, add_deg(a.deg, b.deg))
    for n, _ in enumerate(_gen_positions(res, *right_cell)):
        e = ChartClass(right_cell[0], right_cell[1], 1 << n)
        vectors.append(yoneda_product(res, e, c).bits)
    ncols = max(res.gen_count(s, deg), 1)
    basis, _ = gf2.rref_ints([v for v in vectors if v], ncols)
    return MasseyResult(s, deg, bits, [v for v in basis if v])

