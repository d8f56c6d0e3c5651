"""Reduced cobar complexes of the dual coalgebras: an Ext engine fully
independent of the resolution machinery, used as its oracle.

The s-cochains are s-fold tensors of positive-degree dual monomials;
the differential inserts reduced coproducts.  Products are cochain
concatenation, so Yoneda products and triple Massey brackets can be
computed here directly at cochain level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from . import gf2, milnor
from .charts import ExtChart, name_h_classes
from .milnor import DualMono

Deg = tuple[int, ...]
Tensor = tuple[DualMono, ...]


class DualCoalgebra:
    """A sub/quotient coalgebra of the dual of the generalized algebra.

    kinds:
      * ``A0``        -- the whole dual: exterior taus times polynomial xis;
      * ``G``         -- the polynomial xi part (dual of the even
                         subalgebra), bigraded on the slope-2 line;
      * ``classical`` -- same monomials as ``G`` with degrees halved to
                         the classical single grading.
    """

    def __init__(self, kind: str):
        if kind not in ("A0", "G", "classical"):
            raise ValueError(f"unknown dual coalgebra kind {kind!r}")
        self.kind = kind
        self.grading = 1 if kind == "classical" else 2

    def basis(self, deg: Deg) -> tuple[DualMono, ...]:
        if self.kind == "A0":
            return milnor.dual_basis(*deg)
        if self.kind == "G":
            p, q = deg
            return milnor.dual_basis(p, q) if p == 2 * q else ()
        (t,) = deg
        return milnor.dual_basis(2 * t, t)

    def degree(self, m: DualMono) -> Deg:
        d = milnor.mono_degree(m)
        return (d.q,) if self.kind == "classical" else (d.p, d.q)

    def reduced_coproduct(self, m: DualMono) -> frozenset[tuple[DualMono, DualMono]]:
        return _reduced(m)


@lru_cache(maxsize=None)
def _reduced(m: DualMono) -> frozenset[tuple[DualMono, DualMono]]:
    """psi(m) without the terms 1 (x) m and m (x) 1."""
    unit = milnor.UNIT_MONO
    return frozenset((left, right) for left, right in milnor.dual_coproduct(m) if unit not in (left, right))


def dual_coalgebra(kind: str) -> DualCoalgebra:
    return DualCoalgebra(kind)


@dataclass
class CobarComplex:
    """Reduced cobar complex of a dual coalgebra within a degree window."""

    dual: DualCoalgebra
    smax: int
    pmax: int
    _monos: dict = field(default_factory=dict, repr=False)
    _tensors: dict = field(default_factory=dict, repr=False)
    _rows: dict = field(default_factory=dict, repr=False)
    _ranks: dict = field(default_factory=dict, repr=False)

    @property
    def grading(self) -> int:
        return self.dual.grading

    def _positive_monos(self) -> list[DualMono]:
        key = "all"
        got = self._monos.get(key)
        if got is None:
            out = []
            if self.grading == 1:
                for t in range(1, self.pmax + 1):
                    out.extend(self.dual.basis((t,)))
            else:
                for p in range(1, self.pmax + 1):
                    for q in range(0, p + 1):
                        out.extend(self.dual.basis((p, q)))
            got = sorted(out, key=milnor.mono_key)
            self._monos[key] = got
        return got

    def tensor_basis(self, s: int, deg: Deg) -> tuple[Tensor, ...]:
        """All s-fold tensors of positive monomials of total degree deg."""
        key = (s, deg)
        got = self._tensors.get(key)
        if got is not None:
            return got
        if s == 0:
            got = ((),) if all(x == 0 for x in deg) else ()
        elif any(x < 0 for x in deg) or deg[0] < s:
            got = ()
        else:
            out = []
            for m in self._positive_monos():
                d = self.dual.degree(m)
                rest = tuple(x - y for x, y in zip(deg, d))
                if rest[0] < s - 1:
                    continue
                for tail in self.tensor_basis(s - 1, rest):
                    out.append((m,) + tail)
            got = tuple(sorted(out))
        self._tensors[key] = got
        return got

    def differential_rows(self, s: int, deg: Deg) -> list[int]:
        """Row per s-tensor, bits over the (s+1)-tensor basis."""
        key = (s, deg)
        got = self._rows.get(key)
        if got is not None:
            return got
        cod = self.tensor_basis(s + 1, deg)
        cod_index = {t: n for n, t in enumerate(cod)}
        rows = []
        for tensor in self.tensor_basis(s, deg):
            row = 0
            for i, x in enumerate(tensor):
                for a, b in self.dual.reduced_coproduct(x):
                    t = tensor[:i] + (a, b) + tensor[i + 1 :]
                    row ^= 1 << cod_index[t]
            rows.append(row)
        self._rows[key] = rows
        return rows

    def rank(self, s: int, deg: Deg) -> int:
        """Rank of the differential on the s-cochains at deg, kept."""
        key = (s, deg)
        got = self._ranks.get(key)
        if got is None:
            ncod = len(self.tensor_basis(s + 1, deg))
            got = self._ranks[key] = gf2.rank_ints(self.differential_rows(s, deg), max(ncod, 1))
        return got

    def cohomology_dim(self, s: int, deg: Deg) -> int:
        dom = self.tensor_basis(s, deg)
        if not dom:
            return 0
        return len(dom) - self.rank(s, deg) - (self.rank(s - 1, deg) if s > 0 else 0)

    # -- class handling -------------------------------------------------

    def cocycle_space(self, s: int, deg: Deg) -> list[int]:
        """Canonical basis of the cocycles at a cell (combinations of
        tensors killed by the differential)."""
        rows = self.differential_rows(s, deg)
        ncod = len(self.tensor_basis(s + 1, deg))
        return gf2.left_kernel_ints(rows, ncod)

    def boundary_space(self, s: int, deg: Deg) -> tuple[list[int], list[int]]:
        """RREF rows and pivots of the image of the previous differential."""
        if s == 0:
            return [], []
        prev = self.differential_rows(s - 1, deg)
        red, pivots = gf2.rref_ints(prev, len(self.tensor_basis(s, deg)))
        return [r for r in red if r], pivots

    def cohomology_basis(self, s: int, deg: Deg) -> list[int]:
        """Deterministic cocycle representatives of a cohomology basis:
        each is a cocycle of `cocycle_space` in normal form modulo the
        boundaries and the representatives before it."""
        red, pivots = self.boundary_space(s, deg)
        ncols = len(self.tensor_basis(s, deg))
        out = []
        for z in self.cocycle_space(s, deg):
            rep = gf2.reduce_against(red, pivots, z)
            if rep:
                out.append(rep)
                red, pivots = gf2.rref_ints(red + [rep], ncols)
                red = red[: len(pivots)]
        return out

    def class_vector(self, s: int, deg: Deg, cocycle_bits: int) -> int:
        """Coordinates of a cocycle against `cohomology_basis`."""
        boundaries, pivots = self.boundary_space(s, deg)
        v = gf2.reduce_against(boundaries, pivots, cocycle_bits)
        reps = self.cohomology_basis(s, deg)
        if not reps:
            if v:
                raise ValueError("nonzero vector in a zero cohomology group")
            return 0
        reduced_reps = [gf2.reduce_against(boundaries, pivots, r) for r in reps]
        sol = gf2.solve_ints(_transpose(reduced_reps, len(self.tensor_basis(s, deg))), len(reps), v)
        if sol is None:
            raise ValueError("vector is not a cocycle class")
        return sol


def _transpose(rows: list[int], ncols: int) -> list[int]:
    out = [0] * ncols
    for c, row in enumerate(rows):
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= 1 << c
            row ^= low
    return out


def cobar_ext(dual: DualCoalgebra, smax: int, pmax: int) -> ExtChart:
    """Ext chart from the reduced cobar complex."""
    cx = CobarComplex(dual, smax, pmax)
    chart = ExtChart(f"cobar-{dual.kind}", cx.grading, smax, pmax)
    degs: list[Deg]
    if cx.grading == 1:
        degs = [(t,) for t in range(pmax + 1)]
    else:
        degs = [(p, q) for p in range(pmax + 1) for q in range(p + 1)]
    for s in range(smax + 1):
        for deg in degs:
            d = cx.cohomology_dim(s, deg)
            if d:
                chart.cells[(s, deg)] = d
    name_h_classes(chart)
    return chart


# ---------------------------------------------------------------------------
# cochain-level products and Massey brackets in the cobar complex


def concat(cx: CobarComplex, s1: int, deg1: Deg, bits1: int, s2: int, deg2: Deg, bits2: int) -> int:
    """Concatenation product of cochains, in cell coordinates."""
    deg = tuple(a + b for a, b in zip(deg1, deg2))
    basis1 = cx.tensor_basis(s1, deg1)
    basis2 = cx.tensor_basis(s2, deg2)
    index = {t: n for n, t in enumerate(cx.tensor_basis(s1 + s2, deg))}
    out = 0
    for n1, t1 in enumerate(basis1):
        if not ((bits1 >> n1) & 1):
            continue
        for n2, t2 in enumerate(basis2):
            if not ((bits2 >> n2) & 1):
                continue
            out ^= 1 << index[t1 + t2]
    return out


def solve_coboundary(cx: CobarComplex, s: int, deg: Deg, target_bits: int) -> Optional[int]:
    """Some u with d(u) = target (an s+1 cochain), or None."""
    rows = cx.differential_rows(s, deg)
    ncod = len(cx.tensor_basis(s + 1, deg))
    return gf2.solve_ints(_transpose(rows, ncod), len(rows), target_bits)


@dataclass
class CobarMassey:
    s: int
    deg: Deg
    class_bits: int
    indeterminacy_rank: int


def massey_in_cobar(
    cx: CobarComplex,
    a: tuple[int, Deg, int],
    b: tuple[int, Deg, int],
    c: tuple[int, Deg, int],
) -> CobarMassey:
    """<a,b,c> at cochain level: u.c + a.v with du = ab, dv = bc."""
    sa, da, va = a
    sb, db, vb = b
    sc, dc, vc = c
    ab = concat(cx, sa, da, va, sb, db, vb)
    u = solve_coboundary(cx, sa + sb - 1, tuple(x + y for x, y in zip(da, db)), ab)
    bc = concat(cx, sb, db, vb, sc, dc, vc)
    v = solve_coboundary(cx, sb + sc - 1, tuple(x + y for x, y in zip(db, dc)), bc)
    if u is None or v is None:
        raise ValueError("products are not coboundaries; bracket undefined")
    s = sa + sb + sc - 1
    deg = tuple(x + y + z for x, y, z in zip(da, db, dc))
    w = concat(cx, sa + sb - 1, tuple(x + y for x, y in zip(da, db)), u, sc, dc, vc)
    w ^= concat(cx, sa, da, va, sb + sc - 1, tuple(x + y for x, y in zip(db, dc)), v)
    cls = cx.class_vector(s, deg, w)
    # indeterminacy rank: a . H^{s_b+s_c-1} + H^{s_a+s_b-1} . c
    vectors = []
    for rep in cx.cohomology_basis(sb + sc - 1, tuple(x + y for x, y in zip(db, dc))):
        vectors.append(cx.class_vector(s, deg, concat(cx, sa, da, va, sb + sc - 1, tuple(x + y for x, y in zip(db, dc)), rep)))
    for rep in cx.cohomology_basis(sa + sb - 1, tuple(x + y for x, y in zip(da, db))):
        vectors.append(cx.class_vector(s, deg, concat(cx, sa + sb - 1, tuple(x + y for x, y in zip(da, db)), rep, sc, dc, vc)))
    rank = gf2.rank_ints([v for v in vectors if v], max(cx.cohomology_dim(s, deg), 1))
    return CobarMassey(s, deg, cls, rank)
