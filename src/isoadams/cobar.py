"""Reduced cobar complexes of the dual coalgebras: an Ext engine fully
independent of the resolution machinery, used as its oracle.

The s-cochains are s-fold tensors of positive-degree dual monomials;
the differential inserts reduced coproducts.  The library computes Ext
dimensions only (`cobar_ext`); the cochain-level products and Massey
brackets that check the engine's Yoneda products and brackets live in
the tests (`tests/cobar_products.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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

