"""Cochain-level products and Massey brackets in the reduced cobar
complex: the reference for the engine's Yoneda products and brackets.

`CobarComplex` extends the library's complex, which computes Ext
dimensions only, with the handling of classes: cocycles, boundaries, a
deterministic cohomology basis and the coordinates of a cocycle against
it.  Products are cochain concatenation, so Yoneda products and triple
Massey brackets are computed here directly at cochain level.
"""

from dataclasses import dataclass
from typing import Optional

from isoadams import cobar, gf2
from isoadams.cobar import Deg

from conftest import transpose


def reduce_against(reduced_rows: list[int], pivots: list[int], v: int) -> int:
    """Normal form of v modulo the RREF row space."""
    for r, p in enumerate(pivots):
        if v & (1 << p):
            v ^= reduced_rows[r]
    return v


class CobarComplex(cobar.CobarComplex):
    """The reduced cobar complex with its cohomology classes."""

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
            rep = reduce_against(red, pivots, z)
            if rep:
                out.append(rep)
                red, pivots = gf2.rref_ints(red + [rep], ncols)
                red = red[: len(pivots)]
        return out

    def class_vector(self, s: int, deg: Deg, cocycle_bits: int) -> int:
        """Coordinates of a cocycle against `cohomology_basis`."""
        boundaries, pivots = self.boundary_space(s, deg)
        v = reduce_against(boundaries, pivots, cocycle_bits)
        reps = self.cohomology_basis(s, deg)
        if not reps:
            if v:
                raise ValueError("nonzero vector in a zero cohomology group")
            return 0
        reduced_reps = [reduce_against(boundaries, pivots, r) for r in reps]
        sol = gf2.solve_ints(transpose(reduced_reps, len(self.tensor_basis(s, deg))), len(reps), v)
        if sol is None:
            raise ValueError("vector is not a cocycle class")
        return sol


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
    return gf2.solve_ints(transpose(rows, ncod), len(rows), target_bits)


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
