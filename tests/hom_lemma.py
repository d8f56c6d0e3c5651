"""The Hom lemma of the isotropic coefficients, as a reference check.

For modules N and N' on which the Milnor operations act as zero, the
maps of degree zero from N into the smash module H (x) N' that commute
with every Q_j are the linear maps N -> N', landing in the copy of N'
under the unit r_().  `hom_comparison_check` compares the two spaces
by dimension and checks where the maps land.  The smash module lets
the algebra act on both factors through the coproduct of the algebra
(`conftest.coproduct`).
"""

from dataclasses import dataclass

from isoadams import gf2
from isoadams.isotropic import ActionTable, HElement, IsotropicWindow, ext_degree, ext_product
from isoadams.modules import FiniteModule

from conftest import coproduct


def h_product(x: HElement, y: HElement) -> HElement:
    out = set()
    for a in x:
        for b in y:
            out ^= ext_product(a, b)
    return frozenset(out)


def smash_module(N: FiniteModule, table: ActionTable, window: IsotropicWindow) -> FiniteModule:
    """Underlying space (window basis of the exterior coefficients)
    tensor N, with the algebra acting through the coproduct on both
    factors."""
    h_keys = window.basis()
    keys = tuple((J, n) for J in h_keys for n in N.keys)

    def deg(k):
        return ext_degree(k[0]) + N.degree_of(k[1])

    def act(m, k) -> frozenset:
        J, n = k
        out: set = set()
        for m1, m2 in coproduct(m):
            hs = table.act_mono(m1, J)
            if not hs:
                continue
            ns = N.act_mono(m2, n)
            if not ns:
                continue
            for h in hs:
                for nn in ns:
                    out ^= {(h, nn)}
        return frozenset(out)

    return FiniteModule(keys, deg, act)


@dataclass
class HomComparison:
    dim_linear: int
    dim_into_smash: int
    lands_in_module: bool

    @property
    def ok(self) -> bool:
        return self.dim_linear == self.dim_into_smash and self.lands_in_module


def hom_comparison_check(
    N: FiniteModule, Nprime: FiniteModule, table: ActionTable, window: IsotropicWindow
) -> HomComparison:
    """Compare, in shift zero, linear maps N -> N' with maps from N into
    the smash module; the latter must land in the copy of N' under the
    unit.  The Milnor operations act as zero on N and N', so every linear
    map N -> N' already commutes with them."""
    dim_linear = sum(1 for a in N.keys for b in Nprime.keys if N.degree_of(a) == Nprime.degree_of(b))

    # into the smash module
    smash = smash_module(Nprime, table, window)
    unknowns = []
    for a in N.keys:
        d = N.degree_of(a)
        for k in smash.keys:
            if smash.degree_of(k) == d:
                unknowns.append((a, k))
    uindex = {u: n for n, u in enumerate(unknowns)}
    rows: list[int] = []
    for a in N.keys:
        # Q_j f(a) = f(Q_j a) = 0
        for j in range(window.n_max + 1):
            qj = ((j,), ())
            images: dict = {}
            for k in smash.keys:
                if (a, k) not in uindex:
                    continue
                for kk in smash.act_mono(qj, k):
                    images.setdefault(kk, 0)
                    images[kk] ^= 1 << uindex[(a, k)]
            rows.extend(v for v in images.values() if v)
    space = gf2.kernel_ints(rows, len(unknowns)) if unknowns else []
    lands = True
    for v in space:
        for (a, k), n in uindex.items():
            if (v >> n) & 1 and k[0] != ():
                lands = False
    return HomComparison(dim_linear, len(space), lands)
