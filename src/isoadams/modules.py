"""Finite graded GF(2) modules over the windowed algebras.

A module is a finite list of basis keys with degrees plus an action
callback taking an algebra basis monomial and a key to a GF(2) set of
keys.  Elements are frozensets of keys.  This is the one module type:
`resolve` takes it as its target (the ground field is a trivial module
acted on by the algebra's unit, Ext with coefficients in M resolves the
dual module D M).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

from .milnor import Bidegree, Mono, mono_degree

Key = Hashable


@dataclass
class FiniteModule:
    keys: tuple[Key, ...]
    degree_of: Callable[[Key], Bidegree]
    act_mono: Callable[[Mono, Key], frozenset]
    _by_degree: dict = field(default_factory=dict, repr=False)

    def basis_at(self, deg: Bidegree) -> tuple[Key, ...]:
        if not self._by_degree:
            table: dict[Bidegree, list[Key]] = {}
            for k in self.keys:
                table.setdefault(self.degree_of(k), []).append(k)
            self._by_degree = {d: tuple(ks) for d, ks in table.items()}
        return self._by_degree.get(deg, ())

    def degrees(self) -> list[Bidegree]:
        return sorted({self.degree_of(k) for k in self.keys})


def dual_module(M: FiniteModule) -> FiniteModule:
    """D M = Hom(M, F2) for a module M over the generalized algebra, a
    right module through (phi a)(x) = phi(a x), so a left module over its
    opposite.  The key K is the functional dual to K, at minus its degree
    in M.  phi_J m is the sum of the phi_K with J in m K, for the K of M
    at deg J - |m|."""
    degree = {k: Bidegree(*M.degree_of(k)) for k in M.keys}

    def deg(k) -> Bidegree:
        p, q = degree[k]
        return Bidegree(-p, -q)

    def act(m: Mono, J) -> frozenset:
        return frozenset(K for K in M.basis_at(degree[J] - mono_degree(m)) if J in M.act_mono(m, K))

    return FiniteModule(M.keys, deg, act)


def trivial_module(degs: Iterable[Bidegree] = (Bidegree(0, 0),), *, unit: Mono) -> FiniteModule:
    """Direct sum of shifted copies of the ground field: the unit
    monomial acts as the identity, positive-degree monomials as zero.
    The unit is the algebra's own (`algebra.unit`), which differs between
    the Milnor and the word or P-part bases, so it has no default."""
    keys = tuple(enumerate(degs))

    def deg(k):
        return k[1]

    def act(m: Mono, k) -> frozenset:
        return frozenset([k]) if m == unit else frozenset()

    return FiniteModule(keys, deg, act)
