"""Finite graded GF(2) modules over the Milnor-basis algebras.

A module is a finite list of basis keys with bidegrees plus an action
callback taking a Milnor basis monomial and a key to a GF(2) set of
keys.  Elements are frozensets of keys.  This is the shape consumed by
the Hom/Ext machinery and by the smash-product construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

from . import milnor
from .milnor import Bidegree, Mono

Key = Hashable


@dataclass
class FiniteModule:
    keys: tuple[Key, ...]
    degree_of: Callable[[Key], Bidegree]
    act_mono: Callable[[Mono, Key], frozenset]
    name: str = "module"
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


def trivial_module(degs: Iterable[Bidegree] = (Bidegree(0, 0),), name: str = "trivial") -> FiniteModule:
    """Direct sum of shifted copies of the ground field: positive-degree
    monomials act as zero."""
    keys = tuple(enumerate(degs))

    def deg(k):
        return k[1]

    def act(m: Mono, k) -> frozenset:
        return frozenset([k]) if m == milnor.UNIT_MONO else frozenset()

    return FiniteModule(keys, deg, act, name)


def random_trivial_module(rng: random.Random, size: int, degree_pool: list[Bidegree], name: str = "random") -> FiniteModule:
    degs = [rng.choice(degree_pool) for _ in range(size)]
    return trivial_module(degs, name)
