"""The isotropic coefficient module: an exterior algebra on classes r_i
inverse to the Milnor operations, with the full algebra action solved
from the generator tables.

r_i sits in bidegree (-2^i+1)[-2^{i+1}+1], exactly minus the bidegree of
Q_i, and Q_j r_i = delta_ij.  Distinct exterior monomials r_I occupy
distinct bidegrees (the offset p-2q recovers |I| and the weight then
decodes I in binary), so every bidegree carries at most one basis
element; that multiplicity-freeness drives both the action solver and
the Hom machinery.

The generator tables only cover Q_j and the squares Sq^{2^j}; the
structure constants P^R r_i for general R are obtained weight by weight
as the unique solution of GF(2) linear systems expressing that the
known generator actions hold and that the algebra multiplication is
respected.  Underdetermined or inconsistent systems are reported, never
silently resolved.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional

from . import gf2, homological, milnor
from .charts import ExtChart
from .homological import WindowExceededError
from .milnor import Bidegree, Mono
from .modules import FiniteModule

ExtMono = tuple[int, ...]  # strictly increasing generator indices; () is the unit
HElement = frozenset[ExtMono]

H_ZERO: HElement = frozenset()
H_ONE: HElement = frozenset([()])


def r_degree(i: int) -> Bidegree:
    return Bidegree(-(2 ** (i + 1)) + 1, -(2**i) + 1)


def ext_degree(I: ExtMono) -> Bidegree:
    """Minus the bidegree of Q_I."""
    p, q = milnor.mono_degree((I, ()))
    return Bidegree(-p, -q)


def ext_from_degree(deg: Bidegree) -> Optional[ExtMono]:
    """The unique exterior monomial of a bidegree, if any: r_I sits at
    minus the bidegree of Q_I."""
    return milnor.exterior_from_degree(-deg.p, -deg.q)


def ext_product(a: ExtMono, b: ExtMono) -> HElement:
    if set(a) & set(b):
        return H_ZERO
    return frozenset([tuple(sorted(a + b))])


def h_product(x: HElement, y: HElement) -> HElement:
    out: set[ExtMono] = set()
    for a in x:
        for b in y:
            out ^= ext_product(a, b)
    return frozenset(out)


def q_action(j: int, x: HElement | ExtMono) -> HElement:
    """Q_j acts as the derivation with Q_j r_i = delta_ij."""
    if isinstance(x, tuple):
        x = frozenset([x])
    out: set[ExtMono] = set()
    for I in x:
        if j in I:
            out ^= {tuple(i for i in I if i != j)}
    return frozenset(out)


@dataclass(frozen=True)
class IsotropicWindow:
    """All exterior monomials r_I, I within {0..n_max}, of topological
    degree p_min <= p (every r_I has p <= 0).  Window-complete: any
    monomial of the full exterior algebra in that range uses only
    r_0..r_{n_max}."""

    n_max: int
    p_min: int

    def __post_init__(self) -> None:
        if self.p_min > 0:
            raise ValueError(f"window empty: p_min must be <= 0, got {self.p_min}")
        # r_{n_max+1} alone (the least negative escapee) must fall
        # outside the range, and with it every monomial involving it
        if r_degree(self.n_max + 1).p >= self.p_min:
            raise ValueError("window not complete: raise n_max or p_min")

    def basis(self) -> tuple[ExtMono, ...]:
        out = []
        for bits in range(2 ** (self.n_max + 1)):
            I = tuple(i for i in range(self.n_max + 1) if (bits >> i) & 1)
            if self.p_min <= ext_degree(I).p:
                out.append(I)
        return tuple(sorted(out))

    def contains(self, I: ExtMono) -> bool:
        return all(i <= self.n_max for i in I) and self.p_min <= ext_degree(I).p

    def covers(self, deg: Bidegree) -> bool:
        """Whether the window holds the full exterior algebra at this
        bidegree: no monomial outside the window sits there."""
        I = ext_from_degree(deg)
        return I is None or self.contains(I)


def window_for_depth(p_min: int) -> IsotropicWindow:
    """Smallest complete window reaching topological degree p_min."""
    n = 0
    while r_degree(n + 1).p >= p_min:
        n += 1
    return IsotropicWindow(n, p_min)


# ---------------------------------------------------------------------------
# the action solver


@dataclass
class SolveReport:
    """Per-(weight, generator) linear systems: solution space dims and
    any inconsistencies, keyed by the offending data."""

    solution_dims: dict[tuple[int, int], int] = field(default_factory=dict)
    inconsistent: list[tuple[int, int]] = field(default_factory=list)

    @property
    def underdetermined(self) -> list[tuple[int, int]]:
        return sorted(k for k, d in self.solution_dims.items() if d > 0)

    @property
    def unique(self) -> bool:
        return not self.inconsistent and not self.underdetermined


@dataclass
class ActionTable:
    """Solved structure constants P^R r_i = c r_k within a window.

    Degree bookkeeping allows at most one target: P^R preserves the
    offset, so P^R r_i can only hit the r_k with 2^k = 2^i - weight(R).
    """

    n_max: int
    w_max: int
    entries: frozenset[tuple[tuple[int, ...], int]]  # (R, i) with c = 1
    report: SolveReport
    _memo: dict = field(default_factory=dict, repr=False)

    def act_p_on_generator(self, r: tuple[int, ...], i: int) -> HElement:
        if not r:
            return frozenset([(i,)])
        w = _weight(r)
        if w > self.w_max or i > self.n_max:
            raise WindowExceededError(f"P^{r} on r_{i} outside solved window")
        if (r, i) in self.entries:
            return frozenset([(_p_target(w, i),)])
        return H_ZERO

    def act_p(self, r: tuple[int, ...], I: ExtMono) -> HElement:
        """Cartan extension of the generator table to monomials."""
        if not r:
            return frozenset([I])
        if not I:
            return H_ZERO  # positive-degree operation on the unit
        key = (r, I)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        head, rest = I[0], I[1:]
        out: set[ExtMono] = set()
        for s, t in _p_splits(r):
            left = self.act_p_on_generator(s, head) if s else frozenset([(head,)])
            if not left:
                continue
            right = self.act_p(t, rest) if rest else (frozenset([()]) if not t else H_ZERO)
            for a in left:
                for b in right:
                    out ^= ext_product(a, b)
        result = frozenset(out)
        self._memo[key] = result
        return result

    def act_mono(self, m: Mono, I: ExtMono) -> HElement:
        e, r = m
        out = self.act_p(r, I) if r else frozenset([I])
        for j in e:
            out = q_action(j, out)
        return out


@lru_cache(maxsize=None)
def _p_splits(r: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Componentwise splits S + T = R (the coproduct of P^R)."""
    splits = [((), ())]
    for rj in r:
        splits = [(s + (x,), t + (rj - x,)) for s, t in splits for x in range(rj + 1)]
    return tuple((milnor.trim(s), milnor.trim(t)) for s, t in splits)


def _weight(r: tuple[int, ...]) -> int:
    return sum(rj * (2**j - 1) for j, rj in enumerate(r, start=1))


def _p_target(weight: int, i: int) -> Optional[int]:
    """The k with 2^k = 2^i - weight: the only r_k that P^R r_i can hit
    when weight(R) = weight (see ActionTable), or None."""
    gap = 2**i - weight
    if gap <= 0 or gap & (gap - 1):
        return None
    return gap.bit_length() - 1  # weight 0 gives back i itself


def solve_action_table(n_max: int, w_max: int) -> ActionTable:
    """Solve the P^R structure constants weight by weight.

    Constraints per weight w and generator r_i: for every square
    generator Sq^{2^j} = P^{(2^{j-1})} and every solved S with
    weight(S) + 2^{j-1} = w, expanding the two products
    (Sq^{2^j} P^S) r_i and (P^S Sq^{2^j}) r_i through the Milnor
    multiplication gives a linear equation on the weight-w unknowns;
    commuting Q_k past P^R adds scalar-output equations.  The known
    generator rows enter through S = () (the product with the unit).
    """
    report = SolveReport()
    solved: set[tuple[tuple[int, ...], int]] = set()

    def c_value(r: tuple[int, ...], i: int) -> Optional[int]:
        """Target index of P^r r_i using already-solved weights, or None."""
        if not r:
            return i
        if (r, i) in solved:
            return _p_target(_weight(r), i)
        return None

    def generator_value(h: int, k: int) -> bool:
        # Sq^{2^j} r_k = r_{k-1} iff k == j, where h = 2^{j-1}
        j = h.bit_length()  # log2(h) + 1
        return k == j

    for w in range(1, w_max + 1):
        r_list = list(milnor.p_exponents_of_weight(w))
        index = {r: n for n, r in enumerate(r_list)}
        squares = [h for h in (2**a for a in range(w.bit_length() + 1)) if h <= w]
        for i in range(n_max + 1):
            target = _p_target(w, i)
            rows: list[int] = []
            rhs_bits: list[int] = []

            def add_equation(coeffs: Iterable[tuple[int, ...]], rhs: bool):
                row = 0
                for t in coeffs:
                    row ^= 1 << index[t]
                rows.append(row)
                rhs_bits.append(1 if rhs else 0)

            for h in squares:
                j = h.bit_length()
                for s in milnor.p_exponents_of_weight(w - h):
                    # (Sq^{2^j} P^S) r_i = Sq^{2^j} (P^S r_i)
                    k1 = c_value(s, i)
                    rhs1 = k1 is not None and generator_value(h, k1)
                    add_equation(milnor.p_product(milnor.trim((h,)), s), rhs1)
                    # (P^S Sq^{2^j}) r_i = P^S (Sq^{2^j} r_i)
                    rhs2 = generator_value(h, i) and c_value(s, i - 1) is not None
                    add_equation(milnor.p_product(s, milnor.trim((h,))), rhs2)
            # Q_k commutation: (P^R Q_k) r_i = P^R (Q_k r_i) = [k==i][R=()]
            for k in range(n_max + 2):
                for r in r_list:
                    # P^R Q_k = Q_k P^R + sum_j Q_{k+j} P^{R - 2^k e_j}
                    lhs: list[tuple[int, ...]] = []
                    if k == target:
                        lhs.append(r)
                    rhs = False
                    for j in range(1, len(r) + 1):
                        if r[j - 1] >= 2**k:
                            lowered = list(r)
                            lowered[j - 1] -= 2**k
                            low = milnor.trim(lowered)
                            kl = c_value(low, i)
                            if kl is not None and k + j == kl:
                                rhs = not rhs
                    if lhs or rhs:
                        add_equation(lhs, rhs)

            if target is None:
                # no admissible target: all constants vanish; equations
                # must agree
                if any(rhs_bits):
                    report.inconsistent.append((w, i))
                report.solution_dims[(w, i)] = 0
                continue
            n_unknown = len(r_list)
            b = 0
            for n, bit in enumerate(rhs_bits):
                b |= bit << n
            x = gf2.solve_ints(rows, n_unknown, b)
            if x is None:
                report.inconsistent.append((w, i))
                report.solution_dims[(w, i)] = -1
                continue
            dim = n_unknown - gf2.rank_ints(rows, n_unknown)
            report.solution_dims[(w, i)] = dim
            for r, n in index.items():
                if (x >> n) & 1:
                    solved.add((r, i))

    return ActionTable(n_max, w_max, frozenset(solved), report)


def sq_action(j: int, x: HElement | ExtMono, table: ActionTable) -> HElement:
    """Action of Sq^{2^j}: Q_0 for j = 0, else the even square
    P^{(2^{j-1})} through the solved table."""
    if isinstance(x, tuple):
        x = frozenset([x])
    if j == 0:
        return q_action(0, x)
    r = milnor.trim((2 ** (j - 1),))
    out: set[ExtMono] = set()
    for I in x:
        out ^= table.act_p(r, I)
    return frozenset(out)


def isotropic_coefficients(table: ActionTable, window: IsotropicWindow) -> FiniteModule:
    """The coefficient module over the generalized algebra for Ext
    computations: basis r_I in the window, action from the table."""
    if table.n_max < window.n_max:
        raise ValueError("table does not cover the window")
    keys = window.basis()

    def act(m: Mono, I: ExtMono) -> frozenset:
        return frozenset(J for J in table.act_mono(m, I) if window.contains(J))

    return FiniteModule(keys, ext_degree, act, "isotropic-window")


class ActionTableNotUnique(ValueError):
    """The solved action table is not unique, so the isotropic chart is
    undefined."""


def isotropic_chart(window: IsotropicWindow, smax: int, pmax: int) -> ExtChart:
    """The isotropic Adams E2 chart: Ext over the generalized algebra with
    coefficients in the window's exterior module, for s <= smax and
    topological degree p <= pmax.  Cells the window cannot hold in full
    are flagged truncated.

    A P^R in a differential of degree <= pmax has weight <= pmax / 2, so
    the action table is solved to that weight; a non-unique table raises
    ActionTableNotUnique before anything is resolved."""
    table = solve_action_table(n_max=window.n_max, w_max=pmax // 2)
    report = table.report
    if not report.unique:
        raise ActionTableNotUnique(
            "action table not unique; the isotropic chart is undefined\n"
            f"underdetermined: {report.underdetermined} inconsistent: {report.inconsistent}"
        )
    coeffs = isotropic_coefficients(table, window)
    res = homological.resolve(homological.algebra_for("A0", pmax + 2), smax=smax, pmax=pmax)
    return homological.ext_chart_coefficients(res, coeffs, covers=window.covers)


# ---------------------------------------------------------------------------
# smash-product module


def smash_module(N: FiniteModule, table: ActionTable, window: IsotropicWindow) -> FiniteModule:
    """Underlying space (window basis of the exterior coefficients)
    tensor N, with the algebra acting through the coproduct on both
    factors."""
    h_keys = window.basis()
    keys = tuple((J, n) for J in h_keys for n in N.keys)

    def deg(k):
        return ext_degree(k[0]) + N.degree_of(k[1])

    def act(m: Mono, k) -> frozenset:
        J, n = k
        out: set = set()
        for m1, m2 in milnor.coproduct(m):
            hs = table.act_mono(m1, J)
            if not hs:
                continue
            ns = N.act_mono(m2, n)
            if not ns:
                continue
            for h in hs:
                if not window.contains(h):
                    continue
                for nn in ns:
                    out ^= {(h, nn)}
        return frozenset(out)

    return FiniteModule(keys, deg, act, f"smash({N.name})")


# ---------------------------------------------------------------------------
# Baer criterion on the exterior subalgebra of Milnor operations


def q_monomial_degree(I: ExtMono) -> Bidegree:
    return milnor.mono_degree((I, ()))


def ideal_monomials(n_max: int, gens: Iterable[ExtMono]) -> frozenset[ExtMono]:
    """The left ideal of Lambda(Q_0..Q_n) on monomial generators.

    Homogeneous elements of the exterior algebra on the Q_i are single
    monomials (each bidegree is at most one-dimensional), so homogeneous
    ideals are exactly the monomial ideals: all supersets of the
    generators' supports.
    """
    everything = [tuple(sorted(s)) for r in range(n_max + 2) for s in itertools.combinations(range(n_max + 1), r)]
    gen_sets = [set(g) for g in gens]
    return frozenset(m for m in everything if any(g <= set(m) for g in gen_sets))


@dataclass
class BaerReport:
    ideals_checked: int = 0
    morphisms_checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _module_maps_from_ideal(n_max: int, ideal: frozenset[ExtMono], shift: Bidegree):
    """Basis of the space of module maps from the ideal into the
    exterior coefficient algebra, homogeneous of the given shift.

    phi(Q_I) = eps_I r_{J(I)} with J decoded from the target bidegree;
    linearity under each Q_j pins the eps.
    """
    monos = sorted(ideal)
    index = {m: n for n, m in enumerate(monos)}
    targets = {m: ext_from_degree(q_monomial_degree(m) + shift) for m in monos}
    rows = []
    for m in monos:
        tm = targets[m]
        for j in range(n_max + 1):
            if j in m:
                # Q_j Q_m = 0, so Q_j must kill phi(m)
                if tm is not None and j in tm:
                    rows.append(1 << index[m])
                continue
            up = tuple(sorted(m + (j,)))
            tu = targets[up]
            # phi(Q_j m) = Q_j phi(m)
            row = 0
            if tu is not None:
                row ^= 1 << index[up]
            if tm is not None and j in tm:
                row ^= 1 << index[m]
            if row:
                rows.append(row)
    # coordinates with no target are identically zero
    for m in monos:
        if targets[m] is None:
            rows.append(1 << index[m])
    space = gf2.kernel_ints(rows, len(monos)) if monos else []
    return monos, targets, space


def baer_injectivity_check(
    n_max: int, ideal_samples: int = 50, seed: int = 0, exhaustive: Optional[bool] = None
) -> BaerReport:
    """Extend sampled module maps from homogeneous ideals of the
    exterior algebra on Q_0..Q_{n_max} to the whole algebra via
    psi(1) = sum over A of r_{I_x} phi(x), A the monomials of the ideal
    whose image has a nonzero unit component; verify the extension."""
    rng = random.Random(seed)
    report = BaerReport()
    all_monos = [
        tuple(sorted(s)) for r in range(n_max + 2) for s in itertools.combinations(range(n_max + 1), r)
    ]
    if exhaustive is None:
        exhaustive = n_max <= 2

    ideals: list[frozenset[ExtMono]] = []
    if exhaustive:
        for r in range(len(all_monos) + 1):
            for gens in itertools.combinations(all_monos, r):
                ideals.append(ideal_monomials(n_max, gens))
        ideals = sorted(set(ideals))
    while len(ideals) < ideal_samples:
        gens = [tuple(sorted(rng.sample(range(n_max + 1), rng.randint(1, n_max + 1)))) for _ in range(rng.randint(1, 3))]
        ideals.append(ideal_monomials(n_max, gens))

    for ideal in ideals:
        report.ideals_checked += 1
        if not ideal:
            continue
        # every shift that can host a nonzero map
        shifts = sorted(
            {ext_degree(J) - q_monomial_degree(m) for m in ideal for J in _subsets(n_max)}
        )
        for shift in shifts:
            monos, targets, space = _module_maps_from_ideal(n_max, ideal, shift)
            if not space:
                continue
            picks = space if len(space) <= 4 else [space[rng.randrange(len(space))] for _ in range(4)]
            extra = 0
            for v in space:
                if rng.getrandbits(1):
                    extra ^= v
            for v in list(picks) + ([extra] if extra else []):
                report.morphisms_checked += 1
                phi = {m: targets[m] for m in monos if (v >> monos.index(m)) & 1}
                # psi(1) = sum over A of r_{I_x} phi(x); membership in A
                # means phi(x) has a nonzero unit component, and then
                # r_{I_x} phi(x) is the r-monomial on the support of x
                psi1: set[ExtMono] = set()
                for m, t in phi.items():
                    if t == ():
                        psi1 ^= {m}
                psi1_elt: HElement = frozenset(psi1)
                ok = True
                for m in monos:
                    expected = frozenset([targets[m]]) if m in phi else H_ZERO
                    got: set[ExtMono] = set()
                    for J in psi1_elt:
                        # psi(Q_m) = Q_m psi(1), Q's applied outermost first
                        term: HElement = frozenset([J])
                        for j in sorted(m, reverse=True):
                            term = q_action(j, term)
                        got ^= term
                    if frozenset(got) != expected:
                        ok = False
                        break
                if not ok:
                    report.failures.append((sorted(ideal), shift))
    return report


def _subsets(n_max: int):
    for r in range(n_max + 2):
        yield from (tuple(sorted(s)) for s in itertools.combinations(range(n_max + 1), r))


# ---------------------------------------------------------------------------
# Hom comparison


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
