"""The isotropic coefficient module: an exterior algebra on classes r_i
inverse to the Milnor operations, with the full algebra action solved
from the generator tables.

r_i sits in bidegree (-2^i+1)[-2^{i+1}+1], exactly minus the bidegree of
Q_i, and Q_j r_i = delta_ij.  Distinct exterior monomials r_I occupy
distinct bidegrees (the offset p-2q recovers |I| and the weight then
decodes I in binary), so every bidegree carries at most one basis
element; that multiplicity-freeness drives the action solver.  The
isotropic chart is `homological.ext_chart_coefficients` of a window.

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


def exterior_monomials(n_max: int) -> tuple[ExtMono, ...]:
    """Every exterior monomial on the indices 0..n_max, by size and then
    lexicographically."""
    return tuple(I for size in range(n_max + 2) for I in itertools.combinations(range(n_max + 1), size))


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
    """All exterior monomials r_I of topological degree p_min <= p
    (every r_I has p <= 0).  Complete by construction: r_I has p at
    most that of each r_i in it, so the window uses only r_0..r_{n_max},
    n_max the last generator inside (at least 0)."""

    p_min: int

    def __post_init__(self) -> None:
        if self.p_min > 0:
            raise ValueError(f"window empty: p_min must be <= 0, got {self.p_min}")

    @property
    def n_max(self) -> int:
        n = 0
        while r_degree(n + 1).p >= self.p_min:
            n += 1
        return n

    def basis(self) -> tuple[ExtMono, ...]:
        return tuple(sorted(I for I in exterior_monomials(self.n_max) if self.p_min <= ext_degree(I).p))


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
    # i -> ((S, k), ...): the entries P^S r_i = r_k, with S = () first
    _by_generator: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        by_generator: dict = {i: [((), i)] for i in range(self.n_max + 1)}
        for s, i in sorted(self.entries):
            by_generator[i].append((s, _p_target(milnor.p_weight(s), i)))
        self._by_generator = {i: tuple(v) for i, v in by_generator.items()}

    def act_p(self, r: tuple[int, ...], I: ExtMono) -> HElement:
        """P^R r_I by the Cartan formula: with I = (i, rest), the sum over
        the solved entries P^S r_i = r_k with S <= R componentwise (and
        S = (), k = i) of r_k P^{R-S} r_rest."""
        if not r:
            return frozenset([I])
        if not I:
            return H_ZERO  # positive-degree operation on the unit
        key = (r, I)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if milnor.p_weight(r) > self.w_max or I[-1] > self.n_max:
            raise WindowExceededError(f"P^{r} on r_{I} outside solved window")
        head, rest = I[0], I[1:]
        out: set[ExtMono] = set()
        for s, k in self._by_generator[head]:
            if len(s) > len(r) or any(x > y for x, y in zip(s, r)):
                continue
            t = milnor.trim(y - x for x, y in itertools.zip_longest(s, r, fillvalue=0))
            right = self.act_p(t, rest) if rest else (H_ZERO if t else H_ONE)
            for b in right:
                out ^= ext_product((k,), b)
        result = frozenset(out)
        self._memo[key] = result
        return result

    def act_mono(self, m: Mono, I: ExtMono) -> HElement:
        e, r = m
        out = self.act_p(r, I) if r else frozenset([I])
        for j in e:
            out = q_action(j, out)
        return out


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
    The square equations' rows are the tables of P^{(h)} P^S and
    P^S P^{(h)} over the S of weight w - h (`milnor.p_product_table`),
    packed over p_exponents_of_weight(w) and the same for every
    generator; only their right-hand sides depend on i.
    """
    report = SolveReport()
    solved: set[tuple[tuple[int, ...], int]] = set()

    def c_value(r: tuple[int, ...], i: int) -> Optional[int]:
        """Target index of P^r r_i using already-solved weights, or None."""
        if not r:
            return i
        if (r, i) in solved:
            return _p_target(milnor.p_weight(r), i)
        return None

    for w in range(1, w_max + 1):
        r_list = milnor.p_exponents_of_weight(w)
        # (j, S, P^{(h)} P^S, P^S P^{(h)}) for h = 2^{j-1} <= w
        squares = []
        for h in (2**a for a in range(w.bit_length())):
            lefts = milnor.p_product_table((h,), w - h, True)
            rights = milnor.p_product_table((h,), w - h, False)
            for s, left, right in zip(milnor.p_exponents_of_weight(w - h), lefts, rights):
                squares.append((h.bit_length(), s, left, right))
        for i in range(n_max + 1):
            target = _p_target(w, i)
            rows: list[int] = []
            b = 0
            # Sq^{2^j} r_k = r_{k-1} iff k == j
            for j, s, left, right in squares:
                # (Sq^{2^j} P^S) r_i = Sq^{2^j} (P^S r_i)
                if c_value(s, i) == j:
                    b |= 1 << len(rows)
                rows.append(left)
                # (P^S Sq^{2^j}) r_i = P^S (Sq^{2^j} r_i)
                if i == j and c_value(s, i - 1) is not None:
                    b |= 1 << len(rows)
                rows.append(right)
            # Q_k commutation: (P^R Q_k) r_i = P^R (Q_k r_i) = [k==i][R=()]
            for k in range(n_max + 2):
                for n, r in enumerate(r_list):
                    rhs = False
                    for m, low in milnor.commutator_terms(k, r):
                        if c_value(low, i) == m:
                            rhs = not rhs
                    if k == target or rhs:
                        b |= rhs << len(rows)
                        rows.append(1 << n if k == target else 0)

            if target is None:
                # no admissible target: all constants vanish; equations
                # must agree
                if b:
                    report.inconsistent.append((w, i))
                report.solution_dims[(w, i)] = 0
                continue
            n_unknown = len(r_list)
            x = gf2.solve_ints(rows, n_unknown, b)
            if x is None:
                report.inconsistent.append((w, i))
                report.solution_dims[(w, i)] = -1
                continue
            dim = n_unknown - gf2.rank_ints(rows, n_unknown)
            report.solution_dims[(w, i)] = dim
            for n, r in enumerate(r_list):
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
    computations: basis r_I in the window, action from the table.  The
    action never leaves the window: operations raise p, and P^R and Q_j
    only lower or drop indices."""
    if table.n_max < window.n_max:
        raise ValueError("table does not cover the window")
    return FiniteModule(window.basis(), ext_degree, table.act_mono)


class ActionTableNotUnique(ValueError):
    """The solved action table is not unique, so the isotropic chart is
    undefined."""


def isotropic_chart(window: IsotropicWindow, smax: int, pmax: int) -> ExtChart:
    """The isotropic Adams E2 chart: Ext over the generalized algebra with
    coefficients in the window's exterior module, for s <= smax and
    topological degree p <= pmax, from a minimal resolution of the dual
    window module (`homological.ext_chart_coefficients`).  A P^R acting
    in degree <= pmax has weight <= pmax / 2, so the action table is
    solved to that weight; a non-unique table raises ActionTableNotUnique
    before anything is resolved.

    Cells where the window may differ from the whole exterior module are
    flagged truncated, and their dimensions dropped.  With Q = H / H_w,
    Ext^s(F2, H_w) = Ext^s(F2, H) at t once Hom(F_{s-1}, Q) and
    Hom(F_s, Q) vanish there (the long exact sequence of 0 -> H_w -> H ->
    Q -> 0), with F the minimal resolution of F2 over A0.  Q sits below
    p_min and the generators of F_s have p >= s, so that holds when t.p
    <= max(s - 1, 0) - p_min.  So no cell with p <= pmax is truncated
    once p_min <= -pmax, and a deeper window runs as p_min = -pmax: the
    same chart from a smaller exterior basis."""
    window = IsotropicWindow(max(window.p_min, -pmax))
    table = solve_action_table(n_max=window.n_max, w_max=pmax // 2)
    report = table.report
    if not report.unique:
        raise ActionTableNotUnique(
            "action table not unique; the isotropic chart is undefined\n"
            f"underdetermined: {report.underdetermined} inconsistent: {report.inconsistent}"
        )
    chart = homological.ext_chart_coefficients(isotropic_coefficients(table, window), smax, pmax)
    for s in range(smax + 1):
        for p in range(max(s - 1, 0) - window.p_min + 1, pmax + 1):
            for q in range(p // 2 + 1):
                chart.truncated.add((s, (p, q)))
                chart.cells.pop((s, (p, q)), None)
    return chart


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
                for nn in ns:
                    out ^= {(h, nn)}
        return frozenset(out)

    return FiniteModule(keys, deg, act)


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
    gen_sets = [set(g) for g in gens]
    return frozenset(m for m in exterior_monomials(n_max) if any(g <= set(m) for g in gen_sets))


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


def baer_injectivity_check(n_max: int, ideal_samples: int = 50, seed: int = 0) -> BaerReport:
    """Extend sampled module maps from homogeneous ideals of the
    exterior algebra on Q_0..Q_{n_max} to the whole algebra via
    psi(1) = sum over A of r_{I_x} phi(x), A the monomials of the ideal
    whose image has a nonzero unit component; verify the extension.
    For n_max <= 2 every monomial ideal is checked before the samples."""
    rng = random.Random(seed)
    report = BaerReport()
    all_monos = exterior_monomials(n_max)

    ideals: list[frozenset[ExtMono]] = []
    if n_max <= 2:
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
            {ext_degree(J) - q_monomial_degree(m) for m in ideal for J in all_monos}
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
