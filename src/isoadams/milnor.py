"""Milnor-basis arithmetic for the mod-2 generalized Steenrod algebra.

The algebra is presented directly off its dual: an exterior algebra on
generators tau_0, tau_1, ... tensored with a polynomial algebra on
xi_1, xi_2, ....  Monomials Q^E P^R (duals of tau^E xi^R) form the
canonical basis; elements are GF(2) sums, i.e. sets of monomials.

Bidegrees are written (q)[p] with p the topological degree and q the
weight:

    Q_i  : p = 2^(i+1) - 1,  q = 2^i - 1
    xi_j : p = 2^(j+1) - 2,  q = 2^j - 1   (per unit exponent, j >= 1)

Two independent multiplication routes are provided, which must agree
everywhere:

- `multiply`: the matrix product formula for the P-parts plus
  commutator shuffles for the Q's.  The formula enumerates only the
  matrices with an odd coefficient, pruning each entry by Lucas's
  condition as it is placed, and closes a row once what is left of it
  fits no later entry.  This pairwise `p_product` serves
  `multiply_mono`, and neither keeps a memo: each product is formed
  afresh.  The resolve paths and the action-table solver use
  `p_product_table`, the same formula with one factor fixed, which
  yields its products with every P^R of one weight in one enumeration.
- `multiply_via_duality`: the pairing <xy, w> = <x (x) y, psi(w)>.  The
  dual coproduct psi(w) is built by multiplying out the generator
  coproducts on packed exponents (tau bits and fixed-width xi fields
  in one int per tensor term) and kept in that form.  The oracle packs
  each queried pair into w's layout and looks the int up; a factor that
  no term of the layout can hold packs to no key.  Nothing of the
  product formula is used.  `dual_coproduct` is the same psi(w)
  unpacked into pairs of dual monomials.

The resolve paths never form a product as a set of monomials.  They
read packed rows over the block layout of each bidegree (`basis_blocks`,
one block per exterior part E, from which `basis` is read): right rows
from `packed_rows`, and the left rows of all terms of a differential at
once from `left_rows`, both by shifting whole `p_product_table`s to
their blocks.

The P^R Q^E presentation is reached through the one rewriting of P past
Q by the commutator rule, `_p_past_qs`: `prqe_to_qepr` applies it, and
`qepr_to_prqe` inverts it, since it is unitriangular in the P-weight.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import combinations
from operator import lshift, xor
from typing import Iterable, NamedTuple, Optional


class Bidegree(NamedTuple):
    """(q)[p] bookkeeping; p = topological degree, q = weight."""

    p: int
    q: int

    def __add__(self, other):  # type: ignore[override]
        return Bidegree(self.p + other.p, self.q + other.q)

    def __sub__(self, other):
        return Bidegree(self.p - other.p, self.q - other.q)

    @property
    def offset(self) -> int:
        """Distance p - 2q from the slope-2 line."""
        return self.p - 2 * self.q

    def __str__(self) -> str:
        return f"({self.q})[{self.p}]"


# A monomial is (E, R): E a strictly increasing tuple of Q-indices,
# R the P-exponent tuple indexed from slot 1, trailing zeros trimmed.
Mono = tuple[tuple[int, ...], tuple[int, ...]]

UNIT_MONO: Mono = ((), ())


def trim(r: Iterable[int]) -> tuple[int, ...]:
    t = tuple(r)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def mono_degree(m: Mono) -> Bidegree:
    e, r = m
    p = sum(2 ** (i + 1) - 1 for i in e) + sum(rj * (2 ** (j + 1) - 2) for j, rj in enumerate(r, start=1))
    q = sum(2**i - 1 for i in e) + sum(rj * (2**j - 1) for j, rj in enumerate(r, start=1))
    return Bidegree(p, q)


def mono_key(m: Mono):
    """Canonical order: lexicographic on (bidegree, E, R)."""
    return (mono_degree(m), m[0], m[1])


class Element:
    """GF(2) linear combination of Milnor basis monomials Q^E P^R."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Mono] = ()):
        self.terms: frozenset[Mono] = frozenset(terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __add__(self, other: "Element") -> "Element":
        return Element(self.terms ^ other.terms)

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Bidegree:
        degs = {mono_degree(m) for m in self.terms}
        if len(degs) != 1:
            raise ValueError("element is zero or inhomogeneous")
        return degs.pop()

    def sorted_terms(self) -> list[Mono]:
        return sorted(self.terms, key=mono_key)

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"Element({format_element(self)!r})"


ZERO = Element()
ONE = Element([UNIT_MONO])


def Q(*indices: int) -> Element:
    """Product of Milnor operations Q_i, zero on a repeated index."""
    out = ONE
    for i in indices:
        out = multiply(out, Element([((i,), ())]))
    return out


def P(*r: int) -> Element:
    """The operation dual to xi_1^{r_1} xi_2^{r_2} ...."""
    return Element([((), trim(r))])


# ---------------------------------------------------------------------------
# basis enumeration


@lru_cache(maxsize=None)
def p_exponents_of_weight(w: int) -> tuple[tuple[int, ...], ...]:
    """All trimmed R with sum r_j (2^j - 1) = w, deterministic order."""
    if w < 0:
        return ()
    if w == 0:
        return ((),)

    def rec(weight: int, max_slot: int) -> list[tuple[int, ...]]:
        # R supported on slots 1..max_slot
        if weight == 0:
            return [()]
        out = []
        for j in range(max_slot, 0, -1):
            unit = 2**j - 1
            if unit > weight:
                continue
            for mult in range(weight // unit, 0, -1):
                for rest in rec(weight - mult * unit, j - 1):
                    r = list(rest) + [0] * (j - len(rest))
                    r[j - 1] = mult
                    out.append(tuple(r))
        return out

    max_slot = 1
    while 2 ** (max_slot + 1) - 1 <= w:
        max_slot += 1
    return tuple(sorted(rec(w, max_slot)))


@lru_cache(maxsize=None)
def basis_blocks(p: int, q: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """The layout of basis(p, q) as {E: (offset, w)}, in sorted E order.

    The distance p - 2q from the slope-2 line is |E|, and the weight
    w = q - q(Q^E) left over is carried by the P-part, which sits on the
    line.  So each exterior part E of that size with w >= 0 owns one
    block, {E} x p_exponents_of_weight(w), starting at position
    `offset` of basis(p, q).  The dict is cached and shared; callers
    must not change it.
    """
    out: dict[tuple[int, ...], tuple[int, int]] = {}
    size = p - 2 * q
    if size < 0 or q < 0:
        return out
    offset = 0
    # Q_i has weight 2^i - 1, so only i < (q + 1).bit_length() fit
    for e in combinations(range((q + 1).bit_length()), size):
        w = q - sum(2**i - 1 for i in e)
        if w >= 0:
            out[e] = (offset, w)
            offset += len(p_exponents_of_weight(w))
    return out


@lru_cache(maxsize=None)
def basis(p: int, q: int) -> tuple[Mono, ...]:
    """All Milnor monomials Q^E P^R of bidegree (q)[p], in `mono_key`
    order: the blocks of `basis_blocks` expanded.  They share their
    degree, so that order sorts by E and then by R, which is the order
    of the blocks and of p_exponents_of_weight inside each.
    """
    return tuple((e, r) for e, (_, w) in basis_blocks(p, q).items() for r in p_exponents_of_weight(w))


def p_weight(r: tuple[int, ...]) -> int:
    """The weight sum r_j (2^j - 1) of P^r, half its degree."""
    return sum(rj * (2**j - 1) for j, rj in enumerate(r, start=1))


def exterior_from_degree(p: int, q: int) -> Optional[tuple[int, ...]]:
    """The index set E of the unique exterior monomial Q^E of bidegree
    (q)[p], or None when no such monomial exists.

    |E| = p - 2q and sum_{i in E} 2^i = q + |E|, so the binary digits of
    the latter spell out E; any E so decoded has exactly bidegree (q)[p].
    """
    size = p - 2 * q
    total = q + size
    if size < 0 or total < 0 or total.bit_count() != size:
        return None
    return tuple(i for i in range(total.bit_length()) if (total >> i) & 1)


# the dual Hopf algebra has the same monomial shapes, so tau^E xi^R is
# represented by the same (E, R) tuples
DualMono = Mono

dual_basis = basis


# The dual coproduct works on packed tensor terms.  For a dual monomial w
# with largest generator index n and field width W, a term left (x) right
# is one int: the tau bits of the left factor at bits 0..n, those of the
# right factor at bits n+1..2n+1, then n W-bit fields holding the left
# exponents of xi_1..xi_n and n more holding the right ones.  Every
# exponent in a partial product of w is at most p(w)/2, since each xi_j
# has degree at least 2, so W = (p(w)//2).bit_length() keeps each field
# from carrying into the next.  A generator factor is a table of
# (tau bits, packed term): multiplying a term by one of its entries is
# zero when their tau bits meet and the int sum otherwise.  The duality
# oracle reads psi(w) in this form: it packs each queried factor into
# w's layout with `_pack`, which gives no key for a factor that no term
# of the layout can hold, so a query never aliases another term.


def _xi_field(j: int, right: bool, n: int, width: int) -> int:
    """The bit offset of the exponent field of xi_j (j >= 1)."""
    return 2 * (n + 1) + ((n if right else 0) + j - 1) * width


@lru_cache(maxsize=None)
def _tau_factor(k: int, n: int, width: int) -> tuple[tuple[int, int], ...]:
    """psi(tau_k) = tau_k (x) 1 + sum_i xi_{k-i}^{2^i} (x) tau_i, packed."""
    out = [(1 << k, 1 << k)]
    for i in range(k + 1):
        tau = 1 << (n + 1 + i)
        xi = (1 << i) << _xi_field(k - i, False, n, width) if i < k else 0
        out.append((tau, tau + xi))
    return tuple(out)


@lru_cache(maxsize=None)
def _xi_factor(k: int, c: int, n: int, width: int) -> tuple[tuple[int, int], ...]:
    """psi(xi_k^{2^c}) = sum_i xi_{k-i}^{2^{i+c}} (x) xi_i^{2^c}, packed;
    the 2-power climbs on the left factor (Frobenius in char 2)."""
    out = []
    for i in range(k + 1):
        left = (1 << (i + c)) << _xi_field(k - i, False, n, width) if i < k else 0
        right = (1 << c) << _xi_field(i, True, n, width) if i else 0
        out.append((0, left + right))
    return tuple(out)


def _times(terms: set[int], factor: tuple[tuple[int, int], ...]) -> set[int]:
    """The packed terms times a generator factor, coefficients mod 2."""
    out: set[int] = set()
    for tau, packed in factor:
        # t -> t + packed is injective, so each entry's image is a set
        out ^= {t + packed for t in terms if not t & tau}
    return out


@lru_cache(maxsize=None)
def _packed_coproduct(x: DualMono) -> tuple[frozenset[int], int, int]:
    """psi(x) as packed terms with their layout (n, width): the
    multiplicative extension of the generator coproducts."""
    e, r = x
    n = max(len(r), e[-1] if e else 0)
    width = (mono_degree(x).p // 2).bit_length()
    terms = {0}
    for k in e:
        terms = _times(terms, _tau_factor(k, n, width))
    for j, rj in enumerate(r, start=1):
        for c in range(rj.bit_length()):
            if rj >> c & 1:
                terms = _times(terms, _xi_factor(j, c, n, width))
    return frozenset(terms), n, width


def _pack(m: DualMono, right: bool, n: int, width: int) -> Optional[int]:
    """The dual monomial m as the left (or, with `right`, the right)
    factor of a packed term of layout (n, width), or None when m has a
    tau or xi index above n or an exponent of 2^width or more: no term
    of that layout has such a factor, and its bits would spill into
    another factor's."""
    e, r = m
    if len(r) > n or (e and e[-1] > n):
        return None
    packed = 0
    for i in e:
        packed |= 1 << i
    if right:
        packed <<= n + 1
    for j, rj in enumerate(r, start=1):
        if rj >> width:
            return None
        packed += rj << _xi_field(j, right, n, width)
    return packed


@lru_cache(maxsize=None)
def _dual_mono(taus: int, xis: int, width: int) -> DualMono:
    """Unpack tau bits and xi exponent fields; one shared tuple each."""
    e = tuple(i for i in range(taus.bit_length()) if taus >> i & 1)
    r = []
    field = (1 << width) - 1
    while xis:
        r.append(xis & field)
        xis >>= width
    return (e, tuple(r))


def dual_coproduct(x: DualMono) -> frozenset[tuple[DualMono, DualMono]]:
    """psi(x) as pairs of dual monomials, unpacked from its packed terms."""
    terms, n, width = _packed_coproduct(x)
    side = n + 1
    taus = (1 << side) - 1
    fields = (1 << n * width) - 1
    out = []
    for t in terms:
        xis = t >> 2 * side
        out.append((_dual_mono(t & taus, xis & fields, width), _dual_mono(t >> side & taus, xis >> n * width, width)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# the product formula


def _matrix_product_terms(r: tuple[int, ...], s: tuple[int, ...]) -> list[tuple[int, ...]]:
    """T(X) for each matrix X with R(X) = r and S(X) = s whose
    coefficient b(X) is odd.

    By Lucas, b(X) is odd iff the binary digits of the entries on each
    antidiagonal are disjoint, and then t_n, their sum, is their OR.  So
    the enumeration keeps one OR per antidiagonal and skips any entry
    whose bits meet it: x_ij as it is placed, x_i0 when its row ends and
    x_0j, the column's deficit, at the end.
    """
    nr, nc = len(r), len(s)
    diag = [0] * (nr + nc + 1)
    col_left = list(s)
    out: list[tuple[int, ...]] = []

    def finish():
        t = diag[1:]
        for j, x in enumerate(col_left):
            if x & t[j]:
                return
            t[j] |= x
        while t and not t[-1]:
            t.pop()
        out.append(tuple(t))

    def place(i: int, j: int, left: int):
        # x_ij onwards in row i, with `left` of r_i not yet placed
        if j > nc:
            d = diag[i]
            if left & d:
                return
            diag[i] = d | left
            if i < nr:
                place(i + 1, 1, r[i])
            else:
                finish()
            diag[i] = d
            return
        if not left >> j:
            # nor can any later entry of the row: x_i0 takes the rest
            place(i, nc + 1, left)
            return
        n = i + j
        d = diag[n]
        c = col_left[j - 1]
        cap = left >> j if left >> j < c else c
        # x runs over the submasks of `free` (the bits d leaves free),
        # largest first; those above cap are passed over
        free = ~d & ((1 << cap.bit_length()) - 1)
        x = free
        while True:
            if x <= cap:
                diag[n] = d | x
                col_left[j - 1] = c - x
                place(i, j + 1, left - (x << j))
            if not x:
                break
            x = (x - 1) & free
        col_left[j - 1] = c
        diag[n] = d

    if nr:
        place(1, 1, r[0])
    else:
        finish()
    return out


def p_product(r: tuple[int, ...], s: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """P^r * P^s as a set of P-exponent tuples (coefficients mod 2)."""
    out: set[tuple[int, ...]] = set()
    for t in _matrix_product_terms(r, s):
        out ^= {t}
    return frozenset(out)


@lru_cache(maxsize=None)
def commutator_terms(k: int, r: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The correction terms of the commutator rule

        P^r Q_k = Q_k P^r + sum_j Q_{k+j} P^{r - 2^k e_j},

    as the pairs (k + j, r - 2^k e_j) for the j with r_j >= 2^k, in
    increasing j.  The same sum is Q_k P^r + P^r Q_k."""
    step = 1 << k
    out = []
    for j, rj in enumerate(r, start=1):
        if rj >= step:
            lowered = list(r)
            lowered[j - 1] -= step
            out.append((k + j, trim(lowered)))
    return tuple(out)


@lru_cache(maxsize=None)
def _p_past_qs(r: tuple[int, ...], f: tuple[int, ...]) -> frozenset[Mono]:
    """P^r Q^f expanded in the Q^E P^R basis (f strictly increasing)."""
    if not f:
        return frozenset([((), r)])
    k, rest = f[0], f[1:]
    out: set[Mono] = set()
    for m, r1 in ((k, r),) + commutator_terms(k, r):
        for e2, r2 in _p_past_qs(r1, rest):
            if m in e2:
                continue
            out ^= {(tuple(sorted((m,) + e2)), r2)}
    return frozenset(out)


# maxsize=0 stores no product, since callers rarely repeat a pair; the
# wrapper stays for its call count, which the benchmark's traced runs
# read through cache_info()
@lru_cache(maxsize=0)
def multiply_mono(a: Mono, b: Mono) -> frozenset[Mono]:
    """(Q^E P^R)(Q^F P^S) in the Milnor basis, formed afresh on each call."""
    e, r = a
    f, s = b
    eset = set(e)
    out: set[Mono] = set()
    for g, r1 in _p_past_qs(r, f):
        if eset & set(g):
            continue
        eg = tuple(sorted(e + g))
        for t in p_product(r1, s):
            out ^= {(eg, t)}
    return frozenset(out)


@lru_cache(maxsize=None)
def _p_positions(w: int) -> dict[tuple[int, ...], int]:
    return {r: n for n, r in enumerate(p_exponents_of_weight(w))}


def p_product_table(factor: tuple[int, ...], w: int, left: bool) -> tuple[int, ...]:
    """P^factor P^R (with `left`) or P^R P^factor for every R in
    p_exponents_of_weight(w), in that order, each packed as bits over
    p_exponents_of_weight(p_weight(factor) + w).

    This is Milnor's formula with one factor fixed.  A left factor R
    fixes the rows i >= 1 of the matrix, r_i = sum_j 2^j x_ij; a right
    factor S fixes the columns j >= 1, s_j = sum_i x_ij.  These lines are
    placed entry by entry, each closed by its remainder at position 0,
    as in `_matrix_product_terms`.  The other factor is free: an entry x
    at position m of line k adds x (left) or 2^k x (right) to slot m of
    its exponent, and so costs that times 2^m - 1 of its weight w; its
    own margin (row 0 or column 0) then closes the weight left.  Lucas
    pruning per antidiagonal applies throughout, and each leaf flips one
    bit of one table entry.
    """
    lines = len(factor)
    # slots m with 2^m - 1 <= w: no entry lies on a position beyond them
    slots = (w + 1).bit_length() - 1
    # diag[n] is the OR of antidiagonal n, n >= 1
    diag = [0] * (lines + slots + 1)
    free = [0] * slots
    position = _p_positions(p_weight(factor) + w)
    free_position = _p_positions(w)
    table = [0] * len(free_position)

    def leaf():
        t = diag[1:]
        while t and not t[-1]:
            t.pop()
        r = free[:]
        while r and not r[-1]:
            r.pop()
        table[free_position[tuple(r)]] ^= 1 << position[tuple(t)]

    def close(m: int, budget: int):
        # x on position m of the free margin, with `budget` of w left
        if not budget:
            leaf()
            return
        d = diag[m]
        if m == 1:
            if not budget & d:
                diag[1] = d | budget
                free[0] += budget
                leaf()
                free[0] -= budget
                diag[1] = d
            return
        cap = budget // ((1 << m) - 1)
        mask = ~d & ((1 << cap.bit_length()) - 1)
        x = mask
        while True:
            if x <= cap:
                diag[m] = d | x
                free[m - 1] += x
                close(m - 1, budget - x * ((1 << m) - 1))
                free[m - 1] -= x
            if not x:
                break
            x = (x - 1) & mask
        diag[m] = d

    def place(k: int, m: int, remain: int, budget: int):
        # x on position m of line k, with `remain` of the line not yet
        # placed and `budget` of w left
        if m > slots:
            d = diag[k]
            if remain & d:
                return
            diag[k] = d | remain
            if k < lines:
                place(k + 1, 1, factor[k], budget)
            else:
                close(slots, budget)
            diag[k] = d
            return
        n = k + m
        d = diag[n]
        if left:
            step, cap = 1, remain >> m
        else:
            step, cap = 1 << k, remain
        unit = ((1 << m) - 1) * step
        if budget // unit < cap:
            cap = budget // unit
        if not cap:
            # nor can any later position of the line take an entry
            place(k, slots + 1, remain, budget)
            return
        mask = ~d & ((1 << cap.bit_length()) - 1)
        x = mask
        while True:
            if x <= cap:
                diag[n] = d | x
                free[m - 1] += x * step
                place(k, m + 1, remain - (x << m if left else x), budget - x * unit)
                free[m - 1] -= x * step
            if not x:
                break
            x = (x - 1) & mask
        diag[n] = d

    if lines:
        place(1, 1, factor[0], w)
    else:
        close(slots, w)
    return tuple(table)


def left_rows(
    terms: list[tuple[Mono, tuple[int, int], int]], deg: tuple[int, int], p_rows: dict
) -> list[int]:
    """Rows, one per m in basis(*deg): the XOR over the terms (n, out_deg,
    shift) of the left product n m, packed as bits over basis(*out_deg)
    with out_deg = deg + |n| as (p, q) pairs, and placed `shift` bits up.
    A single term with shift 0 gives the left rows n m themselves.

    With n = Q^E P^R and the block layout of `basis_blocks`, a block F
    of basis(*deg) is Q^F times every P^S of one weight w, and n Q^F P^S
    is the sum over the terms Q^G P^{R1} of P^R Q^F with G and E
    disjoint of Q^{E u G} P^{R1} P^S.  So each such term of each n adds
    one whole table to the rows of block F, P^{R1} P^S for every such S
    (`p_product_table`, kept in `p_rows`), shifted once:
    by its term's shift plus the offset of the block of E u G in
    basis(*out_deg).  No product n m is formed on its own, and a row of
    the block is one reduce over the tables' entries for it."""
    terms = [(e, r, basis_blocks(*out_deg), shift) for (e, r), out_deg, shift in terms]
    rows: list[int] = []
    for f, (_, w) in basis_blocks(*deg).items():
        tables = p_rows.setdefault((True, w), {})
        shifts = []
        block = []
        for e_n, r_n, out_blocks, shift in terms:
            for g, r1 in _p_past_qs(r_n, f):
                if e_n:
                    if not set(e_n).isdisjoint(g):
                        continue
                    g = tuple(sorted(e_n + g))
                try:
                    table = tables[r1]
                except KeyError:
                    table = tables[r1] = p_product_table(r1, w, True)
                shifts.append(out_blocks[g][0] + shift)
                block.append(table)
        if block:
            rows.extend([reduce(xor, map(lshift, entries, shifts)) for entries in zip(*block)])
        else:
            rows.extend([0] * len(p_exponents_of_weight(w)))
    return rows


def packed_rows(n: Mono, deg: tuple[int, int], out_deg: tuple[int, int], p_rows: dict) -> tuple[int, ...]:
    """Right rows m*n for m in basis(*deg), each packed as bits over
    basis(*out_deg), where out_deg = deg + |n| as (p, q) pairs; left
    rows come from `left_rows`.

    With the block layout of `basis_blocks`, the row of a product
    (Q^E P^R)(Q^F P^S) is the XOR, over the terms Q^G P^{R1} of P^R Q^F
    with G and E disjoint, of P^{R1} P^S shifted to the block of E u G.
    Each P^{R1} P^S is read from the table of P^S at R1's weight
    (`p_product_table`, kept in `p_rows`) by R1's position.
    """
    out_blocks = basis_blocks(*out_deg)
    rows: list[int] = []
    f, s = n
    s_weight = p_weight(s)
    for e, (_, w) in basis_blocks(*deg).items():
        # G -> (offset of the block of E u G, table of P^S at R1's
        # weight, R1's positions), or None when G meets E
        reads: dict = {}
        for r in p_exponents_of_weight(w):
            row = 0
            for g, r1 in _p_past_qs(r, f) if f else (((), r),):
                read = reads.get(g, 0)
                if read == 0:
                    read = None
                    if set(e).isdisjoint(g):
                        offset, w_out = out_blocks[tuple(sorted(e + g))]
                        w1 = w_out - s_weight
                        tables = p_rows.setdefault((False, w1), {})
                        table = tables.get(s)
                        if table is None:
                            table = tables[s] = p_product_table(s, w1, False)
                        read = (offset, table, _p_positions(w1))
                    reads[g] = read
                if read is not None:
                    offset, table, positions = read
                    row ^= table[positions[r1]] << offset
            rows.append(row)
    return tuple(rows)


def multiply(a: Element, b: Element) -> Element:
    """Bilinear extension of the monomial product."""
    out: set[Mono] = set()
    for ma in a.terms:
        for mb in b.terms:
            out ^= multiply_mono(ma, mb)
    return Element(out)


def multiply_via_duality(a: Element, b: Element) -> Element:
    """Product determined by <xy, w> = <x (x) y, psi(w)> over dual
    monomials w, each pair of monomials of x and y looked up in psi(w);
    independent oracle for `multiply`."""
    by_deg_a: dict[Bidegree, set[Mono]] = {}
    for m in a.terms:
        by_deg_a.setdefault(mono_degree(m), set()).add(m)
    by_deg_b: dict[Bidegree, set[Mono]] = {}
    for m in b.terms:
        by_deg_b.setdefault(mono_degree(m), set()).add(m)
    out: set[Mono] = set()
    for da, ta in by_deg_a.items():
        for db, tb in by_deg_b.items():
            d = da + db
            # the pairs packed into the layout of each n met in degree d;
            # the width depends on d alone
            keys: dict[int, list[int]] = {}
            for w in dual_basis(d.p, d.q):
                psi, n, width = _packed_coproduct(w)
                pairs = keys.get(n)
                if pairs is None:
                    lefts = [k for k in (_pack(x, False, n, width) for x in ta) if k is not None]
                    rights = [k for k in (_pack(y, True, n, width) for y in tb) if k is not None]
                    pairs = keys[n] = [left + right for left in lefts for right in rights]
                if sum(pair in psi for pair in pairs) & 1:
                    out ^= {w}
    return Element(out)


# ---------------------------------------------------------------------------
# coproduct on the algebra side and basis conversions


@lru_cache(maxsize=None)
def coproduct(m: Mono) -> frozenset[tuple[Mono, Mono]]:
    """psi(Q^E P^R) = sum over E splits and componentwise R splits.

    Dual to the free graded-commutative product of the dual Hopf algebra:
    the coefficient at (m1, m2) is the pairing of m against the product
    of the corresponding dual monomials.
    """
    e, r = m
    e_splits: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    for i in e:
        e_splits = [(a + (i,), b) for a, b in e_splits] + [(a, b + (i,)) for a, b in e_splits]
    r_splits: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    for rj in r:
        r_splits = [(s1 + (x,), s2 + (rj - x,)) for s1, s2 in r_splits for x in range(rj + 1)]
    out = set()
    for e1, e2 in e_splits:
        for r1, r2 in r_splits:
            out.add(((e1, trim(r1)), (e2, trim(r2))))
    return frozenset(out)


class PrqeElement:
    """An element written in the P^R Q^E presentation."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Mono] = ()):
        # a pair (E, R) stands for P^R Q^E
        self.pairs: frozenset[Mono] = frozenset(pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrqeElement) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(("prqe", self.pairs))

    def __add__(self, other: "PrqeElement") -> "PrqeElement":
        return PrqeElement(self.pairs ^ other.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def sorted_pairs(self) -> list[Mono]:
        return sorted(self.pairs, key=mono_key)

    def __str__(self) -> str:
        return format_prqe(self)

    def __repr__(self) -> str:
        return f"PrqeElement({format_prqe(self)!r})"


def prqe_to_qepr(a: PrqeElement) -> Element:
    """Rewrite from the P^R Q^E basis to the Q^E P^R basis."""
    out: set[Mono] = set()
    for e, r in a.pairs:
        out ^= _p_past_qs(r, e)
    return Element(out)


def qepr_to_prqe(a: Element) -> PrqeElement:
    """The inverse of `prqe_to_qepr`.

    That map is unitriangular: P^R Q^E is Q^E P^R plus terms whose
    P-part has strictly lower weight, since each commutation lowers R by
    2^k e_j.  So the pair of the term left over with the highest weight
    (ties broken by the monomial, for a fixed order) is in the answer:
    take it, XOR its image out, and repeat until nothing is left.
    """
    left = set(a.terms)
    out: set[Mono] = set()
    while left:
        e, r = top = max(left, key=lambda m: (p_weight(m[1]), m))
        out.add(top)
        left ^= _p_past_qs(r, e)
    return PrqeElement(out)


# ---------------------------------------------------------------------------
# text syntax: monomials like `Q0 Q2 P(1,0,3)` joined by `+`


_TOKEN = re.compile(r"Q(\d+)|P\(([\d,\s]*)\)|(1)|(\S+)")


def format_mono(m: Mono) -> str:
    e, r = m
    parts = [f"Q{i}" for i in e]
    if r:
        parts.append("P(" + ",".join(str(x) for x in r) + ")")
    return " ".join(parts) if parts else "1"


def format_element(a: Element) -> str:
    if not a.terms:
        return "0"
    return " + ".join(format_mono(m) for m in a.sorted_terms())


def format_prqe_pair(m: Mono) -> str:
    e, r = m
    parts = []
    if r:
        parts.append("P(" + ",".join(str(x) for x in r) + ")")
    parts.extend(f"Q{i}" for i in e)
    return " ".join(parts) if parts else "1"


def format_prqe(a: PrqeElement) -> str:
    if not a.pairs:
        return "0"
    return " + ".join(format_prqe_pair(m) for m in a.sorted_pairs())


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_element(text: str) -> Element:
    """Parse the `Q0 Q2 P(1,0,3)` syntax.

    Factors inside a monomial are multiplied left to right, so mixed
    presentations such as `P(1) Q0` parse to the correct element.
    """
    text = text.strip()
    if text == "0":
        return ZERO
    if not text:
        raise ParseError("empty element", 0)
    out = ZERO
    pos = 0
    for chunk in text.split("+"):
        factor_acc = ONE
        for match in _TOKEN.finditer(chunk):
            qi, pr, one, junk = match.groups()
            where = pos + match.start()
            if junk is not None:
                raise ParseError(f"unexpected token {junk!r}", where)
            if qi is not None:
                try:
                    factor_acc = multiply(factor_acc, Element([((int(qi),), ())]))
                except OverflowError:
                    # the commutator rule shifts by 2^index
                    raise ParseError(f"Q index {qi} too large", where) from None
            elif pr is not None:
                # `P()` is the unit; otherwise every slot holds a number
                slots = pr.split(",") if pr.strip() else []
                at = pos + match.start(2)
                for slot in slots:
                    if not slot.strip():
                        raise ParseError("empty P exponent slot", at)
                    at += len(slot) + 1
                try:
                    r = trim(int(x) for x in slots)
                except ValueError:
                    raise ParseError("bad P exponents", where) from None
                factor_acc = multiply(factor_acc, Element([((), r)]))
            # bare `1` leaves the accumulator alone
        if chunk.strip() == "":
            raise ParseError("empty monomial", pos)
        out = out + factor_acc
        pos += len(chunk) + 1
    return out
