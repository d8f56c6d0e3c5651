"""The mod-2 Lambda algebra: an oracle for the classical Adams E2 chart.

The Lambda algebra of Bousfield, Curtis, Kan, Quillen, Rector and
Schlesinger (Topology 5, 1966) is a differential graded algebra whose
homology is Ext_A(F2, F2) over the classical Steenrod algebra A.  It
shares no code with the resolution engine: no `homological`, `adem` or
`gf2` enters, so a defect common to both sides of the identification
cannot hide from it.

Conventions (Tangora, Computing the homology of the lambda algebra,
Mem. AMS 337, 1985):
- the generator lambda_i sits at s = 1, t = i + 1; a word is a tuple of
  indices, and its stem t - s is the sum of its indices;
- the admissible words lambda_{i_1} ... lambda_{i_s}, those with
  2 i_k >= i_{k+1}, are a basis;
- an inadmissible pair rewrites as
  lambda_i lambda_{2i+1+n} = sum_{0 <= j < n} C(n-j-1, j) lambda_{i+n-j} lambda_{2i+1+j};
- the differential is the derivation with
  d lambda_n = sum_{1 <= j <= n} C(n-j, j) lambda_{n-j} lambda_{j-1},
  which maps Lambda^{s,t} to Lambda^{s+1,t}.
Binomials are taken mod 2 by Lucas.  A sum is a frozenset of admissible
words.
"""

from __future__ import annotations

from functools import lru_cache

Word = tuple[int, ...]


def binom2(n: int, k: int) -> int:
    """C(n, k) mod 2 by Lucas: the bits of k lie among those of n."""
    return int(n >= 0 and k >= 0 and n & k == k)


@lru_cache(maxsize=None)
def _rewrite_pair(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """lambda_a lambda_b for b > 2a, as admissible pairs."""
    n = b - 2 * a - 1
    return tuple((a + n - j, 2 * a + 1 + j) for j in range(n) if binom2(n - j - 1, j))


@lru_cache(maxsize=None)
def _d_letter(n: int) -> tuple[tuple[int, int], ...]:
    """d lambda_n, as admissible pairs (C(n-j, j) odd forces n >= 2j)."""
    return tuple((n - j, j - 1) for j in range(1, n + 1) if binom2(n - j, j))


@lru_cache(maxsize=None)
def left_multiply(a: int, word: Word) -> frozenset[Word]:
    """lambda_a times an admissible word.  Its one inadmissible pair, if
    any, is the leftmost; it is rewritten, and each of its terms
    lambda_x lambda_y is multiplied into the rest, y first."""
    if not word or 2 * a >= word[0]:
        return frozenset([(a,) + word])
    out: set[Word] = set()
    for x, y in _rewrite_pair(a, word[0]):
        for v in left_multiply(y, word[1:]):
            out ^= left_multiply(x, v)
    return frozenset(out)


@lru_cache(maxsize=None)
def differential(word: Word) -> frozenset[Word]:
    """d of an admissible word: d(lambda_a u) = d(lambda_a) u + lambda_a d(u)."""
    if not word:
        return frozenset()
    a, rest = word[0], word[1:]
    out: set[Word] = set()
    for x, y in _d_letter(a):
        for v in left_multiply(y, rest):
            out ^= left_multiply(x, v)
    for v in differential(rest):
        out ^= left_multiply(a, v)
    return frozenset(out)


@lru_cache(maxsize=None)
def _admissible(s: int, t: int, cap: int) -> tuple[Word, ...]:
    """The admissible words of length s at degree t with first index at
    most cap."""
    if s == 0:
        return ((),) if t == 0 else ()
    return tuple(
        (i,) + w for i in range(min(cap, t - s) + 1) for w in _admissible(s - 1, t - i - 1, 2 * i)
    )


def basis(s: int, t: int) -> tuple[Word, ...]:
    """The admissible basis of Lambda^{s,t}."""
    return _admissible(s, t, t)


def _rank(rows) -> int:
    """Rank over GF(2) by semi-echelon elimination: each row is reduced
    by the pivots at its top bit until it is zero or tops out at a new
    pivot; nothing is back-reduced."""
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = r
                break
            r ^= p
    return len(pivots)


def d_rank(s: int, t: int) -> int:
    """The rank of d: Lambda^{s,t} -> Lambda^{s+1,t}."""
    index = {w: k for k, w in enumerate(basis(s + 1, t))}
    return _rank(sum(1 << index[v] for v in differential(w)) for w in basis(s, t))


def ext_dims(smax: int, tmax: int) -> dict[tuple[int, int], int]:
    """{(s, t): dim H^{s,t}(Lambda)} for s <= smax and t <= tmax, nonzero
    cells only: Ext^{s,t}_A(F2, F2)."""
    out = {}
    for t in range(tmax + 1):
        ranks = [d_rank(s, t) for s in range(smax + 1)]
        for s in range(smax + 1):
            dim = len(basis(s, t)) - ranks[s] - (ranks[s - 1] if s else 0)
            if dim:
                out[(s, t)] = dim
    return out
