"""Admissible-word presentations and Adem rewriting.

Three word flavors share the `Sq^{i_1} ... Sq^{i_n}` syntax:

  * ``classical`` -- the classical mod-2 Steenrod algebra, Adem
    relations for Sq^a Sq^b with a < 2b;
  * ``G`` -- the even subalgebra (all exponents even), whose only
    relations are the even-even Adem relations; isomorphic to the
    classical algebra under Sq^r -> Sq^{2r} with degrees doubled;
  * ``A0`` -- the generalized algebra.  No rewriting engine exists for
    this flavor (its odd-square relations are not part of the relation
    sets handled here); a word is evaluated in the Milnor basis instead,
    as the product (`milnor.multiply`) of the `sq_to_milnor` of its
    letters, and only enumeration/counting is supported.

Multiplication authority for anything touching A0 is the milnor module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import milnor
from .milnor import Bidegree, Element

CLASSICAL = "classical"
EVEN = "G"
GENERALIZED = "A0"

_FLAVORS = (CLASSICAL, EVEN, GENERALIZED)

Word = tuple[int, ...]


@dataclass(frozen=True)
class WordElement:
    terms: frozenset[Word]
    flavor: str

    def __add__(self, other: "WordElement") -> "WordElement":
        if self.flavor != other.flavor:
            raise ValueError("mixed flavors")
        return WordElement(self.terms ^ other.terms, self.flavor)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[Word]:
        return sorted(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(format_word(w) for w in self.sorted_terms())


def validate_word(word: Word, flavor: str) -> None:
    if flavor not in _FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if any(a <= 0 for a in word):
        raise ValueError("exponents must be positive")
    if flavor == EVEN and any(a % 2 for a in word):
        raise ValueError("even flavor admits only even exponents")


def format_word(word: Word) -> str:
    return " ".join(f"Sq{a}" for a in word) if word else "1"


def parse_word(text: str) -> Word:
    text = text.strip()
    if text in ("", "1"):
        return ()
    letters = []
    for tok in text.split():
        if not tok.startswith("Sq"):
            raise milnor.ParseError(f"unexpected token {tok!r}", text.index(tok))
        try:
            letters.append(int(tok[2:]))
        except ValueError:
            raise milnor.ParseError(f"bad exponent in {tok!r}", text.index(tok)) from None
    return tuple(letters)


def binom2(n: int, k: int) -> int:
    """Binomial coefficient mod 2 by Lucas' theorem."""
    if k < 0 or n < 0 or k > n:
        return 0
    return 1 if (n & k) == k else 0


def verify_lucas(r: int, s: int, t: int) -> tuple[int, int]:
    """Both sides of binom(2s-2t-1, 2r-4t) = binom(s-t-1, r-2t) mod 2."""
    left = binom2(2 * s - 2 * t - 1, 2 * r - 4 * t)
    right = binom2(s - t - 1, r - 2 * t)
    return left, right


def _adem_pair(a: int, b: int, flavor: str) -> frozenset[Word]:
    """Rewrite one inadmissible pair Sq^a Sq^b (a < 2b)."""
    if flavor == EVEN:  # the classical relation on (a/2, b/2), doubled
        return frozenset(tuple(2 * x for x in w) for w in _adem_pair(a // 2, b // 2, CLASSICAL))
    out: set[Word] = set()
    for t in range(a // 2 + 1):
        if binom2(b - t - 1, a - 2 * t):
            out ^= {(a + b - t,) if t == 0 else (a + b - t, t)}
    return frozenset(out)


@lru_cache(maxsize=None)
def reduce_word(word: Word, flavor: str = CLASSICAL) -> frozenset[Word]:
    """Raw admissible expansion, without the element wrapper, by
    rewriting leftmost inadmissible pairs, memoized for the run; the
    reference the classical resolution's packed Sq^a rows are tested
    against (`ClassicalAlgebra.multiply`), not on the resolve path."""
    for i in range(len(word) - 1):
        if word[i] < 2 * word[i + 1]:
            out: set[Word] = set()
            for rep in _adem_pair(word[i], word[i + 1], flavor):
                out ^= reduce_word(word[:i] + rep + word[i + 2 :], flavor)
            return frozenset(out)
    return frozenset([word])


def adem_reduce(word: Word, flavor: str = CLASSICAL) -> WordElement:
    """Admissible normal form by rewriting leftmost inadmissible pairs."""
    validate_word(word, flavor)
    if flavor == GENERALIZED:
        raise ValueError("no rewriting engine for the A0 flavor; multiply out sq_to_milnor of its letters")
    return WordElement(reduce_word(word, flavor), flavor)


def multiply_words(x: WordElement, y: WordElement) -> WordElement:
    if x.flavor != y.flavor:
        raise ValueError("mixed flavors")
    out: set[Word] = set()
    for u in x.terms:
        for v in y.terms:
            out ^= reduce_word(u + v, x.flavor)
    return WordElement(frozenset(out), x.flavor)


def double(x: WordElement) -> WordElement:
    """The ring isomorphism onto the even subalgebra, Sq^i -> Sq^{2i}."""
    if x.flavor != CLASSICAL:
        raise ValueError("doubling is defined on the classical flavor")
    return WordElement(frozenset(tuple(2 * a for a in w) for w in x.terms), EVEN)


# ---------------------------------------------------------------------------
# bridge to the Milnor basis


def sq_to_milnor(r: int) -> Element:
    """Milnor expansion of Sq^r in the generalized algebra.

    The pairing normalization is <Sq^{2k}, xi_1^k> = 1 and
    <Sq^{2k+1}, tau_0 xi_1^k> = 1, vanishing on every other dual
    monomial of bidegree (floor(r/2))[r]; the expansion is therefore the
    dual basis element of that distinguished monomial.
    """
    if r < 0:
        raise ValueError("negative square")
    if r == 0:
        return milnor.ONE
    k = r // 2
    dual = ((0,), milnor.trim((k,))) if r % 2 else ((), milnor.trim((k,)))
    assert dual in milnor.basis(r, k)
    return Element([dual])


def q_from_squares(i: int) -> Element:
    """Milnor operation built from the recursion Q_0 = Sq^1,
    Q_{i+1} = Sq^{2^{i+1}} Q_i + Q_i Sq^{2^{i+1}}."""
    if i < 0:
        raise ValueError("negative index")
    if i == 0:
        return sq_to_milnor(1)
    prev = q_from_squares(i - 1)
    sq = sq_to_milnor(2**i)
    return milnor.multiply(sq, prev) + milnor.multiply(prev, sq)


# ---------------------------------------------------------------------------
# admissible bases


@lru_cache(maxsize=None)
def _adm_classical(t: int) -> tuple[Word, ...]:
    if t < 0:
        return ()
    if t == 0:
        return ((),)
    out: list[Word] = [(t,)]
    for a in range(1, t):
        for w in _adm_classical(t - a):
            if w and a >= 2 * w[0]:
                out.append((a,) + w)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _adm_generalized(p: int, q: int) -> tuple[Word, ...]:
    if p < 0 or q < 0:
        return ()
    if p == 0:
        return ((),) if q == 0 else ()
    out: list[Word] = []
    for a in range(1, p + 1):
        if a // 2 > q:
            break
        for w in _adm_generalized(p - a, q - a // 2):
            if not w:
                if p == a:
                    out.append((a,))
                continue
            b = w[0]
            if a // 2 >= 2 * (b // 2) + (b & 1):
                out.append((a,) + w)
    return tuple(sorted(out))


def admissible_words(flavor: str, degree: Bidegree | int) -> tuple[Word, ...]:
    """All admissible words of one (bi)degree."""
    if flavor == CLASSICAL:
        t = degree.p if isinstance(degree, Bidegree) else int(degree)
        return _adm_classical(t)
    if not isinstance(degree, Bidegree):
        raise ValueError("even/generalized flavors are bigraded")
    if flavor == EVEN:
        if degree.p != 2 * degree.q:
            return ()
        return tuple(tuple(2 * a for a in w) for w in _adm_classical(degree.q))
    if flavor == GENERALIZED:
        return _adm_generalized(degree.p, degree.q)
    raise ValueError(f"unknown flavor {flavor!r}")
