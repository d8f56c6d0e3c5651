import random

import pytest

from isoadams import adem, milnor
from isoadams.adem import CLASSICAL, EVEN, GENERALIZED, WordElement
from isoadams.milnor import Bidegree

from conftest import is_admissible, reduce_with_strategy, word_degree, word_to_milnor


def word_elt(*words, flavor=CLASSICAL):
    return WordElement(frozenset(words), flavor)


def brute_adem_pair(a, b):
    """Independent application of the classical relation to one pair."""
    assert a < 2 * b
    out = set()
    for t in range(a // 2 + 1):
        if adem.binom2(b - t - 1, a - 2 * t):
            w = (a + b - t,) if t == 0 else (a + b - t, t)
            out ^= {w}
    return out


def test_adem_reduce_examples():
    assert adem.adem_reduce((1, 1), CLASSICAL).is_zero()
    assert adem.adem_reduce((2, 2), EVEN).is_zero()
    got = adem.adem_reduce((2, 2), CLASSICAL)
    assert got.terms == frozenset(brute_adem_pair(2, 2)) == frozenset({(3, 1)})


def test_adem_reduce_is_admissible_and_degree_preserving():
    rng = random.Random(17)
    for _ in range(200):
        word = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 4)))
        red = adem.adem_reduce(word, CLASSICAL)
        for w in red.terms:
            assert is_admissible(w, CLASSICAL)
            assert sum(w) == sum(word)


def test_adem_rejects_flavor_misuse():
    with pytest.raises(ValueError):
        adem.adem_reduce((3, 2), EVEN)  # odd exponent in even flavor
    with pytest.raises(ValueError):
        adem.adem_reduce((2, 2), GENERALIZED)  # no A0 rewriting engine
    with pytest.raises(ValueError):
        word_elt((1,), flavor=CLASSICAL) + word_elt((2,), flavor=EVEN)


def test_rewriting_confluence_random_strategies():
    rng = random.Random(31)
    for _ in range(120):
        word = tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 4)))
        leftmost = adem.adem_reduce(word, CLASSICAL).terms
        for _ in range(3):
            got = reduce_with_strategy(word, CLASSICAL, rng.choice)
            assert got == leftmost


def test_double_examples():
    assert adem.double(word_elt((1,))) == word_elt((2,), flavor=EVEN)
    assert adem.double(word_elt((3, 1))) == word_elt((6, 2), flavor=EVEN)
    assert adem.double(WordElement(frozenset(), CLASSICAL)).is_zero()


def test_doubling_is_ring_isomorphism():
    rng = random.Random(5)
    for _ in range(150):
        u = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 2)))
        v = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 2)))
        if sum(u) + sum(v) > 20:
            continue
        lhs = adem.double(adem.adem_reduce(u + v, CLASSICAL))
        rhs = adem.multiply_words(
            adem.double(adem.adem_reduce(u, CLASSICAL)),
            adem.double(adem.adem_reduce(v, CLASSICAL)),
        )
        assert lhs == rhs


def test_verify_lucas_examples():
    assert adem.verify_lucas(1, 1, 0) == (0, 0)
    assert adem.verify_lucas(2, 2, 1) == (1, 1)
    assert adem.verify_lucas(3, 5, 1) == (1, 1)


def test_lucas_identity_in_range():
    for r in range(0, 21):
        for s in range(0, 21):
            for t in range(0, r // 2 + 1):
                left, right = adem.verify_lucas(r, s, t)
                assert left == right


def test_sq_to_milnor_examples():
    assert adem.sq_to_milnor(1) == milnor.Q(0)
    assert adem.sq_to_milnor(2) == milnor.P(1)
    assert adem.sq_to_milnor(0) == milnor.ONE
    # Sq^1 is the unique Milnor monomial in (0)[1], Sq^2 in (1)[2]
    assert milnor.basis(1, 0) == (((0,), ()),)
    assert milnor.basis(2, 1) == (((), (1,)),)


def test_word_to_milnor_examples():
    assert word_to_milnor((1, 1)).is_zero()
    assert word_to_milnor((2, 1)) == milnor.multiply(milnor.P(1), milnor.Q(0))
    assert word_to_milnor(()) == milnor.ONE


def test_word_to_milnor_multiplicative():
    rng = random.Random(13)
    for _ in range(150):
        u = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 2)))
        v = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 2)))
        if sum(u) + sum(v) > 20:
            continue
        assert word_to_milnor(u + v) == milnor.multiply(
            word_to_milnor(u), word_to_milnor(v)
        )


def test_q_from_squares():
    assert adem.q_from_squares(0) == milnor.Q(0)
    assert adem.q_from_squares(1) == word_to_milnor((2, 1)) + word_to_milnor((1, 2))
    for i in range(5):
        assert adem.q_from_squares(i) == milnor.Q(i)


def test_admissible_basis_examples():
    assert set(adem.admissible_words(CLASSICAL, 3)) == {(3,), (2, 1)}
    assert adem.admissible_words(EVEN, Bidegree(2, 1)) == ((2,),)
    assert adem.admissible_words(CLASSICAL, 0) == ((),)
    assert adem.admissible_words(EVEN, Bidegree(3, 1)) == ()


def _compositions(n):
    """Every word of positive letters summing to n."""
    if n == 0:
        return [()]
    return [(a,) + w for a in range(1, n + 1) for w in _compositions(n - a)]


def test_admissible_words_are_the_words_is_admissible_accepts():
    # the enumerators against the pair predicate, degree by degree: the
    # classical words by t, the G and A0 words by (p, q) with q the sum
    # of the a // 2 (G: even letters only)
    for p in range(13):
        words = _compositions(p)
        accepted = sorted(w for w in words if is_admissible(w, CLASSICAL))
        assert sorted(adem.admissible_words(CLASSICAL, p)) == accepted, p
        for q in range(p + 1):
            at = [w for w in words if sum(a // 2 for a in w) == q]
            even = sorted(w for w in at if all(a % 2 == 0 for a in w) and is_admissible(w, EVEN))
            assert sorted(adem.admissible_words(EVEN, Bidegree(p, q))) == even, (p, q)
            generalized = sorted(w for w in at if is_admissible(w, GENERALIZED))
            assert sorted(adem.admissible_words(GENERALIZED, Bidegree(p, q))) == generalized, (p, q)


def test_dimension_match_classical_even_milnor():
    for t in range(0, 21):
        n_classical = len(adem.admissible_words(CLASSICAL, t))
        n_even = len(adem.admissible_words(EVEN, Bidegree(2 * t, t)))
        n_milnor = len([m for m in milnor.basis(2 * t, t) if not m[0]])
        assert n_classical == n_even == n_milnor


def test_generalized_counts_match_milnor_per_bidegree():
    for p in range(0, 21):
        for q in range(0, p + 1):
            words = adem.admissible_words(GENERALIZED, Bidegree(p, q))
            assert len(words) == len(milnor.basis(p, q)), (p, q)
            for w in words:
                assert word_degree(w, GENERALIZED) == Bidegree(p, q)


def test_parse_and_format_words():
    assert adem.parse_word("Sq3 Sq1") == (3, 1)
    assert adem.parse_word("1") == ()
    assert adem.format_word((3, 1)) == "Sq3 Sq1"
    with pytest.raises(milnor.ParseError):
        adem.parse_word("Sq3 nope")
