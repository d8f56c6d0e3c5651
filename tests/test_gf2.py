import random

import pytest
from hypothesis import given, settings, strategies as st

from isoadams import gf2
from isoadams.gf2 import F2Matrix, F2Vector


def mat(rows):
    return F2Matrix.from_rows(rows, ncols=len(rows[0]) if rows else 0)


def test_rref_duplicate_rows():
    red, pivots = gf2.rref(mat([[1, 1], [1, 1]]))
    assert red.to_lists() == [[1, 1], [0, 0]]
    assert pivots == [0]


def test_rref_zero_matrix():
    red, pivots = gf2.rref(mat([[0, 0]]))
    assert red.to_lists() == [[0, 0]]
    assert pivots == []


def test_rref_full_rank_2x2():
    red, pivots = gf2.rref(mat([[1, 0], [1, 1]]))
    assert red.to_lists() == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_kernel_identity():
    assert gf2.kernel_basis(F2Matrix.identity(3)) == []


def test_kernel_zero_2x3():
    ker = gf2.kernel_basis(F2Matrix.zero(2, 3))
    assert len(ker) == 3
    assert gf2.rank(F2Matrix.from_ints([v.bits for v in ker], 3)) == 3


def test_kernel_parity_check():
    ker = gf2.kernel_basis(mat([[1, 1]]))
    assert [v.to_list() for v in ker] == [[1, 1]]


def test_solve_identity():
    b = F2Vector.from_list([1, 0, 1])
    x = gf2.solve(F2Matrix.identity(3), b)
    assert x == b


def test_solve_underdetermined():
    x = gf2.solve(mat([[1, 1]]), F2Vector.from_list([0]))
    assert x is not None and x.to_list() in ([0, 0], [1, 1])


def test_solve_no_solution():
    assert gf2.solve(mat([[0]]), F2Vector.from_list([1])) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        gf2.solve(mat([[1, 0]]), F2Vector.from_list([1, 0]))


def test_rank_examples():
    assert gf2.rank(F2Matrix.identity(4)) == 4
    assert gf2.rank(F2Matrix.zero(3, 5)) == 0
    assert gf2.rank(mat([[1, 1], [1, 1]])) == 1


def random_matrix(rng, nrows, ncols):
    return F2Matrix.from_ints([rng.getrandbits(ncols) for _ in range(nrows)], ncols)


def test_rank_nullity_and_kernel_membership():
    rng = random.Random(1)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        m = random_matrix(rng, nrows, ncols)
        _, pivots = gf2.rref(m)
        ker = gf2.kernel_basis(m)
        assert gf2.rank(m) == len(pivots) == ncols - len(ker)
        # every kernel combination maps to zero
        for _ in range(5):
            x = 0
            for v in ker:
                if rng.getrandbits(1):
                    x ^= v.bits
            assert gf2.matvec_ints(m.row_ints(), x) == 0


def test_rref_idempotent():
    rng = random.Random(2)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        red, _ = gf2.rref(m)
        red2, _ = gf2.rref(red)
        assert red2.to_lists() == red.to_lists()


def test_solve_contract():
    rng = random.Random(3)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        m = random_matrix(rng, nrows, ncols)
        b = F2Vector(rng.getrandbits(nrows), nrows)
        x = gf2.solve(m, b)
        aug = F2Matrix.from_ints(
            [m.rows[i].bits | (((b.bits >> i) & 1) << ncols) for i in range(nrows)], ncols + 1
        )
        if x is None:
            assert gf2.rank(aug) > gf2.rank(m)
        else:
            assert m.mul_vector(x) == b
            assert gf2.rank(aug) == gf2.rank(m)


def test_left_kernel():
    rng = random.Random(4)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        lk = gf2.left_kernel_ints(rows, ncols)
        assert len(lk) == nrows - gf2.rank_ints(rows, ncols)
        for y in lk:
            acc = 0
            for i in range(nrows):
                if (y >> i) & 1:
                    acc ^= rows[i]
            assert acc == 0


def test_span_builder_matches_rank():
    rng = random.Random(5)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        sb = gf2.SpanBuilder()
        for r in rows:
            sb.add(r)
        assert sb.rank == gf2.rank_ints(rows, ncols)
        for r in rows:
            assert sb.reduce(r) == 0


def _combine(rows, x):
    """x M: the xor of the rows selected by the bits of x."""
    acc = 0
    for i, row in enumerate(rows):
        if (x >> i) & 1:
            acc ^= row
    return acc


def _transpose(rows, ncols):
    return [sum(((row >> c) & 1) << i for i, row in enumerate(rows)) for c in range(ncols)]


matrices = st.integers(1, 12).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(st.integers(0, (1 << ncols) - 1), max_size=12),
        st.integers(0, (1 << ncols) - 1),
    )
)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_quasi_inverse_matches_elimination(case):
    ncols, rows, b = case
    qi = gf2.SpanBuilder(ncols)
    for r in rows:
        qi.add(r)
    rank = gf2.rank_ints(rows, ncols)
    assert qi.rank == rank
    assert len(qi.kernel) == len(gf2.left_kernel_ints(rows, ncols)) == len(rows) - rank
    for y in qi.kernel:
        assert y and _combine(rows, y) == 0
    assert gf2.rank_ints(qi.kernel, max(len(rows), 1)) == len(qi.kernel)
    x = qi.preimage(b)
    assert (x is None) == (gf2.solve_ints(_transpose(rows, ncols), len(rows), b) is None)
    if x is not None:
        assert _combine(rows, x) == b
    assert (qi.reduce(b) == 0) == (x is not None)
