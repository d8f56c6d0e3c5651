import random

from hypothesis import given, settings, strategies as st

from isoadams import gf2

from conftest import transpose


def ints(rows):
    """Coordinate lists to bit-packed rows: entry j is bit j."""
    return [sum(c << j for j, c in enumerate(row)) for row in rows]


def _apply(rows, x):
    """M x: bit i is the parity of row i against x."""
    return sum(((row & x).bit_count() & 1) << i for i, row in enumerate(rows))


def test_rref_duplicate_rows():
    red, pivots = gf2.rref_ints(ints([[1, 1], [1, 1]]), 2)
    assert red == ints([[1, 1], [0, 0]])
    assert pivots == [0]


def test_rref_zero_matrix():
    red, pivots = gf2.rref_ints(ints([[0, 0]]), 2)
    assert red == ints([[0, 0]])
    assert pivots == []


def test_rref_full_rank_2x2():
    red, pivots = gf2.rref_ints(ints([[1, 0], [1, 1]]), 2)
    assert red == ints([[1, 0], [0, 1]])
    assert pivots == [0, 1]


IDENTITY_3 = [1 << i for i in range(3)]


def test_kernel_identity():
    assert gf2.kernel_ints(IDENTITY_3, 3) == []


def test_kernel_zero_2x3():
    ker = gf2.kernel_ints([0, 0], 3)
    assert len(ker) == 3
    assert gf2.rank_ints(ker, 3) == 3


def test_kernel_parity_check():
    assert gf2.kernel_ints(ints([[1, 1]]), 2) == ints([[1, 1]])


def test_solve_identity():
    b = ints([[1, 0, 1]])[0]
    assert gf2.solve_ints(IDENTITY_3, 3, b) == b


def test_solve_underdetermined():
    x = gf2.solve_ints(ints([[1, 1]]), 2, 0)
    assert x is not None and x in ints([[0, 0], [1, 1]])


def test_solve_no_solution():
    assert gf2.solve_ints(ints([[0]]), 1, 1) is None


def test_rank_examples():
    assert gf2.rank_ints([1 << i for i in range(4)], 4) == 4
    assert gf2.rank_ints([0] * 3, 5) == 0
    assert gf2.rank_ints(ints([[1, 1], [1, 1]]), 2) == 1


def random_rows(rng, nrows, ncols):
    return [rng.getrandbits(ncols) for _ in range(nrows)]


def test_rank_nullity_and_kernel_membership():
    rng = random.Random(1)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        rows = random_rows(rng, nrows, ncols)
        _, pivots = gf2.rref_ints(rows, ncols)
        ker = gf2.kernel_ints(rows, ncols)
        assert gf2.rank_ints(rows, ncols) == len(pivots) == ncols - len(ker)
        # every kernel combination maps to zero
        for _ in range(5):
            x = 0
            for v in ker:
                if rng.getrandbits(1):
                    x ^= v
            assert _apply(rows, x) == 0


def test_rref_idempotent():
    rng = random.Random(2)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        red, _ = gf2.rref_ints(random_rows(rng, nrows, ncols), ncols)
        red2, _ = gf2.rref_ints(red, ncols)
        assert red2 == red


def test_solve_contract():
    rng = random.Random(3)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        rows = random_rows(rng, nrows, ncols)
        b = rng.getrandbits(nrows)
        x = gf2.solve_ints(rows, ncols, b)
        aug = [rows[i] | (((b >> i) & 1) << ncols) for i in range(nrows)]
        if x is None:
            assert gf2.rank_ints(aug, ncols + 1) > gf2.rank_ints(rows, ncols)
        else:
            assert _apply(rows, x) == b
            assert gf2.rank_ints(aug, ncols + 1) == gf2.rank_ints(rows, ncols)


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
        sb = gf2.SpanBuilder(ncols)
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
    assert (x is None) == (gf2.solve_ints(transpose(rows, ncols), len(rows), b) is None)
    if x is not None:
        assert _combine(rows, x) == b
    assert (qi.reduce(b) == 0) == (x is not None)
