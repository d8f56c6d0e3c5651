"""Dense GF(2) linear algebra on bit-packed rows.

Rows are Python ints used as bitsets: bit j of a row is the entry in
column j, so the lowest column lives in the least significant bit and
row operations are single XORs.  Everything downstream (Milnor products,
resolutions, cobar ranks) reduces to these routines, so they stay free
of any per-entry Python objects.

The helpers `rref_ints`, `kernel_ints`, ... serve one-off systems.  The
hot path of the resolution engine is `SpanBuilder`: a semi-echelon row
space keyed by each row's highest set bit and never back-reduced.  When
it tracks which inputs each stored row combines, it is a quasi-inverse
of its input matrix: one elimination yields the rank, the kernel (input
combinations that vanish) and a preimage of any vector of the row
space by back-substitution.  Top-bit pivots make the kernel easy to
read: the n-th kernel vector found has its highest bit at the index of
the input that vanished, so distinct kernel vectors have distinct top
bits, and any subspace of their span has its pivots among those bits.
"""

from __future__ import annotations

from typing import Iterable, Optional


def rref_ints(rows: Iterable[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.

    Returns (reduced rows, pivot columns).  Pivots are chosen at the
    lowest available column index, so the output is the canonical RREF
    of the row space (zero rows pushed to the bottom).
    """
    work = list(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        mask = 1 << c
        src = None
        for i in range(r, len(work)):
            if work[i] & mask:
                src = i
                break
        if src is None:
            continue
        work[r], work[src] = work[src], work[r]
        for i in range(len(work)):
            if i != r and work[i] & mask:
                work[i] ^= work[r]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def rank_ints(rows: Iterable[int], ncols: int) -> int:
    return len(rref_ints(rows, ncols)[1])


def kernel_ints(rows: Iterable[int], ncols: int) -> list[int]:
    """Basis of {x : M x = 0}, one vector per free column."""
    red, pivots = rref_ints(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = 1 << free
        for r, p in enumerate(pivots):
            if red[r] & (1 << free):
                v |= 1 << p
        basis.append(v)
    return basis


def solve_ints(rows: list[int], ncols: int, b: int) -> Optional[int]:
    """Some x with M x = b, or None.  Free coordinates are set to 0."""
    aug = [rows[i] | (((b >> i) & 1) << ncols) for i in range(len(rows))]
    red, pivots = rref_ints(aug, ncols)
    x = 0
    for r, p in enumerate(pivots):
        if red[r] >> ncols:
            x |= 1 << p
    for r in range(len(pivots), len(red)):
        if red[r] >> ncols:
            return None
    return x


def left_kernel_ints(rows: list[int], ncols: int) -> list[int]:
    """Basis of row combinations that vanish: {y : y M = 0}.

    Augments with an identity block so the eliminated combinations are
    read off directly; avoids materializing the transpose.
    """
    n = len(rows)
    work = [rows[i] | (1 << (ncols + i)) for i in range(n)]
    red, _ = rref_ints(work, ncols)
    mask = (1 << ncols) - 1
    return [row >> ncols for row in red if not (row & mask)]


def reduce_against(reduced_rows: list[int], pivots: list[int], v: int) -> int:
    """Normal form of v modulo the RREF row space."""
    for r, p in enumerate(pivots):
        if v & (1 << p):
            v ^= reduced_rows[r]
    return v


class SpanBuilder:
    """Semi-echelon row space, optionally a quasi-inverse of its rows.

    Rows are fed one at a time with `add`.  Each stored row is keyed by
    its highest set bit (as `column + 1`, its `bit_length`, a small int
    that hashes fast), and no two stored rows share a key; rows are
    never back-reduced, so an insertion costs one pass over the pivots
    its row hits, from the top bit down.

    Given `ncols`, the width of the rows to be added, the builder also
    tracks which inputs each stored row combines: the n-th added row
    carries bit `ncols + n`, and eliminations carry those bits along.
    Pivots are read from the row part only, `(v & mask).bit_length()`.
    It is then a quasi-inverse of the matrix M of its inputs: `kernel`
    lists the input combinations that reduced to zero (a basis of
    {y : y M = 0}) and `preimage(b)` returns some x with x M = b.  A
    kernel vector found at the n-th input has highest bit n, because
    stored rows only combine earlier inputs.
    """

    def __init__(self, ncols: Optional[int] = None) -> None:
        self.rows: dict[int, int] = {}
        self.kernel: list[int] = []
        self._inputs = 0
        self._ncols = ncols
        self._mask = -1 if ncols is None else (1 << ncols) - 1

    def _eliminate(self, v: int) -> int:
        """Clear v's top row bit with stored rows while it is a pivot."""
        rows = self.rows
        mask = self._mask
        while True:
            row = rows.get((v & mask).bit_length())
            if row is None:
                return v
            v ^= row

    def reduce(self, v: int) -> int:
        """v minus a span element; zero exactly when v is in the span.

        Stops at the first top bit that is not a pivot, so a nonzero
        result is not a canonical normal form."""
        return self._eliminate(v) & self._mask

    def add(self, v: int) -> bool:
        """Insert v; returns True if it enlarged the span."""
        if self._ncols is not None:
            v |= 1 << (self._ncols + self._inputs)
        self._inputs += 1
        v = self._eliminate(v)
        row = v & self._mask
        if row:
            self.rows[row.bit_length()] = v
            return True
        if v:
            self.kernel.append(v >> self._ncols)
        return False

    def preimage(self, b: int) -> Optional[int]:
        """Some input combination x with x M = b, or None (needs ncols)."""
        x = self._eliminate(b)
        return None if x & self._mask else x >> self._ncols

    @property
    def rank(self) -> int:
        return len(self.rows)
