"""The Lambda algebra (`lambda_algebra`) as an oracle for the classical
chart: its own consistency, and its agreement with the resolution and
the cobar complex."""

import ast
from pathlib import Path

import pytest

import lambda_algebra as L
from isoadams import cobar, homological as H

SMAX, TMAX = 12, 22


def _classical_dims(smax, tmax):
    """{(s, t): dim} of the nonzero cells of the resolve chart."""
    res = H.resolve(H.algebra_for("classical", tmax), smax=smax, pmax=tmax)
    return {(s, deg[0]): d for (s, deg), d in H.ext_chart_field(res).cells.items() if d}


@pytest.fixture(scope="module")
def lambda_dims():
    return L.ext_dims(SMAX, TMAX)


def test_oracle_imports_nothing_from_the_engine():
    tree = ast.parse(Path(L.__file__).read_text())
    imported = {n.name for node in ast.walk(tree) if isinstance(node, ast.Import) for n in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.startswith("isoadams") for name in imported), imported


def test_admissible_basis_and_relations():
    assert L.basis(1, 4) == ((3,),)
    assert L.basis(2, 4) == ((1, 1), (2, 0))
    assert all(2 * w[k] >= w[k + 1] for s in range(5) for w in L.basis(s, 12) for k in range(s - 1))
    # lambda_0 lambda_1 = 0 (n = 0); lambda_0 lambda_2 = lambda_1 lambda_1 (n = 1)
    assert L.left_multiply(0, (1,)) == frozenset()
    assert L.left_multiply(0, (2,)) == frozenset([(1, 1)])
    # d lambda_0 = d lambda_1 = 0; d lambda_2 = lambda_1 lambda_0
    assert L.differential((0,)) == L.differential((1,)) == frozenset()
    assert L.differential((2,)) == frozenset([(1, 0)])


def test_differential_squares_to_zero():
    checked = 0
    for s in range(1, 4):
        for stem in range(14):
            for w in L.basis(s, stem + s):
                dd: set = set()
                for v in L.differential(w):
                    dd ^= L.differential(v)
                assert not dd, w
                checked += 1
    assert checked == 299  # the admissible words with s <= 3, stem <= 13


def test_oracle_equals_resolve_chart(lambda_dims):
    # every cell with s <= 12 and t <= 22, the zero cells included
    assert lambda_dims == _classical_dims(SMAX, TMAX)
    assert sum(1 for s, _ in lambda_dims if s >= 1) == 52
    assert lambda_dims[(1, 8)] == 1 and lambda_dims[(3, 21)] == 1  # h3, h2^3 = h1^2 h3


def test_oracle_equals_cobar_chart(lambda_dims):
    chart = cobar.cobar_ext(cobar.dual_coalgebra("classical"), smax=SMAX, pmax=12)
    assert {c: d for c, d in lambda_dims.items() if c[1] <= 12} == {
        (s, deg[0]): d for (s, deg), d in chart.cells.items() if d
    }


@pytest.mark.parametrize("flip", [(2, 2), (1, 4), (4, 4), (2, 6)])
def test_oracle_sees_a_broken_square_table(flip, monkeypatch, lambda_dims):
    # one wrong bit in one packed Sq^a table of the classical algebra
    # changes the resolve chart, and the oracle disagrees
    original = H.ClassicalAlgebra.sq_rows

    def broken(self, a, d):
        rows = original(self, a, d)
        return (rows[0] ^ 1,) + rows[1:] if (a, d) == flip else rows

    monkeypatch.setattr(H.ClassicalAlgebra, "sq_rows", broken)
    assert _classical_dims(SMAX, TMAX) != lambda_dims
