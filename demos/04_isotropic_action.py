"""The isotropic coefficient module and its solved algebra action.

The coefficients form an exterior algebra on classes r_i with
Q_j r_i = delta_ij; the generator tables only pin the Milnor operations
and the squares Sq^{2^j}, so the remaining structure constants are
solved from linear constraints, weight by weight.
"""

import random

from isoadams import isotropic as iso
from isoadams import milnor


def show(x):
    if not x:
        return "0"
    return " + ".join("".join(f"r{i}" for i in I) or "1" for I in sorted(x))


def main():
    print("== generators and bidegrees ==")
    for i in range(5):
        print(f"  r{i}: bidegree {iso.r_degree(i)}")

    print("\n== every bidegree holds at most one monomial ==")
    for I in [(0,), (1,), (0, 1), (0, 2), (1, 2)]:
        d = iso.ext_degree(I)
        print(f"  {''.join(f'r{i}' for i in I):8s} at {d}; decoded back: {iso.ext_from_degree(d)}")

    print("\n== solving the action table ==")
    table = iso.solve_action_table(n_max=4, w_max=16)
    print(f"  unique solution: {table.report.unique}")
    print(f"  solved entries (P^R r_i nonzero): {len(table.entries)}")
    some = sorted(table.entries)[:8]
    for r, i in some:
        target = table.act_p(r, (i,))
        print(f"    P{r} r{i} = {show(target)}")

    print("\n== the square actions, from the table ==")
    for j in range(0, 4):
        row = []
        for i in range(4):
            row.append(f"Sq^{2**j} r{i} = {show(iso.sq_action(j, (i,), table))}")
        print("  " + "; ".join(row))

    print("\n== Cartan expansion on a product ==")
    x = frozenset([(0, 1)])
    print(f"  Sq^2 (r0 r1) = {show(iso.sq_action(1, x, table))}")
    print(f"  Q0  (r0 r1) = {show(iso.q_action(0, x))}")

    print("\n== associativity audit on random triples ==")
    rng = random.Random(1)
    window = iso.IsotropicWindow(-40)
    monos = [m for p in range(0, 13) for q in range(p + 1) for m in milnor.basis(p, q)]
    basis = window.basis()
    for _ in range(200):
        a, b = rng.choice(monos), rng.choice(monos)
        x = rng.choice(basis)
        lhs = set()
        for m in milnor.multiply_mono(a, b):
            lhs ^= table.act_mono(m, x)
        rhs = set()
        for J in table.act_mono(b, x):
            rhs ^= table.act_mono(a, J)
        assert frozenset(lhs) == frozenset(rhs)
    print("  (ab)x = a(bx) on 200 sampled triples: ok")

    print("\n== Baer's criterion at small sizes ==")
    for n in (0, 1, 2):
        rep = iso.baer_injectivity_check(n, ideal_samples=1, seed=0)
        print(f"  n_max={n}: {rep.ideals_checked} ideals, {rep.morphisms_checked} morphisms, failures: {len(rep.failures)}")


if __name__ == "__main__":
    main()
