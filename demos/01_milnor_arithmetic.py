"""Milnor-basis arithmetic in the generalized Steenrod algebra.

Walks through basis monomials Q^E P^R, bidegrees, the matrix product
formula, the commutator rule, and the two-basis presentations.
"""

from isoadams import milnor
from isoadams.milnor import P, Q, parse_element


def one_slot_matrices(r1, s1):
    """The matrices X of the product formula for P(r1) * P(s1), as
    (entries, T(X), b(X) mod 2).  x_11 = k fixes x_10 = r1 - 2k (row
    condition) and x_01 = s1 - k (column condition); the entries are the
    nonzero (i, j, x_ij).  b(X) = t_1! / (x_01! x_10!) is odd iff x_01
    and x_10 share no binary digit (Lucas)."""
    out = []
    for k in range(min(r1 // 2, s1) + 1):
        x01, x10 = s1 - k, r1 - 2 * k
        entries = tuple(e for e in ((0, 1, x01), (1, 0, x10), (1, 1, k)) if e[2])
        out.append((entries, milnor.trim((x01 + x10, k)), int(not x01 & x10)))
    return sorted(out)


def main():
    print("== basis monomials and bidegrees ==")
    for text in ["Q0", "Q2", "P(1)", "P(0,1)", "Q0 Q2 P(1,0,3)"]:
        e = parse_element(text)
        print(f"  {text:18s} bidegree {e.degree()}")

    print("\n== products ==")
    print("  Q0 * Q0      =", Q(0) * Q(0), "   (exterior square)")
    print("  P(1) * P(1)  =", P(1) * P(1))
    print("  P(1) * P(2)  =", P(1) * P(2))
    print("  P(2) * P(1)  =", P(2) * P(1))

    print("\n== the commutator rule ==")
    print("  Q0 * P(1)    =", Q(0) * P(1), "  (already a basis monomial)")
    print("  P(1) * Q0    =", P(1) * Q(0), "  (the shuffle produces Q1)")
    lhs = Q(0) * P(1) + P(1) * Q(0)
    print("  [Q0, P(1)]   =", lhs)

    print("\n== the matrix product formula, explicitly ==")
    for r1, s1 in [(1, 1), (2, 1)]:
        print(f"  matrices with row condition {(r1,)}, column condition {(s1,)}:")
        for entries, diagonal, b in one_slot_matrices(r1, s1):
            print(f"    entries {entries}  T(X)={diagonal}  b(X) mod 2 = {b}")

    print("\n== the product against the duality pairing oracle ==")
    a, b = parse_element("Q1 P(2)"), parse_element("Q0 P(1,1)")
    print("  a =", a, "  b =", b)
    print("  multiply:            ", milnor.multiply(a, b))
    print("  multiply_via_duality:", milnor.multiply_via_duality(a, b))

    print("\n== the two presentations ==")
    e = parse_element("Q0 Q1 P(2)")
    pr = milnor.qepr_to_prqe(e)
    print("  Q^E P^R form:", e)
    print("  P^R Q^E form:", pr)
    print("  round-trip:  ", milnor.prqe_to_qepr(pr))


if __name__ == "__main__":
    main()
