"""The headline identification at desk scale: the isotropic Adams
E2 chart equals the classical Adams E2 chart in doubled degree.

The isotropic chart is Ext over the generalized algebra with the solved
exterior coefficients; it is computed here out to classical stems <= 14
and compared cell by cell against the classical chart under
(s, t) -> (s, 2t, t), along with the vanishing-region check.
"""

from isoadams import charts, homological as H, isotropic as iso


def main():
    smax, tmax_cl = 8, 22

    print("== solve the coefficient action ==")
    table = iso.solve_action_table(n_max=4, w_max=tmax_cl)
    print(f"  unique: {table.report.unique}; entries: {len(table.entries)}")

    print("\n== resolve the dual window module over A0^op ==")
    # the window `isoadams isotropic --tmax 44` uses: r_0..r_4, p >= -46
    window = iso.IsotropicWindow(-(2 * tmax_cl + 2))
    ichart = iso.isotropic_chart(window, smax, 2 * tmax_cl)
    print(f"  nonzero cells: {len(ichart.nonzero_cells())}")
    off_line = [c for c, d in ichart.nonzero_cells() if c[1][0] != 2 * c[1][1]]
    print(f"  support off the t = 2u line: {off_line or 'none'}")

    print("\n== the classical chart and the doubled comparison ==")
    cchart = H.ext_chart_field(H.resolve(H.algebra_for("classical", tmax_cl), smax=smax, pmax=tmax_cl))
    rep = charts.compare_doubling(cchart, ichart)
    for line in rep.lines():
        print(" ", line)

    print("\n== vanishing regions in homotopy coordinates ==")
    van = charts.vanishing_check(ichart)
    print(f"  violations: {van.violations or 'none'} over {van.checked} cells")

    print("\n== the isotropic chart, classical coordinates ==")
    folded = charts.ExtChart("isotropic-folded", 1, smax, tmax_cl)
    for (s, deg), dim in ichart.nonzero_cells():
        folded.cells[(s, (deg[1],))] = dim
    print(charts.to_ascii(folded))


if __name__ == "__main__":
    main()
