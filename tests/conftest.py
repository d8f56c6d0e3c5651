import pytest

from isoadams import homological as H, isotropic as iso


@pytest.fixture(scope="session")
def hom_route_chart():
    """The Hom route to the isotropic chart, as a cross-check of
    `isotropic_chart`: resolve F2 over A0 and take the cohomology of Hom
    into the window module, flagging the cells whose Hom terms need a
    bidegree the window does not hold in full.  One resolution per
    (smax, pmax) serves every window."""
    resolutions = {}

    def build(window, smax, pmax):
        res = resolutions.get((smax, pmax))
        if res is None:
            res = resolutions[(smax, pmax)] = H.resolve(H.algebra_for("A0", pmax + 2), smax=smax, pmax=pmax)
        table = iso.solve_action_table(n_max=window.n_max, w_max=pmax // 2)
        coeffs = iso.isotropic_coefficients(table, window)
        return H.ext_chart_coefficients(res, coeffs, covers=window.covers)

    return build
