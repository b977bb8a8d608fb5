"""End-to-end coverage for q = p^f with f > 1 (here q = 4), where the
coefficient ring W(F_4) has two Teichmuller digits and the enumeration
kernels go through genuine subfield embeddings."""

from dl_oracles import base_points, dl_points_by_enumeration, line_fibers
from formal_oracles import verify_module_axioms

from ltdl.depth0 import (
    blowup_chart,
    build_P,
    deformation_factors,
    special_fiber_components,
    un_special_fiber,
)
from ltdl.dl_variety import (
    base_points_moebius,
    dl_equation,
    dl_points,
    line_census,
)
from ltdl.ffield import gaussian_binomial
from ltdl.formal_modules import lubin_tate_module


def test_q4_base_module_axioms():
    m = lubin_tate_module(4, 1, N=6)
    report = verify_module_axioms(m)
    assert all(c["status"] == "pass" for c in report), report
    red = m.scalar_series(("int", 2)).reduce_mod_p()
    assert red == red.ring.monomial((4,), red.ring.domain.one())


def test_q4_depth0_pipeline():
    m = lubin_tate_module(4, 1, N=6)
    P = build_P(m)
    assert P.lowest_degree() == 3  # q - 1
    census = special_fiber_components(m, deformation_factors(m))
    assert census["components"] == 1 and census["multiplicity"] == 3
    assert census["all_scalar_checks_pass"]
    chart = blowup_chart(m, deformation_factors(m))
    assert chart.valuation == 3
    assert un_special_fiber(m, chart)["chart_equation"] == dl_equation(4, 1)


def test_q4_dl_counts():
    # x^3 = 1 has exactly the three cube roots of unity in F_4
    assert len(dl_points_by_enumeration(4, 1, 1)) == 3
    assert len(dl_points_by_enumeration(4, 2, 1)) == 0
    assert base_points(4, 2, 1) == base_points_moebius(4, 2, 1) == 0


def test_q4_fiber_structure_over_f16():
    # Moebius oracle: |P^1(F_16)| = 17 rational-under-F_4 points minus the
    # 5 F_4-rational ones leaves 12 base points; fibers have size
    # gcd(15, 15) = 15, and 12 * 15 = 180 points in total.
    assert (4 ** 4 - 1) // (4 ** 2 - 1) - gaussian_binomial(2, 1, 4) == 12
    lines = line_census(4, 2, 2)[2]
    fibers = line_fibers(4, 2, 2, dl_points(4, 2, 2, lines))
    assert sum(len(points) for points in fibers.values()) == 180
    assert len(fibers) == 12 and set(fibers) == set(lines)
    assert {len(points) for points in fibers.values()} == {15}
    assert base_points_moebius(4, 2, 2) == 12

