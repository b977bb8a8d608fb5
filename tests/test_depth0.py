from itertools import product

import pytest
from gl_oracles import vec_mat

from ltdl import depth0
from ltdl.depth0 import (
    blowup_chart,
    build_P,
    build_P_a,
    deformation_factors,
    deformation_ring,
    gl_linear_shadow_check,
    index_vectors,
    iterated_chart,
    projective_classes,
    scalar_compat_check,
    special_fiber_components,
    stratum_membership,
    un_special_fiber,
)
from ltdl.dl_variety import dl_equation
from ltdl.errors import ParameterError, VerificationError
from ltdl.ffield import field_for_order
from ltdl.formal_modules import lubin_tate_module, universal_module
from ltdl.gl_characters import GLGroup
from ltdl.linalg import det
from ltdl.series import TruncatedSeries, product_over


def test_P_a_basis_vector_is_coordinate():
    m = lubin_tate_module(2, 2)
    ring = deformation_ring(m)
    assert build_P_a(m, (1, 0), ring) == ring.var("X1")
    assert build_P_a(m, (0, 1), ring) == ring.var("X2")


def test_P_a_linear_part():
    m = lubin_tate_module(2, 2)
    P = build_P_a(m, (1, 1))
    ring = P.ring
    assert P.homogeneous_part(1) == ring.var("X1") + ring.var("X2")
    red = P.reduce_mod_p()
    f = red.ring.domain
    assert red.homogeneous_part(1) == red.ring.var("X1") + red.ring.var("X2")


def test_P_lowest_degree_and_special_fiber_factorization():
    m = lubin_tate_module(2, 2)
    P = build_P(m)
    assert P.lowest_degree() == 3
    red = P.reduce_mod_p()
    low = red.homogeneous_part(3)
    # oracle: X1 X2 (X1 + X2) = X1^2 X2 + X1 X2^2 over F_2
    ring = low.ring
    one = ring.domain.one()
    assert low == ring.monomial((2, 1), one) + ring.monomial((1, 2), one)


def test_P_wilson_product_31():
    # (q, n) = (3, 1): P = [1](X) [2~](X); lowest coefficient is the
    # Teichmuller Wilson product, i.e. -1.
    m = lubin_tate_module(3, 1)
    P = build_P(m)
    assert P.lowest_degree() == 2
    assert P.coefficient((2,)) == m.F.ring.domain.from_int(-1)


def test_P_21_single_factor():
    m = lubin_tate_module(2, 1)
    P = build_P(m)
    assert P == deformation_ring(m).var("X1")


def test_scalar_compat():
    m = lubin_tate_module(3, 2)
    assert scalar_compat_check(m, (1, 0), 1)
    assert scalar_compat_check(m, (1, 0), 2)
    assert scalar_compat_check(m, (1, 2), 2)
    m2 = lubin_tate_module(2, 2)
    lhs = build_P_a(m2, (1, 1))
    rhs = build_P_a(m2, (1, 0))
    assert lhs != rhs  # distinct hyperplanes


def test_special_fiber_components_census():
    expected = {(2, 2): (3, 1), (3, 2): (4, 2), (2, 3): (7, 1)}
    for (q, n), (comps, mult) in expected.items():
        m = lubin_tate_module(q, n)
        rep = special_fiber_components(m)
        assert rep["components"] == comps == rep["expected_components"]
        assert rep["multiplicity"] == mult
        assert rep["all_scalar_checks_pass"]
        assert all(c["size"] == mult for c in rep["classes"])


def test_special_fiber_factorization_by_classes():
    # reduce_mod_p(P) equals the product over projective classes of the class
    # products, with exactly q - 1 factors per class.
    m = lubin_tate_module(3, 2)
    ring = deformation_ring(m)
    P_red = build_P(m).reduce_mod_p()
    classes = projective_classes(m.field, 2)
    assert all(len(v) == 2 for v in classes.values())  # q - 1 = 2
    prod = None
    for rep in sorted(classes):
        for a in sorted(classes[rep]):
            factor = build_P_a(m, a, ring).reduce_mod_p()
            prod = factor if prod is None else prod * factor
    assert prod == P_red


def test_stratum_membership():
    m = lubin_tate_module(2, 2)
    assert stratum_membership(m, (1, 0), 1) is True
    assert stratum_membership(m, (1, 1), 1) is False
    assert stratum_membership(m, (0, 1), 1) is False


def test_blowup_chart_22():
    m = lubin_tate_module(2, 2)
    chart = blowup_chart(m)
    assert chart.valuation == 3
    # linear parts: {V1}, {1}, {V1 + 1}
    w1 = m.F.ring.domain.one()
    assert chart.linear_parts[(1, 0)] == {"V1": w1}
    assert chart.linear_parts[(0, 1)] == {"const": w1}
    assert chart.linear_parts[(1, 1)] == {"V1": w1, "const": w1}


def test_blowup_chart_32():
    m = lubin_tate_module(3, 2)
    chart = blowup_chart(m)
    assert chart.valuation == 8
    assert len(chart.linear_parts) == 8


def test_blowup_chart_23_and_iterated():
    m = lubin_tate_module(2, 3)
    chart = blowup_chart(m)
    assert chart.valuation == 7
    assert len(chart.linear_parts) == 7
    assert iterated_chart(m, [3, 2]) == [7, 3]


def test_both_chart_steps_hold_their_factors_to_the_affine_law(monkeypatch):
    # with [1~] + 1 read for every Teichmuller coefficient of the law
    # sum [a_i~] V_i + [a_k~], the first and the iterated step both raise
    m = lubin_tate_module(2, 3)
    factors = deformation_factors(m)
    P = build_P(m, factors=factors)
    chart = blowup_chart(m, factors=factors, P=P)
    honest, dom = m.scalar_coefficient, m.F.ring.domain
    monkeypatch.setattr(m, "scalar_coefficient", lambda key: dom.add(honest(key), dom.one()))
    with pytest.raises(VerificationError, match=r"a=\(0, 0, 1\) is not exactly affine-linear"):
        blowup_chart(m, factors=factors, P=P)
    with pytest.raises(VerificationError,
                       match=r"a=\(0, 1\) is not exactly affine-linear mod V2, Xn"):
        iterated_chart(m, [3, 2], chart=chart)
    # a law off by one for the blocks of size 1 only: the depth-1 step of
    # 3,2,1 passes and the depth-2 step raises
    monkeypatch.setattr(m, "scalar_coefficient", honest)
    honest_law = depth0._affine_law

    def law_off_on_lines(module, ring, a, affine):
        expect, form = honest_law(module, ring, a, affine)
        return (expect + ring.one() if len(a) == 1 else expect), form

    monkeypatch.setattr(depth0, "_affine_law", law_off_on_lines)
    assert iterated_chart(m, [3, 2], chart=chart) == [7, 3]
    with pytest.raises(VerificationError,
                       match=r"a=\(1,\) is not exactly affine-linear mod U1_1, Xn"):
        iterated_chart(m, [3, 2, 1], chart=chart)


def test_every_chart_step_guards_the_degree_coupling(monkeypatch):
    # a substitution that drops the pivot from one term of a depth-1 image
    # (the block V1, V2 blown up to U1_1 * V2, V2) breaks the coupling
    # U1_1-degree <= V2-degree, which the guard catches before the order check
    m = lubin_tate_module(2, 3)
    chart = blowup_chart(m)
    honest = TruncatedSeries.substitute

    def drop_pivot(self, assignments, target_ring=None):
        image = honest(self, assignments, target_ring)
        if target_ring is None or target_ring.vars[0] != "U1_1":
            return image
        lifted = [e for e in image.terms if e[0] and e[1]]
        if not lifted:
            return image
        terms = dict(image.terms)
        e = min(lifted)
        terms[(e[0], 0) + e[2:]] = terms.pop(e)
        return TruncatedSeries(target_ring, terms)

    monkeypatch.setattr(TruncatedSeries, "substitute", drop_pivot)
    with pytest.raises(VerificationError, match=r"lost the degree coupling at a=\(1, 0\)"):
        iterated_chart(m, [3, 2], chart=chart)


def test_iterated_chart_32():
    m = lubin_tate_module(3, 2)
    assert iterated_chart(m, [2, 1]) == [8, 2]
    # a depth sequence of just (n) reproduces the chart valuation
    assert iterated_chart(m, [2]) == [8]
    with pytest.raises(ParameterError):
        iterated_chart(m, [2, 2])


def test_un_equation_matches_dl():
    for (q, n) in [(2, 2), (3, 2), (2, 3)]:
        m = lubin_tate_module(q, n)
        rep = un_special_fiber(m)
        assert rep["chart_equation"] == dl_equation(q, n).equation, (q, n)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_chart_image_of_P_is_the_product_of_the_substituted_factors(q, n):
    # blowup_chart takes the chart image of build_P's P as its P_sub
    m = lubin_tate_module(q, n)
    factors = depth0.deformation_factors(m)
    coords = depth0.x_vars(n)
    ring = depth0.chart_ring(m, deformation_ring(m), coords,
                             tuple(f"V{i}" for i in range(1, n)) + (depth0.X_PIVOT,))
    sub = depth0.chart_substitution(ring, coords, n)
    subbed = product_over([P_a.substitute(sub, ring) for P_a in factors.values()])
    assert build_P(m, factors).substitute(sub, ring) == subbed
    chart = blowup_chart(m, factors=factors)
    assert chart.residual == subbed.factor_out(depth0.X_PIVOT, q ** n - 1)


def test_chart_with_symbolic_parameters():
    # the universal lift keeps T symbolic; multiplicity is unchanged
    u = universal_module(2, 2, N=5, D=8)
    chart = blowup_chart(u)
    assert chart.valuation == 3


def test_gl_linear_shadow():
    m = lubin_tate_module(2, 2)
    group = GLGroup(2, 2)
    assert group.order == 6
    assert gl_linear_shadow_check(m, group.generators)
    m32 = lubin_tate_module(3, 2)
    group32 = GLGroup(3, 2)
    assert group32.order == 48
    assert gl_linear_shadow_check(m32, group32.generators)


def shadow_full_group(module, matrices):
    """Oracle: the shadow check looped over every matrix, no generators."""
    n, field = module.n, module.field
    lowest = depth0.build_P(module).reduce_mod_p().homogeneous_part(module.q ** n - 1)
    ring = lowest.ring
    forms = sorted(index_vectors(field, n))
    ok = True
    for g in matrices:
        if sorted(vec_mat(field, a, g) for a in forms) != forms:
            ok = False
        assignments = {}
        for j in range(1, n + 1):
            s = ring.zero()
            for i in range(1, n + 1):
                if g[i - 1][j - 1]:
                    s = s + ring.var(f"X{i}", g[i - 1][j - 1])
            assignments[f"X{j}"] = s
        if lowest.substitute(assignments, ring) != lowest:
            ok = False
    return ok


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3)])
def test_gl_linear_shadow_generators_agree_with_full_group(q, n, monkeypatch):
    m = lubin_tate_module(q, n)
    group = GLGroup(q, n)
    gens, mats = group.generators, group.elements
    assert gl_linear_shadow_check(m, gens) is shadow_full_group(m, mats) is True
    # a lowest part that is not GL-invariant: add X1^(q^n - 1), which the
    # product of all linear forms lacks
    honest = depth0.build_P
    monkeypatch.setattr(depth0, "build_P", lambda module: (
        honest(module) + honest(module).ring.var("X1") ** (q ** n - 1)))
    assert gl_linear_shadow_check(m, gens) is shadow_full_group(m, mats) is False


def invertible_matrices(field, n):
    """Oracle: all q^(n^2) matrices over F_q, filtered by determinant."""
    mats = (tuple(entries[i * n:(i + 1) * n] for i in range(n))
            for entries in product(range(field.q), repeat=n * n))
    return [A for A in mats if det(field, A)]


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2), (5, 2), (7, 2),
                                 (8, 1), (2, 4)])
def test_generators_close_to_the_enumerated_group(q, n):
    group = GLGroup(q, n)
    assert len(group.generators) <= 3
    assert group.elements == sorted(invertible_matrices(field_for_order(q), n))


def test_reduction_commutes_with_formal_sum():
    # naturality: reducing mod p then formally adding over F_q agrees with
    # formally adding over W and reducing
    m = lubin_tate_module(3, 2)
    ring = deformation_ring(m)
    a = build_P_a(m, (1, 2), ring)
    b = build_P_a(m, (2, 1), ring)
    total = m.formal_sum([a, b])
    red_F = m.F.reduce_mod_p()
    direct = red_F.substitute({"X": a.reduce_mod_p(), "Y": b.reduce_mod_p()},
                              a.reduce_mod_p().ring)
    assert total.reduce_mod_p() == direct


def test_build_P_refuses_degenerate_degree():
    m = lubin_tate_module(2, 2, D=5)
    # D = 5 > q^n - 1 = 3 works; lowered to q^n - 1, P would truncate to 0
    build_P(m)
    m.D = 3
    with pytest.raises(ParameterError, match="P would truncate to 0"):
        build_P(m)
