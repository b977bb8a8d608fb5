import pytest

from ltdl.dl_variety import (
    Ambient,
    action_invariance_check,
    act,
    base_points,
    dl_equation,
    dl_points,
    fiber_structure_check,
    orbit_partition_check,
    twist_field_degree,
    twisted_count,
    twisted_sum_check,
)
from ltdl.errors import BudgetError, ParameterError
from ltdl.ffield import ff_make
from ltdl.linalg import identity, invertible_matrices


# -- independent F_4 oracle (hand-coded tables, no library code) ---------------

F4_MUL = {
    (0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0,
    (1, 0): 0, (1, 1): 1, (1, 2): 2, (1, 3): 3,
    (2, 0): 0, (2, 1): 2, (2, 2): 3, (2, 3): 1,   # w * w = w + 1, w * (w+1) = 1
    (3, 0): 0, (3, 1): 3, (3, 2): 1, (3, 3): 2,
}
F4_ADD = {(a, b): a ^ b for a in range(4) for b in range(4)}


def oracle_dl_22_over_f4():
    """Brute-force solutions of x y (x + y) = 1 over F_4 with hand tables."""
    sols = []
    for x in range(4):
        for y in range(4):
            s = F4_ADD[(x, y)]
            val = F4_MUL[(F4_MUL[(x, y)], s)]
            if val == 1:
                sols.append((x, y))
    return sols


def test_dl_equation_22():
    inst = dl_equation(2, 2)
    ring = inst.ring
    one = ring.domain.one()
    # X1 X2 (X1 + X2) - 1 = X1^2 X2 + X1 X2^2 - 1
    expect = (ring.monomial((2, 1), one) + ring.monomial((1, 2), one)
              - ring.one())
    assert inst.equation == expect
    assert len(inst.forms) == 3


def test_dl_equation_degenerate_n1():
    inst = dl_equation(2, 1)
    ring = inst.ring
    assert inst.equation == ring.var("X1") - ring.one()


def test_dl_equation_32_degree():
    inst = dl_equation(3, 2)
    assert len(inst.forms) == 8
    assert max(sum(e) for e in inst.equation.terms) == 8


def test_dl_points_22():
    # Oracle: independent hand-table enumeration gives 6 points over F_4.
    oracle = oracle_dl_22_over_f4()
    assert len(oracle) == 6
    assert dl_points(2, 2, 1) == 0
    assert dl_points(2, 2, 2) == 6
    pts = dl_points(2, 2, 2, mode="list")
    assert len(pts) == 6 and pts == sorted(pts)


def test_dl_points_degenerate():
    assert dl_points(2, 1, 1) == 1
    assert dl_points(2, 1, 2) == 1  # x = 1 is the only solution of x = 1


def test_base_points_both_methods():
    # (2,3,2) is honestly 0: three distinct nonzero coordinates in F_4 always
    # sum to zero, so every point of P^2(F_4) lies on a rational plane.
    cases = {(2, 2, 1): 0, (2, 2, 2): 2, (3, 2, 2): 6, (2, 1, 3): 1,
             (2, 3, 2): 0, (2, 3, 3): 24}
    for (q, n, m), expected in cases.items():
        enum = base_points(q, n, m, method="enumerate")
        moeb = base_points(q, n, m, method="moebius")
        assert enum == moeb == expected, (q, n, m)


def test_base_points_moebius_matches_enumeration_more():
    for (q, n, m) in [(3, 2, 1), (2, 3, 1), (2, 2, 3), (3, 2, 2)]:
        assert base_points(q, n, m, "enumerate") == base_points(q, n, m, "moebius")


def test_act_identity_and_swap():
    g_id = identity(2)
    x = (2, 3)  # (w, w^2) in F_4 canonical ints
    amb = Ambient(2, 2, 2)
    assert act(amb, x, g=g_id) == x
    swap = ((0, 1), (1, 0))
    assert act(amb, x, g=swap) == (3, 2)
    assert amb.on_variety(x)
    assert amb.on_variety((3, 2))


def test_act_zeta_scaling():
    amb = Ambient(2, 2, 2)
    mus = amb.mu_elements()
    assert len(mus) == 3  # mu_3 lives in F_4
    for x in [p for p in amb.points() if amb.on_variety(p)]:
        for z in mus:
            assert amb.on_variety(act(amb, x, zeta=z))
    with pytest.raises(ParameterError):
        act(amb, (1, 1), zeta=0)


def test_action_invariance_full():
    field = ff_make(2, 1)
    mats = invertible_matrices(field, 2)
    checked = action_invariance_check(2, 2, 2, mats)
    assert checked == 6 * 6 * 3  # points x matrices x available zetas


def test_fiber_structure():
    rep = fiber_structure_check(2, 2, 2)
    assert rep["count"] == 6
    assert rep["base_points_hit"] == 2
    assert rep["fiber_size"] == 3
    vac = fiber_structure_check(2, 2, 1)
    assert vac["vacuous"] and vac["count"] == 0
    deg = fiber_structure_check(2, 1, 2)
    assert deg["fiber_size"] == 1


def test_twisted_counts():
    # untwisted: g = 1, zeta = 1, frobenius power m with M = m recovers the
    # plain rational count
    ident = identity(2)
    assert twisted_count(2, 2, ident, 1, 2, frob_power=2) == dl_points(2, 2, 2)
    # no nonzero vector is fixed by a nontrivial scaling
    amb = Ambient(2, 2, 2)
    z = [m for m in amb.mu_elements() if m != 1][0]
    fixed = [x for x in amb.points() if amb.on_variety(x)
             and act(amb, x, zeta=z) == x]
    assert fixed == []


def test_twisted_sum_identity():
    for m in (1, 2):
        rep = twisted_sum_check(2, 2, m)
        assert rep["matches"], rep
    assert twist_field_degree(2, 2, 1) == 2
    assert twist_field_degree(2, 2, 2) == 6
    r1 = twisted_sum_check(2, 2, 1)
    assert r1["sum_of_twisted_counts"] == 0
    r2 = twisted_sum_check(2, 2, 2)
    assert r2["sum_of_twisted_counts"] == 6


def test_orbit_partition():
    field = ff_make(2, 1)
    mats = invertible_matrices(field, 2)
    orbits = orbit_partition_check(2, 2, 2, mats)
    assert sum(orbits) == 6
    for size in orbits:
        assert (6 * 3) % size == 0


def test_budget_guards():
    with pytest.raises(BudgetError):
        dl_points(2, 4, 8)  # 2^32 points exceed the enumeration budget
    with pytest.raises(BudgetError):
        dl_points(3, 2, 8)  # ambient field 3^8 = 6561 over the table bound
    with pytest.raises(ParameterError):
        dl_points(2, 2, 2, mode="bogus")
