from math import gcd

import pytest
from dl_oracles import (
    act,
    action_invariance_check,
    ambient_points,
    base_points,
    dl_points_by_enumeration,
    dl_equation_by_product,
    line_fibers,
    mu_elements,
    mu_generator,
    on_variety,
    orbit_check,
    twisted_count,
    twisted_fixed_count,
    zeta_powers,
)
from gl_oracles import mat_mul

from ltdl import dl_variety
from ltdl.dl_variety import (
    Ambient,
    base_points_moebius,
    dl_equation,
    dl_points,
    line_census,
    per_zeta_counts,
    rational_level,
)
from ltdl.errors import ParameterError, VerificationError
from ltdl.ffield import embed, field_for_order
from ltdl.gl_characters import GLGroup
from ltdl.linalg import identity


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
    equation = dl_equation(2, 2)
    ring = equation.ring
    one = ring.domain.one()
    # X1 X2 (X1 + X2) - 1 = X1^2 X2 + X1 X2^2 - 1
    expect = (ring.monomial((2, 1), one) + ring.monomial((1, 2), one)
              - ring.one())
    assert equation == expect


def test_dl_equation_degenerate_n1():
    equation = dl_equation(2, 1)
    ring = equation.ring
    assert equation == ring.var("X1") - ring.one()


def test_dl_equation_32_degree():
    equation = dl_equation(3, 2)
    assert max(sum(e) for e in equation.terms) == 8


@pytest.mark.parametrize("q,n", [
    (2, 1), (3, 1), (4, 1), (5, 1), (8, 1), (9, 1), (64, 1), (151, 1), (256, 1),
    (2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2), (11, 2), (16, 2), (64, 2),
    (2, 3), (3, 3), (4, 3), (5, 3), (8, 3), (2, 4), (3, 4), (4, 4), (2, 5), (2, 6),
])
def test_dl_equation_is_the_product_of_the_forms(q, n):
    # Moore's closed form (-1)^n Delta^{q-1} against the balanced product of
    # the q^n - 1 linear forms, at configs up to n = 6 where the product
    # takes under a second; it takes 12 s at (7, 3) and 32 s at (2, 7)
    assert dl_equation(q, n) == dl_equation_by_product(q, n)


def census_points(q, n, m):
    return dl_points(q, n, m, line_census(q, n, m)[2])


def census_fibers(q, n, m):
    return line_fibers(q, n, m, census_points(q, n, m))


def test_dl_points_22():
    # Oracle: independent hand-table enumeration gives 6 points over F_4.
    oracle = oracle_dl_22_over_f4()
    assert len(oracle) == 6
    assert len(census_points(2, 2, 1)) == 0
    pts = census_points(2, 2, 2)
    assert len(pts) == 6 and pts == sorted(pts) == oracle


def test_dl_points_degenerate():
    assert len(census_points(2, 1, 1)) == 1
    assert len(census_points(2, 1, 2)) == 1  # x = 1 is the only solution of x = 1


@pytest.mark.parametrize("q,n,m", [(2, 2, 2), (4, 2, 2), (3, 2, 4), (8, 1, 2), (9, 2, 2),
                                   (4, 1, 3), (5, 2, 3), (16, 2, 2), (7, 1, 1), (27, 1, 1)])
def test_ambient_embeds_the_generator_of_F_q_once(monkeypatch, q, n, m):
    # the logs of the embedded F_q^x come from the one image of its
    # generator and equal those of embedding each element on its own
    calls = []

    def counted(x, sub, sup):
        calls.append(x)
        return embed(x, sub, sup)

    monkeypatch.setattr(dl_variety, "embed", counted)
    amb = Ambient(q, n, m)
    assert len(calls) == 1
    assert amb._embed_logs == [amb.field.log[embed(k, amb.base, amb.field)]
                               for k in range(1, q)]


def test_base_points_both_methods():
    # (2,3,2) is honestly 0: three distinct nonzero coordinates in F_4 always
    # sum to zero, so every point of P^2(F_4) lies on a rational plane.
    cases = {(2, 2, 1): 0, (2, 2, 2): 2, (3, 2, 2): 6, (2, 1, 3): 1,
             (2, 3, 2): 0, (2, 3, 3): 24}
    for (q, n, m), expected in cases.items():
        enum = base_points(q, n, m)
        moeb = base_points_moebius(q, n, m)
        assert enum == moeb == expected, (q, n, m)


def test_base_points_moebius_matches_enumeration_more():
    for (q, n, m) in [(3, 2, 1), (2, 3, 1), (2, 2, 3), (3, 2, 2)]:
        assert base_points(q, n, m) == base_points_moebius(q, n, m)


def test_act_identity_and_swap():
    g_id = identity(2)
    x = (2, 3)  # (w, w^2) in F_4 canonical ints
    amb = Ambient(2, 2, 2)
    assert act(amb, x, g=g_id) == x
    swap = ((0, 1), (1, 0))
    assert act(amb, x, g=swap) == (3, 2)
    assert on_variety(amb, x)
    assert on_variety(amb, (3, 2))


def test_act_zeta_scaling():
    amb = Ambient(2, 2, 2)
    mus = mu_elements(amb)
    assert len(mus) == 3  # mu_3 lives in F_4
    for x in [p for p in ambient_points(amb) if on_variety(amb, p)]:
        for z in mus:
            assert on_variety(amb, act(amb, x, zeta=z))
    with pytest.raises(ParameterError):
        act(amb, (1, 1), zeta=0)


def test_action_invariance_full():
    mats = GLGroup(2, 2).elements
    checked = action_invariance_check(2, 2, 2, mats)
    assert checked == 6 * 6 * 3  # points x matrices x available zetas


@pytest.mark.parametrize("q,n", [(2, 2), (4, 1), (4, 2)])
def test_action_invariance_generators_agree_with_full_group(q, n):
    # the orbit walk (generators of GL_n(F_q), each with 1 and with a
    # generator of mu) against the full-group loop at m = 2
    group = GLGroup(q, n)
    mats, gens = group.elements, group.generators
    amb = Ambient(q, n, 2)
    mus = mu_elements(amb)
    zetas = sorted({1, mu_generator(amb)})
    brute = dl_points_by_enumeration(q, n, 2)
    pts = len(brute)
    assert pts > 0
    # the one-orbit walk against the same full-group loop
    _, residues, lines = line_census(q, n, 2)
    orbit, failure = orbit_check(q, n, 2, gens, lines[0], len(residues) * residues[0])
    assert failure is None and sorted(orbit) == brute
    assert action_invariance_check(q, n, 2, mats) == pts * len(mats) * len(mus)
    assert action_invariance_check(q, n, 2, gens, zetas) == pts * len(gens) * len(zetas)
    # the pairs (g, zeta) generate all of GL_n(F_q) x mu
    F = amb.field
    pairs = [(g, z) for g in gens for z in zetas]
    seen = {(identity(n), 1)}
    frontier = set(seen)
    while frontier:
        frontier = {(mat_mul(group.field, g, s), F.mul(z, w))
                    for g, z in frontier for s, w in pairs} - seen
        seen |= frontier
    assert seen == {(g, z) for g in mats for z in mus}


def test_orbit_check_reports_the_mu_generator_leaving_the_orbit(monkeypatch):
    # the orbit is all of DL(F_4), so z^-1 x leaves it only through wrong
    # field arithmetic: with z^-1 doctored to 0, z^-1 x is the zero vector
    q, n = 2, 2
    m, (_, residues, lines) = rational_level(q, n)
    amb = Ambient(q, n, m)
    field, z = amb.field, mu_generator(amb)
    honest = field.inv
    monkeypatch.setattr(field, "inv", lambda a: 0 if a == z else honest(a))
    orbit, failure = orbit_check(q, n, m, GLGroup(q, n).generators, lines[0],
                                 len(residues) * residues[0])
    assert len(orbit) == 6 and failure == "the mu generator leaves the orbit"


@pytest.mark.parametrize("q,n,m", [(2, 2, 1), (2, 2, 2), (3, 1, 2), (4, 2, 2)])
def test_checks_on_a_given_point_list_match_their_own_enumeration(q, n, m):
    # the fibers and the action check on the census points against the
    # same on the enumeration of F_{q^m}^n
    pts = census_points(q, n, m)
    assert line_fibers(q, n, m, pts) == line_fibers(q, n, m, dl_points_by_enumeration(q, n, m))
    gens = GLGroup(q, n).generators
    assert (action_invariance_check(q, n, m, gens, points=pts)
            == action_invariance_check(q, n, m, gens))


def test_fiber_structure():
    # DL(F_4) lies gcd(3, 3) = 3 points to a line over the 2 census lines;
    # DL(F_2) is empty, and at n = 1 the one point is its own line
    fibers = census_fibers(2, 2, 2)
    assert set(fibers) == set(line_census(2, 2, 2)[2])
    assert [len(points) for points in fibers.values()] == [3, 3]
    assert census_fibers(2, 2, 1) == {}
    assert list(census_fibers(2, 1, 2).values()) == [[(1,)]]


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (2, 3), (4, 1)])
def test_a_passing_orbit_check_fixes_the_fibers(q, n):
    # the fiber argument behind dl.action_invariance's count: a passing
    # orbit walk lies g = gcd(q^n - 1, q^m - 1) points to a line over
    # exactly the residues[0] census lines, as `line_points` puts them
    m, (_, residues, lines) = rational_level(q, n)
    g = gcd(q ** n - 1, q ** m - 1)
    orbit, failure = orbit_check(q, n, m, GLGroup(q, n).generators, lines[0], g * residues[0])
    assert failure is None
    fibers = line_fibers(q, n, m, orbit)
    assert len(fibers) == residues[0] and set(fibers) == set(lines)
    assert {len(points) for points in fibers.values()} == {g}


def test_twisted_counts():
    # untwisted: g = 1, zeta = 1, frobenius power m with M = m recovers the
    # plain rational count
    ident = identity(2)
    assert (twisted_count(2, 2, ident, 1, 2, frob_power=2)
            == len(dl_points_by_enumeration(2, 2, 2)))
    # no nonzero vector is fixed by a nontrivial scaling
    amb = Ambient(2, 2, 2)
    z = [m for m in mu_elements(amb) if m != 1][0]
    fixed = [x for x in ambient_points(amb) if on_variety(amb, x)
             and act(amb, x, zeta=z) == x]
    assert fixed == []


def test_twisted_sum_identity():
    # sum over zeta of N_m(zeta) = (q^n - 1) * base: 0 over F_2, 6 over F_4
    sums = []
    for m in (1, 2):
        base, residues, _ = line_census(2, 2, m)
        sums.append(sum(per_zeta_counts(2, 2, residues)))
        assert sums[-1] == 3 * base
    assert sums == [0, 6]


@pytest.mark.parametrize("q,n,m,M,counts", [
    # M the smallest multiple of m and n with every zeta^{-1} a (q^m-1)-th power
    (2, 2, 1, 2, [0, 0, 0]),
    (2, 2, 2, 6, [6, 0, 0]),
    (2, 3, 1, 3, [0] * 7),
    (3, 2, 1, 4, [0] * 8),
    (3, 1, 1, 2, [0, 2]),
    (4, 1, 1, 3, [3, 0, 0]),
    (5, 1, 1, 4, [0, 0, 0, 4]),
    # smaller M, where some zeta^{-1} has no (q^m-1)-th root
    (2, 2, 2, 4, [6, 0, 0]),
    (4, 1, 1, 2, [3, 0, 0]),
])
def test_twisted_fixed_count_matches_brute_force(q, n, m, M, counts):
    # per zeta, the root enumeration against the enumeration of F_{q^M}^n,
    # and the line census's count for zeta^k against both, label by label
    amb = Ambient(q, n, M)
    mus = mu_elements(amb)
    brute = [twisted_count(q, n, identity(n), z, M, frob_power=m) for z in mus]
    assert [twisted_fixed_count(amb, z, m) for z in mus] == brute == counts
    by_zeta = dict(zip(mus, brute))
    census = per_zeta_counts(q, n, line_census(q, n, m)[1])
    assert [by_zeta[z] for z in zeta_powers(amb, m)] == census


@pytest.mark.parametrize("q,n,m", [
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (2, 2, 3),
    (2, 3, 1), (2, 3, 2), (2, 3, 3), (3, 2, 1), (3, 2, 2),
    (3, 2, 4), (2, 3, 6), (4, 2, 2), (8, 2, 2), (9, 2, 2),
])
def test_line_census_matches_enumeration(q, n, m):
    # the rational count and the points read off the census lines against
    # the point enumeration, the base against the vector enumeration and
    # the Moebius count
    base, residues, lines = line_census(q, n, m)
    brute = dl_points_by_enumeration(q, n, m)
    assert len(residues) * residues[0] == len(brute)
    assert dl_points(q, n, m, lines) == brute
    assert base == base_points(q, n, m) == base_points_moebius(q, n, m)
    assert len(lines) == residues[0]


@pytest.mark.parametrize("q,n,m", [(2, 3, 1), (2, 3, 2), (3, 3, 2), (2, 4, 3)])
def test_line_census_below_the_height_is_empty_without_a_walk(q, n, m, monkeypatch):
    # n coordinates in F_{q^m}, m < n, are F_q-dependent, so every line lies
    # on a rational hyperplane: the enumeration and the Moebius count agree
    # on 0, and the census builds no F_{q^m} to say so
    brute = dl_points_by_enumeration(q, n, m)
    assert brute == [] and base_points(q, n, m) == base_points_moebius(q, n, m) == 0

    def unbuilt(*args):
        raise AssertionError(f"F_{{{q}^{m}}} was built below the height {n}")

    monkeypatch.setattr(dl_variety, "Ambient", unbuilt)
    g = gcd(q ** n - 1, q ** m - 1)
    assert line_census(q, n, m) == (0, [0] * g, [])


def test_rational_level_names_its_proven_bound(monkeypatch):
    # a census with no point at any level up to last_dl_level contradicts
    # its proof, and the raise says which bound that was
    monkeypatch.setattr(dl_variety, "line_census", lambda q, n, m: (0, [0], []))
    with pytest.raises(VerificationError, match="from 3 to the proven bound "
                                                "last_dl_level = 4"):
        rational_level(3, 3)


def prime_powers(bound):
    out = []
    for q in range(2, bound + 1):
        try:
            field_for_order(q)
        except ParameterError:
            continue
        out.append(q)
    return out


@pytest.mark.parametrize("q,n", [(q, 1) for q in prime_powers(64)]
                         + [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3)])
def test_rational_level_is_the_first_nonempty_level(q, n):
    # every verify-all config but (7, 2), where enumerating the 343^2 points
    # at m = 3 takes about a second
    m, census = rational_level(q, n)
    assert m == next(k for k in range(n, 2 * n + 1) if dl_points_by_enumeration(q, n, k))
    assert census == line_census(q, n, m)


def orbit_sizes(q, n, m, matrices):
    """Sizes of the GL x mu orbits on DL(F_{q^m}), each orbit closed under
    the action and inside the point set."""
    amb = Ambient(q, n, m)
    pts = set(dl_points_by_enumeration(q, n, m))
    mus = mu_elements(amb)
    seen = set()
    sizes = []
    for x in sorted(pts):
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in matrices:
                for z in mus:
                    im = act(amb, y, g, z)
                    if im not in orbit:
                        orbit.add(im)
                        frontier.append(im)
        assert orbit <= pts
        seen |= orbit
        sizes.append(len(orbit))
    assert sum(sizes) == len(pts)
    return sizes


def test_orbit_partition():
    mats = GLGroup(2, 2).elements
    orbits = orbit_sizes(2, 2, 2, mats)
    assert sum(orbits) == 6
    for size in orbits:
        assert (6 * 3) % size == 0
