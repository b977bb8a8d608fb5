import random

import pytest

from ltdl.cyclo import CycloElement
from ltdl.errors import ParameterError
from ltdl.ffield import ff_make, primitive_poly_over
from ltdl.gl_characters import (
    ClassFunction,
    CorrespondenceData,
    CoxeterTorus,
    GLGroup,
    VirtualRep,
    correspondence_report,
    dixon_table,
    dl_correspondence,
    frobenius_orbits,
    generic_character_count,
    induce_from_torus,
    is_cuspidal,
    is_generic,
    rcf_key,
    restrict_to_torus,
    steinberg,
    torus_character_value,
    torus_inner,
    unipotent_radical,
)
from ltdl.linalg import mat_inv, mat_pow


def test_group_orders_and_class_counts():
    # Oracle: order formula prod (q^n - q^i); class counts frozen from
    # enumeration (S3 has 3, GL2(F3) has 8, GL3(F2) has 6).
    cases = {(2, 2): (6, 3), (3, 2): (48, 8), (2, 3): (168, 6)}
    for (q, n), (order, classes) in cases.items():
        g = GLGroup(q, n)
        assert g.order == order
        assert g.num_classes == classes
        assert sum(g.class_sizes) == order


def test_rcf_key_is_conjugacy_invariant():
    g = GLGroup(3, 2)
    rng = random.Random(79)
    for _ in range(100):
        a = rng.choice(g.elements)
        x = rng.choice(g.elements)
        conj = g.mul(g.mul(x, a), mat_inv(g.field, x))
        assert rcf_key(g.field, a) == rcf_key(g.field, conj)


def test_coxeter_torus():
    g = GLGroup(2, 2)
    t = CoxeterTorus(g)
    assert t.generator == ((0, 1), (1, 1))
    assert t.order == 3
    assert mat_pow(g.field, t.generator, 3) == g.identity
    g3 = GLGroup(3, 2)
    t3 = CoxeterTorus(g3)
    assert t3.order == 8
    assert mat_pow(g3.field, t3.generator, 8) == g3.identity
    assert mat_pow(g3.field, t3.generator, 4) != g3.identity


def test_primitive_poly_matches_ff_make_for_prime_fields():
    for (p, n) in [(2, 2), (2, 3), (3, 2)]:
        field = ff_make(p, 1)
        assert primitive_poly_over(field, n) == ff_make(p, n).modulus


def test_torus_characters_group_law():
    g = GLGroup(2, 2)
    t = CoxeterTorus(g)
    assert torus_character_value(t, 0, 1) == CycloElement.rational(1)
    assert torus_character_value(t, 1, 1) == CycloElement.zeta(3)
    for j in range(3):
        for l in range(3):
            for k in range(3):
                lhs = torus_character_value(t, j, k) * torus_character_value(t, l, k)
                rhs = torus_character_value(t, (j + l) % 3, k)
                assert lhs == rhs


def test_is_generic():
    assert not is_generic(2, 2, 0)
    assert is_generic(2, 2, 1) and is_generic(2, 2, 2)
    assert generic_character_count(2, 2) == 2
    # (3,2): 6 generic of 8
    generics = [j for j in range(8) if is_generic(3, 2, j)]
    assert len(generics) == 6 == generic_character_count(3, 2)
    assert 0 not in generics and 4 not in generics  # fixed by j -> 3j mod 8


def test_frobenius_orbits():
    orbits = frobenius_orbits(2, 3)
    assert len(orbits) == 2
    assert all(len(o) == 3 for o in orbits)
    flat = sorted(j for o in orbits for j in o)
    assert flat == [1, 2, 3, 4, 5, 6]


def test_induced_degree_and_reciprocity():
    g = GLGroup(3, 2)
    t = CoxeterTorus(g)
    table = dixon_table(g)
    ind = induce_from_torus(g, t, 1)
    assert ind.degree() == CycloElement.rational(48 // 8)
    ind0 = induce_from_torus(g, t, 0)
    assert ind0.degree() == CycloElement.rational(6)
    # Frobenius reciprocity <Ind theta, chi>_G = <theta, Res chi>_T
    rng = random.Random(83)
    for _ in range(6):
        j = rng.randrange(8)
        chi = rng.choice(table.irreducibles)
        lhs = induce_from_torus(g, t, j).inner(chi)
        theta_vals = [torus_character_value(t, j, k) for k in range(t.order)]
        rhs = torus_inner(t, theta_vals, restrict_to_torus(g, t, chi))
        assert lhs == rhs


def test_steinberg_values():
    for (q, n), deg in [((2, 2), 2), ((3, 2), 3), ((2, 3), 8)]:
        g = GLGroup(q, n)
        st = steinberg(g)
        assert st.degree() == CycloElement.rational(deg)
        assert st.inner(st) == 1


def test_dixon_tables_frozen_degrees():
    # Degree multisets frozen from the order-sum oracle sum d^2 = |G|.
    assert dixon_table(GLGroup(2, 2)).degrees == [1, 1, 2]
    t32 = dixon_table(GLGroup(3, 2))
    assert t32.degrees == [1, 1, 2, 2, 2, 3, 3, 4]
    assert sum(d * d for d in t32.degrees) == 48
    t23 = dixon_table(GLGroup(2, 3))
    assert t23.degrees == [1, 3, 3, 6, 7, 8]
    assert sum(d * d for d in t23.degrees) == 168


def test_orthogonality_exact():
    g = GLGroup(3, 2)
    table = dixon_table(g)
    for i, a in enumerate(table.irreducibles):
        for j, b in enumerate(table.irreducibles):
            assert a.inner(b) == (1 if i == j else 0)


def test_cuspidality():
    g = GLGroup(2, 2)
    table = dixon_table(g)
    # the trivial character is never cuspidal; sign (the other 1-dim) is
    flags = dict(zip(table.degrees, table.cuspidal_flags))
    trivial = [chi for chi in table.irreducibles
               if all(v == CycloElement.rational(1) for v in chi.values)]
    assert len(trivial) == 1 and not is_cuspidal(g, trivial[0])
    assert table.cuspidal_flags.count(True) == 1
    t32 = dixon_table(GLGroup(3, 2))
    cusp32 = [d for d, f in zip(t32.degrees, t32.cuspidal_flags) if f]
    assert cusp32 == [2, 2, 2]
    t23 = dixon_table(GLGroup(2, 3))
    cusp23 = [d for d, f in zip(t23.degrees, t23.cuspidal_flags) if f]
    assert cusp23 == [3, 3]


def test_unipotent_radical_sizes():
    g = GLGroup(2, 3)
    sizes = sorted(len(unipotent_radical(g, c)) for c in [(1, 2), (2, 1), (1, 1, 1)])
    assert sizes == [4, 4, 8]


def test_dl_correspondence_22():
    data = CorrespondenceData(2, 2)
    pi = dl_correspondence(data, 1)
    chi = data.table.irreducibles[pi]
    assert data.table.degrees[pi] == 1
    assert data.table.cuspidal_flags[pi]
    # pi is the sign character: value -1 on the Coxeter classes of order 3
    assert dl_correspondence(data, 2) == pi
    with pytest.raises(ParameterError):
        dl_correspondence(data, 0)


def test_characterization_needs_cuspidality_at_22():
    # both one-dimensional characters of S3 satisfy chi * St = Ind theta_1;
    # cuspidality is what pins the answer down
    data = CorrespondenceData(2, 2)
    ind = induce_from_torus(data.group, data.torus, 1)
    one_dims = [chi for chi, d in zip(data.table.irreducibles, data.table.degrees)
                if d == 1]
    assert len(one_dims) == 2
    matches = [chi for chi in one_dims if chi * data.st == ind]
    assert len(matches) == 2


def test_non_cuspidal_never_satisfies_characterization_32():
    data = CorrespondenceData(3, 2)
    rng = random.Random(89)
    non_cusp = [i for i, f in enumerate(data.table.cuspidal_flags) if not f]
    idx = rng.choice(non_cusp)
    chi = data.table.irreducibles[idx]
    for j in range(8):
        if is_generic(3, 2, j):
            ind = induce_from_torus(data.group, data.torus, j)
            assert not (chi * data.st == ind)


def test_correspondence_reports():
    for (q, n), (orbits, dim) in {(2, 2): (1, 1), (3, 2): (3, 2), (2, 3): (2, 3)}.items():
        rep, virt = correspondence_report(q, n)
        assert rep["all_pass"], rep["checks"]
        assert len(rep["orbits"]) == orbits
        count = generic_character_count(q, n)
        assert len(virt.terms) == count
        sign = (-1) ** (n - 1)
        assert all(v == sign for v in virt.terms.values())


def test_virtual_rep_arithmetic():
    a = VirtualRep({(0, 1): 1})
    b = VirtualRep({(0, 1): -1, (1, 2): 2})
    assert (a + b).terms == {(1, 2): 2}
    assert (-b).terms == {(0, 1): 1, (1, 2): -2}
    assert (a + (-a)).terms == {}


def test_s3_table_matches_classical_values():
    # GL_2(F_2) is S_3; classes sorted by invariant-factor key come out as
    # (transvection ~ transpositions, identity, order-3 Coxeter elements).
    g = GLGroup(2, 2)
    table = dixon_table(g)
    assert [g.class_orders[c] for c in range(3)] == [2, 1, 3]
    assert g.class_sizes == [3, 1, 2]
    one = CycloElement.rational(1)
    classical = {
        (1, True): [-one, one, one],            # sign, the cuspidal one
        (1, False): [one, one, one],            # trivial
        (2, False): [CycloElement.rational(0), CycloElement.rational(2),
                     -one],                     # standard 2-dim
    }
    for chi, deg, cusp in zip(table.irreducibles, table.degrees,
                              table.cuspidal_flags):
        expect = classical[(deg, cusp)]
        assert list(chi.values) == [v.coerce(chi.values[0].m) for v in expect]


def test_table_determinism_bit_identical():
    import json

    a = dixon_table(GLGroup(3, 2))
    b = dixon_table(GLGroup(3, 2))
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_class_function_inner_rejects_irrational():
    g = GLGroup(2, 2)
    vals = [CycloElement.zeta(3, k) for k in range(g.num_classes)]
    f = ClassFunction(g, vals)
    with pytest.raises(ParameterError):
        f.inner(ClassFunction.from_integers(g, [1] * g.num_classes))
