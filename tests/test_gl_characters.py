import hashlib
import json
import random
from fractions import Fraction
from math import isqrt, lcm

import pytest
from gl_oracles import (
    closure_by_products,
    dl_correspondence,
    is_cuspidal_by_radicals,
    is_generic_by_norm_kernels,
    lift_per_class,
    mat_mul,
    steinberg_by_flags,
    unipotent_radical,
    verify_table,
)

from ltdl import gl_characters
from ltdl.cli import main
from ltdl.cyclo import CycloElement, dot
from ltdl.errors import ParameterError, VerificationError
from ltdl.ffield import PrimeField, ff_make, field_for_order, primitive_poly_over
from ltdl.gl_characters import (
    CharacterTable,
    ClassFunction,
    CorrespondenceData,
    CoxeterTorus,
    GLGroup,
    correspondence_report,
    dixon_table,
    frobenius_orbits,
    generic_character_count,
    induce_from_torus,
    is_cuspidal,
    is_generic,
    rcf_key,
    steinberg,
    _characters_mod,
    _charpoly_mod,
    _check_table,
    _class_matrices,
    _cuspidal_matches,
    _multiplicities,
    _nullspace_mod,
    _primitive_root,
    _rational_classes,
    _rref_mod,
    _roots_mod,
    _split_common_eigenspaces,
    _split_prime,
    _twist,
)
from ltdl.linalg import (
    det,
    generated_group,
    gl_generators,
    group_order,
    identity,
)


def mat_inv(field, A):
    """Oracle: A^-1 by Gauss-Jordan elimination of [A | I]."""
    n = len(A)
    M = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(A)]
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[c], M[piv] = M[piv], M[c]
        inv = field.inv(M[c][c])
        M[c] = [field.mul(inv, v) for v in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [field.sub(M[r][k], field.mul(f, M[c][k])) for k in range(2 * n)]
    return tuple(tuple(row[n:]) for row in M)


def mat_pow(field, A, e):
    """Oracle: A^e by repeated squaring of matrices."""
    out = identity(len(A))
    base = A
    while e:
        if e & 1:
            out = mat_mul(field, out, base)
        base = mat_mul(field, base, base)
        e >>= 1
    return out


def test_group_orders_and_class_counts():
    # Oracle: order formula prod (q^n - q^i); class counts frozen from
    # enumeration (S3 has 3, GL2(F3) has 8, GL3(F2) has 6).
    cases = {(2, 2): (6, 3), (3, 2): (48, 8), (2, 3): (168, 6)}
    for (q, n), (order, classes) in cases.items():
        g = GLGroup(q, n)
        assert g.order == order
        assert g.num_classes == classes
        assert sum(g.class_sizes) == order


def test_group_raises_when_closure_falls_short(monkeypatch):
    # the elements are the closure of the generators, so a generating set
    # that falls short, or one that leaves GL_n(F_q), must not build a group
    honest = gl_characters.gl_generators
    monkeypatch.setattr(gl_characters, "gl_generators", lambda field, n: honest(field, n)[:2])
    with pytest.raises(VerificationError, match="generate 8 matrices, not"):
        GLGroup(3, 2)
    singular = ((1, 0), (0, 0))
    monkeypatch.setattr(gl_characters, "gl_generators",
                        lambda field, n: honest(field, n) + [singular])
    with pytest.raises(VerificationError, match="singular"):
        GLGroup(3, 2)


def classes_by_key(group):
    """Oracle: the classes as the partition of the elements by `rcf_key`,
    one key per element, sorted by key; members in element order."""
    by_key = {}
    for i, g in enumerate(group.elements):
        by_key.setdefault(rcf_key(group.field, g), []).append(i)
    keys = sorted(by_key)
    return keys, [by_key[k] for k in keys]


def element_order(field, g):
    """Oracle: the order of g by repeated matrix products."""
    k, cur = 1, g
    while cur != identity(len(g)):
        cur = mat_mul(field, cur, g)
        k += 1
    return k


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (4, 2), (5, 2)])
def test_conjugation_orbits_are_the_rcf_classes(q, n):
    g = GLGroup(q, n)
    assert (g.class_keys, g.classes) == classes_by_key(g)
    assert g.reps == [g.elements[c[0]] for c in g.classes]


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_closure_permutations_are_right_multiplication(q, n):
    field = field_for_order(q)
    gens = gl_generators(field, n)
    elements, right = generated_group(field, gens)
    assert len(elements) == group_order(q, n) and elements == sorted(set(elements))
    index = {x: i for i, x in enumerate(elements)}
    assert len(right) == len(gens)
    for s, perm in zip(gens, right):
        assert perm == [index[mat_mul(field, x, s)] for x in elements]


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (4, 2), (5, 2)])
def test_index_structure_matches_matrix_products(q, n):
    g = GLGroup(q, n)
    for ci, rep in enumerate(g.reps):
        assert g.rep_right[ci] == [g.index[mat_mul(g.field, x, rep)] for x in g.elements]
        order = element_order(g.field, rep)
        assert g.class_orders[ci] == order
        assert g.inverse_class[ci] == g.class_of[g.index[mat_inv(g.field, rep)]]
        for s in range(order):
            assert g.powermap(ci, s) == g.class_of[g.index[mat_pow(g.field, rep, s)]]
    assert g.exponent == lcm(*g.class_orders)


def test_one_rcf_key_per_class(monkeypatch):
    calls = []

    def counted(field, A):
        calls.append(A)
        return rcf_key(field, A)

    monkeypatch.setattr(gl_characters, "rcf_key", counted)
    for q, n in [(3, 2), (2, 3)]:
        calls.clear()
        g = GLGroup(q, n)
        assert len(calls) == g.num_classes and sorted(calls) == sorted(g.reps)


def test_orbits_sharing_a_key_raise(monkeypatch):
    # rcf_key is a complete invariant, so two conjugation orbits with one key
    # mean the orbits are not the classes
    keys = iter(range(100))
    monkeypatch.setattr(gl_characters, "rcf_key", lambda field, A: next(keys) // 2)
    with pytest.raises(VerificationError, match="share the class key"):
        GLGroup(3, 2)


def test_rcf_key_is_conjugacy_invariant():
    g = GLGroup(3, 2)
    rng = random.Random(79)
    for _ in range(100):
        a = rng.choice(g.elements)
        x = rng.choice(g.elements)
        conj = mat_mul(g.field, mat_mul(g.field, x, a), mat_inv(g.field, x))
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


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (4, 2), (5, 2)])
def test_coxeter_torus_class_map_matches_matrix_powers(q, n):
    g = GLGroup(q, n)
    t = CoxeterTorus(g)
    assert t.class_map == [g.class_of[g.index[mat_pow(g.field, t.generator, k)]]
                           for k in range(t.order)]
    rng = random.Random(97)
    for x in rng.sample(range(g.order), 5):
        assert g.right_multiplication(x) == [g.index[mat_mul(g.field, y, g.elements[x])]
                                             for y in g.elements]


def test_coxeter_torus_rejects_a_non_primitive_companion(monkeypatch):
    # x^2 + 1 is irreducible over F_3, but its root has order 4, not 8
    monkeypatch.setattr(gl_characters, "primitive_poly_over", lambda field, n: (1, 0, 1))
    with pytest.raises(VerificationError, match="does not have order q\\^n - 1"):
        CoxeterTorus(GLGroup(3, 2))


def test_primitive_poly_matches_ff_make_for_prime_fields():
    for (p, n) in [(2, 2), (2, 3), (3, 2)]:
        field = ff_make(p, 1)
        assert primitive_poly_over(field, n) == ff_make(p, n).modulus


def torus_character_value(torus, j, k):
    """theta_j(C^k) = zeta_{q^n-1}^{jk}."""
    return CycloElement.zeta(torus.order, (j * k) % torus.order)


def torus_inner(torus, vals_a, vals_b):
    """<a, b>_T for value lists indexed by k in C^k."""
    m = lcm(*(v.m for v in vals_a), *(v.m for v in vals_b))
    total = dot(m, [1] * torus.order, [a.coerce(m) for a in vals_a],
                [b.coerce(m).conj() for b in vals_b])
    return Fraction(total.as_rational(), torus.order)


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


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (5, 2), (64, 1)])
def test_is_generic_matches_the_norm_kernel_oracle(q, n):
    verdicts = [is_generic(q, n, j) for j in range(q ** n - 1)]
    assert verdicts == [is_generic_by_norm_kernels(q, n, j) for j in range(q ** n - 1)]
    assert sum(verdicts) == generic_character_count(q, n)


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
        rhs = torus_inner(t, theta_vals, [chi.values[ci] for ci in t.class_map])
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
    sizes = sorted(sum(g.parabolics[c][1]) for c in [(1, 2), (2, 1), (1, 1, 1)])
    assert sizes == [4, 4, 8]
    # |P_c| = |G| / [3; c]_2: 168 / 7, 168 / 7 and 168 / 21
    assert sorted(sum(g.parabolics[c][0]) for c in [(1, 2), (2, 1), (1, 1, 1)]) == [8, 24, 24]


def block_upper(g, comp, unipotent):
    """Oracle: g is block-upper-triangular for comp (with identity diagonal
    blocks when `unipotent`), read entry by entry."""
    block = [b for b, size in enumerate(comp) for _ in range(size)]
    for i, row in enumerate(g):
        for j, x in enumerate(row):
            if block[i] > block[j] and x:
                return False
            if unipotent and block[i] == block[j] and x != (i == j):
                return False
    return True


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_parabolic_histograms_match_the_matrix_oracle(q, n):
    g = GLGroup(q, n)
    assert list(g.parabolics) == gl_characters.compositions(n)
    for comp, (P, U) in g.parabolics.items():
        for hist, unipotent in ((P, False), (U, True)):
            expect = [0] * g.num_classes
            for x, ci in zip(g.elements, g.class_of):
                expect[ci] += block_upper(x, comp, unipotent)
            assert hist == expect
        radical = [0] * g.num_classes
        for u in unipotent_radical(g, comp):
            radical[g.class_of[g.index[u]]] += 1
        assert U == radical


def test_parabolic_size_checks_raise(monkeypatch):
    # a transvection's diagonal doctored away: P_(1,1) keeps its size, U_(1,1)
    # loses one element
    g = GLGroup(3, 2)
    x = g.index[((1, 1), (0, 1))]
    g.elements[x] = ((2, 1), (0, 1))
    with pytest.raises(VerificationError, match=r"\|U_\(1, 1\)\| = 2 != q\^1"):
        g.parabolics
    monkeypatch.setattr(gl_characters, "gaussian_binomial", lambda n, d, q: 1)
    with pytest.raises(VerificationError, match=r"\|P_\(1, 1\)\| = 12 != "):
        GLGroup(3, 2).parabolics


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (4, 2), (5, 2), (7, 2), (3, 3), (2, 4)])
def test_steinberg_matches_the_flag_oracle(q, n):
    g = GLGroup(q, n)
    assert steinberg(g) == ClassFunction.from_integers(g, steinberg_by_flags(g))


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3), (4, 2),
                                 (5, 2), (7, 2)])
def test_cuspidal_flags_match_the_radical_oracle(q, n):
    table = dixon_table(GLGroup(q, n))
    assert table.cuspidal_flags == [is_cuspidal_by_radicals(table.group, chi)
                                    for chi in table.irreducibles]


def test_dl_correspondence_22():
    data = CorrespondenceData(GLGroup(2, 2))
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
    data = CorrespondenceData(GLGroup(2, 2))
    ind = induce_from_torus(data.group, data.torus, 1)
    one_dims = [chi for chi, d in zip(data.table.irreducibles, data.table.degrees)
                if d == 1]
    assert len(one_dims) == 2
    matches = [chi for chi in one_dims if chi * data.st == ind]
    assert len(matches) == 2


def test_non_cuspidal_never_satisfies_characterization_32():
    data = CorrespondenceData(GLGroup(3, 2))
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
        rep = correspondence_report(q, n)
        assert rep["all_pass"], rep["checks"]
        assert len(rep["orbits"]) == orbits
        part = rep["cuspidal_part"]
        assert len(part) == generic_character_count(q, n)
        assert len({(t["pi"], t["theta"]) for t in part}) == len(part)
        sign = (-1) ** (n - 1)
        assert all(t["mult"] == sign for t in part)


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


@pytest.mark.parametrize("q", [3, 5])
def test_character_values_stay_integer(q):
    table = dixon_table(GLGroup(q, 2))
    for chi in table.irreducibles:
        for v in chi.values:
            assert v.m == table.group.exponent
            assert all(type(c) is int for c in v.coeffs)


def test_verify_table_rejects_doctored_tables():
    table = dixon_table(GLGroup(3, 2))
    g, irr, ell = table.group, list(table.irreducibles), table.ell
    # one value perturbed, away from the identity class
    ci = (g.identity_class + 1) % g.num_classes
    vals = list(irr[5].values)
    vals[ci] = vals[ci] + 1
    perturbed = irr[:5] + [ClassFunction(g, vals)] + irr[6:]
    # rows 0 and 1 both have degree 1, so only orthogonality sees the duplicate
    assert table.degrees[0] == table.degrees[1] == 1
    duplicated = [irr[0], irr[0]] + irr[2:]
    with pytest.raises(ArithmeticError, match="row orthogonality"):
        verify_table(CharacterTable(g, perturbed, ell))
    with pytest.raises(ArithmeticError, match="row orthogonality"):
        verify_table(CharacterTable(g, duplicated, ell))
    with pytest.raises(ArithmeticError, match="not square"):
        verify_table(CharacterTable(g, irr[:-1], ell))


def table_rows(group):
    """The Dixon table of group and its rows as the (degree, multiplicities)
    that `_check_table` reads, in the table's order."""
    table = dixon_table(group)
    characters = _characters_mod(group, table.ell)
    E = group.exponent
    by_values = {}
    for (degree, _), mults in zip(characters, _multiplicities(group, characters, table.ell)):
        key = tuple(CycloElement.from_powers(E, m, E // len(m)).coeffs for m in mults)
        by_values[key] = (degree, mults)
    return table, [by_values[tuple(v.coeffs for v in chi.values)] for chi in table.irreducibles]


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (4, 2), (5, 2), (7, 2), (61, 1)])
def test_rational_class_lift_and_gram_gate_match_their_oracles(q, n):
    g = GLGroup(q, n)
    table, rows = table_rows(g)
    ell = table.ell
    characters = _characters_mod(g, ell)
    assert (_multiplicities(g, characters, ell)
            == lift_per_class(g, characters, ell, _primitive_root(ell)))
    # both gates accept the genuine table
    _check_table(g, rows)
    verify_table(table)


def test_gram_gate_rejects_doctored_tables():
    g = GLGroup(3, 2)
    table, rows = table_rows(g)
    ci = (g.identity_class + 1) % g.num_classes

    def doctored(i, j, mult):
        mults = list(rows[i][1])
        mults[j] = tuple(mult)
        return rows[:i] + [(rows[i][0], mults)] + rows[i + 1:]

    def rejects(doctored_rows, match):
        with pytest.raises(ArithmeticError, match=match):
            _check_table(g, doctored_rows)

    # the doctored tables of the Z[zeta] oracle: chi_5 + 1 at class ci is
    # one corrupted multiplicity, of the eigenvalue 1; a duplicated row; a
    # missing row
    plus_one = list(rows[5][1][ci])
    plus_one[0] += 1
    rejects(doctored(5, ci, plus_one), "do not sum to the degree")
    rejects([rows[0], rows[0]] + rows[2:], "two rows are equal")
    rejects(rows[:-1], "not square")
    # the trivial character is rational, and at an involution its vector
    # (m_0, m_1) is fixed by every t -> k t, k odd: moving its eigenvalue 1
    # to -1 keeps the sum and the Galois stability, and only the Gram matrix
    # sees it
    inv = next(j for j in range(g.num_classes) if g.class_orders[j] == 2)
    assert rows[0][0] == 1 and rows[0][1][inv] == (1, 0)
    rejects(doctored(0, inv, (0, 1)), "row orthogonality")
    # adding ell' to a multiplicity leaves every value mod ell' and the
    # Galois stability alone: only the sum to the degree sees it
    ell = _split_prime(g.exponent, g.order * (max(table.degrees) ** 2 + 1))
    rejects(doctored(0, inv, (1 + ell, 0)), "do not sum to the degree")
    # the first row with a non-real value, conjugated at that class only:
    # its Galois images leave the row set, and nothing else changes
    i, j = next((i, j) for i, (_, mults) in enumerate(rows)
                for j, m in enumerate(mults) if _twist(m, -1) != m)
    half_conjugated = doctored(i, j, _twist(rows[i][1][j], -1))
    assert half_conjugated[i] not in rows
    rejects(half_conjugated, "not Galois-stable")


@pytest.mark.parametrize("q,n,count", [(5, 2, 15), (7, 2, 23), (61, 1, 12), (64, 1, 6)])
def test_the_lift_runs_once_per_rational_class(q, n, count, monkeypatch):
    reps = []
    honest = gl_characters._lift

    def counted(characters, power_classes, ell, w):
        reps.append(power_classes[1 % len(power_classes)])
        return honest(characters, power_classes, ell, w)

    monkeypatch.setattr(gl_characters, "_lift", counted)
    g = GLGroup(q, n)
    dixon_table(g)
    assert len(reps) == count == len(_rational_classes(g))
    assert sum(len(members) for _, members in _rational_classes(g)) == g.num_classes


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_sparse_closure_matches_the_product_closure(q, n):
    field = field_for_order(q)
    gens = gl_generators(field, n)
    assert generated_group(field, gens) == closure_by_products(field, gens)


@pytest.mark.parametrize("q,digest", [
    (3, "4b3197be4f302981889f1caef73c2b5313fd84a616d71886deeb713a3dcf763f"),
    (4, "a3fbfb9e790f56446014ec4964a0124516a1f23385632c9ccce87e79fc4f1cf8"),
])
def test_chars_table_report_frozen(q, digest, tmp_path):
    # sha256 of the character table in the `chars table` report (sorted-key
    # JSON), frozen from the Fraction-based implementation that checked
    # column orthogonality separately
    out = tmp_path / "table.json"
    assert main(["chars", "table", "--q", str(q), "--n", "2", "--out", str(out)]) == 0
    table = json.loads(out.read_text())["results"]["table"]
    assert hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest() == digest


def green_gl2_rows(group):
    """Green's closed-form character table of GL_2(F_q) (Trans. AMS 80 (1955);
    Fulton-Harris, Representation Theory, 5.2), one row per irreducible,
    evaluated at the group's classes as identified by their rcf_key.

    With alpha_i(x) = zeta_{q-1}^{i log x} on F_q^x and phi_k(z) =
    zeta_{q^2-1}^{k log z} on F_{q^2}^x (phi_k != phi_k^q), and a = alpha_i,
    b = alpha_j, phi = phi_k:

        class         U_i          V_i          W_{i<j}              X_k
        x I           a(x)^2       q a(x)^2     (q+1) a(x) b(x)      (q-1) phi(x)
        x I + E_12    a(x)^2       0            a(x) b(x)            -phi(x)
        diag(x, y)    a(x) a(y)    a(x) a(y)    a(x)b(y) + a(y)b(x)  0
        z, z^q        a(z^{q+1})   -a(z^{q+1})  0                    -(phi(z) + phi(z^q))
    """
    q = group.q
    small, big = group.field, field_for_order(q * q)
    M = q * q - 1
    # embed F_q in F_{q^2}: send the generator of F_q to a root of its modulus
    rho = next(z for z in range(1, q * q)
               if _poly_value(big, small.modulus, z) == 0)
    log_rho = big.log[rho]

    def big_log(x):  # log in F_{q^2} of the image of x in F_q^x
        return small.log[x] * log_rho % M

    def alpha(i, x):
        return CycloElement.zeta(M, i * (q + 1) * small.log[x])

    def phi(k, log_z):
        return CycloElement.zeta(M, k * log_z)

    def classify(key):
        """(kind, x, y); for an elliptic class x = log z and y = z^{q+1}."""
        if len(key) == 2:
            return "central", small.neg(key[0][0]), None
        c0, c1, _ = key[0]
        roots = [x for x in range(q) if small.add(small.mul(x, small.add(x, c1)), c0) == 0]
        if len(roots) == 1:
            return "unipotent", roots[0], None
        if len(roots) == 2:
            return "split", roots[0], roots[1]
        img = [big.exp[big_log(c)] if c else 0 for c in (c0, c1)]
        z = next(z for z in range(1, q * q)
                 if big.add(big.mul(z, big.add(z, img[1])), img[0]) == 0)
        return "elliptic", big.log[z], c0

    def U(i, kind, x, y):
        if kind == "split":
            return alpha(i, x) * alpha(i, y)
        return alpha(i, y) if kind == "elliptic" else alpha(i, x) * alpha(i, x)

    def V(i, kind, x, y):
        if kind == "central":
            return alpha(i, x) * alpha(i, x) * q
        if kind == "unipotent":
            return CycloElement.zero(M)
        return -U(i, kind, x, y) if kind == "elliptic" else U(i, kind, x, y)

    def W(i, j, kind, x, y):
        if kind == "split":
            return alpha(i, x) * alpha(j, y) + alpha(i, y) * alpha(j, x)
        if kind == "elliptic":
            return CycloElement.zero(M)
        return alpha(i, x) * alpha(j, x) * (q + 1 if kind == "central" else 1)

    def X(k, kind, x, y):
        if kind == "central":
            return phi(k, big_log(x)) * (q - 1)
        if kind == "unipotent":
            return -phi(k, big_log(x))
        if kind == "split":
            return CycloElement.zero(M)
        return -(phi(k, x) + phi(k, x * q))

    characters = []
    for i in range(q - 1):
        characters += [(U, i), (V, i)]
        characters += [(W, i, j) for j in range(i + 1, q - 1)]
    thetas = set()
    for k in range(M):
        if (k * q) % M != k and k not in thetas:
            thetas.update({k, (k * q) % M})
            characters.append((X, k))
    classes = [classify(key) for key in group.class_keys]
    return [tuple(f(*args, *c) for c in classes) for f, *args in characters]


def _poly_value(field, coeffs, z):
    out = 0
    for c in reversed(coeffs):
        out = field.add(field.mul(out, z), c)
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_green_gl2_table_matches_dixon(q):
    group = GLGroup(q, 2)
    table = dixon_table(group)
    E = group.exponent

    def key(row):
        return tuple(v.coerce(E).coeffs for v in row)

    green = green_gl2_rows(group)
    assert len(green) == group.num_classes
    assert sorted(map(key, green)) == sorted(key(chi.values) for chi in table.irreducibles)


def test_dixon_table_of_the_trivial_group():
    # GL_1(F_2) has exponent 1; the Dixon prime search must still end
    group = GLGroup(2, 1)
    table = dixon_table(group)
    assert (group.order, group.num_classes, group.exponent) == (1, 1, 1)
    assert table.degrees == [1]
    assert [list(chi.values) for chi in table.irreducibles] == [[CycloElement.rational(1)]]


def _charpoly_at(poly, lam, ell):
    return sum(a * lam ** d for d, a in enumerate(poly)) % ell


def _det_minus(A, lam, ell):
    # oracle: det(lam I - A) by elimination over PrimeField(ell)
    k = len(A)
    return det(PrimeField(ell), [[((lam if i == j else 0) - A[i][j]) % ell
                                  for j in range(k)] for i in range(k)])


def test_charpoly_matches_determinant_at_every_lambda():
    rng = random.Random(2029)
    cases = []
    for ell in (241, 337):
        for k in (1, 2, 3, 5, 8, 12):
            cases.append((ell, [[rng.randrange(ell) for _ in range(k)] for _ in range(k)]))
        # scalar, strictly upper (nilpotent), and a conjugate of diag(5,5,5,7,7,1)
        cases.append((ell, [[9 if i == j else 0 for j in range(6)] for i in range(6)]))
        cases.append((ell, [[rng.randrange(ell) if j > i else 0 for j in range(7)]
                            for i in range(7)]))
        D = [5, 5, 5, 7, 7, 1]
        P = [[rng.randrange(ell) for _ in range(6)] for _ in range(6)]
        while not det(PrimeField(ell), P):
            P = [[rng.randrange(ell) for _ in range(6)] for _ in range(6)]
        P_inv = mat_inv(PrimeField(ell), P)
        cases.append((ell, [[sum(P[i][t] * D[t] * P_inv[t][j] for t in range(6)) % ell
                             for j in range(6)] for i in range(6)]))
    for ell, A in cases:
        poly = _charpoly_mod(A, ell)
        assert len(poly) == len(A) + 1 and poly[-1] == 1
        for lam in range(ell):
            assert _charpoly_at(poly, lam, ell) == _det_minus(A, lam, ell)
    scalar, nilpotent, repeated = cases[6:9]
    assert _roots_mod(_charpoly_mod(scalar[1], 241), 241) == [9]
    assert _charpoly_mod(nilpotent[1], 241) == [0] * 7 + [1]
    assert _roots_mod(_charpoly_mod(repeated[1], 241), 241) == [1, 5, 7]


def eigenvalues_by_scan(A, ell):
    """Every lambda in [0, ell) with det(A - lambda I) = 0 (the slow oracle)."""
    return [lam for lam in range(ell) if _det_minus(A, lam, ell) == 0]


def eager_class_matrices(group):
    """All class matrices, built up front (the oracle for the generator)."""
    r = group.num_classes
    mats = []
    for i in range(r):
        M = [[0] * r for _ in range(r)]
        for xi in group.classes[i]:
            x_inv = mat_inv(group.field, group.elements[xi])
            for k in range(r):
                y = mat_mul(group.field, x_inv, group.reps[k])
                M[group.class_of[group.index[y]]][k] += 1
        mats.append(M)
    return mats


@pytest.mark.parametrize("q,built", [(3, 7), (5, 10)])
def test_eigenvalue_roots_agree_with_the_scan(q, built, monkeypatch):
    seen = []
    yielded = []

    def recording_charpoly(A, ell):
        seen.append(([row[:] for row in A], ell))
        return _charpoly_mod(A, ell)

    def counting_class_matrices(group):
        for M in _class_matrices(group):
            yielded.append(M)
            yield M

    monkeypatch.setattr(gl_characters, "_charpoly_mod", recording_charpoly)
    monkeypatch.setattr(gl_characters, "_class_matrices", counting_class_matrices)
    group = GLGroup(q, 2)
    dixon_table(group)
    assert seen
    for A, ell in seen:
        assert _roots_mod(_charpoly_mod(A, ell), ell) == eigenvalues_by_scan(A, ell)
    # the split stops before the last class matrix is needed
    assert len(yielded) == built < group.num_classes


@pytest.mark.parametrize("q,n", [(5, 2), (2, 3)])
def test_the_split_takes_no_charpoly_of_a_scalar(q, n, monkeypatch):
    # a class matrix that acts on a space as a scalar splits nothing there
    restrictions = []

    def recording_charpoly(A, ell):
        restrictions.append(all(x == (A[0][0] if i == j else 0)
                                for i, row in enumerate(A) for j, x in enumerate(row)))
        return _charpoly_mod(A, ell)

    monkeypatch.setattr(gl_characters, "_charpoly_mod", recording_charpoly)
    dixon_table(GLGroup(q, n))
    assert restrictions and not any(restrictions)


@pytest.mark.parametrize("q", [2, 3])
def test_class_matrix_generator_matches_eager_list(q):
    group = GLGroup(q, 2)
    assert list(_class_matrices(group)) == eager_class_matrices(group)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_dl_correspondence_matches_product_oracle(q, n):
    data = CorrespondenceData(GLGroup(q, n))
    for j in range(q ** n - 1):
        if not is_generic(q, n, j):
            continue
        ind = induce_from_torus(data.group, data.torus, j)
        oracle = [idx for idx in data.cuspidal_indices
                  if data.table.irreducibles[idx] * data.st == ind]
        assert oracle == [dl_correspondence(data, j)]


def test_cuspidal_match_raises_on_none_and_on_several():
    # dl_correspondence raises on no and on several cuspidal solutions, and
    # correspondence_report names the first such theta as a failed check;
    # with no orbit matched, no check that reads the matched orbits passes
    data = CorrespondenceData(GLGroup(2, 2))
    ind = induce_from_torus(data.group, data.torus, 1)
    # with both one-dimensional characters as candidates, two solve pi * St = Ind
    data.cuspidal_indices = [i for i, d in enumerate(data.table.degrees) if d == 1]
    assert _cuspidal_matches(data, ind) == data.cuspidal_indices
    assert _cuspidal_matches(data, ind.scale(2)) == []
    unmatched = {"bijection_onto_cuspidals"}
    for candidates, failure in ((data.cuspidal_indices, "multiple cuspidal solutions"),
                                ([], "no cuspidal solution")):
        data.cuspidal_indices = candidates
        with pytest.raises(VerificationError, match=f"^{failure} for theta_1$"):
            dl_correspondence(data, 1)
        rep = correspondence_report(2, 2, data)
        failed = {c["name"]: c["details"] for c in rep["checks"] if c["status"] == "fail"}
        assert failed.pop("orbit_maps_to_single_pi") == f"{failure} for theta_1"
        assert set(failed) == unmatched
        assert rep["orbits"] == [{"thetas": [1, 2], "pi": None}]
        assert rep["cuspidal_part"] == [] and not rep["all_pass"]


def orthogonality_by_inner_products(data, report):
    """Oracle: <pi_a, pi_b> = delta_orbit by an exact inner product for
    every pair of orbits."""
    reps = [(tuple(o["thetas"]), o["pi"]) for o in report["orbits"]]
    ok = True
    for a, (orb_a, pi_a) in enumerate(reps):
        for orb_b, pi_b in reps[a:]:
            chi_a = data.table.irreducibles[pi_a]
            chi_b = data.table.irreducibles[pi_b]
            if chi_a.inner(chi_b) != (1 if orb_a == orb_b else 0):
                ok = False
    return ok


def check_status(report, name):
    (check,) = [c for c in report["checks"] if c["name"] == name]
    return check["status"] == "pass"


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (5, 2)])
def test_orbit_orthogonality_matches_inner_product_oracle(q, n, monkeypatch):
    # distinct orbits on orthogonal rows is part of the bijection check
    data = CorrespondenceData(GLGroup(q, n))
    rep = correspondence_report(q, n, data)
    assert (check_status(rep, "bijection_onto_cuspidals")
            is orthogonality_by_inner_products(data, rep) is True)
    if len(rep["orbits"]) < 2:
        return
    # send every theta to one cuspidal: distinct orbits now share a row
    first = data.cuspidal_indices[0]
    monkeypatch.setattr(gl_characters, "_cuspidal_matches", lambda data, ind: [first])
    rep = correspondence_report(q, n, data)
    assert (check_status(rep, "bijection_onto_cuspidals")
            is orthogonality_by_inner_products(data, rep) is False)


def failed_checks(report):
    return {c["name"]: c["details"] for c in report["checks"] if c["status"] == "fail"}


@pytest.mark.parametrize("q,n", [(3, 2), (2, 3)])
def test_a_doctored_cuspidal_row_fails_the_orbit_check_naming_theta(q, n):
    # the pi of the first orbit gets twice its degree at the identity class,
    # so pi * St = Ind theta has no cuspidal solution there: a wrong
    # cuspidal dimension or degree identity fails orbit_maps_to_single_pi
    data = CorrespondenceData(GLGroup(q, n))
    orbits = correspondence_report(q, n, data)["orbits"]
    pi = orbits[0]["pi"]
    chi = data.table.irreducibles[pi]
    values = list(chi.values)
    values[data.group.identity_class] = values[data.group.identity_class] * 2
    data.table.irreducibles[pi] = ClassFunction(data.group, values)
    rep = correspondence_report(q, n, data)
    others = sorted(o["pi"] for o in orbits[1:])
    assert failed_checks(rep) == {
        "orbit_maps_to_single_pi": f"no cuspidal solution for theta_{orbits[0]['thetas'][0]}",
        "bijection_onto_cuspidals": f"images {others}, cuspidals {data.cuspidal_indices}",
    }


@pytest.mark.parametrize("q,n", [(3, 2), (2, 3)])
def test_a_dropped_cuspidal_flag_fails_the_bijection(q, n):
    # the last cuspidal no longer counts as one: its orbit has no solution,
    # and the images miss a cuspidal
    data = CorrespondenceData(GLGroup(q, n))
    orbits = correspondence_report(q, n, data)["orbits"]
    dropped = data.cuspidal_indices.pop()
    (theta,) = [o["thetas"][0] for o in orbits if o["pi"] == dropped]
    rep = correspondence_report(q, n, data)
    assert failed_checks(rep) == {
        "orbit_maps_to_single_pi": f"no cuspidal solution for theta_{theta}",
        "bijection_onto_cuspidals":
            f"images {data.cuspidal_indices}, cuspidals {data.cuspidal_indices}",
    }


def _random_of_rank(rng, ell, rows, cols, rank):
    """A rows x cols matrix mod ell of rank exactly `rank`: B C with the
    leading rank x rank blocks of B and C invertible."""
    def full(r, c, lead):
        while True:
            M = [[rng.randrange(ell) for _ in range(c)] for _ in range(r)]
            if not rank or det(PrimeField(ell), lead(M)):
                return M
    B = full(rows, rank, lambda M: M[:rank])
    C = full(rank, cols, lambda M: [row[:rank] for row in M])
    return [[sum(B[i][t] * C[t][j] for t in range(rank)) % ell for j in range(cols)]
            for i in range(rows)]


def test_rref_mod_spans_the_row_space_and_gives_the_null_space():
    rng = random.Random(2037)
    shapes = [(1, 1, 1), (1, 4, 0), (3, 5, 2), (5, 3, 3), (6, 6, 4), (8, 8, 8),
              (7, 9, 0), (10, 6, 5), (12, 12, 11)]
    for ell in (241, 337):
        for rows, cols, rank in shapes:
            A = _random_of_rank(rng, ell, rows, cols, rank)
            R, pivots = _rref_mod(A, ell)
            assert len(R) == len(pivots) == rank
            assert pivots == sorted(set(pivots))
            for i, p in enumerate(pivots):
                # the pivot is 1, and the only nonzero entry of its column
                assert [row[p] for row in R] == [int(k == i) for k in range(rank)]
            # each row of A is the combination of R read off at the pivots;
            # with rank(R) = rank(A), the row spaces are equal
            for a in A:
                assert [x % ell for x in a] == [
                    sum(a[p] * row[j] for p, row in zip(pivots, R)) % ell for j in range(cols)]
            null = _nullspace_mod(A, ell)
            assert len(null) == cols - rank
            for v in null:
                assert all(sum(x * y for x, y in zip(a, v)) % ell == 0 for a in A)
            # independent: each vector has a 1 at its own free column, 0 at the others
            free = [j for j in range(cols) if j not in pivots]
            assert [[v[j] for j in free] for v in null] == [
                [int(i == k) for k in range(len(free))] for i in range(len(free))]


def split_by_solving(group, mats, ell):
    """The split as the solve-based version computed it (the oracle): each
    class matrix is restricted to an eigenspace basis by solving one linear
    system per basis vector, and each null space by its own elimination."""
    def solve(cols, target):
        k = len(cols)
        A = [[cols[c][i] % ell for c in range(k)] + [target[i] % ell]
             for i in range(len(target))]
        used = []
        for c in range(k):
            piv = next((i for i in range(len(used), len(A)) if A[i][c]), None)
            if piv is None:
                continue
            r0 = len(used)
            A[r0], A[piv] = A[piv], A[r0]
            inv = pow(A[r0][c], ell - 2, ell)
            A[r0] = [v * inv % ell for v in A[r0]]
            for i in range(len(A)):
                if i != r0 and A[i][c]:
                    A[i] = [(x - A[i][c] * y) % ell for x, y in zip(A[i], A[r0])]
            used.append(c)
        x = [0] * k
        for i, c in enumerate(used):
            x[c] = A[i][k]
        return x

    def nullspace(A):
        n = len(A)
        M = [row[:] for row in A]
        pivots = {}
        for c in range(n):
            rank = len(pivots)
            piv = next((i for i in range(rank, n) if M[i][c] % ell), None)
            if piv is None:
                continue
            M[rank], M[piv] = M[piv], M[rank]
            inv = pow(M[rank][c], ell - 2, ell)
            M[rank] = [v * inv % ell for v in M[rank]]
            for i in range(n):
                if i != rank and M[i][c] % ell:
                    M[i] = [(x - M[i][c] * y) % ell for x, y in zip(M[i], M[rank])]
            pivots[c] = rank
        out = []
        for c in range(n):
            if c not in pivots:
                v = [0] * n
                v[c] = 1
                for pc, pr in pivots.items():
                    v[pc] = -M[pr][c] % ell
                out.append(v)
        return out

    r = group.num_classes
    spaces = [[[int(i == j) for j in range(r)] for i in range(r)]]
    for M in mats:
        new_spaces = []
        for basis in spaces:
            k = len(basis)
            if k == 1:
                new_spaces.append(basis)
                continue
            images = [[sum(M[i][j] * b[j] for j in range(r)) % ell for i in range(r)]
                      for b in basis]
            R = [solve(basis, col) for col in images]  # R[c]: coordinates of M b_c
            Rt = [[R[c][i] for c in range(k)] for i in range(k)]
            for lam in eigenvalues_by_scan(Rt, ell):
                A = [[(Rt[i][j] - (lam if i == j else 0)) % ell for j in range(k)]
                     for i in range(k)]
                new_spaces.append([[sum(x * b[i] for x, b in zip(coeffs, basis)) % ell
                                    for i in range(r)] for coeffs in nullspace(A)])
        spaces = new_spaces
        if all(len(s) == 1 for s in spaces):
            break
    return [s[0] for s in spaces]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_echelon_split_matches_the_solve_based_split(q):
    group = GLGroup(q, 2)
    ell = _split_prime(group.exponent, max(2 * isqrt(group.order), 2))

    def normalized(v):
        inv = pow(next(x for x in v if x), ell - 2, ell)
        return [x * inv % ell for x in v]

    new = _split_common_eigenspaces(group, _class_matrices(group), ell)
    old = split_by_solving(group, _class_matrices(group), ell)
    assert len(new) == len(old) == group.num_classes
    assert [normalized(v) for v in new] == [normalized(v) for v in old]
