import random

import pytest

from ltdl.errors import ParameterError
from ltdl.ffield import (
    PrimeField,
    embed,
    ff_make,
    field_for_order,
    gaussian_binomial,
    poly_divmod,
    poly_mul,
    primitive_poly_over,
)


def test_f2_base_field():
    F2 = ff_make(2, 1)
    assert F2.modulus == (1, 1)  # x + 1
    assert F2.generator.canonical_int() == 1


def test_f4_unique_irreducible_quadratic():
    # Oracle: exhaustively verify x^2+x+1 is the only irreducible monic
    # quadratic over F_2, so the construction has no freedom.
    irred = []
    for c0 in range(2):
        for c1 in range(2):
            cand = (c0, c1, 1)
            has_root = any(
                (r * r + c1 * r + c0) % 2 == 0 for r in range(2)
            )
            if not has_root:
                irred.append(cand)
    assert irred == [(1, 1, 1)]
    F4 = ff_make(2, 2)
    assert F4.modulus == (1, 1, 1)
    assert F4.generator.coeffs == (0, 1)


def test_f3_generator_has_order_two():
    F3 = ff_make(3, 1)
    g = F3.generator
    assert g.canonical_int() == 2
    # Oracle: direct powering.
    assert (g * g).canonical_int() == 1
    assert g.multiplicative_order() == 2


def test_f4_x_times_x():
    F4 = ff_make(2, 2)
    x = F4.generator
    # Oracle: reduce x^2 mod x^2+x+1 by long division.
    quot, rem = poly_divmod(PrimeField(2), (0, 0, 1), (1, 1, 1))
    assert quot == (1,) and rem == (1, 1)
    assert (x * x).coeffs == (1, 1)  # x + 1


def test_add_zero_and_field_axioms_randomized():
    rng = random.Random(20240811)
    for (p, f) in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 1)]:
        F = ff_make(p, f)
        els = F.elements()
        for _ in range(60):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert a + F.zero() == a
            assert a * F.one() == a
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a * a.inv() == F.one()


def test_frobenius_order_f():
    F9 = ff_make(3, 2)
    for a in F9.elements():
        assert a.frobenius().frobenius() == a
    F8 = ff_make(2, 3)
    for a in F8.elements():
        assert a.frobenius().frobenius().frobenius() == a
        # frobenius is x -> x^p
        assert a.frobenius() == a * a


def test_generator_is_primitive():
    for (p, f) in [(2, 2), (3, 2), (2, 3), (5, 1), (7, 1), (2, 4)]:
        F = ff_make(p, f)
        assert F.generator.multiplicative_order() == F.q - 1


def test_determinism_bit_identical():
    a = ff_make(3, 2)
    b = ff_make(3, 2)
    assert a is b  # cached
    # and value-level equality of a fresh reconstruction path
    assert a.modulus == b.modulus and a.generator == b.generator


def test_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        ff_make(4, 1)
    with pytest.raises(ParameterError):
        ff_make(2, 0)
    with pytest.raises(ParameterError):
        ff_make(2, 9)
    with pytest.raises(ParameterError):
        ff_make(1031, 2)  # 1031^2 > 2^20


def test_mixed_field_arithmetic_rejected():
    a = ff_make(2, 1).one()
    b = ff_make(3, 1).one()
    with pytest.raises(ParameterError):
        a + b


def test_inversion_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ff_make(2, 2).zero().inv()


def test_field_for_order():
    assert field_for_order(8) == ff_make(2, 3)
    assert field_for_order(9) == ff_make(3, 2)
    with pytest.raises(ParameterError):
        field_for_order(6)


def test_embedding_respects_arithmetic():
    sub = ff_make(2, 2)
    sup = ff_make(2, 4)
    for a in sub.elements():
        for b in sub.elements():
            assert embed(a * b, sup) == embed(a, sup) * embed(b, sup)
            assert embed(a + b, sup) == embed(a, sup) + embed(b, sup)
    # the embedding respects the subfield: images satisfy x^4 = x
    for a in sub.elements():
        img = embed(a, sup)
        assert img ** 4 == img


def test_gaussian_binomial():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(2, 1, 3) == 4


def test_kernel_matches_schoolbook_oracle():
    # Oracle: coordinates in the polynomial basis, schoolbook products over
    # Z/p reduced by the modulus; no log, exp or Zech array is involved.
    for (p, f) in [(2, 3), (3, 2), (5, 2), (3, 3), (2, 6), (3, 4)]:
        F = ff_make(p, f)
        Fp = PrimeField(p)
        coords = [tuple((k // p ** i) % p for i in range(f)) for k in range(F.q)]
        encode = lambda c: sum(ci * p ** i for i, ci in enumerate(c))

        def oracle_mul(a, b):
            return encode(poly_divmod(Fp, poly_mul(Fp, coords[a], coords[b]), F.modulus)[1])

        for a in range(F.q):
            power = 1
            for b in range(F.q):
                assert F.mul(a, b) == oracle_mul(a, b), (p, f, a, b)
                assert F.add(a, b) == encode([(x + y) % p for x, y in
                                              zip(coords[a], coords[b])])
                assert F.pow(a, b) == power, (p, f, a, b)
                power = oracle_mul(power, a)
            if a:
                assert oracle_mul(a, F.inv(a)) == 1


# Frozen at the commit before the log/Zech kernel: (p, f) -> (modulus,
# canonical int of the generator), then (q, n) -> the Coxeter polynomial.
FROZEN_FIELDS = {
    (2, 1): ((1, 1), 1),
    (2, 2): ((1, 1, 1), 2),
    (2, 3): ((1, 1, 0, 1), 2),
    (2, 4): ((1, 1, 0, 0, 1), 2),
    (2, 5): ((1, 0, 1, 0, 0, 1), 2),
    (2, 6): ((1, 1, 0, 0, 0, 0, 1), 2),
    (2, 7): ((1, 1, 0, 0, 0, 0, 0, 1), 2),
    (2, 8): ((1, 0, 1, 1, 1, 0, 0, 0, 1), 2),
    (3, 1): ((1, 1), 2),
    (3, 2): ((2, 1, 1), 3),
    (3, 3): ((1, 2, 0, 1), 3),
    (3, 4): ((2, 1, 0, 0, 1), 3),
    (3, 5): ((1, 2, 0, 0, 0, 1), 3),
    (3, 6): ((2, 1, 0, 0, 0, 0, 1), 3),
    (3, 7): ((1, 2, 1, 0, 0, 0, 0, 1), 3),
    (5, 1): ((2, 1), 3),
    (5, 2): ((2, 1, 1), 5),
    (5, 3): ((2, 3, 0, 1), 5),
    (5, 4): ((2, 2, 1, 0, 1), 5),
    (7, 1): ((2, 1), 5),
    (7, 2): ((3, 1, 1), 7),
    (7, 3): ((2, 3, 0, 1), 7),
}
FROZEN_COXETER = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (2, 1, 1),
    (4, 2): (2, 1, 1),
    (5, 2): (2, 1, 1),
    (7, 2): (3, 1, 1),
    (8, 1): (2, 1),
}


def test_field_descriptions_frozen():
    for (p, f), (modulus, gen) in FROZEN_FIELDS.items():
        F = ff_make(p, f)
        assert (F.modulus, F.generator.canonical_int()) == (modulus, gen), (p, f)
    for (q, n), poly in FROZEN_COXETER.items():
        assert primitive_poly_over(field_for_order(q), n) == poly, (q, n)
