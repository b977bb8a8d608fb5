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
    assert F2.exp[1] == 1


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
    assert F4.coords(F4.exp[1]) == (0, 1)


def order_by_powering(F, a):
    """The least k >= 1 with a^k = 1, by repeated multiplication."""
    cur, k = a, 1
    while cur != 1:
        cur, k = F.mul(cur, a), k + 1
    return k


def test_f3_generator_has_order_two():
    F3 = ff_make(3, 1)
    g = F3.exp[1]
    assert g == 2
    # Oracle: direct powering.
    assert F3.mul(g, g) == 1
    assert order_by_powering(F3, g) == 2


def test_f4_x_times_x():
    F4 = ff_make(2, 2)
    x = F4.exp[1]
    # Oracle: reduce x^2 mod x^2+x+1 by long division.
    quot, rem = poly_divmod(PrimeField(2), (0, 0, 1), (1, 1, 1))
    assert quot == (1,) and rem == (1, 1)
    assert F4.coords(F4.mul(x, x)) == (1, 1)  # x + 1


def test_add_zero_and_field_axioms_randomized():
    rng = random.Random(20240811)
    for (p, f) in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 1)]:
        F = ff_make(p, f)
        add, mul = F.add, F.mul
        for _ in range(60):
            a, b, c = (rng.randrange(F.q) for _ in range(3))
            assert add(a, F.zero()) == a
            assert mul(a, F.one()) == a
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert add(a, F.neg(a)) == 0
            if a:
                assert mul(a, F.inv(a)) == 1


def test_frobenius_order_f():
    # x -> x^p, the arithmetic Frobenius over F_p, has order f
    F9 = ff_make(3, 2)
    for a in range(F9.q):
        assert F9.pow(F9.pow(a, 3), 3) == a
    F8 = ff_make(2, 3)
    for a in range(F8.q):
        assert F8.pow(F8.pow(F8.pow(a, 2), 2), 2) == a
        # frobenius is x -> x^p
        assert F8.pow(a, 2) == F8.mul(a, a)


def test_generator_is_primitive():
    for (p, f) in [(2, 2), (3, 2), (2, 3), (5, 1), (7, 1), (2, 4)]:
        F = ff_make(p, f)
        assert order_by_powering(F, F.exp[1]) == F.q - 1


def test_determinism_bit_identical():
    a = ff_make(3, 2)
    b = ff_make(3, 2)
    assert a is b  # cached
    # and value-level equality of a fresh reconstruction path
    assert a.modulus == b.modulus and a.exp == b.exp


def test_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        ff_make(4, 1)
    with pytest.raises(ParameterError):
        ff_make(2, 0)
    with pytest.raises(ParameterError):
        ff_make(2, 9)
    with pytest.raises(ParameterError):
        ff_make(1031, 2)  # 1031^2 > 2^20


def test_inversion_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ff_make(2, 2).inv(0)


def test_field_for_order():
    assert field_for_order(8) == ff_make(2, 3)
    assert field_for_order(9) == ff_make(3, 2)
    with pytest.raises(ParameterError):
        field_for_order(6)


def test_embedding_respects_arithmetic():
    sub = ff_make(2, 2)
    sup = ff_make(2, 4)
    image = [embed(a, sub, sup) for a in range(sub.q)]
    assert image[:2] == [0, 1]
    for a in range(sub.q):
        for b in range(sub.q):
            assert image[sub.mul(a, b)] == sup.mul(image[a], image[b])
            assert image[sub.add(a, b)] == sup.add(image[a], image[b])
    # the embedding respects the subfield: images satisfy x^4 = x, and it
    # is injective
    assert all(sup.pow(img, 4) == img for img in image)
    assert len(set(image)) == sub.q


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
        assert (F.modulus, F.exp[1]) == (modulus, gen), (p, f)
    for (q, n), poly in FROZEN_COXETER.items():
        assert primitive_poly_over(field_for_order(q), n) == poly, (q, n)
