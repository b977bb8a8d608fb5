import random
from fractions import Fraction

import pytest

from ltdl.cyclo import CycloElement, cyclotomic_poly, euler_phi
from ltdl.errors import ParameterError


def test_cyclotomic_polynomials():
    # Oracles: classical closed forms.
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    p = cyclotomic_poly(84)
    assert len(p) == euler_phi(84) + 1 == 25


def test_zeta3_sum_is_minus_one():
    z = CycloElement.zeta(3)
    assert z + z * z == CycloElement.rational(-1, 3)


def test_power_sums_vanish():
    for m in [2, 3, 4, 6, 7, 8, 12, 24]:
        total = CycloElement.zero(m)
        for j in range(m):
            total = total + CycloElement.zeta(m, j)
        assert total.is_zero()


def test_conj_involution_randomized():
    rng = random.Random(31)
    for m in [3, 5, 8, 12]:
        phi = euler_phi(m)
        for _ in range(25):
            z = CycloElement(m, [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                                 for _ in range(phi)])
            assert z.conj().conj() == z
            # conjugation is a ring map
            w = CycloElement(m, [rng.randrange(-4, 5) for _ in range(phi)])
            assert (z * w).conj() == z.conj() * w.conj()
            assert (z + w).conj() == z.conj() + w.conj()


def test_zeta8_squared_is_zeta4():
    z8 = CycloElement.zeta(8)
    z4 = CycloElement.zeta(4)
    assert z8 * z8 == z4


def test_norm_square_nonnegative_rational_on_rationals_of_Q_zeta():
    rng = random.Random(37)
    for m in [3, 4, 5, 12]:
        for _ in range(25):
            z = CycloElement(m, [rng.randrange(-5, 6) for _ in range(euler_phi(m))])
            n2 = z * z.conj()
            # |z|^2 is fixed by conjugation and totally nonnegative; for the
            # rational case we can check the sign directly.
            assert n2.conj() == n2
            if n2.is_rational():
                assert n2.as_rational() >= 0


def test_ring_axioms_randomized():
    rng = random.Random(41)
    m = 12
    phi = euler_phi(m)
    rand = lambda: CycloElement(m, [rng.randrange(-6, 7) for _ in range(phi)])
    for _ in range(60):
        a, b, c = rand(), rand(), rand()
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_coercion_and_mixed_conductors():
    z3 = CycloElement.zeta(3)
    z6 = CycloElement.zeta(6)
    # zeta_6^2 = zeta_3
    assert z6 * z6 == z3
    assert (z3 + z6).m == 6
    with pytest.raises(ParameterError):
        z3.coerce(7)


def test_galois_automorphism():
    # zeta -> zeta^k for k coprime to m, through from_powers, is a ring map
    z7 = CycloElement.zeta(7)
    assert CycloElement.from_powers(7, z7.coeffs, 2) == z7 * z7
    rng = random.Random(43)
    for m, k in [(7, 3), (12, 5), (9, 2)]:
        rand = lambda: CycloElement(m, [rng.randrange(-4, 5) for _ in range(euler_phi(m))])
        galois = lambda z: CycloElement.from_powers(m, z.coeffs, k)
        for _ in range(10):
            a, b = rand(), rand()
            assert galois(a * b) == galois(a) * galois(b)
            assert galois(a + b) == galois(a) + galois(b)


def test_rational_detection():
    z5 = CycloElement.zeta(5)
    s = CycloElement.zero(5)
    for j in range(1, 5):
        s = s + CycloElement.zeta(5, j)
    assert s.is_rational() and s.as_rational() == -1
    with pytest.raises(ParameterError):
        z5.as_rational()


def test_elements_are_unhashable():
    # equal elements may have different conductors and coordinates, so a
    # hash of either would break the hash/eq contract
    assert CycloElement.rational(1) == CycloElement.zeta(4, 0)
    with pytest.raises(TypeError):
        hash(CycloElement.rational(1))
