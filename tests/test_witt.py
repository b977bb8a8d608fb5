import random
from fractions import Fraction

import pytest
from witt_oracles import div_p, from_digits

from ltdl.errors import DenominatorOverflow, IntegralityError, ParameterError, PrecisionError
from ltdl.witt import BoundedPadic, PadicParams, witt_ring


def rand_value(rng, R):
    """A random raw value of R: its coordinates drawn mod p^N."""
    return R.from_coords(rng.randrange(R.pN) for _ in range(R.f))


def mul_p(x, k):
    """p^k x, exactly: the valuation and the absolute precision move by k."""
    return BoundedPadic(x.params, x.val + k, x.unit, x.abs + k)


def test_arith_matches_integers_mod_pN_f1():
    # Oracle: for f = 1 the ring is Z/p^N on the nose.
    rng = random.Random(7)
    for p, N in [(2, 8), (3, 6), (5, 4)]:
        R = witt_ring(p, 1, N)
        m = p ** N
        for _ in range(500):
            a, b = rng.randrange(m), rng.randrange(m)
            assert R.add(R.from_coords((a,)), R.from_coords((b,))) == (a + b) % m
            assert R.mul(R.from_int(a), R.from_int(b)) == (a * b) % m
            assert R.coords(R.neg(R.from_coords((a,)))) == ((-a) % m,)


def test_ring_axioms_randomized_f2():
    rng = random.Random(11)
    R = witt_ring(2, 2, 5)
    add, mul = R.add, R.mul
    for _ in range(200):
        a, b, c = (rand_value(rng, R) for _ in range(3))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)


def test_reduction_mod_p_is_ring_map():
    rng = random.Random(13)
    R = witt_ring(3, 2, 4)
    field = R.field
    for _ in range(100):
        a, b = rand_value(rng, R), rand_value(rng, R)
        assert R.residue(R.mul(a, b)) == field.mul(R.residue(a), R.residue(b))
        assert R.residue(R.add(a, b)) == field.add(R.residue(a), R.residue(b))


def power_by_products(R, a, e):
    """a^e by e - 1 multiplications, independent of the ring's pow."""
    out = a
    for _ in range(e - 1):
        out = R.mul(out, a)
    return out


def test_teichmuller_of_two_mod_81():
    # Oracle: x = 2 mod 3 with x^2 = 1 mod 3^4 forces x = -1 = 80; check by
    # squaring the computed lift directly.
    R = witt_ring(3, 1, 4)
    t = R.teichmuller(2)
    assert R.mul(t, t) == R.one()
    assert R.residue(t) == 2
    assert R.coords(t) == (80,)


def test_teichmuller_trivial_cases():
    R = witt_ring(5, 1, 6)
    assert R.teichmuller(1) == R.one()
    assert R.teichmuller(0) == R.zero()


def test_teichmuller_multiplicative_order():
    for (p, f, N) in [(2, 2, 5), (3, 2, 4), (2, 3, 6), (7, 1, 5)]:
        R = witt_ring(p, f, N)
        q = p ** f
        for a in range(1, q):
            t = R.teichmuller(a)
            assert power_by_products(R, t, q - 1) == R.one()
            assert R.pow(t, q - 1) == R.one()
            assert R.residue(t) == a


def test_digits_roundtrip():
    rng = random.Random(17)
    for (p, f, N) in [(2, 1, 6), (3, 2, 4), (2, 3, 4)]:
        R = witt_ring(p, f, N)
        for _ in range(40):
            w = rand_value(rng, R)
            ds = R.digits(w)
            assert len(ds) == N
            assert all(0 <= d < R.field.q for d in ds)
            assert from_digits(R, ds) == w


def test_inverse_of_units():
    # the p-adic inverse of a unit mantissa is its inverse mod p^(abs - val)
    rng = random.Random(23)
    for (p, N) in [(2, 8), (3, 5), (5, 4)]:
        P = PadicParams(p, N, 2)
        for _ in range(50):
            k = rng.randrange(1, p ** N)
            if k % p:
                x = P.from_int(k)
                assert (x * x.inv()).to_witt() == 1
                assert x.inv().to_witt() == pow(k, -1, p ** N)
        with pytest.raises(ZeroDivisionError):
            P.from_int(p ** P.n_work).inv()


def test_valuation():
    # p^v * unit: the valuation is extracted when a value is formed, and a
    # value zero at the working precision has no unit
    P = PadicParams(2, 6, 2)
    zero = P.from_int(0)
    assert (zero.val, zero.unit, zero.abs) == (P.n_work, None, P.n_work)
    assert (P.from_int(1).val, P.from_int(1).unit) == (0, 1)
    assert (P.from_int(12).val, P.from_int(12).unit) == (2, 3)
    assert (P.from_int(16).val, P.from_int(16).unit) == (4, 1)
    assert (P.from_int(12) - P.from_int(4)).val == 3


def test_mixed_parameters_rejected():
    # p-adics from two parameter sets neither add nor multiply
    a = PadicParams(2, 4, 2).from_int(3)
    for other in (PadicParams(2, 5, 2), PadicParams(3, 4, 2), PadicParams(2, 4, 3)):
        b = other.from_int(3)
        for combine in (lambda x, y: x + y, lambda x, y: x * y):
            with pytest.raises(ParameterError, match="mixed p-adic parameter sets"):
                combine(a, b)
    assert (a + PadicParams(2, 4, 2).from_int(1)).to_witt() == 4


# -- bounded-denominator p-adics ---------------------------------------------


def params(p=2, N=6, v=4):
    return PadicParams(p, N, v)


def test_padic_div_and_roundtrip():
    P = params()
    x = P.from_int(12)  # 4 * 3
    y = div_p(x, 2)
    assert y.val == 0 and y.to_witt(4) == 3
    z = mul_p(y, 2)
    assert z.to_witt() == 12
    # the inverse of p^5 has valuation -5, below the floor -v_max = -4
    with pytest.raises(DenominatorOverflow):
        P.from_int(2 ** (P.v_max + 1)).inv()
    assert P.from_int(2 ** P.v_max).inv().val == -P.v_max


def test_padic_integrality_enforced():
    P = params()
    half = div_p(P.from_int(1))
    with pytest.raises(IntegralityError):
        half.to_witt()
    # but 2 * (1/2) = 1 is integral again
    assert (half + half).to_witt() == 1


def test_padic_mul_precision_tracking():
    P = params(p=3, N=5, v=3)
    x = div_p(P.from_int(1), 2)  # 1/9
    y = x * P.from_int(9)
    assert y.val == 0
    assert y.to_witt() == 1


def test_padic_zero_states():
    P = params()
    z = P.zero()
    assert z.is_exact_zero() and z.zero_at(10 ** 9)
    x = P.from_int(6)
    assert (x - x).zero_at(P.n_work)
    assert ((x - x) * x).zero_at(P.n_work)
    assert (z * x).is_exact_zero()
    assert (x + z) == x


def test_padic_ring_identities_randomized():
    rng = random.Random(29)
    P = params(p=3, N=6, v=3)
    m = 3 ** 4

    def rand():
        x = P.from_int(rng.randrange(1, m))
        return div_p(x, rng.randrange(0, 3))

    for _ in range(120):
        a, b, c = rand(), rand(), rand()
        lhs = (a * (b + c))
        rhs = (a * b + a * c)
        diff = lhs - rhs
        assert diff.zero_at(min(lhs.abs, rhs.abs))
        d2 = (a * b) * c - a * (b * c)
        assert d2.zero_at(P.n_target)


def test_padic_inverse():
    P = params(p=5, N=5, v=3)
    x = P.from_int(7)
    assert (x * x.inv() - P.from_int(1)).zero_at(P.n_target)


def test_padic_precision_exhaustion_is_loud():
    P = PadicParams(2, 6, 2)
    x = div_p(P.from_int(1), 2)
    y = mul_p(x, 2)
    # fine at target precision
    assert y.to_witt() == 1
    # asking for more digits than the working precision must fail loudly
    with pytest.raises(PrecisionError):
        y.to_witt(P.n_work + 1)


def test_products_with_a_Zp_factor_agree_with_the_general_product():
    # a factor in Z/p^N multiplies coordinatewise; the identities below mix
    # that path with the full product and reduction by the modulus
    rng = random.Random(31)
    for (p, f, N) in [(2, 2, 5), (3, 2, 4), (2, 6, 8)]:
        R = witt_ring(p, f, N)
        add, mul = R.add, R.mul
        for _ in range(60):
            s, b, c = R.from_int(rng.randrange(R.pN)), rand_value(rng, R), rand_value(rng, R)
            assert mul(s, b) == mul(b, s)
            assert mul(mul(s, b), c) == mul(s, mul(b, c)) == mul(b, mul(c, s))
            assert mul(s, add(b, c)) == add(mul(s, b), mul(s, c))
            assert mul(s, b) == tuple(s[0] * x % R.pN for x in b)


def fraction_to_padic(P, x):
    """The rational x = a / (b p^k), b prime to p, as a BoundedPadic built from
    integers by from_int, inv and the oracle div_p."""
    p, a, b, k = P.p, x.numerator, x.denominator, 0
    while b % p == 0:
        b //= p
        k += 1
    return div_p(P.from_int(a) * P.from_int(b).inv(), k)


@pytest.mark.parametrize("p,N", [(2, 6), (3, 4), (5, 3)])
def test_padic_arithmetic_matches_fractions(p, N):
    # Oracle: exact rationals.  Each result must agree with the rational to
    # the absolute precision it claims; when integral, it must reduce to the
    # rational's residue mod p^N, and when not, to_witt must refuse it
    rng = random.Random(37 + p)
    P = PadicParams(p, N, 6)

    def rand():
        num = rng.randrange(-p ** 4, p ** 4) or 1
        return Fraction(num, rng.randrange(1, p * p + 1) * p ** rng.randrange(2))

    def residue(x, k):
        return x.numerator * pow(x.denominator, -1, p ** k) % p ** k

    def agree(got, want):
        v, unit = 0, want
        while unit and unit.numerator % p == 0:
            unit, v = unit / p, v + 1
        while unit.denominator % p == 0:
            unit, v = unit * p, v - 1
        if got.is_zero_like():
            assert want == 0 or v >= got.abs
        else:
            assert got.val == v and got.unit == residue(unit, got.abs - v)
        if want and v < 0:
            with pytest.raises(IntegralityError):
                got.to_witt()
        else:
            assert got.to_witt() == residue(want, N)

    for _ in range(150):
        x, y = rand(), rand()
        a, b = fraction_to_padic(P, x), fraction_to_padic(P, y)
        agree(a, x)
        agree(a + b, x + y)
        agree(a - b, x - y)
        agree(-a, -x)
        agree(a * b, x * y)
        agree(a.inv(), 1 / x)
        agree(div_p(a), x / p)
