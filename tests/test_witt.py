import random

import pytest

from ltdl.errors import DenominatorOverflow, IntegralityError, PrecisionError
from ltdl.witt import BoundedPadic, PadicParams, WittElement, from_digits, witt_ring


def from_coeffs(R, coeffs):
    """The element of W(F_{p^f})/p^N with the given coordinates mod p^N."""
    return R.elem(coeffs)


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
            assert (R.elem((a,)) + R.elem((b,))).coeffs[0] == (a + b) % m
            assert (R.elem((a,)) * R.elem((b,))).coeffs[0] == (a * b) % m
            assert (-R.elem((a,))).coeffs[0] == (-a) % m


def test_ring_axioms_randomized_f2():
    rng = random.Random(11)
    R = witt_ring(2, 2, 5)
    rand = lambda: from_coeffs(R, (rng.randrange(R.pN), rng.randrange(R.pN)))
    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a


def test_reduction_mod_p_is_ring_map():
    rng = random.Random(13)
    R = witt_ring(3, 2, 4)
    rand = lambda: from_coeffs(R, (rng.randrange(R.pN), rng.randrange(R.pN)))
    for _ in range(100):
        a, b = rand(), rand()
        assert (a * b).reduce_mod_p() == a.reduce_mod_p() * b.reduce_mod_p()
        assert (a + b).reduce_mod_p() == a.reduce_mod_p() + b.reduce_mod_p()


def test_teichmuller_of_two_mod_81():
    # Oracle: x = 2 mod 3 with x^2 = 1 mod 3^4 forces x = -1 = 80; check by
    # squaring the computed lift directly.
    R = witt_ring(3, 1, 4)
    t = R.teichmuller(R.field.from_int(2))
    assert (t * t) == WittElement(R, R.one())
    assert t.reduce_mod_p() == R.field.from_int(2)
    assert t.coeffs == (80,)


def test_teichmuller_trivial_cases():
    R = witt_ring(5, 1, 6)
    assert R.teichmuller(R.field.from_int(1)) == WittElement(R, R.one())
    assert R.teichmuller(R.field.from_int(0)) == WittElement(R, R.zero())


def test_teichmuller_multiplicative_order():
    for (p, f, N) in [(2, 2, 5), (3, 2, 4), (2, 3, 6), (7, 1, 5)]:
        R = witt_ring(p, f, N)
        q = p ** f
        for a in R.field.elements()[1:]:
            t = R.teichmuller(a)
            assert t ** (q - 1) == WittElement(R, R.one())
            assert t.reduce_mod_p() == a


def test_digits_roundtrip():
    rng = random.Random(17)
    for (p, f, N) in [(2, 1, 6), (3, 2, 4), (2, 3, 4)]:
        R = witt_ring(p, f, N)
        for _ in range(40):
            w = from_coeffs(R, tuple(rng.randrange(R.pN) for _ in range(f)))
            ds = w.digits()
            assert len(ds) == N
            assert from_digits(R, ds) == w


def test_sigma_identity_for_prime_field():
    R = witt_ring(3, 1, 5)
    for k in [0, 1, 5, 80, 121]:
        assert R.elem((k,)).sigma() == R.elem((k,))


def test_sigma_on_teichmuller_f2():
    # sigma(teich(x)) = teich(x^2) = teich(x+1) in W(F_4)/8.
    R = witt_ring(2, 2, 3)
    x = R.field.generator
    assert R.teichmuller(x).sigma() == R.teichmuller(x.frobenius())
    assert x.frobenius() == x * x
    assert (x * x).coeffs == (1, 1)
    # sigma is a ring homomorphism of order f
    rng = random.Random(19)
    for _ in range(50):
        a = from_coeffs(R, (rng.randrange(8), rng.randrange(8)))
        b = from_coeffs(R, (rng.randrange(8), rng.randrange(8)))
        assert (a * b).sigma() == a.sigma() * b.sigma()
        assert (a + b).sigma() == a.sigma() + b.sigma()
        assert a.sigma().sigma() == a


def test_inverse_of_units():
    rng = random.Random(23)
    for (p, f, N) in [(2, 1, 8), (3, 2, 5), (2, 3, 4)]:
        R = witt_ring(p, f, N)
        for _ in range(50):
            w = from_coeffs(R, tuple(rng.randrange(R.pN) for _ in range(f)))
            if not w.reduce_mod_p().is_zero():
                assert w * w.inv() == WittElement(R, R.one())
        with pytest.raises(ZeroDivisionError):
            WittElement(R, R.from_int(p)).inv()


def test_valuation():
    R = witt_ring(2, 2, 6)
    assert WittElement(R, R.zero()).valuation() == 6
    assert WittElement(R, R.one()).valuation() == 0
    assert from_coeffs(R, (4, 8)).valuation() == 2
    assert from_coeffs(R, (0, 16)).valuation() == 4


def test_mixed_parameters_rejected():
    from ltdl.errors import ParameterError

    a = witt_ring(2, 1, 4).elem((1,))
    b = witt_ring(2, 1, 5).elem((1,))
    c = witt_ring(3, 1, 4).elem((1,))
    for other in (b, c):
        with pytest.raises(ParameterError):
            a + other


# -- bounded-denominator p-adics ---------------------------------------------


def params(p=2, f=1, N=6, v=4):
    return PadicParams(p, f, N, v)


def test_padic_div_and_roundtrip():
    P = params()
    x = P.from_int(12)  # 4 * 3
    y = x.div_p(2)
    assert y.val == 0 and y.to_witt(4).coeffs[0] == 3
    z = mul_p(y, 2)
    assert z.to_witt().coeffs[0] == 12
    with pytest.raises(DenominatorOverflow):
        P.from_int(1).div_p(5)


def test_padic_integrality_enforced():
    P = params()
    half = P.from_int(1).div_p()
    with pytest.raises(IntegralityError):
        half.to_witt()
    # but 2 * (1/2) = 1 is integral again
    assert (half + half).to_witt() == witt_ring(2, 1, 6).elem((1,))


def test_padic_mul_precision_tracking():
    P = params(p=3, N=5, v=3)
    x = P.from_int(1).div_p(2)  # 1/9
    y = x * P.from_int(9)
    assert y.val == 0
    assert y.to_witt().coeffs[0] == 1


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
    P = params(p=3, f=1, N=6, v=3)
    m = 3 ** 4

    def rand():
        x = P.from_int(rng.randrange(1, m))
        return x.div_p(rng.randrange(0, 3))

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
    P = PadicParams(2, 1, 6, 2, pad=0)
    x = P.from_int(1).div_p(2)
    y = mul_p(x, 2)
    # fine at target precision
    assert y.to_witt() == witt_ring(2, 1, 6).elem((1,))
    # asking for more digits than the working precision must fail loudly
    with pytest.raises(PrecisionError):
        y.to_witt(7)


def test_products_with_a_Zp_factor_agree_with_the_general_product():
    # a factor in Z/p^N multiplies coordinatewise; the identities below mix
    # that path with the full product and reduction by the modulus
    rng = random.Random(31)
    for (p, f, N) in [(2, 2, 5), (3, 2, 4), (2, 6, 8)]:
        R = witt_ring(p, f, N)
        rand = lambda: from_coeffs(R, [rng.randrange(R.pN) for _ in range(f)])
        for _ in range(60):
            s, b, c = from_coeffs(R, [rng.randrange(R.pN)] + [0] * (f - 1)), rand(), rand()
            assert s * b == b * s
            assert (s * b) * c == s * (b * c) == b * (c * s)
            assert s * (b + c) == s * b + s * c
            assert (s * b).coeffs == tuple(s.coeffs[0] * x % R.pN for x in b.coeffs)
