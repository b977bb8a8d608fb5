import random

from witt_oracles import from_digits

from ltdl.witt import witt_ring


def rand_value(rng, R):
    """A random raw value of R: its coordinates drawn mod p^N."""
    return R.from_coords(rng.randrange(R.pN) for _ in range(R.f))


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
