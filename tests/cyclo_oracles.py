"""Exact arithmetic in Q(zeta_m), the oracle ring for the character tests.

The package holds a character value as its coordinate tuple in the power
basis 1, z, ..., z^{phi(m)-1} of Z[zeta_m] and forms it only through
`cyclo.from_powers`.  The tests compute with values here: sums, products,
complex conjugation, rewriting at a multiple conductor and exact inner
products (`dot`).  Each power of zeta and each product is reduced by long
division by Phi_m, so none of it goes through the package's power table.
"""

from math import gcd

from ltdl.cyclo import cyclotomic_poly, euler_phi


def reduce_mod_phi(m, poly):
    """The remainder of an ascending coefficient list on division by the
    monic Phi_m, as its phi(m) coordinates."""
    mod = cyclotomic_poly(m)
    phi = len(mod) - 1
    poly = list(poly) + [0] * max(phi - len(poly), 0)
    for k in range(len(poly) - 1, phi - 1, -1):
        c = poly[k]
        if c:
            for j, a in enumerate(mod):
                poly[k - phi + j] -= c * a
    return tuple(poly[:phi])


def _exponent_map(m, coeffs, k):
    """sum_i coeffs[i] zeta_m^{i k}, x^{i k mod m} reduced by division."""
    poly = [0] * m
    for i, c in enumerate(coeffs):
        poly[i * k % m] += c
    return reduce_mod_phi(m, poly)


class Cyclo:
    """An element of Q(zeta_m) with exact coordinates in the power basis.

    Coordinates are kept as given: ints stay ints through every ring
    operation, and Fractions appear only when a caller passes one.  Equal
    elements may have different conductors and coordinates, so an element
    has no hash.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        if len(coeffs) != euler_phi(m):
            raise ValueError(f"need {euler_phi(m)} coefficients for conductor {m}")
        self.m = m
        self.coeffs = tuple(coeffs)

    @staticmethod
    def zero(m=1):
        return Cyclo(m, (0,) * euler_phi(m))

    @staticmethod
    def rational(r, m=1):
        return Cyclo(m, (r,) + (0,) * (euler_phi(m) - 1))

    @staticmethod
    def zeta(m, power=1):
        return Cyclo(m, reduce_mod_phi(m, [0] * (power % m) + [1]))

    def coerce(self, M):
        """Rewrite in Q(zeta_M); m must divide M."""
        if M == self.m:
            return self
        if M % self.m:
            raise ValueError(f"conductor {self.m} does not divide {M}")
        return Cyclo(M, _exponent_map(M, self.coeffs, M // self.m))

    @staticmethod
    def common(a, b):
        M = a.m * b.m // gcd(a.m, b.m)
        return a.coerce(M), b.coerce(M)

    def __add__(self, other):
        if not isinstance(other, Cyclo):
            other = Cyclo.rational(other)
        a, b = Cyclo.common(self, other)
        return Cyclo(a.m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.m, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Cyclo):
            other = Cyclo.rational(other)
        a, b = Cyclo.common(self, other)
        return dot(a.m, (1,), (a,), (b,))

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugation zeta -> zeta^{-1}."""
        return Cyclo(self.m, _exponent_map(self.m, self.coeffs, -1))

    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self}")
        return self.coeffs[0]

    def __eq__(self, other):
        if not isinstance(other, Cyclo):
            if not hasattr(other, "denominator"):  # a rational: an int or a Fraction
                return NotImplemented
            other = Cyclo.rational(other)
        a, b = Cyclo.common(self, other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        return f"Cyclo({self.m}, {list(self.coeffs)})"


def dot(m, weights, xs, ys):
    """sum_k weights[k] * xs[k] * ys[k] for elements of Q(zeta_m), the
    products accumulated unreduced and reduced once."""
    phi = euler_phi(m)
    conv = [0] * (2 * phi - 1)
    for w, x, y in zip(weights, xs, ys):
        if x.m != m or y.m != m:
            raise ValueError(f"dot product needs conductor {m}")
        yc = [(j, c) for j, c in enumerate(y.coeffs) if c]
        for i, a in enumerate(x.coeffs):
            if a:
                for j, c in yc:
                    conv[i + j] += w * a * c
    return Cyclo(m, reduce_mod_phi(m, conv))


def values_at(m, chi):
    """A class function of the package (coordinate tuples at conductor m, or
    ints) as oracle elements."""
    return [Cyclo.rational(v, m) if isinstance(v, int) else Cyclo(m, v) for v in chi]
