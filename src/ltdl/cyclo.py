"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are coordinate vectors in the power basis 1, z, ..., z^{phi(m)-1}
modulo the m-th cyclotomic polynomial.  Phi_m is monic, so integer vectors
(Z[zeta_m], where character values live) stay integer under every ring
operation.  Used for character values, where conjugation (z -> z^{-1}) and
exact inner products, reduced once per sum by `dot`, are the workhorses.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import ParameterError, VerificationError


@lru_cache(maxsize=None)
def euler_phi(m):
    out = m
    k, d = m, 2
    while d * d <= k:
        if k % d == 0:
            out -= out // d
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out -= out // k
    return out


def _poly_divmod_monic(num, den):
    """Division of integer polynomial lists (ascending) by a monic divisor;
    the quotient and remainder stay integer."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    quot = [0] * max(dn - dd + 1, 0)
    for k in range(dn, dd - 1, -1):
        c = num[k]
        if c:
            quot[k - dd] = c
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_poly(m):
    """Coefficients (ascending, integer) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ParameterError("conductor must be >= 1")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            quot, rem = _poly_divmod_monic(poly, cyclotomic_poly(d))
            if rem:
                raise VerificationError(f"Phi_{d} does not divide x^{m} - 1")
            poly = quot
    return tuple(poly)


def _reduce(m, conv):
    """Reduce an ascending coefficient list of length < 2 phi(m) modulo the
    monic Phi_m, in place; returns the phi(m) low coefficients."""
    phi = euler_phi(m)
    mod = cyclotomic_poly(m)
    for k in range(len(conv) - 1, phi - 1, -1):
        c = conv[k]
        if c:
            base = k - phi
            for j in range(phi):
                if mod[j]:
                    conv[base + j] -= c * mod[j]
    return conv[:phi]


@lru_cache(maxsize=None)
def _power_table(m):
    """Row j: representation of zeta_m^j in the power basis, j in [0, m)."""
    phi = euler_phi(m)
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(m):
        rows.append(tuple(cur))
        cur = _reduce(m, [0] + cur)
    return tuple(rows)


@lru_cache(maxsize=None)
def _zeta_rows(m):
    """Row j: the nonzero (index, coefficient) pairs of zeta_m^j in the power
    basis, j in [0, m)."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c)
                 for row in _power_table(m))


def _substitute(coeffs, M, k):
    """sum_i coeffs[i] zeta_M^{i k} in the power basis of Q(zeta_M)."""
    rows = _zeta_rows(M)
    out = [0] * euler_phi(M)
    for i, c in enumerate(coeffs):
        if c:
            for j, r in rows[(i * k) % M]:
                out[j] += c * r
    return out


class CycloElement:
    """An element of Q(zeta_m) with exact coordinates in the power basis.

    Coordinates are kept as given: integer coordinates (every character
    value, since Z[zeta_m] is the ring of integers) stay Python ints through
    every ring operation, and Fractions appear only when a caller passes one.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        phi = euler_phi(m)
        if len(coeffs) != phi:
            raise ParameterError(f"need {phi} coefficients for conductor {m}")
        self.m = m
        self.coeffs = tuple(coeffs)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(m=1):
        return CycloElement(m, (0,) * euler_phi(m))

    @staticmethod
    def rational(r, m=1):
        return CycloElement(m, (r,) + (0,) * (euler_phi(m) - 1))

    @staticmethod
    def zeta(m, power=1):
        return CycloElement(m, _power_table(m)[power % m])

    @staticmethod
    def from_powers(M, coeffs, k):
        """sum_i coeffs[i] zeta_M^{i k}."""
        return CycloElement(M, _substitute(coeffs, M, k))

    # -- coercion -------------------------------------------------------------

    def coerce(self, M):
        """Rewrite in Q(zeta_M); m must divide M."""
        if M == self.m:
            return self
        if M % self.m != 0:
            raise ParameterError(f"conductor {self.m} does not divide {M}")
        return CycloElement.from_powers(M, self.coeffs, M // self.m)

    @staticmethod
    def common(a, b):
        if a.m == b.m:
            return a, b
        M = a.m * b.m // gcd(a.m, b.m)
        return a.coerce(M), b.coerce(M)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CycloElement):
            other = CycloElement.rational(other)
        a, b = CycloElement.common(self, other)
        return CycloElement(a.m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return CycloElement(self.m, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, CycloElement):
            other = CycloElement.rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, CycloElement):
            other = CycloElement.rational(other)
        a, b = CycloElement.common(self, other)
        return dot(a.m, (1,), (a,), (b,))

    def __rmul__(self, other):
        return self * other

    def conj(self):
        """Complex conjugation zeta -> zeta^{-1}."""
        return CycloElement.from_powers(self.m, self.coeffs, -1)

    # -- predicates and extraction --------------------------------------------

    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ParameterError(f"not a rational value: {self}")
        return self.coeffs[0]

    def __eq__(self, other):
        if not isinstance(other, CycloElement):
            if isinstance(other, (int, Fraction)):
                other = CycloElement.rational(other)
            else:
                return NotImplemented
        a, b = CycloElement.common(self, other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        if self.is_rational():
            return f"cyc({self.coeffs[0]})"
        return f"cyc(m={self.m}, {[str(c) for c in self.coeffs]})"


def dot(m, weights, xs, ys):
    """sum_k weights[k] * xs[k] * ys[k] for elements of Q(zeta_m).

    The products are accumulated unreduced and reduced modulo Phi_m once.
    """
    phi = euler_phi(m)
    conv = [0] * (2 * phi - 1)
    for w, x, y in zip(weights, xs, ys):
        if x.m != m or y.m != m:
            raise ParameterError(f"dot product needs conductor {m}")
        yc = [(j, c) for j, c in enumerate(y.coeffs) if c]
        for i, a in enumerate(x.coeffs):
            if a:
                wa = w * a
                for j, c in yc:
                    conv[i + j] += wa * c
    return CycloElement(m, _reduce(m, conv))
