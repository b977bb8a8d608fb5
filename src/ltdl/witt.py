"""Truncated Witt rings W(F_{p^f})/p^N.

W(F_{p^f})/p^N is realized as (Z/p^N)[x]/(M(x)) for the integer lift M of the
field modulus chosen by ff_make; any monic lift of an irreducible polynomial
gives the unramified extension, and fixing this one keeps every value
canonical.  A value is raw: its coordinate tuple mod p^N, or an int mod p^N
when f = 1.  Teichmuller lifts come from the x -> x^q fixed-point iteration,
and a value's Teichmuller digits, which only JSON reports use, are read off
by subtracting lifts and dividing by p.  The formal module is solved in
Z/p^M = W(F_p)/p^M, M > N, and embedded by from_int.
"""

from functools import lru_cache

from .errors import IntegralityError, ParameterError, VerificationError
from .ffield import ff_make


@lru_cache(maxsize=None)
def witt_ring(p, f, N):
    if N < 1:
        raise ParameterError(f"precision N = {N} must be >= 1")
    return (WittRing if f > 1 else PrimeWittRing)(p, f, N)


class WittRing:
    """W(F_{p^f})/p^N on raw values, the f-tuples of coordinates mod p^N.

    The ring is the one implementation of the arithmetic on raw values
    (zero, one, from_int, add, neg, mul, pow), for its series and for the
    Teichmuller lifts.  `witt_ring` builds PrimeWittRing for f = 1.
    """

    __slots__ = ("p", "f", "N", "pN", "field", "modulus")

    def __init__(self, p, f, N):
        self.p = p
        self.f = f
        self.N = N
        self.pN = p ** N
        self.field = ff_make(p, f)
        self.modulus = self.field.modulus  # integer lift, ascending, monic

    def __eq__(self, other):
        return (isinstance(other, WittRing)
                and (self.p, self.f, self.N) == (other.p, other.f, other.N))

    def __hash__(self):
        return hash(("witt", self.p, self.f, self.N))

    def __repr__(self):
        return f"W(F_{self.p}^{self.f})/p^{self.N}"

    # -- raw values: the coefficient ring of a series.SeriesRing ---------------

    def zero(self):
        return (0,) * self.f

    def one(self):
        return self.from_int(1)

    def from_int(self, k):
        return (k % self.pN,) + (0,) * (self.f - 1)

    def coords(self, v):
        return v

    def from_coords(self, coords):
        m = self.pN
        return tuple(c % m for c in coords)

    def add(self, a, b):
        m = self.pN
        return tuple((x + y) % m for x, y in zip(a, b))

    def neg(self, a):
        m = self.pN
        return tuple(-x % m for x in a)

    def mul(self, a, b):
        f, m = self.f, self.pN
        # a factor in Z/p^N (F's coefficients all are) scales coordinatewise
        if not any(a[1:]):
            return tuple(a[0] * y % m for y in b)
        if not any(b[1:]):
            return tuple(x * b[0] % m for x in a)
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        # reduce by the monic modulus: x^f = -(c_0 + ... + c_{f-1} x^{f-1})
        for k in range(2 * f - 2, f - 1, -1):
            c = prod[k]
            if c:
                for j in range(f):
                    prod[k - f + j] -= c * self.modulus[j]
        return tuple(c % m for c in prod[:f])

    def pow(self, a, e):
        """a^e for e >= 0, by repeated squaring."""
        result = self.one()
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def is_negligible(self, c):
        return not any(c)

    def residue(self, c):
        """The canonical int of c mod p in the residue field."""
        return self.field.from_coords(self.coords(c))

    def descriptor(self):
        return {"kind": "witt", "p": self.p, "f": self.f, "N": self.N}

    def coeff_to_json(self, c):
        return [self.field.coeff_to_json(d) for d in self.digits(c)]

    def teichmuller(self, a):
        """The multiplicative lift of the residue a, a canonical int of the
        residue field: the unique z = a mod p with z^q = z.  Zero lifts to zero.
        """
        if not a:
            return self.zero()
        q = self.field.q
        z = self.from_coords(self.field.coords(a))
        for _ in range(self.N - 1):
            z = self.pow(z, q)
        if self.pow(z, q) != z:
            raise VerificationError("Teichmuller lift is not fixed by z -> z^q")
        return z

    def digits(self, c):
        """The N Teichmuller digits of c: canonical ints d_i of the residue
        field with c = sum teich(d_i) p^i."""
        ring, out = self, []
        while True:
            d = ring.residue(c)
            out.append(d)
            if ring.N == 1:
                return out
            coords = ring.coords(ring.add(c, ring.neg(ring.teichmuller(d))))
            if any(x % ring.p for x in coords):
                raise IntegralityError("digit remainder not divisible by p")
            ring = witt_ring(ring.p, ring.f, ring.N - 1)
            c = ring.from_coords(x // ring.p for x in coords)


class PrimeWittRing(WittRing):
    """W(F_p)/p^N = Z/p^N, whose raw values are the ints mod p^N."""

    __slots__ = ()

    def zero(self):
        return 0

    def from_int(self, k):
        return k % self.pN

    def coords(self, v):
        return (v,)

    def from_coords(self, coords):
        (c,) = coords
        return c % self.pN

    def add(self, a, b):
        return (a + b) % self.pN

    def neg(self, a):
        return -a % self.pN

    def mul(self, a, b):
        return a * b % self.pN

    def is_negligible(self, c):
        return not c
