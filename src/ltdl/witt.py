"""Truncated Witt rings W(F_{p^f})/p^N and bounded-denominator p-adics in Q_p.

W(F_{p^f})/p^N is realized as (Z/p^N)[x]/(M(x)) for the integer lift M of the
field modulus chosen by ff_make; any monic lift of an irreducible polynomial
gives the unramified extension, and fixing this one keeps every value
canonical.  A value is raw: its coordinate tuple mod p^N, or an int mod p^N
when f = 1.  Teichmuller lifts come from the x -> x^q fixed-point iteration,
and a value's Teichmuller digits, which only JSON reports use, are read off
by subtracting lifts and dividing by p.

BoundedPadic elements are p^v * u in Q_p: an int unit u known modulo
p^(abs - v), with explicit absolute precision abs, supporting inversion
down to a configured valuation floor.  This is what the formal-module
logarithm computes in, and Q_p is all it needs: lambda(f(X)) = p lambda(X)
with f in Z[X] puts every coefficient of lambda, exp, F and [a] for a in Z
in Q_p (Lubin-Tate 1965), and a Teichmuller scalar of W(F_{p^f}) acts as
zeta X over the Witt ring itself.
"""

from functools import lru_cache

from .errors import (DenominatorOverflow, IntegralityError, ParameterError, PrecisionError,
                     VerificationError)
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


class PadicParams:
    """Working parameters for bounded-denominator p-adics in Q_p.

    n_target is the precision the caller ultimately needs; elements carry
    extra working precision so that divisions by p (down to valuation
    -v_max) still leave n_target correct digits at the end.  Conversion to
    a residue mod p^N checks this rather than trusting it.
    """

    __slots__ = ("p", "n_target", "v_max", "n_work")

    def __init__(self, p, n_target, v_max):
        self.p = p
        self.n_target = n_target
        self.v_max = v_max
        self.n_work = n_target + 2 * v_max + 4

    def key(self):
        return (self.p, self.n_target, self.v_max, self.n_work)

    def __eq__(self, other):
        return isinstance(other, PadicParams) and self.key() == other.key()

    def __hash__(self):
        return hash(("padic",) + self.key())

    def __repr__(self):
        return f"Qp(p={self.p},N={self.n_target},Vmax={self.v_max})"

    def zero(self):
        return BoundedPadic(self, None, None, None)

    def from_int(self, k):
        return _normalize(self, 0, k, self.n_work)

    def one(self):
        return self.from_int(1)

    # -- as the coefficient ring of a series.SeriesRing, on BoundedPadic values

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_negligible(self, c):
        # exact zeros always; zero-like values only once they are zero to at
        # least the target precision (dropping them earlier would silently
        # upgrade partial knowledge to an exact statement)
        if c.is_exact_zero():
            return True
        return c.unit is None and c.abs >= self.n_target

    def descriptor(self):
        return {"kind": "padic", "p": self.p, "N": self.n_target,
                "v_max": self.v_max, "n_work": self.n_work}

    def coeff_to_json(self, c):
        if c.is_exact_zero():
            return {"zero": True}
        if c.unit is None:
            return {"ozero": c.abs}
        return {"val": c.val, "abs": c.abs, "unit": c.unit}


class BoundedPadic:
    """Value p^val * unit known modulo p^abs, the unit an int prime to p
    reduced mod p^(abs - val).

    Three states: exact zero (val is None); zero at precision (unit is None,
    val = abs, meaning the value lies in p^abs * Z_p); or a unit mantissa.
    """

    __slots__ = ("params", "val", "unit", "abs")

    def __init__(self, params, val, unit, abs_prec):
        self.params = params
        self.val = val
        self.unit = unit
        self.abs = abs_prec

    # -- state predicates ---------------------------------------------------

    def is_exact_zero(self):
        return self.val is None

    def is_zero_like(self):
        return self.unit is None

    def zero_at(self, n):
        """True if the value is known to be 0 modulo p^n."""
        if self.is_exact_zero():
            return True
        if self.unit is None:
            if self.abs < n:
                raise PrecisionError(
                    f"zero only known mod p^{self.abs}, needed mod p^{n}")
            return True
        return self.val >= n

    def _check(self, other):
        if self.params is not other.params and self.params != other.params:
            raise ParameterError("mixed p-adic parameter sets")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        if self.is_exact_zero():
            return other
        if other.is_exact_zero():
            return self
        abs_prec = min(self.abs, other.abs)
        base = min(self.val, other.val)
        if abs_prec <= base:
            raise PrecisionError("addition lost all precision")
        return _normalize(self.params, base, self._shifted(base) + other._shifted(base),
                          abs_prec)

    def _shifted(self, base):
        """The mantissa of this value written as p^base * (result)."""
        if self.unit is None:
            return 0
        return self.unit * self.params.p ** (self.val - base)

    def __neg__(self):
        if self.unit is None:
            return self
        return BoundedPadic(self.params, self.val,
                            -self.unit % self.params.p ** (self.abs - self.val), self.abs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if self.is_exact_zero() or other.is_exact_zero():
            return self.params.zero()
        if self.unit is None or other.unit is None:
            # O(p^a) * x = O(p^(a + val_x)); if both are O-zeros, add the bounds
            a = self.abs if self.unit is None else self.val
            b = other.abs if other.unit is None else other.val
            return BoundedPadic(self.params, a + b, None, a + b)
        val = self.val + other.val
        abs_prec = min(self.abs + other.val, other.abs + self.val)
        digits = abs_prec - val
        if digits <= 0:
            raise PrecisionError("multiplication lost all precision")
        return BoundedPadic(self.params, val, self.unit * other.unit % self.params.p ** digits,
                            abs_prec)

    def inv(self):
        if self.is_zero_like():
            raise ZeroDivisionError("inversion of (indistinguishable-from-)zero")
        if -self.val < -self.params.v_max:
            raise DenominatorOverflow("inverse below -v_max")
        digits = self.abs - self.val
        return BoundedPadic(self.params, -self.val, pow(self.unit, -1, self.params.p ** digits),
                            digits - self.val)

    def __eq__(self, other):
        """Exact-state equality (same knowledge, not mere congruence)."""
        if not isinstance(other, BoundedPadic) or self.params != other.params:
            return False
        return (self.val, self.abs, self.unit) == (other.val, other.abs, other.unit)

    def __hash__(self):
        return hash((self.params.key(), self.val, self.abs, self.unit))

    # -- output --------------------------------------------------------------

    def to_witt(self, N=None):
        """The residue mod p^N as an int, requiring integrality and enough
        precision; every Witt ring W(F_{p^f})/p^N embeds it by from_int."""
        N = self.params.n_target if N is None else N
        if self.is_exact_zero():
            return 0
        if self.unit is None:
            if self.abs < N:
                raise PrecisionError(
                    f"zero-like value known mod p^{self.abs} < p^{N}")
            return 0
        if self.val < 0:
            raise IntegralityError(f"valuation {self.val} < 0")
        if self.abs < N:
            raise PrecisionError(f"absolute precision {self.abs} < {N}")
        return self._shifted(0) % self.params.p ** N

    def __repr__(self):
        if self.is_exact_zero():
            return "padic(0)"
        if self.unit is None:
            return f"padic(O(p^{self.abs}))"
        return f"padic(p^{self.val}*{self.unit} + O(p^{self.abs}))"


def _normalize(params, base_val, mantissa, abs_prec):
    """p^base_val * mantissa known mod p^abs_prec, its valuation extracted."""
    p = params.p
    mantissa %= p ** (abs_prec - base_val)
    if not mantissa:
        return BoundedPadic(params, abs_prec, None, abs_prec)
    val = base_val
    while mantissa % p == 0:
        mantissa //= p
        val += 1
    return BoundedPadic(params, val, mantissa, abs_prec)
