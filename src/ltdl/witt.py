"""Truncated Witt rings W(F_{p^f})/p^N and bounded-denominator p-adics.

W(F_{p^f})/p^N is realized as (Z/p^N)[x]/(M(x)) for the integer lift M of the
field modulus chosen by ff_make; any monic lift of an irreducible polynomial
gives the unramified extension, and fixing this one keeps every value
canonical.  Teichmuller digits are recovered by the x -> x^q fixed-point
iteration, so the digit view and the polynomial view are interchangeable.

BoundedPadic elements are p^v * u with a unit mantissa and explicit absolute
precision, supporting division by p down to a configured valuation floor.
This is what the formal-module logarithms compute in.
"""

from functools import lru_cache

from .errors import DenominatorOverflow, IntegralityError, ParameterError, PrecisionError
from .ffield import ff_make


@lru_cache(maxsize=None)
def witt_ring(p, f, N):
    if N < 1:
        raise ParameterError(f"precision N = {N} must be >= 1")
    return WittRing(p, f, N)


class WittRing:
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

    def zero(self):
        return WittElement(self, (0,) * self.f)

    def one(self):
        return self.from_int(1)

    def from_int(self, k):
        return WittElement(self, (k % self.pN,) + (0,) * (self.f - 1))

    def from_coeffs(self, coeffs):
        if len(coeffs) != self.f:
            raise ParameterError(f"need {self.f} coefficients")
        return WittElement(self, tuple(c % self.pN for c in coeffs))

    def naive_lift(self, a):
        """Coefficientwise lift of a field element (not Teichmuller)."""
        if a.desc != self.field:
            raise ParameterError("field element from the wrong residue field")
        return WittElement(self, tuple(a.coeffs) + ())

    def teichmuller(self, a):
        """The multiplicative lift: the unique x = a mod p with x^q = x.

        Zero lifts to zero.
        """
        if a.desc != self.field:
            raise ParameterError("field element from the wrong residue field")
        if a.is_zero():
            return self.zero()
        z = self.naive_lift(a)
        for _ in range(self.N - 1):
            z = z ** self.field.q
        assert z ** self.field.q == z
        return z


class WittElement:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other):
        if self.ring != other.ring:
            raise ParameterError("mixed Witt rings")

    def __add__(self, other):
        self._check(other)
        m = self.ring.pN
        return WittElement(self.ring, tuple((a + b) % m for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        m = self.ring.pN
        return WittElement(self.ring, tuple((a - b) % m for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        m = self.ring.pN
        return WittElement(self.ring, tuple((-a) % m for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        r = self.ring
        f, m = r.f, r.pN
        if f == 1:
            return WittElement(r, ((self.coeffs[0] * other.coeffs[0]) % m,))
        prod = [0] * (2 * f - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] = (prod[i + j] + a * b) % m
        # reduce by the monic modulus: x^f = -(c_0 + ... + c_{f-1} x^{f-1})
        for k in range(2 * f - 2, f - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(f):
                    prod[k - f + j] = (prod[k - f + j] - c * r.modulus[j]) % m
        return WittElement(r, tuple(prod[:f]))

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self):
        return not any(self.coeffs)

    def is_unit(self):
        return not self.reduce_mod_p().is_zero()

    def reduce_mod_p(self):
        """The residue in F_{p^f} (this is digit 0)."""
        return self.ring.field.elem(self.coeffs)

    def valuation(self):
        """p-adic valuation; returns ring.N for the zero element."""
        best = self.ring.N
        for c in self.coeffs:
            if c:
                v = 0
                while c % self.ring.p == 0:
                    c //= self.ring.p
                    v += 1
                best = min(best, v)
        return best

    def div_exact_p(self, k=1):
        """Divide by p^k; every coefficient must be divisible."""
        pk = self.ring.p ** k
        if any(c % pk for c in self.coeffs):
            raise IntegralityError("element not divisible by p^%d" % k)
        target = witt_ring(self.ring.p, self.ring.f, self.ring.N - k)
        return WittElement(target, tuple((c // pk) % target.pN for c in self.coeffs))

    def inv(self):
        """Inverse of a unit, by Hensel lifting from the residue field."""
        r = self.ring
        u0 = self.reduce_mod_p()
        if u0.is_zero():
            raise ZeroDivisionError("inversion of a non-unit Witt element")
        z = r.naive_lift(u0.inv())
        prec = 1
        two = r.from_int(2)
        while prec < r.N:
            z = z * (two - self * z)
            prec *= 2
        assert (self * z - r.one()).is_zero()
        return z

    def truncate(self, M):
        """Reduce modulo p^M (M <= N)."""
        if M > self.ring.N:
            raise PrecisionError("cannot extend Witt precision")
        target = witt_ring(self.ring.p, self.ring.f, M)
        return WittElement(target, tuple(c % target.pN for c in self.coeffs))

    def digits(self):
        """The N Teichmuller digits d_i with value = sum teich(d_i) p^i."""
        out = []
        cur = self
        for i in range(self.ring.N):
            d = cur.reduce_mod_p()
            out.append(d)
            if i < self.ring.N - 1:
                cur = (cur - cur.ring.teichmuller(d)).div_exact_p()
        return out

    def sigma(self):
        """The Frobenius lift: teich(a) -> teich(a^p), extended p-linearly."""
        return from_digits(self.ring, [d.frobenius() for d in self.digits()])

    def __eq__(self, other):
        return (isinstance(other, WittElement)
                and self.ring == other.ring and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring.p, self.ring.f, self.ring.N, self.coeffs))

    def __repr__(self):
        return f"w{list(self.coeffs)}"


def from_digits(ring, digits):
    if len(digits) != ring.N:
        raise ParameterError(f"need exactly {ring.N} digits")
    out = ring.zero()
    pk = 1
    for d in digits:
        t = ring.teichmuller(d)
        out = out + WittElement(ring, tuple((c * pk) % ring.pN for c in t.coeffs))
        pk *= ring.p
    return out


class PadicParams:
    """Working parameters for bounded-denominator p-adics.

    n_target is the precision the caller ultimately needs; elements carry
    extra working precision so that divisions by p (down to valuation
    -v_max) still leave n_target correct digits at the end.  Conversion to
    a Witt element checks this rather than trusting it.
    """

    __slots__ = ("p", "f", "n_target", "v_max", "n_work")

    def __init__(self, p, f, n_target, v_max, pad=None):
        self.p = p
        self.f = f
        self.n_target = n_target
        self.v_max = v_max
        self.n_work = n_target + (2 * v_max + 4 if pad is None else pad)

    def key(self):
        return (self.p, self.f, self.n_target, self.v_max, self.n_work)

    def __eq__(self, other):
        return isinstance(other, PadicParams) and self.key() == other.key()

    def __hash__(self):
        return hash(("padic",) + self.key())

    def __repr__(self):
        return f"Qp(p={self.p},f={self.f},N={self.n_target},Vmax={self.v_max})"

    def zero(self):
        return BoundedPadic(self, None, None, None)

    def from_int(self, k):
        ring = witt_ring(self.p, self.f, self.n_work)
        return self.from_witt(ring.from_int(k))

    def from_witt(self, w):
        if w.ring.N < self.n_work:
            raise PrecisionError("witt element below working precision")
        return _normalize(self, 0, w.truncate(self.n_work))

    def from_teichmuller(self, a):
        ring = witt_ring(self.p, self.f, self.n_work)
        return self.from_witt(ring.teichmuller(a))

    def one(self):
        return self.from_int(1)


class BoundedPadic:
    """Value p^val * unit known modulo p^abs (abs = val + unit precision).

    Three states: exact zero (val is None); zero at precision (unit is None,
    val = abs, meaning the value lies in p^abs * W); or a unit mantissa.
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
        if self.params != other.params:
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
        digits = abs_prec - base
        if digits <= 0:
            raise PrecisionError("addition lost all precision")
        ring = witt_ring(self.params.p, self.params.f, digits)
        total = self._fixed_point(ring, base) + other._fixed_point(ring, base)
        return _normalize(self.params, base, total, abs_prec)

    def _fixed_point(self, ring, base):
        """This value as p^base * (result), in the given ring."""
        if self.unit is None:
            return ring.zero()
        shift = self.val - base
        pk = self.params.p ** shift
        m = ring.pN
        return WittElement(ring, tuple((c * pk) % m for c in self.unit.coeffs))

    def __neg__(self):
        if self.unit is None:
            return self
        return BoundedPadic(self.params, self.val, -self.unit, self.abs)

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
        unit = self.unit.truncate(digits) * other.unit.truncate(digits)
        return BoundedPadic(self.params, val, unit, abs_prec)

    def div_p(self, k=1):
        """Divide by p^k (a valuation shift); enforces the v_max floor."""
        if self.is_exact_zero():
            return self
        if self.val - k < -self.params.v_max:
            raise DenominatorOverflow(
                f"valuation {self.val - k} below -v_max = {-self.params.v_max}")
        return BoundedPadic(self.params, self.val - k, self.unit, self.abs - k)

    def mul_p(self, k=1):
        if self.is_exact_zero():
            return self
        return BoundedPadic(self.params, self.val + k, self.unit, self.abs + k)

    def sigma(self):
        """The Frobenius lift applied to the mantissa (fixes p-powers)."""
        if self.unit is None:
            return self
        return BoundedPadic(self.params, self.val, self.unit.sigma(), self.abs)

    def inv(self):
        if self.is_zero_like():
            raise ZeroDivisionError("inversion of (indistinguishable-from-)zero")
        if -self.val < -self.params.v_max:
            raise DenominatorOverflow("inverse below -v_max")
        inv_unit = self.unit.inv()
        return BoundedPadic(self.params, -self.val, inv_unit,
                            -self.val + inv_unit.ring.N)

    def __eq__(self, other):
        """Exact-state equality (same knowledge, not mere congruence)."""
        if not isinstance(other, BoundedPadic) or self.params != other.params:
            return False
        return (self.val, self.abs, self.unit) == (other.val, other.abs, other.unit)

    def __hash__(self):
        return hash((self.params.key(), self.val, self.abs,
                     None if self.unit is None else self.unit.coeffs))

    # -- output --------------------------------------------------------------

    def to_witt(self, N=None):
        """Convert to W/p^N, requiring integrality and enough precision."""
        N = self.params.n_target if N is None else N
        ring = witt_ring(self.params.p, self.params.f, N)
        if self.is_exact_zero():
            return ring.zero()
        if self.unit is None:
            if self.abs < N:
                raise PrecisionError(
                    f"zero-like value known mod p^{self.abs} < p^{N}")
            return ring.zero()
        if self.val < 0:
            raise IntegralityError(f"valuation {self.val} < 0")
        if self.abs < N:
            raise PrecisionError(f"absolute precision {self.abs} < {N}")
        return self._fixed_point(ring, 0)

    def __repr__(self):
        if self.is_exact_zero():
            return "padic(0)"
        if self.unit is None:
            return f"padic(O(p^{self.abs}))"
        return f"padic(p^{self.val}*{list(self.unit.coeffs)} + O(p^{self.abs}))"


def _normalize(params, base_val, fixed, abs_prec=None):
    """Build a BoundedPadic from p^base_val * fixed with valuation extraction."""
    if abs_prec is None:
        abs_prec = base_val + fixed.ring.N
    v = fixed.valuation()
    if v >= fixed.ring.N:
        return BoundedPadic(params, abs_prec, None, abs_prec)
    unit = fixed.div_exact_p(v) if v else fixed
    digits = abs_prec - (base_val + v)
    return BoundedPadic(params, base_val + v, unit.truncate(digits), abs_prec)
