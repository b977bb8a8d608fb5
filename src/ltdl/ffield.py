"""Finite fields F_{p^f} with a deterministic primitive-polynomial construction.

Elements are canonical integers sum(c_i * p^i) of their coordinates in the
polynomial basis of the chosen modulus.  The modulus is the primitive
polynomial of degree f over F_p whose coefficient vector (c_0, ..., c_{f-1})
encodes to the smallest integer, so the same (p, f) always yields
bit-identical field descriptions.  Its root g generates F_{p^f}^x, and all
arithmetic runs on three arrays indexed by canonical ints: exp (g^k), log
and the Zech logarithms zech[k] = log(1 + g^k) (Lidl-Niederreiter, Finite
Fields, ch. 10).  The polynomials over a field at the end of this module are
the one F_q[x] used for moduli, Coxeter polynomials and rational canonical
forms.
"""

from functools import cached_property, lru_cache

from .errors import ParameterError, VerificationError

MAX_FIELD_SIZE = 1 << 20
MAX_DEGREE = 8


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n):
    """Sorted distinct prime factors of n (trial division; n <= 2^20 here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _encode(coeffs, base):
    k = 0
    for c in reversed(coeffs):
        k = k * base + c
    return k


def _decode(k, base, length):
    out = []
    for _ in range(length):
        k, c = divmod(k, base)
        out.append(c)
    return tuple(out)


class FieldDesc:
    """Description of F_{p^f}: the modulus and the log/Zech kernel.

    The kernel methods (add, neg, sub, mul, inv, pow, zero, one) act on
    canonical ints, the one form of a field value, which are also the raw
    coefficients of F_q series; its arrays are built on first use, in O(q),
    from the generator g, the root of the modulus.
    """

    def __init__(self, p, f, modulus):
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = modulus  # ascending coeffs, length f+1, monic
        self._log_minus_one = (self.q - 1) // 2 if p > 2 else 0

    @cached_property
    def exp(self):
        """exp[k] = g^k for 0 <= k < 2(q - 1), so a sum of two logs needs no %;
        exp[1] is the generator g, the root of the modulus."""
        p = self.p
        c = [1] + [0] * (self.f - 1)
        out = []
        for _ in range(self.q - 1):
            out.append(_encode(c, p))
            top = c[-1]  # multiply by the root g of the modulus
            c = [(lo - top * m) % p for lo, m in zip([0] + c[:-1], self.modulus)]
        return out + out

    @cached_property
    def log(self):
        """log[g^k] = k; log[0] is None."""
        out = [None] * self.q
        for k, v in enumerate(self.exp[:self.q - 1]):
            out[v] = k
        if out.count(None) != 1:
            raise ParameterError(f"the root of {self.modulus} is not primitive")
        return out

    @cached_property
    def zech(self):
        """zech[k] = log(1 + g^k); None where 1 + g^k = 0."""
        p, log = self.p, self.log
        return [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in self.exp[:self.q - 1]]

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log = self.log
        z = self.zech[log[b] - log[a]]  # a negative index wraps mod q - 1
        return 0 if z is None else self.exp[log[a] + z]

    def neg(self, a):
        return self.exp[self.log[a] + self._log_minus_one] if a else 0

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]] if a and b else 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inversion of zero field element")
        return self.exp[self.q - 1 - self.log[a]]

    def pow(self, a, e):
        if not a:
            if e < 0:
                raise ZeroDivisionError("inversion of zero field element")
            return 0 if e else 1
        return self.exp[self.log[a] * e % (self.q - 1)]

    def __eq__(self, other):
        return (isinstance(other, FieldDesc)
                and (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus))

    def __hash__(self):
        return hash((self.p, self.f, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.f})"

    def coords(self, a):
        """The coordinates of a in the polynomial basis, (c_0, ..., c_{f-1})."""
        return _decode(a, self.p, self.f)

    def from_coords(self, coords):
        """The canonical int with the given coordinates, each reduced mod p."""
        return _encode([c % self.p for c in coords], self.p)

    # -- as the coefficient ring of a series.SeriesRing, on canonical ints ----

    def zero(self):
        return 0

    def one(self):
        return 1

    def is_negligible(self, c):
        return not c

    def descriptor(self):
        return {"kind": "fq", "p": self.p, "f": self.f}

    def coeff_to_json(self, c):
        return list(self.coords(c))


@lru_cache(maxsize=None)
def ff_make(p, f):
    """Deterministic construction of F_{p^f}.

    The modulus is the first primitive polynomial in the canonical coefficient
    order; its root x is the generator exp[1] (for f = 1 the generator is the
    root -c_0, the largest primitive root mod p).
    """
    if not is_prime(p):
        raise ParameterError(f"p = {p} is not prime")
    if not (1 <= f <= MAX_DEGREE):
        raise ParameterError(f"extension degree f = {f} outside [1, {MAX_DEGREE}]")
    if p ** f > MAX_FIELD_SIZE:
        raise ParameterError(f"p^f = {p ** f} exceeds {MAX_FIELD_SIZE}")
    return FieldDesc(p, f, primitive_poly_over(PrimeField(p), f))


def field_for_order(q):
    """The canonical field with q = p^f elements."""
    for p in prime_factors(q):
        f = 0
        m = q
        while m % p == 0:
            m //= p
            f += 1
        if m == 1:
            return ff_make(p, f)
    raise ParameterError(f"q = {q} is not a prime power")


def _evaluate(field, coeffs, x):
    """sum c_i x^i in field, for coefficients c_i in its prime field F_p."""
    out = 0
    for c in reversed(coeffs):
        out = field.add(field.mul(out, x), c)
    return out


@lru_cache(maxsize=None)
def _embedding_root(sub, sup):
    """Deterministic root of sub.modulus inside sup (smallest canonical int)."""
    if sub.p != sup.p or sup.f % sub.f != 0:
        raise ParameterError(f"no embedding {sub} -> {sup}")
    if sub.f == sup.f:
        if sub != sup:
            raise ParameterError("distinct field descriptions of equal degree")
        return sub.exp[1]
    # the roots lie in the subfield of order sub.q, whose units are the
    # powers of g^((sup.q - 1) / (sub.q - 1))
    step = (sup.q - 1) // (sub.q - 1)
    roots = [r for r in sup.exp[:sup.q - 1:step] if not _evaluate(sup, sub.modulus, r)]
    if not roots:
        raise ParameterError(f"modulus of {sub} has no root in {sup}")
    return min(roots)


def embed(x, sub, sup):
    """The image of x in sub under the deterministic subfield embedding into sup."""
    if sub == sup:
        return x
    return _evaluate(sup, sub.coords(x), _embedding_root(sub, sup))


def moebius(n):
    out = 1
    for ell in prime_factors(n):
        if n % (ell * ell) == 0:
            return 0
        out = -out
    return out


def gaussian_binomial(n, d, q):
    """Number of d-dimensional F_q-subspaces of F_q^n (exact integer)."""
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (d - i) - 1
    value, rem = divmod(num, den)
    if rem:
        raise VerificationError(f"[{n} choose {d}]_{q} is not an integer")
    return value


# -- polynomials over a field: canonical-int coefficients, ascending, trimmed --


class PrimeField:
    """Z/p on ints with the add/neg/sub/mul/inv of FieldDesc: the coefficient
    field of the search that builds F_{p^f} itself, before any kernel exists."""

    def __init__(self, p):
        self.p = self.q = p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)


def poly_trim(c):
    i = len(c)
    while i and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_mul(field, a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return poly_trim(out)


def poly_sub(field, a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for j, bj in enumerate(b):
        out[j] = field.sub(out[j], bj)
    return poly_trim(out)


def poly_divmod(field, a, b):
    """Divide a by b; b must be nonzero. Returns (quot, rem)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    inv_lead = field.inv(b[-1])
    quot = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        if a[k]:
            c = field.mul(a[k], inv_lead)
            quot[k - db] = c
            for j, bj in enumerate(b):
                a[k - db + j] = field.sub(a[k - db + j], field.mul(c, bj))
    return poly_trim(quot), poly_trim(a)


def poly_monic(field, a):
    if not a or a[-1] == 1:
        return a
    inv = field.inv(a[-1])
    return tuple(field.mul(c, inv) for c in a)


def poly_powmod(field, a, e, m):
    result = (1,)
    base = poly_divmod(field, a, m)[1]
    while e:
        if e & 1:
            result = poly_divmod(field, poly_mul(field, result, base), m)[1]
        base = poly_divmod(field, poly_mul(field, base, base), m)[1]
        e >>= 1
    return result


def primitive_poly_over(field, n):
    """Smallest-encoding monic primitive polynomial of degree n over field.

    No irreducibility filter is needed: if x has order q^n - 1 modulo m, the
    q^n-element ring F_q[x]/(m) has q^n - 1 units, so it is a field.
    """
    q = field.q
    order = q ** n - 1
    for code in range(q ** n):
        cand = _decode(code, q, n) + (1,)
        if (poly_powmod(field, (0, 1), order, cand) == (1,)
                and all(poly_powmod(field, (0, 1), order // ell, cand) != (1,)
                        for ell in prime_factors(order))):
            return cand
    raise ParameterError(f"no primitive polynomial of degree {n} over F_{q}")
