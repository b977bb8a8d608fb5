"""Values in the cyclotomic ring Z[zeta_m].

A value is its coordinate tuple in the power basis 1, z, ..., z^{phi(m)-1}
modulo the m-th cyclotomic polynomial.  Phi_m is monic, so integer
coordinates stay integer under reduction.  Character values are formed by
`from_powers` alone, from eigenvalue multiplicities and from counts of a
torus character's values, and are compared and hashed as plain tuples.
"""

from functools import lru_cache

from .errors import ParameterError, VerificationError
from .ffield import prime_factors


@lru_cache(maxsize=None)
def euler_phi(m):
    for p in prime_factors(m):
        m -= m // p
    return m


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
    """Coefficients (ascending, integer) of the m-th cyclotomic polynomial.

    For p the least prime factor of m = p k: Phi_m(x) = Phi_k(x^p) when p
    divides k (so Phi_m(x) = Phi_rad(m)(x^(m / rad m))), and Phi_k(x^p) /
    Phi_k(x) otherwise, one exact division per prime factor of m.
    """
    if m < 1:
        raise ParameterError("conductor must be >= 1")
    if m == 1:
        return (-1, 1)
    p = next(p for p in range(2, m + 1) if m % p == 0)
    inner = cyclotomic_poly(m // p)
    poly = [0] * (p * (len(inner) - 1) + 1)  # Phi_k(x^p)
    poly[::p] = inner
    if (m // p) % p:
        poly, rem = _poly_divmod_monic(poly, inner)
        if rem:
            raise VerificationError(f"Phi_{m // p}(x) does not divide Phi_{m // p}(x^{p})")
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(m):
    """Row j: representation of zeta_m^j in the power basis, j in [0, m)."""
    phi, mod = euler_phi(m), cyclotomic_poly(m)
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _ in range(m):
        rows.append(tuple(cur))
        cur = _poly_divmod_monic([0] + cur, mod)[1]  # x zeta^j mod Phi_m
        cur += [0] * (phi - len(cur))
    return tuple(rows)


@lru_cache(maxsize=None)
def _zeta_rows(m):
    """Row j: the nonzero (index, coefficient) pairs of zeta_m^j in the power
    basis, j in [0, m)."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c)
                 for row in _power_table(m))


def from_powers(M, coeffs, k):
    """sum_i coeffs[i] zeta_M^{i k}, as its phi(M) power-basis coordinates."""
    rows = _zeta_rows(M)
    out = [0] * euler_phi(M)
    for i, c in enumerate(coeffs):
        if c:
            for j, r in rows[(i * k) % M]:
                out[j] += c * r
    return tuple(out)
