"""Lubin-Tate formal O-modules over W(F_q)/p^N.

The module of height n over W = W(F_q) is that of f = pX + X^{q^n}: by the
Lubin-Tate lemma (J. Lubin and J. Tate, "Formal complex multiplication in
local fields", Ann. of Math. 81, 1965) its law F, and each scalar [a] for a
in Z_p, is the unique series with linear part X + Y, resp. aX, that
commutes with f.  f lies in Z[X], so `commuting_series` solves F and each
integer scalar over the integers mod p^M, embedded into W(F_q)/p^N by
from_int; a Teichmuller scalar zeta of W is zeta X, from the Witt ring.
[p] = f exactly, and all later identities are exact mod (p^N, deg D).
"""

from .errors import ParameterError, VerificationError
from .ffield import field_for_order
from .series import SeriesRing, TruncatedSeries
from .witt import witt_ring


def default_degree(q, n):
    return q ** n + q


def correction_rounds(q, n, D):
    """J, the number of degrees d = 1 mod Q - 1 with Q <= d < D, Q = q^n:
    the only degrees `commuting_series` corrects."""
    Q = q ** n
    return len(range(Q, D, Q - 1))


def commuting_series(linear, Q, rounds):
    """The unique series L = linear + O(deg 2) in X_1, ..., X_k that commutes
    with f = pX + X^Q, f(L) = L(f(X_1), ..., f(X_k)), over the integers mod
    p^M, M = N + rounds.

    Each round takes the residual R = pL + L^Q - L o f at its lowest nonzero
    degree d, and adds to L the correction c_d of `cancelling_terms`: a term
    c X^e with |e| = d changes R by (p - p^d) c X^e in degree d, and
    elsewhere only in degrees >= d + Q - 1, so R_d vanishes.  The loop ends
    when R = 0 at working precision, which is the build's check.

    Precision: f, L^Q and L o f keep every term in a total degree = 1 mod
    Q - 1, so only the `rounds` = J degrees of that class with Q <= d < D
    are ever corrected, and a residual that survives J + 1 rounds is a
    VerificationError.  Each correction divides by p once, and the
    coefficients at the j-th corrected degree depend only on lower ones,
    so they are exact mod p^(M - j); with M = N + J all of L is exact mod
    p^N.
    """
    ring = linear.ring
    p, one = ring.domain.from_int(ring.domain.p), ring.domain.one()
    images = {v: ring.var(v, p) + ring.monomial(tuple(Q * (w == v) for w in ring.vars), one)
              for v in ring.vars}
    series, composite = linear, linear.substitute(images)
    for _ in range(rounds + 1):
        residual = series.scale(p) + series ** Q - composite
        if residual.is_zero():
            return series
        correction = cancelling_terms(residual, residual.lowest_degree())
        # L o f is linear in L, so only the correction is substituted
        series, composite = series + correction, composite + correction.substitute(images)
    raise VerificationError(f"the residual pL + L^Q - L o f survives {rounds + 1} rounds")


def cancelling_terms(residual, d):
    """c_d = (R_d / p) (p^(d-1) - 1)^(-1) for the degree-d part R_d of a
    residual over the integers mod p^M.  Each coefficient of R_d must be
    divisible by p: f = X^Q mod p and c^p = c mod p for an integer c give
    L^Q = L o f mod p, the Lubin-Tate congruence."""
    dom = residual.ring.domain
    p, pM = dom.p, dom.pN
    unit = pow(p ** (d - 1) - 1, -1, pM)
    terms = {}
    for e, c in residual.terms.items():
        if sum(e) == d:
            if c % p:
                raise VerificationError(f"the residual is not divisible by p in degree {d}")
            terms[e] = c // p * unit % pM
    return TruncatedSeries(residual.ring, terms)


class FormalModule:
    """A formal O-module (F, [.]) over W/p^N."""

    def __init__(self, q, n, N, D):
        self.q = q
        self.n = n
        self.N = N
        self.D = D
        self.field = field_for_order(q)
        self.p = self.field.p
        self.rounds = correction_rounds(q, n, D)
        # the series that the recursion solves, over Z/p^(N + rounds)
        self.work_ring = SeriesRing(witt_ring(self.p, 1, N + self.rounds), ("X",), D)
        self.x_ring = SeriesRing(witt_ring(self.p, self.field.f, N), ("X",), D)
        xy_ring = SeriesRing(self.work_ring.domain, ("X", "Y"), D)
        self.F = self.embed(commuting_series(xy_ring.var("X") + xy_ring.var("Y"), q ** n,
                                             self.rounds))   # over W/p^N, vars (X, Y)
        self._scalars = {}
        self._coefficients = {}

    def embed(self, series):
        """A series over Z/p^(N + rounds) in W(F_q)/p^N, each coefficient's
        residue mod p^N by from_int."""
        witt = self.x_ring.domain
        return series.map_coeffs(SeriesRing(witt, series.ring.vars, self.D), witt.from_int)

    # -- scalar series ---------------------------------------------------------

    def scalar_coefficient(self, key):
        """The scalar as a raw value of W/p^N, the coefficient ring of F,
        built once per key."""
        if key not in self._coefficients:
            witt = self.F.ring.domain
            self._coefficients[key] = (witt.teichmuller(key[1]) if key[0] == "teich"
                                       else witt.from_int(key[1]))
        return self._coefficients[key]

    def scalar_series(self, key):
        """[a](X) for a scalar key ('int', k) or ('teich', k).

        An integer scalar [k] is the series with linear part kX that
        commutes with f.  A Teichmuller scalar is zeta X: [zeta] and zeta X
        both have linear part zeta X and commute with [p], since every
        exponent of f is 1 mod q - 1 (Lubin-Tate, 1965).  It is checked
        exactly to commute with [p].
        """
        key = normalize_scalar_key(self.field, key)
        if key not in self._scalars:
            if key[0] == "teich":
                zeta = self.scalar_coefficient(key)
                series = self.x_ring.var("X", zeta)
                pi = self.scalar_series(("int", self.p))
                if pi.substitute({"X": series}) != pi.scale(zeta):
                    raise VerificationError(f"[p](zeta X) != zeta [p](X) for {key}")
            else:
                work = self.work_ring
                series = self.embed(commuting_series(
                    work.var("X", work.domain.from_int(key[1])), self.q ** self.n, self.rounds))
            self._scalars[key] = series
        return self._scalars[key]

    def scalar_table(self):
        """All [a] used downstream: small integers, p, Teichmuller lifts."""
        keys = [("int", 0), ("int", 1), ("int", -1), ("int", self.p)]
        keys += [("teich", k) for k in range(1, self.q)]
        out = {}
        for k in keys:
            nk = normalize_scalar_key(self.field, k)
            out[nk] = self.scalar_series(nk)
        return out

    # -- formal operations -------------------------------------------------------

    def formal_add(self, a, b):
        """F(a, b) for zero-constant series in a host ring over the same W/p^N."""
        host = a.ring
        if host != b.ring:
            raise ParameterError("formal_add arguments in different rings")
        if host.degree > self.F.ring.degree:
            raise ParameterError("host ring exceeds the module degree bound")
        assignments = {"X": a, "Y": b}
        return self.F.substitute(assignments, host)

    def formal_sum(self, args):
        """Left fold of F over the list (order is irrelevant up to truncation)."""
        if not args:
            raise ParameterError("formal_sum of an empty list")
        acc = args[0]
        for s in args[1:]:
            acc = self.formal_add(acc, s)
        return acc

    def __repr__(self):
        return f"FormalModule(q={self.q}, n={self.n}, N={self.N}, D={self.D})"


def normalize_scalar_key(field, key):
    kind, v = key
    if kind == "int":
        return ("int", v)
    if kind == "teich":
        v = v % field.q
        if v == 0:
            return ("int", 0)
        if v == 1:
            return ("int", 1)
        return ("teich", v)
    raise ParameterError(f"unknown scalar key {key!r}")


def lubin_tate_module(q, n, N=8, D=None):
    """The height-n module: [p] = f = pX + X^{q^n} over W(F_q)/p^N exactly."""
    D = default_degree(q, n) if D is None else D
    if n < 1:
        raise ParameterError("height must be >= 1")
    if D <= q ** n:
        raise ParameterError(f"degree bound {D} must exceed q^n = {q ** n}")
    module = FormalModule(q, n, N, D)
    x = module.x_ring.var("X")
    f = x.scale(x.ring.domain.from_int(module.p)) + x ** q ** n
    if module.scalar_series(("int", module.p)) != f:
        raise VerificationError("the recursion from pX does not return f")
    return module
