"""Lubin-Tate formal O-modules over W(F_q)/p^N.

The module of height n over W = W(F_q) is built from f = pX + X^{q^n}
with the classical logarithm determined by

    lambda(f(X)) = p * lambda(X),      lambda(X) = X + O(X^2),

solved degree by degree over bounded-denominator p-adics in Q_p: f lies in
Z[X], so every coefficient of lambda, exp, F and [a] for a in Z does too
(Lubin-Tate 1965), and a Teichmuller scalar zeta of W is zeta X, taken
straight from the Witt ring.  Then [p] = exp(p * lambda) reproduces f
exactly, so the mod-p reduction of [p] is X^{q^n} on the nose.  exp is the
compositional inverse of lambda.  The module stores F and the scalar series
over the truncated Witt ring W(F_q)/p^N, into which each p-adic
coefficient's residue mod p^N embeds as an integer, and where all later
identities are checked exactly mod (p^N, deg D).
"""

from .errors import ParameterError, PrecisionError, VerificationError
from .ffield import field_for_order
from .series import SeriesRing, TruncatedSeries
from .witt import PadicParams, witt_ring


def default_degree(q, n):
    return q ** n + q


def default_v_max(q, n, D):
    # log denominators grow like one power of p per degree step of size q^n - 1
    return -(-D // (q ** n - 1)) + 2


def solve_log(f_series):
    """The series lambda with lambda(f) = p * lambda and lambda = X + O(deg 2),
    for f in one variable X over the bounded-denominator p-adics.

    lambda = sum_j c_j X^j, and the X^m coefficient of lambda(f) is
    p^m c_m + num_m, where num_m is the X^m coefficient of
    acc = sum_{j<m} c_j f^j; equating it with p c_m gives
    c_m = num_m / (p - p^m).  Each c_j f^j joins acc once c_j is found.
    """
    ring = f_series.ring
    dom = ring.domain
    if not isinstance(dom, PadicParams):
        raise ParameterError("logarithm must be solved over p-adic coefficients")
    p = dom.p
    lin = f_series.coefficient((1,))
    if lin.is_zero_like() or not (lin - dom.from_int(p)).zero_at(dom.n_work):
        raise ParameterError("f must have linear coefficient exactly p")
    if not dom.is_negligible(f_series.constant_term()):
        raise ParameterError("f must have zero constant term")
    lam, acc, f_pow = ring.var("X"), f_series, f_series
    for m in range(2, ring.degree):
        f_pow = f_pow * f_series
        num = acc.terms.get((m,))
        if num is None:
            continue
        cm = num * dom.from_int(p - p ** m).inv()
        if not dom.is_negligible(cm):
            lam = lam + ring.monomial((m,), cm)
            acc = acc + f_pow.scale(cm)
    return lam


def invert_series(lam):
    """Compositional inverse in X (exp of the log).

    Degree by degree, exp is corrected by the X^m part of lam(exp); lam(exp)
    is recomputed only after a nonzero correction, since otherwise it is
    unchanged.
    """
    ring = lam.ring
    exp = ring.var("X")
    comp = lam.substitute({"X": exp})
    for m in range(2, ring.degree):
        em = comp.terms.get((m,))
        if em is None:
            continue
        exp = exp - ring.monomial((m,), em)
        comp = lam.substitute({"X": exp})
    residue = comp - ring.var("X")
    for c in residue.terms.values():
        if not c.zero_at(ring.domain.n_target):
            raise PrecisionError("series inversion not exact at target precision")
    return exp


def to_witt_series(series, witt):
    """Convert p-adic coefficients to the Witt ring `witt` = W/p^N, enforcing
    integrality: each residue mod p^N embeds as an integer."""
    target = SeriesRing(witt, series.ring.vars, series.ring.degree, series.ring.caps)
    return series.map_coeffs(target, lambda c: witt.from_int(c.to_witt(witt.N)))


class FormalModule:
    """A formal O-module (F, [.]) over W/p^N."""

    def __init__(self, q, n, N, D, padic_params, f_padic, log_series, exp_series, F,
                 pi_series):
        self.q = q
        self.n = n
        self.N = N
        self.D = D
        self.field = field_for_order(q)
        self.p = self.field.p
        self.padic_params = padic_params
        self.f_padic = f_padic
        self.log_series = log_series      # over BoundedPadic
        self.exp_series = exp_series      # over BoundedPadic
        self.F = F                        # over W/p^N, vars (X, Y)
        self.x_ring = SeriesRing(F.ring.domain, ("X",), D)
        # [1] is built as exp(log X) like every other integer scalar; it is
        # X because the build's log(exp X) = X makes exp the inverse of log
        self._scalars = {("int", 0): self.x_ring.zero(), ("int", self.p): pi_series}
        self._coefficients = {}

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

        A Teichmuller scalar is zeta X: lam(zeta X) = zeta lam(X), since
        every exponent of lam is 1 mod q - 1, so exp(zeta lam) = zeta X
        (Lubin-Tate, 1965).  It is checked exactly to commute with [p].
        """
        key = normalize_scalar_key(self.field, key)
        if key not in self._scalars:
            if key[0] == "teich":
                zeta = self.scalar_coefficient(key)
                series = self.x_ring.var("X", zeta)
                pi = self._scalars[("int", self.p)]
                if pi.substitute({"X": series}) != pi.scale(zeta):
                    raise VerificationError(f"[p](zeta X) != zeta [p](X) for {key}")
            else:
                padic = self.exp_series.substitute({"X": self.log_series.scale(
                    self.padic_params.from_int(key[1]))})
                series = to_witt_series(padic, self.F.ring.domain)
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

    def formal_scalar(self, key, s):
        """[a](s) by composition."""
        series = self.scalar_series(key)
        host = s.ring
        return series.substitute({"X": s}, host)

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
    field = field_for_order(q)
    params = PadicParams(field.p, N, default_v_max(q, n, D))
    x_ring = SeriesRing(params, ("X",), D)
    f_padic = TruncatedSeries(x_ring, {(1,): params.from_int(field.p), (q ** n,): params.one()})
    lam = solve_log(f_padic)
    exp = invert_series(lam)
    witt = witt_ring(field.p, field.f, N)
    xy_ring = SeriesRing(params, ("X", "Y"), D)
    lam_x = lam.substitute({}, xy_ring)
    lam_y = lam.substitute({"X": xy_ring.var("Y")}, xy_ring)
    F = to_witt_series(exp.substitute({"X": lam_x + lam_y}, xy_ring), witt)
    pi = to_witt_series(exp.substitute({"X": lam.scale(params.from_int(field.p))}), witt)
    if pi != to_witt_series(f_padic, witt):
        raise VerificationError("exp(p * log) does not reproduce f")
    return FormalModule(q, n, N, D, params, f_padic, lam, exp, F, pi)
