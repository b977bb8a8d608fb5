"""The formal O-module axioms and the module over Q, as oracles for the
module build.

`lubin_tate_module` solves F and each integer scalar [k] as the series with
linear part X + Y, resp. kX, that commutes with f = pX + X^{q^n}
(`formal_modules.commuting_series`), and it refuses a module unless the
recursion from pX returns f.  By the Lubin-Tate lemma (J. Lubin and J.
Tate, "Formal complex multiplication in local fields", Ann. of Math. 81,
1965) a series with zero constant term that commutes with f is determined
by its linear part.  So each axiom below that compares two series pairs two
with the same linear part that both commute with f: F(Y,X) and F(X,Y),
F(F(X,Y),Z) and F(X,F(Y,Z)), F(X,0) and X, [a] o [b] and [ab], and F([a],[b])
and [a+b] (as [a] o F and F([a]X,[a]Y) would be); [1] = X and [p] = f hold
because X and f commute with f.  The module holds the reductions mod
(p^N, deg D) of the true series, by the precision argument of
`commuting_series`, so the axioms hold mod (p^N, deg D), and no report
restates them; the tests hold every built module to them, and tamper with a
module after its build to show that each check here can fail.

`fraction_module` builds the same series over Q the classical way, from the
logarithm lambda(f) = p lambda and its compositional inverse, and
`reduce_mod` takes them mod p^N.
"""

from fractions import Fraction
from operator import add

from ltdl.errors import check_entry
from ltdl.formal_modules import normalize_scalar_key
from ltdl.ffield import field_for_order
from ltdl.series import SeriesRing, TruncatedSeries


def formal_scalar(module, key, s):
    """[a](s) by composition, in the ring of s."""
    return module.scalar_series(key).substitute({"X": s}, s.ring)


def homogeneous_part(series, d):
    """The terms of `series` of total degree d."""
    return TruncatedSeries(series.ring, {e: c for e, c in series.terms.items() if sum(e) == d})


def scalar_key_product(field, k1, k2):
    """The key of the product of two scalars, when it is again a table key."""
    if k1[0] == "int" and k2[0] == "int":
        return ("int", k1[1] * k2[1])
    if k1[0] == "teich" and k2[0] == "teich":
        return normalize_scalar_key(field, ("teich", field.mul(k1[1], k2[1])))
    if k1 == ("int", 1):
        return k2
    if k2 == ("int", 1):
        return k1
    if k1 == ("int", 0) or k2 == ("int", 0):
        return ("int", 0)
    return None


def verify_module_axioms(module):
    """Check the formal O-module axioms mod (p^N, deg D); returns a report.

    Each entry is {"name", "status", "details"}, and a broken axiom is a
    failing entry, with one exception: building the Teichmuller scalars of
    `scalar_table()` raises VerificationError when [p](zeta X) != zeta [p](X).
    """
    checks = []

    F = module.F
    ring = F.ring
    x, y = ring.var("X"), ring.var("Y")

    checks.append(check_entry("linear_part", homogeneous_part(F, 1) == x + y,
                              "F = X + Y mod degree 2"))

    checks.append(check_entry("symmetry", F.substitute({"X": y, "Y": x}) == F,
                              "F(X,Y) = F(Y,X)"))

    checks.append(check_entry("unit_section", F.set_var_to_zero("Y") == x, "F(X,0) = X"))

    xyz = SeriesRing(ring.domain, ("X", "Y", "Z"), module.D)
    a = F.substitute({}, xyz)
    b = F.substitute({"X": xyz.var("Y"), "Y": xyz.var("Z")}, xyz)
    lhs = F.substitute({"X": a, "Y": xyz.var("Z")}, xyz)
    rhs = F.substitute({"X": xyz.var("X"), "Y": b}, xyz)
    checks.append(check_entry("associativity", lhs == rhs, "F(F(X,Y),Z) = F(X,F(Y,Z))"))

    checks.append(check_entry("scalar_one",
                              module.scalar_series(("int", 1)) == module.x_ring.var("X"),
                              "[1](X) = X"))

    table = module.scalar_table()
    ok_lin = True
    for key, s in table.items():
        want = module.scalar_coefficient(key)
        if s.terms.get((1,), s.ring.domain.zero()) != want:
            ok_lin = False
        if not s.is_zero() and s.lowest_degree() < 1:
            ok_lin = False
    checks.append(check_entry("scalar_linear_terms", ok_lin, "[a](X) = aX mod degree 2"))

    keys = sorted(table, key=str)
    ok_mul, ok_add = True, True
    for k1 in keys:
        for k2 in keys:
            prod = scalar_key_product(module.field, k1, k2)
            if prod is not None and abs_int_key(prod) <= max(module.p, 3):
                lhs = formal_scalar(module, k1, table[k2])
                if lhs != module.scalar_series(prod):
                    ok_mul = False
            if k1[0] == "int" and k2[0] == "int":
                ssum = ("int", k1[1] + k2[1])
                if abs(ssum[1]) <= max(module.p, 3):
                    lhs = module.formal_add(table[k1], table[k2])
                    if lhs != module.scalar_series(ssum):
                        ok_add = False
    checks.append(check_entry("scalar_hom_mul", ok_mul, "[a] o [b] = [ab] on table entries"))
    checks.append(check_entry("scalar_hom_add", ok_add,
                              "F([a],[b]) = [a+b] on integer entries"))

    red = module.scalar_series(("int", module.p)).reduce_mod_p()
    expect = red.ring.monomial((module.q ** module.n,), red.ring.domain.one())
    checks.append(check_entry("height", red == expect, "[p] mod p = X^{q^n} exactly"))

    return checks


def abs_int_key(key):
    return abs(key[1]) if key[0] == "int" else 1


# -- the module over Q: F = exp(log X + log Y) and [k] = exp(k log X) ------------------
# A series is a dict {exponent tuple: Fraction}, truncated below total degree D.


def _times(a, b, D):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            if sum(e) < D:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _compose(outer, inner, width, D):
    """outer(inner) for a one-variable outer and an inner in `width`
    variables without constant term."""
    out, power = {}, {(0,) * width: Fraction(1)}
    for k in range(1, max(e for (e,) in outer) + 1):
        power = _times(power, inner, D)
        if (k,) in outer:
            for e, c in power.items():
                out[e] = out.get(e, 0) + outer[(k,)] * c
    return {e: c for e, c in out.items() if c}


def fraction_log(p, Q, D):
    """lambda = X + O(X^2) with lambda(f) = p lambda, f = pX + X^Q: the X^m
    coefficient of lambda(f) is p^m c_m plus that of acc = sum_{j<m} c_j f^j."""
    f = {(1,): Fraction(p), (Q,): Fraction(1)}
    lam, acc, f_pow = {(1,): Fraction(1)}, dict(f), f
    for m in range(2, D):
        f_pow = _times(f_pow, f, D)
        if acc.get((m,)):
            lam[(m,)] = c = acc[(m,)] / (p - p ** m)
            for e, v in f_pow.items():
                acc[e] = acc.get(e, 0) + c * v
    return lam


def fraction_module(q, n, D, scalars=(-1, 2)):
    """(F, {k: [k] for k in scalars}) over Q, from lambda and exp, its
    compositional inverse, found degree by degree."""
    p = field_for_order(q).p
    lam = fraction_log(p, q ** n, D)
    exp = {(1,): Fraction(1)}
    comp = _compose(lam, exp, 1, D)
    for m in range(2, D):
        if comp.get((m,)):
            exp[(m,)] = -comp[(m,)]
            comp = _compose(lam, exp, 1, D)
    lam_xy = {**{(m, 0): c for (m,), c in lam.items()}, **{(0, m): c for (m,), c in lam.items()}}
    return _compose(exp, lam_xy, 2, D), {
        k: _compose(exp, {e: k * c for e, c in lam.items()}, 1, D) for k in scalars}


def reduce_mod(series, ring):
    """A series over Q in `ring`, a series ring over W(F_q)/p^N: each
    coefficient, whose denominator must be prime to p, mod p^N."""
    dom = ring.domain
    assert all(c.denominator % dom.p for c in series.values())
    terms = {e: dom.from_int(c.numerator * pow(c.denominator, -1, dom.pN))
             for e, c in series.items()}
    return TruncatedSeries(ring, {e: c for e, c in terms.items() if not dom.is_negligible(c)})

