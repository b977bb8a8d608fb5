"""The formal O-module axioms, restated as an oracle for the module build.

`lubin_tate_module` refuses a module unless exp(p * log X) reproduces f =
pX + X^{q^n} mod p^N, log(exp X) = X at the target precision and every
coefficient is p-integral.  By the Lubin-Tate lemma (J. Lubin and J. Tate,
"Formal complex multiplication in local fields", Ann. of Math. 81, 1965)
the nine axioms below follow from those build checks, so no report
restates them; the tests hold every built module to them, and tamper with
a module after its build to show that each check here can fail.
"""

from ltdl.errors import check_entry
from ltdl.formal_modules import normalize_scalar_key
from ltdl.series import SeriesRing, TruncatedSeries


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
        if s.coefficient((1,)) != want:
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
                lhs = module.formal_scalar(k1, table[k2])
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
