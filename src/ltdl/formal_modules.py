"""Lubin-Tate formal O-modules and the universal deformation in normal form.

The base module of height n over W = W(F_q) is built from f = pX + X^{q^n}
with the classical logarithm determined by

    lambda(f(X)) = p * lambda(X),      lambda(X) = X + O(X^2),

solved degree by degree over bounded-denominator p-adics in Q_p: f lies in
Z[X], so every coefficient of lambda, exp, F and [a] for a in Z does too
(Lubin-Tate 1965), and a Teichmuller scalar zeta of W is zeta X, taken
straight from the Witt ring.  Then [p] = exp(p * lambda) reproduces f
exactly, so the mod-p reduction of [p] is X^{q^n} on the nose.

The universal module over W[[T_1, ..., T_{n-1}]] targets the normal form
f = pX + T_1 X^q + ... + T_{n-1} X^{q^{n-1}} + X^{q^n}.  That f is not a
Frobenius-pure series mod p, and no integral formal group has [p] equal to
it exactly; the higher corrections are forced.  Its logarithm is therefore
built by the functional-equation recursion

    lambda = X + sum_i (v_i / p) * lambda^{sigma^i}(X^{q^i}),
    v_i = T_i (i < n), v_n = 1, sigma: T -> T^q,

which guarantees integrality of F and of every [a], with [p] agreeing with
the normal form in low degree.  Its coefficients lie in Q_p[T], so the
Frobenius lift sigma only raises the T-variables to the q-th power.  exp is
the compositional inverse of lambda.  The module stores F and the scalar
series over the truncated Witt ring W(F_q)/p^N, into which each p-adic
coefficient's residue mod p^N embeds as an integer, and where all later
identities are checked exactly mod (p^N, deg D).
"""

from .errors import ParameterError, PrecisionError, VerificationError, check_entry
from .ffield import field_for_order
from .series import SeriesRing, TruncatedSeries
from .witt import PadicParams, witt_ring


def default_degree(q, n):
    return q ** n + q


def default_v_max(q, n, D):
    # log denominators grow like one power of p per degree step of size
    # q^n - 1 (base module); the functional-equation recursion used for the
    # universal module only reaches log_q(D) denominators, well under this
    return -(-D // (q ** n - 1)) + 2


def _x_slice(series, x_index, m):
    """Terms with X-exponent exactly m, with that exponent removed."""
    out = {}
    for e, c in series.terms.items():
        if e[x_index] == m:
            ne = list(e)
            ne[x_index] = 0
            out[tuple(ne)] = c
    return TruncatedSeries(series.ring, out)


def solve_log(f_series):
    """The series lambda with lambda(f) = p * lambda and lambda = X + O(deg 2).

    Coefficients are polynomials in the auxiliary variables (if any) over the
    bounded-denominator p-adics of the ambient ring.
    """
    ring = f_series.ring
    if not isinstance(ring.domain, PadicParams):
        raise ParameterError("logarithm must be solved over p-adic coefficients")
    p = ring.domain.p
    xi = ring._var_index["X"]
    x = ring.var("X")
    lin = f_series.coefficient(tuple(1 if i == xi else 0 for i in range(len(ring.vars))))
    if lin.is_zero_like() or not (lin - ring.domain.from_int(p)).zero_at(
            ring.domain.n_work):
        raise ParameterError("f must have linear coefficient exactly p")
    if not f_series.constant_term().is_exact_zero():
        if not ring.domain.is_negligible(f_series.constant_term()):
            raise ParameterError("f must have zero constant term")
    D = ring.degree
    f_pows = {1: f_series}
    for j in range(2, D):
        f_pows[j] = f_pows[j - 1] * f_series
    coeffs = {1: ring.one()}
    lam = x
    for m in range(2, D):
        num = ring.zero()
        for j in range(1, m):
            cj = coeffs.get(j)
            if cj is None or cj.is_zero():
                continue
            fm = _x_slice(f_pows[j], xi, m)
            if not fm.is_zero():
                num = num + cj * fm
        if num.is_zero():
            coeffs[m] = None
            continue
        denom = ring.domain.from_int(p - p ** m)
        cm = num.scale(denom.inv())
        coeffs[m] = cm
        mono = ring.monomial(tuple(m if i == xi else 0 for i in range(len(ring.vars))),
                             ring.domain.one())
        lam = lam + cm * mono
    return lam


def solve_fe_log(ring, q, n):
    """The functional-equation logarithm for the Drinfeld normal form.

    lambda = X + sum_{i=1}^{n} (v_i/p) lambda^{sigma^i}(X^{q^i}) with
    v_i = T_i for i < n and v_n = 1, where sigma raises T-variables to the
    q-th power and fixes the coefficients, which lie in Q_p.  Solved by the
    direct coefficient recursion c_m = sum_i (v_i/p) sigma^i(c_{m/q^i}).
    """
    if not isinstance(ring.domain, PadicParams):
        raise ParameterError("logarithm must be solved over p-adic coefficients")
    xi = ring._var_index["X"]
    width = len(ring.vars)
    D = ring.degree

    def sigma_twist(tpoly, i):
        out = {}
        for e, c in tpoly.terms.items():
            ne = list(e)
            for k in range(width):
                if k != xi:
                    ne[k] *= q ** i
            ne = tuple(ne)
            if ring.admits(ne):
                out[ne] = c
        return TruncatedSeries(ring, out)

    coeffs = {1: ring.one()}
    lam = ring.var("X")
    for m in range(2, D):
        total = ring.zero()
        for i in range(1, n + 1):
            qi = q ** i
            if m % qi:
                continue
            cj = coeffs.get(m // qi)
            if cj is None or cj.is_zero():
                continue
            term = sigma_twist(cj, i)
            if i < n:
                term = term * ring.var(f"T{i}")
            total = total + term
        if total.is_zero():
            coeffs[m] = None
            continue
        cm = total.map_coeffs(ring, lambda c: c.div_p(1))
        coeffs[m] = cm
        mono = ring.monomial(tuple(m if i == xi else 0 for i in range(width)),
                             ring.domain.one())
        lam = lam + cm * mono
    return lam


def invert_series(lam):
    """Compositional inverse in the distinguished variable (exp of the log).

    Degree by degree, exp is corrected by the X^m part of lam(exp); lam(exp)
    is recomputed only after a nonzero correction, since otherwise it is
    unchanged.
    """
    ring = lam.ring
    xi = ring._var_index["X"]
    exp = ring.var("X")
    comp = lam.substitute({"X": exp})
    for m in range(2, ring.degree):
        em = _x_slice(comp, xi, m)
        if em.is_zero():
            continue
        mono = ring.monomial(tuple(m if i == xi else 0 for i in range(len(ring.vars))),
                             ring.domain.one())
        exp = exp - em * mono
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
    """A formal O-module (F, [.]) over W/p^N or its T-parameter extension."""

    def __init__(self, q, n, N, D, aux_vars, padic_params, f_padic, log_series,
                 exp_series, F, pi_series):
        self.q = q
        self.n = n
        self.N = N
        self.D = D
        self.field = field_for_order(q)
        self.p = self.field.p
        self.aux_vars = aux_vars
        self.padic_params = padic_params
        self.f_padic = f_padic
        self.log_series = log_series      # over BoundedPadic
        self.exp_series = exp_series      # over BoundedPadic
        self.F = F                        # over W/p^N, vars (X, Y) + aux
        self.x_ring = SeriesRing(F.ring.domain, ("X",) + aux_vars, D)
        # [1] is built as exp(log X) like every other integer scalar, so
        # the scalar_one axiom compares two computations
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
                series = to_witt_series(padic, self.F.ring.domain).map_vars(self.x_ring)
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

    # -- derived modules ----------------------------------------------------------

    def specialize_aux_to_zero(self):
        """The T -> 0 specialization (base Lubin-Tate module), bit-exact."""
        if not self.aux_vars:
            return self
        return _specialized_module(self)

    def __repr__(self):
        kind = "universal" if self.aux_vars else "base"
        return f"FormalModule({kind}, q={self.q}, n={self.n}, N={self.N}, D={self.D})"


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


def _check_build_params(q, n, D):
    if n < 1:
        raise ParameterError("height must be >= 1")
    if D <= q ** n:
        raise ParameterError(f"degree bound {D} must exceed q^n = {q ** n}")


def _normal_form_terms(ring, q, n):
    """pX + T_1 X^q + ... + X^{q^n}, with T-terms only when the ring has them."""
    one = ring.domain.one()
    p = ring.domain.p
    width = len(ring.vars)
    terms = {(1,) + (0,) * (width - 1): ring.domain.from_int(p),
             (q ** n,) + (0,) * (width - 1): one}
    for i in range(1, n):
        name = f"T{i}"
        if name in ring._var_index:
            e = [0] * width
            e[0] = q ** i
            e[ring._var_index[name]] = 1
            terms[tuple(e)] = one
    return terms


def _finish_module(q, n, N, D, aux_vars, params, f_padic, lam):
    exp = invert_series(lam)
    witt = witt_ring(params.p, field_for_order(q).f, N)
    xy_ring = SeriesRing(params, ("X", "Y") + aux_vars, D)
    lam_x = lam.map_vars(xy_ring)
    lam_y = lam.map_vars(xy_ring, {"X": "Y"})
    F_padic = exp.substitute({"X": lam_x + lam_y}, xy_ring)
    F = to_witt_series(F_padic, witt)
    pi_padic = exp.substitute({"X": lam.scale(params.from_int(params.p))})
    pi = to_witt_series(pi_padic, witt)
    return FormalModule(q, n, N, D, aux_vars, params, f_padic, lam, exp, F, pi)


def lubin_tate_module(q, n, N=8, D=None):
    """The base height-n module: [p] = f = pX + X^{q^n} over W(F_q)/p^N exactly."""
    D = default_degree(q, n) if D is None else D
    _check_build_params(q, n, D)
    field = field_for_order(q)
    params = PadicParams(field.p, N, default_v_max(q, n, D))
    x_ring = SeriesRing(params, ("X",), D)
    f_padic = TruncatedSeries(x_ring, _normal_form_terms(x_ring, q, n))
    lam = solve_log(f_padic)
    module = _finish_module(q, n, N, D, (), params, f_padic, lam)
    f_witt = to_witt_series(f_padic, module.F.ring.domain)
    if module._scalars[("int", field.p)] != f_witt:
        raise VerificationError("exp(p * log) does not reproduce f")
    return module


def universal_module(q, n, N=8, D=None):
    """The universal deformation with [p] in Drinfeld normal form + corrections.

    The functional-equation logarithm keeps every coefficient integral; [p]
    contains every normal-form monomial pX, T_i X^{q^i}, X^{q^n} with the
    right coefficient mod p (degree 1 exactly), plus forced corrections.
    """
    D = default_degree(q, n) if D is None else D
    _check_build_params(q, n, D)
    field = field_for_order(q)
    params = PadicParams(field.p, N, default_v_max(q, n, D))
    aux = tuple(f"T{i}" for i in range(1, n))
    x_ring = SeriesRing(params, ("X",) + aux, D)
    f_padic = TruncatedSeries(x_ring, _normal_form_terms(x_ring, q, n))
    lam = solve_fe_log(x_ring, q, n)
    module = _finish_module(q, n, N, D, aux, params, f_padic, lam)
    pi = module._scalars[("int", field.p)]
    red = pi.reduce_mod_p()
    f_red = to_witt_series(f_padic, pi.ring.domain).reduce_mod_p()
    # every normal-form monomial must appear with its coefficient mod p
    # (further corrections in between are forced and allowed)
    for e, c in f_red.terms.items():
        if red.coefficient(e) != c:
            raise VerificationError(
                "universal [p] misses a normal-form monomial mod p")
    if pi.coefficient((1,) + (0,) * (n - 1)) != pi.ring.domain.from_int(field.p):
        raise VerificationError("universal [p] has the wrong linear coefficient")
    return module


def _specialized_module(module):
    """Substitute every auxiliary variable by 0, producing a base-type module."""
    q, n, N, D = module.q, module.n, module.N, module.D
    dom = module.F.ring.domain
    xy = SeriesRing(dom, ("X", "Y"), D)
    x = SeriesRing(dom, ("X",), D)
    kill = {v: xy.zero() for v in module.aux_vars}
    F0 = module.F.substitute(kill, xy)
    kill_x = {v: x.zero() for v in module.aux_vars}
    pi0 = module._scalars[("int", module.p)].substitute(kill_x, x)

    pdom = module.log_series.ring.domain
    px = SeriesRing(pdom, ("X",), D)
    kill_p = {v: px.zero() for v in module.aux_vars}
    log0 = module.log_series.substitute(kill_p, px)
    exp0 = module.exp_series.substitute(kill_p, px)
    f0 = module.f_padic.substitute(kill_p, px)
    return FormalModule(q, n, N, D, (), module.padic_params, f0, log0, exp0, F0, pi0)


# -- axiom verification ------------------------------------------------------


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

    checks.append(check_entry("linear_part", F.homogeneous_part(1) == x + y,
                              "F = X + Y mod degree 2"))

    checks.append(check_entry("symmetry", F.map_vars(ring, {"X": "Y", "Y": "X"}) == F,
                              "F(X,Y) = F(Y,X)"))

    checks.append(check_entry("unit_section", F.set_var_to_zero("Y") == x, "F(X,0) = X"))

    xyz = SeriesRing(ring.domain, ("X", "Y", "Z") + module.aux_vars, module.D)
    a = F.map_vars(xyz)
    b = F.map_vars(xyz, {"X": "Y", "Y": "Z"})
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
        e1 = (1,) + (0,) * (len(module.x_ring.vars) - 1)
        if s.coefficient(e1) != want:
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

    pi = module.scalar_series(("int", module.p))
    if module.aux_vars:
        base = module.specialize_aux_to_zero()
        pi0 = base.scalar_series(("int", module.p))
        red = pi0.reduce_mod_p()
        # the universal [p] carries forced higher corrections, so only the
        # lowest term of the reduction is pinned
        ok = (not red.is_zero()
              and red.lowest_degree() == module.q ** module.n
              and red.homogeneous_part(module.q ** module.n)
              == red.ring.monomial((module.q ** module.n,) + (0,) * (len(red.ring.vars) - 1),
                                   red.ring.domain.one()))
        checks.append(check_entry("height", ok,
                                  "[p] mod (p, T) has lowest term X^{q^n}"))
    else:
        red = pi.reduce_mod_p()
        expect = red.ring.monomial((module.q ** module.n,) + (0,) * (len(red.ring.vars) - 1),
                                   red.ring.domain.one())
        checks.append(check_entry("height", red == expect, "[p] mod p = X^{q^n} exactly"))

    return checks


def abs_int_key(key):
    return abs(key[1]) if key[0] == "int" else 1
