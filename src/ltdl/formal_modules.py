"""Lubin-Tate formal O-modules and the universal deformation in normal form.

The base module of height n over W = W(F_q) is built from f = pX + X^{q^n}
with the classical logarithm determined by

    lambda(f(X)) = p * lambda(X),      lambda(X) = X + O(X^2),

solved degree by degree over bounded-denominator p-adics.  Then
[p] = exp(p * lambda) reproduces f exactly, so the mod-p reduction of [p]
is X^{q^n} on the nose.

The universal module over W[[T_1, ..., T_{n-1}]] targets the normal form
f = pX + T_1 X^q + ... + T_{n-1} X^{q^{n-1}} + X^{q^n}.  That f is not a
Frobenius-pure series mod p, and no integral formal group has [p] equal to
it exactly; the higher corrections are forced.  Its logarithm is therefore
built by the functional-equation recursion

    lambda = X + sum_i (v_i / p) * lambda^{sigma^i}(X^{q^i}),
    v_i = T_i (i < n), v_n = 1, sigma: T -> T^q,

which guarantees integrality of F and of every [a], with [p] agreeing with
the normal form in low degree.  exp is the compositional inverse of lambda.
The module stores F and the scalar series over the truncated Witt ring,
where all later identities are checked exactly mod (p^N, deg D).
"""

from itertools import product

from .errors import ParameterError, PrecisionError, VerificationError
from .ffield import field_for_order
from .series import PadicDomain, SeriesRing, TruncatedSeries, WittDomain
from .witt import PadicParams, witt_ring

MAX_QN = 512


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


def solve_log(f_series, x_var="X"):
    """The series lambda with lambda(f) = p * lambda and lambda = X + O(deg 2).

    Coefficients are polynomials in the auxiliary variables (if any) over the
    bounded-denominator p-adics of the ambient ring.
    """
    ring = f_series.ring
    if ring.domain.kind != "padic":
        raise ParameterError("logarithm must be solved over p-adic coefficients")
    p = ring.domain.params.p
    xi = ring._var_index[x_var]
    x = ring.var(x_var)
    lin = f_series.coefficient(tuple(1 if i == xi else 0 for i in range(len(ring.vars))))
    if lin.is_zero_like() or not (lin - ring.domain.from_int(p)).zero_at(
            ring.domain.params.n_work):
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


def solve_fe_log(ring, q, n, x_var="X"):
    """The functional-equation logarithm for the Drinfeld normal form.

    lambda = X + sum_{i=1}^{n} (v_i/p) lambda^{sigma^i}(X^{q^i}) with
    v_i = T_i for i < n and v_n = 1, where sigma raises T-variables to the
    q-th power and acts as the Frobenius lift on Witt coefficients.  Solved
    by the direct coefficient recursion c_m = sum_i (v_i/p) sigma^i(c_{m/q^i}).
    """
    if ring.domain.kind != "padic":
        raise ParameterError("logarithm must be solved over p-adic coefficients")
    xi = ring._var_index[x_var]
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
                cc = c
                for _ in range(i):
                    cc = cc.sigma()
                out[ne] = cc
        return TruncatedSeries(ring, out)

    coeffs = {1: ring.one()}
    lam = ring.var(x_var)
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


def invert_series(lam, x_var="X"):
    """Compositional inverse in the distinguished variable (exp of the log)."""
    ring = lam.ring
    xi = ring._var_index[x_var]
    exp = ring.var(x_var)
    for m in range(2, ring.degree):
        comp = lam.substitute({x_var: exp})
        em = _x_slice(comp, xi, m)
        if em.is_zero():
            continue
        mono = ring.monomial(tuple(m if i == xi else 0 for i in range(len(ring.vars))),
                             ring.domain.one())
        exp = exp - em * mono
    residue = lam.substitute({x_var: exp}) - ring.var(x_var)
    for c in residue.terms.values():
        if not c.zero_at(ring.domain.params.n_target):
            raise PrecisionError("series inversion not exact at target precision")
    return exp


def to_witt_series(series, N):
    """Convert p-adic coefficients to W/p^N, enforcing integrality."""
    dom = series.ring.domain
    target_dom = WittDomain(witt_ring(dom.params.p, dom.params.f, N))
    target = SeriesRing(target_dom, series.ring.vars, series.ring.degree,
                        series.ring.caps)
    return series.map_coeffs(target, lambda c: c.to_witt(N))


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
        self._scalars = {("int", 0): self.x_ring.zero(),
                         ("int", 1): self.x_ring.var("X"),
                         ("int", self.p): pi_series}

    # -- scalar series ---------------------------------------------------------

    def scalar_value(self, key):
        """The scalar as a BoundedPadic element."""
        kind, v = key
        if kind == "int":
            return self.padic_params.from_int(v)
        if kind == "teich":
            return self.padic_params.from_teichmuller(self.field.from_int(v))
        raise ParameterError(f"unknown scalar key {key!r}")

    def scalar_series(self, key):
        """[a](X) for a scalar key ('int', k) or ('teich', k)."""
        key = normalize_scalar_key(self.field, key)
        if key not in self._scalars:
            a = self.scalar_value(key)
            scaled = self.log_series.scale(a)
            padic = self.exp_series.substitute({"X": scaled})
            self._scalars[key] = to_witt_series(padic, self.N).map_vars(self.x_ring)
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
        prod = field.from_int(k1[1]) * field.from_int(k2[1])
        return normalize_scalar_key(field, ("teich", prod.canonical_int()))
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
    if q ** n > MAX_QN:
        raise ParameterError(f"q^n = {q ** n} exceeds the supported bound {MAX_QN}")
    if D <= q ** n:
        raise ParameterError(f"degree bound {D} must exceed q^n = {q ** n}")


def _normal_form_terms(ring, q, n):
    """pX + T_1 X^q + ... + X^{q^n}, with T-terms only when the ring has them."""
    one = ring.domain.one()
    p = ring.domain.params.p
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
    dom = f_padic.ring.domain
    xy_ring = SeriesRing(dom, ("X", "Y") + aux_vars, D)
    lam_x = lam.map_vars(xy_ring)
    lam_y = lam.map_vars(xy_ring, {"X": "Y"})
    F_padic = exp.substitute({"X": lam_x + lam_y}, xy_ring)
    F = to_witt_series(F_padic, N)
    pi_padic = exp.substitute({"X": lam.scale(params.from_int(params.p))})
    pi = to_witt_series(pi_padic, N)
    return FormalModule(q, n, N, D, aux_vars, params, f_padic, lam, exp, F, pi)


def lubin_tate_module(q, n, N=8, D=None, v_max=None):
    """The base height-n module: [p] = f = pX + X^{q^n} over W(F_q)/p^N exactly."""
    D = default_degree(q, n) if D is None else D
    _check_build_params(q, n, D)
    v_max = default_v_max(q, n, D) if v_max is None else v_max
    field = field_for_order(q)
    params = PadicParams(field.p, field.f, N, v_max)
    x_ring = SeriesRing(PadicDomain(params), ("X",), D)
    f_padic = TruncatedSeries(x_ring, _normal_form_terms(x_ring, q, n))
    lam = solve_log(f_padic)
    module = _finish_module(q, n, N, D, (), params, f_padic, lam)
    f_witt = to_witt_series(f_padic, N)
    if module._scalars[("int", field.p)] != f_witt:
        raise VerificationError("exp(p * log) does not reproduce f")
    return module


def universal_module(q, n, N=8, D=None, v_max=None):
    """The universal deformation with [p] in Drinfeld normal form + corrections.

    The functional-equation logarithm keeps every coefficient integral; [p]
    contains every normal-form monomial pX, T_i X^{q^i}, X^{q^n} with the
    right coefficient mod p (degree 1 exactly), plus forced corrections.
    """
    D = default_degree(q, n) if D is None else D
    _check_build_params(q, n, D)
    v_max = default_v_max(q, n, D) if v_max is None else v_max
    field = field_for_order(q)
    params = PadicParams(field.p, field.f, N, v_max)
    aux = tuple(f"T{i}" for i in range(1, n))
    x_ring = SeriesRing(PadicDomain(params), ("X",) + aux, D)
    f_padic = TruncatedSeries(x_ring, _normal_form_terms(x_ring, q, n))
    lam = solve_fe_log(x_ring, q, n)
    module = _finish_module(q, n, N, D, aux, params, f_padic, lam)
    pi = module._scalars[("int", field.p)]
    red = pi.reduce_mod_p()
    f_red = to_witt_series(f_padic, N).reduce_mod_p()
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

    Each entry is {"name", "status", "details"}; nothing raises, so tampered
    modules simply produce failing entries.
    """
    checks = []

    def record(name, ok, details=""):
        checks.append({"name": name, "status": "pass" if ok else "fail",
                       "details": details})

    F = module.F
    ring = F.ring
    x, y = ring.var("X"), ring.var("Y")

    record("linear_part", F.homogeneous_part(1) == x + y, "F = X + Y mod degree 2")

    record("symmetry", F.map_vars(ring, {"X": "Y", "Y": "X"}) == F,
           "F(X,Y) = F(Y,X)")

    record("unit_section", F.set_var_to_zero("Y") == x, "F(X,0) = X")

    xyz = SeriesRing(ring.domain, ("X", "Y", "Z") + module.aux_vars, module.D)
    a = F.map_vars(xyz)
    b = F.map_vars(xyz, {"X": "Y", "Y": "Z"})
    lhs = F.substitute({"X": a, "Y": xyz.var("Z")}, xyz)
    rhs = F.substitute({"X": xyz.var("X"), "Y": b}, xyz)
    record("associativity", lhs == rhs, "F(F(X,Y),Z) = F(X,F(Y,Z))")

    record("scalar_one", module.scalar_series(("int", 1)) == module.x_ring.var("X"),
           "[1](X) = X")

    table = module.scalar_table()
    ok_lin = True
    for key, s in table.items():
        want = module.scalar_value(key).to_witt(module.N)
        e1 = (1,) + (0,) * (len(module.x_ring.vars) - 1)
        if s.coefficient(e1) != want:
            ok_lin = False
        if not s.is_zero() and s.lowest_degree() < 1:
            ok_lin = False
    record("scalar_linear_terms", ok_lin, "[a](X) = aX mod degree 2")

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
    record("scalar_hom_mul", ok_mul, "[a] o [b] = [ab] on table entries")
    record("scalar_hom_add", ok_add, "F([a],[b]) = [a+b] on integer entries")

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
        record("height", ok, "[p] mod (p, T) has lowest term X^{q^n}")
    else:
        red = pi.reduce_mod_p()
        expect = red.ring.monomial((module.q ** module.n,) + (0,) * (len(red.ring.vars) - 1),
                                   red.ring.domain.one())
        record("height", red == expect, "[p] mod p = X^{q^n} exactly")

    return checks


def abs_int_key(key):
    return abs(key[1]) if key[0] == "int" else 1


# -- Drinfeld level structures -------------------------------------------------


class SmallAlgebra:
    """A finite free O/p^N-algebra by structure constants over W(F_q)/p^N.

    basis[0] must be the multiplicative identity.  Elements are coefficient
    tuples of WittElements.
    """

    def __init__(self, witt, rank, mult_table, name="R"):
        self.witt = witt
        self.rank = rank
        self.mult = mult_table  # mult[i][j] = tuple of rank WittElements
        self.name = name

    @staticmethod
    def scalar_ring(p, f, N):
        w = witt_ring(p, f, N)
        return SmallAlgebra(w, 1, [[(w.one(),)]], name="O/p^N")

    @staticmethod
    def dual_numbers(p, f, N):
        """O/p^N[eps]/(eps^2), handy as a target with honest nilpotents."""
        w = witt_ring(p, f, N)
        one, zero = w.one(), w.zero()
        mult = [[(one, zero), (zero, one)], [(zero, one), (zero, zero)]]
        return SmallAlgebra(w, 2, mult, name="O/p^N[eps]")

    def zero(self):
        return (self.witt.zero(),) * self.rank

    def one(self):
        return (self.witt.one(),) + (self.witt.zero(),) * (self.rank - 1)

    def from_witt(self, w):
        if w.ring != self.witt:
            raise ParameterError("Witt element from a different precision or field")
        return (w,) + (self.witt.zero(),) * (self.rank - 1)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        out = [self.witt.zero()] * self.rank
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j, bj in enumerate(b):
                if bj.is_zero():
                    continue
                c = ai * bj
                row = self.mult[i][j]
                for k in range(self.rank):
                    if not row[k].is_zero():
                        out[k] = out[k] + c * row[k]
        return tuple(out)

    def scale(self, w, a):
        return tuple(w * x for x in a)

    def is_zero(self, a):
        return all(x.is_zero() for x in a)

    def nilpotency_index(self, a, bound):
        """Smallest k <= bound with a^k = 0, else None."""
        cur = a
        for k in range(1, bound + 1):
            if self.is_zero(cur):
                return k
            cur = self.mul(cur, a)
        return None


def eval_series_in_algebra(series, assignment, algebra):
    """Evaluate a truncated series at nilpotent algebra elements.

    Requires the sum of the arguments' nilpotency indices to stay below the
    truncation bound, so the dropped tail provably evaluates to zero.
    """
    ring = series.ring
    D = ring.degree
    total_nil = 0
    for v, val in assignment.items():
        k = algebra.nilpotency_index(val, D + 1)
        if k is None:
            raise PrecisionError(f"assignment for {v!r} is not nilpotent within the bound")
        total_nil += k - 1
    if total_nil >= D:
        raise PrecisionError("nilpotency too weak for the truncation bound")
    powers = {v: {0: algebra.one(), 1: val} for v, val in assignment.items()}

    def power(v, e):
        cache = powers[v]
        while e not in cache:
            k = max(cache)
            cache[k + 1] = algebra.mul(cache[k], cache[1])
        return cache[e]

    out = algebra.zero()
    for e, c in sorted(series.terms.items()):
        term = algebra.from_witt(c)
        for i, exp in enumerate(e):
            if exp:
                v = ring.vars[i]
                if v not in assignment:
                    raise ParameterError(f"no value for variable {v!r}")
                term = algebra.mul(term, power(v, exp))
        out = algebra.add(out, term)
    return out


class LevelStructureCandidate:
    """A candidate Drinfeld level-p structure: phi on (p^-1/O)^n with values in R."""

    def __init__(self, algebra, n, q, phi):
        self.algebra = algebra
        self.n = n
        self.q = q
        self.phi = dict(phi)  # tuple of canonical field ints -> algebra element
        expected = q ** n
        if len(self.phi) != expected:
            raise ParameterError(f"phi must be defined on all {expected} points")

    @staticmethod
    def zero_map(algebra, n, q):
        keys = product(range(q), repeat=n)
        return LevelStructureCandidate(algebra, n, q, {k: algebra.zero() for k in keys})


def check_o_module_hom(module, cand):
    """Verify phi is an O-module map for the formal operations, where certifiable."""
    alg = cand.algebra
    field = module.field
    F = module.F
    report = []
    for x in cand.phi:
        for y in cand.phi:
            s = tuple((field.from_int(a) + field.from_int(b)).canonical_int()
                      for a, b in zip(x, y))
            lhs = eval_series_in_algebra(F, {"X": cand.phi[x], "Y": cand.phi[y]}, alg)
            ok = alg.is_zero(alg.add(lhs, alg.neg(cand.phi[s])))
            if not ok:
                report.append(("add", x, y))
    for a in range(cand.q):
        key = normalize_scalar_key(field, ("teich", a)) if a else ("int", 0)
        series = module.scalar_series(key)
        for x in cand.phi:
            ax = tuple((field.from_int(a) * field.from_int(c)).canonical_int()
                       for c in x)
            val = eval_series_in_algebra(series, {"X": cand.phi[x]}, alg)
            if not alg.is_zero(alg.add(val, alg.neg(cand.phi[ax]))):
                report.append(("scalar", a, x))
    return report


def check_drinfeld_divisibility(module, cand, level=1):
    """True iff prod_x (X - phi(x)) divides [p^level](X) up to (p^N, deg D)."""
    alg = cand.algebra
    D = module.D
    d = cand.q ** (level * cand.n)
    if level != 1:
        raise ParameterError("only level p (m = 1) candidates are supported")
    if d >= D:
        raise ParameterError(
            f"divisor degree {d} needs a series degree bound above {d}")
    # divisor coefficients, ascending; monic of degree d
    divisor = [alg.one()]
    for x in cand.phi:
        nxt = [alg.zero()] * (len(divisor) + 1)
        neg = alg.neg(cand.phi[x])
        for i, c in enumerate(divisor):
            nxt[i + 1] = alg.add(nxt[i + 1], c)
            nxt[i] = alg.add(nxt[i], alg.mul(c, neg))
        divisor = nxt
    assert alg.is_zero(alg.add(divisor[d], alg.neg(alg.one())))

    pi = module.scalar_series(("int", module.p))
    g = [alg.zero()] * D
    for e, c in pi.terms.items():
        g[e[0]] = alg.add(g[e[0]], alg.from_witt(c))

    # Weierstrass-style division: repeatedly move the part of degree >= d
    # through the monic divisor; the sub-leading coefficients are
    # topologically nilpotent so the correction shrinks every round.
    E = list(g)
    max_rounds = module.N * D + 10
    for _ in range(max_rounds):
        high = E[d:]
        if all(alg.is_zero(c) for c in high):
            break
        # E -= high(X) * X^{-d} * divisor(X), aligned so the X^{>=d} part cancels
        newE = list(E[:d]) + [alg.zero()] * (D - d)
        for i, h in enumerate(high):
            if alg.is_zero(h):
                continue
            for j in range(d):
                k = i + j
                if k < D:
                    newE[k] = alg.add(newE[k], alg.neg(alg.mul(h, divisor[j])))
        # everything at X^{>= d} from the previous remainder has been consumed
        # into the quotient except what the correction re-introduces
        E = newE
    else:
        raise PrecisionError("division did not stabilize; divisor not distinguished")
    return all(alg.is_zero(c) for c in E)
