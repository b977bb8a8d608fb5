"""Truncated multivariate power series over pluggable coefficient rings.

Truncation is by total degree: a ring with degree bound D stores exponent
vectors of total degree < D.  Optional per-variable caps mark polynomial
variables (chart coordinates V_i, deformation parameters T_i) that carry an
exact bounded degree rather than a truncated tail; substitutions with a
nonzero constant term are only allowed into such variables.

All arithmetic is exact and canonical: results are independent of operand
order and of any internal evaluation order.
"""

from .errors import IntegralityError, ParameterError, PrecisionError
from .ffield import ff_make
from .witt import BoundedPadic, PadicParams, from_digits, witt_ring


class FqDomain:
    kind = "fq"

    def __init__(self, field):
        self.field = field

    def zero(self):
        return self.field.zero()

    def one(self):
        return self.field.one()

    def from_int(self, k):
        return self.field.scalar(k)

    def is_negligible(self, c):
        return c.is_zero()

    def descriptor(self):
        return {"kind": "fq", "p": self.field.p, "f": self.field.f}

    def coeff_to_json(self, c):
        return list(c.coeffs)

    def coeff_from_json(self, data):
        return self.field.elem(tuple(data))

    def __eq__(self, other):
        return isinstance(other, FqDomain) and self.field == other.field

    def __hash__(self):
        return hash(("fq", self.field))

    def __repr__(self):
        return f"F_{self.field.q}"


class WittDomain:
    kind = "witt"

    def __init__(self, ring):
        self.ring = ring

    def zero(self):
        return self.ring.zero()

    def one(self):
        return self.ring.one()

    def from_int(self, k):
        return self.ring.from_int(k)

    def is_negligible(self, c):
        return c.is_zero()

    def descriptor(self):
        return {"kind": "witt", "p": self.ring.p, "f": self.ring.f, "N": self.ring.N}

    def coeff_to_json(self, c):
        return [list(d.coeffs) for d in c.digits()]

    def coeff_from_json(self, data):
        digits = [self.ring.field.elem(tuple(d)) for d in data]
        return from_digits(self.ring, digits)

    def __eq__(self, other):
        return isinstance(other, WittDomain) and self.ring == other.ring

    def __hash__(self):
        return hash(("wittdom", self.ring))

    def __repr__(self):
        return repr(self.ring)


class PadicDomain:
    kind = "padic"

    def __init__(self, params):
        self.params = params

    def zero(self):
        return self.params.zero()

    def one(self):
        return self.params.one()

    def from_int(self, k):
        return self.params.from_int(k)

    def is_negligible(self, c):
        # exact zeros always; zero-like values only once they are zero to at
        # least the target precision (dropping them earlier would silently
        # upgrade partial knowledge to an exact statement)
        if c.is_exact_zero():
            return True
        return c.unit is None and c.abs >= self.params.n_target

    def descriptor(self):
        p = self.params
        return {"kind": "padic", "p": p.p, "f": p.f, "N": p.n_target,
                "v_max": p.v_max, "n_work": p.n_work}

    def coeff_to_json(self, c):
        if c.is_exact_zero():
            return {"zero": True}
        if c.unit is None:
            return {"ozero": c.abs}
        return {"val": c.val, "abs": c.abs,
                "unit": [list(d.coeffs) for d in c.unit.digits()]}

    def coeff_from_json(self, data):
        if data.get("zero"):
            return self.params.zero()
        if "ozero" in data:
            return BoundedPadic(self.params, data["ozero"], None, data["ozero"])
        ring = witt_ring(self.params.p, self.params.f, len(data["unit"]))
        digits = [ring.field.elem(tuple(d)) for d in data["unit"]]
        return BoundedPadic(self.params, data["val"], from_digits(ring, digits),
                            data["abs"])

    def __eq__(self, other):
        return isinstance(other, PadicDomain) and self.params == other.params

    def __hash__(self):
        return hash(("padicdom", self.params))

    def __repr__(self):
        return repr(self.params)


def domain_from_descriptor(desc):
    if desc["kind"] == "fq":
        return FqDomain(ff_make(desc["p"], desc["f"]))
    if desc["kind"] == "witt":
        return WittDomain(witt_ring(desc["p"], desc["f"], desc["N"]))
    if desc["kind"] == "padic":
        params = PadicParams(desc["p"], desc["f"], desc["N"], desc["v_max"],
                             pad=desc["n_work"] - desc["N"])
        return PadicDomain(params)
    raise ParameterError(f"unknown coefficient ring kind {desc['kind']!r}")


class SeriesRing:
    """Descriptor: ordered variables, total-degree bound, optional caps."""

    __slots__ = ("domain", "vars", "degree", "caps", "_var_index")

    def __init__(self, domain, variables, degree, caps=None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ParameterError("variable names must be distinct")
        if degree < 2:
            raise ParameterError("degree bound must be >= 2")
        self.domain = domain
        self.vars = variables
        self.degree = degree
        self.caps = dict(caps) if caps else {}
        for v in self.caps:
            if v not in variables:
                raise ParameterError(f"cap for unknown variable {v!r}")
        self._var_index = {v: i for i, v in enumerate(variables)}

    def __eq__(self, other):
        return (isinstance(other, SeriesRing)
                and self.domain == other.domain
                and self.vars == other.vars
                and self.degree == other.degree
                and self.caps == other.caps)

    def __hash__(self):
        return hash((self.domain, self.vars, self.degree,
                     tuple(sorted(self.caps.items()))))

    def __repr__(self):
        return f"Series({self.domain}; {','.join(self.vars)}; deg<{self.degree})"

    def admits(self, exps):
        if sum(exps) >= self.degree:
            return False
        for v, cap in self.caps.items():
            if exps[self._var_index[v]] > cap:
                return False
        return True

    def zero(self):
        return TruncatedSeries(self, {})

    def one(self):
        return self.constant(self.domain.one())

    def constant(self, coeff):
        if self.domain.is_negligible(coeff):
            return self.zero()
        return TruncatedSeries(self, {(0,) * len(self.vars): coeff})

    def from_int(self, k):
        return self.constant(self.domain.from_int(k))

    def var(self, name, coeff=None):
        exps = [0] * len(self.vars)
        exps[self._var_index[name]] = 1
        return self.monomial(tuple(exps), coeff if coeff is not None else self.domain.one())

    def monomial(self, exps, coeff):
        if len(exps) != len(self.vars):
            raise ParameterError("exponent vector length mismatch")
        if self.domain.is_negligible(coeff) or not self.admits(exps):
            return self.zero()
        return TruncatedSeries(self, {tuple(exps): coeff})


class TruncatedSeries:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _check(self, other):
        if self.ring != other.ring:
            raise ParameterError("series from different rings")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        dom = self.ring.domain
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if dom.is_negligible(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return TruncatedSeries(self.ring, out)

    def __neg__(self):
        return TruncatedSeries(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        ring = self.ring
        dom = ring.domain
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if not ring.admits(e):
                    continue
                c = c1 * c2
                if e in out:
                    c = out[e] + c
                if dom.is_negligible(c):
                    out.pop(e, None)
                else:
                    out[e] = c
        return TruncatedSeries(ring, out)

    def scale(self, coeff):
        dom = self.ring.domain
        out = {}
        for e, c in self.terms.items():
            s = coeff * c
            if not dom.is_negligible(s):
                out[e] = s
        return TruncatedSeries(self.ring, out)

    def __pow__(self, e):
        if e < 0:
            raise ParameterError("negative series power")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries) or self.ring != other.ring:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms)))

    # -- inspection -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * len(self.ring.vars), self.ring.domain.zero())

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.ring.domain.zero())

    def lowest_degree(self):
        if not self.terms:
            raise ParameterError("zero series has no lowest degree")
        return min(sum(e) for e in self.terms)

    def homogeneous_part(self, d):
        return TruncatedSeries(self.ring, {e: c for e, c in self.terms.items()
                                           if sum(e) == d})

    def var_valuation(self, var):
        """Largest e with self in (var^e); the zero series is rejected."""
        if not self.terms:
            raise ParameterError("var_valuation of the zero series")
        i = self.ring._var_index[var]
        return min(e[i] for e in self.terms)

    def factor_out(self, var, e):
        """Divide exactly by var^e."""
        if not self.terms:
            raise ParameterError("factor_out of the zero series")
        i = self.ring._var_index[var]
        if any(ex[i] < e for ex in self.terms):
            raise ParameterError(f"series not divisible by {var}^{e}")
        out = {}
        for ex, c in self.terms.items():
            ne = list(ex)
            ne[i] -= e
            out[tuple(ne)] = c
        return TruncatedSeries(self.ring, out)

    def ideal_membership_monomial(self, variables):
        """Membership in the monomial ideal generated by the listed variables.

        True iff every stored monomial contains a positive power of one of
        them (valid for monomially generated ideals at truncation level).
        """
        idx = [self.ring._var_index[v] for v in variables]
        return all(any(e[i] for i in idx) for e in self.terms)

    def set_var_to_zero(self, var):
        i = self.ring._var_index[var]
        return TruncatedSeries(self.ring, {e: c for e, c in self.terms.items()
                                           if e[i] == 0})

    # -- structure maps ----------------------------------------------------------

    def map_coeffs(self, target_ring, fn):
        dom = target_ring.domain
        out = {}
        for e, c in self.terms.items():
            nc = fn(c)
            if not dom.is_negligible(nc):
                if not target_ring.admits(e):
                    raise ParameterError("target ring does not admit a monomial")
                out[e] = nc
        return TruncatedSeries(target_ring, out)

    def map_vars(self, target_ring, rename=None):
        """Transport monomials along an injective variable renaming.

        Unmapped source variables must not occur; coefficients carry over
        unchanged (domains must agree).
        """
        if target_ring.domain != self.ring.domain:
            raise ParameterError("map_vars requires identical coefficient rings")
        rename = rename or {}
        src_vars = self.ring.vars
        positions = {}
        for i, v in enumerate(src_vars):
            tv = rename.get(v, v)
            if tv in target_ring._var_index:
                positions[i] = target_ring._var_index[tv]
        if len(set(positions.values())) != len(positions):
            raise ParameterError("variable renaming is not injective")
        width = len(target_ring.vars)
        out = {}
        for e, c in self.terms.items():
            ne = [0] * width
            for i, exp in enumerate(e):
                if exp:
                    if i not in positions:
                        raise ParameterError(
                            f"variable {src_vars[i]!r} has no image in target ring")
                    ne[positions[i]] = exp
            ne = tuple(ne)
            if not target_ring.admits(ne):
                raise ParameterError("target ring does not admit a monomial")
            out[ne] = c
        return TruncatedSeries(target_ring, out)

    def substitute(self, assignments, target_ring=None):
        """Substitute series for variables.

        Every substituted series must live in the target ring and have zero
        constant term, unless the variable is declared polynomial (capped) in
        the source ring, in which case a constant term is allowed.  Unmapped
        variables pass through by name.
        """
        ring = self.ring
        target = target_ring if target_ring is not None else ring
        if target.domain != ring.domain:
            raise ParameterError("substitution requires identical coefficient rings")
        for v, s in assignments.items():
            if v not in ring._var_index:
                raise ParameterError(f"unknown variable {v!r}")
            if s.ring != target:
                raise ParameterError(f"assignment for {v!r} not in the target ring")
            if not ring.domain.is_negligible(s.constant_term()) and v not in ring.caps:
                raise ParameterError(
                    f"nonzero constant term substituted into uncapped variable {v!r}")
        images = {}
        for i, v in enumerate(ring.vars):
            if v in assignments:
                images[i] = assignments[v]
            else:
                if any(e[i] for e in self.terms):
                    if v not in target._var_index:
                        raise ParameterError(f"variable {v!r} missing from target ring")
                    images[i] = target.var(v)
        powers = {i: {0: target.one(), 1: img} for i, img in images.items()}

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                best = max(k for k in cache if k <= e)
                cur = cache[best]
                for k in range(best + 1, e + 1):
                    cur = cur * cache[1]
                    cache[k] = cur
            return cache[e]

        out = target.zero()
        for e, c in sorted(self.terms.items()):
            mono = target.constant(c)
            for i, exp in enumerate(e):
                if exp:
                    mono = mono * power(i, exp)
            out = out + mono
        return out

    def reduce_mod_p(self):
        """Coefficientwise reduction to the residue field."""
        dom = self.ring.domain
        if dom.kind == "witt":
            field = dom.ring.field
            target = SeriesRing(FqDomain(field), self.ring.vars, self.ring.degree,
                                self.ring.caps)
            return self.map_coeffs(target, lambda c: c.reduce_mod_p())
        if dom.kind == "padic":
            field = ff_make(dom.params.p, dom.params.f)
            target = SeriesRing(FqDomain(field), self.ring.vars, self.ring.degree,
                                self.ring.caps)

            def red(c):
                if c.is_exact_zero():
                    return field.zero()
                if c.unit is None:
                    if c.abs < 1:
                        raise PrecisionError("coefficient unknown even mod p")
                    return field.zero()
                if c.val < 0:
                    raise IntegralityError("negative valuation present")
                return field.zero() if c.val > 0 else c.unit.reduce_mod_p()

            return self.map_coeffs(target, red)
        raise ParameterError("reduce_mod_p needs Witt or p-adic coefficients")

    # -- serialization ------------------------------------------------------------

    def to_json(self):
        dom = self.ring.domain
        return {
            "vars": list(self.ring.vars),
            "degree_bound": self.ring.degree,
            "caps": {k: v for k, v in sorted(self.ring.caps.items())},
            "coeff_ring": dom.descriptor(),
            "terms": [{"exps": list(e), "coeff": dom.coeff_to_json(c)}
                      for e, c in sorted(self.terms.items())],
        }

    @staticmethod
    def from_json(data):
        dom = domain_from_descriptor(data["coeff_ring"])
        ring = SeriesRing(dom, tuple(data["vars"]), data["degree_bound"],
                          data.get("caps") or None)
        terms = {}
        for t in data["terms"]:
            terms[tuple(t["exps"])] = dom.coeff_from_json(t["coeff"])
        return TruncatedSeries(ring, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items())[:12]:
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.ring.vars, e) if k)
            bits.append(f"({c}){mono or '1'}")
        suffix = " + ..." if len(self.terms) > 12 else ""
        return " + ".join(bits) + suffix


def product_over(family):
    """Product of a non-empty family, by balanced pairwise multiplication."""
    items = list(family)
    if not items:
        raise ParameterError("empty product family")
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(items[i] * items[i + 1])
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]
