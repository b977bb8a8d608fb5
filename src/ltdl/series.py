"""Truncated multivariate power series over pluggable coefficient rings.

Truncation is by total degree: a ring with degree bound D stores exponent
vectors of total degree < D.  Optional per-variable caps mark polynomial
variables (chart coordinates V_i, deformation parameters T_i) that carry an
exact bounded degree rather than a truncated tail; substitutions with a
nonzero constant term are only allowed into such variables.

The coefficient ring is the ring object itself: ffield.FieldDesc,
witt.WittRing or witt.PadicParams.  Series store the ring's raw values
(canonical ints, ints or tuples mod p^N, BoundedPadic objects) and reach
them only through the ring: zero(), one(), add, neg, mul, is_negligible(c),
residue(c), descriptor() and coeff_to_json(c), so each ring keeps the
format, the arithmetic and the drop policy of its own coefficients.

All arithmetic is exact and canonical: results are independent of operand
order and of any internal evaluation order.
"""

from operator import add, itemgetter

from .errors import ParameterError


class SeriesRing:
    """Descriptor: coefficient ring, ordered variables, total-degree bound,
    optional caps."""

    __slots__ = ("domain", "vars", "degree", "caps", "_var_index", "_cap_index")

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
        self._cap_index = tuple((self._var_index[v], cap) for v, cap in self.caps.items())

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
        return all(exps[i] <= cap for i, cap in self._cap_index)

    def zero(self):
        return TruncatedSeries(self, {})

    def one(self):
        return self.constant(self.domain.one())

    def constant(self, coeff):
        if self.domain.is_negligible(coeff):
            return self.zero()
        return TruncatedSeries(self, {(0,) * len(self.vars): coeff})

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
        if self.ring is not other.ring and self.ring != other.ring:
            raise ParameterError("series from different rings")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        _add_into(out, other.terms, self.ring.domain)
        return TruncatedSeries(self.ring, out)

    def __neg__(self):
        neg = self.ring.domain.neg
        return TruncatedSeries(self.ring, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Truncated product.  The right terms are taken in order of total
        degree, so each left term of degree d stops at the first right term
        of degree >= D - d and no pair past the bound is ever formed."""
        self._check(other)
        ring = self.ring
        dom = ring.domain
        cadd, cmul, negligible = dom.add, dom.mul, dom.is_negligible
        caps = ring._cap_index
        bound = ring.degree
        right = sorted(((sum(e), e, c) for e, c in other.terms.items()),
                       key=itemgetter(0))
        out = {}
        get = out.get
        for e1, c1 in self.terms.items():
            room = bound - sum(e1)
            for d2, e2, c2 in right:
                if d2 >= room:
                    break
                e = tuple(map(add, e1, e2))
                if caps and any(e[i] > cap for i, cap in caps):
                    continue
                c = cmul(c1, c2)
                prev = get(e)
                if prev is not None:
                    c = cadd(prev, c)
                if negligible(c):
                    out.pop(e, None)
                else:
                    out[e] = c
        return TruncatedSeries(ring, out)

    def scale(self, coeff):
        dom = self.ring.domain
        out = {}
        for e, c in self.terms.items():
            s = dom.mul(coeff, c)
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
        return (isinstance(other, TruncatedSeries) and self.ring == other.ring
                and self.terms == other.terms)

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

        A one-term image c x^v (a rename, X_i -> V_i X_n, zeta X) maps each
        term's exponents directly and multiplies coefficients, with no series
        product.  Powers of the other images are formed only for the
        exponents that terms need, each from the one below when that exists
        and by squaring otherwise, so a sparse exponent set such as {1, 25}
        costs a few squarings.
        """
        ring = self.ring
        target = target_ring if target_ring is not None else ring
        dom = target.domain
        if dom != ring.domain:
            raise ParameterError("substitution requires identical coefficient rings")
        for v, s in assignments.items():
            if v not in ring._var_index:
                raise ParameterError(f"unknown variable {v!r}")
            if s.ring != target:
                raise ParameterError(f"assignment for {v!r} not in the target ring")
            if not dom.is_negligible(s.constant_term()) and v not in ring.caps:
                raise ParameterError(
                    f"nonzero constant term substituted into uncapped variable {v!r}")
        cmul, negligible = dom.mul, dom.is_negligible
        one = dom.one()
        terms = sorted(self.terms.items())
        shifts = {}   # variable -> (exponent vector of c x^v, [c^0, c^1, ...] or None if c = 1)
        powers = {}   # variable -> {k: image^k} for images of several terms
        for i, v in enumerate(ring.vars):
            needed = sorted({e[i] for e, _ in terms} - {0})
            if not needed:
                continue
            img = assignments.get(v)
            if img is None:
                if v not in target._var_index:
                    raise ParameterError(f"variable {v!r} missing from target ring")
                img = target.var(v)
            if len(img.terms) > 1:
                cache = powers[i] = {1: img}
                for k in needed:
                    _power(cache, k)
            elif img.terms:
                (exps, c), = img.terms.items()
                cpow = None
                if c != one:
                    cpow = [one, c]
                    for _ in range(needed[-1] - 1):
                        cpow.append(cmul(cpow[-1], c))
                shifts[i] = (exps, cpow)
            else:
                shifts[i] = None  # the zero image kills every term with this variable
        admits = target.admits
        width = len(target.vars)
        out = {}
        for e, c in terms:
            if negligible(c):
                continue
            w = [0] * width
            factors = []
            for i, k in enumerate(e):
                if not k:
                    continue
                if i in powers:
                    factors.append(powers[i][k])
                    continue
                shift = shifts[i]
                if shift is None:
                    break
                exps, cpow = shift
                for j, x in enumerate(exps):
                    if x:
                        w[j] += k * x
                if cpow is not None:
                    c = cmul(c, cpow[k])
            else:
                w = tuple(w)
                # exponents only grow, so a term whose monomial part is not
                # admitted has an empty image
                if negligible(c) or not admits(w):
                    continue
                mono = {w: c}
                for f in factors:
                    mono = (TruncatedSeries(target, mono) * f).terms
                _add_into(out, mono, dom)
        return TruncatedSeries(target, out)

    def reduce_mod_p(self):
        """Coefficientwise reduction of a Witt series to the residue field."""
        ring = self.ring
        field = getattr(ring.domain, "field", None)
        if field is None:
            raise ParameterError("reduce_mod_p needs Witt coefficients")
        target = SeriesRing(field, ring.vars, ring.degree, ring.caps)
        return self.map_coeffs(target, ring.domain.residue)

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


def _power(cache, k):
    """image^k in the power cache {j: image^j}, from image^(k-1) when that
    is cached and by squaring image^(k // 2) otherwise."""
    got = cache.get(k)
    if got is None:
        if k - 1 in cache:
            got = cache[k - 1] * cache[1]
        else:
            half = _power(cache, k // 2)
            got = half * half
            if k % 2:
                got = got * cache[1]
        cache[k] = got
    return got


def _add_into(out, terms, dom):
    """Add the terms into the dict out in place, dropping every sum that
    becomes negligible in the coefficient ring dom."""
    cadd, negligible = dom.add, dom.is_negligible
    for e, c in terms.items():
        if e in out:
            s = cadd(out[e], c)
            if negligible(s):
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = c


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
