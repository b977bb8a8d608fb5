"""The Deligne-Lusztig variety prod_{a in F_q^n - 0} (a . x) = 1 as an
enumerable object: point counts over F_{q^m}, the commuting right GL_n(F_q)
and mu_{q^n-1} actions, fibers over the rational-hyperplane complement, and
Frobenius-twisted counts.

Points are vectors of canonical field integers; all enumeration is
deterministic (lexicographic) and exact.
"""

from itertools import product
from math import gcd

from .errors import BudgetError, ParameterError, VerificationError
from .ffield import MAX_DEGREE, embed, ff_make, field_for_order, gaussian_binomial
from .linalg import vec_mat
from .series import FqDomain, SeriesRing, product_over

POINT_BUDGET = 10 ** 8
AMBIENT_FIELD_BOUND = 4096


class DLInstance:
    """q, n, the defining polynomial, and its linear factors."""

    def __init__(self, q, n, ring, equation, forms):
        self.q = q
        self.n = n
        self.ring = ring
        self.equation = equation  # prod of forms - 1
        self.forms = forms        # list of index vectors a (canonical ints)

    def to_json(self):
        return {"q": self.q, "n": self.n, "equation": self.equation.to_json(),
                "num_forms": len(self.forms)}


def dl_equation(q, n):
    """prod over a in F_q^n - 0 of (a_1 X_1 + ... + a_n X_n) minus 1.

    The product is Galois-stable, so its coefficients lie in the prime
    field; this is asserted rather than assumed.
    """
    if q ** n > 2 ** 20:
        raise ParameterError(f"q^n = {q ** n} exceeds 2^20")
    field = field_for_order(q)
    ring = SeriesRing(FqDomain(field), tuple(f"X{i}" for i in range(1, n + 1)),
                      q ** n + 1)
    forms = []
    linear = []
    for a in product(range(q), repeat=n):
        if not any(a):
            continue
        forms.append(a)
        s = ring.zero()
        for i, k in enumerate(a):
            if k:
                s = s + ring.var(f"X{i + 1}", field.from_int(k))
        linear.append(s)
    prod = product_over(linear)
    for c in prod.terms.values():
        if c.frobenius() != c:
            raise VerificationError("product of rational forms not defined over F_p")
    return DLInstance(q, n, ring, prod - ring.one(), forms)


class Ambient:
    """F_{q^m} with its log/Zech kernel, the embedded F_q, and mu_{q^n-1} data."""

    def __init__(self, q, n, m):
        self.q = q
        self.n = n
        self.m = m
        if q ** m > AMBIENT_FIELD_BOUND:
            raise BudgetError(
                f"ambient field size {q ** m} exceeds {AMBIENT_FIELD_BOUND}")
        if q ** (m * n) > POINT_BUDGET:
            raise BudgetError(f"{q}^{m * n} points exceed the {POINT_BUDGET} budget")
        base = field_for_order(q)
        if base.f * m > MAX_DEGREE:
            raise BudgetError(
                f"ambient field degree {base.f * m} exceeds {MAX_DEGREE}")
        self.base = base
        self.field = ff_make(base.p, base.f * m)
        self.embed_map = [embed(base.from_int(k), self.field).canonical_int()
                          for k in range(q)]
        self._embed_logs = [self.field.log[v] for v in self.embed_map[1:]]

    def product_of_forms(self, x):
        """prod (a . x) over a in F_q^n - 0; early zero exit.

        The values a . x are built as the F_q-span of x's coordinates in log
        form, one Zech addition each, and the product is one sum of logs.
        """
        if not all(x):
            return 0  # the form picking out a zero coordinate vanishes
        log, zech, order = self.field.log, self.field.zech, self.field.q - 1
        span = []  # logs of a . x over nonzero a supported on the coordinates so far
        for xi in x:
            multiples = [(lx + log[xi]) % order for lx in self._embed_logs]
            new = list(multiples)
            for lv in span:
                for lm in multiples:
                    z = zech[lm - lv]
                    if z is None:
                        return 0
                    new.append((lv + z) % order)
            span += new
        return self.field.exp[sum(span) % order]

    def on_variety(self, x):
        return self.product_of_forms(x) == 1

    def points(self):
        """Lexicographic enumeration of all vectors in F_{q^m}^n."""
        Q = self.field.q
        if Q ** self.n > POINT_BUDGET:
            raise BudgetError(f"{Q}^{self.n} points exceed the {POINT_BUDGET} budget")
        return product(range(Q), repeat=self.n)

    def frobenius_int(self, x, power=1):
        return self.field.pow(x, self.base.q ** power)

    def mu_elements(self):
        """Solutions of z^{q^n - 1} = 1 in this field, in canonical order."""
        order = self.q ** self.n - 1
        avail = gcd(order, self.field.q - 1)
        step = (self.field.q - 1) // avail
        return sorted(self.field.exp[k * step] for k in range(avail))


def dl_points(q, n, m, mode="count"):
    """Exhaustive solutions of the DL equation over F_{q^m}."""
    amb = Ambient(q, n, m)
    pts = [x for x in amb.points() if amb.on_variety(x)]
    if mode == "list":
        return pts
    if mode == "count":
        return len(pts)
    raise ParameterError(f"unknown mode {mode!r}")


def base_points(q, n, m, method="enumerate"):
    """Points of P^{n-1}(F_{q^m}) avoiding every F_q-rational hyperplane."""
    if method == "moebius":
        return _base_points_moebius(q, n, m)
    if method != "enumerate":
        raise ParameterError(f"unknown method {method!r}")
    amb = Ambient(q, n, m)
    count = 0
    for x in _projective_reps(amb):
        if amb.product_of_forms(x) != 0:
            count += 1
    return count


def _projective_reps(amb):
    """First-nonzero-coordinate-1 representatives of P^{n-1}(F_{q^m})."""
    Q = amb.field.q
    n = amb.n
    if Q ** n > POINT_BUDGET:
        raise BudgetError("projective enumeration over budget")
    for lead in range(n):
        for t in product(range(Q), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + t


def _base_points_moebius(q, n, m):
    """Inclusion-exclusion over the lattice of F_q-rational subspaces.

    N_d = |P^{d-1}(F_{q^m})| - sum_{e<d} [d choose e]_q N_e, so the full-rank
    term counts points in no proper rational subspace.
    """
    proj = lambda d: (q ** (m * d) - 1) // (q ** m - 1)
    N = {}
    for d in range(1, n + 1):
        total = proj(d)
        for e in range(1, d):
            total -= gaussian_binomial(d, e, q) * N[e]
        N[d] = total
    return N[n]


def act(amb, x, g=None, zeta=None):
    """Apply (g, zeta): x -> zeta^{-1} (x g), in the ambient field of amb.

    g has canonical-int entries over F_q; zeta is a canonical int of the
    ambient field whose order must divide q^n - 1.
    """
    field = amb.field
    out = x
    if g is not None:
        emb_g = tuple(tuple(amb.embed_map[v] for v in row) for row in g)
        out = vec_mat(field, out, emb_g)
    if zeta is not None:
        if not zeta or field.pow(zeta, amb.q ** amb.n - 1) != 1:
            raise ParameterError("zeta does not have order dividing q^n - 1")
        zi = field.inv(zeta)
        out = tuple(field.mul(zi, v) for v in out)
    return out


def action_invariance_check(q, n, m, matrices):
    """Every (g, zeta) maps DL(F_{q^m}) points to DL points; returns the
    number of (point, g, zeta) triples checked."""
    amb = Ambient(q, n, m)
    pts = [x for x in amb.points() if amb.on_variety(x)]
    mus = amb.mu_elements()
    checked = 0
    for x in pts:
        for g in matrices:
            for z in mus:
                if not amb.on_variety(act(amb, x, g, z)):
                    raise VerificationError(
                        f"action by (g, zeta) left the variety at x={x}")
                checked += 1
    return checked


def fiber_structure_check(q, n, m):
    """Fibers of DL(F_{q^m}) -> P^{n-1} complement have size gcd(q^n-1, q^m-1)."""
    amb = Ambient(q, n, m)
    pts = [x for x in amb.points() if amb.on_variety(x)]
    fibers = {}
    for x in pts:
        lead = next(i for i, v in enumerate(x) if v)
        inv = amb.field.inv(x[lead])
        rep = (0,) * lead + tuple(amb.field.mul(inv, v) for v in x[lead:])
        fibers.setdefault(rep, []).append(x)
        if amb.product_of_forms(rep) == 0:
            raise VerificationError("DL point image lies on a rational hyperplane")
    expected = gcd(q ** n - 1, q ** m - 1)
    sizes = sorted(set(len(v) for v in fibers.values()))
    ok = sizes in ([], [expected])
    if not ok:
        raise VerificationError(f"fiber sizes {sizes} != gcd = {expected}")
    return {"q": q, "n": n, "m": m, "count": len(pts), "base_points_hit": len(fibers),
            "fiber_size": expected, "vacuous": not pts}


def twisted_count(q, n, g, zeta, M, frob_power=1):
    """#{x in DL(F_{q^M}) : x_i^{q^frob_power} = (zeta^{-1} (x g))_i for all i}."""
    amb = Ambient(q, n, M)
    count = 0
    for x in amb.points():
        if not amb.on_variety(x):
            continue
        tx = act(amb, x, g, zeta)
        if all(amb.frobenius_int(xi, frob_power) == ti for xi, ti in zip(x, tx)):
            count += 1
    return count


def twist_field_degree(q, n, m):
    """Smallest M = m*j containing all solutions of Frob_{q^m}(x) = zeta^{-1} x:
    needs (q^n - 1) | (q^{mj} - 1)/(q^m - 1) and n | M for the full mu-group."""
    order = q ** n - 1
    j = 1
    while True:
        sigma = (q ** (m * j) - 1) // (q ** m - 1)
        if sigma % order == 0 and (m * j) % n == 0:
            return m * j
        j += 1
        if j > n * order:
            raise ParameterError("no twist field degree found (unexpected)")


def twisted_sum_check(q, n, m):
    """sum over zeta of the Frob_{q^m}-twisted counts = (q^n-1) * base count."""
    M = twist_field_degree(q, n, m)
    amb = Ambient(q, n, M)
    mus = amb.mu_elements()
    if len(mus) != q ** n - 1:
        raise VerificationError("ambient field does not contain the full mu-group")
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    total = sum(twisted_count(q, n, ident, z, M, frob_power=m) for z in mus)
    expected = (q ** n - 1) * base_points(q, n, m)
    return {"q": q, "n": n, "m": m, "twist_field_degree": M,
            "sum_of_twisted_counts": total, "expected": expected,
            "matches": total == expected}


def orbit_partition_check(q, n, m, matrices):
    """GL x mu orbits partition DL(F_{q^m}); orbit sizes divide |GL|*(q^n-1)."""
    amb = Ambient(q, n, m)
    pts = set(x for x in amb.points() if amb.on_variety(x))
    mus = amb.mu_elements()
    group_size = len(matrices) * (q ** n - 1)
    seen = set()
    orbits = []
    for x in sorted(pts):
        if x in seen:
            continue
        orbit = set()
        frontier = [x]
        while frontier:
            y = frontier.pop()
            if y in orbit:
                continue
            orbit.add(y)
            for g in matrices:
                for z in mus:
                    im = act(amb, y, g, z)
                    if im not in orbit:
                        frontier.append(im)
        if not orbit <= pts:
            raise VerificationError("orbit left the point set")
        seen |= orbit
        orbits.append(len(orbit))
    if sum(orbits) != len(pts):
        raise VerificationError("orbits do not partition the point set")
    for size in orbits:
        if group_size % size:
            raise VerificationError(f"orbit size {size} does not divide {group_size}")
    return orbits
