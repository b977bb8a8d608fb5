"""The Deligne-Lusztig variety DL: prod_{a in F_q^n - 0} (a . x) = 1, with
its commuting right GL_n(F_q) and mu_{q^n-1} actions (G. Lusztig, "Coxeter
orbits and eigenspaces of Frobenius", Invent. Math. 38, 1976).

The product P is homogeneous of degree q^n - 1, so every point of DL is a
scalar multiple of a line of P^{n-1}(F_{q^m}) off the rational hyperplanes.
`line_census` walks those lines once; integer congruences on their log P
values give the rational count, the Frobenius-twisted counts N_m(zeta)
(`per_zeta_counts`, with no larger field built) and the lines that carry
DL points.  `line_points` scales such a line onto the variety: `dl_points`
lists DL(F_{q^m}) from every census line, and `orbit_check` proves from
the first point of the first line that GL_n(F_q) acts simply transitively
on DL(F_{q^m}).  The Moebius count of the base lines stays as a
cross-check.  No function here walks F_{q^m}^n.

Points are vectors of canonical field integers; all enumeration is
deterministic (lexicographic) and exact.
"""

from itertools import product
from math import gcd

from .errors import VerificationError
from .ffield import embed, ff_make, field_for_order, gaussian_binomial
from .linalg import (
    group_order,
    index_vectors,
    sparse_columns,
    vec_mul,
)
from .series import SeriesRing, product_over


class DLInstance:
    """q, n, the defining polynomial, and its linear factors."""

    def __init__(self, q, n, ring, equation, forms):
        self.q = q
        self.n = n
        self.ring = ring
        self.equation = equation  # prod of forms - 1
        self.forms = forms        # list of index vectors a (canonical ints)


def dl_equation(q, n):
    """prod over a in F_q^n - 0 of (a_1 X_1 + ... + a_n X_n) minus 1.

    The product is Galois-stable, so its coefficients lie in the prime
    field; this is asserted rather than assumed.
    """
    field = field_for_order(q)
    ring = SeriesRing(field, tuple(f"X{i}" for i in range(1, n + 1)), q ** n + 1)
    forms = index_vectors(field, n)
    linear = []
    for a in forms:
        s = ring.zero()
        for i, k in enumerate(a):
            if k:
                s = s + ring.var(f"X{i + 1}", k)
        linear.append(s)
    prod = product_over(linear)
    for c in prod.terms.values():
        if field.pow(c, field.p) != c:
            raise VerificationError("product of rational forms not defined over F_p")
    return DLInstance(q, n, ring, prod - ring.one(), forms)


class Ambient:
    """F_{q^m} with its log/Zech kernel, the embedded F_q, and mu_{q^n-1} data."""

    def __init__(self, q, n, m):
        self.q = q
        self.n = n
        self.m = m
        base = field_for_order(q)
        self.base = base
        self.field = ff_make(base.p, base.f * m)
        self.embed_map = [embed(k, base, self.field) for k in range(q)]
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

    def embed_matrix(self, g):
        """A matrix over F_q with its entries embedded in this field."""
        return tuple(tuple(self.embed_map[v] for v in row) for row in g)

    def mu_generator(self):
        """A generator of the solutions of z^{q^n - 1} = 1 in this field."""
        order = self.field.q - 1
        return self.field.exp[order // gcd(self.q ** self.n - 1, order)]


def line_census(q, n, m):
    """One walk of P^{n-1}(F_{q^m}): (base, residues, lines).

    P is homogeneous of degree q^n - 1, so the DL points on the line of x0
    are the c * x0 with c^{q^n-1} = P(x0)^{-1}.  With g = gcd(q^n - 1,
    q^m - 1) there are g such c in F_{q^m} when g divides log P(x0), and
    none otherwise.  base counts the lines with P(x0) != 0 (those off every
    rational hyperplane), residues[r] those with log P(x0) = r mod g, and
    lines holds the lines with residue 0 in walk order.  The rational count
    |DL(F_{q^m})| is g * residues[0]; `per_zeta_counts` reads the
    Frobenius-twisted counts off the same residues.
    """
    amb = Ambient(q, n, m)
    log = amb.field.log
    g = gcd(q ** n - 1, q ** m - 1)
    base, residues, lines = 0, [0] * g, []
    for x0 in _projective_reps(amb):
        value = amb.product_of_forms(x0)
        if value:
            base += 1
            r = log[value] % g
            residues[r] += 1
            if r == 0:
                lines.append(x0)
    return base, residues, lines


def line_points(amb, x0):
    """The g = gcd(q^n - 1, q^m - 1) DL points c * x0, c^{q^n-1} = P(x0)^{-1},
    on a census line x0: log c = (t / g) ((q^n-1) / g)^{-1} + k (q^m-1) / g
    mod q^m - 1 for k in range(g), with t = -log P(x0)."""
    field = amb.field
    order, B = field.q - 1, amb.q ** amb.n - 1
    g = gcd(B, order)
    t = -field.log[amb.product_of_forms(x0)] % order
    first = t // g * pow(B // g, -1, order // g)
    return [tuple(field.mul(field.exp[(first + k * (order // g)) % order], v) for v in x0)
            for k in range(g)]


def dl_points(q, n, m, lines):
    """DL(F_{q^m}) in lexicographic order, from the residue-0 `lines` of
    `line_census(q, n, m)`; a VerificationError names a point off the variety."""
    amb = Ambient(q, n, m)
    points = sorted(x for x0 in lines for x in line_points(amb, x0))
    off = [x for x in points if not amb.on_variety(x)]
    if off:
        raise VerificationError(f"{len(off)} of {len(points)} census points off "
                                f"DL(F_{amb.field.q}), first {list(off[0])}")
    return points


def rational_level(q, n):
    """(m, line_census(q, n, m)) at the smallest m in [n, 2n] where
    DL(F_{q^m}) has a point; a VerificationError if there is none."""
    for m in range(n, 2 * n + 1):
        census = line_census(q, n, m)
        if census[1][0]:
            return m, census
    raise VerificationError(f"DL(F_{{q^m}}) has no point for any m in [{n}, {2 * n}]")


def _projective_reps(amb):
    """First-nonzero-coordinate-1 representatives of P^{n-1}(F_{q^m})."""
    Q = amb.field.q
    n = amb.n
    for lead in range(n):
        for t in product(range(Q), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + t


def base_points_moebius(q, n, m):
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


def orbit_check(q, n, m, generators, witness, count):
    """Whether GL_n(F_q), given by `generators`, acts simply transitively on
    the `count` points of DL(F_{q^m}), and mu_{q^n-1} keeps them: returns
    (orbit, failure), with failure None when every condition holds.

    The orbit is that of the first `line_points` of the census line
    `witness`, walked breadth first with every new image checked on
    the variety.  A walk closed under generators of a finite group is the
    whole group orbit, so it is an invariant subset of the variety; its size
    equal to `count` makes it all of DL(F_{q^m}) (transitivity), and equal
    to |GL_n(F_q)| makes every stabiliser trivial (freeness).  The mu
    generator mapping the orbit into itself gives the mu-invariance.

    A passing walk also settles the fibers over P^{n-1}: a line carries at
    most g = gcd(q^n - 1, q^m - 1) points of the variety, and a rational
    hyperplane none (P = 0 there), so an orbit of `count` = g * residues[0]
    points puts exactly g of them over each residue-0 census line.
    """
    amb = Ambient(q, n, m)
    field = amb.field
    start = line_points(amb, witness)[0]
    gens = [sparse_columns(amb.embed_matrix(g)) for g in generators]
    orbit, seen, off = [start], {start}, int(not amb.on_variety(start))
    for x in orbit:  # orbit grows while it is walked, so this is the queue
        for g in gens:
            y = vec_mul(field, x, g)
            if y not in seen:
                off += not amb.on_variety(y)
                seen.add(y)
                orbit.append(y)
    size, group = len(orbit), group_order(q, n)
    if off:
        return orbit, f"{off} of {size} orbit points off the variety"
    if size != count or size != group:
        return orbit, f"orbit of {size} points, count {count}, |GL_n(F_q)| {group}"
    z = amb.mu_generator()
    if field.pow(z, q ** n - 1) != 1:
        return orbit, f"the mu generator {z} is not a (q^n-1)-th root of unity"
    zi = field.inv(z)
    if any(tuple(field.mul(zi, v) for v in x) not in seen for x in orbit):
        return orbit, "the mu generator leaves the orbit"
    return orbit, None


def per_zeta_counts(q, n, residues):
    """N_m(zeta^k) = #{x : Frob_{q^m}(x) = zeta^{-k} x, x on the variety}
    for k in range(q^n - 1), from the `residues` of `line_census`.

    With g = len(residues) = gcd(q^n - 1, q^m - 1), zeta generates
    mu_{q^n-1} with zeta^{(q^n-1)/g} = gamma^{(q^m-1)/g}, gamma the stored
    generator of F_{q^m}^x.  Such an x spans an F_{q^m}-rational line, so
    x = c * x0 with x0 a census line, c^{q^m-1} = zeta^{-k} and c^{q^n-1} =
    P(x0)^{-1}.  In the cyclic group of order (q^m-1)(q^n-1) the two
    congruences on log c have g common solutions when log_gamma P(x0) = k
    mod g, and none otherwise (CRT).  So N_m(1) is the rational count.
    """
    g = len(residues)
    return [g * residues[k % g] for k in range(q ** n - 1)]

