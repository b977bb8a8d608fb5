"""The Deligne-Lusztig variety DL: prod_{a in F_q^n - 0} (a . x) = 1, with
its commuting right GL_n(F_q) and mu_{q^n-1} actions (G. Lusztig, "Coxeter
orbits and eigenspaces of Frobenius", Invent. Math. 38, 1976).

`dl_equation` builds P from Moore's closed form (-1)^n Delta^{q-1}.  P is
homogeneous of degree q^n - 1, so every point of DL is a scalar multiple
of a line of P^{n-1}(F_{q^m}) off the rational hyperplanes.  `line_census`
walks those lines once; integer congruences on their log P values give the
rational count, the Frobenius-twisted counts N_m(zeta) (`per_zeta_counts`,
with no larger field built) and the lines that carry DL points.
`line_points` scales such a line onto the variety, and `dl_points` lists
DL(F_{q^m}) from every census line.  The Moebius count of the base lines
stays as a cross-check.  No function here walks F_{q^m}^n or GL_n(F_q).

Points are vectors of canonical field integers; all enumeration is
deterministic (lexicographic) and exact.
"""

from itertools import permutations, product
from math import gcd

from .errors import VerificationError
from .ffield import embed, ff_make, field_for_order, gaussian_binomial
from .series import SeriesRing, TruncatedSeries


def dl_equation(q, n):
    """prod over a in F_q^n - 0 of (a_1 X_1 + ... + a_n X_n), minus 1, as
    Moore's closed form (-1)^n Delta^{q-1} - 1 with Delta = det(X_i^{q^j}),
    i = 1..n, j = 0..n-1 (E. H. Moore, Bull. AMS 2, 1896; L. E. Dickson,
    Trans. AMS 12, 1911).

    Delta is the sum over permutations s of sgn(s) prod_i X_i^{q^{s(i)}},
    and each s gives its own monomial, so Delta has coefficients +-1 and
    its power has them in F_p.  The product of the forms is a test oracle.
    """
    field = field_for_order(q)
    ring = SeriesRing(field, tuple(f"X{i}" for i in range(1, n + 1)), q ** n + 1)
    odd = lambda s: sum(a > b for i, a in enumerate(s) for b in s[i + 1:]) % 2
    delta = {tuple(q ** k for k in s): field.neg(1) if odd(s) else 1
             for s in permutations(range(n))}
    moore = TruncatedSeries(ring, delta) ** (q - 1)
    return (-moore if n % 2 else moore) - ring.one()


class Ambient:
    """F_{q^m} with its log/Zech kernel and the embedded F_q."""

    def __init__(self, q, n, m):
        self.q = q
        self.n = n
        self.m = m
        base = field_for_order(q)
        self.base = base
        self.field = ff_make(base.p, base.f * m)
        # the embedding is a homomorphism: log embed(g^k) = k log embed(g)
        j = self.field.log[embed(base.exp[1], base, self.field)]
        self._embed_logs = [j * base.log[k] % (self.field.q - 1) for k in range(1, q)]

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

    At m < n no line is walked and no field built: any n coordinates in
    F_{q^m} are F_q-dependent, so every line lies on a rational hyperplane,
    and the base, every residue and the lines are empty.
    """
    g = gcd(q ** n - 1, q ** m - 1)
    base, residues, lines = 0, [0] * g, []
    if m < n:
        return base, residues, lines
    amb = Ambient(q, n, m)
    log = amb.field.log
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
    `line_census(q, n, m)`.  Each c * x0 of `line_points` has c^{q^n-1} =
    P(x0)^{-1}, so P(c x0) = 1 by homogeneity and it lies on DL."""
    amb = Ambient(q, n, m)
    return sorted(x for x0 in lines for x in line_points(amb, x0))


def last_dl_level(q, n):
    """The last level m at which DL(F_{q^m}) can first have a point, m >= n
    (below n every line lies on a rational hyperplane).  The forms of a line
    x0 off the rational hyperplanes are the nonzero elements of an
    n-dimensional F_q-subspace V of F_{q^m}, and P(x0) is their product.  At
    m = n, V = F_{q^n} and P(x0) = -1, of residue 0 (a line with points)
    when -1 = 1.  At m = n + 1, V is the kernel of x -> Tr(b x), b != 0,
    whose subspace polynomial sum_i b^(q^i - q^n) x^(q^i) gives P(x0) =
    b^(1 - q^n), of residue 0 modulo g = q - 1."""
    return n if q % 2 == 0 else n + 1


def rational_level(q, n):
    """(m, line_census(q, n, m)) at the smallest m from n to
    `last_dl_level(q, n)` where DL(F_{q^m}) has a point; a VerificationError
    if there is none, which that bound's proof excludes."""
    last = last_dl_level(q, n)
    for m in range(n, last + 1):
        census = line_census(q, n, m)
        if census[1][0]:
            return m, census
    raise VerificationError(f"DL(F_{{q^m}}) has no point for any m from {n} to the "
                            f"proven bound last_dl_level = {last}")


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

