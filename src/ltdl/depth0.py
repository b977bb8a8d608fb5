"""The depth-0 deformation equation and its blow-up charts.

For each index vector a in F_q^n \\ {0} the series P_a is the formal sum of
the Teichmuller scalar multiples [a_i~](X_i); their product P (with the
ambient unit set to 1) is the local equation P - p of the deformation space.
Every chart is one blow-up step (`_blowup_step`): substitute V_i * pivot
for each affine coordinate and the pivot for the centre, check that each
factor vanishes to order exactly 1 in the pivot, factor it out, and check
that the quotient mod the pivot and X_n is exactly the affine law
sum_i [a_i~] V_i + [a_k~].  On the P_a with X_i = V_i * X_n it exhibits the
exceptional multiplicity q^n - 1 and the residual factors P'_a; on the
trailing-zero blocks it reproduces the multiplicity sequence q^{n_t} - 1.
Setting X_n = 0 and reducing mod p turns the residual into the product of
all rational affine forms, and the projective coordinate change rewrites it
as the hyperplane-product equation of the Deligne-Lusztig variety.

One P_a per projective class carries all of this.  For c in F_q^x the
Teichmuller scalar [c~ a_i~](X) is c~ a_i~ X, so P_{ca}(X) = P_a(c~ X).
Every term of F has total degree = 1 mod q^n - 1 (Lubin-Tate), and q - 1
divides q^n - 1, so every term of P_a has total degree d = 1 mod q - 1, and
c~^d = c~ gives P_{ca} = c~ P_a = [c~] o P_a.  X_i -> V_i X_n commutes with
scaling, so P'_{ca} = c~ P'_a and the affine law of ca is c~ times that of
a: the blow-up checks hold at ca exactly when they hold at a.  The product
over the class {ca} is s P_a^{q-1}, s = Teich(prod of F_q^x) = (-1)^q (the
lift of 1 for q even).  So the suite builds P_a at the class
representatives alone (first nonzero entry 1), and P and the chart residual
are s^k (prod over the k representatives)^{q-1}.  Conversely, if a term of
P_a had degree d != 1 mod q - 1, c~^{d-1} - 1 would be a unit for a
generator c and P_{ca} != [c~] o P_a: the census's degree-support test is
exactly the scalar relations.

Everything here is exact mod (p^N, the stated degree windows); structural
expectations that come from verified identities raise VerificationError
rather than returning garbage.
"""

from .errors import ParameterError, VerificationError
from .formal_modules import normalize_scalar_key
from .linalg import index_vectors, projective_representative
from .series import SeriesRing, TruncatedSeries, product_over

X_PIVOT = "Xn"


def x_vars(n):
    return tuple(f"X{i}" for i in range(1, n + 1))


def deformation_ring(module):
    """The W/p^N series ring in X1..Xn."""
    return SeriesRing(module.F.ring.domain, x_vars(module.n), module.D)


def build_P_a(module, a, ring=None):
    """P_a = [a_1~](X_1) +_F ... +_F [a_n~](X_n)."""
    ring = deformation_ring(module) if ring is None else ring
    parts = []
    for i, k in enumerate(a):
        if k == 0:
            continue
        key = normalize_scalar_key(module.field, ("teich", k))
        series = module.scalar_series(key)
        parts.append(series.substitute({"X": ring.var(f"X{i + 1}")}, ring))
    if not parts:
        raise ParameterError("index vector must be nonzero")
    return module.formal_sum(parts)


def deformation_factors(module):
    """{a: P_a} over the class representatives a of F_q^n - 0 (first
    nonzero entry 1), in `index_vectors` order, each built once.

    The census, P, the charts and the strata all read their P_a from one
    such dict; P_{ca} = c~ P_a gives the rest of each class.
    """
    ring, field = deformation_ring(module), module.field
    return {a: build_P_a(module, a, ring) for a in index_vectors(field, module.n)
            if projective_representative(field, a) == a}


def class_product(module, family):
    """s^k (prod family)^{q-1}, s = (-1)^q, for the k series of `family`,
    one per class: the product of c~ f over c in F_q^x and f in `family`.
    The product is formed first, then raised to q - 1."""
    power = product_over(family) ** (module.q - 1)
    return -power if module.q * len(family) % 2 else power


def build_P(module, factors=None):
    """P = prod over a in F_q^n - 0 of P_a (ambient unit taken to be 1), the
    `class_product` of the class factors, read from `factors` (a
    `deformation_factors` dict) when given.

    The lowest total degree must come out as q^n - 1.
    """
    q, n = module.q, module.n
    if module.D <= q ** n - 1:
        raise ParameterError(
            f"degree bound {module.D} <= q^n - 1 = {q ** n - 1}: P would truncate to 0")
    factors = deformation_factors(module) if factors is None else factors
    P = class_product(module, list(factors.values()))
    if P.is_zero() or P.lowest_degree() != q ** n - 1:
        raise VerificationError("P does not vanish to order exactly q^n - 1")
    return P


def special_fiber_components(module, factors):
    """The component census of the special fiber: one component per
    projective class of F_q^n - 0, each of multiplicity q - 1.

    It passes when `factors` (a `deformation_factors` dict) holds
    (q^n - 1)/(q - 1) class factors and every term of each has total degree
    = 1 mod q - 1, which is exactly P_{ca} = [c~] o P_a for every member ca
    of every class (module docstring).
    """
    q = module.q
    expected = (q ** module.n - 1) // (q - 1)
    support = all((sum(e) - 1) % (q - 1) == 0 for f in factors.values() for e in f.terms)
    return {"components": len(factors), "expected_components": expected, "multiplicity": q - 1,
            "all_scalar_checks_pass": len(factors) == expected and support}


def stratum_membership(module, a, j, factors):
    """P_a in (X_1, ..., X_j), via the monomial-ideal membership test on the
    factor of a's class in `factors` (a `deformation_factors` dict), of
    which P_a is a unit multiple."""
    P_a = factors[projective_representative(module.field, a)]
    return P_a.ideal_membership_monomial([f"X{i}" for i in range(1, j + 1)])


# -- blow-up charts -------------------------------------------------------------


def chart_ring(module, source, coords, names):
    """Ring of a blow-up step on `source`, whose chart coordinates are
    `coords`: the step centres on coords[k - 1], k = len(names), and its ring
    has the variables `names` (the new affine variables, then the pivot),
    then the variables of `source` outside `coords`.

    The substitution sends a monomial of total degree d in coords[:k] to one
    of pivot-degree d.  An uncapped (series) centre has total degree < D, so
    the pivot is capped at D - 1 and the result is exact for all
    pivot-exponents < D; a capped centre passes its cap to the pivot.  Each
    new affine variable takes the cap of the coordinate it replaces, or D.
    """
    D = module.D
    keep = tuple(v for v in source.vars if v not in coords)
    caps = {v: source.caps.get(u, D) for u, v in zip(coords, names[:-1])}
    caps[names[-1]] = source.caps.get(coords[len(names) - 1], D - 1)
    caps.update((v, cap) for v, cap in source.caps.items() if v in keep)
    return SeriesRing(source.domain, names + keep, 2 * D + 1, caps)


def chart_substitution(ring, coords, k):
    """coords[i] -> V_i * pivot for i < k - 1 and coords[k - 1] -> pivot,
    where V_1, ..., V_{k-1}, pivot are the first k variables of `ring`."""
    pivot = ring.var(ring.vars[k - 1])
    assignments = {u: ring.var(v) * pivot for u, v in zip(coords[:k - 1], ring.vars)}
    assignments[coords[k - 1]] = pivot
    return assignments


def _affine_law(module, ring, a, affine):
    """The chart factor of P_a that the blow-up must leave mod its pivot:
    sum_i [a_i~] affine[i] + [a_k~], k = len(a) = len(affine) + 1, as a
    series of `ring` and as its form {var or "const": coefficient}."""
    form = {v: module.scalar_coefficient(("teich", c)) for v, c in zip(affine, a) if c}
    if a[-1]:
        form["const"] = module.scalar_coefficient(("teich", a[-1]))
    expect = ring.zero()
    for v, c in form.items():
        expect = expect + (ring.constant(c) if v == "const" else ring.var(v, c))
    return expect, form


def _blowup_step(module, factors, coords, names):
    """One blow-up step on `factors` ({a: series}, a in F_q^k - 0, k =
    len(names), all in one ring with chart coordinates `coords`): substitute
    by `chart_substitution` into `chart_ring`, check that each factor
    vanishes to order exactly 1 in the pivot, factor it out, and check that
    the quotient mod the pivot and X_n is exactly the affine law of a.

    Returns {a: quotient}.
    """
    k = len(names)
    source = next(iter(factors.values())).ring
    ring = chart_ring(module, source, coords, names)
    assignments = chart_substitution(ring, coords, k)
    pivots = dict.fromkeys((names[-1], X_PIVOT))
    quotients = {}
    for a, f in factors.items():
        s = f.substitute(assignments, ring)
        # structural coupling that makes the chart exact: a source monomial of
        # degree d maps to one term with pivot-degree d, so affine total <= it
        if any(sum(e[:k - 1]) > e[k - 1] for e in s.terms):
            raise VerificationError(f"chart substitution lost the degree coupling at a={a}")
        if s.var_valuation(names[-1]) != 1:
            raise VerificationError(f"factor a={a} does not vanish to order 1 in {names[-1]}")
        quotient = s.factor_out(names[-1], 1)
        expect, _ = _affine_law(module, ring, a, names[:-1])
        reduced = quotient
        for v in pivots:
            reduced = reduced.set_var_to_zero(v)
        if reduced != expect:
            raise VerificationError(
                f"chart factor for a={a} is not exactly affine-linear mod {', '.join(pivots)}")
        quotients[a] = quotient
    return quotients


class ChartReport:
    """Exceptional-divisor data of the first blow-up on the X_n-pivot chart."""

    def __init__(self, q, n, pivot, valuation, residual, linear_parts, factors):
        self.q = q
        self.n = n
        self.pivot = pivot
        self.valuation = valuation
        self.residual = residual
        self.linear_parts = linear_parts  # index vector -> {var or "const": Witt}
        self.factors = factors            # class representative a -> P'_a

    def to_json(self):
        dom = self.residual.ring.domain
        lp = {}
        for a, form in sorted(self.linear_parts.items()):
            lp[",".join(map(str, a))] = {k: dom.coeff_to_json(v)
                                         for k, v in sorted(form.items())}
        return {"q": self.q, "n": self.n, "pivot": self.pivot,
                "valuation": self.valuation, "linear_parts": lp}


def blowup_chart(module, factors):
    """The first blow-up on the X_n-pivot chart: `_blowup_step` substitutes
    X_i = V_i X_n into each class factor P_a of `factors` (a
    `deformation_factors` dict), factors out X_n once and checks that the
    quotient P'_a is exactly affine-linear mod X_n.

    The substitution is a ring map sending degree d to X_n-degree d, so the
    chart image of P = prod P_a is the product of the images of the P_a: it
    vanishes to order q^n - 1 in X_n, one per a in F_q^n - 0, q - 1 per
    class, and the residual is prod P'_a, the `class_product` of the class
    quotients (P'_{ca} = c~ P'_a).  A term of X_n-degree below the window
    W = D - (q^n - 1) is a product of factor terms below W, so the product
    is formed with X_n capped below W, where it is exact.  The linear parts
    are the affine laws of every a in F_q^n - 0."""
    q, n = module.q, module.n
    if module.D < q ** n + 1:
        raise ParameterError("degree bound too small for the chart (need q^n + 1)")
    names = tuple(f"V{i}" for i in range(1, n)) + (X_PIVOT,)
    chart_factors = _blowup_step(module, factors, x_vars(n), names)
    ring = next(iter(chart_factors.values())).ring
    window = module.D - (q ** n - 1)
    low = SeriesRing(ring.domain, ring.vars, ring.degree, {**ring.caps, X_PIVOT: window - 1})
    pivot = ring._var_index[X_PIVOT]
    residual = class_product(module, [TruncatedSeries(low, {e: c for e, c in f.terms.items()
                                                            if e[pivot] < window})
                                      for f in chart_factors.values()])
    linear_parts = {a: _affine_law(module, ring, a, names[:-1])[1]
                    for a in index_vectors(module.field, n)}
    return ChartReport(q, n, X_PIVOT, (q - 1) * len(chart_factors), residual, linear_parts,
                       chart_factors)


def checked_depth_sequence(depth_sequence, n):
    """The depth sequence as a list of ints, or ParameterError.

    It is a list of integers or their comma-separated text (as given to
    --depth-sequence), and must strictly decrease from n to >= 1.
    """
    parts = depth_sequence.split(",") if isinstance(depth_sequence, str) else depth_sequence
    try:
        seq = [int(x) for x in parts]
    except (TypeError, ValueError):
        raise ParameterError(
            f"depth sequence {depth_sequence!r} is not a list of integers") from None
    if not seq or seq[0] != n or any(s <= t for s, t in zip(seq, seq[1:])) or seq[-1] < 1:
        raise ParameterError("depth sequence must strictly decrease from n to >= 1")
    return seq


def iterated_chart(module, depth_sequence, chart):
    """Multiplicities along repeated blow-up steps at trailing-zero strata,
    starting from `chart` (the `blowup_chart` at n).

    depth_sequence is strictly decreasing, starting at n; at each deeper
    step only the factors indexed by the trailing-zero block vanish on the
    stratum, each to order exactly 1 in the new pivot.  The chart holds one
    factor per class, and a class representative with trailing zeros is one
    of the block, so the q - 1 members of each class give q^{n_t} - 1.
    """
    q, n = module.q, module.n
    seq = checked_depth_sequence(depth_sequence, n)
    valuations = [chart.valuation]
    factors = chart.factors
    block = n
    for depth, sub_block in enumerate(seq[1:], start=1):
        # factors are indexed by F_q^block - 0 in variables (chart coordinates,
        # previous pivots..., Xn); the trailing-zero sub-block is blown up
        ring = next(iter(factors.values())).ring
        coords = ring.vars[:block - 1]
        # off the stratum: after killing the blown-up block, every previous
        # pivot and Xn, the factor must stay a nonzero form in the surviving
        # generic coordinates
        killed = coords[:sub_block] + ring.vars[block - 1:]
        for a, fac in factors.items():
            if any(a[sub_block:]):
                for v in killed:
                    fac = fac.set_var_to_zero(v)
                if fac.is_zero():
                    raise VerificationError(
                        f"factor a={a} unexpectedly vanishes on the depth-{depth} stratum")
        on_stratum = {a[:sub_block]: fac for a, fac in factors.items() if not any(a[sub_block:])}
        names = tuple(f"U{depth}_{i}" for i in range(1, sub_block)) + (coords[sub_block - 1],)
        factors = _blowup_step(module, on_stratum, coords, names)
        valuations.append((q - 1) * len(factors))
        block = sub_block
    return valuations


def un_special_fiber(module, chart):
    """Reduce the chart residual mod (p, X_n) and change to projective
    coordinates, yielding the hyperplane-product equation; it must equal
    Moore's closed form (-1)^n Delta^{q-1} - 1 of the Deligne-Lusztig
    equation (`dl_equation`), a theorem, or VerificationError.  `chart` is
    the `blowup_chart` at n.

    A passing comparison also settles the GL_n(F_q)-invariance of the lowest
    form L of P mod p, which needs no check of its own: the residual is
    P(V X_n, X_n) / X_n^{q^n-1}, so mod (p, X_n) it is L(V, 1), and
    homogenized it is L.  So L = (-1)^n Delta^{q-1}, Delta = det(X_i^{q^j}).
    For g over F_q, (X g)_i^{q^j} = sum_k X_k^{q^j} g_ki, so Delta(X g) =
    det(g) Delta(X), and L(X g) = det(g)^{q-1} L = L for invertible g
    (`GLGroup` refuses a generator with det = 0)."""
    from .dl_variety import dl_equation

    q, n = module.q, module.n
    const = chart.residual.set_var_to_zero(X_PIVOT)
    red = const.reduce_mod_p()
    deg = q ** n - 1
    # homogenize V_i -> X'_i / X'_n into degree q^n - 1
    dl = dl_equation(q, n)
    out = {}
    vidx = [red.ring._var_index[f"V{i}"] for i in range(1, n)]
    for e, c in red.terms.items():
        exps = [e[i] for i in vidx]
        total = sum(exps)
        if total > deg:
            raise VerificationError("residual reduction exceeds the product degree")
        out[tuple(exps) + (deg - total,)] = c
    if TruncatedSeries(dl.ring, out) - dl.ring.one() != dl:
        raise VerificationError("the chart residual mod (p, Xn) is not the DL equation")
    return {"q": q, "n": n, "chart_equation": dl}

