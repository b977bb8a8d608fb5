"""The depth-0 deformation equation and its blow-up charts.

For each index vector a in F_q^n \\ {0} the series P_a is the formal sum of
the Teichmuller scalar multiples [a_i~](X_i); their product P (with the
ambient unit set to 1) is the local equation P - p of the deformation space.
Every chart is one blow-up step (`_blowup_step`): substitute V_i * pivot
for each affine coordinate and the pivot for the centre, check that each
factor vanishes to order exactly 1 in the pivot, factor it out, and check
that the quotient mod the pivot and X_n is exactly the affine law
sum_i [a_i~] V_i + [a_k~].  On all P_a with X_i = V_i * X_n it exhibits the
exceptional multiplicity q^n - 1 and the residual factors P'_a; on the
trailing-zero blocks it reproduces the multiplicity sequence q^{n_t} - 1.
Setting X_n = 0 and reducing mod p turns the residual into the product of
all rational affine forms, and the projective coordinate change rewrites it
as the hyperplane-product equation of the Deligne-Lusztig variety.

Everything here is exact mod (p^N, the stated degree windows); structural
expectations that come from verified identities raise VerificationError
rather than returning garbage.
"""

from .errors import ParameterError, VerificationError
from .formal_modules import normalize_scalar_key
from .linalg import index_vectors, projective_representative, sparse_columns, vec_mul
from .series import SeriesRing, TruncatedSeries, product_over

X_PIVOT = "Xn"


def projective_classes(field, n):
    """Partition of F_q^n - 0 into scalar classes keyed by canonical reps."""
    classes = {}
    for a in index_vectors(field, n):
        rep = projective_representative(field, a)
        classes.setdefault(rep, []).append(a)
    return classes


def x_vars(n):
    return tuple(f"X{i}" for i in range(1, n + 1))


def deformation_ring(module):
    """The W/p^N series ring in X1..Xn (plus the module's T-parameters)."""
    return SeriesRing(module.F.ring.domain, x_vars(module.n) + module.aux_vars, module.D)


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
    """{a: P_a} over a in F_q^n - 0, in `index_vectors` order, each built once.

    The census, P and the chart all read their P_a from one such dict.
    """
    ring = deformation_ring(module)
    return {a: build_P_a(module, a, ring) for a in index_vectors(module.field, module.n)}


def build_P(module, factors=None):
    """P = prod over a of P_a (ambient unit taken to be 1), from `factors`
    (a `deformation_factors` dict) when given.

    The lowest total degree must come out as q^n - 1.
    """
    q, n = module.q, module.n
    if module.D <= q ** n - 1:
        raise ParameterError(
            f"degree bound {module.D} <= q^n - 1 = {q ** n - 1}: P would truncate to 0")
    factors = deformation_factors(module) if factors is None else factors
    P = product_over(list(factors.values()))
    if P.is_zero() or P.lowest_degree() != q ** n - 1:
        raise VerificationError("P does not vanish to order exactly q^n - 1")
    return P


def scalar_compat_check(module, a, c, factors=None):
    """P_{c a} = [c~] o P_a, exactly at the working precision; both P's are
    read from `factors` when given."""
    field = module.field
    if c % field.q == 0:
        raise ParameterError("scalar must be a unit")
    ca = tuple(field.mul(c, x) for x in a)
    if factors is None:
        factors = {b: build_P_a(module, b) for b in (a, ca)}
    rhs = module.formal_scalar(normalize_scalar_key(field, ("teich", c)), factors[a])
    return factors[ca] == rhs


def special_fiber_components(module, factors=None):
    """Group the P_a by projective class and verify the scalar relations.

    The class count is (q^n - 1)/(q - 1) and each class has q - 1 members,
    matching the component/multiplicity census of the special fiber.
    """
    factors = deformation_factors(module) if factors is None else factors
    q, n = module.q, module.n
    field = module.field
    classes = projective_classes(field, n)
    expected = (q ** n - 1) // (q - 1)
    report = {
        "q": q,
        "n": n,
        "components": len(classes),
        "expected_components": expected,
        "multiplicity": q - 1,
        "classes": [],
        "all_scalar_checks_pass": True,
    }
    for rep in sorted(classes):
        members = sorted(classes[rep])
        ok = True
        for m_vec in members:
            c = None
            for x, y in zip(m_vec, rep):
                if y:
                    c = field.mul(x, field.inv(y))
                    break
            if not scalar_compat_check(module, rep, c, factors):
                ok = False
            if m_vec != tuple(field.mul(c, y) for y in rep):
                ok = False
        if not ok:
            report["all_scalar_checks_pass"] = False
        report["classes"].append({"rep": list(rep), "size": len(members),
                                  "scalar_checks_pass": ok})
    if len(classes) != expected or any(len(v) != q - 1 for v in classes.values()):
        report["all_scalar_checks_pass"] = False
    return report


def stratum_membership(module, a, j):
    """P_a in (X_1, ..., X_j), via the monomial-ideal membership test."""
    P_a = build_P_a(module, a)
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

    Returns ({a: quotient}, {a: affine form}).
    """
    k = len(names)
    source = next(iter(factors.values())).ring
    ring = chart_ring(module, source, coords, names)
    assignments = chart_substitution(ring, coords, k)
    pivots = dict.fromkeys((names[-1], X_PIVOT))
    quotients, forms = {}, {}
    for a, f in factors.items():
        s = f.substitute(assignments, ring)
        # structural coupling that makes the chart exact: a source monomial of
        # degree d maps to one term with pivot-degree d, so affine total <= it
        if any(sum(e[:k - 1]) > e[k - 1] for e in s.terms):
            raise VerificationError(f"chart substitution lost the degree coupling at a={a}")
        if s.var_valuation(names[-1]) != 1:
            raise VerificationError(f"factor a={a} does not vanish to order 1 in {names[-1]}")
        quotient = s.factor_out(names[-1], 1)
        expect, forms[a] = _affine_law(module, ring, a, names[:-1])
        reduced = quotient
        for v in pivots:
            reduced = reduced.set_var_to_zero(v)
        if reduced != expect:
            raise VerificationError(
                f"chart factor for a={a} is not exactly affine-linear mod {', '.join(pivots)}")
        quotients[a] = quotient
    return quotients, forms


class ChartReport:
    """Exceptional-divisor data of the first blow-up on the X_n-pivot chart."""

    def __init__(self, q, n, pivot, valuation, residual, linear_parts, factors):
        self.q = q
        self.n = n
        self.pivot = pivot
        self.valuation = valuation
        self.residual = residual
        self.linear_parts = linear_parts  # index vector -> {var or "const": Witt}
        self.factors = factors            # index vector -> P'_a

    def to_json(self):
        dom = self.residual.ring.domain
        lp = {}
        for a, form in sorted(self.linear_parts.items()):
            lp[",".join(map(str, a))] = {k: dom.coeff_to_json(v)
                                         for k, v in sorted(form.items())}
        return {"q": self.q, "n": self.n, "pivot": self.pivot,
                "valuation": self.valuation, "linear_parts": lp}


def blowup_chart(module, factors=None, P=None):
    """Substitute X_i = V_i X_n into P, factor out X_n^{q^n-1} and check
    that every residual factor is exactly affine-linear mod X_n.  The P_a
    come from `factors` (a `deformation_factors` dict) and P from `build_P`
    when given.

    The substitution sends a monomial of degree d to one of X_n-degree d,
    and the chart ring keeps exactly X_n-degree < D, so the image of P is
    the product of the images of the P_a and is taken directly."""
    q, n = module.q, module.n
    if module.D < q ** n + 1:
        raise ParameterError("degree bound too small for the chart (need q^n + 1)")
    factors = deformation_factors(module) if factors is None else factors
    coords = x_vars(n)
    chart_factors, linear_parts = _blowup_step(
        module, factors, coords, tuple(f"V{i}" for i in range(1, n)) + (X_PIVOT,))
    ring = next(iter(chart_factors.values())).ring
    P = build_P(module, factors) if P is None else P
    P_sub = P.substitute(chart_substitution(ring, coords, n), ring)
    val = P_sub.var_valuation(X_PIVOT)
    if val != q ** n - 1:
        raise VerificationError(
            f"chart multiplicity {val} differs from q^n - 1 = {q ** n - 1}")
    residual = P_sub.factor_out(X_PIVOT, q ** n - 1)
    # consistency: the residual equals the product of the per-factor parts
    # wherever both are exact (Xn-degree plus T-degree < D - (q^n - 1)); a
    # term there is a product of factor terms there, so the product is
    # formed with Xn capped below the window
    window = module.D - (q ** n - 1)
    low = SeriesRing(ring.domain, ring.vars, ring.degree, {**ring.caps, X_PIVOT: window - 1})
    exact = [ring._var_index[v] for v in (X_PIVOT,) + module.aux_vars]
    trim = lambda s: TruncatedSeries(low, {e: c for e, c in s.terms.items()
                                           if sum(e[i] for i in exact) < window})
    if trim(product_over([trim(f) for f in chart_factors.values()])) != trim(residual):
        raise VerificationError("residual disagrees with the factored product")
    return ChartReport(q, n, X_PIVOT, val, residual, linear_parts, chart_factors)


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


def iterated_chart(module, depth_sequence, chart=None):
    """Multiplicities along repeated blow-up steps at trailing-zero strata,
    starting from `chart` (the `blowup_chart` at n) when given.

    depth_sequence is strictly decreasing, starting at n; at each deeper
    step only the factors indexed by the trailing-zero block vanish on the
    stratum, each to order exactly 1 in the new pivot, giving q^{n_t} - 1.
    """
    n = module.n
    seq = checked_depth_sequence(depth_sequence, n)
    chart = blowup_chart(module) if chart is None else chart
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
        killed = coords[:sub_block] + tuple(v for v in ring.vars[block - 1:]
                                            if v not in module.aux_vars)
        for a, fac in factors.items():
            if any(a[sub_block:]):
                for v in killed:
                    fac = fac.set_var_to_zero(v)
                if fac.is_zero():
                    raise VerificationError(
                        f"factor a={a} unexpectedly vanishes on the depth-{depth} stratum")
        on_stratum = {a[:sub_block]: fac for a, fac in factors.items() if not any(a[sub_block:])}
        names = tuple(f"U{depth}_{i}" for i in range(1, sub_block)) + (coords[sub_block - 1],)
        factors, _ = _blowup_step(module, on_stratum, coords, names)
        valuations.append(len(factors))
        block = sub_block
    return valuations


def un_special_fiber(module, chart=None):
    """Reduce the chart residual mod (p, X_n) and change to projective
    coordinates, yielding the hyperplane-product equation; it must equal the
    directly built Deligne-Lusztig equation, or VerificationError.  `chart`
    is the `blowup_chart` at n, built here when not given."""
    from .dl_variety import dl_equation

    q, n = module.q, module.n
    chart = blowup_chart(module) if chart is None else chart
    window = module.D - (q ** n - 1)
    if window < 1:
        raise ParameterError("no exact window left to reduce the residual")
    const = chart.residual.set_var_to_zero(X_PIVOT)
    red = const.reduce_mod_p()
    deg = q ** n - 1
    # homogenize V_i -> X'_i / X'_n into degree q^n - 1
    dl = dl_equation(q, n)
    ring = dl.ring
    out = {}
    vidx = [red.ring._var_index[f"V{i}"] for i in range(1, n)]
    for e, c in red.terms.items():
        exps = [e[i] for i in vidx]
        total = sum(exps)
        if total > deg:
            raise VerificationError("residual reduction exceeds the product degree")
        out[tuple(exps) + (deg - total,)] = c
    homog = TruncatedSeries(ring, out)
    candidate = homog - ring.one()
    if candidate != dl.equation:
        raise VerificationError("the chart residual mod (p, Xn) is not the DL equation")
    return {"q": q, "n": n, "chart_equation": candidate}


def gl_linear_shadow_check(module, generators, P=None):
    """The multiset of linear parts of P mod p is permuted by a -> a g.

    Checks both the index action on linear forms and the invariance of the
    lowest-degree part of P mod p under the linear substitution by g, for
    every g in `generators`.  Both are group actions, so generators of
    GL_n(F_q) (`GLGroup.generators`) prove them for the whole group.  P
    (from `build_P`) is computed here when not given.
    """
    n, field = module.n, module.field
    P = build_P(module) if P is None else P
    red = P.reduce_mod_p()
    lowest = red.homogeneous_part(module.q ** n - 1)
    ring = red.ring
    forms = sorted(index_vectors(field, n))
    ok = True
    for g in generators:
        columns = sparse_columns(g)
        image = sorted(vec_mul(field, a, columns) for a in forms)
        if image != forms:
            ok = False
        assignments = {}
        for j, col in enumerate(columns, 1):
            s = ring.zero()
            for i, k in col:
                s = s + ring.var(f"X{i + 1}", k)
            assignments[f"X{j}"] = s
        if lowest.substitute(assignments, ring) != lowest:
            ok = False
    return ok
