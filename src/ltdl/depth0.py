"""The depth-0 deformation equation and its blow-up charts.

For each index vector a in F_q^n \\ {0} the series P_a is the formal sum of
the Teichmuller scalar multiples [a_i~](X_i); their product P (with the
ambient unit set to 1) is the local equation P - p of the deformation space.
Substituting X_i = V_i * X_n exhibits the exceptional multiplicity q^n - 1
and the residual factors P'_a, whose reductions mod X_n are exactly affine
linear; iterating the substitution on trailing-zero blocks reproduces the
multiplicity sequence q^{n_t} - 1.  Setting X_n = 0 and reducing mod p turns
the residual into the product of all rational affine forms, and the
projective coordinate change rewrites it as the hyperplane-product equation
of the Deligne-Lusztig variety.

Everything here is exact mod (p^N, the stated degree windows); structural
expectations that come from verified identities raise VerificationError
rather than returning garbage.
"""

from itertools import product

from .errors import ParameterError, VerificationError
from .formal_modules import lubin_tate_module, normalize_scalar_key
from .linalg import vec_mat
from .series import SeriesRing, TruncatedSeries, product_over

X_PIVOT = "Xn"


def index_vectors(field, n, nonzero=True):
    """All vectors in F_q^n (canonical-int tuples), zero excluded by default."""
    vecs = product(range(field.q), repeat=n)
    return [v for v in vecs if any(v)] if nonzero else list(vecs)


def projective_representative(field, a):
    """Scale a so its first nonzero entry is 1."""
    for k in a:
        if k:
            inv = field.inv(k)
            return tuple(field.mul(x, inv) for x in a)
    raise ParameterError("zero vector has no projective class")


def projective_classes(field, n):
    """Partition of F_q^n - 0 into scalar classes keyed by canonical reps."""
    classes = {}
    for a in index_vectors(field, n):
        rep = projective_representative(field, a)
        classes.setdefault(rep, []).append(a)
    return classes


def x_vars(n):
    return tuple(f"X{i}" for i in range(1, n + 1))


def deformation_ring(module, n=None):
    """The W/p^N series ring in X1..Xn (plus the module's T-parameters)."""
    n = module.n if n is None else n
    return SeriesRing(module.F.ring.domain, x_vars(n) + module.aux_vars, module.D)


def build_P_a(module, a, ring=None):
    """P_a = [a_1~](X_1) +_F ... +_F [a_n~](X_n)."""
    n = len(a)
    ring = deformation_ring(module, n) if ring is None else ring
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


def build_P(module, n=None):
    """P = prod over a of P_a (ambient unit taken to be 1).

    The lowest total degree must come out as q^n - 1.
    """
    n = module.n if n is None else n
    q = module.q
    if module.D <= q ** n - 1:
        raise ParameterError(
            f"degree bound {module.D} <= q^n - 1 = {q ** n - 1}: P would truncate to 0")
    ring = deformation_ring(module, n)
    factors = [build_P_a(module, a, ring) for a in index_vectors(module.field, n)]
    P = product_over(factors)
    if P.is_zero() or P.lowest_degree() != q ** n - 1:
        raise VerificationError("P does not vanish to order exactly q^n - 1")
    return P


def scalar_compat_check(module, a, c):
    """P_{c a} = [c~] o P_a, exactly at the working precision."""
    field = module.field
    if c % field.q == 0:
        raise ParameterError("scalar must be a unit")
    ring = deformation_ring(module, len(a))
    ca = tuple(field.mul(c, x) for x in a)
    lhs = build_P_a(module, ca, ring)
    rhs = module.formal_scalar(normalize_scalar_key(field, ("teich", c)),
                               build_P_a(module, a, ring))
    return lhs == rhs


def special_fiber_components(module, n=None):
    """Group the P_a by projective class and verify the scalar relations.

    The class count is (q^n - 1)/(q - 1) and each class has q - 1 members,
    matching the component/multiplicity census of the special fiber.
    """
    n = module.n if n is None else n
    q = module.q
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
            if not scalar_compat_check(module, rep, c):
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
    ring = deformation_ring(module, len(a))
    P_a = build_P_a(module, a, ring)
    return P_a.ideal_membership_monomial([f"X{i}" for i in range(1, j + 1)])


# -- blow-up charts -------------------------------------------------------------


def chart_ring(module, n, block=None):
    """Ring for the X_n-pivot chart: polynomial V_i, series pivot X_n.

    The substitution X_i -> V_i Xn sends total degree to Xn-degree, so with
    the Xn cap at D - 1 the result is exact for all Xn-exponents < D; the
    V-degrees are coupled to the Xn-degree and capped at D.
    """
    D = module.D
    block = n if block is None else block
    vs = tuple(f"V{i}" for i in range(1, block))
    caps = {v: D for v in vs}
    caps[X_PIVOT] = D - 1
    return SeriesRing(module.F.ring.domain, vs + (X_PIVOT,) + module.aux_vars,
                      2 * D + 1, caps)


def _chart_substitute(module, series, n, ring):
    assignments = {f"X{i}": ring.var(f"V{i}") * ring.var(X_PIVOT)
                   for i in range(1, n)}
    assignments[f"X{n}"] = ring.var(X_PIVOT)
    return series.substitute(assignments, ring)


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


def blowup_chart(module, n=None):
    """Substitute X_i = V_i X_n into P, factor out X_n^{q^n-1} and check
    that every residual factor is exactly affine-linear mod X_n."""
    n = module.n if n is None else n
    q = module.q
    if module.D < q ** n + 1:
        raise ParameterError("degree bound too small for the chart (need q^n + 1)")
    ring = chart_ring(module, n)
    x_ring = deformation_ring(module, n)
    factors = {}
    linear_parts = {}
    subbed = []
    pivot_idx = ring._var_index[X_PIVOT]
    v_idx = [ring._var_index[f"V{i}"] for i in range(1, n)]
    for a in index_vectors(module.field, n):
        P_a = build_P_a(module, a, x_ring)
        s = _chart_substitute(module, P_a, n, ring)
        # structural coupling that makes the chart exact: a source monomial of
        # degree d maps to one term with Xn-degree d, so V-total <= Xn-degree
        for e in s.terms:
            if sum(e[i] for i in v_idx) > e[pivot_idx]:
                raise VerificationError("chart substitution lost the degree coupling")
        if s.var_valuation(X_PIVOT) != 1:
            raise VerificationError(f"P_a for a={a} does not vanish to order 1 on the chart")
        fac = s.factor_out(X_PIVOT, 1)
        factors[a] = fac
        const = fac.set_var_to_zero(X_PIVOT)
        expect = ring.zero()
        form = {}
        for i in range(1, n):
            if a[i - 1]:
                coeff = module.scalar_value(("teich", a[i - 1])).to_witt(module.N)
                expect = expect + ring.var(f"V{i}", coeff)
                form[f"V{i}"] = coeff
        if a[n - 1]:
            coeff = module.scalar_value(("teich", a[n - 1])).to_witt(module.N)
            expect = expect + ring.constant(coeff)
            form["const"] = coeff
        if const != expect:
            raise VerificationError(
                f"chart factor for a={a} is not exactly affine-linear mod {X_PIVOT}")
        linear_parts[a] = form
        subbed.append(s)
    P_sub = product_over(subbed)
    val = P_sub.var_valuation(X_PIVOT)
    if val != q ** n - 1:
        raise VerificationError(
            f"chart multiplicity {val} differs from q^n - 1 = {q ** n - 1}")
    residual = P_sub.factor_out(X_PIVOT, q ** n - 1)
    # consistency: the residual equals the product of the per-factor parts
    # wherever both are exact (Xn-degree < D - (q^n - 1))
    window = module.D - (q ** n - 1)
    prod = product_over(list(factors.values()))
    trim = lambda s: TruncatedSeries(s.ring, {e: c for e, c in s.terms.items()
                                              if e[s.ring._var_index[X_PIVOT]] < window})
    if trim(prod) != trim(residual):
        raise VerificationError("residual disagrees with the factored product")
    return ChartReport(q, n, X_PIVOT, val, residual, linear_parts, factors)


def iterated_chart(module, depth_sequence, n=None):
    """Multiplicities along repeated blow-up steps at trailing-zero strata.

    depth_sequence is strictly decreasing, starting at n; at each deeper
    step only the factors indexed by the trailing-zero block vanish on the
    stratum, each to order exactly 1 in the new pivot, giving q^{n_t} - 1.
    """
    n = module.n if n is None else n
    seq = list(depth_sequence)
    if not seq or seq[0] != n or any(s <= t for s, t in zip(seq, seq[1:])) or seq[-1] < 1:
        raise ParameterError("depth sequence must strictly decrease from n to >= 1")
    q = module.q
    chart = blowup_chart(module, n)
    valuations = [chart.valuation]
    factors = chart.factors
    block = n
    pivot_names = iter(f"U{k}_" for k in range(1, len(seq) + 1))
    for depth, sub_block in enumerate(seq[1:], start=1):
        prefix = next(pivot_names)
        # factors are indexed by F_q^block - 0 in variables (old affine vars,
        # previous pivots..., Xn); select the trailing-zero sub-block
        ring = factors[next(iter(factors))].ring
        old_affine = ring.vars[:block - 1]
        new_affine = tuple(f"{prefix}{i}" for i in range(1, sub_block))
        pivot = old_affine[sub_block - 1]
        keep = tuple(ring.vars[block - 1:])
        new_ring = SeriesRing(ring.domain, new_affine + (pivot,) + keep,
                              ring.degree,
                              {**{v: ring.caps.get(old_affine[i], module.D)
                                  for i, v in enumerate(new_affine)},
                               **{v: ring.caps[v] for v in ring.caps if v in keep},
                               pivot: ring.caps.get(pivot, module.D)})
        assignments = {old_affine[i]: new_ring.var(new_affine[i]) * new_ring.var(pivot)
                       for i in range(sub_block - 1)}
        assignments[pivot] = new_ring.var(pivot)
        new_factors = {}
        total_val = 0
        for a, fac in factors.items():
            trailing_zero = all(x == 0 for x in a[sub_block:])
            if trailing_zero:
                sub = fac.substitute(assignments, new_ring)
                v_val = sub.var_valuation(pivot)
                if v_val != 1:
                    raise VerificationError(
                        f"factor a={a} does not vanish to order 1 at depth {depth}")
                total_val += 1
                new_fac = sub.factor_out(pivot, 1)
                sub_a = a[:sub_block]
                new_factors[sub_a] = new_fac
                # affine-linear law in the new chart coordinates, exactly
                const = new_fac.set_var_to_zero(pivot).set_var_to_zero(X_PIVOT)
                expect = new_ring.zero()
                for i in range(1, sub_block):
                    if sub_a[i - 1]:
                        cf = module.scalar_value(("teich", sub_a[i - 1])).to_witt(module.N)
                        expect = expect + new_ring.var(new_affine[i - 1], cf)
                if sub_a[sub_block - 1]:
                    cf = module.scalar_value(("teich", sub_a[sub_block - 1])).to_witt(module.N)
                    expect = expect + new_ring.constant(cf)
                if const != expect:
                    raise VerificationError(
                        f"depth-{depth} factor for a={sub_a} not affine-linear")
            else:
                # off the stratum: after killing the blown-up block, every
                # previous pivot and Xn, the factor must stay a nonzero form
                # in the surviving generic coordinates
                reduced = fac
                for v in old_affine[:sub_block]:
                    reduced = reduced.set_var_to_zero(v)
                for v in keep:
                    if v not in module.aux_vars:
                        reduced = reduced.set_var_to_zero(v)
                if reduced.is_zero():
                    raise VerificationError(
                        f"factor a={a} unexpectedly vanishes on the depth-{depth} stratum")
        if total_val != q ** sub_block - 1:
            raise VerificationError(
                f"depth-{depth} multiplicity {total_val} != q^{sub_block} - 1")
        valuations.append(total_val)
        factors = new_factors
        block = sub_block
    return valuations


def un_special_fiber(module, n=None):
    """Reduce the chart residual mod (p, X_n) and change to projective
    coordinates, yielding the hyperplane-product equation; compare with the
    directly built Deligne-Lusztig equation."""
    from .dl_variety import dl_equation

    n = module.n if n is None else n
    q = module.q
    chart = blowup_chart(module, n)
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
    return {"q": q, "n": n,
            "chart_equation": candidate,
            "un_equation_matches_dl": candidate == dl.equation}


def default_chart_module(q, n, N=8, D=None):
    """The default lift for chart computations: the T -> 0 base module."""
    return lubin_tate_module(q, n, N=N, D=D)


def gl_linear_shadow_check(module, matrices, n=None):
    """The multiset of linear parts of P mod p is permuted by a -> a g.

    Checks both the index action on linear forms and the invariance of the
    lowest-degree part of P mod p under the linear substitution by g.
    """
    n = module.n if n is None else n
    field = module.field
    P = build_P(module, n)
    red = P.reduce_mod_p()
    lowest = red.homogeneous_part(module.q ** n - 1)
    ring = red.ring
    ok = True
    for g in matrices:
        forms = sorted(index_vectors(field, n))
        image = sorted(vec_mat(field, a, g) for a in forms)
        if image != forms:
            ok = False
        assignments = {}
        for j in range(1, n + 1):
            s = ring.zero()
            for i in range(1, n + 1):
                k = g[i - 1][j - 1]
                if k:
                    s = s + ring.var(f"X{i}", field.from_int(k))
            assignments[f"X{j}"] = s
        if lowest.substitute(assignments, ring) != lowest:
            ok = False
    return ok
