"""All-vector oracles for the depth-0 suite.

The suite builds P_a at the class representatives alone and reads the rest
of each projective class through P_{ca} = c~ P_a (`ltdl.depth0`'s module
docstring).  These oracles build P_a at every a in F_q^n - 0 instead and
redo each computation on all of them: the census compares every member
P_{ca} with [c~] o P_a, P and the chart residual are products of all the
factors, the chart's linear parts are read off the all-vector quotients,
and the iterated chart and the strata walk every vector.  The tests hold
the class build to the same answers.
"""

from formal_oracles import formal_scalar

from ltdl import depth0
from ltdl.depth0 import X_PIVOT, build_P_a, checked_depth_sequence, deformation_ring, x_vars
from ltdl.errors import ParameterError
from ltdl.formal_modules import normalize_scalar_key
from ltdl.linalg import index_vectors, projective_representative
from ltdl.series import SeriesRing, TruncatedSeries, product_over


def projective_classes(field, n):
    """Partition of F_q^n - 0 into scalar classes keyed by canonical reps."""
    classes = {}
    for a in index_vectors(field, n):
        rep = projective_representative(field, a)
        classes.setdefault(rep, []).append(a)
    return classes


def all_vector_factors(module):
    """{a: P_a} over every a in F_q^n - 0, in `index_vectors` order."""
    ring = deformation_ring(module)
    return {a: build_P_a(module, a, ring) for a in index_vectors(module.field, module.n)}


def scalar_compat_check(module, a, c, factors=None):
    """P_{c a} = [c~] o P_a, exactly at the working precision; both P's are
    read from `factors` when given."""
    field = module.field
    if c % field.q == 0:
        raise ParameterError("scalar must be a unit")
    ca = tuple(field.mul(c, x) for x in a)
    if factors is None:
        factors = {b: build_P_a(module, b) for b in (a, ca)}
    rhs = formal_scalar(module, normalize_scalar_key(field, ("teich", c)), factors[a])
    return factors[ca] == rhs


def census_by_members(module, factors):
    """The census on all-vector `factors`: each class of the expected count
    and size, and every member P_{ca} equal to [c~] o P_a of its
    representative a."""
    q, n, field = module.q, module.n, module.field
    classes = projective_classes(field, n)
    expected = (q ** n - 1) // (q - 1)
    report = {"components": len(classes), "multiplicity": q - 1, "classes": [],
              "all_scalar_checks_pass": len(classes) == expected}
    for rep in sorted(classes):
        members = sorted(classes[rep])
        ok = True
        for member in members:
            c = next(field.mul(x, field.inv(y)) for x, y in zip(member, rep) if y)
            ok = ok and scalar_compat_check(module, rep, c, factors)
            ok = ok and member == tuple(field.mul(c, y) for y in rep)
        ok = ok and len(members) == q - 1
        report["all_scalar_checks_pass"] = report["all_scalar_checks_pass"] and ok
        report["classes"].append({"rep": list(rep), "size": len(members),
                                  "scalar_checks_pass": ok})
    return report


def P_by_product(factors):
    """P as the balanced product of all the P_a."""
    return product_over(list(factors.values()))


def affine_form(quotient, k):
    """The affine form {V_i or "const": coefficient} of a chart quotient in
    a ring whose first k - 1 variables are affine: its terms of degree <= 1
    in them once every other variable is set to 0."""
    ring = quotient.ring
    form = {}
    for e, c in quotient.terms.items():
        if any(e[k - 1:]):
            continue
        if not any(e):
            form["const"] = c
        elif sum(e) == 1:
            form[ring.vars[e.index(1)]] = c
    return form


def chart_by_vectors(module, factors):
    """(valuation, residual, linear parts, quotients) of the first blow-up
    on all-vector `factors`: one `_blowup_step` quotient per a, the residual
    their product with X_n capped below the window D - (q^n - 1), and each
    linear part read off its quotient."""
    n = module.n
    names = tuple(f"V{i}" for i in range(1, n)) + (X_PIVOT,)
    quotients = depth0._blowup_step(module, factors, x_vars(n), names)
    ring = next(iter(quotients.values())).ring
    window = module.D - (module.q ** n - 1)
    low = SeriesRing(ring.domain, ring.vars, ring.degree, {**ring.caps, X_PIVOT: window - 1})
    pivot = ring.vars.index(X_PIVOT)
    residual = product_over([TruncatedSeries(low, {e: c for e, c in f.terms.items()
                                                   if e[pivot] < window})
                             for f in quotients.values()])
    linear_parts = {a: affine_form(f, n) for a, f in quotients.items()}
    return len(quotients), residual, linear_parts, quotients


def iterated_by_vectors(module, depth_sequence, quotients):
    """The multiplicities of the iterated chart on the all-vector chart
    `quotients`: at each step the number of factors on the stratum."""
    seq = checked_depth_sequence(depth_sequence, module.n)
    valuations, factors, block = [len(quotients)], quotients, module.n
    for depth, sub_block in enumerate(seq[1:], start=1):
        coords = next(iter(factors.values())).ring.vars[:block - 1]
        on_stratum = {a[:sub_block]: f for a, f in factors.items() if not any(a[sub_block:])}
        names = tuple(f"U{depth}_{i}" for i in range(1, sub_block)) + (coords[sub_block - 1],)
        factors = depth0._blowup_step(module, on_stratum, coords, names)
        valuations.append(len(factors))
        block = sub_block
    return valuations


def strata_by_vectors(module, factors):
    """The strata rows with each P_a read from all-vector `factors`."""
    return [{"a": list(a), "j": j,
             "member": f.ideal_membership_monomial([f"X{i}" for i in range(1, j + 1)]),
             "expected": not any(a[j:])}
            for a, f in factors.items() for j in range(1, module.n)]
