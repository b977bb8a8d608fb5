"""Matrix-level and power-basis oracles for the character layer.

`steinberg` and `is_cuspidal` read the standard parabolics off the class
histograms of `GLGroup.parabolics`; these build the subspaces, flags and
unipotent radicals as matrices and vectors instead, and the tests hold the
two to the same answers wherever both run.  The dense matrix product is the
oracle for the closure's sparse generator products, the per-class
multiplicity lift for the lift once per rational class, and `verify_table`,
the exact orthonormality check in Z[zeta], for the Gram matrix modulo a
split prime; `inner` is the exact inner product that the orthonormality
and reciprocity tests compute, and `product_is` the pointwise product that
the pi * St = Ind theta matches are held to.  The norm-kernel genericity
test is the oracle for the generic characters that `frobenius_orbits` lists
as the cycles of j -> jq of length n, and `dl_correspondence`, the match of
one theta by those two oracles, for the one match per orbit of
`correspondence_report`.

The package decides cuspidality and pi * St = Ind theta on residues mod the
table prime; `table_values` decodes a table's multiplicity vectors into
power-basis values as its report does, and `induce_by_coordinates`,
`is_cuspidal_by_coordinates` and `orbit_matches_by_coordinates` are the
power-basis forms of `induce_from_torus`, `is_cuspidal` and the
correspondence's lookup that the residue forms are held to.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from cyclo_oracles import Cyclo, dot, values_at

from ltdl.cyclo import euler_phi, from_powers
from ltdl.errors import ParameterError, VerificationError
from ltdl.gl_characters import compositions, frobenius_orbits
from ltdl.linalg import identity


def _dot(field, xs, ys):
    s = 0
    for x, y in zip(xs, ys):
        s = field.add(s, field.mul(x, y))
    return s


def is_generic_by_norm_kernels(q, n, j):
    """Whether theta_j is generic: theta_j, zeta_{q^n-1}^j on a generator, is
    nontrivial on the kernel of every norm F_{q^n}^x -> F_{q^m}^x, m a
    proper divisor of n.  That kernel is generated by the (q^m - 1)-th power
    of the generator; each value is a root of unity in Z[zeta]."""
    order = q ** n - 1
    for m in range(1, n):
        if n % m:
            continue
        step = q ** m - 1
        if all(Cyclo.zeta(order, j * k * step % order) == Cyclo.rational(1)
               for k in range(1, order // gcd(order, step) + 1)):
            return False
    return True


def mat_mul(field, A, B):
    cols = tuple(zip(*B))
    return tuple(tuple(_dot(field, row, col) for col in cols) for row in A)


def vec_mat(field, x, A):
    """Row-vector action x -> x A, by dense dot products."""
    return tuple(_dot(field, x, col) for col in zip(*A))


def closure_by_products(field, gens):
    """`generated_group` by dense matrix products: the same breadth-first
    closure, with each product g * s formed by `mat_mul`."""
    start = identity(len(gens[0]))
    found = [start]
    position = {start: 0}
    steps = [[] for _ in gens]
    for g in found:
        for s, step in zip(gens, steps):
            h = mat_mul(field, g, s)
            k = position.get(h)
            if k is None:
                k = position[h] = len(found)
                found.append(h)
            step.append(k)
    by_value = sorted(range(len(found)), key=found.__getitem__)
    rank = [0] * len(found)
    for i, k in enumerate(by_value):
        rank[k] = i
    elements = [found[k] for k in by_value]
    right = [[rank[step[k]] for k in by_value] for step in steps]
    return elements, right


def lift_per_class(group, characters, ell, w):
    """The eigenvalue multiplicities of every class rep in every character,
    one lift per class: m_t = (1/d) sum_s chi(g^s) zeta_d^{-st} mod ell,
    d = ord g, zeta_d = w^((ell-1)/d)."""
    out = []
    for degree, chi_mod in characters:
        row = []
        for j in range(group.num_classes):
            d = group.class_orders[j]
            z = pow(w, (ell - 1) // d, ell)
            powers = [chi_mod[group.powermap(j, s)] for s in range(d)]
            mult = []
            for t in range(d):
                m_t = sum(p * pow(z, -s * t % d, ell) for s, p in enumerate(powers))
                mult.append(m_t % ell * pow(d, ell - 2, ell) % ell)
            row.append(tuple(mult))
        out.append(row)
    return out


def inner(group, f, g):
    """<f, g>_G for class functions f and g on group, each value a
    coordinate tuple at the group's exponent or an int; the exact sum is
    divided by |G| once, at the end."""
    E = group.exponent
    total = dot(E, group.class_sizes, values_at(E, f), [b.conj() for b in values_at(E, g)])
    return Fraction(total.as_rational(), group.order)


def product_is(group, chi, psi, ind):
    """chi * psi = ind for class functions on group, each pointwise product
    formed in the oracle ring."""
    E = group.exponent
    return ([a * b for a, b in zip(values_at(E, chi), values_at(E, psi))]
            == values_at(E, ind))


def table_values(table):
    """The table's rows as power-basis values, decoded from its multiplicity
    vectors as `CharacterTable.to_json` does: per row, one coordinate tuple
    at the group's exponent per class."""
    E = table.group.exponent
    return [tuple(from_powers(E, m, E // len(m)) for m in row) for row in table.mults]


def verify_table(g, irr, degrees):
    """Exact orthonormality of a square table in Z[zeta], its rows `irr`
    given as power-basis values (`table_values`).

    Rows are checked for i <= j only, since <b, a> is the conjugate of
    <a, b>.  For a square X with X D X* = |G| I (D the class sizes) the
    inverse gives D X* X = |G| I, which is column orthogonality.
    """
    if len(irr) != g.num_classes:
        raise ArithmeticError(
            f"table is not square: {len(irr)} irreducibles for {g.num_classes} classes")
    if sum(d * d for d in degrees) != g.order:
        raise ArithmeticError("sum of squared degrees is off")
    m = g.exponent
    rows = [values_at(m, chi) for chi in irr]
    conj_rows = [[v.conj() for v in row] for row in rows]
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            total = dot(m, g.class_sizes, row, conj_rows[j])
            if total != (g.order if i == j else 0):
                raise ArithmeticError("row orthogonality failed")


def subspaces_by_dimension(field, n):
    """All F_q-subspaces of F_q^n as frozensets of vectors, keyed by dim."""
    vectors = list(product(range(field.q), repeat=n))
    zero = vectors[0]
    spans = {0: {frozenset([zero])}}
    for d in range(1, n + 1):
        new = set()
        for W in spans[d - 1]:
            for v in vectors:
                if v in W:
                    continue
                span = set()
                for w in W:
                    for c in range(field.q):
                        span.add(tuple(field.add(a, field.mul(c, b)) for a, b in zip(w, v)))
                new.add(frozenset(span))
        spans[d] = new
    return {d: sorted(spans[d], key=lambda W: sorted(W)) for d in spans}


def flags_of_type(subspaces, dims):
    """Chains W_{d_1} < W_{d_2} < ... for the given dimension set."""
    chains = [()]
    for d in sorted(dims):
        chains = [c + (W,) for c in chains for W in subspaces[d]
                  if not c or c[-1] <= W]
    return chains


def steinberg_by_flags(group):
    """St at each class rep: the alternating sum over dimension sets J of
    {1, ..., n-1} of the number of flags of type J that the rep fixes, under
    the row-vector action v -> v g."""
    n = group.n
    subspaces = subspaces_by_dimension(group.field, n)
    values = [0] * group.num_classes
    dim_sets = [[]]
    for d in range(1, n):
        dim_sets = dim_sets + [s + [d] for s in dim_sets]
    for dims in dim_sets:
        sign = (-1) ** ((n - 1) - len(dims))
        flags = flags_of_type(subspaces, dims)
        for ci, rep in enumerate(group.reps):
            fixed = sum(all(frozenset(vec_mat(group.field, v, rep) for v in W) == W
                            for W in chain)
                        for chain in flags)
            values[ci] += sign * fixed
    return values


def unipotent_radical(group, comp):
    """All block-upper unipotent matrices for the standard parabolic of type comp."""
    n, q = group.n, group.q
    blocks = []
    start = 0
    for size in comp:
        blocks.append(range(start, start + size))
        start += size
    free = [(i, j) for bi, B in enumerate(blocks) for i in B
            for bj in range(bi + 1, len(blocks)) for j in blocks[bj]]
    out = []
    for code in range(q ** len(free)):
        M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        k = code
        for (i, j) in free:
            M[i][j] = k % q
            k //= q
        out.append(tuple(tuple(r) for r in M))
    return out


def is_cuspidal_by_radicals(group, chi):
    """sum_{u in U} chi(u) = 0 for every proper standard parabolic radical U,
    summed over the radical's matrices."""
    values = values_at(group.exponent, chi)
    for comp in compositions(group.n):
        if len(comp) == 1:
            continue
        total = Cyclo.rational(0)
        for u in unipotent_radical(group, comp):
            total = total + values[group.class_of[group.index[u]]]
        if not total.is_zero():
            return False
    return True


def is_cuspidal_by_coordinates(group, chi):
    """sum_{u in U_c} chi(u) = 0 for every proper standard parabolic radical,
    each sum taken over the radical's class histogram on chi's power-basis
    coordinates, over the classes U_c meets."""
    for comp, (_, U) in group.parabolics.items():
        terms = [[w * c for c in chi[ci]] for ci, w in enumerate(U) if w]
        if len(comp) > 1 and any(map(sum, zip(*terms))):
            return False
    return True


def induce_by_coordinates(group, torus, j):
    """Ind_T^G theta_j: per class, its coordinate tuple at the group's
    exponent E.

    The value at class c is |C_G(c)| / |T| times the sum of theta_j over
    T meet c; it is an algebraic integer, so the division is exact in Z.
    """
    E = group.exponent
    # counts[ci][e]: how many C^k in class ci have theta_j(C^k) = zeta_|T|^e,
    # for the classes ci that T meets; the value is 0 at every other class
    counts = {}
    for k, ci in enumerate(torus.class_map):
        counts.setdefault(ci, [0] * torus.order)[(j * k) % torus.order] += 1
    values = [(0,) * euler_phi(E)] * group.num_classes
    for ci, cnt in sorted(counts.items()):
        acc = from_powers(E, cnt, E // torus.order)
        den = group.class_sizes[ci] * torus.order
        num, den = group.order // gcd(group.order, den), den // gcd(group.order, den)
        if den > 1 and any(c % den for c in acc):  # num / den in lowest terms
            raise VerificationError(f"Ind theta_{j} is not integral at class {ci}")
        values[ci] = tuple(c // den * num for c in acc)
    return tuple(values)


def orbit_matches_by_coordinates(data):
    """{orbit: the cuspidals pi with pi * St = Ind theta}, one Ind per
    Frobenius orbit from its least member, each pi * St keyed by pi's
    power-basis coordinates scaled by the integer St."""
    values = table_values(data.table)
    solutions = {}
    for idx in data.cuspidal_indices:
        solutions.setdefault(tuple(tuple(s * a for a in x) for s, x in zip(data.st, values[idx])),
                             []).append(idx)
    group = data.group
    return {orbit: solutions.get(induce_by_coordinates(group, data.torus, orbit[0]), [])
            for orbit in frobenius_orbits(group.q, group.n)}


def dl_correspondence(data, j):
    """The unique cuspidal pi with pi * St = Ind theta_j (theta_j generic),
    each product formed in the oracle ring."""
    group = data.group
    if not is_generic_by_norm_kernels(group.q, group.n, j):
        raise ParameterError(f"theta_{j} is not generic")
    ind = induce_by_coordinates(group, data.torus, j)
    values = table_values(data.table)
    matches = [idx for idx in data.cuspidal_indices
               if product_is(group, values[idx], data.st, ind)]
    if len(matches) != 1:
        raise VerificationError(f"multiple cuspidal solutions for theta_{j}" if matches
                                else f"no cuspidal solution for theta_{j}")
    return matches[0]
