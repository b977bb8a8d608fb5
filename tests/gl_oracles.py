"""Matrix-level oracles for the character layer.

`steinberg` and `is_cuspidal` read the standard parabolics off the class
histograms of `GLGroup.parabolics`; these build the subspaces, flags and
unipotent radicals as matrices and vectors instead, and the tests hold the
two to the same answers wherever both run.  The dense matrix product is the
oracle for the closure's sparse generator products, the per-class
multiplicity lift for the lift once per rational class, and `verify_table`,
the exact orthonormality check in Z[zeta], for the Gram matrix modulo a
split prime.
"""

from itertools import product
from math import lcm

from ltdl.cyclo import CycloElement, dot
from ltdl.gl_characters import compositions
from ltdl.linalg import identity


def _dot(field, xs, ys):
    s = 0
    for x, y in zip(xs, ys):
        s = field.add(s, field.mul(x, y))
    return s


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


def verify_table(table):
    """Exact orthonormality of a square table in Z[zeta].

    Rows are checked for i <= j only, since <b, a> is the conjugate of
    <a, b>.  For a square X with X D X* = |G| I (D the class sizes) the
    inverse gives D X* X = |G| I, which is column orthogonality.
    """
    g = table.group
    irr = table.irreducibles
    if len(irr) != g.num_classes:
        raise ArithmeticError(
            f"table is not square: {len(irr)} irreducibles for {g.num_classes} classes")
    if sum(d * d for d in table.degrees) != g.order:
        raise ArithmeticError("sum of squared degrees is off")
    m = lcm(*(chi.m for chi in irr))
    rows = [[v.coerce(m) for v in chi.values] for chi in irr]
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
    for comp in compositions(group.n):
        if len(comp) == 1:
            continue
        total = CycloElement.rational(0)
        for u in unipotent_radical(group, comp):
            total = total + chi.values[group.class_of[group.index[u]]]
        if not total.is_zero():
            return False
    return True
