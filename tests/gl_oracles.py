"""Matrix-level oracles for the character layer.

`steinberg` and `is_cuspidal` read the standard parabolics off the class
histograms of `GLGroup.parabolics`; these build the subspaces, flags and
unipotent radicals as matrices and vectors instead, and the tests hold the
two to the same answers wherever both run.
"""

from itertools import product

from ltdl.cyclo import CycloElement
from ltdl.gl_characters import compositions
from ltdl.linalg import vec_mat


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
