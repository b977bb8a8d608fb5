"""Matrices over small finite fields, encoded as tuples of canonical ints.

Uses the field's log/Zech kernel on canonical ints, so everything stays
hashable and fast at the scales this package enumerates.
"""

from itertools import product

from .errors import ParameterError


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def sparse_columns(A):
    """Column j of A as the (row, entry) pairs of its nonzero entries.  Each
    of `gl_generators` has at most two per column, so a product by one is a
    handful of field operations per entry."""
    return tuple(tuple((i, row[j]) for i, row in enumerate(A) if row[j])
                 for j in range(len(A[0])))


def vec_mul(field, x, columns):
    """Row-vector action x -> x A, with A given by its `sparse_columns`."""
    add, mul = field.add, field.mul
    out = []
    for col in columns:
        s = 0
        for i, c in col:
            s = add(s, mul(x[i], c))
        out.append(s)
    return tuple(out)


def index_vectors(field, n):
    """The nonzero vectors of F_q^n (canonical-int tuples), in lexicographic
    order."""
    return [v for v in product(range(field.q), repeat=n) if any(v)]


def projective_representative(field, a):
    """Scale a so its first nonzero entry is 1."""
    for k in a:
        if k:
            inv = field.inv(k)
            return tuple(field.mul(x, inv) for x in a)
    raise ParameterError("zero vector has no projective class")


def det(field, A):
    n = len(A)
    M = [list(r) for r in A]
    d = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            d = field.neg(d)
        d = field.mul(d, M[c][c])
        inv = field.inv(M[c][c])
        for r in range(c + 1, n):
            if M[r][c]:
                factor = field.mul(M[r][c], inv)
                for k in range(c, n):
                    M[r][k] = field.sub(M[r][k], field.mul(factor, M[c][k]))
    return d


def group_order(q, n):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def gl_generators(field, n):
    """diag(omega, 1, ..., 1) with omega primitive, the n-cycle permutation
    matrix and, for n >= 2, I + E_12: a generating set of GL_n(F_q) in the
    spirit of Waterhouse, "Two generators for the general linear groups over
    finite fields" (1989).  Duplicates (at q = 2 or n = 1) are dropped."""
    omega = field.exp[1]
    diag = tuple(tuple((omega if i == 0 else 1) if i == j else 0 for j in range(n))
                 for i in range(n))
    cycle = tuple(tuple(1 if j == (i + 1) % n else 0 for j in range(n))
                  for i in range(n))
    gens = [diag, cycle]
    if n >= 2:
        gens.append(tuple(tuple(1 if i == j or (i, j) == (0, 1) else 0
                                for j in range(n)) for i in range(n)))
    return list(dict.fromkeys(gens))


def generated_group(field, gens):
    """The group generated by invertible matrices gens, as (elements, right):
    the elements sorted, and for each generator s the permutation
    right[s][i] = index of elements[i] * gens[s].

    The breadth-first closure of the identity under right multiplication
    forms every one of these |<gens>| * |gens| products, so the permutations
    come from the products it already makes.  The rows of an invertible
    matrix are nonzero vectors, so each generator s is first tabulated as
    v -> v s over F_q^n - 0 (`vec_mul` by its sparse columns), and a product
    g s is a lookup per row of g.
    """
    start = identity(len(gens[0]))
    vectors = index_vectors(field, len(start))
    images = [{v: vec_mul(field, v, cols) for v in vectors} for cols in map(sparse_columns, gens)]
    found = [start]
    position = {start: 0}
    steps = [[] for _ in gens]  # steps[s][k]: position of found[k] * gens[s]
    for g in found:  # found grows while it is walked, so this is the queue
        for image, step in zip(images, steps):
            h = tuple(map(image.__getitem__, g))
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
