"""Matrices over small finite fields, encoded as tuples of canonical ints.

Uses the field's log/Zech kernel on canonical ints, so everything stays
hashable and fast at the scales this package enumerates (|GL_n(F_q)| <= 3e4).
"""

MAX_GROUP_ORDER = 30_000


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _dot(field, xs, ys):
    s = 0
    for x, y in zip(xs, ys):
        s = field.add(s, field.mul(x, y))
    return s


def mat_mul(field, A, B):
    cols = tuple(zip(*B))
    return tuple(tuple(_dot(field, row, col) for col in cols) for row in A)


def vec_mat(field, x, A):
    """Row-vector action x -> x A."""
    return tuple(_dot(field, x, col) for col in zip(*A))


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


def mat_inv(field, A):
    n = len(A)
    M = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(A)]
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[c], M[piv] = M[piv], M[c]
        inv = field.inv(M[c][c])
        M[c] = [field.mul(inv, v) for v in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [field.sub(M[r][k], field.mul(f, M[c][k])) for k in range(2 * n)]
    return tuple(tuple(row[n:]) for row in M)


def mat_pow(field, A, e):
    n = len(A)
    out = identity(n)
    base = A
    while e:
        if e & 1:
            out = mat_mul(field, out, base)
        base = mat_mul(field, base, base)
        e >>= 1
    return out


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
    """The group generated by invertible matrices gens: breadth-first closure
    of the identity under right multiplication, |<gens>| * |gens| products."""
    start = identity(len(gens[0]))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = mat_mul(field, g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen
