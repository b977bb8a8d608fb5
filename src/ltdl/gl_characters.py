"""Exact character theory of GL_n(F_q) at verification scale.

Conjugacy classes are keyed by rational canonical form (Smith normal form of
xI - A over F_q[x]), the character table comes from the Burnside-Dixon
eigenspace method with exact cyclotomic lifting, the Steinberg character is
an alternating sum of flag permutation characters, and the depth-0
correspondence pairs Frobenius orbits of generic characters of the Coxeter
torus with cuspidal irreducibles through pi * St = Ind theta.
"""

from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

from .cyclo import CycloElement
from .errors import BudgetError, ParameterError, VerificationError
from .ffield import (
    field_for_order,
    is_prime,
    moebius,
    poly_divmod,
    poly_monic,
    poly_mul,
    poly_sub,
    poly_trim,
    prime_factors,
    primitive_poly_over,
)
from .linalg import (
    MAX_GROUP_ORDER,
    group_order,
    identity,
    invertible_matrices,
    mat_inv,
    mat_mul,
    mat_pow,
    vec_mat,
)

# -- rational canonical forms -----------------------------------------------------


def smith_invariant_factors(field, M):
    """Nonconstant invariant factors (monic, divisibility order) of a square
    polynomial matrix over F_q."""
    n = len(M)
    M = [list(row) for row in M]
    out = []
    for t in range(n):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if M[i][j] and (best is None or len(M[i][j]) < len(M[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            i, j = best
            M[t], M[i] = M[i], M[t]
            for r in range(n):
                M[r][t], M[r][j] = M[r][j], M[r][t]
            dirty = False
            for r in range(t + 1, n):
                if M[r][t]:
                    q, rem = poly_divmod(field, M[r][t], M[t][t])
                    for c in range(t, n):
                        M[r][c] = poly_sub(field, M[r][c], poly_mul(field, q, M[t][c]))
                    if rem:
                        dirty = True
            for c in range(t + 1, n):
                if M[t][c]:
                    q, rem = poly_divmod(field, M[t][c], M[t][t])
                    for r in range(t, n):
                        M[r][c] = poly_sub(field, M[r][c], poly_mul(field, q, M[r][t]))
                    if rem:
                        dirty = True
            if dirty:
                continue
            fix = None
            for r in range(t + 1, n):
                for c in range(t + 1, n):
                    if M[r][c] and poly_divmod(field, M[r][c], M[t][t])[1]:
                        fix = r
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            # pivot does not divide everything yet: fold the offending row in
            for c in range(t, n):
                M[t][c] = poly_sub(field, M[t][c],
                                   poly_mul(field, (field.neg(1),), M[fix][c]))
        if M[t][t]:
            out.append(poly_monic(field, M[t][t]))
    factors = [f for f in out if len(f) > 1]
    return tuple(factors)


def rcf_key(field, A):
    """Conjugacy key: invariant factors of xI - A (a complete invariant)."""
    n = len(A)
    M = []
    for i in range(n):
        row = []
        for j in range(n):
            a = field.neg(A[i][j])
            if i == j:
                row.append(poly_trim((a, 1)))
            else:
                row.append(poly_trim((a,)))
        M.append(row)
    key = smith_invariant_factors(field, M)
    if sum(len(f) - 1 for f in key) != n:
        raise VerificationError("invariant factor degrees do not sum to n")
    return key


# -- the group -------------------------------------------------------------------


class GLGroup:
    """GL_n(F_q): elements, conjugacy classes, and cached structure."""

    def __init__(self, q, n):
        if group_order(q, n) > MAX_GROUP_ORDER:
            raise BudgetError(f"|GL_{n}(F_{q})| exceeds {MAX_GROUP_ORDER}")
        self.q = q
        self.n = n
        self.field = field_for_order(q)
        self.elements = invertible_matrices(self.field, n)
        self.order = len(self.elements)
        if self.order != group_order(q, n):
            raise VerificationError("enumeration disagrees with the order formula")
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.identity = identity(n)
        by_key = {}
        for i, g in enumerate(self.elements):
            by_key.setdefault(rcf_key(self.field, g), []).append(i)
        self.class_keys = sorted(by_key)
        self.classes = [by_key[k] for k in self.class_keys]
        self.num_classes = len(self.classes)
        self.class_of = [0] * self.order
        for ci, members in enumerate(self.classes):
            for i in members:
                self.class_of[i] = ci
        self.class_sizes = [len(c) for c in self.classes]
        self.reps = [self.elements[c[0]] for c in self.classes]
        self.identity_class = self.class_of[self.index[self.identity]]
        self.class_orders = [self._element_order(r) for r in self.reps]
        self.exponent = lcm(*self.class_orders)
        self.inverse_class = [self.class_of[self.index[mat_inv(self.field, r)]]
                              for r in self.reps]
        self._powermaps = {}

    def mul(self, a, b):
        return mat_mul(self.field, a, b)

    def _element_order(self, g):
        k = 1
        cur = g
        while cur != self.identity:
            cur = self.mul(cur, g)
            k += 1
            if k > self.order:
                raise VerificationError("element order exceeded the group order")
        return k

    def class_of_element(self, g):
        return self.class_of[self.index[g]]

    def powermap(self, ci, s):
        """Class index of rep(ci)^s."""
        key = (ci, s % self.class_orders[ci])
        if key not in self._powermaps:
            self._powermaps[key] = self.class_of_element(
                mat_pow(self.field, self.reps[ci], key[1]) if key[1] else self.identity)
        return self._powermaps[key]


class ClassFunction:
    __slots__ = ("group", "values")

    def __init__(self, group, values):
        if len(values) != group.num_classes:
            raise ParameterError("one value per conjugacy class required")
        self.group = group
        self.values = tuple(values)

    @staticmethod
    def from_integers(group, ints):
        return ClassFunction(group, [CycloElement.rational(v) for v in ints])

    def degree(self):
        return self.values[self.group.identity_class]

    def __add__(self, other):
        return ClassFunction(self.group, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        return ClassFunction(self.group, [a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, other):
        """Pointwise product (character of the tensor product)."""
        return ClassFunction(self.group, [a * b for a, b in zip(self.values, other.values)])

    def scale(self, r):
        return ClassFunction(self.group, [v * r for v in self.values])

    def inner(self, other):
        total = CycloElement.rational(0)
        for size, a, b in zip(self.group.class_sizes, self.values, other.values):
            total = total + a * b.conj() * size
        value = total * Fraction(1, self.group.order)
        return value.as_rational()

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and self.group is other.group
                and all(a == b for a, b in zip(self.values, other.values)))

    def __hash__(self):
        return hash(tuple(self.values))

    def to_json(self):
        return [{"conductor": v.m, "coeffs": [str(c) for c in v.coeffs]}
                for v in self.values]


# -- the Coxeter torus and its characters -----------------------------------------


class CoxeterTorus:
    """T = <C> of order q^n - 1, C the companion matrix of a primitive poly."""

    def __init__(self, group):
        self.group = group
        q, n = group.q, group.n
        poly = primitive_poly_over(group.field, n)
        neg = group.field.neg
        rows = []
        for i in range(n - 1):
            rows.append(tuple(1 if j == i + 1 else 0 for j in range(n)))
        rows.append(tuple(neg(poly[j]) for j in range(n)))
        self.generator = tuple(rows)
        self.poly = poly
        self.order = q ** n - 1
        self.elements = []
        cur = group.identity
        for _ in range(self.order):
            self.elements.append(cur)
            cur = group.mul(cur, self.generator)
        if cur != group.identity or len(set(self.elements)) != self.order:
            raise VerificationError("companion matrix does not have order q^n - 1")
        if rcf_key(group.field, self.generator) != (poly,):
            raise VerificationError("companion matrix charpoly is not the chosen poly")
        self.class_map = [group.class_of_element(t) for t in self.elements]


def torus_character_value(torus, j, k):
    """theta_j(C^k) = zeta_{q^n-1}^{jk}."""
    return CycloElement.zeta(torus.order, (j * k) % torus.order)


def is_generic(q, n, j):
    """theta_j not fixed by any nontrivial Frobenius power; cross-checked via
    nontriviality on every proper norm kernel."""
    order = q ** n - 1
    j %= order
    primary = all((j * q ** m - j) % order != 0
                  for m in range(1, n) if n % m == 0)
    cross = True
    for m in range(1, n):
        if n % m:
            continue
        step = q ** m - 1
        vals_trivial = all(
            CycloElement.zeta(order, (j * k * step) % order) == CycloElement.rational(1)
            for k in range(1, order // gcd(order, step) + 1))
        if vals_trivial:
            cross = False
    if primary is not cross:
        raise VerificationError("the two genericity tests disagree")
    return primary


def generic_character_count(q, n):
    return sum(moebius(n // m) * (q ** m - 1) for m in range(1, n + 1) if n % m == 0)


def induce_from_torus(group, torus, j):
    """Ind_T^G theta_j as an exact class function."""
    sums = [CycloElement.rational(0) for _ in range(group.num_classes)]
    for k, ci in enumerate(torus.class_map):
        sums[ci] = sums[ci] + torus_character_value(torus, j, k)
    values = []
    for ci in range(group.num_classes):
        scalar = Fraction(group.order, group.class_sizes[ci] * torus.order)
        values.append(sums[ci] * scalar)
    return ClassFunction(group, values)


def restrict_to_torus(group, torus, chi):
    """chi restricted to T, as the list of values at C^k."""
    return [chi.values[ci] for ci in torus.class_map]


def torus_inner(torus, vals_a, vals_b):
    total = CycloElement.rational(0)
    for a, b in zip(vals_a, vals_b):
        total = total + a * b.conj()
    return (total * Fraction(1, torus.order)).as_rational()


# -- flags and the Steinberg character ---------------------------------------------


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
    dims = sorted(dims)
    chains = [()]
    for d in dims:
        chains = [c + (W,) for c in chains for W in subspaces[d]
                  if not c or c[-1] <= W]
    return chains


def _subspace_image(field, W, g):
    return frozenset(vec_mat(field, v, g) for v in W)


def steinberg(group):
    """St = sum over dimension sets of signed flag permutation characters.

    Hard-checks St(1) = q^{n(n-1)/2} and <St, St> = 1.
    """
    n, q = group.n, group.q
    subspaces = subspaces_by_dimension(group.field, n)
    values = [0] * group.num_classes
    dim_sets = [[]]
    for d in range(1, n):
        dim_sets = dim_sets + [s + [d] for s in dim_sets]
    for dims in dim_sets:
        sign = (-1) ** ((n - 1) - len(dims))
        flags = flags_of_type(subspaces, dims)
        for ci, rep in enumerate(group.reps):
            fixed = 0
            for chain in flags:
                if all(_subspace_image(group.field, W, rep) == W for W in chain):
                    fixed += 1
            values[ci] += sign * fixed
    st = ClassFunction.from_integers(group, values)
    expected = q ** (n * (n - 1) // 2)
    if st.degree() != CycloElement.rational(expected):
        raise VerificationError(f"St(1) = {st.degree()} != q^(n(n-1)/2) = {expected}")
    if st.inner(st) != 1:
        raise VerificationError("<St, St> != 1")
    return st


# -- parabolic unipotent radicals and cuspidality ------------------------------------


def compositions(n):
    if n == 1:
        return [(1,)]
    out = []
    for first in range(1, n + 1):
        if first == n:
            out.append((n,))
        else:
            out.extend((first,) + rest for rest in compositions(n - first))
    return out


def unipotent_radical(group, comp):
    """All block-upper unipotent matrices for the standard parabolic of type comp."""
    n = group.n
    q = group.q
    blocks = []
    start = 0
    for size in comp:
        blocks.append(range(start, start + size))
        start += size
    free = [(i, j) for bi, B in enumerate(blocks) for i in B
            for bj in range(bi + 1, len(blocks)) for j in blocks[bj]]
    out = []
    total = q ** len(free)
    for code in range(total):
        M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        k = code
        for (i, j) in free:
            M[i][j] = k % q
            k //= q
        out.append(tuple(tuple(r) for r in M))
    return out


def is_cuspidal(group, chi):
    """sum_{u in U} chi(u) = 0 for every proper standard parabolic radical."""
    for comp in compositions(group.n):
        if len(comp) == 1:
            continue
        total = CycloElement.rational(0)
        for u in unipotent_radical(group, comp):
            total = total + chi.values[group.class_of_element(u)]
        if not total.is_zero():
            return False
    return True


# -- Dixon character table ------------------------------------------------------------


def _dixon_prime(order, exponent, attempt=0):
    ell = max(2 * isqrt(order), 2)
    found = 0
    while True:
        ell += 1
        if ell % exponent == 1 and is_prime(ell):
            if found == attempt:
                return ell
            found += 1


def _primitive_root(ell):
    for g in range(2, ell):
        ok = all(pow(g, (ell - 1) // f, ell) != 1 for f in prime_factors(ell - 1))
        if ok:
            return g
    raise VerificationError(f"no primitive root mod {ell}")


def _class_matrices(group):
    r = group.num_classes
    mats = []
    for i in range(r):
        M = [[0] * r for _ in range(r)]
        for xi in group.classes[i]:
            x_inv = mat_inv(group.field, group.elements[xi])
            for k in range(r):
                y = group.mul(x_inv, group.reps[k])
                M[group.class_of_element(y)][k] += 1
        mats.append(M)
    return mats


def _mat_vec_mod(M, v, ell):
    return tuple(sum(M[i][j] * v[j] for j in range(len(v))) % ell for i in range(len(v)))


def _solve_mod(B_cols, target, ell):
    """Solve sum_k x_k B_cols[k] = target mod ell (consistent by construction)."""
    rows = len(target)
    k = len(B_cols)
    A = [[B_cols[c][r] % ell for c in range(k)] + [target[r] % ell]
         for r in range(rows)]
    piv_rows = []
    col = 0
    for c in range(k):
        piv = next((r for r in range(len(piv_rows), rows) if A[r][c] % ell), None)
        if piv is None:
            continue
        r0 = len(piv_rows)
        A[r0], A[piv] = A[piv], A[r0]
        inv = pow(A[r0][c], ell - 2, ell)
        A[r0] = [(v * inv) % ell for v in A[r0]]
        for r in range(rows):
            if r != r0 and A[r][c]:
                f = A[r][c]
                A[r] = [(A[r][j] - f * A[r0][j]) % ell for j in range(k + 1)]
        piv_rows.append(c)
        col += 1
    x = [0] * k
    for idx, c in enumerate(piv_rows):
        x[c] = A[idx][k]
    return x


def _restriction_matrix(basis, M, ell):
    cols = [_mat_vec_mod(M, b, ell) for b in basis]
    return [_solve_mod(basis, col, ell) for col in cols]  # R[c] = coeffs of M b_c


def _det_mod(A, ell):
    n = len(A)
    M = [row[:] for row in A]
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] % ell), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = (-det) % ell
        det = (det * M[c][c]) % ell
        inv = pow(M[c][c], ell - 2, ell)
        for r in range(c + 1, n):
            if M[r][c]:
                f = (M[r][c] * inv) % ell
                M[r] = [(M[r][j] - f * M[c][j]) % ell for j in range(n)]
    return det % ell


def _nullspace_mod(A, ell):
    n = len(A)
    M = [row[:] + [0] for row in A]
    pivots = {}
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, n) if M[r][c] % ell), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], ell - 2, ell)
        M[rank] = [(v * inv) % ell for v in M[rank]]
        for r in range(n):
            if r != rank and M[r][c] % ell:
                f = M[r][c]
                M[r] = [(M[r][j] - f * M[rank][j]) % ell for j in range(n + 1)]
        pivots[c] = rank
        rank += 1
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        v = [0] * n
        v[c] = 1
        for pc, pr in pivots.items():
            v[pc] = (-M[pr][c]) % ell
        basis.append(tuple(v))
    return basis


def _split_common_eigenspaces(group, mats, ell):
    r = group.num_classes
    spaces = [[tuple(1 if i == j else 0 for j in range(r)) for i in range(r)]]
    for M in mats:
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            R = _restriction_matrix(basis, M, ell)
            # columns R[c] give M b_c in terms of the basis; transpose to act
            k = len(basis)
            Rt = [[R[c][r0] for c in range(k)] for r0 in range(k)]
            eigenvalues = [lam for lam in range(ell)
                           if _det_mod([[Rt[i][j] - (lam if i == j else 0)
                                         for j in range(k)] for i in range(k)], ell) == 0]
            split = []
            for lam in eigenvalues:
                A = [[(Rt[i][j] - (lam if i == j else 0)) % ell for j in range(k)]
                     for i in range(k)]
                for coeffs in _nullspace_mod(A, ell):
                    vec = tuple(sum(coeffs[c] * basis[c][i] for c in range(k)) % ell
                                for i in range(r))
                    split.append((lam, vec))
            if len(split) != k:
                raise ArithmeticError("eigenspace split failed")
            groups = {}
            for lam, vec in split:
                groups.setdefault(lam, []).append(vec)
            new_spaces.extend(groups[lam] for lam in sorted(groups))
        spaces = new_spaces
        if all(len(s) == 1 for s in spaces):
            break
    if not all(len(s) == 1 for s in spaces):
        raise ArithmeticError("class matrices did not split the space")
    return [s[0] for s in spaces]


class CharacterTable:
    def __init__(self, group, irreducibles, ell):
        self.group = group
        self.irreducibles = irreducibles  # list of ClassFunction, sorted
        self.ell = ell
        self.degrees = [int(chi.degree().as_rational()) for chi in irreducibles]
        self.cuspidal_flags = [is_cuspidal(group, chi) for chi in irreducibles]

    def to_json(self):
        g = self.group
        return {
            "q": g.q, "n": g.n, "order": g.order,
            "classes": [{"key": [list(f) for f in key], "size": size}
                        for key, size in zip(g.class_keys, g.class_sizes)],
            "irreducibles": [{"degree": d, "values": chi.to_json()}
                             for d, chi in zip(self.degrees, self.irreducibles)],
            "cuspidal_flags": self.cuspidal_flags,
        }


def dixon_table(group, max_attempts=4):
    """The full character table with exact cyclotomic values."""
    last_error = None
    for attempt in range(max_attempts):
        try:
            return _dixon_table_attempt(group, attempt)
        except ArithmeticError as exc:
            last_error = exc
    raise VerificationError(f"Dixon table failed for all primes tried: {last_error}")


def _dixon_table_attempt(group, attempt):
    r = group.num_classes
    ell = _dixon_prime(group.order, group.exponent, attempt)
    mats = _class_matrices(group)
    eigvecs = _split_common_eigenspaces(group, mats, ell)
    id_class = group.identity_class
    characters = []
    for vec in eigvecs:
        if vec[id_class] % ell == 0:
            raise ArithmeticError("eigenvector vanishes at the identity class")
        inv0 = pow(vec[id_class], ell - 2, ell)
        omega = [(v * inv0) % ell for v in vec]
        s = 0
        for j in range(r):
            s = (s + omega[j] * omega[group.inverse_class[j]]
                 * pow(group.class_sizes[j], ell - 2, ell)) % ell
        if s == 0:
            raise ArithmeticError("degree functional vanished")
        deg_sq = (group.order % ell) * pow(s, ell - 2, ell) % ell
        degree = next((d for d in range(1, isqrt(group.order) + 1)
                       if (d * d) % ell == deg_sq), None)
        if degree is None:
            raise ArithmeticError("no admissible degree root")
        chi_mod = [(omega[j] * degree) % ell * pow(group.class_sizes[j], ell - 2, ell) % ell
                   for j in range(r)]
        characters.append((degree, chi_mod))
    if sum(d * d for d, _ in characters) != group.order:
        raise ArithmeticError("degree squares do not sum to the group order")
    w = _primitive_root(ell)
    conductor = group.exponent
    normalized = []
    for degree, chi_mod in characters:
        vals = []
        for j in range(r):
            d = group.class_orders[j]
            z = pow(w, (ell - 1) // d, ell)
            d_inv = pow(d % ell, ell - 2, ell)
            acc = CycloElement.zero(d)
            for t in range(d):
                m_t = 0
                for s in range(d):
                    m_t = (m_t + chi_mod[group.powermap(j, s)]
                           * pow(z, (-s * t) % (ell - 1), ell)) % ell
                m_t = (m_t * d_inv) % ell
                if m_t > degree:
                    raise ArithmeticError("eigenvalue multiplicity out of range")
                if m_t:
                    acc = acc + CycloElement.zeta(d, t) * m_t
            vals.append(acc.coerce(conductor))
        normalized.append(ClassFunction(group, vals))
    normalized.sort(key=lambda chi: (chi.values[group.identity_class].coeffs,
                                     [v.coeffs for v in chi.values]))
    table = CharacterTable(group, normalized, ell)
    _verify_table(table)
    return table


def _verify_table(table):
    g = table.group
    irr = table.irreducibles
    if sum(d * d for d in table.degrees) != g.order:
        raise ArithmeticError("sum of squared degrees is off")
    for i, a in enumerate(irr):
        for j, b in enumerate(irr):
            if a.inner(b) != (1 if i == j else 0):
                raise ArithmeticError("row orthogonality failed")
    for ci in range(g.num_classes):
        for cj in range(g.num_classes):
            total = CycloElement.rational(0)
            for chi in irr:
                total = total + chi.values[ci] * chi.values[cj].conj()
            expect = Fraction(g.order, g.class_sizes[ci]) if ci == cj else Fraction(0)
            if total != CycloElement.rational(expect):
                raise ArithmeticError("column orthogonality failed")


# -- the correspondence ----------------------------------------------------------------


class VirtualRep:
    """Integer combination of pairs (irreducible index, mu-character index)."""

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def add(self, key, mult=1):
        self.terms[key] = self.terms.get(key, 0) + mult
        if not self.terms[key]:
            del self.terms[key]

    def __add__(self, other):
        out = VirtualRep(dict(self.terms))
        for k, v in other.terms.items():
            out.add(k, v)
        return out

    def __neg__(self):
        return VirtualRep({k: -v for k, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, VirtualRep) and self.terms == other.terms

    def to_json(self):
        return [{"pi": k[0], "theta": k[1], "mult": v}
                for k, v in sorted(self.terms.items())]


class CorrespondenceData:
    """Everything needed for the depth-0 correspondence at (q, n)."""

    def __init__(self, q, n):
        self.group = GLGroup(q, n)
        self.torus = CoxeterTorus(self.group)
        self.table = dixon_table(self.group)
        self.st = steinberg(self.group)
        self.cuspidal_indices = [i for i, f in enumerate(self.table.cuspidal_flags) if f]


def dl_correspondence(data, j):
    """The unique cuspidal pi with pi * St = Ind theta_j (theta_j generic)."""
    group, torus = data.group, data.torus
    if not is_generic(group.q, group.n, j):
        raise ParameterError(f"theta_{j} is not generic")
    ind = induce_from_torus(group, torus, j)
    matches = []
    for idx in data.cuspidal_indices:
        chi = data.table.irreducibles[idx]
        if chi * data.st == ind:
            matches.append(idx)
    if not matches:
        raise VerificationError(f"no cuspidal solution for theta_{j}")
    if len(matches) > 1:
        raise VerificationError(f"multiple cuspidal solutions for theta_{j}")
    return matches[0]


def frobenius_orbits(q, n):
    """Orbits of generic character indices under j -> j q mod q^n - 1."""
    order = q ** n - 1
    seen = set()
    orbits = []
    for j in range(order):
        if j in seen or not is_generic(q, n, j):
            continue
        orbit = []
        k = j
        while k not in orbit:
            orbit.append(k)
            k = (k * q) % order
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


def correspondence_report(q, n, data=None):
    """Verify the full character-level correspondence; returns report + virtual
    cuspidal part of the cohomology in degree n - 1."""
    data = CorrespondenceData(q, n) if data is None else data
    group = data.group
    checks = []

    def record(name, ok, details=""):
        checks.append({"name": name, "status": "pass" if ok else "fail",
                       "details": str(details)})

    orbits = frobenius_orbits(q, n)
    n_generic = generic_character_count(q, n)
    record("generic_count",
           sum(len(o) for o in orbits) == n_generic,
           f"{sum(len(o) for o in orbits)} generic characters (Moebius: {n_generic})")
    record("orbit_sizes", all(len(o) == n for o in orbits),
           f"{len(orbits)} orbits, sizes {[len(o) for o in orbits]}")

    pi_of_orbit = {}
    consistent = True
    for orbit in orbits:
        images = {dl_correspondence(data, j) for j in orbit}
        if len(images) != 1:
            consistent = False
        pi_of_orbit[orbit] = images.pop()
    record("orbit_maps_to_single_pi", consistent, "")

    images = sorted(pi_of_orbit.values())
    record("bijection_onto_cuspidals",
           images == sorted(data.cuspidal_indices) and len(images) == len(set(images)),
           f"images {images}, cuspidals {data.cuspidal_indices}")

    expected_dim = 1
    for i in range(1, n):
        expected_dim *= q ** i - 1
    dims_ok = all(data.table.degrees[i] == expected_dim for i in pi_of_orbit.values())
    record("cuspidal_dimension", dims_ok, f"prod (q^i - 1) = {expected_dim}")

    st_deg = q ** (n * (n - 1) // 2)
    deg_ok = all(
        induce_from_torus(group, data.torus, orbit[0]).degree()
        == CycloElement.rational(data.table.degrees[pi] * st_deg)
        for orbit, pi in pi_of_orbit.items())
    record("degree_identity", deg_ok, "Ind(1) = pi(1) * q^(n(n-1)/2)")

    ortho_ok = True
    reps = list(pi_of_orbit.items())
    for a, (orb_a, pi_a) in enumerate(reps):
        for orb_b, pi_b in reps[a:]:
            chi_a = data.table.irreducibles[pi_a]
            chi_b = data.table.irreducibles[pi_b]
            expect = 1 if orb_a == orb_b else 0
            if chi_a.inner(chi_b) != expect:
                ortho_ok = False
    record("orbit_orthogonality", ortho_ok, "<pi_a, pi_b> = delta_orbit")

    virtual = VirtualRep()
    sign = (-1) ** (n - 1)
    for orbit, pi in pi_of_orbit.items():
        for j in orbit:
            virtual.add((pi, j), sign)
    report = {
        "q": q, "n": n,
        "checks": checks,
        "orbits": [{"thetas": list(o), "pi": pi_of_orbit[o]} for o in orbits],
        "cuspidal_part": virtual.to_json(),
        "all_pass": all(c["status"] == "pass" for c in checks),
    }
    return report, virtual
