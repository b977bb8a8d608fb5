"""Exact character theory of GL_n(F_q) at verification scale.

The group is its sorted element list, with each generator acting as the
permutation of that list by right multiplication; past the closure, classes,
power maps and class matrices are index lookups, with no matrix product.
Conjugacy classes are the orbits under conjugation by the generators, keyed,
once per class, by the invariant factors of xI - A over F_q[x], the quotients
of its determinantal divisors (the gcds of its k x k minors).  The character
table comes from the Burnside-Dixon eigenspace method with exact cyclotomic
lifting.  The standard parabolics P_c and their unipotent radicals U_c are
read off the element list once, as class histograms: the Steinberg
character is the alternating sum of the permutation characters 1_{P_c}^G,
and a character is cuspidal when its sum over every proper U_c vanishes.
The Coxeter torus is the cycle of the identity under right multiplication
by a companion matrix, its classes checked stable under t -> t^q.  The
depth-0 correspondence pairs Frobenius orbits of generic characters of that
torus with cuspidal irreducibles through pi * St = Ind theta, one Ind per
orbit.

In the Dixon step the class matrices are built lazily, one at a time, until
the common eigenspaces have split into lines.  Each eigenspace is held as a
reduced-echelon basis mod ell, so a class matrix restricts to it by reading
its images at the pivot rows, and one row reduction (`_rref_mod`) gives both
the eigenspaces and their bases.  A restricted matrix that is a scalar
splits nothing and is skipped; the eigenvalues of any other are the roots
mod ell of its characteristic polynomial (Hessenberg reduction).  Each
character value is lifted from mod ell through the eigenvalue
multiplicities of its class rep (Dixon 1967), once per rational
class: the classes of g^k, k prime to ord g, take g's multiplicities
re-indexed by t -> k t (Schneider 1990).  `_check_table` proves the table
exact on those multiplicities and their residues phi(chi(g_c)) mod one
prime ell' = 1 mod E, phi: Z[zeta_E] -> F_ell' sending zeta_E to a
primitive E-th root w.  Cuspidality and pi * St = Ind theta are decided on
the residues; power-basis values only order the rows and print the table.

The residues decide exactly.  ell' splits completely in Q(zeta_E), so an x
in Z[zeta_E] that phi kills with all its Galois conjugates lies in
ell' Z[zeta_E]; if also |sigma x| < ell' for every sigma, the norm of
x / ell' is an integer below 1 in absolute value, and x = 0.  sigma_k
(zeta_E -> zeta_E^k) sends a character value chi(c) to chi(c^k), so equal
residue vectors of Delta = Ind theta_j - pi * St kill every conjugate of
each Delta(c), and |sigma Delta(c)| <= |G| / |T| + d_max q^(n(n-1)/2); for
pi_1 * St - pi_2 * St the bound is 2 d_max q^(n(n-1)/2).  So the lookup on
residues misses no true match and admits no false one.  A radical sum
sum_{u in U_c} chi(u) = |U_c| <chi|_U, 1> is an integer in [0, |U_c|
chi(1)], |U_c| <= q^(n(n-1)/2), so it is 0 exactly when its residue is.
Hence ell' is the least prime = 1 mod E above |G| (d_max^2 + 1), the Gram
matrix's bound (`_check_table`), and |G| / |T| + 2 d_max q^(n(n-1)/2).
"""

from functools import cached_property, lru_cache
from itertools import accumulate, combinations, product
from math import gcd, isqrt, lcm
from operator import itemgetter, mul

from .cyclo import from_powers
from .errors import BudgetError, VerificationError, check_entry
from .ffield import (
    field_for_order,
    gaussian_binomial,
    is_prime,
    is_primitive_root,
    moebius,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_sub,
    primitive_poly_over,
)
from .linalg import (
    det,
    generated_group,
    gl_generators,
    group_order,
    identity,
)

# -- rational canonical forms -----------------------------------------------------


def rcf_key(field, A):
    """Conjugacy key: the invariant factors of xI - A, a complete invariant.

    The k-th invariant factor is d_k / d_{k-1}, where d_k is the monic gcd of
    the k x k minors of xI - A (Jacobson, Basic Algebra I, 3.9).  A gcd that
    reaches 1 reads no further minor, and each minor is expanded along its
    first row from the memoised minors below it.
    """
    n = len(A)
    xA = [[poly_sub(field, (0, 1) if i == j else (), (a,)) for j, a in enumerate(row)]
          for i, row in enumerate(A)]
    minors = {((), ()): (1,)}

    def minor(rows, cols):
        # summed from the last column, e_0 m_0 - (e_1 m_1 - (e_2 m_2 - ...))
        # gives the alternating Laplace signs
        if (rows, cols) not in minors:
            det = ()
            for j in reversed(range(len(cols))):
                e = xA[rows[0]][cols[j]]
                term = poly_mul(field, e, minor(rows[1:], cols[:j] + cols[j + 1:])) if e else ()
                det = poly_sub(field, term, det)
            minors[rows, cols] = det
        return minors[rows, cols]

    key, prev = [], (1,)
    for k in range(1, n + 1):
        d = ()
        for rows, cols in product(combinations(range(n), k), repeat=2):
            d = poly_gcd(field, d, minor(rows, cols))
            if d == (1,):
                break
        factor, rem = poly_divmod(field, d, prev)
        if rem:
            raise VerificationError(f"d_{k - 1} does not divide d_{k} for xI - A")
        if len(factor) > 1:
            key.append(factor)
        prev = d
    if sum(len(f) - 1 for f in key) != n:
        raise VerificationError("invariant factor degrees do not sum to n")
    return tuple(key)


# -- the group -------------------------------------------------------------------

# GLGroup's bound on its element list, the one limit of its representation
MAX_GROUP_ORDER = 30_000


class GLGroup:
    """GL_n(F_q): generators, elements, conjugacy classes, and cached structure.

    The elements are the sorted closure of `gl_generators`.  Each generator is
    invertible, so the closure is a subgroup of GL_n(F_q), and it reaching
    the order |GL_n(F_q)| proves both that the generators generate and that
    the elements are all of GL_n(F_q).

    Past the closure the group works on element indices, through the
    generators' right-multiplication permutations.  The generators generate,
    so the orbits under conjugation by them are the conjugacy classes; each
    gets one `rcf_key`, and the classes are sorted by key.  Left
    multiplication by a generator follows the breadth-first tree under the
    right multiplications, and right multiplication by an element
    (`right_multiplication`) follows the breadth-first tree under the left
    ones, one lookup per element; for a class rep, walking it from the
    identity lists the rep's powers: its order, power map and inverse.  The
    class histograms of the standard parabolics and their unipotent radicals
    (`parabolics`) are built on first use.
    """

    def __init__(self, q, n):
        if group_order(q, n) > MAX_GROUP_ORDER:
            raise BudgetError(f"|GL_{n}(F_{q})| exceeds {MAX_GROUP_ORDER}")
        self.q = q
        self.n = n
        self.field = field_for_order(q)
        self.generators = gl_generators(self.field, n)
        if not all(det(self.field, g) for g in self.generators):
            raise VerificationError(f"a generator of GL_{n}(F_{q}) is singular")
        self.elements, right = generated_group(self.field, self.generators)
        self.order = len(self.elements)
        if self.order != group_order(q, n):
            raise VerificationError(
                f"the {len(self.generators)} generators generate {self.order} "
                f"matrices, not |GL_{n}(F_{q})| = {group_order(q, n)}")
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.identity = identity(n)
        self.identity_index = one = self.index[self.identity]
        self._left = _left_multiplications(right, one)
        self._left_tree = _breadth_first_tree(self._left, one)
        by_key = {}
        for orbit in _conjugation_orbits(right, self._left):
            key = rcf_key(self.field, self.elements[orbit[0]])
            if key in by_key:
                raise VerificationError(f"two conjugation orbits share the class key {key}")
            by_key[key] = orbit
        self.class_keys = sorted(by_key)
        self.classes = [by_key[k] for k in self.class_keys]
        self.num_classes = len(self.classes)
        self.class_of = [0] * self.order
        for ci, members in enumerate(self.classes):
            for i in members:
                self.class_of[i] = ci
        self.class_sizes = [len(c) for c in self.classes]
        self.reps = [self.elements[c[0]] for c in self.classes]
        self.identity_class = self.class_of[one]
        # rep_right[ci][x]: index of elements[x] * reps[ci]
        self.rep_right = [self.right_multiplication(c[0]) for c in self.classes]
        # _power_classes[ci][s]: class of reps[ci]^s, for s below its order
        self._power_classes = [[self.class_of[x] for x in _cycle(perm, one)]
                               for perm in self.rep_right]
        self.class_orders = [len(p) for p in self._power_classes]
        self.exponent = lcm(*self.class_orders)
        self.inverse_class = [p[-1] for p in self._power_classes]

    def right_multiplication(self, x):
        """The permutation y -> index of elements[y] * elements[x], one lookup
        per y: along the left-multiplication tree, elements[y] = s *
        elements[parent[y]] for a generator s, so y * x = s * (parent[y] * x)."""
        tree, parent, via = self._left_tree
        perm = [0] * self.order
        perm[tree[0]] = x
        for y in tree[1:]:
            perm[y] = self._left[via[y]][perm[parent[y]]]
        return perm

    def powermap(self, ci, s):
        """Class index of rep(ci)^s."""
        return self._power_classes[ci][s % self.class_orders[ci]]

    @cached_property
    def parabolics(self):
        """{c: (P, U)} over the compositions c of n, in `compositions` order:
        the class histograms (P[ci] elements of class ci) of the standard
        parabolic P_c, the block-upper-triangular elements with diagonal
        blocks of sizes c, and of its unipotent radical U_c, the elements of
        P_c whose diagonal blocks are the identity.

        One pass over the elements builds them all.  A block boundary after
        row k is bit k of a mask: an element lies in P_c when no nonzero
        entry below the diagonal spans a boundary of c, and in U_c when it is
        upper unitriangular and a boundary of c separates the row and the
        column of each of its nonzero entries above the diagonal.  The sizes
        are checked against |G| / [n; c]_q and q^(sum_{i<j} c_i c_j).
        """
        n, q, r = self.n, self.q, self.num_classes
        comps = compositions(n)
        cuts = [sum(1 << (end - 1) for end in accumulate(c[:-1])) for c in comps]
        P = [[0] * r for _ in comps]
        U = [[0] * r for _ in comps]
        for g, ci in zip(self.elements, self.class_of):
            below = 0
            for i in range(1, n):
                for j in range(i):
                    if g[i][j]:
                        below |= (1 << i) - (1 << j)
            for hist, cut in zip(P, cuts):
                if not cut & below:
                    hist[ci] += 1
            if below or any(g[i][i] != 1 for i in range(n)):
                continue
            above = [(1 << j) - (1 << i) for i in range(n) for j in range(i + 1, n) if g[i][j]]
            for hist, cut in zip(U, cuts):
                if all(cut & span for span in above):
                    hist[ci] += 1
        for c, p_hist, u_hist in zip(comps, P, U):
            index, rest = 1, n
            for size in c:
                index *= gaussian_binomial(rest, size, q)
                rest -= size
            if sum(p_hist) * index != self.order:
                raise VerificationError(f"|P_{c}| = {sum(p_hist)} != |G| / [n; c]_q")
            dim = sum(a * b for i, a in enumerate(c) for b in c[i + 1:])
            if sum(u_hist) != q ** dim:
                raise VerificationError(f"|U_{c}| = {sum(u_hist)} != q^{dim}")
        return dict(zip(comps, zip(P, U)))


def _cycle(perm, start):
    """[start, perm[start], perm[perm[start]], ...] up to the return to start."""
    out = [start]
    x = perm[start]
    while x != start:
        out.append(x)
        x = perm[x]
    return out


def _breadth_first_tree(perms, root):
    """(tree, parent, via): the indices in breadth-first order from root
    under the permutations `perms`, with x = perms[via[x]][parent[x]] for
    every x but the root, its own parent."""
    parent, via = [None] * len(perms[0]), [None] * len(perms[0])
    parent[root] = root
    tree = [root]
    for x in tree:
        for s, step in enumerate(perms):
            y = step[x]
            if parent[y] is None:
                parent[y], via[y] = x, s
                tree.append(y)
    return tree, parent, via


def _left_multiplications(right, one):
    """For each generator s, the permutation x -> index of s * elements[x].

    It follows the breadth-first tree under `right` from the identity `one`:
    s * elements[x] is (s * elements[parent[x]]) * generators[via[x]], and s
    itself is right[s] at the root.
    """
    tree, parent, via = _breadth_first_tree(right, one)
    lefts = []
    for step in right:
        left = [0] * len(step)
        left[one] = step[one]
        for x in tree[1:]:
            left[x] = right[via[x]][left[parent[x]]]
        lefts.append(left)
    return lefts


def _conjugation_orbits(right, lefts):
    """The orbits, each sorted, of the element indices under x -> s x s^-1
    for each generator s, in the order of their least members; `lefts` are
    the generators' left multiplications."""
    conjugations = []
    for step, left in zip(right, lefts):
        undo = [0] * len(step)  # right multiplication by s^-1
        for x, y in enumerate(step):
            undo[y] = x
        conjugations.append([undo[y] for y in left])
    seen = [False] * len(right[0])
    orbits = []
    for start in range(len(seen)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:
            for conj in conjugations:
                y = conj[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        orbits.append(sorted(orbit))
    return orbits


# -- the Coxeter torus and its characters -----------------------------------------


class CoxeterTorus:
    """T = <C> of order q^n - 1, C the companion matrix of a primitive poly.

    Its classes are checked stable under the Frobenius t -> t^q: C^(kq) lies
    in the class of C^k for every k.  Then Ind theta_jq = Ind theta_j, so one
    induction serves a whole Frobenius orbit.  Ind theta_j(c) = |C_G(c)| /
    |T| sum_{k : C^k in c} theta_j(C^k) and theta_jq(C^k) = theta_j(C^(kq));
    k -> kq is a bijection of Z/(q^n - 1) that maps {k : C^k in c} onto
    itself, so the two sums are equal.
    """

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
        self.order = q ** n - 1
        # powers[k]: index of C^k, from the cycle of the identity under
        # right multiplication by C
        powers = _cycle(group.right_multiplication(group.index[self.generator]),
                        group.identity_index)
        if len(powers) != self.order:
            raise VerificationError("companion matrix does not have order q^n - 1")
        if rcf_key(group.field, self.generator) != (poly,):
            raise VerificationError("companion matrix charpoly is not the chosen poly")
        self.class_map = [group.class_of[x] for x in powers]
        if any(self.class_map[k * q % self.order] != c for k, c in enumerate(self.class_map)):
            raise VerificationError("the torus classes are not stable under t -> t^q")


def generic_character_count(q, n):
    return sum(moebius(n // m) * (q ** m - 1) for m in range(1, n + 1) if n % m == 0)


def induce_from_torus(group, torus, j, ell, w):
    """Ind_T^G theta_j mod ell, w a primitive E-th root mod ell for E the
    group's exponent: per class c, |C_G(c)| / |T| times the sum of
    theta_j(C^k) = zeta_|T|^(jk), sent to w^((E / |T|) jk), over the C^k in
    c (0 at the classes that T misses)."""
    root = pow(w, group.exponent // torus.order * j, ell)
    sums = [0] * group.num_classes
    for k, ci in enumerate(torus.class_map):
        sums[ci] += pow(root, k, ell)
    t_inv = pow(torus.order, -1, ell)
    return tuple(group.order // size * s * t_inv % ell
                 for size, s in zip(group.class_sizes, sums))


# -- the Steinberg character and cuspidality ----------------------------------------


def compositions(n):
    """The compositions of n (tuples of positive parts), in lexicographic order."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in compositions(n - first)]


def steinberg(group):
    """St = sum over compositions c of (-1)^(n - len c) 1_{P_c}^G (Curtis),
    one int per class.

    The permutation character is 1_P^G(C) = |G| |P meet C| / (|C| |P|), read
    off the parabolic histograms; each division is checked exact.
    Hard-checks St(1) = q^{n(n-1)/2} and <St, St> = 1, the latter as the
    integer sum_c |C| St(c)^2 = |G|.
    """
    n, q = group.n, group.q
    values = [0] * group.num_classes
    for comp, (P, _) in group.parabolics.items():
        sign = (-1) ** (n - len(comp))
        size = sum(P)
        for ci, hits in enumerate(P):
            num, den = group.order * hits, group.class_sizes[ci] * size
            if num % den:
                raise VerificationError(f"1_P^G for P_{comp} is not integral at class {ci}")
            values[ci] += sign * (num // den)
    expected = q ** (n * (n - 1) // 2)
    if values[group.identity_class] != expected:
        raise VerificationError(
            f"St(1) = {values[group.identity_class]} != q^(n(n-1)/2) = {expected}")
    if sum(size * v * v for size, v in zip(group.class_sizes, values)) != group.order:
        raise VerificationError("<St, St> != 1")
    return tuple(values)


def is_cuspidal(group, phi, ell):
    """sum_{u in U_c} chi(u) = 0 for every proper standard parabolic radical,
    each sum taken over the radical's class histogram on chi's residues phi
    mod the table prime ell, which decide it (module docstring)."""
    return not any(sum(map(mul, U, phi)) % ell
                   for comp, (_, U) in group.parabolics.items() if len(comp) > 1)


# -- Dixon character table ------------------------------------------------------------

def _split_prime(E, bound):
    """The least prime above bound that is 1 mod E: F_ell holds the E-th
    roots of unity, and Q(zeta_E) splits completely at ell."""
    ell = bound + 1 + (-bound) % E
    while not is_prime(ell):
        ell += E
    return ell


def _primitive_root(ell):
    return next(g for g in range(2, ell) if is_primitive_root(g, ell))


def _class_matrices(group):
    """Yield the class matrices M_i, M_i[k'][k] = #{x in C_i : x^-1 g_k in C_k'},
    in class order; each is built only when the eigenspace split asks for it,
    which usually stops well before the last class.  As x runs over C_i,
    x^-1 runs over the inverse class, so M_i counts the classes of that
    class's members under right multiplication by g_k: index lookups only."""
    r = group.num_classes
    class_of = group.class_of
    for i in range(r):
        M = [[0] * r for _ in range(r)]
        members = group.classes[group.inverse_class[i]]
        for k, perm in enumerate(group.rep_right):
            for y in members:
                M[class_of[perm[y]]][k] += 1
        yield M


def _charpoly_mod(A, ell):
    """det(xI - A) mod ell, coefficients ascending (monic, length k + 1).

    A is first brought to upper Hessenberg form H by similarity transforms;
    then the leading minors p_m = det(xI - H[:m, :m]) satisfy
    p_m = (x - h_mm) p_{m-1}
          - sum_{i<m} h_{m-i,m} (h_{m,m-1} ... h_{m-i+1,m-i}) p_{m-i-1},
    which gives the characteristic polynomial in O(k^3) (Cohen, Alg. 2.2.9).
    """
    k = len(A)
    H = [[a % ell for a in row] for row in A]
    for c in range(k - 2):
        piv = next((i for i in range(c + 1, k) if H[i][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            H[c + 1], H[piv] = H[piv], H[c + 1]
            for row in H:
                row[c + 1], row[piv] = row[piv], row[c + 1]
        inv = pow(H[c + 1][c], ell - 2, ell)
        for i in range(c + 2, k):
            u = H[i][c] * inv % ell
            if u:
                # row_i -= u row_{c+1}, then column_{c+1} += u column_i
                H[i] = [(a - u * b) % ell for a, b in zip(H[i], H[c + 1])]
                for row in H:
                    row[c + 1] = (row[c + 1] + u * row[i]) % ell
    polys = [[1]]
    for m in range(k):
        prev = polys[m]
        p = [0] + prev
        for d, a in enumerate(prev):
            p[d] -= H[m][m] * a
        t = 1
        for i in range(1, m + 1):
            t = t * H[m - i + 1][m - i] % ell
            f = H[m - i][m] * t % ell
            if f:
                for d, a in enumerate(polys[m - i]):
                    p[d] -= f * a
        polys.append([a % ell for a in p])
    return polys[k]


def _roots_mod(poly, ell):
    """The roots in [0, ell) of an ascending coefficient list, by Horner."""
    roots = []
    for lam in range(ell):
        v = 0
        for a in reversed(poly):
            v = (v * lam + a) % ell
        if v == 0:
            roots.append(lam)
    return roots


def _rref_mod(rows, ell):
    """Reduced row echelon form mod ell, as (rows, pivots): row i has a 1 at
    column pivots[i], the only nonzero entry of that column; zero rows go."""
    rows = [[a % ell for a in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], ell - 2, ell)
        top = rows[rank] = [a * inv % ell for a in rows[rank]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != rank:
                rows[i] = [(a - f * b) % ell for a, b in zip(row, top)]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _nullspace_mod(A, ell):
    """A basis of {v : A v = 0 mod ell}, one vector per free column."""
    rows, pivots = _rref_mod(A, ell)
    basis = []
    for f in range(len(A[0])):
        if f in pivots:
            continue
        v = [0] * len(A[0])
        v[f] = 1
        for row, p in zip(rows, pivots):
            v[p] = -row[f] % ell
        basis.append(v)
    return basis


def _split_common_eigenspaces(group, mats, ell):
    """Split F_ell^r into common eigenspaces of the class matrices until each
    is a line; returns one spanning vector per line.

    Each space is kept as a reduced-echelon basis b_c with pivot columns p_c,
    so the coordinates of a vector of the space are its entries at the
    pivots.  The class matrices commute, so M maps each common eigenspace
    into itself, and M restricted to it is R[i][c] = (M b_c)[p_i], which is
    M itself on the whole space.  A scalar R splits nothing, so the space is
    kept as it is.
    """
    r = group.num_classes
    spaces = [([[int(i == j) for j in range(r)] for i in range(r)], list(range(r)))]
    for M in mats:
        new_spaces = []
        for basis, pivots in spaces:
            k = len(basis)
            if k == 1:
                new_spaces.append((basis, pivots))
                continue
            R = ([[a % ell for a in row] for row in M] if k == r else  # basis = I
                 [[sum(map(mul, M[p], b_c)) % ell for b_c in basis] for p in pivots])
            if all(x == (R[0][0] if i == j else 0) for i, row in enumerate(R)
                   for j, x in enumerate(row)):
                new_spaces.append((basis, pivots))
                continue
            columns = list(zip(*basis))
            eigenspaces = []
            for lam in _roots_mod(_charpoly_mod(R, ell), ell):
                A = [[(R[i][j] - (lam if i == j else 0)) % ell for j in range(k)]
                     for i in range(k)]
                eigenspaces.append([[sum(map(mul, coeffs, col)) % ell for col in columns]
                                    for coeffs in _nullspace_mod(A, ell)])
            if sum(len(s) for s in eigenspaces) != k:
                raise ArithmeticError("eigenspace split failed")
            new_spaces.extend(_rref_mod(s, ell) for s in eigenspaces)
        spaces = new_spaces
        if all(len(s) == 1 for s, _ in spaces):
            break
    if not all(len(s) == 1 for s, _ in spaces):
        raise ArithmeticError("class matrices did not split the space")
    return [s[0] for s, _ in spaces]


def class_function_json(conductor, values):
    """A class function's report form: per class, the conductor and the
    value's power-basis coordinates as strings."""
    return [{"conductor": conductor, "coeffs": [str(c) for c in v]} for v in values]


class CharacterTable:
    """Per irreducible, in sorted order: its degree, its multiplicity vector
    at each class and its residues mod ell (module docstring)."""

    def __init__(self, group, mults, degrees, ell, w, phi):
        self.group = group
        self.mults = mults
        self.degrees = degrees
        self.ell, self.w, self.phi = ell, w, phi
        self.cuspidal_flags = [is_cuspidal(group, row, ell) for row in phi]

    def to_json(self):
        g, E = self.group, self.group.exponent
        distinct = {m for row in self.mults for m in row}
        values = {m: from_powers(E, m, E // len(m)) for m in distinct}
        return {
            "q": g.q, "n": g.n, "order": g.order,
            "classes": [{"key": [list(f) for f in key], "size": size}
                        for key, size in zip(g.class_keys, g.class_sizes)],
            "irreducibles": [{"degree": d, "values": class_function_json(E, map(values.get, row))}
                             for d, row in zip(self.degrees, self.mults)],
            "cuspidal_flags": self.cuspidal_flags,
        }


def dixon_table(group):
    """The exact character table (degrees, multiplicity vectors, residues),
    split modulo the least prime ell = 1 mod E above 2 sqrt|G|.  No other
    prime is needed (Dixon 1967): at such an ell, distinct irreducible
    characters stay distinct modulo every prime above ell, so the common
    eigenspaces of the class matrices are lines, and each degree, below
    sqrt|G| < ell / 2, is the one root of its square mod ell in that range.
    So an ArithmeticError on the way is a failed identity, a
    VerificationError with its message."""
    ell, E = _split_prime(group.exponent, max(2 * isqrt(group.order), 2)), group.exponent
    try:
        characters = _characters_mod(group, ell)
        rows = [(degree, mults) for (degree, _), mults
                in zip(characters, _multiplicities(group, characters, ell))]
        # by degree, then power-basis values: the order that numbers pi in reports
        distinct = {m for _, mults in rows for m in mults}
        values = {m: from_powers(E, m, E // len(m)) for m in distinct}
        rows.sort(key=lambda row: (row[0], [values[m] for m in row[1]]))
        prime, w, phi = _check_table(group, rows)
    except ArithmeticError as exc:
        raise VerificationError(str(exc)) from None
    return CharacterTable(group, [m for _, m in rows], [d for d, _ in rows], prime, w, phi)


def _characters_mod(group, ell):
    """(degree, chi mod ell) for each common eigenvector of the class
    matrices: the eigenvector scaled to omega(1) = 1 is the central character
    omega_chi(C_j) = |C_j| chi(g_j) / chi(1), and chi(1)^2 = |G| / sum_j
    omega(C_j) omega(C_j^-1) / |C_j|."""
    r = group.num_classes
    eigvecs = _split_common_eigenspaces(group, _class_matrices(group), ell)
    id_class = group.identity_class
    size_inv = [pow(size, ell - 2, ell) for size in group.class_sizes]
    characters = []
    for vec in eigvecs:
        if vec[id_class] % ell == 0:
            raise ArithmeticError("eigenvector vanishes at the identity class")
        inv0 = pow(vec[id_class], ell - 2, ell)
        omega = [(v * inv0) % ell for v in vec]
        s = 0
        for j in range(r):
            s = (s + omega[j] * omega[group.inverse_class[j]] * size_inv[j]) % ell
        if s == 0:
            raise ArithmeticError("degree functional vanished")
        deg_sq = (group.order % ell) * pow(s, ell - 2, ell) % ell
        degree = next((d for d in range(1, isqrt(group.order) + 1)
                       if (d * d) % ell == deg_sq), None)
        if degree is None:
            raise ArithmeticError("no admissible degree root")
        chi_mod = [(omega[j] * degree) % ell * size_inv[j] % ell for j in range(r)]
        characters.append((degree, chi_mod))
    return characters


def _rational_classes(group):
    """The rational classes, in the order of their least classes, as pairs
    (j, members): j the least class of one, and members the pairs (c, k),
    one per class c in it, with g_c conjugate to g_j^k, k prime to ord g_j
    and the least such (k = 1 for j itself)."""
    out, seen = [], set()
    for j in range(group.num_classes):
        if j in seen:
            continue
        d = group.class_orders[j]
        members = {}
        for k in range(1, d + 1):
            if gcd(k, d) == 1:
                members.setdefault(group.powermap(j, k), k)
        seen.update(members)
        out.append((j, sorted(members.items())))
    return out


def _lift(characters, power_classes, ell, w):
    """The eigenvalue multiplicities of g in every character, g a class rep
    with d = ord g = len(power_classes) and power_classes[s] the class of
    g^s: m_t = (1/d) sum_s chi(g^s) zeta_d^{-st} mod ell, zeta_d =
    w^((ell-1)/d) for the primitive root w.  The true m_t lies in [0,
    chi(1)] and chi(1) < ell, so the residue is m_t itself; the residues,
    each >= 0, must sum to chi(1) (`_check_table`), so none exceeds it.

    chi is constant on classes, so the kernel sums zeta_d^{-st} once per
    class c over the s with g^s in c, each m_t is a sum over the distinct
    classes of g's powers, and the characters that agree on them share one
    lift."""
    d = len(power_classes)
    z = pow(w, (ell - 1) // d, ell)
    d_inv = pow(d, ell - 2, ell)
    z_inv = [pow(z, -s % d, ell) * d_inv % ell for s in range(d)]  # zeta_d^-s / d
    exponents = {}  # class c -> the s with g^s in c
    for s, c in enumerate(power_classes):
        exponents.setdefault(c, []).append(s)
    kernel = [[sum(map(row.__getitem__, ss)) for ss in exponents.values()]
              for row in ([z_inv[s * t % d] for s in range(d)] for t in range(d))]
    out, lifted = [], {}
    for degree, chi_mod in characters:
        values = tuple(map(chi_mod.__getitem__, exponents))
        mult = lifted.get(values)
        if mult is None:
            mult = lifted[values] = [sum(map(mul, values, row)) % ell for row in kernel]
        out.append(mult)
    return out


def _multiplicities(group, characters, ell):
    """mults[i][j]: the eigenvalue multiplicities (m_t, t < ord g_j) of
    g_j in character i, so that chi_i(g_j) = sum_t m_t zeta_d^t.

    The lift runs once per rational class.  If g_c is conjugate to g^k with
    k prime to d = ord g, the eigenvalue zeta_d^t of g, of multiplicity
    m_t, is zeta_d^{kt} for g^k: the members' vectors are the rep's,
    re-indexed by t -> k t mod d.  This is the same identity on the residues
    mod ell that the lift would compute at g_c, so it is exact.  Characters
    that share a lift share its twists, made once per member.
    """
    w = _primitive_root(ell)
    mults = [[None] * group.num_classes for _ in characters]
    for j, members in _rational_classes(group):
        d = group.class_orders[j]
        lifted = _lift(characters, [group.powermap(j, s) for s in range(d)], ell, w)
        twists = {}  # id of a lift -> its twists, one per member
        for row, mult in zip(mults, lifted):
            if id(mult) not in twists:
                twists[id(mult)] = [_twist(mult, k) for _, k in members]
            for (c, _), twisted in zip(members, twists[id(mult)]):
                row[c] = twisted
    return mults


def _twist(mult, k):
    """The multiplicity vector re-indexed by t -> k t mod len(mult), k prime
    to it: sigma_k applied to sum_t m_t zeta_d^t."""
    return _twister(len(mult), k)(mult)


@lru_cache(maxsize=None)
def _twister(d, k):
    """The tuple of a twisted vector from the vector: its entry u is entry
    k^-1 u mod d of the vector."""
    k_inv = pow(k, -1, d)
    return itemgetter(*(k_inv * u % d for u in range(d))) if d > 1 else tuple


def _unit_generators(E):
    """A generating set of (Z/E)^x: each unit, in increasing order, that the
    units taken before it do not generate."""
    gens, generated = [], {1 % E}
    for k in range(2, E):
        if gcd(k, E) == 1 and k not in generated:
            gens.append(k)
            frontier = list(generated)
            for x in frontier:
                for g in gens:
                    y = x * g % E
                    if y not in generated:
                        generated.add(y)
                        frontier.append(y)
    return gens


def _check_table(group, rows):
    """Exact orthonormality of a table given as rows (d_i, mults_i), with
    mults_i[j] the eigenvalue multiplicities of chi_i at g_j: chi_i(g_j) =
    sum_t m_t zeta_d^t, d = ord g_j, in Z[zeta_E] for E the exponent.

    The checks, each on integers:
    1. r rows with sum_i d_i^2 = |G|, and at every class m_t >= 0 and
       sum_t m_t = d_i.  So every Galois conjugate has |sigma chi_i(g_j)|
       <= d_i.
    2. The rows are distinct and their set is Galois-stable.  For each k
       of a generating set of (Z/E)^x, sigma_k (zeta_E -> zeta_E^k) maps
       each row to a row: its vectors re-indexed by t -> k t are some
       row's.  Each distinct vector is re-indexed once per k, and not at
       all when k = 1 mod its length; each row's image is read off that
       map.  sigma_k is injective, so every sigma permutes the rows;
       complex conjugation, k = -1, maps row i to c(i).
    3. The Gram matrix modulo ell' (module docstring).  Since conj chi_k =
       chi_c(k), phi(|G| <chi_i, chi_k>) = S_i,c(k) with S_ab =
       sum_j |C_j| phi(chi_a(g_j)) phi(chi_b(g_j)).  S is symmetric and c an
       involution, so S_ab = |G| [b = c(a)] for a <= b gives phi(|G| <chi_i,
       chi_k>) = |G| delta_ik for every (i, k).

    Why this is exact: for x = |G| <chi_i, chi_k> - |G| delta_ik and sigma
    in the Galois group, sigma^-1 permutes the rows (2) and commutes with
    conjugation, so sigma^-1(x) is the x of another pair of rows, which phi
    kills (3); by (1) |sigma(x)| <= |G| (d_i d_k + 1) < ell', so x = 0 by
    the module docstring's argument.  So X D X* = |G| I for X the table and
    D the class sizes, and D X* X = |G| I as X is square.  Returns (ell',
    w, phi), phi[i][j] = phi(chi_i(g_j)).
    """
    if len(rows) != group.num_classes:
        raise ArithmeticError(
            f"table is not square: {len(rows)} irreducibles for {group.num_classes} classes")
    if sum(d * d for d, _ in rows) != group.order:
        raise ArithmeticError("sum of squared degrees is off")
    if any([len(m) for m in mults] != group.class_orders for _, mults in rows):
        raise ArithmeticError("a row is not one vector of length ord g_j per class j")
    if any(min(m) < 0 or sum(m) != d for d, mults in rows for m in mults):
        raise ArithmeticError("eigenvalue multiplicities do not sum to the degree")
    E = group.exponent
    ids = {}  # distinct vector -> its number; a row is the tuple of its vectors' numbers
    keys = [tuple(ids.setdefault(m, len(ids)) for m in mults) for _, mults in rows]
    index = {key: i for i, key in enumerate(keys)}
    if len(index) != len(rows):
        raise ArithmeticError("two rows are equal")
    for k in _unit_generators(E) + [-1]:
        image = [ids.get(m if k % len(m) == 1 % len(m) else _twist(m, k)) for m in ids]
        images = [index.get(tuple(map(image.__getitem__, key))) for key in keys]
        if None in images:
            raise ArithmeticError(f"the row set is not Galois-stable under zeta -> zeta^{k}")
    conj = images  # k = -1 came last
    q, n, d_max = group.q, group.n, max(d for d, _ in rows)
    ell = _split_prime(E, max(group.order * (d_max ** 2 + 1),
                              group.order // (q ** n - 1) + 2 * d_max * q ** (n * (n - 1) // 2)))
    w = pow(_primitive_root(ell), (ell - 1) // E, ell)
    # phi(zeta_d^t) = w^(E t / d)
    roots = {d: [pow(w, E // d * t, ell) for t in range(d)] for d in set(group.class_orders)}
    phi = [sum(map(mul, m, roots[len(m)])) % ell for m in ids]
    values = [list(map(phi.__getitem__, key)) for key in keys]
    for a, va in enumerate(values):
        weighted = [size * v for size, v in zip(group.class_sizes, va)]
        for b in range(a, len(values)):
            if sum(map(mul, weighted, values[b])) % ell != (group.order if b == conj[a] else 0):
                raise ArithmeticError("row orthogonality failed")
    return ell, w, values


# -- the correspondence ----------------------------------------------------------------


class CorrespondenceData:
    """Everything needed for the depth-0 correspondence on a GLGroup."""

    def __init__(self, group):
        self.group = group
        self.torus = CoxeterTorus(self.group)
        self.table = dixon_table(self.group)
        self.st = steinberg(self.group)
        self.cuspidal_indices = [i for i, f in enumerate(self.table.cuspidal_flags) if f]


def frobenius_orbits(q, n):
    """The Frobenius orbits of the generic characters theta_j: the cycles
    (j, jq, jq^2, ...) of j -> jq mod q^n - 1 of length exactly n, each from
    its least member j, in that order.  A cycle's length divides n, and
    theta_j is generic, fixed by no nontrivial Frobenius power, when no
    proper divisor m of n has j q^m = j: when j, ..., j q^(n-1) are distinct."""
    order = q ** n - 1
    walks = (tuple(j * q ** i % order for i in range(n)) for j in range(order))
    return [walk for j, walk in enumerate(walks) if min(walk) == j and len(set(walk)) == n]


def correspondence_report(q, n, data=None):
    """Verify the full character-level correspondence, one Ind theta per
    Frobenius orbit, from its least member: the torus classes are stable
    under t -> t^q, so every theta_j of an orbit has the same Ind
    (`CoxeterTorus`).  The report's `cuspidal_part` is the virtual cuspidal
    part of the cohomology in degree n - 1: each pi with each theta_j of its
    orbit, at sign (-1)^(n-1)."""
    data = CorrespondenceData(GLGroup(q, n)) if data is None else data
    group = data.group
    checks = []

    orbits = frobenius_orbits(q, n)
    n_generic = generic_character_count(q, n)
    checks.append(check_entry(
        "generic_count", sum(len(o) for o in orbits) == n_generic,
        f"{sum(len(o) for o in orbits)} generic characters (Moebius: {n_generic})"))

    # {pi * St: the cuspidals pi}, keyed by residues (module docstring)
    table, ell = data.table, data.table.ell
    solutions = {}
    for idx in data.cuspidal_indices:
        solutions.setdefault(tuple(s * v % ell for s, v in zip(data.st, table.phi[idx])),
                             []).append(idx)
    # `failure` names the first orbit with no solution or several
    pi_of_orbit = {}
    failure = None
    for orbit in orbits:
        matches = solutions.get(induce_from_torus(group, data.torus, orbit[0], ell, table.w), [])
        if len(matches) == 1:
            pi_of_orbit[orbit] = matches[0]
        elif failure is None:
            failure = (f"multiple cuspidal solutions for theta_{orbit[0]}" if matches
                       else f"no cuspidal solution for theta_{orbit[0]}")
    checks.append(check_entry("orbit_maps_to_single_pi", failure is None, failure or ""))
    # no check below may pass on the matched orbits alone
    matched = len(pi_of_orbit) == len(orbits)

    # the table's rows are proved orthonormal, so distinct orbits on
    # distinct rows is <pi_a, pi_b> = delta_orbit
    images = sorted(pi_of_orbit.values())
    checks.append(check_entry(
        "bijection_onto_cuspidals",
        matched and images == sorted(data.cuspidal_indices)
        and len(images) == len(set(images)),
        f"images {images}, cuspidals {data.cuspidal_indices}"))

    sign = (-1) ** (n - 1)
    cuspidal_part = [{"pi": pi, "theta": j, "mult": sign}
                     for pi, j in sorted((pi, j) for orbit, pi in pi_of_orbit.items()
                                         for j in orbit)]
    return {
        "q": q, "n": n,
        "checks": checks,
        "orbits": [{"thetas": list(o), "pi": pi_of_orbit.get(o)} for o in orbits],
        "cuspidal_part": cuspidal_part,
        "all_pass": all(c["status"] == "pass" for c in checks),
    }
