"""Brute-force oracles for the DL suite.

Each one enumerates points of F_{q^M}^n or loops over a whole group, where
`line_census`, `dl_points` and `orbit_check` count with integer congruences,
scale census lines onto the variety and walk one orbit; the tests hold the
two to the same answers wherever both run.  `act` applies a pair (g, zeta)
of GL_n(F_q) x mu_{q^n-1} to one point, and `line_fibers` groups points by
their line of P^{n-1}.
"""

from itertools import product
from math import gcd

from gl_oracles import vec_mat

from ltdl.cli import POINT_BUDGET
from ltdl.dl_variety import Ambient
from ltdl.errors import BudgetError, ParameterError, VerificationError
from ltdl.ffield import embed, ff_make
from ltdl.linalg import projective_representative


def ambient_points(amb):
    """Lexicographic enumeration of all vectors in F_{q^m}^n."""
    Q = amb.field.q
    if Q ** amb.n > POINT_BUDGET:
        raise BudgetError(f"{Q}^{amb.n} points exceed the {POINT_BUDGET} budget")
    return product(range(Q), repeat=amb.n)


def dl_points_by_enumeration(q, n, m):
    """Exhaustive solutions of the DL equation over F_{q^m}, in lexicographic
    order."""
    amb = Ambient(q, n, m)
    return [x for x in ambient_points(amb) if amb.on_variety(x)]


def base_points(q, n, m):
    """Points of P^{n-1}(F_{q^m}) avoiding every F_q-rational hyperplane: the
    vectors of F_{q^m}^n off every rational hyperplane, q^m - 1 to a line."""
    amb = Ambient(q, n, m)
    return sum(1 for x in ambient_points(amb) if amb.product_of_forms(x)) // (amb.field.q - 1)


def line_fibers(q, n, m, points):
    """The nonzero `points` of F_{q^m}^n grouped by their line of
    P^{n-1}(F_{q^m}): a dict from each line's representative with first
    nonzero coordinate 1 to its points, in the order given."""
    field = Ambient(q, n, m).field
    out = {}
    for x in points:
        out.setdefault(projective_representative(field, x), []).append(x)
    return out


def act(amb, x, g=None, zeta=None):
    """Apply (g, zeta): x -> zeta^{-1} (x g), in the ambient field of amb.

    g has canonical-int entries over F_q; zeta is a canonical int of the
    ambient field whose order must divide q^n - 1.
    """
    field = amb.field
    out = x
    if g is not None:
        out = vec_mat(field, out, amb.embed_matrix(g))
    if zeta is not None:
        if not zeta or field.pow(zeta, amb.q ** amb.n - 1) != 1:
            raise ParameterError("zeta does not have order dividing q^n - 1")
        zi = field.inv(zeta)
        out = tuple(field.mul(zi, v) for v in out)
    return out


def mu_elements(amb):
    """Solutions of z^{q^n - 1} = 1 in the ambient field, in canonical order."""
    order = amb.field.q - 1
    step = order // gcd(amb.q ** amb.n - 1, order)
    return sorted(amb.field.exp[k * step] for k in range(order // step))


def zeta_powers(amb, m):
    """[zeta^k for k in range(q^n - 1)] in the field F_{q^M} of amb, with
    zeta the generator of mu_{q^n-1} that `per_zeta_counts` fixes:
    zeta^{(q^n-1)/g} = gamma^{(q^m-1)/g}, gamma the stored generator of
    F_{q^m} embedded in F_{q^M} and g = gcd(q^n - 1, q^m - 1)."""
    q, n, field = amb.q, amb.n, amb.field
    order, B, A = field.q - 1, q ** n - 1, q ** m - 1
    small = ff_make(amb.base.p, amb.base.f * m)
    gamma = embed(small.exp[1], small, field)
    g = gcd(A, B)
    target = field.pow(gamma, A // g)
    zeta = next(z for s in range(1, B + 1) if gcd(s, B) == 1
                for z in [field.exp[s * (order // B)]] if field.pow(z, B // g) == target)
    return [field.pow(zeta, k) for k in range(B)]


def twisted_count(q, n, g, zeta, M, frob_power=1):
    """#{x in DL(F_{q^M}) : x_i^{q^frob_power} = (zeta^{-1} (x g))_i for all i}."""
    amb = Ambient(q, n, M)
    count = 0
    for x in ambient_points(amb):
        if not amb.on_variety(x):
            continue
        tx = act(amb, x, g, zeta)
        if all(amb.field.pow(xi, q ** frob_power) == ti for xi, ti in zip(x, tx)):
            count += 1
    return count


def twisted_fixed_count(amb, zeta, m):
    """#{x in DL(F_{q^M}) : Frob_{q^m}(x) = zeta^{-1} x}, M = amb.m, by
    enumerating only the candidates; `twisted_count` with g = 1 is the
    brute-force oracle.

    A DL point has no zero coordinate (the form picking it out would
    vanish), so each x_i is a root of x^A = zeta^{-1} with A = q^m - 1.
    With N = q^M - 1 and t = log(zeta^{-1}), roots exist only if A | t, and
    then they are exp[t/A + j N/A] for 0 <= j < A.
    """
    field = amb.field
    N, A = field.q - 1, amb.q ** m - 1
    if N % A:
        raise ParameterError(f"F_{{q^{m}}} is not a subfield of F_{{q^{amb.m}}}")
    t = field.log[field.inv(zeta)]
    if t % A:
        return 0
    zinv, frob = field.exp[t], amb.q ** m
    roots = [field.exp[t // A + j * (N // A)] for j in range(A)]
    for r in roots:
        if field.pow(r, frob) != field.mul(zinv, r):
            raise VerificationError(f"root {r} is not twisted-fixed by zeta = {zeta}")
    return sum(1 for x in product(roots, repeat=amb.n) if amb.on_variety(x))


def action_invariance_check(q, n, m, matrices, zetas=None, points=None):
    """Whether every (g, zeta) with g in matrices and zeta in zetas (by
    default all of the available mu_{q^n-1}) maps DL(F_{q^m}) points to DL
    points: returns the number of (point, g, zeta) triples checked, or None
    at the first image that is not a DL point.  `points`, if given, is
    DL(F_{q^m}) already listed, and is not enumerated again.

    Each pair acts injectively on the finite point set, so checking pairs
    that generate GL_n(F_q) x mu proves invariance under the whole group:
    generators of GL_n(F_q) paired with 1 and with a generator of mu do.
    """
    amb = Ambient(q, n, m)
    pts = dl_points_by_enumeration(q, n, m) if points is None else points
    mus = mu_elements(amb) if zetas is None else zetas
    checked = 0
    for x in pts:
        for g in matrices:
            xg = act(amb, x, g)
            for z in mus:
                if not amb.on_variety(act(amb, xg, zeta=z)):
                    return None
                checked += 1
    return checked
