import json
import random
from math import comb

import pytest
from witt_oracles import from_digits

from ltdl.errors import ParameterError
from ltdl.ffield import FieldDesc, ff_make
from ltdl.series import SeriesRing, TruncatedSeries, product_over
from ltdl.witt import BoundedPadic, PadicParams, WittRing, witt_ring


def witt_xy(p=2, N=6, D=8):
    return SeriesRing(witt_ring(p, 1, N), ("X", "Y"), D)


def fq_ring(q_p, q_f, variables, D, caps=None):
    return SeriesRing(ff_make(q_p, q_f), variables, D, caps)


def test_x_times_y():
    R = witt_xy()
    assert R.var("X") * R.var("Y") == R.monomial((1, 1), R.domain.one())


def test_geometric_series_inverse():
    # Oracle: explicit alternating geometric series.
    R = witt_xy(p=3, N=5, D=9)
    one_plus_x = R.one() + R.var("X")
    geo = R.zero()
    for k in range(R.degree):
        geo = geo + R.monomial((k, 0), R.domain.from_int((-1) ** k))
    assert one_plus_x * geo == R.one()


def test_add_commutative_randomized():
    rng = random.Random(43)
    R = witt_xy()
    m = R.domain.pN

    def rand():
        t = {}
        for _ in range(6):
            e = (rng.randrange(4), rng.randrange(4))
            t[e] = R.domain.from_int(rng.randrange(1, m))
        return TruncatedSeries(R, t)

    for _ in range(50):
        a, b = rand(), rand()
        assert a + b == b + a
        assert a * b == b * a


def test_ring_axioms_randomized_all_domains():
    rng = random.Random(47)
    domains = [
        SeriesRing(ff_make(2, 2), ("X", "Y"), 6),
        SeriesRing(witt_ring(3, 1, 4), ("X", "Y"), 6),
    ]
    for R in domains:
        els = []
        if isinstance(R.domain, FieldDesc):
            pick = lambda: rng.randrange(R.domain.q)
        else:
            pick = lambda: R.domain.from_int(rng.randrange(R.domain.pN))
        for _ in range(12):
            t = {}
            for _ in range(5):
                c = pick()
                if not R.domain.is_negligible(c):
                    t[(rng.randrange(3), rng.randrange(3))] = c
            els.append(TruncatedSeries(R, t))
        for _ in range(40):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_substitute_simple():
    R = fq_ring(2, 1, ("X", "Y"), 6)
    T = fq_ring(2, 1, ("U",), 6)
    s = R.var("X") + R.var("Y")
    u = T.var("U")
    out = s.substitute({"X": u * u, "Y": u}, T)
    assert out == u + u * u


def test_substitute_monomials():
    R = fq_ring(3, 1, ("X", "Y"), 7)
    T = fq_ring(3, 1, ("V", "Z"), 7)
    s = R.var("X") * R.var("Y")
    out = s.substitute({"X": T.var("V") * T.var("Z"), "Y": T.var("Z")}, T)
    assert out == T.var("V") * T.var("Z") ** 2


def test_substitute_composition_multiplicative_group():
    # ((1+X)^a - 1) o ((1+X)^b - 1) = (1+X)^(ab) - 1, binomial oracle.
    D = 9
    R = SeriesRing(witt_ring(5, 1, 6), ("X",), D)

    def mult_series(a):
        t = {}
        for k in range(1, D):
            c = R.domain.from_int(comb(a, k))
            if not R.domain.is_negligible(c):
                t[(k,)] = c
        return TruncatedSeries(R, t)

    for a, b in [(2, 3), (3, 3), (2, 2)]:
        assert mult_series(a).substitute({"X": mult_series(b)}) == mult_series(a * b)


def test_substitution_functorial_small():
    rng = random.Random(53)
    R = fq_ring(2, 1, ("X",), 6)
    f = R.domain
    for _ in range(20):
        s = TruncatedSeries(R, {(k,): f.one() for k in range(1, 5) if rng.random() < 0.6})
        a = R.var("X") * R.var("X")
        b = R.var("X") + R.var("X") * R.var("X")
        via_two = s.substitute({"X": a}).substitute({"X": b})
        composed = a.substitute({"X": b})
        direct = s.substitute({"X": composed})
        assert via_two == direct


def test_constant_term_substitution_rules():
    R = fq_ring(2, 1, ("V", "Z"), 8, caps={"V": 4})
    s = R.var("V") * R.var("Z") ** 2
    shifted = s.substitute({"V": R.var("V") + R.one()})
    assert shifted == s + R.var("Z") ** 2
    # uncapped variable must reject a constant term
    with pytest.raises(ParameterError):
        s.substitute({"Z": R.var("Z") + R.one()})


def test_product_over_and_reordering():
    R = fq_ring(2, 1, ("X", "Y"), 6)
    x, y = R.var("X"), R.var("Y")
    assert product_over([x, x]) == x * x
    fam = [x, y, x + y]
    expected = R.monomial((2, 1), R.domain.one()) + R.monomial((1, 2), R.domain.one())
    assert product_over(fam) == expected
    for perm in [[0, 2, 1], [2, 1, 0], [1, 0, 2]]:
        assert product_over([fam[i] for i in perm]) == expected
    with pytest.raises(ParameterError):
        product_over([])


def test_var_valuation_and_factor_out():
    R = fq_ring(3, 1, ("X", "Y"), 8)
    x, y = R.var("X"), R.var("Y")
    s = x * x * y + x ** 3
    assert s.var_valuation("X") == 2
    assert s.factor_out("X", 2) == y + x
    with pytest.raises(ParameterError):
        s.factor_out("X", 3)
    with pytest.raises(ParameterError):
        R.zero().var_valuation("X")


def test_var_valuation_additive_over_fq():
    rng = random.Random(59)
    R = fq_ring(2, 2, ("X", "Y"), 10)
    f = R.domain

    def rand():
        t = {}
        for _ in range(4):
            c = rng.randrange(1, 4)
            t[(rng.randrange(1, 4), rng.randrange(3))] = c
        return TruncatedSeries(R, t)

    for _ in range(40):
        s, t = rand(), rand()
        prod = s * t
        if prod.is_zero():
            continue
        assert prod.var_valuation("X") == s.var_valuation("X") + t.var_valuation("X")


def test_reduce_mod_p():
    R = witt_xy(p=2, N=3, D=6)
    s = R.var("X").scale(R.domain.from_int(2)) + R.var("X") ** 2
    red = s.reduce_mod_p()
    F = red.ring
    assert red == F.var("X") ** 2
    rng = random.Random(61)
    m = R.domain.pN

    def rand():
        return TruncatedSeries(R, {(rng.randrange(3), rng.randrange(3)):
                                   R.domain.from_int(rng.randrange(1, m))
                                   for _ in range(4)})

    for _ in range(40):
        a, b = rand(), rand()
        assert (a * b).reduce_mod_p() == a.reduce_mod_p() * b.reduce_mod_p()


def test_reduce_mod_p_needs_witt_coefficients():
    # only a Witt ring has a residue field to reduce to
    for ring in (fq_ring(2, 2, ("X",), 4), SeriesRing(PadicParams(2, 5, 3), ("X",), 4)):
        with pytest.raises(ParameterError, match="needs Witt coefficients"):
            ring.var("X").reduce_mod_p()


def test_ideal_membership():
    R = fq_ring(2, 1, ("X", "Y"), 6)
    x, y = R.var("X"), R.var("Y")
    assert (x * y + x * x).ideal_membership_monomial(["X"])
    assert not (x + y).ideal_membership_monomial(["X"])


def series_from_json(data):
    """Rebuild a series from its `to_json` form alone (the round-trip oracle
    that `to_json` records the ring and every coefficient in full)."""
    desc = data["coeff_ring"]
    p = desc["p"]
    if desc["kind"] == "fq":
        dom = ff_make(p, desc["f"])
        coeff = dom.from_coords
    elif desc["kind"] == "witt":
        dom = witt_ring(p, desc["f"], desc["N"])
        coeff = lambda c: from_digits(dom, [dom.field.from_coords(d) for d in c])
    else:
        params = dom = PadicParams(p, desc["N"], desc["v_max"], pad=desc["n_work"] - desc["N"])

        def coeff(c):
            if c.get("zero"):
                return params.zero()
            if "ozero" in c:
                return BoundedPadic(params, c["ozero"], None, c["ozero"])
            return BoundedPadic(params, c["val"], c["unit"], c["abs"])
    ring = SeriesRing(dom, tuple(data["vars"]), data["degree_bound"], data["caps"] or None)
    return TruncatedSeries(ring, {tuple(t["exps"]): coeff(t["coeff"]) for t in data["terms"]})


def test_json_roundtrip_bit_exact():
    rings = [
        fq_ring(2, 2, ("X", "Y"), 6),
        SeriesRing(witt_ring(3, 1, 5), ("X", "Y"), 7, caps={"Y": 3}),
        SeriesRing(PadicParams(2, 5, 3), ("X",), 6),
    ]
    rng = random.Random(67)
    for R in rings:
        if isinstance(R.domain, FieldDesc):
            pick = lambda: rng.randrange(1, R.domain.q)
        elif isinstance(R.domain, WittRing):
            pick = lambda: R.domain.from_int(rng.randrange(1, R.domain.pN))
        else:
            pick = lambda: R.domain.from_int(rng.randrange(1, 20)).div_p(rng.randrange(3))
        t = {}
        for _ in range(5):
            e = tuple(rng.randrange(3) for _ in R.vars)
            c = pick()
            if R.admits(e) and not R.domain.is_negligible(c):
                t[e] = c
        s = TruncatedSeries(R, t)
        blob = json.dumps(s.to_json(), sort_keys=True)
        back = series_from_json(json.loads(blob))
        assert back == s
        assert json.dumps(back.to_json(), sort_keys=True) == blob


def test_truncation_respects_caps():
    R = fq_ring(2, 1, ("V", "X"), 12, caps={"X": 3})
    x = R.var("X")
    assert (x ** 3) * x == R.zero()
    v = R.var("V")
    assert (v ** 5) * (v ** 5) * v == v ** 11
    assert (v ** 6) * (v ** 6) == R.zero()  # total degree 12 >= bound


# -- oracles for the graded kernel ---------------------------------------------------


def oracle_admits(ring, exps):
    if sum(exps) >= ring.degree:
        return False
    return all(exps[ring._var_index[v]] <= cap for v, cap in ring.caps.items())


def oracle_mul(a, b):
    """The dict-of-tuples product the graded kernel replaced: every pair of
    terms is formed, and `admits` throws away those past the bound."""
    ring = a.ring
    dom = ring.domain
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if not oracle_admits(ring, e):
                continue
            c = dom.mul(c1, c2)
            if e in out:
                c = dom.add(out[e], c)
            if dom.is_negligible(c):
                out.pop(e, None)
            else:
                out[e] = c
    return TruncatedSeries(ring, out)


def oracle_substitute(s, assignments, target):
    """The substitution the graded kernel replaced: each monomial is the
    constant series c times cached powers (by `oracle_mul`), and the sum is
    copied once per source term (`out + mono`)."""
    powers = {}
    for i, v in enumerate(s.ring.vars):
        if v in assignments:
            powers[i] = {0: target.one(), 1: assignments[v]}
        elif any(e[i] for e in s.terms):
            powers[i] = {0: target.one(), 1: target.var(v)}

    def power(i, e):
        cache = powers[i]
        for k in range(2, e + 1):
            if k not in cache:
                cache[k] = oracle_mul(cache[k - 1], cache[1])
        return cache[e]

    out = target.zero()
    for e, c in sorted(s.terms.items()):
        mono = target.constant(c)
        for i, exp in enumerate(e):
            if exp:
                mono = oracle_mul(mono, power(i, exp))
        out = out + mono
    return out


def coefficient_picker(rng, domain):
    if isinstance(domain, FieldDesc):
        return lambda: rng.randrange(1, domain.q)
    if isinstance(domain, WittRing):
        return lambda: domain.from_coords(rng.randrange(domain.pN) for _ in range(domain.f))
    # a small pool, so that partial sums cancel to zeros at precision
    p = domain.p
    pool = [domain.from_int(k) for k in (1, -1, 2, p, -p, p + 1)]
    pool += [c.div_p(1) for c in pool[:2]]
    return lambda: rng.choice(pool)


def random_series(rng, ring, size, low=0, high=None, pick=None):
    """`size` random admitted terms of total degree in [low, high), spread
    over the variables, so that products straddle the degree bound."""
    pick = pick or coefficient_picker(rng, ring.domain)
    high = ring.degree if high is None else high
    width = len(ring.vars)
    terms = {}
    for _ in range(size):
        e = [0] * width
        for _ in range(rng.randrange(low, high)):
            e[rng.randrange(width)] += 1
        e = tuple(e)
        c = pick()
        if ring.admits(e) and not ring.domain.is_negligible(c):
            terms[e] = c
    return TruncatedSeries(ring, terms)


def kernel_rings():
    """Plain rings over each coefficient domain, plus capped chart-style
    rings (V_i capped at D, the pivot at D - 1, degree bound 2D + 1)."""
    D = 5
    return [
        fq_ring(2, 2, ("X", "Y"), 7),
        fq_ring(3, 1, ("V1", "Xn"), 2 * D + 1, caps={"V1": D, "Xn": D - 1}),
        SeriesRing(witt_ring(3, 1, 4), ("X", "Y", "Z"), 6),
        SeriesRing(witt_ring(2, 2, 3), ("V1", "V2", "Xn"), 2 * D + 1,
                   caps={"V1": D, "V2": D, "Xn": D - 1}),
        SeriesRing(PadicParams(2, 5, 3), ("X", "Y"), 6),
        SeriesRing(PadicParams(3, 4, 2), ("X",), 9),
    ]


@pytest.mark.parametrize("ring", kernel_rings(), ids=repr)
def test_graded_product_matches_the_pairwise_oracle(ring):
    rng = random.Random(71)
    D = ring.degree
    straddling = 0
    for _ in range(40):
        a = random_series(rng, ring, rng.randrange(1, 9), low=0, high=D)
        b = random_series(rng, ring, rng.randrange(1, 9), low=D // 3, high=D)
        for left, right in ((a, b), (b, a), (a, a)):
            assert left * right == oracle_mul(left, right)
        degrees = {sum(e1) + sum(e2) for e1 in a.terms for e2 in b.terms}
        straddling += any(d < D for d in degrees) and any(d >= D for d in degrees)
    assert straddling >= 10


def substitution_cases(rng):
    """(source series, assignments, target ring) over each domain, among
    them the X_i = V_i X_n chart substitution into a capped ring and a
    constant term substituted into a capped variable."""
    D = 5
    for dom in (ff_make(2, 2), witt_ring(3, 1, 4), PadicParams(2, 5, 3)):
        src = SeriesRing(dom, ("X1", "X2"), D + 1)
        chart = SeriesRing(dom, ("V1", "Xn"), 2 * D + 1, caps={"V1": D, "Xn": D - 1})
        s = random_series(rng, src, 8, low=1)
        yield s, {"X1": chart.var("V1") * chart.var("Xn"), "X2": chart.var("Xn")}, chart
        inner = random_series(rng, src, 4, low=1, high=3)
        yield s, {"X1": inner, "X2": random_series(rng, src, 3, low=1)}, src
        yield s, {"X2": inner}, src
        capped = SeriesRing(dom, ("V", "Z"), 8, caps={"V": 4})
        t = random_series(rng, capped, 8)
        shift = random_series(rng, capped, 3, high=2)
        yield t, {"V": shift, "Z": random_series(rng, capped, 3, low=1, high=3)}, capped


def test_substitute_matches_the_accumulating_oracle():
    rng = random.Random(73)
    for _ in range(6):
        for s, assignments, target in substitution_cases(rng):
            assert s.substitute(assignments, target) == oracle_substitute(s, assignments, target)


def oracle_rings():
    """One ring per coefficient kind: F_q, Z/p^N, W(F_{p^f})/p^N with f > 1
    and the p-adics."""
    return [ff_make(2, 2), witt_ring(3, 1, 4), witt_ring(2, 2, 3), PadicParams(2, 5, 3)]


@pytest.mark.parametrize("dom", oracle_rings(), ids=repr)
def test_one_term_images_match_the_oracle(dom, monkeypatch):
    # renames, scaled variables c*x^v, the chart's X_i -> V_i X_n, a zero
    # image and a constant into a capped variable form no series product;
    # each is checked against the product-based oracle
    rng = random.Random(79)
    pick = coefficient_picker(rng, dom)
    src = SeriesRing(dom, ("X1", "X2", "V"), 9, caps={"V": 4})
    chart = SeriesRing(dom, ("V1", "Xn", "V"), 19, caps={"V1": 9, "Xn": 8, "V": 4})
    products = []
    honest = TruncatedSeries.__mul__
    for _ in range(8):
        s = random_series(rng, src, 10)
        c, d = pick(), pick()
        cases = [
            ({"X1": src.var("X2"), "X2": src.var("X1")}, src),
            ({"X1": src.var("X1", c), "X2": src.monomial((1, 1, 0), d)}, src),
            ({"X1": chart.var("V1") * chart.var("Xn"), "X2": chart.var("Xn")}, chart),
            ({"X2": src.zero(), "V": src.constant(c)}, src),
        ]
        monkeypatch.setattr(TruncatedSeries, "__mul__",
                            lambda a, b: products.append(1) or honest(a, b))
        got = [s.substitute(assignments, target) for assignments, target in cases]
        monkeypatch.undo()
        for out, (assignments, target) in zip(got, cases):
            assert out == oracle_substitute(s, assignments, target)
    assert products == []


@pytest.mark.parametrize("ring", [witt_ring(3, 1, 4), witt_ring(2, 2, 3)], ids=repr)
def test_one_term_images_whose_coefficient_powers_vanish_mod_pN(ring):
    # (p X)^k = 0 mod p^N once k >= N: those terms leave the image
    N, p = ring.N, ring.p
    R = SeriesRing(ring, ("X", "Y"), 3 * N)
    s = random_series(random.Random(83), R, 12, low=1)
    s = s + R.monomial((N, 1), ring.one()) + R.monomial((N + 1, 0), ring.one())
    image = {"X": R.var("X", ring.from_int(p)), "Y": R.var("Y", ring.from_int(p + 1))}
    out = s.substitute(image)
    assert out == oracle_substitute(s, image, R)
    assert all(e[0] < N for e in out.terms)


@pytest.mark.parametrize("dom", oracle_rings(), ids=repr)
def test_sparse_exponent_sets_match_the_oracle(dom):
    # exponents like those of exp = X + d X^25 at (5, 2): the image powers
    # come by squaring instead of one product per degree
    rng = random.Random(89)
    pick = coefficient_picker(rng, dom)
    R = SeriesRing(dom, ("X", "Y"), 16)
    for _ in range(4):
        s = TruncatedSeries(R, {(1, 0): pick(), (11, 0): pick(), (0, 1): pick(),
                                (2, 9): pick(), (0, 13): pick()})
        a = random_series(rng, R, 3, low=1, high=4)
        b = random_series(rng, R, 2, low=1, high=3)
        for image in ({"X": a}, {"X": a, "Y": b}, {"X": a, "Y": R.var("Y", pick())}):
            assert s.substitute(image) == oracle_substitute(s, image, R)


def test_sparse_powers_come_by_squaring(monkeypatch):
    # X + d X^25 into a two-term image needs the 25th power: squaring forms
    # it in at most 2 log2(25) products, not 24
    R = SeriesRing(witt_ring(5, 1, 4), ("X",), 30)
    s = R.var("X") + R.monomial((25,), R.domain.from_int(7))
    image = R.var("X") + R.monomial((2,), R.domain.one())
    products = []
    honest = TruncatedSeries.__mul__
    monkeypatch.setattr(TruncatedSeries, "__mul__",
                        lambda a, b: products.append(1) or honest(a, b))
    out = s.substitute({"X": image})
    assert len(products) <= 10
    monkeypatch.undo()
    assert out == oracle_substitute(s, {"X": image}, R)
