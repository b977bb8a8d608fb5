import copy
import random
from math import comb

import pytest

from ltdl.errors import ParameterError, VerificationError
from ltdl.formal_modules import (
    invert_series,
    lubin_tate_module,
    to_witt_series,
    universal_module,
    verify_module_axioms,
)
from ltdl.series import SeriesRing, TruncatedSeries
from ltdl.witt import WittRing, witt_ring


def binomial_series(ring, a, upto):
    """(1+X)^a - 1 truncated, the closed-form oracle for the multiplicative module."""
    t = {}
    for k in range(1, upto):
        c = ring.domain.from_int(comb(a, k))
        if not ring.domain.is_negligible(c):
            t[(k,)] = c
    return TruncatedSeries(ring, t)


def test_multiplicative_closed_form():
    m = lubin_tate_module(2, 1, N=8, D=4)
    R = m.F.ring
    x, y = R.var("X"), R.var("Y")
    assert m.F == x + y + x * y
    three = m.scalar_series(("int", 3))
    oracle = binomial_series(m.x_ring, 3, m.D)
    assert three == oracle  # 3X + 3X^2 + X^3
    assert m.scalar_series(("int", 2)) == binomial_series(m.x_ring, 2, m.D)


def test_multiplicative_higher_scalars_match_binomials():
    m = lubin_tate_module(2, 1, N=8, D=8)
    for a in [2, 3, 5, 6]:
        assert m.scalar_series(("int", a)) == binomial_series(m.x_ring, a, m.D)


def test_log_is_classical_mercator_series():
    # Oracle: lambda = log(1+X) = sum (-1)^(m+1) X^m / m for f = 2X + X^2.
    m = lubin_tate_module(2, 1, N=8, D=8)
    params = m.padic_params
    for mm in range(1, m.D):
        got = m.log_series.coefficient((mm,))
        sign = params.from_int((-1) ** (mm + 1))
        want = sign * params.from_int(mm).inv()
        assert (got - want).zero_at(params.n_target)


def test_log_functional_equation():
    # lambda(f(X)) = p * lambda(X), checked independently of the solver loop.
    for (q, n) in [(2, 1), (3, 1), (2, 2)]:
        m = lubin_tate_module(q, n)
        lam = m.log_series
        lhs = lam.substitute({"X": m.f_padic})
        rhs = lam.scale(m.padic_params.from_int(m.p))
        diff = lhs - rhs
        for c in diff.terms.values():
            assert c.zero_at(m.padic_params.n_target)


def test_pi_series_is_f_exactly():
    for (q, n) in [(2, 1), (3, 1), (2, 2)]:
        m = lubin_tate_module(q, n)
        pi = m.scalar_series(("int", m.p))
        expect = m.x_ring.var("X").scale(m.x_ring.domain.from_int(m.p)) + \
            m.x_ring.monomial((q ** n,), m.x_ring.domain.one())
        assert pi == expect


def test_height_reduction():
    for (q, n) in [(2, 1), (3, 1), (2, 2)]:
        m = lubin_tate_module(q, n)
        red = m.scalar_series(("int", m.p)).reduce_mod_p()
        assert red == red.ring.monomial((q ** n,), red.ring.domain.one())


def test_axioms_pass_base_modules():
    for (q, n) in [(2, 1), (3, 1), (2, 2)]:
        report = verify_module_axioms(lubin_tate_module(q, n))
        assert all(c["status"] == "pass" for c in report), report


def test_axioms_fail_for_tampered_module():
    m = lubin_tate_module(2, 2)
    bad = copy.copy(m)
    ring = m.F.ring
    bump = ring.monomial((2, 1, ) + (0,) * (len(ring.vars) - 2), ring.domain.one())
    bad.F = m.F + bump + bump.map_vars(ring, {"X": "Y", "Y": "X"})
    report = {c["name"]: c["status"] for c in verify_module_axioms(bad)}
    assert report["associativity"] == "fail"
    assert report["symmetry"] == "pass"  # the tamper was symmetric on purpose


@pytest.mark.parametrize("builder", [lubin_tate_module, universal_module])
def test_scalar_one_fails_when_exp_does_not_invert_log(builder):
    # [1] is exp(1 * log X), built like every other integer scalar, so an
    # exp with a stray X^2 term gives [1](X) = X + X^2 and scalar_one fails
    m = builder(2, 2)
    assert m.scalar_series(("int", 1)) == m.x_ring.var("X")
    bad = builder(2, 2)
    ring = bad.exp_series.ring
    bad.exp_series = bad.exp_series + ring.monomial((2,) + (0,) * (len(ring.vars) - 1),
                                                    ring.domain.one())
    report = {c["name"]: c["status"] for c in verify_module_axioms(bad)}
    assert report["scalar_one"] == "fail"
    assert report["linear_part"] == report["associativity"] == "pass"


def test_universal_module_2_2():
    u = universal_module(2, 2, N=6, D=10)
    report = verify_module_axioms(u)
    assert all(c["status"] == "pass" for c in report), report
    # [p] agrees with the normal form 2X + T1 X^2 + X^4 mod p in low degree;
    # the exact normal form is unattainable (corrections are forced).
    pi = u.scalar_series(("int", 2))
    lin = pi.coefficient((1, 0))
    assert lin == pi.ring.domain.from_int(2)
    red = pi.reduce_mod_p()
    low = {e: c for e, c in red.terms.items() if e[0] <= 4}
    F2 = red.ring.domain
    assert low == {(2, 1): F2.one(), (4, 0): F2.one()}


def test_universal_specializes_to_base_model():
    # T -> 0 yields a base-type module (different normalization of the same
    # module as lubin_tate_module); it must satisfy every axiom including the
    # exact height law.
    u = universal_module(2, 2, N=6, D=8)
    base = u.specialize_aux_to_zero()
    report = verify_module_axioms(base)
    assert all(c["status"] == "pass" for c in report), report
    red = base.scalar_series(("int", 2)).reduce_mod_p()
    assert red == red.ring.monomial((4,), red.ring.domain.one())


def test_universal_t1_coefficient():
    # mod (p, T_2, ..): the coefficient of X^q in [p] is T_1.
    for (q, n) in [(2, 3), (3, 2)]:
        u = universal_module(q, n, N=4)
        pi = u.scalar_series(("int", u.p))
        red = pi.reduce_mod_p()
        e_xq_t1 = (q, 1) + (0,) * (n - 2)
        assert red.coefficient(e_xq_t1) == red.ring.domain.one()


def test_formal_sum_multiplicative_and_fold_invariance():
    m = lubin_tate_module(2, 1, N=6, D=6)
    R = SeriesRing(m.F.ring.domain, ("X", "Y", "Z"), m.D)
    x, y, z = R.var("X"), R.var("Y"), R.var("Z")
    total = m.formal_sum([x, y, z])
    one = R.one()
    expect = (one + x) * (one + y) * (one + z) - one
    assert total == expect
    assert m.formal_sum([x]) == x
    rng = random.Random(71)
    for _ in range(10):
        args = [x, y, z]
        rng.shuffle(args)
        assert m.formal_sum(args) == expect


def test_naturality_mod_p_commutes():
    # reduce_mod_p(F) computed after construction equals the reduction of each
    # piece; multiplication check on scalar series.
    m = lubin_tate_module(3, 1, N=5, D=6)
    two = m.scalar_series(("int", 2))
    four = m.scalar_series(("int", 4))
    comp = m.formal_scalar(("int", 2), two)
    assert comp == four
    assert comp.reduce_mod_p() == four.reduce_mod_p()


def test_parameter_guards():
    with pytest.raises(ParameterError):
        lubin_tate_module(2, 1, D=2)
    with pytest.raises(ParameterError):
        lubin_tate_module(2, 0)


def test_scalar_values_are_built_once_per_key():
    m = lubin_tate_module(5, 2)
    assert (m.scalar_coefficient(("teich", 2))
            == witt_ring(5, 1, m.N).teichmuller(2))
    assert m.scalar_coefficient(("teich", 2)) is m.scalar_coefficient(("teich", 2))
    assert m.scalar_coefficient(("int", -1)) == witt_ring(5, 1, m.N).from_int(-1)


def invert_series_every_degree(lam, x_var="X"):
    """Oracle: the inversion loop that recomputes lam(exp) at every degree,
    whether or not the previous degree changed exp."""
    ring = lam.ring
    xi = ring._var_index[x_var]
    exp = ring.var(x_var)
    for m in range(2, ring.degree):
        comp = lam.substitute({x_var: exp})
        em = TruncatedSeries(ring, {e[:xi] + (0,) + e[xi + 1:]: c
                                    for e, c in comp.terms.items() if e[xi] == m})
        if em.is_zero():
            continue
        exp = exp - em * ring.monomial(tuple(m if i == xi else 0 for i in range(len(ring.vars))),
                                       ring.domain.one())
    return exp


@pytest.mark.parametrize("builder,q,n", [(lubin_tate_module, 2, 1), (lubin_tate_module, 3, 1),
                                         (lubin_tate_module, 2, 2), (lubin_tate_module, 5, 2),
                                         (universal_module, 2, 2), (universal_module, 3, 2)])
def test_invert_series_matches_the_every_degree_loop(builder, q, n):
    m = builder(q, n)
    assert invert_series(m.log_series) == invert_series_every_degree(m.log_series)
    assert m.exp_series == invert_series_every_degree(m.log_series)


def test_invert_series_substitutes_only_after_a_correction(monkeypatch):
    # at (5, 2) exp = X + d X^25 needs one correction: lam(X) and lam(exp)
    m = lubin_tate_module(5, 2)
    calls = []
    honest = TruncatedSeries.substitute
    monkeypatch.setattr(TruncatedSeries, "substitute",
                        lambda self, *args: calls.append(1) or honest(self, *args))
    invert_series(m.log_series)
    assert len(calls) <= 3


def teichmuller_by_exp_log(module, k):
    """Oracle for q = p, where zeta lies in Z_p: [zeta](X) = exp(zeta log X)
    over the p-adics, zeta taken at the working precision, then to W/p^N."""
    params = module.padic_params
    zeta = witt_ring(module.p, 1, params.n_work).teichmuller(k)
    padic = module.exp_series.substitute(
        {"X": module.log_series.scale(params.from_int(zeta))})
    return to_witt_series(padic, module.F.ring.domain).map_vars(module.x_ring)


@pytest.mark.parametrize("builder,q,n", [(lubin_tate_module, 3, 2), (lubin_tate_module, 5, 2),
                                         (lubin_tate_module, 3, 3), (universal_module, 3, 2)])
def test_teichmuller_scalars_match_exp_of_zeta_log(builder, q, n):
    # zeta = 1 is [1], so the keys start at 2 and need q >= 3 to be any
    m = builder(q, n)
    keys = range(2, q)
    assert keys
    for k in keys:
        zeta_x = m.scalar_series(("teich", k))
        assert len(zeta_x.terms) == 1
        assert zeta_x == teichmuller_by_exp_log(m, k)


@pytest.mark.parametrize("q,n", [(4, 1), (8, 1), (4, 2)])
def test_teichmuller_scalars_are_endomorphisms_of_F(q, n):
    # for f > 1, zeta lies outside Z_p, so there is no p-adic exp(zeta log)
    # to compare with; zeta X must instead commute with F, over W(F_q)/p^N:
    # F(zeta X, zeta Y) = zeta F(X, Y)
    m = lubin_tate_module(q, n)
    witt, ring = m.F.ring.domain, m.F.ring

    def commutes(zeta):
        image = m.F.substitute({"X": ring.var("X", zeta), "Y": ring.var("Y", zeta)})
        return image == m.F.scale(zeta)

    for k in range(2, q):
        zeta = m.scalar_coefficient(("teich", k))
        assert m.scalar_series(("teich", k)) == m.x_ring.var("X", zeta)
        assert commutes(zeta)
        # zeta + p has the same residue but is no root of unity
        assert not commutes(witt.add(zeta, witt.from_int(m.p)))


@pytest.mark.parametrize("builder,q,n", [(lubin_tate_module, 4, 1), (lubin_tate_module, 8, 1),
                                         (lubin_tate_module, 5, 2), (universal_module, 3, 2)])
def test_module_build_makes_no_witt_element(monkeypatch, builder, q, n):
    # the logarithm, exp, F and [p] are built over Q_p and embedded into
    # W(F_q)/p^N by from_int: no Teichmuller lift is made on the way
    made = []
    honest = WittRing.teichmuller
    monkeypatch.setattr(WittRing, "teichmuller",
                        lambda self, a: made.append(a) or honest(self, a))
    m = builder(q, n)
    assert made == []
    # a Teichmuller scalar is the Witt ring's lift, which the count does see
    m.scalar_series(("teich", 2))
    assert made == [2]


def test_teichmuller_scalar_raises_when_it_does_not_commute_with_p():
    m = lubin_tate_module(3, 2)
    pi = m.scalar_series(("int", 3))
    # X^2 breaks [p](zeta X) = zeta [p](X) for zeta = -1
    m._scalars[("int", 3)] = pi + m.x_ring.var("X") ** 2
    with pytest.raises(VerificationError, match="zeta"):
        m.scalar_series(("teich", 2))
