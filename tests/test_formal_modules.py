import copy
import random
from fractions import Fraction
from math import comb

import pytest
from formal_oracles import (
    formal_scalar,
    fraction_log,
    fraction_module,
    reduce_mod,
    verify_module_axioms,
)
from test_cli import VERIFY_ALL_CONFIGS

from ltdl import formal_modules
from ltdl.errors import ParameterError, VerificationError
from ltdl.formal_modules import lubin_tate_module
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
    # the oracle's logarithm for f = 2X + X^2 is log(1+X) = sum (-1)^(m+1) X^m / m
    assert fraction_log(2, 2, 8) == {(m,): Fraction((-1) ** (m + 1), m) for m in range(1, 8)}


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


@pytest.mark.parametrize("q,n", [(4, 1), (8, 1), (3, 2), (4, 2), (5, 2), (3, 3), (8, 2),
                                 (2, 4)])
def test_every_built_module_passes_the_axioms(q, n):
    # the build's checks imply the nine axioms (Lubin-Tate 1965), so no
    # report restates them; the oracle holds each module that this file
    # builds, and those at (8, 2) and (2, 4), to them
    report = verify_module_axioms(lubin_tate_module(q, n))
    assert [c["name"] for c in report] == [
        "linear_part", "symmetry", "unit_section", "associativity", "scalar_one",
        "scalar_linear_terms", "scalar_hom_mul", "scalar_hom_add", "height"]
    assert all(c["status"] == "pass" for c in report), report


def test_axioms_fail_for_tampered_module():
    m = lubin_tate_module(2, 2)
    bad = copy.copy(m)
    ring = m.F.ring
    bump = ring.monomial((2, 1), ring.domain.one())
    bad.F = m.F + bump + bump.substitute({"X": ring.var("Y"), "Y": ring.var("X")})
    report = {c["name"]: c["status"] for c in verify_module_axioms(bad)}
    assert report["associativity"] == "fail"
    assert report["symmetry"] == "pass"  # the tamper was symmetric on purpose


@pytest.mark.parametrize("builder", [lubin_tate_module])
def test_scalar_one_fails_when_exp_does_not_invert_log(builder):
    # [1] comes from the recursion like every other integer scalar, so a
    # [1] doctored to X + X^2 fails scalar_one
    m = builder(2, 2)
    assert m.scalar_series(("int", 1)) == m.x_ring.var("X")
    bad = builder(2, 2)
    bad._scalars[("int", 1)] = bad.x_ring.var("X") + bad.x_ring.var("X") ** 2
    report = {c["name"]: c["status"] for c in verify_module_axioms(bad)}
    assert report["scalar_one"] == "fail"
    assert report["linear_part"] == report["associativity"] == "pass"


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
    comp = formal_scalar(m, ("int", 2), two)
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


def teichmuller_by_exp_log(module, k):
    """Oracle for q = p, where zeta lies in Z_p: [zeta](X) = exp(zeta log X)
    over Q, with zeta the integer lift mod p^(N + J), which fixes [zeta]
    mod p^N by the precision argument of the recursion."""
    zeta = witt_ring(module.p, 1, module.N + module.rounds).teichmuller(k)
    _, scalars = fraction_module(module.q, module.n, module.D, scalars=(zeta,))
    return reduce_mod(scalars[zeta], module.x_ring)


@pytest.mark.parametrize("builder,q,n", [(lubin_tate_module, 3, 2), (lubin_tate_module, 5, 2),
                                         (lubin_tate_module, 3, 3)])
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
    # for f > 1, zeta lies outside Z_p, so there is no exp(zeta log) over
    # an integer lift to compare with; zeta X must instead commute with F, over W(F_q)/p^N:
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
                                         (lubin_tate_module, 5, 2)])
def test_module_build_makes_no_witt_element(monkeypatch, builder, q, n):
    # F and [p] are solved over Z/p^M and embedded into W(F_q)/p^N by
    # from_int: no Teichmuller lift is made on the way
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


# -- the recursion against the module over Q -----------------------------------------

ORACLE_CONFIGS = [(q, n, None) for q, n in VERIFY_ALL_CONFIGS if q ** n <= 64] + [
    (2, 1, 20), (2, 2, 40), (3, 1, 30), (2, 3, 40)]


def module_series(module):
    """F, [-1] and [2] of a built module."""
    return [module.F, module.scalar_series(("int", -1)), module.scalar_series(("int", 2))]


@pytest.mark.parametrize("q,n,D", ORACLE_CONFIGS)
def test_the_recursion_matches_exp_and_log_over_Q(q, n, D):
    # F = exp(log X + log Y) and [k] = exp(k log X) over Q, reduced mod p^N
    D = formal_modules.default_degree(q, n) if D is None else D
    F, scalars = fraction_module(q, n, D)
    for N in (8, 2):
        m = lubin_tate_module(q, n, N=N, D=D)
        assert module_series(m) == [reduce_mod(F, m.F.ring), reduce_mod(scalars[-1], m.x_ring),
                                    reduce_mod(scalars[2], m.x_ring)]


@pytest.mark.parametrize("q,n,D", ORACLE_CONFIGS)
def test_three_more_rounds_of_precision_change_nothing_mod_p_to_the_N(q, n, D, monkeypatch):
    # the build works mod p^(N + J); with J + 3 in place of J every series
    # agrees with the build's mod p^N
    for N in (8, 2):
        built = module_series(lubin_tate_module(q, n, N=N, D=D))
        honest = formal_modules.correction_rounds
        monkeypatch.setattr(formal_modules, "correction_rounds",
                            lambda *args: honest(*args) + 3)
        assert module_series(lubin_tate_module(q, n, N=N, D=D)) == built
        monkeypatch.undo()


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (2, 2), (5, 2), (2, 3), (4, 1)])
def test_degree_Q_part_of_F_is_its_first_correction(q, n):
    # the first residual is (X+Y)^Q - X^Q - Y^Q, so F's degree-Q part is
    # ((X+Y)^Q - X^Q - Y^Q) / (p^Q - p) mod p^N
    m = lubin_tate_module(q, n)
    p, Q = m.p, q ** n
    part = {(i, Q - i): Fraction(comb(Q, i), p ** Q - p) for i in range(1, Q)}
    got = TruncatedSeries(m.F.ring, {e: c for e, c in m.F.terms.items() if sum(e) == Q})
    assert got == reduce_mod(part, m.F.ring)
