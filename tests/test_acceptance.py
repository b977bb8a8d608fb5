"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every assertion is exact (exact arithmetic end to end); the only
tolerances are the stated wall-clock budgets.
"""

import random
import time
from math import comb

import pytest
from dl_oracles import (
    action_invariance_check,
    base_points,
    dl_points_by_enumeration,
    line_fibers,
)
from cyclo_oracles import Cyclo
from formal_oracles import verify_module_axioms
from gl_oracles import (
    dl_correspondence,
    induce_by_coordinates,
    inner,
    is_generic_by_norm_kernels,
    product_is,
    table_values,
)

from ltdl.cli import main as cli_main
from ltdl.depth0 import (
    blowup_chart,
    deformation_factors,
    iterated_chart,
    special_fiber_components,
    un_special_fiber,
)
from ltdl.dl_variety import (
    dl_equation,
    dl_points,
    line_census,
    per_zeta_counts,
)
from ltdl.errors import ParameterError
from ltdl.formal_modules import lubin_tate_module
from ltdl.gl_characters import (
    CorrespondenceData,
    GLGroup,
    correspondence_report,
)
from ltdl.series import TruncatedSeries

CASES = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]
_modules = {}
_corr = {}


def module_for(q, n):
    if (q, n) not in _modules:
        _modules[(q, n)] = lubin_tate_module(q, n, N=8)
    return _modules[(q, n)]


def chart_for(q, n):
    m = module_for(q, n)
    return blowup_chart(m, deformation_factors(m))  # raises unless P'_a exactly linear


def corr_for(q, n):
    if (q, n) not in _corr:
        _corr[(q, n)] = CorrespondenceData(GLGroup(q, n))
    return _corr[(q, n)]


def report_line(num, ok, text):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_formal_module_suite():
    started = time.monotonic()
    for (q, n) in CASES:
        m = module_for(q, n)
        checks = {c["name"]: c["status"] for c in verify_module_axioms(m)}
        for name in ("symmetry", "associativity", "scalar_hom_mul",
                     "scalar_hom_add", "height", "linear_part"):
            assert checks[name] == "pass", (q, n, name)
        # height law spelled out: reduce_mod_p([p]) = X^{q^n} exactly
        red = m.scalar_series(("int", m.p)).reduce_mod_p()
        assert red == red.ring.monomial((q ** n,), red.ring.domain.one())
        # every stored coefficient is a full-precision Witt value, the
        # embedding of its integer mod p^(8 + J) reduced mod p^8
        for series in [m.F] + list(m.scalar_table().values()):
            dom = series.ring.domain
            assert dom.N == 8
            for c in series.terms.values():
                assert all(0 <= x < dom.pN for x in dom.coords(c))
        assert m.F.terms[(1, 0)] == m.F.ring.domain.one()
    elapsed = time.monotonic() - started
    report_line(1, elapsed < 60, f"axioms for {CASES} in {elapsed:.1f}s (< 60s)")


def test_criterion_02_multiplicative_closed_form():
    m = lubin_tate_module(2, 1, N=8, D=4)
    R = m.F.ring
    x, y = R.var("X"), R.var("Y")
    ok_F = m.F == x + y + x * y
    three = m.scalar_series(("int", 3))
    oracle = {(k,): m.x_ring.domain.from_int(comb(3, k)) for k in (1, 2, 3)}
    ok_3 = three == TruncatedSeries(m.x_ring, oracle)
    report_line(2, ok_F and ok_3, "F = X+Y+XY and [3] = 3X+3X^2+X^3 exactly")


def test_criterion_03_component_census():
    expected = {(2, 2): 3, (3, 2): 4, (2, 3): 7}
    ok = True
    notes = []
    for (q, n), comps in expected.items():
        m = module_for(q, n)
        rep = special_fiber_components(m, deformation_factors(m))
        good = (rep["components"] == comps and rep["multiplicity"] == q - 1
                and rep["all_scalar_checks_pass"])
        ok = ok and good
        notes.append(f"({q},{n}):{rep['components']}x(q-1={q - 1})")
    report_line(3, ok, "component census " + ", ".join(notes))


def test_criterion_04_chart_multiplicities():
    expected = {(2, 2): 3, (3, 2): 8, (2, 3): 7}
    ok = True
    for (q, n), val in expected.items():
        ok = ok and chart_for(q, n).valuation == val
    seq = iterated_chart(module_for(2, 3), [3, 2], chart_for(2, 3))
    ok = ok and seq == [7, 3]
    report_line(4, ok, f"valuations 3/8/7 and iterated (2,3)@(3,2) -> {seq}")


def test_criterion_05_un_equals_dl():
    ok = True
    for (q, n) in [(2, 2), (3, 2), (2, 3)]:
        rep = un_special_fiber(module_for(q, n), chart_for(q, n))
        ok = ok and rep["chart_equation"] == dl_equation(q, n)
    report_line(5, ok, "chart residual reduces to the DL equation bit-exactly")


def test_criterion_06_dl_enumeration():
    started = time.monotonic()
    lines = line_census(2, 2, 2)[2]
    points = dl_points(2, 2, 2, lines)
    ok = points == dl_points_by_enumeration(2, 2, 2) and len(points) == 6
    ok = ok and len(dl_points_by_enumeration(2, 2, 1)) == 0
    fibers = line_fibers(2, 2, 2, points)
    ok = ok and set(fibers) == set(lines) and [len(v) for v in fibers.values()] == [3, 3]
    mats = GLGroup(2, 2).elements
    triples = action_invariance_check(2, 2, 2, mats)
    ok = ok and triples == 6 * len(mats) * 3  # every point, all 18 (g, zeta) pairs
    for m in (1, 2):
        residues = line_census(2, 2, m)[1]
        ok = ok and sum(per_zeta_counts(2, 2, residues)) == 3 * base_points(2, 2, m)
    elapsed = time.monotonic() - started
    report_line(6, ok and elapsed < 10,
                f"|DL(F_4)| = 6, fibers 3x2, 18 action pairs, twisted sums "
                f"({elapsed:.1f}s < 10s)")


def test_criterion_07_character_tables():
    started = time.monotonic()
    expected = {(2, 2): (1, 1), (3, 2): (3, 2), (2, 3): (2, 3)}
    ok = True
    notes = []
    for (q, n), (cusp_count, cusp_deg) in expected.items():
        data = corr_for(q, n)
        table = data.table
        g = data.group
        ok = ok and sum(d * d for d in table.degrees) == g.order
        values = table_values(table)
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                ok = ok and inner(g, a, b) == (1 if i == j else 0)
        cusp = [table.degrees[i] for i in data.cuspidal_indices]
        ok = ok and cusp == [cusp_deg] * cusp_count
        notes.append(f"({q},{n}): {cusp_count} cuspidals of degree {cusp_deg}")
    elapsed = time.monotonic() - started
    report_line(7, ok and elapsed < 300,
                "; ".join(notes) + f" ({elapsed:.1f}s < 300s)")


def test_criterion_08_correspondence():
    ok = True
    for (q, n) in [(2, 2), (3, 2), (2, 3)]:
        data = corr_for(q, n)
        rep = correspondence_report(q, n, data)
        ok = ok and rep["all_pass"]
        ok = ok and all(len(o["thetas"]) == n for o in rep["orbits"])
        # the identity-class reading of pi * St = Ind theta, and distinct
        # orbits on orthogonal rows, each computed here from the table
        cusp_deg = 1
        for i in range(1, n):
            cusp_deg *= q ** i - 1
        values = table_values(data.table)
        for a in rep["orbits"]:
            ind = induce_by_coordinates(data.group, data.torus, a["thetas"][0])
            ok = ok and data.table.degrees[a["pi"]] == cusp_deg
            degree = Cyclo(data.group.exponent, ind[data.group.identity_class])
            ok = ok and degree == cusp_deg * q ** (n * (n - 1) // 2)
            chi = values[a["pi"]]
            ok = ok and all(inner(data.group, chi, values[b["pi"]])
                            == (1 if a is b else 0)
                            for b in rep["orbits"])
    report_line(8, ok, "unique cuspidal pi with pi*St = Ind theta; orbit bijection; "
                       "inner products; degree identity")


def test_criterion_09_negative_controls():
    import copy

    m = module_for(2, 2)
    bad = copy.copy(m)
    ring = m.F.ring
    bump = ring.monomial((2, 1) + (0,) * (len(ring.vars) - 2), ring.domain.one())
    bad.F = m.F + bump + bump.substitute({"X": ring.var("Y"), "Y": ring.var("X")})
    tampered = {c["name"]: c["status"] for c in verify_module_axioms(bad)}
    ok = tampered["associativity"] == "fail"

    data = corr_for(2, 2)
    with pytest.raises(ParameterError):
        dl_correspondence(data, 0)

    data32 = corr_for(3, 2)
    rng = random.Random(2024)
    non_cusp = [i for i, f in enumerate(data32.table.cuspidal_flags) if not f]
    idx = rng.choice(non_cusp)
    chi = table_values(data32.table)[idx]
    for j in range(8):
        if is_generic_by_norm_kernels(3, 2, j):
            ind = induce_by_coordinates(data32.group, data32.torus, j)
            ok = ok and not product_is(data32.group, chi, data32.st, ind)
    report_line(9, ok, "tampered F fails associativity; theta_0 rejected; "
                       "non-cuspidal never satisfies the characterization")


def test_criterion_10_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(["verify-all", "--q", "2", "--n", "2", "--out", str(a)])
    code_b = cli_main(["verify-all", "--q", "2", "--n", "2", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    report_line(10, code_a == 0 and code_b == 0 and identical,
                "verify-all twice: byte-identical reports, exit 0")
