import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from dl_oracles import orbit_check

from ltdl import cli, depth0, dl_variety, formal_modules, gl_characters, series
from ltdl.cli import RunConfig, build_parser, main
from ltdl.errors import BudgetError, ParameterError, VerificationError
from ltdl.ffield import field_for_order
from ltdl.gl_characters import MAX_GROUP_ORDER
from ltdl.linalg import gl_generators, group_order


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_verify_all_22(tmp_path):
    code, report = run_cli(tmp_path, "verify-all", "--q", "2", "--n", "2")
    assert code == 0
    assert report["schema_version"] == 1
    assert report["checks"] and all(c["status"] == "pass" for c in report["checks"])
    assert report["timing_seconds"] is None


def test_dl_count_report(tmp_path):
    code, report = run_cli(tmp_path, "dl", "count", "--q", "2", "--n", "2", "--m", "2")
    assert code == 0
    assert report["results"]["count"] == 6
    assert report["results"]["base_count"] == 2


def test_raising_suite_keeps_the_other_suites(tmp_path, monkeypatch):
    def broken_table(group):
        raise VerificationError("doctored Dixon failure")

    monkeypatch.setattr(gl_characters, "dixon_table", broken_table)
    code, report = run_cli(tmp_path, "verify-all", "--q", "2", "--n", "2")
    assert code == 1
    names = [c["name"] for c in report["checks"]]
    for suite in ("depth0", "dl"):
        assert any(name.startswith(suite + ".") for name in names), suite
    assert "depth0.un_equals_dl" in names and "dl.action_invariance" in names
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed == [{"name": "chars.error", "status": "fail",
                       "details": "doctored Dixon failure"}]


def miscounted_census(monkeypatch):
    # over F_4, one of the two lines with residue 0 counted with residue 1
    honest = dl_variety.line_census

    def miscounted(q, n, m):
        base, residues, lines = honest(q, n, m)
        if m == 2:
            residues = [residues[0] - 1, residues[1] + 1] + residues[2:]
            lines = lines[:-1]
        return base, residues, lines

    monkeypatch.setattr(dl_variety, "line_census", miscounted)


def dropped_census_line(monkeypatch):
    # over F_4, the last of the two lines with residue 0 left out of the walk
    honest = dl_variety.line_census

    def dropped(q, n, m):
        base, residues, lines = honest(q, n, m)
        if m == 2:
            return base - 1, [residues[0] - 1] + residues[1:], lines[:-1]
        return base, residues, lines

    monkeypatch.setattr(dl_variety, "line_census", dropped)


@pytest.mark.parametrize("doctor,failed", [
    (miscounted_census, {"dl.action_invariance": "count 3, |GL_n(F_q)| 6"}),
    (dropped_census_line, {"dl.base_points_m2": "count 3, base 1",
                           "dl.action_invariance": "count 3, |GL_n(F_q)| 6"}),
])
def test_failing_dl_check_is_reported_under_its_name(tmp_path, monkeypatch, doctor, failed):
    doctor(monkeypatch)
    code, report = run_cli(tmp_path, "verify-all", "--q", "2", "--n", "2")
    assert code == 1
    assert [c["name"] for c in report["checks"] if c["name"].startswith("dl.")] == [
        "dl.base_points_m2", "dl.action_invariance"]
    assert {c["name"]: c["details"] for c in report["checks"] if c["status"] == "fail"} == failed


def affine_law_off_on_blocks_of(size):
    # the law [1~] + sum [a_i~] V_i + [a_k~] read for the factors of the
    # blocks of `size` only, so only the step on those blocks raises
    def doctor(monkeypatch):
        honest = depth0._affine_law

        def law(module, ring, a, affine):
            expect, form = honest(module, ring, a, affine)
            return (expect + ring.one() if len(a) == size else expect), form

        monkeypatch.setattr(depth0, "_affine_law", law)
    return doctor


def P_vanishing_one_order_too_high(monkeypatch):
    # the product of the P_a times X1: P vanishes to order q^n
    honest = depth0.product_over
    monkeypatch.setattr(depth0, "product_over",
                        lambda factors: honest(factors) * factors[0].ring.var("X1"))


def linear_part_removed(monkeypatch):
    # P_(0,1) = X2 times X1: its chart image V1 Xn^2 vanishes to order 2 in Xn
    honest = cli.deformation_factors

    def doctored(module):
        factors = honest(module)
        factors[0, 1] = factors[0, 1] * factors[0, 1].ring.var("X1")
        return factors

    monkeypatch.setattr(cli, "deformation_factors", doctored)


def DL_equation_off_by_one(monkeypatch):
    # the DL equation with its constant term moved: the reduced chart
    # residual is no longer it
    honest = dl_variety.dl_equation

    def shifted(q, n):
        equation = honest(q, n)
        return equation - equation.ring.one()

    monkeypatch.setattr(dl_variety, "dl_equation", shifted)


def move_a_borel_element(group, P, U):
    # one element of the Borel subgroup moved from the central class -I to
    # the largest class: |P_(1,1)| is unchanged, but 1_P^G is no longer integral
    P[next(c for c, size in enumerate(group.class_sizes)
           if size == 1 and c != group.identity_class)] -= 1
    P[group.class_sizes.index(max(group.class_sizes))] += 1


def borel_element_moved(monkeypatch):
    group = gl_characters.GLGroup(3, 2)
    move_a_borel_element(group, *group.parabolics[1, 1])
    monkeypatch.setattr(cli, "GLGroup", lambda q, n: group)


def common_eigenvector_dropped(monkeypatch):
    # the split loses one common eigenvector, so one character is missing
    honest = gl_characters._split_common_eigenspaces
    monkeypatch.setattr(gl_characters, "_split_common_eigenspaces",
                        lambda *args: honest(*args)[:-1])


NOT_AFFINE = "chart factor for a={} is not exactly affine-linear mod {}"
NOT_DL = "the chart residual mod (p, Xn) is not the DL equation"
NOT_P = "P does not vanish to order exactly q^n - 1"


@pytest.mark.parametrize("argv,doctor,failed,dropped", [
    (["depth0", "equation", "--q", "2", "--n", "2"], P_vanishing_one_order_too_high,
     {"depth0.equation_lowest_degree": NOT_P}, {"P"}),
    # un_special_fiber reads the chart, so it fails naming the chart's entry
    (["depth0", "chart", "--q", "2", "--n", "2"], affine_law_off_on_blocks_of(2),
     {"depth0.chart_multiplicity": NOT_AFFINE.format("(0, 1)", "Xn"),
      "depth0.un_equals_dl": "not run: depth0.chart_multiplicity failed"},
     {"linear_parts", "n", "pivot", "q", "valuation", "valuations"}),
    (["depth0", "chart", "--q", "2", "--n", "3", "--depth-sequence", "3,2,1"],
     affine_law_off_on_blocks_of(1),
     {"depth0.iterated_multiplicities": NOT_AFFINE.format("(1,)", "U1_1, Xn")},
     {"iterated_valuations"}),
    (["depth0", "chart", "--q", "2", "--n", "2"], DL_equation_off_by_one,
     {"depth0.un_equals_dl": NOT_DL}, set()),
    (["chars", "steinberg", "--q", "3", "--n", "2"], borel_element_moved,
     {"chars.steinberg_norm_one": "1_P^G for P_(1, 1) is not integral at class 4"},
     {"steinberg"}),
    (["chars", "table", "--q", "2", "--n", "2"], common_eigenvector_dropped,
     {"chars.degree_squares_sum": "table is not square: 2 irreducibles for 3 classes"},
     {"table"}),
    (["verify-all", "--q", "2", "--n", "2"], linear_part_removed,
     {"depth0.chart_multiplicity": "factor a=(0, 1) does not vanish to order 1 in Xn",
      "depth0.un_equals_dl": "not run: depth0.chart_multiplicity failed"}, set()),
    (["verify-all", "--q", "2", "--n", "2"], affine_law_off_on_blocks_of(2),
     {"depth0.chart_multiplicity": NOT_AFFINE.format("(0, 1)", "Xn"),
      "depth0.un_equals_dl": "not run: depth0.chart_multiplicity failed"}, set()),
    (["verify-all", "--q", "2", "--n", "3"], affine_law_off_on_blocks_of(2),
     {"depth0.iterated_multiplicities": NOT_AFFINE.format("(0, 1)", "V2, Xn")}, set()),
    (["verify-all", "--q", "2", "--n", "2"], DL_equation_off_by_one,
     {"depth0.un_equals_dl": NOT_DL}, set()),
], ids=["build_P", "blowup_chart", "iterated_chart_depth_2", "un_special_fiber", "steinberg",
        "dixon_table", "verify_all_factor_order", "verify_all_blowup_chart",
        "verify_all_iterated_chart", "verify_all_un_special_fiber"])
def test_a_raising_identity_fails_its_own_entry(tmp_path, monkeypatch, argv, doctor,
                                                failed, dropped):
    # the raise fails the entry of its call with the library's message; every
    # other entry stays in the report, and so does every result that does
    # not come from the raising call
    code, clean = run_cli(tmp_path, *argv)
    assert code == 0
    doctor(monkeypatch)
    code, report = run_cli(tmp_path, *argv)
    assert code == 1
    assert [c["name"] for c in report["checks"]] == [c["name"] for c in clean["checks"]]
    assert {c["name"]: c["details"] for c in report["checks"] if c["status"] == "fail"} == failed
    assert set(report["results"]) == set(clean["results"]) - dropped


def broken_dixon_table(monkeypatch):
    def broken_table(group):
        raise VerificationError("doctored Dixon failure")
    monkeypatch.setattr(gl_characters, "dixon_table", broken_table)


def generator_dropped(monkeypatch):
    honest = gl_characters.gl_generators
    monkeypatch.setattr(gl_characters, "gl_generators", lambda field, n: honest(field, n)[:2])


@pytest.mark.parametrize("subcommand,doctor,details", [
    ("correspondence", broken_dixon_table, "doctored Dixon failure"),
    ("correspondence", generator_dropped, "the 2 generators generate "),
    ("table", generator_dropped, "the 2 generators generate "),
    ("steinberg", generator_dropped, "the 2 generators generate "),
], ids=["dixon_table", "group", "group_in_table", "group_in_steinberg"])
def test_a_raising_correspondence_build_fails_its_own_entry(tmp_path, monkeypatch, subcommand,
                                                            doctor, details):
    # the group, or in `chars correspondence` the torus, the table or St,
    # raising in a chars command fails chars.error with the library's
    # message, and the report keeps q and n; a build that passes has no
    # entry of its own
    code, clean = run_cli(tmp_path, "chars", subcommand, "--q", "3", "--n", "2")
    assert code == 0
    assert "chars.error" not in [c["name"] for c in clean["checks"]]
    doctor(monkeypatch)
    code, report = run_cli(tmp_path, "chars", subcommand, "--q", "3", "--n", "2")
    assert code == 1
    assert report["results"] == {"q": 3, "n": 2, **(
        {"degree": clean["results"]["degree"]} if subcommand == "steinberg" else {})}
    [check] = report["checks"]
    assert (check["name"], check["status"]) == ("chars.error", "fail")
    assert check["details"].startswith(details)


@pytest.mark.parametrize("argv,doctor,built", [
    (["verify-all", "--q", "2", "--n", "2"], linear_part_removed, {"blowup_chart": 1}),
    (["verify-all", "--q", "2", "--n", "3"], affine_law_off_on_blocks_of(3),
     {"blowup_chart": 1}),
    (["depth0", "chart", "--q", "2", "--n", "3", "--depth-sequence", "3,2"],
     affine_law_off_on_blocks_of(3), {"blowup_chart": 1}),
], ids=["verify_all_factor", "verify_all_chart", "depth0_chart"])
def test_a_failed_prerequisite_is_not_rebuilt(tmp_path, monkeypatch, argv, doctor, built):
    # after the chart failed, the entries that need it fail naming it, the
    # chart is not built again, and no command here builds P
    doctor(monkeypatch)
    calls = Counter()
    for name in ("build_P", "blowup_chart"):
        def counted(*args, honest=getattr(depth0, name), name=name, **kwargs):
            calls[name] += 1
            return honest(*args, **kwargs)
        monkeypatch.setattr(depth0, name, counted)
        monkeypatch.setattr(cli, name, counted)
    code, report = run_cli(tmp_path, *argv)
    assert code == 1
    assert calls == built
    assert [c for c in report["checks"] if c["name"].endswith("error")] == []


@pytest.mark.parametrize("argv,entry,details", [
    (["depth0", "equation"], "depth0.component_census", "2 components of multiplicity 1"),
    (["verify-all"], "depth0.component_census", "2 components of multiplicity 1"),
])
def test_a_census_with_a_class_missing_fails(tmp_path, monkeypatch, argv, entry, details):
    # the last class representative (1, 1) of F_2^2 - 0 left out of the
    # factors: 2 classes, not 3; P and the chart residual lose a factor too,
    # so P's lowest degree, or the residual = DL comparison, fails as well
    also = {"depth0": ("depth0.equation_lowest_degree", NOT_P),
            "verify-all": ("depth0.un_equals_dl", NOT_DL)}[argv[0]]
    honest = cli.deformation_factors

    def dropped(module):
        factors = honest(module)
        factors.popitem()
        return factors

    monkeypatch.setattr(cli, "deformation_factors", dropped)
    code, report = run_cli(tmp_path, *argv, "--q", "2", "--n", "2")
    assert code == 1
    assert {c["name"]: c["details"] for c in report["checks"] if c["status"] == "fail"} == {
        entry: details, also[0]: also[1]}


def extra_term_off_the_support(monkeypatch):
    # X1 X2, of degree 2 != 1 mod q - 1 = 2, added to P_(0,1) at (3, 2): it
    # dies mod X_n in the chart and sits above P's lowest degree, so only
    # the census's degree-support test sees it
    honest = cli.deformation_factors

    def doctored(module):
        factors = honest(module)
        ring = factors[0, 1].ring
        factors[0, 1] = factors[0, 1] + ring.var("X1") * ring.var("X2")
        return factors

    monkeypatch.setattr(cli, "deformation_factors", doctored)


@pytest.mark.parametrize("argv", [["depth0", "equation"], ["verify-all"]], ids=" ".join)
def test_a_class_factor_off_the_degree_support_fails_the_census_alone(tmp_path, monkeypatch,
                                                                      argv):
    extra_term_off_the_support(monkeypatch)
    code, report = run_cli(tmp_path, *argv, "--q", "3", "--n", "2")
    assert code == 1
    assert [c for c in report["checks"] if c["status"] == "fail"] == [
        {"name": "depth0.component_census", "status": "fail",
         "details": "4 components of multiplicity 2"}]


def test_a_generic_orbit_left_out_fails_generic_count(tmp_path, monkeypatch):
    # frobenius_orbits doctored to drop the orbit (1, 3) at (3, 2); the
    # table and the torus build as before
    code, clean = run_cli(tmp_path, "verify-all", "--q", "3", "--n", "2")
    assert code == 0
    honest = gl_characters.frobenius_orbits
    monkeypatch.setattr(gl_characters, "frobenius_orbits",
                        lambda q, n: [o for o in honest(q, n) if o != (1, 3)])
    code, report = run_cli(tmp_path, "verify-all", "--q", "3", "--n", "2")
    assert code == 1
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed == [
        {"name": "chars.generic_count", "status": "fail",
         "details": "4 generic characters (Moebius: 6)"},
        {"name": "chars.bijection_onto_cuspidals", "status": "fail",
         "details": "images [2, 4], cuspidals [2, 3, 4]"}]
    assert [c for c in report["checks"] if c not in failed] == [
        c for c in clean["checks"]
        if c["name"] not in ("chars.generic_count", "chars.bijection_onto_cuspidals")]


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_verify_all_induces_once_per_frobenius_orbit(tmp_path, monkeypatch, q, n):
    honest, calls = gl_characters.induce_from_torus, []

    def counted(group, torus, j, ell, w):
        calls.append(j)
        return honest(group, torus, j, ell, w)

    monkeypatch.setattr(gl_characters, "induce_from_torus", counted)
    code, _ = run_cli(tmp_path, "verify-all", "--q", str(q), "--n", str(n))
    assert code == 0
    assert calls == [orbit[0] for orbit in gl_characters.frobenius_orbits(q, n)]


def test_dl_fibers_is_no_command(capsys):
    # its fiber checks could not fail on census points, and verify-all's
    # dl.action_invariance implies the fibers over the lines
    with pytest.raises(SystemExit) as exc:
        main(["dl", "fibers", "--q", "2", "--n", "2", "--m", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'fibers'" in capsys.readouterr().err


def verify_all_on_doctored_parabolics(tmp_path, monkeypatch, doctor):
    """verify-all at (3,2) on a group whose histograms of P_(1,1) and
    U_(1,1) `doctor` changes after they passed their size checks; returns
    the exit code and the failing checks."""
    group = gl_characters.GLGroup(3, 2)
    doctor(group, *group.parabolics[1, 1])
    monkeypatch.setattr(cli, "GLGroup", lambda q, n: group)
    code, report = run_cli(tmp_path, "verify-all", "--q", "3", "--n", "2")
    return code, [c for c in report["checks"] if c["status"] == "fail"]


def test_a_radical_histogram_one_short_fails_verify_all(tmp_path, monkeypatch):
    # U_(1,1) loses one of its two transvections: each cuspidal sum becomes
    # pi(1) + pi(u) = 1, so no character is cuspidal and pi * St = Ind theta
    # has no cuspidal solution; the chars suite names the first such theta,
    # and no check reads as a pass over the orbits left unmatched
    def drop(group, P, U):
        U[next(c for c, k in enumerate(U) if k and c != group.identity_class)] -= 1

    code, failed = verify_all_on_doctored_parabolics(tmp_path, monkeypatch, drop)
    assert code == 1
    assert {c["name"]: c["details"] for c in failed} == {
        "chars.orbit_maps_to_single_pi": "no cuspidal solution for theta_1",
        "chars.bijection_onto_cuspidals": "images [], cuspidals []",
    }


def test_a_radical_histogram_with_one_more_identity_fails_verify_all(tmp_path, monkeypatch):
    # U_(1,2) at (2,3) counts the identity twice: each cuspidal's residue
    # sum over it is pi(1) = 3, not 0 mod the table prime, so no character
    # is cuspidal; these two entries are every one that fails
    group = gl_characters.GLGroup(2, 3)
    group.parabolics[1, 2][1][group.identity_class] += 1
    monkeypatch.setattr(cli, "GLGroup", lambda q, n: group)
    code, report = run_cli(tmp_path, "verify-all", "--q", "2", "--n", "3")
    assert code == 1
    assert {c["name"]: c["details"] for c in report["checks"] if c["status"] == "fail"} == {
        "chars.orbit_maps_to_single_pi": "no cuspidal solution for theta_1",
        "chars.bijection_onto_cuspidals": "images [], cuspidals []",
    }


def test_a_parabolic_histogram_with_a_moved_element_fails_verify_all(tmp_path, monkeypatch):
    code, failed = verify_all_on_doctored_parabolics(tmp_path, monkeypatch,
                                                     move_a_borel_element)
    assert code == 1
    assert failed == [{"name": "chars.error", "status": "fail",
                       "details": "1_P^G for P_(1, 1) is not integral at class 4"}]


@pytest.mark.parametrize("target,error,argv,suite", [
    pytest.param("deformation_factors", BudgetError, ["verify-all"], "depth0",
                 id="deformation_factors-BudgetError"),
    pytest.param("rational_level", BudgetError, ["verify-all"], "dl",
                 id="rational_level-BudgetError"),
    pytest.param("CorrespondenceData", ParameterError, ["verify-all"], "chars",
                 id="CorrespondenceData-ParameterError"),
    # a module build that raises in a command of one suite is that suite's error
    *(pytest.param("lubin_tate_module", error, argv, suite, id=f"module-{'-'.join(argv)}")
      for error, argv, suite in [(ParameterError, ["formal-group"], "formal_module"),
                                 (BudgetError, ["depth0", "equation"], "depth0"),
                                 (ParameterError, ["depth0", "chart"], "depth0"),
                                 (BudgetError, ["depth0", "strata"], "depth0")]),
])
def test_budget_and_parameter_errors_become_suite_errors(tmp_path, monkeypatch, target, error,
                                                         argv, suite):
    def escaping(*args, **kwargs):
        raise error("doctored escape")

    monkeypatch.setattr(cli, target, escaping)
    code, report = run_cli(tmp_path, *argv, "--q", "2", "--n", "2")
    assert code == 1
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed == [{"name": f"{suite}.error", "status": "fail",
                       "details": "doctored escape"}]
    names = [c["name"] for c in report["checks"]]
    if argv != ["verify-all"]:
        # the report is complete: the suite's error is its one entry
        assert names == [f"{suite}.error"] and report["config"]["q"] == 2
        return
    # a passing module build adds no record of its own
    for other in {"depth0", "dl", "chars"} - {suite}:
        assert any(name.startswith(other + ".") for name in names), other


@pytest.mark.parametrize("q,n,classes", [(2, 2, 3), (5, 2, 6), (2, 3, 7)])
def test_verify_all_builds_each_series_once(tmp_path, monkeypatch, q, n, classes):
    # each class factor P_a, the chart and the group once; P, the product
    # of the P_a, never: the chart's residual is the product of its
    # quotients
    built = Counter()

    def counted(name, fn, key=lambda *args, **kwargs: None):
        def wrapper(*args, **kwargs):
            built[name, key(*args, **kwargs)] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(depth0, "build_P_a",
                        counted("P_a", depth0.build_P_a, lambda module, a, ring=None: a))
    monkeypatch.setattr(gl_characters, "generated_group",
                        counted("closure", gl_characters.generated_group))
    for name in ("build_P", "blowup_chart"):
        wrapper = counted(name, getattr(depth0, name))
        monkeypatch.setattr(depth0, name, wrapper)
        monkeypatch.setattr(cli, name, wrapper)
    code, report = run_cli(tmp_path, "verify-all", "--q", str(q), "--n", str(n))
    assert code == 0
    per_class = [count for (name, _), count in built.items() if name == "P_a"]
    assert len(per_class) == classes and set(per_class) == {1}
    assert built["build_P", None] == 0 and built["blowup_chart", None] == 1
    assert built["closure", None] == 1


def test_depth0_strata_builds_each_factor_once(tmp_path, monkeypatch):
    # the strata read each P_a from the run's one factors build, not once
    # per j
    built = Counter()
    honest = depth0.build_P_a

    def counted(module, a, ring=None):
        built[a] += 1
        return honest(module, a, ring)

    monkeypatch.setattr(depth0, "build_P_a", counted)
    code, report = run_cli(tmp_path, "depth0", "strata", "--q", "2", "--n", "3")
    assert code == 0
    assert len(report["results"]["strata"]) == 14
    assert len(built) == 7 and set(built.values()) == {1}


@pytest.mark.parametrize("q,n", [(2, 2), (4, 2)])
def test_verify_all_enumerates_each_variety_once(tmp_path, monkeypatch, q, n):
    # each command walks P^1(F_{q^2}) once: the line census; verify-all's
    # action check reads the census count, and dl count --list reads its
    # points off the census lines
    walks = Counter()
    honest = dl_variety._projective_reps

    def counted(amb):
        walks[amb.m] += 1
        return honest(amb)

    monkeypatch.setattr(dl_variety, "_projective_reps", counted)
    code, report = run_cli(tmp_path, "verify-all", "--q", str(q), "--n", str(n))
    assert code == 0
    names = {c["name"] for c in report["checks"]}
    assert "dl.action_invariance" in names
    assert walks == {2: 1}
    walks.clear()
    code, report = run_cli(tmp_path, "dl", "count", "--list", "--q", str(q), "--n", str(n),
                           "--m", "2")
    assert code == 0
    assert walks == {2: 1}


# sha256 of the sorted-key JSON of each report's results and checks
# (config and version left out), frozen so that a refactor proves its
# reports byte-identical; refrozen when the seven checks that no input
# could fail left the report, again when dl.fibers_m<m>, implied by
# dl.action_invariance, left it, again when depth0.gl_linear_shadow,
# implied by depth0.un_equals_dl, left it, again when the nine
# formal_module.* axioms, implied by the module build, left it, and again
# when depth0.equation_lowest_degree, implied by the chart and
# depth0.un_equals_dl, left it, each report otherwise unchanged
VERIFY_ALL_DIGESTS = {
    (2, 2): "0b8b3eb6ec30272dbaa95ea229293cec2114104b065d2fc447b25373ced8bbec",
    (2, 3): "329cd086a4359a0344a4ec23ea8cf1a805f93bd7ba26e7624ce62c62b9ad5f3a",
    (3, 2): "05622c781929c0f28a30f440c6b9bf3df4b47b64942cc10bb95dcdcbc7003d2a",
    (4, 1): "0b3961c9d23cc4a2bb81911003f350c637d4c23642e23e1349803c96405cb6dc",
    (4, 2): "148cd94ad3fd8262c7578919d175bb34580135f1fb7658d7475bac54290473d0",
    (5, 2): "301ccefb6d8500c0aeae950e9d96332947518cc85296dc65e4da70e1dda7b9ca",
    (8, 1): "a9a40bda9b8fcd5a30a28ae72af601d671eca9953199181620d56732478a77b8",
}


def accepted_verify_all_configs():
    """Every (q, n) that RunConfig.validate() accepts for verify-all.  Its
    work estimate holds the "lift" term, which grows with q and n and does
    not depend on the Witt width f, so the search at each n stops at the
    first q where that term passes the budget, and the search ends at the
    first n where it does so at q = 2: q < 166 at n = 1, q < 15 at n = 2,
    down to q = 2 at n = 8, and no n >= 9."""
    accepted = []
    for n in range(1, 64):
        q = 2
        while lift_term(q, n) <= cli.WORK_BUDGET:
            args = build_parser().parse_args(["verify-all", "--q", str(q), "--n", str(n)])
            try:
                RunConfig(args)
            except (BudgetError, ParameterError):
                pass
            else:
                accepted.append((q, n))
            q += 1
        if q == 2:
            return accepted
    raise AssertionError("the lift term never passes the budget at q = 2")


def lift_term(q, n):
    """The "lift" work term of verify-all at (q, n), which reads q and n
    alone."""
    cfg = RunConfig.__new__(RunConfig)
    cfg.q, cfg.n = q, n
    return cli.WORK_TERMS["lift"](cfg)


VERIFY_ALL_CONFIGS = accepted_verify_all_configs()

# sha256 of the sorted-key JSON of each report's results and of its checks
# outside dl.*, frozen from the reports made before the line census replaced
# the DL suite (their `omitted_checks` left out): the census changes only
# the dl.* checks.  Refrozen with VERIFY_ALL_DIGESTS when
# depth0.chart_linear_parts and five chars checks left the report, when
# depth0.gl_linear_shadow left it, and when depth0.equation_lowest_degree
# left it
NON_DL_DIGESTS = {
    (2, 1): "40dd0af2dfc9429fdccd1def02ae1f6f286845c05c711c7ac7b026cc05c65e8d",
    (2, 2): "8f292096cf0e1ca2166e06cbc8609932e00914e6c0632c4f557559f3ea7ce702",
    (2, 3): "0dfc9805d626cce9d545f19bbd595bc2c9549012cf7895a7546bbae42a233139",
    (3, 1): "05a4c287231a38044d43e71c56f2789d318658224d199dc67d7c69ccc8391922",
    (3, 2): "ae48b55e2eeca76ed8ce4df0f1d178ad3e8eb7ee79ccf53e9362a95626e70433",
    (4, 1): "106760a5698936b1c432f157c52017a5f7c6aeccb96190f62cb5b4eb4df8b404",
    (4, 2): "9360c2f79af674b258ac914421a3a53ae07048a0934ce60399f9b63826c6b362",
    (5, 1): "fe2260c0f2bc5cbee8f30925c3568739769bb5cd43d9319ada462312808aa35f",
    (5, 2): "4421db12c9bfa54e866cbbe9d3abe054ce557afa14846779c497f348b5f806ba",
    (7, 1): "f378109cdb6a080a1fcd17c7cbd6abcc5c63a07ab09142113693eb5c01593bdc",
    (7, 2): "85cf66215ad300674650ee06988a3dad3b5c2a5b5fb7e59fb52f09d93ff3d9a2",
    (8, 1): "07aad1cb67204847a19622d2a2cafaa882a6c7032f6efc45d454c06e26c64a1d",
    (9, 1): "9ecb74a0c059f2cf3f0cc36abeba9d6ade62dae2a1d4e366452acaf55aa75db5",
    (11, 1): "d26e73888fdb5043f9d2f80dbf0b79fcb41818acd2c005836794c5beadf964db",
    (13, 1): "1513688bbbf8f705838b51c2e2097d530d3591344d966dae88e5c3e292bbdb9c",
    (16, 1): "c7f0b16f98d5c2ad5375d6cd0721f819275ce0809707807e611782af5de249d8",
    (17, 1): "e8387d6f0baf409610e4bcaba2736105991ad47c7756eb61c956ea440c81fd4d",
    (19, 1): "32b09eb4bebe23a60f37e4ffa03e16a4a3050aee3d6707f38c6cd5fa6441745b",
    (23, 1): "52fd84dcbb20bcf85fd4a62521a0420445c837500f0ca6538f9c690711eb67a8",
    (25, 1): "f65a9b44ca38e32a147f0220f8d85979afc5967c7511e57b60cb9af55ac41f15",
    (27, 1): "debb1b82d3e9d7a4292c0ef9cfb68662f8d0082f2a94b3e2023442143d5511b5",
    (29, 1): "423fc4b499f9124bee50514f418b3160fe7da70e23623a9cc6dc5ea1bba2efdc",
    (31, 1): "ad483802b51a09ed91d794c7d249f940961b5bb35367859f86c8028be62ca2e5",
    (32, 1): "39aa890e81e6e4c8e1f33c9483225dc8a4a878080195df85c2f8c88b6ba2c416",
    (37, 1): "0e82a5d2788117c549b2da8da09d8b2fb94b51870ba94e29432788da51851be9",
    (41, 1): "addf321760fb66771477a50c12c760c60eb9eb61c45291de670abef61f64a9eb",
    (43, 1): "e6acea8fe53051206f8a63b14db762d5e02122a78d6058321736d52c2d0064df",
    (47, 1): "ac89568857817ff943429ba2bdfe33d4a3621e5961727aa7ad1f0c7b35a49d2b",
    (49, 1): "499b146e2e6a6ccd1c8bbc69f72926379ccf5fcbc7d3247a665c8a61d4257783",
    (53, 1): "b6cf8998e79ea61884e952a7d20abd752d667dc28775929f4d868518a65de496",
    (59, 1): "8188b5aecbd75d095e9eda28d82266cb6e7924bd3f5b9284ae258266546bf8a7",
    (61, 1): "0dd5b3c365418a0a5609d8661e858daecaed282ce8cfd66495eef8cea8eb4ae0",
    (64, 1): "81d005e26bdd8f40c85fb4d2360aee29beb3ba7ba7147d2eba1cef4d1cd41780",
    # frozen from the reports of the commit before the work budget, with
    # its size limits raised
    (8, 2): "406416e3d6bc12880d7cf0870b50322b81ffc0afcc7e5acfd03076c0041ee086",
    (3, 3): "3670f6b43b97e598789badcfffe2e9567ae643cb96f2a3c5eed922389048f69e",
    (2, 4): "6da8d235791da69b60088c8a4d3b32e481098bf626b9d0423780f8cfa92ec544",
    (9, 2): "bf55531d765e6a9384a26a9e17ec3936d38c92e45ec0ac15a7d9ac38c44efbbc",
    (11, 2): "054d89e8eeb72a21b9ebe8c08c7e8121cbb4458f19e8759f4813cda40b6f0c13",
    (67, 1): "ccbfbaab3d512cda1f8d1b86452799ffec17c6c98c1698a2e445469f704b128c",
    (71, 1): "7db5787217c8d661d6ef58f67bf94d805e43603e4a151db75e888fbc3d681ff0",
    (73, 1): "19c6ac3b9025c411ed3e4eb0b0fd43fff2c7fad02200910abb0c240290043f67",
    (79, 1): "d13d5acf5967e272a8948070067ae2f86ccc3cf8400e8b61876eb6023f86a3e3",
    (83, 1): "06cee3d4f9929672ee1a4f11b09ae68e834101b4645572f4a27fcece65596922",
    (89, 1): "da415fe2982f844842c4f85003ecea314a305fbf89ec377b3fc799d2acefc81e",
    # frozen from the reports of the commit before the formal-module axioms
    # left the package, with its work budget raised and those records removed
    (81, 1): "7799f82836a33a9360297d828cfdd00b159b41e9e05dfc836425d8f00fa5ec3a",
    (97, 1): "07690d9952b2eb1262fe2d4dcdca2dc4d5cead7d9eedfb216dec70b8a82f73bc",
    (101, 1): "cd53d5c1c7906588f4af9c67e41b9c1df5aa5d6736ac6395ec47343424f5d8c9",
    (103, 1): "81fab46bd5856701c1cdd59acbb10f3df842cdda91c2cd4f98f08e42ac710e1a",
    (107, 1): "dce5289b58689ef5514a6e04910a057b76338e7144a4dc5806be84859cf50008",
    (109, 1): "9ef4c2814446fb853cf176029afc8aad95b397a9cf1bdb20878a35406ce34f0e",
    (113, 1): "f23de2d4ab011e2cc89e72fdfce4fe80e6463ea81480abefc1ab5f9c9fead973",
    (121, 1): "4576afd5dde9402e75a195df9bfe04819c6059d8d5e98cc43634880f12be25ad",
    (125, 1): "dc4272d63adc0064b7d93e81237becdbbf42a72e3e6d84317f4a3274590ee694",
    (127, 1): "5ab3ef4a720618af99c72fc2f28f2ae00928b6067971e211265ede071a9b1767",
    (128, 1): "1a8b66104d26303ed3c9d6ff92c57eb237bcee823b389f3477cbb99a6cf38d41",
    (131, 1): "cc1733dc8edcad9a36e56a567bdc9250361ad8388480d85ab7e45e9206c3736e",
    (137, 1): "701683ed1c3883e6439bc73792b0b004abb21b8f0d2e5a892b98b1914a03d79a",
    (139, 1): "a33e913c9ac41788237de628fb631238b53b7ae97a4ca0ec43e30d7f18e3db65",
    (149, 1): "39331374e001181c708bdccaaac15c5adf48cab9eb485333401e6dc1f39b16b3",
    (151, 1): "0da85f879c593786169b8e742122b146762ef4b75dd3a2b826751112a03d885f",
}


def test_verify_all_grid_holds_the_frozen_configs():
    assert len(VERIFY_ALL_CONFIGS) == 60
    assert set(VERIFY_ALL_DIGESTS) < set(VERIFY_ALL_CONFIGS) == set(NON_DL_DIGESTS)


def verify_all_check_names(n, m):
    """The checks of a verify-all report at height n, in report order, with
    the dl suite at level m: 8, or 9 with the iterated chart at n >= 3.  The
    formal_module suite builds the module, which adds no record."""
    return [
        "depth0.component_census", "depth0.chart_multiplicity",
        *(["depth0.iterated_multiplicities"] if n >= 3 else []),
        "depth0.un_equals_dl",
        f"dl.base_points_m{m}", "dl.action_invariance",
        "chars.generic_count", "chars.orbit_maps_to_single_pi",
        "chars.bijection_onto_cuspidals",
    ]


@pytest.mark.parametrize("q,n", VERIFY_ALL_CONFIGS)
def test_verify_all_grid_is_complete(tmp_path, q, n):
    # every accepted config ends with all four suites, omits no check, and
    # runs the two dl checks at one level m, on |GL_n(F_q)| points
    code, report = run_cli(tmp_path, "verify-all", "--q", str(q), "--n", str(n))
    assert code == 0
    results = report["results"]
    assert results["suites"] == ["formal_module", "depth0", "dl", "chars"]
    assert "omitted_checks" not in results
    dl = {c["name"]: c["details"] for c in report["checks"] if c["name"].startswith("dl.")}
    m = next(int(name[len("dl.base_points_m"):]) for name in dl
             if name.startswith("dl.base_points_m"))
    assert [c["name"] for c in report["checks"]] == verify_all_check_names(n, m)
    assert m == dl_variety.last_dl_level(q, n)
    count = int(re.fullmatch(r"count (\d+), base \d+", dl[f"dl.base_points_m{m}"]).group(1))
    assert count == group_order(q, n)
    assert not [d for d in dl.values()
                if any(word in d for word in ("vacuous", "0 triples", "(q^n-1)*0"))]
    others = [c for c in report["checks"] if not c["name"].startswith("dl.")]
    body = json.dumps({"results": results, "checks": others}, sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == NON_DL_DIGESTS[q, n]
    if (q, n) in VERIFY_ALL_DIGESTS:
        body = json.dumps({"results": results, "checks": report["checks"]}, sort_keys=True)
        assert hashlib.sha256(body.encode()).hexdigest() == VERIFY_ALL_DIGESTS[q, n]


@pytest.mark.parametrize("q,n", VERIFY_ALL_CONFIGS)
def test_action_invariance_passes_exactly_when_the_orbit_walk_does(q, n):
    # dl.action_invariance compares the census count with |GL_n(F_q)|; the
    # walk of the first census point's orbit under the generators of
    # GL_n(F_q) passes exactly when it does, on the census count and on a
    # count one line short, and its orbit has the census count's points
    cfg = RunConfig(build_parser().parse_args(["verify-all", "--q", str(q), "--n", str(n)]))
    m, (base, residues, lines) = dl_variety.rational_level(q, n)
    g, gens = len(residues), gl_generators(field_for_order(q), n)
    for count in (g * residues[0], g * (residues[0] - 1)):
        run = cli.Run(cfg)
        run["level"] = (m, base, count, lines)
        try:
            cli.action_invariance_entry(run, None)()
        except VerificationError:
            holds = False
        else:
            holds = True
        orbit, failure = orbit_check(q, n, m, gens, lines[0], count)
        assert (failure is None) == holds == (count == group_order(q, n))
        assert len(orbit) == g * residues[0]


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
def test_each_subcommand_entry_is_verify_alls_record(tmp_path, q, n):
    # every command runs its slice of verify-all's suites under verify-all's
    # names, so the subcommands together report each verify-all entry but
    # the action check, each as the identical record; formal-group's slice
    # is the module build, which adds no record, and depth0 equation's
    # entry on P, which verify-all never builds, is its own
    size = ["--q", str(q), "--n", str(n)]
    code, full = run_cli(tmp_path, "verify-all", *size)
    assert code == 0
    records = {c["name"]: c for c in full["checks"]}
    m = next(name[len("dl.base_points_m"):] for name in records
             if name.startswith("dl.base_points_m"))
    sequence = ["--depth-sequence", ",".join(map(str, range(n, 1, -1)))] if n >= 3 else []
    shared = []
    for argv in (["formal-group"], ["depth0", "equation"], ["depth0", "chart", *sequence],
                 ["dl", "count", "--m", m], ["chars", "correspondence"]):
        code, report = run_cli(tmp_path, *argv, *size)
        assert code == 0
        own = [c for c in report["checks"] if c["name"] == "depth0.equation_lowest_degree"]
        assert len(own) == (argv == ["depth0", "equation"]), argv
        checks = [c for c in report["checks"] if c not in own]
        assert (bool(report["checks"]) != (argv == ["formal-group"])
                and [records.get(c["name"]) for c in checks] == checks), argv
        shared += [c["name"] for c in checks]
    assert sorted(shared) == sorted(set(records) - {"dl.action_invariance"})


# sha256 of the sorted-key JSON of the results and checks of the reports
# that serialise series (each ring's `descriptor` and `coeff_to_json`),
# which no verify-all report does; the two dl equation reports refrozen when
# their entry form_count became prime_field_coefficients, all of them
# when each entry took verify-all's name (and the census entry its details),
# the two formal-group reports when their nine formal_module.* axioms left
# them, and the two dl equation reports when prime_field_coefficients, true
# of Moore's form by construction, left them, each report otherwise unchanged
SERIES_REPORT_DIGESTS = {
    ("formal-group", "--q", "2", "--n", "2"):
        "1f127eac6a0bf042c4e38b828d64607e08dba9397c0aa7961da8dfbcb953feab",
    ("formal-group", "--q", "4", "--n", "1"):
        "a4947e41888677d3b79636934ba43d55e24dfed86335f90dbdac334c77afc602",
    ("depth0", "equation", "--q", "3", "--n", "2"):
        "3f9c6c7292eff65f868547f2daf67229ea19e8aade996c1d572bc00936f773d8",
    ("depth0", "chart", "--q", "4", "--n", "2"):
        "f71c9038a6cc92cd2267b3aedacecac2d875327414e14317567236177f21982e",
    ("depth0", "chart", "--q", "2", "--n", "3", "--depth-sequence", "3,2,1"):
        "0f72486f26356ef2732c75fa989de5941d80510266aa175993a6546abd2dae07",
    ("depth0", "strata", "--q", "2", "--n", "3"):
        "bd6ece7bf1afd1393709bcd2fc1817c9d35d7f3771216d55114735d0469eb6f3",
    ("dl", "equation", "--q", "4", "--n", "2"):
        "2b8528f6a2b990d75b8eef7e2aca8e1e8470996d0d9f697e03c8ae9636551dbd",
    ("dl", "equation", "--q", "2", "--n", "3"):
        "142691c3d5d9f5e72a9f7a8e7349c0944d48c22b99095d231d86222350671757",
}


@pytest.mark.parametrize("argv", list(SERIES_REPORT_DIGESTS), ids=" ".join)
def test_series_reports_hold_their_frozen_digests(tmp_path, argv):
    code, report = run_cli(tmp_path, *argv)
    assert code == 0
    body = json.dumps({"results": report["results"], "checks": report["checks"]},
                      sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == SERIES_REPORT_DIGESTS[argv]


# (exit code, sha256 of the sorted-key JSON of the results and checks) of
# the point-level dl reports, frozen from the reports made by enumerating
# F_{q^m}^n, before the line census became their one path to DL points;
# refrozen when the points gained their own passing entry points_on_variety,
# and when each entry took verify-all's name (moebius_matches_enumeration
# became dl.base_points_m<m>, with its details), and when that points
# entry, which the scaling of the census lines implies, left them, each
# report otherwise unchanged
DL_REPORT_DIGESTS = {
    ("dl", "count", "--q", "2", "--n", "2", "--m", "2", "--list"):
        (0, "888207d1c92c8515497380c6f7c72597d7476ad2f9bea481607b128c9ee9621a"),
    ("dl", "count", "--q", "4", "--n", "2", "--m", "2", "--list"):
        (0, "8bb8909f042b2e059c1869bbfab03b43754c615158bea3d531241b3c6eb5729d"),
    ("dl", "count", "--q", "2", "--n", "3", "--m", "3", "--list"):
        (0, "3226647b8c8c719c16f6760125561b29d2bd3ba2ba5272c1051180c6613e9a78"),
    ("dl", "count", "--q", "3", "--n", "2", "--m", "4", "--list"):
        (0, "1fef48ef26457d2c5d43db9252b5536d79af1c4c25f784d2f1808f90a8585b62"),
    ("dl", "count", "--q", "8", "--n", "2", "--m", "2", "--list"):
        (0, "20d50c9b0455a8bf95baea177f0b9d5653702488fb95170c63df8cc0a8dec69c"),
    ("dl", "count", "--q", "5", "--n", "2", "--m", "4", "--list"):
        (0, "43e6cc8732a9df59da0da74bd365e1f02877674c0ee89c48e9956c720a9325df"),
}


@pytest.mark.parametrize("argv", list(DL_REPORT_DIGESTS), ids=" ".join)
def test_dl_reports_hold_their_frozen_digests(tmp_path, argv):
    code, report = run_cli(tmp_path, *argv)
    body = json.dumps({"results": report["results"], "checks": report["checks"]},
                      sort_keys=True)
    assert (code, hashlib.sha256(body.encode()).hexdigest()) == DL_REPORT_DIGESTS[argv]


# (exit code, sha256 of the sorted-key JSON of the results and checks) of
# the chars reports, frozen so that a change to the group or the Dixon
# layer proves its character tables, Steinberg characters and
# correspondences byte-identical; refrozen when each entry took verify-all's
# name, each report otherwise unchanged
CHARS_REPORT_DIGESTS = {
    ("chars", "table", "--q", "2", "--n", "2"):
        (0, "5c1bd2be9c91851f6ea7df67676d2f2b352f560ae84b2c8eb275da4a9f860f16"),
    ("chars", "table", "--q", "3", "--n", "2"):
        (0, "725ed96ed6cdabd1012cafa0c64148e07a8328b12e1271f29d459ac3fce9f453"),
    ("chars", "table", "--q", "2", "--n", "3"):
        (0, "4d92ed83f6c12c31de85e41326a8e9d0bd225adf86543fd4ed2d59f75de4132e"),
    ("chars", "table", "--q", "4", "--n", "2"):
        (0, "2c5bc7e09a85a0e2a983010f1aef3a575959480f27f7aa4d2556cede84a8eb7f"),
    ("chars", "table", "--q", "5", "--n", "2"):
        (0, "2381592e228688b94ac6752192680033429f02261d986eb16faf3623bd194033"),
    ("chars", "steinberg", "--q", "2", "--n", "2"):
        (0, "a4b56d737cb9586f56be7385f1e8ddc535c6156cfd5815b6381c499e9bb3f855"),
    ("chars", "steinberg", "--q", "3", "--n", "2"):
        (0, "f7c69900f4d53393799edd7c84c23aca17dcc9b2550c33bf37dc7b62372e0aba"),
    ("chars", "steinberg", "--q", "2", "--n", "3"):
        (0, "4fcd6839a1b89a4ffee877b0e5db05c627534bde6cf5ffa53ac58bffae01ed36"),
    ("chars", "steinberg", "--q", "4", "--n", "2"):
        (0, "66abbc086f6a0b36c62c0543e38cd9e365042132465974d23f773e2e24a2334a"),
    ("chars", "steinberg", "--q", "5", "--n", "2"):
        (0, "94473404e948cff0736e40ed89dbef8beea538a7f6ab6f00057ca4bb0189efbd"),
    ("chars", "correspondence", "--q", "2", "--n", "2"):
        (0, "141caad31f8010e9c9888302fedfd8bc8bac5ec1b3deba5fade84c8829ae5348"),
    ("chars", "correspondence", "--q", "3", "--n", "2"):
        (0, "52ae76eb5d332b8cd6eb3bf20243d4f9f6cbde5b44d936c654ba0b4c48dd83c8"),
    ("chars", "correspondence", "--q", "2", "--n", "3"):
        (0, "d594be194ff66f1599b233bc09ba04f6f04b45949c83a9c176efdda87c41cd0c"),
    ("chars", "correspondence", "--q", "4", "--n", "2"):
        (0, "aba416723e329b89ee430a42ffa7fd2b523f1adb74373b1c89cbd0a51af978e4"),
    ("chars", "correspondence", "--q", "5", "--n", "2"):
        (0, "11a0c8ef9aedf9bdb75e708cb93fe73eadcb14433efb29f00b41fe0406a63bb5"),
}


@pytest.mark.parametrize("argv", list(CHARS_REPORT_DIGESTS), ids=" ".join)
def test_chars_reports_hold_their_frozen_digests(tmp_path, argv):
    code, report = run_cli(tmp_path, *argv)
    body = json.dumps({"results": report["results"], "checks": report["checks"]},
                      sort_keys=True)
    assert (code, hashlib.sha256(body.encode()).hexdigest()) == CHARS_REPORT_DIGESTS[argv]


@pytest.mark.parametrize("doctor", [lambda gens: gens[:2],
                                    lambda gens: gens + [((1, 0), (0, 0))]],
                         ids=["dropped", "singular"])
def test_group_that_fails_to_build_is_a_suite_error(tmp_path, monkeypatch, doctor):
    # the chars suite, the one that needs GL_n(F_q), reports the failed build
    # as its one error check; every check that does not need the group, the
    # dl suite's count against |GL_n(F_q)| included, stays as it was
    code, clean = run_cli(tmp_path, "verify-all", "--q", "3", "--n", "2")
    assert code == 0
    honest = gl_characters.gl_generators
    monkeypatch.setattr(gl_characters, "gl_generators",
                        lambda field, n: doctor(honest(field, n)))
    code, report = run_cli(tmp_path, "verify-all", "--q", "3", "--n", "2")
    assert code == 1
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["chars.error"]
    assert {"name": "dl.action_invariance", "status": "pass",
            "details": "orbit size 48"} in report["checks"]
    assert [c for c in report["checks"] if c not in failed] == [
        c for c in clean["checks"] if not c["name"].startswith("chars.")]


def test_parameter_error_exit_2(tmp_path, capsys):
    code = main(["depth0", "chart", "--q", "6", "--n", "2"])
    assert code == 2
    assert capsys.readouterr().err == "parameter error: q = 6 is not a prime power\n"


def test_chart_work_exit_3(capsys):
    # (3, 4) has 2,225,895 chart monomials in 4 variables: its estimated
    # work refuses it rather than run for hours
    code = main(["verify-all", "--q", "3", "--n", "4"])
    assert code == 3
    assert capsys.readouterr().err.startswith("budget exceeded: verify-all at q=3, n=4: ")


def test_bad_config_file_values_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text, message in [
            ("q=abc\n", "argument --q: invalid int value: 'abc'"),
            ("n=2\nformat=xml\n",
             "argument --format: invalid choice: 'xml' (choose from 'json', 'csv')"),
            ("timing=yes\n", "argument --timing: 'yes' is not true or false"),
            ("jobs=4\n", "unrecognized arguments: --jobs=4")]:
        cfg.write_text(text)
        assert main(["dl", "count", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"parameter error: config file: {message}\n"


@pytest.mark.parametrize("command,text,flags,message", [
    ("depth0 chart", "list=true", ["--list"], "unrecognized arguments: --list=true"),
    ("depth0 chart", "list=false", ["--list=false"], "unrecognized arguments: --list=false"),
    ("dl count", "depth-sequence=9,9", ["--depth-sequence", "9,9"],
     "unrecognized arguments: --depth-sequence=9,9"),
    ("dl count", "N=6\nlist=maybe", ["--list=maybe"],
     "argument --list: 'maybe' is not true or false"),
    ("dl count", "help=true", ["--help=true"],
     "argument -h/--help: ignored explicit argument 'true'"),
    ("dl count", "config=other.cfg", None, "argument --config: a config file names no other"),
], ids=["switch-of-another-command", "switch-set-false", "flag-of-another-command",
        "bad-switch-value", "help", "config"])
def test_config_file_keys_are_the_running_commands_flags(tmp_path, capsys, command, text,
                                                         flags, message):
    # the running subparser parses the file's flags, so a key exits 2 where
    # its flag on the command line does
    argv = command.split() + ["--q", "2", "--n", "2"]
    if flags:
        with pytest.raises(SystemExit) as exc:
            main(argv + flags)
        assert exc.value.code == 2
        capsys.readouterr()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"parameter error: config file: {message}\n")


def test_config_file_switches_and_flags_of_the_running_command(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "points.csv"
    cfg.write_text("# a comment\n\nq = 2\nlist=TRUE\ntiming=false\nformat=csv\n"
                   f"out={out}\n")
    assert main(["dl", "count", "--n", "2", "--m", "2", "--config", str(cfg)]) == 0
    assert out.read_text().splitlines()[0] == "x1,x2"
    # a switch set to false adds nothing, so the command line's switch holds
    cfg.write_text("list=false\nq=3\n")
    code, report = run_cli(tmp_path, "dl", "count", "--list", "--config", str(cfg),
                           "--q", "2", "--m", "2")
    assert code == 0
    assert report["config"]["list"] is True and report["config"]["q"] == 2
    assert len(report["results"]["points"]) == 6


@pytest.mark.parametrize("subcommand", ["count"])
def test_dl_extension_degree_below_one_exits_2(subcommand, capsys):
    code = main(["dl", subcommand, "--q", "2", "--n", "2", "--m", "0"])
    assert code == 2
    assert capsys.readouterr().err == "parameter error: extension degree m = 0 must be >= 1\n"


def test_zero_precision_exits_2(tmp_path, capsys):
    assert main(["formal-group", "--q", "2", "--n", "1", "--N", "0"]) == 2
    assert capsys.readouterr().err == "parameter error: invalid precision parameters\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q=2\nn=1\nN=0\n")
    assert main(["formal-group", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "parameter error: invalid precision parameters\n"


def test_budget_error_exit_3(capsys):
    code = main(["dl", "count", "--q", "2", "--n", "4", "--m", "8"])
    assert code == 3
    assert "budget" in capsys.readouterr().err


def test_ambient_degree_is_refused_before_its_size(capsys):
    # the size of F_{64^126}, 228 digits, and of F_{64^(10^9)} is never formed
    for m in ("126", "1000000000"):
        assert main(["dl", "count", "--q", "64", "--n", "1", "--m", m]) == 3
        assert capsys.readouterr().err == (
            f"budget exceeded: ambient field size 64^{m} exceeds 1048576\n")


def over_budget(at, seconds):
    return (f"{at}: estimated work of {seconds} s or more exceeds the "
            f"{cli.WORK_BUDGET / 10 ** 6:g} s budget")


# each size refusal, by a field beyond the field tables or by the work
# estimate, is a BudgetError in RunConfig.validate(), before any handler runs
SIZE_REFUSALS = [
    ("dl count --q 64 --n 1 --m 126", "ambient field size 64^126 exceeds 1048576"),
    ("dl count --q 64 --n 1 --m 1000000000",
     "ambient field size 64^1000000000 exceeds 1048576"),
    ("dl count --q 1031 --n 1 --m 2", "ambient field size 1031^2 exceeds 1048576"),
    ("formal-group --q 2097152 --n 1", "field size 2097152 exceeds 1048576"),
    ("chars table --q 1048583 --n 1", "field size 1048583 exceeds 1048576"),
    ("dl equation --q 2 --n 40", "the q^n - 1 forms at n = 40 exceed the work budget"),
    ("dl count --q 2 --n 4 --m 8", over_budget("dl count at q=2, n=4, m=8", "114")),
    ("dl count --q 3 --n 3 --m 6", over_budget("dl count at q=3, n=3, m=6", "5.06")),
    ("chars table --q 32 --n 2", over_budget("chars table at q=32, n=2", "520")),
    ("chars steinberg --q 2 --n 5", over_budget("chars steinberg at q=2, n=5", "160")),
]

# configs beside the refused ones that run to a complete report; the
# ambient fields F_512, F_6561 and F_4099 sit inside the field tables
INSIDE_THE_LIMITS = [
    "dl count --q 2 --n 2 --m 8", "dl count --q 2 --n 2 --m 9", "dl count --q 64 --n 1 --m 1",
    "dl count --q 3 --n 2 --m 7", "chars steinberg --q 512 --n 1",
    "dl count --q 3 --n 2 --m 8", "dl count --q 4093 --n 1 --m 1",
    "dl count --q 4099 --n 1 --m 1", "dl count --q 2 --n 4 --m 6", "dl count --q 3 --n 3 --m 5",
    "chars steinberg --q 13 --n 2", "chars steinberg --q 2 --n 4",
]


@pytest.mark.parametrize("argv,message", [pytest.param(a, m, id=a) for a, m in SIZE_REFUSALS])
def test_size_limits_refuse_before_any_handler(argv, message, monkeypatch, capsys):
    def no_handler(cfg):
        raise AssertionError(f"the {cfg.command} handler ran for a refused config")

    with pytest.raises(BudgetError, match=f"^{re.escape(message)}$"):
        RunConfig(build_parser().parse_args(argv.split()))
    monkeypatch.setattr(cli, "HANDLERS", {name: no_handler for name in cli.HANDLERS})
    assert main(argv.split()) == 3
    assert capsys.readouterr() == ("", f"budget exceeded: {message}\n")


@pytest.mark.parametrize("argv", INSIDE_THE_LIMITS)
def test_configs_inside_the_size_limits_run(tmp_path, argv):
    code, report = run_cli(tmp_path, *argv.split())
    assert code == 0
    assert report["checks"] and all(c["status"] == "pass" for c in report["checks"])


def test_a_level_below_the_height_ends_with_no_lines(tmp_path, monkeypatch):
    # at m < n every line of P^{n-1}(F_{q^m}) lies on a rational hyperplane,
    # so the census walks nothing and builds no F_{q^m}
    def unbuilt(*args):
        raise AssertionError("F_{q^m} was built below the height")

    monkeypatch.setattr(dl_variety, "Ambient", unbuilt)
    code, report = run_cli(tmp_path, "dl", "count", "--q", "16", "--n", "3", "--m", "2")
    assert code == 0
    assert (report["results"]["base_count"], report["results"]["count"]) == (0, 0)
    assert report["checks"] == [{"name": "dl.base_points_m2", "status": "pass",
                                 "details": "count 0, base 0"}]


@pytest.mark.parametrize("argv,target", [
    pytest.param(argv, target, id=argv) for argv, target in [
        ("chars table --q 257 --n 1", "GLGroup"),
        ("chars correspondence --q 1021 --n 1", "GLGroup"),
        ("dl equation --q 7 --n 4", "dl_equation")]])
def test_runs_that_do_not_end_exit_3(argv, target, monkeypatch, capsys):
    # each of the group runs ran for minutes or more inside the old size
    # limits, and the DL equation at (7, 4) runs for over twice the budget;
    # the work estimate refuses each before the group or the equation is built
    def unbuilt(*args):
        raise AssertionError(f"{target} was built for a refused config")

    monkeypatch.setattr(cli, target, unbuilt)
    assert main(argv.split()) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("budget exceeded: ") and err.count("\n") == 1


# the edges of the work budget: every config named where the budget was
# calibrated, each admitted or refused by RunConfig.validate() alone
BUDGET_EDGES = [
    *(f"verify-all --q {q} --n {n}" for q, n in [(8, 2), (3, 3), (2, 4), (9, 2), (11, 2),
                                               (64, 1), (89, 1), (97, 1), (151, 1)]),
    "chars steinberg --q 13 --n 2", "dl count --q 2 --n 4 --m 6",
    "dl count --q 16 --n 3 --m 2", "formal-group --q 433 --n 1", "formal-group --q 449 --n 1",
    "formal-group --q 467 --n 1", "formal-group --q 9 --n 3", "formal-group --q 11 --n 3",
    "depth0 chart --q 439 --n 1", "depth0 chart --q 467 --n 1",
    *(f"dl count --q {q} --n {n} --m {m}" for q, n, m in [
        (2, 1, 18), (2, 2, 17), (3, 2, 11), (9, 2, 5), (2, 3, 9), (7, 2, 6), (25, 2, 3),
        (714991, 1, 1), (635209, 1, 1)]),
    "dl equation --q 969989 --n 1", "dl equation --q 2809 --n 2",
    "chars steinberg --q 2048 --n 1", "chars steinberg --q 2401 --n 1",
    *(f"dl equation --q {q} --n {n}" for q, n in [(3, 4), (5, 3), (7, 3), (64, 2), (2, 5),
                                                 (2, 6), (2, 7), (2, 8), (3, 5), (5, 4)]),
    *(f"refused {argv}" for argv in [
        "verify-all --q 13 --n 2", "verify-all --q 4 --n 3", "verify-all --q 157 --n 1",
        "formal-group --q 479 --n 1", "formal-group --q 13 --n 3", "depth0 chart --q 479 --n 1",
        *(f"formal-group --q {q} --n 1 --D {D}" for q, D in [(2, 48), (2, 60), (3, 60), (5, 100),
                                                              (3, 100)]),
        "verify-all --q 2 --n 1 --D 60", "depth0 chart --q 2 --n 1 --D 60",
        "chars table --q 11 --n 2", "chars table --q 257 --n 1",
        "chars correspondence --q 1021 --n 1",
        "dl equation --q 3 --n 6", "dl equation --q 7 --n 4",
        *(f"dl count --q {q} --n {n} --m {m}" for q, n, m in [
            (2, 2, 20), (2, 1, 20), (2, 3, 10), (3, 2, 12), (2, 2, 18), (2, 1, 19), (3, 1, 12),
            (4, 2, 9), (5, 2, 8), (524288, 1, 1), (531441, 1, 1), (1048573, 1, 1),
            (1042441, 1, 1), (1021, 1, 2)])]),
]


def test_every_work_term_is_summed_by_a_command():
    # a term left behind after its work is gone, or a command summing a
    # name that is no term, fails here
    summed = {name for terms in cli.WORK.values() for name in terms.split()}
    assert summed == set(cli.WORK_TERMS)
    assert set(cli.WORK) == set(cli.SLICES)


@pytest.mark.parametrize("edge", BUDGET_EDGES)
def test_the_budget_admits_and_refuses_its_edges(edge):
    refused = edge.startswith("refused ")
    args = build_parser().parse_args(edge.removeprefix("refused ").split())
    if refused:
        with pytest.raises(BudgetError, match="estimated work of"):
            RunConfig(args)
    else:
        assert RunConfig(args).work <= cli.WORK_BUDGET


def test_no_admitted_config_reaches_the_group_list_bound():
    # validate() refuses each field beyond the field tables by name, and
    # leaves GLGroup's bound on its element list to the work estimate: its
    # group term grows with q and n, and at each n it alone refuses the
    # least q past the bound, up to n = 5, where q = 2 is past it
    cfg = RunConfig.__new__(RunConfig)
    for n in range(1, 6):
        q = next(q for q in range(2, 10 ** 6) if group_order(q, n) > MAX_GROUP_ORDER)
        cfg.q, cfg.n = q, n
        assert cli.WORK_TERMS["group"](cfg) > cli.WORK_BUDGET
    assert q == 2


@pytest.mark.parametrize("argv,message", [pytest.param(a, m, id=a) for a, m in [
    ("formal-group --q 2 --n 1 --D 2", "degree bound 2 must exceed q^n = 2"),
    ("depth0 chart --q 2 --n 2 --D 4", "degree bound 4 must exceed q^n = 4"),
    ("verify-all --q 2 --n 2 --D 3", "degree bound 3 must exceed q^n = 4"),
    ("verify-all --q 2 --n 2 --D -5", "degree bound -5 must exceed q^n = 4"),
]])
def test_degree_bound_refuses_before_any_handler(argv, message, monkeypatch, capsys):
    # the module build refuses D <= q^n, so validate() does first, before
    # the monomial budget (a negative D would reach math.comb there)
    def no_handler(cfg):
        raise AssertionError(f"the {cfg.command} handler ran for a refused config")

    monkeypatch.setattr(cli, "HANDLERS", {name: no_handler for name in cli.HANDLERS})
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"parameter error: {message}\n")


def test_degree_bound_just_above_q_to_the_n_runs(tmp_path):
    code, report = run_cli(tmp_path, "verify-all", "--q", "2", "--n", "2", "--D", "5")
    assert code == 0
    assert report["results"]["D"] == 5


def test_malformed_flags_never_exit_zero():
    with pytest.raises(SystemExit) as exc:
        main(["dl", "count", "--q", "nope"])
    assert exc.value.code == 2


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["depth0", "blowup"])
    assert exc.value.code == 2


def test_byte_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify-all", "--q", "2", "--n", "2", "--out", str(a)]) == 0
    assert main(["verify-all", "--q", "2", "--n", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_timing_flag_populates_field(tmp_path):
    code, report = run_cli(tmp_path, "chars", "steinberg", "--q", "2", "--n", "2",
                           "--timing")
    assert code == 0
    assert isinstance(report["timing_seconds"], float)


def test_verify_all_timing_reports_seconds_per_suite(tmp_path):
    code, report = run_cli(tmp_path, "verify-all", "--q", "2", "--n", "2", "--timing")
    assert code == 0
    suites = report["results"]["profile"]["suites"]
    assert sorted(suites) == sorted(report["results"]["suites"])
    assert all(isinstance(s, float) and s >= 0 for s in suites.values())
    _, plain = run_cli(tmp_path, "verify-all", "--q", "2", "--n", "2")
    assert "profile" not in plain["results"]


def test_verify_all_forms_few_series_products(tmp_path, monkeypatch):
    # one-term images map exponents, powers are formed only where needed and
    # the chart reads P: 4,574 products at (5, 2) before those changes
    products = []
    honest = series.TruncatedSeries.__mul__
    monkeypatch.setattr(series.TruncatedSeries, "__mul__",
                        lambda a, b: products.append(1) or honest(a, b))
    code, _ = run_cli(tmp_path, "verify-all", "--q", "5", "--n", "2")
    assert code == 0
    assert len(products) < 1500


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q=3\nn=2\nN=6\n")
    out = tmp_path / "r.json"
    code = main(["depth0", "equation", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["q"] == 3 and report["config"]["prec_n"] == 6
    # explicit flag wins over the file
    code = main(["depth0", "equation", "--config", str(cfg), "--q", "2",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["q"] == 2
    # a key is its flag's name, dashes and all
    cfg.write_text("depth-sequence=3,2\n")
    code = main(["depth0", "chart", "--q", "2", "--n", "3", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["depth_sequence"] == "3,2"
    assert report["results"]["iterated_valuations"] == [7, 3]


def test_csv_point_dump(tmp_path):
    out = tmp_path / "pts.csv"
    code = main(["dl", "count", "--q", "2", "--n", "2", "--m", "2", "--list",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 7  # header + 6 points


def without_unit_inverse(honest):
    """The correction R_d / p, without the unit (p^(d-1) - 1)^(-1): it leaves
    R_d times 2 - p^(d-1), so the residual never vanishes."""
    def correction(residual, d):
        dom = residual.ring.domain
        return honest(residual, d).scale(dom.from_int(dom.p ** (d - 1) - 1))
    return correction


def with_a_residual_prime_to_p(honest):
    """The correction of the residual with 1 added to its X^d coefficient."""
    def correction(residual, d):
        ring = residual.ring
        x_d = ring.monomial((d,) + (0,) * (len(ring.vars) - 1), ring.domain.one())
        return honest(residual + x_d, d)
    return correction


@pytest.mark.parametrize("argv", [["formal-group"], ["verify-all"]])
def test_a_module_that_fails_its_build_is_the_formal_module_error(tmp_path, monkeypatch, argv):
    # a correction without its unit inverse never cancels the residual,
    # which the build refuses: the module's one record, with the library's
    # message
    monkeypatch.setattr(formal_modules, "cancelling_terms",
                        without_unit_inverse(formal_modules.cancelling_terms))
    assert_the_formal_module_error(tmp_path, argv,
                                   "the residual pL + L^Q - L o f survives 2 rounds")


@pytest.mark.parametrize("argv", [["formal-group"], ["verify-all"]])
def test_a_residual_prime_to_p_is_the_formal_module_error(tmp_path, monkeypatch, argv):
    monkeypatch.setattr(formal_modules, "cancelling_terms",
                        with_a_residual_prime_to_p(formal_modules.cancelling_terms))
    assert_the_formal_module_error(tmp_path, argv,
                                   "the residual is not divisible by p in degree 4")


def assert_the_formal_module_error(tmp_path, argv, message):
    code, report = run_cli(tmp_path, *argv, "--q", "2", "--n", "2")
    assert code == 1
    assert report["checks"][0] == {"name": "formal_module.error", "status": "fail",
                                   "details": message}
    if argv == ["formal-group"]:
        assert report["checks"][1:] == [] and report["results"] == {}


def test_formal_group_dump(tmp_path):
    code, report = run_cli(tmp_path, "formal-group", "--q", "2", "--n", "1",
                           "--D", "4")
    assert code == 0
    F = report["results"]["F"]
    # multiplicative law: X + Y + XY
    assert sorted(tuple(t["exps"]) for t in F["terms"]) == [(0, 1), (1, 0), (1, 1)]


def test_depth0_chart_with_sequence(tmp_path):
    code, report = run_cli(tmp_path, "depth0", "chart", "--q", "2", "--n", "3",
                           "--depth-sequence", "3,2")
    assert code == 0
    assert report["results"]["iterated_valuations"] == [7, 3]
    assert report["results"]["un_equation_matches_dl"] is True


def test_strata_report(tmp_path):
    code, report = run_cli(tmp_path, "depth0", "strata", "--q", "2", "--n", "2")
    assert code == 0
    rows = report["results"]["strata"]
    by_key = {(tuple(r["a"]), r["j"]): r["member"] for r in rows}
    assert by_key[((1, 0), 1)] is True
    assert by_key[((1, 1), 1)] is False


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["dl", "count", "--config", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"parameter error: cannot read config file {missing}: No such file or directory\n")
    assert main(["dl", "count", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"parameter error: cannot read config file {tmp_path}: Is a directory\n")


@pytest.mark.parametrize("seq,message", [
    ("a,b", "depth sequence 'a,b' is not a list of integers"),
    ("2,3", "depth sequence must strictly decrease from n to >= 1"),
    ("3,3", "depth sequence must strictly decrease from n to >= 1"),
])
def test_bad_depth_sequence_exits_2_before_chart_work(seq, message, monkeypatch, capsys):
    def no_chart(*args, **kwargs):
        raise AssertionError("the chart was built for a bad depth sequence")

    monkeypatch.setattr(cli, "blowup_chart", no_chart)
    monkeypatch.setattr(cli, "iterated_chart", no_chart)
    code = main(["depth0", "chart", "--q", "2", "--n", "3", "--depth-sequence", seq])
    assert code == 2
    assert capsys.readouterr().err == f"parameter error: {message}\n"


@pytest.mark.parametrize("argv", [["chars", "table"], ["verify-all"]])
def test_trivial_group_commands_end(argv):
    # GL_1(F_2) is trivial (exponent 1); both commands once hung in the
    # Dixon prime search
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "ltdl.cli", *argv, "--q", "2", "--n", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["checks"] and all(c["status"] == "pass" for c in report["checks"])
