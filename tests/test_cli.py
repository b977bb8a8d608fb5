import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ltdl import cli, depth0, dl_variety, gl_characters, series
from ltdl.cli import RunConfig, build_parser, main
from ltdl.errors import BudgetError, ParameterError, VerificationError
from ltdl.linalg import group_order


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
    for suite in ("formal_module", "depth0", "dl"):
        assert any(name.startswith(suite + ".") for name in names), suite
    assert "depth0.gl_linear_shadow" in names and "dl.action_invariance" in names
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed == [{"name": "chars.error", "status": "fail",
                       "details": "doctored Dixon failure"}]


def dropped_generator(monkeypatch):
    # GL_2(F_2) walked under I and the swap only: an orbit of 2 of the 6 points
    honest = cli.orbit_check
    monkeypatch.setattr(cli, "orbit_check", lambda q, n, m, gens, witness, count:
                        honest(q, n, m, gens[:-1], witness, count))


def zero_mu_generator(monkeypatch):
    # 0 stands in for the generator of mu_3 = F_4^x; it is no root of unity
    monkeypatch.setattr(dl_variety.Ambient, "mu_generator", lambda amb: 0)


def rejecting_variety(monkeypatch):
    # (3, 2), a point of DL(F_4) other than the orbit's start, reads as off it
    honest = dl_variety.Ambient.on_variety
    monkeypatch.setattr(dl_variety.Ambient, "on_variety",
                        lambda amb, x: x != (3, 2) and honest(amb, x))


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
    (dropped_generator, {"dl.action_invariance": "orbit of 2 points, count 6, |GL_n(F_q)| 6"}),
    (zero_mu_generator, {"dl.action_invariance":
                         "the mu generator 0 is not a (q^n-1)-th root of unity"}),
    (rejecting_variety, {"dl.action_invariance": "1 of 6 orbit points off the variety"}),
    (miscounted_census, {"dl.action_invariance": "orbit of 6 points, count 3, |GL_n(F_q)| 6"}),
    (dropped_census_line, {"dl.base_points_m2": "count 3, base 1",
                           "dl.action_invariance": "orbit of 6 points, count 3, |GL_n(F_q)| 6"}),
])
def test_failing_dl_check_is_reported_under_its_name(tmp_path, monkeypatch, doctor, failed):
    doctor(monkeypatch)
    code, report = run_cli(tmp_path, "verify-all", "--q", "2", "--n", "2")
    assert code == 1
    assert [c["name"] for c in report["checks"] if c["name"].startswith("dl.")] == [
        "dl.base_points_m2", "dl.action_invariance"]
    assert {c["name"]: c["details"] for c in report["checks"] if c["status"] == "fail"} == failed


def test_dl_count_names_a_census_point_off_the_variety(tmp_path, monkeypatch):
    # (3, 2), a point of DL(F_4), reads as off the variety
    honest = dl_variety.Ambient.on_variety
    monkeypatch.setattr(dl_variety.Ambient, "on_variety",
                        lambda amb, x: x != (3, 2) and honest(amb, x))
    code, report = run_cli(tmp_path, "dl", "count", "--q", "2", "--n", "2", "--m", "2",
                           "--list")
    # only the points' own entry fails; the count and the Moebius check stay
    assert code == 1
    assert report["checks"] == [
        {"name": "points_on_variety", "status": "fail",
         "details": "1 of 6 census points off DL(F_4), first [3, 2]"},
        {"name": "moebius_matches_enumeration", "status": "pass", "details": ""}]
    assert report["results"] == {"q": 2, "n": 2, "m": 2, "count": 6, "base_count": 2}


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


def DL_equation_off_by_one(monkeypatch):
    # the DL equation with its constant term moved: the reduced chart
    # residual is no longer it
    honest = dl_variety.dl_equation

    def shifted(q, n):
        inst = honest(q, n)
        inst.equation = inst.equation - inst.ring.one()
        return inst

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
    # at every split prime tried
    honest = gl_characters._split_common_eigenspaces
    monkeypatch.setattr(gl_characters, "_split_common_eigenspaces",
                        lambda *args: honest(*args)[:-1])


def DL_product_off_the_prime_field(monkeypatch):
    # the product of the rational forms plus the element 2 of F_4 - F_2
    honest = dl_variety.product_over
    monkeypatch.setattr(dl_variety, "product_over",
                        lambda forms: honest(forms) + forms[0].ring.constant(2))


NOT_AFFINE = "chart factor for a={} is not exactly affine-linear mod {}"
NOT_DL = "the chart residual mod (p, Xn) is not the DL equation"
NOT_P = "P does not vanish to order exactly q^n - 1"


@pytest.mark.parametrize("argv,doctor,failed,dropped", [
    (["depth0", "equation", "--q", "2", "--n", "2"], P_vanishing_one_order_too_high,
     {"lowest_degree_qn_minus_1": NOT_P}, {"P"}),
    # un_special_fiber reads the chart, so it fails naming the chart's entry
    (["depth0", "chart", "--q", "2", "--n", "2"], affine_law_off_on_blocks_of(2),
     {"chart_multiplicity": NOT_AFFINE.format("(0, 1)", "Xn"),
      "un_equals_dl": "not run: chart_multiplicity failed"},
     {"linear_parts", "n", "pivot", "q", "valuation", "valuations"}),
    (["depth0", "chart", "--q", "2", "--n", "3", "--depth-sequence", "3,2,1"],
     affine_law_off_on_blocks_of(1),
     {"iterated_multiplicities": NOT_AFFINE.format("(1,)", "U1_1, Xn")},
     {"iterated_valuations"}),
    (["depth0", "chart", "--q", "2", "--n", "2"], DL_equation_off_by_one,
     {"un_equals_dl": NOT_DL}, set()),
    (["chars", "steinberg", "--q", "3", "--n", "2"], borel_element_moved,
     {"steinberg_norm_one": "1_P^G for P_(1, 1) is not integral at class 4"}, {"steinberg"}),
    (["chars", "table", "--q", "2", "--n", "2"], common_eigenvector_dropped,
     {"degree_squares_sum": "Dixon table failed for all primes tried: "
                            "degree squares do not sum to the group order"}, {"table"}),
    (["dl", "equation", "--q", "4", "--n", "2"], DL_product_off_the_prime_field,
     {"prime_field_coefficients": "product of rational forms not defined over F_p"},
     {"equation", "num_forms"}),
    (["verify-all", "--q", "2", "--n", "2"], P_vanishing_one_order_too_high,
     {"depth0.equation_lowest_degree": NOT_P,
      "depth0.chart_multiplicity": "not run: depth0.equation_lowest_degree failed",
      "depth0.un_equals_dl": "not run: depth0.chart_multiplicity failed",
      "depth0.gl_linear_shadow": "not run: depth0.equation_lowest_degree failed"}, set()),
    (["verify-all", "--q", "2", "--n", "2"], affine_law_off_on_blocks_of(2),
     {"depth0.chart_multiplicity": NOT_AFFINE.format("(0, 1)", "Xn"),
      "depth0.un_equals_dl": "not run: depth0.chart_multiplicity failed"}, set()),
    (["verify-all", "--q", "2", "--n", "3"], affine_law_off_on_blocks_of(2),
     {"depth0.iterated_multiplicities": NOT_AFFINE.format("(0, 1)", "V2, Xn")}, set()),
    (["verify-all", "--q", "2", "--n", "2"], DL_equation_off_by_one,
     {"depth0.un_equals_dl": NOT_DL}, set()),
], ids=["build_P", "blowup_chart", "iterated_chart_depth_2", "un_special_fiber", "steinberg",
        "dixon_table", "dl_equation", "verify_all_build_P", "verify_all_blowup_chart",
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


@pytest.mark.parametrize("argv,doctor,built", [
    (["verify-all", "--q", "2", "--n", "2"], P_vanishing_one_order_too_high,
     {"build_P": 1}),
    (["verify-all", "--q", "2", "--n", "3"], affine_law_off_on_blocks_of(3),
     {"build_P": 1, "blowup_chart": 1}),
    (["depth0", "chart", "--q", "2", "--n", "3", "--depth-sequence", "3,2"],
     affine_law_off_on_blocks_of(3), {"blowup_chart": 1}),
], ids=["verify_all_P", "verify_all_chart", "depth0_chart"])
def test_a_failed_prerequisite_is_not_rebuilt(tmp_path, monkeypatch, argv, doctor, built):
    # after P or the chart failed, the entries that need it fail naming it,
    # and neither is built again
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
    (["depth0", "equation"], "component_census", "2 components"),
    (["verify-all"], "depth0.component_census", "2 components of multiplicity 1"),
])
def test_a_census_with_a_class_missing_fails(tmp_path, monkeypatch, argv, entry, details):
    # the last projective class of F_2^2 - 0 left out: 2 classes, not 3
    honest = depth0.projective_classes
    monkeypatch.setattr(depth0, "projective_classes",
                        lambda field, n: dict(list(honest(field, n).items())[:-1]))
    code, report = run_cli(tmp_path, *argv, "--q", "2", "--n", "2")
    assert code == 1
    assert [c for c in report["checks"] if c["status"] == "fail"] == [
        {"name": entry, "status": "fail", "details": details}]


def test_a_generic_orbit_left_out_fails_generic_count(tmp_path, monkeypatch):
    # is_generic doctored to refuse theta_1 and theta_3, the Frobenius orbit
    # {1, 3} at (3, 2); the table and the torus build as before.  Refusing
    # theta_1 alone fails nothing, since the orbit walk j -> jq from theta_3
    # puts it back
    code, clean = run_cli(tmp_path, "verify-all", "--q", "3", "--n", "2")
    assert code == 0
    honest = gl_characters.is_generic
    monkeypatch.setattr(gl_characters, "is_generic",
                        lambda q, n, j: honest(q, n, j) and j != 1)
    code, report = run_cli(tmp_path, "verify-all", "--q", "3", "--n", "2")
    assert (code, report["checks"]) == (0, clean["checks"])
    monkeypatch.setattr(gl_characters, "is_generic",
                        lambda q, n, j: honest(q, n, j) and j not in (1, 3))
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


def test_dl_fibers_is_no_command(capsys):
    # its fiber checks could not fail on census points; its per-point check
    # is dl count --list's points_on_variety, and verify-all's
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


def test_a_parabolic_histogram_with_a_moved_element_fails_verify_all(tmp_path, monkeypatch):
    code, failed = verify_all_on_doctored_parabolics(tmp_path, monkeypatch,
                                                     move_a_borel_element)
    assert code == 1
    assert failed == [{"name": "chars.error", "status": "fail",
                       "details": "1_P^G for P_(1, 1) is not integral at class 4"}]


@pytest.mark.parametrize("target,error", [("deformation_factors", BudgetError),
                                          ("rational_level", BudgetError),
                                          ("CorrespondenceData", ParameterError)])
def test_budget_and_parameter_errors_become_suite_errors(tmp_path, monkeypatch, target, error):
    def escaping(*args, **kwargs):
        raise error("doctored escape")

    monkeypatch.setattr(cli, target, escaping)
    code, report = run_cli(tmp_path, "verify-all", "--q", "2", "--n", "2")
    assert code == 1
    suite = {"deformation_factors": "depth0", "rational_level": "dl"}.get(target, "chars")
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed == [{"name": f"{suite}.error", "status": "fail",
                       "details": "doctored escape"}]
    names = [c["name"] for c in report["checks"]]
    for other in {"formal_module", "depth0", "dl", "chars"} - {suite}:
        assert any(name.startswith(other + ".") for name in names), other


@pytest.mark.parametrize("q,n,vectors", [(5, 2, 24), (2, 3, 7)])
def test_verify_all_builds_each_series_once(tmp_path, monkeypatch, q, n, vectors):
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
    per_vector = [count for (name, _), count in built.items() if name == "P_a"]
    assert len(per_vector) == vectors and set(per_vector) == {1}
    assert built["build_P", None] == built["blowup_chart", None] == 1
    assert built["closure", None] == 1


@pytest.mark.parametrize("q,n", [(2, 2), (4, 2)])
def test_verify_all_enumerates_each_variety_once(tmp_path, monkeypatch, q, n):
    # each command walks P^1(F_{q^2}) once: the line census; verify-all's
    # action check walks the orbit, and dl count --list reads its points off
    # the census lines
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
# could fail left the report, and again when dl.fibers_m<m>, implied by
# dl.action_invariance, left it, each report otherwise unchanged
VERIFY_ALL_DIGESTS = {
    (2, 2): "d5e49237045c063a5b7a429c7da028e29f6e564a39b66473f95afa65c3275145",
    (2, 3): "750c0aa27aab5562592687cdb775f836eed5281bc96c2bf2cef849603e7cc2d2",
    (3, 2): "cd0f23a2b5b1b950ed7c95ed6f0ba0ebad4407b9c231330b0bc8a0515268d38b",
    (4, 1): "0b33fac2d9504f501e19b8d700beea004e8e79f017a8781339bab4dd24377525",
    (4, 2): "08ea7a85efe0e2dd48d7595e3be049bc01489479ac955f9d11a79c2fa1e8fdfb",
    (5, 2): "7c77a98f1a7268f3fe89b15319c3f651b489705b74f813b26b24834ea4bbed7e",
    (8, 1): "e6dc80ca01e27862b0fa5d182ef7c66e8181668fbb509d4d822d894803a464f0",
}


def accepted_verify_all_configs():
    """Every (q, n) that RunConfig.validate() accepts for verify-all; its
    q^n <= 64 chart bound leaves q <= 64 and n <= 6 to try."""
    accepted = []
    for q in range(2, 65):
        for n in range(1, 7):
            args = build_parser().parse_args(["verify-all", "--q", str(q), "--n", str(n)])
            try:
                RunConfig(args)
            except ParameterError:
                continue
            accepted.append((q, n))
    return accepted


VERIFY_ALL_CONFIGS = accepted_verify_all_configs()

# sha256 of the sorted-key JSON of each report's results and of its checks
# outside dl.*, frozen from the reports made before the line census replaced
# the DL suite (their `omitted_checks` left out): the census changes only
# the dl.* checks.  Refrozen with VERIFY_ALL_DIGESTS when
# depth0.chart_linear_parts and five chars checks left the report
NON_DL_DIGESTS = {
    (2, 1): "2402924d64f46c25c49dfc3e231d5eb5b81504a7e24604bdb37965c705b4ad43",
    (2, 2): "a1372cd777eaa2fb37d7278fb4370c5369e0a65047a74a406197f87a463f812e",
    (2, 3): "c4060c08c3667d2a704d3b7ac0ec76590f8dca6b684908831fe69d0f6b3fab0e",
    (3, 1): "4ac7a5d61d770f5c9111c81f6a4736d8c4a9066dc3c0fb2e959f239846bb20f1",
    (3, 2): "5a6d268531198ff8ae63791ba678735ba4ab93ae365970909817d536404f5614",
    (4, 1): "b10ba2f0559f07a6c1d76467f7758b20492aa4782904b85f48dde3cec47de294",
    (4, 2): "4b6d21db831c0ae7989a615bf3d8947ca08187171445585a3cc510fa5f674ced",
    (5, 1): "eff74f6373f7f674ca7390c739f42dd2aa2c84df22c6fbeb839accb3b704332d",
    (5, 2): "be232fbcb025720121093c9d49e5c4cadf4dbd19b7695798f8487328a0863ad6",
    (7, 1): "40c77405cffdaa43b7f16a12c6a925d4043473341c5ccaa5b0424d2664eb6b48",
    (7, 2): "f9353f193da413dcbffac994fd0ded9254b2445a3a98544cdd07f221f8e4a6f1",
    (8, 1): "62bcfbb71e90e5e3be6973354bc4ba11b50dee33186d5bd260e314ba3a24f203",
    (9, 1): "d64980ecfd57c137957f08024a0338d5b449a1416ce3bc4a7148740eb34565e8",
    (11, 1): "132866dc3a357e7788ac5c00650f32789f24572fac04a624db21126cd6080409",
    (13, 1): "dc4333d72114d534aa2d4fb0cd2ace2bcb4e7b1d6d51863bb166882ca1562950",
    (16, 1): "8da97d69b2cfd1ef7b5c54883c860f310ac2f5c5cef0ade19cc7de4f45b9d315",
    (17, 1): "6e23cd5b1aecad9748f87549953308890055e8006347b127dff17cfb5a1f3d37",
    (19, 1): "f7d19cc72a906422390a401337bfbf81da6d15e728ffa58f4ebcd3faf2a596be",
    (23, 1): "c129bfdc0edb6e38decb101780861bbad8164f928c69903829c4b1d327393b47",
    (25, 1): "ed9bd3d850e031dec413f36ecb7b7ea01b0048546b281a3c7f18b1661b84a013",
    (27, 1): "322a7d8deec41a74a7b56cfcd40a1be8473362af551a444d75580aec77676d98",
    (29, 1): "91515c47a7b537e78542e29ac4321b10407e23ed695931a330ef0aee6c1e315f",
    (31, 1): "3a60ef08624099f63d2d1b89bac995560ce1d9da2b00742e992d4cd6db324ce3",
    (32, 1): "badbbeb076b4941c6be4d11f1d2d6e5f3684c4dd0877acf48200d9352cc2cd70",
    (37, 1): "b77869eebeec9d189e98a0461b5542a4d1c1718ac61de2865971edb5a46df0c8",
    (41, 1): "288d369901be454983c20ae02e8a055cfb6dc30ea4640dd43037aee80ac1e393",
    (43, 1): "82226fca6c1fd46ea1c36468603fc205ad792401e5cdb0192f18d8a1b8b53e61",
    (47, 1): "085920f4a042c2dd8a5a810a573ecf671e557d4b91c85fca6a67fdfe12450955",
    (49, 1): "0dda738fa57acbcb4c1b78200f43555612bb6576f76e0c363f1cb3deab32a3dd",
    (53, 1): "d00ea2382ff1b7c2c01f109c3325bc0d4085daa92ee46923afe5ac865754fe1f",
    (59, 1): "7533ded8a0a9ef36a4ca2c525cf210befa49a1eb3bf454b1cecd0e520990ea5d",
    (61, 1): "67767a3d37d0df1330823ad05adfb7b44bb5ec6b4fbaba6b72519f7795f544af",
    (64, 1): "6c9437d2be89ff65cfddd147a0bfe8d1783226cb2487177ab56109b327964ecf",
}


def test_verify_all_grid_holds_the_frozen_configs():
    assert len(VERIFY_ALL_CONFIGS) == 33
    assert set(VERIFY_ALL_DIGESTS) < set(VERIFY_ALL_CONFIGS) == set(NON_DL_DIGESTS)


def verify_all_check_names(n, m):
    """The checks of a verify-all report at height n, in report order, with
    the dl suite at level m: 19, or 20 with the iterated chart at n >= 3."""
    return [
        *(f"formal_module.{axiom}" for axiom in (
            "linear_part", "symmetry", "unit_section", "associativity", "scalar_one",
            "scalar_linear_terms", "scalar_hom_mul", "scalar_hom_add", "height")),
        "depth0.component_census", "depth0.equation_lowest_degree",
        "depth0.chart_multiplicity",
        *(["depth0.iterated_multiplicities"] if n >= 3 else []),
        "depth0.un_equals_dl", "depth0.gl_linear_shadow",
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


# sha256 of the sorted-key JSON of the results and checks of the reports
# that serialise series (each ring's `descriptor` and `coeff_to_json`),
# which no verify-all report does; the two dl equation reports refrozen when
# their entry form_count became prime_field_coefficients, each report
# otherwise unchanged
SERIES_REPORT_DIGESTS = {
    ("formal-group", "--q", "2", "--n", "2"):
        "1a057f508a7dc7fb7112c53613af2887e323b9ad55806ee9d8acd6c39298f2d4",
    ("formal-group", "--q", "4", "--n", "1"):
        "3c43b21056c3c103282542349f70490f8f09343557ac9e63ad326fdd0555c857",
    ("formal-group", "--q", "2", "--n", "2", "--universal"):
        "99d6caf55abfb53f5b59442598e9bf46b95632e419b04e45f68cedd9c3bb5c3e",
    ("formal-group", "--q", "3", "--n", "2", "--universal"):
        "91fbb0aab09cc3d40bb1c8321b01a70c2e6589b60da7a24f48d7baece38beb1c",
    ("depth0", "equation", "--q", "3", "--n", "2"):
        "58a11354448740249b177fde3845c6ec7faf28b5624b53ebf52ff577042bfc52",
    ("depth0", "chart", "--q", "4", "--n", "2"):
        "ea4409df2c43982997daebdd0f414e8bdc3412063fbf9b4feddc71e7dbddfdce",
    ("depth0", "chart", "--q", "2", "--n", "3", "--depth-sequence", "3,2,1"):
        "199f7fa4e08acd184bafeda30193c54d09d5ffb91efb1d229320c5739657a4ab",
    ("depth0", "strata", "--q", "2", "--n", "3"):
        "439b4d26cd2aa7fe282135bc9a5059ed57529beb1015eb1fe7e29de2d1a3e85e",
    ("dl", "equation", "--q", "4", "--n", "2"):
        "90a230eb9c1e0332aeda9d8133993bd7474a2206646621865fbf9264379f601d",
    ("dl", "equation", "--q", "2", "--n", "3"):
        "784d4fd0f7d18caf53065a9753b6b8459645ddcd7e6d775f8965ded7642d2f7c",
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
# each report otherwise unchanged
DL_REPORT_DIGESTS = {
    ("dl", "count", "--q", "2", "--n", "2", "--m", "2", "--list"):
        (0, "ac275c4b5c3e3e944aa25073bed12adc82e1748196788ed5ae3ab5ab2d6aee14"),
    ("dl", "count", "--q", "4", "--n", "2", "--m", "2", "--list"):
        (0, "b569ad1d509ed2e40812a2ad55a842e3f37069668aaba05732fc9244abc188a9"),
    ("dl", "count", "--q", "2", "--n", "3", "--m", "3", "--list"):
        (0, "3f7290564240b25f6fdc83cc89fc734fd573ba30bcf56d99738980582d967844"),
    ("dl", "count", "--q", "3", "--n", "2", "--m", "4", "--list"):
        (0, "5c0210b77c6cbe7b1745657bc46831c657a55558f61ad7e28e2818d5f79f9a8b"),
    ("dl", "count", "--q", "8", "--n", "2", "--m", "2", "--list"):
        (0, "7a53e6054647c68a04dcbd8546ba1e3c8b9bbb9cda40f2ef5e872ce5a49bea95"),
    ("dl", "count", "--q", "5", "--n", "2", "--m", "4", "--list"):
        (0, "afed19e66782b5e39fe3ef9e963784be4990e415b0e144ee5af5bd8d6b8c7c72"),
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
# correspondences byte-identical
CHARS_REPORT_DIGESTS = {
    ("chars", "table", "--q", "2", "--n", "2"):
        (0, "e8030fa1897a40b6ea7d65f793999dd72bb279912ccb830b3a1ad6b41065ff7a"),
    ("chars", "table", "--q", "3", "--n", "2"):
        (0, "046bc7ca6f8d06cb6c9b44527bf0edd91bc510ac49c1e3ab7b20a4bd43a9842a"),
    ("chars", "table", "--q", "2", "--n", "3"):
        (0, "5acca8383a2838ba8fff91b9ec7ff45f36b2b508a81614285fe65c467a048093"),
    ("chars", "table", "--q", "4", "--n", "2"):
        (0, "fd2735a29d5eb72ba523f087286ae08e2a49192372c6617c3857681716ccffe0"),
    ("chars", "table", "--q", "5", "--n", "2"):
        (0, "bb656811bd831c2c941bdc46dc231055add6478b5dbf524fe514095cadaffe08"),
    ("chars", "steinberg", "--q", "2", "--n", "2"):
        (0, "d6ca9fe2c900484e80fb590530fb0da068608a680497c0b713ab7f290ca4389f"),
    ("chars", "steinberg", "--q", "3", "--n", "2"):
        (0, "b0b97a1173f7b4e6b62e71f4658059e1fe5ad1f2f92dcc651287c164101d4349"),
    ("chars", "steinberg", "--q", "2", "--n", "3"):
        (0, "9343d6cd3a05df008ba035739c1727668649cbc73efa240e53422f3928947697"),
    ("chars", "steinberg", "--q", "4", "--n", "2"):
        (0, "2365a6824b8f6e5bede9a819bc0ad532915b8723623f70aa66b7bcf25ab750a7"),
    ("chars", "steinberg", "--q", "5", "--n", "2"):
        (0, "361e3e4c60ee3429a359f061be9b5e362d3ac656949a12055fcff9e22324a753"),
    ("chars", "correspondence", "--q", "2", "--n", "2"):
        (0, "f354665c53acb1e4c78c1e0007fcdec12bf90072119f0b5659fbe83152821f9e"),
    ("chars", "correspondence", "--q", "3", "--n", "2"):
        (0, "e0be33842a3fb14621e3b5c362f36726c81d4a7802cd6a1f8fa52ccb68b76d36"),
    ("chars", "correspondence", "--q", "2", "--n", "3"):
        (0, "f6dd8af3c5080a1a3bc9868cd3e2cfa6481b88a7d06d0881a6d80efd6a161fbb"),
    ("chars", "correspondence", "--q", "4", "--n", "2"):
        (0, "a8f39a94ec41d20ea812eb729c7f1ce70167e54968d38101389d8891ceadc87c"),
    ("chars", "correspondence", "--q", "5", "--n", "2"):
        (0, "ad136ed2236c2429e20cf52d7d79845d43d4d2f776ba4bcd7cf6b2ce9db19b9c"),
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
    # each suite that needs GL_n(F_q) reports the failed build as its one
    # error check; every check that does not need the group stays as it was
    code, clean = run_cli(tmp_path, "verify-all", "--q", "3", "--n", "2")
    assert code == 0
    honest = gl_characters.gl_generators
    monkeypatch.setattr(gl_characters, "gl_generators",
                        lambda field, n: doctor(honest(field, n)))
    code, report = run_cli(tmp_path, "verify-all", "--q", "3", "--n", "2")
    assert code == 1
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["depth0.error", "dl.error", "chars.error"]
    assert len({c["details"] for c in failed}) == 1
    needs_group = {"depth0.gl_linear_shadow", "dl.action_invariance"}
    assert [c for c in report["checks"] if c not in failed] == [
        c for c in clean["checks"]
        if c["name"] not in needs_group and not c["name"].startswith("chars.")]


def test_parameter_error_exit_2(tmp_path, capsys):
    code = main(["depth0", "chart", "--q", "9", "--n", "5"])
    assert code == 2
    assert "parameter error" in capsys.readouterr().err


def test_chart_monomial_budget_exit_2(capsys):
    # (2, 4) fits the q^n bound but its 4-variable chart does not fit the
    # monomial budget; it must refuse rather than run for hours
    code = main(["verify-all", "--q", "2", "--n", "4"])
    assert code == 2
    assert "monomials" in capsys.readouterr().err


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


@pytest.mark.parametrize("text,flags,message", [
    ("universal=true", ["--universal"], "unrecognized arguments: --universal=true"),
    ("universal=false", ["--universal=false"], "unrecognized arguments: --universal=false"),
    ("depth-sequence=9,9", ["--depth-sequence", "9,9"],
     "unrecognized arguments: --depth-sequence=9,9"),
    ("N=6\nlist=maybe", ["--list=maybe"], "argument --list: 'maybe' is not true or false"),
    ("help=true", ["--help=true"], "argument -h/--help: ignored explicit argument 'true'"),
    ("config=other.cfg", None, "argument --config: a config file names no other"),
], ids=["switch-of-another-command", "switch-set-false", "flag-of-another-command",
        "bad-switch-value", "help", "config"])
def test_config_file_keys_are_the_running_commands_flags(tmp_path, capsys, text, flags,
                                                         message):
    # the running subparser parses the file's flags, so a key exits 2 where
    # its flag on the command line does
    argv = ["dl", "count", "--q", "2", "--n", "2"]
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
    # F_{64^126} has degree 756 over F_2; its size has 228 digits
    assert main(["dl", "count", "--q", "64", "--n", "1", "--m", "126"]) == 3
    assert capsys.readouterr().err == "budget exceeded: ambient field degree 756 exceeds 8\n"


# each size limit refuses in RunConfig.validate(), before any handler runs;
# the configs inside it beside each refused one run to a complete report
SIZE_LIMITS = [
    ("dl count --q 2 --n 2 --m 9", "ambient field degree 9 exceeds 8",
     "dl count --q 2 --n 2 --m 8"),
    ("dl count --q 64 --n 1 --m 126", "ambient field degree 756 exceeds 8",
     "dl count --q 64 --n 1 --m 1"),
    ("dl count --q 3 --n 2 --m 8", "ambient field size 6561 exceeds 4096",
     "dl count --q 3 --n 2 --m 7"),
    ("dl count --q 4099 --n 1 --m 1", "ambient field size 4099 exceeds 4096",
     "dl count --q 4093 --n 1 --m 1"),
    ("dl count --q 2 --n 4 --m 8", "projective enumeration over budget",
     "dl count --q 2 --n 4 --m 6"),
    ("dl count --q 3 --n 3 --m 6", "projective enumeration over budget",
     "dl count --q 3 --n 3 --m 5"),
    ("chars table --q 32 --n 2", "|GL_2(F_32)| exceeds 30000",
     "chars steinberg --q 13 --n 2"),
    ("chars steinberg --q 2 --n 5", "|GL_5(F_2)| exceeds 30000",
     "chars steinberg --q 2 --n 4"),
]


@pytest.mark.parametrize("argv,message", [pytest.param(a, m, id=a) for a, m, _ in SIZE_LIMITS])
def test_size_limits_refuse_before_any_handler(argv, message, monkeypatch, capsys):
    def no_handler(cfg):
        raise AssertionError(f"the {cfg.command} handler ran for a refused config")

    with pytest.raises(BudgetError, match=f"^{re.escape(message)}$"):
        RunConfig(build_parser().parse_args(argv.split()))
    monkeypatch.setattr(cli, "HANDLERS", {name: no_handler for name in cli.HANDLERS})
    assert main(argv.split()) == 3
    assert capsys.readouterr() == ("", f"budget exceeded: {message}\n")


@pytest.mark.parametrize("argv", [inside for _, _, inside in SIZE_LIMITS])
def test_configs_inside_the_size_limits_run(tmp_path, argv):
    code, report = run_cli(tmp_path, *argv.split())
    assert code == 0
    assert report["checks"] and all(c["status"] == "pass" for c in report["checks"])


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
