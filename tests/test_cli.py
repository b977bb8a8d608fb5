import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ltdl import cli, depth0, dl_variety, gl_characters
from ltdl.cli import RunConfig, build_parser, main
from ltdl.errors import BudgetError, ParameterError, VerificationError


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


def test_verify_all_41_omits_twisted_sum_past_degree_cap(tmp_path):
    # the m = 2 twisted sum needs F_{4^6} = F_{2^12}, past ff_make's degree cap
    code, report = run_cli(tmp_path, "verify-all", "--q", "4", "--n", "1")
    assert code == 0
    assert report["results"]["omitted_checks"] == [
        {"check": "dl.twisted_sum_m2", "reason": "ambient field degree 12 exceeds 8"}]
    assert all(c["status"] == "pass" for c in report["checks"])


def test_raising_suite_keeps_the_other_suites(tmp_path, monkeypatch):
    def broken_table(group, max_attempts=4):
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


def doubled_points(monkeypatch):
    # every point enumerated twice: each fiber over a base point doubles
    points = dl_variety.Ambient.points
    monkeypatch.setattr(dl_variety.Ambient, "points",
                        lambda amb: [x for x in points(amb) for _ in (0, 1)])


def shifted_zeta_action(monkeypatch):
    # scaling by zeta != 1 also adds 1 to each coordinate
    act = dl_variety.act

    def shifted(amb, x, g=None, zeta=None):
        out = act(amb, x, g, zeta)
        return out if zeta in (None, 1) else tuple(amb.field.add(v, 1) for v in out)

    monkeypatch.setattr(dl_variety, "act", shifted)


@pytest.mark.parametrize("doctor,failed", [
    (doubled_points, {"name": "dl.fibers_m2", "status": "fail",
                      "details": "fiber sizes [6] != gcd = 3"}),
    (shifted_zeta_action, {"name": "dl.action_invariance", "status": "fail",
                           "details": "an image left the variety"}),
])
def test_failing_dl_check_is_reported_under_its_name(tmp_path, monkeypatch, doctor, failed):
    doctor(monkeypatch)
    code, report = run_cli(tmp_path, "verify-all", "--q", "2", "--n", "2")
    assert code == 1
    assert [c["name"] for c in report["checks"] if c["name"].startswith("dl.")] == [
        "dl.base_points_m1", "dl.fibers_m1", "dl.twisted_sum_m1",
        "dl.base_points_m2", "dl.fibers_m2", "dl.twisted_sum_m2", "dl.action_invariance"]
    assert [c for c in report["checks"] if c["status"] == "fail"] == [failed]
    if doctor is doubled_points:
        code, report = run_cli(tmp_path, "dl", "fibers", "--q", "2", "--n", "2", "--m", "2")
        assert code == 1
        assert report["results"]["invariants_passed"] is False
        assert report["checks"] == [dict(failed, name="fiber_size_gcd")]


def test_budget_error_omits_only_its_check(tmp_path, monkeypatch):
    def over_budget(q, n, m):
        raise BudgetError("doctored point budget")

    monkeypatch.setattr(cli, "dl_points", over_budget)
    code, report = run_cli(tmp_path, "verify-all", "--q", "2", "--n", "2")
    assert code == 0
    assert report["results"]["omitted_checks"] == [
        {"check": f"dl.base_points_m{m}", "reason": "doctored point budget"} for m in (1, 2)]
    names = [c["name"] for c in report["checks"]]
    for name in ("dl.fibers_m1", "dl.twisted_sum_m2", "dl.action_invariance",
                 "depth0.gl_linear_shadow", "chars.degree_squares_sum"):
        assert name in names
    assert all(c["status"] == "pass" for c in report["checks"])


@pytest.mark.parametrize("target,error", [("deformation_factors", BudgetError),
                                          ("CorrespondenceData", ParameterError)])
def test_budget_and_parameter_errors_become_suite_errors(tmp_path, monkeypatch, target, error):
    def escaping(*args, **kwargs):
        raise error("doctored escape")

    monkeypatch.setattr(cli, target, escaping)
    code, report = run_cli(tmp_path, "verify-all", "--q", "2", "--n", "2")
    assert code == 1
    suite = "depth0" if target == "deformation_factors" else "chars"
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed == [{"name": f"{suite}.error", "status": "fail",
                       "details": "doctored escape"}]
    names = [c["name"] for c in report["checks"]]
    for other in {"formal_module", "depth0", "dl", "chars"} - {suite}:
        assert any(name.startswith(other + ".") for name in names), other


def test_verify_all_32_1_ends_with_a_report(tmp_path):
    # F_{32^2} has degree 10, past ff_make's degree cap of 8: every check
    # at m = 2 and the twisted sums are omitted, and the rest still runs
    code, report = run_cli(tmp_path, "verify-all", "--q", "32", "--n", "1")
    assert code == 0
    omitted = report["results"]["omitted_checks"]
    assert [o["check"] for o in omitted] == [
        "dl.twisted_sum_m1", "dl.base_points_m2", "dl.fibers_m2", "dl.twisted_sum_m2",
        "dl.action_invariance"]
    assert omitted[1]["reason"] == "ambient field degree 10 exceeds 8"
    names = [c["name"] for c in report["checks"]]
    assert "formal_module.associativity" in names and "depth0.un_equals_dl" in names
    assert "dl.base_points_m1" in names and "chars.degree_squares_sum" in names
    assert all(c["status"] == "pass" for c in report["checks"])


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
    # dl_points lists DL(F_{q^m}) once per m, and the fiber and action
    # checks walk that list instead of enumerating F_{q^m}^n again
    walks = Counter()
    honest = dl_variety.Ambient.points

    def counted(amb):
        walks[amb.m] += 1
        return honest(amb)

    monkeypatch.setattr(dl_variety.Ambient, "points", counted)
    code, report = run_cli(tmp_path, "verify-all", "--q", str(q), "--n", str(n))
    assert code == 0
    names = {c["name"] for c in report["checks"]}
    assert {"dl.fibers_m1", "dl.fibers_m2", "dl.action_invariance"} <= names
    assert walks == {1: 1, 2: 1}


# sha256 of the sorted-key JSON of each report's results and checks
# (config and version left out), frozen so that a refactor proves its
# reports byte-identical
VERIFY_ALL_DIGESTS = {
    (2, 2): "b4b0ef0f147fd9c472fa4e1cc332d6fb5a22ef4d72fadaee534e0347347d4140",
    (2, 3): "3d89c67f336812369708ab5d20e8729ffa2536dfbf91c67be20ece538ee83446",
    (3, 2): "eae42f9504e5bcae580146f136da540f3c4da58542ef12a368d65df8973d2e8f",
    (4, 1): "8bf3db5429d1899c6ed658a3697aca185a431c1a7f6086abd7d4740138c19f41",
    (4, 2): "dffb28b468551a08d46d49cdf2e7e93ff121edfa1d6c0b7a3b9584ac75adb534",
    (5, 2): "51bf005daa9681dff85b933cdead435db21b1189964151deb18fb50cc57d80a0",
    (8, 1): "5f8ee2afeaf37888494fd5f8379820d53b25b64df9b1c3c3196d31dc92d82b9a",
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
DL_CHECKS = [f"dl.{check}_m{m}" for m in (1, 2)
             for check in ("base_points", "fibers", "twisted_sum")] + ["dl.action_invariance"]


def test_verify_all_grid_holds_the_frozen_configs():
    assert len(VERIFY_ALL_CONFIGS) == 33
    assert set(VERIFY_ALL_DIGESTS) < set(VERIFY_ALL_CONFIGS)


@pytest.mark.parametrize("q,n", VERIFY_ALL_CONFIGS)
def test_verify_all_grid_is_complete(tmp_path, q, n):
    # every accepted config ends with all four suites and every dl check
    # either run or omitted with its reason
    code, report = run_cli(tmp_path, "verify-all", "--q", str(q), "--n", str(n))
    assert code == 0
    results = report["results"]
    assert results["suites"] == ["formal_module", "depth0", "dl", "chars"]
    names = [c["name"] for c in report["checks"]]
    omitted = [o["check"] for o in results.get("omitted_checks", [])]
    assert sorted(name for name in names + omitted if name.startswith("dl.")) == sorted(DL_CHECKS)
    if (q, n) in VERIFY_ALL_DIGESTS:
        body = json.dumps({"results": results, "checks": report["checks"]}, sort_keys=True)
        assert hashlib.sha256(body.encode()).hexdigest() == VERIFY_ALL_DIGESTS[q, n]


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


def test_dl_twisted_budget_follows_the_root_enumeration(tmp_path):
    # the twist field F_{3^6} has 3^18 points in dimension 3, but the twisted
    # sum enumerates only the 2^3 candidate roots per zeta
    code, report = run_cli(tmp_path, "dl", "twisted", "--q", "3", "--n", "3", "--m", "1")
    assert code == 0
    assert report["results"]["twist_field_degree"] == 6
    assert report["results"]["matches"] is True


def test_bad_config_file_values_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text, message in [("q=abc\n", "config value q='abc' is not an integer"),
                          ("n=2\nformat=xml\n", "config value format='xml' is not json or csv"),
                          ("timing=yes\n", "config value timing='yes' is not true or false"),
                          ("jobs=4\n", "config key 'jobs' is not a flag")]:
        cfg.write_text(text)
        assert main(["dl", "count", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"parameter error: {message}\n"


@pytest.mark.parametrize("subcommand", ["count", "fibers", "twisted"])
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
