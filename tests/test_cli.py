import json

import pytest

from ltdl.cli import main


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
