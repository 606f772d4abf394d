"""CLI behaviour: exit codes, report schema, determinism, artifacts."""

import json
import os

import pytest

from wavesym.cli import main


def run(tmp_path, *args):
    out = tmp_path / "report.json"
    code = main(list(args) + ["--format", "json", "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert main(["classify", "--case", "i", "--param", "c=0"]) == 2
        assert main(["classify", "--case", "i", "--param", "nonsense"]) == 2
        assert main(["verify", "--grid", "4"]) == 2

    def test_zero_family_parameter_in_verify_is_2(self, capsys):
        assert main(["verify", "--param", "c=0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "c must be nonzero" in err

    def test_negative_degree_is_2(self, capsys):
        assert main(["classify", "--case", "i", "--degree", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--degree" in err

    def test_degree_zero_classify_fails_with_note(self, tmp_path):
        code, report = run(tmp_path, "classify", "--case", "i", "--degree", "0")
        assert code == 1
        stage = report["stages"]["classify"]
        assert stage["dimension"] == 3
        assert "too small" in stage["dimension_note"]

    def test_default_classify_flags_dimension_discrepancy(self, tmp_path):
        code, report = run(tmp_path, "classify", "--case", "ii")
        stage = report["stages"]["classify"]
        # engine checks pass; the reference dimension check fails by design
        assert stage["residual_certificate"] is True
        assert stage["reference_table_matches"] is True
        assert stage["jacobi_all_zero"] is True
        assert stage["dimension"] == 6
        assert not stage["dimension_matches_reference"]
        assert code == 1

    def test_reduce_passes(self, tmp_path):
        code, report = run(tmp_path, "reduce", "--case", "i", "--generator", "v1")
        assert code == 0
        stage = report["stages"]["reduce"]
        assert stage["reference_match"] is True
        assert stage["separation_identity"] is True

    def test_verify_passes(self, tmp_path):
        code, report = run(tmp_path, "verify")
        assert code == 0
        assert report["stages"]["verify"]["passed"] is True


class TestReportContents:
    def test_schema_and_flags(self, tmp_path):
        code, report = run(tmp_path, "reduce", "--case", "i", "--generator", "v4")
        assert report["schema_version"] == 1
        assert report["tool"]["name"] == "wavesym"
        assert "explicit_constraint_sign" in report["discrepancy_flags"]
        stage = report["stages"]["reduce"]
        assert stage["explicit_constraint_matches_reference"] is False
        assert stage["explicit_solution_residual_zero"] is True

    def test_trivial_generator_note(self, tmp_path):
        code, report = run(tmp_path, "reduce", "--case", "i", "--generator", "v3")
        assert code == 0
        stage = report["stages"]["reduce"]
        assert stage["trivial_invariants"] == ["x", "t", "u"]

    def test_derive_lists_conditions(self, tmp_path):
        code, report = run(tmp_path, "derive")
        assert code == 0
        stage = report["stages"]["derive"]
        assert stage["n_equations"] == 34
        assert stage["conditions_not_implied"] == [
            "eta_no_x", "tau_t_matches_phi_u", "xi_no_y",
        ]
        check = stage["implication_check"]
        assert check["ranks"] == [223, 223]
        assert check["wrong_rank_bound_per_point"] < 1e-6

    def test_verify_writes_convergence_csv(self, tmp_path):
        code, report = run(tmp_path, "verify")
        files = report["stages"]["verify"]["csv_files"]
        assert len(files) == 4
        for path in files:
            assert os.path.exists(path)
            header = open(path).readline().strip()
            assert header == "h,max_residual,rms_residual"

    def test_param_fractions_accepted(self, tmp_path):
        code, report = run(tmp_path, "reduce", "--case", "i", "--generator", "v1",
                           "--param", "c=3/2")
        assert code == 0
        assert report["config"]["params"] == {"c": "3/2"}


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["classify", "--case", "i", "--degree", "1", "--format", "json"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_text_rendering(self, capsys):
        code = main(["reduce", "--case", "ii", "--generator", "v4"])
        text = capsys.readouterr().out
        assert "reduced_equation" in text
        assert "overall_pass: True" in text
        assert code == 0
