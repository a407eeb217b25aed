import json

import pytest

from coreselect import (
    LlgBidProfile,
    ReferenceRule,
    core_violations,
    instance_to_json,
    llg_instance,
    project_to_mrc,
    reference_point,
    winner_determination,
)
from coreselect.cli import main


# Full stdout of `verify-table --seed 7 --samples 60`, so any change to a
# suite's counts or notes shows up here.
VERIFY_TABLE_SEED_7_SAMPLES_60 = (
    "closed-form reference table: 24/24 cells passed\n"
    "sensitivity consistency: 24/24 checks passed\n"
    "projection derivative oracle: 60/60 checks passed\n"
    "  vcg derivative values observed: [0.0, 0.5]\n"
    "region threshold table: 16/16 cells passed\n"
    "  note: shapley-with-auctioneer local1_strong inequality 2: simplified form 7B < G"
    " matches direct evaluation only on the a = g boundary (120/1000 sampled profiles differ)\n"
    "  note: shapley-with-auctioneer local2_strong inequality 1: simplified form 7A < G"
    " matches direct evaluation only on the b = g boundary (134/1000 sampled profiles differ)\n"
    "shapley axioms: 120/120 checks passed\n"
    "minimum-revenue projection: 200/200 checks passed\n"
    "all suites passed\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_wrong_llg_arity(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["payments", "--llg", "0.4", "--rule", "vcg"])
        assert excinfo.value.code == 2

    def test_unknown_rule(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["payments", "--llg", "0.4", "0.5", "0.8", "--rule", "nope"])
        assert excinfo.value.code == 2

    def test_malformed_number(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["payments", "--llg", "0.4", "x", "0.8", "--rule", "vcg"])
        assert excinfo.value.code == 2


class TestPayments:
    def test_shapley_line(self, capsys):
        code, out, _ = run(
            capsys, "payments", "--llg", "0.4", "0.5", "0.8", "--rule", "shapley-no-auctioneer"
        )
        assert code == 0
        assert out == "case=locals_weak p1=0.166667 p2=0.216667\n"

    def test_vcg_line(self, capsys):
        code, out, _ = run(capsys, "payments", "--llg", "0.4", "0.5", "0.8", "--rule", "vcg")
        assert code == 0
        assert out == "case=locals_weak p1=0.300000 p2=0.400000\n"

    def test_global_winner_falls_back_to_engine(self, capsys):
        code, out, _ = run(capsys, "payments", "--llg", "0.2", "0.3", "0.9", "--rule", "vcg")
        assert code == 0
        assert out == "case=global_winner p1=0.000000 p2=0.000000 p3=0.500000\n"

    def test_instance_file(self, capsys, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(instance_to_json(llg_instance(0.4, 0.5, 0.8)))
        code, out, _ = run(capsys, "payments", "--instance", str(path), "--rule", "first-price")
        assert code == 0
        assert out == "p1=0.400000 p2=0.500000 p3=0.000000\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "payments", "--instance", "/no/such/file.json", "--rule", "vcg")
        assert code == 2
        assert "error" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "payments", "--instance", str(path), "--rule", "vcg")
        assert code == 2
        assert "error" in err

    def test_negative_bid_rejected(self, capsys):
        code, _, err = run(capsys, "payments", "--llg", "-0.1", "0.5", "0.8", "--rule", "vcg")
        assert code == 2
        assert "error" in err


class TestProjectAndSensitivity:
    def test_project_line(self, capsys):
        code, out, _ = run(capsys, "project", "--llg", "0.4", "0.5", "0.8", "--rule", "vcg")
        assert code == 0
        assert out == "case=locals_weak p1=0.350000 p2=0.450000 p3=0.000000\n"

    def test_project_in_tie_window(self, capsys):
        # a + b falls short of g by less than the engine's tie tolerance, so
        # the engine gives both goods to the locals and the projection must too.
        code, out, _ = run(
            capsys, "project", "--llg", "0.4", "0.5", "0.9000000000001", "--rule", "vcg"
        )
        assert code == 0
        assert out == "case=locals_weak p1=0.400000 p2=0.500000 p3=0.000000\n"
        profile = LlgBidProfile(0.4, 0.5, 0.9000000000001)
        instance = profile.to_instance()
        assert profile.locals_win()
        assert winner_determination(instance).winners() == (1, 2)
        projected = project_to_mrc(profile, reference_point(instance, ReferenceRule.VCG))
        assert not core_violations(instance, projected)

    def test_project_metric_validation(self, capsys):
        code, _, err = run(
            capsys, "project", "--llg", "0.4", "0.5", "0.8", "--rule", "vcg", "--metric", "1.0"
        )
        assert code == 2
        assert "error" in err

    def test_sensitivity_line(self, capsys):
        code, out, _ = run(
            capsys, "sensitivity", "--llg", "1.2", "0.3", "0.8", "--rule", "vcg"
        )
        assert code == 0
        assert out == "case=local1_strong sens1=0.000000 sens2=1.000000\n"


class TestDerivative:
    def test_interior_with_numeric(self, capsys):
        code, out, _ = run(capsys, "derivative", "--llg", "0.4", "0.5", "0.8", "--rule", "vcg")
        assert code == 0
        assert "region=interior d=0.500000 numeric=0.500000" in out

    def test_global_winner_is_usage_error(self, capsys):
        code, _, err = run(capsys, "derivative", "--llg", "0.2", "0.3", "0.9", "--rule", "vcg")
        assert code == 2
        assert "error" in err

    def test_boundary_reports_numeric_na(self, capsys):
        code, out, _ = run(
            capsys, "derivative", "--llg", "0.5", "0.5", "1.0", "--rule", "vcg"
        )
        assert code == 0
        assert "numeric=n/a" in out
        assert "boundary=1" in out


class TestRegionMap:
    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "map.csv"
        code, _, _ = run(
            capsys,
            "region-map",
            "--rule",
            "vcg",
            "--resolution",
            "5",
            "--out",
            str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "A,B,case,region,derivative,sensitivity"
        assert len(lines) == 26

    def test_deterministic_bytes(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run(
                capsys,
                "region-map",
                "--rule",
                "shapley-with-auctioneer",
                "--resolution",
                "16",
                "--out",
                str(path),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_svg_output(self, capsys, tmp_path):
        svg_path = tmp_path / "map.svg"
        code, out, _ = run(
            capsys,
            "region-map",
            "--rule",
            "vcg",
            "--resolution",
            "4",
            "--out",
            str(tmp_path / "map.csv"),
            "--svg",
            str(svg_path),
        )
        assert code == 0
        text = svg_path.read_text()
        assert text.startswith("<svg")
        assert text.count("<rect") >= 4 + 1  # cells plus background
        assert text.count("<line") == 2


class TestCoreCheck:
    def test_in_core(self, capsys):
        code, out, _ = run(
            capsys,
            "core-check",
            "--llg",
            "0.4",
            "0.5",
            "0.8",
            "--payments",
            "0.35",
            "0.45",
            "0",
        )
        assert code == 0
        assert json.loads(out) == []

    def test_vcg_violates(self, capsys):
        code, out, _ = run(
            capsys,
            "core-check",
            "--llg",
            "0.4",
            "0.5",
            "0.8",
            "--payments",
            "0.3",
            "0.4",
            "0",
        )
        assert code == 1
        violations = json.loads(out)
        assert len(violations) == 1
        assert violations[0]["kind"] == "coalition"
        assert violations[0]["coalition"] == [3]
        assert violations[0]["slack"] == pytest.approx(-0.1)

    def test_instance_file(self, capsys, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(instance_to_json(llg_instance(0.4, 0.5, 0.8)))
        code, out, _ = run(
            capsys,
            "core-check",
            "--instance",
            str(path),
            "--payments",
            "0.4",
            "0.5",
            "0",
        )
        assert code == 0

    def test_wrong_payment_count(self, capsys):
        code, _, err = run(
            capsys, "core-check", "--llg", "0.4", "0.5", "0.8", "--payments", "0.1"
        )
        assert code == 2
        assert "error" in err


class TestVerifyTable:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify-table", "--seed", "7", "--samples", "60")
        assert code == 0
        assert "closed-form reference table: 24/24 cells passed" in out
        assert "all suites passed" in out
        assert out == VERIFY_TABLE_SEED_7_SAMPLES_60

    def test_deterministic_output(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "verify-table", "--seed", "11", "--samples", "40")
            outputs.append(out)
        assert outputs[0] == outputs[1]
