import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coreselect import (
    LlgBidProfile,
    ReferenceRule,
    core_violations,
    instance_to_json,
    llg_instance,
    project_to_mrc,
    reference_point,
    region_map,
    winner_determination,
)
import coreselect.cli
from coreselect.cli import _violations_json, main, render_region_map_svg
from coreselect.core import CoreConstraint, CoreViolation
from coreselect.verify import random_instance
from helpers import (
    WRITER_GRIDS,
    assert_same_text,
    hand_built_region_map,
    render_region_map_svg_by_cell,
    twelve_bidder_instance,
    twelve_bidder_payments,
    vcg_cancellation_instance,
    violations_json_by_dumps,
)


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


# sha256 of `verify-table --seed 7 --samples 1000` stdout.
VERIFY_TABLE_SEED_7_SHA256 = "7885271742bcf8bc3f96f1bb01b6608924b41010496a508670243be77458a6eb"


# sha256 of `core-check` stdout for the fixed 12-bidder instance and payments
# in tests/helpers.py: 1,641 violations, 423,339 bytes, on CPython 3.10 to 3.13 alike.
CORE_CHECK_TWELVE_BIDDERS_SHA256 = "a1ab979fabf30c23f82c88ab3b185236ae0b5c6947083b372011ca5fff4c9e4c"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_parser_afresh(monkeypatch):
    """Make ``main``'s next call build a new parser, under the module's current names.

    ``main`` reuses one parser per process, so a test that rebinds a name the
    parser is built from rebinds ``_build_parser`` too; monkeypatch puts the
    process's parser back afterwards.
    """
    monkeypatch.setattr(
        coreselect.cli, "_build_parser", functools.cache(coreselect.cli._build_parser.__wrapped__)
    )


class TestParsing:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_wrong_llg_arity(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["payments", "--llg", "0.4", "--rule", "vcg"])
        assert excinfo.value.code == 2

    def test_llg_token_that_is_no_number(self, capsys):
        # "-x" does not read as a float, so argparse takes it for an option.
        with pytest.raises(SystemExit) as excinfo:
            main(["payments", "--llg", "-x", "0.5", "0.8", "--rule", "vcg"])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --llg: expected 3 arguments" in err

    def test_unknown_rule(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["payments", "--llg", "0.4", "0.5", "0.8", "--rule", "nope"])
        assert excinfo.value.code == 2

    def test_malformed_number(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["payments", "--llg", "0.4", "x", "0.8", "--rule", "vcg"])
        assert excinfo.value.code == 2


def run_step(argv, out_dir):
    """``main(argv)``'s exit code, stdout, stderr and the files it wrote to ``out_dir``.

    argparse's own exits count as exit codes; the files are read and removed.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    files = {}
    for path in sorted(out_dir.iterdir()):
        files[path.name] = path.read_text(encoding="utf-8")
        path.unlink()
    return code, out.getvalue(), err.getvalue(), files


class TestParserReuse:
    """``main`` builds its parser once per process; no call leaves state in it."""

    @staticmethod
    def steps(tmp_path):
        instance = tmp_path / "instance.json"
        instance.write_text(instance_to_json(llg_instance(0.4, 0.5, 0.8)))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        svg, out = out_dir / "map.svg", out_dir / "payments.txt"
        llg = ["--llg", "0.4", "0.5", "0.8"]
        argvs = [
            # Every subcommand, each option given and then left to its default.
            ["payments", *llg, "--rule", "vcg"],
            ["payments", "--instance", str(instance), "--rule", "first-price"],
            ["project", *llg, "--rule", "shapley-with-auctioneer", "--metric", "3"],
            ["project", *llg, "--rule", "shapley-with-auctioneer"],
            ["sensitivity", *llg, "--rule", "shapley-no-auctioneer"],
            ["derivative", "--llg", "0.4", "0.8", "0.8", "--rule", "vcg", "--step", "1e-4"],
            ["derivative", "--llg", "0.4", "0.8", "0.8", "--rule", "vcg"],
            ["region-map", "--rule", "vcg", "--g", "2", "--resolution", "5", "--svg", str(svg)],
            ["region-map", "--rule", "vcg", "--resolution", "4"],
            ["verify-table", "--seed", "3", "--samples", "1"],
            ["core-check", *llg, "--payments", "0.1", "0.2", "0"],
            ["core-check", "--instance", str(instance), "--payments", "0.3", "0.5", "0"],
            # An argparse error, --help, then an input error from main's except.
            ["payments", "--llg", "0.4", "--rule", "vcg"],
            ["payments", "--help"],
            ["payments", "--instance", str(tmp_path / "missing.json"), "--rule", "vcg"],
            # --out, then the same call without it, which prints to stdout.
            ["payments", *llg, "--rule", "vcg", "--out", str(out)],
            ["payments", *llg, "--rule", "vcg"],
        ]
        return argvs, out_dir

    def test_builds_once(self, tmp_path):
        argvs, out_dir = self.steps(tmp_path)
        run_step(argvs[0], out_dir)
        misses = coreselect.cli._build_parser.cache_info().misses
        for argv in argvs:
            run_step(argv, out_dir)
        assert coreselect.cli._build_parser.cache_info().misses == misses

    def test_no_state_carried_between_calls(self, tmp_path, monkeypatch):
        argvs, out_dir = self.steps(tmp_path)
        reused = [run_step(argv, out_dir) for argv in argvs]
        fresh = []
        for argv in argvs:
            build_parser_afresh(monkeypatch)
            fresh.append(run_step(argv, out_dir))
        assert reused == fresh
        assert [step[0] for step in reused] == [0] * 10 + [1, 0, 2, 0, 2, 0, 0]
        (_, written, _, files), (_, printed, _, _) = reused[-2:]
        assert (written, files) == ("", {"payments.txt": printed})
        assert printed.startswith("case=locals_weak ")

    def test_defaults_are_immutable(self):
        parser = coreselect.cli._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parsers = [parser, *sub.choices.values()]
        defaults = [action.default for p in parsers for action in p._actions]
        defaults += [value for p in parsers for value in p._defaults.values()]
        assert sum(map(callable, defaults)) == len(sub.choices)
        immutable = (type(None), str, int, float, bool, tuple)
        assert [value for value in defaults if not (isinstance(value, immutable) or callable(value))] == []

    def test_import_builds_no_parser(self):
        src = pathlib.Path(coreselect.cli.__file__).resolve().parent.parent
        code = "import coreselect.cli as cli; print(cli._build_parser.cache_info().misses)"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout == "0\n"


class TestOutFile:
    """``main`` writes a command's text to --out only once the command has run."""

    @pytest.mark.parametrize(
        "argv, expected_code",
        [
            (["payments", "--instance", "missing.json", "--rule", "vcg"], 2),
            (["project", "--llg", "0.4", "0.5", "0.8", "--rule", "vcg", "--metric", "1"], 2),
            # The global bidder wins at (0.2, 0.3, 0.9).
            (["sensitivity", "--llg", "0.2", "0.3", "0.9", "--rule", "vcg"], 2),
            (["derivative", "--llg", "0.4", "0.8", "0.8", "--rule", "vcg", "--step", "0"], 2),
            (["core-check", "--llg", "0.4", "0.5", "0.8", "--payments", "0.35", "0.45"], 2),
            (["verify-table", "--samples", "0"], 2),
            # VCG's payments fall short of the global bidder's bid: exit 1 with a report.
            (["core-check", "--llg", "0.4", "0.5", "0.8", "--payments", "0.3", "0.4", "0"], 1),
        ],
    )
    def test_written_only_after_the_command_runs(
        self, capsys, tmp_path, monkeypatch, argv, expected_code
    ):
        monkeypatch.chdir(tmp_path)
        code, printed, err = run(capsys, *argv)
        assert code == expected_code
        assert run(capsys, *argv, "--out", "out.txt") == (code, "", err)
        if code == 2:
            assert printed == "" and not (tmp_path / "out.txt").exists()
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        else:
            assert json.loads(printed) and err == ""
            assert (tmp_path / "out.txt").read_text(encoding="utf-8") == printed


# Each command's arguments besides --llg and --instance.
_LLG_OR_INSTANCE_TAILS = {
    "payments": ("--rule", "vcg"),
    "core-check": ("--payments", "0.3", "0.4", "0"),
}


class TestLlgOrInstance:
    """payments and core-check take exactly one of --llg and --instance."""

    def reject(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        out, err = capsys.readouterr()
        assert (excinfo.value.code, out) == (2, "")
        return err

    @pytest.mark.parametrize("command", sorted(_LLG_OR_INSTANCE_TAILS))
    def test_both_rejected(self, capsys, tmp_path, command):
        path = tmp_path / "instance.json"
        path.write_text(instance_to_json(llg_instance(0.4, 0.5, 0.8)))
        argv = [command, "--llg", "0.4", "0.5", "0.8", "--instance", str(path)]
        err = self.reject(capsys, argv + list(_LLG_OR_INSTANCE_TAILS[command]))
        assert "not allowed with argument" in err, err

    @pytest.mark.parametrize("command", sorted(_LLG_OR_INSTANCE_TAILS))
    def test_neither_rejected(self, capsys, command):
        err = self.reject(capsys, [command, *_LLG_OR_INSTANCE_TAILS[command]])
        assert "one of the arguments --llg --instance is required" in err, err


class TestNegativeNumbers:
    """A "-"-prefixed token that float() reads is a value, never an option."""

    def test_exponent_notation_reads_as_decimal(self, capsys):
        llg = ("core-check", "--llg", "0.4", "0.5", "0.8", "--payments", "0.35")
        exponent = run(capsys, *llg, "-1e-3", "0")
        decimal = run(capsys, *llg, "-0.001", "0")
        assert exponent == decimal
        assert exponent[0] == 1

    def test_exponent_notation_bid_reaches_bid_check(self, capsys):
        code, out, err = run(
            capsys, "core-check", "--llg", "-1e-3", "0.5", "0.8", "--payments", "0", "0", "0"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "LLG bid a" in err, err

    @pytest.mark.parametrize(
        "command",
        [
            "payments",
            "project",
            "sensitivity",
            "derivative",
            "region-map",
            "verify-table",
            "core-check",
        ],
    )
    def test_help_matches_plain_argparse(self, capsys, monkeypatch, command):
        def help_text():
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            return capsys.readouterr().out

        ours = help_text()
        monkeypatch.setattr(coreselect.cli, "_SubcommandParser", argparse.ArgumentParser)
        build_parser_afresh(monkeypatch)
        assert ours == help_text()


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

    def test_vcg_loser_prints_plain_zero(self, capsys, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(instance_to_json(vcg_cancellation_instance()))
        code, out, _ = run(capsys, "payments", "--instance", str(path), "--rule", "vcg")
        assert code == 0
        assert out.split()[2] == "p3=0.000000", out

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

    @pytest.mark.parametrize(
        "field, goods, bidder",
        [
            ("goods", "g1", {"id": 1, "bids": [{"bundle": ["g1"], "value": 0.5}]}),
            ("bundle", ["g1", "2"], {"id": 1, "bids": [{"bundle": "2", "value": 0.5}]}),
            # Names are not converted with str(), so null and 2 cannot stand in for "None" and "2".
            (
                "goods",
                [None, 2],
                {
                    "id": 1,
                    "bids": [{"bundle": ["None"], "value": 0.5}, {"bundle": [2], "value": 0.5}],
                },
            ),
            ("goods", ["g1", ["g2"]], {"id": 1, "bids": [{"bundle": ["g1"], "value": 0.5}]}),
            ("bundle", ["g1", "2"], {"id": 1, "bids": [{"bundle": ["g1", 2], "value": 0.5}]}),
            ("bundle", ["g1"], {"id": 1, "bids": [{"bundle": [None], "value": 0.5}]}),
            ("id", ["g1"], {"id": 1.7, "bids": [{"bundle": ["g1"], "value": 0.5}]}),
            ("id", ["g1"], {"id": True, "bids": [{"bundle": ["g1"], "value": 0.5}]}),
            ("value", ["g1"], {"id": 1, "bids": [{"bundle": ["g1"], "value": True}]}),
        ],
    )
    def test_malformed_shape_rejected(self, capsys, tmp_path, field, goods, bidder):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"goods": goods, "bidders": [bidder]}))
        code, out, err = run(capsys, "payments", "--instance", str(path), "--rule", "first-price")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith(f'error: instance field "{field}" '), err

    def test_duplicate_goods_rejected(self, capsys, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"goods": ["g1", "g1"], "bidders": []}))
        code, out, err = run(capsys, "payments", "--instance", str(path), "--rule", "vcg")
        assert (code, out, err) == (2, "", "error: duplicate good identifiers\n")

    def test_value_too_large_for_a_float_rejected(self, capsys, tmp_path):
        path = tmp_path / "instance.json"
        bid = '{"bundle": ["g1"], "value": 1' + "0" * 400 + "}"
        path.write_text('{"goods": ["g1"], "bidders": [{"id": 1, "bids": [' + bid + "]}]}")
        code, out, err = run(capsys, "payments", "--instance", str(path), "--rule", "first-price")
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed instance object"), err


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

    def test_project_tie_window_scales_with_bids(self, capsys):
        # The same profile as 0.4 0.5 0.9000000000000009, scaled by 1e6: the
        # gap is inside the tie tolerance at either scale, so the locals win.
        code, out, _ = run(
            capsys, "project", "--llg", "4e5", "5e5", "900000.0000000009", "--rule", "vcg"
        )
        assert code == 0
        assert out == "case=locals_weak p1=400000.000000 p2=500000.000000 p3=0.000000\n"

    def test_project_zero_locals_lose(self, capsys):
        code, out, _ = run(capsys, "project", "--llg", "0", "0", "1e-13", "--rule", "vcg")
        assert code == 0
        assert out.startswith("case=global_winner ")

    def test_project_metric_validation(self, capsys):
        for metric in ("1.0", "nan"):
            code, out, err = run(
                capsys, "project", "--llg", "0.4", "0.5", "0.8", "--rule", "vcg", "--metric", metric
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "metric exponent" in err, err
        # inf is the L_inf metric and projects like every other c > 1.
        code, out, _ = run(
            capsys, "project", "--llg", "0.4", "0.5", "0.8", "--rule", "vcg", "--metric", "inf"
        )
        assert code == 0
        assert out == "case=locals_weak p1=0.350000 p2=0.450000 p3=0.000000\n"

    def test_sensitivity_line(self, capsys):
        code, out, _ = run(
            capsys, "sensitivity", "--llg", "1.2", "0.3", "0.8", "--rule", "vcg"
        )
        assert code == 0
        assert out == "case=local1_strong sens1=0.000000 sens2=1.000000\n"

    def test_sensitivity_global_winner_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "sensitivity", "--llg", "0.2", "0.3", "0.9", "--rule", "vcg"
        )
        assert code == 2
        assert out == ""
        assert err == "error: global bidder wins at (a, b, g) = (0.2, 0.3, 0.9)\n"


class TestDerivative:
    def test_interior_with_numeric(self, capsys):
        code, out, _ = run(capsys, "derivative", "--llg", "0.4", "0.5", "0.8", "--rule", "vcg")
        assert code == 0
        assert "region=interior d=0.500000 numeric=0.500000" in out

    def test_global_winner_is_usage_error(self, capsys):
        code, _, err = run(capsys, "derivative", "--llg", "0.2", "0.3", "0.9", "--rule", "vcg")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("step", ["0", "-0.3", "nan", "1e-300"])
    def test_invalid_step_is_usage_error(self, capsys, step):
        code, out, err = run(
            capsys, "derivative", "--llg", "0.4", "0.5", "0.8", "--rule", "vcg", "--step", step
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and "step" in err, err

    def test_boundary_reports_numeric_na(self, capsys):
        code, out, _ = run(
            capsys, "derivative", "--llg", "0.5", "0.5", "1.0", "--rule", "vcg"
        )
        assert code == 0
        assert "numeric=n/a" in out
        assert "boundary=1" in out

    def test_small_interior_profile_is_not_on_a_kink(self, capsys):
        # The kink tolerance and the default step scale with the bids, so at
        # bids near 1e-9 only profiles near a segment end are flagged and the
        # finite difference runs, as at bids near 1.
        code, out, _ = run(
            capsys, "derivative", "--llg", "1e-9", "2e-9", "2.5e-9", "--rule", "vcg"
        )
        assert code == 0
        assert out.startswith("case=locals_weak region=interior d=0.500000 numeric=0.500000 ")
        assert "boundary=1" not in out

    def test_step_underflowing_to_zero_reports_numeric_na(self, capsys):
        # 1e-5 * max(g, a) rounds to 0 for these subnormal bids.
        code, out, _ = run(
            capsys, "derivative", "--llg", "2e-320", "1.5e-320", "1e-320", "--rule", "vcg"
        )
        assert code == 0
        assert "numeric=n/a" in out


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


# sha256 of the region-map CSV and SVG bytes at --g 2.5 --resolution 77, per rule.
REGION_MAP_G_2_5_RESOLUTION_77 = {
    "first-price": (
        "14141039eb06234e119fd8cb30d3d6415372c712225c31021fd46a883c0e657a",
        "286480aa1ec8e77b1e1cda86774e65389ab8fffd0abb39de754f3058e58efdc5",
    ),
    "vcg": (
        "75db676946abc953d2a1c7ce0a3520ef963a78b3b41760b6741ade9247d1b6b2",
        "39aaa0e68605362b0a586c8ccb15325bf23363ee26c94e46867680ded8a6e960",
    ),
    "shapley-no-auctioneer": (
        "f8558722458f9a5c4c2b8655a539ab77462f50e2267f00c14650784ff0cba273",
        "c4833495c331d99785042c81a5a40c40b51f37c1ab810540144b7fe260a1706c",
    ),
    "shapley-payoff-no-auctioneer": (
        "a9b8574f3d104fddd155c530f30d3539e30029d5cc7d0c13f149f3802e7cb5d4",
        "aab9cf248dbbe02d1e7ec11ccf6aa122ea79b0af944753d7be0b52507f66cbf7",
    ),
    "shapley-with-auctioneer": (
        "f43973e79707842d7371c4c53677d76bdff62f5197b13445ab41af6478c688da",
        "7e9a37b9300c76f53b0e57575f4a5856391fdbebea2e28818b3911bd912da5be",
    ),
    "shapley-payoff-with-auctioneer": (
        "2eef4c66485cc0b6aaaa869e38d125d5f8fa32310715566f63ea07aa9e6abf26",
        "b0ba34fab4a4f5d061cfb49aac1b8b9182e70444fe5c5db446b90bd1d28b819c",
    ),
}


class TestRegionMapBytes:
    @pytest.mark.parametrize("rule", sorted(REGION_MAP_G_2_5_RESOLUTION_77))
    def test_csv_and_svg_digests(self, capsys, tmp_path, rule):
        csv_path, svg_path = tmp_path / "map.csv", tmp_path / "map.svg"
        code, out, _ = run(
            capsys,
            "region-map",
            "--rule",
            rule,
            "--g",
            "2.5",
            "--resolution",
            "77",
            "--out",
            str(csv_path),
            "--svg",
            str(svg_path),
        )
        assert (code, out) == (0, "")
        digests = tuple(
            hashlib.sha256(path.read_bytes()).hexdigest() for path in (csv_path, svg_path)
        )
        assert digests == REGION_MAP_G_2_5_RESOLUTION_77[rule]

    @pytest.mark.parametrize("rule", list(ReferenceRule))
    @pytest.mark.parametrize("g,resolution", WRITER_GRIDS)
    def test_svg_matches_per_cell_writer(self, rule, g, resolution):
        grid = region_map(rule, g, resolution)
        # The oracle runs first, so its list of rect strings is freed before
        # the writer runs: at 1000 points that is up to a million strings.
        expected = render_region_map_svg_by_cell(grid)
        assert_same_text(render_region_map_svg(grid), expected)

    def test_svg_of_hand_built_map_matches_per_cell_writer(self):
        grid = hand_built_region_map()
        text = render_region_map_svg(grid)
        assert_same_text(text, render_region_map_svg_by_cell(grid))
        # One rect per report cell: the all-None row and the None cell draw none.
        assert text.count("<rect") == 1 + 11

    @pytest.mark.parametrize("to_file", [False, True])
    def test_svg_path_that_cannot_be_opened_fails_before_any_output(
        self, capsys, tmp_path, to_file
    ):
        csv_path = tmp_path / "map.csv"
        out = ["--out", str(csv_path)] if to_file else []
        svg_path = tmp_path / "missing" / "map.svg"
        code, stdout, err = run(
            capsys, "region-map", "--rule", "vcg", "--resolution", "3", *out, "--svg", str(svg_path)
        )
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert not csv_path.exists()

    def test_svg_to_the_out_file_leaves_only_the_svg(self, capsys, tmp_path):
        # At resolution 40 the CSV is longer than the SVG, so no CSV byte may
        # be left past the SVG's end.
        path = tmp_path / "map"
        argv = ("region-map", "--rule", "vcg", "--resolution", "40", "--out", str(path))
        assert run(capsys, *argv, "--svg", str(path)) == (0, "", "")
        svg = path.read_text(encoding="utf-8")
        assert svg == render_region_map_svg(region_map(ReferenceRule.VCG, 1.0, 40))

    def test_svg_to_dev_null(self, capsys, tmp_path):
        # /dev/null cannot be truncated, and only a regular file needs to be.
        csv_path = tmp_path / "map.csv"
        argv = ("region-map", "--rule", "vcg", "--resolution", "5", "--out", str(csv_path))
        assert run(capsys, *argv, "--svg", os.devnull) == (0, "", "")

    @pytest.mark.parametrize("to_file", [False, True])
    def test_svg_to_a_pipe(self, tmp_path, to_file):
        # Without --out the CSV goes to the same pipe, and all of it before the SVG.
        argv = ["region-map", "--rule", "vcg", "--resolution", "40"]
        out = ["--out", str(tmp_path / "map.csv")] if to_file else []
        src = pathlib.Path(coreselect.cli.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "coreselect.cli", *argv, *out, "--svg", "/dev/stdout"],
            env={"PYTHONPATH": str(src)},
            capture_output=True,
            check=True,
        )
        svg_path = tmp_path / "map.svg"
        assert main([*argv, "--out", str(tmp_path / "expected.csv"), "--svg", str(svg_path)]) == 0
        csv = b"" if to_file else (tmp_path / "expected.csv").read_bytes()
        assert (done.stdout, done.stderr) == (csv + svg_path.read_bytes(), b"")

    def test_files_are_written_in_blocks(self, tmp_path):
        # Each file is written in 64 KiB blocks, not in blocks sized from the
        # file system's, often 4 KiB: about one write call per block.
        def write_calls():
            text = pathlib.Path("/proc/self/io").read_text(encoding="ascii")
            return int(re.search(r"^syscw: (\d+)$", text, re.M).group(1))

        try:
            before = write_calls()
        except OSError:
            pytest.skip("/proc/self/io cannot be read")
        paths = tmp_path / "map.csv", tmp_path / "map.svg"
        argv = ["region-map", "--rule", "vcg", "--resolution", "200"]
        assert main([*argv, "--out", str(paths[0]), "--svg", str(paths[1])]) == 0
        calls = write_calls() - before
        bound = sum(2 * math.ceil(path.stat().st_size / (1 << 16)) + 4 for path in paths)
        assert calls <= bound, (calls, bound)

    def test_writers_stream_to_the_files(self, tmp_path):
        # Both writers hand each run to the file as they reach it, so the
        # command never holds its text: it peaks far below the CSV's size.
        csv_path, svg_path = tmp_path / "map.csv", tmp_path / "map.svg"
        argv = ["region-map", "--rule", "shapley-with-auctioneer", "--resolution", "300"]
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(csv_path), "--svg", str(svg_path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = csv_path.stat().st_size
        assert peak < size / 4, (peak, size)

    def test_csv_to_stdout_matches_the_out_file(self, capsys, tmp_path):
        path = tmp_path / "map.csv"
        argv = ("region-map", "--rule", "shapley-with-auctioneer", "--resolution", "40")
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == path.read_bytes()

    @pytest.mark.parametrize("g", ["inf", "nan", "1e308", "0", "-1"])
    def test_bad_global_bid_is_usage_error(self, capsys, g):
        code, out, err = run(capsys, "region-map", "--rule", "vcg", "--g", g, "--resolution", "5")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and "global bid" in err, err


class TestOverflowingBidSums:
    """Bids whose float sum overflows are input errors, not wrong answers.

    At the profile 1e308 1e308 1.5e308 the even split's g + r1 overflows,
    which would give ``project`` p1 = 1e308 where its scaled copy gives
    0.75e308, and ``derivative`` a binding cap instead of the slope 0.5.
    """

    @pytest.mark.parametrize("command", ["project", "derivative", "payments"])
    def test_llg_profile(self, capsys, command):
        code, out, err = run(
            capsys, command, "--llg", "1e308", "1e308", "1.5e308", "--rule", "vcg"
        )
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert err.startswith("error: LLG bids must have a finite sum a + b + g"), err

    def test_closed_forms_near_overflow(self, capsys):
        # The bid sum is finite, but 7 * a in the closed form is not.
        code, out, _ = run(
            capsys,
            "payments",
            "--llg",
            "5.9e307",
            "5.9e307",
            "5.98e307",
            "--rule",
            "shapley-with-auctioneer",
        )
        assert code == 0
        case, p1, p2 = out.split()
        assert case == "case=locals_weak"
        engine = reference_point(
            llg_instance(5.9e307, 5.9e307, 5.98e307), ReferenceRule.SHAPLEY_PAYMENT_WITH_AUCTIONEER
        )
        for printed, expected in zip((p1, p2), engine):
            value = float(printed.split("=")[1])
            assert math.isfinite(value)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_instance(self, capsys, tmp_path):
        # Both bidders win, and their welfare 2e308 overflows to inf.
        path = tmp_path / "instance.json"
        bidders = [
            {"id": i, "bids": [{"bundle": [good], "value": 1e308}]}
            for i, good in ((1, "g1"), (2, "g2"))
        ]
        path.write_text(json.dumps({"goods": ["g1", "g2"], "bidders": bidders}))
        code, out, err = run(
            capsys, "payments", "--instance", str(path), "--rule", "shapley-no-auctioneer"
        )
        assert (code, out) == (2, "")
        assert err == "error: the bidders' largest bids must have a finite sum\n"

    def test_region_map_corner(self, capsys):
        # The grid over [0, 2g] is finite, but its corner's a + b + g is not.
        code, out, err = run(
            capsys, "region-map", "--rule", "vcg", "--g", "5e307", "--resolution", "2"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: global bid 5e+307 is too large"), err


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

    def test_no_payments_for_three_bidders(self, capsys):
        code, out, err = run(capsys, "core-check", "--llg", "0.4", "0.5", "0.8", "--payments")
        assert (code, out) == (2, "")
        assert err == "error: payment vector has 0 entries, expected 3\n"

    def test_instance_without_bidders(self, capsys, tmp_path):
        # Its empty payment vector is a bare --payments.
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"goods": ["g1", "g2"], "bidders": []}))
        code, out, err = run(capsys, "core-check", "--instance", str(path), "--payments")
        assert (code, out, err) == (0, "[]\n", "")

    @pytest.mark.parametrize(
        "payments, bidder",
        [
            (("nan", "nan", "0"), 1),
            (("inf", "0", "0"), 1),
            (("0.35", "0.45", "inf"), 3),
            # A "-"-prefixed float token is a value, so "-inf" reaches this check.
            (("0.35", "-inf", "0"), 2),
        ],
    )
    def test_non_finite_payments_rejected(self, capsys, payments, bidder):
        # NaN fails every slack comparison, so it would pass as in the core, and
        # an infinite payment would print a slack that is not valid JSON.
        code, out, err = run(
            capsys, "core-check", "--llg", "0.4", "0.5", "0.8", "--payments", *payments
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and f"bidder {bidder} must be finite" in err, err

    def test_overflowing_payment_sum_rejected(self, capsys):
        # The payers' sum -1e308 + -1e308 is -inf, and so would be the printed
        # slack, which is not valid JSON.
        code, out, err = run(
            capsys, "core-check", "--llg", "0.4", "0.5", "0.8", "--payments", "-1e308", "-1e308", "0"
        )
        assert code == 2
        assert out == ""
        assert err == "error: the sum of the payments of bidders [1, 2, 3] overflows\n"

    def test_twelve_bidder_bytes(self, capsys, tmp_path):
        # Bounds and slacks are printed at full precision and add their terms
        # one at a time in ascending id order, so the digest pins that order
        # as well as the values, and it is the same on CPython 3.10 to 3.13.
        path = tmp_path / "instance.json"
        path.write_text(instance_to_json(twelve_bidder_instance()))
        payments = [repr(value) for value in twelve_bidder_payments()]
        code, out, _ = run(capsys, "core-check", "--instance", str(path), "--payments", *payments)
        assert code == 1
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CORE_CHECK_TWELVE_BIDDERS_SHA256


class TestViolationsJson:
    """``core-check``'s report is the text ``json.dumps(payload, indent=2, allow_nan=False)`` gives."""

    @staticmethod
    def assert_as_dumps(found):
        assert _violations_json(found) == violations_json_by_dumps(found)

    def test_no_violations(self):
        assert _violations_json([]) == violations_json_by_dumps([]) == "[]\n"

    def test_empty_coalition_and_floors(self):
        # Negative payments: the empty coalition's payers, everyone, pay
        # less than its bound 0.0, and bidders 1 and 2 break their floors.
        found = core_violations(llg_instance(0.4, 0.5, 0.8), (-1.0, -1.0, 0.0))
        assert found[0].constraint.coalition == frozenset()
        assert [v.constraint.kind for v in found][-2:] == ["nonneg", "nonneg"]
        self.assert_as_dumps(found)
        assert '"coalition": [],' in _violations_json(found)

    def test_rationality_caps(self):
        found = core_violations(llg_instance(0.4, 0.5, 0.8), (1.0, 1.0, 1.0))
        assert {v.constraint.kind for v in found} == {"ir"}
        self.assert_as_dumps(found)

    def test_negative_zero(self):
        single = frozenset({1})
        found = [
            CoreViolation(CoreConstraint("nonneg", single, single, -0.0), -0.0),
            CoreViolation(CoreConstraint("coalition", frozenset(), frozenset({1, 2}), 0.0), -0.0),
        ]
        self.assert_as_dumps(found)
        assert '"bound": -0.0,' in _violations_json(found)

    def test_random_instances_and_payments(self):
        rng = random.Random(35)
        kinds = set()
        empty_coalitions = 0
        for _ in range(1000):
            instance = random_instance(rng, max_bidders=8)
            payments = [rng.uniform(-0.2, 1.0) for _ in range(instance.n)]
            found = core_violations(instance, payments)
            kinds.update(v.constraint.kind for v in found)
            empty_coalitions += sum(not v.constraint.coalition for v in found)
            self.assert_as_dumps(found)
        assert kinds == {"coalition", "ir", "nonneg"}
        assert empty_coalitions == 36

    @pytest.mark.parametrize("bound, slack", [(math.inf, -1.0), (0.5, math.nan), (-math.inf, 0.0)])
    def test_numbers_that_are_not_finite(self, bound, slack):
        single = frozenset({1})
        found = [CoreViolation(CoreConstraint("ir", single, single, bound), slack)]
        for write in (_violations_json, violations_json_by_dumps):
            with pytest.raises(ValueError):
                write(found)


# 200,000 bytes of brackets: json.loads gives up on them with a RecursionError
# on every supported interpreter (3.12 decodes about 1,500 levels, 3.13 about 10,000).
NESTED_INSTANCE = "[" * 10**5 + "]" * 10**5


class TestNestedInstance:
    @pytest.mark.parametrize(
        "command, tail", [("payments", ("--rule", "vcg")), ("core-check", ("--payments", "0"))]
    )
    def test_deep_nesting_is_usage_error(self, capsys, tmp_path, command, tail):
        path = tmp_path / "nested.json"
        path.write_text(NESTED_INSTANCE)
        code, out, err = run(capsys, command, "--instance", str(path), *tail)
        assert (code, out) == (2, "")
        assert err == "error: instance JSON is nested too deeply to decode\n"


def run_captured(argv):
    """``main(argv)``'s exit code, stdout and stderr, without pytest's capture fixtures."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_NUMBER = r"-?\d+\.\d{6}"
_CASE = "case=(locals_weak|local1_strong|local2_strong|locals_strong|global_winner)"
# Each command's stdout on exit 0; core-check prints JSON instead.
_LINE_FORMATS = {
    "payments": re.compile(rf"(({_CASE} )?p1={_NUMBER}( p\d+={_NUMBER})*)?\n"),
    "project": re.compile(rf"{_CASE} p1={_NUMBER} p2={_NUMBER} p3={_NUMBER}\n"),
    "sensitivity": re.compile(rf"{_CASE} sens1={_NUMBER} sens2={_NUMBER}\n"),
    "derivative": re.compile(
        rf"{_CASE} region=(ir1_binding|ir2_binding|nonneg_binding|interior)"
        rf" d={_NUMBER} numeric=({_NUMBER}|n/a) sens={_NUMBER}( boundary=1)?\n"
    ),
}


def assert_clean_exit(argv):
    """Exit 0, 1 or 2, only ``error:`` lines on stderr, stdout in the command's format."""
    code, out, err = run_captured(argv)
    command = argv[0]
    if command == "core-check":
        assert code in (0, 1, 2), (argv, code)
        if code != 2:
            violations = json.loads(out)
            assert isinstance(violations, list) and bool(violations) == (code == 1), out
    else:
        assert code in (0, 2), (argv, code)
        if code == 0:
            assert _LINE_FORMATS[command].fullmatch(out), (argv, out)
    if code == 2:
        assert out == "", (argv, out)
        assert err.startswith("error: "), (argv, err)
    assert all(line.startswith("error: ") for line in err.splitlines()), (argv, err)


# Integers past the largest float, below Python's int-to-str digit limit.
_HUGE_INTS = st.integers(min_value=10**300, max_value=10**400)
# Any JSON value, with huge integers and the NaN and infinity literals that
# json.dumps writes and json.loads reads.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | _HUGE_INTS
    | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


# Bids and payments at the edges of the floats: NaN, infinities, -0.0,
# subnormals and near overflow, besides any float.
_EDGE_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308, 1.0]),
    st.floats(min_value=1e300, max_value=1.7976931348623157e308),
    st.floats(),
)
_RULES = st.sampled_from([rule.value for rule in ReferenceRule])
_BID_VALUES = st.one_of(st.floats(0, 2), st.integers(0, 2), _EDGE_FLOATS, _HUGE_INTS)


# Hypothesis draws the ends of an integer range far more often than the
# middle, so a sampled list sets the odds.
_ONE_IN_EIGHT = st.sampled_from([False] * 7 + [True])


@st.composite
def _instance_files(draw):
    """An instance file's text and its number of bidders.

    Every field is well formed, save that one time in eight it is any JSON value.
    """

    def field(make):
        return draw(_JSON) if draw(_ONE_IN_EIGHT) else make()

    goods = ["g1", "g2", "g3"]
    bundles = st.lists(st.sampled_from(goods), min_size=1, max_size=3, unique=True)

    def bid():
        return {"bundle": field(lambda: draw(bundles)), "value": field(lambda: draw(_BID_VALUES))}

    def bids():
        return [field(bid) for _ in range(draw(st.integers(0, 3)))]

    def bidder(i):
        return {"id": field(lambda: i), "bids": field(bids)}

    n = draw(st.integers(0, 4))
    doc = field(
        lambda: {
            "goods": field(lambda: goods),
            "bidders": field(lambda: [field(lambda: bidder(i)) for i in range(1, n + 1)]),
        }
    )
    return json.dumps(doc), n


class TestInputBoundary:
    """Whatever the input, the CLI exits 0, 1 or 2 and never with a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(
        file=_instance_files(),
        rule=_RULES,
        payments=st.lists(st.floats(0, 2), min_size=4, max_size=4),
    )
    # Hypothesis lifts the recursion limit about 2,000 frames above a test
    # while it runs one, so 1,000 levels decode there and NESTED_INSTANCE does not.
    @example(file=("[" * 1000 + "]" * 1000, 1), rule="vcg", payments=[0.0] * 4)
    @example(file=(NESTED_INSTANCE, 1), rule="vcg", payments=[0.0] * 4)
    def test_instance_files(self, tmp_path_factory, file, rule, payments):
        text, bidders = file
        path = tmp_path_factory.getbasetemp() / "fuzzed_instance.json"
        path.write_text(text)
        assert_clean_exit(["payments", "--instance", str(path), "--rule", rule])
        # One payment per bidder where the bidders are well formed.
        payments = map(repr, payments[:bidders])
        assert_clean_exit(["core-check", "--instance", str(path), "--payments", *payments])

    @settings(max_examples=150, deadline=None)
    @given(
        bids=st.lists(_EDGE_FLOATS, min_size=3, max_size=3),
        rule=_RULES,
        extra=st.lists(_EDGE_FLOATS, min_size=3, max_size=3),
    )
    def test_llg_arguments(self, bids, rule, extra):
        llg = ["--llg", *map(repr, bids)]
        for command in ("payments", "project", "sensitivity", "derivative"):
            assert_clean_exit([command, *llg, "--rule", rule])
        assert_clean_exit(["derivative", *llg, "--rule", rule, "--step", repr(extra[0])])
        assert_clean_exit(["project", *llg, "--rule", rule, "--metric", repr(extra[0])])
        assert_clean_exit(["core-check", *llg, "--payments", *map(repr, extra)])


# Full stdout of `verify-table --seed 7 --samples 60` with both tolerances set
# to -1, so every check that compares against them fails: each failed check's
# note, the suite-level notes, and the two suites that use neither tolerance.
VERIFY_TABLE_FAILURE_SEED_7_SAMPLES_60 = (
    "closed-form reference table: 0/24 cells FAILED\n"
    "  first-price in locals_weak: max deviation 0.000e+00\n"
    "  vcg in locals_weak: max deviation 0.000e+00\n"
    "  shapley-no-auctioneer in locals_weak: max deviation 1.665e-16\n"
    "  shapley-payoff-no-auctioneer in locals_weak: max deviation 2.220e-16\n"
    "  shapley-with-auctioneer in locals_weak: max deviation 1.110e-16\n"
    "  shapley-payoff-with-auctioneer in locals_weak: max deviation 1.110e-16\n"
    "  first-price in local1_strong: max deviation 0.000e+00\n"
    "  vcg in local1_strong: max deviation 0.000e+00\n"
    "  shapley-no-auctioneer in local1_strong: max deviation 3.331e-16\n"
    "  shapley-payoff-no-auctioneer in local1_strong: max deviation 4.441e-16\n"
    "  shapley-with-auctioneer in local1_strong: max deviation 2.220e-16\n"
    "  shapley-payoff-with-auctioneer in local1_strong: max deviation 2.220e-16\n"
    "  first-price in local2_strong: max deviation 0.000e+00\n"
    "  vcg in local2_strong: max deviation 0.000e+00\n"
    "  shapley-no-auctioneer in local2_strong: max deviation 2.776e-16\n"
    "  shapley-payoff-no-auctioneer in local2_strong: max deviation 2.220e-16\n"
    "  shapley-with-auctioneer in local2_strong: max deviation 2.220e-16\n"
    "  shapley-payoff-with-auctioneer in local2_strong: max deviation 2.220e-16\n"
    "  first-price in locals_strong: max deviation 0.000e+00\n"
    "  vcg in locals_strong: max deviation 0.000e+00\n"
    "  shapley-no-auctioneer in locals_strong: max deviation 3.053e-16\n"
    "  shapley-payoff-no-auctioneer in locals_strong: max deviation 3.331e-16\n"
    "  shapley-with-auctioneer in locals_strong: max deviation 2.220e-16\n"
    "  shapley-payoff-with-auctioneer in locals_strong: max deviation 1.110e-16\n"
    "sensitivity consistency: 0/24 checks FAILED\n"
    "  first-price in locals_weak: deviation 2.876e-11\n"
    "  vcg in locals_weak: deviation 8.227e-11\n"
    "  shapley-no-auctioneer in locals_weak: deviation 4.213e-11\n"
    "  shapley-payoff-no-auctioneer in locals_weak: deviation 6.989e-11\n"
    "  shapley-with-auctioneer in locals_weak: deviation 8.873e-11\n"
    "  shapley-payoff-with-auctioneer in locals_weak: deviation 5.105e-11\n"
    "  first-price in local1_strong: deviation 8.227e-11\n"
    "  vcg in local1_strong: deviation 0.000e+00\n"
    "  shapley-no-auctioneer in local1_strong: deviation 0.000e+00\n"
    "  shapley-payoff-no-auctioneer in local1_strong: deviation 8.227e-11\n"
    "  shapley-with-auctioneer in local1_strong: deviation 4.113e-11\n"
    "  shapley-payoff-with-auctioneer in local1_strong: deviation 6.989e-11\n"
    "  first-price in local2_strong: deviation 2.876e-11\n"
    "  vcg in local2_strong: deviation 8.227e-11\n"
    "  shapley-no-auctioneer in local2_strong: deviation 5.601e-11\n"
    "  shapley-payoff-no-auctioneer in local2_strong: deviation 1.254e-10\n"
    "  shapley-with-auctioneer in local2_strong: deviation 1.165e-10\n"
    "  shapley-payoff-with-auctioneer in local2_strong: deviation 6.493e-11\n"
    "  first-price in locals_strong: deviation 8.227e-11\n"
    "  vcg in locals_strong: deviation 0.000e+00\n"
    "  shapley-no-auctioneer in locals_strong: deviation 0.000e+00\n"
    "  shapley-payoff-no-auctioneer in locals_strong: deviation 8.227e-11\n"
    "  shapley-with-auctioneer in locals_strong: deviation 4.113e-11\n"
    "  shapley-payoff-with-auctioneer in locals_strong: deviation 4.113e-11\n"
    "projection derivative oracle: 0/60 checks FAILED\n"
    "  first-price at (a=1.613215, b=1.267134, g=1.0): analytic 0.5 vs numeric 0.50000000 "
    "(interior)\n"
    "  vcg at (a=1.866562, b=0.006435, g=1.0): analytic 0.0 vs numeric 0.00000000 (interior)\n"
    "  shapley-no-auctioneer at (a=1.898298, b=1.080815, g=1.0): analytic 0.0 vs numeric "
    "-0.00000000 (interior)\n"
    "  shapley-payoff-no-auctioneer at (a=0.946215, b=0.951271, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-with-auctioneer at (a=1.157157, b=1.238012, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-payoff-with-auctioneer at (a=0.132426, b=0.871725, g=1.0): analytic 1.0 vs numeric "
    "1.00000000 (ir1_binding)\n"
    "  first-price at (a=0.774209, b=0.383665, g=1.0): analytic 0.5 vs numeric 0.50000000 "
    "(interior)\n"
    "  vcg at (a=0.918955, b=0.204960, g=1.0): analytic 0.5 vs numeric 0.50000000 (interior)\n"
    "  shapley-no-auctioneer at (a=1.725706, b=0.421755, g=1.0): analytic 0.0 vs numeric "
    "-0.00000000 (interior)\n"
    "  shapley-payoff-no-auctioneer at (a=0.772580, b=0.911379, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-with-auctioneer at (a=1.281184, b=1.809511, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-payoff-with-auctioneer at (a=1.708801, b=0.005272, g=1.0): analytic 0.0 vs numeric "
    "0.00000000 (ir2_binding)\n"
    "  first-price at (a=1.054789, b=1.378816, g=1.0): analytic 0.5 vs numeric 0.50000000 "
    "(interior)\n"
    "  vcg at (a=1.139143, b=1.236733, g=1.0): analytic 0.0 vs numeric 0.00000000 (interior)\n"
    "  shapley-no-auctioneer at (a=0.852196, b=0.330217, g=1.0): analytic 0.0 vs numeric "
    "0.00000000 (ir2_binding)\n"
    "  shapley-payoff-no-auctioneer at (a=0.133183, b=0.917657, g=1.0): analytic 1.0 vs numeric "
    "1.00000000 (ir1_binding)\n"
    "  shapley-with-auctioneer at (a=0.572978, b=0.537588, g=1.0): analytic 0.4166666666666667 vs "
    "numeric 0.41666667 (interior)\n"
    "  shapley-payoff-with-auctioneer at (a=1.420107, b=0.398135, g=1.0): analytic 0.25 vs "
    "numeric 0.25000000 (interior)\n"
    "  first-price at (a=0.939715, b=0.719635, g=1.0): analytic 0.5 vs numeric 0.50000000 "
    "(interior)\n"
    "  vcg at (a=0.268311, b=0.994884, g=1.0): analytic 0.5 vs numeric 0.50000000 (interior)\n"
    "  shapley-no-auctioneer at (a=0.950923, b=0.236786, g=1.0): analytic 0.0 vs numeric "
    "0.00000000 (ir2_binding)\n"
    "  shapley-payoff-no-auctioneer at (a=0.735996, b=0.845666, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-with-auctioneer at (a=0.881709, b=0.365568, g=1.0): analytic 0.4166666666666667 vs "
    "numeric 0.41666667 (interior)\n"
    "  shapley-payoff-with-auctioneer at (a=1.402170, b=0.986072, g=1.0): analytic 0.25 vs "
    "numeric 0.25000000 (interior)\n"
    "  first-price at (a=0.814699, b=0.307154, g=1.0): analytic 0.5 vs numeric 0.50000000 "
    "(interior)\n"
    "  vcg at (a=0.103069, b=1.784099, g=1.0): analytic 0.5 vs numeric 0.50000000 (interior)\n"
    "  shapley-no-auctioneer at (a=0.777783, b=0.566026, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-payoff-no-auctioneer at (a=0.964075, b=0.400904, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-with-auctioneer at (a=0.955841, b=1.560464, g=1.0): analytic 0.4166666666666667 vs "
    "numeric 0.41666667 (interior)\n"
    "  shapley-payoff-with-auctioneer at (a=1.667505, b=0.171060, g=1.0): analytic 0.0 vs numeric "
    "0.00000000 (ir2_binding)\n"
    "  first-price at (a=0.029374, b=1.939471, g=1.0): analytic 0.0 vs numeric 0.00000000 "
    "(nonneg_binding)\n"
    "  vcg at (a=1.262961, b=0.164215, g=1.0): analytic 0.0 vs numeric 0.00000000 (interior)\n"
    "  shapley-no-auctioneer at (a=0.388879, b=0.611549, g=1.0): analytic 1.0 vs numeric "
    "1.00000000 (ir1_binding)\n"
    "  shapley-payoff-no-auctioneer at (a=0.285010, b=1.480917, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-with-auctioneer at (a=0.137300, b=1.086588, g=1.0): analytic 0.4166666666666667 vs "
    "numeric 0.41666667 (interior)\n"
    "  shapley-payoff-with-auctioneer at (a=0.695988, b=1.065597, g=1.0): analytic "
    "0.08333333333333333 vs numeric 0.08333333 (interior)\n"
    "  first-price at (a=1.142521, b=1.561925, g=1.0): analytic 0.5 vs numeric 0.50000000 "
    "(interior)\n"
    "  vcg at (a=1.588173, b=1.802745, g=1.0): analytic 0.0 vs numeric 0.00000000 (interior)\n"
    "  shapley-no-auctioneer at (a=0.771705, b=1.880256, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-payoff-no-auctioneer at (a=1.348871, b=1.923189, g=1.0): analytic 0.5 vs numeric "
    "0.50000000 (interior)\n"
    "  shapley-with-auctioneer at (a=0.528838, b=1.173329, g=1.0): analytic 0.4166666666666667 vs "
    "numeric 0.41666667 (interior)\n"
    "  shapley-payoff-with-auctioneer at (a=0.859109, b=0.202894, g=1.0): analytic 0.0 vs numeric "
    "0.00000000 (ir2_binding)\n"
    "  first-price at (a=1.456698, b=1.559245, g=1.0): analytic 0.5 vs numeric 0.50000000 "
    "(interior)\n"
    "  vcg at (a=1.083197, b=1.548620, g=1.0): analytic 0.0 vs numeric 0.00000000 (interior)\n"
    "  shapley-no-auctioneer at (a=0.535430, b=1.941287, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-payoff-no-auctioneer at (a=0.581017, b=0.585266, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-with-auctioneer at (a=1.544354, b=1.523495, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-payoff-with-auctioneer at (a=0.877424, b=0.573875, g=1.0): analytic "
    "0.08333333333333333 vs numeric 0.08333333 (interior)\n"
    "  first-price at (a=0.064319, b=1.224292, g=1.0): analytic 0.0 vs numeric 0.00000000 "
    "(nonneg_binding)\n"
    "  vcg at (a=1.103210, b=0.699521, g=1.0): analytic 0.0 vs numeric 0.00000000 (interior)\n"
    "  shapley-no-auctioneer at (a=1.060447, b=1.888897, g=1.0): analytic 0.0 vs numeric "
    "0.00000000 (interior)\n"
    "  shapley-payoff-no-auctioneer at (a=0.371230, b=0.962527, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-with-auctioneer at (a=1.875849, b=1.035999, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-payoff-with-auctioneer at (a=0.613274, b=0.678056, g=1.0): analytic "
    "0.08333333333333333 vs numeric 0.08333333 (interior)\n"
    "  first-price at (a=1.588557, b=1.080737, g=1.0): analytic 0.5 vs numeric 0.50000000 "
    "(interior)\n"
    "  vcg at (a=0.470242, b=0.535569, g=1.0): analytic 0.5 vs numeric 0.50000000 (interior)\n"
    "  shapley-no-auctioneer at (a=0.892689, b=0.671237, g=1.0): analytic 0.25 vs numeric "
    "0.25000000 (interior)\n"
    "  shapley-payoff-no-auctioneer at (a=1.779985, b=1.192163, g=1.0): analytic 0.5 vs numeric "
    "0.50000000 (interior)\n"
    "  shapley-with-auctioneer at (a=1.108775, b=0.052731, g=1.0): analytic 0.0 vs numeric "
    "0.00000000 (ir2_binding)\n"
    "  shapley-payoff-with-auctioneer at (a=0.938131, b=0.976193, g=1.0): analytic "
    "0.08333333333333333 vs numeric 0.08333333 (interior)\n"
    "  vcg derivative values observed: [0.0, 0.5]\n"
    "region threshold table: 16/16 cells passed\n"
    "  note: shapley-with-auctioneer local1_strong inequality 2: simplified form 7B < G matches "
    "direct evaluation only on the a = g boundary (120/1000 sampled profiles differ)\n"
    "  note: shapley-with-auctioneer local2_strong inequality 1: simplified form 7A < G matches "
    "direct evaluation only on the b = g boundary (134/1000 sampled profiles differ)\n"
    "shapley axioms: 0/120 checks FAILED\n"
    "  efficiency failed on 60 instances\n"
    "  arrival-order oracle disagreed on 60 instances\n"
    "minimum-revenue projection: 200/200 checks passed\n"
    "verification FAILED\n"
)


class TestVerifyTable:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify-table", "--seed", "7", "--samples", "60")
        assert code == 0
        assert "closed-form reference table: 24/24 cells passed" in out
        assert "all suites passed" in out
        assert out == VERIFY_TABLE_SEED_7_SAMPLES_60

    def test_full_run_output_digest(self, capsys):
        code, out, _ = run(capsys, "verify-table", "--seed", "7", "--samples", "1000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_TABLE_SEED_7_SHA256

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_is_usage_error(self, capsys, samples):
        code, out, err = run(capsys, "verify-table", "--samples", samples)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "samples" in err, err

    def test_deterministic_output(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run(capsys, "verify-table", "--seed", "11", "--samples", "40")
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_failed_checks_are_reported(self, capsys, monkeypatch):
        monkeypatch.setattr("coreselect.verify.EQUIVALENCE_TOLERANCE", -1.0)
        monkeypatch.setattr("coreselect.verify.DERIVATIVE_TOLERANCE", -1.0)
        code, out, _ = run(capsys, "verify-table", "--seed", "7", "--samples", "60")
        assert code == 1
        assert "region threshold table: 16/16 cells passed\n" in out
        assert "minimum-revenue projection: 200/200 checks passed\n" in out
        assert out == VERIFY_TABLE_FAILURE_SEED_7_SAMPLES_60


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """Each ``$ coreselect ...`` line in README's ``text`` blocks, with the lines after it."""
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command, output.rstrip("\n") + "\n"))
    return examples


README_EXAMPLES = readme_examples()


class TestReadmeExamples:
    def test_every_example_is_found(self):
        assert [command.split()[:2] for command, _ in README_EXAMPLES] == [
            ["coreselect", "payments"],
            ["coreselect", "project"],
            ["coreselect", "derivative"],
            ["coreselect", "core-check"],
            ["coreselect", "derivative"],
            ["coreselect", "verify-table"],
        ]

    @pytest.mark.parametrize(
        "command,expected", README_EXAMPLES, ids=[command for command, _ in README_EXAMPLES]
    )
    def test_example_prints_what_readme_shows(self, capsys, command, expected):
        argv = shlex.split(command)[1:]
        if argv == ["verify-table", "--seed", "7", "--samples", "1000"]:
            # TestVerifyTable::test_full_run_output_digest already runs it (about
            # 1 s) and pins its stdout, so the example is checked by digest.
            assert hashlib.sha256(expected.encode()).hexdigest() == VERIFY_TABLE_SEED_7_SHA256
            return
        _, out, _ = run(capsys, *argv)
        assert out == expected


_SUBCOMMANDS = [
    "payments",
    "project",
    "sensitivity",
    "derivative",
    "region-map",
    "verify-table",
    "core-check",
]


def help_text(*argv):
    """What ``main([*argv, "--help"])`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main([*argv, "--help"])
    return out.getvalue()


def readme_synopsis():
    """Each subcommand of README's "Command line" block, with the ``--options`` on its line."""
    block = re.search(
        r"^## Command line\n\n```text\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S
    ).group(1)
    return [(line.split()[1], set(re.findall(r"--[a-z][a-z-]*", line))) for line in block.splitlines()]


README_SYNOPSIS = readme_synopsis()


class TestReadmeSynopsis:
    def test_one_line_per_subcommand(self):
        assert [command for command, _ in README_SYNOPSIS] == _SUBCOMMANDS
        assert re.search(r"\{([a-z,-]+)\}", help_text()).group(1).split(",") == _SUBCOMMANDS

    @pytest.mark.parametrize("command", _SUBCOMMANDS)
    def test_options_match_help(self, command):
        printed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", help_text(command))) - {"--help"}
        assert dict(README_SYNOPSIS)[command] == printed
