"""Branches of the verify suites that seeded runs do not reach.

Each test either rebinds one of the suite's own module globals, so the
suite runs as it is and only its input changes, or asks a suite for no
draws at all.
"""

import dataclasses

import pytest

from coreselect import BoundaryProximityError, CaseLabel, LlgBidProfile
from coreselect import verify
from coreselect.llg import THRESHOLD_TABLE
from coreselect.reference import ReferenceRule as R


@pytest.mark.parametrize(
    "draw,evaluations",
    [
        # On the case boundary a = g: the suite's own case forms are linear
        # in a on both sides of it, so the draw is evaluated, twice per check.
        (LlgBidProfile(1.0, 0.5, 1.0), 24 * 20 * 2),
        # a - h would be a negative bid, so the draw is skipped, and every
        # check fails, having compared nothing.
        (LlgBidProfile(5e-7, 1.5, 1.0), 0),
    ],
)
def test_sensitivity_suite_skips_only_a_draw_below_its_step(monkeypatch, draw, evaluations):
    closed_form_for_case = verify.closed_form_for_case
    evaluated = []

    def recorded(case, profile, rule):
        evaluated.append(profile)
        return closed_form_for_case(case, profile, rule)

    monkeypatch.setattr(verify, "sample_llg_profile", lambda rng, case: draw)
    monkeypatch.setattr(verify, "closed_form_for_case", recorded)
    result = verify.sensitivity_consistency_suite()
    if evaluations:
        assert (result.ok, result.passed, result.total, result.notes) == (True, 24, 24, [])
    else:
        notes = [f"{rule.value} in {case.value}: no draw compared" for case in CaseLabel for rule in R]
        assert (result.ok, result.passed, result.total, result.notes) == (False, 0, 24, notes)
    assert len(evaluated) == evaluations


def test_derivative_oracle_skips_a_draw_near_a_kink(monkeypatch):
    numeric_derivative = verify.numeric_derivative
    draws = []

    def first_draw_near_a_kink(profile, rule):
        draws.append(profile)
        if len(draws) == 1:
            raise BoundaryProximityError("near a kink")
        return numeric_derivative(profile, rule)

    monkeypatch.setattr(verify, "numeric_derivative", first_draw_near_a_kink)
    result = verify.derivative_oracle_suite(samples=12)
    assert (result.ok, result.passed, result.total) == (True, 12, 12)
    assert len(draws) == 13


def test_vcg_derivative_outside_zero_and_half_fails_the_oracle(monkeypatch):
    projection_derivative, numeric_derivative = verify.projection_derivative, verify.numeric_derivative

    def report(profile, rule):
        report = projection_derivative(profile, rule)
        return dataclasses.replace(report, derivative=0.25) if rule is R.VCG else report

    def numeric(profile, rule):
        return 0.25 if rule is R.VCG else numeric_derivative(profile, rule)

    monkeypatch.setattr(verify, "projection_derivative", report)
    monkeypatch.setattr(verify, "numeric_derivative", numeric)
    result = verify.derivative_oracle_suite(samples=12)
    assert (result.ok, result.passed, result.total) == (False, 12, 12)
    assert result.notes == ["vcg derivatives outside {0, 1/2}: [0.25]"]
    assert result.summary() == "projection derivative oracle: 12/12 checks FAILED"


def test_closed_form_cells_that_compared_nothing_fail():
    result = verify.closed_form_table_suite(0)
    notes = [f"{rule.value} in {case.value}: no draw compared" for case in CaseLabel for rule in R]
    assert (result.ok, result.passed, result.total, result.notes) == (False, 0, 24, notes)
    assert result.summary() == "closed-form reference table: 0/24 cells FAILED"


def test_threshold_cells_that_compared_nothing_fail():
    result = verify.threshold_table_suite(0)
    notes = [
        f"exact threshold failed: {cell.rule.value} {cell.case.value} "
        f"inequality {cell.inequality} (no draw compared)"
        for cell in THRESHOLD_TABLE
    ]
    assert (result.ok, result.passed, result.total, result.notes) == (False, 0, 16, notes)
    assert result.summary() == "region threshold table: 0/16 cells FAILED"
