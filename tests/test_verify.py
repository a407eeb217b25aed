"""Branches of the verify suites that seeded runs do not reach.

Each test rebinds one of the suite's own module globals, so the suite runs
as it is and only its input changes.
"""

import dataclasses

from coreselect import (
    BoundaryProximityError,
    CaseLabel,
    LlgBidProfile,
    closed_form_reference,
    sensitivity_fraction,
)
from coreselect import verify
from coreselect.reference import ReferenceRule as R


def test_sensitivity_suite_skips_a_sample_on_a_case_boundary(monkeypatch):
    # Forms looked up from each shifted profile's own case kink at a = g,
    # where the two evaluations of a central difference fall in two cases.
    on_boundary = LlgBidProfile(1.0, 0.5, 1.0)
    evaluated = []

    def forms_of_the_shifted_case(case, profile, rule):
        evaluated.append(profile)
        return closed_form_reference(profile, rule)

    monkeypatch.setattr(verify, "sample_llg_profile", lambda rng, case: on_boundary)
    monkeypatch.setattr(verify, "closed_form_for_case", forms_of_the_shifted_case)
    result = verify.sensitivity_consistency_suite()
    assert (result.ok, result.passed, result.total, result.notes) == (True, 24, 24, [])
    assert evaluated == []
    # Without the skip, the suite's difference there would straddle the kink.
    h = 1e-6
    up = forms_of_the_shifted_case(None, LlgBidProfile(1.0 + h, 0.5, 1.0), R.VCG)
    down = forms_of_the_shifted_case(None, LlgBidProfile(1.0 - h, 0.5, 1.0), R.VCG)
    estimate = ((up[0] - down[0]) - (up[1] - down[1])) / (2 * h)
    expected = float(sensitivity_fraction(CaseLabel.LOCALS_WEAK, R.VCG))
    assert abs(estimate - expected) > verify.DERIVATIVE_TOLERANCE


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
