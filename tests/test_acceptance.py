"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
threshold-table criterion checks the table's own contract: every exact form,
and every stated form without a note, agrees with direct evaluation; the two
noted cells are the paper's simplifications ``7A < G`` and ``7B < G``, which
mismatch inside their strong case and hold on the case boundary their note
names. The test prints the mismatch counts and a counterexample for each.
"""

import random
import time
from fractions import Fraction

import pytest

from coreselect import (
    BoundaryProximityError,
    CaseLabel,
    LlgBidProfile,
    auctioneer_payoff,
    classify_case,
    closed_form_for_case,
    closed_form_reference,
    coalition_value_table,
    core_violations,
    numeric_derivative,
    project_to_mrc,
    projection_derivative,
    region_map,
    sample_llg_profile,
    sensitivity,
    sensitivity_fraction,
    shapley_payoffs,
    shapley_payoffs_by_enumeration,
)
from coreselect.llg import check_threshold_table
from coreselect.reference import ReferenceRule, auctioneer_payoff_by_enumeration, reference_point
from coreselect.verify import random_instance

SEED = 7
R = ReferenceRule


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {detail}")


def sampled_profiles(samples_per_case: int, seed: int = SEED) -> dict[CaseLabel, list[LlgBidProfile]]:
    profiles = {}
    for index, case in enumerate(CaseLabel):
        rng = random.Random(seed + index)
        profiles[case] = [sample_llg_profile(rng, case) for _ in range(samples_per_case)]
    return profiles


def test_criterion_1_closed_forms_match_engine():
    """6 rules x 4 cases x 1000 seeded profiles at G = 1, within 1e-9, under 10 s."""
    start = time.perf_counter()
    worst = 0.0
    cells_passed = 0
    for index, case in enumerate(CaseLabel):
        rng = random.Random(SEED + index)
        cell_worst = {rule: 0.0 for rule in R}
        for _ in range(1000):
            profile = sample_llg_profile(rng, case)
            instance = profile.to_instance()
            for rule in R:
                closed = closed_form_reference(profile, rule)
                engine = reference_point(instance, rule)
                deviation = max(abs(closed[0] - engine[0]), abs(closed[1] - engine[1]))
                cell_worst[rule] = max(cell_worst[rule], deviation)
        for rule in R:
            worst = max(worst, cell_worst[rule])
            if cell_worst[rule] <= 1e-9:
                cells_passed += 1
    elapsed = time.perf_counter() - start
    ok = cells_passed == 24 and elapsed < 10.0
    report(1, ok, f"{cells_passed}/24 cells within 1e-9 (max dev {worst:.2e}), {elapsed:.1f}s")
    assert cells_passed == 24
    assert elapsed < 10.0


def test_criterion_2_sensitivities_exact():
    """All 24 sensitivity cells equal the tabulated fractions exactly."""
    half, one, zero = Fraction(1, 2), Fraction(1), Fraction(0)
    expected = {
        CaseLabel.LOCALS_WEAK: {
            R.FIRST_PRICE: one,
            R.VCG: one,
            R.SHAPLEY_PAYMENT_NO_AUCTIONEER: half,
            R.SHAPLEY_PAYOFF_NO_AUCTIONEER: half,
            R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: Fraction(5, 6),
            R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: Fraction(1, 6),
        },
        CaseLabel.LOCAL1_STRONG: {
            R.FIRST_PRICE: one,
            R.VCG: zero,
            R.SHAPLEY_PAYMENT_NO_AUCTIONEER: zero,
            R.SHAPLEY_PAYOFF_NO_AUCTIONEER: one,
            R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: half,
            R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: half,
        },
        CaseLabel.LOCAL2_STRONG: {
            R.FIRST_PRICE: one,
            R.VCG: one,
            R.SHAPLEY_PAYMENT_NO_AUCTIONEER: half,
            R.SHAPLEY_PAYOFF_NO_AUCTIONEER: half,
            R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: Fraction(5, 6),
            R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: Fraction(1, 6),
        },
        CaseLabel.LOCALS_STRONG: {
            R.FIRST_PRICE: one,
            R.VCG: zero,
            R.SHAPLEY_PAYMENT_NO_AUCTIONEER: zero,
            R.SHAPLEY_PAYOFF_NO_AUCTIONEER: one,
            R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: half,
            R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: half,
        },
    }
    exact_cells = 0
    probe = {
        CaseLabel.LOCALS_WEAK: LlgBidProfile(0.6, 0.7, 1.0),
        CaseLabel.LOCAL1_STRONG: LlgBidProfile(1.4, 0.7, 1.0),
        CaseLabel.LOCAL2_STRONG: LlgBidProfile(0.7, 1.4, 1.0),
        CaseLabel.LOCALS_STRONG: LlgBidProfile(1.4, 1.5, 1.0),
    }
    for case, row in expected.items():
        for rule, fraction in row.items():
            if sensitivity_fraction(case, rule) == fraction and sensitivity(
                probe[case], rule
            ) == float(fraction):
                exact_cells += 1
    report(2, exact_cells == 24, f"{exact_cells}/24 sensitivity cells exact")
    assert exact_cells == 24


def test_criterion_3_derivative_oracle():
    """1000 eligible seeded points: analytic derivative vs central difference, 1e-6."""
    rng = random.Random(SEED)
    rules = tuple(R)
    cases = tuple(CaseLabel)
    agreed = 0
    failures = []
    vcg_values = set()
    collected = 0
    while collected < 1000:
        rule = rules[collected % len(rules)]
        profile = sample_llg_profile(rng, cases[rng.randrange(4)])
        try:
            numeric = numeric_derivative(profile, rule)
        except BoundaryProximityError:
            continue
        collected += 1
        analytic = projection_derivative(profile, rule)
        if rule is R.VCG:
            vcg_values.add(round(analytic.derivative, 9))
        if abs(analytic.derivative - numeric) <= 1e-6:
            agreed += 1
        elif len(failures) < 5:
            failures.append((rule.value, profile, analytic.derivative, numeric))
    vcg_ok = vcg_values <= {0.0, 0.5}
    ok = agreed == 1000 and vcg_ok
    report(
        3,
        ok,
        f"{agreed}/1000 points within 1e-6; vcg derivative values {sorted(vcg_values)}",
    )
    assert agreed == 1000, failures
    assert vcg_ok


# The threshold cells whose stated form is the paper's simplification, with
# the case boundary on which it coincides with the exact form.
FLAGGED_THRESHOLDS = {
    (R.SHAPLEY_PAYMENT_WITH_AUCTIONEER, CaseLabel.LOCAL1_STRONG, 2): "a = g",
    (R.SHAPLEY_PAYMENT_WITH_AUCTIONEER, CaseLabel.LOCAL2_STRONG, 1): "b = g",
}


def boundary_disagreements(cell, boundary: str) -> list[LlgBidProfile]:
    """Exact rational points on the boundary where stated, exact and direct differ.

    The other local bid runs over [0, g] in steps of g / 84, a grid that holds
    g / 7 and its neighbours, so no rounding decides a strict inequality.
    Direct evaluation uses the cell's own case's closed forms, since
    ``classify_case`` puts the boundary itself in the weak case.
    """
    disagreements = []
    for g in (Fraction(1), Fraction(5, 2)):
        for k in range(85):
            other = g * Fraction(k, 84)
            a, b = (g, other) if boundary == "a = g" else (other, g)
            profile = LlgBidProfile(a, b, g)
            p1, p2 = closed_form_for_case(cell.case, profile, cell.rule)
            direct = (p1 > p2 - g + 2 * a, p1 < p2 + g - 2 * b)[cell.inequality - 1]
            if not cell.stated(a, b, g) == cell.exact(a, b, g) == direct:
                disagreements.append(profile)
    return disagreements


def test_criterion_4_threshold_table_equivalence():
    """Tabulated per-case thresholds vs direct inequality evaluation, 10,000 profiles.

    ``THRESHOLD_TABLE`` promises that its exact forms equal direct evaluation
    and that its stated forms do too, except in the cells that carry a note.
    The test checks that contract:

    (a) all 16 exact forms have zero mismatches;
    (b) the 14 stated forms without a note have zero mismatches;
    (c) exactly the two with-auctioneer strong-case cells carry a note, and
        each note names the case boundary of (e);
    (d) each noted stated form mismatches on sampled interior profiles of its
        case: the paper's erratum, kept visible;
    (e) on that boundary each noted stated form agrees with its exact form
        and with direct evaluation on its own case's closed forms, at exact
        rational points.

    In local2_strong (a <= g < b) the closed forms are p1 = 7a/12 and
    p2 = b/2 - a/4 + g/3, so inequality 1, p1 > p2 - g + 2a, is
    7a + 3b < 4g: the paper's 7A < G only where b = g. The mirror case gives
    3A + 7B < 4G, which is 7B < G only where a = g.
    """
    checks = check_threshold_table(samples_per_case=2500, seed=SEED)
    # 2500 profiles per case x 4 cases = 10,000 sampled profiles in total.
    assert len(checks) == 16
    assert all(check.checked == 2500 for check in checks)

    by_key = {(check.cell.rule, check.cell.case, check.cell.inequality): check for check in checks}
    flagged = [by_key[key] for key in FLAGGED_THRESHOLDS]
    unflagged = [check for check in checks if not check.cell.note]
    exact_ok = all(check.exact_mismatches == 0 for check in checks)
    unflagged_ok = all(check.stated_mismatches == 0 for check in unflagged)
    noted_keys = {key for key, check in by_key.items() if check.cell.note}
    flagged_ok = noted_keys == FLAGGED_THRESHOLDS.keys() and all(
        f"{FLAGGED_THRESHOLDS[key]} boundary" in by_key[key].cell.note
        for key in FLAGGED_THRESHOLDS
    )
    interior_ok = all(
        check.stated_mismatches > 0 and classify_case(check.stated_example) is check.cell.case
        for check in flagged
    )
    boundary_misses = [
        boundary_disagreements(check.cell, boundary)
        for check, boundary in zip(flagged, FLAGGED_THRESHOLDS.values())
    ]
    boundary_ok = not any(boundary_misses)

    detail = [
        f"exact thresholds: {'16/16 zero mismatches' if exact_ok else 'FAILED'}",
        f"tabulated thresholds without a note: "
        f"{sum(check.stated_mismatches == 0 for check in unflagged)}/{len(unflagged)} "
        f"zero mismatches",
    ]
    for check, boundary, misses in zip(flagged, FLAGGED_THRESHOLDS.values(), boundary_misses):
        example = check.stated_example
        sample = f" (e.g. a={example.a:.3f} b={example.b:.3f} g=1)" if example else ""
        detail.append(
            f"tabulated {check.cell.rule.value} {check.cell.case.value} inequality "
            f"{check.cell.inequality} mismatches {check.stated_mismatches}/{check.checked}"
            f"{sample}, exact on the {boundary} boundary: {'no' if misses else 'yes'}"
        )
    ok = exact_ok and unflagged_ok and flagged_ok and interior_ok and boundary_ok
    report(4, ok, "; ".join(detail))
    assert exact_ok, detail
    assert unflagged_ok, detail
    assert flagged_ok, {key: by_key[key].cell.note for key in noted_keys}
    assert interior_ok, detail
    assert boundary_ok, boundary_misses


def test_criterion_5_shapley_axioms():
    """Efficiency on 1000 random instances (n <= 5) and the arrival-order oracle (n <= 6)."""
    rng = random.Random(SEED)
    efficiency_ok = 0
    for _ in range(1000):
        instance = random_instance(rng, max_bidders=5)
        total = coalition_value_table(instance)[-1]
        without = sum(shapley_payoffs(instance))
        with_a = sum(shapley_payoffs(instance, True)) + auctioneer_payoff(instance)
        if abs(without - total) <= 1e-9 and abs(with_a - total) <= 1e-9:
            efficiency_ok += 1

    oracle_ok = 0
    oracle_runs = 40
    for index in range(oracle_runs):
        instance = random_instance(rng, max_bidders=6 if index % 4 == 0 else 4)
        good = True
        for with_auctioneer in (False, True):
            fast = shapley_payoffs(instance, with_auctioneer)
            slow = shapley_payoffs_by_enumeration(instance, with_auctioneer)
            good = good and all(
                abs(x - y) <= 1e-9 for x, y in zip(fast, slow)
            )
        good = good and abs(
            auctioneer_payoff(instance) - auctioneer_payoff_by_enumeration(instance)
        ) <= 1e-9
        oracle_ok += good
    ok = efficiency_ok == 1000 and oracle_ok == oracle_runs
    report(
        5,
        ok,
        f"efficiency {efficiency_ok}/1000 within 1e-9; "
        f"arrival-order oracle {oracle_ok}/{oracle_runs} within 1e-9",
    )
    assert efficiency_ok == 1000
    assert oracle_ok == oracle_runs


def test_criterion_6_shapley_payments_below_minimum_revenue():
    """Engine Shapley payments (without auctioneer): p1 + p2 <= G + 1e-12 when locals win."""
    profiles = sampled_profiles(1000)
    checked = 0
    ok = True
    for case_profiles in profiles.values():
        for profile in case_profiles:
            p1, p2, _ = reference_point(profile.to_instance(), R.SHAPLEY_PAYMENT_NO_AUCTIONEER)
            checked += 1
            ok = ok and p1 + p2 <= profile.g + 1e-12
    report(6, ok, f"{checked} locals-win profiles, all with p1 + p2 <= g + 1e-12")
    assert ok


def test_criterion_7_boundary_continuity():
    """Closed forms from adjacent cases agree at 100 boundary points per rule, 1e-9."""
    rng = random.Random(SEED)
    edges = [
        (CaseLabel.LOCALS_WEAK, CaseLabel.LOCAL1_STRONG, lambda t: (1.0, t)),
        (CaseLabel.LOCALS_WEAK, CaseLabel.LOCAL2_STRONG, lambda t: (t, 1.0)),
        (CaseLabel.LOCAL1_STRONG, CaseLabel.LOCALS_STRONG, lambda t: (1.0 + t, 1.0)),
        (CaseLabel.LOCAL2_STRONG, CaseLabel.LOCALS_STRONG, lambda t: (1.0, 1.0 + t)),
    ]
    worst = 0.0
    points_per_rule = 100
    for rule in R:
        for index in range(points_per_rule):
            case_a, case_b, point = edges[index % len(edges)]
            a, b = point(rng.uniform(0.0, 1.0))
            profile = LlgBidProfile(a, b, 1.0)
            left = closed_form_for_case(case_a, profile, rule)
            right = closed_form_for_case(case_b, profile, rule)
            worst = max(worst, abs(left[0] - right[0]), abs(left[1] - right[1]))
    ok = worst <= 1e-9
    report(7, ok, f"6 rules x {points_per_rule} boundary points, max jump {worst:.2e}")
    assert ok


def test_criterion_8_projection_core_membership_and_region_map():
    """Projections are core points with revenue exactly G; 200x200 map under 5 s."""
    profiles = sampled_profiles(250)
    in_core = revenue_exact = total = 0
    for case_profiles in profiles.values():
        for profile in case_profiles:
            instance = profile.to_instance()
            for rule in R:
                projected = project_to_mrc(profile, reference_point(instance, rule))
                total += 1
                in_core += not core_violations(instance, projected)
                revenue_exact += (
                    abs(projected[0] + projected[1] - profile.g) <= 1e-12
                )

    start = time.perf_counter()
    grid = region_map(R.VCG, g=1.0, resolution=200)
    elapsed = time.perf_counter() - start
    derivatives = {cell.derivative for row in grid.cells for cell in row if cell is not None}
    has_global = any(cell is None for row in grid.cells for cell in row)
    map_ok = derivatives == {0.0, 0.5} and has_global and elapsed < 5.0

    ok = in_core == total and revenue_exact == total and map_ok
    report(
        8,
        ok,
        f"{in_core}/{total} projections in core, {revenue_exact}/{total} with revenue g "
        f"within 1e-12; 200x200 vcg map in {elapsed:.2f}s with derivatives "
        f"{sorted(derivatives)} plus global region",
    )
    assert in_core == total
    assert revenue_exact == total
    assert map_ok
