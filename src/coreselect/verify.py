"""Randomized cross-verification suites behind the command line's verify-table.

Each suite pits an independent computation path against another: closed forms
against the exhaustive engine, analytic derivatives against finite
differences of the full pipeline, subset-weighted Shapley values against
arrival-order averages, and projections against the raw core constraints.
The finite-difference oracle, ``numeric_derivative``, lives here too: it runs
the engine, so the closed forms in ``llg`` never do.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from .core import core_violations, even_split, llg_segment_ends, project_to_mrc
from .llg import (
    CaseLabel,
    check_threshold_table,
    closed_form_for_case,
    closed_form_reference,
    projection_derivative,
    sample_llg_profile,
    sensitivity,
    sensitivity_fraction,
)
from .model import AuctionInstance, Bid, Bidder, LlgBidProfile
from .reference import (
    ReferenceRule,
    auctioneer_payoff,
    auctioneer_payoff_by_enumeration,
    reference_point,
    shapley_payoffs,
    shapley_payoffs_by_enumeration,
)

DEFAULT_SEED = 7

EQUIVALENCE_TOLERANCE = 1e-9
DERIVATIVE_TOLERANCE = 1e-6
PROJECTION_TOLERANCE = 1e-12  # times g, for the projection's revenue and idempotence


@dataclass
class SuiteResult:
    """Pass/fail tally of one suite; ``unit`` names what its checks count."""

    name: str
    unit: str = "checks"
    passed: int = 0
    total: int = 0
    ok: bool = True
    notes: list[str] = field(default_factory=list)

    def check(self, passed: bool, note: Callable[[], str] | None = None) -> None:
        """Count one check; a failed one fails the suite and keeps its note.

        The note is built only on failure, so it may read values that exist
        only then.
        """
        self.total += 1
        if passed:
            self.passed += 1
        else:
            self.fail(note() if note else None)

    def fail(self, note: str | None) -> None:
        """Fail the suite without counting a check, keeping the note if given."""
        self.ok = False
        if note:
            self.notes.append(note)

    def summary(self) -> str:
        status = "passed" if self.ok else "FAILED"
        return f"{self.name}: {self.passed}/{self.total} {self.unit} {status}"


def closed_form_table_suite(samples_per_case: int = 1000, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Closed forms against the exhaustive engine, per rule and case cell."""
    result = SuiteResult("closed-form reference table", "cells")
    for case_index, case in enumerate(CaseLabel):
        rng = random.Random(seed + case_index)
        worst: dict[ReferenceRule, float] = {rule: 0.0 for rule in ReferenceRule}
        for _ in range(samples_per_case):
            profile = sample_llg_profile(rng, case)
            instance = profile.to_instance()
            for rule in ReferenceRule:
                p1, p2 = closed_form_reference(profile, rule)
                e1, e2, _ = reference_point(instance, rule)
                worst[rule] = max(worst[rule], abs(p1 - e1), abs(p2 - e2))
        for rule in ReferenceRule:
            # A cell that drew no profile compared nothing, so it fails.
            result.check(
                samples_per_case > 0 and worst[rule] <= EQUIVALENCE_TOLERANCE,
                lambda: f"{rule.value} in {case.value}: "
                + (f"max deviation {worst[rule]:.3e}" if samples_per_case > 0 else "no draw compared"),
            )
    return result


def sensitivity_consistency_suite(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Tabulated sensitivities against central differences of the closed forms."""
    result = SuiteResult("sensitivity consistency")
    rng = random.Random(seed)
    h = 1e-6
    for case in CaseLabel:
        for rule in ReferenceRule:
            compared, worst = 0, 0.0
            for _ in range(20):
                profile = sample_llg_profile(rng, case)
                # Both evaluations use this case's forms, which are linear in a,
                # so only a - h has to stay a valid (non-negative) bid.
                if profile.a <= 10 * h:
                    continue
                up = closed_form_for_case(case, LlgBidProfile(profile.a + h, profile.b, profile.g), rule)
                down = closed_form_for_case(case, LlgBidProfile(profile.a - h, profile.b, profile.g), rule)
                estimate = ((up[0] - down[0]) - (up[1] - down[1])) / (2 * h)
                worst = max(worst, abs(estimate - float(sensitivity_fraction(case, rule))))
                compared += 1
            # A check whose every draw was skipped compared nothing, so it fails.
            result.check(
                compared > 0 and worst <= DERIVATIVE_TOLERANCE,
                lambda: f"{rule.value} in {case.value}: "
                + (f"deviation {worst:.3e}" if compared else "no draw compared"),
            )
    return result


class BoundaryProximityError(ValueError):
    """The profile is too close to a kink for a finite difference to be trusted."""


def numeric_derivative(
    profile: LlgBidProfile, rule: ReferenceRule, h: float | None = None
) -> float:
    """Central difference of the full numeric pipeline w.r.t. the first local bid.

    The pipeline runs the exhaustive engine's reference point through the
    minimum-revenue projection; it is piecewise linear, so away from kinks
    the central difference is exact up to rounding. Its kinks in a are at
    a = g, at a + b = g and where the even split meets an end of the
    segment, so the profile must be farther than 10 h from each of them and
    from a = 0, where a - h stops being a bid. b is held fixed, so b = g is
    a case boundary but no kink in a. ``h`` defaults to 1e-5 * max(g, a),
    so it and the margins scale with the bids; one that is not finite and
    positive, or too small to change a, is a ``ValueError``. Where the
    global bidder wins, the call to ``sensitivity`` raises its
    ``GlobalWinnerError``.
    """
    a, b, g = profile.a, profile.b, profile.g
    if h is None:
        h = 1e-5 * max(g, a)
    elif not (math.isfinite(h) and h > 0 and a - h < a < a + h):
        raise ValueError(f"step must be finite, positive and change a = {a}, got {h}")
    sensitivity(profile, rule)
    p1, p2 = closed_form_reference(profile, rule)
    split = even_split(g, p1, p2)
    p1_min, p1_max = llg_segment_ends(a, b, g)
    margins = (a + b - g, abs(a - g), a, abs(split - p1_min), abs(split - p1_max))
    # A default step that underflows to 0 fails this too.
    if not 0 < 10 * h < min(margins):
        raise BoundaryProximityError(
            f"profile within 10h of a kink in a (margin {min(margins):.3g}, h {h:.3g})"
        )

    def pinned_payment(x: float) -> float:
        shifted = LlgBidProfile(x, b, g)
        return project_to_mrc(shifted, reference_point(shifted.to_instance(), rule))[0]

    return (pinned_payment(a + h) - pinned_payment(a - h)) / (2 * h)


def derivative_oracle_suite(samples: int = 1000, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Analytic projection derivative against the finite-difference pipeline."""
    result = SuiteResult("projection derivative oracle")
    rng = random.Random(seed)
    rules = tuple(ReferenceRule)
    cases = tuple(CaseLabel)
    vcg_values = set()
    while result.total < samples:
        rule = rules[result.total % len(rules)]
        case = cases[rng.randrange(len(cases))]
        profile = sample_llg_profile(rng, case)
        try:
            numeric = numeric_derivative(profile, rule)
        except BoundaryProximityError:
            continue
        report = projection_derivative(profile, rule)
        if rule is ReferenceRule.VCG:
            vcg_values.add(round(report.derivative, 9))
        result.check(
            abs(report.derivative - numeric) <= DERIVATIVE_TOLERANCE,
            lambda: f"{rule.value} at (a={profile.a:.6f}, b={profile.b:.6f}, g={profile.g}): "
            f"analytic {report.derivative} vs numeric {numeric:.8f} ({report.region.value})",
        )
    if vcg_values <= {0.0, 0.5}:
        result.notes.append(f"vcg derivative values observed: {sorted(vcg_values)}")
    else:
        result.fail(f"vcg derivatives outside {{0, 1/2}}: {sorted(vcg_values)}")
    return result


def threshold_table_suite(samples_per_case: int = 2500, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Per-case pin thresholds against direct inequality evaluation.

    The suite passes on the exact thresholds; cells with a simplified form
    that differs are reported as notes with their mismatch counts.
    """
    result = SuiteResult("region threshold table", "cells")
    for check in check_threshold_table(samples_per_case, seed):
        cell, example = check.cell, check.exact_example
        # A cell that compared no draw fails, and has no example to show.
        result.check(
            check.checked > 0 and check.exact_mismatches == 0,
            lambda: f"exact threshold failed: {cell.rule.value} {cell.case.value} "
            f"inequality {cell.inequality} "
            + (f"({check.exact_mismatches}/{check.checked}, e.g. a={example.a:.4f} b={example.b:.4f})"
               if check.checked else "(no draw compared)"),
        )
        if check.stated_mismatches and cell.note:
            result.notes.append(
                f"note: {cell.rule.value} {cell.case.value} inequality "
                f"{cell.inequality}: {cell.note} "
                f"({check.stated_mismatches}/{check.checked} sampled profiles differ)"
            )
    return result


def random_instance(rng: random.Random, max_bidders: int = 5) -> AuctionInstance:
    """Random XOR instance for axiom checks: up to 4 goods, up to 3 bundle bids per bidder."""
    m = rng.randint(1, 4)
    goods = tuple(f"g{k}" for k in range(1, m + 1))
    n = rng.randint(1, max_bidders)
    bidders = []
    for i in range(1, n + 1):
        bids = []
        seen = set()
        for _ in range(rng.randint(0, 3)):
            bundle = frozenset(good for good in goods if rng.random() < 0.5)
            if not bundle or bundle in seen:
                continue
            seen.add(bundle)
            bids.append(Bid(bundle, rng.uniform(0.0, 1.0)))
        bidders.append(Bidder(i, tuple(bids)))
    return AuctionInstance(goods, tuple(bidders))


def shapley_axiom_suite(instances: int = 1000, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Efficiency of both payoff variants plus the arrival-order cross-check."""
    result = SuiteResult("shapley axioms")
    rng = random.Random(seed)
    for _ in range(instances):
        instance = random_instance(rng)
        total_value = instance.coalition_values[-1]
        without = shapley_payoffs(instance, with_auctioneer=False)
        with_a = shapley_payoffs(instance, with_auctioneer=True)
        ok = abs(sum(without) - total_value) <= EQUIVALENCE_TOLERANCE
        ok = ok and abs(sum(with_a) + auctioneer_payoff(instance) - total_value) <= EQUIVALENCE_TOLERANCE
        result.check(ok)
    efficiency_failures = result.total - result.passed
    if efficiency_failures:
        result.notes.append(f"efficiency failed on {efficiency_failures} instances")

    for _ in range(60):
        instance = random_instance(rng, max_bidders=4)
        ok = True
        for with_auctioneer in (False, True):
            fast = shapley_payoffs(instance, with_auctioneer)
            slow = shapley_payoffs_by_enumeration(instance, with_auctioneer)
            ok = ok and all(abs(x - y) <= EQUIVALENCE_TOLERANCE for x, y in zip(fast, slow))
        ok = ok and abs(
            auctioneer_payoff(instance) - auctioneer_payoff_by_enumeration(instance)
        ) <= EQUIVALENCE_TOLERANCE
        result.check(ok)
    oracle_failures = result.total - result.passed - efficiency_failures
    if oracle_failures:
        result.notes.append(f"arrival-order oracle disagreed on {oracle_failures} instances")
    return result


def projection_suite(samples_per_case: int = 250, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Projection outputs against the raw core constraints and segment identities."""
    result = SuiteResult("minimum-revenue projection")
    rng = random.Random(seed)
    for case in CaseLabel:
        for _ in range(samples_per_case):
            profile = sample_llg_profile(rng, case)
            instance = profile.to_instance()
            tol = PROJECTION_TOLERANCE * profile.g
            below = reference_point(instance, ReferenceRule.SHAPLEY_PAYMENT_NO_AUCTIONEER)
            checks_ok = below[0] + below[1] <= profile.g + tol
            for rule in ReferenceRule:
                projected = project_to_mrc(profile, reference_point(instance, rule))
                checks_ok = checks_ok and not core_violations(instance, projected)
                checks_ok = checks_ok and abs(projected[0] + projected[1] - profile.g) <= tol
                again = project_to_mrc(profile, projected)
                checks_ok = checks_ok and abs(again[0] - projected[0]) <= tol
            result.check(
                checks_ok,
                lambda: f"projection properties failed at (a={profile.a:.6f}, b={profile.b:.6f})",
            )
    return result


def run_all(samples_per_case: int = 1000, seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Run every suite with per-suite derived seeds; deterministic for a given seed."""
    if samples_per_case < 1:
        raise ValueError(f"samples per case must be at least 1, got {samples_per_case}")
    return [
        closed_form_table_suite(samples_per_case, seed),
        sensitivity_consistency_suite(seed + 1),
        derivative_oracle_suite(min(samples_per_case, 1000), seed + 2),
        threshold_table_suite(max(samples_per_case, 1000), seed + 3),
        shapley_axiom_suite(min(samples_per_case, 1000), seed + 4),
        projection_suite(max(samples_per_case // 4, 50), seed + 5),
    ]
