"""Closed-form LLG analytics.

Per-case closed forms of the six reference rules for the two local bidders,
their sensitivities (as exact rationals), the piecewise derivative of the
projected payment rule with respect to the first local bid, a finite
difference oracle that differentiates the full numeric pipeline, and region
maps over the (a, b) plane.

The bid space splits into four cases by comparing each local bid to the
global bid, with ties counted as weak; every closed form is continuous
across the case boundaries. The forms are valid where the locals win,
which ``LlgBidProfile.locals_win`` decides with the engine's tie rule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .core import even_split, llg_segment_ends, project_to_mrc
from .model import LlgBidProfile, llg_instance
from .reference import ReferenceRule, reference_point

BOUNDARY_TOLERANCE = 1e-9


class GlobalWinnerError(ValueError):
    """The locals lose, so the closed forms give no sensitivity or derivative."""


def _global_winner_error(profile: LlgBidProfile) -> GlobalWinnerError:
    return GlobalWinnerError(
        f"global bidder wins at (a, b, g) = ({profile.a}, {profile.b}, {profile.g})"
    )


class BoundaryProximityError(ValueError):
    """The profile is too close to a kink for a finite difference to be trusted."""


class CaseLabel(Enum):
    LOCALS_WEAK = "locals_weak"
    LOCAL1_STRONG = "local1_strong"
    LOCAL2_STRONG = "local2_strong"
    LOCALS_STRONG = "locals_strong"


class Region(Enum):
    """Where the even-split projection of the reference point lands.

    IR1_BINDING: pinned at bidder 1's own bid (derivative 1).
    IR2_BINDING: pinned where bidder 2's bid cap binds (derivative 0).
    NONNEG_BINDING: pinned at a zero-payment end of the segment, p1 = 0 when
    b > g or p2 = 0 when a > g (derivative 0).
    INTERIOR: the even split itself is feasible (derivative = sensitivity / 2).
    GLOBAL_WINNER: only used in region maps for cells where the global bidder wins.
    """

    IR1_BINDING = "ir1_binding"
    IR2_BINDING = "ir2_binding"
    NONNEG_BINDING = "nonneg_binding"
    INTERIOR = "interior"
    GLOBAL_WINNER = "GLOBAL"


@dataclass(frozen=True)
class DerivativeReport:
    case: CaseLabel
    region: Region
    derivative: float
    sensitivity: float
    boundary: bool = False


# Cases in the order _case_index numbers them.
_CASES = tuple(CaseLabel)


def _case_index(a: float, b: float, g: float) -> int:
    """Position of the case in _CASES: 1 for a > g plus 2 for b > g."""
    return (a > g) + 2 * (b > g)


def classify_case(profile: LlgBidProfile) -> CaseLabel:
    """Relative strength of the local bids, ties counted as weak."""
    return _CASES[_case_index(profile.a, profile.b, profile.g)]


_R = ReferenceRule

_FormPair = Callable[[float, float, float], tuple[float, float]]

_FORMS: dict[CaseLabel, dict[ReferenceRule, _FormPair]] = {
    CaseLabel.LOCALS_WEAK: {
        _R.FIRST_PRICE: lambda a, b, g: (a, b),
        _R.VCG: lambda a, b, g: (g - b, g - a),
        _R.SHAPLEY_PAYMENT_NO_AUCTIONEER: lambda a, b, g: (
            a / 6 - b / 3 + g / 3,
            -a / 3 + b / 6 + g / 3,
        ),
        _R.SHAPLEY_PAYOFF_NO_AUCTIONEER: lambda a, b, g: (
            5 * a / 6 + b / 3 - g / 3,
            a / 3 + 5 * b / 6 - g / 3,
        ),
        _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: lambda a, b, g: (
            7 * a / 12 - b / 4 + g / 4,
            -a / 4 + 7 * b / 12 + g / 4,
        ),
        _R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: lambda a, b, g: (
            5 * a / 12 + b / 4 - g / 4,
            a / 4 + 5 * b / 12 - g / 4,
        ),
    },
    CaseLabel.LOCAL1_STRONG: {
        _R.FIRST_PRICE: lambda a, b, g: (a, b),
        _R.VCG: lambda a, b, g: (g - b, 0.0),
        _R.SHAPLEY_PAYMENT_NO_AUCTIONEER: lambda a, b, g: (g / 2 - b / 3, b / 6),
        _R.SHAPLEY_PAYOFF_NO_AUCTIONEER: lambda a, b, g: (a + b / 3 - g / 2, 5 * b / 6),
        _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: lambda a, b, g: (
            a / 2 - b / 4 + g / 3,
            7 * b / 12,
        ),
        _R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: lambda a, b, g: (
            a / 2 + b / 4 - g / 3,
            5 * b / 12,
        ),
    },
    CaseLabel.LOCAL2_STRONG: {
        _R.FIRST_PRICE: lambda a, b, g: (a, b),
        _R.VCG: lambda a, b, g: (0.0, g - a),
        _R.SHAPLEY_PAYMENT_NO_AUCTIONEER: lambda a, b, g: (a / 6, g / 2 - a / 3),
        _R.SHAPLEY_PAYOFF_NO_AUCTIONEER: lambda a, b, g: (5 * a / 6, a / 3 + b - g / 2),
        _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: lambda a, b, g: (
            7 * a / 12,
            -a / 4 + b / 2 + g / 3,
        ),
        _R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: lambda a, b, g: (
            5 * a / 12,
            a / 4 + b / 2 - g / 3,
        ),
    },
    CaseLabel.LOCALS_STRONG: {
        _R.FIRST_PRICE: lambda a, b, g: (a, b),
        _R.VCG: lambda a, b, g: (0.0, 0.0),
        _R.SHAPLEY_PAYMENT_NO_AUCTIONEER: lambda a, b, g: (g / 6, g / 6),
        _R.SHAPLEY_PAYOFF_NO_AUCTIONEER: lambda a, b, g: (a - g / 6, b - g / 6),
        _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: lambda a, b, g: (
            a / 2 + g / 12,
            b / 2 + g / 12,
        ),
        _R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: lambda a, b, g: (
            a / 2 - g / 12,
            b / 2 - g / 12,
        ),
    },
}

# sens_1 = d p1/d a - d p2/d a of the closed forms, per case and rule.
_WEAK_SENS = {
    _R.FIRST_PRICE: Fraction(1),
    _R.VCG: Fraction(1),
    _R.SHAPLEY_PAYMENT_NO_AUCTIONEER: Fraction(1, 2),
    _R.SHAPLEY_PAYOFF_NO_AUCTIONEER: Fraction(1, 2),
    _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: Fraction(5, 6),
    _R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: Fraction(1, 6),
}
_STRONG1_SENS = {
    _R.FIRST_PRICE: Fraction(1),
    _R.VCG: Fraction(0),
    _R.SHAPLEY_PAYMENT_NO_AUCTIONEER: Fraction(0),
    _R.SHAPLEY_PAYOFF_NO_AUCTIONEER: Fraction(1),
    _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: Fraction(1, 2),
    _R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: Fraction(1, 2),
}

_SENSITIVITY: dict[CaseLabel, dict[ReferenceRule, Fraction]] = {
    CaseLabel.LOCALS_WEAK: _WEAK_SENS,
    CaseLabel.LOCAL1_STRONG: _STRONG1_SENS,
    CaseLabel.LOCAL2_STRONG: _WEAK_SENS,
    CaseLabel.LOCALS_STRONG: _STRONG1_SENS,
}


# Region indices of the report tables, in the order of _REPORT_REGIONS.
_IR1, _IR2, _NONNEG, _INTERIOR = range(4)
_REPORT_REGIONS = (Region.IR1_BINDING, Region.IR2_BINDING, Region.NONNEG_BINDING, Region.INTERIOR)


def _case_entry(case: CaseLabel, rule: ReferenceRule) -> tuple:
    """(closed form, exact sensitivity, reports indexed [region][boundary])."""
    exact = _SENSITIVITY[case][rule]
    sens = float(exact)
    derivatives = (1.0, 0.0, 0.0, sens / 2)
    reports = tuple(
        (
            DerivativeReport(case, region, derivative, sens, False),
            DerivativeReport(case, region, derivative, sens, True),
        )
        for region, derivative in zip(_REPORT_REGIONS, derivatives)
    )
    return _FORMS[case][rule], exact, reports


# The only runtime lookup of the per-case data: per rule, one _case_entry
# per case in _CASES order; _FORMS and _SENSITIVITY are read only to build it.
# Keyed by id(rule) and indexed by case position, since members are
# singletons and Enum.__hash__ runs in Python.
_BY_RULE = {
    id(rule): tuple(_case_entry(case, rule) for case in _CASES) for rule in ReferenceRule
}


def closed_form_for_case(
    case: CaseLabel, profile: LlgBidProfile, rule: ReferenceRule
) -> tuple[float, float]:
    """Evaluate one case's closed forms at a profile, regardless of its own case.

    Useful for checking continuity across case boundaries.
    """
    form, _, _ = _BY_RULE[id(rule)][_CASES.index(case)]
    return form(profile.a, profile.b, profile.g)


def closed_form_reference(profile: LlgBidProfile, rule: ReferenceRule) -> tuple[float, float]:
    """Tabulated (p1, p2) of the rule for the two local bidders.

    Payments for the payment rules, payoffs for the payoff rules. Valid on
    profiles where the locals jointly win.
    """
    a, b, g = profile.a, profile.b, profile.g
    form, _, _ = _BY_RULE[id(rule)][_case_index(a, b, g)]
    return form(a, b, g)


def sensitivity_fraction(case: CaseLabel, rule: ReferenceRule) -> Fraction:
    """Exact sensitivity of the rule's local components in the given case."""
    _, exact, _ = _BY_RULE[id(rule)][_CASES.index(case)]
    return exact


def sensitivity(profile: LlgBidProfile, rule: ReferenceRule) -> float:
    """Sensitivity to the first local bid: d p1/d a - d p2/d a of the closed forms.

    The closed forms hold only where the locals win; elsewhere this raises
    ``GlobalWinnerError``.
    """
    if not profile.locals_win():
        raise _global_winner_error(profile)
    return float(sensitivity_fraction(classify_case(profile), rule))


def sensitivity2(profile: LlgBidProfile, rule: ReferenceRule) -> float:
    """Sensitivity to the second local bid, via the domain's swap symmetry."""
    return sensitivity(profile.swapped(), rule)


def region_inequalities(profile: LlgBidProfile, rule: ReferenceRule) -> tuple[bool, bool]:
    """The two strict inequalities that decide whether the projection is pinned.

    Evaluated directly on the closed-form reference point (p1, p2):
    the first is p1 > p2 - g + 2a (the even split exceeds bidder 1's bid),
    the second is p1 < p2 + g - 2b (the even split falls below g - b).
    """
    p1, p2 = closed_form_reference(profile, rule)
    a, b, g = profile.a, profile.b, profile.g
    return (p1 > p2 - g + 2 * a, p1 < p2 + g - 2 * b)


def projection_derivative(profile: LlgBidProfile, rule: ReferenceRule) -> DerivativeReport:
    """Piecewise derivative of the projected rule's first payment w.r.t. bid a.

    The even split of the revenue shortfall is compared against the segment
    [max(0, g - b), min(a, g)]. Past the upper end the payment is pinned at
    bidder 1's own bid (derivative 1) unless a > g, where the binding end is
    the other local's zero payment (derivative 0). Past the lower end it is
    pinned at g - b (derivative 0) or, when b > g, at p1 = 0 (derivative 0).
    Strictly between the ends the payment moves at half the rule's
    sensitivity. Profiles within tolerance of either end are flagged: the
    projected payment has a kink there and no two-sided derivative.
    """
    if not profile.locals_win():
        raise _global_winner_error(profile)
    a, b, g = profile.a, profile.b, profile.g
    form, _, reports = _BY_RULE[id(rule)][_case_index(a, b, g)]
    split = even_split(g, *form(a, b, g))
    lo, hi = llg_segment_ends(a, b, g)
    boundary = abs(split - lo) <= BOUNDARY_TOLERANCE or abs(split - hi) <= BOUNDARY_TOLERANCE
    if split > hi + BOUNDARY_TOLERANCE:
        region = _IR1 if a <= g else _NONNEG
    elif split < lo - BOUNDARY_TOLERANCE:
        region = _IR2 if b <= g else _NONNEG
    else:
        region = _INTERIOR
    # Reports are shared: every call with the same outcome returns the same object.
    return reports[region][boundary]


def numeric_derivative(
    profile: LlgBidProfile, rule: ReferenceRule, h: float | None = None
) -> float:
    """Central difference of the full numeric pipeline w.r.t. the first local bid.

    The pipeline runs the exhaustive engine's reference point through the
    minimum-revenue projection; it is piecewise linear, so away from kinks
    the central difference is exact up to rounding. Requires the profile to
    be at distance greater than 10 h from every case boundary and from the
    segment-end kinks of the projection. ``h`` defaults to 1e-5 * max(1, |a|);
    one that is not finite and positive, or too small to change a, is a
    ``ValueError``.
    """
    a, b, g = profile.a, profile.b, profile.g
    if h is None:
        h = 1e-5 * max(1.0, abs(a))
    elif not (math.isfinite(h) and h > 0 and a - h < a < a + h):
        raise ValueError(f"step must be finite, positive and change a = {a}, got {h}")
    if not profile.locals_win():
        raise _global_winner_error(profile)
    p1, p2 = closed_form_reference(profile, rule)
    split = even_split(g, p1, p2)
    p1_min, p1_max = llg_segment_ends(a, b, g)
    margins = (a + b - g, abs(a - g), abs(b - g), a, abs(split - p1_min), abs(split - p1_max))
    if min(margins) <= 10 * h:
        raise BoundaryProximityError(
            f"profile within 10h of a case or region boundary (margin {min(margins):.3g}, h {h:.3g})"
        )

    def pinned_payment(x: float) -> float:
        shifted = LlgBidProfile(x, b, g)
        return project_to_mrc(shifted, reference_point(llg_instance(x, b, g), rule))[0]

    return (pinned_payment(a + h) - pinned_payment(a - h)) / (2 * h)


@dataclass(frozen=True)
class RegionMap:
    """Derivative reports on a square grid over [0, 2g]^2; None marks global-winner cells."""

    rule: ReferenceRule
    g: float
    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    cells: tuple[tuple[DerivativeReport | None, ...], ...]


def region_map(rule: ReferenceRule, g: float = 1.0, resolution: int = 200) -> RegionMap:
    """Evaluate the projection derivative on a resolution x resolution grid.

    Grid points span [0, 2g] inclusively on both axes, row-major by a then b.
    Cells where the global bidder wins are marked as global-winner.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if not g > 0:
        raise ValueError(f"global bid must be positive, got {g}")
    # The largest product 2g * i below must be finite for every coordinate to be.
    if not math.isfinite(2 * g * (resolution - 1)):
        raise ValueError(f"global bid {g} is too large: the grid over [0, 2g] is not finite")
    coords = tuple(2 * g * i / (resolution - 1) for i in range(resolution))
    cells = []
    for a in coords:
        row: list[DerivativeReport | None] = []
        for b in coords:
            profile = LlgBidProfile(a, b, g)
            row.append(projection_derivative(profile, rule) if profile.locals_win() else None)
        cells.append(tuple(row))
    return RegionMap(rule, g, coords, coords, tuple(cells))


def region_map_to_csv(grid: RegionMap) -> str:
    """Serialise a region map, row-major by a then b, full float precision.

    Global-winner cells carry region "GLOBAL" and empty derivative and
    sensitivity columns.
    """
    lines = ["A,B,case,region,derivative,sensitivity"]
    # The global bidder wins only where a + b < g, so both local bids are below g.
    # Suffixes are keyed by id(): region_map shares one report per outcome, and
    # the grid keeps every report alive while the suffixes are in use.
    suffixes = {id(None): f"{CaseLabel.LOCALS_WEAK.value},{Region.GLOBAL_WINNER.value},,"}
    b_prefixes = [f"{b!r}," for b in grid.b_values]
    for a, row in zip(grid.a_values, grid.cells):
        a_prefix = f"{a!r},"
        for b_prefix, cell in zip(b_prefixes, row):
            suffix = suffixes.get(id(cell))
            if suffix is None:
                suffix = suffixes[id(cell)] = (
                    f"{cell.case.value},{cell.region.value},"
                    f"{cell.derivative!r},{cell.sensitivity!r}"
                )
            lines.append(a_prefix + b_prefix + suffix)
    return "\n".join(lines) + "\n"


def sample_llg_profile(
    rng: random.Random, case: CaseLabel, g: float = 1.0
) -> LlgBidProfile:
    """Uniform locals-winning profile in the given case, local bids in [0, 2g]."""
    while True:
        if case is CaseLabel.LOCALS_WEAK:
            a, b = rng.uniform(0.0, g), rng.uniform(0.0, g)
        elif case is CaseLabel.LOCAL1_STRONG:
            a, b = rng.uniform(g, 2 * g), rng.uniform(0.0, g)
        elif case is CaseLabel.LOCAL2_STRONG:
            a, b = rng.uniform(0.0, g), rng.uniform(g, 2 * g)
        else:
            a, b = rng.uniform(g, 2 * g), rng.uniform(g, 2 * g)
        profile = LlgBidProfile(a, b, g)
        if a + b > g and classify_case(profile) is case:
            return profile


_Threshold = Callable[[float, float, float], bool] | None


@dataclass(frozen=True)
class ThresholdCell:
    """One entry of the per-case threshold table for the region inequalities.

    ``exact`` is the condition algebraically equivalent to direct evaluation
    of the inequality on the closed forms; None means the inequality never
    holds in the case. Only the two with-auctioneer strong-case cells carry a
    ``simplified`` form, the paper's, which drops the other local's bid and
    holds only on the case boundary that ``note`` names.
    """

    rule: ReferenceRule
    case: CaseLabel
    inequality: int  # 1 = first inequality (upper pin), 2 = second (lower pin)
    exact: _Threshold
    simplified: _Threshold = None
    note: str = ""

    @property
    def stated(self) -> _Threshold:
        """The condition as tabulated: the simplified form where there is one."""
        return self.exact if self.simplified is None else self.simplified


THRESHOLD_TABLE: tuple[ThresholdCell, ...] = (
    ThresholdCell(
        _R.SHAPLEY_PAYMENT_NO_AUCTIONEER,
        CaseLabel.LOCALS_WEAK,
        1,
        lambda a, b, g: 3 * a + b < 2 * g,
    ),
    ThresholdCell(
        _R.SHAPLEY_PAYMENT_NO_AUCTIONEER,
        CaseLabel.LOCALS_WEAK,
        2,
        lambda a, b, g: a + 3 * b < 2 * g,
    ),
    ThresholdCell(_R.SHAPLEY_PAYMENT_NO_AUCTIONEER, CaseLabel.LOCAL1_STRONG, 1, None),
    ThresholdCell(
        _R.SHAPLEY_PAYMENT_NO_AUCTIONEER, CaseLabel.LOCAL1_STRONG, 2, lambda a, b, g: 3 * b < g
    ),
    ThresholdCell(
        _R.SHAPLEY_PAYMENT_NO_AUCTIONEER, CaseLabel.LOCAL2_STRONG, 1, lambda a, b, g: 3 * a < g
    ),
    ThresholdCell(_R.SHAPLEY_PAYMENT_NO_AUCTIONEER, CaseLabel.LOCAL2_STRONG, 2, None),
    ThresholdCell(_R.SHAPLEY_PAYMENT_NO_AUCTIONEER, CaseLabel.LOCALS_STRONG, 1, None),
    ThresholdCell(_R.SHAPLEY_PAYMENT_NO_AUCTIONEER, CaseLabel.LOCALS_STRONG, 2, None),
    ThresholdCell(
        _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER,
        CaseLabel.LOCALS_WEAK,
        1,
        lambda a, b, g: 7 * a + 5 * b < 6 * g,
    ),
    ThresholdCell(
        _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER,
        CaseLabel.LOCALS_WEAK,
        2,
        lambda a, b, g: 5 * a + 7 * b < 6 * g,
    ),
    ThresholdCell(_R.SHAPLEY_PAYMENT_WITH_AUCTIONEER, CaseLabel.LOCAL1_STRONG, 1, None),
    ThresholdCell(
        _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER,
        CaseLabel.LOCAL1_STRONG,
        2,
        lambda a, b, g: 3 * a + 7 * b < 4 * g,
        simplified=lambda a, b, g: 7 * b < g,
        note="simplified form 7B < G matches direct evaluation only on the a = g boundary",
    ),
    ThresholdCell(
        _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER,
        CaseLabel.LOCAL2_STRONG,
        1,
        lambda a, b, g: 7 * a + 3 * b < 4 * g,
        simplified=lambda a, b, g: 7 * a < g,
        note="simplified form 7A < G matches direct evaluation only on the b = g boundary",
    ),
    ThresholdCell(_R.SHAPLEY_PAYMENT_WITH_AUCTIONEER, CaseLabel.LOCAL2_STRONG, 2, None),
    ThresholdCell(_R.SHAPLEY_PAYMENT_WITH_AUCTIONEER, CaseLabel.LOCALS_STRONG, 1, None),
    ThresholdCell(_R.SHAPLEY_PAYMENT_WITH_AUCTIONEER, CaseLabel.LOCALS_STRONG, 2, None),
)


@dataclass
class ThresholdCheck:
    """Sampled comparison of one threshold cell against direct inequality evaluation."""

    cell: ThresholdCell
    checked: int
    stated_mismatches: int
    exact_mismatches: int
    stated_example: LlgBidProfile | None
    exact_example: LlgBidProfile | None


def check_threshold_table(
    samples_per_case: int, seed: int, g: float = 1.0
) -> list[ThresholdCheck]:
    """Compare every threshold cell against direct evaluation on sampled profiles."""
    rng = random.Random(seed)
    profiles = {
        case: [sample_llg_profile(rng, case, g) for _ in range(samples_per_case)]
        for case in CaseLabel
    }
    results = []
    for cell in THRESHOLD_TABLE:
        stated_mismatches = exact_mismatches = 0
        stated_example = exact_example = None
        for profile in profiles[cell.case]:
            direct = region_inequalities(profile, cell.rule)[cell.inequality - 1]
            stated = bool(cell.stated and cell.stated(profile.a, profile.b, profile.g))
            exact = bool(cell.exact and cell.exact(profile.a, profile.b, profile.g))
            if direct != stated:
                stated_mismatches += 1
                stated_example = stated_example or profile
            if direct != exact:
                exact_mismatches += 1
                exact_example = exact_example or profile
        results.append(
            ThresholdCheck(
                cell,
                len(profiles[cell.case]),
                stated_mismatches,
                exact_mismatches,
                stated_example,
                exact_example,
            )
        )
    return results
