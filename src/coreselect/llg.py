"""Closed-form LLG analytics.

Per-case closed forms of the six reference rules for the two local bidders,
their sensitivities (as exact rationals), the piecewise derivative of the
projected payment rule with respect to the first local bid, and region maps
over the (a, b) plane. Each closed form is written for bidder 1; bidder 2's
entry comes from the mirror rule: it is bidder 1's form in the mirrored case
(a > g and b > g exchanged) at the swapped bids (b, a, g). Nothing here
solves an auction: the closed forms are an independent path, and ``verify``
checks them against the engine.

The bid space splits into four cases by comparing each local bid to the
global bid, with ties counted as weak; every closed form is continuous
across the case boundaries. The forms are valid where the locals win,
which ``LlgBidProfile.locals_win`` decides with the engine's tie rule.
That rule and the derivative's kink tolerance are relative to g. The
derivative is piecewise constant, so region maps are built by spans: each
row is evaluated only in guard bands around its breakpoints in b, and every
run in between takes the report of an evaluated cell.
"""

from __future__ import annotations

import io
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress, groupby
from operator import is_not
from typing import Callable, NamedTuple, TextIO

from .core import even_split, llg_segment_ends
from .model import TIE_TOLERANCE, LlgBidProfile
from .reference import ReferenceRule

# How near a segment end the even split counts as on it, as a multiple of g:
# the split scales with the bids, so the kink band does too.
BOUNDARY_TOLERANCE = 1e-9


class GlobalWinnerError(ValueError):
    """The locals lose, so the closed forms give no sensitivity or derivative."""


def _global_winner_error(profile: LlgBidProfile) -> GlobalWinnerError:
    return GlobalWinnerError(
        f"global bidder wins at (a, b, g) = ({profile.a}, {profile.b}, {profile.g})"
    )


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
    """Position of the case in _CASES: bit 0 is set for a > g, bit 1 for b > g."""
    return (a > g) + 2 * (b > g)


def _position(case: CaseLabel) -> int:
    """Position of a given case in _CASES; a case that is not a CaseLabel is a ValueError."""
    if not isinstance(case, CaseLabel):
        raise ValueError(f"case must be a CaseLabel, got {case!r}")
    return _CASES.index(case)


def classify_case(profile: LlgBidProfile) -> CaseLabel:
    """Relative strength of the local bids, ties counted as weak."""
    return _CASES[_case_index(profile.a, profile.b, profile.g)]


_R = ReferenceRule

_Form = Callable[[float, float, float], float]

# Bidder 1's closed form per case and rule, each written once; _TABLE adds
# bidder 2's by the mirror rule.
_FORM1: dict[CaseLabel, dict[ReferenceRule, _Form]] = {
    CaseLabel.LOCALS_WEAK: {
        _R.FIRST_PRICE: lambda a, b, g: a,
        _R.VCG: lambda a, b, g: g - b,
        _R.SHAPLEY_PAYMENT_NO_AUCTIONEER: lambda a, b, g: a / 6 - b / 3 + g / 3,
        _R.SHAPLEY_PAYOFF_NO_AUCTIONEER: lambda a, b, g: 5 * a / 6 + b / 3 - g / 3,
        _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: lambda a, b, g: 7 * a / 12 - b / 4 + g / 4,
        _R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: lambda a, b, g: 5 * a / 12 + b / 4 - g / 4,
    },
    CaseLabel.LOCAL1_STRONG: {
        _R.FIRST_PRICE: lambda a, b, g: a,
        _R.VCG: lambda a, b, g: g - b,
        _R.SHAPLEY_PAYMENT_NO_AUCTIONEER: lambda a, b, g: g / 2 - b / 3,
        _R.SHAPLEY_PAYOFF_NO_AUCTIONEER: lambda a, b, g: a + b / 3 - g / 2,
        _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: lambda a, b, g: a / 2 - b / 4 + g / 3,
        _R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: lambda a, b, g: a / 2 + b / 4 - g / 3,
    },
    CaseLabel.LOCAL2_STRONG: {
        _R.FIRST_PRICE: lambda a, b, g: a,
        _R.VCG: lambda a, b, g: 0.0,
        _R.SHAPLEY_PAYMENT_NO_AUCTIONEER: lambda a, b, g: a / 6,
        _R.SHAPLEY_PAYOFF_NO_AUCTIONEER: lambda a, b, g: 5 * a / 6,
        _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: lambda a, b, g: 7 * a / 12,
        _R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: lambda a, b, g: 5 * a / 12,
    },
    CaseLabel.LOCALS_STRONG: {
        _R.FIRST_PRICE: lambda a, b, g: a,
        _R.VCG: lambda a, b, g: 0.0,
        _R.SHAPLEY_PAYMENT_NO_AUCTIONEER: lambda a, b, g: g / 6,
        _R.SHAPLEY_PAYOFF_NO_AUCTIONEER: lambda a, b, g: a - g / 6,
        _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: lambda a, b, g: a / 2 + g / 12,
        _R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: lambda a, b, g: a / 2 - g / 12,
    },
}


# sens_1 = d p1/d a - d p2/d a of the closed forms, per rule, as the pair
# (a <= g, a > g): it depends only on bit 0 of _case_index.
_SENSITIVITY1: dict[ReferenceRule, tuple[Fraction, Fraction]] = {
    _R.FIRST_PRICE: (Fraction(1), Fraction(1)),
    _R.VCG: (Fraction(1), Fraction(0)),
    _R.SHAPLEY_PAYMENT_NO_AUCTIONEER: (Fraction(1, 2), Fraction(0)),
    _R.SHAPLEY_PAYOFF_NO_AUCTIONEER: (Fraction(1, 2), Fraction(1)),
    _R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: (Fraction(5, 6), Fraction(1, 2)),
    _R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: (Fraction(1, 6), Fraction(1, 2)),
}


# Below this bid sum no closed form or threshold overflows: the largest
# multiple of a bid that any of them takes is 7 * a, finite for a < 2**1021.
_FORM_LIMIT = 2.0**1021


def _rescaled(a: float, b: float, g: float) -> tuple[int, float, float, float]:
    """``(k, a / k, b / k, g / k)``: k is 8 where the bid sum reaches ``_FORM_LIMIT``, else 1.

    The closed forms and the thresholds multiply before they divide or
    compare (``7 * a / 12``, ``7 * a + 5 * b < 6 * g``), so such a bid sum
    could overflow them. Scaling by a power of two changes no rounding
    (barring subnormal bids), so a form at the scaled bids, times k, is its
    value with unbounded exponents, and a threshold holds at the scaled
    bids exactly where it does with unbounded exponents. An integer k keeps
    ``Fraction`` bids exact.
    """
    if a + b + g < _FORM_LIMIT:
        return 1, a, b, g
    return 8, a / 8, b / 8, g / 8


# Region indices of the report tables, in the order of _REPORT_REGIONS.
_IR1, _IR2, _NONNEG, _INTERIOR = range(4)
_REPORT_REGIONS = (Region.IR1_BINDING, Region.IR2_BINDING, Region.NONNEG_BINDING, Region.INTERIOR)


class _CaseEntry(NamedTuple):
    """Everything the accessors read for one case and rule.

    The locals are symmetric, so bidder 2's form in a case is bidder 1's in
    the mirrored case (bits 0 and 1 of _case_index exchanged, as swapping
    the bids does), read at (b, a, g). ``reports`` are the shared
    ``DerivativeReport``s, indexed [region][boundary].
    """

    form1: _Form
    mirrored1: _Form
    sensitivity: Fraction
    reports: tuple[tuple[DerivativeReport, DerivativeReport], ...]


def _case_entries(rule: ReferenceRule) -> tuple[_CaseEntry, ...]:
    """One rule's _CaseEntry per case, in _CASES order."""
    entries = []
    for i, case in enumerate(_CASES):
        exact = _SENSITIVITY1[rule][i & 1]
        sens = float(exact)
        reports = tuple(
            (
                DerivativeReport(case, region, derivative, sens, False),
                DerivativeReport(case, region, derivative, sens, True),
            )
            for region, derivative in zip(_REPORT_REGIONS, (1.0, 0.0, 0.0, sens / 2))
        )
        mirrored1 = _FORM1[_CASES[(i & 1) << 1 | i >> 1]][rule]
        entries.append(_CaseEntry(_FORM1[case][rule], mirrored1, exact, reports))
    return tuple(entries)


# The one lookup of every accessor: keyed by id(rule), since members are
# singletons and Enum.__hash__ runs in Python, and indexed by case position.
_TABLE = {id(rule): _case_entries(rule) for rule in ReferenceRule}


def _evaluate(entry: _CaseEntry, a: float, b: float, g: float) -> tuple[float, float]:
    """The entry's (p1, p2) at (a, b, g), through ``_rescaled``."""
    form1, mirrored1, _, _ = entry
    k, a, b, g = _rescaled(a, b, g)
    return k * form1(a, b, g), k * mirrored1(b, a, g)


def closed_form_for_case(
    case: CaseLabel, profile: LlgBidProfile, rule: ReferenceRule
) -> tuple[float, float]:
    """Evaluate one case's closed forms at a profile, regardless of its own case.

    Useful for checking continuity across case boundaries.
    """
    return _evaluate(_TABLE[id(rule)][_position(case)], profile.a, profile.b, profile.g)


def closed_form_reference(profile: LlgBidProfile, rule: ReferenceRule) -> tuple[float, float]:
    """Tabulated (p1, p2) of the rule for the two local bidders.

    Payments for the payment rules, payoffs for the payoff rules. Valid on
    profiles where the locals jointly win.
    """
    a, b, g = profile.a, profile.b, profile.g
    return _evaluate(_TABLE[id(rule)][_case_index(a, b, g)], a, b, g)


def sensitivity_fraction(case: CaseLabel, rule: ReferenceRule) -> Fraction:
    """Exact sensitivity of the rule's local components in the given case."""
    return _TABLE[id(rule)][_position(case)].sensitivity


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
    sensitivity. Profiles within ``BOUNDARY_TOLERANCE * g`` of either end are
    flagged: the projected payment has a kink there and no two-sided
    derivative.
    """
    if not profile.locals_win():
        raise _global_winner_error(profile)
    a, b, g = profile.a, profile.b, profile.g
    entry = _TABLE[id(rule)][_case_index(a, b, g)]
    split = even_split(g, *_evaluate(entry, a, b, g))
    lo, hi = llg_segment_ends(a, b, g)
    tol = BOUNDARY_TOLERANCE * g
    boundary = abs(split - lo) <= tol or abs(split - hi) <= tol
    if split > hi + tol:
        region = _IR1 if a <= g else _NONNEG
    elif split < lo - tol:
        region = _IR2 if b <= g else _NONNEG
    else:
        region = _INTERIOR
    # Reports are shared: every call with the same outcome returns the same object.
    return entry.reports[region][boundary]


@dataclass(frozen=True)
class RegionMap:
    """Derivative reports on a square grid over [0, 2g]^2; None marks global-winner cells."""

    rule: ReferenceRule
    g: float
    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    cells: tuple[tuple[DerivativeReport | None, ...], ...]

    @cached_property
    def runs(self) -> tuple[tuple[tuple[int, int, DerivativeReport | None], ...], ...]:
        """Per row, the (start, stop, cell) of each run of one cell object.

        Found once per map, on first use; both region-map writers write a run
        at a time. ``region_map`` shares one report object along each run.
        Runs are found by identity, not equality: two reports that compare
        equal can still print differently, as a 0.0 and a -0.0 derivative do.
        Not a field, so it takes no part in ``==``, ``hash`` or ``repr``.
        """
        runs = []
        for row in self.cells:
            starts = [0, *compress(range(1, len(row)), map(is_not, row, row[1:]))]
            runs.append(tuple(zip(starts, [*starts[1:], len(row)], map(row.__getitem__, starts))))
        return tuple(runs)


# Guard of a row breakpoint, in payment units: far above the rounding of the
# closed forms (about 1e-14 g), far below a grid step. The floor is for
# subnormal g, where rounding is absolute.
_SPAN_GUARD = 1e-6
_SPAN_FLOOR = 64 * math.ulp(0.0)


def _row_bands(rule: ReferenceRule, a: float, g: float, top: float) -> list[tuple[float, float]]:
    """(centre, half-width) in b of each band where the report on row a can change.

    That is where the locals start to win, at b = g, and where split - lo or
    split - hi lies within tol of 0, the kink flag; on each case piece all
    three are linear in b, read off the closed form and ``llg_segment_ends``
    at the piece's two ends. The guard is at least tol, so one band around
    each zero covers both edges of the flag, at -tol and +tol.
    """
    guard = _SPAN_GUARD * g + _SPAN_FLOOR
    tol = BOUNDARY_TOLERANCE * g
    entries = _TABLE[id(rule)]
    bands = [(g - a - TIE_TOLERANCE * g, guard), (g, guard)]
    # Pieces b <= g and b > g, in the case of their right end q.
    for p, q in ((0.0, g), (g, top)):
        entry = entries[_case_index(a, q, g)]
        split_p = even_split(g, *_evaluate(entry, a, p, g))
        slope = (even_split(g, *_evaluate(entry, a, q, g)) - split_p) / (q - p)
        for end_p, end_q in zip(llg_segment_ends(a, p, g), llg_segment_ends(a, q, g)):
            value, d = split_p - end_p, slope - (end_q - end_p) / (q - p)
            if d:
                bands.append((p - value / d, (tol + guard) / abs(d)))
            elif abs(value) <= tol + guard:
                bands.append(((p + q) / 2, (q - p) / 2 + guard))
    return bands


def region_map(rule: ReferenceRule, g: float = 1.0, resolution: int = 200) -> RegionMap:
    """Evaluate the projection derivative on a resolution x resolution grid.

    Grid points span [0, 2g] inclusively on both axes, row-major by a then b.
    Cells where the global bidder wins are marked as global-winner.

    Built by spans: along a row the report changes only at the breakpoints
    of ``_row_bands``. The row's first cell, the cells inside a band and the
    first cell after each band go through ``projection_derivative``. Any
    other cell lies outside every band, and the nearest evaluated cell
    before it is cell 0 or the first cell after a band, with no breakpoint
    between the two; so it gets that cell's report object, which
    ``projection_derivative`` shares.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if not g > 0:
        raise ValueError(f"global bid must be positive, got {g}")
    coords = tuple(2 * g * i / (resolution - 1) for i in range(resolution))
    # The top corner has the largest coordinate and, since float addition is
    # monotone, the largest bid sum; the profile of every cell is valid if its is.
    top = coords[-1]
    if not top + top + g < math.inf:
        raise ValueError(
            f"global bid {g} is too large: the grid over [0, 2g] or its bid sums are not finite"
        )
    cells = []
    for a in coords:
        evaluated = {0}
        for centre, width in _row_bands(rule, a, g, top):
            first = bisect_right(coords, centre - width)
            last = bisect_right(coords, centre + width)
            evaluated.update(range(first, min(last + 1, resolution)))
        row: list[DerivativeReport | None] = []
        report = None
        for j in sorted(evaluated):
            row += [report] * (j - len(row))
            profile = LlgBidProfile(a, coords[j], g)
            report = projection_derivative(profile, rule) if profile.locals_win() else None
            row.append(report)
        row += [report] * (resolution - len(row))
        cells.append(tuple(row))
    return RegionMap(rule, g, coords, coords, tuple(cells))


def region_map_to_csv(grid: RegionMap, out: TextIO | None = None) -> str | None:
    """Serialise a region map, row-major by a then b, full float precision.

    Global-winner cells carry region "GLOBAL" and empty derivative and
    sensitivity columns. Each run's lines go to ``out.write`` as one string
    as soon as they are built, and the result is None; without ``out`` they
    go to an ``io.StringIO`` and the text is returned.
    """
    target = io.StringIO() if out is None else out
    target.write("A,B,case,region,derivative,sensitivity\n")
    # The global bidder wins only where a + b < g, so both local bids are below g.
    # Suffixes are keyed by id(), the identity ``RegionMap.runs`` are found
    # by; the grid keeps every report alive while the suffixes are in use.
    suffixes = {id(None): f"{CaseLabel.LOCALS_WEAK.value},{Region.GLOBAL_WINNER.value},,\n"}
    b_prefixes = [f"{b!r}," for b in grid.b_values]
    for a, row in zip(grid.a_values, grid.runs):
        a_prefix = f"{a!r},"
        for start, stop, cell in row:
            suffix = suffixes.get(id(cell))
            if suffix is None:
                suffix = suffixes[id(cell)] = (
                    f"{cell.case.value},{cell.region.value},"
                    f"{cell.derivative!r},{cell.sensitivity!r}\n"
                )
            # One string per run: its lines differ only in their b column.
            target.write(a_prefix + (suffix + a_prefix).join(b_prefixes[start:stop]) + suffix)
    return target.getvalue() if out is None else None


# Pairs ``sample_llg_profile`` draws before it gives up: about half a second
# of draws, where a case at g = 1 rejects at most half of them.
MAX_DRAWS = 2**20


def sample_llg_profile(
    rng: random.Random, case: CaseLabel, g: float = 1.0
) -> LlgBidProfile:
    """Uniform locals-winning profile in the given case, local bids in [0, 2g].

    Each local bid is drawn from [g, 2g] where the case's bit in
    ``_case_index`` is set, else from [0, g], and the pair is drawn again
    until ``a + b > g``, the bid sum ``a + b + g`` is finite and the pair
    lies in the case. No pair passes where g is not positive or the smallest
    bid sum a passing pair can have is not finite, so those, like a case
    that is not a ``CaseLabel``, are a ``ValueError``. That sum is g plus
    the float above g, or g plus twice it with both locals strong. Just
    inside that edge almost no pair passes, so after ``MAX_DRAWS`` rejected
    pairs the sampler gives up with a ``ValueError`` too.
    """
    position = _position(case)
    # a + b > g means a + b is at least the float above g, and each strong
    # local is at least that float too; rounding is monotone, so a + b + g is
    # at least least_sum.
    above = math.nextafter(g, math.inf)
    least_sum = (above + above if case is CaseLabel.LOCALS_STRONG else above) + g
    if not (g > 0 and least_sum < math.inf):
        raise ValueError(
            f"global bid must be positive with a finite least bid sum in case {case.value}, got {g}"
        )
    for _ in range(MAX_DRAWS):
        a = rng.uniform(g, 2 * g) if position & 1 else rng.uniform(0.0, g)
        b = rng.uniform(g, 2 * g) if position & 2 else rng.uniform(0.0, g)
        if a + b > g and a + b + g < math.inf and _case_index(a, b, g) == position:
            return LlgBidProfile(a, b, g)
    raise ValueError(f"no pair in case {case.value} at g = {g} passed in {MAX_DRAWS} draws")


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


def _threshold_holds(threshold: _Threshold, profile: LlgBidProfile) -> bool:
    """Whether a threshold cell's condition holds at the profile, through ``_rescaled``.

    A None threshold never holds.
    """
    if threshold is None:
        return False
    _, a, b, g = _rescaled(profile.a, profile.b, profile.g)
    return threshold(a, b, g)


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
    """Compare every threshold cell against direct evaluation on sampled profiles.

    The profiles are drawn case by case, ``samples_per_case`` each, and each
    profile's two inequalities are evaluated once per rule. A cell's exact
    form is tallied apart from its stated form only where the two differ
    (the simplified cells); each example is the first mismatch in draw order.
    """
    rng = random.Random(seed)
    profiles = {
        case: [sample_llg_profile(rng, case, g) for _ in range(samples_per_case)]
        for case in CaseLabel
    }

    def mismatches(form: _Threshold, sampled: list[LlgBidProfile], direct: list[bool]):
        return [p for p, holds in zip(sampled, direct) if _threshold_holds(form, p) != holds]

    results = []
    # THRESHOLD_TABLE lists each rule's cells case by case, so a group is one (rule, case).
    for (rule, case), cells in groupby(THRESHOLD_TABLE, lambda cell: (cell.rule, cell.case)):
        sampled = profiles[case]
        pairs = [region_inequalities(profile, rule) for profile in sampled]
        for cell in cells:
            direct = [pair[cell.inequality - 1] for pair in pairs]
            stated = mismatches(cell.stated, sampled, direct)
            exact = stated if cell.simplified is None else mismatches(cell.exact, sampled, direct)
            examples = (stated[0] if stated else None, exact[0] if exact else None)
            results.append(ThresholdCheck(cell, len(sampled), len(stated), len(exact), *examples))
    return results
