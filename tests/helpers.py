"""Shared strategies and generators for the test suite."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from hypothesis import strategies as st

from coreselect import (
    AuctionInstance,
    Bid,
    Bidder,
    CaseLabel,
    CoreConstraint,
    DerivativeReport,
    LlgBidProfile,
    Region,
    RegionMap,
    ReferenceRule,
    projection_derivative,
)
from coreselect.cli import _SVG_PALETTE, SVG_SIZE
from coreselect.core import CORE_TOLERANCE, CoreViolation
from coreselect.model import (
    SHAPLEY_WEIGHTS,
    TIE_TOLERANCE,
    _relaxed,
    _tie_broken,
    _ties,
)


def bounded_floats(low: float = 0.0, high: float = 2.0):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def scalable_floats(low: float = 0.0, high: float = 2.0):
    """``bounded_floats`` with values below 1e-200 drawn as 0.0.

    Scaling by 2**-30 then leaves every value, sum and difference normal,
    so it changes no rounding.
    """
    return bounded_floats(low, high).map(lambda x: x if x >= 1e-200 else 0.0)


@st.composite
def llg_profiles(
    draw, g_low: float = 0.1, g_high: float = 2.0, floats=bounded_floats
) -> LlgBidProfile:
    g = draw(floats(g_low, g_high))
    a = draw(floats(0.0, 2 * g))
    b = draw(floats(0.0, 2 * g))
    return LlgBidProfile(a, b, g)


@st.composite
def instances(
    draw, max_bidders: int = 4, max_goods: int = 3, floats=bounded_floats
) -> AuctionInstance:
    m = draw(st.integers(1, max_goods))
    goods = tuple(f"g{k}" for k in range(1, m + 1))
    n = draw(st.integers(1, max_bidders))
    bidders = []
    for i in range(1, n + 1):
        bundles = draw(
            st.lists(
                st.frozensets(st.sampled_from(goods), min_size=1),
                max_size=3,
                unique=True,
            )
        )
        bids = tuple(Bid(bundle, draw(floats(0.0, 5.0))) for bundle in bundles)
        bidders.append(Bidder(i, bids))
    return AuctionInstance(goods, tuple(bidders))


def twelve_bidder_instance() -> AuctionInstance:
    """Fixed 12-bidder, 8-good instance with bids of one to three goods."""
    return seeded_instance(12, 2024)


def seeded_instance(n: int, seed: int) -> AuctionInstance:
    """An n-bidder, 8-good instance with one to three bids of one to three goods each."""
    rng = random.Random(seed)
    goods = tuple(f"g{k}" for k in range(1, 9))
    bidders = []
    for i in range(1, n + 1):
        bids = tuple(
            Bid(frozenset(rng.sample(goods, rng.randint(1, 3))), rng.uniform(0.1, 1.0))
            for _ in range(rng.randint(1, 3))
        )
        bidders.append(Bidder(i, bids))
    return AuctionInstance(goods, tuple(bidders))


def general_auction_instance() -> AuctionInstance:
    """Fixed 12-bidder, 8-good instance with three distinct bids of two to four goods each.

    The shape of the benchmark's largest general auction, drawn here on its
    own: bid values lie on a 0.001 grid in [0.001, 1].
    """
    rng = random.Random(20)
    goods = tuple(f"g{k}" for k in range(1, 9))
    bidders = []
    for i in range(1, 13):
        bundles: list[frozenset[str]] = []
        while len(bundles) < 3:
            bundle = frozenset(rng.sample(goods, rng.randint(2, 4)))
            if bundle not in bundles:
                bundles.append(bundle)
        bids = tuple(Bid(bundle, rng.randint(1, 1000) / 1000) for bundle in bundles)
        bidders.append(Bidder(i, bids))
    return AuctionInstance(goods, tuple(bidders))


def coarse_grid_instance() -> AuctionInstance:
    """Fixed 12-bidder, 8-good instance with three bids of two to four goods each.

    Bid values lie on a 0.05 grid in [0.05, 1] and bundles may repeat, so
    many welfares tie exactly: the coalition table traces 475 ties, 350 of
    them at coalitions with bidder 12.
    """
    rng = random.Random(0)
    goods = tuple(f"g{k}" for k in range(1, 9))
    bidders = tuple(
        Bidder(
            i,
            tuple(
                Bid(frozenset(rng.sample(goods, rng.randint(2, 4))), rng.randint(1, 20) / 20)
                for _ in range(3)
            ),
        )
        for i in range(1, 13)
    )
    return AuctionInstance(goods, bidders)


def vcg_cancellation_instance() -> AuctionInstance:
    """Four bidders where the losing bidder 3's VCG entry cancels only term by term.

    The others' accepted values added one at a time in id order equal the
    coalition table's welfare without bidder 3; ``sum()`` on Python 3.12+
    compensates its rounding and gives a total 2.2e-16 away from it.
    """
    bids = (
        (
            Bid(frozenset({"g1", "g2", "g3"}), 0.23237903137676086),
            Bid(frozenset({"g3"}), 0.8516907672959309),
            Bid(frozenset({"g2"}), 0.6567443147891279),
        ),
        (Bid(frozenset({"g4"}), 0.2995396975353005),),
        (),
        (Bid(frozenset({"g1", "g2"}), 0.8027579148895004),),
    )
    bidders = tuple(Bidder(i, bidder_bids) for i, bidder_bids in enumerate(bids, start=1))
    return AuctionInstance(("g1", "g2", "g3", "g4"), bidders)


def twelve_bidder_payments() -> tuple[float, ...]:
    """Payments that violate many coalition constraints of ``twelve_bidder_instance``."""
    rng = random.Random(12)
    return tuple(rng.uniform(0.0, 0.2) for _ in range(12))


def largest_bid(instance: AuctionInstance) -> float:
    """The instance's largest bid, 0.0 without any: the oracles' own scale."""
    return max((bid.value for bidder in instance.bidders for bid in bidder.bids), default=0.0)


def bid_value_from_bids(instance: AuctionInstance, bidder_id: int, bundle: frozenset[str]) -> float:
    """The bidder's highest bid on exactly this bundle, 0.0 without one.

    The oracle for ``AuctionInstance.bid_value``, read off the raw bids.
    """
    return max(
        (bid.value for bid in instance.bidders[bidder_id - 1].bids if bid.bundle == bundle),
        default=0.0,
    )


def tie_tolerance(instance: AuctionInstance) -> float:
    """The engine's tie tolerance for the instance: a fraction of its largest bid."""
    return TIE_TOLERANCE * largest_bid(instance)


def core_tolerance(instance: AuctionInstance) -> float:
    """How far a core condition may be missed: a fraction of the largest bid."""
    return CORE_TOLERANCE * largest_bid(instance)


def exhaustive_best(options: Sequence, tol: float) -> tuple[float, list[frozenset[str]]]:
    """Tie-broken welfare-maximal choice of one option per bidder, by branch and bound.

    The oracle for the engine's goods-mask program. ``options`` holds the
    ``_bidder_options`` of the participating bidders in id order; the result
    is the welfare and each one's awarded bundle. An assignment's welfare is
    the float sum of its values in id order. Assignments within ``tol`` of
    the best welfare tie, and the first of them in the canonical order wins:
    the lexicographically smallest assignment vector over bidder ids, with
    non-empty bundles ordered before the empty award.

    A first pass finds the best welfare, a second walks the canonical order
    to the first tying assignment. Both prune a branch by its real-valued
    bound with a margin of ``tol``, far above the rounding error of sums of
    at most 12 bids.
    """
    n = len(options)
    suffix_max = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + max(value for _, value, _ in options[i])

    best = 0.0

    def find_best(idx: int, used_mask: int, welfare: float) -> None:
        nonlocal best
        if welfare + suffix_max[idx] + tol < best:
            return
        if idx == n:
            best = max(best, welfare)
            return
        for mask, value, _ in options[idx]:
            if not mask & used_mask:
                find_best(idx + 1, used_mask | mask, welfare + value)

    def first_tied(idx: int, used_mask: int, welfare: float, chosen: list):
        if welfare + suffix_max[idx] + 2 * tol < best:
            return None
        if idx == n:
            return (welfare, chosen) if best <= welfare + tol else None
        for mask, value, bundle in options[idx]:
            if not mask & used_mask:
                found = first_tied(idx + 1, used_mask | mask, welfare + value, [*chosen, bundle])
                if found is not None:
                    return found
        return None

    find_best(0, 0, 0.0)
    found = first_tied(0, 0, 0.0, [])
    assert found is not None
    return found


def shapley_payoffs_per_mask(
    n: int, table: Sequence[float]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Both Shapley payoff vectors, one mask at a time with a skip branch.

    The oracle for ``model._shapley_payoffs``: bidder i's payoff sums, over
    the coalitions S without i in mask order, the weight of |S| times i's
    marginal value table[S + i] - table[S], so every add comes in the same
    order as the engine's.
    """
    plain = SHAPLEY_WEIGHTS[n]
    with_auctioneer = SHAPLEY_WEIGHTS[n + 1][1:]
    without, with_ = [], []
    for i in range(n):
        bit = 1 << i
        total = total_with = 0.0
        for mask in range(1 << n):
            if mask & bit:
                continue
            size = mask.bit_count()
            marginal = table[mask | bit] - table[mask]
            total += plain[size] * marginal
            total_with += with_auctioneer[size] * marginal
        without.append(total)
        with_.append(total_with)
    return tuple(without), tuple(with_)


def coalition_value_table_by_relaxed(instance: AuctionInstance) -> list[float]:
    """``model.coalition_value_table`` with every coalition built by ``_relaxed``.

    The oracle for the engine's walk, which relaxes bidder n's coalitions
    in place: here each of them gets its own layer from ``_relaxed``, as
    every other coalition does, and its entry is read off that layer.
    """
    n = instance.n
    full = (1 << instance.m) - 1
    slots, count, cuts, rows = instance._program
    tol = TIE_TOLERANCE * instance.scale
    table = [0.0] * (1 << n)
    empty = ([0.0] * count, [-math.inf] * count, None, None)
    # Entries: coalition mask, index of the next bidder to add, its layer.
    stack = [(0, 0, empty)] if n else []
    while stack:
        coalition, h, layer = stack.pop()
        child = coalition | 1 << h
        child_layer = _relaxed(layer, h, cuts[h], rows[h])
        if h < n - 1:
            stack.append((coalition, h + 1, layer))
            stack.append((child, h + 1, child_layer))
        # Slot 0 holds the full goods mask.
        table[child] = best = child_layer[0][0]
        if _ties(best, child_layer[1][0], tol):
            table[child] = _tie_broken(instance.options, slots, child_layer, full, tol)[0]
    return table


def core_constraints(instance: AuctionInstance) -> list[CoreConstraint]:
    """All core conditions for the instance's efficient allocation.

    The oracle for ``core_violations``. Emits one blocking-coalition
    constraint per proper subset of bidders, by mask (the full set is
    vacuous and omitted), then an individual-rationality cap and a
    non-negativity floor for every bidder. The coalition and payer sets are
    built with the library's expressions, so they iterate in the same
    order; bounds and slacks add over them in ascending id order
    (``sequential_sum``), as the library does.
    """
    ids = instance.bidder_ids()
    n = instance.n
    everyone = frozenset(ids)
    table = instance.coalition_values
    realized = instance.realized
    constraints = []
    for mask in range((1 << n) - 1):
        coalition = frozenset(ids[i] for i in range(n) if mask >> i & 1)
        bound = table[mask] - sequential_sum(realized[i - 1] for i in sorted(coalition))
        constraints.append(CoreConstraint("coalition", coalition, everyone - coalition, bound))
    for i in ids:
        single = frozenset({i})
        constraints.append(CoreConstraint("ir", single, single, realized[i - 1]))
        constraints.append(CoreConstraint("nonneg", single, single, 0.0))
    return constraints


def violations_json_by_dumps(found: Sequence[CoreViolation]) -> str:
    """``core-check``'s report by ``json.dumps``: the oracle for ``cli._violations_json``."""
    payload = [
        {
            "kind": violation.constraint.kind,
            "coalition": sorted(violation.constraint.coalition),
            "payers": sorted(violation.constraint.payers),
            "bound": violation.constraint.bound,
            "slack": violation.slack,
        }
        for violation in found
    ]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def slack(constraint: CoreConstraint, payments: Sequence[float]) -> float:
    """Margin by which the payments satisfy the constraint (negative = violated)."""
    if constraint.kind == "ir":
        (payer,) = constraint.payers
        return constraint.bound - payments[payer - 1]
    return sequential_sum(payments[i - 1] for i in sorted(constraint.payers)) - constraint.bound


def sequential_sum(values: Iterable[float]) -> float:
    """The values added one at a time, in the order given, from 0.0.

    Unlike ``sum()``, which compensates its rounding since CPython 3.12,
    this rounds alike on every interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def realized_welfare(instance: AuctionInstance, coalition) -> float:
    """Total accepted bid value the coalition's members receive, from ``instance.realized``."""
    return sum(instance.realized[i - 1] for i in coalition)


def region_map_by_cell(rule: ReferenceRule, g: float, resolution: int) -> RegionMap:
    """``region_map`` the slow way: ``projection_derivative`` on every cell."""
    coords = tuple(2 * g * i / (resolution - 1) for i in range(resolution))
    cells = []
    for a in coords:
        row = []
        for b in coords:
            profile = LlgBidProfile(a, b, g)
            row.append(projection_derivative(profile, rule) if profile.locals_win() else None)
        cells.append(tuple(row))
    return RegionMap(rule, g, coords, coords, tuple(cells))


# (g, resolution) of the grids the region-map writers are checked on against
# their per-cell oracles: odd resolutions put points on a = g and b = g, the
# small g are subnormal or next to it, and 1000 is a grid of a million cells.
WRITER_GRIDS = (
    (1.0, 2),
    (1.0, 200),
    (2.5, 201),
    (2.5, 77),
    (1e-300, 57),
    (5e-324, 9),
    (2.0**-1060, 33),
    (1.0, 1000),
)


def hand_built_region_map() -> RegionMap:
    """A 4 x 4 map with the runs ``region_map`` may not produce.

    Row 0 is all global-winner cells. Row 1 holds distinct reports that
    compare equal but print differently (derivative 0.0 and -0.0) side by
    side, and starts and ends with a report, as does row 3, one run long.
    Row 2 starts with a global-winner cell.
    """
    zero = DerivativeReport(CaseLabel.LOCALS_WEAK, Region.INTERIOR, 0.0, 0.0)
    negative_zero = DerivativeReport(CaseLabel.LOCALS_WEAK, Region.INTERIOR, -0.0, -0.0)
    half = DerivativeReport(CaseLabel.LOCALS_STRONG, Region.INTERIOR, 0.5, 1.0, boundary=True)
    one = DerivativeReport(CaseLabel.LOCAL1_STRONG, Region.IR1_BINDING, 1.0, 0.25)
    assert zero == negative_zero
    coords = (0.0, 2 / 3, 4 / 3, 2.0)
    cells = (
        (None, None, None, None),
        (zero, negative_zero, negative_zero, zero),
        (None, one, zero, half),
        (half, half, half, half),
    )
    return RegionMap(ReferenceRule.VCG, 1.0, coords, coords, cells)


def assert_same_text(text: str, expected: str) -> None:
    """Fail with the first line that differs; pytest's own diff of two large texts is slow."""
    if text != expected:
        lines, expected_lines = text.split("\n"), expected.split("\n")
        i = next(
            (i for i, pair in enumerate(zip(lines, expected_lines)) if pair[0] != pair[1]),
            min(len(lines), len(expected_lines)),
        )
        raise AssertionError(f"line {i}: {lines[i : i + 1]} != {expected_lines[i : i + 1]}")


def region_map_to_csv_by_cell(grid: RegionMap) -> str:
    """``region_map_to_csv`` the slow way: one line per cell, each built on its own."""
    lines = ["A,B,case,region,derivative,sensitivity"]
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


def render_region_map_svg_by_cell(grid: RegionMap) -> str:
    """``cli.render_region_map_svg`` the slow way: one rect string per cell."""
    resolution = len(grid.a_values)
    cell = SVG_SIZE / resolution
    derivatives = sorted(
        {report.derivative for row in grid.cells for report in row if report is not None}
    )
    tails = {
        value: f'" width="{cell:.2f}" height="{cell:.2f}" '
        f'fill="{_SVG_PALETTE[i * (len(_SVG_PALETTE) - 1) // max(len(derivatives) - 1, 1)]}"/>'
        for i, value in enumerate(derivatives)
    }
    ys = [f"{(resolution - 1 - j) * cell:.2f}" for j in range(resolution)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="#ffffff"/>',
    ]
    for i, row in enumerate(grid.cells):
        x_prefix = f'<rect x="{i * cell:.2f}" y="'
        for y, report in zip(ys, row):
            if report is not None:
                parts.append(x_prefix + y + tails[report.derivative])
    mid = SVG_SIZE / 2
    parts.append(
        f'<line x1="{mid:.2f}" y1="0" x2="{mid:.2f}" y2="{SVG_SIZE}" stroke="#ff0000" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="0" y1="{mid:.2f}" x2="{SVG_SIZE}" y2="{mid:.2f}" stroke="#ff0000" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def llg_exact_reference(
    a: Fraction, b: Fraction, g: Fraction, rule: ReferenceRule
) -> tuple[Fraction, Fraction, Fraction]:
    """The rule's vector on the LLG game in exact rationals, by the subset formula.

    The oracle for ``closed_form_reference`` and the engine on LLG: bidders
    1 and 2 bid ``a`` and ``b`` on one good each, bidder 3 bids ``g`` on
    both. v(S) is the larger of the locals' bids in S and ``g`` when bidder
    3 is in S. Only for profiles the locals win (a + b >= g, the tie
    included): their accepted bids are ``a`` and ``b``, bidder 3's is 0.
    Payments for the payment rules, payoffs for the payoff rules.
    """
    bids = (a, b, g)

    def value(mask: int) -> Fraction:
        return max(sum(bids[i] for i in (0, 1) if mask >> i & 1), g if mask & 4 else Fraction(0))

    realized = (a, b, Fraction(0))
    if rule is ReferenceRule.FIRST_PRICE:
        return realized
    if rule is ReferenceRule.VCG:
        return tuple(value(7 & ~(1 << i)) - (value(7) - realized[i]) for i in range(3))
    # With the auctioneer as a fourth player, only coalitions holding her
    # are worth anything, so she is one of the others in every nonzero term.
    players = 3 + rule.with_auctioneer
    payoffs = []
    for i in range(3):
        payoff = Fraction(0)
        for mask in range(8):
            if mask >> i & 1:
                continue
            others = mask.bit_count() + rule.with_auctioneer
            weight = Fraction(factorial(others) * factorial(players - others - 1))
            weight /= factorial(players)
            payoff += weight * (value(mask | 1 << i) - value(mask))
        payoffs.append(payoff)
    if rule.is_payoff:
        return tuple(payoffs)
    return tuple(bid - payoff for bid, payoff in zip(realized, payoffs))
