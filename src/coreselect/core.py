"""Core violations and the LLG minimum-revenue projection.

The core of an auction outcome is cut out by one blocking-coalition
constraint per proper bidder subset L (the remaining bidders must jointly pay
at least the welfare L loses by their presence), individual-rationality caps
for every bidder, and non-negativity of payments; ``core_violations`` walks
them all. On LLG instances where the locals win, the minimum-revenue slice
of the core is a segment, and any reference point can be projected onto it
in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import AuctionInstance, LlgBidProfile, id_order_sums

CORE_TOLERANCE = 1e-9  # times the instance's ``scale``, its largest bid


@dataclass(frozen=True)
class CoreConstraint:
    """One linear condition on the payment vector.

    kind "coalition": sum of the payers' payments >= bound, where the payers
    are everyone outside the blocking coalition and the bound is the
    coalition's lost welfare. kind "ir": the single payer pays at most bound
    (her accepted bid value). kind "nonneg": the single payer pays >= 0.
    """

    kind: str
    coalition: frozenset[int]
    payers: frozenset[int]
    bound: float


@dataclass(frozen=True)
class CoreViolation:
    constraint: CoreConstraint
    slack: float


def _payment_values(payments: Sequence[float], n: int) -> tuple[float, ...]:
    values = tuple(payments)
    if len(values) != n:
        raise ValueError(f"payment vector has {len(values)} entries, expected {n}")
    for bidder, value in enumerate(values, start=1):
        if not math.isfinite(value):
            raise ValueError(f"payment of bidder {bidder} must be finite, got {value}")
    return values


def core_violations(
    instance: AuctionInstance, payments: Sequence[float]
) -> list[CoreViolation]:
    """Constraints missed by more than ``CORE_TOLERANCE * instance.scale`` (empty = in the core).

    Every proper blocking coalition is checked, by mask, then each bidder's
    rationality cap and non-negativity floor; a constraint object is built
    only for a violated condition. Each bound is the coalition's entry of
    ``instance.lost_welfare`` and each payer sum comes from ``id_order_sums``,
    so every sum adds its members one at a time in ascending id order. A
    payer sum that overflows to -inf is rejected, so every returned slack is
    finite.
    """
    values = _payment_values(payments, instance.n)
    n = instance.n
    full = (1 << n) - 1
    lost = instance.lost_welfare
    paid_sums = id_order_sums(values)
    tol = CORE_TOLERANCE * instance.scale
    violations = []
    for mask in range(full):
        bound = lost[mask]
        slack = paid_sums[full ^ mask] - bound
        if slack < -tol:
            coalition, payers = _coalition_and_payers(n, mask)
            if slack == -math.inf:
                raise ValueError(f"the sum of the payments of bidders {sorted(payers)} overflows")
            constraint = CoreConstraint("coalition", coalition, payers, bound)
            violations.append(CoreViolation(constraint, slack))
    for i, (cap, paid) in enumerate(zip(instance.realized, values), start=1):
        slack = cap - paid
        if slack < -tol:
            single = frozenset({i})
            violations.append(CoreViolation(CoreConstraint("ir", single, single, cap), slack))
        if paid < -tol:
            single = frozenset({i})
            violations.append(CoreViolation(CoreConstraint("nonneg", single, single, 0.0), paid))
    return violations


def _coalition_and_payers(n: int, mask: int) -> tuple[frozenset[int], frozenset[int]]:
    """The blocking coalition of bidders 1..n with this mask, and everyone else."""
    coalition = frozenset(i + 1 for i in range(n) if mask >> i & 1)
    return coalition, frozenset(range(1, n + 1)) - coalition


def llg_segment_ends(a: float, b: float, g: float) -> tuple[float, float]:
    """The ends (p1_min, p1_max) of the LLG minimum-revenue core segment.

    Where the locals win (``LlgBidProfile.locals_win``), every payment
    vector (p1, g - p1, 0) with p1 in [p1_min, p1_max] is in the core and
    has the minimal revenue g. The ends come from the two mixed blocking
    coalitions: p1 >= max(0, g - b) and p1 <= min(a, g), the latter also
    being bidder 1's rationality cap when a <= g.
    """
    return max(0.0, g - b), min(a, g)


def even_split(g: float, r1: float, r2: float) -> float:
    """Bidder 1's payment when the revenue shortfall g - r1 - r2 is split evenly."""
    return 0.5 * (g + r1 - r2)


def project_to_mrc(
    profile: LlgBidProfile,
    reference: Sequence[float],
    c: float = 2.0,
) -> tuple[float, ...]:
    """Nearest minimum-revenue-core point to the reference, under any L_c metric.

    For every c > 1 the nearest point on the segment is the even split of the
    revenue shortfall between the two locals, clamped into the segment, so c
    is accepted only to document the metric family and does not change the
    result. When the global bidder wins, the unique minimum-revenue core
    point charges her the locals' joint value a + b. A reference entry that
    is not finite is a ``ValueError``.
    """
    # Written so that NaN fails it too; c = inf, the L_inf metric, passes.
    if not c > 1:
        raise ValueError(f"metric exponent must be > 1, got {c}")
    values = tuple(reference)
    if len(values) < 2:
        raise ValueError("reference must cover the two local bidders")
    for entry, value in enumerate(values, start=1):
        if not math.isfinite(value):
            raise ValueError(f"reference entry {entry} must be finite, got {value}")
    a, b, g = profile.a, profile.b, profile.g
    if not profile.locals_win():
        return (0.0, 0.0, a + b)
    p1_min, p1_max = llg_segment_ends(a, b, g)
    p1 = min(max(even_split(g, values[0], values[1]), p1_min), p1_max)
    return (p1, g - p1, 0.0)
