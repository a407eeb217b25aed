"""Core constraints, membership checks, and the LLG minimum-revenue projection.

The core of an auction outcome is cut out by one blocking-coalition
constraint per proper bidder subset L (the remaining bidders must jointly pay
at least the welfare L loses by their presence), individual-rationality caps
for every bidder, and non-negativity of payments. On LLG instances where the
locals win, the minimum-revenue slice of the core is a segment, and any
reference point can be projected onto it in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .model import AuctionInstance, LlgBidProfile
from .reference import PaymentVector

CORE_TOLERANCE = 1e-9


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

    def slack(self, payments: Sequence[float]) -> float:
        """Margin by which the payments satisfy this constraint (negative = violated)."""
        if self.kind == "ir":
            (payer,) = self.payers
            return self.bound - payments[payer - 1]
        return sum(payments[i - 1] for i in self.payers) - self.bound


@dataclass(frozen=True)
class CoreViolation:
    constraint: CoreConstraint
    slack: float


@dataclass(frozen=True)
class MrcSegment:
    """Minimum-revenue core of an LLG instance, as an interval for local bidder 1.

    When valid (the locals win), every payment vector (p1, g - p1, 0) with
    p1 in [p1_min, p1_max] is in the core and has the minimal revenue g.
    """

    g: float
    p1_min: float
    p1_max: float
    valid: bool


def _payment_values(payments: PaymentVector | Sequence[float], n: int) -> tuple[float, ...]:
    values = tuple(payments)
    if len(values) != n:
        raise ValueError(f"payment vector has {len(values)} entries, expected {n}")
    return values


def _iter_core_constraints(instance: AuctionInstance) -> Iterator[CoreConstraint]:
    ids = instance.bidder_ids()
    everyone = frozenset(ids)
    table = instance.coalition_values
    realized = instance.realized
    for mask in range((1 << instance.n) - 1):
        coalition = frozenset(ids[i] for i in range(instance.n) if mask >> i & 1)
        bound = table[mask] - sum(realized[i - 1] for i in coalition)
        yield CoreConstraint("coalition", coalition, everyone - coalition, bound)
    for i in ids:
        single = frozenset({i})
        yield CoreConstraint("ir", single, single, realized[i - 1])
        yield CoreConstraint("nonneg", single, single, 0.0)


def core_constraints(instance: AuctionInstance) -> list[CoreConstraint]:
    """All core conditions for the instance's efficient allocation.

    Emits one blocking-coalition constraint per proper subset of bidders
    (the full set is vacuous and omitted), then an individual-rationality cap
    and a non-negativity floor for every bidder.
    """
    return list(_iter_core_constraints(instance))


def core_violations(
    instance: AuctionInstance, payments: PaymentVector | Sequence[float]
) -> list[CoreViolation]:
    """Constraints the payments violate beyond the tolerance (empty = in the core).

    The constraints are checked as they are generated and only the violated
    ones are kept, so the full list is never held in memory.
    """
    values = _payment_values(payments, instance.n)
    violations = []
    for constraint in _iter_core_constraints(instance):
        slack = constraint.slack(values)
        if slack < -CORE_TOLERANCE:
            violations.append(CoreViolation(constraint, slack))
    return violations


def is_in_core(instance: AuctionInstance, payments: PaymentVector | Sequence[float]) -> bool:
    return not core_violations(instance, payments)


def llg_mrc_segment(profile: LlgBidProfile) -> MrcSegment:
    """Minimum-revenue core segment of the LLG instance for the profile.

    Valid exactly when the locals win (``profile.locals_win()``). The ends
    come from the two mixed blocking coalitions: p1 >= max(0, g - b) and
    p1 <= min(a, g), the latter also being bidder 1's rationality cap when
    a <= g.
    """
    p1_min, p1_max = llg_segment_ends(profile.a, profile.b, profile.g)
    return MrcSegment(g=profile.g, p1_min=p1_min, p1_max=p1_max, valid=profile.locals_win())


def llg_segment_ends(a: float, b: float, g: float) -> tuple[float, float]:
    """The ends (p1_min, p1_max) of the minimum-revenue core segment, from bare bids."""
    return max(0.0, g - b), min(a, g)


def even_split(g: float, r1: float, r2: float) -> float:
    """Bidder 1's payment when the revenue shortfall g - r1 - r2 is split evenly."""
    return 0.5 * (g + r1 - r2)


def project_to_mrc(
    profile: LlgBidProfile,
    reference: PaymentVector | Sequence[float],
    c: float = 2.0,
) -> PaymentVector:
    """Nearest minimum-revenue-core point to the reference, under any L_c metric.

    For every c > 1 the nearest point on the segment is the even split of the
    revenue shortfall between the two locals, clamped into the segment, so c
    is accepted only to document the metric family and does not change the
    result. When the global bidder wins, the unique minimum-revenue core
    point charges her the locals' joint value a + b.
    """
    if c <= 1:
        raise ValueError(f"metric exponent must be > 1, got {c}")
    values = tuple(reference)
    if len(values) < 2:
        raise ValueError("reference must cover the two local bidders")
    segment = llg_mrc_segment(profile)
    if not segment.valid:
        return PaymentVector((0.0, 0.0, profile.a + profile.b))
    p1 = min(max(even_split(profile.g, values[0], values[1]), segment.p1_min), segment.p1_max)
    return PaymentVector((p1, profile.g - p1, 0.0))
