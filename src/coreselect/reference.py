"""Reference-point payment and payoff vectors computed from the exhaustive engine.

Six rules are supported: first price, VCG, and Shapley payments/payoffs with
and without the auctioneer counted as a player. Shapley payments are the
bidder's accepted bid value minus her payoff and are deliberately not clamped,
so losing bidders can carry a negative entry; the vectors are reference points
for a later core projection, not final prices.

Every vector is a plain ``tuple[float, ...]`` indexed by bidder id, id i at
position i - 1. The two payoff rules return payoffs, the other four payments.
"""

from __future__ import annotations

from enum import Enum
from itertools import permutations
from math import factorial
from operator import sub

from .model import SHAPLEY_WEIGHTS, AuctionInstance, SizeLimitError

PERMUTATION_ORACLE_MAX_BIDDERS = 6


class ReferenceRule(Enum):
    """The six reference-point rules, tagged with their command-line names."""

    FIRST_PRICE = "first-price"
    VCG = "vcg"
    SHAPLEY_PAYMENT_NO_AUCTIONEER = "shapley-no-auctioneer"
    SHAPLEY_PAYOFF_NO_AUCTIONEER = "shapley-payoff-no-auctioneer"
    SHAPLEY_PAYMENT_WITH_AUCTIONEER = "shapley-with-auctioneer"
    SHAPLEY_PAYOFF_WITH_AUCTIONEER = "shapley-payoff-with-auctioneer"

    def __init__(self, value: str) -> None:
        # Plain attributes, set once per member, so dispatch does no string search.
        self.is_payoff = "payoff" in value
        self.with_auctioneer = "with-auctioneer" in value


def first_price(instance: AuctionInstance) -> tuple[float, ...]:
    """Winners pay their accepted bid; losers pay nothing."""
    return instance.realized


def vcg(instance: AuctionInstance) -> tuple[float, ...]:
    """Each bidder pays the externality she imposes on the others.

    That is the lost welfare of everyone else (``AuctionInstance.lost_welfare``),
    whose accepted bids are added in id order as the coalition table adds
    welfares, so a loser pays exactly 0.0.
    """
    full = (1 << instance.n) - 1
    lost = instance.lost_welfare
    return tuple(lost[full ^ 1 << i] for i in range(instance.n))


def shapley_payoffs(instance: AuctionInstance, with_auctioneer: bool = False) -> tuple[float, ...]:
    """Subset-weighted average marginal contribution of each bidder.

    With ``with_auctioneer`` the auctioneer is an extra player whose absence
    zeroes every coalition, which only changes the subset weights for the
    bidders themselves. Both variants come from one pass over the coalition
    values, kept on the instance (``AuctionInstance.shapley_values``).
    """
    return instance.shapley_values[1 if with_auctioneer else 0]


def shapley_payments(instance: AuctionInstance, with_auctioneer: bool = False) -> tuple[float, ...]:
    """Accepted-bid value minus the Shapley payoff, computed on reported bids."""
    payoffs = shapley_payoffs(instance, with_auctioneer)
    return tuple(map(sub, instance.realized, payoffs))


def auctioneer_payoff(instance: AuctionInstance) -> float:
    """Shapley payoff of the auctioneer when counted as a player.

    Coalitions without the auctioneer are worth nothing, so her marginal
    contribution to a bidder set S is the coalitional value of S itself.
    """
    weights = SHAPLEY_WEIGHTS[instance.n + 1]
    table = instance.coalition_values
    total = 0.0
    for mask in range(1 << instance.n):
        total += weights[mask.bit_count()] * table[mask]
    return total


def _arrival_order_payoffs(
    instance: AuctionInstance, with_auctioneer: bool
) -> tuple[float, ...]:
    """Each player's average marginal contribution over arrival orders.

    The auctioneer is player n + 1, last in the result, and a coalition
    without her is worth nothing. Without ``with_auctioneer`` only the
    orders where she arrives first count, which is the bidders' own game.
    Factorial in the bidder count, so capped at 6 bidders.
    """
    n = instance.n
    if n > PERMUTATION_ORACLE_MAX_BIDDERS:
        raise SizeLimitError(
            f"permutation oracle supports at most {PERMUTATION_ORACLE_MAX_BIDDERS} bidders"
        )
    table = instance.coalition_values
    totals = [0.0] * (n + 1)
    if with_auctioneer:
        orders = permutations(range(n + 1))
    else:
        # The orders where she arrives first, in the sequence that filtering
        # all (n + 1)! orders gives, so the totals round alike.
        orders = ((n, *p) for p in permutations(range(n)))
    for order in orders:
        mask = 0
        arrived = False
        for i in order:
            if i == n:
                arrived = True
                totals[n] += table[mask]
                continue
            if arrived:
                totals[i] += table[mask | (1 << i)] - table[mask]
            mask |= 1 << i
    count = factorial(n + with_auctioneer)
    return tuple(total / count for total in totals)


def shapley_payoffs_by_enumeration(
    instance: AuctionInstance, with_auctioneer: bool = False
) -> tuple[float, ...]:
    """The bidders' arrival-order averages: the cross-check for ``shapley_payoffs``."""
    return _arrival_order_payoffs(instance, with_auctioneer)[:-1]


def auctioneer_payoff_by_enumeration(instance: AuctionInstance) -> float:
    """The auctioneer's arrival-order average: the cross-check for ``auctioneer_payoff``."""
    return _arrival_order_payoffs(instance, True)[-1]


def reference_point(instance: AuctionInstance, rule: ReferenceRule) -> tuple[float, ...]:
    """Evaluate one of the six reference rules on an instance."""
    if rule is ReferenceRule.FIRST_PRICE:
        return first_price(instance)
    if rule is ReferenceRule.VCG:
        return vcg(instance)
    if rule.is_payoff:
        return shapley_payoffs(instance, rule.with_auctioneer)
    return shapley_payments(instance, rule.with_auctioneer)
