"""Shared strategies and generators for the test suite."""

from __future__ import annotations

import random
from typing import Sequence

from hypothesis import strategies as st

from coreselect import AuctionInstance, Bid, Bidder, LlgBidProfile
from coreselect.model import TIE_TOLERANCE


def bounded_floats(low: float = 0.0, high: float = 2.0):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def llg_profiles(draw, g_low: float = 0.1, g_high: float = 2.0) -> LlgBidProfile:
    g = draw(bounded_floats(g_low, g_high))
    a = draw(bounded_floats(0.0, 2 * g))
    b = draw(bounded_floats(0.0, 2 * g))
    return LlgBidProfile(a, b, g)


@st.composite
def instances(draw, max_bidders: int = 4, max_goods: int = 3) -> AuctionInstance:
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
        bids = tuple(Bid(bundle, draw(bounded_floats(0.0, 5.0))) for bundle in bundles)
        bidders.append(Bidder(i, bids))
    return AuctionInstance(goods, tuple(bidders))


def twelve_bidder_instance() -> AuctionInstance:
    """Fixed 12-bidder, 8-good instance with bids of one to three goods."""
    rng = random.Random(2024)
    goods = tuple(f"g{k}" for k in range(1, 9))
    bidders = []
    for i in range(1, 13):
        bids = tuple(
            Bid(frozenset(rng.sample(goods, rng.randint(1, 3))), rng.uniform(0.1, 1.0))
            for _ in range(rng.randint(1, 3))
        )
        bidders.append(Bidder(i, bids))
    return AuctionInstance(goods, tuple(bidders))


def twelve_bidder_payments() -> tuple[float, ...]:
    """Payments that violate many coalition constraints of ``twelve_bidder_instance``."""
    rng = random.Random(12)
    return tuple(rng.uniform(0.0, 0.2) for _ in range(12))


def tie_tolerance(instance: AuctionInstance) -> float:
    """The engine's tie tolerance for the instance: a fraction of its largest bid."""
    values = [bid.value for bidder in instance.bidders for bid in bidder.bids]
    return TIE_TOLERANCE * max(values, default=0.0)


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
