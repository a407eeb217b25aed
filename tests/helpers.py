"""Shared strategies and generators for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from coreselect import AuctionInstance, Bid, Bidder, LlgBidProfile


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
