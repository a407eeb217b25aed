import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coreselect import (
    AuctionInstance,
    Bid,
    Bidder,
    InvalidCoalitionError,
    LlgBidProfile,
    SizeLimitError,
    coalition_value_table,
    coalitional_value,
    instance_from_json,
    instance_to_json,
    llg_instance,
    realized_welfare,
    winner_determination,
)
from coreselect.model import TIE_TOLERANCE, _instance_options
from coreselect.verify import random_instance
from helpers import exhaustive_best, instances, tie_tolerance

G1 = frozenset({"g1"})
G2 = frozenset({"g2"})
BOTH = frozenset({"g1", "g2"})


def _search_table(instance):
    """The per-subset search the subset DP must reproduce bit for bit.

    Every subset is searched with the whole instance's tie tolerance.
    """
    options = _instance_options(instance)
    tol = tie_tolerance(instance)
    return [
        exhaustive_best([options[i] for i in range(instance.n) if mask >> i & 1], tol)[0]
        for mask in range(1 << instance.n)
    ]


class TestWinnerDetermination:
    def test_locals_win(self):
        allocation = winner_determination(llg_instance(0.4, 0.5, 0.8))
        assert allocation.assignment == {1: G1, 2: G2, 3: frozenset()}
        assert allocation.welfare == pytest.approx(0.9, abs=1e-12)

    def test_global_wins(self):
        allocation = winner_determination(llg_instance(0.2, 0.3, 0.9))
        assert allocation.assignment == {1: frozenset(), 2: frozenset(), 3: BOTH}
        assert allocation.welfare == pytest.approx(0.9, abs=1e-12)

    def test_zero_bids_award_nothing(self):
        allocation = winner_determination(llg_instance(0.0, 0.0, 0.0))
        assert allocation.assignment == {1: frozenset(), 2: frozenset(), 3: frozenset()}
        assert allocation.welfare == 0.0

    def test_exact_tie_goes_to_locals(self):
        allocation = winner_determination(llg_instance(0.4, 0.4, 0.8))
        assert allocation.winners() == (1, 2)

    def test_zero_valued_local_stays_out(self):
        allocation = winner_determination(llg_instance(0.0, 0.5, 0.3))
        assert allocation.assignment == {1: frozenset(), 2: G2, 3: frozenset()}
        assert allocation.welfare == pytest.approx(0.5)

    def test_identical_single_good_bids_tiebreak_to_lower_id(self):
        instance = AuctionInstance(
            ("g1",),
            (Bidder(1, (Bid(G1, 0.5),)), Bidder(2, (Bid(G1, 0.5),))),
        )
        allocation = winner_determination(instance)
        assert allocation.assignment == {1: G1, 2: frozenset()}

    def test_duplicate_bundle_bids_keep_best_value(self):
        instance = AuctionInstance(
            ("g1",),
            (Bidder(1, (Bid(G1, 0.3), Bid(G1, 0.7))),),
        )
        allocation = winner_determination(instance)
        assert allocation.welfare == pytest.approx(0.7)
        assert instance.bid_value(1, G1) == 0.7

    def test_determinism(self):
        instance = llg_instance(0.7, 0.7, 1.4)
        assert winner_determination(instance) == winner_determination(instance)

    def test_tie_break_when_prefix_sums_collapse(self):
        # The first assignment in the canonical order, (1, 2, 3, 5), must win.
        # Its welfare, x + p + x + p, and that of (1, 3, 4, 5), x + x + p + p,
        # are both the best float sum: the prefixes x + p + x
        # (0x1.a72d555555554p+19) and x + x + p (0x1.a72d555555555p+19) are
        # one ulp apart, and bidder 5's bid rounds both to the same welfare.
        # A goods-mask DP that kept only the larger prefix per mask would
        # find (1, 3, 4, 5); the one-ulp gap is inside the tie tolerance, so
        # the engine traces the tied assignments back and keeps the first.
        x, p = 1e6 / 3, 2e5
        bids = [("g1", x), ("g2", p), ("g3", x), ("g2", p), ("g4", p)]
        instance = AuctionInstance(
            ("g1", "g2", "g3", "g4"),
            tuple(
                Bidder(i, (Bid(frozenset({good}), value),))
                for i, (good, value) in enumerate(bids, start=1)
            ),
        )
        allocation = winner_determination(instance)
        assert allocation.winners() == (1, 2, 3, 5)
        assert allocation.welfare == coalition_value_table(instance)[-1]


class TestCoalitionalValue:
    def test_local_and_global(self):
        instance = llg_instance(0.4, 0.5, 0.8)
        assert coalitional_value(instance, {1, 3}) == pytest.approx(0.8)
        assert coalitional_value(instance, {1, 2}) == pytest.approx(0.9)

    def test_empty_coalition(self):
        assert coalitional_value(llg_instance(0.4, 0.5, 0.8), set()) == 0.0

    def test_unknown_bidder(self):
        with pytest.raises(InvalidCoalitionError):
            coalitional_value(llg_instance(0.4, 0.5, 0.8), {1, 9})
        with pytest.raises(InvalidCoalitionError):
            coalitional_value(llg_instance(0.4, 0.5, 0.8), [0])

    def test_table_matches_direct_computation(self):
        instance = llg_instance(0.6, 0.7, 1.0)
        assert coalition_value_table(instance) == _search_table(instance)

    def test_matches_search_on_every_subset(self):
        rng = random.Random(11)
        for _ in range(8):
            instance = random_instance(rng)
            expected = _search_table(instance)
            ids = instance.bidder_ids()
            for mask in range(1 << instance.n):
                members = [ids[i] for i in range(instance.n) if mask >> i & 1]
                # Unsorted, with a repeated id: the coalition is a set of ids.
                unsorted = [*reversed(members), *members[:1]]
                assert coalitional_value(instance, unsorted) == expected[mask]
            assert coalitional_value(instance, []) == expected[0] == 0.0


# Bid values whose sums tie often, exactly or within a few ulps (0.1 + 0.2
# against 0.3, thirds against 2/3): there a float-max DP without the
# search's tie rule drifts from the search by one ulp.
TIE_VALUES = (0.0, 0.001, 0.1, 0.2, 0.3, 1 / 3, 0.5, 2 / 3, 0.7)


@st.composite
def tie_heavy_instances(draw):
    m = draw(st.integers(0, 6))
    goods = tuple(f"g{k}" for k in range(1, m + 1))
    n = draw(st.integers(0, 8))
    scale = draw(st.sampled_from((1e-6, 1.0, 1e3, 1e6, 1e9, 1e12)))
    # Bundles of one or two goods let many bidders share the goods, so
    # near-tied assignments are common; duplicate bundles are allowed.
    bundles = st.frozensets(st.sampled_from(goods), min_size=1, max_size=2)
    values = st.sampled_from(TIE_VALUES).map(scale.__mul__)
    bidders = []
    for i in range(1, n + 1):
        bids = draw(st.lists(st.builds(Bid, bundles, values), min_size=1, max_size=3)) if goods else []
        bidders.append(Bidder(i, tuple(bids)))
    return AuctionInstance(goods, tuple(bidders))


# Offsets, in tie tolerances, that put assignments less than a tolerance
# apart without being equal; sums of two reach the tolerance's edge.
NEAR_TIE_STEPS = (0.0, 0.4, -0.4, 0.6, -0.6, 0.9, -0.9)


@st.composite
def near_tie_instances(draw):
    """``tie_heavy_instances`` with every bid moved by a fraction of the tie tolerance."""
    instance = draw(tie_heavy_instances())
    tol = tie_tolerance(instance)
    steps = st.sampled_from(NEAR_TIE_STEPS)
    bidders = tuple(
        Bidder(
            bidder.id,
            tuple(
                Bid(bid.bundle, max(0.0, bid.value + draw(steps) * tol)) for bid in bidder.bids
            ),
        )
        for bidder in instance.bidders
    )
    return AuctionInstance(instance.goods, bidders)


def sliding_ties_instance(scale):
    """Three goods where each tie is within the tolerance of the one before, not of the best."""
    g3 = frozenset({"g3"})
    first = (Bid(G1, 0.25e9 * scale), Bid(G2, 0.5e9 * scale), Bid(g3, 1e9 * scale))
    second = (
        Bid(G1 | g3, (0.5e9 - 6e-4) * scale),
        Bid(G2 | g3, (0.75e9 - 1.2e-3) * scale),
    )
    return AuctionInstance(("g1", "g2", "g3"), (Bidder(1, first), Bidder(2, second)))


class TestCoalitionValueTableExact:
    """``coalition_value_table`` equals the per-subset search with ``==``."""

    @settings(max_examples=300, deadline=None)
    @given(instance=tie_heavy_instances())
    def test_matches_search_on_tie_heavy_bids(self, instance):
        assert coalition_value_table(instance) == _search_table(instance)

    @settings(max_examples=200, deadline=None)
    @given(instance=near_tie_instances())
    @example(instance=sliding_ties_instance(1.0))
    def test_matches_search_on_near_tie_bids(self, instance):
        assert coalition_value_table(instance) == _search_table(instance)

    def test_no_bidders(self):
        instance = AuctionInstance(("g1", "g2"), ())
        assert coalition_value_table(instance) == _search_table(instance) == [0.0]

    def test_no_goods(self):
        instance = AuctionInstance((), (Bidder(1, ()), Bidder(2, ())))
        assert coalition_value_table(instance) == _search_table(instance) == [0.0] * 4

    def test_zero_valued_bids(self):
        instance = llg_instance(0.0, 0.0, 0.0)
        assert coalition_value_table(instance) == _search_table(instance) == [0.0] * 8

    def test_inexact_tie_keeps_first_assignment(self):
        # 0.1 + 0.2 exceeds 0.3 by one ulp, far inside TIE_TOLERANCE, so the
        # search keeps bidder 1's package, which comes first.
        instance = AuctionInstance(
            ("g1", "g2"),
            (
                Bidder(1, (Bid(BOTH, 0.3),)),
                Bidder(2, (Bid(G1, 0.1),)),
                Bidder(3, (Bid(G2, 0.2),)),
            ),
        )
        table = coalition_value_table(instance)
        assert table == _search_table(instance)
        assert table[0b111] == 0.3
        assert table[0b110] == 0.1 + 0.2

    def test_duplicate_bundle_keeps_higher_value(self):
        instance = AuctionInstance(
            ("g1",),
            (Bidder(1, (Bid(G1, 0.3), Bid(G1, 0.7), Bid(G1, 0.5))),),
        )
        assert coalition_value_table(instance) == _search_table(instance) == [0.0, 0.7]

    def test_twelve_bidders_eight_goods(self):
        rng = random.Random(7)
        goods = tuple(f"g{k}" for k in range(1, 9))
        bidders = tuple(
            Bidder(
                i,
                tuple(
                    Bid(frozenset(rng.sample(goods, rng.randint(1, 4))), rng.choice(TIE_VALUES))
                    for _ in range(3)
                ),
            )
            for i in range(1, 13)
        )
        instance = AuctionInstance(goods, bidders)
        assert coalition_value_table(instance) == _search_table(instance)


class TestWinnerDeterminationExact:
    """``winner_determination`` equals the branch-and-bound search with ``==``."""

    @staticmethod
    def assert_matches_search(instance):
        welfare, choice = exhaustive_best(instance.options, tie_tolerance(instance))
        allocation = winner_determination(instance)
        assert allocation.assignment == dict(zip(instance.bidder_ids(), choice))
        assert allocation.welfare == welfare

    @settings(max_examples=300, deadline=None)
    @given(instance=tie_heavy_instances())
    def test_matches_search_on_tie_heavy_bids(self, instance):
        self.assert_matches_search(instance)

    @settings(max_examples=300, deadline=None)
    @given(instance=near_tie_instances())
    @example(instance=sliding_ties_instance(1.0))
    @example(instance=sliding_ties_instance(1e-9))
    def test_matches_search_on_near_tie_bids(self, instance):
        self.assert_matches_search(instance)
        # No coalition, the grand one included, beats the allocation by more
        # than the tie tolerance.
        welfare = winner_determination(instance).welfare
        assert max(coalition_value_table(instance)) <= welfare + tie_tolerance(instance)

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_ties_do_not_chain_below_the_best(self, scale):
        # Bidder 1 alone reaches 1e9. Bidders 1 and 2 together reach 1e9 -
        # 6e-4 and 1e9 - 1.2e-3 (at scale 1), each within the tolerance 1e-3
        # of the one before. Only the first is within it of the best.
        instance = sliding_ties_instance(scale)
        allocation = winner_determination(instance)
        assert allocation.assignment == {1: G2, 2: frozenset({"g1", "g3"})}
        assert allocation.welfare == (0.5e9 * scale) + (0.5e9 - 6e-4) * scale
        table = coalition_value_table(instance)
        assert table == _search_table(instance)
        assert table[0b01] == 1e9 * scale
        assert table[0b01] <= table[0b11] + tie_tolerance(instance)


@st.composite
def near_tie_llg_profiles(draw):
    """LLG profiles with g within a few tie tolerances and ulps of a + b.

    The tolerance unit is either relative to a + b or absolute, so both the
    scaled tie window and an absolute one are probed at every scale.
    """
    scale = draw(st.sampled_from((1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12)))
    # Zero local bids are drawn often: the global bid's key then decides.
    unit_floats = st.just(0.0) | st.floats(0.0, 1.0)
    a = draw(unit_floats) * scale
    b = draw(unit_floats) * scale
    unit = draw(st.sampled_from((a + b, 1.0)))
    g = a + b + draw(st.integers(-3, 3)) * TIE_TOLERANCE * unit
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        g = math.nextafter(g, math.copysign(math.inf, steps))
    return LlgBidProfile(a, b, max(g, 0.0))


class TestLocalsWin:
    """``LlgBidProfile.locals_win`` is the engine's own winner rule."""

    @staticmethod
    def engine_locals_win(profile):
        return 3 not in winner_determination(profile.to_instance()).winners()

    def test_agrees_with_engine_at_tolerance_edge(self):
        # g exceeds a + b by about 1e-12, which is 1% of the bids here.
        profile = LlgBidProfile(
            1.0611138117492025e-10, 9.791498508458952e-12, 1.169028796833792e-10
        )
        assert not profile.locals_win()
        assert not self.engine_locals_win(profile)

    def test_zero_locals_lose_to_positive_global(self):
        profile = LlgBidProfile(0.0, 0.0, 1e-13)
        assert not profile.locals_win()
        assert winner_determination(profile.to_instance()).winners() == (3,)

    @pytest.mark.parametrize("k", [1e-6, 1.0, 1e3, 1e6, 1e9])
    def test_tie_window_scales_with_bids(self, k):
        a, b = 0.4 * k, 0.5 * k
        profile = LlgBidProfile(a, b, (a + b) * (1 + 1e-15))
        assert profile.locals_win()
        assert winner_determination(profile.to_instance()).winners() == (1, 2)

    @settings(max_examples=300, deadline=None)
    @given(profile=near_tie_llg_profiles())
    @example(
        profile=LlgBidProfile(1.0611138117492025e-10, 9.791498508458952e-12, 1.169028796833792e-10)
    )
    @example(profile=LlgBidProfile(0.0, 0.0, 1e-12))
    def test_matches_engine_near_ties(self, profile):
        assert profile.locals_win() == self.engine_locals_win(profile)


class TestRealizedWelfare:
    def test_on_locals_win(self):
        instance = llg_instance(0.4, 0.5, 0.8)
        allocation = winner_determination(instance)
        assert realized_welfare(instance, {2, 3}, allocation) == pytest.approx(0.5)

    def test_on_global_win(self):
        instance = llg_instance(0.2, 0.3, 0.9)
        allocation = winner_determination(instance)
        assert realized_welfare(instance, {1, 2}, allocation) == 0.0

    def test_full_coalition_equals_welfare(self):
        instance = llg_instance(1.1, 0.2, 0.9)
        allocation = winner_determination(instance)
        assert realized_welfare(instance, {1, 2, 3}, allocation) == pytest.approx(
            allocation.welfare
        )


class TestValidation:
    def test_too_many_goods(self):
        goods = tuple(f"g{i}" for i in range(9))
        with pytest.raises(SizeLimitError):
            AuctionInstance(goods, ())

    def test_too_many_bidders(self):
        bidders = tuple(Bidder(i, ()) for i in range(1, 14))
        with pytest.raises(SizeLimitError):
            AuctionInstance(("g1",), bidders)

    def test_non_dense_ids(self):
        with pytest.raises(ValueError):
            AuctionInstance(("g1",), (Bidder(2, ()),))

    def test_undeclared_good(self):
        with pytest.raises(ValueError):
            AuctionInstance(("g1",), (Bidder(1, (Bid(frozenset({"gX"}), 1.0),)),))

    def test_negative_value(self):
        with pytest.raises(ValueError):
            AuctionInstance(("g1",), (Bidder(1, (Bid(G1, -0.1),)),))

    def test_negative_llg_bid(self):
        with pytest.raises(ValueError):
            LlgBidProfile(-0.1, 0.5, 1.0)


class TestJson:
    def test_round_trip(self):
        instance = llg_instance(0.4, 0.5, 0.8)
        assert instance_from_json(instance_to_json(instance)) == instance

    def test_documented_shape(self):
        text = json.dumps(
            {
                "goods": ["g1", "g2"],
                "bidders": [
                    {"id": 1, "bids": [{"bundle": ["g1"], "value": 0.4}]},
                    {"id": 2, "bids": [{"bundle": ["g2"], "value": 0.5}]},
                    {"id": 3, "bids": [{"bundle": ["g1", "g2"], "value": 0.8}]},
                ],
            }
        )
        assert instance_from_json(text) == llg_instance(0.4, 0.5, 0.8)

    def test_malformed_object(self):
        with pytest.raises(ValueError):
            instance_from_json('{"goods": ["g1"]}')


@settings(max_examples=60, deadline=None)
@given(instance=instances(), data=st.data())
def test_coalitional_value_monotone(instance, data):
    ids = list(instance.bidder_ids())
    small = data.draw(st.sets(st.sampled_from(ids)) if ids else st.just(set()))
    extra = data.draw(st.sets(st.sampled_from(ids)) if ids else st.just(set()))
    large = small | extra
    assert coalitional_value(instance, small) <= coalitional_value(instance, large) + 1e-12


@settings(max_examples=60, deadline=None)
@given(instance=instances(), data=st.data())
def test_realized_welfare_at_most_coalitional_value(instance, data):
    ids = list(instance.bidder_ids())
    coalition = data.draw(st.sets(st.sampled_from(ids)) if ids else st.just(set()))
    allocation = winner_determination(instance)
    assert realized_welfare(instance, coalition, allocation) <= coalitional_value(
        instance, coalition
    ) + 1e-12


@settings(max_examples=60, deadline=None)
@given(instance=instances())
def test_welfare_equals_grand_coalition_value(instance):
    allocation = winner_determination(instance)
    assert allocation.welfare == pytest.approx(
        coalitional_value(instance, instance.bidder_ids()), abs=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(instance=instances())
def test_allocation_feasible_and_welfare_consistent(instance):
    allocation = winner_determination(instance)
    used: set[str] = set()
    total = 0.0
    for bidder_id, bundle in allocation.assignment.items():
        assert not (used & bundle)
        used |= bundle
        total += instance.bid_value(bidder_id, bundle)
    assert allocation.welfare == pytest.approx(total, abs=1e-12)
