import dataclasses
import json
import math
import pydoc
import random
import sys

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
    core_violations,
    instance_from_json,
    instance_to_json,
    llg_instance,
    reference_point,
    winner_determination,
)
from coreselect import model
from coreselect.model import TIE_TOLERANCE, _program_rows, id_order_sums
from coreselect.reference import ReferenceRule
from coreselect.verify import random_instance
from helpers import (
    bid_value_from_bids,
    coalition_value_table_by_relaxed,
    coarse_grid_instance,
    exhaustive_best,
    general_auction_instance,
    instances,
    largest_bid,
    realized_welfare,
    seeded_instance,
    shapley_payoffs_per_mask,
    tie_tolerance,
    twelve_bidder_instance,
)

G1 = frozenset({"g1"})
G2 = frozenset({"g2"})
BOTH = frozenset({"g1", "g2"})

BAD_VALUE = "bidder 1 has a bid value that is not a finite non-negative number"


def _search_table(instance):
    """The per-subset search the subset DP must reproduce bit for bit.

    Every subset is searched with the whole instance's tie tolerance.
    """
    options = instance.options
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


class TestBidValue:
    @settings(max_examples=60, deadline=None)
    @given(instance=instances())
    @example(
        instance=AuctionInstance(("g1",), (Bidder(1, (Bid(G1, 0.0), Bid(G1, 0.3), Bid(G1, 0.7))),))
    )
    def test_matches_raw_bids(self, instance):
        unlisted = frozenset(instance.goods) | {"unlisted"}
        for bidder in instance.bidders:
            bundles = [bid.bundle for bid in bidder.bids]
            for bundle in (*bundles, frozenset(), unlisted):
                expected = bid_value_from_bids(instance, bidder.id, bundle)
                assert instance.bid_value(bidder.id, bundle) == expected

    @pytest.mark.parametrize("bidder_id", [0, -2, 4, 1.5, 2.0, True, None, "1"])
    def test_unknown_bidder(self, bidder_id):
        with pytest.raises(InvalidCoalitionError):
            llg_instance(0.4, 0.5, 0.8).bid_value(bidder_id, BOTH)


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
        for bidder_id in (1.5, 2.0):
            with pytest.raises(InvalidCoalitionError):
                coalitional_value(llg_instance(0.4, 0.5, 0.8), [bidder_id])
        # Ids that cannot be sorted together or hashed, None, and True, which
        # equals 1 and so would merge with it in a set.
        for coalition in (["a", 9], [None], [True], [1, True], [[1]]):
            with pytest.raises(InvalidCoalitionError):
                coalitional_value(llg_instance(0.4, 0.5, 0.8), coalition)

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


def twelve_tie_valued_instance():
    """12 bidders on 8 goods, three ``TIE_VALUES`` bids of one to four goods each."""
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
    return AuctionInstance(goods, bidders)


def sliding_ties_instance(scale):
    """Three goods where each tie is within the tolerance of the one before, not of the best."""
    g3 = frozenset({"g3"})
    first = (Bid(G1, 0.25e9 * scale), Bid(G2, 0.5e9 * scale), Bid(g3, 1e9 * scale))
    second = (
        Bid(G1 | g3, (0.5e9 - 6e-4) * scale),
        Bid(G2 | g3, (0.75e9 - 1.2e-3) * scale),
    )
    return AuctionInstance(("g1", "g2", "g3"), (Bidder(1, first), Bidder(2, second)))


class TestProgramRows:
    def test_llg_read_sets(self):
        # Goods masks: g1 = 0b01, g2 = 0b10, full = 0b11, in slot 0. The
        # global bidder's layers are read only at the full mask: one slot.
        # Bidder 2's are also read at the empty mask (slot 1), which the
        # global package leaves, and its g2 option fits only the full mask.
        # Bidder 1's are also read at g1 alone (slot 2), which bidder 2's g2
        # leaves. The empty coalition's layer is also read at g2 (slot 3),
        # which bidder 1's g1 leaves of the full mask.
        slots, count, cuts, rows = _program_rows(llg_instance(0.4, 0.5, 0.8))
        assert slots == [1, 2, 3, 0]
        assert count == 4
        assert cuts == [slice(3), slice(2), slice(1)]
        assert rows == [
            [(0.4, [(3, 0), (1, 2)])],
            [(0.5, [(2, 0)])],
            [(0.8, [(1, 0)])],
        ]

    def test_read_outside_a_read_set_fails(self):
        instance = llg_instance(0.4, 0.5, 0.8)
        slots, count, cuts, rows = instance._program
        layer = ([0.0] * count, [-math.inf] * count, None, None)
        for h, cut in enumerate(cuts):
            layer = model._relaxed(layer, h, cut, rows[h])
        # The global bidder's layer holds the full mask only, not g1 alone.
        with pytest.raises(IndexError):
            model._best_path(instance.options, slots, layer, 0b01)

    @settings(max_examples=200, deadline=None)
    @given(instance=instances(max_bidders=7, max_goods=5))
    def test_slots_and_read_sets(self, instance):
        slots, count, cuts, rows = _program_rows(instance)
        full = (1 << instance.m) - 1
        assert len(slots) == full + 1
        assert slots[full] == 0
        assert sorted(slot for slot in slots if slot is not None) == list(range(count))
        sizes = [cut.stop for cut in cuts]
        assert cuts == [slice(size) for size in sizes]
        assert sizes[-1] == 1
        # Each read set holds the next bidder's as a prefix; the empty
        # coalition's layer is read at every slot.
        below = [count, *sizes]
        assert below == sorted(below, reverse=True)
        masks = {slot: mask for mask, slot in enumerate(slots) if slot is not None}
        for h, bidder_rows in enumerate(rows):
            options = instance.options[h][:-1]
            assert [value for value, _ in bidder_rows] == [value for _, value, _ in options]
            for (bundle, _, _), (_, pairs) in zip(options, bidder_rows):
                fitting = [slot for slot in range(sizes[h]) if not bundle & ~masks[slot]]
                assert [goods for _, goods in pairs] == fitting
                for rest, goods in pairs:
                    assert rest < below[h]
                    assert goods < sizes[h]
                    assert masks[rest] == masks[goods] & ~bundle

    @settings(max_examples=100, deadline=None)
    @given(instance=instances(max_bidders=7, max_goods=5))
    def test_walks_size_each_layer_to_its_read_set(self, instance):
        n = instance.n
        _, count, cuts, rows = instance._program
        below = [count, *(cut.stop for cut in cuts)]
        pairs = [sum(len(row_pairs) for _, row_pairs in bidder_rows) for bidder_rows in rows]
        # Each of bidder n's rows is one pair, and the table relaxes it in
        # place for each of bidder n's coalitions, with no _relaxed call.
        assert all(len(row_pairs) == 1 for _, row_pairs in rows[-1])
        for walk, calls_per_bidder in (
            (winner_determination, [1] * n),
            (coalition_value_table, [2**h if h < n - 1 else 0 for h in range(n)]),
        ):
            calls = recorded_relaxations(walk, instance)
            assert [sum(h == k for h, _, _, _ in calls) for k in range(n)] == calls_per_bidder
            # The relaxation count of ROADMAP's engine counters: sum(2**h * pairs_h)
            # for the table, one call per bidder for the chain. The table's
            # in-place relaxations of bidder n's rows are checked only by
            # TestEngineLoopsMatchTheirOracles, bit for bit.
            assert sum(relaxed for _, _, _, relaxed in calls) == sum(
                c * p for c, p in zip(calls_per_bidder, pairs)
            )
            for h, parent_size, size, _ in calls:
                assert size == below[h + 1]
                # The parent is the empty layer or one of a lower bidder.
                assert parent_size in below[: h + 1]
                if walk is winner_determination:
                    assert parent_size == below[h]


def assert_bounds_below_best(layer) -> None:
    """No slot of the layer has a bound above its best: ``_relaxed``'s rule needs it."""
    assert len(layer[0]) == len(layer[1])
    assert all(bound <= best for best, bound in zip(layer[0], layer[1]))


def recorded_relaxations(walk, instance) -> list[tuple[int, int, int, int]]:
    """Run a walk with ``model._relaxed`` recorded, one entry per call.

    Each entry is the bidder index, the parent layer's size, the child
    layer's size (both of its lists) and the number of (rest, goods) pairs
    the call relaxed. Every child layer is checked with
    ``assert_bounds_below_best``.
    """
    relaxed = model._relaxed
    calls = []

    def recorded(layer, h, cut, rows):
        child = relaxed(layer, h, cut, rows)
        assert_bounds_below_best(child)
        calls.append((h, len(layer[0]), len(child[0]), sum(len(pairs) for _, pairs in rows)))
        return child

    model._relaxed = recorded
    try:
        walk(instance)
    finally:
        model._relaxed = relaxed
    return calls


def recorded_tie_breaks(walk, instance) -> list[tuple[int, int]]:
    """Run a walk with ``model._tie_broken`` recorded: per call, the layer's bidder and size.

    Every layer traced, the table's one-slot leaves included, is checked
    with ``assert_bounds_below_best``.
    """
    tie_broken = model._tie_broken
    calls = []

    def recorded(options, slots, layer, full, tol):
        assert_bounds_below_best(layer)
        calls.append((layer[2], len(layer[0])))
        return tie_broken(options, slots, layer, full, tol)

    model._tie_broken = recorded
    try:
        walk(instance)
    finally:
        model._tie_broken = tie_broken
    return sorted(calls)


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
        instance = twelve_tie_valued_instance()
        assert coalition_value_table(instance) == _search_table(instance)

    # The general-auction benchmark's largest size, where the read sets of
    # the highest bidders hold a handful of the 256 goods masks.
    @pytest.mark.parametrize(
        "make", [twelve_bidder_instance, general_auction_instance, coarse_grid_instance]
    )
    def test_general_auction_shape(self, make):
        instance = make()
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

    # At 12 bidders most layers are those of the highest bidders, whose read
    # sets hold a handful of the 256 goods masks, so most entries go unrelaxed.
    def test_twelve_tie_valued_bidders(self):
        self.assert_matches_search(twelve_tie_valued_instance())

    def test_twelve_bidders(self):
        self.assert_matches_search(twelve_bidder_instance())

    def test_general_auction_shape(self):
        self.assert_matches_search(general_auction_instance())

    def test_no_bidders(self):
        instance = AuctionInstance(("g1", "g2"), ())
        allocation = winner_determination(instance)
        assert allocation.assignment == {}
        assert allocation.welfare == 0.0
        self.assert_matches_search(instance)

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


def hexes(values) -> list[str]:
    return [value.hex() for value in values]


class TestEngineLoopsMatchTheirOracles:
    """The table walk and the Shapley pass equal the loops they replaced, in ``float.hex``.

    The oracles in ``tests/helpers.py`` build every coalition with
    ``_relaxed`` and visit every mask with a skip branch.
    """

    @staticmethod
    def assert_same_shapley_bits(n, table):
        payoffs = model._shapley_payoffs(n, tuple(table))
        expected = shapley_payoffs_per_mask(n, tuple(table))
        assert [hexes(vector) for vector in payoffs] == [hexes(vector) for vector in expected]

    @classmethod
    def assert_matches(cls, instance):
        table = coalition_value_table(instance)
        assert hexes(table) == hexes(coalition_value_table_by_relaxed(instance))
        cls.assert_same_shapley_bits(instance.n, table)

    @pytest.mark.parametrize("n", range(13))
    def test_shapley_on_random_tables(self, n):
        rng = random.Random(n)
        for _ in range(3):
            table = [rng.choice((-1, 1)) * 10 ** rng.uniform(-5, 5) for _ in range(1 << n)]
            self.assert_same_shapley_bits(n, table)

    @pytest.mark.parametrize("n", range(13))
    def test_seeded_instances(self, n):
        for seed in range(3):
            self.assert_matches(seeded_instance(n, seed))

    @staticmethod
    def record_both_walks(instance):
        """Both walks under both recorders, which check each layer's bounds."""
        for walk in (winner_determination, coalition_value_table):
            recorded_relaxations(walk, instance)
            recorded_tie_breaks(walk, instance)

    @settings(max_examples=100, deadline=None)
    @given(instance=tie_heavy_instances())
    def test_tie_heavy_bids(self, instance):
        self.assert_matches(instance)
        self.record_both_walks(instance)

    def test_coarse_grid_ties(self):
        instance = coarse_grid_instance()
        self.assert_matches(instance)
        ties = recorded_tie_breaks(coalition_value_table, instance)
        # Most traced ties are at the leaves the table relaxes in place.
        assert (len(ties), sum(h == instance.n - 1 for h, _ in ties)) == (475, 350)
        self.record_both_walks(instance)

    def test_tie_only_at_a_coalition_with_bidder_n(self):
        # 0.25 + 0.5 == 0.75 exactly, so the locals and the global bidder
        # tie in the grand coalition and nowhere else.
        instance = llg_instance(0.25, 0.5, 0.75)
        self.assert_matches(instance)
        # Bidder n's one-slot layer goes to the tie-break, built in place.
        assert recorded_tie_breaks(coalition_value_table, instance) == [(2, 1)]
        calls = recorded_relaxations(coalition_value_table, instance)
        assert sorted(h for h, _, _, _ in calls) == [0, 1, 1]

    def test_tie_where_bidder_n_has_no_bids(self):
        llg = llg_instance(0.25, 0.5, 0.75)
        instance = AuctionInstance(llg.goods, (*llg.bidders, Bidder(4, ())))
        assert instance._program[3][3] == []
        self.assert_matches(instance)
        # The tie carries over to the grand coalition, with no rows to relax.
        assert recorded_tie_breaks(coalition_value_table, instance) == [(2, 1), (3, 1)]
        calls = recorded_relaxations(coalition_value_table, instance)
        assert [h for h, _, _, _ in calls].count(3) == 0

    @pytest.mark.parametrize("n", range(12))
    def test_bidder_n_has_no_bids(self, n):
        instance = seeded_instance(n, n)
        self.assert_matches(AuctionInstance(instance.goods, (*instance.bidders, Bidder(n + 1, ()))))

    @pytest.mark.parametrize(
        "bids, ties",
        [
            ((), 0),
            ((Bid(G1, 0.5),), 0),
            # Two options of equal value: the one coalition ties.
            ((Bid(G1, 0.5), Bid(BOTH, 0.5)), 1),
        ],
    )
    def test_one_bidder(self, bids, ties):
        instance = AuctionInstance(("g1", "g2"), (Bidder(1, bids),))
        self.assert_matches(instance)
        assert recorded_tie_breaks(coalition_value_table, instance) == [(0, 1)] * ties
        assert recorded_relaxations(coalition_value_table, instance) == []


# Instances with nothing to award: every layer is the one slot of ``full``.
EDGE_INSTANCES = {
    "no bidders": AuctionInstance(("g1", "g2"), ()),
    "no goods": AuctionInstance((), (Bidder(1, ()), Bidder(2, ()))),
    "zero bids": AuctionInstance(
        ("g1", "g2"),
        (
            Bidder(1, (Bid(G1, 0.0),)),
            Bidder(2, (Bid(BOTH, 0.0), Bid(G2, 0.0))),
            Bidder(3, ()),
        ),
    ),
}


@pytest.mark.parametrize("name", EDGE_INSTANCES)
class TestEdgeInstances:
    def test_program(self, name):
        instance = EDGE_INSTANCES[name]
        slots, count, cuts, rows = instance._program
        assert count == 1
        assert slots == [None] * ((1 << instance.m) - 1) + [0]
        assert cuts == [slice(1)] * instance.n
        assert rows == [[]] * instance.n

    def test_walks(self, name):
        instance = EDGE_INSTANCES[name]
        n = instance.n
        table = coalition_value_table(instance)
        assert table == _search_table(instance) == [0.0] * (1 << n)
        allocation = winner_determination(instance)
        assert allocation.assignment == {i: frozenset() for i in instance.bidder_ids()}
        assert allocation.welfare == 0.0
        TestWinnerDeterminationExact.assert_matches_search(instance)
        TestEngineLoopsMatchTheirOracles.assert_matches(instance)
        chain = recorded_relaxations(winner_determination, instance)
        assert chain == [(h, 1, 1, 0) for h in range(n)]
        walk = recorded_relaxations(coalition_value_table, instance)
        assert sorted(walk) == sorted((h, 1, 1, 0) for h in range(n - 1) for _ in range(2**h))

    def test_rules_and_core(self, name):
        instance = EDGE_INSTANCES[name]
        n = instance.n
        for rule in ReferenceRule:
            assert reference_point(instance, rule) == (0.0,) * n
        assert core_violations(instance, (0.0,) * n) == []
        # Paying anything breaks only the rationality caps, which are zero.
        found = core_violations(instance, (1.0,) * n)
        assert [(v.constraint.kind, set(v.constraint.payers), v.slack) for v in found] == [
            ("ir", {i}, -1.0) for i in instance.bidder_ids()
        ]


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


class TestScale:
    @settings(max_examples=60, deadline=None)
    @given(instance=instances())
    @example(instance=llg_instance(0.0, 0.0, 0.0))
    @example(instance=AuctionInstance(("g1",), ()))
    def test_scale_is_the_largest_bid(self, instance):
        assert instance.scale == largest_bid(instance)
        # Not part of the instance's value.
        assert "scale" not in repr(instance)


class TestSolvedOnceDescriptor:
    def test_class_access_gives_the_documented_descriptor(self):
        # So help() and pydoc can read each solved-once attribute's docstring.
        descriptor = AuctionInstance.allocation
        assert isinstance(descriptor, model._solved_once)
        assert descriptor.__doc__ == "The efficient allocation, solved once."
        assert descriptor.__doc__ in pydoc.render_doc(AuctionInstance, renderer=pydoc.plaintext)


@st.composite
def duplicate_bundle_instances(draw):
    """Instances whose bidders bid on one bundle more than once, zero values among them."""
    m = draw(st.integers(1, 3))
    goods = tuple(f"g{k}" for k in range(1, m + 1))
    bundles = st.frozensets(st.sampled_from(goods), min_size=1)
    values = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
    bidders = []
    for i in range(1, draw(st.integers(1, 4)) + 1):
        listed = draw(st.lists(bundles, max_size=3))
        # The first bundle again, most often at another value.
        bids = tuple(Bid(bundle, draw(values)) for bundle in (*listed, *listed[:1]))
        bidders.append(Bidder(i, bids))
    return AuctionInstance(goods, tuple(bidders))


class TestRealized:
    """``realized`` is the raw bids' highest value on each awarded bundle, to the bit."""

    @staticmethod
    def _check(instance):
        allocation = instance.allocation
        expected = [
            bid_value_from_bids(instance, i, allocation.bundle_for(i)) for i in instance.bidder_ids()
        ]
        assert [float.hex(value) for value in instance.realized] == [
            float.hex(value) for value in expected
        ]
        assert len(allocation.values) == instance.n
        assert instance.realized is allocation.values
        # Exact, not approximate: so the grand coalition loses nothing, and
        # a loser's VCG payment is exactly 0.0.
        assert float.hex(allocation.welfare) == float.hex(id_order_sums(allocation.values)[-1])
        assert instance.lost_welfare[-1] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(instance=duplicate_bundle_instances())
    @example(
        instance=AuctionInstance(("g1",), (Bidder(1, (Bid(G1, 0.0), Bid(G1, 0.7), Bid(G1, 0.3))),))
    )
    @example(instance=AuctionInstance(("g1",), (Bidder(1, (Bid(G1, 0.0), Bid(G1, 0.0))),)))
    def test_duplicate_and_zero_bids(self, instance):
        self._check(instance)

    @settings(max_examples=60, deadline=None)
    @given(instance=tie_heavy_instances())
    def test_tie_heavy(self, instance):
        self._check(instance)

    @pytest.mark.parametrize(
        "instance",
        [
            *EDGE_INSTANCES.values(),
            *(seeded_instance(n, s) for n in range(13) for s in range(2)),
            coarse_grid_instance(),
            twelve_bidder_instance(),
        ],
    )
    def test_fixed_instances(self, instance):
        self._check(instance)


class TestRealizedWelfare:
    def test_on_locals_win(self):
        instance = llg_instance(0.4, 0.5, 0.8)
        assert realized_welfare(instance, {2, 3}) == pytest.approx(0.5)

    def test_on_global_win(self):
        instance = llg_instance(0.2, 0.3, 0.9)
        assert realized_welfare(instance, {1, 2}) == 0.0

    def test_full_coalition_equals_welfare(self):
        instance = llg_instance(1.1, 0.2, 0.9)
        assert realized_welfare(instance, {1, 2, 3}) == pytest.approx(
            instance.allocation.welfare
        )


class TestValidation:
    def test_duplicate_goods(self):
        with pytest.raises(ValueError, match="^duplicate good identifiers$"):
            AuctionInstance(("g1", "g1"), ())

    def test_too_many_goods(self):
        goods = tuple(f"g{i}" for i in range(9))
        with pytest.raises(SizeLimitError):
            AuctionInstance(goods, ())

    def test_too_many_bidders(self):
        bidders = tuple(Bidder(i, ()) for i in range(1, 14))
        with pytest.raises(SizeLimitError):
            AuctionInstance(("g1",), bidders)

    @pytest.mark.parametrize("bidder_id", [2, 1.0, True])
    def test_non_dense_ids(self, bidder_id):
        # 1.0 and True equal 1, yet neither is an int id.
        with pytest.raises(ValueError, match=r"bidder ids must be 1\.\.n in order"):
            AuctionInstance(("g1",), (Bidder(bidder_id, ()),))

    def test_undeclared_good(self):
        with pytest.raises(ValueError, match=r"^bidder 1 bids on undeclared goods \['gX'\]$"):
            AuctionInstance(("g1",), (Bidder(1, (Bid(frozenset({"gX"}), 1.0),)),))

    def test_negative_value(self):
        with pytest.raises(ValueError, match=f"^{BAD_VALUE}$"):
            AuctionInstance(("g1",), (Bidder(1, (Bid(G1, -0.1),)),))

    # Ints above the largest float have no float: 10**400 and 2**1024 once
    # escaped the value test as an OverflowError, and the int just above the
    # largest float would round down to it, yet is refused like them.
    @pytest.mark.parametrize(
        "value", [math.nan, -1, math.inf, 10**400, 2**1024, int(sys.float_info.max) + 1]
    )
    def test_value_not_finite_non_negative(self, value):
        with pytest.raises(ValueError, match=f"^{BAD_VALUE}$"):
            AuctionInstance(("g1",), (Bidder(1, (Bid(G1, value),)),))

    def test_largest_float_as_int_is_a_bid(self):
        value = int(sys.float_info.max)
        instance = AuctionInstance(("g1",), (Bidder(1, (Bid(G1, value),)),))
        assert instance.scale == value
        assert instance.realized == (value,)

    @pytest.mark.parametrize(
        "bundle, message",
        [
            (frozenset({"gX"}), r"^bidder 1 bids on undeclared goods \['gX'\]$"),
            (frozenset({"g1", "gY", "gX"}), r"^bidder 1 bids on undeclared goods \['gX', 'gY'\]$"),
            (frozenset(), "^bidder 1 bids on an empty bundle$"),
        ],
    )
    def test_bundle_faults_are_reported_before_the_value(self, bundle, message):
        # A bid with several faults reports the first in the order the bid is
        # checked: an empty bundle, then undeclared goods, then the value.
        with pytest.raises(ValueError, match=message):
            AuctionInstance(("g1",), (Bidder(1, (Bid(bundle, math.nan),)),))

    def test_negative_llg_bid(self):
        with pytest.raises(ValueError):
            LlgBidProfile(-0.1, 0.5, 1.0)

    def test_llg_bid_sum_must_be_finite(self):
        with pytest.raises(ValueError, match="finite sum"):
            LlgBidProfile(1e308, 1e308, 1.5e308)
        LlgBidProfile(0.4e308, 0.4e308, 0.8e308)

    def test_largest_bids_must_have_a_finite_sum(self):
        # The bidders' other bids, and bids on clashing goods, count only by
        # their largest one: 1.1e308 + 0.6e308 is finite, 1.1e308 + 1.1e308 is not.
        low = (Bid(G1, 0.1), Bid(G1, 1.1e308))
        AuctionInstance(("g1",), (Bidder(1, low), Bidder(2, (Bid(G1, 0.6e308),))))
        with pytest.raises(ValueError, match="largest bids must have a finite sum"):
            AuctionInstance(("g1",), (Bidder(1, low), Bidder(2, (Bid(G1, 1.1e308),))))

    def test_first_faulty_bidder_is_reported(self):
        bidders = (
            Bidder(1, (Bid(G1, 0.5),)),
            Bidder(2, (Bid(G1, -0.1),)),
            Bidder(3, (Bid(frozenset(), 0.5),)),
        )
        with pytest.raises(ValueError, match="^bidder 2 has a bid value"):
            AuctionInstance(("g1",), bidders)

    def test_bad_bid_reported_before_overflowing_sum(self):
        # Bidders 1 and 2 alone overflow the largest-bid sum; bidder 3's bid
        # is reported all the same.
        bidders = (
            Bidder(1, (Bid(G1, 1.1e308),)),
            Bidder(2, (Bid(G1, 1.1e308),)),
            Bidder(3, (Bid(frozenset({"gX"}), 0.5),)),
        )
        with pytest.raises(ValueError, match=r"^bidder 3 bids on undeclared goods \['gX'\]$"):
            AuctionInstance(("g1",), bidders)


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
    assert realized_welfare(instance, coalition) <= coalitional_value(
        instance, coalition
    ) + 1e-12


@settings(max_examples=60, deadline=None)
@given(instance=instances())
def test_welfare_equals_grand_coalition_value(instance):
    allocation = winner_determination(instance)
    # Both walks trace the grand coalition with the same tie rule, so the
    # welfare is the same float.
    assert allocation.welfare == coalitional_value(instance, instance.bidder_ids())


@settings(max_examples=60, deadline=None)
@given(instance=instances())
def test_allocation_feasible_and_welfare_consistent(instance):
    # The sizes are stored at construction, and a replaced instance gets its own.
    assert (instance.n, instance.m) == (len(instance.bidders), len(instance.goods))
    assert dataclasses.replace(instance, bidders=instance.bidders[:-1]).n == instance.n - 1
    allocation = winner_determination(instance)
    used: set[str] = set()
    total = 0.0
    for bidder_id, bundle in allocation.assignment.items():
        assert not (used & bundle)
        used |= bundle
        total += instance.bid_value(bidder_id, bundle)
    assert allocation.welfare == pytest.approx(total, abs=1e-12)
