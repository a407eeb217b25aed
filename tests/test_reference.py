import random
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coreselect.reference
from coreselect import (
    AuctionInstance,
    Bid,
    Bidder,
    LlgBidProfile,
    SizeLimitError,
    auctioneer_payoff,
    closed_form_reference,
    coalitional_value,
    core_violations,
    first_price,
    llg_instance,
    project_to_mrc,
    reference_point,
    shapley_payments,
    shapley_payoffs,
    shapley_payoffs_by_enumeration,
    vcg,
    winner_determination,
)
from coreselect.reference import ReferenceRule, auctioneer_payoff_by_enumeration
from coreselect.verify import random_instance
from helpers import instances, seeded_instance, sequential_sum, vcg_cancellation_instance

TOL = 1e-9


def approx_vector(values, expected, tol=TOL):
    assert len(values) == len(expected)
    for got, want in zip(values, expected):
        assert got == pytest.approx(want, abs=tol)


class TestFirstPrice:
    def test_locals_win(self):
        approx_vector(first_price(llg_instance(0.4, 0.5, 0.8)), (0.4, 0.5, 0.0))

    def test_global_wins(self):
        approx_vector(first_price(llg_instance(0.2, 0.3, 0.9)), (0.0, 0.0, 0.9))

    def test_zero_bids(self):
        approx_vector(first_price(llg_instance(0.0, 0.0, 0.0)), (0.0, 0.0, 0.0))

    def test_builds_no_coalition_table(self):
        instance = llg_instance(0.4, 0.5, 0.8)
        first_price(instance)
        assert "coalition_values" not in vars(instance)


class TestVcg:
    def test_locals_weak(self):
        approx_vector(vcg(llg_instance(0.4, 0.5, 0.8)), (0.3, 0.4, 0.0))

    def test_global_wins(self):
        approx_vector(vcg(llg_instance(0.2, 0.3, 0.9)), (0.0, 0.0, 0.5))

    def test_local_1_strong(self):
        approx_vector(vcg(llg_instance(1.2, 0.3, 0.8)), (0.5, 0.0, 0.0))

    def test_losers_pay_nothing(self):
        # Exactly nothing: the others' values and the coalition table's
        # welfare without the loser are the same sums, added in the same order.
        rng = random.Random(3)
        for _ in range(1000):
            instance = random_instance(rng, max_bidders=8)
            allocation = winner_determination(instance)
            for bidder_id, payment in zip(instance.bidder_ids(), vcg(instance)):
                if not allocation.bundle_for(bidder_id):
                    assert payment == 0.0, (instance, bidder_id)

    def test_equals_the_single_payer_core_bound(self):
        # Bidder i's payment is the bound of the blocking coalition of everyone
        # else, bit for bit, so no single-payer constraint is missed at VCG.
        rng = random.Random(5)
        drawn = [random_instance(rng, max_bidders=8) for _ in range(1000)]
        for instance in drawn + [seeded_instance(n, n) for n in range(1, 13)]:
            full = (1 << instance.n) - 1
            realized = instance.realized
            payments = vcg(instance)
            for i, payment in enumerate(payments):
                others = realized[:i] + realized[i + 1 :]
                bound = instance.coalition_values[full ^ 1 << i] - sequential_sum(others)
                assert payment.hex() == bound.hex(), (instance, i)
            for violation in core_violations(instance, payments):
                constraint = violation.constraint
                assert constraint.kind != "coalition" or len(constraint.payers) > 1, violation

    def test_loser_whose_entry_cancels_only_term_by_term(self):
        instance = vcg_cancellation_instance()
        assert winner_determination(instance).bundle_for(3) == frozenset()
        assert vcg(instance)[2] == 0.0


class TestShapleyPayoffs:
    def test_without_auctioneer(self):
        payoffs = shapley_payoffs(llg_instance(0.4, 0.5, 0.8))
        approx_vector(
            payoffs,
            (5 * 0.4 / 6 + 0.5 / 3 - 0.8 / 3, 0.4 / 3 + 5 * 0.5 / 6 - 0.8 / 3, 0.3833333333333333),
        )

    def test_with_auctioneer(self):
        payoffs = shapley_payoffs(llg_instance(0.4, 0.5, 0.8), with_auctioneer=True)
        assert payoffs[0] == pytest.approx(5 * 0.4 / 12 + 0.5 / 4 - 0.8 / 4, abs=TOL)

    def test_single_bidder(self):
        instance = AuctionInstance(("g1",), (Bidder(1, (Bid(frozenset({"g1"}), 0.7),)),))
        approx_vector(shapley_payoffs(instance), (0.7,))

    def test_dummy_bidder_gets_nothing(self):
        instance = AuctionInstance(
            ("g1",),
            (Bidder(1, (Bid(frozenset({"g1"}), 0.7),)), Bidder(2, ())),
        )
        for with_auctioneer in (False, True):
            assert shapley_payoffs(instance, with_auctioneer)[1] == pytest.approx(
                0.0, abs=TOL
            )


class TestNullBidderAtFullSize:
    """Appending a bidder with no bids leaves everyone's price as it was (ROADMAP item 6)."""

    @pytest.mark.parametrize("n", range(12))
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_appended_bidder_without_bids(self, n, seed):
        instance = seeded_instance(n, seed)
        # The new bidder is the highest, so the coalition table relaxes each
        # of its coalitions in place, with no rows.
        extended = AuctionInstance(instance.goods, (*instance.bidders, Bidder(n + 1, ())))
        for rule in (first_price, vcg):
            assert [p.hex() for p in rule(extended)] == [p.hex() for p in (*rule(instance), 0.0)]
        # Null-player axiom: the new bidder gets nothing and the others keep
        # their payoffs, up to rounding.
        for with_auctioneer in (False, True):
            approx_vector(
                shapley_payoffs(extended, with_auctioneer),
                (*shapley_payoffs(instance, with_auctioneer), 0.0),
            )


class TestShapleyPayments:
    def test_without_auctioneer(self):
        payments = shapley_payments(llg_instance(0.4, 0.5, 0.8))
        approx_vector(
            payments,
            (0.4 / 6 - 0.5 / 3 + 0.8 / 3, -0.4 / 3 + 0.5 / 6 + 0.8 / 3, -0.3833333333333333),
        )

    def test_with_auctioneer(self):
        payments = shapley_payments(llg_instance(0.4, 0.5, 0.8), with_auctioneer=True)
        assert payments[0] == pytest.approx(7 * 0.4 / 12 - 0.5 / 4 + 0.8 / 4, abs=TOL)

    def test_locals_strong(self):
        payments = shapley_payments(llg_instance(1.2, 1.1, 0.8))
        approx_vector(payments, (0.8 / 6, 0.8 / 6, -0.8 / 3))


class TestAxioms:
    @settings(max_examples=60, deadline=None)
    @given(instance=instances())
    def test_efficiency_without_auctioneer(self, instance):
        payoffs = shapley_payoffs(instance)
        assert sum(payoffs) == pytest.approx(
            coalitional_value(instance, instance.bidder_ids()), abs=TOL
        )

    @settings(max_examples=60, deadline=None)
    @given(instance=instances())
    def test_efficiency_with_auctioneer(self, instance):
        payoffs = shapley_payoffs(instance, with_auctioneer=True)
        assert sum(payoffs) + auctioneer_payoff(instance) == pytest.approx(
            coalitional_value(instance, instance.bidder_ids()), abs=TOL
        )

    @settings(max_examples=30, deadline=None)
    @given(instance=instances(max_bidders=4))
    def test_permutation_oracle(self, instance):
        for with_auctioneer in (False, True):
            fast = shapley_payoffs(instance, with_auctioneer)
            slow = shapley_payoffs_by_enumeration(instance, with_auctioneer)
            approx_vector(fast, slow)
        assert auctioneer_payoff(instance) == pytest.approx(
            auctioneer_payoff_by_enumeration(instance), abs=TOL
        )

    def test_permutation_oracle_size_cap(self):
        bidders = tuple(Bidder(i, ()) for i in range(1, 8))
        instance = AuctionInstance(("g1",), bidders)
        with pytest.raises(SizeLimitError):
            shapley_payoffs_by_enumeration(instance)

    def test_llg_swap_symmetry(self):
        rng = random.Random(11)
        for _ in range(30):
            a, b, g = rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0.2, 1.5)
            for rule in ReferenceRule:
                direct = reference_point(llg_instance(a, b, g), rule)
                swapped = reference_point(llg_instance(b, a, g), rule)
                assert direct[0] == pytest.approx(swapped[1], abs=TOL)
                assert direct[1] == pytest.approx(swapped[0], abs=TOL)
                assert direct[2] == pytest.approx(swapped[2], abs=TOL)


class TestDispatch:
    def test_kinds(self):
        instance = llg_instance(0.4, 0.5, 0.8)
        payoff_rules = {rule for rule in ReferenceRule if rule.is_payoff}
        assert payoff_rules == {
            ReferenceRule.SHAPLEY_PAYOFF_NO_AUCTIONEER,
            ReferenceRule.SHAPLEY_PAYOFF_WITH_AUCTIONEER,
        }
        for rule in payoff_rules:
            assert reference_point(instance, rule) == shapley_payoffs(
                instance, rule.with_auctioneer
            )

    def test_matches_direct_functions(self):
        instance = llg_instance(0.9, 1.3, 1.0)
        approx_vector(
            reference_point(instance, ReferenceRule.SHAPLEY_PAYMENT_NO_AUCTIONEER),
            shapley_payments(instance),
        )
        approx_vector(
            reference_point(instance, ReferenceRule.SHAPLEY_PAYOFF_WITH_AUCTIONEER),
            shapley_payoffs(instance, with_auctioneer=True),
        )


class TestTupleContract:
    """Every payment or payoff vector is a plain tuple, one entry per bidder."""

    def test_every_vector_is_a_tuple(self):
        for profile in (LlgBidProfile(0.4, 0.5, 0.8), LlgBidProfile(0.2, 0.3, 0.9)):
            instance = profile.to_instance()
            for rule in ReferenceRule:
                point = reference_point(instance, rule)
                assert type(point) is tuple and len(point) == 3
                projected = project_to_mrc(profile, point)
                assert type(projected) is tuple and len(projected) == 3
                if profile.locals_win():
                    closed = closed_form_reference(profile, rule)
                    assert type(closed) is tuple and len(closed) == 2
            for with_auctioneer in (False, True):
                slow = shapley_payoffs_by_enumeration(instance, with_auctioneer)
                assert type(slow) is tuple and len(slow) == 3


def shapley_payoffs_one_variant(instance, with_auctioneer):
    """One variant's subset-weighted payoffs, one pass per variant: the cache's oracle."""
    n = instance.n
    table = instance.coalition_values
    if with_auctioneer:
        weights = [factorial(s + 1) * factorial(n - s - 1) / factorial(n + 1) for s in range(n)]
    else:
        weights = [factorial(s) * factorial(n - s - 1) / factorial(n) for s in range(n)]
    payoffs = []
    for i in range(n):
        bit = 1 << i
        total = 0.0
        for mask in range(1 << n):
            if mask & bit:
                continue
            total += weights[mask.bit_count()] * (table[mask | bit] - table[mask])
        payoffs.append(total)
    return tuple(payoffs)


def auctioneer_payoff_per_mask(instance):
    """The auctioneer's subset-weighted payoff with its weight computed per mask."""
    n = instance.n
    table = instance.coalition_values
    total = 0.0
    for mask in range(1 << n):
        s = mask.bit_count()
        total += factorial(s) * factorial(n - s) / factorial(n + 1) * table[mask]
    return total


def payoffs_by_own_walk(instance, with_auctioneer):
    """Arrival-order payoffs from a walk over the n bidders, or the n + 1 players."""
    n = instance.n
    table = instance.coalition_values
    totals = [0.0] * n
    players = n + 1 if with_auctioneer else n
    for order in permutations(range(players)):
        mask = 0
        arrived = not with_auctioneer
        for i in order:
            if i == n:
                arrived = True
                continue
            if arrived:
                totals[i] += table[mask | (1 << i)] - table[mask]
            mask |= 1 << i
    return tuple(total / factorial(players) for total in totals)


def auctioneer_payoff_by_own_walk(instance):
    """The auctioneer's arrival-order average from a walk that stops at her arrival."""
    n = instance.n
    table = instance.coalition_values
    total = 0.0
    for order in permutations(range(n + 1)):
        mask = 0
        for i in order:
            if i == n:
                total += table[mask]
                break
            mask |= 1 << i
    return total / factorial(n + 1)


def bits(values):
    return [x.hex() for x in values]


class TestShapleyCache:
    @settings(max_examples=60, deadline=None)
    @given(instance=instances(max_bidders=6, max_goods=4))
    def test_both_variants_equal_per_variant_passes(self, instance):
        for with_auctioneer in (False, True):
            expected = shapley_payoffs_one_variant(instance, with_auctioneer)
            cached = instance.shapley_values[1 if with_auctioneer else 0]
            assert cached == expected
            assert bits(cached) == bits(expected)
            assert shapley_payoffs(instance, with_auctioneer) == expected
            assert bits(shapley_payoffs_by_enumeration(instance, with_auctioneer)) == bits(
                payoffs_by_own_walk(instance, with_auctioneer)
            )
        assert auctioneer_payoff(instance).hex() == auctioneer_payoff_per_mask(instance).hex()
        assert (
            auctioneer_payoff_by_enumeration(instance).hex()
            == auctioneer_payoff_by_own_walk(instance).hex()
        )

    def test_repeated_calls_equal_fresh_instances(self):
        rng = random.Random(8)
        for _ in range(20):
            instance = random_instance(rng)

            def fresh():
                return AuctionInstance(instance.goods, instance.bidders)

            for with_auctioneer in (False, True):
                expected_payoffs = shapley_payoffs(fresh(), with_auctioneer)
                expected_payments = shapley_payments(fresh(), with_auctioneer)
                for _ in range(3):
                    assert shapley_payoffs(instance, with_auctioneer) == expected_payoffs
                    assert shapley_payments(instance, with_auctioneer) == expected_payments


class TestDispatchTraceable:
    """reference_point calls the rules through their module names, so wrappers see the calls."""

    def test_reaches_patched_rules(self, monkeypatch):
        calls = []

        def sentinel(name):
            def rule(instance, *args):
                calls.append((name, args))
                return name

            return rule

        for name in ("first_price", "vcg", "shapley_payoffs", "shapley_payments"):
            monkeypatch.setattr(coreselect.reference, name, sentinel(name))
        instance = llg_instance(0.4, 0.5, 0.8)
        got = [reference_point(instance, rule) for rule in ReferenceRule]
        assert got == [name for name, _ in calls]
        assert calls == [
            ("first_price", ()),
            ("vcg", ()),
            ("shapley_payments", (False,)),
            ("shapley_payoffs", (False,)),
            ("shapley_payments", (True,)),
            ("shapley_payoffs", (True,)),
        ]


class TestSolvedOnce:
    @settings(max_examples=60, deadline=None)
    @given(instance=instances())
    def test_cached_results_equal_fresh_solve(self, instance):
        def fresh():
            return AuctionInstance(instance.goods, instance.bidders)

        expected = {}
        for rule in ReferenceRule:
            point = reference_point(fresh(), rule)
            expected[rule] = (point, core_violations(fresh(), point))
        for _ in range(2):
            for rule in ReferenceRule:
                point = reference_point(instance, rule)
                assert (point, core_violations(instance, point)) == expected[rule]
        cached = (
            "allocation", "realized", "coalition_values", "lost_welfare", "shapley_values", "options"
        )
        assert all(name in vars(instance) for name in cached)
        assert instance == fresh()
        assert hash(instance) == hash(fresh())
        assert repr(instance) == repr(fresh())
