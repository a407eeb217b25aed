import functools
import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coreselect import (
    AuctionInstance,
    Bid,
    Bidder,
    BoundaryProximityError,
    CaseLabel,
    CoreConstraint,
    CoreViolation,
    GlobalWinnerError,
    LlgBidProfile,
    core_violations,
    first_price,
    llg_instance,
    llg_segment_ends,
    numeric_derivative,
    project_to_mrc,
    projection_derivative,
    reference_point,
    sample_llg_profile,
    shapley_payments,
    vcg,
)
from coreselect.reference import ReferenceRule
from coreselect.verify import random_instance
from helpers import (
    bounded_floats,
    coarse_grid_instance,
    core_constraints,
    core_tolerance,
    general_auction_instance,
    instances,
    llg_profiles,
    scalable_floats,
    seeded_instance,
    sequential_sum,
    slack,
    twelve_bidder_instance,
    twelve_bidder_payments,
)


def constraint_for(constraints, kind, coalition):
    matches = [c for c in constraints if c.kind == kind and c.coalition == frozenset(coalition)]
    assert len(matches) == 1
    return matches[0]


class TestCoreConstraints:
    def test_blocking_bounds(self):
        constraints = core_constraints(llg_instance(0.4, 0.5, 0.8))
        assert constraint_for(constraints, "coalition", {3}).bound == pytest.approx(0.8)
        global_only = constraint_for(constraints, "coalition", {2, 3})
        assert global_only.bound == pytest.approx(0.3)
        assert global_only.payers == frozenset({1})

    def test_empty_coalition_vacuous(self):
        constraints = core_constraints(llg_instance(0.4, 0.5, 0.8))
        empty = constraint_for(constraints, "coalition", set())
        assert empty.bound == pytest.approx(0.0)
        assert empty.payers == frozenset({1, 2, 3})

    def test_counts(self):
        constraints = core_constraints(llg_instance(0.4, 0.5, 0.8))
        assert sum(1 for c in constraints if c.kind == "coalition") == 7
        assert sum(1 for c in constraints if c.kind == "ir") == 3
        assert sum(1 for c in constraints if c.kind == "nonneg") == 3

    def test_ir_bounds_are_accepted_bids(self):
        constraints = core_constraints(llg_instance(0.4, 0.5, 0.8))
        assert constraint_for(constraints, "ir", {1}).bound == pytest.approx(0.4)
        assert constraint_for(constraints, "ir", {3}).bound == pytest.approx(0.0)


class TestCoreMembership:
    def test_point_in_core(self):
        assert core_violations(llg_instance(0.4, 0.5, 0.8), (0.35, 0.45, 0.0)) == []

    def test_vcg_outside_core(self):
        violations = core_violations(llg_instance(0.4, 0.5, 0.8), vcg(llg_instance(0.4, 0.5, 0.8)))
        assert len(violations) == 1
        violation = violations[0]
        assert violation.constraint.kind == "coalition"
        assert violation.constraint.coalition == frozenset({3})
        assert violation.slack == pytest.approx(-0.1)

    def test_first_price_always_in_core(self):
        rng = random.Random(5)
        for case in CaseLabel:
            for _ in range(25):
                profile = sample_llg_profile(rng, case)
                instance = profile.to_instance()
                assert not core_violations(instance, first_price(instance))

    def test_tolerance_scales_with_the_largest_bid(self):
        # Missing bidder 1's cap by 5e-10 is within 1e-9 times a largest bid
        # of 0.8, but not of one of 0.08.
        assert core_violations(llg_instance(0.4, 0.5, 0.8), (0.4 + 5e-10, 0.4, 0.0)) == []
        instance = llg_instance(0.04, 0.05, 0.08)
        (violation,) = core_violations(instance, (0.04 + 5e-10, 0.04, 0.0))
        assert violation.constraint.kind == "ir"

    def test_no_positive_bid_means_zero_tolerance(self):
        violations = core_violations(llg_instance(0.0, 0.0, 0.0), (-1e-110, 0.0, 0.0))
        assert ("nonneg", frozenset({1})) in [
            (v.constraint.kind, v.constraint.coalition) for v in violations
        ]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            core_violations(llg_instance(0.4, 0.5, 0.8), (0.1, 0.2))

    @pytest.mark.parametrize(
        "payments, bidder",
        [
            ((math.nan, math.nan, 0.0), 1),
            ((0.35, math.nan, 0.0), 2),
            ((math.inf, 0.0, 0.0), 1),
            ((0.35, 0.45, -math.inf), 3),
        ],
    )
    def test_non_finite_payments_rejected(self, payments, bidder):
        # NaN fails every slack comparison, so unchecked it would read as in the core.
        instance = llg_instance(0.4, 0.5, 0.8)
        with pytest.raises(ValueError, match=f"bidder {bidder} must be finite"):
            core_violations(instance, payments)


def violation_bits(violations):
    """Kind, coalition, payers in iteration order, and the float bits of bound and slack."""
    return [
        (
            v.constraint.kind,
            v.constraint.coalition,
            tuple(v.constraint.payers),
            v.constraint.bound.hex(),
            v.slack.hex(),
        )
        for v in violations
    ]


def constraint_path(instance, payments):
    """The oracle for core_violations: each violated ``helpers.core_constraints``, with its slack."""
    tol = core_tolerance(instance)
    return [
        CoreViolation(c, slack(c, payments))
        for c in core_constraints(instance)
        if slack(c, payments) < -tol
    ]


class TestViolationsMatchConstraints:
    """``core_violations`` equals the oracle's check in ``tests/helpers.py``, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), instance=instances(max_bidders=12, max_goods=4))
    def test_random_instances(self, data, instance):
        payments = data.draw(
            st.lists(bounded_floats(0.0, 5.0), min_size=instance.n, max_size=instance.n)
        )
        expected = constraint_path(instance, payments)
        found = core_violations(instance, payments)
        assert found == expected
        assert violation_bits(found) == violation_bits(expected)

    def test_twelve_bidders_with_unordered_payer_sets(self):
        instance = twelve_bidder_instance()
        payments = twelve_bidder_payments()
        expected = constraint_path(instance, payments)
        found = core_violations(instance, payments)
        assert found == expected
        assert violation_bits(found) == violation_bits(expected)
        # The check is only as strong as its sums are order sensitive: some
        # violated payer sets iterate out of id order, and for some of them
        # adding in that iteration order gives a different slack.
        unordered = [
            v for v in found if v.constraint.kind == "coalition"
            and list(v.constraint.payers) != sorted(v.constraint.payers)
        ]
        assert any(
            sequential_sum(payments[i - 1] for i in v.constraint.payers) - v.constraint.bound
            != v.slack
            for v in unordered
        )

    def test_violations_iterate_like_the_oracle(self):
        instance = twelve_bidder_instance()
        oracle = {(c.kind, c.coalition): c for c in core_constraints(instance)}
        found = core_violations(instance, twelve_bidder_payments())
        assert any(v.constraint.kind == "coalition" for v in found)
        for violation in found:
            constraint = violation.constraint
            expected = oracle[constraint.kind, constraint.coalition]
            assert tuple(constraint.coalition) == tuple(expected.coalition)
            assert tuple(constraint.payers) == tuple(expected.payers)


class TestSummationOrder:
    """Each coalition's bound and slack add their terms one at a time in ascending id order."""

    @pytest.mark.parametrize("n", range(13))
    def test_every_coalition_adds_in_id_order(self, n):
        instance = seeded_instance(n, n)
        # Negative payments miss every coalition condition, so each is returned.
        rng = random.Random(100 + n)
        payments = [-rng.uniform(0.1, 1.0) for _ in range(n)]
        found = [v for v in core_violations(instance, payments) if v.constraint.kind == "coalition"]
        assert len(found) == 2**n - 1
        for violation in found:
            constraint = violation.constraint
            mask = sum(1 << (i - 1) for i in constraint.coalition)
            accepted = sequential_sum(instance.realized[i - 1] for i in sorted(constraint.coalition))
            bound = instance.coalition_values[mask] - accepted
            paid = sequential_sum(payments[i - 1] for i in sorted(constraint.payers))
            assert constraint.bound.hex() == bound.hex()
            assert violation.slack.hex() == (paid - bound).hex()


# sha256 of ``engine_bits()``: every float it prints, on CPython 3.10 to 3.13 alike.
ENGINE_BITS_SHA256 = "318df951437e0a8d9496d9e0e0c1604dbf3ef384581d90d72ead8e23bacf7748"


def engine_bits() -> str:
    """The engine's output bits, one line per vector or violation.

    ``float.hex`` of each rule's vector and of every core violation on 3,000
    seeded ``random_instance`` draws of up to 8 bidders, with payments
    uniform in [0, 0.5], then of ``project_to_mrc`` from every rule's vector
    on 400 seeded LLG profiles per case.
    """
    lines = []
    rng = random.Random(31)
    for _ in range(3000):
        instance = random_instance(rng, max_bidders=8)
        for rule in ReferenceRule:
            lines.append(" ".join(x.hex() for x in reference_point(instance, rule)))
        payments = [rng.uniform(0.0, 0.5) for _ in range(instance.n)]
        for v in core_violations(instance, payments):
            c = v.constraint
            lines.append(f"{c.kind} {sorted(c.coalition)} {c.bound.hex()} {v.slack.hex()}")
    for case in CaseLabel:
        for _ in range(400):
            profile = sample_llg_profile(rng, case)
            instance = profile.to_instance()
            for rule in ReferenceRule:
                projected = project_to_mrc(profile, reference_point(instance, rule))
                lines.append(" ".join(x.hex() for x in projected))
    return "\n".join(lines) + "\n"


class TestSameBitsOnEveryInterpreter:
    def test_engine_bits_digest(self):
        # Since CPython 3.12 ``sum()`` compensates its rounding, so a library
        # sum written with it prints different bits there than on 3.10 and 3.11.
        digest = hashlib.sha256(engine_bits().encode("ascii")).hexdigest()
        assert digest == ENGINE_BITS_SHA256


class TestNearFloatMax:
    @pytest.mark.parametrize("rule", list(ReferenceRule))
    def test_projection_scales_by_a_power_of_two(self, rule):
        # Scaling by 2**k changes no rounding, so a profile whose bid sum,
        # 1.7 * 2**1023, is finite but near the float maximum projects
        # exactly like (0.4, 0.5, 0.8).
        scale = 2.0**1023
        small = LlgBidProfile(0.4, 0.5, 0.8)
        large = LlgBidProfile(0.4 * scale, 0.5 * scale, 0.8 * scale)
        expected = project_to_mrc(small, reference_point(small.to_instance(), rule))
        found = project_to_mrc(large, reference_point(large.to_instance(), rule))
        assert found == tuple(value * scale for value in expected)


def scaled_violations(violations, factor):
    """The violations with every bound and slack multiplied by ``factor``."""
    return [
        CoreViolation(
            CoreConstraint(c.kind, c.coalition, c.payers, c.bound * factor), v.slack * factor
        )
        for v in violations
        for c in [v.constraint]
    ]


def scaled_instance(instance, factor):
    """The instance with every bid multiplied by ``factor``."""
    return AuctionInstance(
        instance.goods,
        tuple(
            Bidder(bidder.id, tuple(Bid(bid.bundle, bid.value * factor) for bid in bidder.bids))
            for bidder in instance.bidders
        ),
    )


# The engine at full size: 12 bidders on 8 goods, with exact ties on the coarse grid.
TWELVE_BIDDER_INSTANCES = {
    **{f"seeded {seed}": functools.partial(seeded_instance, 12, seed) for seed in range(3)},
    "general auction": general_auction_instance,
    "twelve bidders": twelve_bidder_instance,
    "coarse grid": coarse_grid_instance,
}


def numeric_outcome(profile, rule):
    """``numeric_derivative`` as float bits, or the error it raises."""
    try:
        return numeric_derivative(profile, rule).hex()
    except (BoundaryProximityError, GlobalWinnerError) as exc:
        return type(exc)


class TestPowerOfTwoScaling:
    """Scaling every bid and payment by 2**k changes no rounding, and every
    tolerance scales with the bids, so each output scales bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        instance=instances(max_bidders=6, floats=scalable_floats),
        k=st.integers(-30, 40),
    )
    def test_random_instances(self, data, instance, k):
        payments = data.draw(
            st.lists(scalable_floats(0.0, 5.0), min_size=instance.n, max_size=instance.n)
        )
        factor = 2.0**k
        scaled = scaled_instance(instance, factor)
        found = core_violations(scaled, [paid * factor for paid in payments])
        expected = scaled_violations(core_violations(instance, payments), factor)
        assert violation_bits(found) == violation_bits(expected)

    @pytest.mark.parametrize("k", [-200, 200])
    @pytest.mark.parametrize("name", TWELVE_BIDDER_INSTANCES)
    def test_twelve_bidders(self, name, k):
        # The table, the allocation and all six rules' vectors, in float bits.
        def outputs(instance, factor):
            allocation = instance.allocation
            vectors = [
                instance.coalition_values,
                (allocation.welfare,),
                *(reference_point(instance, rule) for rule in ReferenceRule),
            ]
            return allocation.assignment, [[(x * factor).hex() for x in v] for v in vectors]

        instance = TWELVE_BIDDER_INSTANCES[name]()
        factor = 2.0**k
        assert outputs(scaled_instance(instance, factor), 1.0) == outputs(instance, factor)

    @settings(max_examples=40, deadline=None)
    @given(profile=llg_profiles(floats=scalable_floats), k=st.integers(-30, 40))
    # At g = 1e9 the lower-pinned payment g - (g - b) misses bidder 2's cap
    # by 6e-8; at 2**-30 that scale, by 6e-17.
    @example(profile=LlgBidProfile(833538891.5573088, 438430732.561387, 1e9), k=-30)
    def test_projected_llg_profiles(self, profile, k):
        factor = 2.0**k
        scaled = LlgBidProfile(profile.a * factor, profile.b * factor, profile.g * factor)
        instance, scaled_instance = profile.to_instance(), scaled.to_instance()
        for rule in ReferenceRule:
            projected = project_to_mrc(profile, reference_point(instance, rule))
            scaled_projected = project_to_mrc(scaled, reference_point(scaled_instance, rule))
            assert [x.hex() for x in scaled_projected] == [(x * factor).hex() for x in projected]
            found = core_violations(scaled_instance, scaled_projected)
            expected = scaled_violations(core_violations(instance, projected), factor)
            assert violation_bits(found) == violation_bits(expected)
            assert numeric_outcome(scaled, rule) == numeric_outcome(profile, rule)
            if profile.locals_win():
                assert projection_derivative(scaled, rule) is projection_derivative(profile, rule)


class TestPaymentSequences:
    def test_list_and_tuple_give_equal_violations(self):
        instance = twelve_bidder_instance()
        payments = twelve_bidder_payments()
        found = core_violations(instance, tuple(payments))
        assert found
        assert core_violations(instance, list(payments)) == found


class TestMrcSegment:
    def test_locals_weak(self):
        assert LlgBidProfile(0.4, 0.5, 0.8).locals_win()
        p1_min, p1_max = llg_segment_ends(0.4, 0.5, 0.8)
        assert p1_min == pytest.approx(0.3)
        assert p1_max == pytest.approx(0.4)

    def test_locals_strong(self):
        assert LlgBidProfile(1.2, 1.1, 0.8).locals_win()
        p1_min, p1_max = llg_segment_ends(1.2, 1.1, 0.8)
        assert p1_min == 0.0
        assert p1_max == pytest.approx(0.8)

    def test_global_winner_invalid(self):
        assert not LlgBidProfile(0.2, 0.3, 0.9).locals_win()

    @settings(max_examples=100, deadline=None)
    @given(profile=llg_profiles())
    def test_segment_ordered_when_valid(self, profile):
        p1_min, p1_max = llg_segment_ends(profile.a, profile.b, profile.g)
        if profile.locals_win():
            assert p1_min <= p1_max + 1e-12


class TestProjection:
    def test_vcg_nearest(self):
        profile = LlgBidProfile(0.4, 0.5, 0.8)
        projected = project_to_mrc(profile, vcg(profile.to_instance()))
        assert projected == pytest.approx((0.35, 0.45, 0.0), abs=1e-12)

    def test_shapley_nearest(self):
        profile = LlgBidProfile(0.4, 0.5, 0.8)
        projected = project_to_mrc(profile, shapley_payments(profile.to_instance()))
        assert projected == pytest.approx((0.375, 0.425, 0.0), abs=1e-12)

    def test_clamped_to_bid_cap(self):
        profile = LlgBidProfile(0.2, 1.0, 0.8)
        projected = project_to_mrc(profile, shapley_payments(profile.to_instance()))
        assert projected == pytest.approx((0.2, 0.6, 0.0), abs=1e-12)

    def test_global_winner_branch(self):
        projected = project_to_mrc(LlgBidProfile(0.2, 0.3, 0.9), (0.0, 0.0, 0.9))
        assert projected == pytest.approx((0.0, 0.0, 0.5), abs=1e-12)

    def test_metric_exponent_validated(self):
        for c in (1.0, 0.5, -math.inf, math.nan):
            with pytest.raises(ValueError):
                project_to_mrc(LlgBidProfile(0.4, 0.5, 0.8), (0.3, 0.4), c=c)

    @pytest.mark.parametrize(
        "reference", [(math.nan, 0.0), (math.inf, math.inf), (0.3, -math.inf), (0.3, 0.4, math.nan)]
    )
    def test_reference_must_be_finite(self, reference):
        with pytest.raises(ValueError, match="reference entry"):
            project_to_mrc(LlgBidProfile(0.4, 0.5, 0.8), reference)

    def test_reference_must_cover_both_locals(self):
        with pytest.raises(ValueError, match="^reference must cover the two local bidders$"):
            project_to_mrc(LlgBidProfile(0.4, 0.5, 0.8), (0.1,))

    def test_metric_independence(self):
        profile = LlgBidProfile(0.4, 0.5, 0.8)
        reference = (0.1, 0.7)
        baseline = project_to_mrc(profile, reference, c=2.0)
        # c = inf is the L_inf metric, a valid member of the family.
        for c in (1.5, 3.0, 8.0, math.inf):
            assert project_to_mrc(profile, reference, c=c) == baseline

    def test_first_price_projects_downward(self):
        rng = random.Random(9)
        for case in CaseLabel:
            for _ in range(25):
                profile = sample_llg_profile(rng, case)
                instance = profile.to_instance()
                projected = project_to_mrc(profile, first_price(instance))
                expected = min(
                    max(0.5 * (profile.g + profile.a - profile.b), max(0.0, profile.g - profile.b)),
                    min(profile.a, profile.g),
                )
                assert projected[0] == pytest.approx(expected, abs=1e-12)
                assert sum(projected) <= profile.a + profile.b + 1e-12

    @settings(max_examples=80, deadline=None)
    @given(profile=llg_profiles())
    def test_idempotent_and_revenue_exact(self, profile):
        if not profile.locals_win():
            return
        instance = profile.to_instance()
        projected = project_to_mrc(profile, vcg(instance))
        assert projected[0] + projected[1] == pytest.approx(profile.g, abs=1e-12)
        again = project_to_mrc(profile, projected)
        assert again == pytest.approx(projected, abs=1e-12)

    def test_outputs_in_core_all_rules(self):
        rng = random.Random(13)
        for case in CaseLabel:
            for _ in range(10):
                profile = sample_llg_profile(rng, case)
                instance = profile.to_instance()
                for rule in ReferenceRule:
                    projected = project_to_mrc(profile, reference_point(instance, rule))
                    assert core_violations(instance, projected) == []

    def test_shapley_payments_below_segment(self):
        rng = random.Random(17)
        for case in CaseLabel:
            for _ in range(50):
                profile = sample_llg_profile(rng, case)
                payments = shapley_payments(profile.to_instance())
                assert payments[0] + payments[1] <= profile.g + 1e-12
