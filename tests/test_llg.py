import importlib
import math
import operator
import pathlib
import pkgutil
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coreselect import (
    AuctionInstance,
    BoundaryProximityError,
    CaseLabel,
    GlobalWinnerError,
    LlgBidProfile,
    Region,
    classify_case,
    closed_form_for_case,
    closed_form_reference,
    llg_instance,
    numeric_derivative,
    projection_derivative,
    region_inequalities,
    region_map,
    region_map_to_csv,
    sample_llg_profile,
    sensitivity,
    sensitivity2,
    sensitivity_fraction,
)
import coreselect.llg
from coreselect.cli import render_region_map_svg
from coreselect.llg import (
    MAX_DRAWS,
    THRESHOLD_TABLE,
    _threshold_holds,
    check_threshold_table,
)
from coreselect.reference import ReferenceRule as R
from coreselect.reference import reference_point
from coreselect.verify import DERIVATIVE_TOLERANCE
from helpers import (
    WRITER_GRIDS,
    assert_same_text,
    hand_built_region_map,
    llg_exact_reference,
    llg_profiles,
    region_map_by_cell,
    region_map_to_csv_by_cell,
)

TOL = 1e-9
G1 = frozenset({"g1"})
G2 = frozenset({"g2"})


class TestClassify:
    @pytest.mark.parametrize(
        "profile,expected",
        [
            ((0.4, 0.5, 0.8), CaseLabel.LOCALS_WEAK),
            ((1.2, 0.3, 0.8), CaseLabel.LOCAL1_STRONG),
            ((0.3, 1.2, 0.8), CaseLabel.LOCAL2_STRONG),
            ((1.2, 1.1, 0.8), CaseLabel.LOCALS_STRONG),
            ((0.8, 0.8, 0.8), CaseLabel.LOCALS_WEAK),
            ((1.2, 0.8, 0.8), CaseLabel.LOCAL1_STRONG),
        ],
    )
    def test_examples(self, profile, expected):
        assert classify_case(LlgBidProfile(*profile)) is expected

    def test_swap_mirrors_cases(self):
        profile = LlgBidProfile(1.4, 0.2, 1.0)
        assert classify_case(profile) is CaseLabel.LOCAL1_STRONG
        assert classify_case(profile.swapped()) is CaseLabel.LOCAL2_STRONG


class TestClosedForms:
    def test_weak_shapley_payment(self):
        vector = closed_form_reference(
            LlgBidProfile(0.4, 0.5, 0.8), R.SHAPLEY_PAYMENT_NO_AUCTIONEER
        )
        p1, p2 = vector
        assert p1 == pytest.approx(0.4 / 6 - 0.5 / 3 + 0.8 / 3, abs=TOL)
        assert p2 == pytest.approx(-0.4 / 3 + 0.5 / 6 + 0.8 / 3, abs=TOL)

    def test_local1_strong_shapley_payment(self):
        p1, p2 = closed_form_reference(
            LlgBidProfile(1.2, 0.3, 0.8), R.SHAPLEY_PAYMENT_NO_AUCTIONEER
        )
        assert (p1, p2) == pytest.approx((0.3, 0.05), abs=TOL)

    def test_locals_strong_shapley_payoff(self):
        vector = closed_form_reference(
            LlgBidProfile(1.2, 1.1, 0.8), R.SHAPLEY_PAYOFF_NO_AUCTIONEER
        )
        assert vector == pytest.approx((1.2 - 0.8 / 6, 1.1 - 0.8 / 6), abs=TOL)

    def test_matches_engine_each_case(self):
        rng = random.Random(23)
        for case in CaseLabel:
            for _ in range(50):
                profile = sample_llg_profile(rng, case)
                instance = profile.to_instance()
                for rule in R:
                    closed = closed_form_reference(profile, rule)
                    engine = reference_point(instance, rule)
                    assert closed == pytest.approx(engine[:2], abs=TOL)

    def test_boundary_continuity_between_cases(self):
        rng = random.Random(29)
        adjacent = [
            (CaseLabel.LOCALS_WEAK, CaseLabel.LOCAL1_STRONG, lambda t: (1.0, t)),
            (CaseLabel.LOCALS_WEAK, CaseLabel.LOCAL2_STRONG, lambda t: (t, 1.0)),
            (CaseLabel.LOCAL1_STRONG, CaseLabel.LOCALS_STRONG, lambda t: (1.0 + t, 1.0)),
            (CaseLabel.LOCAL2_STRONG, CaseLabel.LOCALS_STRONG, lambda t: (1.0, 1.0 + t)),
        ]
        for case_a, case_b, point in adjacent:
            for _ in range(25):
                a, b = point(rng.uniform(0.0, 1.0))
                profile = LlgBidProfile(a, b, 1.0)
                for rule in R:
                    left = closed_form_for_case(case_a, profile, rule)
                    right = closed_form_for_case(case_b, profile, rule)
                    assert left == pytest.approx(right, abs=TOL)

    @settings(max_examples=100, deadline=None)
    @given(profile=llg_profiles(), scale=st.floats(0.1, 5.0, allow_nan=False))
    def test_homogeneous_of_degree_one(self, profile, scale):
        # Stay off the case boundaries, where rescaling can flip the strict
        # comparisons by a rounding error.
        assume(min(abs(profile.a - profile.g), abs(profile.b - profile.g)) > 1e-9)
        scaled = LlgBidProfile(scale * profile.a, scale * profile.b, scale * profile.g)
        assert classify_case(scaled) is classify_case(profile)
        for rule in R:
            base = closed_form_reference(profile, rule)
            grown = closed_form_reference(scaled, rule)
            assert grown[0] == pytest.approx(scale * base[0], rel=1e-9, abs=1e-9)
            assert grown[1] == pytest.approx(scale * base[1], rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("case", ["locals_weak", None, 0])
    def test_case_must_be_a_label(self, case):
        profile = LlgBidProfile(0.4, 0.5, 0.8)
        with pytest.raises(ValueError, match=rf"case must be a CaseLabel, got {case!r}"):
            closed_form_for_case(case, profile, R.VCG)


class TestSensitivity:
    @pytest.mark.parametrize(
        "case,rule,expected",
        [
            (CaseLabel.LOCALS_WEAK, R.SHAPLEY_PAYMENT_NO_AUCTIONEER, Fraction(1, 2)),
            (CaseLabel.LOCALS_WEAK, R.SHAPLEY_PAYOFF_WITH_AUCTIONEER, Fraction(1, 6)),
            (CaseLabel.LOCAL1_STRONG, R.VCG, Fraction(0)),
            (CaseLabel.LOCAL2_STRONG, R.SHAPLEY_PAYMENT_WITH_AUCTIONEER, Fraction(5, 6)),
            (CaseLabel.LOCALS_STRONG, R.SHAPLEY_PAYOFF_NO_AUCTIONEER, Fraction(1)),
        ],
    )
    def test_fractions(self, case, rule, expected):
        assert sensitivity_fraction(case, rule) == expected

    def test_float_view(self):
        assert sensitivity(LlgBidProfile(0.4, 0.5, 0.8), R.SHAPLEY_PAYMENT_NO_AUCTIONEER) == 0.5

    def test_second_local_by_symmetry(self):
        profile = LlgBidProfile(1.2, 0.3, 0.8)
        assert sensitivity(profile, R.VCG) == 0.0
        assert sensitivity2(profile, R.VCG) == 1.0

    def test_matches_finite_difference_of_forms(self):
        rng = random.Random(31)
        h = 1e-6
        for case in CaseLabel:
            for rule in R:
                profile = sample_llg_profile(rng, case)
                up = closed_form_for_case(
                    case, LlgBidProfile(profile.a + h, profile.b, profile.g), rule
                )
                down = closed_form_for_case(
                    case, LlgBidProfile(profile.a - h, profile.b, profile.g), rule
                )
                estimate = ((up[0] - down[0]) - (up[1] - down[1])) / (2 * h)
                assert estimate == pytest.approx(
                    float(sensitivity_fraction(case, rule)), abs=1e-6
                )

    @pytest.mark.parametrize("case", ["locals_weak", None, 0])
    def test_case_must_be_a_label(self, case):
        with pytest.raises(ValueError, match=rf"case must be a CaseLabel, got {case!r}"):
            sensitivity_fraction(case, R.VCG)


def _exact(value):
    """A form's output as a Fraction: Fraction arithmetic, or a float constant 0.0."""
    assert isinstance(value, Fraction) or value == 0.0, value
    return Fraction(value)


def _form(case, rule):
    """The case's (p1, p2) forms as ``closed_form_for_case`` evaluates them."""
    return lambda a, b, g: closed_form_for_case(case, LlgBidProfile(a, b, g), rule)


def _coefficients(form):
    """Per component, the coefficients of a, b and g of a form linear in (a, b, g)."""
    units = [form(*(Fraction(k == j) for k in range(3))) for j in range(3)]
    return tuple(tuple(_exact(unit[component]) for unit in units) for component in range(2))


# Adjacent cases and three points on the plane between them: two that span
# it, and one where the two cases meet.
_A_IS_G = ((1, 0, 1), (0, 1, 0))
_B_IS_G = ((0, 1, 1), (1, 0, 0))
ADJACENT_CASES = [
    (CaseLabel.LOCALS_WEAK, CaseLabel.LOCAL1_STRONG, (*_A_IS_G, (3, 1, 3))),
    (CaseLabel.LOCALS_WEAK, CaseLabel.LOCAL2_STRONG, (*_B_IS_G, (1, 3, 3))),
    (CaseLabel.LOCAL1_STRONG, CaseLabel.LOCALS_STRONG, (*_B_IS_G, (4, 3, 3))),
    (CaseLabel.LOCAL2_STRONG, CaseLabel.LOCALS_STRONG, (*_A_IS_G, (3, 4, 3))),
]


class TestExactTables:
    """``closed_form_for_case`` and ``sensitivity_fraction`` checked in exact rationals.

    Bidder 2's forms come from bidder 1's hand-entered forms by the mirror rule.
    """

    @pytest.mark.parametrize("case", list(CaseLabel))
    @pytest.mark.parametrize("rule", list(R))
    def test_forms_are_linear(self, case, rule):
        form = _form(case, rule)
        point = (Fraction(7, 5), Fraction(2, 3), Fraction(11, 13))
        expected = tuple(
            sum(c * x for c, x in zip(row, point)) for row in _coefficients(form)
        )
        assert tuple(_exact(p) for p in form(*point)) == expected

    @pytest.mark.parametrize("left,right,points", ADJACENT_CASES)
    @pytest.mark.parametrize("rule", list(R))
    def test_adjacent_cases_agree_on_their_boundary(self, left, right, points, rule):
        # The forms are linear, so agreeing on two points spanning the plane
        # means agreeing on all of it.
        for point in points:
            bids = [Fraction(x, 7) for x in point]
            assert _form(left, rule)(*bids) == _form(right, rule)(*bids), point

    @pytest.mark.parametrize("case", list(CaseLabel))
    @pytest.mark.parametrize("rule", list(R))
    def test_sensitivity_is_the_forms_slope(self, case, rule):
        (da1, _, _), (da2, _, _) = _coefficients(_form(case, rule))
        assert sensitivity_fraction(case, rule) == da1 - da2


# Each case at g = 1: the vertices, in order, of its closure within the bid
# box [0, 2]^2, and the directions in which the case runs on past the box.
CASE_POLYGONS = {
    CaseLabel.LOCALS_WEAK: (((1, 0), (1, 1), (0, 1)), ()),
    CaseLabel.LOCAL1_STRONG: (((1, 0), (2, 0), (2, 1), (1, 1)), ((1, 0),)),
    CaseLabel.LOCAL2_STRONG: (((0, 1), (1, 1), (1, 2), (0, 2)), ((0, 1),)),
    CaseLabel.LOCALS_STRONG: (((1, 1), (2, 1), (2, 2), (1, 2)), ((1, 0), (0, 1))),
}
ONE = Fraction(1)


def _vertices(case):
    return [(Fraction(a), Fraction(b)) for a, b in CASE_POLYGONS[case][0]]


def _derived_form(cell):
    """(alpha, beta, gamma): the cell's inequality is alpha a + beta b + gamma g > 0.

    Read off the case's closed forms p1 and p2: the first inequality is
    p1 - p2 + g - 2a > 0, the second p2 - p1 + g - 2b > 0.
    """
    (a1, b1, g1), (a2, b2, g2) = _coefficients(_form(cell.case, cell.rule))
    if cell.inequality == 1:
        return a1 - a2 - 2, b1 - b2, g1 - g2 + 1
    return a2 - a1, b2 - b1 - 2, g2 - g1 + 1


def _in_case(case, a, b):
    """Whether (a, b) at g = 1 is in the case and the bid box, ties counted as weak."""
    profile = LlgBidProfile(a, b, ONE)
    return a <= 2 and b <= 2 and profile.locals_win() and classify_case(profile) is case


def _cell_id(cell):
    return f"{cell.rule.value}-{cell.case.value}-{cell.inequality}"


EXACT_CELLS = [cell for cell in THRESHOLD_TABLE if cell.exact is not None]
NEVER_CELLS = [cell for cell in THRESHOLD_TABLE if cell.exact is None]
SIMPLIFIED_CELLS = [cell for cell in THRESHOLD_TABLE if cell.simplified is not None]


class TestExactThresholds:
    """``THRESHOLD_TABLE`` against the inequalities its closed forms give, in rationals at g = 1."""

    @pytest.mark.parametrize("cell", EXACT_CELLS, ids=_cell_id)
    def test_exact_cell_is_the_derived_inequality(self, cell):
        alpha, beta, gamma = _derived_form(cell)

        def derived(a, b):
            return alpha * a + beta * b + gamma

        vertices = _vertices(cell.case)
        # Where the line derived = 0 crosses the polygon's edges (or runs through a vertex).
        ends = set()
        for p, q in zip(vertices, vertices[1:] + vertices[:1]):
            if derived(*p) == 0:
                ends.add(p)
            elif derived(*p) * derived(*q) < 0:
                t = derived(*p) / (derived(*p) - derived(*q))
                ends.add((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        assert len(ends) == 2, ends
        (pa, pb), (qa, qb) = ends
        points = list(vertices)
        # A step off the line to either side, small enough to stay in the case.
        step = Fraction(1, 100)
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            a, b = pa + t * (qa - pa), pb + t * (qb - pb)
            assert derived(a, b) == 0 and _in_case(cell.case, a, b), (a, b)
            assert not cell.exact(a, b, ONE), (a, b)
            above, below = (a + step * alpha, b + step * beta), (a - step * alpha, b - step * beta)
            assert _in_case(cell.case, *above) and _in_case(cell.case, *below), (a, b)
            assert cell.exact(*above, ONE) and not cell.exact(*below, ONE), (a, b)
            points += [(a, b), above, below]
        for a, b in points:
            assert cell.exact(a, b, ONE) == (derived(a, b) > 0), (a, b)

    @pytest.mark.parametrize("cell", NEVER_CELLS, ids=_cell_id)
    def test_none_cell_never_holds_in_its_case(self, cell):
        # A linear form is at most 0 on the whole case if it is at its
        # vertices and does not grow along its directions.
        alpha, beta, gamma = _derived_form(cell)
        for a, b in _vertices(cell.case):
            assert alpha * a + beta * b + gamma <= 0, (a, b)
        for da, db in CASE_POLYGONS[cell.case][1]:
            assert alpha * da + beta * db <= 0, (da, db)

    @pytest.mark.parametrize("cell", SIMPLIFIED_CELLS, ids=_cell_id)
    def test_simplified_cell_is_exact_only_on_its_boundary(self, cell):
        (axis,) = [axis for axis, name in enumerate("ab") if f"{name} = g" in cell.note]
        p, q = [v for v in _vertices(cell.case) if v[axis] == 1]
        for k in range(9):
            a, b = p[0] + Fraction(k, 8) * (q[0] - p[0]), p[1] + Fraction(k, 8) * (q[1] - p[1])
            assert cell.simplified(a, b, ONE) == cell.exact(a, b, ONE), (a, b)
        # Points in eighths, off the boundaries a = g and b = g.
        eighths = [Fraction(k, 8) for k in range(17) if k != 8]
        inside = [(a, b) for a in eighths for b in eighths if _in_case(cell.case, a, b)]
        assert any(cell.simplified(a, b, ONE) != cell.exact(a, b, ONE) for a, b in inside)


def _boundary_points(plane: str, g: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Rational local bids (a, b) that win against g on the plane a = g, b = g or a + b = g."""
    steps = (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(2, 3), Fraction(1))
    if plane == "a = g":
        return [(g, t * g) for t in steps] + [(g, (1 + t) * g) for t in steps]
    if plane == "b = g":
        return [(t * g, g) for t in steps] + [((1 + t) * g, g) for t in steps]
    return [(t * g, (1 - t) * g) for t in steps]


# The float engine's reference points sum at most a dozen rounded terms of
# size at most 2g, so they land within a few ulps of g of the exact ones.
ENGINE_TOLERANCE = 1e-12

BOUNDARY_PLANES = ["a = g", "b = g", "a + b = g"]
BOUNDARY_GS = [Fraction(3, 4), Fraction(1), Fraction(1000, 7), Fraction(1, 3 * 10**9)]

# Per case, (a, b) as multiples of g strictly inside it, with a != b so a
# swapped pair of bids shows.
_F = Fraction
INTERIOR_POINTS = {
    CaseLabel.LOCALS_WEAK: [(_F(2, 3), _F(3, 5)), (_F(5, 7), _F(1, 2)), (_F(1, 4), _F(9, 10))],
    CaseLabel.LOCAL1_STRONG: [(_F(4, 3), _F(1, 5)), (_F(7, 5), _F(2, 3)), (_F(11, 10), _F(9, 10))],
    CaseLabel.LOCAL2_STRONG: [(_F(1, 5), _F(4, 3)), (_F(3, 4), _F(8, 5)), (_F(9, 10), _F(11, 10))],
    CaseLabel.LOCALS_STRONG: [(_F(4, 3), _F(6, 5)), (_F(3, 2), _F(7, 4)), (_F(19, 10), _F(11, 10))],
}


class TestExactEngineOracle:
    """The closed forms and the float engine against the LLG game in exact rationals."""

    @pytest.mark.parametrize("plane", BOUNDARY_PLANES)
    @pytest.mark.parametrize("g", BOUNDARY_GS)
    def test_closed_forms_are_exact_on_the_boundaries(self, plane, g):
        for a, b in _boundary_points(plane, g):
            profile = LlgBidProfile(a, b, g)
            for rule in R:
                exact = llg_exact_reference(a, b, g, rule)
                assert closed_form_reference(profile, rule) == exact[:2], (profile, rule)

    @pytest.mark.parametrize("case", list(CaseLabel))
    @pytest.mark.parametrize("g", BOUNDARY_GS)
    def test_closed_forms_are_exact_inside_each_case(self, case, g):
        for ta, tb in INTERIOR_POINTS[case]:
            a, b = ta * g, tb * g
            profile = LlgBidProfile(a, b, g)
            assert a + b > g and g not in (a, b) and classify_case(profile) is case, (a, b, g)
            for rule in R:
                exact = llg_exact_reference(a, b, g, rule)
                assert closed_form_reference(profile, rule) == exact[:2], (profile, rule)

    @pytest.mark.parametrize("plane", BOUNDARY_PLANES)
    @pytest.mark.parametrize("g", BOUNDARY_GS)
    def test_engine_matches_within_tolerance(self, plane, g):
        for a, b in _boundary_points(plane, g):
            instance = llg_instance(a, b, g)
            for rule in R:
                exact = tuple(map(float, llg_exact_reference(a, b, g, rule)))
                engine = reference_point(instance, rule)
                tolerance = ENGINE_TOLERANCE * g
                assert engine == pytest.approx(exact, rel=0, abs=tolerance), (a, b, g, rule)

    @pytest.mark.parametrize("g", BOUNDARY_GS)
    def test_engine_awards_the_locals_at_a_welfare_tie(self, g):
        # The rounded bids need not tie exactly; the tie rule decides either way.
        for a, b in _boundary_points("a + b = g", g):
            allocation = llg_instance(a, b, g).allocation
            assert allocation.assignment == {
                1: G1 if a else frozenset(),
                2: G2 if b else frozenset(),
                3: frozenset(),
            }, (a, b, g)


class TestRegionInequalities:
    def test_weak_interior_example(self):
        assert region_inequalities(
            LlgBidProfile(0.4, 0.5, 0.8), R.SHAPLEY_PAYMENT_NO_AUCTIONEER
        ) == (False, False)

    def test_weak_pinned_example(self):
        # 3a + b < 2g holds, so the projection is pinned at bidder 1's bid.
        assert region_inequalities(
            LlgBidProfile(0.2, 1.0, 0.8), R.SHAPLEY_PAYMENT_NO_AUCTIONEER
        )[0]


class TestProjectionDerivative:
    def test_vcg_interior(self):
        report = projection_derivative(LlgBidProfile(0.4, 0.5, 0.8), R.VCG)
        assert report.region is Region.INTERIOR
        assert report.derivative == 0.5
        assert report.sensitivity == 1.0

    def test_shapley_interior(self):
        report = projection_derivative(
            LlgBidProfile(0.4, 0.5, 0.8), R.SHAPLEY_PAYMENT_NO_AUCTIONEER
        )
        assert report.region is Region.INTERIOR
        assert report.derivative == 0.25

    def test_bid_cap_pinned(self):
        report = projection_derivative(
            LlgBidProfile(0.2, 1.0, 0.8), R.SHAPLEY_PAYMENT_NO_AUCTIONEER
        )
        assert report.region is Region.IR1_BINDING
        assert report.derivative == 1.0

    def test_zero_floor_pinned(self):
        report = projection_derivative(
            LlgBidProfile(0.2, 1.8, 1.0), R.SHAPLEY_PAYOFF_NO_AUCTIONEER
        )
        assert report.region is Region.NONNEG_BINDING
        assert report.derivative == 0.0

    def test_global_winner_rejected(self):
        with pytest.raises(GlobalWinnerError):
            projection_derivative(LlgBidProfile(0.2, 0.3, 0.9), R.VCG)

    def test_boundary_flagged(self):
        # VCG's even split touches the segment end exactly when a + b = g.
        report = projection_derivative(LlgBidProfile(0.5, 0.5, 1.0), R.VCG)
        assert report.boundary

    def test_swap_symmetry(self):
        # The bidder-2 report at (a, b, g) is the bidder-1 report at (b, a, g):
        # the even split and the segment mirror, so interior status is shared
        # and a pin at one bidder's end maps to a pin at the other end.
        rng = random.Random(37)
        for case in CaseLabel:
            for rule in R:
                profile = sample_llg_profile(rng, case)
                direct = projection_derivative(profile, rule)
                mirrored = projection_derivative(profile.swapped(), rule)
                assert mirrored.sensitivity == sensitivity2(profile, rule)
                assert (direct.region is Region.INTERIOR) == (
                    mirrored.region is Region.INTERIOR
                )
                if direct.region is Region.IR1_BINDING:
                    assert mirrored.region is Region.IR2_BINDING
                if direct.region is Region.IR2_BINDING:
                    assert mirrored.region is Region.IR1_BINDING


class TestNumericDerivative:
    @pytest.mark.parametrize(
        "rule,expected",
        [
            (R.VCG, 0.5),
            (R.SHAPLEY_PAYMENT_NO_AUCTIONEER, 0.25),
            (R.FIRST_PRICE, 0.5),
        ],
    )
    def test_examples(self, rule, expected):
        value = numeric_derivative(LlgBidProfile(0.4, 0.5, 0.8), rule, h=1e-5)
        assert value == pytest.approx(expected, abs=1e-6)

    def test_global_winner_rejected(self):
        with pytest.raises(GlobalWinnerError):
            numeric_derivative(LlgBidProfile(0.2, 0.3, 0.9), R.VCG)

    def test_proximity_rejected(self):
        with pytest.raises(BoundaryProximityError):
            numeric_derivative(LlgBidProfile(0.800001, 0.5, 0.8), R.VCG, h=1e-5)

    @pytest.mark.parametrize(
        "profile,rule,margin",
        [
            # Each refused profile is within 10h (h = 1e-5) of one kink only.
            pytest.param(LlgBidProfile(1.00005, 0.5, 1.0), R.VCG, "5e-05", id="a=g"),
            pytest.param(
                LlgBidProfile(0.2, 0.80005, 1.0), R.SHAPLEY_PAYMENT_NO_AUCTIONEER, "5e-05", id="a+b=g"
            ),
            pytest.param(LlgBidProfile(5e-5, 1.5, 1.0), R.FIRST_PRICE, "5e-05", id="a=0"),
            pytest.param(
                LlgBidProfile(0.6502, 0.45, 1.0), R.SHAPLEY_PAYMENT_NO_AUCTIONEER, "5e-05", id="lower-end"
            ),
            pytest.param(
                LlgBidProfile(0.44992, 0.65, 1.0), R.SHAPLEY_PAYMENT_NO_AUCTIONEER, "6e-05", id="upper-end"
            ),
            # b is held fixed, so b = g is no kink in a: these are evaluated.
            *(
                pytest.param(LlgBidProfile(0.4, b, 0.8), rule, None, id=f"b={b}-{rule.value}")
                for b in (0.79995, 0.8, 0.80005)
                for rule in R
            ),
        ],
    )
    def test_refuses_only_within_10h_of_a_kink_in_a(self, profile, rule, margin):
        if margin is not None:
            message = f"profile within 10h of a kink in a (margin {margin}, h 1e-05)"
            with pytest.raises(BoundaryProximityError, match=re.escape(message) + "$"):
                numeric_derivative(profile, rule)
        else:
            report = projection_derivative(profile, rule)
            numeric = numeric_derivative(profile, rule)
            assert abs(numeric - report.derivative) <= DERIVATIVE_TOLERANCE

    @pytest.mark.parametrize("h", [0.0, -0.3, math.nan, 1e-300, math.inf])
    def test_invalid_step_rejected(self, h):
        # A plain ValueError: the proximity error would be reported as n/a.
        with pytest.raises(ValueError, match="step") as excinfo:
            numeric_derivative(LlgBidProfile(0.4, 0.5, 0.8), R.VCG, h=h)
        assert not isinstance(excinfo.value, BoundaryProximityError)

    def test_agrees_in_zero_floor_zone(self):
        profile = LlgBidProfile(0.2, 1.8, 1.0)
        report = projection_derivative(profile, R.SHAPLEY_PAYOFF_NO_AUCTIONEER)
        numeric = numeric_derivative(profile, R.SHAPLEY_PAYOFF_NO_AUCTIONEER)
        assert numeric == pytest.approx(report.derivative, abs=1e-6)


def assert_same_cells(grid, expected):
    """Every cell of the grid is the very report object of the expected map."""
    assert [len(row) for row in grid.cells] == [len(row) for row in expected.cells]
    for i, (row, expected_row) in enumerate(zip(grid.cells, expected.cells)):
        if not all(map(operator.is_, row, expected_row)):
            j = next(j for j, (x, y) in enumerate(zip(row, expected_row)) if x is not y)
            pytest.fail(f"cell ({i}, {j}): {row[j]} is not {expected_row[j]}")


def assert_same_runs(runs, expected):
    """The runs are the expected (start, stop, cell) triples, each cell the very object."""
    assert [[(start, stop) for start, stop, _ in row] for row in runs] == [
        [(start, stop) for start, stop, _ in row] for row in expected
    ]
    for i, (row, expected_row) in enumerate(zip(runs, expected)):
        for (start, _, cell), (_, _, expected_cell) in zip(row, expected_row):
            assert cell is expected_cell, (i, start, cell, expected_cell)


# Exact share of [0, 2g]^2 in each region per rule, in the order IR1, IR2,
# NONNEG, INTERIOR, GLOBAL. Within each case every closed form and both
# segment ends are linear in (a, b), so each region is a union of convex
# polygons: the case squares clipped by a + b > g, split > hi and split < lo.
EXACT_SHARES = {
    R.FIRST_PRICE: (0, 0, _F(1, 4), _F(5, 8), _F(1, 8)),
    R.VCG: (0, 0, 0, _F(7, 8), _F(1, 8)),
    R.SHAPLEY_PAYMENT_NO_AUCTIONEER: (_F(5, 48), _F(5, 48), 0, _F(2, 3), _F(1, 8)),
    R.SHAPLEY_PAYOFF_NO_AUCTIONEER: (_F(1, 24), _F(1, 24), _F(1, 8), _F(2, 3), _F(1, 8)),
    R.SHAPLEY_PAYMENT_WITH_AUCTIONEER: (_F(5, 336), _F(5, 336), _F(1, 15), _F(109, 140), _F(1, 8)),
    R.SHAPLEY_PAYOFF_WITH_AUCTIONEER: (_F(19, 176), _F(19, 176), 0, _F(29, 44), _F(1, 8)),
}


class TestRegionMap:
    @pytest.mark.parametrize("rule", list(R))
    def test_labels_match_an_exact_classification(self, rule):
        # The coordinates i/16 are exact in binary, so every cell is
        # classified in Fractions: the even split of the case's closed forms
        # against the segment [max(0, g - b), min(a, g)].
        grid = region_map(rule, 1.0, 33)
        mismatches = []
        for a, row in zip(map(Fraction, grid.a_values), grid.cells):
            for b, cell in zip(map(Fraction, grid.b_values), row):
                if cell is not None and cell.boundary:
                    continue
                if a + b < ONE:
                    expected = None
                else:
                    profile = LlgBidProfile(a, b, ONE)
                    p1, p2 = map(_exact, closed_form_for_case(classify_case(profile), profile, rule))
                    split = (ONE + p1 - p2) / 2
                    if split > min(a, ONE):
                        expected = Region.IR1_BINDING if a <= ONE else Region.NONNEG_BINDING
                    elif split < max(0, ONE - b):
                        expected = Region.IR2_BINDING if b <= ONE else Region.NONNEG_BINDING
                    else:
                        expected = Region.INTERIOR
                found = None if cell is None else cell.region
                if found is not expected:
                    mismatches.append((a, b, found, expected))
        assert mismatches == []

    def test_readme_gives_the_exact_shares(self):
        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        rows = re.findall(r"^  \| `([a-z-]+)` \| (.*) \|$", readme.read_text(encoding="utf-8"), re.M)
        assert {R(name): tuple(map(Fraction, cells.split(" | "))) for name, cells in rows} == (
            EXACT_SHARES
        )

    @pytest.mark.parametrize("rule", list(R))
    def test_cell_shares_match_the_exact_shares(self, rule):
        grid = region_map(rule, 1.0, 401)
        counts = dict.fromkeys(Region, 0)
        for row in grid.cells:
            for cell in row:
                counts[Region.GLOBAL_WINNER if cell is None else cell.region] += 1
        total = sum(counts.values())
        for region, exact in zip(counts, EXACT_SHARES[rule], strict=True):
            share = counts[region] / total
            assert abs(share - exact) <= 0.004, (region, share, exact)
            if exact == 0:
                assert counts[region] == 0, region

    @pytest.mark.parametrize("rule", list(R))
    # At (5e-324, 9) grid points round together, so a b value names no single cell.
    @pytest.mark.parametrize(
        "g,resolution", [grid for grid in WRITER_GRIDS if grid[1] < 1000 and grid[0] != 5e-324]
    )
    def test_evaluates_only_the_cells_a_run_can_start_at(self, monkeypatch, rule, g, resolution):
        # Cell 0, the cells inside a band and the first cell after each band:
        # any other cell lies in the run an earlier evaluated cell started.
        evaluated = {}

        def recording(a, b, g):
            evaluated.setdefault(a, []).append(b)
            return LlgBidProfile(a, b, g)

        monkeypatch.setattr(coreselect.llg, "LlgBidProfile", recording)
        grid = region_map(rule, g, resolution)
        coords = grid.b_values
        assert len(set(coords)) == resolution, "each b names one cell"
        for a in grid.a_values:
            assert evaluated[a] == sorted(set(evaluated[a])), a
            bands = coreselect.llg._row_bands(rule, a, g, coords[-1])
            for b in evaluated[a]:
                j = coords.index(b)
                assert j == 0 or any(
                    centre - width <= b <= centre + width
                    or coords[j - 1] <= centre + width < b
                    for centre, width in bands
                ), (a, b)

    def test_bench_pass_makes_4172_derivative_calls(self, monkeypatch):
        calls = []

        def counted(profile, rule):
            calls.append(profile)
            return projection_derivative(profile, rule)

        monkeypatch.setattr(coreselect.llg, "projection_derivative", counted)
        runs = sum(len(row) for rule in R for row in region_map(rule, 1.0, 200).runs)
        assert (len(calls), runs) == (4172, 4308)

    def test_minimal_grid(self):
        grid = region_map(R.VCG, g=1.0, resolution=2)
        assert grid.a_values == (0.0, 2.0)
        flat = [cell for row in grid.cells for cell in row]
        assert len(flat) == 4
        assert flat[0] is None  # (0, 0) falls to the global bidder

    def test_csv_shape_and_global_cells(self):
        text = region_map_to_csv(region_map(R.VCG, g=1.0, resolution=5))
        lines = text.strip().split("\n")
        assert lines[0] == "A,B,case,region,derivative,sensitivity"
        assert len(lines) == 26
        assert "0.0,0.0,locals_weak,GLOBAL,," in lines

    def test_csv_case_column_matches_classify_case(self):
        # Odd resolution puts grid points on the a = g and b = g boundaries.
        g = 2.5
        rows = region_map_to_csv(region_map(R.SHAPLEY_PAYMENT_WITH_AUCTIONEER, g, 77))
        seen = set()
        for row in rows.strip().split("\n")[1:]:
            a, b, case, region = row.split(",")[:4]
            assert case == classify_case(LlgBidProfile(float(a), float(b), g)).value, row
            seen.add((case, region == Region.GLOBAL_WINNER.value))
        assert {case for case, _ in seen} == {case.value for case in CaseLabel}
        assert (CaseLabel.LOCALS_WEAK.value, True) in seen

    @pytest.mark.parametrize("rule", list(R))
    @pytest.mark.parametrize("g,resolution", WRITER_GRIDS)
    def test_csv_matches_per_cell_writer(self, rule, g, resolution):
        grid = region_map(rule, g, resolution)
        # The oracle runs first, so its list of line strings is freed before
        # the writer runs: at 1000 points that is a million strings.
        expected = region_map_to_csv_by_cell(grid)
        assert_same_text(region_map_to_csv(grid), expected)

    def test_csv_of_hand_built_map_matches_per_cell_writer(self):
        # Runs are found by identity: grouping equal reports would print the
        # -0.0 cells as 0.0.
        grid = hand_built_region_map()
        text = region_map_to_csv(grid)
        assert_same_text(text, region_map_to_csv_by_cell(grid))
        assert text.count(",-0.0,-0.0\n") == 2

    def test_runs_of_hand_built_map(self):
        grid = hand_built_region_map()
        zero, negative_zero, zero_again = grid.cells[1][0], grid.cells[1][1], grid.cells[1][3]
        one, half = grid.cells[2][1], grid.cells[3][0]
        assert zero_again is zero and zero == negative_zero
        # The adjacent 0.0 and -0.0 reports compare equal but are separate runs.
        assert_same_runs(
            grid.runs,
            [
                [(0, 4, None)],
                [(0, 1, zero), (1, 3, negative_zero), (3, 4, zero)],
                [(0, 1, None), (1, 2, one), (2, 3, zero), (3, 4, half)],
                [(0, 4, half)],
            ],
        )

    @pytest.mark.parametrize("rule", list(R))
    @pytest.mark.parametrize("g,resolution", [grid for grid in WRITER_GRIDS if grid[1] < 1000])
    def test_runs_expand_to_the_cells(self, rule, g, resolution):
        grid = region_map(rule, g, resolution)
        for i, (runs, row) in enumerate(zip(grid.runs, grid.cells, strict=True)):
            # Each run starts where the one before stopped and holds another object.
            assert [start for start, _, _ in runs] == [0] + [stop for _, stop, _ in runs[:-1]]
            assert runs[-1][1] == len(row)
            run_cells = [cell for _, _, cell in runs]
            assert all(map(operator.is_not, run_cells, run_cells[1:]))
            expanded = [cell for start, stop, cell in runs for _ in range(start, stop)]
            assert all(map(operator.is_, expanded, row)), i

    def test_runs_are_found_once_per_map(self):
        grid = region_map(R.VCG, 1.0, 20)
        assert grid.runs is grid.runs
        # Not a field: a map whose runs were read is equal to a fresh one, by
        # value, hash and repr.
        fresh = region_map(R.VCG, 1.0, 20)
        assert "runs" not in fresh.__dict__
        assert (grid, hash(grid), repr(grid)) == (fresh, hash(fresh), repr(fresh))

    def test_csv_deterministic(self):
        first = region_map_to_csv(region_map(R.SHAPLEY_PAYMENT_WITH_AUCTIONEER, resolution=20))
        second = region_map_to_csv(region_map(R.SHAPLEY_PAYMENT_WITH_AUCTIONEER, resolution=20))
        assert first == second

    def test_vcg_derivatives_two_valued(self):
        grid = region_map(R.VCG, g=1.0, resolution=40)
        values = {cell.derivative for row in grid.cells for cell in row if cell is not None}
        assert values == {0.0, 0.5}

    def test_strong_locals_interior_zero_for_shapley(self):
        grid = region_map(R.SHAPLEY_PAYMENT_NO_AUCTIONEER, g=1.0, resolution=30)
        for i, a in enumerate(grid.a_values):
            for j, b in enumerate(grid.b_values):
                cell = grid.cells[i][j]
                if cell is not None and cell.case is CaseLabel.LOCALS_STRONG:
                    assert cell.region is Region.INTERIOR
                    assert cell.derivative == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            region_map(R.VCG, resolution=1)
        with pytest.raises(ValueError):
            region_map(R.VCG, g=0.0)
        for g in (float("inf"), float("nan"), 1e308, -1.0):
            with pytest.raises(ValueError, match="global bid"):
                region_map(R.VCG, g=g, resolution=5)
        # 2g is finite here, but 2g * 199, the top corner's numerator, is not.
        with pytest.raises(ValueError, match="global bid"):
            region_map(R.VCG, g=1e307, resolution=200)

    @pytest.mark.parametrize("rule", list(R))
    @pytest.mark.parametrize("g,resolution", [(2.5, 77), (0.3, 31), (1.0, 41)])
    def test_every_cell_is_projection_derivative(self, rule, g, resolution):
        grid = region_map(rule, g, resolution)
        for a, row in zip(grid.a_values, grid.cells):
            for b, cell in zip(grid.b_values, row):
                profile = LlgBidProfile(a, b, g)
                if profile.locals_win():
                    assert cell is projection_derivative(profile, rule), (a, b)
                else:
                    assert cell is None, (a, b)

    @pytest.mark.parametrize("rule", list(R))
    def test_spans_match_per_cell_map(self, rule):
        # Odd resolutions put grid points on a = g and b = g.
        for g in (1e-6, 1.0, 2.5, 1e9):
            for resolution in (2, 3, 200, 201):
                assert_same_cells(
                    region_map(rule, g, resolution), region_map_by_cell(rule, g, resolution)
                )

    @pytest.mark.parametrize("g", [5e-324, 1e-321, 1e-310])
    def test_spans_match_per_cell_map_at_subnormal_g(self, g):
        # Rounding is absolute below the smallest normal float, so the guard
        # needs its floor there.
        for rule in R:
            for resolution in (9, 40):
                assert_same_cells(
                    region_map(rule, g, resolution), region_map_by_cell(rule, g, resolution)
                )

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(list(R)),
        st.floats(0.1, 10.0),
        st.integers(-40, 40),
        st.integers(2, 64),
    )
    def test_spans_match_per_cell_map_at_any_scale(self, rule, m, k, resolution):
        g = m * 2.0**k
        assert_same_cells(region_map(rule, g, resolution), region_map_by_cell(rule, g, resolution))

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(list(R)),
        st.floats(0.1, 10.0),
        st.integers(2, 48),
        st.integers(-30, 40),
    )
    def test_power_of_two_scaling_is_exact(self, rule, g, resolution, k):
        # Scaling every bid by 2**k changes no rounding, and every tolerance
        # scales with g, so each cell is the same report object.
        assert_same_cells(
            region_map(rule, g * 2.0**k, resolution), region_map(rule, g, resolution)
        )

    @pytest.mark.parametrize("rule", list(R))
    def test_forms_near_overflow_keep_the_cells(self, rule):
        # At g = 3 * 2**1020 the grid's bid sums reach 5g, where 7 * a / 12
        # would overflow; the rescaled forms keep every cell of g = 3.
        # Resolution 3 is the largest grid the check on 2 * g * i allows there.
        assert_same_cells(region_map(rule, 3 * 2.0**1020, 3), region_map(rule, 3.0, 3))


class _NoDraws:
    """An rng that fails the test if the sampler draws from it."""

    def uniform(self, low, high):
        pytest.fail(f"sampler drew from [{low}, {high}]")


# Each case's intervals for a and b, in units of g: the sampler's reference.
CASE_INTERVALS = {
    CaseLabel.LOCALS_WEAK: ((0, 1), (0, 1)),
    CaseLabel.LOCAL1_STRONG: ((1, 2), (0, 1)),
    CaseLabel.LOCAL2_STRONG: ((0, 1), (1, 2)),
    CaseLabel.LOCALS_STRONG: ((1, 2), (1, 2)),
}


HALF_MAX = sys.float_info.max / 2


class TestSampler:
    @pytest.mark.parametrize("g", [1.0, 2.0**-30, 2.0**40, 5.3e307])
    @pytest.mark.parametrize("case", list(CaseLabel))
    def test_draws_from_the_case_intervals(self, case, g):
        # At 5.3e307 some draws overflow a + b + g and are drawn again.
        (a_lo, a_hi), (b_lo, b_hi) = CASE_INTERVALS[case]
        for seed in range(1, 6):
            rng, expected_rng = random.Random(seed), random.Random(seed)
            for _ in range(5):
                while True:
                    a = expected_rng.uniform(a_lo * g, a_hi * g)
                    b = expected_rng.uniform(b_lo * g, b_hi * g)
                    if a + b > g and a + b + g < math.inf and classify_case(
                        LlgBidProfile(a, b, g)
                    ) is case:
                        break
                assert sample_llg_profile(rng, case, g) == LlgBidProfile(a, b, g)

    # At sys.float_info.max / 2, 2g is finite, but a + b > g leaves
    # a + b + g at least g plus the float above g, which rounds to inf.
    @pytest.mark.parametrize("g", [0.0, -1.0, math.nan, math.inf, 1e308, sys.float_info.max / 2])
    @pytest.mark.parametrize("case", list(CaseLabel))
    def test_empty_domain_raises_without_drawing(self, case, g):
        with pytest.raises(ValueError, match="global bid"):
            sample_llg_profile(_NoDraws(), case, g)

    def test_least_bid_sum_decides_the_domain(self):
        # Both locals strong need a + b + g > 3g, which overflows at 7e307;
        # the other cases need only 2g.
        g = 7e307
        with pytest.raises(ValueError, match="global bid"):
            sample_llg_profile(_NoDraws(), CaseLabel.LOCALS_STRONG, g)
        rng = random.Random(1)
        for case in CaseLabel:
            if case is not CaseLabel.LOCALS_STRONG:
                assert classify_case(sample_llg_profile(rng, case, g)) is case

    # Just inside the domain's edge almost no pair passes: at these g each
    # ran on without end before the sampler's bound.
    @pytest.mark.parametrize(
        "case,g",
        [
            (CaseLabel.LOCALS_WEAK, math.nextafter(HALF_MAX, 0)),
            (CaseLabel.LOCAL1_STRONG, math.nextafter(HALF_MAX, 0)),
            (CaseLabel.LOCAL2_STRONG, math.nextafter(HALF_MAX, 0)),
            (CaseLabel.LOCAL1_STRONG, HALF_MAX * (1 - 2**-20)),
            (CaseLabel.LOCAL2_STRONG, HALF_MAX * (1 - 2**-20)),
        ],
    )
    def test_gives_up_after_the_bound(self, case, g):
        rng, expected_rng = random.Random(1), random.Random(1)
        started = time.perf_counter()
        message = rf"{case.value} at g = {re.escape(repr(g))} passed in {MAX_DRAWS} draws"
        with pytest.raises(ValueError, match=message):
            sample_llg_profile(rng, case, g)
        # About half a second here; the draw count below is the exact check.
        assert time.perf_counter() - started < 5
        for _ in range(2 * MAX_DRAWS):
            expected_rng.random()
        assert rng.getstate() == expected_rng.getstate()

    def test_returns_within_the_bound_as_before(self):
        # 220,704 pairs, of which only the last passes: under the bound, so the
        # draw is the one the unbounded sampler returned.
        g = HALF_MAX * (1 - 2**-20)
        expected_rng = random.Random(1)
        while True:
            a, b = expected_rng.uniform(0.0, g), expected_rng.uniform(0.0, g)
            if a + b > g and a + b + g < math.inf:
                break
        profile = sample_llg_profile(random.Random(1), CaseLabel.LOCALS_WEAK, g)
        assert profile == LlgBidProfile(a, b, g)

    @pytest.mark.parametrize("case", ["locals_weak", None, 0])
    def test_case_must_be_a_label(self, case):
        with pytest.raises(ValueError, match="CaseLabel"):
            sample_llg_profile(_NoDraws(), case)


class TestThresholdTable:
    def test_empty_sampler_domain_raises(self):
        with pytest.raises(ValueError, match="global bid"):
            check_threshold_table(5, 1, g=0.0)

    def test_exact_conditions_match_direct_evaluation(self):
        for check in check_threshold_table(samples_per_case=500, seed=41):
            assert check.exact_mismatches == 0, check.cell

    def test_simplified_strong_cells_differ(self):
        results = check_threshold_table(samples_per_case=500, seed=43)
        flagged = {
            (check.cell.rule, check.cell.case, check.cell.inequality): check
            for check in results
            if check.cell.note
        }
        assert set(flagged) == {
            (R.SHAPLEY_PAYMENT_WITH_AUCTIONEER, CaseLabel.LOCAL1_STRONG, 2),
            (R.SHAPLEY_PAYMENT_WITH_AUCTIONEER, CaseLabel.LOCAL2_STRONG, 1),
        }
        for check in flagged.values():
            assert check.stated_mismatches > 0

    def test_unflagged_cells_match_stated_form(self):
        for check in check_threshold_table(samples_per_case=500, seed=47):
            if not check.cell.note:
                assert check.stated_mismatches == 0, check.cell

    def test_each_profile_is_evaluated_once_per_rule(self, monkeypatch):
        # Each (rule, case) evaluates its 25 profiles' inequalities once: 8 x 25.
        # Each cell tallies its stated form, and only the 2 simplified cells
        # tally their exact form apart: (16 + 2) x 25 threshold calls.
        expected = check_threshold_table(samples_per_case=25, seed=5)
        calls = {"region_inequalities": 0, "_threshold_holds": 0}
        for name in calls:

            def counted(*args, _name=name, _original=getattr(coreselect.llg, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(coreselect.llg, name, counted)
        assert check_threshold_table(samples_per_case=25, seed=5) == expected
        assert calls == {"region_inequalities": 8 * 25, "_threshold_holds": 18 * 25}

    @pytest.mark.parametrize("g", [5.3e307, 1e308 / 3, 2.0**1020])
    def test_exact_conditions_match_near_overflow(self, g):
        # Local bids up to 2g can make a + b + g overflow at these g; the
        # sampler draws such profiles again, so every case gets its samples.
        for check in check_threshold_table(samples_per_case=500, seed=1, g=g):
            assert check.checked == 500
            assert check.exact_mismatches == 0, check.cell

    def test_exact_cells_near_overflow_match_direct_evaluation(self):
        profile = LlgBidProfile(2.6e307, 2.6e307, 5.3e307)
        cells = [cell for cell in THRESHOLD_TABLE if cell.case is classify_case(profile)]
        assert len(cells) == 4
        for cell in cells:
            direct = region_inequalities(profile, cell.rule)[cell.inequality - 1]
            assert _threshold_holds(cell.exact, profile) == direct, cell
            if cell.rule is R.SHAPLEY_PAYMENT_WITH_AUCTIONEER:
                # Unscaled, 7 * a + 5 * b overflows and the cell reads inf < inf.
                assert direct and not cell.exact(profile.a, profile.b, profile.g), cell


# Every way into the engine: the solvers, the reference rules, the
# projection, the core check and ``llg_instance``.
ENGINE_ENTRY_POINTS = (
    "winner_determination",
    "coalition_value_table",
    "reference_point",
    "first_price",
    "vcg",
    "shapley_payoffs",
    "shapley_payments",
    "project_to_mrc",
    "core_violations",
    "llg_instance",
)


class EngineReached(AssertionError):
    """An engine entry point ran under the ``no_engine`` guard."""


@pytest.fixture
def no_engine(monkeypatch):
    """Rebind every engine entry point, in every ``coreselect`` module, to raise.

    ``AuctionInstance.__post_init__`` raises too, so no instance can be
    built and nothing can be solved by another route.
    """

    def blocked(name):
        def entry(*args, **kwargs):
            raise EngineReached(name)

        return entry

    modules = [coreselect] + [
        importlib.import_module(f"coreselect.{info.name}")
        for info in pkgutil.iter_modules(coreselect.__path__)
    ]
    rebound = set()
    for module in modules:
        for name in ENGINE_ENTRY_POINTS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, blocked(name))
                rebound.add(name)
    assert rebound == set(ENGINE_ENTRY_POINTS)
    monkeypatch.setattr(AuctionInstance, "__post_init__", blocked("AuctionInstance.__post_init__"))


class TestClosedFormsNeverSolve:
    """The closed forms are a path of their own: they run with the engine unreachable."""

    def test_accessors(self, no_engine):
        rng = random.Random(7)
        for case in CaseLabel:
            for _ in range(10):
                profile = sample_llg_profile(rng, case)
                for rule in R:
                    closed_form_reference(profile, rule)
                    for other in CaseLabel:
                        closed_form_for_case(other, profile, rule)
                    projection_derivative(profile, rule)
                    sensitivity(profile, rule)
                    sensitivity2(profile, rule)
                    region_inequalities(profile, rule)

    def test_region_maps_and_writers(self, no_engine):
        for rule in R:
            grid = region_map(rule, 1.0, 41)
            region_map_to_csv(grid)
            render_region_map_svg(grid)

    def test_threshold_table(self, no_engine):
        check_threshold_table(50, 7)

    def test_numeric_derivative_reaches_the_engine(self, no_engine):
        with pytest.raises(EngineReached):
            numeric_derivative(LlgBidProfile(0.4, 0.5, 0.8), R.VCG)
