"""Core-selecting payment rules for small combinatorial auctions.

The package pairs an exact auction engine, one dynamic program over subsets
of goods, with closed-form analytics for the local-local-global (LLG)
domain: six reference-point payment/payoff rules, core violation checks,
the minimum-revenue-core projection, per-rule sensitivities, and the
piecewise derivative of the projected payment with respect to a local bid.
"""

from .core import (
    CoreConstraint,
    CoreViolation,
    core_violations,
    llg_segment_ends,
    project_to_mrc,
)
from .llg import (
    CaseLabel,
    DerivativeReport,
    GlobalWinnerError,
    Region,
    RegionMap,
    classify_case,
    closed_form_for_case,
    closed_form_reference,
    projection_derivative,
    region_inequalities,
    region_map,
    region_map_to_csv,
    sample_llg_profile,
    sensitivity,
    sensitivity2,
    sensitivity_fraction,
)
from .model import (
    Allocation,
    AuctionInstance,
    Bid,
    Bidder,
    InvalidCoalitionError,
    LlgBidProfile,
    SizeLimitError,
    coalition_value_table,
    coalitional_value,
    instance_from_dict,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    llg_instance,
    winner_determination,
)
from .reference import (
    ReferenceRule,
    auctioneer_payoff,
    first_price,
    reference_point,
    shapley_payments,
    shapley_payoffs,
    shapley_payoffs_by_enumeration,
    vcg,
)
from .verify import BoundaryProximityError, numeric_derivative

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AuctionInstance",
    "Bid",
    "Bidder",
    "BoundaryProximityError",
    "CaseLabel",
    "CoreConstraint",
    "CoreViolation",
    "DerivativeReport",
    "GlobalWinnerError",
    "InvalidCoalitionError",
    "LlgBidProfile",
    "ReferenceRule",
    "Region",
    "RegionMap",
    "SizeLimitError",
    "auctioneer_payoff",
    "classify_case",
    "closed_form_for_case",
    "closed_form_reference",
    "coalition_value_table",
    "coalitional_value",
    "core_violations",
    "first_price",
    "instance_from_dict",
    "instance_from_json",
    "instance_to_dict",
    "instance_to_json",
    "llg_instance",
    "llg_segment_ends",
    "numeric_derivative",
    "project_to_mrc",
    "projection_derivative",
    "reference_point",
    "region_inequalities",
    "region_map",
    "region_map_to_csv",
    "sample_llg_profile",
    "sensitivity",
    "sensitivity2",
    "sensitivity_fraction",
    "shapley_payments",
    "shapley_payoffs",
    "shapley_payoffs_by_enumeration",
    "vcg",
    "winner_determination",
]
