import ast
from pathlib import Path

import coreselect

# The public API. A name added to or dropped from ``__all__`` changes it, so
# it is changed here on purpose and listed in CHANGES.md.
PUBLIC_API = {
    # model
    "Allocation", "AuctionInstance", "Bid", "Bidder", "InvalidCoalitionError",
    "LlgBidProfile", "SizeLimitError", "coalition_value_table", "coalitional_value",
    "instance_from_dict", "instance_from_json", "instance_to_dict", "instance_to_json",
    "llg_instance", "winner_determination",
    # reference
    "ReferenceRule", "auctioneer_payoff", "first_price", "reference_point",
    "shapley_payments", "shapley_payoffs", "shapley_payoffs_by_enumeration", "vcg",
    # core
    "CoreConstraint", "CoreViolation", "core_violations", "llg_segment_ends",
    "project_to_mrc",
    # llg
    "CaseLabel", "DerivativeReport", "GlobalWinnerError", "Region", "RegionMap",
    "classify_case", "closed_form_for_case", "closed_form_reference",
    "projection_derivative", "region_inequalities", "region_map", "region_map_to_csv",
    "sample_llg_profile", "sensitivity", "sensitivity2", "sensitivity_fraction",
    # verify
    "BoundaryProximityError", "numeric_derivative",
}

# Everything llg imports from the package. None of it solves an auction, so
# the closed forms stay a path of their own, which verify checks against the
# engine.
LLG_PACKAGE_IMPORTS = {
    ".core": {"even_split", "llg_segment_ends"},
    ".model": {"TIE_TOLERANCE", "LlgBidProfile"},
    ".reference": {"ReferenceRule"},
}


def imported_names() -> set[str]:
    """Every name the package ``__init__`` imports from its modules."""
    tree = ast.parse(Path(coreselect.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_exported_name_resolves():
    for name in coreselect.__all__:
        assert getattr(coreselect, name, None) is not None, name


def test_exports_are_exactly_the_imports():
    assert len(coreselect.__all__) == len(set(coreselect.__all__))
    assert set(coreselect.__all__) == imported_names()


def test_exports_are_the_public_api():
    assert set(coreselect.__all__) == PUBLIC_API


def test_no_module_imports_a_private_name_from_another():
    # A name with a leading underscore belongs to its own module; what two
    # modules share is public.
    package = Path(coreselect.__file__).parent
    private = [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "coreselect")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_llg_imports_nothing_that_solves():
    tree = ast.parse((Path(coreselect.__file__).parent / "llg.py").read_text(encoding="utf-8"))
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "coreselect"
        ):
            names = imported.setdefault("." * node.level + (node.module or ""), set())
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "coreselect":
                    imported.setdefault(alias.name, set())
    assert imported == LLG_PACKAGE_IMPORTS
