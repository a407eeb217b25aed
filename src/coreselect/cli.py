"""Command-line front end.

Subcommands: payments, project, sensitivity, derivative, region-map,
verify-table, core-check. Exit codes: 0 on success, 1 when a verification
check fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from types import SimpleNamespace
from typing import Iterable

from .core import CoreViolation, core_violations, project_to_mrc
from .llg import (
    BoundaryProximityError,
    RegionMap,
    classify_case,
    numeric_derivative,
    projection_derivative,
    region_map,
    region_map_to_csv,
    closed_form_reference,
    sensitivity,
    sensitivity2,
)
from .model import AuctionInstance, LlgBidProfile, instance_from_json
from .reference import ReferenceRule, reference_point
from .verify import DEFAULT_SEED, run_all

_RULE_CHOICES = [rule.value for rule in ReferenceRule]

_SVG_PALETTE = (
    "#313695",
    "#4575b4",
    "#74add1",
    "#fee090",
    "#fdae61",
    "#f46d43",
    "#d73027",
    "#a50026",
)

# Width and height of the region-map SVG, in user units.
SVG_SIZE = 640


def _reads_as_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


class _SubcommandParser(argparse.ArgumentParser):
    """Reads a "-"-prefixed token as a value whenever ``float()`` reads it.

    argparse's own negative-number pattern takes only plain decimals, so
    "-1e-05", the way ``repr`` prints a small negative, and "-inf" would be
    taken for unknown options; these reach the options' own checks instead.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse only ever calls .match(token) on its negative-number pattern.
        self._negative_number_matcher = SimpleNamespace(match=_reads_as_float)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coreselect",
        description="Core-selecting payment rules for small combinatorial auctions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    def add_llg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--llg",
            nargs=3,
            type=float,
            metavar=("A", "B", "G"),
            required=True,
            help="LLG shorthand: local bid 1, local bid 2, global bundle bid",
        )

    def add_llg_or_instance(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--llg", nargs=3, type=float, metavar=("A", "B", "G"))
        group.add_argument("--instance", help="path to an instance JSON file")

    def add_rule(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rule", choices=_RULE_CHOICES, required=True, help="reference rule")

    p = sub.add_parser("payments", help="reference payment/payoff vector for a profile")
    add_llg_or_instance(p)
    add_rule(p)

    p = sub.add_parser("project", help="minimum-revenue core-selecting payment")
    add_llg(p)
    add_rule(p)
    p.add_argument("--metric", type=float, default=2.0, help="L_c metric exponent, c > 1")

    p = sub.add_parser("sensitivity", help="sensitivities of the reference rule to both local bids")
    add_llg(p)
    add_rule(p)

    p = sub.add_parser("derivative", help="projected-payment derivative with numeric cross-check")
    add_llg(p)
    add_rule(p)
    p.add_argument("--step", type=float, default=None, help="finite-difference step")

    p = sub.add_parser("region-map", help="derivative map over the local-bid plane as CSV")
    add_rule(p)
    p.add_argument("--g", type=float, default=1.0, help="global bundle bid (default 1.0)")
    p.add_argument("--resolution", type=int, default=200, help="grid points per axis")
    p.add_argument("--svg", help="also render the map to this SVG path")

    p = sub.add_parser("verify-table", help="run the randomized cross-verification suites")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed (default 7)")
    p.add_argument("--samples", type=int, default=1000, help="sampled profiles per case")

    p = sub.add_parser("core-check", help="check a payment vector against the core constraints")
    add_llg_or_instance(p)
    p.add_argument(
        "--payments", nargs="*", type=float, required=True, help="one payment per bidder"
    )

    # Every subcommand writes through _write, which reads --out; declared
    # last, so it stays the last option in each --help.
    for p in sub.choices.values():
        p.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def _fmt(value: float) -> str:
    return f"{0.0 if value == 0 else value:.6f}"


def _fmt_vector(values: Iterable[float]) -> str:
    return " ".join(f"p{i + 1}={_fmt(v)}" for i, v in enumerate(values))


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_instance(path: str) -> AuctionInstance:
    with open(path, encoding="utf-8") as handle:
        return instance_from_json(handle.read())


def _profile(args: argparse.Namespace) -> LlgBidProfile:
    return LlgBidProfile(*args.llg)


def _cmd_payments(args: argparse.Namespace) -> int:
    rule = ReferenceRule(args.rule)
    if args.llg is not None:
        profile = _profile(args)
        if profile.locals_win():
            p1, p2 = closed_form_reference(profile, rule)
            line = f"case={classify_case(profile).value} p1={_fmt(p1)} p2={_fmt(p2)}\n"
        else:
            vector = reference_point(profile.to_instance(), rule)
            line = f"case=global_winner {_fmt_vector(vector)}\n"
    else:
        line = _fmt_vector(reference_point(_load_instance(args.instance), rule)) + "\n"
    _write(args, line)
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    profile = _profile(args)
    rule = ReferenceRule(args.rule)
    reference = reference_point(profile.to_instance(), rule)
    projected = project_to_mrc(profile, reference, c=args.metric)
    case = classify_case(profile).value if profile.locals_win() else "global_winner"
    _write(args, f"case={case} {_fmt_vector(projected)}\n")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    profile = _profile(args)
    rule = ReferenceRule(args.rule)
    line = (
        f"case={classify_case(profile).value}"
        f" sens1={_fmt(sensitivity(profile, rule))}"
        f" sens2={_fmt(sensitivity2(profile, rule))}\n"
    )
    _write(args, line)
    return 0


def _cmd_derivative(args: argparse.Namespace) -> int:
    profile = _profile(args)
    rule = ReferenceRule(args.rule)
    report = projection_derivative(profile, rule)
    try:
        numeric = _fmt(numeric_derivative(profile, rule, args.step))
    except BoundaryProximityError:
        numeric = "n/a"
    line = (
        f"case={report.case.value} region={report.region.value}"
        f" d={_fmt(report.derivative)} numeric={numeric} sens={_fmt(report.sensitivity)}"
    )
    if report.boundary:
        line += " boundary=1"
    _write(args, line + "\n")
    return 0


def render_region_map_svg(grid: RegionMap) -> str:
    """Static SVG raster of a region map: one rect per cell, case lines overlaid."""
    resolution = len(grid.a_values)
    cell = SVG_SIZE / resolution
    # Of the cells, only None, a global-winner cell, is false.
    derivatives = sorted({report.derivative for row in grid.runs for _, _, report in row if report})
    # Each cell's <rect> is its column's x string, its row's y string and the
    # tail for its derivative's colour, each formatted once.
    tails = {
        value: f'" width="{cell:.2f}" height="{cell:.2f}" '
        f'fill="{_SVG_PALETTE[i * (len(_SVG_PALETTE) - 1) // max(len(derivatives) - 1, 1)]}"/>'
        for i, value in enumerate(derivatives)
    }
    ys = [f"{(resolution - 1 - j) * cell:.2f}" for j in range(resolution)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="#ffffff"/>',
    ]
    for i, row in enumerate(grid.runs):
        x_prefix = f'<rect x="{i * cell:.2f}" y="'
        for start, stop, report in row:
            if report is not None:
                # One string per run: its rects differ only in their y string.
                tail = tails[report.derivative]
                parts.append(x_prefix + (tail + "\n" + x_prefix).join(ys[start:stop]) + tail)
    # Case boundaries sit at a = g and b = g, i.e. halfway along each axis.
    mid = SVG_SIZE / 2
    parts.append(
        f'<line x1="{mid:.2f}" y1="0" x2="{mid:.2f}" y2="{SVG_SIZE}" stroke="#ff0000" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="0" y1="{mid:.2f}" x2="{SVG_SIZE}" y2="{mid:.2f}" stroke="#ff0000" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_region_map(args: argparse.Namespace) -> int:
    grid = region_map(ReferenceRule(args.rule), g=args.g, resolution=args.resolution)
    # Opened first, so an SVG path that cannot be opened fails before any
    # output; the SVG is still rendered after the CSV text is freed.
    with open(args.svg, "w", encoding="utf-8") if args.svg else contextlib.nullcontext() as svg:
        _write(args, region_map_to_csv(grid))
        if svg is not None:
            svg.write(render_region_map_svg(grid))
            # Where --out is the same file, cut the CSV bytes past the SVG.
            svg.truncate()
    return 0


def _cmd_verify_table(args: argparse.Namespace) -> int:
    results = run_all(samples_per_case=args.samples, seed=args.seed)
    lines = []
    for result in results:
        lines.append(result.summary())
        lines.extend(f"  {note}" for note in result.notes)
    all_ok = all(result.ok for result in results)
    lines.append("all suites passed" if all_ok else "verification FAILED")
    _write(args, "\n".join(lines) + "\n")
    return 0 if all_ok else 1


def _violations_json(found: list[CoreViolation]) -> str:
    payload = [
        {
            "kind": violation.constraint.kind,
            "coalition": sorted(violation.constraint.coalition),
            "payers": sorted(violation.constraint.payers),
            "bound": violation.constraint.bound,
            "slack": violation.slack,
        }
        for violation in found
    ]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _cmd_core_check(args: argparse.Namespace) -> int:
    if args.llg is not None:
        instance = _profile(args).to_instance()
    else:
        instance = _load_instance(args.instance)
    found = core_violations(instance, args.payments)
    _write(args, _violations_json(found))
    return 1 if found else 0


_COMMANDS = {
    "payments": _cmd_payments,
    "project": _cmd_project,
    "sensitivity": _cmd_sensitivity,
    "derivative": _cmd_derivative,
    "region-map": _cmd_region_map,
    "verify-table": _cmd_verify_table,
    "core-check": _cmd_core_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        # Input errors: JSON decoding and every coreselect error are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
