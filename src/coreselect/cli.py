"""Command-line front end.

Subcommands: payments, project, sensitivity, derivative, region-map,
verify-table, core-check. Exit codes: 0 on success, 1 when a verification
check fails, 2 on usage or input errors.

Each subparser carries its handler as ``args.run``. ``main`` reads each
input once: it turns ``--rule`` into a ``ReferenceRule`` and ``--llg`` into
an ``LlgBidProfile`` before it dispatches, inside the same ``try`` that
turns input errors into exit code 2, so the handlers get a rule and a
profile.
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

    def add_llg(target, **kwargs) -> None:
        # target is a subparser, or the --llg/--instance group of one.
        target.add_argument("--llg", nargs=3, type=float, metavar=("A", "B", "G"), **kwargs)

    def add_llg_or_instance(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        add_llg(group)
        group.add_argument("--instance", help="path to an instance JSON file")

    def add_rule(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rule", choices=_RULE_CHOICES, required=True, help="reference rule")

    def add_llg_and_rule(p: argparse.ArgumentParser) -> None:
        add_llg(p, required=True, help="LLG shorthand: local bid 1, local bid 2, global bundle bid")
        add_rule(p)

    p = sub.add_parser("payments", help="reference payment/payoff vector for a profile")
    p.set_defaults(run=_cmd_payments)
    add_llg_or_instance(p)
    add_rule(p)

    p = sub.add_parser("project", help="minimum-revenue core-selecting payment")
    p.set_defaults(run=_cmd_project)
    add_llg_and_rule(p)
    p.add_argument("--metric", type=float, default=2.0, help="L_c metric exponent, c > 1")

    p = sub.add_parser("sensitivity", help="sensitivities of the reference rule to both local bids")
    p.set_defaults(run=_cmd_sensitivity)
    add_llg_and_rule(p)

    p = sub.add_parser("derivative", help="projected-payment derivative with numeric cross-check")
    p.set_defaults(run=_cmd_derivative)
    add_llg_and_rule(p)
    p.add_argument("--step", type=float, default=None, help="finite-difference step")

    p = sub.add_parser("region-map", help="derivative map over the local-bid plane as CSV")
    p.set_defaults(run=_cmd_region_map)
    add_rule(p)
    p.add_argument("--g", type=float, default=1.0, help="global bundle bid (default 1.0)")
    p.add_argument("--resolution", type=int, default=200, help="grid points per axis")
    p.add_argument("--svg", help="also render the map to this SVG path")

    p = sub.add_parser("verify-table", help="run the randomized cross-verification suites")
    p.set_defaults(run=_cmd_verify_table)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed (default 7)")
    p.add_argument("--samples", type=int, default=1000, help="sampled profiles per case")

    p = sub.add_parser("core-check", help="check a payment vector against the core constraints")
    p.set_defaults(run=_cmd_core_check)
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


def _case_label(profile: LlgBidProfile) -> str:
    return classify_case(profile).value if profile.locals_win() else "global_winner"


def _cmd_payments(args: argparse.Namespace) -> int:
    profile = args.llg
    if profile is None:
        line = _fmt_vector(reference_point(_load_instance(args.instance), args.rule))
    else:
        # The closed forms hold where the locals win; the engine prices the rest.
        vector = (
            closed_form_reference(profile, args.rule)
            if profile.locals_win()
            else reference_point(profile.to_instance(), args.rule)
        )
        line = f"case={_case_label(profile)} {_fmt_vector(vector)}"
    _write(args, line + "\n")
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    reference = reference_point(args.llg.to_instance(), args.rule)
    projected = project_to_mrc(args.llg, reference, c=args.metric)
    _write(args, f"case={_case_label(args.llg)} {_fmt_vector(projected)}\n")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    line = (
        f"case={classify_case(args.llg).value}"
        f" sens1={_fmt(sensitivity(args.llg, args.rule))}"
        f" sens2={_fmt(sensitivity2(args.llg, args.rule))}\n"
    )
    _write(args, line)
    return 0


def _cmd_derivative(args: argparse.Namespace) -> int:
    report = projection_derivative(args.llg, args.rule)
    try:
        numeric = _fmt(numeric_derivative(args.llg, args.rule, args.step))
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
    grid = region_map(args.rule, g=args.g, resolution=args.resolution)
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
    instance = _load_instance(args.instance) if args.llg is None else args.llg.to_instance()
    found = core_violations(instance, args.payments)
    _write(args, _violations_json(found))
    return 1 if found else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Each input is read here once; the handlers get a rule and a profile.
        if hasattr(args, "rule"):
            args.rule = ReferenceRule(args.rule)
        if getattr(args, "llg", None) is not None:
            args.llg = LlgBidProfile(*args.llg)
        return args.run(args)
    except (OSError, ValueError) as exc:
        # Input errors: JSON decoding and every coreselect error are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
