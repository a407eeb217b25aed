"""Command-line front end.

Subcommands: payments, project, sensitivity, derivative, region-map,
verify-table, core-check. Exit codes: 0 on success, 1 when a verification
check fails, 2 on usage or input errors.

Each subparser carries its handler as ``args.run``. ``main`` reads each
input once: it turns ``--rule`` into a ``ReferenceRule``, ``--llg`` into an
``LlgBidProfile`` and the ``--instance`` file into an ``AuctionInstance``
before it dispatches, inside the same ``try`` that turns input errors into
exit code 2, so the handlers get a rule, a profile and an instance. Each
handler returns its exit code and text, and ``main`` writes the text to
``--out`` or stdout; so ``--out`` is opened only once the command has run.
``region-map`` alone streams its CSV and SVG itself and returns no text.

The parser is built on the first call of ``main`` and reused for the rest
of the process. That is safe because ``parse_args`` returns a fresh
namespace on every call, the conversions write only to it, and every
default is immutable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import os
import stat
import sys
from types import SimpleNamespace
from typing import Iterable, TextIO

from .core import CoreViolation, core_violations, project_to_mrc
from .llg import (
    RegionMap,
    classify_case,
    projection_derivative,
    region_map,
    region_map_to_csv,
    closed_form_reference,
    sensitivity,
    sensitivity2,
)
from .model import LlgBidProfile, instance_from_json
from .reference import ReferenceRule, reference_point
from .verify import DEFAULT_SEED, BoundaryProximityError, numeric_derivative, run_all

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

# Buffer size of every file the CLI writes. open() would size it from the
# file system's block size, often 4 KiB, which hands a 200x200 region map
# with CSV and SVG to the kernel in about 800 write calls; 64 KiB takes 85.
WRITE_BUFFER_SIZE = 1 << 16


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


@functools.cache
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

    # main writes each subcommand's text to --out, and region-map streams
    # its CSV there; declared last, so it stays the last option in each --help.
    for p in sub.choices.values():
        p.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def _fmt(value: float) -> str:
    return f"{0.0 if value == 0 else value:.6f}"


def _fmt_vector(values: Iterable[float]) -> str:
    return " ".join(f"p{i + 1}={_fmt(v)}" for i, v in enumerate(values))


def _open_for_writing(path: str) -> TextIO:
    return open(path, "w", encoding="utf-8", buffering=WRITE_BUFFER_SIZE)


def _output(args: argparse.Namespace) -> contextlib.AbstractContextManager[TextIO]:
    """The --out file, opened for writing, or stdout, which stays open."""
    return _open_for_writing(args.out) if args.out else contextlib.nullcontext(sys.stdout)


def _case_label(profile: LlgBidProfile) -> str:
    return classify_case(profile).value if profile.locals_win() else "global_winner"


def _cmd_payments(args: argparse.Namespace) -> tuple[int, str]:
    profile = args.llg
    if profile is None:
        return 0, _fmt_vector(reference_point(args.instance, args.rule)) + "\n"
    # The closed forms hold where the locals win; the engine prices the rest.
    vector = (
        closed_form_reference(profile, args.rule)
        if profile.locals_win()
        else reference_point(profile.to_instance(), args.rule)
    )
    return 0, f"case={_case_label(profile)} {_fmt_vector(vector)}\n"


def _cmd_project(args: argparse.Namespace) -> tuple[int, str]:
    reference = reference_point(args.llg.to_instance(), args.rule)
    projected = project_to_mrc(args.llg, reference, c=args.metric)
    return 0, f"case={_case_label(args.llg)} {_fmt_vector(projected)}\n"


def _cmd_sensitivity(args: argparse.Namespace) -> tuple[int, str]:
    return 0, (
        f"case={classify_case(args.llg).value}"
        f" sens1={_fmt(sensitivity(args.llg, args.rule))}"
        f" sens2={_fmt(sensitivity2(args.llg, args.rule))}\n"
    )


def _cmd_derivative(args: argparse.Namespace) -> tuple[int, str]:
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
    return 0, line + "\n"


def render_region_map_svg(grid: RegionMap, out: TextIO | None = None) -> str | None:
    """Static SVG raster of a region map: one rect per cell, case lines overlaid.

    Like ``region_map_to_csv``, each run's rects go to ``out.write`` as one
    string, and the result is None; without ``out`` the text is returned.
    """
    target = io.StringIO() if out is None else out
    resolution = len(grid.a_values)
    cell = SVG_SIZE / resolution
    # Of the cells, only None, a global-winner cell, is false.
    derivatives = sorted({report.derivative for row in grid.runs for _, _, report in row if report})
    # Each cell's <rect> is its column's x string, its row's y string and the
    # tail for its derivative's colour, each formatted once.
    tails = {
        value: f'" width="{cell:.2f}" height="{cell:.2f}" '
        f'fill="{_SVG_PALETTE[i * (len(_SVG_PALETTE) - 1) // max(len(derivatives) - 1, 1)]}"/>\n'
        for i, value in enumerate(derivatives)
    }
    ys = [f"{(resolution - 1 - j) * cell:.2f}" for j in range(resolution)]
    target.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">\n'
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="#ffffff"/>\n'
    )
    for i, row in enumerate(grid.runs):
        x_prefix = f'<rect x="{i * cell:.2f}" y="'
        for start, stop, report in row:
            if report is not None:
                # One string per run: its rects differ only in their y string.
                tail = tails[report.derivative]
                target.write(x_prefix + (tail + x_prefix).join(ys[start:stop]) + tail)
    # Case boundaries sit at a = g and b = g, i.e. halfway along each axis.
    mid = SVG_SIZE / 2
    target.write(
        f'<line x1="{mid:.2f}" y1="0" x2="{mid:.2f}" y2="{SVG_SIZE}" stroke="#ff0000" stroke-width="1.5"/>\n'
        f'<line x1="0" y1="{mid:.2f}" x2="{SVG_SIZE}" y2="{mid:.2f}" stroke="#ff0000" stroke-width="1.5"/>\n'
        "</svg>\n"
    )
    return target.getvalue() if out is None else None


def _cmd_region_map(args: argparse.Namespace) -> tuple[int, None]:
    grid = region_map(args.rule, g=args.g, resolution=args.resolution)
    # Opened first, so an SVG path that cannot be opened fails before any
    # output. The CSV is flushed, and its file closed, before the SVG is
    # written, so where --out or stdout is the SVG's target too none of its
    # buffered bytes land after the SVG.
    with _open_for_writing(args.svg) if args.svg else contextlib.nullcontext() as svg:
        with _output(args) as out:
            region_map_to_csv(grid, out)
            out.flush()
        if svg is not None:
            render_region_map_svg(grid, svg)
            # Where --out is the same file, cut the CSV bytes past the SVG.
            # Only a regular file can hold them; /dev/null or a pipe cannot
            # be truncated.
            if stat.S_ISREG(os.fstat(svg.fileno()).st_mode):
                svg.truncate()
    return 0, None


def _cmd_verify_table(args: argparse.Namespace) -> tuple[int, str]:
    results = run_all(samples_per_case=args.samples, seed=args.seed)
    lines = []
    for result in results:
        lines.append(result.summary())
        lines.extend(f"  {note}" for note in result.notes)
    all_ok = all(result.ok for result in results)
    lines.append("all suites passed" if all_ok else "verification FAILED")
    return (0 if all_ok else 1), "\n".join(lines) + "\n"


def _violations_json(found: list[CoreViolation]) -> str:
    """The report ``json.dumps(payload, indent=2, allow_nan=False) + "\\n"`` gives.

    json never uses its C encoder when ``indent`` is set, so the text is
    built here: a kind is one of three plain words, ids are ints, and
    ``bound`` and ``slack`` print by ``float.__repr__``, as json prints a
    float. A number that is not finite is a ``ValueError``, as with
    ``allow_nan=False``.
    """
    if not found:
        return "[]\n"
    entries = []
    for violation in found:
        constraint = violation.constraint
        bound, slack = constraint.bound, violation.slack
        if not (math.isfinite(bound) and math.isfinite(slack)):
            raise ValueError(
                f"Out of range float values are not JSON compliant: {bound!r}, {slack!r}"
            )
        entries.append(
            f'  {{\n    "kind": "{constraint.kind}",\n'
            f'    "coalition": {_json_ids(constraint.coalition)},\n'
            f'    "payers": {_json_ids(constraint.payers)},\n'
            f'    "bound": {bound!r},\n    "slack": {slack!r}\n  }}'
        )
    return "[\n" + ",\n".join(entries) + "\n]\n"


def _json_ids(ids: frozenset[int]) -> str:
    """The sorted ids as a JSON array at ``_violations_json``'s depth."""
    if not ids:
        return "[]"
    return "[\n      " + ",\n      ".join(map(str, sorted(ids))) + "\n    ]"


def _cmd_core_check(args: argparse.Namespace) -> tuple[int, str]:
    instance = args.instance if args.llg is None else args.llg.to_instance()
    found = core_violations(instance, args.payments)
    return (1 if found else 0), _violations_json(found)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # Each input is read here once; the handlers get a rule, a profile
        # and an instance.
        if hasattr(args, "rule"):
            args.rule = ReferenceRule(args.rule)
        if getattr(args, "llg", None) is not None:
            args.llg = LlgBidProfile(*args.llg)
        if getattr(args, "instance", None) is not None:
            with open(args.instance, encoding="utf-8") as handle:
                args.instance = instance_from_json(handle.read())
        code, text = args.run(args)
        # Only region-map, which streams its own files, returns no text.
        if text is not None:
            with _output(args) as out:
                out.write(text)
        return code
    except (OSError, ValueError) as exc:
        # Input errors: JSON decoding and every coreselect error are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
