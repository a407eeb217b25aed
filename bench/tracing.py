"""Outside-in tracing of coreselect's public functions.

The tracer wraps each function in LAYERS and records one span per call:
name, parent span, start and end. Spans stay in memory and are written out
when the run ends. Counts that need the arguments or the result (coalition
subsets, emitted constraints, output bytes) are taken by small observers
at the same boundary.

coreselect modules import each other's functions by name (`from .model
import coalition_value_table`), so every module holds its own binding of
the same object. `install` replaces the binding in every coreselect module
that holds the original; patching only the defining module would miss the
calls made through the others.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "model.coalition_value_table",
    "model.winner_determination",
    "reference.first_price",
    "reference.vcg",
    "reference.shapley_payoffs",
    "reference.shapley_payments",
    "reference.reference_point",
    "reference.auctioneer_payoff",
    "core.core_constraints",
    "core.core_violations",
    "core.project_to_mrc",
    "llg.projection_derivative",
    "llg.region_map",
    "llg.region_map_to_csv",
    "cli.render_region_map_svg",
    "llg.numeric_derivative",
    "llg.closed_form_reference",
    "llg.sample_llg_profile",
    "verify.engine_reference_pairs",
)

VERIFY_SUITES = (
    "closed_form_table_suite",
    "sensitivity_consistency_suite",
    "derivative_oracle_suite",
    "threshold_table_suite",
    "shapley_axiom_suite",
    "projection_suite",
)

SUBCOMMANDS = ("verify-table", "region-map", "payments", "core-check")

# Bidder counts the workloads produce: 1-5 in verify's random instances,
# 3 for LLG, and the general-auction sizes.
TABLE_SIZES = (1, 2, 3, 4, 5, 6, 8, 10, 12)

_TABLE = "model.coalition_value_table"
_CONSTRAINTS = "core.core_constraints"


def _first_argument(args: tuple, kwargs: dict):
    return args[0] if args else next(iter(kwargs.values()))


def _observe_table(tracer, index, args, kwargs, result, error):
    instance = _first_argument(args, kwargs)
    tracer.table_bidders[index] = instance.n
    tracer.arguments[_TABLE].append(instance)
    tracer.counts[f"{_TABLE}.subsets"] += (1 << instance.n) - 1


def _observe_constraints(tracer, index, args, kwargs, result, error):
    tracer.arguments[_CONSTRAINTS].append(_first_argument(args, kwargs))
    if result is not None:
        tracer.counts[f"{_CONSTRAINTS}.constraints"] += len(result)


def _observe_violations(tracer, index, args, kwargs, result, error):
    if result is not None:
        tracer.counts["core.core_violations.violations"] += len(result)


def _observe_numeric(tracer, index, args, kwargs, result, error):
    if type(error).__name__ == "BoundaryProximityError":
        tracer.counts["llg.numeric_derivative.rejected"] += 1


def _bytes_observer(layer):
    def observe(tracer, index, args, kwargs, result, error):
        if result is not None:
            tracer.counts[f"{layer}.bytes"] += len(result.encode("utf-8"))

    return observe


_OBSERVERS = {
    _TABLE: _observe_table,
    _CONSTRAINTS: _observe_constraints,
    "core.core_violations": _observe_violations,
    "llg.numeric_derivative": _observe_numeric,
    "llg.region_map_to_csv": _bytes_observer("llg.region_map_to_csv"),
    "cli.render_region_map_svg": _bytes_observer("cli.render_region_map_svg"),
}


class Tracer:
    """Span recorder for one traced pass; create, `install`, run, `uninstall`."""

    def __init__(self) -> None:
        # (name, parent index or -1, start ns, end ns); None while the call is open.
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.arguments: defaultdict[str, list] = defaultdict(list)
        self.table_bidders: dict[int, int] = {}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` recorded around every call."""
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
                if observe is not None:
                    observe(self, index, args, kwargs, result, error)

        return traced

    def call(self, name: str, fn, *args):
        """Call `fn(*args)` inside a span named `name`."""
        return self.wrap(name, fn)(*args)

    def install(self) -> None:
        """Wrap LAYERS and the verify suites in every coreselect module."""
        package = [
            module
            for name, module in sys.modules.items()
            if name == "coreselect" or name.startswith("coreselect.")
        ]
        layers = LAYERS + tuple(f"verify.{suite}" for suite in VERIFY_SUITES)
        for layer in layers:
            module_name, function = layer.rsplit(".", 1)
            original = getattr(sys.modules.get(f"coreselect.{module_name}"), function, None)
            if original is None:
                self.absent.append(layer)
                continue
            traced = self.wrap(layer, original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, total and self seconds, and the observer counts."""
        spans = [span for span in self.spans if span is not None]
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter[str] = Counter()
        total_ns: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        table_self_ns: defaultdict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, _, start, end = span
            own = end - start - child_ns[index]
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += own
            if index in self.table_bidders:
                table_self_ns[self.table_bidders[index]].append(own)

        out: dict[str, float] = {}
        names = list(LAYERS) + [f"cli.main.{command}" for command in SUBCOMMANDS]
        for name in names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total_ns[name] / 1e9
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for suite in VERIFY_SUITES:
            out[f"verify.{suite}.total_s"] = total_ns[f"verify.{suite}"] / 1e9
        for n in TABLE_SIZES:
            samples = table_self_ns.get(n, [])
            out[f"{_TABLE}.self_s_per_call.n{n}"] = sum(samples) / len(samples) / 1e9 if samples else 0.0
        for name in (_TABLE, _CONSTRAINTS):
            seen = self.arguments[name]
            out[f"{name}.distinct_ratio"] = len(set(seen)) / len(seen) if seen else 0.0
        for key in (
            f"{_TABLE}.subsets",
            f"{_CONSTRAINTS}.constraints",
            "core.core_violations.violations",
            "llg.numeric_derivative.rejected",
            "llg.region_map_to_csv.bytes",
            "cli.render_region_map_svg.bytes",
        ):
            out[key] = self.counts[key]
        numeric = calls["llg.numeric_derivative"]
        rejected = self.counts["llg.numeric_derivative.rejected"]
        out["llg.numeric_derivative.useful_ratio"] = (numeric - rejected) / numeric if numeric else 0.0
        out["trace.spans"] = len(spans)
        return out

    def write_spans(self, path: Path) -> None:
        """Write the spans as CSV: index, parent, name, start and end in ns from the first span."""
        origin = min((span[2] for span in self.spans if span is not None), default=0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,parent,name,start_ns,end_ns\n")
            for index, span in enumerate(self.spans):
                if span is not None:
                    name, parent, start, end = span
                    handle.write(f"{index},{parent},{name},{start - origin},{end - origin}\n")
