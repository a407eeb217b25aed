#!/usr/bin/env python3
"""coreselect benchmark.

    python3 bench/run.py --workload {verify,region-map,general-auction}
                         --seed N --seconds S --trace {0,1}

Runs one workload by calling `coreselect.cli.main(argv)` in this process
with the argv a user would type, on inputs generated from --seed, and
repeats whole passes of it for --seconds. Every command's exit code and
output are checked. The last line of stdout is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it is a
detail record with the machine, the git SHA and the raw samples.

--trace 0 reports the end-to-end metrics. --trace 1 adds one traced pass
after the untraced ones and reports the per-layer metrics; its spans are
written to .bench_out/. Metric names and units come from BENCHMARK.json.
bench/README.md explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from xml.parsers import expat

from auction_gen import SIZES, general_instances
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 7
# Set-up is sampled once per pass, and at least this often per run. Spreading
# the samples over the run keeps a slow stretch of the host from setting them all.
SETUP_SAMPLES = 7
RULES = (
    "first-price",
    "vcg",
    "shapley-no-auctioneer",
    "shapley-payoff-no-auctioneer",
    "shapley-with-auctioneer",
    "shapley-payoff-with-auctioneer",
)
VERIFY_SAMPLES = 1000
RESOLUTION = 200
TOLERANCE = 1e-9
# Payments are printed with six decimals, so each printed entry may be off
# by half a unit in the last place; a sum of n entries by n times that.
PRINT_HALF_UNIT = 0.5e-6

cli = None  # coreselect.cli, imported from this checkout's src/ by _import_program


class Op:
    """Outcome of one CLI command."""

    def __init__(self, label: str, code: int | None, out: str) -> None:
        self.label = label
        self.code = code
        self.out = out
        self.new = False  # first time this label ran in the run
        self.failed = False


class Runner:
    """Runs and times CLI commands and counts failed operations."""

    def __init__(self, expected_digests: dict[str, str]) -> None:
        self.expected = expected_digests
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.pass_s = 0.0
        self.command_s: dict[str, list[float]] = {}
        self.tracer: Tracer | None = None

    def command(self, label: str, argv: list[str], files: tuple[Path, ...] = ()) -> Op:
        """Run `coreselect <argv>`; stdout and `files` are digested and compared."""
        self.attempted += 1
        buffer = io.StringIO()
        error = None
        with contextlib.redirect_stdout(buffer):
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    code = cli.main(argv)
                else:
                    code = self.tracer.call(f"cli.main.{argv[0]}", cli.main, argv)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            except Exception as exc:  # a crash is a failed operation, not a failed run
                code, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self.pass_s += elapsed
        self.command_s.setdefault(label, []).append(elapsed)
        op = Op(label, code, buffer.getvalue())
        if error is not None:
            self.fail(op, error)
            return op
        self.require(op, code != 2, "exit code 2")
        digest = _digest(op.out, files)
        op.new = label not in self.digests
        if op.new:
            self.digests[label] = digest
        self.require(op, digest == self.digests[label], "output differs from the run's first pass")
        if self.expected:
            self.require(
                op, self.expected.get(label) == digest, "output digest differs from bench/digests.json"
            )
        return op

    def require(self, op: Op, condition: bool, message: str) -> None:
        if condition or op.failed:
            return
        op.failed = True
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{op.label}: {message}")

    def fail(self, op: Op, message: str) -> None:
        self.require(op, False, message)


def _digest(text: str, files: tuple[Path, ...]) -> str:
    digest = hashlib.sha256(text.encode("utf-8"))
    for path in files:
        try:
            with open(path, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(chunk)
        except OSError:
            digest.update(b"<missing>")
    return digest.hexdigest()


class Workload:
    name = ""
    # Whether outputs depend on --seed (digests are then recorded for DEFAULT_SEED only).
    seeded = True
    # Layers that must record calls in the traced pass, unless the program no longer has them.
    expected_layers: tuple[str, ...] = ()

    def prepare(self, work: Path, seed: int) -> None:
        work.mkdir(parents=True, exist_ok=True)

    def run_pass(self, runner: Runner, work: Path, seed: int) -> None:
        raise NotImplementedError


class Verify(Workload):
    """verify-table: about 17k three-bidder engine solves against the closed forms."""

    name = "verify"
    expected_layers = (
        "cli.main.verify-table",
        "model.coalition_value_table",
        "model.winner_determination",
        "core.core_violations",
        "core.project_to_mrc",
        "llg.closed_form_reference",
        "llg.numeric_derivative",
        "llg.sample_llg_profile",
    )

    def run_pass(self, runner: Runner, work: Path, seed: int) -> None:
        op = runner.command(
            "verify-table", ["verify-table", "--seed", str(seed), "--samples", str(VERIFY_SAMPLES)]
        )
        runner.require(
            op, op.code == 0 and op.out.endswith("all suites passed\n"), "did not pass all suites"
        )


class RegionMap(Workload):
    """region-map for all six rules: closed forms and the CSV/SVG writers only."""

    name = "region-map"
    seeded = False
    expected_layers = (
        "cli.main.region-map",
        "llg.region_map",
        "llg.projection_derivative",
        "llg.region_map_to_csv",
        "cli.render_region_map_svg",
    )

    def run_pass(self, runner: Runner, work: Path, seed: int) -> None:
        for rule in RULES:
            csv_path, svg_path = work / f"{rule}.csv", work / f"{rule}.svg"
            argv = ["region-map", "--rule", rule, "--resolution", str(RESOLUTION),
                    "--out", str(csv_path), "--svg", str(svg_path)]
            # A command that writes nothing must not pass on the previous pass's files.
            csv_path.unlink(missing_ok=True)
            svg_path.unlink(missing_ok=True)
            op = runner.command(f"region-map-{rule}", argv, files=(csv_path, svg_path))
            runner.require(op, op.code == 0 and op.out == "", "unexpected exit code or stdout")
            if op.new and not op.failed:
                runner.require(op, _csv_rows(csv_path) == RESOLUTION**2, "CSV row count")
                runner.require(op, _svg_parses(svg_path), "SVG does not parse")


def _csv_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        rows = sum(1 for _ in handle)
    return rows if header.startswith("A,B,") else -1


def _svg_parses(path: Path) -> bool:
    parser = expat.ParserCreate()
    root: list[str] = []
    parser.StartElementHandler = lambda name, attrs: root or root.append(name)
    try:
        with open(path, "rb") as handle:
            parser.ParseFile(handle)
    except expat.ExpatError:
        return False
    return root == ["svg"]


class GeneralAuction(Workload):
    """payments for six rules and two core-checks on seeded n = 6..12, m = 8 instances."""

    name = "general-auction"
    expected_layers = (
        "cli.main.payments",
        "cli.main.core-check",
        "model.coalition_value_table",
        "model.winner_determination",
        "reference.reference_point",
        "core.core_violations",
    )

    def prepare(self, work: Path, seed: int) -> None:
        super().prepare(work, seed)
        for n, instance in general_instances(seed).items():
            (work / f"instance-n{n}.json").write_text(json.dumps(instance), encoding="utf-8")

    def run_pass(self, runner: Runner, work: Path, seed: int) -> None:
        for n in SIZES:
            path = str(work / f"instance-n{n}.json")
            ops, printed = {}, {}
            for rule in RULES:
                op = runner.command(
                    f"payments-n{n}-{rule}", ["payments", "--instance", path, "--rule", rule]
                )
                ops[rule], printed[rule] = op, _printed_payments(runner, op, n)
            first_price = printed["first-price"]
            payoffs = printed["shapley-payoff-no-auctioneer"]
            vcg = printed["vcg"]
            if first_price and payoffs:
                revenue = sum(map(float, first_price))
                runner.require(
                    ops["shapley-payoff-no-auctioneer"],
                    abs(sum(map(float, payoffs)) - revenue) <= TOLERANCE + n * PRINT_HALF_UNIT,
                    "Shapley payoffs do not sum to the first-price revenue",
                )
            if first_price and vcg:
                runner.require(
                    ops["vcg"],
                    all(-TOLERANCE <= float(p) <= float(f) + TOLERANCE for p, f in zip(vcg, first_price)),
                    "a VCG payment lies outside [0, first-price payment]",
                )
            if first_price:
                op = runner.command(
                    f"core-check-n{n}-first-price",
                    ["core-check", "--instance", path, "--payments", *first_price],
                )
                runner.require(op, op.code == 0 and op.out == "[]\n", "first price is not in the core")
            if vcg:
                op = runner.command(
                    f"core-check-n{n}-vcg", ["core-check", "--instance", path, "--payments", *vcg]
                )
                violations = _violation_list(op.out)
                runner.require(
                    op,
                    violations is not None and op.code == (1 if violations else 0),
                    "core-check exit code does not match its violation list",
                )


def _printed_payments(runner: Runner, op: Op, n: int) -> list[str] | None:
    """The payment strings of a `payments --instance` line, or None if malformed."""
    pairs = [token.partition("=") for token in op.out.split()]
    values = [value for _, _, value in pairs]
    well_formed = (
        op.code == 0
        and op.out.endswith("\n")
        and [key for key, _, _ in pairs] == [f"p{i}" for i in range(1, n + 1)]
        and all(_is_number(value) for value in values)
    )
    if not well_formed:
        runner.fail(op, "malformed payments line")
        return None
    return values


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _violation_list(text: str) -> list | None:
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    return payload if isinstance(payload, list) else None


WORKLOADS = {workload.name: workload for workload in (Verify(), RegionMap(), GeneralAuction())}


def _import_program() -> None:
    global cli
    if not (SRC / "coreselect" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'coreselect'} not found; run from a coreselect checkout")
    sys.path.insert(0, str(SRC))
    from coreselect import cli as module

    if Path(module.__file__).resolve().parent != SRC / "coreselect":
        raise SystemExit(f"error: imported coreselect from {module.__file__}, not {SRC}")
    cli = module


def _expected_digests(workload: Workload, seed: int) -> dict[str, str]:
    if not DIGESTS.is_file():
        return {}
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if workload.seeded and seed != recorded["seed"]:
        return {}
    return recorded["workloads"].get(workload.name, {})


def _record_digests(workload: Workload, digests: dict[str, str]) -> None:
    recorded = {"seed": DEFAULT_SEED, "workloads": {}}
    if DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    recorded["workloads"][workload.name] = dict(sorted(digests.items()))
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _setup_time(workload: Workload, seed: int, work: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI, writes the inputs and exits."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload.name, "--seed", str(seed), "--work", str(work / "setup")]
    start = time.perf_counter()
    # No timeout: with one, subprocess polls the child in 50 ms sleeps.
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() or None if result.returncode == 0 else None


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _select(values: dict[str, float], section: str) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    return {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in spec}


def _quartiles(samples: list[float]) -> list[float]:
    return statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"write this run's output digests to {DIGESTS.name}")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.prepare(Path(args.work), args.seed)
        return 0
    if args.record_digests and workload.seeded and args.seed != DEFAULT_SEED:
        parser.error(f"digests are recorded at --seed {DEFAULT_SEED}")

    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        workload.prepare(work, args.seed)
        runner = Runner({} if args.record_digests else _expected_digests(workload, args.seed))
        setup: list[float] = []
        passes: list[float] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            if args.trace == 0:
                setup.append(_setup_time(workload, args.seed, work))
            runner.pass_s = 0.0
            workload.run_pass(runner, work, args.seed)
            passes.append(runner.pass_s)
        while args.trace == 0 and len(setup) < SETUP_SAMPLES:
            setup.append(_setup_time(workload, args.seed, work))
        detail = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "git_sha": _git_sha(),
            "machine": _machine(),
            "passes": len(passes),
            "pass_s": passes,
            "pass_s_quartiles": _quartiles(passes),
            "setup_s_samples": setup,
            "command_s": {label: list(times) for label, times in runner.command_s.items()},
        }
        # A pass built from each command's fastest run. The vCPUs of a shared
        # host slow down for seconds at a time and contention only adds time,
        # so a median pass follows how long the host was slow, not the program.
        values = {
            "wall_s": sum(min(times) for times in runner.command_s.values()),
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        correct = True
        if args.trace:
            tracer = Tracer()
            tracer.install()
            runner.tracer = tracer
            runner.pass_s = 0.0
            try:
                workload.run_pass(runner, work, args.seed)
            finally:
                tracer.uninstall()
            values.update(tracer.metrics())
            values["trace.overhead_s"] = runner.pass_s - statistics.median(passes)
            spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv"
            tracer.write_spans(spans_path)
            silent = [
                layer
                for layer in workload.expected_layers
                if layer not in tracer.absent and values[f"{layer}.calls"] == 0
            ]
            correct = not silent
            detail.update(
                traced_pass_s=runner.pass_s,
                absent_layers=tracer.absent,
                silent_layers=silent,
                spans_file=str(spans_path.relative_to(ROOT)),
            )
        if args.record_digests:
            _record_digests(workload, runner.digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update(
        attempted=runner.attempted,
        failed=runner.failed,
        error_rate=runner.failed / runner.attempted,
        failures=runner.messages,
    )
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": _select(values, section),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
