"""Traced run: replays the pipeline stage by stage through gstio's public
functions and times each layer from outside.

Spans (name, start, end, parent, workload, iteration) and the counter deltas
over each span are kept in memory and written out once at the end. Counters
come from wrapping numpy's factorising routines for the traced stages only;
the untraced ``cli.run_scenario`` call in each iteration runs bare, so the
traced replay minus it is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

import gstio
from gstio import cli
from gstio.incidence import ExpenditureBasis, ExpenditureMatrix

import oracle
from gen import Inputs

FACTORISING = ("solve", "inv", "eig", "eigvals", "lstsq")


class Tracer:
    """In-memory spans with per-span counter deltas."""

    def __init__(self, workload: str):
        self.workload = workload
        self.iteration = 0
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "iteration": self.iteration,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        before = Counter(self.counters)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            record["counts"] = dict(self.counters - before)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def finish(self) -> list[dict]:
        """Spans with their duration and self time (duration minus children)."""
        child_time = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [
            {**s, "duration_s": s["end"] - s["start"], "self_s": s["end"] - s["start"] - child_time[s["id"]]}
            for s in self.spans
        ]


@contextlib.contextmanager
def count_linalg(counters: Counter):
    """Count calls to numpy's factorising routines while the block runs.

    For solve and inv the computed cost of the LU solve is added too:
    2/3·n³ + 2·n²·k operations and 8·(n² + n·k) bytes for an n×n matrix and
    k right-hand sides (k = n for inv).
    """
    originals = {name: getattr(np.linalg, name) for name in FACTORISING}

    def wrap(name, fn):
        def counted(a, *args, **kwargs):
            counters["linalg_calls"] += 1
            if name in ("solve", "inv"):
                n = np.shape(a)[-1]
                b = args[0] if args else kwargs.get("b")
                k = n if b is None else (1 if np.ndim(b) == 1 else np.shape(b)[-1])
                counters["solve_flops"] += round(2 * n**3 / 3 + 2 * n * n * k)
                counters["solve_bytes"] += 8 * (n * n + n * k)
            return fn(a, *args, **kwargs)

        return counted

    try:
        for name, fn in originals.items():
            setattr(np.linalg, name, wrap(name, fn))
        yield
    finally:
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)


def _quiet(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def replay(tr: Tracer, config) -> dict:
    """The stages of cli.run_scenario, in its order, one span each."""
    table, _ = tr.call("ingest.load_io_table", gstio.load_io_table, config.io_table)
    schedule, _ = tr.call(
        "ingest.load_rate_schedule", gstio.load_rate_schedule, config.rate_schedule, table.sectors, gst_rate=config.gst_rate
    )
    bundle = tr.call("io_model.derive_coefficients", gstio.derive_coefficients, table, check_balance=False)
    tr.call("price_model.baseline_prices", gstio.baseline_prices, bundle)
    prices = tr.call(
        "price_model.simulate_prices",
        gstio.simulate_prices,
        bundle,
        schedule,
        masked_input_treatment=config.masked_input_treatment,
        exempt_retains_input_tax=config.exempt_retains_input_tax,
    )
    tr.call("price_model.price_change_summary", gstio.price_change_summary, prices, output=table.x)
    if config.concordance:
        raw = tr.call("ingest.load_expenditure", gstio.load_expenditure, config.expenditure, basis=ExpenditureBasis.ITEM_CODES)
        concordance = tr.call("ingest.load_concordance", gstio.load_concordance, config.concordance, table.sectors)
        expenditure = tr.call("ingest.map_expenditure", gstio.map_expenditure, raw, concordance)
        weights = tr.call("ingest.weight_matrix", concordance.weight_matrix, raw.items)
        by_category = raw
        category_delta = tr.call("cli.expenditure_change_on_items", cli.expenditure_change_on_items, raw, weights @ prices)
    else:
        raw = tr.call("ingest.load_expenditure", gstio.load_expenditure, config.expenditure, basis=ExpenditureBasis.SECTOR_CODES)
        expenditure = tr.call("ingest.align_expenditure", gstio.align_expenditure, raw, table.sectors)
        by_category = expenditure
        category_delta = None
    delta = tr.call("incidence.expenditure_change", gstio.expenditure_change, expenditure, prices)
    category_map = tr.call("ingest.load_category_map", gstio.load_category_map, config.category_map)
    return {
        "table": table,
        "schedule": schedule,
        "bundle": bundle,
        "prices": prices,
        "raw": raw,
        "expenditure": expenditure,
        "by_category": by_category,
        "category_delta": delta if category_delta is None else category_delta,
        "category_map": category_map,
    }


def other_layers(tr: Tracer, inputs: Inputs, r: dict) -> list[str]:
    """Layers outside cli.run_scenario, timed on the replay's own objects.

    The mapping stage the workload's scenario does not use is timed too:
    item-coded expenditure is aligned after mapping; sector-coded
    expenditure is mapped through the identity concordance, which must
    give the aligned matrix back.
    """
    table, bundle, schedule = r["table"], r["bundle"], r["schedule"]
    tr.call("io_model.balance_report", gstio.balance_report, table)
    with tr.span("io_model.spectral_radius") as record:
        record["result"] = gstio.spectral_radius(bundle.A.T * schedule.standard_share)[1:]
    for mask in (None, schedule.standard_share):
        productivity_check(tr, bundle, mask)
    tr.call("incidence.category_report", gstio.category_report, r["by_category"], r["category_delta"], r["category_map"])
    if inputs.item_coded:
        tr.call("ingest.align_expenditure", gstio.align_expenditure, r["expenditure"], table.sectors)
        return []
    concordance = tr.call("ingest.load_concordance", gstio.load_concordance, inputs.path("concordance.csv"), table.sectors)
    raw = r["raw"]
    items = ExpenditureMatrix(raw.groups, raw.items, raw.values, ExpenditureBasis.ITEM_CODES)
    tr.call("ingest.weight_matrix", concordance.weight_matrix, items.items)
    mapped = tr.call("ingest.map_expenditure", gstio.map_expenditure, items, concordance)
    if np.array_equal(mapped.values, r["expenditure"].values):
        return []
    return ["identity concordance does not reproduce the aligned expenditure"]


def productivity_check(tr: Tracer, bundle, mask):
    with tr.span("diagnostics.productivity_check") as record:
        check = gstio.productivity_check(bundle.A, mask)
        record["result"] = (check.iterations, check.converged)
    return check


def cli_layers(tr: Tracer, scenario: Path, out: Path, run_flags: list[str]) -> list[str]:
    """In-process `gstio run` into ``out``, then both report formats on it."""
    code = tr.call("cli.run", _quiet, ["run", str(scenario), "-o", str(out), "--force", *run_flags])
    with tr.span("cli.report"):
        codes = {
            _quiet(["report", str(out), "--format", "text"]),
            _quiet(["report", str(out), "--format", "plotdata", "--out", str(out.parent / "plotdata")]),
        }
    problems = [] if code == 0 else [f"in-process gstio run exited {code}"]
    return problems + ([] if codes == {0} else [f"in-process gstio report exited {sorted(codes)}"])


def sweep_layers(tr: Tracer, inputs: Inputs, setup, expected: dict) -> list[str]:
    """One whole sweep, each scenario a span holding its price-model spans.

    ``expected`` maps (mask, rate index) to oracle prices for the first and
    last rate of every mask.
    """
    table, bundle, expenditure, schedules = setup
    problems = []
    for m, mask_schedules in enumerate(schedules):
        productivity_check(tr, bundle, mask_schedules[0].standard_share)
        for k, schedule in enumerate(mask_schedules):
            with tr.span("sweep.scenario"):
                prices = tr.call("price_model.simulate_prices", gstio.simulate_prices, bundle, schedule)
                tr.call("price_model.price_change_summary", gstio.price_change_summary, prices, output=table.x)
                tr.call("incidence.expenditure_change", gstio.expenditure_change, expenditure, prices).sum(axis=1)
            if (m, k) in expected:
                problems += oracle.check_prices(prices, expected[m, k], f"sweep mask {m} rate {k}")
    return problems


def traced_run(
    inputs: Inputs,
    scenario: Path,
    *,
    workload: str,
    seconds: float,
    run_flags: list[str],
    expected: np.ndarray,
    import_gstio,
    sweep=None,
) -> tuple[dict[str, float], int, int, list[str], list[dict]]:
    """Replay the workload until ``seconds`` have passed (at least once).

    Each iteration replays cli.run_scenario stage by stage with spans and
    counters, times it bare, runs `gstio run` and `gstio report` in process,
    times the other layers and the sweep, if any, and checks the
    replayed prices, the in-process run's output files and their
    byte-identity with the previous iteration. ``import_gstio`` starts a
    fresh interpreter that imports gstio. ``sweep`` is (set-up, expected)
    for the sweep workload. Returns the per-layer metrics, the iterations
    attempted and failed, the problems found and the spans.
    """
    tr = Tracer(workload)
    out = inputs.path("traced_out")
    problems: list[str] = []
    failed = 0
    previous = None
    # Untimed warm-up: the first call in a process pays for cold caches.
    cli.run_scenario(gstio.load_scenario(scenario))
    start = time.perf_counter()
    while tr.iteration == 0 or time.perf_counter() - start < seconds:
        with tr.span("iteration"):
            config = tr.call("scenario.load_scenario", gstio.load_scenario, scenario)
            with count_linalg(tr.counters), tr.span("replay"):
                r = replay(tr, config)
            # Bare, right between the two runs it is subtracted from, so that
            # all three see the machine in the same state.
            tr.call("cli.run_scenario", cli.run_scenario, config)
            errors = cli_layers(tr, scenario, out, run_flags)
            with count_linalg(tr.counters):
                errors += other_layers(tr, inputs, r)
                if sweep is not None:
                    errors += sweep_layers(tr, inputs, *sweep)
            tr.call("cli.import", import_gstio)
        errors += oracle.check_prices(r["prices"], expected, "replayed scenario")
        errors += oracle.check_run_dir(out, inputs, expected, full_precision="--full-precision" in run_flags)
        outputs = oracle.run_dir_bytes(out)
        if previous is not None and outputs != previous:
            errors.append("two in-process runs of the scenario wrote different bytes")
        previous = outputs
        failed += bool(errors)
        problems += errors
        tr.iteration += 1
    metrics = layer_metrics(tr, inputs, out)
    return metrics, tr.iteration, failed, problems, tr.finish()


# Spans whose median duration is reported as <name>.s.
TIMED = (
    "scenario.load_scenario",
    "ingest.load_io_table",
    "ingest.load_rate_schedule",
    "ingest.load_expenditure",
    "ingest.load_concordance",
    "ingest.weight_matrix",
    "ingest.map_expenditure",
    "ingest.align_expenditure",
    "ingest.load_category_map",
    "io_model.derive_coefficients",
    "io_model.balance_report",
    "io_model.spectral_radius",
    "diagnostics.productivity_check",
    "price_model.baseline_prices",
    "price_model.simulate_prices",
    "price_model.price_change_summary",
    "incidence.expenditure_change",
    "incidence.category_report",
    "cli.run_scenario",
    "cli.run",
    "cli.report",
    "cli.import",
)


def layer_metrics(tr: Tracer, inputs: Inputs, out: Path) -> dict[str, float]:
    median = statistics.median
    metrics = {f"{name}.s": median(tr.durations(name)) for name in TIMED}
    n = len(inputs.table.x)
    numeric_cells = n * (n + 3) + 4 * n
    metrics["ingest.load_io_table.cells_per_s"] = numeric_cells / metrics["ingest.load_io_table.s"]
    rows = inputs.expenditure.values.size
    metrics["ingest.load_expenditure.rows_per_s"] = rows / metrics["ingest.load_expenditure.s"]

    def results(name):
        return [s["result"] for s in tr.spans if s["name"] == name]

    metrics["io_model.spectral_radius.iterations"] = median(it for it, _ in results("io_model.spectral_radius"))
    checks = results("diagnostics.productivity_check")
    metrics["diagnostics.productivity_check.iterations"] = median(it for it, _ in checks)
    metrics["diagnostics.productivity_check.converged"] = float(all(ok for _, ok in checks))

    # A scenario is one sweep step in the sweep workload, one replayed run otherwise.
    scenarios = [s for s in tr.spans if s["name"] == "sweep.scenario"] or [s for s in tr.spans if s["name"] == "replay"]
    for counter in ("linalg_calls", "solve_flops", "solve_bytes"):
        metrics[f"price_model.{counter}"] = median(s["counts"].get(counter, 0) for s in scenarios)

    by_iteration: dict[int, dict[str, float]] = {}
    replay_children: Counter = Counter()
    replay_ids = {s["id"]: s["iteration"] for s in tr.spans if s["name"] == "replay"}
    for s in tr.spans:
        by_iteration.setdefault(s["iteration"], {})[s["name"]] = s["end"] - s["start"]
        if s["parent"] in replay_ids:
            replay_children[replay_ids[s["parent"]]] += s["end"] - s["start"]
    bare = [by_iteration[i]["cli.run_scenario"] for i in sorted(by_iteration)]
    metrics["cli.write.s"] = median(by_iteration[i]["cli.run"] - b for i, b in zip(sorted(by_iteration), bare))
    metrics["cli.output_bytes"] = sum(p.stat().st_size for p in out.glob("*.csv"))
    metrics["trace.coverage"] = median(replay_children[i] / b for i, b in zip(sorted(by_iteration), bare))
    metrics["trace.overhead_s"] = median(tr.durations("replay")) - median(bare)
    return metrics
