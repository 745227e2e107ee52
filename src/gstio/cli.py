"""Scenario-driven command line: validate inputs, run simulations, render reports.

Three subcommands:

* ``validate`` — load and cross-check a set of input files, exit 0 iff clean.
* ``run`` — execute one scenario file and write its report CSVs atomically
  (everything is staged to a temp directory and renamed into place).
* ``report`` — render a finished run directory as aligned text, raw CSV, or
  label/value series files for plotting.

Exit codes: 0 ok, 1 usage, 2 validation, 3 numerical failure. Every error
path prints a single line starting with ``ERROR <code>:`` to stderr. Outputs
are byte-identical across runs on the same inputs: fixed row ordering
(sector order, then group id within dimension), fixed float formatting
(6 significant digits, or shortest round-trip repr with --full-precision),
and no timestamps.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .diagnostics import ProductivityReport, productivity_check
from .errors import GstioError, MissingArtifact, NumericalError
from .incidence import (
    ExpenditureMatrix,
    GroupDimension,
    category_report,
    expenditure_change_on_items,  # noqa: F401  (kept importable from gstio.cli)
    gap_ratios,
    purchasing_power_change,
)
from .ingest import _cell_float, _require_width, _rows, _write_csv
from .io_model import derive_coefficients
from .price_model import MaskedInputTreatment
from .scenario import ScenarioConfig, ScenarioResult, load_inputs, load_scenario, run_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

PRICE_TABLE = "price_changes"
SUMMARY_TABLE = "summary"
INCIDENCE_TABLE = "incidence_by_group"
GAPS_TABLE = "gaps"


class _Parser(argparse.ArgumentParser):
    """argparse flavor that exits 1 (not 2) on usage errors, per our exit map."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"ERROR Usage: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _Override(argparse.Action):
    """Store a flag's value parsed as the scenario key its dest names, paths from the cwd.

    A value that key's parser rejects is a usage error that names the flag.
    """

    def __call__(self, parser, namespace, value, option_string=None):
        parse = {spec.name: spec for spec in fields(ScenarioConfig)}[self.dest].metadata["parse"]
        try:
            setattr(namespace, self.dest, parse(value, self.dest, Path.cwd()))
        except ValueError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None


def _number_formatter(full_precision: bool):
    if full_precision:
        return lambda v: repr(float(v))
    return lambda v: format(float(v), ".6g")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _print_productivity(label: str, check: ProductivityReport) -> None:
    lo, hi = check.bracket
    if check.converged:
        radius = f"radius {lo:.6g}"
    else:
        radius = f"radius in [{lo:.6g}, {hi:.6g}] (bracket open after {check.iterations} iterations)"
    print(f"productivity ({label}): {radius} {'pass' if check.passed else 'FAIL'}")


def cmd_validate(args) -> int:
    inputs = load_inputs(args)  # validate's flags are stored under ScenarioConfig's field names
    table, balance = inputs.table, inputs.balance
    print(
        f"table: {table.n} sectors, max row residual {balance.max_row_residual:.3e}, "
        f"max column residual {balance.max_column_residual:.3e}"
    )
    bundle = derive_coefficients(table, check_balance=False)
    base_check = productivity_check(bundle.A)
    _print_productivity("unmasked", base_check)
    for warning in inputs.schedule_warnings:
        print(f"warning: {warning}")
    masked_check = productivity_check(bundle.A, inputs.schedule.standard_share)
    _print_productivity("masked", masked_check)
    ok = base_check.passed and masked_check.passed

    by_sector, by_category = inputs.expenditure, inputs.category_expenditure
    if inputs.weights is not None:
        before = by_category.totals()
        err = float(np.max(np.abs(by_sector.totals() - before) / before))
        print(
            f"expenditure: {len(by_category.groups)} groups, {len(by_category.items)} items, "
            f"concordance conserves totals to {err:.3e}"
        )
    elif by_sector is not None:
        print(f"expenditure: {len(by_sector.groups)} groups on sector codes")
    if inputs.unmapped:
        print(f"category map: MISSING codes {', '.join(inputs.unmapped)}")
        ok = False
    elif inputs.category_map is not None:
        print(f"category map: {len(inputs.category_map.categories)} categories, total over items")
    if not ok:
        print("VALIDATION FAILED")
        print("ERROR ValidationFailed: one or more checks failed (see report)", file=sys.stderr)
        return EXIT_VALIDATION
    print("VALIDATION OK")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _sorted_groups(expenditure: ExpenditureMatrix, dimension: GroupDimension):
    rows = [
        (h, g) for h, g in enumerate(expenditure.groups) if g.dimension is dimension
    ]
    return sorted(rows, key=lambda pair: pair[1].group_id)


def _write_run_outputs(result: ScenarioResult, target: Path, fmt) -> None:
    inputs = result.inputs
    sectors = inputs.table.sectors
    prices = zip(sectors.ids, sectors.names, result.baseline, result.price_level, result.summary.pct_change)
    _write_csv(
        target / "price_changes.csv",
        ["sector_id", "sector_name", "baseline_price", "post_price", "pct_change"],
        ([sector_id, name, *map(fmt, values)] for sector_id, name, *values in prices),
    )

    summary = result.summary
    _write_csv(
        target / "summary.csv",
        ["metric", "value"],
        [
            ["riser_count", str(summary.riser_count)],
            ["riser_mean_pct", fmt(summary.riser_mean)],
            ["decliner_count", str(summary.decliner_count)],
            ["decliner_mean_pct", fmt(summary.decliner_mean)],
            ["net_decline_pct", fmt(summary.net_decline)],
            ["weighted_mean_pct", fmt(summary.weighted_mean)],
        ],
    )

    expenditure = inputs.expenditure
    if expenditure is None:
        return
    totals_before = expenditure.totals()
    totals_after = totals_before + result.delta.sum(axis=1)
    # base_groups holds one entry per dimension that has groups, in GroupDimension order
    gap_rows = []
    for dimension, base_id in result.base_groups.items():
        pairs = _sorted_groups(expenditure, dimension)
        before, after = (
            gap_ratios({g.group_id: float(totals[h]) for h, g in pairs}, base_id)
            for totals in (totals_before, totals_after)
        )
        for h, group in pairs:
            pct = purchasing_power_change(totals_before[h], totals_after[h])
            values = (totals_before[h], totals_after[h], pct, before[group.group_id], after[group.group_id])
            gap_rows.append([dimension.value, group.group_id, group.label, *map(fmt, values)])
    incidence_header = ["dimension", "group_id", "label", "total_before", "total_after", "pct_change"]
    _write_csv(target / "incidence_by_group.csv", incidence_header, [row[:6] for row in gap_rows])
    _write_csv(target / "gaps.csv", [*incidence_header, "ratio_before", "ratio_after"], gap_rows)

    if inputs.category_map is None:
        return
    report = category_report(inputs.category_expenditure, result.category_delta, inputs.category_map)
    by_group = {row.group.group_id: row for row in report.rows}
    category_header = [
        "group_id", "label", "category", "base_share", "post_share", "share_point_change", "pct_change_within"
    ]  # fmt: skip
    for dimension in result.base_groups:
        rows = []
        for _, group in _sorted_groups(inputs.category_expenditure, dimension):
            b = by_group[group.group_id]
            for k, category in enumerate(report.categories):
                values = (b.base_share[k], b.post_share[k], b.share_change[k], b.pct_change[k])
                rows.append([group.group_id, group.label, category, *map(fmt, values)])
            totals = [fmt(b.total_before), fmt(b.total_after), "", fmt(b.total_pct_change)]
            rows.append([group.group_id, group.label, "TOTAL", *totals])
        _write_csv(target / f"category_table_{dimension.value}.csv", category_header, rows)


def cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    # a flag whose dest names a ScenarioConfig field overrides it when given
    overrides = {
        spec.name: getattr(args, spec.name)
        for spec in fields(config)
        if getattr(args, spec.name, None) is not None
    }
    config = replace(config, **overrides)
    result = run_scenario(config)
    for warning in result.inputs.schedule_warnings:
        print(f"warning: {warning}")

    output_dir = config.output_dir
    output_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=output_dir.name + ".stage.", dir=output_dir.parent))
    try:
        _write_run_outputs(result, staging, _number_formatter(config.full_precision))
        if output_dir.exists():
            if not output_dir.is_dir():
                raise GstioError(f"output path {output_dir} exists and is not a directory")
            if not args.force:
                raise GstioError(
                    f"output directory {output_dir} already exists; pass --force to replace it"
                )
            shutil.rmtree(output_dir)
        os.replace(staging, output_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    print(f"run complete: {output_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _run_tables(run_dir: Path) -> dict[str, Path]:
    tables = {}
    for path in sorted(run_dir.glob("*.csv")):
        tables[path.stem] = path
    if PRICE_TABLE not in tables:
        raise MissingArtifact(f"{run_dir} does not contain price_changes.csv (not a run directory?)")
    return tables


def _table_rows(path: Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header of a run table and its ``(line, row)`` pairs, each row as wide as the header."""
    header, records = _rows(path)
    rows = list(records)
    for line, row in rows:
        _require_width(row, len(header), path=path, line=line)
    return header, rows


def _column(path: Path, header: list[str], column: str) -> int:
    if column not in header:
        raise MissingArtifact(f"{path} has no {column} column")
    return header.index(column)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _render_text(title: str, header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[j]) for j, h in enumerate(header)).rstrip())
    for row in rows:
        cells = [
            cell.rjust(widths[j]) if _is_number(cell) else cell.ljust(widths[j])
            for j, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _price_direction(cell: str, *, path: Path, line: int, column: int) -> str:
    """up, down or flat: the sign of the pct_change ``cell`` at ``line`` and ``column`` of ``path``."""
    value = _cell_float(cell, path=path, line=line, column=column)
    return "up" if value > 0 else "down" if value < 0 else "flat"


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise MissingArtifact(f"run directory {run_dir} does not exist")
    tables = _run_tables(run_dir)
    selected = list(tables)
    if args.table is not None:
        if args.table not in tables:
            raise MissingArtifact(
                f"table {args.table!r} not in run directory; available: {', '.join(tables)}"
            )
        selected = [args.table]

    if args.format == "csv":
        if args.table is None:
            raise MissingArtifact("--format csv requires --table (one artifact at a time)")
        sys.stdout.write(tables[args.table].read_text(encoding="utf-8"))
        return EXIT_OK

    if args.format == "text":
        blocks = []
        for name in selected:
            path = tables[name]
            header, rows = _table_rows(path)
            if name == PRICE_TABLE:
                pct = _column(path, header, "pct_change")
                header = ["sector", "pct_change", "direction"]
                rows = [
                    (line, [row[0], row[pct], _price_direction(row[pct], path=path, line=line, column=pct + 1)])
                    for line, row in rows
                ]
            blocks.append(_render_text(name, header, [row for _, row in rows]))
        print("\n\n".join(blocks))
        return EXIT_OK

    # plotdata: one label,value series per table, written once every table has read clean
    all_series = {name: _series_for(name, tables[name]) for name in selected}
    out_dir = Path(args.out) if args.out else run_dir / "plotdata"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, series in all_series.items():
        if series is None:
            continue
        series_path = out_dir / f"{name}_series.csv"
        _write_csv(series_path, ["label", "value"], series)
        print(series_path)
    return EXIT_OK


def _series_for(name: str, path: Path):
    """The ``[label, value]`` rows of table ``name``'s plot series, or None for a table without one.

    Each value is written as its cell's text, once ingest's reader has read
    it as a finite number; a cell that is not one is a located ``ParseError``.
    """
    header, records = _table_rows(path)

    def col(column: str) -> int:
        return _column(path, header, column)

    if name == PRICE_TABLE:
        labels, value = [col("sector_id")], col("pct_change")
    elif name == SUMMARY_TABLE:
        labels, value = [col("metric")], col("value")
    elif name in (INCIDENCE_TABLE, GAPS_TABLE):
        labels, value = [col("group_id")], col("pct_change")
    elif name.startswith("category_table_"):
        labels, value = [col("group_id"), col("category")], col("share_point_change")
        records = [(line, row) for line, row in records if row[labels[1]] != "TOTAL"]
    else:
        return None
    series = []
    for line, row in records:
        _cell_float(row[value], path=path, line=line, column=value + 1)
        series.append([":".join(row[j] for j in labels), row[value]])
    return series


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="gstio", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check input files and report problems")
    # dests are ScenarioConfig's field names, which load_inputs reads
    validate.add_argument("--table", dest="io_table", metavar="TABLE", required=True, help="IO table CSV")
    validate.add_argument(
        "--schedule", dest="rate_schedule", metavar="SCHEDULE", required=True, help="rate schedule CSV"
    )
    validate.add_argument("--expenditure", help="household expenditure CSV")
    validate.add_argument("--concordance", help="item-to-sector concordance CSV")
    validate.add_argument("--category-map", help="reporting category map CSV")
    validate.add_argument("--gst-rate", type=float, default=0.06)
    validate.add_argument("--allow-unbalanced", action="store_true")
    validate.set_defaults(func=cmd_validate)

    run = sub.add_parser("run", help="execute a scenario and write report CSVs")
    run.add_argument("scenario", help="scenario config file")
    run.add_argument("--output-dir", "-o", action=_Override, help="override the scenario's output directory")
    treatments = [t.value for t in MaskedInputTreatment]
    run.add_argument("--treatment", dest="masked_input_treatment", action=_Override, choices=treatments)
    run.add_argument("--exempt-retains-input-tax", action="store_const", const=True)
    run.add_argument("--allow-unbalanced", action="store_const", const=True)
    run.add_argument("--full-precision", action="store_const", const=True)
    run.add_argument("--force", action="store_true", help="replace an existing output directory")
    run.set_defaults(func=cmd_run)

    report = sub.add_parser("report", help="render a run directory")
    report.add_argument("run_dir")
    report.add_argument("--format", choices=["text", "csv", "plotdata"], default="text")
    report.add_argument("--table", help="restrict to one table (stem of the CSV name)")
    report.add_argument("--out", help="plotdata output directory (default: RUN_DIR/plotdata)")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GstioError, OSError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
