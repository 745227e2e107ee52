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
import csv
import os
import shutil
import sys
import tempfile
from dataclasses import replace
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
from .ingest import _write_csv, load_category_map, load_household, load_io_table, load_rate_schedule
from .io_model import derive_coefficients
from .price_model import MaskedInputTreatment
from .scenario import ScenarioResult, load_scenario, run_scenario

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


def _number_formatter(full_precision: bool):
    if full_precision:
        return lambda v: repr(float(v))
    return lambda v: format(float(v), ".6g")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _print_productivity(label: str, check: ProductivityReport) -> None:
    radius = f"radius {check.spectral_radius:.6g}"
    if not check.converged:
        radius += f" (unconverged estimate after {check.iterations} iterations)"
    print(f"productivity ({label}): {radius} {'pass' if check.passed else 'FAIL'}")


def cmd_validate(args) -> int:
    table, balance = load_io_table(args.table, allow_unbalanced=args.allow_unbalanced)
    print(
        f"table: {table.n} sectors, max row residual {balance.max_row_residual:.3e}, "
        f"max column residual {balance.max_column_residual:.3e}"
    )
    bundle = derive_coefficients(table, check_balance=False)
    base_check = productivity_check(bundle.A)
    _print_productivity("unmasked", base_check)
    schedule, warnings = load_rate_schedule(args.schedule, table.sectors, gst_rate=args.gst_rate)
    for warning in warnings:
        print(f"warning: {warning}")
    masked_check = productivity_check(bundle.A, schedule.standard_share)
    _print_productivity("masked", masked_check)
    ok = base_check.passed and masked_check.passed

    if args.expenditure:
        by_sector, by_category, weights = load_household(
            args.expenditure, args.concordance, table.sectors
        )
        if weights is None:
            print(f"expenditure: {len(by_sector.groups)} groups on sector codes")
        else:
            before = by_category.totals()
            err = float(np.max(np.abs(by_sector.totals() - before) / before))
            print(
                f"expenditure: {len(by_category.groups)} groups, {len(by_category.items)} items, "
                f"concordance conserves totals to {err:.3e}"
            )
        if args.category_map:
            cmap = load_category_map(args.category_map)
            missing = [c for c in by_category.items if c not in cmap.assignments]
            if missing:
                print(f"category map: MISSING codes {', '.join(missing)}")
                ok = False
            else:
                print(f"category map: {len(cmap.categories)} categories, total over items")
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
    table = result.table
    rows = []
    for i, sector_id in enumerate(table.sectors.ids):
        rows.append(
            [
                sector_id,
                table.sectors.names[i],
                fmt(result.baseline[i]),
                fmt(result.price_level[i]),
                fmt(result.summary.pct_change[i]),
            ]
        )
    _write_csv(
        target / "price_changes.csv",
        ["sector_id", "sector_name", "baseline_price", "post_price", "pct_change"],
        rows,
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

    if result.expenditure is None:
        return
    expenditure = result.expenditure
    delta = result.delta
    totals_before = expenditure.totals()
    totals_after = totals_before + delta.sum(axis=1)

    gap_rows = []
    for dimension in GroupDimension:
        pairs = _sorted_groups(expenditure, dimension)
        if not pairs:
            continue
        before = {g.group_id: float(totals_before[h]) for h, g in pairs}
        after = {g.group_id: float(totals_after[h]) for h, g in pairs}
        base_id = result.base_groups[dimension]
        ratios_before = gap_ratios(before, base_id)
        ratios_after = gap_ratios(after, base_id)
        for h, group in pairs:
            pct = purchasing_power_change(totals_before[h], totals_after[h])
            gap_rows.append(
                [
                    dimension.value,
                    group.group_id,
                    group.label,
                    fmt(totals_before[h]),
                    fmt(totals_after[h]),
                    fmt(pct),
                    fmt(ratios_before[group.group_id]),
                    fmt(ratios_after[group.group_id]),
                ]
            )
    _write_csv(
        target / "incidence_by_group.csv",
        ["dimension", "group_id", "label", "total_before", "total_after", "pct_change"],
        [row[:6] for row in gap_rows],
    )
    _write_csv(
        target / "gaps.csv",
        [
            "dimension",
            "group_id",
            "label",
            "total_before",
            "total_after",
            "pct_change",
            "ratio_before",
            "ratio_after",
        ],
        gap_rows,
    )

    if result.category_map is None:
        return
    report = category_report(result.category_expenditure, result.category_delta, result.category_map)
    by_group = {row.group.group_id: row for row in report.rows}
    for dimension in GroupDimension:
        pairs = _sorted_groups(result.category_expenditure, dimension)
        if not pairs:
            continue
        rows = []
        for _, group in pairs:
            breakdown = by_group[group.group_id]
            for k, category in enumerate(report.categories):
                rows.append(
                    [
                        group.group_id,
                        group.label,
                        category,
                        fmt(breakdown.base_share[k]),
                        fmt(breakdown.post_share[k]),
                        fmt(breakdown.share_change[k]),
                        fmt(breakdown.pct_change[k]),
                    ]
                )
            rows.append(
                [
                    group.group_id,
                    group.label,
                    "TOTAL",
                    fmt(breakdown.total_before),
                    fmt(breakdown.total_after),
                    "",
                    fmt(breakdown.total_pct_change),
                ]
            )
        _write_csv(
            target / f"category_table_{dimension.value}.csv",
            [
                "group_id",
                "label",
                "category",
                "base_share",
                "post_share",
                "share_point_change",
                "pct_change_within",
            ],
            rows,
        )


def cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    overrides = {}
    if args.output_dir is not None:
        overrides["output_dir"] = Path(args.output_dir).resolve()
    if args.treatment is not None:
        overrides["masked_input_treatment"] = MaskedInputTreatment(args.treatment)
    if args.exempt_retains_input_tax:
        overrides["exempt_retains_input_tax"] = True
    if args.allow_unbalanced:
        overrides["allow_unbalanced"] = True
    if args.full_precision:
        overrides["full_precision"] = True
    if overrides:
        config = replace(config, **overrides)

    result = run_scenario(config)
    for warning in result.schedule_warnings:
        print(f"warning: {warning}")

    output_dir = config.output_dir
    output_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=output_dir.name + ".stage.", dir=output_dir.parent))
    try:
        _write_run_outputs(result, staging, _number_formatter(config.full_precision))
        if output_dir.exists():
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


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise MissingArtifact(f"{path} is empty")
    return rows[0], rows[1:]


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


def _price_direction(pct: str) -> str:
    value = float(pct)
    if value > 0:
        return "up"
    if value < 0:
        return "down"
    return "flat"


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
            header, rows = _read_table(tables[name])
            if name == PRICE_TABLE:
                pct_index = header.index("pct_change")
                header = ["sector", "pct_change", "direction"]
                rows = [[row[0], row[pct_index], _price_direction(row[pct_index])] for row in rows]
            blocks.append(_render_text(name, header, rows))
        print("\n\n".join(blocks))
        return EXIT_OK

    # plotdata: one label,value series per table
    out_dir = Path(args.out) if args.out else run_dir / "plotdata"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in selected:
        header, rows = _read_table(tables[name])
        series = _series_for(name, header, rows)
        if series is None:
            continue
        series_path = out_dir / f"{name}_series.csv"
        _write_csv(series_path, ["label", "value"], series)
        print(series_path)
    return EXIT_OK


def _series_for(name: str, header: list[str], rows: list[list[str]]):
    def col(column: str) -> int:
        return header.index(column)

    if name == PRICE_TABLE:
        return [[row[col("sector_id")], row[col("pct_change")]] for row in rows]
    if name == SUMMARY_TABLE:
        return [[row[0], row[1]] for row in rows]
    if name in (INCIDENCE_TABLE, GAPS_TABLE):
        return [[row[col("group_id")], row[col("pct_change")]] for row in rows]
    if name.startswith("category_table_"):
        return [
            [f"{row[col('group_id')]}:{row[col('category')]}", row[col("share_point_change")]]
            for row in rows
            if row[col("category")] != "TOTAL"
        ]
    return None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="gstio", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check input files and report problems")
    validate.add_argument("--table", required=True, help="IO table CSV")
    validate.add_argument("--schedule", required=True, help="rate schedule CSV")
    validate.add_argument("--expenditure", help="household expenditure CSV")
    validate.add_argument("--concordance", help="item-to-sector concordance CSV")
    validate.add_argument("--category-map", help="reporting category map CSV")
    validate.add_argument("--gst-rate", type=float, default=0.06)
    validate.add_argument("--allow-unbalanced", action="store_true")
    validate.set_defaults(func=cmd_validate)

    run = sub.add_parser("run", help="execute a scenario and write report CSVs")
    run.add_argument("scenario", help="scenario config file")
    run.add_argument("--output-dir", "-o", help="override the scenario's output directory")
    run.add_argument("--treatment", choices=[t.value for t in MaskedInputTreatment])
    run.add_argument("--exempt-retains-input-tax", action="store_true")
    run.add_argument("--allow-unbalanced", action="store_true")
    run.add_argument("--full-precision", action="store_true")
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
    except NumericalError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GstioError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
