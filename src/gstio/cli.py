"""Scenario-driven command line: validate inputs, run simulations, render reports.

Three subcommands:

* ``validate`` — load a scenario's input files and print the checks of
  :func:`~gstio.scenario.check_inputs`, exit 0 iff every one passes.
* ``run`` — execute one scenario and write its report CSVs atomically
  (everything is staged to a temp directory and renamed into place).
* ``report`` — render a finished run directory as aligned text, raw CSV, or
  label/value series files for plotting.

``validate`` and ``run`` build one :class:`~gstio.scenario.ScenarioConfig` in
``_config``: the scenario file with each flag given in place of its key, so
``validate SCENARIO`` checks what ``run SCENARIO`` runs. Without a scenario,
``validate`` reads ``--table`` and ``--schedule`` (then required) at rate 0.06.
Each flag is parsed as its key is, but a relative path resolves from the
working directory: for ``validate``'s file flags as for ``run --output-dir``.

Exit codes: 0 ok, 1 usage, 2 validation or out of memory, 3 numerical
failure. Every error path prints a single line starting with ``ERROR <code>:``
to stderr. ``run`` writes the tables of :func:`~gstio.scenario.run_tables`,
whose rows come in a fixed order, with fixed float formatting (6 significant
digits, or shortest round-trip repr with --full-precision) and no timestamps,
so its outputs are byte-identical across runs on the same inputs.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

from .errors import GstioError, MissingArtifact, NumericalError, ParseError
from .incidence import expenditure_change_on_items  # noqa: F401  (bench/tracing.py times cli.expenditure_change_on_items)
from .ingest import _cell_float, _require_width, _rows, _text, _write_csv
from .price_model import MaskedInputTreatment
from .scenario import _SECTIONS, GAPS_TABLE, INCIDENCE_TABLE, PRICE_TABLE, SUMMARY_TABLE, ScenarioConfig, ScenarioResult
from .scenario import check_inputs, load_scenario, run_scenario, run_tables

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse flavor that exits 1 (not 2) on usage errors, per our exit map."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"ERROR Usage: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _Override(argparse.Action):
    """Store a flag's value parsed as the scenario key its dest names, paths from the cwd.

    An empty value (absent in a scenario file) or one that key's parser
    rejects is a usage error that names the flag.
    """

    def __call__(self, parser, namespace, value, option_string=None):
        key_parser = {spec.name: spec for spec in fields(ScenarioConfig)}[self.dest].metadata["parse"]
        try:
            if not value:
                raise ValueError(f"{self.dest} is empty")
            setattr(namespace, self.dest, key_parser(value, self.dest, Path.cwd()))
        except ValueError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None


def _config(args) -> ScenarioConfig:
    """``args.scenario`` with each flag given in place of its key; without one, ``validate``'s flags alone."""
    given = {spec.name: value for spec in fields(ScenarioConfig) if (value := getattr(args, spec.name, None)) is not None}
    if args.scenario is not None:
        return replace(load_scenario(args.scenario), **given)
    if missing := [flag for flag, key in (("--table", "io_table"), ("--schedule", "rate_schedule")) if key not in given]:
        args.parser.error(f"the following arguments are required: {', '.join(missing)}")
    return ScenarioConfig(**{"gst_rate": 0.06, "output_dir": None} | given)


def _number_formatter(full_precision: bool):
    if full_precision:
        return lambda v: repr(float(v))
    return lambda v: format(float(v), ".6g")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    checks = check_inputs(_config(args))
    for check in checks:
        print(check.line)
    if not all(check.passed for check in checks):
        print("VALIDATION FAILED")
        print("ERROR ValidationFailed: one or more checks failed (see report)", file=sys.stderr)
        return EXIT_VALIDATION
    print("VALIDATION OK")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _write_run_outputs(result: ScenarioResult, target: Path, fmt) -> None:
    for name, (header, rows) in run_tables(result).items():
        cells = ([fmt(cell) if isinstance(cell, float) else str(cell) for cell in row] for row in rows)
        _write_csv(target / f"{name}.csv", header, cells)


def cmd_run(args) -> int:
    config = _config(args)
    result = run_scenario(config)
    for warning in result.inputs.schedule_warnings:
        print(f"warning: {warning}")

    output_dir = config.output_dir
    inputs = [Path(args.scenario).resolve()]
    inputs += [getattr(config, key) for key in _SECTIONS["inputs"]]
    held = [path for path in inputs if path is not None and path.is_relative_to(output_dir)]
    if held:
        raise GstioError(f"output directory {output_dir} holds input {held[0]}; choose one that holds no input")
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


def _table_files(run_dir: Path) -> dict[str, Path]:
    tables = {path.stem: path for path in sorted(run_dir.glob("*.csv"))}
    if PRICE_TABLE not in tables:
        raise MissingArtifact(f"{run_dir} does not contain price_changes.csv (not a run directory?)")
    return tables


def _table_rows(path: Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header of a run table and its ``(line, row)`` pairs, each row as wide as the header."""
    with _rows(path) as (header, records):
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
    tables = _table_files(run_dir)
    selected = list(tables)
    if args.table is not None:
        if args.table not in tables:
            raise MissingArtifact(f"table {args.table!r} not in run directory; available: {', '.join(tables)}")
        selected = [args.table]

    if args.format == "csv":
        if args.table is None:
            raise MissingArtifact("--format csv requires --table (one artifact at a time)")
        sys.stdout.write(_text(tables[args.table], ParseError, "file"))
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

    # a flag's dest is the ScenarioConfig field it sets in _config; None is not given
    validate = sub.add_parser("validate", help="check a scenario's input files and report problems")
    validate.add_argument("scenario", nargs="?", help="scenario config file, checked as run runs it")
    validate.add_argument("--table", dest="io_table", metavar="TABLE", action=_Override, help="IO table CSV")
    validate.add_argument(
        "--schedule", dest="rate_schedule", metavar="SCHEDULE", action=_Override, help="rate schedule CSV"
    )
    validate.add_argument("--expenditure", action=_Override, help="household expenditure CSV")
    validate.add_argument("--concordance", action=_Override, help="item-to-sector concordance CSV")
    validate.add_argument("--category-map", action=_Override, help="reporting category map CSV")
    validate.add_argument("--gst-rate", action=_Override)
    validate.add_argument("--allow-unbalanced", action="store_const", const=True)
    validate.set_defaults(func=cmd_validate, parser=validate)

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
        return args.func(args)
    except SystemExit as exc:  # a usage error, which _config reports too
        return int(exc.code or 0)
    except (GstioError, OSError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_VALIDATION
    except MemoryError as exc:  # an input too large for this host that no check refused first
        print(f"ERROR MemoryError: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
