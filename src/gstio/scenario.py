"""Scenario configuration and execution: one INI file describes one simulation
run, and ``run_scenario`` executes it from the IO table to household incidence.

``gstio validate`` and ``gstio run`` read one ``ScenarioConfig``'s inputs
through one load stage, ``load_inputs``, which reads every input file that
is given, resolves the base groups and derives the table's coefficients once.
So ``run`` reports every input error, a category map that leaves codes out
included, before any numerical error, and ``validate`` prints its checks only
once every input has loaded: a failing load prints none before its ``ERROR``
line. Those checks are
``check_inputs``'s, which decides what is valid; it prices the scenario as
``run`` does and computes ``run``'s household tables with ``run``'s own
code, so a group that ``run`` refuses fails ``validate`` too.

Frozen concrete syntax (paths are resolved relative to the config file)::

    [inputs]
    io_table = io_table.csv
    rate_schedule = rate_schedule.csv
    expenditure = expenditure.csv        ; optional
    concordance = concordance.csv        ; optional: item-coded expenditure
    category_map = category_map.csv      ; optional

    [tax]
    gst_rate = 0.06
    masked_input_treatment = drop        ; drop | baseline
    exempt_retains_input_tax = false

    [report]
    output_dir = out/appendix3
    base_groups = income:inc1, ethnicity:eth1   ; optional, per dimension
    full_precision = false
    allow_unbalanced = false

A line ends at ``\\n``, ``\\r`` or ``\\r\\n``. A ``;`` at a line's start or after
whitespace starts a comment; the rest of the line is stripped, and skipped
if then empty or starting with ``#``. A line indented deeper than its
section's last key continues that key's value (joined with ``\\n``, blank
lines kept); any other is a ``[name]`` header (case-sensitive) or a key
split at its first ``=`` or ``:``, stripped and lower-cased. A key with an
empty value counts as absent: it takes its default, or is missing if it has
none. Without a concordance, expenditure item codes must be sector ids.

The first line in file order that is no header or key, a key before any
header, a repeated section or key, or an unknown section (``[DEFAULT]``
too) or key is the error; then a missing section or required key, then
each value's check. Every error names its line but a missing section.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .diagnostics import ProductivityReport, productivity_check
from .errors import DimensionMismatch, SchemaError, UnknownBaseGroup, UnmappedItem
from .incidence import CategoryMap, ExpenditureMatrix, GroupDimension, category_report
from .incidence import _refuse_overflow, expenditure_change_on_items, gap_ratios, purchasing_power_change
from .ingest import _not_utf8, load_category_map, load_concordance, load_household, load_io_table, load_rate_schedule
from .io_model import BalanceReport, CoefficientBundle, derive_coefficients
from .price_model import MaskedInputTreatment, PriceChangeSummary, RateSchedule, baseline_prices, check_gst_rate
from .price_model import price_change_summary, simulate_prices

PRICE_TABLE = "price_changes"
SUMMARY_TABLE = "summary"
INCIDENCE_TABLE = "incidence_by_group"
GAPS_TABLE = "gaps"

_TREATMENT_TOKENS = {t.value: t for t in MaskedInputTreatment}
_BOOL_TOKENS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}

_COMMENT = re.compile(r"(?<!\S);")
_HEADER = re.compile(r"\[(.+)\]")
_KEY_VALUE = re.compile(r"([^=:]*)[=:](.*)")

# Each parser takes a key's non-empty value, the key and the directory that a
# relative path starts from; it raises ValueError with the message to report.
def _path(value: str, key: str, base: Path) -> Path:
    if "\n" in value:
        raise ValueError(f"{key} continues on an indented line; a path is one line")
    return (base / value).resolve()


def _rate(value: str, key: str, base: Path) -> float:
    try:
        rate = float(value)
    except ValueError:
        raise ValueError(f"{key} is not a number: {value!r}") from None
    return check_gst_rate(rate)


def _treatment(value: str, key: str, base: Path) -> MaskedInputTreatment:
    if value.lower() not in _TREATMENT_TOKENS:
        raise ValueError(f"{key} must be drop or baseline, got {value.lower()!r}")
    return _TREATMENT_TOKENS[value.lower()]


def _boolean(value: str, key: str, base: Path) -> bool:
    if value.lower() not in _BOOL_TOKENS:
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return _BOOL_TOKENS[value.lower()]


def _base_groups(value: str, key: str, base: Path) -> dict[GroupDimension, str]:
    groups: dict[GroupDimension, str] = {}
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ValueError(f"{key} entries must be dimension:group_id, got {chunk!r}")
        dim_token, group_id = (part.strip() for part in chunk.split(":", 1))
        try:
            dimension = GroupDimension(dim_token.lower())
        except ValueError:
            raise ValueError(f"unknown dimension {dim_token!r} in {key}") from None
        if dimension in groups:
            raise ValueError(f"duplicate base group for dimension {dim_token!r}")
        groups[dimension] = group_id
    return groups


def _key(section: str, parse, **default):
    """A scenario key: its ``[section]``, its value's parser and, when optional, its default."""
    return field(metadata={"section": section, "parse": parse}, **default)


@dataclass(frozen=True)
class ScenarioConfig:
    """One run's settings. Each field is the scenario key of the same name."""

    io_table: Path = _key("inputs", _path)
    rate_schedule: Path = _key("inputs", _path)
    gst_rate: float = _key("tax", _rate)
    output_dir: Path = _key("report", _path)
    expenditure: Path | None = _key("inputs", _path, default=None)
    concordance: Path | None = _key("inputs", _path, default=None)
    category_map: Path | None = _key("inputs", _path, default=None)
    masked_input_treatment: MaskedInputTreatment = _key("tax", _treatment, default=MaskedInputTreatment.DROP)
    exempt_retains_input_tax: bool = _key("tax", _boolean, default=False)
    base_groups: dict[GroupDimension, str] = _key("report", _base_groups, default_factory=dict)
    full_precision: bool = _key("report", _boolean, default=False)
    allow_unbalanced: bool = _key("report", _boolean, default=False)


# section -> key -> field, in field order: [inputs], [tax], [report]
_SECTIONS: dict[str, dict[str, Field]] = {}
for _field in fields(ScenarioConfig):
    _SECTIONS.setdefault(_field.metadata["section"], {})[_field.name] = _field


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; see the module docstring for its syntax."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read scenario: {exc}", path=path) from exc
    except UnicodeDecodeError:
        raise _not_utf8(SchemaError, path) from None

    def error(message: str, line: int) -> SchemaError:
        return SchemaError(message, path=path, line=line)

    # section -> (its header's line, key -> (its line, its value's lines))
    sections: dict[str, tuple[int, dict[str, tuple[int, list[str]]]]] = {}
    name = keys = value = None  # the current section, its keys and its last key's value lines
    key_indent = 0
    for number, line in enumerate(text.split("\n"), start=1):
        content = _COMMENT.split(line, 1)[0].strip()
        if not content or content[0] == "#":
            if value is not None and not line.strip():
                value.append("")  # a blank line, not a comment, inside a value
            continue
        indent = len(line) - len(line.lstrip())
        if value is not None and indent > key_indent:
            value.append(content)
            continue
        key_indent = indent
        header = _HEADER.match(content)
        if header:
            name, keys, value = header.group(1), {}, None
            if name in sections:
                raise error("bad scenario syntax: a section header appears twice", number)
            if name not in _SECTIONS:
                raise error(f"unknown section [{name}]", number)
            sections[name] = (number, keys)
            continue
        if keys is None:
            raise error("bad scenario syntax: a key before the first [section] header", number)
        key_value = _KEY_VALUE.match(content)
        key = key_value.group(1).strip().lower() if key_value else ""
        if not key:
            raise error("bad scenario syntax: a line that is neither [section] nor key = value", number)
        if key in keys:
            raise error("bad scenario syntax: a key appears twice in its section", number)
        if key not in _SECTIONS[name]:
            raise error(f"unknown key {key!r} in [{name}]", number)
        value = [key_value.group(2).strip()]
        keys[key] = (number, value)

    values = {}
    for section, specs in _SECTIONS.items():
        if section not in sections:
            raise SchemaError(f"missing section [{section}]", path=path)
        header_line, given = sections[section]
        for key, spec in specs.items():
            line, lines = given.get(key, (header_line, []))
            value = "\n".join(lines).rstrip()
            if not value:
                if spec.default is MISSING and spec.default_factory is MISSING:
                    raise error(f"missing required key {key!r} in [{section}]", header_line)
                continue
            try:
                values[key] = spec.metadata["parse"](value, key, path.parent)
            except ValueError as exc:
                raise error(str(exc), line) from None
    return ScenarioConfig(**values)


@dataclass(frozen=True)
class ScenarioInputs:
    """A scenario's input files, loaded and checked against each other.

    The IO table is kept as what the price model reads of it: its coefficients
    ``bundle`` (so its sectors) and its OUTPUT column ``x``; its flows are not
    kept. ``expenditure`` and ``weights`` are :func:`~gstio.ingest.load_household`'s,
    spending in the file's codes; ``unmapped`` holds those codes that
    ``category_map`` leaves out, and ``base_groups`` each dimension's base
    group, one entry per dimension that has groups.
    """

    bundle: CoefficientBundle
    x: np.ndarray
    balance: BalanceReport
    schedule: RateSchedule
    schedule_warnings: tuple[str, ...]
    expenditure: ExpenditureMatrix | None
    weights: np.ndarray | None
    category_map: CategoryMap | None
    unmapped: tuple[str, ...]
    base_groups: dict[GroupDimension, str]


def load_inputs(config: ScenarioConfig) -> ScenarioInputs:
    """Read and check every input file that ``config`` names, in the order of its keys, then its base groups.

    Then derive the table's coefficients without a second balance check, so its flows are freed on return.
    """
    table, balance = load_io_table(config.io_table, allow_unbalanced=config.allow_unbalanced)
    schedule, warnings = load_rate_schedule(config.rate_schedule, table.sectors, gst_rate=config.gst_rate)
    household = (None, None)
    if config.expenditure:
        household = load_household(config.expenditure, config.concordance, table.sectors)
    elif config.concordance:
        load_concordance(config.concordance, table.sectors)  # nothing to map, but read and checked
    category_map = load_category_map(config.category_map) if config.category_map else None
    expenditure = household[0]
    unmapped = () if category_map is None or expenditure is None else category_map.unmapped(expenditure.items)
    base_groups = {} if expenditure is None else _resolve_base_groups(expenditure, config.base_groups)
    bundle = derive_coefficients(table, check_balance=False)
    return ScenarioInputs(
        bundle, table.x, balance, schedule, tuple(warnings), *household, category_map, unmapped, base_groups
    )


class Check(NamedTuple):
    """One line of ``gstio validate``'s report, and whether that check passed."""

    line: str
    passed: bool


def _productivity(label: str, report: ProductivityReport) -> Check:
    lo, hi = report.bracket
    if report.converged:
        radius = f"radius {lo:.6g}"
    else:
        radius = f"radius in [{lo:.6g}, {hi:.6g}] (bracket open after {report.iterations} iterations)"
    return Check(f"productivity ({label}): {radius} {'pass' if report.passed else 'FAIL'}", report.passed)


def check_inputs(config: ScenarioConfig) -> list[Check]:
    """``gstio validate``'s checks of ``config``'s inputs, in its order; the scenario is valid iff all pass.

    Loads the inputs as :func:`run_scenario` does, so a load error is raised
    as there. Then balance, productivity without the mask, the schedule's
    warnings, productivity with it, expenditure and category-map coverage.
    When these pass and expenditure is given, ``run``'s household tables are
    computed from the scenario's prices: a group whose numbers overflow
    fails one more check.
    """
    inputs = load_inputs(config)
    bundle, balance = inputs.bundle, inputs.balance
    residuals = f"max row residual {balance.max_row_residual:.3e}, max column residual {balance.max_column_residual:.3e}"
    checks = [Check(f"table: {bundle.n} sectors, {residuals}", True)]
    checks.append(_productivity("unmasked", productivity_check(bundle.A)))
    checks += [Check(f"warning: {warning}", True) for warning in inputs.schedule_warnings]
    checks.append(_productivity("masked", productivity_check(bundle.A, inputs.schedule.standard_share)))

    expenditure, weights = inputs.expenditure, inputs.weights
    if weights is not None:
        before = expenditure.totals()
        # blocks of 1,024 to 2,047 groups, so no groups × sectors matrix is formed
        blocks = np.split(expenditure.values, range(1024, len(before) - 1023, 1024))
        with np.errstate(over="ignore"):  # mapped totals near the float maximum may round past it
            mapped = np.concatenate([(block @ weights).sum(axis=1) for block in blocks])
        err = float(np.max(np.abs(mapped - before) / before))
        line = f"{len(expenditure.items)} items, concordance conserves totals to {err:.3e}"
        checks.append(Check(f"expenditure: {len(expenditure.groups)} groups, {line}", True))
    elif expenditure is not None:
        checks.append(Check(f"expenditure: {len(expenditure.groups)} groups on sector codes", True))
    if inputs.unmapped:
        checks.append(Check(f"category map: MISSING codes {', '.join(inputs.unmapped)}", False))
    elif inputs.category_map is not None:
        checks.append(Check(f"category map: {len(inputs.category_map.categories)} categories, total over items", True))
    if expenditure is not None and all(check.passed for check in checks):
        try:
            _household_tables(inputs, _expenditure_change(inputs, _price_level(config, bundle, inputs.schedule)))
        except DimensionMismatch as exc:
            checks.append(Check(f"household report: {exc} FAIL", False))
    return checks


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a report writer needs from one scenario execution."""

    config: ScenarioConfig
    inputs: ScenarioInputs
    baseline: np.ndarray
    price_level: np.ndarray
    summary: PriceChangeSummary
    delta: np.ndarray | None  # ΔE on inputs.expenditure's codes, which the household tables read

    @property
    def base_groups(self) -> dict[GroupDimension, str]:
        return self.inputs.base_groups


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Execute the price and incidence pipeline for one scenario; every input error comes before the solve."""
    inputs = load_inputs(config)
    if inputs.unmapped:
        raise UnmappedItem(inputs.unmapped, context="category map")

    baseline = baseline_prices(inputs.bundle)
    price_level = _price_level(config, inputs.bundle, inputs.schedule)
    summary = price_change_summary(price_level, output=inputs.x)

    delta = None if inputs.expenditure is None else _expenditure_change(inputs, price_level)
    return ScenarioResult(config, inputs, baseline, price_level, summary, delta)


def _price_level(config: ScenarioConfig, bundle: CoefficientBundle, schedule: RateSchedule) -> np.ndarray:
    """The post-reform prices of ``schedule`` under ``config``'s treatment and exempt option."""
    treatment, exempt = config.masked_input_treatment, config.exempt_retains_input_tax
    return simulate_prices(bundle, schedule, masked_input_treatment=treatment, exempt_retains_input_tax=exempt)


def _expenditure_change(inputs: ScenarioInputs, price_level: np.ndarray) -> np.ndarray:
    """ΔE on ``inputs.expenditure``'s codes: its sectors, or its items at concordance-weighted sector prices."""
    item_prices = price_level if inputs.weights is None else inputs.weights @ price_level
    return expenditure_change_on_items(inputs.expenditure, item_prices)


def _resolve_base_groups(expenditure: ExpenditureMatrix, requested: dict[GroupDimension, str]):
    resolved: dict[GroupDimension, str] = {}
    for dimension in GroupDimension:
        ids = sorted(g.group_id for g in expenditure.groups if g.dimension is dimension)
        if not ids and dimension not in requested:
            continue
        resolved[dimension] = requested[dimension] if dimension in requested else ids[0]
        if resolved[dimension] not in ids:
            raise UnknownBaseGroup(
                f"base group {resolved[dimension]!r} not among {dimension.value} groups: {', '.join(ids) or 'none'}"
            )
    return resolved


def run_tables(result: ScenarioResult) -> dict[str, tuple[list[str], list[list[str | int | float]]]]:
    """The tables of a run directory by name, each as its header and rows, in ``gstio run``'s order.

    ``price_changes`` and ``summary`` always; with expenditure also
    ``incidence_by_group``, ``gaps`` and, with a category map,
    ``category_table_<dimension>``. A cell is a str, an int (the summary's
    counts) or a float, which the caller formats. Rows come in a fixed order:
    sectors in table order; groups by dimension, in :class:`GroupDimension`
    order, then by group id; a group's categories in the map's order, then TOTAL.
    """
    inputs, summary = result.inputs, result.summary
    sectors = inputs.bundle.sectors
    prices = zip(sectors.ids, sectors.names, result.baseline, result.price_level, summary.pct_change)
    summary_rows = [
        ["riser_count", summary.riser_count],
        ["riser_mean_pct", summary.riser_mean],
        ["decliner_count", summary.decliner_count],
        ["decliner_mean_pct", summary.decliner_mean],
        ["net_decline_pct", summary.net_decline],
        ["weighted_mean_pct", summary.weighted_mean],
    ]
    tables = {
        PRICE_TABLE: (["sector_id", "sector_name", "baseline_price", "post_price", "pct_change"], [*map(list, prices)]),
        SUMMARY_TABLE: (["metric", "value"], summary_rows),
    }
    if inputs.expenditure is None:
        return tables
    return tables | _household_tables(inputs, result.delta)


def _household_tables(inputs: ScenarioInputs, delta: np.ndarray):
    """The household tables of :func:`run_tables` from ``inputs.expenditure`` and its ΔE ``delta``.

    Every table takes a group's totals from that one matrix, so a category
    table's TOTAL row repeats the group's ``incidence_by_group`` row. A group
    whose numbers overflow is a ``DimensionMismatch``.
    """
    expenditure, category_map, base_groups = inputs.expenditure, inputs.category_map, inputs.base_groups
    groups = expenditure.groups
    if category_map is not None:
        report = category_report(expenditure, delta, category_map)
    # the gaps table's rows: base_groups holds one entry per dimension that has groups, in GroupDimension order
    rank = {dimension: k for k, dimension in enumerate(base_groups)}
    ranked = sorted((rank[g.dimension], g.group_id, h) for h, g in enumerate(groups) if g.dimension in rank)
    order = [h for *_, h in ranked]
    members = [groups[h] for h in order]
    with np.errstate(over="ignore", invalid="ignore"):  # a group whose numbers overflow is refused below
        totals_before = expenditure.totals()[order]
        totals_after = totals_before + delta.sum(axis=1)[order]
        pct = purchasing_power_change(totals_before, totals_after)
    ratios = ({}, {})
    for dimension, base_id in base_groups.items():
        mine = [k for k, g in enumerate(members) if g.dimension is dimension]
        for ratio, totals in zip(ratios, (totals_before, totals_after)):
            ratio.update(gap_ratios({members[k].group_id: totals[k] for k in mine}, base_id))
    gaps = np.column_stack([totals_before, totals_after, pct, *(list(ratio.values()) for ratio in ratios)])
    _refuse_overflow(members, gaps)
    gap_rows = [[g.dimension.value, g.group_id, g.label, *row] for g, row in zip(members, gaps.tolist())]
    incidence_header = ["dimension", "group_id", "label", "total_before", "total_after", "pct_change"]
    tables = {
        INCIDENCE_TABLE: (incidence_header, [row[:6] for row in gap_rows]),
        GAPS_TABLE: ([*incidence_header, "ratio_before", "ratio_after"], gap_rows),
    }
    if category_map is None:
        return tables
    category_header = [
        "group_id", "label", "category", "base_share", "post_share", "share_point_change", "pct_change_within"
    ]  # fmt: skip
    tables |= {f"category_table_{dimension.value}": (category_header, []) for dimension in base_groups}
    columns = report.base_share, report.post_share, report.share_change, report.pct_change
    for h, (dimension, group_id, label, before, after, pct_change, *_) in zip(order, gap_rows):
        rows = tables[f"category_table_{dimension}"][1]
        for category, *values in zip(report.categories, *(column[h] for column in columns)):
            rows.append([group_id, label, category, *values])
        rows.append([group_id, label, "TOTAL", before, after, "", pct_change])
    return tables
