"""Scenario configuration and execution: one INI file describes one simulation
run, and ``run_scenario`` executes it from the IO table to household incidence.

``gstio validate`` and ``gstio run`` read and check their inputs through one
load stage, ``load_inputs``, which reads every input file that is given. So
``run`` reports every input error, a category map that leaves codes out
included, before any numerical error, and ``validate`` prints its checks
only once every input has loaded: a failing load prints none before its
``ERROR`` line.

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

``;`` after whitespace starts a comment. A key with an empty value counts as
absent: it takes its default, or is missing if it has none. Without a
concordance, expenditure item codes must be sector ids. Unknown sections,
keys or enum values are hard errors. Every error names the line of the
offending section or key, except a missing section.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import SchemaError, UnknownBaseGroup, UnmappedItem
from .incidence import (
    CategoryMap,
    ExpenditureMatrix,
    GroupDimension,
    expenditure_change,
    expenditure_change_on_items,
)
from .ingest import _not_utf8, load_category_map, load_concordance, load_household, load_io_table, load_rate_schedule
from .io_model import BalanceReport, CoefficientBundle, IOTable, derive_coefficients
from .price_model import (
    MaskedInputTreatment,
    PriceChangeSummary,
    RateSchedule,
    baseline_prices,
    check_gst_rate,
    price_change_summary,
    simulate_prices,
)

_TREATMENT_TOKENS = {t.value: t for t in MaskedInputTreatment}
_BOOL_TOKENS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}

_SYNTAX_ERRORS = {
    configparser.DuplicateSectionError: "a section header appears twice",
    configparser.DuplicateOptionError: "a key appears twice in its section",
    configparser.MissingSectionHeaderError: "a key before the first [section] header",
}

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


def _line_numbers(parser: configparser.ConfigParser, text: str) -> dict[tuple[str, str | None], int]:
    """First line of each ``[section]`` header (key None) and of each key in it.

    Matches ``parser``'s own header and option patterns against a text it has
    already read, and skips what it skips: blank and comment lines, and a
    line indented deeper than the section's last key, which continues that
    key's value.
    """
    lines: dict[tuple[str, str | None], int] = {}
    section = None
    key_indent = None  # indent of the section's last key; None before its first
    for number, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if not stripped or stripped[0] in "#;" or (key_indent is not None and indent > key_indent):
            continue
        header = parser.SECTCRE.match(stripped)
        option = parser.OPTCRE.match(stripped)
        if header:
            section, key_indent = header.group("header"), None
            lines.setdefault((section, None), number)
        elif option:
            key_indent = indent
            lines.setdefault((section, parser.optionxform(option.group("option"))), number)
    return lines


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; see the module docstring for its syntax."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        parser.read_string(text, source=str(path))
    except OSError as exc:
        raise SchemaError(f"cannot read scenario: {exc}", path=path) from exc
    except UnicodeDecodeError:
        raise _not_utf8(SchemaError, path) from None
    except configparser.Error as exc:
        # words of our own: configparser's message differs between Python versions
        problem = _SYNTAX_ERRORS.get(type(exc), "a line that is neither [section] nor key = value")
        line = getattr(exc, "lineno", None) or exc.errors[0][0]  # a ParsingError lists its lines
        raise SchemaError(f"bad scenario syntax: {problem}", path=path, line=line) from exc
    lines = _line_numbers(parser, text)

    def error(message: str, section: str, key: str | None = None) -> SchemaError:
        return SchemaError(message, path=path, line=lines.get((section, key)))

    for section in parser.sections():
        if section not in _SECTIONS:
            raise error(f"unknown section [{section}]", section)
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise error(f"unknown key {key!r} in [{section}]", section, key)

    values = {}
    for section, keys in _SECTIONS.items():
        if section not in parser:
            raise SchemaError(f"missing section [{section}]", path=path)
        for key, spec in keys.items():
            value = parser[section].get(key, "")  # configparser strips values
            if not value:
                if spec.default is MISSING and spec.default_factory is MISSING:
                    raise error(f"missing required key {key!r} in [{section}]", section)
                continue
            try:
                values[key] = spec.metadata["parse"](value, key, path.parent)
            except ValueError as exc:
                raise error(str(exc), section, key) from None
    return ScenarioConfig(**values)


@dataclass(frozen=True)
class ScenarioInputs:
    """A scenario's input files, loaded and checked against each other.

    The household fields are :func:`~gstio.ingest.load_household`'s; ``unmapped``
    holds the codes of ``category_expenditure`` that ``category_map`` leaves out.
    """

    table: IOTable
    balance: BalanceReport
    schedule: RateSchedule
    schedule_warnings: tuple[str, ...]
    expenditure: ExpenditureMatrix | None
    category_expenditure: ExpenditureMatrix | None
    weights: np.ndarray | None
    category_map: CategoryMap | None
    unmapped: tuple[str, ...]


def load_inputs(config: ScenarioConfig) -> ScenarioInputs:
    """Read and check every input file that ``config`` names, in the order of its keys.

    Reads the input keys, ``gst_rate`` and ``allow_unbalanced`` only, which
    ``gstio validate``'s parsed flags carry too.
    """
    table, balance = load_io_table(config.io_table, allow_unbalanced=config.allow_unbalanced)
    schedule, warnings = load_rate_schedule(config.rate_schedule, table.sectors, gst_rate=config.gst_rate)
    household = (None, None, None)
    if config.expenditure:
        household = load_household(config.expenditure, config.concordance, table.sectors)
    elif config.concordance:
        load_concordance(config.concordance, table.sectors)  # nothing to map, but read and checked
    category_map = load_category_map(config.category_map) if config.category_map else None
    by_category = household[1]
    unmapped = () if category_map is None or by_category is None else category_map.unmapped(by_category.items)
    return ScenarioInputs(table, balance, schedule, tuple(warnings), *household, category_map, unmapped)


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a report writer needs from one scenario execution."""

    config: ScenarioConfig
    inputs: ScenarioInputs
    bundle: CoefficientBundle
    baseline: np.ndarray
    price_level: np.ndarray
    summary: PriceChangeSummary
    delta: np.ndarray | None
    category_delta: np.ndarray | None
    base_groups: dict[GroupDimension, str]


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Execute the price and incidence pipeline for one scenario; every input error comes before the solve."""
    inputs = load_inputs(config)
    if inputs.unmapped:
        raise UnmappedItem(inputs.unmapped, context="category map")
    expenditure = inputs.expenditure
    base_groups = {} if expenditure is None else _resolve_base_groups(expenditure, config.base_groups)

    bundle = derive_coefficients(inputs.table, check_balance=False)
    baseline = baseline_prices(bundle)
    price_level = simulate_prices(
        bundle,
        inputs.schedule,
        masked_input_treatment=config.masked_input_treatment,
        exempt_retains_input_tax=config.exempt_retains_input_tax,
    )
    summary = price_change_summary(price_level, output=inputs.table.x)

    delta = category_delta = None
    if expenditure is not None:
        delta = expenditure_change(expenditure, price_level)
        if inputs.weights is None:
            category_delta = delta
        else:
            # item-level price index: concordance-weighted sector prices
            category_delta = expenditure_change_on_items(inputs.category_expenditure, inputs.weights @ price_level)

    return ScenarioResult(
        config=config,
        inputs=inputs,
        bundle=bundle,
        baseline=baseline,
        price_level=price_level,
        summary=summary,
        delta=delta,
        category_delta=category_delta,
        base_groups=base_groups,
    )


def _resolve_base_groups(
    expenditure: ExpenditureMatrix, requested: dict[GroupDimension, str]
) -> dict[GroupDimension, str]:
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
