"""Scenario configuration and execution: one INI file describes one simulation
run, and ``run_scenario`` executes it from the IO table to household incidence.

Frozen concrete syntax (paths are resolved relative to the config file)::

    [inputs]
    io_table = io_table.csv
    rate_schedule = rate_schedule.csv
    expenditure = expenditure.csv        ; optional
    concordance = concordance.csv        ; optional; when present the
                                         ; expenditure file is item-coded
                                         ; and mapped through it, otherwise
                                         ; item codes must be sector ids
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

Unknown sections, keys or enum values are hard errors.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import SchemaError, UnknownBaseGroup
from .incidence import (
    CategoryMap,
    ExpenditureMatrix,
    GroupDimension,
    expenditure_change,
    expenditure_change_on_items,
)
from .ingest import load_category_map, load_household, load_io_table, load_rate_schedule
from .io_model import CoefficientBundle, IOTable, derive_coefficients
from .price_model import (
    MaskedInputTreatment,
    PriceChangeSummary,
    RateSchedule,
    baseline_prices,
    price_change_summary,
    simulate_prices,
)

_KNOWN_KEYS = {
    "inputs": {"io_table", "rate_schedule", "expenditure", "concordance", "category_map"},
    "tax": {"gst_rate", "masked_input_treatment", "exempt_retains_input_tax"},
    "report": {"output_dir", "base_groups", "full_precision", "allow_unbalanced"},
}

_BOOL_TOKENS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


@dataclass(frozen=True)
class ScenarioConfig:
    io_table: Path
    rate_schedule: Path
    gst_rate: float
    output_dir: Path
    expenditure: Path | None = None
    concordance: Path | None = None
    category_map: Path | None = None
    masked_input_treatment: MaskedInputTreatment = MaskedInputTreatment.DROP
    exempt_retains_input_tax: bool = False
    base_groups: dict[GroupDimension, str] = field(default_factory=dict)
    full_precision: bool = False
    allow_unbalanced: bool = False


def _parse_bool(value: str, *, path, key: str) -> bool:
    token = value.strip().lower()
    if token not in _BOOL_TOKENS:
        raise SchemaError(f"{key} must be true or false, got {value!r}", path=path)
    return _BOOL_TOKENS[token]


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read scenario: {exc}", path=path) from exc
    except configparser.Error as exc:
        raise SchemaError(f"bad scenario syntax: {exc}", path=path) from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise SchemaError(f"unknown section [{section}]", path=path)
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise SchemaError(f"unknown key {key!r} in [{section}]", path=path)
    for section in ("inputs", "tax", "report"):
        if section not in parser:
            raise SchemaError(f"missing section [{section}]", path=path)

    base = path.parent

    def _path(section: str, key: str, required: bool) -> Path | None:
        value = parser[section].get(key)
        if value is None or not value.strip():
            if required:
                raise SchemaError(f"missing required key {key!r} in [{section}]", path=path)
            return None
        return (base / value.strip()).resolve()

    io_table = _path("inputs", "io_table", required=True)
    rate_schedule = _path("inputs", "rate_schedule", required=True)
    output_value = parser["report"].get("output_dir")
    if output_value is None or not output_value.strip():
        raise SchemaError("missing required key 'output_dir' in [report]", path=path)
    output_dir = (base / output_value.strip()).resolve()

    rate_value = parser["tax"].get("gst_rate")
    if rate_value is None:
        raise SchemaError("missing required key 'gst_rate' in [tax]", path=path)
    try:
        gst_rate = float(rate_value)
    except ValueError:
        raise SchemaError(f"gst_rate is not a number: {rate_value!r}", path=path) from None

    treatment_value = parser["tax"].get("masked_input_treatment", "drop").strip().lower()
    try:
        treatment = MaskedInputTreatment(treatment_value)
    except ValueError:
        raise SchemaError(
            f"masked_input_treatment must be drop or baseline, got {treatment_value!r}",
            path=path,
        ) from None

    base_groups: dict[GroupDimension, str] = {}
    raw_bases = parser["report"].get("base_groups", "").strip()
    if raw_bases:
        for chunk in raw_bases.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" not in chunk:
                raise SchemaError(
                    f"base_groups entries must be dimension:group_id, got {chunk!r}", path=path
                )
            dim_token, group_id = (part.strip() for part in chunk.split(":", 1))
            try:
                dimension = GroupDimension(dim_token.lower())
            except ValueError:
                raise SchemaError(f"unknown dimension {dim_token!r} in base_groups", path=path) from None
            if dimension in base_groups:
                raise SchemaError(f"duplicate base group for dimension {dim_token!r}", path=path)
            base_groups[dimension] = group_id

    return ScenarioConfig(
        io_table=io_table,
        rate_schedule=rate_schedule,
        expenditure=_path("inputs", "expenditure", required=False),
        concordance=_path("inputs", "concordance", required=False),
        category_map=_path("inputs", "category_map", required=False),
        gst_rate=gst_rate,
        masked_input_treatment=treatment,
        exempt_retains_input_tax=_parse_bool(
            parser["tax"].get("exempt_retains_input_tax", "false"),
            path=path,
            key="exempt_retains_input_tax",
        ),
        output_dir=output_dir,
        base_groups=base_groups,
        full_precision=_parse_bool(
            parser["report"].get("full_precision", "false"), path=path, key="full_precision"
        ),
        allow_unbalanced=_parse_bool(
            parser["report"].get("allow_unbalanced", "false"), path=path, key="allow_unbalanced"
        ),
    )


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a report writer needs from one scenario execution."""

    config: ScenarioConfig
    table: IOTable
    schedule: RateSchedule
    schedule_warnings: tuple[str, ...]
    bundle: CoefficientBundle
    baseline: np.ndarray
    price_level: np.ndarray
    summary: PriceChangeSummary
    expenditure: ExpenditureMatrix | None
    delta: np.ndarray | None
    category_expenditure: ExpenditureMatrix | None
    category_delta: np.ndarray | None
    category_map: CategoryMap | None
    base_groups: dict[GroupDimension, str]


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Execute the price and incidence pipeline for one scenario."""
    table, _ = load_io_table(config.io_table, allow_unbalanced=config.allow_unbalanced)
    schedule, warnings = load_rate_schedule(
        config.rate_schedule, table.sectors, gst_rate=config.gst_rate
    )
    bundle = derive_coefficients(table, check_balance=False)
    baseline = baseline_prices(bundle)
    price_level = simulate_prices(
        bundle,
        schedule,
        masked_input_treatment=config.masked_input_treatment,
        exempt_retains_input_tax=config.exempt_retains_input_tax,
    )
    summary = price_change_summary(price_level, output=table.x)

    expenditure = delta = None
    category_expenditure = category_delta = None
    cmap = None
    base_groups: dict[GroupDimension, str] = {}
    if config.expenditure:
        expenditure, category_expenditure, weights = load_household(
            config.expenditure, config.concordance, table.sectors
        )
        delta = expenditure_change(expenditure, price_level)
        if weights is None:
            category_delta = delta
        else:
            # item-level price index: concordance-weighted sector prices
            category_delta = expenditure_change_on_items(category_expenditure, weights @ price_level)
        if config.category_map:
            cmap = load_category_map(config.category_map)
        base_groups = _resolve_base_groups(expenditure, config.base_groups)

    return ScenarioResult(
        config=config,
        table=table,
        schedule=schedule,
        schedule_warnings=tuple(warnings),
        bundle=bundle,
        baseline=baseline,
        price_level=price_level,
        summary=summary,
        expenditure=expenditure,
        delta=delta,
        category_expenditure=category_expenditure,
        category_delta=category_delta,
        category_map=cmap,
        base_groups=base_groups,
    )


def _resolve_base_groups(
    expenditure: ExpenditureMatrix, requested: dict[GroupDimension, str]
) -> dict[GroupDimension, str]:
    resolved: dict[GroupDimension, str] = {}
    for dimension in GroupDimension:
        ids = sorted(g.group_id for g in expenditure.groups if g.dimension is dimension)
        if not ids:
            continue
        wanted = requested.get(dimension)
        if wanted is not None:
            if wanted not in ids:
                raise UnknownBaseGroup(
                    f"base group {wanted!r} not among {dimension.value} groups: {', '.join(ids)}"
                )
            resolved[dimension] = wanted
        else:
            resolved[dimension] = ids[0]
    return resolved
