"""Independent oracle and output checks.

The oracle solves the masked cost-push price system with numpy alone, on
the coefficients, mask and cost vector of the generator's own objects; it
never calls gstio. The checks compare what the program printed or returned
against it and return a list of problems (empty when everything holds).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from gen import Inputs

PRICE_RTOL = 1e-9
# Six significant digits are within half a unit of the last digit: 5e-6
# relative at worst, plus slack for the oracle's own rounding.
PRINTED_RTOL = 5.0001e-6


def prices(
    inputs: Inputs,
    mask: int = 0,
    *,
    gst_rate: float | None = None,
    treatment: str = "drop",
    exempt_retains_input_tax: bool = False,
) -> np.ndarray:
    """Post-reform prices p solving (I − A'B̂) p = c.

    c = labor + capital + imports + rate × share × value added, plus
    A'(1 − share) under the baseline treatment, plus the unrecoverable input
    tax (1 − share) × rate × (A'B̂)·1 for exempt sectors when they keep it.
    """
    table = inputs.table
    schedule = inputs.schedules[mask]
    rate = schedule.gst_rate if gst_rate is None else gst_rate
    x = table.x
    A = table.Z / x[np.newaxis, :]
    share = schedule.standard_share
    value_added = (table.labor + table.capital) / x
    masked = A.T * share[np.newaxis, :]
    costs = value_added + table.imports / x + rate * share * value_added
    if treatment == "baseline":
        costs = costs + A.T @ (1.0 - share)
    if exempt_retains_input_tax:
        exempt = np.array([c.value == "exempt" for c in schedule.categories])
        costs = costs + np.where(exempt, (1.0 - share) * rate * masked.sum(axis=1), 0.0)
    return np.linalg.solve(np.eye(len(x)) - masked, costs)


def sector_expenditure(inputs: Inputs) -> np.ndarray:
    """Group × sector spending: item amounts through the concordance weights,
    or sector-coded amounts placed in their sector columns."""
    ids = inputs.table.sectors.ids
    column = {sector_id: j for j, sector_id in enumerate(ids)}
    matrix = inputs.expenditure
    if inputs.item_coded:
        row = {item: j for j, item in enumerate(matrix.items)}
        weights = np.zeros((len(matrix.items), len(ids)))
        for link in inputs.concordance.links:
            weights[row[link.item_code], column[link.sector_id]] = link.weight
        return matrix.values @ weights
    out = np.zeros((len(matrix.groups), len(ids)))
    out[:, [column[item] for item in matrix.items]] = matrix.values
    return out


def group_totals(inputs: Inputs, price_level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each group's spending before the reform and after it (fixed basket)."""
    before = inputs.expenditure.values.sum(axis=1)
    return before, before + sector_expenditure(inputs) @ (price_level - 1.0)


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def check_run_dir(run_dir: Path, inputs: Inputs, expected: np.ndarray, *, full_precision: bool) -> list[str]:
    """Check a `gstio run` output directory against oracle prices.

    At full precision, baseline prices must be 1 and post prices must match
    the oracle, both within 1e-9; otherwise to the printed precision.
    Group totals before the reform must equal the item totals (the mapping
    conserves them) and totals after it must match the oracle, both in the
    incidence table and in the TOTAL rows of every category table.
    """
    rtol = PRICE_RTOL if full_precision else PRINTED_RTOL
    problems = []
    rows = _read_csv(run_dir / "price_changes.csv")
    if [r["sector_id"] for r in rows] != list(inputs.table.sectors.ids):
        return [f"{run_dir.name}: price_changes.csv does not list the sectors in order"]
    for r, want in zip(rows, expected):
        if not _close(float(r["baseline_price"]), 1.0, rtol):
            problems.append(f"baseline price of {r['sector_id']} is {r['baseline_price']}")
        if not _close(float(r["post_price"]), want, rtol):
            problems.append(f"post price of {r['sector_id']} is {r['post_price']}, oracle {want:.17g}")

    before, after = group_totals(inputs, expected)
    index = {g.group_id: h for h, g in enumerate(inputs.expenditure.groups)}
    totals = [(r["group_id"], r["total_before"], r["total_after"]) for r in _read_csv(run_dir / "incidence_by_group.csv")]
    for table in sorted(run_dir.glob("category_table_*.csv")):
        totals += [
            (r["group_id"], r["base_share"], r["post_share"])
            for r in _read_csv(table)
            if r["category"] == "TOTAL"
        ]
    if len(totals) != 2 * len(index):
        problems.append(f"expected every group in the incidence and category tables, got {len(totals)} rows")
    for group_id, got_before, got_after in totals:
        h = index.get(group_id)
        if h is None:
            problems.append(f"unknown group {group_id!r} in the output")
            continue
        if not _close(float(got_before), before[h], rtol):
            problems.append(f"total before of {group_id} is {got_before}, oracle {before[h]:.17g}")
        if not _close(float(got_after), after[h], rtol):
            problems.append(f"total after of {group_id} is {got_after}, oracle {after[h]:.17g}")
    return problems


def run_dir_bytes(run_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(run_dir.glob("*.csv"))}


def check_prices(got: np.ndarray, want: np.ndarray, what: str) -> list[str]:
    error = float(np.max(np.abs(got - want) / np.abs(want)))
    return [] if error <= PRICE_RTOL else [f"{what}: prices off the oracle by {error:.3e} (relative)"]


def check_totals(got: np.ndarray, before: np.ndarray, after: np.ndarray, what: str) -> list[str]:
    """Row sums of ΔE against the oracle's change in each group total."""
    error = float(np.max(np.abs(got - (after - before)) / before))
    return [] if error <= PRICE_RTOL else [f"{what}: group changes off the oracle by {error:.3e} of the totals"]
