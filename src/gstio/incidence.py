"""Household cost-of-living incidence of sector price changes.

With baseline prices normalized to 1, expenditure values double as
quantities, so the extra spending a group needs to keep its baseline basket
is simply ΔE = (p̂ − I)E, applied row by row to the group × sector
expenditure matrix. Category tables, purchasing-power changes and
consumption-gap ratios are all pure arithmetic over E and ΔE, done for every
group at once. A table with a non-finite number is refused with one
``DimensionMismatch`` naming a group: for the category tables the first in
file order, else the first by dimension and then group id.

Substitution responses are deliberately out of scope: the basket is held
fixed, which is what "keeping baseline purchasing power" means here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BasisMismatch,
    DimensionMismatch,
    EmptyGroup,
    NonPositiveBase,
    UnknownBaseGroup,
    UnmappedItem,
)
from .io_model import _frozen


class GroupDimension(enum.Enum):
    """Axis along which households are grouped."""

    INCOME_CLASS = "income"
    ETHNICITY = "ethnicity"


class ExpenditureBasis(enum.Enum):
    """Whether expenditure columns are consumption item codes or IO sector ids."""

    ITEM_CODES = "items"
    SECTOR_CODES = "sectors"


# Standard consumption reporting categories (COICOP divisions 01-12).
REPORTING_CATEGORIES = (
    "food_nonalcoholic",
    "alcohol_tobacco",
    "clothing_footwear",
    "housing_utilities",
    "furnishings_maintenance",
    "health",
    "transport",
    "communication",
    "recreation_culture",
    "education",
    "restaurants_hotels",
    "misc_goods_services",
)


@dataclass(frozen=True)
class HouseholdGroup:
    group_id: str
    dimension: GroupDimension
    label: str


@dataclass(frozen=True, eq=False)
class ExpenditureMatrix:
    """Group × item spending (currency per month), nonnegative with positive, finite row sums."""

    groups: tuple[HouseholdGroup, ...]
    items: tuple[str, ...]
    values: np.ndarray
    basis: ExpenditureBasis

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "items", tuple(self.items))
        ids = [g.group_id for g in self.groups]
        if len(set(ids)) != len(ids):
            dupes = sorted({g for g in ids if ids.count(g) > 1})
            raise DimensionMismatch(f"duplicate group ids: {', '.join(dupes)}")
        if len(set(self.items)) != len(self.items):
            raise DimensionMismatch("duplicate item codes in expenditure matrix")
        shape = (len(self.groups), len(self.items))
        object.__setattr__(self, "values", _frozen(self.values, shape))
        if np.any(self.values < 0):
            raise DimensionMismatch("expenditure values must be nonnegative")
        with np.errstate(over="ignore"):
            totals = self.values.sum(axis=1)
        if not np.isfinite(totals).all():
            raise DimensionMismatch("group totals must be finite")
        empty = [ids[i] for i in np.nonzero(totals <= 0)[0]]
        if empty:
            raise EmptyGroup(empty)

    @property
    def group_ids(self) -> tuple[str, ...]:
        return tuple(g.group_id for g in self.groups)

    def totals(self) -> np.ndarray:
        return self.values.sum(axis=1)


@dataclass(frozen=True)
class CategoryMap:
    """Total mapping from item/sector codes to ordered reporting categories."""

    categories: tuple[str, ...]
    assignments: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "assignments", dict(self.assignments))
        if len(set(self.categories)) != len(self.categories):
            raise DimensionMismatch("duplicate reporting categories")
        known = set(self.categories)
        stray = sorted({c for c in self.assignments.values() if c not in known})
        if stray:
            raise DimensionMismatch(f"assignments target unknown categories: {', '.join(stray)}")

    def category_of(self, code: str) -> str:
        return self.assignments[code]

    def unmapped(self, codes) -> tuple[str, ...]:
        """The ``codes``, in order, that the map assigns no category: it must cover them all."""
        return tuple(code for code in codes if code not in self.assignments)


def expenditure_change(expenditure: ExpenditureMatrix, price_level: np.ndarray) -> np.ndarray:
    """ΔE[h][i] = (p_i − 1) × E[h][i]: spending change to keep the baseline basket."""
    if expenditure.basis is not ExpenditureBasis.SECTOR_CODES:
        raise BasisMismatch("expenditure must be on sector codes; map item codes first")
    return expenditure_change_on_items(expenditure, price_level)


def expenditure_change_on_items(matrix: ExpenditureMatrix, item_prices: np.ndarray) -> np.ndarray:
    """ΔE on either basis, from one price level per code of ``matrix``: on items, concordance-weighted ones."""
    p = np.asarray(item_prices, dtype=float)
    if p.shape != (len(matrix.items),):
        raise DimensionMismatch(f"price vector length {p.shape} does not match {len(matrix.items)} {matrix.basis.value}")
    return (p - 1.0) * matrix.values


@dataclass(frozen=True, eq=False)
class CategoryReport:
    """The category table of every group, as read-only arrays with one row per group in the matrix's order.

    ``base_share``, ``post_share``, ``share_change`` and ``pct_change`` are
    groups × categories. Shares are percent of the group total (a row of
    ``base_share`` or ``post_share`` sums to 100, so one of ``share_change``
    sums to 0); ``pct_change`` is the percent change of spending within each
    category (0 where the base is 0). The ``total_*`` arrays hold one number
    per group; the totals sum a group's category cells, so they may differ in
    the last digits from :meth:`ExpenditureMatrix.totals`, which is what a run
    directory prints in its TOTAL rows.
    """

    categories: tuple[str, ...]
    base_share: np.ndarray
    post_share: np.ndarray
    share_change: np.ndarray
    pct_change: np.ndarray
    total_before: np.ndarray
    total_after: np.ndarray
    total_pct_change: np.ndarray


def category_report(
    expenditure: ExpenditureMatrix,
    delta: np.ndarray,
    category_map: CategoryMap,
) -> CategoryReport:
    """Aggregate E and ΔE into reporting categories, for every group at once."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != expenditure.values.shape:
        raise DimensionMismatch(
            f"delta shape {delta.shape} does not match expenditure {expenditure.values.shape}"
        )
    missing = category_map.unmapped(expenditure.items)
    if missing:
        raise UnmappedItem(missing, context="category map")

    categories = category_map.categories
    cat_index = {c: k for k, c in enumerate(categories)}
    agg = np.zeros((len(categories), len(expenditure.items)))
    for j, code in enumerate(expenditure.items):
        agg[cat_index[category_map.category_of(code)], j] = 1.0

    with np.errstate(all="ignore"):  # a group whose numbers overflow is refused below
        base = expenditure.values @ agg.T  # groups × categories
        post = (expenditure.values + delta) @ agg.T
        total_before, total_after = base.sum(axis=1), post.sum(axis=1)  # > 0: the matrix has no empty group
        base_share = 100.0 * base / total_before[:, np.newaxis]
        post_share = 100.0 * post / total_after[:, np.newaxis]
        pct = np.where(base != 0, 100.0 * (post - base) / base, 0.0)
        total_pct = purchasing_power_change(total_before, total_after)
    _refuse_overflow(expenditure.groups, total_before, total_after, base_share, post_share, pct, total_pct)
    arrays = base_share, post_share, post_share - base_share, pct, total_before, total_after, total_pct
    for array in arrays:
        array.setflags(write=False)
    return CategoryReport(categories, *arrays)


def _refuse_overflow(groups: Sequence[HouseholdGroup], *tables: np.ndarray) -> None:
    """Raise for the first of ``groups`` whose row in any of ``tables`` (one row per group) is not finite."""
    finite = np.isfinite(np.column_stack(tables)).all(axis=1)
    if not finite.all():
        group = groups[int(np.argmin(finite))]
        raise DimensionMismatch(f"the report numbers of group {group.group_id} overflow: its spending is too large")


def purchasing_power_change(total_before: float | np.ndarray, total_after: float | np.ndarray):
    """Percent change of a group total, or elementwise of arrays of them; negative means the basket got cheaper."""
    nonpositive = np.asarray(total_before)[np.asarray(total_before) <= 0]
    if nonpositive.size:
        raise NonPositiveBase(f"base total must be positive, got {nonpositive[0]}")
    return 100.0 * (total_after - total_before) / total_before


def gap_ratios(totals: Mapping[str, float], base_group: str) -> dict[str, float]:
    """Each group's total relative to the base group's (base maps to exactly 1.0)."""
    if base_group not in totals:
        raise UnknownBaseGroup(f"base group {base_group!r} not in totals")
    base = float(totals[base_group])
    if base <= 0:
        raise NonPositiveBase(f"base group {base_group!r} has non-positive total {base}")
    return {g: float(v) / base for g, v in totals.items()}


def gap_change_report(
    before: Mapping[str, float], after: Mapping[str, float]
) -> dict[str, float]:
    """Percent change of each group's gap ratio; negative means the gap narrowed."""
    if set(before) != set(after):
        raise DimensionMismatch("before/after ratios cover different groups")
    for g, ratio in before.items():
        if ratio <= 0:
            raise NonPositiveBase(f"group {g!r} has non-positive base ratio {ratio}")
    return {g: purchasing_power_change(before[g], after[g]) for g in before}
