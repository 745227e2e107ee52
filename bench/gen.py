"""Seeded input generator for the benchmark.

Every input is built through gstio's public constructors and written with
its ``save_*`` functions, so the loaders see exactly the objects built here.
The in-memory objects are returned too: the oracle reads them instead of
anything gstio computes. The same seed and sizes give byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gstio import (
    REPORTING_CATEGORIES,
    CategoryMap,
    Concordance,
    ConcordanceLink,
    ExpenditureBasis,
    ExpenditureMatrix,
    GroupDimension,
    HouseholdGroup,
    IOTable,
    RateCategory,
    RateSchedule,
    SectorSet,
    save_category_map,
    save_concordance,
    save_expenditure,
    save_io_table,
    save_rate_schedule,
)

GST_RATE = 0.06


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload.

    ``items`` > 0 makes the expenditure item-coded with a 2-way concordance;
    ``items`` == 0 makes it sector-coded over ``bought`` sectors.
    """

    sectors: int
    density: float
    groups: int
    items: int = 0
    bought: int = 0
    masks: int = 1


@dataclass(frozen=True)
class Inputs:
    """Paths of the written files plus the objects they were written from."""

    directory: Path
    table: IOTable
    schedules: tuple[RateSchedule, ...]
    expenditure: ExpenditureMatrix
    concordance: Concordance
    category_map: CategoryMap

    def path(self, name: str) -> Path:
        return self.directory / name

    @property
    def item_coded(self) -> bool:
        return self.expenditure.basis is ExpenditureBasis.ITEM_CODES


def schedule_file(mask: int) -> str:
    return "rate_schedule.csv" if mask == 0 else f"rate_schedule_m{mask}.csv"


def io_table(rng: np.random.Generator, n: int, density: float) -> IOTable:
    """A balanced table: A has the given share of non-zero entries.

    Column sums of A lie in [0.2, 0.6], so every masked A'B̂ is productive.
    Gross output solves x = Ax + d for a positive demand d, which balances
    the rows; primary inputs take up the rest of each column.
    """
    ids = tuple(f"s{i:04d}" for i in range(n))
    sectors = SectorSet(ids=ids, names=tuple(f"Sector {i}" for i in range(n)))
    A = np.where(rng.random((n, n)) < density, rng.random((n, n)), 0.0)
    sums = A.sum(axis=0)
    A *= np.divide(rng.uniform(0.2, 0.6, n), sums, out=np.zeros(n), where=sums > 0)
    demand = rng.uniform(50.0, 150.0, n)
    x = np.linalg.solve(np.eye(n) - A, demand)
    Z = A * x[np.newaxis, :]
    primary = (x - Z.sum(axis=0))[:, np.newaxis] * rng.dirichlet([5.0, 3.0, 2.0, 0.5], n)
    exports = 0.2 * demand
    return IOTable(
        sectors=sectors,
        Z=Z,
        f=demand - exports,
        e=exports,
        labor=primary[:, 0],
        capital=primary[:, 1],
        imports=primary[:, 2],
        indirect_tax=primary[:, 3],
        x=x,
    )


def rate_schedule(rng: np.random.Generator, sectors: SectorSet) -> RateSchedule:
    """Mostly standard-rated, with zero-rated, exempt and fractional sectors.

    The first three sectors are one of each category and the second carries
    a fractional share, so even a three-sector schedule has all of them.
    """
    n = len(sectors)
    draw = rng.random(n)
    categories = [
        RateCategory.STANDARD_RATED if u < 0.6 else RateCategory.ZERO_RATED if u < 0.8 else RateCategory.EXEMPT
        for u in draw
    ]
    categories[:3] = [RateCategory.STANDARD_RATED, RateCategory.ZERO_RATED, RateCategory.EXEMPT][:n]
    shares = np.array([1.0 if c is RateCategory.STANDARD_RATED else 0.0 for c in categories])
    fractional = rng.random(n) < 0.1
    fractional[min(1, n - 1)] = True
    shares[fractional] = np.round(rng.uniform(0.1, 0.9, int(fractional.sum())), 3)
    return RateSchedule(sectors=sectors, categories=tuple(categories), standard_share=shares, gst_rate=GST_RATE)


def _groups(count: int) -> tuple[HouseholdGroup, ...]:
    income = (count + 1) // 2
    return tuple(
        HouseholdGroup(f"inc{k:03d}", GroupDimension.INCOME_CLASS, f"income band {k}")
        if k < income
        else HouseholdGroup(f"eth{k - income:03d}", GroupDimension.ETHNICITY, f"ethnic group {k - income}")
        for k in range(count)
    )


def _amounts(rng: np.random.Generator, groups: int, columns: int) -> np.ndarray:
    return np.round(rng.uniform(1.0, 200.0, (groups, columns)), 2)


def _category_map(rng: np.random.Generator, codes: tuple[str, ...]) -> CategoryMap:
    picks = rng.permutation(np.arange(len(codes)) % len(REPORTING_CATEGORIES))
    return CategoryMap(
        categories=REPORTING_CATEGORIES,
        assignments={code: REPORTING_CATEGORIES[k] for code, k in zip(codes, picks)},
    )


def _two_way_concordance(rng: np.random.Generator, sectors: SectorSet, items: tuple[str, ...]) -> Concordance:
    n = len(sectors)
    links = []
    for item in items:
        first = int(rng.integers(n))
        second = (first + 1 + int(rng.integers(n - 1))) % n
        weight = round(float(rng.uniform(0.1, 0.9)), 3)
        links.append(ConcordanceLink(item, sectors.ids[first], weight))
        links.append(ConcordanceLink(item, sectors.ids[second], 1.0 - weight))
    return Concordance(sectors=sectors, links=tuple(links))


def generate(directory: Path, seed: int, sizes: Sizes) -> Inputs:
    """Write every input file of one workload into ``directory``.

    Files: io_table.csv, rate_schedule.csv (plus rate_schedule_m<k>.csv for
    the extra masks), expenditure.csv, concordance.csv and category_map.csv.
    For sector-coded expenditure the concordance maps each bought sector id
    to itself; the CLI scenario does not use it.
    """
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    table = io_table(rng, sizes.sectors, sizes.density)
    sectors = table.sectors
    schedules = tuple(rate_schedule(rng, sectors) for _ in range(sizes.masks))
    groups = _groups(sizes.groups)
    if sizes.items:
        items = tuple(f"item{j:04d}" for j in range(sizes.items))
        expenditure = ExpenditureMatrix(groups, items, _amounts(rng, len(groups), len(items)), ExpenditureBasis.ITEM_CODES)
        concordance = _two_way_concordance(rng, sectors, items)
        category_map = _category_map(rng, items)
    else:
        bought = np.sort(rng.choice(len(sectors), size=sizes.bought, replace=False))
        items = tuple(sectors.ids[i] for i in bought)
        expenditure = ExpenditureMatrix(groups, items, _amounts(rng, len(groups), len(items)), ExpenditureBasis.SECTOR_CODES)
        concordance = Concordance(sectors=sectors, links=tuple(ConcordanceLink(s, s, 1.0) for s in items))
        category_map = _category_map(rng, sectors.ids)

    save_io_table(table, directory / "io_table.csv")
    for k, schedule in enumerate(schedules):
        save_rate_schedule(schedule, directory / schedule_file(k))
    save_expenditure(expenditure, directory / "expenditure.csv")
    save_concordance(concordance, directory / "concordance.csv")
    save_category_map(category_map, directory / "category_map.csv")
    return Inputs(directory, table, schedules, expenditure, concordance, category_map)


def write_scenario(inputs: Inputs, *, treatment: str, exempt_retains_input_tax: bool) -> Path:
    """Write scenario.cfg for the CLI; concordance only when item-coded."""
    concordance = "concordance = concordance.csv\n" if inputs.item_coded else ""
    path = inputs.path("scenario.cfg")
    path.write_text(
        "[inputs]\n"
        "io_table = io_table.csv\n"
        "rate_schedule = rate_schedule.csv\n"
        "expenditure = expenditure.csv\n"
        f"{concordance}"
        "category_map = category_map.csv\n"
        "\n[tax]\n"
        f"gst_rate = {GST_RATE}\n"
        f"masked_input_treatment = {treatment}\n"
        f"exempt_retains_input_tax = {'true' if exempt_retains_input_tax else 'false'}\n"
        "\n[report]\n"
        "output_dir = out\n",
        encoding="utf-8",
    )
    return path
