"""CSV schemas, loading, validation and classification concordance.

All files are UTF-8 CSV with a header row, '.' decimal separator and no
thousands separators. The header must start with the columns named below;
further columns are ignored. Blank rows are skipped (except inside the IO
table's sector block, which is positional). Every load error names the
file, line and column, 1-based: the header is line 1. A byte that is not
UTF-8 is reported at its line.

IO table (``load_io_table``)::

    sector_id,sector_name,<id_1>,...,<id_n>,FINAL_DEMAND,EXPORTS,OUTPUT
    <id_1>,<name_1>,Z[1,1],...,Z[1,n],f[1],e[1],x[1]
    ...
    LABOR,,<per-sector labor compensation>,,,
    CAPITAL,,<per-sector operating surplus>,,,
    IMPORTS,,<per-sector imports>,,,
    INDIRECT_TAX,,<per-sector indirect taxes>,,,

    Sector rows appear in header order. The primary-input rows follow; a
    single combined VALUE_ADDED row may replace LABOR + CAPITAL (it is
    stored as capital with labor = 0, which changes nothing downstream
    because the two only ever enter as their sum). Primary rows leave the
    three demand-side cells empty. No Z, EXPORTS or primary-input cell may
    be negative; FINAL_DEMAND may (an inventory change), and OUTPUT must be
    positive.

    The sector block is parsed in one numpy pass. Only when numpy declines
    it, for an error or for a cell such as ``1_000`` that Python's
    ``float`` reads and numpy does not, are its rows walked one by one with
    ``csv``: the walk locates the error at its cell, or reads the cell as
    ``float`` does.

Rate schedule (``load_rate_schedule``)::

    sector_id,category,standard_share,note

    category is one of standard, zero_rated, exempt (case-insensitive;
    anything else is a hard error). standard_share is the fraction of the
    sector's output value that is standard-rated; an empty share defaults to
    1 for standard and 0 otherwise. Sectors absent from the file default to
    fully standard-rated, with one warning per sector.

Expenditure (``load_expenditure``), long format::

    group_id,dimension,label,item_code,amount

    dimension is one of income, ethnicity. Duplicate (group, item) rows sum.

Concordance (``load_concordance``)::

    item_code,sector_id,weight

    Weights per item must sum to 1 (±1e-9); each weight lies in (0, 1].

Category map (``load_category_map``)::

    code,category

    Categories are ordered by first appearance.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    BasisMismatch,
    DimensionMismatch,
    InvalidShare,
    LoadError,
    ParseError,
    SchemaError,
    UnknownSector,
    UnmappedItem,
    ZeroOutput,
)
from .incidence import (
    CategoryMap,
    ExpenditureBasis,
    ExpenditureMatrix,
    GroupDimension,
    HouseholdGroup,
)
from .io_model import (
    BalanceReport,
    IOTable,
    SectorSet,
    balance_report,
)
from .price_model import RateCategory, RateSchedule

LABOR_ROW = "LABOR"
CAPITAL_ROW = "CAPITAL"
VALUE_ADDED_ROW = "VALUE_ADDED"
IMPORTS_ROW = "IMPORTS"
INDIRECT_TAX_ROW = "INDIRECT_TAX"
DEMAND_COLUMNS = ("FINAL_DEMAND", "EXPORTS", "OUTPUT")

_CATEGORY_TOKENS = {c.value: c for c in RateCategory}

_DIMENSION_TOKENS = {d.value: d for d in GroupDimension}


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc
    except UnicodeDecodeError:
        raise _not_utf8(ParseError, path) from None
    if not text:
        raise SchemaError("empty file", path=path, line=1)
    return text


def _read_rows(text: str) -> Iterator[list[str]]:
    return csv.reader(io.StringIO(text, newline=""))


def _not_utf8(error: type[LoadError], path) -> LoadError:
    """``error`` at the line of the first byte of ``path`` that is not UTF-8.

    Called only after a read of the file has failed, so a good file is read
    once. The failed read's offset counts from its own buffer, so the bytes
    are decoded again from the start of the file to find the line.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return error(f"not UTF-8: byte 0x{data[exc.start]:02x}", path=path, line=line)
    return error("not UTF-8", path=path)  # the file changed after the failed read


def _records(path, header: tuple[str, ...]):
    """Yield ``(line, row)`` for each non-blank data row of a CSV file.

    The header row must start with ``header``; lines are 1-based, so the
    first data row is line 2.
    """
    rows = _read_rows(_read_text(path))
    if tuple(next(rows)[: len(header)]) != header:
        raise SchemaError(f"header must start with {','.join(header)}", path=path, line=1, column=1)
    for line, row in enumerate(rows, start=2):
        if row not in ([], [""]):
            yield line, row


def _write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and then ``rows`` as UTF-8 CSV with Unix line endings."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cell_float(cell: str, *, path, line: int, column: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"not a number: {cell!r}", path=path, line=line, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"not a finite number: {cell!r}", path=path, line=line, column=column)
    return value


def _row_floats(cells: list[str], *, path, line: int) -> np.ndarray:
    """Parse a row's numeric cells, which start at column 3, in one numpy call.

    This parses the primary-input rows, and the sector rows when the walk
    locates an error in the sector block. numpy converts each str with
    Python's ``float``. Only when a cell is not a finite number is the row
    walked cell by cell, to raise the ``ParseError`` at its column; if the
    walk finds no bad cell, its values are returned, so a stricter numpy
    never changes a result.
    """
    try:
        values = np.array(cells, dtype=float)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([_cell_float(cell, path=path, line=line, column=3 + j) for j, cell in enumerate(cells)])


def _require_width(row: list[str], width: int, *, path, line: int) -> None:
    if len(row) != width:
        raise ParseError(
            f"expected {width} fields, got {len(row)}", path=path, line=line, column=len(row) + 1
        )


def _parse_sector_block(lines: list[str], ids: tuple[str, ...]):
    """Parse the sector rows, the first ``n`` of ``lines``, in one numpy pass.

    ``lines`` are the table's lines after its header. Returns the sector
    names, the ``n × (n + 3)`` numeric cells and a csv reader over the rows
    after the block, or None when numpy cannot vouch for the block: then
    ``_walk_sector_rows`` parses it again and raises its error. The block is
    accepted only when it holds ``n`` rows of the header's width, in header
    order, whose cells are all finite numbers; numpy reads a subset of what
    ``float`` reads, so an accepted block has the walk's values.
    """
    n = len(ids)
    block = lines[:n]
    # numpy skips a blank line, which the walk rejects, and warns when every
    # line is; it strips \x1c-\x1f around a number, which float rejects
    if len(block) < n or not block[0].strip("\r\n"):
        return None
    if any(sep in line for line in block for sep in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        rows = np.loadtxt(
            block,
            dtype=[("id", object), ("name", object), ("cells", float, (n + 3,))],
            delimiter=",",
            quotechar='"',
            comments=None,
            ndmin=1,
        )
    except ValueError:
        return None
    if tuple(rows["id"]) != ids or not np.isfinite(rows["cells"]).all():
        return None
    # numpy ends the last row at the end of the block even inside an open
    # quote, where csv reads on; so csv reads that row again to decide
    rest = csv.reader(lines[n - 1 :])
    next(rest)
    if rest.line_num != 1:
        return None
    return list(rows["name"]), rows["cells"], rest


def _walk_sector_rows(rows: list[list[str]], ids: tuple[str, ...], *, path) -> tuple[list[str], np.ndarray]:
    """The sector names and cells of a table's csv ``rows``, header first, checked row by row.

    Raises at the first error in file order, at its line and column.
    """
    n = len(ids)
    names = []
    cells = np.zeros((n, n + 3))
    data_rows = rows[1:]
    if len(data_rows) < n:
        raise SchemaError(f"expected {n} sector rows, found {len(data_rows)}", path=path, line=len(rows))
    for i in range(n):
        line = i + 2
        row = data_rows[i]
        _require_width(row, n + 5, path=path, line=line)
        if row[0] != ids[i]:
            raise SchemaError(
                f"sector rows must follow header order; expected {ids[i]!r}, got {row[0]!r}",
                path=path,
                line=line,
                column=1,
            )
        names.append(row[1])
        cells[i] = _row_floats(row[2:], path=path, line=line)
    return names, cells


def load_io_table(path, *, allow_unbalanced: bool = False) -> tuple[IOTable, BalanceReport]:
    """Load a flow table, validate it and return it with its balance report.

    Raises :class:`Unbalanced` beyond BALANCE_TOLERANCE unless
    ``allow_unbalanced``; the report is returned either way.
    """
    text = _read_text(path)
    lines = io.StringIO(text, newline="")
    header = next(csv.reader(lines))
    if header[:2] != ["sector_id", "sector_name"]:
        raise SchemaError(
            "header must start with sector_id,sector_name", path=path, line=1, column=1
        )
    if tuple(header[-3:]) != DEMAND_COLUMNS:
        raise SchemaError(
            f"header must end with {','.join(DEMAND_COLUMNS)}", path=path, line=1, column=max(len(header) - 2, 3)
        )
    ids = tuple(header[2:-3])
    n = len(ids)
    if n == 0:
        raise SchemaError("no sector columns in header", path=path, line=1, column=3)

    # listing the lines after the header frees the stream's copy of the text
    lines = list(lines)
    block = _parse_sector_block(lines, ids)
    if block is None:
        rows = list(_read_rows(text))
        names, cells = _walk_sector_rows(rows, ids, path=path)
        primary_rows = rows[n + 1 :]
    else:
        names, cells, primary_rows = block
    Z = cells[:, :n]
    f, e, x = cells[:, n:].T

    primary: dict[str, np.ndarray] = {}
    primary_lines = []
    for line, row in enumerate(primary_rows, start=n + 2):
        if not row or not row[0]:
            continue
        _require_width(row, len(header), path=path, line=line)
        label = row[0]
        if label in primary:
            raise SchemaError(f"duplicate primary-input row {label}", path=path, line=line, column=1)
        if label not in (LABOR_ROW, CAPITAL_ROW, VALUE_ADDED_ROW, IMPORTS_ROW, INDIRECT_TAX_ROW):
            raise SchemaError(f"unknown row label {label!r}", path=path, line=line, column=1)
        primary[label] = _row_floats(row[2 : 2 + n], path=path, line=line)
        primary_lines.append(line)

    # Z, EXPORTS and the primary inputs must not be negative; FINAL_DEMAND may
    # be (an inventory change), and OUTPUT has its own check below
    signed = np.zeros((n + len(primary), n + 3))
    signed[:n] = cells
    signed[:n, [n, n + 2]] = 0.0
    signed[n:, :n] = np.reshape(list(primary.values()), (-1, n))
    negative = signed < 0
    if negative.any():
        row, column = np.unravel_index(negative.argmax(), negative.shape)
        raise ParseError(
            f"must not be negative, got {float(signed[row, column])}",
            path=path,
            line=[*range(2, n + 2), *primary_lines][row],
            column=int(column) + 3,
        )

    if VALUE_ADDED_ROW in primary and (LABOR_ROW in primary or CAPITAL_ROW in primary):
        raise SchemaError(
            f"{VALUE_ADDED_ROW} cannot be combined with {LABOR_ROW}/{CAPITAL_ROW}", path=path
        )
    if VALUE_ADDED_ROW in primary:
        labor = np.zeros(n)
        capital = primary[VALUE_ADDED_ROW]
    elif LABOR_ROW in primary and CAPITAL_ROW in primary:
        labor = primary[LABOR_ROW]
        capital = primary[CAPITAL_ROW]
    else:
        raise SchemaError(
            f"missing value-added rows: need {VALUE_ADDED_ROW} or both {LABOR_ROW} and {CAPITAL_ROW}",
            path=path,
        )
    for required in (IMPORTS_ROW, INDIRECT_TAX_ROW):
        if required not in primary:
            raise SchemaError(f"missing required row {required}", path=path)

    _check_output(x <= 0, ids, path, "must be strictly positive")
    table = IOTable(
        sectors=SectorSet(ids=ids, names=tuple(names)),
        Z=Z,
        f=f,
        e=e,
        labor=labor,
        capital=capital,
        imports=primary[IMPORTS_ROW],
        indirect_tax=primary[INDIRECT_TAX_ROW],
        x=x,
    )
    report = balance_report(table)
    # OUTPUT below one of the sector's own input cells gives a coefficient
    # above 1, and a residual overflows where OUTPUT is tiny beside its flows
    largest_input = np.max([Z.max(axis=0), labor, capital, table.imports, table.indirect_tax], axis=0)
    too_small = (x < largest_input) | np.isinf(report.row_residuals) | np.isinf(report.column_residuals)
    _check_output(too_small, ids, path, "is too small for its flows")
    if not allow_unbalanced:
        table.check_balance()
    return table, report


def _check_output(bad: np.ndarray, ids: tuple[str, ...], path, problem: str) -> None:
    """Raise :class:`ZeroOutput` at the OUTPUT cell of the first sector flagged in ``bad``."""
    if bad.any():
        i = int(bad.argmax())
        raise ZeroOutput(f"{path}:{i + 2}:{len(ids) + 5}: OUTPUT of sector {ids[i]} {problem}")


def save_io_table(table: IOTable, path) -> None:
    """Serialize a table in the load_io_table schema, bit-exact on reload."""
    ids = table.sectors.ids
    sector_rows = (
        [
            sector_id,
            table.sectors.names[i],
            *(repr(float(v)) for v in table.Z[i]),
            repr(float(table.f[i])),
            repr(float(table.e[i])),
            repr(float(table.x[i])),
        ]
        for i, sector_id in enumerate(ids)
    )
    primary_rows = (
        [label, "", *(repr(float(v)) for v in values), "", "", ""]
        for label, values in (
            (LABOR_ROW, table.labor),
            (CAPITAL_ROW, table.capital),
            (IMPORTS_ROW, table.imports),
            (INDIRECT_TAX_ROW, table.indirect_tax),
        )
    )
    _write_csv(path, ["sector_id", "sector_name", *ids, *DEMAND_COLUMNS], chain(sector_rows, primary_rows))


def load_rate_schedule(
    path,
    sectors: SectorSet,
    *,
    gst_rate: float = 0.06,
) -> tuple[RateSchedule, list[str]]:
    """Load the per-sector tax treatment list; absent sectors default to standard.

    The statutory rate is not part of the file (it belongs to the scenario),
    so it is passed in. Returns the schedule plus one warning per defaulted
    sector.
    """
    n = len(sectors)
    categories: list[RateCategory | None] = [None] * n
    shares = np.ones(n)
    for line, row in _records(path, ("sector_id", "category", "standard_share")):
        if len(row) < 3:
            raise ParseError(f"expected at least 3 fields, got {len(row)}", path=path, line=line, column=len(row) + 1)
        sector_id, token, share_cell = row[0], row[1], row[2]
        try:
            index = sectors.index(sector_id)
        except KeyError:
            raise UnknownSector(f"unknown sector {sector_id!r}", path=path, line=line, column=1) from None
        if categories[index] is not None:
            raise SchemaError(f"duplicate entry for sector {sector_id!r}", path=path, line=line, column=1)
        try:
            category = _CATEGORY_TOKENS[token.strip().lower()]
        except KeyError:
            raise SchemaError(
                f"unknown category {token!r}; expected one of {', '.join(_CATEGORY_TOKENS)}",
                path=path,
                line=line,
                column=2,
            ) from None
        if share_cell.strip() == "":
            share = 1.0 if category is RateCategory.STANDARD_RATED else 0.0
        else:
            share = _cell_float(share_cell, path=path, line=line, column=3)
        if not 0.0 <= share <= 1.0:
            raise InvalidShare(
                f"standard_share must lie in [0, 1], got {share}", path=path, line=line, column=3
            )
        categories[index] = category
        shares[index] = share

    warnings = []
    for i, category in enumerate(categories):
        if category is None:
            categories[i] = RateCategory.STANDARD_RATED
            shares[i] = 1.0
            warnings.append(
                f"sector {sectors.ids[i]} missing from {path}; defaulting to standard-rated, share 1"
            )
    schedule = RateSchedule(
        sectors=sectors,
        categories=tuple(categories),  # type: ignore[arg-type]
        standard_share=shares,
        gst_rate=gst_rate,
    )
    return schedule, warnings


def save_rate_schedule(schedule: RateSchedule, path) -> None:
    _write_csv(
        path,
        ["sector_id", "category", "standard_share", "note"],
        (
            [sector_id, schedule.categories[i].value, repr(float(schedule.standard_share[i])), ""]
            for i, sector_id in enumerate(schedule.sectors.ids)
        ),
    )


def load_expenditure(path, *, basis: ExpenditureBasis = ExpenditureBasis.ITEM_CODES) -> ExpenditureMatrix:
    """Load long-format group expenditure rows into a matrix."""
    groups: dict[str, tuple[GroupDimension, str]] = {}
    items: list[str] = []
    item_index: dict[str, int] = {}
    amounts: dict[tuple[str, str], float] = {}
    for line, row in _records(path, ("group_id", "dimension", "label", "item_code", "amount")):
        _require_width(row, 5, path=path, line=line)
        group_id, dim_token, label, item_code, amount_cell = row
        try:
            dimension = _DIMENSION_TOKENS[dim_token.strip().lower()]
        except KeyError:
            raise SchemaError(
                f"unknown dimension {dim_token!r}; expected one of {', '.join(_DIMENSION_TOKENS)}",
                path=path,
                line=line,
                column=2,
            ) from None
        if groups.setdefault(group_id, (dimension, label)) != (dimension, label):
            raise SchemaError(
                f"group {group_id!r} redefined with different dimension/label",
                path=path,
                line=line,
                column=1,
            )
        amount = _cell_float(amount_cell, path=path, line=line, column=5)
        if amount < 0:
            raise ParseError(f"amount must be nonnegative, got {amount}", path=path, line=line, column=5)
        if item_code not in item_index:
            item_index[item_code] = len(items)
            items.append(item_code)
        key = (group_id, item_code)
        amounts[key] = amounts.get(key, 0.0) + amount

    if not groups:
        raise SchemaError("no expenditure rows", path=path, line=1)
    group_index = {group_id: h for h, group_id in enumerate(groups)}
    values = np.zeros((len(groups), len(items)))
    for (group_id, item), amount in amounts.items():
        values[group_index[group_id], item_index[item]] = amount
    return ExpenditureMatrix(
        groups=tuple(
            HouseholdGroup(group_id=group_id, dimension=dimension, label=label)
            for group_id, (dimension, label) in groups.items()
        ),
        items=tuple(items),
        values=values,
        basis=basis,
    )


def save_expenditure(matrix: ExpenditureMatrix, path) -> None:
    _write_csv(
        path,
        ["group_id", "dimension", "label", "item_code", "amount"],
        (
            [group.group_id, group.dimension.value, group.label, item, repr(float(matrix.values[h, j]))]
            for h, group in enumerate(matrix.groups)
            for j, item in enumerate(matrix.items)
        ),
    )


@dataclass(frozen=True)
class ConcordanceLink:
    item_code: str
    sector_id: str
    weight: float


@dataclass(frozen=True)
class Concordance:
    """Weighted many-to-many map from consumption items to IO sectors.

    Weights for each item sum to 1, so applying the concordance conserves
    every group's total expenditure.
    """

    sectors: SectorSet
    links: tuple[ConcordanceLink, ...]

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        sums: dict[str, float] = {}
        seen: set[tuple[str, str]] = set()
        for link in self.links:
            if not 0.0 < link.weight <= 1.0:
                raise DimensionMismatch(
                    f"weight for ({link.item_code}, {link.sector_id}) must lie in (0, 1]"
                )
            if link.sector_id not in self.sectors:
                raise DimensionMismatch(f"link references unknown sector {link.sector_id!r}")
            key = (link.item_code, link.sector_id)
            if key in seen:
                raise DimensionMismatch(f"duplicate link {key}")
            seen.add(key)
            sums[link.item_code] = sums.get(link.item_code, 0.0) + link.weight
        bad = sorted(item for item, total in sums.items() if abs(total - 1.0) > 1e-9)
        if bad:
            raise DimensionMismatch(f"weights do not sum to 1 for items: {', '.join(bad)}")

    @property
    def item_codes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(link.item_code for link in self.links))

    def weight_matrix(self, items: tuple[str, ...]) -> np.ndarray:
        """items × sectors weight matrix (rows sum to 1) for the given item order."""
        mapped = set(self.item_codes)
        missing = [item for item in items if item not in mapped]
        if missing:
            raise UnmappedItem(missing, context="concordance")
        row = {item: j for j, item in enumerate(items)}
        weights = np.zeros((len(items), len(self.sectors)))
        for link in self.links:
            j = row.get(link.item_code)
            if j is not None:
                weights[j, self.sectors.index(link.sector_id)] = link.weight
        return weights


def load_concordance(path, sectors: SectorSet) -> Concordance:
    links = []
    for line, row in _records(path, ("item_code", "sector_id", "weight")):
        _require_width(row, 3, path=path, line=line)
        item_code, sector_id, weight_cell = row
        if sector_id not in sectors:
            raise UnknownSector(f"unknown sector {sector_id!r}", path=path, line=line, column=2)
        weight = _cell_float(weight_cell, path=path, line=line, column=3)
        if not 0.0 < weight <= 1.0:
            raise InvalidShare(f"weight must lie in (0, 1], got {weight}", path=path, line=line, column=3)
        links.append(ConcordanceLink(item_code=item_code, sector_id=sector_id, weight=weight))
    try:
        return Concordance(sectors=sectors, links=tuple(links))
    except DimensionMismatch as exc:
        raise SchemaError(str(exc), path=path) from exc


def save_concordance(concordance: Concordance, path) -> None:
    _write_csv(
        path,
        ["item_code", "sector_id", "weight"],
        ([link.item_code, link.sector_id, repr(float(link.weight))] for link in concordance.links),
    )


def load_category_map(path) -> CategoryMap:
    categories: list[str] = []
    assignments: dict[str, str] = {}
    for line, row in _records(path, ("code", "category")):
        _require_width(row, 2, path=path, line=line)
        code, category = row
        if code in assignments:
            raise SchemaError(f"duplicate code {code!r}", path=path, line=line, column=1)
        if category not in categories:
            categories.append(category)
        assignments[code] = category
    if not assignments:
        raise SchemaError("no category assignments", path=path, line=1)
    return CategoryMap(categories=tuple(categories), assignments=assignments)


def save_category_map(category_map: CategoryMap, path) -> None:
    _write_csv(path, ["code", "category"], category_map.assignments.items())


def map_expenditure(matrix: ExpenditureMatrix, concordance: Concordance) -> ExpenditureMatrix:
    """Re-express an item-coded expenditure matrix on IO sector codes.

    Output columns follow the concordance's sector order (the shared
    SectorSet order), so the result aligns with price vectors. Group totals
    are conserved because each item's weights sum to 1.
    """
    if matrix.basis is not ExpenditureBasis.ITEM_CODES:
        raise BasisMismatch("map_expenditure requires an item-coded matrix")
    weights = concordance.weight_matrix(matrix.items)
    return ExpenditureMatrix(
        groups=matrix.groups,
        items=concordance.sectors.ids,
        values=matrix.values @ weights,
        basis=ExpenditureBasis.SECTOR_CODES,
    )


def align_expenditure(matrix: ExpenditureMatrix, sectors: SectorSet) -> ExpenditureMatrix:
    """Reindex a sector-coded matrix onto the full sector order (zero-filled).

    Item codes must all be sector ids; sectors the groups buy nothing from
    get zero columns so the result aligns with price vectors.
    """
    if matrix.basis is not ExpenditureBasis.SECTOR_CODES:
        raise BasisMismatch("align_expenditure requires a sector-coded matrix")
    unknown = [item for item in matrix.items if item not in sectors]
    if unknown:
        raise UnmappedItem(unknown, context="sector set")
    values = np.zeros((len(matrix.groups), len(sectors)))
    for j, item in enumerate(matrix.items):
        values[:, sectors.index(item)] = matrix.values[:, j]
    return ExpenditureMatrix(
        groups=matrix.groups,
        items=sectors.ids,
        values=values,
        basis=ExpenditureBasis.SECTOR_CODES,
    )


def load_household(
    expenditure, concordance, sectors: SectorSet
) -> tuple[ExpenditureMatrix, ExpenditureMatrix, np.ndarray | None]:
    """Load household spending on sectors and on the codes categories are reported in.

    With a concordance the expenditure file is item-coded and mapped through
    it: returns the mapped sector matrix, the item matrix and the items ×
    sectors weights. Without one its item codes must be sector ids: returns
    the matrix aligned to all sectors twice, and no weights.
    """
    if concordance is None:
        aligned = align_expenditure(
            load_expenditure(expenditure, basis=ExpenditureBasis.SECTOR_CODES), sectors
        )
        return aligned, aligned, None
    items = load_expenditure(expenditure, basis=ExpenditureBasis.ITEM_CODES)
    mapping = load_concordance(concordance, sectors)
    return map_expenditure(items, mapping), items, mapping.weight_matrix(items.items)
