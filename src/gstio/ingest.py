"""CSV schemas, loading, validation and classification concordance.

All files are UTF-8 CSV with a header row, '.' decimal separator and no
thousands separators. The header must start with the columns named below.
The long-format files (rate schedule, expenditure, concordance, category
map) need at least their named columns in every row, and further fields are
ignored. The IO table, and the run tables ``gstio report`` reads, need
exactly the header's width in every row. Blank rows are skipped (except
inside the IO table's sector block, which is positional). Each file but the
expenditure file is read once, into the list of its lines, and only that
list is parsed; the expenditure file is streamed, and read again only for
its row walk or to locate an overflow. Every load error names the file, line
and column, 1-based: the header is line 1. A byte that is not UTF-8 is
reported at its line.

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
    ``float`` does. Either way the first error in file order is reported,
    also when the block is short of rows: a bad cell before the end of the
    file comes before the missing rows.

Rate schedule (``load_rate_schedule``)::

    sector_id,category,standard_share,note

    category is one of standard, zero_rated, exempt (case-insensitive;
    anything else is a hard error). standard_share is the fraction of the
    sector's output value that is standard-rated; an empty share defaults to
    1 for standard and 0 otherwise. Sectors absent from the file default to
    fully standard-rated, with one warning per sector.

Expenditure (``load_expenditure``), long format::

    group_id,dimension,label,item_code,amount

    dimension is one of income, ethnicity. group_id and item_code must not
    be empty. Duplicate (group, item) rows sum. Each group's total must be
    finite: the row whose amount, summed in file order, makes it overflow is
    an error at its amount.

    The file is read in blocks of EXPENDITURE_BLOCK_LINES lines, each parsed
    in one numpy pass, so only a block's lines and cell strings are held at
    a time. When numpy cannot vouch for a block (a quote, a blank line, a
    cell numpy declines, an amount that is not finite or is negative, an
    unknown dimension, a redefined group or an empty id) the whole file is
    read again and its rows are walked one by one with ``csv``, which
    locates the first error in file order. Either way the rows are added
    into the matrix by one code path, so the matrix has the same bits.

Concordance (``load_concordance``)::

    item_code,sector_id,weight

    Weights per item must sum to 1 (±1e-9); each weight lies in (0, 1].

Category map (``load_category_map``)::

    code,category

    Categories are ordered by first appearance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    BasisMismatch,
    DimensionMismatch,
    EmptyGroup,
    InvalidShare,
    LoadError,
    ParseError,
    SchemaError,
    UnknownSector,
    UnmappedItem,
    ZeroOutput,
)
from .incidence import CategoryMap, ExpenditureBasis, ExpenditureMatrix, GroupDimension, HouseholdGroup
from .io_model import BalanceReport, IOTable, SectorSet, balance_report
from .price_model import RateCategory, RateSchedule

LABOR_ROW = "LABOR"
CAPITAL_ROW = "CAPITAL"
VALUE_ADDED_ROW = "VALUE_ADDED"
IMPORTS_ROW = "IMPORTS"
INDIRECT_TAX_ROW = "INDIRECT_TAX"
DEMAND_COLUMNS = ("FINAL_DEMAND", "EXPORTS", "OUTPUT")
EXPENDITURE_COLUMNS = ("group_id", "dimension", "label", "item_code", "amount")

_CATEGORY_TOKENS = {c.value: c for c in RateCategory}

_DIMENSION_TOKENS = {d.value: d for d in GroupDimension}

# lines of the expenditure file parsed in one numpy pass; larger blocks are
# no faster, and hold more lines and cell strings at a time
EXPENDITURE_BLOCK_LINES = 256
_EXPENDITURE_DTYPE = [(name, object) for name in EXPENDITURE_COLUMNS[:4]] + [("amount", float)]
# a quote may open a cell that spans lines; NUL and \x1c-\x1f are read
# differently by numpy and csv or float
_UNVOUCHED = '"\x00\x1c\x1d\x1e\x1f'


def _read_lines(path) -> list[str]:
    """The lines of ``path`` with their endings, split at \\n, \\r and \\r\\n as ``csv`` splits them."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc
    except UnicodeDecodeError:
        raise _not_utf8(ParseError, path) from None
    if not lines:
        raise SchemaError("empty file", path=path, line=1)
    return lines


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


def _numbered(records, start: int = 0) -> Iterator[tuple[int, list[str]]]:
    """``(line, row)`` for each non-blank record of a csv reader, at the file line the record starts on.

    A quoted cell may span lines, so the line is one past the count of lines
    the reader had read before the record; ``start`` lines precede its source.
    """
    line = start + records.line_num + 1
    for row in records:
        if row and row != [""]:
            yield line, row
        line = start + records.line_num + 1


def _rows(path) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The header row of a CSV file, and ``(line, row)`` for each non-blank row after it."""
    rows = csv.reader(_read_lines(path))
    header = next(rows)
    return header, _numbered(rows)


def _records(path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """``(line, cells)`` for each non-blank data row of a file whose header starts with ``header``,
    ``cells`` being the row's first ``len(header)`` fields."""
    found, rows = _rows(path)
    width = len(header)
    if tuple(found[:width]) != header:
        raise SchemaError(f"header must start with {','.join(header)}", path=path, line=1, column=1)
    for line, row in rows:
        if len(row) < width:
            message = f"expected at least {width} fields, got {len(row)}"
            raise ParseError(message, path=path, line=line, column=len(row) + 1)
        yield line, row[:width]


def _token(tokens: dict, cell: str, what: str, *, path, line: int):
    """The member of ``tokens`` that ``cell`` names, ignoring case and surrounding space."""
    try:
        return tokens[cell.strip().lower()]
    except KeyError:
        raise SchemaError(
            f"unknown {what} {cell!r}; expected one of {', '.join(tokens)}", path=path, line=line, column=2
        ) from None


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


def _require_width(row: list[str], width: int, *, path, line: int) -> None:
    if len(row) != width:
        raise ParseError(
            f"expected {width} fields, got {len(row)}", path=path, line=line, column=len(row) + 1
        )


def _parse_sector_block(lines: list[str], ids: tuple[str, ...]):
    """Parse the sector rows, the first ``n`` of ``lines``, in one numpy pass.

    ``lines`` are the table's lines after its header. Returns the sector
    names and the ``n × (n + 3)`` numeric cells, or None when numpy cannot
    vouch for the block: then ``_walk_sector_rows`` reads it as csv records
    and raises its error. The block is accepted only when it holds ``n``
    rows of the header's width, in header order, whose cells are all finite
    numbers, and its last record ends on its own line; numpy reads a subset
    of what ``float`` reads, so an accepted block has the walk's values.
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
    last = csv.reader(lines[n - 1 :])
    next(last)
    if last.line_num != 1:
        return None
    return list(rows["name"]), rows["cells"]


def _walk_sector_rows(records, ids: tuple[str, ...], *, path) -> tuple[list[str], np.ndarray, list[int]]:
    """The sector names, cells and lines of the next ``n`` csv ``records``, checked row by row.

    ``records`` is the table's csv reader, just past its header; it is left
    just past the block, at the primary-input rows. Raises at the first
    error in file order, at its line and column: a block cut short by the
    end of the file is reported after the rows it does hold.
    """
    n = len(ids)
    names, lines = [], []
    cells = np.zeros((n, n + 3))
    for i in range(n):
        line = records.line_num + 1
        row = next(records, None)
        if row is None:
            raise SchemaError(f"expected {n} sector rows, found {i}", path=path, line=records.line_num)
        _require_width(row, n + 5, path=path, line=line)
        if row[0] != ids[i]:
            raise SchemaError(
                f"sector rows must follow header order; expected {ids[i]!r}, got {row[0]!r}",
                path=path,
                line=line,
                column=1,
            )
        names.append(row[1])
        lines.append(line)
        cells[i] = [_cell_float(cell, path=path, line=line, column=j) for j, cell in enumerate(row[2:], start=3)]
    return names, cells, lines


def load_io_table(path, *, allow_unbalanced: bool = False) -> tuple[IOTable, BalanceReport]:
    """Load a flow table, validate it and return it with its balance report.

    Raises :class:`Unbalanced` beyond BALANCE_TOLERANCE unless
    ``allow_unbalanced``; the report is returned either way.
    """
    lines = _read_lines(path)
    records = csv.reader(lines)
    header = next(records)
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

    block = _parse_sector_block(lines[records.line_num :], ids)
    start = 0  # lines before the source of ``records``
    if block is None:
        names, cells, sector_lines = _walk_sector_rows(records, ids, path=path)
    else:
        (names, cells), start = block, records.line_num + n
        sector_lines = list(range(records.line_num + 1, start + 1))
        records = csv.reader(lines[start:])
    Z = cells[:, :n]
    f, e, x = cells[:, n:].T

    primary: dict[str, np.ndarray] = {}
    primary_lines = []
    for line, row in _numbered(records, start):
        if not row[0]:
            continue
        _require_width(row, len(header), path=path, line=line)
        label = row[0]
        if label in primary:
            raise SchemaError(f"duplicate primary-input row {label}", path=path, line=line, column=1)
        if label not in (LABOR_ROW, CAPITAL_ROW, VALUE_ADDED_ROW, IMPORTS_ROW, INDIRECT_TAX_ROW):
            raise SchemaError(f"unknown row label {label!r}", path=path, line=line, column=1)
        values = enumerate(row[2 : 2 + n], start=3)
        primary[label] = np.array([_cell_float(cell, path=path, line=line, column=j) for j, cell in values])
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
            line=[*sector_lines, *primary_lines][row],
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

    _check_output(x <= 0, ids, sector_lines, path, "must be strictly positive")
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
    _check_output(too_small, ids, sector_lines, path, "is too small for its flows")
    if not allow_unbalanced:
        report.check(table.sectors)
    return table, report


def _check_output(bad: np.ndarray, ids: tuple[str, ...], lines: list[int], path, problem: str) -> None:
    """Raise :class:`ZeroOutput` at the OUTPUT cell of the first sector flagged in ``bad``."""
    if bad.any():
        i = int(bad.argmax())
        raise ZeroOutput(f"{path}:{lines[i]}:{len(ids) + 5}: OUTPUT of sector {ids[i]} {problem}")


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
    for line, (sector_id, token, share_cell) in _records(path, ("sector_id", "category", "standard_share")):
        try:
            index = sectors.index(sector_id)
        except KeyError:
            raise UnknownSector(f"unknown sector {sector_id!r}", path=path, line=line, column=1) from None
        if categories[index] is not None:
            raise SchemaError(f"duplicate entry for sector {sector_id!r}", path=path, line=line, column=1)
        category = _token(_CATEGORY_TOKENS, token, "category", path=path, line=line)
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
    """Load long-format group expenditure rows into a matrix; an all-zero group raises at its first line."""
    return _load_expenditure(path, basis)[0]


def _load_expenditure(path, basis: ExpenditureBasis) -> tuple[ExpenditureMatrix, dict[str, int]]:
    """The matrix ``load_expenditure`` returns, and the line where each item code first appears."""
    rows = _parse_expenditure_blocks(path) or _walk_expenditure_rows(path)
    groups, group_lines, item_lines, row_groups, row_items, amounts = rows
    if not groups:
        raise SchemaError("no expenditure rows", path=path, line=1)
    # a line brings in at most one new group and one new item, so first lines
    # ascend in dict order and locate each row's group row and item column;
    # bincount adds duplicate rows in file order, as 0.0 + a + b + ...
    shape = (len(groups), len(item_lines))
    cells = np.searchsorted(list(group_lines.values()), row_groups) * shape[1]
    cells += np.searchsorted(list(item_lines.values()), row_items)
    values = np.bincount(cells, weights=amounts, minlength=shape[0] * shape[1]).reshape(shape)
    households = tuple(HouseholdGroup(group_id, dimension, label) for group_id, (dimension, label) in groups.items())
    try:
        matrix = ExpenditureMatrix(groups=households, items=tuple(item_lines), values=values, basis=basis)
    except EmptyGroup as exc:
        # groups are in file order, so the first one listed is met first
        raise EmptyGroup(exc.groups, path=path, line=group_lines[exc.groups[0]]) from None
    except DimensionMismatch:
        # every amount is finite and nonnegative, so a sum of them overflowed
        raise _overflow(path, values, tuple(groups)) from None
    return matrix, item_lines


def _walk_expenditure_rows(path):
    """The expenditure rows read one by one with ``csv``, each checked as it is met.

    Returns each group's dimension and label and first line, each item's
    first line, and per row its group's and item's first lines and its
    amount, all in file order. The first error in file order raises at its
    line and column.
    """
    groups: dict[str, tuple[GroupDimension, str]] = {}
    group_lines: dict[str, int] = {}
    item_lines: dict[str, int] = {}
    row_groups, row_items, amounts = [], [], []
    for line, (group_id, dim_token, label, item_code, amount_cell) in _records(path, EXPENDITURE_COLUMNS):
        if not group_id:
            raise SchemaError("empty group_id", path=path, line=line, column=1)
        dimension = _token(_DIMENSION_TOKENS, dim_token, "dimension", path=path, line=line)
        row_groups.append(group_lines.setdefault(group_id, line))
        if groups.setdefault(group_id, (dimension, label)) != (dimension, label):
            raise SchemaError(
                f"group {group_id!r} redefined with different dimension/label",
                path=path,
                line=line,
                column=1,
            )
        if not item_code:
            raise SchemaError("empty item_code", path=path, line=line, column=4)
        amount = _cell_float(amount_cell, path=path, line=line, column=5)
        if amount < 0:
            raise ParseError(f"amount must be nonnegative, got {amount}", path=path, line=line, column=5)
        row_items.append(item_lines.setdefault(item_code, line))
        amounts.append(amount)
    return groups, group_lines, item_lines, row_groups, row_items, amounts


def _parse_expenditure_blocks(path):
    """What ``_walk_expenditure_rows`` returns, from one numpy pass per block of lines, or None.

    None means numpy cannot vouch for a block (see ``_parse_expenditure_block``)
    or the file is one the walk must judge: a header other than the walk
    reads, no rows, a byte that is not UTF-8, or an empty id.
    """
    groups: dict[str, tuple[GroupDimension, str]] = {}
    group_lines: dict[str, int] = {}
    item_lines: dict[str, int] = {}
    # per block: each row's group's first line, its item's first line, its amount
    columns: tuple[list, list, list] = ([], [], [])
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            header = handle.readline().rstrip("\r\n")
            if any(char in header for char in _UNVOUCHED) or tuple(header.split(",")[:5]) != EXPENDITURE_COLUMNS:
                return None
            line = 2
            while block := list(islice(handle, EXPENDITURE_BLOCK_LINES)):
                parsed = _parse_expenditure_block(block, line, groups, group_lines, item_lines)
                if parsed is None:
                    return None
                for column, part in zip(columns, parsed):
                    column.append(part)
                line += len(block)
    except (OSError, UnicodeDecodeError):
        return None
    if not groups or "" in groups or "" in item_lines:
        return None
    return groups, group_lines, item_lines, *map(np.concatenate, columns)


def _parse_expenditure_block(block: list[str], line: int, groups: dict, group_lines: dict, item_lines: dict):
    """Each row's group's first line, item's first line and amount, for ``block``: the lines from ``line`` on.

    Adds the block's new groups and items to the three dicts of
    ``_parse_expenditure_blocks``. Returns None unless every line is one row
    of five fields without a quote, NUL or \\x1c-\\x1f (which numpy strips
    around a number and ``float`` rejects), every amount is finite and
    nonnegative, and each row repeats the dimension token and label of its
    group's first row in the block, which name the group's dimension and
    label. numpy reads a subset of what ``float`` reads, so an accepted
    amount has the walk's bits.
    """
    n = len(block)
    # numpy skips a blank line, which the walk numbers, and warns when every line is
    text = "".join(block)
    if not block[0].strip() or any(char in text for char in _UNVOUCHED):
        return None
    try:
        rows = np.loadtxt(block, dtype=_EXPENDITURE_DTYPE, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    # a copy, as a view of the field would keep the block's strings alive
    amounts = rows["amount"].copy()
    if len(rows) != n or not ((amounts >= 0) & (amounts < np.inf)).all():
        return None
    ids, tokens, labels = rows["group_id"], rows["dimension"], rows["label"]
    starts: dict[str, int] = {}
    first = np.fromiter(map(starts.setdefault, ids, range(n)), np.intp, n)  # each row's group's first row
    if (tokens != tokens[first]).any() or (labels != labels[first]).any():
        return None
    first_lines = np.empty(n, np.intp)
    for group_id, k in starts.items():
        dimension = _DIMENSION_TOKENS.get(tokens[k].strip().lower())
        if dimension is None or groups.setdefault(group_id, (dimension, labels[k])) != (dimension, labels[k]):
            return None
        first_lines[k] = group_lines.setdefault(group_id, line + k)
    item_first_lines = np.fromiter(map(item_lines.setdefault, rows["item_code"], range(line, line + n)), np.intp, n)
    return first_lines[first], item_first_lines, amounts


def _overflow(path, values: np.ndarray, group_ids) -> ParseError:
    """The error at the first row whose amount makes its group's total, summed in file order, overflow.

    The file is read again, as only a failed load needs the row. A cell sums
    some of its group's rows in file order, so it cannot overflow first.
    Should only numpy's sum of a group's ``values``, in another order,
    overflow, the group's last row is named.
    """
    running, last = {}, {}
    for line, (group, *_, amount) in _records(path, EXPENDITURE_COLUMNS):
        running[group] = running.get(group, 0.0) + float(amount)  # inf, without a warning
        last[group] = line
        if math.isinf(running[group]):
            break
    else:
        with np.errstate(over="ignore"):
            group = group_ids[int(np.flatnonzero(~np.isfinite(values.sum(axis=1)))[0])]
    return ParseError(f"amount makes the total of group {group!r} overflow", path=path, line=last[group], column=5)


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


def _bad_link(message: str, index: int) -> DimensionMismatch:
    """A concordance error about the link at position ``index``, which ``link`` records."""
    error = DimensionMismatch(message)
    error.link = index
    return error


@dataclass(frozen=True)
class ConcordanceLink:
    item_code: str
    sector_id: str
    weight: float


@dataclass(frozen=True)
class Concordance:
    """Weighted many-to-many map from consumption items to IO sectors.

    Weights for each item sum to 1, so applying the concordance conserves
    every group's total expenditure. A link that breaks a rule raises
    :class:`DimensionMismatch` whose ``link`` is that link's position in
    ``links``; for weights that do not sum to 1 it is the first link of the
    first such item.
    """

    sectors: SectorSet
    links: tuple[ConcordanceLink, ...]

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))
        sums: dict[str, float] = {}
        seen: set[tuple[str, str]] = set()
        for i, link in enumerate(self.links):
            if not 0.0 < link.weight <= 1.0:
                raise _bad_link(f"weight for ({link.item_code}, {link.sector_id}) must lie in (0, 1]", i)
            if link.sector_id not in self.sectors:
                raise _bad_link(f"link references unknown sector {link.sector_id!r}", i)
            key = (link.item_code, link.sector_id)
            if key in seen:
                raise _bad_link(f"duplicate link {key}", i)
            seen.add(key)
            sums[link.item_code] = sums.get(link.item_code, 0.0) + link.weight
        bad = {item for item, total in sums.items() if abs(total - 1.0) > 1e-9}
        if bad:
            first = next(i for i, link in enumerate(self.links) if link.item_code in bad)
            raise _bad_link(f"weights do not sum to 1 for items: {', '.join(sorted(bad))}", first)

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
    lines = []
    for line, (item_code, sector_id, weight_cell) in _records(path, ("item_code", "sector_id", "weight")):
        if sector_id not in sectors:
            raise UnknownSector(f"unknown sector {sector_id!r}", path=path, line=line, column=2)
        weight = _cell_float(weight_cell, path=path, line=line, column=3)
        if not 0.0 < weight <= 1.0:
            raise InvalidShare(f"weight must lie in (0, 1], got {weight}", path=path, line=line, column=3)
        links.append(ConcordanceLink(item_code=item_code, sector_id=sector_id, weight=weight))
        lines.append(line)
    try:
        return Concordance(sectors=sectors, links=tuple(links))
    except DimensionMismatch as exc:
        raise SchemaError(str(exc), path=path, line=lines[exc.link]) from exc


def save_concordance(concordance: Concordance, path) -> None:
    _write_csv(
        path,
        ["item_code", "sector_id", "weight"],
        ([link.item_code, link.sector_id, repr(float(link.weight))] for link in concordance.links),
    )


def load_category_map(path) -> CategoryMap:
    categories: list[str] = []
    assignments: dict[str, str] = {}
    for line, (code, category) in _records(path, ("code", "category")):
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
    return _mapped(matrix, concordance.sectors, concordance.weight_matrix(matrix.items))


def _mapped(matrix: ExpenditureMatrix, sectors: SectorSet, weights: np.ndarray) -> ExpenditureMatrix:
    """``matrix`` on ``sectors``, through its items × sectors ``weights``."""
    return ExpenditureMatrix(matrix.groups, sectors.ids, matrix.values @ weights, ExpenditureBasis.SECTOR_CODES)


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
    the matrix aligned to all sectors twice, and no weights. An item code
    the concordance, or the sector set without one, lacks raises
    :class:`UnmappedItem` at its first line in the expenditure file.
    """
    basis = ExpenditureBasis.SECTOR_CODES if concordance is None else ExpenditureBasis.ITEM_CODES
    matrix, item_lines = _load_expenditure(expenditure, basis)
    mapping = None if concordance is None else load_concordance(concordance, sectors)
    try:
        if mapping is None:
            aligned = align_expenditure(matrix, sectors)
            return aligned, aligned, None
        weights = mapping.weight_matrix(matrix.items)
    except UnmappedItem as exc:
        line = min(item_lines[item] for item in exc.items)
        raise UnmappedItem(exc.items, exc.context, path=expenditure, line=line) from None
    return _mapped(matrix, sectors, weights), matrix, weights
