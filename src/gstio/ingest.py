"""CSV schemas, loading, validation and classification concordance.

All files are UTF-8 CSV with a header row, '.' decimal separator and no
thousands separators. The header must start with the columns named below.
The long-format files (rate schedule, expenditure, concordance, category
map) need at least their named columns in every row, and further fields are
ignored. The IO table, and the run tables ``gstio report`` reads, need
exactly the header's width in every row. Blank rows are skipped (except
inside the IO table's sector block, which is positional). Every file is
streamed, once, and read again only to locate an overflow or a byte that is
not UTF-8. Every load error names the file, line and column, 1-based: the
header is line 1, and a line ends at \\n, \\r or \\r\\n, as ``csv`` splits
them. A byte that is not UTF-8, or a cell longer than
``csv.field_size_limit()``, is reported at its line.

The IO table's sector rows and the expenditure rows are read in blocks of
BLOCK_LINES lines, each parsed in one numpy pass. A block numpy cannot vouch
for (a blank line, an overlong line, a cell numpy declines or that is not a
finite number, a row out of place, and for expenditure a quote or a bad
dimension or id) is walked alone, row by row with ``csv``, which reads on
from the file to end a record that starts in the block and locates the first
error in file order. numpy reads a subset of what ``float`` reads, so either
way the numbers have the same bits.

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
    because the two only ever enter as their sum). Primary rows leave
    sector_name and the three demand-side cells empty; a row with an empty
    label is blank only if all its cells are. No Z, EXPORTS or primary-input
    cell may be negative; FINAL_DEMAND may (an inventory change), and OUTPUT
    must be positive. Each row is checked as it is read, so of two bad cells
    the first in file order is reported, and the rules about the whole table
    (missing rows, an OUTPUT too small for its flows, balance) come last. A
    block short of sector rows is reported after its first bad cell.

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
    an error at its amount. The rows of every block are added into the matrix
    by one code path, so its bits do not depend on how a block was read.

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
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, TextIO

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

# lines parsed in one numpy pass; larger blocks are no faster, and hold more
# lines and cell strings at a time
BLOCK_LINES = 256
_EXPENDITURE_DTYPE = [(name, object) for name in EXPENDITURE_COLUMNS[:4]] + [("amount", float)]
# NUL and \x1c-\x1f are read differently by numpy and csv or float
_UNVOUCHED = "\x00\x1c\x1d\x1e\x1f"


@contextmanager
def _csv_file(path) -> Iterator[tuple[list[str], int, TextIO]]:
    """The header row of CSV file ``path``, the line after it, and the file, open just past the header.

    Raises a ParseError when the file cannot be read or is not UTF-8, and a
    SchemaError when it is empty. On a LoadError or ZeroOutput raised inside
    the ``with``, the rest of the file is read first, so that a byte that is
    not UTF-8 anywhere in the file is reported in its place.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            try:
                records = csv.reader(handle)
                header = _record(records, path=path)
                if header is None:
                    raise SchemaError("empty file", path=path, line=1)
                yield header[1], records.line_num + 1, handle
            except (LoadError, ZeroOutput):
                while handle.read(1 << 16):
                    pass
                raise
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc
    except UnicodeDecodeError:
        raise _not_utf8(ParseError, path) from None


def _not_utf8(error: type[LoadError], path) -> LoadError:
    """``error`` at the line of the first byte of ``path`` that is not UTF-8.

    Called only after a read of the file has failed, so a good file is read
    once. The failed read's offset counts from its own buffer, so the file is
    read again from its start, a line at a time, its lines split as ``csv``
    splits them and as universal newlines do.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        for line, text in enumerate(handle, start=1):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                # surrogateescape decodes each byte that is not UTF-8 to U+DC00 plus the byte
                return error(f"not UTF-8: byte 0x{ord(text[exc.start]) - 0xDC00:02x}", path=path, line=line)
    return error("not UTF-8", path=path)  # the file changed after the failed read


def _record(records, *, path, start: int = 0) -> tuple[int, list[str]] | None:
    """``(line, row)`` for a csv reader's next record, at the file line it starts on; None past the last.

    A quoted cell may span lines, so the line is one past the count of lines
    the reader had read before the record; ``start`` lines precede its source.
    A record csv refuses (a cell past its field limit) is a ParseError there.
    """
    line = start + records.line_num + 1
    try:
        return line, next(records)
    except StopIteration:
        return None
    except csv.Error as exc:
        raise ParseError(f"unreadable csv record: {exc}", path=path, line=line) from None


def _numbered(records, *, path, start: int = 0, stop: float = math.inf) -> Iterator[tuple[int, list[str]]]:
    """``(line, row)`` for each record of a csv reader, as :func:`_record` reads it, that starts in the
    first ``stop`` lines of the reader's source; a blank line is the row ``[]``."""
    while records.line_num < stop and (record := _record(records, path=path, start=start)):
        yield record


@contextmanager
def _rows(path) -> Iterator[tuple[list[str], Iterator[tuple[int, list[str]]]]]:
    """The header row of a CSV file, and ``(line, row)`` for each non-blank row after it, read inside the ``with``."""
    with _csv_file(path) as (header, line, handle):
        rows = _numbered(csv.reader(handle), path=path, start=line - 1)
        yield header, ((line, row) for line, row in rows if row and row != [""])


@contextmanager
def _records(path, header: tuple[str, ...]) -> Iterator[Iterator[tuple[int, list[str]]]]:
    """``(line, cells)`` for each non-blank data row of a file whose header starts with ``header``,
    ``cells`` being the row's first ``len(header)`` fields, read inside the ``with``."""
    with _rows(path) as (row, rows):
        _check_header(row, header, path=path)
        yield _fields(rows, len(header), path=path)


def _check_header(row: list[str], header: tuple[str, ...], *, path) -> None:
    """Raise unless the header ``row`` starts with ``header``."""
    if tuple(row[: len(header)]) != header:
        raise SchemaError(f"header must start with {','.join(header)}", path=path, line=1, column=1)


def _fields(rows, width: int, *, path) -> Iterator[tuple[int, list[str]]]:
    """``(line, cells)`` for each non-blank ``(line, row)`` of ``rows``, ``cells`` being the row's first
    ``width`` fields."""
    for line, row in rows:
        if not row or row == [""]:
            continue
        if len(row) < width:
            message = f"expected at least {width} fields, got {len(row)}"
            raise ParseError(message, path=path, line=line, column=len(row) + 1)
        yield line, row[:width]


def _blocks(handle, line: int, parse, walk, *, path, records: float = math.inf) -> Iterator[tuple[tuple, int]]:
    """Read ``handle``, open at file line ``line``, in blocks of up to BLOCK_LINES lines and ``records`` records.

    Yields, for each block, ``parse(block, line)``, one numpy pass over its
    lines from ``line`` on, or, when that returns None, ``walk(rows)`` of the
    ``(line, row)`` csv records that start in the block, which reads on from
    the file to end the last of them; and the line after what was read. For
    a finite ``records``, the first item of a result has one entry per record.
    """
    while records and (block := list(islice(handle, min(BLOCK_LINES, records)))):
        reader = csv.reader(chain(block, handle))
        parsed = parse(block, line)
        if parsed is None:
            parsed = walk(_numbered(reader, path=path, start=line - 1, stop=len(block)))
        line += reader.line_num or len(block)  # the lines the walk read, if it ran
        records -= len(parsed[0])
        yield parsed, line


def _loadtxt(block: list[str], dtype, unvouched: str):
    """The rows of ``block`` as one structured ``np.loadtxt`` parses them, or None where numpy may read them
    otherwise than csv: its first line is blank (numpy skips a blank line, which csv numbers, and warns when
    every line is), a line is longer than the csv field limit (numpy reads such a cell, which csv refuses), a
    character of ``unvouched`` occurs, or numpy declines a cell."""
    text, limit = "".join(block), csv.field_size_limit()
    # a block no longer than the limit has no line longer than it
    too_long = len(text) > limit and max(map(len, block)) > limit
    if not block[0].strip() or too_long or any(char in text for char in unvouched):
        return None
    del text  # a second copy of the block, not to be held through numpy's pass
    try:
        return np.loadtxt(block, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)
    except ValueError:
        return None


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


def _cell_float(cell: str, *, path, line: int, column: int, nonnegative: bool = False) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"not a number: {cell!r}", path=path, line=line, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"not a finite number: {cell!r}", path=path, line=line, column=column)
    if nonnegative and value < 0:
        raise ParseError(f"must not be negative, got {value}", path=path, line=line, column=column)
    return value


def _require_width(row: list[str], width: int, *, path, line: int) -> None:
    if len(row) != width:
        raise ParseError(
            f"expected {width} fields, got {len(row)}", path=path, line=line, column=len(row) + 1
        )


def _parse_sector_block(block: list[str], line: int, ids: tuple[str, ...], first: int):
    """The names, cells and lines of the sector rows in ``block``, its lines from ``line`` on, in one numpy pass.

    ``first`` sector rows precede the block. Returns None, for
    ``_walk_sector_rows`` to read the block, unless each line is one row of
    the header's width, the rows follow header order, their cells are all
    finite numbers that keep the walk's sign rules, and the last record ends
    on its own line.
    """
    n = len(ids)
    rows = _loadtxt(block, [("id", object), ("name", object), ("cells", float, (n + 3,))], _UNVOUCHED)
    if rows is None or tuple(rows["id"]) != ids[first : first + len(block)]:
        return None
    cells = rows["cells"]
    negative = (cells[:, :n] < 0).any() or (cells[:, n + 1] < 0).any()
    if not np.isfinite(cells).all() or negative or (cells[:, n + 2] <= 0).any():
        return None
    # numpy ends the last row at the end of the block even inside an open
    # quote, where csv reads on; so csv reads that line, and one more, to decide
    last = csv.reader([block[-1], ""])
    next(last)
    if last.line_num != 1:
        return None
    return list(rows["name"]), cells, range(line, line + len(block))


def _walk_sector_rows(rows, ids: tuple[str, ...], first: int, *, path) -> tuple[list[str], list, list[int]]:
    """The names, cells and lines of ``(line, row)`` csv ``rows``, the sector rows from sector ``first`` on,
    checked row by row; the first error in file order raises at its line and column. A Z or EXPORTS cell
    must not be negative, and OUTPUT must be positive."""
    n = len(ids)
    signed = (n + 3, n + 5)  # FINAL_DEMAND, and OUTPUT, which is checked on its own
    names, cells, lines = [], [], []
    for i, (line, row) in enumerate(rows, start=first):
        _require_width(row, n + 5, path=path, line=line)
        if row[0] != ids[i]:
            message = f"sector rows must follow header order; expected {ids[i]!r}, got {row[0]!r}"
            raise SchemaError(message, path=path, line=line, column=1)
        names.append(row[1])
        lines.append(line)
        values = enumerate(row[2:], start=3)
        cells.append([_cell_float(c, path=path, line=line, column=j, nonnegative=j not in signed) for j, c in values])
        if cells[-1][-1] <= 0:
            message = f"OUTPUT of sector {ids[i]} must be strictly positive"
            raise ZeroOutput(message, path=path, line=line, column=n + 5)
    return names, cells, lines


def load_io_table(path, *, allow_unbalanced: bool = False) -> tuple[IOTable, BalanceReport]:
    """Load a flow table, validate it and return it with its balance report.

    Raises :class:`Unbalanced` beyond BALANCE_TOLERANCE unless
    ``allow_unbalanced``; the report is returned either way.
    """
    with _csv_file(path) as (header, line, handle):
        if header[:2] != ["sector_id", "sector_name"]:
            raise SchemaError("header must start with sector_id,sector_name", path=path, line=1, column=1)
        if tuple(header[-3:]) != DEMAND_COLUMNS:
            message = f"header must end with {','.join(DEMAND_COLUMNS)}"
            raise SchemaError(message, path=path, line=1, column=max(len(header) - 2, 3))
        ids = tuple(header[2:-3])
        n = len(ids)
        if n == 0:
            raise SchemaError("no sector columns in header", path=path, line=1, column=3)

        # the sector block is its first n records, blank ones included; each
        # block is read after the rows before it, so len(names) counts them
        names, sector_lines, cells = [], [], np.empty((n, n + 3))
        blocks = _blocks(
            handle,
            line,
            lambda block, start: _parse_sector_block(block, start, ids, len(names)),
            lambda rows: _walk_sector_rows(rows, ids, len(names), path=path),
            path=path,
            records=n,
        )
        for (block_names, block_cells, block_lines), line in blocks:
            cells[len(names) : len(names) + len(block_names)] = block_cells
            names += block_names
            sector_lines += block_lines
        if len(names) < n:
            raise SchemaError(f"expected {n} sector rows, found {len(names)}", path=path, line=line - 1)

        primary: dict[str, np.ndarray] = {}
        for line, row in _numbered(csv.reader(handle), path=path, start=line - 1):
            if not any(row):
                continue
            _require_width(row, len(header), path=path, line=line)
            label = row[0]
            if label in primary:
                raise SchemaError(f"duplicate primary-input row {label}", path=path, line=line, column=1)
            if label not in (LABOR_ROW, CAPITAL_ROW, VALUE_ADDED_ROW, IMPORTS_ROW, INDIRECT_TAX_ROW):
                raise SchemaError(f"unknown row label {label!r}", path=path, line=line, column=1)
            labels = {label, *primary}
            if VALUE_ADDED_ROW in labels and labels & {LABOR_ROW, CAPITAL_ROW}:
                message = f"{VALUE_ADDED_ROW} cannot be combined with {LABOR_ROW}/{CAPITAL_ROW}"
                raise SchemaError(message, path=path, line=line, column=1)
            values = []
            for j, cell in enumerate(row[1:], start=2):
                if 3 <= j < n + 3:
                    values.append(_cell_float(cell, path=path, line=line, column=j, nonnegative=True))
                elif cell:
                    message = f"{label} row must leave {header[j - 1]} empty, got {cell!r}"
                    raise SchemaError(message, path=path, line=line, column=j)
            primary[label] = np.array(values)
    Z = cells[:, :n]
    f, e, x = cells[:, n:].T

    if VALUE_ADDED_ROW in primary:
        primary |= {LABOR_ROW: np.zeros(n), CAPITAL_ROW: primary[VALUE_ADDED_ROW]}
    if LABOR_ROW not in primary or CAPITAL_ROW not in primary:
        message = f"missing value-added rows: need {VALUE_ADDED_ROW} or both {LABOR_ROW} and {CAPITAL_ROW}"
        raise SchemaError(message, path=path)
    for required in (IMPORTS_ROW, INDIRECT_TAX_ROW):
        if required not in primary:
            raise SchemaError(f"missing required row {required}", path=path)

    table = IOTable(
        sectors=SectorSet(ids=ids, names=tuple(names)),
        Z=Z,
        f=f,
        e=e,
        labor=primary[LABOR_ROW],
        capital=primary[CAPITAL_ROW],
        imports=primary[IMPORTS_ROW],
        indirect_tax=primary[INDIRECT_TAX_ROW],
        x=x,
    )
    report = balance_report(table)
    # OUTPUT below one of the sector's own input cells gives a coefficient
    # above 1, and a residual overflows where OUTPUT is tiny beside its flows
    largest_input = np.max([Z.max(axis=0), table.labor, table.capital, table.imports, table.indirect_tax], axis=0)
    too_small = (x < largest_input) | np.isinf(report.row_residuals) | np.isinf(report.column_residuals)
    if too_small.any():
        i = int(too_small.argmax())
        message = f"OUTPUT of sector {ids[i]} is too small for its flows"
        raise ZeroOutput(message, path=path, line=sector_lines[i], column=n + 5)
    if not allow_unbalanced:
        report.check(table.sectors)
    return table, report


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
    with _records(path, ("sector_id", "category", "standard_share")) as records:
        for line, (sector_id, token, share_cell) in records:
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
    """The matrix ``load_expenditure`` returns, and the line where each item code first appears, from one
    read of the file; a byte that is not UTF-8 anywhere in it is reported before a row error."""
    groups: dict[str, tuple[GroupDimension, str]] = {}
    group_lines: dict[str, int] = {}
    item_lines: dict[str, int] = {}
    with _csv_file(path) as (header, line, handle):
        _check_header(header, EXPENDITURE_COLUMNS, path=path)
        blocks = _blocks(
            handle,
            line,
            lambda block, start: _parse_expenditure_block(block, start, groups, group_lines, item_lines),
            lambda rows: _walk_expenditure_rows(rows, groups, group_lines, item_lines, path=path),
            path=path,
        )
        # each row's group's first line, its item's first line and its amount, an array per block
        columns = list(zip(*(parsed for parsed, _ in blocks)))
    if not groups:
        raise SchemaError("no expenditure rows", path=path, line=1)
    # join each column, and let go of its blocks, before the next
    row_groups, row_items, amounts = (np.concatenate(columns.pop(0)) for _ in range(3))
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


def _walk_expenditure_rows(rows, groups: dict, group_lines: dict, item_lines: dict, *, path):
    """What ``_parse_expenditure_block`` returns, for ``(line, row)`` csv ``rows`` checked one by one;
    the first error in file order raises at its line and column."""
    row_groups, row_items, amounts = [], [], []
    for line, (group_id, dim_token, label, item_code, amount_cell) in _fields(rows, len(EXPENDITURE_COLUMNS), path=path):
        if not group_id:
            raise SchemaError("empty group_id", path=path, line=line, column=1)
        dimension = _token(_DIMENSION_TOKENS, dim_token, "dimension", path=path, line=line)
        row_groups.append(group_lines.setdefault(group_id, line))
        if groups.setdefault(group_id, (dimension, label)) != (dimension, label):
            message = f"group {group_id!r} redefined with different dimension/label"
            raise SchemaError(message, path=path, line=line, column=1)
        if not item_code:
            raise SchemaError("empty item_code", path=path, line=line, column=4)
        amount = _cell_float(amount_cell, path=path, line=line, column=5)
        if amount < 0:
            raise ParseError(f"amount must be nonnegative, got {amount}", path=path, line=line, column=5)
        row_items.append(item_lines.setdefault(item_code, line))
        amounts.append(amount)
    return np.array(row_groups, np.intp), np.array(row_items, np.intp), np.array(amounts, float)


def _parse_expenditure_block(block: list[str], line: int, groups: dict, group_lines: dict, item_lines: dict):
    """Each row's group's first line, item's first line and amount, for ``block``: the lines from ``line`` on.

    Adds the block's new groups and items to the three dicts of
    ``_load_expenditure``. Returns None unless every line is one row of five
    fields without a quote, NUL or \\x1c-\\x1f (which numpy strips around a
    number and ``float`` rejects), no id is empty, every amount is finite and
    nonnegative, and each row repeats the dimension token and label of its
    group's first row in the block, which name the group's dimension and
    label. numpy reads a subset of what ``float`` reads, so an accepted
    amount has the walk's bits. A declined block may have added groups and
    items, but only as the walk adds them, or beside an empty item code it raises at.
    """
    n = len(block)
    # a quote may open a cell that spans lines
    rows = _loadtxt(block, _EXPENDITURE_DTYPE, '"' + _UNVOUCHED)
    if rows is None or len(rows) != n:
        return None
    # a copy, as a view of the field would keep the block's strings alive
    amounts = rows["amount"].copy()
    if not ((amounts >= 0) & (amounts < np.inf)).all():
        return None
    ids, tokens, labels = rows["group_id"], rows["dimension"], rows["label"]
    starts: dict[str, int] = {}
    first = np.fromiter(map(starts.setdefault, ids, range(n)), np.intp, n)  # each row's group's first row
    if "" in starts or (tokens != tokens[first]).any() or (labels != labels[first]).any():
        return None
    first_lines = np.empty(n, np.intp)
    for group_id, k in starts.items():
        dimension = _DIMENSION_TOKENS.get(tokens[k].strip().lower())
        if dimension is None or groups.setdefault(group_id, (dimension, labels[k])) != (dimension, labels[k]):
            return None
        first_lines[k] = group_lines.setdefault(group_id, line + k)
    item_first_lines = np.fromiter(map(item_lines.setdefault, rows["item_code"], range(line, line + n)), np.intp, n)
    if "" in item_lines:
        return None
    return first_lines[first], item_first_lines, amounts


def _overflow(path, values: np.ndarray, group_ids) -> ParseError:
    """The error at the first row whose amount makes its group's total, summed in file order, overflow.

    The file is read again, as only a failed load needs the row. A cell sums
    some of its group's rows in file order, so it cannot overflow first.
    Should only numpy's sum of a group's ``values``, in another order,
    overflow, the group's last row is named.
    """
    running, last = {}, {}
    with _records(path, EXPENDITURE_COLUMNS) as records:
        for line, (group, *_, amount) in records:
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
    with _records(path, ("item_code", "sector_id", "weight")) as records:
        for line, (item_code, sector_id, weight_cell) in records:
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
    with _records(path, ("code", "category")) as records:
        for line, (code, category) in records:
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
    values = matrix.values @ concordance.weight_matrix(matrix.items)
    return ExpenditureMatrix(matrix.groups, concordance.sectors.ids, values, ExpenditureBasis.SECTOR_CODES)


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
    values[:, [sectors.index(item) for item in matrix.items]] = matrix.values
    return ExpenditureMatrix(matrix.groups, sectors.ids, values, ExpenditureBasis.SECTOR_CODES)


def load_household(expenditure, concordance, sectors: SectorSet) -> tuple[ExpenditureMatrix, np.ndarray | None]:
    """Load household spending in the codes categories are reported in, and how they map to sectors.

    With a concordance the expenditure file is item-coded: returns the item
    matrix and the items × sectors weights, so an item's price is its
    weights' row times the sector prices. Without one its item codes must be
    sector ids: returns the matrix aligned to all sectors, and no weights. An
    item code the concordance, or the sector set without one, lacks raises
    :class:`UnmappedItem` at its first line in the expenditure file.
    """
    basis = ExpenditureBasis.SECTOR_CODES if concordance is None else ExpenditureBasis.ITEM_CODES
    matrix, item_lines = _load_expenditure(expenditure, basis)
    try:
        if concordance is None:
            return align_expenditure(matrix, sectors), None
        return matrix, load_concordance(concordance, sectors).weight_matrix(matrix.items)
    except UnmappedItem as exc:
        line = min(item_lines[item] for item in exc.items)
        raise UnmappedItem(exc.items, exc.context, path=expenditure, line=line) from None
