"""Tests for CSV loading, validation errors with positions, and concordance mapping."""

import concurrent.futures
import csv
import dataclasses
import io
import multiprocessing
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import helpers
from gstio import errors, ingest, io_model
from gstio import (
    Concordance,
    ConcordanceLink,
    DimensionMismatch,
    EmptyGroup,
    ExpenditureBasis,
    ExpenditureMatrix,
    GroupDimension,
    GstioError,
    HouseholdGroup,
    InvalidShare,
    LoadError,
    ParseError,
    RateCategory,
    SchemaError,
    SectorSet,
    Unbalanced,
    UnknownBaseGroup,
    UnknownSector,
    UnmappedItem,
    ZeroOutput,
    align_expenditure,
    derive_coefficients,
    load_category_map,
    load_concordance,
    load_expenditure,
    load_household,
    load_io_table,
    load_rate_schedule,
    map_expenditure,
    save_concordance,
    save_expenditure,
    save_io_table,
    save_rate_schedule,
)

IO_HEADER = "sector_id,sector_name,a,b,FINAL_DEMAND,EXPORTS,OUTPUT\n"
PRIMARY_ROWS = "VALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n"
PRIMARY_LABELS = ("LABOR", "CAPITAL", "IMPORTS", "INDIRECT_TAX")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


NAME_PIECES = ("Farm", '"Farm, fish"', '"say ""hi"""', "#3", "a\tb", 'x"y', '"ab"c')
CELL_PIECES = ("0", "1", "2.5", " 3 ", "\t4")
# Python's float reads 1_000, numpy does not; "1,2" is an extra field and '"7' an open quote
ODD_CELL_PIECES = ("1_000", "nan", "1e999", "", "1,2", '"7', "zzz")


@st.composite
def _sector_tables(draw):
    """A 2-4-sector IO table whose sector rows mix odd names, cells and layouts."""
    n = draw(st.integers(2, 4))
    ids = [f"s{i}" for i in range(n)]
    lines = [",".join(["sector_id", "sector_name", *ids, "FINAL_DEMAND", "EXPORTS", "OUTPUT"])]
    for sector_id in ids:
        cells = [draw(st.sampled_from(CELL_PIECES)) for _ in range(n + 2)] + ["10000"]
        if draw(st.integers(0, 4)) == 0:
            cells[draw(st.integers(0, n + 2))] = draw(st.sampled_from(ODD_CELL_PIECES))
        if draw(st.integers(0, 7)) == 0:
            cells = draw(st.sampled_from((cells + ["1"], cells[:-1])))
        if draw(st.integers(0, 7)) == 0:
            sector_id = draw(st.sampled_from((f" {sector_id}", "s9")))
        lines.append(",".join([sector_id, draw(st.sampled_from(NAME_PIECES)), *cells]))
    lines += [f"{label},,{','.join(['1'] * n)},,," for label in ("VALUE_ADDED", "IMPORTS", "INDIRECT_TAX")]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(1, n + 1)), "")
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + newline


EXPENDITURE_HEADER = "group_id,dimension,label,item_code,amount"
GROUP_PIECES = (("g1", "income", "low"), ("g2", "ethnicity", "Malay"), ("g3", " Income ", "a b"))
AMOUNT_PIECES = ("0", "1", "2.5", " 3 ", "0.1", "1e16", "-0", "4.9e-324")
ODD_EXPENDITURE_ROWS = (
    # numpy declines 1_000, an empty cell and a cell that is not a number
    "g1,income,low,food,1_000",
    "g1,income,low,food,",
    "g1,income,low,food,zzz",
    "g1,income,low,food,inf",
    "g1,income,low,food,nan",
    "g1,income,low,food,1e999",
    "g1,income,low,food,-1",
    # numpy strips \x1c around a number, which float rejects
    "g1,income,low,food,1\x1c",
    "g1,income,low,fo\x00od,1",
    "g1,INCOME,low,food,1",
    "g1,ethnicity,low,food,1",
    "g1,income,high,food,1",
    "g1,region,low,food,1",
    ",income,low,food,1",
    "g1,income,low,,1",
    "g1,income,low,food,1,x",
    "g1,income,low,food",
    "",
    "   ",
    'g1,income,"low",food,1',
    'g1,income,low,"fo\nod",1',
)


@st.composite
def _expenditure_files(draw):
    """The bytes of an expenditure file of up to 12 rows, most of them plain; half the files have one odd row."""
    rows = [
        ",".join((*draw(st.sampled_from(GROUP_PIECES)), draw(st.sampled_from(("food", "fuel", "x y")))))
        + "," + draw(st.sampled_from(AMOUNT_PIECES))
        for _ in range(draw(st.integers(0, 12)))
    ]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.sampled_from(ODD_EXPENDITURE_ROWS))
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    data = newline.join([EXPENDITURE_HEADER, *rows, ""]).encode("utf-8")
    if draw(st.integers(0, 7)) == 0:
        data += b"g1,income,l\xffow,food,1\n"
    return data


def _expenditure_outcome(path):
    """A loaded expenditure's groups, items, bits and first lines, or its error's class, message and location."""
    try:
        matrix, item_lines = ingest._load_expenditure(path, ExpenditureBasis.ITEM_CODES)
    except LoadError as exc:
        return type(exc), str(exc), exc.line, exc.column
    except GstioError as exc:
        return type(exc), str(exc)
    return matrix.groups, matrix.items, matrix.values.tobytes(), list(item_lines.items())


def _write_expenditure(path, groups: int, items: int, seed: int) -> ExpenditureMatrix:
    """Save a random ``groups`` × ``items`` item-coded expenditure at ``path``; returns the saved matrix."""
    households = tuple(
        HouseholdGroup(f"g{h:04d}", (GroupDimension.INCOME_CLASS, GroupDimension.ETHNICITY)[h % 2], f"label {h}")
        for h in range(groups)
    )
    codes = tuple(f"item{j:03d}" for j in range(items))
    values = np.round(np.random.default_rng(seed).uniform(1.0, 200.0, (groups, items)), 2)
    matrix = ExpenditureMatrix(households, codes, values, ExpenditureBasis.ITEM_CODES)
    save_expenditure(matrix, path)
    return matrix


def _load_outcome(path):
    """A loaded table's sectors and arrays bit for bit, or its error's class, location and message."""
    try:
        table, _ = load_io_table(path, allow_unbalanced=True)
    except LoadError as exc:
        return type(exc), exc.line, exc.column, str(exc)
    except GstioError as exc:
        return type(exc), str(exc)
    arrays = (table.Z, table.f, table.e, table.labor, table.capital, table.imports, table.indirect_tax, table.x)
    return table.sectors, [array.tobytes() for array in arrays]


DIALECT_CASES = {
    "rate_schedule": (
        lambda path: load_rate_schedule(path, SectorSet.from_ids(("a", "b"))),
        "sector_id,category,standard_share,note",
        ("a,standard,1,", "b,exempt,0,"),
        ("a,standard", 3),
    ),
    "expenditure": (
        load_expenditure,
        "group_id,dimension,label,item_code,amount",
        ("g1,income,low,food,10", "g1,income,low,fuel,5"),
        ("g1,income,low,food", 5),
    ),
    "concordance": (
        lambda path: load_concordance(path, SectorSet.from_ids(("a", "b"))),
        "item_code,sector_id,weight",
        ("x,a,1", "y,b,1"),
        ("x,a", 3),
    ),
    "category_map": (load_category_map, "code,category", ("x,c1", "y,c2"), ("x", 2)),
}


def _comparable(value):
    """``value`` with its arrays as dtype, shape and bytes, so that two loads compare with ``==``."""
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value), [_comparable(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [_comparable(item) for item in value]
    return value


@pytest.mark.parametrize("name", DIALECT_CASES)
def test_row_loaders_share_one_dialect(tmp_path, name):
    load, header, (first, second), (short, column) = DIALECT_CASES[name]
    path = tmp_path / f"{name}.csv"

    path.write_text("", encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load(path)
    assert info.value.line == 1

    path.write_text(f"wrong,header\n{first}\n", encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load(path)
    assert (info.value.line, info.value.column) == (1, 1)

    path.write_text(f"{header}\n{first}\n\n{second}\n", encoding="utf-8")
    loaded = _comparable(load(path))

    # further fields, in the header and in every row, are ignored
    path.write_text(f"{header},extra\n{first},x\n\n{second},x\n", encoding="utf-8")
    assert _comparable(load(path)) == loaded

    path.write_text(f"{header}\n{first}\n\n{short}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"expected at least {column} fields, got {column - 1}$") as info:
        load(path)
    assert (info.value.line, info.value.column) == (4, column)


# a table whose line 5 holds a byte that is not UTF-8
BAD_BYTE_TABLE = (IO_HEADER + "a,A,0,0,1,0,1\nb,B,0,0,1,0,1\n" + PRIMARY_ROWS).encode()
BAD_BYTE_TABLE = BAD_BYTE_TABLE.replace(b"IMPORTS,,", b"IMPORTS,,\xff")
NON_UTF8_CASES = {
    "io_table_header": (load_io_table, IO_HEADER.encode().replace(b"OUTPUT", b"OUT\xffPUT"), 1),
    # lines end at \r and \r\n as csv splits them
    "io_table_cr": (load_io_table, BAD_BYTE_TABLE.replace(b"\n", b"\r"), 5),
    "io_table_crlf": (load_io_table, BAD_BYTE_TABLE.replace(b"\n", b"\r\n"), 5),
    # a row error, here an OUTPUT of 0 on line 2, is reported only after the byte is looked for
    "io_table_zero_output": (
        load_io_table,
        (IO_HEADER + "a,A,0,0,1,0,0\nb,B,0,0,1,0,1\n" + PRIMARY_ROWS + "\n" * 20000).encode() + b"\xff\n",
        20007,
    ),
    # far enough down that the bad byte is not in the reader's first buffer
    "expenditure_row": (
        load_expenditure,
        b"group_id,dimension,label,item_code,amount\n"
        + b"g1,income,low,food,10\n" * 3000
        + b"g1,income,l\xffow,fuel,5\ng1,income,low,fuel,5\n",
        3002,
    ),
}


@pytest.mark.parametrize("name", NON_UTF8_CASES)
def test_non_utf8_byte_reported_at_its_line(tmp_path, name):
    load, data, line = NON_UTF8_CASES[name]
    path = tmp_path / "f.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="not UTF-8: byte 0xff") as info:
        load(path)
    assert (info.value.line, info.value.column) == (line, None)


def test_a_place_prefixes_the_message_as_far_as_it_is_given():
    assert str(GstioError("m")) == "m"
    assert str(GstioError("m", line=3, column=5)) == "m"  # a line counts only with a path
    assert str(GstioError("m", path="f.csv", column=5)) == "f.csv: m"  # a column only with a line
    assert str(GstioError("m", path="f.csv", line=3)) == "f.csv:3: m"
    assert str(GstioError("m", path="f.csv", line=3, column=5)) == "f.csv:3:5: m"


@pytest.mark.parametrize(
    "cls", [*LoadError.__subclasses__(), ZeroOutput, EmptyGroup, UnmappedItem], ids=lambda cls: cls.__name__
)
def test_every_located_error_exposes_its_place(tmp_path, cls):
    path = tmp_path / "f.csv"
    # EmptyGroup and UnmappedItem are named at a line, the others at a cell
    if cls is EmptyGroup:
        error, column = cls(["g2"], path=path, line=3), None
    elif cls is UnmappedItem:
        error, column = cls(["fuel"], "category map", path=path, line=3), None
    else:
        error, column = cls("bad cell", path=path, line=3, column=5), 5
    assert (error.path, error.line, error.column) == (str(path), 3, column)
    assert str(error).startswith(f"{path}:3:5: " if column else f"{path}:3: ")


def test_every_error_pickles_whole(tmp_path):
    path = tmp_path / "f.csv"
    classes = [cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, GstioError)]
    assert len(classes) == 19
    for cls in classes:
        # each built as the code builds it
        if cls is EmptyGroup:
            error = cls(["g2"], path=path, line=3)
        elif cls is UnmappedItem:
            error = cls(["fuel"], "category map", path=path, line=3)
        elif cls is DimensionMismatch:
            error = ingest._bad_link("duplicate link ('food', 'agr')", 2)
        elif cls is UnknownBaseGroup:
            error = cls("base group 'inc9' not among income groups: inc1", path=path, line=15)
        elif issubclass(cls, (LoadError, ZeroOutput, Unbalanced)):
            error = cls("bad cell", path=path, line=3, column=5)
        else:
            error = cls("no place")
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is cls
        assert str(copy) == str(error), cls
        # the place, and groups, items, context or link
        assert vars(copy) == vars(error), cls


def test_an_error_in_a_worker_process_reaches_its_parent(tmp_path):
    path = _write(tmp_path, "t.csv", IO_HEADER + "a,A,0,0,1,0,1\nb,B,0,zzz,1,0,1\n" + PRIMARY_ROWS)
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        future = pool.submit(load_io_table, str(path))
        with pytest.raises(ParseError) as info:
            future.result(timeout=120)
    assert (info.value.path, info.value.line, info.value.column) == (str(path), 3, 4)
    assert str(info.value).startswith(f"{path}:3:4: ")


def test_inputs_are_read_without_a_text_copy(tmp_path, data_dir, monkeypatch):
    # a table with a 1_000 cell, which numpy declines, takes the row walk
    walked = _write(
        tmp_path,
        "t.csv",
        IO_HEADER + "a,A,0,0,1_000,0,1_000\nb,B,0,0,1,0,1\nVALUE_ADDED,,1_000,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n",
    )

    def no_copy(*args, **kwargs):
        raise AssertionError("an input was copied into io.StringIO")

    monkeypatch.setattr(io, "StringIO", no_copy)
    table, _ = load_io_table(data_dir / "io_table.csv")
    load_rate_schedule(data_dir / "rate_schedule.csv", table.sectors)
    load_expenditure(data_dir / "expenditure.csv")
    load_concordance(data_dir / "concordance.csv", table.sectors)
    load_category_map(data_dir / "category_map.csv")
    walked_table, _ = load_io_table(walked)
    np.testing.assert_array_equal(walked_table.x, [1000.0, 1.0])


class TestLoadIOTable:
    def test_bundled_fixture_matches_appendix_coefficients(self, data_dir):
        table, report = load_io_table(data_dir / "io_table.csv")
        assert report.max_row_residual == 0.0
        bundle = derive_coefficients(table)
        np.testing.assert_array_equal(bundle.A.T, helpers.APPENDIX_AT)
        np.testing.assert_array_equal(bundle.value_added, helpers.APPENDIX_VALUE_ADDED)
        assert table.sectors.names == ("Agriculture", "Industry", "Services")

    def test_missing_value_added_row(self, tmp_path):
        path = _write(
            tmp_path,
            "t.csv",
            IO_HEADER
            + "a,A,0,0,1,0,1\nb,B,0,0,1,0,1\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n",
        )
        with pytest.raises(SchemaError, match="VALUE_ADDED"):
            load_io_table(path)

    def test_zero_output_names_sector(self, tmp_path):
        path = _write(
            tmp_path,
            "t.csv",
            IO_HEADER
            + "a,A,0,0,1,0,1\nb,B,0,0,0,0,0\nVALUE_ADDED,,1,0,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n",
        )
        with pytest.raises(ZeroOutput, match="b"):
            load_io_table(path)

    def test_bad_number_reports_position(self, tmp_path):
        bodies = {
            (2, 4): "a,A,0,{cell},1,0,1\nb,B,0,0,1,0,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n",
            (3, 7): "a,A,0,0,1,0,1\nb,B,0,0,1,0,{cell}\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n",
            (5, 4): "a,A,0,0,1,0,1\nb,B,0,0,1,0,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,{cell},,,\nINDIRECT_TAX,,0,0,,,\n",
        }
        for position, body in bodies.items():
            for cell in ("zzz", "nan", "-inf", "1e999"):
                path = _write(tmp_path, "t.csv", IO_HEADER + body.format(cell=cell))
                with pytest.raises(ParseError) as info:
                    load_io_table(path)
                assert (info.value.line, info.value.column) == position, (position, cell)

    def test_first_error_in_file_order_is_reported(self, tmp_path):
        path = _write(
            tmp_path,
            "t.csv",
            IO_HEADER + "a,A,0,zzz,1,0,1\nb,B,0,0,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n",
        )
        with pytest.raises(ParseError) as info:
            load_io_table(path)
        assert (info.value.line, info.value.column) == (2, 4)

    def test_short_sector_block_reports_its_bad_cell_first(self, tmp_path):
        # 3 sectors declared, 2 sector rows: the bad cell comes first in the file
        path = _write(
            tmp_path,
            "t.csv",
            "sector_id,sector_name,a,b,c,FINAL_DEMAND,EXPORTS,OUTPUT\na,A,zzz,0,0,1,0,1\nb,B,0,0,0,1,0,1\n",
        )
        with pytest.raises(ParseError, match="not a number: 'zzz'") as info:
            load_io_table(path)
        assert (info.value.line, info.value.column) == (2, 3)

    @pytest.mark.parametrize(
        "rows, error, position",
        [
            ("b,B,0,zzz,1,0,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\n", ParseError, (4, 4)),
            ("b,B,0,-1,1,0,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\n", ParseError, (4, 4)),
            ("b,B,0,0,1,0,0\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\n", ZeroOutput, (4, 7)),
            ("b,B,0,0,1,0,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,zzz,,,\n", ParseError, (6, 4)),
        ],
        ids=["sector-cell", "negative-cell", "output", "primary-cell"],
    )
    def test_lines_count_past_a_cell_that_spans_lines(self, tmp_path, rows, error, position):
        # the name "A\nfirm" spans lines 2 and 3, so sector b's row is line 4
        text = IO_HEADER + 'a,"A\nfirm",0,0,1,0,1\n' + rows + "INDIRECT_TAX,,0,0,,,\n"
        path = _write(tmp_path, "t.csv", text)
        with pytest.raises(error) as info:
            load_io_table(path)
        assert (info.value.line, info.value.column) == position

    def test_short_sector_block_reported_after_its_rows(self, tmp_path):
        path = _write(tmp_path, "t.csv", IO_HEADER + "a,A,0,0,1,0,1\n")
        with pytest.raises(SchemaError, match="expected 2 sector rows, found 1") as info:
            load_io_table(path)
        assert (info.value.line, info.value.column) == (2, None)

    def test_header_alone_allocates_nothing(self, tmp_path):
        # the cells are sized by the rows read: sized by this header, they took 80 GB before any row
        path = _write(tmp_path, "t.csv", helpers.header_only_io_table(100_000))
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError, match="expected 100000 sector rows, found 0") as info:
                load_io_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (info.value.line, info.value.column) == (1, None)
        assert peak < 32 * 2**20

    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from(("zzz", "nan", "1e999", "", "-1")),
    )
    def test_bad_token_anywhere_is_located(self, tmp_path, n, seed, token):
        # a second bad cell after the first is not the one reported
        rng = np.random.default_rng(seed)
        ids = [f"s{i}" for i in range(n)]
        rows = [["sector_id", "sector_name", *ids, "FINAL_DEMAND", "EXPORTS", "OUTPUT"]]
        rows += [[sector_id, "", *map(repr, rng.uniform(0, 10, n + 3).tolist())] for sector_id in ids]
        rows += [[label, "", *map(repr, rng.uniform(0, 10, n).tolist()), "", "", ""] for label in PRIMARY_LABELS]
        cells = [
            (line, column)
            for line in range(2, len(rows) + 1)
            for column in range(3, 3 + (n + 3 if line <= n + 1 else n))
            if not (token == "-1" and line <= n + 1 and column == n + 3)  # FINAL_DEMAND may be negative
        ]
        first = int(rng.integers(len(cells)))
        line, column = cells[first]
        rows[line - 1][column - 1] = token
        if first + 1 < len(cells):
            second_line, second_column = cells[int(rng.integers(first + 1, len(cells)))]
            rows[second_line - 1][second_column - 1] = "zzz"
        path = _write(tmp_path, "t.csv", "".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(ZeroOutput if token == "-1" and column == n + 5 else ParseError) as info:
            load_io_table(path, allow_unbalanced=True)
        assert (info.value.line, info.value.column) == (line, column)

    def test_numbers_parse_exactly_as_float(self, tmp_path):
        # unbalanced, but no OUTPUT is below one of its sector's input cells
        rows = (
            "a,A,4.9e-324,1_0, 2,-0.0,+3",
            "b,B,-0.0, 2,4.9e-324,+3,1_0",
            "VALUE_ADDED,,+3,-0.0,,,",
            "IMPORTS,, 2,1_0,,,",
            "INDIRECT_TAX,,4.9e-324,-0.0,,,",
        )
        path = _write(tmp_path, "t.csv", IO_HEADER + "\n".join(rows) + "\n")
        table, _ = load_io_table(path, allow_unbalanced=True)
        cells = [row.split(",")[2:] for row in rows]
        loaded = [
            [*table.Z[0], table.f[0], table.e[0], table.x[0]],
            [*table.Z[1], table.f[1], table.e[1], table.x[1]],
            table.capital,
            table.imports,
            table.indirect_tax,
        ]
        for row_cells, values in zip(cells, loaded):
            expected = np.array([float(cell) for cell in row_cells[: len(values)]])
            # Compared bit for bit, so the sign of zero counts.
            np.testing.assert_array_equal(np.asarray(values).view(np.int64), expected.view(np.int64))

    def test_numpy_rejection_falls_back_to_float(self, tmp_path, monkeypatch):
        array = np.array

        def strict_array(obj, *args, **kwargs):
            if kwargs.get("dtype") is float and isinstance(obj, list) and any("_" in cell for cell in obj):
                raise ValueError("strict parser")
            return array(obj, *args, **kwargs)

        monkeypatch.setattr(np, "array", strict_array)
        path = _write(
            tmp_path,
            "t.csv",
            IO_HEADER + "a,A,0,0,1_0,0,1_0\nb,B,0,0,1,0,1\nVALUE_ADDED,,0,1,,,\nIMPORTS,,1_0,0,,,\nINDIRECT_TAX,,0,0,,,\n",
        )
        table, _ = load_io_table(path)
        np.testing.assert_array_equal(table.f, [10.0, 1.0])
        np.testing.assert_array_equal(table.x, [10.0, 1.0])
        np.testing.assert_array_equal(table.imports, [10.0, 0.0])

    @pytest.mark.parametrize(
        ("rows", "position"),
        [
            ("a,A,0,-1,1,0,1\nb,B,0,0,1,0,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n", (2, 4)),
            ("a,A,0,0,1,0,1\nb,B,0,0,1,-1,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n", (3, 6)),
            ("a,A,0,0,1,0,1\nb,B,0,0,1,0,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,-1e-9,,,\n", (6, 4)),
            # the first in file order
            ("a,A,0,0,1,0,1\nb,B,-2,0,1,-1,1\nVALUE_ADDED,,-1,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n", (3, 3)),
            # before a later cell that is not a number: in the row walk, after
            # the one-pass parse, and in the primary rows
            ("a,A,0,-1,1,0,1\nb,B,0,zzz,1,0,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n", (2, 4)),
            ("a,A,0,-1,1,0,1\nb,B,0,0,1,0,1\nVALUE_ADDED,,zzz,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n", (2, 4)),
            ("a,A,0,0,1,0,1\nb,B,0,0,1,0,1\nVALUE_ADDED,,-1,1,,,\nIMPORTS,,zzz,0,,,\nINDIRECT_TAX,,0,0,,,\n", (4, 3)),
            # an OUTPUT of 0 likewise
            ("a,A,0,0,1,0,0\nb,B,0,zzz,1,0,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n", (2, 7)),
            ("a,A,0,0,1,0,0\nb,B,0,0,1,0,1\nVALUE_ADDED,,zzz,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n", (2, 7)),
        ],
    )
    def test_negative_cell_reported_at_its_cell(self, tmp_path, rows, position):
        path = _write(tmp_path, "t.csv", IO_HEADER + rows)
        error, message = (ParseError, "must not be negative")
        if position[1] == 7:  # OUTPUT
            error, message = (ZeroOutput, "OUTPUT of sector a must be strictly positive")
        with pytest.raises(error, match=message) as info:
            load_io_table(path, allow_unbalanced=True)
        assert (info.value.line, info.value.column) == position

    def test_negative_final_demand_loads(self, tmp_path):
        # an inventory change; OUTPUT still exceeds every input cell
        path = _write(
            tmp_path,
            "t.csv",
            IO_HEADER + "a,A,0,0,-1,0,1\nb,B,0,0,1,0,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n",
        )
        table, _ = load_io_table(path, allow_unbalanced=True)
        np.testing.assert_array_equal(table.f, [-1.0, 1.0])

    def test_negative_final_demand_keeps_the_one_pass_parse(self, tmp_path, monkeypatch):
        # the sign rules decline a block, but not for a negative FINAL_DEMAND
        def no_walk(*args, **kwargs):
            raise AssertionError("the sector block was walked")

        monkeypatch.setattr(ingest, "_walk_sector_rows", no_walk)
        table = helpers.random_balanced_table(np.random.default_rng(11), 50)
        # EXPORTS takes up what FINAL_DEMAND gives, so each row still sums to OUTPUT
        f, e = table.f.copy(), table.e.copy()
        moved = np.flatnonzero(f > 0)[::2]
        e[moved] += f[moved] + 1.0
        f[moved] = -1.0
        table = dataclasses.replace(table, f=f, e=e)
        path = tmp_path / "t.csv"
        save_io_table(table, path)
        loaded, _ = load_io_table(path)
        np.testing.assert_array_equal(loaded.f.view(np.int64), f.view(np.int64))
        np.testing.assert_array_equal(loaded.e.view(np.int64), e.view(np.int64))

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block_lines", [1, 2, 3, ingest.BLOCK_LINES])
    @given(text=_sector_tables())
    # an open quote in the last sector cell, where csv reads on into the next line
    @example(text=IO_HEADER + 'a,A,0,0,1,0,1\nb,B,0,0,1,0,"1\n' + PRIMARY_ROWS)
    # a quoted name whose cell spans the boundary of one- and two-line blocks
    @example(text="sector_id,sector_name,a,b,c,FINAL_DEMAND,EXPORTS,OUTPUT\n"
             'a,A,0,0,0,1,0,1\nb,"B\nfirm",0,0,0,1,0,1\nc,C,0,0,0,1,0,1\n'
             "VALUE_ADDED,,1,1,1,,,\nIMPORTS,,0,0,0,,,\nINDIRECT_TAX,,0,0,0,,,\n")
    # an open quote on the last line of a one-line block, not of the sector block
    @example(text=IO_HEADER + 'a,A,0,0,1,0,"1\nb,B,0,0,1,0,1\n' + PRIMARY_ROWS)
    # \x1c after a number, which numpy strips and float rejects
    @example(text=IO_HEADER + "a,A,0,0,1,0,1\x1c\nb,B,0,0,1,0,1\n" + PRIMARY_ROWS)
    # only blank lines where the sector rows belong
    @example(text=IO_HEADER + "\n\n" + PRIMARY_ROWS)
    # lines that end in \r alone
    @example(text=(IO_HEADER + "a,A,0,0,1,0,1\nb,B,0,0,1,0,1\n" + PRIMARY_ROWS).replace("\n", "\r"))
    def test_one_pass_parse_agrees_with_the_row_walk(self, tmp_path, block_lines, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "BLOCK_LINES", block_lines)
            read = _load_outcome(path)
            patch.setattr(ingest, "_parse_sector_block", lambda *args: None)
            assert read == _load_outcome(path)

    def test_one_pass_parse_runs_on_quoted_names(self, tmp_path, monkeypatch):
        # a silent fallback to the row walk, e.g. on an older numpy, fails here
        def no_walk(*args, **kwargs):
            raise AssertionError("the sector block was walked")

        monkeypatch.setattr(ingest, "_walk_sector_rows", no_walk)
        table = helpers.random_balanced_table(np.random.default_rng(7), 50)
        names = tuple(f'Sector {i}, "grade" {i % 3}' for i in range(50))
        table = dataclasses.replace(table, sectors=SectorSet(ids=table.sectors.ids, names=names))
        path = tmp_path / "t.csv"
        save_io_table(table, path)
        assert '"Sector 0, ""grade"" 0"' in path.read_text(encoding="utf-8")
        loaded, _ = load_io_table(path)
        assert loaded.sectors == table.sectors
        for name in ("Z", "f", "e", "labor", "capital", "imports", "indirect_tax", "x"):
            np.testing.assert_array_equal(getattr(loaded, name).view(np.int64), getattr(table, name).view(np.int64))

    def test_load_memory_holds_no_copy_of_the_lines(self, tmp_path, monkeypatch):
        # the table's own arrays take about 0.8 of the file's size, and its lines, held whole, more than the file
        monkeypatch.setattr(ingest, "BLOCK_LINES", 16)
        path = tmp_path / "t.csv"
        save_io_table(helpers.random_balanced_table(np.random.default_rng(3), 400), path)  # 3.2 MB
        load_io_table(path)
        tracemalloc.start()
        try:
            load_io_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * path.stat().st_size

    @pytest.mark.parametrize(
        ("header", "message", "column"),
        [
            ("sector_id,sector_name,FINAL_DEMAND,EXPORTS,OUTPUT", "no sector columns in header", 3),
            ("sector_id,sector_name,a", "header must end with FINAL_DEMAND,EXPORTS,OUTPUT", 3),
            ("sector_id,sector_name", "header must end with FINAL_DEMAND,EXPORTS,OUTPUT", 3),
            ("sector_id,sector_name,a,b,FINAL_DEMAND,OUTPUT", "header must end with FINAL_DEMAND,EXPORTS,OUTPUT", 4),
            ("sector_id", "header must start with sector_id,sector_name", 1),
            ("sector,sector_name,a,FINAL_DEMAND,EXPORTS,OUTPUT", "header must start with sector_id,sector_name", 1),
            ("sector_id,sector_name,a,a,FINAL_DEMAND,EXPORTS,OUTPUT", "duplicate sector id 'a'", 4),
            ("sector_id,sector_name,a,,FINAL_DEMAND,EXPORTS,OUTPUT", "empty sector id", 4),
            # the first bad id in file order
            ("sector_id,sector_name,a,b,,b,FINAL_DEMAND,EXPORTS,OUTPUT", "empty sector id", 5),
        ],
    )
    def test_header_error_names_its_cause(self, tmp_path, header, message, column):
        path = _write(tmp_path, "t.csv", header + "\na,A,0,1,0,1\n")
        with pytest.raises(SchemaError) as info:
            load_io_table(path)
        assert str(info.value).endswith(f": {message}")
        assert (info.value.line, info.value.column) == (1, column)

    def test_unbalanced_rejected_unless_allowed(self, tmp_path):
        text = (
            IO_HEADER
            + "a,A,0,0,5,0,1\nb,B,0,0,1,0,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n"
        )
        path = _write(tmp_path, "t.csv", text)
        with pytest.raises(Unbalanced):
            load_io_table(path)
        table, report = load_io_table(path, allow_unbalanced=True)
        assert report.max_row_residual == pytest.approx(4.0)

    def test_unbalanced_table_is_measured_once(self, tmp_path, monkeypatch):
        text = (
            IO_HEADER
            + "a,A,0,0,5,0,1\nb,B,0,0,1,0,1\nVALUE_ADDED,,1,1,,,\nIMPORTS,,0,0,,,\nINDIRECT_TAX,,0,0,,,\n"
        )
        path = _write(tmp_path, "t.csv", text)
        table, _ = load_io_table(path, allow_unbalanced=True)
        with pytest.raises(Unbalanced) as expected:
            table.check_balance()
        calls = []
        balance_report = io_model.balance_report

        def counted(table):
            calls.append(table)
            return balance_report(table)

        monkeypatch.setattr(ingest, "balance_report", counted)
        monkeypatch.setattr(io_model, "balance_report", counted)
        with pytest.raises(Unbalanced) as info:
            load_io_table(path)
        assert len(calls) == 1
        assert str(info.value) == f"{path}:2:7: {expected.value}"

    @pytest.mark.parametrize("demand, line", [(15, 3), (60, 2)], ids=["column worse", "row worse"])
    def test_unbalanced_from_a_file_names_its_place(self, tmp_path, demand, line):
        # a's row sells demand for an OUTPUT of 10; b's column costs 30 for an OUTPUT of 10
        text = (
            IO_HEADER
            + f"a,A,0,0,{demand},0,10\nb,B,0,0,10,0,10\n"
            + "VALUE_ADDED,,10,10,,,\nIMPORTS,,0,10,,,\nINDIRECT_TAX,,0,10,,,\n"
        )
        path = _write(tmp_path, "t.csv", text)
        table, _ = load_io_table(path, allow_unbalanced=True)
        with pytest.raises(Unbalanced) as expected:
            table.check_balance()
        assert (expected.value.path, expected.value.line, expected.value.column) == (None, None, None)
        with pytest.raises(Unbalanced) as info:
            load_io_table(path)
        # the line of the sector with the larger worst residual, at its OUTPUT cell
        assert (info.value.path, info.value.line, info.value.column) == (str(path), line, 7)
        assert str(info.value) == f"{path}:{line}:7: {expected.value}"

    def test_separate_labor_and_capital_rows(self, tmp_path):
        path = _write(
            tmp_path,
            "t.csv",
            IO_HEADER
            + "a,A,10,20,70,0,100\nb,B,30,15,55,0,100\n"
            + "LABOR,,25,20,,,\nCAPITAL,,30,35,,,\nIMPORTS,,4,9,,,\nINDIRECT_TAX,,1,1,,,\n",
        )
        table, _ = load_io_table(path)
        np.testing.assert_array_equal(table.labor, [25.0, 20.0])
        np.testing.assert_array_equal(table.capital, [30.0, 35.0])

    def test_combined_and_split_value_added_conflict(self, tmp_path):
        path = _write(
            tmp_path,
            "t.csv",
            IO_HEADER
            + "a,A,10,20,70,0,100\nb,B,30,15,55,0,100\n"
            + "LABOR,,25,20,,,\nVALUE_ADDED,,30,35,,,\nIMPORTS,,4,9,,,\nINDIRECT_TAX,,1,1,,,\n",
        )
        with pytest.raises(SchemaError, match="cannot be combined") as info:
            load_io_table(path)
        assert (info.value.line, info.value.column) == (5, 1)

    def test_empty_label_with_numbers_is_an_unknown_row(self, tmp_path):
        # a row whose cells are all empty is blank, and skipped
        rows = "a,A,0,0,1,0,1\nb,B,0,0,1,0,1\n,,,,,,\n" + PRIMARY_ROWS + ",,7,7,,,\n"
        path = _write(tmp_path, "t.csv", IO_HEADER + rows)
        with pytest.raises(SchemaError, match="unknown row label ''") as info:
            load_io_table(path)
        assert (info.value.line, info.value.column) == (8, 1)

    @pytest.mark.parametrize(
        ("row", "column", "name"),
        [("VALUE_ADDED,x,1,1,,,", 2, "sector_name"), ("VALUE_ADDED,,1,1,,,999", 7, "OUTPUT")],
    )
    def test_primary_row_leaves_name_and_demand_cells_empty(self, tmp_path, row, column, name):
        # a cell that is not a number comes later in the file
        rows = "a,A,0,0,1,0,1\nb,B,0,0,1,0,1\n" + row + "\nIMPORTS,,zzz,0,,,\nINDIRECT_TAX,,0,0,,,\n"
        path = _write(tmp_path, "t.csv", IO_HEADER + rows)
        with pytest.raises(SchemaError, match=f"VALUE_ADDED row must leave {name} empty") as info:
            load_io_table(path)
        assert (info.value.line, info.value.column) == (4, column)

    def test_round_trip_is_value_exact(self, tmp_path, data_dir):
        table, _ = load_io_table(data_dir / "io_table.csv")
        out = tmp_path / "echo.csv"
        save_io_table(table, out)
        again, _ = load_io_table(out)
        np.testing.assert_array_equal(table.Z, again.Z)
        np.testing.assert_array_equal(table.f, again.f)
        np.testing.assert_array_equal(table.x, again.x)
        np.testing.assert_array_equal(table.capital, again.capital)
        assert table.sectors == again.sectors


class TestLoadRateSchedule:
    def test_mixed_activity_sector_keeps_share(self, tmp_path):
        # a fisheries-style sector: mostly zero-rated by note, but 70% of
        # output value remains standard-rated
        sectors = SectorSet.from_ids(("fish", "other"))
        path = _write(
            tmp_path,
            "s.csv",
            "sector_id,category,standard_share,note\nfish,zero_rated,0.7,4 of 26 activities zero-rated\n",
        )
        schedule, warnings = load_rate_schedule(path, sectors)
        assert schedule.categories[0] is RateCategory.ZERO_RATED
        assert schedule.standard_share[0] == pytest.approx(0.7)
        assert len(warnings) == 1  # 'other' defaulted

    def test_empty_file_defaults_everything(self, tmp_path):
        sectors = SectorSet.from_ids(("a", "b", "c"))
        path = _write(tmp_path, "s.csv", "sector_id,category,standard_share,note\n")
        schedule, warnings = load_rate_schedule(path, sectors)
        assert all(c is RateCategory.STANDARD_RATED for c in schedule.categories)
        np.testing.assert_array_equal(schedule.standard_share, np.ones(3))
        assert len(warnings) == 3

    def test_empty_share_defaults_by_category(self, tmp_path):
        sectors = SectorSet.from_ids(("a", "b", "c"))
        path = _write(
            tmp_path, "s.csv", "sector_id,category,standard_share,note\na,standard,,\nb,zero_rated, ,\nc,exempt,,\n"
        )
        schedule, warnings = load_rate_schedule(path, sectors)
        assert schedule.standard_share.tolist() == [1.0, 0.0, 0.0]
        assert warnings == []

    def test_share_out_of_range(self, tmp_path):
        sectors = SectorSet.from_ids(("a",))
        path = _write(
            tmp_path, "s.csv", "sector_id,category,standard_share,note\na,standard,1.5,\n"
        )
        with pytest.raises(InvalidShare):
            load_rate_schedule(path, sectors)

    def test_unknown_sector(self, tmp_path):
        sectors = SectorSet.from_ids(("a",))
        path = _write(
            tmp_path, "s.csv", "sector_id,category,standard_share,note\nzz,standard,1.0,\n"
        )
        with pytest.raises(UnknownSector, match="zz"):
            load_rate_schedule(path, sectors)

    def test_unknown_category_is_hard_error(self, tmp_path):
        sectors = SectorSet.from_ids(("a",))
        path = _write(
            tmp_path, "s.csv", "sector_id,category,standard_share,note\na,reduced,0.5,\n"
        )
        with pytest.raises(SchemaError, match="reduced"):
            load_rate_schedule(path, sectors)

    def test_round_trip(self, tmp_path, data_dir):
        sectors = SectorSet.from_ids(("agr", "ind", "ser"))
        schedule, _ = load_rate_schedule(data_dir / "rate_schedule.csv", sectors)
        out = tmp_path / "echo.csv"
        save_rate_schedule(schedule, out)
        again, warnings = load_rate_schedule(out, sectors)
        assert not warnings
        assert again.categories == schedule.categories
        np.testing.assert_array_equal(again.standard_share, schedule.standard_share)


class TestLoadExpenditure:
    def test_bundled_fixture(self, data_dir):
        matrix = load_expenditure(data_dir / "expenditure.csv")
        assert matrix.basis is ExpenditureBasis.ITEM_CODES
        assert len(matrix.groups) == 5
        assert matrix.totals()[0] == pytest.approx(700.0)

    def test_duplicate_rows_sum(self, tmp_path):
        # duplicates add in file order, and the second assert shows the order in the bits
        path = _write(
            tmp_path,
            "e.csv",
            "group_id,dimension,label,item_code,amount\n"
            "g1,income,low,food,0.1\ng2,income,mid,fuel,1e16\ng1,income,low,food,0.2\n"
            "g2,income,mid,fuel,1\ng1,income,low,food,0.3\ng2,income,mid,fuel,1\n",
        )
        matrix = load_expenditure(path)
        np.testing.assert_array_equal(matrix.values, [[0.1 + 0.2 + 0.3, 0.0], [0.0, 1e16 + 1 + 1]])
        assert matrix.values[0, 0] != 0.1 + (0.2 + 0.3) and matrix.values[1, 1] != 1e16 + (1 + 1)

    def test_inconsistent_group_metadata_rejected(self, tmp_path):
        for redefinition in ("g1,ethnicity,low,fuel,5", "g1,income,high,fuel,5"):
            path = _write(
                tmp_path,
                "e.csv",
                "group_id,dimension,label,item_code,amount\n"
                f"g1,income,low,food,10\ng2,income,high,food,1\n{redefinition}\n",
            )
            with pytest.raises(SchemaError, match="redefined") as info:
                load_expenditure(path)
            assert (info.value.line, info.value.column) == (4, 1)

    def test_groups_keep_first_appearance_order(self, tmp_path):
        path = _write(
            tmp_path,
            "e.csv",
            "group_id,dimension,label,item_code,amount\n"
            "g2,ethnicity,Malay,food,1\ng1,income,low,food,2\ng2,ethnicity,Malay,fuel,3\n",
        )
        matrix = load_expenditure(path)
        assert matrix.groups == (
            HouseholdGroup("g2", GroupDimension.ETHNICITY, "Malay"),
            HouseholdGroup("g1", GroupDimension.INCOME_CLASS, "low"),
        )
        np.testing.assert_array_equal(matrix.values, [[1.0, 3.0], [2.0, 0.0]])

    def test_unknown_dimension_rejected(self, tmp_path):
        path = _write(
            tmp_path,
            "e.csv",
            "group_id,dimension,label,item_code,amount\ng1,region,north,food,10\n",
        )
        with pytest.raises(SchemaError, match="region"):
            load_expenditure(path)

    def test_lines_count_past_a_cell_that_spans_lines(self, tmp_path):
        # the label "low\nincome" spans lines 2 and 3
        path = _write(
            tmp_path,
            "e.csv",
            'group_id,dimension,label,item_code,amount\ng1,income,"low\nincome",food,10\ng2,income,mid,fuel,abc\n',
        )
        with pytest.raises(ParseError, match="not a number: 'abc'") as info:
            load_expenditure(path)
        assert (info.value.line, info.value.column) == (4, 5)

    @pytest.mark.parametrize("label", ["low", '"low"'], ids=["plain-block", "declined-block"])
    def test_negative_amount_refused_at_its_cell(self, tmp_path, label):
        # numpy declines a block with a quote; a plain block is declined for its negative amount alone
        text = f"{EXPENDITURE_HEADER}\ng1,income,{label},food,10\ng1,income,{label},fuel,-2.5\n"
        path = _write(tmp_path, "e.csv", text)
        with pytest.raises(ParseError) as info:
            load_expenditure(path)
        assert str(info.value) == f"{path}:3:5: amount must be nonnegative, got -2.5"

    def test_empty_group_named_at_its_first_line(self, tmp_path):
        path = _write(
            tmp_path,
            "e.csv",
            "group_id,dimension,label,item_code,amount\n"
            "g1,income,low,food,10\ng2,income,mid,food,0\ng3,income,high,food,0\ng2,income,mid,fuel,0\n",
        )
        with pytest.raises(EmptyGroup) as info:
            load_expenditure(path)
        assert str(info.value) == f"{path}:3: groups with zero total expenditure: g2, g3"

    @pytest.mark.parametrize(
        "rows, line",
        [
            # two cells, neither infinite, whose group total overflows
            ("g1,income,low,food,1e308\ng2,income,mid,food,1\ng1,income,low,fuel,1e308\n", 4),
            # duplicate rows whose cell overflows
            ("g1,income,low,food,1\ng1,income,low,food,1e308\ng1,income,low,food,1e308\n", 4),
            # 2**969 is a quarter ulp of the largest float, which it follows: summed in
            # file order the total stays finite, numpy's sum of the cells (2**970 + max)
            # does not, so the group's last row is named
            (f"g1,income,low,a,{2.0**969!r}\ng1,income,low,b,{sys.float_info.max!r}\n"
             f"g1,income,low,a,{2.0**969!r}\ng2,income,mid,a,1\n", 4),
        ],
    )
    def test_overflowing_sum_named_at_its_row(self, tmp_path, rows, line):
        path = _write(tmp_path, "e.csv", "group_id,dimension,label,item_code,amount\n" + rows)
        with pytest.raises(ParseError) as info:
            load_expenditure(path)
        assert str(info.value) == f"{path}:{line}:5: amount makes the total of group 'g1' overflow"

    def test_round_trip(self, tmp_path, data_dir):
        matrix = load_expenditure(data_dir / "expenditure.csv")
        out = tmp_path / "echo.csv"
        save_expenditure(matrix, out)
        again = load_expenditure(out)
        np.testing.assert_array_equal(matrix.values, again.values)
        assert matrix.groups == again.groups
        assert matrix.items == again.items

    @pytest.mark.parametrize(
        "row, column, message",
        [(",income,<1000,food,5", 1, "empty group_id"), ("inc1,income,<1000,,5", 4, "empty item_code")],
        ids=["group_id", "item_code"],
    )
    def test_empty_id_refused_at_its_cell(self, tmp_path, data_dir, row, column, message):
        text = (data_dir / "expenditure.csv").read_text(encoding="utf-8") + row + "\n"
        path = _write(tmp_path, "e.csv", text)
        with pytest.raises(SchemaError, match=f"{message}$") as info:
            load_expenditure(path)
        assert (info.value.line, info.value.column) == (text.count("\n"), column)

    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @pytest.mark.filterwarnings("error")
    @given(data=_expenditure_files())
    # duplicate (group, item) rows across three blocks, with CRLF endings
    @example(data=(EXPENDITURE_HEADER + "\r\ng1,income,low,food,0.1\r\ng2,income,mid,fuel,1e16" * 4 + "\r\n").encode())
    # a group redefined in a later block
    @example(data=f"{EXPENDITURE_HEADER}\ng1,income,l,a,1\ng2,income,m,a,1\ng3,income,n,a,1\ng1,income,x,a,1\n".encode())
    # an amount that numpy reads and float does not, a header only, and an empty file
    @example(data=f"{EXPENDITURE_HEADER}\ng1,income,low,a,1\ng1,income,low,b,1\x1c\n".encode())
    @example(data=f"{EXPENDITURE_HEADER}\n".encode())
    @example(data=b"")
    # a byte that is not UTF-8 after the rows, past the third block
    @example(data=(EXPENDITURE_HEADER + "\ng1,income,low,food,1" * 7).encode() + b"\n\xff\n")
    # a quoted cell that spans the boundary of the first two blocks, and a bad amount after it
    @example(data=f'{EXPENDITURE_HEADER}\ng1,income,low,a,1\ng1,income,low,b,1\ng2,income,"m\nid",a,1\n'
             "g2,income,\"m\nid\",b,2\ng1,income,low,c,x\n".encode())
    # a block that ends in blank lines
    @example(data=f"{EXPENDITURE_HEADER}\ng1,income,low,a,1\n\n\n\n\ng1,income,low,b,2\n".encode())
    # a late block with a cell longer than the csv field limit
    @example(data=(f"{EXPENDITURE_HEADER}\n" + "g1,income,low,a,1\n" * 4 + "g1,income,low,"
                   + "b" * (csv.field_size_limit() + 1) + ",1\n").encode())
    def test_block_path_agrees_with_the_row_walk(self, tmp_path, data):
        path = tmp_path / "e.csv"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "BLOCK_LINES", 3)
            read = _expenditure_outcome(path)
            patch.setattr(ingest, "_parse_expenditure_block", lambda *args: None)
            assert read == _expenditure_outcome(path)

    @pytest.mark.parametrize(
        "rows",
        [
            # a quoted cell, also one that spans lines
            'g1,income,"low",food,1',
            'g1,income,low,"fo\nod",1',
            # a blank line, which numpy skips, and a block of only blank lines,
            # for which numpy warns
            "g1,income,low,food,1\n",
            "",
            # numpy declines 1_000 and an extra column
            "g1,income,low,food,1_000",
            "g1,income,low,food,1,x",
            # one group's dimension in two cases in one block
            "g1,income,low,food,1\ng1,Income,low,food,1",
            "g1,income,low,fo\x00od,1",
            # numpy strips \x1c around a number, which float rejects
            "g1,income,low,food,1\x1c",
            "g1,income,low,food,inf",
            "g1,income,low,food,nan",
            "g1,income,low,food,-1",
            # a group redefined in a later block and in its own block
            "g1,income,high,food,1",
            "g2,income,mid,food,1\ng2,income,high,food,1",
            "g1,region,low,food,1",
            ",income,low,food,1",
            "g1,income,low,,1",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_block_path_declines_what_it_cannot_vouch_for(self, rows):
        # the odd rows are the file's second block, after a first block of three lines
        dicts = {}, {}, {}
        assert ingest._parse_expenditure_block(["g1,income,low,fuel,2\n"] * 3, 2, *dicts) is not None
        assert ingest._parse_expenditure_block(list(io.StringIO(f"{rows}\n", newline="")), 5, *dicts) is None

    @pytest.mark.parametrize("quoted_row", [0, 16, 32], ids=["first-block", "middle-block", "last-block"])
    def test_a_declined_block_alone_is_walked(self, tmp_path, monkeypatch, quoted_row):
        # the only quoted label is in one of eleven blocks of three lines
        monkeypatch.setattr(ingest, "BLOCK_LINES", 3)
        walk, walked, opened = ingest._walk_expenditure_rows, [], []

        def counting_walk(*args, **kwargs):
            rows = walk(*args, **kwargs)
            walked.append(len(rows[-1]))
            return rows

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(ingest, "_walk_expenditure_rows", counting_walk)
        monkeypatch.setattr(ingest, "open", counting_open, raising=False)
        rows = [f"g{h},income,label {h},item{j},{h + j}" for h in range(3) for j in range(11)]
        plain = _write(tmp_path, "plain.csv", "\n".join([EXPENDITURE_HEADER, *rows, ""]))
        label = f"label {quoted_row // 11}"
        rows[quoted_row] = rows[quoted_row].replace(label, f'"{label}"')
        quoted = _write(tmp_path, "quoted.csv", "\n".join([EXPENDITURE_HEADER, *rows, ""]))
        read = _expenditure_outcome(quoted)
        assert (walked, opened) == ([3], [quoted])
        assert read == _expenditure_outcome(plain)

    def test_block_path_runs_on_a_plain_file(self, tmp_path, monkeypatch):
        # a silent fallback to the row walk, e.g. on an older numpy, fails here
        def no_walk(*args, **kwargs):
            raise AssertionError("the expenditure rows were walked")

        monkeypatch.setattr(ingest, "_walk_expenditure_rows", no_walk)
        path = tmp_path / "e.csv"
        saved = _write_expenditure(path, 40, 150, seed=5)  # 6,000 rows, many blocks
        loaded = load_expenditure(path)
        assert (loaded.groups, loaded.items) == (saved.groups, saved.items)
        np.testing.assert_array_equal(loaded.values, saved.values)

    @pytest.mark.parametrize(
        ("rows", "line"),
        [
            ("g1,income,a,i1,1\ng2,income,b,i2,1\ng2,income,b,i3,1\ng1,income,a,i2,1\n", 4),  # the last item
            ("g1,income,a,i1,1\ng1,income,a,i2,1\ng2,income,b,i1,1\n", 4),  # the last group
        ],
        ids=["item", "group"],
    )
    def test_matrix_larger_than_memory_refused_at_its_last_group_or_item(self, tmp_path, monkeypatch, rows, line):
        path = _write(tmp_path, "e.csv", "group_id,dimension,label,item_code,amount\n" + rows)
        size = load_expenditure(path).values.nbytes
        helpers.report_physical_memory(monkeypatch, size)
        load_expenditure(path)  # as large as memory is not too large
        helpers.report_physical_memory(monkeypatch, size - 1)
        with pytest.raises(ParseError, match="items need a 0.0 GiB expenditure matrix, more than the") as info:
            load_expenditure(path)
        assert (info.value.line, info.value.column) == (line, None)

    def test_matrix_larger_than_memory_refused_before_it_is_allocated(self, tmp_path, monkeypatch):
        path = tmp_path / "e.csv"
        helpers.write_expenditure_past_memory(monkeypatch, path)
        message = "100000 groups x 100000 items need a 74.5 GiB expenditure matrix, more than the 8.0 GiB"
        with pytest.raises(ParseError, match=message) as info:
            load_expenditure(path)
        assert (info.value.line, info.value.column) == (100_001, None)

    def test_load_memory_is_bounded_by_the_file(self, tmp_path):
        # holding the file's lines, or a view of the amounts that keeps a block's strings, costs more
        path = tmp_path / "e.csv"
        _write_expenditure(path, 800, 100, seed=6)  # 80,000 rows
        load_expenditure(path)
        tracemalloc.start()
        try:
            load_expenditure(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size

    def test_load_memory_is_bounded_when_a_block_is_walked(self, tmp_path):
        # the walked first block is read on its own, not with every line of the file
        path = tmp_path / "e.csv"
        _write_expenditure(path, 800, 100, seed=6)  # 80,000 rows
        path.write_text(path.read_text(encoding="utf-8").replace(",label 0,", ',"label 0",', 1), encoding="utf-8")
        load_expenditure(path)
        tracemalloc.start()
        try:
            load_expenditure(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size

    def test_load_memory_is_bounded_when_a_total_overflows(self, tmp_path):
        # the overflowing row is located by reading the file again a row at a time, not by holding its lines
        path = tmp_path / "e.csv"
        _write_expenditure(path, 800, 100, seed=6)  # 80,000 rows
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("g0000,income,label 0,item000,1e308\n" * 2)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="overflow") as info:
                load_expenditure(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (info.value.line, info.value.column) == (80_003, 5)
        assert peak < 2 * path.stat().st_size


class TestConcordance:
    def test_single_target_mapping_adds(self):
        sectors = SectorSet.from_ids(("s1", "s2", "s3"))
        concordance = Concordance(
            sectors=sectors, links=(ConcordanceLink("x", "s2", 1.0),)
        )
        matrix = load_expenditure_from_values([("g1", {"x": 50.0})])
        mapped = map_expenditure(matrix, concordance)
        assert mapped.basis is ExpenditureBasis.SECTOR_CODES
        np.testing.assert_array_equal(mapped.values[0], [0.0, 50.0, 0.0])

    def test_split_mapping_exact(self):
        sectors = SectorSet.from_ids(("s1", "s2"))
        concordance = Concordance(
            sectors=sectors,
            links=(ConcordanceLink("x", "s1", 0.4), ConcordanceLink("x", "s2", 0.6)),
        )
        matrix = load_expenditure_from_values([("g1", {"x": 100.0})])
        mapped = map_expenditure(matrix, concordance)
        np.testing.assert_allclose(mapped.values[0], [40.0, 60.0], atol=1e-12)
        assert mapped.totals()[0] == pytest.approx(100.0, abs=1e-12)

    def test_random_weights_conserve_totals(self):
        rng = np.random.default_rng(13)
        sectors = SectorSet.from_ids(tuple(f"s{i}" for i in range(5)))
        links = []
        items = [f"item{i}" for i in range(12)]
        for item in items:
            targets = rng.choice(5, size=rng.integers(1, 4), replace=False)
            weights = rng.dirichlet(np.ones(len(targets)))
            weights /= weights.sum()
            for t, w in zip(targets, weights):
                links.append(ConcordanceLink(item, f"s{t}", float(w)))
        concordance = Concordance(sectors=sectors, links=tuple(links))
        matrix = load_expenditure_from_values(
            [("g1", {i: float(v) for i, v in zip(items, rng.uniform(1, 100, 12))})]
        )
        mapped = map_expenditure(matrix, concordance)
        assert mapped.totals()[0] == pytest.approx(matrix.totals()[0], rel=1e-9)

    def test_weights_must_sum_to_one(self, tmp_path):
        sectors = SectorSet.from_ids(("s1", "s2"))
        path = _write(
            tmp_path,
            "c.csv",
            "item_code,sector_id,weight\nx,s1,0.4\nx,s2,0.5\n",
        )
        with pytest.raises(SchemaError, match="sum to 1"):
            load_concordance(path, sectors)

    @pytest.mark.parametrize(
        ("rows", "message", "line"),
        [
            ("x,s1,1\ny,s2,0.5\ny,s1,0.5\ny,s2,0.5\n", r"duplicate link \('y', 's2'\)", 5),
            # the first link, in file order, of the first item whose weights are off
            ("x,s1,1\ny,s1,0.5\nz,s2,0.3\ny,s2,0.4\nz,s1,0.5\n", "weights do not sum to 1 for items: y, z", 3),
            ("z,s1,0.5\ny,s1,0.5\nz,s2,0.4\ny,s2,0.4\n", "weights do not sum to 1 for items: y, z", 2),
        ],
    )
    def test_link_errors_name_their_line(self, tmp_path, rows, message, line):
        path = _write(tmp_path, "c.csv", "item_code,sector_id,weight\n" + rows)
        with pytest.raises(SchemaError, match=message) as info:
            load_concordance(path, SectorSet.from_ids(("s1", "s2")))
        assert (info.value.line, info.value.column) == (line, None)

    @pytest.mark.parametrize(
        "links",
        [
            (ConcordanceLink("x", "s1", 1.5),),
            (ConcordanceLink("x", "nowhere", 1.0),),
            (ConcordanceLink("x", "s1", 1.0), ConcordanceLink("x", "s1", 1.0)),
            (ConcordanceLink("x", "s1", 0.5),),
        ],
    )
    def test_constructor_raises_package_error(self, links):
        with pytest.raises(GstioError):
            Concordance(sectors=SectorSet.from_ids(("s1", "s2")), links=links)

    def test_unmapped_item_listed(self):
        sectors = SectorSet.from_ids(("s1",))
        concordance = Concordance(sectors=sectors, links=(ConcordanceLink("x", "s1", 1.0),))
        matrix = load_expenditure_from_values([("g1", {"x": 1.0, "mystery": 2.0})])
        with pytest.raises(UnmappedItem, match="mystery"):
            map_expenditure(matrix, concordance)

    def test_round_trip(self, tmp_path, data_dir):
        sectors = SectorSet.from_ids(("agr", "ind", "ser"))
        concordance = load_concordance(data_dir / "concordance.csv", sectors)
        out = tmp_path / "echo.csv"
        save_concordance(concordance, out)
        again = load_concordance(out, sectors)
        assert again.links == concordance.links


class TestAlignExpenditure:
    def test_missing_sectors_become_zero_columns(self):
        sectors = SectorSet.from_ids(("s1", "s2", "s3"))
        matrix = load_expenditure_from_values(
            [("g1", {"s3": 30.0, "s1": 10.0})], basis=ExpenditureBasis.SECTOR_CODES
        )
        aligned = align_expenditure(matrix, sectors)
        np.testing.assert_array_equal(aligned.values[0], [10.0, 0.0, 30.0])

    def test_unknown_sector_code_rejected(self):
        sectors = SectorSet.from_ids(("s1",))
        matrix = load_expenditure_from_values(
            [("g1", {"nope": 1.0})], basis=ExpenditureBasis.SECTOR_CODES
        )
        with pytest.raises(UnmappedItem, match="nope"):
            align_expenditure(matrix, sectors)


class TestLoadHousehold:
    SPEND = "group_id,dimension,label,item_code,amount\ng1,income,low,food,10\ng1,income,low,fuel,5\n"

    @pytest.mark.parametrize(
        "links, context",
        [("item_code,sector_id,weight\nfood,s1,1\n", "concordance"), (None, "sector set")],
        ids=["concordance", "sector-set"],
    )
    def test_unmapped_item_named_at_its_first_line(self, tmp_path, links, context):
        spend = _write(tmp_path, "e.csv", self.SPEND + "g2,income,mid,fuel,1\n")
        concordance = None if links is None else _write(tmp_path, "c.csv", links)
        with pytest.raises(UnmappedItem) as info:
            load_household(spend, concordance, SectorSet.from_ids(("s1", "food")))
        assert str(info.value) == f"{spend}:3: unmapped item codes ({context}): fuel"

    def test_weight_matrix_built_once(self, tmp_path, monkeypatch):
        spend = _write(tmp_path, "e.csv", self.SPEND)
        links = _write(tmp_path, "c.csv", "item_code,sector_id,weight\nfood,s1,0.3\nfood,s2,0.7\nfuel,s2,1\n")
        sectors = SectorSet.from_ids(("s1", "s2"))
        built = []
        weight_matrix = Concordance.weight_matrix

        def counted(self, items):
            built.append(items)
            return weight_matrix(self, items)

        monkeypatch.setattr(Concordance, "weight_matrix", counted)
        matrix, weights = load_household(spend, links, sectors)
        assert built == [("food", "fuel")]
        mapped = map_expenditure(matrix, load_concordance(links, sectors))
        np.testing.assert_array_equal(mapped.values, matrix.values @ weights)
        np.testing.assert_array_equal(weights, [[0.3, 0.7], [0.0, 1.0]])


class TestCategoryMapFile:
    def test_bundled_fixture(self, data_dir):
        cmap = load_category_map(data_dir / "category_map.csv")
        assert cmap.category_of("rent") == "housing_utilities"
        assert cmap.categories[0] == "food_nonalcoholic"

    def test_duplicate_code_rejected(self, tmp_path):
        path = _write(tmp_path, "m.csv", "code,category\nx,c1\nx,c2\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_category_map(path)

    def test_no_rows_is_a_schema_error(self, tmp_path):
        path = _write(tmp_path, "m.csv", "code,category\n\n")
        with pytest.raises(SchemaError) as info:
            load_category_map(path)
        assert str(info.value) == f"{path}:1: no category assignments"


def load_expenditure_from_values(rows, basis=ExpenditureBasis.ITEM_CODES):
    """Build an ExpenditureMatrix from (group_id, {item: amount}) pairs."""
    from gstio import ExpenditureMatrix, GroupDimension, HouseholdGroup

    groups = []
    items: list[str] = []
    for group_id, spend in rows:
        groups.append(
            HouseholdGroup(group_id=group_id, dimension=GroupDimension.INCOME_CLASS, label=group_id)
        )
        for item in spend:
            if item not in items:
                items.append(item)
    values = np.zeros((len(rows), len(items)))
    for h, (_, spend) in enumerate(rows):
        for item, amount in spend.items():
            values[h, items.index(item)] = amount
    return ExpenditureMatrix(groups=tuple(groups), items=tuple(items), values=values, basis=basis)
