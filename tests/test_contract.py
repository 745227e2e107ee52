"""Contract tests for the appendix inputs: every mutant of the bundled scenario
or of one of its five CSV inputs either runs, or fails with one
``ERROR <Class>:`` line and a documented exit code. Every scenario
``SchemaError`` but a missing section names its line, and every CSV load
error, ``EmptyGroup``, ``UnmappedItem`` and ``ZeroOutput`` names its file
and line, but a file-level ``missing …`` error and a category map that leaves codes out.

``gstio validate`` on a mutant's scenario agrees with ``run``: it passes
where ``run`` runs, and prints ``run``'s ERROR line and nothing else where
``run`` fails to load. Where ``run`` fails after loading, on a category map
that leaves codes out, a non-productive table or a group whose report
numbers overflow, ``validate`` prints its checks and fails them. On a CSV
mutant, ``validate`` on the five inputs as flags does the same, to the byte.

``gstio report`` on a finished run directory with one table mutated either
renders it, as text and as plot series, or fails with exit 2 and one
``ERROR <Class>:`` line that names the mutated table and its line, or says
which column the table lacks. A failed plotdata report writes no series.
"""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from gstio.cli import main
from gstio.errors import LoadError

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "appendix3"
SCENARIO = (DATA_DIR / "scenario.cfg").read_bytes()
LINES = SCENARIO.splitlines(keepends=True)
TOKENS = [b"zzz", b"", b"1.5", b"-1", b"nan", b"yes", b"x ; note", b"\xff"]

CSV_INPUTS = ("io_table.csv", "rate_schedule.csv", "expenditure.csv", "concordance.csv", "category_map.csv")
CSV_TOKENS = [b"zzz", b"nan", b"1e999", b"-1", b"", b"1e-320", b"1.7e308"]
LOCATED_ERRORS = "|".join(
    [*(cls.__name__ for cls in LoadError.__subclasses__()), "EmptyGroup", "UnmappedItem", "ZeroOutput"]
)
OVERFLOW = "ERROR DimensionMismatch: the report numbers of group"
VALIDATE_FLAGS = ("--table", "--schedule", "--expenditure", "--concordance", "--category-map")

RUN_TABLES = (
    "price_changes.csv", "summary.csv", "incidence_by_group.csv", "gaps.csv",
    "category_table_income.csv", "category_table_ethnicity.csv",
)  # fmt: skip
RUN_TOKENS = [*CSV_TOKENS, b"TOTAL", b'"']


def mutate(kind: str, line: int, token: bytes, cut: int) -> bytes:
    """Delete or duplicate ``line``, replace its value with ``token``, insert an
    indented key ``token`` before it, or cut the file at ``cut``."""
    if kind == "truncate":
        return SCENARIO[:cut]
    lines = list(LINES)
    if kind == "delete":
        del lines[line]
    elif kind == "duplicate":
        lines.insert(line, lines[line])
    elif kind == "insert":
        # a key after a [section] header, a value's continuation after a key
        lines.insert(line, b"  " + token + b" = 1\n")
    else:
        key, equals, _ = lines[line].partition(b"=")
        # a line that is no key = value is replaced as a whole
        lines[line] = (key + b"= " if equals else b"") + token + b"\n"
    return b"".join(lines)


def mutate_csv(data: bytes, kind: str, line: int, column: int, token: bytes, cut: int) -> bytes:
    """Delete or duplicate a line, replace one of its cells with ``token``, or cut
    the file at ``cut``; ``line``, ``column`` and ``cut`` wrap around the file."""
    if kind == "truncate":
        return data[: cut % (len(data) + 1)]
    lines = data.splitlines(keepends=True)
    line %= len(lines)
    if kind == "delete":
        del lines[line]
    elif kind == "duplicate":
        lines.insert(line, lines[line])
    else:
        cells = lines[line].rstrip(b"\n").split(b",")
        cells[column % len(cells)] = token
        lines[line] = b",".join(cells) + b"\n"
    return b"".join(lines)


def run_outcome(scenario: Path) -> str:
    """Run ``scenario`` in process and return its stderr, having checked that it
    either wrote its outputs, each category TOTAL row the same as its group's
    incidence row, or failed with exit 2 or 3 and one ERROR line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(scenario)])
    err = err.getvalue()
    if code == 0:
        assert err == ""
        run_dir = Path(out.getvalue().splitlines()[-1].removeprefix("run complete: "))
        assert (run_dir / "price_changes.csv").is_file()
        if (run_dir / "incidence_by_group.csv").is_file():
            helpers.one_total_per_group(run_dir)
    else:
        assert code in (2, 3), err
        assert len(err.splitlines()) == 1 and re.match(r"ERROR \w+: ", err), err
    return err


def check_validate_agrees(argv: list[str], run_err: str) -> tuple[int, str, str]:
    """``gstio validate`` with ``argv`` agrees with a run of the same scenario
    that printed ``run_err``; see the module docstring. Returns its exit code,
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", *argv])
    out, err = out.getvalue(), err.getvalue()
    if not run_err:
        assert (code, err) == (0, ""), err
        assert out.endswith("VALIDATION OK\n"), out
    elif "(category map)" in run_err or run_err.startswith(("ERROR NonProductive:", OVERFLOW)):
        assert code == 2 and err.startswith("ERROR ValidationFailed:"), err
        assert "category map: MISSING codes" in out or " FAIL\n" in out, out
    else:
        assert (code, out, err) == (2, "", run_err)
    return code, out, err


def _appendix_copy(tmp: str) -> Path:
    # output_dir is ../../out/appendix3, so a run lands in tmp/out
    data = Path(tmp) / "data" / "appendix3"
    shutil.copytree(DATA_DIR, data)
    return data


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    kind=st.sampled_from(["delete", "duplicate", "replace", "insert", "truncate"]),
    line=st.integers(0, len(LINES) - 1),
    token=st.sampled_from(TOKENS),
    cut=st.integers(0, len(SCENARIO)),
)
@example(kind="replace", line=1, token=b"\xff", cut=0)
@example(kind="replace", line=9, token=b"", cut=0)
@example(kind="replace", line=14, token=b"x ; note", cut=0)
@example(kind="delete", line=12, token=b"", cut=0)
@example(kind="insert", line=1, token=b"zzz", cut=0)
@example(kind="insert", line=2, token=b"zzz", cut=0)
@example(kind="replace", line=7, token=b"[DEFAULT]", cut=0)
# full precision, where summing the category cells rounds some group totals differently
@example(kind="replace", line=15, token=b"yes", cut=0)
def test_scenario_mutants_run_or_fail_with_one_located_error(kind, line, token, cut):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = _appendix_copy(tmp) / "scenario.cfg"
        scenario.write_bytes(mutate(kind, line, token, cut))
        err = run_outcome(scenario)
        if err.startswith(f"ERROR SchemaError: {scenario}:") and "missing section" not in err:
            assert re.match(rf"ERROR SchemaError: {re.escape(str(scenario))}:\d+: ", err), err
        check_validate_agrees([str(scenario)], err)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(
    name=st.sampled_from(CSV_INPUTS),
    kind=st.sampled_from(["delete", "duplicate", "replace", "truncate"]),
    line=st.integers(0, 40),
    column=st.integers(0, 7),
    token=st.sampled_from(CSV_TOKENS),
    cut=st.integers(0, 1500),
)
# a repeated link, and weights that no longer sum to 1
@example(name="concordance.csv", kind="duplicate", line=1, column=0, token=b"", cut=0)
@example(name="concordance.csv", kind="replace", line=2, column=2, token=b"1e-320", cut=0)
# a file cut inside its first sector row
@example(name="io_table.csv", kind="truncate", line=0, column=0, token=b"", cut=80)
# an item missing from the concordance, and one the category map leaves out
@example(name="concordance.csv", kind="delete", line=3, column=0, token=b"", cut=0)
@example(name="category_map.csv", kind="delete", line=2, column=0, token=b"", cut=0)
# an amount whose group's report numbers overflow after the solve
@example(name="expenditure.csv", kind="replace", line=1, column=4, token=b"1.7e308", cut=0)
def test_csv_mutants_run_or_fail_with_one_located_error(name, kind, line, column, token, cut):
    with tempfile.TemporaryDirectory() as tmp:
        # resolved, as the scenario's paths are, so both commands name the same files
        data = _appendix_copy(tmp).resolve()
        path = data / name
        path.write_bytes(mutate_csv(path.read_bytes(), kind, line, column, token, cut))
        err = run_outcome(data / "scenario.cfg")
        # a load error names its file and line, but a file-level "missing …"
        located = re.match(rf"ERROR (?:{LOCATED_ERRORS}): [^:]+(:\d+)?", err)
        if located and not located.group(1) and "(category map)" not in err:
            assert err[located.end() :].startswith(": missing "), err
        flags = [arg for flag, name in zip(VALIDATE_FLAGS, CSV_INPUTS) for arg in (flag, str(data / name))]
        assert check_validate_agrees([str(data / "scenario.cfg")], err) == check_validate_agrees(flags, err)


def check_report(run_dir: Path, table: Path, fmt: str, out: Path) -> None:
    """``gstio report`` in format ``fmt`` on ``run_dir``, whose ``table`` is a
    mutant, keeps the contract in the module docstring."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["report", str(run_dir), "--format", fmt, "--out", str(out)])
    err = err.getvalue()
    if code == 0:
        assert err == ""
        return
    path = re.escape(str(table))
    assert code == 2 and len(err.splitlines()) == 1, err
    assert re.match(rf"ERROR \w+: {path}:\d+(:\d+)?: |ERROR MissingArtifact: {path} has no \w+ column$", err), err
    assert not out.exists()


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory) -> Path:
    run_dir = tmp_path_factory.mktemp("finished") / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(DATA_DIR / "scenario.cfg"), "-o", str(run_dir)]) == 0
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(RUN_TABLES)
    return run_dir


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    name=st.sampled_from(RUN_TABLES),
    kind=st.sampled_from(["delete", "duplicate", "replace", "truncate"]),
    line=st.integers(0, 25),
    column=st.integers(0, 7),
    token=st.sampled_from(RUN_TOKENS),
    cut=st.integers(0, 1200),
)
# a pct_change that is no number, in the text price table and a plot series
@example(name="price_changes.csv", kind="replace", line=1, column=4, token=b"zzz", cut=0)
@example(name="summary.csv", kind="replace", line=2, column=1, token=b"nan", cut=0)
# a header without the value column, and a category table's TOTAL row made a category
@example(name="gaps.csv", kind="delete", line=0, column=0, token=b"", cut=0)
@example(name="category_table_income.csv", kind="replace", line=6, column=2, token=b"zzz", cut=0)
def test_run_directory_mutants_render_or_fail_with_one_located_error(finished_run, name, kind, line, column, token, cut):
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        shutil.copytree(finished_run, run_dir)
        table = run_dir / name
        table.write_bytes(mutate_csv(table.read_bytes(), kind, line, column, token, cut))
        for fmt in ("text", "plotdata"):
            check_report(run_dir, table, fmt, Path(tmp) / "plot")
