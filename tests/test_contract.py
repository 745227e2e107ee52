"""Contract test for the scenario file: every mutant of the bundled scenario
either runs, or fails with one ``ERROR <Class>:`` line and a documented exit
code, and every scenario ``SchemaError`` but a missing section names its line.
"""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gstio.cli import main

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "appendix3"
SCENARIO = (DATA_DIR / "scenario.cfg").read_bytes()
LINES = SCENARIO.splitlines(keepends=True)
TOKENS = [b"zzz", b"", b"1.5", b"-1", b"nan", b"yes", b"x ; note", b"\xff"]


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
def test_scenario_mutants_run_or_fail_with_one_located_error(kind, line, token, cut):
    with tempfile.TemporaryDirectory() as tmp:
        # output_dir is ../../out/appendix3, so the run lands in tmp/out
        data = Path(tmp) / "data" / "appendix3"
        shutil.copytree(DATA_DIR, data)
        scenario = data / "scenario.cfg"
        scenario.write_bytes(mutate(kind, line, token, cut))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(scenario)])
        err = err.getvalue()
        if code == 0:
            assert err == ""
            run_dir = Path(out.getvalue().splitlines()[-1].removeprefix("run complete: "))
            assert (run_dir / "price_changes.csv").is_file()
            return
        assert code in (2, 3), err
        assert len(err.splitlines()) == 1 and re.match(r"ERROR \w+: ", err), err
        if err.startswith(f"ERROR SchemaError: {scenario}:") and "missing section" not in err:
            assert re.match(rf"ERROR SchemaError: {re.escape(str(scenario))}:\d+: ", err), err
