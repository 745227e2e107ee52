"""Tests for scenario file parsing (path resolution, defaults and every schema
error) and for the load stage that reads a scenario's inputs."""

import re
from dataclasses import is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from gstio import (
    ExpenditureBasis,
    GroupDimension,
    MaskedInputTreatment,
    SchemaError,
    UnknownBaseGroup,
    UnmappedItem,
    check_inputs,
    derive_coefficients,
    load_household,
    load_inputs,
    load_scenario,
    run_scenario,
    scenario,
)
from gstio.cli import main

MINIMAL = (
    "[inputs]\nio_table = io.csv\nrate_schedule = sched.csv\n\n"
    "[tax]\ngst_rate = 0.06\n\n"
    "[report]\noutput_dir = out\n"
)


def _scenario(tmp_path, text):
    path = tmp_path / "conf" / "s.cfg"
    path.parent.mkdir(exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def test_paths_resolve_relative_to_config_file(tmp_path, monkeypatch):
    path = _scenario(
        tmp_path,
        MINIMAL.replace("io.csv", "../data/io.csv").replace(
            "[tax]", "expenditure = spend.csv\nconcordance = \n\n[tax]"
        ),
    )
    monkeypatch.chdir(tmp_path)
    config = load_scenario("conf/s.cfg")
    conf = path.parent.resolve()
    assert config.io_table == (tmp_path / "data" / "io.csv").resolve()
    assert config.rate_schedule == conf / "sched.csv"
    assert config.expenditure == conf / "spend.csv"
    assert config.output_dir == conf / "out"
    assert config.concordance is None


def test_defaults(tmp_path):
    config = load_scenario(_scenario(tmp_path, MINIMAL))
    assert config.gst_rate == 0.06
    assert config.expenditure is None and config.concordance is None and config.category_map is None
    assert config.masked_input_treatment is MaskedInputTreatment.DROP
    assert config.exempt_retains_input_tax is False
    assert config.base_groups == {}
    assert config.full_precision is False
    assert config.allow_unbalanced is False


def test_explicit_values(tmp_path):
    config = load_scenario(
        _scenario(
            tmp_path,
            MINIMAL.replace(
                "gst_rate = 0.06",
                "gst_rate = 0.1\nmasked_input_treatment = BASELINE\nexempt_retains_input_tax = yes",
            ).replace("output_dir = out", "output_dir = out\nbase_groups = income:inc2, ,ethnicity : eth1\nfull_precision = 1"),
        )
    )
    assert config.gst_rate == 0.1
    assert config.masked_input_treatment is MaskedInputTreatment.BASELINE
    assert config.exempt_retains_input_tax is True
    assert config.base_groups == {GroupDimension.INCOME_CLASS: "inc2", GroupDimension.ETHNICITY: "eth1"}
    assert config.full_precision is True


SCHEMA_ERRORS = [
    ("[report]", "[extra]\nx = 1\n\n[report]", "unknown section", 8),
    ("gst_rate = 0.06", "gst_rate = 0.06\nvat_rate = 0.1", "unknown key 'vat_rate'", 7),
    ("[tax]\ngst_rate = 0.06\n", "", "missing section [tax]", None),
    ("io_table = io.csv\n", "", "missing required key 'io_table'", 1),
    ("rate_schedule = sched.csv", "rate_schedule = ", "missing required key 'rate_schedule'", 1),
    ("output_dir = out", "output_dir =", "missing required key 'output_dir'", 8),
    ("gst_rate = 0.06", "masked_input_treatment = drop", "missing required key 'gst_rate'", 5),
    ("gst_rate = 0.06", "gst_rate = six percent", "gst_rate is not a number", 6),
    ("io_table = io.csv\n", "io_table = io.csv\n  more.csv\n", "io_table continues on an indented line", 2),
    ("[inputs]\n", "[inputs]\n  foo = 1\n", "unknown key 'foo' in [inputs]", 2),
    ("gst_rate = 0.06", "gst_rate = nan", "gst_rate must lie in [0, 1), got nan", 6),
    ("gst_rate = 0.06", "gst_rate = -1", "gst_rate must lie in [0, 1), got -1.0", 6),
    ("gst_rate = 0.06", "gst_rate = 1.5", "gst_rate must lie in [0, 1), got 1.5", 6),
    ("output_dir = out", "output_dir = out\nfull_precision = maybe", "full_precision must be true or false", 10),
    ("gst_rate = 0.06", "gst_rate = 0.06\nmasked_input_treatment = keep", "masked_input_treatment", 7),
    ("output_dir = out", "output_dir = out\nbase_groups = inc1", "must be dimension:group_id", 10),
    ("output_dir = out", "output_dir = out\nbase_groups = income:inc1, income:inc2", "duplicate base group", 10),
    ("output_dir = out", "output_dir = out\nbase_groups = region:r1", "unknown dimension 'region'", 10),
    ("[inputs]", "[inputs]\n[inputs]", "bad scenario syntax", 2),
    ("gst_rate = 0.06", "gst_rate =", "missing required key 'gst_rate'", 5),
    ("[inputs]\n", "[inputs]\nio_table\n", "bad scenario syntax", 2),
    ("[inputs]\n", "x = 1\n[inputs]\n", "bad scenario syntax", 1),
    ("gst_rate = 0.06", "gst_rate = 0.06\ngst_rate = 0.07", "bad scenario syntax", 7),
    ("[inputs]\n", "[DEFAULT]\nfull_precision = true\n[inputs]\n", "unknown section [DEFAULT]", 1),
    # the first offending line in file order is the error
    ("output_dir = out", "output_dir = out\nfoo\n[report]", "neither [section] nor key = value", 10),
    ("io_table = io.csv\n", "io_table = io.csv\nzz = 1\nrate_schedule\n", "unknown key 'zz' in [inputs]", 3),
]


@pytest.mark.parametrize("newline", [b"\n", b"\r", b"\r\n"], ids=["LF", "CR", "CRLF"])
@pytest.mark.parametrize(
    "old, new, message, line",
    SCHEMA_ERRORS,
    ids=["-".join(case[:3]) for case in SCHEMA_ERRORS],  # the line is left out of the id
)
def test_schema_errors(tmp_path, old, new, message, line, newline):
    assert old in MINIMAL
    path = _scenario(tmp_path, MINIMAL.replace(old, new))
    path.write_bytes(path.read_bytes().replace(b"\n", newline))
    with pytest.raises(SchemaError, match=re.escape(message)) as info:
        load_scenario(path)
    assert info.value.path == str(path)
    assert info.value.line == line


def test_syntax_errors_use_their_own_words(tmp_path):
    # a syntax error is reported in words of our own, at its line
    path = _scenario(tmp_path, MINIMAL.replace("[inputs]\n", "[inputs]\nfoo\n"))
    with pytest.raises(SchemaError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}:2: bad scenario syntax: a line that is neither [section] nor key = value"


def test_empty_value_counts_as_absent(tmp_path):
    empty = "masked_input_treatment =\nexempt_retains_input_tax = ; note\n"
    text = MINIMAL.replace("[tax]\n", f"[tax]\n{empty}").replace(
        "output_dir = out", "output_dir = out\nbase_groups =\nfull_precision =\nallow_unbalanced ="
    )
    assert load_scenario(_scenario(tmp_path, text)) == load_scenario(_scenario(tmp_path, MINIMAL))


def test_semicolon_starts_an_inline_comment(tmp_path):
    text = MINIMAL.replace("gst_rate = 0.06", "gst_rate = 0.1 ; ten percent\nmasked_input_treatment = baseline  ;x")
    config = load_scenario(_scenario(tmp_path, text))
    assert config.gst_rate == 0.1
    assert config.masked_input_treatment is MaskedInputTreatment.BASELINE


def test_readme_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = load_scenario(_scenario(tmp_path, block))
    assert config.masked_input_treatment is MaskedInputTreatment.DROP
    assert config.base_groups == {GroupDimension.INCOME_CLASS: "inc1", GroupDimension.ETHNICITY: "eth1"}
    assert config.concordance == (tmp_path / "conf" / "concordance.csv").resolve()


@pytest.mark.parametrize("newline", [b"\n", b"\r", b"\r\n"])
def test_non_utf8_scenario_names_its_line(tmp_path, newline):
    path = _scenario(tmp_path, MINIMAL)
    path.write_bytes(MINIMAL.encode().replace(b"sched.csv", b"sched\xff.csv").replace(b"\n", newline))
    with pytest.raises(SchemaError, match="not UTF-8: byte 0xff") as info:
        load_scenario(path)
    assert info.value.line == 3


def test_unreadable_scenario(tmp_path):
    with pytest.raises(SchemaError, match="cannot read scenario"):
        load_scenario(tmp_path / "missing.cfg")


def test_load_inputs_holds_every_input(data_dir, appendix_table):
    inputs = load_inputs(load_scenario(data_dir / "scenario.cfg"))
    assert inputs.bundle.sectors.ids == ("agr", "ind", "ser")
    np.testing.assert_array_equal(inputs.bundle.A, derive_coefficients(appendix_table).A)
    np.testing.assert_array_equal(inputs.x, appendix_table.x)
    assert inputs.balance.max_row_residual == 0.0
    assert inputs.schedule.standard_share.tolist() == [0.0, 1.0, 1.0]
    assert inputs.schedule_warnings == ()
    assert inputs.expenditure.items == ("food", "fuel", "rent", "transport", "apparel", "misc")
    assert inputs.weights.shape == (6, 3)
    assert inputs.category_map.categories[0] == "food_nonalcoholic"
    assert inputs.unmapped == ()


def _arrays(value):
    """Every ndarray reachable from ``value`` through dataclass attributes, tuples, lists and dict values."""
    if isinstance(value, np.ndarray):
        yield value
    elif is_dataclass(value):
        for item in vars(value).values():
            yield from _arrays(item)
    elif isinstance(value, (tuple, list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays(item)


def test_a_run_holds_no_groups_by_sectors_matrix(data_dir):
    # the appendix is item-coded: 5 groups buy 6 items, which its concordance maps onto 3 sectors
    config = load_scenario(data_dir / "scenario.cfg")
    result = run_scenario(config)
    groups, items, sectors = 5, 6, 3
    matrix, weights = load_household(config.expenditure, config.concordance, result.inputs.bundle.sectors)
    assert matrix.basis is ExpenditureBasis.ITEM_CODES
    assert matrix.items == ("food", "fuel", "rent", "transport", "apparel", "misc")
    assert (len(matrix.groups), weights.shape) == (groups, (items, sectors))
    np.testing.assert_array_equal(result.inputs.expenditure.values, matrix.values)
    np.testing.assert_array_equal(result.inputs.weights, weights)
    assert result.delta.shape == (groups, items)
    shapes = [array.shape for array in _arrays(result)]
    assert (groups, items) in shapes  # the walk reaches the inputs' arrays
    assert (groups, sectors) not in shapes
    # one sectors × sectors array: once A = Z x̂⁻¹ is derived, the table's flows Z are not kept
    square = {id(array) for array in _arrays(result) if array.shape == (sectors, sectors)}
    assert square == {id(result.inputs.bundle.A)}


def test_check_inputs_are_the_lines_validate_prints(data_dir, capsys):
    config = load_scenario(data_dir / "scenario.cfg")
    argv = ["validate", "--table", str(config.io_table), "--schedule", str(config.rate_schedule)]
    for flag in ("expenditure", "concordance", "category-map"):
        argv += [f"--{flag}", str(getattr(config, flag.replace("-", "_")))]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [check.line for check in check_inputs(config)] == printed[:-1]
    assert printed[-1] == "VALIDATION OK"


def test_category_map_coverage_checked_before_the_solve(data_dir, tmp_path, monkeypatch):
    (tmp_path / "map.csv").write_text("code,category\nfood,food_nonalcoholic\n", encoding="utf-8")
    config = replace(load_scenario(data_dir / "scenario.cfg"), category_map=tmp_path / "map.csv")
    assert load_inputs(config).unmapped == ("fuel", "rent", "transport", "apparel", "misc")

    def solve(*args, **kwargs):
        raise AssertionError("solved before the inputs were checked")

    monkeypatch.setattr(scenario, "simulate_prices", solve)
    with pytest.raises(UnmappedItem, match=r"\(category map\): apparel, fuel, misc, rent, transport"):
        run_scenario(config)


def test_base_group_of_a_dimension_without_groups_is_unknown(data_dir, tmp_path):
    rows = (data_dir / "expenditure.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    (tmp_path / "spend.csv").write_text("".join(row for row in rows if ",ethnicity," not in row), encoding="utf-8")
    config = replace(load_scenario(data_dir / "scenario.cfg"), expenditure=tmp_path / "spend.csv")
    income = {GroupDimension.INCOME_CLASS: "inc1"}
    assert run_scenario(replace(config, base_groups=income)).base_groups == income
    with pytest.raises(UnknownBaseGroup, match="base group 'nosuch' not among ethnicity groups: none"):
        run_scenario(replace(config, base_groups={**income, GroupDimension.ETHNICITY: "nosuch"}))
