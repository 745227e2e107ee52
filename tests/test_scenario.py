"""Tests for scenario file parsing: path resolution, defaults and every schema error."""

import re

import pytest

from gstio import GroupDimension, MaskedInputTreatment, SchemaError, load_scenario

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


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[report]", "[extra]\nx = 1\n\n[report]", "unknown section"),
        ("gst_rate = 0.06", "gst_rate = 0.06\nvat_rate = 0.1", "unknown key 'vat_rate'"),
        ("[tax]\ngst_rate = 0.06\n", "", "missing section [tax]"),
        ("io_table = io.csv\n", "", "missing required key 'io_table'"),
        ("rate_schedule = sched.csv", "rate_schedule = ", "missing required key 'rate_schedule'"),
        ("output_dir = out", "output_dir =", "missing required key 'output_dir'"),
        ("gst_rate = 0.06", "masked_input_treatment = drop", "missing required key 'gst_rate'"),
        ("gst_rate = 0.06", "gst_rate = six percent", "gst_rate is not a number"),
        ("output_dir = out", "output_dir = out\nfull_precision = maybe", "full_precision must be true or false"),
        ("gst_rate = 0.06", "gst_rate = 0.06\nmasked_input_treatment = keep", "masked_input_treatment"),
        ("output_dir = out", "output_dir = out\nbase_groups = inc1", "must be dimension:group_id"),
        ("output_dir = out", "output_dir = out\nbase_groups = income:inc1, income:inc2", "duplicate base group"),
        ("output_dir = out", "output_dir = out\nbase_groups = region:r1", "unknown dimension 'region'"),
        ("[inputs]", "[inputs]\n[inputs]", "bad scenario syntax"),
    ],
)
def test_schema_errors(tmp_path, old, new, message):
    assert old in MINIMAL
    path = _scenario(tmp_path, MINIMAL.replace(old, new))
    with pytest.raises(SchemaError, match=re.escape(message)) as info:
        load_scenario(path)
    assert info.value.path == str(path)


def test_unreadable_scenario(tmp_path):
    with pytest.raises(SchemaError, match="cannot read scenario"):
        load_scenario(tmp_path / "missing.cfg")
