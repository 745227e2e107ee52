"""End-to-end CLI tests: validation, scenario runs, determinism, report rendering."""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from gstio import GstioError, MaskedInputTreatment, cli, load_scenario
from gstio.cli import main

EXPECTED_DP = np.array([0.920366, 0.914612, 0.997991])


def _read(path):
    return path.read_text(encoding="utf-8")


def _run_dir_bytes(run_dir):
    return {p.name: p.read_bytes() for p in sorted(run_dir.glob("*.csv"))}


def _write_table(tmp_path, rows, value_added):
    """Write t.csv from sector rows plus a VALUE_ADDED row, and an all-standard s.csv."""
    ids = [row.split(",")[0] for row in rows.splitlines()]
    zeros = ",".join("0" for _ in ids)
    table = tmp_path / "t.csv"
    table.write_text(
        f"sector_id,sector_name,{','.join(ids)},FINAL_DEMAND,EXPORTS,OUTPUT\n{rows}"
        f"VALUE_ADDED,,{value_added},,,\nIMPORTS,,{zeros},,,\nINDIRECT_TAX,,{zeros},,,\n",
        encoding="utf-8",
    )
    schedule = tmp_path / "s.csv"
    schedule.write_text(
        "sector_id,category,standard_share,note\n" + "".join(f"{i},standard,1,\n" for i in ids), encoding="utf-8"
    )
    return table, schedule


@pytest.fixture()
def appendix_args(data_dir):
    return [
        "--table",
        str(data_dir / "io_table.csv"),
        "--schedule",
        str(data_dir / "rate_schedule.csv"),
    ]


class TestValidate:
    def test_appendix_fixture_passes(self, appendix_args, data_dir, capsys):
        code = main(
            ["validate", *appendix_args]
            + ["--expenditure", str(data_dir / "expenditure.csv")]
            + ["--concordance", str(data_dir / "concordance.csv")]
            + ["--category-map", str(data_dir / "category_map.csv")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "max row residual 0.000e+00" in out
        assert "VALIDATION OK" in out

    def test_unbalanced_table_exits_2_naming_sector(self, tmp_path, data_dir, capsys):
        broken = tmp_path / "broken.csv"
        text = _read(data_dir / "io_table.csv").replace("agr,Agriculture,6,", "agr,Agriculture,26,")
        broken.write_text(text, encoding="utf-8")
        code = main(
            ["validate", "--table", str(broken), "--schedule", str(data_dir / "rate_schedule.csv")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ERROR Unbalanced:")
        assert "agr" in err

    def test_unknown_schedule_sector_exits_2(self, tmp_path, data_dir, capsys):
        schedule = tmp_path / "s.csv"
        schedule.write_text(
            "sector_id,category,standard_share,note\nmining,standard,1.0,\n", encoding="utf-8"
        )
        code = main(
            ["validate", "--table", str(data_dir / "io_table.csv"), "--schedule", str(schedule)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ERROR UnknownSector:")

    @pytest.mark.parametrize("flags", [[], ["--allow-unbalanced"]])
    def test_tiny_output_rejected_at_its_cell(self, tmp_path, capsys, flags):
        cases = [
            # 1 / 1e-320 overflows, so the balance residual of sector a would too
            ("a,A,0,0,1,0,1e-320\nb,B,0,0,1,0,1\n", "2:7: OUTPUT of sector a "),
            # b buys 5 from a on an OUTPUT of 1, a coefficient of 5
            ("a,A,0,5,1,0,1\nb,B,0,0,1,0,1\n", "3:7: OUTPUT of sector b "),
        ]
        for rows, cell in cases:
            table, schedule = _write_table(tmp_path, rows, "1,1")
            code = main(["validate", "--table", str(table), "--schedule", str(schedule), *flags])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith(f"ERROR ZeroOutput: {table}:{cell}")
            assert len(err.splitlines()) == 1

    def test_non_utf8_input_exits_2_at_its_line(self, tmp_path, data_dir, capsys):
        table = tmp_path / "t.csv"
        table.write_bytes((data_dir / "io_table.csv").read_bytes().replace(b"OUTPUT", b"OUT\xffPUT"))
        code = main(["validate", "--table", str(table), "--schedule", str(data_dir / "rate_schedule.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"ERROR ParseError: {table}:1: not UTF-8: byte 0xff\n"

    def test_out_of_range_gst_rate_exits_2(self, appendix_args, capsys):
        code = main(["validate", *appendix_args, "--gst-rate", "1.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ERROR InvalidSchedule:")
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--concordance", "--category-map"])
    def test_every_given_input_is_read(self, appendix_args, tmp_path, capsys, flag):
        # neither file is used without --expenditure, and each is still read;
        # a failing load prints no check line before its ERROR
        missing = tmp_path / "nope.csv"
        code = main(["validate", *appendix_args, flag, str(missing)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"ERROR ParseError: {missing}: cannot read file:")
        assert len(captured.err.splitlines()) == 1

    def test_productive_periodic_table_passes(self, tmp_path, capsys):
        # A = [[0, .2], [.3, 0]] is bipartite, so power iteration oscillates
        # and its bracket stays open; the verdict is the solver's, and it is productive
        rows = "agr,Agriculture,0,20,80,0,100\nind,Industry,30,0,70,0,100\n"
        table, schedule = _write_table(tmp_path, rows, "70,80")
        code = main(["validate", "--table", str(table), "--schedule", str(schedule)])
        out = capsys.readouterr().out
        assert code == 0
        assert "radius in [0.2, 0.3] (bracket open after 3 iterations) pass" in out
        assert "VALIDATION OK" in out

    @pytest.mark.parametrize(
        "rows, value_added, validate_code, run_code",
        [
            # A = [[0, 0, .5], [0, 0, .25], [.45, .25, 0]]: bipartite, ρ ≈ 0.536
            (
                "agr,Agriculture,0,0,50,50,0,100\nind,Industry,0,0,25,75,0,100\n"
                "ser,Services,45,25,0,30,0,100\n",
                "55,75,25",
                0,
                0,
            ),
            # A = [[0, 1], [1, 0]]: balanced with zero value added, ρ = 1
            ("agr,Agriculture,0,100,0,0,100\nind,Industry,100,0,0,0,100\n", "0,0", 2, 3),
        ],
        ids=["bipartite-productive", "radius-one"],
    )
    def test_validate_and_run_agree_on_productivity(
        self, tmp_path, capsys, rows, value_added, validate_code, run_code
    ):
        table, schedule = _write_table(tmp_path, rows, value_added)
        assert main(["validate", "--table", str(table), "--schedule", str(schedule)]) == validate_code
        (tmp_path / "s.cfg").write_text(
            "[inputs]\nio_table = t.csv\nrate_schedule = s.csv\n\n"
            "[tax]\ngst_rate = 0.06\n\n[report]\noutput_dir = out\n",
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(["run", str(tmp_path / "s.cfg")]) == run_code
        if run_code:
            assert capsys.readouterr().err.startswith("ERROR NonProductive:")

    def test_incomplete_category_map_fails_validation(self, tmp_path, data_dir, capsys):
        cmap = tmp_path / "partial.csv"
        cmap.write_text("code,category\nfood,food_nonalcoholic\n", encoding="utf-8")
        code = main(
            [
                "validate",
                "--table",
                str(data_dir / "io_table.csv"),
                "--schedule",
                str(data_dir / "rate_schedule.csv"),
                "--expenditure",
                str(data_dir / "expenditure.csv"),
                "--concordance",
                str(data_dir / "concordance.csv"),
                "--category-map",
                str(cmap),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "VALIDATION FAILED" in captured.out
        assert captured.err.startswith("ERROR ValidationFailed:")

    def test_category_map_checked_on_all_sectors(self, tmp_path, data_dir, capsys):
        # sector-coded spending on agr and ind only: the category table runs
        # over all three sectors, so a map without ser fails validate and run
        (tmp_path / "spend.csv").write_text(
            "group_id,dimension,label,item_code,amount\n"
            "inc1,income,low,agr,60\ninc1,income,low,ind,40\n",
            encoding="utf-8",
        )
        (tmp_path / "map.csv").write_text(
            "code,category\nagr,food_nonalcoholic\nind,misc_goods_services\n", encoding="utf-8"
        )
        (tmp_path / "s.cfg").write_text(
            f"[inputs]\nio_table = {data_dir / 'io_table.csv'}\n"
            f"rate_schedule = {data_dir / 'rate_schedule.csv'}\n"
            "expenditure = spend.csv\ncategory_map = map.csv\n\n"
            "[tax]\ngst_rate = 0.06\n\n[report]\noutput_dir = out\n",
            encoding="utf-8",
        )
        code = main(
            [
                "validate",
                "--table",
                str(data_dir / "io_table.csv"),
                "--schedule",
                str(data_dir / "rate_schedule.csv"),
                "--expenditure",
                str(tmp_path / "spend.csv"),
                "--category-map",
                str(tmp_path / "map.csv"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "category map: MISSING codes ser" in out
        assert main(["run", str(tmp_path / "s.cfg")]) == 2
        assert capsys.readouterr().err.startswith("ERROR UnmappedItem:")
        assert not (tmp_path / "out").exists()


class TestRun:
    def test_appendix_scenario_outputs(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["run", str(data_dir / "scenario.cfg"), "-o", str(out)])
        assert code == 0
        names = {p.name for p in out.glob("*.csv")}
        assert names == {
            "price_changes.csv",
            "summary.csv",
            "incidence_by_group.csv",
            "gaps.csv",
            "category_table_income.csv",
            "category_table_ethnicity.csv",
        }
        rows = _read(out / "price_changes.csv").strip().splitlines()[1:]
        dp = np.array([float(r.split(",")[3]) for r in rows])
        np.testing.assert_allclose(dp, EXPECTED_DP, atol=1e-3)

    def test_base_group_ratio_exactly_one(self, data_dir, tmp_path):
        out = tmp_path / "run"
        main(["run", str(data_dir / "scenario.cfg"), "-o", str(out)])
        for line in _read(out / "gaps.csv").strip().splitlines()[1:]:
            cells = line.split(",")
            if cells[1] in ("inc1", "eth1"):
                assert cells[6] == "1" and cells[7] == "1"

    def test_byte_identical_reruns(self, data_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(data_dir / "scenario.cfg"), "-o", str(out1)]) == 0
        assert main(["run", str(data_dir / "scenario.cfg"), "-o", str(out2)]) == 0
        assert _run_dir_bytes(out1) == _run_dir_bytes(out2)

    def test_refuses_to_overwrite_without_force(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", str(data_dir / "scenario.cfg"), "-o", str(out)]) == 0
        code = main(["run", str(data_dir / "scenario.cfg"), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "--force" in err
        assert main(["run", str(data_dir / "scenario.cfg"), "-o", str(out), "--force"]) == 0

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_refuses_an_output_path_that_is_a_file(self, data_dir, tmp_path, capsys, force):
        out = tmp_path / "run"
        out.write_text("not a run\n", encoding="utf-8")
        code = main(["run", str(data_dir / "scenario.cfg"), "-o", str(out), *force])
        assert code == 2
        assert capsys.readouterr().err == f"ERROR GstioError: output path {out} exists and is not a directory\n"
        assert out.read_text(encoding="utf-8") == "not a run\n"
        assert [path.name for path in tmp_path.iterdir()] == ["run"]  # no staging directory left behind

    def test_no_reform_scenario_prices_flat(self, tmp_path, capsys):
        # no indirect tax at baseline and a 0% reform rate: the substituted
        # tax row equals the baseline one, so nothing moves (coefficients are
        # dyadic so the zeros are exact all the way into the CSV)
        (tmp_path / "io.csv").write_text(
            "sector_id,sector_name,a,b,FINAL_DEMAND,EXPORTS,OUTPUT\n"
            "a,A,0,0,100,0,100\n"
            "b,B,0,0,100,0,100\n"
            "VALUE_ADDED,,75,25,,,\n"
            "IMPORTS,,25,75,,,\n"
            "INDIRECT_TAX,,0,0,,,\n",
            encoding="utf-8",
        )
        (tmp_path / "sched.csv").write_text(
            "sector_id,category,standard_share,note\na,standard,1.0,\nb,standard,1.0,\n",
            encoding="utf-8",
        )
        (tmp_path / "flat.cfg").write_text(
            "[inputs]\nio_table = io.csv\nrate_schedule = sched.csv\n\n"
            "[tax]\ngst_rate = 0.0\n\n"
            "[report]\noutput_dir = out\n",
            encoding="utf-8",
        )
        assert main(["run", str(tmp_path / "flat.cfg")]) == 0
        rows = _read(tmp_path / "out" / "price_changes.csv").strip().splitlines()[1:]
        assert all(row.split(",")[4] == "0" for row in rows)

    def test_out_of_range_scenario_gst_rate_exits_2(self, data_dir, tmp_path, capsys):
        # the rate range is the schedule's rule, whichever input sets the rate;
        # a scenario reports it at its line
        (tmp_path / "s.cfg").write_text(
            f"[inputs]\nio_table = {data_dir / 'io_table.csv'}\n"
            f"rate_schedule = {data_dir / 'rate_schedule.csv'}\n\n"
            "[tax]\ngst_rate = 1.5\n\n[report]\noutput_dir = out\n",
            encoding="utf-8",
        )
        code = main(["run", str(tmp_path / "s.cfg")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"ERROR SchemaError: {tmp_path / 's.cfg'}:6: gst_rate must lie in [0, 1)")
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["concordance", "category_map"])
    def test_every_given_input_is_read(self, data_dir, tmp_path, capsys, key):
        (tmp_path / "s.cfg").write_text(
            f"[inputs]\nio_table = {data_dir / 'io_table.csv'}\n"
            f"rate_schedule = {data_dir / 'rate_schedule.csv'}\n{key} = nope.csv\n\n"
            "[tax]\ngst_rate = 0.06\n\n[report]\noutput_dir = out\n",
            encoding="utf-8",
        )
        code = main(["run", str(tmp_path / "s.cfg")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"ERROR ParseError: {tmp_path / 'nope.csv'}: cannot read file:")
        assert not (tmp_path / "out").exists()

    def test_input_error_reported_before_a_numerical_one(self, tmp_path, capsys):
        # A = [[0, 1], [1, 0]] has radius 1, but the bad amount is found first
        _write_table(tmp_path, "agr,Agriculture,0,100,0,0,100\nind,Industry,100,0,0,0,100\n", "0,0")
        (tmp_path / "spend.csv").write_text(
            "group_id,dimension,label,item_code,amount\ninc1,income,low,agr,zzz\n", encoding="utf-8"
        )
        (tmp_path / "s.cfg").write_text(
            "[inputs]\nio_table = t.csv\nrate_schedule = s.csv\nexpenditure = spend.csv\n\n"
            "[tax]\ngst_rate = 0.06\n\n[report]\noutput_dir = out\n",
            encoding="utf-8",
        )
        code = main(["run", str(tmp_path / "s.cfg")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"ERROR ParseError: {tmp_path / 'spend.csv'}:2:5: not a number: 'zzz'\n"

    def test_treatment_override_changes_result(self, data_dir, tmp_path):
        drop_dir, kept_dir = tmp_path / "drop", tmp_path / "kept"
        main(["run", str(data_dir / "scenario.cfg"), "-o", str(drop_dir)])
        main(["run", str(data_dir / "scenario.cfg"), "-o", str(kept_dir), "--treatment", "baseline"])
        assert _read(drop_dir / "price_changes.csv") != _read(kept_dir / "price_changes.csv")

    def test_flags_override_their_scenario_fields(self, data_dir, tmp_path, monkeypatch):
        seen = []

        def record(config):
            seen.append(config)
            raise GstioError("recorded")

        monkeypatch.setattr(cli, "run_scenario", record)
        scenario = data_dir / "scenario.cfg"
        flags = ["--treatment", "baseline", "--exempt-retains-input-tax", "--allow-unbalanced", "--full-precision"]
        assert main(["run", str(scenario)]) == 2
        assert main(["run", str(scenario), "-o", str(tmp_path / "x"), *flags]) == 2
        assert seen[0] == load_scenario(scenario)
        assert seen[1] == replace(
            seen[0],
            output_dir=tmp_path / "x",
            masked_input_treatment=MaskedInputTreatment.BASELINE,
            exempt_retains_input_tax=True,
            allow_unbalanced=True,
            full_precision=True,
        )

    def test_override_a_field_parser_rejects_is_a_usage_error(self, data_dir, tmp_path, capsys):
        code = main(["run", str(data_dir / "scenario.cfg"), "-o", str(tmp_path / "x\ny")])
        err = capsys.readouterr().err
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("ERROR")]
        assert errors == [
            "ERROR Usage: argument --output-dir/-o: output_dir continues on an indented line; a path is one line"
        ]
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_full_precision_widens_but_agrees(self, data_dir, tmp_path):
        short_dir, full_dir = tmp_path / "short", tmp_path / "full"
        main(["run", str(data_dir / "scenario.cfg"), "-o", str(short_dir)])
        main(["run", str(data_dir / "scenario.cfg"), "-o", str(full_dir), "--full-precision"])
        short_rows = _read(short_dir / "price_changes.csv").strip().splitlines()[1:]
        full_rows = _read(full_dir / "price_changes.csv").strip().splitlines()[1:]
        for s_row, f_row in zip(short_rows, full_rows):
            s_val, f_val = s_row.split(",")[3], f_row.split(",")[3]
            assert float(f_val) == pytest.approx(float(s_val), abs=1e-6)
            assert len(f_val) >= len(s_val)


class TestReport:
    @pytest.fixture()
    def run_dir(self, data_dir, tmp_path):
        out = tmp_path / "run"
        main(["run", str(data_dir / "scenario.cfg"), "-o", str(out)])
        return out

    def test_text_price_table_has_direction(self, run_dir, capsys):
        code = main(["report", str(run_dir), "--format", "text", "--table", "price_changes"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[2].split() == ["sector", "pct_change", "direction"]
        assert len([l for l in lines if "down" in l]) == 3

    def test_csv_format_is_byte_identical(self, run_dir, capsys):
        code = main(["report", str(run_dir), "--format", "csv", "--table", "gaps"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == _read(run_dir / "gaps.csv")

    def test_csv_format_requires_table(self, run_dir, capsys):
        code = main(["report", str(run_dir), "--format", "csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR MissingArtifact:")

    def test_plotdata_series_files(self, run_dir, capsys):
        code = main(["report", str(run_dir), "--format", "plotdata"])
        assert code == 0
        series = run_dir / "plotdata" / "price_changes_series.csv"
        lines = _read(series).strip().splitlines()
        assert lines[0] == "label,value"
        assert lines[1].startswith("agr,")

    @pytest.mark.parametrize("fmt", ["text", "plotdata"])
    def test_missing_column_names_file_and_column(self, run_dir, capsys, fmt):
        prices = run_dir / "price_changes.csv"
        prices.write_text(_read(prices).replace("pct_change", "change"), encoding="utf-8")
        code = main(["report", str(run_dir), "--format", fmt, "--table", "price_changes"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"ERROR MissingArtifact: {prices} has no pct_change column\n"

    @pytest.mark.parametrize(
        "old, new, error",
        [
            (",-7.96338", ",abc", ":2:5: not a number: 'abc'"),
            (",0.920366,-7.96338", ",0.920366", ":2:5: expected 5 fields, got 4"),
        ],
        ids=["not-a-number", "row-short"],
    )
    def test_bad_price_row_names_its_line(self, run_dir, capsys, old, new, error):
        prices = run_dir / "price_changes.csv"
        prices.write_text(_read(prices).replace(old, new), encoding="utf-8")
        code = main(["report", str(run_dir), "--format", "text", "--table", "price_changes"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"ERROR ParseError: {prices}{error}\n"

    def test_lines_count_past_a_cell_that_spans_lines(self, run_dir, capsys):
        # the name "Agri\nculture" spans lines 2 and 3, so ind's row is line 4
        prices = run_dir / "price_changes.csv"
        text = _read(prices).replace("Agriculture", '"Agri\nculture"').replace("-8.53881", "abc")
        prices.write_text(text, encoding="utf-8")
        code = main(["report", str(run_dir), "--format", "text", "--table", "price_changes"])
        assert code == 2
        assert capsys.readouterr().err == f"ERROR ParseError: {prices}:4:5: not a number: 'abc'\n"

    def test_missing_run_dir(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "nope")])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR MissingArtifact:")


class TestEntryPoint:
    def test_usage_error_exits_1(self, capsys):
        assert main([]) == 1
        assert main(["run"]) == 1

    def test_module_invocation(self, data_dir, tmp_path):
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "gstio", "run", str(data_dir / "scenario.cfg"), "-o", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "summary.csv").exists()
