"""End-to-end CLI tests: validation, scenario runs, determinism, report rendering."""

import csv
import gc
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import helpers
from gstio import ExpenditureBasis, GstioError, MaskedInputTreatment, ScenarioConfig, cli, load_expenditure, load_scenario
from gstio import run_scenario, run_tables
from gstio.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
EXPECTED_DP = np.array([0.920366, 0.914612, 0.997991])

# The household tables of `gstio run data/appendix3/scenario.cfg` at 6 significant digits.
APPENDIX_HOUSEHOLD_TABLES = {
    "incidence_by_group.csv": """\
dimension,group_id,label,total_before,total_after,pct_change
income,inc1,<1000,700,661.787,-5.45899
income,inc2,1000-2999,1600,1526.34,-4.60393
income,inc3,>=3000,2800,2679.11,-4.31744
ethnicity,eth1,GroupA,1000,949.741,-5.02586
ethnicity,eth2,GroupB,1400,1334.57,-4.67372
""",
    "gaps.csv": """\
dimension,group_id,label,total_before,total_after,pct_change,ratio_before,ratio_after
income,inc1,<1000,700,661.787,-5.45899,1,1
income,inc2,1000-2999,1600,1526.34,-4.60393,2.28571,2.30639
income,inc3,>=3000,2800,2679.11,-4.31744,4,4.0483
ethnicity,eth1,GroupA,1000,949.741,-5.02586,1,1
ethnicity,eth2,GroupB,1400,1334.57,-4.67372,1.4,1.40519
""",
    "category_table_income.csv": """\
group_id,label,category,base_share,post_share,share_point_change,pct_change_within
inc1,<1000,food_nonalcoholic,42.8571,41.6697,-1.18746,-8.07847
inc1,<1000,housing_utilities,40,41.2168,1.21675,-2.58317
inc1,<1000,transport,8.57143,8.67017,0.0987442,-4.36986
inc1,<1000,clothing_footwear,5.71429,5.52813,-0.186152,-8.53881
inc1,<1000,misc_goods_services,2.85714,2.91526,0.0581129,-3.53607
inc1,<1000,TOTAL,700,661.787,,-5.45899
inc2,1000-2999,food_nonalcoholic,25,24.0894,-0.910556,-8.07847
inc2,1000-2999,housing_utilities,40.625,41.6806,1.05565,-2.12504
inc2,1000-2999,transport,15.625,15.6633,0.0383373,-4.36986
inc2,1000-2999,clothing_footwear,7.5,7.19064,-0.309359,-8.53881
inc2,1000-2999,misc_goods_services,11.25,11.3759,0.125931,-3.53607
inc2,1000-2999,TOTAL,1600,1526.34,,-4.60393
inc3,>=3000,food_nonalcoholic,17.8571,17.1552,-0.701917,-8.07847
inc3,>=3000,housing_utilities,41.4286,42.4018,0.973201,-2.06975
inc3,>=3000,transport,17.8571,17.8474,-0.00978433,-4.36986
inc3,>=3000,clothing_footwear,8.57143,8.19327,-0.378159,-8.53881
inc3,>=3000,misc_goods_services,14.2857,14.4024,0.11666,-3.53607
inc3,>=3000,TOTAL,2800,2679.11,,-4.31744
""",
    "category_table_ethnicity.csv": """\
group_id,label,category,base_share,post_share,share_point_change,pct_change_within
eth1,GroupA,food_nonalcoholic,35,33.875,-1.12495,-8.07847
eth1,GroupA,housing_utilities,40,41.1542,1.1542,-2.28539
eth1,GroupA,transport,12,12.0829,0.0828848,-4.36986
eth1,GroupA,clothing_footwear,6,5.77807,-0.221931,-8.53881
eth1,GroupA,misc_goods_services,7,7.1098,0.109803,-3.53607
eth1,GroupA,TOTAL,1000,949.741,,-5.02586
eth2,GroupB,food_nonalcoholic,27.1429,26.1734,-0.969455,-8.07847
eth2,GroupB,housing_utilities,39.2857,40.3168,1.03113,-2.17169
eth2,GroupB,transport,14.2857,14.3313,0.0455361,-4.36986
eth2,GroupB,clothing_footwear,6.42857,6.16792,-0.260653,-8.53881
eth2,GroupB,misc_goods_services,12.8571,13.0106,0.15344,-3.53607
eth2,GroupB,TOTAL,1400,1334.57,,-4.67372
""",
}


def _read(path):
    return path.read_text(encoding="utf-8")


def _run_dir_bytes(run_dir):
    return {p.name: p.read_bytes() for p in sorted(run_dir.glob("*.csv"))}


# Ten sectors on x = 100 with A₀ⱼ = 1 − δ for j >= 1, A₁₀ = 1 − δ and δ = 3e-9: ρ = 1 − δ, and
# the price system's certificate max (I − A')⁻¹1 ≈ 3.3e8 is inside the kernel's 1e9, while the
# row sums of (I − A)⁻¹ reach 1.7e9
NEAR_UNIT_CYCLE_ROWS = (
    "s0,S0,0" + ",99.9999997" * 9 + ",-799.9999973,0,100\n"
    "s1,S1,99.9999997" + ",0" * 9 + ",3e-07,0,100\n"
    + "".join(f"s{i},S{i}" + ",0" * 10 + ",100,0,100\n" for i in range(2, 10))
)


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

    @pytest.mark.parametrize(
        "generated, line",
        [
            (False, "expenditure: 5 groups, 6 items, concordance conserves totals to 0.000e+00"),
            (True, "expenditure: 6 groups, 20 items, concordance conserves totals to 1.904e-16"),
        ],
        ids=["appendix", "generated"],
    )
    def test_expenditure_line_states_the_concordance_error(
        self, data_dir, tmp_path, monkeypatch, capsys, generated, line
    ):
        directory = data_dir
        if generated:  # 20 items on 12 sectors, whose mapped totals differ from the item totals by rounding
            monkeypatch.syspath_prepend(str(BENCH))
            import gen

            directory = gen.generate(tmp_path, 1, gen.Sizes(12, 0.3, 6, items=20)).directory
        argv = ["validate"]
        for flag in ("table", "schedule", "expenditure", "concordance", "category-map"):
            name = {"table": "io_table", "schedule": "rate_schedule"}.get(flag, flag.replace("-", "_"))
            argv += [f"--{flag}", str(directory / f"{name}.csv")]
        assert main(argv) == 0
        assert line in capsys.readouterr().out.splitlines()

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

    @pytest.mark.parametrize("rate", ["1.5", "-1", "nan"])
    def test_out_of_range_gst_rate_is_a_usage_error(self, tmp_path, capsys, rate):
        # refused as the scenario's gst_rate is, before any file is read
        missing = str(tmp_path / "nope.csv")
        code = main(["validate", "--table", missing, "--schedule", missing, "--gst-rate", rate])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("ERROR")]
        assert errors == [f"ERROR Usage: argument --gst-rate: gst_rate must lie in [0, 1), got {float(rate)}"]

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

    @pytest.mark.parametrize("form", ["scenario", "flags"])
    @pytest.mark.parametrize(
        "flag, key",
        [
            ("--table", "io_table"),
            ("--schedule", "rate_schedule"),
            ("--expenditure", "expenditure"),
            ("--concordance", "concordance"),
            ("--category-map", "category_map"),
        ],
    )
    def test_empty_file_flag_is_a_usage_error(self, appendix_args, data_dir, capsys, flag, key, form):
        # not an absent key, which would drop the scenario's file from the checks
        given = [str(data_dir / "scenario.cfg")] if form == "scenario" else appendix_args
        code = main(["validate", *given, flag, ""])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("ERROR")]
        assert errors == [f"ERROR Usage: argument {flag}: {key} is empty"]

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
            # both productivity lines decide on A', the system run solves
            (NEAR_UNIT_CYCLE_ROWS, ",".join(["3e-07"] * 10), 0, 0),
        ],
        ids=["bipartite-productive", "radius-one", "price-system-certificate"],
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

    @pytest.mark.parametrize("given", [[], ["--table", "t.csv"], ["--schedule", "s.csv"]], ids=["none", "table", "schedule"])
    def test_flags_alone_need_table_and_schedule(self, capsys, given):
        missing = [flag for flag in ("--table", "--schedule") if flag not in given]
        assert main(["validate", *given]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"ERROR Usage: the following arguments are required: {', '.join(missing)}"

    def test_flags_set_the_config_that_is_checked(self, data_dir, monkeypatch):
        seen = []

        def record(config):
            seen.append(config)
            return []

        monkeypatch.setattr(cli, "check_inputs", record)
        scenario = data_dir / "scenario.cfg"
        flags = ["--table", "t.csv", "--category-map", "m.csv", "--gst-rate", "0.1", "--allow-unbalanced"]
        assert main(["validate", str(scenario)]) == 0
        assert main(["validate", str(scenario), *flags]) == 0
        assert main(["validate", "--schedule", "./s.csv", *flags]) == 0
        assert seen[0] == load_scenario(scenario)
        # a file flag is resolved from the working directory, as run's --output-dir is
        overrides = {"io_table": Path.cwd() / "t.csv", "category_map": Path.cwd() / "m.csv", "gst_rate": 0.1}
        overrides["allow_unbalanced"] = True
        assert seen[1] == replace(seen[0], **overrides)
        assert seen[2] == ScenarioConfig(rate_schedule=Path.cwd() / "s.csv", output_dir=None, **overrides)

    def test_relative_file_flag_is_named_by_its_resolved_path(self, data_dir, tmp_path, monkeypatch, capsys):
        shutil.copy(data_dir / "io_table.csv", tmp_path)
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        assert main(["validate", "--table", "../io_table.csv", "--schedule", "../missing.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ERROR ParseError: {Path.cwd().parent / 'missing.csv'}: cannot read file: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("unmapped", [False, True], ids=["all codes mapped", "unmapped codes"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unknown_base_group_is_the_same_error(self, data_dir, tmp_path, capsys, command, unmapped):
        # the base group is an input error, reported before a category map that leaves codes out
        for name in ("io_table.csv", "rate_schedule.csv", "expenditure.csv", "concordance.csv", "category_map.csv"):
            shutil.copy(data_dir / name, tmp_path)
        if unmapped:
            cmap = tmp_path / "category_map.csv"
            cmap.write_text(_read(cmap).replace("misc,misc_goods_services\n", ""), encoding="utf-8")
        scenario = _read(data_dir / "scenario.cfg").replace("income:inc1", "income:inc9")
        (tmp_path / "scenario.cfg").write_text(scenario, encoding="utf-8")
        assert main([command, str(tmp_path / "scenario.cfg")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # named at the scenario's base_groups line
        message = "base group 'inc9' not among income groups: inc1, inc2, inc3"
        assert captured.err == f"ERROR UnknownBaseGroup: {tmp_path / 'scenario.cfg'}:15: {message}\n"

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

    @pytest.mark.parametrize(
        "flag, quoted",
        [("expenditure", False), ("expenditure", True), ("category-map", False), ("table", False)],
        ids=["expenditure-block", "expenditure-walk", "category-map", "table"],
    )
    def test_cell_past_the_csv_field_limit_is_one_located_error(self, tmp_path, data_dir, capsys, flag, quoted):
        # a quoted cell sends the expenditure file from its numpy blocks to its row walk
        long, low = "x" * (csv.field_size_limit() + 1), '"low"' if quoted else "low"
        appendix_table = _read(data_dir / "io_table.csv")
        files = {
            "expenditure": "group_id,dimension,label,item_code,amount\n"
            f"g1,income,{long},agr,10\ng2,income,{low},ind,5\n",
            "category-map": f"code,category\nagr,{long}\nind,other\nser,other\n",
            "table": appendix_table.replace(",Agriculture,", f",{long},"),
        }
        path = tmp_path / "long.csv"
        path.write_text(files[flag], encoding="utf-8")
        table = path if flag == "table" else data_dir / "io_table.csv"
        argv = ["validate", "--table", str(table), "--schedule", str(data_dir / "rate_schedule.csv")]
        if flag != "table":
            argv += [f"--{flag}", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = f"field larger than field limit ({csv.field_size_limit()})"
        assert captured.err == f"ERROR ParseError: {path}:2: unreadable csv record: {reason}\n"

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


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "rows",
    [
        "inc1,income,<1000,rent,1e308\ninc1,income,<1000,fuel,1e308\n",  # cells finite, group total not
        "inc1,income,<1000,food,1e308\ninc1,income,<1000,food,1e308\n",  # a duplicated cell overflows
    ],
    ids=["total", "cell"],
)
def test_overflowing_expenditure_is_one_located_error(data_dir, tmp_path, command, rows):
    # in a subprocess, so that a numpy warning on stderr would show
    for name in ("io_table.csv", "rate_schedule.csv", "concordance.csv", "category_map.csv", "scenario.cfg"):
        shutil.copy(data_dir / name, tmp_path)
    spend = tmp_path / "expenditure.csv"
    spend.write_text(_read(data_dir / "expenditure.csv") + rows, encoding="utf-8")
    if command == "run":
        argv = ["run", str(tmp_path / "scenario.cfg"), "-o", str(tmp_path / "out")]
    else:
        argv = ["validate", "--table", str(tmp_path / "io_table.csv"), "--schedule", str(tmp_path / "rate_schedule.csv")]
        argv += ["--expenditure", str(spend), "--concordance", str(tmp_path / "concordance.csv")]
        argv += ["--category-map", str(tmp_path / "category_map.csv")]
    proc = subprocess.run([sys.executable, "-m", "gstio", *argv], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"ERROR ParseError: {spend}:33:5: amount makes the total of group 'inc1' overflow\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["run", "validate scenario", "validate"])
@pytest.mark.parametrize("case", ["header-only table", "expenditure past memory", "loader out of memory"])
def test_an_input_too_large_for_memory_is_one_error_line(data_dir, tmp_path, monkeypatch, capsys, command, case):
    names = ["io_table.csv", "rate_schedule.csv", "expenditure.csv", "concordance.csv", "category_map.csv"]
    for name in [*names, "scenario.cfg"]:
        shutil.copy(data_dir / name, tmp_path)
    located = None
    if case == "header-only table":  # sized by its header, the cells took 80 GB before any row
        located = tmp_path / "io_table.csv"
        located.write_text(helpers.header_only_io_table(100_000), encoding="utf-8")
    elif case == "expenditure past memory":
        located = tmp_path / "expenditure.csv"
        helpers.write_expenditure_past_memory(monkeypatch, located)
    else:

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr("gstio.scenario.load_io_table", out_of_memory)
    flags = ["--table", "--schedule", "--expenditure", "--concordance", "--category-map"]
    argv = {
        "run": ["run", str(tmp_path / "scenario.cfg"), "-o", str(tmp_path / "out")],
        "validate scenario": ["validate", str(tmp_path / "scenario.cfg")],
        "validate": ["validate", *(arg for flag, name in zip(flags, names) for arg in (flag, str(tmp_path / name)))],
    }[command]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
    if located is None:
        assert err == "ERROR MemoryError: Unable to allocate 74.5 GiB\n"
    else:
        assert re.match(rf"ERROR (SchemaError|ParseError): {re.escape(str(located))}:\d+: ", err), err
    assert not (tmp_path / "out").exists()


# a table without expenditure whose price summary overflows: its case, then the exponent e of its
# flows (1e{e}, OUTPUT 1e{e + 1}), the rate and the refusal
SUMMARY_OVERFLOWS = {
    "output weight sum": (307, "0.06", "output weights must be finite and nonnegative, with a positive sum"),
    "output-weighted mean": (  # each price rises 37.5 %, and 1e307 × 37.5 passes the float maximum
        306, "0.5", "the output-weighted mean price change overflows: the output weights are too large"
    ),
}


@pytest.mark.parametrize(
    "command, case",
    [
        # a run case's id is its case alone
        pytest.param(command, case, id=case if command == "run" else f"{case}, {command}")
        for command in ("run", "validate", "validate scenario")
        for case in (
            "post-reform total",
            "without category map",
            "category share",
            "float maximum group",
            "weights above 1",  # misc's weights sum to 1 + 5e-10, so its mapped spending passes the float maximum
            "two float maximum groups",  # the category report goes first, in file order
            "two float maximum groups without category map",  # the gaps table, by dimension then id
            "masked inputs at baseline without category map",
            *SUMMARY_OVERFLOWS,
        )
        # validate's flags set no treatment and no exempt option
        if (command, case) != ("validate", "masked inputs at baseline without category map")
    ],
)
def test_overflowing_report_numbers_refuse_the_group(data_dir, tmp_path, command, case):
    # in a subprocess, so that a numpy warning on stderr would show
    for name in ("io_table.csv", "rate_schedule.csv", "concordance.csv", "category_map.csv"):
        shutil.copy(data_dir / name, tmp_path)
    scenario, spend = _read(data_dir / "scenario.cfg"), _read(data_dir / "expenditure.csv")
    group, rate = "inc1", "0.06"
    no_map = case.endswith("without category map")
    if case in SUMMARY_OVERFLOWS:  # two sectors, each buying 1e{e} from both, and no expenditure
        e, rate, _ = SUMMARY_OVERFLOWS[case]
        rows = "".join(f"{s},{s},1e{e},1e{e},8e{e},0,1e{e + 1}\n" for s in "ab")
        table, schedule = _write_table(tmp_path, rows, f"8e{e},8e{e}")
        table.replace(tmp_path / "io_table.csv")
        schedule.replace(tmp_path / "rate_schedule.csv")
        scenario = re.sub(r"(expenditure|concordance|category_map) = .*\n", "", scenario)
        scenario = scenario.replace("gst_rate = 0.06", f"gst_rate = {rate}")
    elif case == "category share":  # 100 × a finite cell overflows at the scenario's own rate
        spend = spend.replace("inc1,income,<1000,food,300\n", "inc1,income,<1000,food,1.7e308\n")
    elif case in ("float maximum group", "weights above 1"):  # a new group, its dimension's base, at the float maximum
        group, spend = "g9", spend + "g9,income,big,misc,1.7976931348623157e308\n"
    elif case.startswith("two float maximum groups"):
        group = "a9" if no_map else "b9"
        spend += "b9,income,x,misc,1.7976931348623157e308\na9,income,y,misc,1.7976931348623157e308\n"
    elif case.startswith("masked inputs at baseline"):  # the ser price rises 2.8 %; under drop every price falls
        scenario = scenario.replace("treatment = drop", "treatment = baseline")
        scenario = scenario.replace("exempt_retains_input_tax = false", "exempt_retains_input_tax = true")
        spend += "inc1,income,<1000,rent,1.76e308\n"
    else:  # every price rises, so the group's post-reform total overflows
        rate = "0.9"
        scenario = scenario.replace("gst_rate = 0.06", f"gst_rate = {rate}")
        spend += "inc1,income,<1000,rent,1.7e308\n"
    if no_map:
        scenario = scenario.replace("category_map = category_map.csv\n", "")
    if case == "weights above 1":
        concordance = tmp_path / "concordance.csv"
        concordance.write_text(_read(concordance).replace("misc,ser,0.6", "misc,ser,0.6000000005"), encoding="utf-8")
    (tmp_path / "scenario.cfg").write_text(scenario, encoding="utf-8")
    (tmp_path / "expenditure.csv").write_text(spend, encoding="utf-8")
    if command == "run":
        argv = ["run", str(tmp_path / "scenario.cfg"), "-o", str(tmp_path / "out")]
    elif command == "validate scenario":
        argv = ["validate", str(tmp_path / "scenario.cfg")]
    else:
        argv = ["validate", "--gst-rate", rate]
        names = ["io_table", "rate_schedule", "expenditure", "concordance", "category_map"]
        flags = ["--table", "--schedule", "--expenditure", "--concordance", "--category-map"]
        for flag, name in zip(flags, names[: 2 if case in SUMMARY_OVERFLOWS else 4 if no_map else 5]):
            argv += [flag, str(tmp_path / f"{name}.csv")]
    proc = subprocess.run([sys.executable, "-m", "gstio", *argv], capture_output=True, text=True)
    assert proc.returncode == 2
    label, error = "household report", f"the report numbers of group {group} overflow: its spending is too large"
    if case in SUMMARY_OVERFLOWS:
        label, error = "price summary", SUMMARY_OVERFLOWS[case][2]
    if command == "run":
        assert proc.stderr == f"ERROR DimensionMismatch: {error}\n"
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()
    else:
        assert proc.stderr == "ERROR ValidationFailed: one or more checks failed (see report)\n"
        assert proc.stdout.splitlines()[-2:] == [f"{label}: {error} FAIL", "VALIDATION FAILED"]
        assert "Warning" not in proc.stdout + proc.stderr


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

    @pytest.mark.parametrize(
        "keys",
        [
            ("expenditure", "concordance", "category_map"),
            ("expenditure", "concordance"),
            (),
        ],
        ids=["household", "no-category-map", "no-expenditure"],
    )
    def test_run_directory_holds_the_run_tables(self, data_dir, tmp_path, keys):
        inputs = "".join(f"{key} = {data_dir / key}.csv\n" for key in keys)
        (tmp_path / "s.cfg").write_text(
            f"[inputs]\nio_table = {data_dir / 'io_table.csv'}\n"
            f"rate_schedule = {data_dir / 'rate_schedule.csv'}\n{inputs}\n"
            "[tax]\ngst_rate = 0.06\n\n[report]\noutput_dir = out\n",
            encoding="utf-8",
        )
        assert main(["run", str(tmp_path / "s.cfg")]) == 0
        written = {}
        for path in (tmp_path / "out").glob("*.csv"):
            header, *rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
            written[path.stem] = (header, len(rows))
        tables = run_tables(run_scenario(load_scenario(tmp_path / "s.cfg")))
        assert written == {name: (header, len(rows)) for name, (header, rows) in tables.items()}

    @pytest.mark.parametrize("precision", [[], ["--full-precision"]], ids=["6-digits", "full-precision"])
    @pytest.mark.parametrize("coded", ["items", "sectors"])
    def test_one_total_per_group(self, data_dir, tmp_path, coded, precision):
        # every table reads one spending matrix: the file's, so its totals are the file's
        scenario, basis = data_dir / "scenario.cfg", ExpenditureBasis.ITEM_CODES
        if coded == "sectors":
            # the map groups agr with ser, so summing its category cells rounds differently
            (tmp_path / "spend.csv").write_text(
                "group_id,dimension,label,item_code,amount\n"
                "inc1,income,low,agr,307.25\ninc1,income,low,ind,367.45\ninc1,income,low,ser,276.38\n"
                "inc2,income,high,agr,468.19\ninc2,income,high,ind,409.77\ninc2,income,high,ser,11.34\n"
                "eth1,ethnicity,A,agr,347.34\neth1,ethnicity,A,ind,200.57\neth1,ethnicity,A,ser,76.2\n",
                encoding="utf-8",
            )
            (tmp_path / "map.csv").write_text(
                "code,category\nagr,food_nonalcoholic\nind,misc_goods_services\nser,food_nonalcoholic\n",
                encoding="utf-8",
            )
            scenario, basis = tmp_path / "s.cfg", ExpenditureBasis.SECTOR_CODES
            scenario.write_text(
                f"[inputs]\nio_table = {data_dir / 'io_table.csv'}\n"
                f"rate_schedule = {data_dir / 'rate_schedule.csv'}\n"
                "expenditure = spend.csv\ncategory_map = map.csv\n\n"
                "[tax]\ngst_rate = 0.06\n\n[report]\noutput_dir = out\n",
                encoding="utf-8",
            )
        out = tmp_path / "run"
        assert main(["run", str(scenario), "-o", str(out), *precision]) == 0
        loaded = load_expenditure(load_scenario(scenario).expenditure, basis=basis)
        fmt = cli._number_formatter(bool(precision))
        assert helpers.one_total_per_group(out) == {g: fmt(t) for g, t in zip(loaded.group_ids, loaded.totals())}

    def test_household_tables_are_the_golden_text(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert main(["run", str(data_dir / "scenario.cfg"), "-o", str(out)]) == 0
        assert {name: _read(out / name) for name in APPENDIX_HOUSEHOLD_TABLES} == APPENDIX_HOUSEHOLD_TABLES

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

    def test_bits_do_not_depend_on_the_blas_thread_setting(self, tmp_path, monkeypatch):
        # survey-sized inputs: a 150-sector solve, which OpenBLAS splits among its threads
        monkeypatch.syspath_prepend(str(BENCH))
        import gen

        inputs = gen.generate(tmp_path / "inputs", 1, gen.Sizes(150, 0.3, 120, items=240))
        scenario = gen.write_scenario(inputs, treatment="drop", exempt_retains_input_tax=False)
        runs = []
        for setting in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            if setting is not None:
                env["OPENBLAS_NUM_THREADS"] = setting
            out = tmp_path / f"run-{setting}"
            argv = ["run", str(scenario), "-o", str(out), "--full-precision"]
            proc = subprocess.run([sys.executable, "-m", "gstio", *argv], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            runs.append(_run_dir_bytes(out))
        assert len(runs[0]) == 6 and runs[0] == runs[1]

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

    @pytest.mark.parametrize("output", [".", ".."])
    def test_refuses_an_output_directory_that_holds_its_inputs(self, data_dir, tmp_path, monkeypatch, capsys, output):
        shutil.copytree(data_dir, tmp_path / "inputs")
        before = sorted(path.relative_to(tmp_path) for path in tmp_path.rglob("*"))
        monkeypatch.chdir(tmp_path / "inputs")
        assert main(["run", "scenario.cfg", "-o", output, "--force"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("ERROR GstioError: output directory "), err
        assert sorted(path.relative_to(tmp_path) for path in tmp_path.rglob("*")) == before

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

    @pytest.mark.parametrize(
        "value, message",
        [
            ("x\ny", "output_dir continues on an indented line; a path is one line"),
            ("", "output_dir is empty"),  # not the cwd, which --force would replace
        ],
        ids=["newline", "empty"],
    )
    def test_override_a_field_parser_rejects_is_a_usage_error(
        self, data_dir, tmp_path, monkeypatch, capsys, value, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "keep.txt").write_text("kept", encoding="utf-8")
        code = main(["run", str(data_dir / "scenario.cfg"), "-o", value, "--force"])
        err = capsys.readouterr().err
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("ERROR")]
        assert errors == [f"ERROR Usage: argument --output-dir/-o: {message}"]
        assert "Traceback" not in err
        assert [path.name for path in tmp_path.iterdir()] == ["keep.txt"]
        assert _read(tmp_path / "keep.txt") == "kept"

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

    def test_csv_format_names_a_byte_that_is_not_utf8_as_text_does(self, run_dir, capsys):
        gaps = run_dir / "gaps.csv"
        lines = len(_read(gaps).splitlines())
        gaps.write_bytes(gaps.read_bytes() + b"\xff\n")
        for fmt in ("text", "csv"):
            assert main(["report", str(run_dir), "--format", fmt, "--table", "gaps"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"ERROR ParseError: {gaps}:{lines + 1}: not UTF-8: byte 0xff\n"

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

    def test_directory_without_price_table(self, run_dir, capsys):
        (run_dir / "price_changes.csv").unlink()
        assert main(["report", str(run_dir), "--format", "text"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"{run_dir} does not contain price_changes.csv (not a run directory?)"
        assert captured.err == f"ERROR MissingArtifact: {message}\n"

    def test_table_not_in_the_run_directory(self, run_dir, capsys):
        assert main(["report", str(run_dir), "--format", "text", "--table", "nope"]) == 2
        captured = capsys.readouterr()
        tables = "category_table_ethnicity, category_table_income, gaps, incidence_by_group, price_changes, summary"
        assert captured.out == ""
        assert captured.err == f"ERROR MissingArtifact: table 'nope' not in run directory; available: {tables}\n"


class TestEntryPoint:
    def test_usage_error_exits_1(self, capsys):
        assert main([]) == 1
        assert main(["run"]) == 1

    @pytest.mark.parametrize("code", [0, 1, 2, 3], ids=["run complete", "usage", "validation failed", "non-productive"])
    def test_each_exit_class_keeps_its_code_and_output(self, data_dir, tmp_path, capsys, code):
        # A = [[0, 1], [1, 0]] with zero value added: ρ = 1, so validate fails and run is NonProductive
        table, schedule = _write_table(tmp_path, "agr,Agriculture,0,100,0,0,100\nind,Industry,100,0,0,0,100\n", "0,0")
        (tmp_path / "s.cfg").write_text(
            "[inputs]\nio_table = t.csv\nrate_schedule = s.csv\n\n[tax]\ngst_rate = 0.06\n\n[report]\noutput_dir = out\n",
            encoding="utf-8",
        )
        run = tmp_path / "run"
        argv = {
            0: ["run", str(data_dir / "scenario.cfg"), "-o", str(run), "--force"],
            1: ["run"],
            2: ["validate", "--table", str(table), "--schedule", str(schedule)],
            3: ["run", str(tmp_path / "s.cfg")],
        }[code]
        proc = subprocess.run([sys.executable, "-m", "gstio", *argv], capture_output=True, text=True)
        assert proc.returncode == code
        err = proc.stderr.splitlines()
        if code == 0:
            assert (proc.stdout, proc.stderr) == (f"run complete: {run}\n", "")
            assert (run / "summary.csv").exists()
        elif code == 1:
            assert proc.stdout == ""
            assert err[-1] == "ERROR Usage: the following arguments are required: scenario"
        elif code == 2:
            assert proc.stdout.endswith("FAIL\nVALIDATION FAILED\n")
            assert proc.stderr == "ERROR ValidationFailed: one or more checks failed (see report)\n"
        else:
            assert proc.stdout == ""
            assert len(err) == 1 and err[0].startswith("ERROR NonProductive:")
        # the same bytes as main() in process, which is what the other tests pin
        assert main(argv) == code
        assert capsys.readouterr() == (proc.stdout, proc.stderr)

    def test_main_in_process_does_not_freeze(self, data_dir, tmp_path, capsys):
        frozen = gc.get_freeze_count()
        assert main(["run", str(data_dir / "scenario.cfg"), "-o", str(tmp_path / "run")]) == 0
        assert main(["run"]) == 1
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("code", [0, 2], ids=["ok", "error"])
    def test_console_script_is_the_module_entry_point(self, data_dir, tmp_path, code):
        scripts = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
        target = re.search(r'^\[project\.scripts\]\ngstio = "([\w.]+):(\w+)"$', scripts, re.MULTILINE)
        assert target is not None and target.groups() == ("gstio.__main__", "main")  # python -m gstio runs it
        module, function = target.groups()
        schedule = data_dir / "rate_schedule.csv" if code == 0 else tmp_path / "missing.csv"
        argv = ["gstio", "validate", "--table", str(data_dir / "io_table.csv"), "--schedule", str(schedule)]
        calls = {
            "console script": f"code = getattr(importlib.import_module({module!r}), {function!r})()",
            "python -m gstio": (
                "try:\n    runpy.run_module('gstio', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n    code = exc.code"
            ),
        }
        for name, call in calls.items():
            probe = (
                f"import gc, importlib, runpy, sys\nsys.argv = {argv!r}\nbefore = gc.get_freeze_count()\n{call}\n"
                "print(code, before, gc.get_freeze_count() > 0, file=sys.stderr)\n"
            )
            proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
            assert proc.stderr.splitlines()[-1] == f"{code} 0 True", name
