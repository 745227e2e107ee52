"""The example scripts run as programs: clean exits, usage errors without tracebacks."""

import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gstio import derive_coefficients, load_io_table, load_rate_schedule, price_change_summary, simulate_prices

ROOT = Path(__file__).resolve().parent.parent


def _python(*args, **environ):
    """Run the interpreter from the repo root with the source tree importable, plus ``environ``."""
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT)


def _script(name, *args):
    return _python(str(ROOT / "scripts" / name), *args)


def test_readme_python_quick_start_runs():
    quick_start = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    proc = _python("-c", code, PYTHONWARNINGS="error::RuntimeWarning")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("name", ["run_appendix_scenario.py", "rate_sweep.py"])
def test_script_runs_clean(name):
    proc = _script(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "Traceback" not in proc.stderr


APPENDIX_SCENARIO_STDOUT = """\
loaded 3 sectors, worst balance residual 0.00e+00

sector price levels (baseline -> post-reform):
  agr    1.0000 ->   0.9204  (-7.96%)
  ind    1.0000 ->   0.9146  (-8.54%)
  ser    1.0000 ->   0.9980  (-0.20%)

risers: 0 (mean +0.00%)   decliners: 3 (mean -5.57%)   net decline: 5.57%   weighted mean: -5.57%

household groups (monthly basket cost, before -> after):
  inc1  [income   ]   700.00 ->   661.79  (-5.46%)
  inc2  [income   ]  1600.00 ->  1526.34  (-4.60%)
  inc3  [income   ]  2800.00 ->  2679.11  (-4.32%)
  eth1  [ethnicity]  1000.00 ->   949.74  (-5.03%)
  eth2  [ethnicity]  1400.00 ->  1334.57  (-4.67%)

post-reform consumption gaps vs inc1: {'inc1': 1.0, 'inc2': 2.306, 'inc3': 4.048}
"""


def test_appendix_scenario_prints_the_run_tables():
    proc = _script("run_appendix_scenario.py")
    assert proc.stdout == APPENDIX_SCENARIO_STDOUT


@pytest.mark.parametrize("steps", ["1", "0"])
def test_rate_sweep_rejects_too_few_steps(steps):
    proc = _script("rate_sweep.py", "--steps", steps)
    assert proc.returncode == 2
    assert "--steps must be at least 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_rate_sweep_prints_the_break_even_rate():
    lines = _script("rate_sweep.py").stdout.splitlines()
    assert len(lines) == 13
    assert lines[-1] == "break-even rate (output-weighted mean change crosses 0): 0.182067"
    short = _script("rate_sweep.py", "--max-rate", "0.01", "--steps", "2", "--treatment", "baseline")
    assert short.stdout.splitlines()[-1].endswith(": 0.033821")


def test_rate_sweep_reports_no_break_even_rate_outside_the_range():
    proc = _script("rate_sweep.py", "--max-rate", "0", "--steps", "2")
    assert proc.stdout.splitlines()[-1].endswith(": none in [0, 1)")


def _load_rate_sweep():
    spec = importlib.util.spec_from_file_location("rate_sweep", ROOT / "scripts" / "rate_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("treatment", ["drop", "baseline"])
def test_break_even_rate_matches_bisection(treatment):
    rate_sweep = _load_rate_sweep()
    rates, summaries = rate_sweep.sweep(treatment, 0.10, 11)
    closed_form = rate_sweep.break_even_rate(rates, [s.weighted_mean for s in summaries])

    data = ROOT / "data" / "appendix3"
    table, _ = load_io_table(data / "io_table.csv")
    bundle = derive_coefficients(table)
    schedule, _ = load_rate_schedule(data / "rate_schedule.csv", table.sectors)

    def mean_change(rate):
        post = simulate_prices(bundle, replace(schedule, gst_rate=rate), masked_input_treatment=treatment)
        return price_change_summary(post, output=table.x).weighted_mean

    low, high = 0.0, 0.99
    assert mean_change(low) < 0.0 < mean_change(high)
    while high - low > 1e-13:
        middle = 0.5 * (low + high)
        low, high = (middle, high) if mean_change(middle) < 0.0 else (low, middle)
    assert closed_form == pytest.approx(low, abs=1e-9)
