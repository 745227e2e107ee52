"""The example scripts run as programs: clean exits, usage errors without tracebacks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


@pytest.mark.parametrize("name", ["run_appendix_scenario.py", "rate_sweep.py"])
def test_script_runs_clean(name):
    proc = _script(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("steps", ["1", "0"])
def test_rate_sweep_rejects_too_few_steps(steps):
    proc = _script("rate_sweep.py", "--steps", steps)
    assert proc.returncode == 2
    assert "--steps must be at least 2" in proc.stderr
    assert "Traceback" not in proc.stderr
