"""Smoke run of the whole benchmark on three-sector inputs.

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "3"]
    argv += ["--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_and_nothing_fails(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"] for line in lines[:-1])
    fail_ratio = next(line.split() for line in lines if line.startswith("fail_ratio"))
    assert float(fail_ratio[1]) == 0 and fail_ratio[2] == "ratio"
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import gen

    sizes = gen.Sizes(12, 0.3, 6, items=20, masks=2)
    for name in ("a", "b"):
        inputs = gen.generate(tmp_path / name, 7, sizes)
        gen.write_scenario(inputs, treatment="drop", exempt_retains_input_tax=False)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    other = gen.generate(tmp_path / "c", 8, sizes)
    assert (other.directory / "io_table.csv").read_bytes() != (tmp_path / "a" / "io_table.csv").read_bytes()


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout == ""
