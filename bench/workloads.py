"""The workloads: their inputs, the gated measurement loop and its checks.

survey and national time `gstio validate` and `gstio run` subprocesses one
after the other; sweep times an in-process API sweep inside one child
process (bench/sweep_worker.py). Children inherit the environment, so the
one-BLAS-thread pins that bench/run.py sets hold for them too.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import oracle
import sweep_worker
import tracing
from gen import Sizes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 11
MIN_OPERATIONS = 3
LOOP_CAP_S = 120.0
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    sizes: Sizes
    smoke: Sizes
    treatment: str = "drop"
    exempt_retains_input_tax: bool = False
    run_flags: tuple[str, ...] = ()


WORKLOADS = {
    # Household side: O(groups × rows) expenditure parsing and the O(links²)
    # concordance weight matrix, built twice per run, dwarf a tiny solve.
    "survey": Workload(Sizes(150, 0.3, 120, items=240), Sizes(3, 0.5, 4, items=6)),
    # Sector side: the cell-by-cell table parse, power iteration and an
    # O(n³) solve; the baseline and exempt branches of the price model.
    "national": Workload(
        Sizes(1000, 0.3, 10, bought=200),
        Sizes(3, 0.5, 2, bought=3),
        treatment="baseline",
        exempt_retains_input_tax=True,
        run_flags=("--full-precision",),
    ),
    # The price model alone, 4 masks × 25 rates on one A; ingest is set-up.
    "sweep": Workload(Sizes(800, 0.3, 20, bought=200, masks=4), Sizes(3, 0.5, 2, bought=3, masks=4)),
}


@dataclass
class Result:
    values: dict[str, float]
    samples: dict[str, list[float]]
    attempted: int
    failed: int
    problems: list[str]
    generation_s: float
    spans: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class Child:
    wall_s: float
    code: int
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], log: Path) -> Child:
    """Run a child to completion; wall time from spawn to reap, rusage from wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log.with_suffix(".out"), "w+b") as out, open(log.with_suffix(".err"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(wall, proc.returncode, usage.ru_maxrss / 1024, out.read().decode(), err.read().decode())


def _failure(what: str, child: Child) -> str:
    last = child.stderr.strip().splitlines()[-1:] or ["no stderr"]
    return f"{what} exited {child.code}: {last[0]}"


def run(name: str, seed: int, seconds: float, directory: Path, *, traced: bool, smoke: bool) -> Result:
    w = WORKLOADS[name]
    sizes = w.smoke if smoke else w.sizes
    start = time.perf_counter()
    inputs = gen.generate(directory, seed, sizes)
    scenario = gen.write_scenario(inputs, treatment=w.treatment, exempt_retains_input_tax=w.exempt_retains_input_tax)
    generation_s = time.perf_counter() - start
    expected = oracle.prices(inputs, treatment=w.treatment, exempt_retains_input_tax=w.exempt_retains_input_tax)
    log = directory / "child"
    is_sweep = sizes.masks > 1
    import_probe = [sys.executable, "-c", "import gstio"]
    if is_sweep:
        probe = [sys.executable, str(BENCH / "sweep_worker.py"), str(directory), "--masks", str(sizes.masks)]
    else:
        probe = import_probe
    # The first interpreter may compile bytecode; users pay that once.
    warmup = run_child(probe, log)
    if warmup.code != 0:
        return Result({}, {}, 1, 1, [_failure("set-up", warmup)], generation_s)

    if traced:
        sweep = None
        if is_sweep:
            last = len(sweep_worker.RATES) - 1
            sweep = (
                sweep_worker.setup(directory, sizes.masks),
                {(m, k): oracle.prices(inputs, m, gst_rate=sweep_worker.RATES[k]) for m in range(sizes.masks) for k in (0, last)},
            )
        values, attempted, failed, problems, spans = tracing.traced_run(
            inputs,
            scenario,
            workload=name,
            seconds=seconds,
            run_flags=list(w.run_flags),
            expected=expected,
            import_gstio=lambda: run_child(import_probe, log),
            sweep=sweep,
        )
        return Result(values, {}, attempted, failed, problems, generation_s, spans)

    setup = [run_child(probe, log) for _ in range(SETUP_PROBES)]
    problems = [_failure("set-up", c) for c in setup if c.code != 0]
    if is_sweep:
        result = _sweep(inputs, sizes.masks, seconds, log)
    else:
        result = _cli_operations(w, inputs, scenario, expected, seconds, log)
    setup_s = [c.wall_s for c in setup]
    result.values["setup_s"] = statistics.median(setup_s)
    result.samples["setup_s"] = setup_s
    result.problems = problems + result.problems
    result.generation_s = generation_s
    return result


def _cli_operations(w: Workload, inputs: gen.Inputs, scenario: Path, expected: np.ndarray, seconds: float, log: Path) -> Result:
    """Pairs of `gstio validate` and `gstio run` until ``seconds`` of them have run.

    Every run is checked against the oracle and against the previous run's
    bytes; the checks are outside the timed region.
    """
    gstio = [sys.executable, "-m", "gstio"]
    validate = [
        *gstio,
        "validate",
        "--table", str(inputs.path("io_table.csv")),
        "--schedule", str(inputs.path("rate_schedule.csv")),
        "--expenditure", str(inputs.path("expenditure.csv")),
        *(["--concordance", str(inputs.path("concordance.csv"))] if inputs.item_coded else []),
        "--category-map", str(inputs.path("category_map.csv")),
        "--gst-rate", str(gen.GST_RATE),
    ]  # fmt: skip
    samples: dict[str, list[float]] = {"validate_s": [], "run_s": []}
    rss: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    timed = 0.0
    previous = None
    start = time.perf_counter()
    while attempted < MIN_OPERATIONS or timed < seconds:
        if time.perf_counter() - start > LOOP_CAP_S:
            break
        out = inputs.path(f"out{attempted % 2}")
        attempted += 1
        checked = run_child(validate, log)
        ran = run_child([*gstio, "run", str(scenario), "-o", str(out), "--force", *w.run_flags], log)
        timed += checked.wall_s + ran.wall_s
        samples["validate_s"].append(checked.wall_s)
        samples["run_s"].append(ran.wall_s)
        rss += [checked.maxrss_mb, ran.maxrss_mb]
        errors = []
        if checked.code != 0 or "VALIDATION OK" not in checked.stdout:
            errors.append(_failure("gstio validate", checked))
        if ran.code != 0:
            errors.append(_failure("gstio run", ran))
        else:
            errors += oracle.check_run_dir(out, inputs, expected, full_precision="--full-precision" in w.run_flags)
            outputs = oracle.run_dir_bytes(out)
            if previous is not None and outputs != previous:
                errors.append("two runs of the scenario wrote different bytes")
            previous = outputs
        failed += bool(errors)
        problems += errors
    values = {
        "run_s": statistics.median(samples["run_s"]),
        "validate_s": statistics.median(samples["validate_s"]),
        "scenarios_per_s": (attempted - failed) / timed,
        "peak_rss_mb": max(rss),
    }
    return Result(values, samples, attempted, failed, problems, 0.0)


def _sweep(inputs: gen.Inputs, masks: int, seconds: float, log: Path) -> Result:
    """One sweep child; the first and last rate of every mask in every sweep
    are checked against the oracle and against the first sweep's bits."""
    checked_path = inputs.path("checked.npz")
    child = run_child(
        [sys.executable, str(BENCH / "sweep_worker.py"), str(inputs.directory), "--masks", str(masks),
         "--seconds", str(seconds), "--out", str(checked_path)],
        log,
    )  # fmt: skip
    if child.code != 0:
        return Result({}, {}, 1, 1, [_failure("sweep worker", child)], 0.0)
    report = json.loads(child.stdout.splitlines()[-1])
    with np.load(checked_path) as checked:
        prices, changes = checked["prices"], checked["changes"]
    problems = []
    failed_checks = 0
    for m in range(masks):
        for j, rate in enumerate(report["rates"]):
            want = oracle.prices(inputs, m, gst_rate=rate)
            before, after = oracle.group_totals(inputs, want)
            for i in range(prices.shape[0]):
                errors = oracle.check_prices(prices[i, m, j], want, f"sweep {i} mask {m} rate {rate:g}")
                errors += oracle.check_totals(changes[i, m, j], before, after, f"sweep {i} mask {m} rate {rate:g}")
                if not (np.array_equal(prices[i, m, j], prices[0, m, j]) and np.array_equal(changes[i, m, j], changes[0, m, j])):
                    errors.append(f"sweep {i} mask {m} rate {rate:g} differs from the first sweep")
                failed_checks += bool(errors)
                problems += errors
    sweeps = report["sweep_s"]
    values = {
        "run_s": statistics.median(sweeps),
        "validate_s": statistics.median(report["validate_s"]),
        "scenarios_per_s": report["scenarios"] / sum(sweeps),
        "peak_rss_mb": child.maxrss_mb,
    }
    samples = {"run_s": sweeps, "validate_s": report["validate_s"], "scenario_s": report["scenario_s"]}
    attempted = report["scenarios"]
    return Result(values, samples, attempted, min(attempted, report["failed"] + failed_checks), problems, 0.0)
