"""Child process of the sweep workload: an API user scripting a rate sweep.

Set-up loads and derives the inputs once and builds one RateSchedule per
(mask, rate). The sweep then gates each mask with productivity_check and,
for every rate, runs simulate_prices, price_change_summary and the row sums
of expenditure_change, all in this process. Whole sweeps repeat until
``--seconds`` have passed. Timings go to stdout as one JSON object; the
first and last rate of every mask in every sweep go to ``--out`` (.npz) for
the oracle checks in the parent.

    python3 bench/sweep_worker.py DIR --masks 4              # set-up only
    python3 bench/sweep_worker.py DIR --masks 4 --seconds 30 --out checked.npz
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

import gen
import gstio

RATES = np.linspace(0.0, 0.2, 25)


def setup(directory: Path, masks: int):
    table, _ = gstio.load_io_table(directory / "io_table.csv")
    bundle = gstio.derive_coefficients(table, check_balance=False)
    matrix = gstio.load_expenditure(directory / "expenditure.csv", basis=gstio.ExpenditureBasis.SECTOR_CODES)
    expenditure = gstio.align_expenditure(matrix, table.sectors)
    schedules = []
    for mask in range(masks):
        base, _ = gstio.load_rate_schedule(directory / gen.schedule_file(mask), table.sectors)
        schedules.append(
            [gstio.RateSchedule(base.sectors, base.categories, base.standard_share, float(rate)) for rate in RATES]
        )
    return table, bundle, expenditure, schedules


def sweep(table, bundle, expenditure, schedules, seconds: float) -> tuple[dict, np.ndarray, np.ndarray]:
    validate_s, sweep_s, scenario_s = [], [], []
    checked_prices, checked_changes = [], []
    failed = 0
    last = len(RATES) - 1
    start = time.perf_counter()
    while not sweep_s or time.perf_counter() - start < seconds:
        sweep_start = time.perf_counter()
        for mask_schedules in schedules:
            t = time.perf_counter()
            gate = gstio.productivity_check(bundle.A, mask_schedules[0].standard_share)
            validate_s.append(time.perf_counter() - t)
            for k, schedule in enumerate(mask_schedules):
                t = time.perf_counter()
                try:
                    prices = gstio.simulate_prices(bundle, schedule)
                    gstio.price_change_summary(prices, output=table.x)
                    changes = gstio.expenditure_change(expenditure, prices).sum(axis=1)
                except gstio.GstioError:
                    prices = np.full(len(table.x), np.nan)
                    changes = np.full(len(expenditure.groups), np.nan)
                scenario_s.append(time.perf_counter() - t)
                failed += not gate.passed or bool(np.isnan(prices[0]))
                if k in (0, last):
                    checked_prices.append(prices)
                    checked_changes.append(changes)
        sweep_s.append(time.perf_counter() - sweep_start)
    shape = (len(sweep_s), len(schedules), 2)
    report = {
        "validate_s": validate_s,
        "sweep_s": sweep_s,
        "scenario_s": scenario_s,
        "scenarios": len(scenario_s),
        "failed": failed,
        "rates": [float(RATES[0]), float(RATES[last])],
    }
    return report, np.array(checked_prices).reshape(*shape, -1), np.array(checked_changes).reshape(*shape, -1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path)
    parser.add_argument("--masks", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    inputs = setup(args.directory, args.masks)
    if args.seconds is None:
        return
    report, prices, changes = sweep(*inputs, args.seconds)
    np.savez(args.out, prices=prices, changes=changes)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
