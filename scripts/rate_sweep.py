#!/usr/bin/env python3
"""Sweep the statutory rate over a range and chart how the net price effect moves.

Keeps the bundled three-sector economy and its zero-rating pattern fixed and
varies only the rate, printing one line per step. Useful for eyeballing the
rate at which the reform stops being price-reducing for this structure.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from gstio import (
    derive_coefficients,
    load_io_table,
    load_rate_schedule,
    price_change_summary,
    simulate_prices,
)

DATA = Path(__file__).resolve().parent.parent / "data" / "appendix3"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rate", type=float, default=0.10)
    parser.add_argument("--steps", type=int, default=11)
    parser.add_argument("--treatment", choices=["drop", "baseline"], default="drop")
    args = parser.parse_args()
    if args.steps < 2:
        parser.error("--steps must be at least 2")

    table, _ = load_io_table(DATA / "io_table.csv")
    bundle = derive_coefficients(table)
    schedule, _ = load_rate_schedule(DATA / "rate_schedule.csv", table.sectors)

    print(f"{'rate':>6}  {'mean_change':>12}  {'risers':>6}  {'decliners':>9}  {'net_decline':>11}")
    for k in range(args.steps):
        rate = args.max_rate * k / (args.steps - 1)
        post = simulate_prices(
            bundle, replace(schedule, gst_rate=rate), masked_input_treatment=args.treatment
        )
        summary = price_change_summary(post, output=table.x)
        print(
            f"{rate:6.3f}  {summary.weighted_mean:+12.3f}  {summary.riser_count:6d}  "
            f"{summary.decliner_count:9d}  {summary.net_decline:11.3f}"
        )


if __name__ == "__main__":
    main()
