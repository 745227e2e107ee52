#!/usr/bin/env python3
"""Sweep the statutory rate over a range and chart how the net price effect moves.

Keeps the bundled three-sector economy and its zero-rating pattern fixed and
varies only the rate, printing one line per step, then the break-even rate:
where the output-weighted mean change crosses 0 and the reform stops being
price-reducing for this structure.
"""

import argparse
import math
from pathlib import Path

from gstio import (
    derive_coefficients,
    load_io_table,
    load_rate_schedule,
    price_change_summary,
    price_path,
)

DATA = Path(__file__).resolve().parent.parent / "data" / "appendix3"


def sweep(treatment: str, max_rate: float, steps: int):
    """Rates and their price-change summaries, from one :func:`price_path` call."""
    table, _ = load_io_table(DATA / "io_table.csv")
    bundle = derive_coefficients(table)
    schedule, _ = load_rate_schedule(DATA / "rate_schedule.csv", table.sectors)
    rates = [max_rate * k / (steps - 1) for k in range(steps)]
    paths = price_path(bundle, schedule, rates, masked_input_treatment=treatment)
    return rates, [price_change_summary(post, output=table.x) for post in paths]


def break_even_rate(rates, means) -> float:
    """Rate at which the mean change crosses 0; nan when the mean does not move.

    With the mask fixed every price is affine in the rate, so the
    output-weighted mean is too, and the line through the first and last
    step is exact.
    """
    r0, r1, m0, m1 = rates[0], rates[-1], means[0], means[-1]
    if m1 == m0:
        return math.nan
    return r0 - m0 * (r1 - r0) / (m1 - m0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rate", type=float, default=0.10)
    parser.add_argument("--steps", type=int, default=11)
    parser.add_argument("--treatment", choices=["drop", "baseline"], default="drop")
    args = parser.parse_args()
    if args.steps < 2:
        parser.error("--steps must be at least 2")

    rates, summaries = sweep(args.treatment, args.max_rate, args.steps)
    print(f"{'rate':>6}  {'mean_change':>12}  {'risers':>6}  {'decliners':>9}  {'net_decline':>11}")
    for rate, summary in zip(rates, summaries):
        print(
            f"{rate:6.3f}  {summary.weighted_mean:+12.3f}  {summary.riser_count:6d}  "
            f"{summary.decliner_count:9d}  {summary.net_decline:11.3f}"
        )
    r_star = break_even_rate(rates, [s.weighted_mean for s in summaries])
    shown = f"{r_star:.6f}" if 0.0 <= r_star < 1.0 else "none in [0, 1)"
    print(f"break-even rate (output-weighted mean change crosses 0): {shown}")


if __name__ == "__main__":
    main()
