#!/usr/bin/env python3
"""Run the bundled three-sector scenario through the library API and print results.

Equivalent to ``gstio run data/appendix3/scenario.cfg`` followed by
``gstio report ... --format text``, but exercising the Python API directly,
which is the easier starting point for custom experiments.
"""

from pathlib import Path

from gstio import (
    GroupDimension,
    gap_ratios,
    load_scenario,
    purchasing_power_change,
    run_scenario,
)

DATA = Path(__file__).resolve().parent.parent / "data" / "appendix3"


def main() -> None:
    result = run_scenario(load_scenario(DATA / "scenario.cfg"))
    inputs = result.inputs
    table, balance = inputs.table, inputs.balance
    print(f"loaded {table.n} sectors, worst balance residual {balance.max_row_residual:.2e}")
    for w in inputs.schedule_warnings:
        print("warning:", w)

    base, post, summary = result.baseline, result.price_level, result.summary
    print("\nsector price levels (baseline -> post-reform):")
    for i, sector_id in enumerate(table.sectors.ids):
        print(f"  {sector_id:4s} {base[i]:8.4f} -> {post[i]:8.4f}  ({summary.pct_change[i]:+.2f}%)")
    print(
        f"\nrisers: {summary.riser_count} (mean +{summary.riser_mean:.2f}%)   "
        f"decliners: {summary.decliner_count} (mean -{summary.decliner_mean:.2f}%)   "
        f"net decline: {summary.net_decline:.2f}%   weighted mean: {summary.weighted_mean:+.2f}%"
    )

    expenditure = inputs.expenditure
    totals_before = expenditure.totals()
    totals_after = expenditure.values @ post

    print("\nhousehold groups (monthly basket cost, before -> after):")
    for h, group in enumerate(expenditure.groups):
        change = purchasing_power_change(totals_before[h], totals_after[h])
        print(
            f"  {group.group_id:5s} [{group.dimension.value:9s}] "
            f"{totals_before[h]:8.2f} -> {totals_after[h]:8.2f}  ({change:+.2f}%)"
        )

    base_id = result.base_groups[GroupDimension.INCOME_CLASS]
    income = {
        group.group_id: float(totals_after[h])
        for h, group in enumerate(expenditure.groups)
        if group.dimension is GroupDimension.INCOME_CLASS
    }
    ratios = gap_ratios(income, base_id)
    print(f"\npost-reform consumption gaps vs {base_id}:", {g: round(r, 3) for g, r in ratios.items()})


if __name__ == "__main__":
    main()
