#!/usr/bin/env python3
"""Run the bundled three-sector scenario through the library API and print results.

Equivalent to ``gstio run data/appendix3/scenario.cfg`` followed by
``gstio report ... --format text``, but exercising the Python API directly,
which is the easier starting point for custom experiments: ``run_tables``
returns the tables that ``gstio run`` writes, with their numbers unformatted.
"""

from pathlib import Path

from gstio import GroupDimension, load_scenario, run_scenario, run_tables

DATA = Path(__file__).resolve().parent.parent / "data" / "appendix3"


def main() -> None:
    result = run_scenario(load_scenario(DATA / "scenario.cfg"))
    inputs = result.inputs
    print(f"loaded {inputs.bundle.n} sectors, worst balance residual {inputs.balance.max_row_residual:.2e}")
    for w in inputs.schedule_warnings:
        print("warning:", w)
    tables = {name: rows for name, (_, rows) in run_tables(result).items()}

    print("\nsector price levels (baseline -> post-reform):")
    for sector_id, _, base, post, pct in tables["price_changes"]:
        print(f"  {sector_id:4s} {base:8.4f} -> {post:8.4f}  ({pct:+.2f}%)")
    s = dict(tables["summary"])
    print(
        f"\nrisers: {s['riser_count']} (mean +{s['riser_mean_pct']:.2f}%)   "
        f"decliners: {s['decliner_count']} (mean -{s['decliner_mean_pct']:.2f}%)   "
        f"net decline: {s['net_decline_pct']:.2f}%   weighted mean: {s['weighted_mean_pct']:+.2f}%"
    )

    print("\nhousehold groups (monthly basket cost, before -> after):")
    for dimension, group_id, _, before, after, pct in tables["incidence_by_group"]:
        print(f"  {group_id:5s} [{dimension:9s}] {before:8.2f} -> {after:8.2f}  ({pct:+.2f}%)")

    income = GroupDimension.INCOME_CLASS
    ratios = {row[1]: row[-1] for row in tables["gaps"] if row[0] == income.value}
    print(f"\npost-reform consumption gaps vs {result.base_groups[income]}:", {g: round(r, 3) for g, r in ratios.items()})


if __name__ == "__main__":
    main()
