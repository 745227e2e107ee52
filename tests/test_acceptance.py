"""Acceptance suite: the exit criteria for this package, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion.

A note on scope: the headline full-scale results this model family is known
for (a 7.4% mean decline over 90 sectors vs a 2.0% mean rise over 34, the
5.4% net, a 0.023 coefficient MAD between benchmark tables, and the full
124-sector/12-category report set) depend on a national IO table, household
survey microdata and customs rate lists that are not publishable here. Those
pipelines are therefore covered by the oracle and property checks below plus
the end-to-end run on the bundled three-sector scenario, not by numeric
reproduction of the full-scale figures.
"""

import time

import numpy as np
import pytest

import helpers
from gstio import (
    baseline_prices,
    category_report,
    derive_coefficients,
    expenditure_change,
    gap_change_report,
    gap_ratios,
    gst_coefficients,
    leontief_inverse,
    load_category_map,
    load_concordance,
    load_expenditure,
    map_expenditure,
    masked_inverse,
    purchasing_power_change,
    simulate_prices,
)
from gstio.cli import main

EXPECTED_DP = np.array([0.920366, 0.914612, 0.997991])


def test_criterion_1_appendix_golden_inverses():
    """Masked inverse reproduces both printed appendix matrices and the oracle."""
    A = helpers.APPENDIX_AT.T
    started = time.perf_counter()
    inverse_zero = masked_inverse(A, np.array([0.0, 1.0, 1.0]))
    inverse_half = masked_inverse(A, np.array([0.5, 1.0, 1.0]))
    elapsed = time.perf_counter() - started

    np.testing.assert_allclose(inverse_zero, helpers.APPENDIX_INVERSE_ZERO, atol=0.02)
    np.testing.assert_allclose(inverse_half, helpers.APPENDIX_INVERSE_HALF, atol=0.02)
    np.testing.assert_allclose(
        inverse_zero,
        helpers.power_series_inverse(helpers.APPENDIX_AT * np.array([0.0, 1.0, 1.0])),
        atol=1e-10,
    )
    np.testing.assert_allclose(
        inverse_half,
        helpers.power_series_inverse(helpers.APPENDIX_AT * np.array([0.5, 1.0, 1.0])),
        atol=1e-10,
    )
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS - appendix inverses match print (±0.02) and oracle (1e-10), {elapsed:.3f}s")


def test_criterion_2_consumption_gap_table():
    """Gap ratios, gap changes and percent changes match the printed table."""
    ethnic_before = {"bumiputera": 2046.0, "cina": 2775.0, "india": 2191.0, "lain": 1831.0}
    ethnic_after = {"bumiputera": 2153.0, "cina": 2915.0, "india": 2300.0, "lain": 1936.0}
    income_before = {
        "lt1000": 692.0, "r1000": 1479.0, "r2000": 2437.0,
        "r3000": 3433.0, "r4000": 4449.0, "gt5000": 7517.0,
    }
    income_after = {
        "lt1000": 730.0, "r1000": 1560.0, "r2000": 2567.0,
        "r3000": 3618.0, "r4000": 4679.0, "gt5000": 7889.0,
    }
    printed_ethnic_before = {"bumiputera": 1.000, "cina": 1.356, "india": 1.071, "lain": 0.895}
    printed_ethnic_after = {"bumiputera": 1.000, "cina": 1.354, "india": 1.068, "lain": 0.899}
    printed_income_before = {
        "lt1000": 1.000, "r1000": 2.137, "r2000": 3.522,
        "r3000": 4.961, "r4000": 6.429, "gt5000": 10.863,
    }
    printed_income_after = {
        "lt1000": 1.000, "r1000": 2.137, "r2000": 3.518,
        "r3000": 4.958, "r4000": 6.412, "gt5000": 10.811,
    }
    printed_pct = {
        "bumiputera": 5.25, "cina": 5.06, "india": 4.99, "lain": 5.71,
        "lt1000": 5.45, "r1000": 5.46, "r2000": 5.35,
        "r3000": 5.38, "r4000": 5.17, "gt5000": 4.95,
    }

    for totals, base, printed in (
        (ethnic_before, "bumiputera", printed_ethnic_before),
        (ethnic_after, "bumiputera", printed_ethnic_after),
        (income_before, "lt1000", printed_income_before),
        (income_after, "lt1000", printed_income_after),
    ):
        ratios = gap_ratios(totals, base)
        assert ratios[base] == 1.0
        for group, expected in printed.items():
            assert ratios[group] == pytest.approx(expected, abs=0.005), group

    changes = gap_change_report(printed_ethnic_before, printed_ethnic_after)
    assert changes["cina"] == pytest.approx(-0.15, abs=0.03)
    income_changes = gap_change_report(printed_income_before, printed_income_after)
    assert income_changes["gt5000"] == pytest.approx(-0.48, abs=0.03)

    before = {**ethnic_before, **income_before}
    after = {**ethnic_after, **income_after}
    for group, expected in printed_pct.items():
        got = purchasing_power_change(before[group], after[group])
        assert got == pytest.approx(expected, abs=0.1), group
    print("\nACCEPTANCE 2 PASS - consumption-gap table reproduced from printed inputs")


def test_criterion_3_baseline_normalization():
    """Baseline prices are the unit vector on every balanced fixture."""
    bundle = derive_coefficients(helpers.appendix_table())
    np.testing.assert_allclose(baseline_prices(bundle), 1.0, atol=1e-9)
    rng = np.random.default_rng(17)
    for _ in range(10):
        table = helpers.random_balanced_table(rng, int(rng.integers(2, 12)))
        np.testing.assert_allclose(
            baseline_prices(derive_coefficients(table)), 1.0, atol=1e-9
        )
    print("\nACCEPTANCE 3 PASS - baseline prices normalize to 1 within 1e-9")


def test_criterion_4_oracle_equivalence():
    """50 random productive systems: solver outputs match brute-force oracles."""
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        bundle, schedule = helpers.random_bundle_and_schedule(rng, n)
        shares = schedule.standard_share
        masked = bundle.A.T * shares

        inverse = masked_inverse(bundle.A, shares)
        np.testing.assert_allclose(
            inverse, helpers.power_series_inverse(masked), atol=1e-8
        )

        tax_row = schedule.gst_rate * shares * (bundle.labor + bundle.capital)
        np.testing.assert_allclose(
            gst_coefficients(bundle, schedule), tax_row, atol=1e-15
        )
        costs = bundle.labor + bundle.capital + bundle.imports + tax_row
        np.testing.assert_allclose(
            simulate_prices(bundle, schedule),
            helpers.fixed_point_prices(masked, costs),
            atol=1e-8,
        )

        np.testing.assert_allclose(
            leontief_inverse(bundle.A),
            helpers.power_series_inverse(bundle.A),
            atol=1e-10,
        )
    print("\nACCEPTANCE 4 PASS - 50 random systems match fixed-point/power-series oracles")


def test_criterion_5_incidence_identities(data_dir):
    """Share identities, expenditure conservation and flat-price zero reports."""
    items_matrix = load_expenditure(data_dir / "expenditure.csv")
    table_bundle = derive_coefficients(helpers.appendix_table())
    concordance = load_concordance(data_dir / "concordance.csv", table_bundle.sectors)
    cmap = load_category_map(data_dir / "category_map.csv")

    mapped = map_expenditure(items_matrix, concordance)
    np.testing.assert_allclose(
        mapped.totals(), items_matrix.totals(), rtol=1e-9
    )

    dp = simulate_prices(table_bundle, helpers.appendix_schedule())
    item_prices = concordance.weight_matrix(items_matrix.items) @ dp
    delta_items = (item_prices - 1.0) * items_matrix.values
    report = category_report(items_matrix, delta_items, cmap)
    np.testing.assert_allclose(report.base_share.sum(axis=1), 100.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(report.post_share.sum(axis=1), 100.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(report.share_change.sum(axis=1), 0.0, atol=1e-9)

    flat = expenditure_change(mapped, np.ones(3))
    np.testing.assert_array_equal(flat, np.zeros_like(mapped.values))
    flat_report = category_report(items_matrix, np.zeros_like(items_matrix.values), cmap)
    np.testing.assert_allclose(flat_report.share_change, 0.0, atol=1e-12)
    np.testing.assert_array_equal(flat_report.total_pct_change, 0.0)
    totals = {g: float(t) for g, t in zip(mapped.group_ids, mapped.totals())}
    ratios = gap_ratios(totals, "inc1")
    assert gap_change_report(ratios, ratios) == {g: 0.0 for g in totals}
    print("\nACCEPTANCE 5 PASS - incidence identities hold to 1e-9 and flat prices report zero")


def test_criterion_6_end_to_end_cli_run(data_dir, tmp_path):
    """Bundled scenario runs through the CLI with the oracle prices, bytes stable."""
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["run", str(data_dir / "scenario.cfg"), "-o", str(out1)]) == 0
    assert main(["run", str(data_dir / "scenario.cfg"), "-o", str(out2)]) == 0

    rows = (out1 / "price_changes.csv").read_text(encoding="utf-8").strip().splitlines()[1:]
    dp = np.array([float(r.split(",")[3]) for r in rows])
    np.testing.assert_allclose(dp, EXPECTED_DP, atol=1e-3)

    bytes1 = {p.name: p.read_bytes() for p in sorted(out1.glob("*.csv"))}
    bytes2 = {p.name: p.read_bytes() for p in sorted(out2.glob("*.csv"))}
    assert bytes1 == bytes2 and len(bytes1) == 6
    print("\nACCEPTANCE 6 PASS - end-to-end CLI run matches oracle prices with byte-identical reruns")
