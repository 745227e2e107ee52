"""Tests for household incidence: expenditure changes, category tables, gaps."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstio import (
    BasisMismatch,
    CategoryMap,
    DimensionMismatch,
    EmptyGroup,
    ExpenditureBasis,
    ExpenditureMatrix,
    GroupDimension,
    HouseholdGroup,
    NonPositiveBase,
    UnknownBaseGroup,
    UnmappedItem,
    category_report,
    expenditure_change,
    expenditure_change_on_items,
    gap_change_report,
    gap_ratios,
    purchasing_power_change,
)

# Reference consumption-gap table this module is checked against: monthly
# expenditure by ethnic group and income class, before and after the reform.
ETHNIC_BEFORE = {"bumiputera": 2046.0, "cina": 2775.0, "india": 2191.0, "lain": 1831.0}
ETHNIC_AFTER = {"bumiputera": 2153.0, "cina": 2915.0, "india": 2300.0, "lain": 1936.0}
INCOME_BEFORE = {"lt1000": 692.0, "1000": 1479.0, "2000": 2437.0, "3000": 3433.0, "4000": 4449.0, "gt5000": 7517.0}
INCOME_AFTER = {"lt1000": 730.0, "1000": 1560.0, "2000": 2567.0, "3000": 3618.0, "4000": 4679.0, "gt5000": 7889.0}


def _groups(*ids, dimension=GroupDimension.INCOME_CLASS):
    return tuple(HouseholdGroup(group_id=g, dimension=dimension, label=g) for g in ids)


def _matrix(values, items=None, groups=None, basis=ExpenditureBasis.SECTOR_CODES):
    values = np.asarray(values, dtype=float)
    if items is None:
        items = tuple(f"s{j + 1}" for j in range(values.shape[1]))
    if groups is None:
        groups = _groups(*(f"g{h + 1}" for h in range(values.shape[0])))
    return ExpenditureMatrix(groups=groups, items=items, values=values, basis=basis)



def _bits(value):
    """The bytes of a float or float array, so that equal means equal to the bit (0.0 and -0.0 differ)."""
    return np.asarray(value, dtype=float).tobytes()


def _reference_rows(expenditure, delta, category_map):
    """The category report computed group by group, as a loop over each group's row."""
    categories = category_map.categories
    agg = np.zeros((len(categories), len(expenditure.items)))
    for j, code in enumerate(expenditure.items):
        agg[categories.index(category_map.category_of(code)), j] = 1.0
    base = expenditure.values @ agg.T
    post = (expenditure.values + delta) @ agg.T
    rows = []
    for h in range(len(expenditure.groups)):
        total_before, total_after = float(base[h].sum()), float(post[h].sum())
        base_share = 100.0 * base[h] / total_before
        post_share = 100.0 * post[h] / total_after
        with np.errstate(divide="ignore", invalid="ignore"):
            pct = np.where(base[h] != 0, 100.0 * (post[h] - base[h]) / base[h], 0.0)
        total_pct = 100.0 * (total_after - total_before) / total_before
        rows.append((base_share, post_share, post_share - base_share, pct, total_before, total_after, total_pct))
    return rows

class TestExpenditureMatrixChecks:
    @pytest.mark.parametrize(
        "groups, items, values, message",
        [
            (_groups("g1", "g1"), ("a",), [[1.0], [2.0]], "duplicate group ids: g1"),
            (_groups("g1"), ("a", "a"), [[1.0, 2.0]], "duplicate item codes in expenditure matrix"),
            (_groups("g1"), ("a", "b"), [[3.0, -1.0]], "expenditure values must be nonnegative"),
        ],
        ids=["duplicate-groups", "duplicate-items", "negative-value"],
    )
    def test_constructor_refuses(self, groups, items, values, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            _matrix(values, items=items, groups=groups)


class TestExpenditureChange:
    def test_flat_prices_no_change(self):
        matrix = _matrix([[100.0, 50.0], [10.0, 20.0]])
        np.testing.assert_array_equal(
            expenditure_change(matrix, np.ones(2)), np.zeros((2, 2))
        )

    def test_hand_computed_row(self):
        matrix = _matrix([[100.0, 200.0, 300.0]])
        dp = np.array([0.9204, 0.9146, 0.9980])
        delta = expenditure_change(matrix, dp)
        np.testing.assert_allclose(delta[0], [-7.96, -17.08, -0.60], atol=1e-10)
        assert delta.sum() == pytest.approx(-25.64)
        assert 100 * delta.sum() / 600 == pytest.approx(-4.2733, abs=1e-3)

    def test_linear_in_expenditure(self):
        base = _matrix([[100.0, 200.0, 300.0]])
        doubled = _matrix([[200.0, 400.0, 600.0]])
        dp = np.array([0.92, 1.05, 0.99])
        np.testing.assert_allclose(
            expenditure_change(doubled, dp), 2.0 * expenditure_change(base, dp), atol=1e-12
        )

    def test_item_basis_rejected(self):
        matrix = _matrix([[1.0, 2.0]], basis=ExpenditureBasis.ITEM_CODES)
        with pytest.raises(BasisMismatch):
            expenditure_change(matrix, np.ones(2))

    def test_length_mismatch_rejected(self):
        matrix = _matrix([[1.0, 2.0]])
        with pytest.raises(DimensionMismatch, match=r"^price vector length \(3,\) does not match 2 sectors$"):
            expenditure_change(matrix, np.ones(3))

    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_item_prices_of_another_length_rejected(self, length):
        # one price per item: a lone price would broadcast, two raise numpy's own error
        matrix = _matrix([[1.0, 2.0, 3.0]], basis=ExpenditureBasis.ITEM_CODES)
        message = rf"^price vector length \({length},\) does not match 3 items$"
        with pytest.raises(DimensionMismatch, match=message):
            expenditure_change_on_items(matrix, np.full(length, 1.1))


class TestCategoryReport:
    def test_equal_spending_uniform_prices(self):
        matrix = _matrix([[50.0, 50.0]], items=("a", "b"))
        cmap = CategoryMap(categories=("c1", "c2"), assignments={"a": "c1", "b": "c2"})
        delta = expenditure_change(matrix, np.array([0.95, 0.95]))
        report = category_report(matrix, delta, cmap)
        np.testing.assert_allclose(report.base_share, [[50.0, 50.0]], atol=1e-12)
        np.testing.assert_allclose(report.share_change, [[0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(report.total_pct_change, [-5.0])

    def test_share_identities_on_synthetic_fixture(self):
        matrix = _matrix([[120.0, 40.0, 240.0], [10.0, 300.0, 55.0]])
        cmap = CategoryMap(
            categories=("food", "other"),
            assignments={"s1": "food", "s2": "other", "s3": "other"},
        )
        dp = np.array([0.9204, 0.9146, 0.9980])
        report = category_report(matrix, expenditure_change(matrix, dp), cmap)
        np.testing.assert_allclose(report.base_share.sum(axis=1), 100.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(report.post_share.sum(axis=1), 100.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(report.share_change.sum(axis=1), 0.0, atol=1e-9)
        for h, spend in enumerate(matrix.values):
            # brute-force recomputation straight from the matrix
            base_food = spend[0]
            post = dp * spend
            assert report.base_share[h, 0] == pytest.approx(100 * base_food / spend.sum())
            assert report.post_share[h, 0] == pytest.approx(100 * post[0] / post.sum())
            assert report.pct_change[h, 0] == pytest.approx(100 * (post[0] - base_food) / base_food)

    def test_single_category_group_is_inert(self):
        matrix = _matrix([[75.0, 25.0]], items=("a", "b"))
        cmap = CategoryMap(categories=("all",), assignments={"a": "all", "b": "all"})
        delta = expenditure_change(matrix, np.array([0.8, 1.3]))
        report = category_report(matrix, delta, cmap)
        assert report.base_share[0, 0] == pytest.approx(100.0)
        assert report.post_share[0, 0] == pytest.approx(100.0)
        assert report.share_change[0, 0] == pytest.approx(0.0)

    def test_unmapped_code_listed(self):
        matrix = _matrix([[1.0, 2.0]], items=("a", "b"))
        cmap = CategoryMap(categories=("c1",), assignments={"a": "c1"})
        with pytest.raises(UnmappedItem, match="b"):
            category_report(matrix, np.zeros((1, 2)), cmap)

    def test_empty_group_rejected_at_construction(self):
        with pytest.raises(EmptyGroup, match="g2"):
            _matrix([[1.0, 2.0], [0.0, 0.0]])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_every_field_is_the_group_by_group_arithmetic_to_the_bit(self, groups, items, categories, seed):
        # zero cells make zero category cells (the pct = 0 branch); 8 or more
        # categories reach numpy's unrolled summation of a row
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1000.0, size=(groups, items)) * (rng.random((groups, items)) < 0.6)
        values[:, 0] += 1.0  # no empty group
        matrix = _matrix(values)
        names = tuple(f"c{k}" for k in range(categories))
        cmap = CategoryMap(categories=names, assignments={s: names[rng.integers(categories)] for s in matrix.items})
        delta = expenditure_change(matrix, rng.uniform(0.5, 1.5, size=items))
        report = category_report(matrix, delta, cmap)
        assert report.categories == names
        arrays = [getattr(report, spec.name) for spec in fields(report)[1:]]  # every field after categories
        assert [array.shape for array in arrays] == [(groups, categories)] * 4 + [(groups,)] * 3
        assert not any(array.flags.writeable for array in arrays)
        # column k of the reference rows is array k, group by group
        for array, expected in zip(arrays, zip(*_reference_rows(matrix, delta, cmap))):
            assert _bits(array) == _bits(np.array(expected))

    def test_overflowing_group_total_rejected_at_construction(self):
        # every cell is finite, their sum is not; the check itself does not warn
        with pytest.raises(DimensionMismatch, match="group totals must be finite"):
            _matrix([[1.0, 2.0], [1e308, 1e308]])


class TestPurchasingPowerChange:
    def test_printed_ethnic_row(self):
        assert purchasing_power_change(2046, 2153) == pytest.approx(5.23, abs=0.005)

    def test_no_change(self):
        assert purchasing_power_change(100, 100) == 0.0

    def test_printed_income_row(self):
        assert purchasing_power_change(692, 730) == pytest.approx(5.49, abs=0.005)

    def test_nonpositive_base_rejected(self):
        with pytest.raises(NonPositiveBase):
            purchasing_power_change(0.0, 10.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
    def test_arrays_are_the_scalar_calls_to_the_bit(self, size, seed):
        rng = np.random.default_rng(seed)
        before = rng.uniform(1e-3, 1e4, size=size)
        after = before * rng.uniform(0.5, 1.5, size=size)
        expected = [purchasing_power_change(b, a) for b, a in zip(before.tolist(), after.tolist())]
        assert _bits(purchasing_power_change(before, after)) == _bits(expected)
        for bad in (0.0, -before[0]):
            spoiled = before.copy()
            spoiled[rng.integers(size)] = bad
            with pytest.raises(NonPositiveBase, match=f"got {bad}"):
                purchasing_power_change(spoiled, after)


class TestGapRatios:
    def test_ethnic_base_ratios(self):
        ratios = gap_ratios(ETHNIC_BEFORE, "bumiputera")
        assert ratios["bumiputera"] == 1.0
        assert ratios["cina"] == pytest.approx(1.356, abs=0.0005)

    def test_ethnic_post_ratios(self):
        ratios = gap_ratios(ETHNIC_AFTER, "bumiputera")
        assert ratios["cina"] == pytest.approx(1.354, abs=0.0005)

    def test_income_extreme_ratio(self):
        assert gap_ratios(INCOME_BEFORE, "lt1000")["gt5000"] == pytest.approx(10.863, abs=0.0005)

    def test_unknown_base_group(self):
        with pytest.raises(UnknownBaseGroup):
            gap_ratios(ETHNIC_BEFORE, "nope")


class TestGapChangeReport:
    def test_printed_ethnic_gap_narrows(self):
        change = gap_change_report({"cina": 1.356}, {"cina": 1.354})
        assert change["cina"] == pytest.approx(-0.15, abs=0.01)

    def test_printed_income_gap_narrows(self):
        change = gap_change_report({"gt5000": 10.863}, {"gt5000": 10.811})
        assert change["gt5000"] == pytest.approx(-0.48, abs=0.01)

    def test_identical_ratios_no_change(self):
        change = gap_change_report({"a": 1.2, "b": 2.0}, {"a": 1.2, "b": 2.0})
        assert change == {"a": 0.0, "b": 0.0}

    def test_misaligned_groups_rejected(self):
        with pytest.raises(DimensionMismatch):
            gap_change_report({"a": 1.0}, {"b": 1.0})

    @pytest.mark.parametrize("ratio", [0.0, -1.0])
    def test_nonpositive_base_ratio_names_the_group(self, ratio):
        with pytest.raises(NonPositiveBase, match=f"group 'b' has non-positive base ratio {ratio}"):
            gap_change_report({"a": 1.0, "b": ratio}, {"a": 1.0, "b": 1.0})


class TestScaleInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=1000.0),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_common_scaling_leaves_relative_reports_unchanged(self, scale, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(1.0, 100.0, size=(3, 4))
        dp = rng.uniform(0.8, 1.2, size=4)
        cmap = CategoryMap(
            categories=("x", "y"),
            assignments={"s1": "x", "s2": "x", "s3": "y", "s4": "y"},
        )
        base = _matrix(values)
        scaled = _matrix(values * scale)
        rep1 = category_report(base, expenditure_change(base, dp), cmap)
        rep2 = category_report(scaled, expenditure_change(scaled, dp), cmap)
        np.testing.assert_allclose(rep1.base_share, rep2.base_share, rtol=1e-9)
        np.testing.assert_allclose(rep1.share_change, rep2.share_change, atol=1e-9)
        np.testing.assert_allclose(rep1.total_pct_change, rep2.total_pct_change, rtol=1e-9)
        totals1 = {g: float(v) for g, v in zip(base.group_ids, base.totals())}
        totals2 = {g: float(v) for g, v in zip(scaled.group_ids, scaled.totals())}
        r1 = gap_ratios(totals1, "g1")
        r2 = gap_ratios(totals2, "g1")
        for g in r1:
            assert r1[g] == pytest.approx(r2[g], rel=1e-9)

    def test_flat_prices_zero_everywhere(self):
        matrix = _matrix([[10.0, 20.0], [30.0, 5.0]])
        delta = expenditure_change(matrix, np.ones(2))
        cmap = CategoryMap(categories=("c",), assignments={"s1": "c", "s2": "c"})
        report = category_report(matrix, delta, cmap)
        np.testing.assert_array_equal(report.share_change, np.zeros((2, 1)))
        np.testing.assert_array_equal(report.total_pct_change, np.zeros(2))
        totals = {g: float(v) for g, v in zip(matrix.group_ids, matrix.totals())}
        before = gap_ratios(totals, "g1")
        after = gap_ratios({g: t + float(d) for (g, t), d in zip(totals.items(), delta.sum(axis=1))}, "g1")
        assert gap_change_report(before, after) == {"g1": 0.0, "g2": 0.0}
