"""Tests for the masked cost-push price model against printed and oracle values."""

import copy
import gc
import pickle
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gstio import (
    CoefficientBundle,
    DimensionMismatch,
    InvalidSchedule,
    MaskedInputTreatment,
    NonProductive,
    RateCategory,
    RateSchedule,
    SectorSet,
    baseline_prices,
    gst_coefficients,
    leontief_inverse,
    masked_inverse,
    price_change_summary,
    price_path,
    productivity_check,
    simulate_prices,
)
from gstio.io_model import _LiveBlock
from gstio.price_model import _kept_terms, release_mask_terms

# Frozen from the fixed-point oracle on the worked three-sector example
# (Agr zero-rated, 6% on value added, masked inputs dropped).
EXPECTED_DP_DROP = np.array([0.920366, 0.914612, 0.997991])


class TestBaselinePrices:
    def test_appendix_fixture_normalizes_to_one(self, appendix_bundle):
        np.testing.assert_allclose(baseline_prices(appendix_bundle), 1.0, atol=1e-9)

    def test_no_intermediates_unit_costs(self):
        sectors = SectorSet.from_ids(("a", "b"))
        bundle = CoefficientBundle(
            sectors=sectors,
            A=np.zeros((2, 2)),
            labor=np.array([0.4, 0.1]),
            capital=np.array([0.3, 0.5]),
            imports=np.array([0.2, 0.3]),
            indirect_tax=np.array([0.1, 0.1]),
        )
        np.testing.assert_allclose(baseline_prices(bundle), np.ones(2), atol=1e-15)

    def test_tax_bump_matches_fixed_point_and_orders_prices(self):
        tax = helpers.APPENDIX_TAX.copy()
        tax[1] += 0.05
        bundle = CoefficientBundle(
            sectors=helpers.APPENDIX_SECTORS,
            A=helpers.APPENDIX_AT.T,
            labor=np.zeros(3),
            capital=helpers.APPENDIX_VALUE_ADDED,
            imports=helpers.APPENDIX_IMPORTS,
            indirect_tax=tax,
        )
        p = baseline_prices(bundle)
        costs = bundle.value_added + bundle.imports + tax
        expected = helpers.fixed_point_prices(bundle.A.T, costs)
        np.testing.assert_allclose(p, expected, atol=1e-10)
        assert np.all(p >= 1.0 - 1e-12)
        assert p[1] > p[0] and p[1] > p[2]

    def test_nonproductive_bundle_raises(self):
        for A in (np.array([[1.0]]), helpers.BIPARTITE_A):
            n = len(A)
            sectors = SectorSet.from_ids(tuple("abc"[:n]))
            bundle = CoefficientBundle(
                sectors=sectors,
                A=A,
                labor=np.zeros(n),
                capital=np.zeros(n),
                imports=np.zeros(n),
                indirect_tax=np.zeros(n),
            )
            with pytest.raises(NonProductive):
                baseline_prices(bundle)
            with pytest.raises(NonProductive):
                simulate_prices(bundle, RateSchedule.uniform_standard(sectors, 0.06))
            with pytest.raises(NonProductive):
                masked_inverse(A, np.ones(n))


class TestRateScheduleChecks:
    @pytest.mark.parametrize(
        "categories, shares, error, message",
        [
            ((RateCategory.STANDARD_RATED,) * 2, [1.0, 1.0, 1.0], DimensionMismatch, "need 3 categories, got 2"),
            (
                (RateCategory.STANDARD_RATED,) * 2 + ("standard",),
                [1.0, 1.0, 1.0],
                InvalidSchedule,
                "categories must be RateCategory members",
            ),
            ((RateCategory.STANDARD_RATED,) * 3, [1.0, 1.5, 1.0], InvalidSchedule, r"standard_share entries .*"),
            ((RateCategory.STANDARD_RATED,) * 3, [1.0, -0.1, 1.0], InvalidSchedule, r"standard_share entries .*"),
        ],
        ids=["category-count", "not-a-category", "share-above-1", "share-below-0"],
    )
    def test_constructor_refuses(self, categories, shares, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            RateSchedule(helpers.APPENDIX_SECTORS, categories, np.array(shares), 0.06)


class TestMaskedInverse:
    def test_appendix_zero_mask_matches_print(self):
        inverse = masked_inverse(helpers.APPENDIX_AT.T, np.array([0.0, 1.0, 1.0]))
        np.testing.assert_allclose(inverse, helpers.APPENDIX_INVERSE_ZERO, atol=0.02)

    def test_appendix_half_mask_matches_print(self):
        inverse = masked_inverse(helpers.APPENDIX_AT.T, np.array([0.5, 1.0, 1.0]))
        np.testing.assert_allclose(inverse, helpers.APPENDIX_INVERSE_HALF, atol=0.02)

    def test_matches_power_series_oracle(self):
        masked = helpers.APPENDIX_AT * np.array([0.0, 1.0, 1.0])
        expected = helpers.power_series_inverse(masked)
        inverse = masked_inverse(helpers.APPENDIX_AT.T, np.array([0.0, 1.0, 1.0]))
        np.testing.assert_allclose(inverse, expected, atol=1e-10)

    def test_zero_mask_gives_identity(self):
        np.testing.assert_array_equal(
            masked_inverse(helpers.APPENDIX_AT.T, np.zeros(3)), np.eye(3)
        )

    def test_identity_mask_equals_plain_leontief_inverse_of_transpose(self, appendix_bundle):
        via_mask = masked_inverse(appendix_bundle.A, np.ones(3))
        direct = leontief_inverse(appendix_bundle.A.T)
        np.testing.assert_allclose(via_mask, direct, atol=1e-12)

    def test_masked_sector_column_is_unit_column(self):
        rng = np.random.default_rng(5)
        bundle, schedule = helpers.random_bundle_and_schedule(rng, 6)
        shares = schedule.standard_share.copy()
        shares[2] = 0.0
        inverse = masked_inverse(bundle.A, shares)
        np.testing.assert_array_equal(inverse[:, 2], np.eye(6)[:, 2])

    def test_masked_sector_costs_do_not_propagate(self):
        # the unit column means nobody passes a masked sector's costs
        # through: bumping its imports moves its own price only
        base = helpers.appendix_bundle()
        bumped = CoefficientBundle(
            sectors=base.sectors,
            A=base.A,
            labor=base.labor,
            capital=base.capital,
            imports=base.imports + np.array([0.05, 0.0, 0.0]),
            indirect_tax=base.indirect_tax,
        )
        schedule = helpers.appendix_schedule(agr_share=0.0)
        dp_base = simulate_prices(base, schedule)
        dp_bumped = simulate_prices(bumped, schedule)
        assert dp_bumped[0] == pytest.approx(dp_base[0] + 0.05, abs=1e-12)
        np.testing.assert_array_equal(dp_bumped[1:], dp_base[1:])

    @pytest.mark.parametrize("mask", [np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])], ids=["diagonal", "full"])
    @pytest.mark.parametrize("call", [masked_inverse, productivity_check])
    def test_mask_matrix_rejected(self, call, mask):
        # a mask is the share vector, the diagonal of B̂, never B̂ itself
        with pytest.raises(DimensionMismatch, match=r"^mask must have 2 diagonal entries, got \(2, 2\)$"):
            call(np.zeros((2, 2)), mask)


class TestGstCoefficients:
    def test_all_standard_six_percent(self, appendix_bundle):
        schedule = RateSchedule.uniform_standard(appendix_bundle.sectors, 0.06)
        np.testing.assert_allclose(
            gst_coefficients(appendix_bundle, schedule),
            np.array([0.036, 0.0162, 0.0288]),
            atol=1e-12,
        )

    def test_zero_rate_gives_zero_row(self, appendix_bundle):
        schedule = RateSchedule.uniform_standard(appendix_bundle.sectors, 0.0)
        np.testing.assert_array_equal(gst_coefficients(appendix_bundle, schedule), np.zeros(3))

    def test_zero_rated_sector_untaxed(self, appendix_bundle, appendix_schedule):
        np.testing.assert_allclose(
            gst_coefficients(appendix_bundle, appendix_schedule),
            np.array([0.0, 0.0162, 0.0288]),
            atol=1e-12,
        )


class TestSimulatePrices:
    def test_appendix_drop_treatment(self, appendix_bundle, appendix_schedule):
        dp = simulate_prices(appendix_bundle, appendix_schedule)
        np.testing.assert_allclose(dp, EXPECTED_DP_DROP, atol=1e-3)
        masked = appendix_bundle.A.T * appendix_schedule.standard_share
        costs = (
            appendix_bundle.value_added
            + appendix_bundle.imports
            + gst_coefficients(appendix_bundle, appendix_schedule)
        )
        np.testing.assert_allclose(dp, helpers.fixed_point_prices(masked, costs), atol=1e-10)

    def test_reform_neutral_economy_reproduces_baseline_bitwise(self):
        # indirect tax already 6% of value added and everything standard:
        # the reform substitutes the identical tax row, so both code paths
        # must agree exactly
        value_added = helpers.APPENDIX_VALUE_ADDED
        bundle = CoefficientBundle(
            sectors=helpers.APPENDIX_SECTORS,
            A=helpers.APPENDIX_AT.T,
            labor=np.zeros(3),
            capital=value_added,
            imports=helpers.APPENDIX_IMPORTS,
            indirect_tax=0.06 * value_added,
        )
        schedule = RateSchedule.uniform_standard(bundle.sectors, 0.06)
        np.testing.assert_array_equal(
            simulate_prices(bundle, schedule), baseline_prices(bundle)
        )

    def test_baseline_treatment_dominates_drop_when_masked(
        self, appendix_bundle, appendix_schedule
    ):
        drop = simulate_prices(appendix_bundle, appendix_schedule)
        kept = simulate_prices(
            appendix_bundle,
            appendix_schedule,
            masked_input_treatment=MaskedInputTreatment.BASELINE,
        )
        assert np.all(kept >= drop - 1e-12)
        assert np.any(kept > drop + 1e-9)
        masked = appendix_bundle.A.T * appendix_schedule.standard_share
        costs = (
            appendix_bundle.value_added
            + appendix_bundle.imports
            + gst_coefficients(appendix_bundle, appendix_schedule)
            + appendix_bundle.A.T @ (1.0 - appendix_schedule.standard_share)
        )
        np.testing.assert_allclose(kept, helpers.fixed_point_prices(masked, costs), atol=1e-10)

    def test_treatments_agree_when_nothing_masked(self, appendix_bundle):
        schedule = RateSchedule.uniform_standard(appendix_bundle.sectors, 0.06)
        drop = simulate_prices(appendix_bundle, schedule)
        kept = simulate_prices(
            appendix_bundle, schedule, masked_input_treatment="baseline"
        )
        np.testing.assert_allclose(drop, kept, atol=1e-15)

    def test_exempt_default_matches_zero_rated_math(self, appendix_bundle):
        zero = helpers.appendix_schedule(agr_share=0.0)
        exempt = RateSchedule(
            sectors=appendix_bundle.sectors,
            categories=(
                RateCategory.EXEMPT,
                RateCategory.STANDARD_RATED,
                RateCategory.STANDARD_RATED,
            ),
            standard_share=np.array([0.0, 1.0, 1.0]),
            gst_rate=0.06,
        )
        np.testing.assert_array_equal(
            simulate_prices(appendix_bundle, zero),
            simulate_prices(appendix_bundle, exempt),
        )

    def test_exempt_retains_input_tax_raises_exempt_sector_price(self, appendix_bundle):
        exempt = RateSchedule(
            sectors=appendix_bundle.sectors,
            categories=(
                RateCategory.EXEMPT,
                RateCategory.STANDARD_RATED,
                RateCategory.STANDARD_RATED,
            ),
            standard_share=np.array([0.0, 1.0, 1.0]),
            gst_rate=0.06,
        )
        plain = simulate_prices(appendix_bundle, exempt)
        sticky = simulate_prices(appendix_bundle, exempt, exempt_retains_input_tax=True)
        # unrecoverable input tax loads only the exempt sector's own costs
        # here, because nothing feeds back into a fully masked column
        assert sticky[0] > plain[0]
        expected_extra = 0.06 * (helpers.APPENDIX_AT[0] * np.array([0.0, 1.0, 1.0])).sum()
        assert sticky[0] - plain[0] == pytest.approx(expected_extra, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=0.001, max_value=0.1),
    )
    def test_raising_the_rate_never_lowers_prices(self, seed, bump):
        rng = np.random.default_rng(seed)
        bundle, schedule = helpers.random_bundle_and_schedule(rng, 5)
        lower = simulate_prices(bundle, schedule)
        raised = RateSchedule(
            sectors=schedule.sectors,
            categories=schedule.categories,
            standard_share=schedule.standard_share,
            gst_rate=min(schedule.gst_rate + bump, 0.99),
        )
        higher = simulate_prices(bundle, raised)
        assert np.all(higher >= lower - 1e-12)
        taxed = (schedule.standard_share > 0) & (bundle.value_added > 0)
        assert np.all(higher[taxed] > lower[taxed])

    def test_masked_solve_allocates_less_than_one_n_by_n_array(self):
        # the kernel reads A'B̂ from A and the mask and gathers only its live columns
        n = 400
        rng = np.random.default_rng(3)
        bundle, schedule = helpers.random_bundle_and_schedule(rng, n)
        shares = rng.uniform(0.5, 1.0, size=n)
        shares[rng.permutation(n)[: n // 2]] = 0.0
        schedule = replace(schedule, standard_share=shares)
        tracemalloc.start()
        try:
            simulate_prices(bundle, schedule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * np.dtype(float).itemsize


class TestPricePath:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=2**31),
        st.lists(st.floats(min_value=0.0, max_value=0.99), min_size=1, max_size=6),
        st.sampled_from(list(MaskedInputTreatment)),
        st.booleans(),
    )
    def test_rows_equal_per_rate_simulate_prices_bitwise(self, n, seed, rates, treatment, exempt_option):
        rng = np.random.default_rng(seed)
        bundle, schedule = helpers.random_bundle_and_schedule(rng, n)
        # relabel some not fully standard sectors exempt, for the exempt option
        categories = tuple(
            RateCategory.EXEMPT if share < 1.0 and rng.random() < 0.5 else category
            for share, category in zip(schedule.standard_share, schedule.categories)
        )
        schedule = replace(schedule, categories=categories)
        options = dict(masked_input_treatment=treatment, exempt_retains_input_tax=exempt_option)
        path = price_path(bundle, schedule, rates, **options)
        assert path.shape == (len(rates), n)
        for rate, row in zip(rates, path):
            expected = simulate_prices(bundle, replace(schedule, gst_rate=rate), **options)
            np.testing.assert_array_equal(row, expected)

    def test_rows_match_per_rate_simulate_prices_on_a_large_system(self):
        # a live block of 555 sectors and 26 stacked columns, enough for
        # single-threaded OpenBLAS to round some columns by their place
        rng = np.random.default_rng(18)
        bundle, _ = helpers.random_bundle_and_schedule(rng, 600)
        n = bundle.n
        schedule = RateSchedule(
            sectors=bundle.sectors,
            categories=tuple(
                RateCategory.EXEMPT if u < 0.3 else RateCategory.STANDARD_RATED for u in rng.random(n)
            ),
            standard_share=np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.5, 1.0, n)),
            gst_rate=0.06,
        )
        rates = np.linspace(0.0, 0.3, 25)
        options = dict(masked_input_treatment="baseline", exempt_retains_input_tax=True)
        path = price_path(bundle, schedule, rates, **options)
        for rate, row in zip(rates, path):
            expected = simulate_prices(bundle, replace(schedule, gst_rate=rate), **options)
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=0)

    def test_schedule_rate_is_not_used(self, appendix_bundle, appendix_schedule):
        path = price_path(appendix_bundle, replace(appendix_schedule, gst_rate=0.5), [0.06])
        np.testing.assert_array_equal(path[0], simulate_prices(appendix_bundle, appendix_schedule))

    @pytest.mark.parametrize("rates", [[0.1, 1.0], [-0.01], [float("nan")], [0.05, 1.5]])
    def test_out_of_range_rate_rejected(self, appendix_bundle, appendix_schedule, rates):
        with pytest.raises(InvalidSchedule, match=r"gst_rate must lie in \[0, 1\)"):
            price_path(appendix_bundle, appendix_schedule, rates)


@pytest.fixture()
def live_block_builds(monkeypatch):
    """The (C, m) each _LiveBlock is built from, in order, while the test runs."""
    built = []
    init = _LiveBlock.__init__

    def counting(self, C, m):
        built.append((C, m))
        init(self, C, m)

    monkeypatch.setattr(_LiveBlock, "__init__", counting)
    return built


def _relabel_exempt(schedule, rng):
    """``schedule`` with a random half of its not fully standard sectors labeled EXEMPT."""
    categories = tuple(
        RateCategory.EXEMPT if share < 1.0 and rng.random() < 0.5 else RateCategory.ZERO_RATED
        for share in schedule.standard_share
    )
    return replace(schedule, categories=categories)


class TestMaskMemo:
    """A bundle keeps its most recent mask's live block; no result depends on it."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
    def test_cycled_masks_match_fresh_bundles_bitwise(self, n, seed):
        rng = np.random.default_rng(seed)
        bundle, first = helpers.random_bundle_and_schedule(rng, n)
        first = _relabel_exempt(first, rng)
        # first's shares but one, and a rate of its own
        shares = first.standard_share.copy()
        shares[rng.integers(n)] = rng.uniform(0.0, 1.0)
        second = replace(first, standard_share=shares, gst_rate=0.1)
        # first's shares under other exempt labels: a hit only without the exempt option
        relabeled = _relabel_exempt(first, rng)
        for treatment in MaskedInputTreatment:
            for exempt_option in (False, True):
                options = dict(masked_input_treatment=treatment, exempt_retains_input_tax=exempt_option)
                for schedule in (first, second, first, relabeled, first):
                    fresh = replace(bundle)
                    np.testing.assert_array_equal(
                        simulate_prices(bundle, schedule, **options), simulate_prices(fresh, schedule, **options)
                    )
                    rates = [0.0, schedule.gst_rate, 0.3]
                    np.testing.assert_array_equal(
                        price_path(bundle, schedule, rates, **options), price_path(fresh, schedule, rates, **options)
                    )

    def test_non_productive_mask_is_not_kept(self, live_block_builds):
        # A' is bipartite with radius 1 under the full mask, and 0.5**0.5 under half of one column
        bundle = CoefficientBundle(
            sectors=SectorSet.from_ids(("a", "b")),
            A=np.array([[0.0, 1.0], [1.0, 0.0]]),
            labor=np.zeros(2),
            capital=np.zeros(2),
            imports=np.array([0.5, 0.5]),
            indirect_tax=np.zeros(2),
        )
        full = RateSchedule.uniform_standard(bundle.sectors, 0.06)
        half = replace(full, standard_share=np.array([0.5, 1.0]))
        expected = simulate_prices(replace(bundle), half)
        for builds in (2, 3):
            with pytest.raises(NonProductive):
                simulate_prices(bundle, full)
            assert len(live_block_builds) == builds
        np.testing.assert_array_equal(simulate_prices(bundle, half), expected)
        with pytest.raises(NonProductive):
            simulate_prices(bundle, full)
        np.testing.assert_array_equal(simulate_prices(bundle, half), expected)
        # the last call reuses the block the failure before it left in place
        assert len(live_block_builds) == 5

    def test_released_terms_are_built_anew(self, live_block_builds, appendix_bundle, appendix_schedule):
        expected = simulate_prices(appendix_bundle, appendix_schedule)
        release_mask_terms(appendix_bundle)
        assert appendix_bundle not in _kept_terms
        release_mask_terms(appendix_bundle)  # nothing kept: nothing to drop
        np.testing.assert_array_equal(simulate_prices(appendix_bundle, appendix_schedule), expected)
        assert len(live_block_builds) == 2

    def test_a_solved_bundle_pickles_at_its_own_size(self, appendix_bundle, appendix_schedule):
        size = len(pickle.dumps(appendix_bundle))
        simulate_prices(appendix_bundle, appendix_schedule)
        assert len(pickle.dumps(appendix_bundle)) == size

    def test_a_copy_builds_its_own_live_block(self, live_block_builds, appendix_bundle, appendix_schedule):
        expected = simulate_prices(appendix_bundle, appendix_schedule)
        twin = copy.copy(appendix_bundle)
        np.testing.assert_array_equal(simulate_prices(twin, appendix_schedule), expected)
        assert len(live_block_builds) == 2
        # each keeps its own: neither builds again
        for bundle in (appendix_bundle, twin):
            np.testing.assert_array_equal(simulate_prices(bundle, appendix_schedule), expected)
        assert len(live_block_builds) == 2

    def test_kept_terms_go_with_their_bundle(self, appendix_schedule):
        bundle = helpers.appendix_bundle()
        simulate_prices(bundle, appendix_schedule)
        block = weakref.ref(_kept_terms[bundle].system)
        del bundle
        gc.collect()
        assert block() is None

    def test_checks_precede_the_lookup(self, appendix_bundle, appendix_schedule):
        simulate_prices(appendix_bundle, appendix_schedule)
        other = replace(appendix_schedule, sectors=SectorSet.from_ids(("x", "y", "z")))
        with pytest.raises(DimensionMismatch, match="different sector sets"):
            simulate_prices(appendix_bundle, other)
        with pytest.raises(InvalidSchedule):
            price_path(appendix_bundle, appendix_schedule, [0.06, 1.0])

    def test_threads_sharing_a_bundle_get_the_fresh_bundle_bits(self):
        rng = np.random.default_rng(7)
        bundle, schedule = helpers.random_bundle_and_schedule(rng, 40)
        masks = [schedule, replace(schedule, standard_share=rng.uniform(0.0, 1.0, 40))]
        expected = [simulate_prices(replace(bundle), mask) for mask in masks]
        mismatches = []

        def sweep(first):
            try:
                for k in range(60):
                    j = (first + k) % 2
                    if not np.array_equal(simulate_prices(bundle, masks[j]), expected[j]):
                        mismatches.append(j)
            except Exception as exc:  # a thread's error would otherwise only be printed
                mismatches.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_a_rate_sweep_builds_one_live_block_per_mask(self, live_block_builds):
        rng = np.random.default_rng(4)
        bundle, schedule = helpers.random_bundle_and_schedule(rng, 30)
        masks = [schedule, *(replace(schedule, standard_share=rng.uniform(0.0, 1.0, 30)) for _ in range(3))]
        for mask in masks:
            for rate in np.linspace(0.0, 0.2, 25):
                simulate_prices(bundle, replace(mask, gst_rate=float(rate)))
        assert len(live_block_builds) == 4


def _kept_bytes(array: np.ndarray) -> int:
    """The bytes ``array`` keeps alive: its own, or those of the array it views."""
    while array.base is not None:
        array = array.base
    return array.nbytes


class TestSolvedArraysOwnTheirNumbers:
    """What the kernel returns holds its own numbers, not the certificate column beside them."""

    def test_price_vectors(self, appendix_bundle, appendix_schedule):
        for prices in (
            simulate_prices(appendix_bundle, appendix_schedule),
            baseline_prices(appendix_bundle),
            masked_inverse(appendix_bundle.A, appendix_schedule.standard_share),
            leontief_inverse(appendix_bundle.A),
            _LiveBlock(appendix_bundle.A, appendix_schedule.standard_share).solve(np.ones((3, 2))),
        ):
            assert prices.flags.c_contiguous and _kept_bytes(prices) == prices.nbytes

    def test_price_path(self, appendix_bundle, appendix_schedule):
        path = price_path(appendix_bundle, appendix_schedule, [0.0, 0.06, 0.1])
        assert path.shape == (3, 3) and _kept_bytes(path) == path.nbytes


class TestPriceChangeSummary:
    def test_one_riser_one_decliner(self):
        summary = price_change_summary(np.array([1.02, 0.98]))
        assert summary.riser_count == 1
        assert summary.riser_mean == pytest.approx(2.0)
        assert summary.decliner_count == 1
        assert summary.decliner_mean == pytest.approx(2.0)
        assert summary.net_decline == pytest.approx(0.0)

    def test_appendix_scenario_all_decline(self, appendix_bundle, appendix_schedule):
        dp = simulate_prices(appendix_bundle, appendix_schedule)
        summary = price_change_summary(dp)
        assert summary.riser_count == 0
        assert summary.decliner_count == 3
        assert summary.decliner_mean == pytest.approx(5.5677, abs=1e-3)
        assert summary.net_decline == pytest.approx(summary.decliner_mean)

    def test_flat_prices_empty_sets(self):
        summary = price_change_summary(np.ones(4))
        assert summary.riser_count == 0
        assert summary.decliner_count == 0
        assert summary.riser_mean == 0.0
        assert summary.decliner_mean == 0.0
        assert summary.net_decline == 0.0
        np.testing.assert_array_equal(summary.pct_change, np.zeros(4))

    @pytest.mark.parametrize(
        "output", [[0.0, 0.0], [1.0, -1.0], [2.0, -0.5], [np.nan, 1.0], [np.inf, 1.0], [1e308, 1e308]]
    )
    def test_bad_output_weights_refused(self, output):
        # the last weights are finite, but their sum passes the float maximum: refused without a numpy warning
        with pytest.raises(DimensionMismatch, match="output weights must be finite and nonnegative"):
            price_change_summary(np.array([1.1, 0.9]), output=np.array(output))

    # one product passes the float maximum; two of opposite sign make the sum inf − inf
    @pytest.mark.parametrize("prices", [[1.5, 1.0], [1.5, 0.5]], ids=["inf", "inf - inf"])
    def test_overflowing_weighted_mean_refused(self, prices):
        with pytest.raises(DimensionMismatch, match="^the output-weighted mean price change overflows"):
            price_change_summary(np.array(prices), output=np.array([1e307, 1e307]))
        # below the float maximum the same weights give the same mean as ever
        summary = price_change_summary(np.array([1.1, 1.0]), output=np.array([1e307, 1e307]))
        assert summary.weighted_mean == (1e307 * ((1.1 - 1.0) * 100.0)) / 2e307

    def test_empty_price_vector_refused(self):
        with pytest.raises(DimensionMismatch, match=r"1-D and nonempty, got shape \(0,\)"):
            price_change_summary(np.ones(0))

    def test_output_weighting(self):
        summary = price_change_summary(np.array([1.10, 0.90]), output=np.array([3.0, 1.0]))
        assert summary.weighted_mean == pytest.approx((3 * 10 + 1 * -10) / 4)
        unweighted = price_change_summary(np.array([1.10, 0.90]))
        assert unweighted.weighted_mean == pytest.approx(0.0)
