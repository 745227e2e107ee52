"""Tests for the flow-table model, coefficient derivation and the Leontief inverse."""

import gc
import pickle
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
    GstioError,
    IOTable,
    NonProductive,
    SectorSet,
    Unbalanced,
    ZeroOutput,
    balance_report,
    derive_coefficients,
    leontief_inverse,
    baseline_prices,
    masked_inverse,
    productivity_check,
    simulate_prices,
    spectral_radius,
)
from gstio import io_model
from gstio.io_model import PRODUCTIVITY_EPSILON, _column_ends, _LiveBlock, _row_extremes


class TestSectorSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DimensionMismatch, match="duplicate"):
            SectorSet(ids=("a", "a"), names=("x", "y"))
        with pytest.raises(DimensionMismatch, match="duplicate sector ids: a, b$"):
            SectorSet.from_ids(("b", "a", "c", "b", "a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            SectorSet(ids=(), names=())

    def test_index_lookup(self):
        sectors = SectorSet.from_ids(("a", "b", "c"))
        assert sectors.index("b") == 1
        with pytest.raises(KeyError):
            sectors.index("zzz")
        assert "c" in sectors and "zzz" not in sectors
        assert sectors == SectorSet.from_ids(("a", "b", "c"))
        assert hash(sectors) == hash(SectorSet.from_ids(("a", "b", "c")))


class TestIOTableValidation:
    def test_zero_output_rejected(self):
        with pytest.raises(ZeroOutput, match="s2"):
            IOTable(
                sectors=SectorSet.from_ids(("s1", "s2")),
                Z=np.zeros((2, 2)),
                f=np.array([1.0, 0.0]),
                e=np.zeros(2),
                labor=np.array([1.0, 0.0]),
                capital=np.zeros(2),
                imports=np.zeros(2),
                indirect_tax=np.zeros(2),
                x=np.array([1.0, 0.0]),
            )

    def test_negative_flow_rejected(self):
        with pytest.raises(DimensionMismatch, match="negative"):
            IOTable(
                sectors=SectorSet.from_ids(("s1",)),
                Z=np.array([[-1.0]]),
                f=np.array([2.0]),
                e=np.zeros(1),
                labor=np.zeros(1),
                capital=np.zeros(1),
                imports=np.zeros(1),
                indirect_tax=np.zeros(1),
                x=np.array([1.0]),
            )

    def test_negative_final_demand_allowed(self):
        # inventory drawdowns make f negative in real tables
        table = IOTable(
            sectors=SectorSet.from_ids(("s1",)),
            Z=np.array([[1.5]]),
            f=np.array([-0.5]),
            e=np.zeros(1),
            labor=np.array([1.0]),
            capital=np.zeros(1),
            imports=np.zeros(1),
            indirect_tax=np.zeros(1),
            x=np.array([1.0]),
        )
        assert table.f[0] == -0.5


class TestDeriveCoefficients:
    def test_appendix_rows_recovered_exactly(self, appendix_table):
        bundle = derive_coefficients(appendix_table)
        np.testing.assert_array_equal(bundle.A.T, helpers.APPENDIX_AT)
        np.testing.assert_array_equal(bundle.indirect_tax, helpers.APPENDIX_TAX)
        np.testing.assert_array_equal(bundle.value_added, helpers.APPENDIX_VALUE_ADDED)
        np.testing.assert_array_equal(bundle.imports, helpers.APPENDIX_IMPORTS)

    def test_pure_labor_economy(self):
        x = np.array([3.0, 7.0])
        table = IOTable(
            sectors=SectorSet.from_ids(("s1", "s2")),
            Z=np.zeros((2, 2)),
            f=x,
            e=np.zeros(2),
            labor=x,
            capital=np.zeros(2),
            imports=np.zeros(2),
            indirect_tax=np.zeros(2),
            x=x,
        )
        bundle = derive_coefficients(table)
        np.testing.assert_array_equal(bundle.A, np.zeros((2, 2)))
        np.testing.assert_array_equal(bundle.labor, np.ones(2))

    def test_round_trip_recovers_generating_coefficients(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A, labor, capital, imports, tax = helpers.random_coefficients(rng, 5)
            x = rng.uniform(10.0, 1000.0, size=5)
            table = helpers.table_from_coefficients(A, labor, capital, imports, tax, x)
            bundle = derive_coefficients(table)
            np.testing.assert_allclose(bundle.A, A, atol=1e-12)
            np.testing.assert_allclose(bundle.labor, labor, atol=1e-12)
            np.testing.assert_allclose(bundle.indirect_tax, tax, atol=1e-12)

    def test_column_sums_are_one(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            table = helpers.random_balanced_table(rng, int(rng.integers(2, 9)))
            bundle = derive_coefficients(table)
            np.testing.assert_allclose(bundle.column_sums(), 1.0, atol=1e-9)

    def test_unbalanced_table_rejected_then_allowed(self, appendix_table):
        Z = appendix_table.Z.copy()
        Z[0, 0] += 10.0  # +10% of x[0]
        broken = IOTable(
            sectors=appendix_table.sectors,
            Z=Z,
            f=appendix_table.f,
            e=appendix_table.e,
            labor=appendix_table.labor,
            capital=appendix_table.capital,
            imports=appendix_table.imports,
            indirect_tax=appendix_table.indirect_tax,
            x=appendix_table.x,
        )
        with pytest.raises(Unbalanced):
            derive_coefficients(broken)
        bundle = derive_coefficients(broken, check_balance=False)
        assert bundle.A[0, 0] == pytest.approx(0.16)


def _bundle_with_edges(rng, n):
    """A random bundle and mask with zero shares, all-zero rows of A and entries of A in [−1e-12, 0)."""
    bundle, schedule = helpers.random_bundle_and_schedule(rng, n)
    A = bundle.A.copy()
    A[rng.random(n) < 0.3] = 0.0
    A[rng.random((n, n)) < 0.2] = -rng.choice([1e-12, 5e-13, 1e-300])
    return replace(bundle, A=A), schedule.standard_share


class TestBundleRowExtremes:
    """A bundle scans its A once, and every reader of that very array reuses the scan."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31))
    def test_column_ends_match_a_scan_of_a_copy_bitwise(self, n, seed):
        bundle, share = _bundle_with_edges(np.random.default_rng(seed), n)
        assert id(bundle.A) in _row_extremes
        for m in (share, np.ones(n), np.zeros(n)):
            stored, scanned = _column_ends(bundle.A, m), _column_ends(bundle.A.copy(), m)
            assert stored[0].tobytes() == scanned[0].tobytes()
            np.testing.assert_array_equal(stored[1], scanned[1])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31))
    def test_results_match_an_unpickled_bundle_bitwise(self, n, seed):
        # an unpickled bundle skips __post_init__: it keeps no extremes, and its writeable A is scanned
        rng = np.random.default_rng(seed)
        bundle, schedule = helpers.random_bundle_and_schedule(rng, n)
        unpickled = pickle.loads(pickle.dumps(bundle))
        assert unpickled.A.flags.writeable and id(unpickled.A) not in _row_extremes
        share = schedule.standard_share
        assert productivity_check(bundle.A, share) == productivity_check(unpickled.A, share)
        assert productivity_check(bundle.A) == productivity_check(unpickled.A)
        for own, scanned in (
            (simulate_prices(bundle, schedule), simulate_prices(unpickled, schedule)),
            (baseline_prices(bundle), baseline_prices(unpickled)),
            (masked_inverse(bundle.A, share), masked_inverse(unpickled.A, share)),
        ):
            assert own.tobytes() == scanned.tobytes()

    def test_extremes_live_as_long_as_the_bundles_a(self):
        bundle = helpers.appendix_bundle()  # not the fixture, which pytest holds until teardown
        key, alive = id(bundle.A), weakref.ref(bundle.A)
        At = helpers.APPENDIX_AT
        np.testing.assert_array_equal(_row_extremes[key], [At.min(axis=0), At.max(axis=0)])
        copied = replace(bundle)
        assert id(copied.A) != key and id(copied.A) in _row_extremes
        del bundle
        gc.collect()
        assert alive() is None and key not in _row_extremes
        assert id(copied.A) in _row_extremes

    def test_a_callers_array_is_judged_on_its_current_values(self):
        A = np.array([[0.2, 0.1], [0.1, 0.2]])
        mask = np.array([1.0, 0.5])
        assert productivity_check(A, mask).passed
        A *= 5.0
        assert not productivity_check(A, mask).passed
        A[0, 1] = -1e-3
        with pytest.raises(DimensionMismatch):
            productivity_check(A, mask)

    @pytest.mark.parametrize("entry", [1 + 2e-12, -2e-12])
    def test_a_just_outside_the_unit_interval_is_refused(self, appendix_bundle, entry):
        A = appendix_bundle.A.copy()
        A[1, 2] = entry
        with pytest.raises(DimensionMismatch, match=r"coefficients in A must lie in \[0, 1\]"):
            replace(appendix_bundle, A=A)
        A[1, 2] = 1 + 1e-12 if entry > 1 else -1e-12  # the tolerance's own ends pass
        replace(appendix_bundle, A=A)

    def test_gates_and_live_blocks_never_scan_a_bundles_a(self, monkeypatch):
        rng = np.random.default_rng(11)
        bundle, schedule = helpers.random_bundle_and_schedule(rng, 40)
        masks = [schedule.standard_share, *(np.where(rng.random(40) < 0.3, 0.0, rng.random(40)) for _ in range(3))]
        scans = []
        row_ends = io_model._row_ends
        monkeypatch.setattr(io_model, "_row_ends", lambda C: scans.append(C) or row_ends(C))
        for mask in masks:
            assert productivity_check(bundle.A, mask).passed
            _LiveBlock(bundle.A, mask).solve(np.ones(40))
        baseline_prices(bundle)
        assert scans == []
        productivity_check(bundle.A.copy(), masks[0])
        assert len(scans) == 1


class TestLeontiefInverse:
    def test_zero_matrix_gives_identity(self):
        np.testing.assert_array_equal(leontief_inverse(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_geometric_series(self):
        np.testing.assert_allclose(
            leontief_inverse(np.diag([0.5, 0.5])), np.diag([2.0, 2.0]), atol=1e-12
        )

    def test_matches_power_series_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            A = rng.uniform(0.0, 1.0, size=(6, 6))
            A *= rng.uniform(0.2, 0.8) / A.sum(axis=0).max()
            expected = helpers.power_series_inverse(A)
            np.testing.assert_allclose(leontief_inverse(A), expected, atol=1e-10)

    def test_dominates_identity_and_nonnegative(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            A = rng.uniform(0.0, 1.0, size=(5, 5))
            A *= 0.6 / A.sum(axis=0).max()
            L = leontief_inverse(A)
            assert np.all(L >= np.eye(5) - 1e-12)
            assert np.all(L >= -1e-12)

    def test_nonproductive_rejected(self):
        for A in (np.diag([1.0, 0.5]), np.array([[1.2]]), helpers.BIPARTITE_A.T, helpers.BIPARTITE_2X2):
            with pytest.raises(NonProductive):
                leontief_inverse(A)
        # the M-matrix certificate proves nothing for negative entries
        with pytest.raises(DimensionMismatch, match="nonnegative"):
            leontief_inverse(np.array([[-2.0]]))

    @pytest.mark.parametrize(
        "call",
        [
            leontief_inverse,
            lambda M: masked_inverse(M, np.ones(0)),
            spectral_radius,
            productivity_check,
        ],
        ids=["leontief_inverse", "masked_inverse", "spectral_radius", "productivity_check"],
    )
    def test_empty_matrix_is_a_dimension_mismatch(self, call):
        with pytest.raises(DimensionMismatch, match=r"got shape \(0, 0\)"):
            call(np.zeros((0, 0)))

    def test_inverse_times_system_is_identity(self, appendix_bundle):
        A = appendix_bundle.A
        L = leontief_inverse(A)
        np.testing.assert_allclose(L @ (np.eye(3) - A), np.eye(3), atol=1e-10)

    def test_recovers_gross_output_of_balanced_table(self):
        # the quantity model: x = L(f + e)
        rng = np.random.default_rng(47)
        for _ in range(5):
            table = helpers.random_balanced_table(rng, 6)
            L = leontief_inverse(derive_coefficients(table).A)
            np.testing.assert_allclose(L @ (table.f + table.e), table.x, rtol=1e-8)


def _productive(M) -> bool:
    """The dense-eigenvalue oracle for the solve kernel's verdict."""
    return float(np.abs(np.linalg.eigvals(M)).max()) < 1.0 - PRODUCTIVITY_EPSILON


def _verdict(M) -> bool:
    try:
        _LiveBlock(M.T, np.ones(len(M))).solve(np.empty((len(M), 0)))
    except NonProductive:
        return False
    return True


def _outcome(call):
    """The exception class ``call()`` raises, else the bytes and shape of what it returns."""
    try:
        result = np.asarray(call())
    except GstioError as exc:
        return type(exc)
    return result.tobytes(), result.shape


class TestReducedSolve:
    """The kernel factorises only the columns of M that hold a nonzero entry."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=2**31),
        st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -1e-3, -5e-13, 0.0]), max_size=3),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    def test_reading_c_and_m_matches_the_formed_product(self, n, seed, planted, negative_mask, zero_row, fortran):
        # M = Cᵀ diag(m) read from C and m, against M formed first: the same
        # exception class, or the same bits; DimensionMismatch iff an entry of
        # the formed M is below −1e-12, which a nan elsewhere must not hide
        rng = np.random.default_rng(seed)
        C = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.6)
        C *= rng.uniform(0.3, 1.7) / max(C.sum(axis=0).max(), 1e-3)
        if zero_row:
            C[rng.integers(n)] = 0.0
        for value in planted:
            C[rng.integers(n), rng.integers(n)] = value
        m = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.0, 1.0, size=n))
        if negative_mask:
            m[rng.integers(n)] = -rng.uniform(0.1, 1.0)
        if fortran:
            C = np.asfortranarray(C)
        rhs = rng.uniform(0.1, 1.0, size=(n, 2))
        with np.errstate(all="ignore"):  # 0 × inf, on both sides
            formed = C.T * m
            negative = bool(np.any(formed < -1e-12))
            for read, product in (
                (lambda: _LiveBlock(C, m).solve(rhs), lambda: _LiveBlock(formed.T, np.ones(n)).solve(rhs)),
                (lambda: masked_inverse(C, m), lambda: _LiveBlock(formed.T, np.ones(n)).solve(np.eye(n))),
                (lambda: productivity_check(C, m).passed, lambda: _verdict(formed)),
            ):
                outcome = _outcome(read)
                assert outcome == _outcome(product)
                assert (outcome is DimensionMismatch) == negative

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=0.3, max_value=1.7).filter(lambda t: abs(t - 1.0) > 1e-3),
        st.booleans(),
        st.integers(min_value=0, max_value=3),
    )
    def test_matches_full_solve_and_eigenvalue_verdict(self, n, seed, target_radius, bipartite, columns):
        rng = np.random.default_rng(seed)
        M = rng.uniform(0.0, 1.0, size=(n, n))
        if bipartite:
            k = int(rng.integers(0, n))
            M[:k, :k] = 0.0
            M[k:, k:] = 0.0
        M[:, rng.random(n) < 0.4] = 0.0
        radius = float(np.abs(np.linalg.eigvals(M)).max())
        if radius > 0.0:
            M *= target_radius / radius
        rhs = rng.uniform(0.1, 1.0, size=(n, columns) if columns else n)
        if _productive(M):
            y = _LiveBlock(M.T, np.ones(len(M))).solve(rhs)
            assert y.shape == rhs.shape
            np.testing.assert_allclose(y, np.linalg.solve(np.eye(n) - M, rhs), rtol=1e-10)
        else:
            with pytest.raises(NonProductive):
                _LiveBlock(M.T, np.ones(len(M))).solve(rhs)

    def test_factorises_only_the_live_block(self, monkeypatch):
        shapes = []
        solve = np.linalg.solve

        def recording(a, b):
            shapes.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        M = np.full((4, 4), 0.1)
        M[:, [0, 2]] = 0.0
        _LiveBlock(M.T, np.ones(len(M))).solve(np.ones(4))
        _LiveBlock(np.full((4, 4), 0.1), np.ones(4)).solve(np.ones(4))
        assert shapes == [(2, 2), (4, 4)]

    @pytest.mark.parametrize("n", [7, 150])
    @pytest.mark.parametrize("dead", [False, True])
    def test_row_and_column_major_inputs_agree_bitwise(self, n, dead):
        # a block with dead columns is gathered from M or M.T, whichever is row-major
        rng = np.random.default_rng(n)
        A, *_ = helpers.random_coefficients(rng, n)
        if dead:
            A[:, ::3] = 0.0
        column_major = np.asfortranarray(A)
        assert A.flags.c_contiguous and not column_major.flags.c_contiguous
        np.testing.assert_array_equal(leontief_inverse(column_major), leontief_inverse(A))

    def test_all_columns_zero_returns_rhs(self):
        rhs = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(_LiveBlock(np.zeros((3, 3)), np.ones(3)).solve(rhs), rhs)

    def test_one_live_column(self):
        M = np.zeros((4, 4))
        M[:, 2] = [0.1, 0.2, 0.5, 0.3]
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        # y_2 = 3 / (1 - 0.5) = 6, and every other row adds M[i, 2] * 6
        np.testing.assert_allclose(_LiveBlock(M.T, np.ones(len(M))).solve(rhs), rhs + M[:, 2] * 6.0, rtol=1e-15)
        M[2, 2] = 1.0
        with pytest.raises(NonProductive):
            _LiveBlock(M.T, np.ones(len(M))).solve(rhs)

    def test_one_sector(self):
        np.testing.assert_array_equal(_LiveBlock(np.array([[0.5]]), np.ones(1)).solve(np.array([3.0])), [6.0])
        np.testing.assert_array_equal(_LiveBlock(np.zeros((1, 1)), np.ones(1)).solve(np.array([[1.0, 2.0]])), [[1.0, 2.0]])
        for m in (1.0, 1.5):
            with pytest.raises(NonProductive):
                _LiveBlock(np.array([[m]]), np.ones(1)).solve(np.array([1.0]))

    def test_bipartite_with_a_zeroed_column(self):
        verdicts = set()
        for scale in (1.0, 2.5):
            for j in range(3):
                M = scale * helpers.BIPARTITE_A
                M[:, j] = 0.0
                assert _verdict(M) == _productive(M)
                verdicts.add(_verdict(M))
        assert verdicts == {True, False}

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
    def test_masked_inverse_unit_columns_are_exact(self, n, seed):
        rng = np.random.default_rng(seed)
        A, *_ = helpers.random_coefficients(rng, n)
        shares = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 1.0, size=n))
        inverse = masked_inverse(A, shares)
        for j in np.flatnonzero(shares == 0.0):
            np.testing.assert_array_equal(inverse[:, j], np.eye(n)[:, j])


class TestBalanceReport:
    def test_balanced_fixture_clean(self, appendix_table):
        report = balance_report(appendix_table)
        assert report.max_row_residual < 1e-9
        assert report.max_column_residual < 1e-9

    def test_perturbation_flagged_in_both_directions(self, appendix_table):
        Z = appendix_table.Z.copy()
        Z[0, 0] += 0.1 * appendix_table.x[0]
        table = IOTable(
            sectors=appendix_table.sectors,
            Z=Z,
            f=appendix_table.f,
            e=appendix_table.e,
            labor=appendix_table.labor,
            capital=appendix_table.capital,
            imports=appendix_table.imports,
            indirect_tax=appendix_table.indirect_tax,
            x=appendix_table.x,
        )
        report = balance_report(table)
        assert report.worst_row_sector == 0
        assert report.worst_column_sector == 0
        assert report.row_residuals[0] == pytest.approx(0.1)
        assert report.column_residuals[0] == pytest.approx(0.1)

    def test_row_residual_zero_when_output_is_row_sums(self):
        Z = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = Z.sum(axis=1)
        table = IOTable(
            sectors=SectorSet.from_ids(("s1", "s2")),
            Z=Z,
            f=np.zeros(2),
            e=np.zeros(2),
            labor=np.zeros(2),
            capital=np.zeros(2),
            imports=np.zeros(2),
            indirect_tax=np.zeros(2),
            x=x,
        )
        report = balance_report(table)
        assert report.max_row_residual == 0.0


class TestSpectralRadius:
    def test_zero_matrix(self):
        radius, _, converged = spectral_radius(np.zeros((3, 3)))
        assert radius == 0.0 and converged

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31))
    def test_matches_eigenvalue_oracle_on_nonnegative_matrices(self, n, seed):
        rng = np.random.default_rng(seed)
        M = rng.uniform(0.0, 1.0, size=(n, n))
        estimate, _, _ = spectral_radius(M)
        exact = float(np.abs(np.linalg.eigvals(M)).max())
        assert estimate == pytest.approx(exact, rel=1e-8, abs=1e-10)
