"""Tests for stability diagnostics: MAD, share drift, productivity, tax ratio."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gstio import (
    DimensionMismatch,
    ExpenditureBasis,
    ExpenditureMatrix,
    GroupDimension,
    HouseholdGroup,
    NonProductive,
    ZeroValueAdded,
    leontief_inverse,
    mad,
    productivity_check,
    structure_drift,
    tax_to_va_ratio,
)


def _two_item_matrix(shares_by_group, total=100.0):
    """One two-item group per (id, share) pair; share given in percent."""
    groups = tuple(
        HouseholdGroup(group_id=g, dimension=GroupDimension.INCOME_CLASS, label=g)
        for g, _ in shares_by_group
    )
    values = np.array([[total * s / 100.0, total * (1 - s / 100.0)] for _, s in shares_by_group])
    return ExpenditureMatrix(
        groups=groups, items=("a", "b"), values=values, basis=ExpenditureBasis.ITEM_CODES
    )


class TestMad:
    def test_identical_matrices_zero(self):
        M = np.arange(9.0).reshape(3, 3)
        assert mad(M, M) == 0.0

    def test_all_cells_differ_by_one(self):
        assert mad(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)) == 1.0

    def test_injected_perturbation(self):
        rng = np.random.default_rng(3)
        n, k, eps = 7, 5, 0.013
        base = rng.uniform(size=(n, n))
        other = base.copy()
        flat = rng.choice(n * n, size=k, replace=False)
        other.flat[flat] += eps
        assert mad(base, other) == pytest.approx(k * eps / n**2, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mad(np.zeros((2, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
    def test_empty_matrices_refused(self, shape):
        with pytest.raises(DimensionMismatch, match="nonempty matrices required"):
            mad(np.zeros(shape), np.zeros(shape))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.1, max_value=10))
    def test_symmetric_nonnegative_and_scales_linearly(self, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.uniform(size=(4, 4))
        b = rng.uniform(size=(4, 4))
        assert mad(a, b) == mad(b, a)
        assert mad(a, b) >= 0.0
        assert mad(a, a) == 0.0
        uniform = mad(a, a + scale)
        assert uniform == pytest.approx(scale, rel=1e-12)


class TestStructureDrift:
    def test_identical_snapshots_zero(self):
        m = _two_item_matrix([("g1", 50.0)])
        report = structure_drift(m, m)
        assert report.max_pp == 0.0 and report.min_pp == 0.0

    def test_two_point_shift(self):
        before = _two_item_matrix([("g1", 50.0)])
        after = _two_item_matrix([("g1", 52.0)])
        report = structure_drift(before, after)
        assert report.max_pp == pytest.approx(2.0)
        assert report.min_pp == pytest.approx(2.0)

    def test_dataset_extrema_across_groups(self):
        # three groups with injected drifts of 0.21, 1.0 and 1.96 points
        before = _two_item_matrix([("g1", 40.0), ("g2", 50.0), ("g3", 60.0)])
        after = _two_item_matrix([("g1", 40.21), ("g2", 51.0), ("g3", 61.96)])
        report = structure_drift(before, after)
        assert report.max_pp == pytest.approx(1.96)
        assert report.min_pp == pytest.approx(0.21)
        assert [g.max_pp for g in report.groups] == pytest.approx([0.21, 1.0, 1.96])

    def test_row_scaling_invariance(self):
        before = _two_item_matrix([("g1", 35.0), ("g2", 60.0)])
        after = _two_item_matrix([("g1", 36.0), ("g2", 58.0)], total=250.0)
        base = structure_drift(before, after)
        rescaled = structure_drift(before, _two_item_matrix([("g1", 36.0), ("g2", 58.0)], total=9.0))
        assert base.max_pp == pytest.approx(rescaled.max_pp)
        assert base.min_pp == pytest.approx(rescaled.min_pp)

    def test_misaligned_items_rejected(self):
        m = _two_item_matrix([("g1", 50.0)])
        other = ExpenditureMatrix(
            groups=m.groups,
            items=("a", "c"),
            values=m.values,
            basis=ExpenditureBasis.ITEM_CODES,
        )
        with pytest.raises(DimensionMismatch):
            structure_drift(m, other)


def _drawn_matrix(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """A random n × n matrix >= 0 of one ``kind``: positive, sparse, reducible or bipartite."""
    A = rng.uniform(0.1, 1.0, size=(n, n))
    if kind == "sparse":  # zero rows and columns, and cells
        A *= rng.random((n, n)) < 0.4
        A[rng.integers(n)] = 0.0
        A[:, rng.integers(n)] = 0.0
    elif kind == "reducible":  # block triangular
        k = int(rng.integers(0, n))
        A[k:, :k] = 0.0
    elif kind == "bipartite":
        k = int(rng.integers(0, n))
        A[:k, :k] = 0.0
        A[k:, k:] = 0.0
    return A


class TestProductivityCheck:
    def test_zero_matrix_passes(self):
        report = productivity_check(np.zeros((4, 4)))
        assert report.spectral_radius == 0.0 and report.passed

    def test_unit_diagonal_fails(self):
        report = productivity_check(np.diag([1.0]))
        assert report.spectral_radius == pytest.approx(1.0)
        assert not report.passed

    def test_periodic_matrix_fails_closed(self):
        # the oscillating power iteration's last ratio is below 1, yet
        # the true radius is not
        for M in (helpers.BIPARTITE_2X2, helpers.BIPARTITE_A.T):
            report = productivity_check(M)
            assert report.spectral_radius < 1.0
            assert report.passed is False and report.converged is False

    def test_masked_appendix_matches_eigenvalue_oracle(self):
        mask = np.array([0.0, 1.0, 1.0])
        report = productivity_check(helpers.APPENDIX_AT.T, mask)
        exact = float(np.abs(np.linalg.eigvals(helpers.APPENDIX_AT * mask)).max())
        assert report.spectral_radius == pytest.approx(exact, abs=1e-8)
        # equals the dominant eigenvalue of the unmasked 2x2 block
        block = np.array([[0.25, 0.12], [0.12, 0.28]])
        assert exact == pytest.approx(float(np.abs(np.linalg.eigvals(block)).max()), abs=1e-12)
        assert report.passed

    def test_negative_entries_never_pass_by_the_bound(self):
        # row sums 0.1 and 0 would prove productivity for a nonnegative M;
        # the kernel refuses negative entries, and so does the check
        with pytest.raises(DimensionMismatch):
            productivity_check(np.array([[0.5, -0.4], [0.0, 0.0]]))
        # entries above the kernel's -1e-12 tolerance are its to decide
        assert productivity_check(np.array([[0.5, -1e-13], [0.0, 0.0]])).passed

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.3, max_value=1.7))
    def test_verdict_agrees_with_inverse_behavior(self, seed, target_radius):
        rng = np.random.default_rng(seed)
        M = rng.uniform(0.1, 1.0, size=(4, 4))
        current = float(np.abs(np.linalg.eigvals(M)).max())
        M *= target_radius / current
        self._assert_verdict_is_the_solvers(M)
        # Bipartite matrices are periodic, so power iteration need not
        # converge: the verdict must still be the solver's, and the solver
        # must accept exactly what the dense eigenvalues call productive.
        for _ in range(20):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n))
            B = np.zeros((n, n))
            B[:k, k:] = rng.uniform(0.0, 1.0, size=(k, n - k))
            B[k:, :k] = rng.uniform(0.0, 1.0, size=(n - k, k))
            B *= target_radius
            productive = float(np.abs(np.linalg.eigvals(B)).max()) < 1.0 - 1e-9
            assert self._assert_verdict_is_the_solvers(B) == productive

    def test_radius_below_one_is_not_the_kernels_certificate(self):
        # the bracket closes on ρ ≈ 0.535, but (I − M)⁻¹1 reaches 2.7e10,
        # beyond the kernel's 1e9: the verdict follows the kernel, not ρ
        M = np.array([[0.5, 1e10], [1e-12, 0.25]])
        report = productivity_check(M)
        exact = float(np.abs(np.linalg.eigvals(M)).max())
        assert report.converged and report.spectral_radius == pytest.approx(exact, rel=1e-9)
        assert report.bracket[1] < 1.0 - 1e-9 and report.passed is False
        with pytest.raises(NonProductive):
            leontief_inverse(M)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(["positive", "sparse", "reducible", "bipartite"]),
        st.booleans(),
        st.floats(min_value=0.3, max_value=1.7),
    )
    def test_bracket_holds_the_eigenvalue_radius(self, seed, n, kind, masked, target_radius):
        rng = np.random.default_rng(seed)
        A = _drawn_matrix(rng, n, kind)
        mask = None
        if masked:
            mask = rng.uniform(0.2, 1.0, size=n)
            if kind != "positive":
                mask[rng.random(n) < 0.3] = 0.0
        radius = float(np.abs(np.linalg.eigvals(A if mask is None else A.T * mask)).max())
        if radius > 0:
            A *= target_radius / radius
        M = A.T if mask is None else A.T * mask
        radius = float(np.abs(np.linalg.eigvals(M)).max())
        report = productivity_check(A, mask)
        lo, hi = report.bracket
        assert report.spectral_radius == lo
        # both the bracket's ends and the eigenvalues carry rounding
        assert lo * (1 - 1e-12) <= radius <= hi * (1 + 1e-12)
        if kind == "positive":
            assert report.converged and abs(lo - radius) <= 1e-8
        assert report.passed == self._kernel_accepts(M)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(["positive", "sparse", "reducible", "bipartite"]),
        st.floats(min_value=0.3, max_value=1.7),
    )
    def test_no_mask_is_the_all_ones_mask(self, seed, n, kind, scale):
        # both read A'B̂ with b = 1, run's baseline system
        A = _drawn_matrix(np.random.default_rng(seed), n, kind) * scale
        assert productivity_check(A) == productivity_check(A, np.ones(n))

    def test_masked_gate_allocates_no_n_by_n_array(self):
        n = 400
        rng = np.random.default_rng(7)
        A = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.3)
        A *= 0.6 / A.sum(axis=0)
        mask = rng.uniform(0.2, 1.0, size=n)
        mask[rng.permutation(n)[: 3 * n // 10]] = 0.0
        productivity_check(A, mask)  # warm-up
        tracemalloc.start()
        try:
            report = productivity_check(A, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed and report.converged
        assert peak < n * n * np.dtype(float).itemsize

    @staticmethod
    def _kernel_accepts(M) -> bool:
        try:
            leontief_inverse(M)
        except NonProductive:
            return False
        return True

    @staticmethod
    def _assert_verdict_is_the_solvers(M) -> bool:
        try:
            leontief_inverse(M.T)  # the price system M', which the gate reads
            accepted = True
        except NonProductive:
            accepted = False
        assert productivity_check(M).passed == accepted
        return accepted


class TestTaxToVaRatio:
    def test_appendix_values(self, appendix_bundle):
        np.testing.assert_allclose(
            tax_to_va_ratio(appendix_bundle),
            [0.01 / 0.60, 0.01 / 0.27, 0.01 / 0.48],
            atol=1e-12,
        )

    def test_zero_tax(self, appendix_bundle):
        from gstio import CoefficientBundle

        bundle = CoefficientBundle(
            sectors=appendix_bundle.sectors,
            A=appendix_bundle.A,
            labor=appendix_bundle.labor,
            capital=appendix_bundle.capital,
            imports=appendix_bundle.imports,
            indirect_tax=np.zeros(3),
        )
        np.testing.assert_array_equal(tax_to_va_ratio(bundle), np.zeros(3))

    def test_reform_neutral_constant_row(self, appendix_bundle):
        from gstio import CoefficientBundle

        bundle = CoefficientBundle(
            sectors=appendix_bundle.sectors,
            A=appendix_bundle.A,
            labor=appendix_bundle.labor,
            capital=appendix_bundle.capital,
            imports=appendix_bundle.imports,
            indirect_tax=0.06 * appendix_bundle.value_added,
        )
        np.testing.assert_allclose(tax_to_va_ratio(bundle), 0.06, atol=1e-15)

    def test_zero_value_added_rejected(self):
        from gstio import CoefficientBundle, SectorSet

        bundle_kwargs = dict(
            sectors=SectorSet.from_ids(("a",)),
            A=np.zeros((1, 1)),
            labor=np.zeros(1),
            capital=np.zeros(1),
            imports=np.ones(1),
            indirect_tax=np.zeros(1),
        )
        with pytest.raises(ZeroValueAdded, match="a"):
            tax_to_va_ratio(CoefficientBundle(**bundle_kwargs))
