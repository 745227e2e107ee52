"""Stability and sanity checks for model inputs.

Nothing here changes a result; these are the checks you run before trusting
one: how much the coefficient structure moved between two benchmark tables
(MAD), how much household budget shares drifted between two surveys, whether
the (masked) coefficient matrix is actually invertible, and what effective
tax rate on value added the baseline embeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroValueAdded
from .incidence import ExpenditureMatrix
from .io_model import PRODUCTIVITY_EPSILON, CoefficientBundle, _frozen, _square, spectral_radius
from .price_model import _mask_diagonal


def mad(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute deviation between two equal-shape matrices.

    Values near zero indicate a stable structure between benchmarks.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).mean())


@dataclass(frozen=True)
class GroupDrift:
    group_id: str
    max_pp: float
    min_pp: float


@dataclass(frozen=True)
class StructureDriftReport:
    """Budget-share drift between two expenditure snapshots, percentage points.

    Per group, the extrema of |share change| across items. The dataset-wide
    figures aggregate the per-group maxima: ``max_pp`` is the least stable
    group's largest drift, ``min_pp`` the most stable group's largest drift.
    """

    groups: tuple[GroupDrift, ...]
    max_pp: float
    min_pp: float


def structure_drift(e1: ExpenditureMatrix, e2: ExpenditureMatrix) -> StructureDriftReport:
    """Compare budget shares of two aligned expenditure matrices."""
    if e1.group_ids != e2.group_ids:
        raise DimensionMismatch("expenditure matrices cover different groups")
    if e1.items != e2.items:
        raise DimensionMismatch("expenditure matrices cover different items")
    shares1 = 100.0 * e1.values / e1.totals()[:, np.newaxis]
    shares2 = 100.0 * e2.values / e2.totals()[:, np.newaxis]
    drift = np.abs(shares2 - shares1)
    groups = tuple(
        GroupDrift(
            group_id=g.group_id,
            max_pp=float(drift[h].max()),
            min_pp=float(drift[h].min()),
        )
        for h, g in enumerate(e1.groups)
    )
    per_group_max = np.array([g.max_pp for g in groups])
    return StructureDriftReport(
        groups=groups,
        max_pp=float(per_group_max.max()),
        min_pp=float(per_group_max.min()),
    )


@dataclass(frozen=True)
class ProductivityReport:
    """Power-iteration estimate of the spectral radius and the pass verdict."""

    spectral_radius: float
    passed: bool
    iterations: int
    converged: bool


def productivity_check(A: np.ndarray, mask: np.ndarray | None = None) -> ProductivityReport:
    """Estimate the spectral radius of A (or A'B̂ when a mask is given).

    Power iteration with a deterministic all-ones start vector, capped at
    POWER_MAX_ITERATIONS with POWER_TOLERANCE convergence (see
    :func:`~gstio.io_model.spectral_radius`), so reports are reproducible.
    For A >= 0 a converged estimate is the radius (Gelfand: ‖Mᵏ1‖∞ = ‖Mᵏ‖∞).
    Passes iff it converged below 1 − 1e-9, so periodic matrices fail closed.
    The solvers do not consult this report; they certify themselves.
    """
    A = _square(A)
    target = A if mask is None else A.T * _mask_diagonal(mask, len(A))
    radius, iterations, converged = spectral_radius(target)
    return ProductivityReport(
        spectral_radius=radius,
        passed=converged and radius < 1.0 - PRODUCTIVITY_EPSILON,
        iterations=iterations,
        converged=converged,
    )


def tax_to_va_ratio(bundle: CoefficientBundle) -> np.ndarray:
    """Baseline indirect tax per unit of value added, per sector.

    This is the effective rate the reform replaces with the statutory one.
    """
    va = bundle.value_added
    bad = np.nonzero(va <= 0)[0]
    if bad.size:
        ids = ", ".join(bundle.sectors.ids[i] for i in bad)
        raise ZeroValueAdded(f"zero value added in sectors: {ids}")
    return _frozen(bundle.indirect_tax / va)
