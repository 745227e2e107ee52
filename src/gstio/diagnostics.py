"""Stability and sanity checks for model inputs.

Nothing here changes a result; these are the checks you run before trusting
one: how much the coefficient structure moved between two benchmark tables
(MAD), how much household budget shares drifted between two surveys, whether
the solvers accept the (masked) coefficient matrix, and what effective tax
rate on value added the baseline embeds.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonProductive, ZeroValueAdded
from .incidence import ExpenditureMatrix
from .io_model import PRODUCTIVITY_EPSILON, CoefficientBundle, _frozen, _LiveBlock, _perron_bracket, _system


def mad(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute deviation between two equal-shape, nonempty matrices.

    Values near zero indicate a stable structure between benchmarks.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    if not a.size:
        raise DimensionMismatch(f"nonempty matrices required, got shape {a.shape}")
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
    """The solve kernel's productivity verdict and a Collatz–Wielandt bracket of the radius.

    ``bracket`` is [lo, hi] with lo <= ρ(M) <= hi; ``converged`` says it
    closed to POWER_TOLERANCE relative, so that ``spectral_radius`` (= lo)
    is ρ(M) to that tolerance. ``iterations`` counts power steps.
    """

    spectral_radius: float
    passed: bool
    iterations: int
    converged: bool
    bracket: tuple[float, float]


def productivity_check(A: np.ndarray, mask: np.ndarray | None = None) -> ProductivityReport:
    """Decide by the solve kernel's rule whether M = A'B̂, the price system, is productive.

    ``mask`` is the share vector b of n entries, the diagonal of B̂; without
    one b = 1, so M = A' is the baseline price system, and the schedule's
    shares give the reform's. Either is the system the price model solves.

    Passes at once when M >= 0 and the bracket's first upper end, ‖M‖∞, is
    below 1 − 1e-9: then x = (I − M)⁻¹1 <= 1/(1 − ‖M‖∞) < 1e9, which is the
    kernel's certificate. Otherwise asks the kernel,
    :class:`~gstio.io_model._LiveBlock`, itself, which raises
    :class:`DimensionMismatch` for entries below −1e-12. A tighter upper end
    proves ρ(M) < 1 − 1e-9 but not the kernel's bound on x (M =
    [[0.5, 1e10], [1e-12, 0.25]] has ρ ≈ 0.535 and x₁ ≈ 2.7e10), so it
    decides nothing.

    M is never formed: the bracket and the kernel both read A'B̂ from A and
    the mask (see :func:`~gstio.io_model._perron_bracket`), and the bracket
    iterates only over its core. Given a bundle's own A, both reuse the row
    extremes the bundle took, so only the mask's live rows are read; any
    other array is scanned for its extremes on each call.
    """
    A, m = _system(A, mask)
    bracket = _perron_bracket(A, m)
    passed = bracket.lowest >= 0.0 and bracket.row_bound < 1.0 - PRODUCTIVITY_EPSILON
    if not passed:
        with suppress(NonProductive):
            _LiveBlock(A, m).solve(np.empty((len(A), 0)))
            passed = True
    return ProductivityReport(bracket.lo, passed, bracket.iterations, bracket.closed, (bracket.lo, bracket.hi))


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
