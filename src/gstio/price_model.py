"""Cost-push price model with multi-rate consumption-tax masking.

The dual of the quantity model: quantities are fixed, prices adjust to cover
per-unit costs. With prices normalized to 1 at baseline,

    p = A'p + labor + capital + imports + indirect_tax
      = (I − A')⁻¹ (labor + capital + imports + indirect_tax)

which returns the all-ones vector for a balanced coefficient bundle.

Replacing an output-based sales tax with a value-added tax changes two
things at once:

* only the standard-rated share of each sector's output carries the tax, so
  the transposed coefficient matrix is column-scaled by a diagonal mask B̂
  (entry = standard-rated output share) before inversion, and
* the tax coefficient row becomes ``rate × share × (labor + capital)`` —
  the statutory rate applied to value added instead of to gross output.

The masked system literally removes zero-rated/exempt input costs from the
price equation (their columns vanish), which is what the worked
fractional-mask example this model is checked against does. That behavior is
the ``drop`` treatment; ``baseline`` instead re-charges masked inputs at
their baseline price of 1.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidSchedule
from .io_model import CoefficientBundle, SectorSet, _frozen, _LiveBlock, _square


class RateCategory(enum.Enum):
    """Dominant tax treatment of a sector, used for reporting and the exempt option."""

    STANDARD_RATED = "standard"
    ZERO_RATED = "zero_rated"
    EXEMPT = "exempt"


class MaskedInputTreatment(enum.Enum):
    """What happens to input costs whose supplying sector is masked out.

    DROP removes them from the price equation entirely (reproduces the
    reference fractional-mask arithmetic and its large price declines).
    BASELINE keeps them at their baseline price of 1.
    """

    DROP = "drop"
    BASELINE = "baseline"


def check_gst_rate(rate: float) -> float:
    """Return the statutory rate ``rate``; raise ValueError unless it lies in [0, 1)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"gst_rate must lie in [0, 1), got {rate}")
    return rate


def _schedule_rate(rate: float) -> float:
    try:
        return check_gst_rate(rate)
    except ValueError as exc:
        raise InvalidSchedule(str(exc)) from None


@dataclass(frozen=True, eq=False)
class RateSchedule:
    """Per-sector tax treatment under the reform.

    ``standard_share`` is the fraction of the sector's output value that is
    standard-rated; it is the effective mask regardless of the category
    label, which records the dominant treatment for reporting (a sector
    labeled zero-rated may still have 70% of its activities standard-rated).
    """

    sectors: SectorSet
    categories: tuple[RateCategory, ...]
    standard_share: np.ndarray
    gst_rate: float

    def __post_init__(self):
        n = len(self.sectors)
        object.__setattr__(self, "categories", tuple(self.categories))
        if len(self.categories) != n:
            raise DimensionMismatch(f"need {n} categories, got {len(self.categories)}")
        if any(not isinstance(c, RateCategory) for c in self.categories):
            raise InvalidSchedule("categories must be RateCategory members")
        object.__setattr__(self, "standard_share", _frozen(self.standard_share, (n,)))
        if np.any(self.standard_share < 0) or np.any(self.standard_share > 1):
            raise InvalidSchedule("standard_share entries must lie in [0, 1]")
        _schedule_rate(self.gst_rate)

    @classmethod
    def uniform_standard(cls, sectors: SectorSet, gst_rate: float) -> "RateSchedule":
        """Every sector fully standard-rated at the given rate."""
        n = len(sectors)
        return cls(
            sectors=sectors,
            categories=(RateCategory.STANDARD_RATED,) * n,
            standard_share=np.ones(n),
            gst_rate=gst_rate,
        )


def _exogenous_costs(bundle: CoefficientBundle, tax_row: np.ndarray) -> np.ndarray:
    # Shared by baseline and reform paths so the two stay bit-identical when
    # the tax rows coincide.
    return bundle.labor + bundle.capital + bundle.imports + tax_row


def baseline_prices(bundle: CoefficientBundle) -> np.ndarray:
    """Normalized price level implied by the bundle's own cost structure.

    Solves p = A'p + (labor + capital + imports + indirect_tax). Equals the
    all-ones vector whenever the bundle came from a balanced table.
    """
    costs = _exogenous_costs(bundle, bundle.indirect_tax)
    # M = A', read from the bundle's own A: not a view of it, whose row extremes were never kept
    return _LiveBlock(bundle.A, np.ones(bundle.n)).solve(costs)


def _mask_diagonal(mask: np.ndarray, n: int) -> np.ndarray:
    mask = np.asarray(mask, dtype=float)
    if mask.shape != (n,):
        raise DimensionMismatch(f"mask must have {n} diagonal entries, got {mask.shape}")
    return mask


def masked_inverse(A: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(I − A'B̂)⁻¹ — the Leontief price inverse with masked tax columns.

    ``mask`` is the share vector b, the diagonal of B̂. A sector with mask 0
    feeds nothing back into itself: its column of the result is exactly the
    unit column, because the solve kernel factorises only the block of
    nonzero columns of A'B̂, on which that right-hand side is all zeros. Raises
    :class:`NonProductive` unless the solve kernel's M-matrix certificate
    proves the spectral radius of A'B̂ below 1 − 1e-9.
    """
    A = _square(A)
    return _LiveBlock(A, _mask_diagonal(mask, len(A))).solve(np.eye(len(A)))


def gst_coefficients(bundle: CoefficientBundle, schedule: RateSchedule) -> np.ndarray:
    """Post-reform tax coefficient row: rate × standard share × value added.

    The statutory rate lands on value added (labor + capital), not on gross
    output, and only on the standard-rated share of it. Fully masked sectors
    get zero.
    """
    if schedule.sectors.ids != bundle.sectors.ids:
        raise DimensionMismatch("schedule and bundle refer to different sector sets")
    return schedule.gst_rate * (schedule.standard_share * bundle.value_added)


class _MaskTerms(NamedTuple):
    """The terms of :func:`price_path` that depend on the mask and not on the rate."""

    key: tuple
    system: _LiveBlock  # I − A'B̂
    baseline_costs: np.ndarray | None  # A'(1 − b̂), for the baseline treatment
    input_tax_base: np.ndarray | None  # row sums of A'B̂, for the exempt option


_kept_terms = weakref.WeakKeyDictionary()  # each live bundle's most recent _MaskTerms


def _mask_terms(bundle: CoefficientBundle, share: np.ndarray, treatment, exempt) -> _MaskTerms:
    """The terms the price model keeps for ``bundle`` if their key matches, else newly built ones."""
    key = (share.tobytes(), treatment, None if exempt is None else exempt.tobytes())
    terms = _kept_terms.get(bundle)
    if terms is not None and terms.key == key:
        return terms
    return _MaskTerms(
        key=key,
        system=_LiveBlock(bundle.A, share),
        baseline_costs=bundle.A.T @ (1.0 - share) if treatment is MaskedInputTreatment.BASELINE else None,
        input_tax_base=(bundle.A.T * share).sum(axis=1) if exempt is not None else None,
    )


def simulate_prices(
    bundle: CoefficientBundle,
    schedule: RateSchedule,
    *,
    masked_input_treatment: MaskedInputTreatment | str = MaskedInputTreatment.DROP,
    exempt_retains_input_tax: bool = False,
) -> np.ndarray:
    """Post-reform normalized price level per sector.

    Solves Δp = (I − A'B̂)⁻¹ c with c = labor + capital + imports + u, where
    u is the reform tax row from :func:`gst_coefficients` and B̂ the diagonal
    matrix of the schedule's standard shares.

    ``masked_input_treatment=BASELINE`` augments c by A'(1 − b̂) so inputs
    from masked sectors are charged at baseline price 1 instead of dropping
    out of the cost equation.

    ``exempt_retains_input_tax=True`` adds, for sectors labeled EXEMPT, the
    statutory tax charged on their standard-rated inputs scaled by the
    non-standard share of their output — the input tax they cannot recover.

    This is :func:`price_path` at the one rate ``schedule.gst_rate``, so
    calls that share a bundle and a mask reuse the live block the price
    model keeps for that bundle: a loop over rates gathers I − A'B̂ once per
    mask, and each call only solves.
    """
    return price_path(
        bundle,
        schedule,
        [schedule.gst_rate],
        masked_input_treatment=masked_input_treatment,
        exempt_retains_input_tax=exempt_retains_input_tax,
    )[0]


def price_path(
    bundle: CoefficientBundle,
    schedule: RateSchedule,
    rates,
    *,
    masked_input_treatment: MaskedInputTreatment | str = MaskedInputTreatment.DROP,
    exempt_retains_input_tax: bool = False,
) -> np.ndarray:
    """Post-reform price levels at each statutory rate, rates × sectors.

    Row k is :func:`simulate_prices` with ``schedule``'s mask and categories
    at ``rates[k]`` (``schedule.gst_rate`` itself is not used). Each cost
    column is built with the same elementwise operations, and all of them go
    to the solve kernel as stacked right-hand sides of one factorisation of
    I − A'B̂. The rows then equal the one-rate solves bit for bit on small
    systems; on large ones the BLAS triangular solve may round a column by
    its place in the stack, which moves the last bit or so (measured below
    1e-15 relative with a live block of about 530 sectors). Raises
    :class:`InvalidSchedule` for a rate outside [0, 1).

    The price model keeps, for each live bundle, what its most recent mask
    built, which depends on nothing but the mask: the live block of
    I − A'B̂, A'(1 − b̂) for the baseline treatment and the row sums of A'B̂
    for the exempt option. A later call on that bundle with the same
    standard shares, treatment and (with the exempt option) exempt labels
    reuses them and gives the same bits. A mask whose solve fails is not
    kept. The terms go with the bundle, or with :func:`release_mask_terms`;
    a copy of the bundle builds its own.
    """
    treatment = MaskedInputTreatment(masked_input_treatment)
    if schedule.sectors.ids != bundle.sectors.ids:
        raise DimensionMismatch("schedule and bundle refer to different sector sets")
    rates = np.array([_schedule_rate(rate) for rate in rates], dtype=float)[:, np.newaxis]
    share = schedule.standard_share
    exempt = None
    if exempt_retains_input_tax:
        exempt = np.array([c is RateCategory.EXEMPT for c in schedule.categories], dtype=bool)
        if not exempt.any():
            exempt = None
    terms = _mask_terms(bundle, share, treatment, exempt)
    # one row per rate; the tax row is gst_coefficients' rate × (share × va)
    costs = _exogenous_costs(bundle, rates * (share * bundle.value_added))
    if terms.baseline_costs is not None:
        costs = costs + terms.baseline_costs
    if terms.input_tax_base is not None:
        # statutory tax on standard-rated inputs, unrecoverable in
        # proportion to the sector's non-standard output share
        input_tax = rates * terms.input_tax_base
        costs = costs + np.where(exempt, (1.0 - share) * input_tax, 0.0)
    prices = terms.system.solve(costs.T).T
    _kept_terms[bundle] = terms  # only once solved: a non-productive mask is not kept
    return prices


def release_mask_terms(bundle: CoefficientBundle) -> None:
    """Drop the terms :func:`price_path` keeps for ``bundle``, for a caller that solves each mask once."""
    _kept_terms.pop(bundle, None)


@dataclass(frozen=True, eq=False)
class PriceChangeSummary:
    """Aggregate view of a simulated price vector.

    ``net_decline`` follows the headline convention of this model family:
    mean absolute decline among falling sectors minus mean rise among rising
    sectors. ``weighted_mean`` is the output-weighted mean percent change
    (equal weights when no output column was supplied).
    """

    pct_change: np.ndarray
    riser_count: int
    riser_mean: float
    decliner_count: int
    decliner_mean: float
    net_decline: float
    weighted_mean: float


def price_change_summary(
    price_level: np.ndarray, output: np.ndarray | None = None
) -> PriceChangeSummary:
    """Percent changes plus riser/decliner counts, means and the net decline.

    Raises :class:`DimensionMismatch` for an empty price vector, and for
    output weights that are not finite, are negative or sum to zero.
    """
    p = np.asarray(price_level, dtype=float)
    if p.ndim != 1 or not p.size:
        raise DimensionMismatch(f"price vector must be 1-D and nonempty, got shape {p.shape}")
    pct = (p - 1.0) * 100.0
    risers = pct[pct > 0]
    decliners = pct[pct < 0]
    riser_mean = float(risers.mean()) if risers.size else 0.0
    decliner_mean = float(-decliners.mean()) if decliners.size else 0.0
    if output is None:
        weights = np.ones_like(pct)
    else:
        weights = np.asarray(output, dtype=float)
        if weights.shape != pct.shape:
            raise DimensionMismatch(
                f"output weights must match price vector, got {weights.shape}"
            )
        if not (np.all(weights >= 0) and 0 < weights.sum() < np.inf):  # nan fails both
            raise DimensionMismatch("output weights must be finite and nonnegative, with a positive sum")
    weighted = float((weights * pct).sum() / weights.sum())
    return PriceChangeSummary(
        pct_change=_frozen(pct),
        riser_count=int(risers.size),
        riser_mean=riser_mean,
        decliner_count=int(decliners.size),
        decliner_mean=decliner_mean,
        net_decline=decliner_mean - riser_mean,
        weighted_mean=weighted,
    )
