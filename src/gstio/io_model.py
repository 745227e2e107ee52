"""Input-output table model and the classical Leontief quantity machinery.

The accounting identity behind everything here is

    x = Z·1 + f + e        (row balance: output = intermediate sales + final demand + exports)
    x = 1'Z + labor + capital + imports + indirect_tax   (column balance: output = input costs)

Per-unit coefficients follow as A = Z x̂⁻¹ and the primary-input rows divided
by x. A productive A (spectral radius < 1) admits the Leontief inverse
L = (I − A)⁻¹, which converts final demand into gross output: x = L(f + e).

All containers are frozen dataclasses over read-only numpy arrays, so every
operation is a pure function and instances can be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NonProductive, Unbalanced, ZeroOutput

# Published IO tables carry rounding; this is the slack on the accounting
# identities (relative to each sector's gross output).
BALANCE_TOLERANCE = 1e-6

PRODUCTIVITY_EPSILON = 1e-9

# Power iteration stops once successive growth estimates agree to this
# relative tolerance, or reports non-convergence after the iteration cap.
POWER_TOLERANCE = 1e-12
POWER_MAX_ITERATIONS = 1000


def _frozen(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if shape is not None and arr.shape != shape:
        raise DimensionMismatch(f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch("non-finite entries are not allowed")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SectorSet:
    """Fixed, ordered list of sectors shared by every matrix and vector.

    Index i refers to the same sector everywhere in the system.
    """

    ids: tuple[str, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.ids) == 0:
            raise DimensionMismatch("sector set must contain at least one sector")
        if len(self.ids) != len(self.names):
            raise DimensionMismatch("sector ids and names differ in length")
        if any(not s for s in self.ids):
            raise DimensionMismatch("sector ids must be non-empty strings")
        if len(self._positions) != len(self.ids):
            dupes = sorted({s for i, s in enumerate(self.ids) if self._positions[s] != i})
            raise DimensionMismatch(f"duplicate sector ids: {', '.join(dupes)}")

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {sector_id: i for i, sector_id in enumerate(self.ids)}

    @classmethod
    def from_ids(cls, ids) -> "SectorSet":
        ids = tuple(ids)
        return cls(ids=ids, names=ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, sector_id) -> bool:
        return sector_id in self._positions

    def index(self, sector_id: str) -> int:
        """Position of ``sector_id``; raises ``KeyError`` for an unknown id."""
        return self._positions[sector_id]


@dataclass(frozen=True)
class IOTable:
    """Balanced inter-industry flow table in currency units.

    ``Z`` holds intermediate flows (row = selling sector, column = buying
    sector), ``f``/``e`` are final-demand and export columns, and the four
    primary-input rows hold labor compensation, operating surplus, imports
    and indirect taxes per buying sector. ``f`` may carry negative entries
    (inventory changes); everything else is nonnegative and ``x`` strictly
    positive.

    Construction validates structure only. Balance is checked separately via
    :meth:`check_balance` (or :func:`balance_report`), because diagnosing an
    unbalanced table requires building one.
    """

    sectors: SectorSet
    Z: np.ndarray
    f: np.ndarray
    e: np.ndarray
    labor: np.ndarray
    capital: np.ndarray
    imports: np.ndarray
    indirect_tax: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        n = len(self.sectors)
        object.__setattr__(self, "Z", _frozen(self.Z, (n, n)))
        for name in ("f", "e", "labor", "capital", "imports", "indirect_tax", "x"):
            object.__setattr__(self, name, _frozen(getattr(self, name), (n,)))
        for name in ("Z", "e", "labor", "capital", "imports", "indirect_tax"):
            arr = getattr(self, name)
            if np.any(arr < 0):
                raise DimensionMismatch(f"negative entries in {name} are not allowed")
        bad = np.nonzero(self.x <= 0)[0]
        if bad.size:
            ids = ", ".join(self.sectors.ids[i] for i in bad)
            raise ZeroOutput(f"gross output must be strictly positive; offending sectors: {ids}")

    @property
    def n(self) -> int:
        return len(self.sectors)

    def check_balance(self) -> None:
        """Raise :class:`Unbalanced` if either identity fails by more than BALANCE_TOLERANCE."""
        report = balance_report(self)
        if not report.within(BALANCE_TOLERANCE):
            raise Unbalanced(
                "table violates balance at relative tolerance "
                f"{BALANCE_TOLERANCE:g} (worst row residual {report.max_row_residual:.3e} "
                f"at sector {self.sectors.ids[report.worst_row_sector]}, "
                f"worst column residual {report.max_column_residual:.3e} "
                f"at sector {self.sectors.ids[report.worst_column_sector]})"
            )


@dataclass(frozen=True)
class CoefficientBundle:
    """Per-unit-of-output coefficients: matrix ``A`` plus exogenous cost rows.

    Column j of ``A`` is sector j's intermediate input recipe; ``labor``,
    ``capital``, ``imports`` and ``indirect_tax`` complete the column so that
    for a balanced source table each column sums to one.
    """

    sectors: SectorSet
    A: np.ndarray
    labor: np.ndarray
    capital: np.ndarray
    imports: np.ndarray
    indirect_tax: np.ndarray

    def __post_init__(self):
        n = len(self.sectors)
        object.__setattr__(self, "A", _frozen(self.A, (n, n)))
        for name in ("labor", "capital", "imports", "indirect_tax"):
            object.__setattr__(self, name, _frozen(getattr(self, name), (n,)))
        for name in ("A", "labor", "capital", "imports", "indirect_tax"):
            arr = getattr(self, name)
            if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
                raise DimensionMismatch(f"coefficients in {name} must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.sectors)

    @property
    def value_added(self) -> np.ndarray:
        """Labor plus capital coefficient per sector (the GST base)."""
        return self.labor + self.capital

    def column_sums(self) -> np.ndarray:
        """A's column sums plus all exogenous rows; equals 1 for balanced sources."""
        return self.A.sum(axis=0) + self.labor + self.capital + self.imports + self.indirect_tax


@dataclass(frozen=True)
class BalanceReport:
    """Per-sector relative residuals of the two accounting identities."""

    row_residuals: np.ndarray
    column_residuals: np.ndarray

    @property
    def max_row_residual(self) -> float:
        return float(self.row_residuals.max())

    @property
    def max_column_residual(self) -> float:
        return float(self.column_residuals.max())

    @property
    def worst_row_sector(self) -> int:
        return int(self.row_residuals.argmax())

    @property
    def worst_column_sector(self) -> int:
        return int(self.column_residuals.argmax())

    def within(self, tolerance: float) -> bool:
        return self.max_row_residual <= tolerance and self.max_column_residual <= tolerance


def balance_report(table: IOTable) -> BalanceReport:
    """Relative residuals of both balance identities, per sector.

    Residuals are relative to each sector's gross output (absolute where
    output is zero, which structure validation normally rules out). A
    residual that overflows, as when output is tiny beside its flows, is inf.
    """
    denom = np.where(table.x != 0, np.abs(table.x), 1.0)
    with np.errstate(over="ignore"):
        row_lhs = table.Z.sum(axis=1) + table.f + table.e
        col_lhs = (
            table.Z.sum(axis=0)
            + table.labor
            + table.capital
            + table.imports
            + table.indirect_tax
        )
        residuals = np.abs(np.stack([row_lhs, col_lhs]) - table.x) / denom
    residuals.setflags(write=False)
    return BalanceReport(row_residuals=residuals[0], column_residuals=residuals[1])


def derive_coefficients(table: IOTable, *, check_balance: bool = True) -> CoefficientBundle:
    """Divide flows by gross output: A = Z x̂⁻¹ and primary rows / x.

    Raises :class:`Unbalanced` when the source table fails its accounting
    identities by more than BALANCE_TOLERANCE (skip with
    ``check_balance=False`` for tables with known rounding).
    """
    if check_balance:
        table.check_balance()
    return CoefficientBundle(
        sectors=table.sectors,
        A=table.Z / table.x[np.newaxis, :],
        labor=table.labor / table.x,
        capital=table.capital / table.x,
        imports=table.imports / table.x,
        indirect_tax=table.indirect_tax / table.x,
    )


def _square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"square matrix required, got shape {M.shape}")
    return M


def spectral_radius(M: np.ndarray) -> tuple[float, int, bool]:
    """Estimate the spectral radius of a square matrix by power iteration.

    Deterministic all-ones start vector, infinity-norm growth estimate,
    POWER_TOLERANCE convergence and at most POWER_MAX_ITERATIONS steps.
    Returns ``(radius, iterations, converged)``. For M >= 0 a converged
    estimate is the Perron root; on periodic (e.g. bipartite) M the estimate
    oscillates, and the unconverged last ratio can lie far below the radius.
    It is a reported estimate only: no productivity verdict reads it.
    """
    return _power_iteration(_square(M))[:3]


def _power_iteration(M: np.ndarray) -> tuple[float, int, bool, float]:
    """:func:`spectral_radius`, plus its first growth ‖M1‖∞ (= ‖M‖∞ for M >= 0)."""
    v = np.ones(M.shape[0])
    estimate = 0.0
    for iteration in range(1, POWER_MAX_ITERATIONS + 1):
        w = M @ v
        norm = float(np.abs(w).max())
        if iteration == 1:
            first = norm
        if norm == 0.0:
            return 0.0, iteration, True, first
        if abs(norm - estimate) <= POWER_TOLERANCE * max(norm, 1.0):
            return norm, iteration, True, first
        estimate = norm
        v = w / norm
    return estimate, POWER_MAX_ITERATIONS, False, first


def _solve_productive(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I − M) y = rhs, certifying ρ(M) < 1 − PRODUCTIVITY_EPSILON.

    For M >= 0, I − M is a nonsingular M-matrix (ρ(M) < 1) iff
    x = (I − M)⁻¹1 > 0 (Berman & Plemmons 1994, ch. 6); x is one more
    right-hand side of the same factorization. By Collatz–Wielandt
    ρ(M) <= 1 − 1/max(x), so max(x) < 1/ε proves ρ(M) < 1 − ε. Raises
    :class:`NonProductive` otherwise, and :class:`DimensionMismatch` for a
    non-square M or negative entries, for which x proves nothing.
    """
    M = _square(M)
    if np.any(M < -1e-12):
        raise DimensionMismatch("matrix entries must be nonnegative")
    rhs = np.asarray(rhs, dtype=float)
    n = M.shape[0]
    try:
        solution = np.linalg.solve(np.eye(n) - M, np.column_stack([rhs, np.ones(n)]))
    except np.linalg.LinAlgError as exc:
        raise NonProductive(f"(I - M) is singular: {exc}") from exc
    certificate = solution[:, -1]
    if not (np.all(certificate > 0) and certificate.max() < 1.0 / PRODUCTIVITY_EPSILON):
        raise NonProductive(
            f"spectral radius not provably < 1 - {PRODUCTIVITY_EPSILON:g}: (I - M)^-1 1 spans "
            f"[{certificate.min():.6g}, {certificate.max():.6g}], outside (0, {1 / PRODUCTIVITY_EPSILON:g})"
        )
    return solution[:, :-1].reshape(rhs.shape)


def leontief_inverse(A: np.ndarray) -> np.ndarray:
    """(I − A)⁻¹ for a productive coefficient matrix A >= 0.

    The result dominates the identity elementwise and is nonnegative.
    Raises :class:`NonProductive` unless the certificate of
    :func:`_solve_productive` proves a spectral radius below 1 − 1e-9.
    """
    A = _square(A)
    return _solve_productive(A, np.eye(len(A)))


def quantity_model(L: np.ndarray, f: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Gross output needed to serve final demand plus exports: L @ (f + e)."""
    L = np.asarray(L, dtype=float)
    f = np.asarray(f, dtype=float)
    e = np.asarray(e, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DimensionMismatch(f"square inverse required, got shape {L.shape}")
    if f.shape != (L.shape[0],) or e.shape != (L.shape[0],):
        raise DimensionMismatch(
            f"demand columns must have length {L.shape[0]}, got {f.shape} and {e.shape}"
        )
    return L @ (f + e)
