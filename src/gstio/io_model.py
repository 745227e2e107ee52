"""Input-output table model, its coefficients and the Leontief inverse.

The accounting identity behind everything here is

    x = Z·1 + f + e        (row balance: output = intermediate sales + final demand + exports)
    x = 1'Z + labor + capital + imports + indirect_tax   (column balance: output = input costs)

Per-unit coefficients follow as A = Z x̂⁻¹ and the primary-input rows divided
by x. A productive A (spectral radius < 1) admits the Leontief inverse
L = (I − A)⁻¹, which converts final demand into gross output: x = L(f + e).

The productivity gate, :func:`productivity_check`, changes no result; it is
the check to run before trusting one. It decides whether the price system
A'B̂ is productive by the rule of the solve kernel, :class:`_LiveBlock`, that
solves it, so a table the gate passes is one the price model can solve.

All containers are frozen dataclasses over read-only numpy arrays, so every
operation is a pure function and instances can be shared across threads.
Records that hold arrays compare by identity, as an array has no single
truth value, and hash by it too; the others compare by value.

A bundle's A is scanned once. When :class:`CoefficientBundle` checks A's
range it takes A's row minima and maxima, and keeps them, keyed by the
identity of that A, until A itself dies. Every reader of A'B̂ that is handed
that very array (the productivity gate, each mask's live block, the baseline
solve) reuses them; any other array is scanned on each call. This relies on
a bundle's arrays staying read-only, as the price model's memo does too. An
unpickled bundle keeps no extremes and is simply scanned.
"""

from __future__ import annotations

import weakref
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonProductive, Unbalanced, ZeroOutput

# Published IO tables carry rounding; this is the slack on the accounting
# identities (relative to each sector's gross output).
BALANCE_TOLERANCE = 1e-6

PRODUCTIVITY_EPSILON = 1e-9

# Power iteration stops once its Collatz–Wielandt bracket of the spectral
# radius closes to this relative width, or reports it open after the cap.
POWER_TOLERANCE = 1e-9
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


@dataclass(frozen=True, eq=False)
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
        balance_report(self).check(self.sectors)


# A's row minima and maxima, 2 × n, for each live bundle's A, by id(A); an
# array cannot be hashed, only weakly referenced, so the entry goes with A.
_row_extremes: dict[int, np.ndarray] = {}


def _row_ends(C: np.ndarray) -> np.ndarray:
    """C's row minima and maxima, 2 × n."""
    return np.stack([C.min(axis=1), C.max(axis=1)])


@dataclass(frozen=True, eq=False)
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
        extremes = _row_ends(self.A)  # A's range is theirs: _frozen refused non-finite entries
        for name in ("A", "labor", "capital", "imports", "indirect_tax"):
            arr = extremes if name == "A" else getattr(self, name)
            if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
                raise DimensionMismatch(f"coefficients in {name} must lie in [0, 1]")
        _row_extremes[id(self.A)] = extremes
        weakref.finalize(self.A, _row_extremes.pop, id(self.A), None)

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


@dataclass(frozen=True, eq=False)
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

    def check(self, sectors: SectorSet, *, path=None, lines=None) -> None:
        """Raise :class:`Unbalanced`, naming the worst sectors, beyond BALANCE_TOLERANCE.

        Given the file ``path`` and each sector's line in it, the error is
        placed at the OUTPUT cell of the sector with the largest residual.
        """
        if not self.within(BALANCE_TOLERANCE):
            place = {}
            if path is not None:
                worst = int(np.maximum(self.row_residuals, self.column_residuals).argmax())
                place = dict(path=path, line=lines[worst], column=len(sectors) + 5)
            raise Unbalanced(
                "table violates balance at relative tolerance "
                f"{BALANCE_TOLERANCE:g} (worst row residual {self.max_row_residual:.3e} "
                f"at sector {sectors.ids[self.worst_row_sector]}, "
                f"worst column residual {self.max_column_residual:.3e} "
                f"at sector {sectors.ids[self.worst_column_sector]})",
                **place,
            )


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


def _system(M, mask=None) -> tuple[np.ndarray, np.ndarray]:
    """M as a nonempty square float matrix, and ``mask`` as its n diagonal entries (all ones when None)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise DimensionMismatch(f"nonempty square matrix required, got shape {M.shape}")
    mask = np.ones(len(M)) if mask is None else np.asarray(mask, dtype=float)
    if mask.shape != (len(M),):
        raise DimensionMismatch(f"mask must have {len(M)} diagonal entries, got {mask.shape}")
    return M, mask


def spectral_radius(M: np.ndarray) -> tuple[float, int, bool]:
    """Bound the spectral radius of a square matrix M >= 0 by power iteration.

    Returns ``(radius, iterations, converged)``: the lower end of the
    Collatz–Wielandt bracket of :func:`_perron_bracket`, the steps taken and
    whether the bracket closed, in which case the radius is ρ(M) to
    POWER_TOLERANCE relative. Raises :class:`DimensionMismatch` for entries
    below −1e-12, as the solve kernel does; for M with an entry in
    [−1e-12, 0) no bracket is proven and the result is ``(0.0, 0, False)``.
    """
    M, ones = _system(M)
    bracket = _perron_bracket(M.T, ones)
    if bracket.lowest < -1e-12:
        raise DimensionMismatch("matrix entries must be nonnegative")
    return bracket.lo, bracket.iterations, bracket.closed


class _Bracket(NamedTuple):
    """What :func:`_perron_bracket` proves about M = Cᵀ diag(m)."""

    lowest: float  # M's least entry, exactly (nan if M holds one)
    row_bound: float  # ‖M‖∞ = max(M·1) when lowest >= 0
    lo: float  # lo <= ρ(M) <= hi
    hi: float
    iterations: int
    closed: bool  # hi − lo <= POWER_TOLERANCE·hi


def _column_ends(C: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ends of each column of M = Cᵀ diag(m), 2 × n, and which columns are nonzero.

    The ends are m × C's row extremes: those its bundle took when C is a
    bundle's A, else a scan of C, so a caller's own array is read as it is now.
    """
    extremes = _row_extremes.get(id(C))
    ends = m * (_row_ends(C) if extremes is None else extremes)
    return ends, ends.any(axis=0)


def _perron_bracket(C: np.ndarray, m: np.ndarray) -> _Bracket:
    """Collatz–Wielandt bracket of ρ(M) for M = Cᵀ diag(m), without forming M.

    For M >= 0 and any v > 0, min (Mv)ᵢ/vᵢ <= ρ(M) <= max (Mv)ᵢ/vᵢ, reducible
    M included (Berman & Plemmons 1994, ch. 2). Power iteration from v = 1
    intersects these brackets at every step, (Mv)ᵢ = Σⱼ C_ji m_j v_j, and
    stops once the bracket closes to POWER_TOLERANCE relative, fails to
    tighten for 2 steps (a periodic M), v underflows, or POWER_MAX_ITERATIONS
    is reached. The first step's upper end is ‖M‖∞.

    Column j of M is m_j times row j of C, so m_j × [row min, row max] of C
    (:func:`_column_ends`) are its extreme entries, exactly, and show a nan or
    ±inf of the row; the column is nonzero iff an end is. :class:`_LiveBlock`
    reads M the same way. Without M >= 0 the bracket is [0, inf) after 0 steps.

    The iteration runs on a core K of M, gathered as the rows K of C, with
    the same ρ: a zero column or a zero row of M is peeled with its partner
    row or column, which leaves M block triangular with a zero diagonal
    block. Peeling the zero rows, until none is left, keeps Mv > 0.
    """
    ends, nonzero = _column_ends(C, m)
    lowest = float(ends.min())
    if not lowest >= 0.0:
        return _Bracket(lowest, np.inf, 0.0, np.inf, 0, False)
    core = np.flatnonzero(nonzero)
    rows = C if len(core) == len(m) else C.take(core, axis=0)
    sums = m[core] @ rows  # M·1, as the other columns of M are zero
    row_bound = float(sums.max())
    if not np.isfinite(row_bound):
        return _Bracket(lowest, row_bound, 0.0, np.inf, 0, False)
    w = sums[core]
    while not np.all(w > 0):  # peel the zero rows of M_KK, with their columns
        keep = w > 0
        core, rows = core[keep], rows[keep]
        w = (m[core] @ rows)[core]
    if not len(core):
        return _Bracket(lowest, row_bound, 0.0, 0.0, 0, True)
    weights, v = m[core], np.ones(len(core))
    lo, hi, stalled = 0.0, np.inf, 0
    for iterations in range(1, POWER_MAX_ITERATIONS + 1):
        ratios = w / v
        bracket = max(lo, float(ratios.min())), min(hi, float(ratios.max()))
        stalled = stalled + 1 if bracket == (lo, hi) else 0
        lo, hi = bracket
        if hi - lo <= POWER_TOLERANCE * hi or stalled == 2:
            break
        v = w / w.max()
        if not v.min() > 0.0:  # underflow: a ratio needs v > 0
            break
        w = ((weights * v) @ rows)[core]
    return _Bracket(lowest, row_bound, lo, hi, iterations, hi - lo <= POWER_TOLERANCE * hi)


class _LiveBlock:
    """I − M over the live columns of M = Cᵀ diag(m), built once and solved for any right-hand side.

    Building it reads M as :func:`_perron_bracket` does, and raises
    :class:`DimensionMismatch` for entries below −1e-12, for which the
    certificate x below proves nothing. :meth:`solve` solves (I − M) y = rhs
    and certifies ρ(M) < 1 − PRODUCTIVITY_EPSILON, or raises :class:`NonProductive`.

    For M >= 0, I − M is a nonsingular M-matrix (ρ(M) < 1) iff
    x = (I − M)⁻¹1 > 0 (Berman & Plemmons 1994, ch. 6); x is one more
    right-hand side of the same factorization. By Collatz–Wielandt
    ρ(M) <= 1 − 1/max(x), so max(x) < 1/ε proves ρ(M) < 1 − ε.

    Only the live block is factorised. Let S be the columns of M with a
    nonzero entry and Z the rest (a zero-rated or exempt sector of A'B̂).
    Unknown y_Z enters no equation, so (I − M_SS) y_S = rhs_S is solved alone
    and y_Z = rhs_Z + M_ZS y_S follows by one product. The verdict is
    unchanged: M is block triangular with a zero Z column block, so
    ρ(M) = ρ(M_SS), and the certificate rows x_Z = 1 + M_ZS x_S >= 1 add
    nothing the test on x_S does not already decide. With every column live
    this is the plain solve of I − M.
    """

    def __init__(self, C: np.ndarray, m: np.ndarray):
        self.n = len(m)
        nonzero = _column_ends(C, m)[1]
        live, dead = np.flatnonzero(nonzero), np.flatnonzero(~nonzero)
        weights = m[live]
        # M_SSᵀ and a row-major M_ZS from the live rows of C; their signs are
        # checked entry by entry, as a nan in a row of C hides that row's ends
        block = (C[np.ix_(live, live)] if dead.size else C) * weights[:, np.newaxis]
        coupling = np.multiply(C[np.ix_(live, dead)].T, weights, order="C")
        if np.any(block < -1e-12) or np.any(coupling < -1e-12):
            raise DimensionMismatch("matrix entries must be nonnegative")
        np.subtract(0.0, block, out=block)  # 0 − x, not −x: a zero stays +0, as in I − M_SS
        block.flat[:: len(live) + 1] += 1.0
        self.live, self.dead, self.block, self.coupling = live, dead, block.T, coupling

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """y with (I − M) y = rhs, for rhs of n rows; raises :class:`NonProductive`."""
        rhs = np.asarray(rhs, dtype=float)
        solution = np.column_stack([rhs, np.ones(self.n)])
        try:
            solved = np.linalg.solve(self.block, solution[self.live])
        except np.linalg.LinAlgError as exc:
            raise NonProductive(f"(I - M) is singular: {exc}") from exc
        solution[self.live] = solved
        # One matrix-vector product per column: BLAS may round a column of a
        # matrix product differently when other columns sit beside it, and a
        # stacked right-hand side should get the rows Z it would get alone.
        solution[self.dead] += np.stack([self.coupling @ column for column in solved.T], axis=1)
        certificate = solution[:, -1]
        if not (np.all(certificate > 0) and certificate.max() < 1.0 / PRODUCTIVITY_EPSILON):
            raise NonProductive(
                f"spectral radius not provably < 1 - {PRODUCTIVITY_EPSILON:g}: (I - M)^-1 1 spans "
                f"[{certificate.min():.6g}, {certificate.max():.6g}], outside (0, {1 / PRODUCTIVITY_EPSILON:g})"
            )
        return solution[:, :-1].reshape(rhs.shape).copy()  # C-contiguous, without the certificate


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
    kernel's certificate. Otherwise asks the kernel, :class:`_LiveBlock`,
    itself, which raises :class:`DimensionMismatch` for entries below
    −1e-12. A tighter upper end proves ρ(M) < 1 − 1e-9 but not the kernel's
    bound on x (M = [[0.5, 1e10], [1e-12, 0.25]] has ρ ≈ 0.535 and
    x₁ ≈ 2.7e10), so it decides nothing.

    M is never formed: the bracket and the kernel both read A'B̂ from A and
    the mask (see :func:`_perron_bracket`), and the bracket iterates only
    over its core. Given a bundle's own A, both reuse the row extremes the
    bundle took, so only the mask's live rows are read; any other array is
    scanned for its extremes on each call.
    """
    A, m = _system(A, mask)
    bracket = _perron_bracket(A, m)
    passed = bracket.lowest >= 0.0 and bracket.row_bound < 1.0 - PRODUCTIVITY_EPSILON
    if not passed:
        with suppress(NonProductive):
            _LiveBlock(A, m).solve(np.empty((len(A), 0)))
            passed = True
    return ProductivityReport(bracket.lo, passed, bracket.iterations, bracket.closed, (bracket.lo, bracket.hi))


def leontief_inverse(A: np.ndarray) -> np.ndarray:
    """(I − A)⁻¹ for a productive coefficient matrix A >= 0.

    The result dominates the identity elementwise and is nonnegative.
    Raises :class:`NonProductive` unless the solve kernel's certificate
    (see :class:`_LiveBlock`) proves a spectral radius below 1 − 1e-9.
    """
    A, ones = _system(A)
    return _LiveBlock(A.T, ones).solve(np.eye(len(A)))

