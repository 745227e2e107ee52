"""Shared fixtures builders and independent oracles for the test suite.

The oracles deliberately avoid the library's solution paths: inverses are
checked against truncated power series, price solutions against fixed-point
iteration, and spectral radii against dense eigenvalues. Set-ups are built
*from* known coefficients so derivations can be checked by round trip.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

import numpy as np

from gstio import CoefficientBundle, IOTable, RateCategory, RateSchedule, SectorSet

# The three-sector worked example, printed in transposed layout: row i holds
# sector i's input recipe (columns Agr/Ind/Ser) plus its exogenous cost
# coefficients; every row sums to exactly 1.
APPENDIX_AT = np.array(
    [
        [0.06, 0.11, 0.12],
        [0.07, 0.25, 0.12],
        [0.01, 0.12, 0.28],
    ]
)
APPENDIX_TAX = np.array([0.01, 0.01, 0.01])
APPENDIX_VALUE_ADDED = np.array([0.60, 0.27, 0.48])
APPENDIX_IMPORTS = np.array([0.10, 0.28, 0.10])

# Printed inverses (2 decimals) for masks diag(0,1,1) and diag(0.5,1,1).
APPENDIX_INVERSE_ZERO = np.array(
    [
        [1.00, 0.18, 0.20],
        [0.00, 1.36, 0.23],
        [0.00, 0.22, 1.42],
    ]
)
APPENDIX_INVERSE_HALF = np.array(
    [
        [1.04, 0.18, 0.20],
        [0.05, 1.36, 0.24],
        [0.02, 0.23, 1.43],
    ]
)

# Bipartite (hence periodic) coefficient matrices with spectral radius
# sqrt(1.15) ≈ 1.072 and sqrt(1.2) ≈ 1.095. Power iteration from the ones
# vector oscillates on both and its last ratio (0.9 and 0.6) reads productive.
BIPARTITE_A = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.5], [0.9, 0.5, 0.0]])
BIPARTITE_2X2 = np.array([[0.0, 2.0], [0.6, 0.0]])

APPENDIX_SECTORS = SectorSet(
    ids=("agr", "ind", "ser"), names=("Agriculture", "Industry", "Services")
)


def appendix_table(x_scale: float = 100.0) -> IOTable:
    """Flow table built by scaling the appendix coefficients by gross output."""
    A = APPENDIX_AT.T
    x = np.full(3, x_scale)
    Z = A * x[np.newaxis, :]
    return IOTable(
        sectors=APPENDIX_SECTORS,
        Z=Z,
        f=x - Z.sum(axis=1),
        e=np.zeros(3),
        labor=np.zeros(3),
        capital=APPENDIX_VALUE_ADDED * x,
        imports=APPENDIX_IMPORTS * x,
        indirect_tax=APPENDIX_TAX * x,
        x=x,
    )


def appendix_bundle() -> CoefficientBundle:
    return CoefficientBundle(
        sectors=APPENDIX_SECTORS,
        A=APPENDIX_AT.T,
        labor=np.zeros(3),
        capital=APPENDIX_VALUE_ADDED,
        imports=APPENDIX_IMPORTS,
        indirect_tax=APPENDIX_TAX,
    )


def appendix_schedule(agr_share: float = 0.0, gst_rate: float = 0.06) -> RateSchedule:
    """Agr zero-rated (optionally with a standard-rated share), Ind/Ser standard."""
    return RateSchedule(
        sectors=APPENDIX_SECTORS,
        categories=(
            RateCategory.ZERO_RATED,
            RateCategory.STANDARD_RATED,
            RateCategory.STANDARD_RATED,
        ),
        standard_share=np.array([agr_share, 1.0, 1.0]),
        gst_rate=gst_rate,
    )


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def power_series_inverse(M: np.ndarray, tol: float = 1e-12, max_terms: int = 100000) -> np.ndarray:
    """(I − M)⁻¹ as the truncated series Σ M^k, stopped at ‖M^k‖_∞ < tol."""
    M = np.asarray(M, dtype=float)
    total = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for _ in range(max_terms):
        term = term @ M
        total = total + term
        if np.abs(term).max() < tol:
            return total
    raise AssertionError("power series did not converge; matrix not productive enough for oracle")


def fixed_point_prices(M: np.ndarray, costs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Solve p = M p + costs by plain fixed-point iteration."""
    p = np.array(costs, dtype=float)
    for _ in range(100000):
        nxt = M @ p + costs
        if np.abs(nxt - p).max() < tol:
            return nxt
        p = nxt
    raise AssertionError("fixed-point iteration did not converge")


def table_from_coefficients(
    A: np.ndarray,
    labor: np.ndarray,
    capital: np.ndarray,
    imports: np.ndarray,
    indirect_tax: np.ndarray,
    x: np.ndarray,
    sectors: SectorSet | None = None,
) -> IOTable:
    """Back out a balanced flow table from known coefficients and outputs.

    Flows are Z = A x̂ and primary rows are coefficients × x; final demand
    absorbs the row remainder (it may go negative, which the table allows).
    """
    n = len(x)
    if sectors is None:
        sectors = SectorSet.from_ids(tuple(f"s{i + 1}" for i in range(n)))
    Z = A * x[np.newaxis, :]
    return IOTable(
        sectors=sectors,
        Z=Z,
        f=x - Z.sum(axis=1),
        e=np.zeros(n),
        labor=labor * x,
        capital=capital * x,
        imports=imports * x,
        indirect_tax=indirect_tax * x,
        x=x,
    )


def random_coefficients(rng: np.random.Generator, n: int, max_column_sum: float = 0.7):
    """Random productive coefficient set with columns summing exactly to 1."""
    A = rng.uniform(0.0, 1.0, size=(n, n))
    targets = rng.uniform(0.1, max_column_sum, size=n)
    A *= targets / A.sum(axis=0)
    remainder = 1.0 - A.sum(axis=0)
    split = rng.dirichlet(np.ones(4), size=n).T * remainder
    labor, capital, imports, indirect_tax = split
    return A, labor, capital, imports, indirect_tax


def random_balanced_table(rng: np.random.Generator, n: int) -> IOTable:
    A, labor, capital, imports, indirect_tax = random_coefficients(rng, n)
    x = rng.uniform(50.0, 500.0, size=n)
    return table_from_coefficients(A, labor, capital, imports, indirect_tax, x)


def random_bundle_and_schedule(
    rng: np.random.Generator, n: int, max_column_sum: float = 0.75
) -> tuple[CoefficientBundle, RateSchedule]:
    """Random productive bundle plus a mask mixing zero, full and fractional shares."""
    A, labor, capital, imports, indirect_tax = random_coefficients(rng, n, max_column_sum)
    sectors = SectorSet.from_ids(tuple(f"s{i + 1}" for i in range(n)))
    bundle = CoefficientBundle(
        sectors=sectors,
        A=A,
        labor=labor,
        capital=capital,
        imports=imports,
        indirect_tax=indirect_tax,
    )
    shares = np.empty(n)
    categories = []
    for i in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            shares[i] = 0.0
            categories.append(RateCategory.ZERO_RATED)
        elif kind == 1:
            shares[i] = 1.0
            categories.append(RateCategory.STANDARD_RATED)
        else:
            shares[i] = rng.uniform(0.0, 1.0)
            categories.append(RateCategory.STANDARD_RATED)
    schedule = RateSchedule(
        sectors=sectors,
        categories=tuple(categories),
        standard_share=shares,
        gst_rate=float(rng.uniform(0.0, 0.2)),
    )
    return bundle, schedule


def one_total_per_group(run_dir: Path) -> dict[str, str]:
    """Assert that every category table's TOTAL row in ``run_dir`` repeats its group's
    ``incidence_by_group.csv`` row cell for cell; return each group's ``total_before`` cell."""

    def rows(name: str) -> list[list[str]]:
        return list(csv.reader((run_dir / name).read_text(encoding="utf-8").splitlines()))[1:]

    incidence = {group_id: [group_id, label, *totals] for _, group_id, label, *totals in rows("incidence_by_group.csv")}
    for table in sorted(run_dir.glob("category_table_*.csv")):
        for group_id, label, category, before, after, _, pct in rows(table.name):
            if category == "TOTAL":
                assert [group_id, label, before, after, pct] == incidence[group_id], table
    return {group_id: row[2] for group_id, row in incidence.items()}


def header_only_io_table(n: int) -> str:
    """The text of an IO table whose header names ``n`` sectors, and which has no row."""
    ids = (f"s{i}" for i in range(n))
    return ",".join(["sector_id", "sector_name", *ids, "FINAL_DEMAND", "EXPORTS", "OUTPUT"]) + "\n"


def write_expenditure_past_memory(monkeypatch, path: Path) -> None:
    """Write 100,000 rows to ``path``, each bringing in a new group and a new item, so that they ask for an
    80 GB dense matrix; report 8 GiB of physical memory, and make ``np.bincount``, which would fill that
    matrix, fail if it is called, so a refusal never relies on the allocation failing."""

    def no_bincount(*args, **kwargs):
        raise AssertionError("the expenditure matrix was allocated")

    monkeypatch.setattr(np, "bincount", no_bincount)
    report_physical_memory(monkeypatch, 8 * 2**30)
    rows = "".join(f"g{i},income,l,i{i},1\n" for i in range(100_000))
    path.write_text("group_id,dimension,label,item_code,amount\n" + rows, encoding="utf-8")


def report_physical_memory(monkeypatch, size: int) -> None:
    """Make ``os.sysconf`` report ``size`` bytes of physical memory, in pages of one byte."""
    sysconf, pages = os.sysconf, {"SC_PHYS_PAGES": size, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name] if name in pages else sysconf(name))
