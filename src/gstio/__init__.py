"""Multi-sector price and cost-of-living simulation for a multi-rate GST reform.

Pipeline in one breath: load a balanced input-output table, derive per-unit
coefficients, solve the cost-push price model with each sector's tax column
masked by its standard-rated output share, substitute the statutory rate on
value added for the old output-based tax, then push the resulting sector
price changes through household expenditure to get group-level incidence
and consumption-gap effects.
"""

from .diagnostics import (
    ProductivityReport,
    StructureDriftReport,
    mad,
    productivity_check,
    structure_drift,
    tax_to_va_ratio,
)
from .errors import (
    BasisMismatch,
    DimensionMismatch,
    EmptyGroup,
    GstioError,
    InvalidSchedule,
    InvalidShare,
    LoadError,
    MissingArtifact,
    NonPositiveBase,
    NonProductive,
    NumericalError,
    ParseError,
    SchemaError,
    Unbalanced,
    UnknownBaseGroup,
    UnknownSector,
    UnmappedItem,
    ZeroOutput,
    ZeroValueAdded,
)
from .incidence import (
    REPORTING_CATEGORIES,
    CategoryMap,
    CategoryReport,
    ExpenditureBasis,
    ExpenditureMatrix,
    GroupDimension,
    HouseholdGroup,
    category_report,
    expenditure_change,
    expenditure_change_on_items,
    gap_change_report,
    gap_ratios,
    purchasing_power_change,
)
from .ingest import (
    Concordance,
    ConcordanceLink,
    align_expenditure,
    load_category_map,
    load_concordance,
    load_expenditure,
    load_household,
    load_io_table,
    load_rate_schedule,
    map_expenditure,
    save_category_map,
    save_concordance,
    save_expenditure,
    save_io_table,
    save_rate_schedule,
)
from .io_model import (
    BALANCE_TOLERANCE,
    BalanceReport,
    CoefficientBundle,
    IOTable,
    SectorSet,
    balance_report,
    derive_coefficients,
    leontief_inverse,
    spectral_radius,
)
from .price_model import (
    MaskedInputTreatment,
    PriceChangeSummary,
    RateCategory,
    RateSchedule,
    baseline_prices,
    gst_coefficients,
    masked_inverse,
    price_change_summary,
    price_path,
    rate_mask,
    simulate_prices,
)
from .scenario import ScenarioConfig, ScenarioInputs, ScenarioResult, check_inputs, load_inputs, load_scenario
from .scenario import run_scenario, run_tables

__version__ = "0.1.0"
