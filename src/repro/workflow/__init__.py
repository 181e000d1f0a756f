"""End-to-end modeling workflow (Fig. 2), validation, faults, campaigns, reporting."""

from ..api import RunRequest
from .campaign import (
    CampaignConfig,
    CampaignError,
    CampaignInterrupted,
    CampaignReport,
    CampaignRunner,
    RunRecord,
    expand_grid,
    format_campaign_report,
    load_grid,
)
from .pipeline import ModelingWorkflow
from .supervisor import minimize_poison, resolve_jobs, run_supervised
from .reporting import (
    format_bytes,
    format_fault_sweep,
    format_resilience,
    format_table,
    format_validation,
    write_fault_sweep_csv,
    write_stats_csv,
    write_validation_csv,
)
from .validation import (
    FaultSweepPoint,
    FaultSweepSeries,
    ValidationPoint,
    ValidationSeries,
    validate,
)

__all__ = [
    "ModelingWorkflow",
    "CampaignConfig",
    "CampaignError",
    "CampaignInterrupted",
    "CampaignReport",
    "CampaignRunner",
    "RunRecord",
    "RunRequest",
    "expand_grid",
    "format_campaign_report",
    "load_grid",
    "resolve_jobs",
    "run_supervised",
    "minimize_poison",
    "validate",
    "ValidationPoint",
    "ValidationSeries",
    "FaultSweepPoint",
    "FaultSweepSeries",
    "format_table",
    "format_validation",
    "format_bytes",
    "format_resilience",
    "format_fault_sweep",
    "write_validation_csv",
    "write_fault_sweep_csv",
    "write_stats_csv",
]
