"""End-to-end modeling workflow (Fig. 2), validation, faults, campaigns, reporting."""

from .. import _lazy_package

__all__, __getattr__, __dir__ = _lazy_package(__name__, names={
    ".pipeline": ("ModelingWorkflow",),
    ".campaign": ("CampaignConfig", "CampaignError", "CampaignInterrupted",
                  "CampaignReport", "CampaignRunner", "RunRecord", "expand_grid",
                  "format_campaign_report", "load_grid"),
    "..api": ("RunRequest",),
    ".supervisor": ("resolve_jobs", "run_supervised", "minimize_poison"),
    ".validation": ("validate", "ValidationPoint", "ValidationSeries",
                    "FaultSweepPoint", "FaultSweepSeries"),
    ".reporting": ("format_table", "format_validation", "format_bytes",
                   "format_resilience", "format_fault_sweep", "write_validation_csv",
                   "write_fault_sweep_csv", "write_stats_csv"),
})
