"""Observability: dual-clock tracing, metrics, logging, and trace analysis.

The measurement spine of the reproduction (the paper's methodology is
measurement all the way down — timer runs fit the w_i, and the
simulators are judged on their own time/memory trajectories):

* :mod:`repro.obs.spans` — span tracing on two clocks: host wall time
  (what the simulator costs) and simulated virtual time (what the
  target costs).  Disabled by default; zero-cost when off.
* :mod:`repro.obs.metrics` — process-wide registry of labeled
  counters/gauges/histograms with in-memory, JSONL and table sinks.
* :mod:`repro.obs.logging` — structured logging behind ``-v``.
* :mod:`repro.obs.perfetto` — Chrome/Perfetto trace-event export of
  simulation traces and host spans (open in ``ui.perfetto.dev``).
* :mod:`repro.obs.critical_path` — which events determine
  ``SimStats.elapsed``, decomposed per rank and kind.
* :mod:`repro.obs.scaling` — ScalAna-style scaling-loss detection by
  diffing traces across processor counts.
* :mod:`repro.obs.comm_matrix` — rank×rank message/byte matrix.
* :mod:`repro.obs.capsule` — per-run telemetry capsules that ship
  spans/metrics/stats across process boundaries (``--jobs`` workers).
* :mod:`repro.obs.merge` — fuses capsules into one campaign-level
  Perfetto timeline and aggregate metric snapshot.

Surfaced on the command line as ``python -m repro profile`` and
``python -m repro inspect``.  Each name below loads its module on first
use, so a run that only traces and counts never loads the analyses.
"""

from .. import _lazy_package

__all__, __getattr__, __dir__ = _lazy_package(__name__, names={
    ".spans": ("TRACER", "Tracer", "Span", "format_spans"),
    ".metrics": ("METRICS", "MetricsRegistry", "Counter", "Gauge", "Histogram",
                 "InMemorySink", "JsonlSink", "TableSink"),
    ".logging": ("get_logger", "configure_logging", "verbosity_to_level"),
    ".perfetto": ("perfetto_document", "trace_to_events", "spans_to_events",
                  "write_perfetto", "validate_perfetto"),
    ".critical_path": ("critical_path", "CriticalPathReport", "PathStep",
                       "format_critical_path"),
    ".scaling": ("detect_scaling_loss", "ScalingEntry", "ScalingLossReport",
                 "format_scaling_loss"),
    ".comm_matrix": ("comm_matrix", "CommMatrix", "format_comm_matrix"),
    ".capsule": ("TelemetryCapsule", "capture_run", "load_capsules", "CAPSULE_FORMAT"),
    ".merge": ("merge_capsules", "aggregate_metrics", "write_merged_perfetto",
               "format_campaign_timeline"),
})
