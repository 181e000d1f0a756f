"""MPI-Sim core: discrete-event kernel, statistics, memory, tracing, faults."""

from .. import _lazy_package

__all__, __getattr__, __dir__ = _lazy_package(__name__, names={
    ".engine": ("Simulator", "SimResult", "ExecMode", "DeadlockError",
                "CollectiveMismatchError"),
    ".budget": ("BudgetExceededError", "BudgetGuard"),
    ".flightrec": ("FLIGHT", "FlightRecorder", "format_flight_dump"),
    ".heartbeat": ("HEARTBEAT", "HeartbeatEmitter"),
    ".faults": ("FaultPlan", "FaultState", "CrashFault", "LinkDegradation",
                "RetryPolicy", "DeadlockReport", "WaitInfo"),
    ".requests": ("TimedOut", "SendFailed", "Request", "Compute", "Delay", "Send",
                  "Recv", "Isend", "Irecv", "Wait", "RequestHandle", "Collective",
                  "Alloc", "Free", "Now", "ReceivedMessage", "CollectiveResult",
                  "ANY_SOURCE", "ANY_TAG"),
    ".memory": ("MemoryTracker", "MemoryReport"),
    ".stats": ("ProcessStats", "SimStats"),
    ".trace": ("Trace", "TraceEvent"),
    ".trace_io": ("save_trace", "load_trace"),
})
