"""``repro.api`` — the typed facade every layer speaks.

See :mod:`repro.api.types` for the contract dataclasses.
"""

from .types import (
    MODES,
    SCHEMA_VERSION,
    ApiError,
    CampaignRequest,
    CampaignResult,
    RunRequest,
    RunResult,
    canonical_json,
    content_hash,
)

__all__ = [
    "SCHEMA_VERSION",
    "MODES",
    "canonical_json",
    "content_hash",
    "ApiError",
    "RunRequest",
    "RunResult",
    "CampaignRequest",
    "CampaignResult",
]
