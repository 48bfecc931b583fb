"""Run-scale configuration: the enumeration cap, the one degree limit.

Full materialization of S_n grows factorially, so every walk of S_n, the
clique search's graph build included, checks the cap and refuses instead of
thrashing. The cap can be overridden per call or with the environment
variable ``CYCLEINT_ENUMERATION_CAP``.
"""

from __future__ import annotations

import os

DEFAULT_ENUMERATION_CAP = 7

ENUMERATION_CAP_ENV = "CYCLEINT_ENUMERATION_CAP"


def enumeration_cap(override: int | None = None) -> int:
    """Largest degree for which S_n may be fully materialized: the override
    if given, which must be an ``int`` (a ``bool`` is not), else the
    environment variable, else the default."""
    if override is not None:
        if not isinstance(override, int) or isinstance(override, bool):
            raise ValueError(f"enumeration cap must be an integer, got {override!r}")
        if override < 1:
            raise ValueError("enumeration cap must be positive")
        return override
    raw = os.environ.get(ENUMERATION_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENUMERATION_CAP_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{ENUMERATION_CAP_ENV} must be positive, got {value}")
    return value
