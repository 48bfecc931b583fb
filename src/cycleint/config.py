"""Run-scale configuration: the enumeration and search caps.

Full materialization of S_n grows factorially, so the table of S_n and the
clique search check a cap and refuse instead of thrashing. Caps can be
overridden per call or with environment variables.
"""

from __future__ import annotations

import os

DEFAULT_ENUMERATION_CAP = 7
DEFAULT_SEARCH_CAP = 6

ENUMERATION_CAP_ENV = "CYCLEINT_ENUMERATION_CAP"
SEARCH_CAP_ENV = "CYCLEINT_SEARCH_CAP"


def _cap_from_env(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def enumeration_cap(override: int | None = None) -> int:
    """Largest degree for which S_n may be fully materialized."""
    if override is not None:
        if override < 1:
            raise ValueError("enumeration cap must be positive")
        return override
    return _cap_from_env(ENUMERATION_CAP_ENV, DEFAULT_ENUMERATION_CAP)


def search_cap(override: int | None = None) -> int:
    """Largest degree admitted to clique search without a time budget."""
    if override is not None:
        if override < 1:
            raise ValueError("search cap must be positive")
        return override
    return _cap_from_env(SEARCH_CAP_ENV, DEFAULT_SEARCH_CAP)

