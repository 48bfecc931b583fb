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


def _cap(override: int | None, what: str, env: str, default: int) -> int:
    """The override if given, else the environment variable, else the default."""
    if override is not None:
        if override < 1:
            raise ValueError(f"{what} cap must be positive")
        return override
    raw = os.environ.get(env)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{env} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{env} must be positive, got {value}")
    return value


def enumeration_cap(override: int | None = None) -> int:
    """Largest degree for which S_n may be fully materialized."""
    return _cap(override, "enumeration", ENUMERATION_CAP_ENV, DEFAULT_ENUMERATION_CAP)


def search_cap(override: int | None = None) -> int:
    """Largest degree admitted to clique search without a time budget."""
    return _cap(override, "search", SEARCH_CAP_ENV, DEFAULT_SEARCH_CAP)
