"""Input rules shared by the package's public entry points."""

from __future__ import annotations

import numbers


def check_integer(name: str, value, minimum: int | None = None) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer >= ``minimum``."""
    # a bool is an int to Python, and a float would be floored or fail deep inside
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
