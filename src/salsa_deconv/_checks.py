"""Input rules shared by the package's public entry points."""

from __future__ import annotations

import numbers

import numpy as np


def check_integer(name: str, value, minimum: int | None = None) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer >= ``minimum``."""
    # a bool is an int to Python, and a float would be floored or fail deep inside
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value: float, bound: str | None = None) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite real and, for a
    ``bound`` of ``"nonnegative"`` or ``"positive"``, is >= 0 or > 0."""
    # as in check_integer: a bool is not a setting's number, and a str or None
    # would fail in numpy with a TypeError that names no setting
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if (bound == "nonnegative" and value < 0) or (bound == "positive" and value <= 0):
        raise ValueError(f"{name} must be {bound}, got {value}")


def as_float(name: str, array) -> np.ndarray:
    """``array`` in a solver's working precision: float32 stays float32, anything else
    becomes float64 (a float64 array is returned as it is).  Raises ``ValueError``
    naming ``name`` for a complex ``array``, whose imaginary part the cast would drop."""
    if np.iscomplexobj(array):
        raise ValueError(f"{name} must be real, got {np.asarray(array).dtype}")
    if getattr(array, "dtype", None) == np.float32:
        return np.asarray(array)
    return np.asarray(array, dtype=float)


def check_image_shape(name: str, image) -> np.ndarray:
    """``image`` as a float array by :func:`as_float`; raises ``ValueError`` naming it
    unless 2-D and not empty.

    A float32 image stays float32, so that the solvers iterate in float32
    on it; any other image becomes float64.
    """
    image = as_float(name, image)
    if image.ndim != 2:
        raise ValueError(f"{name} must be a 2-D image, got shape {image.shape}")
    if image.size == 0:
        raise ValueError(f"{name} is empty, got shape {image.shape}")
    return image


def check_image(name: str, image) -> np.ndarray:
    """:func:`check_image_shape`, and a ``ValueError`` naming ``image`` unless all finite."""
    image = check_image_shape(name, image)
    if not np.isfinite(image).all():
        raise ValueError(f"{name} holds NaN or inf values")
    return image
