"""Regularizer proximal maps and the composite deconvolution objective.

The only shipped regularizer is the l1 norm on frame coefficients, whose
proximal map is the elementwise soft threshold
``sign(a) * max(|a| - t, 0)``, i.e. the minimizer of
``0.5*(a - b)^2 + t*|b|`` over ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convolution import _filter_real, _half_spectrum
from .frame import FrameCoeffs, FrameSpec, synthesis

__all__ = [
    "Regularizer",
    "soft_threshold",
    "prox",
    "objective",
    "objective_from_residual",
]


@dataclass(frozen=True)
class Regularizer:
    """The l1 penalty on frame coefficients.

    ``threshold_approx`` controls whether the coarse approximation
    subband is shrunk along with the details (the default).  Disabling
    it changes the effective penalty to the l1 norm of the detail bands
    only; :func:`objective` always reports the full l1 value.
    """

    threshold_approx: bool = True


def soft_threshold(values: np.ndarray, threshold: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise soft threshold, the proximal map of ``threshold * |.|``.

    Computes ``sign(v) * max(|v| - threshold, 0)`` as
    ``v - clip(v, -threshold, threshold)``, into ``out`` when given and
    into a new array otherwise, leaving ``values`` untouched.  Zeros in
    the result are ``+0.0``.  ``out`` must not share memory with
    ``values``: the clip would overwrite the values it subtracts.
    """
    values = np.asarray(values)
    if out is None:
        out = np.empty(values.shape, dtype=np.result_type(values, threshold))
    elif np.may_share_memory(values, out):
        raise ValueError("out must not share memory with values")
    np.clip(values, -threshold, threshold, out=out)
    return np.subtract(values, out, out=out)


def prox(reg: Regularizer, coeffs: FrameCoeffs, threshold: float,
         out: np.ndarray | None = None) -> FrameCoeffs:
    """Proximal map of ``threshold * phi`` applied to frame coefficients.

    ``out``, when given, receives the coefficient stack (see
    :func:`soft_threshold`).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    out = soft_threshold(coeffs.bands, threshold, out)
    if not reg.threshold_approx:
        out[-1] = coeffs.bands[-1]
    return FrameCoeffs(coeffs.levels, out)


def objective(y: np.ndarray, otf: np.ndarray, spec: FrameSpec,
              coeffs: FrameCoeffs, tau: float) -> float:
    """Composite objective 0.5*||blur(synth(coeffs)) - y||^2 + tau*||coeffs||_1."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if y.shape != otf.shape or y.shape != coeffs.shape:
        raise ValueError(
            f"inconsistent shapes: y {y.shape}, otf {otf.shape}, coeffs {coeffs.shape}"
        )
    residual = _filter_real(_half_spectrum(otf), synthesis(coeffs, spec)) - y
    return objective_from_residual(residual, coeffs.bands, tau)


def objective_from_residual(residual: np.ndarray, bands: np.ndarray, tau: float) -> float:
    """The objective given the data residual ``blur(synth(bands)) - y``.

    Solvers that already hold the residual of an iterate call this
    instead of :func:`objective`; both give bitwise the same value.
    """
    return 0.5 * float((residual**2).sum()) + tau * float(np.abs(bands).sum())
