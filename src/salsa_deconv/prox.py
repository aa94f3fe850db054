"""The l1 proximal map and the composite deconvolution objective.

The only shipped regularizer is the l1 norm on frame coefficients, whose
proximal map is the elementwise soft threshold
``sign(a) * max(|a| - t, 0)``, i.e. the minimizer of
``0.5*(a - b)^2 + t*|b|`` over ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Regularizer",
    "prox",
    "objective_from_residual",
]


@dataclass(frozen=True)
class Regularizer:
    """The l1 penalty on every frame coefficient, approximation band included.

    It has no settings: the solvers take it as their ``reg`` argument,
    and the l1 norm is the only penalty they minimize.
    """


def prox(values: np.ndarray, threshold: float,
         out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise soft threshold, the proximal map of ``threshold * |.|``.

    Computes ``sign(v) * max(|v| - threshold, 0)`` as
    ``v - clip(v, -threshold, threshold)``, into ``out`` when given and
    into a new array otherwise, leaving ``values`` untouched.  Zeros in
    the result are ``+0.0``.  ``out`` must not share memory with
    ``values``: the clip would overwrite the values it subtracts.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    values = np.asarray(values)
    if out is None:
        out = np.empty(values.shape, dtype=np.result_type(values, threshold))
    elif np.may_share_memory(values, out):
        raise ValueError("out must not share memory with values")
    np.clip(values, -threshold, threshold, out=out)
    return np.subtract(values, out, out=out)


def objective_from_residual(residual: np.ndarray, bands: np.ndarray, tau: float) -> float:
    """The objective ``0.5*||residual||^2 + tau*||bands||_1``.

    ``residual`` is the data residual ``blur(synth(bands)) - y`` of the
    coefficients ``bands``, which the solvers already hold for each
    iterate.
    """
    return 0.5 * float((residual**2).sum()) + tau * float(np.abs(bands).sum())
