"""The l1 proximal map and the composite deconvolution objective.

The only shipped regularizer is the l1 norm on frame coefficients, whose
proximal map is the elementwise soft threshold
``sign(a) * max(|a| - t, 0)``, i.e. the minimizer of
``0.5*(a - b)^2 + t*|b|`` over ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["Regularizer", "prox"]


@dataclass(frozen=True)
class Regularizer:
    """The l1 penalty on every frame coefficient, approximation band included.

    It has no settings: the solvers take it as their ``reg`` argument,
    and the l1 norm is the only penalty they minimize.
    """


# Elements in one block of the blocked passes: 2**15 float64 values are
# 256 KiB, so a block read by one pass is still in a 2 MiB L2 cache when
# the next pass over it reads it again.
_BLOCK = 1 << 15


def _blocks(*arrays: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """Matching flat slices of at most ``_BLOCK`` elements of same-shape arrays.

    The slices are views of C-contiguous arrays; any other array is read
    from a flattened copy.
    """
    flat = [a.reshape(-1) for a in arrays]
    for start in range(0, flat[0].size, _BLOCK):
        yield tuple(f[start:start + _BLOCK] for f in flat)


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


def _l1(bands: np.ndarray) -> float:
    """``||bands||_1``, summed block by block through a block-sized scratch."""
    scratch = np.empty(min(bands.size, _BLOCK))
    total = 0.0
    for (block,) in _blocks(bands):
        total += float(np.abs(block, out=scratch[:block.size]).sum())
    return total


def _sweep(values: np.ndarray, addend: np.ndarray, threshold: float, out: np.ndarray,
           keep_clip: bool = False, prev: np.ndarray | None = None,
           weight: float = 0.0) -> float:
    """A solver's shrinkage step in one blocked pass; returns ``||out||_1``.

    For each ``_BLOCK``-element block of the flattened stacks it adds
    ``addend`` into ``values``, soft-thresholds the sum into ``out`` with
    :func:`prox` and sums ``|out|`` as :func:`_l1` does, so ``out``,
    ``values`` and the sum are bitwise those of the whole-stack passes
    ``values += addend``, ``prox`` and ``_l1``.  With ``keep_clip`` it
    then leaves the prox's clip ``values - out`` in ``values``; with
    ``prev`` it overwrites ``prev`` with the extrapolated point
    ``out + weight * (out - prev)``.  ``out`` may be ``addend``, whose
    block is read before it is written.  The stacks must be C-contiguous
    and of one shape: a block of any other stack is a copy, and what the
    sweep writes there is lost.
    """
    stacks = (values, addend, out) if prev is None else (values, addend, out, prev)
    scratch = np.empty(min(values.size, _BLOCK))
    total = 0.0
    for v, a, o, *rest in _blocks(*stacks):
        v += a
        prox(v, threshold, out=o)
        total += float(np.abs(o, out=scratch[:o.size]).sum())
        if keep_clip:
            v -= o
        if rest:
            (p,) = rest
            np.subtract(o, p, out=p)
            p *= weight
            p += o
    return total


def _objective(residual: np.ndarray, l1: float, tau: float) -> float:
    """``0.5*||residual||^2 + tau*l1``, given the iterate's l1 norm ``l1``."""
    return 0.5 * float((residual**2).sum()) + tau * l1

