"""The l1 proximal map and the composite deconvolution objective.

The only shipped regularizer is the l1 norm on frame coefficients, whose
proximal map is the elementwise soft threshold
``sign(a) * max(|a| - t, 0)``, i.e. the minimizer of
``0.5*(a - b)^2 + t*|b|`` over ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


def prox(values: np.ndarray, threshold: float,
         out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise soft threshold, the proximal map of ``threshold * |.|``.

    Computes ``sign(v) * max(|v| - threshold, 0)`` as
    ``v - clip(v, -threshold, threshold)``, into ``out`` when given and
    into a new array otherwise, leaving ``values`` untouched.  Zeros in
    the result are ``+0.0``.  ``out`` must not share memory with
    ``values``: the clip would overwrite the values it subtracts.
    """
    if not threshold >= 0:  # also rejects NaN
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    values = np.asarray(values)
    if out is None:
        out = np.empty(values.shape, dtype=np.result_type(values, threshold))
    elif np.may_share_memory(values, out):
        raise ValueError("out must not share memory with values")
    np.clip(values, -threshold, threshold, out=out)
    return np.subtract(values, out, out=out)


def _l1(bands: np.ndarray) -> float:
    """``||bands||_1``, summed block by block through a block-sized scratch.

    The blocks are flat slices of at most ``_BLOCK`` elements: views of a
    C-contiguous stack, and of a flattened copy of any other.  Each block's
    sum is ``np.add.reduce``, the reduction ``ndarray.sum`` runs, called
    without that method's Python wrapper.
    """
    flat = bands.reshape(-1)
    scratch = np.empty(min(flat.size, _BLOCK))
    total = 0.0
    for start in range(0, flat.size, _BLOCK):
        block = flat[start:start + _BLOCK]
        total += float(np.add.reduce(np.abs(block, out=scratch[:block.size])))
    return total


def _sweep(values: np.ndarray | Iterable[tuple[int, np.ndarray]], addend: np.ndarray,
           threshold: float, out: np.ndarray, prev: np.ndarray | None = None,
           weight: float = 0.0) -> float:
    """A solver's shrinkage step in one blocked pass; returns ``||out||_1``.

    For each ``_BLOCK``-element block of the flattened stacks it adds
    ``addend`` into ``values``, soft-thresholds the sum into ``out`` with
    :func:`prox` and sums ``|out|`` as :func:`_l1` does, so ``out``,
    ``values`` and the sum are bitwise those of the whole-stack passes
    ``values += addend``, ``prox`` and ``_l1``.  With ``prev`` it
    overwrites ``prev`` with the extrapolated point
    ``out + weight * (out - prev)``.  ``out`` may be ``addend``, whose
    block is read before it is written.

    ``values`` may also come band by band, as an iterator of
    ``(index, band)`` pairs that stand for ``values[index]``, such as
    :func:`~salsa_deconv.frame._analysis_steps`: each band is swept
    before the next is requested, so it can be shrunk while it is still
    in cache and need not be kept.  The band is cut on the stack's block
    grid and its ``|out|`` collected in the block's scratch, so the sum is
    bitwise that of the whole stack at every band size.

    The stacks must be C-contiguous and of one shape: a block of any
    other stack is a copy, and what the sweep writes there is lost.
    """
    pieces = [(..., values)] if isinstance(values, np.ndarray) else values
    scratch = np.empty(min(addend.size, _BLOCK))
    filled, total = 0, 0.0
    for index, piece in pieces:
        stacks = (piece, addend[index], out[index]) + (() if prev is None else (prev[index],))
        flat = [s.reshape(-1) for s in stacks]
        start = 0
        while start < flat[0].size:
            # up to the end of the stack's current block
            stop = min(flat[0].size, start + scratch.size - filled)
            v, a, o, *rest = (f[start:stop] for f in flat)
            v += a
            prox(v, threshold, out=o)
            np.abs(o, out=scratch[filled:filled + o.size])
            filled += o.size
            if filled == scratch.size:
                total += float(np.add.reduce(scratch))
                filled = 0
            if rest:
                (p,) = rest
                np.subtract(o, p, out=p)
                p *= weight
                p += o
            start = stop
    return total + float(np.add.reduce(scratch[:filled])) if filled else total


def _objective(residual_half: np.ndarray, l1: float, tau: float,
               shape: tuple[int, int]) -> float:
    """``0.5*||r||^2 + tau*l1`` for ``r = irfft2(residual_half, s=shape)``, by Parseval.

    ``residual_half`` is the C-contiguous ``rfft2`` half spectrum of the
    real ``(h, w)`` data residual and ``l1`` the iterate's l1 norm.  A
    half-spectrum column other than 0 and, for even ``w``, ``w/2`` stands
    for itself and its mirror in the full spectrum, so it counts twice;
    ``||r||^2`` is the weighted sum of ``|R|^2`` divided by ``h*w``.
    """
    h, w = shape
    # the real and imaginary parts of one column are two float columns
    parts = residual_half.view(np.float64)
    total = 2.0 * _sum_of_squares(parts) - _sum_of_squares(parts[:, :2])
    if w % 2 == 0:
        total -= _sum_of_squares(parts[:, -2:])
    return 0.5 * total / (h * w) + tau * l1


def _sum_of_squares(a: np.ndarray) -> float:
    """``sum(a**2)`` in one pass with no temporary, on one thread (no BLAS call)."""
    flat = a.ravel()
    return float(np.einsum("i,i->", flat, flat))
