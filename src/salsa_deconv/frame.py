"""Parseval redundant Haar wavelet frame (undecimated, a-trous).

The analysis transform decomposes an image into ``3*levels + 1``
full-resolution subbands: three detail orientations per level plus one
final approximation.  Level ``j`` uses the Haar pair upsampled a trous
style, i.e. taps ``1/2`` at offsets ``{0, 2**(j-1)}`` (lowpass) and
``+1/2, -1/2`` at the same offsets (highpass), applied separably along
both axes with periodic wrap.  With that tap scale the subband filters
at each level resolve the identity, so the frame is Parseval: synthesis
is the exact adjoint of analysis and synthesis inverts analysis up to
floating point.

Subband order is fixed so serialized coefficients are portable:
``(level-1 horizontal, vertical, diagonal), (level-2 H, V, D), ...,
approximation`` where *horizontal* is row-lowpass/column-highpass,
*vertical* is row-highpass/column-lowpass and *diagonal* is highpass in
both axes.  Level 1 is the finest scale.

Both transforms take the image rules of :mod:`salsa_deconv._checks`:
an image, and each band of a stack, must be real, 2-D and not empty,
and its dimensions must be divisible by ``2**levels``, for ``levels``
an integer >= 1 as :class:`FrameSpec` requires; anything else is
rejected rather than padded, since padding would silently change the
operator the solvers work with.  A float32 image or stack is transformed
in float32, any other in float64.

The analysis runs in one private generator, ``_analysis_steps``, which
yields each band as soon as it is written: :func:`analysis_bands` drains
it into a stack, and IST and FISTA soft-threshold each band while it is
still in cache, so they never hold their analysed gradient step as a
stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ._checks import as_float, check_image_shape, check_integer

__all__ = [
    "FrameSpec",
    "FrameCoeffs",
    "analysis_bands",
    "synthesis_bands",
]


@dataclass(frozen=True)
class FrameSpec:
    """Decomposition depth of the redundant Haar frame (default 4)."""

    levels: int = 4

    def __post_init__(self) -> None:
        check_integer("levels", self.levels, minimum=1)


@dataclass
class FrameCoeffs:
    """Coefficient vector of the redundant Haar frame.

    ``bands`` stacks the subbands as a ``(3*levels + 1, H, W)`` array in
    the order documented in the module docstring; every subband has the
    full image resolution (undecimated transform).
    """

    levels: int
    bands: np.ndarray = field(repr=False)


def _check_image(name: str, image: np.ndarray, levels: int) -> np.ndarray:
    """:func:`~salsa_deconv._checks.check_image_shape`, and a ``ValueError`` naming
    ``image`` unless its dimensions are divisible by ``2**levels``, and one naming
    ``levels`` unless it is an integer >= 1, as :class:`FrameSpec` requires."""
    check_integer("levels", levels, minimum=1)
    image = check_image_shape(name, image)
    h, w = image.shape
    step = 1 << levels
    if h % step or w % step:
        raise ValueError(
            f"{name} dimensions {h}x{w} must be divisible by 2**levels = {step}"
        )
    return image


def _pair(op, x: np.ndarray, shift: int, axis: int, out: np.ndarray) -> None:
    """``out[i] = op(x[i], x[(i + shift) % n])`` along ``axis`` of a 2-D image.

    A positive ``shift`` reads ahead (the analysis taps), a negative one
    behind (their adjoints).  The bulk is one pass over the flattened
    arrays, offset by ``shift`` steps along ``axis``; along axis 1 that
    pass reads across row ends for the ``|shift|`` wrapped columns, which
    a second, narrow pass then overwrites with the periodic value.
    ``out`` must be C-contiguous and must not overlap ``x``.
    """
    n = x.shape[axis]
    s = abs(shift)
    d = s * (x.shape[1] if axis == 0 else 1)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    wrapped = [slice(None), slice(None)]
    source = [slice(None), slice(None)]
    if shift > 0:
        op(flat_x[:-d], flat_x[d:], out=flat_out[:-d])
        wrapped[axis], source[axis] = slice(n - s, n), slice(0, s)
    else:
        op(flat_x[d:], flat_x[:-d], out=flat_out[d:])
        wrapped[axis], source[axis] = slice(0, s), slice(n - s, n)
    wrapped, source = tuple(wrapped), tuple(source)
    op(x[wrapped], x[source], out=out[wrapped])


def analysis_bands(image: np.ndarray, levels: int, out: np.ndarray | None = None) -> np.ndarray:
    """Undecimated Haar decomposition as a raw ``(3*levels+1, H, W)`` stack.

    ``out``, when given, is a C-contiguous array of that shape and of the
    image's precision that receives the stack and is returned.  Each
    level scales its input by ``1/4`` once, in place of the ``1/2`` of
    each axis's taps; scaling by a power of two is exact, so the values
    are those of the per-axis form.
    """
    a = _check_image("image", image, levels)
    shape = (3 * levels + 1,) + a.shape
    if out is None:
        out = np.empty(shape, a.dtype)
    elif out.shape != shape or out.dtype != a.dtype or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be a C-contiguous {a.dtype} array of shape {shape}, "
            f"got {out.dtype} {out.shape}"
        )
    elif np.may_share_memory(a, out):
        raise ValueError("out must not share memory with the image")
    for _ in _analysis_steps(a, levels, out):
        pass
    return out


def _analysis_steps(image: np.ndarray, levels: int,
                    out: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """The analysis of :func:`analysis_bands`, yielding ``(index, band)`` as each band is written.

    Bands come in stack order, the approximation last, each with the
    values :func:`analysis_bands` gives it.  Nothing is checked: ``image``
    is a float image and ``out`` a stack that :func:`analysis_bands` would
    accept, as its callers' set-up ensures.  With ``out`` band ``index``
    is ``out[index]``.  Without it every band, the
    approximation included, is written into one reused image buffer, as
    nothing in a level reads the approximation once its row lowpass and
    highpass are formed; a level thus holds three images.  A band holds
    its values only until the next one is requested, so a consumer that
    shrinks each band while it is still in cache needs no stack for the
    analysis.  The consumer may overwrite a yielded band: no later band
    reads it.
    """
    if out is None:
        band = approx = np.empty(image.shape, image.dtype)
    else:
        approx = out[-1]
    lo = np.empty(image.shape, image.dtype)
    hi = np.empty(image.shape, image.dtype)
    shift = 1
    for j in range(levels):
        np.multiply(approx if j else image, 0.25, out=approx)
        _pair(np.add, approx, shift, 0, lo)
        _pair(np.subtract, approx, shift, 0, hi)
        # horizontal, vertical and diagonal detail
        for index, op, rows in ((3 * j, np.subtract, lo), (3 * j + 1, np.add, hi),
                                (3 * j + 2, np.subtract, hi)):
            target = band if out is None else out[index]
            _pair(op, rows, shift, 1, target)
            yield index, target
        _pair(np.add, lo, shift, 1, approx)
        shift *= 2
    yield 3 * levels, approx


def synthesis_bands(bands: np.ndarray, levels: int, *, zero=()) -> np.ndarray:
    """Adjoint of :func:`analysis_bands`; exact inverse for Parseval scaling.

    Each level sums the four unscaled two-tap adjoints and scales the
    result by ``1/4`` once, which gives bitwise the values of the
    per-axis ``1/2`` form.  A level runs on three image buffers: a buffer
    takes the next adjoint as soon as the sum that read it is formed.  At
    256² the three images are 1.5 MiB, so a level's working set fits a
    2 MiB L2 cache, which four did not.  ``bands`` must stack
    ``3*levels + 1`` subbands, each an image the analysis would take; a
    float32 stack is synthesized in float32, any other in float64.

    ``zero``, when not empty, holds one flag per band in stack order; a
    true flag says the band is all zero, so its adjoint term adds nothing
    and is left out, and when a level's V and D are both flagged so is
    the axis-0 highpass branch they feed.  The approximation band's flag
    is ignored.  The result equals (``==``) the unflagged synthesis; only
    the sign of a zero may differ.  Every solver passes the flags its
    last sweep recorded (:func:`~salsa_deconv.prox._zero_bands`).
    """
    check_integer("levels", levels, minimum=1)
    bands = as_float("bands", bands)
    if bands.ndim != 3 or bands.shape[0] != 3 * levels + 1:
        raise ValueError(
            f"expected {3 * levels + 1} stacked subbands, got shape {bands.shape}"
        )
    if len(zero) not in (0, bands.shape[0]):
        raise ValueError(f"expected {bands.shape[0]} band flags, got {len(zero)}")
    _check_image("band", bands[-1], levels)
    skip = list(zero) or [False] * bands.shape[0]
    p, q, r = (np.empty(bands.shape[1:], bands.dtype) for _ in range(3))
    a = bands[-1]
    shift = 1 << (levels - 1)
    for j in reversed(range(levels)):
        h, v, d = skip[3 * j:3 * j + 3]
        _pair(np.add, a, -shift, 1, p)
        if not h:
            _pair(np.subtract, bands[3 * j], -shift, 1, q)
            p += q
        if v and d:
            # V and D are all zero, and so is the axis-0 highpass branch they feed
            _pair(np.add, p, -shift, 0, q)
        else:
            if v:
                _pair(np.subtract, bands[3 * j + 2], -shift, 1, r)
            else:
                _pair(np.add, bands[3 * j + 1], -shift, 1, r)
                if not d:
                    _pair(np.subtract, bands[3 * j + 2], -shift, 1, q)
                    r += q
            _pair(np.add, p, -shift, 0, q)
            _pair(np.subtract, r, -shift, 0, p)
            q += p
        q *= 0.25
        a = q
        shift //= 2
    return a
