"""Circular-convolution blur operators represented in the DFT domain.

A blur kernel is its taps: a small 2-D array with odd sides that sums
to 1, whose origin is the centre tap (:func:`build_psf`).  The image
boundary model is periodic, so the blur matrix diagonalizes in the 2-D
DFT basis: a kernel is converted once into its optical transfer function
(OTF) with :func:`psf_to_otf`, and every product with the blur matrix or
its transpose is two real FFTs plus a pointwise multiply.

A filter is a real operator's DFT-domain gains, so it is Hermitian and
given by its half spectrum: for an ``(h, w)`` image, the ``(h, w//2 + 1)``
array of ``rfft2``.  :func:`apply_filter` multiplies by it between
``rfft2`` and ``irfft2``, and its complex conjugate applies the transpose,
correlation with the kernel.  The regularized inverse used by the
quadratic solve of the split augmented-Lagrangian iteration is such a
filter too; see :func:`build_inversion_filter`.

A filter multiplies a spectrum filter first, ``filt * X``, with ``X`` a
named array.  numpy's complex multiply does not round ``a * b`` and
``b * a`` alike, and for an unnamed right operand of 256 KiB or more it
computes the product in that operand's buffer, as ``X * filt``; so an
unnamed ``X`` would let the image size pick the rounding.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ._checks import check_image, check_integer, check_real

__all__ = [
    "BlurKind",
    "build_psf",
    "psf_to_otf",
    "apply_filter",
    "build_inversion_filter",
]


class BlurKind(str, Enum):
    """Supported blur kernel families."""

    UNIFORM9 = "uniform9"
    GAUSSIAN = "gaussian"
    INVERSE_QUADRATIC = "invquad"


_DEFAULT_SIZE = {
    BlurKind.UNIFORM9: 9,
    BlurKind.GAUSSIAN: 15,
    BlurKind.INVERSE_QUADRATIC: 15,
}

_DEFAULT_GAUSSIAN_SIGMA = 2.0


def build_psf(kind: BlurKind | str, size: int | None = None,
              sigma: float | None = None) -> np.ndarray:
    """Construct a normalized blur kernel.

    Parameters
    ----------
    kind : BlurKind or str
        ``uniform9`` (flat square kernel, default 9x9), ``gaussian``
        (tap(i,j) ~ exp(-(i^2+j^2)/(2*sigma^2)), default 15x15 with
        sigma = 2 pixels), or ``invquad``
        (tap(i,j) ~ 1/(1 + i^2 + j^2), default 15x15).
    size : int, optional
        Odd support size override.
    sigma : float, optional
        Gaussian standard deviation in pixels; only valid for
        ``gaussian``.

    Returns
    -------
    ndarray
        The ``(size, size)`` taps, normalized to unit sum.
    """
    kind = BlurKind(kind)
    if size is None:
        size = _DEFAULT_SIZE[kind]
    check_integer("kernel size", size)
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 1, got {size}")
    if sigma is not None and kind is not BlurKind.GAUSSIAN:
        raise ValueError(f"sigma is only meaningful for gaussian blur, not {kind.value}")

    r = size // 2
    ii, jj = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    if kind is BlurKind.UNIFORM9:
        taps = np.ones((size, size))
    elif kind is BlurKind.GAUSSIAN:
        if sigma is None:
            sigma = _DEFAULT_GAUSSIAN_SIGMA
        check_real("gaussian sigma", sigma, "positive")
        taps = np.exp(-(ii**2 + jj**2) / (2.0 * sigma**2))
    else:
        taps = 1.0 / (1.0 + ii**2 + jj**2)
    return taps / taps.sum()


def psf_to_otf(taps: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Embed a kernel's taps into an image-sized grid and return its DFT half spectrum.

    ``taps`` is a 2-D array with odd sides, no larger than ``shape``,
    whose origin is the centre tap ``(kh // 2, kw // 2)``.  It is
    zero-padded to ``shape`` and circularly shifted so that origin lands
    at index (0, 0); the result is the ``rfft2`` of that grid, shape
    ``(h, w//2 + 1)`` for ``shape = (h, w)``.  Applying it with
    :func:`apply_filter` implements periodic convolution by the kernel.
    An identity (1x1) kernel maps to an all-ones OTF.  Taps that are not
    all finite, and a ``shape`` that is not two integers >= 1, are
    rejected.
    """
    taps = _check_taps(taps)
    kh, kw = taps.shape
    h, w = _check_shape(shape)
    if kh > h or kw > w:
        raise ValueError(f"kernel support {kh}x{kw} exceeds image shape {h}x{w}")
    pad = np.zeros((h, w))
    pad[:kh, :kw] = taps
    pad = np.roll(pad, (-(kh // 2), -(kw // 2)), axis=(0, 1))
    return np.fft.rfft2(pad)


def _check_taps(taps) -> np.ndarray:
    """``taps`` as a float array; raises ``ValueError`` unless 2-D with odd sides and finite."""
    taps = np.asarray(taps)
    if taps.ndim != 2 or taps.shape[0] % 2 == 0 or taps.shape[1] % 2 == 0:
        raise ValueError(f"kernel taps must be a 2-D array with odd sides, "
                         f"got shape {taps.shape}")
    return check_image("kernel taps", taps)


def _check_shape(shape) -> tuple[int, int]:
    """``shape`` as ``(h, w)``; raises ``ValueError`` unless two integers >= 1."""
    try:
        h, w = shape
    except (TypeError, ValueError):
        raise ValueError(f"image shape must be two integers, got {shape!r}") from None
    check_integer("image height", h, minimum=1)
    check_integer("image width", w, minimum=1)
    return h, w


def apply_filter(filt: np.ndarray, image: np.ndarray) -> np.ndarray:
    """Pointwise DFT-domain filtering: ``irfft2(filt * rfft2(image))``.

    ``filt`` is the half spectrum of the filter for ``image``'s shape.
    ``image`` is taken by :func:`~salsa_deconv._checks.check_image`, so it
    must be real, 2-D, not empty and finite.
    """
    image = check_image("image", image)
    _check_half_spectrum(filt, image.shape)
    spectrum = np.fft.rfft2(image)
    return np.fft.irfft2(filt * spectrum, s=image.shape)


def _check_half_spectrum(filt: np.ndarray, shape: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless ``filt`` has the half-spectrum shape for images of
    ``shape`` and finite values; the value test is one pass over ``filt``."""
    h, w = shape
    if filt.shape != (h, w // 2 + 1):
        raise ValueError(f"expected a filter of shape {(h, w // 2 + 1)}, the half spectrum "
                         f"of a {h}x{w} image, got shape {filt.shape}")
    _check_finite(filt)


def _check_finite(filt: np.ndarray) -> None:
    """Raise ``ValueError`` unless every value of ``filt`` is finite."""
    if not np.isfinite(filt).all():
        raise ValueError("filter holds NaN or inf values")


def build_inversion_filter(otf: np.ndarray, mu: float) -> np.ndarray:
    """Gains of the regularized inverse H^T (H H^T + mu I)^{-1} H.

    Returns the DFT-domain filter with value ``|d|^2 / (|d|^2 + mu)`` at
    each OTF bin ``d``, as a real ``float64`` array of the OTF's shape,
    so the half spectrum of an OTF gives the half spectrum of the filter.
    The gains lie in [0, 1).  An OTF with a NaN or inf bin is rejected.
    """
    check_real("mu", mu, "positive")
    _check_finite(otf)
    g = np.abs(otf) ** 2
    return g / (g + mu)
