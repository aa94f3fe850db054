"""Circular-convolution blur operators represented in the DFT domain.

Blur kernels are small, odd-sized, unit-sum stencils (:class:`Psf`).  The
image boundary model is periodic, so the blur matrix diagonalizes in the
2-D DFT basis: a kernel is converted once into its optical transfer
function (OTF) with :func:`psf_to_otf`, and every product with the blur
matrix or its transpose is two FFTs plus a pointwise multiply.

The regularized inverse used by the quadratic solve of the split
augmented-Lagrangian iteration is also a DFT-domain filter; see
:func:`build_inversion_filter`.  The solvers apply these filters, which
are Hermitian for real kernels, as products with half spectra from real
FFTs (``rfft2``/``irfft2``), and the transpose of the blur as the
conjugate half spectrum; :func:`apply_filter` takes any complex filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BlurKind",
    "Psf",
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


@dataclass(frozen=True)
class Psf:
    """Normalized point-spread function on an odd-sized support.

    Attributes
    ----------
    taps : ndarray
        Kernel weights, shape ``(kh, kw)`` with ``kh``, ``kw`` odd.
        Sums to 1 so the blur preserves DC gain.
    center : tuple of int
        Index of the kernel origin, ``(kh // 2, kw // 2)``.
    """

    taps: np.ndarray
    center: tuple[int, int]

    @property
    def support(self) -> tuple[int, int]:
        return self.taps.shape


def build_psf(kind: BlurKind | str, size: int | None = None,
              sigma: float | None = None) -> Psf:
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
    Psf
        Kernel with taps normalized to unit sum.
    """
    kind = BlurKind(kind)
    if size is None:
        size = _DEFAULT_SIZE[kind]
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
        if sigma <= 0:
            raise ValueError(f"gaussian sigma must be positive, got {sigma}")
        taps = np.exp(-(ii**2 + jj**2) / (2.0 * sigma**2))
    else:
        taps = 1.0 / (1.0 + ii**2 + jj**2)
    taps = taps / taps.sum()
    return Psf(taps=taps, center=(r, r))


def psf_to_otf(psf: Psf, shape: tuple[int, int]) -> np.ndarray:
    """Embed a PSF into an image-sized grid and return its 2-D DFT.

    The kernel is zero-padded to ``shape`` and circularly shifted so its
    center lands at index (0, 0); applying the returned filter with
    :func:`apply_filter` then implements periodic convolution by the
    kernel.  An identity (1x1) kernel maps to an all-ones OTF.
    """
    kh, kw = psf.taps.shape
    h, w = shape
    if kh > h or kw > w:
        raise ValueError(f"PSF support {kh}x{kw} exceeds image shape {h}x{w}")
    pad = np.zeros(shape)
    pad[:kh, :kw] = psf.taps
    pad = np.roll(pad, (-psf.center[0], -psf.center[1]), axis=(0, 1))
    return np.fft.fft2(pad)


def apply_filter(filt: np.ndarray, image: np.ndarray) -> np.ndarray:
    """Pointwise DFT-domain filtering: real(IDFT(filt * DFT(image)))."""
    if filt.shape != image.shape:
        raise ValueError(f"filter shape {filt.shape} != image shape {image.shape}")
    return np.fft.ifft2(filt * np.fft.fft2(image)).real


def build_inversion_filter(otf: np.ndarray, mu: float) -> np.ndarray:
    """Gains of the regularized inverse H^T (H H^T + mu I)^{-1} H.

    Returns the DFT-domain filter with value ``|d|^2 / (|d|^2 + mu)`` at
    each OTF bin ``d``, as a real ``float64`` array of the OTF's shape.
    The gains lie in [0, 1) and depend on the OTF only through its
    squared magnitude, so the filter of a half spectrum (see
    :func:`_half_spectrum`) is the half spectrum of the filter.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    g = np.abs(otf) ** 2
    return g / (g + mu)


def _half_spectrum(filt: np.ndarray) -> np.ndarray:
    """The ``w//2 + 1`` leading columns of a full ``(h, w)`` DFT-domain filter.

    A filter of a real operator (the OTF of a real kernel, or a real
    even-symmetric gain such as the inversion filter) is Hermitian, so
    these columns determine it: ``irfft2(half * rfft2(image), s)`` is
    :func:`apply_filter`, and the complex conjugate of ``half`` applies
    the transpose, correlation with the kernel.
    """
    return filt[:, : filt.shape[1] // 2 + 1]
