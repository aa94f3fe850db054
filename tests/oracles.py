"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the FFT/vectorized code paths under
test: convolution is the literal periodic sum, transforms are dense
matrices or scalar loops, and the proximal map is a grid search.  The
exceptions are :func:`reference_salsa` and :func:`reference_fista`, the
solvers' literal recursions on complex FFTs (with :func:`filter_full`,
:func:`adjoint_filter` and :func:`beta_update`), which the solvers are
checked against, and :func:`roll_analysis_bands` and
:func:`roll_synthesis_bands`, the frame transforms in their ``np.roll``
form, which the package's transforms must match bitwise.

The package filters by ``rfft2`` half spectra; the references here filter
by complex full spectra, and complete a half spectrum they are given with
:func:`full_spectrum`.
"""

import numpy as np

from salsa_deconv.convolution import build_inversion_filter
from salsa_deconv.frame import analysis_bands, synthesis_bands
from salsa_deconv.prox import prox


def direct_convolve(image, taps):
    """Periodic convolution as an explicit sum over kernel taps.

    out[p] = sum_{t} taps[t] * image[(p - (t - center)) mod shape], with
    the centre tap ``(kh // 2, kw // 2)`` of the odd-sided taps as origin.
    """
    out = np.zeros(image.shape)
    kh, kw = taps.shape
    ci, cj = kh // 2, kw // 2
    for i in range(kh):
        for j in range(kw):
            out += taps[i, j] * np.roll(image, (i - ci, j - cj), axis=(0, 1))
    return out


def direct_convolve_scalar(image, taps):
    """Same sum with pure scalar indexing; slow, for small images only."""
    h, w = image.shape
    kh, kw = taps.shape
    ci, cj = kh // 2, kw // 2
    out = np.zeros((h, w))
    for p in range(h):
        for q in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    acc += taps[i, j] * image[(p - i + ci) % h, (q - j + cj) % w]
            out[p, q] = acc
    return out


def dft_otf(taps, shape):
    """OTF by the defining DFT sum over kernel taps (no FFT), origin at the centre tap."""
    h, w = shape
    kh, kw = taps.shape
    ci, cj = kh // 2, kw // 2
    out = np.zeros(shape, dtype=complex)
    for k in range(h):
        for m in range(w):
            acc = 0.0 + 0.0j
            for i in range(kh):
                for j in range(kw):
                    phase = -2.0j * np.pi * (k * (i - ci) / h + m * (j - cj) / w)
                    acc += taps[i, j] * np.exp(phase)
            out[k, m] = acc
    return out


def reference_analysis(image, levels):
    """Undecimated Haar decomposition with scalar loops and mod indexing.

    Independent of the package's stencils; returns the same
    ``(3*levels + 1, H, W)`` stack, detail bands ordered (row-lo/col-hi,
    row-hi/col-lo, row-hi/col-hi) per level, approximation last.
    """
    h, w = image.shape
    a = np.asarray(image, dtype=float).copy()
    out = np.zeros((3 * levels + 1, h, w))

    def pair_rows(x, s):
        lo = np.zeros_like(x)
        hi = np.zeros_like(x)
        for p in range(h):
            for q in range(w):
                lo[p, q] = 0.5 * (x[p, q] + x[(p + s) % h, q])
                hi[p, q] = 0.5 * (x[p, q] - x[(p + s) % h, q])
        return lo, hi

    def pair_cols(x, s):
        lo = np.zeros_like(x)
        hi = np.zeros_like(x)
        for p in range(h):
            for q in range(w):
                lo[p, q] = 0.5 * (x[p, q] + x[p, (q + s) % w])
                hi[p, q] = 0.5 * (x[p, q] - x[p, (q + s) % w])
        return lo, hi

    for j in range(levels):
        s = 2 ** j
        lo_r, hi_r = pair_rows(a, s)
        lolo, lohi = pair_cols(lo_r, s)
        hilo, hihi = pair_cols(hi_r, s)
        out[3 * j] = lohi
        out[3 * j + 1] = hilo
        out[3 * j + 2] = hihi
        a = lolo
    out[-1] = a
    return out


def roll_analysis_bands(image, levels):
    """Analysis in its ``np.roll`` form, with the ``1/2`` tap scale applied per axis.

    The package applies the two factors as one ``1/4`` and writes slices
    into buffers; powers of two scale exactly, so the two agree bitwise
    (barring subnormals).
    """
    def lo(x, s, axis):
        return 0.5 * (x + np.roll(x, -s, axis))

    def hi(x, s, axis):
        return 0.5 * (x - np.roll(x, -s, axis))

    a = np.asarray(image, dtype=float)
    out = np.empty((3 * levels + 1,) + a.shape)
    for j in range(levels):
        s = 2 ** j
        lo0, hi0 = lo(a, s, 0), hi(a, s, 0)
        out[3 * j] = hi(lo0, s, 1)
        out[3 * j + 1] = lo(hi0, s, 1)
        out[3 * j + 2] = hi(hi0, s, 1)
        a = lo(lo0, s, 1)
    out[-1] = a
    return out


def roll_synthesis_bands(bands, levels):
    """Adjoint of :func:`roll_analysis_bands`, with ``np.roll``."""
    def lo_t(x, s, axis):
        return 0.5 * (x + np.roll(x, s, axis))

    def hi_t(x, s, axis):
        return 0.5 * (x - np.roll(x, s, axis))

    a = bands[-1]
    for j in reversed(range(levels)):
        s = 2 ** j
        lo0 = lo_t(a, s, 1) + hi_t(bands[3 * j], s, 1)
        hi0 = lo_t(bands[3 * j + 1], s, 1) + hi_t(bands[3 * j + 2], s, 1)
        a = lo_t(lo0, s, 0) + hi_t(hi0, s, 0)
    return a


def dense_analysis_matrix(side, levels):
    """Analysis operator as a dense ((3L+1)*n, n) matrix, via basis images.

    ``side`` is the image's side, or its ``(height, width)``.
    """
    shape = (side, side) if np.isscalar(side) else side
    n = shape[0] * shape[1]
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(analysis_bands(e.reshape(shape), levels).ravel())
    return np.array(cols).T


def dense_synthesis_matrix(side, levels):
    """Synthesis operator as a dense (n, (3L+1)*n) matrix, via basis coeffs."""
    n = side * side
    nb = 3 * levels + 1
    cols = []
    for i in range(nb * n):
        e = np.zeros(nb * n)
        e[i] = 1.0
        cols.append(synthesis_bands(e.reshape(nb, side, side), levels).ravel())
    return np.array(cols).T


def dense_blur_matrix(taps, side):
    """Periodic blur as a dense (n, n) matrix built from the direct sum.

    ``side`` is the image's side, or its ``(height, width)``.
    """
    shape = (side, side) if np.isscalar(side) else side
    n = shape[0] * shape[1]
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(direct_convolve(e.reshape(shape), taps).ravel())
    return np.array(cols).T


def grid_prox_objective(a, t, candidates):
    """Scalar prox objective 0.5*(a-b)^2 + t*|b| on candidates."""
    return 0.5 * (candidates - a) ** 2 + t * np.abs(candidates)


def subgradient_residual(bands, grad_bands, tau):
    """Max violation of the l1 optimality condition at a candidate solution.

    ``grad_bands`` is the gradient of the smooth data term at the point;
    at a minimizer, entries with beta != 0 need grad = -tau*sign(beta)
    and entries with beta == 0 need |grad| <= tau.
    """
    nonzero = bands != 0
    res_nz = np.abs(grad_bands + tau * np.sign(bands))[nonzero]
    res_z = np.maximum(np.abs(grad_bands) - tau, 0.0)[~nonzero]
    worst = 0.0
    if res_nz.size:
        worst = max(worst, float(res_nz.max()))
    if res_z.size:
        worst = max(worst, float(res_z.max()))
    return worst


def full_spectrum(filt, shape):
    """The full ``shape`` spectrum of a filter given by its ``rfft2`` half spectrum.

    Completes the columns past ``w//2`` by Hermitian symmetry,
    ``F[k, m] = conj(F[-k mod h, w - m])``.  A full ``shape`` spectrum,
    Hermitian or not, is returned as it is (for ``w <= 2`` the two shapes
    are one).
    """
    h, w = shape
    n = filt.shape[1]
    if n == w:
        return filt
    mirrored = np.conj(filt[-np.arange(h) % h][:, w - np.arange(n, w)])
    return np.concatenate([filt, mirrored], axis=1)


def filter_full(filt, image):
    """``real(IDFT(F * DFT(image)))`` on complex FFTs, for ``F = full_spectrum(filt)``."""
    return np.fft.ifft2(full_spectrum(filt, image.shape) * np.fft.fft2(image)).real


def adjoint_filter(filt, image):
    """Transpose of ``filter_full(filt, .)``: filtering by the conjugate, on complex FFTs.

    For a convolution OTF this is correlation with the kernel; it
    satisfies ``<filter_full(D, a), b> == <a, adjoint_filter(D, b)>``
    for any complex full spectrum ``D``.
    """
    return np.fft.ifft2(np.conj(full_spectrum(filt, image.shape)) * np.fft.fft2(image)).real


def data_gradient(y, otf, levels, bands):
    """Gradient of 0.5*||H W beta - y||^2, i.e. Wt Ht (H W beta - y).

    ``otf`` is a half spectrum from ``psf_to_otf`` or a full spectrum.
    """
    residual = filter_full(otf, synthesis_bands(bands, levels)) - y
    return analysis_bands(adjoint_filter(otf, residual), levels)


def beta_update(r, inv_filter, levels, mu):
    """Exact minimizer of SALSA's quadratic subproblem via the Woodbury identity.

    Solves ``(Wt Ht H W + mu I) beta = r`` for the Parseval frame W and
    circular blur H, as ``(1/mu) * (r - Wt F W r)`` where F is the
    full-spectrum inversion filter from ``build_inversion_filter``,
    applied on complex FFTs.
    """
    filtered = filter_full(inv_filter, synthesis_bands(r, levels))
    return (r - analysis_bands(filtered, levels)) / mu


def reference_salsa(y, otf, levels, tau, mu, max_iters, rel_tol, on_iteration=None):
    """SALSA as the literal coefficient-domain recursion.

    Keeps ``r``, ``beta`` and the multiplier ``d`` as coefficient stacks,
    solves the quadratic step with :func:`beta_update` on complex FFTs
    and stops on the relative objective change that
    ``SolverConfig.rel_tol`` describes.  ``on_iteration``, when given, is
    called with ``beta``, ``theta`` and ``d`` after every iteration;
    each call gets new arrays.  Returns the final theta and the objective
    at every iteration, starting with iteration 0.
    """
    otf = full_spectrum(otf, y.shape)

    def objective(bands):
        residual = filter_full(otf, synthesis_bands(bands, levels)) - y
        return 0.5 * float((residual**2).sum()) + tau * float(np.abs(bands).sum())

    inv_filter = build_inversion_filter(otf, mu)
    ybar = analysis_bands(adjoint_filter(otf, y), levels)
    theta = analysis_bands(y, levels)
    d = np.zeros_like(theta)
    objectives = [objective(theta)]
    for _ in range(max_iters):
        r = ybar + mu * (theta + d)
        beta = beta_update(r, inv_filter, levels, mu)
        theta = prox(beta - d, tau / mu)
        d = d - (beta - theta)
        if on_iteration is not None:
            on_iteration(beta, theta, d)
        objectives.append(objective(theta))
        if abs(objectives[-1] - objectives[-2]) <= rel_tol * objectives[-2]:
            break
    return theta, objectives


def reference_fista(y, otf, levels, tau, step, iters, momentum):
    """FISTA with the residual at the extrapolated point formed literally.

    Synthesizes and blurs ``z`` on every iteration instead of combining
    residuals.  ``momentum`` is the ``t`` recursion, or ``None`` for IST,
    whose gradient step is taken at ``beta`` itself.  Returns the final
    beta and the objective at every iteration, starting with iteration 0.
    """
    otf = full_spectrum(otf, y.shape)

    def residual(bands):
        return filter_full(otf, synthesis_bands(bands, levels)) - y

    def objective(bands):
        return 0.5 * float((residual(bands) ** 2).sum()) + tau * float(np.abs(bands).sum())

    beta = analysis_bands(y, levels)
    z = beta.copy()
    t = 1.0
    objectives = [objective(beta)]
    for _ in range(iters):
        grad = analysis_bands(adjoint_filter(otf, residual(z)), levels)
        beta_next = prox(z - step * grad, tau * step)
        if momentum is None:
            z = beta_next
        else:
            t_next = momentum(t)
            z = beta_next + ((t - 1.0) / t_next) * (beta_next - beta)
            t = t_next
        beta = beta_next
        objectives.append(objective(beta))
    return beta, objectives
