"""Fourier-transform substrate.

The paper's task transformation (Section III-B) rewrites model distillation
as ``K = F^-1(F(Y) / F(X))``, and its data-decomposition step (Section
III-C) evaluates the 2-D transform as two matrix products with DFT
matrices, ``X = (W_M . x) . W_N`` (Eq. 13).  This package holds the
whole Fourier stack:

* :mod:`repro.fft.dft_matrix` -- DFT matrices ``W_N`` and their algebra;
* :mod:`repro.fft.fft`        -- the checked 1-D host transforms,
  ``fft``/``ifft`` plus the real-input ``rfft``/``irfft`` pair exploiting
  Hermitian symmetry, each computed by the matching ``numpy.fft``
  function;
* :mod:`repro.fft.fft2d`      -- 2-D transforms in both row-column FFT
  form and the matmul form that maps onto a systolic array, with real
  half-spectrum variants for real planes;
* :mod:`repro.fft.spectra`    -- the process-level content-addressed
  kernel-spectrum cache (byte-budgeted, thread-safe);
* :mod:`repro.fft.convolution` -- FFT-based circular convolution, one
  plane at a time or chunk-streamed, the bridge used by the convolution
  theorem (Eq. 3), routing real operands through the half-spectrum hot
  path.

The test suite checks the transforms against the DFT definition
(Eq. 10) through :mod:`repro.fft.dft_matrix`, which shares no code with
``numpy.fft``, and the convolutions against the direct circular sum.
"""

from repro.fft.dft_matrix import (
    dft_matrix,
    idft_matrix,
    dft_matrix_cache_info,
    clear_dft_matrix_cache,
)
from repro.fft.fft import fft, ifft, irfft, rfft
from repro.fft.fft2d import (
    fft2,
    fft2_batch,
    fft2_matmul,
    ifft2,
    ifft2_batch,
    ifft2_matmul,
    irfft2,
    irfft2_batch,
    rfft2,
    rfft2_batch,
)
from repro.fft.spectra import (
    KernelSpectrum,
    KernelSpectrumCache,
    clear_kernel_spectrum_cache,
    fft_plan_cache_info,
    kernel_digest,
    kernel_spectrum,
    kernel_spectrum_cache,
    kernel_spectrum_cache_info,
)
from repro.fft.convolution import (
    fft_circular_convolve2d,
    fft_circular_convolve2d_chunks,
)

__all__ = [
    "dft_matrix",
    "idft_matrix",
    "dft_matrix_cache_info",
    "clear_dft_matrix_cache",
    "fft",
    "ifft",
    "rfft",
    "irfft",
    "fft_plan_cache_info",
    "fft2",
    "fft2_batch",
    "ifft2",
    "ifft2_batch",
    "rfft2",
    "rfft2_batch",
    "irfft2",
    "irfft2_batch",
    "fft2_matmul",
    "ifft2_matmul",
    "KernelSpectrum",
    "KernelSpectrumCache",
    "kernel_digest",
    "kernel_spectrum",
    "kernel_spectrum_cache",
    "kernel_spectrum_cache_info",
    "clear_kernel_spectrum_cache",
    "fft_circular_convolve2d",
    "fft_circular_convolve2d_chunks",
]
