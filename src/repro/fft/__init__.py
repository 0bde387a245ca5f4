"""Fourier-transform substrate.

The paper's task transformation (Section III-B) rewrites model distillation
as ``K = F^-1(F(Y) / F(X))``, and its data-decomposition step (Section
III-C) evaluates the 2-D transform as two matrix products with DFT
matrices, ``X = (W_M . x) . W_N`` (Eq. 13).  This package implements the
whole Fourier stack from scratch:

* :mod:`repro.fft.dft_matrix` -- DFT matrices ``W_N`` and their algebra;
* :mod:`repro.fft.fft`        -- 1-D FFT (iterative radix-2 Cooley-Tukey
  for power-of-two lengths, Bluestein chirp-z for everything else) plus
  the real-input ``rfft``/``irfft`` pair exploiting Hermitian symmetry;
* :mod:`repro.fft.fft2d`      -- 2-D transforms in both row-column FFT
  form and the matmul form that maps onto a systolic array, with real
  half-spectrum variants for real planes;
* :mod:`repro.fft.spectra`    -- the process-level content-addressed
  kernel-spectrum cache (byte-budgeted, thread-safe);
* :mod:`repro.fft.convolution` -- direct and FFT-based circular/linear
  convolution, the bridge used by the convolution theorem (Eq. 3),
  routing real operands through the half-spectrum hot path.

``numpy.fft`` is deliberately not used anywhere in this package; the test
suite uses it as an independent oracle.
"""

from repro.fft.dft_matrix import (
    dft_matrix,
    idft_matrix,
    dft_matrix_cache_info,
    clear_dft_matrix_cache,
)
from repro.fft.fft import (
    bit_reversal_permutation,
    clear_fft_plan_cache,
    fft,
    fft_plan_cache_info,
    ifft,
    irfft,
    is_power_of_two,
    rfft,
)
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
    kernel_digest,
    kernel_spectrum,
    kernel_spectrum_cache,
    kernel_spectrum_cache_info,
    set_kernel_spectrum_cache_enabled,
)
from repro.fft.convolution import (
    circular_convolve,
    circular_convolve2d,
    fft_circular_convolve,
    fft_circular_convolve2d,
    fft_circular_convolve2d_chunks,
    linear_convolve,
    linear_convolve2d,
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
    "bit_reversal_permutation",
    "is_power_of_two",
    "fft_plan_cache_info",
    "clear_fft_plan_cache",
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
    "set_kernel_spectrum_cache_enabled",
    "circular_convolve",
    "circular_convolve2d",
    "fft_circular_convolve",
    "fft_circular_convolve2d",
    "fft_circular_convolve2d_chunks",
    "linear_convolve",
    "linear_convolve2d",
]
