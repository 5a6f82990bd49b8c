"""FT: 3-D Fast Fourier Transform PDE benchmark.

Solves a 3-D heat-diffusion equation spectrally: the initial state is a
grid of complex LCG deviates, transformed once forward, damped in Fourier
space with precomputed Gaussian factors each time step, and transformed
back to compute a 1024-point checksum per step.

The FFT itself is a from-scratch four-step transform (:mod:`repro.ft.fft`:
two small matrix multiplies per row) -- no ``numpy.fft`` -- in the place
of the ``cfftz`` kernel of ft.f.

FT is the benchmark whose 350 MB class-A footprint exposed the JVM's
memory-driven processor cap on the SUN Enterprise (paper section 5.2).
"""

from repro.ft.benchmark import FT
from repro.ft.fft import fft3d, fft_along_axis
from repro.ft.params import FT_CLASSES, FTParams

__all__ = ["FT", "FTParams", "FT_CLASSES", "fft3d", "fft_along_axis"]
