"""Kernel catalogue package; see :mod:`repro.kernels.registry`."""

from repro.kernels.registry import (KERNELS, Kernel, UnknownKernelError,
                                    resolve)

__all__ = ["KERNELS", "Kernel", "UnknownKernelError", "resolve"]
