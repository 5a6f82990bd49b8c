"""Kernel catalogue: ten stable names -> the production slab function.

Every hot slab kernel of MG, CG and the BT/SP right-hand side has one
form, defined beside its driver (``repro.mg.operators``,
``repro.cfd.rhs``, ``repro.cg.solver``); the driver hands that function
to ``team.parallel_for`` itself.  This table gives the same functions
stable names for everything that addresses a kernel from outside its
driver -- the per-kernel probes of ``benchmarks/e2e``, ``bench_alloc.py``
and the equivalence suite -- so ``resolve(name).fn`` is, by identity, the
function the suite dispatches (``tests/kernels/test_registry.py``).

All entries are module-level functions ``fn(lo, hi, *args)``, picklable
by qualified name, which is what lets ``ProcessTeam`` ship them.  Their
expression-form specifications live in ``tests/kernels/kernel_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cfd import rhs as cfd
from repro.cg import solver as cg
from repro.mg import operators as mg


class UnknownKernelError(KeyError):
    """The name is not one of the catalogued kernels."""

    def __init__(self, kernel: str):
        super().__init__(
            f"unknown kernel {kernel!r}; registered: {sorted(KERNELS)}")
        self.kernel = kernel


@dataclass(frozen=True)
class Kernel:
    """One catalogued kernel: its stable name and its slab function."""

    name: str
    fn: Callable


KERNELS: dict[str, Kernel] = {
    name: Kernel(name, fn) for name, fn in (
        ("mg.resid", mg._resid_slab),
        ("mg.psinv", mg._psinv_slab),
        ("mg.rprj3", mg._rprj3_slab),
        ("mg.interp", mg._interp_slab),
        ("mg.norm2u3", mg._norm_slab),
        ("cfd.fields", cfd.fields_slab),
        ("cfd.rhs", cfd.rhs_slab),
        ("cg.matvec", cg._matvec_slab),
        ("cg.update_zr", cg._update_zr_slab),
        ("cg.norm_diff", cg._norm_diff_slab),
    )
}


def resolve(kernel: str) -> Kernel:
    """The catalogued kernel called ``kernel``."""
    try:
        return KERNELS[kernel]
    except KeyError:
        raise UnknownKernelError(kernel) from None
