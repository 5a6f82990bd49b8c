"""The BT/SP constant soup (``set_constants`` in bt.f/sp.f).

A frozen dataclass so it pickles cheaply to process workers.  Names follow
the Fortran exactly; every derived constant is precomputed the same way the
Fortran does (product of previously-derived values), preserving rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CFDConstants:
    nx: int
    ny: int
    nz: int
    dt: float

    # everything below is derived in __post_init__
    c1: float = field(init=False, default=1.4)
    c2: float = field(init=False, default=0.4)
    c3: float = field(init=False, default=0.1)
    c4: float = field(init=False, default=1.0)
    c5: float = field(init=False, default=1.4)

    def __post_init__(self):
        s = object.__setattr__
        nx, ny, nz, dt = self.nx, self.ny, self.nz, self.dt
        s(self, "bt", math.sqrt(0.5))
        s(self, "dnxm1", 1.0 / (nx - 1))
        s(self, "dnym1", 1.0 / (ny - 1))
        s(self, "dnzm1", 1.0 / (nz - 1))
        s(self, "c1c2", self.c1 * self.c2)
        s(self, "c1c5", self.c1 * self.c5)
        s(self, "c3c4", self.c3 * self.c4)
        s(self, "c1345", self.c1c5 * self.c3c4)
        s(self, "conz1", 1.0 - self.c1c5)
        s(self, "tx1", 1.0 / (self.dnxm1 * self.dnxm1))
        s(self, "tx2", 1.0 / (2.0 * self.dnxm1))
        s(self, "tx3", 1.0 / self.dnxm1)
        s(self, "ty1", 1.0 / (self.dnym1 * self.dnym1))
        s(self, "ty2", 1.0 / (2.0 * self.dnym1))
        s(self, "ty3", 1.0 / self.dnym1)
        s(self, "tz1", 1.0 / (self.dnzm1 * self.dnzm1))
        s(self, "tz2", 1.0 / (2.0 * self.dnzm1))
        s(self, "tz3", 1.0 / self.dnzm1)
        for m in range(1, 6):
            s(self, f"dx{m}", 0.75)
            s(self, f"dy{m}", 0.75)
            s(self, f"dz{m}", 1.0)
        s(self, "directional", {
            vel: (getattr(self, f"t{axis}1"), getattr(self, f"t{axis}2"),
                  np.array([getattr(self, f"d{axis}{m}")
                            for m in range(1, 6)]))
            for vel, axis in ((1, "x"), (2, "y"), (3, "z"))})
        s(self, "dxmax", max(self.dx3, self.dx4))
        s(self, "dymax", max(self.dy2, self.dy4))
        s(self, "dzmax", max(self.dz2, self.dz3))
        s(self, "dssp", 0.25 * max(self.dx1, max(self.dy1, self.dz1)))
        s(self, "c4dssp", 4.0 * self.dssp)
        s(self, "c5dssp", 5.0 * self.dssp)
        s(self, "dttx1", dt * self.tx1)
        s(self, "dttx2", dt * self.tx2)
        s(self, "dtty1", dt * self.ty1)
        s(self, "dtty2", dt * self.ty2)
        s(self, "dttz1", dt * self.tz1)
        s(self, "dttz2", dt * self.tz2)
        s(self, "c2dttx1", 2.0 * self.dttx1)
        s(self, "c2dtty1", 2.0 * self.dtty1)
        s(self, "c2dttz1", 2.0 * self.dttz1)
        s(self, "dtdssp", dt * self.dssp)
        s(self, "comz1", self.dtdssp)
        s(self, "comz4", 4.0 * self.dtdssp)
        s(self, "comz5", 5.0 * self.dtdssp)
        s(self, "comz6", 6.0 * self.dtdssp)
        s(self, "c3c4tx3", self.c3c4 * self.tx3)
        s(self, "c3c4ty3", self.c3c4 * self.ty3)
        s(self, "c3c4tz3", self.c3c4 * self.tz3)
        for m in range(1, 6):
            s(self, f"dx{m}tx1", getattr(self, f"dx{m}") * self.tx1)
            s(self, f"dy{m}ty1", getattr(self, f"dy{m}") * self.ty1)
            s(self, f"dz{m}tz1", getattr(self, f"dz{m}") * self.tz1)
        s(self, "c2iv", 2.5)
        s(self, "con43", 4.0 / 3.0)
        s(self, "con16", 1.0 / 6.0)
        s(self, "xxcon1", self.c3c4tx3 * self.con43 * self.tx3)
        s(self, "xxcon2", self.c3c4tx3 * self.tx3)
        s(self, "xxcon3", self.c3c4tx3 * self.conz1 * self.tx3)
        s(self, "xxcon4", self.c3c4tx3 * self.con16 * self.tx3)
        s(self, "xxcon5", self.c3c4tx3 * self.c1c5 * self.tx3)
        s(self, "yycon1", self.c3c4ty3 * self.con43 * self.ty3)
        s(self, "yycon2", self.c3c4ty3 * self.ty3)
        s(self, "yycon3", self.c3c4ty3 * self.conz1 * self.ty3)
        s(self, "yycon4", self.c3c4ty3 * self.con16 * self.ty3)
        s(self, "yycon5", self.c3c4ty3 * self.c1c5 * self.ty3)
        s(self, "zzcon1", self.c3c4tz3 * self.con43 * self.tz3)
        s(self, "zzcon2", self.c3c4tz3 * self.tz3)
        s(self, "zzcon3", self.c3c4tz3 * self.conz1 * self.tz3)
        s(self, "zzcon4", self.c3c4tz3 * self.con16 * self.tz3)
        s(self, "zzcon5", self.c3c4tz3 * self.c1c5 * self.tz3)
