"""MG right-hand side: the zran3 random charge field.

The interior of the grid is filled with LCG deviates in row/plane scan
order (the Fortran per-row ``vranlc`` calls with per-row/per-plane seed
jumps consume exactly one stream value per interior point, so the whole
fill is a single contiguous stream).  The field is then replaced by +1
charges at the ten largest values and -1 charges at the ten smallest,
zero elsewhere, with ties at the selection threshold broken toward the
earlier scan position exactly as the Fortran strict comparison does.
"""

from __future__ import annotations

import numpy as np

from repro.common.randdp import Randlc
from repro.mg.operators import comm3

#: Number of charges of each sign (mm in zran3).
CHARGES = 10


def _extreme_positions(values: np.ndarray, k: int, largest: bool) -> np.ndarray:
    """Flat indices of the k largest (or smallest) values, first-scan wins ties."""
    if largest:
        threshold = np.partition(values, len(values) - k)[len(values) - k]
        candidates = np.flatnonzero(values >= threshold)
        keys = -values[candidates]
    else:
        threshold = np.partition(values, k - 1)[k - 1]
        candidates = np.flatnonzero(values <= threshold)
        keys = values[candidates]
    order = np.lexsort((candidates, keys))
    return candidates[order[:k]]


def charge_positions(nx: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Compute the (+1, -1) charge positions as (i3, i2, i1) interior indices.

    Returns two (CHARGES, 3) arrays of 0-based *interior* coordinates
    (add 1 for the ghost offset).
    """
    values = Randlc(seed).batch(nx * nx * nx)
    plus = _extreme_positions(values, CHARGES, largest=True)
    minus = _extreme_positions(values, CHARGES, largest=False)
    shape = (nx, nx, nx)
    return (np.column_stack(np.unravel_index(plus, shape)),
            np.column_stack(np.unravel_index(minus, shape)))


def zran3(z: np.ndarray, nx: int, seed: int,
          positions: tuple[np.ndarray, np.ndarray] | None = None
          ) -> tuple[np.ndarray, np.ndarray]:
    """Fill ``z`` with the charge field; returns the positions used.

    ``positions`` lets the caller reuse positions from a previous call
    (the benchmark calls zran3 twice with the same seed; the result is
    identical, so recomputing the random field is skipped).
    """
    if positions is None:
        positions = charge_positions(nx, seed)
    plus, minus = positions
    z.fill(0.0)
    z[plus[:, 0] + 1, plus[:, 1] + 1, plus[:, 2] + 1] = 1.0
    z[minus[:, 0] + 1, minus[:, 1] + 1, minus[:, 2] + 1] = -1.0
    comm3(z)
    return positions
