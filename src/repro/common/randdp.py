"""The NPB double-precision pseudo-random number generator.

The NAS Parallel Benchmarks define a linear congruential generator over a
46-bit state::

    x_{k+1} = a * x_k  (mod 2**46)        value_k = x_k * 2**-46

with the default multiplier ``a = 5**13 = 1220703125``.  Every benchmark's
initial data (CG's sparse matrix, FT's source field, MG's charge placement,
EP's Gaussian deviates, IS's key stream) is produced by this generator, so
the official verification values are only reachable if the sequence is
reproduced *bit for bit*.

The Fortran carries the state in a double and splits each multiply into
23-bit halves so every intermediate is an exact integer below 2**53.  Here
the state is an unsigned 64-bit integer: multiplication wraps mod 2**64,
and 2**46 divides 2**64, so ``(a * x) & (2**46 - 1)`` is already the exact
product mod 2**46 -- one multiply and one mask, in Python ints for a
scalar and in uint64 arrays for a vector.  (NumPy warns on uint64 overflow
only for scalar-by-scalar arithmetic, so the vector path keeps every
operand an array.)

Two interfaces are provided, mirroring the Fortran:

``randlc(x, a)``
    Advance a scalar state once; returns ``(value, new_state)``.

``vranlc(n, x, a)``
    Generate ``n`` successive values as a NumPy vector; returns
    ``(values, new_state)``.  The stream is drawn in blocks of
    ``BLOCK`` = 2**16: block states are ``[a, a**2, ..., a**BLOCK] * x0``,
    one table multiply by the block's starting state, and the block's
    last state starts the next block.  The table for ``A_DEFAULT`` is
    built once at import; another multiplier builds its own per call.
    Memory is the output plus O(BLOCK).

plus an object wrapper :class:`Randlc` holding the evolving state, and
``ipow46`` for O(log k) jumps so workers can start at any stream offset.
"""

from __future__ import annotations

import numpy as np

#: Default NPB multiplier, 5**13.
A_DEFAULT = 1220703125

#: Modulus 2**46 and its mask.
_R46 = 1 << 46
_MASK46 = _R46 - 1

#: 2**-46 as an exact double (2**-46 is representable).
R46_INV = float(2.0**-46)

#: States per vranlc block.
BLOCK = 1 << 16


def _mulmod46(a: int, x: int) -> int:
    """Exact ``a * x mod 2**46`` for 46-bit non-negative integers."""
    return (a * x) & _MASK46


def randlc(x: int, a: int = A_DEFAULT) -> tuple[float, int]:
    """Advance the NPB LCG one step.

    Parameters
    ----------
    x : int
        Current 46-bit state (the Fortran code carries it in a double).
    a : int
        Multiplier, default ``5**13``.

    Returns
    -------
    (value, new_state) : tuple[float, int]
        ``value`` is the uniform deviate in ``(0, 1)`` corresponding to the
        *new* state, matching the Fortran convention where ``randlc``
        updates ``x`` and returns ``x * 2**-46``.
    """
    x = _mulmod46(int(a), int(x))
    return x * R46_INV, x


def ipow46(a: int, exponent: int) -> int:
    """Compute ``a**exponent mod 2**46`` (NPB's ``ipow46`` jump function).

    Used by EP and FT to jump the generator to the start of a batch without
    generating the intervening values, enabling embarrassingly parallel
    generation.
    """
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    result = 1
    q = int(a) & _MASK46
    n = exponent
    while n > 0:
        if n & 1:
            result = _mulmod46(result, q)
        q = _mulmod46(q, q)
        n >>= 1
    return result


def _powers_of(a: int, n: int) -> np.ndarray:
    """Return ``[a**1, a**2, ..., a**n] mod 2**46`` as a uint64 array.

    Built by doubling: the second half of each prefix is the first half
    times its last entry, so construction is O(log n) vectorized passes.
    """
    powers = np.empty(n, dtype=np.uint64)
    powers[0] = a & _MASK46
    filled = 1
    while filled < n:
        take = min(filled, n - filled)
        head = powers[filled : filled + take]
        np.multiply(powers[:take], powers[filled - 1 : filled], out=head)
        head &= np.uint64(_MASK46)
        filled += take
    return powers


_DEFAULT_POWERS = _powers_of(A_DEFAULT, BLOCK)


def vranlc(n: int, x: int, a: int = A_DEFAULT,
           out: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Generate ``n`` successive NPB deviates, vectorized.

    Semantically identical to the Fortran ``vranlc``: starting from state
    ``x`` it produces values for states ``a*x, a^2*x, ..., a^n*x`` and
    returns the final state.  ``out``, a float64 array of length ``n``,
    receives the values in place of a new array.

    Returns
    -------
    (values, new_state) : tuple[np.ndarray, int]
        ``values`` is a float64 array of length ``n`` in ``(0, 1)``
        (``out`` when given).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if out is not None and out.shape != (n,):
        raise ValueError(f"out must have shape ({n},), not {out.shape}")
    values = np.empty(n, dtype=np.float64) if out is None else out
    if n == 0:
        return values, int(x)
    size = min(n, BLOCK)
    powers = _DEFAULT_POWERS if a == A_DEFAULT else _powers_of(int(a), size)
    states = np.empty(size, dtype=np.uint64)
    # A one-element array, not a scalar: NumPy warns on scalar overflow.
    start = np.array([int(x) & _MASK46], dtype=np.uint64)
    for lo in range(0, n, size):
        block = states[: min(size, n - lo)]
        np.multiply(powers[: len(block)], start, out=block)
        block &= np.uint64(_MASK46)
        np.multiply(block, R46_INV, out=values[lo : lo + len(block)])
        start[0] = block[-1]
    return values, int(start[0])


class Randlc:
    """Stateful wrapper around the NPB generator.

    Example
    -------
    >>> rng = Randlc(314159265)
    >>> v = rng.next()          # one deviate
    >>> batch = rng.batch(100)  # vectorized batch of 100
    """

    __slots__ = ("state", "a")

    def __init__(self, seed: int, a: int = A_DEFAULT):
        if not 0 <= seed < _R46:
            raise ValueError("seed must be a 46-bit non-negative integer")
        self.state = int(seed)
        self.a = int(a)

    def next(self) -> float:
        """Advance once and return the deviate (Fortran ``randlc``)."""
        value, self.state = randlc(self.state, self.a)
        return value

    def batch(self, n: int) -> np.ndarray:
        """Return the next ``n`` deviates as a vector (Fortran ``vranlc``)."""
        values, self.state = vranlc(n, self.state, self.a)
        return values

    def skip(self, n: int) -> None:
        """Jump the state forward by ``n`` steps without producing values."""
        self.state = _mulmod46(ipow46(self.a, n), self.state)

    def copy(self) -> "Randlc":
        clone = Randlc.__new__(Randlc)
        clone.state = self.state
        clone.a = self.a
        return clone
