"""The four-step ``fft_rows`` against its oracle, its slabs and one core.

``repro.ft.fft.fft_rows`` computes each row's DFT as two small stacked
matrix multiplies with a twiddle multiply between them.  It is held to
three things here:

* the radix-2 Stockham it replaced (``kernel_oracle.fft_rows_reference``)
  and ``np.fft``, at a declared relative error, at every NPB length and
  at n = 1 and 2, where the first factor n1 is 1;
* bit-identity under any cut of the rows into slabs -- what makes FT's
  checksums equal on every backend and worker count
  (``test_bit_identity.py`` pins them);
* the calling thread: a transform may not start BLAS threads of its own,
  so process CPU time stays near wall time (spinning BLAS threads push
  the ratio toward the core count).
"""

import time

import kernel_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ft.fft import fft_rows

#: Max |fft_rows - reference| / max |reference| per transform.
MAX_RELATIVE_ERROR = 1e-14

#: Process CPU time over wall time allowed for one single-threaded call.
ONE_CORE_CPU_PER_WALL = 1.3


def _random_rows(m, n, seed=0):
    return (np.random.default_rng(seed).standard_normal((m, 2 * n))
            .view(np.complex128))


def _relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [2 ** e for e in range(9)])
def test_matches_stockham_and_numpy(n, sign):
    x = _random_rows(9, n, seed=n)
    got = fft_rows(x, sign)
    numpy_ref = (np.fft.fft(x, axis=1) if sign < 0
                 else np.fft.ifft(x, axis=1) * n)
    assert _relative_error(got, oracle.fft_rows_reference(x, sign)) \
        <= MAX_RELATIVE_ERROR
    assert _relative_error(got, numpy_ref) <= MAX_RELATIVE_ERROR


@given(log2n=st.integers(0, 8), rows=st.integers(1, 48),
       parts=st.sampled_from([2, 3, 7]), seed=st.integers(0, 2 ** 16),
       sign=st.sampled_from([1, -1]))
@settings(max_examples=60, deadline=None)
def test_any_row_split_is_bitwise_the_whole(log2n, rows, parts, seed, sign):
    x = _random_rows(rows, 2 ** log2n, seed)
    whole = fft_rows(x, sign)
    pieces = np.concatenate([fft_rows(block, sign)
                             for block in np.array_split(x, parts)])
    assert np.array_equal(pieces.view(np.float64), whole.view(np.float64))


def test_a_large_transform_runs_on_one_core():
    x = _random_rows(65536, 128)
    fft_rows(x[:1], 1)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    fft_rows(x, 1)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    assert cpu <= ONE_CORE_CPU_PER_WALL * wall, (cpu, wall)
