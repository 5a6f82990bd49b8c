"""Tests for the four-step FFT and the FT benchmark."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ft import FT, fft3d, fft_along_axis
from repro.ft.fft import fft_rows
from repro.team import ProcessTeam, ThreadTeam


def _random_complex(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(shape) + 1j * rng.random(shape)


class TestFFTRows:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256])
    def test_matches_numpy(self, n):
        x = _random_complex((5, n))
        # our sign=-1 == numpy forward fft
        assert np.allclose(fft_rows(x, -1), np.fft.fft(x, axis=1),
                           atol=1e-10)
        assert np.allclose(fft_rows(x, 1), np.fft.ifft(x, axis=1) * n,
                           atol=1e-10)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fft_rows(_random_complex((2, 12)), 1)

    def test_roundtrip(self):
        x = _random_complex((3, 128))
        back = fft_rows(fft_rows(x, 1), -1) / 128
        assert np.allclose(back, x, atol=1e-12)

    @given(st.integers(min_value=0, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_linearity(self, seed):
        x = _random_complex((2, 32), seed)
        y = _random_complex((2, 32), seed + 100)
        lhs = fft_rows(2.0 * x + 3.0j * y, 1)
        rhs = 2.0 * fft_rows(x, 1) + 3.0j * fft_rows(y, 1)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_parseval(self):
        x = _random_complex((1, 64))
        transformed = fft_rows(x, 1)
        assert (np.sum(np.abs(transformed) ** 2)
                == pytest.approx(64 * np.sum(np.abs(x) ** 2), rel=1e-12))

    def test_delta_gives_constant(self):
        x = np.zeros((1, 16), dtype=complex)
        x[0, 0] = 1.0
        assert np.allclose(fft_rows(x, 1), 1.0)


class TestFFT3D:
    def test_matches_numpy_each_axis(self):
        x = _random_complex((4, 8, 16))
        for axis in range(3):
            mine = fft_along_axis(x, axis, -1)
            ref = np.fft.fft(x, axis=axis)
            assert np.allclose(mine, ref, atol=1e-10)

    def test_full_3d_roundtrip(self):
        x = _random_complex((8, 8, 8))
        assert np.allclose(fft3d(fft3d(x, 1), -1) / x.size, x, atol=1e-12)

    def test_matches_numpy_fftn(self):
        x = _random_complex((4, 8, 16))
        assert np.allclose(fft3d(x, -1), np.fft.fftn(x), atol=1e-9)


class TestFTBenchmark:
    def test_class_s_verifies(self):
        result = FT("S").run()
        assert result.verified
        worst = max(c[3] for c in result.verification.checks)
        assert worst < 1e-12

    def test_checksum_count(self):
        bench = FT("S")
        bench.run()
        assert len(bench.checksums) == 6

    def test_thread_backend_matches_serial(self):
        serial = FT("S")
        serial.run()
        with ThreadTeam(3) as team:
            threaded = FT("S", team)
            threaded.run()
        assert threaded.checksums == serial.checksums

    def test_class_w_runs_on_one_core(self):
        bench = FT("W")
        bench.setup()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        assert bench.run().verified
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        assert cpu <= 1.3 * wall, (cpu, wall)

    def test_process_backend_verifies(self):
        with ProcessTeam(2) as team:
            assert FT("S", team).run().verified
