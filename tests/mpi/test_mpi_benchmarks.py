"""Tests for the MPI-style NPB implementations (class S, few ranks)."""

import numpy as np
import pytest

from repro.cg.params import ZETA_EPSILON, cg_params
from repro.ep.params import EP_EPSILON, ep_params
from repro.ft.benchmark import _fill_conditions_slab
from repro.ft.params import FT_EPSILON, ft_params
from repro.mpi import (
    cg_mpi_zeta,
    ep_mpi_sums,
    ft_mpi_checksums,
    is_mpi_verify,
)
from repro.team import SerialTeam
from repro.team.partition import partition_bounds


class TestFTMPI:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_class_s_checksums(self, nprocs):
        params = ft_params("S")
        checksums = ft_mpi_checksums("S", nprocs)
        assert len(checksums) == params.niter
        for computed, reference in zip(checksums, params.checksums):
            assert abs((computed.real - reference.real)
                       / reference.real) < FT_EPSILON
            assert abs((computed.imag - reference.imag)
                       / reference.imag) < FT_EPSILON

    @pytest.mark.parametrize("nprocs", [1, 3, 4])
    def test_initial_field_built_rank_by_rank(self, nprocs):
        # Each rank fills its own z-slab, as ft_mpi's rank program does;
        # stacked, the slabs equal the field a serial team fills.
        params = ft_params("S")
        shape = (params.nz, params.ny, params.nx)
        field = np.empty(shape, dtype=np.complex128)
        SerialTeam().parallel_for(params.nz, _fill_conditions_slab, field)
        slabs = []
        for rank in range(nprocs):
            zlo, zhi = partition_bounds(params.nz, nprocs, rank)
            slab = np.empty((zhi - zlo,) + shape[1:], dtype=np.complex128)
            _fill_conditions_slab(zlo, zhi, slab, zlo)
            slabs.append(slab)
        assert np.array_equal(np.concatenate(slabs), field)

    def test_uneven_rank_count(self):
        # ny=64, nz=64 split over 3 ranks exercises uneven slabs.
        checksums = ft_mpi_checksums("S", 3)
        reference = ft_params("S").checksums[0]
        assert checksums[0].real == pytest.approx(reference.real,
                                                  rel=1e-12)


class TestISMPI:
    @pytest.mark.parametrize("nprocs", [1, 3, 4])
    def test_class_s_verifies(self, nprocs):
        assert is_mpi_verify("S", nprocs)


class TestCGMPI:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_class_s_zeta(self, nprocs):
        zeta = cg_mpi_zeta("S", nprocs)
        reference = cg_params("S").zeta_verify
        assert abs((zeta - reference) / reference) < ZETA_EPSILON


class TestEPMPI:
    def test_class_s_sums(self):
        params = ep_params("S")
        sx, sy, counts = ep_mpi_sums("S", 4)
        assert abs((sx - params.sx_verify) / params.sx_verify) < EP_EPSILON
        assert abs((sy - params.sy_verify) / params.sy_verify) < EP_EPSILON
        assert counts.sum() > 0

    def test_matches_shared_memory_ep(self):
        from repro.ep import EP

        bench = EP("S")
        bench.run()
        sx, sy, counts = ep_mpi_sums("S", 2)
        assert sx == pytest.approx(bench.sx, rel=1e-12)
        assert np.array_equal(counts, bench.counts)
