"""The kernel catalogue's contract, and the guards that keep the tier gone.

``repro.kernels.registry`` is a plain table: ten stable names, each the
production slab function its driver hands to ``team.parallel_for``.  The
first half pins that -- the names, identity with the driver's function,
picklability for ``ProcessTeam``, what an unknown name raises, and that
running the benchmarks really dispatches the catalogued functions.

The second half is about the ``reference``/``fused``/``compiled`` tier
the table used to select between: every site that took a tier refuses
one now (loudly, never by ignoring it), the bench cell grammar is four
fields, and an older bench record loses its tier column on load.
"""

import json
import pickle

import pytest

from repro import get_benchmark, make_team, run_benchmark
from repro.cfd import rhs as cfd
from repro.cg import solver as cg
from repro.harness.bench import (SCHEMA_VERSION, BenchCell, _migrate_record,
                                 load_record)
from repro.kernels import KERNELS, UnknownKernelError, resolve
from repro.mg import operators as mg
from repro.runtime import ExecutionPlan
from repro.service import BenchService, ShardCoordinator
from repro.service.jobs import JobSpec
from repro.service.loadgen import MixEntry
from repro.team import SerialTeam

#: name -> the function its driver dispatches, spelled out by hand.
DISPATCHED = {
    "mg.resid": mg._resid_slab,
    "mg.psinv": mg._psinv_slab,
    "mg.rprj3": mg._rprj3_slab,
    "mg.interp": mg._interp_slab,
    "mg.norm2u3": mg._norm_slab,
    "cfd.fields": cfd.fields_slab,
    "cfd.rhs": cfd.rhs_slab,
    "cg.matvec": cg._matvec_slab,
    "cg.update_zr": cg._update_zr_slab,
    "cg.norm_diff": cg._norm_diff_slab,
}


class _RecordingTeam(SerialTeam):
    """A serial team that remembers every function it was handed."""

    def __init__(self):
        super().__init__()
        self.dispatched = set()

    def parallel_for(self, n, fn, *args):
        self.dispatched.add(fn)
        return super().parallel_for(n, fn, *args)


class TestRegistryContract:
    def test_unknown_kernel(self):
        with pytest.raises(UnknownKernelError) as err:
            resolve("nope")
        assert err.value.kernel == "nope"
        for name in DISPATCHED:
            assert name in str(err.value)

    def test_unknown_tier_everywhere(self):
        """No site that used to take a tier still takes one."""
        with pytest.raises(TypeError):
            resolve("mg.resid", "fused")
        with pytest.raises(TypeError):
            ExecutionPlan(2, kernel_backend="fused")
        with pytest.raises(TypeError):
            run_benchmark("CG", "S", kernel_backend="fused")
        with pytest.raises(TypeError):
            BenchService(kernel_backend="fused")
        with pytest.raises(TypeError):
            ShardCoordinator({"a": "http://127.0.0.1:1"},
                             default_kernel_backend="fused")


class TestGlobalRegistry:
    def test_suite_kernels_registered(self):
        assert sorted(KERNELS) == sorted(DISPATCHED)
        assert len(KERNELS) == 10

    @pytest.mark.parametrize("name", sorted(DISPATCHED))
    def test_resolves_to_the_dispatched_function(self, name):
        kernel = resolve(name)
        assert kernel.name == name
        assert kernel.fn is DISPATCHED[name]

    @pytest.mark.parametrize("name", sorted(DISPATCHED))
    def test_module_level_and_picklable(self, name):
        """ProcessTeam ships slab functions by qualified name."""
        fn = resolve(name).fn
        assert fn.__qualname__ == fn.__name__
        assert pickle.loads(pickle.dumps(fn)) is fn

    def test_drivers_dispatch_the_catalogued_functions(self):
        """MG, CG, BT and SP hand every catalogued function to
        ``parallel_for`` themselves."""
        with _RecordingTeam() as team:
            for name in ("MG", "CG", "BT", "SP"):
                assert get_benchmark(name)("S", team).run().verified
                team.reset()
            catalogued = {kernel.fn for kernel in KERNELS.values()}
            assert catalogued <= team.dispatched


    def test_declared_tolerances_carry_notes(self):
        """The one kernel that is not bit-identical to its oracle says
        so, with the bound the equivalence suite holds it to."""
        assert "1e-13" in mg._norm_slab.__doc__


class TestTeamPlumbing:
    def test_unknown_tier_rejected_at_construction(self):
        for backend, workers in (("serial", 1), ("threads", 2),
                                 ("process", 2)):
            with pytest.raises(TypeError):
                make_team(backend, workers, kernel_backend="fused")

    def test_unknown_tier_rejected_at_retier(self):
        """A live team has nothing to re-tier or resolve by name."""
        with make_team("serial", 1) as team:
            for gone in ("kernel_backend", "set_kernel_backend",
                         "_resolve_kernel", "parallel_kernel",
                         "reduce_kernel"):
                assert not hasattr(team, gone)
            assert not hasattr(team.plan, "kernel_backend")


class TestJobSpecFingerprint:
    def test_unknown_tier_rejected(self):
        with pytest.raises(TypeError):
            JobSpec.create("CG", "S", kernel_backend="fused")

    def test_round_trips_through_dict(self):
        spec = JobSpec.create("MG", "S")
        assert len(spec.as_dict()) == 9
        assert "kernel_backend" not in spec.as_dict()
        assert JobSpec.from_dict(spec.as_dict()) == spec


class TestBenchCellGrammar:
    def test_default_tier_keeps_historical_cell_id(self):
        """Cell ids are what the committed BENCH_ records match on."""
        assert BenchCell.parse("CG:S:serial:1").cell_id == "CG.S.serial.x1"
        assert BenchCell.parse("mg:s:threads:2").cell_id == "MG.S.threads.x2"
        assert MixEntry.parse("cg:s:threads:2").cell_id == "CG.S.threads.x2"

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            BenchCell.parse("CG:S:serial")
        with pytest.raises(ValueError,
                           match="BENCHMARK:CLASS:BACKEND:WORKERS$"):
            BenchCell.parse("CG:S:serial:1:compiled")
        with pytest.raises(ValueError, match=r"WORKERS\]\]\]\[@WEIGHT\]$"):
            MixEntry.parse("CG:S:serial:1:compiled")


class TestSchemaV5Migration:
    def test_v1_chains_to_v5(self):
        """...and on to the current schema, where the tier column the
        v5 step used to backfill no longer exists."""
        record = {"schema_version": 1,
                  "cells": [{"kind": "benchmark",
                             "cell_id": "CG.S.serial.x1",
                             "regions": {"total": {}}}]}
        record = _migrate_record(record, 1)
        cell = record["cells"][0]
        assert cell["faults"] == 0 and cell["fault_counts"] == {}
        assert cell["regions"]["total"]["alloc_bytes"] == 0
        assert cell["job_id"] is None
        assert "kernel_backend" not in cell
        assert record["schema_version"] == SCHEMA_VERSION

    def test_load_record_migrates_from_disk(self, tmp_path, capsys):
        """The one kept step: v6 -> current drops the tier column, and
        a cell measured at a removed tier with it."""
        path = tmp_path / "BENCH_0001.json"
        path.write_text(json.dumps({
            "kind": "npb-bench-record",
            "schema_version": 6,
            "cells": [
                {"kind": "benchmark", "id": "CG.S.serial.x1",
                 "kernel_backend": "fused"},
                {"kind": "benchmark", "id": "CG.S.serial.x1.compiled",
                 "kernel_backend": "compiled"},
                {"kind": "basic_op", "id": "basic_op.stencil1"},
            ],
        }))
        record = load_record(str(path))
        assert record["schema_version"] == SCHEMA_VERSION == 7
        assert [cell["id"] for cell in record["cells"]] == [
            "CG.S.serial.x1", "basic_op.stencil1"]
        assert all("kernel_backend" not in cell for cell in record["cells"])
        assert "CG.S.serial.x1.compiled" in capsys.readouterr().err
