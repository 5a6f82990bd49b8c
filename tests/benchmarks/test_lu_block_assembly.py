"""LU assembles its blocks once per SSOR step: bit-identity against the
per-wavefront oracle, tiling invariance, and the scratch bound."""

import numpy as np
import pytest

import lu_oracle
from repro.lu import LU, LU_CLASSES
from repro.lu import sweep
from repro.team import ProcessTeam, SerialTeam, ThreadTeam

BACKENDS = {
    "serial": SerialTeam,
    "threads2": lambda: ThreadTeam(2),
    "threads3": lambda: ThreadTeam(3),
    "process2": lambda: ProcessTeam(2),
}
MODES = ("hyperplane", "plane")


@pytest.fixture(params=BACKENDS)
def team(request):
    with BACKENDS[request.param]() as team:
        yield team


def _ready(team, mode):
    lu = LU("S", team, sweep_mode=mode)
    lu.setup()
    return lu


def _assert_same_state(a, b):
    assert np.array_equal(a.rsd, b.rsd)
    assert np.array_equal(a.u, b.u)


@pytest.mark.parametrize("mode", MODES)
def test_matches_per_wavefront_oracle(team, mode):
    new, old = _ready(team, mode), _ready(team, mode)
    _assert_same_state(new, old)      # set-up ran one production step
    for steps in (1, 4):              # compared after one and five steps
        new._ssor(steps)
        lu_oracle.ssor(old, steps)
        _assert_same_state(new, old)


# Class S has 1000 interior points: a cap of 1 leaves every wavefront a
# tile by itself; 400 cuts the 28 hyperplanes into runs of 352, 365 and
# 283 points.
@pytest.mark.parametrize("cap, hyperplane_tiles", [(1, 28), (400, 3)])
@pytest.mark.parametrize("mode", MODES)
def test_tiled_equals_untiled(team, mode, cap, hyperplane_tiles,
                              monkeypatch):
    untiled = _ready(team, mode)
    assert len(untiled._tiles) == 1
    monkeypatch.setattr(sweep, "JAC_TILE_POINTS", cap)
    tiled = _ready(team, mode)
    if mode == "hyperplane":
        assert len(tiled._tiles) == hyperplane_tiles
    assert len(tiled._tiles) > 1
    assert tiled.jac.shape[1] < untiled.jac.shape[1]
    untiled._ssor(5)
    tiled._ssor(5)
    _assert_same_state(tiled, untiled)


class TestTiles:
    def test_tiles_are_whole_consecutive_wavefronts_under_the_cap(
            self, monkeypatch):
        offsets = sweep.hyperplanes(12, 12, 12)[3].tolist()
        monkeypatch.setattr(sweep, "JAC_TILE_POINTS", 400)
        tiles = sweep.wavefront_tiles(offsets)
        assert tiles[0][0] == 0 and tiles[-1][1] == len(offsets) - 1
        assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
        sizes = [offsets[last] - offsets[first] for first, last in tiles]
        assert sizes == [352, 365, 283]
        assert sweep.jac_scratch_shape(offsets, tiles) == (7, 365, 5, 5)

    @pytest.mark.parametrize("problem_class", sorted(
        LU_CLASSES, key=lambda pc: LU_CLASSES[pc].problem_size))
    def test_scratch_is_bounded_at_every_class(self, problem_class):
        """Shape only -- nothing is allocated or run."""
        n = LU_CLASSES[problem_class].problem_size
        offsets = sweep.hyperplanes(n, n, n)[3].tolist()
        tiles = sweep.wavefront_tiles(offsets)
        shape = sweep.jac_scratch_shape(offsets, tiles)
        assert shape[0] == 7 and shape[2:] == (5, 5)
        assert shape[1] <= sweep.JAC_TILE_POINTS
        assert 8 * int(np.prod(shape)) <= 46e6
        # one assembly dispatch per step while the whole grid fits
        assert (len(tiles) == 1) == ((n - 2) ** 3 <= sweep.JAC_TILE_POINTS)

    def test_class_a_is_tiled(self):
        offsets = sweep.hyperplanes(64, 64, 64)[3].tolist()
        assert len(sweep.wavefront_tiles(offsets)) > 1


class TestDispatchStructure:
    def test_one_assembly_dispatch_per_step(self):
        lu = LU("S")
        result = lu.run()
        niter = lu.niter
        assert result.regions["jac"]["calls"] == niter
        assert result.regions["blts"]["calls"] == 28 * niter
        assert result.regions["buts"]["calls"] == 28 * niter

    def test_jacobians_are_built_by_the_assembly_task_only(
            self, monkeypatch):
        """Nine Jacobian evaluations per step (three lower, three upper
        and three for the diagonal), however many wavefronts there are."""
        lu = _ready(SerialTeam(), "hyperplane")
        calls = []
        real = sweep._jacobians

        def counting(*args):
            calls.append(lu.team.recorder.current_region)
            return real(*args)

        monkeypatch.setattr(sweep, "_jacobians", counting)
        lu._ssor(2)
        assert calls == ["jac"] * 18
