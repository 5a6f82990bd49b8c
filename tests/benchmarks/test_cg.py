"""Tests for the CG benchmark and its sparse-matrix generator."""

import numpy as np
import pytest

from repro.cg import CG, makea
from repro.cg import benchmark as cg_module
from repro.cg.params import cg_params
from repro.common.randdp import Randlc
from repro.team import ProcessTeam, SerialTeam, ThreadTeam


@pytest.fixture(scope="module")
def small_matrix():
    rng = Randlc(314159265)
    rng.next()
    return makea(200, 5, 0.1, 10.0, rng)


class TestMakea:
    def test_diagonal_present_every_row(self, small_matrix):
        m = small_matrix
        for i in range(m.n):
            cols = m.colidx[m.rowstr[i]:m.rowstr[i + 1]]
            assert i in cols

    def test_symmetric(self, small_matrix):
        dense = small_matrix.to_dense()
        assert np.abs(dense - dense.T).max() < 1e-15

    def test_positive_definite_after_shift_back(self, small_matrix):
        # A = M + (rcond - shift) I with M PSD-ish; adding shift back
        # must give a positive-definite matrix (eigenvalues ~ [rcond, 1]).
        dense = small_matrix.to_dense() + 10.0 * np.eye(small_matrix.n)
        eigenvalues = np.linalg.eigvalsh(dense)
        # smallest eigenvalue pinned near rcond by the +rcond*I term
        assert eigenvalues.min() == pytest.approx(0.1, rel=1e-2)
        assert eigenvalues.max() > 0

    def test_rowstr_monotone_and_consistent(self, small_matrix):
        m = small_matrix
        assert m.rowstr[0] == 0
        assert np.all(np.diff(m.rowstr) >= 1)  # diagonal guarantees >= 1
        assert m.rowstr[-1] == len(m.a) == len(m.colidx)

    def test_no_duplicate_columns_within_row(self, small_matrix):
        m = small_matrix
        for i in range(m.n):
            cols = m.colidx[m.rowstr[i]:m.rowstr[i + 1]]
            assert len(set(cols.tolist())) == len(cols)

    def test_matvec_matches_dense(self, small_matrix):
        m = small_matrix
        x = np.linspace(-1, 1, m.n)
        assert np.allclose(m.matvec(x), m.to_dense() @ x, atol=1e-12)

    def test_deterministic(self):
        def build():
            rng = Randlc(314159265)
            rng.next()
            return makea(100, 4, 0.1, 5.0, rng)

        a, b = build(), build()
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.colidx, b.colidx)


class TestCGBenchmark:
    def test_class_s_verifies(self):
        result = CG("S").run()
        assert result.verified
        assert result.verification.checks[0][3] < 1e-12  # near bit-exact

    def test_class_s_zeta_value(self):
        bench = CG("S")
        bench.run()
        assert bench.zeta == pytest.approx(8.5971775078648, abs=1e-10)

    def test_history_recorded(self):
        bench = CG("S")
        bench.run()
        assert len(bench.history) == bench.niter
        rnorms = [r for r, _ in bench.history]
        assert rnorms[-1] < rnorms[0]  # residual decreases over outers

    def test_thread_backend_verifies(self):
        with ThreadTeam(3) as team:
            assert CG("S", team).run().verified

    def test_process_backend_verifies(self):
        with ProcessTeam(2) as team:
            assert CG("S", team).run().verified

    def test_single_worker_backends_bitwise_equal_serial(self):
        serial = CG("S", SerialTeam())
        serial.run()
        with ThreadTeam(1) as team:
            threaded = CG("S", team)
            threaded.run()
        assert serial.zeta == threaded.zeta

    def test_setup_rejects_column_index_out_of_range(self, monkeypatch):
        """The mat-vec gathers without a per-call bounds check, so setup
        proves ``0 <= colidx < n`` once and refuses a matrix that breaks
        it (rather than gathering a clipped value mid-run)."""
        def bad_makea(n, *args):
            matrix = makea(n, *args)
            matrix.colidx[len(matrix.colidx) // 2] = n
            return matrix

        monkeypatch.setattr(cg_module, "makea", bad_makea)
        with pytest.raises(ValueError, match="column index"):
            CG("S").setup()

    def test_op_count_formula(self):
        params = cg_params("S")
        bench = CG("S")
        expected = (2.0 * params.niter * params.na
                    * (3.0 + params.nonzer * (params.nonzer + 1)
                       + 25.0 * (5.0 + params.nonzer * (params.nonzer + 1))
                       + 3.0))
        assert bench.op_count() == expected
