"""Tests for the BT/SP/LU exact solution and constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfd.constants import CFDConstants
from repro.cfd.exact import CE, exact_field, exact_solution

unit = st.floats(min_value=0.0, max_value=1.0)


class TestExactSolution:
    def test_scalar_at_origin_equals_ce_column_one(self):
        values = exact_solution(0.0, 0.0, 0.0)
        assert np.allclose(values, CE[:, 0])

    def test_broadcasting(self):
        xi = np.zeros((3, 1))
        eta = np.zeros((1, 4))
        out = exact_solution(xi, eta, 0.5)
        assert out.shape == (3, 4, 5)

    @given(unit, unit, unit)
    @settings(max_examples=50)
    def test_polynomial_definition(self, xi, eta, zeta):
        values = exact_solution(xi, eta, zeta)
        for m in range(5):
            c = CE[m]
            expected = (c[0]
                        + c[1] * xi + c[4] * xi**2 + c[7] * xi**3
                        + c[10] * xi**4
                        + c[2] * eta + c[5] * eta**2 + c[8] * eta**3
                        + c[11] * eta**4
                        + c[3] * zeta + c[6] * zeta**2 + c[9] * zeta**3
                        + c[12] * zeta**4)
            assert values[m] == pytest.approx(expected, rel=1e-12)

    @given(unit, unit, unit)
    @settings(max_examples=25)
    def test_density_positive(self, xi, eta, zeta):
        # The verification norms divide by the density; it must stay
        # positive over the unit cube for the discretization to be sane.
        assert exact_solution(xi, eta, zeta)[0] > 0

    def test_exact_field_matches_pointwise(self):
        c = CFDConstants(6, 6, 6, 0.1)
        field = exact_field(6, 6, 6, c.dnxm1, c.dnym1, c.dnzm1)
        assert field.shape == (6, 6, 6, 5)
        probe = exact_solution(3 * c.dnxm1, 2 * c.dnym1, 5 * c.dnzm1)
        assert np.allclose(field[5, 2, 3], probe)


class TestConstants:
    def test_paper_values(self):
        c = CFDConstants(12, 12, 12, 0.01)
        assert c.c1 == 1.4 and c.c2 == 0.4
        assert c.dssp == 0.25 * 1.0  # max(dx1, dy1, dz1) = dz1 = 1.0
        assert c.dnxm1 == pytest.approx(1.0 / 11.0)
        assert c.tx2 == pytest.approx(11.0 / 2.0)
        assert c.con43 == pytest.approx(4.0 / 3.0)
        assert c.bt == pytest.approx(np.sqrt(0.5))

    def test_derived_products(self):
        c = CFDConstants(64, 64, 64, 0.0008)
        assert c.c1c5 == pytest.approx(1.4 * 1.4)
        assert c.c1345 == pytest.approx(1.4 * 1.4 * 0.1 * 1.0)
        assert c.xxcon2 == pytest.approx(c.c3c4 * c.tx3 * c.tx3)
        assert c.comz4 == pytest.approx(4 * c.dt * c.dssp)

    def test_directional_triples_by_momentum_component(self):
        c = CFDConstants(12, 10, 8, 0.015)
        for vel, axis in ((1, "x"), (2, "y"), (3, "z")):
            t1, t2, dvec = c.directional[vel]
            assert t1 == getattr(c, f"t{axis}1")
            assert t2 == getattr(c, f"t{axis}2")
            assert dvec.tolist() == [getattr(c, f"d{axis}{m}")
                                     for m in range(1, 6)]

    def test_picklable(self):
        import pickle

        c = CFDConstants(12, 12, 12, 0.015)
        clone = pickle.loads(pickle.dumps(c))
        assert clone.xxcon5 == c.xxcon5
        assert clone.dz5tz1 == c.dz5tz1
        assert clone == c
        assert np.array_equal(clone.directional[3][2], c.directional[3][2])
