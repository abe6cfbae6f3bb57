import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relbohm.numerics import Grid2D, lambert_w, omega


def test_omega_values():
    assert omega(0.0) == 1.0
    assert omega(0.75) == pytest.approx(1.25, abs=1e-15)
    assert omega(-0.75) == pytest.approx(1.25, abs=1e-15)


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_omega_difference_identity(k, kp):
    assert omega(k) ** 2 - omega(kp) ** 2 == pytest.approx(
        k ** 2 - kp ** 2, abs=1e-9)


@given(st.floats(-0.35, 100.0))
@settings(max_examples=200)
def test_lambert_branch0_roundtrip(y):
    w = lambert_w(0, y)
    assert w * np.exp(w) == pytest.approx(y, rel=1e-12, abs=1e-12)


@given(st.floats(-0.36, -1e-6))
@settings(max_examples=200)
def test_lambert_branch_minus1_roundtrip(y):
    w = lambert_w(-1, y)
    assert w <= -1.0 + 1e-12
    assert w * np.exp(w) == pytest.approx(y, rel=1e-12, abs=1e-12)


def test_lambert_domain_errors():
    with pytest.raises(ValueError):
        lambert_w(0, -1.0)
    with pytest.raises(ValueError):
        lambert_w(-1, 0.5)
    with pytest.raises(ValueError):
        lambert_w(2, 0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(1.0, 0.0, 10, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        Grid2D(0.0, 1.0, 1, 0.0, 1.0, 10)
    g = Grid2D(0.0, 1.0, 11, 0.0, 2.0, 21)
    assert g.dx == pytest.approx(0.1)
    assert g.dt == pytest.approx(0.1)
