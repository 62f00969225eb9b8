import numpy as np
import pytest

from rfhlab.symlin import standard_jmat, symplectic_defect
from symplectic_helpers import random_symplectic


def omega(jmat, u, v):
    return float(np.dot(u, jmat @ v))


def test_standard_j_m1():
    assert np.array_equal(standard_jmat(1), np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_omega_hand_value():
    # u = (1,0), v = (0,1): Jv = (-1,0), u . Jv = -1
    assert omega(standard_jmat(1), np.array([1.0, 0.0]), np.array([0.0, 1.0])) == -1.0


def test_j_squared_minus_identity():
    for m in (1, 2, 3, 5):
        j = standard_jmat(m)
        assert np.array_equal(j @ j, -np.eye(2 * m))


def test_omega_antisymmetric_and_j_invariant():
    rng = np.random.default_rng(0)
    for m in (1, 2, 3):
        j = standard_jmat(m)
        for _ in range(20):
            u = rng.standard_normal(2 * m)
            v = rng.standard_normal(2 * m)
            assert omega(j, u, v) == pytest.approx(-omega(j, v, u), abs=1e-12)
            assert omega(j, j @ u, j @ v) == pytest.approx(omega(j, u, v), abs=1e-12)


def test_standard_structure_rejects_zero():
    with pytest.raises(ValueError):
        standard_jmat(0)


def test_is_symplectic_examples():
    assert symplectic_defect(np.eye(4)) <= 1e-12
    for t in (0.3, 1.7, -2.2):
        j = standard_jmat(1)
        rot = np.cos(t) * np.eye(2) + np.sin(t) * j
        assert symplectic_defect(rot) <= 1e-12
    assert symplectic_defect(np.diag([2.0, 2.0])) > 1e-9  # scales omega by 4
    with pytest.raises(ValueError):
        symplectic_defect(np.eye(3))


def test_random_symplectic_lands_in_group():
    rng = np.random.default_rng(4)
    for m in (1, 2):
        for _ in range(10):
            psi = random_symplectic(m, rng)
            assert symplectic_defect(psi) <= 1e-9
            assert np.linalg.det(psi) > 0
