import math

import numpy as np
import pytest

from globalspin.linalg import hermitian_expm, max_abs
from globalspin.spins import (AXES, HBAR, IndexOutOfRange, MU_BOHR,
                              GlobalField, RegisterSpec, exchange_unitary,
                              global_field_unitary, rotation_2x2,
                              spin_operator, xy_exchange_unitary,
                              zeeman_angles)
from oracle import is_unitary, swap_matrix

REG2 = RegisterSpec(2)
REG3 = RegisterSpec(3)


def heisenberg_coupling(reg, i, j):
    return sum(spin_operator(reg, i, a) @ spin_operator(reg, j, a)
               for a in AXES)


def planar_coupling(reg, i, j):
    return (spin_operator(reg, i, "x") @ spin_operator(reg, j, "x")
            + spin_operator(reg, i, "y") @ spin_operator(reg, j, "y"))


def test_spin_operators_are_half_paulis():
    sz = spin_operator(RegisterSpec(1), 0, "z")
    assert max_abs(sz - np.diag([0.5, -0.5])) == 0.0
    sx = spin_operator(RegisterSpec(1), 0, "x")
    assert max_abs(sx - 0.5 * np.array([[0, 1], [1, 0]])) == 0.0


def test_spin_commutator():
    # [S^x, S^y] = i S^z on every spin of the register.
    for k in range(3):
        sx = spin_operator(REG3, k, "x")
        sy = spin_operator(REG3, k, "y")
        sz = spin_operator(REG3, k, "z")
        assert max_abs(sx @ sy - sy @ sx - 1j * sz) < 1e-15


def test_spin_zero_is_leading_tensor_factor():
    sz = np.diag([0.5, -0.5])
    eye = np.eye(2)
    assert max_abs(spin_operator(REG2, 0, "z") - np.kron(sz, eye)) == 0.0
    assert max_abs(spin_operator(REG2, 1, "z") - np.kron(eye, sz)) == 0.0


def test_spin_operator_index_checks():
    with pytest.raises(IndexOutOfRange):
        spin_operator(REG2, 2, "z")
    with pytest.raises(IndexOutOfRange):
        spin_operator(REG2, -1, "x")


def test_rotation_2x2_matches_exponential():
    rng = np.random.default_rng(0)
    pauli = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
             "y": np.array([[0, -1j], [1j, 0]]),
             "z": np.diag([1.0 + 0j, -1.0])}
    for axis in AXES:
        for _ in range(20):
            t = float(rng.uniform(-8, 8))
            want = hermitian_expm(pauli[axis] / 2.0, t)
            assert max_abs(rotation_2x2(axis, t) - want) < 1e-14


def test_rotation_2x2_rejects_an_unknown_axis():
    with pytest.raises(ValueError, match=r"^axis must be one of .*, got 'w'$"):
        rotation_2x2("w", 0.0)


def test_rotation_2x2_period_4pi():
    r = rotation_2x2("x", 2 * math.pi)
    assert max_abs(r + np.eye(2)) < 1e-14
    r = rotation_2x2("x", 4 * math.pi)
    assert max_abs(r - np.eye(2)) < 1e-13


def test_swap_matrix_permutes_basis():
    s = swap_matrix(2, 0, 1)
    want = np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                     [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert max_abs(s - want) == 0.0
    assert max_abs(s @ s - np.eye(4)) == 0.0


def test_exchange_unitary_matches_heisenberg_exponential():
    rng = np.random.default_rng(1)
    for reg, i, j in ((REG2, 0, 1), (REG3, 0, 2), (REG3, 1, 2)):
        for _ in range(10):
            xi = float(rng.uniform(-7, 7))
            want = hermitian_expm(heisenberg_coupling(reg, i, j), xi)
            assert max_abs(exchange_unitary(reg, i, j, xi) - want) < 1e-13


def test_exchange_pi_is_phased_swap():
    # U(pi) = e^{-i pi/4} SWAP, and two of them give the scalar -i.
    u = exchange_unitary(REG2, 0, 1, math.pi)
    assert max_abs(u - np.exp(-1j * math.pi / 4) * swap_matrix(2, 0, 1)) < 1e-15
    assert max_abs(u @ u + 1j * np.eye(4)) < 1e-15


def test_exchange_composes_additively():
    a = exchange_unitary(REG2, 0, 1, 0.8)
    b = exchange_unitary(REG2, 0, 1, -2.1)
    c = exchange_unitary(REG2, 0, 1, 0.8 - 2.1)
    assert max_abs(a @ b - c) < 1e-14


def test_xy_exchange_matches_planar_exponential():
    rng = np.random.default_rng(2)
    for reg, i, j in ((REG2, 0, 1), (REG3, 0, 2)):
        for _ in range(10):
            phi = float(rng.uniform(-7, 7))
            want = hermitian_expm(planar_coupling(reg, i, j), phi)
            assert max_abs(xy_exchange_unitary(reg, i, j, phi) - want) < 1e-13


def test_xy_exchange_is_unitary_and_block_diagonal():
    u = xy_exchange_unitary(REG2, 0, 1, 1.3)
    assert is_unitary(u)
    # Planar exchange conserves total z: |00> and |11> are untouched.
    assert abs(u[0, 0] - 1.0) < 1e-15
    assert abs(u[3, 3] - 1.0) < 1e-15


def test_global_field_unitary_matches_sum_exponential():
    # Per-spin factors commute, so the product equals one exponential.
    rng = np.random.default_rng(3)
    for axis in AXES:
        angles = tuple(float(a) for a in rng.uniform(-3, 3, size=3))
        h = sum(a * spin_operator(REG3, k, axis) for k, a in enumerate(angles))
        p = GlobalField(axis, angles)
        assert max_abs(global_field_unitary(REG3, p) - hermitian_expm(h)) < 1e-13


def test_global_field_length_mismatch():
    with pytest.raises(ValueError, match=r"^2 angles for register of 3$"):
        global_field_unitary(REG3, GlobalField("z", (0.1, 0.2)))


def test_pulse_params_validation():
    reg1 = RegisterSpec(1)
    with pytest.raises(ValueError):
        global_field_unitary(reg1, GlobalField("q", (0.0,)))
    with pytest.raises(ValueError):
        global_field_unitary(reg1, GlobalField("z", (float("nan"),)))


def test_zeeman_angles_match_zeeman_hamiltonian():
    # H = sum_k g_k mu_B B_k S_k^z held for t: exp(-i H t / hbar) is the
    # field pulse with theta_k = g_k mu_B B_k t / hbar.
    rng = np.random.default_rng(11)
    for n in range(1, 5):
        reg = RegisterSpec(n)
        for _ in range(5):
            g = tuple(float(v) for v in rng.uniform(1.5, 2.5, size=n))
            b = tuple(float(v) for v in rng.uniform(-3e-3, 3e-3, size=n))
            t = float(rng.uniform(0.0, 3e-8))
            h = sum(gk * MU_BOHR * bk * t / HBAR * spin_operator(reg, k, "z")
                    for k, (gk, bk) in enumerate(zip(g, b)))
            u = global_field_unitary(reg, GlobalField("z", zeeman_angles(g, b, t)))
            assert max_abs(u - hermitian_expm(h)) <= 1e-12


def test_zeeman_angles_value_and_conventions():
    theta = zeeman_angles((2.0,), (1.8e-3,), 1e-8)[0]
    want = 2.0 * MU_BOHR / HBAR * 1.8e-3 * 1e-8
    assert abs(theta - want) < 1e-15 * abs(want)


def test_zeeman_angles_input_checks():
    with pytest.raises(ValueError, match=r"^1 g-factors vs 2 fields$"):
        zeeman_angles((2.0,), (1.0, 2.0), 1.0)
    with pytest.raises(ValueError, match=r"^profile integral -1\.0$"):
        zeeman_angles((2.0,), (1.0,), -1.0)
