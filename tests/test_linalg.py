import math

import numpy as np
import pytest
import scipy.linalg

from globalspin.linalg import (DimensionMismatch, NotHermitian, hermitian_expm,
                               kron, max_abs, phase_distance)
from oracle import check_unitary, is_unitary


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_max_abs():
    assert max_abs(np.array([[1.0, -3.5], [0.25, 2.0]])) == 3.5
    assert max_abs(np.array([[3 + 4j]])) == 5.0


def test_kron_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert max_abs(kron(a, b) - np.kron(a, b)) == 0.0


def test_hermitian_expm_matches_scipy():
    # The convention under test: hermitian_expm(h, t) = exp(-i t h).
    rng = np.random.default_rng(1)
    for n in (2, 4, 8):
        for _ in range(10):
            h = random_hermitian(rng, n)
            t = float(rng.uniform(-4, 4))
            want = scipy.linalg.expm(-1j * t * h)
            assert max_abs(hermitian_expm(h, t) - want) < 1e-12


def test_hermitian_expm_is_unitary():
    rng = np.random.default_rng(2)
    u = hermitian_expm(random_hermitian(rng, 8), 0.7)
    assert is_unitary(u)


def test_hermitian_expm_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_expm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_phase_distance_ignores_global_phase():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 8)
    for phi in (0.0, 0.3, np.pi, -2.9):
        assert phase_distance(u, np.exp(1j * phi) * u) < 1e-14


def test_phase_distance_resolves_small_errors():
    # A naive sqrt(2 - 2|tr|/d) form floors near 1e-8; this one must not.
    rng = np.random.default_rng(4)
    u = random_unitary(rng, 8)
    h = random_hermitian(rng, 8)
    h = h / max_abs(h)
    for eps in (1e-6, 1e-9, 1e-12):
        v = hermitian_expm(h, eps) @ u
        d = phase_distance(u, v)
        assert 0.01 * eps < d < 10 * eps


def test_phase_distance_far_apart():
    assert phase_distance(np.eye(2), np.diag([1.0, -1.0])) > 0.9


def test_phase_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        phase_distance(np.eye(2), np.eye(4))


def test_unitarity_checks():
    assert is_unitary(np.eye(3))
    assert not is_unitary(2.0 * np.eye(3))
    with pytest.raises(ValueError):
        check_unitary(2.0 * np.eye(3))


def test_phase_distance_leading_axis_is_entrywise():
    # A (B, d, d) stack gives the B distances of its pairs, each equal to
    # the distance of that pair alone, including the orthogonal case.
    rng = np.random.default_rng(8)
    for d in (2, 4, 16):
        u = np.linalg.qr(rng.normal(size=(6, d, d))
                         + 1j * rng.normal(size=(6, d, d)))[0]
        v = u * np.exp(1j * rng.uniform(0, 6, size=(6, 1, 1)))
        v[:3] += 1e-9 * rng.normal(size=(3, d, d))
        v[5] = np.roll(np.eye(d), 1, axis=0)
        u[5] = np.eye(d)
        got = phase_distance(u, v)
        assert got.shape == (6,)
        assert got.tolist() == [phase_distance(a, b) for a, b in zip(u, v)]
        assert got[5] == math.sqrt(2.0)
    with pytest.raises(DimensionMismatch):
        phase_distance(np.zeros((2, 4, 4)), np.zeros((3, 4, 4)))
