"""The in-place pulse kernel against the generator oracle.

spins.apply_op never forms an op matrix; these tests rebuild every op as
hermitian_expm of its generator, built from spin_operator, and compare.
"""

import math

import numpy as np
import pytest

from globalspin import circuits as cir
from globalspin.circuits import (Circuit, Equivalence, Exchange, GateTarget,
                                 GlobalField, XYExchange, evaluate,
                                 verify_target)
from globalspin.linalg import hermitian_expm, max_abs
from globalspin.spins import (AXES, IndexOutOfRange, RegisterSpec, apply_op,
                              check_op, site_bits, spin_operator)


def generator(reg, op):
    """Hermitian h with op's unitary = exp(-i h)."""
    if isinstance(op, GlobalField):
        return sum(a * spin_operator(reg, k, op.axis)
                   for k, a in enumerate(op.angles))
    if isinstance(op, Exchange):
        return op.xi * sum(spin_operator(reg, op.i, a)
                           @ spin_operator(reg, op.j, a) for a in AXES)
    return op.phi * (spin_operator(reg, op.i, "x") @ spin_operator(reg, op.j, "x")
                     + spin_operator(reg, op.i, "y") @ spin_operator(reg, op.j, "y"))


def random_op(rng, n):
    kinds = ("field", "exchange", "planar") if n >= 2 else ("field",)
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "field":
        axis = AXES[int(rng.integers(3))]
        angles = rng.uniform(-4, 4, size=n)
        angles[rng.random(n) < 0.2] = 0.0  # zero angles take a short path
        return GlobalField(axis, tuple(angles))
    i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
    angle = float(rng.uniform(-7, 7))
    return Exchange(i, j, angle) if kind == "exchange" else XYExchange(i, j, angle)


def random_circuit(rng, n, n_ops):
    return Circuit(RegisterSpec(n), tuple(random_op(rng, n) for _ in range(n_ops)))


def oracle(c):
    u = np.eye(c.register.dim, dtype=complex)
    for op in c.ops:
        u = hermitian_expm(generator(c.register, op)) @ u
    return u


def test_evaluate_matches_generator_oracle():
    rng = np.random.default_rng(2024)
    for n in range(1, 9):
        for _ in range(6 if n <= 6 else 2):
            c = random_circuit(rng, n, int(rng.integers(1, 9)))
            d = max_abs(evaluate(c) - oracle(c))
            assert d <= 1e-12, (n, c.ops, d)


def test_apply_op_on_state_columns():
    # Fewer columns than rows: a set of states evolves like the unitary.
    rng = np.random.default_rng(5)
    for n in (1, 3, 5):
        c = random_circuit(rng, n, 7)
        states = (rng.normal(size=(2 ** n, 3))
                  + 1j * rng.normal(size=(2 ** n, 3)))
        psi = states.copy()
        for op in c.ops:
            apply_op(psi, c.register, op)
        assert max_abs(psi - evaluate(c) @ states) <= 1e-12


def test_apply_op_rejects_arrays_it_cannot_update_in_place():
    reg = RegisterSpec(2)
    op = GlobalField("x", (0.3, 0.4))
    with pytest.raises(ValueError):
        apply_op(np.eye(4, dtype=complex).T[:, :2], reg, op)
    with pytest.raises(ValueError):
        apply_op(np.eye(4), reg, op)
    with pytest.raises(ValueError):
        apply_op(np.eye(8, dtype=complex), reg, op)


def test_site_bits_follow_spin_zero_major_order():
    reg = RegisterSpec(3)
    assert site_bits(reg, 0).tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert site_bits(reg, 2).tolist() == [0, 1, 0, 1, 0, 1, 0, 1]
    sz = np.diag(0.5 - site_bits(reg, 1))
    assert max_abs(sz - spin_operator(reg, 1, "z")) == 0.0


def dense_bystander_deviation(u, reg, acted):
    worst = 0.0
    for k in range(reg.n_spins):
        if k in acted:
            continue
        for axis in ("z", "x"):
            s = spin_operator(reg, k, axis)
            worst = max(worst, max_abs(u @ s - s @ u))
    return worst


def test_bystander_deviation_equals_dense_commutators():
    rng = np.random.default_rng(77)
    for trial in range(40):
        n = int(rng.integers(2, 7))
        c = random_circuit(rng, n, int(rng.integers(1, 6)))
        acted = frozenset(int(k) for k in
                          rng.choice(n, size=int(rng.integers(0, n)),
                                     replace=False))
        t = GateTarget(np.eye(2 ** n), acted, Equivalence.GLOBAL_PHASE)
        rep = verify_target(c, t, 1e-10)
        want = dense_bystander_deviation(evaluate(c), c.register, acted)
        assert rep.bystander_deviation == want, (trial, c.ops, acted)


def test_builder_targets_match_generator_oracle():
    rng = np.random.default_rng(11)
    reg = RegisterSpec(4)
    profiles = {"z": (1.0, 0.75, 1.0, 0.75), "x": (1.0, 0.5, 1.0, 0.5)}
    for _ in range(10):
        i = int(rng.integers(3))
        angle = float(rng.uniform(-3, 3))
        axis = ("z", "x")[int(rng.integers(2))]
        _, t = cir.refocused_rotation_circuit(reg, axis, i, i + 1, angle,
                                              profiles)
        want = hermitian_expm(spin_operator(reg, i, axis), angle)
        assert max_abs(t.unitary - want) <= 1e-12
        _, t = cir.xy_x_rotation_circuit(reg, i, i + 1, angle, 0.4)
        want = hermitian_expm(spin_operator(reg, i, "x"), -2.0 * angle)
        assert max_abs(t.unitary - want) <= 1e-12


@pytest.mark.parametrize("op, error", [
    (Exchange(0, 3, math.pi), IndexOutOfRange),
    (Exchange(-1, 1, math.pi), IndexOutOfRange),
    (XYExchange(1, 1, 0.5), ValueError),
    (GlobalField("w", (0.1, 0.2, 0.3)), ValueError),
    (GlobalField("z", (0.1, 0.2)), ValueError),
    (GlobalField("x", (0.1, math.nan, 0.3)), ValueError),
    (Exchange(0, 1, math.inf), ValueError),
    ("EX 0 1", TypeError),
])
def test_circuit_checks_each_op_once_when_built(op, error):
    with pytest.raises(error):
        Circuit(RegisterSpec(3), (op,))


def random_batch(rng, b, n, m):
    return rng.normal(size=(b, 2 ** n, m)) + 1j * rng.normal(size=(b, 2 ** n, m))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("b", [1, 7])
def test_batched_kernel_equals_stack_of_single_draws(n, b):
    # One pass over a (B, 2^n, m) batch must equal B separate 2-D passes,
    # entry for entry: for per-draw field rows, exchange angles and exchange
    # pairs, and for fields and exchanges shared by every draw.
    rng = np.random.default_rng(100 * n + b)
    reg = RegisterSpec(n)
    i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
    pi, pj = np.array([rng.choice(n, size=2, replace=False)
                       for _ in range(b)]).T
    rows = rng.uniform(-4, 4, size=(b, n))
    rows[:, 0] = 0.0  # a site at rest in every draw is skipped
    rows[rng.random((b, n)) < 0.2] = 0.0
    shared = tuple(rng.uniform(-4, 4, size=n))
    xi, phi = rng.uniform(-7, 7, size=(2, b))
    for op, per_draw in (
            *((GlobalField(axis, rows), lambda k, axis=axis:
               GlobalField(axis, tuple(rows[k]))) for axis in AXES),
            *((GlobalField(axis, shared), None) for axis in AXES),
            (Exchange(i, j, xi), lambda k: Exchange(i, j, float(xi[k]))),
            (XYExchange(i, j, phi), lambda k: XYExchange(i, j, float(phi[k]))),
            (Exchange(pi, pj, xi), lambda k: Exchange(
                int(pi[k]), int(pj[k]), float(xi[k]))),
            (XYExchange(pi, pj, 0.7), lambda k: XYExchange(
                int(pi[k]), int(pj[k]), 0.7)),
            (Exchange(i, j, float(rng.uniform(-7, 7))), None),
            (XYExchange(i, j, float(rng.uniform(-7, 7))), None)):
        check_op(reg, op, draws=b)
        for m in (2 ** n, 3):
            u = random_batch(rng, b, n, m)
            want = np.stack([apply_op(u[k].copy(), reg,
                                      op if per_draw is None else per_draw(k))
                             for k in range(b)])
            got = apply_op(u, reg, op)
            assert got is u
            assert np.array_equal(got, want), (op, m)


@pytest.mark.parametrize("angles", [
    np.zeros((4, 2)),  # rows one spin short
    np.zeros((4, 4)),  # rows one spin long
    np.zeros((3, 3)),  # three rows for four draws
    np.array([[0.1, 0.2, 0.3]] * 3 + [[0.1, math.nan, 0.3]]),
    np.array([[0.1, 0.2, 0.3]] * 3 + [[math.inf, 0.2, 0.3]]),
])
def test_check_op_rejects_malformed_angle_rows(angles):
    with pytest.raises(ValueError):
        check_op(RegisterSpec(3), GlobalField("x", angles), draws=4)


@pytest.mark.parametrize("angles", [
    np.zeros(3),  # three angles for four draws
    np.zeros((4, 1)),  # a column, not a (B,) array
    np.array([0.1, 0.2, math.nan, 0.3]),
    np.array([0.1, -math.inf, 0.2, 0.3]),
])
@pytest.mark.parametrize("kind", [Exchange, XYExchange])
def test_check_op_rejects_malformed_exchange_angles(kind, angles):
    with pytest.raises(ValueError):
        check_op(RegisterSpec(3), kind(0, 2, angles), draws=4)
    # Without a batch, per-draw angles are refused whatever their shape.
    with pytest.raises(ValueError):
        check_op(RegisterSpec(3), kind(0, 2, np.zeros(4)))


def test_check_op_names_a_non_finite_angle_on_one_line():
    # The message names the op kind, a field's axis and the first bad draw
    # and spin, never the op's arrays: one line for 40 draws as for one.
    rows, xi = np.ones((40, 3)), np.ones(40)
    rows[5, 1:] = math.nan
    xi[[7, 9]] = (math.inf, math.nan)
    for op, draws, where in (
            (GlobalField("z", rows), 40, "GlobalField z at draw 5, spin 1: nan"),
            (GlobalField("x", (0.1, -math.inf, 0.2)), None,
             "GlobalField x at spin 1: -inf"),
            (Exchange(0, 2, xi), 40, "Exchange at draw 7: inf"),
            (XYExchange(np.zeros(40, int), np.ones(40, int), xi), 40,
             "XYExchange at draw 7: inf"),
            (Exchange(0, 2, math.nan), None, "Exchange: nan")):
        with pytest.raises(ValueError) as info:
            check_op(RegisterSpec(3), op, draws)
        assert str(info.value).count("\n") == 0
        assert str(info.value) == "non-finite angle in " + where


@pytest.mark.parametrize("i, j, error", [
    ([0, 1, 0], [1, 2, 2], ValueError),  # three pairs for four draws
    ([[0], [1], [0], [1]], [1, 2, 2, 0], ValueError),  # a column
    ([0, 1, 3, 1], [1, 2, 2, 0], IndexOutOfRange),  # spin 3 of 3
    ([0, -1, 0, 1], [1, 2, 2, 0], IndexOutOfRange),
    ([0.0, 1.0, 0.0, 1.0], [1, 2, 2, 0], ValueError),  # not integers
    ([True, False, True, False], [2, 2, 2, 2], ValueError),
    ([0, 1, 2, 1], [1, 2, 2, 0], ValueError),  # draw 2 pairs spin 2 twice
    ([0, 1, 0, 1], 1, ValueError),  # the shared spin 1 in draws 1 and 3
])
@pytest.mark.parametrize("kind", [Exchange, XYExchange])
def test_check_op_rejects_malformed_pairs_per_draw(kind, i, j, error):
    op = kind(np.array(i), np.array(j) if np.ndim(j) else j, 0.4)
    with pytest.raises(error):
        check_op(RegisterSpec(3), op, draws=4)
    with pytest.raises(error):
        Circuit(RegisterSpec(3), (GlobalField("x", np.zeros((4, 3))), op))


@pytest.mark.parametrize("i, j", [
    (0, 1.5), (1.0, 2), (0, np.float64(2.0)),  # not integers
    (True, 2), (0, np.bool_(True)),  # bools, which the arrays refuse too
])
@pytest.mark.parametrize("kind", [Exchange, XYExchange])
def test_check_op_rejects_scalar_spins_that_are_not_integers(kind, i, j):
    op = kind(i, j, 0.4)
    with pytest.raises(ValueError):
        check_op(RegisterSpec(3), op)
    with pytest.raises(ValueError):
        Circuit(RegisterSpec(3), (op,))
    # numpy integers are spins like ints.
    reg, op = RegisterSpec(3), kind(np.int64(2), np.uint8(0), 0.4)
    assert np.array_equal(evaluate(Circuit(reg, (op,))),
                          evaluate(Circuit(reg, (kind(2, 0, 0.4),))))


def test_pairs_per_draw_set_the_draw_count_and_are_frozen():
    reg = RegisterSpec(3)
    i, j = np.array([0, 2, 1]), np.array([1, 0, 2])
    op = Exchange(i, j, 0.4)
    i[0] = 2  # the op holds a copy that no caller can change
    assert op.i.tolist() == [0, 2, 1] and not op.i.flags.writeable
    check_op(reg, op, draws=3)
    assert Circuit(reg, (op,)).draws == 3
    with pytest.raises(ValueError):  # without a batch
        check_op(reg, op)
    with pytest.raises(ValueError):
        Circuit(reg, (GlobalField("z", np.zeros((2, 3))), op))
    for u in (np.zeros((4, 8, 8), dtype=complex), np.eye(8, dtype=complex)):
        with pytest.raises(ValueError):
            apply_op(u, reg, op)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("kind", [Exchange, XYExchange])
def test_pairs_per_draw_give_each_draw_the_bits_of_its_own_pair(kind, n):
    # The gathered pass over every draw's own pair, with a pair in either
    # order, plays each draw as its scalar-pair op plays that draw's slice
    # alone, bit for bit: on unitaries and on states, with one angle per
    # draw and with one angle shared by all.
    rng = np.random.default_rng(n)
    reg, draws = RegisterSpec(n), 40
    i, j = np.array([rng.choice(n, size=2, replace=False)
                     for _ in range(draws)]).T
    assert (i < j).any() and (i > j).any()
    for angles in (rng.uniform(-7, 7, size=draws), float(rng.uniform(-7, 7))):
        for m in (reg.dim, 1):
            u = (rng.standard_normal((draws, reg.dim, m))
                 + 1j * rng.standard_normal((draws, reg.dim, m)))
            got = apply_op(u.copy(), reg, kind(i, j, angles))
            for k in range(draws):
                angle = angles if np.ndim(angles) == 0 else float(angles[k])
                alone = apply_op(u[k].copy(), reg,
                                 kind(int(i[k]), int(j[k]), angle))
                assert np.array_equal(got[k], alone), (m, k)


def test_angle_rows_need_a_batch_of_their_size():
    reg = RegisterSpec(2)
    op = GlobalField("z", np.full((3, 2), 0.4))
    assert Circuit(reg, (op,)).draws == 3  # read from the op's rows
    with pytest.raises(ValueError):
        apply_op(np.zeros((4, 4, 4), dtype=complex), reg, op)
    with pytest.raises(ValueError):
        apply_op(np.eye(4, dtype=complex), reg, op)
    with pytest.raises(ValueError):
        apply_op(np.zeros((3, 8, 8), dtype=complex), reg, op)
    ex = Exchange(0, 1, np.full(3, 0.4))
    with pytest.raises(ValueError):
        apply_op(np.zeros((4, 4, 4), dtype=complex), reg, ex)
    with pytest.raises(ValueError):
        apply_op(np.eye(4, dtype=complex), reg, ex)
