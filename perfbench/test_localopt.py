"""The local-optimality checker against brute force on small QUBOs.

Run with ``python -m pytest perfbench/test_localopt.py``.
"""

import itertools

import numpy as np
import pytest

from localopt import descend, energy, is_flip_optimal, is_local_optimum, is_swap_optimal


def random_qubo(rng, n, integer):
    if integer:
        # small integer range: many neighbours tie exactly
        a = rng.integers(-3, 4, size=(n, n)).astype(np.float64)
    else:
        a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-2, 3)
    q = np.triu(a) + np.triu(a, 1).T
    return q, float(rng.integers(-5, 6))


def brute_force(q, offset, x):
    e = energy(q, x, offset)
    n = len(x)
    flip_ok = True
    for i in range(n):
        y = x.copy()
        y[i] ^= 1
        flip_ok &= energy(q, y, offset) >= e
    swap_ok = True
    for i, j in itertools.product(range(n), range(n)):
        if x[i] == 1 and x[j] == 0:
            y = x.copy()
            y[i], y[j] = 0, 1
            swap_ok &= energy(q, y, offset) >= e
    return flip_ok, swap_ok


@pytest.mark.parametrize("integer", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
def test_checker_matches_brute_force_on_every_assignment(n, integer):
    rng = np.random.default_rng(1000 * n + integer)
    for _ in range(3):
        q, offset = random_qubo(rng, n, integer)
        for bits in itertools.product((0, 1), repeat=n):
            x = np.array(bits, dtype=np.int8)
            flip_ok, swap_ok = brute_force(q, offset, x)
            assert is_flip_optimal(q, x, offset) == flip_ok
            assert is_swap_optimal(q, x, offset) == swap_ok
            assert is_local_optimum(q, x, offset) == (flip_ok and swap_ok)


def test_ties_are_not_improvements():
    q = np.zeros((4, 4))
    for bits in itertools.product((0, 1), repeat=4):
        assert is_local_optimum(q, np.array(bits, dtype=np.int8))


def test_count_penalty_hides_swap_but_not_flip():
    # feature 1 is better than feature 0, but a strong count penalty at k=1
    # makes every single flip from [1, 0] uphill: only the swap improves
    q = np.array([[-1.0, 0.0], [0.0, -2.0]]) + 100.0 * (np.ones((2, 2)) - 2.0 * np.eye(2))
    x = np.array([1, 0], dtype=np.int8)
    assert is_flip_optimal(q, x)
    assert not is_swap_optimal(q, x)


@pytest.mark.parametrize("integer", [True, False])
def test_descend_reaches_a_local_optimum_no_worse_than_start(integer):
    rng = np.random.default_rng(7 + integer)
    for _ in range(20):
        q, offset = random_qubo(rng, 10, integer)
        x = rng.integers(0, 2, size=10).astype(np.int8)
        y = descend(q, x, offset)
        assert is_local_optimum(q, y, offset)
        assert energy(q, y, offset) <= energy(q, x, offset)
