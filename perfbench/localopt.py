"""Local-optimality checks for binary QUBO assignments.

Energy convention is the one ``qubofs.qubo`` uses: ``x^T Q x + offset`` with a
symmetric ``Q``. A neighbour improves on ``x`` only when its energy is strictly
lower, so an assignment that ties with a neighbour is still a local optimum.

Two neighbourhoods are checked:

- single flips (Hamming distance 1);
- count-preserving swaps (one selected variable off, one unselected on), the
  distance-2 moves that keep ``sum(x)`` and so never pay the count penalty.

Only numpy is used, so the checker does not depend on the code it checks.
"""

from __future__ import annotations

import numpy as np

# A move counts as improving only below -TOLERANCE * max(1, |E(x)|). This
# absorbs rounding in the delta formulas; integer-valued QUBOs (where ties are
# common) are decided exactly because their nonzero deltas are at least 1.
TOLERANCE = 1e-9


def flip_deltas(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Energy change of flipping each variable of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    d = 1.0 - 2.0 * x
    return 2.0 * d * (q @ x) + np.diagonal(q)


def swap_deltas(q: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy change of every count-preserving swap.

    Returns ``(ones, zeros, delta)`` where ``delta[a, b]`` is the change of
    clearing ``ones[a]`` and setting ``zeros[b]``.
    """
    x = np.asarray(x)
    flips = flip_deltas(q, x)
    ones = np.flatnonzero(x == 1)
    zeros = np.flatnonzero(x == 0)
    # flipping i (1 -> 0) and j (0 -> 1) together adds 2 * d_i * d_j * Q_ij = -2 Q_ij
    delta = flips[ones][:, None] + flips[zeros][None, :] - 2.0 * q[np.ix_(ones, zeros)]
    return ones, zeros, delta


def energy(q: np.ndarray, x: np.ndarray, offset: float = 0.0) -> float:
    x = np.asarray(x, dtype=np.float64)
    return float(x @ q @ x) + offset


def _threshold(q: np.ndarray, x: np.ndarray, offset: float) -> float:
    return -TOLERANCE * max(1.0, abs(energy(q, x, offset)))


def is_flip_optimal(q: np.ndarray, x: np.ndarray, offset: float = 0.0) -> bool:
    """No single flip lowers the energy."""
    return not np.any(flip_deltas(q, x) < _threshold(q, x, offset))


def is_swap_optimal(q: np.ndarray, x: np.ndarray, offset: float = 0.0) -> bool:
    """No count-preserving swap lowers the energy."""
    _, _, delta = swap_deltas(q, x)
    return not np.any(delta < _threshold(q, x, offset))


def is_local_optimum(q: np.ndarray, x: np.ndarray, offset: float = 0.0) -> bool:
    """Both flip- and swap-optimal."""
    return is_flip_optimal(q, x, offset) and is_swap_optimal(q, x, offset)


def descend(q: np.ndarray, x: np.ndarray, offset: float = 0.0, max_moves: int = 100_000) -> np.ndarray:
    """Steepest descent over flips and swaps from ``x``; returns a local optimum
    (or the point reached after ``max_moves`` moves)."""
    x = np.array(x, dtype=np.int8)
    for _ in range(max_moves):
        threshold = _threshold(q, x, offset)
        flips = flip_deltas(q, x)
        ones, zeros, swaps = swap_deltas(q, x)
        best_flip = int(np.argmin(flips))
        best_swap = float(swaps.min()) if swaps.size else np.inf
        if min(flips[best_flip], best_swap) >= threshold:
            break
        if flips[best_flip] <= best_swap:
            x[best_flip] ^= 1
        else:
            a, b = np.unravel_index(int(np.argmin(swaps)), swaps.shape)
            x[ones[a]] = 0
            x[zeros[b]] = 1
    return x
