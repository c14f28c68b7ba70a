"""Classical QUBO solvers: exact enumeration and simulated annealing.

The exhaustive solver splits x into low and high bits. It tabulates every
low-bit assignment once, with its energy and its coupling to the high bits,
then scores bounded chunks of high-bit assignments against the whole table,
one matrix product per chunk; ties go to the smaller integer encoding. The
annealer runs every restart of every problem it is given, one row per
(problem, restart), each row with its own problem's coefficients and
inverse-temperature ramp. Every row owns two RNG streams derived from
(problem seed, restart index): one gives the flip orders, the other (the
coins) the initial assignment and then one uniform per flip. Each stream is
read strictly in sequence, so a result depends neither on which other
problems share the run nor on how the sweeps are run. They run one row at a
time in a small C kernel (``_anneal.c``, built on first use by ``_native``)
that draws from the rows' generators itself; where it cannot be built or
disagrees with numpy, they run in numpy, all rows in lockstep over draw
buffers bounded over the whole run. Both give identical results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, TooLarge
from .fileio import read_json, write_json
from .qubo import QuboProblem

# n = 31 takes about 8 s on one core of a 2-core Xeon with OpenBLAS, n = 32 16 s
EXHAUSTIVE_MAX_VARIABLES = 31
# variables enumerated in the exhaustive solver's low-bit table
_EXHAUSTIVE_LOW_BITS = 12
# energies per chunk of the exhaustive scan (2 MB of float64), whatever n is
_EXHAUSTIVE_CHUNK_ENTRIES = 1 << 18

# entries per draw buffer (flip orders, uniforms) over all rows of a numpy run
_SA_BUFFER_ENTRIES = 250_000


@dataclass(frozen=True)
class AnnealSchedule:
    """Sweep count and geometric inverse-temperature ramp."""

    sweeps: int
    beta_start: float
    beta_end: float

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if not self.beta_start > 0:
            raise ValueError("beta_start must be > 0")
        if not self.beta_start <= self.beta_end < math.inf:
            raise ValueError("beta_end must be finite and >= beta_start")

    def betas(self) -> np.ndarray:
        return np.geomspace(self.beta_start, self.beta_end, self.sweeps)


@dataclass(frozen=True)
class SelectionResult:
    """A binary assignment with its energy and solver provenance; its fields
    are the keys of selection.json."""

    x: np.ndarray
    energy: float
    solver: str
    seed: int
    samples_drawn: int

    def selected(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.x)]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "x": self.x.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SelectionResult":
        """The result ``to_json_dict`` gave. Other keys are ignored, such as
        the ``wall_time_s`` that older runs wrote."""
        values = {f.name: d[f.name] for f in fields(cls)}
        return cls(**{**values, "x": np.asarray(d["x"], dtype=np.int8)})


def save_selection(result: SelectionResult, path) -> None:
    write_json(path, result.to_json_dict())


def load_selection(path) -> SelectionResult:
    return SelectionResult.from_json_dict(read_json(path))


def energy(problem: QuboProblem, x: np.ndarray) -> float:
    """x^T Q x + offset for a binary vector x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.n,):
        raise DimensionMismatch(f"x has length {x.shape}, problem has n={problem.n}")
    return float(x @ problem.q @ x) + problem.offset


def _bit_table(first: int, stop: int, width: int) -> np.ndarray:
    """Rows are the assignments encoded first..stop-1, bit f weighted 2**f."""
    codes = np.arange(first, stop)
    return ((codes[:, None] >> np.arange(width)) & 1).astype(np.float64)


def solve_exhaustive(problem: QuboProblem) -> SelectionResult:
    """Global minimum by block enumeration; ties go to the assignment with
    the smaller integer encoding (bit f weighted 2**f).

    The first ``L = min(n, _EXHAUSTIVE_LOW_BITS)`` variables are the low bits
    and the rest the high bits. With the low assignments as the rows of a
    table A, the energies of a chunk H of high assignments against every low
    one are ``H @ (A @ 2 Q_lh)^T + e_lo[None, :] + e_hi[:, None]``. The
    chunks follow the high assignments in increasing order and the first
    minimum of each chunk is taken hi-major, so a later chunk replaces the
    best only when strictly lower and the smallest encoding wins a tie.
    """
    n = problem.n
    if n > EXHAUSTIVE_MAX_VARIABLES:
        raise TooLarge(f"{n} variables exceed the exhaustive cap of {EXHAUSTIVE_MAX_VARIABLES}")
    q = problem.q
    n_lo = min(n, _EXHAUSTIVE_LOW_BITS)
    n_hi = n - n_lo
    n_table = 1 << n_lo
    lo = _bit_table(0, n_table, n_lo)
    e_lo = np.einsum("af,af->a", lo @ q[:n_lo, :n_lo], lo)
    coupling = (lo @ (2.0 * q[:n_lo, n_lo:])).T
    q_hh = q[n_lo:, n_lo:]
    rows = max(1, _EXHAUSTIVE_CHUNK_ENTRIES // n_table)
    buffer = np.empty((min(rows, 1 << n_hi), n_table))
    best_energy = math.inf
    best_encoding = 0
    for first in range(0, 1 << n_hi, rows):
        hi = _bit_table(first, min(first + rows, 1 << n_hi), n_hi)
        e = np.matmul(hi, coupling, out=buffer[:len(hi)])
        e += e_lo
        e += np.einsum("hf,hf->h", hi @ q_hh, hi)[:, None]
        k = int(np.argmin(e))
        if e.flat[k] < best_energy:
            best_energy = e.flat[k]
            best_encoding = ((first + k // n_table) << n_lo) | (k % n_table)
    best_x = ((best_encoding >> np.arange(n)) & 1).astype(np.int8)
    return SelectionResult(
        x=best_x,
        energy=energy(problem, best_x),
        solver="exhaustive",
        seed=0,
        samples_drawn=1 << n,
    )


def default_schedule(n: int, scale: float = 1.0, cold_scale: float | None = None) -> AnnealSchedule:
    """Sweeps grow linearly with n. The ramp starts hot relative to ``scale``
    (largest coefficient magnitude) and ends cold relative to ``cold_scale``
    (smallest meaningful one), so ill-conditioned problems still freeze."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if scale <= 0 or (cold_scale is not None and cold_scale <= 0):
        raise ValueError("scales must be > 0")
    beta_start = 0.1 / scale
    beta_end = 50.0 / (cold_scale if cold_scale is not None else scale)
    return AnnealSchedule(
        sweeps=max(1000, 50 * n),
        beta_start=beta_start,
        beta_end=max(beta_end, beta_start),
    )


def solve_sa_many(
    problems: Sequence[QuboProblem],
    schedules: Sequence[AnnealSchedule],
    num_samples: int,
    seeds: Sequence[int],
) -> list[list[SelectionResult]]:
    """Single-flip Metropolis annealing of problems of one size and sweep
    count in one run, ``num_samples`` restarts each. For each problem p,
    returns one result per restart, best energy first. A problem's results
    depend only on (problems[p], schedules[p], num_samples, seeds[p]), not on
    the other problems of the run.

    Row ``p * num_samples + s`` is restart s of problem p: it reads problem p's
    coefficients, follows schedule p's ramp and draws from the two generators
    spawned from child s of ``SeedSequence(seeds[p])``. The first gives one
    flip order per sweep; the second, the coins, gives the initial
    ``random(n)`` and then one uniform per flip. Both are read in sequence.

    The sweeps run in the compiled kernel (``_anneal.c``) when this machine
    can build it and it passes its self-check, and otherwise in numpy, all
    rows in lockstep over bounded draw buffers. Both paths read the same
    draws and do the same arithmetic, so they return identical results.
    """
    if not len(problems) == len(schedules) == len(seeds):
        raise ValueError("need one schedule and one seed per problem")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if not problems:
        return []
    n = problems[0].n
    if any(p.n != n for p in problems):
        raise DimensionMismatch("problems annealed together must share n")
    if any(s.sweeps != schedules[0].sweeps for s in schedules):
        raise ValueError("schedules annealed together must share the sweep count")
    best_x = _anneal(problems, schedules, num_samples, seeds, _load_kernel() or _sweep_numpy)

    results = []
    for p, (problem, seed) in enumerate(zip(problems, seeds)):
        own = [
            SelectionResult(
                x=bx.copy(),
                energy=energy(problem, bx),
                solver="sa",
                seed=seed,
                samples_drawn=num_samples,
            )
            for bx in best_x[p * num_samples:(p + 1) * num_samples]
        ]
        own.sort(key=lambda r: r.energy)
        results.append(own)
    return results


def _anneal(problems, schedules, num_samples, seeds, sweep) -> np.ndarray:
    """The best assignment each row visited, one row per (problem, restart).
    The state before the first sweep is set up here, in numpy, whichever
    ``sweep`` runs the sweeps."""
    n = problems[0].n
    n_rows = len(problems) * num_samples
    streams = [[np.random.Generator(np.random.PCG64(c)) for c in child.spawn(2)]
               for seed in seeds for child in np.random.SeedSequence(seed).spawn(num_samples)]
    q_stack = np.concatenate([p.q for p in problems])
    neg_betas = -np.stack([s.betas() for s in schedules])

    x = np.empty((n_rows, n))
    for r, (_, coins) in enumerate(streams):
        x[r] = coins.random(n) < 0.5
    field = np.empty((n_rows, n))
    current = np.empty(n_rows)
    for p, problem in enumerate(problems):
        rows = slice(p * num_samples, (p + 1) * num_samples)
        field[rows] = x[rows] @ problem.q
        current[rows] = np.einsum("sf,sf->s", x[rows], field[rows])
    best_energy = current.copy()
    best_x = x.astype(np.int8)
    sweep(streams, q_stack, neg_betas, num_samples, x, field, current, best_energy, best_x)
    return best_x


@functools.cache
def _load_kernel():
    """The compiled sweeps as a drop-in for ``_sweep_numpy``, or None when
    ``_anneal.c`` cannot be built or loaded here, or when it disagrees with
    numpy on a small problem: the kernel relies on how numpy shuffles and on
    libm's ``exp``, neither of which numpy promises."""
    import ctypes

    from . import _native

    lib = _native.load_library("_anneal")
    if lib is None:
        return None
    kernel = lib.anneal_rows
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    kernel.argtypes = [ctypes.c_int64] * 4 + [doubles] * 2 + [
        np.ctypeslib.ndpointer(np.uintp, flags="C_CONTIGUOUS")] + [doubles] * 4 + [
        np.ctypeslib.ndpointer(np.int8, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")]
    kernel.restype = None
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))

    def sweep(streams, q_stack, neg_betas, num_samples, x, field, current, best_energy, best_x):
        # each row's (orders, coins) bitgen_t pointers, in row order
        bitgens = np.array([capsule_pointer(g.bit_generator.capsule, b"BitGenerator")
                            for row in streams for g in row], dtype=np.uintp)
        n_rows, n = x.shape
        kernel(n_rows, n, neg_betas.shape[1], num_samples, q_stack, neg_betas, bitgens,
               x, field, current, best_energy, best_x, np.empty(n, dtype=np.int64))

    # 2^12 states, few sweeps and a ramp on which the coins decide many
    # moves: each row's best state depends on its draws
    rng = np.random.default_rng(0)
    problems = [QuboProblem(q=q + q.T) for q in rng.normal(size=(2, 12, 12))]
    schedules = [AnnealSchedule(sweeps=4, beta_start=0.3, beta_end=1.0)] * 2
    check = (problems, schedules, 3, [1, 2])
    if not np.array_equal(_anneal(*check, sweep), _anneal(*check, _sweep_numpy)):
        return None
    return sweep


def _sweep_numpy(streams, q_stack, neg_betas, num_samples, x, field, current,
                 best_energy, best_x) -> None:
    """Every row's sweeps in lockstep, drawing the flip orders and uniforms
    into buffers of at most ``_SA_BUFFER_ENTRIES`` entries over all rows;
    the streams are read in sequence, so the buffer size changes no draw."""
    n_rows, n = x.shape
    n_problems, sweeps = neg_betas.shape
    diag = np.diagonal(q_stack.reshape(n_problems, n, n), axis1=1, axis2=2).reshape(-1)
    # variable f of problem p is row p * n + f of the stacked coefficients
    owner = np.repeat(np.arange(n_problems) * n, num_samples)
    # stacked row + shift = flat (row, variable) index into x and field
    shift = np.arange(n_rows) * n - owner
    x_flat = x.reshape(-1)
    field_flat = field.reshape(-1)

    chunk = min(sweeps, max(1, _SA_BUFFER_ENTRIES // (n_rows * max(1, n))))
    order = np.empty((n_rows, chunk, n), dtype=np.int64)
    uniforms = np.empty((n_rows, chunk, n))
    for start in range(0, sweeps, chunk):
        c = min(chunk, sweeps - start)
        base = np.tile(np.arange(n), (c, 1))
        for r, (orders, coins) in enumerate(streams):
            orders.permuted(base, axis=1, out=order[r, :c])
            coins.random((c, n), out=uniforms[r, :c])
        order[:, :c] += owner[:, None, None]
        for t in range(c):
            neg_beta = neg_betas[:, start + t].repeat(num_samples)
            for pos in range(n):
                f = order[:, t, pos]
                flat = f + shift
                xf = x_flat[flat]
                df = diag[f]
                delta = 1.0 - 2.0 * xf
                d_energy = delta * (df + 2.0 * (field_flat[flat] - df * xf))
                # u < 1 = exp(0): every downhill move is accepted
                accept = uniforms[:, t, pos] < np.exp(neg_beta * np.maximum(d_energy, 0.0))
                idx = np.flatnonzero(accept)
                if not idx.size:
                    continue
                da = delta[idx]
                x_flat[flat[idx]] += da
                current[idx] += d_energy[idx]
                step = q_stack.take(f[idx], axis=0)
                step *= da[:, None]
                step += field.take(idx, axis=0)
                field[idx] = step
                # a row that did not move cannot beat its own best
                improved = np.flatnonzero(current < best_energy)
                if improved.size:
                    best_energy[improved] = current[improved]
                    best_x[improved] = x[improved]
