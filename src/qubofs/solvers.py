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
time in a small C kernel (``_anneal.c``, built on first use by ``_native``
with ``-O3``) that seeds and draws the rows' PCG64 streams itself, from
SeedSequence words that ``_stream_words`` computes for all rows at once;
where it cannot be built or disagrees with numpy, they run in numpy on real
Generators, all rows in lockstep over draw buffers bounded over the whole
run. That numpy path is the kernel's self-check oracle; both give identical
results. Restarts that end in one state share one energy sum.

The pipeline finishes each annealed grid point with ``descend``, a
deterministic steepest descent over single flips and count-preserving swaps
from the point's best restart. The count penalty ``s * (sum(x) - p n)^2``
puts a barrier of up to s before every flip that changes the count, and a
single-flip annealer at a large s stops where only a swap, which keeps the
count, still lowers the energy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, ParseError, TooLarge
from .fileio import is_finite_number, read_json, write_json
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


def load_selection(path, n: int | None = None) -> SelectionResult:
    """The result ``save_selection`` stored; an ``x`` that is not a list of 0/1
    integers, ``n`` of them if ``n`` is given, or an energy that is not a
    finite number, is a ``ParseError`` naming the path."""
    d = read_json(path, *(f.name for f in fields(SelectionResult)))
    if not (isinstance(d["x"], list) and n in (None, len(d["x"]))
            and all(type(v) is int and v in (0, 1) for v in d["x"])):
        raise ParseError(f"{path}: x is not a list of {'' if n is None else f'{n} '}0/1 integers")
    if not is_finite_number(d["energy"]):
        raise ParseError(f"{path}: energy {d['energy']!r} is not a finite number")
    return SelectionResult.from_json_dict(d)


def energy(problem: QuboProblem, x: np.ndarray) -> float:
    """x^T Q x + offset for a binary vector x, correctly rounded: one
    ``math.fsum`` over Q's selected rows and columns and the offset, so the
    bytes stored do not depend on a BLAS kernel's summation order."""
    x = np.asarray(x)
    if x.shape != (problem.n,):
        raise DimensionMismatch(f"x has length {x.shape}, problem has n={problem.n}")
    selected = x.astype(bool)
    if not np.array_equal(x, selected):
        raise ValueError("x must be binary")
    return math.fsum(problem.q[selected][:, selected].ravel().tolist() + [problem.offset])


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


def schedule_for(problem: QuboProblem) -> AnnealSchedule:
    """``default_schedule`` with the largest and the smallest nonzero
    coefficient magnitude of ``problem`` as its scale and cold scale; an
    all-zero Q takes 1.0 for both."""
    magnitudes = np.abs(problem.q[problem.q != 0.0])
    if not magnitudes.size:
        return default_schedule(problem.n)
    return default_schedule(problem.n, float(magnitudes.max()), float(magnitudes.min()))


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

    The streams are seeded and the sweeps run in the compiled kernel
    (``_anneal.c``) when this machine can build it and it passes its
    self-check, and otherwise in numpy, all rows in lockstep over bounded
    draw buffers. Both paths read the same draws and do the same arithmetic,
    so they return identical results.
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
    best_x = _anneal(problems, schedules, num_samples, seeds, _load_kernel() or _NUMPY)

    results = []
    for p, (problem, seed) in enumerate(zip(problems, seeds)):
        # restarts often end in one state: sum each distinct state once
        energies: dict[bytes, float] = {}
        own = []
        for bx in best_x[p * num_samples:(p + 1) * num_samples]:
            key = bx.tobytes()
            if key not in energies:
                energies[key] = energy(problem, bx)
            own.append(SelectionResult(x=bx, energy=energies[key], solver="sa",
                                       seed=seed, samples_drawn=num_samples))
        own.sort(key=lambda r: r.energy)
        results.append(own)
    return results


def descend(problem: QuboProblem, x: np.ndarray) -> tuple[np.ndarray, float]:
    """The assignment that steepest descent over single flips and
    count-preserving swaps (one selected variable cleared, one unselected
    set) reaches from ``x``, a state that no such move lowers, and its
    ``energy``.

    Each step takes the move of most negative gain. The gains come from the
    field ``Q x``, the selected rows of Q added in index order by numpy,
    without BLAS. Ties go to the smaller flipped index, or to the smaller
    (cleared, set) pair, and a flip wins over a swap of equal gain. A move
    is taken only when it strictly lowers the correctly rounded ``energy``,
    and the descent stops otherwise, so it always ends and never raises the
    energy. Under a count penalty of strength s, every flip that changes
    the count pays up to s; a swap keeps the count and pays nothing."""
    x = np.array(x, dtype=np.int8)
    q = problem.q
    diag = np.diagonal(q)
    current = energy(problem, x)
    while x.size:
        selected = x.astype(bool)
        flips = diag + 2.0 * (1 - 2 * x) * q[selected].sum(axis=0)
        ones, zeros = np.flatnonzero(selected), np.flatnonzero(~selected)
        swaps = flips[ones][:, None] + flips[zeros][None, :] - 2.0 * q[np.ix_(ones, zeros)]
        step = x.copy()
        f = int(np.argmin(flips))
        if swaps.size and swaps.min() < flips[f]:
            a, b = np.unravel_index(int(np.argmin(swaps)), swaps.shape)
            step[ones[a]], step[zeros[b]] = 0, 1
            gain = swaps[a, b]
        else:
            step[f] ^= 1
            gain = flips[f]
        if not gain < 0.0:
            break
        lowered = energy(problem, step)
        if not lowered < current:
            break
        x, current = step, lowered
    return x, current


def _anneal(problems, schedules, num_samples, seeds, path) -> np.ndarray:
    """The best assignment each row visited, one row per (problem, restart).
    ``path`` is a (start, sweep) pair: ``start`` seeds every row's streams
    and draws its initial assignment, numpy sets up the field and energy of
    that state, and ``sweep`` runs the sweeps."""
    start, sweep = path
    n = problems[0].n
    streams, x = start(seeds, num_samples, n)
    q_stack = np.concatenate([p.q for p in problems])
    neg_betas = -np.stack([s.betas() for s in schedules])

    field = np.empty_like(x)
    current = np.empty(len(x))
    for p, problem in enumerate(problems):
        rows = slice(p * num_samples, (p + 1) * num_samples)
        field[rows] = x[rows] @ problem.q
        current[rows] = np.einsum("sf,sf->s", x[rows], field[rows])
    best_energy = current.copy()
    best_x = x.astype(np.int8)
    sweep(streams, q_stack, neg_betas, num_samples, x, field, current, best_energy, best_x)
    return best_x


# numpy's SeedSequence mixing (numpy/random/bit_generator.pyx): a pool of four
# uint32 words and its hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix of uint32 arrays; each call moves the hash
    constant on, as numpy's does."""

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ result >> 16


def _stream_words(seeds, num_samples) -> np.ndarray:
    """``SeedSequence(seeds[p]).spawn(num_samples)[s].spawn(2)[k]
    .generate_state(4, np.uint64)`` at ``[p * num_samples + s, k]``, for k = 0
    (the orders) and 1 (the coins): numpy's documented mixing on uint32
    arrays, every row at once. A negative seed is a ``ValueError``, as for
    ``SeedSequence``."""
    # each seed's uint32 words, low first, zero-padded to the pool size as
    # for any spawned SeedSequence; seeds of one length mix alike
    entropy: dict[int, list[list[int]]] = {}
    members: dict[int, list[int]] = {}
    for p, seed in enumerate(map(int, seeds)):
        if seed < 0:
            raise ValueError("expected non-negative integer")
        length = max(_POOL_SIZE, -(-seed.bit_length() // 32))
        entropy.setdefault(length, []).append([seed >> 32 * i & 0xFFFFFFFF for i in range(length)])
        members.setdefault(length, []).append(p)
    words = np.empty((len(seeds), num_samples, 2, 4), dtype=np.uint64)
    spawn_key = [np.arange(num_samples, dtype=np.uint32)[None, :, None],
                 np.arange(2, dtype=np.uint32)[None, None, :]]
    for length, run in entropy.items():
        values = list(np.array(run, dtype=np.uint32).T[:, :, None, None]) + spawn_key
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(value) for value in values[:_POOL_SIZE]]
        for i_src in range(_POOL_SIZE):
            for i_dst in range(_POOL_SIZE):
                if i_src != i_dst:
                    pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
        for value in values[_POOL_SIZE:]:
            for i_dst in range(_POOL_SIZE):
                pool[i_dst] = _mix(pool[i_dst], hashmix(value))
        output = _hasher(_INIT_B, _MULT_B)
        state = [output(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
        words[members[length]] = np.stack([state[2 * j] | state[2 * j + 1] << 32 for j in range(4)],
                                          axis=-1)
    return words.reshape(-1, 2, 4)


def _start_numpy(seeds, num_samples, n):
    """Each row's (orders, coins) Generators, and its initial assignment: the
    coins' first n uniforms below 0.5."""
    streams = [[np.random.Generator(np.random.PCG64(c)) for c in child.spawn(2)]
               for seed in seeds for child in np.random.SeedSequence(seed).spawn(num_samples)]
    x = np.empty((len(streams), n))
    for r, (_, coins) in enumerate(streams):
        x[r] = coins.random(n) < 0.5
    return streams, x


@functools.cache
def _load_kernel():
    """The compiled (start, sweep) pair as a drop-in for ``_NUMPY``, or None
    when ``_anneal.c`` cannot be built or loaded here, or when it disagrees
    with numpy on a small problem: the kernel relies on how numpy seeds,
    draws and shuffles and on libm's ``exp``, none of which numpy promises."""
    import ctypes

    from . import _native

    lib = _native.load_library("_anneal")
    if lib is None:
        return None
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    words = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
    lib.seed_rows.argtypes = [ctypes.c_int64] * 2 + [words, doubles]
    lib.seed_rows.restype = None
    lib.anneal_rows.argtypes = [ctypes.c_int64] * 4 + [doubles] * 2 + [words] + [doubles] * 4 + [
        np.ctypeslib.ndpointer(np.int8, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")]
    lib.anneal_rows.restype = None

    def start(seeds, num_samples, n):
        # each row's (orders, coins) seed words, then their PCG64 states
        streams = _stream_words(seeds, num_samples)
        x = np.empty((len(streams), n))
        lib.seed_rows(len(streams), n, streams, x)
        return streams, x

    def sweep(streams, q_stack, neg_betas, num_samples, x, field, current, best_energy, best_x):
        n_rows, n = x.shape
        lib.anneal_rows(n_rows, n, neg_betas.shape[1], num_samples, q_stack, neg_betas, streams,
                        x, field, current, best_energy, best_x, np.empty(n, dtype=np.int64))

    # 2^12 states, few sweeps and a ramp on which the coins decide many
    # moves: each row's best state depends on its draws. The second seed
    # has more than four uint32 words, so SeedSequence pads the first only.
    rng = np.random.default_rng(0)
    problems = [QuboProblem(q=q + q.T) for q in rng.normal(size=(2, 12, 12))]
    schedules = [AnnealSchedule(sweeps=4, beta_start=0.3, beta_end=1.0)] * 2
    check = (problems, schedules, 3, [1, 2**128 + 2])
    if not np.array_equal(_anneal(*check, (start, sweep)), _anneal(*check, _NUMPY)):
        return None
    return start, sweep


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


_NUMPY = (_start_numpy, _sweep_numpy)
