import itertools
import json
import shutil
import subprocess
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubofs.errors import DimensionMismatch, TooLarge
from qubofs import _native, models, solvers
from qubofs.qubo import QuboProblem, combination_penalty
from qubofs.sparse import ZERO_EPSILON, SparseMatrix
from qubofs.solvers import (
    AnnealSchedule,
    SelectionResult,
    default_schedule,
    energy,
    load_selection,
    save_selection,
    solve_exhaustive,
    solve_sa_many,
)


def random_problem(rng, n, scale=1.0, with_offset=False):
    q = rng.uniform(-scale, scale, size=(n, n))
    q = np.triu(q)
    q = q + np.triu(q, 1).T
    offset = float(rng.uniform(-1, 1)) if with_offset else 0.0
    return QuboProblem(q=q, offset=offset)


def brute_force(problem):
    """Naive from-scratch enumeration oracle with the same tie rule."""
    best = None
    for bits in itertools.product([0, 1], repeat=problem.n):
        x = np.array(bits, dtype=np.int8)
        e = energy(problem, x)
        enc = sum(b << f for f, b in enumerate(bits))
        if best is None or e < best[0] or (e == best[0] and enc < best[1]):
            best = (e, enc, x)
    return best


def reference_solve_exhaustive(problem):
    """The Gray-code loop the block enumeration replaced, as (x, energy): each
    step flips one variable and updates the energy in O(n); ties go to the
    smaller integer encoding (bit f weighted 2**f)."""
    n = problem.n
    q = problem.q
    diag = np.diagonal(q).copy()
    x = np.zeros(n, dtype=np.int8)
    field = np.zeros(n)
    current = 0.0
    encoding = 0
    best_energy = current
    best_encoding = 0
    for i in range(1, 1 << n):
        b = (i & -i).bit_length() - 1
        delta = 1 - 2 * int(x[b])
        current += delta * (diag[b] + 2.0 * (field[b] - diag[b] * x[b]))
        x[b] += delta
        encoding ^= 1 << b
        field += delta * q[b]
        if current < best_energy or (current == best_energy and encoding < best_encoding):
            best_energy = current
            best_encoding = encoding
    best_x = np.array([(best_encoding >> f) & 1 for f in range(n)], dtype=np.int8)
    return best_x, energy(problem, best_x)


class TestEnergy:
    def test_zero_vector_gives_offset(self):
        rng = np.random.default_rng(0)
        p = random_problem(rng, 5, with_offset=True)
        assert energy(p, np.zeros(5)) == p.offset

    def test_hand_expansion(self):
        p = QuboProblem(q=np.array([[-1.0, 2.0], [2.0, -1.0]]))
        assert energy(p, np.array([1, 1])) == 2.0

    def test_one_hot(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng, 6, with_offset=True)
        for f in range(6):
            x = np.zeros(6)
            x[f] = 1
            assert abs(energy(p, x) - (p.q[f, f] + p.offset)) <= 1e-12

    def test_dimension_mismatch(self):
        p = QuboProblem(q=np.zeros((3, 3)))
        with pytest.raises(DimensionMismatch):
            energy(p, np.zeros(4))


class TestExhaustive:
    def test_independent_negatives(self):
        p = QuboProblem(q=np.diag([-1.0, -1.0]))
        result = solve_exhaustive(p)
        assert list(result.x) == [1, 1]
        assert result.energy == -2.0

    def test_tie_broken_by_encoding(self):
        p = QuboProblem(q=np.array([[-1.0, 1.0], [1.0, -1.0]]))
        result = solve_exhaustive(p)
        assert list(result.x) == [1, 0]
        assert result.energy == -1.0

    def test_penalty_only(self):
        p = combination_penalty(6, 3.0, 1.0)
        result = solve_exhaustive(p)
        assert abs(result.energy) <= 1e-9
        assert int(result.x.sum()) == 3

    def test_too_large(self):
        n = solvers.EXHAUSTIVE_MAX_VARIABLES + 1
        with pytest.raises(TooLarge):
            solve_exhaustive(QuboProblem(q=np.zeros((n, n))))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, n, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, n, with_offset=True)
        result = solve_exhaustive(p)
        e, enc, x = brute_force(p)
        assert abs(result.energy - e) <= 1e-9
        assert list(result.x) == list(x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.integers(0, 5), st.integers(0, 6))
    def test_matches_reference(self, n, seed, low_bits, chunk_log):
        # integer coefficients make every energy exact, so ties are exact and
        # common; small tables and chunks run the no-high-bits case, a single
        # chunk and many chunks, down to one high assignment per chunk
        rng = np.random.default_rng(seed)
        q = rng.integers(-3, 4, size=(n, n)).astype(float)
        p = QuboProblem(q=np.triu(q) + np.triu(q, 1).T, offset=float(rng.integers(-3, 4)))
        with mock.patch.multiple(solvers, _EXHAUSTIVE_LOW_BITS=low_bits,
                                 _EXHAUSTIVE_CHUNK_ENTRIES=1 << chunk_log):
            result = solve_exhaustive(p)
        x, e = reference_solve_exhaustive(p)
        assert list(result.x) == list(x)
        assert result.energy == e

    def test_matches_reference_at_default_sizes(self):
        # the default constants: one chunk of 2^4 high assignments against
        # the 2^12-row low table
        rng = np.random.default_rng(12)
        q = rng.integers(-3, 4, size=(16, 16)).astype(float)
        p = QuboProblem(q=np.triu(q) + np.triu(q, 1).T)
        result = solve_exhaustive(p)
        x, e = reference_solve_exhaustive(p)
        assert list(result.x) == list(x)
        assert result.energy == e

    def test_memory_bounded(self):
        # 2^22 assignments, 32 MB as float64, scanned in 2 MB chunks
        rng = np.random.default_rng(22)
        p = random_problem(rng, 22)
        tracemalloc.start()
        try:
            solve_exhaustive(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestDefaultSchedule:
    def test_floor(self):
        assert default_schedule(1).sweeps == 1000

    def test_linear_growth(self):
        assert default_schedule(100).sweeps == 5000

    def test_beta_order(self):
        sch = default_schedule(10, scale=3.0)
        assert sch.beta_end >= sch.beta_start

    def test_one_sweep_ramp_is_beta_start(self):
        assert list(AnnealSchedule(sweeps=1, beta_start=0.3, beta_end=7.0).betas()) == [0.3]

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=0, beta_start=0.1, beta_end=1.0)
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=10, beta_start=1.0, beta_end=0.1)
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=10, beta_start=1.0, beta_end=float("inf"))
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=10, beta_start=float("nan"), beta_end=1.0)


class TestSolveSa:
    def test_single_variable_downhill(self):
        p = QuboProblem(q=np.array([[-5.0]]))
        sch = AnnealSchedule(sweeps=1, beta_start=0.1, beta_end=0.1)
        results = solve_sa_many([p], [sch], 10, [0])[0]
        for r in results:
            assert list(r.x) == [1]
            assert r.energy == -5.0

    def test_penalty_only_certified_by_exhaustive(self):
        p = combination_penalty(8, 4.0, 1.0)
        results = solve_sa_many([p], [default_schedule(8)], 100, [0])[0]
        exact = solve_exhaustive(p)
        assert abs(results[0].energy - exact.energy) <= 1e-9
        assert int(results[0].x.sum()) == 4

    def test_never_below_exhaustive(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = random_problem(rng, 10)
            exact = solve_exhaustive(p)
            results = solve_sa_many([p], [default_schedule(10)], 20, [3])[0]
            assert results[0].energy >= exact.energy - 1e-9

    def test_determinism(self):
        rng = np.random.default_rng(4)
        p = random_problem(rng, 12)
        sch = default_schedule(12)
        a = solve_sa_many([p], [sch], 8, [5])[0]
        b = solve_sa_many([p], [sch], 8, [5])[0]
        assert [r.energy for r in a] == [r.energy for r in b]
        assert all(list(x.x) == list(y.x) for x, y in zip(a, b))

    def test_results_sorted_ascending(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, 10)
        results = solve_sa_many([p], [default_schedule(10)], 16, [6])[0]
        energies = [r.energy for r in results]
        assert energies == sorted(energies)

    def test_cold_limit_recovers_all_ones(self):
        # all-negative diagonal, zero off-diagonals: optimum is all ones
        p = QuboProblem(q=np.diag([-1.0, -2.0, -0.5, -3.0]))
        sch = AnnealSchedule(sweeps=500, beta_start=1.0, beta_end=1e6)
        for r in solve_sa_many([p], [sch], 10, [7])[0]:
            assert list(r.x) == [1, 1, 1, 1]

    def test_sample_trajectories_independent_of_count(self):
        # stream per (seed, index): the first restarts coincide across runs
        rng = np.random.default_rng(8)
        p = random_problem(rng, 9)
        sch = AnnealSchedule(sweeps=50, beta_start=0.1, beta_end=10.0)
        few = solve_sa_many([p], [sch], 3, [9])[0]
        many = solve_sa_many([p], [sch], 6, [9])[0]
        few_set = {(r.energy, tuple(r.x)) for r in few}
        many_set = {(r.energy, tuple(r.x)) for r in many}
        assert few_set <= many_set


def as_tuples(results):
    return [(r.energy, tuple(int(v) for v in r.x)) for r in results]


def reference_sa(problem, schedule, num_samples, seed):
    """The per-problem annealer the batched one replaced, as (energy, x)
    tuples: the oracle for the draw order and the arithmetic. Each restart
    spawns two generators and draws its whole run up front: the flip orders
    from the first, the initial assignment and then the uniforms from the
    second."""
    n, q = problem.n, problem.q
    diag = np.diagonal(q).copy()
    betas = schedule.betas()
    sweeps = schedule.sweeps
    x = np.empty((num_samples, n), dtype=np.int8)
    perms = np.empty((num_samples, sweeps, n), dtype=np.int64)
    uniforms = np.empty((num_samples, sweeps, n))
    for s, child in enumerate(np.random.SeedSequence(seed).spawn(num_samples)):
        orders, coins = np.random.default_rng(child).spawn(2)
        perms[s] = orders.permuted(np.tile(np.arange(n), (sweeps, 1)), axis=1)
        x[s] = coins.random(n) < 0.5
        uniforms[s] = coins.random((sweeps, n))
    field = x.astype(np.float64) @ q
    current = np.einsum("sf,sf->s", x.astype(np.float64), field)
    best_energy = current.copy()
    best_x = x.copy()
    rows = np.arange(num_samples)
    for t in range(sweeps):
        beta = betas[t]
        for pos in range(n):
            f = perms[:, t, pos]
            xf = x[rows, f].astype(np.float64)
            delta = 1.0 - 2.0 * xf
            d_energy = delta * (diag[f] + 2.0 * (field[rows, f] - diag[f] * xf))
            accept = (d_energy <= 0.0) | (
                uniforms[:, t, pos] < np.exp(-beta * np.maximum(d_energy, 0.0))
            )
            idx = np.flatnonzero(accept)
            fa, da = f[idx], delta[idx]
            x[idx, fa] += da.astype(np.int8)
            current[idx] += d_energy[idx]
            field[idx] += da[:, None] * q[fa]
            improved = idx[current[idx] < best_energy[idx]]
            best_energy[improved] = current[improved]
            best_x[improved] = x[improved]
    results = [(energy(problem, bx), tuple(int(v) for v in bx)) for bx in best_x]
    return sorted(results, key=lambda r: r[0])


class TestSolveSaGolden:
    def test_pinned_restarts(self):
        # integer coefficients keep every energy exact; the values pin the
        # draws of each restart's two streams: the flip orders, and the
        # initial assignment followed by the uniforms
        rng = np.random.default_rng(2024)
        q = rng.integers(-9, 10, size=(16, 16)).astype(float)
        p = QuboProblem(q=np.triu(q) + np.triu(q, 1).T)
        sch = AnnealSchedule(sweeps=2, beta_start=0.001, beta_end=0.01)
        results = solve_sa_many([p], [sch], 8, [3])[0]
        assert as_tuples(results) == reference_sa(p, sch, 8, 3)
        assert list(results[0].x) == [1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 1]
        assert results[0].energy == -289.0
        assert [r.energy for r in results] == [
            -289.0, -161.0, -143.0, -133.0, -131.0, -130.0, -114.0, -95.0,
        ]


def matches_reference_test():
    """A fresh test function each time: Hypothesis runs a test function for
    one class only, and TestSolveSaMany has a subclass."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 12), st.integers(1, 3),
           st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_matches_reference(self, n, sweeps, num_samples, buffer_entries, seed):
        # small buffers: many chunks, down to one sweep each
        rng = np.random.default_rng(seed)
        problems, schedules, seeds = self.batch(rng, 3, n, sweeps)
        expected = [reference_sa(p, s, num_samples, sd)
                    for p, s, sd in zip(problems, schedules, seeds)]
        with mock.patch.object(solvers, "_SA_BUFFER_ENTRIES", buffer_entries):
            together = solve_sa_many(problems, schedules, num_samples, seeds)
        assert [as_tuples(r) for r in together] == expected

    return test_matches_reference


class TestSolveSaMany:
    """A batch must equal per-problem solves. The ramps stay hot, so every
    result depends on the random draws and a changed draw order shows."""

    @staticmethod
    def batch(rng, count, n, sweeps):
        problems = [random_problem(rng, n, scale=float(rng.uniform(0.5, 5.0))) for _ in range(count)]
        schedules = [
            AnnealSchedule(sweeps=sweeps, beta_start=float(rng.uniform(0.01, 0.05)),
                           beta_end=float(rng.uniform(0.1, 0.5)))
            for _ in range(count)
        ]
        seeds = [int(s) for s in rng.integers(0, 2**31, size=count)]
        return problems, schedules, seeds

    @staticmethod
    def check_matches_alone(problems, schedules, num_samples, seeds, solve_many=solve_sa_many):
        alone = [as_tuples(solve_sa_many([p], [s], num_samples, [seed])[0])
                 for p, s, seed in zip(problems, schedules, seeds)]
        assert any(len({e for e, _ in results}) > 1 for results in alone)
        together = solve_many(problems, schedules, num_samples, seeds)
        assert [as_tuples(r) for r in together] == alone
        for results, seed in zip(together, seeds):
            assert all(r.seed == seed and r.samples_drawn == num_samples for r in results)
        return together

    def test_matches_per_problem(self):
        rng = np.random.default_rng(30)
        problems, schedules, seeds = self.batch(rng, 4, 9, 60)
        self.check_matches_alone(problems, schedules, 6, seeds)

    def test_many_chunks_at_n120(self):
        # a 1500-entry buffer holds 3 sweeps of the batch's 2 problems x 2
        # restarts at n=120, so 10 sweeps take four chunks, the last short;
        # integer coefficients keep the energies exact
        rng = np.random.default_rng(31)
        problems, schedules = [], []
        for k in range(2):
            q = rng.integers(-9, 10, size=(120, 120)).astype(float)
            problems.append(QuboProblem(q=np.triu(q) + np.triu(q, 1).T))
            schedules.append(AnnealSchedule(sweeps=10, beta_start=0.001 * (k + 1),
                                            beta_end=0.01 * (k + 1)))
        seeds = [40, 41]

        def small_buffer(*args):
            with mock.patch.object(solvers, "_SA_BUFFER_ENTRIES", 1500):
                return solve_sa_many(*args)

        together = self.check_matches_alone(problems, schedules, 2, seeds, small_buffer)
        assert [as_tuples(r) for r in together] == [
            reference_sa(p, s, 2, seed) for p, s, seed in zip(problems, schedules, seeds)
        ]

    def test_single_sweep_chunks(self, monkeypatch):
        rng = np.random.default_rng(32)
        problems, schedules, seeds = self.batch(rng, 3, 10, 40)

        def one_sweep_buffer(*args):
            monkeypatch.setattr(solvers, "_SA_BUFFER_ENTRIES", 1)
            return solve_sa_many(*args)

        self.check_matches_alone(problems, schedules, 4, seeds, one_sweep_buffer)

    test_matches_reference = matches_reference_test()

    def test_draw_buffer_bounded(self):
        # 10 problems x 50 restarts x 60 sweeps x 40 variables: drawing the
        # whole run up front would take 18 MiB of orders and uniforms
        rng = np.random.default_rng(34)
        problems, schedules, seeds = self.batch(rng, 10, 40, 60)
        tracemalloc.start()
        try:
            solve_sa_many(problems, schedules, 50, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_empty(self):
        assert solve_sa_many([], [], 5, []) == []

    def test_no_variables(self):
        sch = AnnealSchedule(sweeps=3, beta_start=0.1, beta_end=1.0)
        results = solve_sa_many([QuboProblem(q=np.zeros((0, 0)), offset=2.0)], [sch], 2, [0])[0]
        assert [(r.energy, r.x.shape) for r in results] == [(2.0, (0,))] * 2

    def test_rejects_mixed_sizes(self):
        rng = np.random.default_rng(33)
        sch = AnnealSchedule(sweeps=5, beta_start=0.1, beta_end=1.0)
        with pytest.raises(DimensionMismatch):
            solve_sa_many([random_problem(rng, 3), random_problem(rng, 4)], [sch, sch], 2, [0, 1])
        other = AnnealSchedule(sweeps=6, beta_start=0.1, beta_end=1.0)
        with pytest.raises(ValueError):
            solve_sa_many([random_problem(rng, 3)] * 2, [sch, other], 2, [0, 1])
        with pytest.raises(ValueError):
            solve_sa_many([random_problem(rng, 3)] * 2, [sch], 2, [0, 1])


@pytest.fixture(scope="class")
def numpy_sweeps():
    """The numpy sweeps, as on a machine that cannot build the kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_load_kernel", lambda: None)
        yield


@pytest.mark.usefixtures("numpy_sweeps")
class TestSolveSaNumpy(TestSolveSa):
    """TestSolveSa on the numpy fallback."""


@pytest.mark.usefixtures("numpy_sweeps")
class TestSolveSaGoldenNumpy(TestSolveSaGolden):
    """TestSolveSaGolden on the numpy fallback."""


@pytest.mark.usefixtures("numpy_sweeps")
class TestSolveSaManyNumpy(TestSolveSaMany):
    """TestSolveSaMany on the numpy fallback, its buffers included."""

    test_matches_reference = matches_reference_test()


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty kernel cache, loaded afresh; the counted compiler runs are
    ``cache.compiles``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "home"))
    compiles = []
    compile_ = _native._compile

    def counted(*args):
        compiles.append(args)
        compile_(*args)

    monkeypatch.setattr(_native, "_compile", counted)
    loaders = (solvers._load_kernel, models._load_kernel)
    for loader in loaders:
        loader.cache_clear()
    yield SimpleNamespace(dir=tmp_path / "home" / "qubofs", compiles=compiles)
    for loader in loaders:
        loader.cache_clear()


class TestKernelBuild:
    """Whatever happens to the compiler or the cache, a run returns the
    reference results, on the kernel or on the numpy fallback."""

    @staticmethod
    def check_reference():
        rng = np.random.default_rng(50)
        p = random_problem(rng, 7)
        sch = AnnealSchedule(sweeps=5, beta_start=0.1, beta_end=1.0)
        assert as_tuples(solve_sa_many([p], [sch], 4, [11])[0]) == reference_sa(p, sch, 4, 11)

    @staticmethod
    def require_compiler():
        if shutil.which(_native.COMPILE[0]) is None:
            pytest.skip("no C compiler")

    def test_source_ships_with_the_package(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
            package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
        assert "_anneal.c" in package_data["qubofs"]
        assert b"void anneal_rows(" in _native.source("_anneal")

    def test_builds_once_then_loads_from_the_cache(self, cache):
        self.require_compiler()
        assert solvers._load_kernel() is not None
        assert len(cache.compiles) == 1
        assert cache.dir.stat().st_mode & 0o777 == 0o700
        assert sorted(p.suffix for p in cache.dir.iterdir()) == [".sha256", ".so"]
        self.check_reference()
        solvers._load_kernel.cache_clear()
        assert solvers._load_kernel() is not None
        assert len(cache.compiles) == 1
        self.check_reference()

    def test_no_compiler(self, cache, monkeypatch):
        monkeypatch.setattr(_native, "COMPILE", ("/nonexistent/cc",) + _native.COMPILE[1:])
        assert solvers._load_kernel() is None
        self.check_reference()

    def test_unwritable_cache(self, cache, tmp_path, monkeypatch):
        # a file where the cache directory should be: no permission bits
        # stop the superuser, this does
        self.require_compiler()
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        assert solvers._load_kernel() is not None
        assert len(cache.compiles) == 1
        self.check_reference()

    def test_truncated_library_is_rebuilt(self, cache, tmp_path, monkeypatch):
        # damage a copy in a second cache: the process has never mapped it
        self.require_compiler()
        assert solvers._load_kernel() is not None
        damaged = tmp_path / "damaged" / "qubofs"
        shutil.copytree(cache.dir, damaged)
        library = next(damaged.glob("*.so"))
        size = library.stat().st_size
        library.write_bytes(library.read_bytes()[:size // 2])
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "damaged"))
        solvers._load_kernel.cache_clear()
        assert solvers._load_kernel() is not None
        assert len(cache.compiles) == 2
        assert library.stat().st_size == size
        self.check_reference()

    def test_self_check_mismatch_falls_back(self, cache, monkeypatch):
        # a kernel whose shuffle skips its last swap draws other flip orders
        self.require_compiler()
        code = _native.source("_anneal")
        wrong = code.replace(b"i > 0; i--", b"i > 1; i--")
        assert wrong != code
        monkeypatch.setattr(_native, "source", lambda name: wrong)
        assert solvers._load_kernel() is None
        assert len(cache.compiles) == 1
        self.check_reference()


class TestRankKernelBuild:
    """The ranking kernel loads like the annealer's, and whatever happens to
    the compiler or the source, ranking returns the reference lists."""

    @staticmethod
    def check_reference():
        # integer scores are exact in any summation order: ties everywhere
        rng = np.random.default_rng(51)
        s = rng.integers(-1, 3, size=(10, 10)) * (rng.random((10, 10)) < 0.5)
        np.fill_diagonal(s, 0)
        profiles = rng.integers(0, 3, size=(6, 10)) * (rng.random((6, 10)) < 0.3)
        model = models.SimilarityModel(SparseMatrix.from_dense(s), models.ModelKind.ITEM_KNN_CF, {})
        ranked = models.score_and_rank(model, SparseMatrix.from_dense(profiles), cutoff=4)
        scores = profiles @ s
        for user, got in enumerate(ranked):
            unseen = np.flatnonzero(profiles[user] == 0)
            order = np.lexsort((unseen, -scores[user, unseen]))
            assert got.tolist() == unseen[order[:4]].tolist()

    def test_source_ships_with_the_package(self):
        assert b"int64_t rank_users(" in _native.source("_rank")

    def test_builds_once_then_loads_from_the_cache(self, cache):
        TestKernelBuild.require_compiler()
        assert models._load_kernel() is not None
        assert len(cache.compiles) == 1
        self.check_reference()
        models._load_kernel.cache_clear()
        assert models._load_kernel() is not None
        assert len(cache.compiles) == 1
        self.check_reference()

    def test_no_compiler(self, cache, monkeypatch):
        monkeypatch.setattr(_native, "COMPILE", ("/nonexistent/cc",) + _native.COMPILE[1:])
        assert models._load_kernel() is None
        self.check_reference()

    def test_self_check_case_has_sub_epsilon_scores(self):
        """The self-check scores some items with 0 < |s| < ZERO_EPSILON, which
        no canonical matrix stores, and the kernel and numpy agree on them."""
        check = models._check_case()
        profiles, sim = check[:2]
        raw = profiles.to_dense() @ sim.to_dense()
        assert np.any((raw != 0) & (np.abs(raw) < ZERO_EPSILON))
        kernel = models._load_kernel()
        if kernel is None:
            pytest.skip("no ranking kernel on this machine")
        assert ([r.tolist() for r in kernel(*check)]
                == [r.tolist() for r in models._rank_numpy(*check)])

    def test_self_check_ranking_is_the_numpy_ranking(self):
        """The self-check compares the kernel with a pinned ranking, which
        must stay what numpy ranks on the same case."""
        assert models._CHECK_RANKING == [r.tolist() for r in models._rank_numpy(*models._check_case())]

    def test_self_check_mismatch_falls_back(self, cache, monkeypatch):
        # a kernel that ranks a tied later column above an earlier one
        TestKernelBuild.require_compiler()
        code = _native.source("_rank")
        wrong = code.replace(b"s > best_score[i - 1]", b"s >= best_score[i - 1]")
        assert wrong != code
        monkeypatch.setattr(_native, "source", lambda name: wrong)
        assert models._load_kernel() is None
        assert len(cache.compiles) == 1
        self.check_reference()

    def test_self_check_sees_a_missing_zero_rule(self, cache, monkeypatch):
        # only the self-check's sub-ZERO_EPSILON scores tell this kernel apart
        TestKernelBuild.require_compiler()
        code = _native.source("_rank")
        wrong = code.replace(b"fabs(s) < zero_epsilon", b"fabs(s) < 0.0")
        assert wrong != code
        monkeypatch.setattr(_native, "source", lambda name: wrong)
        assert models._load_kernel() is None
        assert len(cache.compiles) == 1
        self.check_reference()


def test_package_data_names_every_kernel_source():
    """A kernel never ships without its C source, nor names one that is gone."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    shipped = sorted(p.name for p in (root / "src" / "qubofs").glob("*.c"))
    assert shipped and sorted(package_data["qubofs"]) == shipped


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in (Path(__file__).parents[1] / "src" / "qubofs").glob("*.c")))
def test_kernel_source_compiles_without_warnings(name, tmp_path):
    TestKernelBuild.require_compiler()
    build = subprocess.run(
        [*_native.COMPILE, "-Wall", "-Wextra", "-Werror", "-x", "c", "-",
         "-o", str(tmp_path / f"{name}.so"), "-lm"],
        input=_native.source(name), capture_output=True)
    assert build.returncode == 0, build.stderr.decode()


class TestSelectionPersistence:
    def test_round_trip(self, tmp_path):
        result = SelectionResult(
            x=np.array([0, 1, 1], dtype=np.int8),
            energy=-2.5,
            solver="sa",
            seed=11,
            samples_drawn=100,
        )
        save_selection(result, tmp_path / "sel.json")
        loaded = load_selection(tmp_path / "sel.json")
        assert list(loaded.x) == [0, 1, 1]
        assert loaded.energy == -2.5
        assert loaded.solver == "sa"
        assert loaded.selected() == [1, 2]
        assert set(json.loads((tmp_path / "sel.json").read_text())) == {
            "x", "energy", "solver", "seed", "samples_drawn",
        }

    def test_older_run_with_wall_time_loads(self, tmp_path):
        """Runs written before selection.json lost its timing still resume."""
        path = tmp_path / "selection.json"
        path.write_text(json.dumps({"x": [1, 0], "energy": -1.0, "solver": "sa", "seed": 4,
                                    "samples_drawn": 10, "wall_time_s": 0.5}))
        loaded = load_selection(path)
        assert list(loaded.x) == [1, 0] and loaded.x.dtype == np.int8
        assert (loaded.energy, loaded.solver, loaded.seed, loaded.samples_drawn) == (-1.0, "sa", 4, 10)
