"""The block engine's determinism contract, checked rather than stated.

Every Monte Carlo path must give the same bits whatever the number of worker
threads, however its blocks are grouped into tasks and windows, whatever order
the tasks finish in and whatever the chunk budget; a block's scratch memory
must not grow with its grid, nor a run's streams with its blocks.  The thread
pool is built once per process and must neither hang a forked child nor hold
up interpreter exit, and a run that samples nothing must not load the sampling
machinery.
"""

import os
import math
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import zenosim
from zenosim import noise, zeno
from zenosim.config import parse_config
from zenosim.lindblad import DecoherenceParams
from zenosim.noise import TRAJECTORY_BLOCK, NoiseModel, ensemble_average
from zenosim.qubit import plus_state
from zenosim.zeno import (EngineKind, NoiseReset, ProtocolConfig, ProtocolKind,
                          nonselective_run_mc, selective_run_mc)

TRAJECTORIES = 3 * TRAJECTORY_BLOCK - 100        # three blocks, the last one partial
# nine blocks at N = 5, four to a task: three or four tasks on any thread count
PROTOCOL_TRAJECTORIES, PROTOCOL_N = 9 * TRAJECTORY_BLOCK - 100, 5
GRID = np.linspace(0.0, 10.0, 1001)              # wider than one grid chunk
PARAMS = DecoherenceParams(1.0 / 200.0, 1.0 / 20.0)
OU = NoiseModel.ornstein_uhlenbeck(0.1, 1.0)


def mc_outputs() -> list[bytes]:
    """Every Monte Carlo path, serialised to bytes."""
    out = []
    for model in (NoiseModel.quasi_static(0.05), OU):
        result = ensemble_average(plus_state(), model, GRID, TRAJECTORIES, 11, context=(2,))
        out.append(result.rho01.tobytes() + result.stderr.tobytes())
    for kind, run in ((ProtocolKind.SELECTIVE, selective_run_mc),
                      (ProtocolKind.NON_SELECTIVE, nonselective_run_mc)):
        for reset in NoiseReset:
            for model in (None, OU):
                config = ProtocolConfig(10.0, PROTOCOL_N, kind, EngineKind.MONTE_CARLO,
                                        PROTOCOL_TRAJECTORIES, 11, reset)
                r = run(PARAMS, config, model)
                fields = (r.success_probability, r.success_stderr, r.survivors_per_step,
                          r.coherence, r.coherence_stderr, r.trajectories)
                rho = r.final_rho.matrix.tobytes() if r.final_rho is not None else b""
                out.append(repr(fields).encode() + rho)
    return out


@pytest.fixture
def engine(monkeypatch):
    """``engine(cpus, delay_first)`` runs every Monte Carlo path on ``cpus`` threads.

    With ``delay_first`` the first task of every run sleeps before its kernel
    runs, so with two or more threads later tasks finish first.  Returns the
    list the first block index of each task is appended to as its kernel
    finishes.
    """
    reduce_blocks, stream_generator = noise._reduce_blocks, noise.stream_generator
    block_of, finished = {}, []

    def tagged_stream(base_seed, *key):
        gen = stream_generator(base_seed, *key)
        block_of[id(gen)] = key[-1]
        return gen

    def delayed(kernel):
        def run(task):
            first = block_of[id(task[0][0])]
            if first == 0:
                time.sleep(0.05)
            result = kernel(task)
            finished.append(first)
            return result
        return run

    def rerouted(kernel, *args, **kwargs):
        return reduce_blocks(delayed(kernel), *args, **kwargs)

    def configure(cpus, delay_first=False):
        monkeypatch.setattr(noise, "_available_cpus", lambda: cpus)
        if delay_first:
            monkeypatch.setattr(noise, "stream_generator", tagged_stream)
            monkeypatch.setattr(noise, "_reduce_blocks", rerouted)
            monkeypatch.setattr(zeno, "_reduce_blocks", rerouted)
        return finished

    return configure


def test_outputs_do_not_depend_on_worker_count(engine):
    engine(1)
    serial = mc_outputs()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)        # switch threads often, to expose shared state
    try:
        for cpus in (2, 3, 4):
            engine(cpus)
            assert mc_outputs() == serial
    finally:
        sys.setswitchinterval(interval)


def test_outputs_do_not_depend_on_finishing_order(engine):
    engine(1)
    serial = mc_outputs()
    finished = engine(2, delay_first=True)
    assert mc_outputs() == serial
    runs = finished.count(0)
    assert runs == 10 and len(finished) >= 3 * runs      # every run spans three tasks or more
    assert finished != sorted(finished)          # tasks did finish out of order


def test_chunk_budget_does_not_change_outputs(monkeypatch):
    default = mc_outputs()
    for budget in (1, 3 * TRAJECTORY_BLOCK):          # one- and three-point chunks
        monkeypatch.setattr(noise, "CHUNK_VALUES", budget)
        assert mc_outputs() == default


def test_block_memory_does_not_grow_with_the_grid():
    # one inline block on a 4001-point OU grid: drawn whole, its normals
    # alone would take 66 MB
    grid = np.linspace(0.0, 40.0, 4001)
    tracemalloc.start()
    try:
        ensemble_average(plus_state(), OU, grid, TRAJECTORY_BLOCK, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * noise.CHUNK_VALUES * 8


def test_crossover_blocks_in_flight_hold_little_scratch(monkeypatch):
    # two blocks at once on the default crossover_scan grid: each holds two
    # cache-sized tiles, where 2 MiB tiles drawn fresh per chunk peaked at 12.8 MiB
    cfg = parse_config("experiment=crossover_scan\n")
    model = NoiseModel.ornstein_uhlenbeck(cfg.settings["coupling"], cfg.settings["tau_c"])
    monkeypatch.setattr(noise, "_available_cpus", lambda: 2)
    tracemalloc.start()
    try:
        ensemble_average(plus_state(), model, cfg.plan.t, 2 * TRAJECTORY_BLOCK, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.plan.t.size == 410
    assert peak < 4 * 2 ** 20


def _block_index(gen) -> int:
    return gen.bit_generator.seed_seq.spawn_key[-1]


def test_engine_yields_in_task_order(monkeypatch):
    def kernel(task):
        time.sleep(0.05 if _block_index(task[0][0]) == 0 else 0.0)   # the first task ends last
        return [(_block_index(gen), gen.random(), rows) for gen, rows in task]

    monkeypatch.setattr(noise, "_available_cpus", lambda: 1)
    serial = [block for [block] in noise._reduce_blocks(kernel, TRAJECTORIES, 5, (1,))]
    assert [(block, rows) for block, _, rows in serial] == [
        (0, TRAJECTORY_BLOCK), (1, TRAJECTORY_BLOCK), (2, TRAJECTORIES - 2 * TRAJECTORY_BLOCK)]
    for cpus in (1, 3):
        monkeypatch.setattr(noise, "_available_cpus", lambda: cpus)
        for per_task in (1, 2, 3):
            tasks = list(noise._reduce_blocks(kernel, TRAJECTORIES, 5, (1,), per_task))
            assert [block for task in tasks for block in task] == serial


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_tasks_are_near_equal_runs_of_consecutive_blocks(monkeypatch, cpus):
    monkeypatch.setattr(noise, "_available_cpus", lambda: cpus)
    for blocks in (1, 2, 3, 5, 8, 13):
        for per_task in (1, 2, 3, 4, 20):
            tasks = list(noise._reduce_blocks(
                lambda task: [_block_index(gen) for gen, _ in task],
                blocks * TRAJECTORY_BLOCK, 1, (), per_task))
            assert [block for task in tasks for block in task] == list(range(blocks))
            sizes = {len(task) for task in tasks}
            assert max(sizes) - min(sizes) <= 1 and max(sizes) <= per_task
            threads = min(cpus, math.ceil(blocks / per_task))
            if threads > 1:
                assert len(tasks) % threads == 0 or len(tasks) == blocks
            else:
                assert len(tasks) == math.ceil(blocks / per_task)


def test_streams_are_derived_on_the_caller_before_any_kernel(monkeypatch):
    stream_generator, derived = noise.stream_generator, []

    def recorded(base_seed, *key):
        derived.append(threading.current_thread())
        return stream_generator(base_seed, *key)

    def kernel(task):
        assert derived == [threading.main_thread()] * 3
        return len(task)

    monkeypatch.setattr(noise, "stream_generator", recorded)
    for cpus in (1, 2):
        monkeypatch.setattr(noise, "_available_cpus", lambda: cpus)
        derived.clear()
        assert sum(noise._reduce_blocks(kernel, TRAJECTORIES, 1)) == 3


class _TrackedGenerator(np.random.Generator):
    """A numpy Generator that, unlike numpy's own, takes a weak reference."""


@pytest.mark.parametrize("cpus", [1, 2])
def test_streams_are_derived_a_window_at_a_time(monkeypatch, cpus):
    stream_generator, reduce_blocks = noise.stream_generator, noise._reduce_blocks
    lock = threading.Lock()
    state = dict(live=0, peak=0, running=0, ran=True, windows=0, misplaced=0)

    def released():
        with lock:
            state["live"] -= 1

    def tracked(base_seed, *key):
        gen = _TrackedGenerator(stream_generator(base_seed, *key).bit_generator)
        weakref.finalize(gen, released)
        with lock:
            state["live"] += 1
            state["peak"] = max(state["peak"], state["live"])
            state["windows"] += state["ran"]        # the first stream of a window
            state["ran"] = False
            state["misplaced"] += (threading.current_thread() is not threading.main_thread()
                                   or state["running"] > 0)
        return gen

    def counted(kernel):
        def run(task):
            with lock:
                state["running"] += 1
            try:
                return kernel(task)
            finally:
                with lock:
                    state["running"] -= 1
                    state["ran"] = True
        return run

    def rerouted(kernel, *args, **kwargs):
        return reduce_blocks(counted(kernel), *args, **kwargs)

    def draws(task):
        return [gen.random() for gen, _ in task]

    monkeypatch.setattr(noise, "_available_cpus", lambda: cpus)
    unwindowed = mc_outputs(), list(reduce_blocks(draws, 40 * TRAJECTORY_BLOCK, 1, (), 2))
    monkeypatch.setattr(noise, "stream_generator", tracked)
    monkeypatch.setattr(noise, "_reduce_blocks", rerouted)
    monkeypatch.setattr(zeno, "_reduce_blocks", rerouted)
    monkeypatch.setattr(noise, "_WINDOW_BLOCKS", 4)
    # 40 blocks, two to a task: ten windows of two tasks, so a run holds four
    # streams, and with threads the last tasks of the window before, whose
    # workers may not have dropped them yet
    windowed = list(noise._reduce_blocks(draws, 40 * TRAJECTORY_BLOCK, 1, (), 2))
    assert state["windows"] == 10 and state["peak"] <= 4 * cpus
    assert (mc_outputs(), windowed) == unwindowed
    assert state["misplaced"] == 0


def test_pool_has_one_worker_per_cpu_capped_at_task_count(monkeypatch):
    lock = threading.Lock()
    running = most = 0
    workers = set()

    def kernel(task):
        nonlocal running, most
        with lock:
            running += 1
            most = max(most, running)
            workers.add(threading.current_thread())
        time.sleep(0.1)                 # long enough for every idle worker to take a task
        with lock:
            running -= 1
        return len(task)

    def call():
        nonlocal most
        most = 0
        workers.clear()
        list(noise._reduce_blocks(kernel, TRAJECTORIES, 1))
        return most, set(workers)

    for cpus in (2, 8):
        monkeypatch.setattr(noise, "_available_cpus", lambda: cpus)
        at_once, threads = call()
        alive = set(threading.enumerate())
        assert at_once == min(cpus, 3)                   # three one-block tasks
        assert call() == (at_once, threads)              # the same workers again
        assert set(threading.enumerate()) == alive       # and no new thread


@pytest.mark.parametrize("trajectories,per_task", [(TRAJECTORY_BLOCK, 1), (TRAJECTORIES, 3)],
                         ids=["one_block", "three_blocks"])
def test_single_task_runs_inline(monkeypatch, trajectories, per_task):
    monkeypatch.setattr(noise, "_available_cpus", lambda: 4)
    threads = []

    def kernel(task):
        threads.append(threading.current_thread())
        return sum(rows for _, rows in task)

    assert list(noise._reduce_blocks(kernel, trajectories, 1, (), per_task)) == [trajectories]
    assert threads == [threading.main_thread()]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_pool(monkeypatch):
    monkeypatch.setattr(noise, "_available_cpus", lambda: 2)

    def call():
        result = ensemble_average(plus_state(), OU, GRID, TRAJECTORIES, 11, context=(2,))
        return result.rho01.tobytes() + result.stderr.tobytes()

    parent = call()                     # the pool and its threads now exist
    with warnings.catch_warnings():
        # Python >= 3.12 warns about forking a process that runs threads
        warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(20)            # a child waiting on the parent's pool dies of SIGALRM
            code = 0 if call() == parent else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def _python(*args, cwd, timeout: float) -> subprocess.CompletedProcess:
    """Run a fresh interpreter, warnings as errors, that imports this zenosim."""
    env = dict(os.environ, PYTHONPATH=str(Path(zenosim.__file__).parents[1]))
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


# three blocks; at N = 7 they run as two tasks of at most two blocks
MC_CONFIG = "experiment=figure2\nengine=mc\ntrajectories=5000\ntimes=20\nn_max=7\n"


def test_runs_that_sample_nothing_load_no_sampling_machinery(tmp_path):
    for name, text in (("decay_curve", "experiment=decay_curve\n"),
                       ("figure2", "experiment=figure2\n"), ("mc", MC_CONFIG)):
        (tmp_path / f"{name}.txt").write_text(text)
    proc = _python("-c", textwrap.dedent("""
        import sys
        from zenosim import cli, noise

        lazy = {"numpy.random", "concurrent.futures"}
        for name in ("decay_curve", "figure2"):
            assert cli.main(["run", name + ".txt", "--out", name]) == 0
        assert not lazy & sys.modules.keys(), lazy & sys.modules.keys()
        assert cli.main(["run", "mc.txt", "--out", "mc"]) == 0
        assert "numpy.random" in sys.modules
        # only a run of two or more tasks on two or more CPUs builds the pool
        assert ("concurrent.futures" in sys.modules) == (noise._available_cpus() > 1)
        """), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_idle_pool_does_not_hold_up_exit(tmp_path):
    (tmp_path / "mc.txt").write_text(MC_CONFIG)
    proc = _python("-m", "zenosim.cli", "run", "mc.txt", "--out", "out",
                   cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("rows", [1, 7, 1948, TRAJECTORY_BLOCK])
def test_grid_chunks_cover_the_grid_contiguously(rows):
    for size in range(1, 40):
        for budget in (1, rows // 2, rows, 2 * rows, 5 * rows, noise.CHUNK_VALUES):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(noise, "CHUNK_VALUES", budget)
                chunks = noise._grid_chunks(size, rows)
            assert chunks[0][0] == 0 and chunks[-1][1] == size
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
            assert all(1 <= c1 - c0 <= max(1, budget // rows) for c0, c1 in chunks)
