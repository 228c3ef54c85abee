"""The block engine's determinism contract, checked rather than stated.

Every Monte Carlo path must give the same bits whatever the number of worker
threads, whatever order the blocks finish in and whatever the chunk budget.
"""

import concurrent.futures
import sys
import threading
import time

import numpy as np
import pytest

from zenosim import noise, zeno
from zenosim.lindblad import DecoherenceParams
from zenosim.noise import TRAJECTORY_BLOCK, NoiseModel, ensemble_average
from zenosim.qubit import plus_state
from zenosim.zeno import (EngineKind, NoiseReset, ProtocolConfig, ProtocolKind,
                          nonselective_run_mc, selective_run_mc)

TRAJECTORIES = 3 * TRAJECTORY_BLOCK - 100        # three blocks, the last one partial
GRID = np.linspace(0.0, 10.0, 1001)              # wider than one grid chunk
PARAMS = DecoherenceParams(1.0 / 200.0, 1.0 / 20.0)
OU = NoiseModel.ornstein_uhlenbeck(0.1, 1.0)


def mc_outputs() -> list[bytes]:
    """Every Monte Carlo path, serialised to bytes."""
    out = []
    for model in (NoiseModel.quasi_static(0.05), OU):
        result = ensemble_average(plus_state(), model, GRID, TRAJECTORIES, 11, context=(2,))
        out.append(result.mean_rho.tobytes() + result.stderr.tobytes())
    for kind, run in ((ProtocolKind.SELECTIVE, selective_run_mc),
                      (ProtocolKind.NON_SELECTIVE, nonselective_run_mc)):
        for reset in NoiseReset:
            for model in (None, OU):
                config = ProtocolConfig(10.0, 5, kind, EngineKind.MONTE_CARLO,
                                        TRAJECTORIES, 11, reset)
                r = run(PARAMS, config, model)
                fields = (r.success_probability, r.success_stderr, r.survivors_per_step,
                          r.coherence, r.coherence_stderr, r.trajectories)
                rho = r.final_rho.matrix.tobytes() if r.final_rho is not None else b""
                out.append(repr(fields).encode() + rho)
    return out


@pytest.fixture
def engine(monkeypatch):
    """``engine(workers, delay_even)`` reroutes every Monte Carlo path.

    With ``delay_even`` each even block sleeps before its kernel runs, so
    with two or more workers the odd blocks finish first.  Returns the list
    the block indices are appended to as their kernels finish.
    """
    reduce_blocks, stream_generator = noise._reduce_blocks, noise.stream_generator
    block_of, finished = {}, []

    def tagged_stream(base_seed, *key):
        gen = stream_generator(base_seed, *key)
        block_of[id(gen)] = key[-1]
        return gen

    def configure(workers, delay_even=False):
        def delayed(kernel):
            def run(gen, rows):
                block = block_of[id(gen)]
                if block % 2 == 0:
                    time.sleep(0.05)
                result = kernel(gen, rows)
                finished.append(block)
                return result
            return run

        def rerouted(kernel, *args, **kwargs):
            return reduce_blocks(delayed(kernel) if delay_even else kernel,
                                 *args, workers=workers, **kwargs)

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
        for workers in (2, 3, 4):
            engine(workers)
            assert mc_outputs() == serial
    finally:
        sys.setswitchinterval(interval)


def test_outputs_do_not_depend_on_finishing_order(engine):
    engine(1)
    serial = mc_outputs()
    finished = engine(2, delay_even=True)
    assert mc_outputs() == serial
    assert finished != sorted(finished)          # blocks did finish out of order


def test_chunk_budget_does_not_change_outputs(monkeypatch):
    default = mc_outputs()
    # 4-column grid chunks leave a lone last column of the 1001-point grid
    # for both block sizes; OU protocol draws split into many row chunks
    monkeypatch.setattr(noise, "CHUNK_VALUES", 4 * TRAJECTORY_BLOCK)
    monkeypatch.setattr(zeno, "CHUNK_VALUES", 4 * TRAJECTORY_BLOCK)
    assert mc_outputs() == default


def test_engine_yields_in_block_order():
    def kernel(gen, rows):
        first = gen.random()
        time.sleep(0.05 if rows == TRAJECTORY_BLOCK else 0.0)
        return first, rows

    expected = list(noise._reduce_blocks(kernel, TRAJECTORIES, 5, (1,), workers=1))
    assert [rows for _, rows in expected] == [TRAJECTORY_BLOCK, TRAJECTORY_BLOCK,
                                              TRAJECTORIES - 2 * TRAJECTORY_BLOCK]
    assert list(noise._reduce_blocks(kernel, TRAJECTORIES, 5, (1,), workers=3)) == expected


def test_pool_has_one_worker_per_cpu_capped_at_block_count(monkeypatch):
    sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    for cpus in (2, 8):
        monkeypatch.setattr(noise, "_available_cpus", lambda: cpus)
        list(noise._reduce_blocks(lambda gen, rows: rows, TRAJECTORIES, 1))
    assert sizes == [2, 3]


def test_single_block_runs_inline(monkeypatch):
    monkeypatch.setattr(noise, "_available_cpus", lambda: 4)
    threads = []

    def kernel(gen, rows):
        threads.append(threading.current_thread())
        return rows

    assert list(noise._reduce_blocks(kernel, TRAJECTORY_BLOCK, 1)) == [TRAJECTORY_BLOCK]
    assert threads == [threading.main_thread()]


@pytest.mark.parametrize("rows", [1, 7, 1948, TRAJECTORY_BLOCK])
def test_grid_chunks_cover_the_grid_without_lone_columns(rows):
    for size in range(1, 40):
        for budget in (rows, 2 * rows, 5 * rows, noise.CHUNK_VALUES):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(noise, "CHUNK_VALUES", budget)
                chunks = noise._grid_chunks(size, rows)
            assert chunks[0][0] == 0 and chunks[-1][1] == size
            assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
            assert all(c1 - c0 >= 2 for c0, c1 in chunks) or size == 1
