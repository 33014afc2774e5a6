"""The trajectory kernel's blocks in one forked process per CPU.

The CPU count ``run_blocks`` sees is set through ``os.sched_getaffinity``;
every forked child is counted, so each test knows that the parallel path ran.
Output bytes, errors and exit codes must not depend on the worker count, and
no child may outlive a call.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from lindbladrate import _kernels
from lindbladrate.cli import main
from lindbladrate.qubit import PRESETS, dephasing_model
from lindbladrate.stochastic import _build_kit, run_ensemble

from test_output_bytes import _STATE, _WALK, _WALK3

RHO_PLUS_X = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
SIZE = _kernels.BLOCK_SIZE

pytestmark = pytest.mark.skipif(
    _kernels._openblas() is None or not hasattr(os, "fork"), reason="needs os.fork and numpy's OpenBLAS"
)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes ``run_blocks`` see k CPUs and returns the pids it forks."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)

    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        forks.clear()
        return forks

    return set_cpus


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_blocks(monkeypatch, failing):
    """Blocks starting at ``failing`` raise a ``FloatingPointError`` naming their first trajectory."""
    run = _kernels._run_block

    def run_block(kit, lo, hi, seed):
        if lo in failing:
            raise FloatingPointError(f"trajectory {lo}: non-finite state or trace drift beyond 1e-10")
        return run(kit, lo, hi, seed)

    monkeypatch.setattr(_kernels, "_run_block", run_block)


def fig2_walk():
    return dephasing_model(PRESETS["fig2"])[1]


TRAJ_CASES = {
    "fig2-2304": (["--preset", "fig2", "--n", "2304", "--seed", "5"], None),
    "depol-3000": (["--n", "3000", "--seed", "3"], {"model": _WALK, "grid": {"stop": 10.0, "count": 51}}),
    "walk3-5000": (
        ["--n", "5000", "--seed", "11"],
        {"model": _WALK3, "grid": {"stop": 8.0, "count": 81, "spacing": "log", "decades": 3}},
    ),
}


@pytest.mark.parametrize("case", list(TRAJ_CASES))
def test_traj_bytes_do_not_depend_on_the_worker_count(tmp_path, cpus, case):
    args, config = TRAJ_CASES[case]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, "initial_state": _STATE}))
        args = [*args, "--config", str(path)]
    n = int(args[args.index("--n") + 1])
    outputs = []
    for workers in (1, 2, 3):
        forks = cpus(workers)
        out = tmp_path / f"{workers}.csv"
        assert main(["traj", *args, "--out", str(out)]) == 0
        assert len(forks) == min(workers, -(-n // SIZE)) - 1
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
    assert_no_children()


@pytest.mark.parametrize(
    "failing",
    [{SIZE}, {2 * SIZE}, {SIZE, 2 * SIZE}, {2 * SIZE, 4 * SIZE}, {3 * SIZE, 4 * SIZE}],
    ids=["child", "parent", "child-first", "parent-first", "two-children"],
)
def test_a_failing_block_raises_as_in_one_process(monkeypatch, cpus, failing):
    # the lowest failing block's error is raised, whichever worker ran it
    failing_blocks(monkeypatch, failing)
    grid = np.linspace(0.0, 5.0, 11)
    messages = []
    for workers in (1, 2, 3):
        forks = cpus(workers)
        with pytest.raises(FloatingPointError) as raised:
            run_ensemble(fig2_walk(), RHO_PLUS_X, grid, 5 * SIZE, 7)
        assert len(forks) == workers - 1
        messages.append(str(raised.value))
        assert_no_children()
    assert messages == [f"trajectory {min(failing)}: non-finite state or trace drift beyond 1e-10"] * 3


def test_traj_exits_3_with_the_same_stderr(monkeypatch, capsys, tmp_path, cpus):
    failing_blocks(monkeypatch, {SIZE})
    errors = []
    for workers in (1, 2):
        cpus(workers)
        assert main(["traj", "--preset", "fig2", "--n", "2304", "--seed", "5", "--out", str(tmp_path / "x.csv")]) == 3
        errors.append(capsys.readouterr().err)
        assert_no_children()
    assert errors[0].startswith("engine failure: trajectory 1024:")
    assert errors[1] == errors[0]


def test_parent_failure_kills_the_children(monkeypatch, cpus):
    # the children would sleep for a minute; the parent's own block fails at once
    parent = os.getpid()

    def run_block(kit, lo, hi, seed):
        if os.getpid() == parent:
            raise FloatingPointError("trajectory 0: injected")
        time.sleep(60)

    monkeypatch.setattr(_kernels, "_run_block", run_block)
    forks = cpus(3)
    kit = _build_kit(fig2_walk(), RHO_PLUS_X, np.linspace(0.0, 1.0, 3))
    start = time.monotonic()
    with pytest.raises(FloatingPointError, match="trajectory 0: injected"):
        _kernels.run_blocks(kit, 3 * SIZE, 1)
    assert time.monotonic() - start < 30
    assert len(forks) == 2
    assert_no_children()


def test_a_child_that_dies_is_an_engine_failure(monkeypatch, cpus):
    parent = os.getpid()
    run = _kernels._run_block

    def run_block(kit, lo, hi, seed):
        if os.getpid() != parent:
            os._exit(1)
        return run(kit, lo, hi, seed)

    monkeypatch.setattr(_kernels, "_run_block", run_block)
    cpus(2)
    kit = _build_kit(fig2_walk(), RHO_PLUS_X, np.linspace(0.0, 1.0, 3))
    with pytest.raises(RuntimeError, match="block 1024"):
        _kernels.run_blocks(kit, 2 * SIZE, 1)
    assert_no_children()


def test_blas_threads_are_pinned_and_restored(monkeypatch, cpus):
    get, put = _kernels._openblas()
    before = get()
    parent = os.getpid()
    seen = []
    run = _kernels._run_block

    def run_block(kit, lo, hi, seed):
        if os.getpid() == parent:
            seen.append(get())
        if lo == 3 * SIZE:
            raise FloatingPointError("trajectory 3072: injected")
        return run(kit, lo, hi, seed)

    monkeypatch.setattr(_kernels, "_run_block", run_block)
    cpus(2)
    kit = _build_kit(fig2_walk(), RHO_PLUS_X, np.linspace(0.0, 1.0, 3))
    put(2)
    try:
        _kernels.run_blocks(kit, 2 * SIZE, 1)
        assert get() == 2
        with pytest.raises(FloatingPointError):
            _kernels.run_blocks(kit, 4 * SIZE, 1)
        assert get() == 2
    finally:
        put(before)
    assert seen == [1, 1, 1]


def test_one_process_while_another_thread_runs(cpus):
    forks = cpus(2)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        acc = run_ensemble(fig2_walk(), RHO_PLUS_X, np.linspace(0.0, 1.0, 3), 2 * SIZE, 1)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert acc.count == 2 * SIZE
    assert forks == []
