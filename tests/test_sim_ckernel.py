"""The compiled event-loop kernel vs the pure-Python columnar loop.

``repro.sim.ckernel`` compiles the DynamicScheduler event loop with the
system C compiler when one is available.  These tests check that the
compiled loop's ScheduleResult is bit-identical to the Python loop's on
adversarial task streams, and that the scheduler degrades gracefully
when the kernel is unavailable.  (``test_task_kernels.py`` holds the
named cases and the hypothesis properties of the same comparison.)
"""

import unittest
from unittest import mock

import numpy as np

from repro.sim import ckernel
from repro.sim.scheduler import DynamicScheduler
from repro.sim.tasks import NO_LOCK, TaskArray

KERNEL = ckernel.get_kernel()


def _stream(seed, n, lock_pool, lock_fraction, fine_fraction):
    rng = np.random.default_rng(seed)
    lock = rng.integers(0, lock_pool, size=n)
    if lock_fraction < 1.0:
        lock = np.where(rng.random(n) < lock_fraction, lock, NO_LOCK)
    return TaskArray.build(
        n,
        unlocked_work=rng.uniform(1.0, 40.0, size=n),
        locked_work=rng.uniform(0.0, 25.0, size=n),
        lock=lock.astype(np.int64),
        fine_lock=rng.random(n) < fine_fraction,
    )


def _both_paths(tasks, threads, dispatch_chunk=1):
    scheduler = DynamicScheduler(threads, dispatch_chunk=dispatch_chunk)
    compiled = scheduler.run(tasks)
    with mock.patch.object(ckernel, "get_kernel", return_value=None):
        python = scheduler.run(tasks)
    return compiled, python


def _assert_identical(test, compiled, python):
    test.assertEqual(compiled.makespan_cycles, python.makespan_cycles)
    test.assertEqual(compiled.total_work_cycles, python.total_work_cycles)
    test.assertEqual(compiled.lock_wait_cycles, python.lock_wait_cycles)
    test.assertEqual(compiled.contended_acquires, python.contended_acquires)
    np.testing.assert_array_equal(
        compiled.thread_busy_cycles, python.thread_busy_cycles
    )
    np.testing.assert_array_equal(compiled.task_thread, python.task_thread)


@unittest.skipIf(KERNEL is None, "no C compiler: compiled kernel unavailable")
class CompiledKernelDifferentialTest(unittest.TestCase):
    def test_all_locked_contended_stream(self):
        # Few locks over many tasks: heavy contention exercises the
        # contended branch and the wait/patch bookkeeping.
        tasks = _stream(seed=1, n=3000, lock_pool=7, lock_fraction=1.0,
                        fine_fraction=0.5)
        for threads in (1, 2, 4, 16, 63):
            compiled, python = _both_paths(tasks, threads)
            _assert_identical(self, compiled, python)

    def test_mixed_lock_stream(self):
        # Lock-free rows interleaved with locked rows hit the general
        # (non-all-locked) loop on both paths.
        tasks = _stream(seed=2, n=2500, lock_pool=400, lock_fraction=0.6,
                        fine_fraction=0.1)
        for threads in (3, 8):
            compiled, python = _both_paths(tasks, threads)
            _assert_identical(self, compiled, python)

    def test_sparse_locks_no_contention(self):
        tasks = _stream(seed=3, n=500, lock_pool=100000, lock_fraction=1.0,
                        fine_fraction=0.0)
        compiled, python = _both_paths(tasks, 8)
        self.assertEqual(compiled.contended_acquires, 0)
        _assert_identical(self, compiled, python)

    def test_dispatch_chunking(self):
        tasks = _stream(seed=4, n=1000, lock_pool=20, lock_fraction=0.9,
                        fine_fraction=0.3)
        compiled, python = _both_paths(tasks, 6, dispatch_chunk=8)
        _assert_identical(self, compiled, python)

    def test_thread_count_above_kernel_limit_uses_python_loop(self):
        # threads > MAX_KERNEL_THREADS must bypass the kernel, not fail.
        tasks = _stream(seed=5, n=200, lock_pool=10, lock_fraction=1.0,
                        fine_fraction=0.0)
        threads = ckernel.MAX_KERNEL_THREADS + 1
        compiled, python = _both_paths(tasks, threads)
        _assert_identical(self, compiled, python)


class KernelGatingTest(unittest.TestCase):
    def test_disable_env_turns_kernel_off(self):
        with mock.patch.dict("os.environ", {ckernel.DISABLE_ENV: "1"}):
            ckernel.reset()
            try:
                self.assertIsNone(ckernel.get_kernel())
            finally:
                ckernel.reset()

    def test_scheduler_runs_without_kernel(self):
        tasks = _stream(seed=6, n=300, lock_pool=30, lock_fraction=0.8,
                        fine_fraction=0.2)
        with mock.patch.object(ckernel, "get_kernel", return_value=None):
            result = DynamicScheduler(4).run(tasks)
        self.assertGreater(result.makespan_cycles, 0.0)
        self.assertEqual(result.task_count, 300)


if __name__ == "__main__":
    unittest.main()
