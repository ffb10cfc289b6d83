"""Tests for the concurrency sanitizer and its pytest plugin."""

import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.tools.racecheck import (
    AuditedCounters,
    InstrumentedLock,
    RaceMonitor,
)
from repro.util import locks as lockseam

REPO_ROOT = Path(__file__).resolve().parents[2]


def subprocess_env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


class TestLockOrderGraph:
    def test_consistent_order_has_no_cycle(self):
        monitor = RaceMonitor()
        outer = InstrumentedLock("outer", monitor)
        inner = InstrumentedLock("inner", monitor)
        for _ in range(3):
            with outer:
                with inner:
                    pass
        assert monitor.lock_cycles() == []
        assert monitor.clean

    def test_inverted_order_is_a_cycle(self):
        monitor = RaceMonitor()
        lock_a = InstrumentedLock("lock_a", monitor)
        lock_b = InstrumentedLock("lock_b", monitor)
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:
                pass
        cycles = monitor.lock_cycles()
        assert len(cycles) == 1
        assert set(cycles[0]) == {"lock_a", "lock_b"}
        assert not monitor.clean

    def test_cycle_across_threads_is_detected(self):
        monitor = RaceMonitor()
        lock_a = InstrumentedLock("lock_a", monitor)
        lock_b = InstrumentedLock("lock_b", monitor)

        def forward():
            with lock_a:
                with lock_b:
                    pass

        worker = threading.Thread(target=forward)
        worker.start()
        worker.join()
        with lock_b:
            with lock_a:
                pass
        assert monitor.lock_cycles()

    def test_report_names_the_cycle_with_stacks(self):
        monitor = RaceMonitor()
        lock_a = InstrumentedLock("lock_a", monitor)
        lock_b = InstrumentedLock("lock_b", monitor)
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:
                pass
        report = monitor.report()
        assert "lock-order cycles: 1" in report
        assert "lock_a -> lock_b" in report or "lock_b -> lock_a" in report
        assert "first taken at:" in report
        assert "test_racecheck.py" in report

    def test_three_lock_cycle(self):
        monitor = RaceMonitor()
        locks = [
            InstrumentedLock(f"lock_{name}", monitor) for name in "abc"
        ]
        for first, second in ((0, 1), (1, 2), (2, 0)):
            with locks[first]:
                with locks[second]:
                    pass
        cycles = monitor.lock_cycles()
        assert len(cycles) == 1
        assert set(cycles[0]) == {"lock_a", "lock_b", "lock_c"}


class TestCounterAudit:
    def _hammer(self, counters, threads=4, locked_via=None):
        # Every worker is alive before any writes: a thread ident is
        # reused once its thread exits, so workers that ran one after
        # another could all look like one writer.
        start = threading.Barrier(threads)

        def worker():
            start.wait(timeout=30)
            for _ in range(50):
                if locked_via is not None:
                    with locked_via:
                        counters["hits"] += 1
                else:
                    counters["hits"] += 1

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

    def test_locked_multithreaded_writes_are_clean(self):
        monitor = RaceMonitor()
        lock = InstrumentedLock("counter_lock", monitor)
        counters = AuditedCounters({"hits": 0}, lock, "Store(x)", monitor)
        self._hammer(counters, locked_via=lock)
        assert monitor.counter_violations() == []
        assert monitor.clean

    def test_unlocked_multithreaded_writes_are_flagged(self):
        monitor = RaceMonitor()
        lock = InstrumentedLock("counter_lock", monitor)
        counters = AuditedCounters({"hits": 0}, lock, "Store(x)", monitor)
        self._hammer(counters)
        violations = monitor.counter_violations()
        assert len(violations) == 1
        assert violations[0]["owner"] == "Store(x)"
        assert violations[0]["unlocked"] > 0
        report = monitor.report()
        assert "unsynchronized counter writes: 1" in report
        assert "first unlocked write" in report

    def test_single_thread_unlocked_writes_are_tolerated(self):
        # Construction-time initialisation from one thread is not a
        # race; only multi-thread mutation demands the lock.
        monitor = RaceMonitor()
        lock = InstrumentedLock("counter_lock", monitor)
        counters = AuditedCounters({"hits": 0}, lock, "Store(x)", monitor)
        counters["hits"] += 1
        assert monitor.counter_violations() == []


class TestSeamInstallation:
    def test_install_swaps_factories_and_uninstall_restores(self):
        monitor = RaceMonitor()
        monitor.install()
        try:
            lock = lockseam.new_lock("seam_lock")
            counters = lockseam.make_counters(
                {"hits": 0}, lock=lock, owner="seam"
            )
            assert isinstance(lock, InstrumentedLock)
            assert isinstance(counters, AuditedCounters)
        finally:
            monitor.uninstall()
        assert isinstance(
            lockseam.new_lock("plain"), type(threading.Lock())
        )
        assert type(lockseam.make_counters({}, None, "x")) is dict

    def test_double_install_is_rejected(self):
        monitor = RaceMonitor()
        monitor.install()
        try:
            try:
                monitor.install()
            except RuntimeError as exc:
                assert "already installed" in str(exc)
            else:  # pragma: no cover
                raise AssertionError("second install() did not raise")
        finally:
            monitor.uninstall()


class TestPluginEndToEnd:
    def _run_pytest(self, *args, cwd=None):
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "-p",
                "repro.tools.racecheck.plugin",
                "-p",
                "no:cacheprovider",
                "--racecheck",
                *args,
            ],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            cwd=str(cwd or REPO_ROOT),
            timeout=300,
        )

    def test_clean_concurrency_suite_passes_with_summary(self):
        result = self._run_pytest(
            str(REPO_ROOT / "tests" / "sources" / "test_index_snapshots.py")
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "racecheck" in result.stdout
        assert "lock-order cycles: none" in result.stdout
        assert "unsynchronized counter writes: none" in result.stdout

    def test_lock_order_cycle_forces_failure_exit(self, tmp_path):
        (tmp_path / "test_cycle.py").write_text(
            "from repro.util.locks import new_lock\n"
            "\n"
            "def test_inverted_acquisition_order():\n"
            "    lock_a = new_lock('lock_a')\n"
            "    lock_b = new_lock('lock_b')\n"
            "    with lock_a:\n"
            "        with lock_b:\n"
            "            pass\n"
            "    with lock_b:\n"
            "        with lock_a:\n"
            "            pass\n",
            encoding="utf-8",
        )
        result = self._run_pytest(str(tmp_path), cwd=tmp_path)
        assert result.returncode == 3, result.stdout + result.stderr
        assert "lock-order cycles: 1" in result.stdout
        assert "racecheck: FAILED" in result.stdout
