"""Unit tests for the supervised execution layer (:mod:`repro.parallel`).

Process-pool tests use tiny item counts and near-zero backoffs so the
whole module stays fast; the heavier end-to-end fault scenarios (worker
SIGKILL mid-grid, hangs, checkpoint resume) live in ``tests/chaos/``.
"""

import os
import signal
import threading
import time

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.parallel import (
    KIND_EXCEPTION,
    KIND_WORKER_LOSS,
    ExecutionPolicy,
    ProcessPoolBackend,
    SerialBackend,
    SupervisionReport,
    TaskFailure,
    TaskSupervisor,
    validate_execution,
)

FAST = dict(backoff_base_seconds=0.001, backoff_max_seconds=0.01)


def _double(x):
    return 2 * x


def _poison_three(x):
    if x == 3:
        raise ValueError("poison")
    return 2 * x


def _fail_odd(x):
    if x % 2:
        raise RuntimeError(f"odd {x}")
    return x


def _misconfigured(x):
    if x == 1:
        raise ConfigurationError("node count must be positive")
    return 2 * x


def _die(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _zero_dies_others_dawdle(x):
    # Item 0 breaks the pool while item 1 is still running and the rest
    # are queued behind it.
    if x == 0:
        time.sleep(0.2)
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.5)
    return 2 * x


def _sleep(x):
    time.sleep(x)
    return x


class TestExecutionPolicy:
    def test_defaults_are_valid(self):
        policy = ExecutionPolicy()
        assert policy.max_attempts == 3
        assert policy.timeout_seconds is None
        assert policy.on_failure == "quarantine"

    @pytest.mark.parametrize("bad", [
        dict(max_attempts=0),
        dict(max_attempts=True),
        dict(max_attempts=2.5),
        dict(timeout_seconds=0.0),
        dict(timeout_seconds=-1.0),
        dict(backoff_base_seconds=-0.1),
        dict(backoff_factor=0.5),
        dict(backoff_max_seconds=-1.0),
        dict(on_failure="explode"),
    ])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(**bad)

    def test_backoff_schedule_is_deterministic_exponential(self):
        policy = ExecutionPolicy(
            backoff_base_seconds=0.1, backoff_factor=2.0,
            backoff_max_seconds=0.35,
        )
        assert policy.backoff_seconds(0) == 0.0
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(2) == pytest.approx(0.2)
        assert policy.backoff_seconds(3) == pytest.approx(0.35)  # capped
        assert policy.backoff_seconds(9) == pytest.approx(0.35)
        # Pure: same input, same wait, every time.
        assert policy.backoff_seconds(2) == policy.backoff_seconds(2)

    def test_describe_mentions_every_knob(self):
        text = ExecutionPolicy(timeout_seconds=30.0).describe()
        assert "3 attempt(s)" in text
        assert "30s timeout" in text
        assert "quarantine" in text

    def test_validate_execution(self):
        policy = ExecutionPolicy()
        assert validate_execution(policy) is policy
        assert validate_execution(None) is None
        with pytest.raises(ConfigurationError):
            validate_execution("retry-hard")


class TestSupervisionReport:
    def test_ok_and_raise(self):
        report = SupervisionReport(results=[1, 2])
        assert report.ok
        report.raise_if_failed()  # no-op

    def test_raise_if_failed_is_structured(self):
        failure = TaskFailure(
            index=0, item="x", kind=KIND_EXCEPTION, attempts=2,
            error_type="ValueError", message="poison",
        )
        report = SupervisionReport(results=[None], failures=(failure,))
        with pytest.raises(ExecutionError) as err:
            report.raise_if_failed("my map")
        assert err.value.failures == (failure,)
        assert "my map" in str(err.value)
        assert "quarantined" in str(err.value)


class TestSupervisorValidation:
    def test_rejects_non_policy(self):
        with pytest.raises(ConfigurationError):
            TaskSupervisor(SerialBackend(), policy="always")

    def test_default_policy(self):
        assert TaskSupervisor(SerialBackend()).policy == ExecutionPolicy()

    def test_empty_items_short_circuit(self):
        with ProcessPoolBackend(2) as backend:
            report = TaskSupervisor(backend).run(_double, [])
            assert report.results == [] and report.ok
            assert backend._executor is None  # never spawned


class TestSerialSupervision:
    def test_clean_map_matches_backend(self):
        supervisor = TaskSupervisor(SerialBackend(), ExecutionPolicy(**FAST))
        assert supervisor.map(_double, [3, 1, 2]) == [6, 2, 4]

    def test_retries_then_quarantines(self):
        supervisor = TaskSupervisor(
            SerialBackend(), ExecutionPolicy(max_attempts=2, **FAST)
        )
        report = supervisor.run(_fail_odd, [0, 1, 2, 3])
        assert report.results == [0, None, 2, None]
        assert [f.index for f in report.failures] == [1, 3]
        assert all(f.attempts == 2 for f in report.failures)
        assert report.retries == 2  # one retry per failing item
        assert report.backoff_waits == (
            supervisor.policy.backoff_seconds(1),
        ) * 2

    def test_configuration_error_quarantines_on_first_attempt(self):
        supervisor = TaskSupervisor(SerialBackend(), ExecutionPolicy(**FAST))
        report = supervisor.run(_misconfigured, [0, 1, 2])
        assert report.results == [0, None, 4]
        assert [f.index for f in report.failures] == [1]
        assert report.failures[0].attempts == 1
        assert report.failures[0].error_type == "ConfigurationError"
        assert report.attempts == 3
        assert report.retries == 0 and report.backoff_waits == ()

    def test_abort_stops_at_first_exhausted_item(self):
        supervisor = TaskSupervisor(
            SerialBackend(),
            ExecutionPolicy(max_attempts=1, on_failure="abort", **FAST),
        )
        report = supervisor.run(_fail_odd, [0, 1, 2])
        assert report.aborted and not report.ok
        assert [f.index for f in report.failures] == [1]
        assert report.results == [0, None, None]  # 2 never ran

    def test_on_result_fires_in_order_serially(self):
        seen = []
        supervisor = TaskSupervisor(SerialBackend(), ExecutionPolicy(**FAST))
        supervisor.run(_double, [5, 6], on_result=lambda i, r: seen.append((i, r)))
        assert seen == [(0, 10), (1, 12)]

    def test_map_raises_execution_error(self):
        supervisor = TaskSupervisor(
            SerialBackend(), ExecutionPolicy(max_attempts=1, **FAST)
        )
        with pytest.raises(ExecutionError):
            supervisor.map(_fail_odd, [1])

    def test_cancel_stops_before_the_next_item(self):
        supervisor = TaskSupervisor(SerialBackend(), ExecutionPolicy(**FAST))
        seen = []

        def cancel_after_first(index, result):
            seen.append(result)
            supervisor.cancel()

        with pytest.raises(ExecutionError, match="cancelled"):
            supervisor.run(_double, [1, 2, 3], on_result=cancel_after_first)
        assert seen == [2]


class TestPooledSupervision:
    def test_clean_map_is_ordered_and_charged_once(self):
        with ProcessPoolBackend(2) as backend:
            report = TaskSupervisor(backend, ExecutionPolicy(**FAST)).run(
                _double, list(range(12))
            )
        assert report.results == [2 * i for i in range(12)]
        assert report.ok
        assert report.attempts == 12
        assert report.retries == report.timeouts == report.worker_losses == 0
        assert report.pool_rebuilds == 0

    def test_single_poison_item_costs_exactly_one_item(self):
        # The chunking-blast-radius regression (ISSUE 9 satellite 1):
        # under chunked Executor.map one raising item discarded its whole
        # chunk; per-item supervised submission must lose only itself.
        with ProcessPoolBackend(2) as backend:
            supervisor = TaskSupervisor(
                backend, ExecutionPolicy(max_attempts=1, **FAST)
            )
            report = supervisor.run(_poison_three, list(range(10)))
        expected = [2 * i for i in range(10)]
        expected[3] = None
        assert report.results == expected
        assert [f.index for f in report.failures] == [3]
        assert report.failures[0].kind == KIND_EXCEPTION
        assert report.failures[0].error_type == "ValueError"

    def test_configuration_error_quarantines_on_first_attempt(self):
        with ProcessPoolBackend(2) as backend:
            report = TaskSupervisor(backend, ExecutionPolicy(**FAST)).run(
                _misconfigured, [0, 1, 2]
            )
        assert report.results == [0, None, 4]
        assert [f.index for f in report.failures] == [1]
        assert report.failures[0].kind == KIND_EXCEPTION
        assert report.failures[0].attempts == 1
        assert report.failures[0].error_type == "ConfigurationError"
        assert report.attempts == 3
        assert report.retries == 0 and report.backoff_waits == ()

    def test_chunked_map_blast_radius_is_why_supervision_exists(self):
        # Contrast pin: the raw chunked map loses the whole call.
        with ProcessPoolBackend(2) as backend:
            with pytest.raises(ValueError):
                backend.map(_poison_three, list(range(10)))

    def test_worker_death_converges_to_quarantine(self):
        # An item that always kills its worker must exhaust its attempt
        # budget (each pool break charges it), not respawn pools forever.
        with ProcessPoolBackend(2) as backend:
            supervisor = TaskSupervisor(
                backend, ExecutionPolicy(max_attempts=2, **FAST)
            )
            report = supervisor.run(_die, [0])
        assert not report.ok
        assert report.failures[0].kind == KIND_WORKER_LOSS
        assert report.failures[0].attempts == 2
        assert report.pool_rebuilds >= 2
        assert report.worker_losses >= 2

    def test_a_break_is_charged_only_to_the_item_that_caused_it(self):
        # With one attempt each, charging every in-flight item for the
        # break would quarantine items 1-3 alongside the killer.
        with ProcessPoolBackend(2) as backend:
            supervisor = TaskSupervisor(
                backend, ExecutionPolicy(max_attempts=1, **FAST)
            )
            report = supervisor.run(_zero_dies_others_dawdle, [0, 1, 2, 3])
        assert report.results == [None, 2, 4, 6]
        assert [f.index for f in report.failures] == [0]
        assert report.failures[0].kind == KIND_WORKER_LOSS
        assert report.worker_losses == 1  # the isolated re-run's break
        assert report.pool_rebuilds == 2  # the shared break, then that one

    def test_cancel_kills_the_pool_and_ends_the_run(self):
        backend = ProcessPoolBackend(2)
        supervisor = TaskSupervisor(backend, ExecutionPolicy(**FAST))
        outcome = {}

        def run():
            try:
                supervisor.run(_sleep, [30.0, 30.0])
            except ExecutionError as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 30
        while len(backend.worker_pids()) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        started = time.monotonic()
        supervisor.cancel()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert time.monotonic() - started < 5.0
        assert "cancelled" in str(outcome["error"])
        assert backend._executor is None  # nothing respawned
        with pytest.raises(ExecutionError, match="cancelled"):
            supervisor.run(_double, [1])
        backend.shutdown()

    def test_on_result_receives_original_indices(self):
        seen = {}
        with ProcessPoolBackend(2) as backend:
            TaskSupervisor(backend, ExecutionPolicy(**FAST)).run(
                _double, [7, 8, 9], on_result=seen.__setitem__
            )
        assert seen == {0: 14, 1: 16, 2: 18}

    def test_results_bit_identical_to_serial(self):
        items = list(range(16))
        serial = [_double(item) for item in items]
        with ProcessPoolBackend(3) as backend:
            supervised = TaskSupervisor(backend, ExecutionPolicy(**FAST)).map(
                _double, items
            )
        assert supervised == serial


class TestBackendPrimitives:
    def test_submit_is_per_item(self):
        with ProcessPoolBackend(2) as backend:
            future = backend.submit(_double, 21)
            assert future.result(timeout=30) == 42

    def test_worker_pids_snapshot(self):
        backend = ProcessPoolBackend(2)
        assert backend.worker_pids() == ()  # lazy: nothing spawned yet
        backend.map(_double, [1])
        pids = backend.worker_pids()
        assert pids and all(isinstance(pid, int) for pid in pids)
        backend.shutdown()

    def test_rebuild_replaces_the_pool(self):
        backend = ProcessPoolBackend(2)
        backend.map(_double, [1])
        old = set(backend.worker_pids())
        backend.rebuild()
        assert backend._executor is None
        assert backend.map(_double, [2]) == [4]
        assert not (set(backend.worker_pids()) & old)
        backend.shutdown()

    def test_rebuild_before_first_use_is_a_noop(self):
        backend = ProcessPoolBackend(2)
        backend.rebuild()
        assert backend.map(_double, [3]) == [6]
        backend.shutdown()
