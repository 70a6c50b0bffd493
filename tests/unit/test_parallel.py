"""Unit tests for the execution backends (:mod:`repro.parallel`)."""

import pytest

from repro.errors import ConfigurationError
from repro.parallel import (
    AUTO_WORKERS,
    ProcessPoolBackend,
    SerialBackend,
    TaskSupervisor,
    available_cpus,
    resolve_backend,
)


def _double(x):
    return 2 * x


_INIT_CALLS = []


def _record_init(tag):
    _INIT_CALLS.append(tag)


def _touch_init(path):
    # Picklable initializer for pool workers: append one line per call.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("init\n")


def _init_count(path):
    if not path.exists():
        return 0
    return len(path.read_text(encoding="utf-8").splitlines())


class TestResolveBackend:
    def test_none_and_one_resolve_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend(1), SerialBackend)

    def test_explicit_count_resolves_process_pool(self):
        backend = resolve_backend(3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 3
        backend.shutdown()

    def test_auto_sizes_to_available_cpus(self):
        backend = resolve_backend(AUTO_WORKERS)
        cpus = available_cpus()
        if cpus == 1:
            assert isinstance(backend, SerialBackend)
        else:
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.workers == cpus
        backend.shutdown()

    def test_negative_and_non_int_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend(-1)
        with pytest.raises(ConfigurationError):
            resolve_backend("four")
        with pytest.raises(ConfigurationError):
            resolve_backend(True)

    def test_auto_worker_count_is_the_single_sizing_source(self, monkeypatch):
        # Regression guard for the auto-sizing seam: resolve_backend's
        # workers=0 path reads available_cpus(), so faking the affinity
        # changes the pool it builds.
        import repro.parallel.backends as backends

        monkeypatch.setattr(backends, "available_cpus", lambda: 3)
        backend = resolve_backend(AUTO_WORKERS)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 3
        backend.shutdown()

        monkeypatch.setattr(backends, "available_cpus", lambda: 1)
        assert isinstance(resolve_backend(AUTO_WORKERS), SerialBackend)


class TestSerialBackend:
    def test_initializer_runs_once_before_first_item(self):
        _INIT_CALLS.clear()
        backend = SerialBackend(_record_init, ("tag",))
        assert TaskSupervisor(backend).map(_double, []) == []
        assert _INIT_CALLS == []  # nothing submitted: no init
        backend.submit(_double, 1)
        backend.submit(_double, 2)
        assert _INIT_CALLS == ["tag"]

    def test_context_manager(self):
        with SerialBackend() as backend:
            assert backend.submit(_double, 5).result() == 10

    def test_submit_returns_a_settled_future(self):
        # The item (and, once, the lazy initializer) has run by the time
        # submit returns; a raised exception is stored, not thrown.
        _INIT_CALLS.clear()
        backend = SerialBackend(_record_init, ("submit",))
        future = backend.submit(_double, 21)
        assert future.done() and future.result() == 42
        failed = backend.submit(_double, None)
        assert failed.done() and isinstance(failed.exception(), TypeError)
        assert _INIT_CALLS == ["submit"]

    def test_shutdown_then_reuse_reruns_initializer(self):
        # Parity with ProcessPoolBackend: after shutdown, a reused
        # backend behaves like a fresh pool and re-runs its initializer.
        _INIT_CALLS.clear()
        backend = SerialBackend(_record_init, ("again",))
        backend.submit(_double, 1)
        backend.shutdown()
        backend.submit(_double, 2)
        assert _INIT_CALLS == ["again", "again"]


class TestProcessPoolBackend:
    def test_empty_map_never_spawns(self):
        backend = ProcessPoolBackend(2)
        assert TaskSupervisor(backend).map(_double, []) == []
        assert backend._executor is None  # lazily constructed
        backend.shutdown()

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(0)

    def test_shutdown_is_idempotent(self):
        backend = ProcessPoolBackend(2)
        backend.submit(_double, 1).result(timeout=30)
        backend.shutdown()
        backend.shutdown()


class TestInitializerParity:
    """Both backends defer the initializer past empty maps."""

    def test_serial_empty_then_nonempty_sequence(self, tmp_path):
        marker = tmp_path / "serial.log"
        backend = SerialBackend(_touch_init, (str(marker),))
        supervisor = TaskSupervisor(backend)
        supervisor.map(_double, [])
        assert _init_count(marker) == 0
        supervisor.map(_double, [1])
        supervisor.map(_double, [2])
        assert _init_count(marker) == 1

    def test_pool_empty_then_nonempty_sequence(self, tmp_path):
        marker = tmp_path / "pool.log"
        with ProcessPoolBackend(2, _touch_init, (str(marker),)) as backend:
            supervisor = TaskSupervisor(backend)
            supervisor.map(_double, [])
            assert _init_count(marker) == 0  # pool never spawned
            assert supervisor.map(_double, [1, 2]) == [2, 4]
        # Spawned once: at most one init per worker, at least one total.
        assert 1 <= _init_count(marker) <= 2


def test_available_cpus_is_positive():
    assert available_cpus() >= 1
