"""Chaos: hung and transiently failing cells retry to the clean result.

A hang is the nastiest fault: the worker is alive but will never
finish, so only the supervisor's per-item wall-clock deadline can
reclaim it (by killing the pool and resubmitting).  Transient
exceptions exercise the retry/backoff path without touching the pool.
"""

import time

from repro.parallel import ExecutionPolicy, backoff_seconds

from ._faults import cell_tag, flaky_cell, hang_once_cell
from .conftest import CELLS, GRID, records

#: Injected hang length — also the suite's worst-case stall if the
#: timeout machinery ever breaks, so keep it finite but unambiguous.
HANG_SECONDS = 20.0


def test_hung_task_trips_timeout_and_retries(
    inject, make_experiment, serial_records
):
    inject(hang_once_cell, target=cell_tag(CELLS[0]), hang_seconds=HANG_SECONDS)
    policy = ExecutionPolicy(max_attempts=3, timeout_seconds=1.5)
    experiment = make_experiment()
    start = time.monotonic()
    result = experiment.run_grid(workers=2, execution=policy, **GRID)
    elapsed = time.monotonic() - start

    assert records(result) == serial_records
    # The deadline, not the hang, bounded the run: finishing in under
    # the injected sleep proves the stuck worker was killed, its pool
    # rebuilt, and the cell's retry produced the clean record.
    assert elapsed < HANG_SECONDS


def test_transient_exceptions_retry_with_backoff(
    inject, make_experiment, serial_records
):
    # Every cell fails its first attempt; a 2-attempt budget is exactly
    # enough, so success here pins that retries are per-item (a shared
    # budget would exhaust) and that first attempts are charged once.
    inject(flaky_cell, target="*")
    policy = ExecutionPolicy(max_attempts=2)
    experiment = make_experiment()
    result = experiment.run_grid(workers=2, execution=policy, **GRID)
    assert records(result) == serial_records


def test_backoff_schedule_is_reproducible():
    # The waits the supervisor sleeps between attempts are a pure
    # function of the attempt — chaos reruns see identical schedules.
    schedule = [backoff_seconds(attempt) for attempt in range(1, 6)]
    assert schedule == [0.05, 0.1, 0.2, 0.4, 0.8]
    assert schedule == [backoff_seconds(a) for a in range(1, 6)]
