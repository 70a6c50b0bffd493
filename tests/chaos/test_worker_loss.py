"""Chaos: workers SIGKILLed mid-grid must not change the records.

The supervisor's worker-loss path — detect ``BrokenProcessPool``,
rebuild the pool, resubmit only the in-flight cells — is invisible at
the API: ``run_grid`` still returns records bit-identical to the clean
serial sweep.
"""

from repro.parallel import ExecutionPolicy

from ._faults import cell_tag, kill_once_cell, poison_cell
from .conftest import CELLS, GRID, records

POLICY = ExecutionPolicy(max_attempts=4)


def test_sigkilled_worker_recovers_bit_identical(
    inject, make_experiment, serial_records
):
    inject(kill_once_cell, target=cell_tag(CELLS[0]))
    experiment = make_experiment()
    result = experiment.run_grid(workers=2, execution=POLICY, **GRID)
    assert records(result) == serial_records


def test_every_cell_killed_once_still_recovers(
    inject, make_experiment, serial_records
):
    # The worst clean-recoverable storm: each cell's first attempt dies.
    # Each death breaks the whole pool, so innocent in-flight cells are
    # resubmitted too — and the sweep still converges to the baseline.
    inject(kill_once_cell, target="*")
    experiment = make_experiment()
    result = experiment.run_grid(workers=2, execution=POLICY, **GRID)
    assert records(result) == serial_records


def test_survivor_shards_are_checkpointed_despite_poison(
    inject, make_experiment, tmp_path
):
    # A permanently failing cell quarantines, but every surviving cell's
    # shard must already be merged and persisted before the error
    # surfaces — that is what makes the failure resumable (covered in
    # test_resume.py); here we pin that healthy cells are unaffected.
    import pytest

    from repro.errors import ExecutionError

    inject(poison_cell, target=cell_tag(CELLS[1]))
    cache_path = tmp_path / "cache.json"
    experiment = make_experiment(cache_path)
    with pytest.raises(ExecutionError) as err:
        experiment.run_grid(workers=2, execution=POLICY, **GRID)
    assert len(err.value.failures) == 1
    assert err.value.failures[0].attempts == POLICY.max_attempts
    assert cache_path.exists()  # survivors checkpointed incrementally
