"""Chaos: checkpoint-resume across failed, killed, and corrupted runs.

Parallel grids persist the shared cache once per merged shard, so
whatever interrupts a sweep — a quarantined cell, a parent killed
between merges, a checkpoint file damaged on disk — the next run loads
what survived and recomputes only what did not.
"""

import json

import pytest

from repro.errors import ExecutionError
from repro.parallel import ExecutionPolicy
from repro.pipeline.cache import ResultCache

from ._faults import cell_tag, poison_cell
from .conftest import CELLS, GRID, records

POLICY = ExecutionPolicy(max_attempts=2)


def test_quarantined_cell_leaves_a_resumable_cache(
    inject, make_experiment, serial_records, tmp_path
):
    # Run 1: one cell fails every attempt; the other three cells' shards
    # land in the checkpoint before the structured error surfaces.
    poisoned = CELLS[2]
    inject(poison_cell, target=cell_tag(poisoned))
    cache_path = tmp_path / "cache.json"
    with pytest.raises(ExecutionError) as err:
        make_experiment(cache_path).run_grid(workers=2, execution=POLICY, **GRID)
    failure = err.value.failures[0]
    assert failure.item == poisoned
    assert failure.kind == "exception"
    assert "injected permanent fault" in failure.message

    checkpoint = ResultCache(cache_path)
    merged_cells = sum(
        checkpoint.contains_measurement(key)
        for key in json.loads(cache_path.read_text())["measurements"]
    )
    assert merged_cells == len(CELLS) - 1

    # Run 2 (chaos cleared by fixture teardown happens at test end, so
    # resume within the test via a serial replay): only the poisoned
    # cell is cold.
    replay = make_experiment(cache_path)
    result = replay.run_grid(workers=1, **GRID)
    assert records(result) == serial_records
    assert replay.cache.measurement_stats.misses == 1
    assert replay.cache.prediction_stats.misses == 1


def test_run_killed_between_shard_merges_resumes_incrementally(
    make_experiment, serial_records, tmp_path
):
    # Simulate "killed between merges" exactly: a checkpoint holding a
    # strict prefix of the shards.  Build it by running a sub-grid, then
    # resume the full grid and count what was recomputed.
    cache_path = tmp_path / "cache.json"
    partial = make_experiment(cache_path)
    sub_grid = dict(GRID, nodes=(2,))  # half the cells, then "killed"
    partial.run_grid(workers=2, execution=POLICY, **sub_grid)
    assert cache_path.exists()

    resumed = make_experiment(cache_path)
    result = resumed.run_grid(workers=2, execution=POLICY, **GRID)
    assert records(result) == serial_records
    # The pre-split saw the first half warm: no recomputation for it.
    # (contains_* peeks are counter-free, so count via a serial replay.)
    final = make_experiment(cache_path)
    assert records(final.run_grid(workers=1, **GRID)) == serial_records
    assert final.cache.measurement_stats.misses == 0
    assert final.cache.prediction_stats.misses == 0


def test_truncated_checkpoint_degrades_to_recompute(
    make_experiment, serial_records, tmp_path
):
    # Damage the checkpoint *between* runs — the on-disk analogue of a
    # crash racing the final shard merge.  The resume warns, starts
    # empty, recomputes, and still matches the baseline bit-for-bit.
    cache_path = tmp_path / "cache.json"
    make_experiment(cache_path).run_grid(workers=2, execution=POLICY, **GRID)
    text = cache_path.read_text()
    cache_path.write_text(text[: len(text) // 3])

    with pytest.warns(UserWarning, match="unreadable"):
        resumed = make_experiment(cache_path)
    result = resumed.run_grid(workers=2, execution=POLICY, **GRID)
    assert records(result) == serial_records
    # The recomputed checkpoint is whole again.
    assert records(
        make_experiment(cache_path).run_grid(workers=1, **GRID)
    ) == serial_records


def test_corrupt_shard_entries_recompute_only_themselves(
    make_experiment, serial_records, tmp_path
):
    # Corrupt a single cell's entries inside an otherwise valid
    # checkpoint: the resume must warn, keep every healthy entry, and
    # recompute exactly the damaged cell.
    cache_path = tmp_path / "cache.json"
    make_experiment(cache_path).run_grid(workers=2, execution=POLICY, **GRID)

    data = json.loads(cache_path.read_text())
    victim = next(iter(data["measurements"]))
    data["measurements"][victim] = {"schema": "wrong"}
    cache_path.write_text(json.dumps(data))

    with pytest.warns(UserWarning, match="skipping corrupt measurements"):
        resumed = make_experiment(cache_path)
    result = resumed.run_grid(workers=2, execution=POLICY, **GRID)
    assert records(result) == serial_records
