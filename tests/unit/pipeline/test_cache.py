"""Unit tests for the content-addressed result cache."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
from repro.core import Predictor, Profiler
from repro.core.serialization import report_to_dict
from repro.pipeline.cache import (
    CACHE_FORMAT_VERSION,
    CacheStats,
    ResultCache,
    mix_key,
    prediction_key,
    run_key,
)
from repro.pipeline.records import (
    measurement_to_dict,
    mix_to_dict,
    prediction_to_dict,
)
from repro.schedule.mix import MixJob, measure_mix
from repro.workloads.runner import measure_workload


class TestKeys:
    def test_run_key_separates_every_axis(self):
        base = run_key("s", "p", 3, 12)
        assert run_key("s", "p", 3, 12, run_index=1) != base
        assert run_key("s", "p", 4, 12) != base
        assert run_key("s", "p", 3, 24) != base
        assert run_key("s", "p", 3, 12, network_fp="1e9") != base
        assert run_key("s2", "p", 3, 12) != base

    def test_prediction_key_has_no_run_index(self):
        # Model evaluations are jitter-free; all runs share one entry.
        assert prediction_key("r", "p", 3, 12) == prediction_key("r", "p", 3, 12)
        assert prediction_key("r", "p", 3, 12) != prediction_key("r", "p", 3, 24)

    def test_mix_key_separates_every_axis(self):
        base = mix_key("m", "p", 3, 12)
        assert mix_key("m", "p", 3, 12, run_index=1) != base
        assert mix_key("m", "p", 4, 12) != base
        assert mix_key("m", "p", 3, 24) != base
        assert mix_key("m", "p", 3, 12, network_fp="1e9") != base
        assert mix_key("m", "p", 3, 12, fault_fp="f") != base
        assert mix_key("m2", "p", 3, 12) != base

    def test_mix_keys_disjoint_from_run_keys(self):
        # Same fingerprints and shape: the mix/ prefix keeps the two
        # namespaces apart even inside one flat section.
        assert mix_key("x", "p", 3, 12).startswith("mix/")
        assert mix_key("x", "p", 3, 12) != run_key("x", "p", 3, 12)


class TestStats:
    def test_counters(self):
        cache = ResultCache()
        assert cache.get_measurement("missing") is None
        assert cache.measurement_stats.misses == 1
        cache.put_measurement("k", object())
        assert cache.get_measurement("k") is not None
        assert cache.measurement_stats.hits == 1
        assert cache.measurement_stats.hit_rate == 0.5

    def test_mix_counters_are_separate(self):
        cache = ResultCache()
        assert cache.get_mix("missing") is None
        cache.put_mix("x", object())
        assert cache.get_mix("x") is not None
        assert cache.mix_stats.hits == 1
        assert cache.mix_stats.misses == 1
        assert cache.measurement_stats.total == 0

    def test_empty_stats(self):
        stats = CacheStats()
        assert stats.total == 0
        assert stats.hit_rate == 0.0

    def test_summary_line(self):
        cache = ResultCache()
        assert cache.stats_summary() == "cache unused"
        cache.get_prediction("nope")
        assert "model 0/1" in cache.stats_summary()

    def test_len_and_clear(self):
        cache = ResultCache()
        cache.put_measurement("a", object())
        cache.put_prediction("b", object())
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0


class TestStructuredStats:
    """The stats() dict surfaced by pipeline --json and the service."""

    def test_per_kind_counters_and_entries(self):
        cache = ResultCache()
        cache.get_measurement("miss")
        cache.put_measurement("k", object())
        cache.get_measurement("k")
        stats = cache.stats()
        assert stats["measurements"]["hits"] == 1
        assert stats["measurements"]["misses"] == 1
        assert stats["measurements"]["entries"] == 1
        assert stats["measurements"]["hit_rate"] == 0.5
        assert stats["predictions"]["hits"] == 0

    def test_aggregate_totals_span_kinds(self):
        cache = ResultCache()
        cache.get_measurement("a")  # sim miss
        cache.put_prediction("p", object())
        cache.get_prediction("p")  # model hit
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["entries"] == 1

    def test_clear_counts_evictions(self):
        cache = ResultCache()
        cache.put_measurement("a", object())
        cache.put_prediction("b", object())
        cache.clear()
        stats = cache.stats()
        assert stats["measurements"]["evictions"] == 1
        assert stats["predictions"]["evictions"] == 1
        assert stats["evictions"] == 2

    def test_summary_is_embedded(self):
        cache = ResultCache()
        stats = cache.stats()
        assert stats["summary"] == "cache unused"
        cache.put_prediction("p", object())
        cache.get_prediction("p")
        assert "100% hits" in cache.stats()["summary"]

    def test_stats_is_json_ready(self):
        cache = ResultCache()
        cache.get_mix("nope")
        json.dumps(cache.stats())  # must not raise


@pytest.fixture(scope="module")
def populated(tmp_path_factory, make_tiny):
    """A cache holding one of each product kind, saved to disk."""
    workload = make_tiny()
    cluster = make_paper_cluster(2, HYBRID_CONFIGS[0])
    measurement = measure_workload(cluster, 4, workload)
    report = Profiler(workload, nodes=2).profile()
    prediction = Predictor(report).model_for_cluster(cluster).predict(2, 4)
    mix = measure_mix(
        make_paper_cluster(2, HYBRID_CONFIGS[0]),
        4,
        [MixJob(spec=workload), MixJob(spec=make_tiny(), arrival=5.0)],
    )

    cache = ResultCache()
    cache.put_measurement("m", measurement)
    cache.put_prediction("p", prediction)
    cache.put_report("r", report)
    cache.put_mix("x", mix)
    path = tmp_path_factory.mktemp("cache") / "cache.json"
    cache.save(path)
    return cache, path


class TestPersistence:
    def test_round_trip_is_bit_identical(self, populated):
        cache, path = populated
        loaded = ResultCache(path)
        assert measurement_to_dict(
            loaded.get_measurement("m")
        ) == measurement_to_dict(cache.get_measurement("m"))
        assert prediction_to_dict(loaded.get_prediction("p")) == prediction_to_dict(
            cache.get_prediction("p")
        )
        assert report_to_dict(loaded.get_report("r")) == report_to_dict(
            cache.get_report("r")
        )
        assert mix_to_dict(loaded.get_mix("x")) == mix_to_dict(cache.get_mix("x"))

    def test_loaded_mix_is_the_measurement(self, populated):
        cache, path = populated
        loaded = ResultCache(path)
        mix = loaded.get_mix("x")
        assert mix == cache.get_mix("x")  # lossless: frozen dataclass equality
        assert [t.name for t in mix.jobs] == ["tiny", "tiny#2"]

    def test_loaded_measurement_totals_match(self, populated):
        cache, path = populated
        loaded = ResultCache(path)
        assert (
            loaded.get_measurement("m").total_seconds
            == cache.get_measurement("m").total_seconds
        )

    def test_stale_format_starts_empty(self, populated, tmp_path):
        _, path = populated
        data = json.loads(path.read_text())
        data["format_version"] = CACHE_FORMAT_VERSION + 1
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(data))
        assert len(ResultCache(stale)) == 0

    def test_save_requires_a_path(self):
        with pytest.raises(ValueError):
            ResultCache().save()

    def test_missing_file_is_fine(self, tmp_path):
        cache = ResultCache(tmp_path / "does-not-exist.json")
        assert len(cache) == 0
        cache.put_measurement("k", object())

    def test_save_leaves_no_temp_file(self, populated, tmp_path):
        cache, _ = populated
        target = tmp_path / "clean.json"
        cache.save(target)
        assert [p.name for p in tmp_path.iterdir()] == ["clean.json"]

    def test_squatted_temp_path_does_not_stop_a_save(self, populated, tmp_path):
        # Another writer's leftover (here a directory) on the old fixed
        # `<name>.tmp` path: each save writes a temp file of its own.
        cache, _ = populated
        target = tmp_path / "squatted.json"
        (tmp_path / "squatted.json.tmp").mkdir()
        cache.save(target)
        assert ResultCache(target).get_measurement("m") is not None

    def test_failed_save_removes_its_temp_file(
        self, populated, tmp_path, monkeypatch
    ):
        cache, _ = populated

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.pipeline.cache.os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            cache.save(tmp_path / "never.json")
        assert list(tmp_path.iterdir()) == []


class TestCheckpoint:
    """``checkpoint`` saves a file-backed cache only when it holds news."""

    @pytest.fixture()
    def saves(self, monkeypatch):
        calls = []
        save = ResultCache.save

        def counted_save(self, *args):
            calls.append(self.path)
            return save(self, *args)

        monkeypatch.setattr(ResultCache, "save", counted_save)
        return calls

    def test_an_in_memory_cache_never_saves(self, saves):
        cache = ResultCache()
        cache.put_measurement("m", object())
        assert cache.checkpoint() is False
        assert saves == []

    def test_saves_new_entries_once(self, populated, tmp_path, saves):
        _, path = populated
        cache = ResultCache(tmp_path / "cache.json")
        assert cache.checkpoint() is False  # nothing to persist yet
        cache.merge_shard(ResultCache(path).export_shard())
        assert cache.checkpoint() is True
        assert cache.checkpoint() is False  # nothing new since the save
        assert len(ResultCache(cache.path)) == 4
        assert saves == [cache.path]

    def test_a_loaded_file_is_not_news(self, populated, saves):
        _, path = populated
        cache = ResultCache(path)
        assert cache.get_measurement("m") is not None
        assert cache.checkpoint() is False
        assert saves == []

    def test_a_merge_that_adds_nothing_does_not_save(self, populated, saves):
        _, path = populated
        cache = ResultCache(path)
        assert cache.merge_shard(ResultCache(path).export_shard()) == 0
        assert cache.checkpoint() is False
        assert saves == []

    def test_saving_elsewhere_leaves_the_news_unsaved(
        self, populated, tmp_path, saves
    ):
        _, path = populated
        cache = ResultCache(tmp_path / "cache.json")
        cache.merge_shard(ResultCache(path).export_shard())
        cache.save(tmp_path / "copy.json")
        assert cache.checkpoint() is True
        assert cache.path.exists()


class TestShards:
    """Worker-shard export/merge and counter-free peeks."""

    def test_contains_does_not_touch_counters(self):
        cache = ResultCache()
        cache.put_measurement("m", object())
        assert cache.contains_measurement("m")
        assert not cache.contains_measurement("missing")
        assert not cache.contains_prediction("m")
        assert cache.measurement_stats.total == 0
        assert cache.prediction_stats.total == 0

    def test_export_merge_round_trip(self):
        worker, parent = ResultCache(), ResultCache()
        marker = object()
        worker.put_measurement("m", marker)
        worker.put_prediction("p", object())
        worker.put_mix("x", object())
        shard = worker.export_shard()
        assert ResultCache.shard_keys(shard) == {
            "measurements:m",
            "predictions:p",
            "mixes:x",
        }
        assert parent.merge_shard(shard) == 3
        assert parent.get_measurement("m") is marker
        assert ResultCache.shard_keys(parent.export_shard()) == (
            ResultCache.shard_keys(shard)
        )

    def test_export_excludes_already_shipped_keys(self):
        worker = ResultCache()
        worker.put_measurement("a", object())
        first = worker.export_shard()
        worker.put_measurement("b", object())
        second = worker.export_shard(exclude=ResultCache.shard_keys(first))
        assert ResultCache.shard_keys(second) == {"measurements:b"}

    def test_merge_first_writer_wins(self):
        parent = ResultCache()
        resident = object()
        parent.put_prediction("p", resident)
        assert parent.merge_shard({"predictions": {"p": object()}}) == 0
        assert parent.get_prediction("p") is resident


class TestConcurrentWriters:
    """Two processes sharing one cache file must never corrupt it.

    Saves are atomic (tmp + ``os.replace``) and keys are
    content-addressed, so however two writers' saves interleave the file
    is always one writer's complete, valid snapshot; entries unique to
    the overwritten snapshot are merely recomputed next time.  This test
    simulates the worst interleaving in-process: both writers load the
    same state, both add entries, both save.
    """

    def test_interleaved_saves_leave_a_valid_store(self, populated, tmp_path):
        cache, _ = populated
        shared = tmp_path / "shared.json"
        cache.save(shared)

        writer_a = ResultCache(shared)
        writer_b = ResultCache(shared)  # loads the same snapshot
        writer_a.put_measurement("only-a", cache.get_measurement("m"))
        writer_b.put_prediction("only-b", cache.get_prediction("p"))
        writer_a.save()
        writer_b.save()  # last writer wins; clobbers "only-a"

        final = ResultCache(shared)
        # Never torn: the file parses and the shared entries survive.
        assert json.loads(shared.read_text())["format_version"] == (
            CACHE_FORMAT_VERSION
        )
        assert final.get_measurement("m") is not None
        assert final.get_prediction("p") is not None
        assert final.get_prediction("only-b") is not None
        # The loser's unique entry is gone — recomputable, not corrupting.
        assert final.get_measurement("only-a") is None

    def test_interleaved_saves_commute_for_shared_entries(self, populated, tmp_path):
        # Content-addressed keys mean both writers serialize identical
        # bytes for every shared entry, so writer order is invisible.
        cache, _ = populated
        ab, ba = tmp_path / "ab.json", tmp_path / "ba.json"
        cache.save(ab)
        cache.save(ba)
        first, second = ResultCache(ab), ResultCache(ba)
        first.save()
        second.save()
        second.save(ab)  # reversed finishing order onto the other path
        first.save(ba)
        assert ab.read_text() == ba.read_text()


class TestShardRecovery:
    """Damage between incremental shard checkpoints degrades to recompute.

    Parallel grids checkpoint once per merged worker shard (see
    ``Experiment._run_grid_parallel``), so these pin the recovery
    contract at shard granularity: whatever happened to the last
    checkpoint, the next run loads what it can, warns about the rest,
    and recomputes only the missing cells.
    """

    def _shards(self, populated):
        cache, _ = populated
        first, second = ResultCache(), ResultCache()
        first.put_measurement("cell-0", cache.get_measurement("m"))
        first.put_prediction("cell-0", cache.get_prediction("p"))
        second.put_measurement("cell-1", cache.get_measurement("m"))
        return first.export_shard(), second.export_shard()

    def test_truncated_shard_checkpoint_recovers_by_recompute(
        self, populated, tmp_path
    ):
        # Run 1 merges shard A, checkpoints, and is killed; something
        # (disk full, manual edit) truncates the checkpoint.  Run 2 must
        # warn, start empty, and be able to re-merge every shard.
        shard_a, shard_b = self._shards(populated)
        checkpoint = tmp_path / "checkpoint.json"
        parent = ResultCache(checkpoint)
        parent.merge_shard(shard_a)
        parent.save()
        text = checkpoint.read_text()
        checkpoint.write_text(text[: len(text) // 2])

        with pytest.warns(UserWarning, match="unreadable"):
            resumed = ResultCache(checkpoint)
        assert len(resumed) == 0  # nothing trusted from the torn file
        assert resumed.merge_shard(shard_a) == 2
        assert resumed.merge_shard(shard_b) == 1
        resumed.save()
        reloaded = ResultCache(checkpoint)
        assert reloaded.contains_measurement("cell-0")
        assert reloaded.contains_measurement("cell-1")

    def test_deeply_nested_file_takes_the_corrupt_file_path(self, tmp_path):
        # JSON the parser cannot recurse through is as unreadable as a
        # torn file: warn and start empty, never raise RecursionError.
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text("[" * 30000 + "]" * 30000)
        with pytest.warns(UserWarning, match="unreadable"):
            resumed = ResultCache(checkpoint)
        assert len(resumed) == 0

    def test_integer_past_the_digit_limit_takes_the_corrupt_file_path(
        self, tmp_path
    ):
        # json.loads raises a bare ValueError (not a JSONDecodeError) for
        # an integer literal of more than 4,300 digits.
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text('{"x": %s}' % ("1" * 5000))
        with pytest.warns(UserWarning, match="unreadable"):
            resumed = ResultCache(checkpoint)
        assert len(resumed) == 0

    def test_wrong_schema_shard_entries_skipped_on_reload(
        self, populated, tmp_path
    ):
        # A checkpoint whose shard-A entries are valid JSON but not our
        # schema (e.g. written by a different tool) loses only those
        # entries; shard B's survive the reload untouched.
        shard_a, shard_b = self._shards(populated)
        checkpoint = tmp_path / "mixed.json"
        parent = ResultCache(checkpoint)
        parent.merge_shard(shard_a)
        parent.merge_shard(shard_b)
        parent.save()

        data = json.loads(checkpoint.read_text())
        data["measurements"]["cell-0"] = {"schema": "not-ours", "value": 7}
        data["predictions"]["cell-0"] = ["also", "wrong"]
        checkpoint.write_text(json.dumps(data))

        with pytest.warns(UserWarning) as caught:
            resumed = ResultCache(checkpoint)
        messages = [str(w.message) for w in caught]
        assert any("skipping corrupt measurements" in m for m in messages)
        assert any("skipping corrupt predictions" in m for m in messages)
        assert not resumed.contains_measurement("cell-0")
        assert resumed.contains_measurement("cell-1")  # shard B intact
        # The skipped cells look cold and get recomputed via merge.
        assert resumed.merge_shard(shard_a) == 2

    def test_interleaved_two_writer_merge_commutes(self, populated, tmp_path):
        # Two supervised runs sharing a checkpoint merge their shards in
        # opposite orders; first-writer-wins on content-addressed keys
        # makes the surviving file identical either way.
        shard_a, shard_b = self._shards(populated)
        ab, ba = tmp_path / "ab.json", tmp_path / "ba.json"

        writer = ResultCache(ab)
        writer.merge_shard(shard_a)
        writer.save()  # checkpoint between merges
        writer.merge_shard(shard_b)
        writer.save()

        other = ResultCache(ba)
        other.merge_shard(shard_b)
        other.save()
        assert other.merge_shard(shard_b) == 0  # replayed shard is a no-op
        other.merge_shard(shard_a)
        other.save()

        # Key insertion order tracks merge order, so compare the parsed
        # stores: same entries, same serialized values, either way round.
        assert json.loads(ab.read_text()) == json.loads(ba.read_text())
        final = ResultCache(ab)
        assert final.contains_measurement("cell-0")
        assert final.contains_prediction("cell-0")
        assert final.contains_measurement("cell-1")

    def test_concurrent_readers_never_observe_a_torn_snapshot(
        self, populated, tmp_path
    ):
        # The multi-reader contract the query service leans on: while
        # one process keeps merging shards and checkpointing, any other
        # process may load the file at any instant and must see a
        # complete, well-formed snapshot — never a half-written one.
        # Readers run with -W error::UserWarning so the "unreadable" /
        # "corrupt" degradation paths count as failures here.
        shard_a, shard_b = self._shards(populated)
        checkpoint = tmp_path / "shared.json"
        writer = ResultCache(checkpoint)
        writer.merge_shard(shard_a)
        writer.save()

        src = Path(__file__).resolve().parents[3] / "src"
        reader_script = (
            "import sys, time\n"
            "from repro.pipeline.cache import ResultCache\n"
            "path = sys.argv[1]\n"
            "deadline = time.monotonic() + 30.0\n"
            "while time.monotonic() < deadline:\n"
            "    cache = ResultCache(path)  # warns -> -W error -> exit 1\n"
            "    assert len(cache) >= 2  # at least shard A, fully formed\n"
            "    if cache.contains_measurement('cell-1'):\n"
            "        sys.exit(0)  # observed the merged shard B snapshot\n"
            "sys.exit(1)\n"
        )
        readers = [
            subprocess.Popen(
                [sys.executable, "-W", "error::UserWarning", "-c",
                 reader_script, str(checkpoint)],
                env={"PYTHONPATH": str(src)},
            )
            for _ in range(2)
        ]
        try:
            # Keep rewriting the checkpoint while the readers load it;
            # merge shard B partway through so they have a terminal state
            # to wait for.
            for round_index in range(60):
                if round_index == 20:
                    writer.merge_shard(shard_b)
                writer.save()
                if all(r.poll() is not None for r in readers):
                    break
            exit_codes = [r.wait(timeout=60) for r in readers]
        finally:
            for r in readers:
                if r.poll() is None:
                    r.kill()
        assert exit_codes == [0, 0]


class TestCorruption:
    """A damaged cache file degrades to recomputation, never to a crash."""

    def test_truncated_file_warns_and_starts_empty(self, populated, tmp_path):
        # The regression this guards: a non-atomic writer killed mid-save
        # used to leave half a JSON file that crashed the next sweep.
        _, path = populated
        text = path.read_text()
        broken = tmp_path / "truncated.json"
        broken.write_text(text[: len(text) // 2])
        with pytest.warns(UserWarning, match="unreadable"):
            cache = ResultCache(broken)
        assert len(cache) == 0

    def test_non_object_file_warns_and_starts_empty(self, tmp_path):
        broken = tmp_path / "list.json"
        broken.write_text("[1, 2, 3]")
        with pytest.warns(UserWarning, match="not a JSON object"):
            assert len(ResultCache(broken)) == 0

    def test_corrupt_entry_is_skipped_but_the_rest_load(self, populated, tmp_path):
        _, path = populated
        data = json.loads(path.read_text())
        data["measurements"]["m"] = {"stages": "not-a-list"}
        damaged = tmp_path / "damaged.json"
        damaged.write_text(json.dumps(data))
        with pytest.warns(UserWarning, match="skipping corrupt measurements"):
            cache = ResultCache(damaged)
        assert cache.get_measurement("m") is None
        assert cache.get_prediction("p") is not None
        assert cache.get_report("r") is not None

    def test_report_with_a_non_finite_float_is_skipped(self, populated, tmp_path):
        _, path = populated
        data = json.loads(path.read_text())
        data["reports"]["r"]["stages"][0]["t_avg"] = float("nan")
        damaged = tmp_path / "nan-report.json"
        damaged.write_text(json.dumps(data))
        with pytest.warns(UserWarning, match="skipping corrupt reports"):
            cache = ResultCache(damaged)
        assert cache.get_report("r") is None
        assert cache.get_measurement("m") is not None

    def test_malformed_section_is_skipped(self, populated, tmp_path):
        _, path = populated
        data = json.loads(path.read_text())
        data["predictions"] = 42
        damaged = tmp_path / "section.json"
        damaged.write_text(json.dumps(data))
        with pytest.warns(UserWarning, match="'predictions' is malformed"):
            cache = ResultCache(damaged)
        assert cache.get_prediction("p") is None
        assert cache.get_measurement("m") is not None

    def test_failed_replace_leaves_the_previous_file_intact(
        self, populated, tmp_path, monkeypatch
    ):
        import repro.pipeline.cache as cache_module

        cache, _ = populated
        target = tmp_path / "atomic.json"
        cache.save(target)
        before = target.read_text()

        def exploding_replace(src, dst):
            raise OSError("simulated crash mid-save")

        monkeypatch.setattr(cache_module.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            cache.save(target)
        assert target.read_text() == before
