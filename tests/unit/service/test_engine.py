"""QueryEngine: tiered reads, single-flight, admission, identity.

The acceptance contracts from the service PR:

- N identical concurrent queries trigger exactly one evaluation;
- service answers are bit-identical to the equivalent library calls
  (``CostOptimizer.evaluate`` / ``Experiment.measure`` /
  ``CostOptimizer.grid_search``);
- the persistent tier is the pipeline's own cache, under the pipeline's
  own keys, in both directions;
- past the simulation admission cap, queries are rejected with a
  structured :class:`AdmissionError`, not queued without bound;
- optimize queries never queue behind the compute worker, and the
  worker outlives a failed checkpoint save.
"""

import asyncio
import threading

import pytest

import repro.service.engine as engine_module
from repro.cli import WORKLOADS
from repro.cloud.optimizer import CostOptimizer
from repro.core.predictor import Predictor
from repro.errors import AdmissionError, ConfigurationError, QueryError, ServiceError
from repro.pipeline import ClusterPlatform, Experiment, ResultCache, SpecSource
from repro.service import QueryEngine

NAME = "lr-small"
SPEC = WORKLOADS[NAME]()


@pytest.fixture(scope="module")
def profiled_shard():
    """One profiling run, exported for seeding per-test caches."""
    cache = ResultCache()
    SpecSource(SPEC, profile_nodes=3).resolve(cache)
    return cache.export_shard()


def fresh_cache(profiled_shard) -> ResultCache:
    cache = ResultCache()
    cache.merge_shard(profiled_shard)
    return cache


def predict_payload(**overrides):
    payload = {
        "kind": "predict",
        "workload": NAME,
        "vcpus": 16,
        "hdfs_kind": "pd-ssd",
        "hdfs_gb": 512.0,
        "local_kind": "pd-ssd",
        "local_gb": 1024.0,
    }
    payload.update(overrides)
    return payload


def simulate_payload(slaves: int) -> dict:
    return {"kind": "simulate", "workload": NAME, "slaves": slaves, "cores": 8}


def reference_optimizer(cache, num_workers=10):
    resolved = SpecSource(SPEC, profile_nodes=3).resolve(cache)
    min_hdfs, min_local = CostOptimizer.capacity_requirements(
        SPEC, num_workers=num_workers
    )
    return CostOptimizer(
        Predictor(resolved.report),
        num_workers=num_workers,
        min_hdfs_gb=min_hdfs,
        min_local_gb=min_local,
    )


class TestConstruction:
    def test_needs_workloads(self):
        with pytest.raises(ConfigurationError, match="at least one workload"):
            QueryEngine({})

    def test_bounds_validated(self):
        with pytest.raises(ConfigurationError, match="lru_size"):
            QueryEngine({NAME: SPEC}, lru_size=0)
        with pytest.raises(ConfigurationError, match="sim_queue_cap"):
            QueryEngine({NAME: SPEC}, sim_queue_cap=0)


def count_scored(monkeypatch) -> list[int]:
    """Record the width of every ``CostOptimizer.score_candidates`` call."""
    widths: list[int] = []
    score_candidates = CostOptimizer.score_candidates

    def counting(self, configs):
        widths.append(len(configs))
        return score_candidates(self, configs)

    monkeypatch.setattr(CostOptimizer, "score_candidates", counting)
    return widths


class TestSingleFlight:
    def test_identical_concurrent_queries_evaluate_once(
        self, profiled_shard, monkeypatch
    ):
        widths = count_scored(monkeypatch)

        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=fresh_cache(profiled_shard))
            async with engine:
                payload = predict_payload()
                answers = await asyncio.gather(
                    *(engine.submit(payload) for _ in range(16))
                )
                stats = engine.stats()
                # Exactly one candidate crossed the kernel for 16 queries;
                # the other 15 waited on it or found it in the LRU.
                assert widths == [1]
                assert stats["coalesced"] + stats["lru"]["hits"] == 15
                assert all(answer == answers[0] for answer in answers)

        asyncio.run(scenario())

    def test_identical_concurrent_simulations_run_once(self, profiled_shard):
        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=fresh_cache(profiled_shard))
            async with engine:
                answers = await asyncio.gather(
                    *(engine.submit(simulate_payload(4)) for _ in range(16))
                )
                stats = engine.stats()
                assert stats["sim"]["completed"] == 1
                assert stats["coalesced"] == 15
                assert all(answer == answers[0] for answer in answers)

        asyncio.run(scenario())

    def test_lru_serves_repeats_after_completion(
        self, profiled_shard, monkeypatch
    ):
        widths = count_scored(monkeypatch)

        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=fresh_cache(profiled_shard))
            async with engine:
                first = await engine.submit(predict_payload())
                second = await engine.submit(predict_payload())
                stats = engine.stats()
                assert stats["lru"]["hits"] == 1
                assert widths == [1]  # no re-evaluation
                assert first == second

        asyncio.run(scenario())

    def test_lru_eviction_is_counted(self, profiled_shard):
        async def scenario():
            engine = QueryEngine(
                {NAME: SPEC}, cache=fresh_cache(profiled_shard), lru_size=2
            )
            async with engine:
                for vcpus in (4, 8, 16):
                    await engine.submit(predict_payload(vcpus=vcpus))
                stats = engine.stats()
                assert stats["lru"]["size"] == 2
                assert stats["lru"]["evictions"] == 1

        asyncio.run(scenario())


class TestPredictIdentity:
    def test_bit_identical_to_scalar_evaluate(self, profiled_shard):
        async def scenario():
            cache = fresh_cache(profiled_shard)
            engine = QueryEngine({NAME: SPEC}, cache=cache)
            async with engine:
                payloads = [predict_payload(vcpus=v) for v in (4, 8, 16, 32)]
                answers = await asyncio.gather(
                    *(engine.submit(p) for p in payloads)
                )
            optimizer = reference_optimizer(cache)
            for payload, answer in zip(payloads, answers):
                config = optimizer.make_config(
                    payload["vcpus"],
                    payload["hdfs_kind"],
                    payload["hdfs_gb"],
                    payload["local_kind"],
                    payload["local_gb"],
                )
                reference = optimizer.evaluate(config)
                assert answer["runtime_seconds"] == reference.runtime_seconds
                assert answer["cost_dollars"] == reference.cost_dollars
                assert answer["config"]["label"] == config.label()

        asyncio.run(scenario())

    def test_infeasible_configuration_is_a_query_error(self, profiled_shard):
        min_hdfs, _ = CostOptimizer.capacity_requirements(SPEC, num_workers=10)
        assert min_hdfs > 0

        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=fresh_cache(profiled_shard))
            async with engine:
                with pytest.raises(QueryError, match="infeasible"):
                    await engine.submit(
                        predict_payload(hdfs_gb=min_hdfs / 2)
                    )

        asyncio.run(scenario())


class TestSimulate:
    def test_bit_identical_to_experiment_measure(self, profiled_shard):
        async def scenario():
            cache = fresh_cache(profiled_shard)
            engine = QueryEngine({NAME: SPEC}, cache=cache)
            async with engine:
                answer = await engine.submit(
                    {
                        "kind": "simulate",
                        "workload": NAME,
                        "slaves": 4,
                        "cores": 8,
                    }
                )
            reference = Experiment(SPEC, ClusterPlatform()).measure(4, 8)
            assert answer["total_seconds"] == reference.total_seconds
            assert [s["makespan_seconds"] for s in answer["stages"]] == [
                stage.makespan for stage in reference.stages
            ]

        asyncio.run(scenario())

    def test_measurement_cached_by_experiment_is_served_without_compute(
        self, profiled_shard
    ):
        cache = fresh_cache(profiled_shard)
        # A pipeline run populates the cache first...
        Experiment(SPEC, ClusterPlatform(), cache=cache).measure(4, 8)

        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=cache)
            async with engine:
                answer = await engine.submit(
                    {
                        "kind": "simulate",
                        "workload": NAME,
                        "slaves": 4,
                        "cores": 8,
                    }
                )
                stats = engine.stats()
                # ...so the service never touched the compute tier.
                assert stats["sim"]["completed"] == 0
                assert stats["tier2_hits"] == 1
                assert answer["total_seconds"] > 0

        asyncio.run(scenario())

    def test_service_measurements_are_visible_to_experiments(
        self, profiled_shard
    ):
        async def scenario():
            cache = fresh_cache(profiled_shard)
            engine = QueryEngine({NAME: SPEC}, cache=cache)
            async with engine:
                await engine.submit(
                    {
                        "kind": "simulate",
                        "workload": NAME,
                        "slaves": 4,
                        "cores": 8,
                    }
                )
            # The pipeline now sees the service's measurement: a warm hit.
            experiment = Experiment(SPEC, ClusterPlatform(), cache=cache)
            experiment.measure(4, 8)
            assert cache.measurement_stats.hits >= 1

        asyncio.run(scenario())

    def test_admission_cap_rejects_with_structure(self, profiled_shard):
        async def scenario():
            engine = QueryEngine(
                {NAME: SPEC}, cache=fresh_cache(profiled_shard), sim_queue_cap=1
            )
            async with engine:
                payloads = [
                    {
                        "kind": "simulate",
                        "workload": NAME,
                        "slaves": slaves,
                        "cores": 8,
                    }
                    for slaves in (3, 4)
                ]
                outcomes = await asyncio.gather(
                    *(engine.submit(p) for p in payloads),
                    return_exceptions=True,
                )
                rejected = [o for o in outcomes if isinstance(o, AdmissionError)]
                served = [o for o in outcomes if isinstance(o, dict)]
                assert len(rejected) == 1 and len(served) == 1
                assert rejected[0].queue_cap == 1
                assert rejected[0].queue_depth >= 1
                assert engine.stats()["sim"]["rejected"] == 1

        asyncio.run(scenario())


class TestOptimize:
    def test_bit_identical_to_grid_search(self, profiled_shard):
        async def scenario():
            cache = fresh_cache(profiled_shard)
            engine = QueryEngine({NAME: SPEC}, cache=cache)
            async with engine:
                answer = await engine.submit(
                    {
                        "kind": "optimize",
                        "workload": NAME,
                        "vcpu_grid": [8, 16],
                    }
                )
            reference = reference_optimizer(cache).grid_search(
                vcpu_grid=(8, 16)
            )
            assert answer["best"]["cost_dollars"] == reference.best.cost_dollars
            assert (
                answer["best"]["runtime_seconds"]
                == reference.best.runtime_seconds
            )
            assert (
                answer["best"]["config"]["label"]
                == reference.best.config.label()
            )
            assert answer["num_evaluated"] == reference.num_evaluated

        asyncio.run(scenario())


class TestComputeWorker:
    def test_optimize_is_answered_while_a_simulation_runs(
        self, profiled_shard, monkeypatch
    ):
        started, release = threading.Event(), threading.Event()
        simulate_item = engine_module._simulate_item

        def blocked(payload):
            started.set()
            release.wait(timeout=60)
            return simulate_item(payload)

        monkeypatch.setattr(engine_module, "_simulate_item", blocked)

        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=fresh_cache(profiled_shard))
            async with engine:
                await engine.warm([NAME])
                simulate = asyncio.create_task(
                    engine.submit(simulate_payload(4))
                )
                tasks = [simulate]
                try:
                    assert await asyncio.to_thread(started.wait, 10)
                    optimize = asyncio.create_task(engine.submit(
                        {"kind": "optimize", "workload": NAME,
                         "vcpu_grid": [8, 16]}
                    ))
                    tasks.append(optimize)
                    done, _ = await asyncio.wait({optimize}, timeout=5)
                    simulating = not simulate.done()
                finally:
                    release.set()
                    # Every query is answered before the engine closes.
                    await asyncio.wait_for(asyncio.gather(*tasks), timeout=60)
            assert optimize in done, "optimize waited behind the simulation"
            assert simulating
            assert optimize.result()["num_evaluated"] > 0
            assert simulate.result()["total_seconds"] > 0

        asyncio.run(scenario())

    def test_close_during_a_simulation_batch_returns(
        self, profiled_shard, monkeypatch
    ):
        started, release = threading.Event(), threading.Event()

        def blocked(payload):
            started.set()
            release.wait(timeout=60)

        monkeypatch.setattr(engine_module, "_simulate_item", blocked)

        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=fresh_cache(profiled_shard))
            await engine.start()
            simulate = asyncio.create_task(engine.submit(simulate_payload(4)))
            tasks = [simulate]
            try:
                assert await asyncio.to_thread(started.wait, 10)
                # Cancelling the worker mid-batch ends it, so close
                # returns without waiting for the batch.
                closing = asyncio.create_task(engine.close())
                tasks.append(closing)
                done, _ = await asyncio.wait({closing}, timeout=5)
            finally:
                release.set()
                for task in tasks[1:]:
                    task.cancel()  # frees a close that hung
                await asyncio.gather(*tasks, return_exceptions=True)
            assert closing in done, "close waited on the cancelled worker"
            assert isinstance(simulate.exception(), ServiceError)

        asyncio.run(scenario())

    def test_worker_survives_a_failed_checkpoint_save(
        self, profiled_shard, tmp_path, monkeypatch
    ):
        path = tmp_path / "serve.json"
        cache = ResultCache(path)
        cache.merge_shard(profiled_shard)
        save = cache.save
        calls = []

        def save_failing_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise OSError("disk full")
            return save(*args, **kwargs)

        monkeypatch.setattr(cache, "save", save_failing_once)

        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=cache)
            async with engine:
                await asyncio.wait_for(
                    engine.submit(simulate_payload(3)), timeout=30
                )
                # The first batch's save failed; the worker must still
                # take the next batch.
                answer = await asyncio.wait_for(
                    engine.submit(simulate_payload(4)), timeout=30
                )
                stats = engine.stats()
            assert answer["total_seconds"] > 0
            assert stats["sim"]["save_errors"] == 1
            assert stats["sim"]["completed"] == 2

        asyncio.run(scenario())
        # The next save retried: both measurements reached the file.
        experiment = Experiment(SPEC, ClusterPlatform(), cache=ResultCache(path))
        experiment.measure(3, 8)
        experiment.measure(4, 8)
        assert experiment.cache.measurement_stats.hits == 2


class TestLifecycleAndErrors:
    def test_unknown_workload_is_a_query_error(self, profiled_shard):
        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=fresh_cache(profiled_shard))
            async with engine:
                with pytest.raises(QueryError, match="unknown workload"):
                    await engine.submit(predict_payload(workload="nope"))

        asyncio.run(scenario())

    def test_refused_queries_are_counted(self, profiled_shard):
        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=fresh_cache(profiled_shard))
            async with engine:
                with pytest.raises(QueryError, match="unknown kind"):
                    await engine.submit({"kind": "explain"})
                with pytest.raises(QueryError, match="unknown workload"):
                    await engine.submit(predict_payload(workload="nope"))
                stats = engine.stats()
            assert (stats["queries"], stats["errors"]) == (2, 2)

        asyncio.run(scenario())

    def test_closed_engine_refuses_queries(self, profiled_shard):
        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=fresh_cache(profiled_shard))
            async with engine:
                pass
            with pytest.raises(ServiceError, match="closed"):
                await engine.submit(predict_payload())

        asyncio.run(scenario())

    def test_warm_rejects_unknown_names(self, profiled_shard):
        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=fresh_cache(profiled_shard))
            async with engine:
                with pytest.raises(QueryError, match="unknown workload"):
                    await engine.warm(["nope"])

        asyncio.run(scenario())

    def test_error_does_not_poison_the_single_flight_table(
        self, profiled_shard
    ):
        async def scenario():
            engine = QueryEngine({NAME: SPEC}, cache=fresh_cache(profiled_shard))
            async with engine:
                bad = predict_payload(workload="nope")
                with pytest.raises(QueryError):
                    await engine.submit(bad)
                # A later, valid query still works; inflight is empty.
                answer = await engine.submit(predict_payload())
                assert answer["kind"] == "predict"
                assert engine.stats()["inflight"] == 0

        asyncio.run(scenario())
