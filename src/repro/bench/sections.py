"""The built-in benchmark sections, decomposed from the old monolith.

Each section is a registered :class:`~repro.bench.registry.BenchmarkSection`
carrying three layers of protection:

1. **correctness asserts** inside ``run`` — bit-identity, exactness vs
   the scalar model — which fire on every invocation;
2. **absolute floors** in ``guards`` — the legacy monolith's fixed
   thresholds (cache speedup >= 2x, kernel >= 1e5 cand/s, ...), which
   hold on every run and are the fallback when history is thin;
3. **history gates** in ``gates`` — the statistical detector's metric
   specs, judged against the rolling ``BENCH_history.jsonl`` window.

Metric dictionaries keep the key names the monolith wrote, so the
committed ``BENCH_simulator.json`` trajectory stays comparable.
"""

from __future__ import annotations

import json
import platform
import time

from repro.bench.gates import MetricGate
from repro.bench.registry import BenchmarkSection, register_section

# -- scenario constants -------------------------------------------------------

NUM_SLAVES = 10
CORES_PER_NODE = 24

#: Fig. 3 setting: the 3-slave motivation cluster, 2SSD placement.
SWEEP_SLAVES = 3
SWEEP_CORES = (12, 24, 36)

#: Fig. 13/15 search grid (the benchmark suite's vcpu grid).
SEARCH_VCPUS = (8, 16, 32)

#: Wall-time tolerance: a fresh wall time may not exceed this multiple of
#: the history median — generous, because CI machines are noisy.
WALL_TOLERANCE = 4.0

#: Minimum cold/warm speedup the result cache must deliver.
MIN_CACHE_SPEEDUP = 2.0

#: The resilience scenario's straggler severity (matches the shipped
#: example plan family) and the ceiling on what an armed-but-idle
#: speculation policy may cost a clean run.
STRAGGLER_SLOWDOWN = 2.5
MAX_CLEAN_SPECULATION_OVERHEAD = 0.05

#: Array-kernel throughput floor (candidates scored per second, one
#: core) and the minimum batch-vs-scalar speedup.
MIN_PYTHON_CAND_PER_S = 1e5
MIN_VECTOR_SPEEDUP_VS_SCALAR = 20.0

#: The vectorized benchmark's disk-size axis (the Fig. 13-15 sweep) and
#: how many times the resulting grid is tiled for stable timing.
VECTOR_SIZES_GB = (
    20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0
)
VECTOR_TILE_REPS = 50

#: Minimum parallel-vs-serial wall-clock speedup with two workers —
#: enforced only on hosts where two workers can actually run at once.
MIN_PARALLEL_SPEEDUP = 1.5
PARALLEL_WORKERS = 2

#: The parallel grid: Fig.-3-shaped cold sweep, four cells so two
#: workers can balance it.
PARALLEL_GRID_CORES = (8, 12, 24, 36)

#: Clean-path supervision overhead ceiling: on a healthy run the
#: supervisor (per-item futures, deadlines, retry bookkeeping) may cost
#: at most this fraction over a raw chunked ``Executor.map``.
MAX_SUPERVISION_OVERHEAD = 0.05
SUPERVISION_ITEMS = 32

#: History-gate band shared by wall-time metrics: warn at half the
#: tolerance, fail at the tolerance itself.
_WALL_BAND = {"warn_ratio": WALL_TOLERANCE / 2, "fail_ratio": WALL_TOLERANCE}


def _gatk4_predictor():
    from repro.core import Predictor, Profiler
    from repro.workloads import make_gatk4_workload

    workload = make_gatk4_workload()
    return workload, Predictor(Profiler(workload, nodes=3).profile())


def _paper_optimizer(predictor):
    from repro.cloud.optimizer import CostOptimizer
    from repro.workloads import make_gatk4_workload

    hdfs_gb, local_gb = CostOptimizer.capacity_requirements(
        make_gatk4_workload(), num_workers=10
    )
    return CostOptimizer(
        predictor, num_workers=10,
        min_hdfs_gb=hdfs_gb, min_local_gb=local_gb,
    )


# -- engine: the GATK4 MD-stage event-loop microbenchmark ---------------------


def run_md_stage_once() -> tuple[float, float]:
    """Build and run the MD stage once; returns (wall seconds, makespan)."""
    from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
    from repro.simulator.engine import SimulationEngine
    from repro.workloads import make_gatk4_workload

    spec = make_gatk4_workload().stages[0]
    cluster = make_paper_cluster(NUM_SLAVES, HYBRID_CONFIGS[0])
    tasks = spec.build_tasks(cores_per_node=CORES_PER_NODE, jitter_offset=0.0)
    engine = SimulationEngine(cluster, cores_per_node=CORES_PER_NODE)
    start = time.perf_counter()
    makespan = engine.run(tasks)
    return time.perf_counter() - start, makespan


def run_engine(rounds: int) -> dict:
    """The event-loop microbenchmark: the MD stage, best of ``rounds``."""
    walls = []
    makespan = None
    for _ in range(max(1, rounds)):
        wall, makespan = run_md_stage_once()
        walls.append(wall)
    best = min(walls)
    return {
        "benchmark": "gatk4-md-stage",
        "num_slaves": NUM_SLAVES,
        "cores_per_node": CORES_PER_NODE,
        "rounds": len(walls),
        "wall_seconds_best": round(best, 4),
        "wall_seconds_all": [round(w, 4) for w in walls],
        "simulated_makespan_seconds": makespan,
        "python": platform.python_version(),
    }


register_section(BenchmarkSection(
    name="engine",
    title="GATK4 MD stage on the indexed event heap (973 tasks, 10 slaves)",
    snapshot_key=None,
    run=run_engine,
    gates=(
        MetricGate("simulated_makespan_seconds", "exact",
                   fingerprint_scoped=False),
        MetricGate("wall_seconds_best", "lower", **_WALL_BAND),
    ),
))


# -- cache: the Fig. 3 sweep, cold then warm ----------------------------------


def run_cache(rounds: int) -> dict:
    """Fig. 3 sweep, cold then warm through one result cache."""
    del rounds  # the cold/warm pair is inherently one round
    from repro.analysis.sweep import sweep_cores
    from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
    from repro.pipeline import ResultCache

    workload, predictor = _gatk4_predictor()
    cluster = make_paper_cluster(SWEEP_SLAVES, HYBRID_CONFIGS[0])
    cache = ResultCache()

    start = time.perf_counter()
    cold_points = sweep_cores(workload, predictor, cluster, SWEEP_CORES, cache)
    cold_wall = time.perf_counter() - start

    start = time.perf_counter()
    warm_points = sweep_cores(workload, predictor, cluster, SWEEP_CORES, cache)
    warm_wall = time.perf_counter() - start

    assert [p.total.measured for p in warm_points] == [
        p.total.measured for p in cold_points
    ], "cache hits must be bit-identical"
    return {
        "benchmark": "fig3-core-sweep",
        "num_slaves": SWEEP_SLAVES,
        "core_counts": list(SWEEP_CORES),
        "total_seconds_per_p": [p.total.measured for p in cold_points],
        "cold_wall_seconds": round(cold_wall, 4),
        "warm_wall_seconds": round(warm_wall, 4),
        "cache_speedup": round(cold_wall / warm_wall, 2),
        "cache_stats": cache.stats_summary(),
    }


def guard_cache(metrics: dict) -> list[str]:
    if metrics["cache_speedup"] < MIN_CACHE_SPEEDUP:
        return [
            f"core_sweep: cache speedup {metrics['cache_speedup']}x is"
            f" below the required {MIN_CACHE_SPEEDUP}x"
        ]
    return []


register_section(BenchmarkSection(
    name="cache",
    title="Fig. 3 core sweep cold vs warm through the shared result cache",
    snapshot_key="core_sweep",
    run=run_cache,
    guards=guard_cache,
    gates=(
        MetricGate("total_seconds_per_p", "exact", fingerprint_scoped=False),
        MetricGate("cold_wall_seconds", "lower", **_WALL_BAND),
        MetricGate("cache_speedup", "higher", **_WALL_BAND),
    ),
    slow=True,
))


# -- search: the Fig. 13/15 grid through the array kernel ---------------------


def run_search(rounds: int) -> dict:
    """Fig. 13/15 grid search through the array kernel.

    The search scores the whole grid as one
    :class:`~repro.model.arrays.CandidateBatch`, so there is no
    per-candidate prediction cache to warm any more — the recorded
    numbers are the search wall time (best of ``rounds``) and the
    grid-candidates-per-second rate it implies.
    """
    _workload, predictor = _gatk4_predictor()
    optimizer = _paper_optimizer(predictor)

    walls = []
    result = None
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        result = optimizer.grid_search(vcpu_grid=SEARCH_VCPUS)
        walls.append(time.perf_counter() - start)
    best_wall = min(walls)

    return {
        "benchmark": "fig13-15-grid-search",
        "vcpu_grid": list(SEARCH_VCPUS),
        "num_candidates": result.num_evaluated,
        "best_config": result.best.config.label(),
        "best_cost_dollars": round(result.best.cost_dollars, 4),
        "best_runtime_seconds": result.best.runtime_seconds,
        "wall_seconds": round(best_wall, 4),
        "candidates_per_second": round(result.num_evaluated / best_wall),
    }


register_section(BenchmarkSection(
    name="search",
    title="Fig. 13/15 cost-optimizer grid search (864 candidates)",
    snapshot_key="optimizer_search",
    run=run_search,
    gates=(
        MetricGate("best_runtime_seconds", "exact", fingerprint_scoped=False),
        MetricGate("best_cost_dollars", "exact", fingerprint_scoped=False),
        MetricGate("best_config", "exact", fingerprint_scoped=False),
        MetricGate("wall_seconds", "lower", **_WALL_BAND),
        MetricGate("candidates_per_second", "higher", **_WALL_BAND),
    ),
))


# -- resilience: speculation + blacklisting vs a straggler --------------------


def run_resilience(rounds: int) -> dict:
    """Speculation + blacklisting vs a 2.5x straggler on the MD stage.

    Four deterministic measurements of the same single-stage workload:
    clean, clean with speculation armed (the overhead probe), faulted
    without mitigations, and faulted with speculation + blacklisting.
    """
    del rounds  # deterministic: repeated rounds would remeasure the same run
    from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
    from repro.faults import FaultPlan, StragglerFault
    from repro.resilience import (
        BlacklistPolicy,
        ResiliencePolicy,
        SpeculationPolicy,
        merge_summaries,
    )
    from repro.workloads import make_gatk4_workload
    from repro.workloads.base import WorkloadSpec
    from repro.workloads.runner import measure_workload

    stage = make_gatk4_workload().stages[0]
    workload = WorkloadSpec(name="md-stage", stages=(stage,))
    plan = FaultPlan(
        name="bench-straggler",
        faults=(StragglerFault(node=1, slowdown=STRAGGLER_SLOWDOWN),),
    )
    policy = ResiliencePolicy(
        speculation=SpeculationPolicy(),
        blacklist=BlacklistPolicy(max_node_strikes=2),
    )
    speculation_only = ResiliencePolicy(speculation=SpeculationPolicy())

    def measure(faults=None, resilience=None):
        cluster = make_paper_cluster(NUM_SLAVES, HYBRID_CONFIGS[0])
        start = time.perf_counter()
        result = measure_workload(
            cluster, CORES_PER_NODE, workload,
            faults=faults, resilience=resilience,
        )
        return time.perf_counter() - start, result

    wall = 0.0
    elapsed, clean = measure()
    wall += elapsed
    elapsed, clean_armed = measure(resilience=speculation_only)
    wall += elapsed
    elapsed, unmitigated = measure(faults=plan)
    wall += elapsed
    elapsed, mitigated = measure(faults=plan, resilience=policy)
    wall += elapsed

    overhead = clean_armed.total_seconds / clean.total_seconds - 1.0
    summary = merge_summaries(s.resilience for s in mitigated.stages)
    return {
        "benchmark": "resilience-straggler",
        "num_slaves": NUM_SLAVES,
        "cores_per_node": CORES_PER_NODE,
        "straggler_slowdown": STRAGGLER_SLOWDOWN,
        "clean_seconds": clean.total_seconds,
        "clean_speculation_seconds": clean_armed.total_seconds,
        "clean_speculation_overhead_fraction": round(overhead, 6),
        "unmitigated_seconds": unmitigated.total_seconds,
        "mitigated_seconds": mitigated.total_seconds,
        "recovered_fraction": round(
            1.0 - mitigated.total_seconds / unmitigated.total_seconds, 4
        ),
        "speculative_launched": summary.speculative_launched,
        "speculative_wins": summary.speculative_wins,
        "blacklisted": list(summary.blacklisted),
        "wall_seconds": round(wall, 4),
    }


def guard_resilience(metrics: dict) -> list[str]:
    failures = []
    if metrics["mitigated_seconds"] >= metrics["unmitigated_seconds"]:
        failures.append(
            "resilience: mitigation no longer beats the straggler:"
            f" mitigated {metrics['mitigated_seconds']}s vs unmitigated"
            f" {metrics['unmitigated_seconds']}s"
        )
    if metrics[
        "clean_speculation_overhead_fraction"
    ] > MAX_CLEAN_SPECULATION_OVERHEAD:
        failures.append(
            "resilience: armed speculation costs a clean run"
            f" {metrics['clean_speculation_overhead_fraction'] * 100:.2f}%,"
            f" above the {MAX_CLEAN_SPECULATION_OVERHEAD * 100:.0f}% ceiling"
        )
    return failures


register_section(BenchmarkSection(
    name="resilience",
    title="speculation + blacklisting vs a 2.5x straggler on the MD stage",
    snapshot_key="resilience",
    run=run_resilience,
    guards=guard_resilience,
    gates=(
        MetricGate("clean_seconds", "exact", fingerprint_scoped=False),
        MetricGate("clean_speculation_seconds", "exact",
                   fingerprint_scoped=False),
        MetricGate("unmitigated_seconds", "exact", fingerprint_scoped=False),
        MetricGate("mitigated_seconds", "exact", fingerprint_scoped=False),
        MetricGate("wall_seconds", "lower", **_WALL_BAND),
    ),
))


# -- parallel: process-parallel grids and supervision -------------------------


def _supervision_work(seed: int) -> int:
    """A few milliseconds of pure CPU; module-level so pools can pickle it.

    Sized like a small grid cell (several ms), not a micro-item: the
    overhead metric should reflect the supervisor's bookkeeping on its
    real workload, where per-item future cost is marginal.
    """
    total = seed
    for value in range(60_000):
        total = (total * 1103515245 + value) % 2147483647
    return total


def run_parallel(rounds: int) -> dict:
    """Process-parallel grids and the supervised execution tier.

    Correctness (bit-identical records) is asserted on every run; the
    wall-clock guards live in the section's floors and gates.  The
    ``supervision`` block times the fault-tolerant execution tier's
    clean path against a raw chunked map.
    """
    from repro.cluster import HYBRID_CONFIGS, make_paper_cluster
    from repro.parallel import available_cpus
    from repro.pipeline.experiment import Experiment
    from repro.pipeline.sources import ResolvedSource

    workload, predictor = _gatk4_predictor()

    # Cold Fig.-3-shaped sweep, serial vs two worker processes, fresh
    # caches on both sides so every cell really simulates.
    def cold_grid(workers):
        experiment = Experiment(
            ResolvedSource(workload, predictor.report),
            make_paper_cluster(SWEEP_SLAVES, HYBRID_CONFIGS[0]),
        )
        start = time.perf_counter()
        results = experiment.run_grid(
            nodes=(SWEEP_SLAVES,),
            cores_per_node=PARALLEL_GRID_CORES,
            workers=workers,
        )
        wall = time.perf_counter() - start
        dump = json.dumps([r.to_dict() for r in results], sort_keys=True)
        return wall, dump, experiment

    serial_wall, serial_dump, _ = cold_grid(None)
    parallel_wall, parallel_dump, parallel_experiment = cold_grid(
        PARALLEL_WORKERS
    )
    assert parallel_dump == serial_dump, (
        "parallel grid records must be bit-identical to serial"
    )

    # Warm replay from the merged shards: times the hoisted-fingerprint
    # composition path and proves the parallel run fully warmed its cache.
    start = time.perf_counter()
    replay = parallel_experiment.run_grid(
        nodes=(SWEEP_SLAVES,), cores_per_node=PARALLEL_GRID_CORES
    )
    warm_wall = time.perf_counter() - start
    assert json.dumps(
        [r.to_dict() for r in replay], sort_keys=True
    ) == serial_dump

    # Clean-path supervision overhead: the same CPU-bound items through
    # a raw chunked Executor.map and through the TaskSupervisor, each on
    # a fresh two-worker pool so neither side inherits warm workers.
    from repro.parallel import ProcessPoolBackend, TaskSupervisor

    items = list(range(SUPERVISION_ITEMS))
    expected = [_supervision_work(item) for item in items]
    raw_walls, supervised_walls = [], []
    for _ in range(max(1, rounds)):
        with ProcessPoolBackend(PARALLEL_WORKERS) as backend:
            start = time.perf_counter()
            raw_results = backend.map(_supervision_work, items)
            raw_walls.append(time.perf_counter() - start)
        with ProcessPoolBackend(PARALLEL_WORKERS) as backend:
            supervisor = TaskSupervisor(backend)
            start = time.perf_counter()
            supervised_results = supervisor.map(_supervision_work, items)
            supervised_walls.append(time.perf_counter() - start)
    assert raw_results == expected and supervised_results == expected, (
        "supervised map must return exactly the raw map's results"
    )
    overhead = min(supervised_walls) / min(raw_walls) - 1.0

    return {
        "benchmark": "parallel-grid-and-supervision",
        "grid": {
            "num_slaves": SWEEP_SLAVES,
            "core_counts": list(PARALLEL_GRID_CORES),
            "workers": PARALLEL_WORKERS,
            "usable_cpus": available_cpus(),
            "serial_wall_seconds": round(serial_wall, 4),
            "parallel_wall_seconds": round(parallel_wall, 4),
            "parallel_speedup": round(serial_wall / parallel_wall, 2),
            "warm_wall_seconds": round(warm_wall, 4),
            "records_bit_identical": True,
        },
        "supervision": {
            "num_items": SUPERVISION_ITEMS,
            "workers": PARALLEL_WORKERS,
            "raw_wall_seconds": round(min(raw_walls), 4),
            "supervised_wall_seconds": round(min(supervised_walls), 4),
            "overhead_fraction": round(overhead, 4),
            "results_identical": True,
        },
    }


def guard_parallel(metrics: dict) -> list[str]:
    failures = []
    grid = metrics["grid"]
    # Parallelism must pay for itself wherever two workers can actually
    # run at once.
    if (
        grid["usable_cpus"] >= 2
        and grid["parallel_speedup"] < MIN_PARALLEL_SPEEDUP
    ):
        failures.append(
            f"parallel: {grid['workers']}-worker grid speedup"
            f" {grid['parallel_speedup']}x is below the required"
            f" {MIN_PARALLEL_SPEEDUP}x on {grid['usable_cpus']} CPUs"
        )
    # Like the speedup floor, the overhead ceiling only means something
    # where two workers genuinely run at once: on a one-CPU host both
    # sides of the comparison serialize onto the same core and the
    # ratio measures scheduler noise, not supervisor bookkeeping.
    supervision = metrics["supervision"]
    if (
        grid["usable_cpus"] >= 2
        and supervision["overhead_fraction"] > MAX_SUPERVISION_OVERHEAD
    ):
        failures.append(
            f"parallel: clean-path supervision overhead"
            f" {supervision['overhead_fraction']:.1%} exceeds the"
            f" {MAX_SUPERVISION_OVERHEAD:.0%} ceiling over a raw map"
        )
    return failures


register_section(BenchmarkSection(
    name="parallel",
    title="two-worker process-parallel grid + clean-path supervision",
    snapshot_key="parallel",
    run=run_parallel,
    guards=guard_parallel,
    gates=(
        MetricGate("grid.warm_wall_seconds", "lower", **_WALL_BAND),
        MetricGate("supervision.supervised_wall_seconds", "lower",
                   **_WALL_BAND),
    ),
    slow=True,
))


# -- vectorized: the PR-6 array kernel ----------------------------------------


def run_vectorized(rounds: int) -> dict:
    """Array-kernel throughput on a tiled Fig. 13-15 grid.

    Scores the optimizer's full (vCPU x disk kind x size x size) grid —
    tiled :data:`VECTOR_TILE_REPS` times so each timing covers tens of
    thousands of candidates — against the scalar per-configuration path
    on the untiled grid.  Before timing, the batch results are
    equality-checked (``==`` on floats) against the scalar model, so the
    recorded rate always describes a kernel that is still exact.
    """
    from repro.core import Predictor, Profiler
    from repro.model.arrays import CandidateBatch, Eq1BatchEvaluator
    from repro.workloads import make_gatk4_workload

    workload = make_gatk4_workload()
    report = Profiler(workload, nodes=3).profile()
    optimizer = _paper_optimizer(Predictor(report))
    configs = optimizer._grid_candidates(
        (4, 8, 16, 32), ("pd-standard", "pd-ssd"),
        VECTOR_SIZES_GB, VECTOR_SIZES_GB,
    )
    grid = CandidateBatch.from_configs(configs)
    evaluator = Eq1BatchEvaluator(report)

    # Scalar reference: the per-configuration path the kernel replaced.
    start = time.perf_counter()
    scalar = [optimizer._predict_fresh(config) for config in configs]
    scalar_wall = time.perf_counter() - start
    scalar_rate = len(configs) / scalar_wall

    # Exactness gate on the untiled grid.
    scores = evaluator.score(grid)
    assert list(scores.runtime_seconds) == [
        p.t_app for p in scalar
    ], "kernel runtimes diverged from the scalar model"
    assert list(scores.cost_dollars) == [
        config.cost_for_runtime(p.t_app)
        for config, p in zip(configs, scalar)
    ], "kernel costs diverged from the scalar model"

    tiled = CandidateBatch(
        nodes=grid.nodes * VECTOR_TILE_REPS,
        cores=grid.cores * VECTOR_TILE_REPS,
        hdfs_kinds=grid.hdfs_kinds * VECTOR_TILE_REPS,
        hdfs_sizes_gb=grid.hdfs_sizes_gb * VECTOR_TILE_REPS,
        local_kinds=grid.local_kinds * VECTOR_TILE_REPS,
        local_sizes_gb=grid.local_sizes_gb * VECTOR_TILE_REPS,
        vcpus=grid.vcpus * VECTOR_TILE_REPS,
    )
    walls = []
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        evaluator.score(tiled, want_bottlenecks=False)
        walls.append(time.perf_counter() - start)
    rate = len(tiled) / min(walls)

    return {
        "benchmark": "pr6-array-kernel",
        "grid_candidates": len(configs),
        "tiled_candidates": len(tiled),
        "python_cand_per_s": round(rate),
        "scalar_cand_per_s": round(scalar_rate),
        "speedup_vs_scalar": round(rate / scalar_rate, 1),
        "batch_matches_scalar": True,
    }


def guard_vectorized(metrics: dict) -> list[str]:
    failures = []
    if metrics["python_cand_per_s"] < MIN_PYTHON_CAND_PER_S:
        failures.append(
            f"vectorized: pure-Python kernel at {metrics['python_cand_per_s']}"
            f" cand/s is below the required {MIN_PYTHON_CAND_PER_S:.0e}"
        )
    if metrics["speedup_vs_scalar"] < MIN_VECTOR_SPEEDUP_VS_SCALAR:
        failures.append(
            f"vectorized: {metrics['speedup_vs_scalar']}x over the scalar"
            f" path is below the required {MIN_VECTOR_SPEEDUP_VS_SCALAR:.0f}x"
        )
    return failures


register_section(BenchmarkSection(
    name="vectorized",
    title="Fig. 13-15 grid through the array kernel, exactness-gated",
    snapshot_key="vectorized",
    run=run_vectorized,
    guards=guard_vectorized,
    gates=(
        MetricGate("python_cand_per_s", "higher", **_WALL_BAND),
    ),
))


# -- multitenant: two jobs sharing one cluster (PR 8) -------------------------

#: The co-location scenario: LR and SVM on the paper cluster with both
#: disks spinning (2HDD placement maximizes I/O contention), SVM
#: arriving mid-run under fair scheduling.
MIX_SLAVES = NUM_SLAVES
MIX_CORES = CORES_PER_NODE
MIX_ARRIVAL_SECONDS = 30.0

#: The mix must show *real* contention: the most-slowed job's runtime
#: must exceed its solo baseline by at least this factor.  Both jobs
#: must also never run faster mixed than solo, within the engine's
#: float-reordering tolerance (see repro.invariants.INTERFERENCE_REL_TOL).
MIN_MIX_SLOWDOWN = 1.05


def run_multitenant(rounds: int) -> dict:
    """A two-job mix through ``Experiment.measure_mix``, cold per round.

    Correctness asserts on every run: the K = 1 mix is bit-identical to
    the plain solo measurement, per-job byte conservation holds, and no
    job beats its solo baseline.  The recorded metrics are the mix
    makespan and per-job slowdowns (deterministic, exactness-gated) plus
    the cold wall time (band-gated).
    """
    from repro.invariants import (
        check_interference_dominance,
        check_mix_conservation,
    )
    from repro.pipeline import ClusterPlatform, Experiment
    from repro.schedule import MixJob
    from repro.workloads import (
        make_logistic_regression_workload,
        make_svm_workload,
    )

    lr = make_logistic_regression_workload(num_slaves=MIX_SLAVES)
    svm = make_svm_workload()
    platform = ClusterPlatform(hdfs_kind="hdd", local_kind="hdd")
    jobs = [MixJob(spec=lr), MixJob(spec=svm, arrival=MIX_ARRIVAL_SECONDS)]

    walls = []
    mix = None
    for _ in range(max(1, rounds)):
        experiment = Experiment(lr, platform)  # fresh cache: a cold mix
        start = time.perf_counter()
        mix = experiment.measure_mix(
            jobs, policy="fair", nodes=MIX_SLAVES, cores_per_node=MIX_CORES
        )
        walls.append(time.perf_counter() - start)

    # Solo baselines and the K = 1 delegation identity, one shared cache.
    experiment = Experiment(lr, platform)
    solos = {
        spec.name: Experiment(spec, platform, cache=experiment.cache).measure(
            MIX_SLAVES, MIX_CORES
        )
        for spec in (lr, svm)
    }
    solo_mix = experiment.measure_mix(
        [MixJob(spec=lr)], nodes=MIX_SLAVES, cores_per_node=MIX_CORES
    )
    assert solo_mix.jobs[0].measurement == solos[lr.name], (
        "K=1 mix must be bit-identical to the solo measurement"
    )
    violations = check_mix_conservation(jobs, mix)
    violations += check_interference_dominance(mix, solos)
    assert not violations, "; ".join(str(v) for v in violations)

    slowdowns = {
        timeline.name: round(
            timeline.measurement.total_seconds
            / solos[timeline.name].total_seconds,
            6,
        )
        for timeline in mix.jobs
    }
    return {
        "benchmark": "multitenant-mix",
        "num_slaves": MIX_SLAVES,
        "cores_per_node": MIX_CORES,
        "policy": mix.policy,
        "arrival_seconds": MIX_ARRIVAL_SECONDS,
        "jobs": [timeline.name for timeline in mix.jobs],
        "mix_makespan_seconds": mix.makespan,
        "job_runtime_seconds": {
            timeline.name: timeline.measurement.total_seconds
            for timeline in mix.jobs
        },
        "solo_seconds": {
            name: measurement.total_seconds
            for name, measurement in solos.items()
        },
        "slowdowns": slowdowns,
        "interference_slowdown": max(slowdowns.values()),
        "wall_seconds": round(min(walls), 4),
    }


def guard_multitenant(metrics: dict) -> list[str]:
    from repro.invariants import INTERFERENCE_REL_TOL

    failures = []
    if metrics["interference_slowdown"] < MIN_MIX_SLOWDOWN:
        failures.append(
            f"multitenant: peak slowdown {metrics['interference_slowdown']}x"
            f" is below the required {MIN_MIX_SLOWDOWN}x — the mix no longer"
            " exhibits contention"
        )
    for name, slowdown in metrics["slowdowns"].items():
        if slowdown < 1.0 - INTERFERENCE_REL_TOL:
            failures.append(
                f"multitenant: {name} runs {slowdown}x its solo time —"
                " faster with neighbors than alone"
            )
    return failures


register_section(BenchmarkSection(
    name="multitenant",
    title="two-job LR+SVM mix with cross-job disk contention (PR 8)",
    snapshot_key="multitenant",
    run=run_multitenant,
    guards=guard_multitenant,
    gates=(
        MetricGate("mix_makespan_seconds", "exact", fingerprint_scoped=False),
        MetricGate("interference_slowdown", "exact", rel_tolerance=1e-6,
                   fingerprint_scoped=False),
        MetricGate("wall_seconds", "lower", **_WALL_BAND),
    ),
))


# -- section: service -------------------------------------------------------

#: The service load mix: ``SERVICE_DISTINCT`` unique predict queries
#: plus ``SERVICE_OPT_DISTINCT`` unique grid-search (optimize) queries,
#: each arriving ``SERVICE_DUPLICATES`` / ``SERVICE_OPT_DUPLICATES``
#: times, interleaved, under ``SERVICE_CONCURRENCY`` in flight.
SERVICE_DISTINCT = 24
SERVICE_DUPLICATES = 5
SERVICE_OPT_DISTINCT = 4
SERVICE_OPT_DUPLICATES = 10
SERVICE_CONCURRENCY = 16

#: The service must beat one-query-one-evaluation serving by at least
#: this factor on the same mix (the PR-10 acceptance threshold).
MIN_SERVICE_SPEEDUP = 5.0


def run_service(rounds: int) -> dict:
    """The what-if query engine vs. naive one-query-one-evaluation.

    The same deterministic query mix — cheap predict queries plus
    repeated grid-search (optimize) queries, the dashboard pattern the
    service exists for — is answered two ways: by a warmed
    :class:`~repro.service.engine.QueryEngine` (single-flight
    coalescing, LRU, micro-batched kernel calls) under concurrency, and
    by a naive loop making one scalar
    :meth:`~repro.cloud.optimizer.CostOptimizer.evaluate` or
    :meth:`~repro.cloud.optimizer.CostOptimizer.grid_search` call per
    query.  Correctness asserts on every run: the engine's answers are
    bit-identical to the direct library calls', and at least one
    micro-batch actually flushed (the mix cannot have been served
    query-at-a-time).  Profiling happens before timing on both sides
    (one shared cache), so the comparison is pure serving cost.
    """
    import asyncio

    from repro.cloud.optimizer import CostOptimizer
    from repro.core.predictor import Predictor
    from repro.pipeline import ResultCache, SpecSource
    from repro.service import QueryEngine
    from repro.service.loadgen import (
        build_queries,
        naive_baseline,
        run_against_engine,
    )
    from repro.workloads import make_svm_workload

    spec = make_svm_workload()
    queries = build_queries(
        "svm",
        distinct=SERVICE_DISTINCT,
        duplicates=SERVICE_DUPLICATES,
        optimize_distinct=SERVICE_OPT_DISTINCT,
        optimize_duplicates=SERVICE_OPT_DUPLICATES,
    )
    num_predict = sum(1 for q in queries if q["kind"] == "predict")
    num_optimize = len(queries) - num_predict

    # One cache shares the profiled report across rounds and with the
    # naive side, so neither side ever times profiling.
    cache = ResultCache()

    async def serve_once() -> dict:
        engine = QueryEngine({"svm": spec}, cache=cache)
        async with engine:
            await engine.warm(["svm"])  # profiling off the timed path
            return await run_against_engine(
                engine, queries, concurrency=SERVICE_CONCURRENCY
            )

    best = None
    for _ in range(max(1, rounds)):
        outcome = asyncio.run(serve_once())
        if best is None or outcome["wall_seconds"] < best["wall_seconds"]:
            best = outcome

    # The naive reference: the same floors and worker count the engine
    # applies, one direct library call per query.
    resolved = SpecSource(spec, profile_nodes=3).resolve(cache)
    min_hdfs, min_local = CostOptimizer.capacity_requirements(
        spec, num_workers=10
    )
    optimizer = CostOptimizer(
        Predictor(resolved.report),
        num_workers=10,
        min_hdfs_gb=min_hdfs,
        min_local_gb=min_local,
    )
    naive = naive_baseline(optimizer, queries)

    # Bit-identity: every service answer equals the direct call's.
    for payload, served, reference in zip(queries, best["results"], naive["results"]):
        if payload["kind"] == "predict":
            assert served["runtime_seconds"] == reference.runtime_seconds, (
                "service runtime diverged from the scalar model:"
                f" {served['runtime_seconds']} != {reference.runtime_seconds}"
            )
            assert served["cost_dollars"] == reference.cost_dollars, (
                "service cost diverged from the scalar model:"
                f" {served['cost_dollars']} != {reference.cost_dollars}"
            )
        else:
            assert (
                served["best"]["cost_dollars"] == reference.best.cost_dollars
                and served["best"]["runtime_seconds"]
                == reference.best.runtime_seconds
                and served["num_evaluated"] == reference.num_evaluated
            ), (
                "service grid search diverged from CostOptimizer"
                f".grid_search: {served['best']} != {reference.best!r}"
            )

    stats = best["engine"]
    total = len(queries)
    wall = best["wall_seconds"]
    return {
        "benchmark": "what-if-service",
        "workload": "svm",
        "num_queries": total,
        "num_predict": num_predict,
        "num_optimize": num_optimize,
        "distinct": SERVICE_DISTINCT + SERVICE_OPT_DISTINCT,
        "concurrency": SERVICE_CONCURRENCY,
        "wall_seconds": round(wall, 4),
        "qps": round(total / wall, 1) if wall > 0 else 0.0,
        "p50_ms": round(best["p50_ms"], 4),
        "p99_ms": round(best["p99_ms"], 4),
        "naive_wall_seconds": round(naive["wall_seconds"], 4),
        "speedup_vs_naive": round(naive["wall_seconds"] / wall, 2),
        "coalesced": stats["coalesced"],
        "lru_hits": stats["lru"]["hits"],
        "lru_hit_rate": round(stats["lru"]["hits"] / total, 4),
        "batches_flushed": stats["batches"]["flushed"],
        "max_batch_width": stats["batches"]["max_size"],
        "reference_runtime_seconds": naive["results"][0].runtime_seconds,
        "reference_cost_dollars": naive["results"][0].cost_dollars,
    }


def guard_service(metrics: dict) -> list[str]:
    failures = []
    if metrics["speedup_vs_naive"] < MIN_SERVICE_SPEEDUP:
        failures.append(
            f"service: {metrics['speedup_vs_naive']}x over the naive"
            f" baseline is below the required {MIN_SERVICE_SPEEDUP}x —"
            " coalescing/batching no longer pays"
        )
    if metrics["batches_flushed"] < 1:
        failures.append(
            "service: no micro-batch flushed — queries were served"
            " one-at-a-time"
        )
    if metrics["coalesced"] + metrics["lru_hits"] == 0:
        failures.append(
            "service: duplicate queries hit neither the single-flight"
            " table nor the LRU"
        )
    return failures


register_section(BenchmarkSection(
    name="service",
    title="what-if query engine: coalesced + batched serving (PR 10)",
    snapshot_key="service",
    run=run_service,
    guards=guard_service,
    gates=(
        MetricGate("reference_runtime_seconds", "exact",
                   fingerprint_scoped=False),
        MetricGate("reference_cost_dollars", "exact",
                   fingerprint_scoped=False),
        MetricGate("speedup_vs_naive", "higher", **_WALL_BAND),
        MetricGate("qps", "higher", **_WALL_BAND),
        MetricGate("wall_seconds", "lower", **_WALL_BAND),
        MetricGate("p50_ms", "lower", **_WALL_BAND),
        MetricGate("p99_ms", "lower", **_WALL_BAND),
    ),
))
