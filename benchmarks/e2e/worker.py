"""One round of an end-to-end benchmark workload, in a process of its own.

``run.py`` starts ``python benchmarks/e2e/worker.py WORKLOAD PARAMS`` with
``PYTHONPATH=src``.  The round sets up, prints ``ready``, runs its timed
operations, checks their answers and prints its result as one JSON line.
PARAMS is a JSON object: ``seed``, ``trace`` (install the span wrappers),
``spool`` (a directory of the round's own, for worker spans and cache
files), ``stem`` (where a traced round writes its trace and layer
table) and ``check_cells`` (also recompute sweep cells serially).

``worker.py verify-service`` instead reads a sample of service-mix
queries and answers from stdin and re-derives each answer through the
library calls the service claims to match.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

import calibrate
import workloads as bench

EXPECTED = Path(__file__).with_name("expected.json")


def expected(workload: str) -> dict:
    """This workload's reference answers from ``expected.json``."""
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text()).get(workload, {})


def environment() -> dict:
    from repro.model.arrays import backend_name

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "backend": backend_name()}


class Round:
    """The timed operations of one round, and what went wrong in them.

    ``meter`` (untraced rounds) has probed the host's speed since the
    process started; it stops when the timed phase ends.
    """

    def __init__(self, params: dict, meter: calibrate.Meter | None = None) -> None:
        self.params = params
        self.meter = meter
        self.collector = None
        self.missing: list[str] = []
        if params.get("trace"):
            import repro.cli  # noqa: F401 - loads every module the wrappers patch
            import spans

            self.collector, self.missing = spans.install(Path(params["spool"]))
        self.ops: list[list] = []
        self.failures: list[str] = []
        self.checks = 0
        self.wall = None
        self.root = None

    def ready(self) -> None:
        print("ready", flush=True)

    @contextmanager
    def timed(self):
        start = time.perf_counter()
        if self.collector is None:
            yield
        else:
            with self.collector.span("root") as root:
                self.root = root
                yield
        self.wall = time.perf_counter() - start
        if self.meter is not None:
            self.meter.stop()

    def op(self, label: str, fn, *args, **kwargs):
        """Run and time one operation; a raising one counts as failed.

        In a traced round the operation's spans share its index as trace.
        """
        token = None
        if self.collector is not None:
            token = self.collector.trace.set(f"op-{len(self.ops)}")
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted, and the round goes on
            traceback.print_exc()
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            result = None
        finally:
            if token is not None:
                self.collector.trace.reset(token)
        self.ops.append([label, time.perf_counter() - start])
        return result

    def check(self, label: str, ok: bool) -> None:
        """A correctness check beyond the operations' own answers."""
        self.checks += 1
        if not ok:
            self.failures.append(label)

    def compare(self, answers: dict, reference: dict) -> None:
        # Round-trip through JSON so tuples compare equal to lists.
        self.failures += bench.mismatches(json.loads(json.dumps(answers)), reference)

    def finish(self, **extra) -> None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = {
            "wall_s": self.wall, "ops": self.ops,
            "attempted": len(self.ops) + self.checks, "failures": self.failures,
            "peak_rss_mb": peak_rss_mb, "env": environment(), **extra,
        }
        if self.meter is not None:
            result.update(self.meter.reading())
        if self.collector is not None:
            import spans

            result["layers"] = spans.finish(
                self.collector, self.root, Path(self.params["stem"])
            )
            result["missing_targets"] = self.missing
        print(json.dumps(result), flush=True)


def measurement_answer(measurement) -> dict:
    return {
        "total_seconds": measurement.total_seconds,
        "stages": [[stage.name, stage.makespan] for stage in measurement.stages],
    }


def sim_paper(run: Round) -> None:
    """Cold ``repro simulate`` at paper scale, one op per configuration."""
    from repro.cli import WORKLOADS
    from repro.pipeline import ClusterPlatform, Experiment, ResultCache

    specs = {app: WORKLOADS[app]() for app, _, _ in bench.SIM_PAPER_OPS}
    reference = expected("sim-paper")

    def simulate(app, hdfs, local):
        platform_ = ClusterPlatform(hdfs_kind=hdfs, local_kind=local)
        experiment = Experiment(specs[app], platform_, cache=ResultCache())
        return measurement_answer(experiment.measure(*bench.PAPER_SHAPE))

    run.ready()
    answers = {}
    with run.timed():
        for app, hdfs, local in bench.SIM_PAPER_OPS:
            label = bench.sim_label(app, hdfs, local)
            answer = run.op(label, simulate, app, hdfs, local)
            if answer is not None:
                answers[label] = answer
    run.compare(answers, reference)
    run.finish(answers=answers)


def plan_cold(run: Round) -> None:
    """``repro optimize --workload APP`` from a cold start, one op per app."""
    from repro.cli import WORKLOADS
    from repro.cloud import (
        CostOptimizer,
        r1_spark_recommendation,
        r2_cloudera_recommendation,
    )
    from repro.pipeline import ClusterPlatform, Experiment, ResultCache, SpecSource

    specs = {app: WORKLOADS[app]() for app in bench.PLAN_APPS}
    reference = expected("plan-cold")
    nodes = bench.PLAN_NODES

    def plan(spec):
        cache = ResultCache()
        experiment = Experiment(
            SpecSource(spec, profile_nodes=3), ClusterPlatform(), cache=cache
        )
        hdfs_gb, local_gb = CostOptimizer.capacity_requirements(spec, num_workers=nodes)
        optimizer = CostOptimizer(
            experiment.predictor, num_workers=nodes,
            min_hdfs_gb=hdfs_gb, min_local_gb=local_gb, cache=cache,
        )
        result = optimizer.grid_search(vcpu_grid=bench.PLAN_VCPU_GRID)
        r1 = optimizer.evaluate(r1_spark_recommendation(num_workers=nodes))
        r2 = optimizer.evaluate(r2_cloudera_recommendation(num_workers=nodes))
        return {
            "optimum": result.best.config.label(),
            "cost_dollars": result.best.cost_dollars,
            "r1_cost_dollars": r1.cost_dollars,
            "r2_cost_dollars": r2.cost_dollars,
        }

    run.ready()
    answers = {}
    with run.timed():
        for app in bench.PLAN_APPS:
            answer = run.op(app, plan, specs[app])
            if answer is not None:
                answers[app] = answer
    run.compare(answers, reference)
    run.finish(answers=answers)


def sweep_cache(run: Round) -> None:
    """``repro pipeline --cache FILE --workers 2`` cold, then warm re-runs."""
    from repro.cli import WORKLOADS
    from repro.pipeline import (
        ClusterPlatform,
        Experiment,
        ResolvedSource,
        ResultCache,
        SpecSource,
    )

    seed = run.params["seed"]
    hdfs, local = bench.SWEEP_DISKS
    platform_ = ClusterPlatform(hdfs_kind=hdfs, local_kind=local)
    grid = {
        "nodes": bench.SWEEP_NODES, "cores_per_node": bench.SWEEP_CORES,
        "run_indices": bench.sweep_run_indices(seed),
        "workers": min(2, len(os.sched_getaffinity(0))),
    }
    path = Path(run.params["spool"]) / "cache.json"
    cache = ResultCache(path)
    experiments = {
        app: Experiment(SpecSource(WORKLOADS[app]()), platform_, cache=cache)
        for app in bench.SWEEP_APPS
    }
    for experiment in experiments.values():
        experiment.resolved  # profiling is set-up here; plan-cold times it

    def warm_passes():
        """Every pass re-reads the file; every 20th pass is kept to check."""
        kept = []
        for index in range(bench.WARM_PASSES):
            reread = ResultCache(path)
            grids = {
                app: Experiment(SpecSource(WORKLOADS[app]()), platform_, cache=reread)
                .run_grid(**grid)
                for app in bench.SWEEP_APPS
            }
            if index % 20 == 0:
                kept.append(grids)
        return kept

    run.ready()
    with run.timed():
        cold = {
            app: run.op(f"cold:{app}", experiment.run_grid, **grid)
            for app, experiment in experiments.items()
        }
        warm = run.op("warm", warm_passes) or []

    def records(grids):
        return {app: [result.to_dict() for result in results or ()]
                for app, results in grids.items()}

    cold_records = records(cold)
    for grids in warm:
        run.check("a warm pass's records differ from the cold grid's",
                  records(grids) == cold_records)
    if run.params.get("check_cells"):
        for app, n, p, r in bench.sweep_check_cells(seed):
            resolved = experiments[app].resolved
            fresh = Experiment(ResolvedSource(resolved.spec, resolved.report), platform_)
            record = fresh.run(n, p, run_index=r).to_dict()
            run.check(f"serial cell {app} N={n} P={p} run={r} differs from the grid",
                      record in cold_records[app])
    run.finish()


def verify_service() -> None:
    """Re-derive sampled service answers through the library, bit for bit."""
    from repro.cli import WORKLOADS
    from repro.cloud import CostOptimizer
    from repro.core.predictor import Predictor
    from repro.pipeline import ClusterPlatform, Experiment, SpecSource

    predictors: dict = {}

    def optimizer(app, spec, workers):
        if app not in predictors:
            report = SpecSource(spec, profile_nodes=3).resolve().report
            predictors[app] = Predictor(report)
        hdfs_gb, local_gb = CostOptimizer.capacity_requirements(spec, num_workers=workers)
        return CostOptimizer(predictors[app], num_workers=workers,
                             min_hdfs_gb=hdfs_gb, min_local_gb=local_gb)

    def derive(query, answer):
        spec = WORKLOADS[query["workload"]]()
        if query["kind"] == "predict":
            scorer = optimizer(query["workload"], spec, query["num_workers"])
            evaluated = scorer.evaluate(scorer.make_config(
                query["vcpus"], query["hdfs_kind"], query["hdfs_gb"],
                query["local_kind"], query["local_gb"],
            ))
            want = [evaluated.runtime_seconds, evaluated.cost_dollars]
            got = [answer["runtime_seconds"], answer["cost_dollars"]]
        elif query["kind"] == "optimize":
            best = optimizer(query["workload"], spec, query["num_workers"]).grid_search(
                vcpu_grid=tuple(query["vcpu_grid"])
            ).best
            want = [best.config.label(), best.runtime_seconds, best.cost_dollars]
            got = [answer["best"]["config"]["label"],
                   answer["best"]["runtime_seconds"], answer["best"]["cost_dollars"]]
        else:
            platform_ = ClusterPlatform(hdfs_kind=query["hdfs"], local_kind=query["local"])
            want = measurement_answer(
                Experiment(spec, platform_).measure(query["slaves"], query["cores"])
            )
            got = {
                "total_seconds": answer["total_seconds"],
                "stages": [[stage["name"], stage["makespan_seconds"]]
                           for stage in answer["stages"]],
            }
        return got == want

    failures = []
    for item in json.load(sys.stdin):
        try:
            ok = derive(item["query"], item["answer"])
        except Exception as exc:  # noqa: BLE001 - a wrong answer, counted
            ok = False
            traceback.print_exc()
            item["error"] = f"{type(exc).__name__}: {exc}"
        if not ok:
            failures.append(f"service answer differs from the library: {item}")
    print(json.dumps({"failures": failures}), flush=True)


ROUNDS = {"sim-paper": sim_paper, "plan-cold": plan_cold, "sweep-cache": sweep_cache}

if __name__ == "__main__":
    if sys.argv[1] == "verify-service":
        verify_service()
    else:
        params = json.loads(sys.argv[2])
        meter = None if params["trace"] else calibrate.Meter().start()
        ROUNDS[sys.argv[1]](Round(params, meter))
