"""The service's reference answer, pinned float for float.

The first query of the seeded SVM load mix asks for the runtime and
cost of 4 vCPUs x 10 workers with a 512 GB pd-standard HDFS disk and a
1024 GB pd-ssd local disk.  A :class:`QueryEngine` and a direct
:meth:`CostOptimizer.evaluate` on the same profiling report must both
answer with the recorded floats.
"""

import asyncio

from repro.cloud.optimizer import CostOptimizer
from repro.core.predictor import Predictor
from repro.pipeline import ResultCache, SpecSource
from repro.service import QueryEngine
from repro.service.loadgen import build_queries
from repro.workloads import make_svm_workload

RUNTIME_SECONDS = 1492.6446198078636
COST_DOLLARS = 1.8920851290442253


def test_reference_query_answer_is_unchanged():
    spec = make_svm_workload()
    query = build_queries("svm", distinct=24, duplicates=5)[0]
    assert query == {
        "kind": "predict", "workload": "svm", "vcpus": 4,
        "hdfs_kind": "pd-standard", "hdfs_gb": 512.0,
        "local_kind": "pd-ssd", "local_gb": 1024.0, "num_workers": 10,
    }
    cache = ResultCache()

    async def serve() -> dict:
        async with QueryEngine({"svm": spec}, cache=cache) as engine:
            return await engine.submit(query)

    served = asyncio.run(serve())
    assert served["runtime_seconds"] == RUNTIME_SECONDS
    assert served["cost_dollars"] == COST_DOLLARS

    report = SpecSource(spec, profile_nodes=3).resolve(cache).report
    min_hdfs, min_local = CostOptimizer.capacity_requirements(spec, num_workers=10)
    optimizer = CostOptimizer(
        Predictor(report), num_workers=10,
        min_hdfs_gb=min_hdfs, min_local_gb=min_local,
    )
    direct = optimizer.evaluate(
        optimizer.make_config(4, "pd-standard", 512.0, "pd-ssd", 1024.0)
    )
    assert direct.runtime_seconds == RUNTIME_SECONDS
    assert direct.cost_dollars == COST_DOLLARS
