"""Optimizer-as-a-service: the concurrent what-if query engine.

``repro.service`` turns the library's one-shot entry points
(:class:`~repro.pipeline.experiment.Experiment`,
:class:`~repro.cloud.optimizer.CostOptimizer`) into a long-running
query engine with a thin HTTP/JSON front (``python -m repro serve``).
The layers, bottom up:

- :mod:`repro.service.query` — the query schema: validation, canonical
  form, content fingerprints.
- :mod:`repro.service.engine` — the read path: a predict is scored on
  arrival; a simulate goes LRU → persistent
  :class:`~repro.pipeline.cache.ResultCache` → coalesced,
  admission-bounded compute.
- :mod:`repro.service.http` — the stdlib ``asyncio.start_server``
  front: ``POST /query``, ``GET /stats``, ``GET /healthz``.
- :mod:`repro.service.loadgen` — the load generator behind
  ``repro loadgen`` and the CI smoke test.

Semantics, limits, and the exit-code/HTTP-status mapping are documented
in ``docs/SERVICE.md``.
"""

from repro.cloud.pricing import config_dict
from repro.service.engine import QueryEngine
from repro.service.http import QueryServer, serve
from repro.service.query import (
    DEFAULT_OPTIMIZE_VCPU_GRID,
    QUERY_KINDS,
    Query,
    parse_query,
)

__all__ = [
    "DEFAULT_OPTIMIZE_VCPU_GRID",
    "QUERY_KINDS",
    "Query",
    "QueryEngine",
    "QueryServer",
    "config_dict",
    "parse_query",
    "serve",
]
