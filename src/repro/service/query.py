"""What-if query schema: validation, canonical form, fingerprints.

A query is one JSON object a client POSTs to ``/query`` (or hands to
:meth:`~repro.service.engine.QueryEngine.submit` directly).  Three kinds
cover the paper's product surface:

- ``predict`` — a model-only cloud what-if: "what does this workload
  cost on ``vcpus``/``hdfs``/``local`` machines?"  Answered on
  arrival by one call of the Eq.-1 array kernel.
- ``simulate`` — a simulation-backed cluster what-if: "what makespan
  does the discrete-event simulator give at ``(slaves, cores)``?"
  Routed to the supervised compute backend under bounded admission.
  ``cores`` is at most a Table-I node's 36 and ``slaves`` at most
  :data:`MAX_SIMULATE_SLAVES`, so an impossible node is a 400 here,
  not a simulation that fails every attempt.
- ``optimize`` — the full Section-VI grid search: "what should I buy?"
  Its ``vcpu_grid`` lists distinct n1-standard shapes (1-64 vCPUs).

``num_workers`` on predict and optimize queries has the bound
``slaves`` has, :data:`MAX_SIMULATE_SLAVES`.

Every query reduces to a **canonical dictionary** (defaults filled,
floats normalized) whose content fingerprint is the engine's identity
for the query: the in-process LRU, the single-flight table, and the
coalescing counters all key on it, so two clients asking the same
question in different field orders share one evaluation.

Shape problems raise :class:`~repro.errors.QueryError` (HTTP 400 /
exit 2) — a malformed query is the caller's mistake, never the
service's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import QueryError
from repro.pipeline.fingerprint import fingerprint

__all__ = [
    "QUERY_KINDS",
    "DEFAULT_OPTIMIZE_VCPU_GRID",
    "MAX_SIMULATE_SLAVES",
    "Query",
    "parse_query",
]

#: The query kinds the engine answers.
QUERY_KINDS = ("predict", "simulate", "optimize")

#: The CLI ``optimize`` command's vcpu grid, reused as the query default
#: so a bare optimize query matches ``repro optimize`` exactly.
DEFAULT_OPTIMIZE_VCPU_GRID = (4, 8, 16, 32)

#: Most slaves a simulate query may ask for: ten times the paper's
#: largest cluster.  Past it, a query mostly pays for idle nodes (one
#: with 20,000 slaves held a worker for 14.1 s), and at it the slowest
#: built-in, gatk4-extended at 100 x 36 on HDDs, simulates in about
#: 27 s on a 2-vCPU Xeon (docs/SERVICE.md "Sizing").  Predict and
#: optimize queries' ``num_workers`` share the bound: every distinct
#: value adds an entry to a workload's capacity table, and a count past
#: the float range overflows the array kernel.
MAX_SIMULATE_SLAVES = 100

#: Cluster disk kinds the simulator accepts (``ClusterPlatform``).
_CLUSTER_DISK_KINDS = ("hdd", "ssd")

#: Fields every kind accepts, beyond the common ``kind``/``workload``.
_FIELDS_BY_KIND = {
    "predict": {
        "vcpus", "hdfs_kind", "hdfs_gb", "local_kind", "local_gb",
        "num_workers",
    },
    "simulate": {"slaves", "cores", "hdfs", "local"},
    "optimize": {"vcpu_grid", "num_workers"},
}


@dataclass(frozen=True)
class Query:
    """One validated what-if query in canonical form.

    Fields irrelevant to the query's kind are ``None`` (or the empty
    tuple); :meth:`canonical` emits only the relevant ones, so the
    fingerprint of a predict query can never collide with a simulate
    query over the same workload.
    """

    kind: str
    workload: str
    # predict
    vcpus: int | None = None
    hdfs_kind: str | None = None
    hdfs_gb: float | None = None
    local_kind: str | None = None
    local_gb: float | None = None
    num_workers: int | None = None
    # simulate
    slaves: int | None = None
    cores: int | None = None
    hdfs: str | None = None
    local: str | None = None
    # optimize
    vcpu_grid: tuple[int, ...] = ()

    def canonical(self) -> dict:
        """The kind-relevant fields, defaults filled — the cache identity."""
        base = {"kind": self.kind, "workload": self.workload}
        if self.kind == "predict":
            base.update(
                vcpus=self.vcpus,
                hdfs_kind=self.hdfs_kind,
                hdfs_gb=self.hdfs_gb,
                local_kind=self.local_kind,
                local_gb=self.local_gb,
                num_workers=self.num_workers,
            )
        elif self.kind == "simulate":
            base.update(
                slaves=self.slaves, cores=self.cores,
                hdfs=self.hdfs, local=self.local,
            )
        else:  # optimize
            base.update(
                vcpu_grid=list(self.vcpu_grid),
                num_workers=self.num_workers,
            )
        return base

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the canonical form."""
        return fingerprint(self.canonical())


def _require(payload: dict, field: str, where: str):
    if field not in payload:
        raise QueryError(f"{where}: missing required field {field!r}")
    return payload[field]


def _as_int(
    value, field: str, where: str, minimum: int = 1, maximum: int | None = None
) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        else:
            raise QueryError(f"{where}: {field} must be an integer, got {value!r}")
    if value < minimum:
        raise QueryError(f"{where}: {field} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise QueryError(f"{where}: {field} must be <= {maximum}, got {value}")
    return value


def _as_size(value, field: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QueryError(f"{where}: {field} must be a number, got {value!r}")
    # ``json.loads`` accepts NaN, Infinity and integers past the float
    # range; none of them is a disk size.
    try:
        size = float(value)
    except OverflowError:
        size = math.inf
    if not math.isfinite(size):
        raise QueryError(f"{where}: {field} must be finite, got {size}")
    if size <= 0:
        raise QueryError(f"{where}: {field} must be positive, got {value}")
    return size


def _as_choice(value, field: str, where: str, choices) -> str:
    # A list or object value must not reach the membership test: the
    # disk catalogue is a dict, and an unhashable key would raise.
    if not isinstance(value, str) or value not in choices:
        raise QueryError(
            f"{where}: {field} must be one of {sorted(choices)}, got {value!r}"
        )
    return value


def parse_query(payload, known_workloads=None) -> Query:
    """Validate a raw payload into a :class:`Query`.

    ``known_workloads``, when given, is the set of workload names the
    engine serves; a query naming anything else is rejected here (the
    400 path) instead of surfacing as a server-side failure later.
    """
    where = "query"
    if not isinstance(payload, dict):
        raise QueryError(f"{where} must be a JSON object, got {type(payload).__name__}")
    kind = _require(payload, "kind", where)
    if kind not in QUERY_KINDS:
        raise QueryError(
            f"{where}: unknown kind {kind!r}; expected one of {list(QUERY_KINDS)}"
        )
    where = f"{kind} query"
    workload = _require(payload, "workload", where)
    if not isinstance(workload, str) or not workload:
        raise QueryError(f"{where}: workload must be a non-empty string")
    if known_workloads is not None and workload not in known_workloads:
        raise QueryError(
            f"{where}: unknown workload {workload!r};"
            f" serving {sorted(known_workloads)}"
        )
    unknown = set(payload) - {"kind", "workload"} - _FIELDS_BY_KIND[kind]
    if unknown:
        raise QueryError(f"{where} has unknown field(s) {sorted(unknown)}")

    if kind == "predict":
        # The cloud disk catalogue: validated against the real spec table
        # so the 400 message lists exactly what the optimizer can price.
        from repro.cloud.disks import SPEC_BY_KIND

        return Query(
            kind=kind,
            workload=workload,
            vcpus=_as_int(_require(payload, "vcpus", where), "vcpus", where),
            hdfs_kind=_as_choice(
                _require(payload, "hdfs_kind", where), "hdfs_kind", where,
                SPEC_BY_KIND,
            ),
            hdfs_gb=_as_size(_require(payload, "hdfs_gb", where), "hdfs_gb", where),
            local_kind=_as_choice(
                _require(payload, "local_kind", where), "local_kind", where,
                SPEC_BY_KIND,
            ),
            local_gb=_as_size(
                _require(payload, "local_gb", where), "local_gb", where
            ),
            num_workers=_as_int(
                payload.get("num_workers", 10), "num_workers", where,
                maximum=MAX_SIMULATE_SLAVES,
            ),
        )
    if kind == "simulate":
        # Every simulated node is a Table-I node (36 cores).
        from repro.cluster.cluster import PAPER_CORES_PER_NODE

        return Query(
            kind=kind,
            workload=workload,
            slaves=_as_int(
                _require(payload, "slaves", where), "slaves", where,
                maximum=MAX_SIMULATE_SLAVES,
            ),
            cores=_as_int(
                _require(payload, "cores", where), "cores", where,
                maximum=PAPER_CORES_PER_NODE,
            ),
            hdfs=_as_choice(
                payload.get("hdfs", "ssd"), "hdfs", where, _CLUSTER_DISK_KINDS
            ),
            local=_as_choice(
                payload.get("local", "ssd"), "local", where, _CLUSTER_DISK_KINDS
            ),
        )
    # optimize
    grid = payload.get("vcpu_grid", list(DEFAULT_OPTIMIZE_VCPU_GRID))
    if not isinstance(grid, (list, tuple)) or not grid:
        raise QueryError(f"{where}: vcpu_grid must be a non-empty list")
    vcpu_grid = tuple(
        _as_int(value, "vcpu_grid entry", where) for value in grid
    )
    # Distinct catalogue shapes only, which bounds a search at 7 x 400
    # candidates: the engine runs grid searches on its event loop.
    from repro.cloud.instance import N1_STANDARD

    shapes = [machine.vcpus for machine in N1_STANDARD]
    for value in vcpu_grid:
        if value not in shapes:
            raise QueryError(
                f"{where}: vcpu_grid entry {value} is not an n1-standard"
                f" shape; expected one of {shapes}"
            )
    if len(set(vcpu_grid)) != len(vcpu_grid):
        raise QueryError(
            f"{where}: vcpu_grid repeats an entry: {list(vcpu_grid)}"
        )
    return Query(
        kind=kind,
        workload=workload,
        vcpu_grid=vcpu_grid,
        num_workers=_as_int(
            payload.get("num_workers", 10), "num_workers", where,
            maximum=MAX_SIMULATE_SLAVES,
        ),
    )
