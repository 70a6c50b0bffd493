"""Array-native Equation-1 kernel: score whole candidate grids at once.

The scalar model stack builds, per candidate, two bandwidth tables, one
:class:`~repro.core.stage_model.StageModel` per stage, and a prediction
object — fine for a single what-if, ruinous for the optimizer's grids.  This module scores a **struct-of-arrays batch**
instead: it calls the stage model's own term functions
(:func:`~repro.core.stage_model.scale_term` and
:func:`~repro.core.stage_model.limit_term`) once per *unique* operating
point of the batch, then gathers the terms per candidate, takes their
max and sums it over the stages.

:class:`Eq1BatchEvaluator` is the one scorer: the optimizer's
exhaustive grid search, the Fig. 14 disk-size series and the service's
predict queries all score the exact model through it.

Exactness contract
------------------
:meth:`Eq1BatchEvaluator.score` reproduces the scalar path
(``Predictor.model_for_devices`` → ``ApplicationModel.predict``) **bit
for bit**, not approximately:

- Every Eq.-1 term comes from the function the scalar model calls, with
  the same inputs; identical inputs through identical code give
  identical floats.
- The kernel's own arithmetic is only the per-disk ``sum(D / BW)``
  (accumulated in channel order), the maxes over roles and over the
  three terms, the left-fold sum over stages, and pricing — each in
  the scalar model's order.
- The only transcendental arithmetic in the stack — the log-log
  interpolation inside :class:`~repro.core.bandwidth.EffectiveBandwidthTable`
  — is **never vectorized**.  Per-channel bandwidths are computed once
  per unique ``(disk kind, size)`` through the very same scalar table
  code the predictor uses (:func:`~repro.cloud.disks.make_persistent_disk`
  plus ``StorageDevice.bandwidth``), memoized, and gathered into the
  batch.

The kernel is pure Python (:mod:`array` columns and per-unique-key memo
tables) and has no dependencies; ``tests/properties/test_vectorized.py``
pins its exactness.

See ``docs/MODEL.md`` ("Array model core") for the batch layout and the
full equivalence argument, and ``docs/PERFORMANCE.md`` for measured
throughput.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.predictor import target_channels
from repro.core.stage_model import limit_term, scale_term
from repro.errors import ConfigurationError, ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.pricing import CloudConfiguration
    from repro.core.profiler import ProfilingReport

# The cloud-layer helpers (device factories, pricing) are imported
# lazily inside the functions that memoize their results:
# ``repro.cloud.__init__`` itself imports this module (via
# ``optimizer``), so a module-level import here would be circular
# whenever the model package loads first.

__all__ = [
    "BatchScores",
    "CandidateBatch",
    "Eq1BatchEvaluator",
    "backend_name",
]

#: Disk roles a candidate provisions devices for.
_DISK_ROLES = ("hdfs", "local")


def backend_name() -> str:
    """The kernel's backend label, kept for run records: always ``"python"``."""
    return "python"


# -- the batch ----------------------------------------------------------------


@dataclass(frozen=True)
class CandidateBatch:
    """A struct-of-arrays grid of candidate operating points.

    Parallel tuples, one entry per candidate: cluster shape ``(N, P)``
    plus the provisioned HDFS and Spark-local disks.  ``vcpus`` carries
    the machine shape used for pricing; it may be ``None`` for
    model-only batches (e.g. core-count sweeps whose ``P`` is not a
    valid machine size), whose scores then carry no cost.
    """

    nodes: tuple[int, ...]
    cores: tuple[int, ...]
    hdfs_kinds: tuple[str, ...]
    hdfs_sizes_gb: tuple[float, ...]
    local_kinds: tuple[str, ...]
    local_sizes_gb: tuple[float, ...]
    vcpus: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        columns = {
            "nodes": tuple(self.nodes),
            "cores": tuple(self.cores),
            "hdfs_kinds": tuple(self.hdfs_kinds),
            "hdfs_sizes_gb": tuple(self.hdfs_sizes_gb),
            "local_kinds": tuple(self.local_kinds),
            "local_sizes_gb": tuple(self.local_sizes_gb),
        }
        if self.vcpus is not None:
            columns["vcpus"] = tuple(self.vcpus)
        for name, column in columns.items():
            object.__setattr__(self, name, column)
        lengths = {len(column) for column in columns.values()}
        if len(lengths) > 1:
            raise ModelError(
                "batch columns must have equal lengths, got "
                + ", ".join(f"{k}={len(v)}" for k, v in columns.items())
            )
        if self.nodes:
            if min(self.nodes) <= 0 or min(self.cores) <= 0:
                raise ModelError("node and core counts must be positive")
            if min(self.hdfs_sizes_gb) <= 0 or min(self.local_sizes_gb) <= 0:
                raise ConfigurationError("disk sizes must be positive")

    def __len__(self) -> int:
        return len(self.nodes)

    @classmethod
    def from_configs(
        cls, configs: Iterable[CloudConfiguration]
    ) -> CandidateBatch:
        """Column-major view of cloud configurations (``P`` = machine vCPUs)."""
        configs = tuple(configs)
        return cls(
            nodes=tuple(c.num_workers for c in configs),
            cores=tuple(c.cores_per_node for c in configs),
            hdfs_kinds=tuple(c.hdfs_disk_kind for c in configs),
            hdfs_sizes_gb=tuple(c.hdfs_disk_gb for c in configs),
            local_kinds=tuple(c.local_disk_kind for c in configs),
            local_sizes_gb=tuple(c.local_disk_gb for c in configs),
            vcpus=tuple(c.machine.vcpus for c in configs),
        )


@dataclass(frozen=True)
class BatchScores:
    """Parallel score arrays for one :class:`CandidateBatch`.

    ``runtime_seconds[i]`` is ``t_app`` for candidate ``i``;
    ``cost_dollars`` follows the Section-VI pricing, or is ``None`` when
    the batch has no ``vcpus``.  Both are :mod:`array` columns of
    doubles.
    """

    runtime_seconds: Sequence[float]
    cost_dollars: Sequence[float] | None

    def __len__(self) -> int:
        return len(self.runtime_seconds)


# -- stage channels -----------------------------------------------------------


def _group_channels(channels, groups):
    """Group one direction's channels by role, appending to ``groups``.

    Returns ``(group_id, use_hdfs)`` pairs.  Channel order is preserved
    within each role (the scalar model sums ``D/BW`` in channel order)
    and roles keep first-appearance order (its per-device dict iterates
    insertion order before the max).
    """
    by_role: dict[str, list] = {}
    for channel in channels:
        by_role.setdefault(channel.role, []).append(
            (channel.total_bytes, channel.request_size, channel.is_write)
        )
    made = []
    for role, members in by_role.items():
        made.append((len(groups), role == "hdfs"))
        groups.append(tuple(members))
    return tuple(made)


def _role_groups(stage, groups) -> tuple:
    """``(stage, read_groups, write_groups)`` for one profiled stage.

    Channels bind exactly as ``Predictor.model_for_devices`` binds them
    against ``{"hdfs", "local"}`` devices (:func:`target_channels`).
    """
    channels = target_channels(stage, _DISK_ROLES)
    reads = [channel for channel in channels if not channel.is_write]
    writes = [channel for channel in channels if channel.is_write]
    return (
        stage,
        _group_channels(reads, groups),
        _group_channels(writes, groups),
    )


def _limit_table(direction_groups, fill, delta, io_list, limits):
    """One direction's limit term per unique ``(hdfs, local, N)`` key."""
    table = []
    for h, lo, node in io_list:
        # Slowest role.  Every group moves bytes, so its sum(D / BW) is
        # positive and starting the max at 0.0 gives the scalar max.
        per_node = 0.0
        for gid, use_hdfs in direction_groups:
            limit = limits[h][gid] if use_hdfs else limits[lo][gid]
            if limit > per_node:
                per_node = limit
        table.append(limit_term(per_node, node, fill, delta))
    return table


# -- the evaluator ------------------------------------------------------------


class Eq1BatchEvaluator:
    """Bit-exact batch form of the scalar Eq.-1 prediction stack.

    Built once from a profiling report; each :meth:`score` call
    evaluates every candidate in a :class:`CandidateBatch` and returns
    :class:`BatchScores` whose runtimes and costs equal the scalar
    ``Predictor`` / ``CostOptimizer.evaluate`` outputs exactly (see the
    module docstring for why).  Per-disk bandwidth limits and prices are
    memoized across calls, so reusing one evaluator also reuses its
    tables.
    """

    def __init__(self, report: ProfilingReport) -> None:
        self.report = report
        groups: list = []
        self._stages = tuple(
            _role_groups(stage, groups) for stage in report.stages
        )
        self._groups = tuple(groups)
        self._limits_cache: dict[tuple, tuple[float, ...]] = {}
        self._disk_cost_cache: dict[tuple, float] = {}
        self._price_cache: dict[int, float] = {}

    # per-unique-spec tables ------------------------------------------------

    def _limits(self, spec: tuple) -> tuple[float, ...]:
        """Per-group ``sum(D / BW)`` seconds for one ``(kind, size_gb)``.

        Builds the disk's bandwidth tables through the same scalar code
        path the predictor uses and accumulates in channel order — so
        the floats match the scalar model's bit for bit.
        """
        cached = self._limits_cache.get(spec)
        if cached is None:
            from repro.cloud.disks import make_persistent_disk

            device = make_persistent_disk(*spec)
            out = []
            for channels in self._groups:
                total = 0.0
                for total_bytes, request_size, is_write in channels:
                    total += total_bytes / device.bandwidth(request_size, is_write)
                out.append(total)
            cached = self._limits_cache[spec] = tuple(out)
        return cached

    def _disk_cost(self, spec: tuple) -> float:
        cached = self._disk_cost_cache.get(spec)
        if cached is None:
            from repro.cloud.pricing import disk_cost_per_hour

            cached = self._disk_cost_cache[spec] = disk_cost_per_hour(*spec)
        return cached

    def _price(self, vcpus: int) -> float:
        cached = self._price_cache.get(vcpus)
        if cached is None:
            from repro.cloud.instance import machine_for_vcpus

            cached = self._price_cache[vcpus] = machine_for_vcpus(
                vcpus
            ).price_per_hour
        return cached

    # scoring ---------------------------------------------------------------

    def score(self, batch: CandidateBatch) -> BatchScores:
        """Score every candidate; costs exactly when ``batch`` has ``vcpus``."""
        n = len(batch)
        # One pass over the batch building unique-key index columns:
        # disk specs, (N, P) operating points, (hdfs, local, N) I/O
        # points, and (vcpus, I/O point) price points.  All downstream
        # arithmetic then runs once per *unique* key and is gathered —
        # exact, because identical inputs through identical float
        # operations give identical results.
        spec_map: dict = {}
        spec_list: list[tuple] = []
        nc_map: dict = {}
        nc_list: list[tuple] = []
        nc_ids: list[int] = []
        io_map: dict = {}
        io_list: list[tuple] = []
        io_ids: list[int] = []
        rate_map: dict = {}
        rate_list: list[tuple] = []
        rate_ids: list[int] = []
        vcpus = batch.vcpus
        rows = zip(batch.nodes, batch.cores, batch.hdfs_kinds,
                   batch.hdfs_sizes_gb, batch.local_kinds,
                   batch.local_sizes_gb)
        for i, (node, core, hk, hg, lk, lg) in enumerate(rows):
            key = (hk, hg)
            h = spec_map.get(key)
            if h is None:
                h = spec_map[key] = len(spec_list)
                spec_list.append(key)
            key = (lk, lg)
            lo = spec_map.get(key)
            if lo is None:
                lo = spec_map[key] = len(spec_list)
                spec_list.append(key)
            key = (node, core)
            a = nc_map.get(key)
            if a is None:
                a = nc_map[key] = len(nc_list)
                nc_list.append(key)
            nc_ids.append(a)
            key = (h, lo, node)
            b = io_map.get(key)
            if b is None:
                b = io_map[key] = len(io_list)
                io_list.append(key)
            io_ids.append(b)
            if vcpus is not None:
                key = (vcpus[i], b)
                r = rate_map.get(key)
                if r is None:
                    r = rate_map[key] = len(rate_list)
                    rate_list.append((vcpus[i], h, lo, node))
                rate_ids.append(r)

        limits = [self._limits(spec) for spec in spec_list]
        total = [0.0] * n
        for stage, read_groups, write_groups in self._stages:
            ts_tab = [scale_term(stage, node, core) for node, core in nc_list]
            tr_tab = _limit_table(
                read_groups, stage.fill_seconds, stage.delta_read,
                io_list, limits,
            )
            tw_tab = _limit_table(
                write_groups, stage.fill_seconds, stage.delta_write,
                io_list, limits,
            )
            # Gather: the max of the three terms, accumulated into t_app.
            for i in range(n):
                ts = ts_tab[nc_ids[i]]
                b = io_ids[i]
                tr = tr_tab[b]
                tw = tw_tab[b]
                if tr > ts:
                    ts = tr
                if tw > ts:
                    ts = tw
                total[i] += ts
        cost = None
        if vcpus is not None:
            # One price per vCPU shape and one per disk spec, summed in
            # ``CloudConfiguration.hourly_rate``'s order.
            prices = {v: self._price(v) for v in dict.fromkeys(vcpus)}
            disk_costs = [self._disk_cost(spec) for spec in spec_list]
            rate_tab = [
                (prices[v] + disk_costs[h] + disk_costs[lo]) * node
                for v, h, lo, node in rate_list
            ]
            cost = array("d", [
                rate_tab[r] * t / 3600.0 for r, t in zip(rate_ids, total)
            ])
        return BatchScores(runtime_seconds=array("d", total), cost_dollars=cost)
