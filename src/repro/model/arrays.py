"""Array-native Equation-1 kernel: score whole candidate grids at once.

The scalar model stack builds, per candidate, two bandwidth tables, a
resource registry, one :class:`~repro.core.stage_model.StageModel` per
stage, and a prediction object — fine for a single what-if, ruinous for
the optimizer's grids.  This module evaluates the same closed-form
arithmetic over a **struct-of-arrays batch**: per stage, Equation 1 is a
max of three affine terms in ``(M, N, P, BW)``, so a whole grid reduces
to a handful of elementwise array operations plus small per-unique-disk
lookup tables.

:class:`Eq1BatchEvaluator` is the one scorer: the optimizer's
exhaustive grid search, its descent rounds, the core sweeps and the
service's micro-batches all score the exact model through it.

Exactness contract
------------------
``score_batch`` reproduces the scalar path (``Predictor.model_for_devices``
→ ``ApplicationModel.predict``) **bit for bit**, not approximately:

- Every candidate-varying operation is an elementwise IEEE-754 double
  add/mul/div/compare performed in the scalar model's exact order
  (including clamp semantics, left-fold summation orders, and the
  first-maximal tie-break for bottleneck labels).  Those operations are
  identical between CPython floats and numpy float64, so both backends
  agree bitwise with the scalar model and with each other.
- The only transcendental arithmetic in the stack — the log-log
  interpolation inside :class:`~repro.core.bandwidth.EffectiveBandwidthTable`
  — is **never vectorized**.  Per-channel bandwidths are computed once
  per unique ``(disk kind, size)`` through the very same scalar table
  code the predictor uses (:func:`~repro.cloud.disks.make_persistent_disk`
  plus ``StorageDevice.bandwidth``), memoized, and gathered into the
  batch.  Identical inputs through identical code give identical floats.

Backends
--------
numpy is used when importable (install the ``fast`` extra); otherwise a
pure-Python fallback built on :mod:`array` and per-unique-key memo tables
runs with zero dependencies.  ``backend_name()`` reports which one is
active; the ``REPRO_ARRAYS_BACKEND`` environment variable (``auto`` /
``numpy`` / ``python``) or a per-call ``backend=`` argument overrides the
choice.  Either way the results are bitwise identical (see above), which
``tests/properties/test_vectorized.py`` pins.

See ``docs/MODEL.md`` ("Array model core") for the batch layout and the
full equivalence argument, and ``docs/PERFORMANCE.md`` for measured
throughput.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.stage_model import BOTTLENECK_LABELS
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
    "BOTTLENECK_LABELS",
    "BACKEND_ENV_VAR",
    "BatchScores",
    "CandidateBatch",
    "Eq1BatchEvaluator",
    "backend_name",
    "score_batch",
]

#: Environment variable selecting the array backend.
BACKEND_ENV_VAR = "REPRO_ARRAYS_BACKEND"

#: Disk roles a candidate provisions devices for.
_DISK_ROLES = ("hdfs", "local")

_UNSET = object()
_NUMPY = _UNSET


def _numpy():
    """The numpy module, or ``None`` when it is not installed."""
    global _NUMPY
    if _NUMPY is _UNSET:
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
            numpy = None
        _NUMPY = numpy
    return _NUMPY


def _resolve_backend(backend: str | None):
    """Map a backend request to the numpy module or ``None`` (pure Python)."""
    choice = backend or os.environ.get(BACKEND_ENV_VAR) or "auto"
    if choice == "auto":
        return _numpy()
    if choice == "python":
        return None
    if choice == "numpy":
        module = _numpy()
        if module is None:
            raise ConfigurationError(
                "array backend 'numpy' requested but numpy is not installed"
                " (pip install 'doppio-repro[fast]')"
            )
        return module
    raise ConfigurationError(
        f"unknown array backend {choice!r}; expected 'auto', 'numpy' or 'python'"
    )


def backend_name(backend: str | None = None) -> str:
    """Which kernel backend is active: ``"numpy"`` or ``"python"``."""
    return "numpy" if _resolve_backend(backend) is not None else "python"


# -- the batch ----------------------------------------------------------------


@dataclass(frozen=True)
class CandidateBatch:
    """A struct-of-arrays grid of candidate operating points.

    Parallel tuples, one entry per candidate: cluster shape ``(N, P)``
    plus the provisioned HDFS and Spark-local disks.  ``vcpus`` carries
    the machine shape used for pricing; it may be ``None`` for
    model-only batches (e.g. core-count sweeps whose ``P`` is not a
    valid machine size), in which case cost scoring is unavailable.
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

    def config(self, index: int) -> CloudConfiguration:
        """Materialize candidate ``index`` back into a scalar configuration."""
        if self.vcpus is None:
            raise ModelError(
                "batch carries no machine vcpus; build it with vcpus to"
                " materialize cloud configurations"
            )
        from repro.cloud.instance import machine_for_vcpus
        from repro.cloud.pricing import CloudConfiguration

        return CloudConfiguration(
            machine=machine_for_vcpus(self.vcpus[index]),
            num_workers=self.nodes[index],
            hdfs_disk_kind=self.hdfs_kinds[index],
            hdfs_disk_gb=self.hdfs_sizes_gb[index],
            local_disk_kind=self.local_kinds[index],
            local_disk_gb=self.local_sizes_gb[index],
        )


@dataclass(frozen=True)
class BatchScores:
    """Parallel score arrays for one :class:`CandidateBatch`.

    ``runtime_seconds[i]`` is ``t_app`` for candidate ``i``;
    ``cost_dollars`` follows the Section-VI pricing (``None`` when cost
    was not requested or the batch has no ``vcpus``); ``bottlenecks``
    holds one integer sequence per stage — indexes into
    :data:`BOTTLENECK_LABELS` — or ``None`` when not requested.
    Sequences are numpy arrays or :mod:`array`/:class:`bytes` depending
    on the backend; element values are bitwise identical either way.
    """

    runtime_seconds: Sequence[float]
    cost_dollars: Sequence[float] | None
    bottlenecks: tuple[Sequence[int], ...] | None
    stage_names: tuple[str, ...]
    backend: str

    def __len__(self) -> int:
        return len(self.runtime_seconds)

    def bottleneck_label(self, stage_index: int, candidate: int) -> str:
        """Decoded bottleneck label for one (stage, candidate) cell."""
        if self.bottlenecks is None:
            raise ModelError("scores were computed without bottleneck labels")
        return BOTTLENECK_LABELS[self.bottlenecks[stage_index][candidate]]

    def argmin_cost(self) -> int:
        """Index of the cheapest candidate (first one on exact ties)."""
        if self.cost_dollars is None:
            raise ModelError("scores carry no cost; score with want_cost=True")
        if not len(self):
            raise ModelError("empty batch has no cheapest candidate")
        cost = self.cost_dollars
        if hasattr(cost, "argmin"):  # numpy: first occurrence, like min()
            return int(cost.argmin())
        return min(range(len(cost)), key=cost.__getitem__)


# -- stage constants ----------------------------------------------------------


@dataclass(frozen=True)
class _KernelStage:
    """Device-independent Equation-1 constants for one stage.

    ``read_groups``/``write_groups`` are ``(group_id, use_hdfs)`` pairs in
    role first-appearance order — the same order the scalar model's
    per-device dict accumulates and maxes over.
    """

    name: str
    num_tasks: int
    t_avg: float
    gc_coeff: float
    delta_scale: float
    fill_seconds: float
    delta_read: float
    delta_write: float
    read_groups: tuple[tuple[int, bool], ...]
    write_groups: tuple[tuple[int, bool], ...]


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


def _stages_from_report(report: ProfilingReport, groups: list) -> tuple:
    """Kernel stages for a profiling report; unknown roles are an error.

    Mirrors ``Predictor._stage_variables`` against ``{"hdfs", "local"}``
    devices: empty channels are skipped, any other role has no target
    device and raises the predictor's :class:`~repro.errors.ModelError`.
    """
    stages = []
    for stage in report.stages:
        reads, writes = [], []
        for channel in stage.channels:
            if channel.total_bytes == 0:
                continue
            if channel.role not in _DISK_ROLES:
                raise ModelError(
                    f"stage {stage.name}: no target device for role"
                    f" {channel.role!r}"
                )
            (writes if channel.is_write else reads).append(channel)
        stages.append(
            _KernelStage(
                name=stage.name,
                num_tasks=stage.num_tasks,
                t_avg=stage.t_avg,
                gc_coeff=stage.gc_coeff,
                delta_scale=stage.delta_scale,
                fill_seconds=stage.fill_seconds,
                delta_read=stage.delta_read,
                delta_write=stage.delta_write,
                read_groups=_group_channels(reads, groups),
                write_groups=_group_channels(writes, groups),
            )
        )
    return tuple(stages)


# -- the evaluator ------------------------------------------------------------


class Eq1BatchEvaluator:
    """Bit-exact batch form of the scalar Eq.-1 prediction stack.

    Built once from a profiling report; each :meth:`score` call
    evaluates every candidate in a :class:`CandidateBatch` and returns
    :class:`BatchScores` whose runtimes, costs, and bottleneck labels
    equal the scalar ``Predictor`` / ``CostOptimizer.evaluate`` outputs
    exactly (see the module docstring for why).  Per-disk bandwidth
    limits and prices are memoized across calls, so reusing one
    evaluator also reuses its tables.
    """

    def __init__(self, report: ProfilingReport, backend: str | None = None) -> None:
        self.report = report
        self._backend = backend
        groups: list = []
        self._stages = _stages_from_report(report, groups)
        self._groups = tuple(groups)
        self._limits_cache: dict[tuple, tuple[float, ...]] = {}
        self._disk_cost_cache: dict[tuple, float] = {}
        self._price_cache: dict[int, float] = {}

    @property
    def stage_names(self) -> tuple[str, ...]:
        """Profiled stage labels, in prediction order."""
        return tuple(stage.name for stage in self._stages)

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

    def score(
        self,
        batch: CandidateBatch,
        want_cost: bool = True,
        want_bottlenecks: bool = True,
        backend: str | None = None,
    ) -> BatchScores:
        """Score every candidate; see :class:`BatchScores` for the layout."""
        if want_cost and batch.vcpus is None:
            raise ModelError(
                "batch carries no machine vcpus; cost scoring needs them"
                " (score with want_cost=False for model-only batches)"
            )
        module = _resolve_backend(backend or self._backend)
        if module is not None:
            runtime, cost, codes = self._score_numpy(
                module, batch, want_cost, want_bottlenecks
            )
            name = "numpy"
        else:
            runtime, cost, codes = self._score_python(
                batch, want_cost, want_bottlenecks
            )
            name = "python"
        return BatchScores(
            runtime_seconds=runtime,
            cost_dollars=cost,
            bottlenecks=codes,
            stage_names=self.stage_names,
            backend=name,
        )

    def _score_python(self, batch, want_cost, want_bottlenecks):
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
        vcpus = batch.vcpus if want_cost else None
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
        per_stage_codes: list[bytes] = []
        for stage in self._stages:
            ts_tab = []
            for node, core in nc_list:
                per_task = stage.t_avg + stage.gc_coeff * core
                value = (
                    stage.num_tasks / (node * core) * per_task
                    + stage.delta_scale
                )
                ts_tab.append(value if value > 0.0 else 0.0)
            tr_tab = self._limit_table(
                stage.read_groups, stage.fill_seconds, stage.delta_read,
                io_list, limits,
            )
            tw_tab = self._limit_table(
                stage.write_groups, stage.fill_seconds, stage.delta_write,
                io_list, limits,
            )
            codes = bytearray(n) if want_bottlenecks else None
            # Fused gather: max of the three terms with the scalar
            # model's first-maximal tie-break, accumulated into t_app.
            if codes is not None:
                for i in range(n):
                    ts = ts_tab[nc_ids[i]]
                    b = io_ids[i]
                    tr = tr_tab[b]
                    tw = tw_tab[b]
                    if ts >= tr:
                        if ts >= tw:
                            t = ts
                        else:
                            t = tw
                            codes[i] = 2
                    elif tr >= tw:
                        t = tr
                        codes[i] = 1
                    else:
                        t = tw
                        codes[i] = 2
                    total[i] += t
                per_stage_codes.append(bytes(codes))
            else:
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
        if want_cost:
            rate_tab = [
                (self._price(v) + self._disk_cost(spec_list[h])
                 + self._disk_cost(spec_list[lo])) * node
                for v, h, lo, node in rate_list
            ]
            cost = array("d", [
                rate_tab[r] * t / 3600.0 for r, t in zip(rate_ids, total)
            ])
        codes_out = tuple(per_stage_codes) if want_bottlenecks else None
        return array("d", total), cost, codes_out

    def _limit_table(self, direction_groups, fill, delta, io_list, limits):
        """Per-unique-(hdfs, local, N) I/O limit term for one direction."""
        table = []
        for h, lo, node in io_list:
            per_node = None
            for gid, use_hdfs in direction_groups:
                limit = limits[h][gid] if use_hdfs else limits[lo][gid]
                if per_node is None or limit > per_node:
                    per_node = limit
            if per_node is None or per_node == 0.0:
                table.append(0.0)
            else:
                value = per_node / node + fill + delta
                table.append(value if value > 0.0 else 0.0)
        return table

    def _score_numpy(self, np, batch, want_cost, want_bottlenecks):
        n = len(batch)
        nodes = np.asarray(batch.nodes, dtype=np.float64)
        cores = np.asarray(batch.cores, dtype=np.float64)
        h_inv, h_specs = _np_unique_specs(
            np, batch.hdfs_kinds, batch.hdfs_sizes_gb
        )
        l_inv, l_specs = _np_unique_specs(
            np, batch.local_kinds, batch.local_sizes_gb
        )
        num_groups = len(self._groups)
        h_limits = np.asarray(
            [self._limits(spec) for spec in h_specs], dtype=np.float64
        ).reshape(len(h_specs), num_groups)
        l_limits = np.asarray(
            [self._limits(spec) for spec in l_specs], dtype=np.float64
        ).reshape(len(l_specs), num_groups)

        def limit_term(direction_groups, fill, delta):
            per_node = None
            for gid, use_hdfs in direction_groups:
                column = (
                    h_limits[h_inv, gid] if use_hdfs else l_limits[l_inv, gid]
                )
                per_node = (
                    column if per_node is None
                    else np.maximum(per_node, column)
                )
            if per_node is None:
                return np.zeros(n)
            value = per_node / nodes + fill + delta
            term = np.where(value > 0.0, value, 0.0)
            return np.where(per_node == 0.0, 0.0, term)

        total = np.zeros(n)
        per_stage_codes = []
        for stage in self._stages:
            per_task = stage.t_avg + stage.gc_coeff * cores
            value = (
                stage.num_tasks / (nodes * cores) * per_task
                + stage.delta_scale
            )
            ts = np.where(value > 0.0, value, 0.0)
            tr = limit_term(stage.read_groups, stage.fill_seconds,
                            stage.delta_read)
            tw = limit_term(stage.write_groups, stage.fill_seconds,
                            stage.delta_write)
            if want_bottlenecks:
                codes = np.where(
                    (ts >= tr) & (ts >= tw), 0, np.where(tr >= tw, 1, 2)
                ).astype(np.uint8)
                per_stage_codes.append(codes)
            total = total + np.maximum(np.maximum(ts, tr), tw)
        cost = None
        if want_cost:
            v_unique, v_inv = np.unique(
                np.asarray(batch.vcpus, dtype=np.int64), return_inverse=True
            )
            price = np.asarray(
                [self._price(int(v)) for v in v_unique], dtype=np.float64
            )[v_inv]
            h_cost = np.asarray(
                [self._disk_cost(spec) for spec in h_specs], dtype=np.float64
            )[h_inv]
            l_cost = np.asarray(
                [self._disk_cost(spec) for spec in l_specs], dtype=np.float64
            )[l_inv]
            rate = (price + h_cost + l_cost) * nodes
            cost = rate * total / 3600.0
        codes_out = tuple(per_stage_codes) if want_bottlenecks else None
        return total, cost, codes_out


def _np_unique_specs(np, kinds, sizes_gb):
    """Candidate → unique ``(kind, size_gb)`` index, without a Python loop.

    Kind labels and sizes are uniqued separately at C speed, combined
    into a single integer key, and uniqued again; only the (tiny) unique
    spec list is materialized in Python.
    """
    kind_arr = np.asarray(kinds)
    size_arr = np.asarray(sizes_gb, dtype=np.float64)
    unique_kinds, kind_inv = np.unique(kind_arr, return_inverse=True)
    unique_sizes, size_inv = np.unique(size_arr, return_inverse=True)
    stride = len(unique_sizes)
    combined = kind_inv.astype(np.int64) * stride + size_inv
    unique_combined, inverse = np.unique(combined, return_inverse=True)
    specs = [
        (str(unique_kinds[key // stride]), float(unique_sizes[key % stride]))
        for key in unique_combined
    ]
    return inverse, specs


def score_batch(
    report: ProfilingReport,
    batch: CandidateBatch,
    want_cost: bool = True,
    want_bottlenecks: bool = True,
    backend: str | None = None,
) -> BatchScores:
    """One-shot convenience: ``Eq1BatchEvaluator(report).score(batch)``.

    Building the evaluator extracts per-stage constants once; reuse an
    :class:`Eq1BatchEvaluator` across calls to also reuse its memoized
    per-disk bandwidth tables.
    """
    return Eq1BatchEvaluator(report, backend=backend).score(
        batch, want_cost=want_cost, want_bottlenecks=want_bottlenecks
    )
