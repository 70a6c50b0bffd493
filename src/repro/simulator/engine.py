"""The fluid discrete-event loop, over generic shared resources.

State advances between *phase completion* events.  Between events every
I/O stream progresses at the rate its resources allocated (see
:mod:`repro.resources`) and every compute phase progresses at 1 s/s.
Completion times are kept in an event heap; a stream's ``remaining_bytes``
is only materialized when its rate actually changes (rate-epoch
invalidation), so an event touches the streams whose allocation changed
rather than every active stream.  At each event the engine:

1. retires phases whose heap entry came due,
2. moves their tasks to the next phase (or finishes them, freeing a core
   slot), launching waiting tasks onto freed slots, and
3. re-balances exactly the resources whose membership changed —
   re-scheduling only streams whose rate moved.

Tasks hold one core slot from launch to finish — like Spark tasks, whose
I/O (shuffle read, HDFS read/write) happens on the task's own thread.
The pipeline overlap of Fig. 6 emerges naturally: while one task
computes, other tasks' I/O proceeds.

Contention is expressed entirely through :mod:`repro.resources`:

- each node's executor cores are a :class:`SlotPool`;
- each storage device direction is a :class:`DeviceResource` (per array
  *member* when a :class:`~repro.storage.array.DiskArray` asks for
  per-member mode — streams are striped round-robin across members, like
  Spark round-robins files across local dirs);
- when a :class:`~repro.cluster.network.NetworkModel` is passed, each
  node gets a NIC :class:`LinkResource` and shuffle-read phases
  (``via_network=True``) split into a local-disk stream plus a remote
  stream bound to both the disk and the NIC, in the proportion
  ``NetworkModel.remote_fraction`` dictates.  With no network configured
  (the default) the wire is treated as infinite and results recover the
  paper's disk-only numbers exactly.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.cluster.network import NetworkModel
from repro.cluster.node import Node
from repro.errors import SimulationError, StageFailedError
from repro.faults.injector import (
    FaultAction,
    FaultInjector,
    JitterToggle,
    NodeKill,
    ScaleToggle,
)
from repro.faults.plan import FaultPlan
from repro.resilience import ResiliencePolicy, StageResilience
from repro.resources import (
    DeviceResource,
    LinkResource,
    Resource,
    ResourceRegistry,
    SharedStream,
    SlotPool,
    rebalance_coupled,
)
from repro.schedule.scheduler import ExecutorBlacklist
from repro.simulator.task import ComputePhase, IoPhase, SimTask
from repro.storage.array import DiskArray
from repro.storage.iostat import IostatCollector

#: Remaining work below these thresholds counts as complete.
_BYTE_EPS = 1e-6
_TIME_EPS = 1e-9

#: Heap entry kinds.
_EV_STREAM = 0
_EV_COMPUTE = 1
_EV_FAULT = 2
_EV_RETRY = 3
_EV_SPEC = 4
_EV_STALL = 5


@dataclass
class _Running:
    """Book-keeping for one in-flight task attempt."""

    task: SimTask
    node: Node
    phase_index: int = 0
    #: I/O streams of the current phase still moving bytes (a phase may
    #: hold several when a shuffle read splits into local + remote).
    open_streams: int = 0
    compute_remaining: float = 0.0
    #: Bumped at every phase transition; stale heap entries are dropped.
    epoch: int = 0
    streams: list[SharedStream] = field(default_factory=list)
    # -- resilience-only fields (inert without a policy) -------------------
    #: When this attempt started (== ``task.start_time`` without a policy;
    #: retries and speculative duplicates start later than the task).
    attempt_start: float = 0.0
    speculative: bool = False
    record: _TaskRecord | None = None

    @property
    def in_io(self) -> bool:
        return self.open_streams > 0


@dataclass
class _TaskRecord:
    """Resilience book-keeping for one logical task across its attempts.

    Retry and speculation heap events carry the record itself and are
    re-validated when they fire, so ``epoch`` stays 0 forever (the heap's
    epoch check is satisfied trivially).
    """

    task: SimTask
    completed: bool = False
    #: Consecutive failures in the current attempt budget (reset when a
    #: stage re-attempt grants a fresh one).
    failures: int = 0
    stage_reattempts: int = 0
    #: A speculative duplicate has been decided for this task (at most
    #: one per task, like Spark's single speculatable copy).
    spec_scheduled: bool = False
    #: An _EV_SPEC re-check is already in the heap.
    spec_event_pending: bool = False
    running: list[_Running] = field(default_factory=list)
    failed_nodes: set[str] = field(default_factory=set)
    epoch: int = 0


class SimulationEngine:
    """Runs task sets on a cluster with ``P`` executor cores per node."""

    def __init__(
        self,
        cluster: Cluster,
        cores_per_node: int,
        iostat: IostatCollector | None = None,
        max_events: int = 50_000_000,
        network: NetworkModel | None = None,
        faults: FaultPlan | None = None,
        resilience: ResiliencePolicy | None = None,
        stage_name: str = "stage",
    ) -> None:
        if cores_per_node <= 0:
            raise SimulationError("cores per node must be positive")
        for node in cluster.slaves:
            if cores_per_node > node.num_cores:
                raise SimulationError(
                    f"requested {cores_per_node} executor cores but node"
                    f" {node.name} has only {node.num_cores}"
                )
        self.cluster = cluster
        self.cores_per_node = cores_per_node
        self.iostat = iostat
        self.max_events = max_events
        self.network = network
        self.registry = ResourceRegistry()
        self._cores: dict[str, SlotPool] = {}
        #: Round-robin cursors for striping streams across array members,
        #: keyed like the device resources.
        self._stripe: dict[tuple, int] = {}
        for node in cluster.slaves:
            self._cores[node.name] = self.registry.register(
                ("cores", node.name), SlotPool(f"{node.name}:cores", cores_per_node)
            )  # type: ignore[assignment]
            # One resource per *physical* device direction (HDFS and local
            # may share a device); per-member arrays get one per member.
            for device in (node.hdfs_device, node.local_device):
                for is_write in (False, True):
                    key = ("device", id(device), is_write)
                    if key in self.registry:
                        continue
                    if isinstance(device, DiskArray) and device.per_member:
                        for index, member in enumerate(device.members):
                            self.registry.register(
                                key + (index,), DeviceResource(member, is_write)
                            )
                        self._stripe[key] = 0
                    else:
                        self.registry.register(key, DeviceResource(device, is_write))
            if network is not None:
                self.registry.register(
                    ("nic", node.name),
                    LinkResource(f"{node.name}:nic", network.link_bandwidth),
                )
        #: Busy-accounting key of every rate resource, by ``id(resource)``.
        self._busy_keys: dict[int, tuple[str, bool]] = {}
        for resource in self.registry.values():
            if isinstance(resource, DeviceResource):
                self._busy_keys[id(resource)] = (
                    resource.device.name, resource.is_write
                )
            elif isinstance(resource, LinkResource):
                self._busy_keys[id(resource)] = (resource.name, False)
        #: Seconds each (device name, is_write) direction had >= 1 active
        #: stream, accumulated by :meth:`run`.
        self.device_busy_seconds: dict[tuple[str, bool], float] = {}
        #: Core-seconds occupied by tasks (held during I/O and compute).
        self.core_busy_seconds: float = 0.0
        # -- fault injection ------------------------------------------------
        self.faults = faults
        self._injector: FaultInjector | None = None
        self._slowdowns: dict[str, float] = {}
        if faults is not None and faults.faults:
            self._injector = FaultInjector(faults, cluster, self.registry, network)
            self._slowdowns = self._injector.slowdowns
        # -- resilience -----------------------------------------------------
        #: ``None`` keeps every code path bit-identical to the
        #: pre-resilience engine; every mitigation below is gated on it.
        self.resilience = resilience
        self._rpolicy = resilience
        self.stage_name = stage_name
        # -- per-run state (reset in :meth:`run`) --------------------------
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._dirty_resources: dict[int, Resource] = {}
        #: The rate resources holding at least one stream (``id`` -> busy
        #: key): kept current by :meth:`_settle` as it drains dirty ones.
        self._busy: dict[int, tuple[str, bool]] = {}
        self._owner: dict[int, _Running] = {}
        self._stalled: dict[int, SharedStream] = {}
        self._freed_nodes: set[str] = set()
        self._dead_nodes: set[str] = set()
        self._active: dict[int, _Running] = {}
        self._records: dict[int, _TaskRecord] = {}
        self._records_order: list[_TaskRecord] = []
        self._finished_durations: list[float] = []
        self._total_tasks = 0
        self._spec_candidates: list[_TaskRecord] = []
        self._stall_failed: list[_Running] = []
        self._blacklist: ExecutorBlacklist | None = None
        self._res_attempts = 0
        self._res_spec_launched = 0
        self._res_spec_wins = 0
        self._res_retries = 0
        self._res_reattempts = 0
        self._res_backoff = 0.0

    # -- resource resolution ----------------------------------------------

    def _resource_for(self, node: Node, role: str, is_write: bool) -> Resource:
        """Resolve a phase's device resource, striping across array members."""
        device = node.device_for(role)
        key = ("device", id(device), is_write)
        if key in self._stripe:
            members = len(device.members)  # type: ignore[attr-defined]
            cursor = self._stripe[key]
            self._stripe[key] = (cursor + 1) % members
            return self.registry.get(key + (cursor,))
        return self.registry.get(key)

    # -- the event loop ----------------------------------------------------

    def run(self, tasks: list[SimTask]) -> float:
        """Execute ``tasks`` to completion; returns the makespan in seconds.

        Tasks are assigned to nodes round-robin at submission (Spark's
        locality-free scheduling under a uniform data spread) and started
        FIFO as cores free up.  Submission order is canonicalized by
        ``task_id`` so that shuffling a task list cannot change the
        schedule.  Task ``start_time``/``finish_time`` are filled in.
        """
        if not tasks:
            return 0.0
        tasks = sorted(tasks, key=lambda t: t.task_id)
        pending: dict[str, deque[SimTask]] = {
            node.name: deque() for node in self.cluster.slaves
        }
        for index, task in enumerate(tasks):
            node = self.cluster.slaves[index % self.cluster.num_slaves]
            pending[node.name].append(task)

        self._heap = []
        self._seq = itertools.count()
        self._dirty_resources = {}
        self._busy = {}
        self._owner = {}
        self._stalled = {}
        self._freed_nodes = set()
        self._dead_nodes = set()
        self._active = {}
        self._pending = pending
        self._remaining_tasks = len(tasks)
        self._num_running = 0
        if self._rpolicy is not None:
            self._records = {}
            self._records_order = []
            for task in tasks:
                record = _TaskRecord(task=task)
                self._records[task.task_id] = record
                self._records_order.append(record)
            self._finished_durations = []
            self._total_tasks = len(tasks)
            self._spec_candidates = []
            self._stall_failed = []
            self._res_attempts = 0
            self._res_spec_launched = 0
            self._res_spec_wins = 0
            self._res_retries = 0
            self._res_reattempts = 0
            self._res_backoff = 0.0
            self._blacklist = None
            if self._rpolicy.blacklist is not None:
                self._blacklist = ExecutorBlacklist(
                    self._rpolicy.blacklist.max_node_strikes,
                    [node.name for node in self.cluster.slaves],
                )
        if self._injector is not None:
            self._injector.reset()
            for at_seconds, action in self._injector.initial_actions():
                heapq.heappush(
                    self._heap, (at_seconds, next(self._seq), _EV_FAULT, action, 0)
                )

        now = 0.0
        self._launch_waiting(now, set(pending))
        self._settle(now)
        events = 0
        while self._remaining_tasks > 0:
            events += 1
            if events > self.max_events:
                raise SimulationError(
                    f"exceeded {self.max_events} events; simulation is stuck"
                )
            batch = self._pop_batch()
            if not batch:
                # With a retry policy, stalled-at-zero attempts become
                # task failures instead of a dead end: fail them and let
                # the retries repopulate the heap.
                if self._rescue_stalled(now):
                    self._settle(now)
                    continue
                self._raise_stuck()
            dt = batch[0][0] - now
            self._account_busy_time(dt)
            now = batch[0][0]
            for entry in batch:
                self._process_entry(entry, now)
            self._settle(now)
        return now

    def _pop_batch(self) -> list[tuple]:
        """Pop all valid entries due within ``_TIME_EPS`` of the earliest."""
        heap = self._heap
        batch: list[tuple] = []
        while heap:
            entry = heap[0]
            if not self._entry_valid(entry):
                heapq.heappop(heap)
                continue
            if batch and entry[0] > batch[0][0] + _TIME_EPS:
                break
            batch.append(heapq.heappop(heap))
        return batch

    @staticmethod
    def _entry_valid(entry: tuple) -> bool:
        _, _, kind, obj, epoch = entry
        return obj.epoch == epoch

    def _process_entry(self, entry: tuple, now: float) -> None:
        _, _, kind, obj, epoch = entry
        if obj.epoch != epoch:
            # Invalidated by an earlier entry of the same batch.
            return
        if kind == _EV_FAULT:
            self._process_fault(obj, now)
        elif kind == _EV_COMPUTE:
            running = obj
            running.compute_remaining = 0.0
            self._transition(running, now)
        elif kind == _EV_RETRY:
            self._process_retry(obj, now)
        elif kind == _EV_SPEC:
            self._process_spec(obj, now)
        elif kind == _EV_STALL:
            self._process_stall(obj, now)
        else:
            stream = obj
            stream.remaining_bytes = 0.0
            self._complete_stream(stream, now)

    def _process_fault(self, action: FaultAction, now: float) -> None:
        """Execute one timed fault action from the heap."""
        assert self._injector is not None
        if isinstance(action, ScaleToggle):
            for resource in action.resources:
                self._injector.toggle(resource, action.factor, action.on)
                self._mark_dirty(resource)
        elif isinstance(action, JitterToggle):
            for resource in action.resources:
                self._injector.toggle(resource, action.factor, action.entering)
                self._mark_dirty(resource)
            heapq.heappush(
                self._heap,
                (now + action.next_delay, next(self._seq), _EV_FAULT,
                 action.flipped(), 0),
            )
        elif isinstance(action, NodeKill):
            self._kill_node(action.node_name, now)
        else:  # pragma: no cover - action union is closed
            raise SimulationError(f"unknown fault action: {action!r}")

    def _kill_node(self, name: str, now: float) -> None:
        """Take a node out of service; its tasks re-execute on survivors.

        In-flight tasks lose all progress (their streams are detached and
        their compute abandoned) and are re-queued from scratch, together
        with the dead node's pending queue, round-robin across the
        surviving nodes — Spark's task re-execution on executor loss.

        With a resilience policy, in-flight attempts instead *fail*: each
        is charged against its task's attempt budget and resubmitted
        after the modeled backoff (never to the dead node), escalating to
        stage re-attempts and :class:`~repro.errors.StageFailedError`.
        Pending tasks never started, so they move without a charge.
        """
        if name in self._dead_nodes:
            return
        self._dead_nodes.add(name)
        survivors = [
            node for node in self.cluster.slaves if node.name not in self._dead_nodes
        ]
        if self._rpolicy is not None:
            if not survivors and self._remaining_tasks > 0:
                raise SimulationError(
                    f"node {name} died leaving no live nodes with"
                    f" {self._remaining_tasks} task(s) unfinished"
                )
            doomed = [r for r in self._active.values() if r.node.name == name]
            doomed.sort(key=lambda r: (r.task.task_id, r.speculative))
            for running in doomed:
                self._fail_attempt(
                    running, now, f"node {name} died", release_slot=False
                )
            queue = self._pending[name]
            moved = sorted(queue, key=lambda t: t.task_id)
            queue.clear()
            if moved:
                targets = [node for node in self._eligible_nodes()
                           if node.name != name]
                for index, task in enumerate(moved):
                    self._pending[targets[index % len(targets)].name].append(task)
                self._freed_nodes.update(node.name for node in targets)
            return
        requeue: list[SimTask] = []
        for running in [r for r in self._active.values() if r.node.name == name]:
            running.epoch += 1  # drop any scheduled compute entry
            for stream in running.streams:
                stream.epoch += 1  # drop any scheduled stream entry
                self._stalled.pop(stream.stream_id, None)
                self._owner.pop(stream.stream_id, None)
                for resource in list(stream.resources):
                    resource.detach(stream, rebalance=False)
                    self._mark_dirty(resource)
            running.streams.clear()
            running.open_streams = 0
            del self._active[id(running)]
            self._num_running -= 1
            task = running.task
            task.start_time = -1.0
            task.finish_time = -1.0
            requeue.append(task)
        queue = self._pending[name]
        requeue.extend(queue)
        queue.clear()
        if not survivors:
            if self._remaining_tasks > 0:
                raise SimulationError(
                    f"node {name} died leaving no live nodes with"
                    f" {self._remaining_tasks} task(s) unfinished"
                )
            return
        requeue.sort(key=lambda t: t.task_id)
        for index, task in enumerate(requeue):
            self._pending[survivors[index % len(survivors)].name].append(task)
        if requeue:
            self._freed_nodes.update(node.name for node in survivors)

    def _complete_stream(self, stream: SharedStream, now: float) -> None:
        stream.epoch += 1  # invalidate any scheduled entry
        self._stalled.pop(stream.stream_id, None)
        for resource in list(stream.resources):
            resource.detach(stream, rebalance=False)
            self._mark_dirty(resource)
        running = self._owner.pop(stream.stream_id)
        running.streams.remove(stream)
        running.open_streams -= 1
        if running.open_streams == 0:
            self._transition(running, now)

    def _transition(self, running: _Running, now: float) -> None:
        """Move a task past its completed phase; free its slot if done."""
        running.epoch += 1
        running.phase_index += 1
        if not self._enter_phase(running, now):
            self._active.pop(id(running), None)
            self._cores[running.node.name].release()
            self._num_running -= 1
            if self._rpolicy is None:
                self._remaining_tasks -= 1
            else:
                self._finish_task(running, now)
            self._freed_nodes.add(running.node.name)

    def _launch_waiting(self, now: float, freed: set[str]) -> None:
        """Start queued tasks on the free cores of the nodes in ``freed``.

        After every settle no live node has both a free core and a queued
        task, and whatever frees a core or queues a task adds its node to
        ``_freed_nodes`` — so no other node has anything to launch.  Nodes
        are visited in cluster order, as a full scan would.  Each leaves
        ``freed`` when the scan reaches it; a node the scan itself frees
        again is visited later in this pass or in the next one.
        """
        for node in self.cluster.slaves:
            if node.name not in freed:
                continue
            freed.remove(node.name)
            if node.name in self._dead_nodes:
                continue
            queue = self._pending[node.name]
            pool = self._cores[node.name]
            while queue and pool.free > 0:
                task = queue.popleft()
                pool.acquire()
                self._num_running += 1
                task.start_time = now
                if self._rpolicy is None:
                    running = _Running(task=task, node=node)
                else:
                    record = self._records[task.task_id]
                    running = _Running(
                        task=task, node=node, attempt_start=now, record=record
                    )
                    record.running.append(running)
                    self._res_attempts += 1
                if not self._enter_phase(running, now):
                    pool.release()
                    self._num_running -= 1
                    if self._rpolicy is None:
                        self._remaining_tasks -= 1
                    else:
                        self._finish_task(running, now)
                        self._freed_nodes.add(node.name)
                else:
                    self._active[id(running)] = running
                    if self._rpolicy is not None:
                        self._arm_spec_check(running, now)

    def _settle(self, now: float) -> None:
        """Launch onto freed slots and re-balance dirty resources, to fixpoint.

        Materializing remaining bytes at a rate change can itself complete
        a stream (the sub-:data:`_BYTE_EPS` clamp), which frees slots and
        dirties more resources — hence the loop.

        Every attach and detach marks its resource dirty, so draining the
        dirty set is also where ``_busy`` learns which resources hold a
        stream.  Without a network every stream is bound to exactly one
        resource (only :meth:`_open_io`'s remote split binds two), so each
        dirty resource is its own component and no closure walk is needed.
        """
        while True:
            if self._rpolicy is not None and self._stall_failed:
                failed = self._stall_failed
                self._stall_failed = []
                for running in failed:
                    if id(running) in self._active:
                        self._fail_attempt(
                            running, now, "stream stalled at zero rate"
                        )
            if self._freed_nodes:
                self._launch_waiting(now, self._freed_nodes)
            if self._rpolicy is not None and self._spec_candidates:
                self._launch_speculative(now)
            if not self._dirty_resources:
                if self._rpolicy is not None and (
                    self._stall_failed or self._freed_nodes
                ):
                    continue
                return
            dirty = self._dirty_resources
            self._dirty_resources = {}
            busy = self._busy
            for ident, resource in dirty.items():
                if resource.num_active:
                    busy[ident] = self._busy_keys[ident]
                else:
                    busy.pop(ident, None)
            if self.network is None:
                for resource in dirty.values():
                    self._rebalance_component([resource], now)
            else:
                for component in self._components(dirty):
                    self._rebalance_component(component, now)

    def _mark_dirty(self, resource: Resource) -> None:
        self._dirty_resources[id(resource)] = resource

    @staticmethod
    def _components(dirty: dict[int, Resource]) -> list[list[Resource]]:
        """Group dirty resources into coupling components.

        Two resources are coupled when a stream is bound to both (a remote
        shuffle-read stream on disk + NIC); the closure pulls in coupled
        resources even if they were not dirtied directly.
        """
        components: list[list[Resource]] = []
        seen: set[int] = set()
        for resource in dirty.values():
            if id(resource) in seen:
                continue
            component: list[Resource] = []
            frontier = [resource]
            seen.add(id(resource))
            while frontier:
                current = frontier.pop()
                component.append(current)
                for stream in current.streams:
                    for other in stream.resources:
                        if id(other) not in seen:
                            seen.add(id(other))
                            frontier.append(other)
            components.append(component)
        return components

    def _rebalance_component(self, component: list[Resource], now: float) -> None:
        before: dict[int, tuple[SharedStream, float]] = {}
        for resource in component:
            for stream in resource.streams:
                before[stream.stream_id] = (stream, stream.rate)
        if len(component) == 1:
            # A component is closed under stream sharing, so a lone
            # resource's streams are bound to it alone: the exact
            # historical water-filling arithmetic (bit-identical default
            # path).
            component[0].rebalance()
        else:
            rebalance_coupled(component)
        for stream, old_rate in before.values():
            if self._rpolicy is not None and stream.stream_id not in self._owner:
                # Cancelled mid-loop: a first-finisher win earlier in this
                # iteration tore down its losing twin's streams.
                continue
            if stream.rate == old_rate:
                if stream.rate <= 0.0 and not stream.done:
                    self._note_stall(stream, now)
                continue
            self._materialize(stream, old_rate, now)
            if stream.done:
                self._complete_stream(stream, now)
            else:
                self._reschedule(stream, now)

    @staticmethod
    def _materialize(stream: SharedStream, old_rate: float, now: float) -> None:
        """Apply the progress accrued at the stream's previous rate."""
        elapsed = now - stream.last_update
        if elapsed > 0.0 and old_rate > 0.0:
            stream.remaining_bytes -= old_rate * elapsed
            if stream.remaining_bytes < _BYTE_EPS:
                stream.remaining_bytes = 0.0
        stream.last_update = now

    def _reschedule(self, stream: SharedStream, now: float) -> None:
        stream.epoch += 1
        if stream.rate > 0.0:
            stream.stalled = False
            self._stalled.pop(stream.stream_id, None)
            finish = now + stream.remaining_bytes / stream.rate
            heapq.heappush(
                self._heap,
                (finish, next(self._seq), _EV_STREAM, stream, stream.epoch),
            )
            return
        self._note_stall(stream, now)

    def _note_stall(self, stream: SharedStream, now: float) -> None:
        """Zero rate with work remaining: one strike, then a hard error.

        A second consecutive zero-rate allocation can never finish — fail
        loudly naming the culprit instead of hanging until ``max_events``.
        With a retry policy the stall becomes a *task failure* instead:
        the second strike defers the owning attempt to :meth:`_settle`
        (this runs mid-rebalance, so streams cannot be detached here),
        and a quiet stall that never gets a second look is bounded by an
        _EV_STALL deadline ``stall_timeout_seconds`` out — stale if the
        stream recovers (epoch bump), fatal to the attempt if not.
        """
        if stream.stalled:
            if self._rpolicy is not None:
                owner = self._owner.get(stream.stream_id)
                if owner is not None:
                    self._stall_failed.append(owner)
                return
            raise SimulationError(
                f"stream stalled at rate 0 across consecutive events:"
                f" {stream.describe()}"
            )
        stream.stalled = True
        self._stalled[stream.stream_id] = stream
        if self._rpolicy is not None:
            deadline = now + self._rpolicy.retry.stall_timeout_seconds
            heapq.heappush(
                self._heap,
                (deadline, next(self._seq), _EV_STALL, stream, stream.epoch),
            )

    def _process_stall(self, stream: SharedStream, now: float) -> None:
        """A stall deadline expired with the stream still at rate zero."""
        if stream.done or not stream.stalled:
            return
        owner = self._owner.get(stream.stream_id)
        if owner is not None and id(owner) in self._active:
            self._fail_attempt(owner, now, "stream stalled at zero rate")

    def _schedule_compute(self, running: _Running, now: float) -> None:
        finish = now + running.compute_remaining
        heapq.heappush(
            self._heap,
            (finish, next(self._seq), _EV_COMPUTE, running, running.epoch),
        )

    def _raise_stuck(self) -> None:
        if self._stalled:
            stuck = ", ".join(s.describe() for s in self._stalled.values())
            raise SimulationError(f"all remaining streams are stalled at rate 0: {stuck}")
        raise SimulationError(
            "no active tasks but work remains; scheduler invariant broken"
        )

    # -- resilience: speculation, retry, blacklisting ----------------------

    def _eligible_nodes(self) -> list[Node]:
        """Alive, non-blacklisted nodes — falling back to all alive nodes
        when the blacklist would otherwise leave nowhere to schedule."""
        alive = [
            node for node in self.cluster.slaves
            if node.name not in self._dead_nodes
        ]
        if self._blacklist is None:
            return alive
        ok = [node for node in alive if not self._blacklist.is_excluded(node.name)]
        return ok or alive

    def _strike(self, name: str) -> None:
        """Charge one blacklist strike; on exclusion, drain the node's queue."""
        if self._blacklist is None:
            return
        alive = [
            node.name for node in self.cluster.slaves
            if node.name not in self._dead_nodes
        ]
        if not self._blacklist.strike(name, survivors=alive):
            return
        queue = self._pending.get(name)
        if not queue:
            return
        moved = sorted(queue, key=lambda t: t.task_id)
        queue.clear()
        targets = [node for node in self._eligible_nodes() if node.name != name]
        if not targets:  # pragma: no cover - exclusion guarantees a survivor
            targets = [
                node for node in self.cluster.slaves
                if node.name not in self._dead_nodes and node.name != name
            ]
        for index, task in enumerate(moved):
            self._pending[targets[index % len(targets)].name].append(task)
        self._freed_nodes.update(node.name for node in targets)

    def _cancel_attempt(self, running: _Running, release_slot: bool = True) -> None:
        """Tear one attempt down: streams detached, heap entries voided."""
        running.epoch += 1
        for stream in running.streams:
            stream.epoch += 1
            self._stalled.pop(stream.stream_id, None)
            self._owner.pop(stream.stream_id, None)
            for resource in list(stream.resources):
                resource.detach(stream, rebalance=False)
                self._mark_dirty(resource)
        running.streams.clear()
        running.open_streams = 0
        self._active.pop(id(running), None)
        self._num_running -= 1
        if release_slot:
            self._cores[running.node.name].release()
            self._freed_nodes.add(running.node.name)

    def _fail_attempt(
        self,
        running: _Running,
        now: float,
        reason: str,
        release_slot: bool = True,
    ) -> None:
        """One attempt died; charge it and schedule recovery.

        If a twin attempt (speculative duplicate) is still running the
        task survives on it and only the blacklist is charged.  Otherwise
        the failure counts against the task's attempt budget, escalating
        through stage re-attempts to :class:`StageFailedError`; the retry
        is delayed by the policy's exponential backoff and lands on the
        most-free eligible node when it fires.
        """
        record = running.record
        assert record is not None and self._rpolicy is not None
        self._cancel_attempt(running, release_slot=release_slot)
        if running in record.running:
            record.running.remove(running)
        record.failed_nodes.add(running.node.name)
        self._strike(running.node.name)
        if record.completed or record.running:
            return
        retry = self._rpolicy.retry
        record.failures += 1
        failures = record.failures
        if failures >= retry.max_task_attempts:
            record.stage_reattempts += 1
            self._res_reattempts += 1
            if record.stage_reattempts >= retry.max_stage_attempts:
                raise StageFailedError(
                    self.stage_name,
                    record.task.task_id,
                    failures,
                    record.stage_reattempts,
                    reason,
                )
            record.failures = 0
        delay = retry.backoff_for(failures)
        self._res_retries += 1
        self._res_backoff += delay
        heapq.heappush(
            self._heap, (now + delay, next(self._seq), _EV_RETRY, record, 0)
        )

    def _process_retry(self, record: _TaskRecord, now: float) -> None:
        """A backoff expired: resubmit the task onto an eligible node."""
        if record.completed or record.running:
            return
        target = self._retry_target(record)
        self._pending[target.name].append(record.task)
        self._freed_nodes.add(target.name)

    def _retry_target(self, record: _TaskRecord) -> Node:
        """Deterministic retry placement: prefer nodes the task has not
        failed on, then the most free slots, then cluster order."""
        nodes = self._eligible_nodes()
        preferred = [
            node for node in nodes if node.name not in record.failed_nodes
        ]
        best: Node | None = None
        for node in preferred or nodes:
            if best is None or (
                self._cores[node.name].free > self._cores[best.name].free
            ):
                best = node
        assert best is not None  # blacklist/kill paths guarantee a survivor
        return best

    def _rescue_stalled(self, now: float) -> bool:
        """Heap empty but streams stalled: with a retry policy, convert
        the stalls into attempt failures so retries can repopulate it."""
        if self._rpolicy is None or not self._stalled:
            return False
        owners: list[_Running] = []
        seen: set[int] = set()
        for stream in self._stalled.values():
            running = self._owner.get(stream.stream_id)
            if running is not None and id(running) not in seen:
                seen.add(id(running))
                owners.append(running)
        owners.sort(key=lambda r: (r.task.task_id, r.speculative))
        failed = False
        for running in owners:
            if id(running) in self._active:
                self._fail_attempt(running, now, "stream stalled at zero rate")
                failed = True
        return failed

    def _finish_task(self, running: _Running, now: float) -> None:
        """First finisher wins: complete the task, cancel the losers."""
        record = running.record
        assert record is not None
        if running in record.running:
            record.running.remove(running)
        record.completed = True
        task = running.task
        task.start_time = running.attempt_start
        if running.speculative:
            self._res_spec_wins += 1
        for loser in list(record.running):
            self._cancel_attempt(loser)
        record.running.clear()
        self._remaining_tasks -= 1
        if self._rpolicy is not None and self._rpolicy.speculation is not None:
            self._finished_durations.append(now - running.attempt_start)
            self._update_speculation(now)

    def _arm_spec_check(self, running: _Running, now: float) -> None:
        """Schedule the straggler check for a freshly launched attempt.

        Needed for attempts that start *after* the quantile gate opened:
        no finish event will re-examine them until it may be too late.
        """
        record = running.record
        if (
            record is None
            or record.spec_scheduled
            or record.spec_event_pending
        ):
            return
        threshold = self._spec_threshold()
        if threshold is None:
            return
        record.spec_event_pending = True
        heapq.heappush(
            self._heap,
            (running.attempt_start + threshold, next(self._seq),
             _EV_SPEC, record, 0),
        )

    def _spec_threshold(self) -> float | None:
        """Elapsed time beyond which a lone running attempt is a straggler
        (``multiplier`` x the median finished duration), or ``None`` while
        too few tasks have finished for the quantile gate."""
        spec = self._rpolicy.speculation if self._rpolicy else None
        if spec is None:
            return None
        durations = self._finished_durations
        needed = max(spec.min_finished, math.ceil(spec.quantile * self._total_tasks))
        if len(durations) < needed:
            return None
        ordered = sorted(durations)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            median = ordered[mid]
        else:
            median = 0.5 * (ordered[mid - 1] + ordered[mid])
        return spec.multiplier * median

    def _update_speculation(self, now: float) -> None:
        """Re-examine running tasks against the (possibly new) threshold.

        Tasks already past it queue a duplicate; the rest get an _EV_SPEC
        re-check at the moment they would cross it (re-validated when it
        fires, since more finishes may have moved the median).
        """
        threshold = self._spec_threshold()
        if threshold is None:
            return
        for record in self._records_order:
            if record.completed or record.spec_scheduled:
                continue
            if len(record.running) != 1:
                continue
            attempt = record.running[0]
            elapsed = now - attempt.attempt_start
            if elapsed + _TIME_EPS >= threshold:
                record.spec_scheduled = True
                self._spec_candidates.append(record)
                self._strike(attempt.node.name)
            elif not record.spec_event_pending:
                record.spec_event_pending = True
                heapq.heappush(
                    self._heap,
                    (attempt.attempt_start + threshold, next(self._seq),
                     _EV_SPEC, record, 0),
                )

    def _process_spec(self, record: _TaskRecord, now: float) -> None:
        """An _EV_SPEC re-check fired; decide or re-arm against the
        current threshold (the median may have moved since scheduling)."""
        record.spec_event_pending = False
        if record.completed or record.spec_scheduled or len(record.running) != 1:
            return
        threshold = self._spec_threshold()
        if threshold is None:
            return
        attempt = record.running[0]
        elapsed = now - attempt.attempt_start
        if elapsed + _TIME_EPS >= threshold:
            record.spec_scheduled = True
            self._spec_candidates.append(record)
            self._strike(attempt.node.name)
        else:
            record.spec_event_pending = True
            heapq.heappush(
                self._heap,
                (attempt.attempt_start + threshold, next(self._seq),
                 _EV_SPEC, record, 0),
            )

    def _launch_speculative(self, now: float) -> None:
        """Start queued duplicates on free slots of eligible nodes that do
        not already host an attempt; unlaunchable candidates stay queued."""
        still: list[_TaskRecord] = []
        for record in self._spec_candidates:
            if record.completed or not record.running:
                # Finished, or failed into the retry path meanwhile.
                continue
            hosts = {r.node.name for r in record.running}
            target: Node | None = None
            for node in self._eligible_nodes():
                if node.name in hosts or self._cores[node.name].free <= 0:
                    continue
                if target is None or (
                    self._cores[node.name].free > self._cores[target.name].free
                ):
                    target = node
            if target is None:
                still.append(record)
                continue
            pool = self._cores[target.name]
            pool.acquire()
            self._num_running += 1
            self._res_attempts += 1
            self._res_spec_launched += 1
            running = _Running(
                task=record.task,
                node=target,
                attempt_start=now,
                record=record,
                speculative=True,
            )
            record.running.append(running)
            if not self._enter_phase(running, now):
                pool.release()
                self._num_running -= 1
                self._finish_task(running, now)
                self._freed_nodes.add(target.name)
            else:
                self._active[id(running)] = running
        self._spec_candidates = still

    def resilience_summary(self) -> StageResilience | None:
        """What the mitigations did over the last :meth:`run`, or ``None``
        when the engine has no policy (the bit-identical default)."""
        if self._rpolicy is None:
            return None
        return StageResilience(
            attempts=self._res_attempts,
            speculative_launched=self._res_spec_launched,
            speculative_wins=self._res_spec_wins,
            task_retries=self._res_retries,
            stage_reattempts=self._res_reattempts,
            backoff_seconds=self._res_backoff,
            blacklisted=(
                self._blacklist.excluded if self._blacklist is not None else ()
            ),
        )

    # -- reporting ---------------------------------------------------------

    def core_utilization(self, makespan: float) -> float:
        """Fraction of core-time occupied over a completed run."""
        if makespan <= 0:
            return 0.0
        total = makespan * self.cluster.num_slaves * self.cores_per_node
        return self.core_busy_seconds / total

    def device_utilization(self, device_name: str, is_write: bool,
                           makespan: float) -> float:
        """Fraction of a run one device direction spent with active I/O."""
        if makespan <= 0:
            return 0.0
        return self.device_busy_seconds.get((device_name, is_write), 0.0) / makespan

    def _account_busy_time(self, dt: float) -> None:
        if dt <= 0.0:
            return
        self.core_busy_seconds += self._num_running * dt
        busy_seconds = self.device_busy_seconds
        for key in self._busy.values():
            busy_seconds[key] = busy_seconds.get(key, 0.0) + dt

    # -- phase entry -------------------------------------------------------

    def _enter_phase(self, running: _Running, now: float) -> bool:
        """Advance ``running`` into its next non-empty phase.

        Returns False when the task ran out of phases (it is finished and
        its ``finish_time`` is stamped).
        """
        task = running.task
        while running.phase_index < len(task.phases):
            phase = task.phases[running.phase_index]
            if isinstance(phase, ComputePhase):
                if phase.seconds > _TIME_EPS:
                    seconds = phase.seconds
                    if self._slowdowns:
                        factor = self._slowdowns.get(running.node.name)
                        if factor is not None:
                            seconds = seconds * factor
                    running.compute_remaining = seconds
                    self._schedule_compute(running, now)
                    return True
            elif isinstance(phase, IoPhase):
                if phase.total_bytes > _BYTE_EPS:
                    self._open_io(running, phase, now)
                    return True
            else:  # pragma: no cover - phase union is closed
                raise SimulationError(f"unknown phase type: {phase!r}")
            running.phase_index += 1
        task.finish_time = now
        return False

    def _open_io(self, running: _Running, phase: IoPhase, now: float) -> None:
        """Create the phase's stream(s) and attach them (balance deferred)."""
        node = running.node
        if self.iostat is not None:
            device = node.device_for(phase.role)
            self.iostat.record(
                device_name=device.name,
                total_bytes=phase.total_bytes,
                request_size=phase.request_size,
                is_write=phase.is_write,
            )
        remote_fraction = 0.0
        if (
            phase.via_network
            and not phase.is_write
            and self.network is not None
            and self.cluster.num_slaves > 1
        ):
            remote_fraction = self.network.remote_fraction(self.cluster.num_slaves)
        disk = self._resource_for(node, phase.role, phase.is_write)
        cap = phase.per_stream_cap
        if self._slowdowns and cap is not None:
            # A straggler's software path (decompression, deserialization)
            # runs slower too: its per-stream cap T shrinks with it.
            factor = self._slowdowns.get(node.name)
            if factor is not None:
                cap = cap / factor
        splits: list[tuple[float, float | None, list[Resource], str]] = []
        if remote_fraction <= 0.0:
            splits.append((phase.total_bytes, cap, [disk], "local"))
        else:
            # Split the phase in the remote proportion; the software-path
            # cap T splits with it so the pair still totals at most T.
            local_share = 1.0 - remote_fraction
            splits.append(
                (
                    phase.total_bytes * local_share,
                    cap * local_share if cap is not None else None,
                    [disk],
                    "local",
                )
            )
            nic = self.registry.get(("nic", node.name))
            splits.append(
                (
                    phase.total_bytes * remote_fraction,
                    cap * remote_fraction if cap is not None else None,
                    [disk, nic],
                    "remote",
                )
            )
        for total_bytes, stream_cap, resources, tag in splits:
            if total_bytes <= _BYTE_EPS:
                continue
            stream = SharedStream(
                remaining_bytes=total_bytes,
                request_size=phase.request_size,
                per_stream_cap=stream_cap,
                label=f"task {running.task.task_id} {tag} {phase.role}"
                f" {'write' if phase.is_write else 'read'}",
                last_update=now,
            )
            for resource in resources:
                resource.attach(stream, rebalance=False)
                self._mark_dirty(resource)
            self._owner[stream.stream_id] = running
            running.streams.append(stream)
            running.open_streams += 1
