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
from bisect import bisect_left
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import reduce
from operator import add, attrgetter

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
    SharedStream,
    SlotPool,
    rebalance_coupled,
)
from repro.resources.stream import DONE_BYTES
from repro.schedule.scheduler import ExecutorBlacklist
from repro.simulator.task import ComputePhase, IoPhase, SimTask
from repro.storage.array import DiskArray
from repro.storage.iostat import IostatCollector

#: Remaining work below these thresholds counts as complete.
_BYTE_EPS = 1e-6
_TIME_EPS = 1e-9

#: The stuck-loop guard: a run that processes more event batches than
#: this raises instead of spinning.
MAX_EVENTS = 50_000_000

#: Positive inter-event gaps the busy-time log holds before every busy
#: key's seconds are folded and the log restarts (see
#: :meth:`SimulationEngine._account_busy_time`).
GAP_LOG_LENGTH = 1024

#: A stream's label, by (local/remote split, device role, is_write).
_STREAM_LABELS = {
    (tag, role, is_write): f"{tag} {role} {'write' if is_write else 'read'}"
    for tag in ("local", "remote")
    for role in ("hdfs", "local")
    for is_write in (False, True)
}

#: Sort and search key: a task's process-wide id.
_task_id = attrgetter("task_id")


def _position(tasks: list[SimTask], task: SimTask) -> int:
    """``task``'s index in ``tasks``, a list in task-id order."""
    return bisect_left(tasks, task.task_id, key=_task_id)


#: Heap entry kinds.
_EV_STREAM = 0
_EV_COMPUTE = 1
_EV_FAULT = 2
_EV_RETRY = 3
_EV_SPEC = 4
_EV_STALL = 5


@dataclass(slots=True)
class _Running:
    """Book-keeping for one in-flight task attempt.

    The launch scan builds one per attempt as ``_Running(task, node,
    attempt_start, record)``.
    """

    task: SimTask
    node: Node
    #: When this attempt started (== ``task.start_time`` without a policy;
    #: retries and speculative duplicates start later than the task).
    attempt_start: float = 0.0
    #: The task's resilience record (``None`` without a policy).
    record: _TaskRecord | None = None
    phase_index: int = 0
    #: I/O streams of the current phase still moving bytes (a phase may
    #: hold several when a shuffle read splits into local + remote).
    open_streams: int = 0
    compute_remaining: float = 0.0
    #: Bumped at every phase transition; stale heap entries are dropped.
    epoch: int = 0
    streams: list[SharedStream] = field(default_factory=list)
    #: A speculative duplicate (resilience only).
    speculative: bool = False


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
    """Runs task sets on a cluster with ``P`` executor cores per node.

    The engine owns the event loop, the launch scan, phase transitions
    and node death.  A subclass changes what it needs through five
    hooks: :meth:`_next_task`, :meth:`_queue_task` and
    :meth:`_take_queued` say which queued task a node launches next and
    where a requeued task goes, :meth:`_task_done` says what a finished
    task means, and :meth:`_task_label` how an error names a task.
    :class:`~repro.schedule.mix.MixEngine` uses them to run several jobs
    at once.

    An event batch costs what it changes.  :meth:`_loop` retires stream
    and compute completions itself (:meth:`_process_entry` handles the
    rarer kinds); a dirty resource that forms a coupling component on its
    own — every one without a network — is water-filled and has its
    changed streams materialized, completed or rescheduled in one pass
    (:meth:`_rebalance_lone`); only coupled groups go through
    :meth:`_rebalance_component`.  Busy time is not spread over the busy
    resources at every event: each positive gap is logged once and
    folded into a busy key's seconds when the number of busy resources
    holding that key changes (:meth:`_account_busy_time`).
    """

    #: What :meth:`_loop` counts down (named in error messages).
    _unit = "task"

    def __init__(
        self,
        cluster: Cluster,
        cores_per_node: int,
        iostat: IostatCollector | None = None,
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
        self.network = network
        #: Every rate resource, in creation order.
        self.resources: list[Resource] = []
        #: Busy-accounting key of every rate resource, by ``id(resource)``.
        self._busy_keys: dict[int, tuple[str, bool]] = {}
        self._cores: dict[str, SlotPool] = {}
        #: Node name -> its NIC (only with a network).
        self._nics: dict[str, LinkResource] = {}
        #: (node name, role, is_write) -> (device name, the resources a
        #: stream opened there lands on, taken round-robin): one resource
        #: for a plain device, one per member for a per-member array.
        #: HDFS and local on one device share the entry's cycle, so the
        #: two roles stripe across an array's members with one cursor.
        self._disks: dict[tuple[str, str, bool], tuple[str, Iterator[Resource]]] = {}
        #: The same keys -> every resource of that cycle, in member order.
        self._disk_members: dict[tuple[str, str, bool], tuple[Resource, ...]] = {}
        made: dict[tuple[int, bool], tuple[tuple[Resource, ...], Iterator[Resource]]] = {}
        for node in cluster.slaves:
            self._cores[node.name] = SlotPool(f"{node.name}:cores", cores_per_node)
            # One resource per *physical* device direction (HDFS and local
            # may share a device); per-member arrays get one per member.
            for role in ("hdfs", "local"):
                device = node.device_for(role)
                for is_write in (False, True):
                    key = (id(device), is_write)
                    if key not in made:
                        if isinstance(device, DiskArray) and device.per_member:
                            targets = device.members
                        else:
                            targets = [device]
                        members = tuple(
                            DeviceResource(target, is_write) for target in targets
                        )
                        for member in members:
                            self.resources.append(member)
                            self._busy_keys[id(member)] = (
                                member.device.name, is_write
                            )
                        made[key] = members, itertools.cycle(members)
                    members, stripe = made[key]
                    self._disks[node.name, role, is_write] = (device.name, stripe)
                    self._disk_members[node.name, role, is_write] = members
            if network is not None:
                nic = LinkResource(f"{node.name}:nic", network.link_bandwidth)
                self._nics[node.name] = nic
                self.resources.append(nic)
                self._busy_keys[id(nic)] = (nic.name, False)
        # -- fault injection ------------------------------------------------
        self.faults = faults
        self._injector: FaultInjector | None = None
        self._slowdowns: dict[str, float] = {}
        if faults is not None and faults.faults:
            self._injector = FaultInjector(
                faults, cluster, self._disk_members, self._nics
            )
            self._slowdowns = self._injector.slowdowns
        # -- resilience -----------------------------------------------------
        #: ``None`` keeps every code path bit-identical to the
        #: pre-resilience engine; every mitigation below is gated on it.
        self.resilience = resilience
        self._rpolicy = resilience
        self.stage_name = stage_name
        self._reset()

    def _reset(self) -> None:
        """Clear the per-run state, then arm the fault plan's first actions."""
        #: Seconds each (device name, is_write) direction had >= 1 active
        #: stream over the last run.
        self.device_busy_seconds: dict[tuple[str, bool], float] = {}
        #: Core-seconds occupied by tasks (held during I/O and compute).
        self.core_busy_seconds: float = 0.0
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._dirty_resources: dict[int, Resource] = {}
        #: ``id`` of every rate resource holding at least one stream: kept
        #: current by :meth:`_settle` as it drains dirty ones.
        self._busy: set[int] = set()
        #: Busy key -> [busy resources holding it, index into ``_gaps``
        #: from which that count applies and is not yet folded].
        self._holders: dict[tuple[str, bool], list[int]] = {
            key: [0, 0] for key in self._busy_keys.values()
        }
        #: Positive inter-event gaps since the log last restarted.
        self._gaps: list[float] = []
        self._owner: dict[int, _Running] = {}
        self._stalled: dict[int, SharedStream] = {}
        self._freed_nodes: set[str] = set()
        self._dead_nodes: set[str] = set()
        self._active: dict[int, _Running] = {}
        self._pending: dict[str, deque[SimTask]] = {
            node.name: deque() for node in self.cluster.slaves
        }
        #: The run's tasks in task-id order: a task's position here is
        #: the number errors name it by, whatever ids the process handed
        #: out before.
        self._tasks: list[SimTask] = []
        self._num_running = 0
        #: Work the loop runs until none is left (see ``_unit``).
        self._unfinished = 0
        # -- resilience (inert without a policy) ---------------------------
        self._records: dict[int, _TaskRecord] = {}
        self._records_order: list[_TaskRecord] = []
        self._finished_durations: list[float] = []
        self._total_tasks = 0
        self._spec_candidates: list[_TaskRecord] = []
        self._stall_failed: list[_Running] = []
        self._blacklist: ExecutorBlacklist | None = None
        if self._rpolicy is not None and self._rpolicy.blacklist is not None:
            self._blacklist = ExecutorBlacklist(
                self._rpolicy.blacklist.max_node_strikes,
                [node.name for node in self.cluster.slaves],
            )
        self._res_attempts = 0
        self._res_spec_launched = 0
        self._res_spec_wins = 0
        self._res_retries = 0
        self._res_reattempts = 0
        self._res_backoff = 0.0
        if self._injector is not None:
            self._injector.reset()
            for at_seconds, action in self._injector.initial_actions():
                heapq.heappush(
                    self._heap, (at_seconds, next(self._seq), _EV_FAULT, action, 0)
                )

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
        tasks = sorted(tasks, key=_task_id)
        self._reset()
        self._tasks = tasks
        slaves = self.cluster.slaves
        for index, task in enumerate(tasks):
            self._pending[slaves[index % len(slaves)].name].append(task)
        if self._rpolicy is not None:
            for task in tasks:
                record = _TaskRecord(task=task)
                self._records[task.task_id] = record
                self._records_order.append(record)
            self._total_tasks = len(tasks)
        self._unfinished = len(tasks)
        self._launch_waiting(0.0, set(self._pending))
        return self._loop()

    def _loop(self) -> float:
        """Process event batches from t = 0 until no work is unfinished;
        returns the time of the last batch.

        A batch is every valid heap entry due within ``_TIME_EPS`` of the
        earliest.  Stream and compute completions are retired here; an
        entry invalidated by an earlier one of the same batch is skipped.
        """
        now = 0.0
        self._settle(now)
        heap = self._heap
        heappop = heapq.heappop
        events = 0
        while self._unfinished > 0:
            events += 1
            if events > MAX_EVENTS:
                raise SimulationError(
                    f"exceeded {MAX_EVENTS} events; simulation is stuck"
                )
            batch: list[tuple] = []
            while heap:
                entry = heap[0]
                if entry[3].epoch != entry[4]:
                    heappop(heap)
                elif not batch:
                    batch.append(heappop(heap))
                    limit = entry[0] + _TIME_EPS
                elif entry[0] > limit:
                    break
                else:
                    batch.append(heappop(heap))
            if not batch:
                # With a retry policy, stalled-at-zero attempts become
                # task failures instead of a dead end: fail them and let
                # the retries repopulate the heap.
                if self._rescue_stalled(now):
                    self._settle(now)
                    continue
                self._raise_stuck()
            at = batch[0][0]
            self._account_busy_time(at - now)
            now = at
            for entry in batch:
                _, _, kind, obj, epoch = entry
                if obj.epoch != epoch:
                    continue
                if kind == _EV_STREAM:
                    obj.remaining_bytes = 0.0
                    self._complete_stream(obj, now)
                elif kind == _EV_COMPUTE:
                    obj.compute_remaining = 0.0
                    self._transition(obj, now)
                else:
                    self._process_entry(entry, now)
            self._settle(now)
        self._fold_busy()
        return now

    def _process_entry(self, entry: tuple, now: float) -> None:
        """Handle a valid heap entry of a kind :meth:`_loop` leaves out."""
        _, _, kind, obj, _ = entry
        if kind == _EV_FAULT:
            self._process_fault(obj, now)
        elif kind == _EV_RETRY:
            self._process_retry(obj, now)
        elif kind == _EV_SPEC:
            self._process_spec(obj, now)
        else:  # _EV_STALL
            self._process_stall(obj, now)

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
        with the dead node's queued tasks, round-robin across the
        surviving nodes in task-id order — Spark's task re-execution on
        executor loss.

        With a resilience policy, in-flight attempts instead *fail*: each
        is charged against its task's attempt budget and resubmitted
        after the modeled backoff (never to the dead node), escalating to
        stage re-attempts and :class:`~repro.errors.StageFailedError`.
        Queued tasks never started, so they move without a charge.
        """
        if name in self._dead_nodes:
            return
        self._dead_nodes.add(name)
        survivors = [
            node for node in self.cluster.slaves if node.name not in self._dead_nodes
        ]
        if not survivors:
            if self._unfinished > 0:
                raise SimulationError(
                    f"node {name} died leaving no live nodes with"
                    f" {self._unfinished} {self._unit}(s) unfinished"
                )
            return
        doomed = [r for r in self._active.values() if r.node.name == name]
        if self._rpolicy is not None:
            doomed.sort(key=lambda r: (r.task.task_id, r.speculative))
            for running in doomed:
                self._fail_attempt(
                    running, now, f"node {name} died", release_slot=False
                )
            moved = self._take_queued(name)
            targets = [node for node in self._eligible_nodes()
                       if node.name != name]
        else:
            moved = []
            for running in doomed:
                self._cancel_attempt(running, release_slot=False)
                running.task.start_time = -1.0
                running.task.finish_time = -1.0
                moved.append(running.task)
            moved.extend(self._take_queued(name))
            targets = survivors
        moved.sort(key=lambda t: t.task_id)
        for index, task in enumerate(moved):
            self._queue_task(task, targets[index % len(targets)])
        if moved:
            self._freed_nodes.update(node.name for node in targets)

    def _complete_stream(self, stream: SharedStream, now: float) -> None:
        """Detach a finished stream (balance deferred); the last stream of
        a phase moves its task on."""
        stream.epoch += 1  # invalidate any scheduled entry
        stream_id = stream.stream_id
        self._stalled.pop(stream_id, None)
        dirty = self._dirty_resources
        request_size = stream.request_size
        for resource in stream.resources:
            del resource._streams[stream_id]
            sizes = resource._sizes
            if sizes[request_size] == 1:
                del sizes[request_size]
            else:
                sizes[request_size] -= 1
            dirty[id(resource)] = resource
        stream.resources.clear()
        stream.rate = 0.0
        running = self._owner.pop(stream_id)
        running.streams.remove(stream)
        running.open_streams -= 1
        if running.open_streams == 0:
            self._transition(running, now)

    def _transition(self, running: _Running, now: float) -> None:
        """Move a task past its completed phase; complete it if done."""
        running.epoch += 1
        running.phase_index += 1
        if not self._enter_phase(running, now):
            self._complete(running, now)

    def _complete(self, running: _Running, now: float) -> None:
        """An attempt ran out of phases: free its core, record the task done."""
        self._active.pop(id(running), None)
        self._cores[running.node.name].release()
        self._num_running -= 1
        self._task_done(running, now)
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
            pool = self._cores[node.name]
            while pool.free > 0:
                task = self._next_task(node, now)
                if task is None:
                    break
                pool.acquire()
                self._num_running += 1
                task.start_time = now
                record = (
                    self._records[task.task_id] if self._rpolicy is not None else None
                )
                running = _Running(task, node, now, record)
                if record is not None:
                    record.running.append(running)
                    self._res_attempts += 1
                if not self._enter_phase(running, now):
                    self._complete(running, now)
                else:
                    self._active[id(running)] = running
                    if record is not None:
                        self._arm_spec_check(running, now)

    # -- what a subclass may change ----------------------------------------

    def _next_task(self, node: Node, now: float) -> SimTask | None:
        """Pop the task ``node`` launches at ``now``: the head of its queue
        (``None`` when nothing is queued there)."""
        queue = self._pending[node.name]
        return queue.popleft() if queue else None

    def _queue_task(self, task: SimTask, node: Node) -> None:
        """Queue a (re)submitted task on ``node``."""
        self._pending[node.name].append(task)

    def _take_queued(self, name: str) -> list[SimTask]:
        """Remove and return every task queued on node ``name``."""
        queue = self._pending[name]
        tasks = list(queue)
        queue.clear()
        return tasks

    def _task_label(self, task: SimTask) -> str:
        """How an error names ``task``: by its index in its stage."""
        return f"task {_position(self._tasks, task)}"

    def _task_done(self, running: _Running, now: float) -> None:
        """What a finished attempt means: one fewer task is unfinished.

        Under a resilience policy the first finisher wins: the task
        completes, its twin attempts are cancelled, and speculation
        re-examines the stragglers.
        """
        record = running.record
        if record is None:
            self._unfinished -= 1
            return
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
        self._unfinished -= 1
        if self._rpolicy is not None and self._rpolicy.speculation is not None:
            self._finished_durations.append(now - running.attempt_start)
            self._update_speculation(now)

    def _settle(self, now: float) -> None:
        """Launch onto freed slots and re-balance dirty resources, to fixpoint.

        Materializing remaining bytes at a rate change can itself complete
        a stream (the sub-:data:`_BYTE_EPS` clamp), which frees slots and
        dirties more resources — hence the loop.

        Every attach and detach marks its resource dirty, so draining the
        dirty set is also where ``_busy`` learns which resources hold a
        stream (and ``_holders`` how many hold each busy key).  Without a
        network every stream is bound to exactly one resource (only
        :meth:`_open_io`'s remote split binds two), so each dirty resource
        is its own component and no closure walk is needed.
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
                if resource._streams:
                    if ident not in busy:
                        busy.add(ident)
                        self._count_holders(self._busy_keys[ident], 1)
                elif ident in busy:
                    busy.remove(ident)
                    self._count_holders(self._busy_keys[ident], -1)
            if self.network is None:
                for resource in dirty.values():
                    self._rebalance_lone(resource, now)
            else:
                for component in self._components(dirty):
                    if len(component) == 1:
                        self._rebalance_lone(component[0], now)
                    else:
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

    def _rebalance_lone(self, resource: Resource, now: float) -> None:
        """Water-fill a resource no stream couples to another, then apply
        every rate that moved.

        A component is closed under stream sharing, so a lone resource's
        streams are bound to it alone: :meth:`Resource._waterfill` on its
        capacity is the exact historical arithmetic.
        """
        streams = list(resource._streams.values())
        if streams:
            old_rates = [stream.rate for stream in streams]
            resource._waterfill(streams, resource.attached_capacity())
            self._apply_rates(streams, old_rates, now)

    def _rebalance_component(self, component: list[Resource], now: float) -> None:
        """Max-min fill a coupled group, then apply every rate that moved."""
        streams = list({
            stream.stream_id: stream
            for resource in component
            for stream in resource._streams.values()
        }.values())
        old_rates = [stream.rate for stream in streams]
        rebalance_coupled(component)
        self._apply_rates(streams, old_rates, now)

    def _apply_rates(
        self, streams: list[SharedStream], old_rates: list[float], now: float
    ) -> None:
        """Move each stream whose rate changed from ``old_rates``.

        Its remaining bytes are materialized at the old rate (clamped to
        zero under :data:`_BYTE_EPS`); a drained stream completes, any
        other gets a new finish entry at its new rate, or a stall strike
        at rate zero.  A stream left at rate zero with work to do takes a
        strike too.
        """
        guarded = self._rpolicy is not None
        owner = self._owner
        stalled = self._stalled
        heap = self._heap
        seq = self._seq
        for stream, old_rate in zip(streams, old_rates):
            if guarded and stream.stream_id not in owner:
                # Cancelled mid-loop: a first-finisher win earlier in this
                # pass tore down its losing twin's streams.
                continue
            rate = stream.rate
            if rate == old_rate:
                if rate <= 0.0 and not stream.done:
                    self._note_stall(stream, now)
                continue
            elapsed = now - stream.last_update
            if elapsed > 0.0 and old_rate > 0.0:
                stream.remaining_bytes -= old_rate * elapsed
                if stream.remaining_bytes < _BYTE_EPS:
                    stream.remaining_bytes = 0.0
            stream.last_update = now
            if stream.remaining_bytes <= DONE_BYTES:
                self._complete_stream(stream, now)
                continue
            stream.epoch += 1
            if rate > 0.0:
                stream.stalled = False
                stalled.pop(stream.stream_id, None)
                heapq.heappush(
                    heap,
                    (now + stream.remaining_bytes / rate, next(seq),
                     _EV_STREAM, stream, stream.epoch),
                )
            else:
                self._note_stall(stream, now)

    def _note_stall(self, stream: SharedStream, now: float) -> None:
        """Zero rate with work remaining: one strike, then a hard error.

        A second consecutive zero-rate allocation can never finish — fail
        loudly naming the culprit instead of hanging until ``MAX_EVENTS``.
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
                f" {self._describe_stream(stream)}"
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

    def _describe_stream(self, stream: SharedStream) -> str:
        """A stream for an error message, led by its task's label."""
        owner = self._owner[stream.stream_id]
        return f"{self._task_label(owner.task)} {stream.describe()}"

    def _raise_stuck(self) -> None:
        if self._stalled:
            stuck = ", ".join(
                self._describe_stream(s) for s in self._stalled.values()
            )
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
        moved = sorted(self._take_queued(name), key=lambda t: t.task_id)
        if not moved:
            return
        targets = [node for node in self._eligible_nodes() if node.name != name]
        if not targets:  # pragma: no cover - exclusion guarantees a survivor
            targets = [
                node for node in self.cluster.slaves
                if node.name not in self._dead_nodes and node.name != name
            ]
        for index, task in enumerate(moved):
            self._queue_task(task, targets[index % len(targets)])
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
                    _position(self._tasks, record.task),
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
        self._queue_task(record.task, target)
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
                self._complete(running, now)
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
        """Charge the gap ``dt`` before an event batch to the busy time.

        Core-seconds grow by ``dt`` per running task at once.  Device
        busy time is deferred: a positive gap is appended to ``_gaps``,
        and a busy key's seconds take the gaps it spanned when the number
        of busy resources holding it changes (:meth:`_count_holders`),
        when the log reaches :data:`GAP_LOG_LENGTH` and when :meth:`_loop`
        ends (:meth:`_fold_busy`).  Each gap is added once per busy
        resource holding the key, gap after gap in event order, so every
        sum equals adding ``dt`` to every busy resource at every event,
        bit for bit; a key that never spans a positive gap gets no entry.
        """
        if dt <= 0.0:
            return
        self.core_busy_seconds += self._num_running * dt
        gaps = self._gaps
        gaps.append(dt)
        if len(gaps) == GAP_LOG_LENGTH:
            self._fold_busy()

    def _count_holders(self, key: tuple[str, bool], delta: int) -> None:
        """One busy resource more (``delta`` 1) or fewer (-1) holds ``key``;
        the gaps spanned at the old count are folded first."""
        holders = self._holders[key]
        if holders[0]:
            self._fold(key, holders[0], holders[1])
        holders[0] += delta
        holders[1] = len(self._gaps)

    def _fold(self, key: tuple[str, bool], count: int, since: int) -> None:
        """Add each gap logged from ``since`` on to ``key``'s busy seconds,
        ``count`` times in a row, as a left fold (not ``sum``, which may
        compensate)."""
        gaps = self._gaps[since:]
        if not gaps:
            return
        if count > 1:
            gaps = itertools.chain.from_iterable(zip(*[gaps] * count))
        busy_seconds = self.device_busy_seconds
        busy_seconds[key] = reduce(add, gaps, busy_seconds.get(key, 0.0))

    def _fold_busy(self) -> None:
        """Fold every busy key's logged gaps and restart the log."""
        for key, holders in self._holders.items():
            if holders[0]:
                self._fold(key, holders[0], holders[1])
            holders[1] = 0
        self._gaps.clear()

    # -- phase entry -------------------------------------------------------

    def _enter_phase(self, running: _Running, now: float) -> bool:
        """Advance ``running`` into its next non-empty phase.

        Returns False when the task ran out of phases (it is finished and
        its ``finish_time`` is stamped).
        """
        task = running.task
        phases = task.phases
        index = running.phase_index
        while index < len(phases):
            phase = phases[index]
            if isinstance(phase, ComputePhase):
                seconds = phase.seconds
                if seconds > _TIME_EPS:
                    running.phase_index = index
                    if self._slowdowns:
                        factor = self._slowdowns.get(running.node.name)
                        if factor is not None:
                            seconds = seconds * factor
                    running.compute_remaining = seconds
                    heapq.heappush(
                        self._heap,
                        (now + seconds, next(self._seq), _EV_COMPUTE, running,
                         running.epoch),
                    )
                    return True
            elif isinstance(phase, IoPhase):
                if phase.total_bytes > _BYTE_EPS:
                    running.phase_index = index
                    self._open_io(running, phase, now)
                    return True
            else:  # pragma: no cover - phase union is closed
                raise SimulationError(f"unknown phase type: {phase!r}")
            index += 1
        running.phase_index = index
        task.finish_time = now
        return False

    def _open_io(self, running: _Running, phase: IoPhase, now: float) -> None:
        """Create the phase's stream(s) and attach them (balance deferred).

        One lookup in the engine's device table gives the device name the
        iostat sample is charged to and the resource the stream lands on
        (the next array member, for a per-member array); the stream's
        label comes from :data:`_STREAM_LABELS`.  With a network, a
        shuffle read splits into a local stream and a remote one that
        also crosses the node's NIC.
        """
        node = running.node
        role = phase.role
        is_write = phase.is_write
        device_name, stripe = self._disks[node.name, role, is_write]
        if self.iostat is not None:
            self.iostat.record(
                device_name, phase.total_bytes, phase.request_size, is_write
            )
        disk = next(stripe)
        cap = phase.per_stream_cap
        if self._slowdowns and cap is not None:
            # A straggler's software path (decompression, deserialization)
            # runs slower too: its per-stream cap T shrinks with it.
            factor = self._slowdowns.get(node.name)
            if factor is not None:
                cap = cap / factor
        remote_fraction = 0.0
        if (
            phase.via_network
            and not is_write
            and self.network is not None
            and self.cluster.num_slaves > 1
        ):
            remote_fraction = self.network.remote_fraction(self.cluster.num_slaves)
        if remote_fraction <= 0.0:
            splits: tuple[tuple[float, float | None, list[Resource], str], ...] = (
                (phase.total_bytes, cap, [disk], "local"),
            )
        else:
            # Split the phase in the remote proportion; the software-path
            # cap T splits with it so the pair still totals at most T.
            local_share = 1.0 - remote_fraction
            nic = self._nics[node.name]
            splits = (
                (
                    phase.total_bytes * local_share,
                    cap * local_share if cap is not None else None,
                    [disk],
                    "local",
                ),
                (
                    phase.total_bytes * remote_fraction,
                    cap * remote_fraction if cap is not None else None,
                    [disk, nic],
                    "remote",
                ),
            )
        dirty = self._dirty_resources
        request_size = phase.request_size
        for total_bytes, stream_cap, resources, tag in splits:
            if total_bytes <= _BYTE_EPS:
                continue
            stream = SharedStream(
                total_bytes,
                request_size,
                stream_cap,
                label=_STREAM_LABELS[tag, role, is_write],
                resources=resources,
                last_update=now,
            )
            for resource in resources:
                resource._streams[stream.stream_id] = stream
                sizes = resource._sizes
                sizes[request_size] = sizes.get(request_size, 0) + 1
                dirty[id(resource)] = resource
            self._owner[stream.stream_id] = running
            running.streams.append(stream)
            running.open_streams += 1
