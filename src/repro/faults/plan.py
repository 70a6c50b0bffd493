"""Declarative fault plans: what misbehaves, where, and when.

A :class:`FaultPlan` is a small immutable description of hardware
misbehaviour to superimpose on a simulated run — the deviations that
characterization studies report dominating real deployments: disks
throttled below their rated curves, straggler executors, nodes dying
mid-stage, and network links flapping.  Plans are pure data: they name
nodes by *index* (portable across cluster sizes — a fault addressing a
node the deployment does not have is inert) and times in seconds from
each stage's start (stages are simulated independently, so fault windows
recur per stage, like a persistently slow disk would).

Plans serialize to a small JSON document (``load_fault_plan`` /
:meth:`FaultPlan.save`) and fingerprint through the pipeline's
content-addressing scheme, so cached faulted runs can never collide with
clean ones.  :func:`random_fault_plan` derives a reproducible plan from a
seed for randomized metamorphic testing.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.errors import FaultError

_ROLES = ("hdfs", "local")
_DIRECTIONS = ("read", "write")


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise FaultError(message)


def _check_node(node: object, optional: bool = False) -> None:
    """A node index is an ``int`` >= 0 (never a bool); ``None`` too when
    ``optional``."""
    _check(
        (optional and node is None) or (type(node) is int and node >= 0),
        f"node index must be an integer >= 0: {node!r}",
    )


@dataclass(frozen=True)
class DiskFault:
    """Scale a disk direction's effective bandwidth by ``factor``.

    ``start``/``end`` bound the throttle window in seconds from stage
    start (``end=None`` means the whole stage).  ``node``, ``role``
    (``"hdfs"``/``"local"``) and ``direction`` (``"read"``/``"write"``)
    narrow the blast radius; ``None`` means every node / both roles /
    both directions.

    ``factor=0.0`` models a dead disk: streams on it make no progress
    for the window.  Without a resilience policy the engine treats a
    task stuck at zero rate across consecutive settles as a hard error;
    with one, the stall becomes a task failure that retries elsewhere.
    """

    factor: float
    start: float = 0.0
    end: float | None = None
    node: int | None = None
    role: str | None = None
    direction: str | None = None

    def __post_init__(self) -> None:
        _check(0.0 <= self.factor <= 1.0, f"disk fault factor must be in [0, 1]: {self.factor}")
        _check(self.start >= 0.0, f"disk fault start must be >= 0: {self.start}")
        _check(
            self.end is None or self.end > self.start,
            f"disk fault window must be non-empty: [{self.start}, {self.end})",
        )
        _check_node(self.node, optional=True)
        _check(self.role is None or self.role in _ROLES, f"role must be one of {_ROLES}: {self.role!r}")
        _check(
            self.direction is None or self.direction in _DIRECTIONS,
            f"direction must be one of {_DIRECTIONS}: {self.direction!r}",
        )


@dataclass(frozen=True)
class StragglerFault:
    """Make one node's executors slow: compute stretched and per-stream
    software caps shrunk by ``slowdown`` (>= 1)."""

    node: int
    slowdown: float

    def __post_init__(self) -> None:
        _check_node(self.node)
        _check(self.slowdown >= 1.0, f"straggler slowdown must be >= 1: {self.slowdown}")


@dataclass(frozen=True)
class NodeFailureFault:
    """Kill a node ``at_seconds`` into each stage; its in-flight and queued
    tasks are re-executed from scratch on the survivors."""

    node: int
    at_seconds: float

    def __post_init__(self) -> None:
        _check_node(self.node)
        _check(self.at_seconds >= 0.0, f"failure time must be >= 0: {self.at_seconds}")


@dataclass(frozen=True)
class NicJitterFault:
    """Periodically degrade NIC capacity: every ``period`` seconds the link
    runs at ``factor`` for ``duty`` of the period (square wave, first low
    window starting at ``phase``).  Inert when no network is configured —
    the default infinite wire has nothing to degrade."""

    factor: float
    period: float
    duty: float = 0.5
    phase: float = 0.0
    node: int | None = None

    def __post_init__(self) -> None:
        _check(0.0 < self.factor <= 1.0, f"jitter factor must be in (0, 1]: {self.factor}")
        _check(self.period > 0.0, f"jitter period must be positive: {self.period}")
        _check(0.0 < self.duty < 1.0, f"jitter duty cycle must be in (0, 1): {self.duty}")
        _check(self.phase >= 0.0, f"jitter phase must be >= 0: {self.phase}")
        _check_node(self.node, optional=True)


Fault = DiskFault | StragglerFault | NodeFailureFault | NicJitterFault

#: JSON ``type`` tag per fault class (and back).
_FAULT_TYPES: dict[str, type] = {
    "disk": DiskFault,
    "straggler": StragglerFault,
    "node_failure": NodeFailureFault,
    "nic_jitter": NicJitterFault,
}
_TYPE_TAGS = {cls: tag for tag, cls in _FAULT_TYPES.items()}


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of faults, applied together to a run."""

    name: str = "faults"
    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        for fault in self.faults:
            _check(
                type(fault) in _TYPE_TAGS,
                f"unknown fault type: {type(fault).__name__}",
            )

    def fingerprint(self) -> str:
        """Content hash folded into cache keys of faulted runs."""
        # Late import: repro.pipeline imports the simulator which imports
        # the fault injector; going back up here at call time avoids the
        # cycle.
        from repro.pipeline.fingerprint import fingerprint

        return fingerprint(self)

    def describe(self) -> str:
        """``name (k faults)`` one-liner for reports."""
        return f"{self.name} ({len(self.faults)} fault{'s' if len(self.faults) != 1 else ''})"

    def to_dict(self) -> dict:
        """JSON-ready form (see ``docs/TESTING.md`` for the format)."""
        return {
            "name": self.name,
            "faults": [
                {"type": _TYPE_TAGS[type(fault)], **asdict(fault)}
                for fault in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> FaultPlan:
        """Parse the :meth:`to_dict` form, validating every field."""
        if not isinstance(data, dict):
            raise FaultError(f"fault plan must be a JSON object, got {type(data).__name__}")
        raw_faults = data.get("faults", [])
        if not isinstance(raw_faults, list):
            raise FaultError("fault plan 'faults' must be a list")
        faults = []
        for entry in raw_faults:
            if not isinstance(entry, dict) or "type" not in entry:
                raise FaultError(f"each fault needs a 'type' tag: {entry!r}")
            tag = entry["type"]
            fault_cls = _FAULT_TYPES.get(tag) if isinstance(tag, str) else None
            if fault_cls is None:
                raise FaultError(
                    f"unknown fault type {tag!r}; known: {sorted(_FAULT_TYPES)}"
                )
            fields = {key: value for key, value in entry.items() if key != "type"}
            try:
                faults.append(fault_cls(**fields))
            except TypeError as exc:
                raise FaultError(f"bad {tag} fault fields {sorted(fields)}: {exc}") from None
        return cls(name=str(data.get("name", "faults")), faults=tuple(faults))

    def save(self, path: str | Path) -> Path:
        """Write the plan as JSON; returns the path written."""
        target = Path(path)
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return target


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file."""
    source = Path(path)
    try:
        data = json.loads(source.read_text())
    except OSError as exc:
        raise FaultError(f"cannot read fault plan {source}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise FaultError(f"fault plan {source} is not valid JSON: {exc}") from None
    except RecursionError:
        raise FaultError(
            f"fault plan {source} is nested too deeply to parse"
        ) from None
    return FaultPlan.from_dict(data)


def random_fault_plan(
    seed: int,
    nodes: int,
    *,
    max_faults: int = 4,
    allow_failures: bool = True,
) -> FaultPlan:
    """A reproducible plan drawn from ``seed`` for metamorphic sweeps.

    The draw is a pure function of the arguments, so two calls with the
    same seed build equal plans — the determinism and cache-bit-identity
    invariants lean on this.  Node deaths never target node 0, so at
    least one node survives on any cluster size.
    """
    _check(nodes >= 1, f"need at least one node: {nodes}")
    _check(max_faults >= 1, f"need room for at least one fault: {max_faults}")
    rng = random.Random(seed)
    faults: list[Fault] = []
    for _ in range(rng.randint(1, max_faults)):
        kinds = ["disk", "straggler", "nic_jitter"]
        if allow_failures and nodes > 1:
            kinds.append("node_failure")
        kind = rng.choice(kinds)
        if kind == "disk":
            start = round(rng.uniform(0.0, 10.0), 3)
            faults.append(
                DiskFault(
                    factor=round(rng.uniform(0.2, 0.9), 3),
                    start=start,
                    end=None if rng.random() < 0.5 else start + round(rng.uniform(1.0, 30.0), 3),
                    node=None if rng.random() < 0.5 else rng.randrange(nodes),
                    role=rng.choice([None, "hdfs", "local"]),
                    direction=rng.choice([None, "read", "write"]),
                )
            )
        elif kind == "straggler":
            faults.append(
                StragglerFault(
                    node=rng.randrange(nodes),
                    slowdown=round(rng.uniform(1.1, 4.0), 3),
                )
            )
        elif kind == "node_failure":
            faults.append(
                NodeFailureFault(
                    node=rng.randrange(1, nodes),
                    at_seconds=round(rng.uniform(0.0, 15.0), 3),
                )
            )
        else:
            faults.append(
                NicJitterFault(
                    factor=round(rng.uniform(0.2, 0.9), 3),
                    period=round(rng.uniform(0.5, 5.0), 3),
                    duty=round(rng.uniform(0.2, 0.8), 3),
                    phase=round(rng.uniform(0.0, 2.0), 3),
                    node=None if rng.random() < 0.5 else rng.randrange(nodes),
                )
            )
    return FaultPlan(name=f"random-{seed}", faults=tuple(faults))
