"""Equation 1: the per-stage runtime model.

For each stage ``i``::

    t_stage = max(t_scale, t_read_limit, t_write_limit)

    t_scale       = M / (N * P) * t_avg + delta_scale
    t_read_limit  = D_read  / (N * BW_read)  + fill + delta_read
    t_write_limit = D_write / (N * BW_write) + fill + delta_write

``t_scale`` is the compute-bound estimate that scales with ``N * P``;
the two limit terms are the floor set by the stage's aggregate read and
write traffic against the effective bandwidth at the stage's request
sizes.  Following Section IV-B's phase-3 formula (``D/(N*BW) + t_avg``),
each limit term carries a pipeline-fill latency on top of the transfer
floor — one task time by default, ``t_avg / K`` for stages whose tasks
stream their I/O in K chunks.  Whichever term is largest is the stage's
bottleneck.

:func:`scale_term` and :func:`limit_term` are the only implementation of
the terms: :class:`StageModel` calls them at one operating point, and the
array kernel (:mod:`repro.model.arrays`) calls them once per unique
operating point of a candidate grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.variables import StageModelVariables
from repro.errors import ModelError

#: Equation-1 term labels in tie-break order: the *first* maximal term
#: wins the ``max`` in :meth:`StagePrediction.bottleneck`.
BOTTLENECK_LABELS: tuple[str, str, str] = ("scale", "read", "write")


def scale_term(stage, nodes: int, cores_per_node: int) -> float:
    """``M / (N * P) * (t_avg + gc * P) + delta_scale``, clamped at zero.

    ``stage`` is any record of the scale constants (``num_tasks``,
    ``t_avg``, ``gc_coeff``, ``delta_scale``): a
    :class:`~repro.core.variables.StageModelVariables` or a profiled
    :class:`~repro.core.profiler.StageProfileData`.  The GC term (zero by
    default) expands to a P-independent ``M * gc / N`` — the mechanism
    behind stages whose runtime stops improving with cores on fast disks
    (see :mod:`repro.core.gc`).
    """
    per_task = stage.t_avg + stage.gc_coeff * cores_per_node
    value = stage.num_tasks / (nodes * cores_per_node) * per_task + stage.delta_scale
    # A fitted delta_scale can come out negative (two-point calibration
    # on a noisy pair); extrapolating to large N*P must clamp at zero —
    # a stage cannot take negative time, and a negative term would also
    # hand the bottleneck label to the wrong Eq.-1 term.
    return value if value > 0.0 else 0.0


def limit_term(per_node: float, nodes: int, fill: float, delta: float) -> float:
    """``per_node / N + fill + delta``, clamped at zero; 0 when nothing moves.

    ``per_node`` is one direction's slowest-device ``sum(D / BW)``: the
    seconds one node would take to move all of the stage's bytes.
    """
    if per_node == 0.0:
        return 0.0
    value = per_node / nodes + fill + delta
    return value if value > 0.0 else 0.0


@dataclass(frozen=True)
class StagePrediction:
    """The model's output for one stage at one ``(N, P)`` operating point.

    All times are in seconds.  ``bottleneck`` names the term that won the
    ``max`` in Equation 1: ``"scale"``, ``"read"`` or ``"write"``.
    """

    stage_name: str
    nodes: int
    cores_per_node: int
    t_scale: float
    t_read_limit: float
    t_write_limit: float

    @property
    def t_stage(self) -> float:
        """``max(t_scale, t_read_limit, t_write_limit)``."""
        return max(self.t_scale, self.t_read_limit, self.t_write_limit)

    @property
    def bottleneck(self) -> str:
        """Which Equation-1 term dominates this operating point."""
        terms = (self.t_scale, self.t_read_limit, self.t_write_limit)
        # ``max`` keeps the first maximal entry, so ties resolve in
        # BOTTLENECK_LABELS order (scale, then read, then write).
        return BOTTLENECK_LABELS[max(range(3), key=terms.__getitem__)]

    @property
    def io_bound(self) -> bool:
        """True when an I/O limit term (read or write) is the bottleneck."""
        return self.bottleneck != "scale"


class StageModel:
    """Equation 1 for a single stage.

    Parameters
    ----------
    variables:
        The calibrated :class:`~repro.core.variables.StageModelVariables`.
    """

    def __init__(self, variables: StageModelVariables) -> None:
        self.variables = variables

    @property
    def name(self) -> str:
        """Stage label."""
        return self.variables.name

    def t_scale(self, nodes: int, cores_per_node: int) -> float:
        """:func:`scale_term` at ``(N, P)``."""
        self._check_operating_point(nodes, cores_per_node)
        return scale_term(self.variables, nodes, cores_per_node)

    def t_read_limit(self, nodes: int) -> float:
        """``D_read / (N * BW_read) + fill + delta_read`` (0 when nothing is read)."""
        self._check_nodes(nodes)
        v = self.variables
        return limit_term(
            v.read_limit_seconds_per_node(), nodes,
            v.effective_fill_seconds, v.delta_read,
        )

    def t_write_limit(self, nodes: int) -> float:
        """``D_write / (N * BW_write) + fill + delta_write`` (0 when nothing is written)."""
        self._check_nodes(nodes)
        v = self.variables
        return limit_term(
            v.write_limit_seconds_per_node(), nodes,
            v.effective_fill_seconds, v.delta_write,
        )

    def predict(self, nodes: int, cores_per_node: int) -> StagePrediction:
        """Evaluate Equation 1 at ``(N, P)`` and return all three terms."""
        return StagePrediction(
            stage_name=self.name,
            nodes=nodes,
            cores_per_node=cores_per_node,
            t_scale=self.t_scale(nodes, cores_per_node),
            t_read_limit=self.t_read_limit(nodes),
            t_write_limit=self.t_write_limit(nodes),
        )

    def runtime(self, nodes: int, cores_per_node: int) -> float:
        """``t_stage`` in seconds at ``(N, P)``."""
        return self.predict(nodes, cores_per_node).t_stage

    def saturation_cores(self, nodes: int) -> float | None:
        """Cores per node past which Equation 1 stops improving, or None.

        This is where ``t_scale`` crosses the larger I/O limit term: the
        Equation-1 view of the turning point ``B``.  ``t_scale`` is
        ``M·t_avg/(N·P) + M·gc/N + δ``, so the crossover solves
        ``P* = M·t_avg / (N·(floor − δ − M·gc/N))``.  Returns ``None``
        when ``t_scale`` never meets the floor: the stage has no I/O
        floor (no channels), or ``δ + M·gc/N`` alone reaches it.
        """
        self._check_nodes(nodes)
        v = self.variables
        floor = max(self.t_read_limit(nodes), self.t_write_limit(nodes))
        margin = floor - v.delta_scale - v.num_tasks * v.gc_coeff / nodes
        if margin <= 0.0 or v.t_avg == 0.0:
            return None
        return v.num_tasks * v.t_avg / (nodes * margin)

    def _check_operating_point(self, nodes: int, cores_per_node: int) -> None:
        self._check_nodes(nodes)
        if cores_per_node <= 0:
            raise ModelError(
                f"stage {self.name}: cores per node must be positive,"
                f" got {cores_per_node}"
            )

    def _check_nodes(self, nodes: int) -> None:
        if nodes <= 0:
            raise ModelError(f"stage {self.name}: node count must be positive, got {nodes}")

    def __repr__(self) -> str:
        v = self.variables
        return (
            f"StageModel({v.name}: M={v.num_tasks}, t_avg={v.t_avg:.3f}s,"
            f" D_read={v.read_bytes:.0f}B, D_write={v.write_bytes:.0f}B)"
        )
