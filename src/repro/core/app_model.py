"""Application-level model: ``t_app = sum(t_stage)`` over all stages.

The paper models each stage independently with Equation 1 and sums them for
the application runtime.  :class:`ApplicationModel` also exposes per-stage
breakdowns and bottleneck attribution at any ``(N, P)`` point — the raw
material for Figs. 7-12.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce

from repro.core.stage_model import StageModel, StagePrediction
from repro.errors import ModelError


@dataclass(frozen=True)
class ApplicationPrediction:
    """Model output for a whole application at one ``(N, P)`` point."""

    app_name: str
    nodes: int
    cores_per_node: int
    stages: tuple[StagePrediction, ...]

    @property
    def t_app(self) -> float:
        """Total predicted runtime: the sum of all stage runtimes.

        A left fold in stage order, like the array kernel's: from Python
        3.12 on, ``sum()`` of floats is compensated and would move the
        last digits with the interpreter version.
        """
        return reduce(operator.add, (stage.t_stage for stage in self.stages), 0)

    def stage(self, name: str) -> StagePrediction:
        """Look up one stage's prediction by name."""
        for prediction in self.stages:
            if prediction.stage_name == name:
                return prediction
        raise ModelError(f"{self.app_name}: no stage named {name!r}")

    @property
    def bottleneck_stage(self) -> StagePrediction:
        """The stage contributing the most predicted time."""
        return max(self.stages, key=lambda stage: stage.t_stage)


class ApplicationModel:
    """A sequence of :class:`StageModel` summed into an application model."""

    def __init__(self, name: str, stages: Iterable[StageModel]) -> None:
        self.name = name
        self.stages: tuple[StageModel, ...] = tuple(stages)
        if not self.stages:
            raise ModelError(f"application {name} needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ModelError(f"application {name} has duplicate stage names: {names}")

    def stage(self, name: str) -> StageModel:
        """Look up one stage model by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise ModelError(f"{self.name}: no stage named {name!r}")

    def predict(self, nodes: int, cores_per_node: int) -> ApplicationPrediction:
        """Evaluate every stage at ``(N, P)``."""
        return ApplicationPrediction(
            app_name=self.name,
            nodes=nodes,
            cores_per_node=cores_per_node,
            stages=tuple(stage.predict(nodes, cores_per_node) for stage in self.stages),
        )

    def runtime(self, nodes: int, cores_per_node: int) -> float:
        """Total predicted application runtime in seconds."""
        return self.predict(nodes, cores_per_node).t_app

    def __repr__(self) -> str:
        names = ", ".join(stage.name for stage in self.stages)
        return f"ApplicationModel({self.name}: [{names}])"
