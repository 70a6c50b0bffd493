"""Discrete-event cluster simulator.

This is the library's stand-in for the paper's physical testbed: it
executes stage task sets on an ``N x P``-core cluster with
processor-sharing storage devices, and its measured makespans play the
role of the paper's "exp" bars in Figs. 7-12.

- :mod:`repro.simulator.task` — task/phase descriptions (read → compute →
  write, holding one core throughout, as a Spark task does).
- :mod:`repro.simulator.engine` — the fluid event loop: advance to the next
  phase completion, re-balance device queues, launch waiting tasks.
- :mod:`repro.simulator.run` — the stage driver and the stage/application
  measurement records (makespan, per-task times, iostat samples).
"""

from repro.simulator.task import ComputePhase, IoPhase, SimTask, TaskPhase
from repro.simulator.engine import SimulationEngine
from repro.simulator.run import (
    StageMeasurement,
    ApplicationMeasurement,
    run_stage,
)

__all__ = [
    "ComputePhase",
    "IoPhase",
    "SimTask",
    "TaskPhase",
    "SimulationEngine",
    "StageMeasurement",
    "ApplicationMeasurement",
    "run_stage",
]
